//! The online tiered runtime: per-loop hot-location state machine,
//! incremental annotation, and continuous re-selection.
//!
//! The offline batch ([`crate::pipeline::run_pipeline`]) analyzes and
//! annotates the whole program up front, profiles it once, and selects
//! once. A real Jrpm runtime cannot afford that: dependence analysis
//! and annotation overhead must be spent only on loops that prove hot.
//! This module restructures the pipeline as a *tier controller* that
//! drives every candidate loop through a small state machine:
//!
//! ```text
//!            count > 0            hot / budget        entries > 0
//!   Cold ───────────────▶ Counting ───────────▶ Tracing ─────────▶ Profiled
//!                             │ prescreen proves      │ banks starved          │ Eq 2 (windowed,
//!                             │ a serial dep          │ past trace_budget      │ hysteresis)
//!                             ▼                       ▼  [TI001]               ▼
//!                          Demoted ◀──────────────────┘              Selected ◀──▶ Revised
//!                          (static)                                      (re-selection flaps
//!                                                                        past flap_limit: TI002)
//! ```
//!
//! * **Counting** — a [`tvm::HotLocations`] probe on the loop's header
//!   pc, maintained by the interpreter itself ([`tvm::LocationHook`]).
//!   This is yk's `Location`/`MT` division of labour: the location
//!   holds a counter until the hot threshold trips, then the controller
//!   (yk's `MT`) takes over. The probe costs zero *simulated* cycles
//!   and a couple of array loads of real time, so it can stay on
//!   forever (the `tier` regression gate pins its wall-clock overhead).
//! * **Tracing** — the loop is promoted: its static memory-dependence
//!   verdict, computed once by extraction, is revealed *now*, and if
//!   clean, the loop alone is patched into the running image
//!   ([`crate::annotate::PatchState`]). Verdicts are eager because
//!   rescue needs them at startup anyway; screening each loop again on
//!   promotion would solve its dependences twice.
//! * **Profiled / Selected / Revised** — each subsequent *epoch* (one
//!   deterministic execution of the current image) feeds a windowed
//!   profile ([`test_tracer::SelectionWindow`]); Equation 1+2 re-runs
//!   over the aggregate, and verdict flips commit only after
//!   [`TierConfig::hysteresis`] consecutive agreeing epochs.
//!
//! Patching invalidates the window (profiles across different
//! annotation sets are not comparable), so every patch bumps the
//! window *generation*.
//!
//! **Unchanged images are not re-executed.** An epoch is a pure
//! function of its image: the interpreter is deterministic, the probes
//! cost no simulated cycles, and each epoch's tracer is fresh with
//! fixed masks. So the controller holds the outcome of the last epoch
//! that ran, keyed by the image generation
//! ([`PatchState::generation`]), and an epoch on an unchanged image (a
//! confirmation epoch after one that patched nothing) takes it instead
//! of interpreting. `pipeline.interpreter_passes` counts the runs,
//! `tier.reused_epochs` the rest.
//!
//! **Online ≡ offline.** Finalization patches every remaining clean
//! loop and runs one last epoch of the now-complete image — or, when
//! finalization patched nothing and the last run was traced, reuses
//! that run (a traced run, `obs.trace`, always runs it, for its
//! tracer series and sink track). Because the incremental image is exactly
//! `annotate(original, only(all clean loops))` (the [`PatchState`]
//! invariant) and that equals the offline profiling image, the final
//! epoch's profile, derived sequential baseline, selection, and
//! actual-TLS numbers are bit-identical to the offline batch — the
//! property the `tier_equivalence` suite pins across every benchmark. [`run_pipeline`](crate::pipeline::run_pipeline) itself
//! is now a thin wrapper over [`run_tiered`] with
//! [`TierConfig::immediate`].

use crate::annotate::{AnnotateOptions, PatchState};
use crate::pipeline::{
    collect_and_simulate, record_bus_report, record_tracer_profile, PipelineConfig,
    PipelineObservability, PipelineReport, RescueSummary, StageRecorder,
};
use cfgir::{
    distance_floors, extract_candidates, rescue_extracted, ProgramCandidates, StaticVerdict,
};
use obs::{Telemetry, Trace as ObsTrace};
use std::collections::BTreeSet;
use std::sync::Arc;
use test_tracer::{select_with_distances, Profile, SelectionWindow, TestTracer};
use tvm::bus::{BusReport, TraceBus};
use tvm::interp::FinalState;
use tvm::isa::LoopId;
use tvm::program::Program;
use tvm::{CostModel, HotLocations, Interp, NoHook, NullSink, VmError, DEFAULT_BATCH_CAPACITY};

/// How the tier controller schedules promotion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierSchedule {
    /// Promote every candidate at once and run the classic two-pass
    /// offline batch. Stage structure, counters, and results are those
    /// of the original `run_pipeline` — this is what `run_pipeline`
    /// delegates to.
    Immediate,
    /// Drive loops through the counting/tracing/profiled tiers across
    /// repeated execution epochs, promoting on hot-location evidence.
    Online,
}

/// Tier-controller thresholds (see DESIGN.md §14 for the rationale
/// behind each default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierConfig {
    /// Promotion schedule.
    pub schedule: TierSchedule,
    /// Cumulative header-execution count that promotes a Counting loop.
    pub hot_threshold: u64,
    /// Epochs a loop may sit in Counting before it is force-promoted
    /// anyway (it executed, so it will eventually be judged; waiting
    /// longer only delays convergence on our deterministic epochs).
    pub counting_epoch_budget: u32,
    /// Epochs a promoted loop may spend in Tracing without a single
    /// successfully banked entry before TI001 demotes it.
    pub trace_budget: u32,
    /// Consecutive agreeing re-selection epochs required to commit a
    /// verdict flip (promotion to Selected or revision out of it).
    pub hysteresis: u32,
    /// Committed verdict flips tolerated before TI002 fires.
    pub flap_limit: u32,
    /// Windowed-profile capacity, in epochs.
    pub window: usize,
    /// Hard cap on execution epochs before finalization.
    pub max_epochs: u32,
}

impl Default for TierConfig {
    fn default() -> TierConfig {
        TierConfig {
            schedule: TierSchedule::Online,
            hot_threshold: 256,
            counting_epoch_budget: 2,
            trace_budget: 3,
            hysteresis: 2,
            flap_limit: 3,
            window: 4,
            max_epochs: 32,
        }
    }
}

impl TierConfig {
    /// The offline batch as a degenerate schedule.
    pub fn immediate() -> TierConfig {
        TierConfig {
            schedule: TierSchedule::Immediate,
            ..TierConfig::default()
        }
    }
}

/// One loop's position in the tier state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoopTier {
    /// Never observed executing.
    Cold,
    /// Executing; hot-location counter accumulating evidence.
    Counting,
    /// Promoted and patched in; waiting for a banked tracer entry.
    Tracing,
    /// Traced at least once; participating in windowed re-selection.
    Profiled,
    /// Committed by Equation 2 (terminal once the controller
    /// finalizes).
    Selected,
    /// Was Selected, revised out by a later committed re-selection;
    /// still eligible to return.
    Revised,
    /// Out of the running (terminal). `dynamic` distinguishes runtime
    /// demotions (tracer starvation, Equation 2 rejection, never
    /// executed) from static pre-screen proofs.
    Demoted {
        /// Why the loop was demoted.
        reason: String,
        /// True when demoted on runtime evidence rather than a static
        /// dependence proof.
        dynamic: bool,
    },
}

impl LoopTier {
    /// Short state name (diagram vocabulary).
    pub fn name(&self) -> &'static str {
        match self {
            LoopTier::Cold => "Cold",
            LoopTier::Counting => "Counting",
            LoopTier::Tracing => "Tracing",
            LoopTier::Profiled => "Profiled",
            LoopTier::Selected => "Selected",
            LoopTier::Revised => "Revised",
            LoopTier::Demoted { .. } => "Demoted",
        }
    }

    /// True for the two states the controller may finish in.
    pub fn is_terminal(&self) -> bool {
        matches!(self, LoopTier::Selected | LoopTier::Demoted { .. })
    }

    /// Stable numeric code carried in flight-recorder
    /// [`obs::LiveEventKind::TierTransition`] payloads.
    pub fn code(&self) -> u64 {
        match self {
            LoopTier::Cold => 0,
            LoopTier::Counting => 1,
            LoopTier::Tracing => 2,
            LoopTier::Profiled => 3,
            LoopTier::Selected => 4,
            LoopTier::Revised => 5,
            LoopTier::Demoted { .. } => 6,
        }
    }
}

/// A tier-controller diagnostic (surfaced by `jrpm-lint` as TI001 and
/// TI002).
#[derive(Debug, Clone)]
pub struct TierDiagnostic {
    /// `"TI001"` (stuck in Tracing past budget) or `"TI002"` (verdict
    /// flapped past the flap limit).
    pub code: &'static str,
    /// The loop concerned.
    pub loop_id: LoopId,
    /// One-line description.
    pub message: String,
    /// Per-epoch evidence lines (windowed-profile estimates, bank
    /// starvation counts).
    pub witness: Vec<String>,
}

/// One loop's full tier history.
#[derive(Debug, Clone)]
pub struct LoopTierSummary {
    /// The loop.
    pub loop_id: LoopId,
    /// Final tier (terminal after finalization).
    pub tier: LoopTier,
    /// Cumulative hot-location count while the probe was live.
    pub hot_count: u64,
    /// Committed selection-verdict flips.
    pub flips: u32,
    /// `(epoch, state)` transition log, in order.
    pub transitions: Vec<(u32, String)>,
}

/// What the tier controller did, alongside the pipeline's numbers.
#[derive(Debug, Clone)]
pub struct TierReport {
    /// The schedule that ran.
    pub schedule: TierSchedule,
    /// Execution epochs driven (1 for Immediate).
    pub epochs: u32,
    /// Epochs that ran with *no* loop annotated (pure counting tier).
    pub counting_epochs: u32,
    /// Annotation generations (window invalidations by patching).
    pub generations: u64,
    /// Committed Selected → Revised transitions.
    pub revisions: u32,
    /// Per-loop tier histories, by loop id.
    pub loops: Vec<LoopTierSummary>,
    /// TI001/TI002 diagnostics raised while driving.
    pub diagnostics: Vec<TierDiagnostic>,
}

impl TierReport {
    /// True when every loop ended in a terminal tier.
    pub fn all_terminal(&self) -> bool {
        self.loops.iter().all(|l| l.tier.is_terminal())
    }

    /// Ids of loops that ended Selected.
    pub fn selected_ids(&self) -> BTreeSet<LoopId> {
        self.loops
            .iter()
            .filter(|l| l.tier == LoopTier::Selected)
            .map(|l| l.loop_id)
            .collect()
    }

    /// The final tier of `id`, if it is a candidate.
    pub fn tier_of(&self, id: LoopId) -> Option<&LoopTier> {
        self.loops.iter().find(|l| l.loop_id == id).map(|l| &l.tier)
    }
}

/// A pipeline run driven by the tier controller.
#[derive(Debug)]
pub struct TieredOutcome {
    /// The ordinary pipeline report (bit-identical to the offline
    /// batch once the controller reaches all-terminal).
    pub report: PipelineReport,
    /// Tier-controller history.
    pub tiers: TierReport,
    /// Final program state of the last online epoch (`None` for
    /// Immediate). Lets oracles check online execution changed nothing
    /// observable.
    pub final_state: Option<FinalState>,
}

/// Internal per-loop controller state.
struct LoopState {
    loop_id: u64,
    tier: LoopTier,
    hot_count: u64,
    counting_epochs: u32,
    tracing_epochs: u32,
    committed_selected: bool,
    /// `(proposal, consecutive epochs proposing it)`.
    pending: Option<(bool, u32)>,
    flips: u32,
    transitions: Vec<(u32, String)>,
    witness: Vec<String>,
}

impl LoopState {
    fn new(loop_id: u64) -> LoopState {
        LoopState {
            loop_id,
            tier: LoopTier::Cold,
            hot_count: 0,
            counting_epochs: 0,
            tracing_epochs: 0,
            committed_selected: false,
            pending: None,
            flips: 0,
            transitions: Vec::new(),
            witness: Vec::new(),
        }
    }

    fn set_tier(&mut self, epoch: u32, tier: LoopTier) {
        self.transitions.push((epoch, tier.name().to_string()));
        // when a flight recorder is installed on this thread (the
        // profiling server's workers), every transition also lands in
        // its ring for crash forensics
        obs::live::emit(
            obs::LiveEventKind::TierTransition,
            self.loop_id,
            u64::from(epoch),
            tier.code(),
        );
        self.tier = tier;
    }
}

/// Runs the Jrpm pipeline under the tier controller.
///
/// With [`TierSchedule::Immediate`] this *is* the offline batch; with
/// [`TierSchedule::Online`] loops are promoted on hot-location
/// evidence across repeated execution epochs and the controller drives
/// every loop to a terminal tier before producing the report.
///
/// # Errors
///
/// Any [`VmError`] from interpretation or annotation verification.
pub fn run_tiered(
    program: &Program,
    cfg: &PipelineConfig,
    tier: &TierConfig,
) -> Result<TieredOutcome, VmError> {
    match tier.schedule {
        TierSchedule::Immediate => drive_immediate(program, cfg),
        TierSchedule::Online => drive_online(program, cfg, tier),
    }
}

/// The classic offline batch, expressed as the degenerate schedule:
/// every candidate is promoted at once, one profiling epoch runs, and
/// selection is final. Stage names, counters, and the two-pass
/// structure are exactly the historical `run_pipeline` behaviour (the
/// committed observability baseline pins them).
fn drive_immediate(program: &Program, cfg: &PipelineConfig) -> Result<TieredOutcome, VmError> {
    let telemetry = Telemetry::new();
    let registry = Arc::clone(&telemetry.registry);
    registry
        .counter("pipeline.batch_capacity")
        .record_max(DEFAULT_BATCH_CAPACITY as u64);
    let trace = cfg.obs.trace.then(|| Arc::clone(&telemetry.trace));
    let ptrack = trace.as_ref().map(|tr| tr.track("pipeline"));
    let mut stages = StageRecorder {
        registry: &registry,
        trace: trace.as_deref().zip(ptrack),
        seq: 0,
    };
    if let Some((tr, t)) = stages.trace {
        tr.begin(t, "run");
    }

    // 1.–1b. identify candidate STLs and rescue demoted loops
    let (candidates, rescue) = extract_and_rescue(program, cfg, &mut stages);
    let program: &Program = rescue.program_for(program);

    // 2. annotate every candidate for profiling (loops the static
    //    pre-screen demoted are left unannotated, so the tracer
    //    spends no banks on them)
    let t = stages.begin("annotate");
    let annotated = crate::annotate::annotate(program, &candidates, &AnnotateOptions::profiling())?;
    stages.end("annotate", t);

    // 3. interpret the annotated program ONCE — execution pass 1 —
    //    streaming its events into TEST over the bus, one batch at a
    //    time.
    let (
        FinalState {
            result: prof_run, ..
        },
        profile,
    ) = profile_pass(
        &annotated,
        candidates.tracked_masks(),
        cfg,
        trace.as_ref(),
        &mut stages,
        None,
    )?;

    // the plain sequential baseline, exactly: the annotation pass
    // only inserts annotation instructions, and the interpreter
    // tallies their cycles separately while charging them
    let seq_cycles = prof_run.cycles - prof_run.annotation_cycles.total();

    // 4. select decompositions (Equations 1 and 2), with the static
    //    verdicts as priors and scev distance floors bounding the
    //    speculative overlap of proven RAW chains
    let t = stages.begin("select");
    let floors = distance_floors(program, &candidates);
    let selection = select_with_distances(
        &profile,
        &cfg.tls.estimator_params(),
        prof_run.cycles,
        &candidates.demoted_ids(),
        &floors,
    );
    stages.end("select", t);

    // 5.–6. collect TLS traces for the chosen loops and simulate them
    let chosen: Vec<LoopId> = selection.chosen.iter().map(|c| c.loop_id).collect();
    let chosen_set: BTreeSet<LoopId> = chosen.iter().copied().collect();
    let actual = collect_and_simulate(
        program,
        &candidates,
        chosen,
        seq_cycles,
        cfg,
        &registry,
        &mut stages,
    )?;

    if let Some((tr, t)) = stages.trace {
        tr.end(t, "run");
    }
    let obs = PipelineObservability::from_snapshot(&registry.snapshot());

    // the degenerate tier history: everything promoted at epoch 0,
    // terminal by epoch 1
    let loops = candidates
        .candidates
        .iter()
        .map(|c| {
            let tier = if chosen_set.contains(&c.id) {
                LoopTier::Selected
            } else {
                match &c.static_verdict {
                    StaticVerdict::Demoted { reason } => LoopTier::Demoted {
                        reason: reason.clone(),
                        dynamic: false,
                    },
                    StaticVerdict::Clean => {
                        let executed = profile
                            .stl
                            .get(&c.id)
                            .is_some_and(|s| s.entries + s.untraced_entries > 0);
                        LoopTier::Demoted {
                            reason: if executed {
                                "not chosen by Equation 2".to_string()
                            } else {
                                "never executed".to_string()
                            },
                            dynamic: true,
                        }
                    }
                }
            };
            LoopTierSummary {
                loop_id: c.id,
                transitions: vec![(0, tier.name().to_string())],
                tier,
                hot_count: 0,
                flips: 0,
            }
        })
        .collect();
    let tiers = TierReport {
        schedule: TierSchedule::Immediate,
        epochs: 1,
        counting_epochs: 0,
        generations: 0,
        revisions: 0,
        loops,
        diagnostics: Vec::new(),
    };

    Ok(TieredOutcome {
        report: PipelineReport {
            seq_cycles,
            profile_cycles: prof_run.cycles,
            annotation: prof_run.annotation_cycles,
            candidates,
            rescue,
            profile,
            selection,
            actual,
            obs,
            telemetry,
        },
        tiers,
        final_state: None,
    })
}

/// Stages 1 and 1b, shared by both schedules: extract the candidate
/// STLs with their pre-screen verdicts, then try to rescue the demoted
/// loops whose recurrence is a reduction (a delta-rewrite into private
/// partial sums). Every applied rewrite carries a legality proof
/// re-checked by the independent verifier. Rescue starts from this
/// extraction and hands back the one of any program it rewrites, so no
/// program is extracted twice.
///
/// The whole-program points-to solve that sharpens the pre-screen runs
/// inside `extract`, and its statistics ride along as `pointsto.*`
/// counters (so the committed obs baseline keeps its stage list); the
/// rescue outcome is counted as `rescue.applied` and
/// `rescue.rejections`.
fn extract_and_rescue(
    program: &Program,
    cfg: &PipelineConfig,
    stages: &mut StageRecorder<'_>,
) -> (ProgramCandidates, RescueSummary) {
    let registry = stages.registry;
    let t = stages.begin("extract");
    let candidates = extract_candidates(program);
    stages.end("extract", t);
    let ps = candidates.pointsto.stats();
    for (name, v) in [
        ("pointsto.abstract_objects", ps.abstract_objects as u64),
        ("pointsto.variables", ps.variables as u64),
        ("pointsto.constraint_edges", ps.constraint_edges as u64),
        ("pointsto.iterations", ps.iterations as u64),
        ("pointsto.wall_nanos", ps.wall_nanos),
    ] {
        registry.counter(name).add(v);
        if let Some((tr, track)) = stages.trace {
            tr.counter(track, name, v);
        }
    }

    let t = stages.begin("rescue");
    let (candidates, rescue) = if cfg.no_rescue {
        (candidates, RescueSummary::default())
    } else {
        let (out, rescued) = rescue_extracted(program, &candidates);
        let candidates = rescued.unwrap_or(candidates);
        let changed = !out.rescued.is_empty();
        let rescue = RescueSummary {
            rescued: out.rescued,
            rejected: out.rejected,
            program: changed.then_some(out.program),
        };
        (candidates, rescue)
    };
    stages.end("rescue", t);
    registry
        .counter("rescue.applied")
        .add(rescue.rescued.len() as u64);
    registry
        .counter("rescue.rejections")
        .add(rescue.rejected.len() as u64);
    (candidates, rescue)
}

/// The profiling pass, shared by both schedules: one run of `image`
/// streamed into a fresh TEST tracer (with its spans and series when
/// the run is traced), timed as the `record` and `replay-profile`
/// stages, with the bus and tracer counters recorded.
///
/// `held` is an online epoch that already ran this very image through
/// the same tracer configuration: its bits are taken instead of
/// interpreting again. Its (near-zero) wall time is booked as
/// `record`, with 0 as `replay-profile` and as every sink's
/// `drain_nanos`, so the sinks' drain work stays booked once, under
/// `epochs`, and `replay-profile` still equals the summed drains.
fn profile_pass(
    image: &Program,
    masks: Vec<(LoopId, u64)>,
    cfg: &PipelineConfig,
    trace: Option<&Arc<ObsTrace>>,
    stages: &mut StageRecorder<'_>,
    held: Option<TracedRun>,
) -> Result<(FinalState, Profile), VmError> {
    let registry = stages.registry;
    let run = match held {
        Some(mut run) => {
            registry.counter("tier.reused_epochs").inc();
            let t = stages.begin("record");
            for sink in &mut run.report.sinks {
                sink.drain_nanos = 0;
            }
            stages.end_streamed(t, &run.report);
            run
        }
        None => {
            registry.counter("pipeline.interpreter_passes").inc();
            let mut tracer = TestTracer::with_masks(cfg.tracer, masks);
            if let Some(tr) = trace {
                tracer.set_obs(Arc::clone(tr), cfg.obs.sample_every);
            }
            let t = stages.begin("record");
            let mut bus = TraceBus::new().sink("test-tracer", &mut tracer);
            if let Some(tr) = trace {
                bus = bus.observe(Arc::clone(tr));
            }
            let (state, report) = bus.run(image, &mut NoHook)?;
            stages.end_streamed(t, &report);
            TracedRun {
                profile: tracer.into_profile(),
                state,
                report,
            }
        }
    };
    record_bus_report(registry, &run.report);
    record_tracer_profile(registry, &run.profile);
    Ok((run.state, run.profile))
}

/// What one online epoch's execution produced, held so that a later
/// epoch on the same image takes it instead of interpreting again.
///
/// An epoch is a pure function of its image: the interpreter is
/// deterministic, the hot-location probes cost no simulated cycles,
/// and the tracer is fresh with fixed masks. So an epoch on an
/// unchanged image would return exactly these bits.
struct EpochRun {
    /// [`PatchState::generation`] of the image that ran.
    generation: u64,
    /// Hot-location count of every candidate probed in the run, by
    /// candidate index (`None` for unprobed ones). The probed set only
    /// shrinks, so a later epoch never asks for a missing count.
    counts: Vec<Option<u64>>,
    /// The traced half; `None` for a pure counting run.
    traced: Option<TracedRun>,
}

/// A run streamed into a fresh tracer: everything the profiling pass
/// reads back.
struct TracedRun {
    profile: Profile,
    state: FinalState,
    report: BusReport,
}

/// Runs one online epoch of `patch`'s current image, probing the
/// header of every candidate whose `probed` entry is set. With nothing
/// patched in yet this is a pure counting-tier run (no event stream,
/// no tracer); otherwise it streams into a fresh tracer exactly like
/// the offline profiling pass.
fn run_epoch(
    patch: &PatchState,
    header_pcs: &[(u16, u32)],
    probed: &[bool],
    masks: &[(LoopId, u64)],
    cfg: &PipelineConfig,
) -> Result<EpochRun, VmError> {
    // translate original header pcs through the live image's origin
    // maps (identity for un-patched functions)
    let mut hot = HotLocations::for_program(patch.program());
    let slots: Vec<Option<usize>> = header_pcs
        .iter()
        .zip(probed)
        .map(|(&(func, orig_pc), &on)| {
            on.then(|| {
                let pc = patch.maps()[func as usize]
                    .iter()
                    .position(|&o| o == Some(orig_pc))
                    .unwrap_or(orig_pc as usize);
                hot.register(func, pc as u32)
            })
        })
        .collect();
    let traced = if patch.annotated().is_empty() {
        Interp::run_to_state_hooked(
            patch.program(),
            &mut NullSink,
            CostModel::default(),
            Interp::DEFAULT_FUEL,
            &mut hot,
        )?;
        None
    } else {
        let mut tracer = TestTracer::with_masks(cfg.tracer, masks.to_vec());
        let (state, report) = TraceBus::new()
            .sink("test-tracer", &mut tracer)
            .run(patch.program(), &mut hot)?;
        Some(TracedRun {
            profile: tracer.into_profile(),
            state,
            report,
        })
    };
    Ok(EpochRun {
        generation: patch.generation(),
        counts: slots
            .iter()
            .map(|s| s.map(|slot| hot.count(slot)))
            .collect(),
        traced,
    })
}

/// The online schedule: repeated execution epochs of an incrementally
/// patched image, hot-location promotion (revealing each loop's eager
/// pre-screen verdict), and windowed re-selection with hysteresis —
/// then a finalization pass that patches every remaining clean loop
/// and runs one authoritative epoch whose numbers match the offline
/// batch bit for bit.
fn drive_online(
    program: &Program,
    cfg: &PipelineConfig,
    tcfg: &TierConfig,
) -> Result<TieredOutcome, VmError> {
    let telemetry = Telemetry::new();
    let registry = Arc::clone(&telemetry.registry);
    registry
        .counter("pipeline.batch_capacity")
        .record_max(DEFAULT_BATCH_CAPACITY as u64);
    let trace = cfg.obs.trace.then(|| Arc::clone(&telemetry.trace));
    let ptrack = trace.as_ref().map(|tr| tr.track("pipeline"));
    let ttrack = trace.as_ref().map(|tr| tr.track("tier"));
    let mut stages = StageRecorder {
        registry: &registry,
        trace: trace.as_deref().zip(ptrack),
        seq: 0,
    };
    if let Some((tr, t)) = stages.trace {
        tr.begin(t, "run");
    }

    // extraction and rescue run at startup, exactly as in the batch:
    // rescue rewrites loop bodies, and patching must target stable
    // post-rescue loop ids (this also keeps online loop ids equal to
    // offline ones). A candidate's verdict is revealed when its loop
    // is promoted; re-selection may read every verdict and floor from
    // the start, because it only weighs loops already profiled, and a
    // profiled loop was promoted clean
    let (candidates, rescue) = extract_and_rescue(program, cfg, &mut stages);
    let program: &Program = rescue.program_for(program);
    let params = cfg.tls.estimator_params();
    let masks = candidates.tracked_masks();
    let n = candidates.candidates.len();

    // original (pre-annotation) header pc of every candidate: the
    // probe anchor, translated into the live image via origin maps
    let header_pcs: Vec<(u16, u32)> = candidates
        .candidates
        .iter()
        .map(|c| {
            let fa = &candidates.functions[c.func.0 as usize];
            let header = fa.forest.loops[c.loop_idx].header;
            (c.func.0, fa.cfg.blocks[header.0 as usize].start)
        })
        .collect();

    let mut states: Vec<LoopState> = candidates
        .candidates
        .iter()
        .map(|c| LoopState::new(u64::from(c.id.0)))
        .collect();
    let mut diagnostics: Vec<TierDiagnostic> = Vec::new();
    let mut dynamic_demoted: BTreeSet<LoopId> = BTreeSet::new();
    let mut window = SelectionWindow::new(tcfg.window);
    let mut patch = PatchState::new(program);
    let mut counting_epochs = 0u32;
    let mut revisions = 0u32;
    let mut epoch = 0u32;
    let mut last: Option<EpochRun> = None;

    let t = stages.begin("epochs");
    // the scev distance floors, solved once for every clean loop
    let floors = distance_floors(program, &candidates);
    loop {
        if let (Some(tr), Some(tt)) = (trace.as_deref(), ttrack) {
            tr.begin(tt, "epoch");
        }

        // one deterministic execution epoch of the current image, with
        // hot-location probes armed for every loop still proving heat.
        // An image that has not changed since the last run (a
        // confirmation epoch after one that patched nothing) is not
        // interpreted again: the held run is its outcome. The held run
        // is dropped before a fresh one starts, so at most one is alive.
        let probed: Vec<bool> = states
            .iter()
            .map(|s| matches!(s.tier, LoopTier::Cold | LoopTier::Counting))
            .collect();
        if patch.annotated().is_empty() {
            counting_epochs += 1;
        }
        let run: &EpochRun = match &mut last {
            Some(held) if held.generation == patch.generation() => {
                registry.counter("tier.reused_epochs").inc();
                held
            }
            slot => {
                *slot = None;
                registry.counter("pipeline.interpreter_passes").inc();
                slot.insert(run_epoch(&patch, &header_pcs, &probed, &masks, cfg)?)
            }
        };

        if let Some(traced) = &run.traced {
            let profile = &traced.profile;
            // Tracing → Profiled on the first banked entry; TI001
            // demotion when the comparator banks starve the loop past
            // its budget
            for (i, state) in states.iter_mut().enumerate() {
                if state.tier != LoopTier::Tracing {
                    continue;
                }
                let id = LoopId(i as u32);
                let stats = profile.stl.get(&id);
                if stats.is_some_and(|s| s.entries > 0) {
                    state.set_tier(epoch, LoopTier::Profiled);
                } else {
                    let untraced = stats.map_or(0, |s| s.untraced_entries);
                    state.witness.push(format!(
                        "epoch {epoch}: 0 banked entries, {untraced} untraced entries \
                         ({} comparator banks)",
                        cfg.tracer.n_banks
                    ));
                    state.tracing_epochs += 1;
                    if state.tracing_epochs > tcfg.trace_budget {
                        diagnostics.push(TierDiagnostic {
                            code: "TI001",
                            loop_id: id,
                            message: format!(
                                "loop {} stuck in Tracing for {} epochs (budget {}): every entry \
                                 found the comparator banks exhausted",
                                id.0, state.tracing_epochs, tcfg.trace_budget
                            ),
                            witness: state.witness.clone(),
                        });
                        registry.counter("tier.demotions_dynamic").inc();
                        dynamic_demoted.insert(id);
                        state.set_tier(
                            epoch,
                            LoopTier::Demoted {
                                reason: "comparator banks exhausted while tracing".to_string(),
                                dynamic: true,
                            },
                        );
                    }
                }
            }

            // windowed re-selection with hysteresis over Profiled /
            // Selected / Revised loops
            window.push(profile.clone(), traced.state.result.cycles);
            let mut demoted = candidates.demoted_ids();
            demoted.extend(dynamic_demoted.iter().copied());
            if let Some(sel) = window.reselect_with_distances(&params, &demoted, &floors) {
                let chosen: BTreeSet<LoopId> = sel.chosen.iter().map(|c| c.loop_id).collect();
                for (i, state) in states.iter_mut().enumerate() {
                    if !matches!(
                        state.tier,
                        LoopTier::Profiled | LoopTier::Selected | LoopTier::Revised
                    ) {
                        continue;
                    }
                    let id = LoopId(i as u32);
                    let proposal = chosen.contains(&id);
                    if proposal == state.committed_selected {
                        state.pending = None;
                        continue;
                    }
                    let streak = match state.pending {
                        Some((p, k)) if p == proposal => k + 1,
                        _ => 1,
                    };
                    if streak < tcfg.hysteresis {
                        state.pending = Some((proposal, streak));
                        continue;
                    }
                    // committed flip
                    state.pending = None;
                    state.committed_selected = proposal;
                    state.flips += 1;
                    state.witness.push(format!(
                        "epoch {epoch} gen {}: windowed verdict committed to {} \
                         (window of {} epochs, predicted {} of {} cycles)",
                        window.generation(),
                        if proposal { "selected" } else { "not selected" },
                        window.len(),
                        sel.predicted_cycles,
                        sel.total_cycles,
                    ));
                    if proposal {
                        state.set_tier(epoch, LoopTier::Selected);
                    } else {
                        revisions += 1;
                        registry.counter("tier.revisions").inc();
                        state.set_tier(epoch, LoopTier::Revised);
                    }
                    if state.flips > tcfg.flap_limit
                        && !diagnostics
                            .iter()
                            .any(|d| d.code == "TI002" && d.loop_id == id)
                    {
                        diagnostics.push(TierDiagnostic {
                            code: "TI002",
                            loop_id: id,
                            message: format!(
                                "loop {} selection verdict flapped {} times (limit {})",
                                id.0, state.flips, tcfg.flap_limit
                            ),
                            witness: state.witness.clone(),
                        });
                    }
                }
            }
        }

        // counting-tier updates and promotion on this epoch's counts
        let mut patched_any = false;
        for i in 0..n {
            if !probed[i] {
                continue;
            }
            let c = run.counts[i].expect("the probed set only shrinks");
            states[i].hot_count += c;
            if states[i].tier == LoopTier::Cold && c > 0 {
                states[i].set_tier(epoch, LoopTier::Counting);
            }
            if states[i].tier != LoopTier::Counting {
                continue;
            }
            states[i].counting_epochs += 1;
            let hot_enough = states[i].hot_count >= tcfg.hot_threshold;
            let out_of_patience =
                states[i].counting_epochs >= tcfg.counting_epoch_budget && states[i].hot_count > 0;
            if !(hot_enough || out_of_patience) {
                continue;
            }

            // promotion: reveal the loop's pre-screen verdict, and patch
            // the loop into the live image only if it is clean
            let id = LoopId(i as u32);
            registry.counter("tier.promotions").inc();
            match &candidates.candidates[i].static_verdict {
                StaticVerdict::Demoted { reason } => {
                    registry.counter("tier.demotions_static").inc();
                    states[i].set_tier(
                        epoch,
                        LoopTier::Demoted {
                            reason: reason.clone(),
                            dynamic: false,
                        },
                    );
                }
                StaticVerdict::Clean => {
                    patch.patch_loop(&candidates, id)?;
                    patched_any = true;
                    registry.counter("tier.patches").inc();
                    states[i].set_tier(epoch, LoopTier::Tracing);
                }
            }
        }
        if patched_any {
            // profiles across different annotation sets are not
            // comparable: invalidate the window
            window.advance_generation();
        }

        if let (Some(tr), Some(tt)) = (trace.as_deref(), ttrack) {
            for (name, pred) in [
                ("tier.counting", LoopTier::Counting),
                ("tier.tracing", LoopTier::Tracing),
                ("tier.profiled", LoopTier::Profiled),
                ("tier.selected", LoopTier::Selected),
            ] {
                let v = states.iter().filter(|s| s.tier == pred).count() as u64;
                tr.counter(tt, name, v);
            }
            tr.end(tt, "epoch");
        }

        epoch += 1;
        let active = states.iter().any(|s| {
            matches!(s.tier, LoopTier::Counting | LoopTier::Tracing) || s.pending.is_some()
        });
        if !active || epoch >= tcfg.max_epochs {
            break;
        }
    }
    stages.end("epochs", t);
    registry.counter("tier.epochs").add(u64::from(epoch));
    registry
        .counter("tier.counting_epochs")
        .add(u64::from(counting_epochs));
    registry
        .counter("tier.generations")
        .add(window.generation());

    // ---- finalization: drive every loop to a terminal tier ----
    //
    // Patch every remaining clean loop (so the image equals the offline
    // profiling image), and run one authoritative epoch of the complete
    // image with every verdict known. Everything downstream — profile,
    // derived baseline, selection, actual TLS — is then bit-identical
    // to the offline batch.
    let t = stages.begin("annotate");
    for c in &candidates.candidates {
        if !c.is_demoted() && !patch.annotated().contains(&c.id) {
            patch.patch_loop(&candidates, c.id)?;
            registry.counter("tier.patches").inc();
        }
    }
    stages.end("annotate", t);

    // the authoritative epoch: the full image, probes off. When
    // finalization patched nothing and the last epoch that ran was
    // traced, that epoch already ran this image through this tracer
    // configuration, so its outcome is taken. The one exception is a
    // traced run (`cfg.obs.trace`): there the authoritative epoch still
    // runs, because its tracer series and `sink:test-tracer` track are
    // that mode's product.
    let held = last
        .take()
        .filter(|r| r.generation == patch.generation() && !cfg.obs.trace)
        .and_then(|r| r.traced);
    let (final_state, profile) = profile_pass(
        patch.program(),
        masks,
        cfg,
        trace.as_ref(),
        &mut stages,
        held,
    )?;
    let prof_run = final_state.result.clone();
    let seq_cycles = prof_run.cycles - prof_run.annotation_cycles.total();

    let t = stages.begin("select");
    let mut priors = candidates.demoted_ids();
    priors.extend(dynamic_demoted.iter().copied());
    let selection = select_with_distances(&profile, &params, prof_run.cycles, &priors, &floors);
    stages.end("select", t);

    // terminal commit: the full-image selection is authoritative
    let chosen: Vec<LoopId> = selection.chosen.iter().map(|c| c.loop_id).collect();
    let chosen_set: BTreeSet<LoopId> = chosen.iter().copied().collect();
    for (i, state) in states.iter_mut().enumerate() {
        let id = LoopId(i as u32);
        if chosen_set.contains(&id) {
            if state.tier != LoopTier::Selected {
                state.set_tier(epoch, LoopTier::Selected);
            }
            state.committed_selected = true;
        } else if !matches!(state.tier, LoopTier::Demoted { .. }) {
            let (reason, dynamic) = match &candidates.candidates[i].static_verdict {
                StaticVerdict::Demoted { reason } => (reason.clone(), false),
                StaticVerdict::Clean => {
                    let executed = state.hot_count > 0 || state.tier != LoopTier::Cold;
                    if executed {
                        ("not chosen by Equation 2".to_string(), true)
                    } else {
                        ("never executed".to_string(), true)
                    }
                }
            };
            state.set_tier(epoch, LoopTier::Demoted { reason, dynamic });
        }
    }
    registry.counter("tier.selected").add(chosen.len() as u64);

    let actual = collect_and_simulate(
        program,
        &candidates,
        chosen,
        seq_cycles,
        cfg,
        &registry,
        &mut stages,
    )?;

    if let Some((tr, t)) = stages.trace {
        tr.end(t, "run");
    }
    let obs = PipelineObservability::from_snapshot(&registry.snapshot());
    let loops = states
        .iter()
        .enumerate()
        .map(|(i, s)| LoopTierSummary {
            loop_id: LoopId(i as u32),
            tier: s.tier.clone(),
            hot_count: s.hot_count,
            flips: s.flips,
            transitions: s.transitions.clone(),
        })
        .collect();
    let tiers = TierReport {
        schedule: TierSchedule::Online,
        epochs: epoch + 1, // the finalization epoch counts
        counting_epochs,
        generations: window.generation(),
        revisions,
        loops,
        diagnostics,
    };
    Ok(TieredOutcome {
        report: PipelineReport {
            seq_cycles,
            profile_cycles: prof_run.cycles,
            annotation: prof_run.annotation_cycles,
            candidates,
            rescue,
            profile,
            selection,
            actual,
            obs,
            telemetry,
        },
        tiers,
        final_state: Some(final_state),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use test_tracer::TracerConfig;
    use tvm::{ElemKind, ProgramBuilder};

    fn parallel_program(iters: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, false, |f| {
            let (a, i, k) = (f.local(), f.local(), f.local());
            f.ci(256).newarray(ElemKind::Int).st(a);
            f.for_in(i, 0.into(), iters.into(), |f| {
                f.for_in(k, 0.into(), 20.into(), |f| {
                    f.arr_set(
                        a,
                        |f| {
                            f.ld(i)
                                .ci(8)
                                .imul()
                                .ld(k)
                                .ci(7)
                                .iand()
                                .iadd()
                                .ci(255)
                                .iand();
                        },
                        |f| {
                            f.ld(i).ld(k).imul();
                        },
                    );
                });
            });
            f.ret_void();
        });
        b.finish(main).unwrap()
    }

    fn serial_program(iters: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let g = b.global(ElemKind::Int);
        let main = b.function("main", 0, false, |f| {
            let i = f.local();
            f.for_in(i, 0.into(), iters.into(), |f| {
                f.getstatic(g).ci(5).imul().ci(1).iadd().putstatic(g);
            });
            f.ret_void();
        });
        b.finish(main).unwrap()
    }

    /// Online and offline must agree exactly once the controller
    /// reaches all-terminal: same derived baseline, same profile, same
    /// selection, same actual TLS numbers, same demotion set.
    fn assert_equivalent(program: &Program, cfg: &PipelineConfig, tcfg: &TierConfig) {
        let offline = run_tiered(program, cfg, &TierConfig::immediate()).unwrap();
        let online = run_tiered(program, cfg, tcfg).unwrap();
        assert!(
            online.tiers.all_terminal(),
            "online must reach all-terminal"
        );
        let (a, b) = (&offline.report, &online.report);
        assert_eq!(a.seq_cycles, b.seq_cycles);
        assert_eq!(a.profile_cycles, b.profile_cycles);
        assert_eq!(a.annotation, b.annotation);
        assert_eq!(a.profile, b.profile, "final-epoch profile differs");
        assert_eq!(a.selection.chosen, b.selection.chosen);
        assert_eq!(a.selection.predicted_cycles, b.selection.predicted_cycles);
        assert_eq!(a.selection.total_cycles, b.selection.total_cycles);
        assert_eq!(a.actual.baseline_cycles, b.actual.baseline_cycles);
        assert_eq!(a.actual.tls_cycles, b.actual.tls_cycles);
        assert_eq!(a.actual.per_loop, b.actual.per_loop);
        let static_demoted: BTreeSet<LoopId> = online
            .tiers
            .loops
            .iter()
            .filter(|l| matches!(l.tier, LoopTier::Demoted { dynamic: false, .. }))
            .map(|l| l.loop_id)
            .collect();
        assert_eq!(
            static_demoted,
            a.candidates.demoted_ids(),
            "online static demotions must equal the eager pre-screen's"
        );
        assert_eq!(
            online.tiers.selected_ids(),
            b.selection.chosen.iter().map(|c| c.loop_id).collect(),
            "terminal Selected tier mirrors the final selection"
        );
    }

    #[test]
    fn online_matches_offline_on_a_parallel_nest() {
        assert_equivalent(
            &parallel_program(200),
            &PipelineConfig::default(),
            &TierConfig::default(),
        );
    }

    #[test]
    fn online_matches_offline_on_a_serial_program() {
        assert_equivalent(
            &serial_program(400),
            &PipelineConfig::default(),
            &TierConfig::default(),
        );
    }

    #[test]
    fn online_matches_offline_under_odd_thresholds() {
        for (hot, budget, hyst) in [(1, 1, 1), (100_000, 1, 3), (64, 4, 2)] {
            let tcfg = TierConfig {
                hot_threshold: hot,
                counting_epoch_budget: budget,
                hysteresis: hyst,
                ..TierConfig::default()
            };
            assert_equivalent(&parallel_program(120), &PipelineConfig::default(), &tcfg);
        }
    }

    /// Every logical epoch either interpreted its image or took the
    /// held run of an unchanged one; the collect pass adds one more
    /// interpreter pass when a loop is chosen.
    fn assert_passes_account_for_epochs(program: &Program, tcfg: &TierConfig) -> u64 {
        let out = run_tiered(program, &PipelineConfig::default(), tcfg).unwrap();
        let snap = out.report.telemetry.registry.snapshot();
        let passes = u64::from(out.report.obs.interpreter_passes);
        let reused = snap.counter("tier.reused_epochs");
        let collect = u64::from(!out.report.selection.chosen.is_empty());
        assert_eq!(
            passes + reused,
            u64::from(out.tiers.epochs) + collect,
            "passes {passes} + reused {reused} vs {} epochs ({tcfg:?})",
            out.tiers.epochs
        );
        assert_eq!(snap.counter("tier.epochs") + 1, u64::from(out.tiers.epochs));
        reused
    }

    #[test]
    fn interpreter_passes_and_reused_epochs_account_for_every_epoch() {
        let mut reused = 0;
        for program in [parallel_program(200), serial_program(400)] {
            reused += assert_passes_account_for_epochs(&program, &TierConfig::default());
        }
        for (hot, budget, hyst) in [(1, 1, 1), (100_000, 1, 3), (64, 4, 2)] {
            let tcfg = TierConfig {
                hot_threshold: hot,
                counting_epoch_budget: budget,
                hysteresis: hyst,
                ..TierConfig::default()
            };
            reused += assert_passes_account_for_epochs(&parallel_program(120), &tcfg);
        }
        assert!(
            reused > 0,
            "confirmation epochs on unchanged images are reused"
        );
        let offline = run_tiered(
            &parallel_program(200),
            &PipelineConfig::default(),
            &TierConfig::immediate(),
        )
        .unwrap();
        let snap = offline.report.telemetry.registry.snapshot();
        assert_eq!(
            snap.counter("tier.reused_epochs"),
            0,
            "the batch reuses nothing"
        );
    }

    /// A traced run is the one exception to reuse: its authoritative
    /// epoch runs, so the tracer series and the sink track exist, and
    /// the analysis still equals the untraced run's.
    #[test]
    fn traced_run_still_runs_the_authoritative_epoch() {
        let p = parallel_program(200);
        let plain = run_tiered(&p, &PipelineConfig::default(), &TierConfig::default()).unwrap();
        let cfg = PipelineConfig {
            obs: crate::pipeline::ObsConfig {
                trace: true,
                sample_every: 64,
            },
            ..PipelineConfig::default()
        };
        let traced = run_tiered(&p, &cfg, &TierConfig::default()).unwrap();
        let tracks = traced.report.telemetry.trace.tracks();
        for name in ["pipeline", "tier", "tracer", "sink:test-tracer"] {
            assert!(
                tracks.iter().any(|t| t.name == name),
                "missing track {name}"
            );
        }
        let (a, b) = (&plain.report, &traced.report);
        assert_eq!(a.profile, b.profile);
        assert_eq!(a.selection.chosen, b.selection.chosen);
        assert_eq!(a.selection.predicted_cycles, b.selection.predicted_cycles);
        assert_eq!(a.actual.per_loop, b.actual.per_loop);
        assert_eq!(a.actual.tls_cycles, b.actual.tls_cycles);
        // this image's authoritative epoch is reused when untraced and
        // interpreted when traced
        let reused = |r: &PipelineReport| {
            r.telemetry
                .registry
                .snapshot()
                .counter("tier.reused_epochs")
        };
        assert_eq!(plain.tiers.epochs, traced.tiers.epochs);
        assert_eq!(reused(a), reused(b) + 1);
        assert_eq!(a.obs.interpreter_passes + 1, b.obs.interpreter_passes);
        // the reused epoch's drain work stays booked once, under
        // `epochs`: nothing is booked as replay-profile
        assert_eq!(a.obs.stage_nanos("replay-profile"), 0);
        assert!(a.obs.bus.sinks.iter().all(|s| s.drain_nanos == 0));
        assert_eq!(a.obs.bus.events, b.obs.bus.events);
        assert!(b.obs.stage_nanos("replay-profile") > 0);
    }

    #[test]
    fn serial_loop_is_demoted_statically_at_promotion() {
        let out = run_tiered(
            &serial_program(400),
            &PipelineConfig::default(),
            &TierConfig::default(),
        )
        .unwrap();
        let t = out.tiers.tier_of(LoopId(0)).unwrap();
        assert!(
            matches!(t, LoopTier::Demoted { dynamic: false, .. }),
            "static recurrence must demote at promotion, got {t:?}"
        );
        assert!(out.tiers.diagnostics.is_empty());
        // the verdict was revealed at promotion, after the loop counted
        let s = &out.tiers.loops[0];
        assert!(s.hot_count > 0, "the loop counted before being demoted");
    }

    #[test]
    fn immediate_schedule_is_the_offline_batch() {
        let p = parallel_program(200);
        let out = run_tiered(&p, &PipelineConfig::default(), &TierConfig::immediate()).unwrap();
        assert_eq!(out.tiers.epochs, 1);
        assert!(out.tiers.all_terminal());
        assert!(out.final_state.is_none());
        assert_eq!(out.report.obs.interpreter_passes, 2);
        assert_eq!(
            out.tiers.selected_ids(),
            out.report
                .selection
                .chosen
                .iter()
                .map(|c| c.loop_id)
                .collect::<BTreeSet<_>>()
        );
    }

    #[test]
    fn ti001_fires_when_comparator_banks_starve_a_loop() {
        // one comparator bank and a two-deep nest, with a threshold
        // that promotes both loops in the same epoch: the inner
        // loop's sloop always finds the bank held by the outer loop,
        // so its entries are all untraced and it can never reach
        // Profiled
        let cfg = PipelineConfig {
            tracer: TracerConfig {
                n_banks: 1,
                ..TracerConfig::default()
            },
            ..PipelineConfig::default()
        };
        let tcfg = TierConfig {
            hot_threshold: 1,
            ..TierConfig::default()
        };
        let out = run_tiered(&parallel_program(200), &cfg, &tcfg).unwrap();
        assert!(out.tiers.all_terminal());
        let ti001: Vec<_> = out
            .tiers
            .diagnostics
            .iter()
            .filter(|d| d.code == "TI001")
            .collect();
        assert!(!ti001.is_empty(), "bank starvation must raise TI001");
        for d in &ti001 {
            assert!(!d.witness.is_empty(), "TI001 carries per-epoch witnesses");
            assert!(
                matches!(
                    out.tiers.tier_of(d.loop_id),
                    Some(LoopTier::Demoted { dynamic: true, .. })
                ),
                "TI001 demotes dynamically"
            );
        }
    }

    #[test]
    fn staggered_promotion_revises_the_inner_loop_and_flags_flapping() {
        // the inner loop trips the hot threshold in the very first
        // epoch (its header runs ~20x per outer iteration); the outer
        // loop is only force-promoted after the counting budget. With
        // no hysteresis the inner loop commits Selected while it is
        // the only annotated loop, then the outer loop lands, Eq 2
        // prefers it, and the inner verdict is revised — flapping past
        // a flap limit of 1 raises TI002 with the windowed witness.
        let tcfg = TierConfig {
            hot_threshold: 256,
            counting_epoch_budget: 2,
            hysteresis: 1,
            flap_limit: 1,
            ..TierConfig::default()
        };
        let out = run_tiered(&parallel_program(200), &PipelineConfig::default(), &tcfg).unwrap();
        assert!(out.tiers.all_terminal());
        assert!(out.tiers.revisions > 0, "inner loop must be revised out");
        let ti002: Vec<_> = out
            .tiers
            .diagnostics
            .iter()
            .filter(|d| d.code == "TI002")
            .collect();
        assert!(!ti002.is_empty(), "flapping past the limit raises TI002");
        assert!(
            ti002[0].witness.iter().any(|w| w.contains("windowed")),
            "TI002 witness quotes the windowed estimates"
        );
        // and the terminal outcome still matches offline exactly
        assert_equivalent(&parallel_program(200), &PipelineConfig::default(), &tcfg);
    }

    #[test]
    fn counting_epochs_run_without_a_tracer() {
        // a program whose single loop never gets hot enough to promote
        // within one epoch still terminates (force-promotion), and the
        // first epoch is a pure counting run
        let out = run_tiered(
            &parallel_program(50),
            &PipelineConfig::default(),
            &TierConfig::default(),
        )
        .unwrap();
        assert!(out.tiers.counting_epochs >= 1);
        assert!(out.tiers.epochs >= 2);
        assert!(out.final_state.is_some());
    }
}
