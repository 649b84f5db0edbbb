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
//! property the `tier_equivalence` suite pins across every benchmark.
//!
//! **One chain, two drivers.** The controller is not a schedule the
//! batch runs through: [`run_pipeline`](crate::pipeline::run_pipeline)
//! is its own straight-line driver, which annotates the whole program
//! once. [`run_tiered`] opens its run exactly as the batch does
//! (extraction and rescue), drives its epochs, and ends in the batch's
//! tail (profiling pass, selection, collect + simulate, report). Its
//! one extra step is the terminal tier commit between selection and
//! collection.

use crate::annotate::PatchState;
use crate::pipeline::{PipelineConfig, PipelineReport, PipelineRun, TracedRun};
use cfgir::distance_floors;
use std::collections::BTreeSet;
use std::sync::Arc;
use test_tracer::{SelectionWindow, TestTracer};
use tvm::bus::TraceBus;
use tvm::interp::FinalState;
use tvm::isa::LoopId;
use tvm::program::Program;
use tvm::{CostModel, HotLocations, Interp, NullSink, VmError};

/// Tier-controller thresholds (see DESIGN.md §14 for the rationale
/// behind each default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierConfig {
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
    /// Execution epochs driven, the finalization epoch included.
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
    /// Final program state of the authoritative epoch. Lets oracles
    /// check online execution changed nothing observable.
    pub final_state: FinalState,
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

/// Runs the Jrpm pipeline under the tier controller: loops are
/// promoted on hot-location evidence across repeated execution epochs
/// (revealing each loop's eager pre-screen verdict), re-selected over a
/// windowed profile with hysteresis, and driven to a terminal tier. The
/// run then ends exactly as the offline batch does, with one
/// authoritative epoch of the complete image whose numbers match the
/// batch bit for bit.
///
/// # Errors
///
/// Any [`VmError`] from interpretation or annotation verification.
pub fn run_tiered(
    program: &Program,
    cfg: &PipelineConfig,
    tcfg: &TierConfig,
) -> Result<TieredOutcome, VmError> {
    // extraction and rescue run at startup, exactly as in the batch:
    // rescue rewrites loop bodies, and patching must target stable
    // post-rescue loop ids (this also keeps online loop ids equal to
    // offline ones). A candidate's verdict is revealed when its loop
    // is promoted; re-selection may read every verdict and floor from
    // the start, because it only weighs loops already profiled, and a
    // profiled loop was promoted clean
    let mut run = PipelineRun::start(program, cfg);
    let registry = Arc::clone(&run.stages.telemetry.registry);
    let trace = run.stages.trace().cloned();
    let ttrack = trace.as_ref().map(|tr| tr.track("tier"));
    let candidates = &run.candidates;
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
    let mut patch = PatchState::new(run.program());
    let mut counting_epochs = 0u32;
    let mut revisions = 0u32;
    let mut epoch = 0u32;
    let mut last: Option<EpochRun> = None;

    let t = run.stages.begin("epochs");
    // the scev distance floors, solved once for every clean loop
    let floors = distance_floors(run.program(), candidates);
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
            let c = &candidates.candidates[i];
            if c.is_demoted() {
                registry.counter("tier.demotions_static").inc();
                states[i].set_tier(
                    epoch,
                    LoopTier::Demoted {
                        reason: c.static_verdict.reason(),
                        dynamic: false,
                    },
                );
            } else {
                patch.patch_loop(candidates, id)?;
                patched_any = true;
                registry.counter("tier.patches").inc();
                states[i].set_tier(epoch, LoopTier::Tracing);
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
    run.stages.end("epochs", t);
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
    let t = run.stages.begin("annotate");
    for c in &candidates.candidates {
        if !c.is_demoted() && !patch.annotated().contains(&c.id) {
            patch.patch_loop(candidates, c.id)?;
            registry.counter("tier.patches").inc();
        }
    }
    run.stages.end("annotate", t);

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
    let (final_state, profile) = run.profile(patch.program(), held)?;
    let prof_run = final_state.result.clone();
    let selection = run.select(&profile, prof_run.cycles, &dynamic_demoted, Some(&floors));

    // terminal commit: the full-image selection is authoritative
    let chosen_set: BTreeSet<LoopId> = selection.chosen.iter().map(|c| c.loop_id).collect();
    for (i, state) in states.iter_mut().enumerate() {
        let id = LoopId(i as u32);
        if chosen_set.contains(&id) {
            if state.tier != LoopTier::Selected {
                state.set_tier(epoch, LoopTier::Selected);
            }
            state.committed_selected = true;
        } else if !matches!(state.tier, LoopTier::Demoted { .. }) {
            let c = &run.candidates.candidates[i];
            let executed = state.hot_count > 0 || state.tier != LoopTier::Cold;
            let (reason, dynamic) = if c.is_demoted() {
                (c.static_verdict.reason(), false)
            } else if executed {
                ("not chosen by Equation 2".to_string(), true)
            } else {
                ("never executed".to_string(), true)
            };
            state.set_tier(epoch, LoopTier::Demoted { reason, dynamic });
        }
    }
    registry
        .counter("tier.selected")
        .add(chosen_set.len() as u64);

    let report = run.finish(prof_run, profile, selection)?;
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
        epochs: epoch + 1, // the finalization epoch counts
        counting_epochs,
        generations: window.generation(),
        revisions,
        loops,
        diagnostics,
    };
    Ok(TieredOutcome {
        report,
        tiers,
        final_state,
    })
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_pipeline;
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
        let offline = run_pipeline(program, cfg).unwrap();
        let online = run_tiered(program, cfg, tcfg).unwrap();
        assert!(
            online.tiers.all_terminal(),
            "online must reach all-terminal"
        );
        let (a, b) = (&offline, &online.report);
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
        let offline = run_pipeline(&parallel_program(200), &PipelineConfig::default()).unwrap();
        let snap = offline.telemetry.registry.snapshot();
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
    }
}
