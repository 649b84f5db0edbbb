//! The differential oracle stack.
//!
//! Every generated program is pushed through each redundant path the
//! pipeline has, and every pair of paths that must agree is checked:
//!
//! 1. **transport identity** — direct interpretation, batched
//!    recording and bus replay into two sinks must produce the same
//!    [`RunResult`], the same event stream and the same tracer
//!    [`Profile`];
//! 2. **serialization identity** — `Recording::to_bytes` /
//!    `from_bytes` round-trips exactly;
//! 3. **derived baseline** — profiling cycles minus the measured
//!    annotation overhead equals a real un-annotated run;
//! 4. **config stability** — tracer capacities that are large enough
//!    to never be exercised must not change the per-loop statistics;
//! 5. **static/dynamic agreement** — a loop `cfgir::memdep` proves
//!    serial must actually exhibit a cross-iteration RAW in the
//!    recorded event stream once it runs more iterations than the
//!    proven dependence distance;
//! 6. **points-to soundness** — any access pair the alias-sharpened
//!    pre-screen classifies as disjoint must touch disjoint dynamic
//!    address sets in the plain run's event stream; one shared
//!    address is an unsoundness in `cfgir::pointsto`;
//! 7. **rescue equivalence** — when the loop-rescue pass transforms
//!    the program, the original and rescued variants must finish in
//!    bit-identical final state (return value and whole memory
//!    image), and a single-step rescue's legality proof must re-pass
//!    the independent checker `cfgir::rescue::verify::check`;
//! 8. **tier equivalence** — the online tiered runtime, with
//!    promotion thresholds fuzzed from the program shape so loops
//!    promote in varying orders, must reach all-terminal tiers, leave
//!    the program's observable final state (return value and memory
//!    image) identical to a plain run, agree with the offline
//!    batch on every selection verdict, and account for every
//!    logical epoch as either an interpreter pass or a reused run of
//!    an unchanged image;
//! 9. **Hydra sanity** — simulated TLS time is bounded below by the
//!    longest thread plus fixed overheads, thread counts match the
//!    trace, and zero violations means the restart penalty is inert;
//! 10. **server closure** — the same program submitted to the `serve`
//!     worker pool answers with a report identical to the batch
//!     pipeline: the server is a transport, never a re-modelling;
//! 11. **value agreement** — every certified pre-computation slice's
//!     predicted per-iteration value (and every claimed dependence
//!     distance) must match the recorded stream of a full replay: a
//!     single refuted prediction is an unsoundness in `cfgir::scev`
//!     or `cfgir::slice`.
//!
//! Checks are ordered cheap-first so the shrinker converges fast.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use crate::spec::{emit, gen_spec, ProgramSpec};
use cfgir::{analyze_loop, classify_loop_pairs, PairVerdict, ProgramCandidates};
use hydra_sim::{simulate_entry, TlsConfig, TlsTraceCollector};
use jrpm::annotate::{annotate, AnnotateOptions};
use jrpm::tier::{run_tiered, TierConfig};
use jrpm::{run_pipeline, PipelineConfig};
use serve::{ProfileRequest, Server, ServerConfig};
use test_tracer::{Profile, TestTracer, TracerConfig};
use tvm::record::{Event, Recording, RecordingSink};
use tvm::{record_batches, Addr, CostModel, Interp, LoopId, Program, RunResult, TraceBus, VmError};

/// Instruction budget per interpreter run. Generated programs retire a
/// few thousand instructions; anything near this limit is a
/// non-termination bug worth reporting.
pub const FUZZ_FUEL: u64 = 20_000_000;

/// A divergence between two paths that must agree.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Which oracle tripped.
    pub oracle: &'static str,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

fn fail(oracle: &'static str, detail: impl Into<String>) -> Failure {
    Failure {
        oracle,
        detail: detail.into(),
    }
}

/// Per-sink bus counters rendered for a failure report: a sink that
/// saw fewer events or batches than its peers is the first hypothesis
/// to confirm or rule out.
fn sink_diag(label: &str, report: &tvm::bus::BusReport) -> String {
    let sinks = report
        .sinks
        .iter()
        .map(|s| {
            format!(
                "{}: events={} batches={} drain_nanos={}",
                s.label, s.events, s.batches, s.drain_nanos
            )
        })
        .collect::<Vec<_>>()
        .join("; ");
    format!(" [{label} sinks: {sinks}]")
}

/// Appends per-sink diagnostics to a transport failure.
fn with_sinks(mut f: Failure, report: &tvm::bus::BusReport) -> Failure {
    f.detail.push_str(&sink_diag("bus", report));
    f
}

/// Coverage counters for a passing check (CLI statistics).
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckStats {
    /// Events in the profiling recording.
    pub events: usize,
    /// Candidate STLs extracted.
    pub candidates: usize,
    /// Candidates the static pre-screen demoted.
    pub demoted: usize,
    /// Loop entries collected for the Hydra simulation.
    pub tls_entries: usize,
    /// Loops the rescue pass transformed (state-checked).
    pub rescued: usize,
    /// Certified pre-computation slices extracted and verified.
    pub slices: usize,
    /// Per-iteration slice predictions and distance claims checked
    /// against the recorded stream.
    pub value_checks: u64,
}

/// Generates the program for `seed` and runs the full oracle stack.
///
/// # Errors
///
/// The first [`Failure`] any oracle reports.
pub fn check_seed(seed: u64) -> Result<CheckStats, Failure> {
    check_spec(&gen_spec(seed))
}

/// Runs the full oracle stack on one spec.
///
/// # Errors
///
/// The first [`Failure`] any oracle reports.
pub fn check_spec(spec: &ProgramSpec) -> Result<CheckStats, Failure> {
    let program = emit(spec).map_err(|e| fail("emit", e.to_string()))?;
    check_program(&program)
}

/// Runs the full oracle stack on an already-built program.
///
/// # Errors
///
/// The first [`Failure`] any oracle reports.
pub fn check_program(program: &Program) -> Result<CheckStats, Failure> {
    tvm::verify::verify_kinds(program).map_err(|e| fail("verify-kinds", e.to_string()))?;

    let cands = cfgir::extract_candidates(program);
    let masks = cands.tracked_masks();
    let ann = annotate(program, &cands, &AnnotateOptions::profiling())
        .map_err(|e| fail("annotate", e.to_string()))?;

    // -- transport 1: direct interpretation, capturing the stream -----
    let mut sink = RecordingSink::default();
    let run_d = run_bounded(&ann, &mut sink).map_err(|e| fail("run-annotated", e.to_string()))?;
    let rec = sink.into_recording();

    // -- derived sequential baseline == a real plain run --------------
    // (recorded: the plain stream's pcs address the original program
    // directly, which the points-to soundness oracle below relies on)
    let mut sink_plain = RecordingSink::default();
    let run_p =
        run_bounded(program, &mut sink_plain).map_err(|e| fail("run-plain", e.to_string()))?;
    let rec_plain = sink_plain.into_recording();
    let derived = run_d
        .cycles
        .checked_sub(run_d.annotation_cycles.total())
        .ok_or_else(|| {
            fail(
                "derived-baseline",
                format!(
                    "annotation overhead {} exceeds total cycles {}",
                    run_d.annotation_cycles.total(),
                    run_d.cycles
                ),
            )
        })?;
    if run_p.cycles != derived {
        return Err(fail(
            "derived-baseline",
            format!(
                "plain run took {} cycles but annotated-minus-overhead gives {}",
                run_p.cycles, derived
            ),
        ));
    }
    if format!("{:?}", run_p.ret) != format!("{:?}", run_d.ret) {
        return Err(fail(
            "derived-baseline",
            format!(
                "plain run returned {:?} but annotated run returned {:?}",
                run_p.ret, run_d.ret
            ),
        ));
    }

    // -- transport 2: serial bus (record batches, flatten) ------------
    let (run_b, batches) =
        record_batches(&ann, 64).map_err(|e| fail("serial-batches", e.to_string()))?;
    same_run("serial-batches", &run_d, &run_b)?;
    let flat: Vec<Event> = batches.iter().flat_map(|b| b.events()).collect();
    if flat != rec.events {
        return Err(fail(
            "serial-batches",
            format!(
                "flattened batch stream has {} events, direct capture has {}",
                flat.len(),
                rec.events.len()
            ),
        ));
    }

    // -- transport 3: serial bus replay into two sinks ----------------
    let mut rec_serial = RecordingSink::default();
    let mut tr_serial = TestTracer::with_masks(TracerConfig::default(), masks.iter().copied());
    let serial_report = TraceBus::new()
        .sink("recording", &mut rec_serial)
        .sink("tracer", &mut tr_serial)
        .replay(&batches);
    same_events("serial-replay", &rec, &rec_serial.into_recording())
        .map_err(|f| with_sinks(f, &serial_report))?;
    let profile = tr_serial.into_profile();

    // -- transport 4: byte round-trip ---------------------------------
    let bytes = rec.to_bytes();
    let rt = Recording::from_bytes(&bytes).map_err(|e| fail("roundtrip-bytes", e.to_string()))?;
    same_events("roundtrip-bytes", &rec, &rt)?;

    // -- direct replay into a tracer equals the bus-fed tracers -------
    let mut tr_direct = TestTracer::with_masks(TracerConfig::default(), masks.iter().copied());
    rec.replay(&mut tr_direct);
    same_profile("tracer-direct", &profile, &tr_direct.into_profile())?;

    // -- config stability: never-exercised capacities are inert -------
    check_config_stability(&rec, &masks)?;

    // -- static pre-screen vs the recorded stream ---------------------
    let deps = guaranteed_deps(program, &cands)?;
    let demoted_count = check_memdep(program, &cands, &deps)?;

    // -- points-to disjointness vs the plain run's addresses ----------
    check_pointsto(program, &cands, &rec_plain)?;

    // -- loop rescue preserves the final state ------------------------
    let rescued = check_rescue(program, &cands)?;

    // -- online tier controller == offline batch ----------------------
    check_tiers(program)?;

    // -- Hydra simulator sanity invariants ----------------------------
    let tls_entries = check_hydra(program, &cands, &masks)?;

    // -- whole-pipeline closure: server vs batch ----------------------
    check_pipeline(program)?;

    // -- slice predictions and distance claims vs the replay ----------
    let (slices, value_checks) = check_value_agreement(program)?;

    Ok(CheckStats {
        events: rec.len(),
        candidates: cands.candidates.len(),
        demoted: demoted_count,
        tls_entries,
        rescued,
        slices,
        value_checks,
    })
}

/// Value-agreement oracle: replays the program (through
/// `jrpm::agreement::agreement_report`, which also re-runs the rescue
/// and points-to soundness checks dynamically) and demands that every
/// certified slice's predicted per-iteration value and every claimed
/// dependence distance matches the recorded stream exactly. One
/// refuted prediction means `cfgir::scev` derived a wrong evolution or
/// `cfgir::slice::verify` accepted a bad certificate.
fn check_value_agreement(program: &Program) -> Result<(usize, u64), Failure> {
    let report = jrpm::agreement::agreement_report(program)
        .map_err(|e| fail("value-agreement", e.to_string()))?;
    if let Some(v) = report.slice_violations.first() {
        return Err(fail(
            "value-agreement",
            format!(
                "slice prediction refuted: loop {:?} scalar {:?} at iteration {} \
                 predicted {} but the stream held {} ({} violation(s) total)",
                v.loop_id,
                v.scalar,
                v.iter,
                v.predicted,
                v.observed,
                report.slice_violations.len()
            ),
        ));
    }
    if let Some(v) = report.distance_violations.first() {
        return Err(fail(
            "value-agreement",
            format!(
                "distance claim refuted: loop {:?} load@{} store@{} shared {:?} at \
                 iterations (load {}, store {}) against claimed distance {} \
                 ({} violation(s) total)",
                v.loop_id,
                v.load_at,
                v.store_at,
                v.addr,
                v.load_iter,
                v.store_iter,
                v.claimed,
                report.distance_violations.len()
            ),
        ));
    }
    if !report.sound() {
        return Err(fail(
            "value-agreement",
            format!(
                "agreement report unsound: {} disjointness violation(s), rescue_state_ok={}",
                report.violations.len(),
                report.rescue_state_ok
            ),
        ));
    }
    Ok((report.slices, report.slice_checks + report.distance_checks))
}

/// Loop-rescue equivalence oracle: a transformed program must be
/// indistinguishable from the original at the final state — same
/// return value, same whole memory image. A single-step rescue's
/// legality proof is additionally re-run through the independent
/// checker against the exact (original, rescued) pair; multi-step
/// rescues are covered by the state comparison alone, since the
/// intermediate programs are not retained.
fn check_rescue(program: &Program, cands: &ProgramCandidates) -> Result<usize, Failure> {
    let (out, _) = cfgir::rescue_extracted(program, cands);
    if out.rescued.is_empty() {
        return Ok(0);
    }
    let mut sink = tvm::NullSink;
    let a = Interp::run_to_state(program, &mut sink, CostModel::default(), FUZZ_FUEL)
        .map_err(|e| fail("rescue-state", format!("original run failed: {e}")))?;
    let b = Interp::run_to_state(&out.program, &mut sink, CostModel::default(), FUZZ_FUEL)
        .map_err(|e| fail("rescue-state", format!("rescued run failed: {e}")))?;
    if a.result.ret != b.result.ret {
        return Err(fail(
            "rescue-state",
            format!(
                "rescue changed the return value: {:?} vs {:?} ({} reduction(s))",
                a.result.ret,
                b.result.ret,
                out.rescued.len(),
            ),
        ));
    }
    if a.memory.words() != b.memory.words() {
        return Err(fail(
            "rescue-state",
            format!(
                "rescue changed the final memory image ({} reduction(s))",
                out.rescued.len()
            ),
        ));
    }
    if let [r] = &out.rescued[..] {
        cfgir::rescue::verify::check(program, &out.program, &r.proof)
            .map_err(|e| fail("rescue-verify", e))?;
    }
    Ok(out.rescued.len())
}

/// Tier-controller oracle: drive the online tiered runtime to
/// all-terminal and require (a) the final epoch's program state —
/// return value and whole memory image — to equal a plain
/// un-annotated run (counting probes and incremental patches must be
/// invisible to the program), and (b) every selection verdict to match
/// the offline batch exactly. Promotion thresholds are derived from a
/// hash of the program shape, so different seeds promote loops in
/// different orders and generations.
fn check_tiers(program: &Program) -> Result<(), Failure> {
    // FNV-style fold over the code shape: deterministic per program,
    // varying across seeds
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &program.functions {
        h = (h ^ f.code.len() as u64).wrapping_mul(0x0000_0100_0000_01b3);
        h = (h ^ u64::from(f.n_locals)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let tcfg = TierConfig {
        hot_threshold: 1 + h % 512,
        counting_epoch_budget: 1 + (h >> 9) as u32 % 3,
        hysteresis: 1 + (h >> 11) as u32 % 3,
        window: 1 + (h >> 13) as usize % 4,
        ..TierConfig::default()
    };
    let online = run_tiered(program, &PipelineConfig::default(), &tcfg)
        .map_err(|e| fail("tier", format!("online tiered run failed: {e}")))?;
    if !online.tiers.all_terminal() {
        return Err(fail(
            "tier",
            format!(
                "controller stopped with non-terminal tiers: {:?} ({tcfg:?})",
                online
                    .tiers
                    .loops
                    .iter()
                    .filter(|l| !l.tier.is_terminal())
                    .map(|l| (l.loop_id, l.tier.name()))
                    .collect::<Vec<_>>()
            ),
        ));
    }

    // (a) observable program state is untouched by probes and patches
    let mut sink = tvm::NullSink;
    let plain = Interp::run_to_state(program, &mut sink, CostModel::default(), FUZZ_FUEL)
        .map_err(|e| fail("tier-state", format!("plain run failed: {e}")))?;
    let fin = &online.final_state;
    if format!("{:?}", fin.result.ret) != format!("{:?}", plain.result.ret) {
        return Err(fail(
            "tier-state",
            format!(
                "final online epoch returned {:?} but the plain program returns {:?}",
                fin.result.ret, plain.result.ret
            ),
        ));
    }
    if fin.memory.words() != plain.memory.words() {
        return Err(fail(
            "tier-state",
            "final online epoch left a different memory image than the plain program",
        ));
    }

    // (b) selection verdicts equal the offline batch, bit for bit
    let offline = run_pipeline(program, &PipelineConfig::default())
        .map_err(|e| fail("tier", format!("offline pipeline failed: {e}")))?;
    let rep = &online.report;
    if rep.seq_cycles != offline.seq_cycles
        || rep.profile_cycles != offline.profile_cycles
        || rep.profile != offline.profile
    {
        return Err(fail(
            "tier",
            format!(
                "final-epoch measurements diverged from offline: seq {} vs {}, profiling {} vs {} \
                 ({tcfg:?})",
                rep.seq_cycles, offline.seq_cycles, rep.profile_cycles, offline.profile_cycles
            ),
        ));
    }
    if format!("{:?}", rep.selection.chosen) != format!("{:?}", offline.selection.chosen)
        || rep.candidates.demoted_ids() != offline.candidates.demoted_ids()
    {
        return Err(fail(
            "tier",
            format!(
                "selection verdicts diverged: online chose {:?} (demoted {:?}), offline chose \
                 {:?} (demoted {:?}) ({tcfg:?})",
                rep.selection
                    .chosen
                    .iter()
                    .map(|c| c.loop_id)
                    .collect::<Vec<_>>(),
                rep.candidates.demoted_ids(),
                offline
                    .selection
                    .chosen
                    .iter()
                    .map(|c| c.loop_id)
                    .collect::<Vec<_>>(),
                offline.candidates.demoted_ids(),
            ),
        ));
    }
    let selected = online.tiers.selected_ids();
    let chosen: BTreeSet<LoopId> = rep.selection.chosen.iter().map(|c| c.loop_id).collect();
    if selected != chosen {
        return Err(fail(
            "tier",
            format!("terminal Selected tiers {selected:?} disagree with the selection {chosen:?}"),
        ));
    }

    // (c) pass accounting: every logical epoch interpreted its image
    //     or reused the held run of an unchanged one, and the collect
    //     pass adds one interpreter pass when a loop is chosen
    let passes = u64::from(rep.obs.interpreter_passes);
    let reused = rep
        .telemetry
        .registry
        .snapshot()
        .counter("tier.reused_epochs");
    let want = u64::from(online.tiers.epochs) + u64::from(!chosen.is_empty());
    if passes + reused != want {
        return Err(fail(
            "tier",
            format!(
                "{passes} interpreter passes + {reused} reused epochs != {want} \
                 ({} epochs, {} chosen) ({tcfg:?})",
                online.tiers.epochs,
                chosen.len()
            ),
        ));
    }
    Ok(())
}

fn run_bounded<S: tvm::TraceSink>(program: &Program, sink: &mut S) -> Result<RunResult, VmError> {
    Interp::run_with(program, sink, CostModel::default(), FUZZ_FUEL)
}

fn same_run(oracle: &'static str, a: &RunResult, b: &RunResult) -> Result<(), Failure> {
    let (da, db) = (format!("{a:?}"), format!("{b:?}"));
    if da != db {
        return Err(fail(oracle, format!("RunResult diverged: {da} vs {db}")));
    }
    Ok(())
}

fn same_events(oracle: &'static str, a: &Recording, b: &Recording) -> Result<(), Failure> {
    if a != b {
        let first = a
            .events
            .iter()
            .zip(&b.events)
            .position(|(x, y)| x != y)
            .map_or_else(
                || format!("lengths {} vs {}", a.len(), b.len()),
                |i| {
                    format!(
                        "first divergence at event {i}: {:?} vs {:?}",
                        a.events[i], b.events[i]
                    )
                },
            );
        return Err(fail(oracle, format!("event streams diverged: {first}")));
    }
    Ok(())
}

fn same_profile(oracle: &'static str, a: &Profile, b: &Profile) -> Result<(), Failure> {
    if a != b {
        return Err(fail(
            oracle,
            format!("profiles diverged:\n{a:#?}\nvs\n{b:#?}"),
        ));
    }
    Ok(())
}

fn profile_with(rec: &Recording, cfg: TracerConfig, masks: &[(LoopId, u64)]) -> Profile {
    let mut t = TestTracer::with_masks(cfg, masks.iter().copied());
    rec.replay(&mut t);
    t.into_profile()
}

/// Two tracer configurations that only differ in capacities the run
/// never exhausts must agree on every per-loop statistic.
fn check_config_stability(rec: &Recording, masks: &[(LoopId, u64)]) -> Result<(), Failure> {
    let unb = TracerConfig::unbounded();
    let base = profile_with(rec, unb, masks);
    let variants: Vec<(&'static str, TracerConfig)> = vec![
        (
            "halved (still huge) store-timestamp FIFO",
            TracerConfig {
                store_ts_lines: unb.store_ts_lines / 2,
                ..unb
            },
        ),
        (
            "halved (still collision-free) line-timestamp tables",
            TracerConfig {
                ld_table_entries: unb.ld_table_entries / 2,
                st_table_entries: unb.st_table_entries / 2,
                ..unb
            },
        ),
        (
            "different pc-bin capacity",
            TracerConfig {
                pc_bin_capacity: 8,
                ..unb
            },
        ),
    ];
    for (what, cfg) in variants {
        let p = profile_with(rec, cfg, masks);
        if p.stl != base.stl || p.forest_edges != base.forest_edges {
            return Err(fail(
                "config-stability",
                format!("{what} changed the per-loop statistics"),
            ));
        }
    }
    if base.max_dynamic_depth <= 32 {
        let p = profile_with(rec, TracerConfig { n_banks: 32, ..unb }, masks);
        if p.stl != base.stl || p.forest_edges != base.forest_edges {
            return Err(fail(
                "config-stability",
                "32 banks suffice for this depth but changed the statistics",
            ));
        }
    }
    Ok(())
}

/// Re-derives the guaranteed-dependence set per candidate (minimum
/// distance per demoted loop).
fn guaranteed_deps(
    program: &Program,
    cands: &ProgramCandidates,
) -> Result<HashMap<LoopId, u32>, Failure> {
    let mut out = HashMap::new();
    for c in &cands.candidates {
        let fa = &cands.functions[c.func.0 as usize];
        let f = &program.functions[c.func.0 as usize];
        let view = cands.pointsto.view(c.func);
        let ds = analyze_loop(
            program,
            f,
            &fa.cfg,
            &fa.dom,
            &fa.forest.loops[c.loop_idx],
            Some(&view),
        );
        if let Some(min) = ds.iter().map(|d| d.distance).min() {
            out.insert(c.id, min.max(1));
        }
    }
    Ok(out)
}

/// Checks that demotion verdicts match a fresh `analyze_loop` pass and
/// that every demoted loop's proven dependence is visible in the event
/// stream of a run with *all* candidates force-annotated.
fn check_memdep(
    program: &Program,
    cands: &ProgramCandidates,
    deps: &HashMap<LoopId, u32>,
) -> Result<usize, Failure> {
    for c in &cands.candidates {
        if deps.contains_key(&c.id) != c.is_demoted() {
            return Err(fail(
                "memdep-verdict",
                format!(
                    "candidate {:?}: extraction says demoted={}, fresh analyze_loop says {}",
                    c.id,
                    c.is_demoted(),
                    deps.contains_key(&c.id)
                ),
            ));
        }
    }
    if deps.is_empty() {
        return Ok(0);
    }
    let all_ids: Vec<LoopId> = cands.candidates.iter().map(|c| c.id).collect();
    let ann_all = annotate(program, cands, &AnnotateOptions::only(all_ids))
        .map_err(|e| fail("memdep-stream", format!("annotate-all failed: {e}")))?;
    let mut sink = RecordingSink::default();
    run_bounded(&ann_all, &mut sink)
        .map_err(|e| fail("memdep-stream", format!("annotated-all run failed: {e}")))?;
    check_memdep_stream(&sink.into_recording(), deps)?;
    Ok(deps.len())
}

/// Soundness oracle for the alias-sharpened pre-screen: every access
/// pair `classify_loop_pairs` marks `Disjoint` must touch disjoint
/// dynamic address sets in the plain run. Opaque-store pairs are
/// skipped — call instructions emit no heap events of their own, so
/// their footprint is not observable at the call pc.
fn check_pointsto(
    program: &Program,
    cands: &ProgramCandidates,
    rec: &Recording,
) -> Result<(), Failure> {
    let mut addrs: HashMap<(u16, u32), BTreeSet<Addr>> = HashMap::new();
    for e in &rec.events {
        if let Event::HeapLoad(a, _, pc) | Event::HeapStore(a, _, pc) = *e {
            addrs.entry((pc.func.0, pc.idx)).or_default().insert(a);
        }
    }
    let empty = BTreeSet::new();
    for c in &cands.candidates {
        let fa = &cands.functions[c.func.0 as usize];
        let f = &program.functions[c.func.0 as usize];
        let lp = &fa.forest.loops[c.loop_idx];
        let view = cands.pointsto.view(c.func);
        for p in classify_loop_pairs(program, f, &fa.cfg, &fa.dom, lp, Some(&view)) {
            if p.verdict != PairVerdict::Disjoint || p.opaque_store {
                continue;
            }
            let la = addrs.get(&(c.func.0, p.load_at)).unwrap_or(&empty);
            let sa = addrs.get(&(c.func.0, p.store_at)).unwrap_or(&empty);
            if let Some(shared) = la.intersection(sa).next() {
                return Err(fail(
                    "pointsto-soundness",
                    format!(
                        "candidate {:?} in fn {}: load at pc {} and store at pc {} were \
                         proven disjoint (via_pointsto={}) but both touched address {} \
                         dynamically",
                        c.id, c.func.0, p.load_at, p.store_at, p.via_pointsto, shared
                    ),
                ));
            }
        }
    }
    Ok(())
}

struct EntryWalk {
    loop_id: LoopId,
    iter: u32,
    /// addr -> iteration of the last store within this entry
    last_store: HashMap<u32, u32>,
    found_cross_raw: bool,
}

/// Walks the exact event stream and requires each demoted entry that
/// completed more iterations than its proven distance to contain at
/// least one load observing an earlier iteration's store.
fn check_memdep_stream(rec: &Recording, deps: &HashMap<LoopId, u32>) -> Result<(), Failure> {
    let mut stack: Vec<EntryWalk> = Vec::new();
    for e in &rec.events {
        match *e {
            Event::LoopEnter(l, _, _, _) => stack.push(EntryWalk {
                loop_id: l,
                iter: 0,
                last_store: HashMap::new(),
                found_cross_raw: false,
            }),
            Event::LoopIter(l, _) => {
                if let Some(st) = stack.iter_mut().rev().find(|s| s.loop_id == l) {
                    st.iter += 1;
                }
            }
            Event::LoopExit(l, _) => {
                // inner entries abandoned by an early function return
                // unwind together with the exiting loop
                while let Some(st) = stack.pop() {
                    let done = st.loop_id == l;
                    finish_entry(&st, deps)?;
                    if done {
                        break;
                    }
                }
            }
            Event::HeapLoad(a, _, _) => {
                for st in &mut stack {
                    if !st.found_cross_raw {
                        if let Some(&it) = st.last_store.get(&a) {
                            if it < st.iter {
                                st.found_cross_raw = true;
                            }
                        }
                    }
                }
            }
            Event::HeapStore(a, _, _) => {
                for st in &mut stack {
                    st.last_store.insert(a, st.iter);
                }
            }
            _ => {}
        }
    }
    while let Some(st) = stack.pop() {
        finish_entry(&st, deps)?;
    }
    Ok(())
}

fn finish_entry(st: &EntryWalk, deps: &HashMap<LoopId, u32>) -> Result<(), Failure> {
    if let Some(&d) = deps.get(&st.loop_id) {
        if st.iter > d && !st.found_cross_raw {
            return Err(fail(
                "memdep-stream",
                format!(
                    "loop {:?} is statically proven serial at distance {d}, but an entry \
                     with {} completed iterations shows no cross-iteration RAW in its \
                     heap event stream",
                    st.loop_id, st.iter
                ),
            ));
        }
    }
    Ok(())
}

/// Collects per-entry TLS traces for every candidate and checks the
/// Hydra simulator's sanity invariants on each.
fn check_hydra(
    program: &Program,
    cands: &ProgramCandidates,
    masks: &[(LoopId, u64)],
) -> Result<usize, Failure> {
    if cands.candidates.is_empty() {
        return Ok(0);
    }
    let all_ids: Vec<LoopId> = cands.candidates.iter().map(|c| c.id).collect();
    let ann = annotate(
        program,
        cands,
        &AnnotateOptions::only(all_ids.iter().copied()),
    )
    .map_err(|e| fail("hydra", format!("annotate for collection failed: {e}")))?;
    let mut coll = TlsTraceCollector::with_masks(all_ids, masks.iter().copied());
    run_bounded(&ann, &mut coll)
        .map_err(|e| fail("hydra", format!("collection run failed: {e}")))?;
    let cfg = TlsConfig::default();
    for (i, entry) in coll.entries.iter().enumerate() {
        let r = simulate_entry(entry, &cfg);
        if r.threads != entry.iters.len() as u64 {
            return Err(fail(
                "hydra",
                format!(
                    "entry {i} of {:?}: trace has {} iterations but the simulator ran {} threads",
                    entry.loop_id,
                    entry.iters.len(),
                    r.threads
                ),
            ));
        }
        let longest = entry.iters.iter().map(|it| u64::from(it.cycles)).max();
        if let Some(longest) = longest {
            let floor =
                cfg.startup + longest + cfg.eoi + cfg.shutdown + u64::from(entry.tail_cycles);
            if r.tls_cycles < floor {
                return Err(fail(
                    "hydra",
                    format!(
                        "entry {i} of {:?}: tls_cycles {} below the longest-thread floor {floor}",
                        entry.loop_id, r.tls_cycles
                    ),
                ));
            }
        }
        if r.violations == 0 {
            let huge = TlsConfig {
                violation_restart: 1_000_000,
                ..cfg
            };
            let r2 = simulate_entry(entry, &huge);
            if r2 != r {
                return Err(fail(
                    "hydra",
                    format!(
                        "entry {i} of {:?}: zero violations, yet the restart penalty changed \
                         the result ({r:?} vs {r2:?})",
                        entry.loop_id
                    ),
                ));
            }
        }
    }
    Ok(coll.entries.len())
}

/// The profiling server must answer with the batch pipeline's exact
/// report — served through a worker pool, but never re-modelled.
fn check_pipeline(program: &Program) -> Result<(), Failure> {
    let batch = run_pipeline(program, &PipelineConfig::default())
        .map_err(|e| fail("pipeline", format!("batch pipeline failed: {e}")))?;
    let server = Server::start(ServerConfig {
        workers: 2,
        queue_depth: 2,
        ..ServerConfig::default()
    });
    let resp = server
        .profile(ProfileRequest::Pipeline {
            program: program.clone(),
            cfg: PipelineConfig::default(),
        })
        .map_err(|e| fail("serve", format!("server request failed: {e}")))?;
    let served = resp
        .report()
        .ok_or_else(|| fail("serve", "pipeline request answered without a report"))?;
    if batch.seq_cycles != served.seq_cycles
        || batch.profile_cycles != served.profile_cycles
        || batch.profile != served.profile
        || format!("{:?}", batch.selection) != format!("{:?}", served.selection)
        || format!("{:?}", batch.actual) != format!("{:?}", served.actual)
    {
        return Err(fail(
            "serve",
            format!(
                "server-answered pipeline report diverged from the batch run{}{}",
                sink_diag("batch", &batch.obs.bus),
                sink_diag("served", &served.obs.bus)
            ),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_quick_seed_range_is_green() {
        for seed in 0..25 {
            if let Err(f) = check_seed(seed) {
                panic!("seed {seed}: {f}");
            }
        }
    }
}
