//! Static-vs-dynamic dependence **agreement report**.
//!
//! The points-to-sharpened pre-screen (`cfgir::memdep` over
//! `cfgir::pointsto`) makes claims about runtime behavior: a
//! (load, store) pair classified [`PairVerdict::Disjoint`] can *never*
//! touch the same address, and a demoted loop carries a guaranteed
//! cross-iteration RAW on every long-enough entry. This module replays
//! a benchmark and scores those claims against what actually happened:
//!
//! * **soundness invariant** — for every pair the static analysis
//!   proved disjoint, the dynamic address sets observed at the two
//!   access sites must not intersect. A single shared address is a
//!   bug in the analysis, and [`AgreementReport::sound`] goes false
//!   (CI fails the build on it);
//! * **precision/recall** — per benchmark, how the set of statically
//!   demoted loops compares with the set of loops whose traces show a
//!   real cross-iteration RAW. The pre-screen is deliberately
//!   optimistic, so recall below 1.0 is expected (the tracer exists
//!   precisely to catch what static analysis cannot); precision below
//!   1.0 would mean a demotion fired on a loop with no dynamic
//!   dependence, which the differential fuzzer also hunts.
//!
//! Every candidate — demoted or not — is force-annotated
//! ([`AnnotateOptions::only`]) so its loop boundaries are visible in
//! the event stream, and dynamic pcs are translated back to original
//! instruction indices through the [`annotate_mapped`] origin maps.
//!
//! # Value agreement
//!
//! The scalar-evolution analysis (`cfgir::scev`) and the certified
//! pre-computation slices built on it (`cfgir::slice`) make *stronger*
//! claims than disjointness, and this module checks those dynamically
//! too:
//!
//! * **slice values** — every certified slice over a static scalar
//!   predicts the scalar's exact value at each iteration boundary
//!   (`v_k = step^k(v_0)` under the certified [`Evolution`]); a value
//!   tap on `putstatic` ([`tvm::trace::TraceSink::static_store`])
//!   records what was actually written, and every `eoi` boundary
//!   compares the two. Any mismatch is a [`SliceViolation`];
//! * **slice addresses** — a certified inductor slice predicts the
//!   per-iteration address step of every affine access site driven by
//!   that inductor (`scale * stride * WORD_BYTES` bytes); the replayed
//!   heap events must advance exactly that much per iteration;
//! * **dependence distances** — a [`PairVerdict::DistanceAtLeast`]
//!   verdict claims any address both sites touch is touched exactly
//!   `d` iterations apart; the replay cross-checks every shared
//!   address ([`DistanceViolation`] otherwise).
//!
//! All three feed [`AgreementReport::sound`], so the `scev` regression
//! gate fails the build on a single unsound prediction.

use crate::annotate::{annotate_mapped, AnnotateOptions};
use cfgir::extract_candidates;
use cfgir::{
    classify_loop_pairs, classify_loop_pairs_evo, extract_slices, scev, AccessPair, Dominators,
    Evolution, PairVerdict, SliceScalar, SolverStats,
};
use std::collections::{BTreeSet, HashMap};
use tvm::isa::{LoopId, Pc};
use tvm::program::Program;
use tvm::record::{Event, Recording, RecordingSink};
use tvm::trace::{Addr, Cycles, TraceSink};
use tvm::{Interp, WORD_BYTES};

/// One statically-disjoint pair whose dynamic address sets overlapped:
/// a refuted proof, i.e. an analysis bug.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Loop whose body the pair belongs to.
    pub loop_id: LoopId,
    /// Original instruction index of the load.
    pub load_at: u32,
    /// Original instruction index of the store.
    pub store_at: u32,
    /// Whether the refuted proof needed points-to facts.
    pub via_pointsto: bool,
    /// An address both sites touched.
    pub shared_addr: Addr,
}

/// A certified slice whose predicted per-iteration value (or address
/// step) disagreed with the recorded stream: a refuted certificate,
/// i.e. a bug in `cfgir::scev`/`cfgir::slice`.
#[derive(Debug, Clone)]
pub struct SliceViolation {
    /// Loop the slice belongs to.
    pub loop_id: LoopId,
    /// The loop-carried scalar the slice pre-computes.
    pub scalar: SliceScalar,
    /// Iteration boundary (number of completed iterations) at which
    /// the disagreement surfaced.
    pub iter: u64,
    /// What the certificate's evolution predicted — a scalar value for
    /// static slices, a byte address for inductor slices.
    pub predicted: i64,
    /// What the recorded stream actually held.
    pub observed: i64,
}

/// A `DistanceAtLeast(d)` pair whose dynamic traces touched a shared
/// address at an iteration distance other than the claimed one.
#[derive(Debug, Clone)]
pub struct DistanceViolation {
    /// Loop whose body the pair belongs to.
    pub loop_id: LoopId,
    /// Original instruction index of the load.
    pub load_at: u32,
    /// Original instruction index of the store.
    pub store_at: u32,
    /// The shared address.
    pub addr: Addr,
    /// Iteration (within one entry) the load touched it.
    pub load_iter: u64,
    /// Iteration (within one entry) the store touched it.
    pub store_iter: u64,
    /// The signed distance the static analysis claimed.
    pub claimed: i64,
}

/// Per-candidate agreement between the static verdict and the trace.
#[derive(Debug, Clone)]
pub struct LoopAgreement {
    /// The candidate.
    pub id: LoopId,
    /// Statically demoted (predicted serial)?
    pub demoted: bool,
    /// Did any entry's trace show a cross-iteration RAW?
    pub dynamic_cross_raw: bool,
    /// Total iterations observed across all entries.
    pub iters: u64,
    /// Pair counts by verdict for this loop's body.
    pub disjoint: usize,
    /// Disjoint only thanks to points-to facts.
    pub via_pointsto: usize,
    /// Unproven pairs left for the tracer.
    pub may_alias: usize,
    /// Statically guaranteed RAW pairs.
    pub guaranteed: usize,
    /// Pairs scalar evolution sharpened to a dependence distance.
    pub distance: usize,
    /// Certified pre-computation slices extracted for this loop.
    pub slices: usize,
}

/// The whole-benchmark agreement report.
#[derive(Debug, Clone, Default)]
pub struct AgreementReport {
    /// Per-candidate rows, in id order.
    pub loops: Vec<LoopAgreement>,
    /// Refuted disjointness proofs (must be empty).
    pub violations: Vec<Violation>,
    /// Total (load, store) pairs classified.
    pub pairs: usize,
    /// Pairs proven disjoint with points-to facts available.
    pub disjoint: usize,
    /// Of those, pairs the PR 1 structural rules alone could not prove.
    pub via_pointsto: usize,
    /// Pairs proven disjoint by the structural rules alone (baseline).
    pub baseline_disjoint: usize,
    /// Demoted candidates (predicted serial).
    pub predicted_serial: usize,
    /// Candidates with an observed dynamic cross-iteration RAW.
    pub actual_serial: usize,
    /// Candidates in both sets.
    pub agree_serial: usize,
    /// Events in the replayed recording.
    pub events: usize,
    /// Statistics of the points-to solve behind the verdicts.
    pub pointsto: SolverStats,
    /// Loops the rescue stage transformed before this analysis ran.
    pub rescued: usize,
    /// When anything was rescued: did the original and transformed
    /// programs finish in bit-identical final state (return value and
    /// whole memory image)? Vacuously true when nothing changed.
    pub rescue_state_ok: bool,
    /// Certified pre-computation slices extracted across all loops.
    /// Every one passed the independent verifier.
    pub slices: usize,
    /// Slice candidates the independent verifier rejected.
    pub slices_rejected: usize,
    /// Per-iteration slice predictions compared against the recorded
    /// stream (values for static slices, addresses for inductor
    /// slices).
    pub slice_checks: u64,
    /// Slice predictions the recorded stream refuted (must be empty).
    pub slice_violations: Vec<SliceViolation>,
    /// Pairs carrying a `DistanceAtLeast` verdict.
    pub distance_pairs: usize,
    /// Shared addresses cross-checked against a claimed distance.
    pub distance_checks: u64,
    /// Distance claims the replay refuted (must be empty).
    pub distance_violations: Vec<DistanceViolation>,
}

impl AgreementReport {
    /// True when no statically-disjoint pair aliased dynamically,
    /// every slice prediction and distance claim matched the recorded
    /// stream, and every rescue transform preserved the program's
    /// final state.
    pub fn sound(&self) -> bool {
        self.violations.is_empty()
            && self.slice_violations.is_empty()
            && self.distance_violations.is_empty()
            && self.rescue_state_ok
    }

    /// Of the loops predicted serial, the fraction observed serial.
    /// `None` when nothing was predicted serial.
    pub fn precision(&self) -> Option<f64> {
        (self.predicted_serial > 0).then(|| self.agree_serial as f64 / self.predicted_serial as f64)
    }

    /// Of the loops observed serial, the fraction predicted serial.
    /// `None` when nothing was observed serial.
    pub fn recall(&self) -> Option<f64> {
        (self.actual_serial > 0).then(|| self.agree_serial as f64 / self.actual_serial as f64)
    }
}

struct EntryWalk {
    loop_id: LoopId,
    iter: u64,
    /// addr -> iteration of the last store within this entry
    last_store: HashMap<Addr, u64>,
    found_cross_raw: bool,
}

/// Runs the full agreement check on one program.
///
/// # Errors
///
/// Forwards interpreter or annotation failures as [`tvm::VmError`].
pub fn agreement_report(program: &Program) -> Result<AgreementReport, tvm::VmError> {
    // rescue first: the report scores the program the pipeline
    // actually profiles, and the state comparison double-checks the
    // legality proofs dynamically — a transform that slipped past the
    // verifier with changed semantics flips `sound()` here
    let rescue = cfgir::rescue_program(program);
    let rescue_state_ok = if rescue.changed() {
        let a = Interp::run_state(program, &mut tvm::NullSink)?;
        let b = Interp::run_state(&rescue.program, &mut tvm::NullSink)?;
        a.result.ret == b.result.ret && a.memory.words() == b.memory.words()
    } else {
        true
    };
    let program = &rescue.program;
    let cands = extract_candidates(program);
    let pt = cfgir::PointsTo::analyze(program);

    // classify every candidate's pairs, sharpened and baseline
    let mut per_loop: HashMap<LoopId, Vec<AccessPair>> = HashMap::new();
    let mut report = AgreementReport {
        pointsto: cands.pointsto,
        rescued: rescue.rescued.len(),
        rescue_state_ok,
        ..AgreementReport::default()
    };
    let mut value_plans: HashMap<LoopId, ValuePlan> = HashMap::new();
    let mut addr_plans: HashMap<LoopId, AddrPlan> = HashMap::new();
    let mut slice_counts: HashMap<LoopId, usize> = HashMap::new();
    for c in &cands.candidates {
        let fa = &cands.functions[c.func.0 as usize];
        let f = &program.functions[c.func.0 as usize];
        let dom = Dominators::compute(&fa.cfg);
        let lp = &fa.forest.loops[c.loop_idx];
        let view = pt.view(c.func);
        let evo = scev::analyze_loop(program, f, &fa.cfg, lp);
        let pairs = classify_loop_pairs_evo(program, f, &fa.cfg, &dom, lp, Some(&view), &evo);
        let base = classify_loop_pairs(program, f, &fa.cfg, &dom, lp, None);
        report.pairs += pairs.len();
        report.baseline_disjoint += base
            .iter()
            .filter(|p| p.verdict == PairVerdict::Disjoint)
            .count();
        report.disjoint += pairs
            .iter()
            .filter(|p| p.verdict == PairVerdict::Disjoint)
            .count();
        report.via_pointsto += pairs.iter().filter(|p| p.via_pointsto).count();
        report.distance_pairs += pairs
            .iter()
            .filter(|p| matches!(p.verdict, PairVerdict::DistanceAtLeast(_)))
            .count();

        // every certified slice becomes a dynamic check: static
        // scalars by value, inductors by address progression
        let slices = extract_slices(program, f, &fa.cfg, &fa.forest, c.loop_idx, &evo);
        report.slices += slices.slices.len();
        report.slices_rejected += slices.rejected;
        let mut vplan = ValuePlan::default();
        let mut aplan = AddrPlan::default();
        for s in &slices.slices {
            match s.scalar {
                SliceScalar::Static(g) => {
                    vplan.statics.push((g.0, s.cert.evolution));
                }
                SliceScalar::Local(l) => {
                    let Evolution::Affine { stride } = s.cert.evolution else {
                        continue;
                    };
                    // every affine access site driven by this inductor
                    // advances scale*stride words per iteration
                    for (instr, ind, scale) in cfgir::affine_sites(program, f, &fa.cfg, &dom, lp) {
                        if ind == l {
                            let per_iter = scale
                                .wrapping_mul(stride)
                                .wrapping_mul(i64::from(WORD_BYTES));
                            aplan.sites.push(((c.func.0, instr), per_iter));
                        }
                    }
                }
            }
        }
        for p in &pairs {
            if let (PairVerdict::DistanceAtLeast(_), Some(q)) = (&p.verdict, p.scev_distance) {
                aplan
                    .pairs
                    .push(((c.func.0, p.load_at), (c.func.0, p.store_at), q));
            }
        }
        if !vplan.statics.is_empty() {
            value_plans.insert(c.id, vplan);
        }
        if !aplan.sites.is_empty() || !aplan.pairs.is_empty() {
            addr_plans.insert(c.id, aplan);
        }
        slice_counts.insert(c.id, slices.slices.len());
        per_loop.insert(c.id, pairs);
    }

    // force-annotate every candidate so demoted loops are traced too
    let all_ids: Vec<LoopId> = cands.candidates.iter().map(|c| c.id).collect();
    let (ann, maps) = annotate_mapped(program, &cands, &AnnotateOptions::only(all_ids))?;
    let mut sink = TapSink::default();
    Interp::run(&ann, &mut sink)?;
    let taps = sink.taps;
    let rec = sink.inner.into_recording();
    report.events = rec.len();

    // dynamic profile: per-site address sets (original pcs) and
    // per-loop cross-iteration RAW detection
    let (addrs_at, loop_dyn) = profile(&rec, &maps);

    // value agreement: replay the tap stream against every static
    // slice's predicted per-iteration value ...
    let (vchecks, vviol) = check_static_slices(&taps, &value_plans);
    report.slice_checks += vchecks;
    report.slice_violations.extend(vviol);
    // ... and the heap events against inductor address progressions
    // and claimed dependence distances
    check_addresses(&rec, &maps, &addr_plans, &mut report);

    for c in &cands.candidates {
        let pairs = &per_loop[&c.id];
        let (iters, dynamic_cross_raw) = loop_dyn.get(&c.id).copied().unwrap_or((0, false));
        for p in pairs {
            if p.verdict != PairVerdict::Disjoint || p.opaque_store {
                // opaque pairs are vacuous here: a call instruction
                // emits no heap events at its own pc
                continue;
            }
            let empty = BTreeSet::new();
            let la = addrs_at.get(&(c.func.0, p.load_at)).unwrap_or(&empty);
            let sa = addrs_at.get(&(c.func.0, p.store_at)).unwrap_or(&empty);
            if let Some(shared) = la.iter().find(|a| sa.contains(a)) {
                report.violations.push(Violation {
                    loop_id: c.id,
                    load_at: p.load_at,
                    store_at: p.store_at,
                    via_pointsto: p.via_pointsto,
                    shared_addr: *shared,
                });
            }
        }
        let count = |v: PairVerdict| pairs.iter().filter(|p| p.verdict == v).count();
        report.loops.push(LoopAgreement {
            id: c.id,
            demoted: c.is_demoted(),
            dynamic_cross_raw,
            iters,
            disjoint: count(PairVerdict::Disjoint),
            via_pointsto: pairs.iter().filter(|p| p.via_pointsto).count(),
            may_alias: count(PairVerdict::MayAlias),
            guaranteed: count(PairVerdict::GuaranteedRaw),
            distance: pairs
                .iter()
                .filter(|p| matches!(p.verdict, PairVerdict::DistanceAtLeast(_)))
                .count(),
            slices: slice_counts.get(&c.id).copied().unwrap_or(0),
        });
        if c.is_demoted() {
            report.predicted_serial += 1;
        }
        if dynamic_cross_raw {
            report.actual_serial += 1;
            if c.is_demoted() {
                report.agree_serial += 1;
            }
        }
    }
    Ok(report)
}

type SiteAddrs = HashMap<(u16, u32), BTreeSet<Addr>>;
type LoopDyn = HashMap<LoopId, (u64, bool)>;

/// One pass over the recording: address sets per original access site,
/// and (iterations, saw-cross-iteration-RAW) per loop id.
fn profile(rec: &Recording, maps: &[Vec<Option<u32>>]) -> (SiteAddrs, LoopDyn) {
    let mut addrs_at: SiteAddrs = HashMap::new();
    let mut loop_dyn: LoopDyn = HashMap::new();
    let mut stack: Vec<EntryWalk> = Vec::new();
    let orig_pc = |pc: tvm::isa::Pc| -> Option<(u16, u32)> {
        let f = pc.func.0;
        maps.get(f as usize)
            .and_then(|m| m.get(pc.idx as usize))
            .copied()
            .flatten()
            .map(|o| (f, o))
    };
    let close = |st: EntryWalk, loop_dyn: &mut LoopDyn| {
        let e = loop_dyn.entry(st.loop_id).or_insert((0, false));
        e.0 += st.iter;
        e.1 |= st.found_cross_raw;
    };
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
                // inner entries abandoned by an early return unwind
                // together with the exiting loop
                while let Some(st) = stack.pop() {
                    let done = st.loop_id == l;
                    close(st, &mut loop_dyn);
                    if done {
                        break;
                    }
                }
            }
            Event::HeapLoad(a, _, pc) => {
                if let Some(key) = orig_pc(pc) {
                    addrs_at.entry(key).or_default().insert(a);
                }
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
            Event::HeapStore(a, _, pc) => {
                if let Some(key) = orig_pc(pc) {
                    addrs_at.entry(key).or_default().insert(a);
                }
                for st in &mut stack {
                    st.last_store.insert(a, st.iter);
                }
            }
            _ => {}
        }
    }
    while let Some(st) = stack.pop() {
        close(st, &mut loop_dyn);
    }
    (addrs_at, loop_dyn)
}

/// One event of the value-tap side stream: loop boundaries interleaved
/// with `putstatic` value taps, in execution order.
#[derive(Debug, Clone, Copy)]
enum VEvent {
    Enter(LoopId),
    Iter(LoopId),
    Exit(LoopId),
    Store(u16, i64),
}

/// A [`RecordingSink`] wrapper that additionally captures the
/// `putstatic` value taps the recording itself does not carry (the
/// event stream is value-free by design), interleaved with loop
/// boundaries so per-iteration predictions line up.
#[derive(Default)]
struct TapSink {
    inner: RecordingSink,
    taps: Vec<VEvent>,
}

impl TraceSink for TapSink {
    fn heap_load(&mut self, addr: Addr, now: Cycles, pc: Pc) {
        self.inner.heap_load(addr, now, pc);
    }
    fn heap_store(&mut self, addr: Addr, now: Cycles, pc: Pc) {
        self.inner.heap_store(addr, now, pc);
    }
    fn static_store(&mut self, global: u16, value: i64, now: Cycles, pc: Pc) {
        self.taps.push(VEvent::Store(global, value));
        self.inner.static_store(global, value, now, pc);
    }
    fn local_load(&mut self, var: u16, activation: u32, now: Cycles, pc: Pc) {
        self.inner.local_load(var, activation, now, pc);
    }
    fn local_store(&mut self, var: u16, activation: u32, now: Cycles, pc: Pc) {
        self.inner.local_store(var, activation, now, pc);
    }
    fn loop_enter(&mut self, loop_id: LoopId, n_locals: u16, activation: u32, now: Cycles) {
        self.taps.push(VEvent::Enter(loop_id));
        self.inner.loop_enter(loop_id, n_locals, activation, now);
    }
    fn loop_iter(&mut self, loop_id: LoopId, now: Cycles) {
        self.taps.push(VEvent::Iter(loop_id));
        self.inner.loop_iter(loop_id, now);
    }
    fn loop_exit(&mut self, loop_id: LoopId, now: Cycles) {
        self.taps.push(VEvent::Exit(loop_id));
        self.inner.loop_exit(loop_id, now);
    }
    fn stats_read(&mut self, loop_id: LoopId, now: Cycles) {
        self.inner.stats_read(loop_id, now);
    }
    fn call_enter(&mut self, site: Pc, activation: u32, now: Cycles) {
        self.inner.call_enter(site, activation, now);
    }
    fn call_exit(&mut self, site: Pc, now: Cycles) {
        self.inner.call_exit(site, now);
    }
    fn call_result_use(&mut self, site: Pc, now: Cycles) {
        self.inner.call_result_use(site, now);
    }
}

/// Static slices of one loop: (global index, certified evolution).
#[derive(Debug, Clone, Default)]
struct ValuePlan {
    statics: Vec<(u16, Evolution)>,
}

/// A `DistanceAtLeast` pair to replay: (load site, store site, signed
/// claimed distance).
type DistancePair = ((u16, u32), (u16, u32), i64);

/// Address-level checks of one loop.
#[derive(Debug, Clone, Default)]
struct AddrPlan {
    /// Affine sites covered by an inductor slice: (site key, expected
    /// per-iteration byte delta).
    sites: Vec<((u16, u32), i64)>,
    /// `DistanceAtLeast` pairs: (load site, store site, signed claimed
    /// distance).
    pairs: Vec<DistancePair>,
}

/// Walks the value-tap stream and checks, at every `eoi` boundary of
/// every entry of a planned loop, that each static slice's tracked
/// value equals its certificate's prediction (`step` applied once per
/// completed iteration to the value at entry). `eoi` fires on the back
/// edge, after the iteration's stores, so at the k-th boundary exactly
/// k full updates have been applied.
fn check_static_slices(
    taps: &[VEvent],
    plans: &HashMap<LoopId, ValuePlan>,
) -> (u64, Vec<SliceViolation>) {
    struct Frame {
        loop_id: LoopId,
        iter: u64,
        /// (global, evolution, predicted current value)
        tracked: Vec<(u16, Evolution, i64)>,
    }
    // statics are zero-initialized; only Int stores tap, which is
    // exactly the set scev reasons about
    let mut cur: HashMap<u16, i64> = HashMap::new();
    let mut stack: Vec<Frame> = Vec::new();
    let mut checks = 0u64;
    let mut violations = Vec::new();
    for e in taps {
        match *e {
            VEvent::Store(g, v) => {
                cur.insert(g, v);
            }
            VEvent::Enter(l) => {
                let tracked = plans
                    .get(&l)
                    .map(|p| {
                        p.statics
                            .iter()
                            .map(|(g, evo)| (*g, *evo, cur.get(g).copied().unwrap_or(0)))
                            .collect()
                    })
                    .unwrap_or_default();
                stack.push(Frame {
                    loop_id: l,
                    iter: 0,
                    tracked,
                });
            }
            VEvent::Iter(l) => {
                if let Some(fr) = stack.iter_mut().rev().find(|f| f.loop_id == l) {
                    fr.iter += 1;
                    for (g, evo, pred) in &mut fr.tracked {
                        let Some(next) = evo.step(*pred) else {
                            continue;
                        };
                        *pred = next;
                        let observed = cur.get(g).copied().unwrap_or(0);
                        checks += 1;
                        if observed != *pred {
                            violations.push(SliceViolation {
                                loop_id: l,
                                scalar: SliceScalar::Static(tvm::isa::GlobalId(*g)),
                                iter: fr.iter,
                                predicted: *pred,
                                observed,
                            });
                        }
                    }
                }
            }
            VEvent::Exit(l) => {
                // inner entries abandoned by an early unwind close
                // together with the exiting loop, as in `profile`
                while let Some(fr) = stack.pop() {
                    if fr.loop_id == l {
                        break;
                    }
                }
            }
        }
    }
    (checks, violations)
}

/// Walks the recording and checks, per entry of every planned loop,
/// (a) that each slice-covered affine site's addresses advance by the
/// expected per-iteration byte delta, and (b) that every address
/// shared by a `DistanceAtLeast(d)` pair was touched exactly the
/// claimed (signed) number of iterations apart.
fn check_addresses(
    rec: &Recording,
    maps: &[Vec<Option<u32>>],
    plans: &HashMap<LoopId, AddrPlan>,
    report: &mut AgreementReport,
) {
    struct Frame<'p> {
        loop_id: LoopId,
        iter: u64,
        /// `None` for loops with nothing to check — still stacked so
        /// unwind-abandoned entries close like in `profile`
        plan: Option<&'p AddrPlan>,
        /// site key -> (iteration, address) in observation order
        seen: HashMap<(u16, u32), Vec<(u64, Addr)>>,
    }
    let orig_pc = |pc: Pc| -> Option<(u16, u32)> {
        let f = pc.func.0;
        maps.get(f as usize)
            .and_then(|m| m.get(pc.idx as usize))
            .copied()
            .flatten()
            .map(|o| (f, o))
    };
    let mut stack: Vec<Frame<'_>> = Vec::new();
    let close = |fr: Frame<'_>, report: &mut AgreementReport| {
        let Some(plan) = fr.plan else { return };
        // (a) inductor slice address progressions
        for &(key, per_iter) in &plan.sites {
            let Some(obs) = fr.seen.get(&key) else {
                continue;
            };
            for w in obs.windows(2) {
                let ((i1, a1), (i2, a2)) = (w[0], w[1]);
                if i2 == i1 {
                    continue; // same iteration (e.g. inner-loop repeat)
                }
                let gap = i64::try_from(i2 - i1).unwrap_or(i64::MAX);
                let predicted = i64::from(a1).wrapping_add(per_iter.wrapping_mul(gap));
                report.slice_checks += 1;
                if i64::from(a2) != predicted {
                    report.slice_violations.push(SliceViolation {
                        loop_id: fr.loop_id,
                        scalar: SliceScalar::Local(tvm::program::Local(u16::MAX)),
                        iter: i2,
                        predicted,
                        observed: i64::from(a2),
                    });
                }
            }
        }
        // (b) claimed dependence distances
        for &(lkey, skey, q) in &plan.pairs {
            let empty = Vec::new();
            let loads = fr.seen.get(&lkey).unwrap_or(&empty);
            let stores = fr.seen.get(&skey).unwrap_or(&empty);
            let stored: HashMap<Addr, u64> = stores.iter().map(|&(i, a)| (a, i)).collect();
            for &(li, la) in loads {
                let Some(&si) = stored.get(&la) else { continue };
                report.distance_checks += 1;
                if li as i64 - si as i64 != q {
                    report.distance_violations.push(DistanceViolation {
                        loop_id: fr.loop_id,
                        load_at: lkey.1,
                        store_at: skey.1,
                        addr: la,
                        load_iter: li,
                        store_iter: si,
                        claimed: q,
                    });
                }
            }
        }
    };
    for e in &rec.events {
        match *e {
            Event::LoopEnter(l, _, _, _) => {
                stack.push(Frame {
                    loop_id: l,
                    iter: 0,
                    plan: plans.get(&l),
                    seen: HashMap::new(),
                });
            }
            Event::LoopIter(l, _) => {
                if let Some(fr) = stack.iter_mut().rev().find(|f| f.loop_id == l) {
                    fr.iter += 1;
                }
            }
            Event::LoopExit(l, _) => {
                // inner entries abandoned by an early return unwind
                // together with the exiting loop
                while let Some(fr) = stack.pop() {
                    let done = fr.loop_id == l;
                    close(fr, report);
                    if done {
                        break;
                    }
                }
            }
            Event::HeapLoad(a, _, pc) | Event::HeapStore(a, _, pc) => {
                if let Some(key) = orig_pc(pc) {
                    for fr in &mut stack {
                        let Some(plan) = fr.plan else { continue };
                        let relevant = plan.sites.iter().any(|&(k, _)| k == key)
                            || plan.pairs.iter().any(|&(lk, sk, _)| lk == key || sk == key);
                        if relevant {
                            fr.seen.entry(key).or_default().push((fr.iter, a));
                        }
                    }
                }
            }
            _ => {}
        }
    }
    while let Some(fr) = stack.pop() {
        close(fr, report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm::{ElemKind, ProgramBuilder};

    /// A recurrence loop next to a provably-parallel one, with a
    /// points-to-separated second array in the mix.
    fn mixed_program() -> Program {
        let mut b = ProgramBuilder::new();
        let g = b.global(ElemKind::Int);
        let main = b.function("main", 0, false, |f| {
            let (a, c, i, j) = (f.local(), f.local(), f.local(), f.local());
            f.ci(64).newarray(ElemKind::Int).st(a);
            f.ci(64).newarray(ElemKind::Int).st(c);
            // loop 0: serial static recurrence -> demoted (g = g*5+1
            // mixes two operators, so loop rescue cannot lift it)
            f.for_in(i, 0.into(), 16.into(), |f| {
                f.getstatic(g).ci(5).imul().ci(1).iadd().putstatic(g);
            });
            // loop 1: a[j] = c[j] * 2 — reads one array, writes the
            // other; only points-to can separate the two bases
            f.for_in(j, 0.into(), 16.into(), |f| {
                f.ld(a).ld(j);
                f.ld(c).ld(j).aload();
                f.ci(2).imul();
                f.astore();
            });
            f.ret_void();
        });
        b.finish(main).unwrap()
    }

    #[test]
    fn mixed_program_report_is_sound_and_agrees() {
        let p = mixed_program();
        let r = agreement_report(&p).unwrap();
        assert!(r.sound(), "violations: {:?}", r.violations);
        assert_eq!(r.loops.len(), 2);
        assert_eq!(r.predicted_serial, 1);
        assert_eq!(r.actual_serial, 1, "the recurrence loop must show a RAW");
        assert_eq!(r.agree_serial, 1);
        assert_eq!(r.precision(), Some(1.0));
        assert_eq!(r.recall(), Some(1.0));
        assert!(r.events > 0);
        assert!(r.pointsto.abstract_objects >= 2);
        // the two distinct arrays in loop 1 need points-to to separate
        assert!(
            r.via_pointsto > 0,
            "expected a points-to-only disjoint pair: {r:?}"
        );
        assert!(r.disjoint >= r.baseline_disjoint + r.via_pointsto);
    }

    #[test]
    fn rescued_reduction_is_scored_on_the_transformed_program() {
        // g += a[i] is demoted as written; after rescue the report
        // sees the delta-rewritten loop, which carries no recurrence,
        // and the state cross-check confirms identical semantics
        let mut b = ProgramBuilder::new();
        let g = b.global(ElemKind::Int);
        let main = b.function("main", 0, false, |f| {
            let (a, i) = (f.local(), f.local());
            f.ci(32).newarray(ElemKind::Int).st(a);
            f.for_in(i, 0.into(), 32.into(), |f| {
                f.arr_set(
                    a,
                    |f| {
                        f.ld(i);
                    },
                    |f| {
                        f.ld(i).ci(3).imul();
                    },
                );
            });
            f.for_in(i, 0.into(), 32.into(), |f| {
                f.getstatic(g).ld(a).ld(i).aload().iadd().putstatic(g);
            });
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        let r = agreement_report(&p).unwrap();
        assert_eq!(r.rescued, 1);
        assert!(r.rescue_state_ok);
        assert!(r.sound(), "violations: {:?}", r.violations);
        assert_eq!(r.predicted_serial, 0, "the rescued loop is clean");
        assert_eq!(r.actual_serial, 0, "the recurrence is gone dynamically too");
    }

    #[test]
    fn slice_values_and_distances_are_checked_dynamically() {
        // loop 0: g += 3 — certified Affine slice, value-checked at
        // every eoi. loop 1: guarded a[i] = a[i-1] — a DistanceAtLeast
        // pair whose shared addresses the replay cross-checks.
        let mut b = ProgramBuilder::new();
        let g = b.global(ElemKind::Int);
        let main = b.function("main", 0, false, |f| {
            let (a, i, j) = (f.local(), f.local(), f.local());
            f.ci(64).newarray(ElemKind::Int).st(a);
            f.for_in(i, 0.into(), 16.into(), |f| {
                f.getstatic(g).ci(3).iadd().putstatic(g);
            });
            f.for_in(j, 2.into(), 62.into(), |f| {
                f.if_icmp(
                    tvm::isa::Cond::Lt,
                    |f| {
                        f.ld(j).ci(32);
                    },
                    |f| {
                        f.ld(a).ld(j);
                        f.ld(a).ld(j).ci(-1).iadd().aload();
                        f.astore();
                    },
                );
            });
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        let r = agreement_report(&p).unwrap();
        assert!(r.sound(), "violations: {:?}", r.slice_violations);
        assert!(r.slices >= 2, "accumulator + both inductors: {r:?}");
        assert!(r.slice_checks > 0, "value/address predictions compared");
        assert!(r.slice_violations.is_empty());
        assert!(r.distance_pairs >= 1, "the stencil pair gains a distance");
        assert!(r.distance_checks > 0, "shared addresses cross-checked");
        assert!(r.distance_violations.is_empty());
    }

    #[test]
    fn a_lying_certificate_would_be_caught() {
        // the checker itself must have teeth: feed it a tap stream
        // from g += 3 but a plan claiming stride 4
        let taps = vec![
            VEvent::Enter(LoopId(0)),
            VEvent::Store(0, 3),
            VEvent::Iter(LoopId(0)),
            VEvent::Store(0, 6),
            VEvent::Iter(LoopId(0)),
            VEvent::Exit(LoopId(0)),
        ];
        let mut plans = HashMap::new();
        plans.insert(
            LoopId(0),
            ValuePlan {
                statics: vec![(0, Evolution::Affine { stride: 4 })],
            },
        );
        let (checks, violations) = check_static_slices(&taps, &plans);
        assert_eq!(checks, 2);
        assert_eq!(violations.len(), 2, "every boundary disagrees");
        assert_eq!(violations[0].predicted, 4);
        assert_eq!(violations[0].observed, 3);

        // and the honest claim passes the same stream
        plans.insert(
            LoopId(0),
            ValuePlan {
                statics: vec![(0, Evolution::Affine { stride: 3 })],
            },
        );
        let (checks, violations) = check_static_slices(&taps, &plans);
        assert_eq!(checks, 2);
        assert!(violations.is_empty());
    }

    #[test]
    fn optimistic_miss_shows_up_in_recall_not_soundness() {
        // a[b[i]] += 1 with b[i] all equal: dynamically serial, but no
        // static proof — recall drops below 1, soundness holds
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, false, |f| {
            let (a, idx, i) = (f.local(), f.local(), f.local());
            f.ci(8).newarray(ElemKind::Int).st(a);
            f.ci(16).newarray(ElemKind::Int).st(idx);
            f.for_in(i, 0.into(), 16.into(), |f| {
                // a[idx[i]] = a[idx[i]] + 1, idx[i] == 0 always
                f.ld(a).ld(idx).ld(i).aload();
                f.ld(a).ld(idx).ld(i).aload().aload();
                f.ci(1).iadd();
                f.astore();
            });
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        let r = agreement_report(&p).unwrap();
        assert!(r.sound(), "violations: {:?}", r.violations);
        assert_eq!(r.predicted_serial, 0, "no static proof exists");
        assert_eq!(r.actual_serial, 1, "but the trace shows the RAW");
        assert_eq!(r.recall(), Some(0.0));
        assert_eq!(r.precision(), None);
    }
}
