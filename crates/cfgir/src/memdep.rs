//! Static memory-dependence pre-screen for candidate STLs.
//!
//! The TEST approach (paper §3) is optimistic: the compiler proposes
//! every natural loop and lets the hardware tracer measure actual
//! memory dependences. That wastes tracer time on loops whose serial
//! nature is *statically obvious* — a running sum through a static, a
//! linked accumulator field, or an array recurrence like
//! `a[i] = a[i-1] + ...`. This module proves a small class of
//! **guaranteed cross-iteration RAW dependences** over the symbolic
//! form `base + inductor*scale + offset` of each address; loops with a
//! proven dependence are demoted before annotation so the tracing
//! pipeline never spends a profiling run on them.
//!
//! The screen only ever *demotes* with proof in hand; anything it
//! cannot model (calls, aliased bases, non-affine indices) stays a
//! candidate, preserving the paper's optimism.
//!
//! The access-site walk and the alias rules live in [`crate::access`];
//! when points-to facts ([`crate::pointsto`]) are supplied, the masking
//! rule sharpens monotonically — every newly-disjoint store pair only
//! *removes* mask edges, so strictly more loads stay provable and
//! strictly more access pairs are classified independent, never fewer.
//! [`crate::ProgramCandidates::claims`] classifies each candidate's
//! access pairs once, at full sharpness; the weaker tiers the reports
//! count are read off each [`AccessPair`]'s provenance flags, and the
//! agreement report checks the verdicts against dynamic traces.

use crate::access::{
    collect_accesses, every_iteration, inductor_steps, invariant_locals, load_precedes_store,
    same_iteration_blocker, strongly_disjoint, Access, AccessSite, Sym,
};
use crate::cfg::Cfg;
use crate::dom::Dominators;
use crate::loops::NaturalLoop;
use crate::pointsto::FnView;
use crate::scev::LoopEvolutions;
use tvm::isa::{GlobalId, Local};
use tvm::program::{Function, Program};

/// What the dependent accesses go through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DepKind {
    /// Load and store of the same static variable every iteration.
    Static(GlobalId),
    /// Load and store of the same field of a loop-invariant object.
    Field {
        /// Local holding the object reference.
        base: Local,
        /// Field slot index.
        field: u16,
    },
    /// `a[i*s + o1]` read after `a[i*s + o2]` written `distance`
    /// iterations earlier.
    Array {
        /// Local holding the array reference.
        base: Local,
    },
}

/// A proven cross-iteration read-after-write dependence: every
/// iteration's load observes a value stored by an earlier iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuaranteedDep {
    /// The memory channel the dependence flows through.
    pub kind: DepKind,
    /// Instruction index of the dependent load.
    pub load_at: u32,
    /// Instruction index of the store feeding it.
    pub store_at: u32,
    /// Dependence distance in iterations (1 = loop-carried from the
    /// immediately preceding iteration).
    pub distance: u32,
}

impl GuaranteedDep {
    /// Human-readable reason used in diagnostics and lint output.
    pub fn reason(&self) -> String {
        match &self.kind {
            DepKind::Static(g) => format!(
                "static g{} is read then rewritten every iteration (distance {})",
                g.0, self.distance
            ),
            DepKind::Field { base, field } => format!(
                "field #{} of the object in local {} is read then rewritten \
                 every iteration (distance {})",
                field, base.0, self.distance
            ),
            DepKind::Array { base } => format!(
                "array in local {} has a guaranteed recurrence at distance {}",
                base.0, self.distance
            ),
        }
    }
}

/// True when some store in the loop may write `load`'s address earlier
/// in the *same* iteration. Such a store satisfies the load with
/// same-iteration data, so "the load observes an earlier iteration's
/// value" is no longer guaranteed and no dependence may be claimed
/// through it.
///
/// A store is harmless only if it provably runs after the load, or if
/// it provably writes a different address within the iteration
/// ([`same_iteration_disjoint`]). A call whose callee may transitively
/// store to memory the load can observe is an opaque store and masks
/// the same way (found by differential fuzzing: the body
/// `g = -3; g = g;` pairs the second statement's load/store as a
/// recurrence, but the load can only ever observe the same iteration's
/// `-3`).
fn load_may_be_masked(
    dom: &Dominators,
    sites: &[AccessSite],
    load: &AccessSite,
    pt: Option<&FnView<'_>>,
) -> bool {
    sites.iter().any(|s2| {
        s2.access.is_store()
            && !load_precedes_store(dom, load, s2)
            && same_iteration_blocker(load, s2, pt).is_some()
    })
}

/// Scans one loop for guaranteed cross-iteration RAW dependences.
///
/// Three shapes are proven (anything else is left alone):
///
/// 1. **static recurrence** — `GetStatic g` before `PutStatic g`, both
///    on every iteration: iteration *n* reads what *n−1* wrote;
/// 2. **field recurrence** — the same through a field of an object
///    whose reference sits in a loop-invariant local;
/// 3. **array recurrence** — `a[i*s + o_l]` read and `a[i*s + o_s]`
///    written every iteration with the same invariant base and the
///    same inductor: with step `c` per iteration, the store of
///    iteration *n* is re-read `(o_s − o_l) / (s·c)` iterations later;
///    a positive integral distance proves the RAW. Ordering within the
///    iteration is irrelevant because the two addresses differ
///    whenever the distance is nonzero.
///
/// In every shape, no *other* store may be able to write the load's
/// address earlier in the same iteration (`load_may_be_masked`).
/// Passing points-to facts (`pt`) makes masking strictly less
/// conservative — stores through provably-disjoint bases and calls to
/// callees that cannot reach the load's memory stop masking — so the
/// screen can only gain proofs, never lose them. `effects` is the
/// program's transitive store-effect summary
/// ([`crate::access::transitive_store_effects`]), which decides the
/// calls that may store.
pub fn analyze_loop(
    program: &Program,
    f: &Function,
    cfg: &Cfg,
    dom: &Dominators,
    lp: &NaturalLoop,
    pt: Option<&FnView<'_>>,
    effects: &[[bool; 3]],
) -> Vec<GuaranteedDep> {
    let inductors = inductor_steps(f, cfg, dom, lp);
    let invariant = invariant_locals(f, cfg, lp);
    let sites = collect_accesses(program, f, cfg, lp, &inductors, &invariant, effects);
    let step_of = |l: Local| {
        inductors
            .iter()
            .find(|&&(i, _)| i == l)
            .map(|&(_, c)| c)
            .unwrap_or(0)
    };

    let mut deps = Vec::new();
    for load in &sites {
        if !every_iteration(dom, lp, load) {
            continue;
        }
        if load_may_be_masked(dom, &sites, load, pt) {
            continue;
        }
        for store in &sites {
            if !every_iteration(dom, lp, store) {
                continue;
            }
            let dep = match (&load.access, &store.access) {
                (Access::StaticLoad(gl), Access::StaticStore(gs)) if gl == gs => {
                    load_precedes_store(dom, load, store).then_some(GuaranteedDep {
                        kind: DepKind::Static(*gl),
                        load_at: load.instr,
                        store_at: store.instr,
                        distance: 1,
                    })
                }
                (
                    Access::FieldLoad {
                        base: Sym::Invariant(bl),
                        field: fl,
                    },
                    Access::FieldStore {
                        base: Sym::Invariant(bs),
                        field: fs,
                    },
                ) if bl == bs && fl == fs => {
                    load_precedes_store(dom, load, store).then_some(GuaranteedDep {
                        kind: DepKind::Field {
                            base: *bl,
                            field: *fl,
                        },
                        load_at: load.instr,
                        store_at: store.instr,
                        distance: 1,
                    })
                }
                (
                    Access::ArrayLoad {
                        base: Sym::Invariant(bl),
                        index:
                            Sym::Affine {
                                ind: il,
                                scale: sl,
                                offset: ol,
                            },
                    },
                    Access::ArrayStore {
                        base: Sym::Invariant(bs),
                        index:
                            Sym::Affine {
                                ind: is_,
                                scale: ss,
                                offset: os,
                            },
                    },
                ) if bl == bs && il == is_ && sl == ss => {
                    let per_iter = sl.checked_mul(step_of(*il)).unwrap_or(0);
                    if per_iter != 0 && (os - ol) % per_iter == 0 {
                        let d = (os - ol) / per_iter;
                        (d >= 1).then_some(GuaranteedDep {
                            kind: DepKind::Array { base: *bl },
                            load_at: load.instr,
                            store_at: store.instr,
                            distance: d as u32,
                        })
                    } else {
                        None
                    }
                }
                _ => None,
            };
            if let Some(d) = dep {
                deps.push(d);
            }
        }
    }
    // one proof per channel is enough; keep the first per (kind)
    deps.dedup_by(|a, b| a.kind == b.kind);
    deps
}

/// Verdict on one (load, store) access pair of a loop body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairVerdict {
    /// The two accesses can never touch the same address — the
    /// agreement report's soundness invariant requires their dynamic
    /// address sets to be disjoint.
    Disjoint,
    /// Nothing proven either way; the tracer judges.
    MayAlias,
    /// Scalar evolution proved that any address both sites touch is
    /// touched at iteration distance exactly `d >= 1` (never within
    /// the same iteration) — the dependence distance of the pair. A
    /// sharpening of `MayAlias`: a distance-`d` chain still admits
    /// `d`-way speculative overlap.
    DistanceAtLeast(u32),
    /// A guaranteed cross-iteration RAW flows from the store to the
    /// load.
    GuaranteedRaw,
}

/// One classified (load, store) pair.
#[derive(Debug, Clone)]
pub struct AccessPair {
    /// Instruction index of the load (original, unannotated code).
    pub load_at: u32,
    /// Instruction index of the store — for an opaque pair, of the
    /// call.
    pub store_at: u32,
    /// True when the store side is a call with a may-store summary
    /// rather than a concrete store instruction (its dynamic events
    /// happen at callee pcs, so address-set checks skip it).
    pub opaque_store: bool,
    /// The verdict.
    pub verdict: PairVerdict,
    /// True when the pair is disjoint *only* thanks to points-to facts
    /// (the PR 1 structural rules alone would say may-alias).
    pub via_pointsto: bool,
    /// True when the verdict was sharpened by scalar evolution
    /// (`Disjoint` by a non-integral distance, or `DistanceAtLeast`).
    pub via_scev: bool,
    /// The *signed* dependence distance behind a `DistanceAtLeast`
    /// verdict: `q > 0` means the load reads what the store wrote `q`
    /// iterations earlier (a cross-iteration RAW chain — selection may
    /// floor speedup at `q`-way overlap), `q < 0` an anti-dependence
    /// (the store lands `|q|` iterations *after* the load, which TLS
    /// versioning absorbs — no floor). `None` for every other verdict.
    pub scev_distance: Option<i64>,
}

impl AccessPair {
    /// Disjoint before scalar evolution: the points-to pre-screen's
    /// verdict on this pair.
    pub fn prescreen_disjoint(&self) -> bool {
        self.verdict == PairVerdict::Disjoint && !self.via_scev
    }

    /// Disjoint by the structural alias rules alone, with neither
    /// points-to nor scalar evolution.
    pub fn structurally_disjoint(&self) -> bool {
        self.prescreen_disjoint() && !self.via_pointsto
    }
}

/// The dependence distance scalar evolution proves for two affine
/// array accesses, when they target the same (invariant) base array
/// and walk it with the same per-iteration step.
///
/// With load index `s*i + o1`, store index `s*i + o2` and inductor
/// step `k`, the element touched by the load in iteration `a` equals
/// the element touched by the store in iteration `b` iff
/// `s*k*(a - b) == o2 - o1`. The returned verdict is `Disjoint` when
/// that equation has no integer solution, `DistanceAtLeast(|q|)` when
/// the unique solution is `a - b == q != 0`, and `None` when the sites
/// can collide within one iteration (`q == 0`) or the shapes don't
/// match.
fn evo_distance(
    load: &Access,
    store: &Access,
    evo: &LoopEvolutions,
) -> Option<(PairVerdict, Option<i64>)> {
    let (lb, li, sb, si) = match (load, store) {
        (
            Access::ArrayLoad {
                base: lb,
                index: li,
            },
            Access::ArrayStore {
                base: sb,
                index: si,
            },
        ) => (lb, li, sb, si),
        _ => return None,
    };
    // Same array object: both bases are the same loop-invariant local.
    let same_base = matches!((lb, sb), (Sym::Invariant(a), Sym::Invariant(b)) if a == b);
    if !same_base {
        return None;
    }
    let (ind, scale, o1, o2) = match (li, si) {
        (
            Sym::Affine {
                ind: i1,
                scale: s1,
                offset: o1,
            },
            Sym::Affine {
                ind: i2,
                scale: s2,
                offset: o2,
            },
        ) if i1 == i2 && s1 == s2 => (*i1, *s1, *o1, *o2),
        _ => return None,
    };
    let step = evo.local_stride(ind)?;
    let per_iter = i128::from(scale).checked_mul(i128::from(step))?;
    if per_iter == 0 {
        return None;
    }
    let delta = i128::from(o2) - i128::from(o1);
    if delta % per_iter != 0 {
        return Some((PairVerdict::Disjoint, None));
    }
    let q = delta / per_iter;
    if q == 0 {
        return None;
    }
    let verdict = PairVerdict::DistanceAtLeast(u32::try_from(q.unsigned_abs()).unwrap_or(u32::MAX));
    Some((verdict, Some(i64::try_from(q).unwrap_or(i64::MAX))))
}

/// Classifies every (load, store) access pair of one loop body, at
/// full sharpness: `deps` are the loop's proven dependences
/// ([`analyze_loop`] with the same points-to view), whose pairs are
/// `GuaranteedRaw`; the structural rules sharpened by points-to (`pt`)
/// decide `Disjoint`; scalar evolution (`evo`) refines what is left
/// into distance vectors. Each step only refines `MayAlias`, so the
/// verdicts a weaker tier would give are read off the provenance
/// flags ([`AccessPair::prescreen_disjoint`],
/// [`AccessPair::structurally_disjoint`]).
pub(crate) fn classify_pairs(
    sites: &[AccessSite],
    deps: &[GuaranteedDep],
    pt: &FnView<'_>,
    evo: &LoopEvolutions,
) -> Vec<AccessPair> {
    let mut pairs = Vec::new();
    for load in sites.iter().filter(|s| s.access.is_load()) {
        for store in sites.iter().filter(|s| s.access.is_store()) {
            let guaranteed = deps
                .iter()
                .any(|d| d.load_at == load.instr && d.store_at == store.instr);
            let mut via_scev = false;
            let mut scev_distance = None;
            let verdict = if guaranteed {
                PairVerdict::GuaranteedRaw
            } else if strongly_disjoint(&load.access, &store.access, Some(pt)) {
                PairVerdict::Disjoint
            } else if let Some((sharp, q)) = evo_distance(&load.access, &store.access, evo) {
                via_scev = true;
                scev_distance = q;
                sharp
            } else {
                PairVerdict::MayAlias
            };
            let via_pointsto = verdict == PairVerdict::Disjoint
                && !via_scev
                && !strongly_disjoint(&load.access, &store.access, None);
            pairs.push(AccessPair {
                load_at: load.instr,
                store_at: store.instr,
                opaque_store: matches!(store.access, Access::Opaque { .. }),
                verdict,
                via_pointsto,
                via_scev,
                scev_distance,
            });
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::transitive_store_effects;
    use crate::candidates::{extract_candidates, LoopClaims};
    use crate::loops::LoopForest;
    use crate::pointsto::PointsTo;
    use tvm::ElemKind;
    use tvm::ProgramBuilder;

    /// The entry function of `p` with its CFG, dominators and sole
    /// loop.
    fn sole_loop(p: &Program) -> (&Function, Cfg, Dominators, NaturalLoop) {
        let f = &p.functions[p.entry.0 as usize];
        let cfg = Cfg::build(f);
        let dom = Dominators::compute(&cfg);
        let forest = LoopForest::build(&cfg, &dom);
        assert_eq!(forest.len(), 1, "test programs must have one loop");
        let lp = forest.loops[0].clone();
        (f, cfg, dom, lp)
    }

    /// The dependences the pre-screen proves on `p`'s sole loop, with
    /// or without points-to facts.
    fn deps(p: &Program, with_pt: bool) -> Vec<GuaranteedDep> {
        let (f, cfg, dom, lp) = sole_loop(p);
        let pt = PointsTo::analyze(p);
        let view = pt.view(p.entry);
        let effects = transitive_store_effects(p);
        analyze_loop(p, f, &cfg, &dom, &lp, with_pt.then_some(&view), &effects)
    }

    /// Reference classifier for the two tiers below scalar evolution,
    /// solved from scratch: the structural rules alone
    /// (`with_pt == false`) or sharpened by points-to. Its
    /// `GuaranteedRaw` pairs come from a fresh [`analyze_loop`] at the
    /// same tier.
    fn reference_tier(p: &Program, with_pt: bool) -> Vec<AccessPair> {
        let (f, cfg, dom, lp) = sole_loop(p);
        let effects = transitive_store_effects(p);
        let inductors = inductor_steps(f, &cfg, &dom, &lp);
        let invariant = invariant_locals(f, &cfg, &lp);
        let sites = collect_accesses(p, f, &cfg, &lp, &inductors, &invariant, &effects);
        let deps = deps(p, with_pt);
        let solved = PointsTo::analyze(p);
        let view = solved.view(p.entry);
        let pt = with_pt.then_some(&view);
        let mut pairs = Vec::new();
        for load in sites.iter().filter(|s| s.access.is_load()) {
            for store in sites.iter().filter(|s| s.access.is_store()) {
                let (l, s) = (&load.access, &store.access);
                let verdict = if deps
                    .iter()
                    .any(|d| d.load_at == load.instr && d.store_at == store.instr)
                {
                    PairVerdict::GuaranteedRaw
                } else if strongly_disjoint(l, s, pt) {
                    PairVerdict::Disjoint
                } else {
                    PairVerdict::MayAlias
                };
                pairs.push(AccessPair {
                    load_at: load.instr,
                    store_at: store.instr,
                    opaque_store: matches!(s, Access::Opaque { .. }),
                    verdict,
                    via_pointsto: verdict == PairVerdict::Disjoint
                        && !strongly_disjoint(l, s, None),
                    via_scev: false,
                    scev_distance: None,
                });
            }
        }
        pairs
    }

    /// The one classification extraction's facts give the sole
    /// candidate loop of `p`.
    fn claims(p: &Program) -> LoopClaims {
        let pc = extract_candidates(p);
        assert_eq!(pc.candidates.len(), 1, "one candidate loop");
        pc.claims(p, &pc.candidates[0])
    }

    fn count_disjoint(pairs: &[AccessPair]) -> usize {
        pairs
            .iter()
            .filter(|p| p.verdict == PairVerdict::Disjoint)
            .count()
    }

    /// The weaker tiers read off the provenance flags count exactly
    /// the pairs the reference tiers prove disjoint.
    fn assert_tiers_agree(p: &Program, claims: &LoopClaims) {
        let count = |tier: fn(&AccessPair) -> bool| claims.pairs.iter().filter(|p| tier(p)).count();
        assert_eq!(
            count(AccessPair::structurally_disjoint),
            count_disjoint(&reference_tier(p, false)),
            "structural tier"
        );
        assert_eq!(
            count(AccessPair::prescreen_disjoint),
            count_disjoint(&reference_tier(p, true)),
            "points-to tier"
        );
    }

    #[test]
    fn static_recurrence_is_proven() {
        // g = g * 5 + 1 every iteration
        let mut b = ProgramBuilder::new();
        let g = b.global(ElemKind::Int);
        let main = b.function("main", 0, false, |f| {
            let i = f.local();
            f.for_in(i, 0.into(), 10.into(), |f| {
                f.getstatic(g).ci(5).imul().ci(1).iadd().putstatic(g);
            });
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        let deps = deps(&p, false);
        assert_eq!(deps.len(), 1);
        assert!(matches!(deps[0].kind, DepKind::Static(_)));
        assert_eq!(deps[0].distance, 1);
    }

    #[test]
    fn array_recurrence_is_proven() {
        // a[i] = a[i-1] + 1
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, false, |f| {
            let a = f.local();
            let i = f.local();
            f.ci(64).newarray(ElemKind::Int).st(a);
            f.for_in(i, 1.into(), 64.into(), |f| {
                f.ld(a).ld(i); // store address a[i]
                f.ld(a).ld(i).ci(1).isub().aload(); // a[i-1]
                f.ci(1).iadd();
                f.astore();
            });
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        let deps = deps(&p, false);
        assert_eq!(deps.len(), 1, "got {deps:?}");
        assert!(matches!(deps[0].kind, DepKind::Array { .. }));
        assert_eq!(deps[0].distance, 1);
    }

    #[test]
    fn independent_array_loop_is_clean() {
        // a[i] = i * 2: no cross-iteration flow
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, false, |f| {
            let a = f.local();
            let i = f.local();
            f.ci(64).newarray(ElemKind::Int).st(a);
            f.for_in(i, 0.into(), 64.into(), |f| {
                f.ld(a).ld(i).ld(i).ci(2).imul().astore();
            });
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        assert!(deps(&p, false).is_empty());
    }

    #[test]
    fn forward_distance_is_not_a_raw() {
        // a[i] = a[i+1]: reads values the loop has not yet written
        // (an anti-dependence, which speculation handles fine)
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, false, |f| {
            let a = f.local();
            let i = f.local();
            f.ci(64).newarray(ElemKind::Int).st(a);
            f.for_in(i, 0.into(), 63.into(), |f| {
                f.ld(a).ld(i);
                f.ld(a).ld(i).ci(1).iadd().aload();
                f.astore();
            });
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        assert!(deps(&p, false).is_empty());
    }

    #[test]
    fn guarded_store_is_not_guaranteed() {
        // the putstatic only happens on some iterations: no proof
        let mut b = ProgramBuilder::new();
        let g = b.global(ElemKind::Int);
        let main = b.function("main", 0, false, |f| {
            let i = f.local();
            f.for_in(i, 0.into(), 10.into(), |f| {
                f.if_icmp(
                    tvm::isa::Cond::Gt,
                    |f| {
                        f.ld(i).ci(5);
                    },
                    |f| {
                        f.getstatic(g).ci(1).iadd().putstatic(g);
                    },
                );
            });
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        assert!(deps(&p, false).is_empty());
    }

    #[test]
    fn masked_static_recurrence_is_not_claimed() {
        // g = -3; g = g;  — the read of g is always satisfied by the
        // same iteration's unconditional store of -3, so no
        // cross-iteration dependence may be claimed (fuzzgen seed 398)
        let mut b = ProgramBuilder::new();
        let g = b.global(ElemKind::Int);
        let main = b.function("main", 0, false, |f| {
            let i = f.local();
            f.for_in(i, 0.into(), 10.into(), |f| {
                f.ci(-3).putstatic(g);
                f.getstatic(g).putstatic(g);
            });
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        assert!(deps(&p, false).is_empty(), "got {:?}", deps(&p, false));
    }

    #[test]
    fn masked_array_recurrence_is_not_claimed() {
        // a[i-1] = 7; x = a[i-1]; a[i] = x — the load's address was
        // just written this iteration, so the (load, a[i]) pair proves
        // nothing
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, false, |f| {
            let a = f.local();
            let i = f.local();
            f.ci(64).newarray(ElemKind::Int).st(a);
            f.for_in(i, 1.into(), 64.into(), |f| {
                f.ld(a).ld(i).ci(1).isub().ci(7).astore();
                f.ld(a).ld(i);
                f.ld(a).ld(i).ci(1).isub().aload();
                f.astore();
            });
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        assert!(deps(&p, false).is_empty(), "got {:?}", deps(&p, false));
    }

    #[test]
    fn callee_store_masks_through_the_call() {
        // helper writes g; main's loop calls helper then runs g = g:
        // the load is satisfied by the callee's same-iteration store,
        // so no recurrence may be claimed (fuzzgen seed 1546)
        let mut b = ProgramBuilder::new();
        let g = b.global(ElemKind::Int);
        let helper = b.declare("helper", 1, true);
        b.define(helper, |f| {
            let x = f.param(0);
            f.ld(x).putstatic(g);
            f.ld(x).ret();
        });
        let main = b.function("main", 0, false, |f| {
            let i = f.local();
            f.for_in(i, 0.into(), 10.into(), |f| {
                f.ld(i).call(helper).drop_top();
                f.getstatic(g).putstatic(g);
            });
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        let deps = deps(&p, false);
        assert!(deps.is_empty(), "got {deps:?}");
    }

    #[test]
    fn pure_callee_does_not_mask() {
        // the callee only computes; the static recurrence proof stands
        let mut b = ProgramBuilder::new();
        let g = b.global(ElemKind::Int);
        let helper = b.declare("helper", 1, true);
        b.define(helper, |f| {
            let x = f.param(0);
            f.ld(x).ci(3).imul().ret();
        });
        let main = b.function("main", 0, false, |f| {
            let i = f.local();
            f.for_in(i, 0.into(), 10.into(), |f| {
                f.ld(i).call(helper).drop_top();
                f.getstatic(g).ci(1).iadd().putstatic(g);
            });
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        let deps = deps(&p, false);
        assert_eq!(deps.len(), 1, "got {deps:?}");
        assert!(matches!(deps[0].kind, DepKind::Static(_)));
    }

    #[test]
    fn store_after_the_load_does_not_mask() {
        // x = a[i-1]; a[i] = x; a[i-1] = 7 — the extra store runs
        // after the load, so the recurrence proof stands
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, false, |f| {
            let a = f.local();
            let i = f.local();
            f.ci(64).newarray(ElemKind::Int).st(a);
            f.for_in(i, 1.into(), 64.into(), |f| {
                f.ld(a).ld(i);
                f.ld(a).ld(i).ci(1).isub().aload();
                f.astore();
                f.ld(a).ld(i).ci(1).isub().ci(7).astore();
            });
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        let deps = deps(&p, false);
        assert_eq!(deps.len(), 1, "got {deps:?}");
        assert!(matches!(deps[0].kind, DepKind::Array { .. }));
    }

    #[test]
    fn field_recurrence_is_proven() {
        let mut b = ProgramBuilder::new();
        let cls = b.class(&[ElemKind::Int]);
        let main = b.function("main", 0, false, |f| {
            let o = f.local();
            let i = f.local();
            f.newobject(cls).st(o);
            f.for_in(i, 0.into(), 10.into(), |f| {
                f.ld(o).dup().getfield(0).ci(1).iadd().putfield(0);
            });
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        let deps = deps(&p, false);
        assert_eq!(deps.len(), 1, "got {deps:?}");
        assert!(matches!(deps[0].kind, DepKind::Field { .. }));
    }

    /// Two distinct arrays: a recurrence through one, independent
    /// stores through the other. Structurally the second array's store
    /// masks the first array's load (any two array bases may alias);
    /// points-to separates the allocation sites and recovers the
    /// proof.
    fn two_array_program() -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, false, |f| {
            let (a, c, i) = (f.local(), f.local(), f.local());
            f.ci(64).newarray(ElemKind::Int).st(a);
            f.ci(64).newarray(ElemKind::Int).st(c);
            f.for_in(i, 1.into(), 64.into(), |f| {
                // c[i] = i (independent, but masks a[...] loads
                // without points-to: the walk sees an unrelated
                // ArrayStore whose base might alias `a`)
                f.ld(c).ld(i).ld(i).astore();
                // a[i] = a[i-1] + 1 (the recurrence)
                f.ld(a).ld(i);
                f.ld(a).ld(i).ci(1).isub().aload();
                f.ci(1).iadd();
                f.astore();
            });
            f.ret_void();
        });
        b.finish(main).unwrap()
    }

    #[test]
    fn pointsto_unmasks_the_distinct_array_store() {
        let p = two_array_program();
        assert!(
            deps(&p, false).is_empty(),
            "without points-to the foreign store masks the recurrence"
        );
        let deps = deps(&p, true);
        assert_eq!(deps.len(), 1, "got {deps:?}");
        assert!(matches!(deps[0].kind, DepKind::Array { .. }));
    }

    #[test]
    fn pointsto_strictly_sharpens_pair_classification() {
        let p = two_array_program();
        let base = reference_tier(&p, false);
        let sharp = reference_tier(&p, true);
        assert_eq!(base.len(), sharp.len(), "same pair universe");
        let (db, ds) = (count_disjoint(&base), count_disjoint(&sharp));
        assert!(ds > db, "sharpened {ds} must exceed baseline {db}");
        assert!(sharp.iter().any(|p| p.via_pointsto));
        // monotone: nothing disjoint in the baseline may regress
        for (b, s) in base.iter().zip(&sharp) {
            if b.verdict == PairVerdict::Disjoint {
                assert_eq!(s.verdict, PairVerdict::Disjoint);
            }
        }
        let claims = claims(&p);
        assert_eq!(claims.pairs.len(), sharp.len(), "same pair universe");
        assert_tiers_agree(&p, &claims);
    }

    #[test]
    fn pointsto_shrinks_opaque_call_summaries() {
        // helper stores only into its own private array; main's array
        // recurrence must survive the call with points-to facts.
        let mut b = ProgramBuilder::new();
        let helper = b.declare("helper", 1, true);
        b.define(helper, |f| {
            let x = f.param(0);
            let t = f.local();
            f.ci(4).newarray(ElemKind::Int).st(t);
            f.ld(t).ci(0).ld(x).astore();
            f.ld(t).ci(0).aload().ret();
        });
        let main = b.function("main", 0, false, |f| {
            let (a, i) = (f.local(), f.local());
            f.ci(64).newarray(ElemKind::Int).st(a);
            f.for_in(i, 1.into(), 64.into(), |f| {
                f.ld(i).call(helper).drop_top();
                // a[i] = a[i-1] + 1
                f.ld(a).ld(i);
                f.ld(a).ld(i).ci(1).isub().aload();
                f.ci(1).iadd();
                f.astore();
            });
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        assert!(deps(&p, false).is_empty(), "opaque call masks structurally");
        let with = deps(&p, true);
        assert_eq!(with.len(), 1, "got {with:?}");
        assert!(matches!(with[0].kind, DepKind::Array { .. }));
    }

    /// `a[i] = a[i+1]` — points-to leaves the pair may-alias, but the
    /// distance vector pins the collision at exactly one iteration
    /// apart.
    fn stencil_program(load_off: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, false, |f| {
            let a = f.local();
            let i = f.local();
            f.ci(64).newarray(ElemKind::Int).st(a);
            f.for_in(i, 0.into(), 62.into(), |f| {
                f.ld(a).ld(i);
                f.ld(a).ld(i).ci(load_off).iadd().aload();
                f.astore();
            });
            f.ret_void();
        });
        b.finish(main).unwrap()
    }

    #[test]
    fn scev_distance_vector_sharpens_stencil() {
        let p = stencil_program(1);
        let base = reference_tier(&p, true);
        let claims = claims(&p);
        assert_tiers_agree(&p, &claims);
        let sharp = claims.pairs;
        assert_eq!(base.len(), sharp.len(), "same pair universe");
        let stencil_base = base
            .iter()
            .find(|pr| pr.verdict == PairVerdict::MayAlias)
            .expect("prescreen leaves the a[i+1]/a[i] pair unknown");
        let stencil_sharp = sharp
            .iter()
            .find(|pr| pr.load_at == stencil_base.load_at && pr.store_at == stencil_base.store_at)
            .unwrap();
        assert_eq!(stencil_sharp.verdict, PairVerdict::DistanceAtLeast(1));
        assert!(stencil_sharp.via_scev);
    }

    #[test]
    fn scev_sharpening_is_monotone() {
        let p = stencil_program(1);
        let base = reference_tier(&p, true);
        let claims = claims(&p);
        assert_tiers_agree(&p, &claims);
        let sharp = claims.pairs;
        assert_eq!(base.len(), sharp.len(), "same pair universe");
        for (b, s) in base.iter().zip(&sharp) {
            match b.verdict {
                // proofs may only be added, never lost
                PairVerdict::Disjoint => assert_eq!(s.verdict, PairVerdict::Disjoint),
                PairVerdict::GuaranteedRaw => assert_eq!(s.verdict, PairVerdict::GuaranteedRaw),
                PairVerdict::MayAlias => assert!(
                    matches!(
                        s.verdict,
                        PairVerdict::MayAlias
                            | PairVerdict::Disjoint
                            | PairVerdict::DistanceAtLeast(_)
                    ),
                    "may-alias can only be refined, got {:?}",
                    s.verdict
                ),
                PairVerdict::DistanceAtLeast(_) => unreachable!("baseline never emits distances"),
            }
        }
    }

    #[test]
    fn scev_non_integral_offset_is_disjoint() {
        // a[2i] = a[2i+1] + ...: odd vs even elements never meet.
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, false, |f| {
            let a = f.local();
            let i = f.local();
            f.ci(64).newarray(ElemKind::Int).st(a);
            f.for_in(i, 0.into(), 31.into(), |f| {
                f.ld(a).ld(i).ci(2).imul();
                f.ld(a).ld(i).ci(2).imul().ci(1).iadd().aload();
                f.astore();
            });
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        let base = reference_tier(&p, true);
        let claims = claims(&p);
        assert_tiers_agree(&p, &claims);
        let sharp = claims.pairs;
        let was_unknown = base
            .iter()
            .find(|pr| pr.verdict == PairVerdict::MayAlias)
            .expect("prescreen cannot separate odd/even strides");
        let now = sharp
            .iter()
            .find(|pr| pr.load_at == was_unknown.load_at && pr.store_at == was_unknown.store_at)
            .unwrap();
        assert_eq!(now.verdict, PairVerdict::Disjoint);
        assert!(now.via_scev && !now.via_pointsto);
    }

    #[test]
    fn scev_same_iteration_collision_stays_may_alias() {
        // load a[i] / store a[i]... via distinct shapes the prescreen
        // cannot prove: offset delta 0 must NOT claim a distance.
        let p = stencil_program(0);
        let sharp = claims(&p).pairs;
        assert!(
            sharp
                .iter()
                .all(|pr| !matches!(pr.verdict, PairVerdict::DistanceAtLeast(_))),
            "q == 0 admits a same-iteration collision: {sharp:?}"
        );
    }
}
