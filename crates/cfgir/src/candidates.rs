//! Program-level candidate STL extraction (paper §4.1).
//!
//! Extraction is the one place the static facts of a program are
//! solved: per function the CFG, dominators, natural loops, reaching
//! definitions and liveness gen/kill sets ([`FunctionAnalysis`]), and
//! once per program the points-to solve
//! ([`ProgramCandidates::pointsto`]) and the transitive store-effect
//! summary ([`ProgramCandidates::store_effects`]). Every later static
//! consumer reads them from the extraction instead of solving again:
//! the per-loop classification ([`ProgramCandidates::claims`]) and the
//! distance floors built on it ([`distance_floors`]), loop rescue
//! ([`crate::rescue_extracted`], which also hands back the extraction
//! of any program it rewrites) and the annotator in `jrpm`.
//!
//! The memory-dependence pre-screen has one mode: extraction screens
//! every candidate and records its [`StaticVerdict`]; a demoted
//! verdict carries the dependences it proved, which rescue reads
//! instead of solving them again. The online tier in `jrpm` keeps
//! these verdicts and reveals each one when its loop turns hot;
//! screening a loop again on promotion would solve the same
//! dependences twice. The two independent checkers are the exception:
//! the rescue legality checker ([`crate::rescue::verify`]) and the
//! slice verifier ([`crate::slice::verify`]) re-derive every fact
//! themselves, because their independence is the point of them.

use crate::access::{
    collect_accesses, inductor_steps, invariant_locals, transitive_store_effects, AccessSite,
};
use crate::cfg::Cfg;
use crate::dataflow::{LocalGenKill, ReachingDefs};
use crate::dom::Dominators;
use crate::loops::LoopForest;
use crate::memdep::{analyze_loop, classify_pairs, AccessPair, GuaranteedDep};
use crate::pointsto::PointsTo;
use crate::scalar::{classify_with, LocalClasses};
use crate::scev::{self, LoopEvolutions};
use std::collections::{BTreeMap, BTreeSet};
use tvm::isa::LoopId;
use tvm::program::{FuncId, Local, Program};

/// The complete static analysis of one function, solved once by
/// extraction and read by every later static consumer (pre-screen,
/// rescue, distance floors, annotation).
#[derive(Debug, Clone)]
pub struct FunctionAnalysis {
    /// The analyzed function.
    pub func: FuncId,
    /// Its control-flow graph.
    pub cfg: Cfg,
    /// The dominator tree of `cfg`.
    pub dom: Dominators,
    /// Reaching definitions of locals over `cfg`.
    pub reaching: ReachingDefs,
    /// Per-block liveness gen/kill sets over `cfg`.
    pub gen_kill: LocalGenKill,
    /// Its natural loops.
    pub forest: LoopForest,
    /// Scalar classification of each loop in `forest` (same order).
    pub classes: Vec<LocalClasses>,
    /// Method-level numbering of annotatable locals: `lwl`/`swl`
    /// operands index into this list. Shared across all loops of the
    /// method so that nested reservations alias the same hardware
    /// slots.
    pub tracked_order: Vec<Local>,
}

impl FunctionAnalysis {
    /// The `lwl`/`swl` slot index for `v`, if it is tracked in this
    /// method.
    pub fn tracked_slot(&self, v: Local) -> Option<u16> {
        self.tracked_order
            .iter()
            .position(|&w| w == v)
            .map(|i| i as u16)
    }
}

/// Verdict of the static memory-dependence pre-screen on a candidate.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum StaticVerdict {
    /// No guaranteed cross-iteration RAW found: trace it.
    #[default]
    Clean,
    /// A guaranteed cross-iteration RAW was proven: the loop keeps its
    /// id (annotation filters may still select it explicitly) but the
    /// pipeline skips tracing it by default.
    Demoted {
        /// The proven dependences, as [`analyze_loop`] found them (never
        /// empty). Rescue reads them instead of solving again.
        deps: Vec<GuaranteedDep>,
    },
}

impl StaticVerdict {
    /// The proven dependences (empty for a clean loop).
    pub fn deps(&self) -> &[GuaranteedDep] {
        match self {
            StaticVerdict::Clean => &[],
            StaticVerdict::Demoted { deps } => deps,
        }
    }

    /// Why tracing this loop would be wasted effort: its first proven
    /// dependence, in words (empty for a clean loop).
    pub fn reason(&self) -> String {
        self.deps()
            .first()
            .map_or_else(String::new, GuaranteedDep::reason)
    }
}

/// One candidate speculative thread loop.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Dense program-wide id, embedded in annotation instructions.
    pub id: LoopId,
    /// Containing function.
    pub func: FuncId,
    /// Index of the loop in that function's [`LoopForest`].
    pub loop_idx: usize,
    /// Static nesting depth (1 = outermost in its method).
    pub depth: u32,
    /// Static height above the innermost loop (innermost = 1).
    pub height: u32,
    /// Nearest enclosing candidate in the same method, if any.
    pub parent: Option<LoopId>,
    /// Result of the static memory-dependence pre-screen.
    pub static_verdict: StaticVerdict,
}

impl Candidate {
    /// True when the pre-screen proved a guaranteed serial dependence.
    pub fn is_demoted(&self) -> bool {
        matches!(self.static_verdict, StaticVerdict::Demoted { .. })
    }
}

/// A loop that was found but rejected as an STL candidate.
#[derive(Debug, Clone)]
pub struct RejectedLoop {
    /// Containing function.
    pub func: FuncId,
    /// Index in the function's loop forest.
    pub loop_idx: usize,
    /// Why it was rejected.
    pub reason: String,
}

/// The result of candidate extraction over a whole program.
#[derive(Debug, Clone, Default)]
pub struct ProgramCandidates {
    /// Per-function analyses, indexed by function id.
    pub functions: Vec<FunctionAnalysis>,
    /// Qualified candidates. `candidates[i].id == LoopId(i)`.
    pub candidates: Vec<Candidate>,
    /// Loops rejected by the scalar screen.
    pub rejected: Vec<RejectedLoop>,
    /// The whole-program points-to solve that sharpened the
    /// memory-dependence pre-screen; later consumers take their alias
    /// views from it instead of solving again.
    pub pointsto: PointsTo,
    /// Per function, the memory categories `[statics, fields, arrays]`
    /// it may transitively store to
    /// ([`crate::access::transitive_store_effects`]): which calls the
    /// pre-screen, the access sites and scalar evolution treat as
    /// stores.
    pub store_effects: Vec<[bool; 3]>,
}

/// Everything the static analysis claims about one candidate loop,
/// built from the facts extraction already holds
/// ([`ProgramCandidates::claims`]).
#[derive(Debug, Clone)]
pub struct LoopClaims {
    /// The per-iteration evolution of every scalar the body touches.
    pub evolutions: LoopEvolutions,
    /// The body's memory accesses with symbolic operands.
    pub sites: Vec<AccessSite>,
    /// Every (load, store) pair of `sites`, classified once at full
    /// sharpness (points-to plus scalar evolution); the weaker tiers
    /// are the flags [`AccessPair::prescreen_disjoint`] and
    /// [`AccessPair::structurally_disjoint`].
    pub pairs: Vec<AccessPair>,
}

impl ProgramCandidates {
    /// The candidate with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this extraction.
    pub fn candidate(&self, id: LoopId) -> &Candidate {
        &self.candidates[id.0 as usize]
    }

    /// The candidate with the given id, or `None` for a foreign id —
    /// the non-panicking accessor report code uses on ids that arrive
    /// from a request rather than from this extraction.
    pub fn try_candidate(&self, id: LoopId) -> Option<&Candidate> {
        self.candidates.get(id.0 as usize)
    }

    /// Total number of natural loops discovered (Table 6's "Loop
    /// count" column counts static loops, qualified or not).
    pub fn total_loops(&self) -> usize {
        self.functions.iter().map(|f| f.forest.len()).sum()
    }

    /// Maximum static loop-nest depth across the program.
    pub fn max_static_depth(&self) -> u32 {
        self.functions
            .iter()
            .map(|f| f.forest.max_depth())
            .max()
            .unwrap_or(0)
    }

    /// The per-loop `lwl`/`swl` slot mask: bit `i` is set when method
    /// slot `i` belongs to this loop's own tracked set. The runtime
    /// installs these masks into the tracer's comparator banks so a
    /// bank ignores variables that are privatizable inductors or
    /// reductions *of its own loop* even though an enclosing loop
    /// needs them annotated.
    pub fn tracked_mask(&self, id: LoopId) -> u64 {
        self.tracked_vars(id)
            .into_iter()
            .filter(|(slot, _)| *slot < 64)
            .fold(0u64, |m, (slot, _)| m | (1u64 << slot))
    }

    /// All per-loop slot masks (see [`ProgramCandidates::tracked_mask`]).
    pub fn tracked_masks(&self) -> Vec<(LoopId, u64)> {
        self.candidates
            .iter()
            .map(|c| (c.id, self.tracked_mask(c.id)))
            .collect()
    }

    /// Ids of candidates the static pre-screen demoted.
    pub fn demoted_ids(&self) -> BTreeSet<LoopId> {
        self.candidates
            .iter()
            .filter(|c| c.is_demoted())
            .map(|c| c.id)
            .collect()
    }

    /// Number of demoted candidates.
    pub fn demoted_count(&self) -> usize {
        self.candidates.iter().filter(|c| c.is_demoted()).count()
    }

    /// Classifies candidate `c`'s loop: its scalar evolutions, access
    /// sites and access-pair verdicts. `program` must be the program
    /// this extraction was made from. Nothing is solved again: the
    /// pairs a guaranteed dependence links are read from
    /// `c.static_verdict`, the alias view from [`Self::pointsto`] and
    /// the call summaries from [`Self::store_effects`].
    pub fn claims(&self, program: &Program, c: &Candidate) -> LoopClaims {
        let fa = &self.functions[c.func.0 as usize];
        let f = &program.functions[c.func.0 as usize];
        let lp = &fa.forest.loops[c.loop_idx];
        let effects = &self.store_effects;
        let evolutions = scev::analyze_loop(program, f, &fa.cfg, lp, effects);
        let inductors = inductor_steps(f, &fa.cfg, &fa.dom, lp);
        let invariant = invariant_locals(f, &fa.cfg, lp);
        let sites = collect_accesses(program, f, &fa.cfg, lp, &inductors, &invariant, effects);
        let view = self.pointsto.view(c.func);
        let pairs = classify_pairs(&sites, c.static_verdict.deps(), &view, &evolutions);
        LoopClaims {
            evolutions,
            sites,
            pairs,
        }
    }

    /// The tracked locals of candidate `id` (the variables its
    /// annotations cover), in method slot order.
    pub fn tracked_vars(&self, id: LoopId) -> Vec<(u16, Local)> {
        let cand = self.candidate(id);
        let fa = &self.functions[cand.func.0 as usize];
        let tracked = fa.classes[cand.loop_idx].tracked();
        fa.tracked_order
            .iter()
            .enumerate()
            .filter(|(_, v)| tracked.contains(v))
            .map(|(i, &v)| (i as u16, v))
            .collect()
    }
}

/// The dependence-distance floor scalar evolution proves for every
/// non-demoted candidate of the program, read off its
/// [`ProgramCandidates::claims`].
///
/// Every pair whose *signed* distance is positive is a cross-iteration
/// RAW chain: iteration `a` reads what iteration `a - q` wrote, so at
/// most `q` iterations can overlap speculatively. The tightest such
/// chain — the minimum positive `q` over all pairs — bounds the loop's
/// achievable overlap, and selection floors its estimated TLS cycles
/// at `serial / q`. Negative distances (anti-dependences) impose no
/// floor: TLS versioning absorbs a store that lands *after* the load
/// it would disturb. A loop with no positive-distance pair has no
/// entry.
///
/// This is what selection reads (`select_with_distances`), in the
/// offline batch and in the online tier alike, so both paths select
/// over identical floors.
pub fn distance_floors(program: &Program, pc: &ProgramCandidates) -> BTreeMap<LoopId, u32> {
    pc.candidates
        .iter()
        .filter(|c| !c.is_demoted())
        .filter_map(|c| {
            let q = pc
                .claims(program, c)
                .pairs
                .iter()
                .filter_map(|p| p.scev_distance)
                .filter(|&q| q > 0)
                .min()?;
            Some((c.id, u32::try_from(q).unwrap_or(u32::MAX)))
        })
        .collect()
}

/// Extracts candidate STLs from every function of `program`.
///
/// All natural loops are discovered; loops with an obvious serializing
/// scalar dependency are rejected (with a reason), everything else is
/// optimistically kept for the tracer to judge, and each kept loop
/// carries the memory-dependence pre-screen's verdict.
pub fn extract_candidates(program: &Program) -> ProgramCandidates {
    let mut functions = Vec::with_capacity(program.functions.len());
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut rejected = Vec::new();
    let pt = PointsTo::analyze(program);
    let store_effects = transitive_store_effects(program);

    for (fi, f) in program.functions.iter().enumerate() {
        let func = FuncId(fi as u16);
        let view = pt.view(func);
        let cfg = Cfg::build(f);
        let dom = Dominators::compute(&cfg);
        let forest = LoopForest::build(&cfg, &dom);
        let reaching = ReachingDefs::compute(f, &cfg);
        let gen_kill = LocalGenKill::compute(f, &cfg);
        let classes: Vec<LocalClasses> = (0..forest.len())
            .map(|li| classify_with(program, f, &cfg, &dom, &forest, li, &reaching, &gen_kill))
            .collect();

        // method-level tracked numbering: union over all loops
        let mut tracked_set: BTreeSet<Local> = BTreeSet::new();
        for c in &classes {
            tracked_set.extend(c.tracked());
        }
        let tracked_order: Vec<Local> = tracked_set.into_iter().collect();

        // qualify loops, outermost first (forest order)
        let mut loop_to_candidate: Vec<Option<LoopId>> = vec![None; forest.len()];
        for (li, l) in forest.loops.iter().enumerate() {
            let c = &classes[li];
            if c.has_serializing_dependency() {
                let vars: Vec<String> = c.serializing.iter().map(|v| format!("l{}", v.0)).collect();
                rejected.push(RejectedLoop {
                    func,
                    loop_idx: li,
                    reason: format!("serializing scalar dependency on {}", vars.join(", ")),
                });
                continue;
            }
            // nearest enclosing *candidate*
            let mut parent = None;
            let mut up = l.parent;
            while let Some(pi) = up {
                if let Some(pid) = loop_to_candidate[pi] {
                    parent = Some(pid);
                    break;
                }
                up = forest.loops[pi].parent;
            }
            // static memory-dependence pre-screen: a proven
            // cross-iteration RAW means tracing cannot find
            // parallelism, so demote (but keep the id dense)
            let deps = analyze_loop(program, f, &cfg, &dom, l, Some(&view), &store_effects);
            let static_verdict = if deps.is_empty() {
                StaticVerdict::Clean
            } else {
                StaticVerdict::Demoted { deps }
            };
            let id = LoopId(candidates.len() as u32);
            loop_to_candidate[li] = Some(id);
            candidates.push(Candidate {
                id,
                func,
                loop_idx: li,
                depth: l.depth,
                height: l.height,
                parent,
                static_verdict,
            });
        }

        functions.push(FunctionAnalysis {
            func,
            cfg,
            dom,
            reaching,
            gen_kill,
            forest,
            classes,
            tracked_order,
        });
    }

    ProgramCandidates {
        functions,
        candidates,
        rejected,
        pointsto: pt,
        store_effects,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm::isa::Cond;
    use tvm::ProgramBuilder;

    fn candidates_of(body: impl FnOnce(&mut tvm::FnBuilder)) -> ProgramCandidates {
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, false, |f| {
            body(f);
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        extract_candidates(&p)
    }

    #[test]
    fn simple_loop_is_a_candidate() {
        let c = candidates_of(|f| {
            let (a, i) = (f.local(), f.local());
            f.ci(32).newarray(tvm::ElemKind::Int).st(a);
            f.for_in(i, 0.into(), 32.into(), |f| {
                f.arr_set(
                    a,
                    |f| {
                        f.ld(i);
                    },
                    |f| {
                        f.ld(i);
                    },
                );
            });
        });
        assert_eq!(c.candidates.len(), 1);
        assert_eq!(c.total_loops(), 1);
        assert!(c.rejected.is_empty());
        assert_eq!(c.candidates[0].id, LoopId(0));
        assert_eq!(c.candidates[0].depth, 1);
    }

    #[test]
    fn serializing_loop_is_rejected() {
        let c = candidates_of(|f| {
            let x = f.local();
            f.ci(1 << 20).st(x);
            f.while_icmp(
                Cond::Gt,
                |f| {
                    f.ld(x).ci(0);
                },
                |f| {
                    f.ld(x).ci(2).idiv().st(x);
                },
            );
        });
        assert_eq!(c.candidates.len(), 0);
        assert_eq!(c.rejected.len(), 1);
        assert_eq!(c.total_loops(), 1);
        assert!(c.rejected[0].reason.contains("serializing"));
    }

    #[test]
    fn nested_candidates_link_parents() {
        let c = candidates_of(|f| {
            let (i, j, a) = (f.local(), f.local(), f.local());
            f.ci(64).newarray(tvm::ElemKind::Int).st(a);
            f.for_in(i, 0.into(), 8.into(), |f| {
                f.for_in(j, 0.into(), 8.into(), |f| {
                    f.arr_set(
                        a,
                        |f| {
                            f.ld(j);
                        },
                        |f| {
                            f.ld(i);
                        },
                    );
                });
            });
        });
        assert_eq!(c.candidates.len(), 2);
        let outer = &c.candidates[0];
        let inner = &c.candidates[1];
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.height, 2);
        assert_eq!(inner.height, 1);
        assert_eq!(c.max_static_depth(), 2);
    }

    #[test]
    fn statically_serial_loop_is_demoted_but_keeps_dense_id() {
        let mut b = ProgramBuilder::new();
        let g = b.global(tvm::ElemKind::Int);
        let main = b.function("main", 0, false, |f| {
            let (i, j, a) = (f.local(), f.local(), f.local());
            f.ci(32).newarray(tvm::ElemKind::Int).st(a);
            // loop 0: parallel
            f.for_in(i, 0.into(), 32.into(), |f| {
                f.arr_set(
                    a,
                    |f| {
                        f.ld(i);
                    },
                    |f| {
                        f.ld(i);
                    },
                );
            });
            // loop 1: guaranteed static recurrence
            f.for_in(j, 0.into(), 32.into(), |f| {
                f.getstatic(g).ci(3).imul().ci(1).iadd().putstatic(g);
            });
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        let c = extract_candidates(&p);
        assert_eq!(c.candidates.len(), 2);
        for (i, cand) in c.candidates.iter().enumerate() {
            assert_eq!(cand.id, LoopId(i as u32));
        }
        assert_eq!(c.demoted_count(), 1);
        let demoted = c.demoted_ids();
        assert_eq!(demoted.len(), 1);
        let d = c.candidate(*demoted.iter().next().unwrap());
        assert!(d.is_demoted() && d.static_verdict.reason().contains("static"));
    }

    /// `a[i] = a[i + load_off]`, the whole body guarded by `i < 32`.
    /// The guard keeps the structural pre-screen from proving a
    /// *guaranteed* RAW (rule 3 needs both sites on every iteration),
    /// so only scalar evolution sees the distance.
    fn guarded_stencil(load_off: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, false, |f| {
            let (a, i) = (f.local(), f.local());
            f.ci(64).newarray(tvm::ElemKind::Int).st(a);
            f.for_in(i, 2.into(), 62.into(), |f| {
                f.if_icmp(
                    Cond::Lt,
                    |f| {
                        f.ld(i).ci(32);
                    },
                    |f| {
                        f.ld(a).ld(i);
                        f.ld(a).ld(i).ci(load_off).iadd().aload();
                        f.astore();
                    },
                );
            });
            f.ret_void();
        });
        b.finish(main).unwrap()
    }

    #[test]
    fn distance_floor_applies_only_to_raw_chains() {
        // a[i] = a[i-1]: the load reads last iteration's store — a
        // distance-1 RAW chain, so selection must floor overlap at 1.
        let raw = guarded_stencil(-1);
        let rc = extract_candidates(&raw);
        assert!(!rc.candidates[0].is_demoted(), "guard defeats rule 3");
        assert_eq!(distance_floors(&raw, &rc), BTreeMap::from([(LoopId(0), 1)]));

        // a[i] = a[i+1]: the store lands one iteration *after* the
        // load it could disturb — an anti-dependence TLS versioning
        // absorbs, so no floor even though the pair has a distance.
        let anti = guarded_stencil(1);
        let ac = extract_candidates(&anti);
        assert!(distance_floors(&anti, &ac).is_empty());
    }

    #[test]
    fn tracked_slots_are_method_level() {
        let c = candidates_of(|f| {
            let (i, prev, a) = (f.local(), f.local(), f.local());
            f.ci(64).newarray(tvm::ElemKind::Int).st(a);
            f.ci(0).st(prev);
            f.for_in(i, 0.into(), 10.into(), |f| {
                f.arr_set(
                    a,
                    |f| {
                        f.ld(i);
                    },
                    |f| {
                        f.ld(prev);
                    },
                );
                f.arr_get(a, |f| {
                    f.ld(i);
                })
                .st(prev);
            });
        });
        let fa = &c.functions[0];
        assert_eq!(fa.tracked_order, vec![Local(1)]); // prev
        assert_eq!(fa.tracked_slot(Local(1)), Some(0));
        assert_eq!(fa.tracked_slot(Local(0)), None);
        assert_eq!(c.tracked_vars(LoopId(0)), vec![(0, Local(1))]);
    }
}
