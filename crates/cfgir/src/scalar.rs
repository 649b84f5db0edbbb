//! Scalar (local-variable) analysis of loops.
//!
//! The paper (§4.1) deliberately keeps compiler dependence analysis
//! *simple*: only scalar locals are examined, and only three questions
//! are asked of each candidate loop:
//!
//! 1. Which locals are **inductors** (`i += c` once or more per
//!    iteration, no other definitions)? The speculative compiler
//!    replaces these with non-violating loop inductors, so they are
//!    ignored — both when disqualifying loops and when annotating.
//! 2. Which locals are **reductions** (`s = s op expr` accumulators)?
//!    These are transformed at loop shutdown (Table 2) and likewise
//!    must not hide parallelism.
//! 3. Does an **obvious serializing dependency** remain — a
//!    start-of-loop load of a non-inductor local that is stored at the
//!    end of every iteration (e.g. `node = node.next` list walks)?
//!    Such loops cannot speed up and are not candidates.
//!
//! Everything subtler is left to the TEST hardware to measure.

use crate::cfg::{BlockId, Cfg};
use crate::dataflow::{LocalGenKill, ReachingDefs};
use crate::dom::Dominators;
use crate::loops::LoopForest;
use std::collections::{BTreeSet, HashMap};
use tvm::isa::Instr;
use tvm::program::{Function, Local, Program};
use tvm::verify::stack_effect;

/// Classification of the locals accessed by one loop.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LocalClasses {
    /// Locals read anywhere in the loop.
    pub loaded: BTreeSet<Local>,
    /// Locals written anywhere in the loop.
    pub stored: BTreeSet<Local>,
    /// Recognized loop inductors.
    pub inductors: BTreeSet<Local>,
    /// Recognized reduction accumulators.
    pub reductions: BTreeSet<Local>,
    /// Locals whose every loop use is preceded by a same-block
    /// definition (block-local temporaries; never annotated).
    pub block_local: BTreeSet<Local>,
    /// Locals overwritten by a dominating store before any use in
    /// every iteration (iteration-private; the speculative compiler
    /// privatizes them, so they carry no loop arc and need no
    /// annotation for this loop).
    pub iteration_private: BTreeSet<Local>,
    /// Locals with an obvious fully serializing loop-carried
    /// dependency.
    pub serializing: BTreeSet<Local>,
}

impl LocalClasses {
    /// The locals the annotation pass must track with `lwl`/`swl`:
    /// both read and written in the loop (an intra-loop dependency is
    /// only possible then — loads of loop invariants hit pre-entry
    /// stores, which the bank's entry timestamp filters out), and not
    /// inductors, reductions or block-local temporaries.
    pub fn tracked(&self) -> BTreeSet<Local> {
        self.loaded
            .intersection(&self.stored)
            .copied()
            .filter(|v| {
                !self.inductors.contains(v)
                    && !self.reductions.contains(v)
                    && !self.block_local.contains(v)
                    && !self.iteration_private.contains(v)
            })
            .collect()
    }

    /// True when the loop should be rejected as a candidate STL.
    pub fn has_serializing_dependency(&self) -> bool {
        !self.serializing.is_empty()
    }
}

/// Ops that terminate a reduction pattern `Load v; …; op; Store v`.
fn is_accumulating_op(i: &Instr) -> bool {
    matches!(
        i,
        Instr::IAdd
            | Instr::ISub
            | Instr::IMul
            | Instr::IMin
            | Instr::IMax
            | Instr::IAnd
            | Instr::IOr
            | Instr::IXor
            | Instr::FAdd
            | Instr::FSub
            | Instr::FMul
            | Instr::FMin
            | Instr::FMax
    )
}

/// Classifies the locals of loop `forest.loops[loop_idx]` in function
/// `f`.
///
/// The dominator tree and the loop forest are needed to decide which
/// `IInc` sites are *eliminable* inductors: only increments that
/// structurally execute a fixed number of times per iteration (their
/// block dominates every latch and lies in no nested loop) can be
/// replaced by non-violating loop inductors. A counter bumped
/// conditionally — or a data-dependent number of times inside an inner
/// loop, like Huffman's bit cursor in the paper's Figure 3 — is a real
/// loop-carried dependency and must be tracked.
///
/// Solves the function's reaching definitions and liveness gen/kill
/// sets afresh; candidate extraction solves them once per function and
/// shares them across its loops instead.
pub fn classify(
    program: &Program,
    f: &Function,
    cfg: &Cfg,
    dom: &Dominators,
    forest: &LoopForest,
    loop_idx: usize,
) -> LocalClasses {
    let reaching = ReachingDefs::compute(f, cfg);
    let gen_kill = LocalGenKill::compute(f, cfg);
    classify_with(program, f, cfg, dom, forest, loop_idx, &reaching, &gen_kill)
}

/// [`classify`] over the function's already-solved reaching
/// definitions and gen/kill sets.
#[allow(clippy::too_many_arguments)]
pub(crate) fn classify_with(
    program: &Program,
    f: &Function,
    cfg: &Cfg,
    dom: &Dominators,
    forest: &LoopForest,
    loop_idx: usize,
    reaching: &ReachingDefs,
    gen_kill: &LocalGenKill,
) -> LocalClasses {
    let l = &forest.loops[loop_idx];
    let mut c = LocalClasses::default();

    // gather accesses
    let mut def_sites: Vec<(Local, BlockId, u32)> = Vec::new(); // Store only
    let mut inc_sites: Vec<(Local, BlockId, u32)> = Vec::new();
    let mut load_sites: Vec<(Local, BlockId, u32)> = Vec::new();
    for &b in &l.blocks {
        for idx in cfg.instrs_of(b) {
            match f.code[idx as usize] {
                Instr::Load(v) => {
                    c.loaded.insert(v);
                    load_sites.push((v, b, idx));
                }
                Instr::Store(v) => {
                    c.stored.insert(v);
                    def_sites.push((v, b, idx));
                }
                Instr::IInc(v, _) => {
                    c.stored.insert(v);
                    inc_sites.push((v, b, idx));
                }
                _ => {}
            }
        }
    }

    // inductors: all definitions are IInc sites that execute a fixed
    // number of times per iteration — the block dominates every latch
    // of this loop and is not inside a nested loop
    let fixed_per_iteration = |b: BlockId| -> bool {
        let in_nested = forest.loops.iter().enumerate().any(|(mi, m)| {
            mi != loop_idx
                && m.blocks.len() < l.blocks.len()
                && l.blocks.contains(&m.header)
                && m.blocks.is_subset(&l.blocks)
                && m.blocks.contains(&b)
        });
        if in_nested {
            return false;
        }
        l.latches.iter().all(|&latch| dom.dominates(b, latch))
    };
    let inc_vars: BTreeSet<Local> = inc_sites.iter().map(|&(v, _, _)| v).collect();
    for &v in &inc_vars {
        let plain_store = def_sites.iter().any(|&(w, _, _)| w == v);
        let all_fixed = inc_sites
            .iter()
            .filter(|&&(w, _, _)| w == v)
            .all(|&(_, b, _)| fixed_per_iteration(b));
        if !plain_store && all_fixed {
            c.inductors.insert(v);
        }
    }

    // Per-block provenance dataflow: for each Store, which instruction
    // produced the stored value; for each accumulating op, which
    // instructions produced its operands. Blocks are straight-line so
    // this is exact (stack entries live at block entry are Unknown).
    let mut store_producer: HashMap<u32, Option<u32>> = HashMap::new();
    let mut accop_operands: HashMap<u32, [Option<u32>; 2]> = HashMap::new();
    for &b in &l.blocks {
        let mut stack: Vec<Option<u32>> = Vec::new();
        for idx in cfg.instrs_of(b) {
            let instr = &f.code[idx as usize];
            let (pops, pushes) = stack_effect(program, instr).unwrap_or((0, 0));
            let mut popped: Vec<Option<u32>> = Vec::with_capacity(pops as usize);
            for _ in 0..pops {
                popped.push(stack.pop().flatten());
            }
            // popped[0] is the topmost (second) operand
            if matches!(instr, Instr::Store(_)) {
                store_producer.insert(idx, popped.first().copied().flatten());
            }
            if is_accumulating_op(instr) {
                accop_operands.insert(
                    idx,
                    [
                        popped.get(1).copied().flatten(),
                        popped.first().copied().flatten(),
                    ],
                );
            }
            for _ in 0..pushes {
                stack.push(Some(idx));
            }
        }
    }

    // reductions: every Store(v) stores the result of an accumulating
    // op with `Load v` as one operand, and every load of v in the loop
    // is such a reduction load
    let stored_vars: BTreeSet<Local> = def_sites.iter().map(|&(v, _, _)| v).collect();
    'vars: for &v in &stored_vars {
        if c.inductors.contains(&v) || inc_sites.iter().any(|&(w, _, _)| w == v) {
            continue;
        }
        let mut reduction_loads: BTreeSet<u32> = BTreeSet::new();
        for &(w, _, k) in &def_sites {
            if w != v {
                continue;
            }
            let Some(Some(m)) = store_producer.get(&k) else {
                continue 'vars;
            };
            let Some(operands) = accop_operands.get(m) else {
                continue 'vars;
            };
            let load_operand = operands
                .iter()
                .flatten()
                .copied()
                .find(|&p| matches!(f.code[p as usize], Instr::Load(w2) if w2 == v));
            match load_operand {
                Some(p) => {
                    reduction_loads.insert(p);
                }
                None => continue 'vars,
            }
        }
        // all loop loads of v must be the reduction loads
        let all_loads: BTreeSet<u32> = load_sites
            .iter()
            .filter(|&&(w, _, _)| w == v)
            .map(|&(_, _, i)| i)
            .collect();
        if !all_loads.is_empty() && all_loads == reduction_loads {
            c.reductions.insert(v);
        }
    }

    // block-local temporaries: every in-loop load sees only defs from
    // earlier in the same block. Decided with reaching definitions so
    // the property holds along *all* paths, not just textual order.
    let candidates: BTreeSet<Local> = c.loaded.union(&c.stored).copied().collect();
    'outer: for &v in &candidates {
        if c.inductors.contains(&v) || c.reductions.contains(&v) {
            continue;
        }
        if !c.loaded.contains(&v) {
            // stored-only in the loop: treat as block-local temp (it can
            // never be the consumer of a loop-carried arc within the loop)
            c.block_local.insert(v);
            continue;
        }
        for &(w, b, idx) in &load_sites {
            if w != v {
                continue;
            }
            let defs = reaching.reaching_defs_of(cfg, b, idx, v);
            let all_same_block = !defs.is_empty()
                && defs
                    .iter()
                    .all(|d| d.site.is_some_and(|s| cfg.block_of(s) == Some(b)));
            if !all_same_block {
                continue 'outer; // a def from outside the block reaches
            }
        }
        c.block_local.insert(v);
    }

    // iteration-private locals: not upward-exposed within the loop —
    // every path from the header writes the local before reading it,
    // so no cross-iteration arc can exist and the speculative compiler
    // privatizes the variable. (Liveness restricted to the loop body
    // with back edges cut; strictly more precise than the former
    // single-dominating-store rule.)
    let exposed = gen_kill.upward_exposed_in_loop(cfg, l);
    for &v in &candidates {
        if c.inductors.contains(&v)
            || c.reductions.contains(&v)
            || c.block_local.contains(&v)
            || !c.loaded.contains(&v)
            || !c.stored.contains(&v)
        {
            continue;
        }
        if !exposed.contains(usize::from(v.0)) {
            c.iteration_private.insert(v);
        }
    }

    // obvious serializing dependency: loaded in the header before any
    // store to it there, and stored in every latch block
    let header = l.header;
    let header_start = cfg.blocks[header.0 as usize].start;
    for &v in &candidates {
        if c.inductors.contains(&v) || c.reductions.contains(&v) || c.block_local.contains(&v) {
            continue;
        }
        let first_load_in_header = load_sites
            .iter()
            .filter(|&&(w, b, _)| w == v && b == header)
            .map(|&(_, _, i)| i)
            .min();
        let Some(first_load) = first_load_in_header else {
            continue;
        };
        let stored_before_in_header = (header_start..first_load).any(|j| {
            matches!(f.code[j as usize],
                Instr::Store(w2) | Instr::IInc(w2, _) if w2 == v)
        });
        if stored_before_in_header {
            continue;
        }
        let stored_in_every_latch = l.latches.iter().all(|&latch| {
            def_sites
                .iter()
                .chain(inc_sites.iter())
                .any(|&(w, b, _)| w == v && b == latch)
        });
        if stored_in_every_latch && !l.latches.is_empty() {
            c.serializing.insert(v);
        }
    }

    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use crate::dom::Dominators;
    use crate::loops::LoopForest;
    use tvm::isa::Cond;
    use tvm::ProgramBuilder;

    fn analyze(body: impl FnOnce(&mut tvm::FnBuilder)) -> (Vec<LocalClasses>, LoopForest) {
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, false, |f| {
            body(f);
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        let f = &p.functions[0];
        let cfg = Cfg::build(f);
        let dom = Dominators::compute(&cfg);
        let forest = LoopForest::build(&cfg, &dom);
        let classes = (0..forest.len())
            .map(|li| classify(&p, f, &cfg, &dom, &forest, li))
            .collect();
        (classes, forest)
    }

    #[test]
    fn for_loop_inductor_is_recognized() {
        let (classes, _) = analyze(|f| {
            let (s, i) = (f.local(), f.local());
            f.ci(0).st(s);
            f.for_in(i, 0.into(), 10.into(), |f| {
                f.ld(s).ld(i).iadd().st(s);
            });
        });
        let c = &classes[0];
        assert!(c.inductors.contains(&Local(1))); // i
        assert!(c.reductions.contains(&Local(0))); // s
        assert!(c.tracked().is_empty());
        assert!(!c.has_serializing_dependency());
    }

    #[test]
    fn pointer_chase_is_serializing() {
        // while (x > 0) { x = x/2 } — header loads x, latch stores x
        let (classes, forest) = analyze(|f| {
            let x = f.local();
            f.ci(1000).st(x);
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
        assert_eq!(forest.len(), 1);
        assert!(classes[0].has_serializing_dependency());
        assert!(classes[0].serializing.contains(&Local(0)));
    }

    #[test]
    fn block_local_temporaries_are_excluded() {
        let (classes, _) = analyze(|f| {
            let (i, t, g) = (f.local(), f.local(), f.local());
            f.ci(5).st(g);
            f.for_in(i, 0.into(), 10.into(), |f| {
                // t defined then used within one block: block-local
                f.ld(i).ci(3).imul().st(t);
                f.ld(t).ld(g).iadd().st(g);
            });
        });
        let c = &classes[0];
        assert!(c.block_local.contains(&Local(1))); // t
        assert!(c.reductions.contains(&Local(2))); // g
        assert!(c.tracked().is_empty());
    }

    #[test]
    fn cross_iteration_local_is_tracked() {
        // prev used before being redefined -> genuinely loop-carried
        let (classes, _) = analyze(|f| {
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
        let c = &classes[0];
        assert!(c.tracked().contains(&Local(1))); // prev
        assert!(!c.has_serializing_dependency()); // store not in header path
    }

    #[test]
    fn min_reduction_is_recognized() {
        let (classes, _) = analyze(|f| {
            let (i, m) = (f.local(), f.local());
            f.ci(i64::MAX).st(m);
            f.for_in(i, 0.into(), 10.into(), |f| {
                f.ld(m).ld(i).imin().st(m);
            });
        });
        assert!(classes[0].reductions.contains(&Local(1)));
    }

    #[test]
    fn non_reduction_store_is_tracked() {
        // x = i*2 each iteration, and x is read at loop top first:
        // loaded before stored -> tracked, and serializing (stored in
        // latch since single-block body)
        let (classes, _) = analyze(|f| {
            let (i, x, g) = (f.local(), f.local(), f.local());
            f.ci(0).st(x);
            f.for_in(i, 0.into(), 10.into(), |f| {
                f.ld(x).ci(1).iadd().st(g);
                f.ld(i).ci(2).imul().st(x);
            });
        });
        let c = &classes[0];
        assert!(c.tracked().contains(&Local(1))); // x
    }
}
