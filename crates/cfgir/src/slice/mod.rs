//! Pre-computation slices for loop-carried scalars.
//!
//! The Prophet execution model cuts speculative-thread restarts by
//! *pre-computing* the next iteration's value of each loop-carried
//! scalar in a small backward slice executed ahead of the thread
//! (PAPERS.md: *Prophet: A Speculative Multi-threading Execution
//! Model*). This module extracts those slices statically for every
//! scalar [`crate::scev`] proves a closed-form evolution for:
//!
//! * the **slice** is the minimal set of loop-body instructions that
//!   produces the scalar's next value (the update sites plus their
//!   in-block operand producers);
//! * the **certificate** ([`SliceCert`]) is the machine-checkable
//!   claim that executing the slice is equivalent to evaluating the
//!   evolution: the live-in scalars it reads, the evolution itself,
//!   and an upper bound on its per-iteration cost.
//!
//! Mirroring `rescue::verify`, every certificate is re-derived from
//! scratch by an **independent verifier** ([`verify::check_slice`])
//! that deliberately shares no code with the extractor: the extractor
//! trusts the scev dataflow fixpoint, the verifier pattern-matches the
//! loop body directly. [`extract_slices`] only returns slices whose
//! certificate the verifier accepted; the rejected count is surfaced
//! so a matcher/verifier divergence is visible instead of silent.
//!
//! Dynamically, `jrpm::agreement` replays every benchmark and checks
//! each slice's predicted per-iteration value against the observed
//! store stream — the same static-claim-vs-dynamic-truth contract the
//! points-to pre-screen and the rescue transforms already live under.

pub mod verify;

use std::collections::BTreeSet;

use tvm::isa::{GlobalId, Instr, Local};
use tvm::program::{Function, Program};
use tvm::verify::stack_effect;

use crate::cfg::Cfg;
use crate::loops::LoopForest;
use crate::scev::{Evolution, LoopEvolutions};

/// The scalar a pre-computation slice predicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SliceScalar {
    /// A local slot of the loop's function.
    Local(Local),
    /// A static variable.
    Static(GlobalId),
}

impl std::fmt::Display for SliceScalar {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SliceScalar::Local(l) => write!(out, "local v{}", l.0),
            SliceScalar::Static(g) => write!(out, "static g{}", g.0),
        }
    }
}

/// The machine-checkable claim attached to a [`Slice`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceCert {
    /// Scalars whose value at iteration entry the slice reads. Either
    /// `[scalar]` (the evolution is a function of the previous value)
    /// or empty (a constant recurrence).
    pub inputs: Vec<SliceScalar>,
    /// The per-iteration evolution the slice claims to compute.
    pub evolution: Evolution,
    /// Upper bound on the number of instructions the slice executes
    /// per predicted iteration.
    pub cost: u32,
}

/// A pre-computation slice for one loop-carried scalar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slice {
    /// The predicted scalar.
    pub scalar: SliceScalar,
    /// Instruction indices (in the loop's function) forming the
    /// backward slice: the scalar's update sites plus the in-block
    /// producers of their operands, in ascending order.
    pub instrs: Vec<u32>,
    /// The claim, re-derived by [`verify::check_slice`].
    pub cert: SliceCert,
}

/// What [`extract_slices`] found for one loop.
#[derive(Debug, Clone, Default)]
pub struct LoopSlices {
    /// Slices whose certificate the independent verifier accepted.
    pub slices: Vec<Slice>,
    /// Closed-form evolutions the verifier could not re-derive
    /// (conservatively dropped; non-zero values flag an extractor/
    /// verifier divergence worth investigating).
    pub rejected: usize,
}

/// Extracts a certified pre-computation slice for every loop-carried
/// scalar of loop `loop_idx` with a closed-form evolution.
///
/// Loop-carried means *written inside the loop*: read-only scalars
/// need no pre-computation. Locals qualify through the affine
/// (inductor) form; statics through affine, invariant-rewrite, and
/// linear-recurrence forms.
pub fn extract_slices(
    program: &Program,
    f: &Function,
    cfg: &Cfg,
    forest: &LoopForest,
    loop_idx: usize,
    evo: &LoopEvolutions,
) -> LoopSlices {
    let lp = &forest.loops[loop_idx];
    let mut out = LoopSlices::default();

    let mut consider = |scalar: SliceScalar, evolution: Evolution, instrs: Vec<u32>| {
        if instrs.is_empty() {
            return; // not loop-carried: nothing to pre-compute
        }
        let inputs = if matches!(evolution, Evolution::Recurrence { mul: 0, .. }) {
            Vec::new()
        } else {
            vec![scalar]
        };
        let slice = Slice {
            scalar,
            cert: SliceCert {
                inputs,
                evolution,
                cost: instrs.len() as u32,
            },
            instrs,
        };
        match verify::check_slice(program, f, cfg, forest, loop_idx, &slice) {
            Ok(()) => out.slices.push(slice),
            Err(_) => out.rejected += 1,
        }
    };

    for (&l, &evolution) in &evo.locals {
        if let Evolution::Affine { .. } = evolution {
            let defs = local_update_sites(f, cfg, lp, l);
            consider(SliceScalar::Local(l), evolution, defs);
        }
    }
    for (&g, &evolution) in &evo.statics {
        if evolution.is_closed_form() {
            let instrs = static_slice_instrs(program, f, cfg, lp, g);
            consider(SliceScalar::Static(g), evolution, instrs);
        }
    }
    out.slices.sort_by_key(|s| s.scalar);
    out
}

/// All instructions that define local `l` inside the loop.
fn local_update_sites(
    f: &Function,
    cfg: &Cfg,
    lp: &crate::loops::NaturalLoop,
    l: Local,
) -> Vec<u32> {
    let mut defs = Vec::new();
    for &b in &lp.blocks {
        for idx in cfg.instrs_of(b) {
            match f.code[idx as usize] {
                Instr::IInc(x, _) | Instr::Store(x) if x == l => defs.push(idx),
                Instr::Swl(v) if Local(v) == l => defs.push(idx),
                _ => {}
            }
        }
    }
    defs.sort_unstable();
    defs
}

/// The backward slice of every `PutStatic(g)` in the loop: each store
/// plus the in-block producers of its stored operand, found by a
/// provenance stack walk (each stack value carries the set of
/// instruction indices that computed it).
fn static_slice_instrs(
    program: &Program,
    f: &Function,
    cfg: &Cfg,
    lp: &crate::loops::NaturalLoop,
    g: GlobalId,
) -> Vec<u32> {
    let mut slice: BTreeSet<u32> = BTreeSet::new();
    for &b in &lp.blocks {
        let mut stack: Vec<BTreeSet<u32>> = Vec::new();
        for idx in cfg.instrs_of(b) {
            let instr = &f.code[idx as usize];
            if let Instr::PutStatic(tgt) = instr {
                let operand = stack.pop().unwrap_or_default();
                if *tgt == g {
                    slice.extend(operand);
                    slice.insert(idx);
                }
                continue;
            }
            let (pops, pushes) = stack_effect(program, instr).unwrap_or((0, 0));
            let mut merged = BTreeSet::new();
            for _ in 0..pops {
                if let Some(s) = stack.pop() {
                    merged.extend(s);
                }
            }
            merged.insert(idx);
            for _ in 0..pushes {
                stack.push(merged.clone());
            }
        }
    }
    slice.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::transitive_store_effects;
    use crate::dom::Dominators;
    use crate::scev;
    use tvm::isa::Cond;
    use tvm::{ElemKind, ProgramBuilder};

    fn slices_of(p: &Program) -> LoopSlices {
        let f = &p.functions[p.entry.0 as usize];
        let cfg = Cfg::build(f);
        let dom = Dominators::compute(&cfg);
        let forest = LoopForest::build(&cfg, &dom);
        assert_eq!(forest.len(), 1, "test programs must have one loop");
        let evo = scev::analyze_loop(p, f, &cfg, &forest.loops[0], &transitive_store_effects(p));
        extract_slices(p, f, &cfg, &forest, 0, &evo)
    }

    #[test]
    fn inductor_and_accumulator_slices_are_certified() {
        let mut b = ProgramBuilder::new();
        let g = b.global(ElemKind::Int);
        let main = b.function("main", 0, false, |f| {
            let i = f.local();
            f.for_in(i, 0.into(), 10.into(), |f| {
                f.getstatic(g).ci(3).iadd().putstatic(g);
            });
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        let out = slices_of(&p);
        assert_eq!(out.rejected, 0);
        assert_eq!(out.slices.len(), 2, "{:?}", out.slices);
        let ind = &out.slices[0];
        assert_eq!(ind.scalar, SliceScalar::Local(Local(0)));
        assert_eq!(ind.cert.evolution, Evolution::Affine { stride: 1 });
        assert_eq!(ind.cert.inputs, vec![SliceScalar::Local(Local(0))]);
        let acc = &out.slices[1];
        assert_eq!(acc.scalar, SliceScalar::Static(g));
        assert_eq!(acc.cert.evolution, Evolution::Affine { stride: 3 });
        // the backward slice is getstatic, const, add, putstatic
        assert_eq!(acc.instrs.len(), 4);
        assert_eq!(acc.cert.cost, 4);
    }

    #[test]
    fn recurrence_slice_is_certified() {
        let mut b = ProgramBuilder::new();
        let g = b.global(ElemKind::Int);
        let main = b.function("main", 0, false, |f| {
            let i = f.local();
            f.for_in(i, 0.into(), 8.into(), |f| {
                f.getstatic(g).ci(2).imul().ci(1).iadd().putstatic(g);
            });
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        let out = slices_of(&p);
        assert_eq!(out.rejected, 0);
        let rec = out
            .slices
            .iter()
            .find(|s| s.scalar == SliceScalar::Static(g))
            .expect("recurrence slice");
        assert_eq!(rec.cert.evolution, Evolution::Recurrence { mul: 2, add: 1 });
        assert_eq!(rec.cert.inputs, vec![SliceScalar::Static(g)]);
    }

    #[test]
    fn conditional_update_yields_no_slice() {
        let mut b = ProgramBuilder::new();
        let g = b.global(ElemKind::Int);
        let main = b.function("main", 0, false, |f| {
            let i = f.local();
            f.for_in(i, 0.into(), 8.into(), |f| {
                f.if_icmp(
                    Cond::Lt,
                    |f| {
                        f.ld(i).ci(4);
                    },
                    |f| {
                        f.getstatic(g).ci(3).iadd().putstatic(g);
                    },
                );
            });
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        let out = slices_of(&p);
        assert!(
            out.slices
                .iter()
                .all(|s| s.scalar != SliceScalar::Static(g)),
            "a guarded update has no closed form: {:?}",
            out.slices
        );
        assert_eq!(out.rejected, 0, "scev already refuses the claim");
    }

    #[test]
    fn read_only_scalars_produce_no_slice() {
        let mut b = ProgramBuilder::new();
        let g = b.global(ElemKind::Int);
        let main = b.function("main", 0, false, |f| {
            let i = f.local();
            let t = f.local();
            f.for_in(i, 0.into(), 8.into(), |f| {
                f.getstatic(g).st(t);
            });
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        let out = slices_of(&p);
        assert!(out
            .slices
            .iter()
            .all(|s| s.scalar != SliceScalar::Static(g)));
    }

    /// Sabotage: corrupting any certificate field must be caught by
    /// the independent verifier — the extractor's output is not
    /// trusted by construction.
    #[test]
    fn sabotaged_certs_are_rejected() {
        let mut b = ProgramBuilder::new();
        let g = b.global(ElemKind::Int);
        let main = b.function("main", 0, false, |f| {
            let i = f.local();
            f.for_in(i, 0.into(), 10.into(), |f| {
                f.getstatic(g).ci(3).iadd().putstatic(g);
            });
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        let f = &p.functions[p.entry.0 as usize];
        let cfg = Cfg::build(f);
        let dom = Dominators::compute(&cfg);
        let forest = LoopForest::build(&cfg, &dom);
        let evo = scev::analyze_loop(&p, f, &cfg, &forest.loops[0], &transitive_store_effects(&p));
        let out = extract_slices(&p, f, &cfg, &forest, 0, &evo);
        let good = out
            .slices
            .iter()
            .find(|s| s.scalar == SliceScalar::Static(g))
            .expect("accumulator slice");
        assert!(verify::check_slice(&p, f, &cfg, &forest, 0, good).is_ok());

        // wrong stride
        let mut bad = good.clone();
        bad.cert.evolution = Evolution::Affine { stride: 4 };
        assert!(verify::check_slice(&p, f, &cfg, &forest, 0, &bad).is_err());

        // wrong evolution shape
        let mut bad = good.clone();
        bad.cert.evolution = Evolution::Recurrence { mul: 2, add: 3 };
        assert!(verify::check_slice(&p, f, &cfg, &forest, 0, &bad).is_err());

        // understated cost bound
        let mut bad = good.clone();
        bad.cert.cost = 1;
        assert!(verify::check_slice(&p, f, &cfg, &forest, 0, &bad).is_err());

        // missing live-in
        let mut bad = good.clone();
        bad.cert.inputs.clear();
        assert!(verify::check_slice(&p, f, &cfg, &forest, 0, &bad).is_err());

        // slice missing its own store site
        let mut bad = good.clone();
        bad.instrs = Vec::new();
        assert!(verify::check_slice(&p, f, &cfg, &forest, 0, &bad).is_err());

        // scalar swapped to one the loop never writes
        let mut bad = good.clone();
        bad.scalar = SliceScalar::Static(GlobalId(g.0 + 1));
        assert!(verify::check_slice(&p, f, &cfg, &forest, 0, &bad).is_err());
    }
}
