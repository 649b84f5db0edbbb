//! Scalar-evolution analysis: closed-form per-iteration evolutions.
//!
//! For each candidate loop this pass computes, per scalar (local slot
//! or static variable), how one completed iteration transforms the
//! scalar's value — the *scalar evolution* in the SSA-less, stack
//! machine setting of the TVM. The result is a small lattice:
//!
//! * [`Evolution::Invariant`] — every completed iteration leaves the
//!   value unchanged (either untouched, or rewritten to itself);
//! * [`Evolution::Affine`] — `v_{k+1} = v_k + stride`, i.e. the value
//!   at the start of iteration `k` is `v_0 + k*stride` (the classical
//!   `base + i*stride` closed form; loop inductors land here);
//! * [`Evolution::Recurrence`] — `v_{k+1} = mul*v_k + add`, a linear
//!   recurrence that is still *predictable* one iteration ahead given
//!   the current value (Prophet-style pre-computation can evaluate it
//!   in O(1) per iteration even without a closed form in `k`);
//! * [`Evolution::BoundedUnknown`] — the scalar is written but no
//!   per-iteration transform could be proven. No claim is made beyond
//!   "a write happens".
//!
//! The analysis is a worklist dataflow problem over [`crate::dataflow`]
//! — the same solver that powers reaching definitions and the
//! loop-scoped exposure analysis. Facts flow *forward* through the
//! loop body with the back edges cut ([`Analysis::edge_enabled`]), so
//! the fact at a latch exit describes the net effect of exactly one
//! iteration as a per-scalar linear transform. Conditional updates,
//! updates inside nested loops, and opaque calls all join to the
//! unknown transform, which keeps every claim sound.
//!
//! Downstream consumers:
//!
//! * [`crate::ProgramCandidates::claims`] turns evolutions of
//!   inductors into dependence *distance vectors* for affine access
//!   pairs ([`crate::memdep::PairVerdict::DistanceAtLeast`]);
//! * [`crate::slice`] extracts a pre-computation slice per scalar with
//!   a closed-form evolution and certifies it
//!   ([`crate::slice::SliceCert`]);
//! * `jrpm::agreement` replays each benchmark and checks every claimed
//!   evolution against the observed value stream.

use std::collections::BTreeMap;

use tvm::isa::{GlobalId, Instr, Local};
use tvm::program::{Function, Program};
use tvm::verify::stack_effect;

use crate::cfg::{BlockId, Cfg};
use crate::dataflow::{solve, Analysis, Direction};
use crate::loops::NaturalLoop;

/// The per-iteration evolution claimed for one scalar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Evolution {
    /// Every completed iteration leaves the value unchanged.
    Invariant,
    /// `v_{k+1} = v_k + stride` — the value at the start of iteration
    /// `k` is `v_0 + k*stride` (wrapping i64 arithmetic, like the VM).
    Affine {
        /// Net increment per completed iteration.
        stride: i64,
    },
    /// `v_{k+1} = mul*v_k + add` with `mul != 1` — predictable one
    /// iteration ahead, but not affine in the iteration number.
    Recurrence {
        /// Multiplier applied each iteration.
        mul: i64,
        /// Addend applied each iteration.
        add: i64,
    },
    /// Written in the loop, but no per-iteration transform was proven.
    BoundedUnknown,
}

impl Evolution {
    /// Applies one iteration of the evolution to `v` (wrapping), or
    /// `None` when the evolution makes no value claim.
    pub fn step(&self, v: i64) -> Option<i64> {
        match *self {
            Evolution::Invariant => Some(v),
            Evolution::Affine { stride } => Some(v.wrapping_add(stride)),
            Evolution::Recurrence { mul, add } => Some(v.wrapping_mul(mul).wrapping_add(add)),
            Evolution::BoundedUnknown => None,
        }
    }

    /// True when the evolution predicts the scalar's exact value at
    /// every iteration boundary given its value at loop entry.
    pub fn is_closed_form(&self) -> bool {
        !matches!(self, Evolution::BoundedUnknown)
    }
}

/// Evolutions of every scalar the loop body touches.
#[derive(Debug, Clone, Default)]
pub struct LoopEvolutions {
    /// Evolution per local slot read or written inside the loop.
    pub locals: BTreeMap<Local, Evolution>,
    /// Evolution per static variable read or written inside the loop.
    pub statics: BTreeMap<GlobalId, Evolution>,
}

impl LoopEvolutions {
    /// The affine stride of local `l`, when its evolution is affine
    /// with a non-zero step (the shape dependence distances need).
    pub fn local_stride(&self, l: Local) -> Option<i64> {
        match self.locals.get(&l) {
            Some(&Evolution::Affine { stride }) if stride != 0 => Some(stride),
            _ => None,
        }
    }

    /// Number of scalars with a closed-form (non-`BoundedUnknown`)
    /// evolution.
    pub fn closed_form_count(&self) -> usize {
        self.locals
            .values()
            .chain(self.statics.values())
            .filter(|e| e.is_closed_form())
            .count()
    }
}

/// The per-scalar transform accumulated along a path: `Bot` (path not
/// reached yet), `Lin { mul, add }` (`v ↦ mul*v_entry + add`), or
/// `Top` (unknown). The identity transform is `Lin { 1, 0 }`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Delta {
    Bot,
    Lin { mul: i64, add: i64 },
    Top,
}

impl Delta {
    const ID: Delta = Delta::Lin { mul: 1, add: 0 };

    fn join(self, other: Delta) -> Delta {
        match (self, other) {
            (Delta::Bot, x) | (x, Delta::Bot) => x,
            (a, b) if a == b => a,
            _ => Delta::Top,
        }
    }
}

/// A symbolic stack value during the block walk, expressed in terms of
/// scalar values *at iteration entry*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expr {
    Const(i64),
    /// `mul * entry(var) + add`.
    Var {
        var: Var,
        mul: i64,
        add: i64,
    },
    Unknown,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Var {
    L(Local),
    /// Index into [`ScevProblem::statics`].
    S(usize),
}

/// The dataflow fact: one [`Delta`] per tracked scalar.
#[derive(Debug, Clone, PartialEq)]
struct Deltas {
    locals: Vec<Delta>,
    statics: Vec<Delta>,
}

struct ScevProblem<'a> {
    program: &'a Program,
    f: &'a Function,
    cfg: &'a Cfg,
    lp: &'a NaturalLoop,
    /// Static ids referenced in the loop, in ascending order.
    statics: Vec<GlobalId>,
    /// Per function: `[stores statics, stores fields, stores arrays]`.
    effects: &'a [[bool; 3]],
}

impl ScevProblem<'_> {
    fn static_index(&self, g: GlobalId) -> Option<usize> {
        self.statics.binary_search(&g).ok()
    }

    fn load(&self, fact: &Deltas, var: Var) -> Expr {
        let d = match var {
            Var::L(l) => fact.locals[l.0 as usize],
            Var::S(i) => fact.statics[i],
        };
        match d {
            Delta::Lin { mul, add } => Expr::Var { var, mul, add },
            Delta::Bot | Delta::Top => Expr::Unknown,
        }
    }

    fn store(&self, fact: &mut Deltas, var: Var, e: Expr) {
        let d = match e {
            Expr::Const(c) => Delta::Lin { mul: 0, add: c },
            Expr::Var { var: v, mul, add } if v == var => Delta::Lin { mul, add },
            _ => Delta::Top,
        };
        match var {
            Var::L(l) => fact.locals[l.0 as usize] = d,
            Var::S(i) => fact.statics[i] = d,
        }
    }
}

fn add(a: Expr, b: Expr) -> Expr {
    match (a, b) {
        (Expr::Const(x), Expr::Const(y)) => Expr::Const(x.wrapping_add(y)),
        (Expr::Var { var, mul, add }, Expr::Const(c))
        | (Expr::Const(c), Expr::Var { var, mul, add }) => Expr::Var {
            var,
            mul,
            add: add.wrapping_add(c),
        },
        (
            Expr::Var {
                var: v1,
                mul: m1,
                add: a1,
            },
            Expr::Var {
                var: v2,
                mul: m2,
                add: a2,
            },
        ) if v1 == v2 => Expr::Var {
            var: v1,
            mul: m1.wrapping_add(m2),
            add: a1.wrapping_add(a2),
        },
        _ => Expr::Unknown,
    }
}

fn neg(a: Expr) -> Expr {
    match a {
        Expr::Const(x) => Expr::Const(x.wrapping_neg()),
        Expr::Var { var, mul, add } => Expr::Var {
            var,
            mul: mul.wrapping_neg(),
            add: add.wrapping_neg(),
        },
        Expr::Unknown => Expr::Unknown,
    }
}

fn mul(a: Expr, b: Expr) -> Expr {
    match (a, b) {
        (Expr::Const(x), Expr::Const(y)) => Expr::Const(x.wrapping_mul(y)),
        (Expr::Var { var, mul, add }, Expr::Const(c))
        | (Expr::Const(c), Expr::Var { var, mul, add }) => Expr::Var {
            var,
            mul: mul.wrapping_mul(c),
            add: add.wrapping_mul(c),
        },
        _ => Expr::Unknown,
    }
}

impl Analysis for ScevProblem<'_> {
    type Fact = Deltas;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self) -> Deltas {
        Deltas {
            locals: vec![Delta::ID; self.f.n_locals as usize],
            statics: vec![Delta::ID; self.statics.len()],
        }
    }

    fn bottom(&self) -> Deltas {
        Deltas {
            locals: vec![Delta::Bot; self.f.n_locals as usize],
            statics: vec![Delta::Bot; self.statics.len()],
        }
    }

    fn join(&self, into: &mut Deltas, from: &Deltas) {
        for (a, b) in into.locals.iter_mut().zip(&from.locals) {
            *a = a.join(*b);
        }
        for (a, b) in into.statics.iter_mut().zip(&from.statics) {
            *a = a.join(*b);
        }
    }

    fn transfer(&self, b: BlockId, input: &Deltas) -> Deltas {
        if !self.lp.blocks.contains(&b) {
            return input.clone();
        }
        // The header starts every iteration from the identity frame
        // ("value at iteration entry") regardless of incoming facts —
        // the solver's boundary sits at the CFG entry block, which is
        // outside the loop view. A constant input keeps the transfer
        // monotone.
        let reset;
        let input = if b == self.lp.header {
            reset = self.boundary();
            &reset
        } else {
            // Strict in ⊥: a block not reached within the loop view
            // contributes nothing.
            let unreached = input.locals.iter().all(|d| *d == Delta::Bot)
                && input.statics.iter().all(|d| *d == Delta::Bot);
            if unreached {
                return input.clone();
            }
            input
        };
        let mut fact = input.clone();
        let mut stack: Vec<Expr> = Vec::new();
        for idx in self.cfg.instrs_of(b) {
            let instr = &self.f.code[idx as usize];
            match *instr {
                Instr::IConst(c) => stack.push(Expr::Const(c)),
                Instr::Load(l) => {
                    let e = self.load(&fact, Var::L(l));
                    stack.push(e);
                }
                Instr::Lwl(v) => {
                    let e = self.load(&fact, Var::L(Local(v)));
                    stack.push(e);
                }
                Instr::Store(l) => {
                    let e = stack.pop().unwrap_or(Expr::Unknown);
                    self.store(&mut fact, Var::L(l), e);
                }
                Instr::Swl(v) => {
                    let e = stack.pop().unwrap_or(Expr::Unknown);
                    self.store(&mut fact, Var::L(Local(v)), e);
                }
                Instr::IInc(l, c) => {
                    let slot = &mut fact.locals[l.0 as usize];
                    *slot = match *slot {
                        Delta::Lin { mul, add } => Delta::Lin {
                            mul,
                            add: add.wrapping_add(i64::from(c)),
                        },
                        d => d,
                    };
                }
                Instr::GetStatic(g) => {
                    let e = match self.static_index(g) {
                        Some(i) => self.load(&fact, Var::S(i)),
                        None => Expr::Unknown,
                    };
                    stack.push(e);
                }
                Instr::PutStatic(g) => {
                    let e = stack.pop().unwrap_or(Expr::Unknown);
                    if let Some(i) = self.static_index(g) {
                        self.store(&mut fact, Var::S(i), e);
                    }
                }
                Instr::Dup => {
                    let e = stack.last().copied().unwrap_or(Expr::Unknown);
                    stack.push(e);
                }
                Instr::Swap => {
                    let n = stack.len();
                    if n >= 2 {
                        stack.swap(n - 1, n - 2);
                    } else {
                        // Unknown depth below the modelled stack.
                        stack.clear();
                    }
                }
                Instr::Pop => {
                    stack.pop();
                }
                Instr::IAdd => {
                    let b = stack.pop().unwrap_or(Expr::Unknown);
                    let a = stack.pop().unwrap_or(Expr::Unknown);
                    stack.push(add(a, b));
                }
                Instr::ISub => {
                    let b = stack.pop().unwrap_or(Expr::Unknown);
                    let a = stack.pop().unwrap_or(Expr::Unknown);
                    stack.push(add(a, neg(b)));
                }
                Instr::IMul => {
                    let b = stack.pop().unwrap_or(Expr::Unknown);
                    let a = stack.pop().unwrap_or(Expr::Unknown);
                    stack.push(mul(a, b));
                }
                Instr::INeg => {
                    let a = stack.pop().unwrap_or(Expr::Unknown);
                    stack.push(neg(a));
                }
                Instr::Call(fid) => {
                    let (pops, pushes) = stack_effect(self.program, instr).unwrap_or((0, 0));
                    for _ in 0..pops {
                        stack.pop();
                    }
                    for _ in 0..pushes {
                        stack.push(Expr::Unknown);
                    }
                    // A callee that may store statics invalidates every
                    // static transform (field/array effects don't touch
                    // scalars).
                    if self.effects.get(fid.0 as usize).is_some_and(|e| e[0]) {
                        for d in &mut fact.statics {
                            *d = Delta::Top;
                        }
                    }
                }
                _ => {
                    let (pops, pushes) = stack_effect(self.program, instr).unwrap_or((0, 0));
                    for _ in 0..pops {
                        stack.pop();
                    }
                    for _ in 0..pushes {
                        stack.push(Expr::Unknown);
                    }
                }
            }
        }
        fact
    }

    /// The loop view: only edges between loop blocks participate, so
    /// facts can neither leak out of the loop nor flow in from
    /// surrounding code (the header's transfer resets to the identity
    /// frame anyway).
    fn edge_enabled(&self, from: BlockId, to: BlockId) -> bool {
        self.lp.blocks.contains(&from) && self.lp.blocks.contains(&to)
    }
}

/// Computes the evolution of every scalar `lp`'s body touches.
///
/// The header's entry fact is the identity ("value at iteration
/// entry"); the net one-iteration transform of a scalar is the join of
/// the latch exit facts, translated into an [`Evolution`]. `effects`
/// is the program's transitive store-effect summary
/// ([`crate::access::transitive_store_effects`]): a call whose callee
/// may store a static makes every static's transform unknown.
pub fn analyze_loop(
    program: &Program,
    f: &Function,
    cfg: &Cfg,
    lp: &NaturalLoop,
    effects: &[[bool; 3]],
) -> LoopEvolutions {
    // Scalars referenced in the loop body.
    let mut locals_seen: Vec<bool> = vec![false; f.n_locals as usize];
    let mut statics: Vec<GlobalId> = Vec::new();
    for &b in &lp.blocks {
        for idx in cfg.instrs_of(b) {
            match f.code[idx as usize] {
                Instr::Load(l) | Instr::Store(l) | Instr::IInc(l, _)
                    if (l.0 as usize) < locals_seen.len() =>
                {
                    locals_seen[l.0 as usize] = true;
                }
                Instr::Lwl(v) | Instr::Swl(v) if (v as usize) < locals_seen.len() => {
                    locals_seen[v as usize] = true;
                }
                Instr::GetStatic(g) | Instr::PutStatic(g) => {
                    if let Err(at) = statics.binary_search(&g) {
                        statics.insert(at, g);
                    }
                }
                _ => {}
            }
        }
    }

    let problem = ScevProblem {
        program,
        f,
        cfg,
        lp,
        statics,
        effects,
    };
    let sol = solve(cfg, &problem);

    // Net per-iteration transform: join of all latch exits.
    let mut net = problem.bottom();
    for &latch in &lp.latches {
        problem.join(&mut net, sol.exit_of(latch));
    }

    let to_evolution = |d: Delta| match d {
        // An unreached latch makes no sound claim.
        Delta::Bot | Delta::Top => Evolution::BoundedUnknown,
        Delta::Lin { mul: 1, add: 0 } => Evolution::Invariant,
        Delta::Lin { mul: 1, add } => Evolution::Affine { stride: add },
        Delta::Lin { mul, add } => Evolution::Recurrence { mul, add },
    };

    let mut out = LoopEvolutions::default();
    for (i, seen) in locals_seen.iter().enumerate() {
        if *seen {
            out.locals
                .insert(Local(i as u16), to_evolution(net.locals[i]));
        }
    }
    for (i, &g) in problem.statics.iter().enumerate() {
        out.statics.insert(g, to_evolution(net.statics[i]));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{inductor_steps, transitive_store_effects};
    use crate::dom::Dominators;
    use crate::loops::LoopForest;
    use tvm::isa::Cond;
    use tvm::{ElemKind, ProgramBuilder};

    fn analyze_sole_loop(program: &Program) -> (LoopEvolutions, Vec<(Local, i64)>) {
        let f = &program.functions[program.entry.0 as usize];
        let cfg = Cfg::build(f);
        let dom = Dominators::compute(&cfg);
        let forest = LoopForest::build(&cfg, &dom);
        assert_eq!(forest.len(), 1, "test programs must have one loop");
        let lp = &forest.loops[0];
        let evo = analyze_loop(program, f, &cfg, lp, &transitive_store_effects(program));
        let steps = inductor_steps(f, &cfg, &dom, lp);
        (evo, steps)
    }

    /// `for i in 0..10 { g = g + 3 }` — inductor affine, accumulator
    /// affine, in parity with the access-layer inductor recognizer.
    #[test]
    fn affine_inductor_and_accumulator() {
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
        let (evo, steps) = analyze_sole_loop(&p);
        assert_eq!(
            evo.locals.get(&Local(0)),
            Some(&Evolution::Affine { stride: 1 })
        );
        assert_eq!(evo.statics.get(&g), Some(&Evolution::Affine { stride: 3 }));
        assert!(!steps.is_empty());
        for (l, step) in steps {
            assert_eq!(evo.local_stride(l), Some(step));
        }
    }

    /// `g = 2*g + 1` per iteration — a linear recurrence, not affine.
    #[test]
    fn linear_recurrence_is_recognized() {
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
        let (evo, _) = analyze_sole_loop(&p);
        assert_eq!(
            evo.statics.get(&g),
            Some(&Evolution::Recurrence { mul: 2, add: 1 })
        );
    }

    /// A conditional update joins with the identity path to unknown.
    #[test]
    fn conditional_update_is_bounded_unknown() {
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
        let (evo, _) = analyze_sole_loop(&p);
        assert_eq!(evo.statics.get(&g), Some(&Evolution::BoundedUnknown));
    }

    /// A read-only scalar is invariant; a scalar rewritten to itself
    /// is too (the per-iteration transform is the identity).
    #[test]
    fn invariant_scalars() {
        let mut b = ProgramBuilder::new();
        let g = b.global(ElemKind::Int);
        let h = b.global(ElemKind::Int);
        let main = b.function("main", 0, false, |f| {
            let i = f.local();
            let t = f.local();
            f.for_in(i, 0.into(), 8.into(), |f| {
                f.getstatic(g).st(t); // read-only use of g
                f.getstatic(h).putstatic(h); // h = h
            });
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        let (evo, _) = analyze_sole_loop(&p);
        assert_eq!(evo.statics.get(&g), Some(&Evolution::Invariant));
        assert_eq!(evo.statics.get(&h), Some(&Evolution::Invariant));
    }

    /// Two increments on the same path compose; a scalar reset and
    /// bumped inside a nested loop has no outer-loop closed form.
    #[test]
    fn composition_and_nested_loop() {
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, false, |f| {
            let i = f.local();
            let two = f.local();
            let j = f.local();
            f.for_in(i, 0.into(), 8.into(), |f| {
                f.inc(two, 2).inc(two, 3); // +5 per outer iteration
                f.for_in(j, 0.into(), 4.into(), |f| {
                    f.ld(j).drop_top();
                });
            });
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        let f = &p.functions[p.entry.0 as usize];
        let cfg = Cfg::build(f);
        let dom = Dominators::compute(&cfg);
        let forest = LoopForest::build(&cfg, &dom);
        let outer = forest
            .loops
            .iter()
            .find(|lp| forest.loops.iter().all(|o| lp.blocks.contains(&o.header)))
            .expect("outer loop");
        let evo = analyze_loop(&p, f, &cfg, outer, &transitive_store_effects(&p));
        assert_eq!(
            evo.locals.get(&Local(1)),
            Some(&Evolution::Affine { stride: 5 })
        );
        // The inner inductor is reset each outer iteration but bumped
        // along the inner back edge, so the outer view sees ⊤ join.
        assert_eq!(evo.locals.get(&Local(2)), Some(&Evolution::BoundedUnknown));
    }

    /// A call that may store statics kills every static transform.
    #[test]
    fn opaque_call_kills_statics() {
        let mut b = ProgramBuilder::new();
        let g = b.global(ElemKind::Int);
        let clobber = b.function("clobber", 0, false, |f| {
            f.ci(7).putstatic(g);
            f.ret_void();
        });
        let main = b.function("main", 0, false, |f| {
            let i = f.local();
            f.for_in(i, 0.into(), 8.into(), |f| {
                f.getstatic(g).ci(1).iadd().putstatic(g);
                f.call(clobber);
            });
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        let f = &p.functions[main.0 as usize];
        let cfg = Cfg::build(f);
        let dom = Dominators::compute(&cfg);
        let forest = LoopForest::build(&cfg, &dom);
        let evo = analyze_loop(&p, f, &cfg, &forest.loops[0], &transitive_store_effects(&p));
        assert_eq!(evo.statics.get(&g), Some(&Evolution::BoundedUnknown));
    }
}
