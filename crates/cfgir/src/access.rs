//! Shared access-site extraction and alias rules.
//!
//! The memory-dependence pre-screen ([`crate::memdep`]) and the
//! points-to analysis ([`crate::pointsto`]) both need the same two
//! ingredients: the list of memory accesses a loop performs, with each
//! operand in the symbolic form `base + inductor*scale + offset`, and a
//! judgment of when two accesses can touch the same address. Both used
//! to live inside `memdep`, with the alias rule encoded once in the
//! masking walk and once in the dependence proofs; this module is the
//! single home for both.
//!
//! Two distinct disjointness predicates are exposed, and the difference
//! matters:
//!
//! * [`strongly_disjoint`] — the two accesses can **never** touch the
//!   same address, at any point in the execution. This is the predicate
//!   the agreement report's soundness invariant checks dynamically, so
//!   it must hold across iterations: `a[i]` vs `a[i-1]` is *not*
//!   strongly disjoint (iteration `n`'s load touches iteration `n−1`'s
//!   store address — that overlap is the recurrence itself).
//! * [`same_iteration_disjoint`] — the two accesses cannot touch the
//!   same address **within one iteration**. This is the masking rule:
//!   it additionally admits the affine same-base/same-inductor/
//!   same-scale/different-offset case, which is only valid inside a
//!   single iteration.

use crate::cfg::{BlockId, Cfg};
use crate::dom::Dominators;
use crate::loops::NaturalLoop;
use crate::pointsto::FnView;
use tvm::isa::{FuncId, GlobalId, Instr, Local};
use tvm::program::{Function, Program};
use tvm::verify::stack_effect;

/// Symbolic value of one operand-stack slot, relative to a loop
/// iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sym {
    /// Not representable in this domain.
    Unknown,
    /// A compile-time integer constant.
    Const(i64),
    /// The value of a local with no definition inside the loop.
    Invariant(Local),
    /// `inductor * scale + offset`, the affine form of array indices.
    Affine {
        /// The inductor local.
        ind: Local,
        /// Multiplier applied to the inductor.
        scale: i64,
        /// Constant offset.
        offset: i64,
    },
}

impl Sym {
    pub(crate) fn add(self, other: Sym) -> Sym {
        match (self, other) {
            (Sym::Const(a), Sym::Const(b)) => Sym::Const(a.wrapping_add(b)),
            (Sym::Affine { ind, scale, offset }, Sym::Const(c))
            | (Sym::Const(c), Sym::Affine { ind, scale, offset }) => Sym::Affine {
                ind,
                scale,
                offset: offset.wrapping_add(c),
            },
            _ => Sym::Unknown,
        }
    }

    pub(crate) fn sub(self, other: Sym) -> Sym {
        match (self, other) {
            (Sym::Const(a), Sym::Const(b)) => Sym::Const(a.wrapping_sub(b)),
            (Sym::Affine { ind, scale, offset }, Sym::Const(c)) => Sym::Affine {
                ind,
                scale,
                offset: offset.wrapping_sub(c),
            },
            _ => Sym::Unknown,
        }
    }

    pub(crate) fn mul(self, other: Sym) -> Sym {
        match (self, other) {
            (Sym::Const(a), Sym::Const(b)) => Sym::Const(a.wrapping_mul(b)),
            (Sym::Affine { ind, scale, offset }, Sym::Const(c))
            | (Sym::Const(c), Sym::Affine { ind, scale, offset }) => Sym::Affine {
                ind,
                scale: scale.wrapping_mul(c),
                offset: offset.wrapping_mul(c),
            },
            _ => Sym::Unknown,
        }
    }
}

/// One memory access observed with symbolic operands.
#[derive(Debug, Clone)]
pub enum Access {
    /// `GetStatic`.
    StaticLoad(GlobalId),
    /// `PutStatic`.
    StaticStore(GlobalId),
    /// `GetField`.
    FieldLoad {
        /// Symbolic object reference.
        base: Sym,
        /// Field slot index.
        field: u16,
    },
    /// `PutField`.
    FieldStore {
        /// Symbolic object reference.
        base: Sym,
        /// Field slot index.
        field: u16,
    },
    /// `ALoad`.
    ArrayLoad {
        /// Symbolic array reference.
        base: Sym,
        /// Symbolic element index.
        index: Sym,
    },
    /// `AStore`.
    ArrayStore {
        /// Symbolic array reference.
        base: Sym,
        /// Symbolic element index.
        index: Sym,
    },
    /// A call whose callee may (transitively) store to the flagged
    /// memory categories — an opaque potential store for masking.
    Opaque {
        /// The called function.
        callee: FuncId,
        /// May store to some static.
        statics: bool,
        /// May store to some object field.
        fields: bool,
        /// May store to some array element.
        arrays: bool,
    },
}

impl Access {
    /// True for the load-side accesses.
    pub fn is_load(&self) -> bool {
        matches!(
            self,
            Access::StaticLoad(_) | Access::FieldLoad { .. } | Access::ArrayLoad { .. }
        )
    }

    /// True for concrete store instructions (not opaque calls).
    pub fn is_concrete_store(&self) -> bool {
        matches!(
            self,
            Access::StaticStore(_) | Access::FieldStore { .. } | Access::ArrayStore { .. }
        )
    }

    /// True for any store side, including opaque calls.
    pub fn is_store(&self) -> bool {
        self.is_concrete_store() || matches!(self, Access::Opaque { .. })
    }
}

/// One access site inside a loop body.
#[derive(Debug, Clone)]
pub struct AccessSite {
    /// Basic block holding the access.
    pub block: BlockId,
    /// Instruction index (into the original, unannotated function).
    pub instr: u32,
    /// The access with symbolic operands.
    pub access: Access,
}

/// Which memory categories each function may (transitively, through
/// further calls) store to: `[statics, fields, arrays]`, indexed by
/// function id.
pub fn transitive_store_effects(program: &Program) -> Vec<[bool; 3]> {
    transitive_effects(program, |instr| match instr {
        Instr::PutStatic(_) => Some(0),
        Instr::PutField(_) => Some(1),
        Instr::AStore => Some(2),
        _ => None,
    })
}

/// Per-function transitive **load** effects, by category
/// `[statics, fields, arrays]` — the read-side mirror of
/// [`transitive_store_effects`]. The rescue transforms redirect a
/// memory channel through a private local while the loop runs, so a
/// call whose callee merely *reads* the channel's category would
/// observe a stale cell; such calls must block the transform even
/// though they are invisible to the store-effect summaries.
pub fn transitive_load_effects(program: &Program) -> Vec<[bool; 3]> {
    transitive_effects(program, |instr| match instr {
        Instr::GetStatic(_) => Some(0),
        Instr::GetField(_) => Some(1),
        Instr::ALoad => Some(2),
        _ => None,
    })
}

/// The call-graph fixpoint behind both effect summaries: each function
/// gets the categories `category` assigns to its own instructions,
/// then inherits every category of its callees.
fn transitive_effects(program: &Program, category: fn(&Instr) -> Option<usize>) -> Vec<[bool; 3]> {
    let n = program.functions.len();
    let mut effects = vec![[false; 3]; n];
    let mut calls: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (fi, f) in program.functions.iter().enumerate() {
        for instr in &f.code {
            if let Instr::Call(callee) = instr {
                calls[fi].push(callee.0 as usize);
            } else if let Some(k) = category(instr) {
                effects[fi][k] = true;
            }
        }
    }
    // propagate to fixpoint (call graphs here are tiny; recursion is
    // handled by iterating until nothing changes)
    loop {
        let mut changed = false;
        for (fi, callees) in calls.iter().enumerate() {
            for &callee in callees {
                let callee_effects = effects[callee];
                for (k, &on) in callee_effects.iter().enumerate() {
                    if on && !effects[fi][k] {
                        effects[fi][k] = true;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return effects;
        }
    }
}

/// Finds locals acting as inductors of `lp` and their net step per
/// iteration: every in-loop definition must be an `IInc` whose block
/// dominates all latches (so it executes exactly once per iteration).
pub fn inductor_steps(
    f: &Function,
    cfg: &Cfg,
    dom: &Dominators,
    lp: &NaturalLoop,
) -> Vec<(Local, i64)> {
    let n_locals = usize::from(f.n_locals);
    let mut incs: Vec<Vec<(BlockId, i64)>> = vec![Vec::new(); n_locals];
    let mut disqualified = vec![false; n_locals];
    for &b in &lp.blocks {
        for i in cfg.instrs_of(b) {
            match &f.code[i as usize] {
                Instr::Store(l) => disqualified[usize::from(l.0)] = true,
                Instr::IInc(l, c) => incs[usize::from(l.0)].push((b, i64::from(*c))),
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    for (l, sites) in incs.iter().enumerate() {
        if disqualified[l] || sites.is_empty() {
            continue;
        }
        let every_iteration = sites
            .iter()
            .all(|&(b, _)| lp.latches.iter().all(|&latch| dom.dominates(b, latch)));
        if every_iteration {
            let step: i64 = sites.iter().map(|&(_, c)| c).sum();
            out.push((Local(l as u16), step));
        }
    }
    out
}

/// Locals never written inside `lp`.
pub fn invariant_locals(f: &Function, cfg: &Cfg, lp: &NaturalLoop) -> Vec<bool> {
    let mut invariant = vec![true; usize::from(f.n_locals)];
    for &b in &lp.blocks {
        for i in cfg.instrs_of(b) {
            if let Instr::Store(l) | Instr::IInc(l, _) = &f.code[i as usize] {
                invariant[usize::from(l.0)] = false;
            }
        }
    }
    invariant
}

/// Symbolically executes every block of the loop (entry stack unknown)
/// and records each memory access with its operands' symbolic values.
pub fn collect_accesses(
    program: &Program,
    f: &Function,
    cfg: &Cfg,
    lp: &NaturalLoop,
    inductors: &[(Local, i64)],
    invariant: &[bool],
    effects: &[[bool; 3]],
) -> Vec<AccessSite> {
    let is_inductor = |l: Local| inductors.iter().any(|&(i, _)| i == l);
    let mut sites = Vec::new();
    for &b in &lp.blocks {
        let mut stack: Vec<Sym> = Vec::new();
        let pop = |stack: &mut Vec<Sym>| stack.pop().unwrap_or(Sym::Unknown);
        for i in cfg.instrs_of(b) {
            let instr = &f.code[i as usize];
            match instr {
                Instr::IConst(c) => stack.push(Sym::Const(*c)),
                Instr::Load(l) => {
                    let v = if is_inductor(*l) {
                        Sym::Affine {
                            ind: *l,
                            scale: 1,
                            offset: 0,
                        }
                    } else if invariant.get(usize::from(l.0)).copied().unwrap_or(false) {
                        Sym::Invariant(*l)
                    } else {
                        Sym::Unknown
                    };
                    stack.push(v);
                }
                Instr::Store(_) => {
                    pop(&mut stack);
                }
                Instr::IAdd => {
                    let (y, x) = (pop(&mut stack), pop(&mut stack));
                    stack.push(x.add(y));
                }
                Instr::ISub => {
                    let (y, x) = (pop(&mut stack), pop(&mut stack));
                    stack.push(x.sub(y));
                }
                Instr::IMul => {
                    let (y, x) = (pop(&mut stack), pop(&mut stack));
                    stack.push(x.mul(y));
                }
                Instr::Dup => {
                    let t = stack.last().copied().unwrap_or(Sym::Unknown);
                    stack.push(t);
                }
                Instr::Swap => {
                    let (y, x) = (pop(&mut stack), pop(&mut stack));
                    stack.push(y);
                    stack.push(x);
                }
                Instr::GetStatic(g) => {
                    sites.push(AccessSite {
                        block: b,
                        instr: i,
                        access: Access::StaticLoad(*g),
                    });
                    stack.push(Sym::Unknown);
                }
                Instr::PutStatic(g) => {
                    pop(&mut stack);
                    sites.push(AccessSite {
                        block: b,
                        instr: i,
                        access: Access::StaticStore(*g),
                    });
                }
                Instr::GetField(fi) => {
                    let base = pop(&mut stack);
                    sites.push(AccessSite {
                        block: b,
                        instr: i,
                        access: Access::FieldLoad { base, field: *fi },
                    });
                    stack.push(Sym::Unknown);
                }
                Instr::PutField(fi) => {
                    pop(&mut stack); // value
                    let base = pop(&mut stack);
                    sites.push(AccessSite {
                        block: b,
                        instr: i,
                        access: Access::FieldStore { base, field: *fi },
                    });
                }
                Instr::ALoad => {
                    let index = pop(&mut stack);
                    let base = pop(&mut stack);
                    sites.push(AccessSite {
                        block: b,
                        instr: i,
                        access: Access::ArrayLoad { base, index },
                    });
                    stack.push(Sym::Unknown);
                }
                Instr::AStore => {
                    pop(&mut stack); // value
                    let index = pop(&mut stack);
                    let base = pop(&mut stack);
                    sites.push(AccessSite {
                        block: b,
                        instr: i,
                        access: Access::ArrayStore { base, index },
                    });
                }
                Instr::Call(callee) => {
                    for _ in 0..program.functions[callee.0 as usize].n_params {
                        pop(&mut stack);
                    }
                    if program.functions[callee.0 as usize].returns {
                        stack.push(Sym::Unknown);
                    }
                    let [statics, fields, arrays] =
                        effects.get(callee.0 as usize).copied().unwrap_or([true; 3]);
                    if statics || fields || arrays {
                        sites.push(AccessSite {
                            block: b,
                            instr: i,
                            access: Access::Opaque {
                                callee: *callee,
                                statics,
                                fields,
                                arrays,
                            },
                        });
                    }
                }
                other => {
                    // generic fallback: apply the instruction's stack
                    // arity, producing unknowns
                    if let Ok((pops, pushes)) = stack_effect(program, other) {
                        for _ in 0..pops {
                            pop(&mut stack);
                        }
                        for _ in 0..pushes {
                            stack.push(Sym::Unknown);
                        }
                    } else {
                        stack.clear();
                    }
                }
            }
        }
    }
    sites
}

/// True when `load` is guaranteed to execute before `store` within a
/// single iteration (same block with smaller index, or in a block that
/// strictly dominates the store's block).
pub fn load_precedes_store(dom: &Dominators, load: &AccessSite, store: &AccessSite) -> bool {
    if load.block == store.block {
        load.instr < store.instr
    } else {
        dom.dominates(load.block, store.block)
    }
}

/// True when `site` executes on every iteration (its block dominates
/// every latch of the loop).
pub fn every_iteration(dom: &Dominators, lp: &NaturalLoop, site: &AccessSite) -> bool {
    lp.latches
        .iter()
        .all(|&latch| dom.dominates(site.block, latch))
}

/// The points-to side of a base-vs-base question: true when `pt` proves
/// the two invariant base locals can never hold the same object.
fn bases_disjoint(pt: Option<&FnView<'_>>, a: Sym, b: Sym) -> bool {
    match (pt, a, b) {
        (Some(pt), Sym::Invariant(la), Sym::Invariant(lb)) => pt.locals_disjoint(la, lb),
        _ => false,
    }
}

/// True when the two accesses can **never** touch the same address, at
/// any point in the execution — valid across loop iterations.
///
/// The structural rules need no analysis: distinct statics occupy
/// distinct slots; statics live in their own segment below every heap
/// allocation; object allocations and array allocations are distinct
/// line-aligned regions; and two different field slots never overlap
/// (same object → different offsets, different objects → disjoint
/// storage). On top of that, points-to information (`pt`) separates
/// same-shaped heap accesses whose base references provably come from
/// disjoint allocation-site sets, and shrinks an opaque call to the
/// statics and abstract objects its callee can actually store to.
pub fn strongly_disjoint(a: &Access, b: &Access, pt: Option<&FnView<'_>>) -> bool {
    use Access::*;
    match (a, b) {
        // -- statics: slot identity decides --------------------------
        (StaticLoad(x) | StaticStore(x), StaticLoad(y) | StaticStore(y)) => x != y,
        // -- statics never overlap heap allocations ------------------
        (
            StaticLoad(_) | StaticStore(_),
            FieldLoad { .. } | FieldStore { .. } | ArrayLoad { .. } | ArrayStore { .. },
        )
        | (
            FieldLoad { .. } | FieldStore { .. } | ArrayLoad { .. } | ArrayStore { .. },
            StaticLoad(_) | StaticStore(_),
        ) => true,
        // -- object fields vs array elements: distinct allocations ---
        (FieldLoad { .. } | FieldStore { .. }, ArrayLoad { .. } | ArrayStore { .. })
        | (ArrayLoad { .. } | ArrayStore { .. }, FieldLoad { .. } | FieldStore { .. }) => true,
        // -- field vs field: slot index, then points-to --------------
        (
            FieldLoad {
                base: ba,
                field: fa,
            }
            | FieldStore {
                base: ba,
                field: fa,
            },
            FieldLoad {
                base: bb,
                field: fb,
            }
            | FieldStore {
                base: bb,
                field: fb,
            },
        ) => fa != fb || bases_disjoint(pt, *ba, *bb),
        // -- array vs array: points-to only (affine reasoning is not
        //    valid across iterations) -------------------------------
        (
            ArrayLoad { base: ba, .. } | ArrayStore { base: ba, .. },
            ArrayLoad { base: bb, .. } | ArrayStore { base: bb, .. },
        ) => bases_disjoint(pt, *ba, *bb),
        // -- opaque calls: the callee's transitive store summary -----
        (
            access,
            Opaque {
                callee,
                statics,
                fields,
                arrays,
            },
        )
        | (
            Opaque {
                callee,
                statics,
                fields,
                arrays,
            },
            access,
        ) => opaque_disjoint(access, *callee, [*statics, *fields, *arrays], pt),
    }
}

/// Whether `access` is strongly disjoint from everything a call to
/// `callee` may (transitively) store. Without points-to facts the
/// per-category store effects decide (a callee that never stores to a
/// category cannot touch accesses in it); with them, the callee's
/// reachable statics and abstract objects are checked against the
/// access itself.
fn opaque_disjoint(
    access: &Access,
    callee: FuncId,
    [statics, fields, arrays]: [bool; 3],
    pt: Option<&FnView<'_>>,
) -> bool {
    match access {
        Access::Opaque { .. } => false,
        Access::StaticLoad(g) | Access::StaticStore(g) => {
            !statics || pt.is_some_and(|pt| !pt.callee_may_store_static(callee, *g))
        }
        Access::FieldLoad { base, .. } | Access::FieldStore { base, .. } => {
            !fields
                || match (pt, base) {
                    (Some(pt), Sym::Invariant(l)) => !pt.callee_may_store_fields_of(callee, *l),
                    _ => false,
                }
        }
        Access::ArrayLoad { base, .. } | Access::ArrayStore { base, .. } => {
            !arrays
                || match (pt, base) {
                    (Some(pt), Sym::Invariant(l)) => !pt.callee_may_store_elems_of(callee, *l),
                    _ => false,
                }
        }
    }
}

/// True when the two accesses cannot touch the same address **within
/// one loop iteration**: either strongly disjoint, or two accesses to
/// the same invariant array through the same inductor at the same
/// scale but different constant offsets (within an iteration the
/// inductor has a single value, so the addresses differ by a nonzero
/// constant — across iterations they may and typically do collide).
pub fn same_iteration_disjoint(a: &Access, b: &Access, pt: Option<&FnView<'_>>) -> bool {
    overlap_kind(a, b, pt).is_none()
}

/// Why two accesses could **not** be proven disjoint within one
/// iteration. This is the witness side of [`same_iteration_disjoint`]:
/// `None` means disjoint; `Some(kind)` names the shape of the possible
/// overlap, so clients (the rescue legality checker, the `--explain`
/// lint) can report *which* dependence blocked a proof without
/// re-walking the access pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockKind {
    /// Both sites touch the same static slot.
    SameStatic(GlobalId),
    /// Two accesses of the same field slot whose bases may alias.
    MayAliasField {
        /// The shared field slot.
        field: u16,
    },
    /// Two array-element accesses not provably distinct this iteration
    /// (bases may alias, or same base with unprovable indices).
    MayAliasArray,
    /// An opaque call whose transitive store summary reaches the other
    /// access.
    OpaqueCall {
        /// The called function.
        callee: FuncId,
    },
    /// Two opaque calls; their summaries are never disjoint from each
    /// other.
    OpaqueVsOpaque,
}

impl std::fmt::Display for BlockKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockKind::SameStatic(g) => write!(f, "same static g{}", g.0),
            BlockKind::MayAliasField { field } => {
                write!(f, "may-alias bases at field slot {field}")
            }
            BlockKind::MayAliasArray => write!(f, "may-alias array elements"),
            BlockKind::OpaqueCall { callee } => {
                write!(f, "opaque call to f{} may store here", callee.0)
            }
            BlockKind::OpaqueVsOpaque => write!(f, "two opaque calls"),
        }
    }
}

/// A concrete blocked pair: the two instruction indices (original pcs)
/// plus the overlap shape. Produced by [`same_iteration_blocker`] and
/// threaded through `memdep` masking and the rescue legality checker so
/// diagnostics can say exactly which dependence stood in the way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepWitness {
    /// Instruction index of the first access.
    pub src: u32,
    /// Instruction index of the second access.
    pub dst: u32,
    /// The shape of the possible overlap.
    pub kind: BlockKind,
}

impl std::fmt::Display for DepWitness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pc {} vs pc {}: {}", self.src, self.dst, self.kind)
    }
}

/// The witness form of [`same_iteration_disjoint`] over whole sites:
/// `None` when the two sites are provably disjoint within an
/// iteration, otherwise the blocking dependence with its pc pair.
pub fn same_iteration_blocker(
    a: &AccessSite,
    b: &AccessSite,
    pt: Option<&FnView<'_>>,
) -> Option<DepWitness> {
    overlap_kind(&a.access, &b.access, pt).map(|kind| DepWitness {
        src: a.instr,
        dst: b.instr,
        kind,
    })
}

/// Classifies the overlap that blocks a same-iteration disjointness
/// proof, or `None` when the proof goes through. The classification
/// arms mirror [`strongly_disjoint`]: by the time a pair reaches a
/// catch-all here, the always-disjoint category combinations (static
/// vs heap, field vs array) have already returned `None`.
pub fn overlap_kind(a: &Access, b: &Access, pt: Option<&FnView<'_>>) -> Option<BlockKind> {
    if same_iteration_disjoint_impl(a, b, pt) {
        return None;
    }
    use Access::*;
    Some(match (a, b) {
        (Opaque { .. }, Opaque { .. }) => BlockKind::OpaqueVsOpaque,
        (Opaque { callee, .. }, _) | (_, Opaque { callee, .. }) => {
            BlockKind::OpaqueCall { callee: *callee }
        }
        // a non-disjoint static pair necessarily shares its slot
        (StaticLoad(g) | StaticStore(g), _) => BlockKind::SameStatic(*g),
        // a non-disjoint field pair necessarily shares its field slot
        (FieldLoad { field, .. } | FieldStore { field, .. }, _) => {
            BlockKind::MayAliasField { field: *field }
        }
        (ArrayLoad { .. } | ArrayStore { .. }, _) => BlockKind::MayAliasArray,
    })
}

fn same_iteration_disjoint_impl(a: &Access, b: &Access, pt: Option<&FnView<'_>>) -> bool {
    if strongly_disjoint(a, b, pt) {
        return true;
    }
    use Access::*;
    match (a, b) {
        (
            ArrayLoad {
                base: Sym::Invariant(ba),
                index:
                    Sym::Affine {
                        ind: ia,
                        scale: sa,
                        offset: oa,
                    },
            }
            | ArrayStore {
                base: Sym::Invariant(ba),
                index:
                    Sym::Affine {
                        ind: ia,
                        scale: sa,
                        offset: oa,
                    },
            },
            ArrayLoad {
                base: Sym::Invariant(bb),
                index:
                    Sym::Affine {
                        ind: ib,
                        scale: sb,
                        offset: ob,
                    },
            }
            | ArrayStore {
                base: Sym::Invariant(bb),
                index:
                    Sym::Affine {
                        ind: ib,
                        scale: sb,
                        offset: ob,
                    },
            },
        ) => ba == bb && ia == ib && sa == sb && oa != ob,
        _ => false,
    }
}
