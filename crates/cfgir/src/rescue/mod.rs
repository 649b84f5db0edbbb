//! # Dependence-driven loop rescue
//!
//! The static pre-screen ([`crate::memdep`]) demotes loops with a
//! *guaranteed* cross-iteration RAW dependence: tracing them would be
//! wasted effort because the TEST hardware must serialize them. Some of
//! those recurrences are not essential, though — they are artifacts of
//! how the source was written, and a semantics-preserving rewrite
//! removes them:
//!
//! * **reduction recognition** — `g = g ⊕ e` over an associative,
//!   commutative *integer* operator (`+ * min max & | ^`; wrapping
//!   integer arithmetic is exact under reassociation, floats are not)
//!   becomes a privatized partial reduction: each iteration accumulates
//!   into a fresh local seeded with the operator's identity, and every
//!   loop exit folds the partial result back into the memory cell;
//! * **scalar expansion / privatization** — a static or invariant-base
//!   field that is provably written before read in every iteration is a
//!   scratch cell; routing it through a fresh local removes the memory
//!   traffic (the cell is read once on loop entry and written back once
//!   on exit, so a zero-trip loop is a no-op);
//! * **loop distribution** — a single-block counted loop whose
//!   statement-level dependence graph splits into several strongly
//!   connected components becomes one loop per component, confining a
//!   serial recurrence to the component that carries it.
//!
//! Every applied transform produces a [`LegalityProof`]. A separate
//! module, [`verify`], re-derives the dependence facts on the
//! transformed code with its own walkers and rejects any variant whose
//! dependence set is not a refinement of the original's — the transform
//! and its checker are deliberately independent code paths, so a bug in
//! the matcher shows up as a verifier rejection instead of a miscompile.
//!
//! The transforms assume fault-free execution of the loop body: they
//! reorder arithmetic, not faults. Division and allocation inside
//! distributed bodies are rejected for exactly that reason, and a
//! field-channel fold-back is only emitted when the object reference is
//! provably non-null at loop entry.

mod rewrite;
pub mod verify;

use crate::access::{
    collect_accesses, inductor_steps, invariant_locals, load_precedes_store, overlap_kind,
    strongly_disjoint, transitive_load_effects, transitive_store_effects, Access, AccessSite,
    BlockKind, DepWitness, Sym,
};
use crate::candidates::{extract_candidates, ProgramCandidates};
use crate::cfg::{BlockId, Cfg};
use crate::dom::Dominators;
use crate::loops::NaturalLoop;
use crate::memdep::{analyze_loop, DepKind, GuaranteedDep};
use crate::pointsto::FnView;
use rewrite::{apply_distribution, apply_loop_rewrite, DistributionPlan, LoopRewrite};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use tvm::alloc::SiteKind;
use tvm::isa::{ElemKind, Instr};
use tvm::program::{FuncId, Function, GlobalId, Local, Program};
use tvm::verify::stack_effect;

/// Maximum rescue rounds per program. Each round applies at most one
/// transform and re-extracts, so the cap bounds compile time on
/// adversarial inputs; real programs converge in a handful of rounds.
pub const MAX_ROUNDS: usize = 12;

/// The memory cell a transform privatizes: a static, or a field of an
/// object held in a loop-invariant local.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Channel {
    /// A static variable.
    Static(GlobalId),
    /// `base.field` with `base` loop-invariant.
    Field {
        /// Local holding the object reference.
        base: Local,
        /// Field slot index.
        field: u16,
    },
}

impl Channel {
    /// Human-readable description for diagnostics.
    pub fn describe(&self) -> String {
        match self {
            Channel::Static(g) => format!("static g{}", g.0),
            Channel::Field { base, field } => {
                format!("field #{} of the object in local {}", field, base.0)
            }
        }
    }

    fn load_template(&self) -> Access {
        match *self {
            Channel::Static(g) => Access::StaticLoad(g),
            Channel::Field { base, field } => Access::FieldLoad {
                base: Sym::Invariant(base),
                field,
            },
        }
    }

    fn store_template(&self) -> Access {
        match *self {
            Channel::Static(g) => Access::StaticStore(g),
            Channel::Field { base, field } => Access::FieldStore {
                base: Sym::Invariant(base),
                field,
            },
        }
    }

    /// Exact-template match: the site is *this* channel (not merely a
    /// may-alias).
    fn matches(&self, a: &Access) -> bool {
        match (*self, a) {
            (Channel::Static(g), Access::StaticLoad(h) | Access::StaticStore(h)) => g == *h,
            (
                Channel::Field { base, field },
                Access::FieldLoad {
                    base: Sym::Invariant(b),
                    field: f,
                }
                | Access::FieldStore {
                    base: Sym::Invariant(b),
                    field: f,
                },
            ) => base == *b && field == *f,
            _ => false,
        }
    }

    /// Memory-category index (`[statics, fields, arrays]`) for the
    /// transitive call-effect summaries.
    fn category(&self) -> usize {
        match self {
            Channel::Static(_) => 0,
            Channel::Field { .. } => 1,
        }
    }

    fn block_kind(&self) -> BlockKind {
        match self {
            Channel::Static(g) => BlockKind::SameStatic(*g),
            Channel::Field { field, .. } => BlockKind::MayAliasField { field: *field },
        }
    }
}

/// The identity element of a legal reduction operator, or `None` when
/// the operator cannot be reassociated exactly (floats, subtraction,
/// shifts, division).
pub fn reduction_identity(op: &Instr) -> Option<i64> {
    Some(match op {
        Instr::IAdd | Instr::IOr | Instr::IXor => 0,
        Instr::IMul => 1,
        Instr::IAnd => -1,
        Instr::IMin => i64::MAX,
        Instr::IMax => i64::MIN,
        _ => return None,
    })
}

/// One applied rescue transform, carried inside its [`LegalityProof`].
#[derive(Debug, Clone)]
pub enum Transform {
    /// `channel = channel op e` privatized into partial reductions.
    Reduction {
        /// The accumulator cell.
        channel: Channel,
        /// The (associative, commutative, integer) operator.
        op: Instr,
        /// The operator's identity element, seeded on loop entry.
        identity: i64,
        /// The fresh private accumulator local.
        acc: Local,
        /// Pre-transform pc of the channel load.
        load_at: u32,
        /// Pre-transform pc of the channel store.
        store_at: u32,
    },
    /// A written-before-read scratch cell routed through a local.
    Privatization {
        /// The scratch cell.
        channel: Channel,
        /// The fresh private local.
        tmp: Local,
        /// Pre-transform pcs of the channel loads.
        loads: Vec<u32>,
        /// Pre-transform pcs of the channel stores.
        stores: Vec<u32>,
    },
    /// Statement-level fission of a single-block counted loop.
    Distribution {
        /// Per-group statement ranges `[start, end)` in pre-transform
        /// pcs, in emission order.
        groups: Vec<Vec<(u32, u32)>>,
        /// Per-group inductor local (last = the original).
        inductors: Vec<Local>,
        /// The original inductor local.
        orig_inductor: Local,
        /// Post-transform pc inside each fission loop's body, in the
        /// same order as `groups`.
        anchors: Vec<u32>,
    },
}

impl Transform {
    /// Short transform name for diagnostics (`TR001`/`TR002` lint rows).
    pub fn name(&self) -> &'static str {
        match self {
            Transform::Reduction { .. } => "reduction",
            Transform::Privatization { .. } => "privatization",
            Transform::Distribution { .. } => "distribution",
        }
    }

    /// What the transform targeted, stable across rescue rounds (used
    /// to blocklist verifier-rejected variants).
    pub fn target(&self) -> String {
        match self {
            Transform::Reduction { channel, .. } => format!("reduction:{}", channel.describe()),
            Transform::Privatization { channel, .. } => {
                format!("privatization:{}", channel.describe())
            }
            Transform::Distribution { groups, .. } => {
                format!("distribution:{}groups", groups.len())
            }
        }
    }
}

/// A machine-checkable claim that one loop transform is legal. The
/// proof names the function, anchors locating the loop before and after
/// the rewrite, and the transform's full parameters; [`verify::check`]
/// re-derives every claimed fact from the two programs.
#[derive(Debug, Clone)]
pub struct LegalityProof {
    /// The transformed function.
    pub func: FuncId,
    /// A pc inside the loop's header block in the *pre*-transform
    /// function.
    pub pre_anchor: u32,
    /// A pc inside the rescued loop (first fission loop, for
    /// distribution) in the *post*-transform function.
    pub post_anchor: u32,
    /// The transform and its parameters.
    pub transform: Transform,
}

/// One successfully rescued loop.
#[derive(Debug, Clone)]
pub struct RescuedLoop {
    /// Containing function.
    pub func: FuncId,
    /// Its name, for reports.
    pub func_name: String,
    /// Header-block pc of the loop in the *original* (pre-rescue)
    /// program, for correlating with candidate extraction on it.
    pub orig_header_pc: u32,
    /// Which recurrence or traffic the transform removed.
    pub removed: String,
    /// The checked legality proof.
    pub proof: LegalityProof,
}

/// A loop where a transform matched but legality failed, with the
/// dependence that blocked it when one is known.
#[derive(Debug, Clone)]
pub struct RescueRejection {
    /// Containing function.
    pub func: FuncId,
    /// Its name, for reports.
    pub func_name: String,
    /// Header-block pc in the original program.
    pub orig_header_pc: u32,
    /// Which transform was attempted.
    pub transform: &'static str,
    /// Why it was rejected.
    pub reason: String,
    /// The violating dependence, when the rejection is dependence-shaped.
    pub witness: Option<DepWitness>,
}

/// The result of rescuing a whole program.
#[derive(Debug, Clone)]
pub struct RescueOutcome {
    /// The (possibly) transformed program.
    pub program: Program,
    /// Applied, verifier-accepted transforms in application order.
    pub rescued: Vec<RescuedLoop>,
    /// Rejections from the final fixpoint round plus any
    /// verifier-rejected variants.
    pub rejected: Vec<RescueRejection>,
}

impl RescueOutcome {
    /// True when at least one transform was applied.
    pub fn changed(&self) -> bool {
        !self.rescued.is_empty()
    }
}

// ---------------------------------------------------------------------
// forward stack provenance (matcher side; the verifier has its own
// abstract-value walker in `verify`)
// ---------------------------------------------------------------------

/// Per-instruction operand producers within one basic block, from a
/// forward stack simulation. Stack slots live at block entry are
/// `None` (unknown producer).
struct Provenance {
    ops: HashMap<u32, Vec<Option<u32>>>,
}

fn block_provenance(program: &Program, f: &Function, range: std::ops::Range<u32>) -> Provenance {
    let mut stack: Vec<Option<u32>> = Vec::new();
    let mut ops = HashMap::new();
    for idx in range {
        let instr = &f.code[idx as usize];
        let Ok((pops, pushes)) = stack_effect(program, instr) else {
            stack.clear();
            continue;
        };
        let mut popped: Vec<Option<u32>> = Vec::with_capacity(pops as usize);
        for _ in 0..pops {
            popped.push(stack.pop().flatten());
        }
        popped.reverse(); // bottom-most operand first
        ops.insert(idx, popped);
        for _ in 0..pushes {
            stack.push(Some(idx));
        }
    }
    Provenance { ops }
}

impl Provenance {
    /// Producer of operand `k` (0 = bottom-most) of instruction `idx`.
    fn operand(&self, idx: u32, k: usize) -> Option<u32> {
        self.ops.get(&idx).and_then(|v| v.get(k).copied().flatten())
    }

    /// True when `target`'s value transitively feeds instruction `idx`.
    fn feeds(&self, idx: u32, target: u32) -> bool {
        if idx == target {
            return true;
        }
        self.ops
            .get(&idx)
            .into_iter()
            .flatten()
            .flatten()
            .any(|&p| self.feeds(p, target))
    }
}

/// The instructions forming a single-operator chain
/// `target ⊕ e₁ ⊕ e₂ …` rooted at `idx`: every node is `op` with
/// exactly one operand (transitively) containing `target`, recursing on
/// that operand. Returns `None` when the expression mixes operators or
/// uses the target more than once.
fn chain_nodes(
    f: &Function,
    prov: &Provenance,
    idx: u32,
    op: &Instr,
    target: u32,
) -> Option<BTreeSet<u32>> {
    if idx == target {
        return Some(BTreeSet::from([target]));
    }
    if f.code[idx as usize] != *op {
        return None;
    }
    let a = prov.operand(idx, 0)?;
    let b = prov.operand(idx, 1)?;
    let on = match (prov.feeds(a, target), prov.feeds(b, target)) {
        (true, false) => a,
        (false, true) => b,
        _ => return None,
    };
    let mut nodes = chain_nodes(f, prov, on, op, target)?;
    nodes.insert(idx);
    Some(nodes)
}

// ---------------------------------------------------------------------
// per-loop matcher context
// ---------------------------------------------------------------------

struct LoopCtx<'a> {
    program: &'a Program,
    func: FuncId,
    f: &'a Function,
    cfg: &'a Cfg,
    dom: &'a Dominators,
    lp: &'a NaturalLoop,
    view: FnView<'a>,
    sites: Vec<AccessSite>,
    inductors: Vec<(Local, i64)>,
    load_effects: &'a [[bool; 3]],
}

impl LoopCtx<'_> {
    fn site_at(&self, pc: u32) -> Option<&AccessSite> {
        self.sites.iter().find(|s| s.instr == pc)
    }

    /// True when the channel's cell kind is `Int` (so wrapping integer
    /// reassociation is exact). For fields, every allocation site the
    /// base may point to must agree.
    fn channel_kind_is_int(&self, ch: &Channel) -> bool {
        match *ch {
            Channel::Static(g) => self.program.globals.get(g.0 as usize) == Some(&ElemKind::Int),
            Channel::Field { base, field } => {
                let (sites, unknown) = self.view.local_sites(base);
                if unknown || sites.is_empty() {
                    return false;
                }
                sites
                    .iter()
                    .all(|&s| match self.view.program().sites().get(s).kind {
                        SiteKind::Object(c) => {
                            self.program
                                .classes
                                .get(c.0 as usize)
                                .and_then(|cd| cd.fields.get(field as usize))
                                == Some(&ElemKind::Int)
                        }
                        SiteKind::Array(_) => false,
                    })
            }
        }
    }

    /// A call inside the loop whose callee may (transitively) *read*
    /// the channel's memory category. Callees that may store are
    /// already access sites; readers are invisible to the site list
    /// but would observe privatized intermediate state.
    fn reading_call_witness(&self, ch: &Channel, store_at: u32) -> Option<DepWitness> {
        let cat = ch.category();
        for &b in &self.lp.blocks {
            let block = &self.cfg.blocks[b.0 as usize];
            for idx in block.start..block.end {
                if let Instr::Call(callee) = self.f.code[idx as usize] {
                    let fi = callee.0 as usize;
                    let reads = self.load_effects.get(fi).is_some_and(|e| e[cat]);
                    if reads {
                        return Some(DepWitness {
                            src: idx,
                            dst: store_at,
                            kind: BlockKind::OpaqueCall { callee },
                        });
                    }
                }
            }
        }
        None
    }

    /// True when `base` provably holds a non-null reference at loop
    /// entry: it is not a parameter, every store to it in the function
    /// stores a freshly allocated object or array, and at least one
    /// such store dominates the loop header. Needed because entry/exit
    /// payloads dereference `base` even on zero-trip executions, which
    /// the original program would not.
    fn base_provably_nonnull(&self, base: Local) -> bool {
        if base.0 < self.f.n_params {
            return false;
        }
        let mut any_dominating = false;
        for (bi, block) in self.cfg.blocks.iter().enumerate() {
            let prov = block_provenance(self.program, self.f, block.start..block.end);
            for idx in block.start..block.end {
                match self.f.code[idx as usize] {
                    Instr::IInc(l, _) if l == base => return false,
                    Instr::Store(l) if l == base => {
                        let Some(p) = prov.operand(idx, 0) else {
                            return false;
                        };
                        if !matches!(
                            self.f.code[p as usize],
                            Instr::NewObject(_) | Instr::NewArray(_)
                        ) {
                            return false;
                        }
                        if self.dom.dominates(BlockId(bi as u32), self.lp.header)
                            && !self.lp.blocks.contains(&BlockId(bi as u32))
                        {
                            any_dominating = true;
                        }
                    }
                    _ => {}
                }
            }
        }
        any_dominating
    }
}

enum TryResult {
    /// The transform does not fit this loop at all; no diagnostic.
    NotApplicable,
    /// The transform matched but a legality condition failed.
    Rejected {
        transform: &'static str,
        reason: String,
        witness: Option<DepWitness>,
    },
    /// The transform applies; the rewritten function and claim.
    Transformed {
        function: Function,
        origin: Vec<Option<u32>>,
        transform: Transform,
        removed: String,
    },
}

fn rejected(transform: &'static str, reason: String, witness: Option<DepWitness>) -> TryResult {
    TryResult::Rejected {
        transform,
        reason,
        witness,
    }
}

fn dep_witness(d: &GuaranteedDep) -> DepWitness {
    let kind = match &d.kind {
        DepKind::Static(g) => BlockKind::SameStatic(*g),
        DepKind::Field { field, .. } => BlockKind::MayAliasField { field: *field },
        DepKind::Array { .. } => BlockKind::MayAliasArray,
    };
    DepWitness {
        src: d.load_at,
        dst: d.store_at,
        kind,
    }
}

// ---------------------------------------------------------------------
// transform 1: reduction recognition
// ---------------------------------------------------------------------

fn try_reduction(ctx: &LoopCtx<'_>, dep: &GuaranteedDep) -> TryResult {
    const T: &str = "reduction";
    let channel = match &dep.kind {
        DepKind::Static(g) => Channel::Static(*g),
        DepKind::Field { base, field } => Channel::Field {
            base: *base,
            field: *field,
        },
        DepKind::Array { .. } => return TryResult::NotApplicable,
    };
    let witness = Some(dep_witness(dep));

    if ctx.lp.entry_edges.is_empty() {
        return rejected(
            T,
            "the loop header is the function entry; no edge exists to seed the accumulator".into(),
            witness,
        );
    }
    if !ctx.channel_kind_is_int(&channel) {
        return rejected(
            T,
            format!(
                "{} is not provably an integer cell; reassociating float operations \
                 changes results",
                channel.describe()
            ),
            witness,
        );
    }
    let (Some(load_site), Some(store_site)) = (ctx.site_at(dep.load_at), ctx.site_at(dep.store_at))
    else {
        return TryResult::NotApplicable;
    };
    if load_site.block != store_site.block {
        return rejected(
            T,
            "the recurrence spans basic blocks; the update is not one straight-line \
             expression"
                .into(),
            witness,
        );
    }
    // channel exclusivity: no other site may touch the accumulator
    for s in &ctx.sites {
        if s.instr == dep.load_at || s.instr == dep.store_at {
            continue;
        }
        for t in [channel.load_template(), channel.store_template()] {
            if !strongly_disjoint(&s.access, &t, Some(&ctx.view)) {
                let w = overlap_kind(&s.access, &t, Some(&ctx.view)).map(|kind| DepWitness {
                    src: s.instr,
                    dst: dep.store_at,
                    kind,
                });
                return rejected(
                    T,
                    format!(
                        "pc {} may touch {} outside the recognized update",
                        s.instr,
                        channel.describe()
                    ),
                    w.or(witness),
                );
            }
        }
    }
    if let Some(w) = ctx.reading_call_witness(&channel, dep.store_at) {
        return rejected(
            T,
            "a call in the loop may read the accumulator's memory while partial sums \
             are private"
                .into(),
            Some(w),
        );
    }
    if let Channel::Field { base, .. } = channel {
        if !ctx.base_provably_nonnull(base) {
            return rejected(
                T,
                "cannot prove the object reference non-null at loop entry; the \
                 fold-back on a zero-trip path could fault"
                    .into(),
                witness,
            );
        }
    }

    // the stored value must be a single-operator associative chain over
    // exactly one use of the channel's loaded value
    let block = &ctx.cfg.blocks[store_site.block.0 as usize];
    let prov = block_provenance(ctx.program, ctx.f, block.start..block.end);
    let value_operand = match channel {
        Channel::Static(_) => 0,
        Channel::Field { .. } => 1,
    };
    let Some(p0) = prov.operand(dep.store_at, value_operand) else {
        return rejected(
            T,
            "the stored value's producer is not visible within the block".into(),
            witness,
        );
    };
    if p0 == dep.load_at {
        return rejected(
            T,
            "the update copies the accumulator to itself".into(),
            witness,
        );
    }
    let op = ctx.f.code[p0 as usize];
    let Some(identity) = reduction_identity(&op) else {
        return rejected(
            T,
            format!(
                "update operator {:?} is not an associative integer operator; \
                 reassociation would change the result",
                op
            ),
            witness,
        );
    };
    let Some(mut chain) = chain_nodes(ctx.f, &prov, p0, &op, dep.load_at) else {
        return rejected(
            T,
            "the accumulator flows through mixed operators; reassociation would \
             change the result"
                .into(),
            witness,
        );
    };
    chain.insert(dep.load_at);
    // no intermediate chain value may escape to a non-chain consumer
    for idx in block.start..block.end {
        if idx == dep.store_at || chain.contains(&idx) {
            continue;
        }
        if let Some(ops) = prov.ops.get(&idx) {
            if ops.iter().flatten().any(|p| chain.contains(p)) {
                return rejected(
                    T,
                    format!(
                        "pc {} consumes an intermediate value of the update chain",
                        idx
                    ),
                    witness,
                );
            }
        }
    }

    // build the delta rewrite: the iteration computes its contribution
    // against the identity, accumulates into a fresh local, and every
    // exit folds `channel = channel op acc`
    let acc = Local(ctx.f.n_locals);
    let (load_subst, store_subst, entry, exit) = match channel {
        Channel::Static(g) => (
            vec![Instr::IConst(identity)],
            vec![Instr::Load(acc), op, Instr::Store(acc)],
            vec![Instr::IConst(identity), Instr::Store(acc)],
            vec![
                Instr::GetStatic(g),
                Instr::Load(acc),
                op,
                Instr::PutStatic(g),
            ],
        ),
        Channel::Field { base, field } => (
            vec![Instr::Pop, Instr::IConst(identity)],
            vec![Instr::Load(acc), op, Instr::Store(acc), Instr::Pop],
            vec![Instr::IConst(identity), Instr::Store(acc)],
            vec![
                Instr::Load(base),
                Instr::Load(base),
                Instr::GetField(field),
                Instr::Load(acc),
                op,
                Instr::PutField(field),
            ],
        ),
    };
    let rw = LoopRewrite {
        entry_payload: entry,
        exit_payload: exit,
        subst: BTreeMap::from([(dep.load_at, load_subst), (dep.store_at, store_subst)]),
        extra_locals: 1,
    };
    match apply_loop_rewrite(ctx.func.0, ctx.f, ctx.cfg, ctx.lp, &rw) {
        Ok((function, origin)) => TryResult::Transformed {
            function,
            origin,
            transform: Transform::Reduction {
                channel,
                op,
                identity,
                acc,
                load_at: dep.load_at,
                store_at: dep.store_at,
            },
            removed: dep.reason(),
        },
        Err(e) => rejected(T, format!("rewrite failed: {}", e), witness),
    }
}

// ---------------------------------------------------------------------
// transform 2: scalar expansion / privatization
// ---------------------------------------------------------------------

fn try_privatization(ctx: &LoopCtx<'_>) -> TryResult {
    let mut channels: Vec<Channel> = Vec::new();
    for s in &ctx.sites {
        let ch = match &s.access {
            Access::StaticStore(g) => Channel::Static(*g),
            Access::FieldStore {
                base: Sym::Invariant(b),
                field,
            } => Channel::Field {
                base: *b,
                field: *field,
            },
            _ => continue,
        };
        if !channels.contains(&ch) {
            channels.push(ch);
        }
    }
    let mut first_rejection: Option<TryResult> = None;
    for ch in channels {
        match try_privatize_channel(ctx, &ch) {
            TryResult::NotApplicable => {}
            r @ TryResult::Transformed { .. } => return r,
            r @ TryResult::Rejected { .. } => {
                first_rejection.get_or_insert(r);
            }
        }
    }
    first_rejection.unwrap_or(TryResult::NotApplicable)
}

fn try_privatize_channel(ctx: &LoopCtx<'_>, ch: &Channel) -> TryResult {
    const T: &str = "privatization";
    let (loads, stores): (Vec<&AccessSite>, Vec<&AccessSite>) = ctx
        .sites
        .iter()
        .filter(|s| ch.matches(&s.access))
        .partition(|s| s.access.is_load());
    if stores.is_empty() {
        return TryResult::NotApplicable;
    }
    // profitability: replacing a single store with entry-load +
    // exit-store adds memory traffic instead of removing it
    if loads.len() + stores.len() < 2 {
        return TryResult::NotApplicable;
    }
    if ctx.lp.entry_edges.is_empty() {
        return TryResult::NotApplicable;
    }
    let chan_witness = |src: u32| {
        Some(DepWitness {
            src,
            dst: stores[0].instr,
            kind: ch.block_kind(),
        })
    };
    // exclusivity: every other site must be provably off-channel
    for s in &ctx.sites {
        if ch.matches(&s.access) {
            continue;
        }
        for t in [ch.load_template(), ch.store_template()] {
            if !strongly_disjoint(&s.access, &t, Some(&ctx.view)) {
                let w = overlap_kind(&s.access, &t, Some(&ctx.view)).map(|kind| DepWitness {
                    src: s.instr,
                    dst: stores[0].instr,
                    kind,
                });
                return rejected(
                    T,
                    format!("pc {} may alias {}", s.instr, ch.describe()),
                    w.or_else(|| chan_witness(s.instr)),
                );
            }
        }
    }
    if let Some(w) = ctx.reading_call_witness(ch, stores[0].instr) {
        return rejected(
            T,
            "a call in the loop may read the cell while it is privatized".into(),
            Some(w),
        );
    }
    // written-before-read: every load must be preceded (same-block
    // order or strict dominance) by a channel store, so no value flows
    // into an iteration through the cell
    for l in &loads {
        if !stores.iter().any(|s| load_precedes_store(ctx.dom, s, l)) {
            return rejected(
                T,
                format!(
                    "pc {} may read {} before the iteration writes it; the value \
                     flows across iterations and cannot be privatized",
                    l.instr,
                    ch.describe()
                ),
                chan_witness(l.instr),
            );
        }
    }
    if let Channel::Field { base, .. } = ch {
        if !ctx.base_provably_nonnull(*base) {
            return rejected(
                T,
                "cannot prove the object reference non-null at loop entry; the \
                 write-back on a zero-trip path could fault"
                    .into(),
                chan_witness(stores[0].instr),
            );
        }
    }

    let tmp = Local(ctx.f.n_locals);
    let mut subst: BTreeMap<u32, Vec<Instr>> = BTreeMap::new();
    for l in &loads {
        subst.insert(
            l.instr,
            match ch {
                Channel::Static(_) => vec![Instr::Load(tmp)],
                Channel::Field { .. } => vec![Instr::Pop, Instr::Load(tmp)],
            },
        );
    }
    for s in &stores {
        subst.insert(
            s.instr,
            match ch {
                Channel::Static(_) => vec![Instr::Store(tmp)],
                Channel::Field { .. } => vec![Instr::Store(tmp), Instr::Pop],
            },
        );
    }
    let (entry, exit) = match *ch {
        Channel::Static(g) => (
            vec![Instr::GetStatic(g), Instr::Store(tmp)],
            vec![Instr::Load(tmp), Instr::PutStatic(g)],
        ),
        Channel::Field { base, field } => (
            vec![Instr::Load(base), Instr::GetField(field), Instr::Store(tmp)],
            vec![Instr::Load(base), Instr::Load(tmp), Instr::PutField(field)],
        ),
    };
    let rw = LoopRewrite {
        entry_payload: entry,
        exit_payload: exit,
        subst,
        extra_locals: 1,
    };
    match apply_loop_rewrite(ctx.func.0, ctx.f, ctx.cfg, ctx.lp, &rw) {
        Ok((function, origin)) => TryResult::Transformed {
            function,
            origin,
            transform: Transform::Privatization {
                channel: *ch,
                tmp,
                loads: loads.iter().map(|s| s.instr).collect(),
                stores: stores.iter().map(|s| s.instr).collect(),
            },
            removed: format!(
                "iteration-local scratch traffic through {} ({} accesses per iteration \
                 replaced by one entry load and one exit store)",
                ch.describe(),
                loads.len() + stores.len()
            ),
        },
        Err(e) => rejected(T, format!("rewrite failed: {}", e), None),
    }
}

// ---------------------------------------------------------------------
// transform 3: loop distribution
// ---------------------------------------------------------------------

/// Statement boundaries of a straight-line range: maximal sub-ranges
/// with net stack depth zero at each boundary. `None` when the stack
/// model fails or depth does not return to zero.
fn split_statements(
    program: &Program,
    f: &Function,
    range: std::ops::Range<u32>,
) -> Option<Vec<(u32, u32)>> {
    let mut stmts = Vec::new();
    let mut depth: i64 = 0;
    let mut start = range.start;
    for idx in range.clone() {
        let (pops, pushes) = stack_effect(program, &f.code[idx as usize]).ok()?;
        depth -= pops as i64;
        if depth < 0 {
            return None;
        }
        depth += pushes as i64;
        if depth == 0 {
            stmts.push((start, idx + 1));
            start = idx + 1;
        }
    }
    (depth == 0 && start == range.end).then_some(stmts)
}

#[derive(Clone, Copy, PartialEq)]
enum EdgeDir {
    AtoB,
    BtoA,
    Both,
}

/// Dependence direction between two accesses of statements A and B
/// (A textually first). `None` = provably independent.
fn dep_direction(
    sa: &AccessSite,
    sb: &AccessSite,
    ivar: Local,
    step: i64,
    view: &FnView<'_>,
) -> Option<EdgeDir> {
    if !sa.access.is_store() && !sb.access.is_store() {
        return None;
    }
    if strongly_disjoint(&sa.access, &sb.access, Some(view)) {
        return None;
    }
    // affine same-base array pairs have a computable direction
    if let (
        Access::ArrayLoad {
            base: Sym::Invariant(ba),
            index:
                Sym::Affine {
                    ind: ia,
                    scale: ca,
                    offset: oa,
                },
        }
        | Access::ArrayStore {
            base: Sym::Invariant(ba),
            index:
                Sym::Affine {
                    ind: ia,
                    scale: ca,
                    offset: oa,
                },
        },
        Access::ArrayLoad {
            base: Sym::Invariant(bb),
            index:
                Sym::Affine {
                    ind: ib,
                    scale: cb,
                    offset: ob,
                },
        }
        | Access::ArrayStore {
            base: Sym::Invariant(bb),
            index:
                Sym::Affine {
                    ind: ib,
                    scale: cb,
                    offset: ob,
                },
        },
    ) = (&sa.access, &sb.access)
    {
        if ba == bb && *ia == ivar && *ib == ivar && ca == cb {
            let per = ca.checked_mul(step).unwrap_or(0);
            if per == 0 {
                return Some(EdgeDir::Both);
            }
            let delta = ob.wrapping_sub(*oa);
            if delta % per != 0 {
                return None; // addresses never coincide
            }
            let k = delta / per;
            // instances collide at iterations n_a = n_b + k
            return Some(if k > 0 { EdgeDir::BtoA } else { EdgeDir::AtoB });
        }
    }
    Some(EdgeDir::Both)
}

fn try_distribution(ctx: &LoopCtx<'_>, deps: &[GuaranteedDep]) -> TryResult {
    const T: &str = "distribution";
    let lp = ctx.lp;
    if lp.blocks.len() != 2 || lp.latches.len() != 1 || lp.entry_edges.is_empty() {
        return TryResult::NotApplicable;
    }
    let header = lp.header;
    let body = lp.latches[0];
    if body == header || lp.exit_edges.len() != 1 || lp.exit_edges[0].0 != header {
        return TryResult::NotApplicable;
    }
    let hb = &ctx.cfg.blocks[header.0 as usize];
    let bb = &ctx.cfg.blocks[body.0 as usize];
    if ctx.cfg.blocks[body.0 as usize].preds != vec![header] {
        return TryResult::NotApplicable;
    }
    // guard shape: [Load i, <const or invariant bound>, IfICmp(_, exit)]
    if hb.end - hb.start != 3 {
        return TryResult::NotApplicable;
    }
    let Instr::Load(ivar) = ctx.f.code[hb.start as usize] else {
        return TryResult::NotApplicable;
    };
    let invariant = invariant_locals(ctx.f, ctx.cfg, lp);
    match ctx.f.code[(hb.start + 1) as usize] {
        Instr::IConst(_) => {}
        Instr::Load(b) if b != ivar && invariant.get(b.0 as usize).copied().unwrap_or(false) => {}
        _ => return TryResult::NotApplicable,
    }
    let Instr::IfICmp(_, t) = ctx.f.code[(hb.end - 1) as usize] else {
        return TryResult::NotApplicable;
    };
    // taken edge must leave the loop; fallthrough must be the body
    let exit_ok = ctx
        .cfg
        .block_of(t)
        .is_some_and(|tb| !lp.blocks.contains(&tb));
    let ft_ok = ctx.cfg.block_of(hb.end) == Some(body);
    if !exit_ok || !ft_ok {
        return TryResult::NotApplicable;
    }
    let Some(&(_, step)) = ctx.inductors.iter().find(|&&(l, _)| l == ivar) else {
        return TryResult::NotApplicable;
    };
    if step == 0 {
        return TryResult::NotApplicable;
    }
    // body shape: [stmts..., IInc(i, step), Goto(header)]
    if bb.end - bb.start < 3 {
        return TryResult::NotApplicable;
    }
    let Instr::IInc(v, c) = ctx.f.code[(bb.end - 2) as usize] else {
        return TryResult::NotApplicable;
    };
    if v != ivar || c as i64 != step {
        return TryResult::NotApplicable;
    }
    let Instr::Goto(back) = ctx.f.code[(bb.end - 1) as usize] else {
        return TryResult::NotApplicable;
    };
    if ctx.cfg.block_of(back) != Some(header) {
        return TryResult::NotApplicable;
    }
    let stmt_range = bb.start..bb.end - 2;
    for idx in stmt_range.clone() {
        match ctx.f.code[idx as usize] {
            // no other definition of the inductor
            Instr::Store(l) | Instr::IInc(l, _) if l == ivar => return TryResult::NotApplicable,
            // faults and allocations must keep their program order:
            // division can trap, allocation order decides heap addresses
            Instr::IDiv | Instr::IRem | Instr::NewObject(_) | Instr::NewArray(_) => {
                return rejected(
                    T,
                    format!(
                        "pc {} can fault or allocate; reordering it across fission \
                         loops changes observable behavior",
                        idx
                    ),
                    deps.first().map(dep_witness),
                )
            }
            Instr::Call(callee) => {
                return rejected(
                    T,
                    format!(
                        "the call at pc {} pins statement order; its side effects \
                         cannot be reordered across fission loops",
                        idx
                    ),
                    Some(DepWitness {
                        src: idx,
                        dst: idx,
                        kind: BlockKind::OpaqueCall { callee },
                    }),
                )
            }
            _ => {}
        }
    }
    let Some(stmts) = split_statements(ctx.program, ctx.f, stmt_range) else {
        return TryResult::NotApplicable;
    };
    if stmts.len() < 2 {
        return TryResult::NotApplicable;
    }

    // statement-level dependence graph
    let n = stmts.len();
    let reads_writes: Vec<(BTreeSet<Local>, BTreeSet<Local>)> = stmts
        .iter()
        .map(|&(s, e)| {
            let mut r = BTreeSet::new();
            let mut w = BTreeSet::new();
            for idx in s..e {
                match ctx.f.code[idx as usize] {
                    Instr::Load(l) if l != ivar => {
                        r.insert(l);
                    }
                    Instr::Store(l) => {
                        w.insert(l);
                    }
                    Instr::IInc(l, _) => {
                        r.insert(l);
                        w.insert(l);
                    }
                    _ => {}
                }
            }
            (r, w)
        })
        .collect();
    let stmt_of = |pc: u32| stmts.iter().position(|&(s, e)| pc >= s && pc < e);
    let mut edges = vec![[false; 2]; n * n]; // [a*n+b][0]=a→b, [1]=b→a ... flattened
    let mut edge = |a: usize, b: usize, dir: EdgeDir| {
        let (lo, hi, flip) = if a <= b { (a, b, false) } else { (b, a, true) };
        let cell = &mut edges[lo * n + hi];
        match (dir, flip) {
            (EdgeDir::Both, _) => {
                cell[0] = true;
                cell[1] = true;
            }
            (EdgeDir::AtoB, false) | (EdgeDir::BtoA, true) => cell[0] = true,
            (EdgeDir::AtoB, true) | (EdgeDir::BtoA, false) => cell[1] = true,
        }
    };
    let mut cycle_witness: Option<DepWitness> = None;
    for a in 0..n {
        for b in a + 1..n {
            let (ra, wa) = &reads_writes[a];
            let (rb, wb) = &reads_writes[b];
            let scalar_conflict = wa.intersection(rb).next().is_some()
                || wa.intersection(wb).next().is_some()
                || ra.intersection(wb).next().is_some();
            if scalar_conflict {
                edge(a, b, EdgeDir::Both);
            }
            for sa in ctx.sites.iter().filter(|s| stmt_of(s.instr) == Some(a)) {
                for sb in ctx.sites.iter().filter(|s| stmt_of(s.instr) == Some(b)) {
                    if let Some(dir) = dep_direction(sa, sb, ivar, step, &ctx.view) {
                        edge(a, b, dir);
                        if dir == EdgeDir::Both && cycle_witness.is_none() {
                            cycle_witness = overlap_kind(&sa.access, &sb.access, Some(&ctx.view))
                                .map(|kind| DepWitness {
                                    src: sa.instr,
                                    dst: sb.instr,
                                    kind,
                                });
                        }
                    }
                }
            }
        }
    }
    let has_edge = |a: usize, b: usize| -> bool {
        if a <= b {
            edges[a * n + b][0]
        } else {
            edges[b * n + a][1]
        }
    };
    // condensation into SCCs via pairwise reachability (n is tiny)
    let mut reach = vec![false; n * n];
    for a in 0..n {
        for b in 0..n {
            reach[a * n + b] = a != b && has_edge(a, b);
        }
    }
    for k in 0..n {
        for a in 0..n {
            for b in 0..n {
                if reach[a * n + k] && reach[k * n + b] {
                    reach[a * n + b] = true;
                }
            }
        }
    }
    let mut scc_of = vec![usize::MAX; n];
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    for a in 0..n {
        if scc_of[a] != usize::MAX {
            continue;
        }
        let id = sccs.len();
        let mut members = vec![a];
        scc_of[a] = id;
        for b in a + 1..n {
            if scc_of[b] == usize::MAX && reach[a * n + b] && reach[b * n + a] {
                scc_of[b] = id;
                members.push(b);
            }
        }
        sccs.push(members);
    }
    if sccs.len() < 2 {
        return rejected(
            T,
            "every statement sits in one dependence cycle; no split is possible".into(),
            cycle_witness.or_else(|| deps.first().map(dep_witness)),
        );
    }
    // topological order of the condensation, ties by first statement
    let mut order: Vec<usize> = Vec::new();
    let mut placed = vec![false; sccs.len()];
    while order.len() < sccs.len() {
        let mut next: Option<usize> = None;
        for (gi, members) in sccs.iter().enumerate() {
            if placed[gi] {
                continue;
            }
            let blocked = (0..sccs.len()).any(|gj| {
                gj != gi
                    && !placed[gj]
                    && sccs[gj]
                        .iter()
                        .any(|&b| members.iter().any(|&a| has_edge(b, a)))
            });
            if blocked {
                continue;
            }
            let key = members.iter().copied().min().unwrap_or(usize::MAX);
            if next.is_none_or(|prev| key < sccs[prev].iter().copied().min().unwrap_or(usize::MAX))
            {
                next = Some(gi);
            }
        }
        let Some(gi) = next else {
            // cyclic condensation cannot happen, but never loop forever
            return TryResult::NotApplicable;
        };
        placed[gi] = true;
        order.push(gi);
    }
    // usefulness: at least one group must be free of every proven
    // recurrence, otherwise the split rescues nothing
    let dep_stmts: BTreeSet<usize> = deps
        .iter()
        .flat_map(|d| [stmt_of(d.load_at), stmt_of(d.store_at)])
        .flatten()
        .collect();
    let clean_group_exists = order
        .iter()
        .any(|&gi| sccs[gi].iter().all(|s| !dep_stmts.contains(s)));
    if !deps.is_empty() && !clean_group_exists {
        return rejected(
            T,
            "the recurrence's statements reach every group; distribution cannot \
             isolate it"
                .into(),
            deps.first().map(dep_witness),
        );
    }

    let groups: Vec<Vec<(u32, u32)>> = order
        .iter()
        .map(|&gi| {
            let mut members = sccs[gi].clone();
            members.sort_unstable();
            members.iter().map(|&s| stmts[s]).collect()
        })
        .collect();
    let g_count = groups.len();
    let inductors: Vec<Local> = (0..g_count)
        .map(|g| {
            if g + 1 == g_count {
                ivar
            } else {
                Local(ctx.f.n_locals + g as u16)
            }
        })
        .collect();
    let plan = DistributionPlan {
        header,
        body,
        groups: groups.clone(),
        inductors: inductors.clone(),
        orig_inductor: ivar,
        extra_locals: (g_count - 1) as u16,
    };
    match apply_distribution(ctx.func.0, ctx.f, ctx.cfg, &plan) {
        Ok((function, origin)) => {
            let anchor_of = |pc: u32| origin.iter().position(|&o| o == Some(pc)).map(|i| i as u32);
            let anchors: Vec<u32> = groups
                .iter()
                .filter_map(|g| g.first().and_then(|&(s, _)| anchor_of(s)))
                .collect();
            if anchors.len() != g_count {
                return TryResult::NotApplicable;
            }
            TryResult::Transformed {
                function,
                origin,
                transform: Transform::Distribution {
                    groups,
                    inductors,
                    orig_inductor: ivar,
                    anchors,
                },
                removed: match deps.first() {
                    Some(d) => format!(
                        "split into {} loops; {} is confined to one of them",
                        g_count,
                        d.reason()
                    ),
                    None => format!("split into {} independent loops", g_count),
                },
            }
        }
        Err(e) => rejected(T, format!("rewrite failed: {}", e), None),
    }
}

// ---------------------------------------------------------------------
// driver
// ---------------------------------------------------------------------

fn compose(old: &[Option<u32>], new: &[Option<u32>]) -> Vec<Option<u32>> {
    new.iter()
        .map(|&o| o.and_then(|p| old.get(p as usize).copied().flatten()))
        .collect()
}

/// Maps the current header block of `lp` back to a pc in the original
/// program through the cumulative origin map.
fn original_header_pc(cum: &[Option<u32>], cfg: &Cfg, lp: &NaturalLoop) -> u32 {
    let hb = &cfg.blocks[lp.header.0 as usize];
    (hb.start..hb.end)
        .find_map(|pc| cum.get(pc as usize).copied().flatten())
        .unwrap_or(hb.start)
}

/// Rescues every loop of `program` that a legal transform can fix,
/// re-extracting candidates after each application until a fixpoint
/// (or [`MAX_ROUNDS`]). Every applied transform was accepted by the
/// independent legality checker ([`verify::check`]); variants the
/// checker rejected are blocklisted and reported in
/// [`RescueOutcome::rejected`].
///
/// Extracts `program` first; a caller that already holds its eager
/// extraction passes it to [`rescue_extracted`] instead.
pub fn rescue_program(program: &Program) -> RescueOutcome {
    rescue_extracted(program, &extract_candidates(program)).0
}

/// [`rescue_program`] starting from `cands`, which must be the eager
/// ([`crate::Prescreen::Eager`]) extraction of `program`: round 0
/// reads its per-function analyses, verdicts and points-to solve
/// instead of solving them again. Alongside the outcome comes the
/// eager extraction of [`RescueOutcome::program`] when a transform was
/// applied; when none was, `cands` still describes that program.
pub fn rescue_extracted(
    program: &Program,
    cands: &ProgramCandidates,
) -> (RescueOutcome, Option<ProgramCandidates>) {
    rescue_with(program, cands, None)
}

/// Rescues a single loop, identified by its containing function and
/// the pc of its header block *in the original program*.
///
/// This is the tier controller's scoped entry point: when one hot loop
/// needs rescuing there is no reason to run the whole-program fixpoint.
/// Loops other than the target are left untouched (their code is
/// byte-identical to the input), so a caller holding per-loop state
/// keyed by original header pcs stays consistent.
pub fn rescue_loop(program: &Program, func: FuncId, orig_header_pc: u32) -> RescueOutcome {
    let cands = extract_candidates(program);
    rescue_with(program, &cands, Some((func, orig_header_pc))).0
}

fn rescue_with(
    program: &Program,
    cands: &ProgramCandidates,
    target: Option<(FuncId, u32)>,
) -> (RescueOutcome, Option<ProgramCandidates>) {
    let mut cur = program.clone();
    let mut cum: Vec<Vec<Option<u32>>> = program
        .functions
        .iter()
        .map(|f| (0..f.code.len() as u32).map(Some).collect())
        .collect();
    let mut rescued: Vec<RescuedLoop> = Vec::new();
    let mut blocked: BTreeSet<String> = BTreeSet::new();
    let mut blocked_rejections: Vec<RescueRejection> = Vec::new();
    let mut last_rejections: Vec<RescueRejection> = Vec::new();
    let mut rescued_cands: Option<ProgramCandidates> = None;

    for _round in 0..MAX_ROUNDS {
        last_rejections.clear();
        let cands = rescued_cands.as_ref().unwrap_or(cands);
        let load_effects = transitive_load_effects(&cur);
        let store_effects = transitive_store_effects(&cur);
        let mut applied: Option<(usize, Function, Vec<Option<u32>>, RescuedLoop)> = None;

        'cands: for c in &cands.candidates {
            let fi = c.func.0 as usize;
            let fa = &cands.functions[fi];
            let f = &cur.functions[fi];
            let lp = &fa.forest.loops[c.loop_idx];
            let orig_header_pc = original_header_pc(&cum[fi], &fa.cfg, lp);
            if let Some((tf, tpc)) = target {
                if c.func != tf || orig_header_pc != tpc {
                    continue;
                }
            }
            let view = cands.pointsto.view(c.func);
            let inductors = inductor_steps(f, &fa.cfg, &fa.dom, lp);
            let invariant = invariant_locals(f, &fa.cfg, lp);
            let sites =
                collect_accesses(&cur, f, &fa.cfg, lp, &inductors, &invariant, &store_effects);
            // an eager extraction demotes exactly the loops with a
            // guaranteed dependence, so a clean loop has none
            let deps = if c.is_demoted() {
                analyze_loop(&cur, f, &fa.cfg, &fa.dom, lp, Some(&view))
            } else {
                Vec::new()
            };
            let header_block = fa.cfg.blocks[lp.header.0 as usize].clone();
            let ctx = LoopCtx {
                program: &cur,
                func: c.func,
                f,
                cfg: &fa.cfg,
                dom: &fa.dom,
                lp,
                view,
                sites,
                inductors,
                load_effects: &load_effects,
            };

            let mut attempts: Vec<TryResult> = Vec::new();
            if c.is_demoted() {
                for dep in &deps {
                    attempts.push(try_reduction(&ctx, dep));
                }
                attempts.push(try_distribution(&ctx, &deps));
            }
            attempts.push(try_privatization(&ctx));

            let mut any_diag = false;
            for att in attempts {
                match att {
                    TryResult::NotApplicable => {}
                    TryResult::Rejected {
                        transform,
                        reason,
                        witness,
                    } => {
                        any_diag = true;
                        last_rejections.push(RescueRejection {
                            func: c.func,
                            func_name: f.name.clone(),
                            orig_header_pc,
                            transform,
                            reason,
                            witness,
                        });
                    }
                    TryResult::Transformed {
                        function,
                        origin,
                        transform,
                        removed,
                    } => {
                        any_diag = true;
                        let sig = format!("f{}@{}:{}", fi, orig_header_pc, transform.target());
                        if blocked.contains(&sig) {
                            continue;
                        }
                        let post_anchor = match &transform {
                            Transform::Distribution { anchors, .. } => anchors[0],
                            _ => {
                                let found = origin.iter().position(|&o| {
                                    o.is_some_and(|p| {
                                        p >= header_block.start && p < header_block.end
                                    })
                                });
                                match found {
                                    Some(i) => i as u32,
                                    None => continue,
                                }
                            }
                        };
                        let proof = LegalityProof {
                            func: c.func,
                            pre_anchor: header_block.start,
                            post_anchor,
                            transform,
                        };
                        let mut newp = cur.clone();
                        newp.functions[fi] = function.clone();
                        match verify::check(&cur, &newp, &proof) {
                            Ok(()) => {
                                applied = Some((
                                    fi,
                                    function,
                                    origin,
                                    RescuedLoop {
                                        func: c.func,
                                        func_name: f.name.clone(),
                                        orig_header_pc,
                                        removed,
                                        proof,
                                    },
                                ));
                                break 'cands;
                            }
                            Err(msg) => {
                                blocked.insert(sig);
                                blocked_rejections.push(RescueRejection {
                                    func: c.func,
                                    func_name: f.name.clone(),
                                    orig_header_pc,
                                    transform: proof.transform.name(),
                                    reason: format!(
                                        "legality checker rejected the transformed \
                                         loop: {}",
                                        msg
                                    ),
                                    witness: None,
                                });
                            }
                        }
                    }
                }
            }
            if c.is_demoted() && !any_diag {
                if let Some(d) = deps.first() {
                    last_rejections.push(RescueRejection {
                        func: c.func,
                        func_name: f.name.clone(),
                        orig_header_pc,
                        transform: "rescue",
                        reason: format!("no transform matches: {}", d.reason()),
                        witness: Some(dep_witness(d)),
                    });
                }
            }
        }

        match applied {
            Some((fi, function, origin, entry)) => {
                cur.functions[fi] = function;
                cum[fi] = compose(&cum[fi], &origin);
                rescued.push(entry);
                rescued_cands = Some(extract_candidates(&cur));
            }
            None => break,
        }
    }

    last_rejections.extend(blocked_rejections);
    let outcome = RescueOutcome {
        program: cur,
        rescued,
        rejected: last_rejections,
    };
    (outcome, rescued_cands)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm::interp::Interp;
    use tvm::trace::NullSink;
    use tvm::ElemKind;
    use tvm::ProgramBuilder;

    /// Runs both programs to completion and asserts bit-identical
    /// final state (return value and whole memory image).
    fn assert_same_state(a: &Program, b: &Program) {
        let sa = Interp::run_state(a, &mut NullSink).unwrap();
        let sb = Interp::run_state(b, &mut NullSink).unwrap();
        assert_eq!(sa.result.ret, sb.result.ret, "return values diverge");
        assert_eq!(
            sa.memory.words(),
            sb.memory.words(),
            "final memory images diverge"
        );
    }

    fn demoted_count(p: &Program) -> usize {
        extract_candidates(p)
            .candidates
            .iter()
            .filter(|c| c.is_demoted())
            .count()
    }

    /// `g += a[i]` — the classic sum reduction over a static. The seed
    /// loop is demoted for its static recurrence; rescue must lift it.
    fn sum_program() -> Program {
        let mut b = ProgramBuilder::new();
        let g = b.global(ElemKind::Int);
        let main = b.function("main", 0, true, |f| {
            let (a, i) = (f.local(), f.local());
            f.ci(64).newarray(ElemKind::Int).st(a);
            f.for_in(i, 0.into(), 64.into(), |f| {
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
            f.for_in(i, 0.into(), 64.into(), |f| {
                f.getstatic(g).ld(a).ld(i).aload().iadd().putstatic(g);
            });
            f.getstatic(g).ret();
        });
        b.finish(main).unwrap()
    }

    #[test]
    fn sum_reduction_is_rescued() {
        let p = sum_program();
        assert_eq!(demoted_count(&p), 1, "the reduction loop starts demoted");
        let out = rescue_program(&p);
        assert_eq!(out.rescued.len(), 1, "rejections: {:?}", out.rejected);
        assert!(matches!(
            out.rescued[0].proof.transform,
            Transform::Reduction {
                op: Instr::IAdd,
                identity: 0,
                ..
            }
        ));
        assert_eq!(demoted_count(&out.program), 0, "the rescued loop is clean");
        assert_same_state(&p, &out.program);
    }

    #[test]
    fn max_reduction_is_rescued() {
        // g = max(g, a[i]) with g seeded negative so the identity
        // (i64::MIN) must not leak into the final value
        let mut b = ProgramBuilder::new();
        let g = b.global(ElemKind::Int);
        let main = b.function("main", 0, true, |f| {
            let (a, i) = (f.local(), f.local());
            f.ci(-7).putstatic(g);
            f.ci(32).newarray(ElemKind::Int).st(a);
            f.for_in(i, 0.into(), 32.into(), |f| {
                f.arr_set(
                    a,
                    |f| {
                        f.ld(i);
                    },
                    |f| {
                        f.ld(i).ci(17).imul().ci(100).isub();
                    },
                );
            });
            f.for_in(i, 0.into(), 32.into(), |f| {
                f.getstatic(g).ld(a).ld(i).aload().imax().putstatic(g);
            });
            f.getstatic(g).ret();
        });
        let p = b.finish(main).unwrap();
        let out = rescue_program(&p);
        assert_eq!(out.rescued.len(), 1, "rejections: {:?}", out.rejected);
        assert!(matches!(
            out.rescued[0].proof.transform,
            Transform::Reduction {
                op: Instr::IMax,
                identity: i64::MIN,
                ..
            }
        ));
        assert_same_state(&p, &out.program);
    }

    #[test]
    fn product_reduction_is_rescued() {
        // g *= a[i], identity 1
        let mut b = ProgramBuilder::new();
        let g = b.global(ElemKind::Int);
        let main = b.function("main", 0, true, |f| {
            let (a, i) = (f.local(), f.local());
            f.ci(1).putstatic(g);
            f.ci(8).newarray(ElemKind::Int).st(a);
            f.for_in(i, 0.into(), 8.into(), |f| {
                f.arr_set(
                    a,
                    |f| {
                        f.ld(i);
                    },
                    |f| {
                        f.ld(i).ci(2).iadd();
                    },
                );
            });
            f.for_in(i, 0.into(), 8.into(), |f| {
                f.getstatic(g).ld(a).ld(i).aload().imul().putstatic(g);
            });
            f.getstatic(g).ret();
        });
        let p = b.finish(main).unwrap();
        let out = rescue_program(&p);
        assert_eq!(out.rescued.len(), 1, "rejections: {:?}", out.rejected);
        assert!(matches!(
            out.rescued[0].proof.transform,
            Transform::Reduction {
                op: Instr::IMul,
                identity: 1,
                ..
            }
        ));
        assert_same_state(&p, &out.program);
    }

    #[test]
    fn field_reduction_is_rescued() {
        // o.f += a[i] where o is a fresh allocation dominating the loop
        let mut b = ProgramBuilder::new();
        let c = b.class(&[ElemKind::Int]);
        let main = b.function("main", 0, true, |f| {
            let (o, a, i) = (f.local(), f.local(), f.local());
            f.newobject(c).st(o);
            f.ci(16).newarray(ElemKind::Int).st(a);
            f.for_in(i, 0.into(), 16.into(), |f| {
                f.arr_set(
                    a,
                    |f| {
                        f.ld(i);
                    },
                    |f| {
                        f.ld(i).ci(5).imul();
                    },
                );
            });
            f.for_in(i, 0.into(), 16.into(), |f| {
                f.ld(o)
                    .ld(o)
                    .getfield(0)
                    .ld(a)
                    .ld(i)
                    .aload()
                    .iadd()
                    .putfield(0);
            });
            f.ld(o).getfield(0).ret();
        });
        let p = b.finish(main).unwrap();
        let out = rescue_program(&p);
        assert_eq!(out.rescued.len(), 1, "rejections: {:?}", out.rejected);
        assert!(matches!(
            out.rescued[0].proof.transform,
            Transform::Reduction {
                channel: Channel::Field { .. },
                op: Instr::IAdd,
                ..
            }
        ));
        assert_same_state(&p, &out.program);
    }

    #[test]
    fn float_reduction_is_rejected() {
        // g += a[i] over floats: reassociation is inexact, must stay
        // serial
        let mut b = ProgramBuilder::new();
        let g = b.global(ElemKind::Float);
        let main = b.function("main", 0, false, |f| {
            let (a, i) = (f.local(), f.local());
            f.ci(8).newarray(ElemKind::Float).st(a);
            f.for_in(i, 0.into(), 8.into(), |f| {
                f.getstatic(g).ld(a).ld(i).aload().fadd().putstatic(g);
            });
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        let out = rescue_program(&p);
        assert!(out.rescued.is_empty(), "rescued: {:?}", out.rescued);
        assert!(
            out.rejected.iter().any(|r| r.transform == "reduction"),
            "expected a reduction rejection, got {:?}",
            out.rejected
        );
        assert_same_state(&p, &out.program);
    }

    #[test]
    fn subtraction_chain_is_not_a_reduction() {
        // g = g - a[i] is not associative; must be rejected
        let mut b = ProgramBuilder::new();
        let g = b.global(ElemKind::Int);
        let main = b.function("main", 0, true, |f| {
            let (a, i) = (f.local(), f.local());
            f.ci(8).newarray(ElemKind::Int).st(a);
            f.for_in(i, 0.into(), 8.into(), |f| {
                f.getstatic(g).ld(a).ld(i).aload().isub().putstatic(g);
            });
            f.getstatic(g).ret();
        });
        let p = b.finish(main).unwrap();
        let out = rescue_program(&p);
        assert!(out.rescued.is_empty(), "rescued: {:?}", out.rescued);
        assert_same_state(&p, &out.program);
    }

    #[test]
    fn escaping_chain_value_is_not_a_reduction() {
        // tmp = g + a[i]; g = tmp; b[i] = tmp — after the delta
        // rewrite tmp would hold the delta, not the running sum, so
        // the matcher and verifier must both refuse
        let mut b = ProgramBuilder::new();
        let g = b.global(ElemKind::Int);
        let main = b.function("main", 0, true, |f| {
            let (a, o, i, t) = (f.local(), f.local(), f.local(), f.local());
            f.ci(8).newarray(ElemKind::Int).st(a);
            f.ci(8).newarray(ElemKind::Int).st(o);
            f.for_in(i, 0.into(), 8.into(), |f| {
                f.getstatic(g).ld(a).ld(i).aload().iadd().st(t);
                f.ld(t).putstatic(g);
                f.arr_set(
                    o,
                    |f| {
                        f.ld(i);
                    },
                    |f| {
                        f.ld(t);
                    },
                );
            });
            f.getstatic(g).ret();
        });
        let p = b.finish(main).unwrap();
        let out = rescue_program(&p);
        assert!(
            !out.rescued
                .iter()
                .any(|r| matches!(r.proof.transform, Transform::Reduction { .. })),
            "a reduction with an escaping chain value was rescued: {:?}",
            out.rescued
        );
        assert_same_state(&p, &out.program);
    }

    #[test]
    fn privatizable_temporary_is_rescued() {
        // g is a scratch cell: written then read every iteration; the
        // store-load pair through memory serializes the loop until g
        // is privatized into a fresh local
        let mut b = ProgramBuilder::new();
        let g = b.global(ElemKind::Int);
        let main = b.function("main", 0, true, |f| {
            let (a, o, i) = (f.local(), f.local(), f.local());
            f.ci(16).newarray(ElemKind::Int).st(a);
            f.ci(16).newarray(ElemKind::Int).st(o);
            f.for_in(i, 0.into(), 16.into(), |f| {
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
            f.for_in(i, 0.into(), 16.into(), |f| {
                f.ld(a).ld(i).aload().ci(1).iadd().putstatic(g);
                f.arr_set(
                    o,
                    |f| {
                        f.ld(i);
                    },
                    |f| {
                        f.getstatic(g).getstatic(g).imul();
                    },
                );
            });
            f.getstatic(g).ret();
        });
        let p = b.finish(main).unwrap();
        let out = rescue_program(&p);
        assert!(
            out.rescued
                .iter()
                .any(|r| matches!(r.proof.transform, Transform::Privatization { .. })),
            "no privatization applied; rejected: {:?}",
            out.rejected
        );
        assert_same_state(&p, &out.program);
    }

    #[test]
    fn read_before_write_scalar_is_not_privatized() {
        // o[i] = g; g = a[i] — the load sees the *previous* iteration's
        // store, so the value genuinely flows across iterations
        let mut b = ProgramBuilder::new();
        let g = b.global(ElemKind::Int);
        let main = b.function("main", 0, true, |f| {
            let (a, o, i) = (f.local(), f.local(), f.local());
            f.ci(8).newarray(ElemKind::Int).st(a);
            f.ci(8).newarray(ElemKind::Int).st(o);
            f.for_in(i, 0.into(), 8.into(), |f| {
                f.arr_set(
                    a,
                    |f| {
                        f.ld(i);
                    },
                    |f| {
                        f.ld(i).ci(7).imul();
                    },
                );
            });
            f.for_in(i, 0.into(), 8.into(), |f| {
                f.arr_set(
                    o,
                    |f| {
                        f.ld(i);
                    },
                    |f| {
                        f.getstatic(g);
                    },
                );
                f.ld(a).ld(i).aload().putstatic(g);
            });
            f.getstatic(g).ret();
        });
        let p = b.finish(main).unwrap();
        let out = rescue_program(&p);
        assert!(
            !out.rescued
                .iter()
                .any(|r| matches!(r.proof.transform, Transform::Privatization { .. })),
            "a read-before-write cell was privatized: {:?}",
            out.rescued
        );
        assert_same_state(&p, &out.program);
    }

    #[test]
    fn distribution_splits_out_the_serial_scc() {
        // one parallel statement (a[i] *= 2) fused with one serial one
        // (r[i] = r[i-1] + 1): distribution must split them so the
        // parallel half becomes a clean loop
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, true, |f| {
            let (a, r, i) = (f.local(), f.local(), f.local());
            f.ci(32).newarray(ElemKind::Int).st(a);
            f.ci(32).newarray(ElemKind::Int).st(r);
            f.for_in(i, 0.into(), 32.into(), |f| {
                f.arr_set(
                    a,
                    |f| {
                        f.ld(i);
                    },
                    |f| {
                        f.ld(i).ci(11).imul();
                    },
                );
            });
            f.for_in(i, 1.into(), 32.into(), |f| {
                f.ld(a).ld(i); // a[i] = a[i] * 2
                f.ld(a).ld(i).aload().ci(2).imul();
                f.astore();
                f.ld(r).ld(i); // r[i] = r[i-1] + 1
                f.ld(r).ld(i).ci(1).isub().aload().ci(1).iadd();
                f.astore();
            });
            f.ld(a).ci(31).aload().ld(r).ci(31).aload().iadd().ret();
        });
        let p = b.finish(main).unwrap();
        assert_eq!(demoted_count(&p), 1);
        let out = rescue_program(&p);
        assert!(
            out.rescued
                .iter()
                .any(|r| matches!(r.proof.transform, Transform::Distribution { .. })),
            "no distribution applied; rejected: {:?}",
            out.rejected
        );
        // the fission produced one clean loop; the serial SCC stays
        // demoted and is reported as unrescuable
        let after = extract_candidates(&out.program);
        let loops_after: Vec<bool> = after.candidates.iter().map(|c| c.is_demoted()).collect();
        assert!(
            loops_after.iter().filter(|d| !**d).count() > 1,
            "expected a new clean loop, got {:?}",
            loops_after
        );
        assert_eq!(demoted_count(&out.program), 1, "the serial SCC remains");
        assert_same_state(&p, &out.program);
    }

    #[test]
    fn verifier_rejects_a_broken_transform() {
        // sabotage a valid rescue three different ways; the verifier
        // must catch each one on its own, without the matcher's help
        let p = sum_program();
        let out = rescue_program(&p);
        assert_eq!(out.rescued.len(), 1);
        let proof = &out.rescued[0].proof;
        let good = &out.program;
        assert!(verify::check(&p, good, proof).is_ok());

        // (1) wrong identity claimed in the proof
        let mut bad_proof = proof.clone();
        if let Transform::Reduction { identity, .. } = &mut bad_proof.transform {
            *identity = 1;
        }
        assert!(verify::check(&p, good, &bad_proof).is_err());

        // (2) wrong identity seeded in the emitted code: flip the
        // entry payload's IConst(0) (the one right before Store(acc))
        let acc = match proof.transform {
            Transform::Reduction { acc, .. } => acc,
            _ => unreachable!(),
        };
        let mut tampered = good.clone();
        let code = &mut tampered.functions[proof.func.0 as usize].code;
        let mut hit = false;
        for k in 0..code.len() - 1 {
            if code[k] == Instr::IConst(0) && code[k + 1] == Instr::Store(acc) {
                code[k] = Instr::IConst(1);
                hit = true;
            }
        }
        assert!(hit, "no entry payload found to tamper with");
        assert!(verify::check(&p, &tampered, proof).is_err());

        // (3) wrong operator substituted in the loop body: turn the
        // in-loop IAdd into IMul
        let (load_at, store_at) = match proof.transform {
            Transform::Reduction {
                load_at, store_at, ..
            } => (load_at, store_at),
            _ => unreachable!(),
        };
        let _ = (load_at, store_at);
        let mut tampered2 = good.clone();
        let code2 = &mut tampered2.functions[proof.func.0 as usize].code;
        let mut hit2 = false;
        for k in 0..code2.len() - 2 {
            if code2[k] == Instr::Load(acc) && code2[k + 1] == Instr::IAdd {
                code2[k + 1] = Instr::IMul;
                hit2 = true;
                break;
            }
        }
        assert!(hit2, "no reduction update found to tamper with");
        assert!(verify::check(&p, &tampered2, proof).is_err());
    }

    #[test]
    fn rejections_carry_dependence_witnesses() {
        // a genuinely serial loop (g = g*3+1, an affine recurrence,
        // not a reduction) must surface a rejection whose witness
        // names the blocking dependence
        let mut b = ProgramBuilder::new();
        let g = b.global(ElemKind::Int);
        let main = b.function("main", 0, true, |f| {
            let i = f.local();
            f.for_in(i, 0.into(), 8.into(), |f| {
                f.getstatic(g).ci(3).imul().ci(1).iadd().putstatic(g);
            });
            f.getstatic(g).ret();
        });
        let p = b.finish(main).unwrap();
        let out = rescue_program(&p);
        assert!(out.rescued.is_empty());
        assert!(
            out.rejected.iter().any(|r| r.witness.is_some()),
            "no rejection carries a witness: {:?}",
            out.rejected
        );
    }
}
