//! # Dependence-driven loop rescue
//!
//! The static pre-screen ([`crate::memdep`]) demotes loops with a
//! *guaranteed* cross-iteration RAW dependence: tracing them would be
//! wasted effort because the TEST hardware must serialize them. Some of
//! those recurrences are not essential, though. A reduction
//! `g = g ⊕ e` over an associative, commutative *integer* operator
//! (`+ * min max & | ^`; wrapping integer arithmetic is exact under
//! reassociation, floats are not) is an artifact of how the source was
//! written: it becomes a privatized partial reduction, where each
//! iteration accumulates into a fresh local seeded with the operator's
//! identity and every loop exit folds the partial result back into the
//! memory cell.
//!
//! Reduction recognition is the only rescue transform. Scalar
//! privatization and loop distribution were measured and removed: on
//! the 26 suite programs neither ever fired, and over `fuzzgen` seeds
//! 0..2000 privatization made the simulated TLS time worse in 21
//! programs and better in 8 (geomean 1.017×), while distribution
//! improved 6 and worsened 8 (geomean 0.964×, best 0.78×) — too little
//! gain for two transforms, two checkers and their rejections.
//!
//! Every applied rewrite produces a [`LegalityProof`]. A separate
//! module, [`verify`], re-derives the dependence facts on the
//! transformed code with its own walkers and rejects any variant whose
//! dependence set is not a refinement of the original's — the transform
//! and its checker are deliberately independent code paths, so a bug in
//! the matcher shows up as a verifier rejection instead of a miscompile.
//!
//! The rewrite assumes fault-free execution of the loop body: it
//! reorders arithmetic, not faults. A field-channel fold-back is only
//! emitted when the object reference is provably non-null at loop
//! entry.

mod rewrite;
pub mod verify;

use crate::access::{
    collect_accesses, inductor_steps, invariant_locals, overlap_kind, strongly_disjoint,
    transitive_load_effects, Access, AccessSite, BlockKind, DepWitness, Sym,
};
use crate::candidates::{extract_candidates, ProgramCandidates};
use crate::cfg::{BlockId, Cfg};
use crate::dom::Dominators;
use crate::loops::NaturalLoop;
use crate::memdep::{DepKind, GuaranteedDep};
use crate::pointsto::FnView;
use rewrite::{apply_loop_rewrite, LoopRewrite};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use tvm::alloc::SiteKind;
use tvm::isa::{ElemKind, Instr};
use tvm::program::{FuncId, Function, GlobalId, Local, Program};
use tvm::verify::stack_effect;

/// Maximum rescue rounds per program. Each round applies at most one
/// transform and re-extracts, so the cap bounds compile time on
/// adversarial inputs; real programs converge in a handful of rounds.
pub const MAX_ROUNDS: usize = 12;

/// The accumulator cell a reduction privatizes: a static, or a field of
/// an object held in a loop-invariant local.
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

    /// Memory-category index (`[statics, fields, arrays]`) for the
    /// transitive call-effect summaries.
    fn category(&self) -> usize {
        match self {
            Channel::Static(_) => 0,
            Channel::Field { .. } => 1,
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

/// A machine-checkable claim that one reduction rewrite is legal:
/// `channel = channel op e` privatized into partial reductions. The
/// proof names the function, anchors locating the loop before and after
/// the rewrite, and the rewrite's full parameters; [`verify::check`]
/// re-derives every claimed fact from the two programs.
#[derive(Debug, Clone)]
pub struct LegalityProof {
    /// The transformed function.
    pub func: FuncId,
    /// A pc inside the loop's header block in the *pre*-transform
    /// function.
    pub pre_anchor: u32,
    /// A pc inside the rescued loop in the *post*-transform function.
    pub post_anchor: u32,
    /// The accumulator cell.
    pub channel: Channel,
    /// The (associative, commutative, integer) operator.
    pub op: Instr,
    /// The operator's identity element, seeded on loop entry.
    pub identity: i64,
    /// The fresh private accumulator local.
    pub acc: Local,
    /// Pre-transform pc of the channel load.
    pub load_at: u32,
    /// Pre-transform pc of the channel store.
    pub store_at: u32,
}

impl LegalityProof {
    /// What the rewrite targeted, stable across rescue rounds (used to
    /// blocklist verifier-rejected variants, and named by `TR001` lint
    /// rows).
    pub fn target(&self) -> String {
        format!("{REDUCTION}:{}", self.channel.describe())
    }
}

/// The transform name rescue diagnostics carry (`TR001`/`TR002` lint
/// rows, [`RescueRejection::transform`]).
pub const REDUCTION: &str = "reduction";

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
    /// The rewrite does not fit this recurrence at all; no diagnostic.
    NotApplicable,
    /// The rewrite matched but a legality condition failed.
    Rejected {
        reason: String,
        witness: Option<DepWitness>,
    },
    /// The rewrite applies: the rewritten function, its origin map
    /// (new pc → pre-rewrite pc) and the claim.
    Transformed {
        function: Function,
        origin: Vec<Option<u32>>,
        proof: LegalityProof,
        removed: String,
    },
}

fn rejected(reason: String, witness: Option<DepWitness>) -> TryResult {
    TryResult::Rejected { reason, witness }
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
            "the loop header is the function entry; no edge exists to seed the accumulator".into(),
            witness,
        );
    }
    if !ctx.channel_kind_is_int(&channel) {
        return rejected(
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
            "a call in the loop may read the accumulator's memory while partial sums \
             are private"
                .into(),
            Some(w),
        );
    }
    if let Channel::Field { base, .. } = channel {
        if !ctx.base_provably_nonnull(base) {
            return rejected(
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
            "the stored value's producer is not visible within the block".into(),
            witness,
        );
    };
    if p0 == dep.load_at {
        return rejected(
            "the update copies the accumulator to itself".into(),
            witness,
        );
    }
    let op = ctx.f.code[p0 as usize];
    let Some(identity) = reduction_identity(&op) else {
        return rejected(
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
    let (function, origin) = match apply_loop_rewrite(ctx.func.0, ctx.f, ctx.cfg, ctx.lp, &rw) {
        Ok(rewritten) => rewritten,
        Err(e) => return rejected(format!("rewrite failed: {}", e), witness),
    };
    // anchor the proof on any relocated header instruction
    let header = &ctx.cfg.blocks[ctx.lp.header.0 as usize];
    let Some(post_anchor) = origin
        .iter()
        .position(|&o| o.is_some_and(|p| p >= header.start && p < header.end))
    else {
        return rejected(
            "no header instruction survives the rewrite to anchor the proof".into(),
            witness,
        );
    };
    TryResult::Transformed {
        function,
        origin,
        proof: LegalityProof {
            func: ctx.func,
            pre_anchor: header.start,
            post_anchor: post_anchor as u32,
            channel,
            op,
            identity,
            acc,
            load_at: dep.load_at,
            store_at: dep.store_at,
        },
        removed: dep.reason(),
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

/// Rescues every demoted loop of `program` whose recurrence is a legal
/// reduction, re-extracting candidates after each rewrite until a
/// fixpoint (or [`MAX_ROUNDS`]). Every applied rewrite was accepted by
/// the independent legality checker ([`verify::check`]); variants the
/// checker rejected are blocklisted and reported in
/// [`RescueOutcome::rejected`].
///
/// Extracts `program` first; a caller that already holds its
/// extraction passes it to [`rescue_extracted`] instead.
pub fn rescue_program(program: &Program) -> RescueOutcome {
    rescue_extracted(program, &extract_candidates(program)).0
}

/// [`rescue_program`] starting from `cands`, which must be the
/// extraction of `program`: round 0 reads its per-function analyses,
/// verdicts (with each demoted loop's proven dependences) and points-to
/// solve instead of solving them again.
/// Alongside the outcome comes the extraction of
/// [`RescueOutcome::program`] when a rewrite was applied; when none
/// was, `cands` still describes that program.
pub fn rescue_extracted(
    program: &Program,
    cands: &ProgramCandidates,
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
        // only a demoted loop has a recurrence to rescue
        if cands.demoted_count() == 0 {
            break;
        }
        // `cands` is the extraction of `cur`: its store summary is
        // this round's; only the load summary is solved here
        let load_effects = transitive_load_effects(&cur);
        let store_effects = &cands.store_effects;
        let mut applied: Option<(usize, Function, Vec<Option<u32>>, RescuedLoop)> = None;

        'cands: for c in cands.candidates.iter().filter(|c| c.is_demoted()) {
            let fi = c.func.0 as usize;
            let fa = &cands.functions[fi];
            let f = &cur.functions[fi];
            let lp = &fa.forest.loops[c.loop_idx];
            let orig_header_pc = original_header_pc(&cum[fi], &fa.cfg, lp);
            let view = cands.pointsto.view(c.func);
            let inductors = inductor_steps(f, &fa.cfg, &fa.dom, lp);
            let invariant = invariant_locals(f, &fa.cfg, lp);
            let sites =
                collect_accesses(&cur, f, &fa.cfg, lp, &inductors, &invariant, store_effects);
            // `cands` is the extraction of `cur`, so its verdict holds
            // the very dependences a fresh solve would find
            let deps = c.static_verdict.deps();
            let ctx = LoopCtx {
                program: &cur,
                func: c.func,
                f,
                cfg: &fa.cfg,
                dom: &fa.dom,
                lp,
                view,
                sites,
                load_effects: &load_effects,
            };

            let mut any_diag = false;
            for dep in deps {
                match try_reduction(&ctx, dep) {
                    TryResult::NotApplicable => {}
                    TryResult::Rejected { reason, witness } => {
                        any_diag = true;
                        last_rejections.push(RescueRejection {
                            func: c.func,
                            func_name: f.name.clone(),
                            orig_header_pc,
                            transform: REDUCTION,
                            reason,
                            witness,
                        });
                    }
                    TryResult::Transformed {
                        function,
                        origin,
                        proof,
                        removed,
                    } => {
                        any_diag = true;
                        let sig = format!("f{}@{}:{}", fi, orig_header_pc, proof.target());
                        if blocked.contains(&sig) {
                            continue;
                        }
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
                                    transform: REDUCTION,
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
            if !any_diag {
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
        let proof = &out.rescued[0].proof;
        assert_eq!((proof.op, proof.identity), (Instr::IAdd, 0));
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
        let proof = &out.rescued[0].proof;
        assert_eq!((proof.op, proof.identity), (Instr::IMax, i64::MIN));
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
        let proof = &out.rescued[0].proof;
        assert_eq!((proof.op, proof.identity), (Instr::IMul, 1));
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
        let proof = &out.rescued[0].proof;
        assert!(matches!(proof.channel, Channel::Field { .. }));
        assert_eq!(proof.op, Instr::IAdd);
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
            out.rescued.is_empty(),
            "a reduction with an escaping chain value was rescued: {:?}",
            out.rescued
        );
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
        bad_proof.identity = 1;
        assert!(verify::check(&p, good, &bad_proof).is_err());

        // (2) wrong identity seeded in the emitted code: flip the
        // entry payload's IConst(0) (the one right before Store(acc))
        let acc = proof.acc;
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

    /// `g = a[i] + 1; o[i] = g * g`: a scratch cell the iteration
    /// writes before it reads it.
    fn scratch_cell_program() -> Program {
        let mut b = ProgramBuilder::new();
        let g = b.global(ElemKind::Int);
        let main = b.function("main", 0, true, |f| {
            let (a, o, i) = (f.local(), f.local(), f.local());
            f.ci(16).newarray(ElemKind::Int).st(a);
            f.ci(16).newarray(ElemKind::Int).st(o);
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
        b.finish(main).unwrap()
    }

    /// `o[i] = g; g = a[i]`: the load sees the previous iteration's
    /// store, so the value genuinely flows across iterations.
    fn read_before_write_program() -> Program {
        let mut b = ProgramBuilder::new();
        let g = b.global(ElemKind::Int);
        let main = b.function("main", 0, true, |f| {
            let (a, o, i) = (f.local(), f.local(), f.local());
            f.ci(8).newarray(ElemKind::Int).st(a);
            f.ci(8).newarray(ElemKind::Int).st(o);
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
        b.finish(main).unwrap()
    }

    /// `a[i] = a[i] * 2; r[i] = r[i-1] + 1`: a parallel statement fused
    /// with a serial one in a single counted loop.
    fn fused_statements_program() -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, true, |f| {
            let (a, r, i) = (f.local(), f.local(), f.local());
            f.ci(32).newarray(ElemKind::Int).st(a);
            f.ci(32).newarray(ElemKind::Int).st(r);
            f.for_in(i, 1.into(), 32.into(), |f| {
                f.ld(a).ld(i);
                f.ld(a).ld(i).aload().ci(2).imul();
                f.astore();
                f.ld(r).ld(i);
                f.ld(r).ld(i).ci(1).isub().aload().ci(1).iadd();
                f.astore();
            });
            f.ld(a).ci(31).aload().ld(r).ci(31).aload().iadd().ret();
        });
        b.finish(main).unwrap()
    }

    /// Rescue rewrites reductions only. Loops whose recurrence is a
    /// scratch cell or a fused serial statement stay as written, and
    /// each demoted one reports a rejection naming its blocking
    /// dependence.
    #[test]
    fn non_reduction_loops_are_left_as_written() {
        let cases = [
            ("scratch cell", scratch_cell_program(), 0),
            ("read before write", read_before_write_program(), 1),
            ("fused statements", fused_statements_program(), 1),
        ];
        for (name, p, demoted) in cases {
            let cands = extract_candidates(&p);
            assert_eq!(cands.demoted_count(), demoted, "{name}: demoted loops");
            let out = rescue_program(&p);
            assert!(out.rescued.is_empty(), "{name}: rescued {:?}", out.rescued);
            for (a, b) in p.functions.iter().zip(&out.program.functions) {
                assert_eq!(
                    (&a.code, a.n_locals),
                    (&b.code, b.n_locals),
                    "{name}: program changed"
                );
            }
            for c in cands.candidates.iter().filter(|c| c.is_demoted()) {
                let fa = &cands.functions[c.func.0 as usize];
                let hb = &fa.cfg.blocks[fa.forest.loops[c.loop_idx].header.0 as usize];
                assert!(
                    out.rejected.iter().any(|r| r.func == c.func
                        && (hb.start..hb.end).contains(&r.orig_header_pc)
                        && r.witness.is_some()),
                    "{name}: loop {} has no rejection with a witness: {:?}",
                    c.id.0,
                    out.rejected
                );
            }
        }
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
