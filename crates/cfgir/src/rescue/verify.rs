//! # Independent legality checking for reduction rescue
//!
//! [`check`] accepts the pre- and post-transform programs plus a
//! [`LegalityProof`] and re-derives every claimed fact from scratch.
//! It deliberately shares **no code** with the reduction matcher in
//! the parent module: where the matcher walks a forward provenance
//! graph, the checker runs an abstract-value stack machine; where the
//! matcher builds the rewrite, the checker reconstructs the *expected*
//! loop body from the proof's parameters and diffs it against what the
//! transform actually emitted. A bug in either side surfaces as a
//! verifier rejection (the unit tests feed a deliberately broken
//! transform through here to prove it). The checker solves points-to
//! once for each of the two programs itself, never taking the
//! matcher's facts.
//!
//! What is re-derived:
//!
//! * the pre-transform dependence being removed really exists
//!   ([`crate::memdep::analyze_loop`] on the *original* code);
//! * the transformed loop's dependence set is a **refinement** of the
//!   original's (every post-transform dependence kind already existed,
//!   and the removed channel's kind is gone);
//! * the emitted code is exactly the claimed rewrite: entry/exit edges
//!   carry the right payloads (with the operator identity re-derived
//!   from the operator, not read from the proof) and the loop body
//!   matches the original modulo the expected substitutions;
//! * scalar facts on the transformed loop: the accumulator must
//!   classify as a reduction local.

use super::{reduction_identity, Channel, LegalityProof};
use crate::access::{
    collect_accesses, inductor_steps, invariant_locals, strongly_disjoint, transitive_load_effects,
    transitive_store_effects, AccessSite,
};
use crate::cfg::{BlockId, Cfg};
use crate::dom::Dominators;
use crate::loops::{LoopForest, NaturalLoop};
use crate::memdep::{analyze_loop, DepKind, GuaranteedDep};
use crate::pointsto::{FnView, PointsTo};
use crate::scalar::classify;
use std::collections::BTreeMap;
use tvm::alloc::SiteKind;
use tvm::isa::{ElemKind, Instr};
use tvm::program::{Function, Local, Program};
use tvm::verify::stack_effect;

/// Everything needed to reason about one located loop.
struct Loc {
    cfg: Cfg,
    dom: Dominators,
    forest: LoopForest,
    loop_idx: usize,
}

impl Loc {
    fn lp(&self) -> &NaturalLoop {
        &self.forest.loops[self.loop_idx]
    }
}

fn locate(f: &Function, anchor: u32) -> Result<Loc, String> {
    let cfg = Cfg::build(f);
    let b = cfg
        .block_of(anchor)
        .ok_or_else(|| format!("anchor pc {} is not inside any block", anchor))?;
    let dom = Dominators::compute(&cfg);
    let forest = LoopForest::build(&cfg, &dom);
    let loop_idx = forest
        .innermost_containing(b)
        .ok_or_else(|| format!("anchor pc {} is not inside any loop", anchor))?;
    Ok(Loc {
        cfg,
        dom,
        forest,
        loop_idx,
    })
}

/// Checks `proof` against the two programs. `Ok(())` means every
/// claimed fact was re-derived; `Err` carries the first violation.
pub fn check(pre: &Program, post: &Program, proof: &LegalityProof) -> Result<(), String> {
    let fi = proof.func.0 as usize;
    let fpre = pre
        .functions
        .get(fi)
        .ok_or("proof names a function the pre-program does not have")?;
    let fpost = post
        .functions
        .get(fi)
        .ok_or("proof names a function the post-program does not have")?;

    // nothing but the named function may change
    if pre.functions.len() != post.functions.len() {
        return Err("the transform added or removed functions".into());
    }
    for (i, (a, b)) in pre.functions.iter().zip(&post.functions).enumerate() {
        if i != fi && (a.code != b.code || a.n_locals != b.n_locals || a.n_params != b.n_params) {
            return Err(format!(
                "function {} changed but is not named in the proof",
                i
            ));
        }
    }
    if pre.globals != post.globals
        || pre.entry != post.entry
        || pre.classes.len() != post.classes.len()
        || pre
            .classes
            .iter()
            .zip(&post.classes)
            .any(|(a, b)| a.fields != b.fields)
    {
        return Err("the transform changed program-level declarations".into());
    }
    if fpost.n_params != fpre.n_params || fpost.returns != fpre.returns {
        return Err("the transform changed the function signature".into());
    }

    let loc_pre = locate(fpre, proof.pre_anchor)?;
    let loc_post = locate(fpost, proof.post_anchor)?;
    let LegalityProof {
        channel: ref ch,
        ref op,
        identity,
        acc,
        load_at,
        store_at,
        ..
    } = *proof;

    // the identity is re-derived from the operator, never trusted: a
    // transform that seeds the wrong constant is caught right here
    let expected_identity = match op {
        Instr::IAdd | Instr::IOr | Instr::IXor => 0,
        Instr::IMul => 1,
        Instr::IAnd => -1,
        Instr::IMin => i64::MAX,
        Instr::IMax => i64::MIN,
        other => {
            return Err(format!(
                "{:?} is not an associative integer operator; the reduction is not \
                 exact",
                other
            ))
        }
    };
    debug_assert_eq!(reduction_identity(op), Some(expected_identity));
    if identity != expected_identity {
        return Err(format!(
            "claimed identity {} does not match the operator's identity {}",
            identity, expected_identity
        ));
    }
    if acc.0 != fpre.n_locals || fpost.n_locals != fpre.n_locals + 1 {
        return Err("the accumulator local is not the single fresh local".into());
    }

    // the removed dependence must really exist on the original loop;
    // the pre-program's store summary is solved once, here, and
    // independently of the one extraction holds
    let pt_pre = PointsTo::analyze(pre);
    let view_pre = pt_pre.view(proof.func);
    let stores_pre = transitive_store_effects(pre);
    let pre_deps = deps_of(pre, fi, &loc_pre, &view_pre, &stores_pre);
    let removed_kind = channel_dep_kind(ch);
    if !pre_deps
        .iter()
        .any(|d| d.kind == removed_kind && d.load_at == load_at && d.store_at == store_at)
    {
        return Err("the original loop has no such guaranteed recurrence".into());
    }

    check_channel_int(pre, &view_pre, ch)?;
    let sites = pre_sites(pre, fi, &loc_pre, &stores_pre);
    check_exclusivity(&sites, ch, &view_pre, &[load_at, store_at])?;
    check_calls_off_channel(pre, fpre, &loc_pre.cfg, loc_pre.lp(), ch, &stores_pre)?;
    if let Channel::Field { base, .. } = ch {
        check_base_nonnull(pre, fpre, &loc_pre.cfg, &loc_pre.dom, loc_pre.lp(), *base)?;
    }

    // chain legality, re-derived with the abstract-value machine
    let sb = loc_pre
        .cfg
        .block_of(store_at)
        .ok_or("the channel store is unreachable")?;
    if loc_pre.cfg.block_of(load_at) != Some(sb) {
        return Err("load and store of the recurrence are in different blocks".into());
    }
    let block = &loc_pre.cfg.blocks[sb.0 as usize];
    check_chain(pre, fpre, block.start..block.end, ch, op, load_at, store_at)?;

    // the emitted code must be exactly the expected delta rewrite
    let (load_subst, store_subst, entry, exit) = match *ch {
        Channel::Static(g) => (
            vec![Instr::IConst(expected_identity)],
            vec![Instr::Load(acc), *op, Instr::Store(acc)],
            vec![Instr::IConst(expected_identity), Instr::Store(acc)],
            vec![
                Instr::GetStatic(g),
                Instr::Load(acc),
                *op,
                Instr::PutStatic(g),
            ],
        ),
        Channel::Field { base, field } => (
            vec![Instr::Pop, Instr::IConst(expected_identity)],
            vec![Instr::Load(acc), *op, Instr::Store(acc), Instr::Pop],
            vec![Instr::IConst(expected_identity), Instr::Store(acc)],
            vec![
                Instr::Load(base),
                Instr::Load(base),
                Instr::GetField(field),
                Instr::Load(acc),
                *op,
                Instr::PutField(field),
            ],
        ),
    };
    let subst = BTreeMap::from([(load_at, load_subst), (store_at, store_subst)]);
    check_loop_code(
        fpre,
        &loc_pre.cfg,
        loc_pre.lp(),
        fpost,
        &loc_post.cfg,
        loc_post.lp(),
        &subst,
    )?;
    check_edge_payloads(fpost, &loc_post.cfg, loc_post.lp(), &entry, &exit)?;

    // dependence refinement and scalar facts on the transformed loop
    let pt_post = PointsTo::analyze(post);
    let stores_post = transitive_store_effects(post);
    let post_deps = deps_of(post, fi, &loc_post, &pt_post.view(proof.func), &stores_post);
    check_refinement(&pre_deps, &post_deps, &removed_kind)?;
    let classes = classify(
        post,
        fpost,
        &loc_post.cfg,
        &loc_post.dom,
        &loc_post.forest,
        loc_post.loop_idx,
    );
    if !classes.reductions.contains(&acc) {
        return Err("the accumulator does not classify as a scalar reduction".into());
    }
    Ok(())
}

// ---------------------------------------------------------------------
// re-derivations
// ---------------------------------------------------------------------

// `stores` is always `program`'s own transitive store summary

fn pre_sites(program: &Program, fi: usize, loc: &Loc, stores: &[[bool; 3]]) -> Vec<AccessSite> {
    let f = &program.functions[fi];
    let inductors = inductor_steps(f, &loc.cfg, &loc.dom, loc.lp());
    let invariant = invariant_locals(f, &loc.cfg, loc.lp());
    collect_accesses(
        program,
        f,
        &loc.cfg,
        loc.lp(),
        &inductors,
        &invariant,
        stores,
    )
}

fn deps_of(
    program: &Program,
    fi: usize,
    loc: &Loc,
    view: &FnView<'_>,
    stores: &[[bool; 3]],
) -> Vec<GuaranteedDep> {
    let (f, lp) = (&program.functions[fi], loc.lp());
    analyze_loop(program, f, &loc.cfg, &loc.dom, lp, Some(view), stores)
}

fn channel_dep_kind(ch: &Channel) -> DepKind {
    match *ch {
        Channel::Static(g) => DepKind::Static(g),
        Channel::Field { base, field } => DepKind::Field { base, field },
    }
}

/// Post-transform dependences must be a refinement of the originals:
/// no new kinds, and the removed channel's kind gone.
fn check_refinement(
    pre_deps: &[GuaranteedDep],
    post_deps: &[GuaranteedDep],
    removed: &DepKind,
) -> Result<(), String> {
    for d in post_deps {
        if d.kind == *removed {
            return Err(format!(
                "the transformed loop still carries the removed dependence ({})",
                d.reason()
            ));
        }
        if !pre_deps.iter().any(|p| p.kind == d.kind) {
            return Err(format!(
                "the transformed loop has a dependence the original did not: {}",
                d.reason()
            ));
        }
    }
    Ok(())
}

/// Every loop access site must be provably off-channel.
fn check_exclusivity(
    sites: &[AccessSite],
    ch: &Channel,
    view: &FnView<'_>,
    allow: &[u32],
) -> Result<(), String> {
    let (lt, st) = (ch.load_template(), ch.store_template());
    for s in sites {
        if allow.contains(&s.instr) {
            continue;
        }
        if !strongly_disjoint(&s.access, &lt, Some(view))
            || !strongly_disjoint(&s.access, &st, Some(view))
        {
            return Err(format!(
                "pc {} may touch {} while it is privatized",
                s.instr,
                ch.describe()
            ));
        }
    }
    Ok(())
}

/// No call inside the loop may (transitively) read or write the
/// channel's memory category.
fn check_calls_off_channel(
    program: &Program,
    f: &Function,
    cfg: &Cfg,
    lp: &NaturalLoop,
    ch: &Channel,
    stores: &[[bool; 3]],
) -> Result<(), String> {
    let cat = match ch {
        Channel::Static(_) => 0,
        Channel::Field { .. } => 1,
    };
    let loads = transitive_load_effects(program);
    for &b in &lp.blocks {
        let block = &cfg.blocks[b.0 as usize];
        for idx in block.start..block.end {
            if let Instr::Call(callee) = f.code[idx as usize] {
                let c = callee.0 as usize;
                if loads.get(c).is_some_and(|e| e[cat]) || stores.get(c).is_some_and(|e| e[cat]) {
                    return Err(format!(
                        "the call at pc {} may reach the privatized cell's memory",
                        idx
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The channel's cell kind must be `Int` for exact reassociation.
fn check_channel_int(program: &Program, view: &FnView<'_>, ch: &Channel) -> Result<(), String> {
    let ok = match *ch {
        Channel::Static(g) => program.globals.get(g.0 as usize) == Some(&ElemKind::Int),
        Channel::Field { base, field } => {
            let (sites, unknown) = view.local_sites(base);
            !unknown
                && !sites.is_empty()
                && sites
                    .iter()
                    .all(|&s| match view.program().sites().get(s).kind {
                        SiteKind::Object(c) => {
                            program
                                .classes
                                .get(c.0 as usize)
                                .and_then(|cd| cd.fields.get(field as usize))
                                == Some(&ElemKind::Int)
                        }
                        SiteKind::Array(_) => false,
                    })
        }
    };
    ok.then_some(())
        .ok_or_else(|| format!("{} is not provably an integer cell", ch.describe()))
}

/// `base` provably holds a fresh allocation before the loop runs.
/// Re-derived with the checker's own stack walk (the matcher uses its
/// provenance graph instead).
fn check_base_nonnull(
    program: &Program,
    f: &Function,
    cfg: &Cfg,
    dom: &Dominators,
    lp: &NaturalLoop,
    base: Local,
) -> Result<(), String> {
    if base.0 < f.n_params {
        return Err("the object reference is a parameter and may be null".into());
    }
    let mut dominating_def = false;
    for (bi, block) in cfg.blocks.iter().enumerate() {
        let mut stack: Vec<bool> = Vec::new(); // true = freshly allocated
        for idx in block.start..block.end {
            let instr = f.code[idx as usize];
            if let Instr::IInc(l, _) = instr {
                if l == base {
                    return Err("the object reference is arithmetically modified".into());
                }
            }
            if let Instr::Store(l) = instr {
                if l == base {
                    if !stack.pop().unwrap_or(false) {
                        return Err(format!(
                            "the store of the object reference at pc {} is not a \
                             fresh allocation",
                            idx
                        ));
                    }
                    let b = BlockId(bi as u32);
                    if dom.dominates(b, lp.header) && !lp.blocks.contains(&b) {
                        dominating_def = true;
                    }
                    continue;
                }
            }
            let Ok((pops, pushes)) = stack_effect(program, &instr) else {
                stack.clear();
                continue;
            };
            for _ in 0..pops {
                stack.pop();
            }
            let fresh = matches!(instr, Instr::NewObject(_) | Instr::NewArray(_));
            for _ in 0..pushes {
                stack.push(fresh);
            }
        }
    }
    dominating_def
        .then_some(())
        .ok_or_else(|| "no allocation of the object reference dominates the loop".into())
}

/// Compares the post-transform loop body against the pre-transform one
/// with the expected per-pc substitutions applied. Branch targets are
/// ignored (relinearization moves them); one extra trailing `Goto` per
/// block is tolerated (the detour into an edge trampoline).
fn check_loop_code(
    fpre: &Function,
    pre_cfg: &Cfg,
    pre_lp: &NaturalLoop,
    fpost: &Function,
    post_cfg: &Cfg,
    post_lp: &NaturalLoop,
    subst: &BTreeMap<u32, Vec<Instr>>,
) -> Result<(), String> {
    let norm = |i: Instr| i.map_target(|_| 0);
    let pre_blocks: Vec<BlockId> = pre_lp.blocks.iter().copied().collect();
    let post_blocks: Vec<BlockId> = post_lp.blocks.iter().copied().collect();
    if pre_blocks.len() != post_blocks.len() {
        return Err(format!(
            "the transformed loop has {} blocks, the original {}",
            post_blocks.len(),
            pre_blocks.len()
        ));
    }
    for (&pb, &qb) in pre_blocks.iter().zip(&post_blocks) {
        let p = &pre_cfg.blocks[pb.0 as usize];
        let q = &post_cfg.blocks[qb.0 as usize];
        let mut expected: Vec<Instr> = Vec::new();
        for idx in p.start..p.end {
            match subst.get(&idx) {
                Some(rep) => expected.extend(rep.iter().copied()),
                None => expected.push(fpre.code[idx as usize]),
            }
        }
        let got: Vec<Instr> = (q.start..q.end).map(|i| fpost.code[i as usize]).collect();
        let trailing_goto_ok = got.len() == expected.len() + 1
            && matches!(got.last(), Some(Instr::Goto(_) | Instr::AGoto(_)));
        if !(got.len() == expected.len() || trailing_goto_ok) {
            return Err(format!(
                "transformed block at pc {} does not match the expected rewrite",
                q.start
            ));
        }
        for (e, g) in expected.iter().zip(&got) {
            if norm(*e) != norm(*g) {
                return Err(format!(
                    "transformed code diverges from the expected rewrite: \
                     expected {:?}, found {:?}",
                    e, g
                ));
            }
        }
    }
    Ok(())
}

/// Every edge entering the loop must run `payload` last (before the
/// terminator); every edge leaving it must land on a block beginning
/// with `payload`.
fn check_edge_payloads(
    f: &Function,
    cfg: &Cfg,
    lp: &NaturalLoop,
    entry: &[Instr],
    exit: &[Instr],
) -> Result<(), String> {
    for &(pb, _) in &lp.entry_edges {
        let p = &cfg.blocks[pb.0 as usize];
        let mut code: Vec<Instr> = (p.start..p.end).map(|i| f.code[i as usize]).collect();
        if code.last().is_some_and(|i| i.is_terminator()) {
            code.pop();
        }
        if code.len() < entry.len() || &code[code.len() - entry.len()..] != entry {
            return Err(format!(
                "the entry edge from the block at pc {} does not seed the private \
                 local",
                p.start
            ));
        }
    }
    for &(_, xb) in &lp.exit_edges {
        let x = &cfg.blocks[xb.0 as usize];
        let got: Vec<Instr> = (x.start..x.end.min(x.start + exit.len() as u32))
            .map(|i| f.code[i as usize])
            .collect();
        if got != exit {
            return Err(format!(
                "the exit edge into the block at pc {} does not fold the private \
                 local back",
                x.start
            ));
        }
    }
    if lp.exit_edges.is_empty() {
        return Err("the transformed loop has no exit edge to fold back on".into());
    }
    Ok(())
}

// ---------------------------------------------------------------------
// the abstract-value machine (checker-side chain analysis)
// ---------------------------------------------------------------------

/// Abstract value for the reduction chain re-check: how many times the
/// channel's loaded value occurs in the expression, and whether every
/// operator that combined it is the claimed one.
#[derive(Clone, Copy)]
struct Av {
    chan_uses: u32,
    pure_chain: bool,
}

impl Av {
    const PURE: Av = Av {
        chan_uses: 0,
        pure_chain: true,
    };
}

/// Re-checks that the stored value at `store_at` is
/// `chan ⊕ e₁ ⊕ … ⊕ eₙ` for the single claimed operator, with the
/// channel loaded exactly once and no intermediate escaping the chain.
fn check_chain(
    program: &Program,
    f: &Function,
    block: std::ops::Range<u32>,
    ch: &Channel,
    op: &Instr,
    load_at: u32,
    store_at: u32,
) -> Result<(), String> {
    let mut stack: Vec<Av> = Vec::new();
    let mut store_seen = false;
    for idx in block {
        let instr = f.code[idx as usize];
        if idx == load_at {
            match (*ch, instr) {
                (Channel::Static(g), Instr::GetStatic(h)) if g == h => {}
                (Channel::Field { field, .. }, Instr::GetField(h)) if field == h => {
                    stack.pop();
                }
                _ => return Err("the claimed channel load is not a load of the channel".into()),
            }
            stack.push(Av {
                chan_uses: 1,
                pure_chain: true,
            });
            continue;
        }
        if idx == store_at {
            let value = stack.pop().unwrap_or(Av::PURE);
            if let Channel::Field { .. } = ch {
                let base = stack.pop().unwrap_or(Av::PURE);
                if base.chan_uses > 0 {
                    return Err("the store's base operand contains the channel value".into());
                }
            }
            match (*ch, instr) {
                (Channel::Static(g), Instr::PutStatic(h)) if g == h => {}
                (Channel::Field { field, .. }, Instr::PutField(h)) if field == h => {}
                _ => return Err("the claimed channel store is not a store of the channel".into()),
            }
            if value.chan_uses != 1 || !value.pure_chain {
                return Err(
                    "the stored value is not a single-operator chain over one use of \
                     the channel"
                        .into(),
                );
            }
            store_seen = true;
            continue;
        }
        if instr == *op {
            let b = stack.pop().unwrap_or(Av::PURE);
            let a = stack.pop().unwrap_or(Av::PURE);
            stack.push(Av {
                chan_uses: a.chan_uses + b.chan_uses,
                pure_chain: a.pure_chain && b.pure_chain,
            });
            continue;
        }
        let Ok((pops, pushes)) = stack_effect(program, &instr) else {
            return Err(format!("cannot model the stack effect of pc {}", idx));
        };
        for _ in 0..pops {
            if stack.pop().unwrap_or(Av::PURE).chan_uses > 0 {
                return Err(format!(
                    "pc {} consumes a chain value outside the reduction update",
                    idx
                ));
            }
        }
        for _ in 0..pushes {
            stack.push(Av::PURE);
        }
    }
    if !store_seen {
        return Err("the claimed channel store is outside the update block".into());
    }
    if stack.iter().any(|v| v.chan_uses > 0) {
        return Err("a chain value survives past the end of the update block".into());
    }
    Ok(())
}
