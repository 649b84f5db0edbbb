//! Bytecode rewriting machinery for reduction rescue.
//!
//! Like the annotation compiler in `jrpm`, the rewrite is
//! edge-precise: a reduction must initialize its private accumulator on
//! every edge *entering* the loop and fold it back into the memory
//! channel on every edge *leaving* it (including `return`/`halt` paths
//! out of the loop body). The only reliable way to place code on edges
//! of already-linearized bytecode is to relinearize the whole function
//! from its CFG: blocks are emitted in order with explicit terminators,
//! edges that carry payload detour through trampoline blocks, and
//! in-loop instructions can be substituted by replacement sequences
//! with identical net stack effect.

use crate::cfg::{BlockId, Cfg};
use crate::loops::NaturalLoop;
use std::collections::BTreeMap;
use tvm::isa::Instr;
use tvm::program::Function;

/// A label-patching emitter (the rescue analogue of
/// `tvm::build::FnBuilder`).
#[derive(Default)]
pub(crate) struct Emitter {
    code: Vec<Instr>,
    /// Original instruction index of each emitted instruction (`None`
    /// for payload and control-flow glue).
    origin: Vec<Option<u32>>,
    labels: Vec<Option<u32>>,
    fixups: Vec<u32>,
}

impl Emitter {
    pub(crate) fn new_label(&mut self) -> u32 {
        self.labels.push(None);
        self.labels.len() as u32 - 1
    }

    pub(crate) fn bind(&mut self, label: u32) {
        debug_assert!(self.labels[label as usize].is_none(), "label bound twice");
        self.labels[label as usize] = Some(self.code.len() as u32);
    }

    pub(crate) fn raw(&mut self, i: Instr) {
        self.code.push(i);
        self.origin.push(None);
    }

    /// Emits a relocated original instruction, remembering where it
    /// came from.
    pub(crate) fn raw_at(&mut self, i: Instr, orig: u32) {
        self.code.push(i);
        self.origin.push(Some(orig));
    }

    /// Emits a branch whose target operand is a label id, recorded for
    /// patching.
    pub(crate) fn branch(&mut self, i: Instr) {
        self.fixups.push(self.code.len() as u32);
        self.code.push(i);
        self.origin.push(None);
    }

    /// A [`Emitter::branch`] descending from an original terminator.
    pub(crate) fn branch_at(&mut self, i: Instr, orig: u32) {
        self.fixups.push(self.code.len() as u32);
        self.code.push(i);
        self.origin.push(Some(orig));
    }

    pub(crate) fn finish(
        mut self,
        func: u16,
    ) -> Result<(Vec<Instr>, Vec<Option<u32>>), tvm::VmError> {
        for &at in &self.fixups {
            let instr = self.code[at as usize];
            let lbl = instr.branch_target().ok_or_else(|| tvm::VmError::Verify {
                func,
                at,
                reason: "rescue fixup recorded on a non-branch instruction".into(),
            })?;
            let target = self
                .labels
                .get(lbl as usize)
                .copied()
                .flatten()
                .ok_or(tvm::VmError::UnboundLabel(lbl))?;
            self.code[at as usize] = instr.map_target(|_| target);
        }
        Ok((self.code, self.origin))
    }
}

/// An edge-precise rewrite of one loop: payload sequences for the
/// loop's entry and exit edges plus in-loop instruction substitutions.
/// Every substitution must preserve the net stack effect of the
/// instruction it replaces.
#[derive(Debug, Default, Clone)]
pub(crate) struct LoopRewrite {
    /// Prepended on every edge entering the loop header from outside.
    pub entry_payload: Vec<Instr>,
    /// Prepended on every edge leaving the loop, and before any
    /// `Return`/`Halt` inside a loop block.
    pub exit_payload: Vec<Instr>,
    /// Replacement sequence per original in-loop instruction index.
    /// Terminators cannot be substituted.
    pub subst: BTreeMap<u32, Vec<Instr>>,
    /// How many fresh locals the rewrite introduces.
    pub extra_locals: u16,
}

/// Applies `rw` to the loop `lp` of function `f`, producing the
/// rewritten function and an origin map (new index → original index).
///
/// # Errors
///
/// [`tvm::VmError`] if the function's branch structure is malformed
/// (which `Cfg::build` would already have rejected).
pub(crate) fn apply_loop_rewrite(
    fi: u16,
    f: &Function,
    cfg: &Cfg,
    lp: &NaturalLoop,
    rw: &LoopRewrite,
) -> Result<(Function, Vec<Option<u32>>), tvm::VmError> {
    let in_loop = |b: BlockId| lp.blocks.contains(&b);
    let edge_payload = |pb: BlockId, tb: BlockId| -> &[Instr] {
        if in_loop(pb) && !in_loop(tb) {
            &rw.exit_payload
        } else if tb == lp.header && !in_loop(pb) {
            &rw.entry_payload
        } else {
            &[]
        }
    };

    let mut em = Emitter::default();
    let block_labels: Vec<u32> = (0..cfg.len()).map(|_| em.new_label()).collect();
    let mut tramp: BTreeMap<(u32, u32), (u32, Vec<Instr>)> = BTreeMap::new();
    let mut edge_label = |em: &mut Emitter, pb: BlockId, tb: BlockId| -> (u32, bool) {
        let payload = edge_payload(pb, tb);
        if payload.is_empty() {
            return (block_labels[tb.0 as usize], false);
        }
        let l = tramp
            .entry((pb.0, tb.0))
            .or_insert_with(|| (em.new_label(), payload.to_vec()))
            .0;
        (l, true)
    };

    for (bi, block) in cfg.blocks.iter().enumerate() {
        let b = BlockId(bi as u32);
        em.bind(block_labels[bi]);
        for idx in block.start..block.end {
            let instr = f.code[idx as usize];
            let is_terminator_pos = idx == block.end - 1;

            if !is_terminator_pos || !instr.is_terminator() {
                if in_loop(b) {
                    if let Some(rep) = rw.subst.get(&idx) {
                        for &r in rep {
                            em.raw(r);
                        }
                        if is_terminator_pos {
                            emit_fallthrough(fi, &mut em, cfg, b, block.end, &mut edge_label)?;
                        }
                        continue;
                    }
                }
                em.raw_at(instr, idx);
                if is_terminator_pos {
                    emit_fallthrough(fi, &mut em, cfg, b, block.end, &mut edge_label)?;
                }
                continue;
            }

            debug_assert!(
                !rw.subst.contains_key(&idx),
                "terminators cannot be substituted"
            );
            let block_of = |t: u32, at: u32| {
                cfg.block_of(t).ok_or(tvm::VmError::BadBranchTarget {
                    func: fi,
                    at,
                    target: t,
                })
            };
            match instr {
                Instr::Goto(t) | Instr::AGoto(t) => {
                    let tb = block_of(t, idx)?;
                    let (l, _) = edge_label(&mut em, b, tb);
                    em.branch_at(instr.map_target(|_| l), idx);
                }
                Instr::If(..) | Instr::IfICmp(..) | Instr::IfFCmp(..) => {
                    let t = instr.branch_target().unwrap_or(0);
                    let tb = block_of(t, idx)?;
                    let (l, _) = edge_label(&mut em, b, tb);
                    em.branch_at(instr.map_target(|_| l), idx);
                    emit_fallthrough(fi, &mut em, cfg, b, block.end, &mut edge_label)?;
                }
                Instr::Return | Instr::ReturnVoid | Instr::Halt => {
                    // leaving the function (or the program) from inside
                    // the loop exits it: the payload must run first
                    if in_loop(b) {
                        for &p in &rw.exit_payload {
                            em.raw(p);
                        }
                    }
                    em.raw_at(instr, idx);
                }
                _ => unreachable!("is_terminator covered above"),
            }
        }
    }

    // trampolines (all edge labels were requested during the block walk)
    type Trampoline = ((u32, u32), (u32, Vec<Instr>));
    let trampolines: Vec<Trampoline> = tramp.iter().map(|(k, v)| (*k, v.clone())).collect();
    for ((_pb, tb), (label, payload)) in trampolines {
        em.bind(label);
        for i in payload {
            em.raw(i);
        }
        em.branch(Instr::Goto(block_labels[tb as usize]));
    }

    let (code, origin) = em.finish(fi)?;
    Ok((
        Function {
            name: f.name.clone(),
            n_params: f.n_params,
            n_locals: f.n_locals + rw.extra_locals,
            returns: f.returns,
            code,
        },
        origin,
    ))
}

/// Handles a block's fallthrough edge. The fallthrough block is always
/// the next one emitted, so when the edge carries no payload, control
/// simply falls through — a `Goto` is only emitted to detour through a
/// trampoline.
fn emit_fallthrough(
    fi: u16,
    em: &mut Emitter,
    cfg: &Cfg,
    b: BlockId,
    block_end: u32,
    edge_label: &mut impl FnMut(&mut Emitter, BlockId, BlockId) -> (u32, bool),
) -> Result<(), tvm::VmError> {
    let ft = cfg
        .block_of(block_end)
        .ok_or(tvm::VmError::BadBranchTarget {
            func: fi,
            at: block_end.saturating_sub(1),
            target: block_end,
        })?;
    debug_assert_eq!(ft.0, b.0 + 1, "fallthrough block follows immediately");
    let (l, has_payload) = edge_label(em, b, ft);
    if has_payload {
        em.branch(Instr::Goto(l));
    }
    Ok(())
}
