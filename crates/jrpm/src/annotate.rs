//! The annotation compiler pass (paper §5.1, Table 4, Figure 5).
//!
//! Instruments candidate STLs with the trace annotations:
//!
//! * `sloop n` on every edge entering a loop header from outside;
//! * `eoi` on every back edge (one iteration = one speculative thread);
//! * `eloop n` on every edge leaving the loop — including `return`s
//!   from inside the loop — followed by the statistics-read routine;
//! * `lwl vn` / `swl vn` immediately before accesses to tracked
//!   (non-inductor, non-reduction, non-block-local) locals.
//!
//! Edge-precise insertion is done by *relinearizing* each function from
//! its CFG: blocks are emitted in order with explicit terminators, and
//! each annotated edge detours through a trampoline block holding its
//! payload. The paper's two overhead optimizations are implemented as
//! [`AnnotationMode::Optimized`]: only the first load of a variable in
//! a block *or a loop* is annotated (dominance-based, see
//! `loop_covered`), and statistics reads are hoisted to the outermost
//! annotated loop of each nest.

use cfgir::{Candidate, FunctionAnalysis, ProgramCandidates};
use std::collections::{BTreeMap, BTreeSet};
use tvm::isa::{Instr, LoopId};
use tvm::program::{Function, Local, Program};

/// Base or optimized annotation (the two bar groups of Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnnotationMode {
    /// Annotate every tracked-local access; read statistics at every
    /// loop exit.
    Base,
    /// First-load-per-block local annotation; statistics reads hoisted
    /// to the outermost annotated loop (paper §5.1).
    Optimized,
}

/// Options for [`annotate`].
#[derive(Debug, Clone)]
pub struct AnnotateOptions {
    /// Annotation flavor.
    pub mode: AnnotationMode,
    /// If set, only these loops are annotated (used to instrument just
    /// the selected STLs for speculative trace collection). `None`
    /// annotates every candidate.
    pub filter: Option<BTreeSet<LoopId>>,
}

impl AnnotateOptions {
    /// Annotate all candidates, optimized (the profiling default).
    pub fn profiling() -> Self {
        AnnotateOptions {
            mode: AnnotationMode::Optimized,
            filter: None,
        }
    }

    /// Annotate all candidates with base (unoptimized) annotations.
    pub fn base() -> Self {
        AnnotateOptions {
            mode: AnnotationMode::Base,
            filter: None,
        }
    }

    /// Annotate only the given loops (speculative recompilation).
    pub fn only(loops: impl IntoIterator<Item = LoopId>) -> Self {
        AnnotateOptions {
            mode: AnnotationMode::Optimized,
            filter: Some(loops.into_iter().collect()),
        }
    }

    /// Whether this candidate gets annotations. With an explicit
    /// filter the caller's list is authoritative (ablations may trace
    /// demoted loops on purpose); by default, candidates the static
    /// pre-screen demoted are skipped — tracing them is provably
    /// wasted work.
    fn wants(&self, c: &Candidate) -> bool {
        match &self.filter {
            Some(f) => f.contains(&c.id),
            None => !c.is_demoted(),
        }
    }
}

/// Produces an instrumented copy of `program`.
///
/// `cands` must come from [`cfgir::extract_candidates`] on the same
/// program. Functions without annotated loops are copied verbatim.
/// Candidates the static pre-screen demoted are skipped unless the
/// filter names them explicitly.
///
/// # Errors
///
/// The instrumented program is re-verified — structurally
/// ([`tvm::verify::verify`]) and for value kinds
/// ([`tvm::verify::verify_kinds`]) — before being returned; a failure
/// reports a bug in this pass as a [`tvm::VmError`] instead of
/// corrupting the downstream pipeline.
pub fn annotate(
    program: &Program,
    cands: &ProgramCandidates,
    opts: &AnnotateOptions,
) -> Result<Program, tvm::VmError> {
    annotate_mapped(program, cands, opts).map(|(p, _)| p)
}

/// One function's instruction provenance after rewriting:
/// `map[new_idx] == Some(orig_idx)` when the instruction at `new_idx`
/// of the instrumented function is the relocated original instruction
/// at `orig_idx`, and `None` for inserted annotations, trampoline
/// payloads and rewritten fallthrough gotos.
pub type OriginMap = Vec<Option<u32>>;

/// Like [`annotate`], but also returns one [`OriginMap`] per function.
///
/// The agreement report uses the maps to translate dynamic event pcs
/// (recorded against instrumented code) back to the static access
/// sites of the original program.
pub fn annotate_mapped(
    program: &Program,
    cands: &ProgramCandidates,
    opts: &AnnotateOptions,
) -> Result<(Program, Vec<OriginMap>), tvm::VmError> {
    let mut functions = Vec::with_capacity(program.functions.len());
    let mut maps = Vec::with_capacity(program.functions.len());
    for (fi, f) in program.functions.iter().enumerate() {
        let fa = &cands.functions[fi];
        let in_fn: Vec<&Candidate> = cands
            .candidates
            .iter()
            .filter(|c| c.func.0 as usize == fi && opts.wants(c))
            .collect();
        if in_fn.is_empty() {
            functions.push(f.clone());
            maps.push((0..f.code.len() as u32).map(Some).collect());
        } else {
            let (func, map) = annotate_function(fi as u16, f, fa, &in_fn, cands, opts)?;
            functions.push(func);
            maps.push(map);
        }
    }
    let out = Program {
        functions,
        classes: program.classes.clone(),
        globals: program.globals.clone(),
        entry: program.entry,
    };
    tvm::verify::verify(&out)?;
    tvm::verify::verify_kinds(&out)?;
    Ok((out, maps))
}

/// Incrementally instrumented program image for the online tier.
///
/// The offline batch annotates the whole program in one pass. The
/// online tier instead patches loops in one at a time, as each proves
/// hot: [`PatchState`] holds the current instrumented image plus its
/// per-function [`OriginMap`]s, and [`PatchState::patch_loop`]
/// re-annotates *only the function containing the promoted loop* —
/// every other function's code is untouched, byte for byte.
///
/// The key invariant (tested below, and what the online/offline
/// equivalence suite leans on): after patching any set `S` of loops in
/// any order, the image equals `annotate_mapped(original, cands,
/// &AnnotateOptions::only(S))` exactly. Incremental patching commutes
/// because annotation is per-function and the filter passed to each
/// re-annotation is the full cumulative set (so nested-loop
/// interactions such as hoisted statistics reads are recomputed, not
/// approximated).
#[derive(Debug, Clone)]
pub struct PatchState {
    original: Program,
    program: Program,
    maps: Vec<OriginMap>,
    annotated: BTreeSet<LoopId>,
    generation: u64,
}

impl PatchState {
    /// A fresh, un-instrumented image: the program itself, with
    /// identity origin maps.
    pub fn new(program: &Program) -> PatchState {
        PatchState {
            original: program.clone(),
            program: program.clone(),
            maps: program
                .functions
                .iter()
                .map(|f| (0..f.code.len() as u32).map(Some).collect())
                .collect(),
            annotated: BTreeSet::new(),
            generation: 0,
        }
    }

    /// The current instrumented image.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Per-function origin maps of the current image (instrumented pc
    /// → original pc).
    pub fn maps(&self) -> &[OriginMap] {
        &self.maps
    }

    /// Loops patched in so far.
    pub fn annotated(&self) -> &BTreeSet<LoopId> {
        &self.annotated
    }

    /// Image generation: 0 for a fresh state, bumped by every
    /// successful [`PatchState::patch_loop`]. Two equal generations of
    /// one state name the same image.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Instruments loop `id`, rewriting only its containing function.
    ///
    /// `cands` must come from [`cfgir::extract_candidates`] on the
    /// program this state was created from. Returns `false` (and does
    /// nothing) when the loop is already patched in.
    ///
    /// # Errors
    ///
    /// As [`annotate`]: the patched image is re-verified before being
    /// committed; on error the previous image is kept.
    pub fn patch_loop(
        &mut self,
        cands: &ProgramCandidates,
        id: LoopId,
    ) -> Result<bool, tvm::VmError> {
        if self.annotated.contains(&id) {
            return Ok(false);
        }
        let mut filter = self.annotated.clone();
        filter.insert(id);
        let opts = AnnotateOptions {
            mode: AnnotationMode::Optimized,
            filter: Some(filter),
        };
        let fi = cands.candidate(id).func.0 as usize;
        let fa = &cands.functions[fi];
        let in_fn: Vec<&Candidate> = cands
            .candidates
            .iter()
            .filter(|c| c.func.0 as usize == fi && opts.wants(c))
            .collect();
        let (func, map) = annotate_function(
            fi as u16,
            &self.original.functions[fi],
            fa,
            &in_fn,
            cands,
            &opts,
        )?;
        let prev_func = std::mem::replace(&mut self.program.functions[fi], func);
        match tvm::verify::verify(&self.program)
            .and_then(|()| tvm::verify::verify_kinds(&self.program))
        {
            Ok(()) => {
                self.maps[fi] = map;
                self.annotated.insert(id);
                self.generation += 1;
                Ok(true)
            }
            Err(e) => {
                self.program.functions[fi] = prev_func;
                Err(e)
            }
        }
    }
}

/// A tiny label-patching emitter (the annotation-pass analogue of
/// `tvm::build::FnBuilder`).
#[derive(Default)]
struct Emitter {
    code: Vec<Instr>,
    /// Original instruction index of each emitted instruction
    /// (`None` for inserted annotations and control-flow glue).
    origin: Vec<Option<u32>>,
    labels: Vec<Option<u32>>,
    fixups: Vec<u32>,
}

impl Emitter {
    fn new_label(&mut self) -> u32 {
        self.labels.push(None);
        self.labels.len() as u32 - 1
    }

    fn bind(&mut self, label: u32) {
        debug_assert!(self.labels[label as usize].is_none(), "label bound twice");
        self.labels[label as usize] = Some(self.code.len() as u32);
    }

    fn raw(&mut self, i: Instr) {
        self.code.push(i);
        self.origin.push(None);
    }

    /// Emits a relocated original instruction, remembering where it
    /// came from.
    fn raw_at(&mut self, i: Instr, orig: u32) {
        self.code.push(i);
        self.origin.push(Some(orig));
    }

    /// Emits a branch whose target operand is a label id, recorded for
    /// patching.
    fn branch(&mut self, i: Instr) {
        self.fixups.push(self.code.len() as u32);
        self.code.push(i);
        self.origin.push(None);
    }

    /// A [`Emitter::branch`] that descends from an original terminator.
    fn branch_at(&mut self, i: Instr, orig: u32) {
        self.fixups.push(self.code.len() as u32);
        self.code.push(i);
        self.origin.push(Some(orig));
    }

    fn finish(mut self, func: u16) -> Result<(Vec<Instr>, Vec<Option<u32>>), tvm::VmError> {
        for &at in &self.fixups {
            let instr = self.code[at as usize];
            let lbl = instr.branch_target().ok_or_else(|| tvm::VmError::Verify {
                func,
                at,
                reason: "annotation fixup recorded on a non-branch instruction".into(),
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

fn annotate_function(
    fi: u16,
    f: &Function,
    fa: &FunctionAnalysis,
    annotated: &[&Candidate],
    cands: &ProgramCandidates,
    opts: &AnnotateOptions,
) -> Result<(Function, Vec<Option<u32>>), tvm::VmError> {
    let cfg = &fa.cfg;
    let forest = &fa.forest;
    let n_slots = fa.tracked_order.len() as u16;

    // annotated loops, innermost (deepest) first
    let mut by_depth: Vec<&Candidate> = annotated.to_vec();
    by_depth.sort_by_key(|c| std::cmp::Reverse(c.depth));

    // which loops get a ReadStats after their eloop
    let reads_stats = |c: &Candidate| -> bool {
        match opts.mode {
            AnnotationMode::Base => true,
            AnnotationMode::Optimized => {
                // hoisted: only when no enclosing candidate is annotated
                c.parent.is_none_or(|p| !opts.wants(cands.candidate(p)))
            }
        }
    };

    // tracked variables per block: union over annotated loops
    // containing the block
    let tracked_in_block = |b: cfgir::BlockId| -> BTreeSet<Local> {
        let mut set = BTreeSet::new();
        for c in annotated {
            let l = &forest.loops[c.loop_idx];
            if l.blocks.contains(&b) {
                set.extend(fa.classes[c.loop_idx].tracked());
            }
        }
        set
    };

    // payload for CFG edge (p, t): exits innermost-first, then eoi,
    // then sloop
    let edge_payload = |pb: cfgir::BlockId, tb: cfgir::BlockId| -> Vec<Instr> {
        let mut payload = Vec::new();
        for c in &by_depth {
            let l = &forest.loops[c.loop_idx];
            if l.blocks.contains(&pb) && !l.blocks.contains(&tb) {
                payload.push(Instr::ELoop(c.id, n_slots));
                if reads_stats(c) {
                    payload.push(Instr::ReadStats(c.id));
                }
            }
        }
        for c in &by_depth {
            let l = &forest.loops[c.loop_idx];
            if l.header == tb {
                if l.blocks.contains(&pb) {
                    payload.push(Instr::Eoi(c.id));
                } else {
                    payload.push(Instr::SLoop(c.id, n_slots));
                }
            }
        }
        payload
    };

    let mut em = Emitter::default();
    let block_labels: Vec<u32> = (0..cfg.len()).map(|_| em.new_label()).collect();
    // trampolines created on demand per edge
    let mut tramp: BTreeMap<(u32, u32), (u32, Vec<Instr>)> = BTreeMap::new();
    // returns (label, true) for a trampoline edge, (target label,
    // false) for a plain edge
    let mut edge_label =
        |em: &mut Emitter, pb: cfgir::BlockId, tb: cfgir::BlockId| -> (u32, bool) {
            let payload = edge_payload(pb, tb);
            if payload.is_empty() {
                return (block_labels[tb.0 as usize], false);
            }
            let l = tramp
                .entry((pb.0, tb.0))
                .or_insert_with(|| (em.new_label(), payload))
                .0;
            (l, true)
        };

    // Optimized mode annotates only the *first* load of a variable in
    // a block or a loop (paper §5.1): a load of `v` in block B is
    // redundant when a block A that dominates B also loads `v` and
    // lies inside every annotated loop that tracks `v` and contains B
    // (equivalently: inside the innermost such tracker). Every
    // iteration of each interested bank then sees A's load first, so
    // A's arc is never longer than B's; if a store to `v` intervenes,
    // B's access is intra-thread anyway.
    let loop_covered = |v: Local, b: cfgir::BlockId| -> bool {
        // innermost annotated loop containing b whose tracked set has v
        let tracker = annotated
            .iter()
            .filter(|c| {
                forest.loops[c.loop_idx].blocks.contains(&b)
                    && fa.classes[c.loop_idx].tracked().contains(&v)
            })
            .max_by_key(|c| c.depth);
        let Some(tracker) = tracker else {
            return false;
        };
        forest.loops[tracker.loop_idx].blocks.iter().any(|&a| {
            a != b
                && fa.dom.dominates(a, b)
                && cfg
                    .instrs_of(a)
                    .any(|idx| matches!(f.code[idx as usize], Instr::Load(w) if w == v))
        })
    };

    for (bi, block) in cfg.blocks.iter().enumerate() {
        let b = cfgir::BlockId(bi as u32);
        em.bind(block_labels[bi]);
        let tracked = tracked_in_block(b);
        let mut lwl_done: BTreeSet<Local> = BTreeSet::new();

        for idx in block.start..block.end {
            let instr = f.code[idx as usize];
            // local-variable annotations (Table 4) precede the access
            match instr {
                Instr::Load(v) if tracked.contains(&v) => {
                    let annotate_this = match opts.mode {
                        AnnotationMode::Base => true,
                        AnnotationMode::Optimized => lwl_done.insert(v) && !loop_covered(v, b),
                    };
                    if annotate_this {
                        if let Some(slot) = fa.tracked_slot(v) {
                            em.raw(Instr::Lwl(slot));
                        }
                    }
                }
                Instr::Store(v) if tracked.contains(&v) => {
                    if let Some(slot) = fa.tracked_slot(v) {
                        em.raw(Instr::Swl(slot));
                    }
                }
                Instr::IInc(v, _) if tracked.contains(&v) => {
                    if let Some(slot) = fa.tracked_slot(v) {
                        // the increment both reads and writes `v`; the
                        // read-side annotation obeys the first-load rule
                        let lwl = match opts.mode {
                            AnnotationMode::Base => true,
                            AnnotationMode::Optimized => lwl_done.insert(v) && !loop_covered(v, b),
                        };
                        if lwl {
                            em.raw(Instr::Lwl(slot));
                        }
                        em.raw(Instr::Swl(slot));
                    }
                }
                _ => {}
            }

            let is_terminator_pos = idx == block.end - 1;
            if !is_terminator_pos {
                em.raw_at(instr, idx);
                continue;
            }

            // terminator: rewrite control flow through edge labels
            let block_of = |t: u32, at: u32| {
                cfg.block_of(t).ok_or(tvm::VmError::BadBranchTarget {
                    func: fi,
                    at,
                    target: t,
                })
            };
            match instr {
                Instr::Goto(t) => {
                    let tb = block_of(t, idx)?;
                    let (l, _) = edge_label(&mut em, b, tb);
                    em.branch_at(Instr::Goto(l), idx);
                }
                Instr::If(c, t) => {
                    let tb = block_of(t, idx)?;
                    let (l, _) = edge_label(&mut em, b, tb);
                    em.branch_at(Instr::If(c, l), idx);
                    emit_fallthrough(fi, &mut em, cfg, b, block.end, &mut edge_label)?;
                }
                Instr::IfICmp(c, t) => {
                    let tb = block_of(t, idx)?;
                    let (l, _) = edge_label(&mut em, b, tb);
                    em.branch_at(Instr::IfICmp(c, l), idx);
                    emit_fallthrough(fi, &mut em, cfg, b, block.end, &mut edge_label)?;
                }
                Instr::IfFCmp(c, t) => {
                    let tb = block_of(t, idx)?;
                    let (l, _) = edge_label(&mut em, b, tb);
                    em.branch_at(Instr::IfFCmp(c, l), idx);
                    emit_fallthrough(fi, &mut em, cfg, b, block.end, &mut edge_label)?;
                }
                Instr::Return | Instr::ReturnVoid | Instr::Halt => {
                    // leaving the function from inside annotated loops:
                    // close them innermost-first
                    for c in &by_depth {
                        let l = &forest.loops[c.loop_idx];
                        if l.blocks.contains(&b) {
                            em.raw(Instr::ELoop(c.id, n_slots));
                            if reads_stats(c) {
                                em.raw(Instr::ReadStats(c.id));
                            }
                        }
                    }
                    em.raw_at(instr, idx);
                }
                other => {
                    // plain instruction ending a block: the next block
                    // starts a leader; make the fallthrough explicit
                    em.raw_at(other, idx);
                    emit_fallthrough(fi, &mut em, cfg, b, block.end, &mut edge_label)?;
                }
            }
        }
    }

    // emit trampolines (may create no new ones during this loop: edge
    // labels were all requested above)
    type Trampoline = ((u32, u32), (u32, Vec<Instr>));
    let trampolines: Vec<Trampoline> = tramp.iter().map(|(k, v)| (*k, v.clone())).collect();
    for ((_pb, tb), (label, payload)) in trampolines {
        em.bind(label);
        for i in payload {
            em.raw(i);
        }
        em.branch(Instr::AGoto(block_labels[tb as usize]));
    }

    let (code, origin) = em.finish(fi)?;
    Ok((
        Function {
            name: f.name.clone(),
            n_params: f.n_params,
            n_locals: f.n_locals,
            returns: f.returns,
            code,
        },
        origin,
    ))
}

/// Handles a block's fallthrough edge. The fallthrough block is always
/// the next one emitted, so when the edge carries no annotation
/// payload, control simply falls through — a `Goto` is only emitted to
/// detour through a trampoline.
fn emit_fallthrough(
    fi: u16,
    em: &mut Emitter,
    cfg: &cfgir::Cfg,
    b: cfgir::BlockId,
    block_end: u32,
    edge_label: &mut impl FnMut(&mut Emitter, cfgir::BlockId, cfgir::BlockId) -> (u32, bool),
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
        em.branch(Instr::AGoto(l));
    }
    Ok(())
    // otherwise control falls straight into the next emitted block
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfgir::extract_candidates;
    use tvm::trace::CountingSink;
    use tvm::{Cond, ElemKind, Interp, NullSink, ProgramBuilder};

    fn simple_loop_program() -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, true, |f| {
            let (a, i, prev) = (f.local(), f.local(), f.local());
            f.ci(64).newarray(ElemKind::Int).st(a);
            f.ci(0).st(prev);
            f.for_in(i, 0.into(), 32.into(), |f| {
                f.arr_set(
                    a,
                    |f| {
                        f.ld(i);
                    },
                    |f| {
                        // prev is loaded twice in this block, so the
                        // optimized mode annotates one fewer access
                        f.ld(prev).ld(prev).imul().ci(1).iadd();
                    },
                );
                f.arr_get(a, |f| {
                    f.ld(i);
                })
                .st(prev);
            });
            f.ld(prev).ret();
        });
        b.finish(main).unwrap()
    }

    #[test]
    fn annotated_program_preserves_semantics() {
        let p = simple_loop_program();
        let cands = extract_candidates(&p);
        let ann = annotate(&p, &cands, &AnnotateOptions::profiling()).unwrap();
        let r0 = Interp::run(&p, &mut NullSink).unwrap();
        let r1 = Interp::run(&ann, &mut NullSink).unwrap();
        assert_eq!(r0.ret, r1.ret);
        assert!(r1.cycles > r0.cycles, "annotations must cost cycles");
    }

    #[test]
    fn loop_markers_fire_once_per_boundary() {
        let p = simple_loop_program();
        let cands = extract_candidates(&p);
        let ann = annotate(&p, &cands, &AnnotateOptions::profiling()).unwrap();
        let mut sink = CountingSink::default();
        Interp::run(&ann, &mut sink).unwrap();
        assert_eq!(sink.loop_enters, 1);
        assert_eq!(sink.loop_exits, 1);
        assert_eq!(sink.loop_iters, 32);
        assert!(sink.local_accesses > 0, "prev must be annotated");
    }

    #[test]
    fn base_mode_annotates_more_local_accesses() {
        let p = simple_loop_program();
        let cands = extract_candidates(&p);
        let base = annotate(&p, &cands, &AnnotateOptions::base()).unwrap();
        let opt = annotate(&p, &cands, &AnnotateOptions::profiling()).unwrap();
        let mut sb = CountingSink::default();
        let mut so = CountingSink::default();
        Interp::run(&base, &mut sb).unwrap();
        Interp::run(&opt, &mut so).unwrap();
        assert!(
            sb.local_accesses > so.local_accesses,
            "base {} vs optimized {}",
            sb.local_accesses,
            so.local_accesses
        );
    }

    fn nested_loop_program() -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, true, |f| {
            let (a, i, j, s) = (f.local(), f.local(), f.local(), f.local());
            f.ci(256).newarray(ElemKind::Int).st(a);
            f.ci(0).st(s);
            f.for_in(i, 0.into(), 8.into(), |f| {
                f.for_in(j, 0.into(), 8.into(), |f| {
                    f.arr_set(
                        a,
                        |f| {
                            f.ld(i).ci(8).imul().ld(j).iadd();
                        },
                        |f| {
                            f.ld(i).ld(j).imul();
                        },
                    );
                });
                f.ld(s).ld(i).iadd().st(s);
            });
            f.ld(s).ret();
        });
        b.finish(main).unwrap()
    }

    #[test]
    fn nested_loops_get_nested_markers() {
        let p = nested_loop_program();
        let cands = extract_candidates(&p);
        assert_eq!(cands.candidates.len(), 2);
        let ann = annotate(&p, &cands, &AnnotateOptions::profiling()).unwrap();
        let mut sink = CountingSink::default();
        let r = Interp::run(&ann, &mut sink).unwrap();
        assert_eq!(r.ret.unwrap().as_int().unwrap(), 28); // 1+2+...+7
        assert_eq!(sink.loop_enters, 1 + 8); // outer once, inner 8 times
        assert_eq!(sink.loop_exits, 1 + 8);
        assert_eq!(sink.loop_iters, 8 + 64);
    }

    #[test]
    fn filter_annotates_only_selected_loops() {
        let p = nested_loop_program();
        let cands = extract_candidates(&p);
        let inner = cands.candidates.iter().find(|c| c.depth == 2).unwrap().id;
        let ann = annotate(&p, &cands, &AnnotateOptions::only([inner])).unwrap();
        let mut sink = CountingSink::default();
        Interp::run(&ann, &mut sink).unwrap();
        assert_eq!(sink.loop_enters, 8); // only the inner loop
        assert_eq!(sink.loop_iters, 64);
    }

    #[test]
    fn optimized_mode_hoists_stats_reads() {
        let p = nested_loop_program();
        let cands = extract_candidates(&p);
        let base = annotate(&p, &cands, &AnnotateOptions::base()).unwrap();
        let opt = annotate(&p, &cands, &AnnotateOptions::profiling()).unwrap();
        let rb = Interp::run(&base, &mut NullSink).unwrap();
        let ro = Interp::run(&opt, &mut NullSink).unwrap();
        // base reads stats at every inner eloop too
        assert!(rb.annotation_cycles.stats_reads > ro.annotation_cycles.stats_reads);
    }

    #[test]
    fn return_inside_loop_closes_it() {
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, true, |f| {
            let (a, i) = (f.local(), f.local());
            f.ci(64).newarray(ElemKind::Int).st(a);
            f.for_in(i, 0.into(), 64.into(), |f| {
                // early return when a[i] == 0 (always true immediately)
                f.if_icmp(
                    Cond::Eq,
                    |f| {
                        f.arr_get(a, |f| {
                            f.ld(i);
                        })
                        .ci(0);
                    },
                    |f| {
                        f.ld(i).ret();
                    },
                );
            });
            f.ci(-1).ret();
        });
        let p = b.finish(main).unwrap();
        let cands = extract_candidates(&p);
        let ann = annotate(&p, &cands, &AnnotateOptions::profiling()).unwrap();
        let mut sink = CountingSink::default();
        let r = Interp::run(&ann, &mut sink).unwrap();
        assert_eq!(r.ret.unwrap().as_int().unwrap(), 0);
        assert_eq!(sink.loop_enters, 1);
        assert_eq!(sink.loop_exits, 1, "return must close the loop");
    }

    #[test]
    fn origin_maps_relocate_every_original_instruction() {
        let p = simple_loop_program();
        let cands = extract_candidates(&p);
        let (ann, maps) = annotate_mapped(&p, &cands, &AnnotateOptions::profiling()).unwrap();
        assert_eq!(maps.len(), ann.functions.len());
        let map = &maps[0];
        assert_eq!(map.len(), ann.functions[0].code.len());
        // every mapped instruction is the original one, modulo
        // retargeted branch operands
        let mut seen = BTreeSet::new();
        for (new_idx, orig) in map.iter().enumerate() {
            let Some(orig) = orig else { continue };
            assert!(seen.insert(*orig), "original {orig} relocated twice");
            let a = ann.functions[0].code[new_idx];
            let o = p.functions[0].code[*orig as usize];
            let same = a == o
                || (a.branch_target().is_some() && a.map_target(|_| 0) == o.map_target(|_| 0));
            assert!(same, "map {new_idx}->{orig}: {a:?} vs {o:?}");
        }
        // nothing is dropped: all original instructions appear
        assert_eq!(seen.len(), p.functions[0].code.len());
    }

    #[test]
    fn patch_loop_matches_whole_program_annotation_in_any_order() {
        let p = nested_loop_program();
        let cands = extract_candidates(&p);
        let ids: Vec<LoopId> = cands.candidates.iter().map(|c| c.id).collect();
        assert_eq!(ids.len(), 2);

        // inner first, then outer — the opposite of extraction order
        let mut st = PatchState::new(&p);
        assert!(st.patch_loop(&cands, ids[1]).unwrap());
        assert!(st.patch_loop(&cands, ids[0]).unwrap());
        assert!(!st.patch_loop(&cands, ids[0]).unwrap(), "idempotent");
        assert_eq!(
            st.generation(),
            2,
            "only patches that change the image count"
        );

        let (full, maps) =
            annotate_mapped(&p, &cands, &AnnotateOptions::only(ids.clone())).unwrap();
        for (fi, f) in full.functions.iter().enumerate() {
            assert_eq!(st.program().functions[fi].code, f.code);
            assert_eq!(st.maps()[fi], maps[fi]);
        }
    }

    #[test]
    fn partial_patch_instruments_only_the_hot_loop() {
        let p = nested_loop_program();
        let cands = extract_candidates(&p);
        let inner = cands.candidates.iter().find(|c| c.depth == 2).unwrap().id;
        let mut st = PatchState::new(&p);
        st.patch_loop(&cands, inner).unwrap();
        let only = annotate(&p, &cands, &AnnotateOptions::only([inner])).unwrap();
        assert_eq!(st.program().functions[0].code, only.functions[0].code);
        // semantics preserved under the partial image
        let r0 = Interp::run(&p, &mut NullSink).unwrap();
        let r1 = Interp::run(st.program(), &mut NullSink).unwrap();
        assert_eq!(r0.ret, r1.ret);
    }

    #[test]
    fn fresh_patch_state_is_the_original_program() {
        let p = simple_loop_program();
        let st = PatchState::new(&p);
        assert_eq!(st.program().functions[0].code, p.functions[0].code);
        assert!(st.annotated().is_empty());
        assert_eq!(st.generation(), 0);
        assert!(st.maps()[0].iter().all(|o| o.is_some()));
    }

    #[test]
    fn functions_without_candidates_are_untouched() {
        let mut b = ProgramBuilder::new();
        let helper = b.function("helper", 1, true, |f| {
            let x = f.param(0);
            f.ld(x).ld(x).imul().ret();
        });
        let main = b.function("main", 0, true, |f| {
            f.ci(3).call(helper).ret();
        });
        let p = b.finish(main).unwrap();
        let cands = extract_candidates(&p);
        let ann = annotate(&p, &cands, &AnnotateOptions::profiling()).unwrap();
        assert_eq!(ann.functions[0].code, p.functions[0].code);
        assert_eq!(ann.functions[1].code, p.functions[1].code);
    }
}
