//! Generic dataflow analysis over a [`Cfg`].
//!
//! A small worklist solver parameterized by an [`Analysis`]: the
//! client supplies a join-semilattice fact type, a transfer function
//! per basic block, and a direction; [`solve`] iterates to the least
//! fixpoint and returns the fact at every block entry and exit.
//!
//! Three clients live in this workspace:
//!
//! * [`ReachingDefs`] — which definitions of each local reach each
//!   program point (forward, may-analysis);
//! * [`Liveness`] — which locals are live at each block boundary
//!   (backward, may-analysis);
//! * [`upward_exposed_in_loop`] — a loop-scoped liveness variant with
//!   back edges cut, answering "can a read of `v` in one iteration see
//!   a value from before the iteration started?". The scalar
//!   classification uses it to prove iteration-privacy along *all*
//!   paths, not just the dominating-store special case.
//!
//! Analyses can restrict the solved region with
//! [`Analysis::edge_enabled`]: returning `false` removes a CFG edge
//! from the view, which is how the loop-scoped variant cuts back
//! edges without copying the graph.

use crate::cfg::{BlockId, Cfg};
use crate::loops::NaturalLoop;
use tvm::isa::{Instr, Local};
use tvm::program::Function;

/// Direction a dataflow analysis propagates facts in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow along CFG edges (entry fact = join of predecessor
    /// exit facts).
    Forward,
    /// Facts flow against CFG edges (exit fact = join of successor
    /// entry facts).
    Backward,
}

/// A dataflow problem over a [`Cfg`].
///
/// `Fact` must form a join-semilattice with [`Analysis::bottom`] as
/// least element; [`Analysis::transfer`] must be monotone for the
/// solver to terminate on the least fixpoint.
pub trait Analysis {
    /// The lattice element attached to each block boundary.
    type Fact: Clone + PartialEq;

    /// Whether facts flow with or against CFG edges.
    fn direction(&self) -> Direction;

    /// The fact holding at the boundary of the region: the entry block
    /// (forward) or every exit block (backward).
    fn boundary(&self) -> Self::Fact;

    /// The least lattice element, used to initialize interior blocks.
    fn bottom(&self) -> Self::Fact;

    /// Joins `from` into `into` (least upper bound, in place).
    fn join(&self, into: &mut Self::Fact, from: &Self::Fact);

    /// Applies block `b`'s effect to `input`, producing the fact at
    /// the opposite boundary of the block.
    fn transfer(&self, b: BlockId, input: &Self::Fact) -> Self::Fact;

    /// Whether the CFG edge `from -> to` participates in the analysis.
    /// Returning `false` cuts the edge, restricting the solved region;
    /// the default keeps every edge.
    fn edge_enabled(&self, _from: BlockId, _to: BlockId) -> bool {
        true
    }
}

/// The fixpoint of an [`Analysis`]: one fact per block boundary, in
/// block order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution<F> {
    /// Fact holding at each block's entry (before its first
    /// instruction), regardless of analysis direction.
    pub entry: Vec<F>,
    /// Fact holding at each block's exit (after its terminator).
    pub exit: Vec<F>,
}

impl<F> Solution<F> {
    /// Fact at the entry of block `b`.
    pub fn entry_of(&self, b: BlockId) -> &F {
        &self.entry[b.0 as usize]
    }

    /// Fact at the exit of block `b`.
    pub fn exit_of(&self, b: BlockId) -> &F {
        &self.exit[b.0 as usize]
    }
}

/// Runs `a` to its least fixpoint over `cfg`.
///
/// The worklist is seeded in reverse post-order (forward) or
/// post-order (backward) so typical reducible graphs converge in a
/// couple of sweeps.
pub fn solve<A: Analysis>(cfg: &Cfg, a: &A) -> Solution<A::Fact> {
    let n = cfg.len();
    let mut entry: Vec<A::Fact> = vec![a.bottom(); n];
    let mut exit: Vec<A::Fact> = vec![a.bottom(); n];
    if n == 0 {
        return Solution { entry, exit };
    }

    let mut order = cfg.reverse_postorder();
    if a.direction() == Direction::Backward {
        order.reverse();
    }
    let mut queued = vec![false; n];
    let mut work: std::collections::VecDeque<BlockId> = order.iter().copied().collect();
    for b in &work {
        queued[b.0 as usize] = true;
    }

    while let Some(b) = work.pop_front() {
        let bi = b.0 as usize;
        queued[bi] = false;
        match a.direction() {
            Direction::Forward => {
                let mut input = if b == BlockId(0) {
                    a.boundary()
                } else {
                    a.bottom()
                };
                for &p in &cfg.blocks[bi].preds {
                    if a.edge_enabled(p, b) {
                        a.join(&mut input, &exit[p.0 as usize]);
                    }
                }
                let output = a.transfer(b, &input);
                entry[bi] = input;
                if output != exit[bi] {
                    exit[bi] = output;
                    for &s in &cfg.blocks[bi].succs {
                        if a.edge_enabled(b, s) && !queued[s.0 as usize] {
                            queued[s.0 as usize] = true;
                            work.push_back(s);
                        }
                    }
                }
            }
            Direction::Backward => {
                let mut any_succ = false;
                let mut output = a.bottom();
                for &s in &cfg.blocks[bi].succs {
                    if a.edge_enabled(b, s) {
                        any_succ = true;
                        a.join(&mut output, &entry[s.0 as usize]);
                    }
                }
                if !any_succ {
                    output = a.boundary();
                }
                let input = a.transfer(b, &output);
                exit[bi] = output;
                if input != entry[bi] {
                    entry[bi] = input;
                    for &p in &cfg.blocks[bi].preds {
                        if a.edge_enabled(p, b) && !queued[p.0 as usize] {
                            queued[p.0 as usize] = true;
                            work.push_back(p);
                        }
                    }
                }
            }
        }
    }

    Solution { entry, exit }
}

// ---------------------------------------------------------------------
// Bit-set facts
// ---------------------------------------------------------------------

/// A fixed-capacity bit set used as the fact type of the gen/kill
/// analyses.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BitSet {
    words: Vec<u64>,
    nbits: usize,
}

impl BitSet {
    /// An empty set with capacity for `nbits` members.
    pub fn new(nbits: usize) -> BitSet {
        BitSet {
            words: vec![0; nbits.div_ceil(64)],
            nbits,
        }
    }

    /// Adds `i`; returns true if it was absent.
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.nbits);
        let (w, m) = (i / 64, 1u64 << (i % 64));
        let was = self.words[w] & m != 0;
        self.words[w] |= m;
        !was
    }

    /// Removes `i`; returns true if it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        debug_assert!(i < self.nbits);
        let (w, m) = (i / 64, 1u64 << (i % 64));
        let was = self.words[w] & m != 0;
        self.words[w] &= !m;
        was
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        i < self.nbits && self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// `self |= other`; returns true on change.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a | b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// `self -= other`.
    pub fn subtract(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates set bits in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.nbits).filter(|&i| self.contains(i))
    }
}

// ---------------------------------------------------------------------
// Reaching definitions
// ---------------------------------------------------------------------

/// One definition of a local: an instruction that writes it, or the
/// implicit definition at function entry (the incoming parameter value
/// or the default `Int(0)` a fresh frame provides).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefSite {
    /// The local being defined.
    pub local: Local,
    /// Instruction index of the write, or `None` for the entry
    /// definition.
    pub site: Option<u32>,
}

struct ReachingAnalysis {
    n_defs: usize,
    entry_set: BitSet,
    gen: Vec<BitSet>,
    kill: Vec<BitSet>,
}

impl Analysis for ReachingAnalysis {
    type Fact = BitSet;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self) -> BitSet {
        self.entry_set.clone()
    }

    fn bottom(&self) -> BitSet {
        BitSet::new(self.n_defs)
    }

    fn join(&self, into: &mut BitSet, from: &BitSet) {
        into.union_with(from);
    }

    fn transfer(&self, b: BlockId, input: &BitSet) -> BitSet {
        let mut out = input.clone();
        out.subtract(&self.kill[b.0 as usize]);
        out.union_with(&self.gen[b.0 as usize]);
        out
    }
}

/// Reaching definitions of locals over one function.
///
/// Definition ids: `0..n_locals` are the entry definitions (id `l` for
/// local `l`), followed by instruction definitions in instruction
/// order. Query the definitions of one local reaching an instruction
/// with [`ReachingDefs::reaching_defs_of`]; [`ReachingDefs::def`] maps
/// an id back to its site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachingDefs {
    defs: Vec<DefSite>,
    /// def ids per local (entry def first).
    of_local: Vec<Vec<usize>>,
    /// def id of each defining instruction, dense by instruction index.
    def_at_instr: Vec<Option<usize>>,
    sol: Solution<BitSet>,
}

/// The local an instruction writes, if any.
fn written_local(instr: &Instr) -> Option<Local> {
    match instr {
        Instr::Store(l) | Instr::IInc(l, _) => Some(*l),
        _ => None,
    }
}

impl ReachingDefs {
    /// Solves reaching definitions for `f` over `cfg`.
    pub fn compute(f: &Function, cfg: &Cfg) -> ReachingDefs {
        let n_locals = usize::from(f.n_locals);
        let mut defs: Vec<DefSite> = (0..n_locals)
            .map(|l| DefSite {
                local: Local(l as u16),
                site: None,
            })
            .collect();
        let mut of_local: Vec<Vec<usize>> = (0..n_locals).map(|l| vec![l]).collect();
        let mut def_at_instr: Vec<Option<usize>> = vec![None; f.code.len()];
        for (i, instr) in f.code.iter().enumerate() {
            if let Some(l) = written_local(instr) {
                let id = defs.len();
                defs.push(DefSite {
                    local: l,
                    site: Some(i as u32),
                });
                of_local[usize::from(l.0)].push(id);
                def_at_instr[i] = Some(id);
            }
        }

        let n_defs = defs.len();
        let mut entry_set = BitSet::new(n_defs);
        for l in 0..n_locals {
            entry_set.insert(l);
        }

        // block gen (downward-exposed defs) and kill (all other defs of
        // locals the block writes)
        let mut gen = vec![BitSet::new(n_defs); cfg.len()];
        let mut kill = vec![BitSet::new(n_defs); cfg.len()];
        for (bi, _) in cfg.blocks.iter().enumerate() {
            let b = BlockId(bi as u32);
            let mut last: Vec<Option<usize>> = vec![None; n_locals];
            for i in cfg.instrs_of(b) {
                if let Some(id) = def_at_instr[i as usize] {
                    last[usize::from(defs[id].local.0)] = Some(id);
                }
            }
            for (l, slot) in last.iter().enumerate() {
                if let Some(id) = slot {
                    gen[bi].insert(*id);
                    for &other in &of_local[l] {
                        if other != *id {
                            kill[bi].insert(other);
                        }
                    }
                }
            }
        }

        let analysis = ReachingAnalysis {
            n_defs,
            entry_set,
            gen,
            kill,
        };
        let sol = solve(cfg, &analysis);
        ReachingDefs {
            defs,
            of_local,
            def_at_instr,
            sol,
        }
    }

    /// The definition behind id `id`.
    pub fn def(&self, id: usize) -> DefSite {
        self.defs[id]
    }

    /// Definitions of `local` reaching just before instruction `instr`
    /// of block `b`: the last definition of `local` earlier in the
    /// block if there is one, else those reaching the block's entry.
    pub fn reaching_defs_of(
        &self,
        cfg: &Cfg,
        b: BlockId,
        instr: u32,
        local: Local,
    ) -> Vec<DefSite> {
        let in_block = cfg
            .instrs_of(b)
            .take_while(|&i| i < instr)
            .filter_map(|i| self.def_at_instr[i as usize])
            .filter(|&id| self.defs[id].local == local)
            .last();
        if let Some(id) = in_block {
            return vec![self.defs[id]];
        }
        let at = self.sol.entry_of(b);
        self.of_local[usize::from(local.0)]
            .iter()
            .filter(|&&id| at.contains(id))
            .map(|&id| self.defs[id])
            .collect()
    }
}

// ---------------------------------------------------------------------
// Liveness
// ---------------------------------------------------------------------

/// Per-block gen (upward-exposed reads) and kill (writes) sets over
/// locals, shared by whole-function and loop-scoped liveness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalGenKill {
    n_locals: usize,
    gen: Vec<BitSet>,
    kill: Vec<BitSet>,
}

impl LocalGenKill {
    /// The gen/kill sets of every block of `f` over `cfg`.
    pub fn compute(f: &Function, cfg: &Cfg) -> LocalGenKill {
        let n_locals = usize::from(f.n_locals);
        let mut gen = vec![BitSet::new(n_locals); cfg.len()];
        let mut kill = vec![BitSet::new(n_locals); cfg.len()];
        for bi in 0..cfg.len() {
            let b = BlockId(bi as u32);
            for i in cfg.instrs_of(b) {
                match &f.code[i as usize] {
                    Instr::Load(l) if !kill[bi].contains(usize::from(l.0)) => {
                        gen[bi].insert(usize::from(l.0));
                    }
                    Instr::IInc(l, _) => {
                        // reads the old value, then writes
                        if !kill[bi].contains(usize::from(l.0)) {
                            gen[bi].insert(usize::from(l.0));
                        }
                        kill[bi].insert(usize::from(l.0));
                    }
                    Instr::Store(l) => {
                        kill[bi].insert(usize::from(l.0));
                    }
                    _ => {}
                }
            }
        }
        LocalGenKill {
            n_locals,
            gen,
            kill,
        }
    }

    /// [`upward_exposed_in_loop`] over these gen/kill sets.
    pub fn upward_exposed_in_loop(&self, cfg: &Cfg, lp: &NaturalLoop) -> BitSet {
        let analysis = LoopExposure { gk: self, lp };
        let sol = solve(cfg, &analysis);
        sol.entry_of(lp.header).clone()
    }

    fn transfer(&self, b: BlockId, out: &BitSet) -> BitSet {
        let mut live = out.clone();
        live.subtract(&self.kill[b.0 as usize]);
        live.union_with(&self.gen[b.0 as usize]);
        live
    }
}

struct LivenessAnalysis(LocalGenKill);

impl Analysis for LivenessAnalysis {
    type Fact = BitSet;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn boundary(&self) -> BitSet {
        BitSet::new(self.0.n_locals)
    }

    fn bottom(&self) -> BitSet {
        BitSet::new(self.0.n_locals)
    }

    fn join(&self, into: &mut BitSet, from: &BitSet) {
        into.union_with(from);
    }

    fn transfer(&self, b: BlockId, out: &BitSet) -> BitSet {
        self.0.transfer(b, out)
    }
}

/// Live locals at every block boundary of one function.
pub struct Liveness {
    sol: Solution<BitSet>,
}

impl Liveness {
    /// Solves liveness for `f` over `cfg`.
    pub fn compute(f: &Function, cfg: &Cfg) -> Liveness {
        let analysis = LivenessAnalysis(LocalGenKill::compute(f, cfg));
        Liveness {
            sol: solve(cfg, &analysis),
        }
    }

    /// Locals live at the entry of block `b`.
    pub fn live_in(&self, b: BlockId) -> &BitSet {
        self.sol.entry_of(b)
    }

    /// Locals live at the exit of block `b`.
    pub fn live_out(&self, b: BlockId) -> &BitSet {
        self.sol.exit_of(b)
    }
}

// ---------------------------------------------------------------------
// Loop-scoped upward exposure
// ---------------------------------------------------------------------

struct LoopExposure<'a> {
    gk: &'a LocalGenKill,
    lp: &'a NaturalLoop,
}

impl Analysis for LoopExposure<'_> {
    type Fact = BitSet;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn boundary(&self) -> BitSet {
        BitSet::new(self.gk.n_locals)
    }

    fn bottom(&self) -> BitSet {
        BitSet::new(self.gk.n_locals)
    }

    fn join(&self, into: &mut BitSet, from: &BitSet) {
        into.union_with(from);
    }

    fn transfer(&self, b: BlockId, out: &BitSet) -> BitSet {
        if !self.lp.blocks.contains(&b) {
            return out.clone();
        }
        self.gk.transfer(b, out)
    }

    fn edge_enabled(&self, from: BlockId, to: BlockId) -> bool {
        // keep only intra-loop edges, and cut every in-loop edge back
        // to the header: the header dominates the body, so any such
        // edge is a back edge, and cutting it limits exposure to a
        // single iteration.
        self.lp.blocks.contains(&from) && self.lp.blocks.contains(&to) && to != self.lp.header
    }
}

/// Locals whose reads inside `lp` can observe a value produced before
/// the current iteration began.
///
/// Solves liveness restricted to the loop body with back edges cut;
/// the fact at the header's entry is exactly the set of locals with an
/// upward-exposed read along some intra-iteration path. A local
/// outside this set is written before every read on every path — safe
/// to privatize per speculative thread.
pub fn upward_exposed_in_loop(f: &Function, cfg: &Cfg, lp: &NaturalLoop) -> BitSet {
    LocalGenKill::compute(f, cfg).upward_exposed_in_loop(cfg, lp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::Dominators;
    use crate::loops::LoopForest;
    use tvm::isa::Cond;
    use tvm::ProgramBuilder;

    fn build_main(body: impl FnOnce(&mut tvm::FnBuilder)) -> tvm::Program {
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, false, |f| {
            body(f);
            f.ret_void();
        });
        b.finish(main).unwrap()
    }

    #[test]
    fn bitset_ops() {
        let mut a = BitSet::new(130);
        assert!(a.insert(0));
        assert!(a.insert(129));
        assert!(!a.insert(129));
        assert!(a.contains(129));
        assert_eq!(a.count(), 2);
        let mut b = BitSet::new(130);
        b.insert(64);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 64, 129]);
        a.subtract(&b);
        assert!(!a.contains(64));
        assert!(a.remove(0));
        assert!(!a.remove(0));
    }

    #[test]
    fn reaching_defs_merge_at_join() {
        // if (..) x = 1 else x = 2; read x  -> both stores reach the read
        let p = build_main(|f| {
            let x = f.local();
            f.if_else_icmp(
                Cond::Gt,
                |f| {
                    f.ci(1).ci(0);
                },
                |f| {
                    f.ci(1).st(x);
                },
                |f| {
                    f.ci(2).st(x);
                },
            );
            f.ld(x).drop_top();
        });
        let func = &p.functions[0];
        let cfg = Cfg::build(func);
        let rd = ReachingDefs::compute(func, &cfg);

        let load_idx = func
            .code
            .iter()
            .position(|i| matches!(i, Instr::Load(_)))
            .unwrap() as u32;
        let b = cfg.block_of(load_idx).unwrap();
        let local = match func.code[load_idx as usize] {
            Instr::Load(l) => l,
            _ => unreachable!(),
        };
        let defs = rd.reaching_defs_of(&cfg, b, load_idx, local);
        // both branch stores reach; the entry def is killed on every path
        assert_eq!(defs.len(), 2);
        assert!(defs.iter().all(|d| d.site.is_some()));
    }

    #[test]
    fn reaching_defs_within_block_shadow_entry() {
        let p = build_main(|f| {
            let x = f.local();
            f.ci(7).st(x);
            f.ld(x).drop_top();
        });
        let func = &p.functions[0];
        let cfg = Cfg::build(func);
        let rd = ReachingDefs::compute(func, &cfg);
        let load_idx = func
            .code
            .iter()
            .position(|i| matches!(i, Instr::Load(_)))
            .unwrap() as u32;
        let b = cfg.block_of(load_idx).unwrap();
        let defs = rd.reaching_defs_of(&cfg, b, load_idx, Local(0));
        assert_eq!(defs.len(), 1);
        assert!(defs[0].site.is_some());
    }

    #[test]
    fn liveness_sees_use_after_branch() {
        let p = build_main(|f| {
            let x = f.local();
            let y = f.local();
            f.ci(1).st(x);
            f.ci(2).st(y);
            f.if_else_icmp(
                Cond::Gt,
                |f| {
                    f.ld(x).ci(0);
                },
                |f| {
                    f.ld(y).drop_top();
                },
                |_f| {},
            );
        });
        let func = &p.functions[0];
        let cfg = Cfg::build(func);
        let live = Liveness::compute(func, &cfg);
        // x and y are dead at entry (defined before use in block 0)
        assert!(!live.live_in(BlockId(0)).contains(0));
        assert!(!live.live_in(BlockId(0)).contains(1));
        // y is live leaving the entry block (used in the then-branch)
        assert!(live.live_out(BlockId(0)).contains(1));
    }

    #[test]
    fn loop_exposure_distinguishes_private_from_carried() {
        // t is written before every read inside the body; s is read
        // (accumulated) before being written -> only s is exposed.
        let p = build_main(|f| {
            let i = f.local();
            let t = f.local();
            let s = f.local();
            f.ci(0).st(s);
            f.for_in(i, 0.into(), 10.into(), |f| {
                f.ld(i).ci(3).imul().st(t);
                f.ld(s).ld(t).iadd().st(s);
            });
            f.ld(s).drop_top();
        });
        let func = &p.functions[0];
        let cfg = Cfg::build(func);
        let dom = Dominators::compute(&cfg);
        let forest = LoopForest::build(&cfg, &dom);
        assert_eq!(forest.len(), 1);
        let exposed = upward_exposed_in_loop(func, &cfg, &forest.loops[0]);
        assert!(!exposed.contains(1), "t must not be upward-exposed");
        assert!(exposed.contains(2), "s must be upward-exposed");
        // the inductor is read by the loop test before its increment
        assert!(exposed.contains(0));
    }
}
