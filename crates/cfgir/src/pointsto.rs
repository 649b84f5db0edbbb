//! Whole-program, field-sensitive, flow-insensitive Andersen-style
//! points-to and escape analysis over TraceVM bytecode.
//!
//! The heap is modeled with *allocation-site abstraction*: every
//! `NewArray`/`NewObject` instruction ([`tvm::alloc::AllocSites`]) is
//! one abstract object. Set variables are attached to every function's
//! local slots and return value, every static, and every reference
//! field (or array element slot) of every abstract object. Bytecode is
//! walked once per basic block with an abstract operand stack to
//! generate inclusion constraints:
//!
//! * **copy** — `pts(a) ⊆ pts(b)` for local/static/parameter/return
//!   moves;
//! * **load** — for `x = base.f`: for every site `s ∈ pts(base)`,
//!   `pts(field(s, f)) ⊆ pts(x)`;
//! * **store** — for `base.f = x`: for every site `s ∈ pts(base)`,
//!   `pts(x) ⊆ pts(field(s, f))`.
//!
//! A worklist solver (the points-to analogue of the
//! [`crate::dataflow`] round-robin solver, driven by set growth rather
//! than block order) instantiates the complex constraints as the base
//! sets grow, until fixpoint.
//!
//! **Soundness escape hatches.** Anything the walk cannot model stays
//! conservative: a stack value of unknown provenance (an operand left
//! on the stack across a block boundary, or produced by an unmodeled
//! instruction) points to *every* site plus a distinguished
//! unknown-object marker, and a store through an unknown base routes
//! its value through a smash variable that every load observes. A
//! variable whose set contains the unknown marker never participates
//! in a disjointness proof.
//!
//! **Escape analysis.** Statics are escape roots: every site reachable
//! from a static's points-to set (transitively through reference
//! fields) [`PointsTo::escapes_via_static`]. Sites that flow into
//! another function's parameters or out through a return escape their
//! allocating function ([`PointsTo::escapes_via_arg`]).
//!
//! The analysis is *sound but partial* — the agreement report and the
//! fuzzing oracle (PR 3's harness) dynamically check that every pair
//! of accesses this module helps prove disjoint really never touches a
//! common address.

use crate::cfg::Cfg;
use crate::dataflow::BitSet;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::time::Instant;
use tvm::alloc::{AllocSites, SiteId, SiteKind};
use tvm::isa::{ElemKind, FuncId, GlobalId, Instr, Local};
use tvm::program::Program;
use tvm::verify::stack_effect;

/// Field key used for the element slot of an array site (object fields
/// use their slot index).
pub const ELEM_KEY: u32 = u32::MAX;

/// Solver statistics, recorded in the `obs` registry by the pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Allocation sites (abstract objects), excluding the unknown
    /// marker.
    pub abstract_objects: usize,
    /// Set variables (locals, returns, statics, fields, temporaries).
    pub variables: usize,
    /// Copy edges materialized by the solver (complex constraints
    /// included, after instantiation).
    pub constraint_edges: usize,
    /// Variables processed by the worklist until fixpoint.
    pub iterations: u64,
    /// Wall-clock time of constraint generation + solving.
    pub wall_nanos: u64,
}

/// What a function may (transitively) store to — the sharpened form of
/// `Access::Opaque`.
#[derive(Debug, Clone, Default)]
struct StoreSummary {
    /// Statics written.
    statics: BTreeSet<u16>,
    /// Abstract objects whose fields may be written (unknown marker
    /// included as the last bit).
    field_sites: BitSet,
    /// Abstract objects whose elements may be written.
    elem_sites: BitSet,
}

/// An abstract value on the walk's operand stack.
#[derive(Debug, Clone, Copy)]
enum Sv {
    /// Tracked by a set variable.
    Var(u32),
    /// A freshly allocated abstract object.
    Site(SiteId),
    /// A non-reference value (or null — dereferencing it faults, so it
    /// aliases nothing).
    Prim,
    /// Unknown provenance: any object at all.
    Unknown,
}

/// Inclusion-constraint state: points-to sets, copy edges and complex
/// (field load/store) constraints per variable.
struct Solver {
    /// `n_sites` is also the bit index of the unknown marker.
    n_sites: usize,
    pts: Vec<BitSet>,
    edges: Vec<Vec<u32>>,
    edge_set: HashSet<(u32, u32)>,
    loads: Vec<Vec<(u32, u32)>>,
    stores: Vec<Vec<(u32, u32)>>,
    dirty: Vec<u32>,
    in_dirty: Vec<bool>,
    iterations: u64,
}

impl Solver {
    fn new(n_sites: usize) -> Solver {
        Solver {
            n_sites,
            pts: Vec::new(),
            edges: Vec::new(),
            edge_set: HashSet::new(),
            loads: Vec::new(),
            stores: Vec::new(),
            dirty: Vec::new(),
            in_dirty: Vec::new(),
            iterations: 0,
        }
    }

    fn fresh(&mut self) -> u32 {
        let v = self.pts.len() as u32;
        self.pts.push(BitSet::new(self.n_sites + 1));
        self.edges.push(Vec::new());
        self.loads.push(Vec::new());
        self.stores.push(Vec::new());
        self.in_dirty.push(false);
        v
    }

    fn mark(&mut self, v: u32) {
        if !self.in_dirty[v as usize] {
            self.in_dirty[v as usize] = true;
            self.dirty.push(v);
        }
    }

    fn seed_site(&mut self, v: u32, s: SiteId) {
        if self.pts[v as usize].insert(s.0 as usize) {
            self.mark(v);
        }
    }

    fn seed_all(&mut self, v: u32) {
        let mut changed = false;
        for i in 0..=self.n_sites {
            changed |= self.pts[v as usize].insert(i);
        }
        if changed {
            self.mark(v);
        }
    }

    fn add_edge(&mut self, from: u32, to: u32) {
        if from == to || !self.edge_set.insert((from, to)) {
            return;
        }
        self.edges[from as usize].push(to);
        let (a, b) = (from as usize, to as usize);
        let src = self.pts[a].clone();
        if self.pts[b].union_with(&src) {
            self.mark(to);
        }
    }

    /// Flows an abstract stack value into a set variable.
    fn flow_into(&mut self, sv: Sv, v: u32) {
        match sv {
            Sv::Var(w) => self.add_edge(w, v),
            Sv::Site(s) => self.seed_site(v, s),
            Sv::Unknown => self.seed_all(v),
            Sv::Prim => {}
        }
    }

    /// Materializes any stack value as a variable (needed as the source
    /// of a complex store constraint).
    fn as_var(&mut self, sv: Sv) -> Option<u32> {
        match sv {
            Sv::Var(v) => Some(v),
            Sv::Site(_) | Sv::Unknown => {
                let v = self.fresh();
                self.flow_into(sv, v);
                Some(v)
            }
            Sv::Prim => None,
        }
    }

    fn has_unknown(&self, v: u32) -> bool {
        self.pts[v as usize].contains(self.n_sites)
    }

    /// Runs the worklist to fixpoint, instantiating complex
    /// constraints against `field_var`.
    fn solve(&mut self, field_var: &HashMap<(u32, u32), u32>, smash: u32) {
        while let Some(v) = self.dirty.pop() {
            self.in_dirty[v as usize] = false;
            self.iterations += 1;
            let sites: Vec<usize> = self.pts[v as usize].iter().collect();
            let unknown = self.has_unknown(v);
            for (key, dst) in self.loads[v as usize].clone() {
                if unknown {
                    self.seed_all(dst);
                }
                for &s in &sites {
                    if let Some(&fv) = field_var.get(&(s as u32, key)) {
                        self.add_edge(fv, dst);
                    }
                }
            }
            for (key, src) in self.stores[v as usize].clone() {
                if unknown {
                    self.add_edge(src, smash);
                }
                for &s in &sites {
                    if let Some(&fv) = field_var.get(&(s as u32, key)) {
                        self.add_edge(src, fv);
                    }
                }
            }
            let out = self.edges[v as usize].clone();
            let src = self.pts[v as usize].clone();
            for w in out {
                if self.pts[w as usize].union_with(&src) {
                    self.mark(w);
                }
            }
        }
    }
}

/// A base reference a store goes through, recorded for the per-function
/// store summaries.
#[derive(Debug, Clone, Copy)]
enum BaseRef {
    Var(u32),
    Site(SiteId),
    Unknown,
}

/// The solved whole-program points-to and escape facts.
#[derive(Debug, Clone, Default)]
pub struct PointsTo {
    n_sites: usize,
    sites: AllocSites,
    pts: Vec<BitSet>,
    /// First variable of each function's local slots.
    local_base: Vec<u32>,
    summaries: Vec<StoreSummary>,
    escapes_static: BitSet,
    escapes_arg: BitSet,
    stats: SolverStats,
}

impl PointsTo {
    /// Analyzes a whole program.
    pub fn analyze(program: &Program) -> PointsTo {
        let start = Instant::now();
        let sites = AllocSites::build(program);
        let n_sites = sites.len();
        let mut solver = Solver::new(n_sites);

        // -- variable layout -----------------------------------------
        let smash = solver.fresh();
        let local_base: Vec<u32> = program
            .functions
            .iter()
            .map(|f| {
                let base = solver.pts.len() as u32;
                for _ in 0..f.n_locals {
                    solver.fresh();
                }
                base
            })
            .collect();
        let ret_var: Vec<u32> = program.functions.iter().map(|_| solver.fresh()).collect();
        let global_var: Vec<u32> = program.globals.iter().map(|_| solver.fresh()).collect();
        let mut field_var: HashMap<(u32, u32), u32> = HashMap::new();
        for site in sites.iter() {
            match site.kind {
                SiteKind::Array(ElemKind::Ref) => {
                    let v = solver.fresh();
                    field_var.insert((site.id.0, ELEM_KEY), v);
                }
                SiteKind::Array(_) => {}
                SiteKind::Object(c) => {
                    if let Ok(class) = program.class(c) {
                        for (fi, kind) in class.fields.iter().enumerate() {
                            if *kind == ElemKind::Ref {
                                let v = solver.fresh();
                                field_var.insert((site.id.0, fi as u32), v);
                            }
                        }
                    }
                }
            }
        }
        let local_var = |fi: usize, l: Local| local_base[fi] + u32::from(l.0);

        // -- constraint generation (one abstract-stack walk per block)
        let mut direct_field_stores: Vec<Vec<BaseRef>> = vec![Vec::new(); program.functions.len()];
        let mut direct_elem_stores: Vec<Vec<BaseRef>> = vec![Vec::new(); program.functions.len()];
        let mut direct_statics: Vec<BTreeSet<u16>> = vec![BTreeSet::new(); program.functions.len()];
        let mut calls: Vec<Vec<usize>> = vec![Vec::new(); program.functions.len()];

        for (fi, f) in program.functions.iter().enumerate() {
            let cfg = Cfg::build(f);
            for bi in 0..cfg.len() {
                let b = crate::cfg::BlockId(bi as u32);
                let mut stack: Vec<Sv> = Vec::new();
                for i in cfg.instrs_of(b) {
                    let pc = tvm::isa::Pc {
                        func: FuncId(fi as u16),
                        idx: i,
                    };
                    let instr = &f.code[i as usize];
                    let pop = |stack: &mut Vec<Sv>| stack.pop().unwrap_or(Sv::Unknown);
                    match instr {
                        Instr::NullConst => stack.push(Sv::Prim),
                        Instr::Load(l) => stack.push(Sv::Var(local_var(fi, *l))),
                        Instr::Store(l) => {
                            let v = pop(&mut stack);
                            solver.flow_into(v, local_var(fi, *l));
                        }
                        Instr::Dup => {
                            let t = stack.last().copied().unwrap_or(Sv::Unknown);
                            stack.push(t);
                        }
                        Instr::Swap => {
                            let (y, x) = (pop(&mut stack), pop(&mut stack));
                            stack.push(y);
                            stack.push(x);
                        }
                        Instr::NewArray(_) | Instr::NewObject(_) => {
                            if matches!(instr, Instr::NewArray(_)) {
                                pop(&mut stack); // length
                            }
                            let s = sites.site_at(pc).expect("allocation site was tabled");
                            stack.push(Sv::Site(s));
                        }
                        Instr::GetStatic(g) => {
                            stack.push(Sv::Var(global_var[g.0 as usize]));
                        }
                        Instr::PutStatic(g) => {
                            let v = pop(&mut stack);
                            solver.flow_into(v, global_var[g.0 as usize]);
                            direct_statics[fi].insert(g.0);
                        }
                        Instr::GetField(fld) => {
                            let base = pop(&mut stack);
                            let dst = solver.fresh();
                            add_load(&mut solver, &field_var, smash, base, u32::from(*fld), dst);
                            stack.push(Sv::Var(dst));
                        }
                        Instr::PutField(fld) => {
                            let val = pop(&mut stack);
                            let base = pop(&mut stack);
                            add_store(&mut solver, &field_var, smash, base, u32::from(*fld), val);
                            record_base(&mut direct_field_stores[fi], base);
                        }
                        Instr::ALoad => {
                            pop(&mut stack); // index
                            let base = pop(&mut stack);
                            let dst = solver.fresh();
                            add_load(&mut solver, &field_var, smash, base, ELEM_KEY, dst);
                            stack.push(Sv::Var(dst));
                        }
                        Instr::AStore => {
                            let val = pop(&mut stack);
                            pop(&mut stack); // index
                            let base = pop(&mut stack);
                            add_store(&mut solver, &field_var, smash, base, ELEM_KEY, val);
                            record_base(&mut direct_elem_stores[fi], base);
                        }
                        Instr::Call(callee) => {
                            let ci = callee.0 as usize;
                            calls[fi].push(ci);
                            let n_params = program.functions[ci].n_params;
                            for p in (0..n_params).rev() {
                                let a = pop(&mut stack);
                                solver.flow_into(a, local_var(ci, Local(p)));
                            }
                            if program.functions[ci].returns {
                                stack.push(Sv::Var(ret_var[ci]));
                            }
                        }
                        Instr::Return => {
                            let v = pop(&mut stack);
                            solver.flow_into(v, ret_var[fi]);
                        }
                        Instr::ReturnVoid | Instr::Halt => {}
                        other => {
                            // generic fallback by stack arity; no
                            // unmodeled instruction produces a
                            // reference, so pushing primitives is sound
                            if let Ok((pops, pushes)) = stack_effect(program, other) {
                                for _ in 0..pops {
                                    pop(&mut stack);
                                }
                                for _ in 0..pushes {
                                    stack.push(Sv::Prim);
                                }
                            } else {
                                stack.clear();
                            }
                        }
                    }
                }
            }
        }

        // initial propagation round covers everything seeded so far
        for v in 0..solver.pts.len() as u32 {
            solver.mark(v);
        }
        solver.solve(&field_var, smash);

        // -- per-function store summaries, closed over the call graph
        let mut summaries: Vec<StoreSummary> = (0..program.functions.len())
            .map(|fi| {
                let mut s = StoreSummary {
                    statics: direct_statics[fi].clone(),
                    field_sites: BitSet::new(n_sites + 1),
                    elem_sites: BitSet::new(n_sites + 1),
                };
                let absorb = |set: &mut BitSet, bases: &[BaseRef]| {
                    for b in bases {
                        match b {
                            BaseRef::Var(v) => {
                                set.union_with(&solver.pts[*v as usize]);
                            }
                            BaseRef::Site(sid) => {
                                set.insert(sid.0 as usize);
                            }
                            BaseRef::Unknown => {
                                for i in 0..=n_sites {
                                    set.insert(i);
                                }
                            }
                        }
                    }
                };
                absorb(&mut s.field_sites, &direct_field_stores[fi]);
                absorb(&mut s.elem_sites, &direct_elem_stores[fi]);
                s
            })
            .collect();
        loop {
            let mut changed = false;
            for fi in 0..summaries.len() {
                for &callee in &calls[fi] {
                    if callee == fi {
                        continue;
                    }
                    let (statics, fields, elems) = {
                        let c = &summaries[callee];
                        (
                            c.statics.clone(),
                            c.field_sites.clone(),
                            c.elem_sites.clone(),
                        )
                    };
                    let s = &mut summaries[fi];
                    let before = s.statics.len();
                    s.statics.extend(statics);
                    changed |= s.statics.len() != before;
                    changed |= s.field_sites.union_with(&fields);
                    changed |= s.elem_sites.union_with(&elems);
                }
            }
            if !changed {
                break;
            }
        }

        // -- escape analysis -----------------------------------------
        let mut escapes_static = BitSet::new(n_sites + 1);
        for &gv in &global_var {
            escapes_static.union_with(&solver.pts[gv as usize]);
        }
        // close over reference fields: anything an escaping object can
        // reach escapes too (including smash contents, which may have
        // been stored into any object's fields)
        loop {
            let mut changed = false;
            if !escapes_static.is_empty() {
                changed |= escapes_static.union_with(&solver.pts[smash as usize]);
            }
            if escapes_static.contains(n_sites) {
                for i in 0..n_sites {
                    changed |= escapes_static.insert(i);
                }
            }
            let reached: Vec<usize> = escapes_static.iter().filter(|&s| s < n_sites).collect();
            for s in reached {
                for ((site, _key), fv) in &field_var {
                    if *site == s as u32 {
                        changed |= escapes_static.union_with(&solver.pts[*fv as usize]);
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let mut escapes_arg = BitSet::new(n_sites + 1);
        for (fi, f) in program.functions.iter().enumerate() {
            for p in 0..f.n_params {
                for s in solver.pts[local_var(fi, Local(p)) as usize].iter() {
                    if s < n_sites && sites.get(SiteId(s as u32)).pc.func.0 as usize != fi {
                        escapes_arg.insert(s);
                    }
                }
            }
            for s in solver.pts[ret_var[fi] as usize].iter() {
                if s < n_sites && sites.get(SiteId(s as u32)).pc.func.0 as usize == fi {
                    escapes_arg.insert(s);
                }
            }
        }

        let stats = SolverStats {
            abstract_objects: n_sites,
            variables: solver.pts.len(),
            constraint_edges: solver.edge_set.len(),
            iterations: solver.iterations,
            wall_nanos: start.elapsed().as_nanos() as u64,
        };
        PointsTo {
            n_sites,
            sites,
            pts: solver.pts,
            local_base,
            summaries,
            escapes_static,
            escapes_arg,
            stats,
        }
    }

    /// Solver statistics for the `obs` registry.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// The program's allocation sites.
    pub fn sites(&self) -> &AllocSites {
        &self.sites
    }

    /// True when the site may be reachable from a static variable.
    pub fn escapes_via_static(&self, s: SiteId) -> bool {
        self.escapes_static.contains(s.0 as usize)
    }

    /// True when the site flows into another function's parameters or
    /// out of its allocating function through a return.
    pub fn escapes_via_arg(&self, s: SiteId) -> bool {
        self.escapes_arg.contains(s.0 as usize)
    }

    /// Per-function query view.
    pub fn view(&self, func: FuncId) -> FnView<'_> {
        FnView { pt: self, func }
    }

    fn local_pts(&self, func: FuncId, l: Local) -> &BitSet {
        &self.pts[(self.local_base[func.0 as usize] + u32::from(l.0)) as usize]
    }

    fn is_unknown(&self, set: &BitSet) -> bool {
        set.contains(self.n_sites)
    }

    fn sets_disjoint(&self, a: &BitSet, b: &BitSet) -> bool {
        if self.is_unknown(a) || self.is_unknown(b) {
            return false;
        }
        !a.iter().any(|s| b.contains(s))
    }
}

/// Points-to queries scoped to one function's locals.
#[derive(Debug, Clone, Copy)]
pub struct FnView<'a> {
    pt: &'a PointsTo,
    func: FuncId,
}

impl<'a> FnView<'a> {
    /// The whole-program facts behind this view.
    pub fn program(&self) -> &'a PointsTo {
        self.pt
    }

    /// True when the two locals provably never hold the same object:
    /// both points-to sets are fully known and share no allocation
    /// site.
    pub fn locals_disjoint(&self, a: Local, b: Local) -> bool {
        let (sa, sb) = (
            self.pt.local_pts(self.func, a),
            self.pt.local_pts(self.func, b),
        );
        self.pt.sets_disjoint(sa, sb)
    }

    /// Allocation sites the local may point to, with an unknown flag.
    /// Used by diagnostics.
    pub fn local_sites(&self, l: Local) -> (Vec<SiteId>, bool) {
        let set = self.pt.local_pts(self.func, l);
        let sites = set
            .iter()
            .filter(|&s| s < self.pt.n_sites)
            .map(|s| SiteId(s as u32))
            .collect();
        (sites, self.pt.is_unknown(set))
    }

    /// True when a call to `callee` may (transitively) write static
    /// `g`.
    pub fn callee_may_store_static(&self, callee: FuncId, g: GlobalId) -> bool {
        self.pt
            .summaries
            .get(callee.0 as usize)
            .is_none_or(|s| s.statics.contains(&g.0))
    }

    /// True when a call to `callee` may write a field of an object the
    /// local `base` can point to.
    pub fn callee_may_store_fields_of(&self, callee: FuncId, base: Local) -> bool {
        let Some(summary) = self.pt.summaries.get(callee.0 as usize) else {
            return true;
        };
        !self
            .pt
            .sets_disjoint(&summary.field_sites, self.pt.local_pts(self.func, base))
    }

    /// True when a call to `callee` may write an element of an array
    /// the local `base` can point to.
    pub fn callee_may_store_elems_of(&self, callee: FuncId, base: Local) -> bool {
        let Some(summary) = self.pt.summaries.get(callee.0 as usize) else {
            return true;
        };
        !self
            .pt
            .sets_disjoint(&summary.elem_sites, self.pt.local_pts(self.func, base))
    }
}

fn add_load(
    solver: &mut Solver,
    field_var: &HashMap<(u32, u32), u32>,
    smash: u32,
    base: Sv,
    key: u32,
    dst: u32,
) {
    match base {
        Sv::Var(b) => {
            solver.loads[b as usize].push((key, dst));
            solver.add_edge(smash, dst);
            solver.mark(b);
        }
        Sv::Site(s) => {
            if let Some(&fv) = field_var.get(&(s.0, key)) {
                solver.add_edge(fv, dst);
            }
            solver.add_edge(smash, dst);
        }
        Sv::Unknown => solver.seed_all(dst),
        Sv::Prim => {}
    }
}

fn add_store(
    solver: &mut Solver,
    field_var: &HashMap<(u32, u32), u32>,
    smash: u32,
    base: Sv,
    key: u32,
    val: Sv,
) {
    if matches!(val, Sv::Prim) {
        return;
    }
    match base {
        Sv::Var(b) => {
            if let Some(src) = solver.as_var(val) {
                solver.stores[b as usize].push((key, src));
                solver.mark(b);
            }
        }
        Sv::Site(s) => {
            if let Some(&fv) = field_var.get(&(s.0, key)) {
                solver.flow_into(val, fv);
            }
        }
        Sv::Unknown => solver.flow_into(val, smash),
        Sv::Prim => {}
    }
}

fn record_base(out: &mut Vec<BaseRef>, base: Sv) {
    match base {
        Sv::Var(v) => out.push(BaseRef::Var(v)),
        Sv::Site(s) => out.push(BaseRef::Site(s)),
        Sv::Unknown => out.push(BaseRef::Unknown),
        Sv::Prim => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm::isa::Cond;
    use tvm::ProgramBuilder;

    #[test]
    fn two_lists_from_distinct_sites_are_disjoint() {
        // Two linked lists built from two allocation sites, each
        // traversed by a cursor local: the cursors must be provably
        // disjoint, and each must include its own site.
        let mut b = ProgramBuilder::new();
        let node = b.class(&[ElemKind::Int, ElemKind::Ref]); // {val, next}
        let main = b.function("main", 0, false, |f| {
            let (la, lb, i, ca, cb) = (f.local(), f.local(), f.local(), f.local(), f.local());
            f.cnull().st(la);
            f.cnull().st(lb);
            f.for_in(i, 0.into(), 8.into(), |f| {
                // prepend to list a
                f.newobject(node).dup().ld(la).putfield(1).st(la);
                // prepend to list b
                f.newobject(node).dup().ld(lb).putfield(1).st(lb);
            });
            // traverse list a
            f.ld(la).st(ca);
            f.while_icmp(
                Cond::Gt,
                |f| {
                    f.ld(i).ci(0);
                },
                |f| {
                    f.ld(ca).getfield(1).st(ca);
                    f.inc(i, -1);
                },
            );
            f.ld(lb).st(cb);
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        let pt = PointsTo::analyze(&p);
        let v = pt.view(p.entry);
        let la = Local(0);
        let ca = Local(3);
        let cb = Local(4);
        let (ca_sites, ca_unknown) = v.local_sites(ca);
        assert!(!ca_unknown, "cursor provenance must stay known");
        assert_eq!(ca_sites.len(), 1, "one allocation site per list");
        assert!(v.locals_disjoint(ca, cb), "the two lists never share nodes");
        assert!(
            !v.locals_disjoint(ca, la),
            "a cursor aliases its own list head"
        );
    }

    #[test]
    fn disjoint_element_writes_through_arrays_of_objects() {
        // Two ref arrays filled with objects from two distinct sites;
        // elements loaded back out must be disjoint.
        let mut b = ProgramBuilder::new();
        let cls = b.class(&[ElemKind::Int]);
        let main = b.function("main", 0, false, |f| {
            let (aa, ab, i, oa, ob) = (f.local(), f.local(), f.local(), f.local(), f.local());
            f.ci(8).newarray(ElemKind::Ref).st(aa);
            f.ci(8).newarray(ElemKind::Ref).st(ab);
            f.for_in(i, 0.into(), 8.into(), |f| {
                f.ld(aa).ld(i).newobject(cls).astore();
                f.ld(ab).ld(i).newobject(cls).astore();
            });
            f.ld(aa).ci(0).aload().st(oa);
            f.ld(ab).ci(0).aload().st(ob);
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        let pt = PointsTo::analyze(&p);
        let v = pt.view(p.entry);
        assert!(v.locals_disjoint(Local(0), Local(1)), "distinct arrays");
        assert!(
            v.locals_disjoint(Local(3), Local(4)),
            "elements come from distinct sites"
        );
    }

    #[test]
    fn object_stored_to_a_static_escapes() {
        let mut b = ProgramBuilder::new();
        let cls = b.class(&[ElemKind::Int, ElemKind::Ref]);
        let g = b.global(ElemKind::Ref);
        let main = b.function("main", 0, false, |f| {
            let (escaping, private) = (f.local(), f.local());
            f.newobject(cls).st(escaping);
            f.newobject(cls).st(private);
            // the private object is reachable *from* the escaping one
            let reachable = f.local();
            f.newobject(cls).st(reachable);
            f.ld(escaping).ld(reachable).putfield(1);
            f.ld(escaping).putstatic(g);
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        let pt = PointsTo::analyze(&p);
        let ids: Vec<SiteId> = pt.sites().iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), 3);
        assert!(pt.escapes_via_static(ids[0]), "stored to the static");
        assert!(!pt.escapes_via_static(ids[1]), "never leaves the frame");
        assert!(
            pt.escapes_via_static(ids[2]),
            "reachable through the escaping object's field"
        );
    }

    #[test]
    fn recursive_call_cycle_terminates_and_propagates() {
        // rec(n, node) calls itself; the node parameter's points-to
        // set must reach the recursive frame and the solver must hit
        // fixpoint.
        let mut b = ProgramBuilder::new();
        let cls = b.class(&[ElemKind::Int]);
        let rec = b.declare("rec", 2, false);
        b.define(rec, |f| {
            let (n, node) = (f.param(0), f.param(1));
            f.if_icmp(
                Cond::Gt,
                |f| {
                    f.ld(n).ci(0);
                },
                |f| {
                    f.ld(n).ci(1).isub();
                    f.ld(node);
                    f.call(rec);
                },
            );
            f.ret_void();
        });
        let main = b.function("main", 0, false, |f| {
            let o = f.local();
            f.newobject(cls).st(o);
            f.ci(3).ld(o).call(rec);
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        let pt = PointsTo::analyze(&p);
        let site = pt.sites().iter().next().unwrap().id;
        assert!(pt.escapes_via_arg(site), "passed into rec");
        let v = pt.view(rec);
        let (sites, unknown) = v.local_sites(Local(1));
        assert!(!unknown);
        assert_eq!(sites, vec![site], "the parameter sees main's object");
        assert!(pt.stats().iterations > 0);
        assert!(pt.stats().abstract_objects == 1);
    }

    #[test]
    fn callee_store_summaries_are_transitive_and_precise() {
        // leaf writes g0; mid calls leaf; main's loop calls mid. The
        // summary must say mid may store g0 but not g1, and nothing
        // about arrays.
        let mut b = ProgramBuilder::new();
        let g0 = b.global(ElemKind::Int);
        let g1 = b.global(ElemKind::Int);
        let leaf = b.declare("leaf", 0, false);
        b.define(leaf, |f| {
            f.ci(1).putstatic(g0);
            f.ret_void();
        });
        let mid = b.declare("mid", 0, false);
        b.define(mid, |f| {
            f.call(leaf);
            f.ret_void();
        });
        let main = b.function("main", 0, false, |f| {
            f.call(mid);
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        let pt = PointsTo::analyze(&p);
        let v = pt.view(p.entry);
        assert!(v.callee_may_store_static(mid, g0));
        assert!(!v.callee_may_store_static(mid, g1));
        assert!(!v.callee_may_store_elems_of(mid, Local(0)));
    }

    #[test]
    fn unknown_provenance_defeats_disjointness() {
        // An object loaded back out of a static has unknown-free but
        // static-reachable provenance; one loaded from an int cast
        // chain does not occur — instead check that a ref read from a
        // static global aliases what was stored there.
        let mut b = ProgramBuilder::new();
        let cls = b.class(&[ElemKind::Int]);
        let g = b.global(ElemKind::Ref);
        let main = b.function("main", 0, false, |f| {
            let (o, back) = (f.local(), f.local());
            f.newobject(cls).st(o);
            f.ld(o).putstatic(g);
            f.getstatic(g).st(back);
            f.ret_void();
        });
        let p = b.finish(main).unwrap();
        let pt = PointsTo::analyze(&p);
        let v = pt.view(p.entry);
        assert!(
            !v.locals_disjoint(Local(0), Local(1)),
            "round-trip through the static must alias"
        );
    }
}
