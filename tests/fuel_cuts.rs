//! Fuel cuts at the interpreter's mode boundaries.
//!
//! The interpreter charges fuel per straight-line run and drops to a
//! per-instruction mode when a run would cross the limit or a call's
//! result is pending. Cutting a run after `k` instructions must
//! therefore look exactly like a per-instruction count: the run fails
//! with `FuelExhausted` iff `k` is below the full run's instruction
//! count `N`, and it has emitted exactly the events the full run emits
//! in its first `k` instructions. A hook and a sink share one
//! instruction counter, so every event is tagged with the number of
//! instructions the hook had seen when it was emitted.
//!
//! Every `k` in `0..=N` is cut on small builder programs that cross
//! each mode boundary (calls, a result parked in a local and loaded
//! much later, allocation in a loop, annotations with an `AGoto`
//! trampoline); a few `k` per program on the Small suite, plain and
//! profiling-annotated; and one seeded `k` per generated program.

use std::cell::Cell;
use std::rc::Rc;
use tvm::record::Event;
use tvm::{
    Addr, CostModel, Cycles, ElemKind, Instr, Interp, LocationHook, LoopId, Pc, Program,
    ProgramBuilder, RunResult, TraceSink, VmError,
};

/// Counts the instructions the interpreter reaches.
struct Count(Rc<Cell<u64>>);

impl LocationHook for Count {
    fn at(&mut self, _func: u16, _pc: u32) {
        self.0.set(self.0.get() + 1);
    }
}

/// One observed emission: a trace event or a `putstatic` value tap.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Seen {
    Trace(Event),
    StaticValue(u16, i64, Cycles, Pc),
}

/// Records every emission with the instruction count at that moment.
struct Tagged {
    count: Rc<Cell<u64>>,
    seen: Vec<(u64, Seen)>,
}

impl Tagged {
    fn push(&mut self, s: Seen) {
        self.seen.push((self.count.get(), s));
    }
    fn event(&mut self, e: Event) {
        self.push(Seen::Trace(e));
    }
}

impl TraceSink for Tagged {
    fn heap_load(&mut self, addr: Addr, now: Cycles, pc: Pc) {
        self.event(Event::HeapLoad(addr, now, pc));
    }
    fn heap_store(&mut self, addr: Addr, now: Cycles, pc: Pc) {
        self.event(Event::HeapStore(addr, now, pc));
    }
    fn static_store(&mut self, global: u16, value: i64, now: Cycles, pc: Pc) {
        self.push(Seen::StaticValue(global, value, now, pc));
    }
    fn local_load(&mut self, var: u16, activation: u32, now: Cycles, pc: Pc) {
        self.event(Event::LocalLoad(var, activation, now, pc));
    }
    fn local_store(&mut self, var: u16, activation: u32, now: Cycles, pc: Pc) {
        self.event(Event::LocalStore(var, activation, now, pc));
    }
    fn loop_enter(&mut self, loop_id: LoopId, n_locals: u16, activation: u32, now: Cycles) {
        self.event(Event::LoopEnter(loop_id, n_locals, activation, now));
    }
    fn loop_iter(&mut self, loop_id: LoopId, now: Cycles) {
        self.event(Event::LoopIter(loop_id, now));
    }
    fn loop_exit(&mut self, loop_id: LoopId, now: Cycles) {
        self.event(Event::LoopExit(loop_id, now));
    }
    fn stats_read(&mut self, loop_id: LoopId, now: Cycles) {
        self.event(Event::StatsRead(loop_id, now));
    }
    fn call_enter(&mut self, site: Pc, activation: u32, now: Cycles) {
        self.event(Event::CallEnter(site, activation, now));
    }
    fn call_exit(&mut self, site: Pc, now: Cycles) {
        self.event(Event::CallExit(site, now));
    }
    fn call_result_use(&mut self, site: Pc, now: Cycles) {
        self.event(Event::CallResultUse(site, now));
    }
}

/// One run of `p` under `fuel`: its outcome, its tagged emissions and
/// how many instructions the hook saw.
fn run(p: &Program, fuel: u64) -> (Result<RunResult, VmError>, Vec<(u64, Seen)>, u64) {
    let count = Rc::new(Cell::new(0));
    let mut sink = Tagged {
        count: Rc::clone(&count),
        seen: Vec::new(),
    };
    let mut hook = Count(Rc::clone(&count));
    let r = Interp::run_to_state_hooked(p, &mut sink, CostModel::default(), fuel, &mut hook)
        .map(|s| s.result);
    (r, sink.seen, count.get())
}

/// Cuts `p` at every fuel `cuts(N)` names and checks each cut against
/// the full run. Returns the full run's emissions.
fn check_cuts<I: IntoIterator<Item = u64>>(
    p: &Program,
    what: &str,
    cuts: impl FnOnce(u64) -> I,
) -> Vec<(u64, Seen)> {
    let (full, seen, reached) = run(p, Interp::DEFAULT_FUEL);
    let full = full.unwrap_or_else(|e| panic!("{what}: full run failed: {e}"));
    let n = full.instructions;
    assert_eq!(
        reached, n,
        "{what}: the hook sees every retired instruction"
    );
    for k in cuts(n) {
        let (cut, cut_seen, cut_reached) = run(p, k);
        if k < n {
            assert_eq!(cut, Err(VmError::FuelExhausted), "{what}: fuel {k} of {n}");
            // the hook also saw the instruction that found no fuel
            assert_eq!(cut_reached, k + 1, "{what}: fuel {k} of {n}");
        } else {
            assert_eq!(cut.as_ref(), Ok(&full), "{what}: fuel {k} of {n}");
        }
        let expect: Vec<(u64, Seen)> = seen.iter().copied().filter(|&(c, _)| c <= k).collect();
        assert_eq!(cut_seen, expect, "{what}: fuel {k} of {n}");
    }
    seen
}

/// Cuts `p` at every fuel from 0 through its full instruction count.
fn check_every_cut(p: &Program, what: &str) -> Vec<(u64, Seen)> {
    check_cuts(p, what, |n| 0..=n)
}

fn has_call_result_use(seen: &[(u64, Seen)]) -> bool {
    seen.iter()
        .any(|(_, s)| matches!(s, Seen::Trace(Event::CallResultUse(..))))
}

#[test]
fn every_cut_across_calls() {
    let mut b = ProgramBuilder::new();
    let g = b.global(ElemKind::Int);
    let sq = b.declare("sq", 1, true);
    b.define(sq, |f| {
        let x = f.param(0);
        f.ld(x).ld(x).imul().ret();
    });
    let bump = b.declare("bump", 0, false);
    b.define(bump, |f| {
        f.getstatic(g).ci(1).iadd().putstatic(g).ret_void();
    });
    let main = b.function("main", 0, true, |f| {
        let i = f.local();
        f.for_in(i, 0.into(), 4.into(), |f| {
            // consumed at once, consumed after a void call, and dropped
            f.ld(i).call(sq).getstatic(g).iadd().putstatic(g);
            f.ld(i).call(sq).call(bump).ci(3).iadd().drop_top();
            f.ci(2).call(sq).drop_top();
        });
        f.getstatic(g).ret();
    });
    let p = b.finish(main).unwrap();
    let seen = check_every_cut(&p, "calls");
    assert!(has_call_result_use(&seen));
}

#[test]
fn every_cut_with_a_result_parked_in_a_local() {
    let mut b = ProgramBuilder::new();
    let g = b.global(ElemKind::Int);
    let twice = b.declare("twice", 1, true);
    b.define(twice, |f| {
        f.ld(f.param(0)).ci(2).imul().ret();
    });
    let main = b.function("main", 0, true, |f| {
        let (p, i) = (f.local(), f.local());
        f.ci(21).call(twice).st(p);
        // many runs later, the parked value's first read is its use
        f.for_in(i, 0.into(), 6.into(), |f| {
            f.getstatic(g).ld(i).iadd().putstatic(g);
        });
        f.ld(p).getstatic(g).iadd().ret();
    });
    let p = b.finish(main).unwrap();
    let seen = check_every_cut(&p, "parked result");
    let uses: Vec<u64> = seen
        .iter()
        .filter(|(_, s)| matches!(s, Seen::Trace(Event::CallResultUse(..))))
        .map(|&(c, _)| c)
        .collect();
    assert_eq!(uses.len(), 1);
    // the use comes at the final Load, far past the call's return
    let last = seen.last().map_or(0, |&(c, _)| c);
    assert!(uses[0] + 4 >= last, "use at {} of {last}", uses[0]);
}

#[test]
fn every_cut_with_allocation_in_a_loop() {
    let mut b = ProgramBuilder::new();
    let cls = b.class(&[ElemKind::Int, ElemKind::Float, ElemKind::Ref]);
    let main = b.function("main", 0, true, |f| {
        let (i, a, o, s) = (f.local(), f.local(), f.local(), f.local());
        f.for_in(i, 0.into(), 5.into(), |f| {
            f.ld(i).ci(2).iadd().newarray(ElemKind::Int).st(a);
            f.newobject(cls).st(o);
            f.ld(o).ld(i).putfield(0);
            f.ld(a).arraylen().ld(o).getfield(0).iadd();
            f.ld(s).iadd().st(s);
        });
        f.ld(s).ret();
    });
    let p = b.finish(main).unwrap();
    check_every_cut(&p, "allocation");
}

#[test]
fn every_cut_through_annotations_and_trampolines() {
    let mut b = ProgramBuilder::new();
    let g = b.global(ElemKind::Int);
    let main = b.function("main", 0, false, |f| {
        let (a, i, s) = (f.local(), f.local(), f.local());
        f.ci(8).newarray(ElemKind::Int).st(a);
        let out = f.new_label();
        f.for_in(i, 0.into(), 8.into(), |f| {
            f.arr_set(
                a,
                |f| {
                    f.ld(i);
                },
                |f| {
                    f.ld(i).ci(3).imul();
                },
            );
            f.ld(s).ld(i).iadd().st(s);
            // a second exit edge
            f.ld(s).ci(12).br_icmp(tvm::Cond::Gt, out);
        });
        f.bind(out);
        f.ld(s).putstatic(g).ret_void();
    });
    let p = b.finish(main).unwrap();
    let cands = cfgir::extract_candidates(&p);
    let ann = jrpm::annotate(&p, &cands, &jrpm::AnnotateOptions::profiling()).unwrap();
    let code = &ann.functions[0].code;
    assert!(code.iter().any(|i| matches!(i, Instr::AGoto(_))));
    assert!(code
        .iter()
        .any(|i| matches!(i, Instr::Lwl(_) | Instr::Swl(_))));
    let seen = check_every_cut(&ann, "annotated");
    assert!(seen
        .iter()
        .any(|(_, s)| matches!(s, Seen::Trace(Event::LoopExit(..)))));
}

#[test]
fn suite_cuts_match_the_full_run() {
    for bench in benchsuite::all() {
        let p = (bench.build)(benchsuite::DataSize::Small);
        let cands = cfgir::extract_candidates(&p);
        let ann = jrpm::annotate(&p, &cands, &jrpm::AnnotateOptions::profiling()).unwrap();
        for (image, what) in [(&p, "plain"), (&ann, "profiling")] {
            // the start, two inner points, the last instruction, the end
            check_cuts(image, &format!("{} {what}", bench.name), |n| {
                [0, n / 3, 2 * n / 3 + 1, n.saturating_sub(1), n]
            });
        }
    }
}

#[test]
fn generated_programs_cut_at_a_seeded_fuel() {
    for seed in 0..200u64 {
        let p = fuzzgen::emit(&fuzzgen::gen_spec(seed)).unwrap();
        let cands = cfgir::extract_candidates(&p);
        let ann = jrpm::annotate(&p, &cands, &jrpm::AnnotateOptions::profiling()).unwrap();
        let mut rng = fuzzgen::Rng::new(seed);
        for (image, what) in [(&p, "plain"), (&ann, "profiling")] {
            check_cuts(
                image,
                &format!("seed {seed} {what}"),
                |n| [rng.below(n + 1)],
            );
        }
    }
}
