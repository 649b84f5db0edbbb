//! Method-call-return decomposition analysis (paper §4.1's alternative
//! thread shape).
//!
//! "Speculative threads can be composed from loops, method call
//! returns, and general regions. … Our experiments so far have not
//! found many method call return or general region decompositions
//! that are either not covered by similar loop decompositions or have
//! significant coverage to impact total execution time."
//!
//! [`MethodTracer`] quantifies that claim for our workloads. A
//! method-call-return decomposition forks at a call: the callee runs
//! as one thread while the *continuation* (the code after the call)
//! speculates alongside it. The fork succeeds to the extent the
//! continuation's loads of callee-written data arrive late:
//!
//! * on `call`, the fork time is recorded (the analogue of a thread
//!   start timestamp);
//! * on return, a *continuation window* opens for as long as the
//!   callee ran — the span the continuation would overlap in
//!   speculative execution;
//! * loads inside the window whose producing store came from the
//!   callee interval form dependency arcs, and the first *use of the
//!   return value* forms an arc anchored at the return; the shortest
//!   arc per invocation is the critical one, exactly as in the loop
//!   analysis.
//!
//! The same comparator-bank hardware serves this analysis (the bank's
//! timestamps are just anchored at a call instead of `sloop`), so the
//! model shares the capacity limits of [`crate::tracer::TestTracer`]'s
//! structures where relevant (the store-timestamp FIFO).

use crate::buffers::StoreTimestampFifo;
use std::collections::BTreeMap;
use tvm::isa::Pc;
use tvm::trace::{Addr, Cycles, TraceSink};

/// Accumulated statistics for one call site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MethodStats {
    /// Completed invocations observed.
    pub invocations: u64,
    /// Total callee cycles.
    pub callee_cycles: u64,
    /// Invocations whose continuation window carried a dependency arc.
    pub dependent_invocations: u64,
    /// Sum of the critical (shortest) arc per dependent invocation.
    pub arc_len_sum: u64,
}

impl MethodStats {
    /// Mean callee duration.
    pub fn avg_callee_cycles(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.callee_cycles as f64 / self.invocations as f64
        }
    }

    /// Fraction of invocations with a callee→continuation dependency.
    pub fn dependence_freq(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.dependent_invocations as f64 / self.invocations as f64
        }
    }

    /// Mean critical arc length over dependent invocations.
    pub fn avg_arc_len(&self) -> f64 {
        if self.dependent_invocations == 0 {
            0.0
        } else {
            self.arc_len_sum as f64 / self.dependent_invocations as f64
        }
    }

    /// Estimated speedup of forking this site, over the
    /// callee + continuation-window span. With callee duration `D` and
    /// critical arc `d`, the continuation can start `min(d, D)` early:
    /// sequential `2D` shrinks to `2D − overlap + C` when dependent,
    /// where independent invocations overlap fully.
    pub fn estimated_speedup(&self, comm_delay: u64) -> f64 {
        let d_callee = self.avg_callee_cycles();
        if d_callee <= 0.0 {
            return 1.0;
        }
        let seq = 2.0 * d_callee;
        let freq = self.dependence_freq();
        let overlap_dep = self.avg_arc_len().min(d_callee);
        let spec_dep = (seq - overlap_dep + comm_delay as f64).max(d_callee);
        let spec_free = d_callee.max(seq / 2.0); // full overlap
        let spec = freq * spec_dep + (1.0 - freq) * spec_free;
        (seq / spec).max(1.0)
    }

    /// Cycles this site's forks could overlap in total (its coverage
    /// numerator: one callee-duration per invocation).
    pub fn overlap_cycles(&self) -> u64 {
        self.callee_cycles
    }
}

/// An open continuation window (fork candidate being measured).
#[derive(Debug, Clone, Copy)]
struct Window {
    site: Pc,
    t_call: Cycles,
    t_ret: Cycles,
    /// window end: t_ret + callee duration
    end: Cycles,
    min_arc: Option<Cycles>,
}

/// The method-decomposition profiler. Drive it exactly like the loop
/// tracer (it is a [`TraceSink`]); no annotations are required — call
/// events come from the call/return units.
#[derive(Debug)]
pub struct MethodTracer {
    fifo: StoreTimestampFifo,
    /// call stack of (site, activation, t_call)
    calls: Vec<(Pc, u32, Cycles)>,
    /// continuation windows being measured (bounded, like banks)
    windows: Vec<Window>,
    max_windows: usize,
    stats: BTreeMap<Pc, MethodStats>,
    end_time: Cycles,
}

impl Default for MethodTracer {
    fn default() -> Self {
        Self::new()
    }
}

impl MethodTracer {
    /// Creates a tracer with the paper's store-timestamp history (192
    /// lines) and one window per comparator bank (8).
    pub fn new() -> MethodTracer {
        MethodTracer {
            fifo: StoreTimestampFifo::new(192),
            calls: Vec::new(),
            windows: Vec::new(),
            max_windows: 8,
            stats: BTreeMap::new(),
            end_time: 0,
        }
    }

    fn expire(&mut self, now: Cycles) {
        let mut i = 0;
        while i < self.windows.len() {
            if self.windows[i].end <= now {
                let w = self.windows.swap_remove(i);
                let s = self.stats.entry(w.site).or_default();
                s.invocations += 1;
                s.callee_cycles += w.t_ret - w.t_call;
                if let Some(a) = w.min_arc {
                    s.dependent_invocations += 1;
                    s.arc_len_sum += a;
                }
            } else {
                i += 1;
            }
        }
    }

    /// Finalizes the analysis and returns per-site statistics.
    pub fn into_stats(mut self) -> BTreeMap<Pc, MethodStats> {
        let end = self.end_time;
        self.expire(end.saturating_add(u64::MAX / 2));
        self.stats
    }
}

impl TraceSink for MethodTracer {
    fn heap_load(&mut self, addr: Addr, now: Cycles, _pc: Pc) {
        self.end_time = self.end_time.max(now);
        self.expire(now);
        if self.windows.is_empty() {
            return;
        }
        let Some(ts) = self.fifo.lookup(addr) else {
            return;
        };
        for w in &mut self.windows {
            // producer inside the callee, consumer inside the window
            if ts >= w.t_call && ts <= w.t_ret && now > w.t_ret {
                let arc = now - ts;
                w.min_arc = Some(w.min_arc.map_or(arc, |m| m.min(arc)));
            }
        }
    }

    fn heap_store(&mut self, addr: Addr, now: Cycles, _pc: Pc) {
        self.end_time = self.end_time.max(now);
        self.expire(now);
        self.fifo.record(addr, now);
    }

    fn call_enter(&mut self, site: Pc, activation: u32, now: Cycles) {
        self.end_time = self.end_time.max(now);
        self.expire(now);
        self.calls.push((site, activation, now));
    }

    fn call_result_use(&mut self, site: Pc, now: Cycles) {
        self.end_time = self.end_time.max(now);
        self.expire(now);
        // the continuation needs the return value `now - t_ret` cycles
        // into its window: that slack is the overlap ceiling, exactly
        // like a heap arc of the same length anchored at the return
        for w in self.windows.iter_mut().rev() {
            if w.site == site && now > w.t_ret && now <= w.end {
                let arc = now - w.t_ret;
                w.min_arc = Some(w.min_arc.map_or(arc, |m| m.min(arc)));
                break;
            }
        }
    }

    fn call_exit(&mut self, site: Pc, now: Cycles) {
        self.end_time = self.end_time.max(now);
        self.expire(now);
        // unwind to the matching site (robust against halts mid-call)
        while let Some((s, _, t_call)) = self.calls.pop() {
            if s != site {
                continue;
            }
            let dur = now.saturating_sub(t_call);
            if dur == 0 {
                return;
            }
            if self.windows.len() < self.max_windows {
                self.windows.push(Window {
                    site,
                    t_call,
                    t_ret: now,
                    end: now + dur,
                    min_arc: None,
                });
            }
            return;
        }
    }
}

/// A ranked report row for the §4.1 comparison.
#[derive(Debug, Clone, Copy)]
pub struct MethodSite {
    /// The call instruction.
    pub site: Pc,
    /// Its statistics.
    pub stats: MethodStats,
    /// Estimated fork speedup.
    pub speedup: f64,
    /// Fraction of program cycles its forks could overlap.
    pub coverage: f64,
}

/// Ranks call sites by potential saved cycles
/// (`coverage × (1 − 1/speedup)`), the §4.1 comparison criterion.
pub fn rank_sites(
    stats: &BTreeMap<Pc, MethodStats>,
    total_cycles: u64,
    comm_delay: u64,
) -> Vec<MethodSite> {
    let mut v: Vec<MethodSite> = stats
        .iter()
        .map(|(&site, &s)| {
            let speedup = s.estimated_speedup(comm_delay);
            MethodSite {
                site,
                stats: s,
                speedup,
                coverage: if total_cycles == 0 {
                    0.0
                } else {
                    s.overlap_cycles() as f64 / total_cycles as f64
                },
            }
        })
        .collect();
    v.sort_by(|a, b| {
        let ka = a.coverage * (1.0 - 1.0 / a.speedup);
        let kb = b.coverage * (1.0 - 1.0 / b.speedup);
        kb.partial_cmp(&ka).unwrap_or(std::cmp::Ordering::Equal)
    });
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm::isa::FuncId;

    fn pc(idx: u32) -> Pc {
        Pc {
            func: FuncId(0),
            idx,
        }
    }

    #[test]
    fn independent_callee_forks_at_two_x() {
        let mut t = MethodTracer::new();
        // 10 invocations of a 100-cycle callee; continuation never
        // touches callee data
        let mut now = 0;
        for _ in 0..10 {
            t.call_enter(pc(5), 1, now);
            t.heap_store(0x100, now + 50, pc(6));
            now += 100;
            t.call_exit(pc(5), now);
            // continuation reads unrelated data
            t.heap_load(0x900, now + 10, pc(7));
            now += 100;
        }
        // force the last window closed
        t.heap_store(0xF00, now + 1000, pc(8));
        let stats = t.into_stats();
        let s = &stats[&pc(5)];
        assert_eq!(s.invocations, 10);
        assert_eq!(s.dependent_invocations, 0);
        assert!((s.avg_callee_cycles() - 100.0).abs() < 1e-9);
        assert!((s.estimated_speedup(10) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn dependent_continuation_limits_the_fork() {
        let mut t = MethodTracer::new();
        let mut now = 0;
        for _ in 0..10 {
            t.call_enter(pc(5), 1, now);
            now += 100;
            // callee stores its result at the very end
            t.heap_store(0x100, now - 1, pc(6));
            t.call_exit(pc(5), now);
            // continuation reads it immediately
            t.heap_load(0x100, now + 2, pc(7));
            now += 100;
        }
        t.heap_store(0xF00, now + 1000, pc(8));
        let stats = t.into_stats();
        let s = &stats[&pc(5)];
        assert_eq!(s.invocations, 10);
        assert_eq!(s.dependent_invocations, 10);
        assert!(s.avg_arc_len() < 10.0);
        assert!(s.estimated_speedup(10) < 1.1, "{}", s.estimated_speedup(10));
    }

    #[test]
    fn late_continuation_reads_keep_overlap() {
        let mut t = MethodTracer::new();
        let mut now = 0;
        for _ in 0..5 {
            t.call_enter(pc(5), 1, now);
            t.heap_store(0x100, now + 5, pc(6)); // stored early
            now += 100;
            t.call_exit(pc(5), now);
            t.heap_load(0x100, now + 90, pc(7)); // read late
            now += 100;
        }
        t.heap_store(0xF00, now + 1000, pc(8));
        let stats = t.into_stats();
        let s = &stats[&pc(5)];
        assert_eq!(s.dependent_invocations, 5);
        // arc ~185 cycles on a 100-cycle callee: nearly full overlap
        assert!(s.estimated_speedup(10) > 1.8, "{}", s.estimated_speedup(10));
    }

    #[test]
    fn return_value_use_forms_an_arc() {
        let mut t = MethodTracer::new();
        let mut now = 0;
        for _ in 0..5 {
            t.call_enter(pc(5), 1, now);
            now += 100;
            t.call_exit(pc(5), now);
            // the return value is consumed 80 cycles into the window
            t.call_result_use(pc(5), now + 80);
            now += 100;
        }
        t.heap_store(0xF00, now + 1000, pc(9));
        let stats = t.into_stats();
        let s = &stats[&pc(5)];
        assert_eq!(s.dependent_invocations, 5);
        assert!((s.avg_arc_len() - 80.0).abs() < 1e-9);
        // 80 of 100 cycles overlap: close to the 2x ceiling
        assert!(s.estimated_speedup(10) > 1.5, "{}", s.estimated_speedup(10));
    }

    #[test]
    fn result_use_beyond_the_window_is_free() {
        let mut t = MethodTracer::new();
        t.call_enter(pc(5), 1, 0);
        t.call_exit(pc(5), 100);
        // consumed long after the window [100, 200] closed
        t.call_result_use(pc(5), 900);
        t.heap_store(0xF00, 5000, pc(9));
        let stats = t.into_stats();
        assert_eq!(stats[&pc(5)].dependent_invocations, 0);
    }

    #[test]
    fn nested_calls_are_tracked_independently() {
        let mut t = MethodTracer::new();
        t.call_enter(pc(1), 1, 0);
        t.call_enter(pc(2), 2, 10);
        t.call_exit(pc(2), 40); // inner: 30 cycles
        t.call_exit(pc(1), 100); // outer: 100 cycles
        t.heap_store(0xF00, 5000, pc(9));
        let stats = t.into_stats();
        assert_eq!(stats[&pc(1)].invocations, 1);
        assert_eq!(stats[&pc(2)].invocations, 1);
        assert_eq!(stats[&pc(2)].callee_cycles, 30);
        assert_eq!(stats[&pc(1)].callee_cycles, 100);
    }

    #[test]
    fn ranking_prefers_covering_parallel_sites() {
        let mut stats = BTreeMap::new();
        stats.insert(
            pc(1),
            MethodStats {
                invocations: 100,
                callee_cycles: 50_000,
                dependent_invocations: 0,
                arc_len_sum: 0,
            },
        );
        stats.insert(
            pc(2),
            MethodStats {
                invocations: 100,
                callee_cycles: 80_000,
                dependent_invocations: 100,
                arc_len_sum: 100, // immediate dependence
            },
        );
        let ranked = rank_sites(&stats, 1_000_000, 10);
        assert_eq!(ranked[0].site, pc(1));
        assert!(ranked[0].speedup > ranked[1].speedup);
    }

    #[test]
    fn replayed_call_events_reproduce_direct_stats() {
        use tvm::record::Event;
        use tvm::{EventBatch, TraceSink};

        // a call-heavy stream with result uses, as the interpreter
        // would emit it
        let mut events = Vec::new();
        let mut now = 0;
        for i in 0..8 {
            events.push(Event::CallEnter(pc(5), i, now));
            events.push(Event::HeapStore(0x100 + 8 * i, now + 40, pc(6)));
            now += 90;
            events.push(Event::CallExit(pc(5), now));
            events.push(Event::HeapLoad(0x100 + 8 * i, now + 5, pc(7)));
            events.push(Event::CallResultUse(pc(5), now + 7));
            now += 90;
        }
        events.push(Event::HeapStore(0xF00, now + 1000, pc(8)));

        let mut direct = MethodTracer::new();
        for &e in &events {
            match e {
                Event::CallEnter(s, a, t) => direct.call_enter(s, a, t),
                Event::CallExit(s, t) => direct.call_exit(s, t),
                Event::CallResultUse(s, t) => direct.call_result_use(s, t),
                Event::HeapLoad(a, t, p) => direct.heap_load(a, t, p),
                Event::HeapStore(a, t, p) => direct.heap_store(a, t, p),
                _ => unreachable!(),
            }
        }

        // per-event delivery and delivery in batches of 3 must both
        // produce identical method statistics
        let mut replayed = MethodTracer::new();
        for &e in &events {
            e.deliver(&mut replayed);
        }
        let mut batched = MethodTracer::new();
        for chunk in events.chunks(3) {
            let mut b = EventBatch::with_capacity(3);
            chunk.iter().for_each(|&e| b.push(e));
            batched.consume_batch(&b);
        }

        let want = direct.into_stats();
        assert!(want[&pc(5)].invocations == 8);
        assert_eq!(replayed.into_stats(), want);
        assert_eq!(batched.into_stats(), want);
    }
}
