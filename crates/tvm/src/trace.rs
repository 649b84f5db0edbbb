//! Trace-event interface between the interpreter and analysis hardware.
//!
//! The TEST hardware observes a sequentially executing program as a
//! stream of timestamped events: heap loads/stores (communicated
//! automatically by the load/store units when tracing is enabled) and
//! the explicit annotation instructions of Table 4. [`TraceSink`] is that
//! wire. Implementors in this workspace include the TEST hardware model,
//! the software-only profiler baseline, the exact-dependence oracle and
//! the TLS trace collector feeding the Hydra simulator.

use crate::bus::{Ctrl, EventBatch};
use crate::isa::{LoopId, Pc};

/// Simulated clock cycles.
pub type Cycles = u64;

/// A byte address in the modelled 32-bit heap address space.
pub type Addr = u32;

/// Receiver of trace events emitted by [`crate::interp::Interp`].
///
/// All methods have empty default bodies so sinks only override what
/// they analyze; with [`NullSink`] the calls compile away entirely.
///
/// Times are the interpreter's cycle counter *after* charging the
/// triggering instruction, which models the hardware observing retired
/// memory operations.
pub trait TraceSink {
    /// A heap (or static) load of the word at `addr`.
    #[inline]
    fn heap_load(&mut self, addr: Addr, now: Cycles, pc: Pc) {
        let _ = (addr, now, pc);
    }

    /// A heap (or static) store to the word at `addr`.
    #[inline]
    fn heap_store(&mut self, addr: Addr, now: Cycles, pc: Pc) {
        let _ = (addr, now, pc);
    }

    /// Value tap for `putstatic`: the integer word actually written to
    /// static `global`. Recording sinks ignore it (the event stream
    /// stays value-free); the value-agreement checker overrides it to
    /// compare every store against a slice's predicted per-iteration
    /// value. Float/ref stores are reported through [`Self::heap_store`]
    /// only.
    #[inline]
    fn static_store(&mut self, global: u16, value: i64, now: Cycles, pc: Pc) {
        let _ = (global, value, now, pc);
    }

    /// An annotated local-variable load (`lwl vn`). `activation`
    /// identifies the dynamic frame, so the tracer can index the
    /// reservation made by the matching `sloop`.
    #[inline]
    fn local_load(&mut self, var: u16, activation: u32, now: Cycles, pc: Pc) {
        let _ = (var, activation, now, pc);
    }

    /// An annotated local-variable store (`swl vn`).
    #[inline]
    fn local_store(&mut self, var: u16, activation: u32, now: Cycles, pc: Pc) {
        let _ = (var, activation, now, pc);
    }

    /// `sloop`: a candidate STL was entered. `n_locals` slots of
    /// local-variable timestamps are reserved; `activation` identifies
    /// the dynamic function frame so that the tracer can keep one slot
    /// set per activation (the hardware indexes its 64-entry table by
    /// the reservation made at `sloop`).
    #[inline]
    fn loop_enter(&mut self, loop_id: LoopId, n_locals: u16, activation: u32, now: Cycles) {
        let _ = (loop_id, n_locals, activation, now);
    }

    /// `eoi`: end of one iteration (= one speculative thread boundary).
    #[inline]
    fn loop_iter(&mut self, loop_id: LoopId, now: Cycles) {
        let _ = (loop_id, now);
    }

    /// `eloop`: the STL was exited; its comparator bank is freed.
    #[inline]
    fn loop_exit(&mut self, loop_id: LoopId, now: Cycles) {
        let _ = (loop_id, now);
    }

    /// The end-of-STL statistics read routine ran (costs cycles; the
    /// runtime uses it to harvest counters).
    #[inline]
    fn stats_read(&mut self, loop_id: LoopId, now: Cycles) {
        let _ = (loop_id, now);
    }

    /// A function call is about to transfer control. `site` is the
    /// `Call` instruction's PC — the fork point a method-call-return
    /// decomposition would speculate from (paper §4.1's alternative to
    /// loop decompositions).
    #[inline]
    fn call_enter(&mut self, site: Pc, activation: u32, now: Cycles) {
        let _ = (site, activation, now);
    }

    /// The call made at `site` returned.
    #[inline]
    fn call_exit(&mut self, site: Pc, now: Cycles) {
        let _ = (site, now);
    }

    /// The value returned by the call at `site` was first consumed by
    /// the caller. Method-call-return speculation analyses treat this
    /// as the continuation's synchronization point with the callee.
    /// Tracked for the most recent value-returning call per frame (a
    /// second call before consumption supersedes the first).
    #[inline]
    fn call_result_use(&mut self, site: Pc, now: Cycles) {
        let _ = (site, now);
    }

    /// Delivers one whole [`EventBatch`] in emission order: the one
    /// delivery point of the bus, a [`crate::record::Recording`] replay
    /// and a decoded trace file — one virtual dispatch per batch
    /// instead of one per event. The default body, monomorphized per
    /// sink, calls the per-event callbacks above in order; an override
    /// must deliver the same events in the same order.
    #[inline]
    fn consume_batch(&mut self, batch: &EventBatch) {
        let mut heap = 0usize;
        let mut misc = 0usize;
        for &c in &batch.ctrl {
            match c {
                Ctrl::HeapLoad => {
                    self.heap_load(
                        batch.heap_addr[heap],
                        batch.heap_cycle[heap],
                        batch.heap_pc[heap],
                    );
                    heap += 1;
                }
                Ctrl::HeapStore => {
                    self.heap_store(
                        batch.heap_addr[heap],
                        batch.heap_cycle[heap],
                        batch.heap_pc[heap],
                    );
                    heap += 1;
                }
                Ctrl::Misc => {
                    batch.misc[misc].deliver(self);
                    misc += 1;
                }
            }
        }
    }
}

/// A sink that ignores every event: plain sequential execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {}

/// A sink that counts events — useful in tests and as a cheap coverage
/// probe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Number of heap loads observed.
    pub loads: u64,
    /// Number of heap stores observed.
    pub stores: u64,
    /// Number of annotated local accesses observed.
    pub local_accesses: u64,
    /// Number of `sloop` events.
    pub loop_enters: u64,
    /// Number of `eoi` events.
    pub loop_iters: u64,
    /// Number of `eloop` events.
    pub loop_exits: u64,
    /// Number of statistics-read events.
    pub stats_reads: u64,
    /// Number of call-enter events.
    pub call_enters: u64,
    /// Number of call-exit events.
    pub call_exits: u64,
    /// Number of call-result-use events.
    pub call_result_uses: u64,
}

impl TraceSink for CountingSink {
    fn heap_load(&mut self, _addr: Addr, _now: Cycles, _pc: Pc) {
        self.loads += 1;
    }
    fn heap_store(&mut self, _addr: Addr, _now: Cycles, _pc: Pc) {
        self.stores += 1;
    }
    fn local_load(&mut self, _var: u16, _act: u32, _now: Cycles, _pc: Pc) {
        self.local_accesses += 1;
    }
    fn local_store(&mut self, _var: u16, _act: u32, _now: Cycles, _pc: Pc) {
        self.local_accesses += 1;
    }
    fn loop_enter(&mut self, _loop_id: LoopId, _n: u16, _act: u32, _now: Cycles) {
        self.loop_enters += 1;
    }
    fn loop_iter(&mut self, _loop_id: LoopId, _now: Cycles) {
        self.loop_iters += 1;
    }
    fn loop_exit(&mut self, _loop_id: LoopId, _now: Cycles) {
        self.loop_exits += 1;
    }
    fn stats_read(&mut self, _loop_id: LoopId, _now: Cycles) {
        self.stats_reads += 1;
    }
    fn call_enter(&mut self, _site: Pc, _act: u32, _now: Cycles) {
        self.call_enters += 1;
    }
    fn call_exit(&mut self, _site: Pc, _now: Cycles) {
        self.call_exits += 1;
    }
    fn call_result_use(&mut self, _site: Pc, _now: Cycles) {
        self.call_result_uses += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::FuncId;

    #[test]
    fn counting_sink_counts() {
        let mut s = CountingSink::default();
        let pc = Pc {
            func: FuncId(0),
            idx: 0,
        };
        s.heap_load(64, 1, pc);
        s.heap_store(64, 2, pc);
        s.local_load(0, 0, 3, pc);
        s.loop_enter(LoopId(0), 1, 0, 4);
        s.loop_iter(LoopId(0), 5);
        s.loop_exit(LoopId(0), 6);
        s.stats_read(LoopId(0), 7);
        s.call_enter(pc, 0, 8);
        s.call_exit(pc, 9);
        s.call_result_use(pc, 10);
        assert_eq!(s.loads, 1);
        assert_eq!(s.stores, 1);
        assert_eq!(s.local_accesses, 1);
        assert_eq!(s.loop_enters, 1);
        assert_eq!(s.loop_iters, 1);
        assert_eq!(s.loop_exits, 1);
        assert_eq!(s.stats_reads, 1);
        assert_eq!(s.call_enters, 1);
        assert_eq!(s.call_exits, 1);
        assert_eq!(s.call_result_uses, 1);
    }

    #[test]
    fn null_sink_is_a_sink() {
        fn assert_sink<T: TraceSink>() {}
        assert_sink::<NullSink>();
    }
}
