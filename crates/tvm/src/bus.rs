//! The trace bus: batched trace events as a first-class intermediate
//! representation.
//!
//! The TEST hardware observes one sequential execution; every analysis
//! is a *consumer* of that single event stream. This module promotes
//! the stream from transient virtual-dispatch callbacks to a batched
//! IR that can be streamed, or recorded once and replayed many times:
//!
//! * [`EventBatch`] — a fixed-capacity chunk of [`Event`]s with a
//!   struct-of-arrays fast path for heap loads/stores (which dominate
//!   event volume by an order of magnitude);
//! * [`Batcher`] — a [`TraceSink`] that groups an emission stream into
//!   batches and hands each full batch to a flush callback;
//! * [`TraceBus`] — the orchestrator: labelled sinks, each batch
//!   delivered to every sink in turn on the calling thread, and a
//!   [`BusReport`] with per-sink event counts and drain times.
//!   [`TraceBus::run`] streams a live run: the interpreter fills one
//!   reused batch and each full batch is delivered before execution
//!   goes on, so no trace is stored (the profiling pass). For
//!   consumers that need the stream more than once, [`record_batches`]
//!   captures a run and [`TraceBus::replay`] delivers the recording;
//!   the two paths cut and deliver identical batches.
//!
//! Delivery order is the emission order, so any sink observes exactly
//! the stream a direct [`crate::interp::Interp`] run would have fed
//! it — analyses are bit-identical to direct profiling.

use crate::cost::CostModel;
use crate::hotloc::LocationHook;
use crate::interp::{FinalState, Interp, RunResult};
use crate::isa::Pc;
use crate::program::Program;
use crate::record::Event;
use crate::trace::{Addr, Cycles, TraceSink};
use crate::VmError;
use obs::{Trace as ObsTrace, TrackId};
use std::sync::Arc;
use std::time::Instant;

/// Default number of events per [`EventBatch`].
pub const DEFAULT_BATCH_CAPACITY: usize = 4096;

/// The discriminant of a trace event, for per-kind accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// Heap (or static) load.
    HeapLoad,
    /// Heap (or static) store.
    HeapStore,
    /// `lwl` local-variable load annotation.
    LocalLoad,
    /// `swl` local-variable store annotation.
    LocalStore,
    /// `sloop` loop entry.
    LoopEnter,
    /// `eoi` thread boundary.
    LoopIter,
    /// `eloop` loop exit.
    LoopExit,
    /// End-of-STL statistics read.
    StatsRead,
    /// Function call.
    CallEnter,
    /// Function return.
    CallExit,
    /// First consumption of a call's return value.
    CallResultUse,
}

/// Number of distinct [`EventKind`]s.
pub const N_EVENT_KINDS: usize = 11;

impl EventKind {
    /// Every kind, in discriminant order.
    pub const ALL: [EventKind; N_EVENT_KINDS] = [
        EventKind::HeapLoad,
        EventKind::HeapStore,
        EventKind::LocalLoad,
        EventKind::LocalStore,
        EventKind::LoopEnter,
        EventKind::LoopIter,
        EventKind::LoopExit,
        EventKind::StatsRead,
        EventKind::CallEnter,
        EventKind::CallExit,
        EventKind::CallResultUse,
    ];

    /// Dense index of this kind (0..[`N_EVENT_KINDS`]).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::HeapLoad => "heap_load",
            EventKind::HeapStore => "heap_store",
            EventKind::LocalLoad => "local_load",
            EventKind::LocalStore => "local_store",
            EventKind::LoopEnter => "loop_enter",
            EventKind::LoopIter => "loop_iter",
            EventKind::LoopExit => "loop_exit",
            EventKind::StatsRead => "stats_read",
            EventKind::CallEnter => "call_enter",
            EventKind::CallExit => "call_exit",
            EventKind::CallResultUse => "call_result_use",
        }
    }

    /// Inverse of [`EventKind::name`].
    pub fn from_name(name: &str) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl Event {
    /// The kind of this event.
    pub fn kind(&self) -> EventKind {
        match self {
            Event::HeapLoad(..) => EventKind::HeapLoad,
            Event::HeapStore(..) => EventKind::HeapStore,
            Event::LocalLoad(..) => EventKind::LocalLoad,
            Event::LocalStore(..) => EventKind::LocalStore,
            Event::LoopEnter(..) => EventKind::LoopEnter,
            Event::LoopIter(..) => EventKind::LoopIter,
            Event::LoopExit(..) => EventKind::LoopExit,
            Event::StatsRead(..) => EventKind::StatsRead,
            Event::CallEnter(..) => EventKind::CallEnter,
            Event::CallExit(..) => EventKind::CallExit,
            Event::CallResultUse(..) => EventKind::CallResultUse,
        }
    }
}

/// Event counts by [`EventKind`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCounts {
    counts: [u64; N_EVENT_KINDS],
}

impl KindCounts {
    /// Records `n` events of `kind`.
    #[inline]
    pub fn add(&mut self, kind: EventKind, n: u64) {
        self.counts[kind.index()] += n;
    }

    /// Count for one kind.
    #[inline]
    pub fn get(&self, kind: EventKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Total events across kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Adds every count of `other` into `self`.
    pub fn merge(&mut self, other: &KindCounts) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// `(kind, count)` pairs in discriminant order.
    pub fn iter(&self) -> impl Iterator<Item = (EventKind, u64)> + '_ {
        EventKind::ALL.iter().map(move |&k| (k, self.get(k)))
    }
}

/// Control-stream entry: where the payload of one event lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ctrl {
    /// Payload in the heap struct-of-arrays columns; event is a load.
    HeapLoad,
    /// Payload in the heap struct-of-arrays columns; event is a store.
    HeapStore,
    /// Payload in the `misc` event vector.
    Misc,
}

/// A fixed-capacity chunk of trace events.
///
/// Heap loads and stores — the overwhelming majority of the stream —
/// are stored in struct-of-arrays columns (`addr`/`cycle`/`pc`); all
/// other events live in a side vector of [`Event`]. A one-byte control
/// stream preserves the exact emission order across both storages, so
/// [`EventBatch::replay_into`] reproduces the original stream exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventBatch {
    ctrl: Vec<Ctrl>,
    heap_addr: Vec<Addr>,
    heap_cycle: Vec<Cycles>,
    heap_pc: Vec<Pc>,
    misc: Vec<Event>,
}

impl EventBatch {
    /// Creates an empty batch sized for `capacity` events.
    pub fn with_capacity(capacity: usize) -> EventBatch {
        EventBatch {
            ctrl: Vec::with_capacity(capacity),
            // heap accesses dominate: size their columns for the bulk
            heap_addr: Vec::with_capacity(capacity),
            heap_cycle: Vec::with_capacity(capacity),
            heap_pc: Vec::with_capacity(capacity),
            misc: Vec::new(),
        }
    }

    /// Number of events in the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.ctrl.len()
    }

    /// True when no event was pushed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ctrl.is_empty()
    }

    /// Empties the batch, keeping its allocations for reuse. This is
    /// what lets the zero-copy replay path run allocation-free in the
    /// steady state: one buffer, filled and drained per batch.
    pub fn clear(&mut self) {
        self.ctrl.clear();
        self.heap_addr.clear();
        self.heap_cycle.clear();
        self.heap_pc.clear();
        self.misc.clear();
    }

    /// Appends a heap load without constructing an [`Event`].
    #[inline]
    pub fn push_heap_load(&mut self, addr: Addr, now: Cycles, pc: Pc) {
        self.ctrl.push(Ctrl::HeapLoad);
        self.heap_addr.push(addr);
        self.heap_cycle.push(now);
        self.heap_pc.push(pc);
    }

    /// Appends a heap store without constructing an [`Event`].
    #[inline]
    pub fn push_heap_store(&mut self, addr: Addr, now: Cycles, pc: Pc) {
        self.ctrl.push(Ctrl::HeapStore);
        self.heap_addr.push(addr);
        self.heap_cycle.push(now);
        self.heap_pc.push(pc);
    }

    /// Appends any event, routing heap accesses to the SoA columns.
    pub fn push(&mut self, event: Event) {
        match event {
            Event::HeapLoad(a, t, pc) => self.push_heap_load(a, t, pc),
            Event::HeapStore(a, t, pc) => self.push_heap_store(a, t, pc),
            e => {
                self.ctrl.push(Ctrl::Misc);
                self.misc.push(e);
            }
        }
    }

    /// Feeds every event into `sink` in emission order.
    pub fn replay_into<S: TraceSink + ?Sized>(&self, sink: &mut S) {
        let mut heap = 0usize;
        let mut misc = 0usize;
        for &c in &self.ctrl {
            match c {
                Ctrl::HeapLoad => {
                    sink.heap_load(
                        self.heap_addr[heap],
                        self.heap_cycle[heap],
                        self.heap_pc[heap],
                    );
                    heap += 1;
                }
                Ctrl::HeapStore => {
                    sink.heap_store(
                        self.heap_addr[heap],
                        self.heap_cycle[heap],
                        self.heap_pc[heap],
                    );
                    heap += 1;
                }
                Ctrl::Misc => {
                    self.misc[misc].deliver(sink);
                    misc += 1;
                }
            }
        }
    }

    /// Reconstructs the events in emission order.
    pub fn events(&self) -> Vec<Event> {
        self.iter().collect()
    }

    /// Iterates the events in emission order without materializing a
    /// vector — heap accesses are reconstructed from the SoA columns
    /// on the fly.
    pub fn iter(&self) -> EventBatchIter<'_> {
        EventBatchIter {
            batch: self,
            ctrl: 0,
            heap: 0,
            misc: 0,
        }
    }

    /// Per-kind event counts of this batch.
    pub fn kind_counts(&self) -> KindCounts {
        let mut k = KindCounts::default();
        for &c in &self.ctrl {
            match c {
                Ctrl::HeapLoad => k.add(EventKind::HeapLoad, 1),
                Ctrl::HeapStore => k.add(EventKind::HeapStore, 1),
                Ctrl::Misc => {}
            }
        }
        for e in &self.misc {
            k.add(e.kind(), 1);
        }
        k
    }
}

/// Iterator over an [`EventBatch`], yielding [`Event`]s in emission
/// order. Created by [`EventBatch::iter`].
#[derive(Debug, Clone)]
pub struct EventBatchIter<'a> {
    batch: &'a EventBatch,
    ctrl: usize,
    heap: usize,
    misc: usize,
}

impl Iterator for EventBatchIter<'_> {
    type Item = Event;

    #[inline]
    fn next(&mut self) -> Option<Event> {
        let c = *self.batch.ctrl.get(self.ctrl)?;
        self.ctrl += 1;
        Some(match c {
            Ctrl::HeapLoad => {
                let i = self.heap;
                self.heap += 1;
                Event::HeapLoad(
                    self.batch.heap_addr[i],
                    self.batch.heap_cycle[i],
                    self.batch.heap_pc[i],
                )
            }
            Ctrl::HeapStore => {
                let i = self.heap;
                self.heap += 1;
                Event::HeapStore(
                    self.batch.heap_addr[i],
                    self.batch.heap_cycle[i],
                    self.batch.heap_pc[i],
                )
            }
            Ctrl::Misc => {
                let i = self.misc;
                self.misc += 1;
                self.batch.misc[i]
            }
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.batch.ctrl.len() - self.ctrl;
        (rest, Some(rest))
    }
}

impl ExactSizeIterator for EventBatchIter<'_> {}

/// A [`TraceSink`] that groups the event stream into fixed-capacity
/// [`EventBatch`]es and hands each full batch to `flush`. Call
/// [`Batcher::finish`] to flush the final partial batch.
///
/// `flush` receives the batch in place: it may take it (leaving a
/// fresh one) or only read it. Whatever it leaves is cleared and
/// refilled, so a reader keeps one buffer for the whole run.
pub struct Batcher<F: FnMut(&mut EventBatch)> {
    capacity: usize,
    batch: EventBatch,
    flush: F,
    batches: u64,
    events: u64,
}

impl<F: FnMut(&mut EventBatch)> Batcher<F> {
    /// Creates a batcher emitting batches of up to `capacity` events.
    /// A zero capacity is promoted to 1.
    pub fn new(capacity: usize, flush: F) -> Batcher<F> {
        let capacity = capacity.max(1);
        Batcher {
            capacity,
            batch: EventBatch::with_capacity(capacity),
            flush,
            batches: 0,
            events: 0,
        }
    }

    #[inline]
    fn roll(&mut self) {
        if self.batch.len() >= self.capacity {
            self.flush_batch();
        }
    }

    fn flush_batch(&mut self) {
        self.batches += 1;
        self.events += self.batch.len() as u64;
        (self.flush)(&mut self.batch);
        self.batch.clear();
    }

    /// Flushes the trailing partial batch and returns
    /// `(batches, events)` totals.
    pub fn finish(mut self) -> (u64, u64) {
        if !self.batch.is_empty() {
            self.flush_batch();
        }
        (self.batches, self.events)
    }
}

impl<F: FnMut(&mut EventBatch)> TraceSink for Batcher<F> {
    fn heap_load(&mut self, addr: Addr, now: Cycles, pc: Pc) {
        self.batch.push_heap_load(addr, now, pc);
        self.roll();
    }
    fn heap_store(&mut self, addr: Addr, now: Cycles, pc: Pc) {
        self.batch.push_heap_store(addr, now, pc);
        self.roll();
    }
    fn local_load(&mut self, var: u16, activation: u32, now: Cycles, pc: Pc) {
        self.batch.push(Event::LocalLoad(var, activation, now, pc));
        self.roll();
    }
    fn local_store(&mut self, var: u16, activation: u32, now: Cycles, pc: Pc) {
        self.batch.push(Event::LocalStore(var, activation, now, pc));
        self.roll();
    }
    fn loop_enter(
        &mut self,
        loop_id: crate::isa::LoopId,
        n_locals: u16,
        activation: u32,
        now: Cycles,
    ) {
        self.batch
            .push(Event::LoopEnter(loop_id, n_locals, activation, now));
        self.roll();
    }
    fn loop_iter(&mut self, loop_id: crate::isa::LoopId, now: Cycles) {
        self.batch.push(Event::LoopIter(loop_id, now));
        self.roll();
    }
    fn loop_exit(&mut self, loop_id: crate::isa::LoopId, now: Cycles) {
        self.batch.push(Event::LoopExit(loop_id, now));
        self.roll();
    }
    fn stats_read(&mut self, loop_id: crate::isa::LoopId, now: Cycles) {
        self.batch.push(Event::StatsRead(loop_id, now));
        self.roll();
    }
    fn call_enter(&mut self, site: Pc, activation: u32, now: Cycles) {
        self.batch.push(Event::CallEnter(site, activation, now));
        self.roll();
    }
    fn call_exit(&mut self, site: Pc, now: Cycles) {
        self.batch.push(Event::CallExit(site, now));
        self.roll();
    }
    fn call_result_use(&mut self, site: Pc, now: Cycles) {
        self.batch.push(Event::CallResultUse(site, now));
        self.roll();
    }
}

/// Interprets `program` once, capturing its full event stream as
/// batches of `capacity` events. This is the record-once half of
/// record-once/replay-many; a single consumer streams instead
/// ([`TraceBus::run`]).
///
/// # Errors
///
/// Any [`VmError`] from the underlying execution.
pub fn record_batches(
    program: &Program,
    capacity: usize,
) -> Result<(RunResult, Vec<EventBatch>), VmError> {
    let mut batches = Vec::new();
    let mut batcher = Batcher::new(capacity, |b: &mut EventBatch| {
        batches.push(std::mem::replace(b, EventBatch::with_capacity(capacity)));
    });
    let run = Interp::run(program, &mut batcher)?;
    batcher.finish();
    Ok((run, batches))
}

/// Per-sink observability counters of one bus run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SinkStats {
    /// The sink's registration label.
    pub label: String,
    /// Events delivered.
    pub events: u64,
    /// Events delivered, by kind.
    pub by_kind: KindCounts,
    /// Batches delivered.
    pub batches: u64,
    /// Wall time spent inside the sink's callbacks, in nanoseconds.
    pub drain_nanos: u64,
}

impl SinkStats {
    /// Mean events per delivered batch. Returns 0.0 for a sink that
    /// received nothing, never `NaN`.
    pub fn avg_batch_occupancy(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.events as f64 / self.batches as f64
        }
    }

    /// Events delivered per second of drain wall time. Returns 0.0 for
    /// an empty window instead of `inf`/`NaN`.
    pub fn events_per_sec(&self) -> f64 {
        if self.drain_nanos == 0 {
            0.0
        } else {
            self.events as f64 * 1e9 / self.drain_nanos as f64
        }
    }
}

/// Observability summary of one bus replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BusReport {
    /// Batches that crossed the bus.
    pub batches: u64,
    /// Events that crossed the bus.
    pub events: u64,
    /// Configured per-batch capacity.
    pub batch_capacity: usize,
    /// Events by kind.
    pub by_kind: KindCounts,
    /// Per-sink counters, in registration order.
    pub sinks: Vec<SinkStats>,
}

impl BusReport {
    /// Mean fill fraction of the batches that crossed the bus.
    pub fn avg_batch_occupancy(&self) -> f64 {
        if self.batches == 0 || self.batch_capacity == 0 {
            0.0
        } else {
            self.events as f64 / (self.batches * self.batch_capacity as u64) as f64
        }
    }
}

/// The trace bus orchestrator: labelled sinks plus a delivery policy.
///
/// ```
/// use tvm::bus::{record_batches, TraceBus, DEFAULT_BATCH_CAPACITY};
/// use tvm::trace::CountingSink;
/// use tvm::{ElemKind, ProgramBuilder};
///
/// # fn main() -> Result<(), tvm::VmError> {
/// let mut b = ProgramBuilder::new();
/// let main = b.function("main", 0, false, |f| {
///     let (a, i) = (f.local(), f.local());
///     f.ci(8).newarray(ElemKind::Int).st(a);
///     f.for_in(i, 0.into(), 8.into(), |f| {
///         f.arr_set(a, |f| { f.ld(i); }, |f| { f.ld(i); });
///     });
///     f.ret_void();
/// });
/// let program = b.finish(main)?;
///
/// // record once ...
/// let (_run, batches) = record_batches(&program, DEFAULT_BATCH_CAPACITY)?;
/// // ... replay into any number of consumers
/// let mut a = CountingSink::default();
/// let mut b2 = CountingSink::default();
/// let report = TraceBus::new()
///     .sink("a", &mut a)
///     .sink("b", &mut b2)
///     .replay(&batches);
/// assert_eq!(a, b2);
/// assert_eq!(report.sinks.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct TraceBus<'a> {
    sinks: Vec<(String, &'a mut dyn TraceSink)>,
    trace: Option<Arc<ObsTrace>>,
}

impl<'a> TraceBus<'a> {
    /// Creates a bus with no sinks.
    pub fn new() -> TraceBus<'a> {
        TraceBus::default()
    }

    /// Records this run into `trace`: each sink becomes a wall-clock
    /// track named `sink:<label>` carrying a `drain` span per batch and
    /// a cumulative `events` counter series.
    #[must_use]
    pub fn observe(mut self, trace: Arc<ObsTrace>) -> TraceBus<'a> {
        self.trace = Some(trace);
        self
    }

    /// Registers a labelled consumer.
    #[must_use]
    pub fn sink(mut self, label: &str, sink: &'a mut dyn TraceSink) -> TraceBus<'a> {
        self.sinks.push((label.to_string(), sink));
        self
    }

    /// Replays `batches` into every sink on the calling thread. Each
    /// batch is delivered to all sinks (in registration order) before
    /// the next batch.
    pub fn replay(mut self, batches: &[EventBatch]) -> BusReport {
        let (mut report, tracks) = self.open();
        for batch in batches {
            self.deliver(batch, &mut report, &tracks);
        }
        report
    }

    /// Interprets `program` once with `hook` observing it, streaming
    /// its events into every sink: the interpreter fills one reused
    /// batch of [`DEFAULT_BATCH_CAPACITY`] events, and each full batch
    /// (then the final partial one) is delivered before execution goes
    /// on. The batches, and every count in the report, are exactly
    /// those of [`record_batches`] followed by [`TraceBus::replay`], but
    /// the run never holds more than one batch.
    ///
    /// # Errors
    ///
    /// Any [`VmError`] from the underlying execution.
    pub fn run<H: LocationHook>(
        mut self,
        program: &Program,
        hook: &mut H,
    ) -> Result<(FinalState, BusReport), VmError> {
        let (mut report, tracks) = self.open();
        let mut batcher = Batcher::new(DEFAULT_BATCH_CAPACITY, |b: &mut EventBatch| {
            self.deliver(b, &mut report, &tracks);
        });
        let state = Interp::run_to_state_hooked(
            program,
            &mut batcher,
            CostModel::default(),
            Interp::DEFAULT_FUEL,
            hook,
        )?;
        batcher.finish();
        Ok((state, report))
    }

    /// An empty report with one labelled [`SinkStats`] per sink, and
    /// each sink's `sink:<label>` track when observed.
    fn open(&self) -> (BusReport, Vec<Option<TrackId>>) {
        let report = BusReport {
            sinks: self
                .sinks
                .iter()
                .map(|(label, _)| SinkStats {
                    label: label.clone(),
                    ..SinkStats::default()
                })
                .collect(),
            ..BusReport::default()
        };
        let tracks = self
            .sinks
            .iter()
            .map(|(l, _)| self.trace.as_ref().map(|tr| tr.track(&format!("sink:{l}"))))
            .collect();
        (report, tracks)
    }

    /// Delivers one batch to every sink, in registration order.
    fn deliver(&mut self, batch: &EventBatch, report: &mut BusReport, tracks: &[Option<TrackId>]) {
        let counts = batch.kind_counts();
        report.batches += 1;
        report.events += batch.len() as u64;
        report.batch_capacity = report.batch_capacity.max(batch.len());
        report.by_kind.merge(&counts);
        let trace = self.trace.as_deref();
        for (((_, sink), st), track) in self.sinks.iter_mut().zip(&mut report.sinks).zip(tracks) {
            if let (Some(tr), Some(track)) = (trace, *track) {
                tr.begin(track, "drain");
            }
            let t = Instant::now();
            sink.consume_batch(batch);
            st.drain_nanos += t.elapsed().as_nanos() as u64;
            st.batches += 1;
            st.events += batch.len() as u64;
            st.by_kind.merge(&counts);
            if let (Some(tr), Some(track)) = (trace, *track) {
                tr.end(track, "drain");
                tr.counter(track, "events", st.events);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ProgramBuilder;
    use crate::hotloc::NoHook;
    use crate::record::RecordingSink;
    use crate::trace::CountingSink;
    use crate::ElemKind;

    fn sample_program() -> crate::Program {
        let mut b = ProgramBuilder::new();
        let helper = b.declare("helper", 1, true);
        b.define(helper, |f| {
            f.ld(f.param(0)).ci(3).imul().ret();
        });
        let main = b.function("main", 0, false, |f| {
            let (a, i) = (f.local(), f.local());
            f.ci(16).newarray(ElemKind::Int).st(a);
            f.for_in(i, 0.into(), 16.into(), |f| {
                f.arr_set(
                    a,
                    |f| {
                        f.ld(i);
                    },
                    |f| {
                        f.ld(i).call(helper);
                    },
                );
            });
            f.ret_void();
        });
        b.finish(main).unwrap()
    }

    #[test]
    fn batches_preserve_the_exact_stream() {
        let p = sample_program();
        let mut rec = RecordingSink::new();
        Interp::run(&p, &mut rec).unwrap();
        let recording = rec.into_recording();

        let (_run, batches) = record_batches(&p, 7).unwrap();
        let replayed: Vec<Event> = batches.iter().flat_map(|b| b.events()).collect();
        assert_eq!(recording.events, replayed);

        // and replay_into reproduces it too
        let mut out = RecordingSink::new();
        for b in &batches {
            b.replay_into(&mut out);
        }
        assert_eq!(recording, out.into_recording());
    }

    #[test]
    fn batch_capacity_is_respected() {
        let p = sample_program();
        let (_run, batches) = record_batches(&p, 5).unwrap();
        assert!(batches.len() > 1);
        for b in &batches[..batches.len() - 1] {
            assert_eq!(b.len(), 5);
        }
        assert!(batches.last().unwrap().len() <= 5);
    }

    #[test]
    fn kind_counts_match_event_totals() {
        let p = sample_program();
        let (_run, batches) = record_batches(&p, 64).unwrap();
        let mut total = KindCounts::default();
        for b in &batches {
            total.merge(&b.kind_counts());
        }
        let mut count = CountingSink::default();
        Interp::run(&p, &mut count).unwrap();
        assert_eq!(total.get(EventKind::HeapLoad), count.loads);
        assert_eq!(total.get(EventKind::HeapStore), count.stores);
        assert_eq!(
            total.total(),
            batches.iter().map(|b| b.len() as u64).sum::<u64>()
        );
        assert!(total.get(EventKind::CallEnter) > 0, "calls are captured");
    }

    #[test]
    fn replay_agrees_with_direct() {
        let p = sample_program();
        let mut direct = CountingSink::default();
        Interp::run(&p, &mut direct).unwrap();

        let (_run, batches) = record_batches(&p, 16).unwrap();
        let mut count = CountingSink::default();
        let mut extra = CountingSink::default();
        let report = TraceBus::new()
            .sink("count", &mut count)
            .sink("extra", &mut extra)
            .replay(&batches);
        assert_eq!(count, direct);
        assert_eq!(extra, direct);
        assert_eq!(report.sinks.len(), 2);
        for s in &report.sinks {
            assert_eq!(s.events, report.events);
            assert_eq!(s.batches, report.batches);
        }
    }

    #[test]
    fn streamed_run_delivers_what_a_recording_replays() {
        let p = sample_program();
        let (run, batches) = record_batches(&p, DEFAULT_BATCH_CAPACITY).unwrap();
        let mut replayed = RecordingSink::new();
        let replay = TraceBus::new().sink("rec", &mut replayed).replay(&batches);
        let trace = Arc::new(ObsTrace::new());
        let mut streamed = RecordingSink::new();
        let (state, stream) = TraceBus::new()
            .observe(Arc::clone(&trace))
            .sink("rec", &mut streamed)
            .run(&p, &mut NoHook)
            .unwrap();
        assert_eq!(state.result, run);
        assert_eq!(streamed.into_recording(), replayed.into_recording());
        assert_eq!(
            (stream.batches, stream.events, stream.batch_capacity),
            (replay.batches, replay.events, replay.batch_capacity)
        );
        assert_eq!(stream.sinks[0].events, replay.sinks[0].events);
        let tracks = trace.tracks();
        assert_eq!(tracks.len(), 1);
        assert_eq!(tracks[0].name, "sink:rec");
        assert!(tracks[0].open.is_empty());
    }

    #[test]
    fn observed_bus_records_sink_tracks() {
        let p = sample_program();
        let (_run, batches) = record_batches(&p, 8).unwrap();
        let trace = Arc::new(ObsTrace::new());
        let mut a = CountingSink::default();
        let mut b = CountingSink::default();
        let report = TraceBus::new()
            .observe(Arc::clone(&trace))
            .sink("a", &mut a)
            .sink("b", &mut b)
            .replay(&batches);
        let tracks = trace.tracks();
        let names: Vec<&str> = tracks.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["sink:a", "sink:b"]);
        for t in &tracks {
            assert!(t.open.is_empty(), "unclosed drain span on {}", t.name);
        }
        // the cumulative events series ends at the per-sink total
        let sink_a = tracks.iter().find(|t| t.name == "sink:a").unwrap();
        let last = sink_a.events.iter().rev().find_map(|e| match &e.kind {
            obs::TrackEventKind::Counter(n, v) if n == "events" => Some(*v),
            _ => None,
        });
        let a_stats = report.sinks.iter().find(|s| s.label == "a").unwrap();
        assert_eq!(last, Some(a_stats.events));
    }

    #[test]
    fn event_kind_names_round_trip() {
        for k in EventKind::ALL {
            assert_eq!(EventKind::from_name(k.name()), Some(k));
        }
        assert_eq!(EventKind::from_name("nonsense"), None);
    }

    #[test]
    fn occupancy_is_full_for_exact_multiples() {
        let mut report = BusReport {
            batches: 4,
            events: 32,
            batch_capacity: 8,
            ..BusReport::default()
        };
        assert_eq!(report.avg_batch_occupancy(), 1.0);
        report.events = 20;
        assert_eq!(report.avg_batch_occupancy(), 0.625);
    }

    #[test]
    fn batch_iter_matches_events() {
        let p = sample_program();
        let (_run, batches) = record_batches(&p, 7).unwrap();
        for b in &batches {
            let via_iter: Vec<Event> = b.iter().collect();
            assert_eq!(via_iter, b.events());
            assert_eq!(b.iter().len(), b.len());
        }
    }

    #[test]
    fn consume_batch_default_matches_replay_into() {
        let p = sample_program();
        let (_run, batches) = record_batches(&p, 9).unwrap();
        let mut via_replay = CountingSink::default();
        let mut via_consume = CountingSink::default();
        for b in &batches {
            b.replay_into(&mut via_replay);
            via_consume.consume_batch(b);
        }
        assert_eq!(via_replay, via_consume);
    }

    #[test]
    fn clear_keeps_allocations_and_empties() {
        let p = sample_program();
        let (_run, batches) = record_batches(&p, 16).unwrap();
        let mut b = batches[0].clone();
        assert!(!b.is_empty());
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert_eq!(b.events(), Vec::new());
    }

    #[test]
    fn zero_capacity_batcher_is_promoted_not_panicking() {
        let p = sample_program();
        let (_run, batches) = record_batches(&p, 0).unwrap();
        assert!(!batches.is_empty());
        for b in &batches {
            assert_eq!(b.len(), 1, "zero capacity is promoted to 1");
        }
        let mut count = CountingSink::default();
        TraceBus::new().sink("count", &mut count).replay(&batches);
        let mut direct = CountingSink::default();
        Interp::run(&p, &mut direct).unwrap();
        assert_eq!(count, direct);
    }

    #[test]
    fn sink_stats_ratios_never_divide_by_zero() {
        let empty = SinkStats::default();
        assert_eq!(empty.avg_batch_occupancy(), 0.0);
        assert_eq!(empty.events_per_sec(), 0.0);
        let full = SinkStats {
            events: 30,
            batches: 4,
            drain_nanos: 1_000_000_000,
            ..SinkStats::default()
        };
        assert_eq!(full.avg_batch_occupancy(), 7.5);
        assert_eq!(full.events_per_sec(), 30.0);
    }
}
