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
//!   batches and hands each full batch to a flush callback, or keeps
//!   them all as a [`Recording`] (that is what
//!   [`crate::record::RecordingSink`] is);
//! * [`TraceBus`] — the orchestrator: labelled sinks, each batch
//!   delivered to every sink in turn, and a [`BusReport`] with
//!   per-sink event counts and drain times. [`TraceBus::run`] streams
//!   a live run: the interpreter fills a batch and each full batch is
//!   delivered as it is cut, so no trace is stored (the profiling
//!   pass); once the run proves long, delivery moves to a helper
//!   thread (a [`crate::handoff::Handoff`]). For
//!   consumers that need the stream more than once, a
//!   [`crate::record::RecordingSink`] captures a run and
//!   [`TraceBus::replay`] delivers the [`Recording`]; the two paths cut
//!   and deliver identical batches.
//!
//! Every path delivers a batch through [`TraceSink::consume_batch`].
//!
//! Delivery order is the emission order, so any sink observes exactly
//! the stream a direct [`crate::interp::Interp`] run would have fed
//! it — analyses are bit-identical to direct profiling.

use crate::cost::CostModel;
use crate::handoff::Handoff;
use crate::hotloc::LocationHook;
use crate::interp::{FinalState, Interp};
use crate::isa::Pc;
use crate::program::Program;
use crate::record::{Event, Recording};
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
pub(crate) enum Ctrl {
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
/// [`TraceSink::consume_batch`] reproduces the original stream exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventBatch {
    pub(crate) ctrl: Vec<Ctrl>,
    pub(crate) heap_addr: Vec<Addr>,
    pub(crate) heap_cycle: Vec<Cycles>,
    pub(crate) heap_pc: Vec<Pc>,
    pub(crate) misc: Vec<Event>,
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

    /// Iterates the events in emission order without materializing a
    /// vector — heap accesses are reconstructed from the SoA columns
    /// on the fly.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Event> + '_ {
        let (mut heap, mut misc) = (0, 0);
        self.ctrl.iter().map(move |&c| {
            if c == Ctrl::Misc {
                misc += 1;
                return self.misc[misc - 1];
            }
            let (a, t, pc) = (
                self.heap_addr[heap],
                self.heap_cycle[heap],
                self.heap_pc[heap],
            );
            heap += 1;
            if c == Ctrl::HeapLoad {
                Event::HeapLoad(a, t, pc)
            } else {
                Event::HeapStore(a, t, pc)
            }
        })
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

/// A [`TraceSink`] that groups the event stream into fixed-capacity
/// [`EventBatch`]es and hands each full batch to its flush target.
/// Call [`Batcher::finish`] to flush the final partial batch.
///
/// The target is a closure ([`Batcher::with_flush`]), which reads the
/// batch in place before it is cleared and refilled, so a streaming
/// consumer keeps one buffer for the whole run; or the [`Recording`] a
/// [`RecordingSink`] keeps every batch in.
///
/// [`RecordingSink`]: crate::record::RecordingSink
pub struct Batcher<F> {
    capacity: usize,
    batch: EventBatch,
    flush: F,
}

pub(crate) mod sealed {
    /// Where a [`super::Batcher`] sends each batch it cuts. Sealed:
    /// closures, the recording sink's kept batches and a streamed
    /// run's hand-off are the only targets. A target may swap the batch
    /// for another buffer; the batcher clears whatever it is left with.
    pub trait Flush {
        fn flush(&mut self, batch: &mut super::EventBatch);
    }
}
use sealed::Flush;

impl<F: FnMut(&EventBatch)> Flush for F {
    #[inline]
    fn flush(&mut self, batch: &mut EventBatch) {
        self(batch);
    }
}

impl<F: FnMut(&EventBatch)> Batcher<F> {
    /// Creates a batcher handing each batch of up to `capacity` events
    /// to `flush`. A zero capacity is promoted to 1.
    pub fn with_flush(capacity: usize, flush: F) -> Batcher<F> {
        Batcher::cutting(capacity, flush)
    }
}

impl<F: Flush> Batcher<F> {
    pub(crate) fn cutting(capacity: usize, flush: F) -> Batcher<F> {
        let capacity = capacity.max(1);
        Batcher {
            capacity,
            batch: EventBatch::with_capacity(capacity),
            flush,
        }
    }

    #[inline]
    fn roll(&mut self) {
        if self.batch.len() >= self.capacity {
            self.flush_batch();
        }
    }

    fn flush_batch(&mut self) {
        self.flush.flush(&mut self.batch);
        self.batch.clear();
    }

    /// Flushes the trailing partial batch.
    pub fn finish(self) {
        self.into_target();
    }

    /// Flushes the trailing partial batch and yields the flush target.
    pub(crate) fn into_target(mut self) -> F {
        if !self.batch.is_empty() {
            self.flush_batch();
        }
        self.flush
    }
}

impl<F: Flush> TraceSink for Batcher<F> {
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
    /// Wall time spent inside the sink's callbacks, in nanoseconds, on
    /// whichever thread delivered.
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
    /// The sinks' *exposed* time, in nanoseconds: what the calling
    /// thread spent delivering or waiting on delivery. It equals the
    /// summed `drain_nanos` when every batch was delivered inline and
    /// never exceeds it.
    pub exposed_nanos: u64,
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
/// use tvm::bus::TraceBus;
/// use tvm::record::RecordingSink;
/// use tvm::trace::CountingSink;
/// use tvm::{ElemKind, Interp, ProgramBuilder};
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
/// let mut recorder = RecordingSink::new();
/// Interp::run(&program, &mut recorder)?;
/// let recording = recorder.into_recording();
/// // ... replay into any number of consumers
/// let mut a = CountingSink::default();
/// let mut b2 = CountingSink::default();
/// let report = TraceBus::new()
///     .sink("a", &mut a)
///     .sink("b", &mut b2)
///     .replay(&recording);
/// assert_eq!(a, b2);
/// assert_eq!(report.sinks.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct TraceBus<'a> {
    sinks: Vec<(String, &'a mut (dyn TraceSink + Send))>,
    trace: Option<Arc<ObsTrace>>,
}

/// A streamed run hands each batch it cuts to delivery.
impl<'scope, C> Flush for Handoff<'scope, '_, EventBatch, C>
where
    C: FnMut(&mut EventBatch) -> u64 + Send + 'scope,
{
    fn flush(&mut self, batch: &mut EventBatch) {
        self.push(batch);
    }
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

    /// Registers a labelled consumer. Sinks are `Send` because a long
    /// [`TraceBus::run`] delivers on a helper thread.
    #[must_use]
    pub fn sink(mut self, label: &str, sink: &'a mut (dyn TraceSink + Send)) -> TraceBus<'a> {
        self.sinks.push((label.to_string(), sink));
        self
    }

    /// Replays `recording` into every sink on the calling thread. Each
    /// of its batches is delivered to all sinks (in registration order)
    /// before the next batch.
    pub fn replay(mut self, recording: &Recording) -> BusReport {
        let (mut report, tracks) = self.open();
        for batch in recording.batches() {
            let drained = self.deliver(batch, &mut report, &tracks);
            report.exposed_nanos += drained;
        }
        report
    }

    /// Interprets `program` once with `hook` observing it, streaming
    /// its events into every sink: the interpreter fills a batch of
    /// [`DEFAULT_BATCH_CAPACITY`] events, and each full batch (then the
    /// final partial one) is delivered as it is cut. The first
    /// [`crate::handoff::HANDOFF_AFTER`] batches are delivered on the
    /// calling thread before execution goes on; after that, if
    /// more than one core is available, one helper thread delivers them
    /// in order while the interpreter runs ahead, and the interpreter
    /// swaps each full batch for a drained one. The batches, and every
    /// count in the report, are exactly those of a
    /// [`crate::record::RecordingSink`] capture followed by
    /// [`TraceBus::replay`], but the run holds at most two batches.
    /// [`BusReport::exposed_nanos`] is the delivery time the
    /// interpreter did not overlap.
    ///
    /// # Errors
    ///
    /// Any [`VmError`] from the underlying execution. The batches cut
    /// before it are delivered, the trailing partial one is not.
    ///
    /// # Panics
    ///
    /// When a sink panics, on whichever thread it ran.
    pub fn run<H: LocationHook>(
        mut self,
        program: &Program,
        hook: &mut H,
    ) -> Result<(FinalState, BusReport), VmError> {
        let (mut report, tracks) = self.open();
        let (state, exposed) = std::thread::scope(|scope| {
            let deliver = |b: &mut EventBatch| self.deliver(b, &mut report, &tracks);
            let mut batcher =
                Batcher::cutting(DEFAULT_BATCH_CAPACITY, Handoff::new(scope, deliver));
            let state = Interp::run_to_state_hooked(
                program,
                &mut batcher,
                CostModel::default(),
                Interp::DEFAULT_FUEL,
                hook,
            );
            let handoff = match state {
                Ok(_) => batcher.into_target(),
                Err(_) => batcher.flush,
            };
            (state, handoff.finish())
        });
        report.exposed_nanos = exposed;
        Ok((state?, report))
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

    /// Delivers one batch to every sink, in registration order, and
    /// returns the summed drain time.
    fn deliver(
        &mut self,
        batch: &EventBatch,
        report: &mut BusReport,
        tracks: &[Option<TrackId>],
    ) -> u64 {
        let counts = batch.kind_counts();
        let mut drained = 0;
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
            let nanos = t.elapsed().as_nanos() as u64;
            st.drain_nanos += nanos;
            drained += nanos;
            st.batches += 1;
            st.events += batch.len() as u64;
            st.by_kind.merge(&counts);
            if let (Some(tr), Some(track)) = (trace, *track) {
                tr.end(track, "drain");
                tr.counter(track, "events", st.events);
            }
        }
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ProgramBuilder;
    use crate::hotloc::NoHook;
    use crate::interp::RunResult;
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

    /// Captures one run of `p` as a [`Recording`].
    fn record(p: &Program) -> (RunResult, Recording) {
        let mut rec = RecordingSink::new();
        let run = Interp::run(p, &mut rec).unwrap();
        (run, rec.into_recording())
    }

    /// The batches a [`Batcher`] of `capacity` cuts from one run of `p`.
    fn cut(p: &Program, capacity: usize) -> Vec<EventBatch> {
        let mut batches = Vec::new();
        let mut batcher = Batcher::with_flush(capacity, |b: &EventBatch| batches.push(b.clone()));
        Interp::run(p, &mut batcher).unwrap();
        batcher.finish();
        batches
    }

    #[test]
    fn batches_preserve_the_exact_stream() {
        let p = sample_program();
        let (_run, recording) = record(&p);

        let batches = cut(&p, 7);
        let replayed: Vec<Event> = batches.iter().flat_map(EventBatch::iter).collect();
        assert_eq!(recording.iter().collect::<Vec<_>>(), replayed);

        // and consume_batch reproduces it too
        let mut out = RecordingSink::new();
        for b in &batches {
            out.consume_batch(b);
        }
        assert_eq!(recording, out.into_recording());
    }

    #[test]
    fn batch_capacity_is_respected() {
        let p = sample_program();
        let batches = cut(&p, 5);
        assert!(batches.len() > 1);
        for b in &batches[..batches.len() - 1] {
            assert_eq!(b.len(), 5);
        }
        assert!(batches.last().unwrap().len() <= 5);
    }

    #[test]
    fn kind_counts_match_event_totals() {
        let p = sample_program();
        let batches = cut(&p, 64);
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

        let (_run, recording) = record(&p);
        let mut count = CountingSink::default();
        let mut extra = CountingSink::default();
        let report = TraceBus::new()
            .sink("count", &mut count)
            .sink("extra", &mut extra)
            .replay(&recording);
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
        let (run, recording) = record(&p);
        let mut replayed = RecordingSink::new();
        let replay = TraceBus::new()
            .sink("rec", &mut replayed)
            .replay(&recording);
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

    /// `a[i & 255] = i` for `i` in `0..iters`, then, when `fault`, a
    /// store past the array's end: ~`iters` events, enough to cross
    /// the hand-off point from a few tens of thousands on.
    fn long_program(iters: i64, fault: bool) -> crate::Program {
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, false, |f| {
            let (a, i) = (f.local(), f.local());
            f.ci(256).newarray(ElemKind::Int).st(a);
            f.for_in(i, 0.into(), iters.into(), |f| {
                f.arr_set(
                    a,
                    |f| {
                        f.ld(i).ci(255).iand();
                    },
                    |f| {
                        f.ld(i);
                    },
                );
            });
            if fault {
                f.arr_set(
                    a,
                    |f| {
                        f.ci(1000);
                    },
                    |f| {
                        f.ci(0);
                    },
                );
            }
            f.ret_void();
        });
        b.finish(main).unwrap()
    }

    /// The counts of a report: all of it but its wall-clock times.
    fn counts(r: &BusReport) -> impl PartialEq + std::fmt::Debug {
        let sinks: Vec<_> = r
            .sinks
            .iter()
            .map(|s| (s.label.clone(), s.events, s.batches, s.by_kind))
            .collect();
        (r.batches, r.events, r.batch_capacity, r.by_kind, sinks)
    }

    #[test]
    fn a_long_streamed_run_delivers_what_a_recording_replays() {
        let p = long_program(100_000, false);
        let (run, recording) = record(&p);
        assert!(recording.batches().len() > 2 * crate::handoff::HANDOFF_AFTER);
        let mut replayed = RecordingSink::new();
        let mut replayed_count = CountingSink::default();
        let replay = TraceBus::new()
            .sink("rec", &mut replayed)
            .sink("count", &mut replayed_count)
            .replay(&recording);
        let mut streamed = RecordingSink::new();
        let mut streamed_count = CountingSink::default();
        let (state, stream) = TraceBus::new()
            .sink("rec", &mut streamed)
            .sink("count", &mut streamed_count)
            .run(&p, &mut NoHook)
            .unwrap();
        assert_eq!(state.result, run);
        assert_eq!(streamed.into_recording(), replayed.into_recording());
        assert_eq!(streamed_count, replayed_count);
        assert_eq!(counts(&stream), counts(&replay));
        let drained: u64 = stream.sinks.iter().map(|s| s.drain_nanos).sum();
        assert!(stream.exposed_nanos <= drained);
        let drained: u64 = replay.sinks.iter().map(|s| s.drain_nanos).sum();
        assert_eq!(replay.exposed_nanos, drained, "a replay is all inline");
    }

    #[test]
    fn a_fault_after_the_handoff_delivers_the_serial_batches() {
        let p = long_program(100_000, true);
        // the serial rule: every batch cut before the fault, and not
        // the trailing partial one
        let mut serial = Vec::new();
        let mut batcher = Batcher::with_flush(DEFAULT_BATCH_CAPACITY, |b: &EventBatch| {
            serial.extend(b.iter());
        });
        let want = Interp::run(&p, &mut batcher).unwrap_err();
        drop(batcher);
        assert!(serial.len() > 2 * crate::handoff::HANDOFF_AFTER * DEFAULT_BATCH_CAPACITY);
        let mut streamed = RecordingSink::new();
        let got = TraceBus::new()
            .sink("rec", &mut streamed)
            .run(&p, &mut NoHook)
            .unwrap_err();
        assert_eq!(got, want);
        assert_eq!(streamed.into_recording().iter().collect::<Vec<_>>(), serial);
    }

    /// Panics on the batch after `after` batches.
    struct PanicsAfter {
        after: u64,
    }

    impl TraceSink for PanicsAfter {
        fn consume_batch(&mut self, _: &EventBatch) {
            assert!(self.after > 0, "sink gave up");
            self.after -= 1;
        }
    }

    #[test]
    fn a_sink_panicking_after_the_handoff_panics_the_caller() {
        let p = long_program(100_000, false);
        let after = 2 * crate::handoff::HANDOFF_AFTER as u64;
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut sink = PanicsAfter { after };
            let _ = TraceBus::new()
                .sink("panics", &mut sink)
                .run(&p, &mut NoHook);
        }));
        let panic = caught.expect_err("the sink's panic reaches the caller");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"sink gave up"));
    }

    #[test]
    fn observed_bus_records_sink_tracks() {
        let p = sample_program();
        let (_run, recording) = record(&p);
        let trace = Arc::new(ObsTrace::new());
        let mut a = CountingSink::default();
        let mut b = CountingSink::default();
        let report = TraceBus::new()
            .observe(Arc::clone(&trace))
            .sink("a", &mut a)
            .sink("b", &mut b)
            .replay(&recording);
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
        for b in &cut(&p, 7) {
            let mut delivered = RecordingSink::new();
            delivered.consume_batch(b);
            let via_iter: Vec<Event> = b.iter().collect();
            assert_eq!(
                via_iter,
                delivered.into_recording().iter().collect::<Vec<_>>()
            );
            assert_eq!(b.iter().len(), b.len());
        }
    }

    #[test]
    fn clear_keeps_allocations_and_empties() {
        let p = sample_program();
        let mut b = cut(&p, 16).swap_remove(0);
        assert!(!b.is_empty());
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert_eq!(b.iter().next(), None);
    }

    #[test]
    fn zero_capacity_batcher_is_promoted_not_panicking() {
        let p = sample_program();
        let batches = cut(&p, 0);
        assert!(!batches.is_empty());
        let mut count = CountingSink::default();
        for b in &batches {
            assert_eq!(b.len(), 1, "zero capacity is promoted to 1");
            count.consume_batch(b);
        }
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
