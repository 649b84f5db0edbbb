//! The TEST comparator-bank array (paper §4.2, §5.2, Figure 7).
//!
//! [`TestTracer`] consumes the trace-event stream of a sequentially
//! executing annotated program and runs two analyses per active STL:
//!
//! * **Load dependency analysis** (§4.2.1, Figure 3): every load looks
//!   up the previous store timestamp for its word; the unique
//!   comparator bank for which that store lies in an *earlier thread of
//!   the same loop entry* records a dependency arc, binned `t-1` /
//!   `<t-1`, keeping only the shortest (critical) arc per thread.
//! * **Speculative-state overflow analysis** (§4.2.2, Figure 4): every
//!   heap access consults a direct-mapped cache-line timestamp table;
//!   lines not yet touched by the current thread bump per-bank line
//!   counters, which are checked against the Table 1 buffer limits.
//!
//! Banks are allocated at `sloop` (outermost loops win by arriving
//! first) and freed at `eloop`; when no bank — or no room in the
//! local-variable timestamp table — is available, the loop entry goes
//! untraced, exactly as the paper's hardware degrades (§5.2).
//!
//! # The per-event path
//!
//! In hardware the banks watch every event for free; here they are
//! the code that runs on every event, so that path walks no ordered
//! map and keeps no slot bookkeeping:
//!
//! * **The banks are a stack.** Live banks sit in loop-stack order,
//!   one per stack entry that holds one. Only the innermost live bank
//!   is ever released (`eoi` under the adaptive policy) or closed
//!   (`eloop`), and nothing observes which hardware slot a bank would
//!   occupy — only how many are live — so allocation is a push and a
//!   release a pop.
//! * **Per-loop statistics are resolved at `sloop`.** Each loop's
//!   counters live in a dense table; `sloop` looks the loop's slot up
//!   once and the stack entry carries it, so `eoi` and `eloop` index
//!   the table. Self-profiling attribution counts there too.
//! * **The store-timestamp FIFO has a last-line register** in front
//!   of its index, so runs of accesses to one line skip the hash.
//! * **The line tables are zero-filled** (tag + 1 beside the
//!   timestamp), so even the 2²⁰-entry tables of
//!   [`TracerConfig::unbounded`] cost only the pages a run touches.
//!
//! On the 26 Default profiling streams (7.0 M events, a shared 2-vCPU
//! host, median of 10 alternating rounds) this took the tracer alone
//! from 35.2 to 21.5 ns/event, and decoding plus tracing a recording
//! from 49.8 to 35.9.

use crate::buffers::{LineTimestampTable, LocalVarTimestamps, StoreTimestampFifo};
use crate::config::TracerConfig;
use crate::pcbins::PcBins;
use crate::stats::{Profile, StlStats};
use obs::{Trace as ObsTrace, TrackId};
use std::collections::BTreeMap;
use std::sync::Arc;
use tvm::isa::{LoopId, Pc};
use tvm::line_of;
use tvm::trace::{Addr, Cycles, TraceSink};

/// Per-STL-activation comparator-bank state (Figure 7).
#[derive(Debug, Clone)]
struct Bank {
    loop_id: LoopId,
    /// Which `lwl`/`swl` slots belong to *this* loop's tracked set.
    /// A variable can be a privatizable inductor or reduction for an
    /// inner loop while being a genuine dependency for an enclosing
    /// one; the annotation stream is shared, so the compiler installs
    /// a per-loop slot mask when it creates the annotated code and the
    /// bank ignores foreign slots. Defaults to all-ones when the
    /// runtime provides no mask.
    local_mask: u64,
    /// Thread start timestamp (0): the loop entry time. Stores older
    /// than this are loop-invariant inputs, not inter-thread arcs.
    entry_start: Cycles,
    /// Thread start timestamp (t).
    thread_start: Cycles,
    /// Thread start timestamp (t-1).
    prev_thread_start: Cycles,
    // ---- per-thread state, reset at every eoi ----
    min_arc_t1: Option<Cycles>,
    min_arc_lt: Option<Cycles>,
    ld_lines: u32,
    st_lines: u32,
    overflowed: bool,
    /// consecutive overflowing threads (adaptive release policy)
    consecutive_overflows: u64,
}

impl Bank {
    fn new(loop_id: LoopId, now: Cycles, local_mask: u64) -> Bank {
        Bank {
            loop_id,
            local_mask,
            entry_start: now,
            thread_start: now,
            prev_thread_start: now,
            min_arc_t1: None,
            min_arc_lt: None,
            ld_lines: 0,
            st_lines: 0,
            overflowed: false,
            consecutive_overflows: 0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct StackEntry {
    loop_id: LoopId,
    /// The loop's index in [`TestTracer::loops`], resolved at `sloop`.
    slot: usize,
    /// Whether this entry holds a live bank: the bank stack holds one
    /// bank per such entry, in stack order.
    bank: bool,
    activation: u32,
    /// set when the adaptive policy released this entry's bank: the
    /// runtime still knows the `sloop` time, so the loop's inclusive
    /// cycles are accounted at `eloop` as usual
    released_entry: Option<Cycles>,
}

/// Everything the tracer accumulates for one loop.
#[derive(Debug, Clone)]
struct LoopSlot {
    id: LoopId,
    stats: StlStats,
    /// Events attributed to this loop as the innermost active one, up
    /// to the last attribution flush.
    analyzer_events: u64,
}

/// Self-profiling sample stream (see [`TestTracer::set_obs`]).
#[derive(Debug)]
struct ObsHook {
    trace: Arc<ObsTrace>,
    track: TrackId,
    sample_every: u64,
}

/// The counter-series name for one attribution key.
fn attr_series(l: Option<LoopId>) -> String {
    match l {
        Some(l) => format!("analyzer.{l}"),
        None => "analyzer.outside".to_string(),
    }
}

/// The hardware tracer. Implements [`TraceSink`]; feed it by running an
/// annotated program through [`tvm::Interp`], then harvest results with
/// [`TestTracer::into_profile`].
#[derive(Debug)]
pub struct TestTracer {
    cfg: TracerConfig,
    fifo: StoreTimestampFifo,
    ld_table: LineTimestampTable,
    st_table: LineTimestampTable,
    locals: LocalVarTimestamps,
    /// The live comparator banks, innermost last.
    banks: Vec<Bank>,
    stack: Vec<StackEntry>,
    local_masks: BTreeMap<LoopId, u64>,
    /// Per-loop state in first-`sloop` order; `slot_of` indexes it and
    /// is consulted only at `sloop`.
    loops: Vec<LoopSlot>,
    slot_of: BTreeMap<LoopId, usize>,
    forest_edges: BTreeMap<(Option<LoopId>, LoopId), u64>,
    pc_bins: PcBins,
    max_dynamic_depth: u32,
    events: u64,
    end_time: Cycles,
    last_ld_line: Option<u32>,
    last_st_line: Option<u32>,
    // ---- self-profiling ----
    /// slot of the innermost active loop (`None` = outside any loop)
    cur_slot: Option<usize>,
    /// events attributed outside any loop, up to the last flush
    outside_events: u64,
    /// `events` at the last attribution flush: the events since then
    /// belong to `cur_slot`, so the per-event cost stays the one
    /// increment of `events`
    attr_mark: u64,
    fifo_depth_watermark: u64,
    bank_watermark: u64,
    obs: Option<ObsHook>,
}

impl TestTracer {
    /// Creates a tracer with the given hardware configuration.
    pub fn new(cfg: TracerConfig) -> TestTracer {
        TestTracer {
            cfg,
            fifo: StoreTimestampFifo::new(cfg.store_ts_lines),
            ld_table: LineTimestampTable::new(cfg.ld_table_entries),
            st_table: LineTimestampTable::new(cfg.st_table_entries),
            locals: LocalVarTimestamps::new(cfg.local_var_capacity),
            banks: Vec::new(),
            stack: Vec::new(),
            local_masks: BTreeMap::new(),
            loops: Vec::new(),
            slot_of: BTreeMap::new(),
            forest_edges: BTreeMap::new(),
            pc_bins: PcBins::new(cfg.pc_bin_capacity),
            max_dynamic_depth: 0,
            events: 0,
            end_time: 0,
            last_ld_line: None,
            last_st_line: None,
            cur_slot: None,
            outside_events: 0,
            attr_mark: 0,
            fifo_depth_watermark: 0,
            bank_watermark: 0,
            obs: None,
        }
    }

    /// Streams self-profiling samples into `trace` on a cycle-domain
    /// track named `tracer`: every `sample_every`-th event emits
    /// `fifo_depth`, `banks_in_use`, and the cumulative
    /// `analyzer.<loop>` count of the innermost active candidate;
    /// every predicted buffer overflow emits an `overflow <loop>`
    /// instant. [`TestTracer::into_profile`] flushes the final
    /// per-candidate `analyzer.*` counters at the profile end time, so
    /// their last samples sum to the profile's total event count.
    pub fn set_obs(&mut self, trace: Arc<ObsTrace>, sample_every: u64) {
        let track = trace.cycle_track("tracer");
        self.obs = Some(ObsHook {
            trace,
            track,
            sample_every: sample_every.max(1),
        });
    }

    /// Creates a tracer with the per-loop tracked-variable slot masks
    /// already installed (see [`TestTracer::set_local_masks`]).
    pub fn with_masks(
        cfg: TracerConfig,
        masks: impl IntoIterator<Item = (LoopId, u64)>,
    ) -> TestTracer {
        let mut t = TestTracer::new(cfg);
        t.set_local_masks(masks);
        t
    }

    /// Finalizes the run and returns everything collected.
    ///
    /// Any still-active loops (a program that halted mid-loop) are
    /// closed at the last observed event time.
    pub fn into_profile(mut self) -> Profile {
        let end = self.end_time;
        while let Some(top) = self.stack.last().copied() {
            self.close_loop(top.loop_id, end);
        }
        self.flush_attr();
        let mut analyzer_events: BTreeMap<Option<LoopId>, u64> = self
            .loops
            .iter()
            .filter(|l| l.analyzer_events > 0)
            .map(|l| (Some(l.id), l.analyzer_events))
            .collect();
        if self.outside_events > 0 {
            analyzer_events.insert(None, self.outside_events);
        }
        if let Some(hook) = &self.obs {
            for (&key, &count) in &analyzer_events {
                hook.trace
                    .counter_at(hook.track, &attr_series(key), end, count);
            }
        }
        Profile {
            stl: self.loops.iter().map(|l| (l.id, l.stats)).collect(),
            forest_edges: self.forest_edges,
            pc_bins: self.pc_bins,
            max_dynamic_depth: self.max_dynamic_depth,
            fifo_evictions: self.fifo.evictions(),
            events: self.events,
            end_time: end,
            analyzer_events,
            fifo_depth_watermark: self.fifo_depth_watermark,
            bank_watermark: self.bank_watermark,
        }
    }

    /// Banks currently holding a live loop entry.
    fn banks_in_use(&self) -> u64 {
        self.banks.len() as u64
    }

    /// The flushed attribution count of `slot` (`None` = outside).
    fn attributed(&mut self, slot: Option<usize>) -> &mut u64 {
        match slot {
            Some(s) => &mut self.loops[s].analyzer_events,
            None => &mut self.outside_events,
        }
    }

    /// Credits the events since the last flush to the innermost loop.
    fn flush_attr(&mut self) {
        let pending = self.events - self.attr_mark;
        self.attr_mark = self.events;
        *self.attributed(self.cur_slot) += pending;
    }

    /// The slot of `loop_id` in `loops`, created on its first `sloop`.
    fn slot(&mut self, loop_id: LoopId) -> usize {
        let loops = &mut self.loops;
        *self.slot_of.entry(loop_id).or_insert_with(|| {
            loops.push(LoopSlot {
                id: loop_id,
                stats: StlStats::default(),
                analyzer_events: 0,
            });
            loops.len() - 1
        })
    }

    /// Statistics for one loop, if it was ever traced.
    pub fn stats(&self, loop_id: LoopId) -> Option<&StlStats> {
        self.slot_of.get(&loop_id).map(|&s| &self.loops[s].stats)
    }

    /// Installs the per-loop tracked-variable slot mask the JIT
    /// computes when compiling annotations: bit `i` set means `lwl`/
    /// `swl` slot `i` belongs to this loop's own tracked set (it is
    /// not a privatizable inductor/reduction of the loop). Banks for
    /// loops without a mask consider every slot.
    pub fn set_local_mask(&mut self, loop_id: LoopId, mask: u64) {
        self.local_masks.insert(loop_id, mask);
    }

    /// Installs masks in bulk (see [`TestTracer::set_local_mask`]).
    pub fn set_local_masks(&mut self, masks: impl IntoIterator<Item = (LoopId, u64)>) {
        self.local_masks.extend(masks);
    }

    #[inline]
    fn tick(&mut self, now: Cycles) {
        self.events += 1;
        self.end_time = self.end_time.max(now);
        if let Some(hook) = &self.obs {
            if self.events.is_multiple_of(hook.sample_every) {
                self.sample(now);
            }
        }
    }

    /// Emits one self-profiling sample (see [`TestTracer::set_obs`]).
    #[cold]
    fn sample(&mut self, now: Cycles) {
        let cum = *self.attributed(self.cur_slot) + (self.events - self.attr_mark);
        let cur = self.cur_slot.map(|s| self.loops[s].id);
        let Some(hook) = &self.obs else { return };
        hook.trace
            .counter_at(hook.track, "fifo_depth", now, self.fifo.len() as u64);
        hook.trace
            .counter_at(hook.track, "banks_in_use", now, self.banks_in_use());
        hook.trace
            .counter_at(hook.track, &attr_series(cur), now, cum);
    }

    /// Load dependency analysis (§4.2.1): finds the unique active bank
    /// for which `ts` lies in an earlier thread of the current entry.
    /// For local-variable loads, `slot` carries the `lwl` operand so
    /// banks can skip variables outside their tracked mask.
    #[inline]
    fn dependency_check(&mut self, ts: Cycles, now: Cycles, pc: Pc, slot: Option<u16>) {
        for bank in self.banks.iter_mut().rev() {
            if let Some(v) = slot {
                if v < 64 && bank.local_mask & (1u64 << v) == 0 {
                    continue; // not this loop's variable
                }
            }
            if ts >= bank.thread_start {
                // same thread; enclosing loops see it intra-thread too
                return;
            }
            if ts >= bank.entry_start {
                let len = now - ts;
                let distant = ts < bank.prev_thread_start;
                let slot = if distant {
                    &mut bank.min_arc_lt
                } else {
                    &mut bank.min_arc_t1
                };
                *slot = Some(slot.map_or(len, |m: Cycles| m.min(len)));
                self.pc_bins.record(bank.loop_id, pc, len, distant);
                return;
            }
            // predates this loop entry: try the enclosing loop
        }
    }

    /// Overflow analysis, load side (§4.2.2).
    #[inline]
    fn overflow_load(&mut self, addr: Addr, now: Cycles) {
        let line = line_of(addr);
        if self.last_ld_line == Some(line) {
            return; // Figure 7's last-line register fast path
        }
        self.last_ld_line = Some(line);
        let old = self.ld_table.swap(line, now);
        let limit = self.cfg.ld_line_limit;
        for bank in &mut self.banks {
            if old.is_none_or(|t| t < bank.thread_start) {
                bank.ld_lines += 1;
                if bank.ld_lines > limit {
                    bank.overflowed = true;
                }
            }
        }
    }

    /// Overflow analysis, store side.
    #[inline]
    fn overflow_store(&mut self, addr: Addr, now: Cycles) {
        let line = line_of(addr);
        if self.last_st_line == Some(line) {
            return;
        }
        self.last_st_line = Some(line);
        let old = self.st_table.swap(line, now);
        let limit = self.cfg.st_line_limit;
        for bank in &mut self.banks {
            if old.is_none_or(|t| t < bank.thread_start) {
                bank.st_lines += 1;
                if bank.st_lines > limit {
                    bank.overflowed = true;
                }
            }
        }
    }

    /// Completes the current thread of the innermost bank, whose loop
    /// has stats slot `slot`. Returns `true` when the adaptive policy
    /// decides the bank should be released (it consistently predicts
    /// buffer overflows, so deeper loops deserve the hardware — paper
    /// §5.2).
    #[inline]
    fn finish_thread(&mut self, slot: usize, now: Cycles) -> bool {
        let cfg_release = self.cfg.overflow_release_threads;
        let bank = self.banks.last_mut().expect("the top entry holds a bank");
        let s = &mut self.loops[slot].stats;
        s.threads += 1;
        if let Some(a) = bank.min_arc_t1.take() {
            s.arcs_t1 += 1;
            s.arc_len_sum_t1 += a;
        }
        if let Some(a) = bank.min_arc_lt.take() {
            s.arcs_lt += 1;
            s.arc_len_sum_lt += a;
        }
        if bank.overflowed {
            s.overflow_threads += 1;
            bank.consecutive_overflows += 1;
            if let Some(hook) = &self.obs {
                hook.trace
                    .instant_at(hook.track, &format!("overflow {}", bank.loop_id), now);
            }
        } else {
            bank.consecutive_overflows = 0;
        }
        s.max_ld_lines = s.max_ld_lines.max(bank.ld_lines);
        s.max_st_lines = s.max_st_lines.max(bank.st_lines);
        let size = now.saturating_sub(bank.thread_start);
        s.thread_size_sum += size;
        s.thread_size_sq_sum += u128::from(size) * u128::from(size);
        bank.prev_thread_start = bank.thread_start;
        bank.thread_start = now;
        bank.ld_lines = 0;
        bank.st_lines = 0;
        bank.overflowed = false;
        let release = cfg_release != 0 && bank.consecutive_overflows >= cfg_release;
        self.last_ld_line = None;
        self.last_st_line = None;
        release
    }

    fn close_loop(&mut self, loop_id: LoopId, now: Cycles) {
        while let Some(top) = self.stack.pop() {
            let entry_start = if top.bank {
                let bank = self.banks.pop().expect("a banked entry's bank is on top");
                self.locals.release(top.activation);
                Some(bank.entry_start)
            } else {
                top.released_entry
            };
            if let Some(start) = entry_start {
                self.loops[top.slot].stats.cycles += now.saturating_sub(start);
            }
            if top.loop_id == loop_id {
                break;
            }
        }
        self.last_ld_line = None;
        self.last_st_line = None;
        self.flush_attr();
        self.cur_slot = self.stack.last().map(|e| e.slot);
    }
}

impl TraceSink for TestTracer {
    #[inline]
    fn heap_load(&mut self, addr: Addr, now: Cycles, pc: Pc) {
        self.tick(now);
        if self.stack.is_empty() {
            return;
        }
        if let Some(ts) = self.fifo.lookup(addr) {
            self.dependency_check(ts, now, pc, None);
        }
        self.overflow_load(addr, now);
    }

    #[inline]
    fn heap_store(&mut self, addr: Addr, now: Cycles, pc: Pc) {
        self.tick(now);
        let _ = pc;
        // timestamps must be recorded even outside loops: a load in a
        // later-entered loop may consult them (and be filtered by its
        // entry timestamp)
        self.fifo.record(addr, now);
        self.fifo_depth_watermark = self.fifo_depth_watermark.max(self.fifo.len() as u64);
        if self.stack.is_empty() {
            return;
        }
        self.overflow_store(addr, now);
    }

    #[inline]
    fn local_load(&mut self, var: u16, activation: u32, now: Cycles, pc: Pc) {
        self.tick(now);
        if let Some(ts) = self.locals.lookup(activation, var) {
            self.dependency_check(ts, now, pc, Some(var));
        }
    }

    #[inline]
    fn local_store(&mut self, var: u16, activation: u32, now: Cycles, pc: Pc) {
        self.tick(now);
        let _ = pc;
        self.locals.record(activation, var, now);
    }

    fn loop_enter(&mut self, loop_id: LoopId, n_locals: u16, activation: u32, now: Cycles) {
        self.tick(now);
        // dynamic forest edge: nearest traced enclosing loop = the
        // innermost live bank
        let parent = self.banks.last().map(|b| b.loop_id);
        *self.forest_edges.entry((parent, loop_id)).or_insert(0) += 1;

        let slot = self.slot(loop_id);
        // adaptive annotation policy: enough data collected already
        let sufficient = self.cfg.sufficient_threads != 0
            && self.loops[slot].stats.threads >= self.cfg.sufficient_threads;
        let bank = !sufficient
            && self.banks.len() < self.cfg.n_banks
            && self.locals.reserve(activation, n_locals);
        let s = &mut self.loops[slot].stats;
        if bank {
            s.entries += 1;
            let mask = self.local_masks.get(&loop_id).copied().unwrap_or(u64::MAX);
            self.banks.push(Bank::new(loop_id, now, mask));
        } else {
            s.untraced_entries += 1;
        }
        self.stack.push(StackEntry {
            loop_id,
            slot,
            bank,
            activation,
            released_entry: None,
        });
        self.max_dynamic_depth = self.max_dynamic_depth.max(self.stack.len() as u32);
        self.last_ld_line = None;
        self.last_st_line = None;
        self.bank_watermark = self.bank_watermark.max(self.banks_in_use());
        self.flush_attr();
        self.cur_slot = Some(slot);
    }

    #[inline]
    fn loop_iter(&mut self, loop_id: LoopId, now: Cycles) {
        self.tick(now);
        let Some(&top) = self.stack.last() else {
            return;
        };
        if top.loop_id != loop_id {
            return; // stray eoi from an untraced structure; ignore
        }
        if top.bank && self.finish_thread(top.slot, now) {
            // release the bank for deeper loops; the runtime keeps
            // the sloop time so the loop's inclusive cycles are
            // still accounted at eloop
            let bank = self.banks.pop().expect("the top entry holds a bank");
            let entry = self.stack.last_mut().expect("top exists");
            entry.bank = false;
            entry.released_entry = Some(bank.entry_start);
            self.locals.release(entry.activation);
        }
    }

    fn loop_exit(&mut self, loop_id: LoopId, now: Cycles) {
        self.tick(now);
        if self.stack.iter().any(|e| e.loop_id == loop_id) {
            self.close_loop(loop_id, now);
        }
    }

    #[inline]
    fn stats_read(&mut self, _loop_id: LoopId, now: Cycles) {
        self.tick(now);
    }
}

/// The tracer as it was before its per-event path lost its maps —
/// banks in fixed slots found through an occupancy bitmap, per-loop
/// statistics in an ordered map looked up on every thread boundary,
/// `Option` slots in the line tables, and the std-hashed FIFO of
/// `buffers::reference` — kept verbatim, less its
/// self-profiling hook, as the executable specification of
/// [`TestTracer`]. The differential property in `tests` requires the
/// two to build equal profiles.
#[cfg(test)]
mod reference {
    use crate::buffers::reference::StoreTimestampFifo;
    use crate::buffers::LocalVarTimestamps;
    use crate::config::TracerConfig;
    use crate::pcbins::PcBins;
    use crate::stats::{Profile, StlStats};
    use std::collections::BTreeMap;
    use tvm::isa::{LoopId, Pc};
    use tvm::line_of;
    use tvm::trace::{Addr, Cycles, TraceSink};

    /// The direct-mapped line table as it was: one `Option` per slot.
    #[derive(Debug, Clone)]
    struct LineTimestampTable {
        mask: u32,
        entries: Vec<Option<(u32, Cycles)>>, // (tag, timestamp)
    }

    impl LineTimestampTable {
        fn new(entries: usize) -> Self {
            LineTimestampTable {
                mask: entries as u32 - 1,
                entries: vec![None; entries],
            }
        }

        fn swap(&mut self, line: u32, now: Cycles) -> Option<Cycles> {
            let idx = (line & self.mask) as usize;
            let tag = line >> self.mask.trailing_ones();
            let old = match self.entries[idx] {
                Some((t, ts)) if t == tag => Some(ts),
                _ => None,
            };
            self.entries[idx] = Some((tag, now));
            old
        }
    }

    /// Per-STL-activation comparator-bank state (Figure 7).
    #[derive(Debug, Clone)]
    struct Bank {
        loop_id: LoopId,
        /// Which `lwl`/`swl` slots belong to *this* loop's tracked set.
        /// A variable can be a privatizable inductor or reduction for an
        /// inner loop while being a genuine dependency for an enclosing
        /// one; the annotation stream is shared, so the compiler installs
        /// a per-loop slot mask when it creates the annotated code and the
        /// bank ignores foreign slots. Defaults to all-ones when the
        /// runtime provides no mask.
        local_mask: u64,
        /// Thread start timestamp (0): the loop entry time. Stores older
        /// than this are loop-invariant inputs, not inter-thread arcs.
        entry_start: Cycles,
        /// Thread start timestamp (t).
        thread_start: Cycles,
        /// Thread start timestamp (t-1).
        prev_thread_start: Cycles,
        // ---- per-thread state, reset at every eoi ----
        min_arc_t1: Option<Cycles>,
        min_arc_lt: Option<Cycles>,
        ld_lines: u32,
        st_lines: u32,
        overflowed: bool,
        /// consecutive overflowing threads (adaptive release policy)
        consecutive_overflows: u64,
    }

    impl Bank {
        fn new(loop_id: LoopId, now: Cycles, local_mask: u64) -> Bank {
            Bank {
                loop_id,
                local_mask,
                entry_start: now,
                thread_start: now,
                prev_thread_start: now,
                min_arc_t1: None,
                min_arc_lt: None,
                ld_lines: 0,
                st_lines: 0,
                overflowed: false,
                consecutive_overflows: 0,
            }
        }
    }

    #[derive(Debug, Clone, Copy)]
    struct StackEntry {
        loop_id: LoopId,
        bank: Option<usize>,
        activation: u32,
        /// set when the adaptive policy released this entry's bank: the
        /// runtime still knows the `sloop` time, so the loop's inclusive
        /// cycles are accounted at `eloop` as usual
        released_entry: Option<Cycles>,
    }

    #[derive(Debug)]
    pub(super) struct TestTracer {
        cfg: TracerConfig,
        fifo: StoreTimestampFifo,
        ld_table: LineTimestampTable,
        st_table: LineTimestampTable,
        locals: LocalVarTimestamps,
        banks: Vec<Option<Bank>>,
        stack: Vec<StackEntry>,
        /// Bank indices of the stack entries that still hold a live bank,
        /// in stack order — the dependency/overflow walks iterate this
        /// instead of scanning (and skipping) the full loop stack.
        /// Invariant: `banked == stack.iter().filter_map(|e| e.bank)`.
        banked: Vec<usize>,
        /// Occupancy bitmap over the first 64 comparator banks (bit i set
        /// = `banks[i]` is live); lets `loop_enter` find the lowest free
        /// bank with one bit scan instead of a linear probe.
        bank_occ: u64,
        local_masks: BTreeMap<LoopId, u64>,
        stl: BTreeMap<LoopId, StlStats>,
        forest_edges: BTreeMap<(Option<LoopId>, LoopId), u64>,
        pc_bins: PcBins,
        max_dynamic_depth: u32,
        events: u64,
        end_time: Cycles,
        last_ld_line: Option<u32>,
        last_st_line: Option<u32>,
        // ---- self-profiling ----
        /// attribution key of the innermost active loop (`None` = outside)
        cur_loop: Option<LoopId>,
        /// events attributed to `cur_loop` since the last stack change;
        /// flushed to `analyzer_events` whenever the innermost loop changes
        /// so the per-event cost stays a plain increment
        cur_attr: u64,
        analyzer_events: BTreeMap<Option<LoopId>, u64>,
        fifo_depth_watermark: u64,
        bank_watermark: u64,
    }

    impl TestTracer {
        pub(super) fn new(cfg: TracerConfig) -> TestTracer {
            TestTracer {
                cfg,
                fifo: StoreTimestampFifo::new(cfg.store_ts_lines),
                ld_table: LineTimestampTable::new(cfg.ld_table_entries),
                st_table: LineTimestampTable::new(cfg.st_table_entries),
                locals: LocalVarTimestamps::new(cfg.local_var_capacity),
                banks: vec![None; cfg.n_banks],
                stack: Vec::new(),
                banked: Vec::new(),
                bank_occ: 0,
                local_masks: BTreeMap::new(),
                stl: BTreeMap::new(),
                forest_edges: BTreeMap::new(),
                pc_bins: PcBins::new(cfg.pc_bin_capacity),
                max_dynamic_depth: 0,
                events: 0,
                end_time: 0,
                last_ld_line: None,
                last_st_line: None,
                cur_loop: None,
                cur_attr: 0,
                analyzer_events: BTreeMap::new(),
                fifo_depth_watermark: 0,
                bank_watermark: 0,
            }
        }

        pub(super) fn into_profile(mut self) -> Profile {
            let end = self.end_time;
            while let Some(top) = self.stack.last().copied() {
                self.close_loop(top.loop_id, end);
            }
            self.flush_attr();
            Profile {
                stl: self.stl,
                forest_edges: self.forest_edges,
                pc_bins: self.pc_bins,
                max_dynamic_depth: self.max_dynamic_depth,
                fifo_evictions: self.fifo.evictions(),
                events: self.events,
                end_time: end,
                analyzer_events: self.analyzer_events,
                fifo_depth_watermark: self.fifo_depth_watermark,
                bank_watermark: self.bank_watermark,
            }
        }

        /// Banks currently holding a live loop entry.
        fn banks_in_use(&self) -> u64 {
            self.banked.len() as u64
        }

        /// Lowest free comparator-bank index, via the occupancy bitmap for
        /// the first 64 banks and a linear probe past them. Matches the
        /// order of a full `position(|b| b.is_none())` scan exactly.
        fn free_bank(&self) -> Option<usize> {
            let n = self.banks.len();
            let small = n.min(64);
            let mask = if small == 64 {
                u64::MAX
            } else {
                (1u64 << small) - 1
            };
            let free = !self.bank_occ & mask;
            if free != 0 {
                return Some(free.trailing_zeros() as usize);
            }
            if n > 64 {
                return self.banks[64..]
                    .iter()
                    .position(|b| b.is_none())
                    .map(|i| i + 64);
            }
            None
        }

        /// Keeps the occupancy bitmap in sync with `banks[idx]`.
        #[inline]
        fn mark_bank(&mut self, idx: usize, occupied: bool) {
            if idx < 64 {
                if occupied {
                    self.bank_occ |= 1u64 << idx;
                } else {
                    self.bank_occ &= !(1u64 << idx);
                }
            }
        }

        /// Drops the released bank `bi` — which must be the innermost live
        /// bank — from the banked-stack list and the occupancy bitmap.
        #[inline]
        fn unbank_top(&mut self, bi: usize) {
            let popped = self.banked.pop();
            debug_assert_eq!(popped, Some(bi), "released bank is the innermost");
            self.mark_bank(bi, false);
        }

        /// Moves the pending attribution count into the per-loop map.
        fn flush_attr(&mut self) {
            if self.cur_attr > 0 {
                *self.analyzer_events.entry(self.cur_loop).or_insert(0) += self.cur_attr;
                self.cur_attr = 0;
            }
        }

        pub(super) fn set_local_masks(&mut self, masks: impl IntoIterator<Item = (LoopId, u64)>) {
            self.local_masks.extend(masks);
        }

        fn tick(&mut self, now: Cycles) {
            self.events += 1;
            self.end_time = self.end_time.max(now);
            self.cur_attr += 1;
        }

        /// Load dependency analysis (§4.2.1): finds the unique active bank
        /// for which `ts` lies in an earlier thread of the current entry.
        /// For local-variable loads, `slot` carries the `lwl` operand so
        /// banks can skip variables outside their tracked mask.
        fn dependency_check(&mut self, ts: Cycles, now: Cycles, pc: Pc, slot: Option<u16>) {
            debug_assert!(self
                .banked
                .iter()
                .copied()
                .eq(self.stack.iter().filter_map(|e| e.bank)));
            for i in (0..self.banked.len()).rev() {
                let bi = self.banked[i];
                let bank = self.banks[bi].as_mut().expect("banked index is live");
                if let Some(v) = slot {
                    if v < 64 && bank.local_mask & (1u64 << v) == 0 {
                        continue; // not this loop's variable
                    }
                }
                if ts >= bank.thread_start {
                    // same thread; enclosing loops see it intra-thread too
                    return;
                }
                if ts >= bank.entry_start {
                    let len = now - ts;
                    let distant = ts < bank.prev_thread_start;
                    let slot = if distant {
                        &mut bank.min_arc_lt
                    } else {
                        &mut bank.min_arc_t1
                    };
                    *slot = Some(slot.map_or(len, |m: Cycles| m.min(len)));
                    self.pc_bins.record(bank.loop_id, pc, len, distant);
                    return;
                }
                // predates this loop entry: try the enclosing loop
            }
        }

        /// Overflow analysis, load side (§4.2.2).
        fn overflow_load(&mut self, addr: Addr, now: Cycles) {
            let line = line_of(addr);
            if self.last_ld_line == Some(line) {
                return; // Figure 7's last-line register fast path
            }
            self.last_ld_line = Some(line);
            let old = self.ld_table.swap(line, now);
            for i in 0..self.banked.len() {
                let bi = self.banked[i];
                let bank = self.banks[bi].as_mut().expect("banked index is live");
                if old.is_none_or(|t| t < bank.thread_start) {
                    bank.ld_lines += 1;
                    if bank.ld_lines > self.cfg.ld_line_limit {
                        bank.overflowed = true;
                    }
                }
            }
        }

        /// Overflow analysis, store side.
        fn overflow_store(&mut self, addr: Addr, now: Cycles) {
            let line = line_of(addr);
            if self.last_st_line == Some(line) {
                return;
            }
            self.last_st_line = Some(line);
            let old = self.st_table.swap(line, now);
            for i in 0..self.banked.len() {
                let bi = self.banked[i];
                let bank = self.banks[bi].as_mut().expect("banked index is live");
                if old.is_none_or(|t| t < bank.thread_start) {
                    bank.st_lines += 1;
                    if bank.st_lines > self.cfg.st_line_limit {
                        bank.overflowed = true;
                    }
                }
            }
        }

        /// Completes the current thread of a bank. Returns `true` when the
        /// adaptive policy decides the bank should be released (it
        /// consistently predicts buffer overflows, so deeper loops deserve
        /// the hardware — paper §5.2).
        fn finish_thread(&mut self, bank_idx: usize, now: Cycles) -> bool {
            let cfg_release = self.cfg.overflow_release_threads;
            let bank = self.banks[bank_idx].as_mut().expect("bank is live");
            let s = self
                .stl
                .get_mut(&bank.loop_id)
                .expect("bank loops always have stats");
            s.threads += 1;
            if let Some(a) = bank.min_arc_t1.take() {
                s.arcs_t1 += 1;
                s.arc_len_sum_t1 += a;
            }
            if let Some(a) = bank.min_arc_lt.take() {
                s.arcs_lt += 1;
                s.arc_len_sum_lt += a;
            }
            if bank.overflowed {
                s.overflow_threads += 1;
                bank.consecutive_overflows += 1;
            } else {
                bank.consecutive_overflows = 0;
            }
            s.max_ld_lines = s.max_ld_lines.max(bank.ld_lines);
            s.max_st_lines = s.max_st_lines.max(bank.st_lines);
            let size = now.saturating_sub(bank.thread_start);
            s.thread_size_sum += size;
            s.thread_size_sq_sum += u128::from(size) * u128::from(size);
            bank.prev_thread_start = bank.thread_start;
            bank.thread_start = now;
            bank.ld_lines = 0;
            bank.st_lines = 0;
            bank.overflowed = false;
            let release = cfg_release != 0 && bank.consecutive_overflows >= cfg_release;
            self.last_ld_line = None;
            self.last_st_line = None;
            release
        }

        fn close_loop(&mut self, loop_id: LoopId, now: Cycles) {
            while let Some(top) = self.stack.pop() {
                let entry_start = if let Some(bi) = top.bank {
                    let bank = self.banks[bi].take().expect("stack bank is live");
                    self.unbank_top(bi);
                    self.locals.release(top.activation);
                    Some(bank.entry_start)
                } else {
                    top.released_entry
                };
                if let Some(start) = entry_start {
                    let s = self
                        .stl
                        .get_mut(&top.loop_id)
                        .expect("traced loops always have stats");
                    s.cycles += now.saturating_sub(start);
                }
                if top.loop_id == loop_id {
                    break;
                }
            }
            self.last_ld_line = None;
            self.last_st_line = None;
            self.flush_attr();
            self.cur_loop = self.stack.last().map(|e| e.loop_id);
        }
    }

    impl TraceSink for TestTracer {
        fn heap_load(&mut self, addr: Addr, now: Cycles, pc: Pc) {
            self.tick(now);
            if self.stack.is_empty() {
                return;
            }
            if let Some(ts) = self.fifo.lookup(addr) {
                self.dependency_check(ts, now, pc, None);
            }
            self.overflow_load(addr, now);
        }

        fn heap_store(&mut self, addr: Addr, now: Cycles, pc: Pc) {
            self.tick(now);
            let _ = pc;
            // timestamps must be recorded even outside loops: a load in a
            // later-entered loop may consult them (and be filtered by its
            // entry timestamp)
            self.fifo.record(addr, now);
            self.fifo_depth_watermark = self.fifo_depth_watermark.max(self.fifo.len() as u64);
            if self.stack.is_empty() {
                return;
            }
            self.overflow_store(addr, now);
        }

        fn local_load(&mut self, var: u16, activation: u32, now: Cycles, pc: Pc) {
            self.tick(now);
            if let Some(ts) = self.locals.lookup(activation, var) {
                self.dependency_check(ts, now, pc, Some(var));
            }
        }

        fn local_store(&mut self, var: u16, activation: u32, now: Cycles, pc: Pc) {
            self.tick(now);
            let _ = pc;
            self.locals.record(activation, var, now);
        }

        fn loop_enter(&mut self, loop_id: LoopId, n_locals: u16, activation: u32, now: Cycles) {
            self.tick(now);
            // dynamic forest edge: nearest traced enclosing loop = the
            // innermost live bank
            let parent = self.banked.last().map(|&bi| {
                self.banks[bi]
                    .as_ref()
                    .expect("banked index is live")
                    .loop_id
            });
            *self.forest_edges.entry((parent, loop_id)).or_insert(0) += 1;

            // adaptive annotation policy: enough data collected already
            let sufficient = self.cfg.sufficient_threads != 0
                && self
                    .stl
                    .get(&loop_id)
                    .is_some_and(|s| s.threads >= self.cfg.sufficient_threads);
            let free = if sufficient { None } else { self.free_bank() };
            let bank = match free {
                Some(slot) if self.locals.reserve(activation, n_locals) => {
                    let mask = self.local_masks.get(&loop_id).copied().unwrap_or(u64::MAX);
                    self.banks[slot] = Some(Bank::new(loop_id, now, mask));
                    self.banked.push(slot);
                    self.mark_bank(slot, true);
                    let s = self.stl.entry(loop_id).or_default();
                    s.entries += 1;
                    Some(slot)
                }
                _ => {
                    self.stl.entry(loop_id).or_default().untraced_entries += 1;
                    None
                }
            };
            self.stack.push(StackEntry {
                loop_id,
                bank,
                activation,
                released_entry: None,
            });
            self.max_dynamic_depth = self.max_dynamic_depth.max(self.stack.len() as u32);
            self.last_ld_line = None;
            self.last_st_line = None;
            self.bank_watermark = self.bank_watermark.max(self.banks_in_use());
            self.flush_attr();
            self.cur_loop = Some(loop_id);
        }

        fn loop_iter(&mut self, loop_id: LoopId, now: Cycles) {
            self.tick(now);
            let Some(top) = self.stack.last().copied() else {
                return;
            };
            if top.loop_id != loop_id {
                return; // stray eoi from an untraced structure; ignore
            }
            if let Some(bi) = top.bank {
                if self.finish_thread(bi, now) {
                    // release the bank for deeper loops; the runtime keeps
                    // the sloop time so the loop's inclusive cycles are
                    // still accounted at eloop
                    let bank = self.banks[bi].take().expect("bank is live");
                    self.unbank_top(bi);
                    let entry = self.stack.last_mut().expect("top exists");
                    entry.bank = None;
                    entry.released_entry = Some(bank.entry_start);
                    self.locals.release(entry.activation);
                }
            }
        }

        fn loop_exit(&mut self, loop_id: LoopId, now: Cycles) {
            self.tick(now);
            if self.stack.iter().any(|e| e.loop_id == loop_id) {
                self.close_loop(loop_id, now);
            }
        }

        fn stats_read(&mut self, _loop_id: LoopId, now: Cycles) {
            self.tick(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm::bus::EventBatch;
    use tvm::isa::FuncId;
    use tvm::record::Event;

    const L0: LoopId = LoopId(0);
    const L1: LoopId = LoopId(1);

    fn pc(idx: u32) -> Pc {
        Pc {
            func: FuncId(0),
            idx,
        }
    }

    fn tracer() -> TestTracer {
        TestTracer::new(TracerConfig::default())
    }

    #[test]
    fn critical_arc_keeps_shortest() {
        let mut t = tracer();
        t.loop_enter(L0, 0, 0, 0);
        t.heap_store(0x100, 10, pc(1));
        t.heap_store(0x200, 30, pc(2));
        t.loop_iter(L0, 40);
        // two arcs into thread 2: lengths 40 (0x100) and 25 (0x200)
        t.heap_load(0x100, 50, pc(3));
        t.heap_load(0x200, 55, pc(4));
        t.loop_iter(L0, 60);
        t.loop_exit(L0, 61);
        let p = t.into_profile();
        let s = &p.stl[&L0];
        assert_eq!(s.threads, 2);
        assert_eq!(s.arcs_t1, 1, "one critical arc for the thread");
        assert_eq!(s.arc_len_sum_t1, 25, "the shorter arc wins");
    }

    #[test]
    fn pre_entry_stores_are_not_arcs() {
        let mut t = tracer();
        t.heap_store(0x100, 5, pc(0)); // before the loop
        t.loop_enter(L0, 0, 0, 10);
        t.loop_iter(L0, 20);
        t.heap_load(0x100, 25, pc(1)); // loop-invariant input
        t.loop_iter(L0, 30);
        t.loop_exit(L0, 31);
        let p = t.into_profile();
        let s = &p.stl[&L0];
        assert_eq!(s.arcs_t1 + s.arcs_lt, 0);
    }

    #[test]
    fn same_thread_store_load_is_not_an_arc() {
        let mut t = tracer();
        t.loop_enter(L0, 0, 0, 0);
        t.loop_iter(L0, 10);
        t.heap_store(0x100, 12, pc(0));
        t.heap_load(0x100, 15, pc(1)); // same thread
        t.loop_iter(L0, 20);
        t.loop_exit(L0, 21);
        let p = t.into_profile();
        assert_eq!(p.stl[&L0].arcs_t1, 0);
    }

    #[test]
    fn distant_arcs_go_to_the_lt_bin() {
        let mut t = tracer();
        t.loop_enter(L0, 0, 0, 0);
        t.heap_store(0x100, 5, pc(0)); // thread 1
        t.loop_iter(L0, 10);
        t.loop_iter(L0, 20); // thread 2: empty
        t.heap_load(0x100, 25, pc(1)); // thread 3 reads thread 1
        t.loop_iter(L0, 30);
        t.loop_exit(L0, 31);
        let p = t.into_profile();
        let s = &p.stl[&L0];
        assert_eq!(s.arcs_lt, 1);
        assert_eq!(s.arc_len_sum_lt, 20);
        assert_eq!(s.arcs_t1, 0);
    }

    #[test]
    fn local_variable_arcs_are_detected() {
        let mut t = tracer();
        t.loop_enter(L0, 2, 7, 0);
        t.local_store(1, 7, 8, pc(0));
        t.loop_iter(L0, 10);
        t.local_load(1, 7, 14, pc(1));
        t.loop_iter(L0, 20);
        t.loop_exit(L0, 21);
        let p = t.into_profile();
        let s = &p.stl[&L0];
        assert_eq!(s.arcs_t1, 1);
        assert_eq!(s.arc_len_sum_t1, 6);
    }

    #[test]
    fn nested_loops_attribute_arcs_to_the_unique_bank() {
        // store in outer iteration i (outside inner loop), load inside
        // inner loop of iteration i+1: the arc belongs to the OUTER loop
        let mut t = tracer();
        t.loop_enter(L0, 0, 0, 0);
        t.heap_store(0x300, 5, pc(0));
        t.loop_iter(L0, 10); // outer thread boundary
        t.loop_enter(L1, 0, 0, 12);
        t.heap_load(0x300, 15, pc(1));
        t.loop_iter(L1, 18);
        t.loop_exit(L1, 20);
        t.loop_iter(L0, 22);
        t.loop_exit(L0, 25);
        let p = t.into_profile();
        assert_eq!(p.stl[&L0].arcs_t1, 1);
        assert_eq!(p.stl[&L1].arcs_t1, 0);
        // and the dynamic forest saw the nesting
        assert_eq!(p.forest_edges[&(Some(L0), L1)], 1);
        assert_eq!(p.max_dynamic_depth, 2);
    }

    #[test]
    fn inner_loop_arc_is_intra_thread_for_outer() {
        let mut t = tracer();
        t.loop_enter(L0, 0, 0, 0);
        t.loop_enter(L1, 0, 0, 5);
        t.heap_store(0x300, 8, pc(0));
        t.loop_iter(L1, 10);
        t.heap_load(0x300, 12, pc(1)); // inner-loop carried
        t.loop_iter(L1, 15);
        t.loop_exit(L1, 16);
        t.loop_iter(L0, 20);
        t.loop_exit(L0, 22);
        let p = t.into_profile();
        assert_eq!(p.stl[&L1].arcs_t1, 1);
        assert_eq!(p.stl[&L0].arcs_t1, 0);
    }

    #[test]
    fn store_line_counting_and_overflow() {
        let cfg = TracerConfig {
            st_line_limit: 2,
            ..TracerConfig::default()
        };
        let mut t = TestTracer::new(cfg);
        t.loop_enter(L0, 0, 0, 0);
        t.loop_iter(L0, 1);
        // three distinct lines stored by one thread: exceeds limit 2
        t.heap_store(0x000, 2, pc(0));
        t.heap_store(0x020, 3, pc(0));
        t.heap_store(0x040, 4, pc(0));
        t.loop_iter(L0, 10);
        // one line only: fits
        t.heap_store(0x060, 12, pc(0));
        t.loop_iter(L0, 20);
        t.loop_exit(L0, 21);
        let p = t.into_profile();
        let s = &p.stl[&L0];
        assert_eq!(s.overflow_threads, 1);
        assert_eq!(s.max_st_lines, 3);
        assert_eq!(s.threads, 3);
    }

    #[test]
    fn repeated_access_to_one_line_counts_once() {
        let mut t = tracer();
        t.loop_enter(L0, 0, 0, 0);
        t.loop_iter(L0, 1);
        t.heap_load(0x100, 2, pc(0));
        t.heap_load(0x108, 3, pc(0)); // same line
        t.heap_load(0x118, 4, pc(0)); // same line
        t.loop_iter(L0, 10);
        t.loop_exit(L0, 11);
        let p = t.into_profile();
        assert_eq!(p.stl[&L0].max_ld_lines, 1);
    }

    #[test]
    fn line_reaccessed_across_threads_counts_again() {
        let mut t = tracer();
        t.loop_enter(L0, 0, 0, 0);
        t.heap_load(0x100, 2, pc(0));
        t.loop_iter(L0, 10);
        t.heap_load(0x100, 12, pc(0)); // new thread: counts anew
        t.loop_iter(L0, 20);
        t.loop_exit(L0, 21);
        let p = t.into_profile();
        assert_eq!(p.stl[&L0].max_ld_lines, 1);
        assert_eq!(p.stl[&L0].threads, 2);
    }

    #[test]
    fn bank_exhaustion_leaves_deep_loops_untraced() {
        let cfg = TracerConfig {
            n_banks: 1,
            ..TracerConfig::default()
        };
        let mut t = TestTracer::new(cfg);
        t.loop_enter(L0, 0, 0, 0);
        t.loop_enter(L1, 0, 0, 5); // no bank left
        t.loop_iter(L1, 8);
        t.loop_exit(L1, 10);
        t.loop_iter(L0, 12);
        t.loop_exit(L0, 15);
        let p = t.into_profile();
        assert_eq!(p.stl[&L0].entries, 1);
        assert_eq!(p.stl[&L1].entries, 0);
        assert_eq!(p.stl[&L1].untraced_entries, 1);
        assert_eq!(p.stl[&L1].threads, 0);
    }

    #[test]
    fn local_capacity_exhaustion_leaves_loop_untraced() {
        let cfg = TracerConfig {
            local_var_capacity: 2,
            ..TracerConfig::default()
        };
        let mut t = TestTracer::new(cfg);
        t.loop_enter(L0, 2, 1, 0); // fits exactly
        t.loop_enter(L1, 2, 9, 5); // different activation: no room
        t.loop_iter(L1, 8);
        t.loop_exit(L1, 10);
        t.loop_iter(L0, 12);
        t.loop_exit(L0, 15);
        let p = t.into_profile();
        assert_eq!(p.stl[&L0].entries, 1);
        assert_eq!(p.stl[&L1].untraced_entries, 1);
    }

    #[test]
    fn loop_cycles_accumulate_across_entries() {
        let mut t = tracer();
        t.loop_enter(L0, 0, 0, 0);
        t.loop_iter(L0, 10);
        t.loop_exit(L0, 12);
        t.loop_enter(L0, 0, 0, 100);
        t.loop_iter(L0, 130);
        t.loop_exit(L0, 134);
        let p = t.into_profile();
        let s = &p.stl[&L0];
        assert_eq!(s.entries, 2);
        assert_eq!(s.cycles, 12 + 34);
        assert_eq!(s.threads, 2);
    }

    #[test]
    fn unterminated_loop_is_closed_at_profile_end() {
        let mut t = tracer();
        t.loop_enter(L0, 0, 0, 0);
        t.loop_iter(L0, 50);
        // no eloop: program halted inside the loop
        let p = t.into_profile();
        assert_eq!(p.stl[&L0].cycles, 50);
    }

    #[test]
    fn fifo_eviction_hides_distant_dependencies() {
        // store history smaller than the working set: the arc is lost
        let cfg = TracerConfig {
            store_ts_lines: 2,
            ..TracerConfig::default()
        };
        let mut t = TestTracer::new(cfg);
        t.loop_enter(L0, 0, 0, 0);
        t.heap_store(0x100, 2, pc(0));
        t.heap_store(0x200, 3, pc(0));
        t.heap_store(0x300, 4, pc(0)); // evicts 0x100's line
        t.loop_iter(L0, 10);
        t.heap_load(0x100, 12, pc(1)); // real dep, invisible
        t.loop_iter(L0, 20);
        t.loop_exit(L0, 21);
        let p = t.into_profile();
        assert_eq!(p.stl[&L0].arcs_t1, 0);
        assert!(p.fifo_evictions > 0);
    }

    #[test]
    fn overflowing_bank_is_released_for_deeper_loops() {
        // one bank, outer loop overflowing every thread: after the
        // release threshold the inner loop finally gets traced
        let cfg = TracerConfig {
            n_banks: 1,
            st_line_limit: 1,
            overflow_release_threads: 2,
            ..TracerConfig::default()
        };
        let mut t = TestTracer::new(cfg);
        t.loop_enter(L0, 0, 0, 0);
        let mut now = 1;
        // two consecutive overflowing outer threads
        for _ in 0..2 {
            t.heap_store(0x000, now, pc(0));
            t.heap_store(0x020, now + 1, pc(0));
            t.heap_store(0x040, now + 2, pc(0));
            now += 10;
            t.loop_iter(L0, now);
        }
        // the bank is now free: a nested loop can claim it
        t.loop_enter(L1, 0, 0, now + 1);
        t.loop_iter(L1, now + 5);
        t.loop_exit(L1, now + 6);
        t.loop_iter(L0, now + 8);
        t.loop_exit(L0, now + 10);
        let p = t.into_profile();
        assert_eq!(p.stl[&L0].overflow_threads, 2);
        assert_eq!(p.stl[&L1].entries, 1, "inner loop must be traced");
        assert_eq!(p.stl[&L1].threads, 1);
    }

    #[test]
    fn sufficient_threads_stops_reallocation() {
        let cfg = TracerConfig {
            sufficient_threads: 2,
            ..TracerConfig::default()
        };
        let mut t = TestTracer::new(cfg);
        // first entry: two threads recorded
        t.loop_enter(L0, 0, 0, 0);
        t.loop_iter(L0, 10);
        t.loop_iter(L0, 20);
        t.loop_exit(L0, 21);
        // second entry: enough data, no bank allocated
        t.loop_enter(L0, 0, 0, 100);
        t.loop_iter(L0, 110);
        t.loop_exit(L0, 111);
        let p = t.into_profile();
        assert_eq!(p.stl[&L0].entries, 1);
        assert_eq!(p.stl[&L0].untraced_entries, 1);
        assert_eq!(p.stl[&L0].threads, 2);
    }

    #[test]
    fn analyzer_events_attribute_to_the_innermost_loop_and_sum_to_total() {
        let mut t = tracer();
        t.heap_store(0x500, 1, pc(0)); // outside any loop
        t.loop_enter(L0, 0, 0, 2); // sloop itself: still "outside"
        t.heap_store(0x100, 5, pc(1));
        t.loop_enter(L1, 0, 1, 6); // attributed to L0
        t.heap_load(0x100, 8, pc(2));
        t.loop_iter(L1, 9);
        t.loop_exit(L1, 10); // attributed to L1 (still on stack)
        t.loop_iter(L0, 12);
        t.loop_exit(L0, 14);
        t.heap_load(0x500, 20, pc(3)); // outside again
        let p = t.into_profile();
        let total: u64 = p.analyzer_events.values().sum();
        assert_eq!(total, p.events, "attribution partitions the stream");
        // sloop L0, first eloop fragment, and both pre/post events
        assert_eq!(p.analyzer_events[&None], 3);
        assert_eq!(p.analyzer_events[&Some(L0)], 4); // store, sloop L1, eoi, eloop L0
        assert_eq!(p.analyzer_events[&Some(L1)], 3); // load, eoi, eloop L1
    }

    #[test]
    fn watermarks_track_peak_structure_occupancy() {
        let mut t = tracer();
        t.loop_enter(L0, 0, 0, 0);
        t.loop_enter(L1, 0, 1, 1);
        t.heap_store(0x000, 2, pc(0));
        t.heap_store(0x100, 3, pc(0));
        t.loop_exit(L1, 5);
        t.loop_iter(L0, 6);
        t.loop_exit(L0, 8);
        let p = t.into_profile();
        assert_eq!(p.bank_watermark, 2, "both nested banks were live at once");
        assert_eq!(p.fifo_depth_watermark, 2, "two store lines buffered");
    }

    #[test]
    fn obs_hook_emits_samples_and_final_attribution_counters() {
        use obs::TrackEventKind;
        let trace = std::sync::Arc::new(obs::Trace::new());
        let mut t = tracer();
        t.set_obs(std::sync::Arc::clone(&trace), 2);
        t.loop_enter(L0, 0, 0, 0);
        t.heap_store(0x100, 2, pc(0));
        t.loop_iter(L0, 4);
        t.heap_load(0x100, 6, pc(1));
        t.loop_iter(L0, 8);
        t.loop_exit(L0, 9);
        let p = t.into_profile();

        let tracks = trace.tracks();
        assert_eq!(tracks.len(), 1);
        let track = &tracks[0];
        assert_eq!(track.name, "tracer");
        assert_eq!(track.domain, obs::TimeDomain::Cycles);
        let fifo_samples = track
            .events
            .iter()
            .filter(|e| matches!(&e.kind, TrackEventKind::Counter(n, _) if n == "fifo_depth"))
            .count();
        assert!(fifo_samples >= 2, "every 2nd event sampled");

        // the last analyzer.* counter per series matches the profile
        // and together they sum to the total event count
        let mut finals: BTreeMap<String, u64> = BTreeMap::new();
        for e in &track.events {
            if let TrackEventKind::Counter(name, v) = &e.kind {
                if name.starts_with("analyzer.") {
                    finals.insert(name.clone(), *v);
                }
            }
        }
        assert_eq!(finals.values().sum::<u64>(), p.events);
        assert_eq!(finals["analyzer.L0"], p.analyzer_events[&Some(L0)]);
    }

    #[test]
    fn self_profiling_does_not_perturb_analysis_results() {
        let feed = |t: &mut TestTracer| {
            t.loop_enter(L0, 0, 0, 0);
            t.heap_store(0x100, 10, pc(1));
            t.loop_iter(L0, 40);
            t.heap_load(0x100, 50, pc(3));
            t.loop_iter(L0, 60);
            t.loop_exit(L0, 61);
        };
        let mut plain = tracer();
        feed(&mut plain);
        let mut observed = tracer();
        observed.set_obs(std::sync::Arc::new(obs::Trace::new()), 1);
        feed(&mut observed);
        assert_eq!(plain.into_profile(), observed.into_profile());
    }

    #[test]
    fn pc_bins_record_consumer_sites() {
        let mut t = tracer();
        t.loop_enter(L0, 0, 0, 0);
        t.heap_store(0x100, 5, pc(3));
        t.loop_iter(L0, 10);
        t.heap_load(0x100, 12, pc(7));
        t.loop_iter(L0, 20);
        t.loop_exit(L0, 21);
        let p = t.into_profile();
        let hot = p.pc_bins.hottest(L0);
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].0, pc(7));
        assert_eq!(hot[0].1.count, 1);
    }

    /// A tiny configuration picked by the bits of `bits`: every
    /// structure at 0, 1 or 2 entries or a little more, so banks run
    /// out, FIFO lines and table slots are evicted, bins fill up and
    /// both adaptive policies fire within a few hundred events.
    fn tiny_config(bits: u64) -> TracerConfig {
        let pick = |shift: u32, options: &[u64]| {
            options[((bits >> shift) % options.len() as u64) as usize]
        };
        TracerConfig {
            n_banks: pick(0, &[0, 1, 2, 8]) as usize,
            store_ts_lines: pick(4, &[0, 1, 2, 192]) as usize,
            ld_table_entries: pick(8, &[1, 2, 64]) as usize,
            st_table_entries: pick(12, &[1, 2, 64]) as usize,
            local_var_capacity: pick(16, &[0, 2, 64]) as usize,
            ld_line_limit: pick(20, &[0, 1, 3, 512]) as u32,
            st_line_limit: pick(24, &[0, 1, 3, 64]) as u32,
            pc_bin_capacity: pick(28, &[0, 1, 4]) as usize,
            overflow_release_threads: pick(32, &[0, 1, 2]),
            sufficient_threads: pick(36, &[0, 1, 3]),
        }
    }

    /// A random event stream built from operand pairs: loops 0-3
    /// entered and left mostly in nesting order, with stray and
    /// out-of-order `eoi`/`eloop`; heap accesses to two words of a few
    /// lines, most often line 0, which lines 2, 64 and 4096 alias in
    /// the 1-, 2- and 64-entry tables; `lwl`/`swl` over three
    /// activations and slots past the 64-bit mask; and call events.
    /// Time never runs backwards and often stands still.
    fn random_stream(ops: &[(u32, u32)]) -> Vec<Event> {
        let mut now: Cycles = 0;
        let mut open: Vec<LoopId> = Vec::new();
        let mut events = Vec::with_capacity(ops.len());
        for &(a, b) in ops {
            now += Cycles::from(b % 4);
            let site = pc((b >> 2) % 8);
            let line = [0, 0, 0, 1, 1, 2, 64, 1 << 12][((a >> 4) % 8) as usize];
            let addr = line * 32 + ((a >> 10) % 2) * 8;
            let activation = (a >> 12) % 3;
            let var = [0, 1, 2, 3, 63, 64][((b >> 5) % 6) as usize];
            let named = LoopId((b >> 8) % 4);
            let target = match open.last() {
                Some(&top) if (b >> 10) % 8 != 0 => top,
                _ => named,
            };
            events.push(match a % 16 {
                0..=3 => Event::HeapLoad(addr, now, site),
                4..=6 => Event::HeapStore(addr, now, site),
                7 => Event::LocalLoad(var, activation, now, site),
                8 => Event::LocalStore(var, activation, now, site),
                9 => {
                    open.push(named);
                    let n_locals = [0, 0, 1, 3][((b >> 13) % 4) as usize];
                    Event::LoopEnter(named, n_locals, activation, now)
                }
                10..=12 => Event::LoopIter(target, now),
                13 => {
                    if let Some(i) = open.iter().rposition(|&l| l == target) {
                        open.truncate(i);
                    }
                    Event::LoopExit(target, now)
                }
                14 => Event::StatsRead(target, now),
                _ => match (b >> 15) % 3 {
                    0 => Event::CallEnter(site, activation, now),
                    1 => Event::CallExit(site, now),
                    _ => Event::CallResultUse(site, now),
                },
            });
        }
        events
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        #[test]
        fn tracer_matches_the_reference(
            cfg_bits in proptest::prelude::any::<u64>(),
            masks in proptest::collection::vec(proptest::prelude::any::<u64>(), 4..5),
            ops in proptest::collection::vec(
                (proptest::prelude::any::<u32>(), proptest::prelude::any::<u32>()),
                0..400,
            ),
        ) {
            let cfg = tiny_config(cfg_bits);
            // a mask for the loops whose top mask bit is clear; the
            // others trace every slot
            let masks: Vec<(LoopId, u64)> = (0u32..)
                .zip(&masks)
                .filter(|(_, &m)| m >> 63 == 0)
                .map(|(l, &m)| (LoopId(l), m))
                .collect();
            let events = random_stream(&ops);
            let mut spec = reference::TestTracer::new(cfg);
            spec.set_local_masks(masks.iter().copied());
            for &e in &events {
                e.deliver(&mut spec);
            }
            let mut t = TestTracer::with_masks(cfg, masks);
            for chunk in events.chunks(7) {
                let mut batch = EventBatch::with_capacity(chunk.len());
                for &e in chunk {
                    batch.push(e);
                }
                t.consume_batch(&batch);
            }
            proptest::prop_assert_eq!(t.into_profile(), spec.into_profile());
        }
    }
}
