//! Collection of per-iteration execution traces for selected STLs.
//!
//! After TEST selects decompositions, Jrpm recompiles them into
//! speculative threads. Our equivalent runs the program once more with
//! instrumentation on *only the selected loops* (the boundary markers
//! and communicated-local annotations the real speculative code
//! contains anyway) and records, per loop entry, each iteration's cycle
//! size and memory accesses. [`crate::sim`] replays those traces under
//! the TLS execution model.
//!
//! [`TlsTraceCollector`] appends every closed entry to its public
//! `entries`, so a caller can read a whole run (the fuzz oracle, the
//! benches and the tests do). The Jrpm pipeline instead drains
//! `entries` after every `loop_exit` and simulates each entry at once,
//! so its memory is bounded by the largest single entry.
//!
//! Local variables the speculative compiler *globalizes* (the
//! `lwl`/`swl`-annotated ones) are recorded as accesses to synthetic
//! per-variable addresses — in real Hydra they really do become memory
//! traffic through the speculative buffers.

use std::collections::{BTreeMap, BTreeSet};
use tvm::isa::{LoopId, Pc};
use tvm::trace::{Addr, Cycles, TraceSink};
use tvm::LINE_BYTES;

/// Kind of a recorded access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Load,
    /// A store.
    Store,
}

/// One recorded memory access within an iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Cycles since the iteration started.
    pub rel: u32,
    /// Byte address (synthetic for globalized locals).
    pub addr: Addr,
    /// Load or store.
    pub kind: AccessKind,
}

/// One speculative thread (= one loop iteration).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IterTrace {
    /// Sequential execution cycles of this iteration.
    pub cycles: u32,
    /// Accesses in execution order, so `rel` is nondecreasing: the
    /// collector stamps them from a cycle clock that only moves
    /// forward, and [`crate::sim::simulate_entry`] relies on it.
    pub accesses: Vec<Access>,
}

/// One dynamic entry of a selected loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryTrace {
    /// Which loop.
    pub loop_id: LoopId,
    /// Cycle at which the loop was entered.
    pub start: Cycles,
    /// The iterations, in order.
    pub iters: Vec<IterTrace>,
    /// Cycles spent after the last complete iteration (the exit
    /// fragment); executed serially at loop shutdown.
    pub tail_cycles: u32,
    /// Total sequential cycles of the entry (exit − enter).
    pub seq_cycles: u64,
}

/// Base of the synthetic address range used for globalized locals.
/// Each variable gets its own cache line, far above any heap address a
/// benchmark reaches.
pub const GLOBALIZED_LOCAL_BASE: Addr = 0xF800_0000;

/// Synthetic address of globalized local `var`.
pub fn globalized_local_addr(var: u16) -> Addr {
    GLOBALIZED_LOCAL_BASE + u32::from(var) * LINE_BYTES
}

struct ActiveEntry {
    loop_id: LoopId,
    entry_start: Cycles,
    iter_start: Cycles,
    iters: Vec<IterTrace>,
    current: IterTrace,
    /// nesting depth of non-target loops inside the target
    depth: u32,
    /// the loop's tracked-variable slot mask, looked up at entry
    local_mask: u64,
}

/// A [`TraceSink`] that records [`EntryTrace`]s for a set of target
/// loops. Targets must be non-nested (which Equation 2 selection
/// guarantees); a nested target entry while another target is active
/// is treated as ordinary nested work.
#[derive(Default)]
pub struct TlsTraceCollector {
    targets: BTreeSet<LoopId>,
    /// Per-loop tracked-variable slot masks: the speculative compiler
    /// only globalizes a loop's own tracked locals (inductors and
    /// reductions of the loop are privatized/transformed instead).
    local_masks: BTreeMap<LoopId, u64>,
    active: Option<ActiveEntry>,
    /// Completed entries, in observation order.
    pub entries: Vec<EntryTrace>,
}

impl std::fmt::Debug for TlsTraceCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TlsTraceCollector")
            .field("targets", &self.targets)
            .field("entries", &self.entries.len())
            .field("active", &self.active.is_some())
            .finish()
    }
}

impl TlsTraceCollector {
    /// Creates a collector for the given selected loops.
    pub fn new(targets: impl IntoIterator<Item = LoopId>) -> Self {
        TlsTraceCollector {
            targets: targets.into_iter().collect(),
            local_masks: BTreeMap::new(),
            active: None,
            entries: Vec::new(),
        }
    }

    /// Installs per-loop tracked-variable slot masks. A local access
    /// is recorded as globalized memory traffic only when its slot is
    /// in the active loop's mask.
    pub fn set_local_masks(&mut self, masks: impl IntoIterator<Item = (LoopId, u64)>) {
        self.local_masks.extend(masks);
    }

    /// Creates a collector with slot masks already installed.
    pub fn with_masks(
        targets: impl IntoIterator<Item = LoopId>,
        masks: impl IntoIterator<Item = (LoopId, u64)>,
    ) -> Self {
        let mut c = TlsTraceCollector::new(targets);
        c.set_local_masks(masks);
        c
    }

    fn local_in_mask(&self, var: u16) -> bool {
        self.active
            .as_ref()
            .is_some_and(|a| var < 64 && a.local_mask & (1u64 << var) != 0)
    }

    fn record(&mut self, addr: Addr, kind: AccessKind, now: Cycles) {
        if let Some(a) = self.active.as_mut() {
            a.current.accesses.push(Access {
                rel: now.saturating_sub(a.iter_start) as u32,
                addr,
                kind,
            });
        }
    }
}

impl TraceSink for TlsTraceCollector {
    fn heap_load(&mut self, addr: Addr, now: Cycles, _pc: Pc) {
        self.record(addr, AccessKind::Load, now);
    }

    fn heap_store(&mut self, addr: Addr, now: Cycles, _pc: Pc) {
        self.record(addr, AccessKind::Store, now);
    }

    fn local_load(&mut self, var: u16, _activation: u32, now: Cycles, _pc: Pc) {
        if self.local_in_mask(var) {
            self.record(globalized_local_addr(var), AccessKind::Load, now);
        }
    }

    fn local_store(&mut self, var: u16, _activation: u32, now: Cycles, _pc: Pc) {
        if self.local_in_mask(var) {
            self.record(globalized_local_addr(var), AccessKind::Store, now);
        }
    }

    fn loop_enter(&mut self, loop_id: LoopId, _n_locals: u16, _activation: u32, now: Cycles) {
        match self.active.as_mut() {
            Some(a) => a.depth += 1,
            None if self.targets.contains(&loop_id) => {
                self.active = Some(ActiveEntry {
                    loop_id,
                    entry_start: now,
                    iter_start: now,
                    iters: Vec::new(),
                    current: IterTrace::default(),
                    depth: 0,
                    local_mask: self.local_masks.get(&loop_id).copied().unwrap_or(u64::MAX),
                });
            }
            None => {}
        }
    }

    fn loop_iter(&mut self, loop_id: LoopId, now: Cycles) {
        if let Some(a) = self.active.as_mut() {
            if a.depth == 0 && a.loop_id == loop_id {
                let mut iter = std::mem::take(&mut a.current);
                iter.cycles = now.saturating_sub(a.iter_start) as u32;
                a.iters.push(iter);
                a.iter_start = now;
            }
        }
    }

    fn loop_exit(&mut self, loop_id: LoopId, now: Cycles) {
        let Some(a) = self.active.as_mut() else {
            return;
        };
        if a.depth > 0 {
            a.depth -= 1;
            return;
        }
        if a.loop_id != loop_id {
            return;
        }
        let a = self.active.take().expect("checked above");
        self.entries.push(EntryTrace {
            loop_id: a.loop_id,
            start: a.entry_start,
            iters: a.iters,
            tail_cycles: now.saturating_sub(a.iter_start) as u32,
            seq_cycles: now.saturating_sub(a.entry_start),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm::isa::FuncId;

    const L0: LoopId = LoopId(0);
    const L1: LoopId = LoopId(1);

    fn pc() -> Pc {
        Pc {
            func: FuncId(0),
            idx: 0,
        }
    }

    #[test]
    fn collects_iterations_with_relative_times() {
        let mut c = TlsTraceCollector::new([L0]);
        c.loop_enter(L0, 0, 0, 100);
        c.heap_load(0x40, 110, pc());
        c.loop_iter(L0, 120);
        c.heap_store(0x40, 135, pc());
        c.loop_iter(L0, 140);
        c.loop_exit(L0, 145);
        assert_eq!(c.entries.len(), 1);
        let e = &c.entries[0];
        assert_eq!(e.loop_id, L0);
        assert_eq!(e.iters.len(), 2);
        assert_eq!(e.iters[0].cycles, 20);
        assert_eq!(e.iters[0].accesses[0].rel, 10);
        assert_eq!(e.iters[1].accesses[0].kind, AccessKind::Store);
        assert_eq!(e.iters[1].accesses[0].rel, 15);
        assert_eq!(e.tail_cycles, 5);
        assert_eq!(e.seq_cycles, 45);
    }

    #[test]
    fn nested_non_target_loops_fold_into_the_iteration() {
        let mut c = TlsTraceCollector::new([L0]);
        c.loop_enter(L0, 0, 0, 0);
        c.loop_enter(L1, 0, 0, 5); // inner, not a target
        c.heap_load(0x40, 8, pc());
        c.loop_iter(L1, 10); // inner eoi: ignored
        c.loop_exit(L1, 12);
        c.loop_iter(L0, 20);
        c.loop_exit(L0, 22);
        let e = &c.entries[0];
        assert_eq!(e.iters.len(), 1);
        assert_eq!(e.iters[0].accesses.len(), 1);
    }

    #[test]
    fn non_target_loops_alone_record_nothing() {
        let mut c = TlsTraceCollector::new([L0]);
        c.loop_enter(L1, 0, 0, 0);
        c.heap_load(0x40, 5, pc());
        c.loop_iter(L1, 10);
        c.loop_exit(L1, 12);
        assert!(c.entries.is_empty());
    }

    #[test]
    fn globalized_locals_get_distinct_lines() {
        let a = globalized_local_addr(0);
        let b = globalized_local_addr(1);
        assert_ne!(a / LINE_BYTES, b / LINE_BYTES);
        let mut c = TlsTraceCollector::new([L0]);
        c.loop_enter(L0, 2, 0, 0);
        c.local_store(1, 0, 5, pc());
        c.loop_iter(L0, 10);
        c.loop_exit(L0, 12);
        assert_eq!(c.entries[0].iters[0].accesses[0].addr, b);
    }

    #[test]
    fn multiple_entries_are_separate() {
        let mut c = TlsTraceCollector::new([L0]);
        for base in [0u64, 100] {
            c.loop_enter(L0, 0, 0, base);
            c.loop_iter(L0, base + 10);
            c.loop_exit(L0, base + 12);
        }
        assert_eq!(c.entries.len(), 2);
        assert_eq!(c.entries[1].start, 100);
    }

    #[test]
    fn replayed_streams_collect_identical_traces() {
        use tvm::record::Event;
        use tvm::EventBatch;

        let events = [
            Event::LoopEnter(L0, 2, 0, 100),
            Event::HeapLoad(0x40, 110, pc()),
            Event::LocalStore(1, 0, 112, pc()),
            Event::LoopIter(L0, 120),
            Event::LoopEnter(L1, 0, 1, 122),
            Event::HeapStore(0x60, 130, pc()),
            Event::LoopIter(L1, 132),
            Event::LoopExit(L1, 134),
            Event::LoopIter(L0, 140),
            Event::LoopExit(L0, 145),
        ];

        let mut direct = TlsTraceCollector::with_masks([L0], [(L0, 0b10)]);
        for e in events {
            e.deliver(&mut direct);
        }

        // batched delivery, whatever the cut, must agree
        for cap in [1usize, 3, 64] {
            let mut batched = TlsTraceCollector::with_masks([L0], [(L0, 0b10)]);
            for chunk in events.chunks(cap) {
                let mut b = EventBatch::with_capacity(cap);
                chunk.iter().for_each(|&e| b.push(e));
                batched.consume_batch(&b);
            }
            assert_eq!(batched.entries, direct.entries, "capacity {cap}");
        }
        assert_eq!(direct.entries.len(), 1);
        assert_eq!(direct.entries[0].iters.len(), 2);
    }
}
