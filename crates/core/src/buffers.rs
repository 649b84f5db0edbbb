//! Timestamp storage structures (paper §5.3).
//!
//! During profiling the five speculation store buffers — idle while the
//! program runs sequentially — hold event timestamps instead of
//! speculative data. Their limited capacity is a *feature* of the
//! evaluation: the paper measures how much precision the analysis loses
//! to FIFO eviction and direct-mapped aliasing (§6.2).

use std::collections::hash_map::Entry;
use tvm::hash::{keyed_map, KeyedMap};
use tvm::trace::{Addr, Cycles};
use tvm::{line_of, LINE_WORDS, WORD_BYTES};

/// Heap store timestamps: a FIFO of cache lines, each holding one
/// timestamp per word. Three of the five 2 kB store buffers are used,
/// giving 192 lines (6 kB) of write history.
///
/// Looking up an address whose line has been evicted returns `None` —
/// the dependency is simply not seen, one of the documented sources of
/// imprecision.
///
/// The lines sit in a ring in arrival order; a keyed-hash index maps
/// each buffered line to its ring position, and a last-line register
/// in front of it (as Figure 7 has for the overflow tables) holds the
/// line and position of the last line looked up or recorded, so runs
/// of accesses to one line skip the hash. Every eviction rewrites the
/// register, so it never names a slot that holds another line. The
/// ring grows with the lines actually buffered and is never sized to
/// `capacity` up front, so an effectively unbounded FIFO costs only
/// what it holds. A capacity of 0 holds one line, as a capacity of 1
/// does.
#[derive(Debug, Clone)]
pub struct StoreTimestampFifo {
    capacity: usize,
    ring: Vec<BufferedLine>,
    /// Ring position of the oldest line once the ring is full.
    oldest: usize,
    index: KeyedMap<u32, usize>,
    /// The last-line register: `(line, ring position)`. Starts on
    /// [`NO_LINE`], which no address maps to.
    last: (u32, usize),
    evictions: u64,
}

/// A line number no 32-bit address has (`line_of` is below 2^27).
const NO_LINE: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct BufferedLine {
    line: u32,
    words: [Option<Cycles>; LINE_WORDS as usize],
}

/// The line of `addr` and the word's slot within it.
#[inline]
fn line_and_word(addr: Addr) -> (u32, usize) {
    (line_of(addr), ((addr / WORD_BYTES) % LINE_WORDS) as usize)
}

impl StoreTimestampFifo {
    /// Creates a FIFO holding at most `capacity` lines.
    pub fn new(capacity: usize) -> Self {
        StoreTimestampFifo {
            capacity: capacity.max(1),
            ring: Vec::new(),
            oldest: 0,
            index: keyed_map(),
            last: (NO_LINE, 0),
            evictions: 0,
        }
    }

    /// Records a store timestamp for the word at `addr`. A line already
    /// present is updated in place (the hardware merges writes to a
    /// buffered line); a new line may evict the oldest.
    #[inline]
    pub fn record(&mut self, addr: Addr, now: Cycles) {
        let (line, word) = line_and_word(addr);
        if self.last.0 == line {
            self.ring[self.last.1].words[word] = Some(now);
            return;
        }
        let fresh = || {
            let mut words = [None; LINE_WORDS as usize];
            words[word] = Some(now);
            BufferedLine { line, words }
        };
        let pos = match self.index.entry(line) {
            Entry::Occupied(e) => {
                let pos = *e.get();
                self.ring[pos].words[word] = Some(now);
                pos
            }
            Entry::Vacant(e) if self.ring.len() < self.capacity => {
                e.insert(self.ring.len());
                self.ring.push(fresh());
                self.ring.len() - 1
            }
            Entry::Vacant(_) => {
                let pos = self.oldest;
                let old = std::mem::replace(&mut self.ring[pos], fresh());
                self.index.remove(&old.line);
                self.index.insert(line, pos);
                self.oldest = (pos + 1) % self.ring.len();
                self.evictions += 1;
                pos
            }
        };
        self.last = (line, pos);
    }

    /// The last store timestamp recorded for the word at `addr`, if its
    /// line is still buffered.
    #[inline]
    pub fn lookup(&mut self, addr: Addr) -> Option<Cycles> {
        let (line, word) = line_and_word(addr);
        if self.last.0 != line {
            self.last = (line, *self.index.get(&line)?);
        }
        self.ring[self.last.1].words[word]
    }

    /// Number of lines evicted so far (history lost).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Lines currently buffered.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True if no store has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

/// A direct-mapped table of cache-line timestamps with tags, used by
/// the speculative-state overflow analysis (Figure 4). Index and tag
/// come from the line number exactly as the figure's bit slices do;
/// aliasing between lines that share an index loses the older
/// timestamp, as in hardware.
///
/// A slot stores its tag plus one beside its timestamp, so an empty
/// slot is all zeros: the table is allocated as zeroed pages, and the
/// slots a run never touches cost no memory. Lines are
/// [`tvm::line_of`] values, below 2^27, so a tag + 1 never wraps.
#[derive(Debug, Clone)]
pub struct LineTimestampTable {
    mask: u32,
    /// `line >> shift` is a line's tag.
    shift: u32,
    /// Tag + 1 per slot; 0 = empty.
    tags: Vec<u32>,
    stamps: Vec<Cycles>,
}

impl LineTimestampTable {
    /// Creates a table with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> Self {
        assert!(
            entries.is_power_of_two(),
            "table size must be a power of two"
        );
        let mask = entries as u32 - 1;
        LineTimestampTable {
            mask,
            shift: mask.trailing_ones(),
            tags: vec![0; entries],
            stamps: vec![0; entries],
        }
    }

    /// The slot index of `line` and its stored form of the tag.
    #[inline]
    fn slot(&self, line: u32) -> (usize, u32) {
        ((line & self.mask) as usize, (line >> self.shift) + 1)
    }

    /// The timestamp recorded for `line`, if the slot still holds that
    /// line (tag match).
    pub fn lookup(&self, line: u32) -> Option<Cycles> {
        let (idx, tag) = self.slot(line);
        (self.tags[idx] == tag).then(|| self.stamps[idx])
    }

    /// Records an access timestamp for `line`, evicting any aliasing
    /// entry.
    pub fn record(&mut self, line: u32, now: Cycles) {
        let (idx, tag) = self.slot(line);
        self.tags[idx] = tag;
        self.stamps[idx] = now;
    }

    /// Combined lookup-and-record: installs `now` for `line` and
    /// returns the previous tag-matching timestamp, computing the slot
    /// index once. Equivalent to `lookup(line)` followed by
    /// `record(line, now)` — the tracer's overflow walk uses this on
    /// every heap access.
    #[inline]
    pub fn swap(&mut self, line: u32, now: Cycles) -> Option<Cycles> {
        let (idx, tag) = self.slot(line);
        let old = std::mem::replace(&mut self.stamps[idx], now);
        let hit = std::mem::replace(&mut self.tags[idx], tag) == tag;
        hit.then_some(old)
    }

    /// Clears the table (used between profiling phases).
    pub fn clear(&mut self) {
        self.tags.fill(0);
    }
}

/// Local-variable store timestamps: a small table shared by all active
/// STLs, reserved in per-activation frames by `sloop n` and freed by
/// `eloop n` (Table 4). Nested loops of the same method activation
/// re-use the same frame (the method-level `vn` numbering aliases
/// them), so reservation is reference-counted.
#[derive(Debug, Clone)]
pub struct LocalVarTimestamps {
    capacity: usize,
    used: usize,
    frames: Vec<LocalFrame>,
}

#[derive(Debug, Clone)]
struct LocalFrame {
    activation: u32,
    refcount: u32,
    slots: Vec<Option<Cycles>>,
}

impl LocalVarTimestamps {
    /// Creates a table with `capacity` total slots.
    pub fn new(capacity: usize) -> Self {
        LocalVarTimestamps {
            capacity,
            used: 0,
            frames: Vec::new(),
        }
    }

    /// Attempts to reserve `n` slots for `activation` (on `sloop`).
    /// Returns `false` when the table is full — the caller then leaves
    /// the loop untraced, the paper's "no room left for local variable
    /// timestamps" case.
    pub fn reserve(&mut self, activation: u32, n: u16) -> bool {
        if let Some(top) = self.frames.last_mut() {
            if top.activation == activation {
                // nested loop in the same method: same slots
                if top.slots.len() < n as usize {
                    // method-level numbering guarantees equal n; grow
                    // defensively if a larger reservation appears
                    let grow = n as usize - top.slots.len();
                    if self.used + grow > self.capacity {
                        return false;
                    }
                    self.used += grow;
                    top.slots.resize(n as usize, None);
                }
                top.refcount += 1;
                return true;
            }
        }
        if self.used + n as usize > self.capacity {
            return false;
        }
        self.used += n as usize;
        self.frames.push(LocalFrame {
            activation,
            refcount: 1,
            slots: vec![None; n as usize],
        });
        true
    }

    /// Releases one reservation for `activation` (on `eloop`).
    pub fn release(&mut self, activation: u32) {
        if let Some(top) = self.frames.last_mut() {
            if top.activation == activation {
                top.refcount -= 1;
                if top.refcount == 0 {
                    self.used -= top.slots.len();
                    self.frames.pop();
                }
            }
        }
    }

    /// Records a store timestamp for variable `var` of `activation`.
    /// Ignored when the activation has no live frame (its loop was left
    /// untraced).
    #[inline]
    pub fn record(&mut self, activation: u32, var: u16, now: Cycles) {
        if let Some(top) = self.frames.last_mut() {
            if top.activation == activation {
                if let Some(slot) = top.slots.get_mut(var as usize) {
                    *slot = Some(now);
                }
            }
        }
    }

    /// The last store timestamp for variable `var` of `activation`.
    #[inline]
    pub fn lookup(&self, activation: u32, var: u16) -> Option<Cycles> {
        let top = self.frames.last()?;
        if top.activation != activation {
            return None;
        }
        top.slots.get(var as usize).copied().flatten()
    }

    /// Slots currently reserved.
    pub fn used(&self) -> usize {
        self.used
    }
}

/// The FIFO as a std `HashMap` of lines beside a `VecDeque` of their
/// arrival order, kept as the executable specification of
/// [`StoreTimestampFifo`]; a property test compares the two after every
/// operation, and the tracer's reference model buffers its stores here.
#[cfg(test)]
pub(crate) mod reference {
    use std::collections::{HashMap, VecDeque};
    use tvm::trace::{Addr, Cycles};
    use tvm::{line_of, LINE_WORDS, WORD_BYTES};

    #[derive(Debug)]
    pub(crate) struct StoreTimestampFifo {
        capacity: usize,
        lines: HashMap<u32, [Option<Cycles>; LINE_WORDS as usize]>,
        order: VecDeque<u32>,
        evictions: u64,
    }

    impl StoreTimestampFifo {
        pub(crate) fn new(capacity: usize) -> Self {
            StoreTimestampFifo {
                capacity,
                lines: HashMap::new(),
                order: VecDeque::new(),
                evictions: 0,
            }
        }

        pub(crate) fn record(&mut self, addr: Addr, now: Cycles) {
            let line = line_of(addr);
            let word = ((addr / WORD_BYTES) % LINE_WORDS) as usize;
            if let Some(entry) = self.lines.get_mut(&line) {
                entry[word] = Some(now);
                return;
            }
            if self.order.len() >= self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.lines.remove(&old);
                    self.evictions += 1;
                }
            }
            let mut entry = [None; LINE_WORDS as usize];
            entry[word] = Some(now);
            self.lines.insert(line, entry);
            self.order.push_back(line);
        }

        pub(crate) fn lookup(&self, addr: Addr) -> Option<Cycles> {
            let line = line_of(addr);
            let word = ((addr / WORD_BYTES) % LINE_WORDS) as usize;
            self.lines.get(&line).and_then(|e| e[word])
        }

        pub(crate) fn evictions(&self) -> u64 {
            self.evictions
        }

        pub(crate) fn len(&self) -> usize {
            self.order.len()
        }

        /// The line the next eviction would drop.
        pub(crate) fn oldest(&self) -> Option<u32> {
            self.order.front().copied()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fifo_roundtrip_and_word_granularity() {
        let mut f = StoreTimestampFifo::new(4);
        f.record(0x100, 10); // line 8, word 0
        f.record(0x108, 20); // line 8, word 1
        assert_eq!(f.lookup(0x100), Some(10));
        assert_eq!(f.lookup(0x108), Some(20));
        assert_eq!(f.lookup(0x110), None); // untouched word
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn fifo_evicts_oldest_line() {
        let mut f = StoreTimestampFifo::new(2);
        f.record(0x000, 1);
        f.record(0x020, 2);
        f.record(0x040, 3); // evicts line of 0x000
        assert_eq!(f.lookup(0x000), None);
        assert_eq!(f.lookup(0x020), Some(2));
        assert_eq!(f.lookup(0x040), Some(3));
        assert_eq!(f.evictions(), 1);
    }

    #[test]
    fn fifo_update_does_not_reorder() {
        let mut f = StoreTimestampFifo::new(2);
        f.record(0x000, 1);
        f.record(0x020, 2);
        f.record(0x008, 5); // same line as 0x000: update in place
        f.record(0x040, 6); // still evicts the 0x000 line (oldest)
        assert_eq!(f.lookup(0x008), None);
        assert_eq!(f.lookup(0x020), Some(2));
    }

    #[test]
    fn fifo_capacity_zero_holds_one_line() {
        for capacity in [0, 1] {
            let mut f = StoreTimestampFifo::new(capacity);
            f.record(0x000, 1);
            assert_eq!((f.len(), f.evictions()), (1, 0));
            f.record(0x008, 2); // same line: merged
            f.record(0x020, 3); // a second line evicts the first
            assert_eq!((f.len(), f.evictions()), (1, 1));
            assert_eq!(f.lookup(0x000), None);
            assert_eq!(f.lookup(0x020), Some(3));
        }
    }

    /// Store addresses over a few dense lines (word merges), lines that
    /// differ from them only in high bits, and a 300-line spread that
    /// overruns a 192-line FIFO, so lines are evicted and stored again.
    fn arb_addr() -> impl Strategy<Value = Addr> {
        prop_oneof![
            (0u32..16).prop_map(|w| 0x40 + w * 8),
            (0u32..4).prop_map(|k| (k << 20) + 0x40),
            (0u32..300).prop_map(|l| 0x1000 + l * 32),
        ]
    }

    fn arb_capacity() -> impl Strategy<Value = usize> {
        prop_oneof![Just(0), Just(1), Just(2), Just(192), Just(usize::MAX / 2)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn fifo_matches_the_reference(
            capacity in arb_capacity(),
            ops in prop::collection::vec((arb_addr(), prop::bool::ANY, 1u32..5), 0..800),
        ) {
            let mut fifo = StoreTimestampFifo::new(capacity);
            let mut spec = reference::StoreTimestampFifo::new(capacity);
            let mut now: Cycles = 0;
            for &(base, store, run) in &ops {
                // a run of accesses to successive words of one line:
                // after the first, the last-line register serves them
                for k in 0..run {
                    let addr = (base & !31) | ((base + 8 * k) & 31);
                    now += 1;
                    if store {
                        let (victim, evictions) = (spec.oldest(), spec.evictions());
                        fifo.record(addr, now);
                        spec.record(addr, now);
                        if spec.evictions() > evictions {
                            // the evicted line is gone, even when the
                            // register named it just before
                            let gone = victim.expect("an eviction has a victim") * 32 + (addr & 31);
                            prop_assert_eq!(fifo.lookup(gone), None, "op {}", now);
                            prop_assert_eq!(spec.lookup(gone), None, "op {}", now);
                        }
                    }
                    prop_assert_eq!(fifo.lookup(addr), spec.lookup(addr), "op {}", now);
                    prop_assert_eq!(fifo.len(), spec.len(), "op {}", now);
                    prop_assert_eq!(fifo.evictions(), spec.evictions(), "op {}", now);
                }
            }
            for &(addr, _, _) in &ops {
                prop_assert_eq!(fifo.lookup(addr), spec.lookup(addr));
            }
        }
    }

    #[test]
    fn fifo_register_never_serves_an_evicted_line() {
        for capacity in [1, 2] {
            let mut f = StoreTimestampFifo::new(capacity);
            f.record(0x000, 1);
            f.record(0x020, 2);
            // the register names the line the next eviction drops
            // (capacity 2) or the line that just dropped it (capacity 1)
            assert_eq!(f.lookup(0x000), if capacity == 2 { Some(1) } else { None });
            f.record(0x040, 3); // evicts the oldest line
            assert_eq!(f.lookup(0x000), None);
            assert_eq!(f.lookup(0x040), Some(3));
            f.record(0x048, 4); // same line: merged through the register
            assert_eq!(f.lookup(0x048), Some(4));
            assert_eq!(f.lookup(0x040), Some(3));
        }
    }

    #[test]
    fn line_table_tags_detect_aliasing() {
        let mut t = LineTimestampTable::new(64);
        t.record(1, 10);
        assert_eq!(t.lookup(1), Some(10));
        // line 65 aliases index 1 with a different tag
        assert_eq!(t.lookup(65), None);
        t.record(65, 20);
        assert_eq!(t.lookup(65), Some(20));
        assert_eq!(t.lookup(1), None); // evicted by aliasing
    }

    #[test]
    fn line_table_empty_slots_match_no_line() {
        for entries in [1, 2, 64] {
            let mut t = LineTimestampTable::new(entries);
            // line 0 has tag 0 in every table: an empty slot is not it
            assert_eq!(t.lookup(0), None);
            assert_eq!(t.swap(0, 5), None);
            assert_eq!(t.swap(0, 6), Some(5));
            t.clear();
            assert_eq!(t.lookup(0), None);
        }
    }

    #[test]
    fn line_table_swap_is_lookup_then_record() {
        let mut combined = LineTimestampTable::new(64);
        let mut split = LineTimestampTable::new(64);
        // hits, misses, and aliasing evictions all behave identically
        for (line, now) in [(1, 10), (1, 20), (65, 30), (1, 40), (7, 50)] {
            let expected = split.lookup(line);
            split.record(line, now);
            assert_eq!(combined.swap(line, now), expected);
            assert_eq!(combined.lookup(line), split.lookup(line));
        }
    }

    #[test]
    fn local_frames_nest_by_refcount() {
        let mut l = LocalVarTimestamps::new(8);
        assert!(l.reserve(1, 3)); // outer loop of activation 1
        assert!(l.reserve(1, 3)); // inner loop, same activation
        assert_eq!(l.used(), 3);
        l.record(1, 2, 42);
        assert_eq!(l.lookup(1, 2), Some(42));
        l.release(1);
        assert_eq!(l.lookup(1, 2), Some(42)); // outer still holds it
        l.release(1);
        assert_eq!(l.used(), 0);
        assert_eq!(l.lookup(1, 2), None);
    }

    #[test]
    fn local_capacity_rejects_reservation() {
        let mut l = LocalVarTimestamps::new(4);
        assert!(l.reserve(1, 3));
        assert!(!l.reserve(2, 3)); // would exceed 4 slots
        assert_eq!(l.used(), 3);
        // rejected activation's accesses are ignored
        l.record(2, 0, 9);
        assert_eq!(l.lookup(2, 0), None);
    }

    #[test]
    fn cross_activation_frames_stack() {
        let mut l = LocalVarTimestamps::new(8);
        assert!(l.reserve(1, 2));
        l.record(1, 0, 5);
        assert!(l.reserve(7, 2)); // callee method's loop
        l.record(7, 0, 9);
        assert_eq!(l.lookup(7, 0), Some(9));
        assert_eq!(l.lookup(1, 0), None); // not the top frame
        l.release(7);
        assert_eq!(l.lookup(1, 0), Some(5)); // visible again
    }
}
