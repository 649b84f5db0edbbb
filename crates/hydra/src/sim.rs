//! The speculative schedule solver.
//!
//! Given an [`EntryTrace`], computes how long the entry takes when its
//! iterations run as speculative threads on Hydra. The solver assigns
//! threads to CPUs in order and, for each thread, finds the smallest
//! start time consistent with the violation rule: any load whose
//! producing store (from an earlier uncommitted thread) becomes visible
//! *after* the load executed forces a restart at the store's arrival
//! plus the restart penalty. Because restarts only push start times
//! later and producers are already settled when a thread is processed,
//! a simple per-thread fixpoint converges.
//!
//! The solver makes one pass over the entry. Per-entry maps, hashed
//! with a per-instance key ([`tvm::hash`]), give every distinct address
//! and cache line a dense slot, so the per-thread work
//! indexes flat arrays: each thread's load producers are resolved once,
//! before its fixpoint, and its buffer occupancy is counted in reusable
//! set-associative tag counters stamped with the thread's index instead
//! of freshly built sets.

use crate::collect::{AccessKind, EntryTrace};
use crate::config::TlsConfig;
use tvm::hash::{keyed_map, KeyedMap};
use tvm::line_of;
use tvm::trace::Addr;

/// The outcome of speculatively executing one loop entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlsSimResult {
    /// Total cycles for the entry (startup to shutdown, including the
    /// serial tail fragment).
    pub tls_cycles: u64,
    /// Threads executed.
    pub threads: u64,
    /// Violation restarts that occurred.
    pub violations: u64,
    /// Threads that overflowed speculative buffers and stalled.
    pub overflows: u64,
}

/// Stamp of a slot no thread has touched yet.
const UNSEEN: u32 = u32::MAX;

/// Solver state of one address.
#[derive(Clone, Copy)]
struct AddrState {
    /// Slot of the address's cache line.
    line: u32,
    /// Last store `(thread, rel)` to the address by a thread already
    /// processed; `thread == UNSEEN` when there is none.
    last_store: (u32, u32),
    /// Thread whose first store to the address `own_rel` holds.
    own_thread: u32,
    own_rel: u32,
    /// The address violated once; later consumers wait for it.
    synced: bool,
}

/// Solver state of one cache line.
#[derive(Clone, Copy)]
struct LineState {
    /// The line's load-state set, `line % n_sets`.
    set: u32,
    /// Last thread that loaded / stored the line.
    ld_seen: u32,
    st_seen: u32,
}

/// Occupancy of one load-state set: distinct lines thread `seen` has
/// loaded into it.
#[derive(Clone, Copy)]
struct SetState {
    seen: u32,
    fill: u32,
}

/// Per-entry solver state. Addresses and lines get dense slots on first
/// sight; their state lives in flat arrays indexed by slot, and the
/// load-state sets in one array indexed by set. Per-thread facts carry
/// the index of the thread that wrote them, so moving to the next
/// thread clears nothing.
struct Slots {
    /// Load-state sets: `(ld_line_limit / ld_associativity).max(1)`.
    n_sets: u32,
    addr_slot: KeyedMap<Addr, u32>,
    line_slot: KeyedMap<u32, u32>,
    addrs: Vec<AddrState>,
    lines: Vec<LineState>,
    sets: Vec<SetState>,
}

impl Slots {
    fn new(cfg: &TlsConfig) -> Slots {
        let n_sets = (cfg.ld_line_limit / cfg.ld_associativity.max(1)).max(1);
        Slots {
            n_sets,
            addr_slot: keyed_map(),
            line_slot: keyed_map(),
            addrs: Vec::new(),
            lines: Vec::new(),
            sets: vec![
                SetState {
                    seen: UNSEEN,
                    fill: 0,
                };
                n_sets as usize
            ],
        }
    }

    /// The slot of `addr`, allocating it (and its line's slot) on first
    /// sight.
    fn slot(&mut self, addr: Addr) -> u32 {
        let next = self.addrs.len() as u32;
        let s = *self.addr_slot.entry(addr).or_insert(next);
        if s == next {
            let line = line_of(addr);
            let next_line = self.lines.len() as u32;
            let l = *self.line_slot.entry(line).or_insert(next_line);
            if l == next_line {
                self.lines.push(LineState {
                    set: line % self.n_sets,
                    ld_seen: UNSEEN,
                    st_seen: UNSEEN,
                });
            }
            self.addrs.push(AddrState {
                line: l,
                last_store: (UNSEEN, 0),
                own_thread: UNSEEN,
                own_rel: 0,
                synced: false,
            });
        }
        s
    }

    /// Counts a load of `line` by thread `t` into its set; true when
    /// the set now holds more distinct lines than it has ways.
    fn load_overflows(&mut self, t: u32, line: u32, cfg: &TlsConfig) -> bool {
        let line = &mut self.lines[line as usize];
        if line.ld_seen == t {
            return false;
        }
        line.ld_seen = t;
        let set = &mut self.sets[line.set as usize];
        if set.seen != t {
            *set = SetState { seen: t, fill: 0 };
        }
        set.fill += 1;
        set.fill > cfg.ld_associativity
    }

    /// Counts a store of `line` by thread `t`; true when it is a line
    /// the thread has not stored before.
    fn new_store_line(&mut self, t: u32, line: u32) -> bool {
        let line = &mut self.lines[line as usize];
        let new = line.st_seen != t;
        line.st_seen = t;
        new
    }
}

/// A load whose producing store, in an earlier thread, may arrive
/// after it.
#[derive(Clone, Copy)]
struct ExposedLoad {
    rel: u32,
    slot: u32,
    /// When the producing store becomes visible to this thread.
    visible: u64,
}

/// Simulates one loop entry under TLS.
///
/// Every [`crate::IterTrace`]'s accesses must be in nondecreasing `rel`
/// order, as [`crate::TlsTraceCollector`] records them.
///
/// ```
/// use hydra_sim::{simulate_entry, EntryTrace, IterTrace, TlsConfig};
/// use tvm::isa::LoopId;
///
/// // four independent 1000-cycle iterations fill the four CPUs
/// let entry = EntryTrace {
///     loop_id: LoopId(0),
///     start: 0,
///     iters: (0..4).map(|_| IterTrace { cycles: 1000, accesses: vec![] }).collect(),
///     tail_cycles: 0,
///     seq_cycles: 4000,
/// };
/// let r = simulate_entry(&entry, &TlsConfig::default());
/// assert_eq!(r.tls_cycles, 25 + 1000 + 5 + 25); // startup+thread+eoi+shutdown
/// ```
pub fn simulate_entry(entry: &EntryTrace, cfg: &TlsConfig) -> TlsSimResult {
    let n = entry.iters.len();
    if n == 0 {
        return TlsSimResult {
            tls_cycles: cfg.startup + cfg.shutdown + u64::from(entry.tail_cycles),
            threads: 0,
            violations: 0,
            overflows: 0,
        };
    }

    let p = cfg.processors as usize;
    let mut cpu_free = vec![cfg.startup; p];
    let mut starts: Vec<u64> = Vec::with_capacity(n);
    let mut commit_prev: u64 = cfg.startup;
    let mut violations = 0u64;
    let mut overflows = 0u64;
    let mut slots = Slots::new(cfg);
    // per-thread buffers, reused across threads
    let mut thread_slots: Vec<u32> = Vec::new();
    let mut exposed: Vec<ExposedLoad> = Vec::new();

    for (t, iter) in entry.iters.iter().enumerate() {
        debug_assert!(
            iter.accesses.windows(2).all(|w| w[0].rel <= w[1].rel),
            "thread {t}: accesses out of rel order"
        );
        let tid = t as u32;
        let cpu = t % p;
        let mut start = cpu_free[cpu];

        // the first store to each address: with `rel` nondecreasing, a
        // load at `rel` reads its own store buffer exactly when that
        // store has `rel' <= rel`, even one listed after the load
        thread_slots.clear();
        for a in &iter.accesses {
            let s = slots.slot(a.addr);
            thread_slots.push(s);
            let state = &mut slots.addrs[s as usize];
            if a.kind == AccessKind::Store && state.own_thread != tid {
                state.own_thread = tid;
                state.own_rel = a.rel;
            }
        }

        // one pass in access order: resolve each load's producer (the
        // last earlier-thread store; earlier start times are settled,
        // so its visibility time is fixed), count buffer occupancy up
        // to the first overflow, and publish this thread's stores for
        // later threads. Start only grows in the fixpoint, so a load
        // already past its producer's arrival can never violate.
        exposed.clear();
        let mut overflow: Option<u32> = None;
        let mut st_lines = 0u32;
        for (a, &s) in iter.accesses.iter().zip(&thread_slots) {
            let state = &mut slots.addrs[s as usize];
            let line = state.line;
            match a.kind {
                AccessKind::Load => {
                    let own = state.own_thread == tid && state.own_rel <= a.rel;
                    let (pt, pr) = state.last_store;
                    if !own && pt != UNSEEN {
                        let visible = starts[pt as usize] + u64::from(pr) + cfg.comm_delay;
                        if visible.saturating_sub(u64::from(a.rel)) > start {
                            exposed.push(ExposedLoad {
                                rel: a.rel,
                                slot: s,
                                visible,
                            });
                        }
                    }
                    if overflow.is_none() && slots.load_overflows(tid, line, cfg) {
                        overflow = Some(a.rel);
                    }
                }
                AccessKind::Store => {
                    state.last_store = (tid, a.rel);
                    if overflow.is_none() && slots.new_store_line(tid, line) {
                        st_lines += 1;
                        if st_lines > cfg.st_line_limit {
                            overflow = Some(a.rel);
                        }
                    }
                }
            }
        }

        // violation fixpoint: synced addresses delay the start (the
        // inserted lock stalls the consumer); unsynced ones restart
        // the thread and become synced
        loop {
            let mut restart_at: Option<u64> = None;
            let mut wait_until: u64 = start;
            for ld in &exposed {
                let visible = ld.visible;
                let load_time = start + u64::from(ld.rel);
                if visible > load_time {
                    let synced = &mut slots.addrs[ld.slot as usize].synced;
                    if cfg.sync_after_violation && *synced {
                        // wait so the load lands after the producer
                        wait_until = wait_until.max(visible.saturating_sub(u64::from(ld.rel)));
                    } else {
                        restart_at = Some(restart_at.map_or(visible, |w: u64| w.max(visible)));
                        if cfg.sync_after_violation {
                            *synced = true;
                        }
                    }
                }
            }
            if let Some(v) = restart_at {
                violations += 1;
                start = v + cfg.violation_restart;
            } else if wait_until > start {
                start = wait_until;
            } else {
                break;
            }
        }
        starts.push(start);

        let mut finish = start + u64::from(iter.cycles) + cfg.eoi;
        if let Some(r_ovf) = overflow {
            overflows += 1;
            // stall at the overflow point until this thread is the
            // head (all predecessors committed), then run the rest
            let stalled_resume = commit_prev.max(start + u64::from(r_ovf));
            finish = finish.max(stalled_resume + u64::from(iter.cycles - r_ovf) + cfg.eoi);
        }

        // in-order commit
        let commit = finish.max(commit_prev);
        commit_prev = commit;
        cpu_free[cpu] = commit;
    }

    TlsSimResult {
        tls_cycles: commit_prev + cfg.shutdown + u64::from(entry.tail_cycles),
        threads: n as u64,
        violations,
        overflows,
    }
}

/// Simulates every entry and sums the results.
pub fn simulate_all(entries: &[EntryTrace], cfg: &TlsConfig) -> TlsSimResult {
    let mut total = TlsSimResult::default();
    for e in entries {
        let r = simulate_entry(e, cfg);
        total.tls_cycles += r.tls_cycles;
        total.threads += r.threads;
        total.violations += r.violations;
        total.overflows += r.overflows;
    }
    total
}

/// The original solver, kept verbatim as the executable specification
/// of [`simulate_entry`]: it re-resolves every load's producer in each
/// fixpoint round through a per-address store index and builds fresh
/// sets for each thread's overflow check. The equivalence property in
/// `tests` pins the one-pass solver to it.
#[cfg(test)]
mod reference {
    use crate::collect::{Access, AccessKind, EntryTrace};
    use crate::config::TlsConfig;
    use crate::sim::TlsSimResult;
    use std::collections::{HashMap, HashSet};
    use tvm::line_of;
    use tvm::trace::Addr;

    /// All stores to one address, in sequential program order
    /// (thread-major). `(thread, rel)` pairs; the vector is naturally
    /// sorted because threads are scanned in order.
    pub(super) type StoreIndex = HashMap<Addr, Vec<(u32, u32)>>;

    pub(super) fn build_store_index(entry: &EntryTrace) -> StoreIndex {
        let mut idx: StoreIndex = HashMap::new();
        for (t, iter) in entry.iters.iter().enumerate() {
            for a in &iter.accesses {
                if a.kind == AccessKind::Store {
                    idx.entry(a.addr).or_default().push((t as u32, a.rel));
                }
            }
        }
        idx
    }

    /// The producing store for a load at `(thread, rel)`: the last store
    /// to `addr` that precedes it in sequential order. Returns `None` when
    /// there is no producer in this entry or the producer is the thread's
    /// own earlier store (which the load reads from its own buffer).
    pub(super) fn producer(
        idx: &StoreIndex,
        addr: Addr,
        thread: u32,
        rel: u32,
    ) -> Option<(u32, u32)> {
        let stores = idx.get(&addr)?;
        // last store with (t, r) sequentially before (thread, rel)
        let pos = stores.partition_point(|&(t, r)| t < thread || (t == thread && r <= rel));
        if pos == 0 {
            return None;
        }
        let (t, r) = stores[pos - 1];
        if t == thread {
            None // own store: forwarded from the local store buffer
        } else {
            Some((t, r))
        }
    }

    /// Relative cycle at which this thread's speculative state first
    /// exceeds the buffer limits, if it ever does.
    ///
    /// The load state lives in the set-associative L1 tags (Table 1:
    /// 4-way), so a single set can overflow with far fewer than 512
    /// distinct lines; the store buffer is fully associative.
    pub(super) fn overflow_point(accesses: &[Access], cfg: &TlsConfig) -> Option<u32> {
        let n_sets = (cfg.ld_line_limit / cfg.ld_associativity.max(1)).max(1);
        let mut ld_sets: HashMap<u32, HashSet<u32>> = HashMap::new();
        let mut st: HashSet<u32> = HashSet::new();
        for a in accesses {
            let line = line_of(a.addr);
            match a.kind {
                AccessKind::Load => {
                    let set = ld_sets.entry(line % n_sets).or_default();
                    set.insert(line);
                    if set.len() > cfg.ld_associativity as usize {
                        return Some(a.rel);
                    }
                }
                AccessKind::Store => {
                    st.insert(line);
                    if st.len() > cfg.st_line_limit as usize {
                        return Some(a.rel);
                    }
                }
            }
        }
        None
    }

    /// The solver as it stood before the one-pass rewrite.
    pub(super) fn simulate_entry(entry: &EntryTrace, cfg: &TlsConfig) -> TlsSimResult {
        let n = entry.iters.len();
        if n == 0 {
            return TlsSimResult {
                tls_cycles: cfg.startup + cfg.shutdown + u64::from(entry.tail_cycles),
                threads: 0,
                violations: 0,
                overflows: 0,
            };
        }

        let idx = build_store_index(entry);
        let p = cfg.processors as usize;
        let mut cpu_free = vec![cfg.startup; p];
        let mut starts: Vec<u64> = Vec::with_capacity(n);
        let mut commit_prev: u64 = cfg.startup;
        let mut violations = 0u64;
        let mut overflows = 0u64;
        // addresses whose dependencies have been synchronized after a
        // violation: later consumers wait instead of restarting
        let mut synced: HashSet<Addr> = HashSet::new();

        for (t, iter) in entry.iters.iter().enumerate() {
            let cpu = t % p;
            let mut start = cpu_free[cpu];

            // violation fixpoint: synced addresses delay the start (the
            // inserted lock stalls the consumer); unsynced ones restart
            // the thread and become synced
            loop {
                let mut restart_at: Option<u64> = None;
                let mut wait_until: u64 = start;
                for a in &iter.accesses {
                    if a.kind != AccessKind::Load {
                        continue;
                    }
                    if let Some((pt, pr)) = producer(&idx, a.addr, t as u32, a.rel) {
                        let visible = starts[pt as usize] + u64::from(pr) + cfg.comm_delay;
                        let load_time = start + u64::from(a.rel);
                        if visible > load_time {
                            if cfg.sync_after_violation && synced.contains(&a.addr) {
                                // wait so the load lands after the producer
                                wait_until =
                                    wait_until.max(visible.saturating_sub(u64::from(a.rel)));
                            } else {
                                restart_at =
                                    Some(restart_at.map_or(visible, |w: u64| w.max(visible)));
                                if cfg.sync_after_violation {
                                    synced.insert(a.addr);
                                }
                            }
                        }
                    }
                }
                if let Some(v) = restart_at {
                    violations += 1;
                    start = v + cfg.violation_restart;
                } else if wait_until > start {
                    start = wait_until;
                } else {
                    break;
                }
            }
            starts.push(start);

            let mut finish = start + u64::from(iter.cycles) + cfg.eoi;
            if let Some(r_ovf) = overflow_point(&iter.accesses, cfg) {
                overflows += 1;
                // stall at the overflow point until this thread is the
                // head (all predecessors committed), then run the rest
                let stalled_resume = commit_prev.max(start + u64::from(r_ovf));
                finish = finish.max(stalled_resume + u64::from(iter.cycles - r_ovf) + cfg.eoi);
            }

            // in-order commit
            let commit = finish.max(commit_prev);
            commit_prev = commit;
            cpu_free[cpu] = commit;
        }

        TlsSimResult {
            tls_cycles: commit_prev + cfg.shutdown + u64::from(entry.tail_cycles),
            threads: n as u64,
            violations,
            overflows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{build_store_index, overflow_point, producer};
    use super::*;
    use crate::collect::{Access, IterTrace};
    use proptest::prelude::*;
    use tvm::isa::LoopId;

    fn entry(iters: Vec<IterTrace>) -> EntryTrace {
        let seq: u64 = iters.iter().map(|i| u64::from(i.cycles)).sum();
        EntryTrace {
            loop_id: LoopId(0),
            start: 0,
            iters,
            tail_cycles: 0,
            seq_cycles: seq,
        }
    }

    fn iter(cycles: u32, accesses: Vec<Access>) -> IterTrace {
        IterTrace { cycles, accesses }
    }

    fn ld(rel: u32, addr: Addr) -> Access {
        Access {
            rel,
            addr,
            kind: AccessKind::Load,
        }
    }

    fn st(rel: u32, addr: Addr) -> Access {
        Access {
            rel,
            addr,
            kind: AccessKind::Store,
        }
    }

    #[test]
    fn independent_threads_approach_4x() {
        let cfg = TlsConfig::default();
        let iters: Vec<_> = (0..400).map(|_| iter(1000, vec![])).collect();
        let e = entry(iters);
        let r = simulate_entry(&e, &cfg);
        let seq = e.seq_cycles as f64;
        let speedup = seq / r.tls_cycles as f64;
        assert_eq!(r.violations, 0);
        assert!(speedup > 3.5, "got {speedup}");
        assert!(speedup <= 4.0);
    }

    #[test]
    fn tight_raw_chain_serializes() {
        // each thread stores at the end and the next loads at the start
        let cfg = TlsConfig::default();
        let iters: Vec<_> = (0..100)
            .map(|_| iter(1000, vec![ld(5, 0x40), st(995, 0x40)]))
            .collect();
        let e = entry(iters);
        let r = simulate_entry(&e, &cfg);
        let speedup = e.seq_cycles as f64 / r.tls_cycles as f64;
        assert!(r.violations > 0);
        assert!(speedup < 1.2, "got {speedup}");
    }

    #[test]
    fn long_arcs_preserve_parallelism() {
        // store early, load late: dependency arc nearly a full thread
        let cfg = TlsConfig::default();
        let iters: Vec<_> = (0..100)
            .map(|_| iter(1000, vec![st(5, 0x40), ld(995, 0x40)]))
            .collect();
        let e = entry(iters);
        let r = simulate_entry(&e, &cfg);
        let speedup = e.seq_cycles as f64 / r.tls_cycles as f64;
        assert!(speedup > 3.0, "got {speedup}");
    }

    #[test]
    fn own_store_forwards_without_violation() {
        let cfg = TlsConfig::default();
        let iters: Vec<_> = (0..10)
            .map(|_| iter(100, vec![st(10, 0x40), ld(20, 0x40)]))
            .collect();
        let e = entry(iters);
        let r = simulate_entry(&e, &cfg);
        // each load reads its own thread's store: a per-thread
        // temporary, no cross-thread dependency at all
        assert_eq!(r.violations, 0);
    }

    #[test]
    fn buffer_overflow_forces_serialization() {
        let cfg = TlsConfig::default();
        // each thread stores 65 distinct lines: exceeds the 64-line
        // store buffer
        let iters: Vec<_> = (0..20)
            .map(|_| {
                let accesses = (0..65).map(|k| st(10 + k, k * 32)).collect();
                iter(1000, accesses)
            })
            .collect();
        let e = entry(iters);
        let r = simulate_entry(&e, &cfg);
        assert_eq!(r.overflows, 20);
        let speedup = e.seq_cycles as f64 / r.tls_cycles as f64;
        assert!(speedup < 1.6, "got {speedup}");
    }

    #[test]
    fn empty_entry_costs_only_overheads() {
        let cfg = TlsConfig::default();
        let mut e = entry(vec![]);
        e.tail_cycles = 7;
        let r = simulate_entry(&e, &cfg);
        assert_eq!(r.tls_cycles, 25 + 25 + 7);
        assert_eq!(r.threads, 0);
    }

    #[test]
    fn few_large_threads_use_few_cpus() {
        let cfg = TlsConfig::default();
        let e = entry(vec![iter(1000, vec![]), iter(1000, vec![])]);
        let r = simulate_entry(&e, &cfg);
        // two threads in parallel: ~half the sequential time
        assert!(r.tls_cycles < 1200);
        assert!(r.tls_cycles >= 1000);
    }

    #[test]
    fn simulate_all_sums() {
        let cfg = TlsConfig::default();
        let e1 = entry(vec![iter(100, vec![])]);
        let e2 = entry(vec![iter(100, vec![]), iter(100, vec![])]);
        let both = simulate_all(&[e1.clone(), e2.clone()], &cfg);
        let r1 = simulate_entry(&e1, &cfg);
        let r2 = simulate_entry(&e2, &cfg);
        assert_eq!(both.tls_cycles, r1.tls_cycles + r2.tls_cycles);
        assert_eq!(both.threads, 3);
    }

    #[test]
    fn producer_tie_at_thread_boundary_picks_earlier_thread() {
        // store in thread 0 and load in thread 1 at the same relative
        // cycle: the earlier thread is sequentially before the load,
        // so it IS the producer
        let e = entry(vec![
            iter(100, vec![st(5, 0x40)]),
            iter(100, vec![ld(5, 0x40)]),
        ]);
        let idx = build_store_index(&e);
        assert_eq!(producer(&idx, 0x40, 1, 5), Some((0, 5)));
    }

    #[test]
    fn producer_same_thread_same_rel_is_own_store() {
        // a store and a load at the identical (thread, rel): the store
        // is "not after" the load, so it forwards from the local buffer
        let e = entry(vec![iter(100, vec![st(5, 0x40), ld(5, 0x40)])]);
        let idx = build_store_index(&e);
        assert_eq!(producer(&idx, 0x40, 0, 5), None);
    }

    #[test]
    fn producer_skips_own_store_but_not_earlier_threads() {
        // thread 1 stores before its own load, but thread 0 also
        // stored: the own store is the *last* sequential store and
        // shadows the cross-thread one (no violation possible)
        let e = entry(vec![
            iter(100, vec![st(50, 0x40)]),
            iter(100, vec![st(10, 0x40), ld(20, 0x40)]),
        ]);
        let idx = build_store_index(&e);
        assert_eq!(producer(&idx, 0x40, 1, 20), None);
        // a load before the own store sees thread 0's store instead
        assert_eq!(producer(&idx, 0x40, 1, 5), Some((0, 50)));
    }

    #[test]
    fn producer_with_no_preceding_store_is_none() {
        let e = entry(vec![
            iter(100, vec![ld(5, 0x40)]),
            iter(100, vec![st(50, 0x40)]),
        ]);
        let idx = build_store_index(&e);
        // thread 0's load precedes every store (pos == 0)
        assert_eq!(producer(&idx, 0x40, 0, 5), None);
        // and an address nobody stores has no index entry at all
        assert_eq!(producer(&idx, 0x80, 1, 99), None);
    }

    #[test]
    fn overflow_point_direct_mapped_conflicts() {
        // associativity 1: two distinct lines landing in the same set
        // overflow immediately even though the total line count is
        // far below the limit
        let cfg = TlsConfig {
            ld_line_limit: 4,
            ld_associativity: 1,
            ..TlsConfig::default()
        };
        // lines 0 and 4 both map to set 0 of the 4 sets
        let accesses = vec![ld(10, 0), ld(20, 4 * 32)];
        assert_eq!(overflow_point(&accesses, &cfg), Some(20));
        // the same two lines in different sets never overflow
        let accesses = vec![ld(10, 0), ld(20, 32)];
        assert_eq!(overflow_point(&accesses, &cfg), None);
    }

    #[test]
    fn overflow_point_limit_below_associativity_is_one_full_set() {
        // a line limit smaller than the associativity degenerates to a
        // single set holding `associativity` lines, not zero capacity
        let cfg = TlsConfig {
            ld_line_limit: 2,
            ld_associativity: 4,
            ..TlsConfig::default()
        };
        let fits: Vec<Access> = (0..4).map(|k| ld(10 + k, k * 32)).collect();
        assert_eq!(overflow_point(&fits, &cfg), None);
        let spills: Vec<Access> = (0..5).map(|k| ld(10 + k, k * 32)).collect();
        assert_eq!(overflow_point(&spills, &cfg), Some(14));
    }

    #[test]
    fn overflow_point_stores_are_fully_associative() {
        // the same conflict pattern that overflows the 4-way load
        // state is fine for stores, which only count distinct lines
        let cfg = TlsConfig::default(); // 128 sets of 4
        let conflicting: Vec<u32> = (0..5).map(|k| k * 128 * 32).collect();
        let loads: Vec<Access> = conflicting
            .iter()
            .enumerate()
            .map(|(i, &a)| ld(i as u32, a))
            .collect();
        assert_eq!(overflow_point(&loads, &cfg), Some(4));
        let stores: Vec<Access> = conflicting
            .iter()
            .enumerate()
            .map(|(i, &a)| st(i as u32, a))
            .collect();
        assert_eq!(overflow_point(&stores, &cfg), None);
        // repeated stores to one line never count twice
        let same_line: Vec<Access> = (0..200).map(|k| st(k, 0x40)).collect();
        assert_eq!(overflow_point(&same_line, &cfg), None);
    }

    #[test]
    fn violation_restart_rereads_correct_data() {
        // thread 1 stores late; thread 2 loads early -> one restart,
        // after which the producer is visible and no further violation
        let cfg = TlsConfig::default();
        let e = entry(vec![
            iter(100, vec![st(90, 0x40)]),
            iter(100, vec![ld(5, 0x40)]),
        ]);
        let r = simulate_entry(&e, &cfg);
        assert_eq!(r.violations, 1);
        // thread 2 restarts at 25(startup)+90+10(comm)+5(restart) = 130
        // finishes at 230 + eoi
        assert!(r.tls_cycles >= 230);
    }

    #[test]
    fn same_rel_store_listed_after_the_load_is_own() {
        // thread 1 stores 0x40 at the load's own `rel`, listed after
        // the load: the store is "not after" the load, so thread 0's
        // late store is not its producer and nothing violates
        let cfg = TlsConfig::default();
        let e = entry(vec![
            iter(100, vec![st(90, 0x40)]),
            iter(100, vec![ld(5, 0x40), st(5, 0x40)]),
        ]);
        let r = simulate_entry(&e, &cfg);
        assert_eq!(r, reference::simulate_entry(&e, &cfg));
        assert_eq!(r.violations, 0);
    }

    /// Accesses with coarse `rel` steps (so same-`rel` ties are common
    /// and the stable sort keeps both list orders) over a small address
    /// pool of dense words, set-conflicting lines and addresses that
    /// differ from the dense words only in high bits.
    fn arb_iter() -> impl Strategy<Value = IterTrace> {
        let addr = prop_oneof![
            (0u32..8).prop_map(|k| 0x40 + k * 8),
            (0u32..8).prop_map(|k| k * 4096),
            (0u32..8).prop_map(|k| 0x40_0040 + k * 8),
        ];
        (
            1u32..200,
            prop::collection::vec((0u32..6, addr, prop::bool::ANY), 0..10),
        )
            .prop_map(|(cycles, raw)| {
                let mut accesses: Vec<Access> = raw
                    .into_iter()
                    .map(|(step, addr, is_store)| {
                        let rel = step * cycles / 5;
                        if is_store {
                            st(rel, addr)
                        } else {
                            ld(rel, addr)
                        }
                    })
                    .collect();
                accesses.sort_by_key(|a| a.rel);
                iter(cycles, accesses)
            })
    }

    #[test]
    fn many_distinct_addresses_match_the_reference() {
        // thousands of distinct words over many lines and sets, each
        // revisited by later threads, so slots allocated long before
        // are looked up again and producers span many threads
        let mut x = 12345u32;
        let mut next = move || {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12345);
            x >> 8
        };
        let iters: Vec<IterTrace> = (0..200)
            .map(|_| {
                let mut accesses: Vec<Access> = (0..60)
                    .map(|_| {
                        let rel = next() % 1000;
                        let addr = (next() % 6000) * 4;
                        if next() % 3 == 0 {
                            st(rel, addr)
                        } else {
                            ld(rel, addr)
                        }
                    })
                    .collect();
                accesses.sort_by_key(|a| a.rel);
                iter(1000, accesses)
            })
            .collect();
        let e = entry(iters);
        let distinct: std::collections::HashSet<Addr> = e
            .iters
            .iter()
            .flat_map(|i| i.accesses.iter().map(|a| a.addr))
            .collect();
        assert!(distinct.len() > 4000, "{}", distinct.len());
        for ld_associativity in [0, 1, 4] {
            for st_line_limit in [1, 64, 1000] {
                for sync_after_violation in [false, true] {
                    let cfg = TlsConfig {
                        ld_associativity,
                        st_line_limit,
                        sync_after_violation,
                        ..TlsConfig::default()
                    };
                    assert_eq!(
                        simulate_entry(&e, &cfg),
                        reference::simulate_entry(&e, &cfg)
                    );
                }
            }
        }
    }

    fn arb_config() -> impl Strategy<Value = TlsConfig> {
        (
            prop_oneof![Just(0u32), Just(1u32), Just(4u32)],
            prop_oneof![Just(0u32), Just(1u32), Just(64u32)],
            prop_oneof![Just(4u32), Just(16u32), Just(512u32)],
            prop::bool::ANY,
            1u32..5,
            (0u64..20, 0u64..10),
        )
            .prop_map(
                |(ld_associativity, st_line_limit, ld_line_limit, sync, processors, delays)| {
                    TlsConfig {
                        processors,
                        comm_delay: delays.0,
                        violation_restart: delays.1,
                        ld_line_limit,
                        st_line_limit,
                        ld_associativity,
                        sync_after_violation: sync,
                        ..TlsConfig::default()
                    }
                },
            )
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn one_pass_solver_matches_the_reference(
            iters in prop::collection::vec(arb_iter(), 0..24),
            cfg in arb_config(),
        ) {
            let e = entry(iters);
            prop_assert_eq!(simulate_entry(&e, &cfg), reference::simulate_entry(&e, &cfg));
        }
    }
}
