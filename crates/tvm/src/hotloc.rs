//! Hot-location counters — the always-on counting tier.
//!
//! The online tiered runtime (`jrpm::tier`) keeps every candidate loop
//! in a `Counting` state until it proves hot. The evidence is a
//! per-location execution counter maintained by the interpreter itself:
//! [`HotLocations`] registers one slot per program location (a
//! `(function, pc)` pair — in practice the first instruction of a loop
//! header block), and the interpreter bumps the slot's counter every
//! time execution reaches that location.
//!
//! This is the same division of labour as yk's meta-tracer (`Location`
//! holds a count until a hot threshold trips, then the `MT` promotes
//! it); see DESIGN.md §14. The cost budget is the point: the probe is
//! two bounds-checked array loads, a compare and a conditional
//! increment per retired instruction — no hashing, no branching on
//! program structure — so the counting tier stays within the pinned
//! slowdown bound the `tier` regression gate enforces (TASKPROF is the
//! reference for profiling that must be cheap enough to leave on).
//!
//! The hook is threaded through the interpreter as a generic parameter
//! ([`LocationHook`]); the default [`NoHook`] is a zero-sized type
//! whose probe monomorphizes to nothing, so un-hooked runs — every
//! offline pipeline pass — pay zero cost.

use crate::program::Program;

/// Sentinel for "no slot registered at this pc".
const SLOT_NONE: u32 = u32::MAX;

/// A per-instruction observation hook for [`crate::interp::Interp`].
///
/// Called once per retired instruction with the current function and
/// pc, *before* the instruction executes. Implementations must be
/// cheap and side-effect-free with respect to the simulation: the hook
/// cannot alter simulated cycles, trace events, or program state.
pub trait LocationHook {
    /// Observes that execution reached `(func, pc)`.
    fn at(&mut self, func: u16, pc: u32);
}

/// The do-nothing hook: compiles away entirely.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoHook;

impl LocationHook for NoHook {
    #[inline(always)]
    fn at(&mut self, _func: u16, _pc: u32) {}
}

/// Dense hot-location counter table.
///
/// One row per function, one cell per instruction; registered cells
/// hold a slot index into the counts vector, all others hold a
/// sentinel. Lookup is therefore a direct double index — the cheapest
/// probe that still supports arbitrary locations.
#[derive(Debug, Clone, Default)]
pub struct HotLocations {
    map: Vec<Vec<u32>>,
    counts: Vec<u64>,
}

impl HotLocations {
    /// An empty table shaped to `program` (no locations registered).
    pub fn for_program(program: &Program) -> HotLocations {
        HotLocations {
            map: program
                .functions
                .iter()
                .map(|f| vec![SLOT_NONE; f.code.len()])
                .collect(),
            counts: Vec::new(),
        }
    }

    /// Registers a location and returns its slot index. Registering
    /// the same location twice returns the existing slot.
    ///
    /// # Panics
    ///
    /// Panics if `(func, pc)` lies outside the program this table was
    /// shaped for.
    pub fn register(&mut self, func: u16, pc: u32) -> usize {
        let cell = &mut self.map[func as usize][pc as usize];
        if *cell == SLOT_NONE {
            self.counts.push(0);
            *cell = (self.counts.len() - 1) as u32;
        }
        *cell as usize
    }

    /// Number of registered locations.
    pub fn locations(&self) -> usize {
        self.counts.len()
    }

    /// The counter of slot `slot`.
    pub fn count(&self, slot: usize) -> u64 {
        self.counts[slot]
    }

    /// All counters, by slot.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Resets every counter to zero (slots stay registered).
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
    }
}

impl LocationHook for HotLocations {
    #[inline(always)]
    fn at(&mut self, func: u16, pc: u32) {
        if let Some(row) = self.map.get(func as usize) {
            if let Some(&slot) = row.get(pc as usize) {
                if slot != SLOT_NONE {
                    self.counts[slot as usize] += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interp;
    use crate::trace::NullSink;
    use crate::{ElemKind, ProgramBuilder};

    fn looping_program(iters: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, false, |f| {
            let (a, i) = (f.local(), f.local());
            f.ci(64).newarray(ElemKind::Int).st(a);
            f.for_in(i, 0.into(), iters.into(), |f| {
                f.arr_set(
                    a,
                    |f| {
                        f.ld(i).ci(63).iand();
                    },
                    |f| {
                        f.ld(i);
                    },
                );
            });
            f.ret_void();
        });
        b.finish(main).unwrap()
    }

    #[test]
    fn hooked_run_counts_and_changes_nothing() {
        let p = looping_program(37);
        let plain = Interp::run(&p, &mut NullSink).unwrap();

        let mut hot = HotLocations::for_program(&p);
        // pc 0 executes once; probe every pc of main to find the loop
        let slot0 = hot.register(0, 0);
        let hooked = Interp::run_hooked(&p, &mut NullSink, &mut hot).unwrap();

        assert_eq!(
            hooked.cycles, plain.cycles,
            "hooks are free in simulated time"
        );
        assert_eq!(hooked.instructions, plain.instructions);
        assert_eq!(hooked.ret, plain.ret);
        assert_eq!(hot.count(slot0), 1);
    }

    #[test]
    fn loop_header_location_counts_iterations() {
        let p = looping_program(37);
        // find the backward-branch target = loop header pc
        let header = p.functions[0]
            .code
            .iter()
            .enumerate()
            .find_map(|(i, instr)| instr.branch_target().filter(|&t| (t as usize) <= i))
            .expect("program has a backward branch");
        let mut hot = HotLocations::for_program(&p);
        let slot = hot.register(0, header);
        Interp::run_hooked(&p, &mut NullSink, &mut hot).unwrap();
        // the header executes once per iteration plus the entry test
        assert!(
            hot.count(slot) >= 37,
            "header count {} < iteration count",
            hot.count(slot)
        );
        hot.reset();
        assert_eq!(hot.count(slot), 0);
        Interp::run_hooked(&p, &mut NullSink, &mut hot).unwrap();
        assert!(hot.count(slot) >= 37, "counters accumulate after reset");
    }

    #[test]
    fn register_is_idempotent() {
        let p = looping_program(3);
        let mut hot = HotLocations::for_program(&p);
        let a = hot.register(0, 2);
        let b = hot.register(0, 2);
        assert_eq!(a, b);
        assert_eq!(hot.locations(), 1);
    }
}
