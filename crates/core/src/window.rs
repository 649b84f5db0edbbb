//! Windowed, incremental selection for the online tiered runtime.
//!
//! The offline batch runs Equation 1+2 selection once, over one
//! profile of one fully annotated program. The online tier instead
//! observes a *stream* of profiles — one per execution epoch, each
//! measured under whatever annotation set was live that epoch — and
//! must keep revising its selection as phase behaviour shifts.
//!
//! [`SelectionWindow`] is the stream-side half of that loop: a bounded
//! window of recent epoch profiles plus a *generation* tag. Profiles
//! are only comparable when they were measured under the same
//! annotation set (patching a new loop in changes cycle counts and pc
//! layouts for everything downstream), so the tier controller bumps
//! the generation — clearing the window — whenever it patches the
//! program, and pushes one `(profile, cycles)` pair per epoch
//! otherwise.
//!
//! [`SelectionWindow::aggregate`] folds the window into one synthetic
//! profile: counter fields are averaged (so one anomalous epoch is
//! damped rather than authoritative), peak fields (`max_*`,
//! watermarks) take the window maximum, and structural pieces
//! (`pc_bins`, forest edges' relative weights) come from the newest
//! epoch. Aggregating a window of identical profiles returns exactly
//! that profile — the property that keeps online selection
//! bit-identical to offline once the tier reaches its terminal,
//! fully-patched image (deterministic interpretation makes
//! same-generation epochs identical).
//!
//! The hysteresis that stops verdicts flapping lives in the tier
//! controller (`jrpm::tier`), not here: this module answers "what
//! would selection say *now*", the controller decides when to believe
//! it.

use crate::estimate::EstimatorParams;
use crate::select::{select_with_distances, SelectionResult};
use crate::stats::{Profile, StlStats};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use tvm::isa::LoopId;

/// A bounded window of recent epoch profiles, tagged with the
/// annotation generation they were measured under.
#[derive(Debug, Clone)]
pub struct SelectionWindow {
    capacity: usize,
    generation: u64,
    epochs: VecDeque<(Profile, u64)>,
}

impl SelectionWindow {
    /// An empty window holding at most `capacity` epochs (minimum 1).
    pub fn new(capacity: usize) -> SelectionWindow {
        SelectionWindow {
            capacity: capacity.max(1),
            generation: 0,
            epochs: VecDeque::new(),
        }
    }

    /// The current annotation generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of epochs currently windowed.
    pub fn len(&self) -> usize {
        self.epochs.len()
    }

    /// True when no epoch has been pushed since the last generation
    /// bump.
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty()
    }

    /// Invalidates the window: the annotation set changed, so profiles
    /// measured before and after are not comparable. Clears all
    /// windowed epochs and bumps the generation tag.
    pub fn advance_generation(&mut self) {
        self.generation += 1;
        self.epochs.clear();
    }

    /// Pushes one epoch's profile and total run cycles, evicting the
    /// oldest epoch when the window is full.
    pub fn push(&mut self, profile: Profile, cycles: u64) {
        if self.epochs.len() == self.capacity {
            self.epochs.pop_front();
        }
        self.epochs.push_back((profile, cycles));
    }

    /// Folds the window into one synthetic `(profile, cycles)` pair.
    ///
    /// Counters average across epochs, peaks take the maximum, and
    /// structural data (pc bins) comes from the newest epoch. Returns
    /// `None` on an empty window. A window of `n` identical epochs
    /// aggregates to exactly that epoch.
    pub fn aggregate(&self) -> Option<(Profile, u64)> {
        if self.epochs.is_empty() {
            return None;
        }
        let n = self.epochs.len() as u64;

        let mut stl: BTreeMap<LoopId, StlStats> = BTreeMap::new();
        let mut edges: BTreeMap<(Option<LoopId>, LoopId), u64> = BTreeMap::new();
        let mut analyzer: BTreeMap<Option<LoopId>, u64> = BTreeMap::new();
        let mut out = Profile::default();
        let mut cycles_sum: u64 = 0;

        for (p, c) in &self.epochs {
            cycles_sum += c;
            for (&id, s) in &p.stl {
                let acc = stl.entry(id).or_default();
                acc.entries += s.entries;
                acc.threads += s.threads;
                acc.cycles += s.cycles;
                acc.arcs_t1 += s.arcs_t1;
                acc.arc_len_sum_t1 += s.arc_len_sum_t1;
                acc.arcs_lt += s.arcs_lt;
                acc.arc_len_sum_lt += s.arc_len_sum_lt;
                acc.overflow_threads += s.overflow_threads;
                acc.untraced_entries += s.untraced_entries;
                acc.max_ld_lines = acc.max_ld_lines.max(s.max_ld_lines);
                acc.max_st_lines = acc.max_st_lines.max(s.max_st_lines);
                acc.thread_size_sq_sum += s.thread_size_sq_sum;
                acc.thread_size_sum += s.thread_size_sum;
            }
            for (&e, &count) in &p.forest_edges {
                *edges.entry(e).or_insert(0) += count;
            }
            for (&k, &count) in &p.analyzer_events {
                *analyzer.entry(k).or_insert(0) += count;
            }
            out.max_dynamic_depth = out.max_dynamic_depth.max(p.max_dynamic_depth);
            out.fifo_evictions += p.fifo_evictions;
            out.events += p.events;
            out.end_time = out.end_time.max(p.end_time);
            out.fifo_depth_watermark = out.fifo_depth_watermark.max(p.fifo_depth_watermark);
            out.bank_watermark = out.bank_watermark.max(p.bank_watermark);
        }

        // Counters become per-epoch means so the aggregate stays on the
        // scale of one run (selection compares loop cycles to the run's
        // total cycles, so mixed scales would skew coverage).
        for s in stl.values_mut() {
            s.entries /= n;
            s.threads /= n;
            s.cycles /= n;
            s.arcs_t1 /= n;
            s.arc_len_sum_t1 /= n;
            s.arcs_lt /= n;
            s.arc_len_sum_lt /= n;
            s.overflow_threads /= n;
            s.untraced_entries /= n;
            s.thread_size_sq_sum /= u128::from(n);
            s.thread_size_sum /= n;
        }
        for count in edges.values_mut() {
            *count /= n;
        }
        for count in analyzer.values_mut() {
            *count /= n;
        }
        out.fifo_evictions /= n;
        out.events /= n;
        out.stl = stl;
        out.forest_edges = edges;
        out.analyzer_events = analyzer;
        out.pc_bins = self.epochs.back().map(|(p, _)| p.pc_bins.clone())?;

        Some((out, cycles_sum / n))
    }

    /// Runs Equation 1+2 selection over the aggregated window.
    ///
    /// Returns `None` on an empty window.
    pub fn reselect(
        &self,
        params: &EstimatorParams,
        demoted: &BTreeSet<LoopId>,
    ) -> Option<SelectionResult> {
        self.reselect_with_distances(params, demoted, &BTreeMap::new())
    }

    /// [`Self::reselect`] with dependence-distance floors (see
    /// [`select_with_distances`]); the tier runtime passes the same
    /// floors, solved once at startup, that its final selection uses,
    /// keeping the windowed schedule aligned with it. Only loops in the
    /// aggregated profile are weighed, so floors and demotions of loops
    /// not yet profiled change nothing.
    pub fn reselect_with_distances(
        &self,
        params: &EstimatorParams,
        demoted: &BTreeSet<LoopId>,
        floors: &BTreeMap<LoopId, u32>,
    ) -> Option<SelectionResult> {
        let (profile, cycles) = self.aggregate()?;
        Some(select_with_distances(
            &profile, params, cycles, demoted, floors,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::select_with_priors;

    fn profile(cycles: u64, threads: u64) -> Profile {
        let mut p = Profile::default();
        p.stl.insert(
            LoopId(0),
            StlStats {
                entries: 1,
                threads,
                cycles,
                thread_size_sum: cycles,
                thread_size_sq_sum: u128::from(cycles) * u128::from(cycles),
                max_ld_lines: threads as u32,
                ..StlStats::default()
            },
        );
        p.forest_edges.insert((None, LoopId(0)), 1);
        p.events = cycles / 2;
        p.max_dynamic_depth = 1;
        p
    }

    #[test]
    fn identical_epochs_aggregate_to_themselves() {
        let mut w = SelectionWindow::new(4);
        let p = profile(1000, 10);
        w.push(p.clone(), 5000);
        w.push(p.clone(), 5000);
        w.push(p.clone(), 5000);
        let (agg, cycles) = w.aggregate().unwrap();
        assert_eq!(agg, p);
        assert_eq!(cycles, 5000);
    }

    #[test]
    fn counters_average_and_peaks_take_max() {
        let mut w = SelectionWindow::new(4);
        w.push(profile(1000, 10), 4000);
        w.push(profile(3000, 20), 6000);
        let (agg, cycles) = w.aggregate().unwrap();
        let s = &agg.stl[&LoopId(0)];
        assert_eq!(s.cycles, 2000, "counter fields are window means");
        assert_eq!(s.threads, 15);
        assert_eq!(s.max_ld_lines, 20, "peak fields are window maxima");
        assert_eq!(cycles, 5000);
    }

    #[test]
    fn window_is_bounded_and_generation_clears_it() {
        let mut w = SelectionWindow::new(2);
        w.push(profile(1, 1), 1);
        w.push(profile(2, 1), 2);
        w.push(profile(3, 1), 3);
        assert_eq!(w.len(), 2, "oldest epoch evicted at capacity");
        assert_eq!(w.generation(), 0);
        w.advance_generation();
        assert!(w.is_empty());
        assert_eq!(w.generation(), 1);
        assert!(w.aggregate().is_none());
        assert!(w
            .reselect(&EstimatorParams::default(), &BTreeSet::new())
            .is_none());
    }

    #[test]
    fn reselect_matches_direct_selection_on_a_singleton_window() {
        let mut w = SelectionWindow::new(3);
        let p = profile(8000, 40);
        w.push(p.clone(), 10_000);
        let windowed = w
            .reselect(&EstimatorParams::default(), &BTreeSet::new())
            .unwrap();
        let direct = select_with_priors(&p, &EstimatorParams::default(), 10_000, &BTreeSet::new());
        assert_eq!(windowed.chosen, direct.chosen);
        assert_eq!(windowed.predicted_cycles, direct.predicted_cycles);
    }
}
