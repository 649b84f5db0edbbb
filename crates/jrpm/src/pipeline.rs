//! The end-to-end Jrpm pipeline (paper Figure 1), staged over the
//! trace bus.
//!
//! The pipeline is a sequence of explicit stages — extract, rescue,
//! annotate, record, replay-profile, select, collect, simulate — with the
//! trace-event stream as the IR between execution and analysis. The
//! annotated program is interpreted **once**; its event stream is
//! captured as [`tvm::bus::EventBatch`]es and replayed into the TEST
//! tracer (and any other consumer) through a [`tvm::bus::TraceBus`].
//! The plain sequential baseline is *derived*, not re-executed: the
//! interpreter tallies annotation-instruction cycles separately
//! ([`AnnotationCycles`]), and since the annotation pass only inserts
//! annotation instructions, `annotated − annotation = plain` exactly.
//! That cuts the pipeline from three interpreter executions to two
//! (profiling + TLS collection; the latter runs a differently
//! annotated program, so it cannot share the recording without
//! changing timestamps).
//!
//! Every run writes its measurements into an [`obs::Registry`] (and,
//! when [`ObsConfig::trace`] is set, streams spans and counter series
//! into an [`obs::Trace`] exportable as Chrome trace-event JSON): the
//! stages become `pipeline.stage.<NN>.<name>` wall-time counters and
//! spans on a `pipeline` track, the profiling bus contributes `bus.*`
//! counters and per-sink tracks, and the TEST tracer's self-profiling
//! lands under `tracer.*` with per-candidate analyzer-event
//! attribution. The [`PipelineObservability`] report is a *view over
//! the registry* — [`PipelineObservability::from_snapshot`]
//! reconstructs it from the sorted snapshot, so anything the report
//! shows is also present in the exported metrics.

use crate::annotate::{annotate, AnnotateOptions};
use cfgir::{ProgramCandidates, RescueRejection, RescuedLoop};
use hydra_sim::{simulate_entry, TlsConfig, TlsTraceCollector};
use obs::{Registry, Snapshot, Telemetry, Trace as ObsTrace, TrackId};
use std::collections::BTreeMap;
use std::time::Instant;
use test_tracer::{Profile, SelectionResult, TracerConfig};
use tvm::bus::{BusReport, EventKind, KindCounts, SinkStats};
use tvm::interp::AnnotationCycles;
use tvm::isa::LoopId;
use tvm::program::Program;
use tvm::{Interp, VmError};

/// Span/trace emission parameters for a pipeline run. Registry
/// counters are always collected (they cost a handful of atomic adds
/// per stage); the span trace is opt-in because sampled tracer series
/// grow with the event stream.
#[derive(Debug, Clone, Copy)]
pub struct ObsConfig {
    /// Stream spans, counter series, and overflow instants into the
    /// run's [`obs::Trace`] (for Chrome trace-event export).
    pub trace: bool,
    /// Tracer self-profiling sample period, in analyzer events.
    pub sample_every: u64,
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig {
            trace: false,
            sample_every: 4096,
        }
    }
}

/// Configuration for a pipeline run.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineConfig {
    /// TEST hardware configuration.
    pub tracer: TracerConfig,
    /// Hydra TLS machine parameters.
    pub tls: TlsConfig,
    /// Observability emission parameters.
    pub obs: ObsConfig,
    /// Skip the loop-rescue stage and run the program exactly as
    /// written (rescue is on by default).
    pub no_rescue: bool,
}

/// What the loop-rescue stage did to the program before profiling.
#[derive(Debug, Clone, Default)]
pub struct RescueSummary {
    /// Verifier-accepted transforms, in application order.
    pub rescued: Vec<RescuedLoop>,
    /// Loops a transform considered but could not legalize.
    pub rejected: Vec<RescueRejection>,
    /// The transformed program, when any transform applied. Everything
    /// downstream of the rescue stage — candidates, annotation,
    /// profiling, selection — is relative to this program, so any
    /// consumer that pairs [`PipelineReport::candidates`] with a
    /// program must use it too (see [`RescueSummary::program_for`]).
    pub program: Option<Program>,
}

impl RescueSummary {
    /// True when at least one loop was transformed.
    pub fn changed(&self) -> bool {
        !self.rescued.is_empty()
    }

    /// The program the pipeline actually profiled: the rescued variant
    /// when a transform applied, otherwise the original.
    pub fn program_for<'a>(&'a self, original: &'a Program) -> &'a Program {
        self.program.as_ref().unwrap_or(original)
    }
}

/// Wall time of one pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTime {
    /// Stage name (`extract`, `annotate`, `record`, …).
    pub stage: String,
    /// Wall time spent in the stage, in nanoseconds.
    pub nanos: u64,
}

/// Observability report of one pipeline run.
#[derive(Debug, Clone, Default)]
pub struct PipelineObservability {
    /// Per-stage wall times, in execution order.
    pub stages: Vec<StageTime>,
    /// Interpreter executions performed (at most 2).
    pub interpreter_passes: u32,
    /// Trace events that crossed the bus in the profiling stage.
    pub recorded_events: u64,
    /// Those events, by kind.
    pub by_kind: KindCounts,
    /// Batches that crossed the bus in the profiling stage.
    pub batches: u64,
    /// Configured events-per-batch capacity.
    pub batch_capacity: usize,
    /// The profiling stage's bus report (per-sink counters).
    pub bus: BusReport,
}

impl PipelineObservability {
    /// Total wall time across stages, in nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.stages.iter().map(|s| s.nanos).sum()
    }

    /// Wall time of one stage (0 when the stage didn't run).
    pub fn stage_nanos(&self, stage: &str) -> u64 {
        self.stages
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.nanos)
            .sum()
    }

    /// Mean fill fraction of the profiling stage's batches.
    pub fn avg_batch_occupancy(&self) -> f64 {
        if self.batches == 0 || self.batch_capacity == 0 {
            0.0
        } else {
            self.recorded_events as f64 / (self.batches * self.batch_capacity as u64) as f64
        }
    }

    /// Profiling-stage event throughput (events per wall-clock
    /// second over the record + replay-profile stages).
    pub fn events_per_sec(&self) -> f64 {
        let nanos = self.stage_nanos("record") + self.stage_nanos("replay-profile");
        if nanos == 0 {
            0.0
        } else {
            self.recorded_events as f64 * 1e9 / nanos as f64
        }
    }

    /// Reconstructs the report from a registry snapshot. This is the
    /// inverse of what [`run_pipeline`] records: stage counters are
    /// named `pipeline.stage.<NN>.<name>` (the zero-padded sequence
    /// number makes lexicographic order execution order), bus totals
    /// live under `bus.*`, and per-sink counters under
    /// `bus.sink.<i>.*` with the label attached as a note.
    pub fn from_snapshot(s: &Snapshot) -> PipelineObservability {
        let mut stages = Vec::new();
        for (name, &nanos) in &s.counters {
            if let Some(rest) = name.strip_prefix("pipeline.stage.") {
                if let Some((_, stage)) = rest.split_once('.') {
                    stages.push(StageTime {
                        stage: stage.to_string(),
                        nanos,
                    });
                }
            }
        }
        let kind_counts = |prefix: &str| {
            let mut k = KindCounts::default();
            for kind in EventKind::ALL {
                k.add(kind, s.counter(&format!("{prefix}{}", kind.name())));
            }
            k
        };
        let mut sinks = Vec::new();
        loop {
            let p = format!("bus.sink.{}.", sinks.len());
            let present = s.counters.keys().any(|k| k.starts_with(&p))
                || s.notes.keys().any(|k| k.starts_with(&p));
            if !present {
                break;
            }
            sinks.push(SinkStats {
                label: s.note(&format!("{p}label")).to_string(),
                events: s.counter(&format!("{p}events")),
                by_kind: kind_counts(&format!("{p}kind.")),
                batches: s.counter(&format!("{p}batches")),
                drain_nanos: s.counter(&format!("{p}drain_nanos")),
            });
        }
        let by_kind = kind_counts("bus.kind.");
        PipelineObservability {
            stages,
            interpreter_passes: s.counter("pipeline.interpreter_passes") as u32,
            recorded_events: s.counter("bus.events"),
            by_kind,
            batches: s.counter("bus.batches"),
            batch_capacity: s.counter("pipeline.batch_capacity") as usize,
            bus: BusReport {
                batches: s.counter("bus.batches"),
                events: s.counter("bus.events"),
                batch_capacity: s.counter("bus.batch_capacity") as usize,
                by_kind,
                sinks,
            },
        }
    }
}

/// Stage bookkeeping: one registry counter per stage (sequence-
/// numbered so snapshots preserve execution order) plus, when tracing,
/// a span on the `pipeline` wall track. Shared with the tier
/// controller (`crate::tier`), which drives the same stages per-loop.
pub(crate) struct StageRecorder<'a> {
    pub(crate) registry: &'a Registry,
    pub(crate) trace: Option<(&'a ObsTrace, TrackId)>,
    pub(crate) seq: u32,
}

impl StageRecorder<'_> {
    pub(crate) fn begin(&self, name: &str) -> Instant {
        if let Some((tr, t)) = self.trace {
            tr.begin(t, name);
        }
        Instant::now()
    }

    pub(crate) fn end(&mut self, name: &str, started: Instant) {
        let nanos = started.elapsed().as_nanos() as u64;
        self.registry
            .counter(&format!("pipeline.stage.{:02}.{name}", self.seq))
            .add(nanos);
        self.seq += 1;
        if let Some((tr, t)) = self.trace {
            tr.end(t, name);
        }
    }
}

/// Writes one bus run's totals and per-sink counters into the registry.
pub(crate) fn record_bus_report(registry: &Registry, report: &BusReport) {
    registry.counter("bus.batches").add(report.batches);
    registry.counter("bus.events").add(report.events);
    registry
        .counter("bus.batch_capacity")
        .record_max(report.batch_capacity as u64);
    for (kind, n) in report.by_kind.iter() {
        if n > 0 {
            registry
                .counter(&format!("bus.kind.{}", kind.name()))
                .add(n);
        }
    }
    for (i, sink) in report.sinks.iter().enumerate() {
        let p = format!("bus.sink.{i}.");
        registry.note(&format!("{p}label"), sink.label.clone());
        registry.counter(&format!("{p}events")).add(sink.events);
        registry.counter(&format!("{p}batches")).add(sink.batches);
        registry
            .counter(&format!("{p}drain_nanos"))
            .add(sink.drain_nanos);
        for (kind, n) in sink.by_kind.iter() {
            if n > 0 {
                registry.counter(&format!("{p}kind.{}", kind.name())).add(n);
            }
        }
    }
}

/// Writes the TEST tracer's self-profiling results into the registry.
pub(crate) fn record_tracer_profile(registry: &Registry, profile: &Profile) {
    registry.counter("tracer.events").add(profile.events);
    registry
        .counter("tracer.fifo_evictions")
        .add(profile.fifo_evictions);
    registry
        .counter("tracer.fifo_depth_watermark")
        .record_max(profile.fifo_depth_watermark);
    registry
        .counter("tracer.bank_watermark")
        .record_max(profile.bank_watermark);
    for (&key, &count) in &profile.analyzer_events {
        let name = match key {
            Some(l) => format!("tracer.analyzer_events.{l}"),
            None => "tracer.analyzer_events.outside".to_string(),
        };
        registry.counter(&name).add(count);
    }
}

/// Per-loop outcome of actual speculative execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopTls {
    /// Sequential cycles the loop's entries covered in the
    /// speculative-instrumentation run.
    pub seq_cycles: u64,
    /// Cycles under TLS execution.
    pub tls_cycles: u64,
    /// Violation restarts.
    pub violations: u64,
    /// Buffer-overflow stalls.
    pub overflows: u64,
    /// Threads executed.
    pub threads: u64,
}

/// Whole-program actual speculative execution (Figure 11's "Actual").
#[derive(Debug, Clone, Default)]
pub struct ActualTls {
    /// Per selected loop.
    pub per_loop: BTreeMap<LoopId, LoopTls>,
    /// Total cycles of the speculative-instrumentation sequential run
    /// (the baseline the TLS composition replaces loop entries in).
    pub baseline_cycles: u64,
    /// Whole-program cycles with selected loops running speculatively.
    pub tls_cycles: u64,
}

impl ActualTls {
    /// Whole-program actual speedup.
    pub fn speedup(&self) -> f64 {
        if self.tls_cycles == 0 {
            1.0
        } else {
            self.baseline_cycles as f64 / self.tls_cycles as f64
        }
    }
}

/// Everything a pipeline run produces.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Plain (unannotated) sequential cycles, derived exactly from
    /// the profiling run by subtracting the separately tallied
    /// annotation-instruction cycles.
    pub seq_cycles: u64,
    /// Profiling-run cycles (optimized annotations).
    pub profile_cycles: u64,
    /// Profiling-run annotation overhead breakdown.
    pub annotation: AnnotationCycles,
    /// Static candidate extraction results (on the rescued program
    /// when the rescue stage transformed anything).
    pub candidates: ProgramCandidates,
    /// What the loop-rescue stage transformed or refused.
    pub rescue: RescueSummary,
    /// What TEST collected.
    pub profile: Profile,
    /// Equation 1 + 2 selection.
    pub selection: SelectionResult,
    /// Actual speculative execution of the selected loops.
    pub actual: ActualTls,
    /// Per-stage timings and bus counters (a view reconstructed from
    /// `telemetry`'s registry snapshot).
    pub obs: PipelineObservability,
    /// The run's full observability handles: the metrics registry
    /// behind `obs`, plus the span trace (empty unless
    /// [`ObsConfig::trace`] was set).
    pub telemetry: Telemetry,
}

impl PipelineReport {
    /// Profiling slowdown (Figure 6, optimized annotations). 1.0 for
    /// a degenerate zero-cycle baseline.
    pub fn profiling_slowdown(&self) -> f64 {
        if self.seq_cycles == 0 {
            1.0
        } else {
            self.profile_cycles as f64 / self.seq_cycles as f64
        }
    }

    /// Predicted whole-program normalized execution time
    /// (Figure 10/11: predicted TLS time over sequential time). 1.0
    /// for a degenerate zero-cycle program.
    pub fn predicted_normalized(&self) -> f64 {
        if self.selection.total_cycles == 0 {
            1.0
        } else {
            self.selection.predicted_cycles as f64 / self.selection.total_cycles as f64
        }
    }

    /// Actual whole-program normalized execution time (Figure 11).
    /// 1.0 for a degenerate zero-cycle baseline.
    pub fn actual_normalized(&self) -> f64 {
        if self.actual.baseline_cycles == 0 {
            1.0
        } else {
            self.actual.tls_cycles as f64 / self.actual.baseline_cycles as f64
        }
    }
}

/// Runs the full Jrpm pipeline on `program`.
///
/// ```
/// use jrpm::pipeline::{run_pipeline, PipelineConfig};
/// use tvm::{ProgramBuilder, ElemKind};
///
/// # fn main() -> Result<(), tvm::VmError> {
/// let mut b = ProgramBuilder::new();
/// let main = b.function("main", 0, false, |f| {
///     let (a, i) = (f.local(), f.local());
///     f.ci(256).newarray(ElemKind::Int).st(a);
///     f.for_in(i, 0.into(), 256.into(), |f| {
///         f.arr_set(a, |f| { f.ld(i); }, |f| { f.ld(i).ld(i).imul(); });
///     });
///     f.ret_void();
/// });
/// let program = b.finish(main)?;
/// let report = run_pipeline(&program, &PipelineConfig::default())?;
/// assert!(!report.selection.chosen.is_empty(), "the loop is parallel");
/// assert!(report.actual_normalized() < 0.7, "and Hydra speeds it up");
/// assert!(report.obs.interpreter_passes <= 2);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Any [`VmError`] from the two executions (profiling,
/// trace-collection).
pub fn run_pipeline(program: &Program, cfg: &PipelineConfig) -> Result<PipelineReport, VmError> {
    crate::tier::run_tiered(program, cfg, &crate::tier::TierConfig::immediate()).map(|o| o.report)
}

/// Stages 5–6: recompile only the selected loops, collect TLS traces
/// (one more interpreter pass), and simulate each entry on Hydra.
/// Shared by the offline batch and the tier controller's finalization
/// — both converge on the same selected set, so both produce identical
/// actual-TLS numbers through this single implementation.
pub(crate) fn collect_and_simulate(
    program: &Program,
    candidates: &ProgramCandidates,
    chosen: Vec<LoopId>,
    seq_cycles: u64,
    cfg: &PipelineConfig,
    registry: &Registry,
    stages: &mut StageRecorder<'_>,
) -> Result<ActualTls, VmError> {
    if chosen.is_empty() {
        return Ok(ActualTls {
            per_loop: BTreeMap::new(),
            baseline_cycles: seq_cycles,
            tls_cycles: seq_cycles,
        });
    }
    // recompile only the selected loops and collect TLS traces. This
    // interprets a *differently annotated* program (different
    // timestamps), so it cannot replay the profiling recording.
    let t = stages.begin("collect");
    let spec = annotate(program, candidates, &AnnotateOptions::only(chosen.clone()))?;
    let mut collector = TlsTraceCollector::with_masks(chosen, candidates.tracked_masks());
    registry.counter("pipeline.interpreter_passes").inc();
    let spec_run = Interp::run(&spec, &mut collector)?;
    stages.end("collect", t);

    // simulate each entry on Hydra
    let t = stages.begin("simulate");
    let mut per_loop: BTreeMap<LoopId, LoopTls> = BTreeMap::new();
    let mut total = spec_run.cycles;
    for entry in &collector.entries {
        let r = simulate_entry(entry, &cfg.tls);
        let l = per_loop.entry(entry.loop_id).or_default();
        l.seq_cycles += entry.seq_cycles;
        l.tls_cycles += r.tls_cycles;
        l.violations += r.violations;
        l.overflows += r.overflows;
        l.threads += r.threads;
        total = total.saturating_sub(entry.seq_cycles) + r.tls_cycles;
    }
    stages.end("simulate", t);
    Ok(ActualTls {
        per_loop,
        baseline_cycles: spec_run.cycles,
        tls_cycles: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm::{ElemKind, NullSink, ProgramBuilder};

    /// A loop with abundant parallelism: disjoint writes per iteration.
    fn parallel_program(iters: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, false, |f| {
            let (a, i, k) = (f.local(), f.local(), f.local());
            f.ci(256).newarray(ElemKind::Int).st(a);
            f.for_in(i, 0.into(), iters.into(), |f| {
                // some per-iteration work on a private slice
                f.for_in(k, 0.into(), 20.into(), |f| {
                    f.arr_set(
                        a,
                        |f| {
                            f.ld(i)
                                .ci(8)
                                .imul()
                                .ld(k)
                                .ci(7)
                                .iand()
                                .iadd()
                                .ci(255)
                                .iand();
                        },
                        |f| {
                            f.ld(i).ld(k).imul();
                        },
                    );
                });
            });
            f.ret_void();
        });
        b.finish(main).unwrap()
    }

    /// A pointer-chase-like serial accumulator through memory.
    fn serial_program(iters: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let g = b.global(ElemKind::Int);
        let main = b.function("main", 0, false, |f| {
            let i = f.local();
            f.for_in(i, 0.into(), iters.into(), |f| {
                // g = (g*5+1) via memory: loop-carried through the heap
                f.getstatic(g).ci(5).imul().ci(1).iadd().putstatic(g);
            });
            f.ret_void();
        });
        b.finish(main).unwrap()
    }

    #[test]
    fn parallel_loop_is_selected_and_speeds_up() {
        let p = parallel_program(200);
        let r = run_pipeline(&p, &PipelineConfig::default()).unwrap();
        assert!(
            !r.selection.chosen.is_empty(),
            "expected a selected STL, estimates: {:?}",
            r.selection.estimates
        );
        assert!(
            r.predicted_normalized() < 0.6,
            "{}",
            r.predicted_normalized()
        );
        assert!(r.actual_normalized() < 0.7, "{}", r.actual_normalized());
        // this kernel's inner loop iterates every ~25 cycles, an
        // adversarial case for annotation overhead; the 3-25% claim is
        // checked on the realistic suite in benchsuite/jrpm-bench
        assert!(r.profiling_slowdown() < 1.5, "{}", r.profiling_slowdown());
    }

    /// `g += a[i]*a[i]` — demoted as written (static recurrence), but
    /// rescuable by the reduction delta-rewrite.
    fn reduction_program(iters: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let g = b.global(ElemKind::Int);
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
                        f.ld(i).ci(3).imul();
                    },
                );
            });
            f.for_in(i, 0.into(), iters.into(), |f| {
                f.getstatic(g)
                    .ld(a)
                    .ld(i)
                    .ci(255)
                    .iand()
                    .aload()
                    .ld(a)
                    .ld(i)
                    .ci(255)
                    .iand()
                    .aload()
                    .imul()
                    .iadd()
                    .putstatic(g);
            });
            f.ret_void();
        });
        b.finish(main).unwrap()
    }

    #[test]
    fn rescue_turns_a_demoted_reduction_into_a_selected_stl() {
        let p = reduction_program(400);
        // as written, the reduction loop is demoted and never chosen
        let off = run_pipeline(
            &p,
            &PipelineConfig {
                no_rescue: true,
                ..PipelineConfig::default()
            },
        )
        .unwrap();
        assert!(off.rescue.rescued.is_empty());
        // with rescue on, the delta rewrite removes the recurrence and
        // the loop is selected
        let on = run_pipeline(&p, &PipelineConfig::default()).unwrap();
        assert_eq!(
            on.rescue.rescued.len(),
            1,
            "rejections: {:?}",
            on.rescue.rejected
        );
        assert!(
            on.selection.chosen.len() > off.selection.chosen.len(),
            "rescue did not add a selected STL: {:?} vs {:?}",
            on.selection.chosen,
            off.selection.chosen
        );
        assert!(on.obs.stage_nanos("rescue") > 0);
    }

    #[test]
    fn serial_loop_is_not_selected() {
        let p = serial_program(500);
        let r = run_pipeline(&p, &PipelineConfig::default()).unwrap();
        assert!(
            r.selection.chosen.is_empty(),
            "chose {:?}",
            r.selection.chosen
        );
        assert_eq!(r.actual.tls_cycles, r.actual.baseline_cycles);
    }

    #[test]
    fn prediction_tracks_actual_within_reason() {
        let p = parallel_program(400);
        let r = run_pipeline(&p, &PipelineConfig::default()).unwrap();
        let pred = r.predicted_normalized();
        let act = r.actual_normalized();
        // Figure 11: predictions are good but not perfect
        assert!(
            (pred - act).abs() < 0.35,
            "predicted {pred:.2} vs actual {act:.2}"
        );
    }

    #[test]
    fn derived_baseline_equals_a_real_plain_run() {
        for p in [parallel_program(150), serial_program(300)] {
            let r = run_pipeline(&p, &PipelineConfig::default()).unwrap();
            let plain = Interp::run(&p, &mut NullSink).unwrap();
            assert_eq!(r.seq_cycles, plain.cycles);
        }
    }

    #[test]
    fn pipeline_performs_at_most_two_passes_and_times_stages() {
        let p = parallel_program(100);
        let r = run_pipeline(&p, &PipelineConfig::default()).unwrap();
        assert_eq!(r.obs.interpreter_passes, 2, "profile + collect");
        assert!(r.obs.recorded_events > 0);
        assert!(r.obs.stage_nanos("record") > 0);
        assert!(r.obs.stage_nanos("select") > 0);
        assert!(r.obs.avg_batch_occupancy() > 0.0);
        assert!(r.obs.events_per_sec() > 0.0);

        let serial = run_pipeline(&serial_program(100), &PipelineConfig::default()).unwrap();
        assert_eq!(serial.obs.interpreter_passes, 1, "nothing chosen");
    }

    #[test]
    fn observability_report_is_a_faithful_view_of_the_registry() {
        let p = parallel_program(100);
        let r = run_pipeline(&p, &PipelineConfig::default()).unwrap();
        // the report can be reconstructed from the snapshot verbatim
        let rebuilt = PipelineObservability::from_snapshot(&r.telemetry.snapshot());
        assert_eq!(rebuilt.stages, r.obs.stages);
        assert_eq!(rebuilt.interpreter_passes, r.obs.interpreter_passes);
        assert_eq!(rebuilt.recorded_events, r.obs.recorded_events);
        assert_eq!(rebuilt.by_kind, r.obs.by_kind);
        assert_eq!(rebuilt.bus, r.obs.bus);
        // per-sink counters carry the sink label as a note
        let snap = r.telemetry.snapshot();
        assert_eq!(snap.note("bus.sink.0.label"), "test-tracer");
        assert_eq!(snap.counter("bus.sink.0.events"), r.obs.recorded_events);
        // analyzer attribution landed in the registry and sums to the
        // tracer's total event count
        let attributed: u64 = snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("tracer.analyzer_events."))
            .map(|(_, &v)| v)
            .sum();
        assert_eq!(attributed, r.profile.events);
        assert_eq!(snap.counter("tracer.events"), r.profile.events);
        // no trace requested: the span trace stays empty
        assert_eq!(r.telemetry.trace.event_count(), 0);
    }

    #[test]
    fn tracing_run_emits_nested_stage_spans_and_candidate_series() {
        use obs::{TimeDomain, TrackEventKind};
        let p = parallel_program(100);
        let cfg = PipelineConfig {
            obs: ObsConfig {
                trace: true,
                sample_every: 64,
            },
            ..PipelineConfig::default()
        };
        let r = run_pipeline(&p, &cfg).unwrap();
        let tracks = r.telemetry.trace.tracks();
        let pipeline = tracks
            .iter()
            .find(|t| t.name == "pipeline")
            .expect("pipeline track");
        assert_eq!(pipeline.domain, TimeDomain::Wall);
        assert!(pipeline.open.is_empty(), "all spans closed");
        let begins: Vec<&str> = pipeline
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                TrackEventKind::Begin(n) => Some(n.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(begins[0], "run", "stage spans nest inside the run span");
        for want in ["extract", "annotate", "record", "select"] {
            assert!(begins.contains(&want), "missing stage span {want}");
        }
        // the tracer self-profiling track carries per-candidate series
        let tracer = tracks
            .iter()
            .find(|t| t.name == "tracer")
            .expect("tracer track");
        assert_eq!(tracer.domain, TimeDomain::Cycles);
        let finals: std::collections::BTreeMap<&str, u64> = tracer
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                TrackEventKind::Counter(n, v) if n.starts_with("analyzer.") => {
                    Some((n.as_str(), *v))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            finals.values().sum::<u64>(),
            r.profile.events,
            "per-candidate attribution sums to the recorded total"
        );
        // sink drain activity shows up as its own track
        assert!(tracks.iter().any(|t| t.name == "sink:test-tracer"));
        // and tracing must not change the analysis
        let plain = run_pipeline(&p, &PipelineConfig::default()).unwrap();
        assert_eq!(plain.profile, r.profile);
        assert_eq!(plain.selection.chosen, r.selection.chosen);
    }

    #[test]
    fn ratio_helpers_guard_zero_denominators() {
        let r = PipelineReport {
            seq_cycles: 0,
            profile_cycles: 0,
            annotation: AnnotationCycles::default(),
            candidates: ProgramCandidates::default(),
            rescue: RescueSummary::default(),
            profile: Profile::default(),
            selection: SelectionResult::default(),
            actual: ActualTls::default(),
            obs: PipelineObservability::default(),
            telemetry: Telemetry::default(),
        };
        assert_eq!(r.profiling_slowdown(), 1.0);
        assert_eq!(r.predicted_normalized(), 1.0);
        assert_eq!(r.actual_normalized(), 1.0);
        assert_eq!(r.actual.speedup(), 1.0);
    }
}
