//! The end-to-end Jrpm pipeline (paper Figure 1), staged over the
//! trace bus.
//!
//! The pipeline is a sequence of explicit stages — extract, rescue,
//! annotate, record, replay-profile, select, collect, simulate — with the
//! trace-event stream as the IR between execution and analysis. The
//! annotated program is interpreted **once**, streaming its events
//! into the TEST tracer through a [`tvm::bus::TraceBus`]: the
//! interpreter fills one reused [`tvm::bus::EventBatch`] and each full
//! batch is profiled before execution continues, so the trace is never
//! stored. That one pass is timed as two stages: `replay-profile` is
//! the time spent inside the tracer (the bus's drain time) and
//! `record` the rest of the pass.
//! The plain sequential baseline is *derived*, not re-executed: the
//! interpreter tallies annotation-instruction cycles separately
//! ([`AnnotationCycles`]), and since the annotation pass only inserts
//! annotation instructions, `annotated − annotation = plain` exactly.
//! That cuts the pipeline from three interpreter executions to two
//! (profiling + TLS collection; the latter runs a differently
//! annotated program, so it cannot share the profiling stream without
//! changing timestamps).
//!
//! [`run_pipeline`] is the one straight-line batch: extract and rescue,
//! annotate once for profiling, then a tail it shares with the online
//! tier ([`crate::tier::run_tiered`]): the profiling pass, selection,
//! collection and simulation, and the report. The tier opens its run
//! the same way and ends in the same tail, so both book the same
//! stages and produce the same numbers through one implementation.
//!
//! The collection pass streams as well: each loop entry is simulated
//! on Hydra as soon as the collector closes it, and its trace is
//! dropped, so the pass holds at most one finished entry. Its wall
//! time splits into `simulate` (time inside the solver) and `collect`
//! (the rest) under one `collect` span.
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
use cfgir::{
    distance_floors, extract_candidates, rescue_extracted, ProgramCandidates, RescueRejection,
    RescuedLoop,
};
use hydra_sim::{simulate_entry, TlsConfig, TlsTraceCollector};
use obs::{Registry, Snapshot, Telemetry, Trace as ObsTrace, TrackId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;
use test_tracer::{select_with_distances, Profile, SelectionResult, TestTracer, TracerConfig};
use tvm::bus::{BusReport, EventKind, KindCounts, SinkStats, TraceBus};
use tvm::interp::{AnnotationCycles, FinalState, RunResult};
use tvm::isa::{LoopId, Pc};
use tvm::program::Program;
use tvm::trace::{Addr, Cycles, TraceSink};
use tvm::{Interp, NoHook, VmError, DEFAULT_BATCH_CAPACITY};

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
    /// Interpreter executions performed (at most 2 in the batch; the
    /// online tier adds one per interpreted epoch).
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

/// Stage bookkeeping of one run: its telemetry, one registry counter
/// per stage (sequence-numbered so snapshots preserve execution order)
/// and, when the run is traced, a span on the `pipeline` wall track.
pub(crate) struct StageRecorder {
    pub(crate) telemetry: Telemetry,
    /// The `pipeline` track; `Some` exactly when the run is traced.
    track: Option<TrackId>,
    seq: u32,
}

impl StageRecorder {
    /// Fresh telemetry, with the `pipeline` track when `traced`.
    pub(crate) fn new(traced: bool) -> StageRecorder {
        let telemetry = Telemetry::new();
        let track = traced.then(|| telemetry.trace.track("pipeline"));
        StageRecorder {
            telemetry,
            track,
            seq: 0,
        }
    }

    pub(crate) fn registry(&self) -> &Registry {
        &self.telemetry.registry
    }

    /// The run's span trace, when the run is traced.
    pub(crate) fn trace(&self) -> Option<&Arc<ObsTrace>> {
        self.track.map(|_| &self.telemetry.trace)
    }

    fn span(&self) -> Option<(&ObsTrace, TrackId)> {
        self.track.map(|t| (&*self.telemetry.trace, t))
    }

    pub(crate) fn begin(&self, name: &str) -> Instant {
        if let Some((tr, t)) = self.span() {
            tr.begin(t, name);
        }
        Instant::now()
    }

    pub(crate) fn end(&mut self, name: &str, started: Instant) {
        self.count(name, started.elapsed().as_nanos() as u64);
        if let Some((tr, t)) = self.span() {
            tr.end(t, name);
        }
    }

    /// Ends a streamed profiling pass begun as `record`. Its wall time
    /// splits into `record` (interpreting and batching) and
    /// `replay-profile` (the sinks' drain time).
    /// Returns the pass's wall time, in nanoseconds.
    pub(crate) fn end_streamed(&mut self, started: Instant, report: &BusReport) -> u64 {
        let drain: u64 = report.sinks.iter().map(|s| s.drain_nanos).sum();
        self.end_split(started, "record", "replay-profile", drain)
    }

    /// Ends a pass begun as stage `name` whose wall time holds
    /// `inner_nanos` of work booked as stage `inner`: `name` gets the
    /// rest, so the stage counters still sum to the wall time, and one
    /// `name` span covers the pass. Returns the pass's wall time, in
    /// nanoseconds.
    fn end_split(&mut self, started: Instant, name: &str, inner: &str, inner_nanos: u64) -> u64 {
        let wall = started.elapsed().as_nanos() as u64;
        self.count(name, wall.saturating_sub(inner_nanos));
        self.count(inner, inner_nanos);
        if let Some((tr, t)) = self.span() {
            tr.end(t, name);
        }
        wall
    }

    fn count(&mut self, name: &str, nanos: u64) {
        self.telemetry
            .registry
            .counter(&format!("pipeline.stage.{:02}.{name}", self.seq))
            .add(nanos);
        self.seq += 1;
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
    // 1.–1b. identify candidate STLs and rescue demoted loops
    let mut run = PipelineRun::start(program, cfg);

    // 2. annotate every candidate for profiling (loops the static
    //    pre-screen demoted are left unannotated, so the tracer
    //    spends no banks on them)
    let t = run.stages.begin("annotate");
    let annotated = annotate(
        run.program(),
        &run.candidates,
        &AnnotateOptions::profiling(),
    )?;
    run.stages.end("annotate", t);

    // 3. interpret the annotated program ONCE — execution pass 1 —
    //    streaming its events into TEST over the bus, one batch at a
    //    time
    let (state, profile) = run.profile(&annotated, None)?;

    // 4. select decompositions, solving the distance floors in the
    //    stage; 5.–6. collect TLS traces for the chosen loops and
    //    simulate them
    let selection = run.select(&profile, state.result.cycles, &BTreeSet::new(), None);
    run.finish(state.result, profile, selection)
}

/// One pipeline run from its start to its report, shared by the batch
/// ([`run_pipeline`]) and the online tier ([`crate::tier::run_tiered`]).
/// Both open it alike — telemetry, then extraction and rescue — and end
/// it alike: [`PipelineRun::profile`] over the full profiling image,
/// [`PipelineRun::select`], then [`PipelineRun::finish`]. What lies
/// between is the driver's own: one-shot annotation, or the tier's
/// epochs and incremental patches.
pub(crate) struct PipelineRun<'a> {
    cfg: &'a PipelineConfig,
    original: &'a Program,
    pub(crate) stages: StageRecorder,
    /// Candidates of the post-rescue program.
    pub(crate) candidates: ProgramCandidates,
    rescue: RescueSummary,
}

impl<'a> PipelineRun<'a> {
    /// Opens the run's telemetry (and its `run` span when traced), then
    /// runs stages 1 and 1b: extract the candidate STLs with their
    /// pre-screen verdicts, and try to rescue the demoted loops whose
    /// recurrence is a reduction (a delta-rewrite into private partial
    /// sums). Every applied rewrite carries a legality proof re-checked
    /// by the independent verifier. Rescue starts from this extraction
    /// and hands back the one of any program it rewrites, so no
    /// program is extracted twice.
    ///
    /// The whole-program points-to solve that sharpens the pre-screen
    /// runs inside `extract`, and its statistics ride along as
    /// `pointsto.*` counters (so the committed obs baseline keeps its
    /// stage list); the rescue outcome is counted as `rescue.applied`
    /// and `rescue.rejections`.
    pub(crate) fn start(original: &'a Program, cfg: &'a PipelineConfig) -> PipelineRun<'a> {
        let mut stages = StageRecorder::new(cfg.obs.trace);
        let registry = Arc::clone(&stages.telemetry.registry);
        registry
            .counter("pipeline.batch_capacity")
            .record_max(DEFAULT_BATCH_CAPACITY as u64);
        if let Some((tr, t)) = stages.span() {
            tr.begin(t, "run");
        }

        let t = stages.begin("extract");
        let candidates = extract_candidates(original);
        stages.end("extract", t);
        let ps = candidates.pointsto.stats();
        for (name, v) in [
            ("pointsto.abstract_objects", ps.abstract_objects as u64),
            ("pointsto.variables", ps.variables as u64),
            ("pointsto.constraint_edges", ps.constraint_edges as u64),
            ("pointsto.iterations", ps.iterations as u64),
            ("pointsto.wall_nanos", ps.wall_nanos),
        ] {
            registry.counter(name).add(v);
            if let Some((tr, track)) = stages.span() {
                tr.counter(track, name, v);
            }
        }

        let t = stages.begin("rescue");
        let (candidates, rescue) = if cfg.no_rescue {
            (candidates, RescueSummary::default())
        } else {
            let (out, rescued) = rescue_extracted(original, &candidates);
            let candidates = rescued.unwrap_or(candidates);
            let changed = !out.rescued.is_empty();
            let rescue = RescueSummary {
                rescued: out.rescued,
                rejected: out.rejected,
                program: changed.then_some(out.program),
            };
            (candidates, rescue)
        };
        stages.end("rescue", t);
        registry
            .counter("rescue.applied")
            .add(rescue.rescued.len() as u64);
        registry
            .counter("rescue.rejections")
            .add(rescue.rejected.len() as u64);
        PipelineRun {
            cfg,
            original,
            stages,
            candidates,
            rescue,
        }
    }

    /// The program everything after rescue reads.
    pub(crate) fn program(&self) -> &Program {
        self.rescue.program_for(self.original)
    }

    /// The profiling pass: one run of `image` streamed into a fresh TEST
    /// tracer (with its spans and series when the run is traced), timed
    /// as the `record` and `replay-profile` stages, with the bus and
    /// tracer counters recorded.
    ///
    /// `held` is an online epoch that already ran this very image
    /// through the same tracer configuration: its bits are taken instead
    /// of interpreting again. Its (near-zero) wall time is booked as
    /// `record`, with 0 as `replay-profile` and as every sink's
    /// `drain_nanos`, so the sinks' drain work stays booked once, under
    /// `epochs`, and `replay-profile` still equals the summed drains.
    pub(crate) fn profile(
        &mut self,
        image: &Program,
        held: Option<TracedRun>,
    ) -> Result<(FinalState, Profile), VmError> {
        let stages = &mut self.stages;
        let registry = Arc::clone(&stages.telemetry.registry);
        let run = match held {
            Some(mut run) => {
                registry.counter("tier.reused_epochs").inc();
                let t = stages.begin("record");
                for sink in &mut run.report.sinks {
                    sink.drain_nanos = 0;
                }
                stages.end_streamed(t, &run.report);
                run
            }
            None => {
                registry.counter("pipeline.interpreter_passes").inc();
                let trace = stages.trace().cloned();
                let mut tracer =
                    TestTracer::with_masks(self.cfg.tracer, self.candidates.tracked_masks());
                if let Some(tr) = &trace {
                    tracer.set_obs(Arc::clone(tr), self.cfg.obs.sample_every);
                }
                let t = stages.begin("record");
                let mut bus = TraceBus::new().sink("test-tracer", &mut tracer);
                if let Some(tr) = trace {
                    bus = bus.observe(tr);
                }
                let (state, report) = bus.run(image, &mut NoHook)?;
                stages.end_streamed(t, &report);
                TracedRun {
                    profile: tracer.into_profile(),
                    state,
                    report,
                }
            }
        };
        record_bus_report(&registry, &run.report);
        record_tracer_profile(&registry, &run.profile);
        Ok((run.state, run.profile))
    }

    /// Stage 4, `select`: Equations 1 and 2 over `profile`, from a run
    /// of `profile_cycles`, with the static verdicts and the `dynamic`
    /// demotions as priors and scev distance floors bounding the
    /// speculative overlap of proven RAW chains. `floors` are floors
    /// the caller solved already; `None` solves them here, in the stage.
    pub(crate) fn select(
        &mut self,
        profile: &Profile,
        profile_cycles: u64,
        dynamic: &BTreeSet<LoopId>,
        floors: Option<&BTreeMap<LoopId, u32>>,
    ) -> SelectionResult {
        let t = self.stages.begin("select");
        let solved;
        let floors = match floors {
            Some(floors) => floors,
            None => {
                solved = distance_floors(self.program(), &self.candidates);
                &solved
            }
        };
        let mut priors = self.candidates.demoted_ids();
        priors.extend(dynamic.iter().copied());
        let selection = select_with_distances(
            profile,
            &self.cfg.tls.estimator_params(),
            profile_cycles,
            &priors,
            floors,
        );
        self.stages.end("select", t);
        selection
    }

    /// Stages 5–6 and the report: collect and simulate the chosen loops,
    /// close the run, and assemble its report. The plain sequential
    /// baseline is derived exactly from `prof_run`: the annotation pass
    /// only inserts annotation instructions, and the interpreter tallies
    /// their cycles separately while charging them.
    pub(crate) fn finish(
        mut self,
        prof_run: RunResult,
        profile: Profile,
        selection: SelectionResult,
    ) -> Result<PipelineReport, VmError> {
        let seq_cycles = prof_run.cycles - prof_run.annotation_cycles.total();
        let actual = collect_and_simulate(
            self.rescue.program_for(self.original),
            &self.candidates,
            selection.chosen.iter().map(|c| c.loop_id).collect(),
            seq_cycles,
            self.cfg,
            &mut self.stages,
        )?;
        if let Some((tr, t)) = self.stages.span() {
            tr.end(t, "run");
        }
        let telemetry = self.stages.telemetry;
        let obs = PipelineObservability::from_snapshot(&telemetry.registry.snapshot());
        Ok(PipelineReport {
            seq_cycles,
            profile_cycles: prof_run.cycles,
            annotation: prof_run.annotation_cycles,
            candidates: self.candidates,
            rescue: self.rescue,
            profile,
            selection,
            actual,
            obs,
            telemetry,
        })
    }
}

/// A run streamed into a fresh tracer: everything the profiling pass
/// reads back.
pub(crate) struct TracedRun {
    pub(crate) profile: Profile,
    pub(crate) state: FinalState,
    pub(crate) report: BusReport,
}

/// Stages 5–6: recompile only the selected loops, collect TLS traces
/// (one more interpreter pass), and simulate each entry on Hydra.
///
/// The pass streams: each loop entry is simulated as soon as the
/// collector closes it, and its trace is dropped, so at most one
/// finished [`hydra_sim::EntryTrace`] is alive at a time. One `collect`
/// span covers the pass; its wall time splits into `simulate` (the
/// summed [`simulate_entry`] time) and `collect` (the rest).
fn collect_and_simulate(
    program: &Program,
    candidates: &ProgramCandidates,
    chosen: Vec<LoopId>,
    seq_cycles: u64,
    cfg: &PipelineConfig,
    stages: &mut StageRecorder,
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
    // timestamps), so it cannot reuse the profiling stream.
    let t = stages.begin("collect");
    let spec = annotate(program, candidates, &AnnotateOptions::only(chosen.clone()))?;
    let mut sink = SimulatingSink::new(
        TlsTraceCollector::with_masks(chosen, candidates.tracked_masks()),
        &cfg.tls,
    );
    stages
        .registry()
        .counter("pipeline.interpreter_passes")
        .inc();
    let spec_run = Interp::run(&spec, &mut sink)?;
    stages.end_split(t, "collect", "simulate", sink.sim_nanos);
    Ok(sink.finish(spec_run.cycles))
}

/// The collect pass's sink: forwards every event to the collector and,
/// whenever a `loop_exit` closes an entry, simulates the entry on Hydra
/// at once and drops its trace. Batches arrive through the default
/// [`TraceSink::consume_batch`], which replays them through the
/// per-event methods below, so no `loop_exit` bypasses the drain.
struct SimulatingSink<'a> {
    collector: TlsTraceCollector,
    tls: &'a TlsConfig,
    per_loop: BTreeMap<LoopId, LoopTls>,
    /// `(seq_cycles, tls_cycles)` of every entry, in collection order.
    entries: Vec<(u64, u64)>,
    /// Time spent in [`simulate_entry`], in nanoseconds.
    sim_nanos: u64,
}

impl<'a> SimulatingSink<'a> {
    fn new(collector: TlsTraceCollector, tls: &'a TlsConfig) -> Self {
        SimulatingSink {
            collector,
            tls,
            per_loop: BTreeMap::new(),
            entries: Vec::new(),
            sim_nanos: 0,
        }
    }

    /// Simulates and drops every entry the collector has closed.
    fn drain(&mut self) {
        for entry in self.collector.entries.drain(..) {
            let t = Instant::now();
            let r = simulate_entry(&entry, self.tls);
            self.sim_nanos += t.elapsed().as_nanos() as u64;
            let l = self.per_loop.entry(entry.loop_id).or_default();
            l.seq_cycles += entry.seq_cycles;
            l.tls_cycles += r.tls_cycles;
            l.violations += r.violations;
            l.overflows += r.overflows;
            l.threads += r.threads;
            self.entries.push((entry.seq_cycles, r.tls_cycles));
        }
    }

    /// The actual-TLS outcome of a pass that ran `baseline_cycles`:
    /// each entry's sequential cycles are replaced by its TLS cycles,
    /// in collection order.
    fn finish(self, baseline_cycles: u64) -> ActualTls {
        let tls_cycles = self
            .entries
            .iter()
            .fold(baseline_cycles, |total, &(seq, tls)| {
                total.saturating_sub(seq) + tls
            });
        ActualTls {
            per_loop: self.per_loop,
            baseline_cycles,
            tls_cycles,
        }
    }
}

impl TraceSink for SimulatingSink<'_> {
    fn heap_load(&mut self, addr: Addr, now: Cycles, pc: Pc) {
        self.collector.heap_load(addr, now, pc);
    }

    fn heap_store(&mut self, addr: Addr, now: Cycles, pc: Pc) {
        self.collector.heap_store(addr, now, pc);
    }

    fn static_store(&mut self, global: u16, value: i64, now: Cycles, pc: Pc) {
        self.collector.static_store(global, value, now, pc);
    }

    fn local_load(&mut self, var: u16, activation: u32, now: Cycles, pc: Pc) {
        self.collector.local_load(var, activation, now, pc);
    }

    fn local_store(&mut self, var: u16, activation: u32, now: Cycles, pc: Pc) {
        self.collector.local_store(var, activation, now, pc);
    }

    fn loop_enter(&mut self, loop_id: LoopId, n_locals: u16, activation: u32, now: Cycles) {
        self.collector
            .loop_enter(loop_id, n_locals, activation, now);
    }

    fn loop_iter(&mut self, loop_id: LoopId, now: Cycles) {
        self.collector.loop_iter(loop_id, now);
    }

    fn loop_exit(&mut self, loop_id: LoopId, now: Cycles) {
        self.collector.loop_exit(loop_id, now);
        self.drain();
    }

    fn stats_read(&mut self, loop_id: LoopId, now: Cycles) {
        self.collector.stats_read(loop_id, now);
    }

    fn call_enter(&mut self, site: Pc, activation: u32, now: Cycles) {
        self.collector.call_enter(site, activation, now);
    }

    fn call_exit(&mut self, site: Pc, now: Cycles) {
        self.collector.call_exit(site, now);
    }

    fn call_result_use(&mut self, site: Pc, now: Cycles) {
        self.collector.call_result_use(site, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm::trace::CountingSink;
    use tvm::{ElemKind, NoHook, NullSink, ProgramBuilder, TraceBus};

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
    fn streamed_pass_splits_its_wall_time_between_record_and_replay_profile() {
        let p = parallel_program(100);
        let mut stages = StageRecorder::new(false);
        let mut sink = CountingSink::default();
        let t = stages.begin("record");
        let (_, report) = TraceBus::new()
            .sink("count", &mut sink)
            .run(&p, &mut NoHook)
            .unwrap();
        let wall = stages.end_streamed(t, &report);
        let obs = PipelineObservability::from_snapshot(&stages.registry().snapshot());
        let names: Vec<&str> = obs.stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(names, ["record", "replay-profile"]);
        assert_eq!(
            obs.stage_nanos("record") + obs.stage_nanos("replay-profile"),
            wall
        );
        assert_eq!(
            obs.stage_nanos("replay-profile"),
            report.sinks[0].drain_nanos
        );
    }

    /// The collect stage as it was before it streamed: collect every
    /// entry of the pass, then simulate them all.
    fn collect_then_simulate(
        program: &Program,
        candidates: &ProgramCandidates,
        chosen: Vec<LoopId>,
        seq_cycles: u64,
        cfg: &PipelineConfig,
    ) -> ActualTls {
        if chosen.is_empty() {
            return ActualTls {
                per_loop: BTreeMap::new(),
                baseline_cycles: seq_cycles,
                tls_cycles: seq_cycles,
            };
        }
        let spec = annotate(program, candidates, &AnnotateOptions::only(chosen.clone())).unwrap();
        let mut collector = TlsTraceCollector::with_masks(chosen, candidates.tracked_masks());
        let spec_run = Interp::run(&spec, &mut collector).unwrap();
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
        ActualTls {
            per_loop,
            baseline_cycles: spec_run.cycles,
            tls_cycles: total,
        }
    }

    fn chosen_ids(r: &PipelineReport) -> Vec<LoopId> {
        r.selection.chosen.iter().map(|c| c.loop_id).collect()
    }

    #[test]
    fn streamed_collect_matches_collect_then_simulate_on_the_small_suite() {
        let cfg = PipelineConfig::default();
        let mut with_entries = 0;
        for bench in benchsuite::all() {
            let original = (bench.build)(benchsuite::DataSize::Small);
            let r = run_pipeline(&original, &cfg).unwrap();
            let want = collect_then_simulate(
                r.rescue.program_for(&original),
                &r.candidates,
                chosen_ids(&r),
                r.seq_cycles,
                &cfg,
            );
            assert_eq!(r.actual.per_loop, want.per_loop, "{}", bench.name);
            assert_eq!(
                r.actual.baseline_cycles, want.baseline_cycles,
                "{}",
                bench.name
            );
            assert_eq!(r.actual.tls_cycles, want.tls_cycles, "{}", bench.name);
            with_entries += usize::from(!want.per_loop.is_empty());
        }
        assert!(
            with_entries >= 20,
            "only {with_entries} programs chose a loop"
        );
    }

    /// A parallel loop inside a serial one: the outer loop carries a
    /// recurrence through a static, so only the inner loop is chosen,
    /// and it is entered once per outer iteration.
    fn repeated_parallel_program(outer: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let g = b.global(ElemKind::Int);
        let main = b.function("main", 0, false, |f| {
            let (a, j, i) = (f.local(), f.local(), f.local());
            f.ci(256).newarray(ElemKind::Int).st(a);
            f.for_in(j, 0.into(), outer.into(), |f| {
                f.getstatic(g).ci(5).imul().ci(1).iadd().putstatic(g);
                f.for_in(i, 0.into(), 64.into(), |f| {
                    f.arr_set(
                        a,
                        |f| {
                            f.ld(i).ci(255).iand();
                        },
                        |f| {
                            f.ld(i).ld(j).imul().ld(i).imul();
                        },
                    );
                });
            });
            f.ret_void();
        });
        b.finish(main).unwrap()
    }

    #[test]
    fn streaming_sink_holds_at_most_one_finished_entry() {
        use tvm::record::RecordingSink;
        let cfg = PipelineConfig::default();
        let p = repeated_parallel_program(12);
        let r = run_pipeline(&p, &cfg).unwrap();
        let chosen = chosen_ids(&r);
        assert!(!chosen.is_empty(), "{:?}", r.selection.estimates);
        // record the collect pass, then feed it one event at a time
        let spec = annotate(&p, &r.candidates, &AnnotateOptions::only(chosen.clone())).unwrap();
        let mut recorder = RecordingSink::new();
        let run = Interp::run(&spec, &mut recorder).unwrap();
        let recording = recorder.into_recording();
        let mut sink = SimulatingSink::new(
            TlsTraceCollector::with_masks(chosen, r.candidates.tracked_masks()),
            &cfg.tls,
        );
        for &event in &recording.events {
            let simulated = sink.entries.len();
            event.deliver(&mut sink);
            assert!(sink.collector.entries.is_empty(), "a closed entry was kept");
            assert!(sink.entries.len() <= simulated + 1);
        }
        assert_eq!(sink.entries.len(), 12, "one entry per outer iteration");
        let actual = sink.finish(run.cycles);
        assert_eq!(actual.per_loop, r.actual.per_loop);
        assert_eq!(actual.tls_cycles, r.actual.tls_cycles);
    }

    #[test]
    fn streamed_collect_splits_its_wall_time_between_collect_and_simulate() {
        let cfg = PipelineConfig::default();
        let p = repeated_parallel_program(12);
        let r = run_pipeline(&p, &cfg).unwrap();
        let chosen = chosen_ids(&r);
        let spec = annotate(&p, &r.candidates, &AnnotateOptions::only(chosen.clone())).unwrap();
        let mut stages = StageRecorder::new(false);
        let mut sink = SimulatingSink::new(
            TlsTraceCollector::with_masks(chosen, r.candidates.tracked_masks()),
            &cfg.tls,
        );
        let t = stages.begin("collect");
        Interp::run(&spec, &mut sink).unwrap();
        let wall = stages.end_split(t, "collect", "simulate", sink.sim_nanos);
        let obs = PipelineObservability::from_snapshot(&stages.registry().snapshot());
        let names: Vec<&str> = obs.stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(names, ["collect", "simulate"]);
        assert_eq!(
            obs.stage_nanos("collect") + obs.stage_nanos("simulate"),
            wall
        );
        assert_eq!(obs.stage_nanos("simulate"), sink.sim_nanos);
        assert!(sink.sim_nanos > 0);
        // the pipeline books the same two stages, last and in order
        let names: Vec<&str> = r.obs.stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(names[names.len() - 2..], ["collect", "simulate"]);
        assert!(r.obs.stage_nanos("simulate") > 0);
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
