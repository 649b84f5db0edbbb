//! Unified observability layer for the TEST pipeline.
//!
//! Six pieces, all dependency-free:
//!
//! * [`metrics`] — a thread-safe [`Registry`] of named counters,
//!   gauges, and log₂-bucket histograms. Instruments are lock-free
//!   atomics behind `Arc`; the registry snapshots to sorted maps so
//!   two runs diff cleanly.
//! * [`span`] — nested span tracing over named tracks in two time
//!   domains (wall-clock microseconds and simulated analyzer cycles),
//!   with counter series and instant markers. Misnested spans panic.
//! * [`chrome`] — exports traces as Chrome trace-event JSON, loadable
//!   in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
//! * [`ring`] — the flight recorder: a fixed-capacity, lock-free ring
//!   of recent structured events, one per worker thread.
//! * [`live`] — streaming telemetry over the recorder: thread-local
//!   [`live::emit`], crash-forensic [`FlightDump`]s, tail-based
//!   request sampling, and alert rules over snapshot deltas.
//! * [`expo`] — Prometheus-style text exposition of a snapshot (and a
//!   parser for it), what the server's `/metrics` endpoint serves.
//!
//! [`Telemetry`] bundles one registry and one trace for threading
//! through a pipeline run. The naming scheme instrumented code uses is
//! documented in DESIGN.md §11; the short version:
//!
//! * `pipeline.stage.<NN>.<name>` — per-stage wall nanoseconds, `NN`
//!   preserving execution order
//! * `bus.*`, `bus.kind.<kind>`, `bus.sink.<i>.*` — trace-bus totals,
//!   per-event-kind counts, and per-sink delivery counters
//! * `tracer.*` — analyzer self-profiling: per-candidate event
//!   attribution (`tracer.analyzer_events.<loop>`) and structure
//!   watermarks
//!
//! [`Registry`]: metrics::Registry

pub mod chrome;
pub mod expo;
pub mod json;
pub mod live;
pub mod metrics;
pub mod ring;
pub mod span;

pub use chrome::chrome_json;
pub use live::{
    evaluate_alerts, AlertConfig, AlertNote, FlightDump, RequestTrace, TailConfig, TailSampler,
};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot};
pub use ring::{FlightRing, LiveEvent, LiveEventKind};
pub use span::{SpanGuard, TimeDomain, Trace, Track, TrackEvent, TrackEventKind, TrackId};

use std::sync::Arc;

/// One pipeline run's observability handles: a metrics registry plus a
/// span trace, cheaply cloneable and shareable across threads.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Named counters/gauges/histograms for the run.
    pub registry: Arc<Registry>,
    /// Span/counter tracks for the run.
    pub trace: Arc<Trace>,
}

impl Telemetry {
    /// Fresh, empty telemetry.
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// Sorted snapshot of the registry.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }
}
