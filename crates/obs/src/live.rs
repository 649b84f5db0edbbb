//! Live telemetry: the flight recorder's thread-local wiring, crash
//! dumps, tail-based request sampling, and alert rules.
//!
//! Four pieces (DESIGN.md §16):
//!
//! * **Recorder installation** — [`install`] binds a
//!   [`FlightRing`] to the current thread; [`emit`] appends to it from
//!   anywhere downstream (the tier controller, batch streaming) with
//!   no plumbing and no cost when nothing is installed. One ring per
//!   worker thread, owned by that worker.
//! * **[`FlightDump`]** — the forensic artifact drained from a
//!   panicking worker's ring: the last N events plus request identity
//!   and the panic message, serialized through [`crate::json`] so the
//!   dump round-trips (`to_json` / `parse`).
//! * **[`TailSampler`]** — per-kind latency histograms plus a bounded
//!   store of full request traces, retained only for requests that
//!   error or land at/above a configured latency quantile. Steady
//!   state keeps nothing; the interesting traces survive.
//! * **Alert rules** — [`evaluate_alerts`] diffs two registry
//!   snapshots and emits structured [`AlertNote`]s for contained
//!   panics, queue-depth high-water, and per-shard starvation. A
//!   healthy run produces an empty vector (pinned by the `serve`
//!   crate's telemetry tests and the `serve` regression gate).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::json::{self, quote, Value};
use crate::metrics::{Histogram, Snapshot};
use crate::ring::{FlightRing, LiveEvent, LiveEventKind};

thread_local! {
    static RECORDER: RefCell<Option<Arc<FlightRing>>> = const { RefCell::new(None) };
}

/// Binds `ring` as the current thread's flight recorder. Subsequent
/// [`emit`] calls on this thread append to it. Returns the previously
/// installed ring, if any.
pub fn install(ring: Arc<FlightRing>) -> Option<Arc<FlightRing>> {
    RECORDER.with(|r| r.borrow_mut().replace(ring))
}

/// Removes and returns the current thread's recorder.
pub fn uninstall() -> Option<Arc<FlightRing>> {
    RECORDER.with(|r| r.borrow_mut().take())
}

/// True when this thread has a recorder installed.
pub fn installed() -> bool {
    RECORDER.with(|r| r.borrow().is_some())
}

/// Appends one event to this thread's recorder; a no-op (one
/// thread-local read) when none is installed.
#[inline]
pub fn emit(kind: LiveEventKind, a: u64, b: u64, c: u64) {
    RECORDER.with(|r| {
        if let Some(ring) = r.borrow().as_ref() {
            ring.emit(kind, a, b, c);
        }
    });
}

/// Drains this thread's recorder (without uninstalling it) — the
/// post-`catch_unwind` read a panicking worker performs on its own
/// ring.
pub fn drain() -> Option<Vec<LiveEvent>> {
    RECORDER.with(|r| r.borrow().as_ref().map(|ring| ring.snapshot()))
}

/// The forensic record of a contained worker panic: identity of the
/// request that blew up plus the worker's recent event tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// Index of the worker (shard) that panicked.
    pub worker: u64,
    /// Id of the request being served when the panic fired.
    pub request_id: u64,
    /// Request kind label (`pipeline`, `tiered`, `replay`, ...).
    pub request_kind: String,
    /// The panic payload, stringified.
    pub panic_message: String,
    /// Total events the ring ever recorded (events lost to wrap-around
    /// = `events_written - events.len()`).
    pub events_written: u64,
    /// The surviving tail of the worker's ring, oldest first.
    pub events: Vec<LiveEvent>,
}

impl FlightDump {
    /// Serializes the dump as a JSON document (via [`crate::json`]).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str("\"version\": 1, ");
        s.push_str(&format!("\"worker\": {}, ", self.worker));
        s.push_str(&format!("\"request_id\": {}, ", self.request_id));
        s.push_str(&format!(
            "\"request_kind\": {}, ",
            quote(&self.request_kind)
        ));
        s.push_str(&format!(
            "\"panic_message\": {}, ",
            quote(&self.panic_message)
        ));
        s.push_str(&format!("\"events_written\": {}, ", self.events_written));
        s.push_str("\"events\": [");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"seq\": {}, \"ts_us\": {}, \"kind\": {}, \"a\": {}, \"b\": {}, \"c\": {}}}",
                ev.seq,
                ev.ts_us,
                quote(ev.kind.name()),
                ev.a,
                ev.b,
                ev.c
            ));
        }
        s.push_str("]}");
        s
    }

    /// Parses a dump back from its JSON form.
    ///
    /// # Errors
    ///
    /// [`json::ParseError`] on malformed JSON or a document missing
    /// required fields.
    pub fn parse(text: &str) -> Result<FlightDump, json::ParseError> {
        let doc = json::parse(text)?;
        let missing = |field: &str| json::ParseError {
            msg: format!("flight dump missing or mistyped field '{field}'"),
            at: 0,
        };
        let num = |field: &str| {
            doc.get(field)
                .and_then(Value::as_u64)
                .ok_or_else(|| missing(field))
        };
        let text_field = |field: &str| {
            doc.get(field)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| missing(field))
        };
        let mut events = Vec::new();
        for (i, ev) in doc
            .get("events")
            .and_then(Value::as_arr)
            .ok_or_else(|| missing("events"))?
            .iter()
            .enumerate()
        {
            let evnum = |field: &str| {
                ev.get(field)
                    .and_then(Value::as_u64)
                    .ok_or_else(|| json::ParseError {
                        msg: format!("flight dump event {i} missing field '{field}'"),
                        at: 0,
                    })
            };
            let kind_name = ev
                .get("kind")
                .and_then(Value::as_str)
                .ok_or_else(|| missing("events[].kind"))?;
            let kind = LiveEventKind::from_name(kind_name).ok_or_else(|| json::ParseError {
                msg: format!("flight dump event {i} has unknown kind '{kind_name}'"),
                at: 0,
            })?;
            events.push(LiveEvent {
                seq: evnum("seq")?,
                ts_us: evnum("ts_us")?,
                kind,
                a: evnum("a")?,
                b: evnum("b")?,
                c: evnum("c")?,
            });
        }
        Ok(FlightDump {
            worker: num("worker")?,
            request_id: num("request_id")?,
            request_kind: text_field("request_kind")?,
            panic_message: text_field("panic_message")?,
            events_written: num("events_written")?,
            events,
        })
    }

    /// Writes the dump into `dir` as
    /// `flightdump-w<worker>-r<request_id>.json` and returns the path.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating the directory or writing the file.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!(
            "flightdump-w{}-r{}.json",
            self.worker, self.request_id
        ));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(self.to_json().as_bytes())?;
        Ok(path)
    }
}

/// Tail-sampling policy.
#[derive(Debug, Clone, Copy)]
pub struct TailConfig {
    /// Latency quantile at/above which a request's trace is retained
    /// (per request kind).
    pub quantile: f64,
    /// Observations of a kind required before its quantile threshold
    /// is trusted; below this only erroring requests are retained.
    pub warmup: u64,
    /// Maximum retained traces (oldest evicted first).
    pub keep: usize,
}

impl Default for TailConfig {
    fn default() -> TailConfig {
        TailConfig {
            quantile: 0.99,
            warmup: 32,
            keep: 64,
        }
    }
}

/// One retained request trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTrace {
    /// Request id.
    pub id: u64,
    /// Request kind label.
    pub kind: String,
    /// End-to-end worker latency in nanoseconds.
    pub latency_nanos: u64,
    /// The error answer, if the request failed.
    pub error: Option<String>,
    /// Pipeline stage spans `(stage, nanos)` captured for the request
    /// (empty for request shapes without stage observability).
    pub stages: Vec<(String, u64)>,
}

impl RequestTrace {
    /// The trace as a JSON object.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"id\": {}, \"kind\": {}, \"latency_nanos\": {}, \"error\": ",
            self.id,
            quote(&self.kind),
            self.latency_nanos
        );
        match &self.error {
            Some(e) => s.push_str(&quote(e)),
            None => s.push_str("null"),
        }
        s.push_str(", \"stages\": [");
        for (i, (stage, nanos)) in self.stages.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"stage\": {}, \"nanos\": {nanos}}}",
                quote(stage)
            ));
        }
        s.push_str("]}");
        s
    }
}

/// The smallest latency the sampler retains, given the distribution so
/// far: the first value *above* the log₂ bucket holding the
/// `q`-quantile estimate. Bucket-resolved on purpose — with log₂
/// buckets an in-bucket threshold would retain the whole mode bucket
/// whenever latencies concentrate, which is exactly the steady state
/// tail sampling must keep cheap.
fn tail_threshold(snap: &crate::metrics::HistogramSnapshot, q: f64) -> u64 {
    let bucket = crate::metrics::bucket_index(snap.quantile(q));
    crate::metrics::bucket_bounds(bucket).1.saturating_add(1)
}

#[derive(Debug, Default)]
struct TailState {
    hists: std::collections::BTreeMap<String, Histogram>,
    kept: VecDeque<RequestTrace>,
    observed: u64,
    retained: u64,
}

/// Tail-based request sampler: shared across a server's workers,
/// records every latency, keeps only the interesting traces.
#[derive(Debug)]
pub struct TailSampler {
    cfg: TailConfig,
    state: Mutex<TailState>,
}

impl TailSampler {
    /// Creates a sampler with `cfg`.
    pub fn new(cfg: TailConfig) -> TailSampler {
        TailSampler {
            cfg,
            state: Mutex::new(TailState::default()),
        }
    }

    /// The policy in force.
    pub fn config(&self) -> TailConfig {
        self.cfg
    }

    /// Records one finished request and decides retention. Returns
    /// true when the trace was kept (erroring request, or latency at
    /// or above the kind's warm quantile threshold).
    pub fn observe(&self, trace: RequestTrace) -> bool {
        let mut st = self.state.lock().expect("tail sampler poisoned");
        st.observed += 1;
        let hist = st.hists.entry(trace.kind.clone()).or_default();
        // threshold from observations *before* this one, so a lone
        // slow request cannot raise the bar on itself
        let snap = hist.snapshot();
        hist.record(trace.latency_nanos);
        let threshold = if snap.count >= self.cfg.warmup {
            Some(tail_threshold(&snap, self.cfg.quantile))
        } else {
            None
        };
        let keep = trace.error.is_some() || threshold.is_some_and(|t| trace.latency_nanos >= t);
        if keep {
            st.retained += 1;
            st.kept.push_back(trace);
            while st.kept.len() > self.cfg.keep.max(1) {
                st.kept.pop_front();
            }
        }
        keep
    }

    /// The currently retained traces, oldest first.
    pub fn traces(&self) -> Vec<RequestTrace> {
        let st = self.state.lock().expect("tail sampler poisoned");
        st.kept.iter().cloned().collect()
    }

    /// `(observed, retained)` request totals.
    pub fn totals(&self) -> (u64, u64) {
        let st = self.state.lock().expect("tail sampler poisoned");
        (st.observed, st.retained)
    }

    /// The warm retention threshold for `kind` (smallest latency that
    /// would be retained), if enough observations have accumulated.
    pub fn threshold(&self, kind: &str) -> Option<u64> {
        let st = self.state.lock().expect("tail sampler poisoned");
        let snap = st.hists.get(kind)?.snapshot();
        if snap.count >= self.cfg.warmup {
            Some(tail_threshold(&snap, self.cfg.quantile))
        } else {
            None
        }
    }

    /// The retained traces as a JSON array.
    pub fn traces_json(&self) -> String {
        let traces = self.traces();
        let mut s = String::from("[");
        for (i, t) in traces.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&t.to_json());
        }
        s.push(']');
        s
    }
}

/// Alert thresholds evaluated over registry snapshot deltas.
#[derive(Debug, Clone, Copy)]
pub struct AlertConfig {
    /// Maximum tolerated contained panics over the window.
    pub max_panics: u64,
    /// Queue-depth high-water mark at/above which the queue counts as
    /// saturated (`u64::MAX` disables the rule — a closed-loop
    /// benchmark saturates its queue by design).
    pub max_queue_high_water: u64,
    /// Minimum total request delta before per-shard starvation is
    /// judged (avoids flagging idle servers).
    pub starvation_min_requests: u64,
}

impl Default for AlertConfig {
    fn default() -> AlertConfig {
        AlertConfig {
            max_panics: 0,
            max_queue_high_water: u64::MAX,
            starvation_min_requests: 8,
        }
    }
}

/// One fired alert rule.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertNote {
    /// Rule identifier (`panics`, `queue_saturated`, `shard_starved`).
    pub rule: String,
    /// `warn` or `crit`.
    pub severity: String,
    /// Human-readable description.
    pub message: String,
    /// The observed value.
    pub value: f64,
    /// The threshold it breached.
    pub threshold: f64,
}

impl AlertNote {
    /// The note as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rule\": {}, \"severity\": {}, \"message\": {}, \"value\": {}, \
             \"threshold\": {}}}",
            quote(&self.rule),
            quote(&self.severity),
            quote(&self.message),
            fmt_f64(self.value),
            fmt_f64(self.threshold)
        )
    }
}

/// Finite JSON rendering of a threshold (`u64::MAX as f64` and
/// friends stay representable; NaN/inf clamp to 0/max).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

/// Renders fired alerts as a JSON array.
pub fn alerts_json(alerts: &[AlertNote]) -> String {
    let mut s = String::from("[");
    for (i, a) in alerts.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&a.to_json());
    }
    s.push(']');
    s
}

/// Sum of the deltas of every counter whose name ends with `suffix`.
fn delta_sum(prev: &Snapshot, cur: &Snapshot, suffix: &str) -> u64 {
    cur.counters
        .iter()
        .filter(|(name, _)| name.ends_with(suffix))
        .map(|(name, &v)| v.saturating_sub(prev.counter(name)))
        .sum()
}

/// Evaluates the alert rules over the delta from `prev` to `cur`.
/// Returns the fired alerts; empty on a healthy window.
pub fn evaluate_alerts(prev: &Snapshot, cur: &Snapshot, cfg: &AlertConfig) -> Vec<AlertNote> {
    let mut out = Vec::new();

    // -- contained panics ----------------------------------------------
    let panics = delta_sum(prev, cur, ".panics");
    if panics > cfg.max_panics {
        out.push(AlertNote {
            rule: "panics".to_string(),
            severity: "crit".to_string(),
            message: format!("{panics} contained worker panic(s) over the window"),
            value: panics as f64,
            threshold: cfg.max_panics as f64,
        });
    }

    // -- queue saturation: high-water mark against the bound -----------
    let high_water = cur.counter("serve.queue.high_water");
    if cfg.max_queue_high_water != u64::MAX && high_water >= cfg.max_queue_high_water {
        out.push(AlertNote {
            rule: "queue_saturated".to_string(),
            severity: "warn".to_string(),
            message: format!(
                "job-queue depth high-water {high_water} reached the saturation \
                 bound {}",
                cfg.max_queue_high_water
            ),
            value: high_water as f64,
            threshold: cfg.max_queue_high_water as f64,
        });
    }

    // -- per-shard starvation ------------------------------------------
    let shard_deltas: Vec<(String, u64)> = cur
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("serve.worker.") && name.ends_with(".requests"))
        .map(|(name, &v)| (name.clone(), v.saturating_sub(prev.counter(name))))
        .collect();
    let total: u64 = shard_deltas.iter().map(|(_, d)| d).sum();
    if shard_deltas.len() > 1 && total >= cfg.starvation_min_requests {
        for (name, d) in &shard_deltas {
            if *d == 0 {
                out.push(AlertNote {
                    rule: "shard_starved".to_string(),
                    severity: "warn".to_string(),
                    message: format!("{name} served 0 of the {total} requests in the window"),
                    value: 0.0,
                    threshold: cfg.starvation_min_requests as f64,
                });
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn emit_is_a_no_op_without_a_recorder() {
        assert!(!installed());
        emit(LiveEventKind::RequestBegin, 1, 2, 3); // must not panic
        assert!(drain().is_none());
    }

    #[test]
    fn install_emit_drain_round_trip() {
        let ring = Arc::new(FlightRing::new(8));
        assert!(install(Arc::clone(&ring)).is_none());
        assert!(installed());
        emit(LiveEventKind::RequestBegin, 42, 1, 0);
        emit(LiveEventKind::RequestEnd, 42, 999, 0);
        let events = drain().expect("recorder installed");
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, LiveEventKind::RequestBegin);
        assert_eq!(events[1].b, 999);
        assert!(uninstall().is_some());
        assert!(!installed());
    }

    #[test]
    fn recorder_is_per_thread() {
        let ring = Arc::new(FlightRing::new(8));
        install(Arc::clone(&ring));
        std::thread::spawn(|| {
            assert!(!installed());
            emit(LiveEventKind::QueueDepth, 1, 1, 0); // silently dropped
        })
        .join()
        .unwrap();
        assert_eq!(ring.snapshot().len(), 0);
        uninstall();
    }

    #[test]
    fn flight_dump_round_trips_through_json() {
        let dump = FlightDump {
            worker: 3,
            request_id: 17,
            request_kind: "replay_mapped".to_string(),
            panic_message: "table size 3 is not a power of two \"quoted\"\n".to_string(),
            events_written: 900,
            events: vec![
                LiveEvent {
                    seq: 898,
                    ts_us: 1000,
                    kind: LiveEventKind::RequestBegin,
                    a: 17,
                    b: 4,
                    c: 0,
                },
                LiveEvent {
                    seq: 899,
                    ts_us: 1009,
                    kind: LiveEventKind::BatchConsumed,
                    a: 17,
                    b: 512,
                    c: 0,
                },
            ],
        };
        let text = dump.to_json();
        let parsed = FlightDump::parse(&text).expect("dump parses");
        assert_eq!(parsed, dump);
    }

    #[test]
    fn flight_dump_parse_rejects_malformed_documents() {
        assert!(FlightDump::parse("not json").is_err());
        assert!(FlightDump::parse("{}").is_err());
        let err = FlightDump::parse(
            r#"{"version": 1, "worker": 0, "request_id": 1, "request_kind": "replay",
                "panic_message": "x", "events_written": 1,
                "events": [{"seq": 0, "ts_us": 0, "kind": "martian", "a": 0, "b": 0, "c": 0}]}"#,
        )
        .expect_err("unknown kind rejected");
        assert!(err.msg.contains("martian"), "{err}");
    }

    #[test]
    fn flight_dump_writes_to_disk() {
        let dir = std::env::temp_dir().join(format!("obs-live-{}", std::process::id()));
        let dump = FlightDump {
            worker: 1,
            request_id: 2,
            request_kind: "pipeline".to_string(),
            panic_message: "boom".to_string(),
            events_written: 0,
            events: Vec::new(),
        };
        let path = dump.write_to(&dir).expect("dump writes");
        let text = std::fs::read_to_string(&path).expect("dump readable");
        assert_eq!(FlightDump::parse(&text).unwrap(), dump);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tail_sampler_keeps_errors_and_slow_requests_only() {
        let sampler = TailSampler::new(TailConfig {
            quantile: 0.9,
            warmup: 10,
            keep: 8,
        });
        let mk = |id: u64, latency: u64, error: Option<&str>| RequestTrace {
            id,
            kind: "pipeline".to_string(),
            latency_nanos: latency,
            error: error.map(str::to_string),
            stages: vec![("extract".to_string(), latency / 2)],
        };
        // cold sampler: fast healthy requests are not retained
        for id in 0..20 {
            let kept = sampler.observe(mk(id, 1_000, None));
            assert!(!kept, "request {id} retained while healthy and fast");
        }
        // errors are always retained, warm or cold
        assert!(sampler.observe(mk(100, 1_000, Some("vm error"))));
        // a tail outlier above the warm quantile is retained
        let threshold = sampler.threshold("pipeline").expect("warm after 20 obs");
        assert!(sampler.observe(mk(101, threshold.max(1) * 64, None)));
        let traces = sampler.traces();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].id, 100);
        assert_eq!(traces[1].id, 101);
        let (observed, retained) = sampler.totals();
        assert_eq!((observed, retained), (22, 2));
        // the store is bounded
        for id in 0..100 {
            sampler.observe(mk(200 + id, 1_000, Some("e")));
        }
        assert_eq!(sampler.traces().len(), 8);
        // and the JSON form parses
        let doc = json::parse(&sampler.traces_json()).expect("traces JSON parses");
        assert_eq!(doc.as_arr().unwrap().len(), 8);
    }

    fn serve_snapshot(requests: &[u64], panics: u64, high_water: u64) -> Snapshot {
        let r = Registry::new();
        for (i, &n) in requests.iter().enumerate() {
            r.counter(&format!("serve.worker.{i}.requests")).add(n);
        }
        r.counter("serve.worker.0.panics").add(panics);
        r.counter("serve.queue.high_water").record_max(high_water);
        r.snapshot()
    }

    #[test]
    fn healthy_window_fires_no_alerts() {
        let prev = serve_snapshot(&[0, 0], 0, 0);
        let cur = serve_snapshot(&[10, 12], 0, 2);
        assert_eq!(
            evaluate_alerts(&prev, &cur, &AlertConfig::default()),
            vec![]
        );
    }

    #[test]
    fn panic_saturation_and_starvation_rules_fire() {
        let prev = serve_snapshot(&[0, 0], 0, 0);
        let cur = serve_snapshot(&[20, 0], 2, 9);
        let cfg = AlertConfig {
            max_queue_high_water: 8,
            ..AlertConfig::default()
        };
        let alerts = evaluate_alerts(&prev, &cur, &cfg);
        let rules: Vec<&str> = alerts.iter().map(|a| a.rule.as_str()).collect();
        assert!(rules.contains(&"panics"), "{rules:?}");
        assert!(rules.contains(&"queue_saturated"), "{rules:?}");
        assert!(rules.contains(&"shard_starved"), "{rules:?}");
        // and the JSON form parses back with every rule present
        let doc = json::parse(&alerts_json(&alerts)).expect("alerts JSON parses");
        assert_eq!(doc.as_arr().unwrap().len(), alerts.len());
    }

    #[test]
    fn idle_and_single_shard_windows_never_flag_starvation() {
        // idle: below the minimum request delta
        let prev = serve_snapshot(&[0, 0], 0, 0);
        let cur = serve_snapshot(&[3, 0], 0, 0);
        assert!(evaluate_alerts(&prev, &cur, &AlertConfig::default()).is_empty());
        // single shard: nothing to compare against
        let prev = serve_snapshot(&[0], 0, 0);
        let cur = serve_snapshot(&[50], 0, 0);
        assert!(evaluate_alerts(&prev, &cur, &AlertConfig::default()).is_empty());
    }
}
