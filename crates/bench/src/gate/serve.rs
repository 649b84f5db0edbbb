//! The `serve` gate: the profiling server under closed-loop load.
//!
//! Records the Small suite once, then measures **direct** replay (each
//! recording streamed into a fresh tracer, a worker's work minus the
//! queue, on `min(WORKERS, cores)` threads), **replay** (`CLIENTS`
//! clients driving the same `ReplayMapped` requests through a default
//! server) and **pipeline** (the clients submitting Small pipeline
//! requests). A second server runs with the flight recorder and tail
//! sampler off (`ring_capacity: 0`); both are started and warmed once,
//! then driven for [`PAIRS`] pairs, which one goes first alternating,
//! each pair followed by one direct run.
//!
//! Gated in the `headline` row: `server_vs_direct` (median over pairs
//! of server over direct events/sec on the same threads) may fall
//! 15 %; `replay_vs_pipeline_p50` may grow 50 %; both must be positive,
//! so a degenerate run never becomes the baseline; the median signed
//! per-pair `recorder_overhead_frac` is at most 5 %; `contained_panics`
//! and `alerts` (the default rules over the loaded window) are 0.
//! Counts are exact; times and rates only have to be present.
//!
//! `effective_cores` is exact too: the ratios depend on how many
//! threads the host gives direct replay, so the baseline holds for one
//! core count. On a host with another, the gate fails until
//! `gate --update serve` refreshes the baseline there. With more than
//! one core the note also reports direct replay's true scaling (N
//! threads over 1, measured after the pairs), ungated.

use std::path::{Path, PathBuf};
use std::time::Instant;

use benchsuite::{Benchmark, DataSize};
use jrpm::pipeline::PipelineConfig;
use obs::live::{alerts_json, evaluate_alerts, AlertConfig};
use serve::{ProfileRequest, ProfileResponse, Server, ServerConfig, DEFAULT_REPLAY_BATCH};
use test_tracer::{TestTracer, TracerConfig};
use tvm::record::{MappedRecording, RecordingSink};
use tvm::trace::TraceSink;
use tvm::Interp;

use super::{broken, get, rows_json, Gate, Measured, Row, Rows, Rule, Tolerance};

/// Server worker threads.
pub const WORKERS: usize = 4;
/// Concurrent closed-loop clients.
pub const CLIENTS: usize = 4;
/// Passes over the suite per client per replay drive: short drives
/// keep each pair's two drives under the same host conditions.
pub const ROUNDS: usize = 1;
/// Passes over the suite per client in the pipeline phase.
pub const PIPELINE_ROUNDS: usize = 3;
/// Alternating recorder-off/recorder-on drive pairs.
pub const PAIRS: usize = 91;
/// Largest tolerated fall of `server_vs_direct`.
pub const MAX_RATIO_DROP: f64 = 0.15;
/// Largest tolerated growth of `replay_vs_pipeline_p50`.
pub const MAX_TAIL_GROWTH: f64 = 0.50;
/// Largest tolerated events/sec cost of the flight recorder and tail
/// sampler.
pub const MAX_RECORDER_OVERHEAD: f64 = 0.05;

/// See the module documentation.
pub struct Serve;

/// `num / den`, or 0 when that is not a finite number, so the document
/// never carries one.
fn ratio(num: f64, den: f64) -> f64 {
    let r = num / den;
    if r.is_finite() {
        r
    } else {
        0.0
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs.get(xs.len() / 2).copied().unwrap_or(0.0)
}

/// Rounds to `places` decimals so the document stays readable.
fn round(x: f64, places: i32) -> f64 {
    let scale = 10f64.powi(places);
    (x * scale).round() / scale
}

#[derive(Default)]
struct Phase {
    events: u64,
    wall_nanos: u64,
    /// Every request's latency, sorted by [`Phase::row`].
    latencies: Vec<u64>,
}

impl Phase {
    /// Runs every job of `lists` (one thread per list), each job
    /// returning its event count; adds the run to the phase and
    /// returns the run's events/sec.
    fn run<J: Sync>(&mut self, lists: &[Vec<J>], job: impl Fn(&J) -> u64 + Sync) -> f64 {
        let job = &job;
        let started = Instant::now();
        let events: u64 = std::thread::scope(|s| {
            let threads: Vec<_> = lists
                .iter()
                .map(|list| {
                    s.spawn(move || {
                        let mut events = 0;
                        let mut latencies = Vec::with_capacity(list.len());
                        for j in list {
                            let t = Instant::now();
                            events += job(j);
                            latencies.push(t.elapsed().as_nanos() as u64);
                        }
                        (events, latencies)
                    })
                })
                .collect();
            let mut events = 0;
            for t in threads {
                let (n, latencies) = t.join().expect("driver thread");
                events += n;
                self.latencies.extend(latencies);
            }
            events
        });
        let wall = started.elapsed().as_nanos() as u64;
        self.events += events;
        self.wall_nanos += wall;
        ratio(events as f64 * 1e9, wall as f64)
    }

    /// The latency quantile `q`, exact (nearest rank).
    fn quantile(&mut self, q: f64) -> f64 {
        self.latencies.sort_unstable();
        let rank = (q * self.latencies.len() as f64).ceil() as usize;
        self.latencies
            .get(rank.saturating_sub(1))
            .map_or(0.0, |&v| v as f64)
    }

    fn row(&mut self, name: &'static str) -> Row {
        let eps = ratio(self.events as f64 * 1e9, self.wall_nanos as f64);
        Row {
            name,
            fields: vec![
                ("requests", self.latencies.len() as f64),
                ("events", self.events as f64),
                ("wall_nanos", self.wall_nanos as f64),
                ("events_per_sec", round(eps, 1)),
                ("latency_p50_nanos", self.quantile(0.50)),
                ("latency_p99_nanos", self.quantile(0.99)),
            ],
        }
    }
}

fn start(ring_capacity: usize) -> Server {
    Server::start(ServerConfig {
        workers: WORKERS,
        queue_depth: WORKERS * 2,
        ring_capacity,
        ..ServerConfig::default()
    })
}

fn replay(server: &Server, path: &Path) -> u64 {
    let req = ProfileRequest::ReplayMapped {
        path: path.to_path_buf(),
        tracer: TracerConfig::default(),
        batch_capacity: DEFAULT_REPLAY_BATCH,
    };
    match server.profile(req) {
        Ok(ProfileResponse::Profile { events, .. }) => events,
        other => panic!("{}: replay failed: {other:?}", path.display()),
    }
}

/// What one server worker does for a `ReplayMapped` request, minus
/// the queue.
fn direct(path: &Path) -> u64 {
    let mapped = MappedRecording::open(path).expect("recording maps");
    let view = mapped.view().expect("recording validates");
    let mut tracer = TestTracer::new(TracerConfig::default());
    let events = view
        .stream_batches(DEFAULT_REPLAY_BATCH, |b| tracer.consume_batch(b))
        .expect("recording streams");
    let _ = tracer.into_profile();
    events
}

/// Deals `jobs` round-robin onto `threads` lists.
fn deal<J: Clone>(jobs: &[J], threads: usize) -> Vec<Vec<J>> {
    (0..threads)
        .map(|t| jobs.iter().skip(t).step_by(threads).cloned().collect())
        .collect()
}

fn panics(server: Server) -> u64 {
    let snap = server.shutdown().snapshot();
    (0..WORKERS)
        .map(|i| snap.counter(&format!("serve.worker.{i}.panics")))
        .sum()
}

impl Gate for Serve {
    fn name(&self) -> &'static str {
        "serve"
    }

    fn measure(&self) -> Measured {
        let suite = benchsuite::all();
        let dir = std::env::temp_dir().join(format!("jrpm-gate-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir for recordings");
        let paths: Vec<PathBuf> = suite
            .iter()
            .map(|b| {
                let mut sink = RecordingSink::new();
                Interp::run(&(b.build)(DataSize::Small), &mut sink).expect("benchmark records");
                let path = dir.join(format!("{}.tvmr", b.name));
                sink.into_recording().save(&path).expect("recording saves");
                path
            })
            .collect();
        // each client's drive: ROUNDS passes over the suite, start
        // offsets staggered so clients do not convoy
        let clients: Vec<Vec<PathBuf>> = (0..CLIENTS)
            .map(|c| {
                (0..ROUNDS * paths.len())
                    .map(|i| paths[(i % paths.len() + c + i / paths.len()) % paths.len()].clone())
                    .collect()
            })
            .collect();
        let cores = WORKERS.min(std::thread::available_parallelism().map_or(1, usize::from));
        let threads = deal(&clients.concat(), cores);

        let (on, off) = (start(ServerConfig::default().ring_capacity), start(0));
        let window_start = on.registry().snapshot();
        for p in &paths {
            replay(&on, p);
            replay(&off, p);
        }
        let (mut served, mut direct_phase) = (Phase::default(), Phase::default());
        let (mut overheads, mut vs_direct, mut directs) = (Vec::new(), Vec::new(), Vec::new());
        for pair in 0..PAIRS {
            let drive = |server: &Server, phase: &mut Phase| {
                phase.run(&clients, |p: &PathBuf| replay(server, p))
            };
            let (on_eps, off_eps) = if pair % 2 == 0 {
                let off_eps = drive(&off, &mut Phase::default());
                (drive(&on, &mut served), off_eps)
            } else {
                let on_eps = drive(&on, &mut served);
                (on_eps, drive(&off, &mut Phase::default()))
            };
            let direct_eps = direct_phase.run(&threads, |p: &PathBuf| direct(p));
            overheads.push(1.0 - ratio(on_eps, off_eps));
            vs_direct.push(ratio(on_eps, direct_eps));
            directs.push(direct_eps);
        }
        // direct replay's true scaling, measured after the pairs: the
        // median N-thread run over the best of three 1-thread runs
        let scaling = (cores > 1).then(|| {
            let single = deal(&clients.concat(), 1);
            let one_eps = (0..3)
                .map(|_| Phase::default().run(&single, |p| direct(p)))
                .fold(0.0, f64::max);
            ratio(median(directs), one_eps)
        });
        let mut pipeline = Phase::default();
        let cfg = PipelineConfig::default();
        let programs: Vec<Vec<&Benchmark>> = (0..CLIENTS)
            .map(|c| {
                suite
                    .iter()
                    .cycle()
                    .skip(c)
                    .take(PIPELINE_ROUNDS * suite.len())
                    .collect()
            })
            .collect();
        pipeline.run(&programs, |b| {
            let program = (b.build)(DataSize::Small);
            on.profile(ProfileRequest::Pipeline { program, cfg })
                .unwrap_or_else(|e| panic!("{}: pipeline request failed: {e}", b.name));
            0
        });
        let alerts = evaluate_alerts(
            &window_start,
            &on.registry().snapshot(),
            &AlertConfig::default(),
        );
        let contained_panics = panics(on) + panics(off);
        let _ = std::fs::remove_dir_all(&dir);

        let (overhead, vs_direct) = (median(overheads), median(vs_direct));
        let tail = ratio(served.quantile(0.50), pipeline.quantile(0.50));
        let rows = [
            Row {
                name: "config",
                fields: vec![
                    ("benchmarks", suite.len() as f64),
                    ("workers", WORKERS as f64),
                    ("clients", CLIENTS as f64),
                    ("rounds", ROUNDS as f64),
                    ("pipeline_rounds", PIPELINE_ROUNDS as f64),
                    ("pairs", PAIRS as f64),
                    ("effective_cores", cores as f64),
                ],
            },
            direct_phase.row("direct"),
            served.row("replay"),
            pipeline.row("pipeline"),
            Row {
                name: "headline",
                fields: vec![
                    ("server_vs_direct", round(vs_direct, 4)),
                    ("replay_vs_pipeline_p50", round(tail, 4)),
                    ("recorder_overhead_frac", round(overhead, 4)),
                    ("contained_panics", contained_panics as f64),
                    ("alerts", alerts.len() as f64),
                ],
            },
        ];
        let mut note = format!(
            "server_vs_direct {vs_direct:.3} on {cores} thread(s), replay/pipeline p50 \
             {tail:.3}, recorder overhead {:+.1}% (median of {PAIRS} pairs)",
            overhead * 100.0
        );
        if let Some(scaling) = scaling {
            note.push_str(&format!(
                ", direct scaling {scaling:.2}x on {cores} threads (ungated)"
            ));
        }
        if !alerts.is_empty() {
            note.push_str(&format!(", alerts fired: {}", alerts_json(&alerts)));
        }
        Measured {
            doc: rows_json("sections", &rows),
            live: Vec::new(),
            note,
        }
    }

    fn invariants(&self, cur: &Rows) -> Vec<String> {
        use Rule::*;
        let mut out = broken(
            cur,
            &[
                AtMost("recorder_overhead_frac", MAX_RECORDER_OVERHEAD),
                Is("contained_panics", 0.0),
                Is("alerts", 0.0),
                Somewhere("server_vs_direct"),
                Somewhere("replay_vs_pipeline_p50"),
            ],
        );
        for phase in ["direct", "replay"] {
            if cur.get(phase).is_none_or(|r| get(r, "events") <= 0.0) {
                out.push(format!("{phase} traced no events"));
            }
        }
        out
    }

    fn tolerance(&self, field: &str) -> Tolerance {
        match field {
            "server_vs_direct" => Tolerance::MaxDrop(MAX_RATIO_DROP),
            "replay_vs_pipeline_p50" => Tolerance::MaxGrowth(MAX_TAIL_GROWTH),
            "wall_nanos"
            | "events_per_sec"
            | "latency_p50_nanos"
            | "latency_p99_nanos"
            | "recorder_overhead_frac" => Tolerance::Any,
            _ => Tolerance::Exact,
        }
    }
}
