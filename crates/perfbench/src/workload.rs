//! The workloads: what each one runs, its set-up, and its measured
//! window.
//!
//! Every workload is a closed loop from this one process. The batch
//! and tiered workloads call the library on one thread; `serve-mixed`
//! drives a `serve::Server` from as many client threads as it has
//! workers, never more than the machine's parallelism. The seed only
//! shuffles the order of programs and requests.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use benchsuite::DataSize;
use jrpm::pipeline::{run_pipeline, PipelineConfig, PipelineReport};
use jrpm::tier::{run_tiered, TierConfig};
use serve::{
    ProfileRequest, ProfileResponse, ServeError, Server, ServerConfig, DEFAULT_REPLAY_BATCH,
};
use test_tracer::{TestTracer, TracerConfig};
use tvm::record::MappedRecording;
use tvm::trace::TraceSink;
use tvm::{Program, VmError};

use crate::oracle::{profiling_recording, size_name, Oracle};
use crate::stats::{geomean, median, percentile};
use crate::sys::{available_parallelism, nproc, peak_rss_mb, Rng, ScratchDir};

/// Names of the workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "batch-small",
    "batch-default",
    "tiered-small",
    "serve-mixed",
];

/// How many times an untraced run sets up; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `run_pipeline` over the suite at `DataSize::Small`: short
    /// programs, so static analysis is a visible share of each call.
    BatchSmall,
    /// `run_pipeline` at `DataSize::Default`, the paper's input sizes:
    /// interpretation, the tracer and Hydra dominate.
    BatchDefault,
    /// `run_tiered` (online) at `DataSize::Small`: the same layers
    /// driven through repeated epochs and incremental patching.
    TieredSmall,
    /// The profiling server under a mix of Small `Pipeline` requests
    /// and `ReplayMapped` requests over Default recordings.
    ServeMixed,
}

/// Which library call a workload's operations make.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `jrpm::run_pipeline`.
    Pipeline,
    /// `jrpm::run_tiered` with `TierConfig::default()`.
    Tiered,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Pipeline => "pipeline",
            Op::Tiered => "tiered",
        }
    }

    /// Runs the call on `program`.
    ///
    /// # Errors
    ///
    /// The call's [`VmError`].
    pub fn call(self, program: &Program) -> Result<PipelineReport, VmError> {
        let cfg = PipelineConfig::default();
        match self {
            Op::Pipeline => run_pipeline(program, &cfg),
            Op::Tiered => run_tiered(program, &cfg, &TierConfig::default()).map(|o| o.report),
        }
    }
}

impl Workload {
    /// All workloads, in [`WORKLOADS`] order.
    pub const ALL: [Workload; 4] = [
        Workload::BatchSmall,
        Workload::BatchDefault,
        Workload::TieredSmall,
        Workload::ServeMixed,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        WORKLOADS[self as usize]
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Size of the programs the workload runs through the pipeline.
    pub fn size(self) -> DataSize {
        match self {
            Workload::BatchDefault => DataSize::Default,
            _ => DataSize::Small,
        }
    }

    /// Size of the programs whose recordings it replays.
    pub fn replay_size(self) -> DataSize {
        match self {
            Workload::BatchDefault | Workload::ServeMixed => DataSize::Default,
            _ => DataSize::Small,
        }
    }

    /// The library call behind its operations.
    pub fn op(self) -> Op {
        match self {
            Workload::TieredSmall => Op::Tiered,
            _ => Op::Pipeline,
        }
    }
}

/// Server workers (and closed-loop clients): two, or fewer on a
/// smaller machine.
pub fn serve_workers() -> usize {
    available_parallelism().min(2)
}

/// Operations attempted and failed, with each failure printed to
/// standard error under the program's name.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that errored or disagreed with the oracle.
    pub failed: u64,
}

impl Tally {
    /// Counts one checked operation.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("perfbench: FAILED {what}: {e}");
        }
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One suite program.
#[derive(Debug, Clone)]
pub struct Prog {
    /// Its Table 6 name.
    pub name: &'static str,
    /// The built program.
    pub program: Program,
}

fn build(size: DataSize) -> Vec<Prog> {
    benchsuite::all()
        .into_iter()
        .map(|b| Prog {
            name: b.name,
            program: (b.build)(size),
        })
        .collect()
}

/// One request of a server mix: the workload's operation on program
/// `i`, or a replay of program `i`'s recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    /// The workload's [`Op`] on `programs[i]`.
    Op(usize),
    /// `ReplayMapped` of `recordings[i]`.
    Replay(usize),
}

/// A workload's prepared inputs.
#[derive(Debug)]
pub struct Fixture {
    /// The workload.
    pub workload: Workload,
    /// Its programs, at [`Workload::size`].
    pub programs: Vec<Prog>,
    /// Profiling recordings at [`Workload::replay_size`], by program
    /// name (empty when the run replays nothing).
    pub recordings: Vec<(&'static str, PathBuf)>,
    _dir: Option<ScratchDir>,
}

fn err_text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Fixture {
    /// Builds the programs, checks each against an independent plain
    /// interpreter run, and (when `with_recordings`) records and saves
    /// the profiling streams of the replay-size programs.
    ///
    /// # Errors
    ///
    /// Failure to create the scratch directory or save a recording.
    pub fn prepare(
        workload: Workload,
        with_recordings: bool,
        tag: &str,
        oracle: &Oracle,
        tally: &mut Tally,
    ) -> Result<Fixture, String> {
        let size = workload.size();
        let programs = build(size);
        for p in &programs {
            let label = format!("{} ({}, plain run)", p.name, size_name(size));
            tally.check(&label, oracle.check_plain(p.name, size, &p.program));
        }
        let mut recordings = Vec::new();
        let mut dir = None;
        if with_recordings {
            let d = ScratchDir::new(tag).map_err(|e| format!("scratch directory: {e}"))?;
            let rsize = workload.replay_size();
            let replayed = if rsize == size {
                programs.clone()
            } else {
                build(rsize)
            };
            for p in &replayed {
                let label = format!("{} ({}, recording)", p.name, size_name(rsize));
                if rsize != size {
                    tally.check(&label, oracle.check_plain(p.name, rsize, &p.program));
                }
                match profiling_recording(&p.program) {
                    Ok(rec) => {
                        let path = d.path().join(format!("{}.tvmr", p.name));
                        rec.save(&path).map_err(|e| format!("{label}: save: {e}"))?;
                        recordings.push((p.name, path));
                    }
                    Err(e) => tally.check(&label, Err(e.to_string())),
                }
            }
            dir = Some(d);
        }
        Ok(Fixture {
            workload,
            programs,
            recordings,
            _dir: dir,
        })
    }

    /// One un-timed, checked pass of the workload's operation over the
    /// programs.
    pub fn warm_up(&self, oracle: &Oracle, tally: &mut Tally) {
        for i in 0..self.programs.len() {
            tally.check(&self.label(Req::Op(i)), self.in_process(Req::Op(i), oracle));
        }
    }

    /// The server mix: the operation on every program plus a replay of
    /// every recording.
    pub fn mix(&self) -> Vec<Req> {
        (0..self.programs.len())
            .map(Req::Op)
            .chain((0..self.recordings.len()).map(Req::Replay))
            .collect()
    }

    /// `name (kind, size)` of a request, for failure reports.
    pub fn label(&self, req: Req) -> String {
        let w = self.workload;
        match req {
            Req::Op(i) => format!(
                "{} ({}, {})",
                self.programs[i].name,
                w.op().name(),
                size_name(w.size())
            ),
            Req::Replay(i) => format!(
                "{} (replay_mapped, {})",
                self.recordings[i].0,
                size_name(w.replay_size())
            ),
        }
    }

    /// The request as the server takes it.
    pub fn request(&self, req: Req) -> ProfileRequest {
        let cfg = PipelineConfig::default();
        match req {
            Req::Op(i) => {
                let program = self.programs[i].program.clone();
                match self.workload.op() {
                    Op::Pipeline => ProfileRequest::Pipeline { program, cfg },
                    Op::Tiered => ProfileRequest::Tiered {
                        program,
                        cfg,
                        tier: TierConfig::default(),
                    },
                }
            }
            Req::Replay(i) => ProfileRequest::ReplayMapped {
                path: self.recordings[i].1.clone(),
                tracer: TracerConfig::default(),
                batch_capacity: DEFAULT_REPLAY_BATCH,
            },
        }
    }

    /// Checks a server answer against the oracle.
    ///
    /// # Errors
    ///
    /// The `ServeError`, a response of the wrong shape, or the first
    /// mismatching output.
    pub fn check_response(
        &self,
        req: Req,
        resp: Result<ProfileResponse, ServeError>,
        oracle: &Oracle,
    ) -> Result<(), String> {
        let resp = resp.map_err(err_text)?;
        let w = self.workload;
        match (req, &resp) {
            (Req::Op(i), _) => {
                let report = resp
                    .report()
                    .ok_or("a replay answer to a pipeline request")?;
                oracle.check_report(self.programs[i].name, w.size(), report)
            }
            (Req::Replay(i), ProfileResponse::Profile { profile, events }) => oracle.check_replay(
                self.recordings[i].0,
                w.replay_size(),
                *events,
                Some(profile),
            ),
            (Req::Replay(_), _) => Err("a pipeline answer to a replay request".into()),
        }
    }

    /// Does a request's work in-process, as a server worker would, and
    /// checks the result.
    ///
    /// # Errors
    ///
    /// The failure or the first mismatching output.
    pub fn in_process(&self, req: Req, oracle: &Oracle) -> Result<(), String> {
        let w = self.workload;
        match req {
            Req::Op(i) => {
                let p = &self.programs[i];
                let r = w.op().call(&p.program).map_err(err_text)?;
                oracle.check_report(p.name, w.size(), &r)
            }
            Req::Replay(i) => {
                let (name, path) = &self.recordings[i];
                let mapped = MappedRecording::open(path).map_err(err_text)?;
                let view = mapped.view().map_err(err_text)?;
                let mut tracer = TestTracer::new(TracerConfig::default());
                let events = view
                    .stream_batches(DEFAULT_REPLAY_BATCH, |b| tracer.consume_batch(b))
                    .map_err(err_text)?;
                oracle.check_replay(name, w.replay_size(), events, Some(&tracer.into_profile()))
            }
        }
    }
}

/// What one run reports: the final result line and the config block.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Operations checked, set-up checks included.
    pub attempted: u64,
    /// Operations that failed or disagreed with the oracle.
    pub failed: u64,
    /// `(name, value)` of every reported metric.
    pub metrics: Vec<(&'static str, f64)>,
    /// `(key, JSON value)` of the machine/config block.
    pub config: Vec<(&'static str, String)>,
}

/// The machine half of every config block.
pub fn machine_config() -> Vec<(&'static str, String)> {
    vec![
        ("nproc", nproc().to_string()),
        ("available_parallelism", available_parallelism().to_string()),
        ("os", format!("\"{}\"", std::env::consts::OS)),
        ("arch", format!("\"{}\"", std::env::consts::ARCH)),
    ]
}

/// A prepared workload, ready for its window.
struct Ready {
    fixture: Fixture,
    server: Option<Server>,
}

/// Latencies of one measured window.
#[derive(Debug, Default)]
struct Window {
    wall: Duration,
    /// Load threads that ran operations side by side.
    threads: usize,
    /// Every operation's latency in milliseconds, grouped per program
    /// (per program and request kind for the server). The oracle checks
    /// between operations are not part of any latency.
    groups: Vec<Vec<f64>>,
    /// Time the load threads spent checking outputs, summed over them.
    checking: Duration,
}

impl Window {
    /// Operations completed.
    fn ops(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
    }

    /// Each group's least latency. A group repeats the same
    /// deterministic work on every call, so what varies between its
    /// calls is interference from whatever else shares the machine,
    /// which only ever adds time.
    fn lows(&self) -> Vec<f64> {
        self.groups
            .iter()
            .filter_map(|g| g.iter().copied().reduce(f64::min))
            .collect()
    }

    /// Share of the load threads' window time spent checking outputs.
    fn check_share(&self) -> f64 {
        self.checking.as_secs_f64() / (self.threads as f64 * self.wall.as_secs_f64())
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A server with `workers` shards and a flight-recorder ring of
/// `ring_capacity` events per worker (0 turns the recorder off). Panic
/// dumps stay in memory, so a run writes nothing outside its scratch
/// directory.
pub fn server_config(workers: usize, ring_capacity: usize) -> ServerConfig {
    ServerConfig {
        workers,
        ring_capacity,
        dump_dir: None,
        ..ServerConfig::default()
    }
}

/// Set-up for an untraced run: the fixture, the server for
/// `serve-mixed`, and one un-timed warm-up pass.
fn set_up(w: Workload, tag: &str, oracle: &Oracle, tally: &mut Tally) -> Result<Ready, String> {
    let serving = w == Workload::ServeMixed;
    let fixture = Fixture::prepare(w, serving, tag, oracle, tally)?;
    let ring = ServerConfig::default().ring_capacity;
    let server = serving.then(|| Server::start(server_config(serve_workers(), ring)));
    match &server {
        Some(server) => {
            let mix = fixture.mix();
            let tickets: Vec<_> = mix
                .iter()
                .map(|&r| (r, server.submit(fixture.request(r))))
                .collect();
            for (req, ticket) in tickets {
                let resp = ticket.and_then(serve::Ticket::wait);
                tally.check(
                    &fixture.label(req),
                    fixture.check_response(req, resp, oracle),
                );
            }
        }
        None => fixture.warm_up(oracle, tally),
    }
    Ok(Ready { fixture, server })
}

/// Whole passes over the programs in a seeded order, until `seconds`
/// have elapsed at a pass boundary: a partial pass would give
/// whichever programs the seed put first one more chance at a quiet
/// moment.
fn batch_window(
    fx: &Fixture,
    seed: u64,
    seconds: f64,
    oracle: &Oracle,
    tally: &mut Tally,
) -> Window {
    let w = fx.workload;
    let mut rng = Rng::new(seed, 0);
    let mut order: Vec<usize> = (0..fx.programs.len()).collect();
    let mut win = Window {
        threads: 1,
        groups: vec![Vec::new(); fx.programs.len()],
        ..Window::default()
    };
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        rng.shuffle(&mut order);
        for &i in &order {
            let p = &fx.programs[i];
            let t = Instant::now();
            let r = w.op().call(&p.program);
            win.groups[i].push(ms(t.elapsed()));
            let t = Instant::now();
            let r = r
                .map_err(err_text)
                .and_then(|r| oracle.check_report(p.name, w.size(), &r));
            tally.check(&fx.label(Req::Op(i)), r);
            win.checking += t.elapsed();
        }
    }
    win.wall = start.elapsed();
    win
}

/// What one serve client measured: each request with its latency, its
/// checks, and their time.
type ClientLog = (Vec<(Req, f64)>, Tally, Duration);

/// Closed-loop clients, one per worker, each cycling through its own
/// seeded shuffle of the mix until `seconds` have elapsed.
fn serve_window(
    fx: &Fixture,
    server: &Server,
    seed: u64,
    seconds: f64,
    oracle: &Oracle,
    tally: &mut Tally,
) -> Window {
    let n = fx.programs.len();
    let group = |r: Req| match r {
        Req::Op(i) => i,
        Req::Replay(i) => n + i,
    };
    let clients = server.workers();
    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut mix = fx.mix();
                    Rng::new(seed, c as u64 + 1).shuffle(&mut mix);
                    let mut tally = Tally::default();
                    let mut checking = Duration::ZERO;
                    let mut samples = Vec::new();
                    for &req in mix.iter().cycle() {
                        if start.elapsed().as_secs_f64() >= seconds {
                            break;
                        }
                        let request = fx.request(req);
                        let t = Instant::now();
                        let resp = server.profile(request);
                        samples.push((req, ms(t.elapsed())));
                        let t = Instant::now();
                        tally.check(&fx.label(req), fx.check_response(req, resp, oracle));
                        checking += t.elapsed();
                    }
                    (samples, tally, checking)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut win = Window {
        wall: start.elapsed(),
        threads: clients,
        groups: vec![Vec::new(); n + fx.recordings.len()],
        ..Window::default()
    };
    for (samples, t, checking) in logs {
        tally.merge(t);
        win.checking += checking;
        for (req, lat) in samples {
            win.groups[group(req)].push(lat);
        }
    }
    win
}

/// One untraced run: [`SETUP_REPEATS`] set-ups, then the measured
/// window, reporting every end-to-end metric.
pub fn run_untraced(
    w: Workload,
    seed: u64,
    seconds: f64,
    oracle: &Oracle,
) -> Result<RunOutput, String> {
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut ready = None;
    for k in 0..SETUP_REPEATS {
        drop(ready.take());
        let t = Instant::now();
        ready = Some(set_up(w, &format!("setup{k}"), oracle, &mut tally)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let Ready { fixture, server } = ready.expect("at least one set-up ran");
    let win = match &server {
        Some(s) => serve_window(&fixture, s, seed, seconds, oracle, &mut tally),
        None => batch_window(&fixture, seed, seconds, oracle, &mut tally),
    };
    let workers = server.as_ref().map_or(0, Server::workers);
    drop(server);

    // Every timing is taken over the groups' least latencies: a
    // neighbour that slows the machine for seconds at a time moves a
    // median or a whole pass, but not the fastest of a group's calls,
    // as long as the window holds some quiet moments.
    let lows = win.lows();
    let threads = win.threads as f64;
    let values = [
        ("setup_s", median(&setup_s)),
        (
            "ops_per_s",
            Some(threads * lows.len() as f64 * 1e3 / lows.iter().sum::<f64>()),
        ),
        ("prog_geomean_ms", geomean(&lows)),
        ("latency_p50_ms", percentile(&lows, 0.50)),
        ("latency_p99_ms", percentile(&lows, 0.99)),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    let mut out = RunOutput::default();
    for (name, v) in values {
        match v.filter(|v| v.is_finite() && *v > 0.0) {
            Some(v) => out.metrics.push((name, v)),
            None => {
                tally.check(name, Err("metric could not be measured".into()));
                out.metrics.push((name, 0.0));
            }
        }
    }
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    out.config = machine_config();
    out.config.extend([
        ("workload", format!("\"{}\"", w.name())),
        ("seed", seed.to_string()),
        ("trace", "0".to_string()),
        ("window_s", seconds.to_string()),
        ("measured_s", win.wall.as_secs_f64().to_string()),
        ("size", format!("\"{}\"", size_name(w.size()))),
        (
            "replay_size",
            match w {
                Workload::ServeMixed => format!("\"{}\"", size_name(w.replay_size())),
                _ => "null".to_string(),
            },
        ),
        ("workers", workers.to_string()),
        ("load_threads", workers.max(1).to_string()),
        ("setup_repeats", SETUP_REPEATS.to_string()),
        ("samples", win.ops().to_string()),
        ("latency_groups", lows.len().to_string()),
        (
            "min_group_samples",
            win.groups
                .iter()
                .map(Vec::len)
                .min()
                .unwrap_or(0)
                .to_string(),
        ),
        ("check_share", win.check_share().to_string()),
    ]);
    Ok(out)
}
