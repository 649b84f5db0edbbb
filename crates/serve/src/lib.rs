//! Profiling as a service: a bounded job queue over a pool of worker
//! threads, each running the same deterministic Jrpm pipeline the
//! batch path runs.
//!
//! The TEST premise is that profiling is cheap enough to run on live
//! programs; this crate treats "profile this program" as a *request*.
//! A [`Server`] owns N workers (shards); each request is claimed by
//! exactly one worker, which runs it to completion and answers on the
//! request's private reply channel — so analysis state is never shared
//! across shards and every response is bit-identical to the
//! single-tenant batch run of the same input (pinned suite-wide by
//! `tests/equivalence.rs`).
//!
//! Three request shapes cover the record-once/replay-many machinery:
//!
//! * [`ProfileRequest::Pipeline`] / [`ProfileRequest::Tiered`] — full
//!   pipeline on a program, offline or tier-scheduled.
//! * [`ProfileRequest::ReplayMapped`] — a recording *file*, mmapped
//!   and streamed as borrowed batches through one reusable buffer
//!   (zero-copy: no `Vec<Event>` is ever materialized).
//! * [`ProfileRequest::Replay`] — an in-memory [`Recording`], whose
//!   batches go through the same tracer path.
//!
//! Failure is typed end to end: a malformed recording, a VM error, or
//! even a panicking request produces a [`ServeError`] on that
//! request's ticket — never a dead server loop. Per-worker counters
//! (`serve.worker.<i>.*`) live in an [`obs::Registry`]; an optional
//! [`obs::Trace`] adds a `serve:worker:<i>` track with one span per
//! request.
//!
//! Live telemetry rides on every request:
//!
//! * each worker owns a fixed-capacity [`obs::FlightRing`] of recent
//!   structured events (request begin/end, batches consumed, queue
//!   depth); when a request panics the worker drains its own ring into
//!   an [`obs::FlightDump`] attached to the
//!   [`ServeError::WorkerPanicked`] answer (and written to
//!   [`ServerConfig::dump_dir`] when set);
//! * every request id flows through [`Ticket::id`], its latency lands
//!   in a per-kind `serve.request.<kind>.latency_nanos` histogram, and
//!   a shared [`obs::TailSampler`] retains full stage traces only for
//!   errored or tail-latency requests;
//! * [`Server::serve_http`] exposes `/metrics` (Prometheus text),
//!   `/healthz`, and `/traces` over a hand-rolled HTTP/1.0 responder.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use jrpm::pipeline::{run_pipeline, PipelineConfig, PipelineReport};
use jrpm::tier::{run_tiered, TierConfig, TierReport};
use obs::live;
use obs::{FlightDump, FlightRing, LiveEventKind, Registry, TailConfig, TailSampler, Trace};
use test_tracer::config::TracerConfig;
use test_tracer::stats::Profile;
use test_tracer::tracer::TestTracer;
use tvm::bus::{EventBatch, DEFAULT_BATCH_CAPACITY};
use tvm::record::{MappedRecording, Recording, RecordingError};
use tvm::{Program, VmError};

mod http;

pub use http::HttpEndpoint;

/// One profiling request.
#[derive(Debug)]
pub enum ProfileRequest {
    /// Run the full batch pipeline on `program`.
    Pipeline {
        /// The annotated-STL program to profile.
        program: Program,
        /// Pipeline configuration (tracer, TLS, bus, obs, rescue).
        cfg: PipelineConfig,
    },
    /// Run the pipeline under the online tier controller.
    Tiered {
        /// The annotated-STL program to profile.
        program: Program,
        /// Pipeline configuration.
        cfg: PipelineConfig,
        /// Tier-controller schedule and thresholds.
        tier: TierConfig,
    },
    /// Replay an in-memory recording through a fresh TEST tracer.
    Replay {
        /// The recorded event stream.
        recording: Recording,
        /// Tracer hardware configuration.
        tracer: TracerConfig,
    },
    /// Mmap the recording file at `path` and stream it through a fresh
    /// TEST tracer as borrowed batches — the zero-copy hot path.
    ReplayMapped {
        /// Path to a [`Recording::save`]d file.
        path: PathBuf,
        /// Tracer hardware configuration.
        tracer: TracerConfig,
        /// Events per streamed batch (0 is promoted to 1).
        batch_capacity: usize,
    },
}

impl ProfileRequest {
    /// Short kind label used for spans and diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            ProfileRequest::Pipeline { .. } => "pipeline",
            ProfileRequest::Tiered { .. } => "tiered",
            ProfileRequest::Replay { .. } => "replay",
            ProfileRequest::ReplayMapped { .. } => "replay_mapped",
        }
    }

    /// Numeric kind code carried in flight-recorder event payloads.
    pub fn kind_code(&self) -> u64 {
        match self {
            ProfileRequest::Pipeline { .. } => 1,
            ProfileRequest::Tiered { .. } => 2,
            ProfileRequest::Replay { .. } => 3,
            ProfileRequest::ReplayMapped { .. } => 4,
        }
    }
}

/// The answer to one [`ProfileRequest`].
#[derive(Debug)]
pub enum ProfileResponse {
    /// Batch pipeline output.
    Pipeline(Box<PipelineReport>),
    /// Tier-scheduled pipeline output.
    Tiered {
        /// The ordinary pipeline report.
        report: Box<PipelineReport>,
        /// Tier-controller history.
        tiers: TierReport,
    },
    /// Tracer profile of a replayed recording.
    Profile {
        /// Everything the tracer collected.
        profile: Box<Profile>,
        /// Events replayed into the tracer.
        events: u64,
    },
}

impl ProfileResponse {
    /// The pipeline report, for pipeline/tiered responses.
    pub fn report(&self) -> Option<&PipelineReport> {
        match self {
            ProfileResponse::Pipeline(r) => Some(r),
            ProfileResponse::Tiered { report, .. } => Some(report),
            ProfileResponse::Profile { .. } => None,
        }
    }

    /// The tracer profile carried by any response shape.
    pub fn profile(&self) -> &Profile {
        match self {
            ProfileResponse::Pipeline(r) => &r.profile,
            ProfileResponse::Tiered { report, .. } => &report.profile,
            ProfileResponse::Profile { profile, .. } => profile,
        }
    }
}

/// Typed failure of one request (or of the queue itself). One bad
/// request answers with an error on its own ticket; it never takes
/// down the server loop.
#[derive(Debug)]
pub enum ServeError {
    /// The server has shut down (or is shutting down); the request was
    /// not enqueued.
    QueueClosed,
    /// The worker processing this request panicked. The panic was
    /// contained; the worker kept serving.
    WorkerPanicked {
        /// The panic payload, stringified.
        message: String,
        /// The panicking worker's flight recorder, drained at the
        /// moment of containment: its last N structured events, for
        /// crash forensics. Boxed to keep the error small.
        dump: Option<Box<FlightDump>>,
    },
    /// The request's reply channel closed without an answer.
    NoResponse,
    /// VM failure while executing the request's program.
    Vm(VmError),
    /// Malformed, truncated, or unreadable recording.
    Recording(RecordingError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueClosed => write!(f, "server queue is closed"),
            ServeError::WorkerPanicked { message, dump } => {
                write!(f, "worker panicked serving request: {message}")?;
                if let Some(d) = dump {
                    write!(f, " ({} flight events attached)", d.events.len())?;
                }
                Ok(())
            }
            ServeError::NoResponse => write!(f, "reply channel closed without an answer"),
            ServeError::Vm(e) => write!(f, "vm error: {e}"),
            ServeError::Recording(e) => write!(f, "recording error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<VmError> for ServeError {
    fn from(e: VmError) -> ServeError {
        ServeError::Vm(e)
    }
}

impl From<RecordingError> for ServeError {
    fn from(e: RecordingError) -> ServeError {
        ServeError::Recording(e)
    }
}

/// Server sizing and observability knobs.
#[derive(Clone)]
pub struct ServerConfig {
    /// Worker (shard) count. 0 is promoted to 1.
    pub workers: usize,
    /// Bound of the shared job queue; submitters block (back-pressure)
    /// when it is full. 0 is promoted to 1.
    pub queue_depth: usize,
    /// Optional span trace: each worker becomes a `serve:worker:<i>`
    /// track carrying one span per request.
    pub trace: Option<Arc<Trace>>,
    /// Capacity of each worker's flight-recorder ring (rounded up to a
    /// power of two). 0 disables the flight recorder *and* tail
    /// sampling entirely — the calibration mode the throughput
    /// benchmark measures recorder overhead against.
    pub ring_capacity: usize,
    /// When set, a panicking worker also writes its [`FlightDump`] to
    /// this directory as `flightdump-w<worker>-r<request>.json`.
    ///
    /// The default honors the `SERVE_DUMP_DIR` environment variable
    /// when present (how CI collects forensic artifacts from failing
    /// runs without every call site opting in); `None` otherwise.
    pub dump_dir: Option<PathBuf>,
    /// Tail-sampling policy for retained request traces.
    pub tail: TailConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: std::thread::available_parallelism().map_or(2, |n| n.get()),
            queue_depth: 64,
            trace: None,
            ring_capacity: 256,
            dump_dir: std::env::var_os("SERVE_DUMP_DIR").map(PathBuf::from),
            tail: TailConfig::default(),
        }
    }
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("workers", &self.workers)
            .field("queue_depth", &self.queue_depth)
            .field("trace", &self.trace.is_some())
            .field("ring_capacity", &self.ring_capacity)
            .field("dump_dir", &self.dump_dir)
            .field("tail", &self.tail)
            .finish()
    }
}

struct Job {
    id: u64,
    req: ProfileRequest,
    reply: Sender<Result<ProfileResponse, ServeError>>,
}

/// A pending response. [`Ticket::wait`] blocks until the worker
/// answers.
#[derive(Debug)]
pub struct Ticket {
    id: u64,
    rx: Receiver<Result<ProfileResponse, ServeError>>,
}

impl Ticket {
    /// The request id assigned at submission — the same id the flight
    /// recorder and tail sampler tag this request's telemetry with.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the request completes.
    ///
    /// # Errors
    ///
    /// The request's own [`ServeError`], or [`ServeError::NoResponse`]
    /// if the worker died before answering.
    pub fn wait(self) -> Result<ProfileResponse, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::NoResponse))
    }
}

/// The profiling server: a bounded queue fanned across a worker pool.
pub struct Server {
    tx: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
    registry: Arc<Registry>,
    sampler: Arc<TailSampler>,
    next_id: AtomicU64,
}

/// Everything a worker thread needs beyond the queue: shared telemetry
/// handles plus per-worker recorder sizing.
struct WorkerShared {
    registry: Arc<Registry>,
    trace: Option<Arc<Trace>>,
    sampler: Arc<TailSampler>,
    ring_capacity: usize,
    dump_dir: Option<PathBuf>,
}

impl Server {
    /// Starts `cfg.workers` worker threads sharing one bounded queue.
    pub fn start(cfg: ServerConfig) -> Server {
        let workers = cfg.workers.max(1);
        let depth = cfg.queue_depth.max(1);
        let (tx, rx) = sync_channel::<Job>(depth);
        let rx = Arc::new(Mutex::new(rx));
        let registry = Arc::new(Registry::new());
        let sampler = Arc::new(TailSampler::new(cfg.tail));
        let handles = (0..workers)
            .map(|i| {
                // a shard counts as alive from spawn until its loop
                // exits, so a health probe right after start never
                // sees a worker the OS has not scheduled yet
                registry.gauge(&format!("serve.worker.{i}.alive")).set(1);
                let rx = Arc::clone(&rx);
                let shared = WorkerShared {
                    registry: Arc::clone(&registry),
                    trace: cfg.trace.clone(),
                    sampler: Arc::clone(&sampler),
                    ring_capacity: cfg.ring_capacity,
                    dump_dir: cfg.dump_dir.clone(),
                };
                std::thread::spawn(move || worker_loop(i, &rx, &shared))
            })
            .collect();
        Server {
            tx: Some(tx),
            workers: handles,
            registry,
            sampler,
            next_id: AtomicU64::new(1),
        }
    }

    /// Starts a server with the default configuration.
    pub fn start_default() -> Server {
        Server::start(ServerConfig::default())
    }

    /// Enqueues a request, blocking while the queue is full
    /// (back-pressure), and returns the ticket its answer arrives on.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueClosed`] once shutdown has begun.
    pub fn submit(&self, req: ProfileRequest) -> Result<Ticket, ServeError> {
        let tx = self.tx.as_ref().ok_or(ServeError::QueueClosed)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (reply, rx) = mpsc::channel();
        tx.send(Job { id, req, reply })
            .map_err(|_| ServeError::QueueClosed)?;
        // queued (not yet claimed): gauge up here, down at claim; the
        // high-water counter keeps the worst depth seen
        let depth = {
            let g = self.registry.gauge("serve.queue.depth");
            g.add(1);
            g.get()
        };
        self.registry
            .counter("serve.queue.high_water")
            .record_max(depth.max(0) as u64);
        Ok(Ticket { id, rx })
    }

    /// Submits and waits in one call.
    ///
    /// # Errors
    ///
    /// Queue closure, or the request's own failure.
    pub fn profile(&self, req: ProfileRequest) -> Result<ProfileResponse, ServeError> {
        self.submit(req)?.wait()
    }

    /// The per-worker counter registry (`serve.worker.<i>.requests`,
    /// `.events`, `.busy_nanos`, `.panics`).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The shared tail sampler: every finished request's latency, plus
    /// the retained (errored / tail-latency) traces.
    pub fn sampler(&self) -> &TailSampler {
        &self.sampler
    }

    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves the scrape
    /// endpoints `/metrics`, `/healthz`, and `/traces` from a
    /// background acceptor thread until the returned endpoint is
    /// dropped or stopped.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn serve_http(&self, addr: impl std::net::ToSocketAddrs) -> std::io::Result<HttpEndpoint> {
        http::serve(
            addr,
            http::HttpState {
                registry: Arc::clone(&self.registry),
                sampler: Arc::clone(&self.sampler),
                workers: self.workers.len(),
            },
        )
    }

    /// Closes the queue, drains in-flight requests, and joins every
    /// worker. Returns the final counter registry.
    pub fn shutdown(mut self) -> Arc<Registry> {
        self.close_and_join();
        Arc::clone(&self.registry)
    }

    fn close_and_join(&mut self) {
        self.tx = None; // closes the queue; workers drain and exit
        for h in self.workers.drain(..) {
            // a worker that somehow died panicking has already answered
            // its requests with WorkerPanicked or dropped its reply
            // senders (tickets see NoResponse) — nothing to propagate
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

fn worker_loop(index: usize, rx: &Mutex<Receiver<Job>>, shared: &WorkerShared) {
    let registry = &*shared.registry;
    let trace = shared.trace.as_deref();
    let prefix = format!("serve.worker.{index}");
    let track = trace.map(|tr| tr.track(&format!("serve:worker:{index}")));
    // this worker's flight recorder: installed thread-locally so
    // pipeline code anywhere below can emit without plumbing.
    // ring_capacity 0 = telemetry off (benchmark calibration mode)
    let ring = (shared.ring_capacity > 0).then(|| {
        let ring = Arc::new(FlightRing::new(shared.ring_capacity));
        live::install(Arc::clone(&ring));
        ring
    });
    let alive = registry.gauge(&format!("{prefix}.alive"));
    let queue_depth = registry.gauge("serve.queue.depth");
    loop {
        // hold the lock only while claiming the next job, so shards
        // drain the queue concurrently
        let job = {
            let guard = match rx.lock() {
                Ok(g) => g,
                // a panic inside `recv` cannot poison worker state —
                // the jobs themselves run outside the lock
                Err(poisoned) => poisoned.into_inner(),
            };
            guard.recv()
        };
        let Ok(job) = job else { break };
        queue_depth.add(-1);
        live::emit(
            LiveEventKind::QueueDepth,
            queue_depth.get().max(0) as u64,
            registry.counter("serve.queue.high_water").get(),
            0,
        );
        let kind = job.req.kind();
        let kind_code = job.req.kind_code();
        if let (Some(tr), Some(t)) = (trace, track) {
            tr.begin(t, kind);
        }
        live::emit(LiveEventKind::RequestBegin, job.id, kind_code, 0);
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| handle(job.id, job.req)));
        let busy = started.elapsed().as_nanos() as u64;
        registry.counter(&format!("{prefix}.requests")).inc();
        registry.counter(&format!("{prefix}.busy_nanos")).add(busy);
        registry
            .histogram(&format!("serve.request.{kind}.latency_nanos"))
            .record(busy);
        let result = match result {
            Ok(r) => r,
            Err(payload) => {
                registry.counter(&format!("{prefix}.panics")).inc();
                let message = panic_message(&payload);
                live::emit(LiveEventKind::RequestEnd, job.id, busy, 1);
                // crash forensics: drain this worker's own ring into a
                // dump attached to the answer (and written to disk when
                // a dump directory is configured)
                let dump = ring.as_ref().map(|ring| {
                    let dump = FlightDump {
                        worker: index as u64,
                        request_id: job.id,
                        request_kind: kind.to_string(),
                        panic_message: message.clone(),
                        events_written: ring.written(),
                        events: ring.snapshot(),
                    };
                    if let Some(dir) = &shared.dump_dir {
                        if dump.write_to(dir).is_err() {
                            registry.counter(&format!("{prefix}.dump_errors")).inc();
                        }
                    }
                    Box::new(dump)
                });
                Err(ServeError::WorkerPanicked { message, dump })
            }
        };
        match &result {
            Ok(resp) => {
                live::emit(LiveEventKind::RequestEnd, job.id, busy, 0);
                registry
                    .counter(&format!("{prefix}.events"))
                    .add(resp.profile().events);
            }
            Err(ServeError::WorkerPanicked { .. }) => {} // already emitted
            Err(_) => live::emit(LiveEventKind::RequestEnd, job.id, busy, 1),
        }
        // tail sampling: record every latency, retain stage traces
        // only for errored or tail-latency requests (off together with
        // the recorder in calibration mode)
        if ring.is_some() {
            let stages = result
                .as_ref()
                .ok()
                .and_then(ProfileResponse::report)
                .map(|r| {
                    r.obs
                        .stages
                        .iter()
                        .map(|s| (s.stage.clone(), s.nanos))
                        .collect()
                })
                .unwrap_or_default();
            shared.sampler.observe(obs::RequestTrace {
                id: job.id,
                kind: kind.to_string(),
                latency_nanos: busy,
                error: result.as_ref().err().map(|e| e.to_string()),
                stages,
            });
        }
        if let (Some(tr), Some(t)) = (trace, track) {
            tr.end(t, kind);
        }
        // a dropped ticket just means nobody is waiting; keep serving
        let _ = job.reply.send(result);
    }
    alive.set(0);
    live::uninstall();
}

fn handle(id: u64, req: ProfileRequest) -> Result<ProfileResponse, ServeError> {
    match req {
        ProfileRequest::Pipeline { program, cfg } => {
            let report = run_pipeline(&program, &cfg)?;
            Ok(ProfileResponse::Pipeline(Box::new(report)))
        }
        ProfileRequest::Tiered { program, cfg, tier } => {
            let outcome = run_tiered(&program, &cfg, &tier)?;
            Ok(ProfileResponse::Tiered {
                report: Box::new(outcome.report),
                tiers: outcome.tiers,
            })
        }
        ProfileRequest::Replay { recording, tracer } => replay(id, tracer, |deliver| {
            recording.batches().for_each(deliver);
            Ok(recording.len() as u64)
        }),
        ProfileRequest::ReplayMapped {
            path,
            tracer,
            batch_capacity,
        } => {
            let mapped = MappedRecording::open(&path)?;
            let view = mapped.view()?;
            replay(id, tracer, |deliver| {
                view.stream_batches(batch_capacity, deliver)
            })
        }
    }
}

/// Feeds a recording's batches through a fresh TEST tracer, logging
/// each batch to the worker's flight ring. The one replay path both
/// replay request shapes share: `stream` hands every batch to the
/// callback it is given and returns the event count.
fn replay(
    id: u64,
    tracer: TracerConfig,
    stream: impl FnOnce(&mut dyn FnMut(&EventBatch)) -> Result<u64, RecordingError>,
) -> Result<ProfileResponse, ServeError> {
    use tvm::trace::TraceSink;
    let mut t = TestTracer::new(tracer);
    let events = stream(&mut |batch| {
        live::emit(LiveEventKind::BatchConsumed, id, batch.len() as u64, 0);
        t.consume_batch(batch);
    })?;
    Ok(ProfileResponse::Profile {
        profile: Box::new(t.into_profile()),
        events,
    })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Convenience: the default zero-copy batch capacity for
/// [`ProfileRequest::ReplayMapped`].
pub const DEFAULT_REPLAY_BATCH: usize = DEFAULT_BATCH_CAPACITY;

// Everything that crosses the queue or the reply channels must be
// Send; these assertions pin the pipeline entry points as Send-clean
// at compile time (the tentpole's `jrpm` requirement).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ProfileRequest>();
    assert_send::<ProfileResponse>();
    assert_send::<ServeError>();
    assert_send::<Ticket>();
    assert_send::<PipelineReport>();
    assert_send::<Program>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use tvm::{ElemKind, ProgramBuilder};

    fn sample_program() -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, false, |f| {
            let (a, i) = (f.local(), f.local());
            f.ci(16).newarray(ElemKind::Int).st(a);
            f.for_in(i, 0.into(), 16.into(), |f| {
                f.arr_set(
                    a,
                    |f| {
                        f.ld(i);
                    },
                    |f| {
                        f.ld(i);
                    },
                );
            });
            f.ret_void();
        });
        b.finish(main).expect("sample program builds")
    }

    #[test]
    fn pipeline_request_round_trips() {
        let server = Server::start(ServerConfig {
            workers: 2,
            queue_depth: 4,
            ..ServerConfig::default()
        });
        let resp = server
            .profile(ProfileRequest::Pipeline {
                program: sample_program(),
                cfg: PipelineConfig::default(),
            })
            .expect("pipeline request succeeds");
        let direct = run_pipeline(&sample_program(), &PipelineConfig::default()).unwrap();
        let report = resp.report().expect("pipeline response has a report");
        assert_eq!(report.seq_cycles, direct.seq_cycles);
        assert_eq!(report.profile, direct.profile);
        let registry = server.shutdown();
        let snap = registry.snapshot();
        let total: u64 = (0..2)
            .map(|i| snap.counter(&format!("serve.worker.{i}.requests")))
            .sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn submit_after_shutdown_is_a_typed_error() {
        let mut server = Server::start(ServerConfig {
            workers: 1,
            queue_depth: 1,
            ..ServerConfig::default()
        });
        server.tx = None; // simulate shutdown-in-progress
        let err = server
            .submit(ProfileRequest::Pipeline {
                program: sample_program(),
                cfg: PipelineConfig::default(),
            })
            .expect_err("closed queue rejects");
        assert!(matches!(err, ServeError::QueueClosed));
    }

    #[test]
    fn missing_recording_file_is_a_typed_error() {
        let server = Server::start(ServerConfig {
            workers: 1,
            queue_depth: 1,
            ..ServerConfig::default()
        });
        let err = server
            .profile(ProfileRequest::ReplayMapped {
                path: PathBuf::from("/nonexistent/recording.tvmr"),
                tracer: TracerConfig::default(),
                batch_capacity: DEFAULT_REPLAY_BATCH,
            })
            .expect_err("missing file is an error, not a panic");
        assert!(matches!(err, ServeError::Recording(RecordingError::Io(_))));
    }

    #[test]
    fn panicking_request_is_contained_and_server_keeps_serving() {
        let server = Server::start(ServerConfig {
            workers: 1,
            queue_depth: 2,
            ..ServerConfig::default()
        });
        // a tracer table size that is not a power of two makes
        // TestTracer::new panic — a genuinely panicking request
        let bad = TracerConfig {
            ld_table_entries: 3,
            ..TracerConfig::default()
        };
        let err = server
            .profile(ProfileRequest::Replay {
                recording: Recording::default(),
                tracer: bad,
            })
            .expect_err("panicking request answers with a typed error");
        let ServeError::WorkerPanicked { message, dump } = err else {
            panic!("expected WorkerPanicked, got {err:?}");
        };
        assert!(!message.is_empty());
        // the drained flight recorder rides on the error and contains
        // the failing request's begin event
        let dump = dump.expect("panic answer carries a flight dump");
        assert_eq!(dump.worker, 0);
        assert_eq!(dump.request_kind, "replay");
        assert!(
            dump.events
                .iter()
                .any(|e| e.kind == obs::LiveEventKind::RequestBegin && e.a == dump.request_id),
            "dump holds the failing request's begin event: {:?}",
            dump.events
        );
        // and it round-trips through its own JSON codec
        let parsed = obs::FlightDump::parse(&dump.to_json()).expect("dump JSON parses");
        assert_eq!(parsed, *dump);
        // the single worker survived and answers the next request
        let resp = server.profile(ProfileRequest::Replay {
            recording: Recording::default(),
            tracer: TracerConfig::default(),
        });
        match resp.expect("empty replay succeeds after the panic") {
            ProfileResponse::Profile { events, .. } => assert_eq!(events, 0),
            other => panic!("unexpected response: {other:?}"),
        }
        let snap = server.shutdown().snapshot();
        assert_eq!(snap.counter("serve.worker.0.panics"), 1);
        assert_eq!(snap.counter("serve.worker.0.requests"), 2);
    }
}
