//! The traced run: per-layer metrics.
//!
//! A traced run repeats rounds until its window has elapsed; each
//! round makes one pass over the workload's programs per layer group
//! and every reported value is the median over rounds. The groups:
//!
//! * `run_pipeline` over the programs, read through the stage times and
//!   counts its `PipelineReport` carries, plus `cfgir::distance_floors`
//!   timed on its own (the pipeline runs it inside its `select` stage);
//! * opening and decoding the workload's saved recordings;
//! * the online tier runtime (`run_tiered`) over the programs, with the
//!   stage times it reports;
//! * the profiling server carrying the workload's mix: in-process,
//!   unloaded (one sequential client) and loaded (one client per
//!   worker), the last with the flight recorder on and off.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cfgir::distance_floors;
use jrpm::pipeline::{run_pipeline, PipelineConfig};
use jrpm::tier::{run_tiered, TierConfig};
use jrpm::{annotate, AnnotateOptions};
use serve::{Server, ServerConfig, DEFAULT_REPLAY_BATCH};
use tvm::record::MappedRecording;

use crate::metrics::PER_LAYER;
use crate::oracle::{size_name, Oracle};
use crate::stats::{median, percentile};
use crate::sys::Rng;
use crate::workload::{
    machine_config, serve_workers, server_config, Fixture, Req, RunOutput, Tally, Workload,
};

/// Stages of `run_pipeline`'s report, in the order it runs them, with
/// the metric each one feeds.
const PIPELINE_STAGES: [(&str, &str); 8] = [
    ("extract", "cfgir.extract.ms"),
    ("rescue", "cfgir.rescue.ms"),
    ("annotate", "jrpm.annotate.ms"),
    ("record", "tvm.record.ms"),
    ("replay-profile", "core.tracer.ms"),
    ("select", "core.select.ms"),
    ("collect", "hydra.collect.ms"),
    ("simulate", "hydra.sim.ms"),
];

/// Stages of `run_tiered`'s report, with the metric each one feeds.
const TIER_STAGES: [(&str, &str); 7] = [
    ("epochs", "jrpm.tier.stage.epochs.ms"),
    ("annotate", "jrpm.tier.stage.annotate.ms"),
    ("record", "jrpm.tier.stage.record.ms"),
    ("replay-profile", "jrpm.tier.stage.replay-profile.ms"),
    ("select", "jrpm.tier.stage.select.ms"),
    ("collect", "jrpm.tier.stage.collect.ms"),
    ("simulate", "jrpm.tier.stage.simulate.ms"),
];

type Round = BTreeMap<&'static str, f64>;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn shuffled(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order
}

/// `run_pipeline` over the programs, with the stage times and counts
/// of each report. `distance_floors` is timed again on its own, and
/// the profiling annotation redone for its size; both run outside the
/// timed pass. Returns the pass time in nanoseconds.
fn pipeline_layers(
    fx: &Fixture,
    rng: &mut Rng,
    oracle: &Oracle,
    tally: &mut Tally,
    m: &mut Round,
) -> u64 {
    let cfg = PipelineConfig::default();
    let size = fx.workload.size();
    let mut stages = [0u64; PIPELINE_STAGES.len()];
    let (mut pass_ns, mut staged_ns, mut floors_ns) = (0u64, 0u64, 0u64);
    let (mut loops, mut demoted, mut rescued, mut rejected) = (0u64, 0u64, 0u64, 0u64);
    let (mut insns, mut events, mut passes) = (0u64, 0u64, 0u64);
    let (mut threads, mut violations) = (0u64, 0u64);
    for i in shuffled(fx.programs.len(), rng) {
        let p = &fx.programs[i];
        let label = format!("{} (pipeline, {})", p.name, size_name(size));
        let t = Instant::now();
        let r = run_pipeline(&p.program, &cfg);
        pass_ns += since(t);
        let r = match r {
            Ok(r) => r,
            Err(e) => {
                tally.check(&label, Err(e.to_string()));
                continue;
            }
        };
        tally.check(&label, oracle.check_report(p.name, size, &r));
        staged_ns += r.obs.total_nanos();
        for (acc, (stage, _)) in stages.iter_mut().zip(PIPELINE_STAGES) {
            *acc += r.obs.stage_nanos(stage);
        }
        loops += r.candidates.total_loops() as u64;
        demoted += r.candidates.demoted_count() as u64;
        rescued += r.rescue.rescued.len() as u64;
        rejected += r.rescue.rejected.len() as u64;
        events += r.obs.recorded_events;
        passes += u64::from(r.obs.interpreter_passes);
        for l in r.actual.per_loop.values() {
            threads += l.threads;
            violations += l.violations;
        }

        let program = r.rescue.program_for(&p.program);
        let t = Instant::now();
        std::hint::black_box(distance_floors(program, &r.candidates));
        floors_ns += since(t);
        match annotate(program, &r.candidates, &AnnotateOptions::profiling()) {
            Ok(a) => insns += a.functions.iter().map(|f| f.code.len() as u64).sum::<u64>(),
            Err(e) => tally.check(&format!("{label}: annotate"), Err(e.to_string())),
        }
    }
    for ((_, metric), ns) in PIPELINE_STAGES.into_iter().zip(stages) {
        m.insert(metric, ms(ns));
    }
    let [_, _, _, record_ns, tracer_ns, ..] = stages;
    m.extend([
        ("cfgir.extract.loops", loops as f64),
        ("cfgir.extract.demoted", demoted as f64),
        (
            "cfgir.rescue.accept_frac",
            ratio(rescued as f64, (rescued + rejected) as f64),
        ),
        ("cfgir.floors.ms", ms(floors_ns)),
        ("jrpm.annotate.insns", insns as f64),
        ("tvm.record.events", events as f64),
        (
            "tvm.record.ns_per_event",
            ratio(record_ns as f64, events as f64),
        ),
        (
            "core.tracer.ns_per_event",
            ratio(tracer_ns as f64, events as f64),
        ),
        ("jrpm.pipeline.interp_passes", passes as f64),
        ("hydra.sim.threads", threads as f64),
        (
            "hydra.sim.useful_frac",
            ratio(threads as f64, (threads + violations) as f64),
        ),
        ("trace.pass_ms", ms(pass_ns)),
        (
            "trace.coverage_frac",
            ratio(staged_ns as f64, pass_ns as f64),
        ),
    ]);
    pass_ns
}

/// Mapping the saved recordings and decoding them into a no-op
/// consumer.
fn recording_layers(fx: &Fixture, oracle: &Oracle, tally: &mut Tally, m: &mut Round) {
    let size = fx.workload.replay_size();
    let (mut open_ns, mut decode_ns, mut events) = (0u64, 0u64, 0u64);
    for (name, path) in &fx.recordings {
        let t = Instant::now();
        let mapped = MappedRecording::open(path).map_err(|e| e.to_string());
        let view = mapped
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|m| m.view().map_err(|e| e.to_string()));
        open_ns += since(t);
        let t = Instant::now();
        let decoded = view.and_then(|v| {
            v.stream_batches(DEFAULT_REPLAY_BATCH, |b| {
                std::hint::black_box(b);
            })
            .map_err(|e| e.to_string())
        });
        decode_ns += since(t);
        let r = decoded.and_then(|n| {
            events += n;
            oracle.check_replay(name, size, n, None)
        });
        tally.check(&format!("{name} (decode, {})", size_name(size)), r);
    }
    m.insert("tvm.recording.open_ms", ms(open_ns));
    m.insert(
        "tvm.recording.decode_ns_per_event",
        ratio(decode_ns as f64, events as f64),
    );
}

/// The online tier runtime over the programs; `batch_ns` is the
/// `run_pipeline` time of the same round's pass.
fn tier_layers(
    fx: &Fixture,
    batch_ns: u64,
    rng: &mut Rng,
    oracle: &Oracle,
    tally: &mut Tally,
    m: &mut Round,
) {
    let cfg = PipelineConfig::default();
    let size = fx.workload.size();
    let (mut wall_ns, mut epochs) = (0u64, 0u64);
    let mut stages = [0u64; TIER_STAGES.len()];
    for i in shuffled(fx.programs.len(), rng) {
        let p = &fx.programs[i];
        let t = Instant::now();
        let r = run_tiered(&p.program, &cfg, &TierConfig::default());
        wall_ns += since(t);
        let r = r.map_err(|e| e.to_string()).and_then(|o| {
            epochs += u64::from(o.tiers.epochs);
            for (acc, (stage, _)) in stages.iter_mut().zip(TIER_STAGES) {
                *acc += o.report.obs.stage_nanos(stage);
            }
            oracle.check_report(p.name, size, &o.report)
        });
        tally.check(&format!("{} (tiered, {})", p.name, size_name(size)), r);
    }
    m.insert("jrpm.tier.epochs", epochs as f64);
    m.insert(
        "jrpm.tier.vs_batch_ratio",
        ratio(wall_ns as f64, batch_ns as f64),
    );
    for ((_, metric), ns) in TIER_STAGES.into_iter().zip(stages) {
        m.insert(metric, ms(ns));
    }
}

/// One pass over the mix through `server`, split among one closed-loop
/// client per worker. Returns the pass wall time, the summed worker
/// busy time, and each request's latency.
fn loaded_pass(
    fx: &Fixture,
    server: &Server,
    mix: &[Req],
    oracle: &Oracle,
    tally: &mut Tally,
) -> (Duration, u64, Vec<(Req, f64)>) {
    let clients = server.workers();
    let start = Instant::now();
    let per_client: Vec<(Vec<(Req, f64)>, Tally)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let mut lat = Vec::new();
                    for &req in mix.iter().skip(c).step_by(clients) {
                        let request = fx.request(req);
                        let t = Instant::now();
                        let resp = server.profile(request);
                        lat.push((req, t.elapsed().as_secs_f64() * 1e3));
                        tally.check(&fx.label(req), fx.check_response(req, resp, oracle));
                    }
                    (lat, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let snap = server.registry().snapshot();
    let busy = (0..clients)
        .map(|i| snap.counter(&format!("serve.worker.{i}.busy_nanos")))
        .sum();
    let mut all = Vec::new();
    for (lat, t) in per_client {
        tally.merge(t);
        all.extend(lat);
    }
    (wall, busy, all)
}

/// The profiling server carrying the workload's mix.
fn serve_layers(
    fx: &Fixture,
    round: usize,
    rng: &mut Rng,
    oracle: &Oracle,
    tally: &mut Tally,
    m: &mut Round,
) {
    let workers = serve_workers();
    let mut mix = fx.mix();
    rng.shuffle(&mut mix);

    let mut inproc_ns = 0u64;
    for &req in &mix {
        let t = Instant::now();
        let r = fx.in_process(req, oracle);
        inproc_ns += since(t);
        tally.check(&fx.label(req), r);
    }

    let start = |ring_capacity| Server::start(server_config(workers, ring_capacity));
    let default_ring = ServerConfig::default().ring_capacity;
    let server = start(default_ring);
    let mut seq_ns = 0u64;
    for &req in &mix {
        let request = fx.request(req);
        let t = Instant::now();
        let resp = server.profile(request);
        seq_ns += since(t);
        tally.check(&fx.label(req), fx.check_response(req, resp, oracle));
    }
    drop(server);

    // recorder on and off, in alternating order across rounds
    let mut walls = [Duration::ZERO; 2];
    let order = if round.is_multiple_of(2) {
        [0, 1]
    } else {
        [1, 0]
    };
    for k in order {
        let server = start(if k == 0 { default_ring } else { 0 });
        let (wall, busy, lat) = loaded_pass(fx, &server, &mix, oracle, tally);
        drop(server);
        walls[k] = wall;
        if k == 0 {
            let total: f64 = lat.iter().map(|l| l.1).sum();
            let p50 = |replay: bool| {
                let v: Vec<f64> = lat
                    .iter()
                    .filter(|(r, _)| matches!(r, Req::Replay(_)) == replay)
                    .map(|l| l.1)
                    .collect();
                percentile(&v, 0.5).unwrap_or(0.0)
            };
            m.insert("serve.queue_wait_frac", 1.0 - ratio(ms(busy), total));
            m.insert(
                "serve.worker_busy_frac",
                ratio(busy as f64, workers as f64 * wall.as_nanos() as f64),
            );
            m.insert("serve.replay_mapped.p50_ms", p50(true));
            m.insert("serve.pipeline.p50_ms", p50(false));
        }
    }
    m.insert("serve.work_ms", ratio(ms(inproc_ns), mix.len() as f64));
    m.insert(
        "serve.unloaded_overhead_frac",
        ratio(seq_ns as f64 - inproc_ns as f64, inproc_ns as f64),
    );
    let (on, off) = (walls[0].as_secs_f64(), walls[1].as_secs_f64());
    m.insert("obs.recorder_overhead_frac", ratio(on - off, off));
}

/// One traced run: rounds of every layer group until `seconds` have
/// elapsed, reporting the median of each per-layer metric.
pub fn run_traced(
    w: Workload,
    seed: u64,
    seconds: f64,
    oracle: &Oracle,
) -> Result<RunOutput, String> {
    let mut tally = Tally::default();
    let fx = Fixture::prepare(w, true, "traced", oracle, &mut tally)?;
    fx.warm_up(oracle, &mut tally);

    let mut rng = Rng::new(seed, 0);
    let mut rounds: Vec<Round> = Vec::new();
    let start = Instant::now();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut m = Round::new();
        let batch_ns = pipeline_layers(&fx, &mut rng, oracle, &mut tally, &mut m);
        recording_layers(&fx, oracle, &mut tally, &mut m);
        tier_layers(&fx, batch_ns, &mut rng, oracle, &mut tally, &mut m);
        serve_layers(&fx, rounds.len(), &mut rng, oracle, &mut tally, &mut m);
        rounds.push(m);
    }

    let mut out = RunOutput::default();
    for (name, _, _) in PER_LAYER {
        let values: Vec<f64> = rounds.iter().filter_map(|r| r.get(name).copied()).collect();
        match median(&values).filter(|v| v.is_finite()) {
            Some(v) if values.len() == rounds.len() => out.metrics.push((name, v)),
            _ => {
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
        ("trace", "1".to_string()),
        ("window_s", seconds.to_string()),
        ("measured_s", start.elapsed().as_secs_f64().to_string()),
        ("size", format!("\"{}\"", size_name(w.size()))),
        ("replay_size", format!("\"{}\"", size_name(w.replay_size()))),
        ("workers", serve_workers().to_string()),
        ("load_threads", serve_workers().to_string()),
        ("rounds", rounds.len().to_string()),
        ("programs", fx.programs.len().to_string()),
        ("recordings", fx.recordings.len().to_string()),
    ]);
    Ok(out)
}
