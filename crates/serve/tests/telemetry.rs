//! Live-telemetry integration: the `/metrics` scrape must agree with
//! `Registry::snapshot()`, `/healthz` must report shard liveness, the
//! tail sampler must retain errored requests, a panicking worker
//! must leave a parseable flight dump on disk, the default alert rules
//! must stay quiet on a healthy window and fire on a panic, and both
//! replay shapes must log the same batch history.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;

use benchsuite::{all, DataSize};
use jrpm::pipeline::PipelineConfig;
use obs::live::{evaluate_alerts, AlertConfig};
use obs::{expo, LiveEventKind};
use serve::{
    ProfileRequest, ProfileResponse, ServeError, Server, ServerConfig, DEFAULT_REPLAY_BATCH,
};
use test_tracer::config::TracerConfig;
use tvm::interp::Interp;
use tvm::record::{Recording, RecordingSink};

/// One blocking HTTP/1.0 GET against the endpoint; returns
/// `(status_line, body)`.
fn get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("endpoint accepts");
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .expect("request writes");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("response reads");
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .expect("response has a head/body split");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

fn empty_replay() -> ProfileRequest {
    ProfileRequest::Replay {
        recording: Recording { events: Vec::new() },
        tracer: TracerConfig::default(),
    }
}

/// A request that genuinely panics inside the worker: a tracer table
/// size that is not a power of two.
fn panicking_replay() -> ProfileRequest {
    ProfileRequest::Replay {
        recording: Recording { events: Vec::new() },
        tracer: TracerConfig {
            ld_table_entries: 3,
            ..TracerConfig::default()
        },
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("serve-telemetry-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir creates");
    dir
}

#[test]
fn metrics_scrape_round_trips_and_agrees_with_the_registry() {
    let server = Server::start(ServerConfig {
        workers: 2,
        queue_depth: 4,
        ..ServerConfig::default()
    });
    for _ in 0..6 {
        match server.profile(empty_replay()).expect("replay succeeds") {
            ProfileResponse::Profile { events, .. } => assert_eq!(events, 0),
            other => panic!("unexpected response: {other:?}"),
        }
    }
    let endpoint = server.serve_http("127.0.0.1:0").expect("endpoint binds");
    let (status, body) = get(endpoint.addr(), "/metrics");
    assert!(status.contains("200"), "{status}");
    // the exposition parses back and matches the live snapshot exactly
    // (the server is idle between scrape and snapshot)
    let expo = expo::parse_exposition(&body).expect("exposition parses");
    let snap = server.registry().snapshot();
    let mismatches = expo::diff_against_snapshot(&expo, &snap);
    assert!(mismatches.is_empty(), "scrape vs snapshot: {mismatches:?}");
    // per-kind latency histograms and queue watermarks are exposed
    assert!(
        body.contains("serve_request_replay_latency_nanos_count"),
        "{body}"
    );
    assert!(body.contains("serve_queue_high_water"), "{body}");
    endpoint.stop();
    server.shutdown();
}

#[test]
fn healthz_reports_every_shard_alive() {
    let server = Server::start(ServerConfig {
        workers: 3,
        queue_depth: 4,
        ..ServerConfig::default()
    });
    server.profile(empty_replay()).expect("replay succeeds");
    let endpoint = server.serve_http("127.0.0.1:0").expect("endpoint binds");
    let (status, body) = get(endpoint.addr(), "/healthz");
    assert!(status.contains("200"), "{status}");
    let doc = obs::json::parse(&body).expect("healthz is valid JSON");
    assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("ok"));
    let workers = doc
        .get("workers")
        .and_then(|v| v.as_arr())
        .expect("workers array");
    assert_eq!(workers.len(), 3);
    for w in workers {
        assert_eq!(w.get("alive").and_then(|v| v.as_bool()), Some(true));
    }
    // unknown routes are a clean 404, not a hang or a panic
    let (status, _) = get(endpoint.addr(), "/nope");
    assert!(status.contains("404"), "{status}");
    endpoint.stop();
    server.shutdown();
}

#[test]
fn tail_sampler_retains_the_errored_request_and_serves_it() {
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_depth: 2,
        ..ServerConfig::default()
    });
    // healthy traffic first, then one panicking request
    for _ in 0..4 {
        server.profile(empty_replay()).expect("replay succeeds");
    }
    let ticket = server.submit(panicking_replay()).expect("submits");
    let failed_id = ticket.id();
    let err = ticket.wait().expect_err("panicking request errors");
    assert!(matches!(err, ServeError::WorkerPanicked { .. }));
    let (observed, retained) = server.sampler().totals();
    assert_eq!(observed, 5);
    assert!(retained >= 1, "errored request is retained");
    let kept = server.sampler().traces();
    assert!(
        kept.iter().any(|t| t.id == failed_id && t.error.is_some()),
        "retained traces carry the failed request id {failed_id}: {kept:?}"
    );
    // and /traces serves the same thing as JSON
    let endpoint = server.serve_http("127.0.0.1:0").expect("endpoint binds");
    let (status, body) = get(endpoint.addr(), "/traces");
    assert!(status.contains("200"), "{status}");
    let doc = obs::json::parse(&body).expect("traces endpoint is valid JSON");
    let arr = doc.as_arr().expect("traces is an array");
    assert!(arr
        .iter()
        .any(|t| t.get("id").and_then(|v| v.as_u64()) == Some(failed_id)));
    endpoint.stop();
    server.shutdown();
}

#[test]
fn panicking_worker_writes_a_parseable_flight_dump_to_disk() {
    let dir = fresh_dir("dump");
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_depth: 2,
        dump_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    server.profile(empty_replay()).expect("replay succeeds");
    let err = server
        .profile(panicking_replay())
        .expect_err("panicking request errors");
    let ServeError::WorkerPanicked { dump, .. } = &err else {
        panic!("expected WorkerPanicked, got {err:?}");
    };
    let dump = dump.as_ref().expect("dump attached");
    // the on-disk artifact exists and parses back to the same dump
    let path = dir.join(format!(
        "flightdump-w{}-r{}.json",
        dump.worker, dump.request_id
    ));
    let text = std::fs::read_to_string(&path).expect("dump file written");
    let parsed = obs::FlightDump::parse(&text).expect("dump file parses");
    assert_eq!(parsed, **dump);
    // it holds the worker's recent healthy history too, not just the
    // failing request
    assert!(
        parsed
            .events
            .iter()
            .filter(|e| e.kind == obs::LiveEventKind::RequestBegin)
            .count()
            >= 2,
        "dump spans earlier requests: {:?}",
        parsed.events
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The default alert rules over one server's window: nothing fires on
/// a healthy mixed load (enough requests that the starvation rule is
/// live), and a contained panic fires the `panics` rule — the negative
/// control that a rule set which never fires cannot pass.
#[test]
fn alerts_stay_quiet_on_a_healthy_window_and_fire_on_a_panic() {
    let server = Server::start(ServerConfig {
        workers: 2,
        queue_depth: 8,
        ..ServerConfig::default()
    });
    let window_start = server.registry().snapshot();
    let program = (all()[0].build)(DataSize::Small);
    let cfg = PipelineConfig::default();
    server
        .profile(ProfileRequest::Pipeline { program, cfg })
        .expect("pipeline succeeds");
    let tickets: Vec<_> = (0..64)
        .map(|_| server.submit(empty_replay()).expect("submits"))
        .collect();
    for t in tickets {
        t.wait().expect("replay succeeds");
    }
    let rules = AlertConfig::default();
    let healthy = evaluate_alerts(&window_start, &server.registry().snapshot(), &rules);
    assert!(healthy.is_empty(), "healthy window fired: {healthy:?}");

    server
        .profile(panicking_replay())
        .expect_err("panicking request errors");
    let faulty = evaluate_alerts(&window_start, &server.registry().snapshot(), &rules);
    assert!(faulty.iter().any(|a| a.rule == "panics"), "{faulty:?}");
    server.shutdown();
}

#[test]
fn ticket_ids_are_unique_and_increasing() {
    let server = Server::start(ServerConfig {
        workers: 2,
        queue_depth: 8,
        ..ServerConfig::default()
    });
    let mut last = 0;
    for _ in 0..5 {
        let t = server.submit(empty_replay()).expect("submits");
        assert!(t.id() > last, "ids increase: {} then {}", last, t.id());
        last = t.id();
        t.wait().expect("replay succeeds");
    }
    server.shutdown();
}

/// An owned `Replay` and a `ReplayMapped` of the same recording run one
/// batch path: the same profile, and the same `BatchConsumed` history
/// in the worker's flight ring.
#[test]
fn owned_and_mapped_replays_record_the_same_batch_history() {
    let dir = fresh_dir("replay-history");
    let program = (all()[0].build)(DataSize::Small);
    let mut sink = RecordingSink::new();
    Interp::run(&program, &mut sink).expect("benchmark runs");
    let recording = sink.into_recording();
    assert!(!recording.is_empty());
    let path = dir.join("replay.tvmr");
    recording.save(&path).expect("recording saves");
    let events = recording.len() as u64;

    let server = Server::start(ServerConfig {
        workers: 1,
        queue_depth: 4,
        ring_capacity: 1 << 12,
        dump_dir: None,
        ..ServerConfig::default()
    });
    let owned = server
        .submit(ProfileRequest::Replay {
            recording,
            tracer: TracerConfig::default(),
        })
        .expect("submits");
    let owned_id = owned.id();
    let owned = owned.wait().expect("owned replay succeeds");
    let mapped = server
        .submit(ProfileRequest::ReplayMapped {
            path,
            tracer: TracerConfig::default(),
            batch_capacity: DEFAULT_REPLAY_BATCH,
        })
        .expect("submits");
    let mapped_id = mapped.id();
    let mapped = mapped.wait().expect("mapped replay succeeds");
    assert_eq!(owned.profile(), mapped.profile());

    // a panicking request drains the single worker's ring, which still
    // holds both replays' history
    let err = server
        .profile(panicking_replay())
        .expect_err("panicking request errors");
    let ServeError::WorkerPanicked {
        dump: Some(dump), ..
    } = err
    else {
        panic!("expected WorkerPanicked with a dump, got {err:?}");
    };
    let batches = |id: u64| -> Vec<u64> {
        dump.events
            .iter()
            .filter(|e| e.kind == LiveEventKind::BatchConsumed && e.a == id)
            .map(|e| e.b)
            .collect()
    };
    let (owned_batches, mapped_batches) = (batches(owned_id), batches(mapped_id));
    assert!(!owned_batches.is_empty(), "owned replay logs its batches");
    assert_eq!(owned_batches.len(), mapped_batches.len());
    assert_eq!(owned_batches.iter().sum::<u64>(), events);
    assert_eq!(mapped_batches.iter().sum::<u64>(), events);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
