//! Server-vs-batch bit-identity, suite-wide: every profiling request
//! answered by the worker pool must reproduce the single-tenant batch
//! run of the same input **bit for bit** — same derived baseline, same
//! TEST profile, same selection, same actual-TLS numbers. The server
//! is a transport, not a re-modelling.

use benchsuite::{all, DataSize};
use jrpm::pipeline::{run_pipeline, PipelineConfig, PipelineReport};
use jrpm::tier::TierConfig;
use serve::{ProfileRequest, ProfileResponse, Server, ServerConfig, DEFAULT_REPLAY_BATCH};
use test_tracer::config::TracerConfig;
use tvm::interp::Interp;
use tvm::record::RecordingSink;

fn assert_reports_identical(name: &str, a: &PipelineReport, b: &PipelineReport) {
    assert_eq!(a.seq_cycles, b.seq_cycles, "{name}: derived baseline");
    assert_eq!(a.profile_cycles, b.profile_cycles, "{name}: profile cycles");
    assert_eq!(a.annotation, b.annotation, "{name}: annotation overhead");
    assert_eq!(a.profile, b.profile, "{name}: TEST profile");
    assert_eq!(a.selection.chosen, b.selection.chosen, "{name}: selection");
    assert_eq!(
        a.selection.predicted_cycles, b.selection.predicted_cycles,
        "{name}: Equation 2 prediction"
    );
    assert_eq!(
        a.selection.total_cycles, b.selection.total_cycles,
        "{name}: selection baseline"
    );
    assert_eq!(
        a.actual.baseline_cycles, b.actual.baseline_cycles,
        "{name}: actual-TLS baseline"
    );
    assert_eq!(
        a.actual.tls_cycles, b.actual.tls_cycles,
        "{name}: TLS cycles"
    );
    assert_eq!(a.actual.per_loop, b.actual.per_loop, "{name}: per-loop TLS");
    assert_eq!(
        a.candidates.demoted_ids(),
        b.candidates.demoted_ids(),
        "{name}: pre-screen demotions"
    );
    assert_eq!(
        a.rescue.rescued.len(),
        b.rescue.rescued.len(),
        "{name}: rescue outcomes"
    );
}

/// All 26 benchmarks through the server (4 shards, pipelined submits)
/// against fresh batch runs.
#[test]
fn server_matches_batch_on_every_benchmark() {
    let cfg = PipelineConfig::default();
    let server = Server::start(ServerConfig {
        workers: 4,
        queue_depth: 8,
        ..ServerConfig::default()
    });
    let mut tickets = Vec::new();
    for bench in all() {
        let program = (bench.build)(DataSize::Small);
        let ticket = server
            .submit(ProfileRequest::Pipeline { program, cfg })
            .expect("queue accepts while the server lives");
        tickets.push((bench, ticket));
    }
    for (bench, ticket) in tickets {
        let name = bench.name;
        let resp = ticket
            .wait()
            .unwrap_or_else(|e| panic!("{name}: server request failed: {e}"));
        let served = resp.report().expect("pipeline response carries a report");
        let program = (bench.build)(DataSize::Small);
        let direct = run_pipeline(&program, &cfg)
            .unwrap_or_else(|e| panic!("{name}: batch run failed: {e:?}"));
        assert_reports_identical(name, &direct, served);
    }
    let snap = server.shutdown().snapshot();
    let requests: u64 = (0..4)
        .map(|i| snap.counter(&format!("serve.worker.{i}.requests")))
        .sum();
    assert_eq!(
        requests, 26,
        "every request was claimed by exactly one shard"
    );
}

/// The tier-scheduled request shape answers with the same report the
/// direct tier driver produces (spot-checked on a few benchmarks — the
/// online≡offline contract itself is pinned by the bench crate).
#[test]
fn tiered_requests_match_direct_tier_runs() {
    let cfg = PipelineConfig::default();
    let tier = TierConfig::default();
    let server = Server::start(ServerConfig {
        workers: 2,
        queue_depth: 4,
        ..ServerConfig::default()
    });
    for name in ["FourierTest", "db", "Huffman"] {
        let bench = benchsuite::by_name(name).expect("suite benchmark exists");
        let program = (bench.build)(DataSize::Small);
        let resp = server
            .profile(ProfileRequest::Tiered { program, cfg, tier })
            .unwrap_or_else(|e| panic!("{name}: tiered request failed: {e}"));
        let (report, tiers) = match &resp {
            ProfileResponse::Tiered { report, tiers } => (report.as_ref(), tiers),
            other => panic!("{name}: unexpected response {other:?}"),
        };
        let program = (bench.build)(DataSize::Small);
        let direct = jrpm::tier::run_tiered(&program, &cfg, &tier)
            .unwrap_or_else(|e| panic!("{name}: direct tier run failed: {e:?}"));
        assert_reports_identical(name, &direct.report, report);
        assert_eq!(
            tiers.selected_ids(),
            direct.tiers.selected_ids(),
            "{name}: terminal Selected tiers"
        );
    }
}

/// Owned replay, server replay, and zero-copy mmapped replay of the
/// same recording produce identical tracer profiles.
#[test]
fn mapped_replay_matches_owned_replay_suite_wide() {
    let dir = std::env::temp_dir().join(format!("serve-equiv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let server = Server::start(ServerConfig {
        workers: 3,
        queue_depth: 4,
        ..ServerConfig::default()
    });
    for bench in all() {
        let name = bench.name;
        let program = (bench.build)(DataSize::Small);
        let mut sink = RecordingSink::new();
        Interp::run(&program, &mut sink).unwrap_or_else(|e| panic!("{name}: run: {e:?}"));
        let recording = sink.into_recording();
        let path = dir.join(format!("{name}.tvmr"));
        recording.save(&path).expect("recording saves");

        let mut local = test_tracer::tracer::TestTracer::new(TracerConfig::default());
        recording.replay(&mut local);
        let expected = local.into_profile();

        let owned = server
            .profile(ProfileRequest::Replay {
                recording,
                tracer: TracerConfig::default(),
            })
            .unwrap_or_else(|e| panic!("{name}: replay request failed: {e}"));
        assert_eq!(*owned.profile(), expected, "{name}: served owned replay");

        let mapped = server
            .profile(ProfileRequest::ReplayMapped {
                path: path.clone(),
                tracer: TracerConfig::default(),
                batch_capacity: 512,
            })
            .unwrap_or_else(|e| panic!("{name}: mapped replay failed: {e}"));
        assert_eq!(*mapped.profile(), expected, "{name}: zero-copy replay");
        match (&owned, &mapped) {
            (
                ProfileResponse::Profile { events: a, .. },
                ProfileResponse::Profile { events: b, .. },
            ) => assert_eq!(a, b, "{name}: replayed event counts"),
            _ => unreachable!(),
        }
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `ReplayMapped` batch capacity far past the recording's length,
/// up to `usize::MAX`, replays as one batch: the same profile and event
/// count as the default capacity, never an allocation sized by the
/// request that panics the worker or aborts the server.
#[test]
fn huge_mapped_batch_capacity_replays_like_the_default() {
    let dir = std::env::temp_dir().join(format!("serve-capacity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let program = (all()[0].build)(DataSize::Small);
    let mut sink = RecordingSink::new();
    Interp::run(&program, &mut sink).expect("benchmark runs");
    let path = dir.join("replay.tvmr");
    sink.into_recording().save(&path).expect("recording saves");

    let server = Server::start(ServerConfig {
        workers: 1,
        queue_depth: 4,
        ..ServerConfig::default()
    });
    let replay = |batch_capacity| match server.profile(ProfileRequest::ReplayMapped {
        path: path.clone(),
        tracer: TracerConfig::default(),
        batch_capacity,
    }) {
        Ok(ProfileResponse::Profile { profile, events }) => (profile, events),
        other => panic!("capacity {batch_capacity}: {other:?}"),
    };
    let expected = replay(DEFAULT_REPLAY_BATCH);
    assert!(expected.1 > 0);
    for capacity in [1 << 40, usize::MAX] {
        assert_eq!(replay(capacity), expected, "capacity {capacity}");
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
