//! Multi-client stress: several clients hammer one server with the
//! whole 26-benchmark suite in different (deterministically shuffled)
//! orders. Every response must match its single-tenant batch run, and
//! the per-worker obs counters must sum exactly to the single-tenant
//! totals — no request lost, none double-served, no cross-shard
//! contamination.

use std::collections::BTreeMap;
use std::sync::Arc;

use benchsuite::{all, Benchmark, DataSize};
use jrpm::pipeline::{run_pipeline, PipelineConfig, PipelineReport};
use serve::{ProfileRequest, Server, ServerConfig};

const CLIENTS: u64 = 3;
const WORKERS: usize = 4;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn shuffled(seed: u64) -> Vec<Benchmark> {
    let mut order: Vec<Benchmark> = all();
    let mut state = seed;
    for i in (1..order.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

#[test]
fn concurrent_clients_all_match_single_tenant_runs() {
    let cfg = PipelineConfig::default();
    let baselines: BTreeMap<&str, PipelineReport> = all()
        .into_iter()
        .map(|b| {
            let program = (b.build)(DataSize::Small);
            let report = run_pipeline(&program, &cfg)
                .unwrap_or_else(|e| panic!("{}: baseline failed: {e:?}", b.name));
            (b.name, report)
        })
        .collect();
    let baselines = Arc::new(baselines);

    let server = Server::start(ServerConfig {
        workers: WORKERS,
        queue_depth: 4,
        ..ServerConfig::default()
    });
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let server = &server;
            let baselines = Arc::clone(&baselines);
            scope.spawn(move || {
                for bench in shuffled(0xC0FF_EE00 + client) {
                    let name = bench.name;
                    let program = (bench.build)(DataSize::Small);
                    let resp = server
                        .profile(ProfileRequest::Pipeline { program, cfg })
                        .unwrap_or_else(|e| panic!("client {client} / {name}: {e}"));
                    let served = resp.report().expect("pipeline response has a report");
                    let base = &baselines[name];
                    assert_eq!(
                        served.seq_cycles, base.seq_cycles,
                        "client {client} / {name}: baseline differs under load"
                    );
                    assert_eq!(
                        served.profile, base.profile,
                        "client {client} / {name}: profile differs under load"
                    );
                    assert_eq!(
                        served.selection.chosen, base.selection.chosen,
                        "client {client} / {name}: selection differs under load"
                    );
                    assert_eq!(
                        served.actual.tls_cycles, base.actual.tls_cycles,
                        "client {client} / {name}: actual TLS differs under load"
                    );
                }
            });
        }
    });

    let snap = server.shutdown().snapshot();
    let total_requests: u64 = (0..WORKERS)
        .map(|i| snap.counter(&format!("serve.worker.{i}.requests")))
        .sum();
    let total_events: u64 = (0..WORKERS)
        .map(|i| snap.counter(&format!("serve.worker.{i}.events")))
        .sum();
    let total_panics: u64 = (0..WORKERS)
        .map(|i| snap.counter(&format!("serve.worker.{i}.panics")))
        .sum();
    let expected_events: u64 = baselines.values().map(|r| r.profile.events).sum();
    assert_eq!(
        total_requests,
        CLIENTS * 26,
        "per-worker request counters sum to the submitted total"
    );
    assert_eq!(
        total_events,
        CLIENTS * expected_events,
        "per-worker event counters sum to the single-tenant totals"
    );
    assert_eq!(total_panics, 0, "no contained panics under load");
}
