//! Throughput regression gate.
//!
//! ```text
//! cargo run --release -p jrpm-bench --bin throughput-gate -- <baseline.json> <current.json>
//! cargo run --release -p jrpm-bench --bin throughput-gate -- <baseline.json> <current.json> --update
//! ```
//!
//! Diffs two `throughput` documents and exits non-zero when the server
//! regressed against the committed baseline:
//!
//! - `headline.scaling_efficiency` (server events/sec per core over
//!   direct single-core events/sec — dimensionless, so the gate is
//!   machine-speed independent) may regress at most 15 % relative;
//!   improvements always pass;
//! - per-event server cost relative to the pipeline request cost
//!   (replay p50 over pipeline p50) may grow at most 50 % — a tail
//!   check that catches the queue serializing;
//! - structural drift always fails: benchmark count, request counts,
//!   zero-event runs, contained panics.
//!
//! Raw events/sec are intentionally *not* gated — they track machine
//! speed, not code quality — but both documents' values are echoed so
//! the CI log carries the trajectory.
//!
//! `--update` rewrites the baseline from the current file instead of
//! comparing, for intentional changes.

use obs::json::{parse, Value};
use std::process::ExitCode;

/// Maximum relative downward drift for the scaling-efficiency headline.
const MAX_EFFICIENCY_DROP: f64 = 0.15;
/// Maximum relative upward drift of replay-p50 over pipeline-p50.
const MAX_TAIL_GROWTH: f64 = 0.50;
/// Maximum fraction of events/sec the flight recorder + tail sampler
/// may cost relative to a telemetry-off run (mirrors the bench's own
/// bound so a stale binary cannot quietly weaken the check).
const MAX_RECORDER_OVERHEAD: f64 = 0.05;

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("throughput-gate: cannot read {path}: {e}"));
    parse(&text).unwrap_or_else(|e| panic!("throughput-gate: {path} is not valid JSON: {e}"))
}

fn num(doc: &Value, section: &str, key: &str) -> f64 {
    doc.get(section)
        .and_then(|s| s.get(key))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("throughput-gate: document is missing {section}.{key}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let update = args.iter().any(|a| a == "--update");
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [baseline_path, current_path] = paths[..] else {
        eprintln!("usage: throughput-gate <baseline.json> <current.json> [--update]");
        return ExitCode::FAILURE;
    };

    if update {
        let current = std::fs::read_to_string(current_path)
            .unwrap_or_else(|e| panic!("throughput-gate: cannot read {current_path}: {e}"));
        parse(&current).unwrap_or_else(|e| panic!("throughput-gate: {current_path} invalid: {e}"));
        std::fs::write(baseline_path, current)
            .unwrap_or_else(|e| panic!("throughput-gate: cannot write {baseline_path}: {e}"));
        eprintln!("throughput-gate: baseline {baseline_path} updated from {current_path}");
        return ExitCode::SUCCESS;
    }

    let baseline = load(baseline_path);
    let current = load(current_path);
    let mut failures: Vec<String> = Vec::new();

    // -- structural drift ------------------------------------------------
    for (section, key) in [
        ("config", "benchmarks"),
        ("config", "workers"),
        ("config", "clients"),
        ("config", "rounds"),
        ("replay", "requests"),
        ("pipeline", "requests"),
    ] {
        let b = num(&baseline, section, key);
        let c = num(&current, section, key);
        if b != c {
            failures.push(format!(
                "{section}.{key} changed shape: baseline {b}, current {c} — \
                 regenerate the baseline with --update"
            ));
        }
    }
    for (section, key, what) in [
        ("replay", "events", "the replay phase traced no events"),
        (
            "direct",
            "events",
            "the calibration replay traced no events",
        ),
    ] {
        if num(&current, section, key) <= 0.0 {
            failures.push(format!("{section}.{key} is zero: {what}"));
        }
    }
    let panics = num(&current, "headline", "contained_panics");
    if panics > 0.0 {
        failures.push(format!(
            "headline.contained_panics = {panics} — the server lost work"
        ));
    }

    // -- recorder overhead: telemetry must stay out of the hot path ------
    let c_overhead = num(&current, "headline", "recorder_overhead_frac");
    if c_overhead > MAX_RECORDER_OVERHEAD {
        failures.push(format!(
            "recorder_overhead_frac {:.1}% exceeds the {:.0}% budget — the flight \
             recorder or tail sampler got expensive",
            c_overhead * 100.0,
            MAX_RECORDER_OVERHEAD * 100.0
        ));
    }

    // -- the gated headline: normalized per-core throughput --------------
    let b_eff = num(&baseline, "headline", "scaling_efficiency");
    let c_eff = num(&current, "headline", "scaling_efficiency");
    if !b_eff.is_finite() || b_eff <= 0.0 {
        failures.push(format!(
            "baseline scaling_efficiency {b_eff} is not positive — refresh it with --update"
        ));
    } else if c_eff < b_eff * (1.0 - MAX_EFFICIENCY_DROP) {
        failures.push(format!(
            "scaling_efficiency regressed {:.0}% (baseline {b_eff:.3}, current {c_eff:.3}, \
             tolerance {:.0}%)",
            (b_eff - c_eff) / b_eff * 100.0,
            MAX_EFFICIENCY_DROP * 100.0
        ));
    }

    // -- tail check: replay latency relative to pipeline latency ---------
    let rel = |doc: &Value| {
        let replay = num(doc, "replay", "latency_p50_nanos");
        let pipe = num(doc, "pipeline", "latency_p50_nanos");
        if pipe > 0.0 {
            replay / pipe
        } else {
            0.0
        }
    };
    let (b_rel, c_rel) = (rel(&baseline), rel(&current));
    if b_rel > 0.0 && c_rel > b_rel * (1.0 + MAX_TAIL_GROWTH) {
        failures.push(format!(
            "replay/pipeline p50 latency ratio grew {:.0}% (baseline {b_rel:.3}, \
             current {c_rel:.3}, tolerance {:.0}%)",
            (c_rel - b_rel) / b_rel * 100.0,
            MAX_TAIL_GROWTH * 100.0
        ));
    }

    eprintln!(
        "throughput-gate: events/sec per core {:.0} -> {:.0} (informational), \
         scaling efficiency {b_eff:.3} -> {c_eff:.3} (gated at -{:.0}%)",
        num(&baseline, "headline", "events_per_sec_per_core"),
        num(&current, "headline", "events_per_sec_per_core"),
        MAX_EFFICIENCY_DROP * 100.0
    );
    if failures.is_empty() {
        eprintln!("throughput-gate: OK");
        ExitCode::SUCCESS
    } else {
        eprintln!("throughput-gate: FAILED — {} violation(s):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        eprintln!(
            "(intentional change? refresh with: throughput-gate <baseline> <current> --update)"
        );
        ExitCode::FAILURE
    }
}
