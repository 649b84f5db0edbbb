//! The metric catalogue: every name the benchmark reports, with its
//! unit, its better direction and (end to end only) its regression
//! bound. `BENCHMARK.json` at the repository root mirrors this table;
//! a unit test keeps the two in step.

use crate::stats::Better;

/// The measured window of one run, in seconds: `run_seconds` in
/// `BENCHMARK.json`, and what `perfbench run` passes to every child.
pub const RUN_SECONDS: u64 = 30;

/// One end-to-end metric: what a user of the pipeline or server sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Every end-to-end metric, reported by each untraced run.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "prog_geomean_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.24,
    },
    EndToEnd {
        name: "latency_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.23,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.06,
    },
];

/// Per-layer metrics of the traced run, as `(name, unit, better)`.
/// Every `.ms` value is summed over one pass of the workload's programs
/// and reported as the median over the run's rounds.
pub const PER_LAYER: [(&str, &str, Better); 39] = [
    ("cfgir.extract.ms", "ms", Better::Lower),
    ("cfgir.extract.loops", "count", Better::Higher),
    ("cfgir.extract.demoted", "count", Better::Higher),
    ("cfgir.rescue.ms", "ms", Better::Lower),
    ("cfgir.rescue.accept_frac", "frac", Better::Higher),
    ("cfgir.floors.ms", "ms", Better::Lower),
    ("jrpm.annotate.ms", "ms", Better::Lower),
    ("jrpm.annotate.insns", "count", Better::Lower),
    ("tvm.record.ms", "ms", Better::Lower),
    ("tvm.record.events", "count", Better::Lower),
    ("tvm.record.ns_per_event", "ns/event", Better::Lower),
    ("tvm.recording.open_ms", "ms", Better::Lower),
    (
        "tvm.recording.decode_ns_per_event",
        "ns/event",
        Better::Lower,
    ),
    ("core.tracer.ms", "ms", Better::Lower),
    ("core.tracer.ns_per_event", "ns/event", Better::Lower),
    ("core.select.ms", "ms", Better::Lower),
    ("hydra.collect.ms", "ms", Better::Lower),
    ("jrpm.pipeline.interp_passes", "count", Better::Lower),
    ("hydra.sim.ms", "ms", Better::Lower),
    ("hydra.sim.threads", "count", Better::Higher),
    ("hydra.sim.useful_frac", "frac", Better::Higher),
    ("jrpm.tier.epochs", "count", Better::Lower),
    ("jrpm.tier.vs_batch_ratio", "ratio", Better::Lower),
    ("jrpm.tier.stage.epochs.ms", "ms", Better::Lower),
    ("jrpm.tier.stage.annotate.ms", "ms", Better::Lower),
    ("jrpm.tier.stage.record.ms", "ms", Better::Lower),
    ("jrpm.tier.stage.replay-profile.ms", "ms", Better::Lower),
    ("jrpm.tier.stage.select.ms", "ms", Better::Lower),
    ("jrpm.tier.stage.collect.ms", "ms", Better::Lower),
    ("jrpm.tier.stage.simulate.ms", "ms", Better::Lower),
    ("serve.work_ms", "ms", Better::Lower),
    ("serve.unloaded_overhead_frac", "frac", Better::Lower),
    ("serve.queue_wait_frac", "frac", Better::Lower),
    ("serve.worker_busy_frac", "frac", Better::Higher),
    ("serve.replay_mapped.p50_ms", "ms", Better::Lower),
    ("serve.pipeline.p50_ms", "ms", Better::Lower),
    ("obs.recorder_overhead_frac", "frac", Better::Lower),
    ("trace.coverage_frac", "frac", Better::Higher),
    ("trace.pass_ms", "ms", Better::Lower),
];

/// The unit of a metric name from either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::json::{parse, Value};

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn rows<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
    }

    fn field<'a>(row: &'a Value, key: &str) -> &'a str {
        row.get(key).and_then(Value::as_str).unwrap_or("")
    }

    #[test]
    fn benchmark_json_mirrors_the_catalogue() {
        let doc = manifest();
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_u64),
            Some(RUN_SECONDS)
        );
        let e2e = rows(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, m) in e2e.iter().zip(END_TO_END.iter()) {
            assert_eq!(field(row, "name"), m.name);
            assert_eq!(field(row, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(row, "better"), m.better.name(), "{}", m.name);
            assert_eq!(
                row.get("bound").and_then(Value::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let layers = rows(&doc, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (row, (name, unit, better)) in layers.iter().zip(PER_LAYER.iter()) {
            assert_eq!(field(row, "name"), *name);
            assert_eq!(field(row, "unit"), *unit, "{name}");
            assert_eq!(field(row, "better"), better.name(), "{name}");
        }
        let workloads: Vec<&str> = rows(&doc, "workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn setup_time_has_the_largest_bound() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }
}
