//! Output documents: the one-line result of a run, the document
//! `perfbench run` writes over many runs, and `perfbench compare`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use obs::json::{parse, quote, Value};

use crate::metrics::{unit_of, END_TO_END, PER_LAYER};
use crate::stats::{iqr_frac, quartiles, verdict, Verdict};
use crate::workload::RunOutput;

/// Prefix of the line carrying a run's machine/config block, printed
/// just before the result line.
pub const CONFIG_PREFIX: &str = "perfbench-config ";

/// Coverage of the layer decomposition a traced run must reach.
pub const COVERAGE_RANGE: (f64, f64) = (0.9, 1.1);

fn object(pairs: &[(&str, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The final line of a run: `correct`, `attempted`, `failed` and every
/// metric with its unit.
pub fn result_line(out: &RunOutput) -> String {
    let metrics: Vec<(&str, String)> = out
        .metrics
        .iter()
        .map(|&(name, v)| {
            let unit = unit_of(name).unwrap_or("");
            (
                name,
                format!("{{\"value\": {v}, \"unit\": {}}}", quote(unit)),
            )
        })
        .collect();
    object(&[
        ("correct", (out.failed == 0).to_string()),
        ("attempted", out.attempted.to_string()),
        ("failed", out.failed.to_string()),
        ("metrics", object(&metrics)),
    ])
}

/// The machine/config line of a run.
pub fn config_line(out: &RunOutput) -> String {
    format!("{CONFIG_PREFIX}{}", object(&out.config))
}

/// One child run as `perfbench run` collected it.
#[derive(Debug, Clone)]
pub struct ChildRun {
    /// Seed passed to the child.
    pub seed: u64,
    /// The child exited with status 0 and printed a result line.
    pub ok: bool,
    /// Its result line, parsed.
    pub result: Option<Value>,
    /// Its config line, as printed (JSON).
    pub config: Option<String>,
}

impl ChildRun {
    /// The child's value of `metric`, if it reported one.
    pub fn metric(&self, metric: &str) -> Option<f64> {
        self.result
            .as_ref()?
            .get("metrics")?
            .get(metric)?
            .get("value")?
            .as_f64()
    }

    fn count(&self, key: &str) -> u64 {
        self.result
            .as_ref()
            .and_then(|r| r.get(key))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    }

    fn correct(&self) -> bool {
        self.ok
            && self
                .result
                .as_ref()
                .and_then(|r| r.get("correct"))
                .and_then(Value::as_bool)
                == Some(true)
    }
}

/// Metric names a document reports: end to end, or per layer.
pub fn metric_names(traced: bool) -> Vec<&'static str> {
    if traced {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    }
}

fn bound_of(metric: &str) -> Option<f64> {
    END_TO_END
        .iter()
        .find(|m| m.name == metric)
        .map(|m| m.bound)
}

fn num(v: Option<f64>) -> String {
    v.filter(|v| v.is_finite())
        .map_or("null".into(), |v| v.to_string())
}

/// Failed operations over attempted operations, over all runs; a run
/// that did not finish counts one failed operation.
pub fn failed_frac(runs: &[ChildRun]) -> f64 {
    let attempted: u64 = runs.iter().map(|r| r.count("attempted").max(1)).sum();
    let failed: u64 = runs
        .iter()
        .map(|r| {
            if r.ok {
                r.count("failed")
            } else {
                r.count("failed").max(1)
            }
        })
        .sum();
    failed as f64 / attempted.max(1) as f64
}

/// True when every run finished, reported `correct`, and (traced) its
/// decomposition covered the pass within [`COVERAGE_RANGE`].
pub fn runs_pass(runs: &[ChildRun], traced: bool) -> bool {
    runs.iter().all(|r| {
        r.correct()
            && (!traced
                || r.metric("trace.coverage_frac")
                    .is_some_and(|c| (COVERAGE_RANGE.0..=COVERAGE_RANGE.1).contains(&c)))
    })
}

/// Renders the `perfbench run` document.
pub fn run_document(
    machine: &[(&'static str, String)],
    config: &[(&'static str, String)],
    traced: bool,
    by_workload: &[(&str, Vec<ChildRun>)],
) -> String {
    let names = metric_names(traced);
    let mut workloads = Vec::new();
    for (w, runs) in by_workload {
        let mut summary = Vec::new();
        for &m in &names {
            let values: Vec<f64> = runs.iter().filter_map(|r| r.metric(m)).collect();
            let q = quartiles(&values);
            summary.push((
                m,
                object(&[
                    ("unit", quote(unit_of(m).unwrap_or(""))),
                    ("median", num(q.map(|q| q.1))),
                    ("q1", num(q.map(|q| q.0))),
                    ("q3", num(q.map(|q| q.2))),
                    ("iqr_frac", num(iqr_frac(&values))),
                    ("bound", num(bound_of(m))),
                    ("samples", values.len().to_string()),
                ]),
            ));
        }
        let rows: Vec<String> = runs
            .iter()
            .map(|r| {
                let metrics: Vec<(&str, String)> =
                    names.iter().map(|&m| (m, num(r.metric(m)))).collect();
                object(&[
                    ("seed", r.seed.to_string()),
                    ("ok", r.ok.to_string()),
                    ("correct", r.correct().to_string()),
                    ("attempted", r.count("attempted").to_string()),
                    ("failed", r.count("failed").to_string()),
                    ("config", r.config.clone().unwrap_or("null".into())),
                    ("metrics", object(&metrics)),
                ])
            })
            .collect();
        workloads.push((
            *w,
            object(&[
                ("failed_frac", failed_frac(runs).to_string()),
                ("summary", object(&summary)),
                ("runs", format!("[{}]", rows.join(", "))),
            ]),
        ));
    }
    let mut doc = String::from("{\n");
    let _ = writeln!(doc, "  \"machine\": {},", object(machine));
    let _ = writeln!(doc, "  \"config\": {},", object(config));
    let _ = writeln!(doc, "  \"traced\": {traced},");
    doc.push_str("  \"workloads\": {\n");
    let body: Vec<String> = workloads
        .iter()
        .map(|(w, v)| format!("    {}: {v}", quote(w)))
        .collect();
    doc.push_str(&body.join(",\n"));
    doc.push_str("\n  }\n}\n");
    doc
}

/// Per-workload, per-metric run values of a `perfbench run` document.
type RunValues = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn run_values(doc: &Value) -> Result<(RunValues, BTreeMap<String, f64>), String> {
    let workloads = match doc.get("workloads") {
        Some(Value::Obj(m)) => m,
        _ => return Err("not a perfbench run document (no \"workloads\")".into()),
    };
    let mut values = RunValues::new();
    let mut failed = BTreeMap::new();
    for (w, body) in workloads {
        let runs = body.get("runs").and_then(Value::as_arr).unwrap_or(&[]);
        let per_metric = values.entry(w.clone()).or_default();
        for run in runs {
            if let Some(Value::Obj(metrics)) = run.get("metrics") {
                for (name, v) in metrics {
                    if let Some(v) = v.as_f64() {
                        per_metric.entry(name.clone()).or_default().push(v);
                    }
                }
            }
        }
        let f = body
            .get("failed_frac")
            .and_then(Value::as_f64)
            .unwrap_or(1.0);
        failed.insert(w.clone(), f);
    }
    Ok((values, failed))
}

fn cell(values: &[f64]) -> String {
    match quartiles(values) {
        Some((q1, med, q3)) => format!("{med:>12.4} [{q1:.4}, {q3:.4}]"),
        None => format!("{:>12}", "-"),
    }
}

/// Compares two `perfbench run` documents, parent first. Returns the
/// report and whether any end-to-end metric came out worse.
///
/// # Errors
///
/// A document that does not parse as a run document.
pub fn compare(parent: &str, change: &str) -> Result<(String, bool), String> {
    let parse_doc = |t: &str| {
        parse(t)
            .map_err(|e| e.to_string())
            .and_then(|d| run_values(&d))
    };
    let (a, a_failed) = parse_doc(parent)?;
    let (b, b_failed) = parse_doc(change)?;
    let mut out = String::new();
    let mut worse = false;
    let _ = writeln!(
        out,
        "{:<14} {:<36} {:>32} {:>32} {:>8} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "bound"
    );
    for (w, a_metrics) in &a {
        let Some(b_metrics) = b.get(w) else {
            let _ = writeln!(out, "{w:<14} (missing from the change's document)");
            continue;
        };
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for name in names {
            let (Some(av), Some(bv)) = (a_metrics.get(name), b_metrics.get(name)) else {
                continue;
            };
            let delta = match (quartiles(av), quartiles(bv)) {
                (Some(x), Some(y)) if x.1 != 0.0 => {
                    format!("{:+.2}%", (y.1 - x.1) / x.1.abs() * 100.0)
                }
                _ => "-".into(),
            };
            let (bound, v) = match END_TO_END.iter().find(|m| m.name == name) {
                Some(m) => {
                    let v = verdict(av, bv, m.better, m.bound);
                    worse |= v == Some(Verdict::Worse);
                    (format!("{:.2}", m.bound), v.map_or("-", Verdict::name))
                }
                None => ("-".into(), "-"),
            };
            let _ = writeln!(
                out,
                "{w:<14} {:<36} {:>32} {:>32} {delta:>8} {bound:>6}  {v}",
                format!("{name} ({})", unit_of(name).unwrap_or("")),
                cell(av),
                cell(bv),
            );
        }
        let (fa, fb) = (a_failed[w], b_failed.get(w).copied().unwrap_or(1.0));
        let v = if fb > 0.0 {
            Verdict::Worse
        } else {
            Verdict::Unchanged
        };
        worse |= v == Verdict::Worse;
        let _ = writeln!(
            out,
            "{w:<14} {:<36} {fa:>32} {fb:>32} {:>8} {:>6}  {}",
            "failed_frac (frac)",
            "-",
            "0",
            v.name()
        );
    }
    Ok((out, worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seed: u64, ops: f64, failed: u64) -> ChildRun {
        let line = format!(
            "{{\"correct\": {}, \"attempted\": 10, \"failed\": {failed}, \"metrics\": \
             {{\"ops_per_s\": {{\"value\": {ops}, \"unit\": \"1/s\"}}}}}}",
            failed == 0
        );
        ChildRun {
            seed,
            ok: true,
            result: Some(parse(&line).unwrap()),
            config: None,
        }
    }

    fn doc(ops: &[f64], failed: u64) -> String {
        let runs: Vec<ChildRun> = ops
            .iter()
            .enumerate()
            .map(|(i, &v)| run(i as u64, v, failed))
            .collect();
        run_document(&[], &[], false, &[("batch-small", runs)])
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let out = RunOutput {
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s", 0.5), ("ops_per_s", 12.25)],
            config: Vec::new(),
        };
        let v = parse(&result_line(&out)).unwrap();
        let Value::Obj(keys) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = keys.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().get("ops_per_s").unwrap();
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(12.25));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("1/s"));
    }

    #[test]
    fn compare_flags_a_throughput_drop() {
        let parent = doc(&[100.0, 101.0, 99.0, 100.5, 99.5], 0);
        let (report, worse) = compare(&parent, &parent).unwrap();
        assert!(!worse, "{report}");
        assert!(report.contains("unchanged"), "{report}");
        let slower = doc(&[70.0, 71.0, 69.0, 70.5, 69.5], 0);
        let (report, worse) = compare(&parent, &slower).unwrap();
        assert!(worse, "{report}");
        let broken = doc(&[100.0, 101.0, 99.0, 100.5, 99.5], 1);
        assert!(compare(&parent, &broken).unwrap().1);
    }

    #[test]
    fn failures_and_missing_results_count() {
        assert_eq!(failed_frac(&[run(0, 1.0, 0)]), 0.0);
        assert_eq!(failed_frac(&[run(0, 1.0, 2)]), 0.2);
        let dead = ChildRun {
            seed: 0,
            ok: false,
            result: None,
            config: None,
        };
        let dead = [dead];
        assert_eq!(failed_frac(&dead), 1.0);
        assert!(!runs_pass(&dead, false));
        assert!(runs_pass(&[run(0, 1.0, 0)], false));
        assert!(
            !runs_pass(&[run(0, 1.0, 0)], true),
            "traced runs need coverage"
        );
    }
}
