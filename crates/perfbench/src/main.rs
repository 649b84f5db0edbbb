//! `perfbench` — run the benchmark, compare two result documents, or
//! check and regenerate the output oracle.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench run (--all | --workload NAME ...) --out FILE [--seed N]
//!               [--runs K] [--traced]
//! perfbench compare PARENT.json CHANGE.json
//! perfbench expect [--update]
//! ```
//!
//! The first form runs one workload in this process and prints its
//! result as the last line of standard output. `run` runs each
//! selected workload `K` times, each run in its own child process with
//! the window `BENCHMARK.json` fixes, and writes one JSON document.

use std::process::{Command, ExitCode, Stdio};

use obs::json::parse;
use perfbench::metrics::{unit_of, RUN_SECONDS};
use perfbench::oracle::{Oracle, EXPECTED_PATH};
use perfbench::report::{
    compare, config_line, metric_names, result_line, run_document, runs_pass, ChildRun,
    CONFIG_PREFIX,
};
use perfbench::stats::quartiles;
use perfbench::traced::run_traced;
use perfbench::workload::{machine_config, run_untraced};
use perfbench::Workload;

/// Runs per workload that `perfbench run` makes by default.
const DEFAULT_RUNS: u64 = 5;

const USAGE: &str = "usage:
  perfbench --workload NAME --seed N --seconds S --trace 0|1
  perfbench run (--all | --workload NAME ...) --out FILE [--seed N] [--runs K] [--traced]
  perfbench compare PARENT.json CHANGE.json
  perfbench expect [--update]
workloads: batch-small, batch-default, tiered-small, serve-mixed";

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn parse_seconds(s: &str) -> Result<f64, String> {
    s.parse::<f64>()
        .ok()
        .filter(|v| v.is_finite() && *v > 0.0 && *v <= 3600.0)
        .ok_or_else(|| format!("--seconds wants a number in (0, 3600], got {s:?}"))
}

fn parse_workload(s: &str) -> Result<Workload, String> {
    Workload::parse(s).ok_or_else(|| format!("unknown workload {s:?}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("expect") => cmd_expect(&args[1..]),
        Some("--workload") => cmd_single(&args),
        _ => Err(String::new()),
    };
    result.unwrap_or_else(|msg| {
        if msg.is_empty() {
            usage_error("expected a command")
        } else {
            usage_error(&msg)
        }
    })
}

/// One workload in this process: the form `BENCHMARK.json`'s command
/// takes, and what `run` starts each child with.
fn cmd_single(args: &[String]) -> Result<ExitCode, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(parse_workload(value)?),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed {value:?}"))?,
                )
            }
            "--seconds" => seconds = Some(parse_seconds(value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let (Some(w), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace) else {
        return Err("--workload, --seed, --seconds and --trace are all required".into());
    };
    let oracle = Oracle::committed()?;
    let run = if trace { run_traced } else { run_untraced };
    let out = match run(w, seed, seconds, &oracle) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", w.name());
            return Ok(ExitCode::FAILURE);
        }
    };
    for (name, v) in &out.metrics {
        eprintln!(
            "{:<16} {name:<36} {v:>16.6} {}",
            w.name(),
            unit_of(name).unwrap_or("")
        );
    }
    if out.failed > 0 {
        eprintln!(
            "perfbench: {}: {} of {} operations failed",
            w.name(),
            out.failed,
            out.attempted
        );
    }
    println!("{}", config_line(&out));
    println!("{}", result_line(&out));
    Ok(ExitCode::SUCCESS)
}

fn run_child(w: Workload, seed: u64, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &RUN_SECONDS.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run a child process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = stdout.lines().last().and_then(|l| parse(l).ok());
    let config = stdout
        .lines()
        .find_map(|l| l.strip_prefix(CONFIG_PREFIX))
        .map(str::to_string);
    Ok(ChildRun {
        seed,
        ok: out.status.success() && result.is_some(),
        result,
        config,
    })
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let mut workloads = Vec::new();
    let (mut seed, mut runs, mut traced, mut out) = (1u64, DEFAULT_RUNS, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--all" => workloads = Workload::ALL.to_vec(),
            "--traced" => traced = true,
            "--workload" => workloads.push(parse_workload(value()?)?),
            "--seed" => seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--runs" => {
                runs = value()?
                    .parse()
                    .ok()
                    .filter(|&k| k > 0)
                    .ok_or("--runs wants a positive count")?
            }
            "--out" => out = Some(value()?.clone()),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if workloads.is_empty() {
        return Err("run needs --all or at least one --workload".into());
    }
    let out = out.ok_or("run needs --out FILE")?;

    // runs interleave the workloads, so slow drift of the machine
    // spreads over all of them
    let mut by_workload: Vec<(&str, Vec<ChildRun>)> =
        workloads.iter().map(|w| (w.name(), Vec::new())).collect();
    for r in 0..runs {
        for (k, &w) in workloads.iter().enumerate() {
            eprintln!(
                "perfbench: {} run {} of {runs} (seed {})",
                w.name(),
                r + 1,
                seed + r
            );
            by_workload[k].1.push(run_child(w, seed + r, traced)?);
        }
    }

    let names = metric_names(traced);
    let mut pass = true;
    for (w, child_runs) in &by_workload {
        pass &= runs_pass(child_runs, traced);
        for &m in &names {
            let values: Vec<f64> = child_runs.iter().filter_map(|r| r.metric(m)).collect();
            if let Some((q1, med, q3)) = quartiles(&values) {
                println!(
                    "{w:<16} {m:<36} {med:>16.6} {:<9} [{q1:.6}, {q3:.6}] n={}",
                    unit_of(m).unwrap_or(""),
                    values.len()
                );
            }
        }
    }
    let config = [
        ("seed", seed.to_string()),
        ("runs", runs.to_string()),
        ("seconds", RUN_SECONDS.to_string()),
        ("traced", traced.to_string()),
    ];
    let doc = run_document(&machine_config(), &config, traced, &by_workload);
    std::fs::write(&out, doc).map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!("perfbench: wrote {out}");
    if !pass {
        eprintln!(
            "perfbench: FAILED: a run failed, reported an incorrect output{}",
            if traced {
                ", or missed the coverage range [0.9, 1.1]"
            } else {
                ""
            }
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two documents".into());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let (report, worse) = compare(&read(a)?, &read(b)?)?;
    print!("{report}");
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_expect(args: &[String]) -> Result<ExitCode, String> {
    let update = match args {
        [] => false,
        [flag] if flag == "--update" => true,
        _ => return Err("expect takes only --update".into()),
    };
    let fresh = Oracle::compute()?;
    if update {
        std::fs::write(EXPECTED_PATH, fresh.to_json())
            .map_err(|e| format!("cannot write {EXPECTED_PATH}: {e}"))?;
        eprintln!("perfbench: wrote {EXPECTED_PATH}");
        return Ok(ExitCode::SUCCESS);
    }
    let diffs = Oracle::committed()?.diff(&fresh);
    for d in &diffs {
        eprintln!("perfbench: expected.json differs: {d}");
    }
    eprintln!("perfbench: {} differences from expected.json", diffs.len());
    Ok(if diffs.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
