//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p jrpm-bench --bin tables -- all
//! cargo run --release -p jrpm-bench --bin tables -- table6 fig11
//! cargo run --release -p jrpm-bench --bin tables -- --small all
//! cargo run --release -p jrpm-bench --bin tables -- --small quick --obs-json obs.json
//! cargo run --release -p jrpm-bench --bin tables -- --small obs --trace-out trace.json
//! ```
//!
//! `--trace-out FILE` writes a Chrome trace-event JSON (open it in
//! Perfetto or `chrome://tracing`) and switches the pipeline runs to
//! span tracing. `--metrics-json FILE` dumps every run's raw metrics
//! registry.

use benchsuite::DataSize;
use jrpm::pipeline::PipelineConfig;
use jrpm_bench::runner::{run_benchmark_with, BenchResult};
use jrpm_bench::tables;

/// Renders or exports the suite's results.
type Render = fn(&[BenchResult]) -> String;

/// Removes `flag VALUE` from `args`, returning the value.
fn take(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args
        .iter()
        .position(|a| a == flag)
        .filter(|&i| i + 1 < args.len())?;
    args.remove(i);
    Some(args.remove(i))
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let obs_json_path = take(&mut args, "--obs-json");
    let trace_out_path = take(&mut args, "--trace-out");
    let metrics_json_path = take(&mut args, "--metrics-json");
    let agreement_json_path = take(&mut args, "--agreement-json");
    let mut size = DataSize::Default;
    args.retain(|a| match a.as_str() {
        "--small" => {
            size = DataSize::Small;
            false
        }
        "--large" => {
            size = DataSize::Large;
            false
        }
        _ => true,
    });
    // a bare export flag (CI smoke) should not drag in every table
    if args.is_empty() && agreement_json_path.is_none() {
        args.push("all".into());
    }
    // "quick" is a CI smoke artifact, deliberately not part of "all"
    let want = |name: &str| {
        args.iter()
            .any(|a| a == name || (a == "all" && name != "quick"))
    };

    println!("{}", tables::banner());

    let text_tables: [(&str, &dyn Fn() -> String); 14] = [
        ("table1", &tables::table1),
        ("table2", &tables::table2),
        ("table4", &tables::table4),
        ("table5", &tables::table5),
        ("table3", &|| tables::table3(size)),
        ("fig9", &tables::fig9),
        ("softslow", &|| tables::softslow(size)),
        ("ablation", &|| jrpm_bench::ablation::all(size)),
        ("quick", &|| jrpm_bench::ablation::quick(size)),
        ("methods", &|| tables::methods(size)),
        ("prescreen", &|| tables::prescreen(size)),
        ("rescue", &|| tables::rescue(size)),
        ("tier", &|| tables::tier(size)),
        ("scev", &|| tables::scev_table(size)),
    ];
    for (name, table) in text_tables {
        if want(name) {
            println!("{}", table());
        }
    }
    // The agreement report force-annotates every candidate and replays
    // each benchmark's trace, so it runs on demand: the full suite for
    // the `agreement` table, or just the quick-smoke set when only the
    // JSON artifact was requested. A soundness violation (a statically
    // disjoint pair that aliased dynamically) fails the process.
    if want("agreement") || agreement_json_path.is_some() {
        let quick_only = !want("agreement");
        let names: &[&str] = if quick_only { &["Huffman"] } else { &[] };
        let results = tables::agreement_results(names, size);
        if want("agreement") {
            println!("{}", tables::agreement(&results));
        }
        if let Some(path) = &agreement_json_path {
            std::fs::write(path, tables::agreement_json(&results)).expect("write agreement JSON");
            eprintln!("wrote {path}");
        }
        let unsound: Vec<&str> = results
            .iter()
            .filter(|(_, r)| !r.sound())
            .map(|(n, _)| *n)
            .collect();
        if !unsound.is_empty() {
            eprintln!(
                "agreement: SOUNDNESS VIOLATION — statically-disjoint pairs aliased \
                 dynamically in: {}",
                unsound.join(", ")
            );
            std::process::exit(1);
        }
    }

    let suite_tables: [(&str, Render); 6] = [
        ("table6", tables::table6),
        ("fig6", tables::fig6),
        ("fig10", tables::fig10),
        ("fig11", tables::fig11),
        ("scorecard", tables::scorecard),
        ("obs", tables::obs),
    ];
    let needs_full_suite = suite_tables.iter().any(|(name, _)| want(name));
    let needs_any_run =
        obs_json_path.is_some() || trace_out_path.is_some() || metrics_json_path.is_some();
    if needs_full_suite || needs_any_run {
        let suite = if needs_full_suite {
            benchsuite::all()
        } else {
            // an export flag without a suite artifact: a one-benchmark
            // smoke run is enough to produce the file
            vec![benchsuite::by_name("Huffman").expect("suite has Huffman")]
        };
        // span tracing costs a little time and memory, so it is only
        // switched on when someone asked for the trace file
        let cfg = PipelineConfig {
            obs: jrpm::pipeline::ObsConfig {
                trace: trace_out_path.is_some(),
                ..Default::default()
            },
            ..Default::default()
        };
        let mut results: Vec<BenchResult> = Vec::new();
        for b in &suite {
            eprint!("running {:<14}... ", b.name);
            match run_benchmark_with(b, size, &cfg) {
                Ok(r) => {
                    eprintln!(
                        "ok ({} loops, {} selected, pred {:.2}, act {:.2})",
                        r.report.candidates.total_loops(),
                        r.report.selection.chosen.len(),
                        r.report.predicted_normalized(),
                        r.report.actual_normalized()
                    );
                    results.push(r);
                }
                Err(e) => eprintln!("FAILED: {e}"),
            }
        }
        for (name, table) in suite_tables {
            if want(name) {
                println!("{}", table(&results));
            }
        }
        let exports: [(&Option<String>, Render); 3] = [
            (&obs_json_path, tables::obs_json),
            (&trace_out_path, tables::chrome_trace),
            (&metrics_json_path, tables::metrics_json),
        ];
        for (path, export) in exports {
            if let Some(path) = path {
                std::fs::write(path, export(&results)).unwrap_or_else(|e| panic!("{path}: {e}"));
                eprintln!("wrote {path}");
            }
        }
    }
}
