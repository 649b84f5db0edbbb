//! Runs the regression gates against `crates/bench/baselines/`.
//!
//! ```text
//! cargo run --release -p jrpm-bench --bin gate                    # every gate
//! cargo run --release -p jrpm-bench --bin gate -- prescreen tier  # a subset
//! cargo run --release -p jrpm-bench --bin gate -- --update scev   # refresh a baseline
//! ```
//!
//! The gates are `obs`, `prescreen`, `rescue`, `tier`, `scev` and
//! `serve` (see `jrpm_bench::gate`). Exits 0 when every selected gate
//! passes, 1 when one fails, 2 on a usage error.

use std::process::ExitCode;

use jrpm_bench::gate;

fn main() -> ExitCode {
    let dir = gate::baseline_dir();
    let gates = gate::all();
    let mut update = false;
    let mut names = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--update" {
            update = true;
        } else if gates.iter().any(|g| g.name() == arg) {
            names.push(arg);
        } else {
            let known: Vec<_> = gates.iter().map(|g| g.name()).collect();
            eprintln!("usage: gate [--update] [{}]...", known.join("|"));
            return ExitCode::from(2);
        }
    }
    let mut ok = true;
    for g in &gates {
        if names.is_empty() || names.iter().any(|n| n == g.name()) {
            ok &= gate::run(g.as_ref(), &dir, update);
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
