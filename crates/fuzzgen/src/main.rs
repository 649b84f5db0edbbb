//! Fuzzing CLI.
//!
//! ```text
//! fuzzgen [--seeds A..B] [--artifact-dir DIR] [--corrupt FILE]
//! ```
//!
//! Runs the differential oracle stack over every seed in `A..B`
//! (default `0..500`). On the first failure the spec is shrunk while it
//! still trips the same oracle, the minimized builder snippet is
//! printed (and written under `--artifact-dir` if given), and the
//! process exits nonzero. `--corrupt FILE` runs the byte-corruption
//! sweep over a recording file instead (or before the seeds, when
//! `--seeds` is also given explicitly).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

use fuzzgen::corrupt::{corruption_sweep, mmap_sweep, panic_message};
use fuzzgen::oracle::{check_spec, CheckStats, Failure};
use fuzzgen::spec::{gen_spec, render, ProgramSpec};

struct Args {
    seed_lo: u64,
    seed_hi: u64,
    seeds_explicit: bool,
    artifact_dir: Option<String>,
    corrupt: Option<String>,
}

fn usage() -> ! {
    eprintln!("usage: fuzzgen [--seeds A..B] [--artifact-dir DIR] [--corrupt FILE]");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut out = Args {
        seed_lo: 0,
        seed_hi: 500,
        seeds_explicit: false,
        artifact_dir: None,
        corrupt: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seeds" => {
                let v = it.next().unwrap_or_else(|| usage());
                let Some((lo, hi)) = v.split_once("..") else {
                    usage()
                };
                out.seed_lo = lo.parse().unwrap_or_else(|_| usage());
                out.seed_hi = hi.parse().unwrap_or_else(|_| usage());
                out.seeds_explicit = true;
            }
            "--artifact-dir" => out.artifact_dir = Some(it.next().unwrap_or_else(|| usage())),
            "--corrupt" => out.corrupt = Some(it.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    out
}

/// Runs the oracle stack, converting a panic anywhere in the pipeline
/// into a reportable (and shrinkable) [`Failure`].
fn check_spec_caught(spec: &ProgramSpec) -> Result<CheckStats, Failure> {
    match catch_unwind(AssertUnwindSafe(|| check_spec(spec))) {
        Ok(r) => r,
        Err(payload) => Err(Failure {
            oracle: "panic",
            detail: panic_message(&*payload),
        }),
    }
}

fn report_failure(seed: u64, failure: &Failure, args: &Args) {
    eprintln!("seed {seed} FAILED: {failure}");
    eprintln!("shrinking (this re-runs the oracle stack many times)...");
    let spec = gen_spec(seed);
    let oracle = failure.oracle;
    // the harness's own panic reports would spam the terminal while the
    // shrinker intentionally re-triggers the failure
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let min = fuzzgen::shrink(
        &spec,
        |c| matches!(check_spec_caught(c), Err(f) if f.oracle == oracle),
    );
    std::panic::set_hook(prev_hook);
    let snippet = render(&min);
    eprintln!(
        "minimized from weight {} to {}; reproducing builder snippet:\n\n{snippet}",
        spec.weight(),
        min.weight()
    );
    eprintln!(
        "reproduce with: cargo run -p fuzzgen -- --seeds {seed}..{}",
        seed + 1
    );
    if let Some(dir) = &args.artifact_dir {
        let _ = std::fs::create_dir_all(dir);
        let path = format!("{dir}/seed-{seed}.txt");
        let body = format!("seed {seed} failed oracle [{oracle}]\n{failure}\n\n{snippet}");
        // the artifact path rides in the failure message itself so CI
        // log scrapers (and humans skimming the tail) see where the
        // shrunk spec landed without hunting for an earlier line
        match std::fs::write(&path, body) {
            Ok(()) => eprintln!("seed {seed} FAILED [{oracle}]: shrunk spec written to {path}"),
            Err(e) => {
                eprintln!("seed {seed} FAILED [{oracle}]: could not write artifact {path}: {e}");
            }
        }
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(path) = &args.corrupt {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        };
        println!("corruption sweep over {path} ({} bytes)...", bytes.len());
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let sweep = corruption_sweep(&bytes, 0xC0FFEE, 2_000);
        let mapped = mmap_sweep(&bytes, 0xC0FFEE, 200);
        std::panic::set_hook(prev_hook);
        match sweep {
            Ok(s) => println!(
                "  in-memory: {} mutations: {} parsed, {} rejected, 0 panics, \
                 0 disagreements with the reference decoder",
                s.attempts, s.parsed, s.rejected
            ),
            Err(e) => {
                eprintln!("  {e}");
                return ExitCode::FAILURE;
            }
        }
        match mapped {
            Ok(s) => println!(
                "  mmap:      {} mutations: {} parsed, {} rejected, 0 panics, \
                 0 disagreements with the reference decoder",
                s.attempts, s.parsed, s.rejected
            ),
            Err(e) => {
                eprintln!("  {e}");
                return ExitCode::FAILURE;
            }
        }
        if !args.seeds_explicit {
            return ExitCode::SUCCESS;
        }
    }
    let mut totals = CheckStats::default();
    let mut programs = 0u64;
    for seed in args.seed_lo..args.seed_hi {
        match check_spec_caught(&gen_spec(seed)) {
            Ok(s) => {
                programs += 1;
                totals.events += s.events;
                totals.candidates += s.candidates;
                totals.demoted += s.demoted;
                totals.tls_entries += s.tls_entries;
                totals.rescued += s.rescued;
                totals.slices += s.slices;
                totals.value_checks += s.value_checks;
            }
            Err(f) => {
                report_failure(seed, &f, &args);
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "{programs} programs green (seeds {}..{}): {} events, {} candidates \
         ({} demoted, {} rescued), {} TLS entries simulated, {} certified \
         slices ({} value/distance checks)",
        args.seed_lo,
        args.seed_hi,
        totals.events,
        totals.candidates,
        totals.demoted,
        totals.rescued,
        totals.tls_entries,
        totals.slices,
        totals.value_checks
    );
    ExitCode::SUCCESS
}
