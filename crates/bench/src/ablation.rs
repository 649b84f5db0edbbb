//! Ablation studies over the design choices the paper (and DESIGN.md)
//! call out: the store-timestamp history size, the comparator bank
//! count, and post-violation synchronization in the TLS execution
//! model.
//!
//! The hardware sweeps (A and B) vary only the *tracer* configuration,
//! never the program, so they record the annotated program's event
//! stream once and replay it into every tracer variant instead of
//! re-interpreting the program per configuration.  Each sweep times one
//! real re-interpretation as an honest baseline and reports the
//! measured wall-clock win at the bottom of its table.

use benchsuite::DataSize;
use hydra_sim::TlsConfig;
use jrpm::annotate::{annotate, AnnotateOptions};
use jrpm::pipeline::{run_pipeline, PipelineConfig};
use std::time::{Duration, Instant};
use test_tracer::{SoftwareTracer, TestTracer, TracerConfig};
use tvm::record::{Recording, RecordingSink};
use tvm::{Interp, Program, RunResult};

/// Wall-clock accounting for one record-once/replay-many sweep.
///
/// The estimated re-interpretation cost is built per benchmark — one
/// configuration is actually re-interpreted and timed, then scaled by
/// that benchmark's consumer count — so heterogeneous program sizes do
/// not skew the comparison.
#[derive(Default)]
struct SweepClock {
    record: Duration,
    replay: Duration,
    replays: u32,
    reinterp_est: f64,
    reinterps: u32,
}

/// Interprets `ann` once, capturing its whole event stream.
fn record(ann: &Program) -> (RunResult, Recording) {
    let mut sink = RecordingSink::new();
    let run = Interp::run(ann, &mut sink).expect("record run");
    (run, sink.into_recording())
}

impl SweepClock {
    /// Replays `recording` into `sink`, accumulating replay time.
    fn replay(&mut self, recording: &Recording, sink: &mut impl tvm::TraceSink) {
        let t = Instant::now();
        recording.replay(sink);
        self.replay += t.elapsed();
        self.replays += 1;
    }

    /// Times one real re-interpretation of `ann` and scales it by the
    /// number of consumer passes the old sweep would have run.
    fn baseline(&mut self, ann: &Program, masks: Vec<(tvm::LoopId, u64)>, consumers: u32) {
        let mut hw = TestTracer::with_masks(TracerConfig::default(), masks);
        let t = Instant::now();
        Interp::run(ann, &mut hw).expect("baseline re-interpretation");
        self.reinterp_est += t.elapsed().as_secs_f64() * f64::from(consumers);
        self.reinterps += 1;
    }

    fn summary(&self) -> String {
        let new = self.record.as_secs_f64() + self.replay.as_secs_f64();
        format!(
            "Measured: record once {:.1} ms + {} replays {:.1} ms, versus an\n\
             estimated {:.1} ms for {} re-interpretations (scaled from {} timed\n\
             runs): {:.1}x faster\n",
            self.record.as_secs_f64() * 1e3,
            self.replays,
            self.replay.as_secs_f64() * 1e3,
            self.reinterp_est * 1e3,
            self.replays,
            self.reinterps,
            self.reinterp_est / new.max(1e-9),
        )
    }
}

fn arcs(p: &test_tracer::Profile) -> u64 {
    p.stl.values().map(|t| t.arcs_t1 + t.arcs_lt).sum()
}

/// Sweep of the heap store-timestamp FIFO capacity (§5.3: the paper
/// statically partitions the five 2 kB speculation buffers, giving 192
/// lines of history). Smaller histories lose dependencies relative to
/// the exact software oracle.
pub fn fifo_sweep(size: DataSize) -> String {
    let mut s = String::new();
    s.push_str("Ablation A - store-timestamp FIFO history vs dependencies found\n");
    s.push_str(&format!(
        "{:<14}{:>12}{:>10}{:>10}{:>10}{:>10}{:>10}\n",
        "Benchmark", "oracle arcs", "8 lines", "32", "64", "192", "1024"
    ));
    let mut clock = SweepClock::default();
    for name in ["Huffman", "compress", "db", "MipsSimulator"] {
        let bench = benchsuite::by_name(name).expect("benchmark exists");
        let program = (bench.build)(size);
        let cands = cfgir::extract_candidates(&program);
        let ann = annotate(&program, &cands, &AnnotateOptions::profiling()).expect("annotate");

        // one interpretation captures the whole event stream …
        let t = Instant::now();
        let (_run, recording) = record(&ann);
        clock.record += t.elapsed();

        // … which then feeds the oracle and every FIFO variant
        let mut sw = SoftwareTracer::with_masks(cands.tracked_masks());
        clock.replay(&recording, &mut sw);
        let oracle = arcs(&sw.into_profile());

        let mut row = format!("{name:<14}{oracle:>12}");
        for lines in [8usize, 32, 64, 192, 1024] {
            let cfg = TracerConfig {
                store_ts_lines: lines,
                ..TracerConfig::default()
            };
            let mut hw = TestTracer::with_masks(cfg, cands.tracked_masks());
            clock.replay(&recording, &mut hw);
            let found = arcs(&hw.into_profile());
            row.push_str(&format!(
                "{:>9.0}%",
                100.0 * found as f64 / oracle.max(1) as f64
            ));
        }
        row.push('\n');
        s.push_str(&row);
        clock.baseline(&ann, cands.tracked_masks(), 6);
    }
    s.push_str("(arcs recovered relative to the exact oracle; heap deps only decay)\n");
    s.push_str(&clock.summary());
    s
}

/// Sweep of the comparator bank count (§5.2: eight banks; deep nests
/// go untraced when banks run out).
pub fn bank_sweep(size: DataSize) -> String {
    let mut s = String::new();
    s.push_str("Ablation B - comparator banks vs untraced loop entries\n");
    s.push_str(&format!(
        "{:<14}{:>7}{:>14}{:>14}{:>14}\n",
        "Benchmark", "depth", "1 bank", "2 banks", "8 banks"
    ));
    let mut clock = SweepClock::default();
    for name in ["decJpeg", "jess", "Assignment", "mp3"] {
        let bench = benchsuite::by_name(name).expect("benchmark exists");
        let program = (bench.build)(size);
        let cands = cfgir::extract_candidates(&program);
        let ann = annotate(&program, &cands, &AnnotateOptions::profiling()).expect("annotate");

        let t = Instant::now();
        let (_run, recording) = record(&ann);
        clock.record += t.elapsed();

        let mut row = String::new();
        let mut depth = 0;
        for (i, n_banks) in [1usize, 2, 8].into_iter().enumerate() {
            let cfg = TracerConfig {
                n_banks,
                ..TracerConfig::default()
            };
            let mut hw = TestTracer::with_masks(cfg, cands.tracked_masks());
            clock.replay(&recording, &mut hw);
            let p = hw.into_profile();
            if i == 0 {
                depth = p.max_dynamic_depth;
            }
            let untraced: u64 = p.stl.values().map(|t| t.untraced_entries).sum();
            let total: u64 = p.stl.values().map(|t| t.entries + t.untraced_entries).sum();
            row.push_str(&format!(
                "{:>13.0}%",
                100.0 * untraced as f64 / total.max(1) as f64
            ));
        }
        s.push_str(&format!("{name:<14}{depth:>7}{row}\n"));
        clock.baseline(&ann, cands.tracked_masks(), 3);
    }
    s.push_str("(fraction of loop entries left untraced)\n");
    s.push_str(&clock.summary());
    s
}

/// Post-violation synchronization on/off in the Hydra TLS model: the
/// gap between Equation 1's stall-style prediction and raw
/// restart-style execution (paper §3.2 / §6.2 / §6.3).
pub fn sync_sweep(size: DataSize) -> String {
    let mut s = String::new();
    s.push_str("Ablation C - post-violation synchronization in the TLS model\n");
    s.push_str(&format!(
        "{:<14}{:>10}{:>14}{:>16}{:>12}{:>12}\n",
        "Benchmark", "predicted", "actual (sync)", "actual (naive)", "viol(sync)", "viol(naive)"
    ));
    for name in ["MipsSimulator", "Huffman", "compress", "h263dec", "shallow"] {
        let bench = benchsuite::by_name(name).expect("benchmark exists");
        let program = (bench.build)(size);
        let with_sync = PipelineConfig::default();
        let naive = PipelineConfig {
            tls: TlsConfig {
                sync_after_violation: false,
                ..TlsConfig::default()
            },
            ..PipelineConfig::default()
        };
        let a = run_pipeline(&program, &with_sync).expect("pipeline runs");
        let b = run_pipeline(&program, &naive).expect("pipeline runs");
        let viol = |r: &jrpm::pipeline::PipelineReport| -> u64 {
            r.actual.per_loop.values().map(|l| l.violations).sum()
        };
        s.push_str(&format!(
            "{:<14}{:>10.2}{:>14.2}{:>16.2}{:>12}{:>12}\n",
            name,
            a.predicted_normalized(),
            a.actual_normalized(),
            b.actual_normalized(),
            viol(&a),
            viol(&b)
        ));
    }
    s.push_str(
        "(normalized execution time; synchronization closes the gap between\n\
         Equation 1's stall model and restart-style recovery)\n",
    );
    s
}

/// CI smoke: one benchmark, one configuration.  Records the annotated
/// Huffman once, replays the recording into a default tracer, checks
/// the replayed profile bit-identical against a direct run, and prints
/// the timings.  Fast enough for a pull-request gate.
pub fn quick(size: DataSize) -> String {
    let bench = benchsuite::by_name("Huffman").expect("benchmark exists");
    let program = (bench.build)(size);
    let cands = cfgir::extract_candidates(&program);
    let ann = annotate(&program, &cands, &AnnotateOptions::profiling()).expect("annotate");

    let t = Instant::now();
    let (run, recording) = record(&ann);
    let t_record = t.elapsed();

    let mut replayed = TestTracer::with_masks(TracerConfig::default(), cands.tracked_masks());
    let t = Instant::now();
    recording.replay(&mut replayed);
    let t_replay = t.elapsed();
    let replayed = replayed.into_profile();

    let mut direct = TestTracer::with_masks(TracerConfig::default(), cands.tracked_masks());
    let t = Instant::now();
    Interp::run(&ann, &mut direct).expect("direct run");
    let t_direct = t.elapsed();
    let direct = direct.into_profile();

    let events = recording.len() as u64;
    let identical = replayed == direct;
    let mut s = String::new();
    s.push_str("Ablation smoke - record-once/replay-many on Huffman (1 config)\n");
    s.push_str(&format!(
        "  events {} in {} batches; cycles {}; record {:.1} ms, replay {:.1} ms,\n\
         \x20 direct re-interpretation {:.1} ms (replay {:.1}x faster)\n",
        events,
        recording.batches().len(),
        run.cycles,
        t_record.as_secs_f64() * 1e3,
        t_replay.as_secs_f64() * 1e3,
        t_direct.as_secs_f64() * 1e3,
        t_direct.as_secs_f64() / t_replay.as_secs_f64().max(1e-9),
    ));
    s.push_str(&format!(
        "  replayed profile identical to direct run: {}\n",
        if identical { "PASS" } else { "FAIL" }
    ));
    assert!(identical, "replayed profile diverged from the direct run");
    s
}

/// All three sweeps.
pub fn all(size: DataSize) -> String {
    format!(
        "{}\n{}\n{}",
        fifo_sweep(size),
        bank_sweep(size),
        sync_sweep(size)
    )
}
