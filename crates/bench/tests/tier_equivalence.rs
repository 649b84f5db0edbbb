//! Suite-wide online/offline equivalence: the tier controller, driven
//! until every loop reaches a terminal tier, must reproduce the
//! offline batch **bit for bit** on all 26 benchmarks — same selected
//! STL set, same derived sequential baseline, same profile, same
//! predicted and actual TLS numbers, same demotion set.
//!
//! This is the contract that makes the online runtime a refactoring
//! rather than a re-modelling: every table and figure of the
//! evaluation keeps its numbers no matter which schedule produced
//! them. (Wall times and points-to wall time are intentionally
//! excluded — they measure the run, not the program; the profiling
//! pass's bus and tracer counters are compared, because the online
//! tier may hand its authoritative epoch a held run instead of
//! interpreting again.)

use benchsuite::{all, DataSize};
use jrpm::pipeline::{run_pipeline, PipelineConfig, PipelineReport};
use jrpm::tier::{run_tiered, LoopTier, TierConfig};
use jrpm::{annotate_mapped, AnnotateOptions};
use std::collections::{BTreeMap, BTreeSet};
use test_tracer::TestTracer;
use tvm::bus::TraceBus;
use tvm::isa::LoopId;
use tvm::HotLocations;

/// The registry counters the TEST tracer writes after the profiling
/// pass.
fn tracer_counters(r: &PipelineReport) -> BTreeMap<String, u64> {
    let mut snap = r.telemetry.registry.snapshot();
    snap.counters.retain(|k, _| k.starts_with("tracer."));
    snap.counters
}

/// The profiling pass's bus report with the sinks' drain times (wall
/// clock) zeroed.
fn bus_without_drain(r: &PipelineReport) -> tvm::bus::BusReport {
    let mut bus = r.obs.bus.clone();
    for sink in &mut bus.sinks {
        sink.drain_nanos = 0;
    }
    bus
}

#[test]
fn online_tier_controller_matches_offline_batch_on_every_benchmark() {
    let cfg = PipelineConfig::default();
    for bench in all() {
        let program = (bench.build)(DataSize::Small);
        let offline = run_pipeline(&program, &cfg)
            .unwrap_or_else(|e| panic!("{}: offline run failed: {e:?}", bench.name));
        let online = run_tiered(&program, &cfg, &TierConfig::default())
            .unwrap_or_else(|e| panic!("{}: online run failed: {e:?}", bench.name));
        let name = bench.name;

        assert!(
            online.tiers.all_terminal(),
            "{name}: controller stopped with a non-terminal loop tier"
        );
        let (a, b) = (&offline, &online.report);
        assert_eq!(
            a.seq_cycles, b.seq_cycles,
            "{name}: derived baseline differs"
        );
        assert_eq!(
            a.profile_cycles, b.profile_cycles,
            "{name}: profiling-run cycles differ"
        );
        assert_eq!(
            a.annotation, b.annotation,
            "{name}: annotation overhead differs"
        );
        assert_eq!(a.profile, b.profile, "{name}: TEST profile differs");
        assert_eq!(
            a.selection.chosen, b.selection.chosen,
            "{name}: selected STL set differs"
        );
        assert_eq!(
            a.selection.predicted_cycles, b.selection.predicted_cycles,
            "{name}: Equation 2 prediction differs"
        );
        assert_eq!(
            a.selection.total_cycles, b.selection.total_cycles,
            "{name}: selection baseline differs"
        );
        assert_eq!(
            a.actual.baseline_cycles, b.actual.baseline_cycles,
            "{name}: actual-TLS baseline differs"
        );
        assert_eq!(
            a.actual.tls_cycles, b.actual.tls_cycles,
            "{name}: actual-TLS cycles differ"
        );
        assert_eq!(
            a.actual.per_loop, b.actual.per_loop,
            "{name}: per-loop TLS differs"
        );
        let static_demoted: BTreeSet<LoopId> = online
            .tiers
            .loops
            .iter()
            .filter(|l| matches!(l.tier, LoopTier::Demoted { dynamic: false, .. }))
            .map(|l| l.loop_id)
            .collect();
        assert_eq!(
            static_demoted,
            a.candidates.demoted_ids(),
            "{name}: online static demotions disagree with the eager pre-screen"
        );
        assert_eq!(
            a.rescue.rescued.len(),
            b.rescue.rescued.len(),
            "{name}: rescue outcomes differ"
        );
        assert_eq!(
            online.tiers.selected_ids(),
            b.selection.chosen.iter().map(|c| c.loop_id).collect(),
            "{name}: terminal Selected tiers disagree with the final selection"
        );

        // the profiling pass's counters: a reused authoritative epoch
        // books exactly what an interpreted one would
        assert_eq!(
            a.obs.recorded_events, b.obs.recorded_events,
            "{name}: recorded events differ"
        );
        assert_eq!(
            a.obs.by_kind, b.obs.by_kind,
            "{name}: events by kind differ"
        );
        assert_eq!(a.obs.batches, b.obs.batches, "{name}: batches differ");
        assert_eq!(
            bus_without_drain(a),
            bus_without_drain(b),
            "{name}: bus totals differ"
        );
        assert_eq!(
            tracer_counters(a),
            tracer_counters(b),
            "{name}: tracer counters differ"
        );
        // the stage ledger: same names in the same order as always,
        // and replay-profile is the sinks' summed drain time
        let stages: Vec<&str> = b.obs.stages.iter().map(|s| s.stage.as_str()).collect();
        let mut want = vec![
            "extract",
            "rescue",
            "epochs",
            "annotate",
            "record",
            "replay-profile",
            "select",
        ];
        if !b.selection.chosen.is_empty() {
            want.extend(["collect", "simulate"]);
        }
        assert_eq!(stages, want, "{name}: online stage ledger changed");
        let drained: u64 = b.obs.bus.sinks.iter().map(|s| s.drain_nanos).sum();
        assert_eq!(
            b.obs.stage_nanos("replay-profile"),
            drained,
            "{name}: replay-profile is not the summed drain time"
        );
    }
}

/// The premise of epoch reuse: running one image twice, each time
/// through a fresh tracer and fresh hot-location probes, yields the
/// same bits. Checked on the final (offline profiling) image of every
/// benchmark, with every candidate header probed.
#[test]
fn an_epoch_is_a_pure_function_of_its_image() {
    let cfg = PipelineConfig::default();
    for bench in all() {
        let name = bench.name;
        let original = (bench.build)(DataSize::Small);
        let offline = run_pipeline(&original, &cfg)
            .unwrap_or_else(|e| panic!("{name}: offline run failed: {e:?}"));
        let program = offline.rescue.program_for(&original);
        let cands = &offline.candidates;
        let (image, maps) = annotate_mapped(program, cands, &AnnotateOptions::profiling())
            .unwrap_or_else(|e| panic!("{name}: annotation failed: {e:?}"));
        let run = || {
            let mut hot = HotLocations::for_program(&image);
            for c in &cands.candidates {
                let fa = &cands.functions[c.func.0 as usize];
                let header = fa.forest.loops[c.loop_idx].header;
                let orig = fa.cfg.blocks[header.0 as usize].start;
                let pc = maps[c.func.0 as usize]
                    .iter()
                    .position(|&o| o == Some(orig))
                    .unwrap_or(orig as usize);
                hot.register(c.func.0, pc as u32);
            }
            let mut tracer = TestTracer::with_masks(cfg.tracer, cands.tracked_masks());
            let (state, _) = TraceBus::new()
                .sink("test-tracer", &mut tracer)
                .run(&image, &mut hot)
                .unwrap_or_else(|e| panic!("{name}: epoch failed: {e:?}"));
            (tracer.into_profile(), hot.counts().to_vec(), state)
        };
        let (p1, c1, s1) = run();
        let (p2, c2, s2) = run();
        assert_eq!(p1, p2, "{name}: profile differs between runs");
        assert_eq!(c1, c2, "{name}: hot-location counts differ between runs");
        assert!(
            c1.iter().any(|&c| c > 0) || cands.candidates.is_empty(),
            "{name}: no probe fired"
        );
        assert_eq!(s1.result, s2.result, "{name}: run result differs");
        assert_eq!(
            s1.memory.words(),
            s2.memory.words(),
            "{name}: memory image differs"
        );
        // and the image is the one the offline batch profiled
        assert_eq!(p1, offline.profile, "{name}: not the profiling image");
    }
}
