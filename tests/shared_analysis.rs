//! Pins the analysis candidate extraction shares with its later
//! consumers against fresh recomputation.
//!
//! Extraction solves each function's dominators, reaching definitions
//! and liveness gen/kill sets once, and the whole program's points-to
//! facts once. The pre-screen, rescue, distance floors and annotation
//! then read them instead of solving again. Rescue starts from the
//! caller's extraction and hands back the extraction of the program it
//! rewrote. Each shared fact must equal what a fresh computation on
//! the same program gives, and so must the dependences a demoted
//! loop's verdict carries, which rescue reads instead of solving
//! again. The online tier reveals extraction's pre-screen verdicts as
//! loops turn hot instead of screening again, so the loops it demotes
//! statically must be exactly the ones extraction demoted. This is checked on the 26 benchmarks at two
//! sizes and on a range of generated programs.

use benchsuite::DataSize;
use cfgir::scalar::classify;
use cfgir::{
    analyze_loop, extract_candidates, rescue_extracted, rescue_program, Dominators, LocalGenKill,
    PointsTo, ReachingDefs,
};
use jrpm::tier::{run_tiered, LoopTier, TierConfig};
use jrpm::PipelineConfig;
use std::collections::BTreeSet;
use tvm::Program;

/// A `Debug` rendering with the solver's wall-clock time cut out: it is
/// the one field two solves of the same program do not share.
fn without_wall_time(debug: String) -> String {
    match debug.split_once("wall_nanos: ") {
        Some((head, tail)) => {
            let rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
            format!("{head}{}", without_wall_time(rest.to_string()))
        }
        None => debug,
    }
}

fn check(name: &str, p: &Program) {
    let pc = extract_candidates(p);
    for fa in &pc.functions {
        let f = &p.functions[fa.func.0 as usize];
        let dom = Dominators::compute(&fa.cfg);
        assert_eq!(fa.dom, dom, "{name} fn {}: dominators", fa.func.0);
        assert_eq!(
            fa.reaching,
            ReachingDefs::compute(f, &fa.cfg),
            "{name} fn {}: reaching definitions",
            fa.func.0
        );
        assert_eq!(
            fa.gen_kill,
            LocalGenKill::compute(f, &fa.cfg),
            "{name} fn {}: gen/kill sets",
            fa.func.0
        );
        for li in 0..fa.forest.len() {
            assert_eq!(
                fa.classes[li],
                classify(p, f, &fa.cfg, &dom, &fa.forest, li),
                "{name} fn {} loop {li}: scalar classes",
                fa.func.0
            );
        }
    }
    let pt = PointsTo::analyze(p);
    assert_eq!(
        without_wall_time(format!("{:?}", pc.pointsto)),
        without_wall_time(format!("{pt:?}")),
        "{name}: points-to"
    );
    // rescue reads a demoted loop's dependences from its verdict
    for c in &pc.candidates {
        let fa = &pc.functions[c.func.0 as usize];
        let fresh = analyze_loop(
            p,
            &p.functions[c.func.0 as usize],
            &fa.cfg,
            &Dominators::compute(&fa.cfg),
            &fa.forest.loops[c.loop_idx],
            Some(&pt.view(c.func)),
        );
        assert_eq!(
            c.static_verdict.deps(),
            fresh,
            "{name} loop {}: pre-screen dependences",
            c.id.0
        );
    }

    let (out, rescued) = rescue_extracted(p, &pc);
    assert_eq!(
        format!("{out:?}"),
        format!("{:?}", rescue_program(p)),
        "{name}: rescue from the caller's extraction"
    );
    assert_eq!(
        rescued.is_some(),
        out.changed(),
        "{name}: rescued extraction"
    );
    if let Some(after) = &rescued {
        assert_eq!(
            without_wall_time(format!("{after:?}")),
            without_wall_time(format!("{:?}", extract_candidates(&out.program))),
            "{name}: extraction of the rescued program"
        );
    }

    // the tier runs on the rescued program, so its loop ids are those
    // of the rescued extraction
    let online = run_tiered(p, &PipelineConfig::default(), &TierConfig::default())
        .unwrap_or_else(|e| panic!("{name}: online tier: {e}"));
    let static_demoted: BTreeSet<_> = online
        .tiers
        .loops
        .iter()
        .filter(|l| matches!(l.tier, LoopTier::Demoted { dynamic: false, .. }))
        .map(|l| l.loop_id)
        .collect();
    assert_eq!(
        static_demoted,
        rescued.as_ref().unwrap_or(&pc).demoted_ids(),
        "{name}: online static demotions"
    );
}

#[test]
fn shared_facts_match_fresh_on_the_suite() {
    for size in [DataSize::Small, DataSize::Default] {
        for b in benchsuite::all() {
            check(&format!("{} at {size:?}", b.name), &(b.build)(size));
        }
    }
}

#[test]
fn shared_facts_match_fresh_on_generated_programs() {
    for seed in 0..200 {
        let spec = fuzzgen::spec::gen_spec(seed);
        let p = fuzzgen::spec::emit(&spec).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        check(&format!("seed {seed}"), &p);
    }
}
