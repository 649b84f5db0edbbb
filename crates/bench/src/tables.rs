//! Text renderers for every table and figure of the paper's
//! evaluation.

use crate::gate::Row;
use crate::runner::BenchResult;
use benchsuite::DataSize;
use cfgir::{
    classify_loop_pairs, classify_loop_pairs_evo, extract_slices, scev, Dominators, PairVerdict,
};
use hydra_sim::TlsConfig;
use jrpm::agreement::{agreement_report, AgreementReport};
use jrpm::pipeline::{run_pipeline, PipelineConfig};
use jrpm::slowdown::software_comparison;
use jrpm::tier::{run_tiered, LoopTier, TierConfig};
use obs::json::quote;
use test_tracer::hwcost::{hydra_budget, CostParams};
use test_tracer::TracerConfig;
use tvm::bus::KindCounts;
use tvm::{Cond, ElemKind, ProgramBuilder};

/// Declares a per-benchmark snapshot row: the struct (with a leading
/// `name`) and its `row()`, which writes every other field in
/// declaration order as the row its gate snapshots (booleans as 0/1).
macro_rules! snapshot_row {
    ($(#[$doc:meta])* pub struct $ty:ident {
        $($(#[$fdoc:meta])* pub $field:ident: $fty:ty,)*
    }) => {
        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub struct $ty {
            /// Benchmark name.
            pub name: &'static str,
            $($(#[$fdoc])* pub $field: $fty,)*
        }

        impl $ty {
            /// The row as its gate snapshots it.
            pub fn row(&self) -> Row {
                let fields = vec![$((stringify!($field), self.$field as u64 as f64),)*];
                Row { name: self.name, fields }
            }
        }
    };
}

/// Table 1 — thread-level speculation buffer limits.
pub fn table1() -> String {
    let c = TlsConfig::default();
    let mut s = String::new();
    s.push_str("Table 1 - Thread-level speculation buffer limits\n");
    s.push_str("Buffer        Per-thread limit           Associativity\n");
    s.push_str(&format!(
        "Load buffer   {}kB ({} lines x 32B)   4-way\n",
        c.ld_line_limit * 32 / 1024,
        c.ld_line_limit
    ));
    s.push_str(&format!(
        "Store buffer  {}kB ({} lines x 32B)      Fully\n",
        c.st_line_limit * 32 / 1024,
        c.st_line_limit
    ));
    s
}

/// Table 2 — thread-level speculation overheads.
pub fn table2() -> String {
    let c = TlsConfig::default();
    let mut s = String::new();
    s.push_str("Table 2 - Thread-level speculation overheads\n");
    s.push_str("TLS Operation             Overhead / delay\n");
    s.push_str(&format!("Loop startup              {} cycles\n", c.startup));
    s.push_str(&format!(
        "Loop shutdown             {} cycles\n",
        c.shutdown
    ));
    s.push_str(&format!("Loop end-of-iteration     {} cycles\n", c.eoi));
    s.push_str(&format!(
        "Violation and restart     {} cycles\n",
        c.violation_restart
    ));
    s.push_str(&format!(
        "Store-load communication  {} cycles\n",
        c.comm_delay
    ));
    s
}

/// Table 3 — Equation 2 applied to the Huffman loops: the outer loop
/// must win over the inner one.
pub fn table3(size: DataSize) -> String {
    let bench = benchsuite::by_name("Huffman").expect("suite has Huffman");
    let program = (bench.build)(size);
    let report = run_pipeline(&program, &PipelineConfig::default()).expect("pipeline runs");

    // the decode nest: the dynamically nested pair with the largest
    // coverage (the outer do-while and the tree-descent inner while)
    let outer = report
        .profile
        .stl
        .iter()
        .filter(|(l, _)| report.profile.dominant_parent(**l).is_none())
        .max_by_key(|(_, s)| s.cycles)
        .map(|(l, _)| *l)
        .expect("an outer loop profiled");
    let inner = report.profile.children_of(Some(outer));

    let mut s = String::new();
    s.push_str("Table 3 - Equation 2 on the Huffman decode nest\n");
    s.push_str(&format!(
        "{:<26}{:>14}{:>10}{:>14}\n",
        "", "Seq (cycles)", "Speedup", "TLS (cycles)"
    ));
    let os = &report.profile.stl[&outer];
    let oe = &report.selection.estimates[&outer];
    s.push_str(&format!(
        "{:<26}{:>14}{:>10.2}{:>14}\n",
        "Outer loop", os.cycles, oe.speedup, oe.est_tls_cycles
    ));
    let mut inner_seq = 0u64;
    let mut inner_tls = 0u64;
    for l in &inner {
        let is = &report.profile.stl[l];
        let ie = &report.selection.estimates[l];
        inner_seq += is.cycles;
        inner_tls += ie.est_tls_cycles.min(is.cycles);
        s.push_str(&format!(
            "{:<26}{:>14}{:>10.2}{:>14}\n",
            format!("Inner loop {l}"),
            is.cycles,
            ie.speedup,
            ie.est_tls_cycles
        ));
    }
    let serial_rest = os.cycles.saturating_sub(inner_seq);
    s.push_str(&format!(
        "Nested alternative: inner TLS {} + serial {} = {}\n",
        inner_tls,
        serial_rest,
        inner_tls + serial_rest
    ));
    let chosen = report
        .selection
        .chosen
        .iter()
        .map(|c| c.loop_id.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    s.push_str(&format!("Equation 2 selects: {chosen}\n"));
    s
}

/// Table 4 — the annotation instruction set (structural summary plus a
/// live count from an instrumented run).
pub fn table4() -> String {
    let mut s = String::new();
    s.push_str("Table 4 - Annotating instructions\n");
    for (instr, desc) in [
        ("lw/sw (heap)", "communicated to the tracer automatically"),
        ("lwl vn", "get store timestamp for local variable vn"),
        ("swl vn", "record store timestamp for local variable vn"),
        ("sloop n", "allocate bank; reserve n local timestamps"),
        ("eoi", "thread boundary; shift thread start timestamps"),
        ("eloop n", "free bank and n local timestamps"),
        ("(read stats)", "end-of-STL statistics read routine"),
    ] {
        s.push_str(&format!("  {instr:<14} {desc}\n"));
    }
    s
}

/// Table 5 — transistor budget; TEST must stay under 1 % of the CMP.
pub fn table5() -> String {
    let budget = hydra_budget(&CostParams::default(), 8);
    let total = budget.total();
    let mut s = String::new();
    s.push_str("Table 5 - Transistor count estimates (Hydra + TLS + TEST)\n");
    s.push_str(&format!(
        "{:<24}{:>7}{:>12}{:>14}{:>10}\n",
        "Structure", "Count", "Each", "Total", "% of total"
    ));
    for row in &budget.rows {
        s.push_str(&format!(
            "{:<24}{:>7}{:>12}{:>14}{:>9.2}%\n",
            row.name,
            row.count,
            row.each,
            row.total(),
            100.0 * row.total() as f64 / total as f64
        ));
    }
    s.push_str(&format!(
        "{:<24}{:>7}{:>12}{:>14}{:>10}\n",
        "Total", "", "", total, "100.00%"
    ));
    let share = budget.share("Comparator bank");
    s.push_str(&format!(
        "TEST comparator banks: {:.2}% of the CMP ({}: < 1%)\n",
        share * 100.0,
        if share < 0.01 { "PASS" } else { "FAIL" }
    ));
    s
}

/// Table 6 — per-benchmark characteristics and TEST analysis results.
pub fn table6(results: &[BenchResult]) -> String {
    let mut s = String::new();
    s.push_str("Table 6 - Benchmarks evaluated with STLs selected by TEST\n");
    s.push_str(&format!(
        "{:<14}{:>5}{:>5}{:>6}{:>6}{:>9}{:>8}{:>10}{:>10}\n",
        "Benchmark", "(a)", "(b)", "loops", "depth", "sel>0.5%", "height", "thr/entry", "size(cyc)"
    ));
    let mut cat = None;
    for r in results {
        if cat != Some(r.bench.category) {
            cat = Some(r.bench.category);
            s.push_str(&format!("-- {}\n", r.bench.category));
        }
        s.push_str(&format!(
            "{:<14}{:>5}{:>5}{:>6}{:>6}{:>9}{:>8.1}{:>10.0}{:>10.0}\n",
            r.bench.name,
            if r.bench.analyzable { "Y" } else { "N" },
            if r.bench.data_sensitive { "Y" } else { "N" },
            r.report.candidates.total_loops(),
            r.report.profile.max_dynamic_depth,
            r.selected_above_half_percent(),
            r.avg_selected_height(),
            r.avg_threads_per_entry(),
            r.avg_thread_size(),
        ));
    }
    s
}

/// Figure 6 — profiling slowdown per benchmark, base vs optimized,
/// with the component breakdown.
pub fn fig6(results: &[BenchResult]) -> String {
    let mut s = String::new();
    s.push_str("Figure 6 - Execution slowdown during profiling\n");
    s.push_str(&format!(
        "{:<14}{:>9}{:>9}   {:<30}\n",
        "Benchmark", "base", "optim.", "optimized breakdown (stats/locals/markers)"
    ));
    let mut worst: f64 = 0.0;
    for r in results {
        let b = &r.slowdown;
        let opt = &b.optimized;
        let total_ann = opt.breakdown.total().max(1);
        s.push_str(&format!(
            "{:<14}{:>8.1}%{:>8.1}%   {:>3.0}%/{:>3.0}%/{:>3.0}%\n",
            r.bench.name,
            (b.base.slowdown - 1.0) * 100.0,
            (opt.slowdown - 1.0) * 100.0,
            100.0 * opt.breakdown.stats_reads as f64 / total_ann as f64,
            100.0 * opt.breakdown.locals as f64 / total_ann as f64,
            100.0 * opt.breakdown.markers as f64 / total_ann as f64,
        ));
        worst = worst.max(opt.slowdown - 1.0);
    }
    s.push_str(&format!(
        "Worst optimized slowdown: {:.1}% (paper: 3-25%)\n",
        worst * 100.0
    ));
    s
}

/// The Figure 9 program: `if (i % n != 0) A[i] = f(A[i-1])` with the
/// load at the top of the iteration and the store at the bottom, so
/// the observed arcs are short. `n` must be a power of two.
pub fn fig9_program(n: i64) -> tvm::Program {
    let mut b = ProgramBuilder::new();
    let main = b.function("main", 0, false, |f| {
        let (a, i, x, k) = (f.local(), f.local(), f.local(), f.local());
        f.ci(4096).newarray(ElemKind::Int).st(a);
        f.for_in(i, 1.into(), 2000.into(), |f| {
            f.if_icmp(
                Cond::Ne,
                |f| {
                    f.ld(i).ci(n - 1).iand().ci(0);
                },
                |f| {
                    // load the previous element FIRST
                    f.arr_get(a, |f| {
                        f.ld(i).ci(1).isub().ci(4095).iand();
                    })
                    .st(x);
                    // a long dependent computation chain
                    f.for_in(k, 0.into(), 8.into(), |f| {
                        f.ld(x).ci(3).imul().ci(1).iadd().st(x);
                        f.ld(x).ld(x).ci(5).iushr().ixor().st(x);
                    });
                    // store LAST
                    f.arr_set(
                        a,
                        |f| {
                            f.ld(i).ci(4095).iand();
                        },
                        |f| {
                            f.ld(x);
                        },
                    );
                },
            );
        });
        f.ret_void();
    });
    b.finish(main).expect("fig9 program builds")
}

/// Figure 9 — the imprecision pathology: `A[i] = A[i-1]` gated on
/// `i % n != 0` looks serial to TEST although every n-th iteration is
/// independent.
pub fn fig9() -> String {
    let mut s = String::new();
    s.push_str("Figure 9 - Imprecision example: if (i % n != 0) A[i] = A[i-1]\n");
    s.push_str(&format!(
        "{:<6}{:>18}{:>18}\n",
        "n", "arc freq (t-1)", "estimated speedup"
    ));
    for n in [2i64, 4, 8] {
        let p = fig9_program(n);
        let report = run_pipeline(&p, &PipelineConfig::default()).expect("pipeline runs");
        let (l, stats) = report
            .profile
            .stl
            .iter()
            .max_by_key(|(_, st)| st.cycles)
            .expect("loop profiled");
        let est = &report.selection.estimates[l];
        s.push_str(&format!(
            "{:<6}{:>18.2}{:>18.2}\n",
            n,
            stats.arc_freq_t1(),
            est.speedup
        ));
    }
    s.push_str(
        "TEST sees frequent short arcs and predicts no speedup, although\n\
         parallelism exists at every n-th iteration (paper 6.2).\n",
    );
    s
}

/// Figure 10 — normalized execution time: sequential vs predicted,
/// with per-STL coverage blocks.
pub fn fig10(results: &[BenchResult]) -> String {
    let mut s = String::new();
    s.push_str("Figure 10 - Selected STLs: predicted normalized execution time\n");
    s.push_str(&format!(
        "{:<14}{:>7}{:>11}{:>8}{:>8}   per-STL coverage\n",
        "Benchmark", "STLs", "predicted", "serial", "cover"
    ));
    for r in results {
        let sel = r.report.selection.chosen_above(0.005);
        let coverage = r.report.selection.coverage();
        let mut blocks: Vec<String> = sel
            .iter()
            .take(6)
            .map(|c| format!("{}:{:.0}%", c.loop_id, c.coverage * 100.0))
            .collect();
        if sel.len() > 6 {
            blocks.push("…".into());
        }
        s.push_str(&format!(
            "{:<14}{:>7}{:>11.2}{:>8.2}{:>8.2}   {}\n",
            r.bench.name,
            sel.len(),
            r.report.predicted_normalized(),
            1.0 - coverage,
            coverage,
            blocks.join(" ")
        ));
    }
    s
}

/// Renders a 0..1 value as a fixed-width bar.
fn bar(v: f64, width: usize) -> String {
    let filled = ((v.clamp(0.0, 1.0)) * width as f64).round() as usize;
    let mut b = String::with_capacity(width);
    for i in 0..width {
        b.push(if i < filled { '#' } else { '.' });
    }
    b
}

/// Figure 11 — predicted vs actual normalized execution time, with the
/// paper's paired-bars rendering.
pub fn fig11(results: &[BenchResult]) -> String {
    let mut s = String::new();
    s.push_str("Figure 11 - Estimated versus actual speculative performance\n");
    s.push_str(&format!(
        "{:<14}{:>11}{:>9}{:>8}{:>11}{:>10}{:>7}   P/A (0..1)\n",
        "Benchmark", "predicted", "actual", "|err|", "violations", "overflows", "cv"
    ));
    let mut total_err = 0.0;
    for r in results {
        let pred = r.report.predicted_normalized();
        let act = r.report.actual_normalized();
        let viol: u64 = r
            .report
            .actual
            .per_loop
            .values()
            .map(|l| l.violations)
            .sum();
        let ovf: u64 = r.report.actual.per_loop.values().map(|l| l.overflows).sum();
        // the paper's stated disparity predictor: thread-size variance
        // of the selected loops (section 6.2)
        let max_cv = r
            .report
            .selection
            .chosen
            .iter()
            .map(|c| r.report.profile.stl[&c.loop_id].thread_size_cv())
            .fold(0.0f64, f64::max);
        total_err += (pred - act).abs();
        s.push_str(&format!(
            "{:<14}{:>11.2}{:>9.2}{:>8.2}{:>11}{:>10}{:>7.2}   P {}\n{:>70}   A {}\n",
            r.bench.name,
            pred,
            act,
            (pred - act).abs(),
            viol,
            ovf,
            max_cv,
            bar(pred, 25),
            "",
            bar(act, 25),
        ));
    }
    s.push_str(&format!(
        "Mean |predicted - actual| = {:.3}\n",
        total_err / results.len().max(1) as f64
    ));
    s
}

/// §5 claim — hardware vs software-only profiling slowdown.
pub fn softslow(size: DataSize) -> String {
    let mut s = String::new();
    s.push_str("Software-only vs hardware-assisted profiling (paper section 5)\n");
    s.push_str(&format!(
        "{:<14}{:>10}{:>12}{:>10}\n",
        "Benchmark", "hw", "sw (model)", "ratio"
    ));
    for name in ["Huffman", "LuFactor", "compress", "moldyn", "decJpeg"] {
        let bench = benchsuite::by_name(name).expect("benchmark exists");
        let program = (bench.build)(size);
        let cands = cfgir::extract_candidates(&program);
        let c = software_comparison(&program, &cands).expect("comparison runs");
        s.push_str(&format!(
            "{:<14}{:>9.2}x{:>11.0}x{:>10.0}\n",
            name,
            c.hw_slowdown,
            c.sw_slowdown,
            c.sw_slowdown / c.hw_slowdown
        ));
    }
    s
}

/// §4.1 comparison — method-call-return decompositions vs loop STLs.
/// The paper kept only loops because method forks rarely add coverage;
/// this artifact measures both shapes on the same programs.
pub fn methods(size: DataSize) -> String {
    use test_tracer::MethodTracer;
    let mut s = String::new();
    s.push_str("Method-call-return vs loop decompositions (paper section 4.1)\n");
    s.push_str(&format!(
        "{:<14}{:>12}{:>14}{:>14}{:>16}\n",
        "Benchmark", "call sites", "best fork", "fork save", "loop STL save"
    ));
    for name in [
        "Huffman",
        "EmFloatPnt",
        "NumHeapSort",
        "IDEA",
        "monteCarlo",
        "NeuralNet",
        "FourierTest",
    ] {
        let bench = benchsuite::by_name(name).expect("benchmark exists");
        let program = (bench.build)(size);
        // loop pipeline for the comparison baseline
        let report = run_pipeline(&program, &PipelineConfig::default()).expect("pipeline runs");
        let loop_save = 1.0 - report.predicted_normalized();
        // method profiling needs no annotations: run the plain program
        let mut mt = MethodTracer::new();
        let run = tvm::Interp::run(&program, &mut mt).expect("plain run");
        let stats = mt.into_stats();
        let ranked = test_tracer::rank_sites(&stats, run.cycles, 10);
        let (best_speedup, fork_save) = ranked
            .first()
            .map(|m| (m.speedup, m.coverage * (1.0 - 1.0 / m.speedup)))
            .unwrap_or((1.0, 0.0));
        s.push_str(&format!(
            "{:<14}{:>12}{:>13.2}x{:>13.1}%{:>15.1}%\n",
            name,
            stats.len(),
            best_speedup,
            fork_save * 100.0,
            loop_save * 100.0
        ));
    }
    s.push_str(
        "(save = fraction of program cycles removed; loop STLs dominate,\n\
         reproducing the paper's reason for focusing on loops)\n",
    );
    s
}

snapshot_row! {
    /// One benchmark's static pre-screen measurements, including the
    /// baseline-vs-points-to pair-classification delta the committed
    /// snapshot tracks.
    pub struct PrescreenRow {
        /// Natural loops discovered.
        pub loops: usize,
        /// Qualified candidates.
        pub candidates: usize,
        /// Candidates the pre-screen demoted.
        pub demoted: usize,
        /// (load, store) access pairs across all candidate loop bodies.
        pub pairs: usize,
        /// Pairs proven disjoint by the structural rules alone (PR 1).
        pub baseline_disjoint: usize,
        /// Pairs proven disjoint with points-to facts.
        pub disjoint: usize,
        /// Of those, provable only through points-to.
        pub via_pointsto: usize,
        /// Abstract objects the points-to solve modelled.
        pub abstract_objects: usize,
    }
}

/// Computes the pre-screen measurements for every benchmark. Pure
/// static analysis — no interpretation — so the output is fully
/// deterministic and a byte-exact snapshot can be committed.
pub fn prescreen_rows(size: DataSize) -> Vec<PrescreenRow> {
    let mut rows = Vec::new();
    for b in benchsuite::all() {
        let program = (b.build)(size);
        let cands = cfgir::extract_candidates(&program);
        let pt = cfgir::PointsTo::analyze(&program);
        let mut row = PrescreenRow {
            name: b.name,
            loops: cands.total_loops(),
            candidates: cands.candidates.len(),
            demoted: cands.demoted_count(),
            pairs: 0,
            baseline_disjoint: 0,
            disjoint: 0,
            via_pointsto: 0,
            abstract_objects: cands.pointsto.abstract_objects,
        };
        for c in &cands.candidates {
            let fa = &cands.functions[c.func.0 as usize];
            let f = &program.functions[c.func.0 as usize];
            let dom = Dominators::compute(&fa.cfg);
            let lp = &fa.forest.loops[c.loop_idx];
            let view = pt.view(c.func);
            let sharp = classify_loop_pairs(&program, f, &fa.cfg, &dom, lp, Some(&view));
            let base = classify_loop_pairs(&program, f, &fa.cfg, &dom, lp, None);
            row.pairs += sharp.len();
            row.baseline_disjoint += base
                .iter()
                .filter(|p| p.verdict == PairVerdict::Disjoint)
                .count();
            row.disjoint += sharp
                .iter()
                .filter(|p| p.verdict == PairVerdict::Disjoint)
                .count();
            row.via_pointsto += sharp.iter().filter(|p| p.via_pointsto).count();
        }
        rows.push(row);
    }
    rows.sort_by_key(|r| r.name);
    rows
}

/// Static pre-screen summary — per benchmark, how many candidate loops
/// the memory-dependence analysis proved serial and demoted before any
/// profiling run, and how many access pairs the points-to sharpening
/// proved independent beyond the structural alias rules.
pub fn prescreen(size: DataSize) -> String {
    let mut s = String::new();
    s.push_str("Static memory-dependence pre-screen (per benchmark)\n");
    s.push_str(&format!(
        "{:<14}{:>7}{:>9}{:>8}{:>8}{:>11}{:>10}{:>8}\n",
        "Benchmark", "loops", "demoted", "traced", "pairs", "disj(PR1)", "disj(pt)", "+pt"
    ));
    let mut total_pruned = 0usize;
    let mut total_via_pt = 0usize;
    for r in prescreen_rows(size) {
        total_pruned += r.demoted;
        total_via_pt += r.via_pointsto;
        s.push_str(&format!(
            "{:<14}{:>7}{:>9}{:>8}{:>8}{:>11}{:>10}{:>8}\n",
            r.name,
            r.loops,
            r.demoted,
            r.candidates - r.demoted,
            r.pairs,
            r.baseline_disjoint,
            r.disjoint,
            r.via_pointsto,
        ));
    }
    s.push_str(&format!(
        "Total candidate loops pruned statically: {total_pruned}\n\
         Total access pairs proven independent only by points-to: {total_via_pt}\n"
    ));
    s
}

snapshot_row! {
    /// One benchmark's scalar-evolution measurements: how much further the
    /// scev distance-vector sharpening pushes the pair classification past
    /// the points-to pre-screen, how many certified pre-computation slices
    /// were extracted, and whether the dynamic value-agreement replay
    /// confirmed every claim.
    pub struct ScevRow {
        /// (load, store) access pairs across all candidate loop bodies —
        /// the same universe the pre-screen snapshot counts, so the gate
        /// can check per-benchmark monotonicity against it.
        pub pairs: usize,
        /// Pairs proven disjoint by the points-to pre-screen (PR 5).
        pub prescreen_disjoint: usize,
        /// Pairs proven disjoint with scev evolutions also available.
        pub disjoint: usize,
        /// Pairs carrying a `DistanceAtLeast` verdict — collisions proven
        /// at least that many iterations apart, which the pre-screen had
        /// to leave may-alias.
        pub distance_pairs: usize,
        /// Candidate loops whose Equation 2 estimate gains a RAW-chain
        /// overlap floor from a positive signed distance.
        pub floored_loops: usize,
        /// Loop-carried scalars with closed-form evolutions.
        pub closed_forms: usize,
        /// Certified pre-computation slices (verifier-approved).
        pub slices: usize,
        /// Slice candidates the independent verifier rejected.
        pub slices_rejected: usize,
        /// Per-iteration slice predictions checked against the replay.
        pub slice_checks: u64,
        /// Slice predictions the recorded stream refuted (must be 0).
        pub slice_violations: usize,
        /// Shared addresses cross-checked against a claimed distance.
        pub distance_checks: u64,
        /// Distance claims the replay refuted (must be 0).
        pub distance_violations: usize,
        /// The full agreement report's soundness verdict.
        pub sound: bool,
    }
}

/// Computes the scalar-evolution snapshot for every benchmark: the
/// static columns re-run the pair classification (on the original
/// program, same universe as [`prescreen_rows`]) with evolutions
/// available; the dynamic columns come from the value-agreement replay
/// of [`agreement_report`].
///
/// # Panics
///
/// Panics if a benchmark's agreement replay fails — CI treats that as
/// a build failure.
pub fn scev_rows(size: DataSize) -> Vec<ScevRow> {
    let mut rows = Vec::new();
    for b in benchsuite::all() {
        let program = (b.build)(size);
        let cands = cfgir::extract_candidates(&program);
        let pt = cfgir::PointsTo::analyze(&program);
        let mut row = ScevRow {
            name: b.name,
            pairs: 0,
            prescreen_disjoint: 0,
            disjoint: 0,
            distance_pairs: 0,
            floored_loops: 0,
            closed_forms: 0,
            slices: 0,
            slices_rejected: 0,
            slice_checks: 0,
            slice_violations: 0,
            distance_checks: 0,
            distance_violations: 0,
            sound: false,
        };
        for c in &cands.candidates {
            let fa = &cands.functions[c.func.0 as usize];
            let f = &program.functions[c.func.0 as usize];
            let dom = Dominators::compute(&fa.cfg);
            let lp = &fa.forest.loops[c.loop_idx];
            let view = pt.view(c.func);
            let evo = scev::analyze_loop(&program, f, &fa.cfg, lp);
            let sharp = classify_loop_pairs_evo(&program, f, &fa.cfg, &dom, lp, Some(&view), &evo);
            let base = classify_loop_pairs(&program, f, &fa.cfg, &dom, lp, Some(&view));
            row.pairs += sharp.len();
            row.prescreen_disjoint += base
                .iter()
                .filter(|p| p.verdict == PairVerdict::Disjoint)
                .count();
            row.disjoint += sharp
                .iter()
                .filter(|p| p.verdict == PairVerdict::Disjoint)
                .count();
            row.distance_pairs += sharp
                .iter()
                .filter(|p| matches!(p.verdict, PairVerdict::DistanceAtLeast(_)))
                .count();
            row.closed_forms += evo.closed_form_count();
            let slices = extract_slices(&program, f, &fa.cfg, &fa.forest, c.loop_idx, &evo);
            row.slices += slices.slices.len();
            row.slices_rejected += slices.rejected;
        }
        row.floored_loops = cfgir::distance_floors(&program, &cands).len();
        let report = agreement_report(&program)
            .unwrap_or_else(|e| panic!("agreement report failed on {}: {e}", b.name));
        row.slice_checks = report.slice_checks;
        row.slice_violations = report.slice_violations.len();
        row.distance_checks = report.distance_checks;
        row.distance_violations = report.distance_violations.len();
        row.sound = report.sound();
        rows.push(row);
    }
    rows.sort_by_key(|r| r.name);
    rows
}

/// Scalar-evolution summary — per benchmark, how far the distance
/// vectors sharpen the pre-screen, the certified slice yield, and the
/// dynamic value-agreement verdict.
pub fn scev_table(size: DataSize) -> String {
    let mut s = String::new();
    s.push_str("Scalar-evolution sharpening and certified slices (per benchmark)\n");
    s.push_str(&format!(
        "{:<14}{:>7}{:>9}{:>9}{:>6}{:>7}{:>8}{:>5}{:>8}{:>8}{:>7}\n",
        "Benchmark",
        "pairs",
        "disj(pt)",
        "disj(ev)",
        "dist",
        "floors",
        "closed",
        "slc",
        "slc-chk",
        "dst-chk",
        "sound"
    ));
    let rows = scev_rows(size);
    for r in &rows {
        s.push_str(&format!(
            "{:<14}{:>7}{:>9}{:>9}{:>6}{:>7}{:>8}{:>5}{:>8}{:>8}{:>7}\n",
            r.name,
            r.pairs,
            r.prescreen_disjoint,
            r.disjoint,
            r.distance_pairs,
            r.floored_loops,
            r.closed_forms,
            r.slices,
            r.slice_checks,
            r.distance_checks,
            if r.sound { "yes" } else { "NO" },
        ));
    }
    let total_dist: usize = rows.iter().map(|r| r.distance_pairs).sum();
    let total_slices: usize = rows.iter().map(|r| r.slices).sum();
    let all_sound = rows.iter().all(|r| r.sound);
    s.push_str(&format!(
        "Distance vectors proven beyond the pre-screen: {total_dist}\n\
         Certified pre-computation slices: {total_slices}\n\
         Value-agreement invariant (every slice/distance claim replayed): {}\n",
        if all_sound { "HOLDS" } else { "VIOLATED" }
    ));
    s
}

snapshot_row! {
    /// One benchmark's loop-rescue verdicts: what the transform pass
    /// lifted out of the demoted set, what it refused, and whether the
    /// rescued loops then clear dynamic selection.
    pub struct RescueRow {
        /// Candidates the pre-screen demoted on the program as written.
        pub demoted_before: usize,
        /// Candidates still demoted after rescue.
        pub demoted_after: usize,
        /// Verifier-accepted transforms applied.
        pub rescued: usize,
        /// Of those, reduction delta-rewrites.
        pub reductions: usize,
        /// Of those, scalar privatizations.
        pub privatizations: usize,
        /// Of those, loop distributions.
        pub distributions: usize,
        /// Loops a transform considered but could not legalize.
        pub rejected: usize,
        /// Selected STLs gained by running the pipeline on the rescued
        /// program instead of the original (0 when nothing was rescued).
        pub selected_gain: usize,
    }
}

/// Computes the loop-rescue verdicts for every benchmark. The
/// transform/verify columns are pure static analysis; `selected_gain`
/// additionally runs the (deterministic) pipeline with rescue on and
/// off for the benchmarks where anything was rescued.
pub fn rescue_rows(size: DataSize) -> Vec<RescueRow> {
    let mut rows = Vec::new();
    for b in benchsuite::all() {
        let program = (b.build)(size);
        let before = cfgir::extract_candidates(&program);
        let out = cfgir::rescue_program(&program);
        let mut row = RescueRow {
            name: b.name,
            demoted_before: before.demoted_count(),
            demoted_after: cfgir::extract_candidates(&out.program).demoted_count(),
            rescued: out.rescued.len(),
            reductions: 0,
            privatizations: 0,
            distributions: 0,
            rejected: out.rejected.len(),
            selected_gain: 0,
        };
        for r in &out.rescued {
            match r.proof.transform {
                cfgir::Transform::Reduction { .. } => row.reductions += 1,
                cfgir::Transform::Privatization { .. } => row.privatizations += 1,
                cfgir::Transform::Distribution { .. } => row.distributions += 1,
            }
        }
        if row.rescued > 0 {
            let on = run_pipeline(&program, &PipelineConfig::default()).expect("pipeline runs");
            let off = run_pipeline(
                &program,
                &PipelineConfig {
                    no_rescue: true,
                    ..PipelineConfig::default()
                },
            )
            .expect("pipeline runs");
            row.selected_gain = on
                .selection
                .chosen
                .len()
                .saturating_sub(off.selection.chosen.len());
        }
        rows.push(row);
    }
    rows.sort_by_key(|r| r.name);
    rows
}

/// Loop-rescue summary — per benchmark, how many demoted loops the
/// dependence-driven transforms (reduction recognition, scalar
/// privatization, loop distribution) lifted into legal parallel form,
/// and the headline: how many previously-demoted loops now clear
/// dynamic selection as profitable STLs.
pub fn rescue(size: DataSize) -> String {
    let mut s = String::new();
    s.push_str("Dependence-driven loop rescue (per benchmark)\n");
    s.push_str(&format!(
        "{:<14}{:>9}{:>9}{:>9}{:>7}{:>7}{:>7}{:>9}{:>10}\n",
        "Benchmark", "demoted", "after", "rescued", "red", "priv", "dist", "refused", "+selected"
    ));
    let (mut tot_rescued, mut tot_gain) = (0usize, 0usize);
    for r in rescue_rows(size) {
        tot_rescued += r.rescued;
        tot_gain += r.selected_gain;
        s.push_str(&format!(
            "{:<14}{:>9}{:>9}{:>9}{:>7}{:>7}{:>7}{:>9}{:>10}\n",
            r.name,
            r.demoted_before,
            r.demoted_after,
            r.rescued,
            r.reductions,
            r.privatizations,
            r.distributions,
            r.rejected,
            r.selected_gain,
        ));
    }
    s.push_str(&format!(
        "Loops rescued (verifier-accepted transforms): {tot_rescued}\n\
         Previously-demoted loops now selected as profitable STLs: {tot_gain}\n"
    ));
    s
}

snapshot_row! {
    /// One benchmark's online tier-controller outcome: how the per-loop
    /// state machines converged and whether the online schedule reproduced
    /// the offline batch selection.
    pub struct TierRow {
        /// Candidate loops tracked by the controller.
        pub candidates: usize,
        /// Execution epochs until every loop reached a terminal tier.
        pub epochs: u32,
        /// Of those, pure counting epochs (no loop annotated yet).
        pub counting_epochs: u32,
        /// Image generations (incremental patches) the controller went
        /// through.
        pub generations: u64,
        /// Loops that ended Selected.
        pub selected: usize,
        /// Loops demoted by the (deferred) static pre-screen at promotion.
        pub demoted_static: usize,
        /// Loops demoted dynamically (never executed, Equation 2 losers,
        /// comparator-bank starvation).
        pub demoted_dynamic: usize,
        /// Loops whose windowed verdict was revised at least once.
        pub revisions: u32,
        /// Committed selection-verdict flips summed over all loops.
        pub flips: u32,
        /// TI001/TI002 diagnostics raised.
        pub diags: usize,
        /// Every loop reached a terminal tier within the epoch budget.
        pub terminal: bool,
        /// The online Selected set equals the offline batch selection.
        pub matches_offline: bool,
    }
}

/// Computes the online tier-controller outcome for every benchmark.
/// Interpretation is deterministic, so every field is byte-exact and a
/// committed snapshot can be diffed by the `tier` gate.
pub fn tier_rows(size: DataSize) -> Vec<TierRow> {
    let cfg = PipelineConfig::default();
    let mut rows = Vec::new();
    for b in benchsuite::all() {
        let program = (b.build)(size);
        let online = run_tiered(&program, &cfg, &TierConfig::default())
            .unwrap_or_else(|e| panic!("online tier run failed on {}: {e}", b.name));
        let offline = run_pipeline(&program, &cfg)
            .unwrap_or_else(|e| panic!("offline pipeline failed on {}: {e}", b.name));
        let t = &online.tiers;
        let offline_sel: std::collections::BTreeSet<_> =
            offline.selection.chosen.iter().map(|c| c.loop_id).collect();
        let mut row = TierRow {
            name: b.name,
            candidates: t.loops.len(),
            epochs: t.epochs,
            counting_epochs: t.counting_epochs,
            generations: t.generations,
            selected: 0,
            demoted_static: 0,
            demoted_dynamic: 0,
            revisions: t.revisions,
            flips: 0,
            diags: t.diagnostics.len(),
            terminal: t.all_terminal(),
            matches_offline: t.selected_ids() == offline_sel,
        };
        for l in &t.loops {
            row.flips += l.flips;
            match &l.tier {
                LoopTier::Selected => row.selected += 1,
                LoopTier::Demoted { dynamic: false, .. } => row.demoted_static += 1,
                LoopTier::Demoted { dynamic: true, .. } => row.demoted_dynamic += 1,
                _ => {}
            }
        }
        rows.push(row);
    }
    rows.sort_by_key(|r| r.name);
    rows
}

/// Online tier-runtime summary — per benchmark, how many epochs the
/// per-loop state machines needed to converge, where the loops ended
/// up, and whether the online schedule reproduced the offline batch.
pub fn tier(size: DataSize) -> String {
    let mut s = String::new();
    s.push_str("Online tiered runtime (per benchmark)\n");
    s.push_str(&format!(
        "{:<14}{:>6}{:>8}{:>7}{:>6}{:>9}{:>8}{:>8}{:>7}{:>7}{:>10}\n",
        "Benchmark",
        "cands",
        "epochs",
        "count",
        "gens",
        "selected",
        "dem(st)",
        "dem(dy)",
        "revis",
        "flips",
        "==offline"
    ));
    let mut all_match = true;
    for r in tier_rows(size) {
        all_match &= r.matches_offline && r.terminal;
        s.push_str(&format!(
            "{:<14}{:>6}{:>8}{:>7}{:>6}{:>9}{:>8}{:>8}{:>7}{:>7}{:>10}\n",
            r.name,
            r.candidates,
            r.epochs,
            r.counting_epochs,
            r.generations,
            r.selected,
            r.demoted_static,
            r.demoted_dynamic,
            r.revisions,
            r.flips,
            if r.matches_offline { "yes" } else { "NO" },
        ));
    }
    s.push_str(&format!(
        "Online schedule reproduces the offline batch on every benchmark: {}\n",
        if all_match { "HOLDS" } else { "VIOLATED" }
    ));
    s
}

/// Static-vs-dynamic agreement report for the named benchmarks (all of
/// them when `names` is empty).
///
/// # Panics
///
/// Panics if a named benchmark does not exist or its agreement run
/// fails — CI treats that as a build failure.
pub fn agreement_results(names: &[&str], size: DataSize) -> Vec<(&'static str, AgreementReport)> {
    let suite: Vec<_> = benchsuite::all()
        .into_iter()
        .filter(|b| names.is_empty() || names.contains(&b.name))
        .collect();
    let mut out = Vec::new();
    for b in suite {
        let program = (b.build)(size);
        let report = agreement_report(&program)
            .unwrap_or_else(|e| panic!("agreement report failed on {}: {e}", b.name));
        out.push((b.name, report));
    }
    out.sort_by_key(|(name, _)| *name);
    out
}

/// Agreement-report table: per benchmark, the static pair verdicts
/// scored against the dynamic dependence profile of a fully annotated
/// run, plus points-to solver statistics.
pub fn agreement(results: &[(&'static str, AgreementReport)]) -> String {
    let mut s = String::new();
    s.push_str("Static-vs-dynamic dependence agreement report\n");
    s.push_str(&format!(
        "{:<14}{:>7}{:>9}{:>7}{:>7}{:>7}{:>9}{:>8}{:>8}{:>7}\n",
        "Benchmark", "pairs", "disjoint", "+pt", "viol", "sound", "prec", "recall", "objs", "iters"
    ));
    let fmt_opt = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.2}"));
    for (name, r) in results {
        s.push_str(&format!(
            "{:<14}{:>7}{:>9}{:>7}{:>7}{:>7}{:>9}{:>8}{:>8}{:>7}\n",
            name,
            r.pairs,
            r.disjoint,
            r.via_pointsto,
            r.violations.len(),
            if r.sound() { "yes" } else { "NO" },
            fmt_opt(r.precision()),
            fmt_opt(r.recall()),
            r.pointsto.abstract_objects,
            r.pointsto.iterations,
        ));
    }
    let sound = results.iter().all(|(_, r)| r.sound());
    s.push_str(&format!(
        "Soundness invariant (disjoint pairs never alias dynamically): {}\n",
        if sound { "HOLDS" } else { "VIOLATED" }
    ));
    s
}

/// The agreement report as JSON (uploaded as a CI artifact; CI fails
/// the job when any benchmark's `sound` flag is false).
pub fn agreement_json(results: &[(&'static str, AgreementReport)]) -> String {
    let mut s = String::from("{\n  \"benchmarks\": [\n");
    for (i, (name, r)) in results.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!("      \"name\": {},\n", quote(name)));
        s.push_str(&format!("      \"sound\": {},\n", r.sound()));
        s.push_str(&format!("      \"pairs\": {},\n", r.pairs));
        s.push_str(&format!("      \"disjoint\": {},\n", r.disjoint));
        s.push_str(&format!(
            "      \"baseline_disjoint\": {},\n",
            r.baseline_disjoint
        ));
        s.push_str(&format!("      \"via_pointsto\": {},\n", r.via_pointsto));
        s.push_str(&format!(
            "      \"predicted_serial\": {},\n",
            r.predicted_serial
        ));
        s.push_str(&format!("      \"actual_serial\": {},\n", r.actual_serial));
        s.push_str(&format!("      \"agree_serial\": {},\n", r.agree_serial));
        let fmt_opt = |v: Option<f64>| v.map_or("null".to_string(), |x| format!("{x:.4}"));
        s.push_str(&format!(
            "      \"precision\": {},\n",
            fmt_opt(r.precision())
        ));
        s.push_str(&format!("      \"recall\": {},\n", fmt_opt(r.recall())));
        s.push_str(&format!("      \"events\": {},\n", r.events));
        s.push_str(&format!(
            "      \"pointsto\": {{\"abstract_objects\": {}, \"variables\": {}, \
             \"constraint_edges\": {}, \"iterations\": {}, \"wall_nanos\": {}}},\n",
            r.pointsto.abstract_objects,
            r.pointsto.variables,
            r.pointsto.constraint_edges,
            r.pointsto.iterations,
            r.pointsto.wall_nanos
        ));
        s.push_str("      \"violations\": [");
        for (j, v) in r.violations.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"loop\": {}, \"load_at\": {}, \"store_at\": {}, \
                 \"via_pointsto\": {}, \"shared_addr\": {}}}",
                v.loop_id.0, v.load_at, v.store_at, v.via_pointsto, v.shared_addr
            ));
        }
        s.push_str("],\n");
        s.push_str("      \"loops\": [");
        for (j, l) in r.loops.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"id\": {}, \"demoted\": {}, \"dynamic_cross_raw\": {}, \"iters\": {}, \
                 \"disjoint\": {}, \"via_pointsto\": {}, \"may_alias\": {}, \"guaranteed\": {}}}",
                l.id.0,
                l.demoted,
                l.dynamic_cross_raw,
                l.iters,
                l.disjoint,
                l.via_pointsto,
                l.may_alias,
                l.guaranteed
            ));
        }
        s.push_str("]\n");
        s.push_str(if i + 1 < results.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    s.push_str("  ]\n}\n");
    s
}

/// The reproduction scorecard: every headline claim of the paper,
/// checked against this run and marked PASS/FAIL.
pub fn scorecard(results: &[BenchResult]) -> String {
    let mut s = String::new();
    s.push_str("Reproduction scorecard\n");
    let mut row = |claim: &str, pass: bool, detail: String| {
        s.push_str(&format!(
            "  [{}] {:<52} {}\n",
            if pass { "PASS" } else { "FAIL" },
            claim,
            detail
        ));
    };

    // <1% transistor budget
    let budget = hydra_budget(&CostParams::default(), 8);
    let share = budget.share("Comparator bank");
    row(
        "TEST hardware < 1% of CMP transistors (Table 5)",
        share < 0.01,
        format!("{:.2}%", share * 100.0),
    );

    // 3-25% profiling slowdown
    let worst = results
        .iter()
        .map(|r| r.slowdown.optimized.slowdown - 1.0)
        .fold(0.0f64, f64::max);
    row(
        "profiling slowdown within 3-25% band (Figure 6)",
        worst <= 0.27,
        format!("worst {:.1}%", worst * 100.0),
    );

    // base > optimized annotations
    let ordered = results
        .iter()
        .all(|r| r.slowdown.base.slowdown >= r.slowdown.optimized.slowdown);
    row(
        "optimizations reduce annotation overhead (5.1)",
        ordered,
        String::new(),
    );

    // prediction quality
    let mean_err = results
        .iter()
        .map(|r| (r.report.predicted_normalized() - r.report.actual_normalized()).abs())
        .sum::<f64>()
        / results.len().max(1) as f64;
    row(
        "predictions track actual TLS execution (Figure 11)",
        mean_err < 0.08,
        format!("mean |err| {mean_err:.3}"),
    );

    // every benchmark has selections; coverage varies
    let all_selected = results
        .iter()
        .all(|r| !r.report.selection.chosen.is_empty());
    row(
        "TEST finds decompositions on all 26 programs (Table 6)",
        all_selected,
        String::new(),
    );
    let with_serial = results
        .iter()
        .filter(|r| r.report.selection.coverage() < 0.95)
        .count();
    row(
        "serial regions remain on db-like programs (Figure 10)",
        with_serial >= 1,
        format!("{with_serial} programs < 95% coverage"),
    );

    // eight banks suffice
    let max_depth = results
        .iter()
        .map(|r| r.report.profile.max_dynamic_depth)
        .max()
        .unwrap_or(0);
    let untraced: u64 = results
        .iter()
        .flat_map(|r| r.report.profile.stl.values())
        .map(|t| t.untraced_entries)
        .sum();
    row(
        "eight comparator banks cover the suite (6.1)",
        max_depth <= 8 && untraced == 0,
        format!("max dynamic depth {max_depth}, untraced {untraced}"),
    );

    s
}

/// The results sorted by benchmark name, so observability output is
/// stable regardless of the order the suite ran in.
fn by_name(results: &[BenchResult]) -> Vec<&BenchResult> {
    let mut ordered: Vec<&BenchResult> = results.iter().collect();
    ordered.sort_by_key(|r| r.bench.name);
    ordered
}

/// Pipeline observability — per-stage wall time, event-stream volume
/// and batch occupancy for every benchmark run.
/// Benchmarks and event-kind totals are sorted by name.
pub fn obs(results: &[BenchResult]) -> String {
    let mut s = String::new();
    s.push_str("Pipeline observability - stage wall time and event-stream statistics\n");
    s.push_str(&format!(
        "{:<14}{:>7}{:>12}{:>9}{:>8}   stages (ms)\n",
        "Benchmark", "passes", "events", "Mev/s", "occup"
    ));
    let mut by_kind = KindCounts::default();
    for r in by_name(results) {
        let o = &r.report.obs;
        by_kind.merge(&o.by_kind);
        let stages = o
            .stages
            .iter()
            .map(|st| format!("{} {:.1}", st.stage, st.nanos as f64 / 1e6))
            .collect::<Vec<_>>()
            .join(", ");
        s.push_str(&format!(
            "{:<14}{:>7}{:>12}{:>9.2}{:>7.0}%   {}\n",
            r.bench.name,
            o.interpreter_passes,
            o.recorded_events,
            o.events_per_sec() / 1e6,
            o.avg_batch_occupancy() * 100.0,
            stages
        ));
    }
    s.push_str("Event totals by kind:\n");
    let mut kinds: Vec<_> = by_kind.iter().filter(|&(_, n)| n > 0).collect();
    kinds.sort_by_key(|(kind, _)| kind.name());
    for (kind, n) in kinds {
        s.push_str(&format!("  {:<16}{n}\n", kind.name()));
    }
    s
}

/// The observability report as a JSON document (hand-built; the
/// workspace deliberately carries no serialization dependency).
/// Benchmarks are sorted by name so two runs diff cleanly.
pub fn obs_json(results: &[BenchResult]) -> String {
    let ordered = by_name(results);
    let mut s = String::from("{\n  \"benchmarks\": [\n");
    for (i, r) in ordered.iter().enumerate() {
        let o = &r.report.obs;
        s.push_str("    {\n");
        s.push_str(&format!("      \"name\": {},\n", quote(r.bench.name)));
        s.push_str(&format!(
            "      \"interpreter_passes\": {},\n",
            o.interpreter_passes
        ));
        s.push_str(&format!(
            "      \"recorded_events\": {},\n",
            o.recorded_events
        ));
        s.push_str(&format!("      \"batches\": {},\n", o.batches));
        s.push_str(&format!(
            "      \"batch_capacity\": {},\n",
            o.batch_capacity
        ));
        s.push_str(&format!(
            "      \"avg_batch_occupancy\": {:.6},\n",
            o.avg_batch_occupancy()
        ));
        s.push_str(&format!(
            "      \"events_per_sec\": {:.1},\n",
            o.events_per_sec()
        ));
        s.push_str("      \"stages\": [");
        for (j, st) in o.stages.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"stage\": {}, \"nanos\": {}}}",
                quote(&st.stage),
                st.nanos
            ));
        }
        s.push_str("],\n");
        s.push_str("      \"events_by_kind\": {");
        let mut kinds: Vec<_> = o.by_kind.iter().filter(|&(_, n)| n > 0).collect();
        kinds.sort_by_key(|(kind, _)| kind.name());
        for (j, (kind, n)) in kinds.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("{}: {n}", quote(kind.name())));
        }
        s.push_str("},\n");
        s.push_str("      \"sinks\": [");
        for (j, sink) in o.bus.sinks.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"label\": {}, \"events\": {}, \"batches\": {}, \"drain_nanos\": {}}}",
                quote(&sink.label),
                sink.events,
                sink.batches,
                sink.drain_nanos
            ));
        }
        s.push_str("]\n");
        s.push_str(if i + 1 < ordered.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Chrome trace-event JSON for every benchmark run — one trace process
/// per benchmark (two pids each: wall-clock tracks and simulated-cycle
/// tracks). Load the file in Perfetto or `chrome://tracing`. Spans are
/// only present when the runs were made with
/// [`jrpm::pipeline::ObsConfig::trace`] enabled.
pub fn chrome_trace(results: &[BenchResult]) -> String {
    let ordered = by_name(results);
    let procs: Vec<(&str, &obs::Trace)> = ordered
        .iter()
        .map(|r| (r.bench.name, &*r.report.telemetry.trace))
        .collect();
    obs::chrome::chrome_json(&procs)
}

/// Every benchmark's full metrics-registry snapshot as one JSON
/// document: `{"benchmarks": [{"name": ..., "metrics": {...}}]}`.
/// This is the raw feed the observability views are computed from.
pub fn metrics_json(results: &[BenchResult]) -> String {
    let ordered = by_name(results);
    let mut s = String::from("{\n  \"benchmarks\": [\n");
    for (i, r) in ordered.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!("      \"name\": {},\n", quote(r.bench.name)));
        s.push_str(&format!(
            "      \"metrics\": {}\n",
            r.report.telemetry.snapshot().to_json()
        ));
        s.push_str(if i + 1 < ordered.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    s.push_str("  ]\n}\n");
    s
}

/// The hardware configuration banner printed at the top of reports.
pub fn banner() -> String {
    let t = TracerConfig::default();
    format!(
        "TEST reproduction: {} comparator banks, {}-line store-timestamp FIFO,\n\
         {}/{} line timestamp tables, {} local-variable slots\n",
        t.n_banks, t.store_ts_lines, t.ld_table_entries, t.st_table_entries, t.local_var_capacity
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{self, Gate};

    #[test]
    fn static_tables_render_paper_constants() {
        let t1 = table1();
        assert!(t1.contains("16kB (512 lines x 32B)"));
        assert!(t1.contains("2kB (64 lines x 32B)"));
        let t2 = table2();
        assert!(t2.contains("Loop startup              25 cycles"));
        assert!(t2.contains("Store-load communication  10 cycles"));
        let t4 = table4();
        for mnemonic in ["lwl vn", "swl vn", "sloop n", "eoi", "eloop n"] {
            assert!(t4.contains(mnemonic), "missing {mnemonic}");
        }
    }

    #[test]
    fn table5_reports_the_one_percent_claim() {
        let t5 = table5();
        assert!(t5.contains("PASS: < 1%"), "{t5}");
        assert!(t5.contains("Comparator bank"));
    }

    #[test]
    fn fig9_shows_the_pathology() {
        let out = fig9();
        // high arc frequency for n=8 and a visible table
        assert!(out.contains("0.75"), "{out}");
        assert!(out.lines().count() >= 6);
    }

    #[test]
    fn obs_renders_stages_and_json() {
        let bench = benchsuite::by_name("Huffman").unwrap();
        let r = crate::runner::run_benchmark(&bench, DataSize::Small).unwrap();
        let results = vec![r];
        let text = obs(&results);
        assert!(text.contains("Huffman"), "{text}");
        assert!(text.contains("record"), "{text}");
        assert!(text.contains("heap_load"), "{text}");
        let json = obs_json(&results);
        assert!(json.contains("\"interpreter_passes\": "), "{json}");
        assert!(json.contains("\"stages\": ["), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn obs_outputs_are_sorted_by_benchmark_and_kind_name() {
        let h =
            crate::runner::run_benchmark(&benchsuite::by_name("Huffman").unwrap(), DataSize::Small)
                .unwrap();
        let l = crate::runner::run_benchmark(
            &benchsuite::by_name("LuFactor").unwrap(),
            DataSize::Small,
        )
        .unwrap();
        // deliberately out of order: rendering must sort by name
        let results = vec![l, h];
        let json = obs_json(&results);
        assert!(
            json.find("\"Huffman\"").unwrap() < json.find("\"LuFactor\"").unwrap(),
            "benchmarks sorted by name:\n{json}"
        );
        // event-kind keys come out alphabetically
        assert!(json.find("\"heap_load\"").unwrap() < json.find("\"local_load\"").unwrap());
        assert!(json.find("\"local_load\"").unwrap() < json.find("\"loop_enter\"").unwrap());
        let text = obs(&results);
        assert!(text.find("Huffman").unwrap() < text.find("LuFactor").unwrap());
        // the raw metrics dump is sorted and parses back
        let metrics = metrics_json(&results);
        assert!(metrics.find("\"Huffman\"").unwrap() < metrics.find("\"LuFactor\"").unwrap());
        let v = obs::json::parse(&metrics).expect("metrics JSON parses");
        let benches = v.get("benchmarks").and_then(|b| b.as_arr()).unwrap();
        assert_eq!(benches.len(), 2);
        assert!(benches[0]
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .is_some());
    }

    #[test]
    fn agreement_on_huffman_is_sound_and_renders() {
        let results = agreement_results(&["Huffman"], DataSize::Small);
        assert_eq!(results.len(), 1);
        let (_, r) = &results[0];
        assert!(r.sound(), "violations: {:?}", r.violations);
        assert!(r.pairs > 0);
        let text = agreement(&results);
        assert!(text.contains("Huffman"), "{text}");
        assert!(text.contains("HOLDS"), "{text}");
        let json = agreement_json(&results);
        assert!(json.contains("\"sound\": true"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let v = obs::json::parse(&json).expect("agreement JSON parses");
        assert!(v.get("benchmarks").and_then(|b| b.as_arr()).is_some());
    }

    /// Writes `rows` as `gate`'s document, reads it back, and returns
    /// the gate's invariant violations.
    fn violations(gate: &dyn Gate, rows: Vec<Row>) -> Vec<String> {
        let cur = gate::load(gate, &gate::rows_json("benchmarks", &rows)).expect("reads back");
        assert_eq!(cur.len(), rows.len());
        gate.invariants(&cur)
    }

    #[test]
    fn prescreen_snapshot_is_monotone_and_parses() {
        let rows = prescreen_rows(DataSize::Small);
        for r in &rows {
            let delta = r.disjoint - r.baseline_disjoint;
            assert_eq!(
                delta, r.via_pointsto,
                "{}: delta is the via-points-to count",
                r.name
            );
        }
        let broken = violations(
            &gate::Prescreen,
            rows.iter().map(PrescreenRow::row).collect(),
        );
        assert!(broken.is_empty(), "{broken:?}");
    }

    #[test]
    fn rescue_snapshot_lifts_a_benchmark_loop_into_selection() {
        let rows = rescue_rows(DataSize::Small)
            .iter()
            .map(RescueRow::row)
            .collect();
        let broken = violations(&gate::Rescue, rows);
        assert!(broken.is_empty(), "{broken:?}");
    }

    #[test]
    fn tier_snapshot_converges_and_matches_the_offline_batch() {
        let rows: Vec<Row> = tier_rows(DataSize::Small)
            .iter()
            .map(TierRow::row)
            .collect();
        assert!(!rows.is_empty());
        let broken = violations(&gate::Tier, rows);
        assert!(broken.is_empty(), "{broken:?}");
        let text = tier(DataSize::Small);
        assert!(text.contains("HOLDS"), "{text}");
    }

    #[test]
    fn bars_are_fixed_width() {
        assert_eq!(bar(0.0, 10), "..........");
        assert_eq!(bar(1.0, 10), "##########");
        assert_eq!(bar(0.5, 10), "#####.....");
        assert_eq!(bar(7.0, 10), "##########"); // clamped
    }
}
