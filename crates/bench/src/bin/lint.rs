//! `jrpm-lint` — static-analysis diagnostics over the benchmark suite.
//!
//! Runs the structural verifier, the abstract kind checker, the
//! memory-dependence pre-screen and the points-to analysis on every
//! benchmark, before and after annotation rewriting, and emits one
//! JSON document on stdout:
//!
//! ```text
//! cargo run --release -p jrpm-bench --bin jrpm-lint
//! cargo run --release -p jrpm-bench --bin jrpm-lint -- --small Huffman
//! cargo run --release -p jrpm-bench --bin jrpm-lint -- --explain PT001
//! ```
//!
//! Each loop row carries alias/escape, loop-rescue, and
//! scalar-evolution diagnostics with stable codes (`PT001`, `PT002`,
//! `TR001`, `TR002`, `SV001`, `SL001`), and each benchmark row carries
//! the online tier controller's runtime diagnostics (`TI001`,
//! `TI002`); `--explain <code>` prints what a code means. The codes
//! and their explanations live in [`jrpm_bench::diag`], whose tests
//! pin that every emittable code has an entry.
//! Exit status is nonzero if any program fails verification.

use benchsuite::DataSize;
use cfgir::{classify_loop_pairs, classify_loop_pairs_evo, extract_slices, scev, PairVerdict};
use jrpm::tier::{run_tiered, TierConfig};
use jrpm::{annotate, AnnotateOptions, PipelineConfig};
use jrpm_bench::diag::{explain, EXPLANATIONS};

/// Escapes a string for embedding in a JSON literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn check(r: Result<(), tvm::VmError>) -> (String, bool) {
    match r {
        Ok(()) => ("\"ok\"".into(), true),
        Err(e) => (format!("\"{}\"", esc(&e.to_string())), false),
    }
}

fn main() {
    let mut size = DataSize::Small;
    let mut names: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--small" => size = DataSize::Small,
            "--default" => size = DataSize::Default,
            "--large" => size = DataSize::Large,
            "--explain" => {
                let Some(code) = args.next() else {
                    eprintln!("usage: jrpm-lint --explain <code>");
                    std::process::exit(2);
                };
                let code = code.to_uppercase();
                match explain(&code) {
                    Some(text) => {
                        println!("{code}: {text}");
                        return;
                    }
                    None => {
                        eprintln!(
                            "unknown diagnostic code {code}; known codes: {}",
                            EXPLANATIONS
                                .iter()
                                .map(|(c, _)| *c)
                                .collect::<Vec<_>>()
                                .join(", ")
                        );
                        std::process::exit(2);
                    }
                }
            }
            other => names.push(other.to_string()),
        }
    }
    let suite: Vec<_> = benchsuite::all()
        .into_iter()
        .filter(|b| names.is_empty() || names.iter().any(|n| n == b.name))
        .collect();
    if suite.is_empty() {
        eprintln!("no benchmarks matched {names:?}; see `benchsuite::all()`");
        std::process::exit(2);
    }

    let mut all_ok = true;
    let mut total_demoted = 0usize;
    let mut total_rescued = 0usize;
    let mut rows: Vec<String> = Vec::new();

    for b in &suite {
        let program = (b.build)(size);
        let fname = |f: tvm::isa::FuncId| {
            program
                .functions
                .get(f.0 as usize)
                .map_or_else(|| format!("f{}", f.0), |func| esc(&func.name))
        };

        let (verify, v_ok) = check(tvm::verify::verify(&program));
        let (kinds, k_ok) = check(tvm::verify::verify_kinds(&program));

        let cands = cfgir::extract_candidates(&program);
        let pt = &cands.pointsto;
        let (rescue, _) = cfgir::rescue_extracted(&program, &cands);

        // TI001/TI002: drive the online tier controller to a terminal
        // state and surface its runtime diagnostics next to the static
        // ones (equivalence with the offline batch is tested elsewhere)
        let tiers = run_tiered(&program, &PipelineConfig::default(), &TierConfig::default())
            .map(|o| o.tiers)
            .ok();

        // the kind checker must also accept the rewritten program
        let (post, p_ok) = match annotate(&program, &cands, &AnnotateOptions::profiling()) {
            Ok(ann) => check(tvm::verify::verify_kinds(&ann)),
            Err(e) => (format!("\"{}\"", esc(&e.to_string())), false),
        };
        all_ok &= v_ok && k_ok && p_ok;

        let mut loops: Vec<String> = Vec::new();
        for c in &cands.candidates {
            let verdict = if c.is_demoted() { "demoted" } else { "clean" };
            let reason = c.static_verdict.reason();
            // PT001: pairs this loop's pre-screen proved disjoint only
            // thanks to points-to (the structural rules alone could not)
            let fa = &cands.functions[c.func.0 as usize];
            let f = &program.functions[c.func.0 as usize];
            let lp = &fa.forest.loops[c.loop_idx];
            let view = pt.view(c.func);
            let sharp = classify_loop_pairs(&program, f, &fa.cfg, &fa.dom, lp, Some(&view));
            let via_pt = sharp.iter().filter(|p| p.via_pointsto).count();
            let disjoint = sharp
                .iter()
                .filter(|p| p.verdict == PairVerdict::Disjoint)
                .count();
            let mut diags: Vec<String> = Vec::new();
            if via_pt > 0 {
                diags.push(format!(
                    "{{\"code\":\"PT001\",\"count\":{via_pt},\"disjoint\":{disjoint},\
                     \"pairs\":{}}}",
                    sharp.len()
                ));
            }
            // SV001/SL001: what scalar evolution adds on top — distance
            // vectors for affine pairs and certified slices for
            // closed-form loop-carried scalars
            let evo = scev::analyze_loop(&program, f, &fa.cfg, lp);
            let evo_pairs =
                classify_loop_pairs_evo(&program, f, &fa.cfg, &fa.dom, lp, Some(&view), &evo);
            let distances: Vec<u32> = evo_pairs
                .iter()
                .filter_map(|p| match p.verdict {
                    PairVerdict::DistanceAtLeast(d) => Some(d),
                    _ => None,
                })
                .collect();
            let scev_disjoint = evo_pairs
                .iter()
                .filter(|p| p.via_scev && p.verdict == PairVerdict::Disjoint)
                .count();
            if !distances.is_empty() || scev_disjoint > 0 {
                let ds: Vec<String> = distances.iter().map(u32::to_string).collect();
                diags.push(format!(
                    "{{\"code\":\"SV001\",\"distances\":[{}],\"scev_disjoint\":{scev_disjoint},\
                     \"closed_forms\":{}}}",
                    ds.join(","),
                    evo.closed_form_count()
                ));
            }
            let slices = extract_slices(&program, f, &fa.cfg, &fa.forest, c.loop_idx, &evo);
            if !slices.slices.is_empty() || slices.rejected > 0 {
                let scalars: Vec<String> = slices
                    .slices
                    .iter()
                    .map(|s| format!("\"{}\"", esc(&s.scalar.to_string())))
                    .collect();
                let cost: u32 = slices.slices.iter().map(|s| s.cert.cost).sum();
                diags.push(format!(
                    "{{\"code\":\"SL001\",\"slices\":{},\"rejected\":{},\"cost\":{cost},\
                     \"scalars\":[{}]}}",
                    slices.slices.len(),
                    slices.rejected,
                    scalars.join(",")
                ));
            }
            // TR001/TR002: what the loop-rescue pass did to this loop,
            // correlated by function + original header-block pc range
            let hb = &fa.cfg.blocks[lp.header.0 as usize];
            let in_header = |pc: u32| pc >= hb.start && pc < hb.end;
            for r in rescue
                .rescued
                .iter()
                .filter(|r| r.func == c.func && in_header(r.orig_header_pc))
            {
                diags.push(format!(
                    "{{\"code\":\"TR001\",\"transform\":\"{}\",\"target\":\"{}\",\
                     \"removed\":\"{}\"}}",
                    cfgir::REDUCTION,
                    esc(&r.proof.target()),
                    esc(&r.removed)
                ));
            }
            for r in rescue
                .rejected
                .iter()
                .filter(|r| r.func == c.func && in_header(r.orig_header_pc))
            {
                let witness = r.witness.as_ref().map_or(String::new(), |w| {
                    format!(",\"witness\":\"{}\"", esc(&w.to_string()))
                });
                diags.push(format!(
                    "{{\"code\":\"TR002\",\"transform\":\"{}\",\"reason\":\"{}\"{witness}}}",
                    r.transform,
                    esc(&r.reason)
                ));
            }
            let mut tier_field = String::new();
            if let Some(t) = &tiers {
                for d in t.diagnostics.iter().filter(|d| d.loop_id == c.id) {
                    let witness: Vec<String> = d
                        .witness
                        .iter()
                        .map(|w| format!("\"{}\"", esc(w)))
                        .collect();
                    diags.push(format!(
                        "{{\"code\":\"{}\",\"message\":\"{}\",\"witness\":[{}]}}",
                        d.code,
                        esc(&d.message),
                        witness.join(",")
                    ));
                }
                if let Some(tier) = t.tier_of(c.id) {
                    tier_field = format!(",\"tier\":\"{}\"", tier.name());
                }
            }
            loops.push(format!(
                "{{\"id\":{},\"func\":\"{}\",\"depth\":{},\"verdict\":\"{}\"{}{},\"diags\":[{}]}}",
                c.id.0,
                fname(c.func),
                c.depth,
                verdict,
                if reason.is_empty() {
                    String::new()
                } else {
                    format!(",\"reason\":\"{}\"", esc(&reason))
                },
                tier_field,
                diags.join(",")
            ));
        }
        // PT002: allocation sites reachable from a static variable —
        // opaque calls may touch them, so the escape analysis cannot
        // localise their stores
        let escapes: Vec<String> = pt
            .sites()
            .iter()
            .filter(|s| pt.escapes_via_static(s.id))
            .map(|s| {
                format!(
                    "{{\"code\":\"PT002\",\"site\":\"{}\",\"func\":\"{}\",\"pc\":{}}}",
                    s.id,
                    fname(s.pc.func),
                    s.pc.idx
                )
            })
            .collect();
        for r in &cands.rejected {
            loops.push(format!(
                "{{\"func\":\"{}\",\"loop\":{},\"verdict\":\"rejected\",\"reason\":\"{}\"}}",
                fname(r.func),
                r.loop_idx,
                esc(&r.reason)
            ));
        }
        let demoted = cands.demoted_count();
        total_demoted += demoted;
        total_rescued += rescue.rescued.len();

        let (tier_epochs, tier_terminal, tier_diags) = tiers.as_ref().map_or((0, false, 0), |t| {
            (t.epochs, t.all_terminal(), t.diagnostics.len())
        });
        rows.push(format!(
            "{{\"name\":\"{}\",\"verify\":{},\"kinds\":{},\"post_annotation_kinds\":{},\
             \"loops\":{},\"candidates\":{},\"rejected\":{},\"demoted\":{},\
             \"rescued\":{},\"rescue_rejected\":{},\
             \"tier_epochs\":{},\"tier_terminal\":{},\"tier_diags\":{},\
             \"loop_detail\":[{}],\"escape_diags\":[{}]}}",
            esc(b.name),
            verify,
            kinds,
            post,
            cands.total_loops(),
            cands.candidates.len(),
            cands.rejected.len(),
            demoted,
            rescue.rescued.len(),
            rescue.rejected.len(),
            tier_epochs,
            tier_terminal,
            tier_diags,
            loops.join(","),
            escapes.join(",")
        ));
    }

    println!(
        "{{\"size\":\"{:?}\",\"ok\":{},\"total_demoted\":{},\"total_rescued\":{},\
         \"benchmarks\":[{}]}}",
        size,
        all_ok,
        total_demoted,
        total_rescued,
        rows.join(",")
    );
    if !all_ok {
        std::process::exit(1);
    }
}
