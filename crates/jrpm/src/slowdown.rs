//! Profiling-overhead measurement (paper Figure 6) and the
//! software-only comparison (§5).

use crate::annotate::{annotate, AnnotateOptions};
use cfgir::ProgramCandidates;
use test_tracer::{SoftwareTracer, TestTracer, TracerConfig};
use tvm::bus::TraceBus;
use tvm::interp::{AnnotationCycles, FinalState};
use tvm::program::Program;
use tvm::{Interp, NoHook, VmError};

/// Slowdown of one annotation mode, with the component breakdown of
/// Figure 6's stacked bars.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeSlowdown {
    /// Annotated-run cycles / plain-run cycles.
    pub slowdown: f64,
    /// Total cycles of the annotated run.
    pub cycles: u64,
    /// Cycle breakdown of the annotation overhead.
    pub breakdown: AnnotationCycles,
}

/// The Figure 6 measurement for one program: base vs optimized
/// annotations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowdownReport {
    /// Plain sequential cycles.
    pub seq_cycles: u64,
    /// Base (unoptimized) annotations.
    pub base: ModeSlowdown,
    /// Optimized annotations.
    pub optimized: ModeSlowdown,
}

/// Measures profiling slowdown for both annotation modes.
///
/// The plain baseline is derived, not executed: annotation passes
/// only insert annotation instructions, whose cycles the interpreter
/// tallies separately, so `annotated − annotation = plain` exactly
/// and two runs (base + optimized) suffice.
///
/// # Errors
///
/// Any [`VmError`] raised by the two runs.
pub fn profile_slowdown(
    program: &Program,
    cands: &ProgramCandidates,
) -> Result<SlowdownReport, VmError> {
    let run_mode = |opts: &AnnotateOptions| -> Result<(u64, AnnotationCycles), VmError> {
        let ann = annotate(program, cands, opts)?;
        let mut tracer = TestTracer::new(TracerConfig::default());
        tracer.set_local_masks(cands.tracked_masks());
        let r = Interp::run(&ann, &mut tracer)?;
        Ok((r.cycles, r.annotation_cycles))
    };

    let (base_cycles, base_ann) = run_mode(&AnnotateOptions::base())?;
    let (opt_cycles, opt_ann) = run_mode(&AnnotateOptions::profiling())?;
    let seq_cycles = base_cycles - base_ann.total();
    debug_assert_eq!(seq_cycles, opt_cycles - opt_ann.total());
    let slowdown = |cycles: u64| {
        if seq_cycles == 0 {
            1.0
        } else {
            cycles as f64 / seq_cycles as f64
        }
    };

    Ok(SlowdownReport {
        seq_cycles,
        base: ModeSlowdown {
            slowdown: slowdown(base_cycles),
            cycles: base_cycles,
            breakdown: base_ann,
        },
        optimized: ModeSlowdown {
            slowdown: slowdown(opt_cycles),
            cycles: opt_cycles,
            breakdown: opt_ann,
        },
    })
}

/// Hardware-vs-software profiling comparison (paper §5): the modelled
/// slowdown of the software-only implementation, plus an agreement
/// check between the hardware model and the exact software oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftwareComparison {
    /// Slowdown of hardware-assisted profiling (optimized
    /// annotations) — the paper's 3–25 %.
    pub hw_slowdown: f64,
    /// Modelled slowdown of software-only profiling — the paper's
    /// >100×.
    pub sw_slowdown: f64,
    /// Loops on which hardware and oracle found identical
    /// critical-arc counts in both bins.
    pub loops_agreeing: usize,
    /// Loops traced at all.
    pub loops_total: usize,
}

/// Runs the same annotated program through the hardware model and the
/// software oracle and compares costs and findings.
///
/// One interpretation serves both consumers: the annotated program
/// runs once on a [`TraceBus`] with the hardware model and the oracle
/// as its two sinks (both observe exactly the stream a dedicated run
/// would have fed them), and the plain baseline is derived from the
/// separately tallied annotation cycles.
///
/// # Errors
///
/// Any [`VmError`] raised by the run.
pub fn software_comparison(
    program: &Program,
    cands: &ProgramCandidates,
) -> Result<SoftwareComparison, VmError> {
    let ann = annotate(program, cands, &AnnotateOptions::profiling())?;

    let mut hw = TestTracer::with_masks(TracerConfig::default(), cands.tracked_masks());
    let mut sw = SoftwareTracer::with_masks(cands.tracked_masks());
    let (FinalState { result: run, .. }, _) = TraceBus::new()
        .sink("test-tracer", &mut hw)
        .sink("software", &mut sw)
        .run(&ann, &mut NoHook)?;
    let seq_cycles = run.cycles - run.annotation_cycles.total();
    let hw_profile = hw.into_profile();
    let sw_cost = sw.modeled_cost();
    let sw_profile = sw.into_profile();

    let mut agree = 0;
    let mut total = 0;
    for (l, hs) in &hw_profile.stl {
        if hs.threads == 0 {
            continue;
        }
        total += 1;
        if let Some(ss) = sw_profile.stl.get(l) {
            if ss.arcs_t1 == hs.arcs_t1 && ss.arcs_lt == hs.arcs_lt {
                agree += 1;
            }
        }
    }

    Ok(SoftwareComparison {
        hw_slowdown: if seq_cycles == 0 {
            1.0
        } else {
            run.cycles as f64 / seq_cycles as f64
        },
        sw_slowdown: if seq_cycles == 0 {
            1.0
        } else {
            (run.cycles + sw_cost) as f64 / seq_cycles as f64
        },
        loops_agreeing: agree,
        loops_total: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfgir::extract_candidates;
    use tvm::{ElemKind, ProgramBuilder};

    fn memory_loop() -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, false, |f| {
            let (a, i, prev) = (f.local(), f.local(), f.local());
            f.ci(1024).newarray(ElemKind::Int).st(a);
            f.ci(0).st(prev);
            f.for_in(i, 0.into(), 1000.into(), |f| {
                f.arr_set(
                    a,
                    |f| {
                        f.ld(i).ci(1023).iand();
                    },
                    |f| {
                        f.ld(prev).ld(i).iadd();
                    },
                );
                f.arr_get(a, |f| {
                    f.ld(i).ci(1023).iand();
                })
                .st(prev);
            });
            f.ret_void();
        });
        b.finish(main).unwrap()
    }

    #[test]
    fn slowdown_is_small_and_optimized_is_smaller() {
        let p = memory_loop();
        let cands = extract_candidates(&p);
        let r = profile_slowdown(&p, &cands).unwrap();
        assert!(r.base.slowdown > 1.0);
        assert!(r.optimized.slowdown > 1.0);
        assert!(r.optimized.slowdown <= r.base.slowdown);
        // the paper's headline: minor slowdown (3-25%) for optimized
        assert!(
            r.optimized.slowdown < 1.30,
            "got {:.3}",
            r.optimized.slowdown
        );
    }

    #[test]
    fn software_profiling_is_orders_of_magnitude_slower() {
        let p = memory_loop();
        let cands = extract_candidates(&p);
        let c = software_comparison(&p, &cands).unwrap();
        assert!(c.hw_slowdown < 1.5, "hw {:.2}", c.hw_slowdown);
        assert!(c.sw_slowdown > 50.0, "sw {:.1}", c.sw_slowdown);
        assert!(c.sw_slowdown / c.hw_slowdown > 40.0);
        assert_eq!(c.loops_agreeing, c.loops_total);
    }
}
