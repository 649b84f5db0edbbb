//! Criterion benchmarks of the Jrpm pipeline stages on representative
//! Table 6 workloads.

use benchsuite::DataSize;
use criterion::{criterion_group, criterion_main, Criterion};
use hydra_sim::{simulate_all, TlsConfig, TlsTraceCollector};
use jrpm::pipeline::{run_pipeline, PipelineConfig};
use std::hint::black_box;
use test_tracer::{select, EstimatorParams, TestTracer, TracerConfig};
use tvm::Interp;

fn bench_stages(c: &mut Criterion) {
    let bench = benchsuite::by_name("Huffman").unwrap();
    let program = (bench.build)(DataSize::Small);
    let cands = cfgir::extract_candidates(&program);
    let annotated = jrpm::annotate(&program, &cands, &jrpm::AnnotateOptions::profiling()).unwrap();

    let mut g = c.benchmark_group("stages");
    g.bench_function("extract_candidates", |b| {
        b.iter(|| black_box(cfgir::extract_candidates(black_box(&program))).total_loops())
    });
    g.bench_function("annotate", |b| {
        b.iter(|| {
            black_box(jrpm::annotate(
                black_box(&program),
                &cands,
                &jrpm::AnnotateOptions::profiling(),
            ))
            .unwrap()
            .instruction_count()
        })
    });
    g.bench_function("profile_run", |b| {
        b.iter(|| {
            let mut tracer = TestTracer::new(TracerConfig::default());
            tracer.set_local_masks(cands.tracked_masks());
            let r = Interp::run(&annotated, &mut tracer).unwrap();
            black_box((r.cycles, tracer.into_profile().events))
        })
    });
    // selection on a pre-computed profile
    let mut tracer = TestTracer::new(TracerConfig::default());
    tracer.set_local_masks(cands.tracked_masks());
    let prof_run = Interp::run(&annotated, &mut tracer).unwrap();
    let profile = tracer.into_profile();
    g.bench_function("select_eq2", |b| {
        b.iter(|| {
            black_box(select(
                black_box(&profile),
                &EstimatorParams::default(),
                prof_run.cycles,
            ))
            .chosen
            .len()
        })
    });
    // TLS simulation on collected traces
    let chosen: Vec<_> = select(&profile, &EstimatorParams::default(), prof_run.cycles)
        .chosen
        .iter()
        .map(|x| x.loop_id)
        .collect();
    let spec = jrpm::annotate(
        &program,
        &cands,
        &jrpm::AnnotateOptions::only(chosen.clone()),
    )
    .unwrap();
    let mut collector = TlsTraceCollector::new(chosen);
    collector.set_local_masks(cands.tracked_masks());
    Interp::run(&spec, &mut collector).unwrap();
    g.bench_function("hydra_simulate", |b| {
        b.iter(|| black_box(simulate_all(&collector.entries, &TlsConfig::default())).tls_cycles)
    });
    g.finish();
}

/// The static layer over the 26 Small programs, one pass each:
/// extraction, rescue from that extraction, and the scev distance
/// floors selection reads.
fn bench_static_analysis(c: &mut Criterion) {
    let programs: Vec<_> = benchsuite::all()
        .iter()
        .map(|b| (b.build)(DataSize::Small))
        .collect();
    let cands: Vec<_> = programs.iter().map(cfgir::extract_candidates).collect();
    let mut g = c.benchmark_group("static_analysis");
    g.bench_function("extract", |b| {
        b.iter(|| {
            programs
                .iter()
                .map(|p| black_box(cfgir::extract_candidates(black_box(p))).total_loops())
                .sum::<usize>()
        })
    });
    g.bench_function("rescue", |b| {
        b.iter(|| {
            programs
                .iter()
                .zip(&cands)
                .map(|(p, pc)| black_box(cfgir::rescue_extracted(p, pc)).0.rescued.len())
                .sum::<usize>()
        })
    });
    g.bench_function("distance_floors", |b| {
        b.iter(|| {
            programs
                .iter()
                .zip(&cands)
                .map(|(p, pc)| black_box(cfgir::distance_floors(p, pc)).len())
                .sum::<usize>()
        })
    });
    g.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline_end_to_end");
    g.sample_size(10);
    for name in ["Huffman", "LuFactor", "decJpeg"] {
        let bench = benchsuite::by_name(name).unwrap();
        let program = (bench.build)(DataSize::Small);
        g.bench_function(name, |b| {
            b.iter(|| {
                black_box(run_pipeline(&program, &PipelineConfig::default()).unwrap())
                    .selection
                    .chosen
                    .len()
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_stages,
    bench_static_analysis,
    bench_end_to_end
);
criterion_main!(benches);
