//! Criterion micro-benchmarks of the analysis layer: event throughput
//! of the hardware tracer model against the software oracle, TVMR
//! decode throughput with and without the tracer, and interpreter
//! throughput with and without annotations, through each front-end
//! the pipeline drives it with (direct sink, batching bus, counting
//! hook).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use test_tracer::{SoftwareTracer, TestTracer, TracerConfig};
use tvm::bus::DEFAULT_BATCH_CAPACITY;
use tvm::isa::{FuncId, LoopId, Pc};
use tvm::record::RecordingView;
use tvm::trace::TraceSink;
use tvm::{CostModel, HotLocations, Interp, NoHook, NullSink, TraceBus};

/// A synthetic event stream: a loop of `iters` iterations, each with
/// `per_iter` heap accesses over a 256-line working set plus one
/// local-variable update.
fn drive(sink: &mut dyn TraceSink, iters: u64, per_iter: u64) {
    let pc = Pc {
        func: FuncId(0),
        idx: 0,
    };
    let l = LoopId(0);
    let mut now = 0u64;
    sink.loop_enter(l, 2, 1, now);
    for i in 0..iters {
        for k in 0..per_iter {
            now += 3;
            let addr = 0x4000 + (((i * 7 + k * 13) % 1024) * 8) as u32;
            if k % 3 == 0 {
                sink.heap_store(addr, now, pc);
            } else {
                sink.heap_load(addr, now, pc);
            }
        }
        now += 2;
        sink.local_store(0, 1, now, pc);
        sink.local_load(0, 1, now + 1, pc);
        now += 2;
        sink.loop_iter(l, now);
    }
    sink.loop_exit(l, now + 1);
}

fn bench_event_throughput(c: &mut Criterion) {
    let iters = 2_000u64;
    let per_iter = 16u64;
    let events = iters * (per_iter + 3);
    let mut g = c.benchmark_group("event_throughput");
    g.throughput(Throughput::Elements(events));
    g.bench_function("test_tracer_hw_model", |b| {
        b.iter(|| {
            let mut t = TestTracer::new(TracerConfig::default());
            drive(&mut t, iters, per_iter);
            black_box(t.into_profile().events)
        })
    });
    g.bench_function("software_oracle", |b| {
        b.iter(|| {
            let mut t = SoftwareTracer::new();
            drive(&mut t, iters, per_iter);
            black_box(t.into_profile().events)
        })
    });
    g.finish();
}

/// Huffman's real profiling stream at Small size, with the candidate
/// set its tracer masks come from.
fn huffman_stream() -> (cfgir::ProgramCandidates, tvm::record::Recording) {
    let bench = benchsuite::by_name("Huffman").unwrap();
    let program = (bench.build)(benchsuite::DataSize::Small);
    let cands = cfgir::extract_candidates(&program);
    let annotated = jrpm::annotate(&program, &cands, &jrpm::AnnotateOptions::profiling()).unwrap();
    let mut rec = tvm::record::RecordingSink::new();
    Interp::run(&annotated, &mut rec).unwrap();
    (cands, rec.into_recording())
}

fn bench_replay_real_stream(c: &mut Criterion) {
    // replay Huffman's real event stream straight into the tracer,
    // isolating analysis cost from interpretation cost
    let (cands, recording) = huffman_stream();
    let mut g = c.benchmark_group("replay_huffman_stream");
    g.throughput(Throughput::Elements(recording.len() as u64));
    g.bench_function("into_test_tracer", |b| {
        b.iter(|| {
            let mut t = TestTracer::new(TracerConfig::default());
            t.set_local_masks(cands.tracked_masks());
            recording.replay(&mut t);
            black_box(t.into_profile().events)
        })
    });
    g.finish();
}

fn bench_recording_decode(c: &mut Criterion) {
    // decode the same stream from its TVMR bytes: batch decoding alone,
    // then decoding plus the tracer (the server's replay path)
    let (cands, recording) = huffman_stream();
    let bytes = recording.to_bytes();
    let view = RecordingView::parse(&bytes).unwrap();
    let mut g = c.benchmark_group("recording_decode");
    g.throughput(Throughput::Elements(view.count()));
    g.bench_function("stream_batches", |b| {
        b.iter(|| {
            let n = view.stream_batches(DEFAULT_BATCH_CAPACITY, |batch| {
                black_box(batch);
            });
            black_box(n.unwrap())
        })
    });
    g.bench_function("into_test_tracer", |b| {
        b.iter(|| {
            let mut t = TestTracer::new(TracerConfig::default());
            t.set_local_masks(cands.tracked_masks());
            let n = view.stream_batches(DEFAULT_BATCH_CAPACITY, |batch| t.consume_batch(batch));
            black_box(n.unwrap());
            black_box(t.into_profile().events)
        })
    });
    g.finish();
}

fn bench_interpreter(c: &mut Criterion) {
    let bench = benchsuite::by_name("Huffman").unwrap();
    let program = (bench.build)(benchsuite::DataSize::Small);
    let cands = cfgir::extract_candidates(&program);
    let annotated = jrpm::annotate(&program, &cands, &jrpm::AnnotateOptions::profiling()).unwrap();

    let mut g = c.benchmark_group("interpreter");
    g.bench_function("plain_sequential", |b| {
        b.iter(|| {
            let r = Interp::run(black_box(&program), &mut NullSink).unwrap();
            black_box(r.cycles)
        })
    });
    g.bench_function("annotated_with_tracer", |b| {
        b.iter(|| {
            let mut tracer = TestTracer::new(TracerConfig::default());
            tracer.set_local_masks(cands.tracked_masks());
            let r = Interp::run(black_box(&annotated), &mut tracer).unwrap();
            black_box(r.cycles)
        })
    });
    // the profiling pass: batches streamed over the bus into the tracer
    g.bench_function("annotated_bus_to_tracer", |b| {
        b.iter(|| {
            let mut tracer = TestTracer::with_masks(TracerConfig::default(), cands.tracked_masks());
            let (state, _) = TraceBus::new()
                .sink("test-tracer", &mut tracer)
                .run(black_box(&annotated), &mut NoHook)
                .unwrap();
            black_box(state.result.cycles)
        })
    });
    // the counting tier: every candidate loop header is a registered
    // location, as in the `tier` gate's overhead measurement
    g.bench_function("plain_counting_hook", |b| {
        b.iter(|| {
            let mut hot = HotLocations::for_program(&program);
            for c in &cands.candidates {
                let fa = &cands.functions[c.func.0 as usize];
                let lp = &fa.forest.loops[c.loop_idx];
                hot.register(c.func.0, fa.cfg.blocks[lp.header.0 as usize].start);
            }
            let (cost, fuel) = (CostModel::default(), Interp::DEFAULT_FUEL);
            let state = Interp::run_to_state_hooked(
                black_box(&program),
                &mut NullSink,
                cost,
                fuel,
                &mut hot,
            )
            .unwrap();
            black_box((state.result.cycles, hot.counts().len()))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_event_throughput,
    bench_replay_real_stream,
    bench_recording_decode,
    bench_interpreter
);
criterion_main!(benches);
