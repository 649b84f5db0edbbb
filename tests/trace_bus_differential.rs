//! Differential test: the trace bus must be an invisible transport.
//!
//! For every benchsuite program, profiling through the bus — a batched
//! recording replayed into the tracer and a second sink — produces a
//! `Profile` bit-identical to feeding the `TestTracer` callbacks
//! directly from the interpreter, and the pipeline's derived
//! sequential baseline equals a real run of the un-annotated program.
//! Streaming the same run through the bus (`TraceBus::run`, what the
//! pipeline's profiling pass does) delivers exactly the batches a
//! recording replays, on the calling thread or, once the run proves
//! long, on a helper thread.

use benchsuite::DataSize;
use jrpm::annotate::{annotate, AnnotateOptions};
use test_tracer::{TestTracer, TracerConfig};
use tvm::bus::{BusReport, TraceBus};
use tvm::handoff::HANDOFF_AFTER;
use tvm::record::{Recording, RecordingSink};
use tvm::trace::CountingSink;
use tvm::{
    ElemKind, Interp, NoHook, NullSink, Program, ProgramBuilder, RunResult, DEFAULT_BATCH_CAPACITY,
};

fn tracer(cands: &cfgir::ProgramCandidates) -> TestTracer {
    TestTracer::with_masks(TracerConfig::default(), cands.tracked_masks())
}

fn record(program: &Program) -> (RunResult, Recording) {
    let mut sink = RecordingSink::new();
    let run = Interp::run(program, &mut sink).expect("record");
    (run, sink.into_recording())
}

#[test]
fn bus_replay_matches_direct_profiling_on_the_whole_suite() {
    for b in benchsuite::all() {
        let program = (b.build)(DataSize::Small);
        let cands = cfgir::extract_candidates(&program);
        let ann = annotate(&program, &cands, &AnnotateOptions::profiling()).expect("annotate");

        let mut direct = tracer(&cands);
        let run = Interp::run(&ann, &mut direct).expect("direct run");
        let direct = direct.into_profile();

        let (rec_run, recording) = record(&ann);
        assert_eq!(
            run.cycles, rec_run.cycles,
            "{}: recording changed the timing",
            b.name
        );
        let events = recording.len() as u64;

        // batched replay fanned out to the profiler plus a second sink
        let mut serial = tracer(&cands);
        let mut counter = CountingSink::default();
        let report = TraceBus::new()
            .sink("profile", &mut serial)
            .sink("count", &mut counter)
            .replay(&recording);
        assert_eq!(
            serial.into_profile(),
            direct,
            "{}: serial bus replay diverged",
            b.name
        );
        for sink in &report.sinks {
            assert_eq!(
                sink.events, events,
                "{}: {} lost events",
                b.name, sink.label
            );
        }

        // the derived sequential baseline is exact: annotated cycles
        // minus tallied annotation overhead equals a real plain run
        let plain = Interp::run(&program, &mut NullSink).expect("plain run");
        assert_eq!(
            run.cycles - run.annotation_cycles.total(),
            plain.cycles,
            "{}: derived sequential baseline broke",
            b.name
        );
    }
}

/// Every count of a report: all of it but the sinks' drain times.
fn counts(r: &BusReport) -> impl PartialEq + std::fmt::Debug {
    let sinks: Vec<_> = r
        .sinks
        .iter()
        .map(|s| (s.label.clone(), s.events, s.batches, s.by_kind))
        .collect();
    (r.batches, r.events, r.batch_capacity, r.by_kind, sinks)
}

#[test]
fn streamed_run_matches_record_then_replay_on_the_whole_suite() {
    for b in benchsuite::all() {
        let program = (b.build)(DataSize::Small);
        let cands = cfgir::extract_candidates(&program);
        let ann = annotate(&program, &cands, &AnnotateOptions::profiling()).expect("annotate");

        let (rec_run, recording) = record(&ann);
        let mut replayed = tracer(&cands);
        let mut replayed_count = CountingSink::default();
        let replay = TraceBus::new()
            .sink("profile", &mut replayed)
            .sink("count", &mut replayed_count)
            .replay(&recording);

        let mut streamed = tracer(&cands);
        let mut streamed_count = CountingSink::default();
        let (state, stream) = TraceBus::new()
            .sink("profile", &mut streamed)
            .sink("count", &mut streamed_count)
            .run(&ann, &mut NoHook)
            .expect("streamed run");

        assert_eq!(state.result, rec_run, "{}: run outcome", b.name);
        assert_eq!(
            streamed.into_profile(),
            replayed.into_profile(),
            "{}: profile",
            b.name
        );
        assert_eq!(streamed_count, replayed_count, "{}: sink stream", b.name);
        assert_eq!(counts(&stream), counts(&replay), "{}: bus report", b.name);
    }
}

/// A parallel loop nest with `outer × 64` heap stores: long enough to
/// cross the bus's hand-off point.
fn long_program(outer: i64) -> Program {
    let mut b = ProgramBuilder::new();
    let main = b.function("main", 0, false, |f| {
        let (a, j, i) = (f.local(), f.local(), f.local());
        f.ci(256).newarray(ElemKind::Int).st(a);
        f.for_in(j, 0.into(), outer.into(), |f| {
            f.for_in(i, 0.into(), 64.into(), |f| {
                f.arr_set(
                    a,
                    |f| {
                        f.ld(i).ld(j).iadd().ci(255).iand();
                    },
                    |f| {
                        f.ld(i).ld(j).imul();
                    },
                );
            });
        });
        f.ret_void();
    });
    b.finish(main).unwrap()
}

#[test]
fn a_long_streamed_run_matches_record_then_replay() {
    let program = long_program(2000);
    let cands = cfgir::extract_candidates(&program);
    let ann = annotate(&program, &cands, &AnnotateOptions::profiling()).expect("annotate");

    let (rec_run, recording) = record(&ann);
    assert!(
        recording.len() > 4 * HANDOFF_AFTER * DEFAULT_BATCH_CAPACITY,
        "{} events do not cross the hand-off point",
        recording.len()
    );
    let mut replayed = tracer(&cands);
    let mut replayed_count = CountingSink::default();
    let replay = TraceBus::new()
        .sink("profile", &mut replayed)
        .sink("count", &mut replayed_count)
        .replay(&recording);

    let mut streamed = tracer(&cands);
    let mut streamed_count = CountingSink::default();
    let (state, stream) = TraceBus::new()
        .sink("profile", &mut streamed)
        .sink("count", &mut streamed_count)
        .run(&ann, &mut NoHook)
        .expect("streamed run");

    assert_eq!(state.result, rec_run, "run outcome");
    let profile = streamed.into_profile();
    assert!(profile.events > 0, "the tracer saw the annotated loops");
    assert_eq!(profile, replayed.into_profile(), "profile");
    assert_eq!(streamed_count, replayed_count, "sink stream");
    assert_eq!(counts(&stream), counts(&replay), "bus report");
    let drained: u64 = stream.sinks.iter().map(|s| s.drain_nanos).sum();
    assert!(
        stream.exposed_nanos <= drained,
        "exposed time exceeds drain time"
    );
}
