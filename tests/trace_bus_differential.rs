//! Differential test: the trace bus must be an invisible transport.
//!
//! For every benchsuite program, profiling through the bus — a batched
//! recording replayed into the tracer and a second sink — produces a
//! `Profile` bit-identical to feeding the `TestTracer` callbacks
//! directly from the interpreter, and the pipeline's derived
//! sequential baseline equals a real run of the un-annotated program.

use benchsuite::DataSize;
use jrpm::annotate::{annotate, AnnotateOptions};
use test_tracer::{TestTracer, TracerConfig};
use tvm::bus::{record_batches, TraceBus, DEFAULT_BATCH_CAPACITY};
use tvm::trace::CountingSink;
use tvm::{Interp, NullSink};

fn tracer(cands: &cfgir::ProgramCandidates) -> TestTracer {
    TestTracer::with_masks(TracerConfig::default(), cands.tracked_masks())
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

        let (rec_run, batches) = record_batches(&ann, DEFAULT_BATCH_CAPACITY).expect("record");
        assert_eq!(
            run.cycles, rec_run.cycles,
            "{}: recording changed the timing",
            b.name
        );
        let events: u64 = batches.iter().map(|batch| batch.len() as u64).sum();

        // batched replay fanned out to the profiler plus a second sink
        let mut serial = tracer(&cands);
        let mut counter = CountingSink::default();
        let report = TraceBus::new()
            .sink("profile", &mut serial)
            .sink("count", &mut counter)
            .replay(&batches);
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
