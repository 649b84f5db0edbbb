//! Golden-fixture test for the compact `Recording` serialization.
//!
//! The committed fixture pins the on-disk format: if either the event
//! stream of the benchmark or the binary encoding changes, this test
//! fails and the fixture must be regenerated deliberately (run the
//! ignored `regenerate_fixture` test) and the format version bumped
//! when the layout changed.

use benchsuite::DataSize;
use jrpm::annotate::{annotate, AnnotateOptions};
use tvm::record::{Recording, RecordingSink};
use tvm::Interp;

const FIXTURE_BENCH: &str = "FourierTest";
const FIXTURE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/fouriertest_small.trace"
);

/// Records the fixture benchmark's annotated profiling run.
fn record_fixture_program() -> Recording {
    let bench = benchsuite::by_name(FIXTURE_BENCH).expect("fixture benchmark exists");
    let program = (bench.build)(DataSize::Small);
    let cands = cfgir::extract_candidates(&program);
    let ann = annotate(&program, &cands, &AnnotateOptions::profiling()).expect("annotate");
    let mut sink = RecordingSink::default();
    Interp::run(&ann, &mut sink).expect("profiling run");
    sink.into_recording()
}

#[test]
fn golden_fixture_matches_a_fresh_recording() {
    let golden = Recording::load(FIXTURE_PATH).expect("fixture loads");
    let fresh = record_fixture_program();
    assert_eq!(
        golden.len(),
        fresh.len(),
        "event count drifted from the committed fixture"
    );
    assert_eq!(
        golden, fresh,
        "event stream drifted from the committed fixture"
    );
    // byte-exactness of the encoder, not just value round-tripping
    let on_disk = std::fs::read(FIXTURE_PATH).expect("fixture bytes");
    assert_eq!(
        on_disk,
        fresh.to_bytes(),
        "serialized bytes drifted from the committed fixture"
    );
}

#[test]
fn fixture_round_trips_through_save_and_load() {
    let fresh = record_fixture_program();
    let dir = std::env::temp_dir().join(format!("tvm-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("roundtrip.trace");
    fresh.save(&path).expect("save");
    let loaded = Recording::load(&path).expect("load");
    assert_eq!(fresh, loaded);
    std::fs::remove_dir_all(&dir).ok();
}

/// Rewrites the committed fixture; run manually after an intentional
/// format or benchmark change:
/// `cargo test -p jrpm --test golden_recording -- --ignored`
#[test]
#[ignore = "regenerates the committed fixture"]
fn regenerate_fixture() {
    for b in benchsuite::all() {
        let program = (b.build)(DataSize::Small);
        let cands = cfgir::extract_candidates(&program);
        let ann = annotate(&program, &cands, &AnnotateOptions::profiling()).expect("annotate");
        let mut sink = RecordingSink::default();
        Interp::run(&ann, &mut sink).expect("profiling run");
        let rec = sink.into_recording();
        println!(
            "{:<16} {:>8} events {:>9} bytes",
            b.name,
            rec.len(),
            rec.to_bytes().len()
        );
    }
    let fresh = record_fixture_program();
    fresh.save(FIXTURE_PATH).expect("write fixture");
    println!(
        "wrote {FIXTURE_PATH}: {} events, {} bytes",
        fresh.len(),
        fresh.to_bytes().len()
    );
}
