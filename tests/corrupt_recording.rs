//! Byte-level corruption fuzzing of the recording wire format against
//! the committed FourierTest fixture: every truncation, every
//! single-byte flip and a few thousand seeded random mutations must
//! parse or be rejected with a typed error — never panic.

use fuzzgen::corrupt::{corruption_sweep, mmap_sweep, reference_decode};
use tvm::record::{MappedRecording, Recording, RecordingError};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/fouriertest_small.trace"
);

#[test]
fn fixture_corruption_sweep_never_panics() {
    let bytes = std::fs::read(FIXTURE).expect("committed fixture");
    // the pristine fixture must of course still parse, to the events
    // the reference decoder reads
    let pristine = Recording::from_bytes(&bytes).expect("pristine fixture parses");
    assert_eq!(
        reference_decode(&bytes).ok(),
        Some(pristine.iter().collect())
    );
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let sweep = corruption_sweep(&bytes, 0xDEAD_BEEF, 2_000);
    std::panic::set_hook(prev_hook);
    let stats = sweep.unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(
        stats.attempts,
        bytes.len() as u64 * 4 + 2_000,
        "truncations + 3 flip patterns + random rounds"
    );
    assert!(stats.rejected > 0);
}

/// The zero-copy mmap load path parses the same wire format from a
/// file the kernel hands over at face value, so it gets its own sweep:
/// header-boundary truncations, header bit flips, and random stream
/// mutations — never a panic, and always the same verdict as the
/// in-memory parser.
#[test]
fn fixture_mmap_sweep_never_panics_and_agrees_with_from_bytes() {
    let bytes = std::fs::read(FIXTURE).expect("committed fixture");
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let sweep = mmap_sweep(&bytes, 0xDEAD_BEEF, 500);
    std::panic::set_hook(prev_hook);
    let stats = sweep.unwrap_or_else(|e| panic!("{e}"));
    assert!(stats.parsed > 0, "benign mutations must still parse");
    assert!(stats.rejected > 0, "header corruption must be rejected");
}

/// Every truncation inside the header (magic + version + count varint)
/// of a real on-disk recording must come back as a typed error from
/// the mmap path, with the boundary cases naming the right variant.
#[test]
fn mapped_header_boundary_truncations_are_typed_errors() {
    let bytes = std::fs::read(FIXTURE).expect("committed fixture");
    let dir = std::env::temp_dir().join(format!("corrupt-recording-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("truncated.tvmr");
    for cut in 0..16.min(bytes.len()) {
        std::fs::write(&path, &bytes[..cut]).expect("write truncation");
        let err = MappedRecording::open(&path)
            .and_then(|m| m.view().and_then(|v| v.to_recording()))
            .expect_err("a header truncation must not parse");
        match (cut, &err) {
            // inside the magic: too short to even say "wrong magic"
            (0..=3, RecordingError::Truncated) => {}
            // magic complete, version or count cut off
            (4..=6, RecordingError::Truncated) => {}
            // count varint present but the declared events are missing
            (_, RecordingError::Truncated | RecordingError::CountTooLarge { .. }) => {}
            (_, other) => panic!("truncate to {cut}: unexpected error {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_and_garbage_inputs_are_typed_errors() {
    assert!(Recording::from_bytes(&[]).is_err());
    assert!(Recording::from_bytes(b"not a recording").is_err());
    // huge declared event count must not preallocate unboundedly
    let mut b = b"TVMR\x01\x00".to_vec();
    b.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F]);
    assert!(Recording::from_bytes(&b).is_err());
}
