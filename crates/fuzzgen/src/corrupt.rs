//! Byte-level corruption sweep for the recording wire format.
//!
//! [`Recording::from_bytes`] is a parser for untrusted input: whatever
//! the bytes are, it must return `Ok` or a typed
//! [`tvm::record::RecordingError`] — never panic, never allocate
//! proportionally to a length field it has not validated. This module
//! drives that contract with exhaustive truncations, exhaustive
//! single-byte bit flips, and seeded random multi-byte mutations.
//! [`mmap_sweep`] replays a focused subset through the file-backed
//! zero-copy path ([`MappedRecording`]).
//!
//! Every read path of the wire format shares one batch decoder, so the
//! sweeps check it against [`reference_decode`], an independent
//! event-at-a-time decoder kept here: on every mutation,
//! [`Recording::from_bytes`] and [`RecordingView::stream_batches`]
//! must decode the same events as the reference, or fail with the same
//! error.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::rng::Rng;
use tvm::isa::{FuncId, LoopId, Pc};
use tvm::record::{
    Event, MappedRecording, Recording, RecordingError, RecordingView, FORMAT_VERSION,
};

/// Outcome counters of a [`corruption_sweep`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CorruptStats {
    /// Mutations attempted.
    pub attempts: u64,
    /// Mutations that still parsed successfully.
    pub parsed: u64,
    /// Mutations rejected with a typed error.
    pub rejected: u64,
}

/// XOR patterns for the single-byte flip pass: all bits, the sign/high
/// bit (varint continuation), and the low bit (zigzag sign).
const FLIPS: [u8; 3] = [0xFF, 0x80, 0x01];

/// Runs the full corruption sweep over `bytes`.
///
/// Passes, in order: every truncation length `0..len`; every
/// single-byte XOR with each of three flip patterns; `random_rounds`
/// seeded mutations that flip up to 8 random bytes and then truncate or
/// duplicate-splice a random range.
///
/// # Errors
///
/// A description of the first mutation whose parse *panicked* (the one
/// outcome the contract forbids), or whose [`Recording::from_bytes`] or
/// [`RecordingView::stream_batches`] outcome differs from
/// [`reference_decode`]'s.
pub fn corruption_sweep(
    bytes: &[u8],
    seed: u64,
    random_rounds: u64,
) -> Result<CorruptStats, String> {
    let mut stats = CorruptStats::default();
    for cut in 0..bytes.len() {
        try_parse(
            &bytes[..cut],
            &format!("truncate to {cut} bytes"),
            &mut stats,
        )?;
    }
    for i in 0..bytes.len() {
        for flip in FLIPS {
            let mut m = bytes.to_vec();
            m[i] ^= flip;
            try_parse(&m, &format!("byte {i} ^= {flip:#04x}"), &mut stats)?;
        }
    }
    let mut r = Rng::new(seed);
    for round in 0..random_rounds {
        let mut m = bytes.to_vec();
        for _ in 0..=r.below(8) {
            if m.is_empty() {
                break;
            }
            let i = r.below(m.len() as u64) as usize;
            m[i] ^= r.next_u64() as u8;
        }
        if !m.is_empty() && r.chance(1, 2) {
            let a = r.below(m.len() as u64) as usize;
            let b = r.below(m.len() as u64) as usize;
            let (lo, hi) = (a.min(b), a.max(b));
            if r.chance(1, 2) {
                m.truncate(hi);
            } else {
                let splice: Vec<u8> = m[lo..hi].to_vec();
                m.extend_from_slice(&splice);
            }
        }
        try_parse(
            &m,
            &format!("random mutation round {round} (seed {seed})"),
            &mut stats,
        )?;
    }
    Ok(stats)
}

/// File-backed corruption sweep for the zero-copy load path.
///
/// [`MappedRecording::open`] + [`RecordingView`] parse the same wire
/// format as [`Recording::from_bytes`], but from an mmapped file the
/// kernel can hand over in any length — so header trust bugs surface
/// here first. Each mutation is written to a scratch file, mapped, and
/// streamed in batches; the mapped outcome and the in-memory
/// [`Recording::from_bytes`] must both match [`reference_decode`]: the
/// same events, or the same error.
///
/// The mutation set is deliberately smaller than [`corruption_sweep`]'s
/// (every round costs a file write + mmap): every header-boundary
/// truncation (magic, version, and the count varint live in the first
/// 16 bytes), every tail truncation over the last 8 bytes, all three
/// flip patterns over the header region, and `random_rounds` seeded
/// whole-stream mutations.
///
/// # Errors
///
/// A description of the first mutation whose parse panicked or
/// disagreed with [`reference_decode`].
pub fn mmap_sweep(bytes: &[u8], seed: u64, random_rounds: u64) -> Result<CorruptStats, String> {
    let path = std::env::temp_dir().join(format!(
        "fuzzgen-mmap-sweep-{}-{seed:x}.tvmr",
        std::process::id()
    ));
    let mut stats = CorruptStats::default();
    let run = |m: &[u8], what: &str, stats: &mut CorruptStats| -> Result<(), String> {
        let r = try_mapped(&path, m, what, stats);
        let _ = std::fs::remove_file(&path);
        r
    };
    let header = bytes.len().min(16);
    for cut in 0..=header {
        run(
            &bytes[..cut],
            &format!("header truncate to {cut} bytes"),
            &mut stats,
        )?;
    }
    for cut in bytes.len().saturating_sub(8)..bytes.len() {
        run(
            &bytes[..cut],
            &format!("tail truncate to {cut} bytes"),
            &mut stats,
        )?;
    }
    for i in 0..header {
        for flip in FLIPS {
            let mut m = bytes.to_vec();
            m[i] ^= flip;
            run(&m, &format!("header byte {i} ^= {flip:#04x}"), &mut stats)?;
        }
    }
    let mut r = Rng::new(seed);
    for round in 0..random_rounds {
        let mut m = bytes.to_vec();
        for _ in 0..=r.below(8) {
            if m.is_empty() {
                break;
            }
            let i = r.below(m.len() as u64) as usize;
            m[i] ^= r.next_u64() as u8;
        }
        run(
            &m,
            &format!("random mmap mutation round {round} (seed {seed})"),
            &mut stats,
        )?;
    }
    Ok(stats)
}

/// One mmap-path parse attempt: the mapped [`RecordingView::stream_batches`]
/// and the in-memory [`Recording::from_bytes`] must both agree with
/// [`reference_decode`].
fn try_mapped(
    path: &std::path::Path,
    bytes: &[u8],
    what: &str,
    stats: &mut CorruptStats,
) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("cannot write scratch file: {e}"))?;
    check(bytes, what, stats, "mmap stream_batches", || {
        MappedRecording::open(path).and_then(|m| stream_events(m.view()))
    })
}

fn try_parse(bytes: &[u8], what: &str, stats: &mut CorruptStats) -> Result<(), String> {
    check(bytes, what, stats, "stream_batches", || {
        stream_events(RecordingView::parse(bytes))
    })
}

/// Batch size for the streamed decode: small, so a sweep crosses many
/// batch boundaries and a corrupt record falls at every offset within
/// a batch.
const SWEEP_BATCH: usize = 7;

/// Collects every event [`RecordingView::stream_batches`] delivers.
fn stream_events(view: Result<RecordingView<'_>, RecordingError>) -> Decoded {
    let mut events = Vec::new();
    view?.stream_batches(SWEEP_BATCH, |b| events.extend(b.iter()))?;
    Ok(events)
}

type Decoded = Result<Vec<Event>, RecordingError>;

/// Decodes `bytes` through [`Recording::from_bytes`] and through
/// `streamed`, and requires both to match [`reference_decode`]: the
/// same events, or an error with the same text.
fn check(
    bytes: &[u8],
    what: &str,
    stats: &mut CorruptStats,
    streamed_path: &str,
    streamed: impl FnOnce() -> Decoded,
) -> Result<(), String> {
    stats.attempts += 1;
    let decoded = catch_unwind(AssertUnwindSafe(|| {
        (
            reference_decode(bytes),
            Recording::from_bytes(bytes).map(|r| r.iter().collect()),
            streamed(),
        )
    }));
    let (reference, owned, streamed) = decoded.map_err(|payload| {
        format!(
            "a recording decoder PANICKED on corrupt input ({what}): {}",
            panic_message(&payload)
        )
    })?;
    for (path, got) in [("from_bytes", &owned), (streamed_path, &streamed)] {
        let agrees = match (&reference, got) {
            (Ok(a), Ok(b)) => a == b,
            (Err(a), Err(b)) => a.to_string() == b.to_string(),
            _ => false,
        };
        if !agrees {
            return Err(format!(
                "{path} disagrees with the reference decoder ({what}): reference {}, {path} {}",
                outcome(&reference),
                outcome(got)
            ));
        }
    }
    match reference {
        Ok(_) => stats.parsed += 1,
        Err(_) => stats.rejected += 1,
    }
    Ok(())
}

fn outcome(d: &Decoded) -> String {
    match d {
        Ok(events) => format!("Ok({} events)", events.len()),
        Err(e) => format!("Err({e})"),
    }
}

/// The reference decoder: an independent, event-at-a-time parser of
/// the TVMR wire format. It builds one [`Event`] per record through a
/// slice-and-check reader, and applies the header checks and every
/// record check in wire order, so its first error is the error the
/// batch decoder must report.
///
/// # Errors
///
/// Every [`RecordingError`] of [`Recording::from_bytes`], except I/O.
pub fn reference_decode(bytes: &[u8]) -> Decoded {
    let mut r = RefReader { bytes, pos: 0 };
    if r.take(4)? != b"TVMR" {
        return Err(RecordingError::BadMagic);
    }
    let version = u16::from_le_bytes([r.byte()?, r.byte()?]);
    if version != FORMAT_VERSION {
        return Err(RecordingError::BadVersion(version));
    }
    let count = r.varint()?;
    // every record is at least a kind byte and a cycle-delta byte
    let available = (bytes.len() - r.pos) as u64;
    if count > available / 2 {
        return Err(RecordingError::CountTooLarge { count, available });
    }
    let mut events = Vec::new();
    let mut prev_cycle = 0i64;
    for _ in 0..count {
        let kind = r.byte()?;
        let now = prev_cycle
            .checked_add(r.zigzag()?)
            .filter(|&c| c >= 0)
            .ok_or(RecordingError::FieldRange)?;
        prev_cycle = now;
        let now = now as u64;
        events.push(match kind {
            0 => Event::HeapLoad(r.u32()?, now, r.pc()?),
            1 => Event::HeapStore(r.u32()?, now, r.pc()?),
            2 => Event::LocalLoad(r.u16()?, r.u32()?, now, r.pc()?),
            3 => Event::LocalStore(r.u16()?, r.u32()?, now, r.pc()?),
            4 => Event::LoopEnter(LoopId(r.u32()?), r.u16()?, r.u32()?, now),
            5 => Event::LoopIter(LoopId(r.u32()?), now),
            6 => Event::LoopExit(LoopId(r.u32()?), now),
            7 => Event::StatsRead(LoopId(r.u32()?), now),
            8 => Event::CallEnter(r.pc()?, r.u32()?, now),
            9 => Event::CallExit(r.pc()?, now),
            10 => Event::CallResultUse(r.pc()?, now),
            k => return Err(RecordingError::BadKind(k)),
        });
    }
    if r.pos != bytes.len() {
        return Err(RecordingError::TrailingBytes);
    }
    Ok(events)
}

struct RefReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl RefReader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], RecordingError> {
        let end = self.pos.checked_add(n).ok_or(RecordingError::Truncated)?;
        if end > self.bytes.len() {
            return Err(RecordingError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn byte(&mut self) -> Result<u8, RecordingError> {
        Ok(self.take(1)?[0])
    }

    fn varint(&mut self) -> Result<u64, RecordingError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift >= 64 || (shift == 63 && b > 1) {
                return Err(RecordingError::FieldRange);
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn zigzag(&mut self) -> Result<i64, RecordingError> {
        let v = self.varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    fn u16(&mut self) -> Result<u16, RecordingError> {
        u16::try_from(self.varint()?).map_err(|_| RecordingError::FieldRange)
    }

    fn u32(&mut self) -> Result<u32, RecordingError> {
        u32::try_from(self.varint()?).map_err(|_| RecordingError::FieldRange)
    }

    fn pc(&mut self) -> Result<Pc, RecordingError> {
        let func = FuncId(self.u16()?);
        let idx = self.u32()?;
        Ok(Pc { func, idx })
    }
}

/// Best-effort extraction of a panic payload's message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string panic payload>".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_over_a_tiny_recording_never_panics() {
        use tvm::record::RecordingSink;
        use tvm::{FuncId, Pc, TraceSink};
        let pc = |idx| Pc {
            func: FuncId(0),
            idx,
        };
        let mut sink = RecordingSink::default();
        sink.heap_load(64, 10, pc(0));
        sink.heap_store(96, 20, pc(1));
        sink.loop_enter(tvm::LoopId(0), 0, 2, 30);
        sink.loop_exit(tvm::LoopId(0), 40);
        let bytes = sink.into_recording().to_bytes();
        let stats = corruption_sweep(&bytes, 99, 200).expect("no panics");
        assert_eq!(
            stats.attempts,
            bytes.len() as u64 + bytes.len() as u64 * 3 + 200
        );
        assert!(stats.rejected > 0, "some mutations must be rejected");
    }

    #[test]
    fn mmap_sweep_over_a_tiny_recording_agrees_with_from_bytes() {
        use tvm::record::RecordingSink;
        use tvm::{FuncId, Pc, TraceSink};
        let pc = |idx| Pc {
            func: FuncId(0),
            idx,
        };
        let mut sink = RecordingSink::default();
        sink.heap_load(64, 10, pc(0));
        sink.heap_store(96, 20, pc(1));
        sink.loop_enter(tvm::LoopId(0), 0, 2, 30);
        sink.loop_exit(tvm::LoopId(0), 40);
        let bytes = sink.into_recording().to_bytes();
        let stats = mmap_sweep(&bytes, 7, 50).expect("no panics, parsers agree");
        assert!(stats.parsed > 0, "the pristine prefix set must parse");
        assert!(stats.rejected > 0, "header corruption must be rejected");
    }
}
