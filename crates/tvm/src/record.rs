//! Event recording and replay.
//!
//! [`RecordingSink`] captures the full trace-event stream of a run;
//! [`Recording::replay`] feeds it back into any other sink. This
//! decouples analysis benchmarking from interpretation (the Criterion
//! harness replays a real benchmark's stream straight into the tracer)
//! and makes event-level regression tests exact.
//!
//! For service-scale replay the on-disk format can also be consumed
//! *zero-copy*: [`MappedRecording`] memory-maps a saved trace and
//! [`RecordingView`] decodes events straight out of the mapped bytes
//! into reusable [`EventBatch`]es — no `read_to_end`, no intermediate
//! `Vec<Event>`. Both the owned and the borrowed path share one
//! streaming decoder, so every corruption-handling guarantee of
//! [`Recording::from_bytes`] holds for the mmap path too.

use crate::bus::{EventBatch, KindCounts};
use crate::isa::{FuncId, LoopId, Pc};
use crate::trace::{Addr, Cycles, TraceSink};
use std::fmt;
use std::path::Path;

/// One captured trace event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// Heap load.
    HeapLoad(Addr, Cycles, Pc),
    /// Heap store.
    HeapStore(Addr, Cycles, Pc),
    /// `lwl`.
    LocalLoad(u16, u32, Cycles, Pc),
    /// `swl`.
    LocalStore(u16, u32, Cycles, Pc),
    /// `sloop`.
    LoopEnter(LoopId, u16, u32, Cycles),
    /// `eoi`.
    LoopIter(LoopId, Cycles),
    /// `eloop`.
    LoopExit(LoopId, Cycles),
    /// statistics read.
    StatsRead(LoopId, Cycles),
    /// function call.
    CallEnter(Pc, u32, Cycles),
    /// function return.
    CallExit(Pc, Cycles),
    /// first consumption of a call's return value.
    CallResultUse(Pc, Cycles),
}

impl Event {
    /// Feeds this event into `sink` through the matching callback. The
    /// one `Event` → [`TraceSink`] dispatch every replay path shares.
    #[inline]
    pub fn deliver<S: TraceSink + ?Sized>(self, sink: &mut S) {
        match self {
            Event::HeapLoad(a, t, pc) => sink.heap_load(a, t, pc),
            Event::HeapStore(a, t, pc) => sink.heap_store(a, t, pc),
            Event::LocalLoad(v, act, t, pc) => sink.local_load(v, act, t, pc),
            Event::LocalStore(v, act, t, pc) => sink.local_store(v, act, t, pc),
            Event::LoopEnter(l, n, act, t) => sink.loop_enter(l, n, act, t),
            Event::LoopIter(l, t) => sink.loop_iter(l, t),
            Event::LoopExit(l, t) => sink.loop_exit(l, t),
            Event::StatsRead(l, t) => sink.stats_read(l, t),
            Event::CallEnter(pc, act, t) => sink.call_enter(pc, act, t),
            Event::CallExit(pc, t) => sink.call_exit(pc, t),
            Event::CallResultUse(pc, t) => sink.call_result_use(pc, t),
        }
    }
}

/// A captured event stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Recording {
    /// The events, in emission order.
    pub events: Vec<Event>,
}

impl Recording {
    /// Feeds every event into `sink`, in order.
    pub fn replay<S: TraceSink>(&self, sink: &mut S) {
        for &e in &self.events {
            e.deliver(sink);
        }
    }

    /// Number of captured events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Chunks the recording into [`EventBatch`]es of up to `capacity`
    /// events, preserving emission order.
    pub fn to_batches(&self, capacity: usize) -> Vec<EventBatch> {
        let capacity = capacity.max(1);
        let mut out = Vec::with_capacity(self.events.len().div_ceil(capacity));
        let mut batch = EventBatch::with_capacity(capacity);
        for &e in &self.events {
            batch.push(e);
            if batch.len() >= capacity {
                out.push(std::mem::replace(
                    &mut batch,
                    EventBatch::with_capacity(capacity),
                ));
            }
        }
        if !batch.is_empty() {
            out.push(batch);
        }
        out
    }

    /// Event counts by kind.
    pub fn kind_counts(&self) -> KindCounts {
        let mut k = KindCounts::default();
        for e in &self.events {
            k.add(e.kind(), 1);
        }
        k
    }

    /// Serializes the recording into the compact binary trace format.
    ///
    /// Layout: the magic `b"TVMR"`, a little-endian `u16` format
    /// version, the varint event count, then one record per event —
    /// a kind byte, the zigzag-varint cycle delta from the previous
    /// event (timestamps are near-monotonic, so deltas are tiny), and
    /// the kind's remaining fields as varints.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.events.len() * 4);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        write_varint(&mut out, self.events.len() as u64);
        let mut prev_cycle: Cycles = 0;
        for e in &self.events {
            out.push(e.kind().index() as u8);
            let now = e.cycle();
            write_zigzag(&mut out, now as i64 - prev_cycle as i64);
            prev_cycle = now;
            match *e {
                Event::HeapLoad(a, _, pc) | Event::HeapStore(a, _, pc) => {
                    write_varint(&mut out, a as u64);
                    write_pc(&mut out, pc);
                }
                Event::LocalLoad(v, act, _, pc) | Event::LocalStore(v, act, _, pc) => {
                    write_varint(&mut out, v as u64);
                    write_varint(&mut out, act as u64);
                    write_pc(&mut out, pc);
                }
                Event::LoopEnter(l, n, act, _) => {
                    write_varint(&mut out, l.0 as u64);
                    write_varint(&mut out, n as u64);
                    write_varint(&mut out, act as u64);
                }
                Event::LoopIter(l, _) | Event::LoopExit(l, _) | Event::StatsRead(l, _) => {
                    write_varint(&mut out, l.0 as u64);
                }
                Event::CallEnter(pc, act, _) => {
                    write_pc(&mut out, pc);
                    write_varint(&mut out, act as u64);
                }
                Event::CallExit(pc, _) | Event::CallResultUse(pc, _) => {
                    write_pc(&mut out, pc);
                }
            }
        }
        out
    }

    /// Parses a recording from [`Recording::to_bytes`] output.
    ///
    /// # Errors
    ///
    /// [`RecordingError`] on a bad magic/version, a truncated stream,
    /// an unknown event kind, or a field out of its type's range.
    pub fn from_bytes(bytes: &[u8]) -> Result<Recording, RecordingError> {
        let view = RecordingView::parse(bytes)?;
        let mut events = Vec::with_capacity(view.count().min(1 << 20) as usize);
        let mut decoder = view.decoder();
        while let Some(e) = decoder.next_event()? {
            events.push(e);
        }
        Ok(Recording { events })
    }

    /// Writes the binary trace format to `path`.
    ///
    /// # Errors
    ///
    /// Any I/O error from the filesystem.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), RecordingError> {
        std::fs::write(path, self.to_bytes()).map_err(RecordingError::Io)
    }

    /// Reads a recording written by [`Recording::save`].
    ///
    /// # Errors
    ///
    /// I/O errors, plus every [`Recording::from_bytes`] parse error.
    pub fn load(path: impl AsRef<Path>) -> Result<Recording, RecordingError> {
        Recording::from_bytes(&std::fs::read(path).map_err(RecordingError::Io)?)
    }
}

/// A validated, borrowed view over serialized recording bytes.
///
/// The header (magic, version, event count) is checked eagerly —
/// including a plausibility bound on the count field, so a corrupted
/// header can never drive an oversized allocation or a runaway decode
/// loop — while event records are decoded lazily, straight from the
/// borrowed bytes. This is the zero-copy path: pair it with
/// [`MappedRecording`] to stream a saved trace into analysis sinks
/// without materializing a `Vec<Event>`.
#[derive(Debug, Clone, Copy)]
pub struct RecordingView<'a> {
    bytes: &'a [u8],
    /// Offset of the first event record (just past the header).
    body: usize,
    /// Declared event count (validated against the body size).
    count: u64,
}

/// Every serialized event record occupies at least this many bytes
/// (one kind byte plus one cycle-delta varint byte), which bounds any
/// declared count by the body length.
const MIN_EVENT_BYTES: u64 = 2;

impl<'a> RecordingView<'a> {
    /// Validates the header and returns a lazy view.
    ///
    /// # Errors
    ///
    /// [`RecordingError`] on bad magic/version, a truncated header,
    /// or a declared event count that cannot fit in the remaining
    /// bytes ([`RecordingError::CountTooLarge`]).
    pub fn parse(bytes: &'a [u8]) -> Result<RecordingView<'a>, RecordingError> {
        let mut r = Reader { bytes, pos: 0 };
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err(RecordingError::BadMagic);
        }
        let version = u16::from_le_bytes([r.byte()?, r.byte()?]);
        if version != FORMAT_VERSION {
            return Err(RecordingError::BadVersion(version));
        }
        let count = r.varint()?;
        let body = r.pos;
        let available = (bytes.len() - body) as u64;
        if count > available / MIN_EVENT_BYTES {
            return Err(RecordingError::CountTooLarge { count, available });
        }
        Ok(RecordingView { bytes, body, count })
    }

    /// The declared (validated) event count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when the recording declares no events.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// A streaming decoder positioned at the first event.
    pub fn decoder(&self) -> EventDecoder<'a> {
        EventDecoder {
            reader: Reader {
                bytes: self.bytes,
                pos: self.body,
            },
            remaining: self.count,
            prev_cycle: 0,
        }
    }

    /// Feeds every event into `sink`, in order, decoding straight from
    /// the borrowed bytes. Returns the number of events delivered.
    ///
    /// # Errors
    ///
    /// Any decode error; events before the corruption point have
    /// already been delivered.
    pub fn replay<S: TraceSink + ?Sized>(&self, sink: &mut S) -> Result<u64, RecordingError> {
        let mut decoder = self.decoder();
        let mut n = 0u64;
        while let Some(e) = decoder.next_event()? {
            e.deliver(sink);
            n += 1;
        }
        Ok(n)
    }

    /// Decodes the stream into [`EventBatch`]es of up to `capacity`
    /// events, invoking `deliver` on each full batch (and the trailing
    /// partial one). One batch buffer is reused across calls, so the
    /// steady state allocates nothing: this is the zero-copy load path
    /// the profiling server's replay workers run on.
    ///
    /// # Errors
    ///
    /// Any decode error; batches before the corruption point have
    /// already been delivered.
    pub fn stream_batches(
        &self,
        capacity: usize,
        mut deliver: impl FnMut(&EventBatch),
    ) -> Result<u64, RecordingError> {
        let capacity = capacity.max(1);
        let mut batch = EventBatch::with_capacity(capacity);
        let mut decoder = self.decoder();
        let mut n = 0u64;
        while let Some(e) = decoder.next_event()? {
            batch.push(e);
            n += 1;
            if batch.len() >= capacity {
                deliver(&batch);
                batch.clear();
            }
        }
        if !batch.is_empty() {
            deliver(&batch);
        }
        Ok(n)
    }

    /// Materializes the view as an owned [`Recording`].
    ///
    /// # Errors
    ///
    /// Any decode error.
    pub fn to_recording(&self) -> Result<Recording, RecordingError> {
        let mut events = Vec::with_capacity(self.count.min(1 << 20) as usize);
        let mut decoder = self.decoder();
        while let Some(e) = decoder.next_event()? {
            events.push(e);
        }
        Ok(Recording { events })
    }
}

/// Streaming decoder over a [`RecordingView`]'s event records.
#[derive(Debug, Clone)]
pub struct EventDecoder<'a> {
    reader: Reader<'a>,
    remaining: u64,
    prev_cycle: i64,
}

impl EventDecoder<'_> {
    /// Decodes the next event, or `None` past the declared count
    /// (after verifying no trailing garbage follows the last record).
    ///
    /// # Errors
    ///
    /// [`RecordingError`] on truncation, unknown kinds, out-of-range
    /// fields, or trailing bytes after the final event.
    pub fn next_event(&mut self) -> Result<Option<Event>, RecordingError> {
        if self.remaining == 0 {
            if self.reader.pos != self.reader.bytes.len() {
                return Err(RecordingError::TrailingBytes);
            }
            return Ok(None);
        }
        self.remaining -= 1;
        let r = &mut self.reader;
        let kind = r.byte()?;
        let now = self
            .prev_cycle
            .checked_add(r.zigzag()?)
            .filter(|&c| c >= 0)
            .ok_or(RecordingError::FieldRange)?;
        self.prev_cycle = now;
        let now = now as Cycles;
        let e = match kind {
            0 => Event::HeapLoad(r.addr()?, now, r.pc()?),
            1 => Event::HeapStore(r.addr()?, now, r.pc()?),
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
        };
        Ok(Some(e))
    }
}

/// A saved recording, memory-mapped for zero-copy decoding.
///
/// On Unix the file is `mmap`ed read-only (private), so loading a
/// multi-gigabyte trace costs a handful of page-table entries and the
/// kernel pages bytes in as the decoder touches them; on other
/// platforms this falls back to a buffered read with the same API. The
/// header is validated at open time; use [`MappedRecording::view`] to
/// decode.
#[derive(Debug)]
pub struct MappedRecording {
    map: MapBacking,
}

#[derive(Debug)]
enum MapBacking {
    #[cfg(unix)]
    Mmap(sys::Mmap),
    Owned(Vec<u8>),
}

impl MappedRecording {
    /// Maps `path` and validates the recording header.
    ///
    /// # Errors
    ///
    /// I/O or mapping failures, plus every header parse error of
    /// [`RecordingView::parse`] — a truncated or corrupted file is a
    /// typed error, never a panic.
    pub fn open(path: impl AsRef<Path>) -> Result<MappedRecording, RecordingError> {
        let file = std::fs::File::open(path).map_err(RecordingError::Io)?;
        let len = file.metadata().map_err(RecordingError::Io)?.len();
        let len = usize::try_from(len).map_err(|_| RecordingError::CountTooLarge {
            count: u64::MAX,
            available: 0,
        })?;
        let map = Self::back(file, len)?;
        let rec = MappedRecording { map };
        RecordingView::parse(rec.bytes())?;
        Ok(rec)
    }

    #[cfg(unix)]
    fn back(file: std::fs::File, len: usize) -> Result<MapBacking, RecordingError> {
        // mmap rejects zero-length mappings; an empty file is just an
        // empty (typed-error-producing) byte view.
        if len == 0 {
            return Ok(MapBacking::Owned(Vec::new()));
        }
        match sys::Mmap::map_readonly(&file, len) {
            Ok(m) => Ok(MapBacking::Mmap(m)),
            Err(e) => Err(RecordingError::Io(e)),
        }
    }

    #[cfg(not(unix))]
    fn back(mut file: std::fs::File, len: usize) -> Result<MapBacking, RecordingError> {
        use std::io::Read;
        let mut buf = Vec::with_capacity(len);
        file.read_to_end(&mut buf).map_err(RecordingError::Io)?;
        Ok(MapBacking::Owned(buf))
    }

    /// The raw mapped bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.map {
            #[cfg(unix)]
            MapBacking::Mmap(m) => m.as_slice(),
            MapBacking::Owned(v) => v,
        }
    }

    /// A validated lazy view over the mapped bytes.
    ///
    /// # Errors
    ///
    /// Header parse errors (the file may have changed since `open`).
    pub fn view(&self) -> Result<RecordingView<'_>, RecordingError> {
        RecordingView::parse(self.bytes())
    }

    /// True when the mapping is a real `mmap` (false on the buffered
    /// fallback used for empty files and non-Unix platforms).
    pub fn is_mmap(&self) -> bool {
        match &self.map {
            #[cfg(unix)]
            MapBacking::Mmap(_) => true,
            MapBacking::Owned(_) => false,
        }
    }
}

#[cfg(unix)]
mod sys {
    //! Minimal read-only `mmap` wrapper. The symbols come straight
    //! from the C library the binary already links — no new crate
    //! dependency.

    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }

    #[derive(Debug)]
    pub(super) struct Mmap {
        ptr: *mut u8,
        len: usize,
    }

    // The mapping is read-only and owned exclusively by this struct.
    unsafe impl Send for Mmap {}
    unsafe impl Sync for Mmap {}

    impl Mmap {
        pub(super) fn map_readonly(
            file: &std::fs::File,
            len: usize,
        ) -> Result<Mmap, std::io::Error> {
            debug_assert!(len > 0, "zero-length mappings are rejected by mmap");
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(Mmap {
                ptr: ptr.cast(),
                len,
            })
        }

        pub(super) fn as_slice(&self) -> &[u8] {
            // SAFETY: the mapping is PROT_READ, MAP_PRIVATE, valid for
            // `len` bytes, and lives until Drop runs.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            // SAFETY: ptr/len are exactly what mmap returned.
            unsafe {
                munmap(self.ptr.cast(), self.len);
            }
        }
    }
}

impl Event {
    /// The event's timestamp.
    pub fn cycle(&self) -> Cycles {
        match *self {
            Event::HeapLoad(_, t, _)
            | Event::HeapStore(_, t, _)
            | Event::LocalLoad(_, _, t, _)
            | Event::LocalStore(_, _, t, _)
            | Event::LoopEnter(_, _, _, t)
            | Event::LoopIter(_, t)
            | Event::LoopExit(_, t)
            | Event::StatsRead(_, t)
            | Event::CallEnter(_, _, t)
            | Event::CallExit(_, t)
            | Event::CallResultUse(_, t) => t,
        }
    }
}

/// File magic of the binary trace format.
const MAGIC: &[u8; 4] = b"TVMR";

/// Current version of the binary trace format.
pub const FORMAT_VERSION: u16 = 1;

/// Failure parsing or transporting a serialized [`Recording`].
#[derive(Debug)]
pub enum RecordingError {
    /// Filesystem failure in [`Recording::save`]/[`Recording::load`].
    Io(std::io::Error),
    /// The stream does not start with the `TVMR` magic.
    BadMagic,
    /// The format version is not [`FORMAT_VERSION`].
    BadVersion(u16),
    /// The stream ended mid-record.
    Truncated,
    /// An event record carries an unknown kind byte.
    BadKind(u8),
    /// A varint field exceeds its target type's range (or a cycle
    /// delta chain went negative).
    FieldRange,
    /// Well-formed events followed by garbage.
    TrailingBytes,
    /// The header declares more events than the remaining bytes could
    /// possibly encode. Rejected before any allocation or decoding.
    CountTooLarge {
        /// Declared event count.
        count: u64,
        /// Bytes actually available after the header.
        available: u64,
    },
}

impl fmt::Display for RecordingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordingError::Io(e) => write!(f, "recording i/o error: {e}"),
            RecordingError::BadMagic => write!(f, "not a TVMR recording (bad magic)"),
            RecordingError::BadVersion(v) => write!(f, "unsupported recording version {v}"),
            RecordingError::Truncated => write!(f, "recording truncated mid-record"),
            RecordingError::BadKind(k) => write!(f, "unknown event kind byte {k}"),
            RecordingError::FieldRange => write!(f, "event field out of range"),
            RecordingError::TrailingBytes => write!(f, "trailing bytes after last event"),
            RecordingError::CountTooLarge { count, available } => write!(
                f,
                "declared event count {count} cannot fit in {available} remaining bytes"
            ),
        }
    }
}

impl std::error::Error for RecordingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecordingError::Io(e) => Some(e),
            _ => None,
        }
    }
}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn write_zigzag(out: &mut Vec<u8>, v: i64) {
    write_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

fn write_pc(out: &mut Vec<u8>, pc: Pc) {
    write_varint(out, pc.func.0 as u64);
    write_varint(out, pc.idx as u64);
}

#[derive(Debug, Clone)]
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
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

    fn addr(&mut self) -> Result<Addr, RecordingError> {
        self.u32()
    }

    fn pc(&mut self) -> Result<Pc, RecordingError> {
        let func = FuncId(self.u16()?);
        let idx = self.u32()?;
        Ok(Pc { func, idx })
    }
}

/// A sink that records every event for later [`Recording::replay`].
#[derive(Debug, Clone, Default)]
pub struct RecordingSink {
    /// The capture.
    pub recording: Recording,
}

impl RecordingSink {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the recorder and yields the capture.
    pub fn into_recording(self) -> Recording {
        self.recording
    }
}

impl TraceSink for RecordingSink {
    fn heap_load(&mut self, addr: Addr, now: Cycles, pc: Pc) {
        self.recording.events.push(Event::HeapLoad(addr, now, pc));
    }
    fn heap_store(&mut self, addr: Addr, now: Cycles, pc: Pc) {
        self.recording.events.push(Event::HeapStore(addr, now, pc));
    }
    fn local_load(&mut self, var: u16, activation: u32, now: Cycles, pc: Pc) {
        self.recording
            .events
            .push(Event::LocalLoad(var, activation, now, pc));
    }
    fn local_store(&mut self, var: u16, activation: u32, now: Cycles, pc: Pc) {
        self.recording
            .events
            .push(Event::LocalStore(var, activation, now, pc));
    }
    fn loop_enter(&mut self, loop_id: LoopId, n_locals: u16, activation: u32, now: Cycles) {
        self.recording
            .events
            .push(Event::LoopEnter(loop_id, n_locals, activation, now));
    }
    fn loop_iter(&mut self, loop_id: LoopId, now: Cycles) {
        self.recording.events.push(Event::LoopIter(loop_id, now));
    }
    fn loop_exit(&mut self, loop_id: LoopId, now: Cycles) {
        self.recording.events.push(Event::LoopExit(loop_id, now));
    }
    fn stats_read(&mut self, loop_id: LoopId, now: Cycles) {
        self.recording.events.push(Event::StatsRead(loop_id, now));
    }
    fn call_enter(&mut self, site: Pc, activation: u32, now: Cycles) {
        self.recording
            .events
            .push(Event::CallEnter(site, activation, now));
    }
    fn call_exit(&mut self, site: Pc, now: Cycles) {
        self.recording.events.push(Event::CallExit(site, now));
    }
    fn call_result_use(&mut self, site: Pc, now: Cycles) {
        self.recording.events.push(Event::CallResultUse(site, now));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ProgramBuilder;
    use crate::interp::Interp;
    use crate::trace::CountingSink;
    use crate::ElemKind;

    fn sample_program() -> crate::Program {
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0, false, |f| {
            let (a, i) = (f.local(), f.local());
            f.ci(8).newarray(ElemKind::Int).st(a);
            f.for_in(i, 0.into(), 8.into(), |f| {
                f.arr_set(
                    a,
                    |f| {
                        f.ld(i);
                    },
                    |f| {
                        f.ld(i);
                    },
                );
            });
            f.ret_void();
        });
        b.finish(main).unwrap()
    }

    #[test]
    fn replay_reproduces_the_exact_stream() {
        let p = sample_program();
        let mut rec = RecordingSink::new();
        Interp::run(&p, &mut rec).unwrap();
        let recording = rec.into_recording();
        assert!(!recording.is_empty());

        // live counts == replayed counts
        let mut live = CountingSink::default();
        Interp::run(&p, &mut live).unwrap();
        let mut replayed = CountingSink::default();
        recording.replay(&mut replayed);
        assert_eq!(live, replayed);

        // every variant survives all three replay entry points exactly
        let pc = Pc {
            func: FuncId(1),
            idx: 7,
        };
        let (l, t) = (LoopId(3), 40);
        let every_kind = Recording {
            events: vec![
                Event::HeapLoad(64, t, pc),
                Event::HeapStore(72, t + 1, pc),
                Event::LocalLoad(2, 5, t + 2, pc),
                Event::LocalStore(2, 5, t + 3, pc),
                Event::LoopEnter(l, 4, 5, t + 4),
                Event::LoopIter(l, t + 5),
                Event::LoopExit(l, t + 6),
                Event::StatsRead(l, t + 7),
                Event::CallEnter(pc, 6, t + 8),
                Event::CallExit(pc, t + 9),
                Event::CallResultUse(pc, t + 10),
            ],
        };
        let kinds: std::collections::BTreeSet<_> =
            every_kind.events.iter().map(Event::kind).collect();
        assert_eq!(kinds.len(), crate::bus::N_EVENT_KINDS);

        let mut owned = RecordingSink::new();
        every_kind.replay(&mut owned);
        assert_eq!(owned.into_recording(), every_kind);

        let bytes = every_kind.to_bytes();
        let mut viewed = RecordingSink::new();
        RecordingView::parse(&bytes)
            .unwrap()
            .replay(&mut viewed)
            .unwrap();
        assert_eq!(viewed.into_recording(), every_kind);

        let mut batched = RecordingSink::new();
        for b in every_kind.to_batches(4) {
            b.replay_into(&mut batched);
        }
        assert_eq!(batched.into_recording(), every_kind);
    }

    #[test]
    fn binary_roundtrip_is_exact() {
        let p = sample_program();
        let mut rec = RecordingSink::new();
        Interp::run(&p, &mut rec).unwrap();
        let recording = rec.into_recording();

        let bytes = recording.to_bytes();
        let back = Recording::from_bytes(&bytes).unwrap();
        assert_eq!(recording, back);
        // the format is compact: well under the 40+ bytes/event of the
        // in-memory representation
        assert!(bytes.len() < recording.len() * 16, "{} bytes", bytes.len());
    }

    #[test]
    fn parse_rejects_corrupt_streams() {
        let p = sample_program();
        let mut rec = RecordingSink::new();
        Interp::run(&p, &mut rec).unwrap();
        let bytes = rec.into_recording().to_bytes();

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            Recording::from_bytes(&bad_magic),
            Err(RecordingError::BadMagic)
        ));

        let mut bad_version = bytes.clone();
        bad_version[4] = 0xff;
        assert!(matches!(
            Recording::from_bytes(&bad_version),
            Err(RecordingError::BadVersion(_))
        ));

        let truncated = &bytes[..bytes.len() - 1];
        assert!(matches!(
            Recording::from_bytes(truncated),
            Err(RecordingError::Truncated | RecordingError::FieldRange)
        ));

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            Recording::from_bytes(&trailing),
            Err(RecordingError::TrailingBytes)
        ));
    }

    #[test]
    fn to_batches_partitions_without_reordering() {
        let p = sample_program();
        let mut rec = RecordingSink::new();
        Interp::run(&p, &mut rec).unwrap();
        let recording = rec.into_recording();
        let batches = recording.to_batches(3);
        let flat: Vec<Event> = batches.iter().flat_map(|b| b.events()).collect();
        assert_eq!(flat, recording.events);
        assert!(batches[..batches.len() - 1].iter().all(|b| b.len() == 3));
        assert_eq!(recording.kind_counts().total(), recording.len() as u64);
    }

    #[test]
    fn oversized_count_is_rejected_before_decoding() {
        // a header declaring ~2^62 events over a 16-byte body
        let mut forged = Vec::new();
        forged.extend_from_slice(MAGIC);
        forged.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        write_varint(&mut forged, u64::MAX / 2);
        forged.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            Recording::from_bytes(&forged),
            Err(RecordingError::CountTooLarge { .. })
        ));
        assert!(matches!(
            RecordingView::parse(&forged),
            Err(RecordingError::CountTooLarge { .. })
        ));
    }

    #[test]
    fn header_boundary_truncations_are_typed_errors() {
        let p = sample_program();
        let mut rec = RecordingSink::new();
        Interp::run(&p, &mut rec).unwrap();
        let bytes = rec.into_recording().to_bytes();
        // every prefix that ends inside the header must yield a typed
        // error from both the owned and the view parser
        for cut in 0..8.min(bytes.len()) {
            let prefix = &bytes[..cut];
            assert!(Recording::from_bytes(prefix).is_err(), "cut {cut}");
            assert!(RecordingView::parse(prefix).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn view_streams_the_exact_event_sequence() {
        let p = sample_program();
        let mut rec = RecordingSink::new();
        Interp::run(&p, &mut rec).unwrap();
        let recording = rec.into_recording();
        let bytes = recording.to_bytes();

        let view = RecordingView::parse(&bytes).unwrap();
        assert_eq!(view.count(), recording.len() as u64);
        assert_eq!(view.to_recording().unwrap(), recording);

        // replay through the view == replay through the owned recording
        let mut via_view = RecordingSink::new();
        let n = view.replay(&mut via_view).unwrap();
        assert_eq!(n, recording.len() as u64);
        assert_eq!(via_view.into_recording(), recording);

        // batch streaming partitions without reordering, reusing the
        // buffer (capacities respected)
        let mut flat = Vec::new();
        let mut sizes = Vec::new();
        let n = view
            .stream_batches(5, |b| {
                sizes.push(b.len());
                flat.extend(b.events());
            })
            .unwrap();
        assert_eq!(n, recording.len() as u64);
        assert_eq!(flat, recording.events);
        assert!(sizes[..sizes.len() - 1].iter().all(|&s| s == 5));
    }

    #[test]
    fn mapped_recording_round_trips_and_rejects_corruption() {
        let p = sample_program();
        let mut rec = RecordingSink::new();
        Interp::run(&p, &mut rec).unwrap();
        let recording = rec.into_recording();

        let dir = std::env::temp_dir().join(format!("tvm-mmap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.trace");
        recording.save(&path).unwrap();

        let mapped = MappedRecording::open(&path).unwrap();
        assert!(mapped.is_mmap() || cfg!(not(unix)));
        let view = mapped.view().unwrap();
        assert_eq!(view.to_recording().unwrap(), recording);

        // a truncated file is a typed open error, never a panic
        let bytes = recording.to_bytes();
        for cut in [0, 1, 3, 5, 6, bytes.len() / 2] {
            let bad = dir.join(format!("cut{cut}.trace"));
            std::fs::write(&bad, &bytes[..cut]).unwrap();
            if let Ok(m) = MappedRecording::open(&bad) {
                // open may defer validation; decoding must then fail typed
                assert!(
                    m.view().and_then(|v| v.to_recording()).is_err(),
                    "cut {cut}"
                );
            }
        }
        // and so is a missing file
        assert!(matches!(
            MappedRecording::open(dir.join("missing.trace")),
            Err(RecordingError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recording_a_replay_is_idempotent() {
        let p = sample_program();
        let mut rec = RecordingSink::new();
        Interp::run(&p, &mut rec).unwrap();
        let first = rec.into_recording();
        let mut second_rec = RecordingSink::new();
        first.replay(&mut second_rec);
        assert_eq!(first, second_rec.into_recording());
    }
}
