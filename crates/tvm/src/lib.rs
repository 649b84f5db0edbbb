//! # TraceVM
//!
//! TraceVM (`tvm`) is the execution substrate of this reproduction of
//! *TEST: A Tracer for Extracting Speculative Threads* (Chen & Olukotun,
//! CGO 2003). The original system profiles Java bytecode running on the
//! Hydra chip-multiprocessor; `tvm` plays the role of the Java virtual
//! machine and the microJIT compiler's output format.
//!
//! It provides:
//!
//! * a compact, verifiable stack-machine bytecode ([`isa::Instr`]) with
//!   locals, objects, arrays, statics and static calls;
//! * a byte-addressed heap ([`mem::Memory`]) with 32-byte cache lines, so
//!   line-granular hardware analyses behave as they would on real
//!   addresses;
//! * a deterministic cycle cost model ([`cost::CostModel`]);
//! * an interpreter ([`interp::Interp`]) that drives a [`trace::TraceSink`]
//!   with the exact event stream the TEST hardware observes: heap
//!   loads/stores, annotated local-variable accesses, and speculative
//!   thread loop (STL) boundary markers;
//! * a builder API ([`build::ProgramBuilder`]) used by the benchmark suite
//!   as its "compiler frontend";
//! * one event-stream representation: [`bus::EventBatch`]es in memory
//!   (a whole run is a [`record::Recording`]) and TVMR bytes on disk,
//!   delivered to sinks through [`trace::TraceSink::consume_batch`].
//!
//! The annotation instructions (`sloop`, `eloop`, `eoi`, `lwl`, `swl` and
//! the read-statistics callback of Table 4 in the paper) are first-class
//! opcodes; executing them costs cycles in the sequential model, which is
//! how the profiling slowdown of the paper's Figure 6 is *measured* rather
//! than asserted.
//!
//! ## Quick example
//!
//! ```
//! use tvm::build::ProgramBuilder;
//! use tvm::isa::Cond;
//! use tvm::interp::Interp;
//! use tvm::trace::NullSink;
//!
//! # fn main() -> Result<(), tvm::error::VmError> {
//! let mut b = ProgramBuilder::new();
//! let main = b.function("main", 0, true, |f| {
//!     let sum = f.local();
//!     let i = f.local();
//!     f.ci(0).st(sum);
//!     f.for_in(i, 0.into(), 10.into(), |f| {
//!         f.ld(sum).ld(i).iadd().st(sum);
//!     });
//!     f.ld(sum).ret();
//! });
//! let program = b.finish(main)?;
//! let result = Interp::run(&program, &mut NullSink)?;
//! assert_eq!(result.ret.unwrap().as_int()?, 45);
//! # Ok(())
//! # }
//! ```

pub mod alloc;
pub mod build;
pub mod bus;
pub mod cost;
pub mod disasm;
pub mod error;
pub mod handoff;
pub mod hash;
pub mod hotloc;
pub mod interp;
pub mod isa;
pub mod mem;
pub mod program;
pub mod record;
pub mod trace;
pub mod value;
pub mod verify;

pub use alloc::{AllocSite, AllocSites, SiteId, SiteKind};
pub use build::{FnBuilder, ProgramBuilder};
pub use bus::{
    Batcher, BusReport, EventBatch, EventKind, KindCounts, SinkStats, TraceBus,
    DEFAULT_BATCH_CAPACITY,
};
pub use cost::CostModel;
pub use error::VmError;
pub use hotloc::{HotLocations, LocationHook, NoHook};
pub use interp::{FinalState, Interp, RunResult};
pub use isa::{Cond, ElemKind, Instr, Label, LoopId, Pc};
pub use program::{ClassId, FuncId, Function, GlobalId, Local, Program};
pub use trace::{Addr, Cycles, NullSink, TraceSink};
pub use value::Value;

/// Bytes per machine word. All heap cells are one word.
pub const WORD_BYTES: u32 = 8;

/// Bytes per cache line in the modelled Hydra memory system (32 B, as in
/// the paper's Table 1: "512 lines x 32B").
pub const LINE_BYTES: u32 = 32;

/// Words per cache line.
pub const LINE_WORDS: u32 = LINE_BYTES / WORD_BYTES;

/// Returns the cache-line index of a byte address.
///
/// ```
/// assert_eq!(tvm::line_of(0), 0);
/// assert_eq!(tvm::line_of(31), 0);
/// assert_eq!(tvm::line_of(32), 1);
/// ```
#[inline]
pub fn line_of(addr: Addr) -> u32 {
    addr / LINE_BYTES
}
