//! # cfgir — candidate-STL extraction for TraceVM bytecode
//!
//! This crate is the static-analysis half of the Jrpm compiler from
//! *TEST: A Tracer for Extracting Speculative Threads* (CGO 2003,
//! §4.1): it derives a control-flow graph from each compiled method,
//! identifies **all natural loops**, and screens them *optimistically*
//! into candidate speculative thread loops (STLs):
//!
//! * loops are chosen from the CFG with no attempt at array dependence
//!   or pointer analysis — the TEST hardware, not the compiler, judges
//!   parallelism;
//! * **loop inductors** (`i += c` style variables the speculative
//!   compiler can privatize) are recognized and ignored so potentially
//!   parallel loops are not overlooked;
//! * **reductions** (`s = s op expr` accumulators the compiler
//!   transforms at loop shutdown, Table 2) are likewise recognized;
//! * only *obvious* fully serializing scalar dependencies
//!   (an end-of-loop store feeding a start-of-loop load of the same
//!   non-inductor local) disqualify a loop.
//!
//! The crate also computes the per-method set of *context local
//! variables* each candidate loop must have annotated with `lwl`/`swl`,
//! which the `jrpm` annotation pass turns into instrumented code.
//!
//! ```
//! use tvm::ProgramBuilder;
//! use cfgir::extract_candidates;
//!
//! # fn main() -> Result<(), tvm::VmError> {
//! let mut b = ProgramBuilder::new();
//! let main = b.function("main", 0, false, |f| {
//!     let (s, i) = (f.local(), f.local());
//!     f.ci(0).st(s);
//!     f.for_in(i, 0.into(), 100.into(), |f| {
//!         f.ld(s).ld(i).iadd().st(s);
//!     });
//!     f.ret_void();
//! });
//! let program = b.finish(main)?;
//! let cands = extract_candidates(&program);
//! assert_eq!(cands.candidates.len(), 1); // one natural loop, qualified
//! # Ok(())
//! # }
//! ```

pub mod access;
pub mod candidates;
pub mod cfg;
pub mod dataflow;
pub mod dom;
pub mod loops;
pub mod memdep;
pub mod pointsto;
pub mod rescue;
pub mod scalar;
pub mod scev;
pub mod slice;

pub use access::{
    overlap_kind, same_iteration_blocker, same_iteration_disjoint, strongly_disjoint, Access,
    AccessSite, BlockKind, DepWitness, Sym,
};
pub use candidates::{
    distance_floors, extract_candidates, Candidate, FunctionAnalysis, LoopClaims,
    ProgramCandidates, StaticVerdict,
};
pub use cfg::{Block, BlockId, Cfg};
pub use dataflow::{
    solve, Analysis, BitSet, Direction, Liveness, LocalGenKill, ReachingDefs, Solution,
};
pub use dom::Dominators;
pub use loops::{LoopForest, NaturalLoop};
pub use memdep::{analyze_loop, AccessPair, DepKind, GuaranteedDep, PairVerdict};
pub use pointsto::{FnView, PointsTo, SolverStats};
pub use rescue::{
    rescue_extracted, rescue_program, Channel, LegalityProof, RescueOutcome, RescueRejection,
    RescuedLoop, REDUCTION,
};
pub use scalar::LocalClasses;
pub use scev::{Evolution, LoopEvolutions};
pub use slice::{extract_slices, LoopSlices, Slice, SliceCert, SliceScalar};
