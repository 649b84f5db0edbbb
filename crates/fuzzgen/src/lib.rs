//! Differential fuzzing harness for the STL extraction pipeline.
//!
//! The pipeline is full of deliberate redundancy: four transports for
//! the same event stream, a static pre-screen whose verdicts the
//! dynamic stream must witness, a tracer whose statistics must be
//! invariant to never-exercised capacities, and a simulator with
//! algebraic sanity bounds. Redundancy is only worth its keep if
//! something *checks* it — this crate does, on randomly generated
//! programs rather than the handful of committed benchmarks.
//!
//! * [`spec`] — a seeded generator of structured program ASTs, the
//!   emitter that lowers them through [`tvm::build::ProgramBuilder`],
//!   and a renderer that prints any spec as a paste-able builder
//!   snippet for regression tests.
//! * [`oracle`] — the differential checks; [`oracle::check_seed`] runs
//!   the whole stack for one seed.
//! * [`shrink()`](shrink::shrink) — greedy structural minimization of failing specs.
//! * [`corrupt`] — byte-level corruption sweeps against
//!   [`tvm::record::Recording::from_bytes`] and the zero-copy batch
//!   stream, each diffed against an independent reference decoder.
//! * [`rng`] — the dependency-free SplitMix64 stream everything is
//!   seeded from.
//!
//! Reproduce any CI failure locally with
//! `cargo run -p fuzzgen -- --seeds N..N+1`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corrupt;
pub mod oracle;
pub mod rng;
pub mod shrink;
pub mod spec;

pub use corrupt::{corruption_sweep, CorruptStats};
pub use oracle::{check_program, check_seed, check_spec, CheckStats, Failure};
pub use rng::Rng;
pub use shrink::shrink;
pub use spec::{emit, gen_spec, render, ProgramSpec};
