//! # perfbench — the repository's benchmark
//!
//! End-to-end and per-layer performance of the batch pipeline
//! (`jrpm::run_pipeline`), the online tier runtime (`jrpm::run_tiered`)
//! and the profiling server (`serve::Server`) over four named
//! workloads, with every output checked against a committed oracle
//! (`expected.json`). See `README.md` for the metrics, the workloads
//! and how to run and compare them.

pub mod metrics;
pub mod oracle;
pub mod report;
pub mod stats;
pub mod sys;
pub mod traced;
pub mod workload;

pub use workload::{Workload, WORKLOADS};
