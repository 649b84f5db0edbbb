//! # jrpm — the Java Runtime Parallelizing Machine pipeline
//!
//! The end-to-end system of *TEST: A Tracer for Extracting Speculative
//! Threads* (CGO 2003, Figure 1), assembled from this workspace's
//! crates:
//!
//! 1. **Identify** candidate STLs from each method's control-flow graph
//!    (`cfgir`);
//! 2. **Annotate**: compile the program with the Table 4 annotation
//!    instructions ([`annotate()`]), in the paper's base or optimized
//!    form;
//! 3. **Profile**: run the annotated program sequentially through the
//!    TEST hardware model (`test-tracer`), measuring the profiling
//!    slowdown of Figure 6 as a by-product;
//! 4. **Select** the best decompositions with Equations 1 and 2;
//! 5. **Recompile** only the chosen loops (the speculative code's own
//!    boundary markers and globalized locals) and collect per-iteration
//!    traces;
//! 6. **Execute** the traces on the Hydra TLS simulator (`hydra-sim`)
//!    to obtain the "actual" speculative performance of Figure 11.
//!
//! [`pipeline::run_pipeline`] performs all six steps and returns a
//! [`pipeline::PipelineReport`] with everything the paper's tables and
//! figures need.

pub mod agreement;
pub mod annotate;
pub mod pipeline;
pub mod slowdown;
pub mod tier;

pub use agreement::{agreement_report, AgreementReport, LoopAgreement, Violation};
pub use annotate::{annotate, annotate_mapped, AnnotateOptions, AnnotationMode, PatchState};
pub use pipeline::{
    run_pipeline, ActualTls, PipelineConfig, PipelineObservability, PipelineReport, StageTime,
};
pub use slowdown::{profile_slowdown, software_comparison, SlowdownReport, SoftwareComparison};
pub use tier::{
    run_tiered, LoopTier, LoopTierSummary, TierConfig, TierDiagnostic, TierReport, TieredOutcome,
};
