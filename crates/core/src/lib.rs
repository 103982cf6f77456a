#![warn(missing_docs)]

//! # ccr-core — the end-to-end CCR pipeline
//!
//! Ties the whole framework together the way the paper's evaluation
//! does:
//!
//! 1. **Compile** ([`compile`]): run the baseline optimizer over the
//!    program (the paper's "best code ... employing function inlining,
//!    superblock formation, and loop unrolling"), value-profile it on
//!    a *training* input, form reusable computation regions with the
//!    published heuristics, and annotate a *target* program (training
//!    or reference input) with the CCR ISA extensions.
//! 2. **Measure** ([`measure()`](measure())): cycle-level simulation of the
//!    unannotated baseline and the annotated program with a
//!    Computation Reuse Buffer, yielding the speedups of Figures 8
//!    and 11.
//! 3. **Report** ([`report`]): plain-text table rendering used by the
//!    experiment regenerators in `ccr-bench`.

pub mod compile;
pub mod harness;
pub mod jobs;
pub mod measure;
pub mod report;
pub mod runreport;

pub use compile::{
    compile_ccr, compile_from_profile, profile_training, CompileConfig, CompileTelemetry,
    CompiledWorkload, Trial, TrialKey,
};
pub use harness::{Harness, HarnessOptions, HarnessSummary, ProgressMode, HARNESS_SCHEMA_VERSION};
pub use jobs::{
    parallel_map, parallel_map_observed, resolve_jobs, PoolObserver, PoolStats, TaskStats,
    WorkerStats,
};
pub use measure::{
    measure, measure_par, measure_profiled, measure_traced, measure_traced_par, reuse_potential,
    Measurement,
};
pub use report::Table;
pub use runreport::{
    config_hash, emit_compile_events, fnv1a_hex, git_commit_id, Provenance, RunReport,
    REPORT_SCHEMA_VERSION,
};

// Re-export the crates a downstream user needs to drive everything.
pub use ccr_analysis as analysis;
pub use ccr_ir as ir;
pub use ccr_opt as opt;
pub use ccr_profile as profile;
pub use ccr_regions as regions;
pub use ccr_sim as sim;
pub use ccr_telemetry as telemetry;
pub use ccr_workloads as workloads;
