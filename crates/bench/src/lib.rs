//! Experiment harness regenerating every table and figure of the WARDen
//! paper's evaluation (§6.2 validation and §7).
//!
//! The library provides the shared machinery; the binaries under `src/bin/`
//! drive it:
//!
//! | binary        | regenerates |
//! |---------------|-------------|
//! | `all_figures` | every table and figure of the evaluation (Tables 1–2, Figures 7–12, the §6.1 area estimates) as one EXPERIMENTS.md-style report |
//! | `ablations`   | design-choice ablations from DESIGN.md |
//! | `fuzzgen`     | seeded differential coherence fuzz gate + coherence-atlas sweep |
//!
//! Run with `cargo run -p warden-bench --release --bin <name> [-- --scale tiny]`.
//!
//! Every matrix binary routes its simulations through the supervised
//! [`campaign`] runner: worker threads with `catch_unwind` panic isolation,
//! per-run watchdog deadlines, bounded retry-with-backoff, and — with
//! `--campaign-dir <dir>` — durable, checksummed per-run records plus a
//! `manifest.json`, so a killed campaign resumes from completed work and
//! reruns the interrupted runs from step 0 to bit-identical outcomes.
//! See [`args`] for the shared strict flag vocabulary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod atlas;
pub mod campaign;
pub mod error;
pub mod figures;
pub mod fmt;
pub mod fuzz;
pub mod obs_export;
pub mod paper;
pub mod runner;
pub mod storage;
pub mod store;

pub use args::{parse_patterns, parse_protocols, HarnessArgs};
pub use atlas::{atlas_machines, run_atlas, Atlas, AtlasCell};
pub use campaign::{
    campaign_suite, protocol_campaign, run_campaign, CampaignConfig, ProtocolRun, RunResult,
    RunSpec, Workload,
};
pub use error::{harness_main, HarnessError, RunFailure};
pub use fuzz::{
    check_spec, parse_mutation_spec, run_fuzz_gate, Disagreement, FuzzOptions, FuzzReport,
};
pub use obs_export::export_outcome;
pub use runner::{run_bench, run_pair, BenchRun, RunOptions, SuiteScale};
