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
//! [`campaign`] runner: worker threads that run each cell once under
//! `catch_unwind`, so a panicking cell fails typed while the others
//! complete, and — with
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
pub mod storage;
pub mod store;

pub use args::{parse_patterns, parse_protocols, HarnessArgs};
pub use atlas::{atlas_machines, run_atlas, Atlas, AtlasCell};
pub use campaign::{
    protocol_campaign, run_campaign, CampaignConfig, Panel, ProtocolRun, RunResult, RunSpec,
    Workload,
};
pub use error::{harness_main, HarnessError, RunFailure};
pub use fuzz::{
    check_spec, parse_mutation_spec, run_fuzz_gate, Disagreement, FuzzOptions, FuzzReport,
};
pub use obs_export::export_outcome;
