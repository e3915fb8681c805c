//! The deterministic multicore timing simulator (phase 2).
//!
//! This crate stands in for the paper's Sniper-based prototype (§6.2): it
//! replays a fork-join trace captured by `warden-rt` on a model of the
//! paper's machine — per-core private L1/L2, shared per-socket LLC slices
//! with directory coherence from `warden-coherence`, a work-stealing
//! scheduler, a finite store buffer that hides store latency, and a
//! McPAT-style event-energy model.
//!
//! Machine presets follow the paper: [`MachineConfig::single_socket`],
//! [`MachineConfig::dual_socket`] (Table 2),
//! [`MachineConfig::disaggregated`] (§7.3, 1 µs remote access), and
//! [`MachineConfig::many_socket`]. The [`pingpong`] module regenerates
//! Table 1's validation.
//!
//! # Example
//!
//! ```
//! use warden_rt::{trace_program, RtOptions};
//! use warden_sim::{simulate, MachineConfig};
//! use warden_coherence::ProtocolId;
//!
//! let program = trace_program("demo", RtOptions::default(), |ctx| {
//!     let xs = ctx.tabulate::<u64>(256, 32, &|_c, i| i);
//!     let _ = ctx.reduce(0, 256, 32, &|c, i| c.read(&xs, i), &|a, b| a + b, 0);
//! });
//! let machine = MachineConfig::dual_socket().with_cores(2);
//! let mesi = simulate(&program, &machine, ProtocolId::Mesi);
//! let warden = simulate(&program, &machine, ProtocolId::Warden);
//! // Same answer, no more coherence penalties than the baseline.
//! assert_eq!(mesi.memory_image_digest, warden.memory_image_digest);
//! assert!(warden.stats.coherence.inv_plus_dg() <= mesi.stats.coherence.inv_plus_dg());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cancel;
pub mod checkpoint;
mod config;
mod energy;
mod engine;
mod error;
mod faults;
mod obs;
pub mod pingpong;
mod report;
mod stats;

pub use cancel::CancelToken;
pub use checkpoint::{CheckpointError, RunKey};
pub use config::MachineConfig;
pub use energy::{energy_of, EnergyBreakdown, EnergyParams};
pub use engine::{
    simulate, simulate_with_options, try_simulate, SimEngine, SimOptions, SimOutcome,
    CANCEL_CHECK_EVENTS,
};
pub use error::SimError;
pub use faults::{FaultPlan, FaultStats};
pub use obs::{
    EpochSummary, ObsReport, RegionSpan, SimEvent, TimedEvent, DEFAULT_EPOCH_SHIFT,
    MAX_TIMELINE_EVENTS,
};
pub use pingpong::{pingpong, table1, Placement, Table1Row};
pub use report::{geomean_speedup, mean, Comparison};
pub use stats::SimStats;
