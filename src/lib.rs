//! # WARDen — reproduction of "Specializing Cache Coherence for High-Level Parallel Languages" (CGO 2023)
//!
//! This umbrella crate re-exports the whole system so examples, integration
//! tests and downstream users can depend on a single crate:
//!
//! * [`mem`] — addresses, cache arrays, sectored blocks, backing memory.
//! * [`coherence`] — directory-based MESI and the WARDen protocol (W state,
//!   WARD regions, reconciliation).
//! * [`sim`] — the deterministic multicore timing simulator and energy model.
//! * [`rt`] — the MPL-style fork-join runtime with heap hierarchy and
//!   automatic WARD region marking.
//! * [`pbbs`] — the 14-benchmark PBBS-style suite used in the evaluation.
//! * [`cacti`] — the analytical area model behind the paper's hardware-cost
//!   estimates.
//!
//! ## Quickstart
//!
//! ```
//! use warden::prelude::*;
//!
//! // Trace a small fork-join program, then run it under MESI and WARDen.
//! let program = trace_program("quick", RtOptions::default(), |ctx| {
//!     let xs = ctx.tabulate::<u64>(512, 64, &|_c, i| i * i);
//!     let _ = ctx.reduce(0, 512, 64, &|c, i| c.read(&xs, i), &|a, b| a + b, 0);
//! });
//! let machine = MachineConfig::single_socket().with_cores(4);
//! let baseline = simulate(&program, &machine, ProtocolId::Mesi);
//! let warden = simulate(&program, &machine, ProtocolId::Warden);
//! assert_eq!(baseline.memory_image_digest, warden.memory_image_digest);
//! ```

pub use warden_bench as bench;
pub use warden_cacti as cacti;
pub use warden_coherence as coherence;
pub use warden_mem as mem;
pub use warden_obs as obs;
pub use warden_pbbs as pbbs;
pub use warden_rt as rt;
pub use warden_sim as sim;

/// The most commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use warden_coherence::ProtocolId;
    pub use warden_mem::{Addr, BlockAddr, Memory, BLOCK_SIZE, PAGE_SIZE};
    pub use warden_rt::{trace_program, MarkPolicy, RtOptions, SimSlice, TaskCtx};
    pub use warden_sim::{simulate, Comparison, MachineConfig, Placement, SimOutcome, SimStats};
}
