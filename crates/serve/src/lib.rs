//! `warden-serve` — a concurrent simulation service for the WARDen
//! reproduction.
//!
//! The simulator's results are pure functions of `(trace, machine,
//! protocol, options)`, which makes them perfect cache fodder: this crate
//! wraps [`warden_sim::simulate_with_options`] in a multi-threaded server
//! speaking a length-prefixed binary protocol (built on the workspace's
//! hand-rolled [`warden_mem::codec`]) over TCP and Unix sockets, with
//!
//! - a **content-addressed result cache** keyed by the simulator's
//!   [`warden_sim::RunKey`] (workload token, machine, protocol, options
//!   fingerprints) with **single-flight**
//!   semantics — N concurrent identical requests cost one simulation
//!   ([`cache::SingleFlight`]);
//! - a **bounded request queue** with typed backpressure
//!   ([`proto::Response::Busy`] carrying a retry-after hint,
//!   [`proto::Response::TooLarge`]) and per-flight panic isolation, so
//!   overload and bugs degrade into typed rejections, never a wedged
//!   server;
//! - **deadlines with cooperative cancellation**: a per-request deadline
//!   covers queue wait plus simulation; on expiry the client gets a typed
//!   [`proto::Response::DeadlineExceeded`] immediately and the replay is
//!   cancelled through [`warden_sim::CancelToken`], freeing the worker. A
//!   cancelled single-flight leader vacates its slot so coalesced waiters
//!   retry under their own deadlines;
//! - a **byte-budgeted cache** with cost-aware eviction (compute time ×
//!   size; in-flight entries are never evicted) and full residency
//!   metrics;
//! - a **crash-safe disk tier** ([`disk::ResultStore`]) behind the memory
//!   cache: finished outcomes are persisted with the checkpoint module's
//!   atomic-write + checksummed-frame discipline and survive restarts
//!   bit-identically; an fsck-style startup scan quarantines (never
//!   panics on) torn, corrupt or version-skewed entries; a byte budget
//!   with cost-aware eviction bounds it. The benchmark campaigns persist
//!   into the same store under the same key, so a campaign directory
//!   warms the daemon;
//! - **prefix-checkpoint resume**: long replays persist periodic engine
//!   frames (and one on cancellation), so a repeat of interrupted work
//!   resumes from the newest frame instead of cycle 0 — the wire reports
//!   provenance per response ([`proto::ServedFrom`]);
//! - an injectable **storage-fault layer** ([`storage::FaultyStorage`]):
//!   seeded torn writes, `ENOSPC`, corrupt-on-read and crashes on either
//!   side of the rename, under which the tier must degrade (typed counter
//!   bumps, recompute) and never fail a request;
//! - **slow-loris defense**: a mid-frame stall bound drops drip-feeding
//!   connections and frees their slots ([`ServeError::Stalled`]);
//! - a **resilient client** ([`client::ResilientClient`]) that reconnects,
//!   retries with jittered exponential backoff, honors `Busy` retry-after
//!   hints, and enforces an overall per-call deadline — safe because
//!   requests are content-addressed and therefore idempotent;
//! - **observability** through `warden-obs`: queue-depth and in-flight
//!   gauges, latency histograms and cache counters in one
//!   [`warden_obs::MetricsRegistry`] snapshot, plus an optional Chrome
//!   trace-event timeline of every request;
//! - a **graceful drain**: shutdown finishes every queued job and delivers
//!   every pending reply before joining a single thread.
//!
//! The `warden-bench` crate ships the `serve` and `loadgen` binaries; the
//! load generator holds every response to the digest of a directly
//! computed [`warden_sim::SimOutcome`], making the service conformance-
//! testable end to end.

pub mod cache;
pub mod client;
pub mod disk;
pub mod error;
pub mod proto;
pub mod server;
pub mod signal;
pub mod storage;

pub use cache::{CacheStats, Computed, FlightError, SingleFlight, Source};
pub use client::{Client, ResilientClient, RetryPolicy};
pub use disk::{result_file_name, DiskBody, DiskEntry, DiskStats, ResultStore, ResultStoreConfig};
pub use error::ServeError;
pub use proto::{
    outcome_digest, summarize_outcome, ErrorKind, FrameEvent, MachinePreset, MachineSpec,
    OutcomeSummary, Request, Response, ServedFrom, SimRequest,
};
pub use server::{ServeConfig, Server, ServerOptions, ShutdownReport};
pub use signal::{drain_requested, install_sigterm_drain};
pub use storage::{FaultyStorage, RealStorage, Storage, StorageFaultPlan, StorageFaultStats};
