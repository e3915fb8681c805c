//! Observability primitives shared by the WARDen simulator stack.
//!
//! This crate is deliberately generic — it knows nothing about coherence
//! protocols. It provides three building blocks the higher layers compose:
//!
//! * [`metrics`] — a [`MetricsRegistry`] of named counters and [`Hist`]
//!   log2-bucket histograms (miss latency, reconciliation size, region
//!   lifetime, ...). They live in memory only: no snapshot or record
//!   serializes them.
//! * [`trace_event`] — a builder and validator for the Chrome trace-event
//!   JSON format that Perfetto and `chrome://tracing` load directly.
//! * [`span`] — wall-clock phase-scoped span aggregation ([`SpanSet`]),
//!   the same `std::time::Instant` plumbing the bench crate's hot-path
//!   harness uses, aggregated instead of sampled.
//!
//! The crate has no dependencies, so any crate in the stack can use these
//! types without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod span;
pub mod trace_event;

pub use metrics::{Hist, MetricsRegistry};
pub use span::{SpanAgg, SpanSet};
pub use trace_event::{validate_trace, ArgVal, TraceBuilder, TraceError, TraceStats};
