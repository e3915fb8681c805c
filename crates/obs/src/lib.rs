//! Observability primitives shared by the WARDen simulator stack.
//!
//! This crate is deliberately generic — it knows nothing about coherence
//! protocols. It provides three building blocks the higher layers compose:
//!
//! * [`metrics`] — a serializable [`MetricsRegistry`] of named counters and
//!   [`Hist`] log2-bucket histograms (miss latency, reconciliation size,
//!   region lifetime, ...), with the same hand-rolled codec conventions
//!   as the rest of the workspace (typed errors, every-prefix truncation
//!   safe).
//! * [`trace_event`] — a builder and validator for the Chrome trace-event
//!   JSON format that Perfetto and `chrome://tracing` load directly.
//! * [`span`] — wall-clock phase-scoped span aggregation ([`SpanSet`]),
//!   the same `std::time::Instant` plumbing the bench crate's hot-path
//!   harness uses, aggregated instead of sampled.
//!
//! Only `warden-mem` (for the codec) is a dependency, so any crate in the
//! stack can use these types without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod span;
pub mod trace_event;

pub use metrics::{Hist, MetricsRegistry};
pub use span::{SpanAgg, SpanSet};
pub use trace_event::{validate_trace, ArgVal, TraceBuilder, TraceError, TraceStats};
