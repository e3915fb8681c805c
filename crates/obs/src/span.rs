//! Wall-clock phase-scoped span aggregation.
//!
//! The bench crate's hot-path harness times whole replays with
//! `std::time::Instant`; this module applies the same plumbing *inside* a
//! run: a [`SpanSet`] accumulates `(count, total, max)` wall-time per named
//! phase (directory transactions, reconciliation walks), so enabling
//! observability answers "where did the host time go" without a sampling
//! profiler.
//!
//! Spans measure the *host*, not the simulated machine — they are profiling
//! state, deliberately excluded from run records and from any determinism
//! guarantee.

use std::fmt;
use std::time::Instant;

/// Aggregate wall time of one named phase.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanAgg {
    /// Phase name.
    pub name: String,
    /// Times the phase ran.
    pub count: u64,
    /// Total wall nanoseconds across all runs.
    pub total_ns: u64,
    /// Longest single run in nanoseconds.
    pub max_ns: u64,
}

impl SpanAgg {
    /// Mean nanoseconds per run, `None` when the phase never ran.
    pub fn mean_ns(&self) -> Option<f64> {
        (self.count > 0).then(|| self.total_ns as f64 / self.count as f64)
    }
}

/// An ordered set of [`SpanAgg`]s, keyed by phase name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanSet {
    spans: Vec<SpanAgg>,
}

impl SpanSet {
    /// An empty set.
    pub fn new() -> SpanSet {
        SpanSet::default()
    }

    /// Record one run of `name` that took `ns` wall nanoseconds.
    pub fn add(&mut self, name: &str, ns: u64) {
        let agg = match self.spans.iter_mut().find(|s| s.name == name) {
            Some(agg) => agg,
            None => {
                self.spans.push(SpanAgg {
                    name: name.to_string(),
                    ..SpanAgg::default()
                });
                self.spans.last_mut().expect("just pushed")
            }
        };
        agg.count += 1;
        agg.total_ns += ns;
        agg.max_ns = agg.max_ns.max(ns);
    }

    /// Time `f` as one run of `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.add(
            name,
            t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
        );
        r
    }

    /// The aggregate for `name`, if it ever ran.
    pub fn get(&self, name: &str) -> Option<&SpanAgg> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// All aggregates in first-seen order.
    pub fn iter(&self) -> impl Iterator<Item = &SpanAgg> {
        self.spans.iter()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

impl fmt::Display for SpanSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.spans.is_empty() {
            return write!(f, "(no spans)");
        }
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(
                f,
                "{:<24} n={:<10} total={:>12}ns mean={:>10.0}ns max={:>10}ns",
                s.name,
                s.count,
                s.total_ns,
                s.mean_ns().unwrap_or(0.0),
                s.max_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates_and_tracks_max() {
        let mut set = SpanSet::new();
        set.add("recon", 10);
        set.add("recon", 30);
        set.add("dir", 5);
        let r = set.get("recon").unwrap();
        assert_eq!((r.count, r.total_ns, r.max_ns), (2, 40, 30));
        assert_eq!(r.mean_ns(), Some(20.0));
        assert_eq!(set.iter().count(), 2);
        assert!(set.get("absent").is_none());
    }

    #[test]
    fn time_measures_the_closure() {
        let mut set = SpanSet::new();
        let val = set.time("work", || std::hint::black_box((0..1000u64).sum::<u64>()));
        assert_eq!(val, 499_500);
        assert_eq!(set.get("work").unwrap().count, 1);
    }

    #[test]
    fn display_lists_every_span() {
        let mut set = SpanSet::new();
        assert_eq!(format!("{set}"), "(no spans)");
        set.add("a", 1);
        set.add("b", 2);
        let text = format!("{set}");
        assert!(text.contains('a') && text.contains('b'));
    }
}
