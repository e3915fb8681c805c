//! Named counters and log2-bucket histograms.

use std::fmt;

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i` (1..=64)
/// holds values `v` with `2^(i-1) <= v < 2^i` — i.e. 64-bit values bucketed
/// by their highest set bit.
pub const HIST_BUCKETS: usize = 65;

/// A log2-bucket histogram of `u64` samples.
///
/// Power-of-two buckets give a constant-size summary with bounded relative
/// error (each bucket spans a 2x range), which is exactly what latency and
/// size distributions need: the interesting signal is "how heavy is the
/// tail", not the third significant digit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hist {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist::new()
    }
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Hist {
        Hist {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket a value lands in: 0 for 0, otherwise `64 - leading_zeros`
    /// (so exact powers of two open a new bucket: 1→1, 2→2, 3→2, 4→3, ...).
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// The smallest value bucket `i` can hold (`0` for bucket 0).
    pub fn bucket_lower_bound(i: usize) -> u64 {
        assert!(i < HIST_BUCKETS, "bucket {i} out of range");
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// The largest value bucket `i` can hold.
    pub fn bucket_upper_bound(i: usize) -> u64 {
        assert!(i < HIST_BUCKETS, "bucket {i} out of range");
        if i == 0 {
            0
        } else if i == 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Record one sample.
    #[inline]
    pub fn add(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean sample, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The non-empty buckets as `(bucket index, count)`, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Hist) {
        for (i, c) in other.nonzero_buckets() {
            self.buckets[i] += c;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

impl fmt::Display for Hist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            return write!(f, "(empty)");
        }
        write!(
            f,
            "n={} min={} mean={:.1} max={}",
            self.count,
            self.min,
            self.mean().unwrap_or(0.0),
            self.max
        )?;
        for (i, c) in self.nonzero_buckets() {
            write!(
                f,
                " [{}..{}]={}",
                Hist::bucket_lower_bound(i),
                Hist::bucket_upper_bound(i),
                c
            )?;
        }
        Ok(())
    }
}

/// An ordered collection of named counters and histograms.
///
/// The sim-side recorder folds its typed state into one of these at the end
/// of an observed run, and the exporters print it. Names are unique;
/// insertion order is preserved, so renderings are stable.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    hists: Vec<(String, Hist)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Set counter `name` to `v` (inserting it if new).
    pub fn set_counter(&mut self, name: &str, v: u64) {
        match self.counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, slot)) => *slot = v,
            None => self.counters.push((name.to_string(), v)),
        }
    }

    /// Add `v` to counter `name` (inserting it at zero if new).
    pub fn add_counter(&mut self, name: &str, v: u64) {
        match self.counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, slot)) => *slot += v,
            None => self.counters.push((name.to_string(), v)),
        }
    }

    /// The value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Install (or replace) histogram `name`.
    pub fn set_hist(&mut self, name: &str, h: Hist) {
        match self.hists.iter_mut().find(|(n, _)| n == name) {
            Some((_, slot)) => *slot = h,
            None => self.hists.push((name.to_string(), h)),
        }
    }

    /// Histogram `name`, if present.
    pub fn hist(&self, name: &str) -> Option<&Hist> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// All counters in insertion order.
    pub fn counters(&self) -> &[(String, u64)] {
        &self.counters
    }

    /// All histograms in insertion order.
    pub fn hists(&self) -> &[(String, Hist)] {
        &self.hists
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_equals_bulk_add() {
        let mut a = Hist::new();
        let mut b = Hist::new();
        let mut all = Hist::new();
        for v in [1u64, 2, 3] {
            a.add(v);
            all.add(v);
        }
        for v in [0u64, 900, u64::MAX] {
            b.add(v);
            all.add(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn registry_looks_up_counters_and_hists() {
        let mut r = MetricsRegistry::new();
        r.set_counter("accesses", 10);
        r.add_counter("accesses", 5);
        r.add_counter("reconciles", 2);
        let mut h = Hist::new();
        h.add(17);
        r.set_hist("miss_latency", h.clone());
        assert_eq!(r.counter("accesses"), Some(15));
        assert_eq!(r.counter("missing"), None);
        assert_eq!(r.hist("miss_latency"), Some(&h));
    }
}
