//! Named counters and log2-bucket histograms with a checkpoint codec.

use std::fmt;
use warden_mem::codec::{CodecError, Decoder, Encoder};

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

    /// Serialize (sparse: only non-empty buckets travel).
    pub fn encode_into(&self, enc: &mut Encoder) {
        enc.put_u64(self.count);
        enc.put_u64(self.sum);
        enc.put_u64(self.min);
        enc.put_u64(self.max);
        let nz: Vec<(usize, u64)> = self.nonzero_buckets().collect();
        enc.put_usize(nz.len());
        for (i, c) in nz {
            enc.put_u8(i as u8);
            enc.put_u64(c);
        }
    }

    /// Decode a histogram serialized by [`Self::encode_into`].
    pub fn decode_from(dec: &mut Decoder<'_>) -> Result<Hist, CodecError> {
        let count = dec.take_u64()?;
        let sum = dec.take_u64()?;
        let min = dec.take_u64()?;
        let max = dec.take_u64()?;
        let n = dec.take_count(9)?;
        let mut buckets = [0u64; HIST_BUCKETS];
        let mut last: Option<usize> = None;
        let mut total = 0u64;
        for _ in 0..n {
            let i = dec.take_u8()? as usize;
            if i >= HIST_BUCKETS {
                return Err(CodecError::Invalid {
                    what: "histogram",
                    detail: format!("bucket index {i} out of range"),
                });
            }
            if last.is_some_and(|l| i <= l) {
                return Err(CodecError::Invalid {
                    what: "histogram",
                    detail: format!("bucket indices not strictly ascending at {i}"),
                });
            }
            let c = dec.take_u64()?;
            if c == 0 {
                return Err(CodecError::Invalid {
                    what: "histogram",
                    detail: format!("bucket {i} serialized with a zero count"),
                });
            }
            buckets[i] = c;
            total = total.wrapping_add(c);
            last = Some(i);
        }
        if total != count {
            return Err(CodecError::Invalid {
                what: "histogram",
                detail: format!("bucket counts sum to {total}, header says {count}"),
            });
        }
        Ok(Hist {
            buckets,
            count,
            sum,
            min,
            max,
        })
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
/// The registry is the serialization surface of the observability layer:
/// the sim-side recorder folds its typed state into one of these, it rides
/// inside campaign records through the outcome codec, and the exporters
/// print it. Names are unique; insertion order is preserved (so encode →
/// decode → encode is byte-identical, the property every checkpoint codec
/// in this workspace keeps).
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

    /// Serialize the registry.
    pub fn encode_into(&self, enc: &mut Encoder) {
        enc.put_usize(self.counters.len());
        for (name, v) in &self.counters {
            enc.put_str(name);
            enc.put_u64(*v);
        }
        enc.put_usize(self.hists.len());
        for (name, h) in &self.hists {
            enc.put_str(name);
            h.encode_into(enc);
        }
    }

    /// Decode a registry serialized by [`Self::encode_into`].
    pub fn decode_from(dec: &mut Decoder<'_>) -> Result<MetricsRegistry, CodecError> {
        let nc = dec.take_count(9)?;
        let mut counters = Vec::with_capacity(nc);
        for _ in 0..nc {
            let name = dec.take_str()?;
            if counters.iter().any(|(n, _): &(String, u64)| *n == name) {
                return Err(CodecError::Invalid {
                    what: "metrics registry",
                    detail: format!("duplicate counter {name:?}"),
                });
            }
            let v = dec.take_u64()?;
            counters.push((name, v));
        }
        let nh = dec.take_count(33)?;
        let mut hists = Vec::with_capacity(nh);
        for _ in 0..nh {
            let name = dec.take_str()?;
            if hists.iter().any(|(n, _): &(String, Hist)| *n == name) {
                return Err(CodecError::Invalid {
                    what: "metrics registry",
                    detail: format!("duplicate histogram {name:?}"),
                });
            }
            let h = Hist::decode_from(dec)?;
            hists.push((name, h));
        }
        Ok(MetricsRegistry { counters, hists })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_split_on_powers_of_two() {
        // Bucket 0 is exactly {0}; bucket i (i >= 1) is [2^(i-1), 2^i).
        assert_eq!(Hist::bucket_of(0), 0);
        assert_eq!(Hist::bucket_of(1), 1);
        assert_eq!(Hist::bucket_of(2), 2);
        assert_eq!(Hist::bucket_of(3), 2);
        assert_eq!(Hist::bucket_of(4), 3);
        assert_eq!(Hist::bucket_of(7), 3);
        assert_eq!(Hist::bucket_of(8), 4);
        for i in 1..64 {
            // Every power of two opens a fresh bucket; its predecessor
            // closes the previous one.
            assert_eq!(Hist::bucket_of(1u64 << i), i + 1, "2^{i}");
            assert_eq!(Hist::bucket_of((1u64 << i) - 1), i, "2^{i}-1");
        }
        assert_eq!(Hist::bucket_of(u64::MAX), 64);
        for i in 0..HIST_BUCKETS {
            let lo = Hist::bucket_lower_bound(i);
            let hi = Hist::bucket_upper_bound(i);
            assert!(lo <= hi);
            assert_eq!(Hist::bucket_of(lo), i, "lower bound of {i}");
            assert_eq!(Hist::bucket_of(hi), i, "upper bound of {i}");
        }
    }

    #[test]
    fn add_tracks_count_sum_min_max() {
        let mut h = Hist::new();
        assert_eq!(h.min(), None);
        assert_eq!(h.mean(), None);
        for v in [5u64, 0, 1000, 5] {
            h.add(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1010);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        assert_eq!(h.mean(), Some(252.5));
        assert_eq!(h.nonzero_buckets().count(), 3); // {0}, {5,5}, {1000}
    }

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
    fn hist_codec_round_trips() {
        let mut h = Hist::new();
        for v in [0u64, 1, 3, 64, 65, 1 << 40, u64::MAX] {
            h.add(v);
        }
        let mut enc = Encoder::new();
        h.encode_into(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = Hist::decode_from(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn hist_decode_rejects_inconsistent_payloads() {
        // A bucket count total that disagrees with the header must not pass.
        let mut enc = Encoder::new();
        enc.put_u64(5); // count (lies: bucket says 1)
        enc.put_u64(1); // sum
        enc.put_u64(1); // min
        enc.put_u64(1); // max
        enc.put_usize(1);
        enc.put_u8(1);
        enc.put_u64(1);
        let bytes = enc.into_bytes();
        assert!(matches!(
            Hist::decode_from(&mut Decoder::new(&bytes)),
            Err(CodecError::Invalid { .. })
        ));
    }

    #[test]
    fn registry_round_trips_and_looks_up() {
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

        let mut enc = Encoder::new();
        r.encode_into(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = MetricsRegistry::decode_from(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(back, r);

        // Canonical re-encode: same bytes.
        let mut enc2 = Encoder::new();
        back.encode_into(&mut enc2);
        assert_eq!(enc2.bytes(), &bytes[..]);
    }

    #[test]
    fn registry_truncation_is_typed() {
        let mut r = MetricsRegistry::new();
        r.set_counter("a", 1);
        let mut h = Hist::new();
        h.add(2);
        r.set_hist("b", h);
        let mut enc = Encoder::new();
        r.encode_into(&mut enc);
        let bytes = enc.into_bytes();
        for cut in 0..bytes.len() {
            let mut dec = Decoder::new(&bytes[..cut]);
            let res = MetricsRegistry::decode_from(&mut dec).and_then(|v| {
                dec.finish()?;
                Ok(v)
            });
            assert!(res.is_err(), "prefix of {cut} bytes decoded");
        }
    }
}
