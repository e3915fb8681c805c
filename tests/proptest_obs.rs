//! Unit tests pinning the observability layer's log2 histogram: its bucket
//! boundaries and the summary statistics it tracks.

use warden::obs::metrics::HIST_BUCKETS;
use warden::obs::Hist;

#[test]
fn hist_bucket_boundaries_are_exact_powers_of_two() {
    // Bucket 0 holds only zero; bucket i (i >= 1) holds [2^(i-1), 2^i - 1].
    assert_eq!(Hist::bucket_of(0), 0);
    for i in 1..64 {
        let lo = 1u64 << (i - 1);
        assert_eq!(Hist::bucket_of(lo), i, "lower bound of bucket {i}");
        assert_eq!(Hist::bucket_of(lo - 1), i - 1, "below bucket {i}");
        let hi = (1u64 << i).wrapping_sub(1);
        assert_eq!(Hist::bucket_of(hi), i, "upper bound of bucket {i}");
    }
    assert_eq!(Hist::bucket_of(u64::MAX), 64);
    for i in 1..64 {
        assert_eq!(Hist::bucket_lower_bound(i), 1u64 << (i - 1));
        assert_eq!(Hist::bucket_upper_bound(i), (1u64 << i) - 1);
    }
    // Every bucket, the zero bucket and the top one included, holds its
    // own bounds.
    for i in 0..HIST_BUCKETS {
        assert_eq!(Hist::bucket_of(Hist::bucket_lower_bound(i)), i);
        assert_eq!(Hist::bucket_of(Hist::bucket_upper_bound(i)), i);
    }
}

#[test]
fn hist_summary_statistics_track_added_values() {
    let mut h = Hist::new();
    assert_eq!((h.min(), h.max(), h.mean()), (None, None, None));
    for v in [5u64, 0, 1000, 5] {
        h.add(v);
    }
    assert_eq!(h.sum(), 1010);
    assert_eq!(h.mean(), Some(252.5));
    for v in [1, 2, 3, 1024, u64::MAX] {
        h.add(v);
    }
    assert_eq!(h.count(), 9);
    assert_eq!(h.min(), Some(0));
    assert_eq!(h.max(), Some(u64::MAX));
    let buckets: Vec<(usize, u64)> = h.nonzero_buckets().collect();
    assert_eq!(
        buckets,
        vec![(0, 1), (1, 1), (2, 2), (3, 2), (10, 1), (11, 1), (64, 1)]
    );
}
