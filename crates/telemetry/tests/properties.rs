//! Property tests for histogram bucketing, on the in-repo `ddn-testkit`
//! framework: bucket bounds are monotone and contiguous, every sample
//! lands in the bucket whose bounds contain it, and merging conserves
//! total counts bucket-by-bucket.

use ddn_telemetry::{Histogram, HISTOGRAM_BUCKETS};
use ddn_testkit::{prop, prop_assert, prop_assert_eq, vecs};

#[test]
fn bounds_are_monotone_and_contiguous() {
    let (lo0, hi0) = Histogram::bucket_bounds(0);
    assert_eq!((lo0, hi0), (0, 0));
    for i in 1..HISTOGRAM_BUCKETS {
        let (prev_lo, prev_hi) = Histogram::bucket_bounds(i - 1);
        let (lo, hi) = Histogram::bucket_bounds(i);
        assert!(prev_lo <= prev_hi, "bucket {} inverted", i - 1);
        assert!(lo <= hi, "bucket {i} inverted");
        assert_eq!(
            lo,
            prev_hi + 1,
            "gap or overlap between buckets {} and {i}",
            i - 1
        );
    }
    assert_eq!(Histogram::bucket_bounds(HISTOGRAM_BUCKETS - 1).1, u64::MAX);
}

prop! {
    fn samples_land_in_their_buckets_bounds(vals in vecs(0u64..u64::MAX, 1..50)) {
        for &v in &vals {
            let i = Histogram::bucket_index(v);
            prop_assert!(i < HISTOGRAM_BUCKETS);
            let (lo, hi) = Histogram::bucket_bounds(i);
            prop_assert!(lo <= v && v <= hi, "value {} outside bucket {} = [{}, {}]", v, i, lo, hi);
        }
    }

    fn total_count_equals_samples_recorded(vals in vecs(0u64..1_000_000, 0..80)) {
        let h = Histogram::new();
        for &v in &vals {
            h.record(v);
        }
        prop_assert_eq!(h.total(), vals.len() as u64);
        let bucket_sum: u64 = h.counts().iter().sum();
        prop_assert_eq!(bucket_sum, vals.len() as u64);
    }

    fn merge_conserves_counts_per_bucket(
        xs in vecs(0u64..1_000_000, 0..60),
        ys in vecs(0u64..1_000_000, 0..60),
    ) {
        // Recording xs and ys separately then merging must equal
        // recording everything into one histogram.
        let a = Histogram::new();
        let b = Histogram::new();
        let combined = Histogram::new();
        for &v in &xs {
            a.record(v);
            combined.record(v);
        }
        for &v in &ys {
            b.record(v);
            combined.record(v);
        }
        a.merge_from(&b);
        prop_assert_eq!(a.total(), combined.total());
        prop_assert_eq!(a.sum(), combined.sum());
        prop_assert_eq!(a.counts(), combined.counts());
    }
}
