//! Process-wide metric primitives: atomic counters, gauges, log-bucketed
//! histograms, and a thread-safe [`Registry`] that owns named instances.
//!
//! These are the *cross-run*, *cross-thread* side of telemetry — cheap
//! enough to leave compiled into hot paths (one relaxed atomic op per
//! update, no locks after handle acquisition). The per-run deterministic
//! side lives in [`crate::collector`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use ddn_stats::Json;

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `delta`.
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-write-wins instantaneous value (stored as `f64` bits).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Self {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the value.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (which may be negative) in one atomic step, so
    /// concurrent adds never lose an update. Exact while the value and
    /// every delta are whole numbers below 2^53: an up/down count.
    pub fn add(&self, delta: f64) {
        let step = |bits| Some((f64::from_bits(bits) + delta).to_bits());
        let _ = self
            .bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, step);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of buckets in a [`Histogram`]: one zero bucket plus one per
/// power of two up to `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Fixed-size log2-bucketed histogram of `u64` samples (typically
/// nanoseconds or byte counts).
///
/// Bucket 0 holds exactly the value `0`; bucket `i >= 1` holds values in
/// `[2^(i-1), 2^i)` (the last bucket's upper bound saturates at
/// `u64::MAX`). Recording is a single relaxed `fetch_add`, so histograms
/// can sit on hot paths shared across threads without a lock.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; HISTOGRAM_BUCKETS],
    total: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of the bucket `value` falls into.
    pub fn bucket_index(value: u64) -> usize {
        // 0 has 64 leading zeros -> bucket 0; 2^k has 63-k -> bucket k+1.
        64 - value.leading_zeros() as usize
    }

    /// Inclusive `(low, high)` value range covered by bucket `index`.
    ///
    /// Panics if `index >= HISTOGRAM_BUCKETS`.
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        assert!(index < HISTOGRAM_BUCKETS, "bucket index out of range");
        match index {
            0 => (0, 0),
            64 => (1 << 63, u64::MAX),
            i => (1 << (i - 1), (1 << i) - 1),
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.counts[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Per-bucket counts, in bucket order.
    pub fn counts(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Total number of recorded samples.
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples (wrapping on overflow, like the adds).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Adds every sample of `other` into `self`, bucket by bucket.
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter().zip(other.counts.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.total
            .fetch_add(other.total.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Estimated value at quantile `q` (clamped to `[0, 1]`): the
    /// inclusive upper bound of the log2 bucket holding the sample of
    /// rank `ceil(q·n)`. With power-of-two buckets the estimate is
    /// within 2x of the true quantile — plenty for p50/p99 dashboards
    /// over nanosecond latencies. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_from_counts(&self.counts(), q)
    }

    /// JSON snapshot: total count, sum, and the non-empty buckets as
    /// `{"le": inclusive_upper_bound, "count": n}` in bucket order.
    pub fn to_json(&self) -> Json {
        let buckets = self
            .counts
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let n = c.load(Ordering::Relaxed);
                if n == 0 {
                    return None;
                }
                let (_, hi) = Self::bucket_bounds(i);
                Some(Json::object(vec![
                    ("le", Json::Int(hi.min(i64::MAX as u64) as i64)),
                    ("count", Json::Int(n as i64)),
                ]))
            })
            .collect();
        Json::object(vec![
            ("count", Json::Int(self.total() as i64)),
            ("sum", Json::Int(self.sum().min(i64::MAX as u64) as i64)),
            ("buckets", Json::Array(buckets)),
        ])
    }
}

/// Quantile estimate over raw per-bucket counts in [`Histogram`] bucket
/// order (`counts.len() <= HISTOGRAM_BUCKETS`): the inclusive upper
/// bound of the bucket holding the rank-`ceil(q·n)` sample. Returns 0
/// when every count is zero.
pub fn quantile_from_counts(counts: &[u64], q: f64) -> u64 {
    assert!(
        counts.len() <= HISTOGRAM_BUCKETS,
        "more buckets than a Histogram has"
    );
    let bounded: Vec<(u64, u64)> = counts
        .iter()
        .enumerate()
        .map(|(i, &c)| (Histogram::bucket_bounds(i).1, c))
        .collect();
    quantile_from_le_buckets(&bounded, q)
}

/// Quantile estimate over `(le, count)` pairs — the wire form the
/// `stats` verb serves ([`Histogram::to_json`] buckets) — so scrapers
/// like `ddn top` can compute p50/p99 without reconstructing a
/// [`Histogram`]. Pairs must be in ascending `le` order; empty buckets
/// may be omitted. Returns 0 when every count is zero.
pub fn quantile_from_le_buckets(buckets: &[(u64, u64)], q: f64) -> u64 {
    let total: u64 = buckets.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return 0;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cum = 0u64;
    for &(le, count) in buckets {
        cum += count;
        if cum >= rank {
            return le;
        }
    }
    buckets.last().map(|&(le, _)| le).unwrap_or(0)
}

/// Thread-safe name → metric map. Handles are `Arc`s, so callers fetch
/// once and update lock-free afterwards.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<Vec<(String, Arc<Counter>)>>,
    gauges: Mutex<Vec<(String, Arc<Gauge>)>>,
    histograms: Mutex<Vec<(String, Arc<Histogram>)>>,
}

fn get_or_insert<T: Default>(list: &Mutex<Vec<(String, Arc<T>)>>, name: &str) -> Arc<T> {
    let mut guard = list.lock().expect("telemetry registry poisoned");
    if let Some((_, v)) = guard.iter().find(|(n, _)| n == name) {
        return Arc::clone(v);
    }
    let v = Arc::new(T::default());
    guard.push((name.to_string(), Arc::clone(&v)));
    v
}

impl Registry {
    /// Creates an empty registry (tests; production code uses [`Registry::global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::default)
    }

    /// Fetches (creating on first use) the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name)
    }

    /// Fetches (creating on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name)
    }

    /// Fetches (creating on first use) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name)
    }

    /// True when no metric has ever been registered.
    pub fn is_empty(&self) -> bool {
        self.counters.lock().expect("poisoned").is_empty()
            && self.gauges.lock().expect("poisoned").is_empty()
            && self.histograms.lock().expect("poisoned").is_empty()
    }

    /// JSON snapshot of every registered metric, names sorted so the
    /// output is independent of registration order.
    pub fn to_json(&self) -> Json {
        fn sorted<T, F: Fn(&T) -> Json>(list: &Mutex<Vec<(String, Arc<T>)>>, render: F) -> Json {
            let mut entries: Vec<(String, Json)> = list
                .lock()
                .expect("poisoned")
                .iter()
                .map(|(n, v)| (n.clone(), render(v)))
                .collect();
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            Json::Object(entries)
        }
        Json::object(vec![
            (
                "counters",
                sorted(&self.counters, |c: &Counter| Json::Int(c.get() as i64)),
            ),
            (
                "gauges",
                sorted(&self.gauges, |g: &Gauge| Json::Num(g.get())),
            ),
            (
                "histograms",
                sorted(&self.histograms, |h: &Histogram| h.to_json()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("events");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("events").get(), 5);
        let g = r.gauge("threads");
        g.set(8.0);
        assert_eq!(r.gauge("threads").get(), 8.0);
        assert!(!r.is_empty());
    }

    #[test]
    fn gauge_add_moves_an_up_down_count() {
        let g = Gauge::new();
        g.add(3.0);
        g.add(-1.0);
        assert_eq!(g.get(), 2.0);
        g.add(-2.0);
        assert_eq!(g.get().to_bits(), 0f64.to_bits(), "back to +0, not -0");
    }

    #[test]
    fn histogram_bucket_indexing() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        assert_eq!(h.total(), 6);
        assert_eq!(h.sum(), 1010);
        let counts = h.counts();
        assert_eq!(counts[0], 1); // 0
        assert_eq!(counts[1], 1); // 1
        assert_eq!(counts[2], 2); // 2,3
        assert_eq!(counts[3], 1); // 4
        assert_eq!(counts[10], 1); // 1000 in [512,1024)
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(5);
        b.record(5);
        b.record(900);
        a.merge_from(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.counts()[3], 2);
    }

    #[test]
    fn bucket_index_edges() {
        // The three values a log2 scheme can get wrong: zero (no leading
        // bit), one (first power), and the saturating top.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index((1 << 63) - 1), 63);
        assert_eq!(Histogram::bucket_index(1 << 63), 64);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_bounds_edges_and_contiguity() {
        assert_eq!(Histogram::bucket_bounds(0), (0, 0));
        assert_eq!(Histogram::bucket_bounds(1), (1, 1));
        assert_eq!(Histogram::bucket_bounds(64), (1 << 63, u64::MAX));
        // Buckets tile u64 exactly: no gaps, no overlaps, and every
        // bound maps back to its own bucket.
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert!(lo <= hi, "bucket {i} inverted");
            assert_eq!(Histogram::bucket_index(lo), i, "low bound of {i}");
            assert_eq!(Histogram::bucket_index(hi), i, "high bound of {i}");
            if i + 1 < HISTOGRAM_BUCKETS {
                assert_eq!(
                    hi + 1,
                    Histogram::bucket_bounds(i + 1).0,
                    "gap after bucket {i}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "bucket index out of range")]
    fn bucket_bounds_rejects_out_of_range() {
        Histogram::bucket_bounds(HISTOGRAM_BUCKETS);
    }

    #[test]
    fn extreme_values_record_and_saturate_in_json() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        assert_eq!(h.total(), 3);
        let counts = h.counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[64], 1);
        // The raw sum wraps like the atomic adds (0 + 1 + u64::MAX = 0),
        // but the JSON form clamps to i64::MAX so the wire never carries
        // a wrapped (or negative) sum.
        assert_eq!(h.sum(), 0);
        let h2 = Histogram::new();
        h2.record(u64::MAX);
        let j = h2.to_json();
        assert_eq!(j.get("sum").unwrap().as_i64(), Some(i64::MAX));
        let buckets = j.get("buckets").unwrap().as_array().unwrap();
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].get("le").unwrap().as_i64(), Some(i64::MAX));
        assert_eq!(buckets[0].get("count").unwrap().as_i64(), Some(1));
    }

    #[test]
    fn merge_from_edges() {
        let a = Histogram::new();
        let b = Histogram::new();
        b.record(0);
        b.record(u64::MAX);
        a.merge_from(&b);
        a.merge_from(&Histogram::new()); // empty merge is a no-op
        assert_eq!(a.total(), 2);
        assert_eq!(a.counts()[0], 1);
        assert_eq!(a.counts()[64], 1);
        assert_eq!(a.sum(), b.sum());
    }

    /// Golden pin of the bucket boundaries behind the `stats` wire
    /// format: bucket 0 is exactly zero, bucket i >= 1 is
    /// [2^(i-1), 2^i), and the top bucket saturates at u64::MAX. If
    /// this test fails, the `le` values every scraper stores have
    /// silently shifted — that is a breaking change to make here,
    /// deliberately.
    #[test]
    fn bucket_boundaries_golden() {
        let golden_le: Vec<u64> = std::iter::once(0)
            .chain((1..64).map(|i| (1u64 << i) - 1))
            .chain(std::iter::once(u64::MAX))
            .collect();
        let got: Vec<u64> = (0..HISTOGRAM_BUCKETS)
            .map(|i| Histogram::bucket_bounds(i).1)
            .collect();
        assert_eq!(got, golden_le);
        assert_eq!(&got[..5], &[0, 1, 3, 7, 15]);
        assert_eq!(got[10], 1023);
        assert_eq!(got[63], i64::MAX as u64);
    }

    #[test]
    fn quantiles_from_buckets() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        for _ in 0..99 {
            h.record(100); // bucket [64, 127]
        }
        h.record(100_000); // bucket [65536, 131071]
        assert_eq!(h.quantile(0.0), 127);
        assert_eq!(h.quantile(0.5), 127);
        assert_eq!(h.quantile(0.99), 127);
        assert_eq!(h.quantile(1.0), 131_071);
        // The wire form gives the same answers.
        let pairs = [(127u64, 99u64), (131_071, 1)];
        assert_eq!(quantile_from_le_buckets(&pairs, 0.5), 127);
        assert_eq!(quantile_from_le_buckets(&pairs, 1.0), 131_071);
        assert_eq!(quantile_from_le_buckets(&[], 0.5), 0);
        assert_eq!(quantile_from_counts(&[0, 0, 0], 0.9), 0);
        let mut counts = vec![0u64; HISTOGRAM_BUCKETS];
        counts[0] = 1;
        assert_eq!(quantile_from_counts(&counts, 0.5), 0);
    }

    #[test]
    fn registry_json_is_name_sorted() {
        let r = Registry::new();
        r.counter("zeta").inc();
        r.counter("alpha").inc();
        let j = r.to_json();
        let counters = j.get("counters").unwrap().as_object().unwrap();
        assert_eq!(counters[0].0, "alpha");
        assert_eq!(counters[1].0, "zeta");
    }
}
