//! Offline change-point detection.
//!
//! Paper §4.3 ("Tackling reward-decision coupling") proposes borrowing
//! change-point detection — citing PELT (Killick et al. \[23\]) and penalized
//! contrasts (Lavielle \[26\]) — to infer *when our own decisions changed the
//! system state* (e.g. a server sliding from "low load" into "overload"
//! because the policy kept assigning clients to it). The detected segments
//! gate which trace records a state-aware DR estimator may reuse.
//!
//! The detector is [`pelt`] — Pruned Exact Linear Time, the exact minimizer
//! of `sum(seg_cost) + beta * #changepoints` under a pruning condition that
//! holds for the concave costs used here. Its tests check it against the
//! textbook PELT loop, kept there as an oracle.

/// Segment cost models for change-point detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostModel {
    /// Gaussian likelihood cost for a change in **mean** with (assumed)
    /// common variance: `sum (x - mean)^2` within each segment. This is the
    /// right model for a load-level proxy series that shifts level when a
    /// server saturates.
    NormalMean,
    /// Gaussian likelihood cost for a change in mean **and variance**:
    /// `n * log(var)` within each segment (plus constants). Detects
    /// volatility shifts, e.g. queueing delay variance exploding at high
    /// utilization.
    NormalMeanVar,
}

/// Penalty selection for the number of change points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Penalty {
    /// Bayesian information criterion: `p * ln(n)` with `p` the number of
    /// parameters added per change point (1 for mean, 2 for mean+var).
    Bic,
    /// Explicit penalty value per change point.
    Manual(f64),
}

impl Penalty {
    fn value(&self, n: usize, model: CostModel) -> f64 {
        match self {
            Penalty::Manual(b) => {
                assert!(*b >= 0.0, "penalty must be non-negative");
                *b
            }
            Penalty::Bic => {
                let p = match model {
                    CostModel::NormalMean => 1.0,
                    CostModel::NormalMeanVar => 2.0,
                };
                // +1 parameter for the changepoint location itself; the
                // conventional "2 p ln n"-style BIC used by ruptures.
                (p + 1.0) * (n.max(2) as f64).ln()
            }
        }
    }
}

/// Prefix sums enabling O(1) segment cost queries.
struct Prefix {
    sum: Vec<f64>,
    sum_sq: Vec<f64>,
}

impl Prefix {
    fn new(xs: &[f64]) -> Self {
        let mut sum = Vec::with_capacity(xs.len() + 1);
        let mut sum_sq = Vec::with_capacity(xs.len() + 1);
        sum.push(0.0);
        sum_sq.push(0.0);
        for &x in xs {
            sum.push(sum.last().unwrap() + x);
            sum_sq.push(sum_sq.last().unwrap() + x * x);
        }
        Self { sum, sum_sq }
    }

    /// Cost of the half-open segment `[a, b)`, as the test oracle computes
    /// it.
    #[cfg(test)]
    fn cost(&self, a: usize, b: usize, model: CostModel) -> f64 {
        debug_assert!(a < b);
        let n = (b - a) as f64;
        let s = self.sum[b] - self.sum[a];
        let ss = self.sum_sq[b] - self.sum_sq[a];
        let rss = (ss - s * s / n).max(0.0);
        match model {
            CostModel::NormalMean => rss,
            CostModel::NormalMeanVar => {
                // n * log(sigma^2_hat); floor the variance to keep the log
                // finite on constant segments.
                let var = (rss / n).max(1e-12);
                n * var.ln()
            }
        }
    }
}

/// Exact penalized change-point detection via PELT (Killick et al. 2012).
///
/// Returns the sorted change-point indices: each index `t` means "a new
/// segment starts at `t`" (so indices lie in `1..n`). An empty result means
/// the series is best explained by a single segment.
///
/// `min_seg` is the minimum segment length (≥ 1); short floors suppress
/// spurious one-point segments in noisy load series.
///
/// Cost: step `t` scores every candidate that survived pruning, so the scan
/// is near linear when change points are frequent and quadratic on a
/// stationary series, where pruning keeps almost every candidate: about
/// `n²/2` segment costs, ~2M for a 2,048-point window. Each step is one
/// pass over contiguous candidate lanes, which the compiler vectorizes,
/// plus a minimum search; pruned candidates are tombstoned in place, not
/// moved. Every floating-point expression, its operand order and the
/// first-minimum tie-break are those of the textbook loop, which the tests
/// keep as an oracle, so the change points are identical to it.
///
/// # Panics
/// Panics if `xs.len() < 2 * min_seg` or `min_seg == 0`.
pub fn pelt(xs: &[f64], model: CostModel, penalty: Penalty, min_seg: usize) -> Vec<usize> {
    assert!(min_seg >= 1, "min_seg must be at least 1");
    assert!(
        xs.len() >= 2 * min_seg,
        "series of length {} too short for min_seg {}",
        xs.len(),
        min_seg
    );
    let n = xs.len();
    let beta = penalty.value(n, model);
    let pre = Prefix::new(xs);

    // f[t] = optimal cost of xs[..t] (+ beta per internal changepoint).
    let mut f = vec![f64::INFINITY; n + 1];
    f[0] = -beta; // standard PELT initialization so each segment pays beta once
    let mut last_cp = vec![0usize; n + 1];
    let mut lanes = Candidates::default();

    for t in min_seg..=n {
        // Candidate s may end a segment at t once t - s >= min_seg, and
        // pruning only ever looks at such candidates, so s joins exactly
        // then. f[s] is +∞ for 0 < s < min_seg (xs[..s] has no
        // segmentation); such a candidate can never win, so it never joins.
        let s = t - min_seg;
        if f[s] < f64::INFINITY {
            lanes.push(s, f[s], &pre);
        }
        let (tf, sum_t, sum_sq_t) = (t as f64, pre.sum[t], pre.sum_sq[t]);
        match model {
            CostModel::NormalMean => lanes.prune_and_score(f[t - 1], |s, sum, sum_sq| {
                let n = tf - s;
                let a = sum_t - sum;
                let ss = sum_sq_t - sum_sq;
                (ss - a * a / n).max(0.0)
            }),
            CostModel::NormalMeanVar => lanes.prune_and_score(f[t - 1], |s, sum, sum_sq| {
                let n = tf - s;
                let a = sum_t - sum;
                let ss = sum_sq_t - sum_sq;
                let rss = (ss - a * a / n).max(0.0);
                // n * log(sigma^2_hat); floor the variance to keep the log
                // finite on constant segments.
                let var = (rss / n).max(1e-12);
                n * var.ln()
            }),
        }
        let (best, at) = first_min(&lanes.v, beta);
        f[t] = best;
        last_cp[t] = at.map_or(0, |j| lanes.s[j] as usize);
    }

    // Backtrack.
    let mut cps = Vec::new();
    let mut t = n;
    while t > 0 {
        let s = last_cp[t];
        if s == 0 {
            break;
        }
        cps.push(s);
        t = s;
    }
    cps.sort_unstable();
    cps
}

/// PELT's candidates in ascending order of `s`, one lane per operand of
/// the segment cost, so a step is a plain zip over slices.
///
/// A lane whose `f` is `+∞` is a tombstone. A segment cost is never NaN
/// or `-∞` (`max(0.0)` maps both to 0, and the mean-variance cost floors
/// the variance) and the penalty lies in `[0, +∞]`, so a tombstone scores
/// `+∞`, which is never a strict minimum: like the oracle's pruned
/// candidates and its own `f = +∞` ones, it is never selected. Dropping
/// tombstones late therefore changes no `f[t]` and no back-pointer.
#[derive(Default)]
struct Candidates {
    /// `s as f64`: `t as f64 - s` is exact below 2^53, so it equals the
    /// oracle's `(t - s) as f64`.
    s: Vec<f64>,
    f: Vec<f64>,
    sum: Vec<f64>,
    sum_sq: Vec<f64>,
    /// `f[s] + cost(s, t)` from the latest step.
    v: Vec<f64>,
}

impl Candidates {
    fn push(&mut self, s: usize, f: f64, pre: &Prefix) {
        self.s.push(s as f64);
        self.f.push(f);
        self.sum.push(pre.sum[s]);
        self.sum_sq.push(pre.sum_sq[s]);
        // Joined after the previous step's pruning, so it must survive it.
        self.v.push(f64::NEG_INFINITY);
    }

    /// One step's pass. First the previous step's pruning: a lane whose
    /// score exceeded `f_prev` (or is NaN) cannot beat it even with zero
    /// future cost, and becomes a tombstone. Then this step's score
    /// `v = f[s] + cost(s, sum[s], sum_sq[s])`, in the oracle's operand
    /// order. All lanes are compacted once tombstones pass a quarter of
    /// them.
    fn prune_and_score(&mut self, f_prev: f64, cost: impl Fn(f64, f64, f64) -> f64) {
        let mut dead = 0;
        let lanes = self
            .v
            .iter_mut()
            .zip(self.f.iter_mut())
            .zip(self.s.iter().zip(self.sum.iter().zip(&self.sum_sq)));
        for ((v, f), (&s, (&sum, &sum_sq))) in lanes {
            *f = if *v <= f_prev { *f } else { f64::INFINITY };
            dead += usize::from(*f == f64::INFINITY);
            *v = *f + cost(s, sum, sum_sq);
        }
        if dead * 4 > self.f.len() {
            let mut live = 0;
            for j in 0..self.f.len() {
                if self.f[j] < f64::INFINITY {
                    self.s[live] = self.s[j];
                    self.f[live] = self.f[j];
                    self.sum[live] = self.sum[j];
                    self.sum_sq[live] = self.sum_sq[j];
                    self.v[live] = self.v[j];
                    live += 1;
                }
            }
            self.s.truncate(live);
            self.f.truncate(live);
            self.sum.truncate(live);
            self.sum_sq.truncate(live);
            self.v.truncate(live);
        }
    }
}

/// The first strict minimum of `v[j] + beta` and its index, `None` when no
/// sum is below `+∞`: the answer of the sequential `if c < best` scan. The
/// minimum value comes from eight interleaved accumulators, so the pass
/// vectorizes. The scan's index is the first one holding that value, and
/// `v[j] + beta` there is the scan's value, `-0.0`/`0.0` ties included.
fn first_min(v: &[f64], beta: f64) -> (f64, Option<usize>) {
    let mut acc = [f64::INFINITY; 8];
    let chunks = v.chunks_exact(8);
    let rest = chunks.remainder();
    for chunk in chunks {
        for (m, &x) in acc.iter_mut().zip(chunk) {
            let c = x + beta;
            *m = if c < *m { c } else { *m };
        }
    }
    for (m, &x) in acc.iter_mut().zip(rest) {
        let c = x + beta;
        *m = if c < *m { c } else { *m };
    }
    let min = acc
        .into_iter()
        .fold(f64::INFINITY, |a, c| if c < a { c } else { a });
    if min < f64::INFINITY {
        let j = v
            .iter()
            .position(|&x| x + beta == min)
            .expect("the minimum is one of the sums");
        (v[j] + beta, Some(j))
    } else {
        (f64::INFINITY, None)
    }
}

/// Splits a series into segments given change points from [`pelt`];
/// returns `(start, end)` half-open index pairs.
pub fn segments(n: usize, changepoints: &[usize]) -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(changepoints.len() + 1);
    let mut start = 0;
    for &cp in changepoints {
        assert!(
            cp > start && cp < n,
            "changepoint {cp} out of order or range"
        );
        out.push((start, cp));
        start = cp;
    }
    out.push((start, n));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Distribution, Normal};
    use crate::rng::{Rng, Xoshiro256};

    /// The textbook PELT loop `pelt` replaced, kept verbatim as the
    /// reference its change points must equal.
    fn pelt_oracle(xs: &[f64], model: CostModel, penalty: Penalty, min_seg: usize) -> Vec<usize> {
        assert!(min_seg >= 1, "min_seg must be at least 1");
        assert!(
            xs.len() >= 2 * min_seg,
            "series of length {} too short for min_seg {}",
            xs.len(),
            min_seg
        );
        let n = xs.len();
        let beta = penalty.value(n, model);
        let pre = Prefix::new(xs);

        // f[t] = optimal cost of xs[..t] (+ beta per internal changepoint).
        let mut f = vec![f64::INFINITY; n + 1];
        f[0] = -beta; // standard PELT initialization so each segment pays beta once
        let mut last_cp = vec![0usize; n + 1];
        // Candidate previous change points, pruned as we go.
        let mut candidates: Vec<usize> = vec![0];

        for t in min_seg..=n {
            let mut best = f64::INFINITY;
            let mut best_s = 0;
            for &s in &candidates {
                if t - s < min_seg {
                    continue;
                }
                let c = f[s] + pre.cost(s, t, model) + beta;
                if c < best {
                    best = c;
                    best_s = s;
                }
            }
            f[t] = best;
            last_cp[t] = best_s;
            // Pruning: drop s if even with zero future cost it cannot beat f[t].
            candidates.retain(|&s| t - s < min_seg || f[s] + pre.cost(s, t, model) <= f[t]);
            candidates.push(t.saturating_sub(min_seg - 1).max(1).min(t));
            // Keep the canonical candidate t itself (segment could start at t).
            if *candidates.last().unwrap() != t {
                candidates.push(t);
            }
            candidates.sort_unstable();
            candidates.dedup();
        }

        // Backtrack.
        let mut cps = Vec::new();
        let mut t = n;
        while t > 0 {
            let s = last_cp[t];
            if s == 0 {
                break;
            }
            cps.push(s);
            t = s;
        }
        cps.sort_unstable();
        cps
    }

    /// Series shapes for the oracle comparison, by index: stationary
    /// N(2,1); one shift; up to 20 shifts; Bernoulli(0.3); constant; and
    /// N(2,1) with 1.5% NaN, ±∞, 1e300 and -0.0.
    const SHAPES: usize = 6;

    fn shaped_series(shape: usize, n: usize, g: &mut Xoshiro256) -> Vec<f64> {
        let noise = Normal::new(2.0, 1.0);
        match shape {
            0 => noise.sample_n(g, n),
            1 | 2 => {
                let shifts = if shape == 1 { 1 } else { 1 + g.index(20) };
                let mut at: Vec<usize> = (0..shifts).map(|_| g.index(n)).collect();
                at.sort_unstable();
                let mut level = 2.0;
                (0..n)
                    .map(|i| {
                        if at.binary_search(&i).is_ok() {
                            level = g.range_f64(-5.0, 5.0);
                        }
                        level + noise.sample(g) - 2.0
                    })
                    .collect()
            }
            3 => (0..n).map(|_| f64::from(u8::from(g.chance(0.3)))).collect(),
            4 => vec![g.range_f64(-3.0, 3.0); n],
            _ => (0..n)
                .map(|_| {
                    if g.chance(0.015) {
                        [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -0.0][g.index(5)]
                    } else {
                        noise.sample(g)
                    }
                })
                .collect(),
        }
    }

    #[test]
    fn pelt_matches_the_oracle() {
        let penalties = [
            Penalty::Bic,
            Penalty::Manual(0.0),
            Penalty::Manual(3.0),
            Penalty::Manual(1e300),
            Penalty::Manual(f64::INFINITY),
        ];
        // The oracle is quadratic on long stationary series and debug
        // builds run it ~10× slower, so there only every seventh case over
        // 333 points runs (7 is coprime to the 4 × 5 inner loops, so every
        // min_seg and penalty still comes up); release builds run them all.
        let stride = if cfg!(debug_assertions) { 7 } else { 1 };
        let mut g = Xoshiro256::seed_from(2048);
        let (mut case, mut with_changes) = (0, 0);
        for n in [40, 41, 100, 333, 1000, 2048] {
            for shape in 0..SHAPES {
                for min_seg in [1, 2, 5, 20] {
                    for penalty in penalties {
                        for model in [CostModel::NormalMean, CostModel::NormalMeanVar] {
                            if model == CostModel::NormalMeanVar && n > 333 {
                                continue;
                            }
                            case += 1;
                            if n > 333 && case % stride != 0 {
                                continue;
                            }
                            let xs = shaped_series(shape, n, &mut g);
                            let cps = pelt(&xs, model, penalty, min_seg);
                            assert_eq!(
                                cps,
                                pelt_oracle(&xs, model, penalty, min_seg),
                                "shape {shape}, n {n}, min_seg {min_seg}, {penalty:?}, {model:?}"
                            );
                            with_changes += usize::from(!cps.is_empty());
                        }
                    }
                }
            }
        }
        assert!(
            with_changes > 100,
            "only {with_changes} series had change points"
        );
    }

    fn series_with_shift(n1: usize, n2: usize, m1: f64, m2: f64, std: f64, seed: u64) -> Vec<f64> {
        let mut g = Xoshiro256::seed_from(seed);
        let mut xs = Normal::new(m1, std).sample_n(&mut g, n1);
        xs.extend(Normal::new(m2, std).sample_n(&mut g, n2));
        xs
    }

    #[test]
    fn pelt_finds_clear_mean_shift() {
        let xs = series_with_shift(100, 100, 0.0, 5.0, 1.0, 42);
        let cps = pelt(&xs, CostModel::NormalMean, Penalty::Bic, 5);
        assert_eq!(
            cps.len(),
            1,
            "expected exactly one changepoint, got {cps:?}"
        );
        assert!(
            (cps[0] as i64 - 100).unsigned_abs() <= 3,
            "changepoint {} too far from 100",
            cps[0]
        );
    }

    #[test]
    fn pelt_silent_on_stationary_series() {
        let mut g = Xoshiro256::seed_from(7);
        let xs = Normal::new(2.0, 1.0).sample_n(&mut g, 300);
        let cps = pelt(&xs, CostModel::NormalMean, Penalty::Bic, 5);
        assert!(
            cps.is_empty(),
            "false positives on stationary series: {cps:?}"
        );
    }

    #[test]
    fn pelt_finds_two_shifts() {
        let mut xs = series_with_shift(80, 80, 0.0, 4.0, 0.8, 3);
        let mut g = Xoshiro256::seed_from(4);
        xs.extend(Normal::new(-3.0, 0.8).sample_n(&mut g, 80));
        let cps = pelt(&xs, CostModel::NormalMean, Penalty::Bic, 5);
        assert_eq!(cps.len(), 2, "expected two changepoints, got {cps:?}");
        assert!((cps[0] as i64 - 80).unsigned_abs() <= 3);
        assert!((cps[1] as i64 - 160).unsigned_abs() <= 3);
    }

    #[test]
    fn pelt_meanvar_detects_variance_shift() {
        let mut g = Xoshiro256::seed_from(21);
        let mut xs = Normal::new(0.0, 0.5).sample_n(&mut g, 150);
        xs.extend(Normal::new(0.0, 4.0).sample_n(&mut g, 150));
        let cps = pelt(&xs, CostModel::NormalMeanVar, Penalty::Bic, 10);
        assert!(!cps.is_empty(), "variance shift missed");
        assert!(
            (cps[0] as i64 - 150).unsigned_abs() <= 10,
            "variance changepoint {} too far from 150",
            cps[0]
        );
    }

    #[test]
    fn manual_penalty_controls_sensitivity() {
        // Small shift: a huge penalty should suppress detection, a tiny one allow it.
        let xs = series_with_shift(100, 100, 0.0, 1.0, 1.0, 5);
        let strict = pelt(&xs, CostModel::NormalMean, Penalty::Manual(1e6), 5);
        assert!(strict.is_empty());
        let lax = pelt(&xs, CostModel::NormalMean, Penalty::Manual(5.0), 5);
        assert!(!lax.is_empty());
    }

    #[test]
    fn segments_partition_series() {
        let segs = segments(10, &[3, 7]);
        assert_eq!(segs, vec![(0, 3), (3, 7), (7, 10)]);
        let segs = segments(5, &[]);
        assert_eq!(segs, vec![(0, 5)]);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn pelt_short_series_panics() {
        let _ = pelt(&[1.0, 2.0], CostModel::NormalMean, Penalty::Bic, 5);
    }

    #[test]
    fn min_seg_respected() {
        let xs = series_with_shift(50, 50, 0.0, 6.0, 1.0, 13);
        let cps = pelt(&xs, CostModel::NormalMean, Penalty::Bic, 20);
        for &cp in &cps {
            assert!((20..=80).contains(&cp), "changepoint {cp} violates min_seg");
        }
    }
}
