//! Large composite-action-space scenario generator.
//!
//! The marginalized estimators (ROADMAP item 3b) exist because production
//! decision spaces are *composite* — CDN × bitrate × relay easily reaches
//! thousands of arms — and their property tests need whole scenarios, not
//! scalars: a group assignment over many arms, a full logging
//! distribution, a (possibly concentrated) target distribution, and a log
//! sampled from the logging distribution. [`composite_scenarios`] draws
//! those as one shrinkable value, so a failing marginalization property
//! reports a minimal scenario (fewest records, fewest effective groups)
//! instead of a thousand-arm wall of floats.

use crate::gen::Gen;
use ddn_stats::rng::{Rng, Xoshiro256};
use std::fmt;
use std::ops::Range;

/// One generated large-action-space scenario.
///
/// Invariants upheld by generation and preserved by shrinking:
/// - `groups.len() >= 2` (the arm count), every group id `< groups.len()`;
/// - `logging` and `target` have one strictly positive entry per arm and
///   each sums to 1 (up to float rounding);
/// - every record's arm index is in range.
#[derive(Clone, PartialEq)]
pub struct CompositeScenario {
    /// Per-arm group id ("which CDN") — the action embedding.
    pub groups: Vec<usize>,
    /// Full logging distribution over arms.
    pub logging: Vec<f64>,
    /// Target distribution over arms (often concentrated on a hot arm —
    /// the regime where vanilla per-arm weights explode).
    pub target: Vec<f64>,
    /// Logged `(arm, reward)` pairs, arms sampled from `logging`.
    pub records: Vec<(usize, f64)>,
}

impl CompositeScenario {
    /// Number of arms.
    pub fn arms(&self) -> usize {
        self.groups.len()
    }

    /// Number of distinct groups actually used.
    pub fn num_groups(&self) -> usize {
        self.groups.iter().max().map_or(0, |m| m + 1)
    }

    /// The logging propensity of `arm`.
    pub fn propensity(&self, arm: usize) -> f64 {
        self.logging[arm]
    }

    /// Marginal mass of a distribution over `arm`'s group.
    pub fn marginal(&self, dist: &[f64], arm: usize) -> f64 {
        let g = self.groups[arm];
        dist.iter()
            .enumerate()
            .filter(|(a, _)| self.groups[*a] == g)
            .map(|(_, p)| *p)
            .sum()
    }
}

impl fmt::Debug for CompositeScenario {
    /// Summarized — a thousand-arm scenario printed raw would bury the
    /// counterexample.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompositeScenario")
            .field("arms", &self.arms())
            .field("num_groups", &self.num_groups())
            .field("records", &self.records.len())
            .field("first_records", &&self.records[..self.records.len().min(8)])
            .finish()
    }
}

/// Generator of [`CompositeScenario`]s; see [`composite_scenarios`].
#[derive(Debug, Clone)]
pub struct CompositeScenarioGen {
    arms: Range<usize>,
    records: Range<usize>,
}

/// Scenarios with an arm count drawn from `arms` (min 2) and a record
/// count drawn from `records`.
pub fn composite_scenarios(arms: Range<usize>, records: Range<usize>) -> CompositeScenarioGen {
    assert!(arms.start >= 2, "composite scenarios need at least 2 arms");
    assert!(arms.start < arms.end, "empty arm range {arms:?}");
    assert!(
        records.start < records.end,
        "empty record range {records:?}"
    );
    CompositeScenarioGen { arms, records }
}

fn normalize(weights: &mut [f64]) {
    let total: f64 = weights.iter().sum();
    for w in weights.iter_mut() {
        *w /= total;
    }
}

/// Samples an index from a normalized distribution by cumulative scan.
fn sample_from(dist: &[f64], rng: &mut Xoshiro256) -> usize {
    let u = rng.next_f64();
    let mut acc = 0.0;
    for (i, &p) in dist.iter().enumerate() {
        acc += p;
        if u < acc {
            return i;
        }
    }
    dist.len() - 1
}

impl Gen for CompositeScenarioGen {
    type Value = CompositeScenario;

    fn generate(&self, rng: &mut Xoshiro256) -> CompositeScenario {
        let arms = self.arms.generate(rng);
        // Group count between 1 and arms; round-robin assignment keeps
        // every group non-empty.
        let num_groups = 1 + rng.index(arms.min(64));
        let groups: Vec<usize> = (0..arms).map(|a| a % num_groups).collect();

        // Logging: positive per-arm weights, normalized — every arm is
        // explorable, none dominant.
        let mut logging: Vec<f64> = (0..arms).map(|_| rng.range_f64(0.05, 1.0)).collect();
        normalize(&mut logging);

        // Target: a hot arm takes most of the mass (the per-arm weight
        // p_new/p_old on the hot arm is then O(arms) — the explosion the
        // marginalized estimators tame), the rest spread uniformly.
        let hot = rng.index(arms);
        let hot_mass = rng.range_f64(0.3, 0.9);
        let rest = (1.0 - hot_mass) / arms as f64;
        let mut target = vec![rest; arms];
        target[hot] += hot_mass;

        // Records sampled from the logging distribution; rewards carry a
        // group-level signal plus noise, so marginalization is meaningful.
        let group_base: Vec<f64> = (0..num_groups).map(|_| rng.range_f64(-1.0, 2.0)).collect();
        let n = self.records.generate(rng);
        let records = (0..n)
            .map(|_| {
                let arm = sample_from(&logging, rng);
                let reward = group_base[groups[arm]] + rng.range_f64(-0.25, 0.25);
                (arm, reward)
            })
            .collect();

        CompositeScenario {
            groups,
            logging,
            target,
            records,
        }
    }

    fn shrink(&self, value: &CompositeScenario) -> Vec<CompositeScenario> {
        let mut out = Vec::new();
        let min_records = self.records.start;
        // Fewer records first — the dominant simplification.
        if value.records.len() > min_records {
            let half = (value.records.len() / 2).max(min_records);
            if half < value.records.len() {
                let mut s = value.clone();
                s.records.truncate(half);
                out.push(s);
            }
            let mut s = value.clone();
            s.records.pop();
            out.push(s);
        }
        // Collapse the embedding to a single group (marginal weights all
        // become 1 — the degenerate end of the spectrum).
        if value.num_groups() > 1 {
            let mut s = value.clone();
            s.groups = vec![0; s.groups.len()];
            out.push(s);
        }
        // Flatten the target to uniform (no hot arm, no weight explosion).
        let uniform = 1.0 / value.arms() as f64;
        if value.target.iter().any(|&p| (p - uniform).abs() > 1e-12) {
            let mut s = value.clone();
            s.target = vec![uniform; s.arms()];
            out.push(s);
        }
        // Zero the rewards one structural step at a time.
        if value.records.iter().any(|(_, r)| *r != 0.0) {
            let mut s = value.clone();
            for rec in &mut s.records {
                rec.1 = 0.0;
            }
            out.push(s);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{prop, prop_assert};

    prop! {
        fn scenarios_are_well_formed(s in composite_scenarios(2..1200, 1..400)) {
            prop_assert!(s.arms() >= 2);
            prop_assert!(s.num_groups() >= 1 && s.num_groups() <= s.arms());
            prop_assert!((s.logging.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!((s.target.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(s.logging.iter().all(|&p| p > 0.0));
            prop_assert!(s.target.iter().all(|&p| p > 0.0));
            prop_assert!(s.records.iter().all(|(a, _)| *a < s.arms()));
            // Marginal mass over any arm's group is at least that arm's own.
            for &(arm, _) in &s.records {
                prop_assert!(s.marginal(&s.logging, arm) >= s.logging[arm]);
            }
        }
    }

    #[test]
    fn reaches_large_action_spaces() {
        let g = composite_scenarios(2..1200, 1..50);
        let mut rng = Xoshiro256::seed_from(11);
        let mut max_arms = 0;
        for _ in 0..200 {
            max_arms = max_arms.max(g.generate(&mut rng).arms());
        }
        assert!(max_arms >= 1000, "should reach ≥1000 arms, saw {max_arms}");
    }

    #[test]
    fn shrink_preserves_invariants_and_simplifies() {
        let g = composite_scenarios(2..600, 2..100);
        let mut rng = Xoshiro256::seed_from(3);
        let s = g.generate(&mut rng);
        let candidates = g.shrink(&s);
        assert!(!candidates.is_empty(), "a rich scenario must shrink");
        for c in &candidates {
            assert!(c.records.len() >= 2, "respects min record count");
            assert!(c.arms() == s.arms(), "shrinking never changes the space");
            assert!(c.records.iter().all(|(a, _)| *a < c.arms()));
            assert!((c.logging.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!((c.target.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert_ne!(c, &s, "candidates must differ from the failing value");
        }
        // The canonical simplifications are all on offer.
        assert!(candidates.iter().any(|c| c.records.len() < s.records.len()));
        if s.num_groups() > 1 {
            assert!(candidates.iter().any(|c| c.num_groups() == 1));
        }
    }
}
