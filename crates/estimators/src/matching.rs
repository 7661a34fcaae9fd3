//! The matching estimator — the paper's formalization of CFA's original
//! evaluator (§2.2.2, Figure 5).
//!
//! "Given the video quality of previously seen clients who have been
//! randomly assigned to a set of available CDNs and bitrates, CFA
//! evaluates the video quality of a different client-CDN/bitrate
//! assignment by using only the data of clients who use the same
//! CDNs/bitrates in the old and new assignments."
//!
//! Formally: average the observed rewards over records whose logged
//! decision would also have been chosen by the new policy (sampled for
//! stochastic new policies). Under a uniformly random logging policy this
//! is unbiased — "matching the decisions of the old policy and the new
//! policy is unbiased but could lead to low coverage and statistical
//! significance" — which is exactly the variance Figure 7c quantifies.

use crate::batch::{note_reuse, BatchEstimator, EvalBatch};
use crate::estimate::{
    check_space, emit_weight_health, Estimate, Estimator, EstimatorError, WeightDiagnostics,
};
use ddn_policy::Policy;
use ddn_trace::Trace;

/// CFA-style decision-matching evaluator.
///
/// For a deterministic new policy, a record matches when the logged
/// decision equals the policy's choice. Matching ignores propensities
/// entirely — it is only unbiased when the logging policy treats decisions
/// symmetrically (e.g. uniform randomization, CFA's setting).
#[derive(Debug, Clone, Copy, Default)]
pub struct MatchingEstimator;

impl MatchingEstimator {
    /// Creates a matching estimator.
    pub fn new() -> Self {
        Self
    }
}

impl Estimator for MatchingEstimator {
    fn name(&self) -> &str {
        "CFA"
    }

    fn estimate(&self, trace: &Trace, new_policy: &dyn Policy) -> Result<Estimate, EstimatorError> {
        check_space(trace, new_policy)?;
        let mut matched = Vec::new();
        let mut weights = Vec::new();
        for rec in trace.records() {
            // A record matches in proportion to the probability the new
            // policy picks the logged decision; for deterministic policies
            // this is the 0/1 match of the paper's Figure 5.
            let p = new_policy.prob(&rec.context, rec.decision);
            if p > 0.0 {
                matched.push(rec.reward);
                weights.push(p);
            }
        }
        if matched.is_empty() {
            return Err(EstimatorError::NoUsableRecords);
        }
        // Probability-weighted mean (reduces to the plain mean for
        // deterministic new policies).
        let wsum: f64 = weights.iter().sum();
        let value: f64 = matched
            .iter()
            .zip(&weights)
            .map(|(r, w)| r * w)
            .sum::<f64>()
            / wsum;
        let n = matched.len() as f64;
        let per_record: Vec<f64> = matched
            .iter()
            .zip(&weights)
            .map(|(r, w)| n * r * w / wsum)
            .collect();
        let diagnostics = WeightDiagnostics::from_weights(&weights);
        emit_weight_health(
            self.name(),
            &diagnostics,
            &[
                ("coverage", matched.len() as f64 / trace.len() as f64),
                ("match_count", matched.len() as f64),
            ],
        );
        Ok(Estimate {
            value,
            per_record,
            diagnostics,
        })
    }
}

impl BatchEstimator for MatchingEstimator {
    fn estimate_batch(&self, trace: &Trace, batch: &EvalBatch) -> Result<Estimate, EstimatorError> {
        batch.check_trace(trace);
        note_reuse(self.name(), trace.len() as u64, 0);
        let mut matched = Vec::new();
        let mut weights = Vec::new();
        for (&r, &p) in batch.rewards().iter().zip(batch.p_logged()) {
            if p > 0.0 {
                matched.push(r);
                weights.push(p);
            }
        }
        if matched.is_empty() {
            return Err(EstimatorError::NoUsableRecords);
        }
        let wsum: f64 = weights.iter().sum();
        let value: f64 = matched
            .iter()
            .zip(&weights)
            .map(|(r, w)| r * w)
            .sum::<f64>()
            / wsum;
        let n = matched.len() as f64;
        let per_record: Vec<f64> = matched
            .iter()
            .zip(&weights)
            .map(|(r, w)| n * r * w / wsum)
            .collect();
        let diagnostics = WeightDiagnostics::from_weights(&weights);
        emit_weight_health(
            self.name(),
            &diagnostics,
            &[
                ("coverage", matched.len() as f64 / trace.len() as f64),
                ("match_count", matched.len() as f64),
            ],
        );
        Ok(Estimate {
            value,
            per_record,
            diagnostics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddn_policy::LookupPolicy;
    use ddn_stats::rng::{Rng, Xoshiro256};
    use ddn_trace::{Context, ContextSchema, Decision, DecisionSpace, TraceRecord};

    fn schema() -> ContextSchema {
        ContextSchema::builder().categorical("g", 4).build()
    }

    fn space() -> DecisionSpace {
        DecisionSpace::of(&["a", "b", "c"])
    }

    fn uniform_trace(n: usize, seed: u64) -> Trace {
        let s = schema();
        let mut rng = Xoshiro256::seed_from(seed);
        let recs = (0..n)
            .map(|_| {
                let g = rng.index(4) as u32;
                let d = rng.index(3);
                let c = Context::build(&s).set_cat("g", g).finish();
                // Truth: reward = d + 0.1 g.
                TraceRecord::new(c, Decision::from_index(d), d as f64 + 0.1 * g as f64)
                    .with_propensity(1.0 / 3.0)
            })
            .collect();
        Trace::from_records(s, space(), recs).unwrap()
    }

    #[test]
    fn matching_unbiased_under_uniform_logging() {
        let t = uniform_trace(30_000, 51);
        let newp = LookupPolicy::constant(space(), 2);
        let e = MatchingEstimator::new().estimate(&t, &newp).unwrap();
        // Truth: 2 + 0.1·1.5 = 2.15.
        assert!((e.value - 2.15).abs() < 0.02, "{}", e.value);
        // Only ~1/3 of records matched.
        assert!((e.per_record.len() as f64 / 30_000.0 - 1.0 / 3.0).abs() < 0.02);
    }

    #[test]
    fn matching_high_variance_with_few_matches() {
        // Tiny trace and 12-fold context granularity: estimates scatter.
        let newp = LookupPolicy::constant(space(), 2);
        let vals: Vec<f64> = (0..40)
            .map(|i| {
                let t = uniform_trace(30, 100 + i);
                MatchingEstimator::new()
                    .estimate(&t, &newp)
                    .map(|e| e.value)
                    .unwrap_or(f64::NAN)
            })
            .filter(|v| v.is_finite())
            .collect();
        let m = vals.iter().sum::<f64>() / vals.len() as f64;
        let var = vals.iter().map(|v| (v - m).powi(2)).sum::<f64>() / vals.len() as f64;
        assert!(
            var > 0.001,
            "matching on 10 matches should scatter, var {var}"
        );
    }

    #[test]
    fn no_matches_is_an_error() {
        let s = schema();
        let recs = vec![TraceRecord::new(
            Context::build(&s).set_cat("g", 0).finish(),
            Decision::from_index(0),
            1.0,
        )];
        let t = Trace::from_records(s, space(), recs).unwrap();
        let newp = LookupPolicy::constant(space(), 2);
        assert!(matches!(
            MatchingEstimator::new().estimate(&t, &newp),
            Err(EstimatorError::NoUsableRecords)
        ));
    }

    #[test]
    fn matching_ignores_propensities() {
        // Identical rewards, wildly different propensities: matching's
        // value depends only on matched rewards.
        let s = schema();
        let mk = |p: f64| {
            let recs = vec![TraceRecord::new(
                Context::build(&s).set_cat("g", 0).finish(),
                Decision::from_index(2),
                5.0,
            )
            .with_propensity(p)];
            Trace::from_records(s.clone(), space(), recs).unwrap()
        };
        let newp = LookupPolicy::constant(space(), 2);
        let a = MatchingEstimator::new()
            .estimate(&mk(0.01), &newp)
            .unwrap()
            .value;
        let b = MatchingEstimator::new()
            .estimate(&mk(0.99), &newp)
            .unwrap()
            .value;
        assert_eq!(a, b);
        assert_eq!(a, 5.0);
    }
}
