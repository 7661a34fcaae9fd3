//! Inverse Propensity Scoring estimators (paper §3).

use crate::batch::{BatchEstimator, EvalBatch};
use crate::estimate::{
    check_space, emit_weight_health, Estimate, Estimator, EstimatorError, WeightDiagnostics,
};
use crate::online::{fold_batch, ClippedKernel, IpsKernel, SnipsKernel};
use ddn_policy::Policy;
use ddn_trace::Trace;

/// Computes the importance weight vector `w_k = μ_new(d_k|c_k) / μ_old(d_k|c_k)`.
pub(crate) fn importance_weights(
    trace: &Trace,
    new_policy: &dyn Policy,
) -> Result<Vec<f64>, EstimatorError> {
    trace
        .records()
        .iter()
        .enumerate()
        .map(|(k, rec)| {
            let p_old = rec.require_propensity(k)?;
            let p_new = new_policy.prob(&rec.context, rec.decision);
            Ok(p_new / p_old)
        })
        .collect()
}

/// Plain IPS:
///
/// ```text
/// V̂_IPS = (1/n) Σ_k  [μ_new(d_k|c_k) / μ_old(d_k|c_k)] · r_k
/// ```
///
/// "Less prone to problems of bias since no model is assumed for the
/// rewards … \[but\] can have large variance since we are inflating the
/// influence of tuples for which μ_old(d_k|c_k) is small" (§3). CFA's
/// decision-matching over a uniformly random trace is a primitive IPS
/// (§3 "Why DR for networking").
#[derive(Debug, Clone, Copy, Default)]
pub struct Ips;

impl Ips {
    /// Creates an IPS estimator.
    pub fn new() -> Self {
        Self
    }
}

impl Estimator for Ips {
    fn name(&self) -> &str {
        "IPS"
    }

    fn estimate(&self, trace: &Trace, new_policy: &dyn Policy) -> Result<Estimate, EstimatorError> {
        check_space(trace, new_policy)?;
        let weights = importance_weights(trace, new_policy)?;
        let per_record: Vec<f64> = weights
            .iter()
            .zip(trace.records())
            .map(|(w, rec)| w * rec.reward)
            .collect();
        let diagnostics = WeightDiagnostics::from_weights(&weights);
        emit_weight_health(self.name(), &diagnostics, &[]);
        Ok(Estimate::from_contributions(per_record, diagnostics))
    }
}

impl BatchEstimator for Ips {
    fn estimate_batch(&self, trace: &Trace, batch: &EvalBatch) -> Result<Estimate, EstimatorError> {
        batch.check_trace(trace);
        fold_batch(IpsKernel, batch, None, 1)
    }
}

/// Self-normalized IPS (SNIPS):
///
/// ```text
/// V̂_SNIPS = Σ_k w_k r_k / Σ_k w_k
/// ```
///
/// Trades a vanishing bias for substantially lower variance and exact
/// invariance to reward translation. The denominator concentrates around
/// `n` under correct propensities.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfNormalizedIps;

impl SelfNormalizedIps {
    /// Creates a SNIPS estimator.
    pub fn new() -> Self {
        Self
    }
}

impl Estimator for SelfNormalizedIps {
    fn name(&self) -> &str {
        "SNIPS"
    }

    fn estimate(&self, trace: &Trace, new_policy: &dyn Policy) -> Result<Estimate, EstimatorError> {
        check_space(trace, new_policy)?;
        let weights = importance_weights(trace, new_policy)?;
        let wsum: f64 = weights.iter().sum();
        if wsum <= 0.0 {
            return Err(EstimatorError::NoUsableRecords);
        }
        let n = weights.len() as f64;
        // Scale so that per-record contributions average to the SNIPS value.
        let per_record: Vec<f64> = weights
            .iter()
            .zip(trace.records())
            .map(|(w, rec)| n * w * rec.reward / wsum)
            .collect();
        let diagnostics = WeightDiagnostics::from_weights(&weights);
        emit_weight_health(self.name(), &diagnostics, &[]);
        Ok(Estimate::from_contributions(per_record, diagnostics))
    }
}

impl BatchEstimator for SelfNormalizedIps {
    fn estimate_batch(&self, trace: &Trace, batch: &EvalBatch) -> Result<Estimate, EstimatorError> {
        batch.check_trace(trace);
        fold_batch(SnipsKernel, batch, None, 1)
    }
}

/// Weight-clipped IPS: weights are capped at `max_weight`, bounding the
/// variance contribution of any single record at the cost of bias. The
/// standard practical mitigation for the §4.1 "not enough randomness"
/// problem when the logging policy can't be changed.
#[derive(Debug, Clone, Copy)]
pub struct ClippedIps {
    max_weight: f64,
}

impl ClippedIps {
    /// Creates a clipped-IPS estimator with the given weight cap.
    ///
    /// # Panics
    /// Panics unless `max_weight > 0`.
    pub fn new(max_weight: f64) -> Self {
        assert!(
            max_weight > 0.0 && max_weight.is_finite(),
            "max_weight must be positive, got {max_weight}"
        );
        Self { max_weight }
    }

    /// The weight cap.
    pub fn max_weight(&self) -> f64 {
        self.max_weight
    }
}

impl Estimator for ClippedIps {
    fn name(&self) -> &str {
        "ClippedIPS"
    }

    fn estimate(&self, trace: &Trace, new_policy: &dyn Policy) -> Result<Estimate, EstimatorError> {
        check_space(trace, new_policy)?;
        let raw = importance_weights(trace, new_policy)?;
        let clipped = raw.iter().filter(|&&w| w > self.max_weight).count();
        let weights: Vec<f64> = raw.into_iter().map(|w| w.min(self.max_weight)).collect();
        let per_record: Vec<f64> = weights
            .iter()
            .zip(trace.records())
            .map(|(w, rec)| w * rec.reward)
            .collect();
        let diagnostics = WeightDiagnostics::from_weights(&weights);
        emit_weight_health(
            self.name(),
            &diagnostics,
            &[("clip_rate", clipped as f64 / weights.len().max(1) as f64)],
        );
        Ok(Estimate::from_contributions(per_record, diagnostics))
    }
}

impl BatchEstimator for ClippedIps {
    fn estimate_batch(&self, trace: &Trace, batch: &EvalBatch) -> Result<Estimate, EstimatorError> {
        batch.check_trace(trace);
        fold_batch(ClippedKernel::new(self.max_weight), batch, None, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddn_policy::{LookupPolicy, UniformRandomPolicy};
    use ddn_stats::rng::{Rng, Xoshiro256};
    use ddn_trace::{Context, ContextSchema, Decision, DecisionSpace, TraceRecord};

    fn schema() -> ContextSchema {
        ContextSchema::builder().categorical("g", 2).build()
    }

    /// Trace logged by a uniform policy over 2 decisions; reward = decision
    /// index + group. True value of "always pick d1" = mean(1 + g).
    fn uniform_trace(n: usize, seed: u64) -> Trace {
        let s = schema();
        let mut rng = Xoshiro256::seed_from(seed);
        let recs = (0..n)
            .map(|_| {
                let g = rng.index(2) as u32;
                let d = rng.index(2);
                let c = Context::build(&s).set_cat("g", g).finish();
                TraceRecord::new(c, Decision::from_index(d), d as f64 + g as f64)
                    .with_propensity(0.5)
            })
            .collect();
        Trace::from_records(s, DecisionSpace::of(&["a", "b"]), recs).unwrap()
    }

    #[test]
    fn ips_unbiased_under_uniform_logging() {
        // True value of "always d1" with g ~ Uniform{0,1}: 1 + 0.5 = 1.5.
        let t = uniform_trace(20_000, 11);
        let newp = LookupPolicy::constant(t.space().clone(), 1);
        let e = Ips::new().estimate(&t, &newp).unwrap();
        assert!((e.value - 1.5).abs() < 0.05, "IPS {}", e.value);
        // Matching-only: half the records have weight 0, other half 2.
        assert!((e.diagnostics.zero_weight_fraction - 0.5).abs() < 0.02);
        assert!((e.diagnostics.max_weight - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ips_on_policy_equals_trace_mean() {
        // Evaluating the logging policy itself: weights all 1 in
        // expectation; with exact propensities, uniform new policy ⇒
        // weight = (1/2)/(1/2) = 1 for every record.
        let t = uniform_trace(500, 3);
        let newp = UniformRandomPolicy::new(t.space().clone());
        let e = Ips::new().estimate(&t, &newp).unwrap();
        assert!((e.value - t.mean_reward()).abs() < 1e-12);
        assert_eq!(e.diagnostics.max_weight, 1.0);
    }

    #[test]
    fn snips_matches_ips_under_balanced_weights() {
        let t = uniform_trace(10_000, 7);
        let newp = LookupPolicy::constant(t.space().clone(), 1);
        let ips = Ips::new().estimate(&t, &newp).unwrap().value;
        let snips = SelfNormalizedIps::new().estimate(&t, &newp).unwrap().value;
        assert!((ips - snips).abs() < 0.05, "ips {ips} vs snips {snips}");
        assert!((snips - 1.5).abs() < 0.05);
    }

    #[test]
    fn snips_invariant_to_reward_shift() {
        // Add +100 to every reward: SNIPS shifts by exactly +100 even with
        // unbalanced weights; IPS does not (when mean weight ≠ 1).
        let s = schema();
        let make = |shift: f64| {
            let recs = vec![
                TraceRecord::new(
                    Context::build(&s).set_cat("g", 0).finish(),
                    Decision::from_index(1),
                    1.0 + shift,
                )
                .with_propensity(0.1), // rare under old policy → weight 10
                TraceRecord::new(
                    Context::build(&s).set_cat("g", 1).finish(),
                    Decision::from_index(0),
                    0.0 + shift,
                )
                .with_propensity(0.9),
            ];
            Trace::from_records(s.clone(), DecisionSpace::of(&["a", "b"]), recs).unwrap()
        };
        let newp = LookupPolicy::constant(DecisionSpace::of(&["a", "b"]), 1);
        let v0 = SelfNormalizedIps::new()
            .estimate(&make(0.0), &newp)
            .unwrap()
            .value;
        let v100 = SelfNormalizedIps::new()
            .estimate(&make(100.0), &newp)
            .unwrap()
            .value;
        assert!(
            (v100 - v0 - 100.0).abs() < 1e-9,
            "shift broke SNIPS: {v0} -> {v100}"
        );
    }

    #[test]
    fn clipping_caps_weights() {
        let s = schema();
        let recs = vec![TraceRecord::new(
            Context::build(&s).set_cat("g", 0).finish(),
            Decision::from_index(1),
            1.0,
        )
        .with_propensity(0.01)]; // raw weight 100
        let t = Trace::from_records(s, DecisionSpace::of(&["a", "b"]), recs).unwrap();
        let newp = LookupPolicy::constant(t.space().clone(), 1);
        let raw = Ips::new().estimate(&t, &newp).unwrap();
        let clipped = ClippedIps::new(10.0).estimate(&t, &newp).unwrap();
        assert!((raw.value - 100.0).abs() < 1e-9);
        assert!((clipped.value - 10.0).abs() < 1e-9);
        assert_eq!(clipped.diagnostics.max_weight, 10.0);
    }

    #[test]
    fn missing_propensity_is_an_error() {
        let s = schema();
        let recs = vec![TraceRecord::new(
            Context::build(&s).set_cat("g", 0).finish(),
            Decision::from_index(0),
            1.0,
        )];
        let t = Trace::from_records(s, DecisionSpace::of(&["a", "b"]), recs).unwrap();
        let newp = UniformRandomPolicy::new(t.space().clone());
        assert!(matches!(
            Ips::new().estimate(&t, &newp),
            Err(EstimatorError::Trace(
                ddn_trace::TraceError::MissingPropensity { record: 0 }
            ))
        ));
    }

    #[test]
    fn snips_errors_when_all_weights_zero() {
        // New policy deterministic on d1, trace only has d0 → all weights 0.
        let s = schema();
        let recs = vec![TraceRecord::new(
            Context::build(&s).set_cat("g", 0).finish(),
            Decision::from_index(0),
            1.0,
        )
        .with_propensity(0.5)];
        let t = Trace::from_records(s, DecisionSpace::of(&["a", "b"]), recs).unwrap();
        let newp = LookupPolicy::constant(t.space().clone(), 1);
        assert!(matches!(
            SelfNormalizedIps::new().estimate(&t, &newp),
            Err(EstimatorError::NoUsableRecords)
        ));
        // Plain IPS is defined (value 0) but visibly degenerate.
        let e = Ips::new().estimate(&t, &newp).unwrap();
        assert_eq!(e.value, 0.0);
        assert_eq!(e.diagnostics.zero_weight_fraction, 1.0);
    }

    #[test]
    fn ips_variance_grows_as_overlap_shrinks() {
        // Empirically: variance of IPS across seeds is larger when the
        // logging policy rarely takes the evaluated action.
        let s = schema();
        let space = DecisionSpace::of(&["a", "b"]);
        let newp = LookupPolicy::constant(space.clone(), 1);
        let run = |p1: f64, seed: u64| {
            let mut rng = Xoshiro256::seed_from(seed);
            let recs: Vec<TraceRecord> = (0..200)
                .map(|_| {
                    let d = usize::from(rng.chance(p1));
                    let c = Context::build(&s).set_cat("g", 0).finish();
                    TraceRecord::new(c, Decision::from_index(d), d as f64)
                        .with_propensity(if d == 1 { p1 } else { 1.0 - p1 })
                })
                .collect();
            let t = Trace::from_records(s.clone(), space.clone(), recs).unwrap();
            Ips::new().estimate(&t, &newp).unwrap().value
        };
        let spread = |p1: f64| {
            let vals: Vec<f64> = (0..40).map(|i| run(p1, 1000 + i)).collect();
            let m = vals.iter().sum::<f64>() / vals.len() as f64;
            vals.iter().map(|v| (v - m).powi(2)).sum::<f64>() / vals.len() as f64
        };
        assert!(
            spread(0.05) > 4.0 * spread(0.5),
            "low-overlap variance {} should dwarf high-overlap {}",
            spread(0.05),
            spread(0.5)
        );
    }
}
