//! The Doubly Robust estimator (paper §3, Eq. 1/2) and the SWITCH variant.

use crate::batch::{note_reuse, BatchEstimator, EvalBatch};
use crate::estimate::{
    check_space, emit_weight_health, Estimate, Estimator, EstimatorError, WeightDiagnostics,
};
use crate::ips::importance_weights;
use crate::online::{fold_batch, DrKernel};
use ddn_models::RewardModel;
use ddn_policy::Policy;
use ddn_trace::Trace;

/// Doubly Robust (DR) estimator — the paper's Eq. 2 per-client form:
///
/// ```text
/// V̂_DR = (1/n) Σ_k [ Σ_d μ_new(d|c_k) · r̂(c_k, d)
///                    + w_k · (r_k − r̂(c_k, d_k)) ]
/// where w_k = μ_new(d_k|c_k) / μ_old(d_k|c_k)
/// ```
///
/// The first term is the DM estimate; the second is an IPS correction
/// applied to the model's *residual* at the logged decision. Special cases
/// (paper §3):
///
/// - if `μ_new` and `μ_old` deterministically agree on tuple `k`, the
///   per-tuple DR equals the per-tuple IPS (`w_k = 1` and the model terms
///   cancel);
/// - if the reward model is exact at tuple `k` (`r_k = r̂(c_k, d_k)`), the
///   correction vanishes and per-tuple DR equals per-tuple DM.
///
/// Consequently DR carries "second-order bias": its error is bounded by
/// (roughly) the *product* of the DM error and the IPS (propensity) error —
/// it is accurate when either one is.
///
/// ```
/// use ddn_estimators::{DoublyRobust, Estimator};
/// use ddn_models::TabularMeanModel;
/// use ddn_policy::LookupPolicy;
/// use ddn_trace::{Context, ContextSchema, DecisionSpace, Trace, TraceRecord};
///
/// let schema = ContextSchema::builder().categorical("g", 2).build();
/// let space = DecisionSpace::of(&["a", "b"]);
/// // Uniformly logged trace: reward = decision index.
/// let records: Vec<TraceRecord> = (0..100)
///     .map(|i| {
///         let ctx = Context::build(&schema).set_cat("g", (i % 2) as u32).finish();
///         let d = space.decision(i % 2);
///         TraceRecord::new(ctx, d, d.index() as f64).with_propensity(0.5)
///     })
///     .collect();
/// let trace = Trace::from_records(schema, space.clone(), records).unwrap();
///
/// let model = TabularMeanModel::fit_trace(&trace, 1.0);
/// let dr = DoublyRobust::new(model);
/// let estimate = dr.estimate(&trace, &LookupPolicy::constant(space, 1)).unwrap();
/// assert!((estimate.value - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct DoublyRobust<M: RewardModel> {
    model: M,
}

impl<M: RewardModel> DoublyRobust<M> {
    /// Creates a DR estimator around a fitted reward model.
    pub fn new(model: M) -> Self {
        Self { model }
    }

    /// The underlying reward model.
    pub fn model(&self) -> &M {
        &self.model
    }
}

impl<M: RewardModel> Estimator for DoublyRobust<M> {
    fn name(&self) -> &str {
        "DR"
    }

    fn estimate(&self, trace: &Trace, new_policy: &dyn Policy) -> Result<Estimate, EstimatorError> {
        check_space(trace, new_policy)?;
        let weights = importance_weights(trace, new_policy)?;
        let space = trace.space();
        let mut abs_residual_sum = 0.0;
        let per_record: Vec<f64> = trace
            .records()
            .iter()
            .zip(&weights)
            .map(|(rec, &w)| {
                let probs = new_policy.probabilities(&rec.context);
                let dm_term: f64 = space
                    .iter()
                    .map(|d| probs[d.index()] * self.model.predict(&rec.context, d))
                    .sum();
                let residual = rec.reward - self.model.predict(&rec.context, rec.decision);
                abs_residual_sum += residual.abs();
                dm_term + w * residual
            })
            .collect();
        let diagnostics = WeightDiagnostics::from_weights(&weights);
        emit_weight_health(
            self.name(),
            &diagnostics,
            &[("mean_abs_residual", abs_residual_sum / trace.len() as f64)],
        );
        Ok(Estimate::from_contributions(per_record, diagnostics))
    }
}

impl<M: RewardModel> BatchEstimator for DoublyRobust<M> {
    fn estimate_batch(&self, trace: &Trace, batch: &EvalBatch) -> Result<Estimate, EstimatorError> {
        batch.check_trace(trace);
        fold_batch(DrKernel, batch, None, 3)
    }
}

/// SWITCH-DR: per-tuple, use the full DR form only when the importance
/// weight is at most `tau`; above the threshold, drop the IPS correction
/// and trust the model alone for that tuple.
///
/// This hard-caps the variance contribution of poorly-overlapped tuples
/// (the §4.1 "not enough randomness" pathology) at the price of DM bias on
/// exactly those tuples. `tau = ∞` recovers DR; `tau = 0` recovers DM.
#[derive(Debug, Clone)]
pub struct SwitchDr<M: RewardModel> {
    model: M,
    tau: f64,
}

impl<M: RewardModel> SwitchDr<M> {
    /// Creates a SWITCH-DR estimator with weight threshold `tau`.
    ///
    /// # Panics
    /// Panics if `tau` is negative or NaN.
    pub fn new(model: M, tau: f64) -> Self {
        assert!(
            tau >= 0.0 && !tau.is_nan(),
            "tau must be non-negative, got {tau}"
        );
        Self { model, tau }
    }

    /// The switching threshold.
    pub fn tau(&self) -> f64 {
        self.tau
    }
}

impl<M: RewardModel> Estimator for SwitchDr<M> {
    fn name(&self) -> &str {
        "SwitchDR"
    }

    fn estimate(&self, trace: &Trace, new_policy: &dyn Policy) -> Result<Estimate, EstimatorError> {
        check_space(trace, new_policy)?;
        let weights = importance_weights(trace, new_policy)?;
        let space = trace.space();
        let switched = weights.iter().filter(|&&w| w > self.tau).count();
        let effective: Vec<f64> = weights
            .iter()
            .map(|&w| if w <= self.tau { w } else { 0.0 })
            .collect();
        let mut abs_residual_sum = 0.0;
        let per_record: Vec<f64> = trace
            .records()
            .iter()
            .zip(&effective)
            .map(|(rec, &w)| {
                let probs = new_policy.probabilities(&rec.context);
                let dm_term: f64 = space
                    .iter()
                    .map(|d| probs[d.index()] * self.model.predict(&rec.context, d))
                    .sum();
                let residual = rec.reward - self.model.predict(&rec.context, rec.decision);
                abs_residual_sum += residual.abs();
                dm_term + w * residual
            })
            .collect();
        let diagnostics = WeightDiagnostics::from_weights(&effective);
        emit_weight_health(
            self.name(),
            &diagnostics,
            &[
                ("clip_rate", switched as f64 / weights.len().max(1) as f64),
                ("mean_abs_residual", abs_residual_sum / trace.len() as f64),
            ],
        );
        Ok(Estimate::from_contributions(per_record, diagnostics))
    }
}

impl<M: RewardModel> BatchEstimator for SwitchDr<M> {
    fn estimate_batch(&self, trace: &Trace, batch: &EvalBatch) -> Result<Estimate, EstimatorError> {
        batch.check_trace(trace);
        let weights = batch.weights()?;
        let switched = weights.iter().filter(|&&w| w > self.tau).count();
        let effective: Vec<f64> = weights
            .iter()
            .map(|&w| if w <= self.tau { w } else { 0.0 })
            .collect();
        note_reuse(self.name(), 3 * trace.len() as u64, 0);
        let mut abs_residual_sum = 0.0;
        let scores = batch.dm_terms().iter().zip(batch.q_logged());
        let per_record: Vec<f64> = scores
            .zip(batch.rewards())
            .zip(&effective)
            .map(|(((dm_term, q_logged), r), &w)| {
                let residual = r - q_logged;
                abs_residual_sum += residual.abs();
                dm_term + w * residual
            })
            .collect();
        let diagnostics = WeightDiagnostics::from_weights(&effective);
        emit_weight_health(
            self.name(),
            &diagnostics,
            &[
                ("clip_rate", switched as f64 / weights.len().max(1) as f64),
                ("mean_abs_residual", abs_residual_sum / trace.len() as f64),
            ],
        );
        Ok(Estimate::from_contributions(per_record, diagnostics))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dm::DirectMethod;
    use crate::ips::Ips;
    use ddn_models::{ConstantModel, FnModel};
    use ddn_policy::LookupPolicy;
    use ddn_stats::rng::{Rng, Xoshiro256};
    use ddn_trace::{Context, ContextSchema, Decision, DecisionSpace, TraceRecord};

    fn schema() -> ContextSchema {
        ContextSchema::builder().categorical("g", 2).build()
    }

    fn space() -> DecisionSpace {
        DecisionSpace::of(&["a", "b"])
    }

    /// Reward ground truth used across tests: r(g, d) = 1 + 2g + 3d.
    fn truth(g: u32, d: usize) -> f64 {
        1.0 + 2.0 * g as f64 + 3.0 * d as f64
    }

    fn uniform_trace(n: usize, seed: u64) -> Trace {
        let s = schema();
        let mut rng = Xoshiro256::seed_from(seed);
        let recs = (0..n)
            .map(|_| {
                let g = rng.index(2) as u32;
                let d = rng.index(2);
                let c = Context::build(&s).set_cat("g", g).finish();
                TraceRecord::new(c, Decision::from_index(d), truth(g, d)).with_propensity(0.5)
            })
            .collect();
        Trace::from_records(s, space(), recs).unwrap()
    }

    fn perfect_model() -> FnModel<impl Fn(&Context, Decision) -> f64> {
        FnModel::new(|c: &Context, d: Decision| truth(c.cat(0), d.index()))
    }

    #[test]
    fn dr_with_zero_model_equals_ips() {
        let t = uniform_trace(300, 5);
        let newp = LookupPolicy::constant(space(), 1);
        let dr = DoublyRobust::new(ConstantModel::zero())
            .estimate(&t, &newp)
            .unwrap();
        let ips = Ips::new().estimate(&t, &newp).unwrap();
        assert!((dr.value - ips.value).abs() < 1e-12);
        for (a, b) in dr.per_record.iter().zip(&ips.per_record) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn dr_with_perfect_model_equals_dm_and_truth() {
        let t = uniform_trace(300, 6);
        let newp = LookupPolicy::constant(space(), 1);
        let dr = DoublyRobust::new(perfect_model())
            .estimate(&t, &newp)
            .unwrap();
        let dm = DirectMethod::new(perfect_model())
            .estimate(&t, &newp)
            .unwrap();
        assert!((dr.value - dm.value).abs() < 1e-12);
        // Truth for "always d1": E[1 + 2g + 3] with g uniform = 5.
        assert!((dr.value - 5.0).abs() < 0.2, "{}", dr.value);
    }

    #[test]
    fn dr_per_tuple_equals_ips_when_policies_agree_deterministically() {
        // Old policy deterministic on d0 (propensity 1), new policy also d0.
        let s = schema();
        let recs: Vec<TraceRecord> = (0..50)
            .map(|i| {
                let g = (i % 2) as u32;
                let c = Context::build(&s).set_cat("g", g).finish();
                TraceRecord::new(c, Decision::from_index(0), truth(g, 0)).with_propensity(1.0)
            })
            .collect();
        let t = Trace::from_records(s, space(), recs).unwrap();
        let newp = LookupPolicy::constant(space(), 0);
        // Deliberately wrong model: DR must still equal IPS per-tuple.
        let dr = DoublyRobust::new(ConstantModel::new(123.0))
            .estimate(&t, &newp)
            .unwrap();
        let ips = Ips::new().estimate(&t, &newp).unwrap();
        for (a, b) in dr.per_record.iter().zip(&ips.per_record) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        assert!((dr.value - t.mean_reward()).abs() < 1e-9);
    }

    #[test]
    fn dr_beats_both_when_model_biased_and_overlap_poor() {
        // Model has constant bias +2; logging rarely picks d1 (p=0.1);
        // evaluate "always d1". Average errors over seeds.
        let s = schema();
        let newp = LookupPolicy::constant(space(), 1);
        let biased = || FnModel::new(|c: &Context, d: Decision| truth(c.cat(0), d.index()) + 2.0);
        let run = |seed: u64| -> (f64, f64, f64) {
            let mut rng = Xoshiro256::seed_from(seed);
            let recs: Vec<TraceRecord> = (0..400)
                .map(|_| {
                    let g = rng.index(2) as u32;
                    let d = usize::from(rng.chance(0.1));
                    let c = Context::build(&s).set_cat("g", g).finish();
                    TraceRecord::new(c, Decision::from_index(d), truth(g, d))
                        .with_propensity(if d == 1 { 0.1 } else { 0.9 })
                })
                .collect();
            let t = Trace::from_records(s.clone(), space(), recs).unwrap();
            let v_dm = DirectMethod::new(biased())
                .estimate(&t, &newp)
                .unwrap()
                .value;
            let v_ips = Ips::new().estimate(&t, &newp).unwrap().value;
            let v_dr = DoublyRobust::new(biased())
                .estimate(&t, &newp)
                .unwrap()
                .value;
            (v_dm, v_ips, v_dr)
        };
        let true_v = 5.0; // E[1 + 2g + 3]
        let (mut e_dm, mut e_ips, mut e_dr) = (0.0, 0.0, 0.0);
        let runs = 30;
        for i in 0..runs {
            let (dm, ips, dr) = run(2000 + i);
            e_dm += (dm - true_v).abs();
            e_ips += (ips - true_v).abs();
            e_dr += (dr - true_v).abs();
        }
        e_dm /= runs as f64;
        e_ips /= runs as f64;
        e_dr /= runs as f64;
        assert!(e_dr < e_dm, "DR {e_dr} should beat biased DM {e_dm}");
        assert!(
            e_dr < e_ips,
            "DR {e_dr} should beat high-variance IPS {e_ips}"
        );
    }

    #[test]
    fn switch_dr_extremes_recover_dr_and_dm() {
        let t = uniform_trace(200, 8);
        let newp = LookupPolicy::constant(space(), 1);
        let model = || ConstantModel::new(2.0);
        let dr = DoublyRobust::new(model()).estimate(&t, &newp).unwrap();
        let dm = DirectMethod::new(model()).estimate(&t, &newp).unwrap();
        let sw_inf = SwitchDr::new(model(), f64::INFINITY)
            .estimate(&t, &newp)
            .unwrap();
        let sw_zero = SwitchDr::new(model(), 0.0).estimate(&t, &newp).unwrap();
        assert!((sw_inf.value - dr.value).abs() < 1e-12);
        assert!((sw_zero.value - dm.value).abs() < 1e-12);
    }

    #[test]
    fn switch_dr_caps_extreme_weight_influence() {
        let s = schema();
        let mut recs: Vec<TraceRecord> = (0..99)
            .map(|i| {
                let g = (i % 2) as u32;
                let c = Context::build(&s).set_cat("g", g).finish();
                TraceRecord::new(c, Decision::from_index(0), truth(g, 0)).with_propensity(0.99)
            })
            .collect();
        // One pathological record: huge weight, wild reward.
        recs.push(
            TraceRecord::new(
                Context::build(&s).set_cat("g", 0).finish(),
                Decision::from_index(1),
                1000.0,
            )
            .with_propensity(0.01),
        );
        let t = Trace::from_records(s, space(), recs).unwrap();
        let newp = LookupPolicy::constant(space(), 1);
        let model = || ConstantModel::new(4.0);
        let dr = DoublyRobust::new(model()).estimate(&t, &newp).unwrap();
        let sw = SwitchDr::new(model(), 10.0).estimate(&t, &newp).unwrap();
        // DR is dragged far away by the weight-100 record; SWITCH is not.
        assert!(dr.value > 500.0, "dr {}", dr.value);
        assert!((sw.value - 4.0).abs() < 1.0, "switch {}", sw.value);
    }

    #[test]
    fn dr_variance_below_ips_with_decent_model() {
        // Across seeds, DR with a near-correct model should have visibly
        // lower spread than IPS when overlap is moderate.
        let newp = LookupPolicy::constant(space(), 1);
        let model = || FnModel::new(|c: &Context, d: Decision| truth(c.cat(0), d.index()) + 0.3);
        let spread = |use_dr: bool| {
            let vals: Vec<f64> = (0..40)
                .map(|i| {
                    let t = uniform_trace(100, 3000 + i);
                    if use_dr {
                        DoublyRobust::new(model())
                            .estimate(&t, &newp)
                            .unwrap()
                            .value
                    } else {
                        Ips::new().estimate(&t, &newp).unwrap().value
                    }
                })
                .collect();
            let m = vals.iter().sum::<f64>() / vals.len() as f64;
            vals.iter().map(|v| (v - m).powi(2)).sum::<f64>() / vals.len() as f64
        };
        let v_dr = spread(true);
        let v_ips = spread(false);
        assert!(
            v_dr < v_ips,
            "DR variance {v_dr} should be below IPS variance {v_ips}"
        );
    }
}
