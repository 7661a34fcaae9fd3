//! The Direct Method estimator (paper §3).

use crate::batch::{BatchEstimator, EvalBatch};
use crate::estimate::{
    check_space, emit_weight_health, Estimate, Estimator, EstimatorError, WeightDiagnostics,
};
use crate::online::{fold_batch, DmKernel};
use ddn_models::RewardModel;
use ddn_policy::Policy;
use ddn_trace::Trace;

/// Direct Method (DM): evaluate the new policy entirely through a reward
/// model r̂(c, d):
///
/// ```text
/// V̂_DM = (1/n) Σ_k Σ_d μ_new(d | c_k) · r̂(c_k, d)
/// ```
///
/// DM "avoids the coverage problem by using all the available trace data,
/// but relies crucially on the ability to generate an accurate reward
/// model" (§1). WISE's CBN evaluation and FastMPC's simulation-based QoE
/// evaluation are both DM instances (§3 "Why DR for networking").
#[derive(Debug, Clone)]
pub struct DirectMethod<M: RewardModel> {
    model: M,
}

impl<M: RewardModel> DirectMethod<M> {
    /// Creates a DM estimator around a fitted reward model.
    pub fn new(model: M) -> Self {
        Self { model }
    }

    /// The underlying reward model.
    pub fn model(&self) -> &M {
        &self.model
    }
}

impl<M: RewardModel> Estimator for DirectMethod<M> {
    fn name(&self) -> &str {
        "DM"
    }

    fn estimate(&self, trace: &Trace, new_policy: &dyn Policy) -> Result<Estimate, EstimatorError> {
        check_space(trace, new_policy)?;
        let space = trace.space();
        let per_record: Vec<f64> = trace
            .records()
            .iter()
            .map(|rec| {
                let probs = new_policy.probabilities(&rec.context);
                space
                    .iter()
                    .map(|d| probs[d.index()] * self.model.predict(&rec.context, d))
                    .sum()
            })
            .collect();
        let diagnostics = WeightDiagnostics::uniform(trace.len());
        emit_weight_health(self.name(), &diagnostics, &[]);
        Ok(Estimate::from_contributions(per_record, diagnostics))
    }
}

impl<M: RewardModel> BatchEstimator for DirectMethod<M> {
    fn estimate_batch(&self, trace: &Trace, batch: &EvalBatch) -> Result<Estimate, EstimatorError> {
        batch.check_trace(trace);
        fold_batch(DmKernel, batch, None, 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddn_models::{ConstantModel, FnModel};
    use ddn_policy::{LookupPolicy, UniformRandomPolicy};
    use ddn_trace::{Context, ContextSchema, Decision, DecisionSpace, TraceRecord};

    fn schema() -> ContextSchema {
        ContextSchema::builder().numeric("x").build()
    }

    fn trace(n: usize) -> Trace {
        let s = schema();
        let recs = (0..n)
            .map(|i| {
                let c = Context::build(&s).set_numeric("x", i as f64).finish();
                TraceRecord::new(c, Decision::from_index(0), 0.0)
            })
            .collect();
        Trace::from_records(s, DecisionSpace::of(&["a", "b"]), recs).unwrap()
    }

    #[test]
    fn perfect_model_deterministic_policy() {
        // Truth: r(c, d) = x + 10·d. New policy always picks d=1.
        let t = trace(5);
        let model = FnModel::new(|c: &Context, d: Decision| c.num(0) + 10.0 * d.index() as f64);
        let dm = DirectMethod::new(model);
        let newp = LookupPolicy::constant(t.space().clone(), 1);
        let e = dm.estimate(&t, &newp).unwrap();
        // mean x over 0..5 = 2; + 10 = 12.
        assert!((e.value - 12.0).abs() < 1e-12);
        assert_eq!(e.per_record.len(), 5);
        assert_eq!(e.diagnostics.effective_sample_size, 5.0);
    }

    #[test]
    fn stochastic_policy_mixes_predictions() {
        let t = trace(3);
        let model = FnModel::new(|_: &Context, d: Decision| d.index() as f64 * 2.0);
        let dm = DirectMethod::new(model);
        let newp = UniformRandomPolicy::new(t.space().clone());
        let e = dm.estimate(&t, &newp).unwrap();
        // 0.5·0 + 0.5·2 = 1.
        assert!((e.value - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ignores_observed_rewards_entirely() {
        // DM with a constant model predicts the constant regardless of the
        // trace rewards — the essence of its bias risk.
        let t = trace(4);
        let dm = DirectMethod::new(ConstantModel::new(7.0));
        let newp = UniformRandomPolicy::new(t.space().clone());
        assert_eq!(dm.estimate(&t, &newp).unwrap().value, 7.0);
    }

    #[test]
    fn space_mismatch_detected() {
        let t = trace(2);
        let dm = DirectMethod::new(ConstantModel::zero());
        let newp = UniformRandomPolicy::new(DecisionSpace::of(&["only-one"]));
        assert!(matches!(
            dm.estimate(&t, &newp),
            Err(EstimatorError::SpaceMismatch {
                trace: 2,
                policy: 1
            })
        ));
    }
}
