//! Per-decision sequential DR for multi-step session traces
//! (Jiang & Li 2016, "Doubly Robust Off-policy Value Evaluation for
//! Reinforcement Learning"; ROADMAP item 3c).
//!
//! An ABR session is not one decision — it is a trajectory of H chunk
//! decisions whose rewards accumulate. Evaluating a new controller with
//! the single-step estimators treats every chunk independently, and the
//! trajectory-level alternative (weight the whole session by the product
//! of its H importance ratios) explodes in variance: the product of H
//! per-step weights has exponentially heavy tails. Jiang & Li's
//! per-decision DR threads the correction *backward* through the
//! trajectory instead:
//!
//! ```text
//! V̂_H = dm_H + w_H · (r_H − q̂_H)                        (last step)
//! V̂_t = dm_t + w_t · ((r_t − q̂_t) + V̂_{t+1})            (t < H)
//! ```
//!
//! so step `t`'s weight multiplies only the *tail* value, never the full
//! product, and the model term `dm_t` re-anchors the recursion at every
//! step. Each trajectory contributes one number `V̂_1`; the estimate is
//! their mean.
//!
//! [`SeqDr`] consumes flat traces that are concatenations of fixed-length
//! trajectories in stream order (how [`ddn-abr`'s] `log_session` emits
//! them). At `horizon = 1` the recursion's innermost expression is
//! exactly the single-step DR contribution — `dm + w·(r − q̂)`, with the
//! residual formed directly rather than via `(r − q̂) + 0.0` so signed
//! zeros survive — making the reduction to [`crate::DoublyRobust`]
//! **bit-identical**, pinned by the reduction property tests.
//!
//! [`ddn-abr`'s]: ../../ddn_abr/index.html

use crate::batch::{BatchEstimator, EvalBatch};
use crate::estimate::{
    check_space, emit_weight_health, Estimate, Estimator, EstimatorError, WeightDiagnostics,
};
use crate::ips::importance_weights;
use crate::online::{fold_batch, SeqDrKernel};
use ddn_models::RewardModel;
use ddn_policy::Policy;
use ddn_trace::Trace;

/// Per-decision sequential DR over fixed-horizon trajectories — see the
/// module docs for the recursion.
#[derive(Debug, Clone)]
pub struct SeqDr<M: RewardModel> {
    model: M,
    horizon: usize,
}

impl<M: RewardModel> SeqDr<M> {
    /// Creates a sequential-DR estimator for trajectories of exactly
    /// `horizon` steps, around a fitted per-step reward model.
    ///
    /// # Panics
    /// Panics if `horizon == 0`.
    pub fn new(model: M, horizon: usize) -> Self {
        assert!(horizon > 0, "horizon must be positive");
        Self { model, horizon }
    }

    /// The underlying reward model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The trajectory length.
    pub fn horizon(&self) -> usize {
        self.horizon
    }
}

/// Folds one trajectory's per-step `(dm, w, residual)` triples through
/// the backward per-decision recursion. The last step computes
/// `dm + w·residual` directly (no `+ 0.0` tail) so `horizon = 1` is the
/// exact single-step DR expression.
pub(crate) fn trajectory_value(steps: &[(f64, f64, f64)]) -> f64 {
    let (dm_last, w_last, res_last) = steps[steps.len() - 1];
    let mut v = dm_last + w_last * res_last;
    for &(dm, w, residual) in steps[..steps.len() - 1].iter().rev() {
        v = dm + w * (residual + v);
    }
    v
}

/// Folds per-record `(dm, w, residual)` triples — `used` of them, a
/// whole number of trajectories — into per-trajectory contributions.
fn per_trajectory(steps: &[(f64, f64, f64)], horizon: usize) -> Vec<f64> {
    steps.chunks(horizon).map(trajectory_value).collect()
}

impl<M: RewardModel> Estimator for SeqDr<M> {
    fn name(&self) -> &str {
        "SeqDR"
    }

    fn estimate(&self, trace: &Trace, new_policy: &dyn Policy) -> Result<Estimate, EstimatorError> {
        check_space(trace, new_policy)?;
        let weights = importance_weights(trace, new_policy)?;
        let trajectories = trace.len() / self.horizon;
        if trajectories == 0 {
            return Err(EstimatorError::NoUsableRecords);
        }
        let used = trajectories * self.horizon;
        let space = trace.space();
        let mut abs_residual_sum = 0.0;
        let steps: Vec<(f64, f64, f64)> = trace.records()[..used]
            .iter()
            .zip(&weights[..used])
            .map(|(rec, &w)| {
                let probs = new_policy.probabilities(&rec.context);
                let dm_term: f64 = space
                    .iter()
                    .map(|d| probs[d.index()] * self.model.predict(&rec.context, d))
                    .sum();
                let residual = rec.reward - self.model.predict(&rec.context, rec.decision);
                abs_residual_sum += residual.abs();
                (dm_term, w, residual)
            })
            .collect();
        let per_record = per_trajectory(&steps, self.horizon);
        let diagnostics = WeightDiagnostics::from_weights(&weights[..used]);
        emit_weight_health(
            self.name(),
            &diagnostics,
            &[
                ("horizon", self.horizon as f64),
                ("trajectories", trajectories as f64),
                ("mean_abs_residual", abs_residual_sum / used as f64),
            ],
        );
        Ok(Estimate::from_contributions(per_record, diagnostics))
    }
}

impl<M: RewardModel> BatchEstimator for SeqDr<M> {
    fn estimate_batch(&self, trace: &Trace, batch: &EvalBatch) -> Result<Estimate, EstimatorError> {
        batch.check_trace(trace);
        fold_batch(SeqDrKernel::new(self.horizon), batch, None, 3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dr::DoublyRobust;
    use ddn_models::ConstantModel;
    use ddn_policy::{EpsilonSmoothedPolicy, LookupPolicy};
    use ddn_stats::rng::{Rng, Xoshiro256};
    use ddn_trace::{Context, ContextSchema, DecisionSpace, Trace, TraceRecord};

    fn schema() -> ContextSchema {
        ContextSchema::builder().categorical("g", 2).build()
    }

    fn space() -> DecisionSpace {
        DecisionSpace::of(&["a", "b"])
    }

    fn truth(g: u32, d: usize) -> f64 {
        2.0 + g as f64 + 3.0 * d as f64
    }

    fn session_trace(trajectories: usize, horizon: usize, seed: u64) -> Trace {
        let s = schema();
        let logger = EpsilonSmoothedPolicy::new(Box::new(LookupPolicy::constant(space(), 0)), 0.5);
        let mut rng = Xoshiro256::seed_from(seed);
        let mut recs = Vec::new();
        for _ in 0..trajectories {
            for _ in 0..horizon {
                let g = rng.index(2) as u32;
                let c = Context::build(&s).set_cat("g", g).finish();
                let (d, p) = logger.sample_with_prob(&c, &mut rng);
                recs.push(TraceRecord::new(c, d, truth(g, d.index())).with_propensity(p));
            }
        }
        Trace::from_records(s, space(), recs).unwrap()
    }

    #[test]
    fn horizon_one_reduces_to_dr_bit_for_bit() {
        let t = session_trace(250, 1, 41);
        let newp = LookupPolicy::constant(space(), 1);
        let model = || ConstantModel::new(1.5);
        let a = SeqDr::new(model(), 1).estimate(&t, &newp).unwrap();
        let b = DoublyRobust::new(model()).estimate(&t, &newp).unwrap();
        assert_eq!(a.value.to_bits(), b.value.to_bits());
        for (x, y) in a.per_record.iter().zip(&b.per_record) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.diagnostics, b.diagnostics);
    }

    #[test]
    fn batched_matches_unbatched_bit_for_bit() {
        let t = session_trace(60, 5, 42);
        let newp = LookupPolicy::constant(space(), 1);
        let model = ConstantModel::new(2.5);
        let seq = SeqDr::new(model, 5);
        let batch = EvalBatch::with_model(&t, &newp, &model).unwrap();
        let s = seq.estimate(&t, &newp).unwrap();
        let b = seq.estimate_batch(&t, &batch).unwrap();
        assert_eq!(s.value.to_bits(), b.value.to_bits());
        assert_eq!(s.diagnostics, b.diagnostics);
    }

    #[test]
    fn partial_trailing_trajectory_is_ignored() {
        let full = session_trace(10, 4, 43);
        // Append 3 stray records (an incomplete trajectory).
        let extra = session_trace(1, 3, 44);
        let mut recs = full.records().to_vec();
        recs.extend_from_slice(extra.records());
        let t = Trace::from_records(full.schema().clone(), space(), recs).unwrap();
        let newp = LookupPolicy::constant(space(), 1);
        let seq = SeqDr::new(ConstantModel::new(1.0), 4);
        let whole = seq.estimate(&t, &newp).unwrap();
        let complete_only = seq.estimate(&full, &newp).unwrap();
        assert_eq!(whole.value.to_bits(), complete_only.value.to_bits());
        assert_eq!(whole.per_record.len(), 10);
    }

    #[test]
    fn too_short_trace_has_no_usable_records() {
        let t = session_trace(1, 3, 45);
        let newp = LookupPolicy::constant(space(), 1);
        let seq = SeqDr::new(ConstantModel::new(1.0), 8);
        assert!(matches!(
            seq.estimate(&t, &newp),
            Err(EstimatorError::NoUsableRecords)
        ));
    }

    #[test]
    fn per_decision_variance_beats_trajectory_weighting() {
        // Trajectory-level alternative: weight each session's summed
        // reward by the product of its step weights. With a stochastic
        // target the step weights are 1/3 or 3 against the smoothed
        // logger, so six-step products span 0.0014..729 — heavy-tailed.
        // Per-decision DR must have visibly lower spread across seeds.
        let newp = EpsilonSmoothedPolicy::new(Box::new(LookupPolicy::constant(space(), 1)), 0.5);
        let horizon = 6;
        let trajectory_level = |t: &Trace| -> f64 {
            let w = importance_weights(t, &newp).unwrap();
            let mut vals = Vec::new();
            for (chunk_w, chunk_r) in w.chunks(horizon).zip(t.records().chunks(horizon)) {
                let prod: f64 = chunk_w.iter().product();
                let total: f64 = chunk_r.iter().map(|r| r.reward).sum();
                vals.push(prod * total);
            }
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        let spread = |per_decision: bool| {
            let vals: Vec<f64> = (0..30)
                .map(|i| {
                    let t = session_trace(40, horizon, 600 + i);
                    if per_decision {
                        SeqDr::new(ConstantModel::new(3.0), horizon)
                            .estimate(&t, &newp)
                            .unwrap()
                            .value
                    } else {
                        trajectory_level(&t)
                    }
                })
                .collect();
            let m = vals.iter().sum::<f64>() / vals.len() as f64;
            vals.iter().map(|v| (v - m).powi(2)).sum::<f64>() / vals.len() as f64
        };
        let v_seq = spread(true);
        let v_traj = spread(false);
        assert!(
            v_seq < v_traj,
            "per-decision variance {v_seq} should be far below trajectory-level {v_traj}"
        );
    }

    #[test]
    #[should_panic(expected = "horizon must be positive")]
    fn zero_horizon_panics() {
        let _ = SeqDr::new(ConstantModel::new(0.0), 0);
    }
}
