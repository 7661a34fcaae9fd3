//! Rejection-sampling replay for **non-stationary** policies — the paper's
//! §4.2 algorithm (after Li et al.'s contextual-bandit replay, paper ref
//! \[27\], and Dudík et al.'s DR extension, paper ref \[9\]).
//!
//! The basic DR estimator assumes the new policy is history-agnostic. Real
//! networking policies adapt to what they observe, so the paper extends DR:
//! maintain a separate history `g` containing only the tuples where the
//! *replayed* new policy's decision matched the logged one, and update the
//! DR estimate on exactly those tuples:
//!
//! ```text
//! g₁ = ∅, M = 0
//! for k = 1..n:
//!   sample d' ~ μ_new(· | c_k, g_k)
//!   if d' == d_k:
//!     M += Σ_d μ_new(d|c_k,g_k)·r̂(c_k,d) + w_k · (r_k − r̂(c_k,d_k))
//!     g_{k+1} = g_k ⊕ (c_k, d_k, r_k)
//!   else: g_{k+1} = g_k
//! return M / |g_{n+1}|
//! ```
//!
//! ## A correction to the paper's printed weight
//!
//! The paper writes `w_k = μ_new(d_k|c_k,g_k)/μ_old(d_k|c_k)`, the basic-DR
//! weight. But conditioned on *acceptance*, the logged decision is
//! distributed `q(d) ∝ μ_old(d|c_k) · μ_new(d|c_k,g_k)` — the rejection
//! step has already reshaped the proportions — so the unbiased correction
//! weight is `μ_new(d_k)/q(d_k) = Z_k / μ_old(d_k|c_k)` with
//! `Z_k = Σ_d μ_old(d|c_k)·μ_new(d|c_k,g_k)`. With that weight each
//! accepted tuple's conditional expectation is the per-client DR value
//! (paper Eq. 2), which is what makes the estimator "identical to the
//! basic DR under the assumption of stationary policies" as §4.2 claims;
//! the printed weight inflates the correction by `1/Z_k` (e.g. ×2 for a
//! uniform binary logger). We implement the unbiased weight and verify the
//! stationary-equivalence property in tests. Computing `Z_k` needs the full
//! old-policy distribution, which §2.1 assumes known ("we assume that the
//! policy μ_old is known").

use crate::batch::{note_reuse, EvalBatch};
use crate::estimate::{emit_weight_health, Estimate, EstimatorError, WeightDiagnostics};
use ddn_models::RewardModel;
use ddn_policy::{HistoryPolicy, Policy};
use ddn_stats::rng::Rng;
use ddn_trace::Trace;

/// Output of a replay evaluation: the estimate plus acceptance accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// The DR estimate over accepted tuples.
    pub estimate: Estimate,
    /// Tuples where the replayed decision matched the logged one (and were
    /// therefore fed into the new policy's history and the estimate).
    pub accepted: usize,
    /// Tuples skipped because the replayed decision disagreed.
    pub rejected: usize,
}

impl ReplayOutcome {
    /// Acceptance rate — a coverage diagnostic: low acceptance means the
    /// new policy's trajectory diverges quickly from the logged one and
    /// the estimate rests on few tuples.
    pub fn acceptance_rate(&self) -> f64 {
        let total = self.accepted + self.rejected;
        if total == 0 {
            0.0
        } else {
            self.accepted as f64 / total as f64
        }
    }
}

/// The §4.2 replay evaluator, parameterized by the DR reward model.
#[derive(Debug, Clone)]
pub struct ReplayEvaluator<M: RewardModel> {
    model: M,
}

impl<M: RewardModel> ReplayEvaluator<M> {
    /// Creates a replay evaluator around a fitted reward model.
    pub fn new(model: M) -> Self {
        Self { model }
    }

    /// Runs the replay of `new_policy` (reset first) over the trace logged
    /// by `old_policy`.
    ///
    /// The policy is driven sequentially: for each logged tuple the
    /// evaluator samples the new policy's decision under its current
    /// history; on a match, the tuple both contributes to the DR estimate
    /// and is appended (via [`HistoryPolicy::observe`]) to the policy's
    /// history.
    ///
    /// Errors with [`EstimatorError::NoUsableRecords`] if no tuple is
    /// accepted.
    pub fn evaluate(
        &self,
        trace: &Trace,
        old_policy: &dyn Policy,
        new_policy: &mut dyn HistoryPolicy,
        rng: &mut dyn Rng,
    ) -> Result<ReplayOutcome, EstimatorError> {
        if trace.space().len() != new_policy.space().len() {
            return Err(EstimatorError::SpaceMismatch {
                trace: trace.space().len(),
                policy: new_policy.space().len(),
            });
        }
        if trace.space().len() != old_policy.space().len() {
            return Err(EstimatorError::SpaceMismatch {
                trace: trace.space().len(),
                policy: old_policy.space().len(),
            });
        }
        new_policy.reset();
        let space = trace.space();
        let mut contributions = Vec::new();
        let mut weights = Vec::new();
        let mut rejected = 0usize;

        for rec in trace.records() {
            let probs_new = new_policy.probabilities(&rec.context);
            // Step 1: sample d' from μ_new(· | c_k, g_k).
            let u = rng.next_f64();
            let mut acc = 0.0;
            let mut sampled = probs_new.len() - 1;
            for (i, &p) in probs_new.iter().enumerate() {
                acc += p;
                if u < acc {
                    sampled = i;
                    break;
                }
            }
            // Step 2/3: accept iff the sampled decision matches the log.
            if sampled != rec.decision.index() {
                rejected += 1;
                continue;
            }
            let probs_old = old_policy.probabilities(&rec.context);
            let p_old = probs_old[rec.decision.index()];
            if p_old <= 0.0 {
                // The old policy claims it could never have logged this
                // decision — inconsistent inputs; skip defensively.
                rejected += 1;
                continue;
            }
            // Effective acceptance-conditioned propensity: q(d) = p_old·p_new/Z.
            let z: f64 = probs_old.iter().zip(&probs_new).map(|(a, b)| a * b).sum();
            let w = z / p_old;
            let dm_term: f64 = space
                .iter()
                .map(|d| probs_new[d.index()] * self.model.predict(&rec.context, d))
                .sum();
            let residual = rec.reward - self.model.predict(&rec.context, rec.decision);
            contributions.push(dm_term + w * residual);
            weights.push(w);
            new_policy.observe(&rec.context, rec.decision, rec.reward);
        }

        if contributions.is_empty() {
            return Err(EstimatorError::NoUsableRecords);
        }
        let diagnostics = WeightDiagnostics::from_weights(&weights);
        let accepted = contributions.len();
        let outcome = ReplayOutcome {
            estimate: Estimate::from_contributions(contributions, diagnostics),
            accepted,
            rejected,
        };
        emit_weight_health(
            "Replay",
            &diagnostics,
            &[
                ("acceptance_rate", outcome.acceptance_rate()),
                ("accepted", accepted as f64),
                ("rejected", rejected as f64),
            ],
        );
        Ok(outcome)
    }

    /// Batched counterpart of [`ReplayEvaluator::evaluate`]: `old_batch`
    /// must be built from the same trace with the *old* (logging)
    /// policy and this evaluator's model — its probability rows replace
    /// the per-record `old_policy.probabilities` calls, and its model
    /// scores replace the per-record predictions. The new policy's
    /// probabilities stay live because they depend on the replay
    /// history; the RNG consumption and all float arithmetic are
    /// identical to the unbatched path.
    pub fn evaluate_batch(
        &self,
        trace: &Trace,
        old_batch: &EvalBatch,
        new_policy: &mut dyn HistoryPolicy,
        rng: &mut dyn Rng,
    ) -> Result<ReplayOutcome, EstimatorError> {
        if trace.space().len() != new_policy.space().len() {
            return Err(EstimatorError::SpaceMismatch {
                trace: trace.space().len(),
                policy: new_policy.space().len(),
            });
        }
        old_batch.check_trace(trace);
        new_policy.reset();
        let space = trace.space();
        let mut contributions = Vec::new();
        let mut weights = Vec::new();
        let mut rejected = 0usize;

        for (i, rec) in trace.records().iter().enumerate() {
            let probs_new = new_policy.probabilities(&rec.context);
            let u = rng.next_f64();
            let mut acc = 0.0;
            let mut sampled = probs_new.len() - 1;
            for (j, &p) in probs_new.iter().enumerate() {
                acc += p;
                if u < acc {
                    sampled = j;
                    break;
                }
            }
            if sampled != rec.decision.index() {
                rejected += 1;
                continue;
            }
            let probs_old = old_batch.probs_row(i);
            let p_old = probs_old[rec.decision.index()];
            if p_old <= 0.0 {
                rejected += 1;
                continue;
            }
            let z: f64 = probs_old.iter().zip(&probs_new).map(|(a, b)| a * b).sum();
            let w = z / p_old;
            // The cached q row is the old-policy batch's, but q̂ depends
            // only on (context, decision), not on which policy the batch
            // was built for.
            let q = old_batch.q_row(i);
            let dm_term: f64 = space
                .iter()
                .map(|d| probs_new[d.index()] * q[d.index()])
                .sum();
            let residual = rec.reward - old_batch.q_logged()[i];
            contributions.push(dm_term + w * residual);
            weights.push(w);
            new_policy.observe(&rec.context, rec.decision, rec.reward);
        }

        if contributions.is_empty() {
            note_reuse("Replay", trace.len() as u64, 0);
            return Err(EstimatorError::NoUsableRecords);
        }
        let accepted = contributions.len();
        note_reuse("Replay", (trace.len() + 2 * accepted) as u64, 0);
        let diagnostics = WeightDiagnostics::from_weights(&weights);
        let outcome = ReplayOutcome {
            estimate: Estimate::from_contributions(contributions, diagnostics),
            accepted,
            rejected,
        };
        emit_weight_health(
            "Replay",
            &diagnostics,
            &[
                ("acceptance_rate", outcome.acceptance_rate()),
                ("accepted", accepted as f64),
                ("rejected", rejected as f64),
            ],
        );
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dr::DoublyRobust;
    use crate::estimate::Estimator;
    use ddn_models::{ConstantModel, FnModel};
    use ddn_policy::{LookupPolicy, StationaryAsHistory, UniformRandomPolicy};
    use ddn_stats::rng::Xoshiro256;
    use ddn_trace::{Context, ContextSchema, Decision, DecisionSpace, TraceRecord};

    fn schema() -> ContextSchema {
        ContextSchema::builder().categorical("g", 2).build()
    }

    fn space() -> DecisionSpace {
        DecisionSpace::of(&["a", "b"])
    }

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

    #[test]
    fn replay_matches_basic_dr_for_stationary_policy() {
        // §4.2's claim: on a stationary policy, replay estimates the same
        // quantity as basic DR (statistically — replay subsamples), even
        // with a wrong reward model.
        let t = uniform_trace(5000, 21);
        let old = UniformRandomPolicy::new(space());
        let stationary = LookupPolicy::constant(space(), 1);
        let dr = DoublyRobust::new(ConstantModel::new(2.0))
            .estimate(&t, &stationary)
            .unwrap();
        let mut hist = StationaryAsHistory::new(stationary);
        let mut rng = Xoshiro256::seed_from(99);
        let replay = ReplayEvaluator::new(ConstantModel::new(2.0))
            .evaluate(&t, &old, &mut hist, &mut rng)
            .unwrap();
        assert!(
            (replay.estimate.value - dr.value).abs() < 0.3,
            "replay {} vs dr {}",
            replay.estimate.value,
            dr.value
        );
        // Truth for "always d1": E[1 + 2g + 3] = 5.
        assert!((replay.estimate.value - 5.0).abs() < 0.3);
        // Deterministic new policy: acceptance equals the trace's share of
        // matching decisions (~50%).
        assert!((replay.acceptance_rate() - 0.5).abs() < 0.05);
    }

    #[test]
    fn replay_unbiased_for_stochastic_stationary_policy() {
        // A stochastic new policy exercises the Z_k correction: the
        // paper's printed weight would be off by 1/Z ≈ 2 here.
        let t = uniform_trace(20_000, 26);
        let old = UniformRandomPolicy::new(space());
        let newp = UniformRandomPolicy::new(space());
        // Truth for uniform new policy: E[1 + 2g + 3d] = 3.5.
        let mut hist = StationaryAsHistory::new(newp);
        let mut rng = Xoshiro256::seed_from(17);
        let out = ReplayEvaluator::new(ConstantModel::zero())
            .evaluate(&t, &old, &mut hist, &mut rng)
            .unwrap();
        assert!(
            (out.estimate.value - 3.5).abs() < 0.15,
            "{}",
            out.estimate.value
        );
    }

    #[test]
    fn replay_estimates_truth_with_perfect_model() {
        let t = uniform_trace(2000, 22);
        let old = UniformRandomPolicy::new(space());
        let model = FnModel::new(|c: &Context, d: Decision| truth(c.cat(0), d.index()));
        let mut hist = StationaryAsHistory::new(UniformRandomPolicy::new(space()));
        let mut rng = Xoshiro256::seed_from(7);
        let out = ReplayEvaluator::new(model)
            .evaluate(&t, &old, &mut hist, &mut rng)
            .unwrap();
        assert!(
            (out.estimate.value - 3.5).abs() < 0.15,
            "{}",
            out.estimate.value
        );
    }

    /// ε-greedy history policy: prefers (with prob 0.9) the decision that
    /// last yielded reward ≥ 4, exploring the rest uniformly.
    struct Adaptive {
        space: DecisionSpace,
        preferred: usize,
    }

    impl HistoryPolicy for Adaptive {
        fn space(&self) -> &DecisionSpace {
            &self.space
        }
        fn reset(&mut self) {
            self.preferred = 0;
        }
        fn probabilities(&self, _c: &Context) -> Vec<f64> {
            let k = self.space.len();
            let mut p = vec![0.1 / (k - 1) as f64; k];
            p[self.preferred] = 0.9;
            p
        }
        fn observe(&mut self, _c: &Context, d: Decision, r: f64) {
            if r >= 4.0 {
                self.preferred = d.index();
            }
        }
    }

    #[test]
    fn replay_feeds_history_only_on_match() {
        let t = uniform_trace(3000, 23);
        let old = UniformRandomPolicy::new(space());
        let mut pol = Adaptive {
            space: space(),
            preferred: 1,
        }; // reset() sets 0
        let mut rng = Xoshiro256::seed_from(3);
        let out = ReplayEvaluator::new(ConstantModel::zero())
            .evaluate(&t, &old, &mut pol, &mut rng)
            .unwrap();
        assert!(out.accepted > 0 && out.rejected > 0);
        assert_eq!(out.accepted + out.rejected, 3000);
        // The adaptive policy locks onto high-reward decisions; its value
        // estimate should exceed the logging policy's on-trace mean.
        assert!(
            out.estimate.value > t.mean_reward(),
            "adaptive {} should beat logging {}",
            out.estimate.value,
            t.mean_reward()
        );
    }

    #[test]
    fn replay_errors_when_nothing_accepted() {
        // Trace only has d0; new policy deterministically d1.
        let s = schema();
        let recs: Vec<TraceRecord> = (0..10)
            .map(|_| {
                let c = Context::build(&s).set_cat("g", 0).finish();
                TraceRecord::new(c, Decision::from_index(0), 1.0).with_propensity(1.0)
            })
            .collect();
        let t = Trace::from_records(s, space(), recs).unwrap();
        let old = LookupPolicy::constant(space(), 0);
        let mut pol = StationaryAsHistory::new(LookupPolicy::constant(space(), 1));
        let mut rng = Xoshiro256::seed_from(1);
        assert!(matches!(
            ReplayEvaluator::new(ConstantModel::zero()).evaluate(&t, &old, &mut pol, &mut rng),
            Err(EstimatorError::NoUsableRecords)
        ));
    }

    #[test]
    fn replay_resets_policy_between_runs() {
        let t = uniform_trace(500, 24);
        let old = UniformRandomPolicy::new(space());
        let mut pol = Adaptive {
            space: space(),
            preferred: 1,
        };
        let mut rng = Xoshiro256::seed_from(4);
        let ev = ReplayEvaluator::new(ConstantModel::zero());
        let a = ev.evaluate(&t, &old, &mut pol, &mut rng).unwrap();
        // Second run with identical rng seed should be identical because
        // reset() clears the adaptive state.
        let mut rng2 = Xoshiro256::seed_from(4);
        let b = ev.evaluate(&t, &old, &mut pol, &mut rng2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn space_mismatch_rejected() {
        let t = uniform_trace(10, 25);
        let old = UniformRandomPolicy::new(space());
        let mut pol = StationaryAsHistory::new(UniformRandomPolicy::new(DecisionSpace::of(&["x"])));
        let mut rng = Xoshiro256::seed_from(5);
        assert!(matches!(
            ReplayEvaluator::new(ConstantModel::zero()).evaluate(&t, &old, &mut pol, &mut rng),
            Err(EstimatorError::SpaceMismatch { .. })
        ));
    }
}
