//! State-aware DR estimation — paper §4.1 "System state of the world" and
//! §4.3 "Modeling world state".
//!
//! The DR theory implicitly assumes the new policy is evaluated under the
//! same system state as the trace was collected. In networks that's often
//! false: "we want to evaluate the performance of a server selection logic
//! during peak hours, but the trace we have was collected during early
//! morning hours." [`StateAwareDr`] addresses this two ways, both from the
//! paper:
//!
//! 1. **State matching**: only records tagged with the target
//!    [`StateTag`] enter the estimate directly.
//! 2. **Transition transport** (§4.3): records from *other* states are
//!    mapped into the target state through a [`TransitionModel`] — e.g.
//!    "peak-hour performance is on average 20% worse than morning-hour
//!    performance, so degrade the trace rewards by 20%". A transported
//!    record contributes like a matched one but through the adjusted
//!    reward.

use crate::batch::{note_reuse, EvalBatch};
use crate::estimate::{
    check_space, emit_weight_health, Estimate, EstimatorError, WeightDiagnostics,
};
use crate::ips::importance_weights;
use ddn_models::RewardModel;
use ddn_policy::Policy;
use ddn_trace::{StateTag, Trace};

/// Maps a reward observed in one system state into an equivalent reward in
/// another state (the §4.3 "transition function" between network states).
pub trait TransitionModel {
    /// Transports `reward` observed under `from` into state `to`.
    /// Returning `None` declares the pair non-transportable; such records
    /// are dropped from the estimate.
    fn transport(&self, reward: f64, from: StateTag, to: StateTag) -> Option<f64>;
}

/// Multiplicative state transport: each state has a performance scale
/// relative to a common baseline; rewards move between states by the scale
/// ratio. The paper's "degrade the performance in the trace by 20%"
/// example is `ScaleTransition` with peak scale `0.8` relative to morning
/// scale `1.0`.
#[derive(Debug, Clone)]
pub struct ScaleTransition {
    scales: Vec<(StateTag, f64)>,
}

impl ScaleTransition {
    /// Creates a transport from per-state scales.
    ///
    /// # Panics
    /// Panics if any scale is non-positive or a state repeats.
    pub fn new(scales: Vec<(StateTag, f64)>) -> Self {
        for (i, (tag, s)) in scales.iter().enumerate() {
            assert!(
                s.is_finite() && *s > 0.0,
                "scale for {tag:?} must be positive"
            );
            assert!(
                !scales[..i].iter().any(|(t, _)| t == tag),
                "duplicate state {tag:?} in transition scales"
            );
        }
        Self { scales }
    }

    fn scale(&self, tag: StateTag) -> Option<f64> {
        self.scales.iter().find(|(t, _)| *t == tag).map(|(_, s)| *s)
    }
}

impl ScaleTransition {
    /// Calibrates per-state scales from a state-tagged trace: each state's
    /// scale is its mean observed reward relative to `reference`'s — the
    /// paper's §4.3 proposal ("collecting a few samples from various
    /// network states, and then identifying the transition function")
    /// in its simplest multiplicative form.
    ///
    /// States absent from the trace get no scale (and are therefore
    /// non-transportable). Errors if the reference state is absent or has
    /// zero mean reward.
    pub fn calibrate(trace: &Trace, reference: StateTag) -> Result<Self, EstimatorError> {
        let mut sums: Vec<(StateTag, f64, usize)> = Vec::new();
        for r in trace.records() {
            let Some(tag) = r.state else { continue };
            match sums.iter_mut().find(|(t, _, _)| *t == tag) {
                Some((_, s, n)) => {
                    *s += r.reward;
                    *n += 1;
                }
                None => sums.push((tag, r.reward, 1)),
            }
        }
        let ref_mean = sums
            .iter()
            .find(|(t, _, _)| *t == reference)
            .map(|(_, s, n)| s / *n as f64)
            .ok_or(EstimatorError::NoUsableRecords)?;
        if ref_mean == 0.0 {
            return Err(EstimatorError::NoUsableRecords);
        }
        let scales = sums
            .into_iter()
            .map(|(t, s, n)| (t, (s / n as f64) / ref_mean))
            .filter(|(_, scale)| scale.is_finite() && *scale > 0.0)
            .collect();
        Ok(Self::new(scales))
    }
}

impl TransitionModel for ScaleTransition {
    fn transport(&self, reward: f64, from: StateTag, to: StateTag) -> Option<f64> {
        if from == to {
            return Some(reward);
        }
        let sf = self.scale(from)?;
        let st = self.scale(to)?;
        Some(reward * st / sf)
    }
}

/// Identity transport that only matches identical states — pure state
/// matching with no cross-state borrowing.
#[derive(Debug, Clone, Copy, Default)]
pub struct MatchOnly;

impl TransitionModel for MatchOnly {
    fn transport(&self, reward: f64, from: StateTag, to: StateTag) -> Option<f64> {
        (from == to).then_some(reward)
    }
}

/// DR estimation restricted/transported to a target system state.
///
/// Records without a state tag are treated as non-transportable and
/// dropped (a trace that never tagged states should use plain
/// [`crate::DoublyRobust`] instead).
pub struct StateAwareDr<M: RewardModel, T: TransitionModel> {
    model: M,
    transition: T,
    target: StateTag,
}

impl<M: RewardModel, T: TransitionModel> StateAwareDr<M, T> {
    /// Creates a state-aware DR estimator evaluating in state `target`.
    pub fn new(model: M, transition: T, target: StateTag) -> Self {
        Self {
            model,
            transition,
            target,
        }
    }

    /// The target evaluation state.
    pub fn target(&self) -> StateTag {
        self.target
    }

    /// Estimates `V(new_policy)` in the target state.
    ///
    /// Every usable record's observed reward — and its model prediction's
    /// residual baseline — is transported into the target state before the
    /// standard DR combination. Errors with
    /// [`EstimatorError::NoUsableRecords`] when nothing is transportable.
    pub fn estimate(
        &self,
        trace: &Trace,
        new_policy: &dyn Policy,
    ) -> Result<Estimate, EstimatorError> {
        check_space(trace, new_policy)?;
        let weights = importance_weights(trace, new_policy)?;
        let space = trace.space();
        let mut contributions = Vec::new();
        let mut used_weights = Vec::new();
        for (rec, &w) in trace.records().iter().zip(&weights) {
            let Some(from) = rec.state else { continue };
            let Some(reward) = self.transition.transport(rec.reward, from, self.target) else {
                continue;
            };
            let probs = new_policy.probabilities(&rec.context);
            let dm_term: f64 = space
                .iter()
                .map(|d| probs[d.index()] * self.model.predict(&rec.context, d))
                .sum();
            let residual = reward - self.model.predict(&rec.context, rec.decision);
            contributions.push(dm_term + w * residual);
            used_weights.push(w);
        }
        if contributions.is_empty() {
            return Err(EstimatorError::NoUsableRecords);
        }
        let diagnostics = WeightDiagnostics::from_weights(&used_weights);
        emit_weight_health(
            "StateAwareDR",
            &diagnostics,
            &[
                ("coverage", contributions.len() as f64 / trace.len() as f64),
                ("match_count", contributions.len() as f64),
            ],
        );
        Ok(Estimate::from_contributions(contributions, diagnostics))
    }

    /// Batched counterpart of [`StateAwareDr::estimate`]: state tags,
    /// rewards, importance weights, DM terms and logged-decision
    /// predictions all come from the shared batch, built with this
    /// estimator's model. Bit-identical to the unbatched path.
    pub fn estimate_batch(
        &self,
        trace: &Trace,
        batch: &EvalBatch,
    ) -> Result<Estimate, EstimatorError> {
        batch.check_trace(trace);
        let weights = batch.weights()?;
        note_reuse("StateAwareDR", 3 * trace.len() as u64, 0);
        let mut contributions = Vec::new();
        let mut used_weights = Vec::new();
        for (i, (&w, &state)) in weights.iter().zip(batch.states()).enumerate() {
            let Some(from) = state else { continue };
            let reward = batch.rewards()[i];
            let Some(reward) = self.transition.transport(reward, from, self.target) else {
                continue;
            };
            let residual = reward - batch.q_logged()[i];
            contributions.push(batch.dm_terms()[i] + w * residual);
            used_weights.push(w);
        }
        if contributions.is_empty() {
            return Err(EstimatorError::NoUsableRecords);
        }
        let diagnostics = WeightDiagnostics::from_weights(&used_weights);
        emit_weight_health(
            "StateAwareDR",
            &diagnostics,
            &[
                ("coverage", contributions.len() as f64 / trace.len() as f64),
                ("match_count", contributions.len() as f64),
            ],
        );
        Ok(Estimate::from_contributions(contributions, diagnostics))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dr::DoublyRobust;
    use crate::estimate::Estimator;
    use ddn_models::ConstantModel;
    use ddn_policy::UniformRandomPolicy;
    use ddn_stats::rng::{Rng, Xoshiro256};
    use ddn_trace::{Context, ContextSchema, Decision, DecisionSpace, TraceRecord};

    fn schema() -> ContextSchema {
        ContextSchema::builder().categorical("g", 2).build()
    }

    fn space() -> DecisionSpace {
        DecisionSpace::of(&["a", "b"])
    }

    /// Morning reward 10, peak reward 8 (20% worse), both states logged.
    fn two_state_trace(n: usize, seed: u64) -> Trace {
        let s = schema();
        let mut rng = Xoshiro256::seed_from(seed);
        let recs = (0..n)
            .map(|_| {
                let peak = rng.chance(0.5);
                let d = rng.index(2);
                let c = Context::build(&s).set_cat("g", 0).finish();
                let r = if peak { 8.0 } else { 10.0 };
                TraceRecord::new(c, Decision::from_index(d), r)
                    .with_propensity(0.5)
                    .with_state(if peak {
                        StateTag::HIGH_LOAD
                    } else {
                        StateTag::LOW_LOAD
                    })
            })
            .collect();
        Trace::from_records(s, space(), recs).unwrap()
    }

    #[test]
    fn match_only_uses_target_state_records() {
        let t = two_state_trace(2000, 31);
        let newp = UniformRandomPolicy::new(space());
        let est = StateAwareDr::new(ConstantModel::zero(), MatchOnly, StateTag::HIGH_LOAD);
        let e = est.estimate(&t, &newp).unwrap();
        assert!((e.value - 8.0).abs() < 0.1, "peak estimate {}", e.value);
        // Roughly half the records are usable.
        assert!((e.per_record.len() as f64 / 2000.0 - 0.5).abs() < 0.05);
    }

    #[test]
    fn naive_dr_is_biased_across_states() {
        // Plain DR pools morning and peak records: estimates ~9 when the
        // peak-hour truth is 8 — the §4.1 bias the state-aware variant fixes.
        let t = two_state_trace(2000, 32);
        let newp = UniformRandomPolicy::new(space());
        let naive = DoublyRobust::new(ConstantModel::zero())
            .estimate(&t, &newp)
            .unwrap();
        assert!((naive.value - 9.0).abs() < 0.1, "pooled {}", naive.value);
    }

    #[test]
    fn scale_transition_transports_morning_into_peak() {
        // Transition model: peak is 20% worse (scale 0.8 vs 1.0). All
        // records become usable and morning rewards 10 → 8.
        let t = two_state_trace(2000, 33);
        let newp = UniformRandomPolicy::new(space());
        let trans =
            ScaleTransition::new(vec![(StateTag::LOW_LOAD, 1.0), (StateTag::HIGH_LOAD, 0.8)]);
        let est = StateAwareDr::new(ConstantModel::zero(), trans, StateTag::HIGH_LOAD);
        let e = est.estimate(&t, &newp).unwrap();
        assert!((e.value - 8.0).abs() < 0.05, "transported {}", e.value);
        assert_eq!(e.per_record.len(), 2000);
    }

    #[test]
    fn scale_transition_is_symmetric() {
        let trans =
            ScaleTransition::new(vec![(StateTag::LOW_LOAD, 1.0), (StateTag::HIGH_LOAD, 0.8)]);
        let down = trans
            .transport(10.0, StateTag::LOW_LOAD, StateTag::HIGH_LOAD)
            .unwrap();
        let up = trans
            .transport(down, StateTag::HIGH_LOAD, StateTag::LOW_LOAD)
            .unwrap();
        assert!((down - 8.0).abs() < 1e-12);
        assert!((up - 10.0).abs() < 1e-12);
        assert_eq!(
            trans.transport(5.0, StateTag::LOW_LOAD, StateTag::LOW_LOAD),
            Some(5.0)
        );
    }

    #[test]
    fn unknown_state_not_transportable() {
        let trans = ScaleTransition::new(vec![(StateTag::LOW_LOAD, 1.0)]);
        assert_eq!(
            trans.transport(1.0, StateTag::OVERLOAD, StateTag::LOW_LOAD),
            None
        );
    }

    #[test]
    fn untagged_records_dropped_and_empty_errors() {
        let s = schema();
        let recs = vec![TraceRecord::new(
            Context::build(&s).set_cat("g", 0).finish(),
            Decision::from_index(0),
            1.0,
        )
        .with_propensity(0.5)];
        let t = Trace::from_records(s, space(), recs).unwrap();
        let newp = UniformRandomPolicy::new(space());
        let est = StateAwareDr::new(ConstantModel::zero(), MatchOnly, StateTag::LOW_LOAD);
        assert!(matches!(
            est.estimate(&t, &newp),
            Err(EstimatorError::NoUsableRecords)
        ));
    }

    #[test]
    fn calibration_recovers_the_ratio() {
        // Morning rewards 10, peak rewards 8 — calibrated scale for peak
        // relative to morning must be 0.8, and transporting morning
        // rewards into peak must land at 8.
        let t = two_state_trace(4_000, 77);
        let trans = ScaleTransition::calibrate(&t, StateTag::LOW_LOAD).unwrap();
        let moved = trans
            .transport(10.0, StateTag::LOW_LOAD, StateTag::HIGH_LOAD)
            .unwrap();
        assert!((moved - 8.0).abs() < 0.1, "transported {moved}");
        // Self-transport is identity.
        assert_eq!(
            trans.transport(3.0, StateTag::LOW_LOAD, StateTag::LOW_LOAD),
            Some(3.0)
        );
    }

    #[test]
    fn calibration_requires_the_reference_state() {
        let t = two_state_trace(100, 78);
        assert!(matches!(
            ScaleTransition::calibrate(&t, StateTag::OVERLOAD),
            Err(EstimatorError::NoUsableRecords)
        ));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn bad_scale_panics() {
        let _ = ScaleTransition::new(vec![(StateTag::LOW_LOAD, 0.0)]);
    }
}
