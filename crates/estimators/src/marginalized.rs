//! Marginalized DR for large composite action spaces
//! (action-embedding OPE, Saito & Joachims 2022 lineage; ROADMAP item 3b).
//!
//! A production decision is rarely one knob: a CDN choice × a bitrate ×
//! a relay is a single composite arm, and the composite space easily
//! reaches thousands of arms. Vanilla IPS weights over such a space are
//! products of near-zero propensities — the Figure 7c curse of
//! dimensionality at production scale — and the ESS collapses to a
//! handful of records. But the *reward* usually depends on the arm only
//! through a coarser feature — which CDN, which bitrate tier — so the
//! importance weight can be taken over that coarse **embedding** instead:
//!
//! ```text
//! w_k = Σ_{a : e(a) = e(a_k)} μ_new(a|c_k)  /  Σ_{a : e(a) = e(a_k)} μ_old(a|c_k)
//! ```
//!
//! The marginal propensities are orders of magnitude larger than the
//! per-arm ones, so the weights stay bounded while the DR model term
//! keeps absorbing the within-group reward differences.
//!
//! The marginal denominators need the full logging *distribution* per
//! context — a scalar recorded propensity for the logged arm is not
//! enough mass to marginalize — so [`MarginalizedDr`] takes the logging
//! policy explicitly and never reads recorded propensities.
//!
//! With the identity embedding (every arm its own group) each marginal
//! sum collapses to a single probability — a one-element left fold is
//! exact — so the estimator reduces **bit-identically** to vanilla
//! [`crate::DoublyRobust`] whenever the trace's recorded propensities
//! equal the logging policy's probabilities; the reduction property test
//! pins this.

use crate::batch::{BatchEstimator, EvalBatch};
use crate::estimate::{
    check_space, emit_weight_health, Estimate, Estimator, EstimatorError, WeightDiagnostics,
};
use crate::online::{fold_batch, MdrKernel};
use ddn_models::RewardModel;
use ddn_policy::Policy;
use ddn_trace::Trace;

/// A surjective map from arms onto coarse embedding groups — "which CDN",
/// "which bitrate tier" — over which importance weights are marginalized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActionEmbedding {
    groups: Vec<usize>,
    num_groups: usize,
}

impl ActionEmbedding {
    /// The identity embedding over `k` arms: every arm is its own group,
    /// reducing marginalized weights to vanilla per-arm weights.
    pub fn identity(k: usize) -> Self {
        assert!(k > 0, "embedding needs at least one arm");
        Self {
            groups: (0..k).collect(),
            num_groups: k,
        }
    }

    /// An embedding from an explicit per-arm group assignment.
    ///
    /// # Panics
    /// Panics if `groups` is empty.
    pub fn from_groups(groups: Vec<usize>) -> Self {
        assert!(!groups.is_empty(), "embedding needs at least one arm");
        let num_groups = groups.iter().max().copied().unwrap_or(0) + 1;
        Self { groups, num_groups }
    }

    /// Number of arms the embedding covers.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether the embedding covers zero arms (unreachable through the
    /// constructors).
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Number of distinct groups.
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// The group of arm `a`.
    pub fn group_of(&self, a: usize) -> usize {
        self.groups[a]
    }

    /// The raw per-arm group assignment.
    pub fn groups(&self) -> &[usize] {
        &self.groups
    }

    /// Marginal probability mass of `row` over the group of arm `a` —
    /// an ascending-index left fold, so a singleton group equals its
    /// element exactly.
    pub fn marginal(&self, row: &[f64], a: usize) -> f64 {
        let g = self.groups[a];
        row.iter()
            .enumerate()
            .filter(|(i, _)| self.groups[*i] == g)
            .map(|(_, p)| *p)
            .sum()
    }
}

/// Marginalized Doubly Robust over an [`ActionEmbedding`] — see the
/// module docs for the estimand and the identity-embedding reduction.
pub struct MarginalizedDr<M: RewardModel> {
    model: M,
    embedding: ActionEmbedding,
    logging: Box<dyn Policy + Send + Sync>,
}

impl<M: RewardModel> MarginalizedDr<M> {
    /// Creates a marginalized-DR estimator around a fitted reward model,
    /// an embedding over the trace's arms, and the logging policy whose
    /// full distribution supplies the marginal denominators.
    pub fn new(
        model: M,
        embedding: ActionEmbedding,
        logging: Box<dyn Policy + Send + Sync>,
    ) -> Self {
        Self {
            model,
            embedding,
            logging,
        }
    }

    /// The underlying reward model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The action embedding.
    pub fn embedding(&self) -> &ActionEmbedding {
        &self.embedding
    }

    /// Marginal importance weights for every record, in record order.
    fn marginal_weights(&self, trace: &Trace, new_probs: impl Fn(usize) -> Vec<f64>) -> Vec<f64> {
        trace
            .records()
            .iter()
            .enumerate()
            .map(|(i, rec)| {
                let a = rec.decision.index();
                let num = self.embedding.marginal(&new_probs(i), a);
                let den = self
                    .embedding
                    .marginal(&self.logging.probabilities(&rec.context), a);
                num / den
            })
            .collect()
    }

    fn check_embedding(&self, trace: &Trace) {
        assert_eq!(
            self.embedding.len(),
            trace.space().len(),
            "embedding covers {} arms but the trace has {}",
            self.embedding.len(),
            trace.space().len()
        );
    }
}

impl<M: RewardModel> Estimator for MarginalizedDr<M> {
    fn name(&self) -> &str {
        "MarginalizedDR"
    }

    fn estimate(&self, trace: &Trace, new_policy: &dyn Policy) -> Result<Estimate, EstimatorError> {
        check_space(trace, new_policy)?;
        check_space(trace, self.logging.as_ref())?;
        self.check_embedding(trace);
        let weights = self.marginal_weights(trace, |i| {
            new_policy.probabilities(&trace.records()[i].context)
        });
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
            &[
                ("embedding_groups", self.embedding.num_groups() as f64),
                ("mean_abs_residual", abs_residual_sum / trace.len() as f64),
            ],
        );
        Ok(Estimate::from_contributions(per_record, diagnostics))
    }
}

impl<M: RewardModel> BatchEstimator for MarginalizedDr<M> {
    fn estimate_batch(&self, trace: &Trace, batch: &EvalBatch) -> Result<Estimate, EstimatorError> {
        batch.check_trace(trace);
        check_space(trace, self.logging.as_ref())?;
        self.check_embedding(trace);
        let weights = self.marginal_weights(trace, |i| batch.probs_row(i).to_vec());
        let groups = self.embedding.num_groups();
        fold_batch(MdrKernel { groups }, batch, Some(&weights), 3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dr::DoublyRobust;
    use crate::ips::Ips;
    use ddn_models::ConstantModel;
    use ddn_policy::{EpsilonSmoothedPolicy, LookupPolicy, UniformRandomPolicy};
    use ddn_stats::rng::{Rng, Xoshiro256};
    use ddn_trace::{Context, ContextSchema, DecisionSpace, Trace, TraceRecord};

    fn schema() -> ContextSchema {
        ContextSchema::builder().categorical("g", 2).build()
    }

    /// A composite space: 4 CDNs × 3 bitrates = 12 arms, grouped by CDN.
    fn composite_space() -> DecisionSpace {
        DecisionSpace::new(
            (0..12)
                .map(|a| format!("cdn{}_br{}", a / 3, a % 3))
                .collect(),
        )
    }

    fn cdn_embedding() -> ActionEmbedding {
        ActionEmbedding::from_groups((0..12).map(|a| a / 3).collect())
    }

    /// Reward depends on the arm only through the CDN group.
    fn truth(g: u32, cdn: usize) -> f64 {
        1.0 + g as f64 + 2.0 * cdn as f64
    }

    fn logged_trace(n: usize, seed: u64) -> (Trace, EpsilonSmoothedPolicy) {
        let s = schema();
        let space = composite_space();
        let logger =
            EpsilonSmoothedPolicy::new(Box::new(LookupPolicy::constant(space.clone(), 0)), 0.6);
        let mut rng = Xoshiro256::seed_from(seed);
        let recs = (0..n)
            .map(|_| {
                let g = rng.index(2) as u32;
                let c = Context::build(&s).set_cat("g", g).finish();
                let (d, p) = logger.sample_with_prob(&c, &mut rng);
                TraceRecord::new(c, d, truth(g, d.index() / 3)).with_propensity(p)
            })
            .collect();
        (
            Trace::from_records(s, space.clone(), recs).unwrap(),
            EpsilonSmoothedPolicy::new(Box::new(LookupPolicy::constant(space, 0)), 0.6),
        )
    }

    #[test]
    fn identity_embedding_reduces_to_dr_bit_for_bit() {
        let (t, logger) = logged_trace(300, 31);
        let newp = LookupPolicy::constant(composite_space(), 7);
        let model = || ConstantModel::new(2.0);
        let mdr = MarginalizedDr::new(model(), ActionEmbedding::identity(12), Box::new(logger));
        let a = mdr.estimate(&t, &newp).unwrap();
        let b = DoublyRobust::new(model()).estimate(&t, &newp).unwrap();
        assert_eq!(a.value.to_bits(), b.value.to_bits());
        for (x, y) in a.per_record.iter().zip(&b.per_record) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.diagnostics, b.diagnostics);
    }

    #[test]
    fn batched_matches_unbatched_bit_for_bit() {
        let (t, logger) = logged_trace(400, 32);
        let newp = LookupPolicy::constant(composite_space(), 4);
        let model = ConstantModel::new(1.0);
        let mdr = MarginalizedDr::new(model, cdn_embedding(), Box::new(logger));
        let batch = EvalBatch::with_model(&t, &newp, &model).unwrap();
        let s = mdr.estimate(&t, &newp).unwrap();
        let b = mdr.estimate_batch(&t, &batch).unwrap();
        assert_eq!(s.value.to_bits(), b.value.to_bits());
        assert_eq!(s.diagnostics, b.diagnostics);
    }

    #[test]
    fn marginal_weights_bound_ess_collapse() {
        // Composite-arm IPS collapses ESS; marginalized weights keep it
        // near n because the group propensities are large.
        let (t, logger) = logged_trace(500, 33);
        let newp =
            EpsilonSmoothedPolicy::new(Box::new(LookupPolicy::constant(composite_space(), 9)), 0.4);
        let ips = Ips::new().estimate(&t, &newp).unwrap();
        let mdr = MarginalizedDr::new(ConstantModel::zero(), cdn_embedding(), Box::new(logger))
            .estimate(&t, &newp)
            .unwrap();
        assert!(
            mdr.diagnostics.effective_sample_size > 2.0 * ips.diagnostics.effective_sample_size,
            "marginal ESS {} should dwarf composite ESS {}",
            mdr.diagnostics.effective_sample_size,
            ips.diagnostics.effective_sample_size
        );
        assert!(mdr.diagnostics.max_weight < ips.diagnostics.max_weight);
    }

    #[test]
    fn needs_no_recorded_propensities() {
        // Strip the propensities: marginalized DR still works because the
        // logging policy supplies the denominators.
        let (t, logger) = logged_trace(100, 34);
        let bare: Vec<TraceRecord> = t
            .records()
            .iter()
            .map(|r| TraceRecord::new(r.context.clone(), r.decision, r.reward))
            .collect();
        let t2 = Trace::from_records(t.schema().clone(), t.space().clone(), bare).unwrap();
        let newp = LookupPolicy::constant(composite_space(), 2);
        let mdr = MarginalizedDr::new(ConstantModel::new(0.5), cdn_embedding(), Box::new(logger));
        assert!(mdr.estimate(&t2, &newp).is_ok());
        assert!(Ips::new().estimate(&t2, &newp).is_err());
    }

    #[test]
    fn marginal_of_uniform_row_is_group_mass() {
        let emb = cdn_embedding();
        let uniform = UniformRandomPolicy::new(composite_space());
        let c = Context::build(&schema()).set_cat("g", 0).finish();
        let row = uniform.probabilities(&c);
        // Each CDN group holds 3 of 12 uniform arms: mass 1/4.
        for a in 0..12 {
            assert!((emb.marginal(&row, a) - 0.25).abs() < 1e-12);
        }
        assert_eq!(emb.num_groups(), 4);
    }

    #[test]
    fn singleton_marginal_is_exact() {
        let emb = ActionEmbedding::identity(3);
        let row = [-0.0, 0.25, 1e-300];
        assert_eq!(emb.marginal(&row, 0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(emb.marginal(&row, 2).to_bits(), 1e-300f64.to_bits());
    }
}
