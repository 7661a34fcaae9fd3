//! Adaptively-weighted IPS/DR for adaptively collected logs
//! (Zhan et al. 2021, "Off-Policy Evaluation via Adaptive Weighting").
//!
//! When the logging policy *learns while it logs* — a LinUCB bandit, an
//! ε-decaying explorer, any history-driven controller — the propensities
//! `μ_old(d_k|c_k)` shrink over time on the arms the logger abandons. A
//! late record of an abandoned arm then carries an enormous importance
//! weight, and plain IPS/SNIPS confidence collapses: the estimate is
//! hostage to a handful of low-propensity tail records. Zhan et al.'s fix
//! is to re-weight record `k` by an *adaptive stabilizer* `h_k` that
//! tracks the per-record variance, and self-normalize:
//!
//! ```text
//! V̂_adaptive = (1/n) Σ_k (h_k · Γ_k) · (n / Σ_j h_j)
//! ```
//!
//! where `Γ_k` is the underlying estimator's per-record contribution
//! (`w_k·r_k` for IPS, `dm_k + w_k·(r_k − q̂_k)` for DR). The stabilizer
//! must be measurable with respect to the *history* — it may look at
//! records `0..k` but never at record `k`'s own realized action, or the
//! correlation between `h_k` and `Γ_k` biases the ratio. We therefore
//! use `h_k = 1/√(max(1, m_k))` where `m_k` is an exponential moving
//! average of the *past* squared importance weights `w_j², j < k`:
//! `E[w²]` given the epoch is exactly the variance-inflation factor of
//! that epoch, so `h_k` approximates inverse-standard-deviation
//! (precision) weighting while remaining action-independent at `k` —
//! records from the logger's collapsed late epochs are shrunk toward
//! zero influence, and `E[h_k·Γ_k | history] = h_k·V` keeps the
//! normalized estimator consistent.
//!
//! With [`AdaptiveWeights::Constant`] every `h_k` is `1.0` and the
//! expression collapses **bit-identically** onto plain IPS/DR: `1.0·Γ`
//! is exact, `Σ_j 1.0 = n` is exact for any trace that fits in memory,
//! and `n/n = 1.0` is exact — pinned by the reduction property tests.

use crate::batch::{BatchEstimator, EvalBatch};
use crate::estimate::{
    check_space, emit_weight_health, Estimate, Estimator, EstimatorError, WeightDiagnostics,
};
use crate::ips::importance_weights;
use crate::online::{fold_batch, AdaptiveKernel, DrKernel, IpsKernel};
use ddn_models::RewardModel;
use ddn_policy::Policy;
use ddn_trace::Trace;

/// EMA decay for the squared-weight variance tracker: each record moves
/// the tracked `E[w²]` 5% toward its own `w²`, so the stabilizer adapts
/// over a ~20-record timescale — fast enough to follow a learning
/// logger, slow enough that one tail weight cannot whipsaw it.
pub(crate) const EMA_ALPHA: f64 = 0.05;

/// The stabilizer schedule for the adaptive family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptiveWeights {
    /// `h_k = 1/√(max(1, EMA of past w²))` — precision weighting against
    /// the logger's variance trajectory; see the module docs.
    Stabilized,
    /// `h_k = 1` — degenerates bit-identically to the unweighted
    /// estimator; exists so the reduction is a testable property, and as
    /// the safe default when the log is known to be stationary.
    Constant,
}

impl AdaptiveWeights {
    /// The stabilizer at the current variance-tracker value `m`.
    pub(crate) fn h_at(self, m: f64) -> f64 {
        match self {
            AdaptiveWeights::Stabilized => 1.0 / m.max(1.0).sqrt(),
            AdaptiveWeights::Constant => 1.0,
        }
    }

    /// Folds record `k`'s squared weight into the variance tracker
    /// (after `h_k` has been taken — `h_k` must not see `w_k`).
    pub(crate) fn advance(m: f64, w: f64) -> f64 {
        (1.0 - EMA_ALPHA) * m + EMA_ALPHA * (w * w)
    }
}

/// Per-record stabilizers `h_k` from the weight stream: `h_k` sees only
/// `w_j, j < k`, starting from a tracker value of `1` (no history).
fn stabilizers(weights: &[f64], mode: AdaptiveWeights) -> Vec<f64> {
    let mut m = 1.0_f64;
    weights
        .iter()
        .map(|&w| {
            let h = mode.h_at(m);
            m = AdaptiveWeights::advance(m, w);
            h
        })
        .collect()
}

/// Folds stabilized contributions `(h_k·Γ_k)·(n/Σh)` — the shared tail of
/// both adaptive estimators. Errors with [`EstimatorError::NoUsableRecords`]
/// when the stabilizer mass is not positive (mirroring SNIPS).
fn stabilized_contributions(gammas: &[f64], hs: &[f64]) -> Result<(Vec<f64>, f64), EstimatorError> {
    let hsum: f64 = hs.iter().sum();
    if hsum <= 0.0 {
        return Err(EstimatorError::NoUsableRecords);
    }
    let scale = gammas.len() as f64 / hsum;
    let per_record = gammas
        .iter()
        .zip(hs)
        .map(|(g, h)| (h * g) * scale)
        .collect();
    Ok((per_record, hsum))
}

/// Adaptively-weighted IPS — see the module docs for the estimand.
///
/// ```
/// use ddn_estimators::{AdaptiveIps, AdaptiveWeights, Estimator, Ips};
/// use ddn_policy::LookupPolicy;
/// use ddn_trace::{Context, ContextSchema, DecisionSpace, Trace, TraceRecord};
///
/// let schema = ContextSchema::builder().categorical("g", 2).build();
/// let space = DecisionSpace::of(&["a", "b"]);
/// let records: Vec<TraceRecord> = (0..100)
///     .map(|i| {
///         let ctx = Context::build(&schema).set_cat("g", (i % 2) as u32).finish();
///         let d = space.decision(i % 2);
///         TraceRecord::new(ctx, d, d.index() as f64).with_propensity(0.5)
///     })
///     .collect();
/// let trace = Trace::from_records(schema, space.clone(), records).unwrap();
/// let newp = LookupPolicy::constant(space, 1);
///
/// // Constant stabilizers reduce bit-identically to plain IPS.
/// let adaptive = AdaptiveIps::new(AdaptiveWeights::Constant)
///     .estimate(&trace, &newp)
///     .unwrap();
/// let ips = Ips::new().estimate(&trace, &newp).unwrap();
/// assert_eq!(adaptive.value.to_bits(), ips.value.to_bits());
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveIps {
    mode: AdaptiveWeights,
}

impl AdaptiveIps {
    /// Creates an adaptively-weighted IPS estimator.
    pub fn new(mode: AdaptiveWeights) -> Self {
        Self { mode }
    }

    /// The stabilizer schedule.
    pub fn mode(&self) -> AdaptiveWeights {
        self.mode
    }
}

impl Estimator for AdaptiveIps {
    fn name(&self) -> &str {
        "AdaptiveIPS"
    }

    fn estimate(&self, trace: &Trace, new_policy: &dyn Policy) -> Result<Estimate, EstimatorError> {
        check_space(trace, new_policy)?;
        let weights = importance_weights(trace, new_policy)?;
        let hs = stabilizers(&weights, self.mode);
        let gammas: Vec<f64> = trace
            .records()
            .iter()
            .zip(&weights)
            .map(|(rec, &w)| w * rec.reward)
            .collect();
        let (per_record, hsum) = stabilized_contributions(&gammas, &hs)?;
        let diagnostics = WeightDiagnostics::from_weights(&weights);
        emit_weight_health(self.name(), &diagnostics, &[("hsum", hsum)]);
        Ok(Estimate::from_contributions(per_record, diagnostics))
    }
}

impl BatchEstimator for AdaptiveIps {
    fn estimate_batch(&self, trace: &Trace, batch: &EvalBatch) -> Result<Estimate, EstimatorError> {
        batch.check_trace(trace);
        fold_batch(AdaptiveKernel::new(IpsKernel, self.mode), batch, None, 1)
    }
}

/// Adaptively-weighted Doubly Robust: the stabilized mean of the DR
/// per-record contributions. Keeps DR's second-order bias protection on
/// the model side while taming the adaptive-log variance on the weight
/// side. [`AdaptiveWeights::Constant`] reduces bit-identically to
/// [`crate::DoublyRobust`].
#[derive(Debug, Clone)]
pub struct AdaptiveDr<M: RewardModel> {
    model: M,
    mode: AdaptiveWeights,
}

impl<M: RewardModel> AdaptiveDr<M> {
    /// Creates an adaptively-weighted DR estimator around a fitted model.
    pub fn new(model: M, mode: AdaptiveWeights) -> Self {
        Self { model, mode }
    }

    /// The underlying reward model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The stabilizer schedule.
    pub fn mode(&self) -> AdaptiveWeights {
        self.mode
    }
}

impl<M: RewardModel> Estimator for AdaptiveDr<M> {
    fn name(&self) -> &str {
        "AdaptiveDR"
    }

    fn estimate(&self, trace: &Trace, new_policy: &dyn Policy) -> Result<Estimate, EstimatorError> {
        check_space(trace, new_policy)?;
        let weights = importance_weights(trace, new_policy)?;
        let hs = stabilizers(&weights, self.mode);
        let space = trace.space();
        let mut abs_residual_sum = 0.0;
        let gammas: Vec<f64> = trace
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
        let (per_record, hsum) = stabilized_contributions(&gammas, &hs)?;
        let diagnostics = WeightDiagnostics::from_weights(&weights);
        emit_weight_health(
            self.name(),
            &diagnostics,
            &[
                ("hsum", hsum),
                ("mean_abs_residual", abs_residual_sum / trace.len() as f64),
            ],
        );
        Ok(Estimate::from_contributions(per_record, diagnostics))
    }
}

impl<M: RewardModel> BatchEstimator for AdaptiveDr<M> {
    fn estimate_batch(&self, trace: &Trace, batch: &EvalBatch) -> Result<Estimate, EstimatorError> {
        batch.check_trace(trace);
        fold_batch(AdaptiveKernel::new(DrKernel, self.mode), batch, None, 3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dr::DoublyRobust;
    use crate::ips::{Ips, SelfNormalizedIps};
    use ddn_models::ConstantModel;
    use ddn_policy::LookupPolicy;
    use ddn_stats::rng::{Rng, Xoshiro256};
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

    /// A trace whose propensity on arm 1 decays over time — the adaptive
    /// logging regime in miniature.
    fn decaying_trace(n: usize, seed: u64) -> Trace {
        let s = schema();
        let mut rng = Xoshiro256::seed_from(seed);
        let recs = (0..n)
            .map(|k| {
                let g = rng.index(2) as u32;
                // Propensity on arm 1 decays 0.5 → 0.02 over the stream.
                let p1 = (0.5 * (1.0 - k as f64 / n as f64)).max(0.02);
                let d = usize::from(rng.chance(p1));
                let p = if d == 1 { p1 } else { 1.0 - p1 };
                let c = Context::build(&s).set_cat("g", g).finish();
                TraceRecord::new(c, Decision::from_index(d), truth(g, d)).with_propensity(p)
            })
            .collect();
        Trace::from_records(s, space(), recs).unwrap()
    }

    #[test]
    fn constant_mode_is_bit_identical_to_ips() {
        let t = decaying_trace(400, 21);
        let newp = LookupPolicy::constant(space(), 1);
        let a = AdaptiveIps::new(AdaptiveWeights::Constant)
            .estimate(&t, &newp)
            .unwrap();
        let b = Ips::new().estimate(&t, &newp).unwrap();
        assert_eq!(a.value.to_bits(), b.value.to_bits());
        for (x, y) in a.per_record.iter().zip(&b.per_record) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.diagnostics, b.diagnostics);
    }

    #[test]
    fn constant_mode_dr_is_bit_identical_to_dr() {
        let t = decaying_trace(300, 22);
        let newp = LookupPolicy::constant(space(), 1);
        let model = || ConstantModel::new(2.0);
        let a = AdaptiveDr::new(model(), AdaptiveWeights::Constant)
            .estimate(&t, &newp)
            .unwrap();
        let b = DoublyRobust::new(model()).estimate(&t, &newp).unwrap();
        assert_eq!(a.value.to_bits(), b.value.to_bits());
        assert_eq!(a.diagnostics, b.diagnostics);
    }

    #[test]
    fn batched_matches_unbatched_bit_for_bit() {
        let t = decaying_trace(500, 23);
        let newp = LookupPolicy::constant(space(), 1);
        let model = ConstantModel::new(1.5);
        let batch = EvalBatch::with_model(&t, &newp, &model).unwrap();
        let a_ips = AdaptiveIps::new(AdaptiveWeights::Stabilized);
        let s = a_ips.estimate(&t, &newp).unwrap();
        let b = a_ips.estimate_batch(&t, &batch).unwrap();
        assert_eq!(s.value.to_bits(), b.value.to_bits());
        assert_eq!(s.diagnostics, b.diagnostics);
        let a_dr = AdaptiveDr::new(model, AdaptiveWeights::Stabilized);
        let s = a_dr.estimate(&t, &newp).unwrap();
        let b = a_dr.estimate_batch(&t, &batch).unwrap();
        assert_eq!(s.value.to_bits(), b.value.to_bits());
        assert_eq!(s.diagnostics, b.diagnostics);
    }

    #[test]
    fn stabilized_beats_plain_ips_variance_on_decaying_logs() {
        let newp = LookupPolicy::constant(space(), 1);
        let spread = |adaptive: bool| {
            let vals: Vec<f64> = (0..40)
                .map(|i| {
                    let t = decaying_trace(300, 500 + i);
                    if adaptive {
                        AdaptiveIps::new(AdaptiveWeights::Stabilized)
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
        let v_adaptive = spread(true);
        let v_ips = spread(false);
        assert!(
            v_adaptive < v_ips,
            "adaptive variance {v_adaptive} should be below IPS variance {v_ips}"
        );
    }

    #[test]
    fn stabilized_stays_close_to_snips_accuracy() {
        // Sanity: on the decaying log the stabilized estimate still lands
        // near the truth for "always arm 1" (E[1 + 2g + 3] = 5).
        let newp = LookupPolicy::constant(space(), 1);
        let mut err = 0.0;
        for i in 0..20 {
            let t = decaying_trace(600, 900 + i);
            let v = AdaptiveIps::new(AdaptiveWeights::Stabilized)
                .estimate(&t, &newp)
                .unwrap()
                .value;
            err += (v - 5.0).abs();
        }
        err /= 20.0;
        // SNIPS as a fairness reference — adaptive should not be wildly
        // more biased.
        let mut snips_err = 0.0;
        for i in 0..20 {
            let t = decaying_trace(600, 900 + i);
            let v = SelfNormalizedIps::new().estimate(&t, &newp).unwrap().value;
            snips_err += (v - 5.0).abs();
        }
        snips_err /= 20.0;
        assert!(
            err < snips_err * 2.0 + 0.5,
            "adaptive err {err} vs snips {snips_err}"
        );
    }

    #[test]
    fn missing_propensity_surfaces_first_record() {
        let s = schema();
        let recs = vec![
            TraceRecord::new(
                Context::build(&s).set_cat("g", 0).finish(),
                Decision::from_index(0),
                1.0,
            )
            .with_propensity(0.5),
            TraceRecord::new(
                Context::build(&s).set_cat("g", 1).finish(),
                Decision::from_index(1),
                2.0,
            ),
        ];
        let t = Trace::from_records(s, space(), recs).unwrap();
        let err = AdaptiveIps::new(AdaptiveWeights::Stabilized)
            .estimate(&t, &LookupPolicy::constant(space(), 1))
            .unwrap_err();
        assert!(matches!(
            err,
            EstimatorError::Trace(ddn_trace::TraceError::MissingPropensity { record: 1 })
        ));
    }
}
