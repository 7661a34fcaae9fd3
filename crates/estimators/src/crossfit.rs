//! Cross-fitted Doubly Robust estimation.
//!
//! The plain [`crate::DoublyRobust`] is usually handed a model fitted on
//! the *same* trace it estimates from. An overfitted model's residuals on
//! its own training data are artificially small, which mutes the IPS
//! correction exactly where the model is wrong — an own-data bias that
//! the causal-inference literature (the "double/debiased ML" line
//! descending from the paper's refs \[5, 9\]) removes by **cross-fitting**:
//! split the trace into K folds, fit the model on K−1 of them, and apply
//! the DR formula to the held-out fold with that out-of-fold model.
//!
//! [`CrossFitDr`] implements this for any model-fitting closure. It costs
//! K model fits but keeps both DR guarantees while being honest about
//! model error.

use crate::batch::{note_reuse, BatchEstimator, EvalBatch};
use crate::estimate::{
    check_space, emit_weight_health, Estimate, Estimator, EstimatorError, WeightDiagnostics,
};
use ddn_models::RewardModel;
use ddn_policy::Policy;
use ddn_trace::{Trace, TraceRecord};

/// K-fold cross-fitted DR estimator.
///
/// The folds are contiguous blocks of the trace in logging order (which
/// also makes the scheme sensible for weakly non-stationary traces: each
/// fold's model is fitted mostly on other time ranges).
pub struct CrossFitDr<M, F>
where
    M: RewardModel,
    F: Fn(&Trace) -> M,
{
    fit: F,
    folds: usize,
}

impl<M, F> CrossFitDr<M, F>
where
    M: RewardModel,
    F: Fn(&Trace) -> M,
{
    /// Creates a cross-fitted DR estimator with `folds` folds.
    ///
    /// # Panics
    /// Panics if `folds < 2`.
    pub fn new(folds: usize, fit: F) -> Self {
        assert!(folds >= 2, "cross-fitting needs at least two folds");
        Self { fit, folds }
    }

    /// Number of folds.
    pub fn folds(&self) -> usize {
        self.folds
    }
}

impl<M, F> Estimator for CrossFitDr<M, F>
where
    M: RewardModel,
    F: Fn(&Trace) -> M,
{
    fn name(&self) -> &str {
        "CrossFitDR"
    }

    fn estimate(&self, trace: &Trace, new_policy: &dyn Policy) -> Result<Estimate, EstimatorError> {
        check_space(trace, new_policy)?;
        let n = trace.len();
        if n < self.folds {
            return Err(EstimatorError::NoUsableRecords);
        }
        let records = trace.records();
        let space = trace.space();
        let mut per_record = vec![0.0; n];
        let mut weights = vec![0.0; n];

        for f in 0..self.folds {
            let lo = f * n / self.folds;
            let hi = (f + 1) * n / self.folds;
            if lo == hi {
                continue;
            }
            let train: Vec<TraceRecord> = records[..lo]
                .iter()
                .chain(&records[hi..])
                .cloned()
                .collect();
            let train_trace =
                Trace::from_records(trace.schema().clone(), trace.space().clone(), train)
                    .map_err(EstimatorError::Trace)?;
            let model = (self.fit)(&train_trace);
            for (k, rec) in records[lo..hi].iter().enumerate() {
                let idx = lo + k;
                let p_old = rec.require_propensity(idx)?;
                let w = new_policy.prob(&rec.context, rec.decision) / p_old;
                let probs = new_policy.probabilities(&rec.context);
                let dm_term: f64 = space
                    .iter()
                    .map(|d| probs[d.index()] * model.predict(&rec.context, d))
                    .sum();
                let residual = rec.reward - model.predict(&rec.context, rec.decision);
                per_record[idx] = dm_term + w * residual;
                weights[idx] = w;
            }
        }
        let diagnostics = WeightDiagnostics::from_weights(&weights);
        emit_weight_health(self.name(), &diagnostics, &[("folds", self.folds as f64)]);
        Ok(Estimate::from_contributions(per_record, diagnostics))
    }
}

impl<M, F> BatchEstimator for CrossFitDr<M, F>
where
    M: RewardModel,
    F: Fn(&Trace) -> M,
{
    /// Batched cross-fitting reuses the shared importance weights and
    /// probability rows, but deliberately **ignores** any cached model
    /// scores: the whole point of cross-fitting is that each held-out
    /// record is scored by a fold-local, out-of-fold model.
    fn estimate_batch(&self, trace: &Trace, batch: &EvalBatch) -> Result<Estimate, EstimatorError> {
        batch.check_trace(trace);
        let n = trace.len();
        if n < self.folds {
            return Err(EstimatorError::NoUsableRecords);
        }
        let weights = batch.weights()?;
        note_reuse(self.name(), 2 * n as u64, n as u64);
        let records = trace.records();
        let space = trace.space();
        let mut per_record = vec![0.0; n];

        for f in 0..self.folds {
            let lo = f * n / self.folds;
            let hi = (f + 1) * n / self.folds;
            if lo == hi {
                continue;
            }
            let train: Vec<TraceRecord> = records[..lo]
                .iter()
                .chain(&records[hi..])
                .cloned()
                .collect();
            let train_trace =
                Trace::from_records(trace.schema().clone(), trace.space().clone(), train)
                    .map_err(EstimatorError::Trace)?;
            let model = (self.fit)(&train_trace);
            for (k, rec) in records[lo..hi].iter().enumerate() {
                let idx = lo + k;
                let w = weights[idx];
                let probs = batch.probs_row(idx);
                let dm_term: f64 = space
                    .iter()
                    .map(|d| probs[d.index()] * model.predict(&rec.context, d))
                    .sum();
                let residual = rec.reward - model.predict(&rec.context, rec.decision);
                per_record[idx] = dm_term + w * residual;
            }
        }
        let diagnostics = WeightDiagnostics::from_weights(weights);
        emit_weight_health(self.name(), &diagnostics, &[("folds", self.folds as f64)]);
        Ok(Estimate::from_contributions(per_record, diagnostics))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dr::DoublyRobust;
    use ddn_models::{ConstantModel, KnnConfig, KnnRegressor, TabularMeanModel};
    use ddn_policy::{LookupPolicy, UniformRandomPolicy};
    use ddn_stats::rng::{Rng, Xoshiro256};
    use ddn_trace::{Context, ContextSchema, Decision, DecisionSpace};

    fn schema() -> ContextSchema {
        ContextSchema::builder().categorical("g", 4).build()
    }

    fn space() -> DecisionSpace {
        DecisionSpace::of(&["a", "b"])
    }

    fn truth(g: u32, d: usize) -> f64 {
        g as f64 + 2.0 * d as f64
    }

    fn noisy_trace(n: usize, noise: f64, seed: u64) -> Trace {
        let s = schema();
        let mut rng = Xoshiro256::seed_from(seed);
        let recs = (0..n)
            .map(|_| {
                let g = rng.index(4) as u32;
                let d = rng.index(2);
                let c = Context::build(&s).set_cat("g", g).finish();
                let r = truth(g, d) + noise * (rng.next_f64() - 0.5);
                TraceRecord::new(c, Decision::from_index(d), r).with_propensity(0.5)
            })
            .collect();
        Trace::from_records(s, space(), recs).unwrap()
    }

    #[test]
    fn crossfit_estimates_truth() {
        let t = noisy_trace(4_000, 1.0, 1);
        let newp = LookupPolicy::constant(space(), 1);
        let est = CrossFitDr::new(5, |tr: &Trace| TabularMeanModel::fit_trace(tr, 1.0));
        let v = est.estimate(&t, &newp).unwrap().value;
        // Truth: E[g] + 2 = 1.5 + 2 = 3.5.
        assert!((v - 3.5).abs() < 0.1, "{v}");
    }

    #[test]
    fn crossfit_matches_plain_dr_for_constant_model() {
        // A model that ignores the training data entirely: cross-fitting
        // must be exactly equivalent to plain DR.
        let t = noisy_trace(300, 1.0, 2);
        let newp = UniformRandomPolicy::new(space());
        let cf = CrossFitDr::new(3, |_: &Trace| ConstantModel::new(2.0));
        let plain = DoublyRobust::new(ConstantModel::new(2.0));
        let a = cf.estimate(&t, &newp).unwrap();
        let b = plain.estimate(&t, &newp).unwrap();
        assert!((a.value - b.value).abs() < 1e-12);
        for (x, y) in a.per_record.iter().zip(&b.per_record) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn crossfit_residuals_are_honest() {
        // k=1 nearest neighbour memorizes its training data: in-sample
        // residuals are ~0, out-of-fold residuals are not. Cross-fitting
        // should therefore produce a *larger* mean |residual| footprint
        // than the own-data fit — measured through the correction term's
        // dispersion.
        let t = noisy_trace(600, 4.0, 3);
        let newp = LookupPolicy::constant(space(), 1);
        let knn_cfg = KnnConfig {
            k: 1,
            standardize: false,
            match_decision: true,
        };
        let own = {
            let model = KnnRegressor::fit(&t, knn_cfg);
            DoublyRobust::new(model).estimate(&t, &newp).unwrap()
        };
        let cf = CrossFitDr::new(5, move |tr: &Trace| KnnRegressor::fit(tr, knn_cfg))
            .estimate(&t, &newp)
            .unwrap();
        let dispersion = |e: &Estimate| {
            let m = e.value;
            e.per_record.iter().map(|x| (x - m).powi(2)).sum::<f64>() / e.per_record.len() as f64
        };
        assert!(
            dispersion(&cf) > dispersion(&own),
            "own-data k=1 residuals should be suspiciously quiet: own {} vs cf {}",
            dispersion(&own),
            dispersion(&cf)
        );
    }

    #[test]
    fn too_few_records_errors() {
        let t = noisy_trace(3, 0.1, 4);
        let newp = UniformRandomPolicy::new(space());
        let est = CrossFitDr::new(5, |tr: &Trace| TabularMeanModel::fit_trace(tr, 1.0));
        assert!(matches!(
            est.estimate(&t, &newp),
            Err(EstimatorError::NoUsableRecords)
        ));
    }

    #[test]
    #[should_panic(expected = "at least two folds")]
    fn one_fold_panics() {
        let _ = CrossFitDr::new(1, |tr: &Trace| TabularMeanModel::fit_trace(tr, 1.0));
    }
}
