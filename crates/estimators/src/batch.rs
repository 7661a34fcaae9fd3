//! Columnar shared-score batch evaluation — compute the per-record
//! quantities every estimator needs **once** per (seed, trace) and let
//! the whole menu consume them.
//!
//! Figure 7 runs DM, IPS (plus variants), DR (plus variants), CrossFit,
//! CFA matching, state-aware DR and replay on the *same* logged trace.
//! Each of those independently re-derives the same per-record scores —
//! the new policy's action probabilities, the logged propensity ratio,
//! and the reward model's predictions q̂(c, d) — so the hot loop does
//! O(estimators × records) redundant inference. Dudík et al.'s DR and
//! its descendants factor estimation into exactly these shared scores;
//! [`EvalBatch`] materializes them as contiguous per-record arrays
//! (row-major for the per-decision matrices) built in cache-friendly
//! chunks.
//!
//! The nine menu estimators with an online kernel estimate a batch by
//! folding its rows through that kernel ([`crate::online`]), so their
//! arithmetic exists once there and once in the scalar [`crate::Estimator`]
//! impls, the oracle the batch path is checked against.
//!
//! ## Bit-identity contract
//!
//! The batched paths are required to produce **bit-identical** results
//! to the unbatched ones (`tests/properties.rs` pins this for the whole
//! menu). Three rules make that hold:
//!
//! 1. `p_logged[i]` is stored from `policy.prob(ctx, d_i)` and the
//!    probability row from `policy.probabilities(ctx)` **separately** —
//!    policies may override `probabilities`, so neither may be derived
//!    from the other.
//! 2. Importance weights are stored as the same expression the
//!    unbatched path evaluates (`p_logged / p_old`), and derived sums
//!    (`dm_terms`) accumulate in ascending decision order, exactly like
//!    the unbatched `space.iter().map(..).sum()`.
//! 3. Error order is preserved: a missing propensity is remembered as
//!    the *first* offending record index and resurfaces as the same
//!    [`TraceError::MissingPropensity`] the unbatched estimators raise,
//!    while estimators that read no propensity (DM, CFA, marginalized
//!    DR) keep working off the same batch.
//!
//! ## Telemetry
//!
//! Building a batch opens a `batch_build` span and adds its wall time to
//! the process-wide `batch.build_ns` registry counter (wall-clock stays
//! out of run-local counters so deterministic telemetry JSON is
//! unaffected). Estimators report per-record scores served from the
//! batch as `batch.hit` and scores they recompute as `batch.miss`
//! (run-local, deterministic; only CrossFitDR, which refits the model
//! per fold, books misses), plus a `batch.score_reuse.<name>` gauge in
//! the global registry.

use crate::estimate::{check_space, EstimatorError};
use ddn_models::RewardModel;
use ddn_policy::Policy;
use ddn_trace::{StateTag, Trace, TraceError};

/// Records per cache-friendly build chunk. Each chunk's contexts are
/// walked once for policy scores and once for model scores while still
/// warm; the per-record arithmetic is independent, so chunking cannot
/// change any float result.
const CHUNK: usize = 1024;

/// Shared per-record scores for one (trace, policy, reward model)
/// triple, consumed by every estimator in the menu via their
/// `estimate_batch` methods.
#[derive(Debug, Clone)]
pub struct EvalBatch {
    n: usize,
    k: usize,
    rewards: Vec<f64>,
    /// Logged decision indices.
    decisions: Vec<usize>,
    states: Vec<Option<StateTag>>,
    /// `p_logged[i] = policy.prob(c_i, d_i_logged)`.
    p_logged: Vec<f64>,
    /// `probs[i*k + j] = policy.probabilities(c_i)[j]`, row-major.
    probs: Vec<f64>,
    /// Importance weights `p_logged / propensity`, or the first record
    /// index whose propensity is missing.
    weights: Result<Vec<f64>, usize>,
    /// `q[i*k + j] = model.predict(c_i, d_j)`, row-major.
    q: Vec<f64>,
    /// `q_logged[i] = model.predict(c_i, d_i_logged)`.
    q_logged: Vec<f64>,
    /// `dm_terms[i] = Σ_j probs[i*k+j] · q[i*k+j]`, accumulated in
    /// ascending decision order (bit-identical to the unbatched DM term).
    dm_terms: Vec<f64>,
}

impl EvalBatch {
    /// Scores `trace` under `policy` (propensities, probability rows,
    /// importance weights) and `model` (predictions `q`, `q_logged` and
    /// the per-record DM terms).
    ///
    /// Fails with [`EstimatorError::SpaceMismatch`] exactly when the
    /// unbatched estimators would. A missing propensity does *not* fail
    /// the build — DM and CFA never need weights — it is surfaced by
    /// [`EvalBatch::weights`] instead.
    ///
    /// The estimators consuming these scores must hold the *same*
    /// fitted model, otherwise the batched result diverges from the
    /// unbatched one — that is the caller's contract, checked by the
    /// batched-vs-unbatched property tests.
    pub fn with_model(
        trace: &Trace,
        policy: &dyn Policy,
        model: &dyn RewardModel,
    ) -> Result<Self, EstimatorError> {
        check_space(trace, policy)?;
        let _span = ddn_telemetry::span("batch_build");
        let started = std::time::Instant::now();

        let n = trace.len();
        let k = trace.space().len();
        let records = trace.records();
        let space = trace.space();

        let mut rewards = Vec::with_capacity(n);
        let mut decisions = Vec::with_capacity(n);
        let mut states = Vec::with_capacity(n);
        let mut p_logged = Vec::with_capacity(n);
        let mut probs = Vec::with_capacity(n * k);
        let mut weight_vec = Vec::with_capacity(n);
        let mut missing: Option<usize> = None;
        let mut q = Vec::with_capacity(n * k);
        let mut q_logged = Vec::with_capacity(n);
        let mut dm_terms = Vec::with_capacity(n);

        for chunk_start in (0..n).step_by(CHUNK) {
            let chunk_end = (chunk_start + CHUNK).min(n);
            for (idx, rec) in records[chunk_start..chunk_end]
                .iter()
                .enumerate()
                .map(|(o, r)| (chunk_start + o, r))
            {
                rewards.push(rec.reward);
                decisions.push(rec.decision.index());
                states.push(rec.state);
                let pl = policy.prob(&rec.context, rec.decision);
                p_logged.push(pl);
                let row = policy.probabilities(&rec.context);
                debug_assert_eq!(row.len(), k, "policy probability row width");
                if missing.is_none() {
                    match rec.require_propensity(idx) {
                        Ok(p_old) => weight_vec.push(pl / p_old),
                        Err(_) => missing = Some(idx),
                    }
                }
                let q_start = q.len();
                for d in space.iter() {
                    q.push(model.predict(&rec.context, d));
                }
                q_logged.push(model.predict(&rec.context, rec.decision));
                let dm: f64 = row.iter().zip(&q[q_start..]).map(|(p, qd)| p * qd).sum();
                dm_terms.push(dm);
                probs.extend_from_slice(&row);
            }
        }

        ddn_telemetry::Registry::global()
            .counter("batch.build_ns")
            .add(started.elapsed().as_nanos() as u64);
        Ok(Self {
            n,
            k,
            rewards,
            decisions,
            states,
            p_logged,
            probs,
            weights: match missing {
                Some(idx) => Err(idx),
                None => Ok(weight_vec),
            },
            q,
            q_logged,
            dm_terms,
        })
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the batch covers zero records (unreachable through
    /// [`Trace`], which rejects empty record sets at construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Decision-space size `k`.
    pub fn decision_count(&self) -> usize {
        self.k
    }

    /// Logged rewards, in record order.
    pub fn rewards(&self) -> &[f64] {
        &self.rewards
    }

    /// Logged decision indices, in record order.
    pub fn decisions(&self) -> &[usize] {
        &self.decisions
    }

    /// Logged state tags, in record order.
    pub fn states(&self) -> &[Option<StateTag>] {
        &self.states
    }

    /// `policy.prob(c_i, d_i_logged)` for every record.
    pub fn p_logged(&self) -> &[f64] {
        &self.p_logged
    }

    /// Record `i`'s `policy.probabilities(c_i)` row.
    pub fn probs_row(&self, i: usize) -> &[f64] {
        &self.probs[i * self.k..(i + 1) * self.k]
    }

    /// Importance weights `μ_new(d_i|c_i) / μ_old(d_i|c_i)`, or the same
    /// [`TraceError::MissingPropensity`] (first offending record) the
    /// unbatched `importance_weights` raises.
    pub fn weights(&self) -> Result<&[f64], EstimatorError> {
        match &self.weights {
            Ok(w) => Ok(w),
            Err(record) => Err(EstimatorError::Trace(TraceError::MissingPropensity {
                record: *record,
            })),
        }
    }

    /// Record `i`'s prediction row over the decision space.
    pub fn q_row(&self, i: usize) -> &[f64] {
        &self.q[i * self.k..(i + 1) * self.k]
    }

    /// The model's prediction for each record's logged decision.
    pub fn q_logged(&self) -> &[f64] {
        &self.q_logged
    }

    /// Per-record DM terms `Σ_d μ_new(d|c_i) · r̂(c_i, d)`.
    pub fn dm_terms(&self) -> &[f64] {
        &self.dm_terms
    }

    /// Asserts the batch was built from a trace of the same shape —
    /// feeding an estimator a batch from a different trace is a
    /// programming error, not a recoverable condition.
    pub(crate) fn check_trace(&self, trace: &Trace) {
        assert_eq!(
            self.n,
            trace.len(),
            "EvalBatch built from a different trace (len mismatch)"
        );
        assert_eq!(
            self.k,
            trace.space().len(),
            "EvalBatch built from a different trace (space mismatch)"
        );
    }
}

/// An estimator that can consume a shared [`EvalBatch`] instead of
/// recomputing per-record scores, with bit-identical results to
/// [`crate::Estimator::estimate`].
///
/// The batch must have been built from the same `trace` with the policy
/// being evaluated and, for model-based estimators, with the same
/// fitted reward model the estimator holds.
pub trait BatchEstimator: crate::Estimator {
    /// Estimates `V(new_policy)` from the shared batch.
    fn estimate_batch(
        &self,
        trace: &Trace,
        batch: &EvalBatch,
    ) -> Result<crate::Estimate, EstimatorError>;
}

/// Records batch score reuse: `hits` per-record scores served from the
/// batch, `misses` recomputed. Run-local counters stay deterministic
/// (pure counts); the reuse ratio lands in the global registry as
/// `batch.score_reuse.<source>`.
pub(crate) fn note_reuse(source: &str, hits: u64, misses: u64) {
    if !ddn_telemetry::enabled() {
        return;
    }
    ddn_telemetry::add_count("batch.hit", hits);
    ddn_telemetry::add_count("batch.miss", misses);
    let total = hits + misses;
    if total > 0 {
        ddn_telemetry::Registry::global()
            .gauge(&format!("batch.score_reuse.{source}"))
            .set(hits as f64 / total as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddn_models::ConstantModel;
    use ddn_policy::{LookupPolicy, UniformRandomPolicy};
    use ddn_stats::rng::{Rng, Xoshiro256};
    use ddn_trace::{Context, ContextSchema, Decision, DecisionSpace, TraceRecord};

    fn schema() -> ContextSchema {
        ContextSchema::builder().categorical("g", 3).build()
    }

    fn space() -> DecisionSpace {
        DecisionSpace::of(&["a", "b", "c"])
    }

    /// Large enough to cross a CHUNK boundary.
    fn big_trace(n: usize, seed: u64) -> Trace {
        let s = schema();
        let mut rng = Xoshiro256::seed_from(seed);
        let recs = (0..n)
            .map(|_| {
                let g = rng.index(3) as u32;
                let d = rng.index(3);
                let c = Context::build(&s).set_cat("g", g).finish();
                TraceRecord::new(c, Decision::from_index(d), d as f64 + 0.5 * g as f64)
                    .with_propensity(1.0 / 3.0)
            })
            .collect();
        Trace::from_records(s, space(), recs).unwrap()
    }

    #[test]
    fn build_matches_direct_policy_calls_across_chunks() {
        let t = big_trace(CHUNK + 500, 9);
        let pol = UniformRandomPolicy::new(space());
        let b = EvalBatch::with_model(&t, &pol, &ConstantModel::zero()).unwrap();
        assert_eq!(b.len(), t.len());
        assert_eq!(b.decision_count(), 3);
        for (i, rec) in t.records().iter().enumerate() {
            assert_eq!(b.p_logged()[i], pol.prob(&rec.context, rec.decision));
            assert_eq!(b.probs_row(i), pol.probabilities(&rec.context).as_slice());
            assert_eq!(b.rewards()[i], rec.reward);
            assert_eq!(b.decisions()[i], rec.decision.index());
        }
        let w = b.weights().unwrap();
        assert_eq!(w.len(), t.len());
        assert_eq!(w[0], b.p_logged()[0] / (1.0 / 3.0));
    }

    #[test]
    fn model_scores_match_direct_predictions() {
        let t = big_trace(64, 10);
        let pol = LookupPolicy::constant(space(), 1);
        let model = ConstantModel::new(2.5);
        let b = EvalBatch::with_model(&t, &pol, &model).unwrap();
        for i in 0..t.len() {
            assert_eq!(b.q_row(i), &[2.5, 2.5, 2.5]);
            assert_eq!(b.q_logged()[i], 2.5);
            // dm_term = Σ probs·q; deterministic policy row sums to 1.
            assert!((b.dm_terms()[i] - 2.5).abs() < 1e-15);
        }
    }

    #[test]
    fn missing_propensity_surfaces_first_record_index() {
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
            TraceRecord::new(
                Context::build(&s).set_cat("g", 2).finish(),
                Decision::from_index(2),
                3.0,
            ),
        ];
        let t = Trace::from_records(s, space(), recs).unwrap();
        let pol = UniformRandomPolicy::new(space());
        let b = EvalBatch::with_model(&t, &pol, &ConstantModel::zero()).unwrap();
        assert!(matches!(
            b.weights(),
            Err(EstimatorError::Trace(TraceError::MissingPropensity {
                record: 1
            }))
        ));
        // Policy-side scores are still fully available for DM/CFA.
        assert_eq!(b.p_logged().len(), 3);
    }

    #[test]
    fn space_mismatch_fails_build_like_unbatched() {
        let t = big_trace(8, 11);
        let pol = UniformRandomPolicy::new(DecisionSpace::of(&["only"]));
        assert!(matches!(
            EvalBatch::with_model(&t, &pol, &ConstantModel::zero()),
            Err(EstimatorError::SpaceMismatch {
                trace: 3,
                policy: 1
            })
        ));
    }
}
