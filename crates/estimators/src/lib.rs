//! # ddn-estimators — off-policy evaluators for trace-driven networking
//!
//! **This crate is the paper's primary contribution** (§3–§4): given a
//! trace `T = {(c_k, d_k, r_k)}` logged under an old policy `μ_old` and a
//! new policy `μ_new`, estimate the expected reward
//! `V(μ_new) = (1/n) Σ_k Σ_d μ_new(d|c_k) · r(c_k, d)` the new policy would
//! have obtained on the same clients.
//!
//! ## The three basic estimators (paper §3)
//!
//! - [`DirectMethod`] (DM) — plug a reward model r̂ into the definition.
//!   Biased whenever the model is misspecified or under-fit (§2.2.1), but
//!   low variance: it uses every record.
//! - [`Ips`] (Inverse Propensity Scoring) — importance-weight the observed
//!   rewards by `μ_new(d_k|c_k)/μ_old(d_k|c_k)`. Unbiased when propensities
//!   are correct, but variance explodes when the policies overlap poorly
//!   (§2.2.2). [`SelfNormalizedIps`] and [`ClippedIps`] are the standard
//!   variance-reduced variants.
//! - [`DoublyRobust`] (DR, Eq. 1/2) — DM plus an IPS correction on the
//!   model's *residuals*. Accurate when **either** the model or the
//!   propensities are accurate ("second-order bias"), and lower-variance
//!   than IPS because the residuals are smaller than the rewards.
//!   [`SwitchDr`] additionally falls back to pure DM for records whose
//!   importance weight exceeds a threshold.
//!
//! ## The networking extensions (paper §4)
//!
//! - [`ReplayEvaluator`] — the §4.2 rejection-sampling replay algorithm
//!   extending DR to non-stationary (history-based) policies.
//! - [`StateAwareDr`] — §4.3 state matching: only reuse records whose
//!   system state matches the evaluation target, or transport rewards
//!   across states with a [`TransitionModel`].
//! - [`CouplingDetector`] — §4.3 change-point gating: detect self-induced
//!   state changes from a load-proxy series and segment the trace so DR
//!   only pools records from comparable regimes.
//!
//! ## The OPE-literature extensions (ROADMAP item 3)
//!
//! - [`AdaptiveIps`] / [`AdaptiveDr`] — variance-stabilizing adaptive
//!   weights (Zhan et al. 2021) for *adaptively collected* logs, where a
//!   learning logger's decaying propensities make plain IPS/SNIPS
//!   confidence collapse.
//! - [`MarginalizedDr`] — action-embedding marginalization for *large
//!   composite action spaces* (thousands of CDN×bitrate×relay arms),
//!   where vanilla importance weights explode but the reward depends on
//!   the arm only through a coarse [`ActionEmbedding`].
//! - [`SeqDr`] — per-decision sequential DR (Jiang & Li 2016) for
//!   *multi-step session traces* (ABR trajectories), beating
//!   trajectory-level weighting on variance by threading the correction
//!   backward through each session.
//!
//! ## Experiment harness
//!
//! [`experiment`] provides the paper's evaluation protocol: run an
//! estimator across seeded simulations, compute the relative error
//! `|V − V̂| / |V|` per run, and aggregate mean/min/max (Figure 7's bars).
//!
//! ## Shared-score batching
//!
//! [`EvalBatch`] precomputes, once per (seed, trace), the per-record
//! scores the whole menu shares — logged propensities, target-policy
//! probability rows, reward-model predictions — in contiguous columnar
//! arrays, always with the reward model its estimators hold. Every
//! estimator exposes a batched path ([`BatchEstimator`], plus inherent
//! `estimate_batch` methods on the replay and state-aware evaluators)
//! that is bit-identical to the unbatched one. The nine menu estimators'
//! batched paths fold the batch through their [`online`] kernels, so each
//! is written twice: once as its kernel, and once as its scalar
//! [`Estimator`] impl, the oracle both other paths are checked against.
//!
//! ## Online (streaming) estimation
//!
//! [`online`] provides `push(record)`/`estimate()` counterparts of the
//! menu ([`OnlineDm`], [`OnlineIps`], [`OnlineSnips`], [`OnlineClippedIps`],
//! [`OnlineDr`], [`OnlineAdaptiveIps`], [`OnlineAdaptiveDr`],
//! [`OnlineMarginalizedDr`], [`OnlineSeqDr`]) that are bit-identical to the
//! batch engine when a trace is replayed in order, plus a [`SlidingWindow`]
//! variant for non-stationary streams. Each is one per-record kernel
//! folded by the generic [`online::Fold`]. [`menu`] is the name →
//! estimator registry that `ddn serve` and `ddn evaluate`/`compare` share;
//! a served session holds its estimators as one [`Bank`], which scores
//! each record once for all of them. The `ddn-serve` crate builds its
//! ingest service on both.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod batch;
pub mod coupling;
pub mod crossfit;
pub mod dm;
pub mod dr;
pub mod estimate;
pub mod experiment;
pub mod ips;
pub mod marginalized;
pub mod matching;
pub mod menu;
pub mod online;
pub mod optimize;
pub mod overlap;
pub mod replay;
pub mod selection;
pub mod seq;
pub mod state_aware;

pub use adaptive::{AdaptiveDr, AdaptiveIps, AdaptiveWeights};
pub use batch::{BatchEstimator, EvalBatch};
pub use coupling::{CouplingDetector, CouplingReport};
pub use crossfit::CrossFitDr;
pub use dm::DirectMethod;
pub use dr::{DoublyRobust, SwitchDr};
pub use estimate::{Estimate, Estimator, EstimatorError, WeightDiagnostics};
pub use experiment::{relative_error, ErrorTable, ExperimentRunner, RunOutput};
pub use ips::{ClippedIps, Ips, SelfNormalizedIps};
pub use marginalized::{ActionEmbedding, MarginalizedDr};
pub use matching::MatchingEstimator;
pub use online::{
    Bank, OnlineAdaptiveDr, OnlineAdaptiveIps, OnlineClippedIps, OnlineDm, OnlineDr,
    OnlineEstimate, OnlineEstimator, OnlineIps, OnlineMarginalizedDr, OnlineSeqDr, OnlineSnips,
    SlidingWindow, StreamingMoments,
};
pub use optimize::{dm_greedy_policy, dr_select, SearchResult};
pub use overlap::OverlapReport;
pub use replay::{ReplayEvaluator, ReplayOutcome};
pub use selection::{selection_accuracy, Candidate, Comparison, PolicyComparator};
pub use seq::SeqDr;
pub use state_aware::{ScaleTransition, StateAwareDr, TransitionModel};
