//! Online (streaming) counterparts of the estimator menu. Each estimator
//! is written once, as a [`Kernel`]: a per-record [`Step`], a
//! [`Finalize`] expression and its extra health keys. One generic
//! [`Fold`] owns the state they share (record count, left-fold sum,
//! weight accumulators, contribution moments, |residual| sum, retained
//! pairs or pending trajectory steps) and implements [`OnlineEstimator`]
//! once; [`OnlineDm`] … [`OnlineSeqDr`] alias it over the nine kernels,
//! and [`crate::menu`] maps protocol names to them. Callers instantiate
//! the generic fold in their own crate, so the per-record path is
//! `#[inline]`.
//!
//! The contract, property-tested in `tests/online_parity.rs`, is
//! **bit-identity with the batch engine**, including the
//! [`WeightDiagnostics`] and the error surface. Each step keeps the batch
//! path's float expression and each finalize shape its fold order:
//! [`Finalize::Mean`] terms are final on arrival, so a running
//! `sum += t` seeded at `-0.0` (the float `Sum` identity) is the batch
//! left fold in O(1) state; [`Finalize::Pairs`] terms (SNIPS's
//! `n·w·r/Σw`, the adaptive `(h·Γ)·(n/Σh)`) need end-of-stream
//! quantities, so the pairs are kept and `estimate` replays the batch
//! loop; [`Finalize::Trajectory`] steps (SeqDR) wait for their trajectory
//! and fold through the backward recursion. [`SlidingWindow`] bounds any
//! estimator to its last `capacity` records (§4.1 non-stationarity).

use crate::adaptive::AdaptiveWeights;
use crate::estimate::{EstimatorError, WeightDiagnostics};
use crate::marginalized::ActionEmbedding;
use ddn_models::RewardModel;
use ddn_policy::Policy;
use ddn_stats::Json;
use ddn_trace::{Context, Decision, DecisionSpace, TraceRecord};
use std::collections::VecDeque;

/// A target or logging policy as an online estimator owns it.
pub type BoxPolicy = Box<dyn Policy + Send + Sync>;

/// A fitted reward model as an online estimator owns it.
pub type BoxModel = Box<dyn RewardModel + Send + Sync>;

/// `Result` with [`EstimatorError`], the online menu's error type.
pub type Result<T, E = EstimatorError> = std::result::Result<T, E>;

// ---- state serialization plumbing -------------------------------------
//
// `state_save`/`state_load` must round-trip *bits*, not values: the sums
// start at `-0.0` (the float `Sum` identity) and the running max starts
// at `-inf`, and JSON number formatting renders neither faithfully. Every
// f64 therefore travels as its `to_bits()` pattern in a JSON integer,
// which survives any JSON round trip exactly.

fn state_err(msg: impl Into<String>) -> EstimatorError {
    EstimatorError::State(msg.into())
}

fn bits(x: f64) -> Json {
    Json::Int(x.to_bits() as i64)
}

fn field<'a>(state: &'a Json, key: &str) -> Result<&'a Json> {
    state
        .get(key)
        .ok_or_else(|| state_err(format!("missing field `{key}`")))
}

fn unbit(v: &Json, key: &str) -> Result<f64> {
    let bits = v.as_i64().map(|b| f64::from_bits(b as u64));
    bits.ok_or_else(|| state_err(format!("`{key}` must hold f64 bits")))
}

fn unbits(state: &Json, key: &str) -> Result<f64> {
    unbit(field(state, key)?, key)
}

fn uint(state: &Json, key: &str) -> Result<u64> {
    field(state, key)?
        .as_u64()
        .ok_or_else(|| state_err(format!("field `{key}` must be a non-negative integer")))
}

fn check_kind(state: &Json, want: &str) -> Result<()> {
    let got = field(state, "est")?
        .as_str()
        .ok_or_else(|| state_err("field `est` must be a string"))?;
    if got != want {
        return Err(state_err(format!(
            "state is for estimator {got:?}, not {want:?}"
        )));
    }
    Ok(())
}

/// Decodes the flat bit array `key` (pairs, pending steps) of `width`-f64
/// groups.
fn load_flat(state: &Json, key: &str, width: usize) -> Result<Vec<f64>> {
    let flat = field(state, key)?
        .as_array()
        .ok_or_else(|| state_err(format!("field `{key}` must be an array")))?;
    if flat.len() % width != 0 {
        return Err(state_err(format!(
            "`{key}` must hold groups of {width} entries"
        )));
    }
    flat.iter().map(|v| unbit(v, key)).collect()
}

/// Welford-style streaming mean/variance of per-record contributions.
///
/// This is health telemetry, not part of the bit-identity contract: the
/// estimate itself comes from the plain left-fold sum (matching the batch
/// engine), while these moments give an any-time view of estimator
/// variance — `variance / n` approximates the squared standard error.
#[derive(Debug, Clone)]
pub struct StreamingMoments(ddn_stats::Welford);

impl StreamingMoments {
    fn new() -> Self {
        Self(ddn_stats::Welford::new())
    }

    #[inline]
    fn push(&mut self, x: f64) {
        self.0.push(x);
    }

    /// Running mean contribution.
    pub fn mean(&self) -> f64 {
        self.0.mean()
    }

    /// Unbiased sample variance of the contributions.
    pub fn variance(&self) -> f64 {
        self.0.variance()
    }

    /// Standard error of the value estimate implied by the running
    /// variance: `sqrt(variance / n)`; `0.0` before two observations.
    pub fn standard_error(&self) -> f64 {
        let n = self.0.count();
        if n < 2 {
            0.0
        } else {
            (self.0.variance() / n as f64).sqrt()
        }
    }

    fn state_save(&self) -> Json {
        let (n, mean, m2, min, max) = self.0.to_raw();
        Json::Object(vec![
            ("n".into(), Json::Int(n as i64)),
            ("mean".into(), bits(mean)),
            ("m2".into(), bits(m2)),
            ("min".into(), bits(min)),
            ("max".into(), bits(max)),
        ])
    }

    fn state_load(state: &Json) -> Result<Self> {
        Ok(Self(ddn_stats::Welford::from_raw(
            uint(state, "n")?,
            unbits(state, "mean")?,
            unbits(state, "m2")?,
            unbits(state, "min")?,
            unbits(state, "max")?,
        )))
    }
}

/// Running importance-weight accumulators replicating
/// [`WeightDiagnostics::from_weights`] bit-for-bit: each field is the same
/// left fold (`Σw`, `Σw²`, zero count, running max) the batch version
/// computes over the full weight vector.
#[derive(Debug, Clone)]
struct WeightAcc {
    n: usize,
    sum: f64,
    sum_sq: f64,
    zeros: usize,
    max: f64,
}

impl WeightAcc {
    fn new() -> Self {
        // std's float `Sum` folds from -0.0, so the batch sums start
        // there; matching the identity keeps the running sums
        // bit-identical even when every term is a signed zero.
        Self {
            n: 0,
            sum: -0.0,
            sum_sq: -0.0,
            zeros: 0,
            max: f64::NEG_INFINITY,
        }
    }

    #[inline]
    fn push(&mut self, w: f64) {
        self.n += 1;
        self.sum += w;
        self.sum_sq += w * w;
        if w == 0.0 {
            self.zeros += 1;
        }
        self.max = f64::max(self.max, w);
    }

    fn diagnostics(&self) -> WeightDiagnostics {
        WeightDiagnostics {
            n: self.n,
            mean_weight: self.sum / self.n as f64,
            max_weight: self.max,
            effective_sample_size: if self.sum_sq > 0.0 {
                self.sum * self.sum / self.sum_sq
            } else {
                0.0
            },
            zero_weight_fraction: self.zeros as f64 / self.n as f64,
        }
    }

    fn state_save(&self) -> Json {
        Json::Object(vec![
            ("n".into(), Json::Int(self.n as i64)),
            ("sum".into(), bits(self.sum)),
            ("sum_sq".into(), bits(self.sum_sq)),
            ("zeros".into(), Json::Int(self.zeros as i64)),
            ("max".into(), bits(self.max)),
        ])
    }

    fn state_load(state: &Json) -> Result<Self> {
        Ok(Self {
            n: uint(state, "n")? as usize,
            sum: unbits(state, "sum")?,
            sum_sq: unbits(state, "sum_sq")?,
            zeros: uint(state, "zeros")? as usize,
            max: unbits(state, "max")?,
        })
    }
}

/// The output of an online estimator: the batch-identical value and
/// diagnostics, without the O(n) per-record vector an offline
/// [`crate::Estimate`] carries.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineEstimate {
    /// The estimated expected reward `V̂(μ_new)` — bit-identical to the
    /// batch [`crate::Estimate::value`] over the same records in the same
    /// order.
    pub value: f64,
    /// Contributions so far: records, or completed trajectories for SeqDR.
    pub n: usize,
    /// Importance-weight diagnostics, bit-identical to the batch path.
    pub diagnostics: WeightDiagnostics,
}

/// The streaming-estimator interface shared by the online menu, designed
/// to be object-safe so a serving layer can hold a heterogeneous bank of
/// `Box<dyn OnlineEstimator>` per session.
pub trait OnlineEstimator {
    /// Short name matching the batch twin ("DM", "IPS", "SNIPS", …).
    fn name(&self) -> &str;

    /// Ingests one record. Errors (e.g. a missing propensity) reject the
    /// record *without* corrupting accumulated state: a failed push leaves
    /// the estimator exactly as it was.
    fn push(&mut self, rec: &TraceRecord) -> Result<()>;

    /// The estimate over everything pushed so far.
    /// `Err(NoUsableRecords)` before the first record (and, for SNIPS,
    /// whenever the weight mass is not positive — same as the batch).
    fn estimate(&self) -> Result<OnlineEstimate>;

    /// Number of records accepted so far.
    fn len(&self) -> usize;

    /// Whether no records have been accepted yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clears accumulated records/statistics, keeping the configuration
    /// (policy, model, thresholds). [`SlidingWindow`] relies on this.
    fn reset(&mut self);

    /// Streaming health metrics: the running weight diagnostics plus the
    /// Welford contribution moments. Safe to call at any time, including
    /// before the first record (returns `n = 0` only).
    fn health_metrics(&self) -> Vec<(&'static str, f64)>;

    /// Serializes the accumulated state (counts, running sums, weight
    /// accumulators, contribution moments) as JSON. Configuration — the
    /// policy, model, clip threshold — is *not* included: state belongs
    /// to the stream, configuration to the constructor.
    ///
    /// Every f64 is encoded as its raw bit pattern, so
    /// `state_save` → JSON text → [`OnlineEstimator::state_load`] is
    /// bit-identical: the restored estimator produces exactly the bits an
    /// unbroken estimator would, including the `-0.0` sum identity and
    /// `-inf` max-weight sentinel. This is the durability hook a serving
    /// layer's snapshot/crash-resume path builds on.
    fn state_save(&self) -> Json;

    /// Replaces this estimator's accumulated state with state captured by
    /// [`OnlineEstimator::state_save`] on an identically-configured
    /// estimator. On error (wrong estimator kind, corrupt field) the
    /// current state is left untouched.
    fn state_load(&mut self, state: &Json) -> Result<()>;
}

impl<E: OnlineEstimator + ?Sized> OnlineEstimator for Box<E> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn push(&mut self, rec: &TraceRecord) -> Result<()> {
        (**self).push(rec)
    }
    fn estimate(&self) -> Result<OnlineEstimate> {
        (**self).estimate()
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn reset(&mut self) {
        (**self).reset()
    }
    fn health_metrics(&self) -> Vec<(&'static str, f64)> {
        (**self).health_metrics()
    }
    fn state_save(&self) -> Json {
        (**self).state_save()
    }
    fn state_load(&mut self, state: &Json) -> Result<()> {
        (**self).state_load(state)
    }
}

// ---- the generic fold ---------------------------------------------------

/// What a kernel's step computes for one record.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Importance weight, for the weight diagnostics.
    pub w: f64,
    /// The term: the contribution ([`Finalize::Mean`]), the pair's second
    /// element ([`Finalize::Pairs`]) or the DM term ([`Finalize::Trajectory`]).
    pub t: f64,
    /// Model residual `r − r̂(c, d)` at the logged decision, if tracked.
    pub residual: f64,
    /// The pair's first element: `w` (SNIPS) unless a kernel sets it.
    pub h: f64,
}

impl Step {
    /// A step of weight `w`, term `t` and residual `residual`.
    pub fn new(w: f64, t: f64, residual: f64) -> Self {
        Self {
            w,
            t,
            residual,
            h: w,
        }
    }
}

/// How a kernel's terms become the estimate.
#[derive(Debug, Clone, Copy)]
pub enum Finalize {
    /// Terms are final on arrival; the estimate is their left-fold mean.
    Mean,
    /// The fold retains `(h, t)` pairs; the estimate is the left-fold mean
    /// of `f(n, Σh, h, t)` over them, defined only when `Σh > 0`.
    Pairs(fn(f64, f64, f64, f64) -> f64),
    /// Steps wait until this many complete a trajectory, which folds
    /// through SeqDR's backward recursion into one contribution.
    Trajectory(usize),
}

/// The per-estimator part of an online estimator; [`Fold`] does the rest.
pub trait Kernel: Sized {
    /// Whether steps carry importance weights (DM's diagnostics are uniform).
    const WEIGHTED: bool = true;
    /// Whether steps carry model residuals (reported as `mean_abs_residual`).
    const RESIDUALS: bool = false;
    /// Short name matching the batch twin ("DM", "IPS", …).
    fn name(&self) -> &'static str;
    /// The step for the record at stream position `k`; on error the kernel
    /// is untouched.
    fn step(&mut self, rec: &TraceRecord, k: usize) -> Result<Step>;
    /// The finalize expression.
    fn finalize(&self) -> Finalize {
        Finalize::Mean
    }
    /// Extra health keys, once a contribution has folded.
    fn health(&self, _fold: &Fold<Self>, _m: &mut Vec<(&'static str, f64)>) {}
    /// Appends kernel-owned state (ClippedIPS's count, the adaptive EMA)
    /// to the saved state.
    fn save(&self, _fields: &mut Vec<(String, Json)>) {}
    /// Restores what [`Kernel::save`] wrote; on error nothing changes.
    fn load(&mut self, _state: &Json) -> Result<()> {
        Ok(())
    }
    /// Clears kernel-owned state.
    fn reset(&mut self) {}
}

/// The streaming fold every online estimator shares: kernel `K`'s steps
/// folded into running state, behind [`OnlineEstimator`].
pub struct Fold<K> {
    kernel: K,
    /// Records accepted, including a pending partial trajectory.
    n: usize,
    /// Left-fold sum of final contributions, seeded at `-0.0`.
    sum: f64,
    abs_residual_sum: f64,
    acc: WeightAcc,
    moments: StreamingMoments,
    /// `(h, t)` per record of a [`Finalize::Pairs`] kernel.
    pairs: Vec<(f64, f64)>,
    /// `(dm, w, residual)` steps of the in-flight trajectory.
    pending: Vec<(f64, f64, f64)>,
}

impl<K: Kernel> Fold<K> {
    fn with(kernel: K) -> Self {
        Self {
            kernel,
            n: 0,
            sum: -0.0,
            abs_residual_sum: 0.0,
            acc: WeightAcc::new(),
            moments: StreamingMoments::new(),
            pairs: Vec::new(),
            pending: Vec::new(),
        }
    }
    /// Records whose contribution has folded.
    fn folded(&self) -> usize {
        self.n - self.pending.len()
    }
    /// Contributions in the estimate: records, or completed trajectories.
    fn contributions(&self) -> usize {
        match self.kernel.finalize() {
            Finalize::Trajectory(horizon) => self.folded() / horizon,
            _ => self.n,
        }
    }
    /// `Σh` over the retained pairs, the batch path's left fold.
    fn hsum(&self) -> f64 {
        self.pairs.iter().map(|(h, _)| *h).sum()
    }
    fn absorb(acc: &mut WeightAcc, abs_residual_sum: &mut f64, w: f64, residual: f64) {
        if K::WEIGHTED {
            acc.push(w);
        }
        if K::RESIDUALS {
            *abs_residual_sum += residual.abs();
        }
    }
    fn diagnostics(&self) -> WeightDiagnostics {
        match K::WEIGHTED {
            true => self.acc.diagnostics(),
            false => WeightDiagnostics::uniform(self.folded()),
        }
    }
}

impl<K: Kernel> OnlineEstimator for Fold<K> {
    fn name(&self) -> &str {
        self.kernel.name()
    }

    fn push(&mut self, rec: &TraceRecord) -> Result<()> {
        let s = self.kernel.step(rec, self.n)?;
        self.n += 1;
        match self.kernel.finalize() {
            Finalize::Mean => {
                self.sum += s.t;
                self.moments.push(s.t);
            }
            Finalize::Pairs(_) => {
                self.pairs.push((s.h, s.t));
                // The moments track the unnormalized terms: the final
                // normalization is not knowable until the stream ends.
                self.moments.push(s.h * s.t);
            }
            Finalize::Trajectory(horizon) => {
                self.pending.push((s.t, s.w, s.residual));
                if self.pending.len() == horizon {
                    // The batch path's record order: weights and residuals
                    // forward, then the backward value recursion.
                    for &(_, w, residual) in &self.pending {
                        Self::absorb(&mut self.acc, &mut self.abs_residual_sum, w, residual);
                    }
                    let v = crate::seq::trajectory_value(&self.pending);
                    self.sum += v;
                    self.moments.push(v);
                    self.pending.clear();
                }
                return Ok(());
            }
        }
        Self::absorb(&mut self.acc, &mut self.abs_residual_sum, s.w, s.residual);
        Ok(())
    }

    fn estimate(&self) -> Result<OnlineEstimate> {
        let n = self.contributions();
        let value = match self.kernel.finalize() {
            Finalize::Pairs(term) => {
                // The batch path's order of checks and float operations.
                let hsum = self.hsum();
                if hsum <= 0.0 {
                    return Err(EstimatorError::NoUsableRecords);
                }
                let mut sum = -0.0;
                for &(h, t) in &self.pairs {
                    sum += term(n as f64, hsum, h, t);
                }
                sum / n as f64
            }
            _ if n == 0 => return Err(EstimatorError::NoUsableRecords),
            _ => self.sum / n as f64,
        };
        let diagnostics = self.diagnostics();
        Ok(OnlineEstimate {
            value,
            n,
            diagnostics,
        })
    }

    fn len(&self) -> usize {
        self.n
    }

    fn reset(&mut self) {
        self.n = 0;
        self.sum = -0.0;
        self.abs_residual_sum = 0.0;
        self.acc = WeightAcc::new();
        self.moments = StreamingMoments::new();
        self.pairs.clear();
        self.pending.clear();
        self.kernel.reset();
    }

    fn health_metrics(&self) -> Vec<(&'static str, f64)> {
        let folded = self.folded();
        let mut m = vec![("n", folded as f64)];
        if folded == 0 {
            return m;
        }
        let diag = self.diagnostics();
        m.push(("ess", diag.effective_sample_size));
        m.push(("max_weight", diag.max_weight));
        m.push(("mean_weight", diag.mean_weight));
        m.push(("zero_weight_fraction", diag.zero_weight_fraction));
        m.push(("contribution_mean", self.moments.mean()));
        m.push(("contribution_variance", self.moments.variance()));
        m.push(("standard_error", self.moments.standard_error()));
        self.kernel.health(self, &mut m);
        if K::RESIDUALS {
            m.push(("mean_abs_residual", self.abs_residual_sum / folded as f64));
        }
        m
    }

    fn state_save(&self) -> Json {
        // Every estimator's fields in their historical order, so snapshots
        // re-save byte for byte: est, n | pairs | trajectories, kernel
        // state, sum, abs_residual_sum, pending, acc, moments.
        let finalize = self.kernel.finalize();
        let mut f = vec![("est".to_string(), Json::str(self.name()))];
        match finalize {
            Finalize::Mean => f.push(("n".into(), Json::Int(self.n as i64))),
            Finalize::Pairs(_) => {
                let flat = self.pairs.iter().flat_map(|&(h, t)| [bits(h), bits(t)]);
                f.push(("pairs".into(), Json::Array(flat.collect())));
            }
            Finalize::Trajectory(_) => {
                let done = self.contributions() as i64;
                f.push(("trajectories".into(), Json::Int(done)));
            }
        }
        self.kernel.save(&mut f);
        if !matches!(finalize, Finalize::Pairs(_)) {
            f.push(("sum".into(), bits(self.sum)));
        }
        if K::RESIDUALS {
            f.push(("abs_residual_sum".into(), bits(self.abs_residual_sum)));
        }
        if let Finalize::Trajectory(_) = finalize {
            let flat = self
                .pending
                .iter()
                .flat_map(|&(dm, w, r)| [dm, w, r].map(bits));
            f.push(("pending".into(), Json::Array(flat.collect())));
        }
        if K::WEIGHTED {
            f.push(("acc".into(), self.acc.state_save()));
        }
        f.push(("moments".into(), self.moments.state_save()));
        Json::Object(f)
    }

    fn state_load(&mut self, state: &Json) -> Result<()> {
        check_kind(state, self.name())?;
        let finalize = self.kernel.finalize();
        let (mut pairs, mut pending, mut sum) = (Vec::new(), Vec::new(), -0.0);
        let n = match finalize {
            Finalize::Mean => uint(state, "n")? as usize,
            Finalize::Pairs(_) => {
                let flat = load_flat(state, "pairs", 2)?;
                pairs = flat.chunks_exact(2).map(|p| (p[0], p[1])).collect();
                pairs.len()
            }
            Finalize::Trajectory(horizon) => {
                let flat = load_flat(state, "pending", 3)?;
                pending = flat.chunks_exact(3).map(|s| (s[0], s[1], s[2])).collect();
                if pending.len() >= horizon {
                    return Err(state_err("pending steps fill a whole trajectory"));
                }
                (uint(state, "trajectories")? as usize)
                    .checked_mul(horizon)
                    .and_then(|done| done.checked_add(pending.len()))
                    .ok_or_else(|| state_err("trajectory count overflows"))?
            }
        };
        if !matches!(finalize, Finalize::Pairs(_)) {
            sum = unbits(state, "sum")?;
        }
        let abs_residual_sum = match K::RESIDUALS {
            true => unbits(state, "abs_residual_sum")?,
            false => 0.0,
        };
        let acc = match K::WEIGHTED {
            true => WeightAcc::state_load(field(state, "acc")?)?,
            false => WeightAcc::new(),
        };
        let moments = StreamingMoments::state_load(field(state, "moments")?)?;
        // Last fallible step, itself atomic: an error anywhere leaves the
        // fold untouched.
        self.kernel.load(state)?;
        (self.n, self.sum, self.abs_residual_sum) = (n, sum, abs_residual_sum);
        (self.acc, self.moments, self.pairs, self.pending) = (acc, moments, pairs, pending);
        Ok(())
    }
}

// ---- the kernels ----------------------------------------------------------

fn check_policy_space(space: &DecisionSpace, policy: &dyn Policy) -> Result<()> {
    let (trace, policy) = (space.len(), policy.space().len());
    if trace != policy {
        return Err(EstimatorError::SpaceMismatch { trace, policy });
    }
    Ok(())
}

/// The importance weight for the record at stream position `k`, with the
/// batch path's error surface (`MissingPropensity { record: k }`).
#[inline]
fn weight_at(policy: &dyn Policy, rec: &TraceRecord, k: usize) -> Result<f64> {
    let p_old = rec.require_propensity(k)?;
    let p_new = policy.prob(&rec.context, rec.decision);
    Ok(p_new / p_old)
}

/// Direct Method: the term is `Σ_d μ_new(d|c)·r̂(c, d)`. Never reads
/// propensities. Also the model half every DR-family kernel embeds.
pub struct DmKernel {
    space: DecisionSpace,
    policy: BoxPolicy,
    model: BoxModel,
}

impl DmKernel {
    fn new(space: DecisionSpace, policy: BoxPolicy, model: BoxModel) -> Result<Self> {
        check_policy_space(&space, policy.as_ref())?;
        Ok(Self {
            space,
            policy,
            model,
        })
    }

    /// `Σ_d probs[d]·r̂(c, d)` in the batch path's order.
    #[inline]
    fn dm(&self, probs: &[f64], ctx: &Context) -> f64 {
        let predict = |d: Decision| probs[d.index()] * self.model.predict(ctx, d);
        self.space.iter().map(predict).sum()
    }

    /// The DR family's `(w, dm, residual)` for the record at position `k`.
    #[inline]
    fn dr_parts(&self, rec: &TraceRecord, k: usize) -> Result<(f64, f64, f64)> {
        let w = weight_at(self.policy.as_ref(), rec, k)?;
        let dm = self.dm(&self.policy.probabilities(&rec.context), &rec.context);
        let residual = rec.reward - self.model.predict(&rec.context, rec.decision);
        Ok((w, dm, residual))
    }
}

impl Kernel for DmKernel {
    const WEIGHTED: bool = false;
    fn name(&self) -> &'static str {
        "DM"
    }
    #[inline]
    fn step(&mut self, rec: &TraceRecord, _k: usize) -> Result<Step> {
        let dm = self.dm(&self.policy.probabilities(&rec.context), &rec.context);
        Ok(Step::new(1.0, dm, 0.0))
    }
}

/// Plain IPS: the term is `w·r`.
pub struct IpsKernel(BoxPolicy);

impl Kernel for IpsKernel {
    fn name(&self) -> &'static str {
        "IPS"
    }
    #[inline]
    fn step(&mut self, rec: &TraceRecord, k: usize) -> Result<Step> {
        let w = weight_at(self.0.as_ref(), rec, k)?;
        Ok(Step::new(w, w * rec.reward, 0.0))
    }
}

/// Self-normalized IPS: keeps `(w, r)` and finalizes `n·w·r / Σw`.
pub struct SnipsKernel(BoxPolicy);

impl Kernel for SnipsKernel {
    fn name(&self) -> &'static str {
        "SNIPS"
    }
    #[inline]
    fn step(&mut self, rec: &TraceRecord, k: usize) -> Result<Step> {
        let w = weight_at(self.0.as_ref(), rec, k)?;
        Ok(Step::new(w, rec.reward, 0.0))
    }
    fn finalize(&self) -> Finalize {
        Finalize::Pairs(|n, wsum, w, r| n * w * r / wsum)
    }
}

/// Clipped IPS: weights are capped at `max_weight`, as in [`crate::ClippedIps`].
pub struct ClippedKernel {
    policy: BoxPolicy,
    max_weight: f64,
    clipped: usize,
}

impl Kernel for ClippedKernel {
    fn name(&self) -> &'static str {
        "ClippedIPS"
    }
    #[inline]
    fn step(&mut self, rec: &TraceRecord, k: usize) -> Result<Step> {
        let raw = weight_at(self.policy.as_ref(), rec, k)?;
        if raw > self.max_weight {
            self.clipped += 1;
        }
        let w = raw.min(self.max_weight);
        Ok(Step::new(w, w * rec.reward, 0.0))
    }
    fn health(&self, fold: &Fold<Self>, m: &mut Vec<(&'static str, f64)>) {
        m.push(("clip_rate", fold.clip_rate()));
    }
    fn save(&self, fields: &mut Vec<(String, Json)>) {
        fields.push(("clipped".into(), Json::Int(self.clipped as i64)));
    }
    fn load(&mut self, state: &Json) -> Result<()> {
        self.clipped = uint(state, "clipped")? as usize;
        Ok(())
    }
    fn reset(&mut self) {
        self.clipped = 0;
    }
}

/// Doubly Robust (Eq. 2): the term is `dm + w·(r − r̂(c, d))`.
pub struct DrKernel(DmKernel);

impl Kernel for DrKernel {
    const RESIDUALS: bool = true;
    fn name(&self) -> &'static str {
        "DR"
    }
    #[inline]
    fn step(&mut self, rec: &TraceRecord, k: usize) -> Result<Step> {
        let (w, dm, residual) = self.0.dr_parts(rec, k)?;
        Ok(Step::new(w, dm + w * residual, residual))
    }
}

/// Adaptive weighting ([`crate::AdaptiveIps`], [`crate::AdaptiveDr`]): the
/// inner term `Γ` with a stabilizer `h` of past weights, `(h·Γ)·(n/Σh)`.
pub struct AdaptiveKernel<K> {
    inner: K,
    name: &'static str,
    mode: AdaptiveWeights,
    /// EMA of past squared weights — the stabilizer's variance tracker.
    ema: f64,
}

impl<K: Kernel> Kernel for AdaptiveKernel<K> {
    const RESIDUALS: bool = K::RESIDUALS;
    fn name(&self) -> &'static str {
        self.name
    }
    fn step(&mut self, rec: &TraceRecord, k: usize) -> Result<Step> {
        let s = self.inner.step(rec, k)?;
        let h = self.mode.h_at(self.ema);
        self.ema = AdaptiveWeights::advance(self.ema, s.w);
        Ok(Step { h, ..s })
    }
    fn finalize(&self) -> Finalize {
        Finalize::Pairs(|n, hsum, h, gamma| (h * gamma) * (n / hsum))
    }
    fn health(&self, fold: &Fold<Self>, m: &mut Vec<(&'static str, f64)>) {
        m.push(("hsum", fold.hsum()));
    }
    fn save(&self, fields: &mut Vec<(String, Json)>) {
        fields.push(("ema".into(), bits(self.ema)));
    }
    fn load(&mut self, state: &Json) -> Result<()> {
        self.ema = unbits(state, "ema")?;
        Ok(())
    }
    fn reset(&mut self) {
        self.ema = 1.0;
    }
}

/// Marginalized DR ([`crate::MarginalizedDr`]): the weight is the target's
/// over the logging policy's mass on the logged arm's embedding group.
pub struct MdrKernel {
    dm: DmKernel,
    logging: BoxPolicy,
    embedding: ActionEmbedding,
}

impl Kernel for MdrKernel {
    const RESIDUALS: bool = true;
    fn name(&self) -> &'static str {
        "MarginalizedDR"
    }
    #[inline]
    fn step(&mut self, rec: &TraceRecord, _k: usize) -> Result<Step> {
        let (ctx, a) = (&rec.context, rec.decision.index());
        let probs = self.dm.policy.probabilities(ctx);
        let num = self.embedding.marginal(&probs, a);
        let w = num / self.embedding.marginal(&self.logging.probabilities(ctx), a);
        let dm = self.dm.dm(&probs, ctx);
        let residual = rec.reward - self.dm.model.predict(ctx, rec.decision);
        Ok(Step::new(w, dm + w * residual, residual))
    }
    fn health(&self, _fold: &Fold<Self>, m: &mut Vec<(&'static str, f64)>) {
        m.push(("embedding_groups", self.embedding.num_groups() as f64));
    }
}

/// Per-decision sequential DR ([`crate::SeqDr`]): DR's `(dm, w, residual)`
/// per step, folded per trajectory of `horizon` steps.
pub struct SeqDrKernel {
    dm: DmKernel,
    horizon: usize,
}

impl Kernel for SeqDrKernel {
    const RESIDUALS: bool = true;
    fn name(&self) -> &'static str {
        "SeqDR"
    }
    #[inline]
    fn step(&mut self, rec: &TraceRecord, k: usize) -> Result<Step> {
        let (w, dm, residual) = self.dm.dr_parts(rec, k)?;
        Ok(Step::new(w, dm, residual))
    }
    fn finalize(&self) -> Finalize {
        Finalize::Trajectory(self.horizon)
    }
    fn health(&self, fold: &Fold<Self>, m: &mut Vec<(&'static str, f64)>) {
        m.push(("horizon", self.horizon as f64));
        m.push(("trajectories", fold.contributions() as f64));
    }
}

/// Streaming Direct Method: O(1) state, no propensities needed.
pub type OnlineDm = Fold<DmKernel>;
/// Streaming plain IPS: O(1) state.
pub type OnlineIps = Fold<IpsKernel>;
/// Streaming self-normalized IPS: two f64 per record.
pub type OnlineSnips = Fold<SnipsKernel>;
/// Streaming weight-clipped IPS: O(1) state.
pub type OnlineClippedIps = Fold<ClippedKernel>;
/// Streaming Doubly Robust: O(1) state.
pub type OnlineDr = Fold<DrKernel>;
/// Streaming adaptively-weighted IPS: two f64 per record.
pub type OnlineAdaptiveIps = Fold<AdaptiveKernel<IpsKernel>>;
/// Streaming adaptively-weighted DR: two f64 per record.
pub type OnlineAdaptiveDr = Fold<AdaptiveKernel<DrKernel>>;
/// Streaming marginalized DR: O(1) state, no propensities needed.
pub type OnlineMarginalizedDr = Fold<MdrKernel>;
/// Streaming sequential DR: at most one partial trajectory of state.
pub type OnlineSeqDr = Fold<SeqDrKernel>;

impl OnlineDm {
    /// Streaming DM of `policy` over `space` through a fitted `model`.
    pub fn new(space: DecisionSpace, policy: BoxPolicy, model: BoxModel) -> Result<Self> {
        Ok(Fold::with(DmKernel::new(space, policy, model)?))
    }
}

impl OnlineIps {
    /// Streaming IPS of `policy` over `space`.
    pub fn new(space: DecisionSpace, policy: BoxPolicy) -> Result<Self> {
        check_policy_space(&space, policy.as_ref())?;
        Ok(Fold::with(IpsKernel(policy)))
    }
}

impl OnlineSnips {
    /// Streaming SNIPS of `policy` over `space`.
    pub fn new(space: DecisionSpace, policy: BoxPolicy) -> Result<Self> {
        check_policy_space(&space, policy.as_ref())?;
        Ok(Fold::with(SnipsKernel(policy)))
    }
}

impl OnlineClippedIps {
    /// Streaming clipped IPS of `policy` over `space`.
    ///
    /// # Panics
    /// Unless `max_weight > 0` and finite, like [`crate::ClippedIps::new`].
    pub fn new(space: DecisionSpace, policy: BoxPolicy, max_weight: f64) -> Result<Self> {
        assert!(
            max_weight > 0.0 && max_weight.is_finite(),
            "max_weight must be positive, got {max_weight}"
        );
        check_policy_space(&space, policy.as_ref())?;
        Ok(Fold::with(ClippedKernel {
            policy,
            max_weight,
            clipped: 0,
        }))
    }

    /// Fraction of records whose raw weight exceeded the cap.
    pub fn clip_rate(&self) -> f64 {
        self.kernel.clipped as f64 / self.n.max(1) as f64
    }
}

impl OnlineDr {
    /// Streaming DR of `policy` over `space` with a fitted `model`.
    pub fn new(space: DecisionSpace, policy: BoxPolicy, model: BoxModel) -> Result<Self> {
        Ok(Fold::with(DrKernel(DmKernel::new(space, policy, model)?)))
    }
}

impl<K: Kernel> Fold<AdaptiveKernel<K>> {
    fn adaptive(inner: K, name: &'static str, mode: AdaptiveWeights) -> Self {
        Fold::with(AdaptiveKernel {
            inner,
            name,
            mode,
            ema: 1.0,
        })
    }
}

impl OnlineAdaptiveIps {
    /// Streaming adaptive IPS of `policy` over `space`.
    pub fn new(space: DecisionSpace, policy: BoxPolicy, mode: AdaptiveWeights) -> Result<Self> {
        check_policy_space(&space, policy.as_ref())?;
        Ok(Fold::adaptive(IpsKernel(policy), "AdaptiveIPS", mode))
    }
}

impl OnlineAdaptiveDr {
    /// Streaming adaptive DR of `policy` over `space` with a fitted `model`.
    pub fn new(
        space: DecisionSpace,
        policy: BoxPolicy,
        model: BoxModel,
        mode: AdaptiveWeights,
    ) -> Result<Self> {
        let dr = DrKernel(DmKernel::new(space, policy, model)?);
        Ok(Fold::adaptive(dr, "AdaptiveDR", mode))
    }
}

impl OnlineMarginalizedDr {
    /// Streaming marginalized DR of `policy` over `space`, with `logging`
    /// supplying the marginal denominators over `embedding`'s groups.
    ///
    /// # Panics
    /// If the embedding does not cover exactly `space`'s arms.
    pub fn new(
        space: DecisionSpace,
        policy: BoxPolicy,
        logging: BoxPolicy,
        model: BoxModel,
        embedding: ActionEmbedding,
    ) -> Result<Self> {
        let dm = DmKernel::new(space, policy, model)?;
        check_policy_space(&dm.space, logging.as_ref())?;
        let (covered, arms) = (embedding.len(), dm.space.len());
        assert!(
            covered == arms,
            "embedding covers {covered} arms but the space has {arms}"
        );
        Ok(Fold::with(MdrKernel {
            dm,
            logging,
            embedding,
        }))
    }
}

impl OnlineSeqDr {
    /// Streaming sequential DR of `policy` over `space` for trajectories
    /// of exactly `horizon` steps.
    ///
    /// # Panics
    /// If `horizon == 0`.
    pub fn new(
        space: DecisionSpace,
        policy: BoxPolicy,
        model: BoxModel,
        horizon: usize,
    ) -> Result<Self> {
        assert!(horizon > 0, "horizon must be positive");
        let dm = DmKernel::new(space, policy, model)?;
        Ok(Fold::with(SeqDrKernel { dm, horizon }))
    }

    /// Completed trajectories so far.
    pub fn trajectories(&self) -> usize {
        self.contributions()
    }
}

/// Bounds any online estimator to the most recent `capacity` records —
/// the streaming answer to §4.1 non-stationarity: when the logged world
/// drifts, only the recent regime should vote.
///
/// `push` is O(1) (it only maintains the window); `estimate` replays the
/// window through the inner estimator, so the windowed estimate is exactly
/// the batch estimate over the window's records. `estimate` therefore
/// takes `&mut self` here — it is not part of [`OnlineEstimator`].
///
/// Each `SlidingWindow` keeps its own copy of the window. A bank of
/// windowed estimators over one stream would hold every record once per
/// estimator, so the server (`ddn-serve`'s `Session`) does not use this
/// type: it keeps one ring per session and replays it through each
/// estimator the same way.
pub struct SlidingWindow<E: OnlineEstimator> {
    inner: E,
    window: VecDeque<TraceRecord>,
    capacity: usize,
    evicted: u64,
}

impl<E: OnlineEstimator> SlidingWindow<E> {
    /// Wraps `inner`, keeping at most `capacity` records.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(inner: E, capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        Self {
            inner,
            // Grown on demand: `capacity` comes from the client, and memory
            // must be bounded by the records actually sent.
            window: VecDeque::new(),
            capacity,
            evicted: 0,
        }
    }

    /// Name of the wrapped estimator.
    pub fn name(&self) -> &str {
        self.inner.name()
    }

    /// Appends a record, evicting the oldest when the window is full.
    pub fn push(&mut self, rec: &TraceRecord) {
        if self.window.len() == self.capacity {
            self.window.pop_front();
            self.evicted += 1;
        }
        self.window.push_back(rec.clone());
    }

    /// Estimate over exactly the windowed records, computed by replaying
    /// them through the inner estimator (after a reset). Equal to the
    /// batch estimate over the same records.
    pub fn estimate(&mut self) -> Result<OnlineEstimate> {
        self.inner.reset();
        for rec in &self.window {
            self.inner.push(rec)?;
        }
        self.inner.estimate()
    }

    /// Records currently in the window.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether the window holds no records.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Window capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of records evicted so far (total pushed − window size).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Serializes the window's state: the retained records (the inner
    /// estimator's accumulated state is immaterial — [`Self::estimate`]
    /// resets and replays it) plus the eviction count. The record round
    /// trip goes through [`TraceRecord::to_json`], whose float formatting
    /// is bit-exact, so a restored window estimates identically.
    pub fn state_save(&self) -> Json {
        Json::Object(vec![
            ("est".into(), Json::str(self.inner.name())),
            (
                "window".into(),
                Json::Array(self.window.iter().map(|r| r.to_json()).collect()),
            ),
            ("evicted".into(), Json::Int(self.evicted as i64)),
        ])
    }

    /// Restores window state captured by [`Self::state_save`] on a window
    /// around an identically-configured inner estimator. On error the
    /// current window is left untouched.
    pub fn state_load(&mut self, state: &Json) -> Result<()> {
        check_kind(state, self.inner.name())?;
        let raw = field(state, "window")?
            .as_array()
            .ok_or_else(|| state_err("field `window` must be an array"))?;
        if raw.len() > self.capacity {
            return Err(state_err(format!(
                "window holds {} records but capacity is {}",
                raw.len(),
                self.capacity
            )));
        }
        let mut window = VecDeque::with_capacity(raw.len());
        for rec in raw {
            window.push_back(
                TraceRecord::from_json(rec)
                    .map_err(|e| state_err(format!("bad window record: {e}")))?,
            );
        }
        self.evicted = uint(state, "evicted")?;
        self.window = window;
        Ok(())
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClippedIps, DirectMethod, DoublyRobust, Estimator, Ips, SelfNormalizedIps};
    use ddn_models::FnModel;
    use ddn_policy::{EpsilonSmoothedPolicy, LookupPolicy, UniformRandomPolicy};
    use ddn_stats::rng::{Rng, Xoshiro256};
    use ddn_trace::{Context, ContextSchema, Decision, DecisionSpace, Trace, TraceRecord};

    fn schema() -> ContextSchema {
        ContextSchema::builder().categorical("g", 2).build()
    }

    fn space() -> DecisionSpace {
        DecisionSpace::of(&["a", "b"])
    }

    fn skewed_trace(n: usize, seed: u64) -> Trace {
        let s = schema();
        let logger = EpsilonSmoothedPolicy::new(Box::new(LookupPolicy::constant(space(), 0)), 0.5);
        let mut rng = Xoshiro256::seed_from(seed);
        let recs = (0..n)
            .map(|_| {
                let g = rng.index(2) as u32;
                let c = Context::build(&s).set_cat("g", g).finish();
                let (d, p) = logger.sample_with_prob(&c, &mut rng);
                let r = 2.0 + g as f64 + 3.0 * d.index() as f64;
                TraceRecord::new(c, d, r).with_propensity(p)
            })
            .collect();
        Trace::from_records(s, space(), recs).unwrap()
    }

    fn model() -> FnModel<fn(&Context, Decision) -> f64> {
        fn f(c: &Context, d: Decision) -> f64 {
            1.5 + c.cat(0) as f64 + 2.0 * d.index() as f64
        }
        FnModel::new(f)
    }

    fn target() -> LookupPolicy {
        LookupPolicy::constant(space(), 1)
    }

    fn replay<E: OnlineEstimator>(online: &mut E, trace: &Trace) {
        for rec in trace.records() {
            online.push(rec).unwrap();
        }
    }

    #[test]
    fn ips_replay_is_bit_identical() {
        let t = skewed_trace(300, 7);
        let batch = Ips::new().estimate(&t, &target()).unwrap();
        let mut online = OnlineIps::new(space(), Box::new(target())).unwrap();
        replay(&mut online, &t);
        let e = online.estimate().unwrap();
        assert_eq!(e.value.to_bits(), batch.value.to_bits());
        assert_eq!(e.diagnostics, batch.diagnostics);
    }

    #[test]
    fn snips_replay_is_bit_identical() {
        let t = skewed_trace(300, 8);
        let batch = SelfNormalizedIps::new().estimate(&t, &target()).unwrap();
        let mut online = OnlineSnips::new(space(), Box::new(target())).unwrap();
        replay(&mut online, &t);
        let e = online.estimate().unwrap();
        assert_eq!(e.value.to_bits(), batch.value.to_bits());
        assert_eq!(e.diagnostics, batch.diagnostics);
    }

    #[test]
    fn clipped_ips_replay_is_bit_identical() {
        let t = skewed_trace(300, 9);
        let batch = ClippedIps::new(2.0).estimate(&t, &target()).unwrap();
        let mut online = OnlineClippedIps::new(space(), Box::new(target()), 2.0).unwrap();
        replay(&mut online, &t);
        let e = online.estimate().unwrap();
        assert_eq!(e.value.to_bits(), batch.value.to_bits());
        assert_eq!(e.diagnostics, batch.diagnostics);
        assert!(online.clip_rate() > 0.0, "weight-4 records must clip");
    }

    #[test]
    fn dm_and_dr_replay_are_bit_identical() {
        let t = skewed_trace(300, 10);
        let batch_dm = DirectMethod::new(model()).estimate(&t, &target()).unwrap();
        let mut online_dm = OnlineDm::new(space(), Box::new(target()), Box::new(model())).unwrap();
        replay(&mut online_dm, &t);
        let e = online_dm.estimate().unwrap();
        assert_eq!(e.value.to_bits(), batch_dm.value.to_bits());

        let batch_dr = DoublyRobust::new(model()).estimate(&t, &target()).unwrap();
        let mut online_dr = OnlineDr::new(space(), Box::new(target()), Box::new(model())).unwrap();
        replay(&mut online_dr, &t);
        let e = online_dr.estimate().unwrap();
        assert_eq!(e.value.to_bits(), batch_dr.value.to_bits());
        assert_eq!(e.diagnostics, batch_dr.diagnostics);
    }

    #[test]
    fn missing_propensity_fails_at_the_offending_record() {
        let s = schema();
        let good = TraceRecord::new(
            Context::build(&s).set_cat("g", 0).finish(),
            Decision::from_index(0),
            1.0,
        )
        .with_propensity(0.5);
        let bad = TraceRecord::new(
            Context::build(&s).set_cat("g", 1).finish(),
            Decision::from_index(1),
            2.0,
        );
        let mut online = OnlineIps::new(space(), Box::new(target())).unwrap();
        online.push(&good).unwrap();
        let err = online.push(&bad).unwrap_err();
        assert!(
            matches!(
                err,
                EstimatorError::Trace(ddn_trace::TraceError::MissingPropensity { record: 1 })
            ),
            "{err:?}"
        );
        // The failed push left state untouched: the estimator still
        // reports exactly one record.
        assert_eq!(online.len(), 1);
        assert!(online.estimate().is_ok());
    }

    #[test]
    fn empty_stream_has_no_estimate() {
        let online = OnlineIps::new(space(), Box::new(target())).unwrap();
        assert!(matches!(
            online.estimate(),
            Err(EstimatorError::NoUsableRecords)
        ));
        let health = online.health_metrics();
        assert_eq!(health, vec![("n", 0.0)]);
    }

    #[test]
    fn snips_zero_weight_mass_errors() {
        let s = schema();
        let rec = TraceRecord::new(
            Context::build(&s).set_cat("g", 0).finish(),
            Decision::from_index(0),
            1.0,
        )
        .with_propensity(0.5);
        let mut online = OnlineSnips::new(space(), Box::new(target())).unwrap();
        online.push(&rec).unwrap();
        assert!(matches!(
            online.estimate(),
            Err(EstimatorError::NoUsableRecords)
        ));
        // Plain IPS over the same stream is defined (value 0).
        let mut ips = OnlineIps::new(space(), Box::new(target())).unwrap();
        ips.push(&rec).unwrap();
        let e = ips.estimate().unwrap();
        assert_eq!(e.value, 0.0);
        assert_eq!(e.diagnostics.zero_weight_fraction, 1.0);
    }

    #[test]
    fn space_mismatch_rejected_at_construction() {
        let wide = DecisionSpace::of(&["a", "b", "c"]);
        let err = match OnlineIps::new(wide, Box::new(target())) {
            Err(e) => e,
            Ok(_) => panic!("mismatched space must be rejected"),
        };
        assert!(matches!(
            err,
            EstimatorError::SpaceMismatch {
                trace: 3,
                policy: 2
            }
        ));
    }

    #[test]
    fn health_metrics_stream_with_the_records() {
        let t = skewed_trace(100, 11);
        let mut online = OnlineIps::new(space(), Box::new(target())).unwrap();
        replay(&mut online, &t);
        let metrics = online.health_metrics();
        let get = |name: &str| {
            metrics
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        assert_eq!(get("n"), 100.0);
        assert!(get("ess") > 0.0 && get("ess") <= 100.0);
        assert_eq!(get("max_weight"), 4.0);
        assert!(get("standard_error") > 0.0);
    }

    #[test]
    fn sliding_window_matches_batch_over_the_window() {
        let t = skewed_trace(200, 12);
        let mut window =
            SlidingWindow::new(OnlineIps::new(space(), Box::new(target())).unwrap(), 50);
        for rec in t.records() {
            window.push(rec);
        }
        assert_eq!(window.len(), 50);
        assert_eq!(window.evicted(), 150);
        let windowed = window.estimate().unwrap();
        // The window is the last 50 records: estimate equals the batch
        // estimate over exactly that sub-trace.
        let tail = Trace::from_records(
            t.schema().clone(),
            t.space().clone(),
            t.records()[150..].to_vec(),
        )
        .unwrap();
        let batch = Ips::new().estimate(&tail, &target()).unwrap();
        assert_eq!(windowed.value.to_bits(), batch.value.to_bits());
        assert_eq!(windowed.diagnostics, batch.diagnostics);
    }

    #[test]
    fn sliding_window_tracks_regime_change() {
        // Reward doubles mid-stream: the windowed estimate follows the new
        // regime while the unwindowed estimate stays blended.
        let s = schema();
        let mk = |r: f64| {
            TraceRecord::new(
                Context::build(&s).set_cat("g", 0).finish(),
                Decision::from_index(1),
                r,
            )
            .with_propensity(0.5)
        };
        let mut full =
            OnlineIps::new(space(), Box::new(UniformRandomPolicy::new(space()))).unwrap();
        let mut window = SlidingWindow::new(
            OnlineIps::new(space(), Box::new(UniformRandomPolicy::new(space()))).unwrap(),
            40,
        );
        for _ in 0..100 {
            let rec = mk(1.0);
            full.push(&rec).unwrap();
            window.push(&rec);
        }
        for _ in 0..40 {
            let rec = mk(2.0);
            full.push(&rec).unwrap();
            window.push(&rec);
        }
        let blended = full.estimate().unwrap().value;
        let recent = window.estimate().unwrap().value;
        assert!(
            (recent - 2.0).abs() < 1e-12,
            "window sees only the new regime"
        );
        assert!(blended < recent, "full stream stays blended: {blended}");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_window_panics() {
        let _ = SlidingWindow::new(OnlineIps::new(space(), Box::new(target())).unwrap(), 0);
    }

    #[test]
    fn adaptive_replay_is_bit_identical() {
        use crate::adaptive::{AdaptiveDr, AdaptiveIps, AdaptiveWeights};
        let t = skewed_trace(300, 14);
        for mode in [AdaptiveWeights::Stabilized, AdaptiveWeights::Constant] {
            let batch = AdaptiveIps::new(mode).estimate(&t, &target()).unwrap();
            let mut online = OnlineAdaptiveIps::new(space(), Box::new(target()), mode).unwrap();
            replay(&mut online, &t);
            let e = online.estimate().unwrap();
            assert_eq!(e.value.to_bits(), batch.value.to_bits());
            assert_eq!(e.diagnostics, batch.diagnostics);

            let batch = AdaptiveDr::new(model(), mode)
                .estimate(&t, &target())
                .unwrap();
            let mut online =
                OnlineAdaptiveDr::new(space(), Box::new(target()), Box::new(model()), mode)
                    .unwrap();
            replay(&mut online, &t);
            let e = online.estimate().unwrap();
            assert_eq!(e.value.to_bits(), batch.value.to_bits());
            assert_eq!(e.diagnostics, batch.diagnostics);
        }
    }

    #[test]
    fn marginalized_replay_is_bit_identical() {
        use crate::marginalized::{ActionEmbedding, MarginalizedDr};
        let t = skewed_trace(300, 15);
        let logger =
            || EpsilonSmoothedPolicy::new(Box::new(LookupPolicy::constant(space(), 0)), 0.5);
        let emb = ActionEmbedding::identity(2);
        let batch = MarginalizedDr::new(model(), emb.clone(), Box::new(logger()))
            .estimate(&t, &target())
            .unwrap();
        let mut online = OnlineMarginalizedDr::new(
            space(),
            Box::new(target()),
            Box::new(logger()),
            Box::new(model()),
            emb,
        )
        .unwrap();
        replay(&mut online, &t);
        let e = online.estimate().unwrap();
        assert_eq!(e.value.to_bits(), batch.value.to_bits());
        assert_eq!(e.diagnostics, batch.diagnostics);
    }

    #[test]
    fn seq_replay_is_bit_identical() {
        use crate::seq::SeqDr;
        let t = skewed_trace(300, 16);
        for horizon in [1, 5] {
            let batch = SeqDr::new(model(), horizon)
                .estimate(&t, &target())
                .unwrap();
            let mut online =
                OnlineSeqDr::new(space(), Box::new(target()), Box::new(model()), horizon).unwrap();
            replay(&mut online, &t);
            let e = online.estimate().unwrap();
            assert_eq!(e.value.to_bits(), batch.value.to_bits());
            assert_eq!(e.diagnostics, batch.diagnostics);
            assert_eq!(e.n, 300 / horizon);
        }
    }

    #[test]
    fn seq_pending_trajectory_stays_out_of_the_estimate() {
        let t = skewed_trace(10, 17);
        let mut online =
            OnlineSeqDr::new(space(), Box::new(target()), Box::new(model()), 4).unwrap();
        for rec in &t.records()[..3] {
            online.push(rec).unwrap();
        }
        // Three steps of a four-step trajectory: no estimate yet.
        assert_eq!(online.len(), 3);
        assert!(matches!(
            online.estimate(),
            Err(EstimatorError::NoUsableRecords)
        ));
        online.push(&t.records()[3]).unwrap();
        assert_eq!(online.trajectories(), 1);
        assert!(online.estimate().is_ok());
    }

    #[test]
    fn reset_clears_state_but_keeps_config() {
        let t = skewed_trace(50, 13);
        let mut online = OnlineClippedIps::new(space(), Box::new(target()), 2.0).unwrap();
        replay(&mut online, &t);
        assert_eq!(online.len(), 50);
        online.reset();
        assert_eq!(online.len(), 0);
        replay(&mut online, &t);
        let again = online.estimate().unwrap();
        let batch = ClippedIps::new(2.0).estimate(&t, &target()).unwrap();
        assert_eq!(again.value.to_bits(), batch.value.to_bits());
    }
}
