//! Online (streaming) counterparts of the estimator menu. Each estimator
//! is written once, as a [`Kernel`]: a per-record [`Step`] read off the
//! record's score [`Row`], a [`Finalize`] expression and its extra health
//! keys. One generic [`Tally`] owns the state they share (record count,
//! left-fold sums, weight accumulators, contribution moments, |residual|
//! sum, retained pairs or pending trajectory steps). Three things feed
//! tallies rows:
//!
//! - a standalone [`Fold`] owns one tally and its own policy and model,
//!   calls them for the row entries its kernel reads (an IPS fold never
//!   asks for a probability vector), and implements [`OnlineEstimator`]
//!   once; [`OnlineDm`] … [`OnlineSeqDr`] alias it over the nine kernels;
//! - a [`Bank`] is what a served session holds: one tally per requested
//!   [`crate::menu`] name, and one scorer that computes each record's row
//!   once for all of them, from tables of its context-free target policy
//!   and constant model taken at init;
//! - an offline batch estimate ([`crate::BatchEstimator`]) of the nine
//!   menu estimators reads each record's row off an [`EvalBatch`] and
//!   folds the batch through one tally, which also yields the per-record
//!   contributions.
//!
//! Callers instantiate the generic fold in their own crate, so the
//! per-record path is `#[inline]`.
//!
//! The contract, property-tested in `tests/online_parity.rs`,
//! `tests/bank.rs` and `tests/properties.rs`, is **bit-identity with the
//! scalar [`crate::Estimator`] impls**, including the
//! [`WeightDiagnostics`], the health metrics and the error surface. Each
//! step keeps the scalar path's float expression and each finalize shape
//! its fold order: [`Finalize::Mean`] terms are final on arrival, so a
//! running `sum += t` seeded at `-0.0` (the float `Sum` identity) is the
//! scalar left fold in O(1) state; [`Finalize::Pairs`] terms (SNIPS's
//! `n·w·r/Σw`, the adaptive `(h·Γ)·(n/Σh)`) need end-of-stream
//! quantities, so the pairs are kept, `Σh` runs as a left fold, and
//! `estimate` replays the scalar loop; [`Finalize::Trajectory`] steps
//! (SeqDR) wait for their trajectory and fold through the backward
//! recursion. A bank with a `snips` member
//! keeps each pair value once: SNIPS's `(w, r)` columns, from which the
//! adaptive members' `(h, Γ)` pairs follow (`h` sees only earlier
//! weights), and one pass over the columns estimates every pair member.
//! [`SlidingWindow`] bounds any estimator to its last `capacity` records
//! (§4.1 non-stationarity).

use crate::adaptive::AdaptiveWeights;
use crate::batch::{note_reuse, EvalBatch};
use crate::estimate::{Estimate, EstimatorError, WeightDiagnostics};
use crate::marginalized::ActionEmbedding;
use crate::menu::{self, MenuConfig};
use ddn_models::RewardModel;
use ddn_policy::Policy;
use ddn_stats::Json;
use ddn_trace::{Decision, DecisionSpace, TraceRecord};
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

// ---- the score row --------------------------------------------------------

/// What the kernels read of one record: its reward and its scores. Only
/// the entries some kernel reads are filled; the rest stay `0.0`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Row {
    /// Importance weight `μ_new(a|c) / p` of the logged arm `a`.
    w: f64,
    /// Logged reward `r`.
    r: f64,
    /// The DM term `Σ_d μ_new(d|c)·r̂(c, d)`, summed in space order.
    dm: f64,
    /// The model's prediction `r̂(c, a)` at the logged arm.
    rhat: f64,
    /// Marginalized DR's weight: the target's over the logging policy's
    /// mass on the logged arm's embedding group. Read only with `dm`.
    mdr_w: f64,
}

/// Which [`Row`] entries a kernel reads besides the reward: a union of
/// the `READS_*` bits.
pub type Reads = u8;
/// `w`, which needs the record's propensity.
const READS_W: Reads = 1;
/// `dm`.
const READS_DM: Reads = 2;
/// `rhat`.
const READS_RHAT: Reads = 4;
/// `mdr_w`, read only with `dm`.
const READS_MDR_W: Reads = 8;
/// The DR family's: weight, DM term and prediction.
const READS_DR: Reads = READS_W | READS_DM | READS_RHAT;

// ---- the generic tally ----------------------------------------------------

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
    /// The tally retains `(h, t)` pairs; the estimate is the left-fold
    /// mean of `f(n, Σh, h, t)` over them, defined only when `Σh > 0`.
    Pairs(fn(f64, f64, f64, f64) -> f64),
    /// Steps wait until this many complete a trajectory, which folds
    /// through SeqDR's backward recursion into one contribution.
    Trajectory(usize),
}

/// SNIPS's term of the pair `(w, r)`: `n·w·r / Σw`.
#[inline]
fn snips_term(n: f64, wsum: f64, w: f64, r: f64) -> f64 {
    n * w * r / wsum
}

/// The adaptive term of the pair `(h, Γ)`: `(h·Γ)·(n/Σh)`.
#[inline]
fn adaptive_term(n: f64, hsum: f64, h: f64, gamma: f64) -> f64 {
    (h * gamma) * (n / hsum)
}

/// The per-estimator part of an online estimator; [`Tally`] does the rest.
pub trait Kernel: Sized + Clone {
    /// Whether steps carry importance weights (DM's diagnostics are uniform).
    const WEIGHTED: bool = true;
    /// Whether steps carry model residuals (reported as `mean_abs_residual`).
    const RESIDUALS: bool = false;
    /// The row entries [`Kernel::step`] reads.
    const READS: Reads;
    /// Short name matching the batch twin ("DM", "IPS", …).
    fn name(&self) -> &'static str;
    /// The name of [`AdaptiveKernel`] around this kernel.
    const ADAPTIVE_NAME: &'static str = "Adaptive";
    /// The step for one record's row.
    fn step(&mut self, row: &Row) -> Step;
    /// The finalize expression.
    fn finalize(&self) -> Finalize {
        Finalize::Mean
    }
    /// Extra health keys, once a contribution has folded.
    fn health(&self, _tally: &Tally<Self>, _m: &mut Vec<(&'static str, f64)>) {}
    /// Appends kernel-owned state (ClippedIPS's count, the adaptive EMA)
    /// to the saved state.
    fn save(&self, _fields: &mut Vec<(String, Json)>) {}
    /// Restores what [`Kernel::save`] wrote.
    fn load(&mut self, _state: &Json) -> Result<()> {
        Ok(())
    }
    /// Clears kernel-owned state.
    fn reset(&mut self) {}
}

/// What kernel `K`'s online estimator accumulates: everything but its
/// scorer. A standalone [`Fold`] holds one; a [`Bank`] one per member.
pub struct Tally<K> {
    kernel: K,
    /// Records accepted, including a pending partial trajectory.
    n: usize,
    /// Left-fold sum of final contributions, seeded at `-0.0`.
    sum: f64,
    /// Left-fold `Σh` of a [`Finalize::Pairs`] kernel's pairs, seeded at
    /// `-0.0` like the batch path's sum over them.
    hsum: f64,
    abs_residual_sum: f64,
    acc: WeightAcc,
    moments: StreamingMoments,
    /// `(h, t)` per record of a [`Finalize::Pairs`] kernel, unless its
    /// bank keeps them as columns.
    pairs: Vec<(f64, f64)>,
    /// `(dm, w, residual)` steps of the in-flight trajectory.
    pending: Vec<(f64, f64, f64)>,
}

impl<K: Kernel> Tally<K> {
    fn new(kernel: K) -> Self {
        Self {
            kernel,
            n: 0,
            sum: -0.0,
            hsum: -0.0,
            abs_residual_sum: 0.0,
            acc: WeightAcc::new(),
            moments: StreamingMoments::new(),
            pairs: Vec::new(),
            pending: Vec::new(),
        }
    }
    fn reads(&self) -> Reads {
        K::READS
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

    /// Folds one record's row; a pair is kept only with `keep_pair` (a
    /// bank with columns keeps it there instead). Returns the
    /// contribution the row completes: a [`Finalize::Mean`] term or a
    /// finished trajectory's value.
    #[inline]
    fn push(&mut self, row: &Row, keep_pair: bool) -> Option<f64> {
        let s = self.kernel.step(row);
        self.n += 1;
        let folded = match self.kernel.finalize() {
            Finalize::Mean => {
                self.sum += s.t;
                self.moments.push(s.t);
                Some(s.t)
            }
            Finalize::Pairs(_) => {
                if keep_pair {
                    self.pairs.push((s.h, s.t));
                }
                self.hsum += s.h;
                // The moments track the unnormalized terms: the final
                // normalization is not knowable until the stream ends.
                self.moments.push(s.h * s.t);
                None
            }
            Finalize::Trajectory(horizon) => {
                self.pending.push((s.t, s.w, s.residual));
                if self.pending.len() < horizon {
                    return None;
                }
                // The scalar path's record order: weights and residuals
                // forward, then the backward value recursion.
                for &(_, w, residual) in &self.pending {
                    Self::absorb(&mut self.acc, &mut self.abs_residual_sum, w, residual);
                }
                let v = crate::seq::trajectory_value(&self.pending);
                self.sum += v;
                self.moments.push(v);
                self.pending.clear();
                return Some(v);
            }
        };
        Self::absorb(&mut self.acc, &mut self.abs_residual_sum, s.w, s.residual);
        folded
    }

    fn finish(&self, n: usize, value: f64) -> OnlineEstimate {
        OnlineEstimate {
            value,
            n,
            diagnostics: self.diagnostics(),
        }
    }

    /// A [`Finalize::Pairs`] estimate whose terms over the pairs sum to
    /// `terms(n, Σh)`, with the batch path's order of checks.
    fn pairs_estimate(&self, terms: impl FnOnce(f64, f64) -> f64) -> Result<OnlineEstimate> {
        if self.hsum <= 0.0 {
            return Err(EstimatorError::NoUsableRecords);
        }
        let n = self.contributions();
        Ok(self.finish(n, terms(n as f64, self.hsum) / n as f64))
    }

    fn estimate(&self) -> Result<OnlineEstimate> {
        let n = self.contributions();
        match self.kernel.finalize() {
            Finalize::Pairs(term) => self.pairs_estimate(|n, hsum| {
                let terms = self.pairs.iter().map(|&(h, t)| term(n, hsum, h, t));
                terms.fold(-0.0, |sum, x| sum + x)
            }),
            _ if n == 0 => Err(EstimatorError::NoUsableRecords),
            _ => Ok(self.finish(n, self.sum / n as f64)),
        }
    }

    fn reset(&mut self) {
        self.n = 0;
        self.sum = -0.0;
        self.hsum = -0.0;
        self.abs_residual_sum = 0.0;
        self.acc = WeightAcc::new();
        self.moments = StreamingMoments::new();
        self.pairs.clear();
        self.pending.clear();
        self.kernel.reset();
    }

    fn health(&self) -> Vec<(&'static str, f64)> {
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

    /// The saved state, with `pairs` as a [`Finalize::Pairs`] kernel's.
    fn save(&self, pairs: impl Iterator<Item = (f64, f64)>) -> Json {
        // Every estimator's fields in their historical order, so snapshots
        // re-save byte for byte: est, n | pairs | trajectories, kernel
        // state, sum, abs_residual_sum, pending, acc, moments.
        let finalize = self.kernel.finalize();
        let mut f = vec![("est".to_string(), Json::str(self.kernel.name()))];
        match finalize {
            Finalize::Mean => f.push(("n".into(), Json::Int(self.n as i64))),
            Finalize::Pairs(_) => {
                let flat = pairs.flat_map(|(h, t)| [bits(h), bits(t)]);
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

    /// This tally's configuration with the state [`Tally::save`] wrote.
    fn loaded(&self, state: &Json) -> Result<Self> {
        check_kind(state, self.kernel.name())?;
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
        let mut kernel = self.kernel.clone();
        kernel.load(state)?;
        let hsum = pairs.iter().map(|&(h, _)| h).sum();
        Ok(Self {
            kernel,
            n,
            sum,
            hsum,
            abs_residual_sum,
            acc,
            moments,
            pairs,
            pending,
        })
    }
}

// ---- the standalone fold --------------------------------------------------

/// A standalone online estimator: kernel `K`'s [`Tally`], fed rows by a
/// scorer of its own, behind [`OnlineEstimator`].
pub struct Fold<K> {
    scorer: Scorer,
    tally: Tally<K>,
}

impl<K: Kernel> Fold<K> {
    fn with(scorer: Scorer, kernel: K) -> Self {
        Self {
            scorer,
            tally: Tally::new(kernel),
        }
    }
}

impl<K: Kernel> OnlineEstimator for Fold<K> {
    fn name(&self) -> &str {
        self.tally.kernel.name()
    }

    fn push(&mut self, rec: &TraceRecord) -> Result<()> {
        let row = self.scorer.row(rec, self.tally.n, K::READS)?;
        self.tally.push(&row, true);
        Ok(())
    }

    fn estimate(&self) -> Result<OnlineEstimate> {
        self.tally.estimate()
    }

    fn len(&self) -> usize {
        self.tally.n
    }

    fn reset(&mut self) {
        self.tally.reset();
    }

    fn health_metrics(&self) -> Vec<(&'static str, f64)> {
        self.tally.health()
    }

    fn state_save(&self) -> Json {
        self.tally.save(self.tally.pairs.iter().copied())
    }

    fn state_load(&mut self, state: &Json) -> Result<()> {
        self.tally = self.tally.loaded(state)?;
        Ok(())
    }
}

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

/// A standalone fold's scorer: its policy and model, called per record
/// for the row entries its kernel reads, with the batch path's calls.
struct Scorer {
    space: DecisionSpace,
    policy: BoxPolicy,
    /// The reward model of the kernels that read `dm` or `rhat`.
    model: Option<BoxModel>,
    /// Marginalized DR's logging policy and embedding.
    marginal: Option<(BoxPolicy, ActionEmbedding)>,
}

impl Scorer {
    fn new(space: DecisionSpace, policy: BoxPolicy, model: Option<BoxModel>) -> Result<Self> {
        check_policy_space(&space, policy.as_ref())?;
        Ok(Self {
            space,
            policy,
            model,
            marginal: None,
        })
    }

    fn model(&self) -> &dyn RewardModel {
        let model = self.model.as_deref();
        model.expect("a fold whose kernel reads the model is built with one")
    }

    /// Record `k`'s row: the entries `reads` names.
    #[inline]
    fn row(&self, rec: &TraceRecord, k: usize, reads: Reads) -> Result<Row> {
        let ctx = &rec.context;
        let mut row = Row {
            r: rec.reward,
            ..Row::default()
        };
        if reads & READS_W != 0 {
            row.w = weight_at(self.policy.as_ref(), rec, k)?;
        }
        if reads & READS_DM != 0 {
            let probs = self.policy.probabilities(ctx);
            if reads & READS_MDR_W != 0 {
                let (logging, embedding) =
                    self.marginal.as_ref().expect("mdr has a logging policy");
                let a = rec.decision.index();
                let num = embedding.marginal(&probs, a);
                row.mdr_w = num / embedding.marginal(&logging.probabilities(ctx), a);
            }
            let model = self.model();
            let predict = |d: Decision| probs[d.index()] * model.predict(ctx, d);
            row.dm = self.space.iter().map(predict).sum();
        }
        if reads & READS_RHAT != 0 {
            row.rhat = self.model().predict(ctx, rec.decision);
        }
        Ok(row)
    }
}

// ---- the offline fold -----------------------------------------------------

/// Kernel `K`'s estimate over `batch`, for the estimator's
/// [`crate::BatchEstimator`] impl: each record's [`Row`] read off the
/// batch and folded through one [`Tally`], which also yields the
/// per-record contributions an [`Estimate`] carries. `w` is read only
/// when `K` reads it, so a missing propensity fails only those kernels;
/// `mdr_w` holds marginalized DR's weights. Books `hits` batch scores
/// per record as `batch.hit` (1 for a weight, 2 for DM's probability
/// and prediction rows, 3 for the DR family's weight, DM term and
/// prediction) and, on success, emits the scalar estimator's health:
/// the tally's without its contribution moments.
pub(crate) fn fold_batch<K: Kernel>(
    kernel: K,
    batch: &EvalBatch,
    mdr_w: Option<&[f64]>,
    hits: u64,
) -> Result<Estimate> {
    let w = match K::READS & READS_W {
        0 => None,
        _ => Some(batch.weights()?),
    };
    let name = kernel.name();
    let mut tally = Tally::new(kernel);
    let mut per_record = Vec::with_capacity(batch.len());
    let scores = batch.dm_terms().iter().zip(batch.q_logged());
    for (i, (&r, (&dm, &rhat))) in batch.rewards().iter().zip(scores).enumerate() {
        let row = Row {
            w: w.map_or(0.0, |w| w[i]),
            r,
            dm,
            rhat,
            mdr_w: mdr_w.map_or(0.0, |m| m[i]),
        };
        per_record.extend(tally.push(&row, true));
    }
    if tally.contributions() == 0 {
        return Err(EstimatorError::NoUsableRecords);
    }
    note_reuse(name, hits * batch.len() as u64, 0);
    if let Finalize::Pairs(term) = tally.kernel.finalize() {
        if tally.hsum <= 0.0 {
            return Err(EstimatorError::NoUsableRecords);
        }
        let (n, hsum) = (tally.n as f64, tally.hsum);
        let terms = tally.pairs.iter().map(|&(h, t)| term(n, hsum, h, t));
        per_record.extend(terms);
    }
    let estimate = Estimate::from_contributions(per_record, tally.diagnostics());
    if ddn_telemetry::enabled() {
        let mut health = tally.health();
        let moments = [
            "contribution_mean",
            "contribution_variance",
            "standard_error",
        ];
        health.retain(|(key, _)| !moments.contains(key));
        ddn_telemetry::record_health(name, &health);
    }
    Ok(estimate)
}

// ---- the kernels ----------------------------------------------------------

/// Direct Method: the term is `Σ_d μ_new(d|c)·r̂(c, d)`. Never reads
/// propensities.
#[derive(Debug, Clone)]
pub struct DmKernel;

impl Kernel for DmKernel {
    const WEIGHTED: bool = false;
    const READS: Reads = READS_DM;
    fn name(&self) -> &'static str {
        "DM"
    }
    #[inline]
    fn step(&mut self, row: &Row) -> Step {
        Step::new(1.0, row.dm, 0.0)
    }
}

/// Plain IPS: the term is `w·r`.
#[derive(Debug, Clone)]
pub struct IpsKernel;

impl Kernel for IpsKernel {
    const READS: Reads = READS_W;
    const ADAPTIVE_NAME: &'static str = "AdaptiveIPS";
    fn name(&self) -> &'static str {
        "IPS"
    }
    #[inline]
    fn step(&mut self, row: &Row) -> Step {
        Step::new(row.w, row.w * row.r, 0.0)
    }
}

/// Self-normalized IPS: keeps `(w, r)` and finalizes `n·w·r / Σw`.
#[derive(Debug, Clone)]
pub struct SnipsKernel;

impl Kernel for SnipsKernel {
    const READS: Reads = READS_W;
    fn name(&self) -> &'static str {
        "SNIPS"
    }
    #[inline]
    fn step(&mut self, row: &Row) -> Step {
        Step::new(row.w, row.r, 0.0)
    }
    fn finalize(&self) -> Finalize {
        Finalize::Pairs(snips_term)
    }
}

/// Clipped IPS: weights are capped at `max_weight`, as in [`crate::ClippedIps`].
#[derive(Debug, Clone)]
pub struct ClippedKernel {
    max_weight: f64,
    clipped: usize,
}

impl ClippedKernel {
    /// # Panics
    /// Unless `max_weight > 0` and finite, like [`crate::ClippedIps::new`].
    pub(crate) fn new(max_weight: f64) -> Self {
        assert!(
            max_weight > 0.0 && max_weight.is_finite(),
            "max_weight must be positive, got {max_weight}"
        );
        Self {
            max_weight,
            clipped: 0,
        }
    }
}

impl Kernel for ClippedKernel {
    const READS: Reads = READS_W;
    fn name(&self) -> &'static str {
        "ClippedIPS"
    }
    #[inline]
    fn step(&mut self, row: &Row) -> Step {
        let raw = row.w;
        if raw > self.max_weight {
            self.clipped += 1;
        }
        let w = raw.min(self.max_weight);
        Step::new(w, w * row.r, 0.0)
    }
    fn health(&self, tally: &Tally<Self>, m: &mut Vec<(&'static str, f64)>) {
        m.push(("clip_rate", tally.clip_rate()));
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

impl Tally<ClippedKernel> {
    /// Fraction of records whose raw weight exceeded the cap.
    fn clip_rate(&self) -> f64 {
        self.kernel.clipped as f64 / self.n.max(1) as f64
    }
}

/// Doubly Robust (Eq. 2): the term is `dm + w·(r − r̂(c, d))`.
#[derive(Debug, Clone)]
pub struct DrKernel;

impl Kernel for DrKernel {
    const RESIDUALS: bool = true;
    const READS: Reads = READS_DR;
    const ADAPTIVE_NAME: &'static str = "AdaptiveDR";
    fn name(&self) -> &'static str {
        "DR"
    }
    #[inline]
    fn step(&mut self, row: &Row) -> Step {
        let residual = row.r - row.rhat;
        Step::new(row.w, row.dm + row.w * residual, residual)
    }
}

/// Adaptive weighting ([`crate::AdaptiveIps`], [`crate::AdaptiveDr`]): the
/// inner term `Γ` with a stabilizer `h` of past weights, `(h·Γ)·(n/Σh)`.
#[derive(Debug, Clone)]
pub struct AdaptiveKernel<K> {
    inner: K,
    mode: AdaptiveWeights,
    /// EMA of past squared weights — the stabilizer's variance tracker.
    ema: f64,
}

impl<K> AdaptiveKernel<K> {
    pub(crate) fn new(inner: K, mode: AdaptiveWeights) -> Self {
        Self {
            inner,
            mode,
            ema: 1.0,
        }
    }
}

impl<K: Kernel> Kernel for AdaptiveKernel<K> {
    const RESIDUALS: bool = K::RESIDUALS;
    const READS: Reads = K::READS;
    fn name(&self) -> &'static str {
        K::ADAPTIVE_NAME
    }
    #[inline]
    fn step(&mut self, row: &Row) -> Step {
        let s = self.inner.step(row);
        let h = self.mode.h_at(self.ema);
        self.ema = AdaptiveWeights::advance(self.ema, s.w);
        Step { h, ..s }
    }
    fn finalize(&self) -> Finalize {
        Finalize::Pairs(adaptive_term)
    }
    fn health(&self, tally: &Tally<Self>, m: &mut Vec<(&'static str, f64)>) {
        m.push(("hsum", tally.hsum));
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
#[derive(Debug, Clone)]
pub struct MdrKernel {
    /// The embedding's group count, a health key.
    pub(crate) groups: usize,
}

impl Kernel for MdrKernel {
    const RESIDUALS: bool = true;
    const READS: Reads = READS_DM | READS_RHAT | READS_MDR_W;
    fn name(&self) -> &'static str {
        "MarginalizedDR"
    }
    #[inline]
    fn step(&mut self, row: &Row) -> Step {
        let (w, residual) = (row.mdr_w, row.r - row.rhat);
        Step::new(w, row.dm + w * residual, residual)
    }
    fn health(&self, _tally: &Tally<Self>, m: &mut Vec<(&'static str, f64)>) {
        m.push(("embedding_groups", self.groups as f64));
    }
}

/// Per-decision sequential DR ([`crate::SeqDr`]): DR's `(dm, w, residual)`
/// per step, folded per trajectory of `horizon` steps.
#[derive(Debug, Clone)]
pub struct SeqDrKernel {
    horizon: usize,
}

impl SeqDrKernel {
    /// # Panics
    /// If `horizon == 0`.
    pub(crate) fn new(horizon: usize) -> Self {
        assert!(horizon > 0, "horizon must be positive");
        Self { horizon }
    }
}

impl Kernel for SeqDrKernel {
    const RESIDUALS: bool = true;
    const READS: Reads = READS_DR;
    fn name(&self) -> &'static str {
        "SeqDR"
    }
    #[inline]
    fn step(&mut self, row: &Row) -> Step {
        Step::new(row.w, row.dm, row.r - row.rhat)
    }
    fn finalize(&self) -> Finalize {
        Finalize::Trajectory(self.horizon)
    }
    fn health(&self, tally: &Tally<Self>, m: &mut Vec<(&'static str, f64)>) {
        m.push(("horizon", self.horizon as f64));
        m.push(("trajectories", tally.contributions() as f64));
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
        Ok(Fold::with(
            Scorer::new(space, policy, Some(model))?,
            DmKernel,
        ))
    }
}

impl OnlineIps {
    /// Streaming IPS of `policy` over `space`.
    pub fn new(space: DecisionSpace, policy: BoxPolicy) -> Result<Self> {
        Ok(Fold::with(Scorer::new(space, policy, None)?, IpsKernel))
    }
}

impl OnlineSnips {
    /// Streaming SNIPS of `policy` over `space`.
    pub fn new(space: DecisionSpace, policy: BoxPolicy) -> Result<Self> {
        Ok(Fold::with(Scorer::new(space, policy, None)?, SnipsKernel))
    }
}

impl OnlineClippedIps {
    /// Streaming clipped IPS of `policy` over `space`.
    ///
    /// # Panics
    /// Unless `max_weight > 0` and finite, like [`crate::ClippedIps::new`].
    pub fn new(space: DecisionSpace, policy: BoxPolicy, max_weight: f64) -> Result<Self> {
        let kernel = ClippedKernel::new(max_weight);
        Ok(Fold::with(Scorer::new(space, policy, None)?, kernel))
    }

    /// Fraction of records whose raw weight exceeded the cap.
    pub fn clip_rate(&self) -> f64 {
        self.tally.clip_rate()
    }
}

impl OnlineDr {
    /// Streaming DR of `policy` over `space` with a fitted `model`.
    pub fn new(space: DecisionSpace, policy: BoxPolicy, model: BoxModel) -> Result<Self> {
        Ok(Fold::with(
            Scorer::new(space, policy, Some(model))?,
            DrKernel,
        ))
    }
}

impl OnlineAdaptiveIps {
    /// Streaming adaptive IPS of `policy` over `space`.
    pub fn new(space: DecisionSpace, policy: BoxPolicy, mode: AdaptiveWeights) -> Result<Self> {
        let scorer = Scorer::new(space, policy, None)?;
        Ok(Fold::with(scorer, AdaptiveKernel::new(IpsKernel, mode)))
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
        let scorer = Scorer::new(space, policy, Some(model))?;
        Ok(Fold::with(scorer, AdaptiveKernel::new(DrKernel, mode)))
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
        let mut scorer = Scorer::new(space, policy, Some(model))?;
        check_policy_space(&scorer.space, logging.as_ref())?;
        check_embedding(&embedding, scorer.space.len());
        let kernel = MdrKernel {
            groups: embedding.num_groups(),
        };
        scorer.marginal = Some((logging, embedding));
        Ok(Fold::with(scorer, kernel))
    }
}

/// # Panics
/// If `embedding` does not cover exactly `arms` arms.
fn check_embedding(embedding: &ActionEmbedding, arms: usize) {
    let covered = embedding.len();
    assert!(
        covered == arms,
        "embedding covers {covered} arms but the space has {arms}"
    );
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
        let kernel = SeqDrKernel::new(horizon);
        Ok(Fold::with(Scorer::new(space, policy, Some(model))?, kernel))
    }

    /// Completed trajectories so far.
    pub fn trajectories(&self) -> usize {
        self.tally.contributions()
    }
}

// ---- the served bank ------------------------------------------------------

/// The weighting of a bank's adaptive members.
const BANK_ADAPTIVE: AdaptiveWeights = AdaptiveWeights::Stabilized;

/// The kernel a registry row names.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Kind {
    Ips,
    Snips,
    Clipped,
    Dm,
    Dr,
    Adaptive,
    AdaptiveDr,
    Mdr,
    SeqDr,
}

macro_rules! members {
    ($($variant:ident($kernel:ty),)*) => {
        /// One member of a [`Bank`]: a kernel's tally, dispatched
        /// statically.
        enum Member {
            $($variant(Tally<$kernel>),)*
        }
        $(impl From<Tally<$kernel>> for Member {
            fn from(tally: Tally<$kernel>) -> Self {
                Member::$variant(tally)
            }
        })*
    };
}

members! {
    Ips(IpsKernel),
    Snips(SnipsKernel),
    Clipped(ClippedKernel),
    Dm(DmKernel),
    Dr(DrKernel),
    Adaptive(AdaptiveKernel<IpsKernel>),
    AdaptiveDr(AdaptiveKernel<DrKernel>),
    Mdr(MdrKernel),
    SeqDr(SeqDrKernel),
}

/// Evaluates `$body` with `$t` bound to the member's tally, whatever its
/// kernel.
macro_rules! each {
    ($member:expr, $t:ident => $body:expr) => {
        match $member {
            Member::Ips($t) => $body,
            Member::Snips($t) => $body,
            Member::Clipped($t) => $body,
            Member::Dm($t) => $body,
            Member::Dr($t) => $body,
            Member::Adaptive($t) => $body,
            Member::AdaptiveDr($t) => $body,
            Member::Mdr($t) => $body,
            Member::SeqDr($t) => $body,
        }
    };
}

/// The scores a served bank prices records with. Its target policy gives
/// every context the same probabilities and its model is a constant, so
/// every row entry but `w` is one number per arm or per bank.
struct Tables {
    /// `μ_new(a)` per arm.
    target: Box<[f64]>,
    /// The model family's tables, when a member reads them: boxed, so a
    /// bank of IPS-family members stays small.
    model: Option<Box<ModelTables>>,
}

/// What the model family's rows read besides the weight and reward.
struct ModelTables {
    /// `Σ_d μ_new(d)·r̂`, in space order: every record's DM term.
    dm: f64,
    /// `r̂`, the constant model's value.
    rhat: f64,
    /// mdr's weight per arm; empty without an `mdr` member.
    mdr_w: Box<[f64]>,
}

impl Tables {
    /// The row of record `k`: one lookup and one division for `w`, the
    /// rest from the tables.
    #[inline]
    fn row(&self, rec: &TraceRecord, k: usize, reads: Reads) -> Result<Row> {
        let a = rec.decision.index();
        let mut row = self.of(0.0, rec.reward);
        if reads & READS_W != 0 {
            let p_old = rec.require_propensity(k)?;
            row.w = self.target[a] / p_old;
        }
        if let (true, Some(model)) = (reads & READS_MDR_W != 0, &self.model) {
            row.mdr_w = model.mdr_w[a];
        }
        Ok(row)
    }

    /// The row of weight `w` and reward `r`, without mdr's weight.
    fn of(&self, w: f64, r: f64) -> Row {
        let (dm, rhat) = self.model.as_ref().map_or((0.0, 0.0), |m| (m.dm, m.rhat));
        Row {
            w,
            r,
            dm,
            rhat,
            mdr_w: 0.0,
        }
    }
}

/// mdr's weight of each arm: the target's over the logging policy's mass
/// on the arm's embedding group.
fn mdr_weights(
    target: &[f64],
    logging: &[f64],
    embedding: &ActionEmbedding,
) -> Result<Vec<f64>, String> {
    let (trace, policy) = (target.len(), logging.len());
    if trace != policy {
        return Err(EstimatorError::SpaceMismatch { trace, policy }.to_string());
    }
    check_embedding(embedding, trace);
    let weight = |a| {
        let num = embedding.marginal(target, a);
        num / embedding.marginal(logging, a)
    };
    Ok((0..trace).map(weight).collect())
}

/// SNIPS's `(w, r)` pairs as a bank keeps them, losslessly: every
/// reward, the weights that are not `+0.0`, and one bit per record
/// marking those that are. Under a constant target every record of
/// another arm weighs exactly `+0.0`, so most records cost 8 bytes, not
/// 16. Records come in chunks of [`CHUNK`], each of which can be read on
/// its own.
struct Columns {
    r: Vec<f64>,
    /// The weights whose bits are not `+0.0`'s, in record order.
    w: Vec<f64>,
    /// Bit `k % 64` of word `k / 64`: record `k` weighs `+0.0`.
    zero: Vec<u64>,
    /// Per chunk: the EMA of the squared weights before its first record
    /// (where its stabilizers start, see [`stabilized`]) and the number
    /// of weights `w` holds before it.
    starts: Vec<(f64, usize)>,
    /// The EMA after the last record.
    ema: f64,
}

impl Columns {
    fn new() -> Self {
        Self {
            r: Vec::new(),
            w: Vec::new(),
            zero: Vec::new(),
            starts: Vec::new(),
            ema: 1.0,
        }
    }

    fn len(&self) -> usize {
        self.r.len()
    }

    fn push(&mut self, (w, r): (f64, f64)) {
        let k = self.r.len();
        if k.is_multiple_of(CHUNK) {
            self.starts.push((self.ema, self.w.len()));
        }
        self.ema = AdaptiveWeights::advance(self.ema, w);
        if k.is_multiple_of(64) {
            self.zero.push(0);
        }
        if w.to_bits() == 0 {
            self.zero[k / 64] |= 1 << (k % 64);
        } else {
            self.w.push(w);
        }
        self.r.push(r);
    }

    fn clear(&mut self) {
        self.r.clear();
        self.w.clear();
        self.zero.clear();
        self.starts.clear();
        self.ema = 1.0;
    }

    /// Chunk `c`: its weights, written to the front of `w`, its rewards
    /// and the EMA before it.
    fn chunk(&self, c: usize, w: &mut [f64; CHUNK]) -> (&[f64], f64) {
        let (ema, mut next) = self.starts[c];
        let r = &self.r[c * CHUNK..self.r.len().min((c + 1) * CHUNK)];
        w.fill(0.0);
        let words = &self.zero[c * CHUNK / 64..(c * CHUNK + r.len()).div_ceil(64)];
        for (j, &word) in words.iter().enumerate() {
            // The records of this word that keep a weight: its clear
            // bits, short of the end of the columns.
            let held = r.len() - j * 64;
            let mut kept = !word & if held < 64 { (1 << held) - 1 } else { u64::MAX };
            while kept != 0 {
                w[j * 64 + kept.trailing_zeros() as usize] = self.w[next];
                next += 1;
                kept &= kept - 1;
            }
        }
        (r, ema)
    }

    /// The `(w, r)` pairs, in record order.
    fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let mut w = self.w.iter().copied();
        self.r.iter().enumerate().map(move |(k, &r)| {
            let w = match self.zero[k / 64] >> (k % 64) & 1 {
                1 => 0.0,
                _ => w.next().expect("a weight for each record not marked zero"),
            };
            (w, r)
        })
    }
}

impl FromIterator<(f64, f64)> for Columns {
    fn from_iter<I: IntoIterator<Item = (f64, f64)>>(pairs: I) -> Self {
        let mut columns = Columns::new();
        pairs.into_iter().for_each(|pair| columns.push(pair));
        columns
    }
}

/// `(w, r, h)` per column: each record with its stabilizer `h_k =
/// h_at(ema_{k−1})`, where `ema_k = advance(ema_{k−1}, w_k)` from
/// `ema_0 = 1` — what each adaptive member computed at push.
fn stabilized(columns: &Columns) -> impl Iterator<Item = (f64, f64, f64)> + '_ {
    let mut ema = 1.0;
    columns.iter().map(move |(w, r)| {
        let h = BANK_ADAPTIVE.h_at(ema);
        ema = AdaptiveWeights::advance(ema, w);
        (w, r, h)
    })
}

/// Whether `pairs` holds exactly `want`, bit for bit.
fn same_pairs(pairs: &[(f64, f64)], mut want: impl Iterator<Item = (f64, f64)>) -> bool {
    let same = |(a, b): (f64, f64), (c, d): (f64, f64)| {
        a.to_bits() == c.to_bits() && b.to_bits() == d.to_bits()
    };
    pairs
        .iter()
        .all(|&p| want.next().is_some_and(|q| same(p, q)))
        && want.next().is_none()
}

/// Records per chunk of an estimate's pass over the columns.
const CHUNK: usize = 256;

/// The pair members' sums of terms over the columns.
struct PairSums {
    snips: f64,
    adaptive: f64,
    adaptive_dr: f64,
}

/// A served session's estimators: one [`Tally`] per requested registry
/// name, fed by one scorer that computes each record's [`Row`] once, from
/// tables taken at init, and only the entries some member reads.
///
/// With a `snips` member the bank keeps each record's `(w, r)` once, as
/// [`Columns`]: SNIPS's pairs and the only per-record storage, 8 bytes a
/// record plus 8 per weight that is not `+0.0`. The adaptive members'
/// `(h, Γ)` pairs are recomputed from them ([`stabilized`], and `Γ` as
/// the inner kernel's term of `(w, r)`), so they keep O(1) state; `Σw`
/// and `Σh` are running left folds. Without `snips` each pair member
/// keeps its own pairs, as a standalone fold does: a saved `(h, Γ)` pair
/// cannot be split back into `w` and `r`.
pub struct Bank {
    tables: Tables,
    /// The row entries some member reads.
    reads: Reads,
    members: Box<[Member]>,
    /// `(w, r)` per record, when a `snips` member is in the bank.
    columns: Option<Box<Columns>>,
}

impl Bank {
    /// The bank of the registry members `names` (in order; a name may
    /// repeat) over `space`: `target` is the target policy's probability
    /// of each arm, the same for every context, `model_value` the constant
    /// reward model's value, and `cfg` gives every other knob.
    ///
    /// # Panics
    /// If `model_value` is not finite (as `ConstantModel::new` does), or a
    /// knob is out of the range its standalone fold accepts.
    pub fn new(
        names: &[String],
        space: &DecisionSpace,
        target: Vec<f64>,
        model_value: f64,
        cfg: &dyn MenuConfig,
    ) -> Result<Bank, String> {
        let (trace, policy) = (space.len(), target.len());
        if trace != policy {
            return Err(EstimatorError::SpaceMismatch { trace, policy }.to_string());
        }
        let (mut members, mut mdr_w) = (Vec::with_capacity(names.len()), Box::default());
        for name in names {
            let row = menu::lookup(name).ok_or_else(|| {
                format!("unknown estimator {name:?} (expected {})", menu::names())
            })?;
            assert!(
                model_value.is_finite(),
                "constant model value must be finite"
            );
            let member: Member = match row.kind {
                Kind::Ips => Tally::new(IpsKernel).into(),
                Kind::Snips => Tally::new(SnipsKernel).into(),
                Kind::Clipped => Tally::new(ClippedKernel::new(cfg.max_weight())).into(),
                Kind::Dm => Tally::new(DmKernel).into(),
                Kind::Dr => Tally::new(DrKernel).into(),
                Kind::Adaptive => Tally::new(AdaptiveKernel::new(IpsKernel, BANK_ADAPTIVE)).into(),
                Kind::AdaptiveDr => Tally::new(AdaptiveKernel::new(DrKernel, BANK_ADAPTIVE)).into(),
                Kind::Mdr => {
                    let (logging, embedding) = (cfg.logging(space)?, cfg.embedding(space));
                    mdr_w = mdr_weights(&target, &logging, &embedding)?.into();
                    let groups = embedding.num_groups();
                    Tally::new(MdrKernel { groups }).into()
                }
                Kind::SeqDr => Tally::new(SeqDrKernel::new(cfg.horizon())).into(),
            };
            members.push(member);
        }
        let reads = members
            .iter()
            .fold(0, |reads, m| reads | each!(m, t => t.reads()));
        let model = (reads & (READS_DM | READS_RHAT) != 0).then(|| {
            let dm = target.iter().map(|p| p * model_value).sum();
            let rhat = model_value;
            Box::new(ModelTables { dm, rhat, mdr_w })
        });
        let snips = members.iter().any(|m| matches!(m, Member::Snips(_)));
        Ok(Bank {
            tables: Tables {
                target: target.into(),
                model,
            },
            reads,
            members: members.into(),
            columns: snips.then(|| Box::new(Columns::new())),
        })
    }

    /// Whether some member reads the records' propensities.
    pub fn needs_propensity(&self) -> bool {
        self.reads & READS_W != 0
    }

    /// Records in the bank: pushed since the last replay, or loaded.
    fn len(&self) -> usize {
        let first = self.members.first();
        first.map_or(0, |m| each!(m, t => t.n))
    }

    /// The members' estimator names ("IPS", "SNIPS", …), in order.
    pub fn kernel_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.members.iter().map(|m| each!(m, t => t.kernel.name()))
    }

    /// Folds one record into every member. When a member reads the
    /// weight and the record has no propensity, the push fails with the
    /// batch path's `MissingPropensity` and changes nothing.
    pub fn push(&mut self, rec: &TraceRecord) -> Result<()> {
        let row = self.tables.row(rec, self.len(), self.reads)?;
        let keep_pairs = match &mut self.columns {
            Some(columns) => {
                columns.push((row.w, row.r));
                false
            }
            None => true,
        };
        for m in &mut self.members {
            each!(m, t => t.push(&row, keep_pairs));
        }
        Ok(())
    }

    /// Clears every member's records and statistics, then pushes
    /// `records` through the bank once, as a windowed estimate does;
    /// stops at the first failing push.
    pub fn replay<'a>(&mut self, records: impl IntoIterator<Item = &'a TraceRecord>) -> Result<()> {
        for m in &mut self.members {
            each!(m, t => t.reset());
        }
        if let Some(columns) = &mut self.columns {
            columns.clear();
        }
        records.into_iter().try_for_each(|rec| self.push(rec))
    }

    /// Every member's estimate, in order. The members whose pairs the
    /// columns hold are estimated in one pass over them.
    pub fn estimates(&self) -> Vec<Result<OnlineEstimate>> {
        let sums = self.columns.as_ref().map(|c| self.pair_sums(c));
        let estimate = |m: &Member| match (m, &sums) {
            (Member::Snips(t), Some(s)) => t.pairs_estimate(|_, _| s.snips),
            (Member::Adaptive(t), Some(s)) => t.pairs_estimate(|_, _| s.adaptive),
            (Member::AdaptiveDr(t), Some(s)) => t.pairs_estimate(|_, _| s.adaptive_dr),
            (m, _) => each!(m, t => t.estimate()),
        };
        self.members.iter().map(estimate).collect()
    }

    /// The sums of each pair kind's terms `term(n, Σh, h, t)` over the
    /// columns, in one pass that computes `h` once per record for both
    /// adaptive kinds. A kind with no member, or whose `Σh` is not
    /// positive (its estimate is then an error), is skipped; members of
    /// one kind hold the same `Σh`.
    fn pair_sums(&self, columns: &Columns) -> PairSums {
        let (mut wsum, mut hsum_ips, mut hsum_dr) = (None, None, None);
        for m in &self.members {
            let (kind, hsum) = match m {
                Member::Snips(t) => (&mut wsum, t.hsum),
                Member::Adaptive(t) => (&mut hsum_ips, t.hsum),
                Member::AdaptiveDr(t) => (&mut hsum_dr, t.hsum),
                _ => continue,
            };
            *kind = Some(hsum).filter(|&s| s > 0.0 || s.is_nan());
        }
        let n = columns.len() as f64;
        let mut sums = PairSums {
            snips: -0.0,
            adaptive: -0.0,
            adaptive_dr: -0.0,
        };
        // Two chunks at a time: first their stabilizers, each chunk's
        // EMA recurrence from its start, the two side by side; then each
        // chunk's sums, in record order. The recurrence is the pass's
        // serial path, and in a loop of its own no sum's addition is
        // packed into one vector instruction with it.
        let chunks = columns.starts.len();
        let (mut wa, mut wb, mut hs) = ([0.0; CHUNK], [0.0; CHUNK], [[0.0; 2]; CHUNK]);
        for c in (0..chunks).step_by(2) {
            let (ra, ema_a) = columns.chunk(c, &mut wa);
            let (rb, ema_b) = match c + 1 < chunks {
                true => columns.chunk(c + 1, &mut wb),
                false => (&[][..], 1.0),
            };
            let mut ema = [ema_a, ema_b];
            for ((h, &a), &b) in hs.iter_mut().zip(&wa).zip(&wb) {
                *h = ema.map(|ema| BANK_ADAPTIVE.h_at(ema));
                ema = [
                    AdaptiveWeights::advance(ema[0], a),
                    AdaptiveWeights::advance(ema[1], b),
                ];
            }
            for (lane, (ws, rs)) in [(&wa, ra), (&wb, rb)].into_iter().enumerate() {
                for ((&w, &r), h) in ws.iter().zip(rs).zip(&hs) {
                    let (h, row) = (h[lane], self.tables.of(w, r));
                    if let Some(wsum) = wsum {
                        sums.snips += snips_term(n, wsum, w, r);
                    }
                    if let Some(hsum) = hsum_ips {
                        sums.adaptive += adaptive_term(n, hsum, h, IpsKernel.step(&row).t);
                    }
                    if let Some(hsum) = hsum_dr {
                        sums.adaptive_dr += adaptive_term(n, hsum, h, DrKernel.step(&row).t);
                    }
                }
            }
        }
        sums
    }

    /// Every member's health metrics, in order.
    pub fn health(&self) -> impl Iterator<Item = Vec<(&'static str, f64)>> + '_ {
        self.members.iter().map(|m| each!(m, t => t.health()))
    }

    /// Every member's state, in order, as its standalone fold saves it:
    /// column members render their pairs from the columns.
    pub fn state_save(&self) -> Vec<Json> {
        let save = |m: &Member| match (m, &self.columns) {
            (Member::Snips(t), Some(c)) => t.save(c.iter()),
            (Member::Adaptive(t), Some(c)) => t.save(self.adaptive_pairs(c, IpsKernel)),
            (Member::AdaptiveDr(t), Some(c)) => t.save(self.adaptive_pairs(c, DrKernel)),
            (m, _) => each!(m, t => t.save(t.pairs.iter().copied())),
        };
        self.members.iter().map(save).collect()
    }

    /// An adaptive member's `(h, Γ)` pairs recomputed from the columns,
    /// `Γ` being `inner`'s term.
    fn adaptive_pairs<'a, K: Kernel + 'a>(
        &'a self,
        columns: &'a Columns,
        mut inner: K,
    ) -> impl Iterator<Item = (f64, f64)> + 'a {
        stabilized(columns).map(move |(w, r, h)| (h, inner.step(&self.tables.of(w, r)).t))
    }

    /// Loads one state per member, as [`Bank::state_save`] wrote them.
    /// With columns, they come from the first `snips` member's pairs, and
    /// every member sharing them must hold what they imply, bit for bit:
    /// each `snips` the same pairs, each adaptive member the recomputed
    /// pairs (so as many) and the EMA they end at. Atomic: on any error
    /// the bank is unchanged.
    pub fn state_load(&mut self, states: &[Json]) -> Result<(), String> {
        if states.len() != self.members.len() {
            return Err(format!(
                "{} states for a bank of {}",
                states.len(),
                self.members.len()
            ));
        }
        let mut members = Vec::with_capacity(states.len());
        for (m, st) in self.members.iter().zip(states) {
            let loaded: Result<Member> = each!(m, t => t.loaded(st).map(Member::from));
            members.push(loaded.map_err(|e| format!("{}: {e}", each!(m, t => t.kernel.name())))?);
        }
        let columns = match self.columns {
            Some(_) => Some(Box::new(self.columns_of(&mut members)?)),
            None => None,
        };
        (self.members, self.columns) = (members.into(), columns);
        Ok(())
    }

    /// The columns of loaded `members`, checked against every member that
    /// shares them, whose own pairs are then dropped.
    fn columns_of(&self, members: &mut [Member]) -> Result<Columns, String> {
        let snips = members.iter().find_map(|m| match m {
            Member::Snips(t) => Some(t.pairs.iter().copied().collect()),
            _ => None,
        });
        let columns: Columns = snips.unwrap_or_else(Columns::new);
        let ema = columns
            .iter()
            .fold(1.0, |ema, (w, _)| AdaptiveWeights::advance(ema, w));
        let same_ema = |got: f64| got.to_bits() == ema.to_bits();
        for m in members.iter_mut() {
            let agrees = match m {
                Member::Snips(t) => same_pairs(&t.pairs, columns.iter()),
                Member::Adaptive(t) => {
                    let want = self.adaptive_pairs(&columns, IpsKernel);
                    same_pairs(&t.pairs, want) && same_ema(t.kernel.ema)
                }
                Member::AdaptiveDr(t) => {
                    let want = self.adaptive_pairs(&columns, DrKernel);
                    same_pairs(&t.pairs, want) && same_ema(t.kernel.ema)
                }
                _ => continue,
            };
            if !agrees {
                let name = each!(m, t => t.kernel.name());
                return Err(format!("{name}: state disagrees with the SNIPS pairs"));
            }
            each!(m, t => t.pairs = Vec::new());
        }
        Ok(columns)
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
/// type: it keeps one ring per session and replays it through its
/// [`Bank`] once, the same way.
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

    #[test]
    fn columns_keep_every_pair_bit_for_bit() {
        // Only `+0.0` weights go unstored; `-0.0`, NaN and the rest keep
        // their bits, across the bitmap's word and chunk boundaries.
        let weights = [0.0, -0.0, 2.5, f64::NAN, 0.0, f64::MIN_POSITIVE];
        let pairs: Vec<(f64, f64)> = (0..2 * CHUNK + 100)
            .map(|k| (weights[k % weights.len()], k as f64 - 99.5))
            .collect();
        let columns: Columns = pairs.iter().copied().collect();
        assert_eq!(columns.len(), pairs.len());
        assert_eq!(
            columns.w.len(),
            pairs.iter().filter(|p| p.0.to_bits() != 0).count()
        );
        let bits = |(w, r): (f64, f64)| (w.to_bits(), r.to_bits());
        let want: Vec<_> = pairs.into_iter().map(bits).collect();
        let back: Vec<_> = columns.iter().map(bits).collect();
        assert_eq!(back, want);
        // Each chunk reads the same from its own start.
        let (mut w, mut chunked) = ([f64::NAN; CHUNK], Vec::new());
        for c in 0..columns.starts.len() {
            let (r, _) = columns.chunk(c, &mut w);
            chunked.extend(w.iter().zip(r).map(|(&w, &r)| bits((w, r))));
        }
        assert_eq!(chunked, want);
    }
}
