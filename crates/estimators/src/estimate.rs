//! The [`Estimator`] trait, its output type [`Estimate`], and shared
//! importance-weight diagnostics.

use ddn_policy::Policy;
use ddn_trace::{Trace, TraceError};
use std::fmt;

/// Errors produced by estimators.
#[derive(Debug)]
pub enum EstimatorError {
    /// A record needed a logging propensity (`μ_old(d_k|c_k)`) but the
    /// trace doesn't carry one. Attach propensities when generating the
    /// trace, or estimate them with
    /// `ddn_trace::coverage::EmpiricalPropensity`.
    Trace(TraceError),
    /// The policy's decision space does not match the trace's.
    SpaceMismatch {
        /// Decision count in the trace.
        trace: usize,
        /// Decision count in the policy.
        policy: usize,
    },
    /// The estimator used zero records (e.g. replay rejected everything, or
    /// state matching filtered the whole trace) — no estimate exists.
    NoUsableRecords,
    /// A serialized estimator state (from `state_save`) failed to load:
    /// wrong shape, wrong estimator, or corrupt field. Loading never
    /// partially applies — on error the estimator keeps its prior state.
    State(String),
}

impl fmt::Display for EstimatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EstimatorError::Trace(e) => write!(f, "trace error: {e}"),
            EstimatorError::SpaceMismatch { trace, policy } => write!(
                f,
                "decision-space mismatch: trace has {trace} decisions, policy has {policy}"
            ),
            EstimatorError::NoUsableRecords => {
                write!(f, "no usable records — estimator cannot produce a value")
            }
            EstimatorError::State(msg) => write!(f, "invalid estimator state: {msg}"),
        }
    }
}

impl std::error::Error for EstimatorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EstimatorError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TraceError> for EstimatorError {
    fn from(e: TraceError) -> Self {
        EstimatorError::Trace(e)
    }
}

/// Importance-weight diagnostics — the variance early-warning system.
///
/// Large `max_weight` / small `effective_sample_size` is exactly the §2.2.2
/// pathology: "the estimate can be based only on a small amount of
/// matches… this can cause high variance in the evaluation results".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightDiagnostics {
    /// Number of records contributing a weight (for DM this is all of
    /// them with weight 1).
    pub n: usize,
    /// Mean importance weight. For a correctly specified IPS this
    /// converges to 1.
    pub mean_weight: f64,
    /// Largest weight.
    pub max_weight: f64,
    /// Kish effective sample size `(Σw)² / Σw²`.
    pub effective_sample_size: f64,
    /// Fraction of records with weight exactly zero (decision disagrees
    /// with a deterministic new policy) — the "no match" mass.
    pub zero_weight_fraction: f64,
}

impl WeightDiagnostics {
    /// Computes diagnostics from a weight vector.
    ///
    /// # Panics
    /// Panics if `weights` is empty.
    pub fn from_weights(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "weight diagnostics of empty weights");
        let n = weights.len();
        let sum: f64 = weights.iter().sum();
        let sum_sq: f64 = weights.iter().map(|w| w * w).sum();
        let zeros = weights.iter().filter(|&&w| w == 0.0).count();
        Self {
            n,
            mean_weight: sum / n as f64,
            max_weight: weights.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            effective_sample_size: if sum_sq > 0.0 {
                sum * sum / sum_sq
            } else {
                0.0
            },
            zero_weight_fraction: zeros as f64 / n as f64,
        }
    }

    /// Diagnostics for an estimator that weights every record equally.
    pub fn uniform(n: usize) -> Self {
        Self {
            n,
            mean_weight: 1.0,
            max_weight: 1.0,
            effective_sample_size: n as f64,
            zero_weight_fraction: 0.0,
        }
    }
}

/// The output of an estimator: the value estimate plus per-record
/// contributions (for bootstrap CIs) and weight diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// The estimated expected reward `V̂(μ_new)`.
    pub value: f64,
    /// Per-record contributions; their mean equals `value` for averaging
    /// estimators. Feed these to `ddn_stats::bootstrap_ci` for intervals.
    pub per_record: Vec<f64>,
    /// Importance-weight diagnostics.
    pub diagnostics: WeightDiagnostics,
}

impl Estimate {
    /// Builds an estimate whose value is the mean of `per_record`.
    pub fn from_contributions(per_record: Vec<f64>, diagnostics: WeightDiagnostics) -> Self {
        assert!(
            !per_record.is_empty(),
            "estimate needs at least one contribution"
        );
        let value = per_record.iter().sum::<f64>() / per_record.len() as f64;
        Self {
            value,
            per_record,
            diagnostics,
        }
    }
}

/// A policy evaluator: estimates the value of a (stationary) new policy
/// from a logged trace. The paper's DM, IPS, and DR all implement this.
pub trait Estimator {
    /// Short human-readable name ("DM", "IPS", "DR", …) used in reports.
    fn name(&self) -> &str;

    /// Estimates `V(new_policy)` from `trace`.
    fn estimate(&self, trace: &Trace, new_policy: &dyn Policy) -> Result<Estimate, EstimatorError>;
}

impl<E: Estimator + ?Sized> Estimator for Box<E> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn estimate(&self, trace: &Trace, new_policy: &dyn Policy) -> Result<Estimate, EstimatorError> {
        (**self).estimate(trace, new_policy)
    }
}

/// Emits an estimator's weight diagnostics (plus estimator-specific
/// `extras` such as clip rate or residual magnitude) as telemetry health
/// metrics. No-op — including the metric assembly — when no telemetry
/// collector is installed, so un-instrumented callers pay one
/// thread-local check.
pub(crate) fn emit_weight_health(
    source: &str,
    diagnostics: &WeightDiagnostics,
    extras: &[(&'static str, f64)],
) {
    if !ddn_telemetry::enabled() {
        return;
    }
    let mut metrics: Vec<(&'static str, f64)> = vec![
        ("n", diagnostics.n as f64),
        ("ess", diagnostics.effective_sample_size),
        ("max_weight", diagnostics.max_weight),
        ("mean_weight", diagnostics.mean_weight),
        ("zero_weight_fraction", diagnostics.zero_weight_fraction),
    ];
    metrics.extend_from_slice(extras);
    ddn_telemetry::record_health(source, &metrics);
}

/// Validates that the policy and trace agree on the decision space size.
/// All estimators call this first.
pub(crate) fn check_space(trace: &Trace, policy: &dyn Policy) -> Result<(), EstimatorError> {
    if trace.space().len() != policy.space().len() {
        return Err(EstimatorError::SpaceMismatch {
            trace: trace.space().len(),
            policy: policy.space().len(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_diagnostics_uniform_weights() {
        let d = WeightDiagnostics::from_weights(&[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(d.n, 4);
        assert_eq!(d.mean_weight, 1.0);
        assert_eq!(d.max_weight, 1.0);
        assert_eq!(d.effective_sample_size, 4.0);
        assert_eq!(d.zero_weight_fraction, 0.0);
    }

    #[test]
    fn weight_diagnostics_skewed_weights() {
        // One dominant weight: ESS collapses toward 1.
        let d = WeightDiagnostics::from_weights(&[100.0, 0.0, 0.0, 0.0]);
        assert!((d.effective_sample_size - 1.0).abs() < 1e-12);
        assert_eq!(d.max_weight, 100.0);
        assert_eq!(d.zero_weight_fraction, 0.75);
    }

    #[test]
    fn estimate_from_contributions_averages() {
        let e = Estimate::from_contributions(vec![1.0, 2.0, 3.0], WeightDiagnostics::uniform(3));
        assert!((e.value - 2.0).abs() < 1e-12);
    }

    #[test]
    fn error_display() {
        let e = EstimatorError::SpaceMismatch {
            trace: 4,
            policy: 2,
        };
        assert!(e.to_string().contains('4') && e.to_string().contains('2'));
        assert!(EstimatorError::NoUsableRecords
            .to_string()
            .contains("no usable"));
    }
}
