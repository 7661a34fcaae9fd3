//! Estimator-health suite — a synthetic scenario whose purpose is the
//! *telemetry*, not the headline numbers.
//!
//! The paper's §4 recommendations (randomize a little, check coverage,
//! watch for coupling) only work if the pipeline can *see* the relevant
//! diagnostics: effective sample size, clip rates, replay acceptance,
//! match coverage, regime counts. This module runs every estimator in the
//! crate over one deliberately stressed world — skewed logging (weight 4
//! on the target decision), a mid-trace load shift, state-tagged halves —
//! so a single run exercises every health metric the observability layer
//! defines. The CLI's `selftest` subcommand and `reproduce.sh ci` both
//! lean on it as the telemetry smoke test.
//!
//! The world is analytically simple: contexts carry one binary feature
//! `g`, rewards are `2 + g + 3·d` exactly, and the evaluated policy always
//! plays `d = 1`, so the true value is `2 + E[g] + 3 = 5.5`.

use ddn_estimators::state_aware::MatchOnly;
use ddn_estimators::{
    ActionEmbedding, AdaptiveDr, AdaptiveIps, AdaptiveWeights, BatchEstimator, ClippedIps,
    CouplingDetector, CrossFitDr, DirectMethod, DoublyRobust, ErrorTable, Estimator, EvalBatch,
    ExperimentRunner, Ips, MarginalizedDr, MatchingEstimator, OnlineAdaptiveDr, OnlineAdaptiveIps,
    OnlineClippedIps, OnlineDm, OnlineDr, OnlineEstimator, OnlineIps, OnlineMarginalizedDr,
    OnlineSeqDr, OnlineSnips, ReplayEvaluator, SelfNormalizedIps, SeqDr, StateAwareDr, SwitchDr,
};
use ddn_models::TabularMeanModel;
use ddn_policy::{EpsilonSmoothedPolicy, LookupPolicy, Policy, StationaryAsHistory};
use ddn_stats::rng::{Rng, Xoshiro256};
use ddn_telemetry::TelemetrySnapshot;
use ddn_trace::{Context, ContextSchema, StateTag, Trace, TraceRecord};

/// True value of the always-`d1` policy in the suite's world.
pub const HEALTH_TRUTH: f64 = 5.5;

/// Horizon SeqDR groups the suite's records under. The default record
/// count (and every config the tests use) is a multiple, so the trace
/// splits into whole trajectories; the suite reports SeqDR's estimate
/// per step (÷ horizon) so its row shares [`HEALTH_TRUTH`].
pub const HEALTH_SEQ_HORIZON: usize = 4;

/// Configuration knobs for the health suite.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Records per logged trace. The proxy's load shift sits at the
    /// midpoint; keep this ≥ 2 × the detector's 20-record minimum segment.
    pub records: usize,
    /// Number of seeded runs.
    pub runs: usize,
    /// Base seed.
    pub base_seed: u64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            records: 240,
            runs: 16,
            base_seed: 90_001,
        }
    }
}

fn schema() -> ContextSchema {
    ContextSchema::builder().categorical("g", 2).build()
}

fn space() -> ddn_trace::DecisionSpace {
    ddn_trace::DecisionSpace::of(&["d0", "d1"])
}

/// Logging policy: ε-smoothed "always d0" with ε = 0.5, so the target
/// decision `d1` is logged with propensity 0.25 — weight 4 under the
/// evaluated policy, enough to trip a clip threshold of 2.
fn logger() -> EpsilonSmoothedPolicy {
    EpsilonSmoothedPolicy::new(Box::new(LookupPolicy::constant(space(), 0)), 0.5)
}

/// Logs one stressed trace: skewed propensities, state tags split at the
/// midpoint (low load first, high load after — the same instant the proxy
/// series shifts).
fn log_trace(cfg: &HealthConfig, rng: &mut Xoshiro256) -> Trace {
    let s = schema();
    let logging = logger();
    let recs = (0..cfg.records)
        .map(|i| {
            let g = rng.index(2) as u32;
            let c = Context::build(&s).set_cat("g", g).finish();
            let (d, p) = logging.sample_with_prob(&c, rng);
            let reward = 2.0 + g as f64 + 3.0 * d.index() as f64;
            TraceRecord::new(c, d, reward)
                .with_propensity(p)
                .with_state(if i < cfg.records / 2 {
                    StateTag::LOW_LOAD
                } else {
                    StateTag::HIGH_LOAD
                })
        })
        .collect();
    Trace::from_records(s, space(), recs).expect("suite trace is well-formed")
}

/// Per-seed work: run the full estimator menu over one stressed trace.
fn run_seed(cfg: &HealthConfig, seed: u64) -> (f64, Vec<(String, f64)>) {
    let mut rng = Xoshiro256::seed_from(seed);
    let trace = {
        let _span = ddn_telemetry::span("log");
        log_trace(cfg, &mut rng)
    };
    let target = LookupPolicy::constant(space(), 1);

    let _span = ddn_telemetry::span("estimate");
    let model = TabularMeanModel::fit_trace(&trace, 1.0);
    let fit = |tr: &Trace| TabularMeanModel::fit_trace(tr, 1.0);

    let mut rows: Vec<(String, f64)> = Vec::new();
    let mut push = |name: &str, value: f64| rows.push((name.to_string(), value));

    // Score every record once under the target policy (probabilities,
    // weights, model predictions) and let the stationary estimators read
    // the same columnar batch.
    let batch = EvalBatch::with_model(&trace, &target, &model)
        .expect("target shares the trace's decision space");
    push(
        "DM",
        DirectMethod::new(&model)
            .estimate_batch(&trace, &batch)
            .expect("DM always estimates")
            .value,
    );
    push(
        "IPS",
        Ips::new()
            .estimate_batch(&trace, &batch)
            .expect("IPS")
            .value,
    );
    push(
        "SNIPS",
        SelfNormalizedIps::new()
            .estimate_batch(&trace, &batch)
            .expect("SNIPS")
            .value,
    );
    push(
        "ClippedIPS",
        ClippedIps::new(2.0)
            .estimate_batch(&trace, &batch)
            .expect("ClippedIPS")
            .value,
    );
    push(
        "DR",
        DoublyRobust::new(&model)
            .estimate_batch(&trace, &batch)
            .expect("DR")
            .value,
    );
    push(
        "SwitchDR",
        SwitchDr::new(&model, 2.0)
            .estimate_batch(&trace, &batch)
            .expect("SwitchDR")
            .value,
    );
    push(
        "CrossFitDR",
        CrossFitDr::new(3, fit)
            .estimate_batch(&trace, &batch)
            .expect("CrossFitDR")
            .value,
    );
    push(
        "CFA",
        MatchingEstimator::new()
            .estimate_batch(&trace, &batch)
            .expect("ε-smoothed logging always yields matches at this scale")
            .value,
    );
    push(
        "StateAwareDR",
        StateAwareDr::new(&model, MatchOnly, StateTag::HIGH_LOAD)
            .estimate_batch(&trace, &batch)
            .expect("StateAwareDR")
            .value,
    );
    push(
        "AdaptiveIPS",
        AdaptiveIps::new(AdaptiveWeights::Stabilized)
            .estimate_batch(&trace, &batch)
            .expect("AdaptiveIPS")
            .value,
    );
    push(
        "AdaptiveDR",
        AdaptiveDr::new(&model, AdaptiveWeights::Stabilized)
            .estimate_batch(&trace, &batch)
            .expect("AdaptiveDR")
            .value,
    );
    push(
        "MarginalizedDR",
        MarginalizedDr::new(&model, ActionEmbedding::identity(2), Box::new(logger()))
            .estimate_batch(&trace, &batch)
            .expect("MarginalizedDR")
            .value,
    );
    push(
        "SeqDR",
        SeqDr::new(&model, HEALTH_SEQ_HORIZON)
            .estimate_batch(&trace, &batch)
            .expect("SeqDR")
            .value
            / HEALTH_SEQ_HORIZON as f64,
    );

    // Replay reads the *logging* policy's probability rows (it
    // reweights by the old policy), so it gets its own batch; the
    // model scores are shared because predictions depend only on
    // (context, decision), not on which policy scored the batch.
    let logger_batch = EvalBatch::with_model(&trace, &logger(), &model)
        .expect("logger shares the trace's decision space");
    let mut history = StationaryAsHistory::new(LookupPolicy::constant(space(), 1));
    let mut replay_rng = rng.fork();
    let replay = ReplayEvaluator::new(&model)
        .evaluate_batch(&trace, &logger_batch, &mut history, &mut replay_rng)
        .expect("skewed logging still accepts ~1/4 of tuples");
    push("Replay", replay.estimate.value);

    // The proxy load shifts with the state tags: the detector should see
    // exactly two regimes and report them as health telemetry.
    let proxy: Vec<f64> = (0..trace.len())
        .map(|i| if i < trace.len() / 2 { 1.0 } else { 3.0 })
        .collect();
    CouplingDetector::new(20).analyze(&trace, &proxy);

    (HEALTH_TRUTH, rows)
}

/// Cross-checks the streaming layer against the suite's batch menu: every
/// seeded stressed trace is replayed record-by-record through the online
/// estimators (as the ddn-serve ingest path would), and each resulting
/// estimate must be **bit-identical** to its batch twin over the same
/// trace. Returns the first discrepancy as an error message; `Ok(())`
/// means the online and offline engines cannot drift apart on the worlds
/// this suite monitors.
pub fn online_offline_cross_check(cfg: &HealthConfig) -> Result<(), String> {
    for run in 0..cfg.runs {
        let seed = cfg.base_seed + run as u64;
        let mut rng = Xoshiro256::seed_from(seed);
        let trace = log_trace(cfg, &mut rng);
        let target = LookupPolicy::constant(space(), 1);
        let model = TabularMeanModel::fit_trace(&trace, 1.0);

        let newp =
            || -> Box<dyn Policy + Send + Sync> { Box::new(LookupPolicy::constant(space(), 1)) };
        let offline = |est: &dyn Estimator| -> Result<f64, String> {
            Ok(est
                .estimate(&trace, &target)
                .map_err(|e| format!("seed {seed}: batch {} failed: {e:?}", est.name()))?
                .value)
        };
        let mut menu: Vec<(Box<dyn OnlineEstimator>, f64)> = vec![
            (
                Box::new(OnlineIps::new(space(), newp()).expect("spaces match")),
                offline(&Ips::new())?,
            ),
            (
                Box::new(OnlineSnips::new(space(), newp()).expect("spaces match")),
                offline(&SelfNormalizedIps::new())?,
            ),
            (
                Box::new(OnlineClippedIps::new(space(), newp(), 2.0).expect("spaces match")),
                offline(&ClippedIps::new(2.0))?,
            ),
            (
                Box::new(
                    OnlineDm::new(space(), newp(), Box::new(model.clone())).expect("spaces match"),
                ),
                offline(&DirectMethod::new(&model))?,
            ),
            (
                Box::new(
                    OnlineDr::new(space(), newp(), Box::new(model.clone())).expect("spaces match"),
                ),
                offline(&DoublyRobust::new(&model))?,
            ),
            (
                Box::new(
                    OnlineAdaptiveIps::new(space(), newp(), AdaptiveWeights::Stabilized)
                        .expect("spaces match"),
                ),
                offline(&AdaptiveIps::new(AdaptiveWeights::Stabilized))?,
            ),
            (
                Box::new(
                    OnlineAdaptiveDr::new(
                        space(),
                        newp(),
                        Box::new(model.clone()),
                        AdaptiveWeights::Stabilized,
                    )
                    .expect("spaces match"),
                ),
                offline(&AdaptiveDr::new(&model, AdaptiveWeights::Stabilized))?,
            ),
            (
                Box::new(
                    OnlineMarginalizedDr::new(
                        space(),
                        newp(),
                        Box::new(logger()),
                        Box::new(model.clone()),
                        ActionEmbedding::identity(2),
                    )
                    .expect("spaces match"),
                ),
                offline(&MarginalizedDr::new(
                    &model,
                    ActionEmbedding::identity(2),
                    Box::new(logger()),
                ))?,
            ),
            (
                Box::new(
                    OnlineSeqDr::new(space(), newp(), Box::new(model.clone()), HEALTH_SEQ_HORIZON)
                        .expect("spaces match"),
                ),
                offline(&SeqDr::new(&model, HEALTH_SEQ_HORIZON))?,
            ),
        ];
        for (online, batch_value) in &mut menu {
            let name = online.name().to_string();
            for rec in trace.records() {
                online
                    .push(rec)
                    .map_err(|e| format!("seed {seed}: online {name} push failed: {e:?}"))?;
            }
            let got = online
                .estimate()
                .map_err(|e| format!("seed {seed}: online {name} estimate failed: {e:?}"))?
                .value;
            if got.to_bits() != batch_value.to_bits() {
                return Err(format!(
                    "seed {seed}: {name} online {got} != batch {batch_value}"
                ));
            }
        }
    }
    Ok(())
}

/// Runs the health suite with custom configuration, returning the error
/// table and the telemetry snapshot that is the suite's real output.
pub fn health_suite_with(cfg: &HealthConfig) -> (ErrorTable, TelemetrySnapshot) {
    ExperimentRunner::new(cfg.runs, cfg.base_seed)
        .run_parallel_instrumented(ExperimentRunner::default_threads(), |seed| {
            run_seed(cfg, seed)
        })
}

/// Runs the health suite with default configuration.
pub fn health_suite() -> (ErrorTable, TelemetrySnapshot) {
    health_suite_with(&HealthConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_emits_every_signature_health_metric() {
        let cfg = HealthConfig {
            runs: 3,
            ..Default::default()
        };
        let (table, snap) = health_suite_with(&cfg);
        assert_eq!(snap.runs(), 3);
        // Every estimator family's signature diagnostic is present.
        for (source, metric) in [
            ("DM", "ess"),
            ("IPS", "ess"),
            ("SNIPS", "ess"),
            ("ClippedIPS", "clip_rate"),
            ("DR", "mean_abs_residual"),
            ("SwitchDR", "clip_rate"),
            ("CrossFitDR", "folds"),
            ("CFA", "coverage"),
            ("StateAwareDR", "coverage"),
            ("AdaptiveIPS", "hsum"),
            ("AdaptiveDR", "hsum"),
            ("MarginalizedDR", "embedding_groups"),
            ("SeqDR", "trajectories"),
            ("Replay", "acceptance_rate"),
            ("CouplingDetector", "segments"),
        ] {
            let agg = snap
                .health_metric(source, metric)
                .unwrap_or_else(|| panic!("{source}/{metric} missing"));
            assert_eq!(agg.count, 3, "{source}/{metric}");
        }
        // The stress dials actually bit.
        let clip = snap.health_metric("ClippedIPS", "clip_rate").unwrap();
        assert!(
            clip.mean() > 0.1,
            "weight-4 records must clip: {}",
            clip.mean()
        );
        let acc = snap.health_metric("Replay", "acceptance_rate").unwrap();
        assert!(
            (0.1..0.5).contains(&acc.mean()),
            "deterministic d1 over 0.25-propensity logging accepts ~1/4, got {}",
            acc.mean()
        );
        let segs = snap.health_metric("CouplingDetector", "segments").unwrap();
        assert_eq!(segs.mean(), 2.0, "the load shift must split the proxy");
        // The menu reads its scores from the two batches; only
        // CrossFitDR, refitting its model per fold, rescores a record.
        assert!(snap.counter("batch.hit").unwrap_or(0) > 0);
        assert_eq!(snap.counter("batch.miss"), Some(3 * cfg.records as u64));
        // And the world is calibrated: the unbiased estimators land near
        // the analytic truth.
        assert!(table.get("DR").unwrap().mean < 0.15);
        assert!(table.get("IPS").unwrap().mean < 0.3);
    }

    #[test]
    fn online_replay_matches_the_batch_menu_bit_for_bit() {
        online_offline_cross_check(&HealthConfig {
            runs: 3,
            ..Default::default()
        })
        .unwrap();
    }

    #[test]
    fn suite_rows_cover_the_full_menu() {
        let cfg = HealthConfig {
            runs: 2,
            ..Default::default()
        };
        let (table, _snap) = health_suite_with(&cfg);
        for name in [
            "DM",
            "IPS",
            "SNIPS",
            "ClippedIPS",
            "DR",
            "SwitchDR",
            "CrossFitDR",
            "CFA",
            "StateAwareDR",
            "AdaptiveIPS",
            "AdaptiveDR",
            "MarginalizedDR",
            "SeqDR",
            "Replay",
        ] {
            assert!(table.get(name).is_some(), "{name} row missing");
        }
    }
}
