//! Figure 7c — variance reduction in the CFA world.
//!
//! Protocol (paper §4.2): "the original evaluator of CFA uses a trace of
//! clients with random CDN and bitrate selection, and focuses on the
//! subset of clients who have the same decision in the new policy. … The
//! DM estimates are based on a k-NN model trained by the trace." Expected:
//! "DR's evaluation error is about 36% lower than that of the original
//! evaluator. … this example illustrates the power of DR to reduce
//! variance of evaluation results by giving each client an estimate using
//! a (possibly biased) DM model."

use ddn_cdn::cfa::{CfaConfig, CfaGreedy, CfaWorld};
use ddn_estimators::{
    BatchEstimator, DirectMethod, DoublyRobust, ErrorTable, EvalBatch, ExperimentRunner,
    MatchingEstimator, RunOutput,
};
use ddn_models::{KnnConfig, KnnRegressor};
use ddn_policy::{Policy, UniformRandomPolicy};
use ddn_stats::rng::Xoshiro256;
use ddn_telemetry::TelemetrySnapshot;
use ddn_trace::Trace;

/// Configuration knobs for the experiment.
#[derive(Debug, Clone)]
pub struct Figure7cConfig {
    /// World parameters.
    pub world: CfaConfig,
    /// Seed the (fixed) world's quality tables are drawn from.
    pub world_seed: u64,
    /// Clients per run.
    pub clients: usize,
    /// k for the k-NN DM.
    pub knn_k: usize,
    /// Number of runs (paper: 50).
    pub runs: usize,
    /// Base seed.
    pub base_seed: u64,
}

impl Default for Figure7cConfig {
    fn default() -> Self {
        Self {
            // Feature cardinalities kept coarse enough (4·2·2 = 16 client
            // kinds) that the k-NN DM generalizes from a uniformly logged
            // trace, while the 12-way decision space still starves the
            // matching estimator (~1/12 of records match) — the Figure 5
            // sparsity that drives its variance.
            world: CfaConfig {
                cities: 4,
                devices: 2,
                connections: 2,
                noise_std: 0.25,
                ..CfaConfig::default()
            },
            world_seed: 1717,
            clients: 1000,
            knn_k: 5,
            runs: 50,
            base_seed: 70_003,
        }
    }
}

/// Builds the shared per-seed work for Figure 7c. The phase spans are
/// inert unless a telemetry collector is installed.
fn prepared(cfg: &Figure7cConfig) -> (ExperimentRunner, impl Fn(u64) -> RunOutput + Sync + '_) {
    let (new_policy, logged) = logged_seeds(cfg);
    let runner = ExperimentRunner::new(cfg.runs, cfg.base_seed);
    let work = move |seed: u64| {
        let (truth, trace, knn) = logged(seed);
        let _span = ddn_telemetry::span("estimate");
        (truth, estimate_menu(&trace, &new_policy, &knn))
    };
    (runner, work)
}

/// The panel's evaluated policy, and its per-seed work before the
/// estimate phase: each seed's ground truth, logged trace and fitted
/// k-NN, under the `simulate` and `fit` spans.
pub fn logged_seeds(
    cfg: &Figure7cConfig,
) -> (
    CfaGreedy,
    impl Fn(u64) -> (f64, Trace, KnnRegressor) + Sync + '_,
) {
    let world = CfaWorld::new(cfg.world.clone(), cfg.world_seed);
    let old_policy = UniformRandomPolicy::new(world.space().clone());
    let new_policy = world.greedy_policy();
    let knn_cfg = KnnConfig {
        k: cfg.knn_k,
        standardize: true,
        match_decision: true,
    };
    let evaluated = new_policy.clone();
    let logged = move |seed: u64| {
        let (truth, trace) = {
            let _span = ddn_telemetry::span("simulate");
            let mut rng = Xoshiro256::seed_from(seed);
            let clients = world.sample_clients(cfg.clients, &mut rng);
            let truth = world.true_value(&clients, &new_policy);
            let trace =
                world.log_trace(&clients, &old_policy, seed.wrapping_mul(31).wrapping_add(7));
            (truth, trace)
        };
        let knn = {
            let _span = ddn_telemetry::span("fit");
            KnnRegressor::fit(&trace, knn_cfg)
        };
        (truth, trace, knn)
    };
    (evaluated, logged)
}

/// The panel's estimate phase for one seed: CFA, DM and DR over one
/// columnar scoring pass of `trace` under `new_policy` and `knn` — the
/// k-NN predictions are the expensive part — shared by the whole menu.
pub fn estimate_menu(
    trace: &Trace,
    new_policy: &dyn Policy,
    knn: &KnnRegressor,
) -> Vec<(String, f64)> {
    let batch = EvalBatch::with_model(trace, new_policy, knn)
        .expect("policy shares the trace's decision space");
    let cfa = MatchingEstimator::new()
        .estimate_batch(trace, &batch)
        .expect("uniform logging always yields matches at this scale")
        .value;
    let dm = DirectMethod::new(knn)
        .estimate_batch(trace, &batch)
        .expect("DM always estimates")
        .value;
    let dr = DoublyRobust::new(knn)
        .estimate_batch(trace, &batch)
        .expect("trace has propensities")
        .value;
    vec![
        ("CFA".to_string(), cfa),
        ("DM".to_string(), dm),
        ("DR".to_string(), dr),
    ]
}

/// Runs the Figure 7c experiment with custom configuration.
pub fn figure7c_with(cfg: &Figure7cConfig) -> ErrorTable {
    let (runner, work) = prepared(cfg);
    runner.run_parallel(ExperimentRunner::default_threads(), work)
}

/// Runs Figure 7c with telemetry: same numbers as [`figure7c_with`]
/// (bit-identical, regardless of thread count) plus per-run spans and the
/// estimators' health diagnostics — including CFA's coverage, the Figure 5
/// sparsity made visible.
pub fn figure7c_instrumented(cfg: &Figure7cConfig) -> (ErrorTable, TelemetrySnapshot) {
    let (runner, work) = prepared(cfg);
    runner.run_parallel_instrumented(ExperimentRunner::default_threads(), work)
}

/// Runs Figure 7c with the paper's protocol (50 runs).
pub fn figure7c() -> ErrorTable {
    figure7c_with(&Figure7cConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddn_estimators::Estimator;

    #[test]
    fn dr_beats_cfa_in_small_replication() {
        let cfg = Figure7cConfig {
            runs: 10,
            ..Default::default()
        };
        let table = figure7c_with(&cfg);
        let dr = table.get("DR").unwrap();
        let cfa = table.get("CFA").unwrap();
        assert!(
            dr.mean < cfa.mean,
            "DR {} should beat CFA matching {}",
            dr.mean,
            cfa.mean
        );
    }

    #[test]
    fn matching_suffers_from_low_coverage() {
        // With 12 decisions and a deterministic new policy, only ~1/12 of
        // a uniformly logged trace matches — the Figure 5 sparsity.
        let cfg = Figure7cConfig {
            runs: 1,
            clients: 600,
            ..Default::default()
        };
        let world = CfaWorld::new(cfg.world.clone(), cfg.world_seed);
        let mut rng = Xoshiro256::seed_from(1);
        let clients = world.sample_clients(cfg.clients, &mut rng);
        let old = UniformRandomPolicy::new(world.space().clone());
        let trace = world.log_trace(&clients, &old, 2);
        let e = MatchingEstimator::new()
            .estimate(&trace, &world.greedy_policy())
            .unwrap();
        let match_fraction = e.per_record.len() as f64 / trace.len() as f64;
        assert!(
            (match_fraction - 1.0 / 12.0).abs() < 0.05,
            "match fraction {match_fraction} should be near 1/12"
        );
    }
}
