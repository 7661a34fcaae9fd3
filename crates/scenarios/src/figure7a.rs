//! Figure 7a — trace bias in the WISE world.
//!
//! Protocol (paper §4.2): simulate the Figure 4 world with 500 clients per
//! observed arrow and 5 per remaining (FE, BE) cell; evaluate a new policy
//! that moves 50% of ISP-1 clients to (FE-1, BE-2); compare the WISE-style
//! evaluator (a Direct Method over a structure-learned CBN) against DR
//! (the same CBN plus the IPS correction). Expected: "DR's evaluation
//! error is about 32% lower than WISE" — because "DR avoids the negative
//! impact of the selection bias by using the empirical data of a few ISP-1
//! clients who used FE-1 and BE-2."
//!
//! The mechanism that makes WISE fail here: in the skewed trace, FE and BE
//! are almost perfectly correlated (the arrows are the diagonal cells), so
//! BIC structure learning keeps only one of them — and then predicts the
//! *off-diagonal* counterfactual (FE-1, BE-2) with the wrong conditional
//! mean.

use ddn_cdn::wise::{WiseConfig, WiseWorld};
use ddn_estimators::{
    BatchEstimator, DirectMethod, DoublyRobust, ErrorTable, EvalBatch, ExperimentRunner, Ips,
    RunOutput,
};
use ddn_models::cbn::{CausalBayesNet, CbnConfig};
use ddn_telemetry::TelemetrySnapshot;

/// Configuration knobs for the experiment.
#[derive(Debug, Clone)]
pub struct Figure7aConfig {
    /// World parameters.
    pub world: WiseConfig,
    /// Number of seeded runs (paper: 50).
    pub runs: usize,
    /// Base seed.
    pub base_seed: u64,
}

impl Default for Figure7aConfig {
    fn default() -> Self {
        Self {
            // Response-time scale chosen so that, at the paper's 500/5
            // client skew, BIC genuinely prefers the incomplete structure
            // (the WISE pitfall) rather than being forced to: the ~5
            // off-diagonal observations per cell cannot justify the third
            // parent against the noise floor.
            world: WiseConfig {
                long_ms: 900.0,
                short_ms: 300.0,
                noise_std: 350.0,
                clients_per_arrow: 500,
                clients_per_rare_cell: 5,
            },
            runs: 50,
            base_seed: 70_001,
        }
    }
}

/// Builds the shared per-seed work for Figure 7a: the fixed world is
/// constructed once, each seed logs its own skewed trace, fits the CBN,
/// and runs the three estimators. The phase spans are inert unless a
/// telemetry collector is installed.
fn prepared(config: &Figure7aConfig) -> (ExperimentRunner, impl Fn(u64) -> RunOutput + Sync) {
    let world = WiseWorld::new(config.world.clone());
    let population = world.population();
    let old_policy = world.old_policy();
    let new_policy = world.new_policy();
    let truth = world.true_value(&population, &new_policy);

    let cbn_config = CbnConfig {
        decision_axes: Some(vec![2, 2]),
        numeric_bins: 4,
        max_parents: 4,
    };

    let runner = ExperimentRunner::new(config.runs, config.base_seed);
    let work = move |seed: u64| {
        let trace = {
            let _span = ddn_telemetry::span("simulate");
            world.log_trace(&population, &old_policy, seed)
        };
        let cbn = {
            let _span = ddn_telemetry::span("fit");
            CausalBayesNet::fit(&trace, &cbn_config)
        };
        let _span = ddn_telemetry::span("estimate");
        // Score the trace once — policy probabilities, importance
        // weights, and CBN predictions — and let all three estimators
        // read the shared columnar batch.
        let batch = EvalBatch::with_model(&trace, &new_policy, &cbn)
            .expect("policy shares the trace's decision space");
        let wise = DirectMethod::new(cbn.clone())
            .estimate_batch(&trace, &batch)
            .expect("WISE DM always estimates")
            .value;
        let ips = Ips::new()
            .estimate_batch(&trace, &batch)
            .expect("trace carries propensities")
            .value;
        let dr = DoublyRobust::new(cbn)
            .estimate_batch(&trace, &batch)
            .expect("trace carries propensities")
            .value;
        (
            truth,
            vec![
                ("WISE".to_string(), wise),
                ("IPS".to_string(), ips),
                ("DR".to_string(), dr),
            ],
        )
    };
    (runner, work)
}

/// Runs the Figure 7a experiment with custom configuration.
pub fn figure7a_with(config: &Figure7aConfig) -> ErrorTable {
    let (runner, work) = prepared(config);
    runner.run_parallel(ExperimentRunner::default_threads(), work)
}

/// Runs Figure 7a with telemetry: same numbers as [`figure7a_with`]
/// (bit-identical, regardless of thread count) plus per-run spans and the
/// estimators' health diagnostics.
pub fn figure7a_instrumented(config: &Figure7aConfig) -> (ErrorTable, TelemetrySnapshot) {
    let (runner, work) = prepared(config);
    runner.run_parallel_instrumented(ExperimentRunner::default_threads(), work)
}

/// Runs Figure 7a with the paper's protocol (50 runs).
pub fn figure7a() -> ErrorTable {
    figure7a_with(&Figure7aConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddn_models::cbn::Var;
    use ddn_models::RewardModel;
    use ddn_trace::Decision;

    #[test]
    fn cbn_mislearns_structure_on_skewed_trace() {
        // The pitfall's precondition: on the skewed trace the learned CBN
        // keeps ISP plus only ONE of the two decision axes.
        let cfg = Figure7aConfig::default();
        let world = WiseWorld::new(cfg.world.clone());
        let trace = world.log_trace(&world.population(), &world.old_policy(), 3);
        let cbn = CausalBayesNet::fit(
            &trace,
            &CbnConfig {
                decision_axes: Some(vec![2, 2]),
                numeric_bins: 4,
                max_parents: 4,
            },
        );
        let has_fe = cbn.depends_on(Var::DecisionAxis(0));
        let has_be = cbn.depends_on(Var::DecisionAxis(1));
        assert!(
            has_fe != has_be,
            "expected exactly one decision axis in the structure, got parents {:?}",
            cbn.parents()
        );
    }

    #[test]
    fn mislearned_cbn_mispredicts_the_counterfactual_cell() {
        // When the learned structure keeps FE (not BE), the (FE-1, BE-2)
        // counterfactual inherits the slow conjunction's mean — the
        // "WISE will predict long response time" error of Figure 4.
        let cfg = Figure7aConfig::default();
        let world = WiseWorld::new(cfg.world.clone());
        for seed in 0..20 {
            let trace = world.log_trace(&world.population(), &world.old_policy(), seed);
            let cbn = CausalBayesNet::fit(
                &trace,
                &CbnConfig {
                    decision_axes: Some(vec![2, 2]),
                    numeric_bins: 4,
                    max_parents: 4,
                },
            );
            if cbn.depends_on(Var::DecisionAxis(0)) && !cbn.depends_on(Var::DecisionAxis(1)) {
                let ctx = world.context(0);
                let pred = cbn.predict(&ctx, Decision::from_index(1)); // fe1/be2
                assert!(
                    pred > 600.0,
                    "FE-only CBN should wrongly predict long for (FE-1, BE-2): {pred}"
                );
                return;
            }
        }
        panic!("no seed produced the FE-only structure in 20 tries");
    }

    #[test]
    fn dr_beats_wise_in_small_replication() {
        // A 12-run miniature of the headline result (full 50 runs in the
        // bench binary): DR's mean error is below WISE's.
        let cfg = Figure7aConfig {
            runs: 12,
            ..Default::default()
        };
        let table = figure7a_with(&cfg);
        let dr = table.get("DR").unwrap();
        let wise = table.get("WISE").unwrap();
        assert!(
            dr.mean < wise.mean,
            "DR mean error {} should beat WISE {}",
            dr.mean,
            wise.mean
        );
    }
}
