//! Batched-vs-per-estimator scoring benchmark.
//!
//! The shared-score [`ddn_estimators::EvalBatch`] exists to stop the
//! estimator menu from re-scoring the same trace once per estimator.
//! This module times the Figure 7c menu's estimate phase (CFA, the k-NN
//! DM and DR in the CFA world, where the reward model's predictions are
//! most of the work) both ways: [`estimate_menu`], one batch the whole
//! menu reads, against each estimator scoring the trace on its own
//! ([`Estimator::estimate`]). Each seed's trace and k-NN fit are made
//! before the timed region, so neither side pays for simulation or
//! fitting. Both sides run on the parallel runner at a fixed thread
//! count, and the ratio is distilled into a small JSON section callers
//! attach to their `BENCH_<suite>.json` (so the speedup is pinned in the
//! timing trajectory, not just eyeballed from raw rows).

use crate::Suite;
use ddn_estimators::{DirectMethod, DoublyRobust, Estimator, ExperimentRunner, MatchingEstimator};
use ddn_models::KnnRegressor;
use ddn_scenarios::figure7c::{estimate_menu, logged_seeds, Figure7cConfig};
use ddn_stats::Json;
use ddn_trace::Trace;

/// Thread count the comparison runs on. Fixed rather than inherited from
/// the machine so the pinned speedup is comparable across hosts; ≥ 4 so
/// the batched path is exercised under the worker-pool runner, not a
/// degenerate serial schedule.
pub const EVAL_BATCH_THREADS: usize = 4;

/// Registers the `eval_batch/*` benchmarks with explicit workload knobs
/// (run count and clients per run) and returns the summary section.
/// The small knobs exist for tests and CI smoke runs; real suites use
/// [`bench_eval_batch`].
pub fn bench_eval_batch_sized(suite: &mut Suite, runs: usize, clients: usize) -> Json {
    let cfg = Figure7cConfig {
        runs,
        clients,
        ..Default::default()
    };
    let (new_policy, logged) = logged_seeds(&cfg);
    let seeds: Vec<(f64, Trace, KnnRegressor)> = (0..runs as u64)
        .map(|i| logged(cfg.base_seed + i))
        .collect();
    let runner = ExperimentRunner::new(runs, cfg.base_seed);
    let seeded = |seed: u64| &seeds[(seed - cfg.base_seed) as usize];
    suite.bench("eval_batch/figure7c/batched", || {
        runner.run_parallel(EVAL_BATCH_THREADS, |seed| {
            let (truth, trace, knn) = seeded(seed);
            (*truth, estimate_menu(trace, &new_policy, knn))
        })
    });
    suite.bench("eval_batch/figure7c/unbatched", || {
        runner.run_parallel(EVAL_BATCH_THREADS, |seed| {
            let (truth, trace, knn) = seeded(seed);
            let value = |est: &dyn Estimator| {
                let e = est.estimate(trace, &new_policy);
                e.expect("the 7c menu estimates every seed").value
            };
            let menu = [
                ("CFA", value(&MatchingEstimator::new())),
                ("DM", value(&DirectMethod::new(knn))),
                ("DR", value(&DoublyRobust::new(knn))),
            ];
            (*truth, menu.map(|(n, v)| (n.to_string(), v)).to_vec())
        })
    });

    let mean = |name: &str| {
        suite
            .results()
            .iter()
            .find(|r| r.name == name)
            .expect("benchmark just registered")
            .mean_ns
    };
    let batched = mean("eval_batch/figure7c/batched");
    let unbatched = mean("eval_batch/figure7c/unbatched");
    Json::object(vec![
        ("threads", Json::Int(EVAL_BATCH_THREADS as i64)),
        ("runs", Json::Int(runs as i64)),
        ("clients", Json::Int(clients as i64)),
        ("batched_mean_ns", Json::Num(batched)),
        ("unbatched_mean_ns", Json::Num(unbatched)),
        ("speedup", Json::Num(unbatched / batched)),
    ])
}

/// Registers the `eval_batch/*` benchmarks at the standard workload and
/// returns the summary section to [`Suite::attach_section`] under
/// `"eval_batch"`. `DDN_EVAL_BATCH_RUNS` / `DDN_EVAL_BATCH_CLIENTS`
/// shrink the workload for smoke runs (`reproduce.sh ci`) without
/// touching the default the pinned speedup is measured at.
pub fn bench_eval_batch(suite: &mut Suite) -> Json {
    let knob = |name: &str, default: usize| {
        std::env::var(name)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(default)
    };
    bench_eval_batch_sized(
        suite,
        knob("DDN_EVAL_BATCH_RUNS", 6),
        knob("DDN_EVAL_BATCH_CLIENTS", 800),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BenchConfig;

    #[test]
    fn summary_section_has_the_pinned_shape() {
        let mut suite = Suite::with_config(
            "unit_eval_batch",
            BenchConfig {
                warmup_iters: 0,
                sample_iters: 1,
            },
        );
        let section = bench_eval_batch_sized(&mut suite, 1, 80);
        assert_eq!(suite.results().len(), 2);
        for key in [
            "threads",
            "runs",
            "clients",
            "batched_mean_ns",
            "unbatched_mean_ns",
            "speedup",
        ] {
            assert!(section.get(key).is_some(), "missing {key}");
        }
        assert!(section.get("speedup").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(
            section.get("threads").unwrap().as_i64(),
            Some(EVAL_BATCH_THREADS as i64)
        );
    }
}
