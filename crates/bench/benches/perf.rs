//! Microbenchmarks of the building blocks: estimator throughput versus
//! trace size, reward-model fit/predict, discrete-event simulator
//! throughput, and change-point detection. Timings land in
//! `BENCH_perf.json`.

use ddn_bench::Suite;
use ddn_estimators::{
    ActionEmbedding, AdaptiveDr, AdaptiveIps, AdaptiveWeights, CrossFitDr, DoublyRobust, Estimator,
    Ips, MarginalizedDr, SeqDr,
};
use ddn_models::{ForestConfig, ForestRegressor, KnnConfig, KnnRegressor, TabularMeanModel};
use ddn_netsim::{small_world, wise_like_tiered, EventQueue, RateProfile, SimTime};
use ddn_policy::{LookupPolicy, UniformRandomPolicy};
use ddn_serve::engine::{COUPLING_MIN_SEGMENT, COUPLING_WINDOW};
use ddn_stats::changepoint::{pelt, CostModel, Penalty};
use ddn_stats::dist::{Distribution, Normal};
use ddn_stats::rng::{Rng, Xoshiro256};
use ddn_trace::{Context, ContextSchema, Decision, DecisionSpace, Trace, TraceRecord};

fn synthetic_trace(n: usize, seed: u64) -> Trace {
    let schema = ContextSchema::builder()
        .categorical("g", 8)
        .numeric("x")
        .build();
    let space = DecisionSpace::of(&["a", "b", "c", "d"]);
    let mut rng = Xoshiro256::seed_from(seed);
    let records = (0..n)
        .map(|_| {
            let g = rng.index(8) as u32;
            let x = rng.range_f64(0.0, 100.0);
            let d = rng.index(4);
            let ctx = Context::build(&schema)
                .set_cat("g", g)
                .set_numeric("x", x)
                .finish();
            let reward = g as f64 + d as f64 + 0.01 * x;
            TraceRecord::new(ctx, Decision::from_index(d), reward).with_propensity(0.25)
        })
        .collect();
    Trace::from_records(schema, space, records).unwrap()
}

fn bench_estimators(suite: &mut Suite) {
    for &n in &[1_000usize, 10_000, 100_000] {
        let trace = synthetic_trace(n, 42);
        let policy = LookupPolicy::constant(trace.space().clone(), 2);
        let model = TabularMeanModel::fit_trace(&trace, 1.0);
        suite.bench_throughput(&format!("estimator/ips/{n}"), n as u64, || {
            Ips::new().estimate(&trace, &policy).unwrap().value
        });
        suite.bench_throughput(&format!("estimator/dr_tabular/{n}"), n as u64, || {
            DoublyRobust::new(&model)
                .estimate(&trace, &policy)
                .unwrap()
                .value
        });
        if n <= 10_000 {
            suite.bench_throughput(
                &format!("estimator/crossfit_dr_tabular/{n}"),
                n as u64,
                || {
                    let est = CrossFitDr::new(5, |tr: &ddn_trace::Trace| {
                        TabularMeanModel::fit_trace(tr, 1.0)
                    });
                    est.estimate(&trace, &policy).unwrap().value
                },
            );
        }
    }
}

fn bench_models(suite: &mut Suite) {
    for &n in &[1_000usize, 10_000] {
        let trace = synthetic_trace(n, 43);
        suite.bench_throughput(&format!("model_fit/tabular/{n}"), n as u64, || {
            TabularMeanModel::fit_trace(&trace, 1.0)
        });
        suite.bench_throughput(&format!("model_fit/knn_fit/{n}"), n as u64, || {
            KnnRegressor::fit(&trace, KnnConfig::default())
        });
        if n <= 1_000 {
            suite.bench_throughput(
                &format!("model_fit/forest_fit_10trees/{n}"),
                n as u64,
                || {
                    ForestRegressor::fit(
                        &trace,
                        ForestConfig {
                            trees: 10,
                            ..Default::default()
                        },
                    )
                },
            );
        }
    }
}

fn bench_event_queue(suite: &mut Suite) {
    suite.bench_throughput("netsim/event_queue_100k", 100_000, || {
        let mut q = EventQueue::new();
        let mut rng = Xoshiro256::seed_from(7);
        for i in 0..100_000u64 {
            q.schedule(SimTime::new(rng.next_f64() * 1e6 + i as f64), i);
        }
        let mut count = 0u64;
        while q.pop().is_some() {
            count += 1;
        }
        count
    });
    let world = small_world(RateProfile::Constant(10.0), 200.0);
    let policy = UniformRandomPolicy::new(world.space().clone());
    suite.bench("netsim/world_run_2k_requests", || {
        world.run(&policy, 9).trace.len()
    });
    let tiered = wise_like_tiered(RateProfile::Constant(10.0), 200.0);
    let tiered_policy = UniformRandomPolicy::new(tiered.space().clone());
    suite.bench("netsim/tiered_world_run_2k_requests", || {
        tiered.run(&tiered_policy, 9).trace.len()
    });
}

fn bench_changepoint(suite: &mut Suite) {
    for &n in &[500usize, 5_000] {
        let mut rng = Xoshiro256::seed_from(11);
        let mut series = Normal::new(0.0, 1.0).sample_n(&mut rng, n / 2);
        series.extend(Normal::new(4.0, 1.0).sample_n(&mut rng, n / 2));
        suite.bench_throughput(&format!("changepoint/pelt/{n}"), n as u64, || {
            pelt(&series, CostModel::NormalMean, Penalty::Bic, 10)
        });
    }
    // PELT's worst case, with the serving coupling monitor's settings: on
    // a stationary series pruning keeps almost every candidate.
    let (n, min_seg) = (COUPLING_WINDOW, COUPLING_MIN_SEGMENT);
    let series = Normal::new(2.0, 1.0).sample_n(&mut Xoshiro256::seed_from(11), n);
    let name = format!("changepoint/pelt_stationary/{n}");
    suite.bench_throughput(&name, n as u64, || {
        pelt(&series, CostModel::NormalMean, Penalty::Bic, min_seg)
    });
}

/// Telemetry cost, both ways: the *disabled* path (no collector — what
/// every other benchmark in this suite pays, budgeted at <2% overhead)
/// versus the *enabled* path (collector installed, health recorded per
/// estimate). Returns a health snapshot for attachment to the suite JSON.
fn bench_telemetry(suite: &mut Suite) -> ddn_stats::Json {
    let n = 10_000usize;
    let trace = synthetic_trace(n, 44);
    let policy = LookupPolicy::constant(trace.space().clone(), 2);
    let model = TabularMeanModel::fit_trace(&trace, 1.0);
    suite.bench_throughput(&format!("telemetry/dr_disabled/{n}"), n as u64, || {
        DoublyRobust::new(&model)
            .estimate(&trace, &policy)
            .unwrap()
            .value
    });
    suite.bench_throughput(&format!("telemetry/dr_collected/{n}"), n as u64, || {
        let (v, _collector) = ddn_telemetry::collect(|| {
            DoublyRobust::new(&model)
                .estimate(&trace, &policy)
                .unwrap()
                .value
        });
        v
    });

    let ((), collector) = ddn_telemetry::collect(|| {
        let _span = ddn_telemetry::span("bench");
        Ips::new().estimate(&trace, &policy).unwrap();
        DoublyRobust::new(&model).estimate(&trace, &policy).unwrap();
    });
    let mut snap = ddn_telemetry::TelemetrySnapshot::from_runs(&[collector]);
    snap.set_threads(1);
    snap.to_json()
}

/// Throughput of the estimator-menu extensions (DESIGN.md §16) over a
/// 10k-record synthetic trace, summarized as a `menu` section so
/// `bench_floors.json` can pin a floor under the heaviest of them
/// (SeqDR: per-record DM terms plus the per-trajectory backward fold).
fn bench_menu(suite: &mut Suite) -> ddn_stats::Json {
    let n = 10_000usize;
    let trace = synthetic_trace(n, 45);
    let policy = LookupPolicy::constant(trace.space().clone(), 2);
    let model = TabularMeanModel::fit_trace(&trace, 1.0);
    // Two groups of two arms each — real marginalization, not identity.
    let embedding = || ActionEmbedding::from_groups(vec![0, 0, 1, 1]);
    suite.bench_throughput(&format!("menu/adaptive_ips/{n}"), n as u64, || {
        AdaptiveIps::new(AdaptiveWeights::Stabilized)
            .estimate(&trace, &policy)
            .unwrap()
            .value
    });
    suite.bench_throughput(&format!("menu/adaptive_dr/{n}"), n as u64, || {
        AdaptiveDr::new(&model, AdaptiveWeights::Stabilized)
            .estimate(&trace, &policy)
            .unwrap()
            .value
    });
    suite.bench_throughput(&format!("menu/mdr/{n}"), n as u64, || {
        MarginalizedDr::new(
            &model,
            embedding(),
            Box::new(UniformRandomPolicy::new(trace.space().clone())),
        )
        .estimate(&trace, &policy)
        .unwrap()
        .value
    });
    suite.bench_throughput(&format!("menu/seqdr/{n}"), n as u64, || {
        SeqDr::new(&model, 4)
            .estimate(&trace, &policy)
            .unwrap()
            .value
    });

    let per_sec = |name: &str| {
        let r = suite
            .results()
            .iter()
            .find(|r| r.name == name)
            .expect("benchmark just registered");
        n as f64 / (r.mean_ns * 1e-9)
    };
    ddn_stats::Json::object(vec![
        ("records", ddn_stats::Json::Int(n as i64)),
        (
            "adaptive_ips_records_per_sec",
            ddn_stats::Json::Num(per_sec(&format!("menu/adaptive_ips/{n}"))),
        ),
        (
            "adaptive_dr_records_per_sec",
            ddn_stats::Json::Num(per_sec(&format!("menu/adaptive_dr/{n}"))),
        ),
        (
            "mdr_records_per_sec",
            ddn_stats::Json::Num(per_sec(&format!("menu/mdr/{n}"))),
        ),
        (
            "seqdr_records_per_sec",
            ddn_stats::Json::Num(per_sec(&format!("menu/seqdr/{n}"))),
        ),
    ])
}

fn main() {
    let mut suite = Suite::new("perf");
    bench_estimators(&mut suite);
    bench_models(&mut suite);
    bench_event_queue(&mut suite);
    bench_changepoint(&mut suite);
    let health = bench_telemetry(&mut suite);
    suite.attach_telemetry(health);
    // Shared-score batching: pin the batched-vs-unbatched figure7-suite
    // speedup into BENCH_perf.json alongside the raw timings.
    let eval_batch = ddn_bench::eval_batch::bench_eval_batch(&mut suite);
    suite.attach_section("eval_batch", eval_batch);
    // Estimator-menu throughput: the summary section bench_floors.json
    // pins its menu floor against.
    let menu = bench_menu(&mut suite);
    suite.attach_section("menu", menu);
    suite.finish();
}
