//! Every evaluator in this crate must emit at least one telemetry health
//! metric when a collector is installed — the acceptance bar for the
//! observability layer. Each test collects one estimate and asserts the
//! estimator's signature metrics landed, including the estimator-specific
//! extras (clip rate, acceptance rate, coverage, segment counts).

use ddn_estimators::state_aware::MatchOnly;
use ddn_estimators::{
    ClippedIps, CouplingDetector, CrossFitDr, DirectMethod, DoublyRobust, Estimator,
    ExperimentRunner, Ips, MatchingEstimator, ReplayEvaluator, SelfNormalizedIps, StateAwareDr,
    SwitchDr,
};
use ddn_models::{ConstantModel, TabularMeanModel};
use ddn_policy::{LookupPolicy, StationaryAsHistory, UniformRandomPolicy};
use ddn_stats::rng::{Rng, Xoshiro256};
use ddn_telemetry::{collect, Collector, TelemetrySnapshot};
use ddn_trace::{Context, ContextSchema, Decision, DecisionSpace, StateTag, Trace, TraceRecord};

fn trace(n: usize, seed: u64) -> Trace {
    let s = ContextSchema::builder().categorical("g", 2).build();
    let mut rng = Xoshiro256::seed_from(seed);
    let recs = (0..n)
        .map(|_| {
            let g = rng.index(2) as u32;
            let d = rng.index(2);
            let c = Context::build(&s).set_cat("g", g).finish();
            TraceRecord::new(c, Decision::from_index(d), 1.0 + g as f64 + 3.0 * d as f64)
                .with_propensity(0.5)
                .with_state(if g == 0 {
                    StateTag::LOW_LOAD
                } else {
                    StateTag::HIGH_LOAD
                })
        })
        .collect();
    Trace::from_records(s, DecisionSpace::of(&["a", "b"]), recs).unwrap()
}

fn snapshot_of(f: impl FnOnce()) -> TelemetrySnapshot {
    let ((), c): ((), Collector) = collect(f);
    TelemetrySnapshot::from_runs(&[c])
}

#[test]
fn dm_ips_snips_emit_weight_health() {
    let t = trace(200, 1);
    let newp = LookupPolicy::constant(t.space().clone(), 1);
    let snap = snapshot_of(|| {
        DirectMethod::new(ConstantModel::new(2.0))
            .estimate(&t, &newp)
            .unwrap();
        Ips::new().estimate(&t, &newp).unwrap();
        SelfNormalizedIps::new().estimate(&t, &newp).unwrap();
    });
    for name in ["DM", "IPS", "SNIPS"] {
        let ess = snap.health_metric(name, "ess").unwrap();
        assert!(ess.mean() > 0.0, "{name} ess {}", ess.mean());
        assert!(snap.health_metric(name, "max_weight").is_some(), "{name}");
    }
    // DM weights everything uniformly: ESS equals n.
    assert_eq!(snap.health_metric("DM", "ess").unwrap().mean(), 200.0);
}

#[test]
fn clipped_ips_reports_clip_rate_from_raw_weights() {
    let t = trace(200, 2);
    let newp = LookupPolicy::constant(t.space().clone(), 1);
    // Deterministic target over 0.5-propensity logging: matching records
    // carry raw weight 2; cap at 1.5 so every match counts as clipped.
    let snap = snapshot_of(|| {
        ClippedIps::new(1.5).estimate(&t, &newp).unwrap();
    });
    let clip = snap
        .health_metric("ClippedIPS", "clip_rate")
        .unwrap()
        .mean();
    assert!(
        (0.3..0.7).contains(&clip),
        "about half the records match and exceed the cap, got {clip}"
    );
    // Diagnostics reflect the *clipped* weights.
    assert_eq!(
        snap.health_metric("ClippedIPS", "max_weight")
            .unwrap()
            .mean(),
        1.5
    );
}

#[test]
fn dr_family_reports_residuals_and_switch_rate() {
    let t = trace(200, 3);
    let newp = LookupPolicy::constant(t.space().clone(), 1);
    let snap = snapshot_of(|| {
        DoublyRobust::new(ConstantModel::new(2.0))
            .estimate(&t, &newp)
            .unwrap();
        SwitchDr::new(ConstantModel::new(2.0), 1.0)
            .estimate(&t, &newp)
            .unwrap();
        CrossFitDr::new(4, |tr: &Trace| TabularMeanModel::fit_trace(tr, 1.0))
            .estimate(&t, &newp)
            .unwrap();
    });
    assert!(
        snap.health_metric("DR", "mean_abs_residual")
            .unwrap()
            .mean()
            > 0.0
    );
    // tau = 1.0 < weight 2: every matching record switches to DM.
    let switch_rate = snap.health_metric("SwitchDR", "clip_rate").unwrap().mean();
    assert!((0.3..0.7).contains(&switch_rate), "{switch_rate}");
    assert_eq!(
        snap.health_metric("CrossFitDR", "folds").unwrap().mean(),
        4.0
    );
    assert!(snap.health_metric("CrossFitDR", "ess").is_some());
}

#[test]
fn replay_reports_acceptance_rate() {
    let t = trace(400, 4);
    let old = UniformRandomPolicy::new(t.space().clone());
    let mut newp = StationaryAsHistory::new(LookupPolicy::constant(t.space().clone(), 1));
    let mut rng = Xoshiro256::seed_from(9);
    let snap = snapshot_of(|| {
        ReplayEvaluator::new(ConstantModel::zero())
            .evaluate(&t, &old, &mut newp, &mut rng)
            .unwrap();
    });
    let acc = snap
        .health_metric("Replay", "acceptance_rate")
        .unwrap()
        .mean();
    assert!(
        (0.3..0.7).contains(&acc),
        "deterministic target ≈ 0.5, got {acc}"
    );
    let accepted = snap.health_metric("Replay", "accepted").unwrap().mean();
    let rejected = snap.health_metric("Replay", "rejected").unwrap().mean();
    assert_eq!(accepted + rejected, 400.0);
}

#[test]
fn matching_and_state_aware_report_coverage() {
    let t = trace(400, 5);
    let newp = LookupPolicy::constant(t.space().clone(), 1);
    let snap = snapshot_of(|| {
        MatchingEstimator::new().estimate(&t, &newp).unwrap();
        StateAwareDr::new(ConstantModel::zero(), MatchOnly, StateTag::HIGH_LOAD)
            .estimate(&t, &newp)
            .unwrap();
    });
    let cfa_cov = snap.health_metric("CFA", "coverage").unwrap().mean();
    assert!((0.3..0.7).contains(&cfa_cov), "{cfa_cov}");
    let sa_cov = snap
        .health_metric("StateAwareDR", "coverage")
        .unwrap()
        .mean();
    assert!((0.3..0.7).contains(&sa_cov), "{sa_cov}");
}

#[test]
fn coupling_detector_reports_segments() {
    let t = trace(240, 6);
    // Proxy with a clear level shift halfway.
    let proxy: Vec<f64> = (0..240).map(|i| if i < 120 { 1.0 } else { 3.0 }).collect();
    let snap = snapshot_of(|| {
        CouplingDetector::new(20).analyze(&t, &proxy);
    });
    let segs = snap
        .health_metric("CouplingDetector", "segments")
        .unwrap()
        .mean();
    assert_eq!(segs, 2.0, "level shift must split into two regimes");
    assert_eq!(
        snap.health_metric("CouplingDetector", "coupled")
            .unwrap()
            .mean(),
        1.0
    );
}

#[test]
fn estimators_emit_nothing_without_a_collector() {
    // Emissions are scoped: running outside collect() records nowhere and
    // must not disturb a later collected run.
    let t = trace(100, 7);
    let newp = LookupPolicy::constant(t.space().clone(), 1);
    Ips::new().estimate(&t, &newp).unwrap();
    let snap = snapshot_of(|| {
        DoublyRobust::new(ConstantModel::zero())
            .estimate(&t, &newp)
            .unwrap();
    });
    assert!(snap.health_metric("IPS", "ess").is_none());
    assert!(snap.health_metric("DR", "ess").is_some());
}

#[test]
fn instrumented_runner_wraps_runs_with_spans() {
    let t = trace(100, 8);
    let newp = LookupPolicy::constant(t.space().clone(), 1);
    let runner = ExperimentRunner::new(3, 11);
    let (table, snap) = runner.run_instrumented(|_seed| {
        let v = Ips::new().estimate(&t, &newp).unwrap().value;
        (4.0, vec![("IPS".to_string(), v)])
    });
    assert_eq!(table.get("IPS").unwrap().runs, 3);
    assert_eq!(snap.runs(), 3);
    assert_eq!(snap.health_metric("IPS", "ess").unwrap().count, 3);
    let json = snap.to_json().to_string();
    assert!(json.contains("\"run\""), "per-run span missing: {json}");
    assert!(json.contains("\"experiment\""), "experiment timing missing");
}
