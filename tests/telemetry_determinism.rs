//! The telemetry layer must not weaken the parallel-determinism contract:
//! the deterministic JSON form of a [`TelemetrySnapshot`] (thread count
//! dropped, nanoseconds zeroed, span *counts* kept) must be bit-identical
//! between `run_parallel_instrumented(1, …)` and any other thread count,
//! and between instrumented-serial and instrumented-parallel. Health
//! aggregates are merged in seed order, so every float in them inherits
//! the harness's bit-identity guarantee.

use ddn::estimators::{DoublyRobust, Estimator, ExperimentRunner, Ips};
use ddn::models::TabularMeanModel;
use ddn::netsim::{small_world, RateProfile};
use ddn::policy::{LookupPolicy, UniformRandomPolicy};
use ddn::telemetry::TelemetrySnapshot;

/// The same simulate→log→estimate pipeline the plain determinism test
/// uses, now with telemetry-emitting estimators inside.
fn experiment(seed: u64) -> (f64, Vec<(String, f64)>) {
    let world = small_world(RateProfile::Constant(8.0), 60.0);
    let logging = UniformRandomPolicy::new(world.space().clone());
    let trace = world.run(&logging, seed).trace;
    let target = LookupPolicy::constant(trace.space().clone(), 1);
    let ips = Ips::new().estimate(&trace, &target).unwrap().value;
    let model = TabularMeanModel::fit_trace(&trace, 1.0);
    let dr = DoublyRobust::new(&model)
        .estimate(&trace, &target)
        .unwrap()
        .value;
    let truth = 1.0 + trace.mean_reward().abs();
    (
        truth,
        vec![("IPS".to_string(), ips), ("DR".to_string(), dr)],
    )
}

fn deterministic_json(snap: &TelemetrySnapshot) -> String {
    snap.to_json_deterministic().to_string()
}

#[test]
fn telemetry_json_is_bit_identical_across_thread_counts() {
    let runner = ExperimentRunner::new(8, 4242);
    let (serial_table, serial_snap) = runner.run_parallel_instrumented(1, experiment);
    let serial_json = deterministic_json(&serial_snap);
    // The snapshot actually carries health content — this test must not
    // pass vacuously on an empty document.
    assert!(serial_json.contains("\"IPS\""), "{serial_json}");
    assert!(serial_json.contains("\"ess\""), "{serial_json}");
    assert!(
        serial_json.contains("\"run\""),
        "span counts missing: {serial_json}"
    );

    for threads in [2, 4, 8] {
        let (table, snap) = runner.run_parallel_instrumented(threads, experiment);
        assert_eq!(
            serial_json,
            deterministic_json(&snap),
            "telemetry diverges at {threads} threads"
        );
        // The error table keeps its own bit-identity alongside.
        for name in ["IPS", "DR"] {
            let a = serial_table.raw_errors(name).unwrap();
            let b = table.raw_errors(name).unwrap();
            assert!(a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }
}

#[test]
fn instrumented_serial_matches_instrumented_parallel() {
    let runner = ExperimentRunner::new(5, 77);
    let (_, from_serial) = runner.run_instrumented(experiment);
    let (_, from_parallel) = runner.run_parallel_instrumented(4, experiment);
    assert_eq!(
        deterministic_json(&from_serial),
        deterministic_json(&from_parallel)
    );
}

/// `DDN_THREADS` steers [`ExperimentRunner::default_threads`], invalid
/// values fall back to machine parallelism, and the
/// `experiment.default_threads` gauge is written exactly once per
/// process (so concurrent experiments can't flap it mid-read). One test
/// owns the variable for the whole binary — nothing else here reads it.
#[test]
fn ddn_threads_env_overrides_default_thread_count() {
    std::env::set_var("DDN_THREADS", "3");
    assert_eq!(ExperimentRunner::default_threads(), 3);
    let gauge = ddn::telemetry::Registry::global().gauge("experiment.default_threads");
    assert_eq!(gauge.get(), 3.0, "first call records the gauge");

    // Invalid overrides fall back to the machine's parallelism.
    let machine = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    for junk in ["0", "-2", "many"] {
        std::env::set_var("DDN_THREADS", junk);
        assert_eq!(ExperimentRunner::default_threads(), machine, "{junk:?}");
    }
    std::env::remove_var("DDN_THREADS");
    assert_eq!(ExperimentRunner::default_threads(), machine);

    // Later calls saw different thread counts, but the gauge keeps the
    // first write — once per process, never flapping.
    assert_eq!(gauge.get(), 3.0, "gauge must not be rewritten");
}

#[test]
fn full_json_reports_thread_count_but_deterministic_form_drops_it() {
    let runner = ExperimentRunner::new(3, 9);
    let (_, snap) = runner.run_parallel_instrumented(3, experiment);
    assert_eq!(snap.threads(), 3);
    let full = snap.to_json().to_string();
    assert!(full.contains("\"threads\":3"), "{full}");
    let det = deterministic_json(&snap);
    assert!(!det.contains("\"threads\""), "{det}");
}
