//! Determinism of the experiment harness: `ExperimentRunner::run_parallel`
//! must be bit-identical to the serial `run` on a real simulate→log→
//! estimate pipeline, for any thread count. The whole reproduction rests
//! on this — 50-run protocols are fanned out across threads, and a single
//! nondeterministic float would change every downstream table.

use ddn::estimators::{DoublyRobust, Estimator, ExperimentRunner, Ips};
use ddn::models::TabularMeanModel;
use ddn::netsim::{small_world, RateProfile};
use ddn::policy::{LookupPolicy, UniformRandomPolicy};

/// One full seeded experiment: simulate a world, log a trace under a
/// uniform policy, then estimate a fixed target policy with IPS and DR.
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
    // Ground truth only anchors the relative errors; keep it nonzero and
    // seed-dependent so the comparison covers the whole table pipeline.
    let truth = 1.0 + trace.mean_reward().abs();
    (
        truth,
        vec![("IPS".to_string(), ips), ("DR".to_string(), dr)],
    )
}

#[test]
fn parallel_is_bit_identical_to_serial() {
    let runner = ExperimentRunner::new(8, 4242);
    let serial = runner.run(experiment);
    for threads in [1, 2, 4, 7] {
        let parallel = runner.run_parallel(threads, experiment);
        for name in ["IPS", "DR"] {
            let a = serial.raw_errors(name).unwrap();
            let b = parallel.raw_errors(name).unwrap();
            assert_eq!(a.len(), b.len());
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{name} run {i} differs with {threads} threads: {x} vs {y}"
                );
            }
            // Aggregates derived from identical raws must match exactly too.
            let ra = serial.get(name).unwrap();
            let rb = parallel.get(name).unwrap();
            assert_eq!(ra.mean.to_bits(), rb.mean.to_bits());
            assert_eq!(ra.min.to_bits(), rb.min.to_bits());
            assert_eq!(ra.max.to_bits(), rb.max.to_bits());
        }
    }
}

#[test]
fn repeated_serial_runs_are_bit_identical() {
    let runner = ExperimentRunner::new(4, 77);
    let a = runner.run(experiment);
    let b = runner.run(experiment);
    for name in ["IPS", "DR"] {
        let xs = a.raw_errors(name).unwrap();
        let ys = b.raw_errors(name).unwrap();
        assert!(xs.iter().zip(ys).all(|(x, y)| x.to_bits() == y.to_bits()));
    }
}
