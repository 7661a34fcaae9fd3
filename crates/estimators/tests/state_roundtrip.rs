//! Round-trip property suite for online estimator durability hooks.
//!
//! The contract (see `OnlineEstimator::state_save`): split a stream at
//! any point, serialize the state *through JSON text*, load it into a
//! fresh identically-configured estimator, continue the stream — and
//! every subsequent estimate, health metric, and saved state is
//! bit-identical to the estimator that never stopped. The palette of
//! generated rewards deliberately includes `-0.0` (the Sum identity an
//! f64-as-text encoding would destroy), subnormal-range magnitudes, and
//! zero importance weights.

use ddn_estimators::{
    ActionEmbedding, AdaptiveWeights, EstimatorError, OnlineAdaptiveDr, OnlineAdaptiveIps,
    OnlineClippedIps, OnlineDm, OnlineDr, OnlineEstimator, OnlineIps, OnlineMarginalizedDr,
    OnlineSeqDr, OnlineSnips, SlidingWindow,
};
use ddn_models::ConstantModel;
use ddn_policy::{LookupPolicy, UniformRandomPolicy};
use ddn_stats::rng::{Rng, Xoshiro256};
use ddn_stats::Json;
use ddn_testkit::{prop, prop_assert, prop_assert_eq};
use ddn_trace::{Context, ContextSchema, Decision, DecisionSpace, TraceRecord};

fn schema() -> ContextSchema {
    ContextSchema::builder().categorical("g", 3).build()
}

fn space() -> DecisionSpace {
    DecisionSpace::of(&["a", "b"])
}

/// Records drawn from a palette of f64 edge cases: signed zeros, large
/// and tiny magnitudes, zero-weight decisions (the constant policy plays
/// "b", so "a" records carry weight 0).
fn edge_records(n: usize, seed: u64) -> Vec<TraceRecord> {
    const REWARDS: [f64; 7] = [-0.0, 0.0, 1.5, -2.5, 1e300, 1e-300, 3.25];
    const PROPENSITIES: [f64; 4] = [0.75, 0.25, 1.0, 0.05];
    let mut rng = Xoshiro256::seed_from(seed);
    (0..n)
        .map(|_| {
            let g = rng.index(3) as u32;
            let c = Context::build(&schema()).set_cat("g", g).finish();
            let d = rng.index(2);
            let r = REWARDS[rng.index(REWARDS.len())];
            let p = PROPENSITIES[rng.index(PROPENSITIES.len())];
            TraceRecord::new(c, Decision::from_index(d), r).with_propensity(p)
        })
        .collect()
}

type Factory = fn() -> Box<dyn OnlineEstimator>;

fn policy() -> Box<LookupPolicy> {
    Box::new(LookupPolicy::constant(space(), 1))
}

/// One factory per member of the online menu, each a fresh
/// identically-configured estimator.
fn menu() -> Vec<(&'static str, Factory)> {
    vec![
        ("dm", || {
            Box::new(OnlineDm::new(space(), policy(), Box::new(ConstantModel::new(2.5))).unwrap())
        }),
        ("ips", || {
            Box::new(OnlineIps::new(space(), policy()).unwrap())
        }),
        ("snips", || {
            Box::new(OnlineSnips::new(space(), policy()).unwrap())
        }),
        ("clipped", || {
            Box::new(OnlineClippedIps::new(space(), policy(), 3.0).unwrap())
        }),
        ("dr", || {
            Box::new(OnlineDr::new(space(), policy(), Box::new(ConstantModel::new(2.5))).unwrap())
        }),
        ("adaptive", || {
            Box::new(
                OnlineAdaptiveIps::new(space(), policy(), AdaptiveWeights::Stabilized).unwrap(),
            )
        }),
        ("adaptive_dr", || {
            Box::new(
                OnlineAdaptiveDr::new(
                    space(),
                    policy(),
                    Box::new(ConstantModel::new(2.5)),
                    AdaptiveWeights::Stabilized,
                )
                .unwrap(),
            )
        }),
        ("mdr", || {
            Box::new(
                OnlineMarginalizedDr::new(
                    space(),
                    policy(),
                    Box::new(UniformRandomPolicy::new(space())),
                    Box::new(ConstantModel::new(2.5)),
                    ActionEmbedding::identity(2),
                )
                .unwrap(),
            )
        }),
        // Horizon 3 with arbitrary split points: most splits land
        // mid-trajectory, so the pending step triples must survive the
        // text round-trip too.
        ("seqdr", || {
            Box::new(
                OnlineSeqDr::new(space(), policy(), Box::new(ConstantModel::new(2.5)), 3).unwrap(),
            )
        }),
    ]
}

/// Pushes `recs`, ignoring per-record rejections (none are expected
/// here, but the contract only promises rejected pushes change nothing).
fn push_all(est: &mut dyn OnlineEstimator, recs: &[TraceRecord]) {
    for rec in recs {
        est.push(rec).expect("palette records are all ingestible");
    }
}

/// Bitwise equality of two estimates (value, n, and every diagnostic).
fn estimates_identical(a: &dyn OnlineEstimator, b: &dyn OnlineEstimator) -> Result<(), String> {
    let (ea, eb) = match (a.estimate(), b.estimate()) {
        (Ok(ea), Ok(eb)) => (ea, eb),
        (Err(ea), Err(eb)) => {
            return if format!("{ea}") == format!("{eb}") {
                Ok(())
            } else {
                Err(format!("error mismatch: {ea} vs {eb}"))
            }
        }
        (ea, eb) => return Err(format!("Ok/Err mismatch: {ea:?} vs {eb:?}")),
    };
    if ea.value.to_bits() != eb.value.to_bits() {
        return Err(format!("value {:?} vs {:?}", ea.value, eb.value));
    }
    if ea.n != eb.n {
        return Err(format!("n {} vs {}", ea.n, eb.n));
    }
    let (ha, hb) = (a.health_metrics(), b.health_metrics());
    if ha.len() != hb.len() {
        return Err(format!("health arity {} vs {}", ha.len(), hb.len()));
    }
    for ((ka, va), (kb, vb)) in ha.iter().zip(&hb) {
        if ka != kb || va.to_bits() != vb.to_bits() {
            return Err(format!("health {ka}={va:?} vs {kb}={vb:?}"));
        }
    }
    Ok(())
}

prop! {
    /// THE round-trip property, over the whole menu at once: save at an
    /// arbitrary split point, serialize through JSON *text*, load into a
    /// fresh twin, finish the stream on both — bit-identical estimates,
    /// health, and re-saved state.
    fn state_survives_a_text_roundtrip_at_any_split(
        seed in 0u64..1_000_000,
        n in 1usize..60,
        split_frac in 0usize..61,
    ) {
        let recs = edge_records(n, seed);
        let split = split_frac * n / 61;
        for (name, fresh) in menu() {
            let mut unbroken = fresh();
            push_all(unbroken.as_mut(), &recs[..split]);

            // Through text: exactly what a snapshot file stores.
            let text = unbroken.state_save().to_string();
            let state = Json::parse(&text).expect("state JSON parses");
            let mut restored = fresh();
            if let Err(e) = restored.state_load(&state) {
                return ddn_testkit::TestResult::fail(format!(
                    "{name}: load of own saved state failed: {e}"
                ));
            }

            push_all(unbroken.as_mut(), &recs[split..]);
            push_all(restored.as_mut(), &recs[split..]);

            if let Err(e) = estimates_identical(unbroken.as_ref(), restored.as_ref()) {
                return ddn_testkit::TestResult::fail(format!(
                    "{name} diverged after split {split}/{n}: {e}"
                ));
            }
            prop_assert_eq!(unbroken.len(), restored.len());
            // The strongest form: the states themselves re-serialize to
            // identical bytes, so a second crash recovers identically too.
            prop_assert!(
                unbroken.state_save().to_string() == restored.state_save().to_string(),
                "{} re-saved state diverged after split {}/{}",
                name, split, n
            );
        }
    }

    /// The windowed wrapper holds the hardest state — the record ring
    /// itself plus the eviction count. Same contract: split anywhere
    /// (including mid-eviction), round-trip through text, finish the
    /// stream, and the estimate and re-saved state are bit-identical.
    fn sliding_window_state_survives_a_text_roundtrip(
        seed in 0u64..1_000_000,
        n in 1usize..60,
        split_frac in 0usize..61,
        capacity in 1usize..12,
    ) {
        let recs = edge_records(n, seed);
        let split = split_frac * n / 61;
        let mut unbroken =
            SlidingWindow::new(OnlineIps::new(space(), policy()).unwrap(), capacity);
        for rec in &recs[..split] {
            unbroken.push(rec);
        }
        let text = unbroken.state_save().to_string();
        let state = Json::parse(&text).expect("state JSON parses");
        let mut restored =
            SlidingWindow::new(OnlineIps::new(space(), policy()).unwrap(), capacity);
        if let Err(e) = restored.state_load(&state) {
            return ddn_testkit::TestResult::fail(format!("window load failed: {e}"));
        }
        for rec in &recs[split..] {
            unbroken.push(rec);
            restored.push(rec);
        }
        prop_assert_eq!(unbroken.len(), restored.len());
        prop_assert_eq!(unbroken.evicted(), restored.evicted());
        match (unbroken.estimate(), restored.estimate()) {
            (Ok(a), Ok(b)) => prop_assert!(
                a.value.to_bits() == b.value.to_bits() && a.n == b.n,
                "window estimate diverged: {:?} vs {:?}", a.value, b.value
            ),
            (Err(a), Err(b)) => prop_assert_eq!(format!("{}", a), format!("{}", b)),
            (a, b) => return ddn_testkit::TestResult::fail(format!(
                "window Ok/Err mismatch: {a:?} vs {b:?}"
            )),
        }
        prop_assert!(
            unbroken.state_save().to_string() == restored.state_save().to_string(),
            "window re-saved state diverged"
        );
    }

    /// A state saved by one estimator kind must be refused by every
    /// other, leaving the refusing estimator's state untouched.
    fn foreign_state_is_refused_without_corruption(
        seed in 0u64..1_000_000,
        n in 1usize..30,
    ) {
        let recs = edge_records(n, seed);
        let m = menu();
        for (i, (name_a, fresh_a)) in m.iter().enumerate() {
            let mut donor = fresh_a();
            push_all(donor.as_mut(), &recs);
            let foreign = donor.state_save();
            let (name_b, fresh_b) = &m[(i + 1) % m.len()];
            let mut victim = fresh_b();
            push_all(victim.as_mut(), &recs[..n / 2]);
            let before = victim.state_save().to_string();
            prop_assert!(
                victim.state_load(&foreign).is_err(),
                "{} accepted state saved by {}", name_b, name_a
            );
            prop_assert!(
                victim.state_save().to_string() == before,
                "{} state changed by a refused load", name_b
            );
        }
    }
}

#[test]
fn negative_zero_sum_identity_survives_the_roundtrip() {
    // Before any record, IPS's contribution sum is -0.0 (the empty-sum
    // identity): fold in +0.0-weighted contributions and the sign of the
    // running sum still matters to downstream bit-identity. Save at the
    // pristine point and after a zero-weight record; both must restore
    // exactly.
    let c = Context::build(&schema()).set_cat("g", 0).finish();
    // Decision "a" (index 0) has probability 0 under the constant-"b"
    // policy: weight 0, contribution +0.0 — the sum stays -0.0 + 0.0 = 0.0.
    let zero_weight = TraceRecord::new(c, Decision::from_index(0), 5.0).with_propensity(0.5);

    let mut pristine = OnlineIps::new(space(), policy()).unwrap();
    let saved = pristine.state_save();
    let mut restored = OnlineIps::new(space(), policy()).unwrap();
    restored.state_load(&saved).unwrap();
    assert_eq!(
        pristine.state_save().to_string(),
        restored.state_save().to_string()
    );

    pristine.push(&zero_weight).unwrap();
    let mut after = OnlineIps::new(space(), policy()).unwrap();
    after.state_load(&pristine.state_save()).unwrap();
    assert_eq!(
        pristine.estimate().unwrap().value.to_bits(),
        after.estimate().unwrap().value.to_bits()
    );
    assert_eq!(
        pristine.state_save().to_string(),
        after.state_save().to_string()
    );
}

#[test]
fn window_capacity_mismatch_is_refused() {
    // A windowed state carries as many records as its capacity allowed;
    // loading it into a smaller window would silently drop records, so
    // it must error instead.
    let recs = edge_records(12, 99);
    let mut big = SlidingWindow::new(OnlineIps::new(space(), policy()).unwrap(), 10);
    for rec in &recs {
        big.push(rec);
    }
    let state = big.state_save();
    let mut small = SlidingWindow::new(OnlineIps::new(space(), policy()).unwrap(), 4);
    match small.state_load(&state) {
        Err(EstimatorError::State(msg)) => {
            assert!(msg.contains("capacity"), "unhelpful message: {msg}")
        }
        other => panic!("expected a capacity refusal, got {other:?}"),
    }
    assert_eq!(small.len(), 0, "refused load must not install records");
}
