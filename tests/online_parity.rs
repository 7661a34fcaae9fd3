//! Property-based tests (ddn-testkit) for the streaming-estimator
//! contract: replaying a trace record-by-record through each `Online*`
//! estimator yields estimates that are **bit-identical** to the batch
//! engine over the same records in the same order — values, weight
//! diagnostics, and errors alike. This is the invariant the ddn-serve
//! ingest path leans on: a served session must never drift from what
//! `ddn evaluate` would print for the same trace.
//!
//! Every property runs 64 cases (ddn-testkit's default) drawn from a fixed
//! per-property seed; `DDN_TESTKIT_CASES` / `DDN_TESTKIT_SEED` crank the
//! volume or reseed.

use ddn::estimators::{
    ActionEmbedding, AdaptiveDr, AdaptiveIps, AdaptiveWeights, BatchEstimator, ClippedIps,
    DirectMethod, DoublyRobust, Estimate, Estimator, EstimatorError, EvalBatch, Ips,
    MarginalizedDr, OnlineAdaptiveDr, OnlineAdaptiveIps, OnlineClippedIps, OnlineDm, OnlineDr,
    OnlineEstimate, OnlineEstimator, OnlineIps, OnlineMarginalizedDr, OnlineSeqDr, OnlineSnips,
    SelfNormalizedIps, SeqDr, SlidingWindow,
};
use ddn::models::FnModel;
use ddn::policy::{EpsilonSmoothedPolicy, LookupPolicy, Policy, UniformRandomPolicy};
use ddn::trace::{Context, ContextSchema, Decision, DecisionSpace, Trace, TraceRecord};
use ddn_testkit::{prop, prop_assert, prop_assert_eq, vecs, Gen};

fn schema() -> ContextSchema {
    ContextSchema::builder()
        .categorical("g", 3)
        .numeric("x")
        .build()
}

fn space() -> DecisionSpace {
    DecisionSpace::of(&["a", "b", "c"])
}

fn ctx(g: u32, x: f64) -> Context {
    Context::build(&schema())
        .set_cat("g", g)
        .set_numeric("x", x)
        .finish()
}

/// Generator: a random logged record as (g, x, decision, reward, propensity).
fn record_gen() -> impl Gen<Value = (u32, f64, usize, f64, f64)> {
    (
        0u32..3,
        -100.0..100.0f64,
        0usize..3,
        -50.0..50.0f64,
        0.05..1.0f64,
    )
}

fn build_records(rows: &[(u32, f64, usize, f64, f64)]) -> Vec<TraceRecord> {
    rows.iter()
        .map(|&(g, x, d, r, p)| {
            TraceRecord::new(ctx(g, x), Decision::from_index(d), r).with_propensity(p)
        })
        .collect()
}

fn build_trace(rows: &[(u32, f64, usize, f64, f64)]) -> Trace {
    Trace::from_records(schema(), space(), build_records(rows)).expect("valid random trace")
}

/// Shared reward model: depends on both context fields and the decision,
/// so DM/DR contributions genuinely vary per record.
fn parity_score(c: &Context, d: Decision) -> f64 {
    c.cat(0) as f64 * 1.3 + 0.7 * d.index() as f64 - 0.01 * c.num(1)
}

fn parity_model() -> FnModel<fn(&Context, Decision) -> f64> {
    FnModel::new(parity_score as fn(&Context, Decision) -> f64)
}

/// A mildly stochastic target policy: mostly-constant with an ε of
/// exploration, so importance weights vary without ever being undefined.
fn target_policy(base: usize, eps: f64) -> EpsilonSmoothedPolicy {
    EpsilonSmoothedPolicy::new(Box::new(LookupPolicy::constant(space(), base)), eps)
}

/// Streams the whole trace through `online`, then checks the result
/// against the batch outcome: Ok/Ok must agree bit-for-bit on the value,
/// the record count, and every weight diagnostic; Err/Err must be the
/// same error (including the record index it carries).
fn check_stream_parity(
    online: &mut dyn OnlineEstimator,
    batch: Result<Estimate, EstimatorError>,
    trace: &Trace,
) -> Result<(), String> {
    let name = online.name().to_string();
    let streamed: Result<OnlineEstimate, EstimatorError> = (|| {
        for rec in trace.records() {
            online.push(rec)?;
        }
        online.estimate()
    })();
    match (streamed, batch) {
        (Ok(o), Ok(b)) => {
            if o.value.to_bits() != b.value.to_bits() {
                return Err(format!(
                    "{name}: value {} (batch {}) differ",
                    o.value, b.value
                ));
            }
            if o.n != b.per_record.len() {
                return Err(format!(
                    "{name}: n {} != batch record count {}",
                    o.n,
                    b.per_record.len()
                ));
            }
            let (od, bd) = (&o.diagnostics, &b.diagnostics);
            for (field, x, y) in [
                ("mean_weight", od.mean_weight, bd.mean_weight),
                ("max_weight", od.max_weight, bd.max_weight),
                ("ess", od.effective_sample_size, bd.effective_sample_size),
                (
                    "zero_weight_fraction",
                    od.zero_weight_fraction,
                    bd.zero_weight_fraction,
                ),
            ] {
                if x.to_bits() != y.to_bits() {
                    return Err(format!(
                        "{name}: diagnostics.{field} {x} (batch {y}) differ"
                    ));
                }
            }
            if od.n != bd.n {
                return Err(format!("{name}: diagnostics.n {} != {}", od.n, bd.n));
            }
            Ok(())
        }
        (Err(a), Err(b)) => {
            let (a, b) = (format!("{a:?}"), format!("{b:?}"));
            if a == b {
                Ok(())
            } else {
                Err(format!("{name}: errors differ: online {a} vs batch {b}"))
            }
        }
        (Ok(_), Err(e)) => Err(format!("{name}: online Ok, batch Err {e:?}")),
        (Err(e), Ok(_)) => Err(format!("{name}: online Err {e:?}, batch Ok")),
    }
}

/// Checks that two offline engines (scalar vs columnar) produced the
/// same outcome bit-for-bit: value, per-record contributions, and weight
/// diagnostics on success; the same error otherwise.
fn check_engine_agreement(
    name: &str,
    scalar: &Result<Estimate, EstimatorError>,
    batch: &Result<Estimate, EstimatorError>,
) -> Result<(), String> {
    match (scalar, batch) {
        (Ok(s), Ok(b)) => {
            if s.value.to_bits() != b.value.to_bits() {
                return Err(format!(
                    "{name}: scalar value {} != columnar {}",
                    s.value, b.value
                ));
            }
            if s.per_record.len() != b.per_record.len() {
                return Err(format!(
                    "{name}: contribution counts differ: {} vs {}",
                    s.per_record.len(),
                    b.per_record.len()
                ));
            }
            for (k, (x, y)) in s.per_record.iter().zip(&b.per_record).enumerate() {
                if x.to_bits() != y.to_bits() {
                    return Err(format!("{name}: contribution {k}: {x} vs {y}"));
                }
            }
            if s.diagnostics.max_weight.to_bits() != b.diagnostics.max_weight.to_bits() {
                return Err(format!("{name}: max_weight diverged"));
            }
            Ok(())
        }
        (Err(a), Err(b)) => {
            let (a, b) = (format!("{a:?}"), format!("{b:?}"));
            if a == b {
                Ok(())
            } else {
                Err(format!("{name}: scalar err {a} vs columnar err {b}"))
            }
        }
        (Ok(_), Err(e)) => Err(format!("{name}: scalar Ok, columnar Err {e:?}")),
        (Err(e), Ok(_)) => Err(format!("{name}: scalar Err {e:?}, columnar Ok")),
    }
}

/// A 3-arm embedding that genuinely marginalizes: arms a and b share
/// group 0, arm c is group 1 by itself.
fn grouped_embedding() -> ActionEmbedding {
    ActionEmbedding::from_groups(vec![0, 0, 1])
}

prop! {
    // ---- Tentpole invariant: online ≡ batch, bit for bit ---------------

    fn online_menu_matches_batch(rows in vecs(record_gen(), 1..40), base in 0usize..3, eps in 0.0..1.0f64) {
        let trace = build_trace(&rows);
        let policy = target_policy(base, eps);
        let model = parity_model();
        let batch = EvalBatch::with_model(&trace, &policy, &model).unwrap();
        let newp = || -> Box<dyn Policy + Send + Sync> { Box::new(target_policy(base, eps)) };
        let newm = || -> Box<dyn ddn::models::RewardModel + Send + Sync> { Box::new(parity_model()) };

        let mut menu: Vec<(Box<dyn OnlineEstimator>, Result<Estimate, EstimatorError>)> = vec![
            (
                Box::new(OnlineIps::new(space(), newp()).unwrap()),
                Ips::new().estimate_batch(&trace, &batch),
            ),
            (
                Box::new(OnlineSnips::new(space(), newp()).unwrap()),
                SelfNormalizedIps::new().estimate_batch(&trace, &batch),
            ),
            (
                Box::new(OnlineClippedIps::new(space(), newp(), 2.0).unwrap()),
                ClippedIps::new(2.0).estimate_batch(&trace, &batch),
            ),
            (
                Box::new(OnlineDm::new(space(), newp(), newm()).unwrap()),
                DirectMethod::new(parity_model()).estimate_batch(&trace, &batch),
            ),
            (
                Box::new(OnlineDr::new(space(), newp(), newm()).unwrap()),
                DoublyRobust::new(parity_model()).estimate_batch(&trace, &batch),
            ),
        ];
        for (mut online, batch_result) in menu.drain(..) {
            if let Err(msg) = check_stream_parity(online.as_mut(), batch_result, &trace) {
                prop_assert!(false, "{}", msg);
            }
        }
    }

    // ---- Menu trio: scalar ≡ columnar ≡ online, bit for bit ------------

    fn menu_trio_matches_all_engines(rows in vecs(record_gen(), 1..40), base in 0usize..3, eps in 0.0..1.0f64, horizon in 1usize..5) {
        let trace = build_trace(&rows);
        let policy = target_policy(base, eps);
        let model = parity_model();
        let batch = EvalBatch::with_model(&trace, &policy, &model).unwrap();
        let newp = || -> Box<dyn Policy + Send + Sync> { Box::new(target_policy(base, eps)) };
        let newm = || -> Box<dyn ddn::models::RewardModel + Send + Sync> { Box::new(parity_model()) };
        let logging = || -> Box<dyn Policy + Send + Sync> { Box::new(UniformRandomPolicy::new(space())) };

        // When the trace is shorter than the horizon, SeqDr has zero
        // complete trajectories and all three engines must reject it with
        // the same NoUsableRecords — the Err/Err arms below cover that.
        // Each row: the online estimator, then the scalar and batch
        // estimates it must match.
        type Row = (
            Box<dyn OnlineEstimator>,
            Result<Estimate, EstimatorError>,
            Result<Estimate, EstimatorError>,
        );
        let mut menu: Vec<Row> = vec![
            (
                Box::new(OnlineAdaptiveIps::new(space(), newp(), AdaptiveWeights::Stabilized).unwrap()),
                AdaptiveIps::new(AdaptiveWeights::Stabilized).estimate(&trace, &policy),
                AdaptiveIps::new(AdaptiveWeights::Stabilized).estimate_batch(&trace, &batch),
            ),
            (
                Box::new(OnlineAdaptiveDr::new(space(), newp(), newm(), AdaptiveWeights::Stabilized).unwrap()),
                AdaptiveDr::new(parity_model(), AdaptiveWeights::Stabilized).estimate(&trace, &policy),
                AdaptiveDr::new(parity_model(), AdaptiveWeights::Stabilized).estimate_batch(&trace, &batch),
            ),
            (
                Box::new(OnlineMarginalizedDr::new(space(), newp(), logging(), newm(), grouped_embedding()).unwrap()),
                MarginalizedDr::new(parity_model(), grouped_embedding(), logging()).estimate(&trace, &policy),
                MarginalizedDr::new(parity_model(), grouped_embedding(), logging()).estimate_batch(&trace, &batch),
            ),
            (
                Box::new(OnlineSeqDr::new(space(), newp(), newm(), horizon).unwrap()),
                SeqDr::new(parity_model(), horizon).estimate(&trace, &policy),
                SeqDr::new(parity_model(), horizon).estimate_batch(&trace, &batch),
            ),
        ];
        for (mut online, scalar, batch_result) in menu.drain(..) {
            let name = online.name().to_string();
            if let Err(msg) = check_engine_agreement(&name, &scalar, &batch_result) {
                prop_assert!(false, "{}", msg);
            }
            if let Err(msg) = check_stream_parity(online.as_mut(), batch_result, &trace) {
                prop_assert!(false, "{}", msg);
            }
        }
    }

    // ---- Menu trio behind a sliding window ≡ batch over the tail -------

    fn windowed_trio_equals_batch_over_tail(rows in vecs(record_gen(), 1..60), cap in 1usize..50, horizon in 1usize..4) {
        let policy = target_policy(2, 0.4);
        let newp = || -> Box<dyn Policy + Send + Sync> { Box::new(target_policy(2, 0.4)) };
        let newm = || -> Box<dyn ddn::models::RewardModel + Send + Sync> { Box::new(parity_model()) };
        let logging = || -> Box<dyn Policy + Send + Sync> { Box::new(UniformRandomPolicy::new(space())) };
        let tail_start = rows.len().saturating_sub(cap);
        let tail = build_trace(&rows[tail_start..]);

        let mut adaptive = SlidingWindow::new(
            OnlineAdaptiveIps::new(space(), newp(), AdaptiveWeights::Stabilized).unwrap(),
            cap,
        );
        let mut mdr = SlidingWindow::new(
            OnlineMarginalizedDr::new(space(), newp(), logging(), newm(), grouped_embedding()).unwrap(),
            cap,
        );
        let mut seq = SlidingWindow::new(
            OnlineSeqDr::new(space(), newp(), newm(), horizon).unwrap(),
            cap,
        );
        for rec in build_trace(&rows).records() {
            adaptive.push(rec);
            mdr.push(rec);
            seq.push(rec);
        }

        let batch = AdaptiveIps::new(AdaptiveWeights::Stabilized).estimate(&tail, &policy).unwrap();
        let online = adaptive.estimate().unwrap();
        prop_assert_eq!(online.value.to_bits(), batch.value.to_bits());
        prop_assert_eq!(online.n, rows.len() - tail_start);

        let batch = MarginalizedDr::new(parity_model(), grouped_embedding(), logging())
            .estimate(&tail, &policy)
            .unwrap();
        let online = mdr.estimate().unwrap();
        prop_assert_eq!(online.value.to_bits(), batch.value.to_bits());

        // The window can be shorter than the horizon; replay and batch
        // must then agree on NoUsableRecords rather than a value.
        match (seq.estimate(), SeqDr::new(parity_model(), horizon).estimate(&tail, &policy)) {
            (Ok(o), Ok(b)) => {
                prop_assert_eq!(o.value.to_bits(), b.value.to_bits());
                prop_assert_eq!(o.n, b.per_record.len());
            }
            (Err(a), Err(b)) => prop_assert_eq!(format!("{a:?}"), format!("{b:?}")),
            (o, b) => prop_assert!(false, "SeqDR windowed/batch split: {:?} vs {:?}", o.is_ok(), b.is_ok()),
        }
    }

    // ---- Edge: a missing propensity fails identically ------------------

    fn missing_propensity_error_parity(rows in vecs(record_gen(), 2..40), hole_seed in 0usize..1_000) {
        let hole = hole_seed % rows.len();
        let records: Vec<TraceRecord> = rows
            .iter()
            .enumerate()
            .map(|(k, &(g, x, d, r, p))| {
                let rec = TraceRecord::new(ctx(g, x), Decision::from_index(d), r);
                if k == hole { rec } else { rec.with_propensity(p) }
            })
            .collect();
        let trace = Trace::from_records(schema(), space(), records).unwrap();
        let policy = target_policy(1, 0.3);
        let newp = || -> Box<dyn Policy + Send + Sync> { Box::new(target_policy(1, 0.3)) };

        // Every weight-based family: the online push must fail at exactly
        // the hole, with the batch twin's exact error.
        let mut online = OnlineIps::new(space(), newp()).unwrap();
        if let Err(msg) =
            check_stream_parity(&mut online, Ips::new().estimate(&trace, &policy), &trace)
        {
            prop_assert!(false, "{}", msg);
        }
        // A failed push rejects the record without corrupting state: the
        // records before the hole are still in, nothing after got pushed.
        prop_assert_eq!(online.len(), hole);

        let mut snips = OnlineSnips::new(space(), newp()).unwrap();
        if let Err(msg) = check_stream_parity(
            &mut snips,
            SelfNormalizedIps::new().estimate(&trace, &policy),
            &trace,
        ) {
            prop_assert!(false, "{}", msg);
        }

        // DM never needs propensities: both sides succeed on the same trace.
        let mut dm = OnlineDm::new(space(), newp(), Box::new(parity_model())).unwrap();
        if let Err(msg) = check_stream_parity(
            &mut dm,
            DirectMethod::new(parity_model()).estimate(&trace, &policy),
            &trace,
        ) {
            prop_assert!(false, "{}", msg);
        }
        prop_assert_eq!(dm.len(), rows.len());

        // AdaptiveIPS and SeqDR weight every record, so the push rejects
        // the hole exactly like IPS does — same error, same survivors.
        let mut adaptive =
            OnlineAdaptiveIps::new(space(), newp(), AdaptiveWeights::Stabilized).unwrap();
        if let Err(msg) = check_stream_parity(
            &mut adaptive,
            AdaptiveIps::new(AdaptiveWeights::Stabilized).estimate(&trace, &policy),
            &trace,
        ) {
            prop_assert!(false, "{}", msg);
        }
        prop_assert_eq!(adaptive.len(), hole);

        let mut seq = OnlineSeqDr::new(space(), newp(), Box::new(parity_model()), 2).unwrap();
        if let Err(msg) = check_stream_parity(
            &mut seq,
            SeqDr::new(parity_model(), 2).estimate(&trace, &policy),
            &trace,
        ) {
            prop_assert!(false, "{}", msg);
        }
        prop_assert_eq!(seq.len(), hole);

        // MarginalizedDR's denominators come from the logging *policy*,
        // never the recorded propensity — like DM it ingests the hole.
        let mut mdr = OnlineMarginalizedDr::new(
            space(),
            newp(),
            Box::new(UniformRandomPolicy::new(space())),
            Box::new(parity_model()),
            grouped_embedding(),
        )
        .unwrap();
        if let Err(msg) = check_stream_parity(
            &mut mdr,
            MarginalizedDr::new(
                parity_model(),
                grouped_embedding(),
                Box::new(UniformRandomPolicy::new(space())),
            )
            .estimate(&trace, &policy),
            &trace,
        ) {
            prop_assert!(false, "{}", msg);
        }
        prop_assert_eq!(mdr.len(), rows.len());

        // And if the hole is not at the front, the surviving prefix still
        // estimates — bit-identical to the batch over just that prefix.
        if hole > 0 {
            let prefix = build_trace(&rows[..hole]);
            let batch_prefix = Ips::new().estimate(&prefix, &policy).unwrap();
            let o = online.estimate().unwrap();
            prop_assert_eq!(o.value.to_bits(), batch_prefix.value.to_bits());
            prop_assert_eq!(o.n, hole);
        }
    }

    // ---- Edge: zero overlap (every importance weight is zero) ----------

    fn zero_overlap_parity(rows in vecs((0u32..3, -100.0..100.0f64, 0usize..2, -50.0..50.0f64, 0.05..1.0f64), 1..40)) {
        // Logged decisions only ever hit {a, b}; the target policy always
        // plays c. Every weight is zero: IPS degenerates to exactly 0.0,
        // SNIPS has no weight mass and must error — identically online
        // and offline.
        let trace = build_trace(&rows);
        let policy = LookupPolicy::constant(space(), 2);
        let newp = || -> Box<dyn Policy + Send + Sync> { Box::new(LookupPolicy::constant(space(), 2)) };

        let mut ips = OnlineIps::new(space(), newp()).unwrap();
        if let Err(msg) =
            check_stream_parity(&mut ips, Ips::new().estimate(&trace, &policy), &trace)
        {
            prop_assert!(false, "{}", msg);
        }
        let est = ips.estimate().unwrap();
        // Exactly zero (the sign of the zero tracks the contribution
        // signs and is already pinned by the bit-parity check above).
        prop_assert_eq!(est.value, 0.0);
        prop_assert_eq!(est.diagnostics.zero_weight_fraction.to_bits(), 1.0f64.to_bits());

        let mut snips = OnlineSnips::new(space(), newp()).unwrap();
        if let Err(msg) = check_stream_parity(
            &mut snips,
            SelfNormalizedIps::new().estimate(&trace, &policy),
            &trace,
        ) {
            prop_assert!(false, "{}", msg);
        }
        for rec in trace.records() {
            snips.push(rec).unwrap();
        }
        let err = match snips.estimate() {
            Err(e) => format!("{e:?}"),
            Ok(e) => panic!("SNIPS must reject zero weight mass, got {e:?}"),
        };
        prop_assert!(err.contains("NoUsableRecords"), "unexpected error {}", err);

        // AdaptiveIPS: the stabilizers are weight-independent, so the
        // weighted average of all-zero contributions is exactly zero —
        // and bit-identical across the engines.
        let mut adaptive =
            OnlineAdaptiveIps::new(space(), newp(), AdaptiveWeights::Stabilized).unwrap();
        if let Err(msg) = check_stream_parity(
            &mut adaptive,
            AdaptiveIps::new(AdaptiveWeights::Stabilized).estimate(&trace, &policy),
            &trace,
        ) {
            prop_assert!(false, "{}", msg);
        }
        let est = adaptive.estimate().unwrap();
        prop_assert_eq!(est.value, 0.0);
        prop_assert_eq!(est.diagnostics.zero_weight_fraction.to_bits(), 1.0f64.to_bits());

        // SeqDR: every per-step correction is killed by the zero weight,
        // so each trajectory collapses to its first step's direct-method
        // term — still bit-identical online vs offline.
        let mut seq = OnlineSeqDr::new(space(), newp(), Box::new(parity_model()), 1).unwrap();
        if let Err(msg) = check_stream_parity(
            &mut seq,
            SeqDr::new(parity_model(), 1).estimate(&trace, &policy),
            &trace,
        ) {
            prop_assert!(false, "{}", msg);
        }

        // MarginalizedDR with the identity embedding: the target group
        // mass sits entirely on `c`, which is never logged, so marginal
        // weights are all zero and the estimate is the pure DM term.
        let mut mdr = OnlineMarginalizedDr::new(
            space(),
            newp(),
            Box::new(UniformRandomPolicy::new(space())),
            Box::new(parity_model()),
            ActionEmbedding::identity(3),
        )
        .unwrap();
        if let Err(msg) = check_stream_parity(
            &mut mdr,
            MarginalizedDr::new(
                parity_model(),
                ActionEmbedding::identity(3),
                Box::new(UniformRandomPolicy::new(space())),
            )
            .estimate(&trace, &policy),
            &trace,
        ) {
            prop_assert!(false, "{}", msg);
        }
        let est = mdr.estimate().unwrap();
        prop_assert_eq!(est.diagnostics.zero_weight_fraction.to_bits(), 1.0f64.to_bits());
    }

    // ---- Sliding window ≡ batch over the window's records --------------

    fn sliding_window_equals_batch_over_tail(rows in vecs(record_gen(), 1..60), cap in 1usize..50) {
        let policy = target_policy(0, 0.5);
        let mut windowed = SlidingWindow::new(
            OnlineIps::new(space(), Box::new(target_policy(0, 0.5))).unwrap(),
            cap,
        );
        for rec in build_trace(&rows).records() {
            windowed.push(rec);
        }
        let tail_start = rows.len().saturating_sub(cap);
        let tail = build_trace(&rows[tail_start..]);
        let batch = Ips::new().estimate(&tail, &policy).unwrap();
        let online = windowed.estimate().unwrap();
        prop_assert_eq!(online.value.to_bits(), batch.value.to_bits());
        prop_assert_eq!(online.n, rows.len() - tail_start);
        prop_assert_eq!(windowed.evicted(), tail_start as u64);
    }
}
