//! Property-based tests (ddn-testkit) for the DESIGN.md invariant list:
//! policy normalization, the DR special cases, serialization stability,
//! simulator determinism, and statistics-substrate identities — all over
//! randomized inputs.
//!
//! Every property runs 64 cases (ddn-testkit's default) drawn from a fixed
//! per-property seed, so the whole suite is reproducible bit-for-bit;
//! `DDN_TESTKIT_CASES` / `DDN_TESTKIT_SEED` crank the volume or reseed.

use ddn::abr::throughput::{Bandwidth, ThroughputDiscount};
use ddn::abr::{BitrateLadder, QoeModel, Session, SessionConfig};
use ddn::estimators::state_aware::MatchOnly;
use ddn::estimators::{
    ActionEmbedding, AdaptiveDr, AdaptiveIps, AdaptiveWeights, BatchEstimator, ClippedIps,
    CrossFitDr, DirectMethod, DoublyRobust, Estimator, EvalBatch, Ips, MarginalizedDr,
    MatchingEstimator, OverlapReport, ReplayEvaluator, SelfNormalizedIps, SeqDr, StateAwareDr,
    SwitchDr,
};
use ddn::models::{ConstantModel, FnModel, TabularMeanModel};
use ddn::netsim::{small_world, RateProfile};
use ddn::policy::{
    EpsilonSmoothedPolicy, GreedyPolicy, LookupPolicy, MixturePolicy, Policy, SoftmaxPolicy,
    StationaryAsHistory, UniformRandomPolicy,
};
use ddn::relay::{emodel_mos, PathMetrics};
use ddn::stats::changepoint::{pelt, segments, CostModel, Penalty};
use ddn::stats::summary::{quantile, Summary, Welford};
use ddn::stats::ttest::{paired_t_test, t_two_sided_p, welch_t_test};
use ddn::stats::{Categorical, Distribution, Rng, Xoshiro256};
use ddn::trace::{
    Context, ContextSchema, Decision, DecisionSpace, EmpiricalPropensity, StateTag, Trace,
    TraceError, TraceRecord,
};
use ddn_testkit::{prop, prop_assert, prop_assert_eq, prop_assume, strings_from, vecs, Gen};

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

/// The printable-ASCII-plus-newline alphabet the garbage-input properties
/// draw from (the old proptest regex class `[ -~\n]`).
fn printable() -> String {
    let mut a: String = (' '..='~').collect();
    a.push('\n');
    a
}

fn build_trace(rows: &[(u32, f64, usize, f64, f64)]) -> Trace {
    let records = rows
        .iter()
        .map(|&(g, x, d, r, p)| {
            TraceRecord::new(ctx(g, x), Decision::from_index(d), r).with_propensity(p)
        })
        .collect();
    Trace::from_records(schema(), space(), records).expect("valid random trace")
}

/// Shared reward model for the batch-parity properties: depends on both
/// context fields and the decision, so cached scores genuinely vary.
fn parity_score(c: &Context, d: Decision) -> f64 {
    c.cat(0) as f64 * 1.3 + 0.7 * d.index() as f64 - 0.01 * c.num(1)
}

fn parity_model() -> FnModel<fn(&Context, Decision) -> f64> {
    FnModel::new(parity_score as fn(&Context, Decision) -> f64)
}

/// The health records a collector saw, with every value as its bits.
fn health_bits(c: &ddn::telemetry::Collector) -> Vec<(String, Vec<(&'static str, u64)>)> {
    let bits = |m: &[(&'static str, f64)]| m.iter().map(|&(k, v)| (k, v.to_bits())).collect();
    c.health.iter().map(|(s, m)| (s.clone(), bits(m))).collect()
}

/// Checks that `estimate` and `estimate_batch` agree bit-for-bit — same
/// value bits, same per-record bits, or the same error — and that, under
/// a telemetry collector, both emit the same health metrics.
fn check_batch_parity(
    est: &dyn BatchEstimator,
    trace: &Trace,
    policy: &dyn Policy,
    batch: &EvalBatch,
) -> Result<(), String> {
    let (plain, plain_seen) = ddn::telemetry::collect(|| est.estimate(trace, policy));
    let (batched, batched_seen) = ddn::telemetry::collect(|| est.estimate_batch(trace, batch));
    let (a, b) = (health_bits(&plain_seen), health_bits(&batched_seen));
    if a != b {
        return Err(format!(
            "{}: health {a:?} (batched {b:?}) differ",
            est.name()
        ));
    }
    match (plain, batched) {
        (Ok(a), Ok(b)) => {
            if a.value.to_bits() != b.value.to_bits() {
                return Err(format!(
                    "{}: value {} (batched {}) differ",
                    est.name(),
                    a.value,
                    b.value
                ));
            }
            if a.per_record.len() != b.per_record.len() {
                return Err(format!("{}: per_record lengths differ", est.name()));
            }
            for (i, (x, y)) in a.per_record.iter().zip(&b.per_record).enumerate() {
                if x.to_bits() != y.to_bits() {
                    return Err(format!(
                        "{}: per_record[{i}] {x} (batched {y}) differ",
                        est.name()
                    ));
                }
            }
            Ok(())
        }
        (Err(a), Err(b)) => {
            let (a, b) = (format!("{a:?}"), format!("{b:?}"));
            if a == b {
                Ok(())
            } else {
                Err(format!("{}: errors differ: {a} vs {b}", est.name()))
            }
        }
        (Ok(_), Err(e)) => Err(format!("{}: plain Ok, batched Err {e:?}", est.name())),
        (Err(e), Ok(_)) => Err(format!("{}: plain Err {e:?}, batched Ok", est.name())),
    }
}

/// Runs the whole stationary estimator menu through [`check_batch_parity`]
/// against one shared batch: the adaptive pair with stabilized weights,
/// marginalized DR over a grouped embedding under a non-uniform logging
/// policy, and SeqDR at horizon 3, so most traces end in a partial
/// trajectory.
fn menu_batch_parity(trace: &Trace, policy: &dyn Policy) -> Result<(), String> {
    let model = parity_model();
    let batch = EvalBatch::with_model(trace, policy, &model)
        .map_err(|e| format!("batch build failed: {e:?}"))?;
    let fit = |tr: &Trace| TabularMeanModel::fit_trace(tr, 1.0);
    let logging = EpsilonSmoothedPolicy::new(Box::new(LookupPolicy::constant(space(), 2)), 0.4);
    let menu: Vec<Box<dyn BatchEstimator>> = vec![
        Box::new(Ips::new()),
        Box::new(SelfNormalizedIps::new()),
        Box::new(ClippedIps::new(2.0)),
        Box::new(DirectMethod::new(&model)),
        Box::new(DoublyRobust::new(&model)),
        Box::new(SwitchDr::new(&model, 2.0)),
        Box::new(MatchingEstimator::new()),
        Box::new(CrossFitDr::new(3, fit)),
        Box::new(AdaptiveIps::new(AdaptiveWeights::Stabilized)),
        Box::new(AdaptiveDr::new(&model, AdaptiveWeights::Stabilized)),
        Box::new(MarginalizedDr::new(
            &model,
            ActionEmbedding::from_groups(vec![0, 0, 1]),
            Box::new(logging),
        )),
        Box::new(SeqDr::new(&model, 3)),
    ];
    for est in &menu {
        check_batch_parity(est.as_ref(), trace, policy, &batch)?;
    }
    Ok(())
}

prop! {
    // ---- Invariant 1: policies are probability distributions ----------

    fn softmax_probabilities_normalized(tau in 0.05..10.0f64, s1 in -5.0..5.0f64, s2 in -5.0..5.0f64, s3 in -5.0..5.0f64) {
        let scores = [s1, s2, s3];
        let p = SoftmaxPolicy::new(space(), tau, move |_c: &Context, d: Decision| scores[d.index()]);
        let probs = p.probabilities(&ctx(0, 0.0));
        let total: f64 = probs.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(probs.iter().all(|&q| (0.0..=1.0).contains(&q)));
    }

    fn epsilon_smoothing_normalized_and_floored(eps in 0.0..1.0f64, base in 0usize..3) {
        let p = EpsilonSmoothedPolicy::new(Box::new(LookupPolicy::constant(space(), base)), eps);
        let c = ctx(1, 3.0);
        let probs = p.probabilities(&c);
        prop_assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for &q in &probs {
            prop_assert!(q + 1e-12 >= p.propensity_floor());
        }
    }

    fn mixture_normalized(w1 in 0.01..10.0f64, w2 in 0.01..10.0f64) {
        let m = MixturePolicy::new(vec![
            (w1, Box::new(LookupPolicy::constant(space(), 0)) as Box<dyn Policy + Send + Sync>),
            (w2, Box::new(UniformRandomPolicy::new(space()))),
        ]);
        let probs = m.probabilities(&ctx(2, -1.0));
        prop_assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    fn sampling_follows_probabilities(seed in 0u64..1_000) {
        let p = SoftmaxPolicy::new(space(), 1.0, |_c: &Context, d: Decision| d.index() as f64);
        let c = ctx(0, 0.0);
        let mut rng = Xoshiro256::seed_from(seed);
        for _ in 0..50 {
            let (d, q) = p.sample_with_prob(&c, &mut rng);
            prop_assert!((q - p.prob(&c, d)).abs() < 1e-12);
            prop_assert!(q > 0.0);
        }
    }

    // ---- Invariants 2-4: estimator identities --------------------------

    fn dr_with_zero_model_is_ips(rows in vecs(record_gen(), 1..40)) {
        let trace = build_trace(&rows);
        let newp = LookupPolicy::constant(space(), 1);
        let dr = DoublyRobust::new(ConstantModel::zero()).estimate(&trace, &newp).unwrap();
        let ips = Ips::new().estimate(&trace, &newp).unwrap();
        prop_assert!((dr.value - ips.value).abs() < 1e-9);
    }

    fn dr_with_perfect_model_is_dm(rows in vecs(record_gen(), 1..40)) {
        // Build a trace whose rewards follow a known function exactly,
        // then hand DR that exact function as its model.
        let records: Vec<TraceRecord> = rows
            .iter()
            .map(|&(g, x, d, _, p)| {
                let reward = g as f64 * 2.0 + d as f64 - 0.01 * x;
                TraceRecord::new(ctx(g, x), Decision::from_index(d), reward).with_propensity(p)
            })
            .collect();
        let trace = Trace::from_records(schema(), space(), records).unwrap();
        let model = FnModel::new(|c: &Context, d: Decision| {
            c.cat(0) as f64 * 2.0 + d.index() as f64 - 0.01 * c.num(1)
        });
        let newp = UniformRandomPolicy::new(space());
        let dr = DoublyRobust::new(&model).estimate(&trace, &newp).unwrap();
        let dm = DirectMethod::new(&model).estimate(&trace, &newp).unwrap();
        prop_assert!((dr.value - dm.value).abs() < 1e-9);
    }

    fn on_policy_ips_is_trace_mean(rows in vecs(record_gen(), 1..40), seed in 0u64..100) {
        // Log under a uniform policy with correct propensities: IPS of the
        // same uniform policy equals the empirical mean exactly.
        let mut rng = Xoshiro256::seed_from(seed);
        let old = UniformRandomPolicy::new(space());
        let records: Vec<TraceRecord> = rows
            .iter()
            .map(|&(g, x, _, r, _)| {
                let c = ctx(g, x);
                let (d, p) = old.sample_with_prob(&c, &mut rng);
                TraceRecord::new(c, d, r).with_propensity(p)
            })
            .collect();
        let trace = Trace::from_records(schema(), space(), records).unwrap();
        let v = Ips::new().estimate(&trace, &old).unwrap().value;
        prop_assert!((v - trace.mean_reward()).abs() < 1e-9);
    }

    // ---- Invariant: serialization stability ----------------------------

    fn jsonl_roundtrip_is_identity(rows in vecs(record_gen(), 1..30)) {
        let trace = build_trace(&rows);
        let mut buf = Vec::new();
        trace.write_jsonl(&mut buf).unwrap();
        let back = Trace::read_jsonl(&buf[..]).unwrap();
        prop_assert_eq!(trace.records(), back.records());
        prop_assert_eq!(trace.space(), back.space());
    }

    // ---- Invariant: empirical propensities are distributions -----------

    fn empirical_propensity_normalized(rows in vecs(record_gen(), 1..40), smoothing in 0.0..2.0f64) {
        let trace = build_trace(&rows);
        let fitted = EmpiricalPropensity::fit(&trace, smoothing);
        for r in trace.records() {
            let total: f64 = (0..3)
                .map(|d| fitted.prob(&r.context, Decision::from_index(d)))
                .sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
        }
    }

    // ---- Invariant 6: simulator determinism -----------------------------

    fn netsim_deterministic_in_seed(seed in 0u64..50) {
        let world = small_world(RateProfile::Constant(5.0), 60.0);
        let policy = UniformRandomPolicy::new(world.space().clone());
        let a = world.run(&policy, seed);
        let b = world.run(&policy, seed);
        prop_assert_eq!(a.trace.records(), b.trace.records());
        prop_assert_eq!(a.load_proxy, b.load_proxy);
    }

    // ---- Invariant 7: ABR buffer dynamics -------------------------------

    fn abr_buffer_bounded(bandwidth in 300.0..5_000.0f64, level in 0usize..5, seed in 0u64..50) {
        let mut session = Session::new(
            BitrateLadder::five_level(),
            SessionConfig { chunks: 30, ..Default::default() },
            QoeModel::default(),
            Bandwidth::Constant(bandwidth),
            ThroughputDiscount::paper_default(),
        );
        let mut rng = Xoshiro256::seed_from(seed);
        while !session.finished() {
            let st = session.state();
            prop_assert!(st.buffer_secs >= 0.0);
            prop_assert!(st.buffer_secs <= 30.0 + 1e-9);
            let out = session.download(level, &mut rng);
            prop_assert!(out.rebuffer_secs >= 0.0);
            prop_assert!(out.observed_kbps <= bandwidth + 1e-9);
            prop_assert!(out.observed_kbps > 0.0);
        }
    }

    // ---- Invariant 9: change-point structure ----------------------------

    fn pelt_changepoints_well_formed(xs in vecs(-10.0..10.0f64, 20..120)) {
        let cps = pelt(&xs, CostModel::NormalMean, Penalty::Bic, 5);
        // Sorted, in range, respecting min_seg.
        let mut prev = 0usize;
        for &cp in &cps {
            prop_assert!(cp > prev);
            prop_assert!(cp < xs.len());
            prop_assert!(cp - prev >= 5);
            prev = cp;
        }
        if !cps.is_empty() {
            prop_assert!(xs.len() - prev >= 5);
        }
        // segments() partitions the series.
        let segs = segments(xs.len(), &cps);
        prop_assert_eq!(segs.first().unwrap().0, 0);
        prop_assert_eq!(segs.last().unwrap().1, xs.len());
        for w in segs.windows(2) {
            prop_assert_eq!(w[0].1, w[1].0);
        }
    }

    // ---- Statistics substrate identities --------------------------------

    fn welford_matches_two_pass(xs in vecs(-1e4..1e4f64, 2..200)) {
        let mut w = Welford::new();
        w.extend(xs.iter().copied());
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((w.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((w.variance() - var).abs() < 1e-6 * (1.0 + var));
        let s = Summary::of(&xs);
        prop_assert_eq!(s.count, xs.len() as u64);
    }

    fn quantile_bounded_and_monotone(xs in vecs(-1e3..1e3f64, 1..100), q1 in 0.0..1.0f64, q2 in 0.0..1.0f64) {
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let v1 = quantile(&xs, q1);
        prop_assert!(v1 >= lo - 1e-12 && v1 <= hi + 1e-12);
        let (qa, qb) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(quantile(&xs, qa) <= quantile(&xs, qb) + 1e-12);
    }

    fn categorical_pmf_normalized(weights in vecs(0.0..10.0f64, 1..20)) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let c = Categorical::new(&weights);
        prop_assert!((c.probabilities().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let mut rng = Xoshiro256::seed_from(1);
        for _ in 0..20 {
            let i = c.sample(&mut rng);
            prop_assert!(i < weights.len());
            prop_assert!(c.pmf(i) > 0.0, "sampled a zero-probability category");
        }
    }

    fn rng_streams_reproducible(seed in 0u64..10_000) {
        let mut a = Xoshiro256::seed_from(seed);
        let mut b = Xoshiro256::seed_from(seed);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    // ---- New-module invariants ------------------------------------------

    fn t_test_p_values_are_probabilities(t in -50.0..50.0f64, df in 1.0..500.0f64) {
        let p = t_two_sided_p(t, df);
        prop_assert!((0.0..=1.0).contains(&p));
        // Symmetry in |t| and monotone decrease in |t|.
        prop_assert!((t_two_sided_p(-t, df) - p).abs() < 1e-12);
        prop_assert!(t_two_sided_p(t.abs() + 1.0, df) <= p + 1e-12);
    }

    fn paired_and_welch_agree_on_direction(shift in -5.0..5.0f64, seed in 0u64..100) {
        let mut g = Xoshiro256::seed_from(seed);
        let a: Vec<f64> = (0..30).map(|_| g.range_f64(-1.0, 1.0)).collect();
        let b: Vec<f64> = a.iter().map(|x| x + shift).collect();
        let pt = paired_t_test(&a, &b);
        let wt = welch_t_test(&a, &b);
        prop_assert!((pt.mean_diff + shift).abs() < 1e-9);
        prop_assert!((wt.mean_diff + shift).abs() < 1e-9);
        prop_assert!((0.0..=1.0).contains(&pt.p_two_sided));
        prop_assert!((0.0..=1.0).contains(&wt.p_two_sided));
    }

    fn emodel_mos_bounded_and_monotone(lat in 0.0..1_000.0f64, jit in 0.0..50.0f64, loss in 0.0..30.0f64) {
        let m = PathMetrics { latency_ms: lat, jitter_ms: jit, loss_pct: loss };
        let mos = emodel_mos(&m);
        prop_assert!((1.0..=5.0).contains(&mos));
        // More loss can never help; more latency can never help.
        let worse_loss = emodel_mos(&PathMetrics { loss_pct: loss + 5.0, ..m });
        let worse_lat = emodel_mos(&PathMetrics { latency_ms: lat + 100.0, ..m });
        prop_assert!(worse_loss <= mos + 1e-9);
        prop_assert!(worse_lat <= mos + 1e-9);
    }

    fn overlap_report_consistent(rows in vecs(record_gen(), 2..40)) {
        let trace = build_trace(&rows);
        let policy = UniformRandomPolicy::new(space());
        let r = OverlapReport::analyze(&trace, &policy).unwrap();
        prop_assert_eq!(r.n, trace.len());
        prop_assert!(r.effective_sample_size >= 0.0);
        prop_assert!(r.effective_sample_size <= trace.len() as f64 + 1e-9);
        prop_assert!(r.max_weight >= r.median_weight - 1e-12);
        prop_assert!(r.p99_weight <= r.max_weight + 1e-12);
        prop_assert!((0.0..=1.0).contains(&r.zero_weight_fraction));
        prop_assert!((0.0..=1.0 + 1e-9).contains(&r.unsupported_mass));
    }

    fn crossfit_equals_plain_dr_for_data_independent_model(rows in vecs(record_gen(), 6..40)) {
        let trace = build_trace(&rows);
        let policy = LookupPolicy::constant(space(), 2);
        let cf = CrossFitDr::new(3, |_: &ddn::trace::Trace| ddn::models::ConstantModel::new(1.5));
        let plain = DoublyRobust::new(ddn::models::ConstantModel::new(1.5));
        let a = cf.estimate(&trace, &policy).unwrap().value;
        let b = plain.estimate(&trace, &policy).unwrap().value;
        prop_assert!((a - b).abs() < 1e-9);
    }

    // ---- Robustness: hostile inputs never panic --------------------------

    fn jsonl_reader_never_panics_on_garbage(garbage in strings_from(&printable(), 0..401)) {
        // Arbitrary printable bytes: the reader must return Ok or Err,
        // never panic.
        let _ = Trace::read_jsonl(garbage.as_bytes());
    }

    fn jsonl_reader_rejects_truncated_valid_traces(rows in vecs(record_gen(), 2..10), cut in 1usize..200) {
        let trace = build_trace(&rows);
        let mut buf = Vec::new();
        trace.write_jsonl(&mut buf).unwrap();
        let cut = cut.min(buf.len().saturating_sub(1)).max(1);
        let truncated = &buf[..buf.len() - cut];
        // Must not panic; may parse a prefix or error.
        let _ = Trace::read_jsonl(truncated);
    }

    // ---- Greedy policy determinism over arbitrary scores ----------------

    fn greedy_is_deterministic_distribution(s1 in -10.0..10.0f64, s2 in -10.0..10.0f64, s3 in -10.0..10.0f64) {
        let scores = [s1, s2, s3];
        let p = GreedyPolicy::new(space(), move |_c: &Context, d: Decision| scores[d.index()]);
        let c = ctx(0, 0.0);
        let probs = p.probabilities(&c);
        prop_assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        prop_assert_eq!(probs.iter().filter(|&&q| q == 1.0).count(), 1);
        prop_assert!(p.is_deterministic_at(&c));
    }

    // ---- Shared-score batching: batched ≡ unbatched, bit for bit --------

    fn batched_menu_matches_unbatched_bit_for_bit(rows in vecs(record_gen(), 1..50), target in 0usize..3, eps in 0.0..1.0f64) {
        // Random trace, randomized target policy: every stationary
        // estimator must produce the same bits through the shared batch
        // as through its own scoring loop.
        let trace = build_trace(&rows);
        let policy =
            EpsilonSmoothedPolicy::new(Box::new(LookupPolicy::constant(space(), target)), eps);
        let r = menu_batch_parity(&trace, &policy);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    fn batched_menu_parity_under_zero_overlap(rows in vecs(record_gen(), 1..30), target in 0usize..3) {
        // Degenerate case: a deterministic policy that disagrees with
        // every logged decision → all importance weights are zero. IPS
        // returns 0, SNIPS and matching error with NoUsableRecords —
        // batched and unbatched must agree on all of it.
        let logged = (target + 1) % 3;
        let records: Vec<TraceRecord> = rows
            .iter()
            .map(|&(g, x, _, r, p)| {
                TraceRecord::new(ctx(g, x), Decision::from_index(logged), r).with_propensity(p)
            })
            .collect();
        let trace = Trace::from_records(schema(), space(), records).unwrap();
        let policy = LookupPolicy::constant(space(), target);
        let r = menu_batch_parity(&trace, &policy);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    fn batched_menu_parity_with_missing_propensity(rows in vecs(record_gen(), 2..30), hole in 0usize..100) {
        // One record lacks its propensity: weight-based estimators must
        // report MissingPropensity with the same record index both ways,
        // and DM must keep estimating both ways.
        let hole = hole % rows.len();
        let records: Vec<TraceRecord> = rows
            .iter()
            .enumerate()
            .map(|(i, &(g, x, d, r, p))| {
                let rec = TraceRecord::new(ctx(g, x), Decision::from_index(d), r);
                if i == hole { rec } else { rec.with_propensity(p) }
            })
            .collect();
        let trace = Trace::from_records(schema(), space(), records).unwrap();
        let policy =
            EpsilonSmoothedPolicy::new(Box::new(LookupPolicy::constant(space(), 0)), 0.3);
        let r = menu_batch_parity(&trace, &policy);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    fn state_aware_batched_parity(rows in vecs(record_gen(), 1..40), target in 0usize..3) {
        // StateAwareDR's inherent estimate/estimate_batch pair over a
        // trace whose records alternate between the two load states.
        let records: Vec<TraceRecord> = rows
            .iter()
            .enumerate()
            .map(|(i, &(g, x, d, r, p))| {
                TraceRecord::new(ctx(g, x), Decision::from_index(d), r)
                    .with_propensity(p)
                    .with_state(if i % 2 == 0 { StateTag::LOW_LOAD } else { StateTag::HIGH_LOAD })
            })
            .collect();
        let trace = Trace::from_records(schema(), space(), records).unwrap();
        let policy = LookupPolicy::constant(space(), target);
        let model = parity_model();
        let batch = EvalBatch::with_model(&trace, &policy, &model).unwrap();
        let est = StateAwareDr::new(&model, MatchOnly, StateTag::HIGH_LOAD);
        let plain = est.estimate(&trace, &policy);
        let batched = est.estimate_batch(&trace, &batch);
        match (plain, batched) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.value.to_bits(), b.value.to_bits());
                prop_assert_eq!(a.per_record.len(), b.per_record.len());
                for (x, y) in a.per_record.iter().zip(&b.per_record) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            (Err(a), Err(b)) => prop_assert_eq!(format!("{a:?}"), format!("{b:?}")),
            (a, b) => prop_assert!(false, "Ok/Err disagree: {a:?} vs {b:?}"),
        }
    }

    fn replay_batched_parity(rows in vecs(record_gen(), 1..40), target in 0usize..3, seed in 0u64..500) {
        // Replay consumes RNG draws record-by-record; the batched path
        // must accept/reject the same tuples and produce the same bits.
        let trace = build_trace(&rows);
        let old = EpsilonSmoothedPolicy::new(Box::new(LookupPolicy::constant(space(), 0)), 0.5);
        let model = parity_model();
        let batch = EvalBatch::with_model(&trace, &old, &model).unwrap();
        let evaluator = ReplayEvaluator::new(&model);
        let mut h_plain = StationaryAsHistory::new(LookupPolicy::constant(space(), target));
        let mut rng_plain = Xoshiro256::seed_from(seed);
        let plain = evaluator.evaluate(&trace, &old, &mut h_plain, &mut rng_plain);
        let mut h_batch = StationaryAsHistory::new(LookupPolicy::constant(space(), target));
        let mut rng_batch = Xoshiro256::seed_from(seed);
        let batched = evaluator.evaluate_batch(&trace, &batch, &mut h_batch, &mut rng_batch);
        match (plain, batched) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.accepted, b.accepted);
                prop_assert_eq!(a.rejected, b.rejected);
                prop_assert_eq!(a.estimate.value.to_bits(), b.estimate.value.to_bits());
                for (x, y) in a.estimate.per_record.iter().zip(&b.estimate.per_record) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            (Err(a), Err(b)) => prop_assert_eq!(format!("{a:?}"), format!("{b:?}")),
            (a, b) => prop_assert!(false, "Ok/Err disagree: {a:?} vs {b:?}"),
        }
    }
}

// ---- Pinned degenerate-input behavior (not property-sized) -------------

/// A trace can never be empty, so `EvalBatch` (and every estimator) is
/// guaranteed at least one record: the constructor rejects emptiness.
#[test]
fn empty_trace_is_rejected_before_batching() {
    let err = Trace::from_records(schema(), space(), Vec::new());
    assert!(matches!(err, Err(TraceError::Empty)), "{err:?}");
}

/// Zero (and out-of-range) propensities are rejected when the record is
/// built, so "all-zero propensities" cannot reach the estimators; the
/// reachable degenerate case is all-zero *weights*, covered by
/// `batched_menu_parity_under_zero_overlap`.
#[test]
fn zero_propensity_is_rejected_before_batching() {
    for bad in [0.0, -0.25, 1.5, f64::NAN] {
        let attach = std::panic::catch_unwind(|| {
            TraceRecord::new(ctx(0, 0.0), Decision::from_index(0), 1.0).with_propensity(bad)
        });
        assert!(attach.is_err(), "propensity {bad} should be rejected");
    }
}
