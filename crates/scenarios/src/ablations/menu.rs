//! Ablation M — the estimator-menu expansion (ROADMAP item 3), one
//! breaking scenario per new estimator, swept over trace size.
//!
//! The paper's Figure 7 worlds are stationary, small-action, single-step —
//! precisely the regime where the basic menu (IPS/SNIPS/DR) is at its
//! best. Each scenario here is engineered to *break* the incumbents the
//! way production logs do, and to show the matching menu extension
//! repairing the damage:
//!
//! - **adaptive** — a LinUCB logger learns while it logs, decaying the
//!   abandoned arm's propensity toward a floor; late records carry large
//!   importance weights and plain IPS/SNIPS error explodes. [`AdaptiveDr`]
//!   pairs model residuals with variance-stabilizing adaptive weights
//!   (à la Zhan et al. 2021); [`AdaptiveIps`] shows stabilization alone.
//! - **marginalized** — a composite CDN × bitrate × relay space with
//!   1080 arms; the deterministic target is logged ~once per thousand
//!   records, per-arm weights hit 1080 and the ESS collapses to a
//!   handful. [`MarginalizedDr`] marginalizes the weights over the CDN
//!   embedding (the reward only depends on the arm through its CDN).
//! - **sequential** — multi-step ABR sessions; weighting a whole session
//!   by the product of its per-chunk ratios (trajectory IPS) has
//!   exponentially heavy tails, while single-step DR is biased by the
//!   logger-induced buffer-state distribution. [`SeqDr`] threads the
//!   correction backward per decision (Jiang & Li 2016).
//!
//! Every cell is an [`ErrorTable`] over seeded runs; the panel's claim —
//! asserted by the tests and reported by `ddn figure7 menu` — is that at
//! the largest trace size each challenger's mean error is below every
//! incumbent's.

use ddn_abr::{
    abr_schema, abr_space, decode_state, log_session, Bandwidth, BitrateLadder, BufferBased,
    ExploringAbr, Mpc, QoeModel, Session, SessionConfig, ThroughputDiscount,
};
use ddn_estimators::{
    ActionEmbedding, AdaptiveDr, AdaptiveIps, AdaptiveWeights, DoublyRobust, ErrorTable, Estimator,
    ExperimentRunner, Ips, MarginalizedDr, SelfNormalizedIps, SeqDr,
};
use ddn_models::{ConstantModel, FnModel, TabularMeanModel};
use ddn_policy::{HistoryPolicy, LinUcb, LookupPolicy, Policy, UniformRandomPolicy};
use ddn_stats::rng::{Rng, Xoshiro256};
use ddn_telemetry::TelemetrySnapshot;
use ddn_trace::{Context, ContextSchema, Decision, DecisionSpace, Trace, TraceRecord};

/// Configuration knobs for the menu panel.
#[derive(Debug, Clone)]
pub struct MenuConfig {
    /// Seeded runs per (scenario, size) cell.
    pub runs: usize,
    /// Base seed; each cell offsets it so no two cells share seeds.
    pub base_seed: u64,
    /// Trace-size multipliers (the sweep's x axis) applied to each
    /// scenario's base size.
    pub scales: Vec<f64>,
}

impl Default for MenuConfig {
    fn default() -> Self {
        Self {
            runs: 20,
            base_seed: 77_001,
            scales: vec![0.5, 1.0, 2.0],
        }
    }
}

/// One swept cell: the trace length and the full error table at it.
#[derive(Debug, Clone)]
pub struct MenuRow {
    /// Records per trace at this cell.
    pub trace_len: usize,
    /// Relative-error table (incumbents first, challenger last).
    pub table: ErrorTable,
}

/// One breaking scenario's sweep.
#[derive(Debug, Clone)]
pub struct MenuScenario {
    /// Scenario id: `"adaptive"`, `"marginalized"` or `"sequential"`.
    pub name: &'static str,
    /// The menu extension under test (last column).
    pub challenger: &'static str,
    /// The incumbent estimators it must beat.
    pub incumbents: Vec<&'static str>,
    /// One row per swept trace size, ascending.
    pub rows: Vec<MenuRow>,
}

impl MenuScenario {
    /// Whether the challenger's mean error at the largest trace size is
    /// strictly below every incumbent's — the panel's headline claim.
    pub fn challenger_wins(&self) -> bool {
        let last = self.rows.last().expect("sweep has at least one size");
        let ch = last
            .table
            .get(self.challenger)
            .expect("challenger row")
            .mean;
        self.incumbents
            .iter()
            .all(|inc| ch < last.table.get(inc).expect("incumbent row").mean)
    }
}

// ---- scenario 1: adaptively collected logs ------------------------------

/// Base record count for the adaptive sweep at scale 1.
const ADAPTIVE_BASE: usize = 1200;
/// Exploration floor: the abandoned arm keeps propensity ε/2 = 0.05 —
/// weight 20 under the target, and hit often enough that the stabilizer's
/// EMA of squared weights can track the decaying propensity.
const ADAPTIVE_EPS_FLOOR: f64 = 0.1;

fn adaptive_schema() -> ContextSchema {
    ContextSchema::builder().categorical("g", 2).build()
}

fn adaptive_space() -> DecisionSpace {
    DecisionSpace::of(&["d0", "d1"])
}

/// Logs `n` records under a LinUCB bandit with decaying ε-exploration:
/// the bandit learns arm `d1` pays 3 more, so the evaluated arm `d0`'s
/// propensity decays from ~0.5 to the 0.05 floor — an adaptively
/// collected log whose late records carry weight 20 under the target.
fn adaptive_trace(n: usize, rng: &mut Xoshiro256) -> Trace {
    let s = adaptive_schema();
    let space = adaptive_space();
    let mut bandit = LinUcb::new(space.clone(), 1, 1.0, 1.0);
    let recs = (0..n)
        .map(|k| {
            let g = rng.index(2) as u32;
            let c = Context::build(&s).set_cat("g", g).finish();
            let eps = (0.8 * (1.0 - k as f64 / n as f64)).max(ADAPTIVE_EPS_FLOOR);
            let probs = bandit.probabilities(&c);
            let greedy = probs
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite scores"))
                .expect("non-empty space")
                .0;
            let d = if rng.chance(eps) {
                rng.index(2)
            } else {
                greedy
            };
            let p = eps / 2.0 + if d == greedy { 1.0 - eps } else { 0.0 };
            let reward = 2.0 + g as f64 + 3.0 * d as f64 + rng.range_f64(-0.25, 0.25);
            bandit.observe(&c, Decision::from_index(d), reward);
            TraceRecord::new(c, Decision::from_index(d), reward).with_propensity(p)
        })
        .collect();
    Trace::from_records(s, space, recs).expect("adaptive trace is well-formed")
}

fn adaptive_work(n: usize) -> impl Fn(u64) -> (f64, Vec<(String, f64)>) + Sync {
    move |seed| {
        let mut rng = Xoshiro256::seed_from(seed);
        let trace = {
            let _span = ddn_telemetry::span("log");
            adaptive_trace(n, &mut rng)
        };
        let target = LookupPolicy::constant(adaptive_space(), 0);
        // The bandit abandons d0, so truth is the d0 column: 2 + E[g].
        let truth = 2.5;
        let _span = ddn_telemetry::span("estimate");
        let ips = Ips::new().estimate(&trace, &target).expect("IPS").value;
        let snips = SelfNormalizedIps::new()
            .estimate(&trace, &target)
            .expect("SNIPS")
            .value;
        let adaptive_ips = AdaptiveIps::new(AdaptiveWeights::Stabilized)
            .estimate(&trace, &target)
            .expect("AdaptiveIPS")
            .value;
        let model = TabularMeanModel::fit_trace(&trace, 1.0);
        let adaptive_dr = AdaptiveDr::new(model, AdaptiveWeights::Stabilized)
            .estimate(&trace, &target)
            .expect("AdaptiveDR")
            .value;
        (
            truth,
            vec![
                ("IPS".to_string(), ips),
                ("SNIPS".to_string(), snips),
                ("AdaptiveIPS".to_string(), adaptive_ips),
                ("AdaptiveDR".to_string(), adaptive_dr),
            ],
        )
    }
}

// ---- scenario 2: composite action space ---------------------------------

/// 12 CDNs × 10 bitrates × 9 relays = 1080 composite arms.
const CDNS: usize = 12;
const BITRATES: usize = 10;
const RELAYS: usize = 9;
/// Arms per CDN group.
const GROUP: usize = BITRATES * RELAYS;
/// Base record count for the composite sweep at scale 1.
const COMPOSITE_BASE: usize = 1500;

fn composite_space() -> DecisionSpace {
    DecisionSpace::new(
        (0..CDNS * GROUP)
            .map(|a| format!("c{}_b{}_r{}", a / GROUP, (a % GROUP) / RELAYS, a % RELAYS))
            .collect(),
    )
}

/// The CDN embedding: every arm's group is its CDN.
fn cdn_embedding() -> ActionEmbedding {
    ActionEmbedding::from_groups((0..CDNS * GROUP).map(|a| a / GROUP).collect())
}

/// Reward depends on the arm only through its CDN — the structural fact
/// marginalization exploits.
fn cdn_quality(arm: usize) -> f64 {
    1.0 + 0.25 * (arm / GROUP) as f64
}

fn composite_work(n: usize) -> impl Fn(u64) -> (f64, Vec<(String, f64)>) + Sync {
    move |seed| {
        let s = ContextSchema::builder().categorical("g", 2).build();
        let space = composite_space();
        let arms = space.len();
        let mut rng = Xoshiro256::seed_from(seed);
        let trace = {
            let _span = ddn_telemetry::span("log");
            let recs = (0..n)
                .map(|_| {
                    let g = rng.index(2) as u32;
                    let c = Context::build(&s).set_cat("g", g).finish();
                    let a = rng.index(arms);
                    let reward = cdn_quality(a) + 0.5 * g as f64 + rng.range_f64(-0.25, 0.25);
                    TraceRecord::new(c, Decision::from_index(a), reward)
                        .with_propensity(1.0 / arms as f64)
                })
                .collect();
            Trace::from_records(s, space.clone(), recs).expect("composite trace is well-formed")
        };
        // Target: one specific arm of the best CDN (a tuned config rolled
        // out deterministically). Truth = that CDN's quality + 0.5·E[g].
        let best_arm = (CDNS - 1) * GROUP;
        let target = LookupPolicy::constant(space.clone(), best_arm);
        let truth = cdn_quality(best_arm) + 0.25;
        let _span = ddn_telemetry::span("estimate");
        // A deliberately coarse model — the logged grand mean — so DR's
        // accuracy rests on its weights, as it would with a weak model.
        let grand_mean = trace.records().iter().map(|r| r.reward).sum::<f64>() / trace.len() as f64;
        let model = ConstantModel::new(grand_mean);
        let ips = Ips::new().estimate(&trace, &target).expect("IPS").value;
        let dr = DoublyRobust::new(model)
            .estimate(&trace, &target)
            .expect("DR")
            .value;
        let mdr = MarginalizedDr::new(
            model,
            cdn_embedding(),
            Box::new(UniformRandomPolicy::new(space.clone())),
        )
        .estimate(&trace, &target)
        .expect("MarginalizedDR")
        .value;
        (
            truth,
            vec![
                ("IPS".to_string(), ips),
                ("DR".to_string(), dr),
                ("MarginalizedDR".to_string(), mdr),
            ],
        )
    }
}

// ---- scenario 3: multi-step ABR sessions --------------------------------

/// Chunks per session (the SeqDR horizon).
const SEQ_CHUNKS: usize = 4;
/// Sessions per trace at scale 1.
const SEQ_BASE_SESSIONS: usize = 60;
/// Exploration rate of the logging controller (ε-exploring MPC).
const SEQ_LOG_EPSILON: f64 = 0.4;
/// Exploration rate of the evaluated controller (ε-exploring
/// buffer-based) — different enough from the logger that per-chunk
/// ratios swing by 10×.
const SEQ_TARGET_EPSILON: f64 = 0.1;
/// Monte-Carlo rollouts for the per-seed ground truth.
const SEQ_TRUTH_ROLLOUTS: usize = 512;

/// QoE with a stiff smoothness penalty: per-chunk reward then depends
/// hard on `prev_level` — *state* the logger steered, which is exactly
/// what single-step reweighting cannot correct.
fn seq_qoe() -> QoeModel {
    QoeModel {
        smoothness_penalty: 4.0,
        ..QoeModel::default()
    }
}

fn seq_session() -> Session {
    Session::new(
        BitrateLadder::five_level(),
        SessionConfig {
            chunks: SEQ_CHUNKS,
            ..SessionConfig::default()
        },
        seq_qoe(),
        Bandwidth::Constant(SEQ_BANDWIDTH),
        ThroughputDiscount::paper_default(),
    )
}

/// The evaluated controller: lightly-exploring buffer-based ABR, exposed
/// as a stationary [`Policy`] over ABR contexts so the generic estimators
/// can score it. (The *logger* is the aggressive ε-exploring MPC — the
/// realistic direction: a noisy A/B rollout logged the data, and we ask
/// what the safer controller would have scored.)
struct SeqTargetPolicy {
    inner: ExploringAbr<BufferBased>,
    ladder: BitrateLadder,
    space: DecisionSpace,
}

impl SeqTargetPolicy {
    fn new() -> Self {
        let ladder = BitrateLadder::five_level();
        let space = abr_space(&ladder);
        Self {
            inner: ExploringAbr::new(BufferBased::default(), SEQ_TARGET_EPSILON),
            ladder,
            space,
        }
    }
}

impl Policy for SeqTargetPolicy {
    fn space(&self) -> &DecisionSpace {
        &self.space
    }

    fn prob(&self, ctx: &Context, d: Decision) -> f64 {
        self.inner.prob(&decode_state(ctx), &self.ladder, d.index())
    }
}

/// The scenario's constant available bandwidth (kbps): chunk dynamics are
/// then a deterministic function of (buffer, level), which lets both
/// reward models below be exact at their own level of ambition.
const SEQ_BANDWIDTH: f64 = 2000.0;

/// One deterministic chunk step: (rebuffer seconds, next buffer).
fn seq_step(
    ladder: &BitrateLadder,
    disc: &ThroughputDiscount,
    buffer: f64,
    level: usize,
) -> (f64, f64) {
    let observed = disc.observed(SEQ_BANDWIDTH, level, ladder.levels());
    let download = ladder.chunk_kbits(level) / observed;
    let rebuffer = (download - buffer).max(0.0);
    let cap = SessionConfig::default().buffer_max_secs;
    let next = ((buffer - download).max(0.0) + ladder.chunk_secs()).min(cap);
    (rebuffer, next)
}

/// StepDR's model: the *exact* one-step chunk QoE (utility, switch
/// penalty, rebuffer) read off the encoded state. With a perfect one-step
/// model, StepDR's remaining error is pure state-distribution bias — its
/// direct term averages over the logger's buffer/prev-level states.
fn seq_model() -> FnModel<impl Fn(&Context, Decision) -> f64> {
    let ladder = BitrateLadder::five_level();
    let qoe = seq_qoe();
    let disc = ThroughputDiscount::paper_default();
    FnModel::new(move |ctx: &Context, d: Decision| {
        let st = decode_state(ctx);
        let (rebuffer, _) = seq_step(&ladder, &disc, st.buffer_secs, d.index());
        qoe.chunk_qoe(&ladder, d.index(), st.prev_level, rebuffer)
    })
}

/// Exact expected remaining session QoE of the exploring buffer-based
/// target from `(index, buffer, prev)`: a full expectation over the
/// target's per-step action distribution (≤ `levels^(H−1−index)` paths;
/// H = 4 keeps this tiny). The buffer-based policy prices actions from
/// buffer state alone, so each node costs O(levels).
fn seq_future_value(
    target: &ExploringAbr<BufferBased>,
    ladder: &BitrateLadder,
    qoe: &QoeModel,
    disc: &ThroughputDiscount,
    index: usize,
    buffer: f64,
    prev: Option<usize>,
) -> f64 {
    if index >= SEQ_CHUNKS {
        return 0.0;
    }
    let state = ddn_abr::session::ChunkState {
        index,
        buffer_secs: buffer,
        prev_level: prev,
        prev_observed_kbps: prev.map(|p| disc.observed(SEQ_BANDWIDTH, p, ladder.levels())),
    };
    let mut v = 0.0;
    for level in 0..ladder.levels() {
        let p = target.prob(&state, ladder, level);
        if p == 0.0 {
            continue;
        }
        let (rebuffer, next) = seq_step(ladder, disc, buffer, level);
        v += p
            * (qoe.chunk_qoe(ladder, level, prev, rebuffer)
                + seq_future_value(target, ladder, qoe, disc, index + 1, next, Some(level)));
    }
    v
}

/// SeqDR's model: a Q-style estimate — the exact one-step QoE plus the
/// exact expected value of the target's remaining session. With
/// Q̂ = r + E[V_next], the per-decision corrections `r − Q̂ + V_next`
/// stay centered near zero, which is what tames the weight-product
/// variance that sinks trajectory IPS.
fn seq_q_model() -> FnModel<impl Fn(&Context, Decision) -> f64> {
    let ladder = BitrateLadder::five_level();
    let qoe = seq_qoe();
    let disc = ThroughputDiscount::paper_default();
    let target = ExploringAbr::new(BufferBased::default(), SEQ_TARGET_EPSILON);
    FnModel::new(move |ctx: &Context, d: Decision| {
        let st = decode_state(ctx);
        let (rebuffer, next) = seq_step(&ladder, &disc, st.buffer_secs, d.index());
        qoe.chunk_qoe(&ladder, d.index(), st.prev_level, rebuffer)
            + seq_future_value(
                &target,
                &ladder,
                &qoe,
                &disc,
                st.index + 1,
                next,
                Some(d.index()),
            )
    })
}

fn seq_work(sessions: usize) -> impl Fn(u64) -> (f64, Vec<(String, f64)>) + Sync {
    move |seed| {
        let mut rng = Xoshiro256::seed_from(seed);
        let logger = ExploringAbr::new(Mpc::new(5, seq_qoe()), SEQ_LOG_EPSILON);
        let trace = {
            let _span = ddn_telemetry::span("log");
            let schema = abr_schema();
            let ladder = BitrateLadder::five_level();
            let space = abr_space(&ladder);
            let mut recs = Vec::with_capacity(sessions * SEQ_CHUNKS);
            for _ in 0..sessions {
                let st = log_session(seq_session(), &logger, &mut rng);
                recs.extend_from_slice(st.trace.records());
            }
            Trace::from_records(schema, space, recs).expect("ABR sessions emit valid traces")
        };
        let target = SeqTargetPolicy::new();
        // Ground truth: Monte-Carlo rollouts of the exploring target —
        // expected *total* session QoE, the sequential estimand.
        let truth = {
            let ladder = BitrateLadder::five_level();
            let mut total = 0.0;
            for _ in 0..SEQ_TRUTH_ROLLOUTS {
                let mut sess = seq_session();
                while !sess.finished() {
                    let state = sess.state();
                    let (level, _) = target.inner.sample(&state, &ladder, &mut rng);
                    total += sess.download(level, &mut rng).qoe;
                }
            }
            total / SEQ_TRUTH_ROLLOUTS as f64
        };
        let _span = ddn_telemetry::span("estimate");
        // Incumbent 1: trajectory-level IPS — whole-session product weight
        // times the session's summed QoE.
        let traj_ips = {
            let recs = trace.records();
            let mut vals = Vec::with_capacity(sessions);
            for chunk in recs.chunks(SEQ_CHUNKS) {
                let mut prod = 1.0;
                let mut total = 0.0;
                for rec in chunk {
                    let p_old = rec.propensity.expect("logged with propensities");
                    prod *= target.prob(&rec.context, rec.decision) / p_old;
                    total += rec.reward;
                }
                vals.push(prod * total);
            }
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        // Incumbent 2: single-step DR scaled to the session total. Both DR
        // variants get the same strong model; StepDR stays biased anyway
        // because its direct term averages over the *logger's* states.
        let step_dr = DoublyRobust::new(seq_model())
            .estimate(&trace, &target)
            .expect("DR")
            .value
            * SEQ_CHUNKS as f64;
        let seq_dr = SeqDr::new(seq_q_model(), SEQ_CHUNKS)
            .estimate(&trace, &target)
            .expect("SeqDR")
            .value;
        (
            truth,
            vec![
                ("TrajIPS".to_string(), traj_ips),
                ("StepDR".to_string(), step_dr),
                ("SeqDR".to_string(), seq_dr),
            ],
        )
    }
}

// ---- the panel ----------------------------------------------------------

fn scenario_sizes(base: usize, scales: &[f64]) -> Vec<usize> {
    scales
        .iter()
        .map(|&s| ((base as f64 * s).round() as usize).max(1))
        .collect()
}

/// Runs one (scenario, size) cell, merging its telemetry into `snap`
/// when the panel is instrumented. The collector only observes, so the
/// instrumented numbers are bit-identical to the plain ones.
fn run_cell<F>(runs: usize, seed: u64, snap: &mut Option<TelemetrySnapshot>, work: F) -> ErrorTable
where
    F: Fn(u64) -> (f64, Vec<(String, f64)>) + Sync,
{
    let runner = ExperimentRunner::new(runs, seed);
    let threads = ExperimentRunner::default_threads();
    match snap {
        Some(acc) => {
            let (table, cell_snap) = runner.run_parallel_instrumented(threads, work);
            acc.merge(&cell_snap);
            table
        }
        None => runner.run_parallel(threads, work),
    }
}

fn build(cfg: &MenuConfig, snap: &mut Option<TelemetrySnapshot>) -> Vec<MenuScenario> {
    assert!(!cfg.scales.is_empty(), "need at least one scale");
    assert!(cfg.runs > 0, "need at least one run");
    let cell_seed = |scenario: u64, size_idx: usize| {
        cfg.base_seed + scenario * 10_000 + size_idx as u64 * 1_000
    };
    let adaptive = MenuScenario {
        name: "adaptive",
        challenger: "AdaptiveDR",
        incumbents: vec!["IPS", "SNIPS"],
        rows: scenario_sizes(ADAPTIVE_BASE, &cfg.scales)
            .into_iter()
            .enumerate()
            .map(|(i, n)| MenuRow {
                trace_len: n,
                table: run_cell(cfg.runs, cell_seed(0, i), snap, adaptive_work(n)),
            })
            .collect(),
    };
    let marginalized = MenuScenario {
        name: "marginalized",
        challenger: "MarginalizedDR",
        incumbents: vec!["IPS", "DR"],
        rows: scenario_sizes(COMPOSITE_BASE, &cfg.scales)
            .into_iter()
            .enumerate()
            .map(|(i, n)| MenuRow {
                trace_len: n,
                table: run_cell(cfg.runs, cell_seed(1, i), snap, composite_work(n)),
            })
            .collect(),
    };
    let sequential = MenuScenario {
        name: "sequential",
        challenger: "SeqDR",
        incumbents: vec!["TrajIPS", "StepDR"],
        rows: scenario_sizes(SEQ_BASE_SESSIONS, &cfg.scales)
            .into_iter()
            .enumerate()
            .map(|(i, sessions)| MenuRow {
                trace_len: sessions * SEQ_CHUNKS,
                table: run_cell(cfg.runs, cell_seed(2, i), snap, seq_work(sessions)),
            })
            .collect(),
    };
    vec![adaptive, marginalized, sequential]
}

/// Runs the menu panel: three breaking scenarios × the configured trace
/// sizes, each cell a seeded [`ErrorTable`].
pub fn ablation_menu(cfg: &MenuConfig) -> Vec<MenuScenario> {
    build(cfg, &mut None)
}

/// Instrumented variant: same numbers (bit-identical — the collector only
/// observes), plus the merged telemetry snapshot covering every cell; the
/// new estimators' health sources (`AdaptiveIPS/hsum`,
/// `MarginalizedDR/embedding_groups`, `SeqDR/trajectories`) all report.
pub fn ablation_menu_instrumented(cfg: &MenuConfig) -> (Vec<MenuScenario>, TelemetrySnapshot) {
    let mut snap = Some(TelemetrySnapshot::from_runs(&[]));
    let scenarios = build(cfg, &mut snap);
    let mut snap = snap.expect("instrumented build fills the snapshot");
    snap.set_threads(ExperimentRunner::default_threads());
    (scenarios, snap)
}

/// Renders the sweep as aligned text, one block per scenario.
pub fn render(scenarios: &[MenuScenario]) -> String {
    let mut out = String::from("Ablation M — estimator menu, error vs trace size\n");
    for sc in scenarios {
        out.push_str(&format!(
            "\nscenario {} ({} vs {})\n",
            sc.name,
            sc.challenger,
            sc.incumbents.join(", ")
        ));
        let names: Vec<&str> = sc
            .rows
            .first()
            .map(|r| r.table.rows().iter().map(|(n, _)| n.as_str()).collect())
            .unwrap_or_default();
        out.push_str(&format!("{:>10}", "records"));
        for n in &names {
            out.push_str(&format!("  {n:>14}"));
        }
        out.push('\n');
        for row in &sc.rows {
            out.push_str(&format!("{:>10}", row.trace_len));
            for n in &names {
                let r = row.table.get(n).expect("consistent names across rows");
                out.push_str(&format!("  {:>14.4}", r.mean));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "challenger {} at n={}: {}\n",
            sc.challenger,
            sc.rows.last().map(|r| r.trace_len).unwrap_or(0),
            if sc.challenger_wins() {
                "beats every incumbent"
            } else {
                "does NOT beat every incumbent"
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> MenuConfig {
        MenuConfig {
            runs: 6,
            scales: vec![0.5, 1.0],
            ..MenuConfig::default()
        }
    }

    #[test]
    fn every_challenger_beats_its_incumbents() {
        let scenarios = ablation_menu(&small_cfg());
        assert_eq!(scenarios.len(), 3);
        for sc in &scenarios {
            let last = sc.rows.last().unwrap();
            let ch = last.table.get(sc.challenger).unwrap().mean;
            for inc in &sc.incumbents {
                let inc_err = last.table.get(inc).unwrap().mean;
                assert!(
                    ch < inc_err,
                    "{}: challenger {} mean err {ch} must beat {inc} {inc_err}",
                    sc.name,
                    sc.challenger
                );
            }
            assert!(sc.challenger_wins());
        }
    }

    #[test]
    fn instrumented_reports_the_new_health_sources() {
        let cfg = MenuConfig {
            runs: 2,
            scales: vec![0.5],
            ..MenuConfig::default()
        };
        let (scenarios, snap) = ablation_menu_instrumented(&cfg);
        assert_eq!(scenarios.len(), 3);
        for (source, metric) in [
            ("AdaptiveIPS", "hsum"),
            ("MarginalizedDR", "embedding_groups"),
            ("SeqDR", "trajectories"),
            ("IPS", "ess"),
        ] {
            assert!(
                snap.health_metric(source, metric).is_some(),
                "{source}/{metric} missing from the menu panel telemetry"
            );
        }
    }

    #[test]
    #[ignore = "diagnostic: prints the full panel for tuning"]
    fn print_full_panel() {
        println!("{}", render(&ablation_menu(&small_cfg())));
    }

    #[test]
    #[ignore = "diagnostic: per-seed sequential values for tuning"]
    fn print_seq_runs() {
        let work = seq_work(SEQ_BASE_SESSIONS);
        for seed in 1..=8u64 {
            let (truth, rows) = work(seed);
            let line: Vec<String> = rows.iter().map(|(n, v)| format!("{n}={v:.3}")).collect();
            println!("seed {seed}: truth={truth:.3} {}", line.join(" "));
        }
    }

    #[test]
    fn render_lists_every_scenario_and_estimator() {
        let cfg = MenuConfig {
            runs: 2,
            scales: vec![0.5],
            ..MenuConfig::default()
        };
        let text = render(&ablation_menu(&cfg));
        for needle in [
            "adaptive",
            "marginalized",
            "sequential",
            "AdaptiveIPS",
            "MarginalizedDR",
            "SeqDR",
            "TrajIPS",
        ] {
            assert!(text.contains(needle), "render missing {needle}:\n{text}");
        }
    }
}
