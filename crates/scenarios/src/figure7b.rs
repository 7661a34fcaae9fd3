//! Figure 7b — model bias in the ABR world.
//!
//! Protocol (paper §4.2): "We create a video session with 100 chunks and
//! five bitrate levels, and the available bandwidth is a constant b. To
//! evaluate the video quality of the new ABR policy \[MPC\], we first use
//! the old ABR policy (a buffer-based ABR policy) to collect throughput
//! traces, where the observed throughput is b·p(r), p ≤ 1 and
//! monotonically increases with the chosen bitrate."
//!
//! The **FastMPC evaluator** (the baseline) replays the new policy against
//! the logged throughput assuming observed throughput is independent of
//! bitrate — the Figure 2 pitfall. **DR** corrects it "by using the
//! unbiased quality measurement on chunks that use the same bitrate as in
//! the observed trace": with both policies deterministic, the paper's
//! Eq. 2 reduces per tuple to *observed reward when the replayed decision
//! matches the logged one, model prediction otherwise* (the
//! "deterministically take the same action → DR equals IPS" special case
//! of §3).
//!
//! Rewards here are **chunk-local** (bitrate utility minus a stall
//! penalty for downloading slower than real time), matching the paper's
//! §2.1 framework where the reward is a function of the (client,
//! decision) pair — a chunk and its bitrate — rather than of the whole
//! trajectory. The ABR *policies* remain stateful (buffer- and
//! history-driven); only the per-chunk quality metric is local.
//!
//! **Shared-score batching:** this scenario replays bespoke
//! [`SessionTrace`]s chunk-by-chunk (both policies are stateful), so the
//! columnar [`ddn_estimators::EvalBatch`] does not apply; there is
//! nothing scored twice to share. It still benefits from the
//! worker-pool parallel runner like every other panel.

use ddn_abr::policies::AbrPolicy;
use ddn_abr::session::ChunkState;
use ddn_abr::throughput::{Bandwidth, ThroughputDiscount};
use ddn_abr::{
    decode_state, log_session, run_session, BitrateLadder, BufferBased, ExploringAbr, Mpc,
    QoeModel, Session, SessionConfig, SessionTrace,
};
use ddn_estimators::{ErrorTable, ExperimentRunner};
use ddn_models::{FnModel, RewardModel};
use ddn_stats::rng::{Rng, Xoshiro256};
use ddn_telemetry::TelemetrySnapshot;
use ddn_trace::{Context, Decision};

/// Configuration knobs for the experiment.
#[derive(Debug, Clone)]
pub struct Figure7bConfig {
    /// Chunks per session (paper: 100).
    pub chunks: usize,
    /// Bitrate ladder (paper: five levels).
    pub ladder: BitrateLadder,
    /// Throughput discount `p(r)` (the pitfall dial; `none()` disables it).
    pub discount: ThroughputDiscount,
    /// Range the constant per-run bandwidth is drawn from (kbps).
    pub bandwidth_range: (f64, f64),
    /// Exploration rate of the BBA logger. The paper's logger is the
    /// plain deterministic BBA (`0.0`); raising it exercises the §4.1
    /// randomized-logging variant.
    pub epsilon: f64,
    /// MPC lookahead.
    pub mpc_horizon: usize,
    /// Number of runs (paper: 50).
    pub runs: usize,
    /// Base seed.
    pub base_seed: u64,
}

impl Default for Figure7bConfig {
    fn default() -> Self {
        Self {
            chunks: 100,
            ladder: BitrateLadder::five_level(),
            discount: ThroughputDiscount::paper_default(),
            bandwidth_range: (1300.0, 3200.0),
            epsilon: 0.0,
            mpc_horizon: 5,
            runs: 50,
            base_seed: 70_002,
        }
    }
}

fn make_session(cfg: &Figure7bConfig, bandwidth: f64) -> Session {
    Session::new(
        cfg.ladder.clone(),
        SessionConfig {
            chunks: cfg.chunks,
            ..Default::default()
        },
        QoeModel::default(),
        Bandwidth::Constant(bandwidth),
        cfg.discount.clone(),
    )
}

/// Chunk-local QoE: bitrate utility (Mbps) minus a stall penalty for
/// downloading slower than real time at the throughput this bitrate
/// actually observes. Depends only on the chunk's bandwidth and the
/// chosen bitrate — the well-defined `r(c, d)` of the paper's §2.1.
/// (The penalty weight 2/s keeps typical session values away from zero so
/// the relative-error metric stays stable.)
fn chunk_local_reward(ladder: &BitrateLadder, level: usize, observed_kbps: f64) -> f64 {
    let utility = ladder.kbps(level) / 1000.0;
    let download_secs = ladder.chunk_kbits(level) / observed_kbps;
    let stall = (download_secs - ladder.chunk_secs()).max(0.0);
    utility - 2.0 * stall
}

/// Output of one counterfactual replay over a logged session.
struct ReplayResult {
    /// The FastMPC evaluator's estimate: mean simulated QoE.
    fastmpc: f64,
    /// The DR estimate: observed QoE on matched chunks, simulated QoE on
    /// the rest.
    dr: f64,
    /// Fraction of chunks where the replayed decision matched the log —
    /// the coverage diagnostic reported as DR health telemetry.
    match_rate: f64,
}

/// Replays the MPC policy over the logged session using FastMPC's
/// evaluation recipe: estimate the bandwidth as the **session-mean
/// observed throughput** of the old trace — a quantity depressed by the
/// old policy's low bitrates (the Figure 2 pitfall: "the throughput
/// estimator may implicitly assume that the observed throughput is
/// independent of the chunk's bitrate") — and score every replayed chunk
/// with the model reward at that estimate. The DR pass additionally
/// replaces the model term with the observed chunk reward wherever the
/// replayed bitrate matches the logged one (Eq. 2, deterministic case).
fn replay_counterfactual(cfg: &Figure7bConfig, logged: &SessionTrace, mpc: &Mpc) -> ReplayResult {
    let ladder = &cfg.ladder;
    let session_cfg = SessionConfig {
        chunks: cfg.chunks,
        ..Default::default()
    };
    // The biased session-level throughput estimate.
    let t_hat: f64 =
        logged.outcomes.iter().map(|o| o.observed_kbps).sum::<f64>() / logged.outcomes.len() as f64;
    let mut buffer = session_cfg.startup_buffer_secs;
    let mut prev_level: Option<usize> = None;
    let mut total_sim = 0.0;
    let mut total_dr = 0.0;
    let mut matched = 0usize;
    for outcome in &logged.outcomes {
        let state = ChunkState {
            index: outcome.state.index,
            buffer_secs: buffer,
            prev_level,
            prev_observed_kbps: Some(t_hat),
        };
        let level = mpc.choose(&state, ladder);
        let download = ladder.chunk_kbits(level) / t_hat;
        buffer = (buffer - download).max(0.0) + ladder.chunk_secs();
        buffer = buffer.min(session_cfg.buffer_max_secs);
        // Model (DM) term: reward predicted at the biased estimate.
        let model_qoe = chunk_local_reward(ladder, level, t_hat);
        total_sim += model_qoe;
        // The DR correction (Eq. 2 with deterministic policies): when the
        // replayed bitrate equals the logged one, the observed reward is
        // an unbiased measurement of exactly this decision — use it in
        // place of the model prediction.
        if level == outcome.level {
            matched += 1;
            total_dr += chunk_local_reward(ladder, level, outcome.observed_kbps);
        } else {
            total_dr += model_qoe;
        }
        prev_level = Some(level);
    }
    let n = logged.outcomes.len() as f64;
    ReplayResult {
        fastmpc: total_sim / n,
        dr: total_dr / n,
        match_rate: matched as f64 / n,
    }
}

/// Per-seed work shared by the plain and instrumented runners. The phase
/// spans and the replay's coverage health record are inert unless a
/// telemetry collector is installed.
fn run_seed(cfg: &Figure7bConfig, seed: u64) -> (f64, Vec<(String, f64)>) {
    let mut rng = Xoshiro256::seed_from(seed);
    let bandwidth = rng.range_f64(cfg.bandwidth_range.0, cfg.bandwidth_range.1);

    let (truth, logged) = {
        let _span = ddn_telemetry::span("simulate");
        // Ground truth: the new policy (MPC) run on the real world.
        let mpc = Mpc::new(cfg.mpc_horizon, QoeModel::default());
        let mut truth_rng = rng.fork();
        let truth_outcomes = run_session(make_session(cfg, bandwidth), &mpc, &mut truth_rng);
        let truth: f64 = truth_outcomes
            .iter()
            .map(|c| chunk_local_reward(&cfg.ladder, c.level, c.observed_kbps))
            .sum::<f64>()
            / truth_outcomes.len() as f64;

        // Log a trace with the BBA old policy.
        let logger = ExploringAbr::new(BufferBased::default(), cfg.epsilon);
        let mut log_rng = rng.fork();
        let logged = log_session(make_session(cfg, bandwidth), &logger, &mut log_rng);
        (truth, logged)
    };

    let _span = ddn_telemetry::span("estimate");
    let mpc = Mpc::new(cfg.mpc_horizon, QoeModel::default());
    let replay = replay_counterfactual(cfg, &logged, &mpc);
    if ddn_telemetry::enabled() {
        // The manual Eq. 2 replay bypasses the Estimator trait, so it
        // reports its coverage diagnostic here: the fraction of chunks
        // where DR could use an unbiased empirical measurement.
        ddn_telemetry::record_health("DR", &[("coverage", replay.match_rate)]);
    }

    (
        truth,
        vec![
            ("FastMPC".to_string(), replay.fastmpc),
            ("DR".to_string(), replay.dr),
        ],
    )
}

/// Runs the Figure 7b experiment with custom configuration.
pub fn figure7b_with(cfg: &Figure7bConfig) -> ErrorTable {
    ExperimentRunner::new(cfg.runs, cfg.base_seed)
        .run_parallel(ExperimentRunner::default_threads(), |seed| {
            run_seed(cfg, seed)
        })
}

/// Runs Figure 7b with telemetry: same numbers as [`figure7b_with`]
/// (bit-identical, regardless of thread count) plus per-run spans and the
/// replay's coverage diagnostic.
pub fn figure7b_instrumented(cfg: &Figure7bConfig) -> (ErrorTable, TelemetrySnapshot) {
    ExperimentRunner::new(cfg.runs, cfg.base_seed)
        .run_parallel_instrumented(ExperimentRunner::default_threads(), |seed| {
            run_seed(cfg, seed)
        })
}

/// Runs Figure 7b with the paper's protocol (50 runs).
pub fn figure7b() -> ErrorTable {
    figure7b_with(&Figure7bConfig::default())
}

/// The per-chunk FastMPC-style reward model (assumed-independent
/// throughput) exposed for tests: the QoE predicted for choosing level `d`
/// in a logged chunk state under the Figure 2 independence assumption.
pub fn assumed_independence_qoe(cfg: &Figure7bConfig, ctx: &Context, d: Decision) -> f64 {
    let ladder = cfg.ladder.clone();
    let qoe = QoeModel::default();
    let model = FnModel::new(move |ctx: &Context, d: Decision| {
        let state = decode_state(ctx);
        let assumed_kbps = state.prev_observed_kbps.unwrap_or(ladder.kbps(0));
        let download = ladder.chunk_kbits(d.index()) / assumed_kbps;
        let rebuffer = (download - state.buffer_secs).max(0.0);
        qoe.chunk_qoe(&ladder, d.index(), state.prev_level, rebuffer)
    });
    model.predict(ctx, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddn_abr::{abr_schema, encode_state};

    #[test]
    fn fastmpc_model_overestimates_download_time_for_high_bitrates() {
        // Logged under a low bitrate: observed ≈ b·p(low) < b. The model
        // therefore predicts a longer download for the top level than the
        // truth, creating rebuffer pessimism.
        let cfg = Figure7bConfig::default();
        let b = 2000.0;
        let observed_low = cfg.discount.observed(b, 0, 5);
        let state = ChunkState {
            index: 5,
            buffer_secs: 6.0,
            prev_level: Some(0),
            prev_observed_kbps: Some(observed_low),
        };
        let ctx = encode_state(&abr_schema(), &state);
        let pessimistic = assumed_independence_qoe(&cfg, &ctx, Decision::from_index(4));
        // Truth: downloading level 4 would see the full bandwidth.
        let true_download = cfg.ladder.chunk_kbits(4) / cfg.discount.observed(b, 4, 5);
        let true_rebuffer = (true_download - 6.0).max(0.0);
        let truth = QoeModel::default().chunk_qoe(&cfg.ladder, 4, Some(0), true_rebuffer);
        assert!(
            pessimistic < truth,
            "biased model {pessimistic} should be below truth {truth}"
        );
    }

    #[test]
    fn dr_beats_fastmpc_in_small_replication() {
        let cfg = Figure7bConfig {
            runs: 10,
            ..Default::default()
        };
        let table = figure7b_with(&cfg);
        let dr = table.get("DR").unwrap();
        let fastmpc = table.get("FastMPC").unwrap();
        assert!(
            dr.mean < fastmpc.mean,
            "DR {} should beat FastMPC {}",
            dr.mean,
            fastmpc.mean
        );
    }

    #[test]
    fn replay_matches_a_meaningful_chunk_fraction() {
        let cfg = Figure7bConfig::default();
        let mut rng = Xoshiro256::seed_from(4);
        let bandwidth = 2000.0;
        let logger = ExploringAbr::new(BufferBased::default(), cfg.epsilon);
        let mut log_rng = rng.fork();
        let logged = log_session(make_session(&cfg, bandwidth), &logger, &mut log_rng);
        let mpc = Mpc::new(cfg.mpc_horizon, QoeModel::default());
        let replay = replay_counterfactual(&cfg, &logged, &mpc);
        assert!(
            replay.match_rate > 0.1 && replay.match_rate < 1.0,
            "match rate {} should be a non-trivial fraction",
            replay.match_rate
        );
    }

    #[test]
    fn pitfall_disappears_without_discount() {
        // Control: with p(r) ≡ 1 the independence assumption is TRUE, so
        // the FastMPC evaluator should be quite accurate.
        let cfg = Figure7bConfig {
            runs: 10,
            discount: ThroughputDiscount::none(),
            ..Default::default()
        };
        let table = figure7b_with(&cfg);
        let fastmpc = table.get("FastMPC").unwrap();
        let with_pitfall = figure7b_with(&Figure7bConfig {
            runs: 10,
            ..Default::default()
        });
        assert!(
            fastmpc.mean < with_pitfall.get("FastMPC").unwrap().mean,
            "removing the discount should shrink FastMPC's error ({} vs {})",
            fastmpc.mean,
            with_pitfall.get("FastMPC").unwrap().mean
        );
    }
}
