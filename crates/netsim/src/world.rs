//! The serving world: ISPs, servers, a policy, and trace emission.
//!
//! This is where decisions meet dynamics. A [`World`] simulates requests
//! arriving from ISPs under a diurnal profile; for each request the policy
//! under test picks a server (the *decision*); the chosen server's queue
//! produces the response time; the reward is the negative end-to-end
//! latency. Because the queue state persists, a policy that floods one
//! server degrades later rewards — the paper's self-induced
//! decision-reward coupling — and because arrival intensity varies with
//! time of day, traces collected in one regime mispredict another.

use crate::arrivals::{ArrivalProcess, RateProfile};
use crate::queueing::QueueServer;
use ddn_policy::Policy;
use ddn_stats::rng::{Rng, Xoshiro256};
use ddn_trace::{Context, ContextSchema, DecisionSpace, StateTag, Trace, TraceRecord};

/// Static description of one server.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSpec {
    /// Human-readable name (becomes the decision name).
    pub name: String,
    /// Mean service rate in requests/second.
    pub service_rate: f64,
}

/// Configuration of a serving world.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldConfig {
    /// Number of client ISPs (categorical context feature).
    pub isps: usize,
    /// The servers (decision space).
    pub servers: Vec<ServerSpec>,
    /// `rtt[isp][server]`: network round-trip seconds added to every
    /// request from that ISP to that server.
    pub rtt: Vec<Vec<f64>>,
    /// Aggregate arrival process across all ISPs (each arrival is
    /// attributed to a uniformly random ISP).
    pub arrivals: RateProfile,
    /// Simulation horizon in seconds.
    pub horizon: f64,
    /// Backlog at-or-above which a record is tagged
    /// [`StateTag::HIGH_LOAD`].
    pub high_load_backlog: usize,
    /// Backlog at-or-above which a record is tagged
    /// [`StateTag::OVERLOAD`].
    pub overload_backlog: usize,
}

impl WorldConfig {
    /// Checks the configuration, returning a user-facing message on the
    /// first violation. CLI-facing callers (`ddn loadgen`) surface the
    /// message as a usage error instead of aborting the process.
    pub fn check(&self) -> Result<(), String> {
        fn ensure(ok: bool, msg: &str) -> Result<(), String> {
            if ok {
                Ok(())
            } else {
                Err(msg.to_string())
            }
        }
        ensure(self.isps > 0, "need at least one ISP")?;
        ensure(!self.servers.is_empty(), "need at least one server")?;
        ensure(
            self.servers.iter().all(|s| s.service_rate > 0.0),
            "service rates must be positive",
        )?;
        ensure(self.rtt.len() == self.isps, "rtt must have one row per ISP")?;
        for row in &self.rtt {
            ensure(
                row.len() == self.servers.len(),
                "rtt row must cover every server",
            )?;
            ensure(
                row.iter().all(|r| r.is_finite() && *r >= 0.0),
                "rtts must be ≥ 0",
            )?;
        }
        self.arrivals.check()?;
        ensure(self.horizon > 0.0, "horizon must be positive")?;
        ensure(
            self.high_load_backlog < self.overload_backlog,
            "high-load threshold must be below overload threshold",
        )
    }

    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on empty servers/ISPs, RTT shape mismatch, non-positive
    /// rates/horizon, or unordered load thresholds. Use
    /// [`WorldConfig::check`] to get the violation as an error instead.
    pub fn validate(&self) {
        if let Err(msg) = self.check() {
            panic!("{msg}");
        }
    }
}

/// Output of one simulated run.
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// The logged trace: context = (isp, time-of-day), decision = server,
    /// reward = −latency, propensity from the policy, state tag from the
    /// chosen server's backlog.
    pub trace: Trace,
    /// Per-record load proxy: the chosen server's backlog at arrival —
    /// exactly the §4.3 "monitor the load of each server as a proxy metric
    /// of the system states" series.
    pub load_proxy: Vec<f64>,
    /// Requests served per server.
    pub per_server: Vec<u64>,
    /// `per_server_load[s][k]`: server `s`'s backlog at the time of the
    /// k-th request (whether or not it was routed there) — the full
    /// per-server monitoring matrix the §4.3 threshold scheme reads.
    pub per_server_load: Vec<Vec<u32>>,
}

impl SimOutput {
    /// Mean reward over the run — the on-policy (ground-truth) value of
    /// the simulated policy on this world and seed.
    pub fn mean_reward(&self) -> f64 {
        self.trace.mean_reward()
    }
}

/// A serving world ready to simulate policies.
#[derive(Debug, Clone)]
pub struct World {
    config: WorldConfig,
    schema: ContextSchema,
    space: DecisionSpace,
}

impl World {
    /// Creates a world from a validated config.
    pub fn new(config: WorldConfig) -> Self {
        config.validate();
        let schema = ContextSchema::builder()
            .categorical("isp", config.isps as u32)
            .numeric("tod_hours")
            .build();
        let space = DecisionSpace::new(config.servers.iter().map(|s| s.name.clone()).collect());
        Self {
            config,
            schema,
            space,
        }
    }

    /// The context schema traces from this world use.
    pub fn schema(&self) -> &ContextSchema {
        &self.schema
    }

    /// The decision space (one decision per server).
    pub fn space(&self) -> &DecisionSpace {
        &self.space
    }

    /// The world configuration.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// Simulates `policy` making every server-selection decision.
    ///
    /// Deterministic in `seed`.
    pub fn run(&self, policy: &dyn Policy, seed: u64) -> SimOutput {
        assert_eq!(
            policy.space().len(),
            self.space.len(),
            "policy decision space must match the world's servers"
        );
        let mut rng = Xoshiro256::seed_from(seed);
        let mut arrival_rng = rng.fork();
        let mut isp_rng = rng.fork();
        let mut policy_rng = rng.fork();
        let mut service_rng = rng.fork();

        let mut arrivals = ArrivalProcess::new(self.config.arrivals.clone());
        let times = arrivals.arrivals_until(self.config.horizon, &mut arrival_rng);
        let mut servers: Vec<QueueServer> = self
            .config
            .servers
            .iter()
            .map(|s| QueueServer::new(s.service_rate))
            .collect();

        let day = 86_400.0;
        let mut records = Vec::with_capacity(times.len());
        let mut load_proxy = Vec::with_capacity(times.len());
        let mut per_server_load: Vec<Vec<u32>> =
            vec![Vec::with_capacity(times.len()); servers.len()];
        for t in times {
            let isp = isp_rng.index(self.config.isps);
            let tod = (t % day) / 3600.0;
            let ctx = Context::build(&self.schema)
                .set_cat("isp", isp as u32)
                .set_numeric("tod_hours", tod)
                .finish();
            let (decision, propensity) = policy.sample_with_prob(&ctx, &mut policy_rng);
            let sv = decision.index();
            for (s, series) in per_server_load.iter_mut().enumerate() {
                series.push(servers[s].backlog_at(t) as u32);
            }
            let (response, backlog) = servers[sv].arrive(t, &mut service_rng);
            let latency = self.config.rtt[isp][sv] + response;
            let state = if backlog >= self.config.overload_backlog {
                StateTag::OVERLOAD
            } else if backlog >= self.config.high_load_backlog {
                StateTag::HIGH_LOAD
            } else {
                StateTag::LOW_LOAD
            };
            records.push(
                TraceRecord::new(ctx, decision, -latency)
                    .with_propensity(propensity)
                    .with_state(state)
                    .with_timestamp(t),
            );
            load_proxy.push(backlog as f64);
        }
        let per_server = servers.iter().map(|s| s.served()).collect();
        let trace = Trace::from_records(self.schema.clone(), self.space.clone(), records)
            .expect("world always emits a valid trace");
        SimOutput {
            trace,
            load_proxy,
            per_server,
            per_server_load,
        }
    }

    /// Ground-truth value of a policy: mean on-policy reward averaged over
    /// `runs` fresh simulations with distinct seeds.
    pub fn true_value(&self, policy: &dyn Policy, base_seed: u64, runs: usize) -> f64 {
        assert!(runs > 0, "need at least one run");
        (0..runs)
            .map(|i| self.run(policy, base_seed + i as u64).mean_reward())
            .sum::<f64>()
            / runs as f64
    }
}

/// A ready-made two-server world: one fast server, one slow server, two
/// ISPs with asymmetric RTTs — small but exhibits every §4 phenomenon.
/// Used by examples, tests and ablations.
pub fn small_world(arrivals: RateProfile, horizon: f64) -> World {
    World::new(WorldConfig {
        isps: 2,
        servers: vec![
            ServerSpec {
                name: "fast".into(),
                service_rate: 40.0,
            },
            ServerSpec {
                name: "slow".into(),
                service_rate: 15.0,
            },
        ],
        rtt: vec![vec![0.02, 0.05], vec![0.05, 0.02]],
        arrivals,
        horizon,
        high_load_backlog: 4,
        overload_backlog: 12,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddn_policy::{LookupPolicy, UniformRandomPolicy};

    fn world() -> World {
        small_world(RateProfile::Constant(10.0), 500.0)
    }

    #[test]
    fn run_is_deterministic() {
        let w = world();
        let p = UniformRandomPolicy::new(w.space().clone());
        let a = w.run(&p, 7);
        let b = w.run(&p, 7);
        assert_eq!(a.trace.records(), b.trace.records());
        assert_eq!(a.load_proxy, b.load_proxy);
        let c = w.run(&p, 8);
        assert_ne!(a.trace.records(), c.trace.records());
    }

    #[test]
    fn rewards_are_negative_latencies() {
        let w = world();
        let p = UniformRandomPolicy::new(w.space().clone());
        let out = w.run(&p, 1);
        assert!(
            out.trace.len() > 1000,
            "expect ~5000 arrivals, got {}",
            out.trace.len()
        );
        assert!(out.trace.records().iter().all(|r| r.reward < 0.0));
        assert!(out.trace.has_propensities());
        assert!(out.trace.records().iter().all(|r| r.state.is_some()));
    }

    #[test]
    fn fast_server_beats_slow_server() {
        let w = world();
        let fast = LookupPolicy::constant(w.space().clone(), 0);
        let slow = LookupPolicy::constant(w.space().clone(), 1);
        let v_fast = w.true_value(&fast, 10, 3);
        let v_slow = w.true_value(&slow, 10, 3);
        assert!(
            v_fast > v_slow,
            "fast server {v_fast} should beat slow server {v_slow}"
        );
    }

    #[test]
    fn concentrating_load_degrades_rewards() {
        // Decision-reward coupling: sending everything to the slow server
        // saturates it (λ=10 ≈ 2/3 of μ=15); spreading load does better
        // than the slow-only policy by more than the RTT difference alone.
        let w = world();
        let slow_only = LookupPolicy::constant(w.space().clone(), 1);
        let spread = UniformRandomPolicy::new(w.space().clone());
        let v_slow = w.true_value(&slow_only, 20, 3);
        let v_spread = w.true_value(&spread, 20, 3);
        assert!(
            v_spread - v_slow > 0.02,
            "spreading ({v_spread}) should beat overloading the slow server ({v_slow})"
        );
    }

    #[test]
    fn per_server_counts_add_up() {
        let w = world();
        let p = UniformRandomPolicy::new(w.space().clone());
        let out = w.run(&p, 2);
        let total: u64 = out.per_server.iter().sum();
        assert_eq!(total as usize, out.trace.len());
        assert_eq!(out.load_proxy.len(), out.trace.len());
    }

    #[test]
    fn diurnal_world_tags_states() {
        // Strong diurnal swing around a near-capacity base load produces
        // both low- and high-load records.
        let w = small_world(
            RateProfile::Diurnal {
                base: 30.0,
                amplitude: 0.9,
                period: 1000.0,
                phase: 0.0,
            },
            1000.0,
        );
        let p = UniformRandomPolicy::new(w.space().clone());
        let out = w.run(&p, 3);
        let low = out
            .trace
            .records()
            .iter()
            .filter(|r| r.state == Some(StateTag::LOW_LOAD))
            .count();
        let high = out.trace.len() - low;
        assert!(
            low > 0 && high > 0,
            "want both regimes, got low={low} high={high}"
        );
    }

    #[test]
    fn per_server_load_matrix_is_aligned_and_consistent() {
        let w = world();
        let p = UniformRandomPolicy::new(w.space().clone());
        let out = w.run(&p, 6);
        assert_eq!(out.per_server_load.len(), 2);
        for series in &out.per_server_load {
            assert_eq!(series.len(), out.trace.len());
        }
        // The chosen-server proxy equals that server's column entry at
        // every step (both are the pre-arrival backlog).
        for (k, r) in out.trace.records().iter().enumerate() {
            assert_eq!(
                out.per_server_load[r.decision.index()][k] as f64,
                out.load_proxy[k],
                "row {k}"
            );
        }
    }

    #[test]
    fn timestamps_ordered() {
        let w = world();
        let p = UniformRandomPolicy::new(w.space().clone());
        let out = w.run(&p, 4);
        let ts: Vec<f64> = out
            .trace
            .records()
            .iter()
            .map(|r| r.timestamp.unwrap())
            .collect();
        for w2 in ts.windows(2) {
            assert!(w2[1] >= w2[0]);
        }
    }

    #[test]
    fn check_returns_errors_instead_of_panicking() {
        let mut cfg = small_world(RateProfile::Constant(10.0), 500.0)
            .config()
            .clone();
        assert!(cfg.check().is_ok());
        cfg.horizon = -1.0;
        let err = cfg.check().unwrap_err();
        assert!(err.contains("horizon"), "{err}");
        cfg.horizon = 500.0;
        cfg.arrivals = RateProfile::Constant(0.0);
        let err = cfg.check().unwrap_err();
        assert!(err.contains("rate"), "{err}");
        cfg.arrivals = RateProfile::Constant(10.0);
        cfg.rtt.pop();
        let err = cfg.check().unwrap_err();
        assert!(err.contains("rtt"), "{err}");
    }

    #[test]
    #[should_panic(expected = "must match the world's servers")]
    fn wrong_policy_space_panics() {
        let w = world();
        let p = UniformRandomPolicy::new(DecisionSpace::of(&["x", "y", "z"]));
        let _ = w.run(&p, 0);
    }
}
