//! Bridges the simulator fleet onto the wire: each [`SessionPlan`]
//! becomes a [`SessionWork`] — a ready-to-send evaluation session with
//! its schema, decision space, target decision and logged trace records.
//!
//! All record generation happens here, up front and single-threaded, so a
//! session's payload is a pure function of its plan seed regardless of
//! how worker threads later interleave the wire traffic. The same
//! [`ddn_trace::Trace`] that is streamed to the server is kept for the
//! end-of-run offline parity check.

use crate::schedule::{ScenarioKind, SessionPlan};
use ddn_abr::bridge::{abr_schema, abr_space, log_session, ExploringAbr};
use ddn_abr::ladder::BitrateLadder;
use ddn_abr::policies::BufferBased;
use ddn_abr::session::{QoeModel, Session, SessionConfig};
use ddn_abr::throughput::{Bandwidth, ThroughputDiscount};
use ddn_cdn::cfa::{CfaConfig, CfaWorld};
use ddn_policy::UniformRandomPolicy;
use ddn_relay::{RelayConfig, RelayWorld};
use ddn_stats::rng::Xoshiro256;
use ddn_trace::{ContextSchema, DecisionSpace, Trace};

/// The shared simulator worlds sessions are sampled from. Built once per
/// run from the run seed; individual sessions then draw from their own
/// plan seeds.
pub struct Fleet {
    abr_ladder: BitrateLadder,
    abr_schema: ContextSchema,
    abr_space: DecisionSpace,
    cdn: CfaWorld,
    relay: RelayWorld,
}

impl Fleet {
    /// Builds the fleet's worlds deterministically from the run seed.
    pub fn new(seed: u64) -> Fleet {
        let ladder = BitrateLadder::five_level();
        Fleet {
            abr_schema: abr_schema(),
            abr_space: abr_space(&ladder),
            abr_ladder: ladder,
            cdn: CfaWorld::new(CfaConfig::default(), seed ^ 0xC0DE),
            relay: RelayWorld::new(RelayConfig::default(), seed ^ 0x0E1A),
        }
    }

    /// The context schema sessions of `kind` use.
    pub fn schema(&self, kind: ScenarioKind) -> &ContextSchema {
        match kind {
            ScenarioKind::Abr => &self.abr_schema,
            ScenarioKind::Cdn => self.cdn.schema(),
            ScenarioKind::Relay => self.relay.schema(),
        }
    }

    /// The decision space sessions of `kind` use.
    pub fn space(&self, kind: ScenarioKind) -> &DecisionSpace {
        match kind {
            ScenarioKind::Abr => &self.abr_space,
            ScenarioKind::Cdn => self.cdn.space(),
            ScenarioKind::Relay => self.relay.space(),
        }
    }

    /// Realizes one plan: logs `records` trace records from the plan's
    /// scenario world under its private seed.
    pub fn realize(&self, plan: &SessionPlan, records: usize) -> SessionWork {
        let mut rng = Xoshiro256::seed_from(plan.seed);
        let trace = match plan.kind {
            ScenarioKind::Abr => {
                // Vary the (deterministic) network each session sees, so
                // the fleet's ABR traffic isn't one repeated session.
                let kbps = 800.0 + (plan.seed % 8) as f64 * 350.0;
                let session = Session::new(
                    self.abr_ladder.clone(),
                    SessionConfig {
                        chunks: records,
                        ..SessionConfig::default()
                    },
                    QoeModel::default(),
                    Bandwidth::Constant(kbps),
                    ThroughputDiscount::paper_default(),
                );
                log_session(
                    session,
                    &ExploringAbr::new(BufferBased::default(), 0.25),
                    &mut rng,
                )
                .trace
            }
            ScenarioKind::Cdn => {
                let clients = self.cdn.sample_clients(records, &mut rng);
                let logger = UniformRandomPolicy::new(self.cdn.space().clone());
                self.cdn.log_trace(&clients, &logger, plan.seed ^ 0xBEEF)
            }
            ScenarioKind::Relay => {
                let calls = self.relay.sample_calls(records, &mut rng);
                let logger = self.relay.nat_only_relay_policy(0.2);
                self.relay.log_trace(&calls, &logger, plan.seed ^ 0xFACE)
            }
        };
        let space = self.space(plan.kind);
        let decision = (plan.seed % space.len() as u64) as usize;
        SessionWork {
            name: plan.session_name(),
            kind: plan.kind,
            at: plan.at,
            binary: plan.binary,
            decision,
            decision_name: space.names()[decision].clone(),
            trace,
        }
    }
}

/// One session's complete wire workload plus what the parity check needs.
pub struct SessionWork {
    /// Server-side session name.
    pub name: String,
    /// Scenario world the records came from.
    pub kind: ScenarioKind,
    /// Scheduled arrival time (schedule seconds).
    pub at: f64,
    /// Ingest over binary frames instead of JSON lines.
    pub binary: bool,
    /// Index of the target decision the session's IPS estimate scores.
    pub decision: usize,
    /// Name of the target decision (sent in the init line).
    pub decision_name: String,
    /// The logged records — streamed to the server AND evaluated offline.
    pub trace: Trace,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Framing, Schedule};
    use ddn_estimators::{Estimator, Ips};
    use ddn_netsim::RateProfile;
    use ddn_policy::LookupPolicy;

    #[test]
    fn realize_is_deterministic_and_right_sized() {
        let fleet = Fleet::new(7);
        let sched =
            Schedule::generate(30, &RateProfile::Constant(100.0), 7, Framing::Mixed).unwrap();
        for plan in &sched.plans {
            let a = fleet.realize(plan, 4);
            let b = fleet.realize(plan, 4);
            assert_eq!(a.trace.records(), b.trace.records(), "{}", a.name);
            assert_eq!(a.trace.len(), 4);
            assert!(a.trace.has_propensities(), "{}", a.name);
            assert!(a.decision < fleet.space(plan.kind).len());
        }
    }

    #[test]
    fn realized_traces_are_offline_evaluable() {
        let fleet = Fleet::new(3);
        let sched = Schedule::generate(12, &RateProfile::Constant(50.0), 3, Framing::Json).unwrap();
        for plan in &sched.plans {
            let w = fleet.realize(plan, 3);
            let policy = LookupPolicy::constant(w.trace.space().clone(), w.decision);
            let est = Ips::new().estimate(&w.trace, &policy).expect("evaluable");
            assert!(est.value.is_finite(), "{}: {}", w.name, est.value);
        }
    }
}
