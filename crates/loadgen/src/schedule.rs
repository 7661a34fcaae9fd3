//! The deterministic offered-load schedule.
//!
//! Everything a load run will do is decided here, single-threaded, before
//! any socket is opened: one [`SessionPlan`] per simulated client, with
//! its arrival time drawn from a [`RateProfile`] via the fleet's
//! nonhomogeneous-Poisson [`ArrivalProcess`], its scenario kind, its
//! private seed, and its wire framing. Worker threads only *execute*
//! plans, so however the OS schedules them, the offered load — and the
//! [`Schedule::wire_digest`] that fingerprints it — is a pure function of
//! the seed.

use ddn_netsim::{ArrivalProcess, RateProfile};
use ddn_stats::rng::{Rng, Xoshiro256};

/// Which simulator world a session's records come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// An ABR video session (`ddn-abr`): chunk = record, QoE = reward.
    Abr,
    /// A CDN-selection client batch (`ddn-cdn` CFA world).
    Cdn,
    /// A relay-selection call batch (`ddn-relay`).
    Relay,
}

impl ScenarioKind {
    /// Stable one-byte tag used in session names and the wire digest.
    pub fn tag(self) -> u8 {
        match self {
            ScenarioKind::Abr => b'a',
            ScenarioKind::Cdn => b'c',
            ScenarioKind::Relay => b'r',
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::Abr => "abr",
            ScenarioKind::Cdn => "cdn",
            ScenarioKind::Relay => "relay",
        }
    }
}

/// Wire encoding a session's ingests travel as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// Newline-delimited JSON ingest lines.
    Json,
    /// Binary columnar batch frames (DESIGN.md §14).
    Binary,
    /// Alternate per session — half the fleet on each encoding.
    Mixed,
}

impl Framing {
    /// Parses a `--framing` CLI value.
    pub fn parse(s: &str) -> Result<Framing, String> {
        match s {
            "json" => Ok(Framing::Json),
            "binary" => Ok(Framing::Binary),
            "mixed" => Ok(Framing::Mixed),
            other => Err(format!(
                "unknown framing {other:?} (expected json|binary|mixed)"
            )),
        }
    }
}

/// One simulated client in the offered-load schedule.
#[derive(Debug, Clone)]
pub struct SessionPlan {
    /// Position in arrival order (also the round-robin worker key).
    pub index: usize,
    /// Arrival time in schedule seconds (from the rate profile).
    pub at: f64,
    /// Scenario world this session's records come from.
    pub kind: ScenarioKind,
    /// Private seed: the session's record stream is a pure function of it.
    pub seed: u64,
    /// Whether this session ingests over binary frames.
    pub binary: bool,
}

impl SessionPlan {
    /// The server-side session name.
    pub fn session_name(&self) -> String {
        format!("lg-{}-{:07}", self.kind.name(), self.index)
    }
}

/// The full offered-load schedule of a run.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Session plans in arrival order.
    pub plans: Vec<SessionPlan>,
}

impl Schedule {
    /// Generates the schedule for `sessions` clients arriving under
    /// `rate`, deterministically in `seed`.
    ///
    /// Returns `Err` (never panics) on an invalid rate profile, so CLI
    /// callers can reject bad input with a usage error.
    pub fn generate(
        sessions: usize,
        rate: &RateProfile,
        seed: u64,
        framing: Framing,
    ) -> Result<Schedule, String> {
        if sessions == 0 {
            return Err("sessions must be at least 1".to_string());
        }
        rate.check()?;
        let mut root = Xoshiro256::seed_from(seed);
        let mut arrival_rng = root.fork();
        let mut kind_rng = root.fork();
        let mut seed_rng = root.fork();
        let mut arrivals = ArrivalProcess::new(rate.clone());
        let kinds = [ScenarioKind::Abr, ScenarioKind::Cdn, ScenarioKind::Relay];
        let plans = (0..sessions)
            .map(|index| {
                let at = arrivals.next_arrival(&mut arrival_rng);
                let kind = kinds[kind_rng.index(kinds.len())];
                let sseed = seed_rng.next_u64();
                let binary = match framing {
                    Framing::Json => false,
                    Framing::Binary => true,
                    Framing::Mixed => index % 2 == 1,
                };
                SessionPlan {
                    index,
                    at,
                    kind,
                    seed: sseed,
                    binary,
                }
            })
            .collect();
        Ok(Schedule { plans })
    }

    /// FNV-1a 64-bit digest over the canonical byte serialization of the
    /// schedule: every plan's index, arrival-time bits, kind tag, seed and
    /// framing byte, in order. Two runs offer byte-identical load iff
    /// their digests match.
    pub fn wire_digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        for p in &self.plans {
            eat(&(p.index as u64).to_le_bytes());
            eat(&p.at.to_bits().to_le_bytes());
            eat(&[p.kind.tag(), p.binary as u8]);
            eat(&p.seed.to_le_bytes());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_digest_byte_for_byte() {
        let mk =
            || Schedule::generate(500, &RateProfile::Constant(100.0), 42, Framing::Mixed).unwrap();
        let a = mk();
        let b = mk();
        assert_eq!(a.wire_digest(), b.wire_digest());
        for (x, y) in a.plans.iter().zip(&b.plans) {
            assert_eq!(x.at.to_bits(), y.at.to_bits());
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.kind, y.kind);
        }
        let c = Schedule::generate(500, &RateProfile::Constant(100.0), 43, Framing::Mixed).unwrap();
        assert_ne!(a.wire_digest(), c.wire_digest());
    }

    #[test]
    fn arrivals_ascend_and_kinds_mix() {
        let s = Schedule::generate(900, &RateProfile::Constant(50.0), 7, Framing::Mixed).unwrap();
        for w in s.plans.windows(2) {
            assert!(w[1].at > w[0].at);
        }
        for kind in [ScenarioKind::Abr, ScenarioKind::Cdn, ScenarioKind::Relay] {
            let n = s.plans.iter().filter(|p| p.kind == kind).count();
            assert!(n > 150, "{:?} underrepresented: {n}", kind);
        }
        let binary = s.plans.iter().filter(|p| p.binary).count();
        assert_eq!(binary, 450);
    }

    #[test]
    fn bad_profiles_are_errors_not_panics() {
        let err =
            Schedule::generate(10, &RateProfile::Constant(-1.0), 7, Framing::Json).unwrap_err();
        assert!(err.contains("positive"), "{err}");
        let err = Schedule::generate(0, &RateProfile::Constant(1.0), 7, Framing::Json).unwrap_err();
        assert!(err.contains("sessions"), "{err}");
    }
}
