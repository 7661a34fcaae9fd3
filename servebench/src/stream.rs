//! The seeded request streams of the three workloads.
//!
//! Sessions come from `ddn_loadgen::{Schedule, Fleet}`, realized on one
//! thread before any server starts, so a seed fixes every byte the
//! server will see. Each connection's stream is a pure function of the
//! seed and the connection index; how far into it a timed phase gets
//! depends only on how fast the server answers.

use ddn_loadgen::{Fleet, Framing, ScenarioKind, Schedule, SessionPlan};
use ddn_netsim::RateProfile;
use ddn_stats::Json;
use ddn_trace::{ContextSchema, DecisionSpace, FeatureValue, TraceRecord};

/// Closed-loop connections (one generator thread each).
pub const CONNECTIONS: usize = 2;
/// Server shards (`ddn serve --shards`).
pub const SHARDS: usize = 2;
/// Constant reward-model value every bank's model-based estimators use.
pub const MODEL_VALUE: f64 = 0.5;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Session churn over small JSON requests.
    ChattyJson,
    /// 1024-record binary frames into nine-estimator banks.
    BulkBinary,
    /// Windowed banks on a recovered, write-ahead-logged server.
    DurableMonitor,
}

impl Workload {
    /// Every workload, in the order `run_all.py` interleaves them.
    pub const ALL: [Workload; 3] = [
        Workload::ChattyJson,
        Workload::BulkBinary,
        Workload::DurableMonitor,
    ];

    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ChattyJson => "chatty-json",
            Workload::BulkBinary => "bulk-binary",
            Workload::DurableMonitor => "durable-monitor",
        }
    }
}

/// Stream sizes. [`Sizes::full`] is what a run uses; tests shrink it.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// chatty-json: idle sessions initialized during set-up.
    pub standing: usize,
    /// chatty-json: sessions the timed phase may churn through.
    pub churn: usize,
    /// chatty-json: distinct realized 4-record traces the churned
    /// sessions reuse (realizing one per session would dominate the
    /// generator's start-up).
    pub churn_traces: usize,
    /// bulk-binary / durable-monitor: long-lived sessions.
    pub long_sessions: usize,
    /// Records realized per long-lived session; the stream repeats them
    /// cyclically (timestamps shifted forward) beyond that.
    pub base_records: usize,
}

impl Sizes {
    /// Sizes for a run measuring `seconds` seconds.
    pub fn full(workload: Workload, seconds: u64) -> Sizes {
        match workload {
            Workload::ChattyJson => Sizes {
                standing: 20_000,
                // Probes churn 2–3k sessions/s; 8k/s leaves a wide margin.
                churn: 8_000 * seconds.max(1) as usize,
                churn_traces: 4096,
                long_sessions: 0,
                base_records: 4,
            },
            Workload::BulkBinary => Sizes {
                standing: 0,
                churn: 0,
                churn_traces: 0,
                long_sessions: 64,
                base_records: 4096,
            },
            Workload::DurableMonitor => Sizes {
                standing: 0,
                churn: 0,
                churn_traces: 0,
                long_sessions: 64,
                base_records: 4096,
            },
        }
    }
}

/// The simulator worlds, in the order sessions cycle through them.
const KINDS: [ScenarioKind; 3] = [ScenarioKind::Abr, ScenarioKind::Cdn, ScenarioKind::Relay];

/// chatty-json: records per churned session, and per ingest.
pub const CHATTY_RECORDS: usize = 4;
/// chatty-json: records per ingest request.
pub const CHATTY_BATCH: usize = 2;
/// chatty-json: each connection polls `stats` once per this many sessions.
pub const CHATTY_STATS_EVERY: usize = 1000;
/// bulk-binary: records per binary frame.
pub const BULK_BATCH: usize = 1024;
/// bulk-binary: records each session is warmed with during set-up
/// (12288 rather than 4096, so that set-up stays above a second of
/// server work on a 2-vCPU host even in its fast phases). A multiple of
/// the realized records per session, so the timed phase starts on a
/// unit boundary (see [`Plan::unit_starts`]).
pub const BULK_WARM: usize = 12288;
/// bulk-binary: one estimate per this many ingests per connection. The
/// estimates sample PELT across the whole timed phase: its speed on a
/// shared 2-vCPU host swings between about 33 and 58 ms within seconds,
/// so estimates bunched at the end would time one swing. PELT takes about
/// 5% of the server's time at this rate; ingest still dominates.
pub const BULK_ESTIMATE_EVERY: usize = 256;
/// bulk-binary: SeqDR trajectory horizon.
pub const BULK_HORIZON: usize = 4;
/// durable-monitor: records per ingest request.
pub const DURABLE_BATCH: usize = 32;
/// durable-monitor: records each session holds before the crash.
pub const DURABLE_PRELOAD: usize = 2048;
/// durable-monitor: sliding-window capacity of the bank.
pub const DURABLE_WINDOW: usize = 1024;
/// durable-monitor: one estimate per this many ingests per connection.
pub const DURABLE_ESTIMATE_EVERY: usize = 64;

/// The nine-estimator menu bulk-binary banks carry.
pub const FULL_MENU: [&str; 9] = [
    "ips",
    "snips",
    "clipped",
    "dm",
    "dr",
    "adaptive",
    "adaptive_dr",
    "mdr",
    "seqdr",
];

/// One evaluation session: its identity, its init request and the
/// records it will be fed.
pub struct Sess {
    /// Server-side session name.
    pub name: String,
    /// Scenario world the records come from.
    pub kind: ScenarioKind,
    /// Ingests travel as binary frames instead of JSON lines.
    pub binary: bool,
    /// Index of the target decision.
    pub decision: usize,
    /// Index into [`Plan::traces`] of the realized records
    /// (`usize::MAX` for a session that is only initialized).
    pub trace: usize,
}

/// A realized record sequence plus how to extend it cyclically.
pub struct Records {
    /// Context schema of the records.
    pub schema: ContextSchema,
    /// Decision space of the records.
    pub space: DecisionSpace,
    /// The realized records.
    pub base: Vec<TraceRecord>,
    /// Timestamp shift per repetition, so the extended stream keeps the
    /// non-decreasing timestamp order ingest validation demands.
    pub period: f64,
}

impl Records {
    fn new(schema: ContextSchema, space: DecisionSpace, base: Vec<TraceRecord>) -> Records {
        let stamps = || base.iter().filter_map(|r| r.timestamp);
        let lo = stamps().fold(f64::INFINITY, f64::min);
        let hi = stamps().fold(f64::NEG_INFINITY, f64::max);
        let period = if lo.is_finite() { hi - lo + 1.0 } else { 0.0 };
        Records {
            schema,
            space,
            base,
            period,
        }
    }

    /// Record `k` of the endless stream.
    pub fn record(&self, k: usize) -> TraceRecord {
        let n = self.base.len();
        let mut r = self.base[k % n].clone();
        let cycle = (k / n) as f64;
        if cycle > 0.0 {
            r.timestamp = r.timestamp.map(|t| t + cycle * self.period);
        }
        r
    }

    /// Records `start..start + len` of the endless stream into `out`.
    pub fn fill(&self, start: usize, len: usize, out: &mut Vec<TraceRecord>) {
        out.clear();
        out.extend((start..start + len).map(|k| self.record(k)));
    }
}

/// One request of a connection's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `init` session `s`.
    Init(usize),
    /// `ingest` records `start..start + len` of session `s`'s stream.
    Ingest {
        /// Session index.
        s: usize,
        /// First record.
        start: usize,
        /// Record count.
        len: usize,
    },
    /// `estimate` session `s`.
    Estimate(usize),
    /// A `stats` poll.
    Stats,
}

impl Op {
    /// The protocol verb.
    pub fn verb(self) -> &'static str {
        match self {
            Op::Init(_) => "init",
            Op::Ingest { .. } => "ingest",
            Op::Estimate(_) => "estimate",
            Op::Stats => "stats",
        }
    }
}

/// Everything a workload run sends, per connection and per phase.
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// All sessions, indexed by [`Op`] payloads.
    pub sessions: Vec<Sess>,
    /// Realized record sequences, indexed by [`Sess::trace`].
    pub traces: Vec<Records>,
    /// Untimed set-up requests, per connection.
    pub setup: [Vec<Op>; CONNECTIONS],
    /// Sessions each connection's timed phase works on.
    pub owned: [Vec<usize>; CONNECTIONS],
    /// `Schedule::wire_digest` of the session schedule.
    pub schedule_digest: u64,
    /// The simulator worlds the sessions were drawn from.
    fleet: Fleet,
}

/// The bank-specific part of an init request.
fn init_request(
    name: &str,
    schema: &ContextSchema,
    space: &DecisionSpace,
    decision: &str,
    workload: Workload,
) -> Json {
    let menu: &[&str] = match workload {
        Workload::ChattyJson => &["ips"],
        Workload::BulkBinary => &FULL_MENU,
        Workload::DurableMonitor => &["ips", "snips", "dr", "adaptive"],
    };
    let mut fields = vec![
        ("verb", Json::str("init")),
        ("session", Json::str(name)),
        ("schema", schema.to_json()),
        ("space", space.to_json()),
        (
            "estimators",
            Json::Array(menu.iter().map(|e| Json::str(*e)).collect()),
        ),
        (
            "policy",
            Json::object(vec![
                ("kind", Json::str("constant")),
                ("decision", Json::str(decision)),
            ]),
        ),
        ("model_value", Json::Num(MODEL_VALUE)),
        (
            "max_weight",
            Json::Num(ddn_serve::protocol::DEFAULT_MAX_WEIGHT),
        ),
    ];
    match workload {
        Workload::ChattyJson => {}
        Workload::BulkBinary => fields.push(("horizon", Json::Int(BULK_HORIZON as i64))),
        Workload::DurableMonitor => fields.push(("window", Json::Int(DURABLE_WINDOW as i64))),
    }
    Json::object(fields)
}

impl Plan {
    /// Builds the plan for `workload` from `seed`, single-threaded.
    pub fn build(workload: Workload, seed: u64, sizes: Sizes) -> Result<Plan, String> {
        let fleet = Fleet::new(seed);
        let (n_sessions, framing) = match workload {
            Workload::ChattyJson => (sizes.standing + sizes.churn, Framing::Json),
            Workload::BulkBinary => (sizes.long_sessions, Framing::Binary),
            Workload::DurableMonitor => (sizes.long_sessions, Framing::Mixed),
        };
        let mut schedule =
            Schedule::generate(n_sessions, &RateProfile::Constant(1000.0), seed, framing)?;
        // The schedule draws each session's world at random; stratify it
        // so every seed sends the same abr/cdn/relay mix and only the
        // records differ. With 64 sessions a random mix moves per-record
        // costs between seeds by more than the host noise.
        for plan in &mut schedule.plans {
            plan.kind = KINDS[plan.index % KINDS.len()];
        }
        let mut traces = Vec::new();
        let mut sessions = Vec::with_capacity(n_sessions);
        for plan in &schedule.plans {
            let trace = match workload {
                // Standing sessions are only initialized; churned
                // sessions reuse a pool of realized traces.
                Workload::ChattyJson if plan.index < sizes.standing => usize::MAX,
                Workload::ChattyJson => {
                    let slot = (plan.index - sizes.standing) % sizes.churn_traces.max(1);
                    if slot == traces.len() {
                        traces.push(realize(&fleet, plan, CHATTY_RECORDS));
                    }
                    slot
                }
                _ => {
                    traces.push(realize(&fleet, plan, sizes.base_records));
                    traces.len() - 1
                }
            };
            let space_len = match traces.get(trace) {
                Some(t) => t.space.len(),
                None => fleet.space(plan.kind).len(),
            };
            sessions.push(Sess {
                name: plan.session_name(),
                kind: plan.kind,
                binary: plan.binary,
                decision: (plan.seed % space_len as u64) as usize,
                trace,
            });
        }

        let mut setup: [Vec<Op>; CONNECTIONS] = Default::default();
        let mut owned: [Vec<usize>; CONNECTIONS] = Default::default();
        match workload {
            Workload::ChattyJson => {
                for i in 0..sizes.standing {
                    setup[i % CONNECTIONS].push(Op::Init(i));
                }
                for i in sizes.standing..n_sessions {
                    owned[(i - sizes.standing) % CONNECTIONS].push(i);
                }
            }
            Workload::BulkBinary => {
                for i in 0..n_sessions {
                    owned[i % CONNECTIONS].push(i);
                }
                for (c, mine) in owned.iter().enumerate() {
                    setup[c].extend(mine.iter().map(|&s| Op::Init(s)));
                    for wave in 0..BULK_WARM / BULK_BATCH {
                        setup[c].extend(mine.iter().map(|&s| Op::Ingest {
                            s,
                            start: wave * BULK_BATCH,
                            len: BULK_BATCH,
                        }));
                    }
                }
            }
            Workload::DurableMonitor => {
                // Sessions alternate JSON / binary by index; pairing them
                // gives each connection both framings.
                for i in 0..n_sessions {
                    owned[(i / 2) % CONNECTIONS].push(i);
                }
                // Set-up after a restart is one estimate per connection,
                // which also absorbs the reconnect.
                for (c, mine) in owned.iter().enumerate() {
                    setup[c].push(Op::Estimate(mine[0]));
                }
            }
        }
        Ok(Plan {
            workload,
            sessions,
            traces,
            setup,
            owned,
            schedule_digest: schedule.wire_digest(),
            fleet,
        })
    }

    /// The `init` request object (without an id) of session `s`.
    pub fn init_request(&self, s: usize) -> Json {
        let sess = &self.sessions[s];
        let (schema, space) = match self.traces.get(sess.trace) {
            Some(t) => (&t.schema, &t.space),
            None => (self.fleet.schema(sess.kind), self.fleet.space(sess.kind)),
        };
        init_request(
            &sess.name,
            schema,
            space,
            &space.names()[sess.decision],
            self.workload,
        )
    }

    /// The records of session `s`.
    pub fn records(&self, s: usize) -> &Records {
        &self.traces[self.sessions[s].trace]
    }

    /// The durable-monitor pre-phase, in one fixed sequence (it runs with
    /// one request in flight): each session in turn is initialized and
    /// loaded with [`DURABLE_PRELOAD`] records. Session by session, the
    /// inits — which give durable-monitor its `init_p50_us` — spread over
    /// the whole pre-phase instead of a burst of a few milliseconds at
    /// the server's start.
    pub fn preload(&self) -> Vec<Op> {
        (0..self.sessions.len())
            .flat_map(|s| {
                std::iter::once(Op::Init(s)).chain((0..DURABLE_PRELOAD / DURABLE_BATCH).map(
                    move |b| Op::Ingest {
                        s,
                        start: b * DURABLE_BATCH,
                        len: DURABLE_BATCH,
                    },
                ))
            })
            .collect()
    }

    /// The connection whose client carries session `s`.
    pub fn connection_of(&self, s: usize) -> usize {
        (0..CONNECTIONS)
            .find(|&c| self.owned[c].contains(&s))
            .unwrap_or(0)
    }

    /// Whether `op`, next on connection `conn`'s timed stream, starts a
    /// unit of work: the timed phase stops only at these. A chatty-json
    /// unit is a whole session. A bulk-binary unit is one pass over the
    /// connection's sessions to the end of their realized records, so
    /// when the phase stops every session's coupling window holds the
    /// same rewards whatever the throughput was, and the closing
    /// estimates run PELT over the same data in every run of a seed.
    pub fn unit_starts(&self, conn: usize, op: Op) -> bool {
        match (self.workload, op) {
            (Workload::ChattyJson, op) => matches!(op, Op::Init(_) | Op::Stats),
            (Workload::BulkBinary, Op::Ingest { s, start, .. }) => {
                s == self.owned[conn][0] && start % self.records(s).base.len() == 0
            }
            _ => true,
        }
    }

    /// A cursor over connection `conn`'s timed-phase requests.
    pub fn timed(&self, conn: usize) -> Timed<'_> {
        Timed {
            plan: self,
            conn,
            step: 0,
        }
    }

    /// Untimed requests each connection sends after its timed phase, for
    /// the parity check: one estimate per long-lived session (chatty-json
    /// sessions end with their own). All go over connection 0, one at a
    /// time, so no estimate queues behind another on its shard and their
    /// round trips time the estimate itself.
    pub fn closing(&self, conn: usize) -> Vec<Op> {
        match self.workload {
            Workload::ChattyJson => Vec::new(),
            _ if conn == 0 => (0..self.sessions.len()).map(Op::Estimate).collect(),
            _ => Vec::new(),
        }
    }

    /// FNV-1a digest of the request stream: the schedule, every realized
    /// record, each connection's set-up requests and the first `timed`
    /// requests of its timed phase. Equal digests mean equal wire input.
    pub fn digest(&self, timed: usize) -> u64 {
        let mut h = Fnv::new();
        h.eat(self.workload.name().as_bytes());
        h.eat(&self.schedule_digest.to_le_bytes());
        for s in &self.sessions {
            h.eat(s.name.as_bytes());
            h.eat(&[s.kind.tag(), s.binary as u8]);
            h.eat(&(s.decision as u64).to_le_bytes());
            h.eat(&(s.trace as u64).to_le_bytes());
        }
        for t in &self.traces {
            for r in &t.base {
                eat_record(&mut h, r);
            }
        }
        for c in 0..CONNECTIONS {
            let ops = self.setup[c]
                .iter()
                .copied()
                .chain(self.timed(c).take(timed));
            for op in ops {
                h.eat(op.verb().as_bytes());
                let (s, start, len) = match op {
                    Op::Init(s) | Op::Estimate(s) => (s, 0, 0),
                    Op::Ingest { s, start, len } => (s, start, len),
                    Op::Stats => (usize::MAX, 0, 0),
                };
                for x in [s, start, len] {
                    h.eat(&(x as u64).to_le_bytes());
                }
            }
        }
        h.0
    }
}

/// Connection `conn`'s endless timed-phase stream.
pub struct Timed<'a> {
    plan: &'a Plan,
    conn: usize,
    step: usize,
}

impl Iterator for Timed<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let plan = self.plan;
        let mine = &plan.owned[self.conn];
        let k = self.step;
        self.step += 1;
        match plan.workload {
            Workload::ChattyJson => {
                // Per session: init, two 2-record ingests, estimate; a
                // stats poll after every CHATTY_STATS_EVERY sessions.
                let per = 4 * CHATTY_STATS_EVERY + 1;
                let (block, r) = (k / per, k % per);
                if r == per - 1 {
                    return Some(Op::Stats);
                }
                let s = *mine.get(block * CHATTY_STATS_EVERY + r / 4)?;
                Some(match r % 4 {
                    0 => Op::Init(s),
                    1 => Op::Ingest {
                        s,
                        start: 0,
                        len: CHATTY_BATCH,
                    },
                    2 => Op::Ingest {
                        s,
                        start: CHATTY_BATCH,
                        len: CHATTY_BATCH,
                    },
                    _ => Op::Estimate(s),
                })
            }
            Workload::BulkBinary => {
                // Ingests round-robin, and after every BULK_ESTIMATE_EVERY
                // of them an estimate of the next session in turn.
                let per = BULK_ESTIMATE_EVERY + 1;
                let (block, r) = (k / per, k % per);
                if r == BULK_ESTIMATE_EVERY {
                    return Some(Op::Estimate(mine[block % mine.len()]));
                }
                let i = block * BULK_ESTIMATE_EVERY + r;
                let wave = BULK_WARM / BULK_BATCH + i / mine.len();
                Some(Op::Ingest {
                    s: mine[i % mine.len()],
                    start: wave * BULK_BATCH,
                    len: BULK_BATCH,
                })
            }
            Workload::DurableMonitor => {
                // 64 ingests round-robin over the connection's sessions,
                // then an estimate of one of them, the next in turn.
                let per = DURABLE_ESTIMATE_EVERY + 1;
                let (block, r) = (k / per, k % per);
                if r == per - 1 {
                    return Some(Op::Estimate(mine[block % mine.len()]));
                }
                let i = block * DURABLE_ESTIMATE_EVERY + r;
                let s = mine[i % mine.len()];
                let start = (DURABLE_PRELOAD / DURABLE_BATCH + i / mine.len()) * DURABLE_BATCH;
                Some(Op::Ingest {
                    s,
                    start,
                    len: DURABLE_BATCH,
                })
            }
        }
    }
}

/// The shard `ddn serve` routes session `name` to: the same std
/// `DefaultHasher` (fixed keys) modulo the shard count.
pub fn shard_of(name: &str, shards: usize) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    name.hash(&mut h);
    (h.finish() % shards as u64) as usize
}

fn realize(fleet: &Fleet, plan: &SessionPlan, n: usize) -> Records {
    let work = fleet.realize(plan, n);
    Records::new(
        work.trace.schema().clone(),
        work.trace.space().clone(),
        work.trace.records().to_vec(),
    )
}

/// 64-bit FNV-1a.
pub struct Fnv(pub u64);

impl Fnv {
    /// The FNV offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` in.
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn eat_record(h: &mut Fnv, r: &TraceRecord) {
    for v in r.context.values() {
        match v {
            FeatureValue::Cat(c) => h.eat(&(*c as u64).to_le_bytes()),
            FeatureValue::Num(x) => h.eat(&x.to_bits().to_le_bytes()),
        }
    }
    h.eat(&(r.decision.index() as u64).to_le_bytes());
    h.eat(&r.reward.to_bits().to_le_bytes());
    for x in [r.propensity, r.timestamp] {
        h.eat(&x.map_or(u64::MAX, f64::to_bits).to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn small(workload: Workload) -> Sizes {
        Sizes {
            standing: 40,
            churn: 60,
            churn_traces: 8,
            long_sessions: 6,
            base_records: 64,
        }
        .for_test(workload)
    }

    impl Sizes {
        fn for_test(mut self, workload: Workload) -> Sizes {
            if workload == Workload::ChattyJson {
                self.long_sessions = 0;
                self.base_records = CHATTY_RECORDS;
            } else {
                self.standing = 0;
                self.churn = 0;
            }
            self
        }
    }

    #[test]
    fn same_seed_same_digest_other_seed_differs() {
        for w in Workload::ALL {
            let a = Plan::build(w, 11, small(w)).unwrap().digest(200);
            let b = Plan::build(w, 11, small(w)).unwrap().digest(200);
            let c = Plan::build(w, 12, small(w)).unwrap().digest(200);
            assert_eq!(a, b, "{}", w.name());
            assert_ne!(a, c, "{}", w.name());
        }
    }

    #[test]
    fn chatty_stream_churns_sessions_and_polls_stats() {
        let plan = Plan::build(Workload::ChattyJson, 3, small(Workload::ChattyJson)).unwrap();
        assert_eq!(plan.setup[0].len() + plan.setup[1].len(), 40);
        let ops: Vec<Op> = plan.timed(0).collect();
        // 30 churned sessions on connection 0, four requests each; the
        // stream ends when they run out, before the first stats poll.
        assert_eq!(ops.len(), 30 * 4);
        assert_eq!(ops[0], Op::Init(40));
        assert_eq!(
            ops[1],
            Op::Ingest {
                s: 40,
                start: 0,
                len: 2
            }
        );
        assert_eq!(ops[3], Op::Estimate(40));
        assert_eq!(ops[4], Op::Init(42));
    }

    #[test]
    fn bulk_units_end_with_every_session_at_a_full_pass() {
        let plan = Plan::build(
            Workload::BulkBinary,
            2,
            Sizes::full(Workload::BulkBinary, 20),
        )
        .unwrap();
        let base = plan.records(0).base.len();
        assert_eq!(BULK_WARM % base, 0);
        let mine = &plan.owned[0];
        let mut totals: BTreeMap<usize, usize> = mine.iter().map(|&s| (s, BULK_WARM)).collect();
        let (mut units, mut estimates) = (0, Vec::new());
        for op in plan.timed(0) {
            if plan.unit_starts(0, op) {
                units += 1;
                assert!(totals.values().all(|t| t % base == 0), "{totals:?}");
            }
            match op {
                Op::Ingest { s, start, len } => {
                    assert_eq!(start, totals[&s]);
                    *totals.get_mut(&s).unwrap() += len;
                }
                Op::Estimate(s) => estimates.push(s),
                _ => unreachable!("bulk streams only ingest and estimate"),
            }
            if estimates.len() == 3 {
                break;
            }
        }
        // An estimate after every two passes of 128 ingests, rotating
        // over the connection's sessions; the phase may stop before each
        // estimate and at every pass start.
        assert_eq!(estimates, vec![mine[0], mine[1], mine[2]]);
        assert_eq!(units, 3 * (2 + 1));
    }

    #[test]
    fn long_streams_extend_cyclically_with_ordered_timestamps() {
        let plan =
            Plan::build(Workload::DurableMonitor, 5, small(Workload::DurableMonitor)).unwrap();
        let ops: Vec<Op> = plan.timed(1).take(DURABLE_ESTIMATE_EVERY + 1).collect();
        assert_eq!(plan.owned[1], vec![2, 3]);
        assert_eq!(
            ops[0],
            Op::Ingest {
                s: 2,
                start: DURABLE_PRELOAD,
                len: DURABLE_BATCH
            }
        );
        assert_eq!(
            ops[1],
            Op::Ingest {
                s: 3,
                start: DURABLE_PRELOAD,
                len: DURABLE_BATCH
            }
        );
        assert_eq!(
            ops[2],
            Op::Ingest {
                s: 2,
                start: DURABLE_PRELOAD + DURABLE_BATCH,
                len: DURABLE_BATCH
            }
        );
        // Estimates rotate over the connection's sessions.
        let estimates: Vec<Op> = plan
            .timed(1)
            .filter(|op| matches!(op, Op::Estimate(_)))
            .take(4)
            .collect();
        assert_eq!(
            estimates,
            vec![
                Op::Estimate(2),
                Op::Estimate(3),
                Op::Estimate(2),
                Op::Estimate(3)
            ]
        );
        assert!(plan.owned[1].iter().any(|&s| plan.sessions[s].binary));
        assert!(plan.owned[1].iter().any(|&s| !plan.sessions[s].binary));
        for s in 0..plan.sessions.len() {
            let recs = plan.records(s);
            let mut last = f64::NEG_INFINITY;
            for k in 0..3 * recs.base.len() {
                if let Some(t) = recs.record(k).timestamp {
                    assert!(t >= last, "session {s} record {k}");
                    last = t;
                }
            }
        }
    }
}
