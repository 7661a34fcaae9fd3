//! The closed-loop generator: one thread per connection, each waiting
//! for its reply before sending again, every round trip kept as an exact
//! sample.

use crate::stream::{Op, Plan, CONNECTIONS};
use ddn_serve::{ClientError, ServeClient};
use ddn_stats::Json;
use ddn_trace::TraceRecord;
use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Attempts, failures and exact round-trip samples of one verb.
#[derive(Debug, Default, Clone)]
pub struct VerbLog {
    /// Round trips of completed requests, in nanoseconds.
    pub samples: Vec<u64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed (transport give-up or a server error).
    pub failed: u64,
}

/// What one connection did in one phase.
#[derive(Debug, Default)]
pub struct ConnLog {
    /// Per-verb attempts and latencies.
    pub verbs: BTreeMap<&'static str, VerbLog>,
    /// Records the server acknowledged as ingested.
    pub records_acked: u64,
    /// The latest estimate response per session, for the parity check.
    pub estimates: BTreeMap<usize, Json>,
    /// Records acknowledged per session.
    pub acked_per_session: BTreeMap<usize, u64>,
    /// Ingest round trips by framing (`json` / `binary`).
    pub by_framing: BTreeMap<&'static str, Vec<u64>>,
    /// Failure descriptions (the first few).
    pub errors: Vec<String>,
    /// Requests completed (the replay re-runs exactly this prefix).
    pub ops: usize,
    /// When this connection sent its last request's reply home.
    pub finished: Option<Instant>,
}

impl ConnLog {
    fn fail(&mut self, verb: &'static str, msg: String) {
        self.verbs.entry(verb).or_default().failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(msg);
        }
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: ConnLog) {
        for (verb, v) in other.verbs {
            let mine = self.verbs.entry(verb).or_default();
            mine.samples.extend(v.samples);
            mine.attempted += v.attempted;
            mine.failed += v.failed;
        }
        self.records_acked += other.records_acked;
        for (k, v) in other.by_framing {
            self.by_framing.entry(k).or_default().extend(v);
        }
        self.estimates.extend(other.estimates);
        for (s, n) in other.acked_per_session {
            *self.acked_per_session.entry(s).or_default() += n;
        }
        self.errors.extend(other.errors);
        self.ops += other.ops;
    }

    /// Round-trip samples of `verb` (empty when none).
    pub fn samples(&self, verb: &str) -> &[u64] {
        self.verbs.get(verb).map_or(&[], |v| v.samples.as_slice())
    }

    /// The first failure, if any, as an error naming the phase.
    pub fn check(&self, phase: &str) -> Result<(), String> {
        match self.errors.first() {
            Some(e) => Err(format!("{phase}: {e}")),
            None => Ok(()),
        }
    }

    /// Total attempts and failures over every verb.
    pub fn totals(&self) -> (u64, u64) {
        self.verbs
            .values()
            .fold((0, 0), |(a, f), v| (a + v.attempted, f + v.failed))
    }
}

/// Sends one request of the plan through `client`, timing the client
/// call, and books its outcome. Returns false on failure.
pub fn execute(
    plan: &Plan,
    client: &mut ServeClient,
    op: Op,
    buf: &mut Vec<TraceRecord>,
    log: &mut ConnLog,
) -> bool {
    let verb = op.verb();
    // Inputs are prepared before the clock starts: the round trip covers
    // the client call only (encode, write, server, read, parse).
    let init = match op {
        Op::Init(s) => Some(plan.init_request(s)),
        Op::Ingest { s, start, len } => {
            plan.records(s).fill(start, len, buf);
            None
        }
        _ => None,
    };
    log.verbs.entry(verb).or_default().attempted += 1;
    let started = Instant::now();
    let result: Result<Json, ClientError> = match op {
        Op::Init(s) => {
            client.init_with(&plan.sessions[s].name, init.as_ref().expect("built above"))
        }
        Op::Ingest { s, .. } => {
            let sess = &plan.sessions[s];
            if sess.binary {
                client.ingest_binary(&sess.name, buf)
            } else {
                client.ingest(&sess.name, buf)
            }
        }
        Op::Estimate(s) => client.estimate(&plan.sessions[s].name),
        Op::Stats => client.server_stats(false),
    };
    let ns = started.elapsed().as_nanos() as u64;
    let resp = match result {
        Ok(resp) => resp,
        Err(e) => {
            log.fail(verb, format!("{verb} {op:?}: {e}"));
            return false;
        }
    };
    if let Op::Ingest { s, len, .. } = op {
        let accepted = resp.get("accepted").and_then(Json::as_u64);
        let duplicate = resp.get("duplicate") == Some(&Json::Bool(true));
        if accepted != Some(len as u64) || duplicate {
            log.fail(
                verb,
                format!("ingest {op:?}: unexpected acknowledgement {resp}"),
            );
            return false;
        }
        log.records_acked += len as u64;
        *log.acked_per_session.entry(s).or_default() += len as u64;
        let framing = if plan.sessions[s].binary {
            "binary"
        } else {
            "json"
        };
        log.by_framing.entry(framing).or_default().push(ns);
    }
    if let Op::Estimate(s) = op {
        log.estimates.insert(s, resp);
    }
    log.verbs.entry(verb).or_default().samples.push(ns);
    log.ops += 1;
    true
}

/// Runs each connection's fixed request list on its own thread.
pub fn run_lists(plan: &Plan, clients: &mut [ServeClient], lists: &[Vec<Op>]) -> Vec<ConnLog> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(lists)
            .map(|(client, ops)| {
                scope.spawn(move || {
                    let mut log = ConnLog::default();
                    let mut buf = Vec::new();
                    for &op in ops {
                        if !execute(plan, client, op, &mut buf, &mut log) {
                            break;
                        }
                    }
                    log.finished = Some(Instant::now());
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator threads do not panic"))
            .collect()
    })
}

/// The timed phase: every connection streams its endless request
/// sequence until `seconds` have passed, finishing the unit of work in
/// flight (see [`Plan::unit_starts`]). Returns the per-connection
/// logs and the phase's wall time (start to the last reply).
pub fn run_timed(
    plan: &Plan,
    clients: &mut [ServeClient],
    seconds: f64,
) -> (Vec<ConnLog>, Duration) {
    let barrier = Barrier::new(clients.len() + 1);
    let (logs, t0) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut log = ConnLog::default();
                    let mut buf = Vec::new();
                    barrier.wait();
                    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
                    for op in plan.timed(conn) {
                        if plan.unit_starts(conn, op) && Instant::now() >= deadline {
                            break;
                        }
                        if !execute(plan, client, op, &mut buf, &mut log) {
                            break;
                        }
                    }
                    log.finished = Some(Instant::now());
                    log
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let logs: Vec<ConnLog> = handles
            .into_iter()
            .map(|h| h.join().expect("generator threads do not panic"))
            .collect();
        (logs, t0)
    });
    let end = logs.iter().filter_map(|l| l.finished).max().unwrap_or(t0);
    (logs, end.saturating_duration_since(t0))
}

/// The durable pre-phase: `ops` in order from one thread with one
/// request in flight at a time, each on the client of the connection
/// that owns its session, so the server sees one fixed request sequence
/// and the data directory it leaves is byte-identical for a seed.
pub fn run_serial(plan: &Plan, clients: &mut [ServeClient], ops: &[Op]) -> ConnLog {
    debug_assert_eq!(clients.len(), CONNECTIONS);
    let mut log = ConnLog::default();
    let mut buf = Vec::new();
    for &op in ops {
        let conn = match op {
            Op::Init(s) | Op::Estimate(s) | Op::Ingest { s, .. } => plan.connection_of(s),
            Op::Stats => 0,
        };
        if !execute(plan, &mut clients[conn], op, &mut buf, &mut log) {
            break;
        }
    }
    log.finished = Some(Instant::now());
    log
}
