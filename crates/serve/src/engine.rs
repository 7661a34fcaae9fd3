//! Session state and request handling, independent of the transport.
//!
//! Each shard worker owns one [`Engine`]: a map from session id to
//! [`Session`], where a session holds the [`InitSpec`] that created it
//! (schema and space its records must conform to included), one [`Bank`]
//! of online estimators (a member per requested protocol name, all fed
//! by one scorer built from the spec's policy and model value), and a
//! [`CouplingMonitor`] running §4.3 change-point detection over the live
//! reward stream. A windowed session also keeps one ring of its most
//! recent records, which its bank replays once on `estimate`.
//! [`Engine::apply`] is the one apply path both live shard traffic and
//! WAL recovery take.

use crate::protocol::{error_response, ok_response, InitSpec, PolicySpec, Request};
use ddn_estimators::menu::{self, MenuConfig};
use ddn_estimators::{ActionEmbedding, Bank, EstimatorError, OnlineEstimate};
use ddn_stats::changepoint::{pelt, CostModel, Penalty};
use ddn_stats::Json;
use ddn_telemetry::Collector;
use ddn_trace::{DecisionSpace, Trace, TraceRecord};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How many of the most recent rewards the coupling monitor keeps. The
/// server must stay O(1) per session in the stream length, so change
/// points are detected over a bounded trailing window rather than the
/// full history.
pub const COUPLING_WINDOW: usize = 2048;

/// Minimum segment length for the online change-point scan — matches the
/// offline `CouplingDetector` used by the health suite.
pub const COUPLING_MIN_SEGMENT: usize = 20;

/// Online §4.3 coupling detection: keeps a bounded trailing window of
/// observed rewards and, on demand, runs PELT (normal-mean cost, BIC
/// penalty) over it to flag decision–reward coupling regimes live.
///
/// The window grows with the rewards pushed, up to its capacity. Every
/// [`CouplingMonitor::changepoints`] call scans the whole window; on a
/// stationary window of `n` rewards that is about `n²/2` segment costs
/// (see [`pelt`]), a few ms at [`COUPLING_WINDOW`].
pub struct CouplingMonitor {
    window: VecDeque<f64>,
    capacity: usize,
    min_segment: usize,
    seen: u64,
}

impl CouplingMonitor {
    /// A monitor keeping the most recent `capacity` rewards.
    ///
    /// # Panics
    /// Panics if `capacity` or `min_segment` is zero.
    pub fn new(capacity: usize, min_segment: usize) -> Self {
        assert!(capacity > 0, "coupling window capacity must be positive");
        assert!(min_segment > 0, "min_segment must be positive");
        Self {
            // Grown on demand, so an idle session costs no window memory.
            window: VecDeque::new(),
            capacity,
            min_segment,
            seen: 0,
        }
    }

    /// Records one observed reward, evicting the oldest when full.
    pub fn push(&mut self, reward: f64) {
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(reward);
        self.seen += 1;
    }

    /// Change points (window-relative indices) over the trailing window.
    /// Empty until the window holds at least two minimum segments.
    pub fn changepoints(&self) -> Vec<usize> {
        if self.window.len() < 2 * self.min_segment {
            return Vec::new();
        }
        let xs: Vec<f64> = self.window.iter().copied().collect();
        pelt(&xs, CostModel::NormalMean, Penalty::Bic, self.min_segment)
    }

    /// Total rewards ever pushed (including evicted ones).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Serializes the monitor for a snapshot. Rewards are stored as raw
    /// f64 bit patterns (JSON text would lose `-0.0`/non-finite values);
    /// capacity and minimum segment are compile-time constants the
    /// restoring monitor already carries.
    pub fn state_save(&self) -> Json {
        self.state_json(true)
    }

    /// [`CouplingMonitor::state_save`], or without the `"window"` array
    /// (snapshot v2 stores the rewards as a binary block).
    fn state_json(&self, inline_window: bool) -> Json {
        let mut fields = Vec::with_capacity(2);
        if inline_window {
            let bits = self.window.iter().map(|&r| Json::Int(r.to_bits() as i64));
            fields.push(("window", Json::Array(bits.collect())));
        }
        fields.push(("seen", Json::Int(self.seen as i64)));
        Json::object(fields)
    }

    /// Restores state saved by [`CouplingMonitor::state_save`]. Atomic:
    /// on error the monitor keeps its prior state.
    pub fn state_load(&mut self, state: &Json) -> Result<(), String> {
        let raw = state
            .get("window")
            .and_then(Json::as_array)
            .ok_or("coupling state needs a \"window\" array")?;
        let mut window = VecDeque::with_capacity(raw.len().min(self.capacity));
        for x in raw {
            let bits = x
                .as_i64()
                .ok_or("coupling window entries must be bit-pattern integers")?;
            window.push_back(f64::from_bits(bits as u64));
        }
        self.restore(window, state)
    }

    /// Installs a saved window plus the `"seen"` count from `state`,
    /// holding the window to what a live monitor can hold: at most
    /// `capacity` finite rewards, no more than were seen. Atomic.
    fn restore(&mut self, window: VecDeque<f64>, state: &Json) -> Result<(), String> {
        if window.len() > self.capacity {
            return Err(format!(
                "coupling window of {} exceeds capacity {}",
                window.len(),
                self.capacity
            ));
        }
        if let Some(r) = window.iter().find(|r| !r.is_finite()) {
            return Err(format!("coupling window holds a non-finite reward {r}"));
        }
        let seen = state
            .get("seen")
            .and_then(Json::as_u64)
            .ok_or("coupling state needs \"seen\"")?;
        if (seen as usize) < window.len() {
            return Err(format!(
                "coupling \"seen\" {seen} below window length {}",
                window.len()
            ));
        }
        self.window = window;
        self.seen = seen;
        Ok(())
    }

    /// The rewards in the trailing window, oldest first.
    pub(crate) fn window(&self) -> &VecDeque<f64> {
        &self.window
    }

    /// The report as a JSON object for the `estimate` response.
    pub fn to_json(&self) -> Json {
        let cps = self.changepoints();
        Json::object(vec![
            ("coupled", Json::Bool(!cps.is_empty())),
            ("segments", Json::Int(cps.len() as i64 + 1)),
            (
                "changepoints",
                Json::Array(cps.into_iter().map(|c| Json::Int(c as i64)).collect()),
            ),
            ("window", Json::Int(self.window.len() as i64)),
            ("seen", Json::Int(self.seen as i64)),
        ])
    }
}

/// An estimate (or its error) as the `estimate` response renders it.
fn estimate_json(est: Result<OnlineEstimate, EstimatorError>) -> Json {
    match est {
        Ok(e) => Json::object(vec![
            ("value", Json::Num(e.value)),
            ("n", Json::Int(e.n as i64)),
            ("ess", Json::Num(e.diagnostics.effective_sample_size)),
            ("max_weight", Json::Num(e.diagnostics.max_weight)),
        ]),
        Err(e) => Json::object(vec![("error", Json::str(e.to_string()))]),
    }
}

/// The probability `spec` gives each arm of `space`, the same for every
/// context: `1/K` each for uniform (what `UniformRandomPolicy::prob`
/// returns), 1 on the decision and 0 elsewhere for a constant (what a
/// constant `LookupPolicy::prob` returns).
fn policy_probs(spec: &PolicySpec, space: &DecisionSpace) -> Result<Vec<f64>, String> {
    let decision = match spec {
        PolicySpec::Uniform => return Ok(menu::uniform(space)),
        PolicySpec::ConstantIndex(i) => {
            if *i >= space.len() {
                return Err(format!(
                    "policy decision index {i} out of range for space of {}",
                    space.len()
                ));
            }
            *i
        }
        PolicySpec::ConstantName(name) => space
            .position(name)
            .ok_or_else(|| format!("policy decision {name:?} not in space {:?}", space.names()))?,
    };
    let one_hot = |d| if d == decision { 1.0 } else { 0.0 };
    Ok((0..space.len()).map(one_hot).collect())
}

/// An init request configures the menu's knobs; what it leaves unset
/// is already at the registry's defaults.
impl MenuConfig for InitSpec {
    fn max_weight(&self) -> f64 {
        self.max_weight
    }

    fn horizon(&self) -> usize {
        self.horizon
    }

    fn embedding(&self, space: &DecisionSpace) -> ActionEmbedding {
        match &self.embedding {
            Some(groups) => ActionEmbedding::from_groups(groups.clone()),
            None => ActionEmbedding::identity(space.len()),
        }
    }

    fn logging(&self, space: &DecisionSpace) -> Result<Vec<f64>, String> {
        policy_probs(&self.logging, space)
    }
}

/// One client-visible evaluation session.
pub struct Session {
    /// The init request that created this session; a snapshot stores it
    /// as [`InitSpec::to_json`] (see [`Session::from_state`]).
    spec: InitSpec,
    /// One member per name in `spec.estimators`, in the same order. A
    /// cumulative session folds every record into it; a windowed one
    /// replays `ring` through it on `estimate`.
    bank: Bank,
    /// With `spec.window` set: the most recent records, at most that
    /// many, kept once for the whole bank. Grown on demand — the
    /// capacity comes from the client, and memory must follow the
    /// records actually sent. Empty for a cumulative session.
    ring: VecDeque<TraceRecord>,
    /// Records evicted from `ring` so far.
    evicted: u64,
    coupling: CouplingMonitor,
    last_ts: f64,
    accepted: usize,
    /// Next expected batch sequence number for sequenced ingests.
    next_seq: u64,
    /// The acknowledgement sent for the most recent sequenced batch, kept
    /// so a retried (replayed) batch can be re-acknowledged without
    /// re-ingesting. A window of one is enough because the client keeps
    /// at most one ingest outstanding per session (see DESIGN.md §11).
    last_ack: Option<(u64, Json)>,
}

impl Session {
    /// Builds the session's bank from an init spec, one registry row per
    /// requested name.
    pub fn new(spec: InitSpec) -> Result<Self, String> {
        let target = policy_probs(&spec.policy, &spec.space)?;
        let bank = Bank::new(
            &spec.estimators,
            &spec.space,
            target,
            spec.model_value,
            &spec,
        )?;
        Ok(Session {
            spec,
            bank,
            ring: VecDeque::new(),
            evicted: 0,
            coupling: CouplingMonitor::new(COUPLING_WINDOW, COUPLING_MIN_SEGMENT),
            last_ts: f64::NEG_INFINITY,
            accepted: 0,
            next_seq: 0,
            last_ack: None,
        })
    }

    /// Checks record `k` as ingest does: it conforms to the session's
    /// schema and space, its values are finite, its timestamp does not
    /// go back past `ts` (advanced here), and it carries a propensity
    /// when the bank reads one.
    fn check_record(&self, k: usize, rec: &TraceRecord, ts: &mut f64) -> Result<(), String> {
        Trace::validate_record(k, rec, &self.spec.schema, &self.spec.space, ts)
            .map_err(|e| e.to_string())?;
        if self.bank.needs_propensity() && rec.propensity.is_none() {
            return Err("logging propensity required by the session's estimators".into());
        }
        Ok(())
    }

    /// Validates-then-applies a batch atomically: either every record is
    /// ingested or none is, and the error names the offending batch
    /// position. Every ingest, sequenced or not, takes this path — an
    /// acknowledgement must mean "the whole batch counted once", or a
    /// replay after a partial failure would double-ingest the prefix.
    pub fn ingest_atomic(&mut self, records: &[TraceRecord]) -> Result<usize, String> {
        // Dry-run validation against a scratch timestamp so a reject
        // leaves the session untouched.
        let mut ts = self.last_ts;
        for (i, rec) in records.iter().enumerate() {
            self.check_record(self.accepted + i, rec, &mut ts)
                .map_err(|e| format!("batch record {i}: {e}"))?;
        }
        // Apply. The checks above cover every push failure mode, so this
        // phase cannot reject.
        for (i, rec) in records.iter().enumerate() {
            match self.spec.window {
                Some(capacity) => {
                    if self.ring.len() == capacity {
                        self.ring.pop_front();
                        self.evicted += 1;
                    }
                    self.ring.push_back(rec.clone());
                }
                None => self
                    .bank
                    .push(rec)
                    .map_err(|e| format!("batch record {i}: {e}"))?,
            }
            self.coupling.push(rec.reward);
            self.accepted += 1;
        }
        self.last_ts = ts;
        Ok(records.len())
    }

    /// Records accepted so far.
    pub fn accepted(&self) -> usize {
        self.accepted
    }

    /// The windowed records, oldest first (empty for a cumulative
    /// session).
    pub(crate) fn ring(&self) -> &VecDeque<TraceRecord> {
        &self.ring
    }

    /// The session's coupling monitor.
    pub(crate) fn coupling(&self) -> &CouplingMonitor {
        &self.coupling
    }

    /// Serializes the full session for a snapshot: the init request that
    /// configures it, every estimator's sufficient statistics, the
    /// coupling monitor, and the exactly-once dedup state (`next_seq`
    /// plus the stored acknowledgement). Timestamps are raw f64 bit
    /// patterns — `last_ts` starts at `NEG_INFINITY`, which JSON text
    /// cannot carry.
    ///
    /// This is the snapshot v1 shape: every windowed entry carries the
    /// ring as a `"window"` array of records next to its `"evicted"`
    /// count, so the ring appears once per windowed estimator.
    pub fn state_save(&self) -> Json {
        self.state_json(true)
    }

    /// [`Session::state_save`], or — without `inline_windows` — the
    /// same object minus every windowed entry's `"window"` array and the
    /// coupling `"window"`: the snapshot v2 metadata, whose binary
    /// blocks carry [`Session::ring`] and the coupling rewards instead.
    pub(crate) fn state_json(&self, inline_windows: bool) -> Json {
        let estimators = match self.spec.window {
            None => self.bank.state_save(),
            Some(_) => {
                let window = inline_windows
                    .then(|| Json::Array(self.ring.iter().map(TraceRecord::to_json).collect()));
                self.bank
                    .kernel_names()
                    .map(|est| {
                        let mut fields = vec![("est", Json::str(est))];
                        fields.extend(window.clone().map(|w| ("window", w)));
                        fields.push(("evicted", Json::Int(self.evicted as i64)));
                        Json::object(fields)
                    })
                    .collect()
            }
        };
        let last_ack = match &self.last_ack {
            None => Json::Null,
            Some((seq, resp)) => Json::object(vec![
                ("seq", Json::Int(*seq as i64)),
                ("resp", resp.clone()),
            ]),
        };
        Json::object(vec![
            ("init", self.spec.to_json()),
            ("estimators", Json::Array(estimators)),
            ("coupling", self.coupling.state_json(inline_windows)),
            ("last_ts", Json::Int(self.last_ts.to_bits() as i64)),
            ("accepted", Json::Int(self.accepted as i64)),
            ("next_seq", Json::Int(self.next_seq as i64)),
            ("last_ack", last_ack),
        ])
    }

    /// Rebuilds a session from [`Session::state_save`] output: reads
    /// the stored init request through [`Request::from_json`] (the same
    /// code path a live init takes), then loads estimator, coupling, and
    /// dedup state on top. A windowed session's ring comes from its
    /// entries' `"window"` arrays, which must all agree. Any failure
    /// discards the partial session.
    pub fn from_state(state: &Json) -> Result<Session, String> {
        let mut s = Session::from_meta(state)?;
        s.coupling.state_load(
            state
                .get("coupling")
                .ok_or("session state needs \"coupling\"")?,
        )?;
        if s.spec.window.is_some() {
            s.load_ring(inline_ring(estimator_states(state)?)?)?;
        }
        Ok(s)
    }

    /// Rebuilds a session from its snapshot v2 metadata (see
    /// [`Session::state_json`]) plus the ring and coupling rewards its
    /// binary blocks held. Atomic, like [`Session::from_state`].
    pub(crate) fn from_blocks(
        meta: &Json,
        ring: VecDeque<TraceRecord>,
        rewards: VecDeque<f64>,
    ) -> Result<Session, String> {
        let mut s = Session::from_meta(meta)?;
        let coupling = meta
            .get("coupling")
            .ok_or("session state needs \"coupling\"")?;
        s.coupling.restore(rewards, coupling)?;
        s.load_ring(ring)?;
        Ok(s)
    }

    /// A session from everything of a snapshot's session object but the
    /// two windows: init request, cumulative estimators' state, the
    /// windowed entries' eviction count (which they must agree on), and
    /// the timestamp, count and dedup state.
    fn from_meta(state: &Json) -> Result<Session, String> {
        let init = state.get("init").ok_or("session state needs \"init\"")?;
        let spec = match Request::from_json(init) {
            Ok(Request::Init(spec)) => spec,
            Ok(_) => return Err("session state \"init\" is not an init request".into()),
            Err(e) => return Err(format!("session state init: {e}")),
        };
        let mut s = Session::new(spec)?;
        let states = estimator_states(state)?;
        if states.len() != s.spec.estimators.len() {
            return Err(format!(
                "session state carries {} estimator states for a bank of {}",
                states.len(),
                s.spec.estimators.len()
            ));
        }
        match s.spec.window {
            None => s.bank.state_load(states)?,
            Some(_) => s.evicted = s.evictions(states)?,
        }
        let ts_bits = state
            .get("last_ts")
            .and_then(Json::as_i64)
            .ok_or("session state needs \"last_ts\"")?;
        s.last_ts = f64::from_bits(ts_bits as u64);
        s.accepted = state
            .get("accepted")
            .and_then(Json::as_u64)
            .ok_or("session state needs \"accepted\"")? as usize;
        s.next_seq = state
            .get("next_seq")
            .and_then(Json::as_u64)
            .ok_or("session state needs \"next_seq\"")?;
        s.last_ack = match state.get("last_ack") {
            None | Some(Json::Null) => None,
            Some(a) => {
                let seq = a
                    .get("seq")
                    .and_then(Json::as_u64)
                    .ok_or("last_ack needs \"seq\"")?;
                let resp = a.get("resp").ok_or("last_ack needs \"resp\"")?.clone();
                Some((seq, resp))
            }
        };
        Ok(s)
    }

    /// The eviction count windowed entries `states` agree on, each
    /// checked to be a windowed state of its member.
    fn evictions(&self, states: &[Json]) -> Result<u64, String> {
        let mut evicted = None;
        let names = self.spec.estimators.iter().zip(self.bank.kernel_names());
        for ((name, est), st) in names.zip(states) {
            if st.get("est").and_then(Json::as_str) != Some(est) {
                return Err(format!("{name}: not a windowed {est} state"));
            }
            let n = st
                .get("evicted")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{name}: windowed state needs \"evicted\""))?;
            if *evicted.get_or_insert(n) != n {
                return Err("windowed estimators disagree on the eviction count".into());
            }
        }
        Ok(evicted.unwrap_or(0))
    }

    /// Installs a restored ring, checked as ingest checks records: every
    /// record valid for the session, timestamps in order and none past
    /// the session's last one, no more records than the window holds (a
    /// cumulative session holds none).
    fn load_ring(&mut self, ring: VecDeque<TraceRecord>) -> Result<(), String> {
        let capacity = self.spec.window.unwrap_or(0);
        if ring.len() > capacity {
            return Err(format!(
                "window of {} records exceeds capacity {capacity}",
                ring.len()
            ));
        }
        let mut ts = f64::NEG_INFINITY;
        for (i, rec) in ring.iter().enumerate() {
            self.check_record(i, rec, &mut ts)
                .map_err(|e| format!("window record {i}: {e}"))?;
        }
        if ts > self.last_ts {
            return Err(format!(
                "window timestamp {ts} is past the session's last one {}",
                self.last_ts
            ));
        }
        self.ring = ring;
        Ok(())
    }

    /// The `estimate` response body: one object per estimator (keyed by
    /// its protocol name, request order preserved) plus the coupling
    /// report. A windowed session first replays its ring through the
    /// bank once, so each estimate equals the batch estimate over the
    /// ring's records.
    pub fn estimate_json(&mut self) -> Json {
        let coupling = self.coupling.to_json();
        if self.spec.window.is_some() {
            self.bank
                .replay(&self.ring)
                .expect("a ring holds only records its bank accepts");
        }
        let bodies = self.bank.estimates().into_iter().map(estimate_json);
        let names = self.spec.estimators.iter().cloned();
        let estimates = Json::Object(names.zip(bodies).collect());
        ok_response(vec![
            ("n", Json::Int(self.accepted as i64)),
            ("estimates", estimates),
            ("coupling", coupling),
        ])
    }

    /// Health metrics per estimator name. A windowed entry reports the
    /// ring: `n` records held, `evicted` so far.
    fn health(&self) -> impl Iterator<Item = (&String, Vec<(&'static str, f64)>)> + '_ {
        let metrics: Vec<_> = match self.spec.window {
            None => self.bank.health().collect(),
            Some(_) => {
                let ring = vec![
                    ("n", self.ring.len() as f64),
                    ("evicted", self.evicted as f64),
                ];
                vec![ring; self.spec.estimators.len()]
            }
        };
        self.spec.estimators.iter().zip(metrics)
    }
}

/// A snapshot session object's `"estimators"` array.
fn estimator_states(state: &Json) -> Result<&[Json], String> {
    state
        .get("estimators")
        .and_then(Json::as_array)
        .ok_or_else(|| "session state needs \"estimators\"".into())
}

/// The ring a v1 session object carries: a copy in each windowed
/// entry's `"window"` array. The copies must agree record for record,
/// compared as rendered JSON text (which tells `-0.0` from `0.0`).
fn inline_ring(states: &[Json]) -> Result<VecDeque<TraceRecord>, String> {
    let mut windows = states.iter().map(|st| {
        st.get("window")
            .and_then(Json::as_array)
            .ok_or("windowed estimator state needs a \"window\" array")
    });
    let Some(first) = windows.next().transpose()? else {
        return Ok(VecDeque::new());
    };
    for w in windows {
        let w = w?;
        let same = w.len() == first.len()
            && w.iter()
                .zip(first)
                .all(|(a, b)| a.to_string() == b.to_string());
        if !same {
            return Err("windowed estimators disagree on the window".into());
        }
    }
    first
        .iter()
        .map(|r| TraceRecord::from_json(r).map_err(|e| format!("bad window record: {e}")))
        .collect()
}

/// How a shard request ended — the `outcome` of its flight-recorder
/// event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Applied or answered successfully.
    Ok,
    /// Answered with an error.
    Error,
    /// A sequenced ingest answered from the dedup window, not re-applied.
    Duplicate,
    /// The handler panicked and its session was quarantined.
    Panic,
}

impl Outcome {
    /// The outcome's flight-recorder name.
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Error => "error",
            Outcome::Duplicate => "duplicate",
            Outcome::Panic => "panic",
        }
    }
}

/// The answer to every request for a quarantined session.
fn degraded_response(session: &str) -> Json {
    error_response(&format!(
        "session {session:?} degraded: a worker panicked while serving it; re-init to recover"
    ))
}

/// The per-shard engine: session routing plus health reporting.
#[derive(Default)]
pub struct Engine {
    /// Boxed, so a map slot is a key and a pointer (32 B) rather than a
    /// whole `Session` (~370 B): the map's spare capacity, up to half its
    /// slots after each doubling, then costs little per session.
    sessions: HashMap<String, Box<Session>>,
}

impl Engine {
    /// An engine with no sessions.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates (or replaces) a session.
    pub fn handle_init(&mut self, spec: InitSpec) -> Json {
        let id = spec.session.clone();
        match Session::new(spec) {
            Ok(s) => {
                self.sessions.insert(id.clone(), Box::new(s));
                ok_response(vec![("session", Json::str(id))])
            }
            Err(e) => error_response(&e),
        }
    }

    /// Ingests a batch into a session, atomically: either every record is
    /// ingested or none is. The response carries `accepted` (from this
    /// batch) and `total` so the caller can account throughput.
    ///
    /// With `seq` set, the batch is also applied exactly once. The
    /// expected sequence advances the session; a replay of the
    /// last-acknowledged sequence returns the stored acknowledgement
    /// tagged `"duplicate":true` without touching state; anything else (a
    /// gap, or a stale sequence an older retry might still carry) is an
    /// error.
    pub fn handle_ingest(
        &mut self,
        session: &str,
        records: &[TraceRecord],
        seq: Option<u64>,
    ) -> Json {
        let Some(s) = self.sessions.get_mut(session) else {
            return error_response(&format!("unknown session {session:?}"));
        };
        if let Some(seq) = seq.filter(|&q| q != s.next_seq) {
            return if s.next_seq > 0 && seq == s.next_seq - 1 {
                match &s.last_ack {
                    Some((acked, resp)) if *acked == seq => {
                        let mut fields = match resp.clone() {
                            Json::Object(fields) => fields,
                            other => return other,
                        };
                        fields.push(("duplicate".to_string(), Json::Bool(true)));
                        Json::Object(fields)
                    }
                    _ => error_response(&format!(
                        "seq {seq} already consumed but its acknowledgement is gone"
                    )),
                }
            } else {
                error_response(&format!("seq {seq} out of order (expected {})", s.next_seq))
            };
        }
        let resp = match s.ingest_atomic(records) {
            Ok(n) => {
                let mut fields = vec![
                    ("accepted", Json::Int(n as i64)),
                    ("total", Json::Int(s.accepted() as i64)),
                ];
                fields.extend(seq.map(|q| ("seq", Json::Int(q as i64))));
                ok_response(fields)
            }
            Err(e) => error_response(&e),
        };
        if let Some(seq) = seq {
            // A rejected batch is acknowledged (negatively) too: the
            // client may never see the response and will retry the same
            // sequence; it must get the same verdict, not a re-ingest.
            s.next_seq += 1;
            s.last_ack = Some((seq, resp.clone()));
        }
        resp
    }

    /// The current estimates for a session.
    pub fn handle_estimate(&mut self, session: &str) -> Json {
        match self.sessions.get_mut(session) {
            None => error_response(&format!("unknown session {session:?}")),
            Some(s) => s.estimate_json(),
        }
    }

    /// Applies one decoded `init`, `ingest` or `estimate` — the one apply
    /// path live shard traffic and WAL recovery share, so a restart
    /// rebuilds every session exactly as live requests built it:
    ///
    /// 1. a request for a session in `poisoned` is answered `degraded`,
    ///    unless it is an `init`, which lifts the quarantine;
    /// 2. `init` and `ingest` run `write_ahead` (the worker logs the
    ///    payload there; recovery passes a no-op), and an error applies
    ///    nothing — the ack would describe state a restart loses;
    /// 3. the handler runs under `catch_unwind`, the test `failpoint`
    ///    panics any `ingest` whose session contains it, and a panic
    ///    drops the (possibly half-applied) session and quarantines it.
    pub fn apply(
        &mut self,
        req: Request,
        poisoned: &mut HashSet<String>,
        failpoint: Option<&str>,
        write_ahead: impl FnOnce() -> io::Result<()>,
    ) -> (Json, Outcome) {
        let Some(session) = req.session().map(str::to_string) else {
            return (error_response("not a shard verb"), Outcome::Error);
        };
        let is_init = matches!(req, Request::Init(_));
        if !is_init && poisoned.contains(&session) {
            return (degraded_response(&session), Outcome::Error);
        }
        if !matches!(req, Request::Estimate { .. }) {
            if let Err(e) = write_ahead() {
                let msg = format!("durability failure: {e}");
                return (error_response(&msg), Outcome::Error);
            }
        }
        if is_init {
            // The replacement session is built from scratch, sequence
            // numbers included.
            poisoned.remove(&session);
        }
        let applied = catch_unwind(AssertUnwindSafe(|| match req {
            Request::Init(spec) => self.handle_init(spec),
            Request::Ingest {
                session,
                records,
                seq,
            } => {
                if failpoint.is_some_and(|marker| session.contains(marker)) {
                    panic!("failpoint hit for session {session:?}");
                }
                self.handle_ingest(&session, &records, seq)
            }
            _ => self.handle_estimate(&session),
        }));
        match applied {
            Ok(resp) if resp.get("duplicate") == Some(&Json::Bool(true)) => {
                (resp, Outcome::Duplicate)
            }
            Ok(resp) if resp.get("ok") == Some(&Json::Bool(true)) => (resp, Outcome::Ok),
            Ok(resp) => (resp, Outcome::Error),
            Err(_) => (self.quarantine(session, poisoned), Outcome::Panic),
        }
    }

    /// Drops a session whose request panicked (its state may be
    /// half-applied) and marks it `poisoned` until a re-`init`. Returns
    /// the `degraded` answer.
    pub(crate) fn quarantine(&mut self, session: String, poisoned: &mut HashSet<String>) -> Json {
        self.remove_session(&session);
        let resp = degraded_response(&session);
        poisoned.insert(session);
        resp
    }

    /// Estimator health for every session on this shard, as a telemetry
    /// collector (sources are `serve/<session>/<estimator>`).
    pub fn collector(&self) -> Collector {
        let mut c = Collector::default();
        for (id, session) in &self.sessions {
            for (name, metrics) in session.health() {
                c.health.push((format!("serve/{id}/{name}"), metrics));
            }
        }
        c
    }

    /// Number of live sessions.
    pub fn sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Every session serialized for a snapshot ([`Session::state_save`],
    /// the v1 shape), keyed by session id and sorted so identical state
    /// always produces identical bytes.
    pub fn state_save(&self) -> Json {
        self.state_json(true)
    }

    /// [`Engine::state_save`], or with every session's
    /// [`Session::state_json`] metadata only (snapshot v2).
    pub(crate) fn state_json(&self, inline_windows: bool) -> Json {
        Json::Object(
            self.sorted()
                .into_iter()
                .map(|(id, s)| (id.clone(), s.state_json(inline_windows)))
                .collect(),
        )
    }

    /// The sessions sorted by id — the order every snapshot writes them
    /// in.
    pub(crate) fn sorted(&self) -> Vec<(&String, &Session)> {
        let mut sessions: Vec<_> = self.sessions.iter().map(|(id, s)| (id, &**s)).collect();
        sessions.sort_unstable_by(|a, b| a.0.cmp(b.0));
        sessions
    }

    /// Restores sessions saved by [`Engine::state_save`] into this
    /// engine. Atomic: every session must parse before any is installed,
    /// so a corrupt snapshot cannot leave a half-restored engine.
    /// Returns how many sessions were restored.
    pub fn restore_sessions(&mut self, state: &Json) -> Result<usize, String> {
        let obj = state
            .as_object()
            .ok_or("engine state must be an object of sessions")?;
        let mut restored = Vec::with_capacity(obj.len());
        for (id, s) in obj {
            let sess = Session::from_state(s).map_err(|e| format!("session {id:?}: {e}"))?;
            restored.push((id.clone(), sess));
        }
        Ok(self.install(restored))
    }

    /// Installs restored sessions, replacing any of the same id.
    /// Returns how many were installed.
    pub(crate) fn install(&mut self, sessions: Vec<(String, Session)>) -> usize {
        let n = sessions.len();
        self.sessions
            .extend(sessions.into_iter().map(|(id, s)| (id, Box::new(s))));
        n
    }

    /// Drops a session (used by the server to quarantine a session whose
    /// worker panicked mid-request: its state may be half-applied, so it
    /// is destroyed rather than trusted).
    pub fn remove_session(&mut self, session: &str) -> bool {
        self.sessions.remove(session).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;
    use ddn_estimators::Estimator;
    use ddn_models::ConstantModel;
    use ddn_policy::LookupPolicy;
    use ddn_stats::rng::{Rng, Xoshiro256};
    use ddn_trace::{Context, ContextSchema, Decision};

    fn schema() -> ContextSchema {
        ContextSchema::builder().categorical("g", 2).build()
    }

    fn space() -> DecisionSpace {
        DecisionSpace::of(&["a", "b"])
    }

    fn init_line(extra: &str) -> String {
        format!(
            r#"{{"verb":"init","session":"s","schema":{},"space":{}{extra}}}"#,
            schema().to_json(),
            space().to_json(),
        )
    }

    fn init_spec(extra: &str) -> InitSpec {
        match Request::parse(&init_line(extra)).unwrap() {
            Request::Init(spec) => spec,
            _ => unreachable!(),
        }
    }

    fn records(n: usize, seed: u64) -> Vec<TraceRecord> {
        let mut rng = Xoshiro256::seed_from(seed);
        (0..n)
            .map(|_| {
                let g = rng.index(2) as u32;
                let c = Context::build(&schema()).set_cat("g", g).finish();
                let d = rng.index(2);
                let p = if d == 0 { 0.75 } else { 0.25 };
                let r = 2.0 + g as f64 + 3.0 * d as f64;
                TraceRecord::new(c, Decision::from_index(d), r).with_propensity(p)
            })
            .collect()
    }

    #[test]
    fn engine_round_trip_matches_offline_ips() {
        let mut engine = Engine::new();
        let resp = engine.handle_init(init_spec(
            r#","estimators":["ips"],"policy":{"kind":"constant","decision":"b"}"#,
        ));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));

        let recs = records(200, 42);
        let resp = engine.handle_ingest("s", &recs, None);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        assert_eq!(resp.get("total").and_then(Json::as_i64), Some(200));

        let est = engine.handle_estimate("s");
        let online = est
            .get("estimates")
            .and_then(|e| e.get("ips"))
            .and_then(|e| e.get("value"))
            .and_then(Json::as_f64)
            .unwrap();

        let trace = Trace::from_records(schema(), space(), recs).unwrap();
        let policy = LookupPolicy::constant(space(), 1);
        let offline = ddn_estimators::Ips::new()
            .estimate(&trace, &policy)
            .unwrap();
        assert_eq!(online.to_bits(), offline.value.to_bits());
    }

    #[test]
    fn menu_estimators_round_trip_match_offline() {
        use ddn_estimators::{AdaptiveDr, AdaptiveIps, AdaptiveWeights, MarginalizedDr, SeqDr};
        use ddn_policy::UniformRandomPolicy;

        let mut engine = Engine::new();
        let resp = engine.handle_init(init_spec(concat!(
            r#","estimators":["adaptive","adaptive_dr","mdr","seqdr"]"#,
            r#","policy":{"kind":"constant","decision":"b"}"#,
            r#","model_value":2.0,"horizon":4"#,
            r#","embedding":[0,0],"logging":{"kind":"uniform"}"#,
        )));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");

        let recs = records(200, 7);
        let resp = engine.handle_ingest("s", &recs, None);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");

        let est = engine.handle_estimate("s");
        let online = |name: &str| {
            est.get("estimates")
                .and_then(|e| e.get(name))
                .and_then(|e| e.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{name} missing from {est:?}"))
        };

        let trace = Trace::from_records(schema(), space(), recs).unwrap();
        let policy = LookupPolicy::constant(space(), 1);
        let model = ConstantModel::new(2.0);
        let offline_adaptive = AdaptiveIps::new(AdaptiveWeights::Stabilized)
            .estimate(&trace, &policy)
            .unwrap()
            .value;
        let offline_adaptive_dr = AdaptiveDr::new(model, AdaptiveWeights::Stabilized)
            .estimate(&trace, &policy)
            .unwrap()
            .value;
        let offline_mdr = MarginalizedDr::new(
            model,
            ActionEmbedding::from_groups(vec![0, 0]),
            Box::new(UniformRandomPolicy::new(space())),
        )
        .estimate(&trace, &policy)
        .unwrap()
        .value;
        let offline_seqdr = SeqDr::new(model, 4)
            .estimate(&trace, &policy)
            .unwrap()
            .value;

        assert_eq!(online("adaptive").to_bits(), offline_adaptive.to_bits());
        assert_eq!(
            online("adaptive_dr").to_bits(),
            offline_adaptive_dr.to_bits()
        );
        assert_eq!(online("mdr").to_bits(), offline_mdr.to_bits());
        assert_eq!(online("seqdr").to_bits(), offline_seqdr.to_bits());

        // mdr alone must not demand propensities: it prices records off
        // the declared logging policy, never the recorded propensity.
        let mut engine = Engine::new();
        let resp = engine.handle_init(init_spec(
            r#","estimators":["mdr"],"policy":{"kind":"constant","decision":"b"}"#,
        ));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        let mut bare = records(10, 8);
        for r in &mut bare {
            r.propensity = None;
        }
        let resp = engine.handle_ingest("s", &bare, None);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
    }

    #[test]
    fn ingest_errors_isolate_the_bad_record() {
        let mut engine = Engine::new();
        engine.handle_init(init_spec(r#","estimators":["ips"]"#));
        let mut recs = records(5, 1);
        recs[3].propensity = None;
        let resp = engine.handle_ingest("s", &recs, None);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        let msg = resp.get("error").and_then(Json::as_str).unwrap();
        assert!(msg.contains("batch record 3"), "{msg}");
        // Ingest is atomic: none of the batch is in, and the session
        // still works.
        let est = engine.handle_estimate("s");
        assert_eq!(est.get("n").and_then(Json::as_i64), Some(0));
    }

    #[test]
    fn sequenced_replay_is_deduplicated() {
        let mut engine = Engine::new();
        engine.handle_init(init_spec(r#","estimators":["ips"]"#));
        let recs = records(10, 2);
        let first = engine.handle_ingest("s", &recs[..5], Some(0));
        assert_eq!(first.get("ok"), Some(&Json::Bool(true)), "{first:?}");
        assert_eq!(first.get("seq").and_then(Json::as_i64), Some(0));
        assert_eq!(first.get("duplicate"), None);

        // Retrying the acknowledged batch returns the stored ack, tagged,
        // without re-ingesting.
        let replay = engine.handle_ingest("s", &recs[..5], Some(0));
        assert_eq!(replay.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(replay.get("duplicate"), Some(&Json::Bool(true)));
        assert_eq!(replay.get("total").and_then(Json::as_i64), Some(5));
        let est = engine.handle_estimate("s");
        assert_eq!(est.get("n").and_then(Json::as_i64), Some(5));

        // The next sequence applies; gaps and stale sequences error.
        let next = engine.handle_ingest("s", &recs[5..], Some(1));
        assert_eq!(next.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(next.get("total").and_then(Json::as_i64), Some(10));
        let gap = engine.handle_ingest("s", &recs[5..], Some(5));
        assert_eq!(gap.get("ok"), Some(&Json::Bool(false)));
        let stale = engine.handle_ingest("s", &recs[..5], Some(0));
        assert_eq!(stale.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            engine.handle_estimate("s").get("n").and_then(Json::as_i64),
            Some(10),
            "errors must not mutate the session"
        );
    }

    #[test]
    fn sequenced_ingest_is_atomic() {
        let mut engine = Engine::new();
        engine.handle_init(init_spec(r#","estimators":["ips"]"#));
        let mut recs = records(5, 1);
        recs[3].propensity = None;
        let resp = engine.handle_ingest("s", &recs, Some(0));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        // Nothing lands: an ack (even a negative one) must describe the
        // whole batch.
        let est = engine.handle_estimate("s");
        assert_eq!(est.get("n").and_then(Json::as_i64), Some(0));
        // The rejection is itself replayable with the same verdict.
        let replay = engine.handle_ingest("s", &recs, Some(0));
        assert_eq!(replay.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(replay.get("duplicate"), Some(&Json::Bool(true)));
        // The sequence was consumed; the fixed batch goes in as seq 1.
        recs[3].propensity = Some(0.5);
        let ok = engine.handle_ingest("s", &recs, Some(1));
        assert_eq!(ok.get("ok"), Some(&Json::Bool(true)), "{ok:?}");
        assert_eq!(ok.get("total").and_then(Json::as_i64), Some(5));
    }

    #[test]
    fn remove_session_quarantines_state() {
        let mut engine = Engine::new();
        engine.handle_init(init_spec(r#","estimators":["ips"]"#));
        assert!(engine.remove_session("s"));
        assert!(!engine.remove_session("s"));
        let resp = engine.handle_estimate("s");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
    }

    #[test]
    fn unknown_sessions_and_estimators_error_cleanly() {
        let mut engine = Engine::new();
        let resp = engine.handle_estimate("ghost");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        let resp = engine.handle_init(init_spec(r#","estimators":["magic"]"#));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(engine.sessions(), 0);
    }

    #[test]
    fn coupling_monitor_flags_a_regime_change() {
        let mut m = CouplingMonitor::new(COUPLING_WINDOW, COUPLING_MIN_SEGMENT);
        for _ in 0..100 {
            m.push(1.0);
        }
        for _ in 0..100 {
            m.push(5.0);
        }
        let cps = m.changepoints();
        assert_eq!(cps.len(), 1, "{cps:?}");
        assert!((90..=110).contains(&cps[0]), "{cps:?}");
        let j = m.to_json();
        assert_eq!(j.get("coupled"), Some(&Json::Bool(true)));
        assert_eq!(j.get("segments").and_then(Json::as_i64), Some(2));
    }

    #[test]
    fn coupling_monitor_window_is_bounded() {
        let mut m = CouplingMonitor::new(64, 8);
        for i in 0..1000 {
            m.push(i as f64);
        }
        assert_eq!(m.seen(), 1000);
        assert_eq!(m.to_json().get("window").and_then(Json::as_i64), Some(64));
    }

    #[test]
    fn windowed_sessions_estimate_over_the_tail() {
        let mut engine = Engine::new();
        engine.handle_init(init_spec(
            r#","estimators":["ips"],"policy":{"kind":"constant","decision":"b"},"window":50"#,
        ));
        let recs = records(200, 9);
        engine.handle_ingest("s", &recs, None);
        let est = engine.handle_estimate("s");
        let online = est
            .get("estimates")
            .and_then(|e| e.get("ips"))
            .and_then(|e| e.get("value"))
            .and_then(Json::as_f64)
            .unwrap();
        let tail = Trace::from_records(schema(), space(), recs[150..].to_vec()).unwrap();
        let policy = LookupPolicy::constant(space(), 1);
        let offline = ddn_estimators::Ips::new().estimate(&tail, &policy).unwrap();
        assert_eq!(online.to_bits(), offline.value.to_bits());
    }

    #[test]
    fn restored_windows_are_checked_as_ingest_checks_records() {
        use ddn_trace::FeatureValue;
        let mut engine = Engine::new();
        engine.handle_init(init_spec(r#","estimators":["ips"],"window":4"#));
        engine.handle_ingest("s", &records(6, 5), None);
        let s = &engine.sessions["s"];
        let (meta, ring) = (s.state_json(false), s.ring().clone());
        let rewards = s.coupling().window().clone();
        assert!(Session::from_blocks(&meta, ring.clone(), rewards.clone()).is_ok());

        let mut bad_code = ring.clone();
        bad_code[1].context = Context::from_wire_values(vec![FeatureValue::Cat(7)]);
        let mut too_long = ring.clone();
        too_long.push_back(ring[0].clone());
        let mut from_the_future = ring.clone();
        from_the_future[3].timestamp = Some(1.0);
        let mut bare = ring.clone();
        bare[2].propensity = None;
        for (case, bad) in [
            ("categorical code", bad_code),
            ("capacity", too_long),
            ("timestamp past last_ts", from_the_future),
            ("missing propensity", bare),
        ] {
            let err = Session::from_blocks(&meta, bad, rewards.clone()).err();
            assert!(err.is_some(), "{case} restored");
        }
        let mut nan = rewards.clone();
        nan[0] = f64::NAN;
        assert!(Session::from_blocks(&meta, ring.clone(), nan).is_err());

        // A cumulative session holds no ring at all.
        let mut plain = Engine::new();
        plain.handle_init(init_spec(r#","estimators":["ips"]"#));
        let meta = plain.sessions["s"].state_json(false);
        assert!(Session::from_blocks(&meta, ring, VecDeque::new()).is_err());
    }

    #[test]
    fn a_huge_window_allocates_only_what_is_ingested() {
        // Reserving the client's capacity up front would abort the whole
        // process here (an allocation failure is not a panic).
        let mut engine = Engine::new();
        let mut poisoned = HashSet::new();
        let mut apply = |line: &str| {
            let req = Request::parse(line).unwrap();
            engine.apply(req, &mut poisoned, None, || Ok(())).0
        };
        let resp = apply(&init_line(
            r#","estimators":["ips"],"policy":{"kind":"constant","decision":"b"},"window":1000000000000"#,
        ));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
        let batch: Vec<String> = records(30, 4)
            .iter()
            .map(|r| r.to_json().to_string())
            .collect();
        let resp = apply(&format!(
            r#"{{"verb":"ingest","session":"s","records":[{}]}}"#,
            batch.join(",")
        ));
        assert_eq!(resp.get("total").and_then(Json::as_i64), Some(30), "{resp}");
        let resp = apply(r#"{"verb":"estimate","session":"s"}"#);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    }

    #[test]
    fn collector_reports_per_session_estimator_health() {
        let mut engine = Engine::new();
        engine.handle_init(init_spec(r#","estimators":["ips","dm"]"#));
        engine.handle_ingest("s", &records(20, 3), None);
        let c = engine.collector();
        let sources: Vec<&str> = c.health.iter().map(|(s, _)| s.as_str()).collect();
        assert!(sources.contains(&"serve/s/ips"), "{sources:?}");
        assert!(sources.contains(&"serve/s/dm"), "{sources:?}");
        let (_, metrics) = c.health.iter().find(|(s, _)| s == "serve/s/ips").unwrap();
        assert!(metrics.iter().any(|(k, v)| *k == "n" && *v == 20.0));
        assert!(metrics.iter().any(|(k, _)| *k == "ess"));
    }
}
