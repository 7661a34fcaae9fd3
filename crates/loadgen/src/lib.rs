//! # ddn-loadgen — closed-loop simulated-client load generation
//!
//! The paper's systems are judged on live traffic, so the serving core
//! (`ddn-serve`) has to be measured under something that *looks* like
//! live traffic: many concurrent sessions, mixed scenario kinds, a
//! time-varying offered load, and faults. This crate drives exactly that
//! through the real [`ServeClient`] wire path:
//!
//! - **Schedule** ([`Schedule`]): one plan per simulated client, arrival
//!   times from a nonhomogeneous-Poisson [`RateProfile`] — a pure
//!   function of the seed, fingerprinted by [`Schedule::wire_digest`].
//! - **Fleet** ([`Fleet`]): ABR / CDN / relay worlds realize each plan
//!   into logged trace records (chunk QoE, CDN quality, call quality),
//!   with propensities, so every session is off-policy-evaluable.
//! - **Drive** ([`run`]): worker threads stream every session through a
//!   live server — init, batched ingests (JSON or binary frames), an
//!   estimate, and sparse health/stats polls — closed-loop by default,
//!   or open-loop against the schedule's arrival clock so coordinated
//!   omission becomes measurable.
//! - **Verify**: at the end of the run every session's streamed IPS
//!   estimate is compared bit-for-bit against the offline estimator on
//!   the same records. A mismatch fails the run — throughput numbers
//!   from a server that mis-counted are worthless.
//!
//! The [`LoadReport`] carries records/sec, per-verb log2 latency
//! histograms (wire-compatible with `ddn top`), backpressure stalls and
//! client retry counts, and serializes into the `BENCH_loadgen.json`
//! shape `reproduce.sh ci`'s bench-diff gate pins.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scenario;
pub mod schedule;

pub use scenario::{Fleet, SessionWork};
pub use schedule::{Framing, ScenarioKind, Schedule, SessionPlan};

use ddn_estimators::{Estimator, Ips};
use ddn_netsim::RateProfile;
use ddn_policy::LookupPolicy;
use ddn_serve::{ClientConfig, ServeClient, ServeConfig};
use ddn_stats::Json;
use ddn_telemetry::Histogram;
use ddn_testkit::{FaultPlan, FaultPlanConfig};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Minimum acceptable sustained ingest rate (records/second) through the
/// full loadgen wire path, conservative enough to survive small smoke
/// sizings on slow CI machines. The tighter, machine-calibrated floor
/// lives in the repo-pinned `bench_floors.json`.
pub const FLOOR_RECORDS_PER_SEC: f64 = 10_000.0;

/// Errors a load run can produce.
#[derive(Debug)]
pub enum LoadgenError {
    /// Invalid configuration — CLI callers should exit 2 (usage).
    Config(String),
    /// The server or a client failed mid-run.
    Serve(String),
    /// A streamed estimate diverged from the offline estimator.
    Parity(String),
}

impl fmt::Display for LoadgenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadgenError::Config(m) => write!(f, "config error: {m}"),
            LoadgenError::Serve(m) => write!(f, "serve error: {m}"),
            LoadgenError::Parity(m) => write!(f, "parity violation: {m}"),
        }
    }
}

impl std::error::Error for LoadgenError {}

/// Configuration of a load run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Number of simulated client sessions.
    pub sessions: usize,
    /// Trace records each session ingests.
    pub records_per_session: usize,
    /// Records per ingest request.
    pub batch: usize,
    /// Worker threads (each owns one connection; sessions round-robin).
    pub workers: usize,
    /// Run seed: schedule, fleet and fault plans derive from it.
    pub seed: u64,
    /// Offered-load profile in sessions/second.
    pub rate: RateProfile,
    /// Open-loop schedule compression: scheduled seconds are divided by
    /// this before being mapped onto the wall clock.
    pub timescale: f64,
    /// Open loop: issue session arrivals on the schedule's clock and
    /// measure init latency from the *intended* arrival, so a stalled
    /// server shows up as latency instead of silently slowing the offered
    /// load (coordinated omission).
    pub open_loop: bool,
    /// Wire encoding for ingest requests.
    pub framing: Framing,
    /// Per-record transport fault rate in `[0, 1]` (0 disables the fault
    /// plane entirely).
    pub fault_rate: f64,
    /// Attach to an already-running server instead of self-hosting.
    pub addr: Option<String>,
    /// Self-hosted server configuration (ignored when `addr` is set).
    pub serve: ServeConfig,
    /// Issue a `health` poll after every N-th session (0 = never).
    pub health_every: usize,
    /// Issue a `stats` poll after every N-th session (0 = never).
    pub stats_every: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            sessions: 100_000,
            records_per_session: 3,
            batch: 2,
            workers: 8,
            seed: 7,
            rate: RateProfile::Constant(25_000.0),
            timescale: 1.0,
            open_loop: false,
            framing: Framing::Mixed,
            fault_rate: 0.0,
            addr: None,
            serve: ServeConfig::default(),
            health_every: 512,
            stats_every: 4096,
        }
    }
}

impl LoadgenConfig {
    /// The fixed small configuration `ddn loadgen --smoke` runs: an
    /// ephemeral self-hosted server, a small mixed fleet, a fixed seed —
    /// fast enough for CI, complete enough to exercise every code path
    /// (both framings, faults, open-loop wave, parity check).
    pub fn smoke(seed: u64) -> LoadgenConfig {
        LoadgenConfig {
            sessions: 600,
            records_per_session: 4,
            batch: 2,
            workers: 4,
            seed,
            rate: RateProfile::Constant(10_000.0),
            fault_rate: 0.002,
            serve: ServeConfig {
                shards: 2,
                ..ServeConfig::default()
            },
            health_every: 64,
            stats_every: 256,
            ..LoadgenConfig::default()
        }
    }

    /// Checks the configuration, returning the first violation as a
    /// message. Never panics: `ddn loadgen` maps the message to a usage
    /// error (exit 2).
    pub fn check(&self) -> Result<(), String> {
        if self.sessions == 0 {
            return Err("sessions must be at least 1".into());
        }
        if self.records_per_session == 0 {
            return Err("records per session must be at least 1".into());
        }
        if self.batch == 0 {
            return Err("batch must be at least 1".into());
        }
        if self.workers == 0 {
            return Err("workers must be at least 1".into());
        }
        if !(self.timescale.is_finite() && self.timescale > 0.0) {
            return Err("timescale must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.fault_rate) {
            return Err("faults must be a rate in [0, 1]".into());
        }
        self.rate.check()
    }
}

/// The verbs the driver times, in display order.
const VERBS: [&str; 5] = ["init", "ingest", "estimate", "health", "stats"];

/// Per-verb client-side latency histograms (ddn-telemetry log2 buckets,
/// wire-compatible with the `stats` verb / `ddn top` rendering).
#[derive(Clone)]
struct VerbHists {
    hists: [Arc<Histogram>; 5],
}

impl VerbHists {
    fn new() -> VerbHists {
        VerbHists {
            hists: std::array::from_fn(|_| Arc::new(Histogram::new())),
        }
    }

    fn record(&self, verb: usize, ns: u64) {
        self.hists[verb].record(ns);
    }
}

/// The outcome of a load run.
#[derive(Debug)]
pub struct LoadReport {
    /// Sessions driven (all of them stay live server-side).
    pub sessions: usize,
    /// Sessions per scenario kind: `[abr, cdn, relay]`.
    pub kind_counts: [usize; 3],
    /// Total records acknowledged.
    pub records: u64,
    /// Total requests delivered (init + ingest + estimate + polls).
    pub requests: u64,
    /// Wall-clock drive time in seconds (excludes fleet generation and
    /// the offline parity pass).
    pub elapsed_secs: f64,
    /// Records per second over the drive phase.
    pub records_per_sec: f64,
    /// Whether the run was open-loop.
    pub open_loop: bool,
    /// Per-record fault rate the transports injected.
    pub fault_rate: f64,
    /// FNV-1a digest of the offered-load schedule.
    pub schedule_digest: u64,
    /// Per-verb latency histograms, in [`VERBS`] order. Closed loop
    /// measures send→response; open loop measures the init verb from the
    /// *scheduled* arrival instead, exposing coordinated omission.
    pub verb_latency: Vec<(&'static str, Arc<Histogram>)>,
    /// Client retry attempts summed over workers.
    pub retries: u64,
    /// Client reconnects summed over workers.
    pub reconnects: u64,
    /// Client read timeouts summed over workers.
    pub timeouts: u64,
    /// Client give-ups (should be 0; any giveup fails the run earlier).
    pub giveups: u64,
    /// Server backpressure stalls over the run.
    pub backpressure_stalls: u64,
    /// Server shard handoffs over the run: requests run by a thread
    /// other than the one that read them, because their shard was busy.
    pub shard_handoffs: u64,
    /// Server dedup replays (faults > 0 make these likely).
    pub dedup_replays: u64,
    /// Records the server counted (must equal `records`).
    pub server_ingested: u64,
    /// Live server-side sessions at the end of the run.
    pub live_sessions: f64,
    /// Sessions whose streamed estimate was verified bit-identical to the
    /// offline estimator (always all of them when `run` returns `Ok`).
    pub parity_sessions: usize,
}

impl LoadReport {
    /// Serializes the report as the `loadgen` summary section of
    /// `BENCH_loadgen.json`.
    pub fn to_json(&self) -> Json {
        let verbs = Json::Object(
            self.verb_latency
                .iter()
                .map(|(verb, h)| {
                    (
                        verb.to_string(),
                        Json::Object(vec![
                            ("count".into(), Json::Int(h.total() as i64)),
                            ("p50_ns".into(), Json::Int(h.quantile(0.50) as i64)),
                            ("p99_ns".into(), Json::Int(h.quantile(0.99) as i64)),
                            ("histogram".into(), h.to_json()),
                        ]),
                    )
                })
                .collect(),
        );
        Json::Object(vec![
            ("sessions".into(), Json::Int(self.sessions as i64)),
            ("abr_sessions".into(), Json::Int(self.kind_counts[0] as i64)),
            ("cdn_sessions".into(), Json::Int(self.kind_counts[1] as i64)),
            (
                "relay_sessions".into(),
                Json::Int(self.kind_counts[2] as i64),
            ),
            ("records".into(), Json::Int(self.records as i64)),
            ("requests".into(), Json::Int(self.requests as i64)),
            ("elapsed_secs".into(), Json::Num(self.elapsed_secs)),
            ("records_per_sec".into(), Json::Num(self.records_per_sec)),
            (
                "floor_records_per_sec".into(),
                Json::Num(FLOOR_RECORDS_PER_SEC),
            ),
            (
                "meets_floor".into(),
                Json::Bool(self.records_per_sec >= FLOOR_RECORDS_PER_SEC),
            ),
            ("open_loop".into(), Json::Bool(self.open_loop)),
            ("fault_rate".into(), Json::Num(self.fault_rate)),
            (
                "schedule_digest".into(),
                Json::str(format!("{:016x}", self.schedule_digest)),
            ),
            ("verbs".into(), verbs),
            ("retries".into(), Json::Int(self.retries as i64)),
            ("reconnects".into(), Json::Int(self.reconnects as i64)),
            ("timeouts".into(), Json::Int(self.timeouts as i64)),
            ("giveups".into(), Json::Int(self.giveups as i64)),
            (
                "backpressure_stalls".into(),
                Json::Int(self.backpressure_stalls as i64),
            ),
            (
                "shard_handoffs".into(),
                Json::Int(self.shard_handoffs as i64),
            ),
            ("dedup_replays".into(), Json::Int(self.dedup_replays as i64)),
            (
                "server_ingested".into(),
                Json::Int(self.server_ingested as i64),
            ),
            ("live_sessions".into(), Json::Num(self.live_sessions)),
            (
                "parity_sessions".into(),
                Json::Int(self.parity_sessions as i64),
            ),
            ("parity_mismatches".into(), Json::Int(0)),
        ])
    }
}

/// Per-worker result handed back to the driver.
struct WorkerOutcome {
    records: u64,
    requests: u64,
    estimates: Vec<(usize, u64)>,
    retries: u64,
    reconnects: u64,
    timeouts: u64,
    giveups: u64,
}

/// Builds the worker's client: a plain TCP connector, wrapped in a
/// [`ddn_serve::FaultyTransport`] replaying a seeded fault plan when the
/// run has a nonzero fault rate.
fn make_client(
    addr: &str,
    fault_rate: f64,
    worker_seed: u64,
    records: u64,
    requests: u64,
    bytes_per_record: u64,
) -> Result<ServeClient, String> {
    // Generous read timeout: a health poll against a huge live fleet can
    // legitimately take tens of seconds (the response carries every
    // session's estimator health).
    if fault_rate <= 0.0 {
        return ServeClient::connect_with(
            addr,
            ClientConfig {
                read_timeout: Duration::from_secs(120),
                max_retries: 3,
                backoff_base: Duration::from_millis(1),
            },
        )
        .map_err(|e| e.to_string());
    }
    let write_horizon = records.saturating_mul(bytes_per_record).max(1 << 12);
    let read_horizon = (requests * 96).max(1 << 10);
    let n_faults = ((records as f64 * fault_rate).round() as usize).max(1);
    let plan = FaultPlan::generate(
        worker_seed,
        &FaultPlanConfig {
            faults: n_faults,
            write_horizon,
            read_horizon,
            max_delay_micros: 50,
            max_partial_bytes: 32,
        },
    );
    let state = ddn_serve::FaultState::new(plan.cursor());
    let connect_addr = addr.to_string();
    ServeClient::from_connector(
        Box::new(move || {
            let inner = Box::new(ddn_serve::TcpTransport::connect(&connect_addr)?)
                as Box<dyn ddn_serve::Transport>;
            Ok(
                Box::new(ddn_serve::FaultyTransport::new(inner, state.clone()))
                    as Box<dyn ddn_serve::Transport>,
            )
        }),
        ClientConfig {
            read_timeout: Duration::from_secs(120),
            // Every failed attempt consumes at least one scheduled fault,
            // so any finite plan is outlasted.
            max_retries: plan.len() as u32 + 2,
            backoff_base: Duration::from_millis(1),
        },
    )
    .map_err(|e| e.to_string())
}

/// Extracts the IPS estimate bits from an `estimate` response.
fn ips_bits(resp: &Json, session: &str) -> Result<u64, String> {
    resp.get("estimates")
        .and_then(|e| e.get("ips"))
        .and_then(|e| e.get("value"))
        .and_then(Json::as_f64)
        .map(f64::to_bits)
        .ok_or_else(|| format!("session {session}: no ips value in {resp}"))
}

/// Drives one worker's share of the fleet through one connection.
///
/// Closed loop interleaves sessions wave-by-wave (all inits, then each
/// ingest round, then estimates) so the worker's whole share is live
/// server-side at once. Open loop walks sessions in arrival order,
/// sleeping until each scheduled arrival and charging the init verb from
/// the *scheduled* instant — the coordinated-omission-honest measure.
#[allow(clippy::too_many_arguments)]
fn drive_worker(
    sessions: &[&SessionWork],
    addr: &str,
    cfg: &LoadgenConfig,
    worker_seed: u64,
    hists: &VerbHists,
    t0: Instant,
) -> Result<WorkerOutcome, String> {
    let my_records: u64 = sessions.iter().map(|s| s.trace.len() as u64).sum();
    let n_batches = cfg.records_per_session.div_ceil(cfg.batch);
    let my_requests: u64 = sessions.len() as u64 * (2 + n_batches as u64) + 16;
    let bytes_per_record = sessions
        .first()
        .and_then(|s| s.trace.records().first())
        .map(|r| r.to_json().to_string().len() as u64 + 16)
        .unwrap_or(256);
    let mut client = make_client(
        addr,
        cfg.fault_rate,
        worker_seed,
        my_records,
        my_requests,
        bytes_per_record,
    )?;

    let mut out = WorkerOutcome {
        records: 0,
        requests: 0,
        estimates: Vec::with_capacity(sessions.len()),
        retries: 0,
        reconnects: 0,
        timeouts: 0,
        giveups: 0,
    };

    let mut timed = |verb: usize,
                     started: Instant,
                     r: Result<Json, ddn_serve::ClientError>|
     -> Result<Json, String> {
        let resp = r.map_err(|e| e.to_string())?;
        hists.record(verb, started.elapsed().as_nanos() as u64);
        out.requests += 1;
        Ok(resp)
    };

    let init = |c: &mut ServeClient, s: &SessionWork| {
        c.init(
            &s.name,
            s.trace.schema(),
            s.trace.space(),
            &["ips"],
            &s.decision_name,
            0.0,
            None,
        )
    };
    let ingest = |c: &mut ServeClient, s: &SessionWork, wave: usize, batch: usize| {
        let lo = wave * batch;
        let hi = (lo + batch).min(s.trace.len());
        let chunk = &s.trace.records()[lo..hi];
        if s.binary {
            c.ingest_binary(&s.name, chunk)
        } else {
            c.ingest(&s.name, chunk)
        }
    };

    // Sparse observability traffic, interleaved with the session stream
    // like production sidecars: every `health_every`-th / `stats_every`-th
    // session (by global index) also polls the health / stats verb. The
    // per-worker cap exists because the health verb reports estimator
    // health for EVERY live session — O(fleet) per response — so at large
    // fleets an uncapped stride would spend the whole run serializing
    // health snapshots instead of driving records.
    const MAX_POLLS_PER_WORKER: usize = 4;
    let mut health_left = if cfg.health_every > 0 {
        MAX_POLLS_PER_WORKER
    } else {
        0
    };
    let mut stats_left = if cfg.stats_every > 0 {
        MAX_POLLS_PER_WORKER
    } else {
        0
    };
    macro_rules! poll {
        ($s:expr, $client:expr) => {
            if health_left > 0 && $s.index() % cfg.health_every == 0 {
                health_left -= 1;
                let t = Instant::now();
                timed(3, t, $client.health())?;
            }
            if stats_left > 0 && $s.index() % cfg.stats_every == 0 {
                stats_left -= 1;
                let t = Instant::now();
                timed(4, t, $client.server_stats(false))?;
            }
        };
    }

    if cfg.open_loop {
        // Arrival-ordered: sleep to each scheduled arrival, charge init
        // from the schedule, then finish the session closed-loop.
        for s in sessions {
            let scheduled = t0 + Duration::from_secs_f64(s.at / cfg.timescale);
            let now = Instant::now();
            if scheduled > now {
                std::thread::sleep(scheduled - now);
            }
            timed(0, scheduled, init(&mut client, s))?;
            for wave in 0..n_batches {
                let t = Instant::now();
                timed(1, t, ingest(&mut client, s, wave, cfg.batch))?;
            }
            let t = Instant::now();
            let resp = timed(2, t, client.estimate(&s.name))?;
            out.estimates.push((s.index(), ips_bits(&resp, &s.name)?));
            out.records += s.trace.len() as u64;
            poll!(s, client);
        }
    } else {
        // Wave-interleaved: every session on this worker is initialized
        // (and stays live server-side) before any ingest happens. Polls
        // ride the init wave, so they sample the fleet as it ramps.
        for s in sessions {
            let t = Instant::now();
            timed(0, t, init(&mut client, s))?;
            poll!(s, client);
        }
        for wave in 0..n_batches {
            for s in sessions {
                if wave * cfg.batch >= s.trace.len() {
                    continue;
                }
                let t = Instant::now();
                timed(1, t, ingest(&mut client, s, wave, cfg.batch))?;
                out.records += (cfg.batch).min(s.trace.len() - wave * cfg.batch) as u64;
            }
        }
        for s in sessions {
            let t = Instant::now();
            let resp = timed(2, t, client.estimate(&s.name))?;
            out.estimates.push((s.index(), ips_bits(&resp, &s.name)?));
        }
    }

    let stats = client.stats();
    out.retries = stats.retry_attempts();
    out.reconnects = stats.reconnects();
    out.timeouts = stats.timeouts();
    out.giveups = stats.giveups();
    Ok(out)
}

impl SessionWork {
    /// Global session index parsed back from the session name.
    fn index(&self) -> usize {
        self.name
            .rsplit('-')
            .next()
            .and_then(|s| s.parse().ok())
            .expect("session names end in their index")
    }
}

/// Runs a complete load-generation cycle: schedule → fleet → drive →
/// verify. Returns the report only if every session's streamed estimate
/// is bit-identical to the offline estimator on the same records.
pub fn run(cfg: &LoadgenConfig) -> Result<LoadReport, LoadgenError> {
    cfg.check().map_err(LoadgenError::Config)?;
    let schedule = Schedule::generate(cfg.sessions, &cfg.rate, cfg.seed, cfg.framing)
        .map_err(LoadgenError::Config)?;
    let digest = schedule.wire_digest();
    let fleet = Fleet::new(cfg.seed);
    // Realization is a pure per-plan function of the (read-only) fleet,
    // so it parallelizes over contiguous plan chunks; order is preserved
    // by construction and the result is identical to a sequential pass.
    let realizers = cfg
        .workers
        .min(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        )
        .max(1);
    let chunk = schedule.plans.len().div_ceil(realizers);
    let works: Vec<SessionWork> = std::thread::scope(|scope| {
        let handles: Vec<_> = schedule
            .plans
            .chunks(chunk)
            .map(|plans| {
                let fleet = &fleet;
                scope.spawn(move || {
                    plans
                        .iter()
                        .map(|p| fleet.realize(p, cfg.records_per_session))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("realizer threads do not panic"))
            .collect()
    });
    let mut kind_counts = [0usize; 3];
    for p in &schedule.plans {
        kind_counts[match p.kind {
            ScenarioKind::Abr => 0,
            ScenarioKind::Cdn => 1,
            ScenarioKind::Relay => 2,
        }] += 1;
    }

    let (addr, handle) = match &cfg.addr {
        Some(a) => (a.clone(), None),
        None => {
            let handle = ddn_serve::serve(&cfg.serve)
                .map_err(|e| LoadgenError::Serve(format!("cannot bind loadgen server: {e}")))?;
            (handle.local_addr().to_string(), Some(handle))
        }
    };

    // Snapshot counters before the drive so an externally-attached server
    // with prior traffic reports deltas, not lifetime totals.
    let read_counters = |addr: &str| -> Result<(u64, u64, u64, f64, u64), String> {
        let mut c = ServeClient::connect(addr).map_err(|e| e.to_string())?;
        let resp = c.server_stats(false).map_err(|e| e.to_string())?;
        let snap = resp
            .get("stats")
            .ok_or_else(|| format!("stats response lacks \"stats\": {resp}"))?;
        let counter = |name: &str| {
            snap.get("counters")
                .and_then(|c| c.get(name))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        let live = snap
            .get("gauges")
            .and_then(Json::as_object)
            .map(|gs| {
                gs.iter()
                    .filter(|(n, _)| n.starts_with("serve.sessions.live."))
                    .filter_map(|(_, v)| v.as_f64())
                    .sum::<f64>()
            })
            .unwrap_or(0.0);
        Ok((
            counter("serve.ingest.records"),
            counter("serve.backpressure.stalls"),
            counter("serve.dedup.replays"),
            live,
            counter("serve.shard.handoffs"),
        ))
    };
    let before = read_counters(&addr).map_err(LoadgenError::Serve)?;

    let hists = VerbHists::new();
    let workers = cfg.workers.min(works.len()).max(1);
    let t0 = Instant::now();
    let outcomes: Vec<Result<WorkerOutcome, String>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let mine: Vec<&SessionWork> = works.iter().skip(w).step_by(workers).collect();
            let addr = addr.clone();
            let hists = hists.clone();
            let worker_seed = cfg.seed ^ (0x10AD_0000 + w as u64);
            handles.push(
                scope.spawn(move || drive_worker(&mine, &addr, cfg, worker_seed, &hists, t0)),
            );
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("worker panicked".into())))
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64().max(1e-9);

    let mut records = 0u64;
    let mut requests = 0u64;
    let (mut retries, mut reconnects, mut timeouts, mut giveups) = (0u64, 0u64, 0u64, 0u64);
    let mut estimates: Vec<(usize, u64)> = Vec::with_capacity(works.len());
    for o in outcomes {
        let o = o.map_err(LoadgenError::Serve)?;
        records += o.records;
        requests += o.requests;
        retries += o.retries;
        reconnects += o.reconnects;
        timeouts += o.timeouts;
        giveups += o.giveups;
        estimates.extend(o.estimates);
    }

    let after = read_counters(&addr).map_err(LoadgenError::Serve)?;
    if let Some(h) = handle {
        h.shutdown();
    }
    let server_ingested = after.0 - before.0;
    if server_ingested != records {
        return Err(LoadgenError::Serve(format!(
            "exactly-once violated: clients sent {records} records, server counted {server_ingested}"
        )));
    }

    // Offline parity: every session's streamed IPS estimate must equal
    // the batch estimator on the very same records, to the last bit —
    // chaos faults included.
    let mut online: Vec<Option<u64>> = vec![None; works.len()];
    for (idx, bits) in estimates {
        online[idx] = Some(bits);
    }
    for (idx, w) in works.iter().enumerate() {
        let got = online[idx].ok_or_else(|| {
            LoadgenError::Parity(format!("session {} never produced an estimate", w.name))
        })?;
        let policy = LookupPolicy::constant(w.trace.space().clone(), w.decision);
        let want = Ips::new()
            .estimate(&w.trace, &policy)
            .map_err(|e| LoadgenError::Parity(format!("offline {}: {e}", w.name)))?
            .value
            .to_bits();
        if got != want {
            return Err(LoadgenError::Parity(format!(
                "session {}: online {} != offline {} ({} records)",
                w.name,
                f64::from_bits(got),
                f64::from_bits(want),
                w.trace.len(),
            )));
        }
    }

    Ok(LoadReport {
        sessions: works.len(),
        kind_counts,
        records,
        requests,
        elapsed_secs: elapsed,
        records_per_sec: records as f64 / elapsed,
        open_loop: cfg.open_loop,
        fault_rate: cfg.fault_rate,
        schedule_digest: digest,
        verb_latency: VERBS
            .iter()
            .zip(hists.hists.iter())
            .map(|(v, h)| (*v, h.clone()))
            .collect(),
        retries,
        reconnects,
        timeouts,
        giveups,
        backpressure_stalls: after.1 - before.1,
        shard_handoffs: after.4 - before.4,
        dedup_replays: after.2 - before.2,
        server_ingested,
        live_sessions: after.3,
        parity_sessions: works.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> LoadgenConfig {
        LoadgenConfig {
            sessions: 60,
            records_per_session: 3,
            batch: 2,
            workers: 3,
            seed,
            rate: RateProfile::Constant(5_000.0),
            serve: ServeConfig {
                shards: 2,
                ..ServeConfig::default()
            },
            health_every: 16,
            stats_every: 32,
            ..LoadgenConfig::default()
        }
    }

    #[test]
    fn closed_loop_run_verifies_parity_and_counts() {
        let report = run(&tiny(11)).expect("load run succeeds");
        assert_eq!(report.sessions, 60);
        assert_eq!(report.records, 180);
        assert_eq!(report.parity_sessions, 60);
        assert_eq!(report.server_ingested, 180);
        assert_eq!(report.kind_counts.iter().sum::<usize>(), 60);
        assert!(report.live_sessions >= 60.0, "{}", report.live_sessions);
        assert!(report.records_per_sec > 0.0);
        // Every session initialized, ingested twice, estimated once.
        let verb = |name: &str| {
            report
                .verb_latency
                .iter()
                .find(|(v, _)| *v == name)
                .map(|(_, h)| h.total())
                .unwrap()
        };
        assert_eq!(verb("init"), 60);
        assert_eq!(verb("ingest"), 120);
        assert_eq!(verb("estimate"), 60);
        assert!(verb("health") > 0);
        let json = report.to_json().to_string();
        assert!(json.contains("\"records_per_sec\""), "{json}");
        assert!(json.contains("\"schedule_digest\""), "{json}");
    }

    #[test]
    fn same_seed_same_digest_different_seed_differs() {
        let a = run(&tiny(5)).unwrap();
        let b = run(&tiny(5)).unwrap();
        assert_eq!(a.schedule_digest, b.schedule_digest);
        let c = run(&tiny(6)).unwrap();
        assert_ne!(a.schedule_digest, c.schedule_digest);
    }

    #[test]
    fn chaos_faults_keep_parity() {
        let cfg = LoadgenConfig {
            fault_rate: 0.02,
            ..tiny(13)
        };
        let report = run(&cfg).expect("faulted run still verifies");
        assert_eq!(report.parity_sessions, 60);
        assert_eq!(report.fault_rate, 0.02);
    }

    #[test]
    fn open_loop_run_completes() {
        let cfg = LoadgenConfig {
            open_loop: true,
            timescale: 100.0,
            ..tiny(17)
        };
        let report = run(&cfg).expect("open-loop run succeeds");
        assert!(report.open_loop);
        assert_eq!(report.parity_sessions, 60);
    }

    #[test]
    fn bad_configs_are_config_errors() {
        let err = run(&LoadgenConfig {
            sessions: 0,
            ..tiny(1)
        })
        .unwrap_err();
        assert!(matches!(err, LoadgenError::Config(_)), "{err}");
        let err = run(&LoadgenConfig {
            rate: RateProfile::Constant(-2.0),
            ..tiny(1)
        })
        .unwrap_err();
        assert!(matches!(err, LoadgenError::Config(_)), "{err}");
        let err = run(&LoadgenConfig {
            fault_rate: 1.5,
            ..tiny(1)
        })
        .unwrap_err();
        assert!(matches!(err, LoadgenError::Config(_)), "{err}");
    }

    #[test]
    fn smoke_config_is_valid() {
        assert!(LoadgenConfig::smoke(7).check().is_ok());
    }
}
