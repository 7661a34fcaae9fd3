//! The traced run's per-layer metrics.
//!
//! The server's own layers (event loop, dispatchers, shard queues) are
//! private, so they are measured from outside: `/proc` readings and the
//! exact `sum`/`count` deltas of the server's `stats` histograms around
//! the timed phase. Every other layer is measured by replaying
//! connection 0's timed request sequence in this process, on one thread,
//! through the same public functions the server calls, in the order it
//! calls them, with a span around each call. A kernel pass then feeds
//! the workload's records to each layer's standalone kernels.

use crate::sample::{median, summarize_ns};
use crate::server::{copy_dir, Stats};
use crate::stream::{
    shard_of, Op, Plan, Workload, BULK_HORIZON, CONNECTIONS, DURABLE_WINDOW, FULL_MENU,
    MODEL_VALUE, SHARDS,
};
use crate::{Args, Measured, Report};
use ddn_estimators::{
    ActionEmbedding, AdaptiveWeights, OnlineAdaptiveDr, OnlineAdaptiveIps, OnlineClippedIps,
    OnlineDm, OnlineDr, OnlineEstimator, OnlineIps, OnlineMarginalizedDr, OnlineSeqDr, OnlineSnips,
    SlidingWindow,
};
use ddn_models::ConstantModel;
use ddn_policy::{LookupPolicy, Policy, UniformRandomPolicy};
use ddn_serve::engine::{COUPLING_MIN_SEGMENT, COUPLING_WINDOW};
use ddn_serve::protocol::{attach_id, ingest_request_json, Request, DEFAULT_MAX_WEIGHT};
use ddn_serve::snapshot::{snapshot_path, wal_path, write_snapshot};
use ddn_serve::{frame, CouplingMonitor, Engine, ShardDurability, WalWriter};
use ddn_stats::Json;
use ddn_trace::{Trace, TraceRecord};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `ddn serve`'s default snapshot cadence, which the benchmark keeps.
const SNAPSHOT_EVERY: u64 = 256;

/// The shard verbs the server times per shard.
const VERBS: [&str; 3] = ["init", "ingest", "estimate"];

/// chatty-json writes one request's spans in this many to the trace file
/// (its aggregates still cover every request).
const CHATTY_SPAN_SAMPLE: u32 = 16;

/// Most timed requests the replay re-runs: all of chatty-json's, and a
/// prefix of the long-lived workloads', whose requests cost milliseconds
/// each in-process, so the traced run stays well inside its time limit.
fn replay_cap(workload: Workload) -> usize {
    match workload {
        Workload::ChattyJson => usize::MAX,
        Workload::BulkBinary => 1024,
        Workload::DurableMonitor => 2048,
    }
}

/// One timed call: name, interval, parent span and request id.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call name.
    pub name: &'static str,
    /// Start, ns since the replay began.
    pub start: u64,
    /// End, ns since the replay began.
    pub end: u64,
    /// Index of the parent span (`u32::MAX` for a request's root).
    pub parent: u32,
    /// Request id.
    pub req: u32,
}

/// In-memory span recorder; with `on` false it records nothing.
pub struct Tracer {
    on: bool,
    base: Instant,
    /// Recorded spans, parents before children.
    pub spans: Vec<Span>,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            base: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its index (meaningless when off).
    fn open(&mut self, name: &'static str, parent: u32, req: u32) -> u32 {
        if !self.on {
            return u32::MAX;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, idx: u32) {
        if self.on {
            let end = self.now();
            self.spans[idx as usize].end = end;
        }
    }

    /// Runs `f` inside a span.
    fn span<T>(&mut self, name: &'static str, parent: u32, req: u32, f: impl FnOnce() -> T) -> T {
        let idx = self.open(name, parent, req);
        let out = f();
        self.close(idx);
        out
    }
}

/// Per-name totals of a span list: count, total and self time (ns).
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_time = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != u32::MAX {
            child_time[s.parent as usize] += s.end - s.start;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let e = out.entry(s.name).or_default();
        let dur = s.end - s.start;
        e.0 += 1;
        e.1 += dur;
        e.2 += dur.saturating_sub(child_time[i]);
    }
    out
}

/// What the replay counted besides its spans.
#[derive(Default)]
struct Counts {
    requests: BTreeMap<&'static str, u64>,
    json_requests: u64,
    json_bytes: u64,
    frame_requests: u64,
    frame_bytes: u64,
    frame_records: u64,
    request_bytes: u64,
    ingest_records: u64,
    wal_bytes: u64,
    snapshot_writes: u64,
    snapshot_bytes: u64,
    recover_ns: u64,
    recover_frames: u64,
    state_bytes: u64,
    sessions: u64,
    stats_skipped: u64,
    /// Wall time of the replayed requests, excluding set-up.
    elapsed_ns: u64,
}

/// The in-process stand-in for the server: one engine (and, for
/// durable-monitor, one durability driver) per shard.
struct Shards {
    engines: Vec<Engine>,
    durability: Vec<Option<ShardDurability>>,
    poisoned: HashSet<String>,
    /// The data directory the durability drivers write to.
    dir: PathBuf,
}

/// Replays set-up (untraced) and then connection 0's timed requests and
/// the closing estimates of its sessions (traced when `tracer.on`).
fn replay(
    plan: &Plan,
    m: &Measured,
    scratch: &Path,
    tag: &str,
    tracer: &mut Tracer,
) -> Result<Counts, String> {
    let mut counts = Counts::default();
    let mut shards = Shards {
        engines: (0..SHARDS).map(|_| Engine::new()).collect(),
        durability: (0..SHARDS).map(|_| None).collect(),
        poisoned: HashSet::new(),
        dir: scratch.join(format!("replay-{tag}")),
    };
    // Next ingest sequence number per session, as the clients keep it.
    let mut seqs: HashMap<usize, u64> = HashMap::new();
    let mut id = 0u64;
    let mut scratch_tracer = Tracer::new(false);
    match plan.workload {
        Workload::DurableMonitor => {
            let pre = m
                .preload
                .as_ref()
                .ok_or("durable run without a pre-phase")?;
            copy_dir(&pre.dir, &shards.dir)?;
            for (k, d) in shards.durability.iter_mut().enumerate() {
                let t = Instant::now();
                let (dur, rep) = ShardDurability::open(
                    &shards.dir,
                    k,
                    SNAPSHOT_EVERY,
                    None,
                    &mut shards.engines[k],
                    &mut shards.poisoned,
                )
                .map_err(|e| format!("replay recovery: {e}"))?;
                counts.recover_ns += t.elapsed().as_nanos() as u64;
                counts.recover_frames += rep.frames_replayed;
                *d = Some(dur);
            }
            for op in plan.preload() {
                if let Op::Ingest { s, .. } = op {
                    *seqs.entry(s).or_default() += 1;
                }
            }
        }
        _ => {
            let mut sink = Counts::default();
            for c in 0..CONNECTIONS {
                for &op in &plan.setup[c] {
                    request(
                        plan,
                        &mut shards,
                        op,
                        &mut seqs,
                        &mut id,
                        &mut scratch_tracer,
                        &mut sink,
                    )?;
                }
            }
        }
    }
    let ops: Vec<Op> = plan
        .timed(0)
        .take(m.timed_ops[0].min(replay_cap(plan.workload)))
        .chain(
            plan.closing(0)
                .into_iter()
                .filter(|op| matches!(op, Op::Estimate(s) if plan.owned[0].contains(s))),
        )
        .collect();
    let t = Instant::now();
    for op in ops {
        request(
            plan,
            &mut shards,
            op,
            &mut seqs,
            &mut id,
            tracer,
            &mut counts,
        )?;
    }
    counts.elapsed_ns = t.elapsed().as_nanos() as u64;
    if tracer.on {
        for e in &shards.engines {
            counts.sessions += e.sessions() as u64;
            counts.state_bytes += e.state_save().to_string().len() as u64;
        }
    }
    Ok(counts)
}

/// Replays one request through the layers in server order.
fn request(
    plan: &Plan,
    shards: &mut Shards,
    op: Op,
    seqs: &mut HashMap<usize, u64>,
    next_id: &mut u64,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Result<(), String> {
    let verb = op.verb();
    let s = match op {
        Op::Init(s) | Op::Estimate(s) | Op::Ingest { s, .. } => s,
        // The stats verb is answered from the server's registry, which
        // has no in-process counterpart.
        Op::Stats => {
            counts.stats_skipped += 1;
            return Ok(());
        }
    };
    let req = *next_id as u32;
    let id = Json::Int(*next_id as i64);
    *next_id += 1;
    let sess = &plan.sessions[s];
    let mut records = Vec::new();
    if let Op::Ingest { start, len, .. } = op {
        plan.records(s).fill(start, len, &mut records);
    }
    let seq = if matches!(op, Op::Ingest { .. }) {
        let e = seqs.entry(s).or_default();
        *e += 1;
        Some(*e - 1)
    } else {
        if let Op::Init(_) = op {
            seqs.insert(s, 0);
        }
        None
    };
    let binary = sess.binary && matches!(op, Op::Ingest { .. });
    let root = tr.open(verb, u32::MAX, req);

    // 1. Client encode, as ServeClient builds its wire bytes.
    let wire: Vec<u8> = tr.span("client.encode", root, req, || {
        if binary {
            return frame::encode(&sess.name, &records, seq, Some(id.as_u64().unwrap_or(0)))
                .map_err(|e| format!("frame encode: {e}"));
        }
        let obj = match op {
            Op::Init(_) => plan.init_request(s),
            Op::Ingest { .. } => Json::object(vec![
                ("verb", Json::str("ingest")),
                ("session", Json::str(sess.name.as_str())),
                (
                    "records",
                    Json::Array(records.iter().map(TraceRecord::to_json).collect()),
                ),
                ("seq", Json::Int(seq.unwrap_or(0) as i64)),
            ]),
            _ => Json::object(vec![
                ("verb", Json::str(verb)),
                ("session", Json::str(sess.name.as_str())),
            ]),
        };
        let mut bytes = attach_id(obj, Some(id.clone())).to_string().into_bytes();
        bytes.push(b'\n');
        Ok(bytes)
    })?;
    counts.request_bytes += wire.len() as u64;
    *counts.requests.entry(verb).or_default() += 1;

    // 2. Decode: JSON parse plus request decode, or the binary frame.
    let (parsed, raw) = if binary {
        counts.frame_requests += 1;
        counts.frame_bytes += wire.len() as u64;
        counts.frame_records += records.len() as u64;
        let batch = tr
            .span("frame.decode", root, req, || frame::decode(&wire))
            .map_err(|e| format!("frame decode: {e}"))?;
        (
            Request::Ingest {
                session: batch.session,
                records: batch.records,
                seq: batch.seq,
            },
            Some(wire),
        )
    } else {
        counts.json_requests += 1;
        counts.json_bytes += wire.len() as u64;
        let text = String::from_utf8_lossy(&wire);
        let v = tr
            .span("json.parse", root, req, || Json::parse(text.trim()))
            .map_err(|e| format!("json parse: {e}"))?;
        let r = tr
            .span("protocol.decode", root, req, || Request::from_json(&v))
            .map_err(|e| format!("request decode: {e}"))?;
        (r, None)
    };

    // 3–5. Shard: write-ahead log, engine, snapshot cadence.
    let k = shard_of(&sess.name, SHARDS);
    let Shards {
        engines,
        durability,
        poisoned,
        dir,
    } = shards;
    let (engine, dur) = (&mut engines[k], &mut durability[k]);
    let resp = match parsed {
        Request::Init(spec) => {
            if let Some(d) = dur.as_mut() {
                let line = spec.to_json().to_string();
                counts.wal_bytes += tr
                    .span("wal.append", root, req, || d.log_request(line.as_bytes()))
                    .map_err(|e| format!("wal: {e}"))? as u64;
            }
            tr.span("engine.handle", root, req, || engine.handle_init(spec))
        }
        Request::Ingest {
            session,
            records,
            seq,
        } => {
            counts.ingest_records += records.len() as u64;
            if let Some(d) = dur.as_mut() {
                let payload = match raw {
                    Some(bytes) => bytes,
                    None => tr.span("protocol.wal_reencode", root, req, || {
                        ingest_request_json(&session, &records, seq)
                            .to_string()
                            .into_bytes()
                    }),
                };
                counts.wal_bytes += tr
                    .span("wal.append", root, req, || d.log_request(&payload))
                    .map_err(|e| format!("wal: {e}"))? as u64;
            }
            tr.span("engine.handle", root, req, || {
                engine.handle_ingest(&session, &records, seq)
            })
        }
        Request::Estimate { session } => tr.span("engine.handle", root, req, || {
            engine.handle_estimate(&session)
        }),
        other => return Err(format!("replay cannot apply {other:?}")),
    };
    if resp.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("replayed {verb} of {} failed: {resp}", sess.name));
    }
    if let Some(d) = dur.as_mut() {
        let wrote = tr
            .span("snapshot.maybe", root, req, || {
                d.maybe_snapshot(engine, poisoned)
            })
            .map_err(|e| format!("snapshot: {e}"))?;
        if wrote {
            counts.snapshot_writes += 1;
            counts.snapshot_bytes += std::fs::metadata(snapshot_path(dir, k))
                .map(|md| md.len())
                .unwrap_or(0);
        }
    }

    // 6. Response encode.
    tr.span("json.encode_resp", root, req, || {
        black_box(attach_id(resp, Some(id)).to_string())
    });
    tr.close(root);
    Ok(())
}

/// Online estimator of protocol kind `kind` for a session, built as the
/// server's engine builds it.
fn online(plan: &Plan, s: usize, kind: &str) -> Result<Box<dyn OnlineEstimator + Send>, String> {
    let space = plan.records(s).space.clone();
    let policy = || -> Box<dyn Policy + Send + Sync> {
        Box::new(LookupPolicy::constant(
            space.clone(),
            plan.sessions[s].decision,
        ))
    };
    let model = || Box::new(ConstantModel::new(MODEL_VALUE));
    let e: Box<dyn OnlineEstimator + Send> = match kind {
        "ips" => Box::new(OnlineIps::new(space.clone(), policy()).map_err(|e| e.to_string())?),
        "snips" => Box::new(OnlineSnips::new(space.clone(), policy()).map_err(|e| e.to_string())?),
        "clipped" => Box::new(
            OnlineClippedIps::new(space.clone(), policy(), DEFAULT_MAX_WEIGHT)
                .map_err(|e| e.to_string())?,
        ),
        "dm" => {
            Box::new(OnlineDm::new(space.clone(), policy(), model()).map_err(|e| e.to_string())?)
        }
        "dr" => {
            Box::new(OnlineDr::new(space.clone(), policy(), model()).map_err(|e| e.to_string())?)
        }
        "adaptive" => Box::new(
            OnlineAdaptiveIps::new(space.clone(), policy(), AdaptiveWeights::Stabilized)
                .map_err(|e| e.to_string())?,
        ),
        "adaptive_dr" => Box::new(
            OnlineAdaptiveDr::new(
                space.clone(),
                policy(),
                model(),
                AdaptiveWeights::Stabilized,
            )
            .map_err(|e| e.to_string())?,
        ),
        "mdr" => Box::new(
            OnlineMarginalizedDr::new(
                space.clone(),
                policy(),
                Box::new(UniformRandomPolicy::new(space.clone())),
                model(),
                ActionEmbedding::identity(space.len()),
            )
            .map_err(|e| e.to_string())?,
        ),
        "seqdr" => Box::new(
            OnlineSeqDr::new(space.clone(), policy(), model(), BULK_HORIZON)
                .map_err(|e| e.to_string())?,
        ),
        other => return Err(format!("unknown estimator {other}")),
    };
    Ok(e)
}

/// Records of connection 0's sessions for the kernel pass: up to
/// `per_session` each, from the start of each session's stream.
fn kernel_inputs(
    plan: &Plan,
    per_session: usize,
    max_sessions: usize,
) -> Vec<(usize, Vec<TraceRecord>)> {
    let mut seen = HashSet::new();
    plan.owned[0]
        .iter()
        .copied()
        .filter(|&s| seen.insert(plan.sessions[s].trace))
        .take(max_sessions)
        .map(|s| {
            let recs = plan.records(s);
            (s, (0..per_session).map(|k| recs.record(k)).collect())
        })
        .collect()
}

/// The kernel pass: standalone estimators, validation, change points,
/// init cost.
fn kernels(plan: &Plan, scratch: &Path, report: &mut Report) -> Result<Offline, String> {
    let (per_session, max_sessions) = match plan.workload {
        Workload::ChattyJson => (crate::stream::CHATTY_RECORDS, 4096),
        _ => (2048, 32),
    };
    let inputs = kernel_inputs(plan, per_session, max_sessions);
    let total: u64 = inputs.iter().map(|(_, r)| r.len() as u64).sum();
    report.note(format!(
        "kernel pass: {} sessions, {total} records",
        inputs.len()
    ));
    for kind in FULL_MENU {
        let mut ns = 0u64;
        for (s, recs) in &inputs {
            let mut e = online(plan, *s, kind)?;
            let t = Instant::now();
            for r in recs {
                e.push(r).map_err(|e| format!("{kind} push: {e}"))?;
            }
            ns += t.elapsed().as_nanos() as u64;
            black_box(e.estimate().ok());
        }
        report.metric(
            format!("estimators.{kind}.push_ns_per_record"),
            ns as f64 / total.max(1) as f64,
            "ns",
        );
    }
    // Sliding window over IPS, with the durable bank's capacity.
    let (mut push_ns, mut est) = (0u64, Vec::new());
    for (s, recs) in &inputs {
        let mut w = SlidingWindow::new(online(plan, *s, "ips")?, DURABLE_WINDOW);
        let t = Instant::now();
        for r in recs {
            w.push(r);
        }
        push_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        black_box(w.estimate().ok());
        est.push(t.elapsed().as_secs_f64() * 1e6);
    }
    report.metric(
        "estimators.window.push_ns_per_record",
        push_ns as f64 / total.max(1) as f64,
        "ns",
    );
    report.metric("estimators.window.estimate_us", median(&est), "us");

    let mut validate_ns = 0u64;
    for (s, recs) in &inputs {
        let r = plan.records(*s);
        let mut last = f64::NEG_INFINITY;
        let t = Instant::now();
        for (k, rec) in recs.iter().enumerate() {
            Trace::validate_record(k, rec, &r.schema, &r.space, &mut last)
                .map_err(|e| format!("validate: {e}"))?;
        }
        validate_ns += t.elapsed().as_nanos() as u64;
    }
    report.metric(
        "trace.validate_ns_per_record",
        validate_ns as f64 / total.max(1) as f64,
        "ns",
    );

    // PELT over one full coupling window of this workload's rewards.
    let rewards: Vec<f64> = inputs
        .iter()
        .flat_map(|(_, r)| r.iter().map(|x| x.reward))
        .collect();
    let mut monitor = CouplingMonitor::new(COUPLING_WINDOW, COUPLING_MIN_SEGMENT);
    for k in 0..COUPLING_WINDOW {
        monitor.push(rewards[k % rewards.len()]);
    }
    let cp: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            black_box(monitor.changepoints());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    report.metric("engine.changepoints_us", median(&cp), "us");

    // Init cost of this workload's bank on a fresh engine.
    let mut engine = Engine::new();
    let mut init = Vec::new();
    for &s in plan.owned[0].iter().take(1000) {
        let Ok(Request::Init(spec)) = Request::from_json(&plan.init_request(s)) else {
            return Err("init request does not decode".into());
        };
        let t = Instant::now();
        let resp = engine.handle_init(spec);
        init.push(t.elapsed().as_nanos() as u64);
        if resp.get("ok") != Some(&Json::Bool(true)) {
            return Err(format!("kernel init failed: {resp}"));
        }
    }
    report.metric("engine.init_us", summarize_ns(&init).mean, "us");
    offline_layers(plan, &inputs, scratch)
}

/// Layer costs measured on this workload's records outside the replay,
/// for layers its server path never reaches.
#[derive(Default)]
struct Offline {
    frame_decode_ns: u64,
    frame_bytes: u64,
    frame_records: u64,
    reencode_ns: u64,
    reencodes: u64,
    append_ns: u64,
    appends: u64,
    wal_bytes: u64,
    wal_records: u64,
    snapshot_ns: u64,
    snapshot_bytes: u64,
    recover_ns: u64,
    recover_frames: u64,
}

/// The kernel pass's stand-in for the layers a workload's server path
/// skips: every kernel-input batch is framed and decoded, re-encoded as
/// the WAL's JSON line, appended to a scratch WAL and applied to an
/// engine; the loaded engine is snapshotted, and recovery replays the
/// WAL onto a snapshot of the freshly initialized sessions.
fn offline_layers(
    plan: &Plan,
    inputs: &[(usize, Vec<TraceRecord>)],
    scratch: &Path,
) -> Result<Offline, String> {
    let batch = match plan.workload {
        Workload::ChattyJson => crate::stream::CHATTY_BATCH,
        Workload::BulkBinary => crate::stream::BULK_BATCH,
        Workload::DurableMonitor => crate::stream::DURABLE_BATCH,
    };
    let io = |e: std::io::Error| format!("offline layers: {e}");
    let (wal_dir, snap_dir) = (scratch.join("kernel-wal"), scratch.join("kernel-snap"));
    for d in [&wal_dir, &snap_dir] {
        std::fs::create_dir_all(d).map_err(io)?;
    }
    let mut out = Offline::default();
    let mut engine = Engine::new();
    for (s, _) in inputs {
        let Ok(Request::Init(spec)) = Request::from_json(&plan.init_request(*s)) else {
            return Err("init request does not decode".into());
        };
        engine.handle_init(spec);
    }
    let initialized = Json::object(vec![
        ("version", Json::Int(1)),
        ("last_frame_id", Json::Int(0)),
        ("poisoned", Json::Array(Vec::new())),
        ("sessions", engine.state_save()),
    ]);
    write_snapshot(&snapshot_path(&wal_dir, 0), &initialized).map_err(io)?;
    let mut wal = WalWriter::create(&wal_path(&wal_dir, 0), 1).map_err(io)?;
    for (s, recs) in inputs {
        let sess = &plan.sessions[*s];
        for (seq, chunk) in recs.chunks(batch).enumerate() {
            let seq = Some(seq as u64);
            let frame = frame::encode(&sess.name, chunk, seq, None)?;
            let t = Instant::now();
            black_box(frame::decode(&frame)?);
            out.frame_decode_ns += t.elapsed().as_nanos() as u64;
            out.frame_bytes += frame.len() as u64;
            out.frame_records += chunk.len() as u64;
            let t = Instant::now();
            let line = ingest_request_json(&sess.name, chunk, seq)
                .to_string()
                .into_bytes();
            out.reencode_ns += t.elapsed().as_nanos() as u64;
            out.reencodes += 1;
            let payload = if sess.binary { frame } else { line };
            let before = wal.bytes_written();
            let t = Instant::now();
            wal.append(&payload).map_err(io)?;
            out.append_ns += t.elapsed().as_nanos() as u64;
            out.appends += 1;
            out.wal_bytes += wal.bytes_written() - before;
            out.wal_records += chunk.len() as u64;
            let resp = engine.handle_ingest(&sess.name, chunk, seq);
            if resp.get("ok") != Some(&Json::Bool(true)) {
                return Err(format!("offline ingest failed: {resp}"));
            }
        }
    }
    drop(wal);
    let loaded = Json::object(vec![
        ("version", Json::Int(1)),
        ("last_frame_id", Json::Int(out.appends as i64)),
        ("poisoned", Json::Array(Vec::new())),
        ("sessions", engine.state_save()),
    ]);
    let path = snapshot_path(&snap_dir, 0);
    let t = Instant::now();
    write_snapshot(&path, &loaded).map_err(io)?;
    out.snapshot_ns = t.elapsed().as_nanos() as u64;
    out.snapshot_bytes = std::fs::metadata(&path).map_err(io)?.len();
    let (mut fresh, mut poisoned) = (Engine::new(), HashSet::new());
    let t = Instant::now();
    let (_, rep) =
        ShardDurability::open(&wal_dir, 0, SNAPSHOT_EVERY, None, &mut fresh, &mut poisoned)
            .map_err(io)?;
    out.recover_ns = t.elapsed().as_nanos() as u64;
    out.recover_frames = rep.frames_replayed;
    if rep.frames_replayed != out.appends || fresh.sessions() != inputs.len() {
        return Err(format!(
            "offline recovery replayed {} of {} frames into {} of {} sessions",
            rep.frames_replayed,
            out.appends,
            fresh.sessions(),
            inputs.len()
        ));
    }
    Ok(out)
}

/// Writes spans as Chrome Trace Event JSON (complete events, `ph: X`,
/// microsecond timestamps), which Perfetto and chrome://tracing load.
fn write_chrome(path: &Path, spans: &[Span], sample: u32) -> Result<usize, String> {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut n = 0;
    for s in spans.iter().filter(|s| s.req % sample == 0) {
        if n > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"req\":{},\"parent\":{}}}}}",
            s.name,
            s.start as f64 / 1e3,
            (s.end - s.start) as f64 / 1e3,
            s.req,
            if s.parent == u32::MAX { -1 } else { s.parent as i64 },
        ));
        n += 1;
    }
    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(n)
}

/// Mean of a span name's total time, in ns (0 when absent).
fn mean_ns(agg: &BTreeMap<&'static str, (u64, u64, u64)>, name: &str) -> f64 {
    agg.get(name)
        .map_or(0.0, |&(n, total, _)| total as f64 / n.max(1) as f64)
}

/// Mean span time of `name` over the spans of requests with verb `verb`.
fn verb_mean_ns(spans: &[Span], verb: &str, name: &str) -> f64 {
    let mut roots = HashMap::new();
    for s in spans.iter().filter(|s| s.parent == u32::MAX) {
        roots.insert(s.req, s.name);
    }
    let (mut n, mut total) = (0u64, 0u64);
    for s in spans.iter().filter(|s| s.name == name) {
        if roots.get(&s.req) == Some(&verb) {
            total += s.end - s.start;
            n += 1;
        }
    }
    // Per request of that verb, so a call made on only some requests
    // (a snapshot) is amortized over all of them.
    let reqs = roots.values().filter(|v| **v == verb).count() as f64;
    if n == 0 || reqs == 0.0 {
        0.0
    } else {
        total as f64 / reqs
    }
}

/// Runs the replay and the kernel pass and reports every per-layer metric.
pub fn report(
    args: &Args,
    plan: &Plan,
    m: &Measured,
    scratch: &Path,
    report: &mut Report,
) -> Result<(), String> {
    // Server layer, from outside.
    let (before, after, end) = &m.bracket.stats;
    let requests: u64 = m.timed.totals().0.max(1);
    let cpu = m.bracket.cpu_us.1 - m.bracket.cpu_us.0;
    let ctx = m.bracket.ctx.1 - m.bracket.ctx.0;
    report.metric("server.cpu_us_per_req", cpu / requests as f64, "us");
    report.metric(
        "server.ctx_switches_per_req",
        ctx as f64 / requests as f64,
        "count",
    );
    // Exact mean of a server histogram between two snapshots.
    let hist_mean = |verb: &str, what: &str, a: &Stats, b: &Stats| {
        let (c0, s0) = a.shard_hist(verb, what, SHARDS);
        let (c1, s1) = b.shard_hist(verb, what, SHARDS);
        if c1 > c0 {
            (s1 - s0) as f64 / (c1 - c0) as f64 / 1e3
        } else {
            0.0
        }
    };

    // The replay: once untimed to warm the allocator and caches, then
    // with spans off, then on; the difference is the tracing overhead.
    replay(plan, m, scratch, "warm", &mut Tracer::new(false))?;
    let off = replay(plan, m, scratch, "off", &mut Tracer::new(false))?;
    let mut tracer = Tracer::new(true);
    let on = replay(plan, m, scratch, "on", &mut tracer)?;
    let spans = &tracer.spans;
    let agg = aggregate(spans);
    let overhead =
        (on.elapsed_ns as f64 - off.elapsed_ns as f64) / off.elapsed_ns.max(1) as f64 * 100.0;

    let sample = if plan.workload == Workload::ChattyJson {
        CHATTY_SPAN_SAMPLE
    } else {
        1
    };
    let trace_path = args.work.join(format!(
        "spans-{}-seed{}.json",
        plan.workload.name(),
        args.seed
    ));
    let written = write_chrome(&trace_path, spans, sample)?;
    report.note(format!(
        "replay: {} requests of connection 0 (the first {} of {} timed, then its closing \
         estimates; {} stats polls skipped: served from the registry), \
         {} spans, {written} written to {} (1 request in {sample})",
        on.requests.values().sum::<u64>(),
        m.timed_ops[0].min(replay_cap(plan.workload)),
        m.timed_ops[0],
        on.stats_skipped,
        spans.len(),
        trace_path.display()
    ));
    report.note("span self time (ns): name count total self mean".to_string());
    for (name, (n, total, own)) in &agg {
        report.note(format!(
            "  {name:<22} {n:>8} {total:>14} {own:>14} {:>12.1}",
            *total as f64 / *n as f64
        ));
    }

    let client_encode: Vec<f64> = VERBS
        .iter()
        .map(|v| verb_mean_ns(spans, v, "client.encode"))
        .collect();
    report.note(
        "reconciliation (us): verb client_rtt = client_encode + frontend + queue_wait + handle | check",
    );
    let mut frontends = Vec::new();
    for (i, verb) in VERBS.iter().enumerate() {
        // The phase the verb was sent in: the timed phase; else the
        // closing estimates; else (init on bulk-binary and
        // durable-monitor) the set-up or pre-phase, whose server counted
        // from zero.
        let (phase, samples, stats) = if !m.timed.samples(verb).is_empty() {
            ("", m.timed.samples(verb), Some((before, after)))
        } else if !m.closing.samples(verb).is_empty() {
            (
                "(closing estimates) ",
                m.closing.samples(verb),
                Some((after, end)),
            )
        } else if *verb == "init" && !m.untimed_inits.is_empty() {
            let server = match &m.preload {
                Some(p) => &p.stats,
                None => before,
            };
            (
                "(set-up inits) ",
                m.untimed_inits.as_slice(),
                Some((&m.empty_stats, server)),
            )
        } else {
            ("", &[][..], None)
        };
        let rtt = summarize_ns(samples);
        let (queue, handle) = match stats {
            Some((a, b)) => (
                hist_mean(verb, "queue_ns", a, b),
                hist_mean(verb, "handle_ns", a, b),
            ),
            None => (0.0, 0.0),
        };
        let encode = client_encode[i] / 1e3;
        let frontend = rtt.mean - encode - queue - handle;
        let engine = verb_mean_ns(spans, verb, "engine.handle") / 1e3;
        let wal = verb_mean_ns(spans, verb, "wal.append") / 1e3
            + verb_mean_ns(spans, verb, "protocol.wal_reencode") / 1e3;
        let snap = verb_mean_ns(spans, verb, "snapshot.maybe") / 1e3;
        let check = if engine == 0.0 {
            "not replayed (the replay covers the timed phase and closing estimates), so the \
             front end includes client encode"
                .to_string()
        } else {
            let ratio = (engine + wal) / handle.max(f64::MIN_POSITIVE);
            let verdict = if (0.5..=2.0).contains(&ratio) {
                "agrees within 2x"
            } else {
                "DISAGREES by more than 2x"
            };
            format!(
                "traced engine {engine:.2} + wal {wal:.2} = {:.2} vs handle {handle:.2} \
                 (ratio {ratio:.3}; {verdict})",
                engine + wal
            )
        };
        report.note(format!(
            "  {verb:<8} {phase}{:.2} = {encode:.2} + {frontend:.2} + {queue:.2} + {handle:.2} | {check}",
            rtt.mean
        ));
        if snap > 0.0 {
            report.note(format!(
                "           + snapshot {snap:.2} per request, which the server books in the next \
                 request's queue wait (it records handle time before it rotates)"
            ));
        }
        frontends.push(frontend);
        report.metric(format!("server.queue_wait_us_mean.{verb}"), queue, "us");
        report.metric(format!("server.handle_us_mean.{verb}"), handle, "us");
    }
    for (verb, f) in VERBS.iter().zip(&frontends) {
        report.metric(format!("server.frontend_us_mean.{verb}"), *f, "us");
    }
    report.metric(
        "server.backpressure_stalls",
        (after.counter("serve.backpressure.stalls") - before.counter("serve.backpressure.stalls"))
            as f64,
        "count",
    );

    // Client layer.
    let replayed = on.requests.values().sum::<u64>().max(1) as f64;
    report.metric(
        "client.encode_ns_per_req",
        mean_ns(&agg, "client.encode"),
        "ns",
    );
    report.metric(
        "client.cpu_us_per_req",
        (m.bracket.self_cpu_us.1 - m.bracket.self_cpu_us.0) / requests as f64,
        "us",
    );
    report.metric(
        "client.request_bytes_per_record",
        on.request_bytes as f64 / on.ingest_records.max(1) as f64,
        "B",
    );
    report.metric("client.retries", m.retries as f64, "count");

    // JSON, protocol and frame layers.
    report.metric("json.parse_ns_per_req", mean_ns(&agg, "json.parse"), "ns");
    report.metric(
        "json.encode_ns_per_resp",
        mean_ns(&agg, "json.encode_resp"),
        "ns",
    );
    report.metric(
        "json.request_bytes",
        on.json_bytes as f64 / on.json_requests.max(1) as f64,
        "B",
    );
    report.metric(
        "protocol.decode_ns_per_req",
        mean_ns(&agg, "protocol.decode"),
        "ns",
    );

    // Kernel pass: estimators, trace validation, PELT, init, and the
    // layers this workload's server path skips.
    let kern = kernels(plan, scratch, report)?;
    let per = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    if agg.contains_key("protocol.wal_reencode") {
        report.metric(
            "protocol.wal_reencode_ns_per_ingest",
            mean_ns(&agg, "protocol.wal_reencode"),
            "ns",
        );
    } else {
        report.metric(
            "protocol.wal_reencode_ns_per_ingest",
            per(kern.reencode_ns, kern.reencodes),
            "ns",
        );
        report.note(
            "protocol.wal_reencode: the server re-encodes no JSON ingest for a WAL on this \
             workload; measured in the kernel pass on its record batches",
        );
    }
    if on.frame_records > 0 {
        let frame_decode = agg.get("frame.decode").map_or(0, |a| a.1);
        report.metric(
            "frame.decode_ns_per_record",
            per(frame_decode, on.frame_records),
            "ns",
        );
        report.metric(
            "frame.bytes_per_record",
            per(on.frame_bytes, on.frame_records),
            "B",
        );
    } else {
        report.metric(
            "frame.decode_ns_per_record",
            per(kern.frame_decode_ns, kern.frame_records),
            "ns",
        );
        report.metric(
            "frame.bytes_per_record",
            per(kern.frame_bytes, kern.frame_records),
            "B",
        );
        report.note(
            "frame.*: this workload sends no binary frames; measured in the kernel pass on its \
             record batches",
        );
    }

    // Engine layer from the replay.
    let ingest_engine: u64 = spans
        .iter()
        .filter(|s| s.name == "engine.handle")
        .filter(|s| spans[s.parent as usize].name == "ingest")
        .map(|s| s.end - s.start)
        .sum();
    report.metric(
        "engine.ingest_ns_per_record",
        ingest_engine as f64 / on.ingest_records.max(1) as f64,
        "ns",
    );
    report.metric(
        "engine.estimate_us",
        verb_mean_ns(spans, "estimate", "engine.handle") / 1e3,
        "us",
    );
    report.metric(
        "engine.session_state_bytes",
        on.state_bytes as f64 / on.sessions.max(1) as f64,
        "B",
    );

    // WAL and snapshot layers: from the replay where the server keeps
    // them (durable-monitor), else from the kernel pass.
    if plan.workload == Workload::DurableMonitor {
        report.metric("wal.append_ns_per_frame", mean_ns(&agg, "wal.append"), "ns");
        report.metric(
            "wal.bytes_per_record",
            per(on.wal_bytes, on.ingest_records),
            "B",
        );
        report.metric("snapshot.writes", on.snapshot_writes as f64, "count");
        let snapshot_ns = agg.get("snapshot.maybe").map_or(0, |a| a.1);
        report.metric(
            "snapshot.write_ms",
            per(snapshot_ns, on.snapshot_writes) / 1e6,
            "ms",
        );
        report.metric(
            "snapshot.bytes_per_write",
            per(on.snapshot_bytes, on.snapshot_writes),
            "B",
        );
        report.metric(
            "snapshot.amplification",
            per(on.snapshot_bytes, on.wal_bytes),
            "ratio",
        );
        report.metric("snapshot.recover_ms", on.recover_ns as f64 / 1e6, "ms");
        report.metric(
            "snapshot.recover_frames_replayed",
            on.recover_frames as f64,
            "count",
        );
        report.note(format!(
            "server counters over the timed phase: wal frames={} wal bytes={} snapshot writes={}; \
             at start-up: recovered frames={}",
            after.counter("serve.wal.frames") - before.counter("serve.wal.frames"),
            after.counter("serve.wal.bytes") - before.counter("serve.wal.bytes"),
            after.counter("serve.snapshot.writes") - before.counter("serve.snapshot.writes"),
            before.counter("serve.recover.frames_replayed"),
        ));
    } else {
        report.metric(
            "wal.append_ns_per_frame",
            per(kern.append_ns, kern.appends),
            "ns",
        );
        report.metric(
            "wal.bytes_per_record",
            per(kern.wal_bytes, kern.wal_records),
            "B",
        );
        report.metric("snapshot.writes", 0.0, "count");
        report.metric("snapshot.write_ms", kern.snapshot_ns as f64 / 1e6, "ms");
        report.metric("snapshot.bytes_per_write", kern.snapshot_bytes as f64, "B");
        report.metric(
            "snapshot.amplification",
            per(kern.snapshot_bytes, kern.wal_bytes),
            "ratio",
        );
        report.metric("snapshot.recover_ms", kern.recover_ns as f64 / 1e6, "ms");
        report.metric(
            "snapshot.recover_frames_replayed",
            kern.recover_frames as f64,
            "count",
        );
        report.note(
            "wal.* and snapshot.*: this workload's server runs without --data-dir and never \
             rotates (snapshot.writes 0); the rest is measured in the kernel pass: its batches \
             appended to a scratch WAL, one snapshot of the loaded sessions, and recovery \
             replaying that WAL onto a snapshot of the freshly initialized sessions",
        );
    }

    report.metric("replay.tracing_overhead_pct", overhead, "%");
    // The bookkeeping one span costs, timed in isolation: the floor the
    // measured difference above sits on, which replay-to-replay noise
    // (allocator state, host phases) can swamp.
    let mut probe = Tracer::new(true);
    let t = Instant::now();
    for i in 0..100_000u32 {
        let idx = probe.open("probe", u32::MAX, i);
        probe.close(idx);
    }
    let per_span = t.elapsed().as_nanos() as f64 / 100_000.0;
    report.note(format!(
        "tracing overhead: replay {:.3} s with spans, {:.3} s without ({overhead:.2}%), \
         {replayed} requests; span bookkeeping alone: {per_span:.1} ns x {} spans = {:.3}% of the traced replay",
        on.elapsed_ns as f64 / 1e9,
        off.elapsed_ns as f64 / 1e9,
        spans.len(),
        per_span * spans.len() as f64 / on.elapsed_ns.max(1) as f64 * 100.0,
    ));
    Ok(())
}
