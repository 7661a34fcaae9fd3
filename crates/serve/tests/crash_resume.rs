//! Kill-and-restart chaos suite: durability must not bias the data.
//!
//! Every case runs a durable server (`data_dir` set) against an
//! in-process reference [`Engine`] fed the exact same sequenced batches.
//! A seeded [`LifecyclePlan`] kills the server at scripted record
//! offsets — optionally leaving torn garbage on the WAL tail, as a real
//! `kill -9` mid-append would — and restarts it on a fresh port. The
//! paper-level invariant under test: after any number of crashes and
//! recoveries, the served `estimate` (and per-session health) is
//! **bit-identical** to the unbroken reference run. Recovery may never
//! add, drop, or perturb a single acknowledged record.

use ddn_serve::engine::Engine;
use ddn_serve::protocol::DEFAULT_MAX_WEIGHT;
use ddn_serve::snapshot::wal_path;
use ddn_serve::{
    serve, ClientConfig, Count, Request, ServeClient, ServeConfig, ServerHandle, TcpTransport,
    Transport,
};
use ddn_stats::rng::{Rng, Xoshiro256};
use ddn_stats::Json;
use ddn_testkit::{
    check_with, lifecycle_plans, prop_assert, prop_assert_eq, Config, LifecyclePlanConfig,
    TestResult,
};
use ddn_trace::{Context, ContextSchema, Decision, DecisionSpace, TraceRecord};
use std::collections::HashMap;
use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The full online estimator menu plus a windowed variant; recovery must
/// round-trip every accumulator shape, not just the easy ones. The menu
/// trio rides along: `seqdr` runs at horizon 4 while batches arrive at
/// arbitrary sizes, so kills land mid-trajectory and recovery must
/// restore its pending partial trajectory exactly.
const MENU: &[&str] = &[
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
const MODEL_VALUE: f64 = 2.5;
const SEQ_HORIZON: usize = 4;

fn schema() -> ContextSchema {
    ContextSchema::builder().categorical("g", 2).build()
}

fn space() -> DecisionSpace {
    DecisionSpace::of(&["a", "b"])
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

/// Drops the `"id"` echo the server attaches to wire responses, so they
/// compare bitwise against bare engine responses (which carry none).
fn strip_id(resp: &Json) -> Json {
    match resp {
        Json::Object(fields) => {
            Json::Object(fields.iter().filter(|(k, _)| k != "id").cloned().collect())
        }
        other => other.clone(),
    }
}

fn test_dir(name: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ddn-crash-resume-{name}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The init request the client sends, reconstructed so the reference
/// engine sees byte-for-byte the same spec the server parsed.
fn init_request(session: &str, estimators: &[&str], window: Option<usize>) -> Json {
    let mut fields = vec![
        ("verb", Json::str("init")),
        ("session", Json::str(session)),
        ("schema", schema().to_json()),
        ("space", space().to_json()),
        (
            "estimators",
            Json::Array(estimators.iter().map(|e| Json::str(*e)).collect()),
        ),
        (
            "policy",
            Json::object(vec![
                ("kind", Json::str("constant")),
                ("decision", Json::str("b")),
            ]),
        ),
        ("model_value", Json::Num(MODEL_VALUE)),
        ("max_weight", Json::Num(DEFAULT_MAX_WEIGHT)),
        ("horizon", Json::Int(SEQ_HORIZON as i64)),
        ("embedding", Json::Array(vec![Json::Int(0), Json::Int(0)])),
        (
            "logging",
            Json::object(vec![("kind", Json::str("uniform"))]),
        ),
    ];
    if let Some(w) = window {
        fields.push(("window", Json::Int(w as i64)));
    }
    Json::object(fields)
}

/// The unbroken reference: a plain in-process engine fed the same
/// sequenced batches the client acknowledged, with no server, no WAL,
/// and no crashes in between.
#[derive(Default)]
struct Reference {
    engine: Engine,
    seqs: HashMap<String, u64>,
}

impl Reference {
    fn init(&mut self, session: &str, estimators: &[&str], window: Option<usize>) {
        let line = init_request(session, estimators, window).to_string();
        let Ok(Request::Init(spec)) = Request::parse(&line) else {
            panic!("reference init line failed to parse: {line}");
        };
        let resp = self.engine.handle_init(spec);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        self.seqs.insert(session.to_string(), 0);
    }

    fn ingest(&mut self, session: &str, batch: &[TraceRecord]) {
        let seq = self.seqs[session];
        let resp = self.engine.handle_ingest(session, batch, Some(seq));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        *self.seqs.get_mut(session).unwrap() += 1;
    }
}

/// A durable server whose address survives kill-and-restart via a shared
/// cell the client's connector re-reads on every (re)connect.
struct DurableServer {
    dir: PathBuf,
    shards: usize,
    snapshot_every: u64,
    addr: Arc<Mutex<String>>,
    handle: Option<ServerHandle>,
}

impl DurableServer {
    fn start(dir: PathBuf, shards: usize, snapshot_every: u64) -> Self {
        let mut s = Self {
            dir,
            shards,
            snapshot_every,
            addr: Arc::new(Mutex::new(String::new())),
            handle: None,
        };
        s.boot();
        s
    }

    fn boot(&mut self) {
        let handle = serve(&ServeConfig {
            shards: self.shards,
            data_dir: Some(self.dir.clone()),
            snapshot_every: self.snapshot_every,
            ..ServeConfig::default()
        })
        .expect("bind durable server");
        *self.addr.lock().unwrap() = handle.local_addr().to_string();
        self.handle = Some(handle);
    }

    /// Simulates `kill -9` + restart. A crash cannot un-write
    /// acknowledged WAL frames (each is a single kernel-buffered write),
    /// but it *can* leave a torn partial frame from an append that was in
    /// flight — modeled by appending `torn_tail_bytes` of garbage.
    fn kill_and_restart(&mut self, torn_tail_bytes: usize) -> &ServerHandle {
        self.handle.take().expect("server running").shutdown();
        if torn_tail_bytes > 0 {
            for shard in 0..self.shards {
                if let Ok(mut f) = OpenOptions::new()
                    .append(true)
                    .open(wal_path(&self.dir, shard))
                {
                    let _ = f.write_all(&vec![0xAB; torn_tail_bytes]);
                }
            }
        }
        self.boot();
        self.handle.as_ref().unwrap()
    }

    fn stats(&self) -> &ddn_serve::ServerStats {
        self.handle.as_ref().expect("server running").stats()
    }

    /// A client that re-reads the (possibly updated) address on every
    /// reconnect, with a retry budget wide enough to ride out a restart.
    fn client(&self) -> ServeClient {
        let addr = Arc::clone(&self.addr);
        ServeClient::from_connector(
            Box::new(move || {
                let a = addr.lock().unwrap().clone();
                Ok(Box::new(TcpTransport::connect(&a)?) as Box<dyn Transport>)
            }),
            ClientConfig {
                read_timeout: Duration::from_secs(5),
                max_retries: 8,
                backoff_base: Duration::from_millis(2),
            },
        )
        .expect("initial connect")
    }

    fn finish(mut self) {
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// Compares the served per-session health against the reference engine's
/// collector, metric by metric, bitwise. Single-run snapshots aggregate
/// each metric as `{runs:1, mean:v, min:v, max:v}`, so `mean` IS the
/// value.
fn assert_session_health_matches(
    health_resp: &Json,
    reference: &Engine,
    session: &str,
) -> Result<(), String> {
    let live = health_resp
        .get("telemetry")
        .and_then(|t| t.get("health"))
        .ok_or("health response missing telemetry.health")?;
    let prefix = format!("serve/{session}/");
    let mut compared = 0usize;
    for (source, metrics) in reference.collector().health {
        if !source.starts_with(&prefix) {
            continue;
        }
        let live_source = live
            .get(&source)
            .ok_or_else(|| format!("recovered health missing source {source:?}"))?;
        for (metric, want) in metrics {
            let got = live_source
                .get(metric)
                .and_then(|m| m.get("mean"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{source}: missing metric {metric:?}"))?;
            if got.to_bits() != want.to_bits() {
                return Err(format!(
                    "{source}/{metric}: recovered {got:?} != reference {want:?}"
                ));
            }
            compared += 1;
        }
    }
    if compared == 0 {
        return Err(format!("no health metrics found for session {session:?}"));
    }
    Ok(())
}

/// THE crash-resume property: under a seeded (ingest-schedule ×
/// kill-offset × torn-tail × snapshot-interval) plan, the estimates and
/// per-session health served after the final recovery are bit-identical
/// to the unbroken in-process reference.
#[test]
fn killed_and_restarted_server_matches_unbroken_reference() {
    // Each case boots real TCP servers several times; a handful of cases
    // is plenty and keeps the suite fast. DDN_TESTKIT_CASES still
    // overrides.
    let config = Config {
        cases: 5,
        ..Config::default()
    };
    let generator = (
        0u64..1_000_000,
        4usize..33,
        1u64..12,
        lifecycle_plans(LifecyclePlanConfig {
            kills: 2,
            record_horizon: 220,
            max_torn_bytes: 48,
        }),
    );
    check_with(
        &config,
        "crash_resume::killed_and_restarted_server_matches_unbroken_reference",
        &generator,
        |case| {
            let (rec_seed, batch_size, snapshot_every, plan) = case.clone();
            let server = DurableServer::start(test_dir("prop"), 2, snapshot_every);
            let mut client = server.client();
            let mut reference = Reference::default();

            let sessions: [(&str, &[&str], Option<usize>); 2] =
                [("menu", MENU, None), ("win", &["ips", "dm"], Some(16))];
            for (sid, ests, window) in sessions {
                client
                    .init_with(sid, &init_request(sid, ests, window))
                    .expect("init");
                reference.init(sid, ests, window);
            }

            let recs = records(260, rec_seed);
            let mut driver = plan.driver();
            let mut killed_with_torn_tail = false;
            let mut server = server;
            for (i, batch) in recs.chunks(batch_size).enumerate() {
                let sid = sessions[i % sessions.len()].0;
                let resp = client.ingest(sid, batch).expect("ingest");
                prop_assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
                reference.ingest(sid, batch);
                if let Some(kill) = driver.advance(batch.len() as u64) {
                    server.kill_and_restart(kill.torn_tail_bytes);
                    if kill.torn_tail_bytes > 0 {
                        killed_with_torn_tail = true;
                        prop_assert!(
                            server.stats().get(Count::RecoverTruncatedFrames) >= 1,
                            "torn tail of {} bytes went unnoticed by recovery",
                            kill.torn_tail_bytes
                        );
                    }
                }
            }
            let _ = killed_with_torn_tail;

            // One final crash so the served state is *entirely* the
            // recovered one, even when no scripted kill fired.
            server.kill_and_restart(0);
            let stats = server.stats();
            prop_assert!(
                stats.get(Count::RecoverSessions) == 2
                    || stats.get(Count::RecoverFramesReplayed) >= 2,
                "final recovery found no trace of the two sessions \
                 (restored {}, replayed {})",
                stats.get(Count::RecoverSessions),
                stats.get(Count::RecoverFramesReplayed)
            );

            for (sid, _, _) in sessions {
                let est = strip_id(&client.estimate(sid).expect("estimate after recovery"));
                let want = reference.engine.handle_estimate(sid);
                prop_assert!(
                    est.to_string() == want.to_string(),
                    "session {:?} diverged after recovery under plan {:?}:\n  got {}\n want {}",
                    sid,
                    plan,
                    est,
                    want
                );
            }
            let health = client.health().expect("health after recovery");
            for (sid, _, _) in sessions {
                if let Err(e) = assert_session_health_matches(&health, &reference.engine, sid) {
                    return TestResult::fail(format!("under plan {plan:?}: {e}"));
                }
            }
            server.finish();
            TestResult::Pass
        },
    );
}

#[test]
fn a_kill_between_snapshot_and_newer_wal_frames_replays_the_tail() {
    // snapshot_every=3 guarantees a mid-stream snapshot; the batches
    // after it live only in the WAL. Recovery must stack exactly those
    // frames on top of the snapshot — not replay pre-snapshot frames
    // (which would double-count) and not drop the tail.
    let server = DurableServer::start(test_dir("tail"), 1, 3);
    let mut server = server;
    let mut client = server.client();
    let mut reference = Reference::default();
    client
        .init_with("tail", &init_request("tail", MENU, None))
        .unwrap();
    reference.init("tail", MENU, None);

    let recs = records(70, 7);
    for batch in recs.chunks(10) {
        client.ingest("tail", batch).unwrap();
        reference.ingest("tail", batch);
    }
    assert!(
        server.stats().get(Count::SnapshotWrites) >= 2,
        "cadence of 3 over 8 frames must have rotated a snapshot"
    );

    server.kill_and_restart(0);
    let stats = server.stats();
    assert!(
        stats.get(Count::RecoverSessions) >= 1 || stats.get(Count::RecoverFramesReplayed) >= 1,
        "recovery found nothing"
    );
    let est = strip_id(&client.estimate("tail").unwrap());
    assert_eq!(
        est.to_string(),
        reference.engine.handle_estimate("tail").to_string()
    );
    // n proves no frame replayed twice and none was dropped.
    assert_eq!(est.get("n").and_then(Json::as_i64), Some(recs.len() as i64));
    server.finish();
}

#[test]
fn a_torn_mid_frame_append_is_discarded_and_acked_batches_survive() {
    // Large interval so nothing snapshots mid-stream: every acked batch
    // lives in the WAL when the torn tail lands on top of it.
    let mut server = DurableServer::start(test_dir("torn"), 1, 1_000);
    let mut client = server.client();
    let mut reference = Reference::default();
    client
        .init_with("torn", &init_request("torn", MENU, None))
        .unwrap();
    reference.init("torn", MENU, None);
    let recs = records(40, 13);
    for batch in recs.chunks(8) {
        client.ingest("torn", batch).unwrap();
        reference.ingest("torn", batch);
    }

    server.kill_and_restart(17);
    let stats = server.stats();
    assert_eq!(stats.get(Count::RecoverTruncatedFrames), 1, "the torn tail");
    assert_eq!(
        stats.get(Count::RecoverFramesReplayed),
        1 + 5,
        "init + five acked batches replay; the torn garbage does not"
    );
    let est = strip_id(&client.estimate("torn").unwrap());
    assert_eq!(
        est.to_string(),
        reference.engine.handle_estimate("torn").to_string()
    );
    assert_eq!(est.get("n").and_then(Json::as_i64), Some(recs.len() as i64));

    // The healed log accepts new writes: ingest continues seamlessly on
    // the recovered sequence numbers.
    let more = records(16, 14);
    client.ingest("torn", &more).unwrap();
    reference.ingest("torn", &more);
    let est = strip_id(&client.estimate("torn").unwrap());
    assert_eq!(
        est.to_string(),
        reference.engine.handle_estimate("torn").to_string()
    );
    server.finish();
}

#[test]
fn windowed_eviction_and_negative_zero_rewards_survive_restart() {
    // The nastiest state to round-trip: a sliding window mid-eviction,
    // holding rewards whose sum crosses -0.0/+0.0 — the one f64 edge JSON
    // text cannot represent but raw bits must preserve.
    let mut server = DurableServer::start(test_dir("negzero"), 1, 4);
    let mut client = server.client();
    let mut reference = Reference::default();
    client
        .init(
            "edge",
            &schema(),
            &space(),
            &["ips", "dm", "snips"],
            "b",
            MODEL_VALUE,
            Some(8),
        )
        .unwrap();
    reference.init("edge", &["ips", "dm", "snips"], Some(8));

    let edge_records: Vec<TraceRecord> = (0..20)
        .map(|i| {
            let c = Context::build(&schema())
                .set_cat("g", (i % 2) as u32)
                .finish();
            let d = i % 2;
            let p = if d == 0 { 0.75 } else { 0.25 };
            // Alternating -0.0 / 0.0 rewards: sums hit the signed-zero
            // identity, windows evict records holding each sign.
            let r = if i % 2 == 0 { -0.0 } else { 0.0 };
            TraceRecord::new(c, Decision::from_index(d), r).with_propensity(p)
        })
        .collect();
    for batch in edge_records.chunks(3) {
        client.ingest("edge", batch).unwrap();
        reference.ingest("edge", batch);
        server.kill_and_restart(0);
    }

    let est = strip_id(&client.estimate("edge").unwrap());
    assert_eq!(
        est.to_string(),
        reference.engine.handle_estimate("edge").to_string(),
        "signed-zero windowed state diverged across restarts"
    );
    server.finish();
}

#[test]
fn a_reused_data_dir_with_a_different_shard_count_is_refused() {
    // meta.json pins the shard count: session→shard routing is a hash
    // modulo shards, so reopening with a different count would look up
    // sessions in files that don't hold them. Refusing beats silence.
    let dir = test_dir("meta");
    let server = DurableServer::start(dir.clone(), 2, 64);
    server.finish_keeping_dir();
    let err = match serve(&ServeConfig {
        shards: 3,
        data_dir: Some(dir.clone()),
        ..ServeConfig::default()
    }) {
        Err(e) => e,
        Ok(h) => {
            h.shutdown();
            panic!("shard count mismatch must refuse startup");
        }
    };
    assert!(
        err.to_string().contains("shards"),
        "unhelpful refusal: {err}"
    );
    let _ = fs::remove_dir_all(&dir);
}

impl DurableServer {
    fn finish_keeping_dir(mut self) {
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
    }
}
