//! Integration tests for the live observability plane: the `stats`
//! verb, request-id echo, and the determinism of the metrics registry.
//!
//! The paper's thesis is that collection infrastructure must not bias
//! the data it collects; the observability plane holds itself to the
//! same bar. Two identical seeded workloads must produce identical
//! stats (modulo wall-clock duration fields), and the per-verb
//! histogram totals must agree exactly with the request counters at
//! every observable moment.

use ddn_serve::protocol::ingest_request_json;
use ddn_serve::{serve, Count, ServeClient, ServeConfig};
use ddn_stats::rng::{Rng, Xoshiro256};
use ddn_stats::Json;
use ddn_trace::{Context, ContextSchema, Decision, DecisionSpace, TraceRecord};
use std::io::{BufRead, BufReader, Write};
use std::time::{Duration, Instant};

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

/// Runs the reference workload against a fresh server and returns the
/// final `stats` snapshot.
fn workload_snapshot(shards: usize) -> Json {
    let handle = serve(&ServeConfig {
        shards,
        ..ServeConfig::default()
    })
    .expect("bind");
    let mut client = ServeClient::connect(&handle.local_addr().to_string()).unwrap();
    for session in ["alpha", "beta"] {
        client
            .init(session, &schema(), &space(), &["ips"], "b", 0.0, None)
            .unwrap();
    }
    let recs = records(120, 42);
    for chunk in recs.chunks(32) {
        client.ingest("alpha", chunk).unwrap();
        client.ingest("beta", chunk).unwrap();
    }
    client.estimate("alpha").unwrap();
    client.health().unwrap();
    let resp = client.server_stats(false).unwrap();
    let snap = resp.get("stats").expect("stats key").clone();
    handle.shutdown();
    snap
}

/// Strips wall-clock-dependent fields: every histogram is reduced to
/// its name and total count (bucket placement and sums depend on real
/// durations; the count does not).
fn normalized(snap: &Json) -> Json {
    let section = |name: &str| snap.get(name).cloned().unwrap_or(Json::Null);
    let histograms = snap
        .get("histograms")
        .and_then(Json::as_object)
        .unwrap_or_default()
        .iter()
        .map(|(name, h)| {
            (
                name.clone(),
                h.get("count").cloned().unwrap_or(Json::Int(0)),
            )
        })
        .collect::<Vec<_>>();
    Json::Object(vec![
        ("counters".to_string(), section("counters")),
        ("gauges".to_string(), section("gauges")),
        ("histograms".to_string(), Json::Object(histograms)),
    ])
}

#[test]
fn identical_workloads_produce_identical_stats() {
    // Collection must not perturb what it reports: replaying the same
    // seeded workload twice yields byte-identical stats JSON once the
    // only nondeterministic inputs — wall-clock durations — are
    // stripped. Counter values, gauge values, the full metric name set,
    // and every histogram's total all have to match.
    let a = normalized(&workload_snapshot(2));
    let b = normalized(&workload_snapshot(2));
    assert_eq!(a.to_string(), b.to_string());
}

#[test]
fn stats_key_set_is_workload_independent() {
    // Metric names are registered at serve() time, not first use, so a
    // monitoring pipeline sees a stable schema: an idle server and a
    // busy one expose the same counter and histogram names.
    let idle = {
        let handle = serve(&ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        let mut client = ServeClient::connect(&handle.local_addr().to_string()).unwrap();
        let resp = client.server_stats(false).unwrap();
        let snap = resp.get("stats").unwrap().clone();
        handle.shutdown();
        snap
    };
    let busy = workload_snapshot(2);
    let names = |snap: &Json, section: &str| -> Vec<String> {
        snap.get(section)
            .and_then(Json::as_object)
            .unwrap_or_default()
            .iter()
            .map(|(n, _)| n.clone())
            .collect()
    };
    for section in ["counters", "gauges", "histograms"] {
        assert_eq!(
            names(&idle, section),
            names(&busy, section),
            "{section} name set depends on traffic"
        );
    }
}

#[test]
fn histogram_totals_equal_per_verb_counters() {
    let snap = workload_snapshot(3);
    let counters = snap.get("counters").and_then(Json::as_object).unwrap();
    let histograms = snap.get("histograms").and_then(Json::as_object).unwrap();
    let mut verbs = 0;
    for (name, value) in counters {
        let Some(verb) = name.strip_prefix("serve.req.") else {
            continue;
        };
        if verb.contains('.') {
            continue;
        }
        let conn_name = format!("serve.req.{verb}.handle_ns");
        let shard_prefix = format!("{conn_name}.s");
        let total: u64 = histograms
            .iter()
            .filter(|(h, _)| *h == conn_name || h.starts_with(&shard_prefix))
            .filter_map(|(_, j)| j.get("count").and_then(Json::as_u64))
            .sum();
        assert_eq!(
            Some(total),
            value.as_u64(),
            "verb {verb}: histogram total != counter"
        );
        verbs += 1;
    }
    // init / ingest / estimate / health / stats at least; shutdown has
    // not been sent yet.
    assert!(verbs >= 5, "only {verbs} verbs checked: {snap}");
}

#[test]
fn stats_snapshots_before_recording_itself() {
    // The snapshot is taken BEFORE the stats request books its own
    // metrics, so the invariant (totals == counters) holds at every
    // observable moment: the first response reports zero stats
    // requests, the second exactly one.
    let handle = serve(&ServeConfig::default()).unwrap();
    let mut client = ServeClient::connect(&handle.local_addr().to_string()).unwrap();

    let counter = |resp: &Json| {
        resp.get("stats")
            .and_then(|s| s.get("counters"))
            .and_then(|c| c.get("serve.req.stats"))
            .and_then(Json::as_u64)
    };
    let first = client.server_stats(false).unwrap();
    assert_eq!(counter(&first), Some(0), "{first}");
    let second = client.server_stats(false).unwrap();
    assert_eq!(counter(&second), Some(1), "{second}");
    handle.shutdown();
}

#[test]
fn sessions_and_ingest_gauges_track_the_workload() {
    let handle = serve(&ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = ServeClient::connect(&handle.local_addr().to_string()).unwrap();
    client
        .init("one", &schema(), &space(), &["ips"], "b", 0.0, None)
        .unwrap();
    client
        .init("two", &schema(), &space(), &["ips"], "b", 0.0, None)
        .unwrap();
    client.ingest("one", &records(48, 9)).unwrap();

    let resp = client.server_stats(false).unwrap();
    let snap = resp.get("stats").unwrap();
    let gauges = snap.get("gauges").unwrap();
    assert_eq!(
        gauges.get("serve.sessions.live.s0").and_then(Json::as_f64),
        Some(2.0),
        "{gauges}"
    );
    assert_eq!(
        gauges.get("serve.conn.active").and_then(Json::as_f64),
        Some(1.0),
        "{gauges}"
    );
    assert_eq!(
        snap.get("counters")
            .and_then(|c| c.get("serve.ingest.records"))
            .and_then(Json::as_u64),
        Some(48),
        "{snap}"
    );
    handle.shutdown();
}

/// Sends one raw JSON line and reads one response line.
fn raw_roundtrip(stream: &mut std::net::TcpStream, line: &str) -> Json {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut out = String::new();
    reader.read_line(&mut out).unwrap();
    Json::parse(out.trim()).unwrap()
}

#[test]
fn request_ids_echo_verbatim_for_any_json_value() {
    let handle = serve(&ServeConfig::default()).unwrap();
    let mut stream = std::net::TcpStream::connect(handle.local_addr()).unwrap();

    // String, integer, and structured ids all echo bit-for-bit.
    let resp = raw_roundtrip(&mut stream, r#"{"verb":"health","id":"req-7"}"#);
    assert_eq!(resp.get("id"), Some(&Json::str("req-7")), "{resp}");
    let resp = raw_roundtrip(&mut stream, r#"{"verb":"health","id":12345}"#);
    assert_eq!(resp.get("id"), Some(&Json::Int(12345)), "{resp}");
    let resp = raw_roundtrip(&mut stream, r#"{"verb":"health","id":{"x":[1,2]}}"#);
    assert_eq!(
        resp.get("id").map(Json::to_string).as_deref(),
        Some(r#"{"x":[1,2]}"#)
    );

    // Error responses carry the id too — the caller can correlate its
    // failures, not just its successes.
    let resp = raw_roundtrip(&mut stream, r#"{"verb":"no-such-verb","id":9}"#);
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{resp}");
    assert_eq!(resp.get("id"), Some(&Json::Int(9)), "{resp}");

    // A request with no id gets no id key invented for it.
    let resp = raw_roundtrip(&mut stream, r#"{"verb":"health"}"#);
    assert!(resp.get("id").is_none(), "{resp}");

    // Unparseable lines have no extractable id; the error comes back
    // without one rather than with a guess.
    let resp = raw_roundtrip(&mut stream, "not json at all");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{resp}");
    assert!(resp.get("id").is_none(), "{resp}");

    drop(stream);
    handle.shutdown();
}

#[test]
fn inline_flight_rings_are_ordered_and_complete() {
    let handle = serve(&ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = ServeClient::connect(&handle.local_addr().to_string()).unwrap();
    client
        .init("ring", &schema(), &space(), &["ips"], "b", 0.0, None)
        .unwrap();
    for chunk in records(96, 5).chunks(32) {
        client.ingest("ring", chunk).unwrap();
    }
    client.estimate("ring").unwrap();

    let resp = client.server_stats(true).unwrap();
    let events = resp
        .get("flight")
        .and_then(|f| f.get("shard-0"))
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("no shard-0 flight ring in {resp}"));

    // init, 3 ingests, estimate — in submission order, with consecutive
    // indices and per-event detail intact.
    let verbs: Vec<&str> = events
        .iter()
        .map(|e| e.get("verb").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(verbs, ["init", "ingest", "ingest", "ingest", "estimate"]);
    for (i, event) in events.iter().enumerate() {
        assert_eq!(event.get("n").and_then(Json::as_u64), Some(i as u64));
        assert_eq!(event.get("outcome"), Some(&Json::str("ok")), "{event}");
        assert_eq!(event.get("session"), Some(&Json::str("ring")), "{event}");
    }
    let seqs: Vec<Option<i64>> = events
        .iter()
        .map(|e| e.get("seq").and_then(Json::as_i64))
        .collect();
    assert_eq!(seqs, [None, Some(0), Some(1), Some(2), None]);
    handle.shutdown();
}

/// The server-wide metrics `health` lists, in its order.
const HEALTH_COUNTERS: [&str; 15] = [
    "serve.ingest.records",
    "serve.queue.depth",
    "serve.conn.active",
    "serve.backpressure.stalls",
    "serve.shard.handoffs",
    "serve.dedup.replays",
    "serve.fault.conn_errors",
    "serve.fault.worker_restarts",
    "serve.wal.frames",
    "serve.wal.bytes",
    "serve.snapshot.writes",
    "serve.snapshot.bytes",
    "serve.recover.frames_replayed",
    "serve.recover.truncated_frames",
    "serve.recover.sessions",
];

#[test]
fn health_and_stats_report_one_value_per_server_metric() {
    // `health` lists the server-wide metrics as telemetry counters and
    // `stats` as registry counters and gauges; both must read the same
    // handles. A durable server restarted once moves every family:
    // recovery, snapshots, the WAL, ingest, dedup, faults, connections.
    // One shard, so the last request before `health` is on the shard
    // every rotation ran on (see below).
    let dir = std::env::temp_dir().join(format!("ddn-stats-agree-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig {
        shards: 1,
        data_dir: Some(dir.clone()),
        snapshot_every: 2,
        failpoint: Some("boom".to_string()),
        ..ServeConfig::default()
    };
    let recs = records(64, 17);

    // init + four ingests: rotations after frames 2 and 4, and frame 5
    // is the WAL tail the restart replays.
    let handle = serve(&config).unwrap();
    let mut client = ServeClient::connect(&handle.local_addr().to_string()).unwrap();
    client
        .init("before", &schema(), &space(), &["ips"], "b", 0.0, None)
        .unwrap();
    for chunk in recs.chunks(16) {
        client.ingest("before", chunk).unwrap();
    }
    drop(client);
    handle.shutdown();

    let handle = serve(&config).unwrap();
    let mut client = ServeClient::connect(&handle.local_addr().to_string()).unwrap();
    for session in ["after", "boom"] {
        client
            .init(session, &schema(), &space(), &["ips"], "b", 0.0, None)
            .unwrap();
    }
    for chunk in recs.chunks(16) {
        client.ingest("after", chunk).unwrap();
    }
    let again = client
        .request(&ingest_request_json("after", &recs[48..], Some(3)))
        .unwrap();
    assert_eq!(again.get("duplicate"), Some(&Json::Bool(true)), "{again}");
    client.ingest("boom", &recs[..4]).unwrap_err();
    // A connection torn mid-line is a connection fault.
    let mut torn = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    torn.write_all(br#"{"verb":"hea"#).unwrap();
    drop(torn);
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().get(Count::FaultConnErrors) == 0
        || handle.stats().get(Count::ConnActive) != 1
    {
        assert!(
            Instant::now() < deadline,
            "the torn connection never closed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // A rotation runs after its request's reply, so `health` could find
    // the shard still held and count its own handoff after taking its
    // counters. An estimate logs nothing and is answered after any
    // rotation before it, and its shard is released before its
    // connection is read again.
    client.estimate("after").unwrap();

    let health = client.health().unwrap();
    let stats = client.server_stats(false).unwrap();
    let counters = health
        .get("telemetry")
        .and_then(|t| t.get("counters"))
        .and_then(Json::as_object)
        .unwrap_or_else(|| panic!("no counters in {health}"));
    let names: Vec<&str> = counters.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, HEALTH_COUNTERS, "health's counter list");
    let stats = stats.get("stats").unwrap();
    for (name, value) in counters {
        let registry = stats
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .or_else(|| {
                let gauge = stats.get("gauges")?.get(name)?.as_f64()?;
                Some(gauge as u64)
            });
        assert_eq!(value.as_u64(), registry, "{name}: health vs stats");
    }
    let moved = |name: &str| {
        counters
            .iter()
            .any(|(n, v)| n == name && v.as_u64() > Some(0))
    };
    for name in [
        "serve.ingest.records",
        "serve.conn.active",
        "serve.dedup.replays",
        "serve.fault.conn_errors",
        "serve.fault.worker_restarts",
        "serve.wal.frames",
        "serve.wal.bytes",
        "serve.snapshot.writes",
        "serve.snapshot.bytes",
        "serve.recover.frames_replayed",
        "serve.recover.sessions",
    ] {
        assert!(moved(name), "the workload left {name} at 0: {health}");
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Inits sessions named `<prefix>-<k>` until one lands on `shard`, read
/// off the per-shard live-session gauge, and returns its name.
fn init_on_shard(
    client: &mut ServeClient,
    shard: usize,
    prefix: &str,
    estimators: &[&str],
    window: Option<usize>,
) -> String {
    let gauge = format!("serve.sessions.live.s{shard}");
    let live = |client: &mut ServeClient| {
        let resp = client.server_stats(false).unwrap();
        let gauges = resp.get("stats").and_then(|s| s.get("gauges"));
        gauges.and_then(|g| g.get(&gauge)).and_then(Json::as_f64)
    };
    for k in 0..64 {
        let session = format!("{prefix}-{k}");
        let before = live(client);
        client
            .init(&session, &schema(), &space(), estimators, "b", 0.0, window)
            .unwrap();
        if live(client) > before {
            return session;
        }
    }
    panic!("no {prefix}-k session hashed to shard {shard}");
}

#[test]
fn health_counts_the_handoffs_of_its_own_parts() {
    // `health` visits each shard through its FIFO. Here its part for
    // shard 1 queues behind a slow estimate, a handoff; the server
    // counters it reports are taken once its last part is in, so they
    // count that handoff, and a `stats` sent next on the same connection
    // reports every server metric with the same value.
    let handle = serve(&ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.local_addr().to_string();
    let mut client = ServeClient::connect(&addr).unwrap();
    // A session on shard 1 whose estimate replays a 100,000-record
    // window through four estimators.
    let bank = ["ips", "snips", "dr", "adaptive"];
    let slow = init_on_shard(&mut client, 1, "slow", &bank, Some(100_000));
    for chunk in records(100_000, 23).chunks(10_000) {
        client.ingest_binary(&slow, chunk).unwrap();
    }

    // Two estimates of it on two connections: once one waits for the
    // other (a handoff), shard 1 is held for a whole estimate more.
    let before = handle.stats().get(Count::ShardHandoffs);
    let line = format!("{{\"verb\":\"estimate\",\"session\":\"{slow}\"}}\n");
    let waiting: Vec<_> = (0..2)
        .map(|_| {
            let mut stream = std::net::TcpStream::connect(handle.local_addr()).unwrap();
            stream.write_all(line.as_bytes()).unwrap();
            stream
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.stats().get(Count::ShardHandoffs) == before {
        assert!(Instant::now() < deadline, "no estimate waited for shard 1");
        std::thread::sleep(Duration::from_millis(1));
    }

    let health = client.health().unwrap();
    let stats = client.server_stats(false).unwrap();
    let counters = health
        .get("telemetry")
        .and_then(|t| t.get("counters"))
        .and_then(Json::as_object)
        .unwrap_or_else(|| panic!("no counters in {health}"));
    let names: Vec<&str> = counters.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, HEALTH_COUNTERS, "health's counter list");
    let stats = stats.get("stats").unwrap();
    for (name, value) in counters {
        let registry = stats
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .or_else(|| {
                let gauge = stats.get("gauges")?.get(name)?.as_f64()?;
                Some(gauge as u64)
            });
        assert_eq!(value.as_u64(), registry, "{name}: health vs stats");
    }
    // The estimates' handoff, then health's own part's.
    let handoffs = counters
        .iter()
        .find(|(n, _)| n == "serve.shard.handoffs")
        .and_then(|(_, v)| v.as_u64());
    assert_eq!(handoffs, Some(before + 2), "{health}");
    for stream in waiting {
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply).unwrap();
        assert!(reply.contains("\"ok\":true"), "{reply}");
    }
    handle.shutdown();
}
