//! The serving threads as the one front end: a shard busy with slow
//! requests must not hold up requests for other shards (a request for a
//! busy shard waits in its FIFO instead of blocking a thread), operator
//! verbs that visit every shard wait only for the busy one, pipelined
//! requests keep their order across shards, a shard that never goes idle
//! delays neither other connections nor `stats`, and a reply that closes
//! its connection must reach the peer as data then EOF, never as a TCP
//! reset.

use ddn_serve::protocol::ingest_request_json;
use ddn_serve::wal::MAX_FRAME_BYTES;
use ddn_serve::{
    frame, serve, Count, FaultState, FaultyTransport, ServeClient, ServeConfig, FRAME_MAGIC,
};
use ddn_stats::Json;
use ddn_testkit::{Dir, FaultEvent, FaultKind, FaultPlan};
use ddn_trace::{Context, ContextSchema, Decision, DecisionSpace, TraceRecord};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn schema() -> ContextSchema {
    ContextSchema::builder().categorical("g", 2).build()
}

fn space() -> DecisionSpace {
    DecisionSpace::of(&["a", "b"])
}

fn records(n: usize, from: usize) -> Vec<TraceRecord> {
    (from..from + n)
        .map(|i| {
            let c = Context::build(&schema())
                .set_cat("g", (i % 2) as u32)
                .finish();
            TraceRecord::new(c, Decision::from_index(i % 2), (i % 7) as f64).with_propensity(0.5)
        })
        .collect()
}

/// A raw connection with a response-line reader; the read timeout keeps
/// a wrong "server never answered" failure fast instead of hanging.
fn raw_conn(addr: &str) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Json {
    let mut line = String::new();
    reader.read_line(&mut line).expect("server must answer");
    Json::parse(line.trim()).expect("server answers valid JSON")
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
    let live = |client: &mut ServeClient| {
        let resp = client.server_stats(false).unwrap();
        let gauge = format!("serve.sessions.live.s{shard}");
        resp.get("stats")
            .and_then(|s| s.get("gauges"))
            .and_then(|g| g.get(&gauge))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
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

/// No reply bytes have reached this connection yet.
fn unanswered(stream: &TcpStream) -> bool {
    stream.set_nonblocking(true).unwrap();
    let got = stream.peek(&mut [0u8; 1]);
    stream.set_nonblocking(false).unwrap();
    matches!(got, Err(e) if e.kind() == ErrorKind::WouldBlock)
}

#[test]
fn a_busy_shard_does_not_stall_the_others() {
    let handle = serve(&ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.local_addr().to_string();
    let mut setup = ServeClient::connect(&addr).unwrap();
    let fast = init_on_shard(&mut setup, 1, "fast", &["ips"], None);

    // A session on shard 0 whose estimate replays a 100,000-record
    // window through four estimators.
    let slow = init_on_shard(
        &mut setup,
        0,
        "slow",
        &["ips", "snips", "dr", "adaptive"],
        Some(100_000),
    );
    for batch in 0..10 {
        setup
            .ingest_binary(&slow, &records(10_000, batch * 10_000))
            .unwrap();
    }

    // Three estimates of it on three connections: one runs, one fills
    // the one-slot queue, and one finds the queue full and parks,
    // whatever order they arrive in.
    let line = format!(r#"{{"verb":"estimate","session":"{slow}"}}"#);
    let mut waiting = Vec::new();
    for _ in 0..3 {
        let (mut stream, reader) = raw_conn(&addr);
        writeln!(stream, "{line}").unwrap();
        waiting.push((stream, reader));
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().get(Count::BackpressureStalls) == 0 {
        assert!(Instant::now() < deadline, "no slow estimate parked");
        std::thread::sleep(Duration::from_millis(1));
    }

    // Meanwhile the session on shard 1 goes through its whole life.
    let mut other = ServeClient::connect(&addr).unwrap();
    let started = Instant::now();
    other
        .init(&fast, &schema(), &space(), &["ips"], "b", 0.0, None)
        .unwrap();
    other.ingest(&fast, &records(4, 0)).unwrap();
    let est = other.estimate(&fast).unwrap();
    let took = started.elapsed();
    assert_eq!(
        est.get("estimates")
            .and_then(|e| e.get("ips"))
            .and_then(|e| e.get("n"))
            .and_then(Json::as_i64),
        Some(4),
        "{est}"
    );
    for (i, (stream, _)) in waiting.iter().enumerate() {
        assert!(
            unanswered(stream),
            "slow estimate {i} was answered before shard 1's client \
             finished ({took:?})"
        );
    }

    for (_, mut reader) in waiting {
        let resp = read_response(&mut reader);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    }
    handle.shutdown();
}

#[test]
fn a_closing_reply_ends_in_eof_not_a_reset() {
    // The server's first write waits 100 ms, so the peer's next bytes
    // arrive before the error reply is flushed and the connection closed.
    let mut plan = FaultPlan::new();
    plan.push(FaultEvent {
        dir: Dir::Write,
        offset: 0,
        kind: FaultKind::Delay { micros: 100_000 },
    });
    let state = FaultState::new(plan.cursor());
    let handle = serve(&ServeConfig {
        shards: 1,
        wrap: Some(Arc::new(move |t| {
            Box::new(FaultyTransport::new(t, state.clone()))
        })),
        ..ServeConfig::default()
    })
    .unwrap();
    let (mut stream, mut reader) = raw_conn(&handle.local_addr().to_string());

    // An unframeable length: error, then close.
    stream.write_all(&FRAME_MAGIC).unwrap();
    stream
        .write_all(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes())
        .unwrap();
    std::thread::sleep(Duration::from_millis(20));
    stream.write_all(b"sixteen bytes...").unwrap();

    let resp = read_response(&mut reader);
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{resp}");
    let msg = resp.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(msg.contains("frame cap"), "{resp}");
    let mut rest = String::new();
    match reader.read_line(&mut rest) {
        Ok(0) => {}
        other => panic!("expected EOF after the error, got {other:?} {rest:?}"),
    }
    handle.shutdown();
}

/// The busy-shard scenario of `a_busy_shard_does_not_stall_the_others`:
/// returns a session on shard 1 and one on shard 0 whose estimate replays
/// a 100,000-record window through four estimators.
fn busy_shard_sessions(setup: &mut ServeClient) -> (String, String) {
    let fast = init_on_shard(setup, 1, "fast", &["ips"], None);
    let slow = init_on_shard(
        setup,
        0,
        "slow",
        &["ips", "snips", "dr", "adaptive"],
        Some(100_000),
    );
    for batch in 0..10 {
        setup
            .ingest_binary(&slow, &records(10_000, batch * 10_000))
            .unwrap();
    }
    (fast, slow)
}

/// Sends `n` estimates of `session`, each on its own connection.
fn send_estimates(addr: &str, session: &str, n: usize) -> Vec<(TcpStream, BufReader<TcpStream>)> {
    let line = format!(r#"{{"verb":"estimate","session":"{session}"}}"#);
    (0..n)
        .map(|_| {
            let (mut stream, reader) = raw_conn(addr);
            writeln!(stream, "{line}").unwrap();
            (stream, reader)
        })
        .collect()
}

fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting: {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn ips_n(est: &Json) -> Option<i64> {
    est.get("estimates")
        .and_then(|e| e.get("ips"))
        .and_then(|e| e.get("n"))
        .and_then(Json::as_i64)
}

#[test]
fn health_waits_only_for_the_busy_shard() {
    let handle = serve(&ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.local_addr().to_string();
    let mut setup = ServeClient::connect(&addr).unwrap();
    let (fast, slow) = busy_shard_sessions(&mut setup);
    let waiting = send_estimates(&addr, &slow, 3);
    wait_until("a slow estimate stalled", || {
        handle.stats().get(Count::BackpressureStalls) > 0
    });

    // The health goes to shard 0's FIFO behind the slow estimates.
    let (mut health, mut health_reader) = raw_conn(&addr);
    writeln!(health, r#"{{"verb":"health","id":7}}"#).unwrap();

    let mut other = ServeClient::connect(&addr).unwrap();
    other.server_stats(false).unwrap();
    other
        .init(&fast, &schema(), &space(), &["ips"], "b", 0.0, None)
        .unwrap();
    other.ingest(&fast, &records(4, 0)).unwrap();
    let est = other.estimate(&fast).unwrap();
    assert_eq!(ips_n(&est), Some(4), "{est}");
    assert!(
        unanswered(&health),
        "health was answered while shard 0 was still busy"
    );
    for (i, (stream, _)) in waiting.iter().enumerate() {
        assert!(
            unanswered(stream),
            "slow estimate {i} was answered before shard 1's client finished"
        );
    }
    // The second and third slow estimates ran on the thread holding
    // shard 0, not on the threads that read them.
    let handoffs = handle.stats().get(Count::ShardHandoffs);
    assert!(handoffs >= 2, "{handoffs} handoffs");

    for (_, mut reader) in waiting {
        let resp = read_response(&mut reader);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    }
    let resp = read_response(&mut health_reader);
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    assert_eq!(resp.get("id"), Some(&Json::Int(7)), "{resp}");
    let sources = resp
        .get("telemetry")
        .and_then(|t| t.get("health"))
        .expect("health section");
    for session in [&fast, &slow] {
        let source = format!("serve/{session}/ips");
        assert!(
            sources.get(&source).is_some(),
            "{source} missing: {sources}"
        );
    }
    handle.shutdown();
}

#[test]
fn one_connection_on_an_idle_server_hands_nothing_off() {
    let handle = serve(&ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = ServeClient::connect(&handle.local_addr().to_string()).unwrap();
    for k in 0..8 {
        let session = format!("idle-{k}");
        client
            .init(&session, &schema(), &space(), &["ips"], "b", 0.0, None)
            .unwrap();
        client.ingest(&session, &records(3, k)).unwrap();
        client.ingest_binary(&session, &records(2, k + 3)).unwrap();
        assert_eq!(ips_n(&client.estimate(&session).unwrap()), Some(5));
    }
    client.health().unwrap();
    client.server_stats(true).unwrap();

    let resp = client.server_stats(false).unwrap();
    let snap = resp.get("stats").unwrap();
    for shard in 0..2 {
        let live = snap
            .get("gauges")
            .and_then(|g| g.get(&format!("serve.sessions.live.s{shard}")))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        assert!(live > 0.0, "no session on shard {shard}: {snap}");
    }
    assert_eq!(
        snap.get("counters")
            .and_then(|c| c.get("serve.shard.handoffs"))
            .and_then(Json::as_u64),
        Some(0),
        "{snap}"
    );
    assert_eq!(handle.stats().get(Count::ShardHandoffs), 0);
    handle.shutdown();
}

/// `json` with `"id": id` added.
fn with_id(json: Json, id: i64) -> Json {
    match json {
        Json::Object(mut fields) => {
            fields.push(("id".to_string(), Json::Int(id)));
            Json::Object(fields)
        }
        other => panic!("not an object: {other}"),
    }
}

fn init_line(session: &str, id: i64) -> Json {
    Json::object(vec![
        ("verb", Json::str("init")),
        ("session", Json::str(session)),
        ("schema", schema().to_json()),
        ("space", space().to_json()),
        ("estimators", Json::Array(vec![Json::str("ips")])),
        (
            "policy",
            Json::object(vec![
                ("kind", Json::str("constant")),
                ("decision", Json::str("b")),
            ]),
        ),
        ("id", Json::Int(id)),
    ])
}

fn estimate_line(session: &str, id: i64) -> Json {
    Json::object(vec![
        ("verb", Json::str("estimate")),
        ("session", Json::str(session)),
        ("id", Json::Int(id)),
    ])
}

#[test]
fn pipelined_requests_across_shards_answer_in_order() {
    let handle = serve(&ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.local_addr().to_string();
    let mut setup = ServeClient::connect(&addr).unwrap();
    let (on1, slow) = busy_shard_sessions(&mut setup);
    let on0 = init_on_shard(&mut setup, 0, "piped", &["ips"], None);

    // Shard 0 busy: one slow estimate running, one waiting behind it.
    let waiting = send_estimates(&addr, &slow, 2);
    wait_until("a slow estimate queued", || {
        handle.stats().get(Count::QueueDepth) > 0
    });
    let handoffs = handle.stats().get(Count::ShardHandoffs);
    let ingested = handle.stats().get(Count::IngestRecords);

    // One write, so after each reply the next request is already
    // buffered: no readiness event comes for it. Request 3 finds shard 0
    // busy and waits for the thread holding it.
    let mut wire = Vec::new();
    let line = |wire: &mut Vec<u8>, json: Json| {
        wire.extend_from_slice(json.to_string().as_bytes());
        wire.push(b'\n');
    };
    line(&mut wire, init_line(&on1, 1));
    line(
        &mut wire,
        with_id(ingest_request_json(&on1, &records(4, 0), Some(0)), 2),
    );
    line(&mut wire, init_line(&on0, 3));
    wire.extend(frame::encode(&on0, &records(5, 4), Some(0), Some(4)).unwrap());
    line(
        &mut wire,
        with_id(ingest_request_json(&on0, &records(3, 9), Some(1)), 5),
    );
    line(&mut wire, estimate_line(&on0, 6));
    wire.extend(frame::encode(&on1, &records(2, 4), Some(1), Some(7)).unwrap());
    line(&mut wire, estimate_line(&on1, 8));
    let (mut stream, mut reader) = raw_conn(&addr);
    stream.write_all(&wire).unwrap();

    enum Want {
        Ok,
        /// `accepted` and `total`.
        Ingest(i64, i64),
        /// The estimate's `n`.
        Estimate(i64),
    }
    let expect = [
        (1, Want::Ok),
        (2, Want::Ingest(4, 4)),
        (3, Want::Ok),
        (4, Want::Ingest(5, 5)),
        (5, Want::Ingest(3, 8)),
        (6, Want::Estimate(8)),
        (7, Want::Ingest(2, 6)),
        (8, Want::Estimate(6)),
    ];
    for (id, want) in expect {
        let resp = read_response(&mut reader);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
        assert_eq!(resp.get("id"), Some(&Json::Int(id)), "{resp}");
        match want {
            Want::Ok => {}
            Want::Ingest(accepted, total) => {
                assert_eq!(resp.get("accepted"), Some(&Json::Int(accepted)), "{resp}");
                assert_eq!(resp.get("total"), Some(&Json::Int(total)), "{resp}");
            }
            Want::Estimate(n) => assert_eq!(ips_n(&resp), Some(n), "{resp}"),
        }
    }
    assert_eq!(handle.stats().get(Count::IngestRecords) - ingested, 14);
    assert!(
        handle.stats().get(Count::ShardHandoffs) > handoffs,
        "the pipelined init never waited for shard 0"
    );
    for (_, mut reader) in waiting {
        let resp = read_response(&mut reader);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    }
    handle.shutdown();
}

/// Sends `wire` on a fresh connection whose replies must each arrive
/// within `limit`.
fn send_with_deadline(addr: &str, wire: &[u8], limit: Duration) -> BufReader<TcpStream> {
    let (mut stream, reader) = raw_conn(addr);
    stream.set_read_timeout(Some(limit)).unwrap();
    stream.write_all(wire).unwrap();
    reader
}

#[test]
fn a_hot_shard_holds_up_neither_health_nor_a_pipelined_connection() {
    let handle = serve(&ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.local_addr().to_string();
    let mut setup = ServeClient::connect(&addr).unwrap();
    let fast = init_on_shard(&mut setup, 1, "fast", &["ips"], None);
    let hot = init_on_shard(
        &mut setup,
        0,
        "hot",
        &["ips", "snips", "dr", "adaptive"],
        Some(10_000),
    );
    setup.ingest_binary(&hot, &records(10_000, 0)).unwrap();

    // Four closed-loop clients keep shard 0's FIFO from ever emptying:
    // while one estimate runs, the other three wait for the same thread.
    let stop = Arc::new(AtomicBool::new(false));
    let answered = Arc::new(AtomicU64::new(0));
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let (addr, hot) = (addr.clone(), hot.clone());
            let (stop, answered) = (Arc::clone(&stop), Arc::clone(&answered));
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(&addr).unwrap();
                while !stop.load(Ordering::Relaxed) {
                    client.estimate(&hot).unwrap();
                    answered.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    wait_until("shard 0 hot", || {
        answered.load(Ordering::Relaxed) >= 4 && handle.stats().get(Count::QueueDepth) > 0
    });
    let before = answered.load(Ordering::Relaxed);

    // One write: after the hot estimate's reply the rest is already
    // buffered, and the thread holding shard 0 goes on running it.
    let mut wire = Vec::new();
    let line = |wire: &mut Vec<u8>, json: Json| {
        wire.extend_from_slice(json.to_string().as_bytes());
        wire.push(b'\n');
    };
    line(&mut wire, estimate_line(&hot, 1));
    line(
        &mut wire,
        Json::parse(r#"{"verb":"health","id":2}"#).unwrap(),
    );
    line(&mut wire, init_line(&fast, 3));
    line(
        &mut wire,
        with_id(ingest_request_json(&fast, &records(4, 0), Some(0)), 4),
    );
    line(&mut wire, estimate_line(&fast, 5));
    line(&mut wire, estimate_line(&hot, 6));
    let limit = Duration::from_secs(10);
    let started = Instant::now();
    let mut piped = send_with_deadline(&addr, &wire, limit);
    let mut health = send_with_deadline(&addr, b"{\"verb\":\"health\",\"id\":9}\n", limit);
    let mut stats = send_with_deadline(&addr, b"{\"verb\":\"stats\"}\n", limit);

    let resp = read_response(&mut stats);
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    let resp = read_response(&mut health);
    assert_eq!(resp.get("id"), Some(&Json::Int(9)), "{resp}");
    assert!(resp.get("telemetry").is_some(), "{resp}");
    for id in 1..=6 {
        let resp = read_response(&mut piped);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
        assert_eq!(resp.get("id"), Some(&Json::Int(id)), "{resp}");
        match id {
            1 | 6 => assert_eq!(ips_n(&resp), Some(10_000), "{resp}"),
            2 => {
                let sources = resp
                    .get("telemetry")
                    .and_then(|t| t.get("health"))
                    .expect("health section");
                assert!(sources.get(&format!("serve/{hot}/ips")).is_some(), "{resp}");
            }
            4 => assert_eq!(resp.get("total"), Some(&Json::Int(4)), "{resp}"),
            5 => assert_eq!(ips_n(&resp), Some(4), "{resp}"),
            _ => {}
        }
    }
    let took = started.elapsed();
    let during = answered.load(Ordering::Relaxed) - before;
    stop.store(true, Ordering::Relaxed);
    for c in clients {
        c.join().unwrap();
    }
    assert!(took < limit, "took {took:?}");
    assert!(
        during > 0,
        "shard 0 went quiet while the replies were pending"
    );
    handle.shutdown();
}

#[test]
fn one_busy_shard_leaves_a_thread_to_answer_stats() {
    let handle = serve(&ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.local_addr().to_string();
    let mut setup = ServeClient::connect(&addr).unwrap();
    let slow = "slow";
    setup
        .init(
            slow,
            &schema(),
            &space(),
            &["ips", "snips", "dr", "adaptive"],
            "b",
            0.0,
            Some(100_000),
        )
        .unwrap();
    for batch in 0..10 {
        setup
            .ingest_binary(slow, &records(10_000, batch * 10_000))
            .unwrap();
    }

    // The only shard busy: one slow estimate running, one waiting.
    let waiting = send_estimates(&addr, slow, 2);
    wait_until("a slow estimate queued", || {
        handle.stats().get(Count::QueueDepth) > 0
    });

    // A new connection is accepted and its `stats` answered meanwhile.
    let mut other = ServeClient::connect(&addr).unwrap();
    let resp = other.server_stats(false).unwrap();
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    for (i, (stream, _)) in waiting.iter().enumerate() {
        assert!(
            unanswered(stream),
            "slow estimate {i} was answered before the stats"
        );
    }
    for (_, mut reader) in waiting {
        let resp = read_response(&mut reader);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    }
    handle.shutdown();
}
