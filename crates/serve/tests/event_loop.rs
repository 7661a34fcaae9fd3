//! The event loop as the one front end: a shard busy with slow requests
//! must not hold up requests for other shards (a full shard queue parks
//! on the loop instead of blocking a thread), and a reply that closes
//! its connection must reach the peer as data then EOF, never as a TCP
//! reset.

use ddn_serve::wal::MAX_FRAME_BYTES;
use ddn_serve::{serve, FaultState, FaultyTransport, ServeClient, ServeConfig, FRAME_MAGIC};
use ddn_stats::Json;
use ddn_testkit::{Dir, FaultEvent, FaultKind, FaultPlan};
use ddn_trace::{Context, ContextSchema, Decision, DecisionSpace, TraceRecord};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
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
        queue_capacity: 1,
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
    while handle.stats().backpressure_stalls() == 0 {
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
