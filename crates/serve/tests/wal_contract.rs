//! The WAL contract (DESIGN.md §12): every logged payload is the exact
//! bytes a request arrived as, and recovery replays it through the same
//! decoder and apply path live traffic takes.
//!
//! - `data/wal_4a5fca9.wal` is a shard WAL written by the server at
//!   commit 4a5fca9, which logged canonical re-encodings of JSON
//!   requests. It holds two sessions fed by sequenced JSON ingests (one
//!   of them rejected) and binary frames, plus a session poisoned by the
//!   `boom` failpoint. `data/wal_4a5fca9.json` stores the estimate
//!   responses that server returned; recovery must reproduce them byte
//!   for byte.
//! - Live WAL frames must equal what the client sent, minus the newline.
//! - JSON lines are read with lossy UTF-8 decoding and trimmed, both live
//!   and on replay, so padded lines with invalid bytes replay exactly.
//! - A request whose canonical re-encoding would overflow a WAL frame
//!   costs nothing extra: it is logged as sent, and its shard keeps
//!   serving.

use ddn_serve::engine::Engine;
use ddn_serve::snapshot::wal_path;
use ddn_serve::wal::{read_wal, MAX_FRAME_BYTES};
use ddn_serve::{frame, serve, Count, Request, ServeConfig, ShardDurability};
use ddn_stats::Json;
use ddn_trace::{Context, ContextSchema, Decision, DecisionSpace, TraceRecord};
use std::collections::HashSet;
use std::fs;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

const PARENT_WAL: &[u8] = include_bytes!("data/wal_4a5fca9.wal");
const PARENT_ESTIMATES: &str = include_str!("data/wal_4a5fca9.json");

fn test_dir(name: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ddn-wal-contract-{name}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn durable(dir: &Path, max_line_bytes: usize) -> ServeConfig {
    ServeConfig {
        shards: 1,
        max_line_bytes,
        data_dir: Some(dir.to_path_buf()),
        snapshot_every: 1_000_000, // every frame stays in the WAL
        ..ServeConfig::default()
    }
}

/// A raw connection that writes exact bytes and reads response lines.
struct Raw {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Raw {
    fn connect(addr: &str) -> Self {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Self { stream, reader }
    }

    /// Sends `bytes` as they are and returns the response, its text kept
    /// verbatim for byte-for-byte comparisons.
    fn send(&mut self, bytes: &[u8]) -> String {
        self.stream.write_all(bytes).unwrap();
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .expect("server must answer");
        line
    }

    fn ok(&mut self, bytes: &[u8]) -> Json {
        let resp = Json::parse(self.send(bytes).trim()).unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
        resp
    }
}

fn line(text: &str) -> Vec<u8> {
    format!("{text}\n").into_bytes()
}

fn schema() -> ContextSchema {
    ContextSchema::builder().categorical("g", 2).build()
}

fn space() -> DecisionSpace {
    DecisionSpace::of(&["a", "b"])
}

fn init_line(session: &str) -> String {
    format!(
        r#"{{"verb":"init","session":"{session}","schema":{},"space":{},"estimators":["ips","snips","dr"],"policy":{{"kind":"constant","decision":"b"}},"model_value":0.3}}"#,
        schema().to_json(),
        space().to_json(),
    )
}

fn records(n: usize) -> Vec<TraceRecord> {
    (0..n)
        .map(|i| {
            let c = Context::build(&schema())
                .set_cat("g", (i % 2) as u32)
                .finish();
            TraceRecord::new(c, Decision::from_index(i % 3 % 2), 1.0 / (i + 3) as f64)
                .with_propensity(if i % 3 % 2 == 0 { 0.75 } else { 0.25 })
        })
        .collect()
}

fn record_array(records: &[TraceRecord]) -> String {
    let items: Vec<String> = records.iter().map(|r| r.to_json().to_string()).collect();
    format!("[{}]", items.join(", "))
}

#[test]
fn a_wal_written_by_the_parent_replays_to_its_estimates() {
    let fixture = Json::parse(PARENT_ESTIMATES.trim()).unwrap();
    let failpoint = fixture.get("failpoint").and_then(Json::as_str);
    let dir = test_dir("parent");
    fs::create_dir_all(&dir).unwrap();
    fs::write(wal_path(&dir, 0), PARENT_WAL).unwrap();

    let (mut engine, mut poisoned) = (Engine::new(), HashSet::new());
    let (_durability, report) =
        ShardDurability::open(&dir, 0, 1_000_000, failpoint, &mut engine, &mut poisoned).unwrap();
    assert_eq!(report.truncated_frames, 0);
    assert_eq!(
        Some(report.frames_replayed),
        fixture.get("frames").and_then(Json::as_u64)
    );
    assert!(poisoned.contains("boom"), "{poisoned:?}");

    let estimates = fixture.get("estimates").and_then(Json::as_object).unwrap();
    assert_eq!(estimates.len(), 3);
    for (session, want) in estimates {
        let req = Request::Estimate {
            session: session.clone(),
        };
        let (got, _) = engine.apply(req, &mut poisoned, failpoint, || Ok(()));
        assert_eq!(got.to_string(), want.to_string(), "session {session}");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn wal_frames_hold_the_bytes_the_client_sent() {
    let dir = test_dir("verbatim");
    let handle = serve(&durable(&dir, 1 << 20)).unwrap();
    let mut conn = Raw::connect(&handle.local_addr().to_string());
    let recs = records(10);

    // Spacing and field order a canonical re-encoding would not keep.
    let init = init_line("v");
    let ingest = format!(
        r#"{{ "seq": 0, "verb": "ingest", "records": {}, "session": "v", "id": "j-1" }}"#,
        record_array(&recs[..6])
    );
    let binary = frame::encode("v", &recs[6..], Some(1), Some(7)).unwrap();
    conn.ok(&line(&init));
    conn.ok(&line(&ingest));
    let resp = conn.ok(&binary);
    assert_eq!(resp.get("total").and_then(Json::as_i64), Some(10));
    conn.ok(&line(r#"{"verb":"estimate","session":"v"}"#));
    handle.shutdown();

    let wal = read_wal(&wal_path(&dir, 0)).unwrap();
    assert_eq!(wal.truncated, 0);
    let payloads: Vec<&[u8]> = wal.frames.iter().map(|f| f.payload.as_slice()).collect();
    // The estimate is never logged.
    assert_eq!(
        payloads,
        vec![init.as_bytes(), ingest.as_bytes(), binary.as_slice()]
    );
    let _ = fs::remove_dir_all(&dir);
}

/// `template` with its `SESSION` placeholder replaced by raw bytes.
fn with_session(template: &str, session: &[u8]) -> Vec<u8> {
    let (head, tail) = template.split_once("SESSION").unwrap();
    [head.as_bytes(), session, tail.as_bytes()].concat()
}

#[test]
fn padded_lines_with_invalid_utf8_replay_bit_identically() {
    let dir = test_dir("lossy");
    // 0xFF is never valid UTF-8; both ends read it as U+FFFD.
    let session = b"s\xFFu";
    let init = [
        b"  \t",
        &with_session(&init_line("SESSION"), session)[..],
        b" \r\n",
    ]
    .concat();
    let ingest = with_session(
        &format!(
            r#"{{"verb":"ingest","session":"SESSION","records":{},"seq":0}}"#,
            record_array(&records(9))
        ),
        session,
    );
    let ingest = [b"\t", &ingest[..], b"  \n"].concat();
    let estimate = with_session("{\"verb\":\"estimate\",\"session\":\"SESSION\"}\n", session);

    let before = {
        let handle = serve(&durable(&dir, 1 << 20)).unwrap();
        let mut conn = Raw::connect(&handle.local_addr().to_string());
        conn.ok(&init);
        let resp = conn.ok(&ingest);
        assert_eq!(resp.get("total").and_then(Json::as_i64), Some(9));
        let est = conn.send(&estimate);
        handle.shutdown();
        est
    };
    let after = {
        let handle = serve(&durable(&dir, 1 << 20)).unwrap();
        assert_eq!(handle.stats().get(Count::RecoverFramesReplayed), 2);
        let mut conn = Raw::connect(&handle.local_addr().to_string());
        let est = conn.send(&estimate);
        handle.shutdown();
        est
    };
    assert!(before.contains(r#""n":9"#), "{before}");
    assert_eq!(before, after);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_line_whose_reencoding_overflows_a_wal_frame_keeps_its_shard() {
    // 1e308 prints as 309 digits, so re-encoding this 1.5 MiB line
    // (which fits the 2 MiB line cap) would build a payload past the
    // 64 MiB WAL frame cap. Logged as sent, it is an ordinary frame.
    const FEATURES: usize = 100;
    const RECORDS: usize = 2_400;
    let dir = test_dir("huge");
    let handle = serve(&durable(&dir, 2 << 20)).unwrap();
    let mut conn = Raw::connect(&handle.local_addr().to_string());
    let mut builder = ContextSchema::builder();
    for f in 0..FEATURES {
        builder = builder.numeric(&format!("x{f}"));
    }
    let init = format!(
        r#"{{"verb":"init","session":"huge","schema":{},"space":{},"estimators":["ips"],"policy":{{"kind":"constant","decision":"b"}}}}"#,
        builder.build().to_json(),
        space().to_json(),
    );
    conn.ok(&line(&init));
    let values = vec!["1e308"; FEATURES].join(",");
    let record = format!(
        r#"{{"context":{{"values":[{values}]}},"decision":0,"reward":1.0,"propensity":0.5}}"#
    );
    let ingest = format!(
        r#"{{"verb":"ingest","session":"huge","records":[{}],"seq":0}}"#,
        vec![record; RECORDS].join(",")
    );
    assert!(ingest.len() > 3 << 19 && ingest.len() < 2 << 20);
    let digits = Json::Num(1e308).to_string().len();
    assert!(
        RECORDS * FEATURES * digits > MAX_FRAME_BYTES,
        "re-encoding must overflow"
    );
    let resp = conn.ok(&line(&ingest));
    assert_eq!(
        resp.get("accepted").and_then(Json::as_i64),
        Some(RECORDS as i64)
    );

    // The same shard still answers.
    let est = conn.ok(&line(r#"{"verb":"estimate","session":"huge"}"#));
    assert_eq!(est.get("n").and_then(Json::as_i64), Some(RECORDS as i64));
    handle.shutdown();
    let frames = read_wal(&wal_path(&dir, 0)).unwrap().frames;
    assert_eq!(frames.last().unwrap().payload, ingest.as_bytes());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn serve_refuses_invalid_configs_instead_of_panicking() {
    let dir = test_dir("config");
    for config in [
        ServeConfig {
            shards: 0,
            ..ServeConfig::default()
        },
        ServeConfig {
            max_line_bytes: 0,
            ..ServeConfig::default()
        },
        // A line this long could not be logged as one WAL frame.
        ServeConfig {
            max_line_bytes: MAX_FRAME_BYTES + 1,
            ..ServeConfig::default()
        },
        ServeConfig {
            snapshot_every: 0,
            ..durable(&dir, 1 << 20)
        },
    ] {
        let err = serve(&config)
            .err()
            .unwrap_or_else(|| panic!("{config:?} was accepted"));
        assert_eq!(err.kind(), ErrorKind::InvalidInput, "{config:?}: {err}");
    }
    // The cap itself is fine.
    let handle = serve(&ServeConfig {
        max_line_bytes: MAX_FRAME_BYTES,
        ..ServeConfig::default()
    })
    .unwrap();
    handle.shutdown();
    let _ = fs::remove_dir_all(&dir);
}
