//! Protocol-robustness fuzz: arbitrary byte junk, truncated JSON lines,
//! and oversized lines must fail the *request* — never the connection,
//! never the server. Binary frames get the same treatment: lying headers,
//! forged crcs and truncated bodies fail the request; an unframeable
//! length fails it and closes the connection; and the one request
//! decoder never panics on any bytes at all.

use ddn_serve::wal::{fnv1a, MAX_FRAME_BYTES};
use ddn_serve::{frame, serve, Count, Request, ServeConfig, ServerHandle, FRAME_MAGIC};
use ddn_stats::Json;
use ddn_testkit::{prop, prop_assert, prop_assert_eq, vecs};
use ddn_trace::{Context, ContextSchema, Decision, DecisionSpace, TraceRecord};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

fn start(max_line_bytes: usize) -> (ServerHandle, String) {
    let handle = serve(&ServeConfig {
        shards: 1,
        max_line_bytes,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = handle.local_addr().to_string();
    (handle, addr)
}

/// A raw connection with a response-line reader; the read timeout keeps
/// a wrong "server never answered" failure fast instead of hanging.
fn raw_conn(addr: &str) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Json {
    let mut line = String::new();
    reader.read_line(&mut line).expect("server must answer");
    Json::parse(line.trim()).expect("server answers valid JSON")
}

fn schema() -> ContextSchema {
    ContextSchema::builder().categorical("g", 2).build()
}

fn space() -> DecisionSpace {
    DecisionSpace::of(&["a", "b"])
}

fn init_line(session: &str) -> String {
    format!(
        r#"{{"verb":"init","session":{},"schema":{},"space":{},"estimators":["ips"],"policy":{{"kind":"constant","decision":"b"}}}}"#,
        Json::str(session),
        schema().to_json(),
        space().to_json(),
    )
}

fn ingest_line(session: &str, n: usize) -> String {
    let recs: Vec<String> = (0..n)
        .map(|i| {
            let c = Context::build(&schema())
                .set_cat("g", (i % 2) as u32)
                .finish();
            TraceRecord::new(c, Decision::from_index(i % 2), 1.0 + i as f64)
                .with_propensity(0.5)
                .to_json()
                .to_string()
        })
        .collect();
    format!(
        r#"{{"verb":"ingest","session":{},"records":[{}]}}"#,
        Json::str(session),
        recs.join(",")
    )
}

/// Checks the connection is still alive and fully functional by running
/// a real request over it.
fn assert_conn_usable(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, session: &str) {
    writeln!(stream, "{}", init_line(session)).unwrap();
    let resp = read_response(reader);
    assert_eq!(
        resp.get("ok"),
        Some(&Json::Bool(true)),
        "connection no longer usable: {resp:?}"
    );
}

prop! {
    /// Arbitrary bytes (any value but the line terminator, so one "line"
    /// arrives; invalid UTF-8 included) get an error response on a live
    /// connection.
    fn byte_junk_fails_the_request_not_the_connection(
        junk in vecs(0u32..256, 1..120),
    ) {
        let (handle, addr) = start(1 << 20);
        let (mut stream, mut reader) = raw_conn(&addr);
        // Keep it one line (no '\n'), and non-blank (leading 'x') so the
        // server replies rather than skipping an empty line.
        let mut bytes: Vec<u8> = junk.iter().map(|&b| b as u8).collect();
        for b in &mut bytes {
            if *b == b'\n' {
                *b = b'?';
            }
        }
        let mut line = vec![b'x'];
        line.extend_from_slice(&bytes);
        line.push(b'\n');
        stream.write_all(&line).unwrap();

        let resp = read_response(&mut reader);
        prop_assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        prop_assert!(
            resp.get("error").and_then(Json::as_str).is_some(),
            "error responses carry a message: {:?}",
            resp
        );
        assert_conn_usable(&mut stream, &mut reader, "after-junk");
        handle.shutdown();
    }

    /// Any strict prefix of a valid ingest line is invalid JSON: the
    /// request fails, the session state is untouched, and the full line
    /// still works on the same connection afterwards.
    fn truncated_json_lines_fail_cleanly(
        cut_permille in 1u32..999,
        n_records in 1usize..6,
    ) {
        let (handle, addr) = start(1 << 20);
        let (mut stream, mut reader) = raw_conn(&addr);
        writeln!(stream, "{}", init_line("trunc")).unwrap();
        prop_assert_eq!(read_response(&mut reader).get("ok"), Some(&Json::Bool(true)));

        let full = ingest_line("trunc", n_records);
        let cut = (full.len() * cut_permille as usize / 1000).clamp(1, full.len() - 1);
        stream.write_all(&full.as_bytes()[..cut]).unwrap();
        stream.write_all(b"\n").unwrap();
        let resp = read_response(&mut reader);
        prop_assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));

        // The same connection still ingests the intact line, and the
        // truncated garbage contributed zero records.
        writeln!(stream, "{}", full).unwrap();
        let resp = read_response(&mut reader);
        prop_assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        prop_assert_eq!(
            resp.get("total").and_then(Json::as_i64),
            Some(n_records as i64)
        );
        handle.shutdown();
    }

    /// Lines beyond the configured cap are discarded without buffering
    /// them: the request errors, the connection survives, and the next
    /// request parses fine.
    fn oversized_lines_are_rejected_without_killing_the_connection(
        extra in 1usize..4096,
    ) {
        let cap = 256;
        let (handle, addr) = start(cap);
        let (mut stream, mut reader) = raw_conn(&addr);

        let big = vec![b'a'; cap + extra];
        stream.write_all(&big).unwrap();
        stream.write_all(b"\n").unwrap();
        let resp = read_response(&mut reader);
        prop_assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        let msg = resp.get("error").and_then(Json::as_str).unwrap_or("");
        prop_assert!(
            msg.contains("exceeds"),
            "expected an oversized-line error, got {:?}",
            resp
        );
        prop_assert!(handle.stats().get(Count::FaultConnErrors) >= 1);
        assert_conn_usable(&mut stream, &mut reader, "after-oversized");
        handle.shutdown();
    }
}

#[test]
fn an_oversized_init_line_is_survivable_even_when_valid_json() {
    // The cap applies before parsing: a *valid* request that is simply
    // too long is rejected by size, proving the reader never buffers
    // unbounded lines.
    let (handle, addr) = start(64);
    let (mut stream, mut reader) = raw_conn(&addr);
    let line = init_line("way-too-long-for-this-cap");
    assert!(line.len() > 64);
    writeln!(stream, "{line}").unwrap();
    let resp = read_response(&mut reader);
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
    assert!(resp
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("exceeds"));
    handle.shutdown();
}

#[test]
fn malformed_init_schemas_fail_the_request_not_the_workers() {
    // A categorical feature with no levels or a repeated feature name
    // must fail only its init: a worker decodes requests outside every
    // panic guard, so each such init that panicked would take a worker
    // with it, and `shards + 1` of them would leave none to answer.
    let shards = 2;
    let handle = serve(&ServeConfig {
        shards,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = handle.local_addr().to_string();
    let schemas = [
        r#"{"inner":{"names":["g"],"kinds":[{"Categorical":{"cardinality":0}}]}}"#,
        r#"{"inner":{"names":["g","g"],"kinds":["Numeric","Numeric"]}}"#,
    ];
    for i in 0..=shards {
        let (mut stream, mut reader) = raw_conn(&addr);
        let schema = schemas[i % schemas.len()];
        let space = space().to_json();
        writeln!(
            stream,
            r#"{{"verb":"init","session":"bad{i}","schema":{schema},"space":{space}}}"#
        )
        .unwrap();
        let resp = read_response(&mut reader);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{resp:?}");
    }
    let (mut stream, mut reader) = raw_conn(&addr);
    let estimate = r#"{"verb":"estimate","session":"good"}"#.to_string();
    for line in [init_line("good"), ingest_line("good", 4), estimate] {
        writeln!(stream, "{line}").unwrap();
        let resp = read_response(&mut reader);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{line}: {resp:?}");
    }
    handle.shutdown();
}

// ---- binary frames --------------------------------------------------------

/// Byte offsets of the header fields a lying frame corrupts (the body
/// starts after the 4-byte magic and the 4-byte body length).
const FLAGS_AT: usize = 8;
const SESSION_LEN_AT: usize = 10;
const N_ROWS_AT: usize = 12;
const N_FEATURES_AT: usize = 16;
const KIND_AT: usize = 18;

/// A valid frame of `rows` records for `session` (sequence 0, id 9,
/// propensity column present).
fn valid_frame(session: &str, rows: usize) -> Vec<u8> {
    let recs: Vec<TraceRecord> = (0..rows)
        .map(|i| {
            let c = Context::build(&schema())
                .set_cat("g", (i % 2) as u32)
                .finish();
            TraceRecord::new(c, Decision::from_index(i % 2), 1.0 + i as f64).with_propensity(0.5)
        })
        .collect();
    frame::encode(session, &recs, Some(0), Some(9)).unwrap()
}

/// Rewrites the frame's body length and, when `crc` is set, recomputes
/// its crc with the same FNV-1a the server checks — a forged frame that
/// passes the checksum.
fn reseal(frame: &mut [u8], crc: bool) {
    let body_len = frame.len() - 16;
    frame[4..8].copy_from_slice(&(body_len as u32).to_le_bytes());
    if crc {
        let sum = fnv1a(&frame[8..8 + body_len]);
        frame[8 + body_len..].copy_from_slice(&sum.to_le_bytes());
    }
}

fn xor_u16(frame: &mut [u8], at: usize, mask: u32) {
    let v = u16::from_le_bytes([frame[at], frame[at + 1]]) ^ mask as u16;
    frame[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

/// Sends a valid init then a valid frame on a connection and requires
/// both to succeed: the server still serves binary ingest.
fn assert_binary_usable(addr: &str, session: &str) {
    let (mut stream, mut reader) = raw_conn(addr);
    writeln!(stream, "{}", init_line(session)).unwrap();
    assert_eq!(
        read_response(&mut reader).get("ok"),
        Some(&Json::Bool(true))
    );
    stream.write_all(&valid_frame(session, 3)).unwrap();
    let resp = read_response(&mut reader);
    assert_eq!(
        resp.get("total").and_then(Json::as_i64),
        Some(3),
        "{resp:?}"
    );
}

prop! {
    /// Every lie a frame's header can tell — toggled optional-column
    /// flags, lying session/row/column counts, an unknown column kind, a
    /// truncated body — with or without a crc forged to pass, gets a
    /// `bad frame` error on a live connection. The same connection and a
    /// fresh one keep serving binary ingest.
    fn lying_binary_frames_fail_the_request_not_the_server(
        rows in 1usize..6,
        lie in 0usize..6,
        mask in 1u32..65_536,
        forge_crc in 0u32..2,
    ) {
        let (handle, addr) = start(1 << 20);
        let (mut stream, mut reader) = raw_conn(&addr);
        writeln!(stream, "{}", init_line("fz")).unwrap();
        prop_assert_eq!(read_response(&mut reader).get("ok"), Some(&Json::Bool(true)));

        let mut bad = valid_frame("fz", rows);
        match lie {
            // A nonempty subset of the five known flag bits.
            0 => xor_u16(&mut bad, FLAGS_AT, mask % 31 + 1),
            1 => xor_u16(&mut bad, SESSION_LEN_AT, mask),
            2 => {
                let n = u32::from_le_bytes(bad[N_ROWS_AT..N_ROWS_AT + 4].try_into().unwrap());
                bad[N_ROWS_AT..N_ROWS_AT + 4].copy_from_slice(&(n ^ mask).to_le_bytes());
            }
            3 => xor_u16(&mut bad, N_FEATURES_AT, mask),
            4 => bad[KIND_AT] = 2 + (mask % 254) as u8,
            _ => {
                let body = bad.len() - 16;
                let cut = mask as usize % body + 1;
                bad.drain(8 + body - cut..8 + body);
            }
        }
        reseal(&mut bad, forge_crc == 1);
        stream.write_all(&bad).unwrap();
        let resp = read_response(&mut reader);
        prop_assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        let msg = resp.get("error").and_then(Json::as_str).unwrap_or("");
        prop_assert!(msg.starts_with("bad frame: "), "{:?}", resp);

        // Nothing was applied, and the connection still frames requests.
        stream.write_all(&valid_frame("fz", rows)).unwrap();
        let resp = read_response(&mut reader);
        prop_assert_eq!(resp.get("total").and_then(Json::as_i64), Some(rows as i64));
        assert_binary_usable(&addr, "fresh");
        handle.shutdown();
    }

    /// A frame whose declared length exceeds the frame cap leaves the
    /// next request boundary unknowable: it gets an error and the
    /// connection is closed. A fresh connection is served.
    fn unframeable_binary_lengths_get_an_error_then_a_close(
        excess in 1u32..(u32::MAX - MAX_FRAME_BYTES as u32 + 16),
    ) {
        let (handle, addr) = start(1 << 20);
        let (mut stream, mut reader) = raw_conn(&addr);
        let body_len = (MAX_FRAME_BYTES as u32 - 16) + excess;
        stream.write_all(&FRAME_MAGIC).unwrap();
        stream.write_all(&body_len.to_le_bytes()).unwrap();
        stream.write_all(b"whatever follows").unwrap();
        let resp = read_response(&mut reader);
        prop_assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        let msg = resp.get("error").and_then(Json::as_str).unwrap_or("");
        prop_assert!(msg.contains("frame cap"), "{:?}", resp);
        let mut rest = String::new();
        prop_assert_eq!(reader.read_line(&mut rest).ok(), Some(0));
        assert_binary_usable(&addr, "fresh");
        handle.shutdown();
    }

    /// The one decoder never panics, whatever the bytes: raw junk (the
    /// JSON-line path), junk behind the frame magic, and valid frames
    /// with bytes overwritten and the crc forged to pass (deep in the
    /// column decoding). Frame-path failures are `bad frame` errors.
    fn the_request_decoder_never_panics(
        bytes in vecs(0u32..256, 0..64),
        at in 0usize..512,
        mode in 0u32..3,
    ) {
        let bytes: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        let payload = match mode {
            0 => bytes,
            1 => [&FRAME_MAGIC[..], &bytes].concat(),
            _ => {
                let mut f = valid_frame("fz", 4);
                let body = f.len() - 16;
                for (i, b) in bytes.iter().enumerate() {
                    f[8 + (at + i) % body] = *b;
                }
                reseal(&mut f, true);
                f
            }
        };
        let (req, _) = Request::decode(&payload);
        if mode > 0 {
            if let Err(e) = req {
                prop_assert!(e.starts_with("bad frame: "), "{}", e);
            }
        }
    }
}
