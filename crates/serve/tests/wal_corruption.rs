//! Corruption suite: what recovery does when the bytes on disk lie.
//!
//! The contract under test (DESIGN.md §12): recovery restores the
//! **longest valid prefix** of the log — a torn tail, a flipped byte, or
//! an empty file must never crash startup, never resurrect garbage, and
//! never lose an acknowledged frame *before* the corruption point. The
//! `serve.recover.truncated_frames` counter pins exactly what was
//! discarded. Two golden tests pin the on-disk byte layout itself, so an
//! accidental format change fails loudly instead of silently orphaning
//! every existing data directory.

use ddn_serve::engine::Engine;
use ddn_serve::protocol::DEFAULT_MAX_WEIGHT;
use ddn_serve::snapshot::{snapshot_path, wal_path, SNAPSHOT_MAGIC};
use ddn_serve::wal::{encode_frame, fnv1a, read_wal, FRAME_HEADER_BYTES, WAL_MAGIC};
use ddn_serve::{serve, Count, Request, ServeClient, ServeConfig, ServerHandle, ShardDurability};
use ddn_stats::rng::{Rng, Xoshiro256};
use ddn_stats::Json;
use ddn_trace::{Context, ContextSchema, Decision, DecisionSpace, TraceRecord};
use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

const MODEL_VALUE: f64 = 2.5;

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

fn test_dir(name: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ddn-wal-corruption-{name}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

// ---- byte-layout goldens --------------------------------------------------

#[test]
fn golden_wal_frame_byte_layout() {
    // The exact bytes of frame id=1 carrying `{"verb":"noop"}`. Pinned
    // down to the FNV-1a checksum value: changing any of magic, header
    // field order/width/endianness, or the checksum input breaks this
    // test — which is the point, because it also breaks every WAL on
    // disk.
    let payload = br#"{"verb":"noop"}"#;
    let frame = encode_frame(1, payload);
    assert_eq!(WAL_MAGIC, b"DDNWAL01");
    assert_eq!(FRAME_HEADER_BYTES, 20);
    let mut want = Vec::new();
    want.extend_from_slice(&15u32.to_le_bytes()); // payload length
    want.extend_from_slice(&1u64.to_le_bytes()); // frame id
    want.extend_from_slice(&0x69af_5469_88a0_86a3u64.to_le_bytes()); // crc
    want.extend_from_slice(payload);
    assert_eq!(frame, want);
    // The checksum covers (id ‖ payload), so a frame misfiled under a
    // different id fails validation even with an intact payload.
    assert_eq!(
        fnv1a(&[&1u64.to_le_bytes()[..], payload].concat()),
        0x69af_5469_88a0_86a3
    );
}

#[test]
fn golden_snapshot_byte_layout() {
    // A snapshot is magic ‖ len(u32 LE) ‖ crc(u64 LE) ‖ payload, with the
    // checksum over the payload alone.
    let dir = test_dir("golden-snap");
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("golden.snap");
    ddn_serve::write_snapshot(&path, &Json::object(vec![("version", Json::Int(1))])).unwrap();
    let bytes = fs::read(&path).unwrap();
    let mut want = Vec::new();
    want.extend_from_slice(SNAPSHOT_MAGIC);
    assert_eq!(SNAPSHOT_MAGIC, b"DDNSNAP1");
    want.extend_from_slice(&13u32.to_le_bytes()); // payload length
    want.extend_from_slice(&0x07eb_e02b_9b5e_69f2u64.to_le_bytes()); // crc
    want.extend_from_slice(br#"{"version":1}"#);
    assert_eq!(bytes, want);
    assert_eq!(
        ddn_serve::read_snapshot(&path),
        Some(Json::object(vec![("version", Json::Int(1))]))
    );
    let _ = fs::remove_dir_all(&dir);
}

// ---- end-to-end corruption scenarios --------------------------------------

/// Boots a durable single-shard server on `dir`, ingests `batches`
/// sequenced batches into session `"c"`, and shuts down — leaving every
/// frame in the WAL (the huge snapshot interval prevents rotation).
fn build_log(dir: &Path, batches: &[&[TraceRecord]]) {
    let handle = serve(&ServeConfig {
        shards: 1,
        data_dir: Some(dir.to_path_buf()),
        snapshot_every: 1_000_000,
        ..ServeConfig::default()
    })
    .expect("bind");
    let mut client = ServeClient::connect(&handle.local_addr().to_string()).unwrap();
    client
        .init(
            "c",
            &schema(),
            &space(),
            &["ips", "dm"],
            "b",
            MODEL_VALUE,
            None,
        )
        .unwrap();
    for batch in batches {
        let resp = client.ingest("c", batch).unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
    }
    handle.shutdown();
}

/// Restarts the server on `dir` and returns (handle, fresh client).
fn reopen(dir: &Path) -> (ServerHandle, ServeClient) {
    let handle = serve(&ServeConfig {
        shards: 1,
        data_dir: Some(dir.to_path_buf()),
        snapshot_every: 1_000_000,
        ..ServeConfig::default()
    })
    .expect("rebind");
    let client = ServeClient::connect(&handle.local_addr().to_string()).unwrap();
    (handle, client)
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

/// The reference estimate for session `"c"` after exactly `batches`.
fn reference_estimate(batches: &[&[TraceRecord]]) -> Json {
    let mut engine = Engine::default();
    let line = Json::object(vec![
        ("verb", Json::str("init")),
        ("session", Json::str("c")),
        ("schema", schema().to_json()),
        ("space", space().to_json()),
        (
            "estimators",
            Json::Array(vec![Json::str("ips"), Json::str("dm")]),
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
    ])
    .to_string();
    let Ok(Request::Init(spec)) = Request::parse(&line) else {
        panic!("bad reference init");
    };
    engine.handle_init(spec);
    for (seq, batch) in batches.iter().enumerate() {
        let resp = engine.handle_ingest("c", batch, Some(seq as u64));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
    }
    engine.handle_estimate("c")
}

/// Byte offset where frame `index` (0-based) starts in the WAL file.
fn frame_offset(path: &Path, index: usize) -> u64 {
    let wal = read_wal(path).unwrap();
    assert!(wal.frames.len() > index, "only {} frames", wal.frames.len());
    let mut off = WAL_MAGIC.len() as u64;
    for frame in &wal.frames[..index] {
        off += (FRAME_HEADER_BYTES + frame.payload.len()) as u64;
    }
    off
}

#[test]
fn a_truncated_tail_frame_recovers_the_longest_valid_prefix() {
    let dir = test_dir("truncate");
    let recs = records(48, 21);
    let batches: Vec<&[TraceRecord]> = recs.chunks(12).collect();
    build_log(&dir, &batches);

    // Cut the file mid-way through the last frame's payload: exactly the
    // bytes a power cut mid-append leaves behind.
    let wal = wal_path(&dir, 0);
    let last_start = frame_offset(&wal, batches.len()); // frame 0 is the init
    let len = fs::metadata(&wal).unwrap().len();
    let f = fs::OpenOptions::new().write(true).open(&wal).unwrap();
    f.set_len(last_start + (len - last_start) / 2).unwrap();
    drop(f);

    let (handle, mut client) = reopen(&dir);
    assert_eq!(handle.stats().get(Count::RecoverTruncatedFrames), 1);
    assert_eq!(
        handle.stats().get(Count::RecoverFramesReplayed),
        batches.len() as u64, // init + all batches but the cut one
    );
    let est = strip_id(&client.estimate("c").unwrap());
    assert_eq!(
        est.to_string(),
        reference_estimate(&batches[..batches.len() - 1]).to_string(),
        "recovered state must be the acked prefix, nothing more or less"
    );
    handle.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_flipped_checksum_byte_drops_only_the_corrupt_tail_frame() {
    let dir = test_dir("bitflip");
    let recs = records(48, 22);
    let batches: Vec<&[TraceRecord]> = recs.chunks(12).collect();
    build_log(&dir, &batches);

    // Flip one bit in the last frame's payload; its checksum no longer
    // matches, so recovery must stop right before it.
    let wal = wal_path(&dir, 0);
    let mut bytes = fs::read(&wal).unwrap();
    let last_start = frame_offset(&wal, batches.len()) as usize;
    let victim = last_start + FRAME_HEADER_BYTES + 5;
    bytes[victim] ^= 0x01;
    fs::write(&wal, &bytes).unwrap();

    let (handle, mut client) = reopen(&dir);
    assert_eq!(handle.stats().get(Count::RecoverTruncatedFrames), 1);
    let est = strip_id(&client.estimate("c").unwrap());
    assert_eq!(
        est.to_string(),
        reference_estimate(&batches[..batches.len() - 1]).to_string()
    );
    handle.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corruption_in_the_middle_cuts_the_log_there() {
    // Prefix semantics, not frame-skipping: a bad frame in the middle
    // invalidates everything after it (frame ids and session sequences
    // would no longer be trustworthy).
    let dir = test_dir("middle");
    let recs = records(48, 23);
    let batches: Vec<&[TraceRecord]> = recs.chunks(12).collect();
    build_log(&dir, &batches);

    let wal = wal_path(&dir, 0);
    let mut bytes = fs::read(&wal).unwrap();
    // Corrupt frame 2 = the *second* ingest batch (frame 1 is the init).
    let start = frame_offset(&wal, 2) as usize;
    bytes[start + FRAME_HEADER_BYTES] ^= 0xFF;
    fs::write(&wal, &bytes).unwrap();

    let (handle, mut client) = reopen(&dir);
    assert!(handle.stats().get(Count::RecoverTruncatedFrames) >= 1);
    assert_eq!(
        handle.stats().get(Count::RecoverFramesReplayed),
        2, // init + first batch only
    );
    let est = strip_id(&client.estimate("c").unwrap());
    assert_eq!(
        est.to_string(),
        reference_estimate(&batches[..1]).to_string()
    );
    handle.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_zero_length_wal_is_a_clean_empty_log_not_corruption() {
    let dir = test_dir("empty");
    build_log(&dir, &[&records(12, 24)]);
    let wal = wal_path(&dir, 0);
    fs::OpenOptions::new()
        .write(true)
        .open(&wal)
        .unwrap()
        .set_len(0)
        .unwrap();
    // The stale self-heal snapshot from the first boot covers nothing,
    // so with the WAL gone the server comes back empty — but *cleanly*:
    // a zero-length file is what a crash right after rotation leaves and
    // counts no truncated frames.
    let (handle, mut client) = reopen(&dir);
    assert_eq!(handle.stats().get(Count::RecoverTruncatedFrames), 0);
    assert_eq!(handle.stats().get(Count::RecoverFramesReplayed), 0);
    assert_eq!(handle.stats().get(Count::RecoverSessions), 0);
    let err = client.estimate("c").expect_err("session cannot exist");
    assert!(format!("{err}").contains("unknown session"), "{err}");
    handle.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_fresh_snapshot_with_an_older_wal_replays_nothing_twice() {
    // The crash window recovery itself leaves open: self-heal writes the
    // new snapshot, then rotates the WAL. A kill between the two leaves
    // a snapshot that already covers every frame id in the (old) WAL.
    // Those frames must replay as no-ops, not double-ingest.
    let dir = test_dir("overlap");
    let recs = records(36, 25);
    let batches: Vec<&[TraceRecord]> = recs.chunks(12).collect();
    build_log(&dir, &batches);
    let wal = wal_path(&dir, 0);
    let old_wal_bytes = fs::read(&wal).unwrap();

    // Run recovery once directly: it restores the state, writes a fresh
    // snapshot, and rotates the WAL...
    let mut engine = Engine::default();
    let mut poisoned = HashSet::new();
    let (d, report) =
        ShardDurability::open(&dir, 0, 1_000_000, None, &mut engine, &mut poisoned).unwrap();
    drop(d);
    assert_eq!(report.frames_replayed, 1 + batches.len() as u64);
    // ...then "crash" before the rotation reaches disk by putting the
    // old WAL back next to the new snapshot.
    fs::write(&wal, &old_wal_bytes).unwrap();

    let (handle, mut client) = reopen(&dir);
    assert_eq!(
        handle.stats().get(Count::RecoverFramesReplayed),
        0,
        "every old frame id is covered by the snapshot"
    );
    assert_eq!(handle.stats().get(Count::RecoverSessions), 1);
    let est = strip_id(&client.estimate("c").unwrap());
    assert_eq!(est.to_string(), reference_estimate(&batches).to_string());
    handle.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupt_snapshot_falls_back_to_wal_replay() {
    // Flip a byte inside the snapshot body: the checksum fails, recovery
    // trusts none of it, and the state comes back from the WAL alone
    // (which here still holds every frame).
    let dir = test_dir("badsnap");
    let recs = records(36, 26);
    let batches: Vec<&[TraceRecord]> = recs.chunks(12).collect();
    build_log(&dir, &batches);

    let snap = snapshot_path(&dir, 0);
    let mut bytes = fs::read(&snap).unwrap();
    let mid = bytes.len() - 3;
    bytes[mid] ^= 0x10;
    fs::write(&snap, &bytes).unwrap();

    let (handle, mut client) = reopen(&dir);
    assert_eq!(
        handle.stats().get(Count::RecoverSessions),
        0,
        "snapshot rejected"
    );
    assert_eq!(
        handle.stats().get(Count::RecoverFramesReplayed),
        1 + batches.len() as u64,
        "full WAL replay"
    );
    let est = strip_id(&client.estimate("c").unwrap());
    assert_eq!(est.to_string(), reference_estimate(&batches).to_string());
    handle.shutdown();
    let _ = fs::remove_dir_all(&dir);
}
