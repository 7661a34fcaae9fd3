//! Snapshot format v2: one binary ring per windowed session behind a
//! small JSON metadata block (see the `snapshot` module docs).
//!
//! - The v2 reader refuses hostile bytes — every truncation, rewritten
//!   block lengths and row counts, with every checksum recomputed so the
//!   structural checks themselves run — and never panics or allocates
//!   more than the input could carry, for any single bit flip too.
//! - A structurally corrupt v2 snapshot makes recovery fall back to WAL
//!   replay.
//! - A v1 data directory (the committed `snapshot_8aebbcb.json` state)
//!   upgrades to v2 in place, bit for bit; a v1 state whose windowed
//!   estimators disagree on their window is refused whole.
//! - The `serve.snapshot.bytes` counter and `write_ns` histograms book
//!   every snapshot a shard writes.

use ddn_serve::snapshot::{
    restore_snapshot, snapshot_path, wal_path, SNAPSHOT_MAGIC, SNAPSHOT_MAGIC_V2,
};
use ddn_serve::wal::fnv1a;
use ddn_serve::{serve, write_snapshot, Engine, Request, ServeClient, ServeConfig};
use ddn_serve::{ShardDurability, WalWriter};
use ddn_stats::Json;
use ddn_testkit::{prop, prop_assert, prop_assert_eq};
use ddn_trace::{Context, ContextSchema, Decision, DecisionSpace, TraceRecord};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

// ---- allocation accounting --------------------------------------------

/// The system allocator, noting the largest single request made on a
/// thread while that thread has armed [`LARGEST`].
struct Measured;

thread_local! {
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| {
        if let Some(max) = l.get() {
            l.set(Some(max.max(size)));
        }
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// `note` touches only a const-initialized thread-local `Cell` (no
// allocation, no destructor), so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for Measured {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Measured = Measured;

/// Room for an error message: refusing a 3-byte file still formats one.
const MESSAGE_SLACK: usize = 1024;

/// What [`restore`] returns: the outcome, the engine, the quarantine set,
/// and the largest single allocation the reader made.
type Restored = (Result<(usize, u64), String>, Engine, HashSet<String>, usize);

/// Restores `bytes` into a fresh engine.
fn restore(bytes: &[u8]) -> Restored {
    let mut engine = Engine::new();
    let mut poisoned = HashSet::new();
    LARGEST.with(|l| l.set(Some(0)));
    let out = restore_snapshot(bytes, &mut engine, &mut poisoned);
    let largest = LARGEST.with(|l| l.replace(None)).unwrap_or(0);
    (out, engine, poisoned, largest)
}

// ---- the snapshot under attack ----------------------------------------

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ddn-snapv2-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn schema() -> ContextSchema {
    ContextSchema::builder().categorical("g", 3).build()
}

fn record(i: usize, reward: f64) -> TraceRecord {
    let c = Context::build(&schema())
        .set_cat("g", (i % 3) as u32)
        .finish();
    let d = (i * 7 + 1) % 3;
    TraceRecord::new(c, Decision::from_index(d), reward).with_propensity([0.5, 0.25, 0.25][d])
}

fn init_line(session: &str, estimators: &str, extra: &str) -> String {
    format!(
        r#"{{"verb":"init","session":"{session}","schema":{},"space":{},"estimators":[{estimators}]{extra}}}"#,
        schema().to_json(),
        DecisionSpace::of(&["a", "b", "c"]).to_json(),
    )
}

/// The request lines that build the attacked state: a plain session
/// over the full menu (sequenced, so its dedup state is live) and a
/// windowed session mid-eviction whose rewards alternate `-0.0`/`0.0`.
fn requests() -> Vec<String> {
    let menu: Vec<TraceRecord> = (0..10).map(|i| record(i, 0.5 + i as f64 * 0.75)).collect();
    let win: Vec<TraceRecord> = (0..20)
        .map(|i| record(i, if i % 2 == 0 { -0.0 } else { 0.0 }))
        .collect();
    let ingest = |session: &str, recs: &[TraceRecord], seq| {
        ddn_serve::protocol::ingest_request_json(session, recs, seq).to_string()
    };
    vec![
        init_line(
            "menu",
            r#""dm","ips","snips","clipped","dr","adaptive","adaptive_dr","mdr","seqdr""#,
            r#","policy":{"kind":"uniform"},"model_value":1.1,"max_weight":3.0,"horizon":3,"embedding":[0,1,1]"#,
        ),
        init_line(
            "win",
            r#""ips","snips","dr""#,
            r#","policy":{"kind":"constant","decision":"c"},"window":8"#,
        ),
        ingest("menu", &menu[..6], Some(0)),
        ingest("menu", &menu[6..], Some(1)),
        ingest("win", &win[..13], None),
        ingest("win", &win[13..], None),
    ]
}

/// Opens a shard on `dir`, applies `lines` write-ahead, quarantines
/// `"ghost"`, and rotates: the shard's snapshot then covers every line.
/// Returns the engine it built.
fn build_shard(dir: &Path, lines: &[String]) -> Engine {
    let mut engine = Engine::new();
    let mut poisoned = HashSet::new();
    let (mut d, _) =
        ShardDurability::open(dir, 0, 1_000_000, None, &mut engine, &mut poisoned).unwrap();
    for line in lines {
        let req = Request::parse(line).unwrap();
        let (resp, _) = engine.apply(req, &mut poisoned, None, || {
            d.log_request(line.as_bytes()).map(|_| ())
        });
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    }
    poisoned.insert("ghost".to_string());
    d.snapshot_now(&engine, &poisoned).unwrap();
    engine
}

/// The valid v2 image every hostile case starts from.
fn good() -> &'static [u8] {
    static GOOD: OnceLock<Vec<u8>> = OnceLock::new();
    GOOD.get_or_init(|| {
        let dir = test_dir("good");
        build_shard(&dir, &requests());
        let bytes = fs::read(snapshot_path(&dir, 0)).unwrap();
        let _ = fs::remove_dir_all(&dir);
        assert!(bytes.starts_with(SNAPSHOT_MAGIC_V2));
        bytes
    })
}

/// Where the length-bearing fields of a v2 image sit.
#[derive(Default)]
struct Fields {
    /// Offset of each block's u64 length (metadata first, then each
    /// session's ring and coupling blocks).
    blocks: Vec<usize>,
    /// Offset and total size of each ring frame.
    frames: Vec<(usize, usize)>,
}

fn fields(bytes: &[u8]) -> Fields {
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let mut f = Fields::default();
    let mut at = 24;
    let mut index = 0;
    while at < bytes.len() {
        f.blocks.push(at);
        let len = u64_at(at);
        // Blocks after the metadata alternate ring, coupling.
        if index % 2 == 1 {
            let mut p = at + 8;
            while p < at + 8 + len {
                let body = u32::from_le_bytes(bytes[p + 4..p + 8].try_into().unwrap()) as usize;
                f.frames.push((p, body + 16));
                p += body + 16;
            }
        }
        at += 8 + len;
        index += 1;
    }
    assert_eq!(at, bytes.len());
    f
}

/// Recomputes every checksum an edit may have broken — each ring
/// frame's, where the frame still lies wholly inside `bytes`, then the
/// file's length and crc — so the reader's structural checks, not a crc,
/// must catch the edit.
fn reseal(bytes: &mut [u8], layout: &Fields) {
    for &(at, len) in &layout.frames {
        if at + len <= bytes.len() {
            let crc = fnv1a(&bytes[at + 8..at + len - 8]);
            bytes[at + len - 8..at + len].copy_from_slice(&crc.to_le_bytes());
        }
    }
    if bytes.len() >= 24 {
        let body_len = (bytes.len() - 24) as u64;
        let crc = fnv1a(&bytes[24..]);
        bytes[8..16].copy_from_slice(&body_len.to_le_bytes());
        bytes[16..24].copy_from_slice(&crc.to_le_bytes());
    }
}

#[test]
fn the_attacked_snapshot_restores_the_state_it_was_built_from() {
    let dir = test_dir("baseline");
    let mut engine = build_shard(&dir, &requests());
    let _ = fs::remove_dir_all(&dir);
    let (out, mut again, poisoned, largest) = restore(good());
    assert_eq!(out, Ok((2, requests().len() as u64)));
    assert_eq!(poisoned, HashSet::from(["ghost".to_string()]));
    assert!(largest <= good().len(), "{largest} > {}", good().len());
    assert_eq!(
        again.state_save().to_string(),
        engine.state_save().to_string()
    );
    for id in ["menu", "win"] {
        assert_eq!(
            again.handle_estimate(id).to_string(),
            engine.handle_estimate(id).to_string()
        );
    }
    let layout = fields(good());
    assert_eq!(layout.blocks.len(), 5, "metadata + (ring, coupling) × 2");
    assert_eq!(layout.frames.len(), 1, "the windowed session's ring");
}

#[test]
fn every_truncation_is_refused_without_over_allocating() {
    let good = good();
    let layout = fields(good);
    for len in 0..good.len() {
        let mut cut = good[..len].to_vec();
        reseal(&mut cut, &layout);
        let (out, engine, poisoned, largest) = restore(&cut);
        assert!(out.is_err(), "truncation to {len} bytes restored");
        assert_eq!(engine.sessions(), 0);
        assert!(poisoned.is_empty());
        assert!(largest <= len + MESSAGE_SLACK, "{len}: allocated {largest}");
    }
}

/// The values a rewritten length field takes.
fn lies(honest: u64, lie: usize) -> u64 {
    [
        0,
        honest.wrapping_sub(1),
        honest + 1,
        honest + 8,
        honest.wrapping_sub(8),
        honest / 2,
        honest * 2,
        u32::MAX as u64,
        u64::MAX,
        u64::MAX / 8,
    ][lie]
}

prop! {
    /// A single bit flip without a matching crc is always caught; with
    /// every crc recomputed it may still decode to some other valid
    /// state, but the reader never panics, never sizes an allocation
    /// beyond the input, and installs nothing unless the whole image
    /// restores — after which every session still answers `estimate`.
    fn a_bit_flip_never_panics_or_over_allocates(
        pos in 0usize..1_000_000,
        bit in 0u32..8,
        recompute in 0u32..2,
    ) {
        let good = good();
        let pos = pos % good.len();
        let mut bytes = good.to_vec();
        bytes[pos] ^= 1 << bit;
        if recompute == 1 {
            reseal(&mut bytes, &fields(good));
        }
        let (out, mut engine, poisoned, largest) = restore(&bytes);
        prop_assert!(largest <= bytes.len() + MESSAGE_SLACK, "allocated {largest}");
        match out {
            Err(_) => {
                prop_assert_eq!(engine.sessions(), 0);
                prop_assert!(poisoned.is_empty());
            }
            Ok((n, _)) => {
                prop_assert!(recompute == 1 || bytes == good, "a flip passed the crc at {pos}");
                prop_assert_eq!(engine.sessions(), n);
                for id in ["menu", "win"] {
                    engine.handle_estimate(id);
                }
            }
        }
    }

    /// Every block length and every ring frame's length and row count,
    /// rewritten to a lie with all crcs recomputed, is refused whole —
    /// and refused before anything is sized from the lie.
    fn rewritten_lengths_and_row_counts_are_refused(
        field in 0usize..64,
        lie in 0usize..10,
    ) {
        let good = good();
        let layout = fields(good);
        // Block lengths (u64), then per frame its body length and row
        // count (u32; the row count sits at body offset 4).
        let mut targets: Vec<(usize, usize)> = layout.blocks.iter().map(|&at| (at, 8)).collect();
        for &(at, _) in &layout.frames {
            targets.push((at + 4, 4));
            targets.push((at + 8 + 4, 4));
        }
        let (at, width) = targets[field % targets.len()];
        let mut raw = [0u8; 8];
        raw[..width].copy_from_slice(&good[at..at + width]);
        let honest = u64::from_le_bytes(raw);
        let value = lies(honest, lie);
        let value = if width == 4 { value & u32::MAX as u64 } else { value };
        if value == honest {
            return ddn_testkit::TestResult::Pass;
        }
        let mut bytes = good.to_vec();
        bytes[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
        reseal(&mut bytes, &layout);
        let (out, engine, poisoned, largest) = restore(&bytes);
        prop_assert!(out.is_err(), "field at {at} = {value} (was {honest}) restored");
        prop_assert_eq!(engine.sessions(), 0);
        prop_assert!(poisoned.is_empty());
        prop_assert!(largest <= bytes.len() + MESSAGE_SLACK, "allocated {largest}");
    }
}

#[test]
fn a_structurally_corrupt_v2_snapshot_falls_back_to_wal_replay() {
    // Keep the WAL that built the state next to a snapshot covering it
    // (a kill between the rotation's two steps leaves exactly this),
    // then break the snapshot's structure under a valid crc.
    let dir = test_dir("fallback");
    let lines = requests();
    let mut engine = Engine::new();
    let mut poisoned = HashSet::new();
    let (mut d, _) =
        ShardDurability::open(&dir, 0, 1_000_000, None, &mut engine, &mut poisoned).unwrap();
    for line in &lines {
        let req = Request::parse(line).unwrap();
        engine.apply(req, &mut poisoned, None, || {
            d.log_request(line.as_bytes()).map(|_| ())
        });
    }
    let wal = fs::read(wal_path(&dir, 0)).unwrap();
    d.snapshot_now(&engine, &poisoned).unwrap();
    drop(d);
    fs::write(wal_path(&dir, 0), &wal).unwrap();

    let snap = snapshot_path(&dir, 0);
    let mut bytes = fs::read(&snap).unwrap();
    let layout = fields(&bytes);
    let ring = layout.blocks[3]; // the windowed session's ring
    bytes[ring..ring + 8].copy_from_slice(&3u64.to_le_bytes());
    reseal(&mut bytes, &layout);
    fs::write(&snap, &bytes).unwrap();
    assert!(restore(&bytes).0.is_err());

    let mut recovered = Engine::new();
    let mut quarantined = HashSet::new();
    let (_, report) =
        ShardDurability::open(&dir, 0, 1_000_000, None, &mut recovered, &mut quarantined).unwrap();
    assert_eq!(report.sessions, 0, "the snapshot is refused");
    assert_eq!(
        report.frames_replayed,
        lines.len() as u64,
        "full WAL replay"
    );
    assert_eq!(
        recovered.state_save().to_string(),
        engine.state_save().to_string()
    );
    for id in ["menu", "win"] {
        assert_eq!(
            recovered.handle_estimate(id).to_string(),
            engine.handle_estimate(id).to_string()
        );
    }
    // The self-heal rewrote a valid v2 snapshot.
    assert!(fs::read(&snap).unwrap().starts_with(SNAPSHOT_MAGIC_V2));
    let _ = fs::remove_dir_all(&dir);
}

// ---- v1 compatibility --------------------------------------------------

const FIXTURE: &str = include_str!("data/snapshot_8aebbcb.json");

fn fixture() -> Json {
    Json::parse(FIXTURE).unwrap()
}

/// A single-shard data dir in the v1 layout: the fixture's state as a
/// `write_snapshot` v1 file covering no frames, and a WAL holding the
/// fixture's `more` batches as sequenced ingest frames.
fn v1_dir(name: &str, state: &Json) -> PathBuf {
    let fx = fixture();
    let dir = test_dir(name);
    fs::create_dir_all(&dir).unwrap();
    let payload = Json::object(vec![
        ("version", Json::Int(1)),
        ("last_frame_id", Json::Int(0)),
        ("poisoned", Json::Array(vec![])),
        ("sessions", state.clone()),
    ]);
    write_snapshot(&snapshot_path(&dir, 0), &payload).unwrap();
    let mut wal = WalWriter::create(&wal_path(&dir, 0), 1).unwrap();
    for (id, seq) in [("menu", 3), ("windowed", 0)] {
        let records: Vec<TraceRecord> = fx
            .get("more")
            .and_then(|m| m.get(id))
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|r| TraceRecord::from_json(r).unwrap())
            .collect();
        let line = ddn_serve::protocol::ingest_request_json(id, &records, Some(seq));
        wal.append(line.to_string().as_bytes()).unwrap();
    }
    dir
}

/// Recovers `dir` into a fresh engine; returns it, the sessions the
/// snapshot restored, and the estimates of both fixture sessions.
fn recover(dir: &Path) -> (Engine, u64, Vec<String>) {
    let mut engine = Engine::new();
    let mut poisoned = HashSet::new();
    let (_, report) =
        ShardDurability::open(dir, 0, 1_000_000, None, &mut engine, &mut poisoned).unwrap();
    let estimates = ["menu", "windowed"]
        .iter()
        .map(|id| engine.handle_estimate(id).to_string())
        .collect();
    (engine, report.sessions, estimates)
}

#[test]
fn a_v1_data_dir_upgrades_in_place_bit_for_bit() {
    let fx = fixture();
    let dir = v1_dir("upgrade", fx.get("state").unwrap());
    assert!(fs::read(snapshot_path(&dir, 0))
        .unwrap()
        .starts_with(SNAPSHOT_MAGIC));

    let (_, restored, estimates) = recover(&dir);
    assert_eq!(restored, 2);
    let want: Vec<String> = ["menu", "windowed"]
        .iter()
        .map(|id| {
            fx.get("continued")
                .and_then(|c| c.get(id))
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(
        estimates, want,
        "v1 snapshot + WAL tail reproduce `continued`"
    );
    let v2 = fs::read(snapshot_path(&dir, 0)).unwrap();
    assert!(
        v2.starts_with(SNAPSHOT_MAGIC_V2),
        "recovery leaves a v2 snapshot"
    );

    // A second restart reads the v2 file (its WAL is empty now).
    let (_, restored, again) = recover(&dir);
    assert_eq!(restored, 2);
    assert_eq!(again, want, "restart from v2 gives the same bytes");
    assert!(fs::read(snapshot_path(&dir, 0)).unwrap() == v2);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_v1_state_whose_windowed_entries_disagree_is_refused_whole() {
    let fx = fixture();
    // The windowed session keeps two copies of its window (ips, snips):
    // flip the sign of one copy's zero reward, or let one copy evict
    // more than the other.
    let state_text = fx.get("state").unwrap().to_string();
    let disagreeing = [
        state_text.replacen(r#""evicted":24"#, r#""evicted":23"#, 1),
        {
            let windowed = state_text.find(r#""windowed":"#).unwrap();
            let (head, tail) = state_text.split_at(windowed);
            let zero = tail
                .find(r#""reward":0.0"#)
                .expect("a zero reward in the window");
            format!(
                "{head}{}{}",
                &tail[..zero],
                tail[zero..].replacen("0.0", "-0.0", 1)
            )
        },
    ];
    for text in &disagreeing {
        assert_ne!(text, &state_text);
        let state = Json::parse(text).unwrap();
        let mut engine = Engine::new();
        let err = engine.restore_sessions(&state).unwrap_err();
        assert!(err.contains("disagree"), "{err}");
        assert_eq!(engine.sessions(), 0, "nothing restored, `menu` included");

        // Recovery refuses the snapshot and replays the WAL alone.
        let dir = v1_dir("disagree", &state);
        let (engine, restored, _) = recover(&dir);
        assert_eq!(restored, 0);
        assert_eq!(
            engine.sessions(),
            0,
            "the WAL only ingests into unknown sessions"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

// ---- observability -----------------------------------------------------

#[test]
fn snapshot_metrics_book_every_write_and_its_size() {
    let dir = test_dir("metrics");
    let handle = serve(&ServeConfig {
        shards: 1,
        data_dir: Some(dir.clone()),
        snapshot_every: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = ServeClient::connect(&handle.local_addr().to_string()).unwrap();
    let snap = snapshot_path(&dir, 0);
    let file_size = || fs::metadata(&snap).unwrap().len();
    let read = |client: &mut ServeClient| {
        let stats = client.server_stats(false).unwrap();
        let stats = stats.get("stats").unwrap().clone();
        let counter = |name: &str| {
            let counters = stats.get("counters").unwrap();
            counters.get(name).and_then(Json::as_u64).unwrap()
        };
        let hist = stats
            .get("histograms")
            .and_then(|h| h.get("serve.snapshot.write_ns.s0"))
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64)
            .unwrap();
        (
            counter("serve.snapshot.writes"),
            counter("serve.snapshot.bytes"),
            hist,
        )
    };

    // The startup (self-heal) snapshot is booked too.
    let (writes, bytes, hist) = read(&mut client);
    assert_eq!((writes, hist), (1, 1));
    assert_eq!(bytes, file_size());

    let space = DecisionSpace::of(&["a", "b", "c"]);
    client
        .init(
            "w",
            &schema(),
            &space,
            &["ips", "snips"],
            "b",
            0.0,
            Some(16),
        )
        .unwrap();
    let recs: Vec<TraceRecord> = (0..40).map(|i| record(i, i as f64)).collect();
    let mut last = bytes;
    for (round, chunk) in recs.chunks(10).enumerate() {
        // Two logged frames per round (the init and one batch in the
        // first): one rotation after each round.
        if round == 0 {
            client.ingest("w", chunk).unwrap();
        } else {
            let (a, b) = chunk.split_at(5);
            client.ingest("w", a).unwrap();
            client.ingest("w", b).unwrap();
        }
        // A shard request answers after the rotation before it.
        client.estimate("w").unwrap();
        let (writes, bytes, hist) = read(&mut client);
        assert_eq!(hist, writes, "one write_ns sample per snapshot write");
        assert_eq!(writes, round as u64 + 2);
        assert_eq!(
            bytes - last,
            file_size(),
            "the last write's bytes are the file"
        );
        last = bytes;
    }
    handle.shutdown();
    let _ = fs::remove_dir_all(&dir);
}
