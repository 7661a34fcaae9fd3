//! Snapshots and crash-resume: the durability layer over [`crate::wal`].
//!
//! ## On-disk layout
//!
//! A data directory holds `meta.json` (shard-count guard), and per shard
//! a WAL (`shard-N.wal`, see [`crate::wal`]) plus a snapshot
//! (`shard-N.snap`) in one of two formats. Both open with an 8-byte
//! magic, a body length, and `crc`, FNV-1a 64 over the body.
//!
//! **v2** is what a shard writes — [`ShardDurability`]'s self-heal at
//! startup and every rotation:
//!
//! ```text
//! snapshot := "DDNSNAP2" len_le64 crc_le64 body
//! body     := block(meta) per session: block(ring) block(coupling)
//! block(x) := len_le64 x
//! meta     := {"version":2,"last_frame_id":N,
//!              "poisoned":[...],"sessions":{...}}    (UTF-8 JSON)
//! ring     := frame*          the window, oldest record first, as
//!                             crate::frame frames (empty if cumulative)
//! coupling := reward_le64*    the coupling window's raw f64 bits
//! ```
//!
//! `meta.sessions` holds, per session in id order (the order of the
//! blocks), the v1 session object minus every windowed estimator's
//! `"window"` array and the coupling `"window"`: one function
//! (`Engine::state_json`) derives both shapes. The ring and coupling
//! window — nearly all of a windowed session's state — are written
//! straight from session state into the file image, with no JSON in
//! between. Ring frames are chunked to stay under [`MAX_FRAME_BYTES`]
//! and read back by [`frame::decode`], whose size checks run before it
//! allocates. The
//! frame codec's absent-field sentinels (NaN, `u32::MAX`) cannot clash
//! with a value a session holds — ingest refuses non-finite rewards,
//! timestamps and features, and propensities outside (0, 1] — except a
//! state tag of `u32::MAX`. The frame encoder refuses a ring holding
//! one, or a record it cannot carry at all (over 65,535 features), and
//! the shard writes that snapshot as v1.
//!
//! **v1** is what [`write_snapshot`] writes, and what servers wrote
//! before v2; recovery reads both:
//!
//! ```text
//! snapshot := "DDNSNAP1" len_le32 crc_le64 payload
//! payload  := {"version":1,"last_frame_id":N,
//!              "poisoned":[...],"sessions":{...}}    (UTF-8 JSON)
//! ```
//!
//! where `sessions` is [`Engine::state_save`] output, every window
//! inline: each windowed estimator carries the ring as a `"window"`
//! array of records. Restoring one requires those copies to agree.
//!
//! In both, `sessions` is sorted, so identical state yields identical
//! bytes, and `last_frame_id` is the id of the last WAL frame whose
//! effects the snapshot includes. Snapshots are written to a temp file,
//! fsynced, and renamed into place — a crash mid-write leaves the
//! previous snapshot intact.
//!
//! ## Recovery invariants
//!
//! [`ShardDurability::open`] restores the snapshot (dispatching on its
//! magic; a missing, unknown or corrupt one restores nothing — see
//! [`restore_snapshot`]), replays WAL frames with `id > last_frame_id`
//! through the code live traffic takes — the one decoder
//! [`Request::decode`] and the one apply path [`Engine::apply`] — then
//! *self-heals*: it writes a fresh snapshot of the recovered state and
//! starts a new WAL. That rotation absorbs torn tails, bounds replay
//! work at the next startup, upgrades a v1 directory to v2, and makes a
//! stale-snapshot-plus-newer-WAL directory converge to a consistent
//! pair.
//!
//! ## Fsync policy
//!
//! WAL appends reach the kernel before a request is acknowledged (they
//! survive `kill -9`) but are not fsynced per frame; snapshots are
//! fsynced. The durability contract is therefore: process crash loses
//! nothing acknowledged; whole-machine power loss loses at most the
//! frames since the last snapshot.

use crate::engine::{Engine, Session};
use crate::frame::{self, FRAME_CRC_BYTES, FRAME_PREFIX_BYTES};
use crate::protocol::Request;
use crate::wal::{fnv1a, read_wal, WalWriter, MAX_FRAME_BYTES};
use ddn_stats::Json;
use ddn_trace::TraceRecord;
use std::collections::{HashSet, VecDeque};
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// File magic opening every v1 snapshot file (also its format version).
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"DDNSNAP1";

/// File magic opening every v2 snapshot file.
pub const SNAPSHOT_MAGIC_V2: &[u8; 8] = b"DDNSNAP2";

/// The WAL file for `shard` under `dir`.
pub fn wal_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.wal"))
}

/// The snapshot file for `shard` under `dir`.
pub fn snapshot_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.snap"))
}

/// Validates (or stamps) the data directory's `meta.json`. Session→shard
/// routing hashes the session id modulo the shard count, so reopening a
/// directory with a different count would route sessions to shards whose
/// files don't hold them; that is refused here rather than silently
/// splitting state.
pub fn check_meta(dir: &Path, shards: usize) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let path = dir.join("meta.json");
    match fs::read_to_string(&path) {
        Ok(text) => {
            let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
            let meta = Json::parse(&text)
                .map_err(|e| bad(format!("{}: bad meta.json: {e}", dir.display())))?;
            let version = meta.get("version").and_then(Json::as_u64);
            if version != Some(1) {
                return Err(bad(format!(
                    "{}: meta.json version {version:?} not supported",
                    dir.display()
                )));
            }
            let stored = meta.get("shards").and_then(Json::as_u64);
            if stored != Some(shards as u64) {
                return Err(bad(format!(
                    "{}: data dir was written with {stored:?} shards but the server \
                     is configured for {shards}; reuse the original shard count",
                    dir.display()
                )));
            }
            Ok(())
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            let meta = Json::object(vec![
                ("version", Json::Int(1)),
                ("shards", Json::Int(shards as i64)),
            ]);
            atomic_write(&path, meta.to_string().as_bytes())
        }
        Err(e) => Err(e),
    }
}

/// Writes `bytes` to `path` via temp-file + fsync + rename, so a crash
/// mid-write never leaves a partially written file under `path`.
fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Make the rename itself durable. Best-effort: directory fsync is a
    // Linux-ism; a failure here downgrades power-loss (not crash) safety.
    if let Some(parent) = path.parent() {
        if let Ok(d) = File::open(parent) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Serializes a snapshot payload as v1 and writes it atomically. A
/// payload rendering to more than `u32::MAX` bytes is refused with
/// `InvalidInput` before any file is touched.
pub fn write_snapshot(path: &Path, payload: &Json) -> io::Result<()> {
    atomic_write(path, &encode_v1(payload)?)
}

/// A v1 file image of `payload`.
fn encode_v1(payload: &Json) -> io::Result<Vec<u8>> {
    let body = payload.to_string().into_bytes();
    let len = v1_body_len(body.len())?;
    let mut bytes = Vec::with_capacity(SNAPSHOT_MAGIC.len() + 12 + body.len());
    bytes.extend_from_slice(SNAPSHOT_MAGIC);
    bytes.extend_from_slice(&len.to_le_bytes());
    bytes.extend_from_slice(&fnv1a(&body).to_le_bytes());
    bytes.extend_from_slice(&body);
    Ok(bytes)
}

/// The v1 header's length field for a body of `len` bytes. Over
/// `u32::MAX` it would wrap, the reader would refuse the file — and a
/// rotation would already have truncated the WAL it covers — so such a
/// body is refused up front.
fn v1_body_len(len: usize) -> io::Result<u32> {
    u32::try_from(len).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("snapshot body of {len} bytes overflows the v1 format's u32 length"),
        )
    })
}

/// The body of a snapshot file image: checks the magic, the declared
/// length (`len_bytes` wide) against the bytes present, and the crc.
fn checked_body<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    len_bytes: usize,
) -> Result<&'a [u8], String> {
    let header = magic.len() + len_bytes + 8;
    if bytes.len() < header || &bytes[..magic.len()] != magic {
        return Err("not a snapshot of this format".into());
    }
    let mut len = [0u8; 8];
    len[..len_bytes].copy_from_slice(&bytes[8..8 + len_bytes]);
    let len = u64::from_le_bytes(len);
    let crc = u64::from_le_bytes(bytes[8 + len_bytes..header].try_into().unwrap());
    let body = &bytes[header..];
    if body.len() as u64 != len {
        return Err(format!(
            "snapshot declares a {len}-byte body but carries {}",
            body.len()
        ));
    }
    if fnv1a(body) != crc {
        return Err("snapshot crc mismatch".into());
    }
    Ok(body)
}

/// Reads and validates a v1 snapshot. Returns `None` for a missing file
/// or *any* corruption (bad magic, short file, checksum mismatch, invalid
/// JSON), and for a v2 file: recovery reads both through
/// [`restore_snapshot`].
pub fn read_snapshot(path: &Path) -> Option<Json> {
    parse_v1(&fs::read(path).ok()?).ok()
}

fn parse_v1(bytes: &[u8]) -> Result<Json, String> {
    let body = checked_body(bytes, SNAPSHOT_MAGIC, 4)?;
    let text = std::str::from_utf8(body).map_err(|e| format!("snapshot is not UTF-8: {e}"))?;
    Json::parse(text).map_err(|e| format!("snapshot JSON: {e}"))
}

/// The snapshot payload of either format, from one function so the two
/// cannot drift: v1 carries every window inline, v2 only the metadata
/// its binary blocks complete.
fn payload(engine: &Engine, poisoned: &HashSet<String>, last_frame_id: u64, version: i64) -> Json {
    let mut quarantined: Vec<&String> = poisoned.iter().collect();
    quarantined.sort();
    Json::object(vec![
        ("version", Json::Int(version)),
        ("last_frame_id", Json::Int(last_frame_id as i64)),
        (
            "poisoned",
            Json::Array(quarantined.into_iter().map(Json::str).collect()),
        ),
        ("sessions", engine.state_json(version == 1)),
    ])
}

/// The snapshot file image a shard writes: v2, or v1 when a ring holds
/// a record the frame codec cannot carry (see the module docs).
fn encode_snapshot(
    engine: &Engine,
    poisoned: &HashSet<String>,
    last_frame_id: u64,
) -> io::Result<Vec<u8>> {
    match encode_v2(engine, poisoned, last_frame_id) {
        Ok(bytes) => Ok(bytes),
        Err(_) => encode_v1(&payload(engine, poisoned, last_frame_id, 1)),
    }
}

/// Bytes before a v2 body: magic, u64 length, crc.
const V2_HEADER: usize = 24;

/// Most records one ring frame holds, so that a frame of
/// `n_features`-wide rows with every optional column present stays
/// under [`MAX_FRAME_BYTES`].
fn rows_per_frame(n_features: usize) -> usize {
    let per_row = 8 * n_features + 32;
    (MAX_FRAME_BYTES.saturating_sub(64 + n_features) / per_row).max(1)
}

/// Appends one block: a u64 length, then the bytes `fill` appends.
fn block(
    out: &mut Vec<u8>,
    fill: impl FnOnce(&mut Vec<u8>) -> Result<(), String>,
) -> Result<(), String> {
    let at = out.len();
    out.extend_from_slice(&[0; 8]);
    fill(out)?;
    let len = (out.len() - at - 8) as u64;
    out[at..at + 8].copy_from_slice(&len.to_le_bytes());
    Ok(())
}

/// A v2 file image, built in one buffer straight from session state.
/// `Err` when a ring holds a record the frame codec cannot carry.
fn encode_v2(
    engine: &Engine,
    poisoned: &HashSet<String>,
    last_frame_id: u64,
) -> Result<Vec<u8>, String> {
    let meta = payload(engine, poisoned, last_frame_id, 2).to_string();
    let sessions = engine.sorted();
    let blocks: usize = sessions
        .iter()
        .map(|(_, s)| {
            let ring = s.ring();
            let width = ring.front().map_or(0, |r| r.context.values().len());
            16 + 8 * s.coupling().window().len() + ring.len() * (8 * width + 32) + 64
        })
        .sum();
    let mut out = Vec::with_capacity(V2_HEADER + 8 + meta.len() + blocks);
    out.extend_from_slice(SNAPSHOT_MAGIC_V2);
    out.extend_from_slice(&[0; 16]); // body length and crc, set below
    block(&mut out, |out| {
        out.extend_from_slice(meta.as_bytes());
        Ok(())
    })?;
    for (_, s) in sessions {
        block(&mut out, |out| {
            let ring = s.ring();
            let rows = rows_per_frame(ring.front().map_or(0, |r| r.context.values().len()));
            for start in (0..ring.len()).step_by(rows) {
                let end = ring.len().min(start + rows);
                frame::encode_into(out, "", ring.range(start..end), None, None)?;
            }
            Ok(())
        })?;
        block(&mut out, |out| {
            for r in s.coupling().window() {
                out.extend_from_slice(&r.to_bits().to_le_bytes());
            }
            Ok(())
        })?;
    }
    let body_len = (out.len() - V2_HEADER) as u64;
    let crc = fnv1a(&out[V2_HEADER..]);
    out[8..16].copy_from_slice(&body_len.to_le_bytes());
    out[16..24].copy_from_slice(&crc.to_le_bytes());
    Ok(out)
}

/// A cursor over a v2 body. Every length it reads is held to the bytes
/// left before anything is sized from it.
struct Blocks<'a> {
    rest: &'a [u8],
}

impl<'a> Blocks<'a> {
    fn block(&mut self, what: &str) -> Result<&'a [u8], String> {
        if self.rest.len() < 8 {
            return Err(format!("snapshot ends before the {what} block"));
        }
        let (len, rest) = self.rest.split_at(8);
        let len = u64::from_le_bytes(len.try_into().unwrap());
        if len > rest.len() as u64 {
            return Err(format!(
                "{what} block of {len} bytes overruns the {} left",
                rest.len()
            ));
        }
        let (body, rest) = rest.split_at(len as usize);
        self.rest = rest;
        Ok(body)
    }
}

/// A ring block's records: its frames, decoded in order.
fn decode_ring(mut bytes: &[u8]) -> Result<VecDeque<TraceRecord>, String> {
    let mut ring = VecDeque::new();
    while !bytes.is_empty() {
        if bytes.len() < FRAME_PREFIX_BYTES {
            return Err("ring block ends inside a frame header".into());
        }
        let body_len = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
        let len = FRAME_PREFIX_BYTES + body_len + FRAME_CRC_BYTES;
        if len > bytes.len() {
            return Err(format!(
                "ring frame of {len} bytes overruns the {} left",
                bytes.len()
            ));
        }
        let (f, rest) = bytes.split_at(len);
        ring.extend(
            frame::decode(f)
                .map_err(|e| format!("ring frame: {e}"))?
                .records,
        );
        bytes = rest;
    }
    Ok(ring)
}

/// A coupling block's rewards.
fn decode_rewards(bytes: &[u8]) -> Result<VecDeque<f64>, String> {
    if !bytes.len().is_multiple_of(8) {
        return Err(format!(
            "coupling block of {} bytes is not whole f64s",
            bytes.len()
        ));
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
        .collect())
}

/// What a v2 file decodes to, before anything is installed.
struct Decoded {
    last_frame_id: u64,
    poisoned: Vec<String>,
    sessions: Vec<(String, Session)>,
}

fn decode_v2(bytes: &[u8]) -> Result<Decoded, String> {
    let mut blocks = Blocks {
        rest: checked_body(bytes, SNAPSHOT_MAGIC_V2, 8)?,
    };
    let text = std::str::from_utf8(blocks.block("metadata")?)
        .map_err(|e| format!("snapshot metadata is not UTF-8: {e}"))?;
    let meta = Json::parse(text).map_err(|e| format!("snapshot metadata: {e}"))?;
    if meta.get("version").and_then(Json::as_u64) != Some(2) {
        return Err("snapshot metadata is not version 2".into());
    }
    let last_frame_id = meta
        .get("last_frame_id")
        .and_then(Json::as_u64)
        .ok_or("snapshot metadata needs \"last_frame_id\"")?;
    let poisoned = meta
        .get("poisoned")
        .and_then(Json::as_array)
        .ok_or("snapshot metadata needs \"poisoned\"")?
        .iter()
        .map(|id| id.as_str().map(str::to_string))
        .collect::<Option<Vec<_>>>()
        .ok_or("\"poisoned\" must list session ids")?;
    let ids = meta
        .get("sessions")
        .and_then(Json::as_object)
        .ok_or("snapshot metadata needs \"sessions\"")?;
    let mut sessions = Vec::with_capacity(ids.len());
    for (id, state) in ids {
        let ring = decode_ring(blocks.block("ring")?)?;
        let rewards = decode_rewards(blocks.block("coupling")?)?;
        let session = Session::from_blocks(state, ring, rewards)
            .map_err(|e| format!("session {id:?}: {e}"))?;
        sessions.push((id.clone(), session));
    }
    if !blocks.rest.is_empty() {
        return Err(format!("{} bytes after the last block", blocks.rest.len()));
    }
    Ok(Decoded {
        last_frame_id,
        poisoned,
        sessions,
    })
}

/// Restores a snapshot file image — v2 or v1, told apart by the magic —
/// into `engine` and `poisoned`. Returns how many sessions it restored
/// and the id of the last WAL frame it covers.
///
/// Any fault is an `Err` and installs nothing: an unknown magic, a
/// length, crc or block that does not check out, and any session that
/// does not restore — including a ring that fails the checks ingest
/// applies, and v1 windowed entries whose windows disagree. The reader
/// sizes no allocation from a length field before holding it to the
/// bytes present.
pub fn restore_snapshot(
    bytes: &[u8],
    engine: &mut Engine,
    poisoned: &mut HashSet<String>,
) -> Result<(usize, u64), String> {
    if bytes.starts_with(SNAPSHOT_MAGIC_V2) {
        let d = decode_v2(bytes)?;
        poisoned.extend(d.poisoned);
        return Ok((engine.install(d.sessions), d.last_frame_id));
    }
    let payload = parse_v1(bytes)?;
    if payload.get("version").and_then(Json::as_u64) != Some(1) {
        return Err("snapshot payload is not version 1".into());
    }
    let sessions = payload
        .get("sessions")
        .ok_or("snapshot needs \"sessions\"")?;
    let n = engine.restore_sessions(sessions)?;
    if let Some(list) = payload.get("poisoned").and_then(Json::as_array) {
        poisoned.extend(list.iter().filter_map(Json::as_str).map(str::to_string));
    }
    let last = payload.get("last_frame_id").and_then(Json::as_u64);
    Ok((n, last.unwrap_or(0)))
}

/// One snapshot write, as the `serve.snapshot.*` metrics book it.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SnapshotWrite {
    /// Size of the file written.
    pub(crate) bytes: u64,
    /// Time to encode, write, fsync and rename it.
    pub(crate) nanos: u64,
}

/// Writes a shard's snapshot (see [`encode_snapshot`]) atomically.
fn write_state(
    path: &Path,
    engine: &Engine,
    poisoned: &HashSet<String>,
    last_frame_id: u64,
) -> io::Result<SnapshotWrite> {
    let started = Instant::now();
    let bytes = encode_snapshot(engine, poisoned, last_frame_id)?;
    atomic_write(path, &bytes)?;
    Ok(SnapshotWrite {
        bytes: bytes.len() as u64,
        nanos: started.elapsed().as_nanos() as u64,
    })
}

/// What [`ShardDurability::open`] recovered, for the `serve.recover.*`
/// counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct RecoverReport {
    /// Sessions restored from the snapshot.
    pub sessions: u64,
    /// WAL frames replayed on top of the snapshot.
    pub frames_replayed: u64,
    /// Invalid WAL tail frames discarded (torn writes, bit flips).
    pub truncated_frames: u64,
}

/// The durable-state driver one shard worker owns: write-ahead logging
/// of every state-bearing request plus periodic snapshot rotation.
pub struct ShardDurability {
    snap_path: PathBuf,
    wal_path: PathBuf,
    wal: WalWriter,
    snapshot_every: u64,
    frames_since_snapshot: u64,
    last_snapshot: SnapshotWrite,
}

impl ShardDurability {
    /// Opens (recovering if needed) the durable state for `shard` under
    /// `dir`, restoring into `engine`/`poisoned`. See the module docs for
    /// the recovery invariants. On return the directory holds a fresh
    /// snapshot of the recovered state and an empty WAL. A zero
    /// `snapshot_every` is refused with `InvalidInput`.
    pub fn open(
        dir: &Path,
        shard: usize,
        snapshot_every: u64,
        failpoint: Option<&str>,
        engine: &mut Engine,
        poisoned: &mut HashSet<String>,
    ) -> io::Result<(Self, RecoverReport)> {
        if snapshot_every == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "snapshot interval must be positive",
            ));
        }
        fs::create_dir_all(dir)?;
        let snap_path = snapshot_path(dir, shard);
        let wal_path = wal_path(dir, shard);
        let mut report = RecoverReport::default();
        let mut last_covered = 0u64;
        if let Ok(bytes) = fs::read(&snap_path) {
            // A snapshot that does not restore is treated like a missing
            // one: nothing is installed (restore is atomic) and the WAL
            // replays onto an empty engine.
            if let Ok((n, last)) = restore_snapshot(&bytes, engine, poisoned) {
                report.sessions = n as u64;
                last_covered = last;
            }
        }
        let wal = read_wal(&wal_path)?;
        report.truncated_frames = wal.truncated;
        let mut max_id = last_covered;
        for frame in wal.frames {
            if frame.id <= last_covered {
                continue;
            }
            max_id = frame.id;
            // A payload that no longer decodes is skipped, not fatal: the
            // WAL is a redo log, and an undecodable request was never
            // applied. The write-ahead step is a no-op: the frame is
            // already in the log.
            let (Ok(req), _) = Request::decode(&frame.payload) else {
                continue;
            };
            engine.apply(req, poisoned, failpoint, || Ok(()));
            report.frames_replayed += 1;
        }
        // Self-heal: persist the recovered state, then start a new WAL.
        // A crash between the two leaves old frames whose ids are all
        // covered by the new snapshot — they replay as no-ops.
        let next_id = max_id + 1;
        let last_snapshot = write_state(&snap_path, engine, poisoned, next_id - 1)?;
        let wal = WalWriter::create(&wal_path, next_id)?;
        Ok((
            Self {
                snap_path,
                wal_path,
                wal,
                snapshot_every,
                frames_since_snapshot: 0,
                last_snapshot,
            },
            report,
        ))
    }

    /// Appends one request payload to the WAL, write-ahead of applying
    /// it: the bytes the request arrived as, a JSON line (newline
    /// stripped) or a binary batch frame — recovery reads both back
    /// through [`Request::decode`]. Returns the bytes appended (frame
    /// header included).
    pub fn log_request(&mut self, payload: &[u8]) -> io::Result<usize> {
        let before = self.wal.bytes_written();
        self.wal.append(payload)?;
        self.frames_since_snapshot += 1;
        Ok((self.wal.bytes_written() - before) as usize)
    }

    /// Whether `snapshot_every` frames have been logged since the last
    /// snapshot, so the next [`ShardDurability::maybe_snapshot`] rotates.
    pub fn snapshot_due(&self) -> bool {
        self.frames_since_snapshot >= self.snapshot_every
    }

    /// Rotates to a fresh snapshot once `snapshot_every` frames have been
    /// logged since the last one. Returns whether a snapshot was written.
    pub fn maybe_snapshot(
        &mut self,
        engine: &Engine,
        poisoned: &HashSet<String>,
    ) -> io::Result<bool> {
        if !self.snapshot_due() {
            return Ok(false);
        }
        self.snapshot_now(engine, poisoned)?;
        Ok(true)
    }

    /// Unconditionally snapshots the current state and starts a new WAL.
    /// Ordering matters: the snapshot (fsynced, atomic) lands first, so a
    /// crash before the WAL truncation leaves only frames the snapshot
    /// already covers.
    pub fn snapshot_now(&mut self, engine: &Engine, poisoned: &HashSet<String>) -> io::Result<()> {
        let last_frame_id = self.wal.next_id() - 1;
        self.last_snapshot = write_state(&self.snap_path, engine, poisoned, last_frame_id)?;
        self.wal = WalWriter::create(&self.wal_path, last_frame_id + 1)?;
        self.frames_since_snapshot = 0;
        Ok(())
    }

    /// The most recent snapshot this shard wrote (the self-heal one
    /// until the first rotation).
    pub(crate) fn last_snapshot(&self) -> SnapshotWrite {
        self.last_snapshot
    }

    /// The id the next WAL frame will carry (monotonic across rotations).
    pub fn next_frame_id(&self) -> u64 {
        self.wal.next_id()
    }

    /// WAL frames appended since the last snapshot rotation — the
    /// replay debt a crash right now would incur (the `serve.wal.lag`
    /// gauge).
    pub fn frames_since_snapshot(&self) -> u64 {
        self.frames_since_snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ddn-snap-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn snapshot_file_round_trips_and_rejects_corruption() {
        let dir = scratch("roundtrip");
        fs::create_dir_all(&dir).unwrap();
        let path = snapshot_path(&dir, 0);
        let payload = Json::object(vec![("version", Json::Int(1)), ("x", Json::str("y"))]);
        write_snapshot(&path, &payload).unwrap();
        assert_eq!(read_snapshot(&path), Some(payload));

        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(read_snapshot(&path), None, "flipped byte must fail the crc");

        fs::write(&path, b"").unwrap();
        assert_eq!(read_snapshot(&path), None);
        assert_eq!(read_snapshot(&dir.join("missing.snap")), None);
    }

    #[test]
    fn a_v1_body_over_u32_max_is_refused_before_any_file_is_touched() {
        // The length field would wrap; `write_snapshot` runs this check
        // before `atomic_write`, so the old snapshot and WAL stay.
        let err = v1_body_len(u32::MAX as usize + 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("u32"), "{err}");
        assert_eq!(v1_body_len(u32::MAX as usize).unwrap(), u32::MAX);
    }

    fn engine_with(lines: &[String]) -> Engine {
        let mut engine = Engine::new();
        let mut poisoned = HashSet::new();
        for line in lines {
            let req = Request::parse(line).unwrap();
            let (resp, _) = engine.apply(req, &mut poisoned, None, || Ok(()));
            assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
        }
        engine
    }

    fn init(session: &str, extra: &str) -> String {
        format!(
            r#"{{"verb":"init","session":"{session}","schema":{{"inner":{{"names":["g"],"kinds":[{{"Categorical":{{"cardinality":2}}}}]}}}},"space":{{"names":["a","b"]}},"estimators":["ips","snips","dr"],"policy":{{"kind":"constant","decision":"b"}}{extra}}}"#
        )
    }

    fn ingest(session: &str, n: usize, state: Option<u32>) -> String {
        let recs: Vec<String> = (0..n)
            .map(|i| {
                let mut r = format!(
                    r#"{{"context":{{"values":[{}]}},"decision":{},"reward":{},"propensity":0.5"#,
                    i % 2,
                    (i / 2) % 2,
                    if i % 3 == 0 {
                        "-0.0".to_string()
                    } else {
                        format!("{}.25", i)
                    }
                );
                if let Some(s) = state {
                    r.push_str(&format!(r#","state":{s}"#));
                }
                r + "}"
            })
            .collect();
        format!(
            r#"{{"verb":"ingest","session":"{session}","records":[{}]}}"#,
            recs.join(",")
        )
    }

    fn restored(bytes: &[u8]) -> (Engine, HashSet<String>) {
        let mut engine = Engine::new();
        let mut poisoned = HashSet::new();
        restore_snapshot(bytes, &mut engine, &mut poisoned).unwrap();
        (engine, poisoned)
    }

    #[test]
    fn v2_stores_one_ring_per_session_and_restores_bit_for_bit() {
        let engine = engine_with(&[
            init("cum", ""),
            init("win", r#","window":4"#),
            ingest("cum", 9, None),
            ingest("win", 11, Some(3)),
        ]);
        let poisoned: HashSet<String> = ["ghost".to_string()].into();
        let bytes = encode_snapshot(&engine, &poisoned, 7).unwrap();
        assert!(bytes.starts_with(SNAPSHOT_MAGIC_V2));
        // The metadata carries no window: the ring is written once, as
        // a binary block, not once per windowed estimator.
        let meta = payload(&engine, &poisoned, 7, 2).to_string();
        assert!(!meta.contains("\"window\":["), "{meta}");
        assert!(bytes.len() < encode_v1(&payload(&engine, &poisoned, 7, 1)).unwrap().len());

        let (mut again, quarantined) = restored(&bytes);
        assert_eq!(quarantined, poisoned);
        assert_eq!(
            again.state_save().to_string(),
            engine.state_save().to_string()
        );
        let mut engine = engine;
        for id in ["cum", "win"] {
            assert_eq!(
                again.handle_estimate(id).to_string(),
                engine.handle_estimate(id).to_string()
            );
        }
        // Identical state, identical bytes, however the ring buffer
        // happens to be laid out in memory.
        assert!(encode_snapshot(&again, &quarantined, 7).unwrap() == bytes);
    }

    #[test]
    fn a_ring_the_frame_codec_cannot_carry_is_written_as_v1() {
        // `u32::MAX` is the frame's "no state tag" sentinel; a JSON
        // ingest can still carry it, and a restart must keep it.
        let engine = engine_with(&[
            init("win", r#","window":4"#),
            ingest("win", 6, Some(u32::MAX)),
        ]);
        let bytes = encode_snapshot(&engine, &HashSet::new(), 2).unwrap();
        assert!(bytes.starts_with(SNAPSHOT_MAGIC));
        let (again, _) = restored(&bytes);
        assert_eq!(
            again.state_save().to_string(),
            engine.state_save().to_string()
        );
        assert!(engine
            .state_save()
            .to_string()
            .contains(&u32::MAX.to_string()));
    }

    #[test]
    fn meta_guard_pins_the_shard_count() {
        let dir = scratch("meta");
        check_meta(&dir, 4).unwrap();
        check_meta(&dir, 4).unwrap();
        let err = check_meta(&dir, 8).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("shard count"), "{err}");
    }

    #[test]
    fn open_on_an_empty_dir_recovers_nothing_and_self_heals() {
        let dir = scratch("empty");
        let mut engine = Engine::new();
        let mut poisoned = HashSet::new();
        let (d, report) =
            ShardDurability::open(&dir, 0, 8, None, &mut engine, &mut poisoned).unwrap();
        assert_eq!(report.sessions, 0);
        assert_eq!(report.frames_replayed, 0);
        assert_eq!(report.truncated_frames, 0);
        assert_eq!(d.next_frame_id(), 1);
        assert!(snapshot_path(&dir, 0).exists());
        assert!(wal_path(&dir, 0).exists());
    }
}
