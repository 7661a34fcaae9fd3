//! Snapshots and crash-resume: the durability layer over [`crate::wal`].
//!
//! ## On-disk layout
//!
//! A data directory holds `meta.json` (shard-count guard), and per shard
//! a WAL (`shard-N.wal`, see [`crate::wal`]) plus a snapshot:
//!
//! ```text
//! snapshot := "DDNSNAP1" len_le32 crc_le64 payload
//! payload  := {"version":1,"last_frame_id":N,
//!              "poisoned":[...],"sessions":{...}}    (UTF-8 JSON)
//! ```
//!
//! where `crc` is FNV-1a 64 over the payload, `sessions` is
//! [`crate::Engine::state_save`] output (sorted, so identical state
//! yields identical bytes), and `last_frame_id` is the id of the last
//! WAL frame whose effects the snapshot includes. Snapshots are written
//! to a temp file, fsynced, and renamed into place — a crash mid-write
//! leaves the previous snapshot intact.
//!
//! ## Recovery invariants
//!
//! [`ShardDurability::open`] restores the latest valid snapshot (a
//! missing or corrupt one restores nothing), replays WAL frames with
//! `id > last_frame_id` through the code live traffic takes — the one
//! decoder [`Request::decode`] and the one apply path [`Engine::apply`]
//! — then *self-heals*: it writes a fresh snapshot of the recovered
//! state and starts a new WAL. That rotation absorbs torn tails, bounds
//! replay work at the next startup, and makes a stale-snapshot-plus-
//! newer-WAL directory converge to a consistent pair.
//!
//! ## Fsync policy
//!
//! WAL appends reach the kernel before a request is acknowledged (they
//! survive `kill -9`) but are not fsynced per frame; snapshots are
//! fsynced. The durability contract is therefore: process crash loses
//! nothing acknowledged; whole-machine power loss loses at most the
//! frames since the last snapshot.

use crate::engine::Engine;
use crate::protocol::Request;
use crate::wal::{fnv1a, read_wal, WalWriter};
use ddn_stats::Json;
use std::collections::HashSet;
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// File magic opening every snapshot file (also its format version).
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"DDNSNAP1";

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

/// Serializes a snapshot payload and writes it atomically.
pub fn write_snapshot(path: &Path, payload: &Json) -> io::Result<()> {
    let body = payload.to_string().into_bytes();
    let mut bytes = Vec::with_capacity(SNAPSHOT_MAGIC.len() + 12 + body.len());
    bytes.extend_from_slice(SNAPSHOT_MAGIC);
    bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&fnv1a(&body).to_le_bytes());
    bytes.extend_from_slice(&body);
    atomic_write(path, &bytes)
}

/// Reads and validates a snapshot. Returns `None` for a missing file or
/// *any* corruption (bad magic, short file, checksum mismatch, invalid
/// JSON): recovery falls back to an empty state plus WAL replay rather
/// than trusting suspect bytes.
pub fn read_snapshot(path: &Path) -> Option<Json> {
    let mut file = File::open(path).ok()?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes).ok()?;
    let header = SNAPSHOT_MAGIC.len() + 12;
    if bytes.len() < header || &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return None;
    }
    let len =
        u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let crc = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    if bytes.len() != header + len {
        return None;
    }
    let body = &bytes[header..];
    if fnv1a(body) != crc {
        return None;
    }
    let text = std::str::from_utf8(body).ok()?;
    Json::parse(text).ok()
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
}

fn snapshot_payload(engine: &Engine, poisoned: &HashSet<String>, last_frame_id: u64) -> Json {
    let mut quarantined: Vec<&String> = poisoned.iter().collect();
    quarantined.sort();
    Json::object(vec![
        ("version", Json::Int(1)),
        ("last_frame_id", Json::Int(last_frame_id as i64)),
        (
            "poisoned",
            Json::Array(quarantined.into_iter().map(Json::str).collect()),
        ),
        ("sessions", engine.state_save()),
    ])
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
        if let Some(payload) = read_snapshot(&snap_path) {
            // A snapshot that parses but does not restore is treated like
            // a corrupt one: nothing is installed (restore is atomic) and
            // the WAL replays onto an empty engine.
            if payload.get("version").and_then(Json::as_u64) == Some(1) {
                if let Some(sessions) = payload.get("sessions") {
                    if let Ok(n) = engine.restore_sessions(sessions) {
                        report.sessions = n as u64;
                        last_covered = payload
                            .get("last_frame_id")
                            .and_then(Json::as_u64)
                            .unwrap_or(0);
                        if let Some(list) =
                            payload.get("poisoned").and_then(Json::as_array)
                        {
                            for s in list {
                                if let Some(id) = s.as_str() {
                                    poisoned.insert(id.to_string());
                                }
                            }
                        }
                    }
                }
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
        write_snapshot(&snap_path, &snapshot_payload(engine, poisoned, next_id - 1))?;
        let wal = WalWriter::create(&wal_path, next_id)?;
        Ok((
            Self {
                snap_path,
                wal_path,
                wal,
                snapshot_every,
                frames_since_snapshot: 0,
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

    /// Rotates to a fresh snapshot once `snapshot_every` frames have been
    /// logged since the last one. Returns whether a snapshot was written.
    pub fn maybe_snapshot(
        &mut self,
        engine: &Engine,
        poisoned: &HashSet<String>,
    ) -> io::Result<bool> {
        if self.frames_since_snapshot < self.snapshot_every {
            return Ok(false);
        }
        self.snapshot_now(engine, poisoned)?;
        Ok(true)
    }

    /// Unconditionally snapshots the current state and starts a new WAL.
    /// Ordering matters: the snapshot (fsynced, atomic) lands first, so a
    /// crash before the WAL truncation leaves only frames the snapshot
    /// already covers.
    pub fn snapshot_now(
        &mut self,
        engine: &Engine,
        poisoned: &HashSet<String>,
    ) -> io::Result<()> {
        let last_frame_id = self.wal.next_id() - 1;
        write_snapshot(
            &self.snap_path,
            &snapshot_payload(engine, poisoned, last_frame_id),
        )?;
        self.wal = WalWriter::create(&self.wal_path, last_frame_id + 1)?;
        self.frames_since_snapshot = 0;
        Ok(())
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
        let dir = std::env::temp_dir().join(format!(
            "ddn-snap-test-{}-{name}",
            std::process::id()
        ));
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
