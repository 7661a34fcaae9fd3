//! The write-ahead log: length-prefixed, checksummed frames on disk.
//!
//! ## On-disk layout
//!
//! ```text
//! file   := magic frame*
//! magic  := "DDNWAL01"                     (8 bytes)
//! frame  := len_le32 id_le64 crc_le64 payload
//! len    := payload length in bytes        (u32, little-endian)
//! id     := frame id, strictly increasing  (u64, little-endian)
//! crc    := FNV-1a 64 over id_le64 ++ payload
//! ```
//!
//! A frame's payload is one state-bearing request exactly as it arrived
//! on the wire: either the client's JSON request line (an `init` or
//! `ingest` object, without its newline) or its binary batch frame
//! ([`crate::frame`]), byte for byte. The WAL is literally the ordered
//! log of every state-bearing request a shard consumed, so recovery
//! replays frames through the decoder and apply path live traffic takes
//! ([`crate::Request::decode`], [`crate::Engine::apply`]) — bit-identity
//! for free. The decoder tells the two payload kinds apart by the frame
//! magic, which can never begin a JSON request line.
//!
//! Frame ids are monotonic across snapshot rotations and never reused;
//! a snapshot records the last id it covers, which is what lets recovery
//! skip frames an overlapping (not-yet-truncated) WAL repeats.
//!
//! ## Torn tails
//!
//! A crash can leave at most one partial frame, at the end of the file
//! (appends are a single `write_all`; acknowledged requests are fully
//! written first). [`read_wal`] therefore recovers the longest valid
//! prefix: it stops at the first short header, short payload, checksum
//! mismatch, or non-monotonic id, and reports how many invalid tail
//! frames it discarded (the `serve.recover.truncated_frames` counter).
//! This byte layout is pinned by a golden test; changing it is a format
//! break that must be made deliberately.

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

/// File magic opening every WAL file (also its format version).
pub const WAL_MAGIC: &[u8; 8] = b"DDNWAL01";

/// Hard cap on a single frame's payload. A length prefix beyond this is
/// treated as corruption, not an allocation request.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Bytes of frame framing before the payload: len (4) + id (8) + crc (8).
pub const FRAME_HEADER_BYTES: usize = 20;

/// FNV-1a 64-bit over `bytes` — the workspace's zero-dependency frame
/// checksum. Not cryptographic; it guards against torn writes and bit
/// rot, the failure modes a local WAL actually sees.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn frame_crc(id: u64, payload: &[u8]) -> u64 {
    let mut h = fnv1a(&id.to_le_bytes());
    for &b in payload {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Encodes one frame exactly as it appears on disk.
pub fn encode_frame(id: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&frame_crc(id, payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// One decoded WAL frame.
#[derive(Debug, Clone, PartialEq)]
pub struct WalFrame {
    /// Monotonic frame id (never reused across snapshot rotations).
    pub id: u64,
    /// The request payload this frame logged (a JSON line or a binary
    /// batch frame).
    pub payload: Vec<u8>,
}

/// An open WAL being appended to by a shard worker.
pub struct WalWriter {
    file: File,
    next_id: u64,
    bytes: u64,
}

impl WalWriter {
    /// Creates (truncating) a WAL at `path` whose first frame will carry
    /// `next_id`. The magic header is written and synced immediately so
    /// an empty log is distinguishable from a missing one.
    pub fn create(path: &Path, next_id: u64) -> io::Result<Self> {
        let mut file = File::create(path)?;
        file.write_all(WAL_MAGIC)?;
        file.sync_all()?;
        Ok(Self {
            file,
            next_id,
            bytes: WAL_MAGIC.len() as u64,
        })
    }

    /// Appends one frame in a single `write_all` and returns its id. The
    /// write reaches the kernel before this returns (a `kill -9` after an
    /// acknowledged append loses nothing); it is *not* fsynced — power-loss
    /// durability is provided at snapshot boundaries via [`WalWriter::sync`].
    /// A payload over [`MAX_FRAME_BYTES`] is refused with `InvalidInput`
    /// before anything is written.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        if payload.len() > MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "WAL payload of {} bytes exceeds the {MAX_FRAME_BYTES}-byte frame cap",
                    payload.len()
                ),
            ));
        }
        let id = self.next_id;
        let frame = encode_frame(id, payload);
        self.file.write_all(&frame)?;
        self.next_id += 1;
        self.bytes += frame.len() as u64;
        Ok(id)
    }

    /// Forces everything appended so far to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// The id the next appended frame will carry.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Total bytes written to this file, header included.
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }
}

/// The result of scanning a WAL file: its longest valid frame prefix.
#[derive(Debug, Default)]
pub struct WalRead {
    /// Valid frames, in file order.
    pub frames: Vec<WalFrame>,
    /// Invalid tail frames discarded (0 on a clean file, 1 after a torn
    /// write, checksum mismatch, or non-monotonic id).
    pub truncated: u64,
}

/// Reads the longest valid prefix of the WAL at `path`. A missing or
/// zero-length file reads as empty and clean; anything else that stops
/// the scan before end-of-file counts one discarded (truncated) frame.
pub fn read_wal(path: &Path) -> io::Result<WalRead> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(WalRead::default()),
        Err(e) => return Err(e),
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    let mut out = WalRead::default();
    if bytes.is_empty() {
        return Ok(out);
    }
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        out.truncated = 1;
        return Ok(out);
    }
    let mut pos = WAL_MAGIC.len();
    let mut prev_id: Option<u64> = None;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        if rest.len() < FRAME_HEADER_BYTES {
            out.truncated = 1;
            break;
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
        let id = u64::from_le_bytes(rest[4..12].try_into().unwrap());
        let crc = u64::from_le_bytes(rest[12..20].try_into().unwrap());
        if len > MAX_FRAME_BYTES || rest.len() < FRAME_HEADER_BYTES + len {
            out.truncated = 1;
            break;
        }
        let payload = &rest[FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + len];
        if frame_crc(id, payload) != crc || prev_id.is_some_and(|p| id <= p) {
            out.truncated = 1;
            break;
        }
        prev_id = Some(id);
        out.frames.push(WalFrame {
            id,
            payload: payload.to_vec(),
        });
        pos += FRAME_HEADER_BYTES + len;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ddn-wal-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    #[test]
    fn append_read_round_trip() {
        let path = scratch("roundtrip");
        let mut w = WalWriter::create(&path, 1).unwrap();
        assert_eq!(w.append(b"alpha").unwrap(), 1);
        assert_eq!(w.append(b"beta").unwrap(), 2);
        assert_eq!(w.next_id(), 3);
        let r = read_wal(&path).unwrap();
        assert_eq!(r.truncated, 0);
        assert_eq!(
            r.frames,
            vec![
                WalFrame {
                    id: 1,
                    payload: b"alpha".to_vec()
                },
                WalFrame {
                    id: 2,
                    payload: b"beta".to_vec()
                },
            ]
        );
    }

    #[test]
    fn missing_and_empty_files_read_clean() {
        let path = scratch("absent");
        let r = read_wal(&path).unwrap();
        assert!(r.frames.is_empty());
        assert_eq!(r.truncated, 0);
        fs::write(&path, b"").unwrap();
        let r = read_wal(&path).unwrap();
        assert!(r.frames.is_empty());
        assert_eq!(r.truncated, 0);
    }

    #[test]
    fn every_torn_tail_byte_offset_recovers_the_acked_prefix() {
        let path = scratch("torn");
        let mut w = WalWriter::create(&path, 1).unwrap();
        w.append(b"first frame").unwrap();
        let intact = fs::read(&path).unwrap();
        let tail = encode_frame(2, b"second frame, torn mid-write");
        // Simulate a kill at every byte offset inside the in-flight frame.
        for cut in 0..tail.len() {
            let mut torn = intact.clone();
            torn.extend_from_slice(&tail[..cut]);
            fs::write(&path, &torn).unwrap();
            let r = read_wal(&path).unwrap();
            assert_eq!(r.frames.len(), 1, "cut at {cut}");
            assert_eq!(r.frames[0].payload, b"first frame");
            assert_eq!(r.truncated, if cut == 0 { 0 } else { 1 }, "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_checksum_and_bad_magic_stop_the_scan() {
        let path = scratch("crc");
        let mut w = WalWriter::create(&path, 1).unwrap();
        w.append(b"good").unwrap();
        w.append(b"evil").unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01; // flip a payload byte of the second frame
        fs::write(&path, &bytes).unwrap();
        let r = read_wal(&path).unwrap();
        assert_eq!(r.frames.len(), 1);
        assert_eq!(r.truncated, 1);

        fs::write(&path, b"NOTAWAL!rest").unwrap();
        let r = read_wal(&path).unwrap();
        assert!(r.frames.is_empty());
        assert_eq!(r.truncated, 1);
    }

    #[test]
    fn an_oversize_payload_is_refused_without_touching_the_log() {
        let path = scratch("oversize");
        let mut w = WalWriter::create(&path, 1).unwrap();
        w.append(b"kept").unwrap();
        let len = fs::metadata(&path).unwrap().len();
        // Zeroed, never written: the pages stay unmapped.
        let huge = vec![0u8; MAX_FRAME_BYTES + 1];
        let err = w.append(&huge).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert_eq!(fs::metadata(&path).unwrap().len(), len);
        assert_eq!(w.bytes_written(), len);
        assert_eq!(w.next_id(), 2);
        assert_eq!(w.append(b"next").unwrap(), 2);
        assert_eq!(read_wal(&path).unwrap().frames.len(), 2);
    }

    #[test]
    fn non_monotonic_ids_are_corruption() {
        let path = scratch("ids");
        let mut bytes = WAL_MAGIC.to_vec();
        bytes.extend_from_slice(&encode_frame(5, b"a"));
        bytes.extend_from_slice(&encode_frame(5, b"b"));
        fs::write(&path, &bytes).unwrap();
        let r = read_wal(&path).unwrap();
        assert_eq!(r.frames.len(), 1);
        assert_eq!(r.truncated, 1);
    }
}
