//! The flight recorder: a fixed-size per-shard ring buffer of recent
//! request events, for causal post-mortems.
//!
//! Every request a shard worker handles appends one [`FlightEvent`]
//! (verb, session, sequence number, outcome, duration). The ring keeps
//! only the most recent [`FlightRecorder::capacity`] events, so memory
//! is bounded no matter how long the server runs. Two things read it:
//!
//! - **Panic/quarantine**: when a worker catches a panic it dumps its
//!   ring to `data_dir/flightrec-<shard>.jsonl` (durability directory
//!   configured), so the operator sees exactly which requests — in
//!   order — preceded the blast.
//! - **On demand**: `stats {"flight":true}` returns every shard's ring
//!   inline (and dumps the files too, when a data dir is configured).
//!
//! The dump format is JSONL, oldest event first, one object per line:
//! `{"n":…,"verb":…,"session":…,"seq":…|null,"records":…,"outcome":…,
//! "dur_ns":…}` where `n` is the shard-local monotonic event index
//! (gaps never occur; a dump whose `n`s are not consecutive was
//! corrupted). Outcomes are `"ok"`, `"error"`, `"duplicate"`, and
//! `"panic"`. See DESIGN.md §13.

use ddn_stats::Json;
use std::collections::VecDeque;
use std::io::Write;
use std::path::{Path, PathBuf};

/// One recorded request event.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Shard-local monotonic event index (starts at 0, never reused).
    pub n: u64,
    /// Request verb (`init` / `ingest` / `estimate`).
    pub verb: &'static str,
    /// Session the request targeted.
    pub session: String,
    /// Ingest batch sequence number, if the request carried one.
    pub seq: Option<u64>,
    /// Records in the batch (0 for non-ingest verbs).
    pub records: u64,
    /// `ok`, `error`, `duplicate`, or `panic`.
    pub outcome: &'static str,
    /// Handler wall time in nanoseconds (0 when tracing is disabled).
    pub dur_ns: u64,
}

impl FlightEvent {
    /// The JSONL object form (fixed key order).
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("n", Json::Int(self.n as i64)),
            ("verb", Json::str(self.verb)),
            ("session", Json::str(self.session.clone())),
            (
                "seq",
                match self.seq {
                    Some(q) => Json::Int(q as i64),
                    None => Json::Null,
                },
            ),
            ("records", Json::Int(self.records as i64)),
            ("outcome", Json::str(self.outcome)),
            ("dur_ns", Json::Int(self.dur_ns.min(i64::MAX as u64) as i64)),
        ])
    }
}

/// The dump path for `shard`'s ring under the durability directory.
pub fn flightrec_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("flightrec-{shard}.jsonl"))
}

/// Fixed-capacity ring of the most recent [`FlightEvent`]s on one
/// shard. Single-writer (the shard worker owns it); readers go through
/// the worker's message loop, so no synchronization is needed.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    next_n: u64,
    ring: VecDeque<FlightEvent>,
}

impl FlightRecorder {
    /// Creates an empty ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder capacity must be positive");
        Self {
            capacity,
            next_n: 0,
            ring: VecDeque::with_capacity(capacity),
        }
    }

    /// Maximum events retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Appends one event (evicting the oldest at capacity) and returns
    /// its assigned index.
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        verb: &'static str,
        session: &str,
        seq: Option<u64>,
        records: u64,
        outcome: &'static str,
        dur_ns: u64,
    ) -> u64 {
        let n = self.next_n;
        self.next_n += 1;
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(FlightEvent {
            n,
            verb,
            session: session.to_string(),
            seq,
            records,
            outcome,
            dur_ns,
        });
        n
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> {
        self.ring.iter()
    }

    /// The ring as a JSON array, oldest event first.
    pub fn to_json_array(&self) -> Json {
        Json::Array(self.ring.iter().map(FlightEvent::to_json).collect())
    }

    /// Writes the ring as JSONL to `path` (truncating any previous
    /// dump), oldest event first. The write is best-effort plain I/O —
    /// a dump races no one (the worker owns the ring) and a failed dump
    /// must never take the worker down with it, so callers log and move
    /// on rather than propagating.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for event in &self.ring {
            writeln!(out, "{}", event.to_json())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_keeps_indices_monotonic() {
        let mut rec = FlightRecorder::new(3);
        assert!(rec.is_empty());
        for i in 0..5u64 {
            let n = rec.push("ingest", "s", Some(i), 10, "ok", 100);
            assert_eq!(n, i);
        }
        assert_eq!(rec.len(), 3);
        let ns: Vec<u64> = rec.events().map(|e| e.n).collect();
        assert_eq!(ns, vec![2, 3, 4], "oldest two evicted, order kept");
    }

    #[test]
    fn event_json_shape_is_pinned() {
        let mut rec = FlightRecorder::new(2);
        rec.push("init", "sess", None, 0, "ok", 42);
        rec.push("ingest", "sess", Some(7), 256, "duplicate", 43);
        let arr = rec.to_json_array();
        let events = arr.as_array().unwrap();
        assert_eq!(events.len(), 2);
        let keys: Vec<&str> = events[0]
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            ["n", "verb", "session", "seq", "records", "outcome", "dur_ns"],
            "flight event key order is part of the dump format"
        );
        assert_eq!(events[0].get("seq"), Some(&Json::Null));
        assert_eq!(events[1].get("seq"), Some(&Json::Int(7)));
        assert_eq!(
            events[1].get("outcome").and_then(Json::as_str),
            Some("duplicate")
        );
    }

    #[test]
    fn dump_writes_parseable_jsonl() {
        let mut rec = FlightRecorder::new(8);
        for i in 0..4u64 {
            rec.push(
                "ingest",
                "boom",
                Some(i),
                5,
                if i == 3 { "panic" } else { "ok" },
                9,
            );
        }
        let dir = std::env::temp_dir().join(format!(
            "ddn-flightrec-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = flightrec_path(&dir, 2);
        assert!(path.to_string_lossy().ends_with("flightrec-2.jsonl"));
        rec.dump(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        for (i, line) in lines.iter().enumerate() {
            let v = Json::parse(line).expect("every dumped line parses");
            assert_eq!(v.get("n").and_then(Json::as_u64), Some(i as u64));
        }
        assert!(lines[3].contains("\"outcome\":\"panic\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
