//! # ddn-serve — streaming ingest + online off-policy evaluation
//!
//! The paper frames its estimators as offline passes over a logged
//! trace, but they are all per-record sums — so the same mathematics
//! runs *while records arrive*. This crate turns the workspace into a
//! service: a zero-dependency TCP server (std::net, newline-delimited
//! JSON reusing `ddn_stats::Json`) that ingests trace records into
//! per-session banks of online estimators (`ddn_estimators::online`) and
//! answers estimate/health queries at any point in the stream, with §4.3
//! coupling change-point detection running live on the reward series.
//!
//! - [`protocol`] — the wire grammar (`init` / `ingest` / `estimate` /
//!   `health` / `shutdown`) and [`Request::decode`], the one decoder.
//! - [`frame`] — the length-prefixed binary columnar batch frame: the
//!   high-throughput ingest encoding (contiguous little-endian columns)
//!   that decodes to the same [`Request::Ingest`] as the JSON verb.
//! - [`engine`] — sessions, estimator banks built from the
//!   `ddn_estimators::menu` registry, the online [`CouplingMonitor`],
//!   and [`Engine::apply`], the apply path live traffic and recovery
//!   share; transport-independent and directly testable.
//! - [`server`] — the readiness-driven TCP front end: `shards + 1`
//!   worker threads share one epoll set, and each reads, decodes and
//!   runs requests on their shard when it is idle; a request for a busy
//!   shard waits in that shard's FIFO for the thread holding it; graceful
//!   shutdown.
//! - [`claim`] — the shard-claim protocol as pure transitions: who runs
//!   each shard's jobs, how an answered connection waits, when the
//!   drain ends. The server carries out what they decide.
//! - [`eventloop`] — the zero-dependency epoll/eventfd layer (raw
//!   syscalls; the only module in the workspace allowed `unsafe`).
//! - [`client`] — a blocking client for `ddn replay-to` and tests, with
//!   bounded retry, deterministic backoff, and per-request timeouts.
//! - [`transport`] — the byte-stream abstraction both endpoints I/O
//!   through; chaos tests wrap it in a deterministic fault injector.
//! - [`flightrec`] — the per-shard flight recorder: a bounded ring of
//!   recent request events dumped on worker panic and served by the
//!   `stats` verb for causal post-mortems.
//! - [`wal`] — the per-shard write-ahead log: length-prefixed,
//!   checksummed frames holding each request as it arrived.
//! - [`snapshot`] — periodic full-state snapshots and crash-resume:
//!   restore the latest valid snapshot, replay the WAL tail, self-heal.
//!
//! See DESIGN.md §10 for the protocol grammar, backpressure semantics
//! and the shutdown contract, §11 for the fault model and the
//! exactly-once ingest contract, §12 for the durability subsystem
//! (WAL format, snapshot cadence, recovery invariants, fsync policy),
//! and §13 for the observability plane (request ids, the `stats` verb,
//! metric naming, flight recorder, `ddn top`), and §14 for the
//! readiness-driven serving threads and the binary frame byte layout.

// `unsafe` is denied everywhere except `eventloop`, which needs raw
// epoll/eventfd syscalls and carries its own file-level allow + audit.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod claim;
pub mod client;
pub mod engine;
pub mod eventloop;
pub mod flightrec;
pub mod frame;
pub mod protocol;
pub mod server;
pub mod snapshot;
pub mod transport;
pub mod wal;

pub use client::{ClientConfig, ClientError, ClientStats, ServeClient};
pub use engine::{CouplingMonitor, Engine, Session};
pub use flightrec::{flightrec_path, FlightEvent, FlightRecorder};
pub use frame::{BinaryBatch, FRAME_MAGIC};
pub use protocol::{InitSpec, PolicySpec, Request};
pub use server::{serve, Count, ServeConfig, ServerHandle, ServerStats};
pub use snapshot::{read_snapshot, write_snapshot, RecoverReport, ShardDurability};
pub use transport::{FaultState, FaultyTransport, IoStream, TcpTransport, Transport};
pub use wal::{read_wal, WalFrame, WalWriter};
