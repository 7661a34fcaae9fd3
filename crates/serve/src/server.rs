//! The TCP transport: one readiness-driven event loop and the sharded
//! worker pool.
//!
//! ## Threading model (DESIGN.md §14)
//!
//! ```text
//! event loop (one thread)                  shard workers (own the sessions)
//!   epoll over listener, every               log payload, Engine::apply,
//!   connection and a completion waker        book metrics, render the reply
//!   accept / read / frame / write                 ▲                  │
//!   Request::decode(payload)                      │                  │
//!   answer health / stats / shutdown              │                  │
//!   hash(session) → shard ── try_send ────────────┘                  │
//!        ▲                   (bounded; a full queue parks)           │
//!        └──────────── Completion {conn, bytes} + waker ◀────────────┘
//! ```
//!
//! The event loop owns every socket: it accepts, reads, splits the byte
//! stream into requests (newline-delimited JSON or length-prefixed
//! binary frames), decodes each with [`Request::decode`], and writes
//! responses — all nonblocking, so one thread holds ~100k idle
//! connections at a few hundred bytes each instead of a stack per
//! connection. It answers `health`, `stats` and `shutdown` itself and
//! hands `init`, `ingest` and `estimate` straight to the session's
//! shard, which renders the reply bytes and queues them back to the
//! loop through an eventfd waker: a request crosses two threads.
//!
//! A shard verb reaches its shard as the decoded request plus the bytes
//! it arrived as. With durability on, the worker logs an `init` or
//! `ingest` payload verbatim before applying it; without, it drops the
//! bytes. Live requests and WAL recovery both apply through
//! [`Engine::apply`], so the two cannot drift apart.
//!
//! Each connection is stop-and-wait: one request in flight at a time,
//! responses written in request order. Pipelined bytes wait in the
//! connection's input buffer. While a request is in flight the socket
//! is deregistered from epoll entirely (a mere zero interest mask would
//! still report `EPOLLHUP` and spin a level-triggered loop).
//!
//! Each session lives on exactly one shard (chosen by hashing its id), so
//! session state needs no synchronization and requests for one session
//! are processed in arrival order — an `estimate` sent after an `ingest`
//! on the same connection always sees the ingested records.
//!
//! All socket I/O goes through the [`Transport`] abstraction; chaos tests
//! install a [`ServeConfig::wrap`] hook to interpose a deterministic
//! fault injector between the protocol layer and the kernel.
//!
//! ## Backpressure
//!
//! Shard queues are bounded ([`ServeConfig::queue_capacity`] messages
//! per shard), and the loop never blocks on one. It offers each request
//! with a non-blocking send; when the shard's queue is full, or requests
//! for that shard are already parked, it counts a
//! `serve.backpressure.stalls` event and parks the request, oldest
//! first per shard. Parked requests are offered again on every loop
//! turn, after completions drain: a full queue holds requests whose
//! completions wake the loop. The client that sent a parked request
//! waits (stop-and-wait); connections served by other shards keep
//! flowing.
//!
//! `health` and `stats {"flight":true}` ask every shard in turn from the
//! loop, a blocking send and receive. That cannot deadlock: a shard
//! never waits on the loop, because the completion queue is unbounded
//! (one reply per in-flight connection) and the waker is nonblocking.
//!
//! ## Fault isolation
//!
//! A connection that sends junk bytes, a torn line or frame, or an
//! oversized line gets an error response (or is dropped at EOF) without
//! affecting other connections; such events count
//! `serve.fault.conn_errors`. A shard worker that panics mid-request is
//! caught ([`std::panic::catch_unwind`] inside [`Engine::apply`]), the
//! session whose request panicked is quarantined (its state may be
//! half-applied), and the worker keeps serving its other sessions — the
//! panic costs one session, not the server. Quarantined sessions answer
//! every request with a `degraded` error (re-`init` lifts the
//! quarantine) and show up in `health` under `serve/<session>/degraded`.
//!
//! A reply that ends its connection (an unframeable frame, the
//! `shutdown` ack) is flushed, then the loop shuts the write half and
//! discards input until the peer's EOF. Closing a socket with unread
//! input makes the kernel send a reset, which can destroy the reply
//! before the peer reads it.
//!
//! ## Shutdown contract
//!
//! A `shutdown` verb (the SIGTERM-equivalent for this zero-dependency
//! server) or [`ServerHandle::shutdown`] sets a flag; the handle also
//! wakes the event loop. The loop stops accepting, closes idle
//! connections (at once, even half-closed ones whose peer never closes),
//! lets in-flight and parked requests finish and flush, then exits;
//! dropping its shard senders stops the workers. [`ServerHandle::shutdown`]
//! joins every thread — loop and workers — so when it returns the
//! process holds no server state and no thread or fd has leaked.

use crate::engine::{Engine, Outcome};
use crate::eventloop::{Epoll, Event, Waker, EPOLLIN, EPOLLOUT};
use crate::flightrec::{flightrec_path, FlightRecorder};
use crate::frame::{self, FRAME_MAGIC, FRAME_PREFIX_BYTES};
use crate::protocol::{attach_id, error_response, ok_response, Request};
use crate::snapshot::{check_meta, RecoverReport, ShardDurability};
use crate::transport::{TcpTransport, Transport};
use crate::wal::MAX_FRAME_BYTES;
use ddn_stats::Json;
use ddn_telemetry::{Collector, Counter, Gauge, Histogram, Registry, TelemetrySnapshot};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hook type for [`ServeConfig::wrap`]: interposes on every accepted
/// connection's transport.
pub type TransportWrap = Arc<dyn Fn(Box<dyn Transport>) -> Box<dyn Transport> + Send + Sync>;

/// Server configuration.
#[derive(Clone)]
pub struct ServeConfig {
    /// Address to bind; port 0 picks an ephemeral port.
    pub addr: String,
    /// Number of shard workers (each owns a disjoint set of sessions).
    pub shards: usize,
    /// Bounded queue capacity per shard, in messages.
    pub queue_capacity: usize,
    /// Hard cap on one request line, in bytes; longer lines get an error
    /// response and are discarded without buffering (anti-DoS). Binary
    /// frames are capped separately at the WAL frame limit (64 MiB,
    /// [`MAX_FRAME_BYTES`]), which this cap may not exceed: the WAL logs
    /// each request as it arrived, so the two caps bound every frame.
    pub max_line_bytes: usize,
    /// Optional hook wrapping every accepted connection's transport
    /// (chaos tests inject faults here).
    pub wrap: Option<TransportWrap>,
    /// Test-only failpoint: an `ingest` whose session id contains this
    /// marker panics inside [`Engine::apply`], exercising the panic
    /// isolation path deterministically.
    pub failpoint: Option<String>,
    /// Durable-state directory. `None` (the default) keeps all session
    /// state in memory; `Some` enables per-shard write-ahead logging,
    /// periodic snapshots, and crash-resume on startup (DESIGN.md §12).
    pub data_dir: Option<PathBuf>,
    /// Snapshot cadence in WAL frames: after this many logged requests a
    /// shard rotates to a fresh snapshot and an empty WAL. Ignored
    /// without [`ServeConfig::data_dir`].
    pub snapshot_every: u64,
    /// Per-shard flight-recorder capacity in events (the post-mortem
    /// ring dumped on worker panic and served by `stats {"flight":true}`).
    pub flight_capacity: usize,
    /// Record per-request trace metrics (queue-wait and handler-time
    /// histograms, flight-recorder events). On by default; the observe
    /// bench turns it off to measure the tracing overhead itself.
    pub trace_requests: bool,
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("addr", &self.addr)
            .field("shards", &self.shards)
            .field("queue_capacity", &self.queue_capacity)
            .field("max_line_bytes", &self.max_line_bytes)
            .field("wrap", &self.wrap.as_ref().map(|_| "<hook>"))
            .field("failpoint", &self.failpoint)
            .field("data_dir", &self.data_dir)
            .field("snapshot_every", &self.snapshot_every)
            .field("flight_capacity", &self.flight_capacity)
            .field("trace_requests", &self.trace_requests)
            .finish()
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            shards: 4,
            queue_capacity: 256,
            max_line_bytes: 1 << 20,
            wrap: None,
            failpoint: None,
            data_dir: None,
            snapshot_every: 256,
            flight_capacity: 256,
            trace_requests: true,
        }
    }
}

/// Server-wide counters, surfaced by the `health` verb as telemetry
/// counters (`serve.*`).
///
/// Since the observability plane landed (DESIGN.md §13) the monotonic
/// counters live in the server's [`Registry`] — the same instance the
/// `stats` verb snapshots — so there is exactly one source of truth;
/// the accessor methods below are thin reads of the registry handles.
/// The two up/down values (`conn_active`, `queue_depth`) stay plain
/// atomics (a [`Counter`] is monotonic) and are mirrored into registry
/// *gauges* of the same name on every change.
pub struct ServerStats {
    registry: Arc<Registry>,
    ingest_records: Arc<Counter>,
    backpressure_stalls: Arc<Counter>,
    dedup_replays: Arc<Counter>,
    fault_conn_errors: Arc<Counter>,
    fault_worker_restarts: Arc<Counter>,
    wal_frames: Arc<Counter>,
    wal_bytes: Arc<Counter>,
    snapshot_writes: Arc<Counter>,
    snapshot_bytes: Arc<Counter>,
    recover_frames_replayed: Arc<Counter>,
    recover_truncated_frames: Arc<Counter>,
    recover_sessions: Arc<Counter>,
    conn_active: AtomicU64,
    queue_depth: AtomicU64,
    conn_gauge: Arc<Gauge>,
    queue_gauge: Arc<Gauge>,
}

impl Default for ServerStats {
    /// Builds stats over a fresh private registry. Each server gets its
    /// own instance (never [`Registry::global`]): tests run many servers
    /// in one process, and the `stats` determinism contract — identical
    /// workloads produce identical snapshots — requires isolation.
    fn default() -> Self {
        let registry = Arc::new(Registry::new());
        Self {
            ingest_records: registry.counter("serve.ingest.records"),
            backpressure_stalls: registry.counter("serve.backpressure.stalls"),
            dedup_replays: registry.counter("serve.dedup.replays"),
            fault_conn_errors: registry.counter("serve.fault.conn_errors"),
            fault_worker_restarts: registry.counter("serve.fault.worker_restarts"),
            wal_frames: registry.counter("serve.wal.frames"),
            wal_bytes: registry.counter("serve.wal.bytes"),
            snapshot_writes: registry.counter("serve.snapshot.writes"),
            snapshot_bytes: registry.counter("serve.snapshot.bytes"),
            recover_frames_replayed: registry.counter("serve.recover.frames_replayed"),
            recover_truncated_frames: registry.counter("serve.recover.truncated_frames"),
            recover_sessions: registry.counter("serve.recover.sessions"),
            conn_active: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            conn_gauge: registry.gauge("serve.conn.active"),
            queue_gauge: registry.gauge("serve.queue.depth"),
            registry,
        }
    }
}

impl ServerStats {
    /// The live metric registry backing these counters — the object the
    /// `stats` verb snapshots, and where the per-verb/per-shard request
    /// histograms and gauges live.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Total records accepted across all sessions. Replayed (duplicate)
    /// batches do not count: this is the exactly-once tally.
    pub fn ingest_records(&self) -> u64 {
        self.ingest_records.get()
    }

    /// Connections currently open.
    pub fn conn_active(&self) -> u64 {
        self.conn_active.load(Ordering::Relaxed)
    }

    /// Requests the event loop parked because their shard queue was full
    /// (or held parked requests already).
    pub fn backpressure_stalls(&self) -> u64 {
        self.backpressure_stalls.get()
    }

    /// Messages currently queued across all shards.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Sequenced ingest batches answered from the dedup window instead of
    /// being re-applied (each one is a retry the protocol made safe).
    pub fn dedup_replays(&self) -> u64 {
        self.dedup_replays.get()
    }

    /// Connection-level faults survived: read/write errors, torn lines or
    /// frames at EOF, oversized lines, unframeable frames.
    pub fn fault_conn_errors(&self) -> u64 {
        self.fault_conn_errors.get()
    }

    /// Shard-worker panics caught and recovered from (one quarantined
    /// session each).
    pub fn fault_worker_restarts(&self) -> u64 {
        self.fault_worker_restarts.get()
    }

    /// WAL frames appended across all shards (zero with durability off).
    pub fn wal_frames(&self) -> u64 {
        self.wal_frames.get()
    }

    /// WAL bytes appended across all shards, frame headers included.
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes.get()
    }

    /// Snapshot files written (the one each shard writes at startup
    /// after recovery counts too).
    pub fn snapshot_writes(&self) -> u64 {
        self.snapshot_writes.get()
    }

    /// Bytes of every snapshot file written, startup ones included.
    pub fn snapshot_bytes(&self) -> u64 {
        self.snapshot_bytes.get()
    }

    /// WAL frames replayed during startup recovery.
    pub fn recover_frames_replayed(&self) -> u64 {
        self.recover_frames_replayed.get()
    }

    /// Invalid WAL tail frames discarded during startup recovery (torn
    /// writes, checksum failures).
    pub fn recover_truncated_frames(&self) -> u64 {
        self.recover_truncated_frames.get()
    }

    /// Sessions restored from snapshots during startup recovery.
    pub fn recover_sessions(&self) -> u64 {
        self.recover_sessions.get()
    }

    fn conn_opened(&self) {
        let now = self.conn_active.fetch_add(1, Ordering::Relaxed) + 1;
        self.conn_gauge.set(now as f64);
    }

    fn conn_closed(&self) {
        let now = self.conn_active.fetch_sub(1, Ordering::Relaxed) - 1;
        self.conn_gauge.set(now as f64);
    }

    fn queue_inc(&self) {
        let now = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_gauge.set(now as f64);
    }

    fn queue_dec(&self) {
        let now = self.queue_depth.fetch_sub(1, Ordering::Relaxed) - 1;
        self.queue_gauge.set(now as f64);
    }

    /// Folds one shard's startup recovery into the counters.
    fn record_recovery(&self, report: &RecoverReport) {
        self.recover_sessions.add(report.sessions);
        self.recover_frames_replayed.add(report.frames_replayed);
        self.recover_truncated_frames.add(report.truncated_frames);
    }

    /// Books the snapshot `d` wrote last — at startup (opening a shard's
    /// durable state writes its post-recovery snapshot) or at a rotation
    /// — into the write and byte counters and the shard's `write_ns`
    /// histogram.
    fn record_snapshot(&self, write_ns: &Histogram, d: &ShardDurability) {
        let w = d.last_snapshot();
        self.snapshot_writes.inc();
        self.snapshot_bytes.add(w.bytes);
        write_ns.record(w.nanos);
    }

    /// The counters as a telemetry collector (merged into `health`
    /// snapshots alongside per-shard estimator health).
    pub fn collector(&self) -> Collector {
        let mut c = Collector::default();
        c.counts.push(("serve.ingest.records", self.ingest_records()));
        c.counts.push(("serve.queue.depth", self.queue_depth()));
        c.counts.push(("serve.conn.active", self.conn_active()));
        c.counts
            .push(("serve.backpressure.stalls", self.backpressure_stalls()));
        c.counts.push(("serve.dedup.replays", self.dedup_replays()));
        c.counts
            .push(("serve.fault.conn_errors", self.fault_conn_errors()));
        c.counts
            .push(("serve.fault.worker_restarts", self.fault_worker_restarts()));
        c.counts.push(("serve.wal.frames", self.wal_frames()));
        c.counts.push(("serve.wal.bytes", self.wal_bytes()));
        c.counts
            .push(("serve.snapshot.writes", self.snapshot_writes()));
        c.counts
            .push(("serve.snapshot.bytes", self.snapshot_bytes()));
        c.counts.push((
            "serve.recover.frames_replayed",
            self.recover_frames_replayed(),
        ));
        c.counts.push((
            "serve.recover.truncated_frames",
            self.recover_truncated_frames(),
        ));
        c.counts
            .push(("serve.recover.sessions", self.recover_sessions()));
        c
    }
}

/// Messages the event loop sends to a shard worker.
enum ShardMsg {
    /// One `init`, `ingest` or `estimate` for a session on this shard.
    /// The worker answers through the loop's [`Outbox`].
    Request {
        req: Request,
        /// The bytes the request arrived as (JSON line without its
        /// newline, or binary frame): the WAL payload (DESIGN.md §12).
        payload: Vec<u8>,
        /// The `"id"` the reply echoes.
        id: Option<Json>,
        /// The connection the reply goes to.
        conn: u64,
        /// When the loop first offered the request, for the queue-wait
        /// histogram: time parked on the loop counts as queue wait.
        at: Instant,
    },
    /// Health probe: the shard answers with its estimator-health
    /// collector.
    Collect(Sender<Collector>),
    /// Flight-recorder read: the shard answers with its ring as a JSON
    /// array (oldest first) and, when `dump` is set and durability is
    /// configured, also rewrites `flightrec-<shard>.jsonl`.
    Flight { dump: bool, reply: Sender<Json> },
}

/// Per-verb request metrics: the shared request counter plus this
/// shard's latency histograms (queue wait and handler wall time, both
/// in nanoseconds).
struct ReqMetrics {
    count: Arc<Counter>,
    queue_ns: Arc<Histogram>,
    handle_ns: Arc<Histogram>,
}

impl ReqMetrics {
    fn shard(reg: &Registry, verb: &str, shard: usize) -> Self {
        Self {
            count: reg.counter(&format!("serve.req.{verb}")),
            queue_ns: reg.histogram(&format!("serve.req.{verb}.queue_ns.s{shard}")),
            handle_ns: reg.histogram(&format!("serve.req.{verb}.handle_ns.s{shard}")),
        }
    }
}

/// One shard worker's metric handles, resolved once before the worker
/// spawns — the hot loop never touches the registry mutex, and every
/// shard's metric names exist in the registry before any traffic
/// arrives (so the `stats` key set is workload-independent).
struct ShardMetrics {
    init: ReqMetrics,
    ingest: ReqMetrics,
    estimate: ReqMetrics,
    /// Live (non-quarantined) sessions on this shard.
    sessions: Arc<Gauge>,
    /// WAL frames since the last snapshot rotation, as of this shard's
    /// most recent logged request (set at log time, not rotation time,
    /// so the value is settled before the request's reply is sent).
    wal_lag: Arc<Gauge>,
    /// Wall time of each snapshot this shard writes: encode, write,
    /// fsync and rename, on the shard thread.
    snapshot_write_ns: Arc<Histogram>,
}

impl ShardMetrics {
    fn new(reg: &Registry, shard: usize) -> Self {
        Self {
            init: ReqMetrics::shard(reg, "init", shard),
            ingest: ReqMetrics::shard(reg, "ingest", shard),
            estimate: ReqMetrics::shard(reg, "estimate", shard),
            sessions: reg.gauge(&format!("serve.sessions.live.s{shard}")),
            wal_lag: reg.gauge(&format!("serve.wal.lag_frames.s{shard}")),
            snapshot_write_ns: reg.histogram(&format!("serve.snapshot.write_ns.s{shard}")),
        }
    }
}

/// Everything a shard worker needs besides its sessions — its
/// observability handles and the way back to the event loop — bundled
/// so the worker signature stays readable.
struct ShardCtx {
    shard: usize,
    trace: bool,
    flight_capacity: usize,
    /// Where panic dumps and on-demand dumps go (the durability dir).
    flight_dir: Option<PathBuf>,
    metrics: ShardMetrics,
    outbox: Outbox,
}

/// Saturating nanosecond count of a duration.
fn duration_ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// Books one finished request: counts it, records queue-wait and
/// handler latency (when tracing), and appends a flight event. Called
/// BEFORE the reply is sent, so a client that reads `stats` right after
/// its response always sees its own request counted — the per-verb
/// histogram-total == counter invariant holds at every observable
/// moment.
#[allow(clippy::too_many_arguments)]
fn observe_request(
    ctx: &ShardCtx,
    flight: &mut FlightRecorder,
    metrics: &ReqMetrics,
    verb: &'static str,
    session: &str,
    seq: Option<u64>,
    records: u64,
    outcome: Outcome,
    at: Instant,
    started: Instant,
) {
    metrics.count.inc();
    let dur_ns = if ctx.trace {
        let wait_ns = duration_ns(started.duration_since(at));
        let dur_ns = duration_ns(started.elapsed());
        metrics.queue_ns.record(wait_ns);
        metrics.handle_ns.record(dur_ns);
        dur_ns
    } else {
        0
    };
    flight.push(verb, session, seq, records, outcome.as_str(), dur_ns);
}

/// A running server. Dropping the handle does NOT stop the server; call
/// [`ServerHandle::shutdown`] for a clean stop.
pub struct ServerHandle {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    waker: Waker,
    stats: Arc<ServerStats>,
    event_loop: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The live server counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Requests shutdown and joins every server thread. Idempotent-safe
    /// with a client-sent `shutdown` verb (both paths set the same flag).
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the event loop if it is parked in epoll_wait.
        self.waker.wake();
        self.join();
    }

    /// Blocks until the server stops — i.e. until some client sends the
    /// `shutdown` verb — then joins every thread. This is what
    /// `ddn serve` does after printing the bound address.
    pub fn join(mut self) {
        // The event loop exits once drained, and dropping its shard
        // senders stops the workers — join in that dependency order.
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Fallback epoll timeout: how long the loop waits with no events
/// before re-checking the shutdown flag (belt-and-braces — shutdown
/// paths also wake the loop explicitly).
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Epoll token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Epoll token of the completion waker eventfd.
const TOKEN_WAKER: u64 = 1;
/// First token handed to an accepted connection.
const TOKEN_CONN0: u64 = 2;

/// A rendered reply headed back to the event loop for writing.
struct Completion {
    conn: u64,
    /// The exact bytes to write (response JSON + `\n`).
    bytes: Vec<u8>,
}

/// The way back to the event loop: its completion queue plus the waker
/// that makes it drain the queue. Neither blocks — the queue is
/// unbounded, holding at most one reply per in-flight connection, and
/// the waker is a nonblocking eventfd — so a shard never waits on the
/// loop.
#[derive(Clone)]
struct Outbox {
    done: Sender<Completion>,
    waker: Waker,
}

impl Outbox {
    /// Queues `resp`, with the echoed `id`, as the reply line for
    /// `conn`, and wakes the loop.
    fn reply(&self, conn: u64, id: Option<Json>, resp: Json) {
        let mut bytes = attach_id(resp, id).to_string().into_bytes();
        bytes.push(b'\n');
        // A closed queue means the loop has exited: nobody is waiting.
        if self.done.send(Completion { conn, bytes }).is_ok() {
            self.waker.wake();
        }
    }
}

/// Binds `config.addr` and starts the event loop and the shard
/// workers. Any startup failure — an invalid config (`InvalidInput`),
/// bind, epoll/eventfd creation, thread spawn under resource exhaustion
/// — returns an `io::Error` instead of panicking, so `ddn serve` exits 1
/// with a message.
pub fn serve(config: &ServeConfig) -> std::io::Result<ServerHandle> {
    for (bad, msg) in [
        (config.shards == 0, "need at least one shard"),
        (
            config.queue_capacity == 0,
            "queue capacity must be positive",
        ),
        (config.max_line_bytes == 0, "line cap must be positive"),
        (
            config.max_line_bytes > MAX_FRAME_BYTES,
            "line cap exceeds the WAL frame cap",
        ),
    ] {
        if bad {
            return Err(std::io::Error::new(ErrorKind::InvalidInput, msg));
        }
    }
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(ServerStats::default());
    let waker = Waker::new()?;
    let (done_tx, done_rx) = channel::<Completion>();
    let outbox = Outbox {
        done: done_tx,
        waker: waker.clone(),
    };

    // Crash-resume happens here, on the caller's thread, before any
    // traffic can arrive: each shard restores its snapshot and replays
    // its WAL tail, so serve() returning means recovery is complete.
    if let Some(dir) = &config.data_dir {
        check_meta(dir, config.shards)?;
    }
    let mut senders = Vec::with_capacity(config.shards);
    let mut workers = Vec::with_capacity(config.shards);
    for i in 0..config.shards {
        let (tx, rx) = sync_channel::<ShardMsg>(config.queue_capacity);
        senders.push(tx);
        let stats = Arc::clone(&stats);
        let failpoint = config.failpoint.clone();
        // Resolving the metric handles here (not in the worker) means
        // every shard's metric names are registered before serve()
        // returns, so the `stats` key set does not depend on which
        // shards happen to receive traffic. (Loop-handled verbs get the
        // same treatment just below the shard loop.)
        let metrics = ShardMetrics::new(stats.registry(), i);
        let mut engine = Engine::new();
        let mut poisoned: HashSet<String> = HashSet::new();
        let durability = match &config.data_dir {
            None => None,
            Some(dir) => {
                let (d, report) = ShardDurability::open(
                    dir,
                    i,
                    config.snapshot_every,
                    failpoint.as_deref(),
                    &mut engine,
                    &mut poisoned,
                )?;
                stats.record_recovery(&report);
                stats.record_snapshot(&metrics.snapshot_write_ns, &d);
                Some(d)
            }
        };
        let ctx = ShardCtx {
            shard: i,
            trace: config.trace_requests,
            flight_capacity: config.flight_capacity,
            flight_dir: config.data_dir.clone(),
            metrics,
            outbox: outbox.clone(),
        };
        let spawned = std::thread::Builder::new()
            .name(format!("ddn-serve-shard-{i}"))
            .spawn(move || {
                shard_worker(rx, stats, failpoint, engine, poisoned, durability, ctx)
            });
        match spawned {
            Ok(h) => workers.push(h),
            Err(e) => {
                // Dropping `senders` disconnects the already-spawned
                // workers' receive loops; they exit on their own.
                drop(senders);
                for h in workers {
                    let _ = h.join();
                }
                return Err(std::io::Error::new(
                    e.kind(),
                    format!("cannot spawn shard worker {i}: {e}"),
                ));
            }
        }
    }

    // Eagerly register the loop-handled verbs too, so an idle server
    // and a busy one expose the same `stats` key set.
    for verb in ["health", "stats", "shutdown"] {
        stats.registry().counter(&format!("serve.req.{verb}"));
        stats
            .registry()
            .histogram(&format!("serve.req.{verb}.handle_ns"));
    }

    // All event-loop resources are created here, on the caller's
    // thread, so their failures surface as io::Error from serve().
    let cleanup = |senders: Vec<SyncSender<ShardMsg>>, workers: Vec<JoinHandle<()>>, e: std::io::Error| {
        drop(senders);
        for h in workers {
            let _ = h.join();
        }
        e
    };
    macro_rules! try_startup {
        ($expr:expr) => {
            match $expr {
                Ok(v) => v,
                Err(e) => return Err(cleanup(senders, workers, e)),
            }
        };
    }
    let epoll = try_startup!(Epoll::new());
    try_startup!(listener.set_nonblocking(true));
    try_startup!(epoll.add(listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN));
    try_startup!(epoll.add(waker.raw(), TOKEN_WAKER, EPOLLIN));

    let router = Router {
        parked: senders.iter().map(|_| VecDeque::new()).collect(),
        senders,
        outbox,
        stats: Arc::clone(&stats),
        shutdown: Arc::clone(&shutdown),
        trace: config.trace_requests,
        max_line_bytes: config.max_line_bytes,
    };
    let wrap = config.wrap.clone();
    let spawned = std::thread::Builder::new()
        .name("ddn-serve-loop".to_string())
        .spawn(move || event_loop(listener, epoll, done_rx, router, wrap));
    let event_loop = match spawned {
        Ok(h) => h,
        Err(e) => {
            // The shard senders died with the failed closure; the
            // workers unwind through their disconnected channels.
            for h in workers {
                let _ = h.join();
            }
            return Err(std::io::Error::new(
                e.kind(),
                format!("cannot spawn event loop: {e}"),
            ));
        }
    };

    Ok(ServerHandle {
        local_addr,
        shutdown,
        waker,
        stats,
        event_loop: Some(event_loop),
        workers,
    })
}

/// Per-connection state owned by the event loop.
struct Conn {
    transport: Box<dyn Transport>,
    fd: i32,
    /// Bytes read but not yet framed into a request.
    inbuf: Vec<u8>,
    /// Response bytes not yet written, starting at `outpos`.
    outbuf: Vec<u8>,
    outpos: usize,
    /// A request from this connection is with its shard (queued, parked
    /// or being handled); stop-and-wait means no further framing until
    /// its completion arrives.
    in_flight: bool,
    /// The peer closed its write side; drain buffered requests, then
    /// close.
    eof: bool,
    /// Close once `outbuf` drains (shutdown ack, unframeable input):
    /// shut the write half, then discard input until the peer's EOF.
    close_after_flush: bool,
    /// Mid-discard of an oversized JSON line (bytes dropped up to the
    /// next newline, then one error response).
    overflow: bool,
    /// Current epoll interest, `None` when deregistered (in flight).
    interest: Option<u32>,
}

/// What `extract_request` found at the head of a connection's input.
enum Extract {
    /// Not enough bytes yet.
    Need,
    /// A complete request, to decode and answer or route.
    Item(Vec<u8>),
    /// A whitespace-only line: skipped, no response (keep extracting).
    Skip,
    /// An oversized JSON line finished discarding: error, keep conn.
    OverflowedLine,
    /// The frame layer is unrecoverable (bad declared length): error,
    /// then close — the next request boundary is unknowable.
    Unframeable(String),
}

/// Splits one request off the head of `inbuf`, advancing the buffer.
///
/// Mode detection is a 1-byte peek: 0xDB (the first magic byte, which
/// no JSON line can start with) switches to binary framing; anything
/// else is a newline-delimited JSON line. A 0xDB head whose next three
/// bytes don't complete the magic falls back to the line path (it will
/// produce a parse-error response at the next newline, like any junk).
fn extract_request(conn: &mut Conn, max_line_bytes: usize) -> Extract {
    if conn.overflow {
        match conn.inbuf.iter().position(|&b| b == b'\n') {
            Some(i) => {
                conn.inbuf.drain(..=i);
                conn.overflow = false;
                return Extract::OverflowedLine;
            }
            None => {
                conn.inbuf.clear();
                return Extract::Need;
            }
        }
    }
    if conn.inbuf.first() == Some(&FRAME_MAGIC[0]) {
        if conn.inbuf.len() < 4 {
            return Extract::Need;
        }
        if conn.inbuf[..4] == FRAME_MAGIC {
            if conn.inbuf.len() < FRAME_PREFIX_BYTES {
                return Extract::Need;
            }
            let body_len =
                u32::from_le_bytes(conn.inbuf[4..8].try_into().expect("4 bytes")) as usize;
            let total = FRAME_PREFIX_BYTES + body_len + frame::FRAME_CRC_BYTES;
            if total > MAX_FRAME_BYTES {
                return Extract::Unframeable(format!(
                    "binary frame declares {body_len} body bytes, exceeding the \
                     {MAX_FRAME_BYTES}-byte frame cap"
                ));
            }
            if conn.inbuf.len() < total {
                return Extract::Need;
            }
            return Extract::Item(conn.inbuf.drain(..total).collect());
        }
    }
    match conn.inbuf.iter().position(|&b| b == b'\n') {
        Some(i) => {
            if i > max_line_bytes {
                // The cap applies even when the terminator has already
                // arrived: an oversized line is rejected by size, never
                // parsed.
                conn.inbuf.drain(..=i);
                return Extract::OverflowedLine;
            }
            let line: Vec<u8> = conn.inbuf.drain(..=i).take(i).collect();
            // Junk bytes are tolerated: lossy decoding plus parse errors
            // produce an error response, never a dropped connection — but
            // whitespace-only lines get no response at all.
            if String::from_utf8_lossy(&line).trim().is_empty() {
                Extract::Skip
            } else {
                Extract::Item(line)
            }
        }
        None => {
            if conn.inbuf.len() > max_line_bytes {
                // Stop buffering; discard until the newline so the
                // connection can continue with the next request.
                conn.inbuf.clear();
                conn.overflow = true;
            }
            Extract::Need
        }
    }
}

/// Why a connection was closed, for fault accounting.
enum CloseReason {
    /// Clean EOF or an orderly close; no fault counted.
    Clean,
    /// Torn input, socket error, or unframeable bytes.
    Fault,
}

/// Drives one connection as far as it can go without blocking: flush
/// pending output, then frame, decode and answer or route requests
/// (stop-and-wait), then settle the epoll interest. Returns
/// `Some(reason)` when the connection should be closed and removed.
fn pump_conn(
    conn: &mut Conn,
    token: u64,
    epoll: &Epoll,
    router: &mut Router,
    draining: bool,
) -> Option<CloseReason> {
    loop {
        // 1. Flush whatever output is pending.
        while conn.outpos < conn.outbuf.len() {
            match conn.transport.write(&conn.outbuf[conn.outpos..]) {
                Ok(0) => return Some(CloseReason::Fault),
                Ok(n) => conn.outpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    set_interest(conn, token, epoll, Some(EPOLLOUT));
                    return None;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Some(CloseReason::Fault),
            }
        }
        conn.outbuf.clear();
        conn.outpos = 0;
        if conn.close_after_flush {
            if conn.eof || draining {
                return Some(CloseReason::Clean);
            }
            // Closing with unread input would send a reset that can
            // destroy the reply in flight. Shut the write half instead
            // (the peer reads the reply, then EOF) and discard input
            // until the peer closes too.
            let _ = conn.transport.shutdown_write();
            conn.inbuf.clear();
            set_interest(conn, token, epoll, Some(EPOLLIN));
            return None;
        }

        // 2. Stop-and-wait: while a request is with its shard, this
        // connection is deregistered from epoll entirely (a zero
        // interest mask would still surface EPOLLHUP and spin).
        if conn.in_flight {
            set_interest(conn, token, epoll, None);
            return None;
        }

        // 3. Frame the next request off the input buffer.
        match extract_request(conn, router.max_line_bytes) {
            Extract::Skip => continue,
            Extract::Item(payload) => {
                // A request that fails decoding (bad JSON, crc mismatch,
                // malformed frame body) gets an error but keeps the
                // connection: the framer already found the next request
                // boundary.
                let reply = match Request::decode(&payload) {
                    (Ok(req), id) => router.handle(req, payload, id, token),
                    (Err(e), id) => Some((attach_id(error_response(&e), id), false)),
                };
                match reply {
                    Some((resp, close)) => {
                        push_response(conn, &resp);
                        conn.close_after_flush = close;
                    }
                    None => conn.in_flight = true,
                }
            }
            Extract::OverflowedLine => {
                router.stats.fault_conn_errors.inc();
                push_response(
                    conn,
                    &error_response(&format!(
                        "request line exceeds {} bytes",
                        router.max_line_bytes
                    )),
                );
            }
            Extract::Unframeable(msg) => {
                router.stats.fault_conn_errors.inc();
                push_response(conn, &error_response(&msg));
                conn.close_after_flush = true;
            }
            Extract::Need => {
                if conn.eof {
                    // The peer died mid-line or mid-frame; the partial
                    // request is dropped (it was never acknowledged).
                    return Some(if !conn.inbuf.is_empty() || conn.overflow {
                        CloseReason::Fault
                    } else {
                        CloseReason::Clean
                    });
                }
                if draining {
                    // Shutdown: idle connections close now instead of
                    // waiting for more requests.
                    return Some(CloseReason::Clean);
                }
                set_interest(conn, token, epoll, Some(EPOLLIN));
                return None;
            }
        }
    }
}

/// Appends one response (JSON + newline) to a connection's output
/// buffer — the exact byte stream `writeln!` produced in the
/// thread-per-connection server, which chaos byte-offset plans pin.
fn push_response(conn: &mut Conn, resp: &Json) {
    conn.outbuf.extend_from_slice(resp.to_string().as_bytes());
    conn.outbuf.push(b'\n');
}

/// Reconciles a connection's epoll registration with the interest it
/// needs right now (`None` = deregistered).
fn set_interest(conn: &mut Conn, token: u64, epoll: &Epoll, want: Option<u32>) {
    match (conn.interest, want) {
        (None, None) => {}
        (Some(cur), Some(ev)) if cur == ev => {}
        (None, Some(ev)) => {
            if epoll.add(conn.fd, token, ev).is_ok() {
                conn.interest = Some(ev);
            }
        }
        (Some(_), Some(ev)) => {
            if epoll.modify(conn.fd, token, ev).is_ok() {
                conn.interest = Some(ev);
            }
        }
        (Some(_), None) => {
            let _ = epoll.del(conn.fd);
            conn.interest = None;
        }
    }
}

/// Reads everything currently available on a connection. Returns
/// `Some(CloseReason::Fault)` on a socket error; EOF is recorded on the
/// conn (buffered requests still get served) rather than returned.
fn conn_read(conn: &mut Conn) -> Option<CloseReason> {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match conn.transport.read(&mut buf) {
            Ok(0) => {
                conn.eof = true;
                return None;
            }
            Ok(n) => {
                conn.inbuf.extend_from_slice(&buf[..n]);
                if n < buf.len() {
                    // Short read: the socket is drained for now.
                    return None;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return None,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            // Socket-level failure (injected or real): this connection
            // is over, the server is not.
            Err(_) => return Some(CloseReason::Fault),
        }
    }
}

/// The event loop: owns the listener, the epoll instance, and every
/// connection. Never blocks on a socket or a shard queue; blocks only
/// in `epoll_wait` and in the shard round trips of `health` and
/// `stats {"flight":true}`.
fn event_loop(
    listener: TcpListener,
    epoll: Epoll,
    done_rx: Receiver<Completion>,
    mut router: Router,
    wrap: Option<TransportWrap>,
) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = TOKEN_CONN0;
    let mut events: Vec<Event> = Vec::new();
    let mut draining = false;
    let stats = Arc::clone(&router.stats);

    let close = |conn: &mut Conn, epoll: &Epoll, stats: &ServerStats, reason: CloseReason| {
        if let CloseReason::Fault = reason {
            stats.fault_conn_errors.inc();
        }
        if conn.interest.is_some() {
            let _ = epoll.del(conn.fd);
            conn.interest = None;
        }
        stats.conn_closed();
        // Dropping the transport (by the caller removing the conn)
        // closes the socket fd.
    };

    loop {
        // Apply finished responses first: they free connections to
        // either flush + continue or close.
        while let Ok(done) = done_rx.try_recv() {
            let Some(conn) = conns.get_mut(&done.conn) else {
                continue; // connection died while its request was in flight
            };
            conn.in_flight = false;
            conn.outbuf.extend_from_slice(&done.bytes);
            if let Some(reason) = pump_conn(conn, done.conn, &epoll, &mut router, draining) {
                let mut conn = conns.remove(&done.conn).expect("conn exists");
                close(&mut conn, &epoll, &stats, reason);
            }
        }
        // Those completions freed shard queue slots.
        router.retry_parked();

        if !draining && router.shutdown.load(Ordering::SeqCst) {
            draining = true;
            // Stop accepting: deregister the listener (a level-triggered
            // backlog would otherwise spin the loop). It closes — RSTing
            // any queued connects — when the loop exits and drops it.
            let _ = epoll.del(listener.as_raw_fd());
            // Close every idle connection now; in-flight ones finish
            // their response first (pump_conn closes them via `draining`).
            let idle: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| !c.in_flight && c.outpos >= c.outbuf.len())
                .map(|(t, _)| *t)
                .collect();
            for token in idle {
                let mut conn = conns.remove(&token).expect("conn exists");
                close(&mut conn, &epoll, &stats, CloseReason::Clean);
            }
        }
        if draining && conns.is_empty() {
            break;
        }

        events.clear();
        if epoll
            .wait(&mut events, POLL_INTERVAL.as_millis() as i32)
            .is_err()
        {
            // epoll itself failing is unrecoverable for the loop; treat
            // it as shutdown so the process can exit cleanly.
            router.shutdown.store(true, Ordering::SeqCst);
            continue;
        }

        for ev in &events {
            match ev.token {
                TOKEN_WAKER => router.outbox.waker.drain(),
                TOKEN_LISTENER => {
                    if draining {
                        continue;
                    }
                    accept_ready(
                        &listener,
                        &wrap,
                        &epoll,
                        &mut conns,
                        &mut next_token,
                        &stats,
                    );
                }
                token => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue; // stale event for a closed conn
                    };
                    // Reading only when read-interested keeps the fault
                    // injector's byte-offset cursor aligned with the
                    // request stream.
                    let read_err = if conn.interest == Some(EPOLLIN) {
                        conn_read(conn)
                    } else {
                        None
                    };
                    let reason =
                        read_err.or_else(|| pump_conn(conn, token, &epoll, &mut router, draining));
                    if let Some(reason) = reason {
                        let mut conn = conns.remove(&token).expect("conn exists");
                        close(&mut conn, &epoll, &stats, reason);
                    }
                }
            }
        }
    }
    // Loop exit: dropping the router's shard senders stops the workers.
    // The listener, epoll fd, waker ref, and any remaining sockets close
    // here with their owners.
}

/// Accepts every connection currently queued on the (nonblocking)
/// listener and registers each with the event loop.
fn accept_ready(
    listener: &TcpListener,
    wrap: &Option<TransportWrap>,
    epoll: &Epoll,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    stats: &ServerStats,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            // Transient per-connection accept failures (e.g. the peer
            // aborted while queued): the listener stays healthy, and
            // level-triggered epoll re-reports any remaining backlog.
            Err(_) => return,
        };
        let mut transport: Box<dyn Transport> = Box::new(TcpTransport::new(stream));
        if let Some(wrap) = wrap {
            transport = wrap(transport);
        }
        if transport.set_nonblocking(true).is_err() {
            continue;
        }
        // A transport without an fd cannot be readiness-driven; no
        // production or test transport is fd-less, so just drop it.
        let Some(fd) = transport.raw_fd() else {
            continue;
        };
        let token = *next_token;
        *next_token += 1;
        let mut conn = Conn {
            transport,
            fd,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            outpos: 0,
            in_flight: false,
            eof: false,
            close_after_flush: false,
            overflow: false,
            interest: None,
        };
        if epoll.add(fd, token, EPOLLIN).is_err() {
            continue;
        }
        conn.interest = Some(EPOLLIN);
        stats.conn_opened();
        conns.insert(token, conn);
    }
}

/// Write-ahead-logs one request payload (a JSON line or a binary frame,
/// as it arrived), updating the WAL counters — the `write_ahead` step
/// of [`Engine::apply`]. `Ok(())` with no durability configured.
fn wal_log(
    durability: &mut Option<ShardDurability>,
    stats: &ServerStats,
    wal_lag: &Gauge,
    payload: &[u8],
) -> std::io::Result<()> {
    if let Some(d) = durability {
        let bytes = d.log_request(payload)?;
        stats.wal_frames.inc();
        stats.wal_bytes.add(bytes as u64);
        // Set at log time (not rotation time) so the gauge is settled
        // before this request's reply goes out; it reads as "frames a
        // restart would replay, as of the last logged request".
        wal_lag.set(d.frames_since_snapshot() as f64);
    }
    Ok(())
}

/// Rotates to a fresh snapshot when the cadence says so. Snapshot I/O
/// failures are deliberately non-fatal: the WAL already holds every
/// acknowledged request, so losing a rotation costs replay time at the
/// next startup, not state.
fn wal_maybe_snapshot(
    durability: &mut Option<ShardDurability>,
    stats: &ServerStats,
    write_ns: &Histogram,
    engine: &Engine,
    poisoned: &HashSet<String>,
) {
    if let Some(d) = durability {
        match d.maybe_snapshot(engine, poisoned) {
            Ok(true) => stats.record_snapshot(write_ns, d),
            Ok(false) => {}
            Err(e) => eprintln!("ddn-serve: snapshot write failed: {e}"),
        }
    }
}

fn shard_worker(
    rx: Receiver<ShardMsg>,
    stats: Arc<ServerStats>,
    failpoint: Option<String>,
    mut engine: Engine,
    // Sessions whose request panicked: their state is untrustworthy, so
    // they answer `degraded` until a client re-inits them. Recovery
    // pre-populates this from the snapshot.
    mut poisoned: HashSet<String>,
    mut durability: Option<ShardDurability>,
    ctx: ShardCtx,
) {
    let mut flight = FlightRecorder::new(ctx.flight_capacity);
    while let Ok(msg) = rx.recv() {
        stats.queue_dec();
        match msg {
            ShardMsg::Request {
                req,
                payload,
                id,
                conn,
                at,
            } => {
                let started = Instant::now();
                let (metrics, verb, seq, records) = match &req {
                    Request::Init(_) => (&ctx.metrics.init, "init", None, 0),
                    Request::Ingest { records, seq, .. } => {
                        (&ctx.metrics.ingest, "ingest", *seq, records.len() as u64)
                    }
                    _ => (&ctx.metrics.estimate, "estimate", None, 0),
                };
                let session = req.session().unwrap_or_default().to_string();
                // Write-ahead of the verdict, whatever it turns out to be:
                // even a rejected sequenced batch consumes its sequence
                // number, so replay must reproduce the rejection.
                let (resp, outcome) =
                    engine.apply(req, &mut poisoned, failpoint.as_deref(), || {
                        wal_log(&mut durability, &stats, &ctx.metrics.wal_lag, &payload)
                    });
                match outcome {
                    Outcome::Duplicate => stats.dedup_replays.inc(),
                    Outcome::Panic => stats.fault_worker_restarts.inc(),
                    Outcome::Ok | Outcome::Error => {
                        if let Some(accepted) = resp.get("accepted").and_then(Json::as_u64) {
                            stats.ingest_records.add(accepted);
                        }
                    }
                }
                ctx.metrics.sessions.set(engine.sessions() as f64);
                observe_request(
                    &ctx,
                    &mut flight,
                    metrics,
                    verb,
                    &session,
                    seq,
                    records,
                    outcome,
                    at,
                    started,
                );
                if outcome == Outcome::Panic {
                    // Post-mortem: dump the ring — ending with the request
                    // that panicked — before answering, so the evidence is
                    // on disk even if the process is killed right after.
                    dump_flight(&ctx, &flight);
                }
                ctx.outbox.reply(conn, id, resp);
                wal_maybe_snapshot(
                    &mut durability,
                    &stats,
                    &ctx.metrics.snapshot_write_ns,
                    &engine,
                    &poisoned,
                );
            }
            ShardMsg::Collect(reply) => {
                let mut c = engine.collector();
                for session in &poisoned {
                    c.health
                        .push((format!("serve/{session}/degraded"), vec![("poisoned", 1.0)]));
                }
                let _ = reply.send(c);
            }
            ShardMsg::Flight { dump, reply } => {
                if dump {
                    dump_flight(&ctx, &flight);
                }
                let _ = reply.send(flight.to_json_array());
            }
        }
    }
}

/// Rewrites this shard's `flightrec-<shard>.jsonl` when durability is
/// configured (a failed dump is reported, never fatal).
fn dump_flight(ctx: &ShardCtx, flight: &FlightRecorder) {
    if let Some(dir) = &ctx.flight_dir {
        if let Err(e) = flight.dump(&flightrec_path(dir, ctx.shard)) {
            eprintln!("ddn-serve: flight-recorder dump failed: {e}");
        }
    }
}

fn shard_of(session: &str, shards: usize) -> usize {
    let mut h = DefaultHasher::new();
    session.hash(&mut h);
    (h.finish() % shards as u64) as usize
}

/// Round-trips one message to a shard and waits for the answer; `msg`
/// wraps the reply channel. `None` when the shard is gone. Blocking on
/// the loop is safe because a shard never waits on the loop (see
/// [`Outbox`]).
fn ask<T>(
    tx: &SyncSender<ShardMsg>,
    stats: &ServerStats,
    msg: impl FnOnce(Sender<T>) -> ShardMsg,
) -> Option<T> {
    let (reply, rx) = channel();
    stats.queue_inc();
    if tx.send(msg(reply)).is_err() {
        stats.queue_dec();
        return None;
    }
    rx.recv().ok()
}

/// Counts (and, when tracing, times) a verb the event loop answers
/// itself — `health`, `stats`, `shutdown`. These are rare, so the
/// per-call registry lookup is fine; the histogram name carries no
/// shard suffix because no shard owns the verb.
fn record_conn_verb(stats: &ServerStats, verb: &str, trace: bool, started: Instant) {
    let reg = stats.registry();
    reg.counter(&format!("serve.req.{verb}")).inc();
    if trace {
        reg.histogram(&format!("serve.req.{verb}.handle_ns"))
            .record(duration_ns(started.elapsed()));
    }
}

/// The event loop's side of every decoded request: it answers the verbs
/// no shard owns and hands the rest to their shard without blocking,
/// parking those a full shard queue refuses.
struct Router {
    senders: Vec<SyncSender<ShardMsg>>,
    /// Requests waiting for room in their shard's queue, oldest first,
    /// one FIFO per shard.
    parked: Vec<VecDeque<ShardMsg>>,
    /// Answers a request whose shard is gone. Its waker is the one the
    /// loop drains.
    outbox: Outbox,
    stats: Arc<ServerStats>,
    shutdown: Arc<AtomicBool>,
    trace: bool,
    max_line_bytes: usize,
}

impl Router {
    /// Answers `health`, `stats` and `shutdown` here, returning the
    /// response (its `id` attached) and whether to close the connection
    /// after it. Routes `init`, `ingest` and `estimate` to the session's
    /// shard and returns `None`: the shard replies through the
    /// [`Outbox`]. `payload` is the bytes the request arrived as.
    fn handle(
        &mut self,
        req: Request,
        payload: Vec<u8>,
        id: Option<Json>,
        conn: u64,
    ) -> Option<(Json, bool)> {
        // Offer time for shard verbs; handler start for loop verbs.
        let at = Instant::now();
        let close = matches!(req, Request::Shutdown);
        let (verb, resp) = match req {
            Request::Health => {
                let mut collectors = vec![self.stats.collector()];
                collectors.extend(
                    self.senders
                        .iter()
                        .filter_map(|tx| ask(tx, &self.stats, ShardMsg::Collect)),
                );
                let mut snap = TelemetrySnapshot::from_runs(&collectors);
                snap.set_threads(self.senders.len());
                ("health", ok_response(vec![("telemetry", snap.to_json())]))
            }
            Request::Stats { flight } => {
                // Snapshot the registry BEFORE booking this request, so
                // the response never counts itself: the first `stats` a
                // client sends reports zero prior `stats` traffic, and
                // every verb's histogram-total == counter invariant holds
                // inside the snapshot (this request's handle_ns is
                // recorded only after the snapshot is taken, together
                // with its counter).
                let snapshot = self.stats.registry().to_json();
                let mut fields = vec![("stats", snapshot)];
                if flight {
                    let shards = self.senders.iter().enumerate().map(|(i, tx)| {
                        let events = ask(tx, &self.stats, |reply| ShardMsg::Flight {
                            dump: true,
                            reply,
                        });
                        (
                            format!("shard-{i}"),
                            events.unwrap_or(Json::Array(Vec::new())),
                        )
                    });
                    fields.push(("flight", Json::Object(shards.collect())));
                }
                ("stats", ok_response(fields))
            }
            Request::Shutdown => {
                // The loop sees the flag at the top of its next turn.
                self.shutdown.store(true, Ordering::SeqCst);
                (
                    "shutdown",
                    ok_response(vec![("shutting_down", Json::Bool(true))]),
                )
            }
            // init, ingest, estimate: to the session's shard.
            _ => {
                let shard = shard_of(req.session().unwrap_or_default(), self.senders.len());
                self.route(
                    shard,
                    ShardMsg::Request {
                        req,
                        payload,
                        id,
                        conn,
                        at,
                    },
                );
                return None;
            }
        };
        record_conn_verb(&self.stats, verb, self.trace, at);
        Some((attach_id(resp, id), close))
    }

    /// Queues a request on its shard, or parks it behind the full queue
    /// (and behind requests parked before it), counting a backpressure
    /// stall. A parked request counts toward the queue depth.
    fn route(&mut self, shard: usize, msg: ShardMsg) {
        self.stats.queue_inc();
        let refused = if self.parked[shard].is_empty() {
            self.offer(shard, msg)
        } else {
            Some(msg)
        };
        if let Some(msg) = refused {
            self.stats.backpressure_stalls.inc();
            self.parked[shard].push_back(msg);
        }
    }

    /// Offers parked requests again, oldest first, until each shard's
    /// queue is full. Run after completions drain: each one freed a
    /// slot.
    fn retry_parked(&mut self) {
        for shard in 0..self.senders.len() {
            while let Some(msg) = self.parked[shard].pop_front() {
                if let Some(msg) = self.offer(shard, msg) {
                    self.parked[shard].push_front(msg);
                    break;
                }
            }
        }
    }

    /// One non-blocking send. A full queue hands the message back; a
    /// gone shard answers its request with an error.
    fn offer(&self, shard: usize, msg: ShardMsg) -> Option<ShardMsg> {
        match self.senders[shard].try_send(msg) {
            Ok(()) => None,
            Err(TrySendError::Full(msg)) => Some(msg),
            Err(TrySendError::Disconnected(msg)) => {
                self.stats.queue_dec();
                if let ShardMsg::Request { conn, id, .. } = msg {
                    let resp = error_response("shard worker unavailable");
                    self.outbox.reply(conn, id, resp);
                }
                None
            }
        }
    }
}
