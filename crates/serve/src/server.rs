//! The TCP transport: `shards + 1` worker threads, each both an I/O
//! thread and an executor, over sharded session state.
//!
//! ## Threading model (DESIGN.md §14)
//!
//! ```text
//! every worker (one per shard, plus a standby)
//!   epoll_wait on the one shared set ──▶ one ready connection (one-shot)
//!   read / frame / Request::decode
//!   answer stats / shutdown on the spot
//!   hash(session) → shard k ──▶ idle: claim it and run the request here:
//!                               log, Engine::apply, book, render, write
//!                               the reply, rotate a snapshot when due
//!                          └──▶ busy: leave it in shard k's FIFO; the
//!                               thread holding the shard runs it
//!   re-arm the connection (one epoll_ctl MOD)
//! ```
//!
//! Every worker waits on one epoll set. Connections are registered
//! `EPOLLIN | EPOLLONESHOT`, so a readiness event goes to exactly one
//! worker, which takes the connection out of the token table and owns it
//! until it re-arms it. Nonblocking sockets let a few threads hold
//! ~100k idle connections at a few hundred bytes each instead of a
//! stack per connection. The worker reads, splits the byte stream into
//! requests (newline-delimited JSON or length-prefixed binary frames),
//! and decodes each with [`Request::decode`]. It answers `stats` and
//! `shutdown` itself.
//!
//! `init`, `ingest` and `estimate` belong to the session's shard. A
//! worker that finds the shard idle claims it and runs the request to
//! completion, writing the reply itself: no thread wake, no queue, no
//! eventfd. A request whose shard is busy waits in that shard's FIFO,
//! carrying its connection, and the thread already holding the shard
//! runs it (a `serve.shard.handoffs` event). No worker ever waits for a
//! busy shard, and a thread holds at most one shard at a time, so with
//! one worker more than shards some worker is always free to accept,
//! read, and answer `stats` and `shutdown`: a slow shard delays only its
//! own clients. The extra worker is a standby that never sleeps in
//! epoll: every 5 ms it takes whatever is ready, because each worker
//! asleep in `epoll_wait` is one more to wake per request, and it only
//! finds work while every other worker is busy.
//!
//! `health` and `stats {"flight":true}` visit every shard through the
//! same FIFOs; the thread that adds the last shard's part writes the
//! reply. The reading thread claims each idle shard only for its part:
//! if requests queued meanwhile it passes the shard on (it stays claimed,
//! and the worker that takes the baton eventfd's one-shot event runs
//! them), so no shard's traffic delays another shard's part.
//!
//! Every one of these rules (claim or queue, keep, release or pass a
//! shard, take a passed one, complete a gather, park an answered
//! connection, end the drain) is a transition in [`crate::claim`], where
//! a model checks them under every interleaving. This module is the
//! shell: it takes the lock each transition's state lives under, calls
//! it, and carries out the action it returns.
//!
//! A shard verb travels with the bytes it arrived as. With durability
//! on, `init` and `ingest` payloads are logged verbatim before they are
//! applied; without, the bytes are dropped. Live requests and WAL
//! recovery both apply through [`Engine::apply`], so the two cannot
//! drift apart.
//!
//! Each connection is stop-and-wait: one request in flight at a time,
//! responses written in request order. Pipelined bytes wait in the
//! connection's input buffer. A connection whose next request is already
//! buffered is pumped by the thread that answered it once that thread
//! releases the shard; while the thread goes on running the shard, the
//! connection is armed for output instead, which is ready at once, and a
//! free worker pumps it. A connection is read only after epoll reported
//! it readable (an output event pumps buffered input without reading).
//!
//! Each session lives on exactly one shard (chosen by hashing its id),
//! and a shard runs on one thread at a time, in the order its requests
//! arrived — an `estimate` sent after an `ingest` on the same connection
//! always sees the ingested records.
//!
//! All socket I/O goes through the [`Transport`] abstraction; chaos tests
//! install a [`ServeConfig::wrap`] hook to interpose a deterministic
//! fault injector between the protocol layer and the kernel.
//!
//! ## Backpressure
//!
//! A request that finds another request already waiting for its shard
//! is a stall (`serve.backpressure.stalls`) and waits too;
//! `serve.queue.depth` counts waiting requests. The client that sent a
//! waiting request waits (stop-and-wait), so a shard's FIFO holds at
//! most one request per connection. Connections served by other shards
//! keep flowing.
//!
//! ## Metrics
//!
//! Every metric lives in the server's [`Registry`], which `stats`
//! snapshots, and every handle the server books into is resolved once,
//! in [`serve`] (DESIGN.md §13). A server-wide metric is a [`Count`]:
//! [`Count::name`] is the only place its name is spelled, and `health`
//! lists the same handles in [`Count::ALL`] order, so the two verbs
//! report one value per metric. The up/down values
//! (`serve.conn.active`, `serve.queue.depth`) are gauges changed in one
//! atomic step.
//!
//! ## Fault isolation
//!
//! A connection that sends junk bytes, a torn line or frame, or an
//! oversized line gets an error response (or is dropped at EOF) without
//! affecting other connections; such events count
//! `serve.fault.conn_errors`. A panic while running a request — inside
//! [`Engine::apply`] or anywhere else in logging, booking or rendering
//! it — is caught, the session whose request panicked is quarantined
//! (its state may be half-applied), and the thread keeps serving — the
//! panic costs one session, not the server. Quarantined sessions answer
//! every request with a `degraded` error (re-`init` lifts the
//! quarantine) and show up in `health` under `serve/<session>/degraded`.
//! A panic that escapes even that guard is caught around the whole
//! shard job: its connection is dropped, the thread keeps serving, and
//! the shard's poisoned lock answers `shard worker unavailable`.
//!
//! A reply that ends its connection (an unframeable frame, the
//! `shutdown` ack) is flushed, then the worker shuts the write half and
//! discards input until the peer's EOF. Closing a socket with unread
//! input makes the kernel send a reset, which can destroy the reply
//! before the peer reads it.
//!
//! ## Shutdown contract
//!
//! A `shutdown` verb (the SIGTERM-equivalent for this zero-dependency
//! server) or [`ServerHandle::shutdown`] sets a flag and makes the stop
//! eventfd readable; it is registered level-triggered and never drained,
//! so every worker sees it. The first worker to see it stops accepting
//! and closes idle connections (at once, even half-closed ones whose
//! peer never closes). In-flight and waiting requests finish and flush,
//! their connections close, and the workers exit once none is left.
//! [`ServerHandle::shutdown`] joins every worker, so when it returns the
//! process holds no server state and no thread or fd has leaked.

use crate::claim::{self, After, Baton, Claim, Fifo, Park, Parts};
use crate::engine::{Engine, Outcome};
use crate::eventloop::{Epoll, Waker, EPOLLIN, EPOLLONESHOT, EPOLLOUT};
use crate::flightrec::{flightrec_path, FlightRecorder};
use crate::frame::{self, FRAME_MAGIC, FRAME_PREFIX_BYTES};
use crate::protocol::{attach_id, error_response, ok_response, Request};
use crate::snapshot::{check_meta, ShardDurability};
use crate::transport::{TcpTransport, Transport};
use crate::wal::MAX_FRAME_BYTES;
use ddn_stats::Json;
use ddn_telemetry::{Collector, Counter, Gauge, Histogram, Registry, TelemetrySnapshot};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
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
    /// Number of shards (each owns a disjoint set of sessions); one
    /// more worker thread than shards serves them.
    pub shards: usize,
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
    /// ring dumped when a request panics and served by
    /// `stats {"flight":true}`).
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

/// A server-wide metric. `health` lists each as a telemetry counter, in
/// [`Count::ALL`] order; `stats` shows each under the same name, as a
/// registry counter or, for the two up/down values, a gauge. Both read
/// the one handle [`ServerStats`] holds for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Count {
    /// Records accepted across all sessions. Replayed (duplicate) batches
    /// do not count: this is the exactly-once tally.
    IngestRecords,
    /// Requests waiting for a busy shard, across all shards (up/down).
    QueueDepth,
    /// Connections open (up/down).
    ConnActive,
    /// Requests that found another request already waiting for their
    /// busy shard (a stall; they wait too).
    BackpressureStalls,
    /// Requests run by a thread other than the one that read them,
    /// because their shard was busy: they waited in its FIFO for the
    /// thread holding it.
    ShardHandoffs,
    /// Sequenced ingest batches answered from the dedup window instead of
    /// being re-applied (each one is a retry the protocol made safe).
    DedupReplays,
    /// Connection-level faults survived: read/write errors, torn lines or
    /// frames at EOF, oversized lines, unframeable frames.
    FaultConnErrors,
    /// Request panics caught and recovered from (one quarantined session
    /// each).
    FaultWorkerRestarts,
    /// WAL frames appended across all shards (zero with durability off).
    WalFrames,
    /// WAL bytes appended across all shards, frame headers included.
    WalBytes,
    /// Snapshot files written (the one each shard writes at startup after
    /// recovery counts too).
    SnapshotWrites,
    /// Bytes of every snapshot file written, startup ones included.
    SnapshotBytes,
    /// WAL frames replayed during startup recovery.
    RecoverFramesReplayed,
    /// Invalid WAL tail frames discarded during startup recovery (torn
    /// writes, checksum failures).
    RecoverTruncatedFrames,
    /// Sessions restored from snapshots during startup recovery.
    RecoverSessions,
}

impl Count {
    /// Every server-wide metric, in declaration order (which indexes
    /// [`ServerStats`]'s handles) and in `health`'s order.
    pub const ALL: [Count; 15] = [
        Count::IngestRecords,
        Count::QueueDepth,
        Count::ConnActive,
        Count::BackpressureStalls,
        Count::ShardHandoffs,
        Count::DedupReplays,
        Count::FaultConnErrors,
        Count::FaultWorkerRestarts,
        Count::WalFrames,
        Count::WalBytes,
        Count::SnapshotWrites,
        Count::SnapshotBytes,
        Count::RecoverFramesReplayed,
        Count::RecoverTruncatedFrames,
        Count::RecoverSessions,
    ];

    /// The metric's name in `health` and `stats`: the only place it is
    /// spelled.
    pub fn name(self) -> &'static str {
        match self {
            Count::IngestRecords => "serve.ingest.records",
            Count::QueueDepth => "serve.queue.depth",
            Count::ConnActive => "serve.conn.active",
            Count::BackpressureStalls => "serve.backpressure.stalls",
            Count::ShardHandoffs => "serve.shard.handoffs",
            Count::DedupReplays => "serve.dedup.replays",
            Count::FaultConnErrors => "serve.fault.conn_errors",
            Count::FaultWorkerRestarts => "serve.fault.worker_restarts",
            Count::WalFrames => "serve.wal.frames",
            Count::WalBytes => "serve.wal.bytes",
            Count::SnapshotWrites => "serve.snapshot.writes",
            Count::SnapshotBytes => "serve.snapshot.bytes",
            Count::RecoverFramesReplayed => "serve.recover.frames_replayed",
            Count::RecoverTruncatedFrames => "serve.recover.truncated_frames",
            Count::RecoverSessions => "serve.recover.sessions",
        }
    }
}

/// A [`Count`]'s registry handle.
enum Handle {
    Counter(Arc<Counter>),
    /// An up/down value, moved in one atomic step ([`Gauge::add`]).
    Gauge(Arc<Gauge>),
}

/// The server's metrics: the [`Registry`] the `stats` verb snapshots,
/// and the handles the server books into, each resolved once when the
/// server starts (DESIGN.md §13). No request formats a metric name or
/// takes the registry lock, and `health` reads the same handles as
/// `stats`, so the two verbs report one value per metric.
pub struct ServerStats {
    registry: Arc<Registry>,
    /// Indexed by [`Count`].
    counts: [Handle; Count::ALL.len()],
    /// The verbs no shard owns.
    req_health: ReqMetrics,
    req_stats: ReqMetrics,
    req_shutdown: ReqMetrics,
}

impl Default for ServerStats {
    /// Builds stats over a fresh private registry. Each server gets its
    /// own instance (never [`Registry::global`]): tests run many servers
    /// in one process, and the `stats` determinism contract — identical
    /// workloads produce identical snapshots — requires isolation.
    fn default() -> Self {
        let registry = Arc::new(Registry::new());
        Self {
            counts: Count::ALL.map(|c| match c {
                Count::QueueDepth | Count::ConnActive => Handle::Gauge(registry.gauge(c.name())),
                _ => Handle::Counter(registry.counter(c.name())),
            }),
            req_health: ReqMetrics::new(&registry, "health", None),
            req_stats: ReqMetrics::new(&registry, "stats", None),
            req_shutdown: ReqMetrics::new(&registry, "shutdown", None),
            registry,
        }
    }
}

impl ServerStats {
    /// The live metric registry — the object the `stats` verb snapshots,
    /// and where the per-verb/per-shard request histograms and gauges
    /// live.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The current value of `metric`, as `health` reports it.
    pub fn get(&self, metric: Count) -> u64 {
        match &self.counts[metric as usize] {
            Handle::Counter(c) => c.get(),
            Handle::Gauge(g) => g.get() as u64,
        }
    }

    /// Counts `n` more of `metric`.
    fn add(&self, metric: Count, n: u64) {
        match &self.counts[metric as usize] {
            Handle::Counter(c) => c.add(n),
            Handle::Gauge(g) => g.add(n as f64),
        }
    }

    /// The gauge of an up/down value, which moves both ways.
    fn gauge(&self, metric: Count) -> &Arc<Gauge> {
        match &self.counts[metric as usize] {
            Handle::Gauge(g) => g,
            Handle::Counter(_) => unreachable!("{} only counts up", metric.name()),
        }
    }

    /// Books the snapshot `d` wrote last — at startup (opening a shard's
    /// durable state writes its post-recovery snapshot) or at a rotation
    /// — into the write and byte counters and the shard's `write_ns`
    /// histogram.
    fn record_snapshot(&self, write_ns: &Histogram, d: &ShardDurability) {
        let w = d.last_snapshot();
        self.add(Count::SnapshotWrites, 1);
        self.add(Count::SnapshotBytes, w.bytes);
        write_ns.record(w.nanos);
    }
}

/// One verb's request metrics: the request counter every shard shares,
/// and handler wall time, plus queue wait for a shard verb (histograms
/// in nanoseconds, one per shard for a shard verb).
struct ReqMetrics {
    count: Arc<Counter>,
    queue_ns: Option<Arc<Histogram>>,
    handle_ns: Arc<Histogram>,
}

impl ReqMetrics {
    /// Resolves `serve.req.<verb>` and its histograms: `queue_ns.s<k>`
    /// and `handle_ns.s<k>` for shard `k`, or `handle_ns` alone for a
    /// verb no shard owns.
    fn new(reg: &Registry, verb: &str, shard: Option<usize>) -> Self {
        let name = format!("serve.req.{verb}");
        let suffix = shard.map_or_else(String::new, |k| format!(".s{k}"));
        Self {
            count: reg.counter(&name),
            queue_ns: shard.map(|_| reg.histogram(&format!("{name}.queue_ns{suffix}"))),
            handle_ns: reg.histogram(&format!("{name}.handle_ns{suffix}")),
        }
    }

    /// Books one finished request: counts it and, when tracing, records
    /// its queue wait (decoded `at`, `started` running) and its handler
    /// time until now, which it returns (0 untraced). Called BEFORE the
    /// reply is sent, so a client that reads `stats` right after its
    /// response always sees its own request counted — the per-verb
    /// histogram-total == counter invariant holds at every observable
    /// moment.
    fn book(&self, trace: bool, at: Instant, started: Instant) -> u64 {
        self.count.inc();
        if !trace {
            return 0;
        }
        let handle_ns = duration_ns(started.elapsed());
        if let Some(queue_ns) = &self.queue_ns {
            queue_ns.record(duration_ns(started.duration_since(at)));
        }
        self.handle_ns.record(handle_ns);
        handle_ns
    }
}

/// One shard's metric handles, resolved once at startup — the request
/// path never touches the registry mutex, and every shard's metric names
/// exist in the registry before any traffic arrives (so the `stats` key
/// set is workload-independent).
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
    /// fsync and rename, on the thread holding the shard.
    snapshot_write_ns: Arc<Histogram>,
}

impl ShardMetrics {
    fn new(reg: &Registry, shard: usize) -> Self {
        Self {
            init: ReqMetrics::new(reg, "init", Some(shard)),
            ingest: ReqMetrics::new(reg, "ingest", Some(shard)),
            estimate: ReqMetrics::new(reg, "estimate", Some(shard)),
            sessions: reg.gauge(&format!("serve.sessions.live.s{shard}")),
            wal_lag: reg.gauge(&format!("serve.wal.lag_frames.s{shard}")),
            snapshot_write_ns: reg.histogram(&format!("serve.snapshot.write_ns.s{shard}")),
        }
    }
}

/// Saturating nanosecond count of a duration.
fn duration_ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// A running server. Dropping the handle does NOT stop the server; call
/// [`ServerHandle::shutdown`] for a clean stop.
pub struct ServerHandle {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stop: Waker,
    stats: Arc<ServerStats>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The server's metrics; [`ServerStats::get`] reads one.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Requests shutdown and joins every server thread. Idempotent-safe
    /// with a client-sent `shutdown` verb (both paths set the same flag).
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.stop.wake();
        self.join();
    }

    /// Blocks until the server stops — i.e. until some client sends the
    /// `shutdown` verb — then joins every worker. This is what
    /// `ddn serve` does after printing the bound address.
    pub fn join(self) {
        for h in self.workers {
            if h.join().is_err() {
                eprintln!("ddn-serve: a worker thread panicked");
            }
        }
    }
}

/// While the server drains, the stop eventfd is always readable, so a
/// worker with nothing else to do sleeps this long between checks for
/// the last connection closing instead of spinning.
const DRAIN_POLL: Duration = Duration::from_millis(1);

/// How long the standby worker sleeps between looks for readiness that
/// no other worker is free to take. It bounds how long `stats`, a new
/// connection or a request for an idle shard waits while every shard is
/// busy.
const STANDBY_POLL: Duration = Duration::from_millis(5);

/// Epoll token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Epoll token of the stop eventfd.
const TOKEN_STOP: u64 = 1;
/// Epoll token of the baton eventfd (see [`Server::pass`]).
const TOKEN_BATON: u64 = 2;
/// First token handed to an accepted connection.
const TOKEN_CONN0: u64 = 3;

/// Binds `config.addr`, recovers every shard's durable state, and starts
/// the workers. Any startup failure — an invalid config
/// (`InvalidInput`), bind, recovery, epoll/eventfd creation, thread
/// spawn under resource exhaustion — returns an `io::Error` instead of
/// panicking, so `ddn serve` exits 1 with a message.
pub fn serve(config: &ServeConfig) -> std::io::Result<ServerHandle> {
    for (bad, msg) in [
        (config.shards == 0, "need at least one shard"),
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
    let stats = Arc::new(ServerStats::default());

    // Crash-resume happens here, on the caller's thread, before any
    // traffic can arrive: each shard restores its snapshot and replays
    // its WAL tail, so serve() returning means recovery is complete.
    if let Some(dir) = &config.data_dir {
        check_meta(dir, config.shards)?;
    }
    let mut shards = Vec::with_capacity(config.shards);
    for i in 0..config.shards {
        // Resolving the metric handles here means every shard's metric
        // names are registered before serve() returns, so the `stats`
        // key set does not depend on which shards receive traffic.
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
                    config.failpoint.as_deref(),
                    &mut engine,
                    &mut poisoned,
                )?;
                stats.add(Count::RecoverSessions, report.sessions);
                stats.add(Count::RecoverFramesReplayed, report.frames_replayed);
                stats.add(Count::RecoverTruncatedFrames, report.truncated_frames);
                stats.record_snapshot(&metrics.snapshot_write_ns, &d);
                Some(d)
            }
        };
        shards.push(Shard {
            state: Mutex::new(ShardState {
                engine,
                poisoned,
                durability,
                flight: FlightRecorder::new(config.flight_capacity),
            }),
            fifo: Mutex::default(),
            metrics,
        });
    }

    let epoll = Epoll::new()?;
    let stop = Waker::new()?;
    let baton = Waker::new()?;
    listener.set_nonblocking(true)?;
    epoll.add(listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN | EPOLLONESHOT)?;
    // Level-triggered and never drained: once woken, every worker's
    // wait reports it.
    epoll.add(stop.raw(), TOKEN_STOP, EPOLLIN)?;
    epoll.add(baton.raw(), TOKEN_BATON, EPOLLIN | EPOLLONESHOT)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let server = Arc::new(Server {
        epoll,
        listener,
        stop: stop.clone(),
        shutdown: Arc::clone(&shutdown),
        draining: AtomicBool::new(false),
        passed: Mutex::default(),
        baton,
        conns: Mutex::default(),
        next_token: AtomicU64::new(TOKEN_CONN0),
        shards,
        stats: Arc::clone(&stats),
        config: config.clone(),
    });

    // One worker per shard, plus a standby: a thread holds at most one
    // shard at a time, so some worker is always free to accept, read, and
    // answer `stats` and `shutdown`, however many shards are busy. The
    // standby polls instead of sleeping in epoll, because every worker
    // asleep there is one more to wake per request.
    let n = claim::workers(config.shards);
    let mut workers = Vec::with_capacity(n);
    for i in 0..n {
        let server = Arc::clone(&server);
        let standby = i == n - 1;
        let spawned = std::thread::Builder::new()
            .name(format!("ddn-serve-{i}"))
            .spawn(move || server.worker(standby));
        match spawned {
            Ok(h) => workers.push(h),
            Err(e) => {
                // No connection exists yet, so the started workers see
                // the flag and exit at once.
                ServerHandle {
                    local_addr,
                    shutdown,
                    stop,
                    stats,
                    workers,
                }
                .shutdown();
                return Err(std::io::Error::new(
                    e.kind(),
                    format!("cannot spawn worker {i}: {e}"),
                ));
            }
        }
    }
    Ok(ServerHandle {
        local_addr,
        shutdown,
        stop,
        stats,
        workers,
    })
}

/// Locks a mutex whose every update leaves its data valid (a table
/// insert or remove, a queue push or pop, a part filled in), so a panic
/// elsewhere while it was held cannot have left it half-changed.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// State shared by every worker thread.
struct Server {
    epoll: Epoll,
    listener: TcpListener,
    /// Made readable at shutdown and never drained.
    stop: Waker,
    shutdown: Arc<AtomicBool>,
    /// Set once, by the first worker to see `shutdown`, which then stops
    /// accepting and closes idle connections.
    draining: AtomicBool,
    /// Shards passed on with requests waiting ([`Server::pass`]).
    passed: Mutex<Baton>,
    /// Readable while `passed` is non-empty. Registered one-shot, so one
    /// worker takes each event and re-arms it.
    baton: Waker,
    /// Connections armed in epoll, by token. A worker takes one out on
    /// its (one-shot) event and owns it until it re-arms it.
    conns: Mutex<HashMap<u64, Conn>>,
    next_token: AtomicU64,
    shards: Vec<Shard>,
    stats: Arc<ServerStats>,
    config: ServeConfig,
}

/// One shard: its sessions behind a lock, and the requests waiting for
/// whichever thread holds it.
struct Shard {
    /// Locked only by the thread that set [`Fifo::held`], so taking it
    /// never waits.
    state: Mutex<ShardState>,
    fifo: Mutex<Fifo<Job>>,
    metrics: ShardMetrics,
}

/// Everything a request running on a shard may change.
struct ShardState {
    engine: Engine,
    /// Sessions whose request panicked: their state is untrustworthy, so
    /// they answer `degraded` until a client re-inits them. Recovery
    /// pre-populates this from the snapshot.
    poisoned: HashSet<String>,
    durability: Option<ShardDurability>,
    flight: FlightRecorder,
}

/// Work for one shard.
enum Job {
    /// An `init`, `ingest` or `estimate`, with the connection its reply
    /// goes to.
    Request(Box<Pending>),
    /// This shard's part of a `health` or `stats {"flight":true}`.
    Gather(Arc<Gather>),
}

/// A decoded shard request in flight.
struct Pending {
    req: Request,
    /// The bytes the request arrived as (JSON line without its newline,
    /// or binary frame): the WAL payload (DESIGN.md §12).
    payload: Vec<u8>,
    /// The `"id"` the reply echoes.
    id: Option<Json>,
    conn: Conn,
    /// When it was decoded: its queue wait runs from here to the start
    /// of apply.
    at: Instant,
}

/// A `health` or `stats {"flight":true}` collecting one part from each
/// shard through the shard FIFOs, so a busy shard delays only this
/// reply. Whichever thread adds the last part takes the server part —
/// for `health` the server counters, for `stats` the registry snapshot —
/// and writes the reply. The server part is taken after every shard part
/// (so it counts the handoffs of parts that queued behind a held shard)
/// and before the reply is booked (so it never counts the request
/// itself).
struct Gather {
    /// `health`, or else `stats {"flight":true}`.
    health: bool,
    id: Option<Json>,
    at: Instant,
    parts: Mutex<Parts<Part, Conn>>,
}

/// One contribution to a [`Gather`].
enum Part {
    Health(Collector),
    Flight(Json),
}

/// Per-connection state. Owned by one worker at a time, travelling with
/// its request while the request waits for a shard, and in
/// [`Server::conns`] while it waits for readiness.
struct Conn {
    transport: Box<dyn Transport>,
    fd: i32,
    token: u64,
    /// Bytes read but not yet framed into a request.
    inbuf: Vec<u8>,
    /// Response bytes not yet written, starting at `outpos`.
    outbuf: Vec<u8>,
    outpos: usize,
    /// The peer closed its write side; drain buffered requests, then
    /// close.
    eof: bool,
    /// Close once `outbuf` drains (shutdown ack, unframeable input):
    /// shut the write half, then discard input until the peer's EOF.
    close_after_flush: bool,
    /// Mid-discard of an oversized JSON line (bytes dropped up to the
    /// next newline, then one error response).
    overflow: bool,
    /// What it was last armed for: `EPOLLIN` (waiting for a request, or
    /// for the peer's EOF after a closing reply) or `EPOLLOUT` (a reply
    /// the socket could not take yet, or buffered requests to pump); 0
    /// until it is first registered.
    interest: u32,
    /// The `serve.conn.active` gauge: raised when the connection is
    /// accepted, lowered when it is dropped, however that happens, so the
    /// drain's wait for it to reach 0 ends.
    active: Arc<Gauge>,
}

impl Drop for Conn {
    fn drop(&mut self) {
        self.active.add(-1.0);
    }
}

impl Server {
    /// One worker thread: waits on the shared epoll set and serves
    /// whatever readiness it is handed, until the server has drained. The
    /// `standby` worker never sleeps in epoll: every [`STANDBY_POLL`] it
    /// takes what is ready, which is anything only while every other
    /// worker is busy.
    fn worker(&self, standby: bool) {
        let mut ready: Vec<Conn> = Vec::new();
        let mut scratch = vec![0u8; 16 * 1024];
        loop {
            let shutdown = self.shutdown.load(Ordering::SeqCst);
            if shutdown && !self.draining.swap(true, Ordering::SeqCst) {
                self.start_drain();
            }
            if claim::drain_ends(shutdown, self.stats.get(Count::ConnActive)) {
                return;
            }
            // The others wait with no timeout: shutdown makes the stop
            // eventfd readable for every worker, and an armed timer costs
            // each sleep two reprograms.
            let ev = match self.epoll.wait_one(if standby { 0 } else { -1 }) {
                Ok(Some(ev)) => ev,
                Ok(None) => {
                    std::thread::sleep(STANDBY_POLL);
                    continue;
                }
                Err(_) => {
                    // epoll itself failing is unrecoverable; treat it as
                    // shutdown so the process can exit cleanly.
                    self.shutdown.store(true, Ordering::SeqCst);
                    continue;
                }
            };
            match ev.token {
                TOKEN_LISTENER => self.accept_ready(),
                TOKEN_STOP => {
                    if self.draining.load(Ordering::SeqCst) {
                        std::thread::sleep(DRAIN_POLL);
                    }
                }
                TOKEN_BATON => self.take_baton(&mut ready),
                token => {
                    let Some(mut conn) = lock(&self.conns).remove(&token) else {
                        continue; // closed by the drain sweep
                    };
                    // Reading only when armed for input keeps the fault
                    // injector's byte-offset cursor aligned with the
                    // request stream.
                    if conn.interest == EPOLLIN && conn_read(&mut conn, &mut scratch).is_err() {
                        self.fault(conn);
                        continue;
                    }
                    ready.push(conn);
                }
            }
            while let Some(conn) = ready.pop() {
                self.pump(conn, &mut ready);
            }
        }
    }

    /// Drives one connection this worker owns as far as it can go:
    /// flush pending output, then frame, decode and answer or submit
    /// requests (stop-and-wait), until it must wait for readiness, its
    /// request went to a shard, or it closed. Never called while holding
    /// a shard; connections a shard run leaves with work come back
    /// through `ready` when the run ends, or through epoll when it goes
    /// on.
    fn pump(&self, mut conn: Conn, ready: &mut Vec<Conn>) {
        loop {
            conn = match self.flush(conn) {
                Some(conn) => conn,
                None => return,
            };
            match extract_request(&mut conn, self.config.max_line_bytes) {
                Extract::Skip => {}
                Extract::Item(payload) => {
                    // A request that fails decoding (bad JSON, crc
                    // mismatch, malformed frame body) gets an error but
                    // keeps the connection: the framer already found the
                    // next request boundary.
                    match Request::decode(&payload) {
                        (Ok(req), id) => match self.dispatch(req, payload, id, conn, ready) {
                            Some(back) => conn = back,
                            None => return,
                        },
                        (Err(e), id) => {
                            push_response(&mut conn, &attach_id(error_response(&e), id))
                        }
                    }
                }
                Extract::OverflowedLine => {
                    self.stats.add(Count::FaultConnErrors, 1);
                    let msg = format!("request line exceeds {} bytes", self.config.max_line_bytes);
                    push_response(&mut conn, &error_response(&msg));
                }
                Extract::Unframeable(msg) => {
                    self.stats.add(Count::FaultConnErrors, 1);
                    push_response(&mut conn, &error_response(&msg));
                    conn.close_after_flush = true;
                }
                Extract::Need => {
                    if conn.eof {
                        // The peer died mid-line or mid-frame; the partial
                        // request is dropped (it was never acknowledged).
                        if !conn.inbuf.is_empty() || conn.overflow {
                            self.fault(conn);
                        }
                    } else {
                        self.park(conn, EPOLLIN);
                    }
                    return;
                }
            }
        }
    }

    /// Writes a connection's pending output. Returns the connection once
    /// everything is written, unless that reply ends it; otherwise it is
    /// parked until writable, or closed.
    fn flush(&self, mut conn: Conn) -> Option<Conn> {
        while conn.outpos < conn.outbuf.len() {
            match conn.transport.write(&conn.outbuf[conn.outpos..]) {
                Ok(0) => {
                    self.fault(conn);
                    return None;
                }
                Ok(n) => conn.outpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.park(conn, EPOLLOUT);
                    return None;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.fault(conn);
                    return None;
                }
            }
        }
        conn.outbuf.clear();
        conn.outpos = 0;
        if !conn.close_after_flush {
            return Some(conn);
        }
        if !conn.eof {
            // Closing with unread input would send a reset that can
            // destroy the reply in flight. Shut the write half instead
            // (the peer reads the reply, then EOF) and discard input
            // until the peer closes too, unless the server drains.
            let _ = conn.transport.shutdown_write();
            conn.inbuf.clear();
            self.park(conn, EPOLLIN);
        }
        None
    }

    /// Hands a connection back to epoll, armed one-shot for `interest`
    /// (registered, the first time): the worker that gets its next event
    /// owns it. While the server drains, a connection that would wait for
    /// input is closed instead.
    fn park(&self, mut conn: Conn, interest: u32) {
        let (token, fd) = (conn.token, conn.fd);
        let arm = if conn.interest == 0 {
            Epoll::add
        } else {
            Epoll::modify
        };
        conn.interest = interest;
        let mut conns = lock(&self.conns);
        // Read under the table lock: `start_drain` sets the flag before it
        // sweeps the table, so an idle connection is either swept or sees
        // the flag here.
        if claim::closes(self.draining.load(Ordering::SeqCst), interest == EPOLLIN) {
            drop(conns);
            drop(conn);
            return;
        }
        // In the table before it is armed, so its event finds it.
        conns.insert(token, conn);
        drop(conns);
        if arm(&self.epoll, fd, token, interest | EPOLLONESHOT).is_err() {
            // Not armed, so no event can take it (the drain sweep may
            // have).
            if let Some(conn) = lock(&self.conns).remove(&token) {
                self.fault(conn);
            }
        }
    }

    /// Closes a connection this worker owns after a fault (torn input, a
    /// socket error), counting it. It is not armed, so no event can name
    /// it; dropping it closes the socket, as for every other close.
    fn fault(&self, conn: Conn) {
        self.stats.add(Count::FaultConnErrors, 1);
        drop(conn);
    }

    /// Accepts every connection queued on the (nonblocking) listener,
    /// registers each, then re-arms the one-shot listener.
    fn accept_ready(&self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                // WouldBlock: the backlog is empty. Anything else is a
                // transient per-connection failure (e.g. the peer aborted
                // while queued); re-arming re-reports any backlog left.
                Err(_) => break,
            };
            let mut transport: Box<dyn Transport> = Box::new(TcpTransport::new(stream));
            if let Some(wrap) = &self.config.wrap {
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
            let active = Arc::clone(self.stats.gauge(Count::ConnActive));
            active.add(1.0);
            let conn = Conn {
                transport,
                fd,
                token: self.next_token.fetch_add(1, Ordering::Relaxed),
                inbuf: Vec::new(),
                outbuf: Vec::new(),
                outpos: 0,
                eof: false,
                close_after_flush: false,
                overflow: false,
                interest: 0,
                active,
            };
            self.park(conn, EPOLLIN);
        }
        // A drain deregisters the listener, after which this fails.
        let _ = self.epoll.modify(
            self.listener.as_raw_fd(),
            TOKEN_LISTENER,
            EPOLLIN | EPOLLONESHOT,
        );
    }

    /// The first step of shutdown: stop accepting and close every idle
    /// connection. Connections with a request in flight or a reply
    /// waiting to be written close once it is out.
    fn start_drain(&self) {
        // The listener itself closes, resetting queued connects, when the
        // last worker drops the server.
        let _ = self.epoll.del(self.listener.as_raw_fd());
        let idle: Vec<Conn> = {
            let mut conns = lock(&self.conns);
            let (idle, flushing): (Vec<_>, Vec<_>) = std::mem::take(&mut *conns)
                .into_iter()
                .partition(|(_, c)| claim::closes(true, c.interest == EPOLLIN));
            conns.extend(flushing);
            idle.into_iter().map(|(_, c)| c).collect()
        };
        drop(idle);
    }

    /// Answers `stats` and `shutdown` on the spot, returning the
    /// connection to pump on. Sends `init`, `ingest` and `estimate` to
    /// the session's shard, and `health` and `stats {"flight":true}` to
    /// every shard; the connection travels with the request, and `None`
    /// comes back. A gather claims idle shards one at a time and passes
    /// each on after its part, so no shard's run delays the next shard's
    /// part.
    fn dispatch(
        &self,
        req: Request,
        payload: Vec<u8>,
        id: Option<Json>,
        mut conn: Conn,
        ready: &mut Vec<Conn>,
    ) -> Option<Conn> {
        let at = Instant::now();
        let (metrics, resp) = match req {
            Request::Stats { flight: false } => {
                // Snapshot the registry BEFORE booking this request, so
                // the response never counts itself: the first `stats` a
                // client sends reports zero prior `stats` traffic, and
                // every verb's histogram-total == counter invariant holds
                // inside the snapshot.
                let snapshot = self.stats.registry().to_json();
                (
                    &self.stats.req_stats,
                    ok_response(vec![("stats", snapshot)]),
                )
            }
            Request::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                self.stop.wake();
                conn.close_after_flush = true;
                let resp = ok_response(vec![("shutting_down", Json::Bool(true))]);
                (&self.stats.req_shutdown, resp)
            }
            Request::Health | Request::Stats { .. } => {
                let n = self.shards.len();
                let gather = Arc::new(Gather {
                    health: matches!(req, Request::Health),
                    id,
                    at,
                    parts: Mutex::new(Parts::new(conn, n)),
                });
                for k in 0..n {
                    self.submit(k, Job::Gather(Arc::clone(&gather)), ready, false);
                }
                return None;
            }
            _ => {
                let k = shard_of(req.session().unwrap_or_default(), self.shards.len());
                let pending = Pending {
                    req,
                    payload,
                    id,
                    conn,
                    at,
                };
                self.submit(k, Job::Request(Box::new(pending)), ready, true);
                return None;
            }
        };
        metrics.book(self.config.trace_requests, at, at);
        push_response(&mut conn, &attach_id(resp, id));
        Some(conn)
    }

    /// Runs `job` on shard `k` now when the shard is idle (see
    /// [`Server::run_shard`] for `keep`). When another thread holds the
    /// shard, leaves the job in its FIFO for that thread (a handoff),
    /// counting a backpressure stall when another job already waits
    /// there. Never waits for a shard.
    fn submit(&self, k: usize, job: Job, ready: &mut Vec<Conn>, keep: bool) {
        let mut fifo = lock(&self.shards[k].fifo);
        match fifo.claim(job) {
            Claim::Run(job) => {
                drop(fifo);
                self.run_shard(k, job, ready, keep);
            }
            Claim::Queued { stall } => {
                // Under the lock, so the holder's decrement never runs
                // first.
                self.stats.gauge(Count::QueueDepth).add(1.0);
                self.stats.add(Count::ShardHandoffs, 1);
                if stall {
                    self.stats.add(Count::BackpressureStalls, 1);
                }
            }
        }
    }

    /// Gives up this thread's claim on shard `k` while jobs wait for it:
    /// the shard stays claimed, and the worker that takes the baton event
    /// runs them.
    fn pass(&self, k: usize) {
        let mut passed = lock(&self.passed);
        passed.pass(k);
        // Under the lock, so `take_baton` cannot drain a wake whose shard
        // it did not see.
        self.baton.wake();
    }

    /// Claims one shard another thread passed on and runs its jobs.
    fn take_baton(&self, ready: &mut Vec<Conn>) {
        let k = {
            let mut passed = lock(&self.passed);
            let (k, empty) = passed.take();
            if empty {
                self.baton.drain();
            }
            k
        };
        // Re-armed after the drain, so it reports again at once while
        // more shards wait.
        let _ = self
            .epoll
            .modify(self.baton.raw(), TOKEN_BATON, EPOLLIN | EPOLLONESHOT);
        let Some(k) = k else { return };
        let after = lock(&self.shards[k].fifo).after_job(true);
        if let After::Next(job) = after {
            self.stats.gauge(Count::QueueDepth).add(-1.0);
            self.run_shard(k, job, ready, true);
        }
    }

    /// Runs `job` on shard `k`, which the caller has claimed, and then
    /// whatever [`Fifo::after_job`] decides: with `keep`, every job that
    /// queues behind it; without (the caller claimed the shard for one
    /// part of a gather), the shard is passed on if others wait.
    fn run_shard(&self, k: usize, mut job: Job, ready: &mut Vec<Conn>, keep: bool) {
        let shard = &self.shards[k];
        let mut answered = Vec::new();
        loop {
            let ran = catch_unwind(AssertUnwindSafe(|| {
                let mut state = shard.state.lock().ok();
                match job {
                    Job::Request(p) => match state.as_deref_mut() {
                        Some(st) => self.run_request(k, st, p, &mut answered, ready),
                        None => {
                            // A panic escaped a request while it held
                            // this shard: its state is not trusted.
                            let mut conn = p.conn;
                            let resp = error_response("shard worker unavailable");
                            push_response(&mut conn, &attach_id(resp, p.id));
                            answered.extend(self.flush(conn));
                        }
                    },
                    Job::Gather(g) => self.run_gather(k, state.as_deref_mut(), &g, &mut answered),
                }
            }));
            if ran.is_err() {
                // Past every guard inside: the job's connection is gone
                // and the state lock poisoned. The shard is released as
                // usual, so the requests behind it are answered.
                eprintln!("ddn-serve: a panic escaped a request on shard {k}");
            }
            let after = lock(&shard.fifo).after_job(keep);
            self.settle(&mut answered, ready, matches!(after, After::Next(_)));
            match after {
                After::Next(next) => {
                    self.stats.gauge(Count::QueueDepth).add(-1.0);
                    job = next;
                }
                After::Release => return,
                After::Pass => return self.pass(k),
            }
        }
    }

    /// Parks each connection this thread answered as [`claim::park`]
    /// decides, and, while it `keeps` the shard, the ones it has yet to
    /// pump too.
    fn settle(&self, answered: &mut Vec<Conn>, ready: &mut Vec<Conn>, keeps: bool) {
        for conn in answered.drain(..) {
            match claim::park(!conn.inbuf.is_empty() || conn.eof, keeps) {
                Park::Input => self.park(conn, EPOLLIN),
                Park::Here => ready.push(conn),
                Park::Output => self.park(conn, EPOLLOUT),
            }
        }
        if claim::park(true, keeps) == Park::Output {
            for conn in ready.drain(..) {
                self.park(conn, EPOLLOUT);
            }
        }
    }

    /// Runs one `init`, `ingest` or `estimate` on shard `k`: log, apply,
    /// book and render it, write the reply, then rotate a snapshot when
    /// one is due. A panic anywhere in that — not only inside
    /// [`Engine::apply`]'s own guard — costs only the request's session.
    /// The connection stays outside the guarded step, so a panic cannot
    /// lose it.
    fn run_request(
        &self,
        k: usize,
        st: &mut ShardState,
        p: Box<Pending>,
        answered: &mut Vec<Conn>,
        ready: &mut Vec<Conn>,
    ) {
        let Pending {
            req,
            payload,
            id,
            mut conn,
            at,
        } = *p;
        let session = req.session().unwrap_or_default().to_string();
        let step = catch_unwind(AssertUnwindSafe(|| {
            let resp = self.apply(k, st, req, &session, &payload, at);
            let mut bytes = attach_id(resp, id.clone()).to_string().into_bytes();
            bytes.push(b'\n');
            bytes
        }));
        match step {
            Ok(bytes) => conn.outbuf.extend_from_slice(&bytes),
            Err(_) => {
                self.stats.add(Count::FaultWorkerRestarts, 1);
                let resp = st.engine.quarantine(session, &mut st.poisoned);
                self.dump_flight(k, &st.flight);
                push_response(&mut conn, &attach_id(resp, id));
            }
        }
        answered.extend(self.flush(conn));
        if st
            .durability
            .as_ref()
            .is_some_and(ShardDurability::snapshot_due)
        {
            // The answered clients need not wait for the rotation.
            self.settle(answered, ready, true);
            if catch_unwind(AssertUnwindSafe(|| self.rotate(k, st))).is_err() {
                eprintln!(
                    "ddn-serve: snapshot rotation panicked; the WAL still holds every request"
                );
            }
        }
    }

    /// Logs, applies and books one shard request; returns its response.
    fn apply(
        &self,
        k: usize,
        st: &mut ShardState,
        req: Request,
        session: &str,
        payload: &[u8],
        at: Instant,
    ) -> Json {
        let metrics = &self.shards[k].metrics;
        let started = Instant::now();
        let (req_metrics, verb, seq, records) = match &req {
            Request::Init(_) => (&metrics.init, "init", None, 0),
            Request::Ingest { records, seq, .. } => {
                (&metrics.ingest, "ingest", *seq, records.len() as u64)
            }
            _ => (&metrics.estimate, "estimate", None, 0),
        };
        let ShardState {
            engine,
            poisoned,
            durability,
            flight,
        } = st;
        // Write-ahead of the verdict, whatever it turns out to be: even a
        // rejected sequenced batch consumes its sequence number, so
        // replay must reproduce the rejection.
        let (resp, outcome) = engine.apply(req, poisoned, self.config.failpoint.as_deref(), || {
            wal_log(durability, &self.stats, &metrics.wal_lag, payload)
        });
        match outcome {
            Outcome::Duplicate => self.stats.add(Count::DedupReplays, 1),
            Outcome::Panic => self.stats.add(Count::FaultWorkerRestarts, 1),
            Outcome::Ok | Outcome::Error => {
                if let Some(accepted) = resp.get("accepted").and_then(Json::as_u64) {
                    self.stats.add(Count::IngestRecords, accepted);
                }
            }
        }
        metrics.sessions.set(engine.sessions() as f64);
        let dur_ns = req_metrics.book(self.config.trace_requests, at, started);
        flight.push(verb, session, seq, records, outcome.as_str(), dur_ns);
        if outcome == Outcome::Panic {
            // Post-mortem: dump the ring — ending with the request that
            // panicked — before answering, so the evidence is on disk even
            // if the process is killed right after.
            self.dump_flight(k, flight);
        }
        resp
    }

    /// Adds shard `k`'s part to a `health` or `stats {"flight":true}`
    /// (nothing when the shard's state is not trusted). The last part
    /// renders, books and writes the reply.
    fn run_gather(
        &self,
        k: usize,
        st: Option<&mut ShardState>,
        g: &Gather,
        answered: &mut Vec<Conn>,
    ) {
        let part = st.and_then(|st| {
            catch_unwind(AssertUnwindSafe(|| match g.health {
                true => {
                    let mut c = st.engine.collector();
                    for session in &st.poisoned {
                        c.health
                            .push((format!("serve/{session}/degraded"), vec![("poisoned", 1.0)]));
                    }
                    Part::Health(c)
                }
                false => {
                    self.dump_flight(k, &st.flight);
                    Part::Flight(st.flight.to_json_array())
                }
            }))
            .ok()
        });
        let Some((mut conn, shards)) = lock(&g.parts).add(k, part) else {
            return;
        };
        let (metrics, resp) = match g.health {
            true => {
                let counters = Collector {
                    counts: Count::ALL.map(|c| (c.name(), self.stats.get(c))).to_vec(),
                    ..Collector::default()
                };
                let mut collectors = vec![counters];
                collectors.extend(shards.into_iter().flatten().filter_map(|part| match part {
                    Part::Health(c) => Some(c),
                    Part::Flight(_) => None,
                }));
                let mut snap = TelemetrySnapshot::from_runs(&collectors);
                snap.set_threads(self.shards.len());
                let resp = ok_response(vec![("telemetry", snap.to_json())]);
                (&self.stats.req_health, resp)
            }
            false => {
                let stats = self.stats.registry().to_json();
                let rings = shards.into_iter().enumerate().map(|(i, part)| {
                    let events = match part {
                        Some(Part::Flight(events)) => events,
                        _ => Json::Array(Vec::new()),
                    };
                    (format!("shard-{i}"), events)
                });
                let fields = vec![("stats", stats), ("flight", Json::Object(rings.collect()))];
                (&self.stats.req_stats, ok_response(fields))
            }
        };
        metrics.book(self.config.trace_requests, g.at, g.at);
        push_response(&mut conn, &attach_id(resp, g.id.clone()));
        answered.extend(self.flush(conn));
    }

    /// Rotates shard `k` to a fresh snapshot. Snapshot I/O failures are
    /// deliberately non-fatal: the WAL already holds every acknowledged
    /// request, so losing a rotation costs replay time at the next
    /// startup, not state.
    fn rotate(&self, k: usize, st: &mut ShardState) {
        if let Some(d) = &mut st.durability {
            match d.maybe_snapshot(&st.engine, &st.poisoned) {
                Ok(true) => self
                    .stats
                    .record_snapshot(&self.shards[k].metrics.snapshot_write_ns, d),
                Ok(false) => {}
                Err(e) => eprintln!("ddn-serve: snapshot write failed: {e}"),
            }
        }
    }

    /// Rewrites shard `k`'s `flightrec-<shard>.jsonl` when durability is
    /// configured (a failed dump is reported, never fatal).
    fn dump_flight(&self, k: usize, flight: &FlightRecorder) {
        if let Some(dir) = &self.config.data_dir {
            if let Err(e) = flight.dump(&flightrec_path(dir, k)) {
                eprintln!("ddn-serve: flight-recorder dump failed: {e}");
            }
        }
    }
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

/// Appends one response (JSON + newline) to a connection's output
/// buffer — the exact byte stream `writeln!` produced in the
/// thread-per-connection server, which chaos byte-offset plans pin.
fn push_response(conn: &mut Conn, resp: &Json) {
    conn.outbuf.extend_from_slice(resp.to_string().as_bytes());
    conn.outbuf.push(b'\n');
}

/// Reads everything currently available on a connection, through the
/// worker's `buf`. Fails on a socket error; EOF is recorded on the conn
/// (buffered requests still get served) rather than returned.
fn conn_read(conn: &mut Conn, buf: &mut [u8]) -> std::io::Result<()> {
    loop {
        match conn.transport.read(buf) {
            Ok(0) => {
                conn.eof = true;
                return Ok(());
            }
            Ok(n) => {
                conn.inbuf.extend_from_slice(&buf[..n]);
                if n < buf.len() {
                    // Short read: the socket is drained for now.
                    return Ok(());
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            // Socket-level failure (injected or real): this connection
            // is over, the server is not.
            Err(e) => return Err(e),
        }
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
        stats.add(Count::WalFrames, 1);
        stats.add(Count::WalBytes, bytes as u64);
        // Set at log time (not rotation time) so the gauge is settled
        // before this request's reply goes out; it reads as "frames a
        // restart would replay, as of the last logged request".
        wal_lag.set(d.frames_since_snapshot() as f64);
    }
    Ok(())
}

fn shard_of(session: &str, shards: usize) -> usize {
    let mut h = DefaultHasher::new();
    session.hash(&mut h);
    (h.finish() % shards as u64) as usize
}
