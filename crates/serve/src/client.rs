//! A small blocking client for the serve protocol, used by the CLI
//! (`ddn replay-to`, `ddn chaos`) and the end-to-end tests.
//!
//! The client is built for unreliable transports: every request has a
//! read deadline (a silent server yields a typed [`ClientError::Timeout`]
//! instead of hanging the caller forever), transport-level failures are
//! retried a bounded number of times with deterministic exponential
//! backoff (reconnecting through the client's connector), and `ingest`
//! carries a per-session sequence number so a retried batch is
//! acknowledged from the server's dedup window instead of being counted
//! twice. The net contract: an acknowledged batch was ingested exactly
//! once, no matter how many wire-level attempts it took (DESIGN.md §11).

use crate::protocol::{attach_id, ingest_request_json, request_id, DEFAULT_MAX_WEIGHT};
use crate::transport::{IoStream, TcpTransport, Transport};
use ddn_stats::Json;
use ddn_telemetry::{Collector, Histogram};
use ddn_trace::{ContextSchema, DecisionSpace, TraceRecord};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client-side errors.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// No response arrived within the configured read deadline.
    Timeout(Duration),
    /// The server closed the connection or answered with something that
    /// is not a JSON object.
    Protocol(String),
    /// The server answered `{"ok":false,...}`; carries the message.
    Server(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "serve client I/O error: {e}"),
            ClientError::Timeout(d) => {
                write!(f, "serve client timed out after {}ms", d.as_millis())
            }
            ClientError::Protocol(m) => write!(f, "serve protocol error: {m}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// Whether retrying the request could help. Transport-level failures
    /// (I/O, timeout, torn response) are retryable; a server verdict is
    /// not — the request was received and judged.
    pub fn is_retryable(&self) -> bool {
        !matches!(self, ClientError::Server(_))
    }
}

/// Retry/timeout configuration for [`ServeClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Per-request read deadline; a silent server fails the attempt with
    /// [`ClientError::Timeout`] after this long.
    pub read_timeout: Duration,
    /// Retries after the first attempt (so `max_retries + 1` attempts in
    /// total) for retryable errors.
    pub max_retries: u32,
    /// Backoff before retry `k` (0-based) is `backoff_base << k` —
    /// deterministic, no jitter, so chaos runs replay identically.
    pub backoff_base: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            read_timeout: Duration::from_secs(30),
            max_retries: 3,
            backoff_base: Duration::from_millis(25),
        }
    }
}

/// How often a blocked read wakes to check the deadline.
const READ_POLL: Duration = Duration::from_millis(50);

/// Counters describing the client's fight with the transport, surfaced
/// as `serve.retry.*` telemetry, plus a client-observed request-latency
/// histogram.
///
/// Cloning snapshots the counters but *shares* the latency histogram
/// (it is behind an `Arc`), so a clone taken before a run still sees
/// latencies recorded during it.
#[derive(Debug, Default, Clone)]
pub struct ClientStats {
    retry_attempts: u64,
    reconnects: u64,
    timeouts: u64,
    giveups: u64,
    latency: Arc<Histogram>,
}

impl ClientStats {
    /// Requests re-sent after a retryable failure.
    pub fn retry_attempts(&self) -> u64 {
        self.retry_attempts
    }

    /// Connections re-established after a drop.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Attempts that hit the read deadline.
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// Requests abandoned after exhausting every retry.
    pub fn giveups(&self) -> u64 {
        self.giveups
    }

    /// Client-observed request latency in nanoseconds, measured from the
    /// moment [`ServeClient::request`] stamps the request id to the
    /// moment a verdict arrives — retries and backoff sleeps included,
    /// because that is the latency the caller actually waited. Only
    /// delivered verdicts (ok or a server error) are recorded; transport
    /// give-ups are not latencies, they are failures.
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// The counters as a telemetry collector.
    pub fn collector(&self) -> Collector {
        let mut c = Collector::default();
        c.counts.push(("serve.retry.attempts", self.retry_attempts));
        c.counts.push(("serve.retry.reconnects", self.reconnects));
        c.counts.push(("serve.retry.timeouts", self.timeouts));
        c.counts.push(("serve.retry.giveups", self.giveups));
        c
    }
}

/// Dials (or re-dials) the server, producing a fresh transport.
pub type Connector = Box<dyn FnMut() -> std::io::Result<Box<dyn Transport>> + Send>;

/// A connected client speaking one request/response pair at a time.
pub struct ServeClient {
    connector: Connector,
    conn: Option<(IoStream, BufReader<IoStream>)>,
    config: ClientConfig,
    stats: ClientStats,
    /// Next ingest sequence number per session.
    seqs: HashMap<String, u64>,
    /// Next request id; one id per logical request, shared by all of its
    /// wire-level retry attempts.
    next_id: u64,
    ever_connected: bool,
}

impl ServeClient {
    /// Connects to a running server with default retry/timeout settings.
    pub fn connect(addr: &str) -> Result<Self, ClientError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit retry/timeout settings.
    pub fn connect_with(addr: &str, config: ClientConfig) -> Result<Self, ClientError> {
        let addr = addr.to_string();
        Self::from_connector(
            Box::new(move || Ok(Box::new(TcpTransport::connect(&addr)?) as Box<dyn Transport>)),
            config,
        )
    }

    /// Builds a client over an arbitrary connector (chaos tests hand in a
    /// fault-wrapping one). Dials eagerly so a bad address fails here,
    /// not on the first request.
    pub fn from_connector(connector: Connector, config: ClientConfig) -> Result<Self, ClientError> {
        let mut client = Self {
            connector,
            conn: None,
            config,
            stats: ClientStats::default(),
            seqs: HashMap::new(),
            next_id: 0,
            ever_connected: false,
        };
        client.ensure_conn()?;
        Ok(client)
    }

    /// The client's retry/reconnect/timeout counters and latency
    /// histogram (see [`ClientStats`] for the clone semantics).
    pub fn stats(&self) -> ClientStats {
        self.stats.clone()
    }

    fn ensure_conn(&mut self) -> Result<(), ClientError> {
        if self.conn.is_some() {
            return Ok(());
        }
        let transport = (self.connector)()?;
        let _ = transport.set_read_timeout(Some(READ_POLL));
        let write_half = transport.try_clone_transport()?;
        self.conn = Some((IoStream(write_half), BufReader::new(IoStream(transport))));
        if self.ever_connected {
            self.stats.reconnects += 1;
        }
        self.ever_connected = true;
        Ok(())
    }

    /// One wire-level attempt: write the request bytes (a JSON line or a
    /// binary batch frame — the response is a JSON line either way), read
    /// the response line against the deadline. Any failure drops the
    /// connection so the next attempt re-dials. `id` is the request id
    /// the response must echo (`None` for the degenerate non-object
    /// requests that cannot carry one); a mismatch is a (retryable)
    /// protocol error, because a response that answers some other request
    /// proves the connection's framing can no longer be trusted.
    fn try_once_raw(&mut self, wire: &[u8], id: Option<&Json>) -> Result<Json, ClientError> {
        self.ensure_conn()?;
        let deadline = Instant::now() + self.config.read_timeout;
        let (writer, reader) = self.conn.as_mut().expect("ensure_conn succeeded");
        let result = (|| {
            writer.write_all(wire)?;
            writer.flush()?;
            Ok::<(), std::io::Error>(())
        })();
        if let Err(e) = result {
            self.conn = None;
            return Err(ClientError::Io(e));
        }
        let mut line = String::new();
        loop {
            let polled_at = Instant::now();
            match reader.read_line(&mut line) {
                Ok(0) => {
                    self.conn = None;
                    return Err(ClientError::Protocol("server closed the connection".into()));
                }
                Ok(_) => break,
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    // Partial bytes stay buffered in `line` across polls.
                    if Instant::now() >= deadline {
                        self.conn = None;
                        self.stats.timeouts += 1;
                        return Err(ClientError::Timeout(self.config.read_timeout));
                    }
                    // A transport that reports WouldBlock immediately
                    // (instead of honoring the READ_POLL timeout) must
                    // wait explicitly, or this loop would spin a core
                    // until the deadline. The guard keeps the normal
                    // timed path — where the poll itself already slept
                    // — free of extra latency.
                    if polled_at.elapsed() < Duration::from_millis(1) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                Err(e) => {
                    self.conn = None;
                    return Err(ClientError::Io(e));
                }
            }
        }
        let resp = Json::parse(line.trim())
            .map_err(|e| ClientError::Protocol(format!("unparseable response: {e}")))?;
        if resp.get("id") != id {
            self.conn = None;
            return Err(ClientError::Protocol(format!(
                "response id mismatch: sent {}, got {}",
                id.map_or("none".to_string(), Json::to_string),
                resp.get("id").map_or("none".to_string(), Json::to_string),
            )));
        }
        match resp.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(resp),
            Some(false) => Err(ClientError::Server(
                resp.get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown error")
                    .to_string(),
            )),
            None => Err(ClientError::Protocol("response is missing \"ok\"".into())),
        }
    }

    /// Sends one request object and waits for the one-line response,
    /// retrying transport-level failures up to the configured budget with
    /// deterministic exponential backoff. Returns the response body on
    /// `{"ok":true}`, [`ClientError::Server`] otherwise.
    ///
    /// Retrying is only exactly-once-safe because every verb is
    /// idempotent on the server: `init` replaces, `estimate`/`health`
    /// read, `shutdown` latches, and `ingest` carries a sequence number
    /// the server deduplicates on.
    ///
    /// Every request is stamped with a monotonically increasing `"id"`
    /// (unless the caller already supplied one) that all retry attempts
    /// share; the response must echo it or the attempt fails with a
    /// retryable protocol error. Delivered verdicts — ok or a server
    /// error — record into the [`ClientStats::latency`] histogram.
    pub fn request(&mut self, req: &Json) -> Result<Json, ClientError> {
        let req = if matches!(req, Json::Object(_)) && request_id(req).is_none() {
            let id = Json::Int(self.next_id as i64);
            self.next_id += 1;
            attach_id(req.clone(), Some(id))
        } else {
            // The caller supplied an id (kept), or the request is not an
            // object and cannot carry one.
            req.clone()
        };
        let id = request_id(&req);
        let wire = format!("{req}\n").into_bytes();
        self.request_raw(&wire, id.as_ref())
    }

    /// The retry/backoff/latency loop shared by the JSON and binary
    /// paths. `wire` is the exact bytes of one request — every retry
    /// attempt re-sends them unchanged, which is what makes server-side
    /// sequence deduplication sound for binary frames too.
    fn request_raw(&mut self, wire: &[u8], id: Option<&Json>) -> Result<Json, ClientError> {
        let started = Instant::now();
        let record = |stats: &mut ClientStats| {
            let ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            stats.latency.record(ns);
        };
        let mut attempt: u32 = 0;
        loop {
            match self.try_once_raw(wire, id) {
                Ok(resp) => {
                    record(&mut self.stats);
                    return Ok(resp);
                }
                Err(e) if e.is_retryable() && attempt < self.config.max_retries => {
                    self.conn = None;
                    self.stats.retry_attempts += 1;
                    // base << attempt: 1x, 2x, 4x, ... — deterministic.
                    std::thread::sleep(self.config.backoff_base * (1u32 << attempt.min(16)));
                    attempt += 1;
                }
                Err(e) => {
                    if e.is_retryable() {
                        self.stats.giveups += 1;
                    } else {
                        // A server verdict was delivered; that is a
                        // completed request from a latency standpoint.
                        record(&mut self.stats);
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Creates a session evaluating the constant policy `always
    /// <decision>` (by name) with the given estimators. Resets the
    /// client's ingest sequence for that session.
    #[allow(clippy::too_many_arguments)]
    pub fn init(
        &mut self,
        session: &str,
        schema: &ContextSchema,
        space: &DecisionSpace,
        estimators: &[&str],
        decision: &str,
        model_value: f64,
        window: Option<usize>,
    ) -> Result<Json, ClientError> {
        let mut fields = vec![
            ("verb", Json::str("init")),
            ("session", Json::str(session)),
            ("schema", schema.to_json()),
            ("space", space.to_json()),
            (
                "estimators",
                Json::Array(estimators.iter().map(|e| Json::str(*e)).collect()),
            ),
            (
                "policy",
                Json::object(vec![
                    ("kind", Json::str("constant")),
                    ("decision", Json::str(decision)),
                ]),
            ),
            ("model_value", Json::Num(model_value)),
            ("max_weight", Json::Num(DEFAULT_MAX_WEIGHT)),
        ];
        if let Some(w) = window {
            fields.push(("window", Json::Int(w as i64)));
        }
        let resp = self.request(&Json::object(fields))?;
        // A successful (re-)init starts the session's sequence over on
        // both ends.
        self.seqs.insert(session.to_string(), 0);
        Ok(resp)
    }

    /// Creates a session from a fully-formed init request object —
    /// the escape hatch for protocol fields [`ServeClient::init`] does
    /// not surface (the menu extensions `horizon`, `embedding`,
    /// `logging`, or a non-constant policy). Resets the client's ingest
    /// sequence for `session`, which must match the object's
    /// `"session"` field.
    pub fn init_with(&mut self, session: &str, init: &Json) -> Result<Json, ClientError> {
        let resp = self.request(init)?;
        self.seqs.insert(session.to_string(), 0);
        Ok(resp)
    }

    /// Feeds a batch of records into a session, stamped with the
    /// session's next sequence number so server-side deduplication makes
    /// retries exactly-once.
    pub fn ingest(&mut self, session: &str, records: &[TraceRecord]) -> Result<Json, ClientError> {
        let seq = *self.seqs.entry(session.to_string()).or_insert(0);
        let result = self.request(&ingest_request_json(session, records, Some(seq)));
        // The server consumes the sequence whenever it delivered a
        // verdict — positive or negative — so the client advances on
        // both. Only a transport-level failure leaves it unconsumed.
        if matches!(result, Ok(_) | Err(ClientError::Server(_))) {
            self.seqs.insert(session.to_string(), seq + 1);
        }
        result
    }

    /// Feeds a batch of records into a session over the binary columnar
    /// frame (see [`crate::frame`]) instead of the JSON `ingest` verb.
    /// Semantics are identical to [`ServeClient::ingest`] — the frame
    /// carries the session's next sequence number and a request id the
    /// JSON response must echo, and the frame is encoded exactly once so
    /// every retry re-sends byte-identical wire data. Returns
    /// [`ClientError::Protocol`] without touching the wire when the
    /// batch cannot be encoded (ragged rows, mixed column kinds, a state
    /// tag of `u32::MAX`, or a batch larger than the frame cap).
    pub fn ingest_binary(
        &mut self,
        session: &str,
        records: &[TraceRecord],
    ) -> Result<Json, ClientError> {
        let seq = *self.seqs.entry(session.to_string()).or_insert(0);
        let id = self.next_id;
        self.next_id += 1;
        let wire = crate::frame::encode(session, records, Some(seq), Some(id))
            .map_err(ClientError::Protocol)?;
        let id_json = Json::Int(id as i64);
        let result = self.request_raw(&wire, Some(&id_json));
        // Same sequence contract as the JSON path: any delivered verdict
        // consumed the sequence number on the server.
        if matches!(result, Ok(_) | Err(ClientError::Server(_))) {
            self.seqs.insert(session.to_string(), seq + 1);
        }
        result
    }

    /// Asks for the session's current estimates.
    pub fn estimate(&mut self, session: &str) -> Result<Json, ClientError> {
        self.request(&Json::object(vec![
            ("verb", Json::str("estimate")),
            ("session", Json::str(session)),
        ]))
    }

    /// Asks for the server-wide telemetry snapshot.
    pub fn health(&mut self) -> Result<Json, ClientError> {
        self.request(&Json::object(vec![("verb", Json::str("health"))]))
    }

    /// Asks for the server's live metric registry (the `stats` verb).
    /// With `flight` set the response also carries every shard's
    /// flight-recorder ring under `"flight"` (and the server rewrites
    /// the on-disk dumps when durability is configured).
    pub fn server_stats(&mut self, flight: bool) -> Result<Json, ClientError> {
        let mut fields = vec![("verb", Json::str("stats"))];
        if flight {
            fields.push(("flight", Json::Bool(true)));
        }
        self.request(&Json::object(fields))
    }

    /// Asks the server to shut down gracefully.
    pub fn shutdown(&mut self) -> Result<Json, ClientError> {
        self.request(&Json::object(vec![("verb", Json::str("shutdown"))]))
    }
}
