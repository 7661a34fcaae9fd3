//! The wire protocol: one JSON object per line, in both directions.
//!
//! ## Grammar
//!
//! Every request is a single-line JSON object with a `"verb"` field:
//!
//! ```text
//! init     {"verb":"init","session":S,"schema":H,"space":P,
//!           "estimators":["ips","snips","clipped","dm","dr",
//!                         "adaptive","adaptive_dr","mdr","seqdr"],
//!           "policy":{"kind":"constant","decision":D}|{"kind":"uniform"},
//!           "model_value":V?,"max_weight":W?,"window":N?,
//!           "horizon":T?,"embedding":[G,...]?,"logging":POLICY?}
//! ingest   {"verb":"ingest","session":S,"records":[R,...],"seq":Q?}
//! estimate {"verb":"estimate","session":S}
//! health   {"verb":"health"}
//! stats    {"verb":"stats","flight":B?}
//! shutdown {"verb":"shutdown"}
//! ```
//!
//! Any request may additionally carry a client-assigned `"id"` (any
//! JSON value); the server echoes it verbatim as the `"id"` field of
//! the response — success or error — so clients can correlate
//! request/response pairs across retries (DESIGN.md §13).
//!
//! where `H`/`P`/`R` are the `ddn-trace` JSONL encodings of a context
//! schema, decision space, and trace record, `D` is a decision name or
//! index, `V` is an optional constant reward-model value (default 0) for
//! `dm`/`dr`, `W` an optional clip threshold (default 10) for `clipped`,
//! and `N` an optional sliding-window capacity (omitted = cumulative).
//! The menu extensions add `T`, an optional trajectory horizon
//! (default 1) for `seqdr`; `[G,...]`, an optional per-arm group
//! assignment for `mdr` (omitted = identity embedding, one group per
//! arm); and `"logging"`, an optional policy object giving `mdr` its
//! marginal denominators (omitted = uniform — `mdr` never reads
//! per-record propensities).
//!
//! `stats` returns a point-in-time snapshot of the server's live metric
//! [`ddn_telemetry::Registry`] (counters, gauges, log2 histogram
//! buckets) as deterministic sorted-key JSON; with `"flight":true` it
//! also returns (and, with durability on, dumps to disk) every shard's
//! flight-recorder ring. See DESIGN.md §13.
//!
//! Every batch is applied atomically: a bad record rejects the whole
//! batch, and the error names its position. `Q` is an optional
//! per-session batch sequence number starting at 0. A sequenced batch is
//! also applied exactly once: replaying the last-acknowledged sequence
//! returns the stored acknowledgement (tagged `"duplicate":true`) without
//! re-ingesting, which is what makes client retries safe. See DESIGN.md
//! §11.
//!
//! Every response is `{"ok":true,...}` or `{"ok":false,"error":MSG}`.
//! A malformed line never kills the connection: the server answers with
//! an error object and keeps reading.
//!
//! ## Binary batch frames
//!
//! Alongside the JSON verbs, a connection may send an `ingest` as one
//! length-prefixed binary columnar frame (magic byte `0xDB`, which can
//! never open a JSON line). The frame decodes to exactly the same
//! [`Request::Ingest`] — session, records, optional `seq` and `id` —
//! and is answered by the same one-line JSON response. JSON stays the
//! debug/compat protocol; the frame is the high-throughput encoding.
//! Byte layout and invariants live in [`crate::frame`] and DESIGN.md
//! §14.
//!
//! [`Request::decode`] is the one decoder for both encodings: the
//! server's event loop runs it on every payload a connection sends, and
//! crash recovery runs it on every payload the WAL logged — the same
//! bytes.

use crate::frame::{self, FRAME_MAGIC};
use ddn_stats::Json;
use ddn_trace::{ContextSchema, DecisionSpace, TraceRecord};

/// The default clip threshold for the `clipped` estimator when the init
/// request does not set `"max_weight"`.
pub use ddn_estimators::menu::DEFAULT_MAX_WEIGHT;

/// The target-policy specification carried by an `init` request.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicySpec {
    /// "always this decision", named or by index (resolved against the
    /// session's decision space at init time).
    ConstantName(String),
    /// "always this decision", by index.
    ConstantIndex(usize),
    /// Uniform random over the decision space.
    Uniform,
}

impl PolicySpec {
    /// The `"policy"` object of an init request line.
    pub fn to_json(&self) -> Json {
        match self {
            PolicySpec::Uniform => Json::object(vec![("kind", Json::str("uniform"))]),
            PolicySpec::ConstantName(name) => Json::object(vec![
                ("kind", Json::str("constant")),
                ("decision", Json::str(name.clone())),
            ]),
            PolicySpec::ConstantIndex(i) => Json::object(vec![
                ("kind", Json::str("constant")),
                ("decision", Json::Int(*i as i64)),
            ]),
        }
    }
}

/// An `init` request, parsed and type-checked (but with the policy's
/// decision not yet resolved against the space).
#[derive(Debug)]
pub struct InitSpec {
    /// Session identifier (routing key for sharding).
    pub session: String,
    /// Context schema the session's records must conform to.
    pub schema: ContextSchema,
    /// Decision space the session's records must conform to.
    pub space: DecisionSpace,
    /// Estimators to run, by protocol name (the rows of
    /// [`ddn_estimators::menu::MENU`]).
    pub estimators: Vec<String>,
    /// Target policy to evaluate.
    pub policy: PolicySpec,
    /// Constant reward-model value for `dm`/`dr`/`adaptive_dr`/`mdr`/`seqdr`.
    pub model_value: f64,
    /// Clip threshold for `clipped`.
    pub max_weight: f64,
    /// Sliding-window capacity; `None` = cumulative estimators.
    pub window: Option<usize>,
    /// Trajectory horizon for `seqdr` (default 1 — single-step DR).
    pub horizon: usize,
    /// Per-arm group assignment for `mdr`; `None` = identity embedding.
    pub embedding: Option<Vec<usize>>,
    /// Logging policy supplying `mdr`'s marginal denominators.
    pub logging: PolicySpec,
}

impl InitSpec {
    /// Re-serializes the spec as a complete init request object (the
    /// `"verb":"init"` object) — the snapshot encoding of a session's
    /// configuration, read back through [`Request::from_json`] on
    /// restore. Round-tripping is exact: the workspace JSON float
    /// formatting is bit-preserving, and `parse_init`'s `.reindexed()` is
    /// idempotent on an already-reindexed schema.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("verb", Json::str("init")),
            ("session", Json::str(self.session.clone())),
            ("schema", self.schema.to_json()),
            ("space", self.space.to_json()),
            (
                "estimators",
                Json::Array(self.estimators.iter().map(Json::str).collect()),
            ),
            ("policy", self.policy.to_json()),
            ("model_value", Json::Num(self.model_value)),
            ("max_weight", Json::Num(self.max_weight)),
        ];
        if let Some(w) = self.window {
            fields.push(("window", Json::Int(w as i64)));
        }
        if self.horizon != 1 {
            fields.push(("horizon", Json::Int(self.horizon as i64)));
        }
        if let Some(groups) = &self.embedding {
            fields.push((
                "embedding",
                Json::Array(groups.iter().map(|&g| Json::Int(g as i64)).collect()),
            ));
        }
        if self.logging != PolicySpec::Uniform {
            fields.push(("logging", self.logging.to_json()));
        }
        Json::object(fields)
    }
}

/// The JSON ingest request object for `records` — the line
/// [`crate::ServeClient::ingest`] sends.
pub fn ingest_request_json(session: &str, records: &[TraceRecord], seq: Option<u64>) -> Json {
    let mut fields = vec![
        ("verb", Json::str("ingest")),
        ("session", Json::str(session)),
        (
            "records",
            Json::Array(records.iter().map(TraceRecord::to_json).collect()),
        ),
    ];
    if let Some(q) = seq {
        fields.push(("seq", Json::Int(q as i64)));
    }
    Json::object(fields)
}

/// A parsed client request.
#[derive(Debug)]
pub enum Request {
    /// Create (or replace) a session.
    Init(InitSpec),
    /// Feed records into a session.
    Ingest {
        /// Target session.
        session: String,
        /// Parsed records (validation against the session's schema
        /// happens in the shard worker).
        records: Vec<TraceRecord>,
        /// Optional batch sequence number for exactly-once retries.
        seq: Option<u64>,
    },
    /// Ask for the session's current estimates.
    Estimate {
        /// Target session.
        session: String,
    },
    /// Ask for a server-wide telemetry snapshot.
    Health,
    /// Ask for the live metric registry (and optionally the flight
    /// recorder rings).
    Stats {
        /// Include every shard's flight-recorder events in the response
        /// (and dump them to `flightrec-<shard>.jsonl` when durability
        /// is configured).
        flight: bool,
    },
    /// Begin graceful shutdown.
    Shutdown,
}

impl Request {
    /// Decodes one request payload exactly as it arrived: a binary batch
    /// frame when it opens with [`FRAME_MAGIC`], otherwise a JSON line
    /// (newline stripped), read with lossy UTF-8 decoding and trimmed.
    /// Returns the request — or the user-facing error to answer with —
    /// plus the `"id"` to echo. A JSON line's id is read before its verb
    /// is validated, so even a malformed request's error echoes it.
    ///
    /// This is the one decoder: the event loop runs it on live traffic
    /// and recovery on the WAL, which logs these same payload bytes, so
    /// a logged request replays exactly as it was first read.
    pub fn decode(payload: &[u8]) -> (Result<Request, String>, Option<Json>) {
        if payload.starts_with(&FRAME_MAGIC) {
            return match frame::decode(payload) {
                Ok(batch) => (
                    Ok(Request::Ingest {
                        session: batch.session,
                        records: batch.records,
                        seq: batch.seq,
                    }),
                    batch.id.map(|i| Json::Int(i as i64)),
                ),
                Err(e) => (Err(format!("bad frame: {e}")), None),
            };
        }
        match Json::parse(String::from_utf8_lossy(payload).trim()) {
            Ok(v) => (Self::from_json(&v), request_id(&v)),
            Err(e) => (Err(format!("bad JSON: {e}")), None),
        }
    }

    /// Parses one request line through [`Request::decode`]. Errors are
    /// user-facing strings (they go straight into the `"error"` field of
    /// the response).
    pub fn parse(line: &str) -> Result<Request, String> {
        Self::decode(line.as_bytes()).0
    }

    /// Parses an already-decoded request object.
    pub fn from_json(v: &Json) -> Result<Request, String> {
        let verb = v
            .get("verb")
            .and_then(Json::as_str)
            .ok_or("missing \"verb\"")?;
        match verb {
            "init" => Ok(Request::Init(parse_init(v)?)),
            "ingest" => {
                let session = required_session(v)?;
                let records = v
                    .get("records")
                    .and_then(Json::as_array)
                    .ok_or("ingest needs a \"records\" array")?
                    .iter()
                    .map(|r| TraceRecord::from_json(r).map_err(|e| format!("bad record: {e}")))
                    .collect::<Result<Vec<_>, _>>()?;
                let seq = match v.get("seq") {
                    None => None,
                    Some(x) => Some(x.as_u64().ok_or("\"seq\" must be a non-negative integer")?),
                };
                Ok(Request::Ingest {
                    session,
                    records,
                    seq,
                })
            }
            "estimate" => Ok(Request::Estimate {
                session: required_session(v)?,
            }),
            "health" => Ok(Request::Health),
            "stats" => {
                let flight = match v.get("flight") {
                    None => false,
                    Some(Json::Bool(b)) => *b,
                    Some(_) => return Err("\"flight\" must be a boolean".into()),
                };
                Ok(Request::Stats { flight })
            }
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown verb {other:?}")),
        }
    }

    /// The session a shard verb (`init`, `ingest`, `estimate`) targets;
    /// `None` for the verbs the event loop answers itself.
    pub fn session(&self) -> Option<&str> {
        match self {
            Request::Init(spec) => Some(&spec.session),
            Request::Ingest { session, .. } | Request::Estimate { session } => Some(session),
            Request::Health | Request::Stats { .. } | Request::Shutdown => None,
        }
    }
}

/// The client-assigned request id of a decoded request object, if any.
/// Ids are opaque: any JSON value is accepted and echoed verbatim.
pub fn request_id(v: &Json) -> Option<Json> {
    v.get("id").cloned()
}

/// Appends the echoed `"id"` field to a response object (no-op without
/// an id, or on a non-object response).
pub fn attach_id(mut resp: Json, id: Option<Json>) -> Json {
    if let (Json::Object(fields), Some(id)) = (&mut resp, id) {
        fields.push(("id".to_string(), id));
    }
    resp
}

fn required_session(v: &Json) -> Result<String, String> {
    v.get("session")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| "missing \"session\"".to_string())
}

fn parse_policy(p: &Json) -> Result<PolicySpec, String> {
    let kind = p
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("policy needs a \"kind\"")?;
    match kind {
        "uniform" => Ok(PolicySpec::Uniform),
        "constant" => match p.get("decision") {
            Some(Json::Str(name)) => Ok(PolicySpec::ConstantName(name.clone())),
            Some(d) => {
                let idx = d
                    .as_u64()
                    .ok_or("constant policy needs a decision name or index")?;
                Ok(PolicySpec::ConstantIndex(idx as usize))
            }
            None => Err("constant policy needs \"decision\"".into()),
        },
        other => Err(format!("unknown policy kind {other:?}")),
    }
}

fn parse_init(v: &Json) -> Result<InitSpec, String> {
    let session = required_session(v)?;
    let schema = ContextSchema::from_json(v.get("schema").ok_or("init needs \"schema\"")?)
        .map_err(|e| format!("bad schema: {e}"))?
        .reindexed();
    let space = DecisionSpace::from_json(v.get("space").ok_or("init needs \"space\"")?)
        .map_err(|e| format!("bad space: {e}"))?;
    let estimators: Vec<String> = match v.get("estimators").and_then(Json::as_array) {
        Some(list) => list
            .iter()
            .map(|e| {
                e.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "estimator names must be strings".to_string())
            })
            .collect::<Result<_, _>>()?,
        None => vec!["ips".into(), "snips".into(), "dm".into(), "dr".into()],
    };
    if estimators.is_empty() {
        return Err("\"estimators\" must not be empty".into());
    }
    let policy = match v.get("policy") {
        None => PolicySpec::Uniform,
        Some(p) => parse_policy(p)?,
    };
    let model_value = match v.get("model_value") {
        None => 0.0,
        Some(x) => {
            let m = x.as_f64().ok_or("\"model_value\" must be a number")?;
            if !m.is_finite() {
                return Err("\"model_value\" must be finite".into());
            }
            m
        }
    };
    let max_weight = match v.get("max_weight") {
        None => DEFAULT_MAX_WEIGHT,
        Some(x) => {
            let w = x.as_f64().ok_or("\"max_weight\" must be a number")?;
            if !(w > 0.0 && w.is_finite()) {
                return Err("\"max_weight\" must be positive and finite".into());
            }
            w
        }
    };
    let window = match v.get("window") {
        None => None,
        Some(x) => {
            let n = x.as_u64().ok_or("\"window\" must be a positive integer")?;
            if n == 0 {
                return Err("\"window\" must be at least 1".into());
            }
            Some(n as usize)
        }
    };
    let horizon = match v.get("horizon") {
        None => 1,
        Some(x) => {
            let n = x.as_u64().ok_or("\"horizon\" must be a positive integer")?;
            if n == 0 {
                return Err("\"horizon\" must be at least 1".into());
            }
            n as usize
        }
    };
    let embedding = match v.get("embedding") {
        None => None,
        Some(x) => {
            let arr = x
                .as_array()
                .ok_or("\"embedding\" must be an array of group ids")?;
            let groups = arr
                .iter()
                .map(|g| {
                    g.as_u64().map(|g| g as usize).ok_or_else(|| {
                        "\"embedding\" entries must be non-negative integers".to_string()
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            if groups.len() != space.len() {
                return Err(format!(
                    "\"embedding\" covers {} arms but the space has {}",
                    groups.len(),
                    space.len()
                ));
            }
            Some(groups)
        }
    };
    let logging = match v.get("logging") {
        None => PolicySpec::Uniform,
        Some(p) => parse_policy(p)?,
    };
    Ok(InitSpec {
        session,
        schema,
        space,
        estimators,
        policy,
        model_value,
        max_weight,
        window,
        horizon,
        embedding,
        logging,
    })
}

/// `{"ok":false,"error":msg}`.
pub fn error_response(msg: &str) -> Json {
    Json::object(vec![("ok", Json::Bool(false)), ("error", Json::str(msg))])
}

/// `{"ok":true, ...fields}`.
pub fn ok_response(fields: Vec<(&str, Json)>) -> Json {
    let mut all = vec![("ok", Json::Bool(true))];
    all.extend(fields);
    Json::object(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddn_trace::{Context, Decision};

    fn schema_json() -> String {
        ContextSchema::builder()
            .categorical("g", 2)
            .build()
            .to_json()
            .to_string()
    }

    fn space_json() -> String {
        DecisionSpace::of(&["a", "b"]).to_json().to_string()
    }

    #[test]
    fn parses_the_full_init_surface() {
        let line = format!(
            r#"{{"verb":"init","session":"s1","schema":{},"space":{},"estimators":["ips","clipped"],"policy":{{"kind":"constant","decision":"b"}},"model_value":1.5,"max_weight":4.0,"window":32}}"#,
            schema_json(),
            space_json()
        );
        let req = Request::parse(&line).unwrap();
        let Request::Init(init) = req else {
            panic!("expected init");
        };
        assert_eq!(init.session, "s1");
        assert_eq!(init.estimators, vec!["ips", "clipped"]);
        assert_eq!(init.policy, PolicySpec::ConstantName("b".into()));
        assert_eq!(init.model_value, 1.5);
        assert_eq!(init.max_weight, 4.0);
        assert_eq!(init.window, Some(32));
    }

    #[test]
    fn parses_and_round_trips_the_menu_init_fields() {
        let line = format!(
            concat!(
                r#"{{"verb":"init","session":"s1","schema":{},"space":{},"#,
                r#""estimators":["adaptive","adaptive_dr","mdr","seqdr"],"#,
                r#""policy":{{"kind":"constant","decision":"b"}},"#,
                r#""horizon":4,"embedding":[0,0],"#,
                r#""logging":{{"kind":"constant","decision":"a"}}}}"#,
            ),
            schema_json(),
            space_json()
        );
        let Request::Init(init) = Request::parse(&line).unwrap() else {
            panic!("expected init");
        };
        assert_eq!(init.horizon, 4);
        assert_eq!(init.embedding, Some(vec![0, 0]));
        assert_eq!(init.logging, PolicySpec::ConstantName("a".into()));

        // The snapshot encoding (to_json) must re-parse to the same spec.
        let Request::Init(again) = Request::parse(&init.to_json().to_string()).unwrap() else {
            panic!("expected init");
        };
        assert_eq!(again.horizon, init.horizon);
        assert_eq!(again.embedding, init.embedding);
        assert_eq!(again.logging, init.logging);
        assert_eq!(again.estimators, init.estimators);

        // Validation: zero horizon, bad embedding arity, bad logging kind,
        // a model value that parses to infinity.
        for (extra, needle) in [
            (r#","horizon":0"#, "horizon"),
            (r#","embedding":[0]"#, "embedding"),
            (r#","logging":{"kind":"warp"}"#, "policy kind"),
            (r#","model_value":1e999"#, "model_value"),
            (r#","model_value":-1e999"#, "model_value"),
        ] {
            let line = format!(
                r#"{{"verb":"init","session":"s","schema":{},"space":{}{extra}}}"#,
                schema_json(),
                space_json()
            );
            let e = Request::parse(&line).unwrap_err();
            assert!(e.contains(needle), "{extra}: {e}");
        }
    }

    #[test]
    fn init_defaults_are_sensible() {
        let line = format!(
            r#"{{"verb":"init","session":"s","schema":{},"space":{}}}"#,
            schema_json(),
            space_json()
        );
        let Request::Init(init) = Request::parse(&line).unwrap() else {
            panic!("expected init");
        };
        assert_eq!(init.estimators, vec!["ips", "snips", "dm", "dr"]);
        assert_eq!(init.policy, PolicySpec::Uniform);
        assert_eq!(init.max_weight, DEFAULT_MAX_WEIGHT);
        assert_eq!(init.window, None);
        assert_eq!(init.horizon, 1);
        assert_eq!(init.embedding, None);
        assert_eq!(init.logging, PolicySpec::Uniform);
    }

    #[test]
    fn parses_ingest_records() {
        let schema = ContextSchema::builder().categorical("g", 2).build();
        let c = Context::build(&schema).set_cat("g", 1).finish();
        let rec = ddn_trace::TraceRecord::new(c, Decision::from_index(0), 2.0).with_propensity(0.5);
        let line = format!(
            r#"{{"verb":"ingest","session":"s","records":[{}]}}"#,
            rec.to_json()
        );
        let Request::Ingest {
            session,
            records,
            seq,
        } = Request::parse(&line).unwrap()
        else {
            panic!("expected ingest");
        };
        assert_eq!(session, "s");
        assert_eq!(records, vec![rec]);
        assert_eq!(seq, None);
    }

    #[test]
    fn parses_ingest_seq() {
        let line = r#"{"verb":"ingest","session":"s","records":[],"seq":7}"#;
        let Request::Ingest { seq, .. } = Request::parse(line).unwrap() else {
            panic!("expected ingest");
        };
        assert_eq!(seq, Some(7));
        let e =
            Request::parse(r#"{"verb":"ingest","session":"s","records":[],"seq":-1}"#).unwrap_err();
        assert!(e.contains("seq"), "{e}");
        let e = Request::parse(r#"{"verb":"ingest","session":"s","records":[],"seq":"x"}"#)
            .unwrap_err();
        assert!(e.contains("seq"), "{e}");
    }

    #[test]
    fn rejects_malformed_requests_with_messages() {
        for (line, needle) in [
            ("{not json}", "bad JSON"),
            (r#"{"session":"s"}"#, "verb"),
            (r#"{"verb":"warp"}"#, "unknown verb"),
            (r#"{"verb":"ingest","records":[]}"#, "session"),
            (r#"{"verb":"ingest","session":"s"}"#, "records"),
            (r#"{"verb":"init","session":"s"}"#, "schema"),
            (
                r#"{"verb":"init","session":"s","schema":{"inner":{"names":["g"],"kinds":[{"Categorical":{"cardinality":0}}]}},"space":{"names":["a"]}}"#,
                "bad schema",
            ),
            (
                r#"{"verb":"init","session":"s","schema":{"inner":{"names":["g","g"],"kinds":["Numeric","Numeric"]}},"space":{"names":["a"]}}"#,
                "bad schema",
            ),
        ] {
            let e = Request::parse(line).unwrap_err();
            assert!(e.contains(needle), "{line}: {e}");
        }
    }

    #[test]
    fn parses_stats_verb() {
        let Request::Stats { flight } = Request::parse(r#"{"verb":"stats"}"#).unwrap() else {
            panic!("expected stats");
        };
        assert!(!flight);
        let Request::Stats { flight } =
            Request::parse(r#"{"verb":"stats","flight":true}"#).unwrap()
        else {
            panic!("expected stats");
        };
        assert!(flight);
        let e = Request::parse(r#"{"verb":"stats","flight":1}"#).unwrap_err();
        assert!(e.contains("flight"), "{e}");
    }

    #[test]
    fn request_ids_are_extracted_and_echoed() {
        let v = Json::parse(r#"{"verb":"health","id":"abc-7"}"#).unwrap();
        let id = request_id(&v);
        assert_eq!(id, Some(Json::str("abc-7")));
        let resp = attach_id(ok_response(vec![]), id);
        assert_eq!(resp.get("id").and_then(Json::as_str), Some("abc-7"));
        // Errors echo too, and numeric (or any) ids survive verbatim.
        let v = Json::parse(r#"{"verb":"nope","id":42}"#).unwrap();
        let resp = attach_id(error_response("unknown verb"), request_id(&v));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(resp.get("id"), Some(&Json::Int(42)));
        // No id, no field.
        let resp = attach_id(ok_response(vec![]), None);
        assert!(resp.get("id").is_none());
    }

    #[test]
    fn response_builders_shape_the_envelope() {
        let ok = ok_response(vec![("accepted", Json::Int(3))]);
        assert_eq!(ok.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(ok.get("accepted"), Some(&Json::Int(3)));
        let err = error_response("nope");
        assert_eq!(err.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(err.get("error").and_then(Json::as_str), Some("nope"));
    }
}
