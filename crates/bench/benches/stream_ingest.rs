//! Streaming-ingest throughput, writing `BENCH_stream.json` with a
//! `stream` summary section that pins the ingest-throughput floor.
//!
//! Three layers of the ddn-serve stack are timed over the same record
//! workload, so a regression can be localized at a glance:
//!
//! - `stream/online_ips_push` — the bare [`OnlineIps`] accumulator,
//!   the per-record cost floor of the whole service.
//! - `stream/engine_ingest` — the in-process [`ddn_serve::Engine`]
//!   (validation, propensity precheck, coupling monitor, full bank).
//! - `stream/engine_ingest_menu` — the same engine ingest into one
//!   cumulative bank of every registry name (SeqDR horizon 4), the
//!   served bank at its widest; reported per record, with no floor.
//! - `stream/tcp_replay` — the complete loopback round trip: JSON
//!   encode, TCP write, server parse/dispatch/ingest, reply.
//! - `stream/tcp_replay_binary` — the same round trip over the binary
//!   columnar batch frame; the summary pins its throughput at
//!   ≥[`BINARY_OVER_JSON_FLOOR`]× the JSON path, at bit-identical
//!   estimates.
//!
//! `DDN_STREAM_RUNS` overrides the record count (CI smoke uses a small
//! value); `DDN_BENCH_WARMUP` / `DDN_BENCH_ITERS` crank iterations as
//! for every other suite.

use ddn_bench::Suite;
use ddn_estimators::menu::MENU;
use ddn_estimators::{OnlineEstimator, OnlineIps};
use ddn_policy::{LookupPolicy, Policy, UniformRandomPolicy};
use ddn_serve::{serve, Engine, Request, ServeClient, ServeConfig};
use ddn_stats::rng::{Rng, Xoshiro256};
use ddn_stats::Json;
use ddn_trace::{Context, ContextSchema, DecisionSpace, TraceRecord};

/// Minimum acceptable sustained ingest rate (records/second) on the
/// *online push* layer — deliberately conservative so the pin survives
/// slow CI machines while still catching an accidental O(n) in `push`.
const FLOOR_RECORDS_PER_SEC: f64 = 100_000.0;

/// Minimum acceptable `tcp_replay_binary / tcp_replay` throughput
/// ratio. The binary columnar frame exists to beat per-record JSON
/// encode/parse; a ratio collapse means someone put text back on the
/// hot path.
const BINARY_OVER_JSON_FLOOR: f64 = 5.0;

fn schema() -> ContextSchema {
    ContextSchema::builder().categorical("g", 2).build()
}

fn space() -> DecisionSpace {
    DecisionSpace::of(&["a", "b"])
}

fn records(n: usize) -> Vec<TraceRecord> {
    let s = schema();
    let logger = UniformRandomPolicy::new(space());
    let mut rng = Xoshiro256::seed_from(4_2107);
    (0..n)
        .map(|_| {
            let c = Context::build(&s)
                .set_cat("g", rng.index(2) as u32)
                .finish();
            let (d, p) = logger.sample_with_prob(&c, &mut rng);
            let reward = 2.0 + 3.0 * d.index() as f64;
            TraceRecord::new(c, d, reward).with_propensity(p)
        })
        .collect()
}

fn init_line(session: &str, estimators: &[&str], horizon: i64) -> String {
    let names = estimators.iter().map(|e| Json::str(*e)).collect();
    let init = Json::Object(vec![
        ("verb".into(), Json::str("init")),
        ("session".into(), Json::str(session)),
        ("schema".into(), schema().to_json()),
        ("space".into(), space().to_json()),
        ("estimators".into(), Json::Array(names)),
        (
            "policy".into(),
            Json::Object(vec![
                ("kind".into(), Json::str("constant")),
                ("decision".into(), Json::str("b")),
            ]),
        ),
        ("horizon".into(), Json::Int(horizon)),
    ]);
    init.to_string()
}

/// Ingests `recs` in batches of `batch` into a fresh engine's session
/// `bench`, created by `init_line`; returns the records accepted.
fn engine_ingest(init_line: &str, recs: &[TraceRecord], batch: usize) -> usize {
    let mut engine = Engine::new();
    let spec = match Request::parse(init_line).expect("valid init") {
        Request::Init(spec) => spec,
        _ => unreachable!("init line parses to Init"),
    };
    engine.handle_init(spec);
    let mut total = 0usize;
    for chunk in recs.chunks(batch) {
        let resp = engine.handle_ingest("bench", chunk, None);
        total += resp.get("accepted").and_then(|v| v.as_u64()).unwrap_or(0) as usize;
    }
    assert_eq!(total, recs.len(), "every record must be accepted");
    total
}

fn throughput(suite: &Suite, bench_name: &str, n: u64) -> f64 {
    let r = suite
        .results()
        .iter()
        .find(|r| r.name == bench_name)
        .expect("bench ran");
    n as f64 / (r.mean_ns / 1e9)
}

fn main() {
    let n: usize = std::env::var("DDN_STREAM_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let batch = 256usize;
    let recs = records(n);

    let mut suite = Suite::new("stream");

    suite.bench_throughput("stream/online_ips_push", n as u64, || {
        let mut est = OnlineIps::new(space(), Box::new(LookupPolicy::constant(space(), 1)))
            .expect("spaces match");
        for rec in &recs {
            est.push(rec).expect("records carry propensities");
        }
        est.estimate().expect("nonempty stream").value
    });

    let ips_line = init_line("bench", &["ips"], 1);
    suite.bench_throughput("stream/engine_ingest", n as u64, || {
        engine_ingest(&ips_line, &recs, batch)
    });
    let menu: Vec<&str> = MENU.iter().map(|e| e.name).collect();
    let menu_line = init_line("bench", &menu, 4);
    suite.bench_throughput("stream/engine_ingest_menu", n as u64, || {
        engine_ingest(&menu_line, &recs, batch)
    });

    let handle = serve(&ServeConfig::default()).expect("bind ephemeral port");
    let addr = handle.local_addr().to_string();
    // The timed region is connect + init + ingest: the replay path under
    // measurement. The estimate read happens once afterwards (it costs
    // the same on both encodings — it never touches the wire format —
    // and would otherwise drown the encode/parse difference at small
    // record counts).
    suite.bench_throughput("stream/tcp_replay", n as u64, || {
        let mut client = ServeClient::connect(&addr).expect("loopback connect");
        client
            .init("bench-tcp", &schema(), &space(), &["ips"], "b", 0.0, None)
            .expect("init accepted");
        for chunk in recs.chunks(batch) {
            client.ingest("bench-tcp", chunk).expect("ingest accepted");
        }
    });
    // Same workload, same batching, same server — only the ingest wire
    // encoding changes, so the ratio isolates the JSON encode/parse tax.
    suite.bench_throughput("stream/tcp_replay_binary", n as u64, || {
        let mut client = ServeClient::connect(&addr).expect("loopback connect");
        client
            .init("bench-bin", &schema(), &space(), &["ips"], "b", 0.0, None)
            .expect("init accepted");
        for chunk in recs.chunks(batch) {
            client
                .ingest_binary("bench-bin", chunk)
                .expect("binary ingest accepted");
        }
    });
    // Bit-identity check: each bench's final iteration left its session
    // holding exactly the workload, so the two estimates must agree to
    // the last bit for the throughput comparison to mean anything.
    let ips_bits = |est: &Json| -> u64 {
        est.get("estimates")
            .and_then(|e| e.get("ips"))
            .and_then(|e| e.get("value"))
            .and_then(Json::as_f64)
            .expect("estimate carries an ips value")
            .to_bits()
    };
    let mut check = ServeClient::connect(&addr).expect("loopback connect");
    let est_json = check.estimate("bench-tcp").expect("estimate accepted");
    let est_binary = check.estimate("bench-bin").expect("estimate accepted");
    assert_eq!(
        ips_bits(&est_json),
        ips_bits(&est_binary),
        "binary and JSON replay must serve bit-identical estimates"
    );
    handle.shutdown();

    let push_rps = throughput(&suite, "stream/online_ips_push", n as u64);
    let engine_rps = throughput(&suite, "stream/engine_ingest", n as u64);
    let engine_menu_rps = throughput(&suite, "stream/engine_ingest_menu", n as u64);
    let tcp_rps = throughput(&suite, "stream/tcp_replay", n as u64);
    let binary_rps = throughput(&suite, "stream/tcp_replay_binary", n as u64);
    let binary_over_json = binary_rps / tcp_rps;
    if push_rps < FLOOR_RECORDS_PER_SEC {
        eprintln!(
            "warning: online push throughput {push_rps:.0} records/s \
             is below the pinned floor {FLOOR_RECORDS_PER_SEC:.0}"
        );
    }
    suite.attach_section(
        "stream",
        Json::Object(vec![
            ("records".into(), Json::Int(n as i64)),
            ("batch".into(), Json::Int(batch as i64)),
            (
                "floor_records_per_sec".into(),
                Json::Num(FLOOR_RECORDS_PER_SEC),
            ),
            ("online_push_records_per_sec".into(), Json::Num(push_rps)),
            (
                "engine_ingest_records_per_sec".into(),
                Json::Num(engine_rps),
            ),
            (
                "engine_menu_ingest_ns_per_record".into(),
                Json::Num(1e9 / engine_menu_rps),
            ),
            ("tcp_replay_records_per_sec".into(), Json::Num(tcp_rps)),
            (
                "tcp_replay_binary_records_per_sec".into(),
                Json::Num(binary_rps),
            ),
            ("binary_over_json".into(), Json::Num(binary_over_json)),
            (
                "binary_over_json_floor".into(),
                Json::Num(BINARY_OVER_JSON_FLOOR),
            ),
            (
                "meets_floor".into(),
                Json::Bool(push_rps >= FLOOR_RECORDS_PER_SEC),
            ),
            (
                "meets_binary_floor".into(),
                Json::Bool(binary_over_json >= BINARY_OVER_JSON_FLOOR),
            ),
        ]),
    );
    suite.finish();
}
