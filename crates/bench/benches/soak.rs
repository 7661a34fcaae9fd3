//! Chaos soak benchmark, writing `BENCH_soak.json` with a `soak`
//! summary section: sustained ingest throughput over loopback TCP while
//! a seeded fault plan (1% per-record fault rate) injects partial I/O,
//! delays, mid-line disconnects, and error returns into the client's
//! transport. The run also re-checks the exactly-once and estimate
//! parity contracts — a soak that loses records measures nothing.
//!
//! `DDN_SOAK_RUNS` overrides the record count (CI smoke uses a small
//! value); `DDN_BENCH_WARMUP` / `DDN_BENCH_ITERS` crank iterations as
//! for every other suite.

use ddn_bench::Suite;
use ddn_serve::{
    serve, ClientConfig, Count, FaultState, FaultyTransport, ServeClient, ServeConfig,
    TcpTransport, Transport,
};
use ddn_stats::rng::{Rng, Xoshiro256};
use ddn_stats::Json;
use ddn_testkit::{Dir, FaultCounts, FaultEvent, FaultKind, FaultPlan, FaultPlanConfig};
use ddn_trace::{Context, ContextSchema, Decision, DecisionSpace, TraceRecord};
use std::time::Duration;

const FAULT_RATE: f64 = 0.01;
const SEED: u64 = 1107;

fn schema() -> ContextSchema {
    ContextSchema::builder().categorical("g", 2).build()
}

fn space() -> DecisionSpace {
    DecisionSpace::of(&["a", "b"])
}

fn records(n: usize) -> Vec<TraceRecord> {
    let mut rng = Xoshiro256::seed_from(SEED);
    (0..n)
        .map(|_| {
            let g = rng.index(2) as u32;
            let c = Context::build(&schema()).set_cat("g", g).finish();
            let d = rng.index(2);
            let p = if d == 0 { 0.75 } else { 0.25 };
            TraceRecord::new(c, Decision::from_index(d), 2.0 + g as f64 + 3.0 * d as f64)
                .with_propensity(p)
        })
        .collect()
}

fn plan_for(recs: &[TraceRecord], batch: usize) -> FaultPlan {
    let bytes_per_record = recs[0].to_json().to_string().len() as u64 + 16;
    let write_horizon = (recs.len() as u64 * bytes_per_record).max(1 << 12);
    let read_horizon = ((recs.len().div_ceil(batch) as u64) * 96).max(1 << 10);
    let faults = ((recs.len() as f64 * FAULT_RATE).round() as usize).max(1);
    let mut plan = FaultPlan::generate(
        SEED,
        &FaultPlanConfig {
            faults,
            write_horizon,
            read_horizon,
            max_delay_micros: 50,
            max_partial_bytes: 32,
        },
    );
    if !plan.has_kind(&FaultKind::Disconnect) {
        plan.push(FaultEvent {
            dir: Dir::Read,
            offset: read_horizon / 3,
            kind: FaultKind::Disconnect,
        });
    }
    plan
}

fn main() {
    let n: usize = std::env::var("DDN_SOAK_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let batch = 256usize;
    let recs = records(n);
    let plan = plan_for(&recs, batch);

    let handle = serve(&ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.local_addr().to_string();

    let mut suite = Suite::new("soak");
    // Stats from the most recent iteration; every iteration replays the
    // same plan from a fresh cursor, so they are all identical anyway.
    let mut last_retries = 0u64;
    let mut last_injected = FaultCounts::default();
    let mut session_no = 0u64;

    suite.bench_throughput("soak/faulted_tcp_replay", n as u64, || {
        let state = FaultState::new(plan.cursor());
        let connector_state = state.clone();
        let dial = addr.clone();
        let mut client = ServeClient::from_connector(
            Box::new(move || {
                let inner = Box::new(TcpTransport::connect(&dial)?) as Box<dyn Transport>;
                Ok(
                    Box::new(FaultyTransport::new(inner, connector_state.clone()))
                        as Box<dyn Transport>,
                )
            }),
            ClientConfig {
                read_timeout: Duration::from_secs(10),
                max_retries: plan.len() as u32 + 2,
                backoff_base: Duration::from_millis(1),
            },
        )
        .expect("loopback connect");
        // A fresh session per iteration keeps the server-side record
        // tally attributable to this replay alone.
        session_no += 1;
        let session = format!("soak-{session_no}");
        client
            .init(&session, &schema(), &space(), &["ips"], "b", 0.0, None)
            .expect("init outlasts the plan");
        for chunk in recs.chunks(batch) {
            client
                .ingest(&session, chunk)
                .expect("ingest outlasts the plan");
        }
        let est = client
            .estimate(&session)
            .expect("estimate outlasts the plan");
        assert_eq!(
            est.get("n").and_then(Json::as_i64),
            Some(n as i64),
            "exactly-once violated under the soak plan"
        );
        last_retries = client.stats().retry_attempts();
        last_injected = state.injected();
        est
    });

    let replays = handle.stats().get(Count::DedupReplays);
    let r = suite
        .results()
        .iter()
        .find(|r| r.name == "soak/faulted_tcp_replay")
        .expect("bench ran");
    let rps = n as f64 / (r.mean_ns / 1e9);

    suite.attach_section(
        "soak",
        Json::Object(vec![
            ("records".into(), Json::Int(n as i64)),
            ("batch".into(), Json::Int(batch as i64)),
            ("fault_rate".into(), Json::Num(FAULT_RATE)),
            ("scheduled_faults".into(), Json::Int(plan.len() as i64)),
            ("records_per_sec".into(), Json::Num(rps)),
            ("retries".into(), Json::Int(last_retries as i64)),
            ("dedup_replays".into(), Json::Int(replays as i64)),
            (
                "faults".into(),
                Json::Object(vec![
                    ("partial".into(), Json::Int(last_injected.partial as i64)),
                    ("delay".into(), Json::Int(last_injected.delay as i64)),
                    (
                        "disconnect".into(),
                        Json::Int(last_injected.disconnect as i64),
                    ),
                    ("error".into(), Json::Int(last_injected.error as i64)),
                ]),
            ),
        ]),
    );
    handle.shutdown();
    suite.finish();
}
