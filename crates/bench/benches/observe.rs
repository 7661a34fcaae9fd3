//! Observability-overhead bench, writing `BENCH_observe.json` with an
//! `observe` summary section pinning the cost of the live tracing
//! plane (ISSUE 7 / DESIGN.md §13).
//!
//! The same loopback ingest workload runs twice against real servers —
//! one with `trace_requests` on (the default: per-request queue-wait
//! and handler histograms plus flight-recorder events), one with it
//! off — and the section reports both throughputs and whether the
//! traced server stays within 5% of the untraced one. The whole point
//! of the plane is to watch the collection pipeline without perturbing
//! it; this bench is that claim, measured.
//!
//! `DDN_OBSERVE_RUNS` overrides the record count (CI smoke uses a
//! small value); `DDN_BENCH_WARMUP` / `DDN_BENCH_ITERS` crank
//! iterations as for every other suite.

use ddn_bench::Suite;
use ddn_policy::{Policy, UniformRandomPolicy};
use ddn_serve::{serve, ServeClient, ServeConfig};
use ddn_stats::rng::{Rng, Xoshiro256};
use ddn_stats::Json;
use ddn_trace::{Context, ContextSchema, DecisionSpace, TraceRecord};

/// Maximum acceptable throughput cost of request tracing, as a
/// fraction of untraced throughput.
const MAX_OVERHEAD_FRACTION: f64 = 0.05;

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

fn throughput(suite: &Suite, bench_name: &str, n: u64) -> f64 {
    let r = suite
        .results()
        .iter()
        .find(|r| r.name == bench_name)
        .expect("bench ran");
    n as f64 / (r.mean_ns / 1e9)
}

fn main() {
    let n: usize = std::env::var("DDN_OBSERVE_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let batch = 256usize;
    let recs = records(n);

    let mut suite = Suite::new("observe");

    let run_ingest = |suite: &mut Suite, name: &str, trace: bool, session: &str| {
        let handle = serve(&ServeConfig {
            trace_requests: trace,
            ..ServeConfig::default()
        })
        .expect("bind ephemeral port");
        let addr = handle.local_addr().to_string();
        let mut round = 0usize;
        suite.bench_throughput(name, n as u64, || {
            // A fresh session per iteration keeps dedup out of the way
            // without restarting the server (the registry is long-lived
            // by design — histograms accumulate across iterations).
            round += 1;
            let session = format!("{session}-{round}");
            let mut client = ServeClient::connect(&addr).expect("loopback connect");
            client
                .init(&session, &schema(), &space(), &["ips"], "b", 0.0, None)
                .expect("init accepted");
            for chunk in recs.chunks(batch) {
                client.ingest(&session, chunk).expect("ingest accepted");
            }
            client.estimate(&session).expect("estimate accepted")
        });
        handle.shutdown();
    };

    run_ingest(&mut suite, "observe/tcp_ingest_traced", true, "traced");
    run_ingest(&mut suite, "observe/tcp_ingest_untraced", false, "untraced");

    let traced_rps = throughput(&suite, "observe/tcp_ingest_traced", n as u64);
    let untraced_rps = throughput(&suite, "observe/tcp_ingest_untraced", n as u64);
    let overhead = 1.0 - traced_rps / untraced_rps;
    let within = overhead <= MAX_OVERHEAD_FRACTION;
    if !within {
        eprintln!(
            "warning: request tracing costs {:.1}% of ingest throughput \
             (pinned ceiling {:.0}%)",
            overhead * 100.0,
            MAX_OVERHEAD_FRACTION * 100.0
        );
    }
    suite.attach_section(
        "observe",
        Json::Object(vec![
            ("records".into(), Json::Int(n as i64)),
            ("batch".into(), Json::Int(batch as i64)),
            ("traced_records_per_sec".into(), Json::Num(traced_rps)),
            ("untraced_records_per_sec".into(), Json::Num(untraced_rps)),
            ("overhead_fraction".into(), Json::Num(overhead)),
            (
                "max_overhead_fraction".into(),
                Json::Num(MAX_OVERHEAD_FRACTION),
            ),
            ("within_5pct".into(), Json::Bool(within)),
        ]),
    );
    suite.finish();
}
