//! Soak test: repeated chaos rounds against ddn-serve must leak nothing.
//!
//! This binary holds a single `#[test]` on purpose: with no sibling
//! tests running, the process thread count is a meaningful invariant,
//! so the Linux-gated `/proc/self/task` check can assert that every
//! server round — faulted, degraded, or clean — joins all of its
//! threads on shutdown.

use ddn_estimators::Estimator;
use ddn_policy::LookupPolicy;
use ddn_serve::{
    serve, ClientConfig, Count, FaultState, FaultyTransport, ServeClient, ServeConfig,
    TcpTransport, Transport,
};
use ddn_stats::rng::{Rng, Xoshiro256};
use ddn_stats::Json;
use ddn_testkit::{FaultPlan, FaultPlanConfig};
use ddn_trace::{Context, ContextSchema, Decision, DecisionSpace, Trace, TraceRecord};
use std::time::Duration;

fn schema() -> ContextSchema {
    ContextSchema::builder().categorical("g", 2).build()
}

fn space() -> DecisionSpace {
    DecisionSpace::of(&["a", "b"])
}

fn records(n: usize, seed: u64) -> Vec<TraceRecord> {
    let mut rng = Xoshiro256::seed_from(seed);
    (0..n)
        .map(|_| {
            let g = rng.index(2) as u32;
            let c = Context::build(&schema()).set_cat("g", g).finish();
            let d = rng.index(2);
            let p = if d == 0 { 0.75 } else { 0.25 };
            let r = 2.0 + g as f64 + 3.0 * d as f64;
            TraceRecord::new(c, Decision::from_index(d), r).with_propensity(p)
        })
        .collect()
}

fn faulty_client(addr: &str, plan: &FaultPlan) -> (ServeClient, FaultState) {
    let state = FaultState::new(plan.cursor());
    let connector_state = state.clone();
    let addr = addr.to_string();
    let client = ServeClient::from_connector(
        Box::new(move || {
            let inner = Box::new(TcpTransport::connect(&addr)?) as Box<dyn Transport>;
            Ok(
                Box::new(FaultyTransport::new(inner, connector_state.clone()))
                    as Box<dyn Transport>,
            )
        }),
        ClientConfig {
            read_timeout: Duration::from_secs(5),
            max_retries: plan.len() as u32 + 2,
            backoff_base: Duration::from_millis(1),
        },
    )
    .expect("initial connect");
    (client, state)
}

fn offline_ips(records: &[TraceRecord]) -> f64 {
    let trace = Trace::from_records(schema(), space(), records.to_vec()).unwrap();
    let policy = LookupPolicy::constant(space(), 1);
    ddn_estimators::Ips::new()
        .estimate(&trace, &policy)
        .unwrap()
        .value
}

fn online_ips(est: &Json) -> f64 {
    est.get("estimates")
        .and_then(|e| e.get("ips"))
        .and_then(|e| e.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no ips value in {est:?}"))
}

/// Number of OS threads in this process (Linux); `None` elsewhere.
fn thread_count() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Number of open file descriptors in this process (Linux); `None`
/// elsewhere. The durable rounds hold WAL and snapshot handles — a
/// shutdown that forgot to drop them shows up here.
fn fd_count() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        std::fs::read_dir("/proc/self/fd").ok().map(|d| d.count())
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// One faulted round: a server, a faulted client, `n` records streamed
/// in batches, parity against the offline estimator, clean shutdown.
fn chaos_round(seed: u64, n: usize) -> (u64, u64, u64) {
    let plan = FaultPlan::generate(
        seed,
        &FaultPlanConfig {
            faults: 8,
            write_horizon: 64 << 10,
            read_horizon: 2 << 10,
            max_delay_micros: 100,
            max_partial_bytes: 24,
        },
    );
    let handle = serve(&ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = handle.local_addr().to_string();
    let (mut client, _state) = faulty_client(&addr, &plan);

    client
        .init("soak", &schema(), &space(), &["ips"], "b", 0.0, None)
        .expect("init outlasts the plan");
    let recs = records(n, seed.wrapping_mul(0x9e37_79b9));
    for chunk in recs.chunks(64) {
        let resp = client
            .ingest("soak", chunk)
            .expect("ingest outlasts the plan");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
    }

    assert_eq!(
        handle.stats().get(Count::IngestRecords),
        recs.len() as u64,
        "seed {seed}: exactly-once tally drifted"
    );
    let est = client.estimate("soak").expect("estimate outlasts the plan");
    assert_eq!(est.get("n").and_then(Json::as_i64), Some(recs.len() as i64));
    assert_eq!(
        online_ips(&est).to_bits(),
        offline_ips(&recs).to_bits(),
        "seed {seed}: streamed estimate diverged from offline"
    );

    let retries = client.stats().retry_attempts();
    let replays = handle.stats().get(Count::DedupReplays);
    let injected = client.stats().reconnects();
    drop(client);
    handle.shutdown();
    (retries, replays, injected)
}

/// One degraded round: a failpoint panics a shard worker; the session is
/// quarantined, the rest of the server keeps working, shutdown is clean.
fn degraded_round(seed: u64) {
    let handle = serve(&ServeConfig {
        shards: 1,
        failpoint: Some("poison".to_string()),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = handle.local_addr().to_string();
    let mut client = ServeClient::connect(&addr).unwrap();
    client
        .init("ok", &schema(), &space(), &["ips"], "b", 0.0, None)
        .unwrap();
    client
        .init("poison", &schema(), &space(), &["ips"], "b", 0.0, None)
        .unwrap();
    client
        .ingest("poison", &records(5, seed))
        .expect_err("failpoint degrades the session");
    let recs = records(100, seed);
    client.ingest("ok", &recs).unwrap();
    let est = client.estimate("ok").unwrap();
    assert_eq!(
        online_ips(&est).to_bits(),
        offline_ips(&recs).to_bits(),
        "a shard-mate's panic must not touch this session's estimate"
    );
    assert_eq!(handle.stats().get(Count::FaultWorkerRestarts), 1);
    drop(client);
    handle.shutdown();
}

/// One durable round: a WAL-backed server is killed and restarted on the
/// same data directory mid-stream; every handle it held (WAL file,
/// snapshot temp files, sockets) must be gone when the round ends.
fn durable_round(seed: u64) {
    let dir = std::env::temp_dir().join(format!("ddn-soak-durable-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig {
        shards: 2,
        data_dir: Some(dir.clone()),
        snapshot_every: 8,
        ..ServeConfig::default()
    };
    let handle = serve(&config).expect("bind durable");
    // The client survives the restart (its per-session sequence numbers
    // must continue where the recovered server expects them), so its
    // connector re-reads the address of whichever incarnation is live.
    let addr = std::sync::Arc::new(std::sync::Mutex::new(handle.local_addr().to_string()));
    let connector_addr = std::sync::Arc::clone(&addr);
    let mut client = ServeClient::from_connector(
        Box::new(move || {
            let a = connector_addr.lock().unwrap().clone();
            Ok(Box::new(TcpTransport::connect(&a)?) as Box<dyn Transport>)
        }),
        ClientConfig {
            read_timeout: Duration::from_secs(5),
            max_retries: 6,
            backoff_base: Duration::from_millis(1),
        },
    )
    .unwrap();
    client
        .init("durable", &schema(), &space(), &["ips"], "b", 0.0, None)
        .unwrap();
    let recs = records(200, seed.wrapping_mul(0x2545_F491_4F6C_DD1D));
    let (first, rest) = recs.split_at(100);
    for chunk in first.chunks(25) {
        client.ingest("durable", chunk).unwrap();
    }
    handle.shutdown();

    let handle = serve(&config).expect("rebind durable");
    *addr.lock().unwrap() = handle.local_addr().to_string();
    for chunk in rest.chunks(25) {
        client.ingest("durable", chunk).unwrap();
    }
    let est = client.estimate("durable").unwrap();
    assert_eq!(est.get("n").and_then(Json::as_i64), Some(recs.len() as i64));
    assert_eq!(
        online_ips(&est).to_bits(),
        offline_ips(&recs).to_bits(),
        "seed {seed}: estimate diverged across the durable restart"
    );
    drop(client);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn soak_many_faulted_rounds_leak_no_threads_and_lose_no_records() {
    // Warm up once so lazily-spawned runtime threads (if any) exist
    // before the baseline is taken.
    chaos_round(0, 256);
    durable_round(0);
    let baseline = thread_count();
    let fd_baseline = fd_count();

    let mut total_retries = 0u64;
    let mut total_replays = 0u64;
    for seed in 1..=10u64 {
        let (retries, replays, _) = chaos_round(seed, 2_000);
        total_retries += retries;
        total_replays += replays;
        degraded_round(seed);
        durable_round(seed);
    }

    // The fault plans are drawn over the full byte stream of each round,
    // so across 10 rounds at least some must have fired mid-flight.
    assert!(
        total_retries >= 1,
        "soak exercised no retries — plans never fired"
    );
    assert!(
        total_replays <= total_retries,
        "{total_replays} replays but only {total_retries} retries"
    );

    if let (Some(before), Some(after)) = (baseline, thread_count()) {
        assert_eq!(
            before, after,
            "thread leak: {before} OS threads before the soak, {after} after"
        );
    }
    if let (Some(before), Some(after)) = (fd_baseline, fd_count()) {
        assert_eq!(
            before, after,
            "fd leak: {before} open descriptors before the soak, {after} after \
             (unclosed WAL handles or sockets)"
        );
    }
}
