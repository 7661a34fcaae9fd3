//! Chaos property suite: the serve protocol under scripted transport
//! faults.
//!
//! Every case draws a seeded [`FaultPlan`] and wires it between the
//! client and the TCP socket, so partial I/O, delays, mid-line
//! disconnects, and error returns hit at scripted byte offsets. The
//! properties assert the paper-level invariant the whole subsystem
//! exists for: *faults must not bias the data* — every acknowledged
//! ingest is counted exactly once, and the streamed estimate stays
//! bit-identical to the offline estimator over the acknowledged records,
//! no matter what the wire did.

use ddn_estimators::Estimator;
use ddn_policy::LookupPolicy;
use ddn_serve::{
    serve, ClientConfig, Count, FaultState, FaultyTransport, ServeClient, ServeConfig,
    TcpTransport, Transport,
};
use ddn_stats::rng::{Rng, Xoshiro256};
use ddn_stats::Json;
use ddn_testkit::{
    fault_plans, prop, prop_assert, prop_assert_eq, Dir, FaultEvent, FaultKind, FaultPlan,
    FaultPlanConfig,
};
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

/// A client whose transport consumes `plan`, with a retry budget big
/// enough that any finite plan is eventually outlasted.
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
            // Every failed attempt consumes at least one scheduled fault,
            // so this budget guarantees eventual success.
            max_retries: plan.len() as u32 + 2,
            backoff_base: Duration::from_millis(2),
        },
    )
    .expect("initial connect");
    (client, state)
}

fn ips_value(estimate_resp: &Json) -> f64 {
    estimate_resp
        .get("estimates")
        .and_then(|e| e.get("ips"))
        .and_then(|e| e.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no ips value in {estimate_resp:?}"))
}

fn offline_ips(records: &[TraceRecord]) -> f64 {
    let trace = Trace::from_records(schema(), space(), records.to_vec()).unwrap();
    let policy = LookupPolicy::constant(space(), 1);
    ddn_estimators::Ips::new()
        .estimate(&trace, &policy)
        .unwrap()
        .value
}

prop! {
    /// THE chaos property: under an arbitrary seeded fault plan, every
    /// batch is eventually acknowledged, the server's exactly-once tally
    /// equals the number of records sent, the streamed estimate is
    /// bit-identical to the offline estimator over those records, and
    /// shutdown joins every thread.
    fn exactly_once_under_arbitrary_fault_plans(
        plan in fault_plans(FaultPlanConfig {
            faults: 6,
            write_horizon: 8 << 10,
            read_horizon: 512,
            max_delay_micros: 200,
            max_partial_bytes: 16,
        }),
        rec_seed in 0u64..1_000_000,
    ) {
        let handle = serve(&ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        })
        .expect("bind");
        let addr = handle.local_addr().to_string();
        let (mut client, state) = faulty_client(&addr, &plan);

        client
            .init("chaos", &schema(), &space(), &["ips"], "b", 0.0, None)
            .expect("init should outlast the plan");
        let recs = records(200, rec_seed);
        for chunk in recs.chunks(16) {
            let resp = client.ingest("chaos", chunk).expect("ingest should outlast the plan");
            prop_assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        }

        // Exactly once: the server-side tally counts every record exactly
        // one time, however many wire-level attempts (and dedup replays)
        // it took.
        prop_assert_eq!(handle.stats().get(Count::IngestRecords), recs.len() as u64);

        // Bit-identity with the offline estimator over the acknowledged
        // records: the fault path added or dropped nothing.
        let est = client.estimate("chaos").expect("estimate should outlast the plan");
        prop_assert_eq!(est.get("n").and_then(Json::as_i64), Some(recs.len() as i64));
        let online_bits = ips_value(&est).to_bits();
        let offline_bits = offline_ips(&recs).to_bits();
        prop_assert!(
            online_bits == offline_bits,
            "streamed estimate diverged under plan {:?} (injected {:?})",
            plan,
            state.injected()
        );

        // If anything was deduplicated, the counter saw it; and a replay
        // requires at least one retry to have happened.
        let replays = handle.stats().get(Count::DedupReplays);
        let retries = client.stats().retry_attempts();
        prop_assert!(
            replays <= retries,
            "{} replays but only {} retries",
            replays,
            retries
        );

        // Clean stop: shutdown() joins acceptor, workers, and every
        // connection thread — returning at all proves no thread hangs.
        handle.shutdown();
    }
}

#[test]
fn a_disconnect_during_the_ack_is_deduplicated() {
    // Script a read-side disconnect that lands exactly while the client
    // is reading the first ingest acknowledgement: the batch applies on
    // the server, the ack is lost, the retry must be answered from the
    // dedup window — counted once, not twice.
    let handle = serve(&ServeConfig::default()).expect("bind");
    let addr = handle.local_addr().to_string();

    // The client stamps request ids starting at 0 and the server echoes
    // them, so the init ack on the wire carries `"id":0`.
    let init_ack = ddn_serve::protocol::attach_id(
        ddn_serve::protocol::ok_response(vec![("session", Json::str("det"))]),
        Some(Json::Int(0)),
    )
    .to_string();
    let mut plan = FaultPlan::new();
    plan.push(FaultEvent {
        dir: Dir::Read,
        // A few bytes into the second response line (the ingest ack).
        offset: init_ack.len() as u64 + 1 + 3,
        kind: FaultKind::Disconnect,
    });
    let (mut client, state) = faulty_client(&addr, &plan);

    client
        .init("det", &schema(), &space(), &["ips"], "b", 0.0, None)
        .unwrap();
    let recs = records(50, 11);
    let resp = client.ingest("det", &recs).expect("retry recovers the ack");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
    // The recovered ack is the stored one, marked as a replay.
    assert_eq!(resp.get("duplicate"), Some(&Json::Bool(true)));

    assert_eq!(state.injected().disconnect, 1, "the scripted fault fired");
    assert_eq!(client.stats().retry_attempts(), 1);
    assert_eq!(client.stats().reconnects(), 1);
    assert_eq!(handle.stats().get(Count::DedupReplays), 1);
    // Exactly once despite the double send.
    assert_eq!(handle.stats().get(Count::IngestRecords), recs.len() as u64);
    let est = client.estimate("det").unwrap();
    assert_eq!(est.get("n").and_then(Json::as_i64), Some(50));
    assert_eq!(
        ips_value(&est).to_bits(),
        offline_ips(&recs).to_bits(),
        "dedup must not change the estimate"
    );
    handle.shutdown();
}

#[test]
fn a_worker_panic_degrades_one_session_not_the_server() {
    // One shard so both sessions share a worker: the panic must cost the
    // poisoned session only, not its shard-mates.
    let handle = serve(&ServeConfig {
        shards: 1,
        failpoint: Some("boom".to_string()),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = handle.local_addr().to_string();
    let mut client = ServeClient::connect(&addr).unwrap();

    client
        .init("fine", &schema(), &space(), &["ips"], "b", 0.0, None)
        .unwrap();
    client
        .init("boom", &schema(), &space(), &["ips"], "b", 0.0, None)
        .unwrap();

    // The failpoint panics the worker mid-request; the client sees a
    // degraded error, not a hang or a dropped connection.
    let err = client
        .ingest("boom", &records(10, 1))
        .expect_err("failpoint should degrade the session");
    assert!(format!("{err}").contains("degraded"), "{err}");
    // Estimates on the poisoned session report degraded too (no hang).
    let err = client.estimate("boom").expect_err("poisoned session");
    assert!(format!("{err}").contains("degraded"), "{err}");

    // The shard-mate is untouched and the worker keeps serving it.
    client.ingest("fine", &records(30, 2)).unwrap();
    let est = client.estimate("fine").unwrap();
    assert_eq!(est.get("n").and_then(Json::as_i64), Some(30));

    // Health: the restart is counted and the poisoned session is visible
    // as a degraded source.
    assert_eq!(handle.stats().get(Count::FaultWorkerRestarts), 1);
    let health = client.health().unwrap();
    let telemetry = health.get("telemetry").unwrap();
    assert!(
        telemetry
            .get("health")
            .and_then(|h| h.get("serve/boom/degraded"))
            .is_some(),
        "degraded source missing: {telemetry:?}"
    );
    assert_eq!(
        telemetry
            .get("counters")
            .and_then(|c| c.get("serve.fault.worker_restarts"))
            .and_then(Json::as_u64),
        Some(1)
    );

    // Re-init lifts the quarantine; a fresh session under a different
    // name would too, but the point is recovery in place. The failpoint
    // still matches the session id, so use a non-matching replacement.
    client
        .init("recovered", &schema(), &space(), &["ips"], "b", 0.0, None)
        .unwrap();
    client.ingest("recovered", &records(5, 3)).unwrap();
    handle.shutdown();
}

#[test]
fn client_timeout_is_typed_and_bounded() {
    // A server that accepts but never answers: bind a raw listener and
    // let the connection sit. The client must fail with Timeout (not
    // hang), once per attempt, then give up.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let silent = std::thread::spawn(move || {
        // Hold the connections open without answering until the client
        // has given up (one accept per attempt).
        let mut held = Vec::new();
        for stream in listener.incoming().take(2) {
            held.push(stream);
        }
        held
    });

    let mut client = ServeClient::connect_with(
        &addr,
        ClientConfig {
            read_timeout: Duration::from_millis(150),
            max_retries: 1,
            backoff_base: Duration::from_millis(1),
        },
    )
    .unwrap();
    let start = std::time::Instant::now();
    let err = client.health().expect_err("silent server");
    match &err {
        ddn_serve::ClientError::Timeout(d) => {
            assert_eq!(*d, Duration::from_millis(150));
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
    assert!(err.is_retryable());
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "timeout path took {:?}",
        start.elapsed()
    );
    assert_eq!(client.stats().timeouts(), 2, "one per attempt");
    assert_eq!(client.stats().giveups(), 1);
    let _ = silent.join();
}
