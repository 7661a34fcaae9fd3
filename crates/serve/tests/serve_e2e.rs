//! End-to-end tests over a real TCP loopback: a server on an ephemeral
//! port, driven by the blocking client.

use ddn_estimators::Estimator;
use ddn_policy::LookupPolicy;
use ddn_serve::{serve, ServeClient, ServeConfig};
use ddn_stats::rng::{Rng, Xoshiro256};
use ddn_stats::Json;
use ddn_trace::{Context, ContextSchema, Decision, DecisionSpace, Trace, TraceRecord};

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

fn start() -> (ddn_serve::ServerHandle, String) {
    let handle = serve(&ServeConfig::default()).expect("bind ephemeral port");
    let addr = handle.local_addr().to_string();
    (handle, addr)
}

#[test]
fn ingest_then_estimate_matches_offline_bits() {
    let (handle, addr) = start();
    let mut client = ServeClient::connect(&addr).unwrap();
    client
        .init(
            "e2e",
            &schema(),
            &space(),
            &["ips", "snips", "dr"],
            "b",
            0.0,
            None,
        )
        .unwrap();

    let recs = records(300, 7);
    // Feed in several batches to exercise repeated ingest.
    for chunk in recs.chunks(64) {
        let resp = client.ingest("e2e", chunk).unwrap();
        assert_eq!(
            resp.get("accepted").and_then(Json::as_i64),
            Some(chunk.len() as i64)
        );
    }
    let resp = client.estimate("e2e").unwrap();
    assert_eq!(resp.get("n").and_then(Json::as_i64), Some(300));

    let trace = Trace::from_records(schema(), space(), recs).unwrap();
    let policy = LookupPolicy::constant(space(), 1);
    for (name, offline) in [
        ("ips", ddn_estimators::Ips::new().estimate(&trace, &policy)),
        (
            "snips",
            ddn_estimators::SelfNormalizedIps::new().estimate(&trace, &policy),
        ),
        (
            "dr",
            ddn_estimators::DoublyRobust::new(&ddn_models::ConstantModel::zero())
                .estimate(&trace, &policy),
        ),
    ] {
        let online = resp
            .get("estimates")
            .and_then(|e| e.get(name))
            .and_then(|e| e.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{name} missing from {resp:?}"));
        let offline = offline.unwrap().value;
        assert_eq!(
            online.to_bits(),
            offline.to_bits(),
            "{name}: online {online} != offline {offline}"
        );
    }
    client.shutdown().unwrap();
    handle.shutdown();
}

#[test]
fn health_reports_serve_counters_and_session_sources() {
    let (handle, addr) = start();
    let mut client = ServeClient::connect(&addr).unwrap();
    client
        .init("h", &schema(), &space(), &["ips"], "b", 0.0, None)
        .unwrap();
    client.ingest("h", &records(50, 3)).unwrap();
    let resp = client.health().unwrap();
    let telemetry = resp.get("telemetry").expect("health carries telemetry");
    let counters = telemetry.get("counters").expect("counters section");
    for key in [
        "serve.ingest.records",
        "serve.queue.depth",
        "serve.conn.active",
        "serve.backpressure.stalls",
    ] {
        assert!(counters.get(key).is_some(), "missing {key}: {counters:?}");
    }
    assert_eq!(
        counters.get("serve.ingest.records").and_then(Json::as_u64),
        Some(50)
    );
    assert_eq!(
        counters.get("serve.conn.active").and_then(Json::as_u64),
        Some(1)
    );
    let health = telemetry.get("health").expect("health section");
    assert!(
        health.get("serve/h/ips").is_some(),
        "per-session estimator health missing: {health:?}"
    );
    // shutdown() consumes the handle and joins every thread; returning
    // at all means the stop was clean.
    handle.shutdown();
}

#[test]
fn bad_lines_do_not_kill_the_connection() {
    let (handle, addr) = start();
    let mut client = ServeClient::connect(&addr).unwrap();

    // Garbage JSON → error response, connection stays usable.
    let err = client
        .request(&Json::str("not an object"))
        .expect_err("strings are not requests");
    assert!(format!("{err}").contains("verb"), "{err}");

    let err = client
        .request(&Json::object(vec![("verb", Json::str("estimate"))]))
        .expect_err("estimate without session");
    assert!(format!("{err}").contains("session"), "{err}");

    // Unknown session is an application error, still on a live socket.
    let err = client
        .request(&Json::object(vec![
            ("verb", Json::str("estimate")),
            ("session", Json::str("nope")),
        ]))
        .expect_err("unknown session");
    assert!(format!("{err}").contains("unknown session"), "{err}");

    // And the connection still works for real traffic.
    client
        .init("ok", &schema(), &space(), &["dm"], "a", 1.0, None)
        .unwrap();
    let resp = client.estimate("ok").unwrap();
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
    handle.shutdown();
}

#[test]
fn shutdown_verb_stops_accepting_new_connections() {
    let (handle, addr) = start();
    let mut client = ServeClient::connect(&addr).unwrap();
    let resp = client.shutdown().unwrap();
    assert_eq!(resp.get("shutting_down"), Some(&Json::Bool(true)));
    // Joining succeeds: acceptor and workers exit.
    handle.shutdown();
    // New connections are refused (or accepted-then-dropped by the dying
    // acceptor wake-up connection); either way no request succeeds.
    match ServeClient::connect(&addr) {
        Err(_) => {}
        Ok(mut c) => {
            assert!(c.health().is_err(), "server answered after shutdown");
        }
    }
}

#[test]
fn sessions_are_isolated_across_connections() {
    let (handle, addr) = start();
    let mut a = ServeClient::connect(&addr).unwrap();
    let mut b = ServeClient::connect(&addr).unwrap();
    a.init("sa", &schema(), &space(), &["ips"], "b", 0.0, None)
        .unwrap();
    b.init("sb", &schema(), &space(), &["ips"], "a", 0.0, None)
        .unwrap();
    a.ingest("sa", &records(40, 1)).unwrap();
    b.ingest("sb", &records(60, 2)).unwrap();
    let ra = a.estimate("sa").unwrap();
    let rb = b.estimate("sb").unwrap();
    assert_eq!(ra.get("n").and_then(Json::as_i64), Some(40));
    assert_eq!(rb.get("n").and_then(Json::as_i64), Some(60));
    handle.shutdown();
}
