//! Binary-vs-JSON equivalence suite: the columnar batch frame is a pure
//! *encoding* change, never a *semantics* change.
//!
//! Every test feeds the same seeded workload through both wire
//! encodings — the JSON `ingest` verb and the binary batch frame — and
//! demands the servers end up indistinguishable: bit-identical
//! estimates, identical health telemetry, identical (normalized) stats
//! snapshots. The chaos property repeats the claim under scripted
//! transport faults, where the binary path additionally has to prove
//! its retries are byte-identical re-sends the server's sequence
//! dedup recognises. The crash-resume test covers the WAL leg: binary
//! frames are logged verbatim and must replay to the same state.

use ddn_serve::{
    serve, ClientConfig, Count, FaultState, FaultyTransport, ServeClient, ServeConfig,
    TcpTransport, Transport,
};
use ddn_stats::rng::{Rng, Xoshiro256};
use ddn_stats::Json;
use ddn_testkit::{fault_plans, prop, prop_assert, prop_assert_eq, FaultPlanConfig};
use ddn_trace::{Context, ContextSchema, Decision, DecisionSpace, StateTag, TraceRecord};
use std::time::Duration;

fn schema() -> ContextSchema {
    ContextSchema::builder()
        .categorical("g", 3)
        .numeric("load")
        .build()
}

fn space() -> DecisionSpace {
    DecisionSpace::of(&["a", "b", "c"])
}

/// Seeded records exercising the frame's columns: mixed categorical +
/// numeric features, propensity on every record (the estimator menu
/// demands it), and per-record presence and absence of the timestamp
/// and state-tag columns (absent slots ride as NaN / sentinel).
fn records(n: usize, seed: u64) -> Vec<TraceRecord> {
    let mut rng = Xoshiro256::seed_from(seed);
    (0..n)
        .map(|i| {
            let g = rng.index(3) as u32;
            let load = rng.next_f64() * 10.0;
            let c = Context::build(&schema())
                .set_cat("g", g)
                .set_numeric("load", load)
                .finish();
            let d = rng.index(3);
            let r = 1.0 + g as f64 + 2.0 * d as f64 + load / 100.0;
            let mut rec = TraceRecord::new(c, Decision::from_index(d), r)
                .with_propensity(1.0 / (2.0 + d as f64));
            if i % 3 == 0 {
                rec = rec.with_timestamp(i as f64 * 0.5);
            }
            if i % 5 == 0 {
                rec = rec.with_state(StateTag(g));
            }
            rec
        })
        .collect()
}

/// Strips wall-clock noise from a `stats` snapshot: histogram bodies
/// become their counts, leaving counters, gauges, and the full metric
/// name set — the same normalization the stats-verb suite pins.
fn normalized(snap: &Json) -> Json {
    let section = |name: &str| snap.get(name).cloned().unwrap_or(Json::Null);
    let histograms = snap
        .get("histograms")
        .and_then(Json::as_object)
        .unwrap_or_default()
        .iter()
        .map(|(name, h)| {
            (
                name.clone(),
                h.get("count").cloned().unwrap_or(Json::Int(0)),
            )
        })
        .collect::<Vec<_>>();
    Json::Object(vec![
        ("counters".to_string(), section("counters")),
        ("gauges".to_string(), section("gauges")),
        ("histograms".to_string(), Json::Object(histograms)),
    ])
}

/// Drops the `"id"` echo so responses from different request orderings
/// compare on content.
fn strip_id(resp: &Json) -> Json {
    match resp {
        Json::Object(fields) => {
            Json::Object(fields.iter().filter(|(k, _)| k != "id").cloned().collect())
        }
        other => other.clone(),
    }
}

/// Runs one full workload (init, chunked ingest, estimate, health,
/// stats) against a fresh server, ingesting through `binary` or JSON.
/// The request *sequence* is identical either way, so request ids line
/// up and the responses may be compared verbatim.
fn run_workload(recs: &[TraceRecord], chunk: usize, binary: bool) -> (Json, Json, Json) {
    let handle = serve(&ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    })
    .expect("bind");
    let mut client = ServeClient::connect(&handle.local_addr().to_string()).unwrap();
    client
        .init(
            "equiv",
            &schema(),
            &space(),
            &["ips", "snips"],
            "b",
            0.0,
            None,
        )
        .unwrap();
    for batch in recs.chunks(chunk) {
        let resp = if binary {
            client.ingest_binary("equiv", batch).unwrap()
        } else {
            client.ingest("equiv", batch).unwrap()
        };
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
    }
    let estimate = client.estimate("equiv").unwrap();
    let health = client.health().unwrap();
    let stats = client.server_stats(false).unwrap();
    assert_eq!(handle.stats().get(Count::IngestRecords), recs.len() as u64);
    handle.shutdown();
    (estimate, health, stats)
}

#[test]
fn binary_and_json_workloads_serve_bit_identical_state() {
    let recs = records(96, 42);
    let (est_j, health_j, stats_j) = run_workload(&recs, 16, false);
    let (est_b, health_b, stats_b) = run_workload(&recs, 16, true);

    // Estimates: the whole response object, bit for bit (floats travel
    // through `Json` untouched, so string equality is bit equality).
    assert_eq!(est_j.to_string(), est_b.to_string());

    // Health: counters and per-session health sources are identical.
    // (Timing sections are wall-clock and excluded, as everywhere else.)
    let telemetry = |resp: &Json, section: &str| {
        resp.get("telemetry")
            .and_then(|t| t.get(section))
            .cloned()
            .unwrap_or(Json::Null)
            .to_string()
    };
    assert_eq!(
        telemetry(&health_j, "counters"),
        telemetry(&health_b, "counters")
    );
    assert_eq!(
        telemetry(&health_j, "health"),
        telemetry(&health_b, "health")
    );

    // Stats: identical normalized snapshots — same metric name set, same
    // counter and gauge values, same per-verb request tallies. A binary
    // ingest books exactly the metrics a JSON ingest books.
    let norm = |resp: &Json| normalized(resp.get("stats").expect("stats section")).to_string();
    assert_eq!(norm(&stats_j), norm(&stats_b));
}

#[test]
fn encode_failures_are_client_side_and_consume_no_sequence() {
    // A batch the frame cannot carry (here: a session name longer than
    // the u16 length field) fails before touching the wire; the JSON
    // path still works afterwards and the sequence was not burned.
    let handle = serve(&ServeConfig::default()).expect("bind");
    let mut client = ServeClient::connect(&handle.local_addr().to_string()).unwrap();
    let long = "s".repeat(70_000);
    let err = client
        .ingest_binary(&long, &records(1, 7))
        .expect_err("unencodable batch");
    assert!(matches!(err, ddn_serve::ClientError::Protocol(_)), "{err}");
    assert_eq!(handle.stats().get(Count::IngestRecords), 0);
    handle.shutdown();
}

prop! {
    /// Chaos equivalence: under an arbitrary seeded fault plan on the
    /// binary client's transport, every binary batch is still
    /// acknowledged exactly once and the final estimate is bit-identical
    /// to a clean JSON run over the same records. This is what "retries
    /// re-send byte-identical frames" buys: a replayed frame lands in
    /// the server's dedup window exactly like a replayed JSON line.
    fn binary_ingest_survives_fault_plans_bit_identically(
        plan in fault_plans(FaultPlanConfig {
            faults: 5,
            write_horizon: 6 << 10,
            read_horizon: 384,
            max_delay_micros: 200,
            max_partial_bytes: 16,
        }),
        rec_seed in 0u64..1_000_000,
    ) {
        let recs = records(120, rec_seed);

        // Clean JSON reference run.
        let (est_json, _, _) = run_workload(&recs, 12, false);

        // Faulted binary run.
        let handle = serve(&ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        })
        .expect("bind");
        let addr = handle.local_addr().to_string();
        let state = FaultState::new(plan.cursor());
        let connector_state = state.clone();
        let dial = addr.clone();
        let mut client = ServeClient::from_connector(
            Box::new(move || {
                let inner = Box::new(TcpTransport::connect(&dial)?) as Box<dyn Transport>;
                Ok(Box::new(FaultyTransport::new(inner, connector_state.clone()))
                    as Box<dyn Transport>)
            }),
            ClientConfig {
                read_timeout: Duration::from_secs(5),
                max_retries: plan.len() as u32 + 2,
                backoff_base: Duration::from_millis(2),
            },
        )
        .expect("initial connect");

        client
            .init("equiv", &schema(), &space(), &["ips", "snips"], "b", 0.0, None)
            .expect("init should outlast the plan");
        for batch in recs.chunks(12) {
            let resp = client
                .ingest_binary("equiv", batch)
                .expect("binary ingest should outlast the plan");
            prop_assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        }

        // Exactly once, then bit identity with the clean JSON run.
        prop_assert_eq!(handle.stats().get(Count::IngestRecords), recs.len() as u64);
        let est = client.estimate("equiv").expect("estimate should outlast the plan");
        prop_assert!(
            est.to_string() == est_json.to_string(),
            "binary estimate diverged under plan {:?} (injected {:?}):\n  binary {}\n  json   {}",
            plan,
            state.injected(),
            est.to_string(),
            est_json.to_string()
        );

        let replays = handle.stats().get(Count::DedupReplays);
        let retries = client.stats().retry_attempts();
        prop_assert!(
            replays <= retries,
            "{} replays but only {} retries",
            replays,
            retries
        );
        handle.shutdown();
    }
}

#[test]
fn binary_wal_frames_replay_verbatim_across_a_restart() {
    // Durability leg: the WAL stores binary frames untouched, so a
    // restart replays them through the same decoder and reaches the
    // same state the acknowledgements promised.
    let dir = std::env::temp_dir().join(format!("ddn-binary-equiv-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig {
        shards: 2,
        data_dir: Some(dir.clone()),
        snapshot_every: 10_000, // never: every batch must come back from the WAL
        ..ServeConfig::default()
    };
    let recs = records(64, 9);
    let before = {
        let handle = serve(&config).expect("bind");
        let mut client = ServeClient::connect(&handle.local_addr().to_string()).unwrap();
        client
            .init(
                "equiv",
                &schema(),
                &space(),
                &["ips", "snips"],
                "b",
                0.0,
                None,
            )
            .unwrap();
        for batch in recs.chunks(16) {
            client.ingest_binary("equiv", batch).unwrap();
        }
        let est = client.estimate("equiv").unwrap();
        handle.shutdown();
        est
    };
    let after = {
        let handle = serve(&config).expect("bind and recover");
        let mut client = ServeClient::connect(&handle.local_addr().to_string()).unwrap();
        let est = client.estimate("equiv").unwrap();
        handle.shutdown();
        est
    };
    // Request ids differ across the two processes; everything else is
    // bit-identical, n included.
    assert_eq!(strip_id(&before).to_string(), strip_id(&after).to_string());
    assert_eq!(
        before.get("n").and_then(Json::as_i64),
        Some(recs.len() as i64)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
