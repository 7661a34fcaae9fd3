//! Flight-recorder integration: a worker panic must leave a readable
//! post-mortem on disk — the final pre-panic requests, in order, ending
//! with the event that killed the worker.

use ddn_serve::{flightrec_path, serve, ServeClient, ServeConfig};
use ddn_stats::rng::{Rng, Xoshiro256};
use ddn_stats::Json;
use ddn_trace::{Context, ContextSchema, Decision, DecisionSpace, TraceRecord};
use std::path::PathBuf;

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

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ddn-flight-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn read_events(path: &PathBuf) -> Vec<Json> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("flight dump {} unreadable: {e}", path.display()));
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bad flight line {l:?}: {e}")))
        .collect()
}

#[test]
fn a_worker_panic_dumps_the_final_requests_in_order() {
    let dir = temp_dir("panic");
    let handle = serve(&ServeConfig {
        shards: 1,
        failpoint: Some("boom".to_string()),
        data_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = ServeClient::connect(&handle.local_addr().to_string()).unwrap();

    // A healthy session does real work first, so the ring holds history
    // from BEFORE the doomed request — the dump must preserve it.
    client
        .init("fine", &schema(), &space(), &["ips"], "b", 0.0, None)
        .unwrap();
    for chunk in records(64, 1).chunks(32) {
        client.ingest("fine", chunk).unwrap();
    }
    client
        .init("boom", &schema(), &space(), &["ips"], "b", 0.0, None)
        .unwrap();
    client
        .ingest("boom", &records(16, 2))
        .expect_err("failpoint should degrade the session");

    let path = flightrec_path(&dir, 0);
    let events = read_events(&path);

    // The dump is the worker's whole history: init, both ingests, the
    // second init, then the ingest that tripped the failpoint.
    let verbs: Vec<&str> = events
        .iter()
        .map(|e| e.get("verb").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(verbs, ["init", "ingest", "ingest", "init", "ingest"]);
    for (i, event) in events.iter().enumerate() {
        assert_eq!(
            event.get("n").and_then(Json::as_u64),
            Some(i as u64),
            "{event}"
        );
    }
    let last = events.last().unwrap();
    assert_eq!(last.get("outcome"), Some(&Json::str("panic")), "{last}");
    assert_eq!(last.get("session"), Some(&Json::str("boom")), "{last}");
    assert_eq!(
        last.get("records").and_then(Json::as_u64),
        Some(16),
        "{last}"
    );
    // Everything before the panic completed normally.
    for event in &events[..events.len() - 1] {
        assert_eq!(event.get("outcome"), Some(&Json::str("ok")), "{event}");
    }

    // The server is still alive after the dump: the healthy session
    // keeps working and the dump is also served inline.
    client.ingest("fine", &records(8, 3)).unwrap();
    let resp = client.server_stats(true).unwrap();
    let ring = resp
        .get("flight")
        .and_then(|f| f.get("shard-0"))
        .and_then(Json::as_array)
        .unwrap();
    assert_eq!(ring.len(), events.len() + 1, "{resp}");
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_ring_keeps_only_the_newest_events() {
    // Capacity 4: after 6 requests the dump holds the last 4, still
    // consecutively numbered — the recorder drops the oldest, never the
    // newest, and never leaves gaps.
    let dir = temp_dir("ring");
    let handle = serve(&ServeConfig {
        shards: 1,
        failpoint: Some("boom".to_string()),
        data_dir: Some(dir.clone()),
        flight_capacity: 4,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = ServeClient::connect(&handle.local_addr().to_string()).unwrap();

    client
        .init("fine", &schema(), &space(), &["ips"], "b", 0.0, None)
        .unwrap();
    for chunk in records(96, 4).chunks(32) {
        client.ingest("fine", chunk).unwrap(); // events 1, 2, 3
    }
    client
        .init("boom", &schema(), &space(), &["ips"], "b", 0.0, None)
        .unwrap(); // event 4
    client
        .ingest("boom", &records(4, 5))
        .expect_err("failpoint"); // event 5, panic

    let events = read_events(&flightrec_path(&dir, 0));
    assert_eq!(events.len(), 4, "capacity bounds the dump");
    let ns: Vec<u64> = events
        .iter()
        .map(|e| e.get("n").and_then(Json::as_u64).unwrap())
        .collect();
    assert_eq!(ns, [2, 3, 4, 5], "oldest dropped, no gaps");
    assert_eq!(
        events.last().unwrap().get("outcome"),
        Some(&Json::str("panic"))
    );
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn on_demand_dump_rewrites_the_file_without_a_panic() {
    let dir = temp_dir("demand");
    let handle = serve(&ServeConfig {
        shards: 1,
        data_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = ServeClient::connect(&handle.local_addr().to_string()).unwrap();
    client
        .init("s", &schema(), &space(), &["ips"], "b", 0.0, None)
        .unwrap();
    client.ingest("s", &records(8, 6)).unwrap();

    let path = flightrec_path(&dir, 0);
    assert!(!path.exists(), "no dump before it is asked for");
    client.server_stats(true).unwrap();
    let events = read_events(&path);
    assert_eq!(events.len(), 2, "init + ingest");
    assert!(events
        .iter()
        .all(|e| e.get("outcome") == Some(&Json::str("ok"))));
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
