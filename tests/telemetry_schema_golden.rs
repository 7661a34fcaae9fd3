//! Golden test pinning the telemetry JSON *schema* — the key set and
//! nesting, not the values. `--telemetry` files are consumed by outside
//! tooling (`reproduce.sh ci` runs `ddn telemetry-check`, dashboards parse
//! `BENCH_*.json`), so renaming a health metric or restructuring an
//! aggregate is a breaking change that must be made deliberately, here.
//!
//! The document under test comes from the health suite, which exercises
//! every estimator family and therefore every health key the workspace
//! can emit.

use ddn::scenarios::health::{health_suite_with, HealthConfig};
use ddn::stats::Json;

/// Pinned schema: every health source the suite emits, with its exact
/// metric key set (sorted).
const GOLDEN_HEALTH: &[(&str, &[&str])] = &[
    (
        "AdaptiveDR",
        &[
            "ess",
            "hsum",
            "max_weight",
            "mean_abs_residual",
            "mean_weight",
            "n",
            "zero_weight_fraction",
        ],
    ),
    (
        "AdaptiveIPS",
        &[
            "ess",
            "hsum",
            "max_weight",
            "mean_weight",
            "n",
            "zero_weight_fraction",
        ],
    ),
    (
        "CFA",
        &[
            "coverage",
            "ess",
            "match_count",
            "max_weight",
            "mean_weight",
            "n",
            "zero_weight_fraction",
        ],
    ),
    (
        "ClippedIPS",
        &[
            "clip_rate",
            "ess",
            "max_weight",
            "mean_weight",
            "n",
            "zero_weight_fraction",
        ],
    ),
    ("CouplingDetector", &["changepoints", "coupled", "segments"]),
    (
        "CrossFitDR",
        &[
            "ess",
            "folds",
            "max_weight",
            "mean_weight",
            "n",
            "zero_weight_fraction",
        ],
    ),
    (
        "DM",
        &[
            "ess",
            "max_weight",
            "mean_weight",
            "n",
            "zero_weight_fraction",
        ],
    ),
    (
        "DR",
        &[
            "ess",
            "max_weight",
            "mean_abs_residual",
            "mean_weight",
            "n",
            "zero_weight_fraction",
        ],
    ),
    (
        "IPS",
        &[
            "ess",
            "max_weight",
            "mean_weight",
            "n",
            "zero_weight_fraction",
        ],
    ),
    (
        "MarginalizedDR",
        &[
            "embedding_groups",
            "ess",
            "max_weight",
            "mean_abs_residual",
            "mean_weight",
            "n",
            "zero_weight_fraction",
        ],
    ),
    (
        "Replay",
        &[
            "acceptance_rate",
            "accepted",
            "ess",
            "max_weight",
            "mean_weight",
            "n",
            "rejected",
            "zero_weight_fraction",
        ],
    ),
    (
        "SNIPS",
        &[
            "ess",
            "max_weight",
            "mean_weight",
            "n",
            "zero_weight_fraction",
        ],
    ),
    (
        "SeqDR",
        &[
            "ess",
            "horizon",
            "max_weight",
            "mean_abs_residual",
            "mean_weight",
            "n",
            "trajectories",
            "zero_weight_fraction",
        ],
    ),
    (
        "StateAwareDR",
        &[
            "coverage",
            "ess",
            "match_count",
            "max_weight",
            "mean_weight",
            "n",
            "zero_weight_fraction",
        ],
    ),
    (
        "SwitchDR",
        &[
            "clip_rate",
            "ess",
            "max_weight",
            "mean_abs_residual",
            "mean_weight",
            "n",
            "zero_weight_fraction",
        ],
    ),
];

/// Pinned aggregate shapes.
const METRIC_AGG_KEYS: &[&str] = &["runs", "mean", "min", "max"];
const TIMING_AGG_KEYS: &[&str] = &["count", "total_ns", "mean_ns", "min_ns", "max_ns"];

/// Pinned span paths the instrumented runner produces for this suite.
/// `run/estimate/batch_build` is the shared-score [`EvalBatch`]
/// construction (two per run: target-policy and logger-policy batches).
const GOLDEN_TIMINGS: &[&str] = &[
    "experiment",
    "run",
    "run/estimate",
    "run/estimate/batch_build",
    "run/log",
];

fn keys(obj: &Json) -> Vec<String> {
    obj.as_object()
        .expect("expected a JSON object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

#[test]
fn telemetry_json_schema_is_pinned() {
    let (_, snap) = health_suite_with(&HealthConfig {
        runs: 2,
        ..Default::default()
    });
    let doc = snap.to_json();
    // Round-trip through the wire form, since that is what consumers see.
    let doc = Json::parse(&doc.to_string()).expect("telemetry JSON parses");

    assert_eq!(
        keys(&doc),
        ["version", "runs", "threads", "health", "counters", "timings"],
        "top-level key set/order changed"
    );
    assert_eq!(doc.get("version").unwrap().as_i64(), Some(1));

    let health = doc.get("health").unwrap();
    assert_eq!(
        sorted(keys(health)),
        GOLDEN_HEALTH
            .iter()
            .map(|(s, _)| s.to_string())
            .collect::<Vec<_>>(),
        "health source set changed"
    );
    for (source, metrics) in GOLDEN_HEALTH {
        let got = health.get(source).unwrap();
        assert_eq!(
            sorted(keys(got)),
            metrics.iter().map(|m| m.to_string()).collect::<Vec<_>>(),
            "metric key set changed for {source}"
        );
        for (metric, agg) in got.as_object().unwrap() {
            assert_eq!(
                keys(agg),
                METRIC_AGG_KEYS,
                "aggregate shape changed for {source}/{metric}"
            );
        }
    }

    let timings = doc.get("timings").unwrap();
    assert_eq!(
        sorted(keys(timings)),
        GOLDEN_TIMINGS,
        "span path set changed"
    );
    for (path, agg) in timings.as_object().unwrap() {
        assert_eq!(
            keys(agg),
            TIMING_AGG_KEYS,
            "timing shape changed for {path}"
        );
    }
}

/// Pinned counter key set the serve `health` verb must expose (sorted).
/// Dashboards watch these names; renaming one is a breaking change.
const GOLDEN_SERVE_COUNTERS: &[&str] = &[
    "serve.backpressure.stalls",
    "serve.conn.active",
    "serve.dedup.replays",
    "serve.fault.conn_errors",
    "serve.fault.worker_restarts",
    "serve.ingest.records",
    "serve.queue.depth",
    "serve.recover.frames_replayed",
    "serve.recover.sessions",
    "serve.recover.truncated_frames",
    "serve.shard.handoffs",
    "serve.snapshot.bytes",
    "serve.snapshot.writes",
    "serve.wal.bytes",
    "serve.wal.frames",
];

/// Pinned counter key set of the client-side retry telemetry (sorted).
const GOLDEN_RETRY_COUNTERS: &[&str] = &[
    "serve.retry.attempts",
    "serve.retry.giveups",
    "serve.retry.reconnects",
    "serve.retry.timeouts",
];

/// Pinned metric key set of a streaming estimator's health source
/// (sorted) once records have flowed.
const GOLDEN_ONLINE_HEALTH: &[&str] = &[
    "contribution_mean",
    "contribution_variance",
    "ess",
    "max_weight",
    "mean_weight",
    "n",
    "standard_error",
    "zero_weight_fraction",
];

/// Pinned health source set of the figure7 `menu` panel (sorted). The
/// panel runs the incumbents next to the three menu extensions, so its
/// telemetry is the external contract for the "challenger wins" claim:
/// `TrajIPS` is an inline product-weight fold, not an estimator, hence
/// no source of its own.
const GOLDEN_MENU_SOURCES: &[&str] = &[
    "AdaptiveDR",
    "AdaptiveIPS",
    "DR",
    "IPS",
    "MarginalizedDR",
    "SNIPS",
    "SeqDR",
];

/// Pinned span paths of the instrumented menu panel.
const GOLDEN_MENU_TIMINGS: &[&str] = &["experiment", "run", "run/estimate", "run/log"];

#[test]
fn menu_panel_telemetry_schema_is_pinned() {
    use ddn::scenarios::ablations::{ablation_menu_instrumented, MenuConfig};

    let (scenarios, snap) = ablation_menu_instrumented(&MenuConfig {
        runs: 2,
        scales: vec![0.5],
        ..MenuConfig::default()
    });
    assert_eq!(scenarios.len(), 3, "menu panel scenario count changed");
    let doc = Json::parse(&snap.to_json().to_string()).unwrap();

    assert_eq!(
        sorted(keys(doc.get("health").unwrap())),
        GOLDEN_MENU_SOURCES,
        "menu panel health source set changed"
    );
    assert_eq!(
        sorted(keys(doc.get("timings").unwrap())),
        GOLDEN_MENU_TIMINGS,
        "menu panel span path set changed"
    );
}

#[test]
fn serve_health_verb_schema_is_pinned() {
    use ddn::prelude::*;
    use ddn::serve::{serve, ServeClient, ServeConfig};

    let handle = serve(&ServeConfig::default()).expect("bind ephemeral port");
    let addr = handle.local_addr().to_string();
    let mut client = ServeClient::connect(&addr).unwrap();

    let schema = ContextSchema::builder().categorical("g", 2).build();
    let space = DecisionSpace::of(&["a", "b"]);
    client
        .init("golden", &schema, &space, &["ips"], "b", 0.0, None)
        .unwrap();
    let old = UniformRandomPolicy::new(space.clone());
    let mut rng = Xoshiro256::seed_from(11);
    let records: Vec<TraceRecord> = (0..40)
        .map(|_| {
            let c = Context::build(&schema)
                .set_cat("g", rng.index(2) as u32)
                .finish();
            let (d, p) = old.sample_with_prob(&c, &mut rng);
            TraceRecord::new(c, d, d.index() as f64).with_propensity(p)
        })
        .collect();
    client.ingest("golden", &records).unwrap();

    let resp = client.health().unwrap();
    // Round-trip through the wire form, as consumers see it.
    let resp = Json::parse(&resp.to_string()).unwrap();
    let telemetry = resp.get("telemetry").expect("health carries telemetry");
    assert_eq!(
        keys(telemetry),
        ["version", "runs", "threads", "health", "counters", "timings"],
        "serve telemetry envelope changed"
    );

    let counters = telemetry.get("counters").unwrap();
    assert_eq!(
        sorted(keys(counters)),
        GOLDEN_SERVE_COUNTERS,
        "serve counter key set changed"
    );
    assert_eq!(
        counters.get("serve.ingest.records").unwrap().as_u64(),
        Some(40)
    );

    let health = telemetry.get("health").unwrap();
    let source = health
        .get("serve/golden/ips")
        .expect("per-session estimator health source");
    assert_eq!(
        sorted(keys(source)),
        GOLDEN_ONLINE_HEALTH,
        "online estimator health key set changed"
    );
    for (metric, agg) in source.as_object().unwrap() {
        assert_eq!(
            keys(agg),
            METRIC_AGG_KEYS,
            "aggregate shape changed for serve/golden/ips/{metric}"
        );
    }
    handle.shutdown();
}

/// Pinned counter key set the serve `stats` verb must expose (sorted)
/// for a two-shard server. This is the long-lived metrics registry the
/// `ddn top` CLI and monitoring pipelines read; every name is
/// registered at `serve()` time, so the set is workload-independent.
const GOLDEN_STATS_COUNTERS: &[&str] = &[
    "serve.backpressure.stalls",
    "serve.dedup.replays",
    "serve.fault.conn_errors",
    "serve.fault.worker_restarts",
    "serve.ingest.records",
    "serve.recover.frames_replayed",
    "serve.recover.sessions",
    "serve.recover.truncated_frames",
    "serve.req.estimate",
    "serve.req.health",
    "serve.req.ingest",
    "serve.req.init",
    "serve.req.shutdown",
    "serve.req.stats",
    "serve.shard.handoffs",
    "serve.snapshot.bytes",
    "serve.snapshot.writes",
    "serve.wal.bytes",
    "serve.wal.frames",
];

/// Pinned gauge key set (sorted, two shards).
const GOLDEN_STATS_GAUGES: &[&str] = &[
    "serve.conn.active",
    "serve.queue.depth",
    "serve.sessions.live.s0",
    "serve.sessions.live.s1",
    "serve.wal.lag_frames.s0",
    "serve.wal.lag_frames.s1",
];

/// Pinned histogram key set (sorted, two shards): shard verbs get
/// queue-wait and handler-time per shard; connection-thread verbs get
/// handler time only, with no shard suffix.
const GOLDEN_STATS_HISTOGRAMS: &[&str] = &[
    "serve.req.estimate.handle_ns.s0",
    "serve.req.estimate.handle_ns.s1",
    "serve.req.estimate.queue_ns.s0",
    "serve.req.estimate.queue_ns.s1",
    "serve.req.health.handle_ns",
    "serve.req.ingest.handle_ns.s0",
    "serve.req.ingest.handle_ns.s1",
    "serve.req.ingest.queue_ns.s0",
    "serve.req.ingest.queue_ns.s1",
    "serve.req.init.handle_ns.s0",
    "serve.req.init.handle_ns.s1",
    "serve.req.init.queue_ns.s0",
    "serve.req.init.queue_ns.s1",
    "serve.req.shutdown.handle_ns",
    "serve.req.stats.handle_ns",
    "serve.snapshot.write_ns.s0",
    "serve.snapshot.write_ns.s1",
];

#[test]
fn serve_stats_verb_schema_is_pinned() {
    use ddn::prelude::*;
    use ddn::serve::{serve, ServeClient, ServeConfig};

    let handle = serve(&ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.local_addr().to_string();
    let mut client = ServeClient::connect(&addr).unwrap();

    // Drive one request through a shard so at least one histogram has a
    // populated bucket whose entry shape we can pin.
    let schema = ContextSchema::builder().categorical("g", 2).build();
    let space = DecisionSpace::of(&["a", "b"]);
    client
        .init("golden", &schema, &space, &["ips"], "b", 0.0, None)
        .unwrap();

    let resp = client.server_stats(false).unwrap();
    // Round-trip through the wire form, as consumers see it.
    let resp = Json::parse(&resp.to_string()).unwrap();
    let snap = resp.get("stats").expect("stats verb returns a snapshot");
    assert_eq!(
        keys(snap),
        ["counters", "gauges", "histograms"],
        "stats snapshot envelope changed"
    );
    assert_eq!(
        keys(snap.get("counters").unwrap()),
        GOLDEN_STATS_COUNTERS,
        "stats counter key set changed"
    );
    assert_eq!(
        keys(snap.get("gauges").unwrap()),
        GOLDEN_STATS_GAUGES,
        "stats gauge key set changed"
    );
    assert_eq!(
        keys(snap.get("histograms").unwrap()),
        GOLDEN_STATS_HISTOGRAMS,
        "stats histogram key set changed"
    );

    // Every histogram entry has the pinned shape, and populated buckets
    // carry exactly {le, count}.
    for (name, hist) in snap.get("histograms").unwrap().as_object().unwrap() {
        assert_eq!(keys(hist), ["count", "sum", "buckets"], "shape of {name}");
        for bucket in hist.get("buckets").unwrap().as_array().unwrap() {
            assert_eq!(keys(bucket), ["le", "count"], "bucket shape of {name}");
        }
    }
    let init_total: u64 = (0..2)
        .filter_map(|s| {
            snap.get("histograms")
                .unwrap()
                .get(&format!("serve.req.init.handle_ns.s{s}"))
                .and_then(|h| h.get("count"))
                .and_then(Json::as_u64)
        })
        .sum();
    assert_eq!(init_total, 1, "the init request landed in one shard");
    handle.shutdown();
}

#[test]
fn client_retry_counter_schema_is_pinned() {
    use ddn::prelude::*;
    use ddn::serve::{serve, ServeClient, ServeConfig};
    use ddn::telemetry::TelemetrySnapshot;

    let handle = serve(&ServeConfig::default()).expect("bind ephemeral port");
    let addr = handle.local_addr().to_string();
    let mut client = ServeClient::connect(&addr).unwrap();
    let schema = ContextSchema::builder().categorical("g", 2).build();
    let space = DecisionSpace::of(&["a", "b"]);
    client
        .init("retry", &schema, &space, &["ips"], "b", 0.0, None)
        .unwrap();

    let collector = client.stats().collector();
    let snap = TelemetrySnapshot::from_runs(std::slice::from_ref(&collector));
    let doc = Json::parse(&snap.to_json().to_string()).unwrap();
    assert_eq!(
        sorted(keys(doc.get("counters").unwrap())),
        GOLDEN_RETRY_COUNTERS,
        "client retry counter key set changed"
    );
    handle.shutdown();
}

#[test]
fn deterministic_form_differs_only_by_threads_and_zeroed_times() {
    let (_, snap) = health_suite_with(&HealthConfig {
        runs: 2,
        ..Default::default()
    });
    let det = Json::parse(&snap.to_json_deterministic().to_string()).unwrap();
    assert_eq!(
        keys(&det),
        ["version", "runs", "health", "counters", "timings"],
        "deterministic form must drop exactly the threads field"
    );
    for (path, agg) in det.get("timings").unwrap().as_object().unwrap() {
        assert_eq!(keys(agg), TIMING_AGG_KEYS);
        for ns_key in ["total_ns", "mean_ns", "min_ns", "max_ns"] {
            assert_eq!(
                agg.get(ns_key).unwrap().as_f64(),
                Some(0.0),
                "{path}/{ns_key} must be zeroed in the deterministic form"
            );
        }
        assert!(
            agg.get("count").unwrap().as_i64().unwrap() > 0,
            "{path} span count must survive"
        );
    }
}
