//! Durability overhead, writing `BENCH_wal.json` with a `wal` summary
//! section that pins the WAL-on ingest floor.
//!
//! Three layers isolate where durability spends its time:
//!
//! - `wal/frame_append` — the bare [`WalWriter`]: frame encode + CRC +
//!   one buffered kernel write per batch-sized payload.
//! - `wal/tcp_ingest_wal_off` — the full loopback ingest path with
//!   durability disabled (the PR-5 baseline).
//! - `wal/tcp_ingest_wal_on` — the same path with a data dir: every
//!   batch is write-ahead-logged before it is applied.
//!
//! Two unpinned cases follow, on one shard of windowed sessions shaped
//! like servebench's durable-monitor ones (`ips,snips,dr,adaptive` over
//! a window of up to 1,024 records, plus the coupling window):
//!
//! - `wal/snapshot_rotate_windowed` — one snapshot rotation (encode,
//!   write, fsync, rename, new WAL), what the shard thread pays every
//!   `snapshot_every` frames; the `wal` section reports the file's
//!   `snapshot_bytes`.
//! - `wal/recover_windowed` — opening that data dir: restore the
//!   snapshot, then the self-heal rotation.
//!
//! `DDN_WAL_RUNS` overrides the record count (CI smoke uses a small
//! value; the windowed cases split it over their sessions);
//! `DDN_BENCH_WARMUP` / `DDN_BENCH_ITERS` crank iterations.

use ddn_bench::Suite;
use ddn_policy::{Policy, UniformRandomPolicy};
use ddn_serve::protocol::ingest_request_json;
use ddn_serve::snapshot::snapshot_path;
use ddn_serve::wal::WalWriter;
use ddn_serve::{serve, Engine, Request, ServeClient, ServeConfig, ShardDurability};
use ddn_stats::rng::{Rng, Xoshiro256};
use ddn_stats::Json;
use ddn_trace::{Context, ContextSchema, DecisionSpace, TraceRecord};
use std::collections::HashSet;
use std::path::{Path, PathBuf};

/// Minimum acceptable sustained ingest rate (records/second) with the
/// WAL enabled — conservative enough for slow CI disks, tight enough to
/// catch an accidental per-record fsync or O(n) re-serialization.
const FLOOR_RECORDS_PER_SEC: f64 = 10_000.0;

fn schema() -> ContextSchema {
    ContextSchema::builder().categorical("g", 2).build()
}

fn space() -> DecisionSpace {
    DecisionSpace::of(&["a", "b"])
}

fn records(n: usize) -> Vec<TraceRecord> {
    let s = schema();
    let logger = UniformRandomPolicy::new(space());
    let mut rng = Xoshiro256::seed_from(12_2107);
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

fn bench_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ddn-bench-wal-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench dir");
    dir
}

fn throughput(suite: &Suite, bench_name: &str, n: u64) -> f64 {
    let r = suite
        .results()
        .iter()
        .find(|r| r.name == bench_name)
        .expect("bench ran");
    n as f64 / (r.mean_ns / 1e9)
}

/// Runs the full client→TCP→shard→ingest loop against `config`.
fn tcp_ingest(
    suite: &mut Suite,
    name: &str,
    config: &ServeConfig,
    recs: &[TraceRecord],
    batch: usize,
) {
    let handle = serve(config).expect("bind ephemeral port");
    let addr = handle.local_addr().to_string();
    let n = recs.len();
    suite.bench_throughput(name, n as u64, || {
        let mut client = ServeClient::connect(&addr).expect("loopback connect");
        client
            .init("bench-wal", &schema(), &space(), &["ips"], "b", 0.0, None)
            .expect("init accepted");
        for chunk in recs.chunks(batch) {
            client.ingest("bench-wal", chunk).expect("ingest accepted");
        }
        client.estimate("bench-wal").expect("estimate accepted")
    });
    handle.shutdown();
}

/// Sessions on the windowed shard.
const WINDOWED_SESSIONS: usize = 8;

/// Opens a shard on `dir` and feeds it `WINDOWED_SESSIONS` windowed
/// sessions splitting `recs`, through the apply path live traffic
/// takes. Returns the shard, its engine, and the records its windows
/// hold.
fn windowed_shard(dir: &Path, recs: &[TraceRecord]) -> (ShardDurability, Engine, u64) {
    let mut engine = Engine::new();
    let mut poisoned = HashSet::new();
    let (d, _) = ShardDurability::open(dir, 0, u64::MAX, None, &mut engine, &mut poisoned)
        .expect("open shard");
    let per = recs.len() / WINDOWED_SESSIONS;
    let window = per.clamp(1, 1024);
    let mut apply = |req: Json| {
        let req = Request::from_json(&req).expect("well-formed request");
        let (resp, _) = engine.apply(req, &mut poisoned, None, || Ok(()));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    };
    for (s, session) in recs.chunks(per.max(1)).take(WINDOWED_SESSIONS).enumerate() {
        let id = format!("win-{s}");
        apply(Json::object(vec![
            ("verb", Json::str("init")),
            ("session", Json::str(id.clone())),
            ("schema", schema().to_json()),
            ("space", space().to_json()),
            (
                "estimators",
                Json::Array(["ips", "snips", "dr", "adaptive"].map(Json::str).to_vec()),
            ),
            (
                "policy",
                Json::object(vec![
                    ("kind", Json::str("constant")),
                    ("decision", Json::str("b")),
                ]),
            ),
            ("window", Json::Int(window as i64)),
        ]));
        for batch in session.chunks(256) {
            apply(ingest_request_json(&id, batch, None));
        }
    }
    let held = (WINDOWED_SESSIONS * per.min(window)) as u64;
    (d, engine, held)
}

fn main() {
    let n: usize = std::env::var("DDN_WAL_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let batch = 256usize;
    let recs = records(n);

    let mut suite = Suite::new("wal");

    // Raw WAL appends: one frame per batch, payloads shaped like real
    // ingest request lines.
    let payload = vec![0x7Bu8; 160 * batch]; // ~ a 256-record request line
    let frames = n / batch;
    let append_dir = bench_dir("append");
    let wal_path = append_dir.join("bench.wal");
    suite.bench_throughput("wal/frame_append", n as u64, || {
        let mut w = WalWriter::create(&wal_path, 1).expect("create wal");
        for _ in 0..frames {
            w.append(&payload).expect("append frame");
        }
        w.bytes_written()
    });

    tcp_ingest(
        &mut suite,
        "wal/tcp_ingest_wal_off",
        &ServeConfig::default(),
        &recs,
        batch,
    );
    let on_dir = bench_dir("serve");
    tcp_ingest(
        &mut suite,
        "wal/tcp_ingest_wal_on",
        &ServeConfig {
            data_dir: Some(on_dir.clone()),
            // Rotation is timed by the soak path, not here: the interval
            // is large so the bench isolates steady-state append cost.
            snapshot_every: 1_000_000,
            ..ServeConfig::default()
        },
        &recs,
        batch,
    );

    // Unpinned: they run after the pinned cases so they cannot skew them.
    let win_dir = bench_dir("windowed");
    let (mut shard, engine, held) = windowed_shard(&win_dir, &recs);
    let none = HashSet::new();
    suite.bench_throughput("wal/snapshot_rotate_windowed", held, || {
        shard
            .snapshot_now(&engine, &none)
            .expect("snapshot rotation")
    });
    let snapshot_bytes = std::fs::metadata(snapshot_path(&win_dir, 0))
        .expect("snapshot written")
        .len();
    drop(shard);
    suite.bench_throughput("wal/recover_windowed", held, || {
        let mut fresh = Engine::new();
        let mut poisoned = HashSet::new();
        ShardDurability::open(&win_dir, 0, u64::MAX, None, &mut fresh, &mut poisoned)
            .expect("recover shard");
        fresh.sessions()
    });

    let append_rps = throughput(&suite, "wal/frame_append", n as u64);
    let off_rps = throughput(&suite, "wal/tcp_ingest_wal_off", n as u64);
    let on_rps = throughput(&suite, "wal/tcp_ingest_wal_on", n as u64);
    if on_rps < FLOOR_RECORDS_PER_SEC {
        eprintln!(
            "warning: WAL-on ingest throughput {on_rps:.0} records/s \
             is below the pinned floor {FLOOR_RECORDS_PER_SEC:.0}"
        );
    }
    suite.attach_section(
        "wal",
        Json::Object(vec![
            ("records".into(), Json::Int(n as i64)),
            ("batch".into(), Json::Int(batch as i64)),
            (
                "floor_records_per_sec".into(),
                Json::Num(FLOOR_RECORDS_PER_SEC),
            ),
            ("frame_append_records_per_sec".into(), Json::Num(append_rps)),
            ("wal_off_records_per_sec".into(), Json::Num(off_rps)),
            ("wal_on_records_per_sec".into(), Json::Num(on_rps)),
            (
                "wal_overhead_fraction".into(),
                Json::Num(1.0 - on_rps / off_rps),
            ),
            (
                "meets_floor".into(),
                Json::Bool(on_rps >= FLOOR_RECORDS_PER_SEC),
            ),
            ("snapshot_bytes".into(), Json::Int(snapshot_bytes as i64)),
        ]),
    );
    suite.finish();
    let _ = std::fs::remove_dir_all(&append_dir);
    let _ = std::fs::remove_dir_all(&on_dir);
    let _ = std::fs::remove_dir_all(&win_dir);
}
