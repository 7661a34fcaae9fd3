//! A non-finite reward or timestamp must be refused at ingest, not
//! acknowledged. An acknowledged one lands in a windowed session's
//! snapshot, which writes it as JSON `null`; the snapshot then fails to
//! restore as a whole, and a restart silently drops every session the
//! shard held before its last rotation.
//!
//! Each case drives one shard the way its worker does: every request is
//! logged write-ahead through [`ShardDurability`] and applied with
//! [`Engine::apply`]. Plain session `a` takes good records, windowed
//! session `w` is sent the bad batch, the snapshot rotates, and the shard
//! reopens. The bad batch must be refused, and `a` must estimate byte for
//! byte as before the restart.

use ddn_serve::engine::Engine;
use ddn_serve::{frame, Request, ShardDurability};
use ddn_stats::Json;
use ddn_trace::{Context, ContextSchema, Decision, DecisionSpace, TraceRecord};
use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

fn schema() -> ContextSchema {
    ContextSchema::builder().categorical("g", 2).build()
}

fn space() -> DecisionSpace {
    DecisionSpace::of(&["a", "b"])
}

fn init_line(session: &str, window: &str) -> Vec<u8> {
    format!(
        r#"{{"verb":"init","session":"{session}","schema":{},"space":{},"estimators":["ips","dr"],"policy":{{"kind":"constant","decision":"b"}},"model_value":0.3{window}}}"#,
        schema().to_json(),
        space().to_json(),
    )
    .into_bytes()
}

fn record(i: usize) -> TraceRecord {
    let c = Context::build(&schema())
        .set_cat("g", (i % 2) as u32)
        .finish();
    TraceRecord::new(c, Decision::from_index(i % 2), 0.5 + i as f64 / 8.0)
        .with_propensity(0.5)
        .with_timestamp(i as f64)
}

/// One shard: its engine, quarantine set and durable state under `dir`.
struct Shard {
    engine: Engine,
    poisoned: HashSet<String>,
    durability: ShardDurability,
}

impl Shard {
    fn open(dir: &Path) -> Shard {
        let (mut engine, mut poisoned) = (Engine::new(), HashSet::new());
        let (durability, _) =
            ShardDurability::open(dir, 0, 1_000_000, None, &mut engine, &mut poisoned).unwrap();
        Shard {
            engine,
            poisoned,
            durability,
        }
    }

    /// Decodes `payload` and applies it, logging it first as the shard
    /// worker does.
    fn send(&mut self, payload: &[u8]) -> Json {
        let req = Request::decode(payload).0.unwrap();
        let durability = &mut self.durability;
        let (resp, _) = self.engine.apply(req, &mut self.poisoned, None, || {
            durability.log_request(payload).map(drop)
        });
        resp
    }

    fn estimate(&mut self, session: &str) -> String {
        self.send(format!(r#"{{"verb":"estimate","session":"{session}"}}"#).as_bytes())
            .to_string()
    }
}

fn ok(resp: &Json) {
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
}

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ddn-nonfinite-restart-{name}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_non_finite_value_is_refused_and_a_restart_keeps_every_session() {
    let mut nan_reward = record(0);
    nan_reward.reward = f64::NAN;
    let mut inf_timestamp = record(0);
    inf_timestamp.timestamp = Some(f64::INFINITY);
    // JSON has no literal for infinity, but `1e999` parses to it.
    let json_inf = record(0)
        .to_json()
        .to_string()
        .replace(r#""reward":0.5"#, r#""reward":1e999"#);
    assert!(json_inf.contains("1e999"), "{json_inf}");
    let cases = [
        (
            "nan-reward",
            frame::encode("w", &[nan_reward], None, None).unwrap(),
        ),
        (
            "inf-timestamp",
            frame::encode("w", &[inf_timestamp], None, None).unwrap(),
        ),
        (
            "json-inf-reward",
            format!(r#"{{"verb":"ingest","session":"w","records":[{json_inf}]}}"#).into_bytes(),
        ),
    ];
    let good: Vec<TraceRecord> = (0..40).map(record).collect();
    for (name, bad) in cases {
        let dir = test_dir(name);
        let mut shard = Shard::open(&dir);
        ok(&shard.send(&init_line("a", "")));
        ok(&shard.send(&frame::encode("a", &good, None, None).unwrap()));
        ok(&shard.send(&init_line("w", r#","window":16"#)));
        let resp = shard.send(&bad);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{name}: {resp}");
        let err = resp.get("error").and_then(Json::as_str).unwrap_or_default();
        assert!(err.starts_with("batch record 0: "), "{name}: {err}");
        shard
            .durability
            .snapshot_now(&shard.engine, &shard.poisoned)
            .unwrap();
        let before = shard.estimate("a");
        assert!(before.contains(r#""ok":true"#), "{name}: {before}");
        drop(shard);

        let mut reopened = Shard::open(&dir);
        assert_eq!(reopened.engine.sessions(), 2, "{name}");
        assert_eq!(reopened.estimate("a"), before, "{name}");
        let _ = fs::remove_dir_all(&dir);
    }
}
