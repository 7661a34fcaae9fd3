//! The estimator registry (`ddn_estimators::menu`) is the one list of
//! names both front ends accept. For every row, on one generated trace:
//! a served session (`init` + `ingest` + `estimate`) succeeds, `ddn
//! evaluate --estimator <name>` succeeds, and the served value is
//! bit-identical to the row's scalar estimator. Unknown names are refused
//! by both front ends with the table's names in the message.

use ddn_cli::{run, CliError};
use ddn_estimators::menu::{self, Defaults, MENU};
use ddn_estimators::Estimator;
use ddn_models::ConstantModel;
use ddn_policy::LookupPolicy;
use ddn_serve::{Engine, Request};
use ddn_stats::Json;
use ddn_trace::{Trace, TraceRecord};
use std::path::PathBuf;

const DECISION: &str = "cdn1/br2";
const MODEL_VALUE: f64 = 1.5;

fn args(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

/// A generated CDN trace, written to a temp file (one per test) for the
/// CLI.
fn trace_file(tag: &str) -> (PathBuf, Trace) {
    let name = format!("ddn-registry-{}-{tag}.jsonl", std::process::id());
    let path = std::env::temp_dir().join(name);
    let p = path.to_str().unwrap();
    run(&args(&[
        "generate", p, "--world", "cfa", "--n", "300", "--seed", "7",
    ]))
    .unwrap();
    let file = std::io::BufReader::new(std::fs::File::open(&path).unwrap());
    (path, Trace::read_jsonl(file).unwrap())
}

/// A fresh engine holding session `s` for `name`, or the init error.
fn init(trace: &Trace, name: &str) -> (Engine, Json) {
    let line = format!(
        r#"{{"verb":"init","session":"s","schema":{},"space":{},"estimators":["{name}"],"policy":{{"kind":"constant","decision":"{DECISION}"}},"model_value":{MODEL_VALUE}}}"#,
        trace.schema().to_json(),
        trace.space().to_json(),
    );
    let Ok(Request::Init(spec)) = Request::parse(&line) else {
        panic!("init line parses");
    };
    let mut engine = Engine::new();
    let resp = engine.handle_init(spec);
    (engine, resp)
}

fn ok(resp: &Json) -> bool {
    resp.get("ok") == Some(&Json::Bool(true))
}

#[test]
fn every_registry_name_is_served_and_evaluated_alike() {
    let (path, trace) = trace_file("menu");
    let idx = trace.space().position(DECISION).unwrap();
    let policy = LookupPolicy::constant(trace.space().clone(), idx);
    for row in MENU {
        let (mut engine, resp) = init(&trace, row.name);
        assert!(ok(&resp), "{}: init {resp:?}", row.name);
        let resp = engine.handle_ingest("s", trace.records(), None);
        assert!(ok(&resp), "{}: ingest {resp:?}", row.name);
        let est = engine.handle_estimate("s");
        let served = est
            .get("estimates")
            .and_then(|e| e.get(row.name))
            .and_then(|e| e.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{}: no served value in {est:?}", row.name));

        let scalar = (row.scalar)(
            trace.space(),
            Box::new(ConstantModel::new(MODEL_VALUE)),
            &Defaults,
        )
        .unwrap();
        let offline = scalar.estimate(&trace, &policy).unwrap().value;
        assert_eq!(served.to_bits(), offline.to_bits(), "{}", row.name);

        let out = run(&args(&[
            "evaluate",
            path.to_str().unwrap(),
            "--decision",
            DECISION,
            "--estimator",
            row.name,
        ]))
        .unwrap_or_else(|e| panic!("{}: evaluate failed: {e}", row.name));
        assert!(out.contains(&format!("estimator: {} ", row.name)), "{out}");
        assert!(out.contains("estimate: "), "{out}");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn the_propensity_flag_matches_what_ingest_demands() {
    let (path, trace) = trace_file("bare");
    std::fs::remove_file(path).ok();
    let bare: Vec<TraceRecord> = trace
        .records()
        .iter()
        .map(|r| TraceRecord {
            propensity: None,
            ..r.clone()
        })
        .collect();
    for row in MENU {
        let (mut engine, _) = init(&trace, row.name);
        let resp = engine.handle_ingest("s", &bare, None);
        assert_eq!(ok(&resp), !row.needs_propensity, "{}: {resp:?}", row.name);
    }
}

#[test]
fn unknown_names_list_the_table_in_both_front_ends() {
    let (path, trace) = trace_file("unknown");
    let (engine, resp) = init(&trace, "nope");
    assert_eq!(engine.sessions(), 0);
    let msg = resp.get("error").and_then(Json::as_str).unwrap();
    assert!(
        msg.contains(&format!("(expected {})", menu::names())),
        "{msg}"
    );

    let p = path.to_str().unwrap();
    for cmd in [
        &["evaluate", p, "--decision", DECISION, "--estimator", "nope"][..],
        &["compare", p, "--estimator", "nope"][..],
    ] {
        match run(&args(cmd)) {
            Err(CliError::Usage(msg)) => assert!(
                msg.contains(&format!("(expected {}|matching)", menu::names())),
                "{msg}"
            ),
            other => panic!("{cmd:?}: expected a usage error, got {other:?}"),
        }
    }
    std::fs::remove_file(path).ok();

    // The help text names every member too.
    let usage = run(&args(&["help"])).unwrap();
    for row in MENU {
        assert!(usage.contains(row.name), "USAGE omits {}", row.name);
    }
}
