//! Exit-code and stream-discipline contract of the `ddn` binary: usage
//! mistakes exit 2, runtime failures exit 1, diagnostics go to stderr
//! (never stdout), and the telemetry round-trip (selftest → file →
//! telemetry-check) holds end to end.

use std::path::PathBuf;
use std::process::{Command, Output};

fn ddn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ddn"))
        .args(args)
        .output()
        .expect("ddn binary runs")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ddn-exit-{}-{name}", std::process::id()))
}

#[test]
fn usage_errors_exit_2_with_stderr_only() {
    for args in [
        &[][..],
        &["bogus"][..],
        &["figure7", "7z"][..],
        &["telemetry-check"][..],
        &["selftest", "--runs", "zero"][..],
        // Flags a subcommand does not read: a typo, or the retired
        // shard-queue and per-estimator scoring knobs.
        &["figure7", "7c", "--runs", "1", "--bogus", "3"][..],
        &["figure7", "7c", "--runs", "1", "--no-batch"][..],
        &["serve", "--shard", "2"][..],
        &["serve", "--queue", "1"][..],
        &["loadgen", "--queue", "1"][..],
    ] {
        let out = ddn(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(out.stdout.is_empty(), "stdout must stay clean for {args:?}");
        assert!(
            !out.stderr.is_empty(),
            "the diagnostic must land on stderr for {args:?}"
        );
    }
}

#[test]
fn runtime_failures_exit_1_with_stderr_only() {
    let missing = tmp("does-not-exist.jsonl");
    let out = ddn(&["stats", missing.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "missing trace is a runtime error"
    );
    assert!(out.stdout.is_empty());
    assert!(!out.stderr.is_empty());

    // A present-but-invalid telemetry file is a runtime failure too.
    let bad = tmp("bad-telemetry.json");
    std::fs::write(&bad, "{\"version\":1}").unwrap();
    let out = ddn(&["telemetry-check", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("telemetry error"), "stderr: {err}");
    std::fs::remove_file(bad).ok();
}

#[test]
fn a_trace_header_schema_the_builder_refuses_is_a_runtime_error() {
    for (name, schema) in [
        (
            "zero-levels",
            r#"{"inner":{"names":["g"],"kinds":[{"Categorical":{"cardinality":0}}]}}"#,
        ),
        (
            "repeated-name",
            r#"{"inner":{"names":["g","g"],"kinds":["Numeric","Numeric"]}}"#,
        ),
    ] {
        let path = tmp(&format!("{name}.jsonl"));
        let header = format!(r#"{{"schema":{schema},"space":{{"names":["a","b"]}}}}"#);
        let record = r#"{"context":{"values":[0]},"decision":0,"reward":1.0,"propensity":0.5}"#;
        std::fs::write(&path, format!("{header}\n{record}\n")).unwrap();
        let out = ddn(&[
            "evaluate",
            path.to_str().unwrap(),
            "--decision",
            "a",
            "--estimator",
            "ips",
        ]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: stderr {err}");
        assert!(out.stdout.is_empty(), "{name}");
        assert!(err.contains("trace error"), "{name}: stderr {err}");
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn serve_on_an_already_bound_address_exits_1_with_a_clear_message() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let out = ddn(&["serve", "--addr", &addr]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "a bind failure is a runtime error"
    );
    assert!(out.stdout.is_empty());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot bind"), "stderr: {err}");
    assert!(err.contains(&addr), "stderr: {err}");
}

#[test]
fn chaos_smoke_exits_0_and_reports_exactly_once() {
    let out = ddn(&[
        "chaos",
        "--seed",
        "7",
        "--faults",
        "0.01",
        "--duration-records",
        "1000",
        "--batch",
        "128",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("exactly-once: ok"), "{stdout}");
    assert!(stdout.contains("estimate parity: ok"), "{stdout}");
}

#[test]
fn selftest_telemetry_round_trips_through_check() {
    let path = tmp("selftest-telemetry.json");
    let out = ddn(&[
        "selftest",
        "--runs",
        "2",
        "--telemetry",
        path.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("selftest ok"), "{stdout}");
    // The summary table goes to stderr, the results to stdout.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("telemetry:"), "{stderr}");
    assert!(!stdout.contains("telemetry:"), "{stdout}");

    let out = ddn(&["telemetry-check", path.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("ok"), "{report}");
    std::fs::remove_file(path).ok();
}
