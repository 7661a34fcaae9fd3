//! Golden-file tests pinning the JSONL wire format of `Trace::save` /
//! `Trace::load` against what the pre-hermetic serde implementation wrote.
//!
//! The in-repo JSON writer must stay byte-compatible: traces persisted by
//! older builds (serde_json with `float_roundtrip`) load unchanged, and
//! newly written files are byte-identical to what serde would have
//! produced. Each line below was captured from the old serializer.

use ddn::trace::{Context, ContextSchema, Decision, DecisionSpace, StateTag, Trace, TraceRecord};

/// Exactly what the serde-era writer produced for a two-feature schema, a
/// three-decision space, and three records exercising every optional-field
/// combination (all set / none set / some set).
const GOLDEN: &str = concat!(
    r#"{"schema":{"inner":{"names":["isp","rtt"],"kinds":[{"Categorical":{"cardinality":2}},"Numeric"]}},"space":{"names":["a","b","c"]}}"#,
    "\n",
    r#"{"context":{"values":[0,10.0]},"decision":0,"reward":1.0,"propensity":0.5,"state":1,"timestamp":0.25}"#,
    "\n",
    r#"{"context":{"values":[1,20.5]},"decision":1,"reward":-0.5}"#,
    "\n",
    r#"{"context":{"values":[1,30.0]},"decision":2,"reward":0.0,"propensity":0.125}"#,
    "\n",
);

fn golden_trace() -> Trace {
    let schema = ContextSchema::builder()
        .categorical("isp", 2)
        .numeric("rtt")
        .build();
    let space = DecisionSpace::of(&["a", "b", "c"]);
    let rec = |isp: u32, rtt: f64, d: usize, r: f64| {
        let c = Context::build(&schema)
            .set_cat("isp", isp)
            .set_numeric("rtt", rtt)
            .finish();
        TraceRecord::new(c, Decision::from_index(d), r)
    };
    Trace::from_records(
        schema.clone(),
        space,
        vec![
            rec(0, 10.0, 0, 1.0)
                .with_propensity(0.5)
                .with_state(StateTag::HIGH_LOAD)
                .with_timestamp(0.25),
            rec(1, 20.5, 1, -0.5),
            rec(1, 30.0, 2, 0.0).with_propensity(0.125),
        ],
    )
    .unwrap()
}

#[test]
fn golden_file_loads() {
    let t = Trace::read_jsonl(GOLDEN.as_bytes()).unwrap();
    assert_eq!(t.len(), 3);
    assert_eq!(t.schema().position("rtt"), Some(1));
    assert_eq!(t.space().names(), &["a", "b", "c"]);
    let r0 = &t.records()[0];
    assert_eq!(r0.context.cat(0), 0);
    assert_eq!(r0.context.num(1), 10.0);
    assert_eq!(r0.decision.index(), 0);
    assert_eq!(r0.propensity, Some(0.5));
    assert_eq!(r0.state, Some(StateTag::HIGH_LOAD));
    assert_eq!(r0.timestamp, Some(0.25));
    let r1 = &t.records()[1];
    assert_eq!(r1.propensity, None);
    assert_eq!(r1.state, None);
    assert_eq!(r1.timestamp, None);
    assert_eq!(t.records(), golden_trace().records());
}

#[test]
fn writer_is_byte_identical_to_golden() {
    let mut buf = Vec::new();
    golden_trace().write_jsonl(&mut buf).unwrap();
    assert_eq!(
        std::str::from_utf8(&buf).unwrap(),
        GOLDEN,
        "writer output drifted from the pinned serde wire format"
    );
}

#[test]
fn golden_roundtrips_byte_identical() {
    // load → save reproduces the input byte-for-byte (float formatting
    // included), so repeated load/save cycles never churn trace files.
    let t = Trace::read_jsonl(GOLDEN.as_bytes()).unwrap();
    let mut buf = Vec::new();
    t.write_jsonl(&mut buf).unwrap();
    assert_eq!(std::str::from_utf8(&buf).unwrap(), GOLDEN);
}

#[test]
fn unknown_fields_are_ignored() {
    // serde's default deserialization ignored unknown fields; loaders must
    // keep doing so (forward compatibility with annotated traces).
    let with_extra = GOLDEN.replace(
        r#""reward":1.0"#,
        r#""reward":1.0,"annotator":"v2","weights":[1,2]"#,
    );
    let t = Trace::read_jsonl(with_extra.as_bytes()).unwrap();
    assert_eq!(t.records(), golden_trace().records());
}

#[test]
fn save_load_file_roundtrip() {
    let t = golden_trace();
    let path = std::env::temp_dir().join(format!("ddn_golden_{}.jsonl", std::process::id()));
    t.save(&path).unwrap();
    let back = Trace::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(back.records(), t.records());
    assert_eq!(back.space(), t.space());
    assert_eq!(back.schema().position("isp"), Some(0));
}

#[test]
fn load_reports_missing_file_as_io_error() {
    let e = Trace::load("/nonexistent/ddn/definitely_missing.jsonl").unwrap_err();
    assert!(matches!(e, ddn::trace::TraceError::Io(_)), "{e}");
}
