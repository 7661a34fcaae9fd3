//! Property: corrupting line k of a JSONL trace makes [`TraceStream`]
//! yield every record before k unchanged, report the failure with the
//! exact physical line number, and fuse — and the uncorrupted prefix
//! parses bit-identically to the batch loader (`Trace::read_jsonl`).

use ddn_stats::rng::{Rng, Xoshiro256};
use ddn_testkit::{prop, prop_assert, prop_assert_eq};
use ddn_trace::{Context, ContextSchema, Decision, DecisionSpace, Trace, TraceError, TraceRecord};

fn schema() -> ContextSchema {
    ContextSchema::builder().categorical("g", 3).build()
}

fn space() -> DecisionSpace {
    DecisionSpace::of(&["a", "b", "c"])
}

fn records(n: usize, seed: u64) -> Vec<TraceRecord> {
    let mut rng = Xoshiro256::seed_from(seed);
    (0..n)
        .map(|_| {
            let g = rng.index(3) as u32;
            let c = Context::build(&schema()).set_cat("g", g).finish();
            let d = rng.index(3);
            TraceRecord::new(c, Decision::from_index(d), rng.next_f64()).with_propensity(1.0 / 3.0)
        })
        .collect()
}

fn jsonl(records: &[TraceRecord]) -> String {
    let trace = Trace::from_records(schema(), space(), records.to_vec()).unwrap();
    let mut buf = Vec::new();
    trace.write_jsonl(&mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

/// The 1-based input line an error names, however it is wrapped.
fn error_line(e: &TraceError) -> Option<usize> {
    match e {
        TraceError::Json { line, .. } => *line,
        TraceError::InvalidRecordLine { line, .. } => Some(*line),
        _ => None,
    }
}

prop! {
    /// Corrupt record k (physical line k+2: the header is line 1 and
    /// records start at line 2) in one of three ways — truncated JSON,
    /// byte junk, or a well-formed record with an out-of-range
    /// propensity — and check the stream's error contract.
    fn corrupted_line_k_is_reported_exactly_and_the_prefix_survives(
        n in 2usize..20,
        k_raw in 0usize..1000,
        mode in 0u32..3,
        seed in 0u64..1_000_000,
    ) {
        let recs = records(n, seed);
        let text = jsonl(&recs);
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        prop_assert_eq!(lines.len(), n + 1);

        let k = k_raw % n; // corrupted record index
        let line_idx = 1 + k; // index into `lines`
        let physical = line_idx + 1; // 1-based line number on the wire
        lines[line_idx] = match mode {
            // A strict prefix of a JSON object is never valid JSON.
            0 => lines[line_idx][..lines[line_idx].len() / 2 + 1].to_string(),
            1 => "]]this is not json{{".to_string(),
            // Valid JSON, invalid record: patch the propensity value in
            // place to land outside (0, 1]. (`with_propensity` asserts
            // eagerly, so the bad value can only exist on the wire.)
            _ => {
                let orig = &lines[line_idx];
                let pat = "\"propensity\":";
                let start = orig.find(pat).expect("records carry propensities") + pat.len();
                let end = start
                    + orig[start..]
                        .find([',', '}'])
                        .expect("value is delimited");
                format!("{}5.0{}", &orig[..start], &orig[end..])
            }
        };
        let corrupted = lines.join("\n");

        let mut stream = Trace::stream_jsonl(corrupted.as_bytes()).expect("header is intact");
        let mut streamed = Vec::new();
        let err = loop {
            match stream.next() {
                Some(Ok(rec)) => streamed.push(rec),
                Some(Err(e)) => break e,
                None => panic!("stream ended without reporting the corruption"),
            }
        };

        // Exactly the records before the corruption, byte-identical.
        prop_assert_eq!(streamed.len(), k);
        for (got, want) in streamed.iter().zip(&recs[..k]) {
            prop_assert_eq!(got.to_json().to_string(), want.to_json().to_string());
        }

        // The error names the exact physical line, which the stream's own
        // position agrees with.
        prop_assert_eq!(error_line(&err), Some(physical));
        prop_assert_eq!(stream.line(), physical);
        prop_assert!(
            format!("{err}").contains(&format!("line {physical}")),
            "error message must cite line {}: {}",
            physical,
            err
        );

        // Fused: after the first error the stream yields nothing more.
        prop_assert!(stream.next().is_none());
        prop_assert!(stream.next().is_none());

        // The uncorrupted prefix is a valid trace on its own and the
        // batch loader agrees with the stream record-for-record.
        if k > 0 {
            let prefix_text = lines[..line_idx].join("\n");
            let batch = Trace::read_jsonl(prefix_text.as_bytes()).expect("prefix is valid");
            prop_assert_eq!(batch.len(), streamed.len());
            for (got, want) in batch.records().iter().zip(&streamed) {
                prop_assert_eq!(got.to_json().to_string(), want.to_json().to_string());
            }
        }
    }
}

#[test]
fn an_error_free_stream_matches_the_batch_loader_end_to_end() {
    let recs = records(64, 9);
    let text = jsonl(&recs);
    let stream = Trace::stream_jsonl(text.as_bytes()).unwrap();
    let streamed: Vec<TraceRecord> = stream.map(|r| r.unwrap()).collect();
    let batch = Trace::read_jsonl(text.as_bytes()).unwrap();
    assert_eq!(streamed.len(), batch.len());
    for (got, want) in streamed.iter().zip(batch.records()) {
        assert_eq!(got.to_json().to_string(), want.to_json().to_string());
    }
}
