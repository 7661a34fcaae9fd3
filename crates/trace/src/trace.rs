//! The [`Trace`] container: a validated sequence of records plus the schema
//! and decision space they conform to, with JSONL persistence.

use crate::context::{ContextSchema, FeatureKind, FeatureValue};
use crate::decision::DecisionSpace;
use crate::error::TraceError;
use crate::record::TraceRecord;
use ddn_stats::{Json, JsonError};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// A validated trace `T = {(c_k, d_k, r_k)}` (paper §2.1).
///
/// Construction validates every record against the schema and decision
/// space, so downstream estimators can index without re-checking.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    schema: ContextSchema,
    space: DecisionSpace,
    records: Vec<TraceRecord>,
}

/// JSONL header line carrying the schema and decision space.
struct Header {
    schema: ContextSchema,
    space: DecisionSpace,
}

impl Header {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("schema", self.schema.to_json()),
            ("space", self.space.to_json()),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Header {
            schema: ContextSchema::from_json(v.field("schema")?)?,
            space: DecisionSpace::from_json(v.field("space")?)?,
        })
    }
}

impl Trace {
    /// Builds a trace from records, validating each against `schema` and
    /// `space`.
    pub fn from_records(
        schema: ContextSchema,
        space: DecisionSpace,
        records: Vec<TraceRecord>,
    ) -> Result<Self, TraceError> {
        if records.is_empty() {
            return Err(TraceError::Empty);
        }
        let mut last_ts = f64::NEG_INFINITY;
        for (k, r) in records.iter().enumerate() {
            Self::validate_record(k, r, &schema, &space, &mut last_ts)?;
        }
        Ok(Self {
            schema,
            space,
            records,
        })
    }

    /// Validates one record at stream position `k`: decision range, schema
    /// conformance, a finite reward, propensity range, and a finite
    /// timestamp ordered after the previous record's (`last_ts` is advanced
    /// on success). Shared by [`Trace::from_records`] and the incremental
    /// [`TraceStream`], and public so streaming ingest layers can apply the
    /// exact same checks to records that never pass through a `Trace`.
    pub fn validate_record(
        k: usize,
        r: &TraceRecord,
        schema: &ContextSchema,
        space: &DecisionSpace,
        last_ts: &mut f64,
    ) -> Result<(), TraceError> {
        if r.decision.index() >= space.len() {
            return Err(TraceError::DecisionOutOfRange {
                record: k,
                index: r.decision.index(),
                space: space.len(),
            });
        }
        Self::check_context(k, r, schema)?;
        if !r.reward.is_finite() {
            return Err(TraceError::NonFiniteReward {
                record: k,
                value: r.reward,
            });
        }
        if let Some(p) = r.propensity {
            if !(p > 0.0 && p <= 1.0 && p.is_finite()) {
                return Err(TraceError::InvalidPropensity {
                    record: k,
                    value: p,
                });
            }
        }
        if let Some(t) = r.timestamp {
            if !t.is_finite() {
                return Err(TraceError::NonFiniteTimestamp {
                    record: k,
                    value: t,
                });
            }
            if t < *last_ts {
                return Err(TraceError::UnorderedTimestamps { record: k });
            }
            *last_ts = t;
        }
        Ok(())
    }

    fn check_context(k: usize, r: &TraceRecord, schema: &ContextSchema) -> Result<(), TraceError> {
        let values = r.context.values();
        if values.len() != schema.len() {
            return Err(TraceError::SchemaMismatch {
                record: k,
                detail: format!("expected {} features, got {}", schema.len(), values.len()),
            });
        }
        for (i, (v, kind)) in values.iter().zip(schema.kinds()).enumerate() {
            let ok = match (v, kind) {
                (FeatureValue::Cat(c), FeatureKind::Categorical { cardinality }) => c < cardinality,
                (FeatureValue::Num(x), FeatureKind::Numeric) => x.is_finite(),
                _ => false,
            };
            if !ok {
                return Err(TraceError::SchemaMismatch {
                    record: k,
                    detail: format!("feature {:?} invalid", schema.names()[i]),
                });
            }
        }
        Ok(())
    }

    /// The context schema.
    pub fn schema(&self) -> &ContextSchema {
        &self.schema
    }

    /// The decision space.
    pub fn space(&self) -> &DecisionSpace {
        &self.space
    }

    /// The records, in logging order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Always false: traces are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Mean observed reward over the whole trace — the on-policy value of
    /// the logging policy.
    pub fn mean_reward(&self) -> f64 {
        self.records.iter().map(|r| r.reward).sum::<f64>() / self.len() as f64
    }

    /// Whether every record carries a logging propensity.
    pub fn has_propensities(&self) -> bool {
        self.records.iter().all(|r| r.propensity.is_some())
    }

    /// Returns a trace containing only records satisfying `keep`.
    /// Returns `Err(TraceError::Empty)` if nothing survives.
    pub fn filtered(
        &self,
        mut keep: impl FnMut(&TraceRecord) -> bool,
    ) -> Result<Trace, TraceError> {
        let records: Vec<TraceRecord> = self.records.iter().filter(|r| keep(r)).cloned().collect();
        Trace::from_records(self.schema.clone(), self.space.clone(), records)
    }

    /// Splits the trace at `at` into a (head, tail) pair, e.g. to fit a
    /// reward model on one half and estimate on the other (avoiding the
    /// own-data overfit that inflates DM optimism).
    ///
    /// # Panics
    /// Panics unless `0 < at < len`.
    pub fn split_at(&self, at: usize) -> (Trace, Trace) {
        assert!(
            at > 0 && at < self.len(),
            "split point {at} must be inside (0, {})",
            self.len()
        );
        let head = Trace {
            schema: self.schema.clone(),
            space: self.space.clone(),
            records: self.records[..at].to_vec(),
        };
        let tail = Trace {
            schema: self.schema.clone(),
            space: self.space.clone(),
            records: self.records[at..].to_vec(),
        };
        (head, tail)
    }

    /// Writes the trace as JSONL: one header line (schema + space) followed
    /// by one line per record.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> Result<(), TraceError> {
        let header = Header {
            schema: self.schema.clone(),
            space: self.space.clone(),
        };
        writeln!(w, "{}", header.to_json())?;
        for r in &self.records {
            writeln!(w, "{}", r.to_json())?;
        }
        Ok(())
    }

    /// Reads a trace previously written by [`Trace::write_jsonl`],
    /// re-validating every record.
    ///
    /// Loads the whole trace into memory; for incremental processing of
    /// large files use [`Trace::stream_jsonl`], which this is built on.
    pub fn read_jsonl<R: Read>(r: R) -> Result<Trace, TraceError> {
        let mut stream = Trace::stream_jsonl(r)?;
        let mut records = Vec::new();
        for rec in &mut stream {
            records.push(rec?);
        }
        if records.is_empty() {
            return Err(TraceError::Empty);
        }
        Ok(Trace {
            schema: stream.schema().clone(),
            space: stream.space().clone(),
            records,
        })
    }

    /// Opens a JSONL trace for incremental reading: parses and validates
    /// the header line eagerly, then yields one validated [`TraceRecord`]
    /// at a time without ever holding the whole file in memory.
    ///
    /// Validation is identical to [`Trace::from_records`] (decision range,
    /// schema conformance, propensity range, timestamp ordering), applied
    /// record-by-record as the stream advances; validation failures are
    /// wrapped in [`TraceError::InvalidRecordLine`] carrying the offending
    /// 1-based input line. After the first error the stream is fused and
    /// yields `None`.
    pub fn stream_jsonl<R: Read>(r: R) -> Result<TraceStream<R>, TraceError> {
        let reader = BufReader::new(r);
        let mut lines = reader.lines();
        let header_line = lines.next().ok_or(TraceError::Empty)??;
        let header = Json::parse(&header_line)
            .and_then(|v| Header::from_json(&v))
            .map_err(|source| TraceError::Json {
                line: Some(1),
                source,
            })?;
        Ok(TraceStream {
            lines,
            schema: header.schema.reindexed(),
            space: header.space,
            line: 1,
            read: 0,
            last_ts: f64::NEG_INFINITY,
            done: false,
        })
    }

    /// Writes the trace to a JSONL file at `path` (see
    /// [`Trace::write_jsonl`]).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), TraceError> {
        let file = std::fs::File::create(path)?;
        self.write_jsonl(std::io::BufWriter::new(file))
    }

    /// Reads a trace from a JSONL file written by [`Trace::save`].
    pub fn load(path: impl AsRef<Path>) -> Result<Trace, TraceError> {
        let file = std::fs::File::open(path)?;
        Trace::read_jsonl(BufReader::new(file))
    }

    /// Opens a JSONL file at `path` for incremental reading (see
    /// [`Trace::stream_jsonl`]).
    pub fn stream_file(path: impl AsRef<Path>) -> Result<TraceStream<std::fs::File>, TraceError> {
        let file = std::fs::File::open(path)?;
        Trace::stream_jsonl(file)
    }
}

/// Incremental JSONL trace reader returned by [`Trace::stream_jsonl`].
///
/// Holds the header's (reindexed) schema and decision space, and yields
/// validated records one at a time. Memory use is bounded by a single
/// input line, so multi-gigabyte traces can be replayed without loading
/// them. Blank lines are skipped but still advance the reported line
/// number, matching [`Trace::read_jsonl`].
pub struct TraceStream<R: Read> {
    lines: std::io::Lines<BufReader<R>>,
    schema: ContextSchema,
    space: DecisionSpace,
    /// 1-based number of the last physical line consumed (1 = header).
    line: usize,
    /// Count of records successfully yielded so far.
    read: usize,
    last_ts: f64,
    done: bool,
}

impl<R: Read> TraceStream<R> {
    /// The context schema from the header, reindexed for fast lookup.
    pub fn schema(&self) -> &ContextSchema {
        &self.schema
    }

    /// The decision space from the header.
    pub fn space(&self) -> &DecisionSpace {
        &self.space
    }

    /// Number of records successfully yielded so far.
    pub fn records_read(&self) -> usize {
        self.read
    }

    /// 1-based number of the last input line consumed (the header counts
    /// as line 1).
    pub fn line(&self) -> usize {
        self.line
    }
}

impl<R: Read> Iterator for TraceStream<R> {
    type Item = Result<TraceRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            let line = match self.lines.next() {
                None => {
                    self.done = true;
                    return None;
                }
                Some(Err(e)) => {
                    self.done = true;
                    return Some(Err(e.into()));
                }
                Some(Ok(l)) => l,
            };
            self.line += 1;
            if line.trim().is_empty() {
                continue;
            }
            let rec = match Json::parse(&line).and_then(|v| TraceRecord::from_json(&v)) {
                Ok(r) => r,
                Err(source) => {
                    self.done = true;
                    return Some(Err(TraceError::Json {
                        line: Some(self.line),
                        source,
                    }));
                }
            };
            let k = self.read;
            if let Err(e) =
                Trace::validate_record(k, &rec, &self.schema, &self.space, &mut self.last_ts)
            {
                self.done = true;
                return Some(Err(e.at_line(self.line)));
            }
            self.read += 1;
            return Some(Ok(rec));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;
    use crate::decision::Decision;
    use crate::record::StateTag;

    fn schema() -> ContextSchema {
        ContextSchema::builder()
            .categorical("isp", 2)
            .numeric("rtt")
            .build()
    }

    fn space() -> DecisionSpace {
        DecisionSpace::of(&["a", "b", "c"])
    }

    fn rec(isp: u32, rtt: f64, d: usize, r: f64) -> TraceRecord {
        let c = Context::build(&schema())
            .set_cat("isp", isp)
            .set_numeric("rtt", rtt)
            .finish();
        TraceRecord::new(c, Decision::from_index(d), r)
    }

    fn small_trace() -> Trace {
        Trace::from_records(
            schema(),
            space(),
            vec![
                rec(0, 10.0, 0, 1.0),
                rec(1, 20.0, 1, 0.5),
                rec(0, 30.0, 2, 0.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let t = small_trace();
        assert_eq!(t.len(), 3);
        assert!((t.mean_reward() - 0.5).abs() < 1e-12);
        assert!(!t.has_propensities());
        assert_eq!(t.space().len(), 3);
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(
            Trace::from_records(schema(), space(), vec![]),
            Err(TraceError::Empty)
        ));
    }

    #[test]
    fn rejects_bad_decision() {
        let e = Trace::from_records(schema(), space(), vec![rec(0, 1.0, 5, 0.0)]).unwrap_err();
        assert!(matches!(
            e,
            TraceError::DecisionOutOfRange {
                index: 5,
                space: 3,
                ..
            }
        ));
    }

    #[test]
    fn rejects_schema_mismatch() {
        let other = ContextSchema::builder().numeric("x").build();
        let c = Context::build(&other).set_numeric("x", 1.0).finish();
        let r = TraceRecord::new(c, Decision::from_index(0), 0.0);
        let e = Trace::from_records(schema(), space(), vec![r]).unwrap_err();
        assert!(matches!(e, TraceError::SchemaMismatch { .. }));
    }

    #[test]
    fn rejects_unordered_timestamps() {
        let r1 = rec(0, 1.0, 0, 0.0).with_timestamp(5.0);
        let r2 = rec(0, 1.0, 0, 0.0).with_timestamp(3.0);
        let e = Trace::from_records(schema(), space(), vec![r1, r2]).unwrap_err();
        assert!(matches!(e, TraceError::UnorderedTimestamps { record: 1 }));
    }

    #[test]
    fn rejects_non_finite_rewards_and_timestamps() {
        // Binary frames and JSON (`1e999`) can carry these past the
        // `TraceRecord` constructors' asserts.
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut bad = rec(0, 1.0, 0, 0.0);
            bad.reward = value;
            let e =
                Trace::from_records(schema(), space(), vec![rec(0, 1.0, 0, 0.0), bad]).unwrap_err();
            assert!(
                matches!(e, TraceError::NonFiniteReward { record: 1, .. }),
                "{e}"
            );
            assert!(e.to_string().contains("reward"), "{e}");
        }
        for value in [f64::NAN, f64::INFINITY] {
            let mut bad = rec(0, 1.0, 0, 0.0);
            bad.timestamp = Some(value);
            let mut last_ts = 2.0;
            let e = Trace::validate_record(4, &bad, &schema(), &space(), &mut last_ts).unwrap_err();
            assert!(
                matches!(e, TraceError::NonFiniteTimestamp { record: 4, .. }),
                "{e}"
            );
            assert!(e.to_string().contains("timestamp"), "{e}");
            assert_eq!(last_ts, 2.0, "a rejected record must not advance the clock");
        }
        // Only finiteness is checked, not the sign.
        let mut early = rec(0, 1.0, 0, 0.0);
        early.timestamp = Some(-5.0);
        assert!(Trace::from_records(schema(), space(), vec![early]).is_ok());
    }

    #[test]
    fn filtered_keeps_matching() {
        let t = small_trace();
        let high = t.filtered(|r| r.reward > 0.25).unwrap();
        assert_eq!(high.len(), 2);
        assert!(matches!(t.filtered(|_| false), Err(TraceError::Empty)));
    }

    #[test]
    fn split_partitions() {
        let t = small_trace();
        let (head, tail) = t.split_at(1);
        assert_eq!(head.len(), 1);
        assert_eq!(tail.len(), 2);
        assert_eq!(head.records()[0], t.records()[0]);
    }

    #[test]
    #[should_panic(expected = "must be inside")]
    fn split_at_bounds_panics() {
        let t = small_trace();
        let _ = t.split_at(3);
    }

    #[test]
    fn jsonl_roundtrip() {
        let t = Trace::from_records(
            schema(),
            space(),
            vec![
                rec(0, 10.0, 0, 1.0)
                    .with_propensity(0.5)
                    .with_state(StateTag::LOW_LOAD),
                rec(1, 20.0, 1, 0.5)
                    .with_propensity(0.25)
                    .with_timestamp(1.0),
            ],
        )
        .unwrap();
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let back = Trace::read_jsonl(&buf[..]).unwrap();
        assert_eq!(back.len(), t.len());
        assert_eq!(back.records(), t.records());
        assert_eq!(back.space(), t.space());
        assert_eq!(back.schema().position("rtt"), Some(1));
    }

    #[test]
    fn jsonl_rejects_garbage_line() {
        let t = small_trace();
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        buf.extend_from_slice(b"{not json}\n");
        let e = Trace::read_jsonl(&buf[..]).unwrap_err();
        assert!(matches!(e, TraceError::Json { line: Some(5), .. }), "{e}");
    }

    #[test]
    fn jsonl_skips_blank_lines() {
        let t = small_trace();
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        buf.extend_from_slice(b"\n\n");
        let back = Trace::read_jsonl(&buf[..]).unwrap();
        assert_eq!(back.len(), 3);
    }

    #[test]
    fn stream_yields_records_incrementally() {
        let t = small_trace();
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let mut stream = Trace::stream_jsonl(&buf[..]).unwrap();
        assert_eq!(stream.space(), t.space());
        assert_eq!(stream.schema().position("rtt"), Some(1));
        assert_eq!(stream.records_read(), 0);
        let first = stream.next().unwrap().unwrap();
        assert_eq!(first, t.records()[0]);
        assert_eq!(stream.records_read(), 1);
        assert_eq!(stream.line(), 2);
        let rest: Vec<_> = stream.map(Result::unwrap).collect();
        assert_eq!(rest.as_slice(), &t.records()[1..]);
    }

    #[test]
    fn stream_reports_validation_errors_with_line_numbers() {
        // Header + one good record + blank line + a record with an invalid
        // propensity on (physical) line 4.
        let t = small_trace();
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let mut lines: Vec<&str> = std::str::from_utf8(&buf).unwrap().lines().collect();
        lines.truncate(2); // header + record 0
        let mut input = lines.join("\n");
        input.push_str("\n\n");
        input.push_str(
            r#"{"context":{"values":[0,10.0]},"decision":1,"reward":0.5,"propensity":1.5}"#,
        );
        input.push('\n');
        let mut stream = Trace::stream_jsonl(input.as_bytes()).unwrap();
        assert!(stream.next().unwrap().is_ok());
        let e = stream.next().unwrap().unwrap_err();
        assert!(
            matches!(
                e,
                TraceError::InvalidRecordLine { line: 4, ref source }
                    if matches!(**source, TraceError::InvalidPropensity { record: 1, .. })
            ),
            "{e}"
        );
        // The stream is fused after the first error.
        assert!(stream.next().is_none());
    }

    #[test]
    fn stream_rejects_bad_header() {
        let e = match Trace::stream_jsonl(&b"{not json}\n"[..]) {
            Err(e) => e,
            Ok(_) => panic!("bad header must fail"),
        };
        assert!(matches!(e, TraceError::Json { line: Some(1), .. }));
        let e = match Trace::stream_jsonl(&b""[..]) {
            Err(e) => e,
            Ok(_) => panic!("empty input must fail"),
        };
        assert!(matches!(e, TraceError::Empty));
    }

    #[test]
    fn read_jsonl_carries_line_numbers_for_validation_errors() {
        let t = small_trace();
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        // Record with out-of-range decision appended on line 5.
        buf.extend_from_slice(
            b"{\"context\":{\"values\":[0,10.0]},\"decision\":7,\"reward\":0.0}\n",
        );
        let e = Trace::read_jsonl(&buf[..]).unwrap_err();
        assert!(
            matches!(
                e,
                TraceError::InvalidRecordLine { line: 5, ref source }
                    if matches!(
                        **source,
                        TraceError::DecisionOutOfRange { record: 3, index: 7, space: 3 }
                    )
            ),
            "{e}"
        );
    }
}
