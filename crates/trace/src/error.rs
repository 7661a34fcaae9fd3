//! Error type shared by trace construction, validation and I/O.

use std::fmt;

/// Errors arising while building, validating, or (de)serializing traces.
#[derive(Debug)]
pub enum TraceError {
    /// A record's decision index falls outside the trace's decision space.
    DecisionOutOfRange {
        /// Record position in the trace.
        record: usize,
        /// Offending decision index.
        index: usize,
        /// Size of the decision space.
        space: usize,
    },
    /// A record's context does not match the trace schema.
    SchemaMismatch {
        /// Record position in the trace.
        record: usize,
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// An estimator required the logging propensity but the record lacks it.
    MissingPropensity {
        /// Record position in the trace.
        record: usize,
    },
    /// A record's propensity is outside `(0, 1]`.
    InvalidPropensity {
        /// Record position in the trace.
        record: usize,
        /// Offending value.
        value: f64,
    },
    /// A record's reward is NaN or infinite.
    NonFiniteReward {
        /// Record position in the trace.
        record: usize,
        /// Offending value.
        value: f64,
    },
    /// A record's timestamp is NaN or infinite.
    NonFiniteTimestamp {
        /// Record position in the trace.
        record: usize,
        /// Offending value.
        value: f64,
    },
    /// Timestamps are present but not non-decreasing.
    UnorderedTimestamps {
        /// Position of the first out-of-order record.
        record: usize,
    },
    /// The trace is empty where at least one record is required.
    Empty,
    /// An I/O error during JSONL reading/writing.
    Io(std::io::Error),
    /// A JSON (de)serialization error, with the offending line number when
    /// reading JSONL.
    Json {
        /// 1-based line number, when applicable.
        line: Option<usize>,
        /// Underlying JSON parse/shape error.
        source: ddn_stats::JsonError,
    },
    /// A record parsed as JSON but failed validation while reading JSONL;
    /// wraps the validation error with the offending input line, so a bad
    /// line in a multi-gigabyte trace file can be found without counting
    /// records by hand.
    InvalidRecordLine {
        /// 1-based line number in the JSONL input.
        line: usize,
        /// The underlying validation error (which names the record
        /// position within the stream).
        source: Box<TraceError>,
    },
}

impl TraceError {
    /// Wraps a validation error with the JSONL line it arose from. Errors
    /// that already carry a line number are returned unchanged.
    pub fn at_line(self, line: usize) -> TraceError {
        match self {
            TraceError::Json { .. } | TraceError::InvalidRecordLine { .. } | TraceError::Io(_) => {
                self
            }
            other => TraceError::InvalidRecordLine {
                line,
                source: Box::new(other),
            },
        }
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::DecisionOutOfRange {
                record,
                index,
                space,
            } => write!(
                f,
                "record {record}: decision index {index} out of range for space of {space}"
            ),
            TraceError::SchemaMismatch { record, detail } => {
                write!(
                    f,
                    "record {record}: context does not match schema: {detail}"
                )
            }
            TraceError::MissingPropensity { record } => {
                write!(f, "record {record}: logging propensity required but absent")
            }
            TraceError::InvalidPropensity { record, value } => {
                write!(f, "record {record}: propensity {value} outside (0, 1]")
            }
            TraceError::NonFiniteReward { record, value } => {
                write!(f, "record {record}: reward {value} is not finite")
            }
            TraceError::NonFiniteTimestamp { record, value } => {
                write!(f, "record {record}: timestamp {value} is not finite")
            }
            TraceError::UnorderedTimestamps { record } => {
                write!(f, "record {record}: timestamp decreases")
            }
            TraceError::Empty => write!(f, "trace must contain at least one record"),
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::Json {
                line: Some(l),
                source,
            } => {
                write!(f, "trace JSON error at line {l}: {source}")
            }
            TraceError::Json { line: None, source } => write!(f, "trace JSON error: {source}"),
            TraceError::InvalidRecordLine { line, source } => {
                write!(f, "trace line {line}: {source}")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Json { source, .. } => Some(source),
            TraceError::InvalidRecordLine { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TraceError::DecisionOutOfRange {
            record: 3,
            index: 9,
            space: 4,
        };
        let s = e.to_string();
        assert!(
            s.contains("record 3") && s.contains('9') && s.contains('4'),
            "{s}"
        );

        let e = TraceError::MissingPropensity { record: 0 };
        assert!(e.to_string().contains("propensity"));
    }

    #[test]
    fn at_line_wraps_validation_errors_once() {
        let e = TraceError::MissingPropensity { record: 3 }.at_line(5);
        assert!(matches!(
            e,
            TraceError::InvalidRecordLine { line: 5, ref source }
                if matches!(**source, TraceError::MissingPropensity { record: 3 })
        ));
        let s = e.to_string();
        assert!(s.contains("line 5") && s.contains("record 3"), "{s}");
        assert!(std::error::Error::source(&e).is_some());
        // Errors already carrying a line stay as they are.
        let again = e.at_line(9);
        assert!(matches!(
            again,
            TraceError::InvalidRecordLine { line: 5, .. }
        ));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let e: TraceError = io.into();
        assert!(matches!(e, TraceError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
