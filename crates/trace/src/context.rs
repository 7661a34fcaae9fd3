//! Client-contexts: featurized summaries of client and contextual
//! information (paper §2.1, "client or client-context").
//!
//! A [`ContextSchema`] names the features and fixes their kinds; a
//! [`Context`] holds one client's feature values conforming to a schema.
//! Categorical values are stored as `u32` codes, numeric values as `f64`.
//! Contexts are hashable/comparable so tabular models and matching
//! estimators can group identical clients (numeric values compare by bit
//! pattern, which is exact for the deterministic simulators here).

use ddn_stats::{Json, JsonError};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// The kind of one feature in a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FeatureKind {
    /// Categorical feature with the given number of levels (codes
    /// `0..cardinality`).
    Categorical {
        /// Number of levels this feature can take.
        cardinality: u32,
    },
    /// Real-valued feature.
    Numeric,
}

/// Immutable description of the feature vector layout shared by every
/// context in a trace.
///
/// Schemas are reference-counted: cloning is cheap and contexts referencing
/// the same schema share it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextSchema {
    inner: Arc<SchemaInner>,
}

#[derive(Debug, PartialEq, Eq)]
struct SchemaInner {
    names: Vec<String>,
    kinds: Vec<FeatureKind>,
    // Not serialized; rebuilt via `reindexed` after deserialization.
    index: HashMap<String, usize>,
}

impl FeatureKind {
    /// Serializes in the wire format of the original serde derive:
    /// externally tagged, so `{"Categorical":{"cardinality":3}}` or the
    /// bare string `"Numeric"`.
    pub fn to_json(&self) -> Json {
        match self {
            FeatureKind::Categorical { cardinality } => Json::object(vec![(
                "Categorical",
                Json::object(vec![("cardinality", Json::Int(i64::from(*cardinality)))]),
            )]),
            FeatureKind::Numeric => Json::str("Numeric"),
        }
    }

    /// Parses the wire format of [`FeatureKind::to_json`].
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        if let Some(s) = v.as_str() {
            return match s {
                "Numeric" => Ok(FeatureKind::Numeric),
                other => Err(JsonError::msg(format!("unknown feature kind {other:?}"))),
            };
        }
        let cardinality = v
            .field("Categorical")?
            .field("cardinality")?
            .expect_u32("cardinality")?;
        Ok(FeatureKind::Categorical { cardinality })
    }
}

impl ContextSchema {
    /// Starts building a schema.
    pub fn builder() -> SchemaBuilder {
        SchemaBuilder {
            names: Vec::new(),
            kinds: Vec::new(),
        }
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.inner.names.len()
    }

    /// Whether the schema has zero features.
    pub fn is_empty(&self) -> bool {
        self.inner.names.is_empty()
    }

    /// Feature names in declaration order.
    pub fn names(&self) -> &[String] {
        &self.inner.names
    }

    /// Feature kinds in declaration order.
    pub fn kinds(&self) -> &[FeatureKind] {
        &self.inner.kinds
    }

    /// Index of the feature named `name`, if present.
    pub fn position(&self, name: &str) -> Option<usize> {
        if self.inner.index.is_empty() {
            // Deserialized schemas skip the index; fall back to scan.
            self.inner.names.iter().position(|n| n == name)
        } else {
            self.inner.index.get(name).copied()
        }
    }

    /// Serializes in the wire format of the original serde derive: the
    /// `Arc` is transparent, so `{"inner":{"names":[...],"kinds":[...]}}`
    /// with the name index skipped.
    pub fn to_json(&self) -> Json {
        Json::object(vec![(
            "inner",
            Json::object(vec![
                (
                    "names",
                    Json::Array(self.inner.names.iter().map(Json::str).collect()),
                ),
                (
                    "kinds",
                    Json::Array(self.inner.kinds.iter().map(FeatureKind::to_json).collect()),
                ),
            ]),
        )])
    }

    /// Parses the wire format of [`ContextSchema::to_json`]. Like the old
    /// serde path, the name index is left empty; call
    /// [`ContextSchema::reindexed`] to populate it.
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        let inner = v.field("inner")?;
        let names = inner
            .field("names")?
            .expect_array("schema names")?
            .iter()
            .map(|n| n.expect_str("feature name").map(str::to_string))
            .collect::<Result<Vec<_>, _>>()?;
        let kinds = inner
            .field("kinds")?
            .expect_array("schema kinds")?
            .iter()
            .map(FeatureKind::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        if names.len() != kinds.len() {
            return Err(JsonError::msg(format!(
                "schema has {} names but {} kinds",
                names.len(),
                kinds.len()
            )));
        }
        // What the builder asserts, refused here: `reindexed` runs the
        // builder over schemas that arrive from outside.
        let mut seen = std::collections::HashSet::with_capacity(names.len());
        for (name, kind) in names.iter().zip(&kinds) {
            if !seen.insert(name.as_str()) {
                return Err(JsonError::msg(format!("duplicate feature name {name:?}")));
            }
            if *kind == (FeatureKind::Categorical { cardinality: 0 }) {
                return Err(JsonError::msg(format!(
                    "categorical feature {name:?} needs at least one level"
                )));
            }
        }
        Ok(ContextSchema {
            inner: Arc::new(SchemaInner {
                names,
                kinds,
                index: HashMap::new(),
            }),
        })
    }

    /// Rebuilds a schema after deserialization so the name index is
    /// populated. JSONL loading in [`crate::Trace`] calls this.
    pub fn reindexed(&self) -> ContextSchema {
        let mut b = ContextSchema::builder();
        for (n, k) in self.inner.names.iter().zip(&self.inner.kinds) {
            b = match k {
                FeatureKind::Categorical { cardinality } => b.categorical(n, *cardinality),
                FeatureKind::Numeric => b.numeric(n),
            };
        }
        b.build()
    }
}

/// Builder for [`ContextSchema`].
#[derive(Debug)]
pub struct SchemaBuilder {
    names: Vec<String>,
    kinds: Vec<FeatureKind>,
}

impl SchemaBuilder {
    /// Adds a categorical feature with `cardinality` levels.
    ///
    /// # Panics
    /// Panics on duplicate names or zero cardinality.
    pub fn categorical(mut self, name: &str, cardinality: u32) -> Self {
        assert!(
            cardinality > 0,
            "categorical feature {name:?} needs at least one level"
        );
        self.push(name, FeatureKind::Categorical { cardinality });
        self
    }

    /// Adds a numeric feature.
    ///
    /// # Panics
    /// Panics on duplicate names.
    pub fn numeric(mut self, name: &str) -> Self {
        self.push(name, FeatureKind::Numeric);
        self
    }

    fn push(&mut self, name: &str, kind: FeatureKind) {
        assert!(
            !self.names.iter().any(|n| n == name),
            "duplicate feature name {name:?}"
        );
        self.names.push(name.to_string());
        self.kinds.push(kind);
    }

    /// Finalizes the schema.
    pub fn build(self) -> ContextSchema {
        let index = self
            .names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        ContextSchema {
            inner: Arc::new(SchemaInner {
                names: self.names,
                kinds: self.kinds,
                index,
            }),
        }
    }
}

/// One feature value.
///
/// On the wire this is untagged: categorical codes are integer literals
/// (`3`), numeric values are floats (`3.0`) — the writer and parser keep
/// that distinction via [`Json::Int`] vs [`Json::Num`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeatureValue {
    /// Categorical code.
    Cat(u32),
    /// Numeric value.
    Num(f64),
}

impl FeatureValue {
    /// The categorical code, if this is a categorical value.
    pub fn as_cat(&self) -> Option<u32> {
        match self {
            FeatureValue::Cat(c) => Some(*c),
            FeatureValue::Num(_) => None,
        }
    }

    /// The numeric value, if this is a numeric value.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            FeatureValue::Num(x) => Some(*x),
            FeatureValue::Cat(_) => None,
        }
    }

    /// A lossy numeric view used by distance-based models: categorical
    /// codes are exposed as their code value.
    pub fn to_f64(&self) -> f64 {
        match self {
            FeatureValue::Cat(c) => *c as f64,
            FeatureValue::Num(x) => *x,
        }
    }

    /// Serializes untagged: `Cat(3)` → `3`, `Num(3.0)` → `3.0`.
    pub fn to_json(&self) -> Json {
        match self {
            FeatureValue::Cat(c) => Json::Int(i64::from(*c)),
            FeatureValue::Num(x) => Json::Num(*x),
        }
    }

    /// Parses the untagged wire format: an integer literal that fits `u32`
    /// is a categorical code (serde's untagged derive tried `u32` first);
    /// any other number is numeric.
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        if let Some(i) = v.as_i64() {
            if let Ok(c) = u32::try_from(i) {
                return Ok(FeatureValue::Cat(c));
            }
        }
        v.expect_f64("feature value").map(FeatureValue::Num)
    }
}

/// A client-context: one feature value per schema feature.
#[derive(Debug, Clone)]
pub struct Context {
    values: Vec<FeatureValue>,
}

impl Context {
    /// Starts building a context for `schema`.
    pub fn build(schema: &ContextSchema) -> ContextBuilder {
        ContextBuilder {
            schema: schema.clone(),
            values: vec![None; schema.len()],
        }
    }

    /// Creates a context directly from values, validating against `schema`.
    ///
    /// # Panics
    /// Panics if the length or kinds do not match the schema, or a
    /// categorical code is out of range.
    pub fn from_values(schema: &ContextSchema, values: Vec<FeatureValue>) -> Self {
        assert_eq!(
            values.len(),
            schema.len(),
            "context length must match schema"
        );
        for (i, (v, k)) in values.iter().zip(schema.kinds()).enumerate() {
            match (v, k) {
                (FeatureValue::Cat(c), FeatureKind::Categorical { cardinality }) => {
                    assert!(
                        c < cardinality,
                        "feature {:?}: code {c} out of range 0..{cardinality}",
                        schema.names()[i]
                    );
                }
                (FeatureValue::Num(x), FeatureKind::Numeric) => {
                    assert!(
                        x.is_finite(),
                        "feature {:?}: non-finite value",
                        schema.names()[i]
                    );
                }
                _ => panic!(
                    "feature {:?}: value kind does not match schema kind",
                    schema.names()[i]
                ),
            }
        }
        Self { values }
    }

    /// Creates a context from wire values without schema validation,
    /// mirroring the deferred-validation contract of [`Context::from_json`]:
    /// conformance is checked later, at ingest, so binary and JSON decode
    /// paths reject bad records at the same layer.
    pub fn from_wire_values(values: Vec<FeatureValue>) -> Self {
        Self { values }
    }

    /// The raw feature values in schema order.
    pub fn values(&self) -> &[FeatureValue] {
        &self.values
    }

    /// Value of feature `i`.
    pub fn get(&self, i: usize) -> FeatureValue {
        self.values[i]
    }

    /// Categorical code of feature `i`.
    ///
    /// # Panics
    /// Panics if feature `i` is numeric.
    pub fn cat(&self, i: usize) -> u32 {
        self.values[i].as_cat().expect("feature is not categorical")
    }

    /// Numeric value of feature `i`.
    ///
    /// # Panics
    /// Panics if feature `i` is categorical.
    pub fn num(&self, i: usize) -> f64 {
        self.values[i].as_num().expect("feature is not numeric")
    }

    /// Dense `f64` view (categoricals as their codes) for distance-based
    /// models.
    pub fn dense(&self) -> Vec<f64> {
        self.values.iter().map(FeatureValue::to_f64).collect()
    }

    /// Serializes as `{"values":[...]}` in the old serde wire format.
    pub fn to_json(&self) -> Json {
        Json::object(vec![(
            "values",
            Json::Array(self.values.iter().map(FeatureValue::to_json).collect()),
        )])
    }

    /// Parses the wire format of [`Context::to_json`]. Schema conformance
    /// is checked later, by [`crate::Trace::from_records`].
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        let values = v
            .field("values")?
            .expect_array("context values")?
            .iter()
            .map(FeatureValue::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Context { values })
    }

    /// A hashable key identifying this exact feature combination.
    /// Numeric values are keyed by bit pattern.
    pub fn key(&self) -> ContextKey {
        ContextKey(
            self.values
                .iter()
                .map(|v| match v {
                    FeatureValue::Cat(c) => (0u8, u64::from(*c)),
                    FeatureValue::Num(x) => (1u8, x.to_bits()),
                })
                .collect(),
        )
    }
}

impl PartialEq for Context {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Context {}

/// Exact-match grouping key for a context. See [`Context::key`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ContextKey(Vec<(u8, u64)>);

impl fmt::Display for Context {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match v {
                FeatureValue::Cat(c) => write!(f, "#{c}")?,
                FeatureValue::Num(x) => write!(f, "{x}")?,
            }
        }
        write!(f, "]")
    }
}

/// Builder for [`Context`], addressed by feature name.
#[derive(Debug)]
pub struct ContextBuilder {
    schema: ContextSchema,
    values: Vec<Option<FeatureValue>>,
}

impl ContextBuilder {
    /// Sets a categorical feature by name.
    ///
    /// # Panics
    /// Panics if the name is unknown, the feature is numeric, or the code is
    /// out of range.
    pub fn set_cat(mut self, name: &str, code: u32) -> Self {
        let i = self
            .schema
            .position(name)
            .unwrap_or_else(|| panic!("unknown feature {name:?}"));
        match self.schema.kinds()[i] {
            FeatureKind::Categorical { cardinality } => {
                assert!(
                    code < cardinality,
                    "feature {name:?}: code {code} out of range"
                );
            }
            FeatureKind::Numeric => panic!("feature {name:?} is numeric, use set_numeric"),
        }
        self.values[i] = Some(FeatureValue::Cat(code));
        self
    }

    /// Sets a numeric feature by name.
    ///
    /// # Panics
    /// Panics if the name is unknown, the feature is categorical, or the
    /// value is non-finite.
    pub fn set_numeric(mut self, name: &str, value: f64) -> Self {
        let i = self
            .schema
            .position(name)
            .unwrap_or_else(|| panic!("unknown feature {name:?}"));
        assert!(
            matches!(self.schema.kinds()[i], FeatureKind::Numeric),
            "feature {name:?} is categorical, use set_cat"
        );
        assert!(
            value.is_finite(),
            "feature {name:?}: non-finite value {value}"
        );
        self.values[i] = Some(FeatureValue::Num(value));
        self
    }

    /// Finalizes the context.
    ///
    /// # Panics
    /// Panics if any feature is unset.
    pub fn finish(self) -> Context {
        let values = self
            .values
            .into_iter()
            .enumerate()
            .map(|(i, v)| {
                v.unwrap_or_else(|| panic!("feature {:?} not set", self.schema.names()[i]))
            })
            .collect();
        Context { values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> ContextSchema {
        ContextSchema::builder()
            .categorical("isp", 3)
            .numeric("rtt_ms")
            .categorical("nat", 2)
            .build()
    }

    #[test]
    fn schema_positions_and_kinds() {
        let s = schema();
        assert_eq!(s.len(), 3);
        assert_eq!(s.position("rtt_ms"), Some(1));
        assert_eq!(s.position("nope"), None);
        assert_eq!(s.kinds()[0], FeatureKind::Categorical { cardinality: 3 });
        assert_eq!(s.kinds()[1], FeatureKind::Numeric);
    }

    #[test]
    #[should_panic(expected = "duplicate feature name")]
    fn duplicate_feature_panics() {
        let _ = ContextSchema::builder().numeric("x").numeric("x").build();
    }

    #[test]
    fn builder_roundtrip() {
        let s = schema();
        let c = Context::build(&s)
            .set_cat("isp", 2)
            .set_numeric("rtt_ms", 35.5)
            .set_cat("nat", 1)
            .finish();
        assert_eq!(c.cat(0), 2);
        assert_eq!(c.num(1), 35.5);
        assert_eq!(c.cat(2), 1);
        assert_eq!(c.dense(), vec![2.0, 35.5, 1.0]);
    }

    #[test]
    #[should_panic(expected = "not set")]
    fn missing_feature_panics() {
        let s = schema();
        let _ = Context::build(&s).set_cat("isp", 0).finish();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_code_panics() {
        let s = schema();
        let _ = Context::build(&s).set_cat("isp", 3);
    }

    #[test]
    #[should_panic(expected = "is numeric")]
    fn kind_mismatch_panics() {
        let s = schema();
        let _ = Context::build(&s).set_cat("rtt_ms", 0);
    }

    #[test]
    fn equality_and_key() {
        let s = schema();
        let a = Context::build(&s)
            .set_cat("isp", 1)
            .set_numeric("rtt_ms", 10.0)
            .set_cat("nat", 0)
            .finish();
        let b = Context::build(&s)
            .set_cat("isp", 1)
            .set_numeric("rtt_ms", 10.0)
            .set_cat("nat", 0)
            .finish();
        let c = Context::build(&s)
            .set_cat("isp", 1)
            .set_numeric("rtt_ms", 10.1)
            .set_cat("nat", 0)
            .finish();
        assert_eq!(a, b);
        assert_eq!(a.key(), b.key());
        assert_ne!(a, c);
        assert_ne!(a.key(), c.key());
    }

    #[test]
    fn from_values_validates() {
        let s = schema();
        let c = Context::from_values(
            &s,
            vec![
                FeatureValue::Cat(0),
                FeatureValue::Num(1.5),
                FeatureValue::Cat(1),
            ],
        );
        assert_eq!(c.values().len(), 3);
    }

    #[test]
    #[should_panic(expected = "does not match schema kind")]
    fn from_values_kind_mismatch_panics() {
        let s = schema();
        let _ = Context::from_values(
            &s,
            vec![
                FeatureValue::Num(0.0),
                FeatureValue::Num(1.5),
                FeatureValue::Cat(1),
            ],
        );
    }

    #[test]
    fn display_formats() {
        let s = schema();
        let c = Context::build(&s)
            .set_cat("isp", 1)
            .set_numeric("rtt_ms", 10.0)
            .set_cat("nat", 0)
            .finish();
        assert_eq!(format!("{c}"), "[#1, 10, #0]");
    }

    #[test]
    fn reindexed_schema_finds_names() {
        let s = schema();
        let json = s.to_json().to_string();
        let loaded = ContextSchema::from_json(&Json::parse(&json).unwrap()).unwrap();
        // Even before reindexing, position() falls back to a scan.
        assert_eq!(loaded.position("rtt_ms"), Some(1));
        let fixed = loaded.reindexed();
        assert_eq!(fixed.position("nat"), Some(2));
        assert_eq!(fixed, s);
    }

    #[test]
    fn from_json_refuses_what_the_builder_asserts() {
        for (bad, needle) in [
            (
                r#"{"inner":{"names":["g"],"kinds":[{"Categorical":{"cardinality":0}}]}}"#,
                "at least one level",
            ),
            (
                r#"{"inner":{"names":["x","g","x"],"kinds":["Numeric",{"Categorical":{"cardinality":2}},"Numeric"]}}"#,
                "duplicate feature name \"x\"",
            ),
        ] {
            let e = ContextSchema::from_json(&Json::parse(bad).unwrap()).unwrap_err();
            assert!(e.to_string().contains(needle), "{bad}: {e}");
        }
    }

    #[test]
    fn schema_wire_format_matches_serde() {
        // Pinned against what the serde derives wrote before the hermetic
        // JSON module replaced them.
        let s = ContextSchema::builder()
            .categorical("isp", 3)
            .numeric("rtt_ms")
            .build();
        assert_eq!(
            s.to_json().to_string(),
            r#"{"inner":{"names":["isp","rtt_ms"],"kinds":[{"Categorical":{"cardinality":3}},"Numeric"]}}"#
        );
    }

    #[test]
    fn feature_value_untagged_roundtrip() {
        // Integer literal => categorical; float literal => numeric.
        let cat = FeatureValue::from_json(&Json::parse("3").unwrap()).unwrap();
        assert_eq!(cat, FeatureValue::Cat(3));
        let num = FeatureValue::from_json(&Json::parse("3.0").unwrap()).unwrap();
        assert_eq!(num, FeatureValue::Num(3.0));
        // Negative / oversized integers cannot be codes; they fall back to
        // numeric exactly like serde's untagged derive did.
        let neg = FeatureValue::from_json(&Json::parse("-1").unwrap()).unwrap();
        assert_eq!(neg, FeatureValue::Num(-1.0));
        assert_eq!(FeatureValue::Cat(3).to_json().to_string(), "3");
        assert_eq!(FeatureValue::Num(3.0).to_json().to_string(), "3.0");
    }
}
