//! Minimal, dependency-free JSON: a document model, a strict parser and a
//! writer whose output is byte-compatible with what `serde_json` (with the
//! `float_roundtrip` feature) produced for this workspace's wire formats.
//!
//! The workspace's hermetic-build policy (README §"Hermetic build") forbids
//! crates.io dependencies, so trace persistence (`ddn-trace`) and bench
//! telemetry (`ddn-bench`) serialize through this module instead of serde.
//!
//! Design notes:
//!
//! - [`Json`] distinguishes integer literals ([`Json::Int`]) from general
//!   numbers ([`Json::Num`]). The distinction carries deserialization
//!   semantics: `ddn-trace` stores categorical feature codes as integers
//!   and numeric features as floats, and `3` vs `3.0` is exactly how the
//!   old serde wire format told them apart (serde's untagged enum tried
//!   `u32` before `f64`).
//! - Objects preserve insertion order, so writers control field order and
//!   round-trips are stable.
//! - The writer formats finite whole-valued floats with a trailing `.0`
//!   (`10.0`, not `10`), matching serde_json's Ryū output; everything else
//!   uses Rust's shortest-round-trip `Display`, so `parse(write(x)) == x`
//!   bit-for-bit for every finite `f64`. Non-finite floats serialize as
//!   `null`, as serde_json's serializer did.
//! - The parser is total: any input byte sequence returns `Ok` or a
//!   positioned [`JsonError`], never a panic, with a nesting-depth limit
//!   guarding against stack exhaustion on adversarial input.

use std::fmt;

/// Maximum nesting depth the parser accepts (arrays/objects combined).
/// Matches serde_json's default recursion limit.
const MAX_DEPTH: usize = 128;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written as an integer literal (no `.`, `e` or `E`) that
    /// fits in `i64`.
    Int(i64),
    /// Any other number (fractional, exponent-form, or outside `i64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; field order is preserved.
    Object(Vec<(String, Json)>),
}

/// Error from [`Json::parse`] or from shape-checking accessors: carries a
/// message and, for parse errors, the byte offset of the offending input.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    msg: String,
    pos: Option<usize>,
}

impl JsonError {
    /// Creates a shape/validation error (no input position).
    pub fn msg(msg: impl Into<String>) -> Self {
        Self {
            msg: msg.into(),
            pos: None,
        }
    }

    fn at(msg: impl Into<String>, pos: usize) -> Self {
        Self {
            msg: msg.into(),
            pos: Some(pos),
        }
    }

    /// Byte offset in the input where parsing failed, when applicable.
    pub fn position(&self) -> Option<usize> {
        self.pos
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pos {
            Some(p) => write!(f, "{} at byte {p}", self.msg),
            None => write!(f, "{}", self.msg),
        }
    }
}

impl std::error::Error for JsonError {}

impl Json {
    // ---- construction helpers ------------------------------------------

    /// An object from `(key, value)` pairs, preserving order.
    pub fn object(fields: Vec<(&str, Json)>) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    // ---- accessors ------------------------------------------------------

    /// The numeric value, accepting both [`Json::Int`] and [`Json::Num`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The integer value, only for integer literals.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The integer value as `u64`, only for non-negative integer literals.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(xs) => Some(xs),
            _ => None,
        }
    }

    /// The object fields.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Looks up a field of an object by key (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    // ---- checked accessors for deserializers ----------------------------

    /// `get(key)` or a descriptive error naming the expected field.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::msg(format!("missing field `{key}`")))
    }

    /// `as_f64` or a descriptive error.
    pub fn expect_f64(&self, what: &str) -> Result<f64, JsonError> {
        self.as_f64()
            .ok_or_else(|| JsonError::msg(format!("expected number for {what}")))
    }

    /// Non-negative integer literal fitting `u32`, or a descriptive error.
    pub fn expect_u32(&self, what: &str) -> Result<u32, JsonError> {
        self.as_u64()
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| JsonError::msg(format!("expected u32 for {what}")))
    }

    /// `as_str` or a descriptive error.
    pub fn expect_str(&self, what: &str) -> Result<&str, JsonError> {
        self.as_str()
            .ok_or_else(|| JsonError::msg(format!("expected string for {what}")))
    }

    /// `as_array` or a descriptive error.
    pub fn expect_array(&self, what: &str) -> Result<&[Json], JsonError> {
        self.as_array()
            .ok_or_else(|| JsonError::msg(format!("expected array for {what}")))
    }

    /// `as_object` or a descriptive error.
    pub fn expect_object(&self, what: &str) -> Result<&[(String, Json)], JsonError> {
        self.as_object()
            .ok_or_else(|| JsonError::msg(format!("expected object for {what}")))
    }

    // ---- writing --------------------------------------------------------

    /// Writes compact JSON (no whitespace) to `out`: the one serializer,
    /// behind [`fmt::Display`].
    fn write(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(true) => out.write_str("true"),
            Json::Bool(false) => out.write_str("false"),
            Json::Int(i) => write!(out, "{i}"),
            Json::Num(x) => write_f64(*x, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Array(xs) => {
                out.write_char('[')?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    x.write(out)?;
                }
                out.write_char(']')
            }
            Json::Object(fields) => {
                out.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    write_escaped(k, out)?;
                    out.write_char(':')?;
                    v.write(out)?;
                }
                out.write_char('}')
            }
        }
    }

    // ---- parsing --------------------------------------------------------

    /// Parses one JSON document, requiring the whole input be consumed
    /// (trailing whitespace allowed).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::at("trailing characters", p.pos));
        }
        Ok(v)
    }
}

/// Compact JSON (no whitespace), serde_json byte-compatible for the values
/// this workspace writes; `to_string()` comes from here.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f)
    }
}

/// Formats a float the way serde_json's Ryū-based serializer did: finite
/// whole values keep a trailing `.0`; non-finite values become `null`;
/// everything else uses Rust's shortest-round-trip formatting.
fn write_f64(x: f64, out: &mut impl fmt::Write) -> fmt::Result {
    if !x.is_finite() {
        out.write_str("null")
    } else if x == x.trunc() && x.abs() < 1e16 {
        write!(out, "{x:.1}")
    } else {
        write!(out, "{x}")
    }
}

/// Writes `s` as a JSON string, copying each run of characters that need
/// no escape in one write.
fn write_escaped(s: &str, out: &mut impl fmt::Write) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    for (i, c) in s.char_indices() {
        let escape = match c {
            '"' => "\\\"",
            '\\' => "\\\\",
            '\n' => "\\n",
            '\r' => "\\r",
            '\t' => "\\t",
            '\u{8}' => "\\b",
            '\u{c}' => "\\f",
            c if (c as u32) < 0x20 => "",
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        run = i + c.len_utf8();
        if escape.is_empty() {
            write!(out, "\\u{:04x}", c as u32)?;
        } else {
            out.write_str(escape)?;
        }
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(
                format!("expected `{}`", char::from(b)),
                self.pos,
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(JsonError::at(format!("expected `{word}`"), self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::at("nesting too deep", self.pos));
        }
        match self.peek() {
            None => Err(JsonError::at("unexpected end of input", self.pos)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(b) => Err(JsonError::at(
                format!("unexpected character `{}`", char::from(b)),
                self.pos,
            )),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(JsonError::at("expected `,` or `]`", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(JsonError::at("expected `,` or `}`", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // Input is valid UTF-8 (it's a &str) and we only stopped on
                // ASCII boundaries, so this slice is valid UTF-8.
                out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
            }
            match self.peek() {
                None => return Err(JsonError::at("unterminated string", self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => {
                    return Err(JsonError::at("control character in string", self.pos));
                }
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let b = self
            .peek()
            .ok_or_else(|| JsonError::at("unterminated escape", self.pos))?;
        self.pos += 1;
        match b {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let c = if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: require a low surrogate pair.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(JsonError::at("invalid low surrogate", self.pos));
                        }
                        let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        char::from_u32(code)
                            .ok_or_else(|| JsonError::at("invalid surrogate pair", self.pos))?
                    } else {
                        return Err(JsonError::at("unpaired surrogate", self.pos));
                    }
                } else {
                    char::from_u32(hi)
                        .ok_or_else(|| JsonError::at("invalid \\u escape", self.pos))?
                };
                out.push(c);
            }
            _ => return Err(JsonError::at("invalid escape character", self.pos - 1)),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| JsonError::at("truncated \\u escape", self.pos))?;
            let d = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a') as u32 + 10,
                b'A'..=b'F' => (b - b'A') as u32 + 10,
                _ => return Err(JsonError::at("invalid hex digit in \\u escape", self.pos)),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: one digit, or a nonzero digit followed by more.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(JsonError::at("invalid number", self.pos)),
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(JsonError::at("digit required after `.`", self.pos));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(JsonError::at("digit required in exponent", self.pos));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if integral {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError::at("unparseable number", start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for (txt, v) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("0", Json::Int(0)),
            ("-7", Json::Int(-7)),
            ("10.0", Json::Num(10.0)),
            ("0.5", Json::Num(0.5)),
            ("-0.25", Json::Num(-0.25)),
            ("\"hi\"", Json::Str("hi".into())),
        ] {
            assert_eq!(Json::parse(txt).unwrap(), v, "{txt}");
            assert_eq!(v.to_string(), txt, "{txt}");
        }
    }

    #[test]
    fn int_vs_float_literal_distinction() {
        assert_eq!(Json::parse("3").unwrap(), Json::Int(3));
        assert_eq!(Json::parse("3.0").unwrap(), Json::Num(3.0));
        assert_eq!(Json::parse("3e0").unwrap(), Json::Num(3.0));
        // Beyond i64: still a number, not an error.
        assert!(matches!(
            Json::parse("99999999999999999999").unwrap(),
            Json::Num(_)
        ));
    }

    #[test]
    fn float_formatting_matches_serde_json() {
        // serde_json (Ryū) prints whole floats with a trailing .0 and keeps
        // shortest-round-trip digits otherwise.
        for (x, expect) in [
            (10.0, "10.0"),
            (0.5, "0.5"),
            (-2.0, "-2.0"),
            (0.1, "0.1"),
            (1.0 / 3.0, "0.3333333333333333"),
            (35.5, "35.5"),
        ] {
            assert_eq!(Json::Num(x).to_string(), expect);
        }
    }

    #[test]
    fn every_finite_float_roundtrips_exactly() {
        let mut g = crate::rng::Xoshiro256::seed_from(99);
        use crate::rng::Rng;
        for _ in 0..20_000 {
            let x = f64::from_bits(g.next_u64());
            if !x.is_finite() {
                continue;
            }
            let s = Json::Num(x).to_string();
            let back = Json::parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {s} -> {back}");
        }
    }

    #[test]
    fn nonfinite_serializes_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "a\"b\\c\nd\te\u{8}\u{c}\r\u{1}ünicode🎉";
        let written = Json::Str(s.into()).to_string();
        assert_eq!(Json::parse(&written).unwrap(), Json::Str(s.into()));
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(
            Json::parse("\"\\u0041\\u00e9\\ud83c\\udf89\"").unwrap(),
            Json::Str("Aé🎉".into())
        );
        assert!(Json::parse("\"\\ud83c\"").is_err(), "unpaired surrogate");
    }

    #[test]
    fn nested_structures_roundtrip() {
        let v = Json::object(vec![
            ("a", Json::Array(vec![Json::Int(1), Json::Num(2.5)])),
            ("b", Json::object(vec![("c", Json::Null)])),
        ]);
        let s = v.to_string();
        assert_eq!(s, "{\"a\":[1,2.5],\"b\":{\"c\":null}}");
        assert_eq!(Json::parse(&s).unwrap(), v);
    }

    #[test]
    fn object_accessors() {
        let v = Json::parse("{\"x\":1,\"y\":\"z\"}").unwrap();
        assert_eq!(v.get("x").unwrap().as_i64(), Some(1));
        assert_eq!(v.field("y").unwrap().as_str(), Some("z"));
        assert!(v.field("missing").is_err());
        assert!(v.expect_f64("v").is_err());
        assert_eq!(v.get("x").unwrap().expect_u32("x").unwrap(), 1);
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "",
            "{",
            "[",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "01",
            "1.",
            "1e",
            "+1",
            "nul",
            "tru",
            "\"",
            "\"\\q\"",
            "[1 2]",
            "{1:2}",
            "1 2",
            "--1",
            "\"\\u12\"",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn parse_accepts_whitespace() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] }\n").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn deep_nesting_is_rejected_not_crashed() {
        let deep = "[".repeat(10_000);
        assert!(Json::parse(&deep).is_err());
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn duplicate_keys_first_wins_on_get() {
        let v = Json::parse("{\"a\":1,\"a\":2}").unwrap();
        assert_eq!(v.get("a").unwrap().as_i64(), Some(1));
    }
}
