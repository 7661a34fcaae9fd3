//! The binary columnar batch frame — `ddn-serve`'s high-throughput
//! ingest encoding (DESIGN.md §14).
//!
//! JSON stays the debug/compat protocol; this frame exists because the
//! ingest hot path of a production-scale evaluation pipeline should not
//! spend itself parsing text. A frame carries one `ingest` batch for
//! one session as contiguous little-endian columns (features, decisions,
//! rewards, propensities), so decoding is bounds checks plus `memcpy`,
//! and it decodes to the *same* [`Request::Ingest`] the JSON verb
//! produces — bit-identical estimates are a test, not an aspiration.
//!
//! ## Byte layout (everything little-endian)
//!
//! ```text
//! magic      4B   DB 44 4E 31           ("\xDB" "DN1")
//! body_len   4B   u32, length of body below (crc excluded)
//! body:
//!   flags        u16   bit0 seq, bit1 id, bit2 propensity,
//!                      bit3 state, bit4 timestamp
//!   session_len  u16
//!   n_rows       u32
//!   n_features   u16
//!   kinds        n_features × u8    0 = categorical, 1 = numeric
//!   session      session_len bytes of UTF-8
//!   seq          u64               present iff flags bit0
//!   id           u64               present iff flags bit1
//!   timestamps   n_rows × f64      present iff flags bit4; NaN = absent
//!   features     n_features × n_rows × f64, column-major
//!                                  (categorical codes stored as f64)
//!   decisions    n_rows × u32
//!   rewards      n_rows × f64
//!   propensities n_rows × f64      present iff flags bit2; NaN = absent
//!   states       n_rows × u32      present iff flags bit3; u32::MAX = absent
//! crc        8B   u64, FNV-1a 64 over body
//! ```
//!
//! The first magic byte (0xDB) can never begin a JSON request line, so
//! the server's framer switches mode on it unambiguously. Optional
//! columns are whole-batch: a column is emitted when *any* record in
//! the batch carries the field, with in-band sentinels (NaN — never a
//! legal reward/propensity/timestamp value — and `u32::MAX`) marking
//! the rows that do not.
//!
//! Like [`Request::from_json`], decoding is structural only: schema
//! conformance (feature count, categorical ranges, propensity bounds)
//! is checked by the engine at ingest, so binary and JSON batches are
//! rejected by the same code with the same errors.

use crate::wal::{fnv1a, MAX_FRAME_BYTES};
use ddn_trace::{Context, Decision, FeatureValue, StateTag, TraceRecord};

/// The 4-byte frame magic. The leading 0xDB is not valid UTF-8 start
/// for any JSON token, making binary/JSON mode detection a 1-byte peek.
pub const FRAME_MAGIC: [u8; 4] = [0xDB, b'D', b'N', b'1'];

/// Bytes before the body: magic (4) + body_len (4).
pub const FRAME_PREFIX_BYTES: usize = 8;

/// Bytes after the body: crc (8).
pub const FRAME_CRC_BYTES: usize = 8;

const FLAG_SEQ: u16 = 1 << 0;
const FLAG_ID: u16 = 1 << 1;
const FLAG_PROPENSITY: u16 = 1 << 2;
const FLAG_STATE: u16 = 1 << 3;
const FLAG_TIMESTAMP: u16 = 1 << 4;

/// A decoded binary batch: everything the decoder needs to build the
/// same `Request::Ingest` the JSON verb would have produced.
#[derive(Debug)]
pub struct BinaryBatch {
    /// Target session name.
    pub session: String,
    /// The decoded records, row order preserved.
    pub records: Vec<TraceRecord>,
    /// Exactly-once sequence number, if the client sent one.
    pub seq: Option<u64>,
    /// Request id for response correlation, if the client sent one.
    pub id: Option<u64>,
}

/// Encodes one ingest batch as a complete frame (magic through crc).
///
/// Fails (rather than silently mis-encoding) when a feature column
/// mixes categorical and numeric values across rows, or when rows have
/// differing feature counts — the columnar layout requires homogeneous
/// columns — or when a record's state tag is `u32::MAX`, the state
/// column's absent sentinel, which would decode as no state. The JSON
/// verb remains available for such batches.
pub fn encode(
    session: &str,
    records: &[TraceRecord],
    seq: Option<u64>,
    id: Option<u64>,
) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    encode_into(&mut out, session, records, seq, id)?;
    Ok(out)
}

/// Appends the frame [`encode`] returns for `records` to `out`, writing
/// each column straight into it. `records` may be any re-iterable
/// sequence — a slice, or a range of a ring buffer. On error `out` is
/// left as it was.
pub(crate) fn encode_into<'a, R>(
    out: &mut Vec<u8>,
    session: &str,
    records: R,
    seq: Option<u64>,
    id: Option<u64>,
) -> Result<(), String>
where
    R: IntoIterator<Item = &'a TraceRecord>,
    R::IntoIter: Clone + ExactSizeIterator,
{
    let records = records.into_iter();
    let n_rows = records.len();
    let first = records.clone().next();
    let n_features = first.map_or(0, |r| r.context.values().len());
    if n_features > u16::MAX as usize {
        return Err(format!(
            "{n_features} features exceed the frame's u16 limit"
        ));
    }
    if n_rows > u32::MAX as usize {
        return Err(format!("{n_rows} rows exceed the frame's u32 limit"));
    }
    if session.len() > u16::MAX as usize {
        return Err(format!(
            "session name of {} bytes exceeds the frame's u16 limit",
            session.len()
        ));
    }
    for (row, r) in records.clone().enumerate() {
        if r.context.values().len() != n_features {
            return Err(format!(
                "row {row} has {} features, row 0 has {n_features}",
                r.context.values().len()
            ));
        }
        if r.state == Some(StateTag(u32::MAX)) {
            return Err(format!(
                "row {row} has state tag {}, the frame's absent sentinel; \
                 use the JSON verb",
                u32::MAX
            ));
        }
    }

    // One kind byte per column, fixed by the first row; reject mixes.
    let kind_of = |v: &FeatureValue| match v {
        FeatureValue::Cat(_) => 0u8,
        FeatureValue::Num(_) => 1u8,
    };
    let kinds: Vec<u8> = first
        .map_or(&[][..], |r| r.context.values())
        .iter()
        .map(kind_of)
        .collect();
    for (col, &kind) in kinds.iter().enumerate() {
        for (row, r) in records.clone().enumerate() {
            if kind_of(&r.context.values()[col]) != kind {
                return Err(format!(
                    "feature column {col} mixes categorical and numeric \
                     values (row 0 vs row {row}); use the JSON verb"
                ));
            }
        }
    }

    let has_propensity = records.clone().any(|r| r.propensity.is_some());
    let has_state = records.clone().any(|r| r.state.is_some());
    let has_timestamp = records.clone().any(|r| r.timestamp.is_some());
    let mut flags = 0u16;
    if seq.is_some() {
        flags |= FLAG_SEQ;
    }
    if id.is_some() {
        flags |= FLAG_ID;
    }
    if has_propensity {
        flags |= FLAG_PROPENSITY;
    }
    if has_state {
        flags |= FLAG_STATE;
    }
    if has_timestamp {
        flags |= FLAG_TIMESTAMP;
    }

    // The cap is checked before a byte is written, from the same size
    // rule `decode` holds headers to.
    let total = implied_body_len(flags, session.len(), n_rows, n_features)
        .and_then(|b| b.checked_add(FRAME_PREFIX_BYTES + FRAME_CRC_BYTES));
    let body_len = match total {
        Some(t) if t <= MAX_FRAME_BYTES => t - FRAME_PREFIX_BYTES - FRAME_CRC_BYTES,
        _ => {
            return Err(format!(
                "frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap; \
                 split the batch",
                total.map_or_else(|| "overflowing".to_string(), |t| t.to_string())
            ))
        }
    };
    out.reserve(FRAME_PREFIX_BYTES + body_len + FRAME_CRC_BYTES);
    let start = out.len();
    out.extend_from_slice(&FRAME_MAGIC);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.extend_from_slice(&flags.to_le_bytes());
    out.extend_from_slice(&(session.len() as u16).to_le_bytes());
    out.extend_from_slice(&(n_rows as u32).to_le_bytes());
    out.extend_from_slice(&(n_features as u16).to_le_bytes());
    out.extend_from_slice(&kinds);
    out.extend_from_slice(session.as_bytes());
    if let Some(s) = seq {
        out.extend_from_slice(&s.to_le_bytes());
    }
    if let Some(i) = id {
        out.extend_from_slice(&i.to_le_bytes());
    }
    if has_timestamp {
        for r in records.clone() {
            out.extend_from_slice(&r.timestamp.unwrap_or(f64::NAN).to_le_bytes());
        }
    }
    for col in 0..n_features {
        for r in records.clone() {
            let x = match r.context.values()[col] {
                FeatureValue::Cat(c) => f64::from(c),
                FeatureValue::Num(x) => x,
            };
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
    for r in records.clone() {
        out.extend_from_slice(&(r.decision.index() as u32).to_le_bytes());
    }
    for r in records.clone() {
        out.extend_from_slice(&r.reward.to_le_bytes());
    }
    if has_propensity {
        for r in records.clone() {
            out.extend_from_slice(&r.propensity.unwrap_or(f64::NAN).to_le_bytes());
        }
    }
    if has_state {
        for r in records.clone() {
            let s = r.state.map_or(u32::MAX, |StateTag(s)| s);
            out.extend_from_slice(&s.to_le_bytes());
        }
    }

    let crc = fnv1a(&out[start + FRAME_PREFIX_BYTES..]);
    out.extend_from_slice(&crc.to_le_bytes());
    debug_assert_eq!(
        out.len() - start,
        FRAME_PREFIX_BYTES + body_len + FRAME_CRC_BYTES
    );
    Ok(())
}

/// The body length a header declares: fixed header, kinds, session,
/// optional scalars, then `n_rows` times the per-row column bytes.
/// `None` if it overflows.
fn implied_body_len(
    flags: u16,
    session_len: usize,
    n_rows: usize,
    n_features: usize,
) -> Option<usize> {
    let opt = |flag: u16, bytes: usize| if flags & flag != 0 { bytes } else { 0 };
    let header = 10 + n_features + session_len + opt(FLAG_SEQ, 8) + opt(FLAG_ID, 8);
    let per_row = opt(FLAG_TIMESTAMP, 8)
        + 8 * n_features
        + 4
        + 8
        + opt(FLAG_PROPENSITY, 8)
        + opt(FLAG_STATE, 4);
    n_rows.checked_mul(per_row)?.checked_add(header)
}

/// A cursor over the body with little-endian scalar reads.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("frame body truncated reading {what}"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u16(&mut self, what: &str) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    fn u32(&mut self, what: &str) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn f64(&mut self, what: &str) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }
}

/// Decodes a complete frame (magic through crc) back into a batch.
///
/// `bytes` must be exactly one frame — the server's framer has already
/// split the stream using the length prefix. Verifies magic, length and
/// crc, then that the header's row count, feature count and column flags
/// imply exactly the body's size — before allocating anything sized from
/// them.
pub fn decode(bytes: &[u8]) -> Result<BinaryBatch, String> {
    if bytes.len() < FRAME_PREFIX_BYTES + FRAME_CRC_BYTES {
        return Err(format!(
            "frame of {} bytes is shorter than its header",
            bytes.len()
        ));
    }
    if bytes[..4] != FRAME_MAGIC {
        return Err(format!(
            "bad frame magic {:02x}{:02x}{:02x}{:02x}",
            bytes[0], bytes[1], bytes[2], bytes[3]
        ));
    }
    let body_len = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
    if bytes.len() != FRAME_PREFIX_BYTES + body_len + FRAME_CRC_BYTES {
        return Err(format!(
            "frame declares a {body_len}-byte body but carries {} bytes total",
            bytes.len()
        ));
    }
    let body = &bytes[FRAME_PREFIX_BYTES..FRAME_PREFIX_BYTES + body_len];
    let crc = u64::from_le_bytes(bytes[FRAME_PREFIX_BYTES + body_len..].try_into().unwrap());
    let computed = fnv1a(body);
    if crc != computed {
        return Err(format!(
            "frame crc mismatch: stored {crc:#018x}, computed {computed:#018x}"
        ));
    }

    let mut c = Cursor { buf: body, pos: 0 };
    let flags = c.u16("flags")?;
    let session_len = c.u16("session_len")? as usize;
    let n_rows = c.u32("n_rows")? as usize;
    let n_features = c.u16("n_features")? as usize;
    // Every allocation below is sized from this header, which the crc
    // does not authenticate: hold its claims to the bytes that arrived
    // before allocating anything.
    let implied = implied_body_len(flags, session_len, n_rows, n_features);
    if implied != Some(body.len()) {
        return Err(format!(
            "frame header ({n_rows} rows, {n_features} features, flags {flags:#06x}) \
             implies a body of {} bytes, but the body has {}",
            implied.map_or_else(|| "overflowing".to_string(), |n| n.to_string()),
            body.len()
        ));
    }
    let kinds = c.take(n_features, "feature kinds")?.to_vec();
    for (col, k) in kinds.iter().enumerate() {
        if *k > 1 {
            return Err(format!("feature column {col} has unknown kind byte {k}"));
        }
    }
    let session = std::str::from_utf8(c.take(session_len, "session")?)
        .map_err(|e| format!("session name is not UTF-8: {e}"))?
        .to_string();
    let seq = if flags & FLAG_SEQ != 0 {
        Some(c.u64("seq")?)
    } else {
        None
    };
    let id = if flags & FLAG_ID != 0 {
        Some(c.u64("id")?)
    } else {
        None
    };
    let timestamps = if flags & FLAG_TIMESTAMP != 0 {
        let mut v = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            v.push(c.f64("timestamp")?);
        }
        Some(v)
    } else {
        None
    };
    // Columns arrive column-major; build row-major values directly.
    let mut values: Vec<Vec<FeatureValue>> = (0..n_rows)
        .map(|_| Vec::with_capacity(n_features))
        .collect();
    for kind in &kinds {
        for row in values.iter_mut() {
            let x = c.f64("feature")?;
            row.push(match kind {
                0 => {
                    if !(x.is_finite() && x >= 0.0 && x <= f64::from(u32::MAX) && x.fract() == 0.0)
                    {
                        return Err(format!("categorical code {x} is not an exact u32"));
                    }
                    FeatureValue::Cat(x as u32)
                }
                _ => FeatureValue::Num(x),
            });
        }
    }
    let mut decisions = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        decisions.push(c.u32("decision")?);
    }
    let mut rewards = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        rewards.push(c.f64("reward")?);
    }
    let propensities = if flags & FLAG_PROPENSITY != 0 {
        let mut v = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            v.push(c.f64("propensity")?);
        }
        Some(v)
    } else {
        None
    };
    let states = if flags & FLAG_STATE != 0 {
        let mut v = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            v.push(c.u32("state")?);
        }
        Some(v)
    } else {
        None
    };
    let mut records = Vec::with_capacity(n_rows);
    for (row, vals) in values.into_iter().enumerate() {
        records.push(TraceRecord {
            context: Context::from_wire_values(vals),
            decision: Decision::from_index(decisions[row] as usize),
            reward: rewards[row],
            propensity: propensities
                .as_ref()
                .map(|p| p[row])
                .filter(|p| !p.is_nan()),
            state: states
                .as_ref()
                .map(|s| s[row])
                .filter(|&s| s != u32::MAX)
                .map(StateTag),
            timestamp: timestamps.as_ref().map(|t| t[row]).filter(|t| !t.is_nan()),
        });
    }
    Ok(BinaryBatch {
        session,
        records,
        seq,
        id,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddn_trace::ContextSchema;

    fn schema() -> ContextSchema {
        ContextSchema::builder()
            .categorical("g", 4)
            .numeric("x")
            .build()
    }

    fn sample(n: usize) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| {
                let c = Context::build(&schema())
                    .set_cat("g", (i % 4) as u32)
                    .set_numeric("x", 0.5 + i as f64)
                    .finish();
                let mut r = TraceRecord::new(c, Decision::from_index(i % 3), i as f64 * 0.25)
                    .with_propensity(0.5);
                if i % 2 == 0 {
                    r = r.with_state(StateTag(i as u32));
                }
                r
            })
            .collect()
    }

    #[test]
    fn round_trip_preserves_every_field_bit_for_bit() {
        let records = sample(17);
        let bytes = encode("sess", &records, Some(9), Some(1234)).unwrap();
        let batch = decode(&bytes).unwrap();
        assert_eq!(batch.session, "sess");
        assert_eq!(batch.seq, Some(9));
        assert_eq!(batch.id, Some(1234));
        assert_eq!(batch.records.len(), records.len());
        for (a, b) in records.iter().zip(&batch.records) {
            assert_eq!(a.to_json().to_string(), b.to_json().to_string());
            assert_eq!(a.reward.to_bits(), b.reward.to_bits());
        }
    }

    #[test]
    fn optional_columns_are_omitted_when_absent() {
        let no_seq = encode("s", &sample(8), None, None).unwrap();
        let with_seq = encode("s", &sample(8), Some(0), Some(0)).unwrap();
        assert_eq!(
            with_seq.len() - no_seq.len(),
            16,
            "seq + id are 8 bytes each"
        );
        let batch = decode(&no_seq).unwrap();
        assert_eq!(batch.seq, None);
        assert_eq!(batch.id, None);
    }

    #[test]
    fn golden_byte_layout_is_pinned() {
        // One row, one numeric feature, no optional columns: the exact
        // bytes are part of the wire contract (DESIGN.md §14). Breaking
        // this test means old clients cannot talk to new servers.
        let c = Context::from_wire_values(vec![FeatureValue::Num(1.5)]);
        let rec = TraceRecord {
            context: c,
            decision: Decision::from_index(2),
            reward: -0.5,
            propensity: None,
            state: None,
            timestamp: None,
        };
        let bytes = encode("ab", std::slice::from_ref(&rec), None, None).unwrap();
        let mut expect = vec![
            0xDB, b'D', b'N', b'1', // magic
            33, 0, 0, 0, // body_len = 2+2+4+2+1+2 + 8 + 4 + 8 = 33
            0, 0, // flags: nothing optional
            2, 0, // session_len
            1, 0, 0, 0, // n_rows
            1, 0, // n_features
            1, // kind: numeric
            b'a', b'b', // session
        ];
        expect.extend_from_slice(&1.5f64.to_le_bytes()); // feature col
        expect.extend_from_slice(&2u32.to_le_bytes()); // decision
        expect.extend_from_slice(&(-0.5f64).to_le_bytes()); // reward
        expect.extend_from_slice(&fnv1a(&expect[8..]).to_le_bytes());
        assert_eq!(bytes, expect);
    }

    #[test]
    fn corruption_is_rejected_at_every_layer() {
        let good = encode("s", &sample(5), Some(1), None).unwrap();

        let mut bad_magic = good.clone();
        bad_magic[1] = b'X';
        assert!(decode(&bad_magic).unwrap_err().contains("magic"));

        let mut bad_crc = good.clone();
        *bad_crc.last_mut().unwrap() ^= 0x01;
        assert!(decode(&bad_crc).unwrap_err().contains("crc"));

        // A bit flip anywhere in the body trips the crc.
        let mut flipped = good.clone();
        let mid = FRAME_PREFIX_BYTES + 10;
        flipped[mid] ^= 0x80;
        assert!(decode(&flipped).unwrap_err().contains("crc"));

        let truncated = &good[..good.len() - 3];
        assert!(decode(truncated).unwrap_err().contains("body"));

        assert!(decode(&good[..6]).unwrap_err().contains("shorter"));
    }

    /// Wraps `body` in a frame with a matching length prefix and a valid
    /// crc — the checksum authenticates nothing, so only the header's
    /// own claims can be caught.
    fn forge(body: &[u8]) -> Vec<u8> {
        let mut frame = FRAME_MAGIC.to_vec();
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(body);
        frame.extend_from_slice(&fnv1a(body).to_le_bytes());
        frame
    }

    #[test]
    fn lying_headers_are_refused_before_allocating() {
        // 26 bytes claiming 2^32-1 rows: allocating from the header alone
        // would ask for ~100 GB and abort the process.
        let mut body = vec![0, 0, 0, 0]; // flags, session_len
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        body.extend_from_slice(&0u16.to_le_bytes());
        let frame = forge(&body);
        assert_eq!(frame.len(), 26);
        let err = decode(&frame).unwrap_err();
        assert!(err.contains("implies"), "{err}");

        // Every size-bearing header field of an honest frame, lied about
        // (offsets into the body: flags 0, n_rows 4, n_features 8).
        let honest = encode("s", &sample(4), Some(1), None).unwrap();
        let body = &honest[FRAME_PREFIX_BYTES..honest.len() - FRAME_CRC_BYTES];
        let mut lies: Vec<Vec<u8>> = Vec::new();
        for rows in [0u32, 3, 5, u32::MAX] {
            let mut b = body.to_vec();
            b[4..8].copy_from_slice(&rows.to_le_bytes());
            lies.push(b);
        }
        for features in [0u16, 1, 3, u16::MAX] {
            let mut b = body.to_vec();
            b[8..10].copy_from_slice(&features.to_le_bytes());
            lies.push(b);
        }
        // Each optional-column flag, toggled: the header then claims a
        // column the body lacks, or disowns one it carries.
        for flag in [
            FLAG_SEQ,
            FLAG_ID,
            FLAG_PROPENSITY,
            FLAG_STATE,
            FLAG_TIMESTAMP,
        ] {
            let mut b = body.to_vec();
            let flags = u16::from_le_bytes([b[0], b[1]]) ^ flag;
            b[0..2].copy_from_slice(&flags.to_le_bytes());
            lies.push(b);
        }
        for lie in &lies {
            let err = decode(&forge(lie)).unwrap_err();
            assert!(err.contains("implies"), "{err}");
        }
        assert!(
            decode(&forge(body)).is_ok(),
            "the honest body still decodes"
        );
    }

    #[test]
    fn mixed_kind_columns_are_refused_at_encode_time() {
        let a = TraceRecord::new(
            Context::from_wire_values(vec![FeatureValue::Cat(1)]),
            Decision::from_index(0),
            1.0,
        );
        let b = TraceRecord::new(
            Context::from_wire_values(vec![FeatureValue::Num(1.0)]),
            Decision::from_index(0),
            1.0,
        );
        let err = encode("s", &[a, b], None, None).unwrap_err();
        assert!(err.contains("mixes"), "{err}");
    }

    #[test]
    fn ragged_rows_are_refused_at_encode_time() {
        let a = TraceRecord::new(
            Context::from_wire_values(vec![FeatureValue::Num(1.0)]),
            Decision::from_index(0),
            1.0,
        );
        let b = TraceRecord::new(
            Context::from_wire_values(vec![FeatureValue::Num(1.0), FeatureValue::Num(2.0)]),
            Decision::from_index(0),
            1.0,
        );
        let err = encode("s", &[a, b], None, None).unwrap_err();
        assert!(err.contains("features"), "{err}");
    }

    #[test]
    fn the_absent_state_sentinel_is_refused_at_encode_time() {
        let mk = |state| TraceRecord {
            state,
            ..TraceRecord::new(
                Context::from_wire_values(vec![FeatureValue::Num(1.0)]),
                Decision::from_index(0),
                1.0,
            )
        };
        let records = [mk(Some(StateTag(3))), mk(Some(StateTag(u32::MAX)))];
        let err = encode("s", &records, None, None).unwrap_err();
        assert!(err.contains("row 1") && err.contains("sentinel"), "{err}");
    }

    #[test]
    fn empty_batch_round_trips() {
        let bytes = encode("empty", &[], Some(3), None).unwrap();
        let batch = decode(&bytes).unwrap();
        assert_eq!(batch.session, "empty");
        assert_eq!(batch.seq, Some(3));
        assert!(batch.records.is_empty());
    }

    #[test]
    fn nan_sentinels_survive_partial_optional_columns() {
        // Batch where only SOME rows carry propensity/state/timestamp:
        // the column is emitted with sentinels and absent fields come
        // back as None, not as NaN values.
        let mk = |p: Option<f64>, t: Option<f64>| TraceRecord {
            context: Context::from_wire_values(vec![FeatureValue::Num(0.0)]),
            decision: Decision::from_index(0),
            reward: 1.0,
            propensity: p,
            state: None,
            timestamp: t,
        };
        let records = vec![mk(Some(0.25), None), mk(None, Some(7.5))];
        let batch = decode(&encode("s", &records, None, None).unwrap()).unwrap();
        assert_eq!(batch.records[0].propensity, Some(0.25));
        assert_eq!(batch.records[1].propensity, None);
        assert_eq!(batch.records[0].timestamp, None);
        assert_eq!(batch.records[1].timestamp, Some(7.5));
    }
}
