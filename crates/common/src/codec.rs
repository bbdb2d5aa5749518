//! Compact binary wire format for values and rows.
//!
//! The encoded size is the unit of account for every byte the network
//! simulator transfers, so the format is deliberately simple and its sizes
//! are specified exactly by [`Value::wire_size`]:
//!
//! | value   | encoding                                  | bytes       |
//! |---------|-------------------------------------------|-------------|
//! | `Null`  | tag `0`                                   | 1           |
//! | `Bool`  | tag `1`, `0/1`                            | 2           |
//! | `Int`   | tag `2`, little-endian i64                | 9           |
//! | `Float` | tag `3`, little-endian f64 bits           | 9           |
//! | `Str`   | tag `4`, u32 length, UTF-8 bytes          | 5 + len     |
//! | `Blob`  | tag `5`, u32 length, raw bytes            | 5 + len     |
//!
//! Rows are encoded as a u32 column count followed by each value; see
//! [`encode_row`].
//!
//! # Zero-copy decoding
//!
//! A [`Decoder`] built with [`Decoder::shared`] decodes `Str` and `Blob`
//! values as *views* into the shared message buffer instead of copying
//! their payloads: the decoded [`Value`] keeps the whole message alive via
//! its `Arc` and borrows the payload slice. See DESIGN.md §3 for the
//! invariants. [`Decoder::new`] keeps the old copying behavior for callers
//! that only have a borrowed `&[u8]`.

use std::ops::Range;
use std::sync::Arc;

use crate::batch::RowBatch;
use crate::error::{CsqError, Result};
use crate::lane::Lane;
use crate::row::Row;
use crate::value::{Blob, Str, Value};

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_BLOB: u8 = 5;

/// Append the encoding of `v` to `out`.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Blob(b) => {
            out.push(TAG_BLOB);
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            out.extend_from_slice(b.as_bytes());
        }
    }
}

/// A cursor over encoded bytes.
///
/// Built with [`Decoder::new`] it copies string/blob payloads out of the
/// input; built with [`Decoder::shared`] it decodes them as zero-copy views
/// of the shared buffer.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    /// When present, `buf` is exactly `&shared[..]` and decoded `Str`/`Blob`
    /// values are constructed as views into this allocation.
    shared: Option<Arc<Vec<u8>>>,
}

impl<'a> Decoder<'a> {
    /// Start decoding at the beginning of `buf` (copying decode).
    pub fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder {
            buf,
            pos: 0,
            shared: None,
        }
    }

    /// Start a zero-copy decode over a shared message buffer. Decoded
    /// `Str`/`Blob` values borrow slices of `buf` (keeping it alive via the
    /// `Arc`) instead of copying their payloads.
    pub fn shared(buf: &'a Arc<Vec<u8>>) -> Decoder<'a> {
        Decoder {
            buf: &buf[..],
            pos: 0,
            shared: Some(Arc::clone(buf)),
        }
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(CsqError::Codec(format!(
                "unexpected end of input: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one raw byte (exposed for higher-level protocols that embed
    /// their own tags alongside codec values).
    pub fn take_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a raw little-endian u32.
    pub fn take_u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a raw little-endian u64.
    pub fn take_u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Read `n` raw bytes.
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Bytes left to decode.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Read a u32 element count and validate it against the remaining
    /// input (each element needs at least `min_bytes_each` bytes), so a
    /// corrupted count cannot trigger a huge allocation.
    pub fn take_count(&mut self, min_bytes_each: usize) -> Result<usize> {
        let n = self.take_u32()? as usize;
        let need = n.saturating_mul(min_bytes_each.max(1));
        if need > self.remaining() {
            return Err(CsqError::Codec(format!(
                "count {n} impossible: needs ≥{need} bytes, {} remain",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Decode one value.
    pub fn value(&mut self) -> Result<Value> {
        match self.take_u8()? {
            TAG_NULL => Ok(Value::Null),
            TAG_BOOL => match self.take_u8()? {
                0 => Ok(Value::Bool(false)),
                1 => Ok(Value::Bool(true)),
                other => Err(CsqError::Codec(format!("invalid bool byte {other}"))),
            },
            TAG_INT => Ok(Value::Int(self.take_u64()? as i64)),
            TAG_FLOAT => Ok(Value::Float(f64::from_bits(self.take_u64()?))),
            TAG_STR => {
                let len = self.take_u32()? as usize;
                let start = self.pos;
                let bytes = self.take(len)?;
                match &self.shared {
                    Some(arc) => Ok(Value::Str(Str::from_shared(Arc::clone(arc), start, len)?)),
                    None => {
                        let s = std::str::from_utf8(bytes).map_err(|e| {
                            CsqError::Codec(format!("invalid UTF-8 in string: {e}"))
                        })?;
                        Ok(Value::from(s))
                    }
                }
            }
            TAG_BLOB => {
                let len = self.take_u32()? as usize;
                let start = self.pos;
                let bytes = self.take(len)?;
                match &self.shared {
                    Some(arc) => Ok(Value::Blob(Blob::from_shared(Arc::clone(arc), start, len)?)),
                    None => Ok(Value::Blob(Blob::new(bytes.to_vec()))),
                }
            }
            tag => Err(CsqError::Codec(format!("unknown value tag {tag}"))),
        }
    }

    /// Decode one row (u32 column count, then values).
    pub fn row(&mut self) -> Result<Row> {
        let n = self.take_count(1)?;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(self.value()?);
        }
        Ok(Row::new(values))
    }
}

/// Append the encoding of `row` to `out`. Size is `4 + row.wire_size()`.
pub fn encode_row(row: &Row, out: &mut Vec<u8>) {
    encode_row_values(row.values(), out);
}

/// Append `values` encoded as the row they make up, exactly as
/// [`encode_row`] writes it.
fn encode_row_values(values: &[Value], out: &mut Vec<u8>) {
    out.extend_from_slice(&(values.len() as u32).to_le_bytes());
    for v in values {
        encode_value(v, out);
    }
}

/// Encode a batch of rows (u32 count then rows); the message payloads the
/// shipping strategies put on the wire. Preallocates the exact output size
/// (each row's [`row_encoded_size`]) so large batches encode without
/// reallocation.
pub fn encode_rows(rows: &[Row], out: &mut Vec<u8>) {
    encode_rows_iter(rows.iter().map(Row::values), out);
}

/// Like [`encode_rows`] but over each row's values, borrowed from any
/// exactly-sized iterator (lets senders encode argument tuples they keep
/// in place of rows). Produces byte-identical output to `encode_rows` on
/// the same rows.
pub fn encode_rows_iter<'r, I>(rows: I, out: &mut Vec<u8>)
where
    I: ExactSizeIterator<Item = &'r [Value]> + Clone,
{
    let values_size = |r: &[Value]| 4 + r.iter().map(Value::wire_size).sum::<usize>();
    out.reserve(4 + rows.clone().map(values_size).sum::<usize>());
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for r in rows {
        encode_row_values(r, out);
    }
}

/// Append the rows at `positions` of `batch`, each exactly as
/// [`encode_row`] writes it, without building a row of a lane-backed batch:
/// each value is written from its lane (a dictionary string from its entry).
pub fn encode_batch_rows(batch: &RowBatch, positions: Range<usize>, out: &mut Vec<u8>) {
    let Some((lanes, sel)) = batch.lanes() else {
        for r in &batch.rows()[positions] {
            encode_row(r, out);
        }
        return;
    };
    let width = (lanes.len() as u32).to_le_bytes();
    out.reserve(positions.len() * (width.len() + 9 * lanes.len()));
    for p in positions {
        let i = sel.ordinal(p);
        out.extend_from_slice(&width);
        for lane in lanes {
            encode_lane_value(lane, i, out);
        }
    }
}

/// Append the encoding of `lane.value(i)`.
fn encode_lane_value(lane: &Lane, i: usize, out: &mut Vec<u8>) {
    match lane {
        Lane::Int { nulls, .. } | Lane::Float { nulls, .. } | Lane::Bool { nulls, .. }
            if nulls.get(i) =>
        {
            out.push(TAG_NULL)
        }
        Lane::Int { values, .. } => {
            out.push(TAG_INT);
            out.extend_from_slice(&values.get(i).to_le_bytes());
        }
        Lane::Float { values, .. } => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&values[i].to_bits().to_le_bytes());
        }
        Lane::Bool { values, .. } => {
            out.push(TAG_BOOL);
            out.push(u8::from(values[i]));
        }
        Lane::StrDict { dict, codes } => match dict.get(codes[i] as usize) {
            Some(s) => {
                out.push(TAG_STR);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            None => out.push(TAG_NULL),
        },
        Lane::Values(values) => encode_value(&values[i], out),
    }
}

fn decode_rows_with(d: &mut Decoder<'_>, total_len: usize) -> Result<Vec<Row>> {
    // Each row needs at least its 4-byte column count.
    let n = d.take_count(4)?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        rows.push(d.row()?);
    }
    if !d.is_exhausted() {
        return Err(CsqError::Codec(format!(
            "{} trailing bytes after rows",
            total_len - d.position()
        )));
    }
    Ok(rows)
}

/// Decode a batch of rows encoded by [`encode_rows`], copying payloads.
pub fn decode_rows(buf: &[u8]) -> Result<Vec<Row>> {
    decode_rows_with(&mut Decoder::new(buf), buf.len())
}

/// Decode a batch of rows as zero-copy views into the shared message
/// buffer: every decoded `Str`/`Blob` borrows its payload from `buf`.
pub fn decode_rows_shared(buf: &Arc<Vec<u8>>) -> Result<Vec<Row>> {
    decode_rows_with(&mut Decoder::shared(buf), buf.len())
}

/// Exact encoded size of a row including its count prefix.
pub fn row_encoded_size(row: &Row) -> usize {
    4 + row.wire_size()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: Value) {
        let mut buf = Vec::new();
        encode_value(&v, &mut buf);
        assert_eq!(buf.len(), v.wire_size(), "wire_size contract for {v:?}");
        let mut d = Decoder::new(&buf);
        assert_eq!(d.value().unwrap(), v);
        assert!(d.is_exhausted());
        // The shared decoder must agree value-for-value.
        let arc = Arc::new(buf);
        let mut d = Decoder::shared(&arc);
        assert_eq!(d.value().unwrap(), v);
        assert!(d.is_exhausted());
    }

    #[test]
    fn value_roundtrips() {
        roundtrip(Value::Null);
        roundtrip(Value::Bool(true));
        roundtrip(Value::Bool(false));
        roundtrip(Value::Int(-12345));
        roundtrip(Value::Float(3.25));
        roundtrip(Value::Float(f64::NAN));
        roundtrip(Value::from("héllo"));
        roundtrip(Value::Blob(Blob::synthetic(1000, 9)));
        roundtrip(Value::Blob(Blob::new(vec![])));
    }

    #[test]
    fn row_roundtrip_and_size() {
        let row = Row::new(vec![Value::Int(1), Value::from("x"), Value::Null]);
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        assert_eq!(buf.len(), row_encoded_size(&row));
        let mut d = Decoder::new(&buf);
        assert_eq!(d.row().unwrap(), row);
    }

    #[test]
    fn rows_batch_roundtrip() {
        let rows = vec![
            Row::new(vec![Value::Int(1)]),
            Row::new(vec![Value::Int(2)]),
            Row::new(vec![Value::Blob(Blob::synthetic(64, 3))]),
        ];
        let mut buf = Vec::new();
        encode_rows(&rows, &mut buf);
        assert_eq!(decode_rows(&buf).unwrap(), rows);
    }

    #[test]
    fn encode_rows_iter_matches_encode_rows() {
        let rows = vec![
            Row::new(vec![Value::Int(1), Value::from("abc")]),
            Row::new(vec![Value::Blob(Blob::synthetic(16, 5)), Value::Null]),
        ];
        let mut a = Vec::new();
        encode_rows(&rows, &mut a);
        let mut b = Vec::new();
        encode_rows_iter(rows.iter().map(Row::values), &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn shared_decode_is_zero_copy() {
        let rows = vec![Row::new(vec![
            Value::from("ticker"),
            Value::Blob(Blob::synthetic(128, 1)),
            Value::Int(7),
        ])];
        let mut buf = Vec::new();
        encode_rows(&rows, &mut buf);
        let arc = Arc::new(buf);
        let decoded = decode_rows_shared(&arc).unwrap();
        assert_eq!(decoded, rows);
        // Str and Blob payloads are views into the message allocation.
        let Value::Str(s) = decoded[0].value(0) else {
            panic!("expected Str")
        };
        assert!(s.backed_by(&arc));
        assert!(decoded[0].value(1).as_blob().unwrap().backed_by(&arc));
    }

    #[test]
    fn truncated_input_errors() {
        let mut buf = Vec::new();
        encode_value(&Value::Int(7), &mut buf);
        buf.truncate(5);
        let mut d = Decoder::new(&buf);
        assert_eq!(d.value().unwrap_err().kind(), "codec");
    }

    #[test]
    fn bad_tag_errors() {
        let mut d = Decoder::new(&[99]);
        assert_eq!(d.value().unwrap_err().kind(), "codec");
    }

    #[test]
    fn trailing_bytes_rejected() {
        let rows = vec![Row::new(vec![Value::Int(1)])];
        let mut buf = Vec::new();
        encode_rows(&rows, &mut buf);
        buf.push(0);
        assert_eq!(decode_rows(&buf).unwrap_err().kind(), "codec");
        let arc = Arc::new(buf);
        assert_eq!(decode_rows_shared(&arc).unwrap_err().kind(), "codec");
    }
}
