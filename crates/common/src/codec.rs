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
use crate::lane::{Lane, NullBitmap};
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

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Read `n` raw bytes.
    #[inline]
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        let bytes = self.buf[self.pos..]
            .get(..n)
            .ok_or_else(|| self.short(self.pos, n))?;
        self.pos += n;
        Ok(bytes)
    }

    #[inline]
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let bytes = self.buf[self.pos..]
            .first_chunk()
            .ok_or_else(|| self.short(self.pos, N))?;
        self.pos += N;
        Ok(*bytes)
    }

    /// The error of a value that needs `need` bytes at `pos` and is cut off.
    #[cold]
    fn short(&self, pos: usize, need: usize) -> CsqError {
        CsqError::Codec(format!(
            "unexpected end of input: need {need} bytes at offset {pos}, have {}",
            self.buf.len() - pos
        ))
    }

    /// Read one raw byte (exposed for higher-level protocols that embed
    /// their own tags alongside codec values).
    pub fn take_u8(&mut self) -> Result<u8> {
        Ok(self.take_array::<1>()?[0])
    }

    /// Read a raw little-endian u32.
    #[inline]
    pub fn take_u32(&mut self) -> Result<u32> {
        self.take_array().map(u32::from_le_bytes)
    }

    /// Read a raw little-endian u64.
    pub fn take_u64(&mut self) -> Result<u64> {
        self.take_array().map(u64::from_le_bytes)
    }

    /// Bytes left to decode.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Read a u32 element count and validate it against the remaining
    /// input (each element needs at least `min_bytes_each` bytes), so a
    /// corrupted count cannot trigger a huge allocation.
    #[inline]
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

    /// Decode one row (u32 column count, then values).
    pub fn row(&mut self) -> Result<Row> {
        self.row_with(0)
    }

    /// Decode the body of a row frame: a u32 row count, then each row as
    /// [`row`](Self::row) reads it. Each row has room for `spare` more
    /// values, so a caller that extends the rows does not reallocate them.
    pub fn rows(&mut self, spare: usize) -> Result<Vec<Row>> {
        // Each row needs at least its 4-byte column count.
        let n = self.take_count(4)?;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            rows.push(self.row_with(spare)?);
        }
        Ok(rows)
    }

    /// [`rows`](Self::rows), then a `codec` error unless that was all the
    /// input.
    fn rows_to_end(mut self) -> Result<Vec<Row>> {
        let rows = self.rows(0)?;
        match self.remaining() {
            0 => Ok(rows),
            n => Err(CsqError::Codec(format!("{n} trailing bytes after rows"))),
        }
    }

    #[inline(always)]
    fn row_with(&mut self, spare: usize) -> Result<Row> {
        let n = self.take_count(1)?;
        let mut values = Vec::with_capacity(n + spare);
        for _ in 0..n {
            values.push(self.value()?);
        }
        Ok(Row::new(values))
    }

    /// Decode one value: the decode kernel. The value's whole extent is
    /// checked once against the input; a `Str`/`Blob` is built from that
    /// checked range, and UTF-8 is checked by an ASCII scan that falls back
    /// to `std::str::from_utf8` only on a non-ASCII byte.
    #[inline(always)]
    pub fn value(&mut self) -> Result<Value> {
        let pos = self.pos;
        let Some((&tag, p)) = self.buf[pos..].split_first() else {
            return Err(self.short(pos, 1));
        };
        let (value, used) = match tag {
            TAG_NULL => (Value::Null, 1),
            TAG_BOOL => match p.first() {
                Some(0) => (Value::Bool(false), 2),
                Some(1) => (Value::Bool(true), 2),
                Some(b) => return Err(CsqError::Codec(format!("invalid bool byte {b}"))),
                None => return Err(self.short(pos + 1, 1)),
            },
            TAG_INT => match p.first_chunk() {
                Some(b) => (Value::Int(i64::from_le_bytes(*b)), 9),
                None => return Err(self.short(pos + 1, 8)),
            },
            TAG_FLOAT => match p.first_chunk() {
                Some(b) => (Value::Float(f64::from_le_bytes(*b)), 9),
                None => return Err(self.short(pos + 1, 8)),
            },
            TAG_STR | TAG_BLOB => {
                let Some((len, body)) = p.split_first_chunk() else {
                    return Err(self.short(pos + 1, 4));
                };
                let len = u32::from_le_bytes(*len) as usize;
                let Some(bytes) = body.get(..len) else {
                    return Err(self.short(pos + 5, len));
                };
                if tag == TAG_STR && !bytes.is_ascii() {
                    std::str::from_utf8(bytes)
                        .map_err(|e| CsqError::Codec(format!("invalid UTF-8 in string: {e}")))?;
                }
                let (data, start) = match &self.shared {
                    Some(arc) => (Arc::clone(arc), pos + 5),
                    None => (Arc::new(bytes.to_vec()), 0),
                };
                let value = match tag {
                    TAG_STR => Value::Str(Str::view(data, start, len)),
                    _ => Value::Blob(Blob::view(data, start, len)),
                };
                (value, 5 + len)
            }
            tag => return Err(CsqError::Codec(format!("unknown value tag {tag}"))),
        };
        self.pos = pos + used;
        Ok(value)
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
    let rows = rows.iter().map(Row::values);
    out.reserve(rows_size(rows.clone()));
    put_rows(rows, out);
}

/// One message: the `tag` byte, then `rows` as [`encode_rows`] writes them,
/// in a buffer allocated once at its exact size. The rows are each row's
/// values, borrowed from any exactly-sized iterator, so a sender can
/// encode argument tuples it keeps in place of rows.
pub fn tagged_rows<'r, I>(tag: u8, rows: I) -> Vec<u8>
where
    I: ExactSizeIterator<Item = &'r [Value]> + Clone,
{
    let mut out = Vec::with_capacity(1 + rows_size(rows.clone()));
    out.push(tag);
    put_rows(rows, &mut out);
    out
}

/// What [`put_rows`] writes, in bytes.
fn rows_size<'r>(rows: impl Iterator<Item = &'r [Value]>) -> usize {
    4 + rows
        .map(|r| 4 + r.iter().map(Value::wire_size).sum::<usize>())
        .sum::<usize>()
}

fn put_rows<'r>(rows: impl ExactSizeIterator<Item = &'r [Value]>, out: &mut Vec<u8>) {
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for r in rows {
        encode_row_values(r, out);
    }
}

/// Append the rows at `positions` of `batch`, each exactly as
/// [`encode_row`] writes it, without building a row of a lane-backed batch:
/// each value is written from its lane (a dictionary string from its entry).
pub fn encode_batch_rows(batch: &RowBatch, positions: Range<usize>, out: &mut Vec<u8>) {
    out.reserve(batch_rows_size(batch, positions.clone()));
    put_batch_rows(batch, positions, out);
}

/// One message: `head`, then the rows of each `(batch, positions)` piece as
/// [`encode_batch_rows`] writes them, in a buffer allocated once at its
/// exact size.
pub fn batch_rows_message(head: &[u8], pieces: &[(&RowBatch, Range<usize>)]) -> Vec<u8> {
    let rows: usize = pieces
        .iter()
        .map(|(batch, positions)| batch_rows_size(batch, positions.clone()))
        .sum();
    let mut out = Vec::with_capacity(head.len() + rows);
    out.extend_from_slice(head);
    for (batch, positions) in pieces {
        put_batch_rows(batch, positions.clone(), &mut out);
    }
    out
}

/// What [`encode_batch_rows`] appends, in bytes: a fixed-width lane's
/// values cost their non-NULL size less what each selected NULL saves (the
/// selected NULLs are counted only in a lane that has one), a string or
/// `Values` lane's its selected values' exact wire size.
pub fn batch_rows_size(batch: &RowBatch, positions: Range<usize>) -> usize {
    let Some((lanes, sel)) = batch.lanes() else {
        return batch.rows()[positions].iter().map(row_encoded_size).sum();
    };
    let rows = positions.len();
    let at = |p| sel.ordinal(p);
    let nulled = |nulls: &NullBitmap| match nulls.count_ones() {
        0 => 0,
        _ => positions.clone().filter(|&p| nulls.get(at(p))).count(),
    };
    let values_size: usize = lanes
        .iter()
        .map(|lane| match &**lane {
            Lane::Int { nulls, .. } | Lane::Float { nulls, .. } => 9 * rows - 8 * nulled(nulls),
            Lane::Bool { nulls, .. } => 2 * rows - nulled(nulls),
            Lane::StrDict { dict, codes } => positions
                .clone()
                .map(|p| dict.get(codes[at(p)] as usize).map_or(1, |s| 5 + s.len()))
                .sum(),
            Lane::Values(values) => positions.clone().map(|p| values[at(p)].wire_size()).sum(),
        })
        .sum();
    rows * 4 + values_size
}

fn put_batch_rows(batch: &RowBatch, positions: Range<usize>, out: &mut Vec<u8>) {
    let Some((lanes, sel)) = batch.lanes() else {
        for r in &batch.rows()[positions] {
            encode_row(r, out);
        }
        return;
    };
    let width = (lanes.len() as u32).to_le_bytes();
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

/// Decode a batch of rows encoded by [`encode_rows`], copying payloads.
pub fn decode_rows(buf: &[u8]) -> Result<Vec<Row>> {
    Decoder::new(buf).rows_to_end()
}

/// Exact encoded size of a row including its count prefix.
pub fn row_encoded_size(row: &Row) -> usize {
    4 + row.wire_size()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A row frame decoded in both modes: copying, and as views of `buf`.
    fn decode_both(buf: Vec<u8>) -> [Result<Vec<Row>>; 2] {
        [
            decode_rows(&buf),
            Decoder::shared(&Arc::new(buf)).rows_to_end(),
        ]
    }

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
        // And so must a row frame holding it, in both modes.
        let rows = vec![
            Row::new(vec![v.clone(), Value::Int(1), v]),
            Row::new(vec![]),
        ];
        let mut buf = Vec::new();
        encode_rows(&rows, &mut buf);
        let [copied, shared] = decode_both(buf);
        assert_eq!(copied.unwrap(), rows);
        assert_eq!(shared.unwrap(), rows);
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
        // `Value` equality is bitwise on floats: -0.0 is not 0.0.
        roundtrip(Value::Int(i64::MIN));
        roundtrip(Value::Float(-0.0));
        roundtrip(Value::from(""));
        roundtrip(Value::from("a€b"));
        roundtrip(Value::from("𝄞 clef"));
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
    fn tagged_rows_are_a_tag_then_what_encode_rows_writes() {
        let rows = vec![
            Row::new(vec![Value::Int(1), Value::from("abc")]),
            Row::new(vec![Value::Blob(Blob::synthetic(16, 5)), Value::Null]),
        ];
        let mut a = vec![9];
        encode_rows(&rows, &mut a);
        let b = tagged_rows(9, rows.iter().map(Row::values));
        assert_eq!((&a, a.len()), (&b, b.capacity()));
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
        let decoded = Decoder::shared(&arc).rows_to_end().unwrap();
        assert_eq!(decoded, rows);
        // Str and Blob payloads are views into the message allocation.
        let Value::Str(s) = decoded[0].value(0) else {
            panic!("expected Str")
        };
        assert!(s.backed_by(&arc));
        assert!(decoded[0].value(1).as_blob().unwrap().backed_by(&arc));
        // The copying mode copies.
        let copied = decode_rows(&arc).unwrap();
        let Value::Str(s) = copied[0].value(0) else {
            panic!("expected Str")
        };
        assert!(!s.backed_by(&arc));
        assert!(!copied[0].value(1).as_blob().unwrap().backed_by(&arc));
    }

    #[test]
    fn truncated_input_errors() {
        let mut buf = Vec::new();
        encode_value(&Value::Int(7), &mut buf);
        buf.truncate(5);
        let mut d = Decoder::new(&buf);
        assert_eq!(d.value().unwrap_err().kind(), "codec");
        // A frame of every kind, cut at any byte, in either mode.
        let rows = vec![
            Row::new(vec![Value::Int(-1), Value::from("héllo"), Value::Null]),
            Row::new(vec![
                Value::Bool(true),
                Value::Float(2.5),
                Value::Blob(Blob::synthetic(7, 1)),
            ]),
        ];
        let mut buf = Vec::new();
        encode_rows(&rows, &mut buf);
        for cut in 0..buf.len() {
            let [copied, shared] = decode_both(buf[..cut].to_vec());
            assert_eq!(copied.unwrap_err().kind(), "codec", "cut at {cut}");
            assert_eq!(shared.unwrap_err().kind(), "codec", "cut at {cut}");
        }
    }

    #[test]
    fn bad_tag_errors() {
        let mut d = Decoder::new(&[99]);
        assert_eq!(d.value().unwrap_err().kind(), "codec");
    }

    #[test]
    fn ascii_prefix_then_invalid_utf8_is_a_codec_error() {
        for bad in [&[0xFFu8][..], &[0xC3], &[0xE2, 0x82], &[0xED, 0xA0, 0x80]] {
            let mut text = b"ticker-".to_vec();
            text.extend_from_slice(bad);
            let mut buf = 1u32.to_le_bytes().to_vec();
            buf.extend_from_slice(&1u32.to_le_bytes());
            buf.push(TAG_STR);
            buf.extend_from_slice(&(text.len() as u32).to_le_bytes());
            buf.extend_from_slice(&text);
            let [copied, shared] = decode_both(buf);
            assert_eq!(copied.unwrap_err().kind(), "codec", "{bad:?}");
            assert_eq!(shared.unwrap_err().kind(), "codec", "{bad:?}");
        }
    }

    #[test]
    fn rows_leave_the_spare_room_asked_for() {
        let rows = vec![Row::new(vec![Value::Int(1), Value::from("x")])];
        let mut buf = Vec::new();
        encode_rows(&rows, &mut buf);
        let mut decoded = Decoder::new(&buf).rows(2).unwrap();
        let before = decoded[0].values().as_ptr();
        decoded[0].push_value(Value::Null);
        decoded[0].push_value(Value::Int(2));
        assert_eq!(decoded[0].values().as_ptr(), before, "no reallocation");
    }

    #[test]
    fn lane_rows_reserve_exactly_their_wire_size() {
        use crate::lane::Selection;
        use crate::schema::{Field, Schema};
        use crate::value::DataType;
        // Each typed lane has NULLs, some of them at unselected positions;
        // the INT lanes pack at one, two, four and eight bytes, and the last
        // lane mixes kinds (a `Values` lane of INT, FLOAT, NULL and STR).
        let or_null = |null: bool, v: Value| if null { Value::Null } else { v };
        let rows: Vec<Row> = (0..40)
            .map(|i| {
                let blob = Value::Blob(Blob::synthetic(i * 3, i as u64));
                let name = [Value::from("alpha"), Value::Null, Value::from("β")][i % 3].clone();
                let i = i as i64;
                let ints = [i - 20, i * 1_000 - 20_000, i << 20, (i - 20) << 40]
                    .map(|x| or_null(i % 3 == 0, Value::Int(x)));
                let float = or_null(i % 5 == 2, Value::Float(i as f64 / 4.0));
                let flag = or_null(i % 7 == 1, Value::Bool(i % 2 == 0));
                let mixed = [
                    Value::Int(i),
                    Value::Float(0.5),
                    Value::Null,
                    Value::from("m"),
                ];
                let mut row = vec![blob, name, float, flag];
                row.extend(ints);
                row.push(mixed[i as usize % 4].clone());
                Row::new(row)
            })
            .collect();
        let lanes: Vec<Arc<Lane>> = (0..9).map(|c| Arc::new(Lane::build(&rows, c))).collect();
        assert!(matches!(*lanes[0], Lane::Values(_)));
        assert!(matches!(*lanes[8], Lane::Values(_)));
        assert!(matches!(*lanes[1], Lane::StrDict { .. }));
        assert!(matches!(*lanes[2], Lane::Float { .. }));
        assert!(matches!(*lanes[3], Lane::Bool { .. }));
        let widths: Vec<usize> = lanes[4..8]
            .iter()
            .map(|l| match &**l {
                Lane::Int { values, .. } => values.width(),
                _ => 0,
            })
            .collect();
        assert_eq!(widths, [1, 2, 4, 8]);
        let types = [
            DataType::Blob,
            DataType::Str,
            DataType::Float,
            DataType::Bool,
        ];
        let schema = Arc::new(Schema::new(
            (0..9)
                .map(|c| Field::new(format!("c{c}"), *types.get(c).unwrap_or(&DataType::Int)))
                .collect(),
        ));
        let selections = [
            Selection::Rows((0..40).filter(|i| i % 4 != 1).collect()),
            Selection::Window(3..37),
        ];
        for sel in selections {
            let kept: Vec<&Row> = (0..sel.len()).map(|p| &rows[sel.ordinal(p)]).collect();
            let batch = RowBatch::from_lanes(schema.clone(), lanes.clone(), sel);
            let mut out = Vec::new();
            encode_batch_rows(&batch, 0..batch.len(), &mut out);
            let size: usize = kept.iter().map(|r| row_encoded_size(r)).sum();
            assert_eq!((out.len(), out.capacity()), (size, size));
            assert_eq!(batch_rows_size(&batch, 0..batch.len()), size);
            let mut expected = Vec::new();
            kept.iter().for_each(|r| encode_row(r, &mut expected));
            assert_eq!(out, expected);
            let halves = [(&batch, 0..7), (&batch, 7..batch.len())];
            let message = batch_rows_message(&[7], &halves);
            assert_eq!((message.len(), message.capacity()), (1 + size, 1 + size));
            assert_eq!((message[0], &message[1..]), (7, &expected[..]));
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let rows = vec![Row::new(vec![Value::Int(1)])];
        let mut buf = Vec::new();
        encode_rows(&rows, &mut buf);
        buf.push(0);
        assert_eq!(decode_rows(&buf).unwrap_err().kind(), "codec");
        let arc = Arc::new(buf);
        let shared = Decoder::shared(&arc).rows_to_end();
        assert_eq!(shared.unwrap_err().kind(), "codec");
    }
}
