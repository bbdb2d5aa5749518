//! Runtime values and their types.
//!
//! The paper's data model is PREDATOR's enhanced-ADT model; for the purposes
//! of client-site UDF execution what matters is (a) typed scalars for
//! predicates and join keys, and (b) opaque sized "data objects" that are the
//! arguments and results of client-site UDFs (the experiments parameterize
//! everything by object *size*). [`Blob`] plays the data-object role.
//!
//! Both [`Blob`] and [`Str`] are *views* into a reference-counted byte
//! buffer: cloning is an `Arc` bump, and the codec can decode them as
//! zero-copy slices of a received network message (see
//! [`crate::codec::Decoder::shared`]). Equality and hashing are always by
//! content, never by backing buffer, so a decoded view compares equal to an
//! owned value with the same bytes.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::{CsqError, Result};

/// A range view into a shared byte buffer. The invariant maintained by all
/// constructors is `start + len <= data.len()`.
#[derive(Clone)]
struct ByteView {
    data: Arc<Vec<u8>>,
    start: usize,
    len: usize,
}

impl ByteView {
    fn owned(bytes: Vec<u8>) -> ByteView {
        let len = bytes.len();
        ByteView {
            data: Arc::new(bytes),
            start: 0,
            len,
        }
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.start + self.len]
    }

    fn backed_by(&self, buf: &Arc<Vec<u8>>) -> bool {
        Arc::ptr_eq(&self.data, buf)
    }
}

/// An opaque byte object — the paper's `DataObject` (time series, reports...).
///
/// Cheap to clone (`Arc`), compared and hashed by content. May be a
/// zero-copy slice of a received network message (see the codec).
#[derive(Clone)]
pub struct Blob(ByteView);

impl Blob {
    /// Wrap raw bytes (owning constructor).
    pub fn new(bytes: Vec<u8>) -> Self {
        Blob(ByteView::owned(bytes))
    }

    /// A view of `len` bytes at `start` of `data`, a range the codec's
    /// decode kernel has checked lies within it.
    pub(crate) fn view(data: Arc<Vec<u8>>, start: usize, len: usize) -> Blob {
        Blob(ByteView { data, start, len })
    }

    /// A deterministic blob of `len` bytes seeded by `seed`; used by workload
    /// generators so experiments are reproducible.
    pub fn synthetic(len: usize, seed: u64) -> Self {
        // Simple xorshift fill: deterministic, spreads the seed through the
        // payload so distinct seeds give distinct (non-duplicate) objects.
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut bytes = Vec::with_capacity(len);
        for _ in 0..len {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            bytes.push((state & 0xFF) as u8);
        }
        Blob::new(bytes)
    }

    /// Byte contents.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        self.0.as_slice()
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.0.len
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.0.len == 0
    }

    /// True when this blob is a view into `buf` (zero-copy test hook).
    pub fn backed_by(&self, buf: &Arc<Vec<u8>>) -> bool {
        self.0.backed_by(buf)
    }
}

impl PartialEq for Blob {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Blob {}

impl Hash for Blob {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Matches the derived hash of the previous `Arc<Vec<u8>>`
        // representation (Vec hashes its contents).
        self.as_bytes().hash(state);
    }
}

impl fmt::Debug for Blob {
    /// Abbreviated so `Debug` stays readable for huge payloads.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.as_bytes();
        if b.len() <= 8 {
            write!(f, "Blob({b:02x?})")
        } else {
            write!(f, "Blob({} bytes, {:02x?}..)", b.len(), &b[..8])
        }
    }
}

/// An immutable UTF-8 string backed by a shared byte buffer.
///
/// Like [`Blob`], cloning bumps an `Arc`, and the codec can decode a `Str`
/// as a zero-copy slice of a received message. UTF-8 validity is checked
/// once at construction; `as_str` is then free.
#[derive(Clone)]
pub struct Str(ByteView);

impl Str {
    /// Own a string.
    pub fn new(s: impl Into<String>) -> Str {
        Str(ByteView::owned(s.into().into_bytes()))
    }

    /// [`Blob::view`] of a range the codec's decode kernel has also checked
    /// is UTF-8.
    pub(crate) fn view(data: Arc<Vec<u8>>, start: usize, len: usize) -> Str {
        let view = ByteView { data, start, len };
        debug_assert!(std::str::from_utf8(view.as_slice()).is_ok());
        Str(view)
    }

    /// String contents.
    #[inline]
    pub fn as_str(&self) -> &str {
        // SAFETY: every constructor validated that the viewed range is
        // UTF-8 (`view` takes a range the codec's kernel validated), the
        // buffer is immutable, and the range is in bounds.
        unsafe { std::str::from_utf8_unchecked(self.0.as_slice()) }
    }

    /// Byte length.
    pub fn len(&self) -> usize {
        self.0.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.0.len == 0
    }

    /// True when this string is a view into `buf` (zero-copy test hook).
    pub fn backed_by(&self, buf: &Arc<Vec<u8>>) -> bool {
        self.0.backed_by(buf)
    }
}

impl std::ops::Deref for Str {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Str {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Str {}

impl PartialOrd for Str {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Str {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for Str {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Same hash as `String`/`str` so map lookups keyed by strings
        // behave identically to the previous `Value::Str(String)`.
        self.as_str().hash(state);
    }
}

impl fmt::Debug for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Str {
    fn from(s: &str) -> Str {
        Str::new(s)
    }
}

impl From<String> for Str {
    fn from(s: String) -> Str {
        Str::new(s)
    }
}

/// The SQL-level type of a [`Value`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Bool,
    Int,
    Float,
    Str,
    Blob,
}

impl DataType {
    /// Parse a type name as written in `CREATE TABLE`.
    pub fn parse(name: &str) -> Result<DataType> {
        match name.to_ascii_uppercase().as_str() {
            "BOOL" | "BOOLEAN" => Ok(DataType::Bool),
            "INT" | "INTEGER" | "BIGINT" => Ok(DataType::Int),
            "FLOAT" | "DOUBLE" | "REAL" => Ok(DataType::Float),
            "STR" | "STRING" | "VARCHAR" | "TEXT" => Ok(DataType::Str),
            "BLOB" | "OBJECT" | "DATAOBJECT" => Ok(DataType::Blob),
            other => Err(CsqError::Type(format!("unknown type name '{other}'"))),
        }
    }

    /// Whether a value of type `from` can be used where `self` is expected.
    /// Int silently widens to Float (the only coercion in the system).
    pub fn accepts(self, from: DataType) -> bool {
        self == from || (self == DataType::Float && from == DataType::Int)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "STRING",
            DataType::Blob => "BLOB",
        };
        f.write_str(s)
    }
}

/// A runtime value.
///
/// `Value` implements `Eq`/`Hash` (floats compare by bit pattern) because
/// duplicate elimination on argument columns — central to the semi-join
/// strategy — needs values as hash-map keys.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Str),
    Blob(Blob),
}

impl Value {
    /// The value's type; `None` for SQL NULL (which has every type).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Blob(_) => Some(DataType::Blob),
        }
    }

    /// Size of this value in the wire format (tag byte + payload).
    ///
    /// This is the exact number of bytes [`crate::codec::encode_value`]
    /// produces, and the unit of account for the network cost model.
    pub fn wire_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 2,
            Value::Int(_) => 9,
            Value::Float(_) => 9,
            Value::Str(s) => 5 + s.len(),
            Value::Blob(b) => 5 + b.len(),
        }
    }

    /// True when this is SQL NULL.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extract a bool, treating NULL as "unknown" (`None`).
    pub fn as_bool(&self) -> Result<Option<bool>> {
        match self {
            Value::Null => Ok(None),
            Value::Bool(b) => Ok(Some(*b)),
            other => Err(CsqError::Type(format!(
                "expected BOOL, got {:?}",
                other.data_type()
            ))),
        }
    }

    /// Numeric view used by arithmetic and comparisons (Int widens to Float).
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Value::Int(i) => Ok(*i as f64),
            Value::Float(f) => Ok(*f),
            other => Err(CsqError::Type(format!(
                "expected numeric, got {:?}",
                other.data_type()
            ))),
        }
    }

    /// Extract an integer.
    pub fn as_i64(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(CsqError::Type(format!(
                "expected INT, got {:?}",
                other.data_type()
            ))),
        }
    }

    /// Extract a string slice.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s.as_str()),
            other => Err(CsqError::Type(format!(
                "expected STRING, got {:?}",
                other.data_type()
            ))),
        }
    }

    /// Extract a blob.
    pub fn as_blob(&self) -> Result<&Blob> {
        match self {
            Value::Blob(b) => Ok(b),
            other => Err(CsqError::Type(format!(
                "expected BLOB, got {:?}",
                other.data_type()
            ))),
        }
    }

    /// SQL comparison. NULL compares as `None` (unknown); Int/Float compare
    /// numerically; other cross-type comparisons are type errors.
    pub fn sql_cmp(&self, other: &Value) -> Result<Option<std::cmp::Ordering>> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => Ok(None),
            (Bool(a), Bool(b)) => Ok(Some(a.cmp(b))),
            (Int(a), Int(b)) => Ok(Some(a.cmp(b))),
            (Str(a), Str(b)) => Ok(Some(a.cmp(b))),
            (Blob(a), Blob(b)) => Ok(Some(a.as_bytes().cmp(b.as_bytes()))),
            (Int(_) | Float(_), Int(_) | Float(_)) => {
                let (a, b) = (self.as_f64()?, other.as_f64()?);
                Ok(a.partial_cmp(&b))
            }
            (a, b) => Err(CsqError::Type(format!(
                "cannot compare {:?} with {:?}",
                a.data_type(),
                b.data_type()
            ))),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            // Bit-pattern equality: makes Eq lawful so values can key maps.
            (Float(a), Float(b)) => a.to_bits() == b.to_bits(),
            (Str(a), Str(b)) => a == b,
            (Blob(a), Blob(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Blob(b) => b.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Blob(b) => write!(f, "<blob {} bytes>", b.len()),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(Str::new(s))
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Str::new(s))
    }
}
impl From<Blob> for Value {
    fn from(b: Blob) -> Self {
        Value::Blob(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn synthetic_blob_is_deterministic() {
        let a = Blob::synthetic(64, 7);
        let b = Blob::synthetic(64, 7);
        let c = Blob::synthetic(64, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 64);
    }

    #[test]
    fn wire_sizes_match_spec() {
        assert_eq!(Value::Null.wire_size(), 1);
        assert_eq!(Value::Bool(true).wire_size(), 2);
        assert_eq!(Value::Int(42).wire_size(), 9);
        assert_eq!(Value::Float(1.5).wire_size(), 9);
        assert_eq!(Value::from("abc").wire_size(), 8);
        assert_eq!(Value::Blob(Blob::synthetic(100, 1)).wire_size(), 105);
    }

    #[test]
    fn numeric_cross_type_compare() {
        let o = Value::Int(2).sql_cmp(&Value::Float(2.5)).unwrap();
        assert_eq!(o, Some(Ordering::Less));
        let o = Value::Float(3.0).sql_cmp(&Value::Int(3)).unwrap();
        assert_eq!(o, Some(Ordering::Equal));
    }

    #[test]
    fn null_compares_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)).unwrap(), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null).unwrap(), None);
    }

    #[test]
    fn incompatible_compare_is_type_error() {
        let e = Value::Bool(true).sql_cmp(&Value::Int(1)).unwrap_err();
        assert_eq!(e.kind(), "type");
    }

    #[test]
    fn float_eq_by_bits() {
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
        assert_ne!(Value::Float(0.0), Value::Float(-0.0));
    }

    #[test]
    fn hash_matches_eq_for_duplicates() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::Blob(Blob::synthetic(32, 1)));
        set.insert(Value::Blob(Blob::synthetic(32, 1)));
        set.insert(Value::Blob(Blob::synthetic(32, 2)));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn datatype_parse_and_accepts() {
        assert_eq!(DataType::parse("varchar").unwrap(), DataType::Str);
        assert_eq!(DataType::parse("DataObject").unwrap(), DataType::Blob);
        assert!(DataType::parse("frob").is_err());
        assert!(DataType::Float.accepts(DataType::Int));
        assert!(!DataType::Int.accepts(DataType::Float));
    }

    #[test]
    fn shared_views_compare_by_content() {
        let buf = Arc::new(b"hello world".to_vec());
        let b = Blob::view(buf.clone(), 0, 5);
        assert_eq!(b, Blob::new(b"hello".to_vec()));
        assert!(b.backed_by(&buf));
        assert!(!Blob::new(b"hello".to_vec()).backed_by(&buf));
        let s = Str::view(buf.clone(), 6, 5);
        assert_eq!(s.as_str(), "world");
        assert!(s.backed_by(&buf));
        // Hash agreement between owned and shared representations.
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::Str(s));
        set.insert(Value::from("world"));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn shared_view_bounds_checked() {
        // A view is only built by the decoder, from a range it checked:
        // one past the end of the frame, or not UTF-8, is a `codec` error.
        use crate::codec::Decoder;
        let frame = |tag: u8, len: u32, body: &[u8]| {
            let mut f = vec![tag];
            f.extend_from_slice(&len.to_le_bytes());
            f.extend_from_slice(body);
            Arc::new(f)
        };
        for bad in [
            frame(5, 3, &[1, 2]),
            frame(4, u32::MAX, b"a"),
            frame(4, 2, &[0xFF, 0xFE]),
        ] {
            assert_eq!(Decoder::shared(&bad).value().unwrap_err().kind(), "codec");
        }
        let ok = frame(4, 3, b"abc");
        assert_eq!(Decoder::shared(&ok).value().unwrap(), Value::from("abc"));
    }

    #[test]
    fn str_clone_shares_allocation() {
        let a = Str::new("abcdef");
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.0.data, &b.0.data));
        assert_eq!(a, b);
    }
}
