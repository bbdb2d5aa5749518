//! Typed column lanes: the column-major half of the data model.
//!
//! A [`Lane`] holds one column of a run of rows in the narrowest
//! representation that keeps every value reconstructible bit for bit
//! ([`Lane::value`] returns exactly what was put in: an `INT 7` stored in a
//! FLOAT column comes back as `Value::Int(7)`, not `7.0`). Storage seals a
//! table's rows into lanes (`csq-storage`'s segments), the scan hands them on
//! inside a [`RowBatch`](crate::RowBatch) behind an `Arc`, and an operator
//! that can work a column at a time reads them directly — a [`Row`] is built
//! only by an operator that reads rows. A [`Selection`] names which rows of
//! the lanes a batch covers.

use std::collections::HashMap;
use std::ops::Range;

use crate::row::Row;
use crate::value::{Str, Value};

/// Fixed-width null bitmap (one bit per row of the lane).
#[derive(Debug, Clone)]
pub struct NullBitmap {
    words: Vec<u64>,
    ones: usize,
}

impl NullBitmap {
    /// An all-zero bitmap covering `len` rows.
    pub fn new(len: usize) -> NullBitmap {
        NullBitmap {
            words: vec![0; len.div_ceil(64)],
            ones: 0,
        }
    }

    /// Mark row `i` as NULL.
    pub fn set(&mut self, i: usize) {
        let (w, b) = (i / 64, i % 64);
        if self.words[w] & (1 << b) == 0 {
            self.words[w] |= 1 << b;
            self.ones += 1;
        }
    }

    /// True when row `i` is NULL. A bitmap with no bit set — the common
    /// column — answers without touching its words.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        self.ones != 0 && self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Number of NULL rows.
    pub fn count_ones(&self) -> usize {
        self.ones
    }
}

/// Evaluate `$body` with `$v` bound to the [`IntLane`]'s vector, whatever its
/// width: the width is matched once, outside any loop in `$body`.
#[macro_export]
macro_rules! each_width {
    ($lane:expr, $v:ident => $body:expr) => {
        match $lane {
            $crate::IntLane::I8($v) => $body,
            $crate::IntLane::I16($v) => $body,
            $crate::IntLane::I32($v) => $body,
            $crate::IntLane::I64($v) => $body,
        }
    };
}

/// Widen an [`IntLane`] element of any width (the identity at 8 bytes).
#[inline]
pub fn wide(v: impl Into<i64>) -> i64 {
    v.into()
}

/// INT values at the narrowest width that holds every value of the lane:
/// a key column costs four bytes a row instead of eight, a small code one.
#[derive(Debug)]
pub enum IntLane {
    I8(Vec<i8>),
    I16(Vec<i16>),
    I32(Vec<i32>),
    I64(Vec<i64>),
}

impl IntLane {
    /// Pack `values` at the narrowest width that holds them all.
    pub fn pack(values: Vec<i64>) -> IntLane {
        fn narrow<T: TryFrom<i64>>(values: &[i64]) -> Option<Vec<T>> {
            values.iter().map(|&v| T::try_from(v).ok()).collect()
        }
        if let Some(v) = narrow(&values) {
            IntLane::I8(v)
        } else if let Some(v) = narrow(&values) {
            IntLane::I16(v)
        } else if let Some(v) = narrow(&values) {
            IntLane::I32(v)
        } else {
            IntLane::I64(values)
        }
    }

    /// The value at row `i`, widened.
    #[inline]
    pub fn get(&self, i: usize) -> i64 {
        each_width!(self, v => wide(v[i]))
    }

    /// Bytes per value: 1, 2, 4 or 8.
    pub fn width(&self) -> usize {
        match self {
            IntLane::I8(_) => 1,
            IntLane::I16(_) => 2,
            IntLane::I32(_) => 4,
            IntLane::I64(_) => 8,
        }
    }
}

/// One column of a run of rows: the narrowest representation that keeps the
/// original values reconstructible bit for bit.
#[derive(Debug)]
pub enum Lane {
    /// All non-null values are INT.
    Int { values: IntLane, nulls: NullBitmap },
    /// All non-null values are FLOAT.
    Float { values: Vec<f64>, nulls: NullBitmap },
    /// All non-null values are BOOL.
    Bool {
        values: Vec<bool>,
        nulls: NullBitmap,
    },
    /// All non-null values are STR: dictionary-encoded, `u32::MAX` = NULL.
    StrDict { dict: Vec<Str>, codes: Vec<u32> },
    /// Mixed or non-encodable values (e.g. INT widened into a FLOAT column,
    /// BLOBs): stored as-is. Nulls live inline as `Value::Null`.
    Values(Vec<Value>),
}

impl Lane {
    /// Build the lane of column `col` of `rows`. A typed lane is only usable
    /// when *every* non-null value is of that exact variant, so
    /// reconstruction is lossless; anything else is a [`Lane::Values`].
    pub fn build(rows: &[Row], col: usize) -> Lane {
        let n = rows.len();
        let (mut ints, mut floats, mut bools, mut strs, mut others) = (0, 0, 0, 0, 0);
        for r in rows {
            match r.value(col) {
                Value::Null => {}
                Value::Int(_) => ints += 1,
                Value::Float(_) => floats += 1,
                Value::Bool(_) => bools += 1,
                Value::Str(_) => strs += 1,
                _ => others += 1,
            }
        }
        let non_null = ints + floats + bools + strs + others;
        /// The values `pick` extracts, `zero` standing in for each NULL.
        fn typed<T: Copy>(
            rows: &[Row],
            col: usize,
            zero: T,
            pick: impl Fn(&Value) -> Option<T>,
        ) -> (Vec<T>, NullBitmap) {
            let mut nulls = NullBitmap::new(rows.len());
            let values = rows
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    pick(r.value(col)).unwrap_or_else(|| {
                        nulls.set(i);
                        zero
                    })
                })
                .collect();
            (values, nulls)
        }
        if non_null == ints && ints > 0 {
            let (values, nulls) = typed(rows, col, 0, |v| match v {
                Value::Int(i) => Some(*i),
                _ => None,
            });
            Lane::Int {
                values: IntLane::pack(values),
                nulls,
            }
        } else if non_null == floats && floats > 0 {
            let (values, nulls) = typed(rows, col, 0.0, |v| match v {
                Value::Float(f) => Some(*f),
                _ => None,
            });
            Lane::Float { values, nulls }
        } else if non_null == bools && bools > 0 {
            let (values, nulls) = typed(rows, col, false, |v| match v {
                Value::Bool(b) => Some(*b),
                _ => None,
            });
            Lane::Bool { values, nulls }
        } else if non_null == strs && strs > 0 {
            let mut dict: Vec<Str> = Vec::new();
            let mut index: HashMap<Str, u32> = HashMap::new();
            let mut codes = Vec::with_capacity(n);
            for r in rows {
                match r.value(col) {
                    Value::Str(s) => {
                        let code = *index.entry(s.clone()).or_insert_with(|| {
                            dict.push(s.clone());
                            (dict.len() - 1) as u32
                        });
                        codes.push(code);
                    }
                    _ => codes.push(u32::MAX),
                }
            }
            Lane::StrDict { dict, codes }
        } else {
            Lane::Values(rows.iter().map(|r| r.value(col).clone()).collect())
        }
    }

    /// Rows in the lane.
    pub fn len(&self) -> usize {
        match self {
            Lane::Int { values, .. } => each_width!(values, v => v.len()),
            Lane::Float { values, .. } => values.len(),
            Lane::Bool { values, .. } => values.len(),
            Lane::StrDict { codes, .. } => codes.len(),
            Lane::Values(values) => values.len(),
        }
    }

    /// True when the lane has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            Lane::Int { nulls, .. } | Lane::Float { nulls, .. } | Lane::Bool { nulls, .. } => {
                nulls.get(i)
            }
            Lane::StrDict { codes, .. } => codes[i] == u32::MAX,
            Lane::Values(values) => values[i].is_null(),
        }
    }

    /// The exact value at row `i`.
    pub fn value(&self, i: usize) -> Value {
        match self {
            _ if self.is_null(i) => Value::Null,
            Lane::Int { values, .. } => Value::Int(values.get(i)),
            Lane::Float { values, .. } => Value::Float(values[i]),
            Lane::Bool { values, .. } => Value::Bool(values[i]),
            Lane::StrDict { dict, codes } => Value::Str(dict[codes[i] as usize].clone()),
            Lane::Values(values) => values[i].clone(),
        }
    }

    /// `self.value(i) == *v` without building the value (so by `Value`
    /// equality: floats by bit pattern, `Int ≠ Float`, `NULL == NULL`).
    #[inline]
    pub fn eq_value(&self, i: usize, v: &Value) -> bool {
        match (self, v) {
            (_, Value::Null) => self.is_null(i),
            _ if self.is_null(i) => false,
            (Lane::Int { values, .. }, Value::Int(b)) => values.get(i) == *b,
            (Lane::Float { values, .. }, Value::Float(b)) => values[i].to_bits() == b.to_bits(),
            (Lane::Bool { values, .. }, Value::Bool(b)) => values[i] == *b,
            (Lane::StrDict { dict, codes }, Value::Str(b)) => dict[codes[i] as usize] == *b,
            (Lane::Values(values), v) => values[i] == *v,
            _ => false,
        }
    }
}

/// Which rows of its lanes a batch covers, in order.
#[derive(Debug, Clone)]
pub enum Selection {
    /// A contiguous window: no selection vector needed.
    Window(Range<usize>),
    /// These row ordinals.
    Rows(Vec<usize>),
}

impl Selection {
    /// Rows selected.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Selection::Window(w) => w.len(),
            Selection::Rows(rows) => rows.len(),
        }
    }

    /// True when nothing is selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The lane ordinal of the row at position `p`.
    #[inline]
    pub fn ordinal(&self, p: usize) -> usize {
        match self {
            Selection::Window(w) => w.start + p,
            Selection::Rows(rows) => rows[p],
        }
    }

    /// Call `f(p, i)` for each of the first `limit` selected rows: `p` its
    /// position in the selection, `i` its ordinal in the lanes.
    #[inline]
    pub fn for_each(&self, limit: usize, mut f: impl FnMut(usize, usize)) {
        let walked = self.try_for_each(limit, |p, i| {
            f(p, i);
            Ok::<(), std::convert::Infallible>(())
        });
        debug_assert!(walked.is_ok());
    }

    /// Like [`for_each`](Self::for_each), stopping at the first `Err` and
    /// returning it with the position it was raised at. The two shapes are
    /// told apart once, outside the loop.
    #[inline]
    pub fn try_for_each<E>(
        &self,
        limit: usize,
        mut f: impl FnMut(usize, usize) -> Result<(), E>,
    ) -> Result<(), (usize, E)> {
        match self {
            Selection::Window(w) => (w.start..w.end)
                .take(limit)
                .enumerate()
                .try_for_each(|(p, i)| f(p, i).map_err(|e| (p, e))),
            Selection::Rows(rows) => rows
                .iter()
                .take(limit)
                .enumerate()
                .try_for_each(|(p, &i)| f(p, i).map_err(|e| (p, e))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Blob;

    fn lane_of(values: Vec<Value>) -> Lane {
        let rows: Vec<Row> = values.into_iter().map(|v| Row::new(vec![v])).collect();
        Lane::build(&rows, 0)
    }

    #[test]
    fn every_lane_reconstructs_and_compares_by_value_equality() {
        let columns = vec![
            vec![Value::Int(1), Value::Null, Value::Int(-300)],
            vec![
                Value::Float(0.0),
                Value::Float(-0.0),
                Value::Float(f64::NAN),
                Value::Null,
            ],
            vec![Value::Bool(true), Value::Null, Value::Bool(false)],
            vec![
                Value::from("a"),
                Value::Null,
                Value::from("bb"),
                Value::from("a"),
            ],
            vec![Value::Float(1.0), Value::Int(1), Value::Null],
            vec![Value::Blob(Blob::synthetic(4, 1)), Value::Null],
            vec![Value::Null, Value::Null],
        ];
        let probes = [
            Value::Null,
            Value::Int(1),
            Value::Float(1.0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Bool(true),
            Value::from("a"),
            Value::Blob(Blob::synthetic(4, 1)),
        ];
        for column in columns {
            let lane = lane_of(column.clone());
            assert_eq!(lane.len(), column.len());
            for (i, v) in column.iter().enumerate() {
                assert_eq!(&lane.value(i), v);
                assert_eq!(lane.is_null(i), v.is_null());
                assert!(lane.eq_value(i, v));
                for probe in &probes {
                    assert_eq!(lane.eq_value(i, probe), v == probe, "{v:?} vs {probe:?}");
                }
            }
        }
    }

    #[test]
    fn lanes_are_the_narrowest_exact_representation() {
        assert!(matches!(
            lane_of(vec![Value::Int(127), Value::Null]),
            Lane::Int {
                values: IntLane::I8(_),
                ..
            }
        ));
        assert!(matches!(
            lane_of(vec![Value::Int(128)]),
            Lane::Int {
                values: IntLane::I16(_),
                ..
            }
        ));
        assert!(matches!(
            lane_of(vec![Value::Float(1.0)]),
            Lane::Float { .. }
        ));
        assert!(matches!(
            lane_of(vec![Value::from("x")]),
            Lane::StrDict { .. }
        ));
        // A stray INT among FLOATs, and a column with no non-null value.
        assert!(matches!(
            lane_of(vec![Value::Float(1.0), Value::Int(1)]),
            Lane::Values(_)
        ));
        assert!(matches!(lane_of(vec![Value::Null]), Lane::Values(_)));
    }

    #[test]
    fn selection_walks_positions_and_ordinals_up_to_the_limit() {
        let walk = |sel: &Selection, limit| {
            let mut seen = Vec::new();
            sel.for_each(limit, |p, i| seen.push((p, i)));
            seen
        };
        let window = Selection::Window(5..8);
        let rows = Selection::Rows(vec![2, 9, 11]);
        assert_eq!((window.len(), rows.len()), (3, 3));
        assert_eq!(walk(&window, 9), vec![(0, 5), (1, 6), (2, 7)]);
        assert_eq!(walk(&rows, 2), vec![(0, 2), (1, 9)]);
        let stop = rows.try_for_each(3, |_, i| if i == 9 { Err("nine") } else { Ok(()) });
        assert_eq!(stop, Err((1, "nine")));
    }
}
