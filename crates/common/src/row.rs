//! Rows: the tuple representation flowing through operators and the network.

use crate::value::Value;

/// A tuple of values. Order matches the operator's [`crate::Schema`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    /// Build from values.
    pub fn new(values: Vec<Value>) -> Row {
        Row { values }
    }

    /// The values, in schema order.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at ordinal `i`.
    #[inline]
    pub fn value(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// Number of columns.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the row has no columns.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Consume into the underlying values.
    #[inline]
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Total wire size of the row's values (sum of [`Value::wire_size`]),
    /// excluding any message framing. This is the `I` (input record size)
    /// of the paper's cost model when applied to an input row.
    pub fn wire_size(&self) -> usize {
        self.values.iter().map(Value::wire_size).sum()
    }

    /// The sub-row at `indices` (projection); clones values (blobs are
    /// refcounted so this is cheap even for large objects).
    #[inline]
    pub fn project(&self, indices: &[usize]) -> Row {
        Row {
            values: indices.iter().map(|&i| self.values[i].clone()).collect(),
        }
    }

    /// In-place projection for *strictly increasing* `indices`: moves the
    /// selected values to the front and truncates, reusing this row's
    /// allocation (no clone, no new `Vec`). The monotonicity requirement
    /// guarantees `indices[k] >= k`, so each move reads a slot that has not
    /// been overwritten yet; non-monotonic indices are rejected (a silent
    /// wrong answer would be the alternative). On `Err` the row's contents
    /// are unspecified.
    pub fn project_in_place(&mut self, indices: &[usize]) -> crate::error::Result<()> {
        let mut prev: Option<usize> = None;
        for (k, &i) in indices.iter().enumerate() {
            if prev.is_some_and(|p| p >= i) {
                return Err(crate::error::CsqError::Exec(format!(
                    "project_in_place requires strictly increasing indices, got {indices:?}"
                )));
            }
            prev = Some(i);
            if i >= self.values.len() {
                return Err(crate::error::CsqError::Exec(format!(
                    "column ordinal {i} out of bounds for row of width {}",
                    self.values.len()
                )));
            }
            if i != k {
                self.values[k] = std::mem::replace(&mut self.values[i], Value::Null);
            }
        }
        self.values.truncate(indices.len());
        Ok(())
    }

    /// Concatenate two rows (join output).
    pub fn join(&self, right: &Row) -> Row {
        let mut values = Vec::with_capacity(self.values.len() + right.values.len());
        values.extend(self.values.iter().cloned());
        values.extend(right.values.iter().cloned());
        Row { values }
    }

    /// Append a value (e.g. a UDF result column), returning the new row.
    pub fn with_value(&self, v: Value) -> Row {
        let mut values = self.values.clone();
        values.push(v);
        Row { values }
    }

    /// Append a value in place (the allocation-free sibling of
    /// [`Row::with_value`], used on the client's batch hot path).
    #[inline]
    pub fn push_value(&mut self, v: Value) {
        self.values.push(v);
    }

    /// Hash of the values at `key` (or the whole row when `key` is `None`),
    /// consistent within a process run — the partitioning function of the
    /// spill partitions and of the coordinator's shard routing. Build and
    /// probe sides of a Grace join must use the *same* function so equal
    /// keys land in the same partition; equality-by-content of `Value`
    /// guarantees equal keys hash equal regardless of backing buffers.
    pub fn key_hash(&self, key: Option<&[usize]>) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        match key {
            Some(cols) => {
                for &c in cols {
                    self.values[c].hash(&mut h);
                }
            }
            None => self.hash(&mut h),
        }
        h.finish()
    }

    /// Partition ordinal in `[0, parts)` for this row under `key` hashing.
    #[inline]
    pub fn partition_of(&self, key: Option<&[usize]>, parts: usize) -> usize {
        debug_assert!(parts > 0);
        (self.key_hash(key) % parts.max(1) as u64) as usize
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row { values }
    }
}

impl std::fmt::Display for Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Blob;

    fn demo() -> Row {
        Row::new(vec![
            Value::from("acme"),
            Value::Int(5),
            Value::Blob(Blob::synthetic(100, 1)),
        ])
    }

    #[test]
    fn wire_size_sums_values() {
        let r = demo();
        assert_eq!(r.wire_size(), (5 + 4) + 9 + 105);
    }

    #[test]
    fn project_picks_and_orders() {
        let r = demo();
        let p = r.project(&[1, 0]);
        assert_eq!(p.values(), &[Value::Int(5), Value::from("acme")]);
    }

    #[test]
    fn join_concatenates() {
        let a = Row::new(vec![Value::Int(1)]);
        let b = Row::new(vec![Value::Int(2), Value::Int(3)]);
        assert_eq!(
            a.join(&b).values(),
            &[Value::Int(1), Value::Int(2), Value::Int(3)]
        );
    }

    #[test]
    fn with_value_appends() {
        let r = Row::new(vec![Value::Int(1)]).with_value(Value::Bool(true));
        assert_eq!(r.len(), 2);
        assert_eq!(r.value(1), &Value::Bool(true));
    }

    #[test]
    fn display_is_tuple_like() {
        let r = Row::new(vec![Value::Int(1), Value::from("x")]);
        assert_eq!(r.to_string(), "(1, 'x')");
    }

    #[test]
    fn key_hash_is_content_based_and_key_scoped() {
        let a = Row::new(vec![Value::Int(1), Value::from("x")]);
        let b = Row::new(vec![Value::Int(1), Value::from("y")]);
        // Same key columns hash the same even though the rows differ.
        assert_eq!(a.key_hash(Some(&[0])), b.key_hash(Some(&[0])));
        // Whole-row hashing distinguishes them.
        assert_ne!(a.key_hash(None), b.key_hash(None));
        // Equal rows agree under whole-row hashing.
        assert_eq!(a.key_hash(None), a.clone().key_hash(None));
        let p = a.partition_of(Some(&[0]), 4);
        assert!(p < 4);
        assert_eq!(p, b.partition_of(Some(&[0]), 4));
    }
}
