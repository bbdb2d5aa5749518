//! The argument index: distinct argument tuples numbered in the order they
//! first occur — the semi-join's shipping ordinals and the client's memo.

use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash, Hasher};

use crate::row::Row;
use crate::value::Value;

/// An insertion-ordered index of argument tuples: the cells of a row at
/// fixed column ordinals. Each distinct tuple gets an ordinal, in
/// first-occurrence order; keys live in one flat vector indexed by ordinal,
/// and an open-addressing index (linear probing over `slots`, at most half
/// full) finds a tuple's ordinal from its hash.
///
/// A tuple's cells are read through one accessor — from a row, or from a
/// batch's lanes ([`insert_by`](Self::insert_by)) — hashed straight from
/// there in one keyed SipHash stream (std's `RandomState`, so the index
/// keeps the collision resistance `HashMap` has) and compared by `Value`
/// equality, so a duplicate builds no key row. The hash is kept per key:
/// growing the index re-seats keys and never hashes one again.
pub struct ArgIndex {
    cols: Vec<usize>,
    hasher: RandomState,
    /// Ordinal + 1 per occupied slot, 0 for an empty one; a power of two.
    slots: Vec<usize>,
    /// Hash per ordinal (probe shortcut, and the re-seat input).
    hashes: Vec<u64>,
    /// `cols.len()` values per ordinal.
    keys: Vec<Value>,
}

impl ArgIndex {
    /// An empty index over the argument columns `cols`.
    pub fn new(cols: Vec<usize>) -> ArgIndex {
        ArgIndex {
            cols,
            hasher: RandomState::new(),
            slots: vec![0; 16],
            hashes: Vec::new(),
            keys: Vec::new(),
        }
    }

    /// The argument columns, as row ordinals.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Distinct tuples numbered so far.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True when no tuple has been numbered.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// The ordinal of `row`'s argument tuple, and whether this call numbered
    /// it (the tuple's first occurrence).
    pub fn insert(&mut self, row: &Row) -> (usize, bool) {
        self.insert_by(|c| Cow::Borrowed(row.value(c)))
    }

    /// [`insert`](Self::insert) for the tuple whose cell at `c` is `cell(c)`.
    pub fn insert_by<'v>(&mut self, cell: impl Fn(usize) -> Cow<'v, Value>) -> (usize, bool) {
        let mut h = self.hasher.build_hasher();
        for &c in &self.cols {
            cell(c).hash(&mut h);
        }
        self.insert_hashed(h.finish(), cell)
    }

    fn insert_hashed<'v>(
        &mut self,
        hash: u64,
        cell: impl Fn(usize) -> Cow<'v, Value>,
    ) -> (usize, bool) {
        let mask = self.slots.len() - 1;
        let mut s = hash as usize & mask;
        while self.slots[s] != 0 {
            let o = self.slots[s] - 1;
            if self.hashes[o] == hash
                && self
                    .cols
                    .iter()
                    .zip(self.key(o))
                    .all(|(&c, k)| *cell(c) == *k)
            {
                return (o, false);
            }
            s = (s + 1) & mask;
        }
        let o = self.hashes.len();
        self.hashes.push(hash);
        self.keys
            .extend(self.cols.iter().map(|&c| cell(c).into_owned()));
        self.slots[s] = o + 1;
        if self.hashes.len() * 2 > self.slots.len() {
            self.reseat(self.slots.len() * 2);
        }
        (o, true)
    }

    fn key(&self, ordinal: usize) -> &[Value] {
        let w = self.cols.len();
        &self.keys[ordinal * w..][..w]
    }

    /// The tuples numbered `from` and after, in ordinal order.
    pub fn keys(&self, from: usize) -> impl ExactSizeIterator<Item = &[Value]> + Clone {
        (from..self.len()).map(|o| self.key(o))
    }

    /// Forget the tuples numbered `len` and after.
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.hashes.truncate(len);
            self.keys.truncate(len * self.cols.len());
            self.reseat(self.slots.len());
        }
    }

    /// Rebuild the index at `capacity` slots from the stored hashes.
    fn reseat(&mut self, capacity: usize) {
        let mask = capacity - 1;
        self.slots = vec![0; capacity];
        for (o, &h) in self.hashes.iter().enumerate() {
            let mut s = h as usize & mask;
            while self.slots[s] != 0 {
                s = (s + 1) & mask;
            }
            self.slots[s] = o + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Blob;

    fn one(v: Value) -> Row {
        Row::new(vec![Value::Int(-1), v])
    }

    /// `insert_hashed` under a fixed hash, the cells read from `row`.
    fn insert_at(index: &mut ArgIndex, hash: u64, row: &Row) -> (usize, bool) {
        index.insert_hashed(hash, |c| Cow::Borrowed(row.value(c)))
    }

    fn keys(index: &ArgIndex) -> Vec<Vec<Value>> {
        index.keys(0).map(<[Value]>::to_vec).collect()
    }

    #[test]
    fn ordinals_follow_first_occurrence_across_growths() {
        let mut index = ArgIndex::new(vec![1]);
        // 100 distinct keys grow the 16-slot index four times, to 256 slots;
        // every key repeats at once and again after the last growth.
        for i in 0..100 {
            assert_eq!(index.insert(&one(Value::Int(i * 7))), (i as usize, true));
            assert_eq!(index.insert(&one(Value::Int(i * 7))), (i as usize, false));
        }
        assert_eq!(index.slots.len(), 256);
        for i in (0..100).rev() {
            assert_eq!(index.insert(&one(Value::Int(i * 7))), (i as usize, false));
        }
        assert_eq!(index.len(), 100);
        let expected: Vec<Vec<Value>> = (0..100).map(|i| vec![Value::Int(i * 7)]).collect();
        assert_eq!(keys(&index), expected);
        assert_eq!(index.keys(98).len(), 2);
    }

    #[test]
    fn colliding_hashes_still_get_distinct_ordinals() {
        // Every key under one hash and with the same first cell: one probe
        // chain, told apart by equality on the second cell, through growths
        // and a truncation.
        let mut index = ArgIndex::new(vec![0, 1]);
        let values: Vec<Value> = (0..40)
            .map(|i| Value::Blob(Blob::synthetic(8, i)))
            .collect();
        for round in 0..2 {
            for (i, v) in values.iter().enumerate() {
                assert_eq!(insert_at(&mut index, 42, &one(v.clone())), (i, round == 0));
            }
        }
        index.truncate(10);
        assert_eq!(
            insert_at(&mut index, 42, &one(values[3].clone())),
            (3, false)
        );
        assert_eq!(
            insert_at(&mut index, 42, &one(values[30].clone())),
            (10, true)
        );
        assert_eq!(index.len(), 11);
    }

    #[test]
    fn null_and_multi_column_keys_resolve() {
        let mut index = ArgIndex::new(vec![2, 0]);
        let row = |a: Value, b: Value| Row::new(vec![a, Value::from("ignored"), b]);
        let n = Value::Null;
        assert_eq!(index.insert(&row(n.clone(), n.clone())), (0, true));
        assert_eq!(index.insert(&row(Value::Int(1), n.clone())), (1, true));
        assert_eq!(index.insert(&row(n.clone(), Value::Int(1))), (2, true));
        assert_eq!(index.insert(&row(Value::Float(1.0), n.clone())), (3, true));
        // Cells are read at the index's columns, in its order.
        assert_eq!(index.insert(&row(n.clone(), n.clone())), (0, false));
        assert_eq!(index.insert(&row(n.clone(), Value::Int(1))), (2, false));
        assert_eq!(
            keys(&index)[2],
            vec![Value::Int(1), Value::Null],
            "a key is its cells at cols [2, 0]"
        );
    }
}
