//! The key index: distinct key tuples numbered in the order they first
//! occur. It is the one structure under every place that numbers keys — the
//! semi-join's shipping ordinals, the client's memo, GROUP BY's group ids and
//! the hash join's build side.

use std::borrow::Cow;
use std::hash::{BuildHasher, RandomState};

use crate::value::Value;

/// An insertion-ordered index of key tuples, `width` cells each. Each
/// distinct tuple gets an ordinal, in first-occurrence order; keys live in
/// one flat vector indexed by ordinal, and an open-addressing index (linear
/// probing over `u32` slots, at most half full) finds a tuple's ordinal from
/// its hash.
///
/// The caller supplies the hash, the equality test and the key push, so a
/// tuple is read wherever it lives — a row, a batch's lanes — and a
/// duplicate builds no key row. A hash is each cell's hash as the [`Value`]
/// it is ([`hash_cell`](Self::hash_cell), std's randomly seeded SipHash, so
/// the index keeps the collision resistance `HashMap` has), the cells folded
/// in key order ([`fold`](Self::fold)). The hash is kept per ordinal:
/// growing the index re-seats keys and never hashes one again.
pub struct KeyIndex {
    width: usize,
    hasher: RandomState,
    /// Ordinal + 1 per occupied slot, 0 for an empty one; a power of two.
    slots: Vec<u32>,
    /// Hash per ordinal (probe shortcut, and the re-seat input).
    hashes: Vec<u64>,
    /// `width` cells per ordinal.
    keys: Vec<Value>,
}

impl KeyIndex {
    /// An empty index of `width`-cell keys with room for `capacity` of them
    /// before it grows.
    pub fn new(width: usize, capacity: usize) -> KeyIndex {
        KeyIndex {
            width,
            hasher: RandomState::new(),
            slots: vec![0; (capacity * 2).next_power_of_two().max(16)],
            hashes: Vec::with_capacity(capacity),
            keys: Vec::with_capacity(capacity * width),
        }
    }

    /// Cells per key.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Distinct keys numbered so far.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True when no key has been numbered.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// The hash of one cell, as the `Value` it is.
    #[inline]
    pub fn hash_cell(&self, cell: &Value) -> u64 {
        self.hasher.hash_one(cell)
    }

    /// Fold one cell's hash into its key's running hash, which starts at 0
    /// (order-sensitive, so `(a, b)` and `(b, a)` differ).
    #[inline]
    pub fn fold(acc: u64, cell: u64) -> u64 {
        acc.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31) ^ cell
    }

    /// The ordinal of the key that hashes to `hash` and that `eq` accepts,
    /// or the empty slot where such a key would go.
    #[inline]
    fn probe(&self, hash: u64, eq: impl Fn(&[Value]) -> bool) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut s = hash as usize & mask;
        loop {
            match self.slots[s] {
                0 => return Err(s),
                slot => {
                    let o = slot as usize - 1;
                    if self.hashes[o] == hash && eq(self.key(o)) {
                        return Ok(o);
                    }
                }
            }
            s = (s + 1) & mask;
        }
    }

    /// The ordinal of the key that hashes to `hash` and that `eq` accepts,
    /// and whether this call numbered it: when no key matches, `push`
    /// appends the new key's `width` cells.
    #[inline]
    pub fn insert(
        &mut self,
        hash: u64,
        eq: impl Fn(&[Value]) -> bool,
        push: impl FnOnce(&mut Vec<Value>),
    ) -> (usize, bool) {
        let s = match self.probe(hash, eq) {
            Ok(o) => return (o, false),
            Err(s) => s,
        };
        let o = self.hashes.len();
        assert!(o < u32::MAX as usize, "key ordinals are 32 bits");
        self.hashes.push(hash);
        push(&mut self.keys);
        self.slots[s] = o as u32 + 1;
        if self.hashes.len() * 2 > self.slots.len() {
            self.reseat(self.slots.len() * 2);
        }
        (o, true)
    }

    /// The hash of the key whose cells are `cell(c)` for each `c` of `cols`.
    #[inline]
    fn hash_by<'v>(&self, cols: &[usize], cell: &impl Fn(usize) -> Cow<'v, Value>) -> u64 {
        cols.iter()
            .fold(0, |h, &c| KeyIndex::fold(h, self.hash_cell(&cell(c))))
    }

    /// [`insert`](Self::insert) for the key whose cells are `cell(c)` for
    /// each `c` of `cols` — a row's cells, or a batch row's in its lanes.
    pub fn insert_by<'v>(
        &mut self,
        cols: &[usize],
        cell: impl Fn(usize) -> Cow<'v, Value>,
    ) -> (usize, bool) {
        let hash = self.hash_by(cols, &cell);
        self.insert(
            hash,
            |key| cols.iter().zip(key).all(|(&c, k)| *cell(c) == *k),
            |out| out.extend(cols.iter().map(|&c| cell(c).into_owned())),
        )
    }

    /// The ordinal of the key whose cells are `cell(c)` for each `c` of
    /// `cols`, if it has one.
    pub fn find_by<'v>(
        &self,
        cols: &[usize],
        cell: impl Fn(usize) -> Cow<'v, Value>,
    ) -> Option<usize> {
        let hash = self.hash_by(cols, &cell);
        self.probe(hash, |key| {
            cols.iter().zip(key).all(|(&c, k)| *cell(c) == *k)
        })
        .ok()
    }

    /// The key numbered `ordinal`.
    #[inline]
    pub fn key(&self, ordinal: usize) -> &[Value] {
        &self.keys[ordinal * self.width..][..self.width]
    }

    /// The keys numbered `from` and after, in ordinal order.
    pub fn keys(&self, from: usize) -> impl ExactSizeIterator<Item = &[Value]> + Clone {
        (from..self.len()).map(|o| self.key(o))
    }

    /// Forget the keys numbered `len` and after.
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.hashes.truncate(len);
            self.keys.truncate(len * self.width);
            self.reseat(self.slots.len());
        }
    }

    /// Forget every key, handing back their cells in ordinal order. The
    /// index keeps its size, ready to number keys from 0 again.
    pub fn clear(&mut self) -> Vec<Value> {
        self.hashes.clear();
        self.slots.fill(0);
        std::mem::take(&mut self.keys)
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
            self.slots[s] = o as u32 + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Blob;

    /// Number the key `cells` under `hash`, or under its own hash.
    fn insert(index: &mut KeyIndex, hash: Option<u64>, cells: &[Value]) -> (usize, bool) {
        let cell = |c: usize| Cow::Borrowed(&cells[c]);
        let cols: Vec<usize> = (0..cells.len()).collect();
        match hash {
            None => index.insert_by(&cols, cell),
            Some(h) => index.insert(h, |key| key == cells, |out| out.extend_from_slice(cells)),
        }
    }

    fn keys(index: &KeyIndex) -> Vec<Vec<Value>> {
        index.keys(0).map(<[Value]>::to_vec).collect()
    }

    #[test]
    fn ordinals_follow_first_occurrence_across_growths() {
        let mut index = KeyIndex::new(1, 0);
        // 100 distinct keys grow the 16-slot index four times, to 256 slots;
        // every key repeats at once and again after the last growth.
        let key = |i: i64| [Value::Int(i * 7)];
        for i in 0..100 {
            assert_eq!(insert(&mut index, None, &key(i)), (i as usize, true));
            assert_eq!(insert(&mut index, None, &key(i)), (i as usize, false));
        }
        assert_eq!(index.slots.len(), 256);
        for i in (0..100).rev() {
            assert_eq!(insert(&mut index, None, &key(i)), (i as usize, false));
            let found = index.find_by(&[0], |_| Cow::Owned(key(i)[0].clone()));
            assert_eq!(found, Some(i as usize));
        }
        assert_eq!(index.find_by(&[0], |_| Cow::Owned(Value::Int(3))), None);
        assert_eq!(
            keys(&index),
            (0..100).map(|i| key(i).to_vec()).collect::<Vec<_>>()
        );
        assert_eq!(index.keys(98).len(), 2);
    }

    #[test]
    fn colliding_hashes_still_get_distinct_ordinals() {
        // Every key under one hash and with the same first cell: one probe
        // chain, told apart by equality on the second cell, through growths
        // and a truncation.
        let mut index = KeyIndex::new(2, 0);
        let key = |i: usize| [Value::Int(-1), Value::Blob(Blob::synthetic(8, i as u64))];
        for round in 0..2 {
            for i in 0..40 {
                assert_eq!(insert(&mut index, Some(42), &key(i)), (i, round == 0));
            }
        }
        index.truncate(10);
        assert_eq!(insert(&mut index, Some(42), &key(3)), (3, false));
        assert_eq!(insert(&mut index, Some(42), &key(30)), (10, true));
        assert_eq!(index.len(), 11);
    }

    #[test]
    fn null_and_multi_column_keys_resolve() {
        let mut index = KeyIndex::new(2, 0);
        let (n, one) = (Value::Null, Value::Int(1));
        let keys = [
            [n.clone(), n.clone()],
            [one.clone(), n.clone()],
            [n.clone(), one.clone()],
            [Value::Float(1.0), n.clone()],
            [n.clone(), n.clone()],
        ];
        let expected = [(0, true), (1, true), (2, true), (3, true), (0, false)];
        for (key, expected) in keys.iter().zip(expected) {
            assert_eq!(insert(&mut index, None, key), expected);
        }
        // Cells are read at the key's columns, in their order.
        let row = [n, Value::from("ignored"), one];
        let mut at = |cols: &[usize]| index.insert_by(cols, |c| Cow::Borrowed(&row[c]));
        assert_eq!(at(&[2, 0]), (1, false));
        assert_eq!(at(&[0, 2]), (2, false));
    }

    #[test]
    fn a_cleared_index_numbers_from_zero_again() {
        let mut index = KeyIndex::new(1, 0);
        for i in 0..40 {
            insert(&mut index, None, &[Value::Int(i)]);
        }
        let slots = index.slots.len();
        assert_eq!(index.clear(), (0..40).map(Value::Int).collect::<Vec<_>>());
        assert!(index.is_empty());
        assert_eq!(index.slots.len(), slots, "the index keeps its size");
        // Keys met before the clear are new again, numbered from 0, and a
        // later repeat finds the new ordinal.
        for (i, expected) in [
            (39, (0, true)),
            (5, (1, true)),
            (39, (0, false)),
            (100, (2, true)),
        ] {
            assert_eq!(insert(&mut index, None, &[Value::Int(i)]), expected);
        }
        assert_eq!(keys(&index), [39, 5, 100].map(|i| vec![Value::Int(i)]));
    }
}
