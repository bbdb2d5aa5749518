//! The key index: distinct key tuples numbered in the order they first
//! occur. It is the one structure under every place that numbers keys — the
//! semi-join's shipping ordinals, the client's memo, GROUP BY's group ids and
//! the hash join's build side — and its hash kernel is the one every key
//! cell goes through.

use std::borrow::Cow;
use std::hash::{BuildHasher, RandomState};

use crate::lane::Lane;
use crate::value::Value;

/// Cell tags: a cell's kind enters its hash, so equal bits of two kinds
/// (`Int(1)` and `Bool(true)`, a `Str` and a `Blob` of one payload) hash
/// apart.
const NULL: u64 = 0;
const BOOL: u64 = 1;
const INT: u64 = 2;
const FLOAT: u64 = 3;
const STR: u64 = 4;
const BLOB: u64 = 5;

/// The multiplier of a fixed-width cell and of the key fold (2^64 / φ,
/// whose multiples spread sequential keys evenly).
const SPREAD: u64 = 0x9E37_79B9_7F4A_7C15;

/// The folded multiply: the 128-bit product of `a` and `b`, its halves
/// xored, so every bit of either factor reaches the low bits a slot is read
/// from.
#[inline(always)]
fn fold_mul(a: u64, b: u64) -> u64 {
    let p = a as u128 * b as u128;
    p as u64 ^ (p >> 64) as u64
}

/// The two little-endian words of a 16-byte chunk.
#[inline(always)]
fn words(chunk: &[u8; 16]) -> (u64, u64) {
    let w = u128::from_le_bytes(*chunk);
    (w as u64, (w >> 64) as u64)
}

/// An insertion-ordered index of key tuples, `width` cells each. Each
/// distinct tuple gets an ordinal, in first-occurrence order; keys live in
/// one flat vector indexed by ordinal, and an open-addressing index (linear
/// probing over `u32` slots, at most half full) finds a tuple's ordinal from
/// its hash.
///
/// The caller supplies the hash, the equality test and the key push, so a
/// tuple is read wherever it lives — a row, a batch's lanes — and a
/// duplicate builds no key row. A hash is each cell's hash
/// ([`hash_cell`](Self::hash_cell) on a [`Value`], [`hash_lane`](Self::hash_lane)
/// on a lane row, the same number) folded in key order
/// ([`fold`](Self::fold)). The cell hash is an in-tree keyed hash: two
/// random 64-bit seeds per index, one folded multiply for a fixed-width
/// cell, a `Str`/`Blob` payload folded 16 bytes a step with its length and
/// tag. It is keyed but not a PRF — the position hashbrown's default hasher
/// takes — so table data cannot aim keys at one slot without the seeds;
/// the probe-length test guards its spread. Equality, not the hash, decides
/// a key. The hash is kept per ordinal: growing the index re-seats keys and
/// never hashes one again.
pub struct KeyIndex {
    width: usize,
    /// The index's hash key: xored into a fixed-width cell's bits, and into
    /// a payload's words.
    seeds: [u64; 2],
    /// Ordinal + 1 per occupied slot, 0 for an empty one; a power of two.
    slots: Vec<u32>,
    /// Hash per ordinal (probe shortcut, and the re-seat input).
    hashes: Vec<u64>,
    /// `width` cells per ordinal.
    keys: Vec<Value>,
}

impl KeyIndex {
    /// An empty index of `width`-cell keys with room for `capacity` of them
    /// before it grows, keyed by two seeds drawn from std's random state.
    pub fn new(width: usize, capacity: usize) -> KeyIndex {
        let random = RandomState::new();
        KeyIndex {
            width,
            seeds: [random.hash_one(0u8), random.hash_one(1u8)],
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

    /// The hash of a fixed-width cell: its bits under the first seed, times
    /// the spread multiplier tagged with its kind, folded.
    #[inline]
    fn fixed(&self, tag: u64, bits: u64) -> u64 {
        fold_mul(bits ^ self.seeds[0], SPREAD ^ tag)
    }

    /// The hash of a `Str` or `Blob` payload: its length and tag as a
    /// fixed-width cell, then its bytes 16 a step, each step's two words
    /// folded with the running hash under the second seed. Whole 64-byte
    /// rounds run four running hashes side by side, so their multiplies
    /// overlap, and fold them back in order; the rest runs on one, its last
    /// step zero-padded.
    #[inline]
    fn payload(&self, tag: u64, bytes: &[u8]) -> u64 {
        let mix = |h: u64, (a, b): (u64, u64)| fold_mul(a ^ self.seeds[1], b ^ h);
        let mut h = self.fixed(tag, bytes.len() as u64);
        let (rounds, rest) = bytes.as_chunks::<64>();
        if !rounds.is_empty() {
            let mut lanes = [h, h ^ 1, h ^ 2, h ^ 3];
            for round in rounds {
                for (lane, chunk) in lanes.iter_mut().zip(round.as_chunks::<16>().0) {
                    *lane = mix(*lane, words(chunk));
                }
            }
            h = mix(mix(h, (lanes[0], lanes[1])), (lanes[2], lanes[3]));
        }
        let (chunks, tail) = rest.as_chunks::<16>();
        h = chunks.iter().fold(h, |h, chunk| mix(h, words(chunk)));
        if tail.is_empty() {
            return h;
        }
        let mut last = [0; 16];
        last[..tail.len()].copy_from_slice(tail);
        mix(h, words(&last))
    }

    /// The hash of one cell, by `Value` equality: equal values hash equal
    /// whatever buffer a `Str` or `Blob` views.
    #[inline]
    pub fn hash_cell(&self, cell: &Value) -> u64 {
        match cell {
            Value::Null => self.fixed(NULL, 0),
            Value::Bool(b) => self.fixed(BOOL, *b as u64),
            Value::Int(i) => self.fixed(INT, *i as u64),
            Value::Float(f) => self.fixed(FLOAT, f.to_bits()),
            Value::Str(s) => self.payload(STR, s.as_bytes()),
            Value::Blob(b) => self.payload(BLOB, b.as_bytes()),
        }
    }

    /// [`hash_cell`](Self::hash_cell)`(&lane.value(i))`, read in place: no
    /// `Value` is built.
    #[inline]
    pub fn hash_lane(&self, lane: &Lane, i: usize) -> u64 {
        match lane {
            _ if lane.is_null(i) => self.fixed(NULL, 0),
            Lane::Int { values, .. } => self.fixed(INT, values.get(i) as u64),
            Lane::Float { values, .. } => self.fixed(FLOAT, values[i].to_bits()),
            Lane::Bool { values, .. } => self.fixed(BOOL, values[i] as u64),
            Lane::StrDict { dict, codes } => self.payload(STR, dict[codes[i] as usize].as_bytes()),
            Lane::Values(values) => self.hash_cell(&values[i]),
        }
    }

    /// Fold one cell's hash into its key's running hash, which starts at 0
    /// (order-sensitive, so `(a, b)` and `(b, a)` differ).
    #[inline]
    pub fn fold(acc: u64, cell: u64) -> u64 {
        acc.wrapping_mul(SPREAD).rotate_left(31) ^ cell
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
    use crate::value::{Blob, Str};
    use crate::Row;
    use std::sync::Arc;

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

    /// Mean and longest probe of the index's keys: how many slots past its
    /// hash's home slot each key sits.
    fn probe_lengths(index: &KeyIndex) -> (f64, usize) {
        let mask = index.slots.len() - 1;
        let displaced = index
            .slots
            .iter()
            .enumerate()
            .filter(|(_, &o)| o != 0)
            .map(|(s, &o)| {
                let home = index.hashes[o as usize - 1] as usize & mask;
                s.wrapping_sub(home) & mask
            });
        let (sum, max) = displaced.fold((0, 0), |(sum, max), d| (sum + d, max.max(d)));
        (sum as f64 / index.len() as f64, max)
    }

    #[test]
    fn equal_values_hash_equal_across_backing_buffers() {
        let index = KeyIndex::new(1, 0);
        let (a, b) = (
            Arc::new(b"--payload bytes--".to_vec()),
            Arc::new(b"payload bytes".to_vec()),
        );
        let blobs = [
            Value::Blob(Blob::view(a.clone(), 2, 13)),
            Value::Blob(Blob::view(b.clone(), 0, 13)),
            Value::Blob(Blob::new(b"payload bytes".to_vec())),
        ];
        let strs = [
            Value::Str(Str::view(a, 2, 13)),
            Value::Str(Str::view(b, 0, 13)),
            Value::from("payload bytes"),
        ];
        for group in [&blobs, &strs] {
            let hashes: Vec<u64> = group.iter().map(|v| index.hash_cell(v)).collect();
            assert!(hashes.iter().all(|&h| h == hashes[0]), "{group:?}");
        }
        let mut index = index;
        let ordinals: Vec<usize> = blobs
            .iter()
            .chain(&strs)
            .map(|v| insert(&mut index, None, std::slice::from_ref(v)).0)
            .collect();
        assert_eq!(ordinals, [0, 0, 0, 1, 1, 1]);
    }

    #[test]
    fn every_kind_of_cell_is_a_key_of_its_own() {
        let mut index = KeyIndex::new(1, 0);
        let cells = [
            Value::Null,
            Value::Int(1),
            Value::Float(1.0),
            Value::Bool(true),
            Value::from("\u{1}"),
            Value::Blob(Blob::new(vec![1])),
        ];
        for (o, cell) in cells.iter().enumerate() {
            assert_eq!(
                insert(&mut index, None, std::slice::from_ref(cell)),
                (o, true),
                "{cell:?}"
            );
        }
        let mut hashes: Vec<u64> = cells.iter().map(|c| index.hash_cell(c)).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), cells.len(), "the tag separates equal bits");
    }

    #[test]
    fn a_lane_row_hashes_as_its_value() {
        let index = KeyIndex::new(1, 0);
        let lane = |values: Vec<Value>| {
            let rows: Vec<Row> = values.into_iter().map(|v| Row::new(vec![v])).collect();
            Lane::build(&rows, 0)
        };
        let (null, int) = (Value::Null, Value::Int);
        let lanes = [
            lane(vec![int(-128), null.clone(), int(127)]),
            lane(vec![int(-32_768), null.clone(), int(300)]),
            lane(vec![int(i32::MIN as i64), null.clone(), int(70_000)]),
            lane(vec![int(i64::MIN), null.clone(), int(i64::MAX)]),
            lane(vec![
                Value::Float(-0.0),
                null.clone(),
                Value::Float(f64::NAN),
            ]),
            lane(vec![Value::Bool(false), null.clone(), Value::Bool(true)]),
            lane(vec![Value::from("a"), null.clone(), Value::from("a")]),
            lane(vec![
                Value::Float(1.0),
                null,
                Value::Blob(Blob::synthetic(20, 3)),
            ]),
        ];
        let kinds: Vec<String> = lanes
            .iter()
            .map(|l| match l {
                Lane::Int { values, .. } => format!("int{}", values.width()),
                Lane::Float { .. } => "float".into(),
                Lane::Bool { .. } => "bool".into(),
                Lane::StrDict { codes, .. } => format!("dict{}", codes[1] == u32::MAX),
                Lane::Values(_) => "values".into(),
            })
            .collect();
        assert_eq!(
            kinds,
            ["int1", "int2", "int4", "int8", "float", "bool", "dicttrue", "values"]
        );
        for lane in &lanes {
            for i in 0..lane.len() {
                assert_eq!(
                    index.hash_lane(lane, i),
                    index.hash_cell(&lane.value(i)),
                    "{lane:?} row {i}"
                );
            }
        }
    }

    #[test]
    fn every_tail_length_is_hashed() {
        // Lengths 0..=48 cover zero to three whole 16-byte steps and every
        // tail length after each; 64..=200, the same after one to three
        // 64-byte rounds. Zero payloads differ only in length, and flipping
        // any one byte moves the hash.
        let index = KeyIndex::new(1, 0);
        let blob = |bytes: &[u8]| index.hash_cell(&Value::Blob(Blob::new(bytes.to_vec())));
        let mut zeros: Vec<u64> = (0..=200).map(|len| blob(&vec![0; len])).collect();
        zeros.sort_unstable();
        zeros.dedup();
        assert_eq!(zeros.len(), 201);
        for len in (0..=48).chain(64..=200) {
            let bytes: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37)).collect();
            let mut framed = vec![0xAA; 3];
            framed.extend_from_slice(&bytes);
            let view = Value::Blob(Blob::view(Arc::new(framed), 3, len));
            assert_eq!(index.hash_cell(&view), blob(&bytes), "length {len}");
            for p in 0..len {
                let mut flipped = bytes.clone();
                flipped[p] ^= 0x01;
                assert_ne!(blob(&flipped), blob(&bytes), "length {len}, byte {p}");
            }
        }
        // Order counts: swapping any two 16-byte steps of 200 bytes — in one
        // round, across rounds, or with the rest — moves the hash.
        let bytes: Vec<u8> = (0..200u8).collect();
        for (i, j) in (0..12).flat_map(|i| (i + 1..12).map(move |j| (i, j))) {
            let mut swapped = bytes.clone();
            let (head, tail) = swapped.split_at_mut(16 * j);
            head[16 * i..16 * i + 16].swap_with_slice(&mut tail[..16]);
            assert_ne!(blob(&swapped), blob(&bytes), "steps {i} and {j}");
        }
    }

    #[test]
    fn probe_lengths_stay_bounded() {
        // Linear probing reads a slot from the hash's low bits: a kernel
        // that leaves them to the key's low bits would pile the second set
        // into one run, and one that hashes a payload's prefix the third.
        let mut sets: Vec<(&str, Vec<Value>)> = vec![
            ("sequential", (0..1 << 16).map(Value::Int).collect()),
            (
                "low bits constant",
                (0..1 << 16).map(|i| Value::Int(i << 16 | 0x5A5A)).collect(),
            ),
        ];
        let base = Blob::synthetic(1024, 7).as_bytes().to_vec();
        let blobs = (0..1usize << 14).map(|k| {
            let mut bytes = base.clone();
            bytes[k * 97 % 1024] ^= 1 + (k / 1024) as u8;
            Value::Blob(Blob::new(bytes))
        });
        sets.push(("one byte apart", blobs.collect()));
        for (name, keys) in sets {
            let mut index = KeyIndex::new(1, 0);
            for (o, key) in keys.iter().enumerate() {
                assert_eq!(
                    insert(&mut index, None, std::slice::from_ref(key)),
                    (o, true),
                    "{name}"
                );
            }
            // At half load a random hash averages half a slot, and its
            // longest probe runs to a few dozen.
            let (mean, max) = probe_lengths(&index);
            assert!(mean < 1.0 && max < 128, "{name}: mean {mean}, max {max}");
        }
    }
}
