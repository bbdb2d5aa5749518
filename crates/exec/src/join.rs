//! The join operator.
//!
//! The paper models UDF application as an equi-join with a virtual,
//! index-only UDF table (§2.2); the shipping receivers in `csq-ship` do that
//! join themselves. [`HashJoin`] is the one operator for ordinary table
//! joins: lowering builds every SQL join as one, keyed on the equi-conjuncts
//! it can decide exactly (none: the cross product), under a `Filter` holding
//! the whole join predicate. Inputs are pulled a [`RowBatch`] at a time;
//! output batches hold at most [`DEFAULT_BATCH_SIZE`] rows, however far one
//! probe row fans out. Each build table — the in-memory one, or the one of
//! the Grace partition being joined — holds its tracked bytes while it is
//! probed; a join with no key never partitions.

use std::borrow::Cow;
use std::sync::Arc;
use std::vec::IntoIter;

use csq_common::{KeyIndex, Result, Row, RowBatch, Schema, DEFAULT_BATCH_SIZE};

use crate::ops::{batch_operator, Operator};
use crate::spill::{
    partition_rows, spill_partitions, MemoryTracker, Reservation, SpillFile, SpillReader,
    ENTRY_OVERHEAD,
};

/// Hash equi-join: builds the right input, probes with the left, one batch
/// of probe rows at a time. Output schema = left ⊕ right; output order is
/// probe order, then build order within a key. With no key columns every
/// build row is in the one chain, so the join is the cross product in
/// left-major order.
///
/// Every build table registers its bytes with the join's [`MemoryTracker`]
/// (unlimited unless one is attached via [`with_memory`](HashJoin::with_memory))
/// and gives them back when it goes. Under a budget a keyed join becomes a
/// Grace hash join: if the build side exceeds the budget, both sides are
/// hash-partitioned by join key into temp files and each partition pair is
/// joined independently — the build table of one partition in memory and
/// tracked, its probe rows streamed frame by frame. Matching keys land in
/// matching partitions, so the result set is identical to the in-memory
/// join up to row order (partition-major, then the same order within a
/// partition). A join with no key never partitions: every row would land in
/// the one partition.
pub struct HashJoin {
    left: Box<dyn Operator + Send>,
    /// The build input, until the first pull builds from it.
    right: Option<Box<dyn Operator + Send>>,
    left_key: Vec<usize>,
    right_key: Vec<usize>,
    schema: Arc<Schema>,
    state: JoinState,
    /// The probe rows still to join, the first of them from build row
    /// `chain` on ([`END`]: not looked up yet).
    probe: IntoIter<Row>,
    chain: usize,
    /// Byte budget shared with other operators.
    memory: Arc<MemoryTracker>,
    spill_events: usize,
}

/// Where a [`HashJoin`] is.
enum JoinState {
    /// Built in memory; the probe side streams past it.
    InMemory(BuildTable),
    /// Built into partitions: the pair being joined (its build table and
    /// probe reader), and the pairs left.
    Grace {
        current: Option<(BuildTable, SpillReader)>,
        parts: std::iter::Zip<IntoIter<SpillFile>, IntoIter<SpillFile>>,
    },
    /// Not built yet, drained, or its build failed (returned once).
    Done,
}

/// One build side in memory: its rows, their keys numbered through a
/// [`KeyIndex`], per key ordinal the chain of the rows that carry it, in
/// build order, and the bytes it holds against the join's tracker.
struct BuildTable {
    keys: KeyIndex,
    reserved: Reservation,
    rows: Vec<Row>,
    /// The first and the last build row of each key ordinal.
    first: Vec<usize>,
    last: Vec<usize>,
    /// Per build row, the next one with the same key; [`END`] after the last.
    next: Vec<usize>,
}

const END: usize = usize::MAX;

impl BuildTable {
    fn new(width: usize, memory: &Arc<MemoryTracker>) -> BuildTable {
        BuildTable {
            keys: KeyIndex::new(width, 0),
            reserved: Reservation::new(memory),
            rows: Vec::new(),
            first: Vec::new(),
            last: Vec::new(),
            next: Vec::new(),
        }
    }

    /// Add `rows`, each under its key at `cols`, registering their wire
    /// size and a fixed cost a row.
    fn extend(&mut self, cols: &[usize], rows: Vec<Row>) {
        let bytes = rows.iter().map(|r| r.wire_size() + ENTRY_OVERHEAD).sum();
        self.reserved.grow(bytes);
        for row in rows {
            let r = self.rows.len();
            let (o, new) = self.keys.insert_by(cols, |c| Cow::Borrowed(row.value(c)));
            if new {
                self.first.push(r);
                self.last.push(r);
            } else {
                self.next[self.last[o]] = r;
                self.last[o] = r;
            }
            self.next.push(END);
            self.rows.push(row);
        }
    }

    /// Join each of `probe`'s rows, the first from build row `chain` on,
    /// with every build row of its key at `cols` onto `out` — probe order,
    /// then build order — until `out` holds a batch or the rows run out;
    /// `probe` and `chain` keep the place. A key with a NULL cell matches
    /// nothing (SQL semantics), though `Value` equality would pair it.
    fn probe(
        &self,
        cols: &[usize],
        probe: &mut IntoIter<Row>,
        chain: &mut usize,
        out: &mut Vec<Row>,
    ) {
        while let (Some(l), true) = (probe.as_slice().first(), out.len() < DEFAULT_BATCH_SIZE) {
            if *chain == END && !cols.iter().any(|&c| l.value(c).is_null()) {
                let found = self.keys.find_by(cols, |c| Cow::Borrowed(l.value(c)));
                *chain = found.map_or(END, |o| self.first[o]);
            }
            if *chain != END {
                out.push(l.join(&self.rows[*chain]));
                *chain = self.next[*chain];
            }
            if *chain == END {
                probe.next();
            }
        }
    }
}

impl HashJoin {
    /// Join `left` and `right` on equality of each `(left, right)` pair of
    /// key columns; no pairs is the cross product.
    pub fn new(
        left: Box<dyn Operator + Send>,
        right: Box<dyn Operator + Send>,
        keys: Vec<(usize, usize)>,
    ) -> HashJoin {
        let (left_key, right_key) = keys.into_iter().unzip();
        let schema = Arc::new(left.schema().join(right.schema()));
        HashJoin {
            left,
            right: Some(right),
            left_key,
            right_key,
            schema,
            state: JoinState::Done,
            probe: Vec::new().into_iter(),
            chain: END,
            memory: MemoryTracker::unlimited(),
            spill_events: 0,
        }
    }

    /// Attach a shared memory budget: a keyed build side that exceeds it
    /// degrades into a partition-wise Grace join (see the struct docs).
    pub fn with_memory(mut self, tracker: Arc<MemoryTracker>) -> HashJoin {
        self.memory = tracker;
        self
    }

    /// Times the build side spilled to disk (0 or 1 for a hash join).
    pub fn spill_events(&self) -> usize {
        self.spill_events
    }

    /// Build the right side: into an in-memory table, or — when a keyed
    /// build crosses the budget — into hash partitions on disk, in which
    /// case the entire probe side is partitioned too and Grace takes over.
    fn build(&mut self, mut right: Box<dyn Operator + Send>) -> Result<JoinState> {
        let width = self.right_key.len();
        let mut table = BuildTable::new(width, &self.memory);
        let mut spill: Option<Vec<SpillFile>> = None;
        let mut scratch: Vec<Vec<Row>> = Vec::new();
        while let Some(batch) = right.next_batch()? {
            if let Some(parts) = spill.as_mut() {
                let rows = batch.into_rows();
                partition_rows(parts, Some(&self.right_key), rows, &mut scratch)?;
                continue;
            }
            table.extend(&self.right_key, batch.into_rows());
            if width > 0 && self.memory.over_budget() && !table.rows.is_empty() {
                // Flush the build table to partitions (its bytes go back
                // with it) and keep partitioning the rest of the input
                // straight to disk.
                let mut parts = spill_partitions();
                let rows = std::mem::replace(&mut table, BuildTable::new(width, &self.memory)).rows;
                partition_rows(&mut parts, Some(&self.right_key), rows, &mut scratch)?;
                self.memory.record_spill();
                self.spill_events += 1;
                spill = Some(parts);
            }
        }
        let Some(build_parts) = spill else {
            return Ok(JoinState::InMemory(table));
        };
        let mut probe_parts = spill_partitions();
        while let Some(batch) = self.left.next_batch()? {
            let rows = batch.into_rows();
            partition_rows(&mut probe_parts, Some(&self.left_key), rows, &mut scratch)?;
        }
        Ok(JoinState::Grace {
            current: None,
            parts: build_parts.into_iter().zip(probe_parts),
        })
    }

    fn produce(&mut self) -> Result<Option<RowBatch>> {
        if let Some(right) = self.right.take() {
            self.state = self.build(right)?;
        }
        let mut out = Vec::new();
        while out.len() < DEFAULT_BATCH_SIZE {
            let table = match &mut self.state {
                JoinState::InMemory(table) => {
                    if self.probe.len() == 0 {
                        let Some(batch) = self.left.next_batch()? else {
                            self.state = JoinState::Done;
                            break;
                        };
                        self.probe = batch.into_rows().into_iter();
                    }
                    &*table
                }
                JoinState::Grace { current, parts } => match current {
                    Some((table, reader)) => {
                        if self.probe.len() == 0 {
                            let Some(frame) = reader.next_frame()? else {
                                *current = None;
                                continue;
                            };
                            self.probe = frame.into_iter();
                        }
                        &*table
                    }
                    None => {
                        let Some((build, probe)) = parts.next() else {
                            self.state = JoinState::Done;
                            break;
                        };
                        let mut table = BuildTable::new(self.right_key.len(), &self.memory);
                        table.extend(&self.right_key, build.into_reader()?.read_all()?);
                        *current = Some((table, probe.into_reader()?));
                        continue;
                    }
                },
                JoinState::Done => break,
            };
            table.probe(&self.left_key, &mut self.probe, &mut self.chain, &mut out);
        }
        Ok((!out.is_empty()).then(|| RowBatch::from_rows(self.schema.clone(), out)))
    }
}

batch_operator!(HashJoin);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testing::{assert_latched, FailsAfter};
    use crate::ops::{collect, Filter, RowsOp};
    use csq_common::{DataType, Field, Value};
    use csq_expr::{bind, Expr};

    fn side(name_prefix: &str, vals: &[(i64, &str)]) -> (Schema, Vec<Row>) {
        let schema = Schema::new(vec![
            Field::new(format!("{name_prefix}_k"), DataType::Int),
            Field::new(format!("{name_prefix}_v"), DataType::Str),
        ]);
        let rows = vals
            .iter()
            .map(|&(k, v)| Row::new(vec![Value::Int(k), Value::from(v)]))
            .collect();
        (schema, rows)
    }

    #[test]
    fn hash_join_matches_keys() {
        let (ls, lr) = side("l", &[(1, "a"), (2, "b"), (3, "c")]);
        let (rs, rr) = side("r", &[(2, "x"), (3, "y"), (3, "z"), (4, "w")]);
        let mut j = HashJoin::new(
            Box::new(RowsOp::new(ls, lr)),
            Box::new(RowsOp::new(rs, rr)),
            vec![(0, 0)],
        );
        let out = collect(&mut j).unwrap();
        assert_eq!(out.len(), 3); // 2 joins once, 3 joins twice
        assert_eq!(j.schema().len(), 4);
        for r in &out {
            assert_eq!(r.value(0), r.value(2));
        }
    }

    #[test]
    fn hash_join_null_keys_never_match() {
        let schema = Schema::new(vec![Field::new("k", DataType::Int)]);
        let l = vec![Row::new(vec![Value::Null]), Row::new(vec![Value::Int(1)])];
        let r = vec![Row::new(vec![Value::Null]), Row::new(vec![Value::Int(1)])];
        let mut j = HashJoin::new(
            Box::new(RowsOp::new(schema.clone(), l)),
            Box::new(RowsOp::new(schema, r)),
            vec![(0, 0)],
        );
        // Note: the build side stores NULL keys but probe-side NULLs skip.
        // A NULL probe never equals a NULL build key under SQL, and our Row
        // equality would match them, so the probe-side skip is required.
        let out = collect(&mut j).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn empty_key_join_is_the_cross_product() {
        let (ls, lr) = side("l", &[(1, "a"), (2, "b")]);
        let (rs, rr) = side("r", &[(1, "x"), (3, "y")]);
        let mut cross = HashJoin::new(
            Box::new(RowsOp::new(ls, lr)),
            Box::new(RowsOp::new(rs, rr)),
            vec![],
        );
        let pairs: Vec<String> = collect(&mut cross)
            .unwrap()
            .iter()
            .map(|r| format!("{}{}", r.value(1), r.value(3)))
            .collect();
        // Left-major, then build order: the nested loop's order.
        assert_eq!(pairs.join(" ").replace('\'', ""), "ax ay bx by");
    }

    #[test]
    fn empty_key_join_under_a_theta_filter() {
        let (ls, lr) = side("l", &[(1, "a"), (2, "b")]);
        let (rs, rr) = side("r", &[(1, "x"), (3, "y")]);
        let joined_schema = ls.join(&rs);
        let pred = bind(
            &Expr::binary(
                Expr::col_bare("l_k"),
                csq_expr::BinaryOp::Lt,
                Expr::col_bare("r_k"),
            ),
            &joined_schema,
        )
        .unwrap();
        let cross = HashJoin::new(
            Box::new(RowsOp::new(ls, lr)),
            Box::new(RowsOp::new(rs, rr)),
            vec![],
        );
        let out = collect(&mut Filter::new(Box::new(cross), pred)).unwrap();
        // (1,1):no (1,3):yes (2,1):no (2,3):yes
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn a_cross_product_leaves_in_full_batches() {
        // 40 × 60 = 2 400 pairs: more than two batches, some of them
        // resuming a probe row's chain mid-way, unbudgeted and over a budget
        // (an unkeyed join stays in memory either way).
        let (ls, _) = side("l", &[]);
        let (rs, _) = side("r", &[]);
        let rows = |n: i64| -> Vec<Row> {
            (0..n)
                .map(|i| Row::new(vec![Value::Int(i), Value::from("v")]))
                .collect()
        };
        for memory in [None, Some(MemoryTracker::new(0))] {
            let mut j = HashJoin::new(
                Box::new(RowsOp::new(ls.clone(), rows(40))),
                Box::new(RowsOp::new(rs.clone(), rows(60))),
                vec![],
            );
            if let Some(t) = &memory {
                j = j.with_memory(t.clone());
            }
            let mut sizes = Vec::new();
            let mut pairs = Vec::new();
            while let Some(b) = j.next_batch().unwrap() {
                sizes.push(b.len());
                pairs.extend(
                    b.into_rows()
                        .iter()
                        .map(|r| (r.value(0).clone(), r.value(2).clone())),
                );
            }
            assert_eq!(sizes, [DEFAULT_BATCH_SIZE, DEFAULT_BATCH_SIZE, 352]);
            let expected: Vec<_> = (0..40)
                .flat_map(|l| (0..60).map(move |r| (Value::Int(l), Value::Int(r))))
                .collect();
            assert_eq!(pairs, expected);
            if let Some(t) = memory {
                assert_eq!((j.spill_events(), t.used()), (0, 0));
            }
        }
    }

    #[test]
    fn grace_join_matches_in_memory() {
        // Build side far over the budget → partition-wise join; result must
        // equal the in-memory join up to order, including NULL-key semantics.
        let (ls, _) = side("l", &[]);
        let (rs, _) = side("r", &[]);
        let null_or = |i: i64| {
            if i % 11 == 0 {
                Value::Null
            } else {
                Value::Int(i % 53)
            }
        };
        let lrows: Vec<Row> = (0..1500)
            .map(|i| Row::new(vec![null_or(i), Value::from(format!("l{i}"))]))
            .collect();
        let rrows: Vec<Row> = (0..2000)
            .map(|i| Row::new(vec![null_or(i + 1), Value::from(format!("r{i}"))]))
            .collect();
        let mut in_mem = HashJoin::new(
            Box::new(RowsOp::new(ls.clone(), lrows.clone())),
            Box::new(RowsOp::new(rs.clone(), rrows.clone())),
            vec![(0, 0)],
        );
        let mut expected = collect(&mut in_mem).unwrap();

        let tracker = MemoryTracker::new(4096);
        let mut grace = HashJoin::new(
            Box::new(RowsOp::new(ls, lrows)),
            Box::new(RowsOp::new(rs, rrows)),
            vec![(0, 0)],
        )
        .with_memory(tracker.clone());
        let mut got = collect(&mut grace).unwrap();
        assert_eq!(grace.spill_events(), 1, "budget must force the spill");
        assert_eq!(tracker.used(), 0, "build bytes released on spill");

        expected.sort_by_key(|r| format!("{r}"));
        got.sort_by_key(|r| format!("{r}"));
        assert_eq!(got, expected);
    }

    #[test]
    fn a_grace_partition_holds_its_build_bytes_while_it_is_probed() {
        let (ls, _) = side("l", &[]);
        let (rs, _) = side("r", &[]);
        let rows = |n: i64| -> Vec<Row> {
            (0..n)
                .map(|i| Row::new(vec![Value::Int(i % 10), Value::from("v")]))
                .collect()
        };
        let join = |tracker: &Arc<MemoryTracker>| {
            HashJoin::new(
                Box::new(RowsOp::new(ls.clone(), rows(300))),
                Box::new(RowsOp::new(rs.clone(), rows(200))),
                vec![(0, 0)],
            )
            .with_memory(tracker.clone())
        };
        // Drained: each of the 300 probe rows meets 20 build rows.
        let tracker = MemoryTracker::new(4096);
        let mut j = join(&tracker);
        let mut total = j.next_batch().unwrap().unwrap().len();
        assert_eq!(j.spill_events(), 1);
        assert!(tracker.used() > 0, "the probed partition's table counts");
        while let Some(b) = j.next_batch().unwrap() {
            total += b.len();
        }
        assert_eq!((total, tracker.used()), (300 * 20, 0));
        // Dropped between pulls.
        let tracker = MemoryTracker::new(4096);
        let mut j = join(&tracker);
        j.next_batch().unwrap().unwrap();
        assert!(tracker.used() > 0);
        drop(j);
        assert_eq!(tracker.used(), 0);
    }

    #[test]
    fn hash_join_output_order_is_pinned() {
        // A two-column key with duplicate build keys, NULL cells on both
        // sides and a Float key that never equals its Int twin. In memory
        // the output is probe order, then build order within a key; under
        // Grace it is partition-major (`Row::partition_of` is fixed across
        // runs), the same order within a partition.
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Str),
            Field::new("tag", DataType::Str),
        ]);
        // Each key is two characters: `_` is NULL, `f` is Float 1.0.
        let side = |tag: char, keys: &str| -> Vec<Row> {
            let cell = |c: char| match c {
                '_' => Value::Null,
                'f' => Value::Float(1.0),
                '0'..='9' => Value::Int(c as i64 - '0' as i64),
                _ => Value::from(c.to_string().as_str()),
            };
            let row = |(i, k): (usize, &str)| {
                let mut k = k.chars().map(cell);
                let (a, b) = (k.next().unwrap(), k.next().unwrap());
                Row::new(vec![a, b, Value::from(format!("{tag}{i}"))])
            };
            keys.split(' ').enumerate().map(row).collect()
        };
        let left = side('l', "1x 2y _x 1x 1_ 3z 2y 1y");
        let right = side('r', "1x 2y 1x _x 1_ 2y 1x 4w 1y fx");
        let run = |memory: Option<Arc<MemoryTracker>>| {
            let mut j = HashJoin::new(
                Box::new(RowsOp::new(schema.clone(), left.clone())),
                Box::new(RowsOp::new(schema.clone(), right.clone())),
                vec![(0, 0), (1, 1)],
            );
            if let Some(t) = memory {
                j = j.with_memory(t);
            }
            let out = collect(&mut j).unwrap();
            let pairs: Vec<String> = out
                .iter()
                .map(|r| format!("{}{}", r.value(2), r.value(5)))
                .collect();
            (pairs.join(" ").replace('\'', ""), j.spill_events())
        };
        let in_memory = "l0r0 l0r2 l0r6 l1r1 l1r5 l3r0 l3r2 l3r6 l6r1 l6r5 l7r8";
        assert_eq!(run(None), (in_memory.into(), 0));
        let tracker = MemoryTracker::new(0);
        let grace = "l7r8 l0r0 l0r2 l0r6 l3r0 l3r2 l3r6 l1r1 l1r5 l6r1 l6r5";
        assert_eq!(run(Some(tracker.clone())), (grace.into(), 1));
        assert_eq!(tracker.used(), 0);
    }

    #[test]
    fn hash_join_is_exhausted_after_a_failed_build() {
        let (ls, lr) = side("l", &[(1, "a"), (2, "b")]);
        let (rs, rr) = side("r", &[(1, "x"), (2, "y")]);
        let failing = |schema: &Schema, rows: &[Row]| FailsAfter {
            schema: Arc::new(schema.clone()),
            batches: vec![rows.to_vec(), rows.to_vec()].into_iter(),
        };
        // The build side fails while its table is still in memory.
        let tracker = MemoryTracker::new(1 << 20);
        let mut j = HashJoin::new(
            Box::new(RowsOp::new(ls.clone(), lr.clone())),
            Box::new(failing(&rs, &rr)),
            vec![(0, 0)],
        )
        .with_memory(tracker.clone());
        assert_latched(&mut j, "exec");
        assert_eq!(tracker.used(), 0, "the lost table's bytes are released");
        // The build spills, and the probe side fails while being partitioned.
        let tracker = MemoryTracker::new(0);
        let mut j = HashJoin::new(
            Box::new(failing(&ls, &lr)),
            Box::new(RowsOp::new(rs, rr)),
            vec![(0, 0)],
        )
        .with_memory(tracker.clone());
        assert_latched(&mut j, "exec");
        assert_eq!((j.spill_events(), tracker.used()), (1, 0));
    }

    #[test]
    fn generous_budget_stays_in_memory() {
        let (ls, lr) = side("l", &[(1, "a"), (2, "b")]);
        let (rs, rr) = side("r", &[(1, "x"), (2, "y")]);
        let tracker = MemoryTracker::new(1 << 20);
        let mut j = HashJoin::new(
            Box::new(RowsOp::new(ls, lr)),
            Box::new(RowsOp::new(rs, rr)),
            vec![(0, 0)],
        )
        .with_memory(tracker.clone());
        assert_eq!(collect(&mut j).unwrap().len(), 2);
        assert_eq!(j.spill_events(), 0);
        assert_eq!(tracker.used(), 0, "released when the probe side drains");
    }

    #[test]
    fn joins_emit_batches() {
        // Fan-out beyond one batch still arrives completely.
        let n = 3000usize;
        let (ls, _) = side("l", &[]);
        let (rs, _) = side("r", &[]);
        let lrows: Vec<Row> = (0..n)
            .map(|i| Row::new(vec![Value::Int(i as i64 % 7), Value::from("l")]))
            .collect();
        let rrows: Vec<Row> = (0..7)
            .map(|i| Row::new(vec![Value::Int(i as i64), Value::from("r")]))
            .collect();
        let mut j = HashJoin::new(
            Box::new(RowsOp::new(ls, lrows)),
            Box::new(RowsOp::new(rs, rrows)),
            vec![(0, 0)],
        );
        let mut total = 0;
        while let Some(b) = j.next_batch().unwrap() {
            assert!(!b.is_empty());
            total += b.len();
        }
        assert_eq!(total, n);
    }
}
