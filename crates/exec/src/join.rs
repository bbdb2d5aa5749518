//! Join operators: hash and nested-loop.
//!
//! The paper models UDF application as an equi-join with a virtual,
//! index-only UDF table (§2.2); the shipping receivers in `csq-ship` do that
//! join themselves. These are the operators for ordinary table joins:
//! lowering builds every SQL join as a [`NestedLoopJoin`] cross product under
//! a `Filter`; [`HashJoin`] is built by no statement yet (ROADMAP 1(a)).
//!
//! Both are batch-native: inputs are pulled a [`RowBatch`] at a time
//! and outputs are emitted in batches (a batch may exceed the default
//! capacity when one input row fans out to many matches).

use std::collections::HashMap;
use std::sync::Arc;

use csq_common::{Result, Row, RowBatch, Schema, DEFAULT_BATCH_SIZE};
use csq_expr::PhysExpr;

use crate::ops::{batch_operator, collect, Operator};
use crate::spill::{
    partition_rows, MemoryTracker, SpillFile, SpillReader, ENTRY_OVERHEAD, SPILL_PARTITIONS,
};

/// Pulls batches from a child operator and hands rows out one at a time —
/// the input-side adapter for an algorithm that is inherently
/// row-sequential (nested-loop's outer loop).
struct BatchCursor {
    op: Box<dyn Operator + Send>,
    buf: std::vec::IntoIter<Row>,
}

impl BatchCursor {
    fn new(op: Box<dyn Operator + Send>) -> BatchCursor {
        BatchCursor {
            op,
            buf: Vec::new().into_iter(),
        }
    }

    fn next_row(&mut self) -> Result<Option<Row>> {
        loop {
            if let Some(r) = self.buf.next() {
                return Ok(Some(r));
            }
            match self.op.next_batch()? {
                Some(b) => self.buf = b.into_rows().into_iter(),
                None => return Ok(None),
            }
        }
    }
}

/// Hash equi-join: builds the right input, probes with the left, one batch
/// of probe rows at a time. Output schema = left ⊕ right.
///
/// With a [`MemoryTracker`] attached (via [`with_memory`](HashJoin::with_memory))
/// this becomes a Grace hash join under pressure: if the build side exceeds
/// the budget, both sides are hash-partitioned by join key into temp files
/// and each partition pair is joined independently — the build table of one
/// partition in memory, its probe rows streamed frame by frame. Matching
/// keys land in matching partitions, so the result set is identical to the
/// in-memory join up to row order.
pub struct HashJoin {
    left: Box<dyn Operator + Send>,
    right: Option<Box<dyn Operator + Send>>,
    left_key: Vec<usize>,
    right_key: Vec<usize>,
    schema: Arc<Schema>,
    table: Option<HashMap<Row, Vec<Row>>>,
    /// Byte budget shared with other operators; `None` = never spill.
    memory: Option<Arc<MemoryTracker>>,
    /// Approximate bytes registered for the in-memory build table.
    tracked: usize,
    grace: Option<GraceJoin>,
    spill_events: usize,
}

/// Partition-wise join state after a build-side spill.
struct GraceJoin {
    /// Remaining (build, probe) partition pairs.
    parts: std::vec::IntoIter<(SpillFile, SpillFile)>,
    /// The partition being joined: its build table and probe reader.
    current: Option<(HashMap<Row, Vec<Row>>, SpillReader)>,
}

impl HashJoin {
    /// Join `left` and `right` on equality of the given key columns.
    pub fn new(
        left: Box<dyn Operator + Send>,
        right: Box<dyn Operator + Send>,
        left_key: Vec<usize>,
        right_key: Vec<usize>,
    ) -> HashJoin {
        assert_eq!(left_key.len(), right_key.len(), "join key arity mismatch");
        let schema = Arc::new(left.schema().join(right.schema()));
        HashJoin {
            left,
            right: Some(right),
            left_key,
            right_key,
            schema,
            table: None,
            memory: None,
            tracked: 0,
            grace: None,
            spill_events: 0,
        }
    }

    /// Attach a shared memory budget: a build side that exceeds it degrades
    /// into a partition-wise Grace join (see the struct docs).
    pub fn with_memory(mut self, tracker: Arc<MemoryTracker>) -> HashJoin {
        self.memory = Some(tracker);
        self
    }

    /// Times the build side spilled to disk (0 or 1 for a hash join).
    pub fn spill_events(&self) -> usize {
        self.spill_events
    }

    fn release_tracked(&mut self) {
        if let Some(t) = &self.memory {
            t.shrink(self.tracked);
        }
        self.tracked = 0;
    }

    /// Build the right side: into an in-memory table, or — when the budget
    /// is crossed — into hash partitions on disk, in which case the entire
    /// probe side is partitioned too and `self.grace` takes over.
    fn build(&mut self) -> Result<()> {
        let mut right = self.right.take().expect("hash join built twice");
        let mut table: HashMap<Row, Vec<Row>> = HashMap::new();
        let mut spill: Option<Vec<SpillFile>> = None;
        let mut scratch: Vec<Vec<Row>> = Vec::new();
        while let Some(batch) = right.next_batch()? {
            if let Some(parts) = spill.as_mut() {
                partition_rows(parts, Some(&self.right_key), batch.rows(), &mut scratch)?;
                continue;
            }
            let mut added = 0usize;
            for r in batch.rows() {
                added += r.wire_size() + ENTRY_OVERHEAD;
                table
                    .entry(r.project(&self.right_key))
                    .or_default()
                    .push(r.clone());
            }
            if let Some(t) = self.memory.clone() {
                self.tracked += added;
                t.grow(added);
                if t.over_budget() && !table.is_empty() {
                    // Flush the partial build table to partitions and keep
                    // partitioning the rest of the input straight to disk.
                    let mut parts: Vec<SpillFile> = (0..SPILL_PARTITIONS)
                        .map(|_| SpillFile::create())
                        .collect::<Result<_>>()?;
                    let rows: Vec<Row> = table.drain().flat_map(|(_, v)| v).collect();
                    partition_rows(&mut parts, Some(&self.right_key), &rows, &mut scratch)?;
                    drop(rows);
                    self.release_tracked();
                    t.record_spill();
                    self.spill_events += 1;
                    spill = Some(parts);
                }
            }
        }
        if let Some(build_parts) = spill {
            let mut probe_parts: Vec<SpillFile> = (0..SPILL_PARTITIONS)
                .map(|_| SpillFile::create())
                .collect::<Result<_>>()?;
            while let Some(batch) = self.left.next_batch()? {
                partition_rows(
                    &mut probe_parts,
                    Some(&self.left_key),
                    batch.rows(),
                    &mut scratch,
                )?;
            }
            let pairs: Vec<(SpillFile, SpillFile)> =
                build_parts.into_iter().zip(probe_parts).collect();
            self.grace = Some(GraceJoin {
                parts: pairs.into_iter(),
                current: None,
            });
        } else {
            self.table = Some(table);
        }
        Ok(())
    }

    /// Join one partition pair at a time, streaming probe frames.
    fn grace_step(&mut self) -> Result<Option<RowBatch>> {
        let HashJoin {
            grace,
            left_key,
            right_key,
            schema,
            ..
        } = self;
        let g = grace.as_mut().expect("grace state missing");
        loop {
            if let Some((table, probe)) = g.current.as_mut() {
                while let Some(frame) = probe.next_frame()? {
                    let mut out = Vec::new();
                    for l in &frame {
                        let key = l.project(left_key);
                        // SQL semantics: NULL keys never match.
                        if key.values().iter().any(|v| v.is_null()) {
                            continue;
                        }
                        if let Some(matches) = table.get(&key) {
                            out.reserve(matches.len());
                            for r in matches {
                                out.push(l.join(r));
                            }
                        }
                    }
                    if !out.is_empty() {
                        return Ok(Some(RowBatch::from_rows(schema.clone(), out)));
                    }
                }
                g.current = None;
            }
            let Some((build, probe)) = g.parts.next() else {
                return Ok(None);
            };
            let rows = build.into_reader()?.read_all()?;
            let mut table: HashMap<Row, Vec<Row>> = HashMap::with_capacity(rows.len());
            for r in rows {
                table.entry(r.project(right_key)).or_default().push(r);
            }
            g.current = Some((table, probe.into_reader()?));
        }
    }

    fn produce(&mut self) -> Result<Option<RowBatch>> {
        if self.table.is_none() && self.grace.is_none() {
            if let Err(e) = self.build() {
                // Returned once; a Grace state with no partition left makes
                // every later pull `Ok(None)` without touching either input.
                self.release_tracked();
                self.grace = Some(GraceJoin {
                    parts: Vec::new().into_iter(),
                    current: None,
                });
                return Err(e);
            }
        }
        if self.grace.is_some() {
            return self.grace_step();
        }
        let table = self.table.as_ref().unwrap();
        loop {
            let Some(batch) = self.left.next_batch()? else {
                self.release_tracked();
                return Ok(None);
            };
            let mut out = Vec::new();
            for l in batch.rows() {
                let key = l.project(&self.left_key);
                // SQL semantics: NULL keys never match.
                if key.values().iter().any(|v| v.is_null()) {
                    continue;
                }
                if let Some(matches) = table.get(&key) {
                    out.reserve(matches.len());
                    for r in matches {
                        out.push(l.join(r));
                    }
                }
            }
            if !out.is_empty() {
                return Ok(Some(RowBatch::from_rows(self.schema.clone(), out)));
            }
        }
    }
}

impl Drop for HashJoin {
    fn drop(&mut self) {
        // Release build-table bytes if the probe never ran to completion
        // (the consumer stopped pulling).
        self.release_tracked();
    }
}

batch_operator!(HashJoin);

/// Accumulate up to [`DEFAULT_BATCH_SIZE`] rows from a row-producing step
/// into one batch — the output-side adapter of the row-sequential
/// nested-loop join.
fn accumulate_batch(
    schema: Arc<Schema>,
    mut step: impl FnMut() -> Result<Option<Row>>,
) -> Result<Option<RowBatch>> {
    let mut out = Vec::new();
    while out.len() < DEFAULT_BATCH_SIZE {
        match step()? {
            Some(r) => out.push(r),
            None => break,
        }
    }
    if out.is_empty() {
        return Ok(None);
    }
    Ok(Some(RowBatch::from_rows(schema, out)))
}

/// Nested-loop join with an arbitrary bound predicate over the concatenated
/// row. The right input is materialized.
pub struct NestedLoopJoin {
    left: BatchCursor,
    right: Option<Box<dyn Operator + Send>>,
    predicate: Option<PhysExpr>,
    schema: Arc<Schema>,
    right_rows: Vec<Row>,
    current_left: Option<Row>,
    right_pos: usize,
    started: bool,
}

impl NestedLoopJoin {
    /// Join with `predicate` evaluated over left ⊕ right rows
    /// (`None` = cross product).
    pub fn new(
        left: Box<dyn Operator + Send>,
        right: Box<dyn Operator + Send>,
        predicate: Option<PhysExpr>,
    ) -> NestedLoopJoin {
        let schema = Arc::new(left.schema().join(right.schema()));
        NestedLoopJoin {
            left: BatchCursor::new(left),
            right: Some(right),
            predicate,
            schema,
            right_rows: Vec::new(),
            current_left: None,
            right_pos: 0,
            started: false,
        }
    }

    fn row_step(&mut self) -> Result<Option<Row>> {
        if !self.started {
            self.started = true;
            let mut right = self.right.take().expect("nested-loop right missing");
            self.right_rows = collect(right.as_mut())?;
            self.current_left = self.left.next_row()?;
        }
        loop {
            let Some(l) = &self.current_left else {
                return Ok(None);
            };
            while self.right_pos < self.right_rows.len() {
                let joined = l.join(&self.right_rows[self.right_pos]);
                self.right_pos += 1;
                let ok = match &self.predicate {
                    Some(p) => p.eval_predicate(&joined)?,
                    None => true,
                };
                if ok {
                    return Ok(Some(joined));
                }
            }
            self.right_pos = 0;
            self.current_left = self.left.next_row()?;
        }
    }

    fn produce(&mut self) -> Result<Option<RowBatch>> {
        let schema = self.schema.clone();
        accumulate_batch(schema, || self.row_step())
    }
}

batch_operator!(NestedLoopJoin);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testing::{assert_latched, FailsAfter};
    use crate::ops::RowsOp;
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
            vec![0],
            vec![0],
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
            vec![0],
            vec![0],
        );
        // Note: the build side stores NULL keys but probe-side NULLs skip.
        // A NULL probe never equals a NULL build key under SQL, and our Row
        // equality would match them, so the probe-side skip is required.
        let out = collect(&mut j).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn nested_loop_cross_and_theta() {
        let (ls, lr) = side("l", &[(1, "a"), (2, "b")]);
        let (rs, rr) = side("r", &[(1, "x"), (3, "y")]);
        let mut cross = NestedLoopJoin::new(
            Box::new(RowsOp::new(ls.clone(), lr.clone())),
            Box::new(RowsOp::new(rs.clone(), rr.clone())),
            None,
        );
        assert_eq!(collect(&mut cross).unwrap().len(), 4);
    }

    #[test]
    fn nested_loop_theta_exact() {
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
        let mut theta = NestedLoopJoin::new(
            Box::new(RowsOp::new(ls, lr)),
            Box::new(RowsOp::new(rs, rr)),
            Some(pred),
        );
        let out = collect(&mut theta).unwrap();
        // (1,1):no (1,3):yes (2,1):no (2,3):yes
        assert_eq!(out.len(), 2);
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
            vec![0],
            vec![0],
        );
        let mut expected = collect(&mut in_mem).unwrap();

        let tracker = MemoryTracker::new(4096);
        let mut grace = HashJoin::new(
            Box::new(RowsOp::new(ls, lrows)),
            Box::new(RowsOp::new(rs, rrows)),
            vec![0],
            vec![0],
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
            vec![0],
            vec![0],
        )
        .with_memory(tracker.clone());
        assert_latched(&mut j, "exec");
        assert_eq!(tracker.used(), 0, "the lost table's bytes are released");
        // The build spills, and the probe side fails while being partitioned.
        let tracker = MemoryTracker::new(0);
        let mut j = HashJoin::new(
            Box::new(failing(&ls, &lr)),
            Box::new(RowsOp::new(rs, rr)),
            vec![0],
            vec![0],
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
            vec![0],
            vec![0],
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
            vec![0],
            vec![0],
        );
        let mut total = 0;
        while let Some(b) = j.next_batch().unwrap() {
            assert!(!b.is_empty());
            total += b.len();
        }
        assert_eq!(total, n);
    }
}
