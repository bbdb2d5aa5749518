//! Vectorized grouped aggregation (DESIGN.md §7).
//!
//! [`HashAggregate`] is the batch-native GROUP BY operator: it drains its
//! input batch-wise into an insertion-ordered hash table (sized from the
//! input's [`crate::Operator::size_hint`]), accumulating one
//! `AggState` vector per group, then re-emits finished groups
//! in first-occurrence order.
//!
//! Aggregation is *decomposable*: every function's state splits into a
//! partial phase (`update` over raw rows, shippable as plain value columns)
//! and a final phase (`merge` over partial-state rows), so partial
//! aggregation can run at either site of the client-server split — the
//! server reduces rows to groups before they cross the wire, and the other
//! site finishes. The three operator modes mirror that:
//!
//! * [`HashAggregate::new`] — single-phase: raw rows in, finished values out.
//! * [`HashAggregate::partial`] — raw rows in, partial-state rows out
//!   (group key columns followed by each call's state columns; AVG carries
//!   two: running sum and count).
//! * [`HashAggregate::finalize`] — partial-state rows in (from any number
//!   of partial sources, e.g. one per worker or one per site), finished
//!   values out.
//!
//! MIN/MAX accumulate through [`crate::ops::compare_values`] — the same
//! key-validation primitive `Sort` uses — so a NaN-bearing group is an exec
//! *error* here, exactly like `ORDER BY` over a NaN-bearing column, never a
//! comparator panic.
//!
//! Parallel grouped aggregation runs through
//! [`Exchange::hash_aggregate`](crate::Exchange::hash_aggregate): rows
//! hash-partition on the group key, each worker aggregates a disjoint key
//! range with a private single-phase instance, and the gather side merges —
//! the same multiset of groups as the serial operator.

use std::collections::HashMap;
use std::sync::Arc;

use csq_common::{CsqError, DataType, Field, Result, Row, RowBatch, Schema, Value};
use csq_expr::{physical::eval_binary, AggFunc, BinaryOp, PhysExpr};

use crate::ops::{batch_operator, compare_values};
use crate::spill::{MemoryTracker, SpillFile, ENTRY_OVERHEAD, SPILL_PARTITIONS};
use crate::{BoxOp, Operator};

/// One aggregate call evaluated by [`HashAggregate`]: a function over an
/// optional bound argument expression (`None` = `COUNT(*)`), plus the
/// output column name.
#[derive(Clone)]
pub struct AggSpec {
    /// The aggregate function.
    pub func: AggFunc,
    /// Bound argument expression (`None` only for `COUNT(*)`).
    pub arg: Option<PhysExpr>,
    /// Output column name.
    pub name: String,
}

impl AggSpec {
    /// Convenience constructor.
    pub fn new(func: AggFunc, arg: Option<PhysExpr>, name: impl Into<String>) -> AggSpec {
        AggSpec {
            func,
            arg,
            name: name.into(),
        }
    }

    /// The finished-value output field, with the result type inferred from
    /// the argument's type under `input` when possible.
    pub fn result_field(&self, input: &Schema) -> Field {
        let at = self.arg.as_ref().and_then(|a| a.infer_type(input).ok());
        Field::new(self.name.clone(), self.func.result_type(at))
    }

    /// The partial-state fields this call ships between the partial and
    /// final phases (AVG decomposes into running sum + count).
    pub fn state_fields(&self, input: &Schema) -> Vec<Field> {
        match self.func {
            AggFunc::Avg => vec![
                // The running sum keeps the argument's type (an Int column
                // accumulates Int sums); only `finish` divides into Float.
                Field::new(
                    format!("{}$sum", self.name),
                    self.arg
                        .as_ref()
                        .and_then(|a| a.infer_type(input).ok())
                        .unwrap_or(DataType::Float),
                ),
                Field::new(format!("{}$n", self.name), DataType::Int),
            ],
            AggFunc::Count => vec![Field::new(self.name.clone(), DataType::Int)],
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => vec![self.result_field(input)],
        }
    }

    /// Number of partial-state columns (1, or 2 for AVG).
    pub fn state_width(&self) -> usize {
        match self.func {
            AggFunc::Avg => 2,
            _ => 1,
        }
    }
}

/// Running accumulator state for one (group, aggregate call) pair.
#[derive(Debug, Clone)]
enum AggState {
    Count(i64),
    Sum(Value),
    Min(Value),
    Max(Value),
    Avg { sum: Value, n: i64 },
}

/// Add `v` into the numeric accumulator `acc` (NULL = unset), surfacing
/// integer overflow as an exec error like scalar arithmetic does.
fn numeric_add(acc: &mut Value, v: &Value) -> Result<()> {
    if !matches!(v, Value::Int(_) | Value::Float(_)) {
        return Err(CsqError::Type(format!(
            "aggregate argument must be numeric, got {:?}",
            v.data_type()
        )));
    }
    if acc.is_null() {
        *acc = v.clone();
    } else {
        *acc = eval_binary(BinaryOp::Add, acc, v)?;
    }
    Ok(())
}

impl AggState {
    fn init(func: AggFunc) -> AggState {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum(Value::Null),
            AggFunc::Min => AggState::Min(Value::Null),
            AggFunc::Max => AggState::Max(Value::Null),
            AggFunc::Avg => AggState::Avg {
                sum: Value::Null,
                n: 0,
            },
        }
    }

    /// Accumulate one raw input value (`None` = `COUNT(*)`, which counts
    /// every row). NULL arguments are ignored by every function but
    /// `COUNT(*)`, per SQL.
    fn update(&mut self, v: Option<&Value>) -> Result<()> {
        match self {
            AggState::Count(n) => match v {
                None => *n += 1,
                Some(v) if !v.is_null() => *n += 1,
                Some(_) => {}
            },
            AggState::Sum(acc) => {
                if let Some(v) = v {
                    if !v.is_null() {
                        numeric_add(acc, v)?;
                    }
                }
            }
            AggState::Min(_) | AggState::Max(_) => {
                unreachable!("MIN/MAX updates go through update_value")
            }
            AggState::Avg { sum, n } => {
                if let Some(v) = v {
                    if !v.is_null() {
                        numeric_add(sum, v)?;
                        *n += 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// Merge one partial-state row segment into this accumulator (the final
    /// phase). `vals` holds this call's state columns.
    fn merge(&mut self, vals: &[Value]) -> Result<()> {
        match self {
            AggState::Count(n) => {
                let add = vals[0].as_i64()?;
                *n = n
                    .checked_add(add)
                    .ok_or_else(|| CsqError::Exec("integer overflow".into()))?;
            }
            AggState::Sum(acc) => {
                if !vals[0].is_null() {
                    numeric_add(acc, &vals[0])?;
                }
            }
            AggState::Min(acc) => {
                if !vals[0].is_null()
                    && (acc.is_null() || compare_values(&vals[0], acc)? == std::cmp::Ordering::Less)
                {
                    *acc = vals[0].clone();
                }
            }
            AggState::Max(acc) => {
                if !vals[0].is_null()
                    && (acc.is_null()
                        || compare_values(&vals[0], acc)? == std::cmp::Ordering::Greater)
                {
                    *acc = vals[0].clone();
                }
            }
            AggState::Avg { sum, n } => {
                if !vals[0].is_null() {
                    numeric_add(sum, &vals[0])?;
                }
                *n = n
                    .checked_add(vals[1].as_i64()?)
                    .ok_or_else(|| CsqError::Exec("integer overflow".into()))?;
            }
        }
        Ok(())
    }

    /// Append this state's partial-state values (the wire representation).
    fn emit_state(self, out: &mut Vec<Value>) {
        match self {
            AggState::Count(n) => out.push(Value::Int(n)),
            AggState::Sum(acc) | AggState::Min(acc) | AggState::Max(acc) => out.push(acc),
            AggState::Avg { sum, n } => {
                out.push(sum);
                out.push(Value::Int(n));
            }
        }
    }

    /// Finish into the aggregate's result value.
    fn finish(self) -> Result<Value> {
        Ok(match self {
            AggState::Count(n) => Value::Int(n),
            AggState::Sum(acc) | AggState::Min(acc) | AggState::Max(acc) => acc,
            AggState::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum.as_f64()? / n as f64)
                }
            }
        })
    }
}

/// Which phase of the decomposition this operator runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Single,
    Partial,
    Final,
}

/// The vectorized GROUP BY operator; see the module docs.
///
/// With a [`MemoryTracker`] attached (via
/// [`with_memory`](HashAggregate::with_memory)), the build phase spills when
/// the budget is exceeded: the accumulated groups are emitted as
/// partial-state rows, hash-partitioned by group key into temp files, and
/// the table is cleared; at end of input each partition is read back and
/// merged independently (disjoint key sets, so peak memory is ~1/16th of
/// the working set). Results are identical to the in-memory path except for
/// group *order*, which becomes partition-major instead of global
/// first-occurrence (GROUP BY output order is unspecified; an explicit
/// ORDER BY above is unaffected).
pub struct HashAggregate {
    input: Option<BoxOp>,
    /// Group-key column ordinals in the input.
    key: Vec<usize>,
    aggs: Vec<AggSpec>,
    mode: Mode,
    schema: Arc<Schema>,
    groups: Option<std::vec::IntoIter<Row>>,
    /// Byte budget shared with other operators; `None` = never spill.
    memory: Option<Arc<MemoryTracker>>,
    /// Approximate bytes currently registered with the tracker.
    tracked: usize,
    /// Spill partitions, created on first overflow.
    spilled: Vec<SpillFile>,
    /// Times the build flushed its table to disk.
    spill_events: usize,
}

/// The output schema of a single-phase aggregation: the input's key fields
/// (qualifiers preserved) followed by each call's result field.
pub fn aggregate_output_schema(input: &Schema, key: &[usize], aggs: &[AggSpec]) -> Schema {
    let mut fields: Vec<Field> = key.iter().map(|&k| input.field(k).clone()).collect();
    for a in aggs {
        fields.push(a.result_field(input));
    }
    Schema::new(fields)
}

/// The partial-state schema: key fields followed by each call's state
/// fields (what [`HashAggregate::partial`] emits and
/// [`HashAggregate::finalize`] consumes).
pub fn aggregate_state_schema(input: &Schema, key: &[usize], aggs: &[AggSpec]) -> Schema {
    let mut fields: Vec<Field> = key.iter().map(|&k| input.field(k).clone()).collect();
    for a in aggs {
        fields.extend(a.state_fields(input));
    }
    Schema::new(fields)
}

impl HashAggregate {
    /// Single-phase aggregation: raw rows in, finished groups out.
    pub fn new(input: BoxOp, key: Vec<usize>, aggs: Vec<AggSpec>) -> HashAggregate {
        let schema = Arc::new(aggregate_output_schema(input.schema(), &key, &aggs));
        HashAggregate {
            input: Some(input),
            key,
            aggs,
            mode: Mode::Single,
            schema,
            groups: None,
            memory: None,
            tracked: 0,
            spilled: Vec::new(),
            spill_events: 0,
        }
    }

    /// Partial phase: raw rows in, partial-state rows out.
    pub fn partial(input: BoxOp, key: Vec<usize>, aggs: Vec<AggSpec>) -> HashAggregate {
        let schema = Arc::new(aggregate_state_schema(input.schema(), &key, &aggs));
        HashAggregate {
            input: Some(input),
            key,
            aggs,
            mode: Mode::Partial,
            schema,
            groups: None,
            memory: None,
            tracked: 0,
            spilled: Vec::new(),
            spill_events: 0,
        }
    }

    /// Final phase: partial-state rows (key columns first, then each call's
    /// state columns, as emitted by [`HashAggregate::partial`]) in, finished
    /// groups out. `key_len` is the number of leading key columns.
    pub fn finalize(input: BoxOp, key_len: usize, aggs: Vec<AggSpec>) -> Result<HashAggregate> {
        let in_schema = input.schema();
        let state_width: usize = aggs.iter().map(AggSpec::state_width).sum();
        if in_schema.len() != key_len + state_width {
            return Err(CsqError::Plan(format!(
                "partial-aggregate input has {} columns; expected {} key + {} state",
                in_schema.len(),
                key_len,
                state_width
            )));
        }
        // Result fields: type from the shipped state column (SUM/MIN/MAX
        // carry their value type on the wire; COUNT is Int, AVG is Float).
        let mut fields: Vec<Field> = (0..key_len).map(|k| in_schema.field(k).clone()).collect();
        let mut at = key_len;
        for a in &aggs {
            let dtype = match a.func {
                AggFunc::Count => DataType::Int,
                AggFunc::Avg => DataType::Float,
                AggFunc::Sum | AggFunc::Min | AggFunc::Max => in_schema.field(at).dtype,
            };
            fields.push(Field::new(a.name.clone(), dtype));
            at += a.state_width();
        }
        Ok(HashAggregate {
            input: Some(input),
            key: (0..key_len).collect(),
            aggs,
            mode: Mode::Final,
            schema: Arc::new(Schema::new(fields)),
            groups: None,
            memory: None,
            tracked: 0,
            spilled: Vec::new(),
            spill_events: 0,
        })
    }

    /// Attach a shared memory budget: the build spills to temp files instead
    /// of growing past it (see the struct docs).
    pub fn with_memory(mut self, tracker: Arc<MemoryTracker>) -> HashAggregate {
        self.memory = Some(tracker);
        self
    }

    /// Times the build phase spilled its group table to disk (0 = the fully
    /// in-memory path ran).
    pub fn spill_events(&self) -> usize {
        self.spill_events
    }

    /// Drain the input and build the group table (insertion-ordered so the
    /// output is deterministic: first-occurrence order of each key).
    fn build(&mut self) -> Result<Vec<Row>> {
        let mut input = self.input.take().expect("aggregate input consumed twice");
        // The hint bounds input *rows*, an upper bound on groups that can
        // overshoot wildly for low-cardinality keys — seed both containers
        // with a bounded capacity and let growth amortize past it.
        let hint = input.size_hint().unwrap_or(0).min(1024);
        let mut index: HashMap<Row, usize> = HashMap::with_capacity(hint);
        let mut groups: Vec<(Row, Vec<AggState>)> = Vec::with_capacity(hint);
        let key_len = self.key.len();
        let state_width: usize = self.aggs.iter().map(AggSpec::state_width).sum();
        while let Some(batch) = input.next_batch()? {
            let mut added = 0usize;
            for row in batch.rows() {
                let key = row.project(&self.key);
                let gi = match index.get(&key) {
                    Some(&i) => i,
                    None => {
                        let i = groups.len();
                        added += key.wire_size() + state_width * 16 + ENTRY_OVERHEAD;
                        groups.push((
                            key.clone(),
                            self.aggs.iter().map(|a| AggState::init(a.func)).collect(),
                        ));
                        index.insert(key, i);
                        i
                    }
                };
                let states = &mut groups[gi].1;
                match self.mode {
                    Mode::Single | Mode::Partial => {
                        for (spec, st) in self.aggs.iter().zip(states.iter_mut()) {
                            match &spec.arg {
                                Some(e) => {
                                    let v = e.eval(row)?;
                                    st.update_value(spec.func, Some(&v))?;
                                }
                                None => st.update_value(spec.func, None)?,
                            }
                        }
                    }
                    Mode::Final => {
                        let vals = row.values();
                        let mut at = key_len;
                        for (spec, st) in self.aggs.iter().zip(states.iter_mut()) {
                            let w = spec.state_width();
                            st.merge(&vals[at..at + w])?;
                            at += w;
                        }
                    }
                }
            }
            if let Some(t) = self.memory.clone() {
                self.tracked += added;
                t.grow(added);
                // Budget check at batch granularity: flush the table as
                // partial-state rows, hash-partitioned by key, and continue
                // with an empty table.
                if t.over_budget() && !groups.is_empty() {
                    self.spill_groups(&mut index, &mut groups)?;
                    t.record_spill();
                }
            }
        }
        if !self.spilled.is_empty() {
            self.spill_groups(&mut index, &mut groups)?;
            self.release_tracked();
            return self.merge_spilled();
        }
        self.release_tracked();
        // A global aggregate (no GROUP BY) over zero rows still produces one
        // group: COUNT(*) = 0, SUM/MIN/MAX/AVG = NULL.
        if groups.is_empty() && self.key.is_empty() {
            groups.push((
                Row::new(vec![]),
                self.aggs.iter().map(|a| AggState::init(a.func)).collect(),
            ));
        }
        let emit_state = self.mode == Mode::Partial;
        let mut out = Vec::with_capacity(groups.len());
        for (key, states) in groups {
            let mut vals = key.into_values();
            vals.reserve(self.aggs.iter().map(AggSpec::state_width).sum());
            for st in states {
                if emit_state {
                    st.emit_state(&mut vals);
                } else {
                    vals.push(st.finish()?);
                }
            }
            out.push(Row::new(vals));
        }
        Ok(out)
    }

    fn release_tracked(&mut self) {
        if let Some(t) = &self.memory {
            t.shrink(self.tracked);
        }
        self.tracked = 0;
    }

    /// Flush the current group table to the spill partitions as
    /// partial-state rows (creating the partitions on first use) and clear
    /// it, releasing its registered bytes.
    fn spill_groups(
        &mut self,
        index: &mut HashMap<Row, usize>,
        groups: &mut Vec<(Row, Vec<AggState>)>,
    ) -> Result<()> {
        if self.spilled.is_empty() {
            self.spilled = (0..SPILL_PARTITIONS)
                .map(|_| SpillFile::create())
                .collect::<Result<_>>()?;
        }
        if groups.is_empty() {
            return Ok(());
        }
        self.spill_events += 1;
        let key_cols: Vec<usize> = (0..self.key.len()).collect();
        let state_width: usize = self.aggs.iter().map(AggSpec::state_width).sum();
        let mut chunks: Vec<Vec<Row>> = vec![Vec::new(); self.spilled.len()];
        for (key, states) in groups.drain(..) {
            let mut vals = key.into_values();
            vals.reserve(state_width);
            for st in states {
                st.emit_state(&mut vals);
            }
            let row = Row::new(vals);
            let p = row.partition_of(Some(&key_cols), self.spilled.len());
            chunks[p].push(row);
        }
        index.clear();
        for (part, chunk) in self.spilled.iter_mut().zip(&chunks) {
            part.write_rows(chunk)?;
        }
        self.release_tracked();
        Ok(())
    }

    /// Read the spill partitions back one at a time, merging each
    /// partition's partial-state rows (disjoint key sets) and emitting per
    /// the operator's mode.
    fn merge_spilled(&mut self) -> Result<Vec<Row>> {
        let parts = std::mem::take(&mut self.spilled);
        let key_len = self.key.len();
        let key_cols: Vec<usize> = (0..key_len).collect();
        let emit_state = self.mode == Mode::Partial;
        let mut out = Vec::new();
        for part in parts {
            let mut reader = part.into_reader()?;
            let mut index: HashMap<Row, usize> = HashMap::new();
            let mut groups: Vec<(Row, Vec<AggState>)> = Vec::new();
            while let Some(frame) = reader.next_frame()? {
                for row in frame {
                    let key = row.project(&key_cols);
                    let gi = match index.get(&key) {
                        Some(&i) => i,
                        None => {
                            let i = groups.len();
                            groups.push((
                                key.clone(),
                                self.aggs.iter().map(|a| AggState::init(a.func)).collect(),
                            ));
                            index.insert(key, i);
                            i
                        }
                    };
                    let vals = row.values();
                    let mut at = key_len;
                    for (spec, st) in self.aggs.iter().zip(groups[gi].1.iter_mut()) {
                        let w = spec.state_width();
                        st.merge(&vals[at..at + w])?;
                        at += w;
                    }
                }
            }
            for (key, states) in groups {
                let mut vals = key.into_values();
                for st in states {
                    if emit_state {
                        st.emit_state(&mut vals);
                    } else {
                        vals.push(st.finish()?);
                    }
                }
                out.push(Row::new(vals));
            }
        }
        Ok(out)
    }

    fn produce(&mut self) -> Result<Option<RowBatch>> {
        if self.groups.is_none() {
            let rows = self.build()?;
            self.groups = Some(rows.into_iter());
        }
        crate::ops::produce_chunk(self.groups.as_mut().unwrap(), &self.schema)
    }
}

impl AggState {
    /// `update` with a NaN-safe MIN/MAX path (kept out of the main `update`
    /// match so the compare borrow is straightforward).
    fn update_value(&mut self, func: AggFunc, v: Option<&Value>) -> Result<()> {
        match self {
            AggState::Min(acc) | AggState::Max(acc) => {
                let Some(v) = v else {
                    return Err(CsqError::Plan(format!(
                        "{} requires an argument",
                        func.name()
                    )));
                };
                if v.is_null() {
                    return Ok(());
                }
                if acc.is_null() {
                    *acc = v.clone();
                    return Ok(());
                }
                let ord = compare_values(v, acc)?;
                let replace = match func {
                    AggFunc::Min => ord == std::cmp::Ordering::Less,
                    _ => ord == std::cmp::Ordering::Greater,
                };
                if replace {
                    *acc = v.clone();
                }
                Ok(())
            }
            _ => self.update(v),
        }
    }
}

batch_operator!(HashAggregate, hint: |s: &HashAggregate| {
    s.groups.as_ref().map(|g| g.len())
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{collect, RowsOp, Sort};
    use csq_common::DEFAULT_BATCH_SIZE;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
            Field::new("f", DataType::Float),
        ])
    }

    fn rows() -> Vec<Row> {
        vec![
            Row::new(vec![Value::Int(1), Value::Int(10), Value::Float(1.0)]),
            Row::new(vec![Value::Int(2), Value::Int(20), Value::Float(2.0)]),
            Row::new(vec![Value::Int(1), Value::Null, Value::Float(3.0)]),
            Row::new(vec![Value::Null, Value::Int(5), Value::Float(4.0)]),
            Row::new(vec![Value::Int(1), Value::Int(30), Value::Null]),
        ]
    }

    fn specs() -> Vec<AggSpec> {
        vec![
            AggSpec::new(AggFunc::Count, None, "cnt"),
            AggSpec::new(AggFunc::Count, Some(PhysExpr::Column(1)), "cnt_v"),
            AggSpec::new(AggFunc::Sum, Some(PhysExpr::Column(1)), "sum_v"),
            AggSpec::new(AggFunc::Min, Some(PhysExpr::Column(2)), "min_f"),
            AggSpec::new(AggFunc::Max, Some(PhysExpr::Column(2)), "max_f"),
            AggSpec::new(AggFunc::Avg, Some(PhysExpr::Column(1)), "avg_v"),
        ]
    }

    #[test]
    fn single_phase_groups_and_null_semantics() {
        let mut agg = HashAggregate::new(Box::new(RowsOp::new(schema(), rows())), vec![0], specs());
        assert_eq!(agg.schema().field(0).name, "k");
        assert_eq!(agg.schema().field(6).name, "avg_v");
        assert_eq!(agg.schema().field(6).dtype, DataType::Float);
        let out = collect(&mut agg).unwrap();
        assert_eq!(out.len(), 3, "groups 1, 2, NULL");
        // First-occurrence order: k=1 first.
        let g1 = &out[0];
        assert_eq!(g1.value(0), &Value::Int(1));
        assert_eq!(g1.value(1), &Value::Int(3)); // COUNT(*)
        assert_eq!(g1.value(2), &Value::Int(2)); // COUNT(v) skips NULL
        assert_eq!(g1.value(3), &Value::Int(40)); // SUM(v)
        assert_eq!(g1.value(4), &Value::Float(1.0)); // MIN(f) skips NULL
        assert_eq!(g1.value(5), &Value::Float(3.0)); // MAX(f)
        assert_eq!(g1.value(6), &Value::Float(20.0)); // AVG(v)
                                                      // NULL keys form one group.
        let gn = &out[2];
        assert_eq!(gn.value(0), &Value::Null);
        assert_eq!(gn.value(1), &Value::Int(1));
    }

    #[test]
    fn partial_then_final_matches_single_phase() {
        let single = {
            let mut a =
                HashAggregate::new(Box::new(RowsOp::new(schema(), rows())), vec![0], specs());
            collect(&mut a).unwrap()
        };
        // Split the input into two chunks, partial-aggregate each, then
        // finalize the concatenated states.
        let all = rows();
        let mut partial_rows = Vec::new();
        let mut state_schema = None;
        for chunk in all.chunks(2) {
            let mut p = HashAggregate::partial(
                Box::new(RowsOp::new(schema(), chunk.to_vec())),
                vec![0],
                specs(),
            );
            state_schema = Some(p.schema().clone());
            partial_rows.extend(collect(&mut p).unwrap());
        }
        let mut f = HashAggregate::finalize(
            Box::new(RowsOp::new(state_schema.unwrap(), partial_rows)),
            1,
            specs(),
        )
        .unwrap();
        let merged = collect(&mut f).unwrap();
        let sorted = |mut v: Vec<Row>| {
            v.sort_by_key(|r| format!("{r}"));
            v
        };
        assert_eq!(sorted(merged), sorted(single));
    }

    #[test]
    fn empty_input_global_aggregate_emits_identity() {
        let mut agg = HashAggregate::new(
            Box::new(RowsOp::new(schema(), vec![])),
            vec![],
            vec![
                AggSpec::new(AggFunc::Count, None, "cnt"),
                AggSpec::new(AggFunc::Sum, Some(PhysExpr::Column(1)), "s"),
            ],
        );
        let out = collect(&mut agg).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], Row::new(vec![Value::Int(0), Value::Null]));
        // With a GROUP BY key, zero rows mean zero groups.
        let mut agg = HashAggregate::new(
            Box::new(RowsOp::new(schema(), vec![])),
            vec![0],
            vec![AggSpec::new(AggFunc::Count, None, "cnt")],
        );
        assert!(collect(&mut agg).unwrap().is_empty());
    }

    #[test]
    fn minmax_on_nan_errors_like_sort() {
        let data = vec![
            Row::new(vec![Value::Int(1), Value::Int(1), Value::Float(f64::NAN)]),
            Row::new(vec![Value::Int(1), Value::Int(2), Value::Float(1.0)]),
        ];
        let mut agg = HashAggregate::new(
            Box::new(RowsOp::new(schema(), data)),
            vec![0],
            vec![AggSpec::new(AggFunc::Min, Some(PhysExpr::Column(2)), "m")],
        );
        assert_eq!(collect(&mut agg).unwrap_err().kind(), "exec");
    }

    #[test]
    fn sort_over_nan_avg_errors_instead_of_panicking() {
        // ORDER BY avg(x) over a NaN-bearing group: the aggregate itself
        // succeeds (a lone NaN never gets compared), and the downstream Sort
        // must surface the same upfront key-validation error it uses for
        // base columns — not a comparator panic.
        let data = vec![
            Row::new(vec![Value::Int(1), Value::Int(1), Value::Float(f64::NAN)]),
            Row::new(vec![Value::Int(2), Value::Int(2), Value::Float(1.0)]),
        ];
        let agg = HashAggregate::new(
            Box::new(RowsOp::new(schema(), data)),
            vec![0],
            vec![AggSpec::new(AggFunc::Avg, Some(PhysExpr::Column(2)), "a")],
        );
        let mut sort = Sort::new(Box::new(agg), vec![1]);
        assert_eq!(collect(&mut sort).unwrap_err().kind(), "exec");
    }

    #[test]
    fn sum_over_strings_is_type_error() {
        let s = Schema::new(vec![Field::new("s", DataType::Str)]);
        let data = vec![Row::new(vec![Value::from("x")])];
        let mut agg = HashAggregate::new(
            Box::new(RowsOp::new(s, data)),
            vec![],
            vec![AggSpec::new(AggFunc::Sum, Some(PhysExpr::Column(0)), "s")],
        );
        assert_eq!(collect(&mut agg).unwrap_err().kind(), "type");
    }

    #[test]
    fn sum_overflow_is_exec_error() {
        let data = vec![
            Row::new(vec![Value::Int(1), Value::Int(i64::MAX), Value::Null]),
            Row::new(vec![Value::Int(1), Value::Int(1), Value::Null]),
        ];
        let mut agg = HashAggregate::new(
            Box::new(RowsOp::new(schema(), data)),
            vec![0],
            vec![AggSpec::new(AggFunc::Sum, Some(PhysExpr::Column(1)), "s")],
        );
        assert_eq!(collect(&mut agg).unwrap_err().kind(), "exec");
    }

    #[test]
    fn size_hint_reports_remaining_groups() {
        // Two groups more than one output batch holds.
        let groups = DEFAULT_BATCH_SIZE as i64 + 2;
        let data = (0..groups)
            .map(|k| Row::new(vec![Value::Int(k), Value::Int(1), Value::Null]))
            .collect();
        let mut agg = HashAggregate::new(
            Box::new(RowsOp::new(schema(), data)),
            vec![0],
            vec![AggSpec::new(AggFunc::Count, None, "cnt")],
        );
        assert_eq!(agg.size_hint(), None, "unknown before the build");
        let first = agg.next_batch().unwrap().unwrap();
        assert_eq!(first.len(), DEFAULT_BATCH_SIZE);
        assert_eq!(agg.size_hint(), Some(2));
    }

    #[test]
    fn spilling_aggregate_matches_in_memory() {
        // A budget far below the working set forces repeated table flushes;
        // the merged result must equal the in-memory path up to order.
        let data: Vec<Row> = (0..5000)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i % 97),
                    if i % 13 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i)
                    },
                    Value::Float((i % 7) as f64),
                ])
            })
            .collect();
        let in_mem = {
            let mut a = HashAggregate::new(
                Box::new(RowsOp::new(schema(), data.clone())),
                vec![0],
                specs(),
            );
            collect(&mut a).unwrap()
        };
        let tracker = MemoryTracker::new(2048);
        let mut spilling =
            HashAggregate::new(Box::new(RowsOp::new(schema(), data)), vec![0], specs())
                .with_memory(tracker.clone());
        let spilled = collect(&mut spilling).unwrap();
        assert!(spilling.spill_events() > 0, "budget must force a spill");
        assert!(tracker.spill_count() > 0);
        assert_eq!(tracker.used(), 0, "all tracked bytes released");
        let sorted = |mut v: Vec<Row>| {
            v.sort_by_key(|r| format!("{r}"));
            v
        };
        assert_eq!(sorted(spilled), sorted(in_mem));
    }

    #[test]
    fn spilling_global_aggregate_matches_in_memory() {
        let data: Vec<Row> = (0..2000)
            .map(|i| Row::new(vec![Value::Int(i), Value::Int(i), Value::Float(0.5)]))
            .collect();
        // Global aggregate: one group, but a zero-byte budget still exercises
        // the spill + single-partition merge path.
        let mut agg = HashAggregate::new(Box::new(RowsOp::new(schema(), data)), vec![], specs())
            .with_memory(MemoryTracker::new(0));
        let out = collect(&mut agg).unwrap();
        assert!(agg.spill_events() > 0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value(0), &Value::Int(2000)); // COUNT(*)
        assert_eq!(out[0].value(2), &Value::Int(2000 * 1999 / 2)); // SUM
    }

    #[test]
    fn spilling_partial_mode_emits_mergeable_states() {
        // Partial-mode spill must still emit *state* rows that a Final
        // aggregate can merge into the same answer as single-phase.
        let data: Vec<Row> = (0..3000)
            .map(|i| Row::new(vec![Value::Int(i % 31), Value::Int(i), Value::Float(1.0)]))
            .collect();
        let single = {
            let mut a = HashAggregate::new(
                Box::new(RowsOp::new(schema(), data.clone())),
                vec![0],
                specs(),
            );
            collect(&mut a).unwrap()
        };
        let partial =
            HashAggregate::partial(Box::new(RowsOp::new(schema(), data)), vec![0], specs())
                .with_memory(MemoryTracker::new(1024));
        let mut f = HashAggregate::finalize(Box::new(partial), 1, specs()).unwrap();
        let merged = collect(&mut f).unwrap();
        let sorted = |mut v: Vec<Row>| {
            v.sort_by_key(|r| format!("{r}"));
            v
        };
        assert_eq!(sorted(merged), sorted(single));
    }

    #[test]
    fn min_max_over_strings() {
        let s = Schema::new(vec![Field::new("s", DataType::Str)]);
        let data = vec![
            Row::new(vec![Value::from("bb")]),
            Row::new(vec![Value::from("a")]),
            Row::new(vec![Value::Null]),
        ];
        let mut agg = HashAggregate::new(
            Box::new(RowsOp::new(s, data)),
            vec![],
            vec![
                AggSpec::new(AggFunc::Min, Some(PhysExpr::Column(0)), "lo"),
                AggSpec::new(AggFunc::Max, Some(PhysExpr::Column(0)), "hi"),
            ],
        );
        let out = collect(&mut agg).unwrap();
        assert_eq!(out[0], Row::new(vec![Value::from("a"), Value::from("bb")]));
    }
}
