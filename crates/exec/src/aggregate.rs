//! Vectorized grouped aggregation (DESIGN.md §7).
//!
//! [`HashAggregate`] is the batch-native GROUP BY operator: it drains its
//! input batch-wise into an insertion-ordered group table (sized from the
//! input's [`crate::Operator::size_hint`]), accumulating one
//! `AggState` per call per group, then re-emits finished groups
//! in first-occurrence order.
//!
//! There is one group table and two ways to read a batch into it, chosen by
//! the batch's own representation. A lane-backed batch (what the scan emits
//! for a sealed segment) is grouped on its key lanes and each call whose
//! argument is a plain column is accumulated on that column's lane — typed
//! kernels where the lane's type makes the per-row [`Value`] unnecessary,
//! `Lane::value` into the one `AggState::update_value` for every other
//! pairing — so the batch's rows are never built. A row batch is grouped on
//! its rows, without a key `Row` per input row. Group keys compare by
//! `Value` equality either way, and calls run a batch at a time under the
//! rule that keeps the row loop's error: first failing row, then first
//! failing call.
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
//!   of partial sources, e.g. one per shard or one per site), finished
//!   values out.
//!
//! MIN/MAX accumulate through [`crate::ops::compare_values`] — the same
//! key-validation primitive `Sort` uses — so a NaN-bearing group is an exec
//! *error* here, exactly like `ORDER BY` over a NaN-bearing column, never a
//! comparator panic.

use std::hash::{BuildHasher, RandomState};
use std::sync::Arc;

use csq_common::lane::wide;
use csq_common::{
    each_width, CsqError, DataType, Field, IntLane, Lane, Result, Row, RowBatch, Schema, Selection,
    Value,
};
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

/// [`numeric_add`] of an INT read off a typed lane: the `Int + Int` case is
/// the checked add `eval_binary` makes, anything else goes through it.
#[inline]
fn add_int(acc: &mut Value, x: i64) -> Result<()> {
    match acc {
        Value::Int(a) => {
            *a = a
                .checked_add(x)
                .ok_or_else(|| CsqError::Exec("integer overflow".into()))?;
            Ok(())
        }
        _ => numeric_add(acc, &Value::Int(x)),
    }
}

/// [`numeric_add`] of a FLOAT read off a typed lane: `Float + Float` in
/// place (the same `a + b`, so sums stay bit-identical), the rest through it.
#[inline]
fn add_float(acc: &mut Value, x: f64) -> Result<()> {
    match acc {
        Value::Float(a) => {
            *a += x;
            Ok(())
        }
        _ => numeric_add(acc, &Value::Float(x)),
    }
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

/// One way to read the group key of each row of a batch: out of the rows,
/// or out of the key columns' lanes. [`GroupTable::resolve`] is written once
/// against this.
trait KeySource {
    /// Rows in the batch.
    fn len(&self) -> usize;
    /// Hash of row `p`'s key, each cell hashed as the [`Value`] it is.
    fn hash(&self, hasher: &RandomState, p: usize) -> u64;
    /// Whether row `p`'s key equals `key`, by `Value` equality.
    fn eq(&self, p: usize, key: &[Value]) -> bool;
    /// Append row `p`'s key.
    fn push_key(&self, p: usize, out: &mut Vec<Value>);
    /// When every key of the batch is one of a few codes known up front (a
    /// one-byte INT, a BOOL, a dictionary code), how many: rows with equal
    /// codes have equal keys, so the table is probed once a code, not once a
    /// row. 0 when the keys have no such codes.
    fn codes(&self) -> usize {
        0
    }
    /// Call `f(p, code)` for each row `p` in order, `code` below
    /// [`codes`](Self::codes).
    fn for_each_code(&self, _f: impl FnMut(usize, usize)) {
        unreachable!("a key source without codes")
    }
}

/// Fold one cell's hash into a row's running key hash (order-sensitive, so
/// `(a, b)` and `(b, a)` differ).
#[inline]
fn fold_hash(acc: u64, cell: u64) -> u64 {
    acc.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31) ^ cell
}

/// Keys read from materialized rows at `cols`.
struct RowKeys<'a> {
    rows: &'a [Row],
    cols: &'a [usize],
}

impl KeySource for RowKeys<'_> {
    fn len(&self) -> usize {
        self.rows.len()
    }

    fn hash(&self, hasher: &RandomState, p: usize) -> u64 {
        let row = &self.rows[p];
        self.cols
            .iter()
            .fold(0, |h, &c| fold_hash(h, hasher.hash_one(row.value(c))))
    }

    fn eq(&self, p: usize, key: &[Value]) -> bool {
        let row = &self.rows[p];
        self.cols.iter().zip(key).all(|(&c, k)| row.value(c) == k)
    }

    fn push_key(&self, p: usize, out: &mut Vec<Value>) {
        out.extend(self.cols.iter().map(|&c| self.rows[p].value(c).clone()));
    }
}

/// Keys read from the key columns' lanes under the batch's selection; no
/// row is built, and a `Value` only for the key of a group's first row.
struct LaneKeys<'a> {
    lanes: Vec<&'a Lane>,
    sel: &'a Selection,
}

impl KeySource for LaneKeys<'_> {
    fn len(&self) -> usize {
        self.sel.len()
    }

    fn hash(&self, hasher: &RandomState, p: usize) -> u64 {
        let i = self.sel.ordinal(p);
        self.lanes.iter().fold(0, |h, lane| {
            let cell = match lane {
                _ if lane.is_null(i) => hasher.hash_one(Value::Null),
                Lane::Int { values, .. } => hasher.hash_one(Value::Int(values.get(i))),
                Lane::Float { values, .. } => hasher.hash_one(Value::Float(values[i])),
                Lane::Bool { values, .. } => hasher.hash_one(Value::Bool(values[i])),
                Lane::StrDict { .. } => hasher.hash_one(lane.value(i)),
                Lane::Values(values) => hasher.hash_one(&values[i]),
            };
            fold_hash(h, cell)
        })
    }

    fn eq(&self, p: usize, key: &[Value]) -> bool {
        let i = self.sel.ordinal(p);
        self.lanes.iter().zip(key).all(|(l, k)| l.eq_value(i, k))
    }

    fn push_key(&self, p: usize, out: &mut Vec<Value>) {
        let i = self.sel.ordinal(p);
        out.extend(self.lanes.iter().map(|l| l.value(i)));
    }

    /// One code per non-NULL value of the lane's small domain, and a last
    /// one for NULL.
    fn codes(&self) -> usize {
        match self.lanes[..] {
            [Lane::Int {
                values: IntLane::I8(_),
                ..
            }] => 257,
            [Lane::Bool { .. }] => 3,
            [Lane::StrDict { dict, .. }] => dict.len() + 1,
            _ => 0,
        }
    }

    fn for_each_code(&self, mut f: impl FnMut(usize, usize)) {
        let (n, null) = (self.sel.len(), self.codes() - 1);
        match self.lanes[0] {
            Lane::Int {
                values: IntLane::I8(v),
                nulls,
            } => self.sel.for_each(n, |p, i| match nulls.get(i) {
                true => f(p, null),
                false => f(p, v[i] as u8 as usize),
            }),
            Lane::Bool { values, nulls } => self.sel.for_each(n, |p, i| match nulls.get(i) {
                true => f(p, null),
                false => f(p, values[i] as usize),
            }),
            Lane::StrDict { codes, .. } => self
                .sel
                .for_each(n, |p, i| f(p, (codes[i] as usize).min(null))),
            _ => unreachable!("a lane without codes"),
        }
    }
}

/// The accumulator of one call in each row's group: the column of the state
/// matrix a per-call kernel writes.
struct CallStates<'a> {
    states: &'a mut [AggState],
    gids: &'a [u32],
    stride: usize,
    call: usize,
}

impl CallStates<'_> {
    #[inline]
    fn at(&mut self, p: usize) -> &mut AggState {
        &mut self.states[self.gids[p] as usize * self.stride + self.call]
    }
}

/// Call `f(p, row)` for each row until one fails; the error comes back with
/// the position of the row that raised it.
fn each_row(
    rows: &[Row],
    mut f: impl FnMut(usize, &Row) -> Result<()>,
) -> std::result::Result<(), (usize, CsqError)> {
    rows.iter()
        .enumerate()
        .try_for_each(|(p, row)| f(p, row).map_err(|e| (p, e)))
}

/// The insertion-ordered group table: group ids are handed out in
/// first-occurrence order of each key, keys and accumulator states live in
/// flat vectors indexed by group id, and an open-addressing index (linear
/// probing over `slots`, at most half full) finds a key's group from its
/// hash without building a key row. Keys hash through std's randomly seeded
/// SipHash — they are table data, so the index keeps the collision
/// resistance `HashMap` has.
///
/// The table also carries what it has registered with the operator's
/// [`MemoryTracker`], and releases it when cleared or dropped — so a build
/// that ends in an error gives its bytes back like one that finishes.
struct GroupTable {
    key_len: usize,
    funcs: Vec<AggFunc>,
    /// Tracked bytes a group costs beyond its key's wire size.
    group_overhead: usize,
    hasher: RandomState,
    /// Group id + 1 per occupied slot, 0 for an empty one; a power of two.
    slots: Vec<u32>,
    /// Key hash per group (probe shortcut, and the rehash input).
    hashes: Vec<u64>,
    /// `key_len` values per group.
    keys: Vec<Value>,
    /// One state per call per group.
    states: Vec<AggState>,
    memory: Option<Arc<MemoryTracker>>,
    /// Approximate bytes currently registered with `memory`.
    tracked: usize,
    /// Per-batch scratch: the group id of each row, and of each key code.
    gids: Vec<u32>,
    code_groups: Vec<u32>,
}

impl GroupTable {
    /// `hint` seeds the capacity; it bounds input *rows*, an upper bound on
    /// groups that can overshoot wildly for low-cardinality keys, so it is
    /// capped and growth amortizes past it.
    fn new(
        key_len: usize,
        aggs: &[AggSpec],
        memory: Option<Arc<MemoryTracker>>,
        hint: usize,
    ) -> GroupTable {
        let hint = hint.min(1024);
        let state_width: usize = aggs.iter().map(AggSpec::state_width).sum();
        GroupTable {
            key_len,
            funcs: aggs.iter().map(|a| a.func).collect(),
            group_overhead: state_width * 16 + ENTRY_OVERHEAD,
            hasher: RandomState::new(),
            slots: vec![0; (hint * 2).next_power_of_two().max(16)],
            hashes: Vec::with_capacity(hint),
            keys: Vec::with_capacity(hint * key_len),
            states: Vec::with_capacity(hint * aggs.len()),
            memory,
            tracked: 0,
            gids: Vec::new(),
            code_groups: Vec::new(),
        }
    }

    /// Groups in the table.
    fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Append a group with the key `push_key` writes; returns its id.
    fn push_group(&mut self, hash: u64, push_key: impl FnOnce(&mut Vec<Value>)) -> u32 {
        let g = self.hashes.len();
        assert!(g < u32::MAX as usize, "group ids are 32 bits");
        self.hashes.push(hash);
        push_key(&mut self.keys);
        let key_bytes: usize = self.keys[g * self.key_len..]
            .iter()
            .map(Value::wire_size)
            .sum();
        self.states
            .extend(self.funcs.iter().map(|&f| AggState::init(f)));
        let added = key_bytes + self.group_overhead;
        if let Some(t) = &self.memory {
            self.tracked += added;
            t.grow(added);
        }
        g as u32
    }

    /// Double the index and re-seat every group by its stored hash.
    fn grow_index(&mut self) {
        let mask = self.slots.len() * 2 - 1;
        self.slots = vec![0; mask + 1];
        for (g, &h) in self.hashes.iter().enumerate() {
            let mut s = h as usize & mask;
            while self.slots[s] != 0 {
                s = (s + 1) & mask;
            }
            self.slots[s] = g as u32 + 1;
        }
    }

    /// The group of row `p` of `keys`, added (so ids follow first occurrence,
    /// callers asking in row order) if its key was not seen before.
    fn group_of(&mut self, keys: &impl KeySource, p: usize) -> u32 {
        let h = keys.hash(&self.hasher, p);
        let mask = self.slots.len() - 1;
        let mut s = h as usize & mask;
        loop {
            match self.slots[s] {
                0 => {
                    let g = self.push_group(h, |out| keys.push_key(p, out));
                    self.slots[s] = g + 1;
                    if self.len() * 2 > self.slots.len() {
                        self.grow_index();
                    }
                    return g;
                }
                slot => {
                    let g = slot as usize - 1;
                    if self.hashes[g] == h
                        && keys.eq(p, &self.keys[g * self.key_len..][..self.key_len])
                    {
                        return slot - 1;
                    }
                    s = (s + 1) & mask;
                }
            }
        }
    }

    /// Fill `self.gids` with the group of each row of `keys`.
    fn resolve(&mut self, keys: &impl KeySource) {
        let mut gids = std::mem::take(&mut self.gids);
        gids.clear();
        if self.key_len == 0 {
            // A global aggregate: every row is in the one group.
            if self.len() == 0 {
                self.push_group(0, |_| {});
            }
            gids.resize(keys.len(), 0);
        } else if keys.codes() > 0 {
            // Group id + 1 of each code met so far in this batch.
            let mut seen = std::mem::take(&mut self.code_groups);
            seen.clear();
            seen.resize(keys.codes(), 0);
            keys.for_each_code(|p, code| {
                if seen[code] == 0 {
                    seen[code] = self.group_of(keys, p) + 1;
                }
                gids.push(seen[code] - 1);
            });
            self.code_groups = seen;
        } else {
            gids.extend((0..keys.len()).map(|p| self.group_of(keys, p)));
        }
        self.gids = gids;
    }

    /// Group `batch`'s rows by `key` — read from its lanes when it has them,
    /// from its rows otherwise.
    fn resolve_batch(&mut self, key: &[usize], batch: &RowBatch) {
        match batch.lanes() {
            Some((lanes, sel)) => self.resolve(&LaneKeys {
                lanes: key.iter().map(|&k| &*lanes[k]).collect(),
                sel,
            }),
            None => self.resolve(&RowKeys {
                rows: batch.rows(),
                cols: key,
            }),
        }
    }

    /// Accumulate a batch of raw input (the single and partial phases): its
    /// rows are grouped, then each call runs over the whole batch — on the
    /// argument's lane when the argument is a plain column of a lane-backed
    /// batch, over the batch's rows otherwise.
    ///
    /// A row loop would stop at the first failing row, and within it at the
    /// first failing call; so each call runs only up to the earliest row an
    /// earlier call failed on, and an error there (a strictly earlier row)
    /// replaces the one held.
    fn update(&mut self, key: &[usize], aggs: &[AggSpec], batch: &RowBatch) -> Result<()> {
        self.resolve_batch(key, batch);
        let mut limit = batch.len();
        let mut first = None;
        for (a, spec) in aggs.iter().enumerate() {
            if let Err((p, e)) = self.update_call(a, spec, batch, limit) {
                (limit, first) = (p, Some(e));
            }
        }
        first.map_or(Ok(()), Err)
    }

    /// Run call `a` over the first `limit` rows of `batch`; an error comes
    /// back with the position of the row that raised it.
    fn update_call(
        &mut self,
        a: usize,
        spec: &AggSpec,
        batch: &RowBatch,
        limit: usize,
    ) -> std::result::Result<(), (usize, CsqError)> {
        let func = spec.func;
        let mut col = CallStates {
            states: &mut self.states,
            gids: &self.gids,
            stride: self.funcs.len(),
            call: a,
        };
        match (&spec.arg, batch.lanes()) {
            (None, _) => {
                (0..limit).try_for_each(|p| col.at(p).update_value(func, None).map_err(|e| (p, e)))
            }
            (Some(PhysExpr::Column(c)), Some((lanes, sel))) if *c < lanes.len() => {
                match &*lanes[*c] {
                    Lane::Int { values, nulls } => each_width!(values, v => {
                        sel.try_for_each(limit, |p, i| match nulls.get(i) {
                            true => Ok(()),
                            false => col.at(p).update_int(func, wide(v[i])),
                        })
                    }),
                    Lane::Float { values, nulls } => {
                        sel.try_for_each(limit, |p, i| match nulls.get(i) {
                            true => Ok(()),
                            false => col.at(p).update_float(func, values[i]),
                        })
                    }
                    lane => sel.try_for_each(limit, |p, i| {
                        col.at(p).update_value(func, Some(&lane.value(i)))
                    }),
                }
            }
            (Some(arg @ PhysExpr::Column(c)), None) => {
                each_row(&batch.rows()[..limit], |p, row| {
                    match row.values().get(*c) {
                        Some(v) => col.at(p).update_value(func, Some(v)),
                        // Out of range: the evaluator words the error.
                        None => arg.eval(row).map(drop),
                    }
                })
            }
            (Some(e), _) => each_row(&batch.rows()[..limit], |p, row| {
                let v = e.eval(row)?;
                col.at(p).update_value(func, Some(&v))
            }),
        }
    }

    /// Merge a batch of partial-state rows (the final phase, and the
    /// read-back of a spill partition): key columns first, then each call's
    /// state columns.
    fn merge(&mut self, aggs: &[AggSpec], rows: &[Row]) -> Result<()> {
        let key: Vec<usize> = (0..self.key_len).collect();
        self.resolve(&RowKeys { rows, cols: &key });
        let n = self.funcs.len();
        for (row, &g) in rows.iter().zip(&self.gids) {
            let vals = row.values();
            let mut at = self.key_len;
            for (spec, st) in aggs.iter().zip(&mut self.states[g as usize * n..][..n]) {
                let w = spec.state_width();
                st.merge(&vals[at..at + w])?;
                at += w;
            }
        }
        Ok(())
    }

    /// Empty the table into one row per group, in group-id order: the key,
    /// then each call's partial state (`emit_state`) or finished value. The
    /// registered bytes go back to the tracker.
    fn drain_rows(&mut self, emit_state: bool) -> Result<Vec<Row>> {
        let (key_len, n) = (self.key_len, self.funcs.len());
        let mut out = Vec::with_capacity(self.len());
        let mut keys = std::mem::take(&mut self.keys).into_iter();
        let mut states = std::mem::take(&mut self.states).into_iter();
        for _ in 0..self.len() {
            let mut vals: Vec<Value> = Vec::with_capacity(key_len + 2 * n);
            vals.extend(keys.by_ref().take(key_len));
            for st in states.by_ref().take(n) {
                if emit_state {
                    st.emit_state(&mut vals);
                } else {
                    vals.push(st.finish()?);
                }
            }
            out.push(Row::new(vals));
        }
        self.hashes.clear();
        self.slots.fill(0);
        self.release();
        Ok(out)
    }

    fn release(&mut self) {
        if let Some(t) = &self.memory {
            t.shrink(self.tracked);
        }
        self.tracked = 0;
    }
}

impl Drop for GroupTable {
    fn drop(&mut self) {
        self.release();
    }
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
/// ORDER BY above is unaffected). Whatever the build registered with the
/// tracker is released when its table goes — at the end of the build,
/// however it ends; a build that fails is returned once and leaves the
/// operator exhausted.
pub struct HashAggregate {
    /// `Some` until the first pull takes it to build `groups`.
    input: Option<BoxOp>,
    /// Group-key column ordinals in the input.
    key: Vec<usize>,
    aggs: Vec<AggSpec>,
    mode: Mode,
    schema: Arc<Schema>,
    groups: std::vec::IntoIter<Row>,
    /// Byte budget shared with other operators; `None` = never spill.
    memory: Option<Arc<MemoryTracker>>,
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
    fn with(
        input: BoxOp,
        key: Vec<usize>,
        aggs: Vec<AggSpec>,
        mode: Mode,
        schema: Schema,
    ) -> HashAggregate {
        HashAggregate {
            input: Some(input),
            key,
            aggs,
            mode,
            schema: Arc::new(schema),
            groups: Vec::new().into_iter(),
            memory: None,
            spilled: Vec::new(),
            spill_events: 0,
        }
    }

    /// Single-phase aggregation: raw rows in, finished groups out.
    pub fn new(input: BoxOp, key: Vec<usize>, aggs: Vec<AggSpec>) -> HashAggregate {
        let schema = aggregate_output_schema(input.schema(), &key, &aggs);
        HashAggregate::with(input, key, aggs, Mode::Single, schema)
    }

    /// Partial phase: raw rows in, partial-state rows out.
    pub fn partial(input: BoxOp, key: Vec<usize>, aggs: Vec<AggSpec>) -> HashAggregate {
        let schema = aggregate_state_schema(input.schema(), &key, &aggs);
        HashAggregate::with(input, key, aggs, Mode::Partial, schema)
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
        let key = (0..key_len).collect();
        Ok(HashAggregate::with(
            input,
            key,
            aggs,
            Mode::Final,
            Schema::new(fields),
        ))
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

    /// Accumulate one input batch into `table`, per the operator's mode.
    fn absorb(&self, table: &mut GroupTable, batch: &RowBatch) -> Result<()> {
        match self.mode {
            Mode::Single | Mode::Partial => table.update(&self.key, &self.aggs, batch),
            Mode::Final => table.merge(&self.aggs, batch.rows()),
        }
    }

    /// Drain the input and build the group table (insertion-ordered so the
    /// output is deterministic: first-occurrence order of each key).
    fn build(&mut self, mut input: BoxOp) -> Result<Vec<Row>> {
        let hint = input.size_hint().unwrap_or(0);
        let mut table = GroupTable::new(self.key.len(), &self.aggs, self.memory.clone(), hint);
        while let Some(batch) = input.next_batch()? {
            self.absorb(&mut table, &batch)?;
            // Budget check at batch granularity: flush the table as
            // partial-state rows, hash-partitioned by key, and continue
            // with an empty table.
            if let Some(t) = self.memory.clone() {
                if t.over_budget() && table.len() > 0 {
                    self.spill_groups(&mut table)?;
                    t.record_spill();
                }
            }
        }
        if !self.spilled.is_empty() {
            self.spill_groups(&mut table)?;
            return self.merge_spilled();
        }
        // A global aggregate (no GROUP BY) over zero rows still produces one
        // group: COUNT(*) = 0, SUM/MIN/MAX/AVG = NULL.
        if table.len() == 0 && self.key.is_empty() {
            table.push_group(0, |_| {});
        }
        table.drain_rows(self.mode == Mode::Partial)
    }

    /// Flush the current group table to the spill partitions as
    /// partial-state rows (creating the partitions on first use) and clear
    /// it, releasing its registered bytes.
    fn spill_groups(&mut self, table: &mut GroupTable) -> Result<()> {
        if self.spilled.is_empty() {
            self.spilled = (0..SPILL_PARTITIONS)
                .map(|_| SpillFile::create())
                .collect::<Result<_>>()?;
        }
        if table.len() == 0 {
            return Ok(());
        }
        self.spill_events += 1;
        let key_cols: Vec<usize> = (0..self.key.len()).collect();
        let mut chunks: Vec<Vec<Row>> = vec![Vec::new(); self.spilled.len()];
        for row in table.drain_rows(true)? {
            let p = row.partition_of(Some(&key_cols), self.spilled.len());
            chunks[p].push(row);
        }
        for (part, chunk) in self.spilled.iter_mut().zip(&chunks) {
            part.write_rows(chunk)?;
        }
        Ok(())
    }

    /// Read the spill partitions back one at a time, merging each
    /// partition's partial-state rows (disjoint key sets) and emitting per
    /// the operator's mode.
    fn merge_spilled(&mut self) -> Result<Vec<Row>> {
        let parts = std::mem::take(&mut self.spilled);
        let mut out = Vec::new();
        for part in parts {
            let mut reader = part.into_reader()?;
            let mut table = GroupTable::new(self.key.len(), &self.aggs, None, 0);
            while let Some(frame) = reader.next_frame()? {
                table.merge(&self.aggs, &frame)?;
            }
            out.extend(table.drain_rows(self.mode == Mode::Partial)?);
        }
        Ok(out)
    }

    fn produce(&mut self) -> Result<Option<RowBatch>> {
        if let Some(input) = self.input.take() {
            self.groups = self.build(input)?.into_iter();
        }
        crate::ops::produce_chunk(&mut self.groups, &self.schema)
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

    /// [`update_value`](Self::update_value) of a non-NULL INT read off a
    /// typed lane, without the `Value`: `Int` against an `Int` accumulator is
    /// decided here, every other pairing by `update_value`.
    #[inline]
    fn update_int(&mut self, func: AggFunc, x: i64) -> Result<()> {
        match self {
            AggState::Count(n) => *n += 1,
            AggState::Sum(acc) => add_int(acc, x)?,
            AggState::Avg { sum, n } => {
                add_int(sum, x)?;
                *n += 1;
            }
            AggState::Min(Value::Int(a)) => *a = (*a).min(x),
            AggState::Max(Value::Int(a)) => *a = (*a).max(x),
            AggState::Min(_) | AggState::Max(_) => {
                return self.update_value(func, Some(&Value::Int(x)))
            }
        }
        Ok(())
    }

    /// The FLOAT sibling of [`update_int`](Self::update_int); MIN/MAX go
    /// through `update_value`, which owns the NaN error.
    #[inline]
    fn update_float(&mut self, func: AggFunc, x: f64) -> Result<()> {
        match self {
            AggState::Count(n) => *n += 1,
            AggState::Sum(acc) => add_float(acc, x)?,
            AggState::Avg { sum, n } => {
                add_float(sum, x)?;
                *n += 1;
            }
            AggState::Min(_) | AggState::Max(_) => {
                return self.update_value(func, Some(&Value::Float(x)))
            }
        }
        Ok(())
    }
}

batch_operator!(HashAggregate, hint: |s: &HashAggregate| {
    s.input.is_none().then(|| s.groups.len())
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testing::assert_latched;
    use crate::ops::{collect, CancelCheck, ColumnarScan, Filter, RowsOp, Sort};
    use csq_common::{CancelToken, DEFAULT_BATCH_SIZE};
    use csq_storage::Table;

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

    /// Hands out `rows` a batch at a time and then, instead of ending, does
    /// what `after` says: raise, or trip a token a `CancelCheck` above reads.
    struct Interrupted {
        schema: Arc<Schema>,
        batches: std::vec::IntoIter<Vec<Row>>,
        after: Box<dyn FnMut() -> Result<()> + Send>,
    }

    impl Operator for Interrupted {
        fn schema(&self) -> &Schema {
            &self.schema
        }

        fn next_batch(&mut self) -> Result<Option<RowBatch>> {
            match self.batches.next() {
                Some(rows) => Ok(Some(RowBatch::from_rows(self.schema.clone(), rows))),
                None => (self.after)().map(|()| {
                    // Cancelled, not failed: one more batch for the check
                    // above to refuse.
                    Some(RowBatch::from_rows(self.schema.clone(), rows()))
                }),
            }
        }
    }

    #[test]
    fn a_build_that_fails_or_is_cancelled_returns_its_tracked_bytes() {
        let three_batches = |after: Box<dyn FnMut() -> Result<()> + Send>| Interrupted {
            schema: Arc::new(schema()),
            batches: vec![rows(), rows(), rows()].into_iter(),
            after,
        };
        let tracker = MemoryTracker::unlimited();

        let failing = three_batches(Box::new(|| Err(CsqError::Exec("source failed".into()))));
        let mut agg =
            HashAggregate::new(Box::new(failing), vec![0], specs()).with_memory(tracker.clone());
        assert_eq!(
            collect(&mut agg).unwrap_err().to_string(),
            "exec error: source failed"
        );
        assert_eq!(tracker.used(), 0, "a failed build keeps nothing registered");

        let token = CancelToken::new();
        let trip = token.clone();
        let cancelled = three_batches(Box::new(move || {
            trip.cancel();
            Ok(())
        }));
        let checked = CancelCheck::new(Box::new(cancelled), token);
        let mut agg =
            HashAggregate::new(Box::new(checked), vec![0], specs()).with_memory(tracker.clone());
        assert_eq!(collect(&mut agg).unwrap_err().kind(), "cancelled");
        assert_eq!(
            tracker.used(),
            0,
            "a cancelled build keeps nothing registered"
        );

        // While a build is under way its groups are registered.
        let mut table = GroupTable::new(1, &specs(), Some(tracker.clone()), 0);
        let batch = RowBatch::from_rows(Arc::new(schema()), rows());
        table.update(&[0], &specs(), &batch).unwrap();
        assert!(tracker.used() > 0);
        drop(table);
        assert_eq!(tracker.used(), 0);
    }

    #[test]
    fn aggregate_is_exhausted_after_a_failed_build() {
        let failing = Interrupted {
            schema: Arc::new(schema()),
            batches: vec![rows(), rows()].into_iter(),
            after: Box::new(|| Err(CsqError::Exec("source failed".into()))),
        };
        let mut agg = HashAggregate::new(Box::new(failing), vec![0], specs());
        assert_latched(&mut agg, "exec");
        assert_eq!(agg.size_hint(), Some(0));
        // An accumulator failing (SUM over a string) ends it the same way.
        let s = Schema::new(vec![Field::new("s", DataType::Str)]);
        let scan = Box::new(RowsOp::new(s, vec![Row::new(vec![Value::from("x")])]));
        let sum_s = AggSpec::new(AggFunc::Sum, Some(PhysExpr::Column(0)), "s");
        assert_latched(&mut HashAggregate::new(scan, vec![], vec![sum_s]), "type");
    }

    /// 40 rows sealed 16 to a segment (so two sealed segments and a tail of
    /// 8, which the first scan seals into a run): `k` cycles 0..5 with a
    /// NULL, `v` has NULLs, `f` is FLOAT.
    fn sealed_table() -> Arc<Table> {
        let t = Table::with_segment_rows("t", schema(), 16).unwrap();
        t.insert_all(
            (0..40i64)
                .map(|i| {
                    Row::new(vec![
                        if i % 6 == 5 {
                            Value::Null
                        } else {
                            Value::Int(i % 6)
                        },
                        if i % 7 == 0 {
                            Value::Null
                        } else {
                            Value::Int(i)
                        },
                        Value::Float(i as f64 * 0.5),
                    ])
                })
                .collect(),
        )
        .unwrap();
        Arc::new(t)
    }

    #[test]
    fn lane_batches_are_aggregated_without_building_their_rows() {
        let table = sealed_table();
        let expect = {
            let rows = RowsOp::new(schema().qualify("t"), table.snapshot());
            collect(&mut HashAggregate::new(Box::new(rows), vec![0], specs())).unwrap()
        };

        // The operator's own build loop, batch by batch, so each batch can be
        // looked at after the table has read it.
        let mut scan = ColumnarScan::new(&table, "t", None).unwrap();
        let mut groups = GroupTable::new(1, &specs(), None, 0);
        let (mut lane_batches, mut row_batches) = (0, 0);
        while let Some(batch) = scan.next_batch().unwrap() {
            let from_lanes = batch.lanes().is_some();
            groups.update(&[0], &specs(), &batch).unwrap();
            assert!(!batch.is_materialized(), "no scanned row is built");
            *(if from_lanes {
                &mut lane_batches
            } else {
                &mut row_batches
            }) += 1;
        }
        assert_eq!(
            (lane_batches, row_batches),
            (3, 0),
            "two segments, and the tail sealed into one run"
        );
        assert_eq!(groups.drain_rows(false).unwrap(), expect);

        // The operator agrees, group order included; and an argument that is
        // a real expression reads rows, as before.
        let scan = ColumnarScan::new(&table, "t", None).unwrap();
        let got = collect(&mut HashAggregate::new(Box::new(scan), vec![0], specs())).unwrap();
        assert_eq!(got, expect);
        let doubled = PhysExpr::Binary {
            left: Box::new(PhysExpr::Column(1)),
            op: BinaryOp::Add,
            right: Box::new(PhysExpr::Column(1)),
        };
        let expr_specs = vec![AggSpec::new(AggFunc::Sum, Some(doubled), "s2")];
        let mut scan = ColumnarScan::new(&table, "t", None).unwrap();
        let batch = scan.next_batch().unwrap().unwrap();
        let mut groups = GroupTable::new(1, &expr_specs, None, 0);
        groups.update(&[0], &expr_specs, &batch).unwrap();
        assert!(batch.is_materialized());
    }

    #[test]
    fn a_filter_above_the_scan_builds_exactly_its_survivors() {
        let table = sealed_table();
        let pred = PhysExpr::Binary {
            left: Box::new(PhysExpr::Column(1)),
            op: BinaryOp::Gt,
            right: Box::new(PhysExpr::Literal(Value::Int(30))),
        };
        let spec = csq_storage::FilterSpec::from_phys(&pred).unwrap();
        let mut scan = ColumnarScan::new(&table, "t", Some(&spec)).unwrap();
        let batch = scan.next_batch().unwrap().unwrap();
        // Row 31 is the one row of the second segment (16..32) with `v > 30`.
        assert_eq!(batch.len(), 1);
        assert!(!batch.is_materialized());
        assert_eq!(batch.rows(), &table.snapshot()[31..32]);
        assert!(batch.is_materialized());
        let scan = ColumnarScan::new(&table, "t", Some(&spec)).unwrap();
        let kept = collect(&mut Filter::new(Box::new(scan), pred)).unwrap();
        let expect: Vec<Row> = table.snapshot()[31..]
            .iter()
            .filter(|r| !r.value(1).is_null())
            .cloned()
            .collect();
        assert_eq!(kept, expect);
    }
}
