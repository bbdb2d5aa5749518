//! Vectorized grouped aggregation (DESIGN.md §7).
//!
//! [`HashAggregate`] is the batch-native GROUP BY operator: it drains its
//! input batch-wise into an insertion-ordered group table (sized from the
//! input's [`crate::Operator::size_hint`]) that keeps one accumulator column
//! per state column — an `i64` count, a running sum (INT, FLOAT or unset),
//! or a MIN/MAX `Value`, one slot per group — then re-emits finished groups
//! in first-occurrence order.
//!
//! There is one group table and two ways to read a batch into it, chosen by
//! the batch's own representation. A lane-backed batch (what the scan emits
//! for a sealed segment) is grouped on its key lanes and each call whose
//! argument is a plain column is accumulated on that column's lane — one
//! tight loop over the rows' group ids per pairing of column, lane kind and
//! INT width, `Lane::value` into the column's one per-value update for every
//! other pairing — so the batch's rows are never built. A key that is one
//! small-domain lane is grouped through a code map instead of a hash probe
//! per row; a one-byte INT's or a BOOL's codes are the values themselves,
//! so that map lives until the table drains (the end of the build, each
//! spill flush), and a dictionary's codes, which mean something only in
//! their segment, are mapped afresh each batch. A row batch is grouped on
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
//! MIN/MAX accumulate through [`crate::ops::compare_values`], so a
//! NaN-bearing group is an exec *error* here, never a comparator panic.
//!
//! Every group table — the build's, and each spill partition's as it is
//! merged back — holds its tracked bytes itself and gives them back when it
//! drains or goes (DESIGN.md §11).

use std::cmp::Ordering;
use std::sync::Arc;

use csq_common::lane::wide;
use csq_common::{
    each_width, CsqError, DataType, Field, IntLane, KeyIndex, Lane, NullBitmap, Result, Row,
    RowBatch, Schema, Selection, Value,
};
use csq_expr::physical::{arith, Num};
pub use csq_expr::AggSpec;
use csq_expr::{AggFunc, BinaryOp, PhysExpr};

use crate::ops::{batch_operator, compare_values};
use crate::spill::{
    partition_rows, spill_partitions, MemoryTracker, Reservation, SpillFile, ENTRY_OVERHEAD,
};
use crate::{BoxOp, Operator};

/// A running SUM: `None` until the group's first non-NULL argument.
type Sum = Option<Num>;

/// `acc + x` as `eval_binary` adds them (INT + INT is INT, an overflow the
/// exec error scalar arithmetic raises; anything else FLOAT), an unset sum
/// taking `x`: the one rule of a running sum, for the lane kernels, the row
/// path, the merge and the spill read-back alike. A sum of the argument's
/// own type adds in place; the rest (a group's first value, an overflow, a
/// sum that changes type) goes to the scalar `arith`, out of line.
#[inline(always)]
fn add(acc: &mut Sum, x: Num) -> Result<()> {
    match (acc, x) {
        (Some(Num::Int(a)), Num::Int(b)) if a.checked_add(b).is_some() => *a += b,
        (Some(Num::Float(a)), Num::Float(b)) => *a += b,
        (acc, x) => add_cold(acc, x)?,
    }
    Ok(())
}

#[cold]
#[inline(never)]
fn add_cold(acc: &mut Sum, x: Num) -> Result<()> {
    *acc = match *acc {
        None => Some(x),
        a => arith(BinaryOp::Add, a, Some(x))?,
    };
    Ok(())
}

/// One state column's accumulators, one slot per group id (an AVG call has
/// two columns: its sum, then its count).
enum Column {
    Count(Vec<i64>),
    Sum(Vec<Sum>),
    /// MIN (`Less` wins) or MAX (`Greater` wins); NULL = unset.
    Extreme(Vec<Value>, Ordering),
}

/// The state columns of `funcs`, in order, each with room for `hint` groups.
fn columns(funcs: &[AggFunc], hint: usize) -> Vec<Column> {
    let mut out = Vec::with_capacity(2 * funcs.len());
    for &f in funcs {
        out.push(match f {
            AggFunc::Count => Column::Count(Vec::with_capacity(hint)),
            AggFunc::Sum | AggFunc::Avg => Column::Sum(Vec::with_capacity(hint)),
            AggFunc::Min => Column::Extreme(Vec::with_capacity(hint), Ordering::Less),
            AggFunc::Max => Column::Extreme(Vec::with_capacity(hint), Ordering::Greater),
        });
        if f == AggFunc::Avg {
            out.push(Column::Count(Vec::with_capacity(hint)));
        }
    }
    out
}

impl Column {
    /// Add a group's slot: a zero count, an unset sum or extreme.
    fn grow(&mut self) {
        match self {
            Column::Count(c) => c.push(0),
            Column::Sum(c) => c.push(None),
            Column::Extreme(c, _) => c.push(Value::Null),
        }
    }

    /// Fold one raw argument into group `g`'s slot: the per-value update of
    /// each accumulator. NULL is skipped (a count counts the rest), a sum
    /// takes only numbers, and an extreme compares through
    /// `compare_values`.
    fn update(&mut self, g: usize, v: &Value) -> Result<()> {
        match (self, v) {
            (Column::Count(c), v) => c[g] += i64::from(!v.is_null()),
            (_, Value::Null) => {}
            (Column::Sum(c), Value::Int(x)) => add(&mut c[g], Num::Int(*x))?,
            (Column::Sum(c), Value::Float(x)) => add(&mut c[g], Num::Float(*x))?,
            (Column::Sum(_), v) => {
                return Err(CsqError::Type(format!(
                    "aggregate argument must be numeric, got {:?}",
                    v.data_type()
                )))
            }
            (Column::Extreme(c, wins), v) => {
                if c[g].is_null() || compare_values(v, &c[g])? == *wins {
                    c[g] = v.clone();
                }
            }
        }
        Ok(())
    }

    /// Fold one partial-state value into group `g`'s slot (the final phase
    /// and the spill read-back): a count adds the count it was shipped (an
    /// overflow the exec error scalar arithmetic raises), a sum or an
    /// extreme takes its state as an argument.
    fn merge(&mut self, g: usize, v: &Value) -> Result<()> {
        match self {
            Column::Count(c) => {
                c[g] = c[g]
                    .checked_add(v.as_i64()?)
                    .ok_or_else(|| CsqError::Exec("integer overflow".into()))?
            }
            column => column.update(g, v)?,
        }
        Ok(())
    }

    /// Group `g`'s state as the value it ships as, leaving an extreme unset.
    fn take(&mut self, g: usize) -> Value {
        match self {
            Column::Count(c) => Value::Int(c[g]),
            Column::Sum(c) => c[g].map_or(Value::Null, Num::value),
            Column::Extreme(c, _) => std::mem::replace(&mut c[g], Value::Null),
        }
    }
}

/// Call `f(p, i)` for each of the first `limit` rows `sel` selects that
/// `nulls` does not mark, until one fails; the error comes back with the
/// row's position. The selection's shape, and whether there is a NULL to
/// skip at all, are decided once, outside the loop.
#[inline(always)]
fn each_valid(
    sel: &Selection,
    limit: usize,
    nulls: &NullBitmap,
    mut f: impl FnMut(usize, usize) -> Result<()>,
) -> std::result::Result<(), (usize, CsqError)> {
    if nulls.count_ones() == 0 {
        return sel.try_for_each(limit, f);
    }
    sel.try_for_each(limit, |p, i| if nulls.get(i) { Ok(()) } else { f(p, i) })
}

/// Fold the first `limit` rows `sel` selects from `lane` into `col`, row
/// `p` into group `gids[p]`. A count over an INT, FLOAT or BOOL lane, and a
/// sum over an INT lane (at its own width) or a FLOAT lane, are one loop
/// each over the rows' group ids; every other pairing reads
/// `Lane::value(i)` into [`Column::update`]. A kernel indexes its column as
/// a slice: indexed through the `Vec`, the loop reloaded the vector's
/// pointer and length on every row.
fn absorb_lane(
    col: &mut Column,
    gids: &[u32],
    lane: &Lane,
    sel: &Selection,
    limit: usize,
) -> std::result::Result<(), (usize, CsqError)> {
    match (col, lane) {
        (
            Column::Count(c),
            Lane::Int { nulls, .. } | Lane::Float { nulls, .. } | Lane::Bool { nulls, .. },
        ) => {
            let c = &mut c[..];
            each_valid(sel, limit, nulls, |p, _| {
                c[gids[p] as usize] += 1;
                Ok(())
            })
        }
        (Column::Sum(c), Lane::Int { values, nulls }) => {
            let c = &mut c[..];
            each_width!(values, v => each_valid(sel, limit, nulls, |p, i| {
                add(&mut c[gids[p] as usize], Num::Int(wide(v[i])))
            }))
        }
        (Column::Sum(c), Lane::Float { values, nulls }) => {
            let c = &mut c[..];
            each_valid(sel, limit, nulls, |p, i| {
                add(&mut c[gids[p] as usize], Num::Float(values[i]))
            })
        }
        (col, lane) => sel.try_for_each(limit, |p, i| col.update(gids[p] as usize, &lane.value(i))),
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
    /// Hash of row `p`'s key in `index`: each cell hashed as the [`Value`]
    /// it is, the cells folded in key order.
    fn hash(&self, index: &KeyIndex, p: usize) -> u64;
    /// Whether row `p`'s key equals `key`, by `Value` equality.
    fn eq(&self, p: usize, key: &[Value]) -> bool;
    /// Append row `p`'s key.
    fn push_key(&self, p: usize, out: &mut Vec<Value>);
    /// When every key of the batch is one of a few codes known up front (a
    /// one-byte INT, a BOOL, NULL, a dictionary code), push each row's code
    /// onto `out` and return the size of the code space: rows with equal
    /// codes have equal keys, so the table is probed once a code, not once a
    /// row. Codes below [`VALUE_CODES`] are the key values themselves and
    /// mean the same key in every batch; a dictionary's codes start there and
    /// mean something only within their batch. 0 (and nothing pushed) when
    /// the keys have no such codes.
    fn codes(&self, _out: &mut Vec<u32>) -> usize {
        0
    }
}

/// The value codes: a one-byte INT `x` is `x as u8`, then NULL, `false` and
/// `true`.
const NULL_CODE: u32 = 256;
const FALSE_CODE: u32 = 257;
const VALUE_CODES: usize = 259;

/// Push the code of each row `sel` selects from a lane: `code` of its value,
/// or [`NULL_CODE`] for a row `nulls` marks — a pass made only when it marks
/// one.
#[inline]
fn push_codes<T: Copy>(
    out: &mut Vec<u32>,
    sel: &Selection,
    values: &[T],
    nulls: Option<&NullBitmap>,
    code: impl Fn(T) -> u32,
) {
    let at = out.len();
    match sel {
        Selection::Window(w) => out.extend(values[w.clone()].iter().map(|&x| code(x))),
        Selection::Rows(rows) => out.extend(rows.iter().map(|&i| code(values[i]))),
    }
    if let Some(nulls) = nulls.filter(|n| n.count_ones() > 0) {
        sel.for_each(sel.len(), |p, i| {
            if nulls.get(i) {
                out[at + p] = NULL_CODE;
            }
        });
    }
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

    fn hash(&self, index: &KeyIndex, p: usize) -> u64 {
        let row = &self.rows[p];
        self.cols
            .iter()
            .fold(0, |h, &c| KeyIndex::fold(h, index.hash_cell(row.value(c))))
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

    fn hash(&self, index: &KeyIndex, p: usize) -> u64 {
        let i = self.sel.ordinal(p);
        self.lanes
            .iter()
            .fold(0, |h, lane| KeyIndex::fold(h, index.hash_lane(lane, i)))
    }

    fn eq(&self, p: usize, key: &[Value]) -> bool {
        let i = self.sel.ordinal(p);
        self.lanes.iter().zip(key).all(|(l, k)| l.eq_value(i, k))
    }

    fn push_key(&self, p: usize, out: &mut Vec<Value>) {
        let i = self.sel.ordinal(p);
        out.extend(self.lanes.iter().map(|l| l.value(i)));
    }

    fn codes(&self, out: &mut Vec<u32>) -> usize {
        let sel = self.sel;
        match self.lanes[..] {
            [Lane::Int {
                values: IntLane::I8(v),
                nulls,
            }] => push_codes(out, sel, v, Some(nulls), |x| x as u8 as u32),
            [Lane::Bool { values, nulls }] => {
                push_codes(out, sel, values, Some(nulls), |b| FALSE_CODE + b as u32)
            }
            [Lane::StrDict { dict, codes }] => {
                push_codes(out, sel, codes, None, |c| match c {
                    u32::MAX => NULL_CODE,
                    c => VALUE_CODES as u32 + c,
                });
                return VALUE_CODES + dict.len();
            }
            _ => return 0,
        }
        VALUE_CODES
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

/// The insertion-ordered group table: the group keys numbered by group id
/// in a [`KeyIndex`] (so ids follow each key's first occurrence, and a key
/// is found from its hash without building a key row), and one accumulator
/// [`Column`] per state column, indexed by group id.
///
/// The table also holds what it has registered with the operator's
/// [`MemoryTracker`] (a [`Reservation`]), and gives it back when drained or
/// dropped — so a build that ends in an error gives its bytes back like one
/// that finishes.
struct GroupTable {
    funcs: Vec<AggFunc>,
    /// Tracked bytes a group costs beyond its key's wire size.
    group_overhead: usize,
    index: KeyIndex,
    columns: Vec<Column>,
    reserved: Reservation,
    /// Per-batch scratch: the group id and the key code of each row.
    gids: Vec<u32>,
    codes: Vec<u32>,
    /// Group id + 1 of each key code met so far, 0 for one not met. The
    /// value codes (the first [`VALUE_CODES`]) name the same key in every
    /// batch, so they are kept until the table drains; a dictionary's codes
    /// past them are reset with each batch.
    code_groups: Vec<u32>,
}

impl GroupTable {
    /// `hint` seeds the capacity; it bounds input *rows*, an upper bound on
    /// groups that can overshoot wildly for low-cardinality keys, so it is
    /// capped and growth amortizes past it.
    fn new(
        key_len: usize,
        aggs: &[AggSpec],
        memory: &Arc<MemoryTracker>,
        hint: usize,
    ) -> GroupTable {
        let hint = hint.min(1024);
        let state_width: usize = aggs.iter().map(AggSpec::state_width).sum();
        let funcs: Vec<AggFunc> = aggs.iter().map(|a| a.func).collect();
        GroupTable {
            columns: columns(&funcs, hint),
            funcs,
            group_overhead: state_width * 16 + ENTRY_OVERHEAD,
            index: KeyIndex::new(key_len, hint),
            reserved: Reservation::new(memory),
            gids: Vec::new(),
            codes: Vec::new(),
            code_groups: Vec::new(),
        }
    }

    /// Groups in the table.
    fn len(&self) -> usize {
        self.index.len()
    }

    /// The group of the key that hashes to `hash` and that `eq` accepts,
    /// added with the key `push` writes (so ids follow first occurrence,
    /// callers asking in row order) if no group has it yet.
    #[inline]
    fn group(
        &mut self,
        hash: u64,
        eq: impl Fn(&[Value]) -> bool,
        push: impl FnOnce(&mut Vec<Value>),
    ) -> u32 {
        let (g, new) = self.index.insert(hash, eq, push);
        if new {
            let key_bytes: usize = self.index.key(g).iter().map(Value::wire_size).sum();
            self.columns.iter_mut().for_each(Column::grow);
            self.reserved.grow(key_bytes + self.group_overhead);
        }
        g as u32
    }

    /// The group of row `p` of `keys`.
    fn group_of(&mut self, keys: &impl KeySource, p: usize) -> u32 {
        let hash = keys.hash(&self.index, p);
        self.group(hash, |key| keys.eq(p, key), |out| keys.push_key(p, out))
    }

    /// Fill `self.gids` with the group of each row of `keys`.
    fn resolve(&mut self, keys: &impl KeySource) {
        let mut gids = std::mem::take(&mut self.gids);
        gids.clear();
        if self.index.width() == 0 {
            // A global aggregate: every row is in the one group (empty key).
            gids.resize(keys.len(), self.group(0, |_| true, |_| {}));
        } else {
            let mut codes = std::mem::take(&mut self.codes);
            codes.clear();
            match keys.codes(&mut codes) {
                0 => gids.extend((0..keys.len()).map(|p| self.group_of(keys, p))),
                space => {
                    let mut seen = std::mem::take(&mut self.code_groups);
                    seen.truncate(VALUE_CODES);
                    seen.resize(space, 0);
                    gids.resize(codes.len(), 0);
                    for (p, (gid, &code)) in gids.iter_mut().zip(&codes).enumerate() {
                        let g = &mut seen[code as usize];
                        if *g == 0 {
                            *g = self.group_of(keys, p) + 1;
                        }
                        *gid = *g - 1;
                    }
                    self.code_groups = seen;
                }
            }
            self.codes = codes;
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
        let (mut limit, mut first, mut at) = (batch.len(), None, 0);
        for spec in aggs {
            let cols = &mut self.columns[at..at + spec.state_width()];
            at += spec.state_width();
            if let Err((p, e)) = update_call(cols, spec, &self.gids[..limit], batch) {
                (limit, first) = (p, Some(e));
            }
        }
        first.map_or(Ok(()), Err)
    }

    /// Merge a batch of partial-state rows (the final phase, and the
    /// read-back of a spill partition): key columns first, then each state
    /// column, merged into its accumulator column.
    fn merge(&mut self, rows: &[Row]) -> Result<()> {
        let key_len = self.index.width();
        let key: Vec<usize> = (0..key_len).collect();
        self.resolve(&RowKeys { rows, cols: &key });
        for (row, &g) in rows.iter().zip(&self.gids) {
            let states = &row.values()[key_len..];
            for (col, v) in self.columns.iter_mut().zip(states) {
                col.merge(g as usize, v)?;
            }
        }
        Ok(())
    }

    /// Empty the table into one row per group, in group-id order: the key,
    /// then each call's partial state (`emit_state`) or finished value. The
    /// registered bytes go back to the tracker.
    fn drain_rows(&mut self, emit_state: bool) -> Result<Vec<Row>> {
        let (groups, key_len) = (self.len(), self.index.width());
        let mut cols = std::mem::replace(&mut self.columns, columns(&self.funcs, 0));
        let mut out = Vec::with_capacity(groups);
        let mut keys = self.index.clear().into_iter();
        for g in 0..groups {
            let mut vals: Vec<Value> = Vec::with_capacity(key_len + cols.len());
            vals.extend(keys.by_ref().take(key_len));
            let mut states = cols.iter_mut().map(|c| c.take(g));
            if emit_state {
                vals.extend(states);
            } else {
                for &f in &self.funcs {
                    let v = states.next().unwrap_or(Value::Null);
                    vals.push(match f {
                        AggFunc::Avg => match states.next() {
                            Some(Value::Int(n)) if n != 0 => Value::Float(v.as_f64()? / n as f64),
                            _ => Value::Null,
                        },
                        _ => v,
                    });
                }
            }
            out.push(Row::new(vals));
        }
        self.code_groups.clear();
        self.reserved.clear();
        Ok(out)
    }
}

/// Run one call over the first `gids.len()` rows of `batch` into its state
/// columns `cols`; an error comes back with the position of the row that
/// raised it. `COUNT(*)` counts the rows; a plain column of a lane-backed
/// batch is read from its lane ([`absorb_lane`], each column in turn); any
/// other argument is evaluated row by row, each value folded into every
/// column of the call.
fn update_call(
    cols: &mut [Column],
    spec: &AggSpec,
    gids: &[u32],
    batch: &RowBatch,
) -> std::result::Result<(), (usize, CsqError)> {
    let limit = gids.len();
    match (&spec.arg, batch.lanes()) {
        (None, _) => match &mut cols[0] {
            Column::Count(c) => {
                gids.iter().for_each(|&g| c[g as usize] += 1);
                Ok(())
            }
            Column::Extreme(..) if limit > 0 => Err((
                0,
                CsqError::Plan(format!("{} requires an argument", spec.func.name())),
            )),
            _ => Ok(()),
        },
        (Some(PhysExpr::Column(c)), Some((lanes, sel))) if *c < lanes.len() => cols
            .iter_mut()
            .try_for_each(|col| absorb_lane(col, gids, &lanes[*c], sel, limit)),
        (Some(arg), _) => each_row(&batch.rows()[..limit], |p, row| {
            let owned;
            let v = match (arg, row.values()) {
                (PhysExpr::Column(c), vals) if *c < vals.len() => &vals[*c],
                // A real expression, or a column out of range (the
                // evaluator words the error).
                _ => {
                    owned = arg.eval(row)?;
                    &owned
                }
            };
            let g = gids[p] as usize;
            cols.iter_mut().try_for_each(|col| col.update(g, v))
        }),
    }
}

/// The vectorized GROUP BY operator; see the module docs.
///
/// Every group table the operator builds registers its bytes with its
/// [`MemoryTracker`] (unlimited unless one is attached via
/// [`with_memory`](HashAggregate::with_memory)). Under a budget the build
/// phase spills when the budget is exceeded: the accumulated groups are emitted as
/// partial-state rows, hash-partitioned by group key into temp files, and
/// the table is cleared; at end of input each partition is read back and
/// merged independently (disjoint key sets, so peak memory is ~1/16th of
/// the working set; each partition's table is tracked while it is merged).
/// Results are identical to the in-memory path except for group *order*,
/// which becomes partition-major instead of global first-occurrence (GROUP
/// BY output order is unspecified). Whatever a table registered with the
/// tracker is released when the table drains or goes — at the end of the
/// build, however it ends; a build that fails is returned once and leaves
/// the operator exhausted.
pub struct HashAggregate {
    /// `Some` until the first pull takes it to build `groups`.
    input: Option<BoxOp>,
    /// Group-key column ordinals in the input.
    key: Vec<usize>,
    aggs: Vec<AggSpec>,
    mode: Mode,
    schema: Arc<Schema>,
    groups: std::vec::IntoIter<Row>,
    /// Byte budget shared with other operators.
    memory: Arc<MemoryTracker>,
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
            memory: MemoryTracker::unlimited(),
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
        self.memory = tracker;
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
            Mode::Final => table.merge(batch.rows()),
        }
    }

    /// Drain the input and build the group table (insertion-ordered so the
    /// output is deterministic: first-occurrence order of each key).
    fn build(&mut self, mut input: BoxOp) -> Result<Vec<Row>> {
        let hint = input.size_hint().unwrap_or(0);
        let mut table = GroupTable::new(self.key.len(), &self.aggs, &self.memory, hint);
        while let Some(batch) = input.next_batch()? {
            self.absorb(&mut table, &batch)?;
            // Budget check at batch granularity: flush the table as
            // partial-state rows, hash-partitioned by key, and continue
            // with an empty table.
            if self.memory.over_budget() && table.len() > 0 {
                self.spill_groups(&mut table)?;
                self.memory.record_spill();
            }
        }
        if !self.spilled.is_empty() {
            self.spill_groups(&mut table)?;
            return self.merge_spilled();
        }
        // A global aggregate (no GROUP BY) over zero rows still produces one
        // group: COUNT(*) = 0, SUM/MIN/MAX/AVG = NULL.
        if self.key.is_empty() {
            table.group(0, |_| true, |_| {});
        }
        table.drain_rows(self.mode == Mode::Partial)
    }

    /// Flush the current group table to the spill partitions as
    /// partial-state rows (creating the partitions on first use) and clear
    /// it, releasing its registered bytes.
    fn spill_groups(&mut self, table: &mut GroupTable) -> Result<()> {
        if self.spilled.is_empty() {
            self.spilled = spill_partitions();
        }
        if table.len() == 0 {
            return Ok(());
        }
        self.spill_events += 1;
        let key_cols: Vec<usize> = (0..self.key.len()).collect();
        let groups = table.drain_rows(true)?;
        partition_rows(&mut self.spilled, Some(&key_cols), groups, &mut Vec::new())
    }

    /// Read the spill partitions back one at a time, merging each
    /// partition's partial-state rows (disjoint key sets) and emitting per
    /// the operator's mode.
    fn merge_spilled(&mut self) -> Result<Vec<Row>> {
        let parts = std::mem::take(&mut self.spilled);
        let mut out = Vec::new();
        for part in parts {
            let mut reader = part.into_reader()?;
            let mut table = GroupTable::new(self.key.len(), &self.aggs, &self.memory, 0);
            while let Some(frame) = reader.next_frame()? {
                table.merge(&frame)?;
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

batch_operator!(HashAggregate, hint: |s: &HashAggregate| {
    s.input.is_none().then(|| s.groups.len())
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testing::assert_latched;
    use crate::ops::{collect, CancelCheck, ColumnarScan, Filter, RowsOp};
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
        let mut table = GroupTable::new(1, &specs(), &tracker, 0);
        let batch = RowBatch::from_rows(Arc::new(schema()), rows());
        table.update(&[0], &specs(), &batch).unwrap();
        assert!(tracker.used() > 0);
        drop(table);
        assert_eq!(tracker.used(), 0);
    }

    #[test]
    fn a_build_tracks_its_keys_and_a_fixed_cost_a_group() {
        // What every spill point is decided against: Σ key wire size +
        // groups × (state_width · 16 + ENTRY_OVERHEAD), registered as each
        // group is created, whichever way the batch is read.
        let state_width: usize = specs().iter().map(AggSpec::state_width).sum();
        assert_eq!(state_width, 7);
        let group = 7 * 16 + ENTRY_OVERHEAD;
        let tracker = MemoryTracker::unlimited();
        let mut table = GroupTable::new(1, &specs(), &tracker, 0);
        let batch = RowBatch::from_rows(Arc::new(schema()), rows());
        table.update(&[0], &specs(), &batch).unwrap();
        // Keys 1 and 2 (nine bytes each) and NULL (one).
        assert_eq!(tracker.used(), 19 + 3 * group);
        table.update(&[0], &specs(), &batch).unwrap();
        assert_eq!(tracker.used(), 19 + 3 * group, "no new group, no new bytes");
        assert_eq!(table.drain_rows(true).unwrap().len(), 3);
        assert_eq!(tracker.used(), 0);

        // Off the lanes: keys 0..=4 and NULL, with and without the key.
        let mut scan = ColumnarScan::new(&sealed_table(), "t", None).unwrap();
        let mut keyed = GroupTable::new(1, &specs(), &tracker, 0);
        let mut global = GroupTable::new(0, &specs(), &tracker, 0);
        while let Some(batch) = scan.next_batch().unwrap() {
            keyed.update(&[0], &specs(), &batch).unwrap();
            global.update(&[], &specs(), &batch).unwrap();
        }
        assert_eq!(tracker.used(), (5 * 9 + 1 + 6 * group) + group);
        drop((keyed, global));
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
        let mut groups = GroupTable::new(1, &specs(), &MemoryTracker::unlimited(), 0);
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
        let mut groups = GroupTable::new(1, &expr_specs, &MemoryTracker::unlimited(), 0);
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
