//! Core operators: sources, filter, project, sort.
//!
//! Every operator here is *batch native*: [`Operator::next_batch`] — the
//! only way to drive an operator — processes a whole [`RowBatch`] at a time,
//! amortizing dynamic dispatch and allocation. See DESIGN.md §2.

use std::cmp::Ordering;
use std::sync::Arc;

use csq_common::{CsqError, Field, Result, Row, RowBatch, Schema, Value, DEFAULT_BATCH_SIZE};
use csq_expr::PhysExpr;
use csq_storage::{FilterSpec, ScanStats, Table, TableScan};

/// A pull operator: [`Operator::next_batch`] is the one way to drive it.
pub trait Operator {
    /// Output schema.
    fn schema(&self) -> &Schema;

    /// Produce the next batch of rows, or `None` when exhausted. Returned
    /// batches are never empty.
    fn next_batch(&mut self) -> Result<Option<RowBatch>>;

    /// An upper bound on the rows this operator still expects to produce,
    /// when cheaply known (exact for sources and count-preserving
    /// operators). Used by [`collect`] as a capacity hint; `None` when
    /// nothing useful is known.
    fn size_hint(&self) -> Option<usize> {
        None
    }
}

/// Cap on rows preallocated from a size hint: hints are upper bounds (a
/// selective filter forwards its input's), so an uncapped
/// `with_capacity(hint)` could transiently allocate input-sized buffers
/// for tiny outputs. Past the cap, `Vec` doubling amortizes fine.
const MAX_HINTED_CAPACITY: usize = 64 * DEFAULT_BATCH_SIZE;

/// Drain an operator into a vector, preallocating from its size hint.
pub fn collect(op: &mut dyn Operator) -> Result<Vec<Row>> {
    let hint = op.size_hint().unwrap_or(0).min(MAX_HINTED_CAPACITY);
    let mut out = Vec::with_capacity(hint);
    while let Some(batch) = op.next_batch()? {
        out.extend(batch.into_rows());
    }
    Ok(out)
}

/// Cooperative-cancellation checkpoint: forwards its input unchanged but
/// consults a [`CancelToken`](csq_common::CancelToken) once per pulled batch, surfacing a typed
/// `Cancelled`/`Timeout` error the moment the token trips. Lowering inserts
/// one of these above every source (and the plan root), so a pull anywhere
/// in the tree observes cancellation within one batch of work — the
/// granularity DESIGN.md §10 promises. Zero-cost when the token never
/// fires: one relaxed atomic load per ~1024 rows.
pub struct CancelCheck {
    inner: Box<dyn Operator + Send>,
    token: csq_common::CancelToken,
}

impl CancelCheck {
    /// Wrap `inner`, checking `token` at every batch boundary.
    pub fn new(inner: Box<dyn Operator + Send>, token: csq_common::CancelToken) -> CancelCheck {
        CancelCheck { inner, token }
    }
}

impl Operator for CancelCheck {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        self.token.check()?;
        self.inner.next_batch()
    }

    fn size_hint(&self) -> Option<usize> {
        self.inner.size_hint()
    }
}

/// Implements [`Operator`] for a type with a field `schema: Arc<Schema>`
/// and an inherent method `fn produce(&mut self) -> Result<Option<RowBatch>>`
/// that never returns an empty batch.
macro_rules! batch_operator {
    ($ty:ty) => {
        batch_operator!($ty, hint: |_s: &$ty| None);
    };
    ($ty:ty, hint: $hint:expr) => {
        impl Operator for $ty {
            fn schema(&self) -> &Schema {
                &self.schema
            }

            fn next_batch(&mut self) -> Result<Option<RowBatch>> {
                self.produce()
            }

            fn size_hint(&self) -> Option<usize> {
                #[allow(clippy::redundant_closure_call)]
                ($hint)(self)
            }
        }
    };
}
pub(crate) use batch_operator;

/// Batch-native scan over a table's columnar segments and its tail's runs
/// with the filter's pushable prefix — a compiled [`FilterSpec`] — pushed
/// into it (DESIGN.md §11): zone maps skip whole segments and runs before
/// any column data is touched, the survivors' typed lanes are tested row by
/// row, and what comes out is a lane-backed batch — the lanes of the
/// columns asked for, shared, plus the selection of rows the spec does not
/// provably reject — whose rows are built only if something above asks
/// for them (DESIGN.md §2). The [`Filter`] above remains authoritative for
/// row-level semantics: it decides the same compiled conjuncts again, with
/// the same lane rule where no row can raise and the row rule
/// ([`FilterSpec::eval`]) elsewhere. The scan removes nothing the filter
/// would not have mapped to FALSE/UNKNOWN, and never a row it would have
/// raised an error on. The oracle this scan is differentially tested
/// against is the general evaluator over `Table::snapshot()`.
pub struct ColumnarScan {
    scan: TableScan,
}

impl ColumnarScan {
    /// Open a scan of every column of `table`, qualified with `alias`.
    pub fn new(table: &Arc<Table>, alias: &str, spec: Option<&FilterSpec>) -> Result<ColumnarScan> {
        Ok(ColumnarScan {
            scan: table.scan_as(alias, None, spec)?,
        })
    }

    /// Open a scan that emits only the table ordinals `cols` (strictly
    /// increasing; its schema is the table's projected onto them). `spec`
    /// ordinals stay table ordinals and need not be among `cols`.
    pub fn with_columns(
        table: &Arc<Table>,
        alias: &str,
        cols: &[usize],
        spec: Option<&FilterSpec>,
    ) -> Result<ColumnarScan> {
        Ok(ColumnarScan {
            scan: table.scan_as(alias, Some(cols), spec)?,
        })
    }

    /// Scan accounting: segments pruned/scanned, tail rows, rows filtered so
    /// far.
    pub fn scan_stats(&self) -> ScanStats {
        self.scan.stats()
    }
}

impl Operator for ColumnarScan {
    fn schema(&self) -> &Schema {
        self.scan.schema()
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        Ok(self.scan.next_batch())
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.scan.remaining_rows())
    }
}

/// Move up to one batch worth of rows out of a materialized iterator.
pub(crate) fn produce_chunk(
    rows: &mut std::vec::IntoIter<Row>,
    schema: &Arc<Schema>,
) -> Result<Option<RowBatch>> {
    let n = rows.len().min(DEFAULT_BATCH_SIZE);
    if n == 0 {
        return Ok(None);
    }
    let chunk: Vec<Row> = rows.by_ref().take(n).collect();
    Ok(Some(RowBatch::from_rows(schema.clone(), chunk)))
}

/// An in-memory row source with an explicit schema (used by shipping
/// operators and tests).
pub struct RowsOp {
    schema: Arc<Schema>,
    rows: std::vec::IntoIter<Row>,
}

impl RowsOp {
    /// Wrap rows with their schema.
    pub fn new(schema: Schema, rows: Vec<Row>) -> RowsOp {
        RowsOp {
            schema: Arc::new(schema),
            rows: rows.into_iter(),
        }
    }

    fn produce(&mut self) -> Result<Option<RowBatch>> {
        produce_chunk(&mut self.rows, &self.schema)
    }
}

batch_operator!(RowsOp, hint: |s: &RowsOp| Some(s.rows.len()));

/// Filter rows by a bound predicate, batch by batch.
///
/// The predicate is split once, by the compiler the scan uses
/// ([`FilterSpec::split`]). When the leading `column <cmp> literal`
/// conjuncts — in either orientation, a single comparison included — are
/// the whole predicate and a lane-backed batch pairs each with a lane no row
/// of which can raise ([`FilterSpec::select_lanes`]), they are decided on
/// the lanes by the scan's own lane rule: the batch's selection is narrowed
/// and its lanes passed on, and no row is built. Every other batch takes the
/// row path and is compacted in place (kept rows are moved, never cloned):
/// the prefix is decided by the storage layer's row rule
/// ([`FilterSpec::eval`], no expression-tree walk and no per-row `Value`
/// clone), whatever follows it by the general evaluator. Either way it is
/// the general evaluator's answer on every row: same rows, same error on
/// the same row.
pub struct Filter {
    input: Box<dyn Operator + Send>,
    predicate: PhysExpr,
    /// `predicate`'s compiled prefix.
    spec: Option<FilterSpec>,
    /// `predicate`'s conjuncts after the prefix.
    residual: Option<PhysExpr>,
    schema: Arc<Schema>,
}

impl Filter {
    /// Wrap `input` with `predicate`.
    pub fn new(input: Box<dyn Operator + Send>, predicate: PhysExpr) -> Filter {
        let schema = Arc::new(input.schema().clone());
        let (spec, residual) = FilterSpec::split(&predicate);
        Filter {
            input,
            predicate,
            spec,
            residual,
            schema,
        }
    }

    /// SQL AND over three-valued conjuncts, in the expression tree's order:
    /// a definite FALSE in the prefix short-circuits; an UNKNOWN does not (the
    /// residual may still raise), and the row is kept only when both halves
    /// hold.
    fn keeps(&self, row: &Row) -> Result<bool> {
        let prefix = match &self.spec {
            Some(spec) => match spec.eval(row) {
                Ok(verdict) => verdict,
                // A compiled conjunct raised, so the row fails the query; the
                // general evaluator words the error. A compiled conjunct is
                // always `column <cmp> literal`, and a comparison error names
                // its operands in the order the predicate wrote them.
                Err(_) => return self.predicate.eval_predicate(row),
            },
            None => Some(true),
        };
        if prefix == Some(false) {
            return Ok(false);
        }
        let rest = match &self.residual {
            Some(residual) => residual.eval_predicate(row)?,
            None => true,
        };
        Ok(rest && prefix == Some(true))
    }

    fn produce(&mut self) -> Result<Option<RowBatch>> {
        loop {
            let Some(batch) = self.input.next_batch()? else {
                return Ok(None);
            };
            if let (Some(spec), Some((lanes, sel))) = (&self.spec, batch.lanes()) {
                if let Some(kept) = spec.select_lanes(lanes, sel) {
                    if kept.is_empty() {
                        continue;
                    }
                    let lanes = lanes.to_vec();
                    return Ok(Some(RowBatch::from_lanes(
                        batch.schema().clone(),
                        lanes,
                        kept,
                    )));
                }
            }
            let (schema, mut rows) = batch.into_parts();
            let mut err = None;
            rows.retain(|r| {
                err.is_none()
                    && self.keeps(r).unwrap_or_else(|e| {
                        err = Some(e);
                        false
                    })
            });
            if let Some(e) = err {
                return Err(e);
            }
            if !rows.is_empty() {
                return Ok(Some(RowBatch::from_rows(schema, rows)));
            }
        }
    }
}

// The input's hint is an upper bound for a filter — still useful as a
// preallocation ceiling for `collect`.
batch_operator!(Filter, hint: |s: &Filter| s.input.size_hint());

/// How the batch projection computes its output rows.
enum ProjPath {
    /// Strictly increasing bare columns: each row is projected *in place*,
    /// reusing its own allocation — no clone, no per-row `Vec`.
    InPlace(Vec<usize>),
    /// Distinct bare columns in arbitrary order: values are moved out of
    /// the consumed row into a fresh vector (no clones).
    Move(Vec<usize>),
    /// General expression evaluation.
    Eval,
}

impl ProjPath {
    /// The row path for bare columns `cols` (`None` when some expression is
    /// not one).
    fn analyze(cols: Option<&[usize]>) -> ProjPath {
        let Some(cols) = cols else {
            return ProjPath::Eval;
        };
        if cols.windows(2).all(|w| w[0] < w[1]) {
            return ProjPath::InPlace(cols.to_vec());
        }
        // Moving a value out of the input row is only sound when no other
        // output column reads the same ordinal.
        let mut sorted = cols.to_vec();
        sorted.sort_unstable();
        if sorted.windows(2).all(|w| w[0] != w[1]) {
            ProjPath::Move(cols.to_vec())
        } else {
            ProjPath::Eval
        }
    }
}

/// A list of expressions applied to one batch at a time, producing a new
/// schema: the kernel of [`Project`], and what lowering applies to a
/// statement's output batches as its final projection.
///
/// When every expression is a bare column, a lane-backed batch becomes the
/// picked lanes (`Arc` clones, in any order, repeats included) under the
/// same selection, and no row is built. A batch of rows — or a projection
/// with any other expression, or an ordinal past the lanes — takes the row
/// path: strictly increasing columns retitle each row in place, distinct
/// ones move its values, anything else evaluates per row.
pub struct Projection {
    exprs: Vec<PhysExpr>,
    /// The ordinals when every expression is a bare column.
    cols: Option<Vec<usize>>,
    path: ProjPath,
    schema: Arc<Schema>,
}

impl Projection {
    /// `exprs` paired with their output fields.
    pub fn new(exprs: Vec<(PhysExpr, Field)>) -> Projection {
        let (exprs, fields): (Vec<_>, Vec<_>) = exprs.into_iter().unzip();
        let cols: Option<Vec<usize>> = exprs
            .iter()
            .map(|e| match e {
                PhysExpr::Column(i) => Some(*i),
                _ => None,
            })
            .collect();
        Projection {
            path: ProjPath::analyze(cols.as_deref()),
            exprs,
            cols,
            schema: Arc::new(Schema::new(fields)),
        }
    }

    /// Output schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Project one batch.
    pub fn apply(&self, batch: RowBatch) -> Result<RowBatch> {
        if let (Some(cols), Some((lanes, sel))) = (&self.cols, batch.lanes()) {
            if cols.iter().all(|&c| c < lanes.len()) {
                let picked = cols.iter().map(|&c| lanes[c].clone()).collect();
                return Ok(RowBatch::from_lanes(
                    self.schema.clone(),
                    picked,
                    sel.clone(),
                ));
            }
        }
        let rows = project_rows(&self.path, &self.exprs, batch.into_rows())?;
        Ok(RowBatch::from_rows(self.schema.clone(), rows))
    }
}

/// Evaluate a list of expressions per row, producing a new schema: a
/// [`Projection`] applied to each input batch.
pub struct Project {
    input: Box<dyn Operator + Send>,
    projection: Projection,
}

impl Project {
    /// `exprs` paired with their output fields.
    pub fn new(input: Box<dyn Operator + Send>, exprs: Vec<(PhysExpr, Field)>) -> Project {
        Project {
            input,
            projection: Projection::new(exprs),
        }
    }
}

impl Operator for Project {
    fn schema(&self) -> &Schema {
        self.projection.schema()
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        self.input
            .next_batch()?
            .map(|b| self.projection.apply(b))
            .transpose()
    }

    fn size_hint(&self) -> Option<usize> {
        self.input.size_hint()
    }
}

/// The batch projection kernel. Pure-column projections move (or retitle in
/// place) the values of the consumed rows instead of cloning them.
fn project_rows(path: &ProjPath, exprs: &[PhysExpr], mut rows: Vec<Row>) -> Result<Vec<Row>> {
    match path {
        ProjPath::InPlace(cols) => {
            for row in &mut rows {
                row.project_in_place(cols)?;
            }
            Ok(rows)
        }
        ProjPath::Move(cols) => {
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                let width = row.len();
                let mut vals = row.into_values();
                let mut picked = Vec::with_capacity(cols.len());
                for &i in cols {
                    let slot = vals.get_mut(i).ok_or_else(|| {
                        CsqError::Exec(format!(
                            "column ordinal {i} out of bounds for row of width {width}"
                        ))
                    })?;
                    picked.push(std::mem::replace(slot, Value::Null));
                }
                out.push(Row::new(picked));
            }
            Ok(out)
        }
        ProjPath::Eval => {
            let mut out = Vec::with_capacity(rows.len());
            for row in &rows {
                let mut vals = Vec::with_capacity(exprs.len());
                for e in exprs {
                    vals.push(e.eval(row)?);
                }
                out.push(Row::new(vals));
            }
            Ok(out)
        }
    }
}

/// Compare two rows on the given key columns with SQL ordering; NULLs sort
/// first, cross-type comparisons are exec errors surfaced at sort time.
pub fn compare_on(a: &Row, b: &Row, key: &[usize]) -> Result<Ordering> {
    for &k in key {
        let ord = compare_values(a.value(k), b.value(k))?;
        if ord != Ordering::Equal {
            return Ok(ord);
        }
    }
    Ok(Ordering::Equal)
}

/// SQL ordering of two values with NULLs first; incomparable pairs (NaN
/// against another float, cross-type) are exec errors rather than panics.
/// This is the key-validation primitive shared by [`Sort`]'s fallible
/// comparator and [`crate::HashAggregate`]'s MIN/MAX accumulators, so
/// `ORDER BY` over NaN-bearing aggregate output errors the same way a sort
/// over a NaN-bearing base column does.
pub fn compare_values(va: &Value, vb: &Value) -> Result<Ordering> {
    match (va.is_null(), vb.is_null()) {
        (true, true) => Ok(Ordering::Equal),
        (true, false) => Ok(Ordering::Less),
        (false, true) => Ok(Ordering::Greater),
        (false, false) => va
            .sql_cmp(vb)?
            .ok_or_else(|| CsqError::Exec("incomparable values in sort key".into())),
    }
}

/// Materializing sort on key columns (ascending). The input is drained
/// batch-wise into one buffer (sized from the input's hint), sorted once,
/// and re-emitted in batches. A drain or comparison that fails is returned
/// once and leaves the operator exhausted.
pub struct Sort {
    /// `Some` until the first pull takes it to build `sorted`.
    input: Option<Box<dyn Operator + Send>>,
    key: Vec<usize>,
    schema: Arc<Schema>,
    sorted: std::vec::IntoIter<Row>,
}

impl Sort {
    /// Sort `input` rows on `key` column ordinals.
    pub fn new(input: Box<dyn Operator + Send>, key: Vec<usize>) -> Sort {
        let schema = Arc::new(input.schema().clone());
        Sort {
            input: Some(input),
            key,
            schema,
            sorted: Vec::new().into_iter(),
        }
    }

    fn produce(&mut self) -> Result<Option<RowBatch>> {
        if let Some(mut input) = self.input.take() {
            let mut rows = collect(input.as_mut())?;
            sort_rows_fallible(&mut rows, &self.key)?;
            self.sorted = rows.into_iter();
        }
        produce_chunk(&mut self.sorted, &self.schema)
    }
}

/// Stable bottom-up merge sort that *propagates* comparison errors.
///
/// `slice::sort_by` cannot host a fallible comparator: smuggling errors out
/// as fake `Equal`s makes the relation violate total order, which modern
/// std detects and punishes with a panic. This sort surfaces the first
/// incomparable pair it actually compares as an `Err` — the same
/// lazy-error semantics the engine has always had (a key column whose
/// incomparable values are never reached by any comparison still sorts).
/// On error the contents of `rows` are unspecified (the caller discards).
fn sort_rows_fallible(rows: &mut [Row], key: &[usize]) -> Result<()> {
    let n = rows.len();
    if n < 2 {
        return Ok(());
    }
    let mut src: Vec<Row> = rows.iter_mut().map(std::mem::take).collect();
    let mut dst: Vec<Row> = std::iter::repeat_with(Row::default).take(n).collect();
    let mut width = 1;
    while width < n {
        let mut start = 0;
        while start < n {
            let mid = (start + width).min(n);
            let end = (start + 2 * width).min(n);
            let (mut i, mut j, mut k) = (start, mid, start);
            while i < mid && j < end {
                // Stable: the left run wins ties.
                if compare_on(&src[i], &src[j], key)? != Ordering::Greater {
                    dst[k] = std::mem::take(&mut src[i]);
                    i += 1;
                } else {
                    dst[k] = std::mem::take(&mut src[j]);
                    j += 1;
                }
                k += 1;
            }
            while i < mid {
                dst[k] = std::mem::take(&mut src[i]);
                i += 1;
                k += 1;
            }
            while j < end {
                dst[k] = std::mem::take(&mut src[j]);
                j += 1;
                k += 1;
            }
            start = end;
        }
        std::mem::swap(&mut src, &mut dst);
        width *= 2;
    }
    for (slot, row) in rows.iter_mut().zip(src) {
        *slot = row;
    }
    Ok(())
}

batch_operator!(Sort, hint: |s: &Sort| {
    match &s.input {
        Some(input) => input.size_hint(),
        None => Some(s.sorted.len()),
    }
});

/// What the blocking operators' latch tests share.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;

    /// Hands out `batches`, then fails every further pull.
    pub(crate) struct FailsAfter {
        pub(crate) schema: Arc<Schema>,
        pub(crate) batches: std::vec::IntoIter<Vec<Row>>,
    }

    impl Operator for FailsAfter {
        fn schema(&self) -> &Schema {
            &self.schema
        }

        fn next_batch(&mut self) -> Result<Option<RowBatch>> {
            match self.batches.next() {
                Some(rows) => Ok(Some(RowBatch::from_rows(self.schema.clone(), rows))),
                None => Err(CsqError::Exec("source failed".into())),
            }
        }
    }

    /// After a failed first pull the operator is exhausted, not poisoned.
    pub(crate) fn assert_latched(op: &mut dyn Operator, kind: &str) {
        assert_eq!(op.next_batch().unwrap_err().kind(), kind);
        for _ in 0..3 {
            assert!(op.next_batch().unwrap().is_none());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{assert_latched, FailsAfter};
    use super::*;
    use csq_common::{DataType, Value};
    use csq_expr::{bind, Expr};
    use csq_storage::TableBuilder;

    fn int_rows(vals: &[(i64, i64)]) -> (Schema, Vec<Row>) {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ]);
        let rows = vals
            .iter()
            .map(|&(a, b)| Row::new(vec![Value::Int(a), Value::Int(b)]))
            .collect();
        (schema, rows)
    }

    #[test]
    fn scan_qualifies_alias() {
        let t = Arc::new(
            TableBuilder::new("t")
                .column("x", DataType::Int)
                .row(vec![Value::Int(1)])
                .row(vec![Value::Int(2)])
                .build()
                .unwrap(),
        );
        let mut scan = ColumnarScan::new(&t, "T1", None).unwrap();
        assert_eq!(scan.schema().field(0).qualifier.as_deref(), Some("T1"));
        assert_eq!(scan.size_hint(), Some(2));
        assert_eq!(collect(&mut scan).unwrap().len(), 2);
    }

    #[test]
    fn filter_applies_predicate() {
        let (schema, rows) = int_rows(&[(1, 10), (2, 20), (3, 30)]);
        let pred = bind(
            &Expr::binary(
                Expr::col_bare("a"),
                csq_expr::BinaryOp::GtEq,
                Expr::lit(2i64),
            ),
            &schema,
        )
        .unwrap();
        let mut f = Filter::new(Box::new(RowsOp::new(schema, rows)), pred);
        let out = collect(&mut f).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].value(0), &Value::Int(2));
    }

    #[test]
    fn filter_fast_path_matches_general_eval() {
        // Every predicate here has a compiled prefix (`col <cmp> lit` in
        // either orientation, alone, chained, or before a residual); the
        // filter must answer what `eval_predicate` answers row by row — rows
        // or the first error, kind and message — including NULL and NaN
        // operands, a cross-type literal and an ordinal the rows lack.
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("f", DataType::Float),
        ]);
        let rows: Vec<Row> = [
            (Value::Int(1), Value::Float(0.5)),
            (Value::Null, Value::Float(f64::NAN)),
            (Value::Int(5), Value::Int(4)),
            (Value::Int(3), Value::Null),
            (Value::Int(-2), Value::Float(9.0)),
        ]
        .into_iter()
        .map(|(a, f)| Row::new(vec![a, f]))
        .collect();
        let cmp = |left, op, right| PhysExpr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        };
        let (col, lit) = (PhysExpr::Column, PhysExpr::Literal);
        use csq_expr::BinaryOp::*;
        let a_gt_2 = cmp(col(0), Gt, lit(Value::Int(2)));
        let residual = cmp(cmp(col(0), Add, col(1)), Lt, lit(Value::Int(9)));
        for pred in [
            a_gt_2.clone(),
            cmp(lit(Value::Int(2)), Lt, col(0)),
            cmp(lit(Value::Float(1.0)), GtEq, col(1)),
            cmp(col(0), NotEq, lit(Value::Null)),
            cmp(col(1), LtEq, lit(Value::Float(f64::NAN))),
            cmp(col(0), Eq, lit(Value::from("x"))),
            cmp(lit(Value::from("x")), Eq, col(0)),
            cmp(col(2), Eq, lit(Value::Int(1))),
            cmp(a_gt_2.clone(), And, cmp(col(1), Lt, lit(Value::Int(5)))),
            cmp(a_gt_2.clone(), And, cmp(col(0), Lt, lit(Value::from("x")))),
            cmp(a_gt_2.clone(), And, residual.clone()),
            cmp(cmp(col(1), Gt, lit(Value::Int(0))), And, residual.clone()),
            cmp(cmp(col(2), Gt, lit(Value::Int(0))), And, residual),
        ] {
            let oracle: Result<Vec<Row>> = rows
                .iter()
                .filter_map(|r| match pred.eval_predicate(r) {
                    Ok(keep) => keep.then(|| Ok(r.clone())),
                    Err(e) => Some(Err(e)),
                })
                .collect();
            let source = RowsOp::new(schema.clone(), rows.clone());
            let filtered = collect(&mut Filter::new(Box::new(source), pred.clone()));
            match (filtered, oracle) {
                (Ok(f), Ok(o)) => assert_eq!(f, o, "{pred:?}"),
                (Err(f), Err(o)) => {
                    assert_eq!((f.kind(), f.to_string()), (o.kind(), o.to_string()))
                }
                (f, o) => panic!("{pred:?}: {f:?} vs {o:?}"),
            }
        }
    }

    #[test]
    fn project_computes_expressions() {
        let (schema, rows) = int_rows(&[(1, 10), (2, 20)]);
        let sum = bind(
            &Expr::binary(
                Expr::col_bare("a"),
                csq_expr::BinaryOp::Add,
                Expr::col_bare("b"),
            ),
            &schema,
        )
        .unwrap();
        let mut p = Project::new(
            Box::new(RowsOp::new(schema, rows)),
            vec![(sum, Field::new("sum", DataType::Int))],
        );
        assert_eq!(p.schema().field(0).name, "sum");
        let out = collect(&mut p).unwrap();
        assert_eq!(out[0], Row::new(vec![Value::Int(11)]));
        assert_eq!(out[1], Row::new(vec![Value::Int(22)]));
    }

    #[test]
    fn project_move_path_reorders_and_duplicates_fall_back() {
        let (schema, rows) = int_rows(&[(1, 10), (2, 20)]);
        // (b, a): pure distinct columns — exercised by the move fast path.
        let mut p = Project::new(
            Box::new(RowsOp::new(schema.clone(), rows.clone())),
            vec![
                (PhysExpr::Column(1), Field::new("b", DataType::Int)),
                (PhysExpr::Column(0), Field::new("a", DataType::Int)),
            ],
        );
        let out = collect(&mut p).unwrap();
        assert_eq!(out[0], Row::new(vec![Value::Int(10), Value::Int(1)]));
        // (a, a): duplicate ordinal must clone, not move.
        let mut p = Project::new(
            Box::new(RowsOp::new(schema, rows)),
            vec![
                (PhysExpr::Column(0), Field::new("a1", DataType::Int)),
                (PhysExpr::Column(0), Field::new("a2", DataType::Int)),
            ],
        );
        let out = collect(&mut p).unwrap();
        assert_eq!(out[1], Row::new(vec![Value::Int(2), Value::Int(2)]));
    }

    #[test]
    fn sort_orders_with_nulls_first() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        let rows = vec![
            Row::new(vec![Value::Int(3)]),
            Row::new(vec![Value::Null]),
            Row::new(vec![Value::Int(1)]),
        ];
        let mut s = Sort::new(Box::new(RowsOp::new(schema, rows)), vec![0]);
        let out = collect(&mut s).unwrap();
        assert_eq!(out[0].value(0), &Value::Null);
        assert_eq!(out[1].value(0), &Value::Int(1));
        assert_eq!(out[2].value(0), &Value::Int(3));
    }

    #[test]
    fn sort_is_stable_on_equal_keys() {
        let (schema, rows) = int_rows(&[(1, 100), (1, 200), (0, 300)]);
        let mut s = Sort::new(Box::new(RowsOp::new(schema, rows)), vec![0]);
        let out = collect(&mut s).unwrap();
        assert_eq!(out[1].value(1), &Value::Int(100));
        assert_eq!(out[2].value(1), &Value::Int(200));
    }

    #[test]
    fn sort_incomparable_errors_instead_of_panicking() {
        // Mixed Int/Str key column: a type error, not a sort_by panic.
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        let rows = vec![
            Row::new(vec![Value::Int(1)]),
            Row::new(vec![Value::from("x")]),
            Row::new(vec![Value::Int(2)]),
        ];
        let mut s = Sort::new(Box::new(RowsOp::new(schema.clone(), rows)), vec![0]);
        assert_eq!(collect(&mut s).unwrap_err().kind(), "type");
        // NaN alongside another float: exec error.
        let rows = vec![
            Row::new(vec![Value::Float(f64::NAN)]),
            Row::new(vec![Value::Float(1.0)]),
        ];
        let mut s = Sort::new(Box::new(RowsOp::new(schema, rows)), vec![0]);
        assert_eq!(collect(&mut s).unwrap_err().kind(), "exec");
    }

    #[test]
    fn sort_is_exhausted_after_a_failed_build() {
        let (schema, rows) = int_rows(&[(2, 0), (1, 0)]);
        let failing = FailsAfter {
            schema: Arc::new(schema.clone()),
            batches: vec![rows.clone(), rows].into_iter(),
        };
        assert_latched(&mut Sort::new(Box::new(failing), vec![0]), "exec");
        // The comparator failing (Int vs Str) ends it the same way.
        let rows = vec![
            Row::new(vec![Value::Int(1), Value::Int(0)]),
            Row::new(vec![Value::from("x"), Value::Int(0)]),
        ];
        let mut s = Sort::new(Box::new(RowsOp::new(schema, rows)), vec![0]);
        assert_latched(&mut s, "type");
        assert_eq!(s.size_hint(), Some(0));
    }

    #[test]
    fn sort_handles_large_inputs_stably() {
        // Exercise several merge levels of the fallible sort.
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("seq", DataType::Int),
        ]);
        let rows: Vec<Row> = (0..3000)
            .map(|i| Row::new(vec![Value::Int((i * 7 % 13) as i64), Value::Int(i as i64)]))
            .collect();
        let mut s = Sort::new(Box::new(RowsOp::new(schema, rows)), vec![0]);
        let out = collect(&mut s).unwrap();
        assert_eq!(out.len(), 3000);
        for w in out.windows(2) {
            let (a, b) = (
                w[0].value(0).as_i64().unwrap(),
                w[1].value(0).as_i64().unwrap(),
            );
            assert!(a <= b);
            if a == b {
                // Stability: original sequence order preserved within keys.
                assert!(w[0].value(1).as_i64().unwrap() < w[1].value(1).as_i64().unwrap());
            }
        }
    }

    #[test]
    fn project_in_place_rejects_non_monotonic() {
        let mut r = Row::new(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(r.project_in_place(&[1, 0]).unwrap_err().kind(), "exec");
        let mut r = Row::new(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(r.project_in_place(&[0, 0]).unwrap_err().kind(), "exec");
    }

    #[test]
    fn compare_on_errors_for_incomparable() {
        // Bool vs Int is a type error from Value::sql_cmp.
        let a = Row::new(vec![Value::Bool(true)]);
        let b = Row::new(vec![Value::Int(1)]);
        assert_eq!(compare_on(&a, &b, &[0]).unwrap_err().kind(), "type");
        // NaN vs Float compares (bit order not defined by partial_cmp → exec).
        let a = Row::new(vec![Value::Float(f64::NAN)]);
        let b = Row::new(vec![Value::Float(1.0)]);
        assert_eq!(compare_on(&a, &b, &[0]).unwrap_err().kind(), "exec");
    }
}
