//! Compiled filter specs, zone-map pruning, and the segment scan that
//! selects rows without decoding them.
//!
//! A [`FilterSpec`] is the storage-facing compilation of a WHERE clause: the
//! longest prefix of the predicate's AND-conjunction whose conjuncts are
//! `column <cmp> literal`. The scan evaluates the spec against each sealed
//! segment's [`ZoneMap`]s and skips segments that provably contribute no
//! rows — *before* touching any column data — and then against the typed
//! lanes of the segments that remain. The table's tail is read the same
//! way: opening a scan seals the rows inserted since the last one into a
//! short segment, a *run*, so the scan reads full segments and runs and
//! nothing else. What a segment contributes to the
//! output is a lane-backed [`RowBatch`]: the `Arc`-shared lanes of the
//! columns the scan was asked for plus the selection of rows the spec does
//! not provably reject — the scan itself builds no [`Row`]; the batch does,
//! for exactly those rows and columns, if an operator above asks it for rows
//! (DESIGN.md §2). The scan never replaces the filter operator above it; it
//! removes segments *and rows* the filter provably rejects, so the engine's
//! predicate semantics (three-valued logic, left-to-right short-circuit,
//! typed comparison errors) remain authoritative.
//!
//! ## Why pruning is conservative about errors
//!
//! The expression engine evaluates conjunctions left-to-right and
//! short-circuits only on a definite FALSE; a comparison between
//! incompatible types raises a typed error. Skipping a segment must not
//! suppress an error the unpruned scan would have raised, so a segment is
//! pruned only when one of these holds (see [`FilterSpec::prunes`]):
//!
//! * some conjunct is **range-disproved with no NULLs** in its column — every
//!   row hits a definite FALSE at that conjunct, short-circuiting before any
//!   later (possibly erroring) conjunct, and every earlier conjunct is
//!   error-free for this segment; or
//! * some conjunct is **disproved with unknowns** (an all-NULL column, a NULL
//!   literal, or a range disproof over a column that also has NULLs), the
//!   spec covers the *entire* predicate, and *no* conjunct can error in this
//!   segment — every row then evaluates to FALSE or UNKNOWN and is filtered.
//!
//! ## The same rule, one row at a time
//!
//! Within an unpruned segment the conjuncts are walked in order up to the
//! first one the zone maps cannot prove error-free *for this segment*; only
//! that prefix is evaluated on the lanes. A row is dropped when a prefix
//! conjunct is definitely FALSE — the filter would short-circuit there,
//! having met no error on the way — and, when the prefix is the whole of a
//! `complete` spec, also when it comes out UNKNOWN. Under an incomplete spec,
//! or past an opaque conjunct, an UNKNOWN row still has conjuncts to meet
//! that may raise, so it is kept. A dropped row is therefore always one the
//! filter maps to `Ok(false)`, never to `Err`, and the first row the filter
//! raises on is the same row with or without the scan's help. A run has its
//! own zone maps, so a tail row meets the same rule as any other.
//!
//! This module is the workspace's one predicate compiler. What a pushable
//! conjunct is, is decided once ([`FilterSpec::split`]); how one is decided
//! on a value, twice — [`FilterSpec::eval`] on a row, a `LaneTest` on a
//! bare [`Lane`], both over the same [`ColPred`] and the one comparison
//! truth table ([`BinaryOp::accepts`]). The lane rule has two callers. The
//! scan runs it on a segment's lanes, for the prefix the zone maps proved
//! error-free there. `csq_exec::Filter` runs it on a lane batch's lanes
//! through [`FilterSpec::select_lanes`], for a `complete` spec whose every
//! conjunct is a typed pairing that cannot raise — the lane form of a
//! clean conjunct — and narrows the batch's selection instead of building
//! rows. Every other batch reaches `Filter`'s row path: `eval` for the
//! prefix, the general evaluator for the conjuncts after it.

use std::cmp::Ordering;
use std::sync::Arc;

use csq_common::lane::wide;
use csq_common::{
    each_width, CsqError, Lane, NullBitmap, Result, Row, RowBatch, Schema, Selection, Value,
    DEFAULT_BATCH_SIZE,
};
use csq_expr::{BinaryOp, PhysExpr};

use crate::segment::{Segment, ZoneMap};

/// Comparison operator in a pushed-down conjunct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
}

impl CmpOp {
    /// The expression engine's spelling of this comparison; its
    /// [`accepts`](BinaryOp::accepts) is the comparison truth table.
    #[inline]
    pub(crate) fn binary(self) -> BinaryOp {
        match self {
            CmpOp::Eq => BinaryOp::Eq,
            CmpOp::NotEq => BinaryOp::NotEq,
            CmpOp::Lt => BinaryOp::Lt,
            CmpOp::LtEq => BinaryOp::LtEq,
            CmpOp::Gt => BinaryOp::Gt,
            CmpOp::GtEq => BinaryOp::GtEq,
        }
    }

    fn from_binary(op: BinaryOp) -> Option<CmpOp> {
        use CmpOp::*;
        [Eq, NotEq, Lt, LtEq, Gt, GtEq]
            .into_iter()
            .find(|c| c.binary() == op)
    }

    /// Mirror the comparison (for `literal <cmp> column` conjuncts).
    fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::NotEq => CmpOp::NotEq,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::LtEq => CmpOp::GtEq,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::GtEq => CmpOp::LtEq,
        }
    }
}

/// One pushed conjunct: `column <op> literal` with the column resolved to
/// its ordinal in the scan's output schema.
#[derive(Debug, Clone)]
pub struct ColPred {
    /// Column ordinal.
    pub col: usize,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal right-hand side.
    pub lit: Value,
}

impl ColPred {
    /// The conjunct decided on one value of its column, three-valued: `None`
    /// is UNKNOWN (a NULL operand, a NaN ordering). The numeric pairings every
    /// scan predicate in practice has are compared in place; everything else
    /// — cross-type pairs and their typed errors included — is
    /// [`Value::sql_cmp`]'s to decide.
    #[inline]
    fn test(&self, v: &Value) -> Result<Option<bool>> {
        let ord = match (v, &self.lit) {
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).partial_cmp(b),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            _ => v.sql_cmp(&self.lit)?,
        };
        Ok(ord.map(|o| self.op.binary().accepts(o)))
    }
}

/// A compiled conjunction of pushed-down conjuncts.
#[derive(Debug, Clone)]
pub struct FilterSpec {
    /// Conjuncts in predicate evaluation order.
    pub preds: Vec<ColPred>,
    /// True when the conjuncts cover the *whole* predicate (nothing beyond
    /// them is evaluated by the filter). Required for the
    /// disproof-with-unknowns pruning rule and for dropping UNKNOWN rows.
    pub complete: bool,
}

/// How one conjunct relates to one segment's zone map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PredClass {
    /// No row can satisfy the conjunct, and every row gets a definite FALSE
    /// (the column has no NULLs in this segment): evaluation short-circuits.
    RangeDisproofNoNulls,
    /// No row can satisfy the conjunct, but some rows evaluate to UNKNOWN
    /// (NULL column values or a NULL literal), which does not short-circuit.
    DisproofWithUnknowns,
    /// Cannot disprove, but provably cannot error either in this segment.
    Clean,
    /// Might raise a typed comparison error somewhere in this segment (mixed
    /// lanes, cross-type literal): never prune past it.
    Opaque,
}

fn classify(zone: &ZoneMap, pred: &ColPred) -> PredClass {
    if pred.lit.is_null() {
        // `col <cmp> NULL` is UNKNOWN for every row and can never error.
        return PredClass::DisproofWithUnknowns;
    }
    if zone.all_null() {
        return PredClass::DisproofWithUnknowns;
    }
    if zone.unordered {
        return PredClass::Opaque;
    }
    let Some((min, max)) = &zone.bounds else {
        return PredClass::Opaque;
    };
    // Compare the bounds against the literal. An error or an incomparable
    // result (NaN literal) means rows of this segment may error or behave
    // non-uniformly under the real filter: treat the conjunct as opaque.
    let (cmin, cmax) = match (min.sql_cmp(&pred.lit), max.sql_cmp(&pred.lit)) {
        (Ok(Some(a)), Ok(Some(b))) => (a, b),
        _ => return PredClass::Opaque,
    };
    use Ordering::*;
    let disproved = match pred.op {
        // lit < min or lit > max.
        CmpOp::Eq => cmin == Greater || cmax == Less,
        // Constant column equal to the literal: `<>` fails on every row.
        CmpOp::NotEq => cmin == Equal && cmax == Equal,
        // col < lit needs min < lit.
        CmpOp::Lt => cmin != Less,
        CmpOp::LtEq => cmin == Greater,
        // col > lit needs max > lit.
        CmpOp::Gt => cmax != Greater,
        CmpOp::GtEq => cmax == Less,
    };
    if disproved {
        if zone.null_count == 0 {
            PredClass::RangeDisproofNoNulls
        } else {
            PredClass::DisproofWithUnknowns
        }
    } else {
        PredClass::Clean
    }
}

impl FilterSpec {
    /// Compile the pushable prefix of a bound predicate: flatten the
    /// top-level AND chain and take the longest prefix of
    /// `column <cmp> literal` conjuncts, in either orientation (in evaluation
    /// order). Returns `None` when not even the first conjunct is pushable.
    pub fn from_phys(pred: &PhysExpr) -> Option<FilterSpec> {
        FilterSpec::split(pred).0
    }

    /// [`from_phys`](Self::from_phys) plus what it leaves: the conjuncts
    /// after the pushable prefix, re-joined in evaluation order. Evaluating
    /// the spec with [`eval`](Self::eval) and then the residual is evaluating
    /// `pred`.
    pub fn split(pred: &PhysExpr) -> (Option<FilterSpec>, Option<PhysExpr>) {
        let mut conjuncts = Vec::new();
        flatten_and(pred, &mut conjuncts);
        let preds: Vec<ColPred> = conjuncts.iter().map_while(|c| as_col_pred(c)).collect();
        let residual = conjuncts[preds.len()..]
            .iter()
            .map(|&c| c.clone())
            .reduce(|left, right| PhysExpr::Binary {
                left: Box::new(left),
                op: BinaryOp::And,
                right: Box::new(right),
            });
        let spec = (!preds.is_empty()).then_some(FilterSpec {
            preds,
            complete: residual.is_none(),
        });
        (spec, residual)
    }

    /// True when the spec proves the segment contributes no output rows
    /// *and* skipping it cannot change observable behavior (see module docs
    /// for the error-conservatism argument).
    pub fn prunes(&self, seg: &Segment) -> bool {
        self.disproved(&self.classes(seg))
    }

    /// Zone-only variant of [`prunes`](Self::prunes) for optimizer
    /// statistics, which carry [`SegmentZones`](crate::SegmentZones) profiles instead of live
    /// segments.
    pub fn prunes_zones(&self, zones: &crate::SegmentZones) -> bool {
        self.disproved(&self.classes_by(|c| zones.zones.get(c)))
    }

    fn classes(&self, seg: &Segment) -> Vec<PredClass> {
        let cols = seg.columns();
        self.classes_by(|c| cols.get(c).map(|col| col.zone()))
    }

    fn classes_by<'a>(&self, zone_of: impl Fn(usize) -> Option<&'a ZoneMap>) -> Vec<PredClass> {
        self.preds
            .iter()
            .map(|p| match zone_of(p.col) {
                Some(z) => classify(z, p),
                None => PredClass::Opaque,
            })
            .collect()
    }

    fn disproved(&self, classes: &[PredClass]) -> bool {
        for (i, class) in classes.iter().enumerate() {
            match class {
                PredClass::Opaque => return false,
                PredClass::RangeDisproofNoNulls => return true,
                PredClass::DisproofWithUnknowns => {
                    if self.complete && classes[i + 1..].iter().all(|c| *c != PredClass::Opaque) {
                        return true;
                    }
                    // Keep looking: a later hard disproof can still prune.
                }
                PredClass::Clean => {}
            }
        }
        false
    }

    /// The row rule: the conjuncts on one row, as the general evaluator
    /// decides their conjunction — three-valued AND, left to right, stopping
    /// at the first definite FALSE, a comparison error (or an ordinal the row
    /// does not have) raised if it is met before one.
    #[inline]
    pub fn eval(&self, row: &Row) -> Result<Option<bool>> {
        let mut verdict = Some(true);
        for p in &self.preds {
            let v = row.values().get(p.col).ok_or_else(|| {
                CsqError::Exec(format!(
                    "column ordinal {} out of bounds for row of width {}",
                    p.col,
                    row.len()
                ))
            })?;
            match p.test(v)? {
                Some(false) => return Ok(Some(false)),
                Some(true) => {}
                None => verdict = None,
            }
        }
        Ok(verdict)
    }

    /// The whole spec decided on a lane batch: `sel` narrowed to the rows on
    /// which every conjunct is TRUE. `None` — decide the batch's rows
    /// instead — unless the spec is `complete` and every conjunct pairs its
    /// lane with its literal so that no row can raise: an INT or FLOAT lane
    /// against an INT or FLOAT literal, BOOL against BOOL, a dictionary
    /// against a STR, any lane against NULL. A `Values` lane, a cross-type
    /// literal or an ordinal past the lanes is left to the row rule, which
    /// raises what the general evaluator would.
    pub fn select_lanes(&self, lanes: &[Arc<Lane>], sel: &Selection) -> Option<Selection> {
        if !self.complete {
            return None;
        }
        let tests = self
            .preds
            .iter()
            .map(|p| {
                let lane = lanes.get(p.col)?;
                let test = LaneTest::new(lane, p);
                test.typed().then_some((&**lane, test))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(narrow(sel, tests.iter().map(|(l, t)| (*l, t)), false))
    }
}

/// One pushed conjunct compiled against one lane: the literal resolved to
/// the lane's own type (for a dictionary lane, to one verdict per dictionary
/// entry), so [`retain`](LaneTest::retain) tests raw lane values without
/// building a [`Value`] per row.
#[derive(Debug)]
struct LaneTest {
    op: BinaryOp,
    lit: LaneLit,
}

#[derive(Debug)]
enum LaneLit {
    Int(i64),
    Float(f64),
    Bool(bool),
    /// `accept[code]` for a dictionary lane, the literal compared once per
    /// entry.
    Dict(Vec<bool>),
    /// A NULL literal: UNKNOWN on every row.
    Null,
    /// Any other pairing, compared row by row through [`Value::sql_cmp`]
    /// (only on a `Values` lane).
    Value(Value),
}

impl LaneTest {
    /// Compile `pred` against `lane`, the lane of its column.
    fn new(lane: &Lane, pred: &ColPred) -> LaneTest {
        let op = pred.op.binary();
        let lit = match (lane, &pred.lit) {
            (_, Value::Null) => LaneLit::Null,
            (Lane::StrDict { dict, .. }, Value::Str(s)) => {
                LaneLit::Dict(dict.iter().map(|d| op.accepts(d.cmp(s))).collect())
            }
            (Lane::Int { .. }, Value::Int(i)) => LaneLit::Int(*i),
            (Lane::Int { .. } | Lane::Float { .. }, Value::Float(f)) => LaneLit::Float(*f),
            // Mixed INT/FLOAT comparisons widen to f64, as `sql_cmp` does.
            (Lane::Float { .. }, Value::Int(i)) => LaneLit::Float(*i as f64),
            (Lane::Bool { .. }, Value::Bool(b)) => LaneLit::Bool(*b),
            (_, v) => LaneLit::Value(v.clone()),
        };
        LaneTest { op, lit }
    }

    /// True when the lane's type and the literal's pair so that every row
    /// is decided without an error: the literal resolved to the lane's type.
    fn typed(&self) -> bool {
        !matches!(self.lit, LaneLit::Value(_))
    }

    /// Drop from `sel` (ordinals of `lane`) every row on which the conjunct
    /// is definitely FALSE, and — unless `keep_unknown` — every row on which
    /// it is UNKNOWN (a NULL value or literal, a NaN ordering). A typed
    /// pairing cannot raise; the scan compiles an untyped one only where the
    /// zone map proved it error-free, and a pairing that is neither leaves
    /// `sel` alone.
    fn retain(&self, lane: &Lane, keep_unknown: bool, sel: &mut Vec<usize>) {
        let op = self.op;
        let tri = |ord: Option<Ordering>| ord.map_or(keep_unknown, |o| op.accepts(o));
        // A typed lane: NULL rows are UNKNOWN, row `i` of the rest orders as
        // `cmp(i)`.
        fn typed(
            sel: &mut Vec<usize>,
            nulls: &NullBitmap,
            tri: impl Fn(Option<Ordering>) -> bool,
            cmp: impl Fn(usize) -> Option<Ordering>,
        ) {
            sel.retain(|&i| tri((!nulls.get(i)).then(|| cmp(i)).flatten()))
        }
        match (lane, &self.lit) {
            (_, LaneLit::Null) => sel.retain(|_| keep_unknown),
            (Lane::Int { values, nulls }, LaneLit::Int(b)) => each_width!(values, v => {
                typed(sel, nulls, tri, |i| Some(wide(v[i]).cmp(b)))
            }),
            (Lane::Int { values, nulls }, LaneLit::Float(b)) => each_width!(values, v => {
                typed(sel, nulls, tri, |i| (wide(v[i]) as f64).partial_cmp(b))
            }),
            (Lane::Float { values, nulls }, LaneLit::Float(b)) => {
                typed(sel, nulls, tri, |i| values[i].partial_cmp(b))
            }
            (Lane::Bool { values, nulls }, LaneLit::Bool(b)) => {
                typed(sel, nulls, tri, |i| Some(values[i].cmp(b)))
            }
            (Lane::StrDict { codes, .. }, LaneLit::Dict(accept)) => {
                sel.retain(|&i| match codes[i] {
                    u32::MAX => keep_unknown,
                    c => accept[c as usize],
                })
            }
            // An `Err` cannot happen on a conjunct proved error-free; keeping
            // the row leaves it to the filter.
            (Lane::Values(values), LaneLit::Value(lit)) => {
                sel.retain(|&i| values[i].sql_cmp(lit).map_or(true, tri))
            }
            _ => {}
        }
    }
}

/// The lane rule over one batch: `sel` less every row one of `tests` drops
/// from its lane. A window comes back as itself when no row is dropped.
fn narrow<'a>(
    sel: &Selection,
    tests: impl IntoIterator<Item = (&'a Lane, &'a LaneTest)>,
    keep_unknown: bool,
) -> Selection {
    let mut kept: Vec<usize> = match sel {
        Selection::Window(w) => w.clone().collect(),
        Selection::Rows(rows) => rows.clone(),
    };
    for (lane, test) in tests {
        test.retain(lane, keep_unknown, &mut kept);
    }
    match sel {
        Selection::Window(w) if kept.len() == w.len() => Selection::Window(w.clone()),
        _ => Selection::Rows(kept),
    }
}

fn flatten_and<'a>(e: &'a PhysExpr, out: &mut Vec<&'a PhysExpr>) {
    match e {
        PhysExpr::Binary { left, op, right } if *op == BinaryOp::And => {
            flatten_and(left, out);
            flatten_and(right, out);
        }
        other => out.push(other),
    }
}

fn as_col_pred(e: &PhysExpr) -> Option<ColPred> {
    let PhysExpr::Binary { left, op, right } = e else {
        return None;
    };
    let op = CmpOp::from_binary(*op)?;
    match (left.as_ref(), right.as_ref()) {
        (PhysExpr::Column(c), PhysExpr::Literal(v)) => Some(ColPred {
            col: *c,
            op,
            lit: v.clone(),
        }),
        (PhysExpr::Literal(v), PhysExpr::Column(c)) => Some(ColPred {
            col: *c,
            op: op.flipped(),
            lit: v.clone(),
        }),
        _ => None,
    }
}

/// Pruning and filtering accounting for one scan (the segment and tail
/// counts are also computable at plan time for EXPLAIN, without touching
/// column data).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Full segments in the table at scan start (the tail's runs are not
    /// counted here).
    pub segments_total: usize,
    /// Full segments skipped via zone maps.
    pub segments_pruned: usize,
    /// Rows in the table's tail: fewer than a segment's worth, read as runs.
    pub tail_rows: usize,
    /// Tail rows in runs the zone maps skipped, plus rows examined so far —
    /// in unpruned segments or runs — and not emitted because the pushed
    /// conjuncts reject them. A running count: the pruned runs' share is
    /// known at open, a scanned segment's once it is scanned.
    pub rows_filtered: usize,
}

impl ScanStats {
    /// Segments actually read.
    pub fn segments_scanned(&self) -> usize {
        self.segments_total - self.segments_pruned
    }
}

/// One unpruned segment with the spec's error-free prefix compiled against
/// its lanes.
struct SegScan {
    seg: Arc<Segment>,
    /// `(column, test)` for each conjunct before the first the zone maps
    /// cannot prove error-free in this segment, in evaluation order.
    tests: Vec<(usize, LaneTest)>,
    /// False when the tests are the whole of a `complete` spec: only then is
    /// a row whose conjuncts come out UNKNOWN certain to be filtered.
    keep_unknown: bool,
}

impl SegScan {
    /// `None` when the zone maps prune the segment.
    fn plan(seg: Arc<Segment>, spec: Option<&FilterSpec>) -> Option<SegScan> {
        let (mut tests, mut keep_unknown) = (Vec::new(), true);
        if let Some(spec) = spec {
            let classes = spec.classes(&seg);
            if spec.disproved(&classes) {
                return None;
            }
            let clean = classes
                .iter()
                .position(|c| *c == PredClass::Opaque)
                .unwrap_or(classes.len());
            tests.extend(
                spec.preds[..clean]
                    .iter()
                    .map(|p| (p.col, LaneTest::new(seg.columns()[p.col].lane(), p))),
            );
            keep_unknown = !(spec.complete && clean == spec.preds.len());
        }
        Some(SegScan {
            seg,
            tests,
            keep_unknown,
        })
    }
}

/// A snapshot scan over a table's full segments and then its tail's runs.
///
/// [`Table::scan_as`](crate::Table::scan_as) captures both segment lists
/// under the table lock (consistent snapshot); construction evaluates the
/// filter spec against each one's zone maps, and iteration evaluates it
/// against the lanes of each survivor, one window of at most
/// [`DEFAULT_BATCH_SIZE`] rows at a time, emitting the scan's columns as
/// shared lanes plus the window's selection (the window itself when every
/// row survives). A window with no survivor produces no batch.
pub struct TableScan {
    schema: Arc<Schema>,
    /// Table ordinals of the output columns, in output order.
    cols: Vec<usize>,
    segments: Vec<SegScan>,
    stats: ScanStats,
    seg: usize,
    offset: usize,
}

impl TableScan {
    /// `sealed` are the table's full segments, `runs` its tail, both oldest
    /// first.
    pub(crate) fn new(
        schema: Arc<Schema>,
        cols: Vec<usize>,
        sealed: Vec<Arc<Segment>>,
        runs: Vec<Arc<Segment>>,
        spec: Option<&FilterSpec>,
    ) -> TableScan {
        let plan = |segs: Vec<Arc<Segment>>| {
            segs.into_iter()
                .filter_map(|seg| SegScan::plan(seg, spec))
                .collect::<Vec<_>>()
        };
        let total = sealed.len();
        let tail_rows = runs.iter().map(|r| r.len()).sum();
        let mut segments = plan(sealed);
        let scanned = segments.len();
        segments.extend(plan(runs));
        let kept_tail: usize = segments[scanned..].iter().map(|s| s.seg.len()).sum();
        let stats = ScanStats {
            segments_total: total,
            segments_pruned: total - scanned,
            tail_rows,
            rows_filtered: tail_rows - kept_tail,
        };
        TableScan {
            schema,
            cols,
            segments,
            stats,
            seg: 0,
            offset: 0,
        }
    }

    /// Upper bound on rows this scan has yet to produce (the rows left in
    /// the surviving segments and runs).
    pub fn remaining_rows(&self) -> usize {
        let seg_rows: usize = self.segments[self.seg.min(self.segments.len())..]
            .iter()
            .map(|s| s.seg.len())
            .sum();
        seg_rows.saturating_sub(self.offset)
    }

    /// Output schema of the batches.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Next batch, or `None` when exhausted.
    pub fn next_batch(&mut self) -> Option<RowBatch> {
        while let Some(s) = self.segments.get(self.seg) {
            if self.offset >= s.seg.len() {
                self.seg += 1;
                self.offset = 0;
                continue;
            }
            let window = self.offset..(self.offset + DEFAULT_BATCH_SIZE).min(s.seg.len());
            self.offset = window.end;
            let mut sel = Selection::Window(window);
            if !s.tests.is_empty() {
                let cols = s.seg.columns();
                let tests = s.tests.iter().map(|(c, t)| (&**cols[*c].lane(), t));
                let kept = narrow(&sel, tests, s.keep_unknown);
                self.stats.rows_filtered += sel.len() - kept.len();
                if kept.is_empty() {
                    continue;
                }
                sel = kept;
            }
            let lanes = self
                .cols
                .iter()
                .map(|&c| s.seg.columns()[c].lane().clone())
                .collect();
            return Some(RowBatch::from_lanes(self.schema.clone(), lanes, sel));
        }
        None
    }

    /// Pruning accounting, and the rows filtered so far.
    pub fn stats(&self) -> ScanStats {
        self.stats
    }
}
