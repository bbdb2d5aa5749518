//! Compiled filter specs, zone-map pruning, and the segment scan.
//!
//! A [`FilterSpec`] is the storage-facing compilation of a WHERE clause: the
//! longest prefix of the predicate's AND-conjunction whose conjuncts are
//! `column <cmp> literal`. The scan evaluates the spec against each sealed
//! segment's [`ZoneMap`]s and skips segments that provably contribute no
//! rows — *before* touching any column data. Pruning never replaces the
//! filter operator above the scan; it only removes segments the filter would
//! have rejected wholesale, so the engine's predicate semantics (three-valued
//! logic, left-to-right short-circuit, typed comparison errors) remain
//! authoritative.
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

use std::sync::Arc;

use csq_common::{Row, RowBatch, Schema, Value, DEFAULT_BATCH_SIZE};
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
    fn from_binary(op: BinaryOp) -> Option<CmpOp> {
        Some(match op {
            BinaryOp::Eq => CmpOp::Eq,
            BinaryOp::NotEq => CmpOp::NotEq,
            BinaryOp::Lt => CmpOp::Lt,
            BinaryOp::LtEq => CmpOp::LtEq,
            BinaryOp::Gt => CmpOp::Gt,
            BinaryOp::GtEq => CmpOp::GtEq,
            _ => return None,
        })
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

/// A compiled conjunction of pushed-down conjuncts.
#[derive(Debug, Clone)]
pub struct FilterSpec {
    /// Conjuncts in predicate evaluation order.
    pub preds: Vec<ColPred>,
    /// True when the conjuncts cover the *whole* predicate (nothing beyond
    /// them is evaluated by the filter). Required for the
    /// disproof-with-unknowns pruning rule.
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
    use std::cmp::Ordering::*;
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
    /// `column <cmp> literal` conjuncts (in evaluation order). Returns
    /// `None` when not even the first conjunct is pushable.
    pub fn from_phys(pred: &PhysExpr) -> Option<FilterSpec> {
        let mut conjuncts = Vec::new();
        flatten_and(pred, &mut conjuncts);
        let mut preds = Vec::new();
        let mut complete = true;
        for c in &conjuncts {
            match as_col_pred(c) {
                Some(p) => preds.push(p),
                None => {
                    complete = false;
                    break;
                }
            }
        }
        if preds.is_empty() {
            return None;
        }
        Some(FilterSpec { preds, complete })
    }

    /// True when the spec proves the segment contributes no output rows
    /// *and* skipping it cannot change observable behavior (see module docs
    /// for the error-conservatism argument).
    pub fn prunes(&self, seg: &Segment) -> bool {
        let cols = seg.columns();
        self.prunes_by(|c| cols.get(c).map(|col| col.zone()))
    }

    /// Zone-only variant of [`prunes`](Self::prunes) for optimizer
    /// statistics, which carry [`SegmentZones`](crate::SegmentZones) profiles instead of live
    /// segments.
    pub fn prunes_zones(&self, zones: &crate::SegmentZones) -> bool {
        self.prunes_by(|c| zones.zones.get(c))
    }

    fn prunes_by<'a>(&self, zone_of: impl Fn(usize) -> Option<&'a ZoneMap>) -> bool {
        let classes: Vec<PredClass> = self
            .preds
            .iter()
            .map(|p| match zone_of(p.col) {
                Some(z) => classify(z, p),
                None => PredClass::Opaque,
            })
            .collect();
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

/// Pruning accounting for one scan (also computable at plan time for
/// EXPLAIN, without touching column data).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Sealed segments in the table at scan start.
    pub segments_total: usize,
    /// Segments skipped via zone maps.
    pub segments_pruned: usize,
    /// Rows in the unsealed tail (always scanned; no zone maps yet).
    pub tail_rows: usize,
}

impl ScanStats {
    /// Segments actually read.
    pub fn segments_scanned(&self) -> usize {
        self.segments_total - self.segments_pruned
    }
}

/// A snapshot scan over a table's sealed segments plus its unsealed tail.
///
/// Construction captures the segment list and tail under the table lock
/// (consistent snapshot) and evaluates the filter spec against each
/// segment's zone maps; iteration then materializes only surviving segments,
/// in batches of at most [`DEFAULT_BATCH_SIZE`] rows.
pub struct TableScan {
    schema: Arc<Schema>,
    segments: Vec<Arc<Segment>>,
    tail: Vec<Row>,
    stats: ScanStats,
    seg: usize,
    offset: usize,
    tail_offset: usize,
}

impl TableScan {
    pub(crate) fn new(
        schema: Arc<Schema>,
        all_segments: Vec<Arc<Segment>>,
        tail: Vec<Row>,
        spec: Option<&FilterSpec>,
    ) -> TableScan {
        let total = all_segments.len();
        let segments: Vec<Arc<Segment>> = match spec {
            Some(s) => all_segments
                .into_iter()
                .filter(|seg| !s.prunes(seg))
                .collect(),
            None => all_segments,
        };
        let stats = ScanStats {
            segments_total: total,
            segments_pruned: total - segments.len(),
            tail_rows: tail.len(),
        };
        TableScan {
            schema,
            segments,
            tail,
            stats,
            seg: 0,
            offset: 0,
            tail_offset: 0,
        }
    }

    /// Upper bound on rows this scan has yet to produce (remaining
    /// surviving-segment rows + remaining tail rows).
    pub fn remaining_rows(&self) -> usize {
        let seg_rows: usize = self.segments[self.seg.min(self.segments.len())..]
            .iter()
            .map(|s| s.len())
            .sum();
        seg_rows.saturating_sub(self.offset) + (self.tail.len() - self.tail_offset)
    }

    /// Output schema of the batches.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Next batch, or `None` when exhausted.
    pub fn next_batch(&mut self) -> Option<RowBatch> {
        while self.seg < self.segments.len() {
            let seg = &self.segments[self.seg];
            if self.offset >= seg.len() {
                self.seg += 1;
                self.offset = 0;
                continue;
            }
            let end = (self.offset + DEFAULT_BATCH_SIZE).min(seg.len());
            let mut rows = Vec::with_capacity(end - self.offset);
            seg.materialize_into(self.offset..end, &mut rows);
            self.offset = end;
            return Some(RowBatch::from_rows(self.schema.clone(), rows));
        }
        if self.tail_offset < self.tail.len() {
            let end = (self.tail_offset + DEFAULT_BATCH_SIZE).min(self.tail.len());
            let rows = self.tail[self.tail_offset..end].to_vec();
            self.tail_offset = end;
            return Some(RowBatch::from_rows(self.schema.clone(), rows));
        }
        None
    }

    /// Pruning accounting (stable from construction).
    pub fn stats(&self) -> ScanStats {
        self.stats
    }
}
