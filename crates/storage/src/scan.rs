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
//! This module is the workspace's one predicate compiler. What a compiled
//! conjunct is, is decided once ([`Conjuncts::split`]): `column <cmp>
//! literal`, or an arithmetic `(x ⊕ y) <cmp> literal` over columns and
//! literals (at least one column; ⊕ one of + − × ÷), in either
//! orientation. An arithmetic conjunct is opaque to zone maps — a column's
//! bounds do not bound a quotient — so the scan's spec
//! ([`FilterSpec::from_phys`]) stops in front of it. How a conjunct is
//! decided, twice — [`Conjuncts::eval`] on a row, a `LaneTest` on a bare
//! [`Lane`] — over the one comparison truth table ([`BinaryOp::accepts`]);
//! a term's arithmetic rules are written once, in `csq_expr`'s [`arith`],
//! which the general evaluator calls on a row and a typed loop calls over
//! numeric lanes, into a lane of its own. The lane rule has two callers.
//! The scan runs it on a segment's lanes, for the prefix the zone maps
//! proved error-free there. `csq_exec::Filter` runs it on a lane batch through
//! [`Conjuncts::select_lanes`] when every conjunct is compiled and no
//! selected row can raise, and narrows the batch's selection instead of
//! building rows. Every other batch reaches `Filter`'s row path.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::Arc;

use csq_common::lane::wide;
use csq_common::{
    each_width, IntLane, Lane, NullBitmap, Result, Row, RowBatch, Schema, Selection, Value,
    DEFAULT_BATCH_SIZE,
};
use csq_expr::physical::{arith, eval_binary, Num};
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

    /// The comparison decided on one value against `lit`, three-valued:
    /// `None` is UNKNOWN (a NULL operand, a NaN ordering). The numeric
    /// pairings every conjunct in practice has are compared in place;
    /// everything else — cross-type pairs and their typed errors included —
    /// is [`Value::sql_cmp`]'s to decide.
    #[inline]
    fn test(self, v: &Value, lit: &Value) -> Result<Option<bool>> {
        let ord = match (v, lit) {
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).partial_cmp(b),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            _ => v.sql_cmp(lit)?,
        };
        Ok(ord.map(|o| self.binary().accepts(o)))
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

/// A numeric operand of an arithmetic term: an INT lane (any width), a
/// FLOAT lane, or a numeric or NULL literal.
enum Operand<'a> {
    Int(&'a IntLane, &'a NullBitmap),
    Float(&'a [f64], &'a NullBitmap),
    Lit(Option<Num>),
}

impl<'a> Operand<'a> {
    /// The operand `e` is, when it is numeric.
    fn of(e: &PhysExpr, lanes: &'a [Arc<Lane>]) -> Option<Operand<'a>> {
        Some(match e {
            PhysExpr::Column(c) => match &**lanes.get(*c)? {
                Lane::Int { values, nulls } => Operand::Int(values, nulls),
                Lane::Float { values, nulls } => Operand::Float(values, nulls),
                _ => return None,
            },
            PhysExpr::Literal(Value::Int(i)) => Operand::Lit(Some(Num::Int(*i))),
            PhysExpr::Literal(Value::Float(f)) => Operand::Lit(Some(Num::Float(*f))),
            PhysExpr::Literal(Value::Null) => Operand::Lit(None),
            _ => return None,
        })
    }
}

/// Evaluate `$body` with `$f` bound to a closure reading an [`Operand`] at a
/// lane ordinal: the operand's kind (and an INT lane's width) is matched
/// once, outside the loop in `$body`.
macro_rules! with_operand {
    ($operand:expr, $f:ident => $body:expr) => {
        match $operand {
            Operand::Int(values, nulls) => each_width!(values, v => {
                let $f = |i: usize| (!nulls.get(i)).then(|| Num::Int(wide(v[i])));
                $body
            }),
            Operand::Float(values, nulls) => {
                let $f = |i: usize| (!nulls.get(i)).then(|| Num::Float(values[i]));
                $body
            }
            Operand::Lit(n) => {
                let $f = |_: usize| n;
                $body
            }
        }
    };
}

/// `x ⊕ y` by [`arith`] on each selected row, into a lane of `len` rows
/// typed as [`Lane::from_cells`] types the results: INT or FLOAT with the
/// NULL results marked, a `Values` lane of NULLs when no result is
/// non-NULL. `None` when a row raises.
fn typed_term(
    op: BinaryOp,
    sel: &Selection,
    len: usize,
    x: impl Fn(usize) -> Option<Num>,
    y: impl Fn(usize) -> Option<Num>,
) -> Option<Lane> {
    // Each result's bits, and whether the results are INT (`None` while
    // none is non-NULL): one term's results share a type.
    let mut bits = vec![0u64; len];
    let mut nulls = NullBitmap::new(len);
    let mut int = None;
    sel.try_for_each(sel.len(), |_, i| {
        match arith(op, x(i), y(i)).map_err(drop)? {
            Some(Num::Int(v)) => (bits[i], int) = (v as u64, Some(true)),
            Some(Num::Float(f)) => (bits[i], int) = (f.to_bits(), Some(false)),
            None => nulls.set(i),
        }
        Ok::<_, ()>(())
    })
    .ok()?;
    Some(match int {
        None => Lane::Values(vec![Value::Null; len]),
        Some(true) => Lane::Int {
            values: IntLane::pack(bits.into_iter().map(|b| b as i64).collect()),
            nulls,
        },
        Some(false) => Lane::Float {
            values: bits.into_iter().map(f64::from_bits).collect(),
            nulls,
        },
    })
}

/// One conjunct the filter compiles: `term <op> lit`, the term a column or
/// an arithmetic `x ⊕ y` over columns and literals.
#[derive(Debug, Clone)]
struct Conjunct {
    term: PhysExpr,
    op: CmpOp,
    lit: Value,
}

impl Conjunct {
    /// The row rule: the column's value, or the term as the general
    /// evaluator computes it (raising what it raises), against the literal.
    #[inline]
    fn test(&self, row: &Row) -> Result<Option<bool>> {
        match &self.term {
            PhysExpr::Column(c) if *c < row.len() => self.op.test(row.value(*c), &self.lit),
            term => self.op.test(&term.eval(row)?, &self.lit),
        }
    }

    /// The term on a lane batch: a column's lane, or `x ⊕ y` computed on the
    /// selected rows into a lane as long as its column operand's, typed as a
    /// sealed column of the results would be. Numeric operands — INT and
    /// FLOAT lanes, numeric and NULL literals — run one typed loop over
    /// [`arith`]; any other operand is read as a `Value` and computed by
    /// `eval_binary`. `None` for an ordinal past the lanes or when some
    /// selected row raises.
    fn lane<'a>(&self, lanes: &'a [Arc<Lane>], sel: &Selection) -> Option<Cow<'a, Lane>> {
        let PhysExpr::Binary { left, op, right } = &self.term else {
            let PhysExpr::Column(c) = self.term else {
                return None;
            };
            return lanes.get(c).map(|l| Cow::Borrowed(&**l));
        };
        let len = [left, right].iter().find_map(|e| match &***e {
            PhysExpr::Column(c) => lanes.get(*c).map(|l| l.len()),
            _ => None,
        })?;
        if let (Some(x), Some(y)) = (Operand::of(left, lanes), Operand::of(right, lanes)) {
            return with_operand!(x, x => with_operand!(y, y => {
                typed_term(*op, sel, len, x, y).map(Cow::Owned)
            }));
        }
        let value = |e: &PhysExpr, i| match e {
            PhysExpr::Column(c) => lanes.get(*c).map(|l| l.value(i)),
            PhysExpr::Literal(v) => Some(v.clone()),
            _ => None,
        };
        let mut cells = Vec::with_capacity(sel.len());
        sel.try_for_each(sel.len(), |_, i| {
            let (Some(l), Some(r)) = (value(left, i), value(right, i)) else {
                return Err(());
            };
            cells.push((i, eval_binary(*op, &l, &r).map_err(drop)?));
            Ok(())
        })
        .ok()?;
        let lane = Lane::from_cells(len, cells.iter().map(|(i, v)| (*i, v)));
        Some(Cow::Owned(lane))
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

/// The compiled prefix of a filter's predicate: the longest run of leading
/// conjuncts that are `column <cmp> literal` or arithmetic, in evaluation
/// order.
#[derive(Debug, Clone)]
pub struct Conjuncts {
    conjuncts: Vec<Conjunct>,
    /// True when nothing follows the prefix.
    complete: bool,
}

impl Conjuncts {
    /// Compile the prefix of a bound predicate and return what it leaves:
    /// the conjuncts after it, re-joined in evaluation order. Evaluating
    /// the prefix with [`eval`](Self::eval) and then the residual is
    /// evaluating `pred`.
    pub fn split(pred: &PhysExpr) -> (Option<Conjuncts>, Option<PhysExpr>) {
        let mut flat = Vec::new();
        flatten_and(pred, &mut flat);
        let conjuncts: Vec<Conjunct> = flat.iter().map_while(|c| as_conjunct(c)).collect();
        let residual = flat[conjuncts.len()..]
            .iter()
            .map(|&c| c.clone())
            .reduce(|left, right| PhysExpr::Binary {
                left: Box::new(left),
                op: BinaryOp::And,
                right: Box::new(right),
            });
        let prefix = (!conjuncts.is_empty()).then_some(Conjuncts {
            conjuncts,
            complete: residual.is_none(),
        });
        (prefix, residual)
    }

    /// The row rule: the conjuncts on one row, as the general evaluator
    /// decides their conjunction — three-valued AND, left to right, stopping
    /// at the first definite FALSE, an error (a comparison, an arithmetic
    /// error, an ordinal the row does not have) raised if it is met before
    /// one.
    #[inline]
    pub fn eval(&self, row: &Row) -> Result<Option<bool>> {
        let mut verdict = Some(true);
        for c in &self.conjuncts {
            match c.test(row)? {
                Some(false) => return Ok(Some(false)),
                Some(true) => {}
                None => verdict = None,
            }
        }
        Ok(verdict)
    }

    /// The whole predicate decided on a lane batch: `sel` narrowed to the
    /// rows on which every conjunct is TRUE. `None` — decide the batch's
    /// rows instead — unless the prefix is `complete` and no selected row
    /// can raise: every term is computed without an error, and each
    /// conjunct's lane (a column's, or a term's) pairs with its literal so
    /// that no comparison can (INT or FLOAT against INT or FLOAT, BOOL
    /// against BOOL, a dictionary against a STR, any lane against NULL).
    pub fn select_lanes(&self, lanes: &[Arc<Lane>], sel: &Selection) -> Option<Selection> {
        if !self.complete {
            return None;
        }
        let terms = self
            .conjuncts
            .iter()
            .map(|c| c.lane(lanes, sel))
            .collect::<Option<Vec<_>>>()?;
        let tests = self
            .conjuncts
            .iter()
            .zip(&terms)
            .map(|(c, lane)| {
                let test = LaneTest::new(lane, c.op, &c.lit);
                test.typed().then_some((&**lane, test))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(narrow(sel, tests.iter().map(|(l, t)| (*l, t)), false))
    }
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
    /// order) — the leading column conjuncts of [`Conjuncts::split`]. Returns
    /// `None` when not even the first conjunct is pushable.
    pub fn from_phys(pred: &PhysExpr) -> Option<FilterSpec> {
        let mut flat = Vec::new();
        flatten_and(pred, &mut flat);
        let preds: Vec<ColPred> = flat
            .iter()
            .map_while(|c| match as_conjunct(c)? {
                Conjunct {
                    term: PhysExpr::Column(col),
                    op,
                    lit,
                } => Some(ColPred { col, op, lit }),
                _ => None,
            })
            .collect();
        (!preds.is_empty()).then_some(FilterSpec {
            complete: preds.len() == flat.len(),
            preds,
        })
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
    /// Compile `<op> lit` against `lane`, the lane of its column or term.
    fn new(lane: &Lane, op: CmpOp, lit: &Value) -> LaneTest {
        let op = op.binary();
        let lit = match (lane, lit) {
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
    /// `sel` alone. The operator is decided once, into a verdict per
    /// ordering, and a lane with no NULL is not tested for one.
    fn retain(&self, lane: &Lane, keep_unknown: bool, sel: &mut Selection) {
        let accept =
            [Ordering::Less, Ordering::Equal, Ordering::Greater].map(|o| self.op.accepts(o));
        let hit = |o: Ordering| accept[(o as i8 + 1) as usize];
        let tri = |ord: Option<Ordering>| ord.map_or(keep_unknown, hit);
        // A typed lane: NULL rows are UNKNOWN, `test(i)` decides the rest.
        fn typed(
            sel: &mut Selection,
            nulls: &NullBitmap,
            keep_unknown: bool,
            test: impl Fn(usize) -> bool,
        ) {
            if nulls.count_ones() == 0 {
                sel.retain(test)
            } else {
                sel.retain(|i| if nulls.get(i) { keep_unknown } else { test(i) })
            }
        }
        match (lane, &self.lit) {
            (_, LaneLit::Null) => sel.retain(|_| keep_unknown),
            (Lane::Int { values, nulls }, LaneLit::Int(b)) => each_width!(values, v => {
                typed(sel, nulls, keep_unknown, |i| hit(wide(v[i]).cmp(b)))
            }),
            (Lane::Int { values, nulls }, LaneLit::Float(b)) => each_width!(values, v => {
                typed(sel, nulls, keep_unknown, |i| tri((wide(v[i]) as f64).partial_cmp(b)))
            }),
            (Lane::Float { values, nulls }, LaneLit::Float(b)) => {
                typed(sel, nulls, keep_unknown, |i| tri(values[i].partial_cmp(b)))
            }
            (Lane::Bool { values, nulls }, LaneLit::Bool(b)) => {
                typed(sel, nulls, keep_unknown, |i| hit(values[i].cmp(b)))
            }
            (Lane::StrDict { codes, .. }, LaneLit::Dict(accept)) => {
                sel.retain(|i| match codes[i] {
                    u32::MAX => keep_unknown,
                    c => accept[c as usize],
                })
            }
            // An `Err` cannot happen on a conjunct proved error-free; keeping
            // the row leaves it to the filter.
            (Lane::Values(values), LaneLit::Value(lit)) => {
                sel.retain(|i| values[i].sql_cmp(lit).map_or(true, tri))
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
    let mut kept = sel.clone();
    for (lane, test) in tests {
        test.retain(lane, keep_unknown, &mut kept);
    }
    kept
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

fn as_conjunct(e: &PhysExpr) -> Option<Conjunct> {
    let PhysExpr::Binary { left, op, right } = e else {
        return None;
    };
    let op = CmpOp::from_binary(*op)?;
    let (term, op, lit) = match (left.as_ref(), right.as_ref()) {
        (term, PhysExpr::Literal(lit)) => (term, op, lit.clone()),
        (PhysExpr::Literal(lit), term) => (term, op.flipped(), lit.clone()),
        _ => return None,
    };
    let leaf = |e: &PhysExpr| matches!(e, PhysExpr::Column(_) | PhysExpr::Literal(_));
    let is_col = |e: &PhysExpr| matches!(e, PhysExpr::Column(_));
    let compiled = match term {
        PhysExpr::Column(_) => true,
        PhysExpr::Binary { left, op, right } => {
            op.is_arithmetic() && leaf(left) && leaf(right) && (is_col(left) || is_col(right))
        }
        _ => false,
    };
    compiled.then(|| Conjunct {
        term: term.clone(),
        op,
        lit,
    })
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
            tests.extend(spec.preds[..clean].iter().map(|p| {
                (
                    p.col,
                    LaneTest::new(seg.columns()[p.col].lane(), p.op, &p.lit),
                )
            }));
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

#[cfg(test)]
mod tests {
    use super::*;

    fn bin(left: PhysExpr, op: BinaryOp, right: PhysExpr) -> PhysExpr {
        PhysExpr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    /// An arithmetic conjunct compiles for the filter but is opaque to zone
    /// maps: the scan's spec stops in front of it, as it stops in front of
    /// any conjunct it cannot push.
    #[test]
    fn from_phys_stops_at_an_arithmetic_conjunct() {
        let (a, b, c) = (
            PhysExpr::Column(0),
            PhysExpr::Column(1),
            PhysExpr::Column(2),
        );
        let quotient = bin(
            bin(a, BinaryOp::Div, b),
            BinaryOp::Gt,
            PhysExpr::Literal(Value::Float(0.2)),
        );
        assert!(FilterSpec::from_phys(&quotient).is_none());
        let c_is_5 = bin(c, BinaryOp::Eq, PhysExpr::Literal(Value::Int(5)));
        let spec = FilterSpec::from_phys(&bin(c_is_5, BinaryOp::And, quotient.clone()))
            .expect("the prefix `c = 5`");
        assert!(!spec.complete);
        assert_eq!(spec.preds.len(), 1);
        let p = &spec.preds[0];
        assert_eq!((p.col, p.op, &p.lit), (2, CmpOp::Eq, &Value::Int(5)));
        // The filter compiles both, and nothing is left over.
        let (prefix, residual) = Conjuncts::split(&quotient);
        assert!(residual.is_none());
        assert_eq!(prefix.map(|p| p.conjuncts.len()), Some(1));
    }

    /// The typed term loop builds, for every pairing of numeric operands
    /// (INT lanes of each width, a FLOAT lane with NaN, both zeros and both
    /// infinities, NULLs, literals on either side), operator and selection,
    /// the lane the per-row `eval_binary` arm builds — or declines the batch
    /// exactly when a selected row raises.
    #[test]
    fn typed_terms_match_the_per_row_arm() {
        let col = |values: Vec<Value>| {
            let rows: Vec<Row> = values.into_iter().map(|v| Row::new(vec![v])).collect();
            Arc::new(Lane::build(&rows, 0))
        };
        let (null, int, float) = (Value::Null, Value::Int, Value::Float);
        let lanes = vec![
            col(vec![
                int(-100),
                int(0),
                null.clone(),
                int(7),
                int(127),
                int(-1),
            ]),
            col(vec![
                int(-30_000),
                int(0),
                int(300),
                null.clone(),
                int(1),
                int(2),
            ]),
            col(vec![
                int(1 << 20),
                int(0),
                int(-5),
                int(9),
                null.clone(),
                int(-1),
            ]),
            col(vec![
                int(i64::MIN),
                int(i64::MAX),
                int(-1),
                int(0),
                null.clone(),
                int(3),
            ]),
            col(vec![
                float(f64::NAN),
                float(-0.0),
                float(0.0),
                float(f64::INFINITY),
                float(f64::NEG_INFINITY),
                null.clone(),
            ]),
            col(vec![
                float(1.5),
                float(-2.5),
                float(1e300),
                float(4.0),
                float(-0.5),
                float(8.0),
            ]),
        ];
        let widths: Vec<usize> = lanes[..4]
            .iter()
            .map(|l| match &**l {
                Lane::Int { values, .. } => values.width(),
                _ => 0,
            })
            .collect();
        assert_eq!(widths, [1, 2, 4, 8]);
        let mut operands: Vec<PhysExpr> = (0..lanes.len()).map(PhysExpr::Column).collect();
        operands.extend(
            [
                int(0),
                int(-3),
                int(i64::MIN),
                int(i64::MAX),
                float(0.0),
                float(-0.0),
                float(f64::NAN),
                float(f64::INFINITY),
                null,
            ]
            .map(PhysExpr::Literal),
        );
        let sels = [
            Selection::Window(0..6),
            Selection::Window(2..4),
            Selection::Rows(vec![0, 3, 5]),
            Selection::Rows(vec![1, 4]),
        ];
        let value = |e: &PhysExpr, i: usize| match e {
            PhysExpr::Column(c) => lanes[*c].value(i),
            PhysExpr::Literal(v) => v.clone(),
            _ => unreachable!(),
        };
        let (mut built, mut declined) = (0, 0);
        for x in &operands {
            for y in &operands {
                if !matches!((x, y), (PhysExpr::Column(_), _) | (_, PhysExpr::Column(_))) {
                    continue;
                }
                for op in [BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul, BinaryOp::Div] {
                    let conjunct = Conjunct {
                        term: bin(x.clone(), op, y.clone()),
                        op: CmpOp::Gt,
                        lit: Value::Int(0),
                    };
                    for sel in &sels {
                        let mut cells = Vec::new();
                        sel.for_each(sel.len(), |_, i| {
                            cells.push((i, eval_binary(op, &value(x, i), &value(y, i))))
                        });
                        let expected = cells
                            .into_iter()
                            .map(|(i, v)| v.ok().map(|v| (i, v)))
                            .collect::<Option<Vec<_>>>()
                            .map(|cells| Lane::from_cells(6, cells.iter().map(|(i, v)| (*i, v))));
                        let got = conjunct.lane(&lanes, sel);
                        let what = format!("{x:?} {op:?} {y:?} over {sel:?}");
                        match (got, expected) {
                            (Some(got), Some(expected)) => {
                                built += 1;
                                assert_eq!(format!("{got:?}"), format!("{expected:?}"), "{what}");
                                sel.for_each(sel.len(), |_, i| {
                                    assert_eq!(got.value(i), expected.value(i), "{what}")
                                });
                            }
                            (None, None) => declined += 1,
                            (got, expected) => panic!("{what}: {got:?} vs {expected:?}"),
                        }
                    }
                }
            }
        }
        assert!(
            built > 500 && declined > 100,
            "{built} built, {declined} declined"
        );
    }
}
