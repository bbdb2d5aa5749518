//! Differential oracle for the columnar storage layer (DESIGN.md §11):
//! zone-map pruning and operator spilling are *performance* features, so
//! every path here is checked against an independent reference that never
//! prunes and never spills.
//!
//! * Pruned columnar scans ([`ColumnarScan`] compiled from a [`FilterSpec`])
//!   under a [`Filter`] must return exactly what the general evaluator
//!   ([`PhysExpr::eval_predicate`], row at a time over the table's
//!   row-vector [`Table::snapshot`]) returns — including all-NULL columns,
//!   constant columns, NULL literals, and predicates on unordered (mixed
//!   lane) columns. The oracle side runs none of the compiled predicate
//!   code: [`Filter`] runs its row rule ([`FilterSpec::eval`]), so a filter
//!   on both sides would hide its bugs.
//! * The table's tail — rows a scan seals into short runs, merged as more
//!   arrive — holds the same rows in the same order through any interleaving
//!   of inserts and scans, and scanning it changes no statistic: the
//!   profile equals a never-scanned twin's. A segment's zone maps, now read
//!   off its lanes, equal the value-by-value walk they replaced.
//! * The scan's own row filtering and column pruning are held to four
//!   properties: what the scan *alone* omits, the general evaluator maps to
//!   `Ok(false)` (never to an error); the filter above it raises the same
//!   error as over the snapshot; a narrowed scan is the full scan projected;
//!   and end to end, narrowed plans answer what the snapshot-reading
//!   simulated backend answers while scans under an `ApplyUdf` stay whole.
//! * A lane-backed batch — what the scan emits for a sealed segment — builds,
//!   for any column list and any selection, exactly the projected
//!   [`Segment::row`]s, and counts them without building them.
//! * [`HashAggregate`] and [`HashJoin`] under a deliberately tiny
//!   [`MemoryTracker`] budget (forcing partition spills on nearly every
//!   batch) must produce the same row multisets as the unbudgeted in-memory
//!   operators.
//!
//! * The table's running profile ([`Table::profile`], what
//!   [`stats_from_table`] converts) must equal — bit for bit — the
//!   statistics a walk over the row-vector snapshot produces, after every
//!   insert, rejected batch and seal, and under a concurrent writer.
//!
//! Failing seeds persist under `proptest-regressions/` via the vendored
//! proptest shim and replay on every `cargo test`.

use std::sync::Arc;

use proptest::prelude::*;

use csq_common::{Blob, DataType, Field, Row, RowBatch, Schema, Selection, Value};
use csq_exec::ops::{ColumnarScan, Filter, RowsOp};
use csq_exec::{collect, AggSpec, HashAggregate, HashJoin, MemoryTracker};
use csq_expr::{AggFunc, BinaryOp, PhysExpr};
use csq_opt::context::{stats_from_table, TableStats};
use csq_storage::{FilterSpec, Segment, Table, ZoneMap};

use csq::prelude::{Database, NetworkSpec};

fn col(i: usize) -> PhysExpr {
    PhysExpr::Column(i)
}

fn lit(v: Value) -> PhysExpr {
    PhysExpr::Literal(v)
}

fn bin(left: PhysExpr, op: BinaryOp, right: PhysExpr) -> PhysExpr {
    PhysExpr::Binary {
        left: Box::new(left),
        op,
        right: Box::new(right),
    }
}

fn scan_schema() -> Schema {
    Schema::new(vec![
        Field::new("i", DataType::Int),
        Field::new("f", DataType::Float),
        Field::new("s", DataType::Str),
        Field::new("b", DataType::Bool),
    ])
}

/// Values skewed toward zone-map edge cases: heavy NULL rates, narrow
/// ranges (so whole segments go constant), and the occasional stray Int in
/// the float column to force the `Values` fallback lane + unordered zones.
fn arb_scan_row() -> impl Strategy<Value = Row> {
    (
        prop_oneof![
            (-20i64..20).prop_map(Value::Int),
            (-20i64..20).prop_map(Value::Int),
            Just(Value::Int(7)),
            Just(Value::Null),
            Just(Value::Null),
        ],
        prop_oneof![
            (-8i64..8).prop_map(|i| Value::Float(i as f64 * 0.5)),
            (-8i64..8).prop_map(|i| Value::Float(i as f64 * 0.5)),
            Just(Value::Int(3)),
            Just(Value::Null),
        ],
        prop_oneof![
            (0usize..4).prop_map(|k| Value::from(["a", "bb", "ccc", "dd"][k])),
            (0usize..4).prop_map(|k| Value::from(["a", "bb", "ccc", "dd"][k])),
            Just(Value::Null),
        ],
        prop_oneof![
            any::<bool>().prop_map(Value::Bool),
            any::<bool>().prop_map(Value::Bool),
            Just(Value::Null),
        ],
    )
        .prop_map(|(a, b, c, d)| Row::new(vec![a, b, c, d]))
}

/// A comparison operator and whether to write the conjunct literal-first.
/// One draw of twelve whose residue mod six picks the operator, so a
/// committed seed compares what it compared when there were six.
fn arb_cmp() -> impl Strategy<Value = (BinaryOp, bool)> {
    const OPS: [BinaryOp; 6] = [
        BinaryOp::Eq,
        BinaryOp::NotEq,
        BinaryOp::Lt,
        BinaryOp::LtEq,
        BinaryOp::Gt,
        BinaryOp::GtEq,
    ];
    (0usize..12).prop_map(|k| (OPS[k % 6], k >= 6))
}

/// `column <op> literal`, or the same comparison written literal-first
/// (`literal <mirrored op> column`): both orientations are pushable.
fn comparison(c: usize, (op, literal_first): (BinaryOp, bool), v: Value) -> PhysExpr {
    if !literal_first {
        return bin(col(c), op, lit(v));
    }
    let mirrored = match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        symmetric => symmetric,
    };
    bin(lit(v), mirrored, col(c))
}

/// One pushable conjunct: `column <cmp> literal` in either orientation,
/// sometimes with a NULL or cross-type literal to exercise the
/// opaque/unknown classifications.
fn arb_conjunct() -> impl Strategy<Value = PhysExpr> {
    let literal = prop_oneof![
        (-20i64..20).prop_map(Value::Int),
        (-20i64..20).prop_map(Value::Int),
        (-20i64..20).prop_map(Value::Int),
        (-8i64..8).prop_map(|i| Value::Float(i as f64 * 0.5)),
        (0usize..4).prop_map(|k| Value::from(["a", "bb", "ccc", "dd"][k])),
        Just(Value::Null),
    ];
    (0usize..4, arb_cmp(), literal).prop_map(|(c, cmp, v)| comparison(c, cmp, v))
}

fn and_chain(mut conjuncts: Vec<PhysExpr>) -> PhysExpr {
    let mut e = conjuncts.pop().expect("nonempty");
    while let Some(c) = conjuncts.pop() {
        e = bin(c, BinaryOp::And, e);
    }
    e
}

fn build_table(rows: &[Row], segment_rows: usize) -> Arc<Table> {
    let t = Table::with_segment_rows("t", scan_schema(), segment_rows).unwrap();
    t.insert_all(rows.to_vec()).unwrap();
    Arc::new(t)
}

/// The oracle: the rows of `table`'s snapshot on which the general evaluator
/// holds `pred`, or the first error it raises.
fn snapshot_oracle(table: &Table, pred: &PhysExpr) -> csq_common::Result<Vec<Row>> {
    let mut kept = Vec::new();
    for row in table.snapshot() {
        if pred.eval_predicate(&row)? {
            kept.push(row);
        }
    }
    Ok(kept)
}

/// The differential: pruned columnar scan + filter versus the general
/// evaluator over the row-vector snapshot. Errors must agree in kind
/// (cross-type comparisons are type errors on both paths); successes must
/// agree on the exact row sequence, not just the multiset.
fn assert_scan_equivalent(rows: &[Row], segment_rows: usize, pred: &PhysExpr) {
    let table = build_table(rows, segment_rows);
    let spec = FilterSpec::from_phys(pred);

    let scan = ColumnarScan::new(&table, "t", spec.as_ref()).unwrap();
    let columnar = collect(&mut Filter::new(Box::new(scan), pred.clone()));

    match (columnar, snapshot_oracle(&table, pred)) {
        (Ok(c), Ok(o)) => assert_eq!(c, o, "pruned scan diverged from snapshot oracle"),
        (Err(c), Err(o)) => assert_eq!(c.kind(), o.kind(), "error kinds diverged"),
        (c, o) => panic!("one path errored, the other did not: {c:?} vs {o:?}"),
    }
}

/// Rows for the scan-filter properties: [`arb_profile_row`] (NULLs, a stray
/// `Int` forcing the FLOAT column onto the `Values` lane, strings, blobs)
/// with the occasional NaN, which no zone map orders.
fn arb_filter_row() -> impl Strategy<Value = Row> {
    (arb_profile_row(), 0usize..12).prop_map(|(r, k)| {
        if k > 0 {
            return r;
        }
        let mut values = r.into_values();
        values[1] = Value::Float(f64::NAN);
        Row::new(values)
    })
}

/// One pushable conjunct over [`profile_schema`], in either orientation:
/// mostly a literal of the column's own type (so multi-conjunct specs are
/// often error-free and the lane kernels do the work), sometimes NULL, NaN, a
/// numeric literal on any column, or the next column's type — the conjunct
/// that raises.
fn arb_filter_conjunct() -> impl Strategy<Value = PhysExpr> {
    (
        (0usize..5, arb_cmp(), 0usize..12),
        (-20i64..20, -8i64..8, 0usize..4),
        (any::<bool>(), 0usize..40),
    )
        .prop_map(|((c, cmp, pick), (i, f, s), (b, q))| {
            let typed = [
                Value::Int(i),
                Value::Float(f as f64 * 0.5),
                Value::from(["a", "bb", "ccc", "dd"][s]),
                Value::Bool(b),
                Value::Blob(Blob::synthetic(q, q as u64)),
            ];
            let v = match pick {
                0 => Value::Null,
                1 => Value::Float(f64::NAN),
                2 => typed[(c + 1) % 5].clone(),
                3 => Value::Int(i),
                _ => typed[c].clone(),
            };
            comparison(c, cmp, v)
        })
}

/// A conjunct [`FilterSpec::from_phys`] cannot push, so a spec compiled from
/// a chain holding one is incomplete: arithmetic on the INT column (never
/// raises) or on the STR column (raises on every non-NULL string).
fn arb_residual() -> impl Strategy<Value = PhysExpr> {
    (0usize..2).prop_map(|k| {
        let plus_one = bin(col([0, 2][k]), BinaryOp::Add, lit(Value::Int(1)));
        bin(plus_one, BinaryOp::Gt, lit(Value::Int(0)))
    })
}

/// A predicate for the scan-filter properties: 1–3 pushable conjuncts and,
/// when `residual` is given, an unpushable one spliced in at `at` (modulo
/// the length; at the end the spec is the whole pushable prefix but
/// incomplete, in the middle it stops short, at the front there is no spec).
/// [`Filter`] splits at the same place: the conjuncts before the splice run
/// on its compiled path, the splice and everything after it on the general
/// evaluator.
fn filter_predicate(
    mut conjuncts: Vec<PhysExpr>,
    residual: Option<PhysExpr>,
    at: usize,
) -> PhysExpr {
    if let Some(r) = residual {
        conjuncts.insert(at % (conjuncts.len() + 1), r);
    }
    and_chain(conjuncts)
}

/// A [`profile_schema`] table of `rows`, the tail sealed too when asked.
fn filter_table(rows: &[Row], segment_rows: usize, seal_tail: bool) -> Arc<Table> {
    let t = Table::with_segment_rows("t", profile_schema(), segment_rows).unwrap();
    t.insert_all(rows.to_vec()).unwrap();
    if seal_tail {
        t.seal_tail();
    }
    Arc::new(t)
}

/// Drop soundness: the rows of the spec'd scan *alone* are an in-order
/// subsequence of the snapshot, and the general evaluator maps every omitted
/// row to `Ok(false)` — never to an error.
fn assert_scan_drops_only_rejected_rows(table: &Arc<Table>, pred: &PhysExpr) {
    let spec = FilterSpec::from_phys(pred);
    let mut scan = ColumnarScan::new(table, "t", spec.as_ref()).unwrap();
    let scanned = collect(&mut scan).unwrap();
    let snapshot = table.snapshot();
    let mut kept = scanned.iter().peekable();
    for row in &snapshot {
        if kept.next_if_eq(&row).is_some() {
            continue;
        }
        let verdict = pred.eval_predicate(row);
        assert!(
            matches!(verdict, Ok(false)),
            "scan dropped {row}, which the filter maps to {verdict:?}"
        );
    }
    assert!(kept.next().is_none(), "scan rows are not a subsequence");
    let stats = scan.scan_stats();
    assert!(
        stats.rows_filtered <= snapshot.len() - scanned.len(),
        "filtered rows were examined rows"
    );
}

/// Error preservation: the filter over the spec'd scan and the general
/// evaluator over the snapshot agree on the rows, or on the error — kind
/// *and* message, so the row that raises it is the same.
fn assert_filter_outcome_preserved(table: &Arc<Table>, pred: &PhysExpr) {
    let spec = FilterSpec::from_phys(pred);
    let scan = ColumnarScan::new(table, "t", spec.as_ref()).unwrap();
    let columnar = collect(&mut Filter::new(Box::new(scan), pred.clone()));
    match (columnar, snapshot_oracle(table, pred)) {
        (Ok(c), Ok(o)) => assert_eq!(c, o, "filtered scan diverged from snapshot oracle"),
        (Err(c), Err(o)) => assert_eq!(
            (c.kind(), c.to_string()),
            (o.kind(), o.to_string()),
            "the scan changed which row raises"
        ),
        (c, o) => panic!("one path errored, the other did not: {c:?} vs {o:?}"),
    }
}

/// `scan_schema` plus a BLOB column: the statistics differential wants
/// variable-width values in more than one lane.
fn profile_schema() -> Schema {
    let mut fields = scan_schema().fields().to_vec();
    fields.push(Field::new("q", DataType::Blob));
    Schema::new(fields)
}

fn arb_profile_row() -> impl Strategy<Value = Row> {
    let blob = prop_oneof![
        (0usize..40).prop_map(|n| Value::Blob(Blob::synthetic(n, n as u64))),
        (0usize..40).prop_map(|n| Value::Blob(Blob::synthetic(n, n as u64))),
        Just(Value::Null),
    ];
    (arb_scan_row(), blob).prop_map(|(r, q)| r.with_value(q))
}

/// One mutation of the table under the statistics differential.
#[derive(Debug, Clone)]
enum ProfileStep {
    Insert(Row),
    InsertAll(Vec<Row>),
    /// A batch whose row at the given position (modulo length) is replaced
    /// by one the typecheck refuses; `insert_all` must reject all of it.
    Rejected(Vec<Row>, usize, bool),
    SealTail,
}

fn arb_profile_step() -> impl Strategy<Value = ProfileStep> {
    let batch = || prop::collection::vec(arb_profile_row(), 1..20);
    prop_oneof![
        arb_profile_row().prop_map(ProfileStep::Insert),
        arb_profile_row().prop_map(ProfileStep::Insert),
        batch().prop_map(ProfileStep::InsertAll),
        batch().prop_map(ProfileStep::InsertAll),
        (batch(), 0usize..20, any::<bool>())
            .prop_map(|(rows, at, short)| ProfileStep::Rejected(rows, at, short)),
        Just(ProfileStep::SealTail),
    ]
}

/// The statistics pass as it was before the table kept a profile: walk the
/// row-vector snapshot and sum wire sizes value by value. Kept here as the
/// oracle `stats_from_table` must equal exactly.
fn stats_by_walking(rows: &[Row], width: usize) -> (f64, f64, Vec<f64>) {
    let n = rows.len().max(1) as f64;
    let mut col_bytes = vec![0.0; width];
    let mut total = 0.0;
    for r in rows {
        for (i, v) in r.values().iter().enumerate() {
            col_bytes[i] += v.wire_size() as f64;
        }
        total += r.wire_size() as f64;
    }
    for c in col_bytes.iter_mut() {
        *c /= n;
    }
    (rows.len() as f64, total / n, col_bytes)
}

/// `stats` against the snapshot oracle, and its zone list against segments
/// sealed afresh from the snapshot at the boundaries in `sealed_lens` (the
/// test's own model of the sealing policy).
fn assert_stats_match_oracle(table: &Table, stats: &TableStats, sealed_lens: &[usize]) {
    let snapshot = table.snapshot();
    let (rows, row_bytes, col_bytes) = stats_by_walking(&snapshot, table.schema().len());
    assert_eq!(stats.rows, rows);
    assert_eq!(stats.row_bytes, row_bytes);
    assert_eq!(stats.col_bytes, col_bytes);

    assert_eq!(table.segment_count(), sealed_lens.len());
    assert_eq!(stats.segments.len(), sealed_lens.len());
    let mut start = 0;
    for (zones, &len) in stats.segments.iter().zip(sealed_lens) {
        let resealed = Segment::seal(table.schema(), &snapshot[start..start + len]);
        assert_eq!(zones.rows, len);
        assert_eq!(
            format!("{:?}", zones.zones),
            format!("{:?}", resealed.zones())
        );
        start += len;
    }
}

/// [`arb_filter_row`] with the FLOAT column sometimes `-0.0` or `0.0`, which
/// compare equal but are different values: whichever a zone map keeps as a
/// bound, the walk kept.
fn arb_tail_row() -> impl Strategy<Value = Row> {
    (arb_filter_row(), 0usize..8).prop_map(|(r, k)| {
        let zero = match k {
            0 => -0.0,
            1 => 0.0,
            _ => return r,
        };
        let mut values = r.into_values();
        values[1] = Value::Float(zero);
        Row::new(values)
    })
}

/// One step of the tail-run property.
#[derive(Debug, Clone)]
enum TailStep {
    /// One row goes in through `insert`, more through `insert_all`.
    Insert(Vec<Row>),
    /// A scan under this predicate (and then the checks).
    Scan(PhysExpr),
}

fn arb_tail_step() -> impl Strategy<Value = TailStep> {
    let predicate = (
        prop::collection::vec(arb_filter_conjunct(), 1..4),
        (any::<bool>(), arb_residual(), 0usize..4),
    )
        .prop_map(|(conjuncts, (incomplete, residual, at))| {
            filter_predicate(conjuncts, incomplete.then_some(residual), at)
        });
    prop_oneof![
        prop::collection::vec(arb_tail_row(), 1..301).prop_map(TailStep::Insert),
        prop::collection::vec(arb_tail_row(), 1..4).prop_map(TailStep::Insert),
        predicate.prop_map(TailStep::Scan),
    ]
}

/// The zone map as sealing built it before it read the lanes: every value
/// of the column cloned and held against the bounds through
/// [`Value::sql_cmp`]. Kept here as the oracle the lane-read maps must
/// equal.
fn zone_by_walking(rows: &[Row], col: usize) -> ZoneMap {
    use std::cmp::Ordering;
    let mut bounds: Option<(Value, Value)> = None;
    let mut null_count = 0usize;
    let mut unordered = false;
    for v in rows.iter().map(|r| r.value(col).clone()) {
        if v.is_null() {
            null_count += 1;
            continue;
        }
        if unordered {
            continue;
        }
        match &mut bounds {
            None => bounds = Some((v.clone(), v)),
            Some((min, max)) => {
                match v.sql_cmp(min) {
                    Ok(Some(Ordering::Less)) => *min = v.clone(),
                    Ok(Some(_)) => {}
                    Ok(None) | Err(_) => {
                        unordered = true;
                        continue;
                    }
                }
                match v.sql_cmp(max) {
                    Ok(Some(Ordering::Greater)) => *max = v,
                    Ok(Some(_)) => {}
                    Ok(None) | Err(_) => unordered = true,
                }
            }
        }
    }
    if unordered {
        bounds = None;
    }
    ZoneMap {
        bounds,
        null_count,
        rows: rows.len(),
        unordered,
    }
}

/// Every zone map of `rows` sealed as one segment equals the walk's, `Debug`
/// for `Debug` — so `-0.0` and `0.0` are told apart, and NaN bounds too.
fn assert_zones_match_walk(schema: &Schema, rows: &[Row]) {
    let zones = Segment::seal(schema, rows).zones();
    for (col, zone) in zones.iter().enumerate() {
        assert_eq!(
            format!("{zone:?}"),
            format!("{:?}", zone_by_walking(rows, col)),
            "column {col} of {rows:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn pruned_scan_matches_row_oracle(
        rows in prop::collection::vec(arb_scan_row(), 0..300),
        segment_rows in prop_oneof![Just(7usize), Just(32), Just(64)],
        conjuncts in prop::collection::vec(arb_conjunct(), 1..4),
    ) {
        assert_scan_equivalent(&rows, segment_rows, &and_chain(conjuncts));
    }

    #[test]
    fn scan_alone_drops_only_rows_the_filter_rejects(
        rows in prop::collection::vec(arb_filter_row(), 0..120),
        segment_rows in prop_oneof![Just(1usize), Just(3), Just(7), Just(16)],
        seal_tail in any::<bool>(),
        conjuncts in prop::collection::vec(arb_filter_conjunct(), 1..4),
        residual in (any::<bool>(), arb_residual(), 0usize..4),
    ) {
        let (incomplete, residual, at) = residual;
        let pred = filter_predicate(conjuncts, incomplete.then_some(residual), at);
        assert_scan_drops_only_rejected_rows(&filter_table(&rows, segment_rows, seal_tail), &pred);
    }

    #[test]
    fn filter_over_scan_raises_what_the_row_oracle_raises(
        rows in prop::collection::vec(arb_filter_row(), 0..120),
        segment_rows in prop_oneof![Just(1usize), Just(3), Just(7), Just(16)],
        seal_tail in any::<bool>(),
        conjuncts in prop::collection::vec(arb_filter_conjunct(), 1..4),
        residual in (any::<bool>(), arb_residual(), 0usize..4),
    ) {
        let (incomplete, residual, at) = residual;
        let pred = filter_predicate(conjuncts, incomplete.then_some(residual), at);
        assert_filter_outcome_preserved(&filter_table(&rows, segment_rows, seal_tail), &pred);
    }

    #[test]
    fn narrowed_scan_is_the_full_scan_projected(
        rows in prop::collection::vec(arb_filter_row(), 0..120),
        segment_rows in prop_oneof![Just(1usize), Just(3), Just(7), Just(16)],
        seal_tail in any::<bool>(),
        keep in prop::collection::vec(any::<bool>(), 5..6),
        conjuncts in prop::collection::vec(arb_filter_conjunct(), 0..3),
    ) {
        let table = filter_table(&rows, segment_rows, seal_tail);
        // Any increasing ordinal list, the empty one included; the spec's
        // columns are in it or not as the draw falls.
        let cols: Vec<usize> = (0..5).filter(|&c| keep[c]).collect();
        let spec = (!conjuncts.is_empty())
            .then(|| FilterSpec::from_phys(&and_chain(conjuncts)))
            .flatten();
        let mut full = ColumnarScan::new(&table, "t", spec.as_ref()).unwrap();
        let mut narrow = ColumnarScan::with_columns(&table, "t", &cols, spec.as_ref()).unwrap();
        {
            use csq_exec::Operator;
            prop_assert_eq!(narrow.schema(), &full.schema().project(&cols));
        }
        let expect: Vec<Row> = collect(&mut full).unwrap().iter().map(|r| r.project(&cols)).collect();
        prop_assert_eq!(collect(&mut narrow).unwrap(), expect);
        prop_assert_eq!(narrow.scan_stats(), full.scan_stats());
    }

    #[test]
    fn lane_batch_rows_are_the_segment_rows(
        rows in prop::collection::vec(arb_filter_row(), 1..120),
        keep in prop::collection::vec(any::<bool>(), 5..6),
        picks in prop::collection::vec(any::<bool>(), 120..121),
        window in (0usize..120, 0usize..120),
    ) {
        let seg = Segment::seal(&profile_schema(), &rows);
        // Any increasing column list, the empty one included.
        let cols: Vec<usize> = (0..5).filter(|&c| keep[c]).collect();
        let schema = Arc::new(profile_schema().project(&cols));
        let lanes = || cols.iter().map(|&c| seg.columns()[c].lane().clone()).collect();
        let (lo, hi) = (window.0.min(window.1) % rows.len(), window.0.max(window.1) % (rows.len() + 1));
        let ordinals: Vec<usize> = (0..rows.len()).filter(|&i| picks[i]).collect();
        for (sel, selected) in [
            (Selection::Window(lo..hi.max(lo)), (lo..hi.max(lo)).collect::<Vec<_>>()),
            (Selection::Rows(ordinals.clone()), ordinals),
        ] {
            let expect: Vec<Row> = selected.iter().map(|&i| seg.row(i).project(&cols)).collect();
            let batch = RowBatch::from_lanes(schema.clone(), lanes(), sel);
            prop_assert_eq!(batch.len(), expect.len());
            prop_assert_eq!(batch.is_empty(), expect.is_empty());
            prop_assert!(!batch.is_materialized(), "counting builds nothing");
            prop_assert_eq!(batch.clone().into_rows(), expect.clone());
            prop_assert_eq!(batch.rows(), &expect[..]);
            prop_assert_eq!(batch.into_parts().1, expect);
        }
    }

    #[test]
    fn table_profile_matches_snapshot_oracle(
        steps in prop::collection::vec(arb_profile_step(), 1..40),
        segment_rows in prop_oneof![Just(1usize), Just(3), Just(7), Just(16)],
    ) {
        let table = Table::with_segment_rows("t", profile_schema(), segment_rows).unwrap();
        let mut sealed_lens: Vec<usize> = Vec::new();
        let mut tail = 0usize;
        for step in steps {
            let added = match step {
                ProfileStep::Insert(row) => {
                    table.insert(row).unwrap();
                    1
                }
                ProfileStep::InsertAll(rows) => {
                    let n = rows.len();
                    table.insert_all(rows).unwrap();
                    n
                }
                ProfileStep::Rejected(mut rows, at, short) => {
                    let at = at % rows.len();
                    rows[at] = if short {
                        Row::new(vec![Value::Int(1)])
                    } else {
                        // STR in the INT column.
                        let mut values = rows[at].values().to_vec();
                        values[0] = Value::from("not an int");
                        Row::new(values)
                    };
                    let before = stats_from_table(&table);
                    prop_assert_eq!(table.insert_all(rows).unwrap_err().kind(), "type");
                    let after = stats_from_table(&table);
                    prop_assert_eq!(after.rows, before.rows);
                    prop_assert_eq!(after.row_bytes, before.row_bytes);
                    prop_assert_eq!(&after.col_bytes, &before.col_bytes);
                    prop_assert!(Arc::ptr_eq(&after.segments, &before.segments));
                    0
                }
                ProfileStep::SealTail => {
                    table.seal_tail();
                    if tail > 0 {
                        sealed_lens.push(tail);
                        tail = 0;
                    }
                    0
                }
            };
            tail += added;
            while tail >= segment_rows {
                sealed_lens.push(segment_rows);
                tail -= segment_rows;
            }
            assert_stats_match_oracle(&table, &stats_from_table(&table), &sealed_lens);
        }
    }

    #[test]
    fn zone_maps_read_off_the_lanes_equal_the_value_walk(
        rows in prop::collection::vec(arb_tail_row(), 1..120),
        // Per column: leave it, or make it all NULL. And whether the FLOAT
        // column keeps its stray INTs (a `Values` lane) or not (a FLOAT one).
        blank in prop::collection::vec(0usize..6, 5..6),
        pure_float in any::<bool>(),
    ) {
        let rows: Vec<Row> = rows
            .into_iter()
            .map(|r| {
                let mut values = r.into_values();
                for (c, v) in values.iter_mut().enumerate() {
                    if blank[c] == 0 {
                        *v = Value::Null;
                    } else if c == 1 && pure_float {
                        if let Value::Int(i) = v {
                            *v = Value::Float(*i as f64);
                        }
                    }
                }
                Row::new(values)
            })
            .collect();
        assert_zones_match_walk(&profile_schema(), &rows);
    }

    #[test]
    fn spilling_aggregate_matches_in_memory_aggregate(
        rows in prop::collection::vec(arb_scan_row(), 0..200),
    ) {
        let schema = scan_schema();
        let aggs = || vec![
            AggSpec::new(AggFunc::Count, None, "n"),
            AggSpec::new(AggFunc::Sum, Some(col(0)), "si"),
            AggSpec::new(AggFunc::Min, Some(col(2)), "ms"),
        ];
        let src = || Box::new(RowsOp::new(schema.clone(), rows.clone()));

        let mut plain = HashAggregate::new(src(), vec![2, 3], aggs());
        let reference = collect(&mut plain);

        let tracker = MemoryTracker::new(0); // spill on every batch boundary
        let mut spilling =
            HashAggregate::new(src(), vec![2, 3], aggs()).with_memory(tracker);
        let spilled = collect(&mut spilling);

        match (reference, spilled) {
            (Ok(a), Ok(b)) => {
                let mut a: Vec<String> = a.iter().map(|r| format!("{r}")).collect();
                let mut b: Vec<String> = b.iter().map(|r| format!("{r}")).collect();
                a.sort();
                b.sort();
                prop_assert_eq!(a, b);
                if !rows.is_empty() {
                    prop_assert!(spilling.spill_events() > 0, "budget 0 must force a spill");
                }
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.kind(), b.kind()),
            (a, b) => panic!("one engine errored, the other did not: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn grace_join_matches_in_memory_join(
        left in prop::collection::vec(arb_scan_row(), 0..150),
        right in prop::collection::vec(arb_scan_row(), 0..150),
    ) {
        let schema = scan_schema();
        let mk = |rows: &[Row]| Box::new(RowsOp::new(schema.clone(), rows.to_vec()));

        let mut plain = HashJoin::new(mk(&left), mk(&right), vec![0], vec![0]);
        let reference = collect(&mut plain).unwrap();

        let tracker = MemoryTracker::new(0);
        let mut grace =
            HashJoin::new(mk(&left), mk(&right), vec![0], vec![0]).with_memory(tracker);
        let spilled = collect(&mut grace).unwrap();

        let mut a: Vec<String> = reference.iter().map(|r| format!("{r}")).collect();
        let mut b: Vec<String> = spilled.iter().map(|r| format!("{r}")).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
        if !right.is_empty() {
            prop_assert!(grace.spill_events() > 0, "budget 0 must force a grace spill");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Inserts (one row, or a batch of up to 300) interleaved with scans
    // under random specs — complete, incomplete, with NULL, NaN and
    // cross-type literals — at two segment sizes: every scan seals what was
    // inserted since the last one into the tail's runs, and after each the
    // rows, their order, the errors and the statistics are the table's.
    #[test]
    fn tail_runs_hold_the_inserted_rows_through_any_interleaving_of_scans(
        steps in prop::collection::vec(arb_tail_step(), 1..16),
        segment_rows in prop_oneof![Just(16usize), Just(64)],
    ) {
        let table = Arc::new(Table::with_segment_rows("t", profile_schema(), segment_rows).unwrap());
        let twin = Table::with_segment_rows("twin", profile_schema(), segment_rows).unwrap();
        for step in steps {
            match step {
                TailStep::Insert(rows) => {
                    if let [row] = &rows[..] {
                        table.insert(row.clone()).unwrap();
                    } else {
                        table.insert_all(rows.clone()).unwrap();
                    }
                    twin.insert_all(rows).unwrap();
                }
                TailStep::Scan(pred) => {
                    // The spec'd scan comes first, so it is the one that
                    // seals: every row it saw was read once, as a full
                    // segment's, a pruned run's, or a scanned run's.
                    let spec = FilterSpec::from_phys(&pred);
                    let mut scan = ColumnarScan::new(&table, "t", spec.as_ref()).unwrap();
                    let emitted = collect(&mut scan).unwrap().len();
                    let s = scan.scan_stats();
                    prop_assert_eq!(s.segments_total * segment_rows + s.tail_rows, table.len());
                    prop_assert_eq!(
                        emitted + s.rows_filtered + s.segments_pruned * segment_rows,
                        table.len()
                    );
                    assert_scan_drops_only_rejected_rows(&table, &pred);
                    assert_filter_outcome_preserved(&table, &pred);
                    let mut all = ColumnarScan::new(&table, "t", None).unwrap();
                    prop_assert_eq!(collect(&mut all).unwrap(), table.snapshot());
                    prop_assert_eq!(all.scan_stats().rows_filtered, 0);
                }
            }
            prop_assert_eq!(table.snapshot(), twin.snapshot());
            prop_assert_eq!(format!("{:?}", table.profile()), format!("{:?}", twin.profile()));
            prop_assert_eq!(table.prune_stats(None), twin.prune_stats(None));
        }
    }
}

/// Deterministic edge cases the strategies only hit probabilistically.
mod pinned {
    use super::*;

    fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
        rows.sort_by_key(|r| format!("{r}"));
        rows
    }

    /// The FLOAT cases a zone map can get wrong, each against the walk: the
    /// first of `-0.0`/`0.0` is the bound, NaN beside another value leaves
    /// the column unordered (a lone NaN is its own bound, as it was), and an
    /// all-NULL column has no bounds but is not unordered.
    #[test]
    fn zone_maps_of_float_lanes_keep_the_walks_edge_cases() {
        let schema = Schema::new(vec![Field::new("f", DataType::Float)]);
        let (nan, f) = (Value::Float(f64::NAN), Value::Float);
        for column in [
            vec![f(-0.0), f(0.0), f(-0.0)],
            vec![f(0.0), f(-0.0)],
            vec![f(1.0), nan.clone(), f(2.0)],
            vec![nan.clone(), f(1.0)],
            vec![nan.clone(), Value::Null],
            vec![Value::Null, Value::Null],
            vec![Value::Int(0), f(-0.0), f(0.0)],
            vec![Value::Int(1), f(2.0), nan.clone()],
        ] {
            let rows: Vec<Row> = column.into_iter().map(|v| Row::new(vec![v])).collect();
            assert_zones_match_walk(&schema, &rows);
        }
        let zone = |column: Vec<Value>| {
            let rows: Vec<Row> = column.into_iter().map(|v| Row::new(vec![v])).collect();
            Segment::seal(&schema, &rows).zones().remove(0)
        };
        let z = zone(vec![f(-0.0), f(0.0)]);
        assert_eq!(z.bounds, Some((f(-0.0), f(-0.0))));
        let z = zone(vec![f(1.0), nan.clone()]);
        assert!(z.unordered && z.bounds.is_none());
        let z = zone(vec![Value::Null, Value::Null]);
        assert!(!z.unordered && z.bounds.is_none() && z.all_null());
    }

    #[test]
    fn all_null_column_prunes_comparisons_but_survives_not_null_filters() {
        let rows: Vec<Row> = (0..64)
            .map(|i| {
                Row::new(vec![
                    Value::Null,
                    Value::Float(i as f64),
                    Value::Null,
                    Value::Null,
                ])
            })
            .collect();
        // `i > 5` is UNKNOWN on every row of an all-NULL column: zero rows
        // either way, and with the complete-spec rule every segment prunes.
        let pred = bin(col(0), BinaryOp::Gt, lit(Value::Int(5)));
        assert_scan_equivalent(&rows, 16, &pred);

        let table = build_table(&rows, 16);
        let spec = FilterSpec::from_phys(&pred).unwrap();
        let stats = table.prune_stats(Some(&spec));
        assert_eq!(
            stats.segments_pruned, stats.segments_total,
            "all-NULL column must prune every sealed segment"
        );
    }

    #[test]
    fn constant_column_prunes_inequality_and_keeps_equality() {
        let rows: Vec<Row> = (0..64)
            .map(|i| {
                Row::new(vec![
                    Value::Int(42),
                    Value::Float(i as f64),
                    Value::Null,
                    Value::Null,
                ])
            })
            .collect();
        for (pred, expect_rows) in [
            (bin(col(0), BinaryOp::NotEq, lit(Value::Int(42))), 0usize),
            (bin(col(0), BinaryOp::Eq, lit(Value::Int(42))), 64),
            (bin(col(0), BinaryOp::Eq, lit(Value::Int(41))), 0),
        ] {
            assert_scan_equivalent(&rows, 16, &pred);
            let table = build_table(&rows, 16);
            let spec = FilterSpec::from_phys(&pred);
            let scan = ColumnarScan::new(&table, "t", spec.as_ref()).unwrap();
            let got = collect(&mut Filter::new(Box::new(scan), pred.clone())).unwrap();
            assert_eq!(got.len(), expect_rows);
        }
    }

    /// An erroring conjunct after a selective one: the scan drops the rows
    /// the selective conjunct rejects — the filter would never have reached
    /// the erroring one on them — and the filter above still raises on the
    /// first row that gets past it. The FLOAT column holds `Float`s up to
    /// that row and an `Int` in it, so the message names the row.
    #[test]
    fn erroring_conjunct_after_a_selective_one_raises_on_the_same_row() {
        let rows: Vec<Row> = (0..40)
            .map(|i| {
                let f = if i == 31 {
                    Value::Int(3)
                } else {
                    Value::Float(i as f64)
                };
                Row::new(vec![
                    Value::Int(i),
                    f,
                    Value::from("s"),
                    Value::Null,
                    Value::Null,
                ])
            })
            .collect();
        let pred = and_chain(vec![
            bin(col(0), BinaryOp::Gt, lit(Value::Int(30))),
            bin(col(1), BinaryOp::Gt, lit(Value::from("a"))),
        ]);
        for (segment_rows, seal_tail) in [(64, false), (64, true), (7, false), (7, true)] {
            let table = filter_table(&rows, segment_rows, seal_tail);
            assert_scan_drops_only_rejected_rows(&table, &pred);
            assert_filter_outcome_preserved(&table, &pred);

            let spec = FilterSpec::from_phys(&pred).unwrap();
            let mut scan = ColumnarScan::new(&table, "t", Some(&spec)).unwrap();
            let alone = collect(&mut scan).unwrap();
            assert_eq!(alone, rows[31..].to_vec(), "only `i > 30` rows are decoded");
            let stats = scan.scan_stats();
            assert_eq!(
                stats.rows_filtered + stats.segments_pruned * segment_rows,
                31
            );

            let err = collect(&mut Filter::new(
                Box::new(scan_of(&table, &spec)),
                pred.clone(),
            ))
            .unwrap_err();
            assert_eq!(err.kind(), "type");
            assert!(err.to_string().contains("Int"), "row 31 raises: {err}");
        }

        fn scan_of(table: &Arc<Table>, spec: &FilterSpec) -> ColumnarScan {
            ColumnarScan::new(table, "t", Some(spec)).unwrap()
        }
    }

    /// A scan racing an inserter sees the matches among the first `n` rows
    /// for some `n` — each once, none skipped — whether they sat in a full
    /// segment, in a run, or had just been sealed into one; and two scans
    /// racing each other, where one's seal rewrites the runs the other may
    /// be about to read, each see such a prefix.
    #[test]
    fn tail_filter_under_a_concurrent_inserter_neither_misses_nor_repeats_a_match() {
        const SEGMENT_ROWS: usize = 64;
        const ROWS: i64 = 20_000;
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ]);
        let table = Arc::new(Table::with_segment_rows("t", schema, SEGMENT_ROWS).unwrap());
        let start = std::sync::Barrier::new(3);
        let done = std::sync::atomic::AtomicBool::new(false);
        // `b = 3` keeps every tenth row; every full segment spans b in 0..10,
        // so no full segment is pruned (a short run may be: its rows count
        // as filtered) and every row is accounted for.
        let spec = FilterSpec::from_phys(&bin(col(1), BinaryOp::Eq, lit(Value::Int(3)))).unwrap();

        // Returns how many rows the scan's snapshot held.
        let check = || {
            let mut scan = ColumnarScan::new(&table, "t", Some(&spec)).unwrap();
            let matches = collect(&mut scan).unwrap();
            let stats = scan.scan_stats();
            assert_eq!(stats.segments_pruned, 0);
            assert!(stats.tail_rows < SEGMENT_ROWS);
            let seen = matches.len() + stats.rows_filtered;
            assert_eq!(seen, stats.segments_total * SEGMENT_ROWS + stats.tail_rows);
            let expect: Vec<Row> = (0..seen as i64)
                .filter(|a| a % 10 == 3)
                .map(|a| Row::new(vec![Value::Int(a), Value::Int(3)]))
                .collect();
            assert_eq!(matches, expect, "matches among the first {seen} rows");
            seen
        };

        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                let mut a = 0;
                while a < ROWS {
                    let row = |a: i64| Row::new(vec![Value::Int(a), Value::Int(a % 10)]);
                    if a % 7 == 0 {
                        table
                            .insert_all(vec![row(a), row(a + 1), row(a + 2)])
                            .unwrap();
                        a += 3;
                    } else {
                        table.insert(row(a)).unwrap();
                        a += 1;
                    }
                }
                done.store(true, std::sync::atomic::Ordering::SeqCst);
            });
            let scanner = || {
                start.wait();
                let mut last = 0;
                while !done.load(std::sync::atomic::Ordering::SeqCst) {
                    let seen = check();
                    assert!(seen >= last, "a later scan sees no fewer rows");
                    last = seen;
                }
            };
            scope.spawn(scanner);
            scanner();
        });
        assert_eq!(check(), table.len());
    }

    /// End to end through lowering: plans whose scans are narrowed to the
    /// columns they read (none at all for `count(*)`, different ones for the
    /// two aliases of a self-join, the predicate's column though it is not
    /// selected), HAVING over either aggregate placement, answer what plain
    /// Rust over the table's snapshot answers. The simulated link runs the
    /// same operator tree, so it answers the same rows in the same order.
    #[test]
    fn narrowed_plans_answer_what_the_snapshot_backend_answers() {
        let db = Database::new(NetworkSpec::lan());
        let t = Table::with_segment_rows(
            "T",
            Schema::new(vec![
                Field::new("Id", DataType::Int),
                Field::new("Grp", DataType::Int),
                Field::new("Sym", DataType::Str),
                Field::new("Val", DataType::Int),
            ]),
            16,
        )
        .unwrap();
        t.insert_all(
            (0..200i64)
                .map(|i| {
                    Row::new(vec![
                        Value::Int(i),
                        Value::Int(i % 8),
                        Value::from(format!("S{}", i % 5)),
                        if i % 11 == 0 {
                            Value::Null
                        } else {
                            Value::Int((i * 37) % 100)
                        },
                    ])
                })
                .collect(),
        )
        .unwrap();
        let t = db.catalog().register(t).unwrap();
        assert!(
            t.segment_count() > 0 && t.len() > t.segment_count() * 16,
            "sealed + tail"
        );
        let snapshot = t.snapshot();

        // The reference: `Val` is NULL on every eleventh row, and a
        // comparison with NULL holds for no row.
        fn val(r: &Row) -> Option<i64> {
            r.value(3).as_i64().ok()
        }
        fn count_of(n: usize) -> Value {
            Value::Int(n as i64)
        }
        fn sum_by_grp(rows: &[Row]) -> Vec<Row> {
            let mut sums = std::collections::BTreeMap::<i64, Option<i64>>::new();
            for r in rows {
                let sum = sums.entry(r.value(1).as_i64().unwrap()).or_default();
                if let Some(v) = val(r) {
                    *sum = Some(sum.unwrap_or(0) + v);
                }
            }
            sums.into_iter()
                .map(|(g, s)| Row::new(vec![Value::Int(g), s.map_or(Value::Null, Value::Int)]))
                .collect()
        }
        type Reference = fn(&[Row]) -> Vec<Row>;
        let statements: [(&str, usize, Reference); 9] = [
            ("SELECT count(*) FROM T", 1, |rows| {
                vec![Row::new(vec![count_of(rows.len())])]
            }),
            ("SELECT count(*) FROM T WHERE T.Val > 89", 1, |rows| {
                let n = rows.iter().filter(|r| val(r) > Some(89)).count();
                vec![Row::new(vec![count_of(n)])]
            }),
            (
                "SELECT A.Id, B.Sym FROM T A, T B WHERE A.Id = B.Grp AND A.Val > 40",
                2,
                |rows| {
                    let mut out = Vec::new();
                    for a in rows.iter().filter(|a| val(a) > Some(40)) {
                        for b in rows.iter().filter(|b| b.value(1) == a.value(0)) {
                            out.push(Row::new(vec![a.value(0).clone(), b.value(2).clone()]));
                        }
                    }
                    out
                },
            ),
            ("SELECT T.Id FROM T WHERE T.Val > 50", 1, |rows| {
                rows.iter()
                    .filter(|r| val(r) > Some(50))
                    .map(|r| Row::new(vec![r.value(0).clone()]))
                    .collect()
            }),
            (
                "SELECT T.Grp, sum(T.Val) FROM T GROUP BY T.Grp",
                2,
                sum_by_grp,
            ),
            (
                "SELECT T.Grp, sum(T.Val) FROM T GROUP BY T.Grp HAVING sum(T.Val) > 1140",
                2,
                |rows| {
                    let mut out = sum_by_grp(rows);
                    out.retain(|r| r.value(1).as_i64().is_ok_and(|s| s > 1140));
                    out
                },
            ),
            (
                "SELECT T.Sym, count(*) FROM T WHERE T.Val > 20 GROUP BY T.Sym",
                2,
                |rows| {
                    let mut counts = std::collections::BTreeMap::<&str, usize>::new();
                    for r in rows.iter().filter(|r| val(r) > Some(20)) {
                        *counts.entry(r.value(2).as_str().unwrap()).or_default() += 1;
                    }
                    counts
                        .into_iter()
                        .map(|(sym, n)| Row::new(vec![Value::from(sym), count_of(n)]))
                        .collect()
                },
            ),
            (
                "SELECT * FROM T WHERE T.Val > 50 AND T.Sym <> 'S1'",
                4,
                |rows| {
                    rows.iter()
                        .filter(|r| val(r) > Some(50) && r.value(2).as_str().unwrap() != "S1")
                        .cloned()
                        .collect()
                },
            ),
            ("SELECT * FROM T", 4, <[Row]>::to_vec),
        ];
        let explain = db
            .explain("SELECT T.Sym, count(*) FROM T WHERE T.Val > 20 GROUP BY T.Sym")
            .unwrap();
        assert!(explain.contains("Aggregate [server-partial]"), "{explain}");

        for (sql, width, reference) in statements {
            let threaded = db.execute(sql).unwrap();
            assert_eq!(threaded.schema.len(), width, "{sql}");
            let expected = reference(&snapshot);
            assert!(!expected.is_empty(), "{sql}");
            assert_eq!(sorted(threaded.rows.clone()), sorted(expected), "{sql}");
            let (simulated, _) = db.execute_simulated(sql).unwrap();
            assert_eq!(threaded.schema, simulated.schema, "{sql}");
            assert_eq!(threaded.rows, simulated.rows, "{sql}");
        }
        let count = db.execute("SELECT count(*) FROM T").unwrap();
        assert_eq!(count.rows[0].value(0), &Value::Int(200));
    }

    /// The paper's two shipping strategies over a scan: rows agree with the
    /// simulated backend, and the payload the simulated link carries is what
    /// it carried before scans filtered rows or pruned columns, and before
    /// the plan chose how many tuples share a message — the scans under an
    /// `ApplyUdf` are not narrowed, so the client-site join still ships the
    /// whole record. The threaded side of that is pinned where its operator
    /// tree can be seen, in `csq_core`'s `lower` tests.
    #[test]
    fn shipping_plans_move_the_bytes_they_moved_before() {
        use csq_client::synthetic::RatingUdf;
        use csq_opt::context::UdfMeta;

        let semijoin = "SELECT S.Name, S.Report FROM StockQuotes S \
                        WHERE S.Change / S.Close > 0.2 AND ClientAnalysis(S.Quotes) > 500";
        let clientjoin = "SELECT S.Name, S.Quotes FROM StockQuotes S \
                          WHERE S.Change / S.Close > 0.2 AND ClientAnalysis(S.Quotes) > 500";
        let stock_db = |net: NetworkSpec| {
            let db = Database::new(net);
            let t = Table::with_segment_rows(
                "StockQuotes",
                Schema::new(vec![
                    Field::new("Name", DataType::Str),
                    Field::new("Change", DataType::Float),
                    Field::new("Close", DataType::Float),
                    Field::new("Quotes", DataType::Blob),
                    Field::new("Report", DataType::Blob),
                ]),
                32,
            )
            .unwrap();
            t.insert_all(
                (0..2_000u64)
                    .map(|i| {
                        Row::new(vec![
                            Value::from(format!("company{i}")),
                            Value::Float((i % 40) as f64),
                            Value::Float(100.0),
                            Value::Blob(Blob::synthetic(1_000, i % 500)),
                            Value::Blob(Blob::synthetic(200, 1_000 + i)),
                        ])
                    })
                    .collect(),
            )
            .unwrap();
            // 2 000 rows: below that the optimizer keeps the semi-join even
            // on the asymmetric link.
            db.catalog().register(t).unwrap();
            db.register_udf(Arc::new(RatingUdf::new("ClientAnalysis", 1000)))
                .unwrap();
            db
        };
        let semi_db = stock_db(NetworkSpec::modem_28_8());
        let join_db = stock_db(NetworkSpec::cable_asymmetric());
        join_db.advertise_udf(
            UdfMeta::client("ClientAnalysis", vec![DataType::Blob], DataType::Int)
                .with_result_bytes(20_000.0)
                .with_selectivity(0.01),
        );

        for (db, sql, marker, before, now) in [
            (&semi_db, semijoin, "[semi-join", SEMIJOIN_BEFORE, SEMIJOIN),
            (
                &join_db,
                clientjoin,
                "[client-site join",
                CLIENTJOIN_BEFORE,
                CLIENTJOIN,
            ),
        ] {
            let plan = db.explain(sql).unwrap();
            assert!(plan.contains(marker), "{plan}");
            let threaded = db.execute(sql).unwrap();
            let (simulated, sim) = db.execute_simulated(sql).unwrap();
            assert!(!threaded.rows.is_empty());
            assert_eq!(sorted(threaded.rows), sorted(simulated.rows), "{sql}");
            let ran = Shipped {
                down_bytes: sim.down_bytes,
                up_bytes: sim.up_bytes,
                down_messages: sim.down_messages,
                up_messages: sim.up_messages,
            };
            // Payload bytes do not move: a link carries fewer bytes than at
            // one tuple per message by exactly the headers of the messages
            // it no longer sends.
            assert_eq!(
                before.down_bytes - ran.down_bytes,
                BATCH_HEADER_BYTES * (before.down_messages - ran.down_messages),
                "{marker}: {ran:?}"
            );
            assert_eq!(
                before.up_bytes - ran.up_bytes,
                BATCH_HEADER_BYTES * (before.up_messages - ran.up_messages),
                "{marker}: {ran:?}"
            );
            assert_eq!(ran, now, "{marker}");
        }
    }

    /// What the simulated links carried for one shipping query.
    #[derive(Debug, PartialEq)]
    struct Shipped {
        down_bytes: u64,
        up_bytes: u64,
        down_messages: u64,
        up_messages: u64,
    }

    /// A batch message is a tag byte and a 4-byte row count ahead of its rows.
    const BATCH_HEADER_BYTES: u64 = 5;

    /// The two shipping queries above at one tuple per message — the bytes are
    /// the constants committed before the plan chose tuples-per-message. 950
    /// rows pass the server predicate and carry 475 distinct `Quotes`: the
    /// semi-join sent one message per distinct argument and the client-site
    /// join one per record, each answered by one; install, finish and the
    /// final delivery are the other three on the downlink.
    const SEMIJOIN_BEFORE: Shipped = Shipped {
        down_bytes: 591_684,
        up_bytes: 8_550,
        down_messages: 475 + 3,
        up_messages: 475,
    };
    const CLIENTJOIN_BEFORE: Shipped = Shipped {
        down_bytes: 1_691_880,
        up_bytes: 620_412,
        down_messages: 950 + 3,
        up_messages: 950,
    };

    /// The same at the plan's parameters.
    const SEMIJOIN: Shipped = Shipped {
        down_bytes: 589_349,
        up_bytes: 6_215,
        down_messages: 8 + 3,
        up_messages: 8,
    };
    const CLIENTJOIN: Shipped = Shipped {
        down_bytes: 1_687_265,
        up_bytes: 615_797,
        down_messages: 27 + 3,
        up_messages: 27,
    };

    /// Statistics are read under one lock acquisition, so a reader racing a
    /// writer never sees a zone list from one instant and a row count from
    /// another (the pre-profile pass locked twice, and a seal in between
    /// gave it more profiled rows than rows).
    #[test]
    fn statistics_read_is_never_torn_by_a_concurrent_inserter() {
        const SEGMENT_ROWS: usize = 8;
        const ROWS: usize = 20_000;
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ]);
        let table = Table::with_segment_rows("t", schema, SEGMENT_ROWS).unwrap();
        let start = std::sync::Barrier::new(2);
        let done = std::sync::atomic::AtomicBool::new(false);

        let check = |s: &TableStats| {
            let profiled: usize = s.segments.iter().map(|z| z.rows).sum();
            let rows = s.rows as usize;
            assert!(profiled <= rows, "{profiled} profiled rows of {rows}");
            assert!(
                rows - profiled < SEGMENT_ROWS,
                "tail of {}",
                rows - profiled
            );
            assert!(s.segments.iter().all(|z| z.rows == SEGMENT_ROWS));
            // Every value is a 9-byte INT, so byte sums taken at the same
            // instant as the row count average to exactly 9 per column.
            if rows > 0 {
                assert_eq!(s.col_bytes, vec![9.0, 9.0]);
                assert_eq!(s.row_bytes, 18.0);
            }
            let col_total: f64 = s.col_bytes.iter().map(|c| (c * s.rows).round()).sum();
            assert_eq!(col_total, (s.row_bytes * s.rows).round());
        };

        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for i in 0..ROWS as i64 {
                    let row = Row::new(vec![Value::Int(i), Value::Int(-i)]);
                    if i % 5 == 0 {
                        table.insert_all(vec![row.clone(), row]).unwrap();
                    } else {
                        table.insert(row).unwrap();
                    }
                }
                done.store(true, std::sync::atomic::Ordering::SeqCst);
            });
            start.wait();
            while !done.load(std::sync::atomic::Ordering::SeqCst) {
                check(&stats_from_table(&table));
            }
        });

        let last = stats_from_table(&table);
        check(&last);
        assert_eq!(last.rows as usize, ROWS + ROWS / 5);
        table.seal_tail();
        let sealed = stats_from_table(&table);
        let profiled: usize = sealed.segments.iter().map(|z| z.rows).sum();
        assert_eq!(
            profiled, sealed.rows as usize,
            "seal_tail profiles every row"
        );
    }

    /// The acceptance workload: an aggregation whose state exceeds a 64 MiB
    /// budget must complete by spilling and still match an independently
    /// computed answer exactly.
    #[test]
    fn forced_spill_aggregate_at_64mib_budget_is_oracle_exact() {
        const GROUPS: usize = 70_000;
        let schema = Schema::new(vec![
            Field::new("k", DataType::Str),
            Field::new("v", DataType::Int),
        ]);
        // ~1 KiB keys x 70k distinct groups ≈ 76 MB of tracked state.
        let rows: Vec<Row> = (0..GROUPS)
            .map(|i| {
                Row::new(vec![
                    Value::from(format!("{i:0>1024}")),
                    Value::Int(i as i64),
                ])
            })
            .collect();

        let tracker = MemoryTracker::new(64 * 1024 * 1024);
        let mut agg = HashAggregate::new(
            Box::new(RowsOp::new(schema, rows)),
            vec![0],
            vec![
                AggSpec::new(AggFunc::Sum, Some(col(1)), "s"),
                AggSpec::new(AggFunc::Count, None, "n"),
            ],
        )
        .with_memory(tracker.clone());
        let out = collect(&mut agg).unwrap();

        assert!(
            agg.spill_events() > 0,
            "workload must exceed the 64 MiB budget"
        );
        assert!(tracker.spill_count() > 0);
        assert_eq!(out.len(), GROUPS);
        for r in &out {
            let Value::Str(k) = r.value(0) else {
                panic!("key column must be a string")
            };
            let i: i64 = k.as_str().trim_start_matches('0').parse().unwrap_or(0);
            assert_eq!(r.value(1), &Value::Int(i), "SUM for group {i}");
            assert_eq!(r.value(2), &Value::Int(1), "COUNT for group {i}");
        }
    }
}
