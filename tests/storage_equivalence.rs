//! Differential oracle for the columnar storage layer (DESIGN.md §11):
//! zone-map pruning and operator spilling are *performance* features, so
//! every path here is checked against an independent reference that never
//! prunes and never spills.
//!
//! * Pruned columnar scans ([`ColumnarScan`] compiled from a [`FilterSpec`])
//!   must return exactly what a row-at-a-time [`Filter`] over the table's
//!   row-vector [`Table::snapshot`] returns — including all-NULL columns,
//!   constant columns, NULL literals, and predicates on unordered (mixed
//!   lane) columns.
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

use csq_common::{Blob, DataType, Field, Row, Schema, Value};
use csq_exec::ops::{ColumnarScan, Filter, RowsOp};
use csq_exec::{collect, AggSpec, HashAggregate, HashJoin, MemoryTracker};
use csq_expr::{AggFunc, BinaryOp, PhysExpr};
use csq_opt::context::{stats_from_table, TableStats};
use csq_storage::{FilterSpec, Segment, Table};

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

/// One pushable conjunct: `column <cmp> literal`, sometimes with a NULL or
/// cross-type literal to exercise the opaque/unknown classifications.
fn arb_conjunct() -> impl Strategy<Value = PhysExpr> {
    let cmp = prop_oneof![
        Just(BinaryOp::Eq),
        Just(BinaryOp::NotEq),
        Just(BinaryOp::Lt),
        Just(BinaryOp::LtEq),
        Just(BinaryOp::Gt),
        Just(BinaryOp::GtEq),
    ];
    let literal = prop_oneof![
        (-20i64..20).prop_map(Value::Int),
        (-20i64..20).prop_map(Value::Int),
        (-20i64..20).prop_map(Value::Int),
        (-8i64..8).prop_map(|i| Value::Float(i as f64 * 0.5)),
        (0usize..4).prop_map(|k| Value::from(["a", "bb", "ccc", "dd"][k])),
        Just(Value::Null),
    ];
    (0usize..4, cmp, literal).prop_map(|(c, op, v)| bin(col(c), op, lit(v)))
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

/// The differential: pruned columnar scan + residual filter versus a
/// row-at-a-time filter over the row-vector snapshot. Errors must agree in
/// kind (cross-type comparisons are type errors on both paths); successes
/// must agree on the exact row sequence, not just the multiset.
fn assert_scan_equivalent(rows: &[Row], segment_rows: usize, pred: &PhysExpr) {
    let table = build_table(rows, segment_rows);
    let spec = FilterSpec::from_phys(pred);

    let scan = ColumnarScan::new(&table, "t", spec.as_ref()).unwrap();
    let columnar = collect(&mut Filter::new(Box::new(scan), pred.clone()));

    let oracle_src = RowsOp::new(scan_schema().qualify("t"), table.snapshot());
    let oracle = collect(&mut Filter::new(Box::new(oracle_src), pred.clone()));

    match (columnar, oracle) {
        (Ok(c), Ok(o)) => assert_eq!(c, o, "pruned scan diverged from snapshot oracle"),
        (Err(c), Err(o)) => assert_eq!(c.kind(), o.kind(), "error kinds diverged"),
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

/// Deterministic edge cases the strategies only hit probabilistically.
mod pinned {
    use super::*;

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
