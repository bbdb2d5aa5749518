//! Columnar storage workloads: zone-map pruning and operator spilling,
//! writing `results/BENCH_storage.json`.
//!
//! Three workloads bracket the storage layer's performance claims
//! (DESIGN.md §11):
//!
//! * `selective_scan` — a clustered integer key scanned with a ~10%-match
//!   range predicate: the `pruned` variant compiles the predicate to a
//!   [`FilterSpec`] so the scan skips whole segments by zone map; the
//!   `full_scan` variant runs the identical plan with no spec. The gated
//!   number is the within-process wall ratio (`speedup`),
//!   hardware-normalized by construction, with a hard acceptance floor of
//!   1.5x. The `unprunable` variant keeps ~10% by the *unclustered* `v`
//!   column instead: every segment spans its whole range, zone maps prune
//!   nothing, and its reference is the same `Filter` over the table's rows
//!   as rows, so the ratio is the lane filter against the row filter. Every
//!   variant is timed by draining its `Filter` and counting each batch's
//!   `len()`, so none of them pays for rows the filter left unbuilt.
//! * `scan_aggregate` — a low-cardinality INT key grouped with `count(*)`
//!   and `sum` over the sealed table: the `lanes` variant aggregates the
//!   [`ColumnarScan`]'s lane batches (no row is built), the `rows` variant
//!   the same rows handed over as a [`RowsOp`] of the snapshot. The ratio is
//!   what building a `Vec<Value>` per row, and grouping and accumulating a
//!   `Value` at a time, cost (DESIGN.md §2, §7).
//! * `aggregate_spill` — high-cardinality grouped aggregation once with an
//!   unlimited [`MemoryTracker`] and once under a budget ~1/4 of its
//!   working set, forcing partition spills through the temp-file path.
//!   The ratio tracks the cost of degrading instead of OOMing; it gates
//!   only against its own baseline (no floor — spilling is allowed to be
//!   slower, just not regress).
//!
//! Wall rows/sec gates only between comparable hosts, probed by each
//! workload's reference variant (the entry's `reference`), like the other
//! benches.

use std::sync::Arc;
use std::time::Instant;

use csq_common::{DataType, Field, Row, Schema, Value};
use csq_exec::ops::{ColumnarScan, Filter, RowsOp};
use csq_exec::{collect, AggSpec, HashAggregate, MemoryTracker, Operator};
use csq_expr::{AggFunc, BinaryOp, PhysExpr};
use csq_storage::{FilterSpec, Table};

use crate::cli::BenchCli;
use crate::gate::{Bound, Entry, Gate, Metric};

/// Acceptance floor for the pruned selective scan (ROADMAP PR 8).
pub const PRUNED_SPEEDUP_FLOOR: f64 = 1.5;

/// The results file and gate of this bench, over `<workload>/<variant>`
/// points: every wall ratio gates against its baseline (forced_spill has no
/// floor — spilling may be slower, it may not regress), the pruned scan's
/// also against the hard floor.
pub const GATE: Gate = Gate {
    name: "storage",
    note: "reference = rows/sec of the workload's reference variant (full_scan / the unprunable \
           predicate over rows / the aggregate over rows / in_memory); speedup = the within-process wall ratio against it, so it is hardware-normalized; \
           the pruned selective scan must also clear a hard 1.5x floor",
    tolerance: 0.25,
    multi_core: false,
    metrics: &[
        Metric {
            floor: Some(("selective_scan/pruned", PRUNED_SPEEDUP_FLOOR)),
            ..Metric::ratio("speedup")
        },
        Metric::absolute("rows_per_sec", Bound::Min),
    ],
};

/// The `storage` binary.
pub const CLI: BenchCli = BenchCli { gate: &GATE, run };

/// One (workload, variant) point measured in `secs` against the workload's
/// reference variant's `base_secs`.
fn entry(quick: bool, id: &str, rows: usize, base_secs: f64, secs: f64) -> Entry {
    Entry::new(quick, id, rows as f64 / base_secs)
        .with("rows", rows as f64)
        .with("rows_per_sec", rows as f64 / secs)
        .with("speedup", base_secs / secs)
}

const REPS: usize = 5;

fn gt_pred(col: usize, lit: i64) -> PhysExpr {
    PhysExpr::Binary {
        left: Box::new(PhysExpr::Column(col)),
        op: BinaryOp::Gt,
        right: Box::new(PhysExpr::Literal(Value::Int(lit))),
    }
}

fn scan_table(rows: usize) -> Arc<Table> {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Int),
        Field::new("tag", DataType::Str),
    ]);
    let t = Table::new("bench_scan", schema).expect("table");
    // Clustered key: consecutive values land in the same segment, so the
    // range predicate's zone maps disprove ~90% of segments outright.
    t.insert_all(
        (0..rows)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i as i64),
                    Value::Int((i % 997) as i64),
                    Value::from(["aa", "bb", "cc", "dd"][i % 4]),
                ])
            })
            .collect(),
    )
    .expect("insert");
    t.seal_tail();
    Arc::new(t)
}

/// Wall seconds to drain `pred`'s [`Filter`] over `input`, counting the
/// rows it keeps from each batch's `len()`: what the filter leaves unbuilt
/// stays unbuilt, so a variant is charged for the rows it decides, not for
/// rows the bench would build afterwards.
fn timed_filter(input: csq_exec::BoxOp, pred: &PhysExpr) -> f64 {
    let mut op = Filter::new(input, pred.clone());
    let start = Instant::now();
    let mut kept = 0;
    while let Some(batch) = op.next_batch().expect("filter") {
        kept += batch.len();
    }
    let secs = start.elapsed().as_secs_f64();
    assert!(kept > 0, "selective scan must keep some rows");
    secs
}

/// [`timed_filter`] over a scan of `table` opened with `spec`, and the
/// segments the spec pruned.
fn timed_scan(table: &Arc<Table>, pred: &PhysExpr, spec: Option<&FilterSpec>) -> (f64, usize) {
    let scan = ColumnarScan::new(table, "b", spec).expect("scan");
    let pruned = scan.scan_stats().segments_pruned;
    (timed_filter(Box::new(scan), pred), pruned)
}

/// [`timed_filter`] over `table`'s rows as rows: the row path.
fn timed_rows(table: &Arc<Table>, pred: &PhysExpr) -> f64 {
    let rows = RowsOp::new(table.schema().qualify("b"), table.snapshot());
    timed_filter(Box::new(rows), pred)
}

/// Best-of-[`REPS`] wall seconds of `pred` over `table` by `reference` and
/// by a scan opened with its compiled spec, and the segments the spec
/// pruned. Interleaved: both variants sample the same host phases.
fn against_spec(
    table: &Arc<Table>,
    pred: &PhysExpr,
    reference: impl Fn() -> f64,
) -> (f64, f64, usize) {
    let spec = FilterSpec::from_phys(pred).expect("pushable predicate");
    let (mut base_secs, mut spec_secs, mut pruned) = (f64::INFINITY, f64::INFINITY, 0);
    for _ in 0..REPS {
        base_secs = base_secs.min(reference());
        let (p, skipped) = timed_scan(table, pred, Some(&spec));
        spec_secs = spec_secs.min(p);
        pruned = skipped;
    }
    (base_secs, spec_secs, pruned)
}

fn selective_scan(quick: bool, rows: usize) -> Vec<Entry> {
    let table = scan_table(rows);
    let segments = table.prune_stats(None).segments_total as f64;
    let scan = |variant: &str, base_secs: f64, secs: f64, skipped: usize| {
        entry(
            quick,
            &format!("selective_scan/{variant}"),
            rows,
            base_secs,
            secs,
        )
        .with("segments_total", segments)
        .with("segments_pruned", skipped as f64)
    };
    // Keep the top ~10% of the clustered key range against the same scan
    // with no spec, then ~10% by the unclustered column (`v` cycles through
    // 0..997 inside every segment) against the same filter over rows.
    let key = gt_pred(0, (rows as i64 * 9) / 10);
    let (full_secs, pruned_secs, pruned) =
        against_spec(&table, &key, || timed_scan(&table, &key, None).0);
    let v = gt_pred(1, 897);
    let (unfiltered_secs, filtered_secs, none_pruned) =
        against_spec(&table, &v, || timed_rows(&table, &v));
    assert_eq!(none_pruned, 0, "every segment spans v's whole range");
    vec![
        scan("full_scan", full_secs, full_secs, 0),
        scan("pruned", full_secs, pruned_secs, pruned),
        scan("unprunable", unfiltered_secs, filtered_secs, 0),
    ]
}

/// Wall seconds of `GROUP BY` the first column of `input` with `count(*)`
/// and `sum` of the second, which must come to `groups` groups.
fn timed_grouping(input: csq_exec::BoxOp, groups: usize) -> f64 {
    let mut agg = HashAggregate::new(
        input,
        vec![0],
        vec![
            AggSpec::new(AggFunc::Count, None, "n"),
            AggSpec::new(AggFunc::Sum, Some(PhysExpr::Column(1)), "s"),
        ],
    );
    let start = Instant::now();
    let out = collect(&mut agg).expect("aggregate");
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(out.len(), groups);
    secs
}

/// The aggregate over the sealed table's lanes against the same aggregate
/// over the same rows as rows, interleaved best-of-[`REPS`].
fn scan_aggregate(quick: bool, rows: usize) -> Vec<Entry> {
    const GROUPS: usize = 64;
    let schema = Schema::new(vec![
        Field::new("g", DataType::Int),
        Field::new("v", DataType::Int),
    ]);
    let t = Table::new("bench_agg", schema.clone()).expect("table");
    t.insert_all(
        (0..rows)
            .map(|i| {
                Row::new(vec![
                    Value::Int((i % GROUPS) as i64),
                    Value::Int((i % 997) as i64),
                ])
            })
            .collect(),
    )
    .expect("insert");
    t.seal_tail();
    let table = Arc::new(t);
    let (mut row_secs, mut lane_secs) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REPS {
        let as_rows = RowsOp::new(schema.qualify("b"), table.snapshot());
        row_secs = row_secs.min(timed_grouping(Box::new(as_rows), GROUPS));
        let scan = ColumnarScan::new(&table, "b", None).expect("scan");
        lane_secs = lane_secs.min(timed_grouping(Box::new(scan), GROUPS));
    }
    vec![
        entry(quick, "scan_aggregate/rows", rows, row_secs, row_secs),
        entry(quick, "scan_aggregate/lanes", rows, row_secs, lane_secs),
    ]
}

fn spill_rows(rows: usize) -> Vec<Row> {
    (0..rows)
        .map(|i| {
            // Half the rows are key-distinct: a hash table of rows/2 entries
            // with ~64-byte string keys.
            let k = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % (rows as u64 / 2).max(1);
            Row::new(vec![
                Value::from(format!("{k:0>64}")),
                Value::Int((i % 1000) as i64),
            ])
        })
        .collect()
}

fn timed_aggregate(
    schema: &Schema,
    rows: &[Row],
    tracker: Arc<MemoryTracker>,
) -> (f64, usize, usize) {
    let src = Box::new(RowsOp::new(schema.clone(), rows.to_vec()));
    let mut agg = HashAggregate::new(
        src,
        vec![0],
        vec![
            AggSpec::new(AggFunc::Count, None, "n"),
            AggSpec::new(AggFunc::Sum, Some(PhysExpr::Column(1)), "s"),
        ],
    )
    .with_memory(tracker);
    let start = Instant::now();
    let out = collect(&mut agg).expect("aggregate");
    (start.elapsed().as_secs_f64(), out.len(), agg.spill_events())
}

fn aggregate_spill(quick: bool, rows: usize) -> Vec<Entry> {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Str),
        Field::new("v", DataType::Int),
    ]);
    let data = spill_rows(rows);
    // ~1/4 of the working set: tracked state is roughly
    // groups * (key wire size + per-entry overhead).
    let groups = rows / 2;
    let budget = groups * (64 + 8 + 16 * 2 + 48) / 4;

    let (mut mem_secs, mut spill_secs, mut spills) = (f64::INFINITY, f64::INFINITY, 0);
    let mut expected_groups = 0;
    for _ in 0..REPS {
        let (m, n_mem, _) = timed_aggregate(&schema, &data, MemoryTracker::unlimited());
        let (s, n_spill, ev) = timed_aggregate(&schema, &data, MemoryTracker::new(budget));
        assert_eq!(n_mem, n_spill, "spill changed the group count");
        assert!(ev > 0, "budget {budget} failed to force a spill");
        expected_groups = n_mem;
        mem_secs = mem_secs.min(m);
        spill_secs = spill_secs.min(s);
        spills = ev;
    }
    assert!(expected_groups > 0);

    let agg = |variant: &str, secs: f64, ev: usize| {
        entry(
            quick,
            &format!("aggregate_spill/{variant}"),
            rows,
            mem_secs,
            secs,
        )
        .with("spills", ev as f64)
    };
    vec![
        agg("in_memory", mem_secs, 0),
        agg("forced_spill", spill_secs, spills),
    ]
}

/// Run the three workloads.
pub fn run(quick: bool) -> Vec<Entry> {
    let scale = if quick { 10 } else { 1 };
    let mut out = selective_scan(quick, 1_000_000 / scale);
    out.extend(scan_aggregate(quick, 1_000_000 / scale));
    out.extend(aggregate_spill(quick, 200_000 / scale));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::gate::{check_regressions, parse_entries, render_document};

    /// A 1000-row point at `speedup` over a 1M rows/s reference variant.
    fn point(id: &str, speedup: f64) -> Entry {
        entry(true, id, 1000, 1e-3, 1e-3 / speedup)
    }

    #[test]
    fn document_roundtrips() {
        let entries = vec![
            point("selective_scan/pruned", 3.2).with("segments_pruned", 8.0),
            point("aggregate_spill/forced_spill", 0.4).with("spills", 3.0),
        ];
        let parsed = parse_entries(&render_document(&GATE, &entries)).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].id, "selective_scan/pruned");
        assert!((parsed[0].get("speedup").unwrap() - 3.2).abs() < 1e-3);
        assert_eq!(parsed[1].get("spills"), Some(3.0));
    }

    #[test]
    fn pruned_floor_fails_even_with_matching_baseline() {
        let slow = vec![point("selective_scan/pruned", 1.2)];
        // Baseline agrees, but the acceptance floor still fires.
        let failures = check_regressions(&GATE, &slow, &slow);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("1.5 floor"), "{failures:?}");
    }

    #[test]
    fn ratio_regression_fails_against_baseline() {
        let base = vec![point("aggregate_spill/forced_spill", 0.5)];
        let bad = vec![point("aggregate_spill/forced_spill", 0.2)];
        let failures = check_regressions(&GATE, &bad, &base);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(check_regressions(&GATE, &base, &base).is_empty());
    }

    #[test]
    fn quick_run_clears_the_floor_and_spills() {
        let entries = run(true);
        assert_eq!(entries.len(), 7);
        let find = |id: &str| entries.iter().find(|e| e.id == id).expect(id);
        let pruned = find("selective_scan/pruned");
        let ratio = pruned.get("speedup").unwrap();
        assert!(
            ratio >= PRUNED_SPEEDUP_FLOOR,
            "pruned scan ratio {ratio:.2}x under the floor"
        );
        assert!(pruned.get("segments_pruned").unwrap() > 0.0);
        let unprunable = find("selective_scan/unprunable");
        assert_eq!(unprunable.get("segments_pruned"), Some(0.0));
        assert!(
            unprunable.get("speedup").unwrap() > 1.0,
            "filtering on the lanes must beat filtering the same rows as rows"
        );
        assert!(
            find("scan_aggregate/lanes").get("speedup").unwrap() > 1.0,
            "aggregating the lanes must beat building a row per input row"
        );
        assert!(find("aggregate_spill/forced_spill").get("spills").unwrap() > 0.0);
    }
}
