//! Grouped-aggregation workload: the serial [`HashAggregate`] vs. the
//! shipped partial/final split, writing `results/BENCH_aggregate.json`.
//!
//! Two workloads bracket the placement trade-off the optimizer models
//! (DESIGN.md §7):
//!
//! * `high_card` — many groups (rows/10): the aggregation hash table
//!   dominates, partial states barely reduce the wire volume.
//! * `low_card` — 64 groups: the table is tiny and partial aggregation
//!   collapses the shipment to a handful of state rows.
//!
//! Both sides run on the calling thread; `wall_rows_per_sec` is raw wall
//! clock and gates only between comparable hosts.

use std::time::Instant;

use csq_common::{DataType, Field, Row, Schema, Value};
use csq_exec::{collect, AggSpec, BoxOp, HashAggregate, RowsOp};
use csq_expr::{AggFunc, PhysExpr};
use csq_ship::PartialAggSpec;

use crate::cli::BenchCli;
use crate::gate::{Bound, Entry, Gate, Metric};

/// The results file and gate of this bench, over
/// `<workload>/shipped_partial/workers=1` points.
pub const GATE: Gate = Gate {
    name: "aggregate",
    note: "reference = serial single-phase HashAggregate rows/sec; shipped_partial is the \
           partial->wire-codec->final split of the same aggregation; wall_* are raw wall clock, \
           each side its minimum across reps (noise floor)",
    tolerance: 0.25,
    multi_core: false,
    metrics: &[Metric::absolute("wall_rows_per_sec", Bound::Min)],
};

/// The `aggregate` binary.
pub const CLI: BenchCli = BenchCli { gate: &GATE, run };

const REPS: usize = 5;

fn agg_schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Int),
    ])
}

/// Deterministic rows whose key column scatters over `groups` values.
pub fn agg_rows(n: usize, groups: usize) -> Vec<Row> {
    (0..n)
        .map(|i| {
            let k = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % groups as u64;
            Row::new(vec![Value::Int(k as i64), Value::Int((i % 1000) as i64)])
        })
        .collect()
}

fn agg_specs() -> Vec<AggSpec> {
    vec![
        AggSpec::new(AggFunc::Count, None, "cnt"),
        AggSpec::new(AggFunc::Sum, Some(PhysExpr::Column(1)), "sum_v"),
        AggSpec::new(AggFunc::Avg, Some(PhysExpr::Column(1)), "avg_v"),
    ]
}

fn serial_aggregate(schema: &Schema, rows: Vec<Row>) -> Vec<Row> {
    let scan: BoxOp = Box::new(RowsOp::new(schema.clone(), rows));
    let mut agg = HashAggregate::new(scan, vec![0], agg_specs());
    collect(&mut agg).expect("serial aggregate")
}

fn shipped_aggregate(schema: &Schema, rows: Vec<Row>) -> Vec<Row> {
    let scan: BoxOp = Box::new(RowsOp::new(schema.clone(), rows));
    let spec = PartialAggSpec::new(vec![0], agg_specs());
    spec.ship_through_wire(scan).expect("shipped aggregate").1
}

/// Run both workloads at full scale (1M rows) or quick scale (÷10).
pub fn run(quick: bool) -> Vec<Entry> {
    let rows_n = if quick { 100_000 } else { 1_000_000 };
    let workloads = [("high_card", rows_n / 10), ("low_card", 64)];
    let schema = agg_schema();
    let mut out = Vec::new();

    for (name, groups_cfg) in workloads {
        let data = agg_rows(rows_n, groups_cfg);
        let expected_groups = serial_aggregate(&schema, data.clone()).len();

        // Interleaved best-of rounds: shared-host speed drifts, so both
        // sides must sample the same phases.
        let time = |engine: fn(&Schema, Vec<Row>) -> Vec<Row>| {
            let input = data.clone();
            let start = Instant::now();
            let groups = engine(&schema, input);
            let secs = start.elapsed().as_secs_f64();
            assert_eq!(std::hint::black_box(groups).len(), expected_groups);
            secs
        };
        let mut serial_secs = f64::INFINITY;
        let mut shipped_secs = f64::INFINITY;
        for _ in 0..REPS {
            serial_secs = serial_secs.min(time(serial_aggregate));
            shipped_secs = shipped_secs.min(time(shipped_aggregate));
        }

        out.push(
            Entry::new(
                quick,
                format!("{name}/shipped_partial/workers=1"),
                rows_n as f64 / serial_secs,
            )
            .with("rows", rows_n as f64)
            .with("groups", expected_groups as f64)
            .with("wall_rows_per_sec", rows_n as f64 / shipped_secs)
            .with("wall_speedup", serial_secs / shipped_secs),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::gate::tests::entry;
    use crate::gate::{parse_entries, render_document};

    #[test]
    fn json_roundtrip() {
        let baseline = vec![entry(
            "low_card/shipped_partial/workers=1",
            1_000_000.0,
            &[("wall_rows_per_sec", 800_000.0)],
        )];
        let parsed = parse_entries(&render_document(&GATE, &baseline)).unwrap();
        assert_eq!(parsed, baseline);
    }

    #[test]
    fn quick_run_smoke_group_counts_agree() {
        // Tiny smoke: both aggregation paths produce the configured group
        // count (full equivalence lives in the differential proptests).
        let schema = agg_schema();
        let data = agg_rows(4_000, 64);
        assert_eq!(serial_aggregate(&schema, data.clone()).len(), 64);
        assert_eq!(shipped_aggregate(&schema, data).len(), 64);
    }
}
