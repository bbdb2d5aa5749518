//! Grouped-aggregation workload: the serial [`HashAggregate`] vs. the
//! partitioned exchange at several worker counts and vs. the shipped
//! partial/final split, writing `results/BENCH_aggregate.json`.
//!
//! Two workloads bracket the placement trade-off the optimizer models
//! (DESIGN.md §7):
//!
//! * `high_card` — many groups (rows/10): the aggregation hash table
//!   dominates, partial states barely reduce the wire volume.
//! * `low_card` — 64 groups: per-worker tables are tiny and partial
//!   aggregation collapses the shipment to a handful of state rows.
//!
//! ## The projected speedup
//!
//! Exchange-partitioned aggregation is a three-stage pipeline — route
//! (serialized feeder hashing rows to partitions), per-partition
//! aggregation (divides across N workers because group keys are disjoint),
//! and gather (consumer-side merge of worker outputs). As in the parallel
//! bench, the hardware-normalized number the gate tracks is the
//! pipeline-bottleneck projection built from per-component costs measured
//! in one process:
//!
//! ```text
//! D1 = routing pass (RowBatch::partition_by_hash over the input)
//! B1 = Σ per-partition serial aggregation time (the divisible work)
//! G1 = output gather/concat
//! projected_time(N)    = max(D1, G1, B1 / N)      (N > 1)
//! projected_speedup(N) = min(Ts / projected_time(N), N)
//! ```
//!
//! Every component is its minimum across reps (noise floor), mirroring
//! `parallel.rs` (as there, the 1-worker point is plain measurement and
//! carries no projection); real Exchange wall numbers ride along as
//! `wall_*` and gate only between comparable hosts.

use std::sync::Arc;
use std::time::Instant;

use csq_common::{DataType, Field, Row, RowBatch, Schema, Value};
use csq_exec::{collect, AggSpec, BoxOp, Exchange, HashAggregate, ParallelOpts, RowsOp};
use csq_expr::{AggFunc, PhysExpr};
use csq_ship::PartialAggSpec;

use crate::cli::BenchCli;
use crate::gate::{Bound, Entry, Gate, Metric};

/// The results file and gate of this bench: the parallel bench's two-tier
/// gate over `<workload>/<variant>/workers=<n>` points.
pub const GATE: Gate = Gate {
    name: "aggregate",
    note: "reference = serial single-phase HashAggregate rows/sec; projected_speedup is the \
           hardware-normalized pipeline model min(T_serial / max(D1, G1, B1/N), N) from measured \
           components: D1 = serialized hash-routing pass, B1 = summed per-partition aggregation \
           (divides across workers, disjoint group keys), G1 = output gather, each its minimum \
           across reps (noise floor); wall_* are raw wall clock on host_cpus hardware threads; \
           shipped_partial is the partial->wire-codec->final split",
    tolerance: 0.25,
    multi_core: true,
    metrics: &[
        Metric::ratio("projected_speedup"),
        Metric::absolute("wall_rows_per_sec", Bound::Min),
    ],
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

/// The pipeline decomposition of one partitioned run at `parts` partitions:
/// (route secs, summed per-partition aggregation secs, gather secs, groups).
fn decompose(schema: &Schema, rows: Vec<Row>, parts: usize) -> (f64, f64, f64, usize) {
    let t = Instant::now();
    let partitions =
        RowBatch::from_rows(Arc::new(schema.clone()), rows).partition_by_hash(Some(&[0]), parts);
    let d = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut outs = Vec::with_capacity(parts);
    for p in partitions {
        outs.push(serial_aggregate(schema, p));
    }
    let b = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut all: Vec<Row> = Vec::new();
    for o in outs {
        all.extend(o);
    }
    let g = t.elapsed().as_secs_f64();
    (d, b, g, std::hint::black_box(all).len())
}

struct Workload {
    name: &'static str,
    rows: usize,
    groups_cfg: usize,
}

/// Run every workload at full scale (1M rows) or quick scale (÷10).
pub fn run(quick: bool) -> Vec<Entry> {
    let worker_counts: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let scale = if quick { 10 } else { 1 };
    let rows_n = 1_000_000 / scale;
    let workloads = [
        Workload {
            name: "high_card",
            rows: rows_n,
            groups_cfg: rows_n / 10,
        },
        Workload {
            name: "low_card",
            rows: rows_n,
            groups_cfg: 64,
        },
    ];
    let max_parts = *worker_counts.iter().max().unwrap();
    let schema = agg_schema();
    let mut out = Vec::new();

    for w in &workloads {
        let data = agg_rows(w.rows, w.groups_cfg);
        let expected_groups = serial_aggregate(&schema, data.clone()).len();

        // Interleaved best-of rounds (see parallel.rs: shared-host speed
        // drifts; every engine must sample the same phases). The serial
        // engine runs on a spawned thread for scheduling parity.
        let mut serial_secs = f64::INFINITY;
        let mut exchange_walls = vec![f64::INFINITY; worker_counts.len()];
        let mut shipped_secs = f64::INFINITY;
        let (mut d1, mut b1, mut g1) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for _ in 0..REPS {
            let dcl = data.clone();
            let sref = &schema;
            let start = Instant::now();
            let n = std::thread::scope(|sc| {
                sc.spawn(move || serial_aggregate(sref, dcl).len())
                    .join()
                    .unwrap()
            });
            serial_secs = serial_secs.min(start.elapsed().as_secs_f64());
            assert_eq!(std::hint::black_box(n), expected_groups);

            for (i, &workers) in worker_counts.iter().enumerate() {
                let scan: BoxOp = Box::new(RowsOp::new(schema.clone(), data.clone()));
                let opts = ParallelOpts {
                    workers,
                    morsel_rows: 4096,
                    ordered: false,
                    ..ParallelOpts::default()
                };
                let start = Instant::now();
                let mut agg = Exchange::hash_aggregate(scan, vec![0], agg_specs(), &opts);
                let n = collect(&mut agg).expect("exchange aggregate").len();
                let wall = start.elapsed().as_secs_f64();
                assert_eq!(
                    std::hint::black_box(n),
                    expected_groups,
                    "{}: partitioned aggregation lost or invented groups",
                    w.name
                );
                exchange_walls[i] = exchange_walls[i].min(wall);
            }

            let (d, b, g, n) = decompose(&schema, data.clone(), max_parts);
            assert_eq!(n, expected_groups);
            d1 = d1.min(d);
            b1 = b1.min(b);
            g1 = g1.min(g);

            let spec = PartialAggSpec::new(vec![0], agg_specs());
            let scan: BoxOp = Box::new(RowsOp::new(schema.clone(), data.clone()));
            let start = Instant::now();
            let (_, shipped_rows, _) = spec.ship_through_wire(scan).expect("shipped aggregate");
            let wall = start.elapsed().as_secs_f64();
            assert_eq!(std::hint::black_box(shipped_rows).len(), expected_groups);
            shipped_secs = shipped_secs.min(wall);
        }

        if std::env::var("CSQ_BENCH_DEBUG").is_ok() {
            eprintln!(
                "    [debug] {}: Ts={:.1}ms T1={:.1}ms D1={:.1}ms B1={:.1}ms G1={:.1}ms",
                w.name,
                serial_secs * 1e3,
                exchange_walls[0] * 1e3,
                d1 * 1e3,
                b1 * 1e3,
                g1 * 1e3,
            );
        }

        let point = |variant: &str, workers: usize, wall: f64| {
            Entry::new(
                quick,
                format!("{}/{variant}/workers={workers}", w.name),
                w.rows as f64 / serial_secs,
            )
            .with("rows", w.rows as f64)
            .with("groups", expected_groups as f64)
            .with("wall_rows_per_sec", w.rows as f64 / wall)
            .with("wall_speedup", serial_secs / wall)
        };
        for (i, &workers) in worker_counts.iter().enumerate() {
            let e = point("parallel", workers, exchange_walls[i]);
            out.push(if workers == 1 {
                e
            } else {
                let bottleneck = d1.max(g1).max(b1 / workers as f64).max(1e-12);
                let projected = (serial_secs / bottleneck).min(workers as f64);
                e.with("projected_speedup", projected)
            });
        }
        out.push(point("shipped_partial", 1, shipped_secs));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::gate::tests::{entry, set};
    use crate::gate::{check_regressions, parse_entries, render_document};

    fn baseline() -> Vec<Entry> {
        let wall = |speedup: f64| ("wall_rows_per_sec", 1_000_000.0 * speedup);
        vec![
            entry(
                "high_card/parallel/workers=4",
                1_000_000.0,
                &[wall(2.5), ("projected_speedup", 2.5)],
            ),
            entry(
                "low_card/shipped_partial/workers=1",
                1_000_000.0,
                &[wall(0.8)],
            ),
        ]
    }

    #[test]
    fn json_roundtrip() {
        let parsed = parse_entries(&render_document(&GATE, &baseline())).unwrap();
        assert_eq!(parsed, baseline());
    }

    #[test]
    fn projected_gate_fires_and_wall_gate_needs_comparable_hw() {
        let baseline = baseline();
        assert!(check_regressions(&GATE, &baseline, &baseline).is_empty());
        let mut bad = baseline.clone();
        set(&mut bad[0], "projected_speedup", |_| 1.0);
        let fails = check_regressions(&GATE, &bad, &baseline);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("projected_speedup"));
        // Wall drop on a different-shaped host is not flagged.
        let mut other = baseline.clone();
        for e in &mut other {
            e.host_cpus = 1;
            set(e, "wall_rows_per_sec", |v| v * 0.4);
        }
        assert!(check_regressions(&GATE, &other, &baseline).is_empty());
        // Wall drop on the same host shape is flagged.
        let mut real = baseline.clone();
        set(&mut real[1], "wall_rows_per_sec", |v| v * 0.5);
        assert_eq!(check_regressions(&GATE, &real, &baseline).len(), 1);
    }

    #[test]
    fn quick_run_smoke_group_counts_agree() {
        // Tiny smoke: both aggregation paths produce the configured group
        // count (full equivalence lives in the differential proptests).
        let schema = agg_schema();
        let data = agg_rows(4_000, 64);
        assert_eq!(serial_aggregate(&schema, data.clone()).len(), 64);
        let (_, _, _, n) = decompose(&schema, data, 4);
        assert_eq!(n, 64);
    }
}
