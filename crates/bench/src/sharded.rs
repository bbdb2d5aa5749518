//! Scale-out curve for the sharded coordinator (DESIGN.md §13): the same
//! table hash-partitioned across 1/2/4 real TCP shard services, the same
//! statements executed closed-loop through a [`Coordinator`], writing
//! `results/BENCH_sharded.json`.
//!
//! Three pipelines cover the three execution strategies:
//!
//! * **agg** — grouped aggregation: per-shard partial states merged at the
//!   coordinator (the scatter/gather path the tentpole exists for);
//! * **filter** — single-table selection: a filtered `Fetch` to every
//!   shard, rows concatenated;
//! * **pinned** — equality on the shard key: the `Fetch` pruned to the one
//!   shard owning the hash bucket (its cost should stay flat as shards
//!   are added).
//!
//! Machine normalization follows the other benches: every run also
//! measures the entry's `reference`, the same statement executed against a
//! single in-process engine holding the whole table (no sockets, no
//! coordinator). `rel = qps / reference` is the coordinator's efficiency
//! against the raw engine *on this host* — recorded and printed, not gated
//! (a faster engine lowers it with the coordinator unchanged); the
//! regression gate ([`GATE`]) compares absolute qps / median latency, and
//! only when every pipeline's single-node engine confirms comparable
//! hardware (DESIGN.md §6 "Bench gates").

use std::sync::Arc;
use std::time::{Duration, Instant};

use csq_core::{service, Coordinator, CoordinatorConfig, Database, NetworkSpec, ServiceConfig};

use crate::cli::BenchCli;
use crate::gate::{Bound, Entry, Gate, Metric};
use crate::service::percentile;

/// The scale-out ladder.
pub const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// The results file and gate of this bench, over `<pipeline>/shards=<n>`
/// points. No p99 gate: the per-level sample counts are too small for
/// stable tails.
pub const GATE: Gate = Gate {
    name: "sharded",
    note: "closed-loop statements through a coordinator over 1/2/4 loopback TCP shard services \
           holding one hash-partitioned table: agg = per-shard partial aggregation merged at \
           the coordinator, filter = pushdown to every shard, pinned = pushdown pruned to the \
           shard-key bucket. reference = the same statement against one in-process engine \
           holding the whole table (statements/sec) and rel = qps/reference",
    tolerance: 0.25,
    multi_core: true,
    metrics: &[
        Metric::absolute("qps", Bound::Min),
        Metric::absolute("p50_us", Bound::MaxTol(2.0)),
    ],
};

/// The `sharded` binary.
pub const CLI: BenchCli = BenchCli { gate: &GATE, run };

struct Workload {
    name: &'static str,
    sql: &'static str,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "agg",
        sql: "SELECT T.Grp, count(*), sum(T.Val), avg(T.Val) FROM T T GROUP BY T.Grp",
    },
    Workload {
        name: "filter",
        sql: "SELECT T.Id, T.Val FROM T T WHERE T.Val > 89",
    },
    Workload {
        name: "pinned",
        sql: "SELECT T.Grp, T.Val FROM T T WHERE T.Id = 17",
    },
];

const CREATE: &str = "CREATE TABLE T (Id INT, Grp INT, Val INT)";

/// The INSERT batches both sides load (identical SQL text).
fn insert_statements(rows: usize) -> Vec<String> {
    (0..rows)
        .collect::<Vec<_>>()
        .chunks(500)
        .map(|chunk| {
            let vals: Vec<String> = chunk
                .iter()
                .map(|&i| {
                    format!(
                        "({i}, {}, {})",
                        i % 64,
                        // Pseudo-uniform 0..100 so "> 89" keeps ~10% of rows.
                        (i as u64).wrapping_mul(2654435761) % 100
                    )
                })
                .collect();
            format!("INSERT INTO T VALUES {}", vals.join(", "))
        })
        .collect()
}

/// Serial single-engine baseline: the whole table in one in-process
/// `Database`, the statement executed back-to-back.
fn single_qps(inserts: &[String], sql: &str, iters: usize) -> f64 {
    let db = Database::new(NetworkSpec::lan());
    db.execute(CREATE).expect("bench CREATE must run");
    for stmt in inserts {
        db.execute(stmt).expect("bench INSERT must run");
    }
    for _ in 0..3 {
        db.execute(sql).expect("bench warmup must run");
    }
    let started = Instant::now();
    for _ in 0..iters {
        db.execute(sql).expect("bench SQL must run");
    }
    iters as f64 / started.elapsed().as_secs_f64()
}

/// Run the whole sweep. Quick mode shrinks the table and the iteration
/// counts (the CI smoke configuration).
pub fn run(quick: bool) -> Vec<Entry> {
    if quick {
        run_sweep(true, 2_000, 60, 30)
    } else {
        run_sweep(false, 20_000, 200, 80)
    }
}

fn run_sweep(quick: bool, rows: usize, iters: usize, single_iters: usize) -> Vec<Entry> {
    let inserts = insert_statements(rows);
    let singles: Vec<f64> = WORKLOADS
        .iter()
        .map(|w| single_qps(&inserts, w.sql, single_iters))
        .collect();

    let mut out = Vec::new();
    for shards in SHARD_COUNTS {
        // One cluster per shard count, shared by all pipelines.
        let mut handles = Vec::with_capacity(shards);
        let mut addrs = Vec::with_capacity(shards);
        for _ in 0..shards {
            let db = Arc::new(Database::new(NetworkSpec::lan()));
            let handle = service::start(
                db,
                ServiceConfig {
                    workers: 2,
                    idle_timeout: Duration::from_millis(50),
                    ..ServiceConfig::default()
                },
            )
            .expect("bench shard service must start");
            addrs.push(handle.local_addr());
            handles.push(handle);
        }
        let coord = Coordinator::connect(&addrs, CoordinatorConfig::default())
            .expect("bench coordinator must connect");
        coord
            .create_table(CREATE, "Id")
            .expect("bench sharded CREATE must run");
        for stmt in &inserts {
            coord.execute(stmt).expect("bench routed INSERT must run");
        }

        for (w, single) in WORKLOADS.iter().zip(&singles) {
            for _ in 0..3 {
                coord.execute(w.sql).expect("bench warmup must run");
            }
            let mut latencies = Vec::with_capacity(iters);
            let started = Instant::now();
            for _ in 0..iters {
                let q = Instant::now();
                coord.execute(w.sql).expect("bench SQL must run");
                latencies.push(q.elapsed().as_secs_f64() * 1e6);
            }
            let elapsed = started.elapsed();
            latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
            let qps = iters as f64 / elapsed.as_secs_f64();
            out.push(
                Entry::new(quick, format!("{}/shards={shards}", w.name), *single)
                    .with("queries", iters as f64)
                    .with("qps", qps)
                    .with("p50_us", percentile(&latencies, 0.50))
                    .with("p99_us", percentile(&latencies, 0.99))
                    .with("rel", qps / single),
            );
        }

        drop(coord);
        for handle in handles {
            handle.shutdown();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::gate::{check_regressions, parse_entries, render_document};

    fn entry(id: &str, qps: f64, single: f64) -> Entry {
        let values = [("qps", qps), ("p50_us", 1e6 / qps), ("rel", qps / single)];
        crate::gate::tests::entry(id, single, &values)
    }

    #[test]
    fn document_roundtrips() {
        let entries = vec![
            entry("agg/shards=1", 400.0, 800.0),
            entry("pinned/shards=4", 1600.0, 2000.0),
        ];
        let parsed = parse_entries(&render_document(&GATE, &entries)).unwrap();
        assert_eq!(parsed, entries);
    }

    #[test]
    fn gate_catches_qps_regression_on_same_hardware() {
        let baseline = vec![entry("agg/shards=2", 1000.0, 1000.0)];
        let mut current = vec![entry("agg/shards=2", 600.0, 1000.0)];
        let failures = check_regressions(&GATE, &current, &baseline);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("qps"), "{failures:?}");
        // Different host shape: every gate disarms.
        current[0].host_cpus = 32;
        assert!(check_regressions(&GATE, &current, &baseline).is_empty());
    }

    #[test]
    fn a_faster_engine_under_the_same_coordinator_disarms_the_gate() {
        // The single-node reference got 5x faster, the coordinator did not
        // move: `rel` falls to a fifth — recorded, not a regression.
        let baseline = vec![entry("agg/shards=2", 1000.0, 1000.0)];
        let current = vec![entry("agg/shards=2", 1000.0, 5000.0)];
        assert!(check_regressions(&GATE, &current, &baseline).is_empty());
    }

    #[test]
    fn absolute_gates_disarm_when_single_node_drifts() {
        let baseline = vec![entry("filter/shards=2", 1000.0, 1000.0)];
        // Same rel, but the whole host is slower: single-node drifted, so
        // the absolute qps gate must not fire.
        let current = vec![entry("filter/shards=2", 500.0, 500.0)];
        assert!(check_regressions(&GATE, &current, &baseline).is_empty());
    }

    #[test]
    fn tiny_sweep_runs_end_to_end() {
        // Tiny smoke of the real harness (debug builds run this in the
        // tier-1 suite, so the workload is minimal): invariants only.
        let entries = run_sweep(true, 150, 4, 3);
        assert_eq!(entries.len(), SHARD_COUNTS.len() * WORKLOADS.len());
        for e in &entries {
            let v = |name: &str| e.get(name).unwrap();
            assert!(v("queries") > 0.0);
            assert!(v("qps") > 0.0 && e.reference > 0.0);
            assert!(v("p50_us") <= v("p99_us"));
        }
    }
}
