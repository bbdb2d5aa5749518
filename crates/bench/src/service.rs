//! Closed-loop load harness for the socket-backed query service
//! (DESIGN.md §8, §12): N concurrent clients, each with its own TCP
//! connection and prepared statement, execute-as-fast-as-answered against
//! one server, at 1/4/16/64/256 clients plus an idle-connection level
//! (active clients sharing the server with a crowd of parked sessions).
//! Reported per (pipeline, client-count, idle-count):
//!
//! * **throughput** — completed queries/sec over the whole level, and
//! * **latency** — per-query p50/p95/p99 in µs (closed loop, so latency
//!   includes queueing behind the service's worker pool — exactly what
//!   a caller experiences under load).
//!
//! The server runs a *fixed* small worker pool at every level: sessions
//! park in the connection scheduler when idle (DESIGN.md §12), so client
//! count is an offered-load knob, not a provisioning requirement. The
//! sweep therefore measures how the scheduler multiplexes rising
//! concurrency over constant execution resources.
//!
//! Machine normalization follows the other benches: every run also
//! measures the entry's `reference`, the same prepared statement executed
//! serially in-process (no sockets, no sessions). `rel = qps / reference`
//! is the service's efficiency against the raw engine *on this host* — a
//! recorded, printed value, not a gated one: it falls whenever the engine
//! under the service gets faster, which is not the service regressing. The
//! regression gate ([`GATE`]) compares absolute qps / latency, and only
//! when every pipeline's in-process engine confirms comparable hardware —
//! so an engine speed-up disarms it until the baseline is re-recorded
//! instead of failing it (DESIGN.md §6 "Bench gates").

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use csq_client::ServiceConn;
use csq_common::{DataType, Value};
use csq_core::{service, Database, NetworkSpec, ServiceConfig};
use csq_storage::TableBuilder;

use crate::cli::BenchCli;
use crate::gate::{Bound, Entry, Gate, Metric};

/// Active client counts in the concurrency sweep (zero idle connections).
pub const CLIENT_COUNTS: [usize; 5] = [1, 4, 16, 64, 256];

/// One sweep level: how many closed-loop clients run queries, and how many
/// extra connections sit open-but-idle on the same server for the whole
/// level (they park in the session scheduler and should cost nothing).
#[derive(Debug, Clone, Copy)]
pub struct Level {
    /// Concurrent closed-loop query clients.
    pub clients: usize,
    /// Idle connections held open for the duration of the level.
    pub idle_conns: usize,
}

/// The standard sweep: the client-count ladder, then one level that adds a
/// crowd of idle connections behind a fixed set of active clients. Quick
/// mode keeps the idle crowd small so the CI smoke stays fast.
fn standard_levels(quick: bool) -> Vec<Level> {
    let mut levels: Vec<Level> = CLIENT_COUNTS
        .iter()
        .map(|&clients| Level {
            clients,
            idle_conns: 0,
        })
        .collect();
    levels.push(Level {
        clients: 16,
        idle_conns: if quick { 256 } else { 1000 },
    });
    levels
}

/// The results file and gate of this bench, over
/// `<pipeline>/clients=<n>/idle=<n>` levels.
pub const GATE: Gate = Gate {
    name: "service",
    note: "closed-loop load over real loopback TCP: N clients, each its own connection + \
           prepared statement, against a fixed hardware-sized worker pool; idle extra \
           connections park in the session scheduler during the level. latency percentiles \
           include queueing for a worker. reference = the same prepared plan executed serially \
           in-process (queries/sec) and rel = qps/reference",
    tolerance: 0.25,
    multi_core: true,
    metrics: &[
        Metric::absolute("qps", Bound::Min),
        // p50 is the stable location statistic; tails over a few hundred
        // closed-loop samples swing 2x between runs on the *same* host, so
        // the p99 gate is a blow-up detector (lock convoys, stalls), not a
        // drift detector.
        Metric::absolute("p50_us", Bound::MaxTol(2.0)),
        Metric::absolute("p99_us", Bound::MaxTimes(3.0)),
    ],
};

/// The `service` binary.
pub const CLI: BenchCli = BenchCli { gate: &GATE, run };

struct Workload {
    name: &'static str,
    sql: &'static str,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "filter",
        sql: "SELECT T.Id, T.Val FROM T T WHERE T.Val > 89",
    },
    Workload {
        name: "aggregate",
        sql: "SELECT T.Grp, count(*), sum(T.Val) FROM T T GROUP BY T.Grp",
    },
];

fn build_db(rows: usize) -> Arc<Database> {
    let db = Database::new(NetworkSpec::lan());
    let mut b = TableBuilder::new("T")
        .column("Id", DataType::Int)
        .column("Grp", DataType::Int)
        .column("Val", DataType::Int);
    for i in 0..rows {
        b = b.row(vec![
            Value::Int(i as i64),
            Value::Int((i % 64) as i64),
            // Pseudo-uniform 0..100 so "> 89" keeps ~10% of rows.
            Value::Int(((i as u64).wrapping_mul(2654435761) % 100) as i64),
        ]);
    }
    db.catalog().register(b.build().unwrap()).unwrap();
    Arc::new(db)
}

pub(crate) fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

/// Serial in-process baseline: the same prepared plan executed
/// back-to-back on the caller's thread.
fn inproc_qps(db: &Database, sql: &str, iters: usize) -> f64 {
    let (mut planned, _) = db.prepare(sql).expect("bench SQL must plan");
    // Warmup (also populates the plan cache the service will share).
    for _ in 0..3 {
        let (_, fresh, _) = db.execute_planned(&planned).expect("bench SQL must run");
        planned = fresh;
    }
    let started = Instant::now();
    for _ in 0..iters {
        let (_, fresh, _) = db.execute_planned(&planned).expect("bench SQL must run");
        planned = fresh;
    }
    iters as f64 / started.elapsed().as_secs_f64()
}

/// Open `count` connections that send nothing for the duration of the
/// level. They complete the TCP handshake (so the server admits and parks
/// them) but hold no prepared statements and issue no queries.
fn open_idle_conns(addr: std::net::SocketAddr, count: usize) -> Vec<std::net::TcpStream> {
    let mut conns = Vec::with_capacity(count);
    for _ in 0..count {
        // Bursts of a thousand connects can outrun the listener's backlog
        // between the scheduler's accept sweeps; back off briefly and retry rather than failing the run.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match std::net::TcpStream::connect(addr) {
                Ok(s) => {
                    conns.push(s);
                    break;
                }
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => panic!("bench idle connection must connect: {e}"),
            }
        }
    }
    conns
}

/// One closed-loop level: `clients` threads × `per_client` executions of a
/// prepared statement over real sockets. Returns (elapsed, latencies µs).
fn run_level(
    addr: std::net::SocketAddr,
    sql: &str,
    clients: usize,
    per_client: usize,
) -> (Duration, Vec<f64>) {
    let barrier = Arc::new(Barrier::new(clients + 1));
    let failed = Arc::new(AtomicBool::new(false));
    let threads: Vec<_> = (0..clients)
        .map(|_| {
            let barrier = barrier.clone();
            let failed = failed.clone();
            let sql = sql.to_string();
            std::thread::spawn(move || {
                let mut conn = ServiceConn::connect(addr).expect("bench client must connect");
                let (stmt, _) = conn.prepare(&sql).expect("bench SQL must prepare");
                let _ = conn.execute(stmt).expect("bench warmup must run");
                barrier.wait();
                let mut latencies = Vec::with_capacity(per_client);
                for _ in 0..per_client {
                    let started = Instant::now();
                    if conn.execute(stmt).is_err() {
                        failed.store(true, Ordering::Relaxed);
                        break;
                    }
                    latencies.push(started.elapsed().as_secs_f64() * 1e6);
                }
                conn.close();
                latencies
            })
        })
        .collect();
    barrier.wait();
    let started = Instant::now();
    let mut latencies = Vec::with_capacity(clients * per_client);
    for t in threads {
        latencies.extend(t.join().expect("bench client must not panic"));
    }
    let elapsed = started.elapsed();
    assert!(
        !failed.load(Ordering::Relaxed),
        "bench queries must not fail"
    );
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    (elapsed, latencies)
}

/// Run the whole sweep. Quick mode shrinks the table, per-client
/// iteration counts, and the idle-connection crowd (the CI smoke
/// configuration).
pub fn run(quick: bool) -> Vec<Entry> {
    if quick {
        run_sweep(true, 4_000, 512, 20, &standard_levels(true))
    } else {
        run_sweep(false, 20_000, 768, 60, &standard_levels(false))
    }
}

fn run_sweep(
    quick: bool,
    rows: usize,
    total_per_level: usize,
    inproc_iters: usize,
    levels: &[Level],
) -> Vec<Entry> {
    let db = build_db(rows);
    // A fixed, hardware-sized execution pool at every level: sessions park
    // in the connection scheduler while idle (DESIGN.md §12), so worker
    // count bounds execution concurrency, not connection count. Holding it
    // constant makes the sweep measure scheduling under rising offered
    // load instead of re-provisioning the server per level.
    let workers = crate::gate::host_cpus().clamp(2, 8);

    let mut out = Vec::new();
    for w in &WORKLOADS {
        let inproc = inproc_qps(&db, w.sql, inproc_iters);
        for level in levels {
            let (clients, idle) = (level.clients, level.idle_conns);
            let handle = service::start(
                db.clone(),
                ServiceConfig {
                    workers,
                    max_sessions: clients + idle + 8,
                    idle_timeout: Duration::from_millis(50),
                    ..ServiceConfig::default()
                },
            )
            .expect("bench service must start");
            let addr = handle.local_addr();
            // Park the idle crowd first so every measured query shares the
            // poll set with them for the whole level.
            let idle_conns = open_idle_conns(addr, idle);
            // Keep each level's total work roughly level-independent so the
            // sweep is dominated by concurrency, not by query count.
            let per_client = (total_per_level / clients).max(8);
            let (elapsed, latencies) = run_level(addr, w.sql, clients, per_client);
            drop(idle_conns);
            handle.shutdown();
            let qps = latencies.len() as f64 / elapsed.as_secs_f64();
            out.push(
                Entry::new(
                    quick,
                    format!("{}/clients={clients}/idle={idle}", w.name),
                    inproc,
                )
                .with("queries", latencies.len() as f64)
                .with("qps", qps)
                .with("p50_us", percentile(&latencies, 0.50))
                .with("p95_us", percentile(&latencies, 0.95))
                .with("p99_us", percentile(&latencies, 0.99))
                .with("rel", qps / inproc),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::gate::tests::set;
    use crate::gate::{check_regressions, parse_entries, render_document};

    fn entry(id: &str, qps: f64, p99: f64, inproc: f64) -> Entry {
        let values = [
            ("qps", qps),
            ("p50_us", p99 / 3.0),
            ("p99_us", p99),
            ("rel", qps / inproc),
        ];
        crate::gate::tests::entry(id, inproc, &values)
    }

    #[test]
    fn document_roundtrips() {
        let entries = vec![
            entry("filter/clients=1/idle=0", 900.0, 1500.0, 1000.0),
            entry("aggregate/clients=16/idle=1000", 400.0, 9000.0, 800.0),
        ];
        let parsed = parse_entries(&render_document(&GATE, &entries)).unwrap();
        assert_eq!(parsed, entries);
    }

    #[test]
    fn gate_matches_entries_by_idle_conns_too() {
        let baseline = vec![entry("filter/clients=16/idle=0", 1000.0, 2000.0, 1000.0)];
        // Same clients but a different idle crowd is a different level: it
        // has no baseline, and the baseline's level went unmeasured.
        let current = vec![entry("filter/clients=16/idle=1000", 400.0, 2000.0, 1000.0)];
        let failures = check_regressions(&GATE, &current, &baseline);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures.iter().all(|f| !f.contains("qps")), "{failures:?}");
        // Identical level shape: the qps regression is caught.
        let current = vec![entry("filter/clients=16/idle=0", 400.0, 2000.0, 1000.0)];
        let failures = check_regressions(&GATE, &current, &baseline);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("qps"), "{failures:?}");
    }

    #[test]
    fn gate_catches_qps_regression_on_same_hardware() {
        let baseline = vec![entry("filter/clients=4/idle=0", 1000.0, 2000.0, 1000.0)];
        let mut current = vec![entry("filter/clients=4/idle=0", 600.0, 2000.0, 1000.0)];
        let failures = check_regressions(&GATE, &current, &baseline);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("qps"), "{failures:?}");
        // Different host shape: the gates disarm.
        current[0].host_cpus = 32;
        assert!(check_regressions(&GATE, &current, &baseline).is_empty());
    }

    #[test]
    fn a_faster_engine_under_the_same_service_disarms_the_gate() {
        // The in-process reference got 5x faster and the service did not
        // move: `rel` falls to a fifth, which is recorded, not a regression.
        let baseline = vec![entry("aggregate/clients=4/idle=0", 1000.0, 2000.0, 1000.0)];
        let current = vec![entry("aggregate/clients=4/idle=0", 1000.0, 2000.0, 5000.0)];
        assert!(current[0].get("rel").unwrap() < 0.25 * baseline[0].get("rel").unwrap());
        assert!(check_regressions(&GATE, &current, &baseline).is_empty());
    }

    #[test]
    fn gate_catches_latency_blowups_only_on_comparable_hardware() {
        let level = || vec![entry("filter/clients=16/idle=0", 1000.0, 2000.0, 1000.0)];
        let baseline = level();
        // Median drift beyond 1 + 2·tol = 50% trips the p50 gate.
        let mut current = level();
        set(&mut current[0], "p50_us", |v| v * 1.6);
        let failures = check_regressions(&GATE, &current, &baseline);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("p50_us"), "{failures:?}");

        // A pure tail blow-up (stable median) trips only past 3x.
        let mut current = level();
        set(&mut current[0], "p99_us", |_| 5_000.0); // 2.5x: tolerated tail noise
        assert!(check_regressions(&GATE, &current, &baseline).is_empty());
        set(&mut current[0], "p99_us", |_| 7_000.0); // 3.5x: genuine blow-up
        let failures = check_regressions(&GATE, &current, &baseline);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("p99_us"), "{failures:?}");

        // A slower in-process engine disarms the absolute gates.
        current[0].reference = 500.0;
        set(&mut current[0], "rel", |_| 1000.0 / 500.0);
        assert!(check_regressions(&GATE, &current, &baseline).is_empty());
    }

    #[test]
    fn tiny_sweep_runs_end_to_end() {
        // Tiny smoke of the real harness (debug builds run this in the
        // tier-1 suite, so the workload is minimal): invariants only. The
        // second level exercises the idle-connection path.
        let levels = [
            Level {
                clients: 1,
                idle_conns: 0,
            },
            Level {
                clients: 2,
                idle_conns: 8,
            },
        ];
        let entries = run_sweep(true, 200, 16, 3, &levels);
        assert_eq!(entries.len(), 2 * levels.len());
        for e in &entries {
            let v = |name: &str| e.get(name).unwrap();
            assert!(v("queries") > 0.0);
            assert!(v("qps") > 0.0 && e.reference > 0.0);
            assert!(v("p50_us") <= v("p95_us") && v("p95_us") <= v("p99_us"));
        }
        assert_eq!(entries[1].id, "filter/clients=2/idle=8");
    }
}
