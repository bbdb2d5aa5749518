//! Parallel-engine workload: the serial batch engine vs. the morsel-driven
//! parallel engine at several worker counts, writing
//! `results/BENCH_parallel.json`.
//!
//! Pipelines reuse the throughput workload's data and serial engines, so
//! the two results files share one "serial" ground truth: scan→filter→
//! project and the VM UDF map run as [`ParallelPipeline`] stage chains;
//! distinct and hash join run partitioned through [`Exchange`].
//!
//! ## Two speedup numbers, one honest file
//!
//! * `wall_speedup` — measured wall-clock, truthful for **this host**. It
//!   is physically capped by the host's core count (`host_cpus` in the
//!   file): on a 1-CPU host it hovers near 1× whatever the engine does.
//! * `projected_speedup` (stage pipelines, multi-worker points only) — the
//!   hardware-normalized scalability the regression gate tracks, in the
//!   same spirit as the repo's virtual-time network model (DESIGN.md §5):
//!   real code, measured costs, modeled resource. From the 1-worker run we
//!   measure `T1` (wall), `B1` (summed in-stage worker busy time, via a
//!   timing shim around each stage), and `D1` (time inside the serialized
//!   morsel dispenser, reported by the engine); `G1 = T1 − B1 − D1` is the
//!   gather + collect remainder on the consumer thread, which also absorbs
//!   scheduling overhead, keeping the model conservative. Each component
//!   is taken at its minimum across the reps (its noise floor — one host
//!   hiccup in one rep must not masquerade as engine cost). The engine is
//!   a three-stage pipeline — dispense (mutex-serialized), stage work
//!   (divides across N workers), gather on the consumer thread — and with
//!   enough cores the stages overlap, so the steady-state cost is the
//!   bottleneck stage: the same modeling idiom as the paper's
//!   `max(downlink, uplink)` bandwidth bottleneck (§3.2). The 1-worker
//!   point is the engine-overhead measurement itself (`T_serial / T1` is
//!   its `wall_speedup`), so it carries no projection:
//!
//!   ```text
//!   projected_time(N)    = max(D1, G1, B1 / N)   (N > 1)
//!   projected_speedup(N) = min(T_serial / projected_time(N), N)
//!   ```
//!
//!   Because it is a ratio of costs measured in one process, it transfers
//!   across hosts the way the throughput bench's batch-over-row speedup
//!   does, and it regresses when coordinator overhead grows or stage work
//!   stops dividing — exactly the failures a parallel engine can have on
//!   any machine. Exchange pipelines carry no projection (their work
//!   happens inside per-partition operators, not instrumentable stages);
//!   their wall rows/sec gates only between comparable hosts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use csq_client::service::TaskExecutor;
use csq_common::{DataType, Field, Row, RowBatch, Schema};
use csq_exec::{
    collect, BatchStage, ClosureFactory, Exchange, FilterStageFactory, ParallelOpts,
    ParallelPipeline, ProjectStageFactory, RowsOp, StageFactory,
};

use crate::cli::BenchCli;
use crate::gate::{Bound, Entry, Gate, Metric};
use crate::throughput::{
    build_rows, build_schema, distinct_batch_engine, dup_rows, dup_schema, filter_pred,
    join_batch_engine, probe_rows, probe_schema, project_exprs, quotes_rows, quotes_schema,
    sfp_batch_engine, udf_batch_engine, udf_rows, udf_task, vm_runtime,
};

/// The results file and gate of this bench. Only multi-worker stage points
/// carry `projected_speedup`; `wall_speedup` is reported, not gated.
pub const GATE: Gate = Gate {
    name: "parallel",
    note: "reference = the serial batch engine's rows/sec; projected_speedup is the \
           hardware-normalized pipeline model min(T_serial / max(D1, T1-B1-D1, B1/N), N) from \
           the measured 1-worker run: wall T1, worker stage-busy B1, serialized-dispenser D1, \
           gather remainder G=T1-B1-D1, each component its minimum across reps (noise floor) \
           - the max(...) bottleneck idiom of the paper's cost model; wall_* are raw wall \
           clock on host_cpus hardware threads",
    tolerance: 0.25,
    multi_core: true,
    metrics: &[
        Metric::ratio("projected_speedup"),
        Metric::absolute("wall_rows_per_sec", Bound::Min),
    ],
};

/// The `parallel` binary.
pub const CLI: BenchCli = BenchCli { gate: &GATE, run };

/// One (pipeline, worker count) point: wall numbers, plus the projection
/// where there is one.
fn entry(
    quick: bool,
    pipeline: &str,
    rows: usize,
    workers: usize,
    serial_secs: f64,
    wall: f64,
    projected: Option<f64>,
) -> Entry {
    let e = Entry::new(
        quick,
        format!("{pipeline}/workers={workers}"),
        rows as f64 / serial_secs,
    )
    .with("rows", rows as f64)
    .with("wall_rows_per_sec", rows as f64 / wall)
    .with("wall_speedup", serial_secs / wall);
    match projected {
        Some(p) => e.with("projected_speedup", p),
        None => e,
    }
}

const REPS: usize = 5;

/// Interleaved best-of rounds for wall-only (exchange) workloads: each
/// round times one serial rep then one rep per worker count, so every
/// engine samples the same host-speed phases (see `run_stage_workload`).
fn run_wall_workload<T, S, P>(
    worker_counts: &[usize],
    prep: impl Fn() -> T,
    serial: S,
    parallel: P,
) -> (f64, Vec<(usize, f64)>)
where
    S: Fn(T) -> usize,
    P: Fn(T, usize) -> usize,
{
    let mut serial_secs = f64::INFINITY;
    let mut best = vec![f64::INFINITY; worker_counts.len()];
    let mut serial_len = None;
    for _ in 0..REPS {
        let d = prep();
        let t = Instant::now();
        let n = std::hint::black_box(serial(d));
        serial_secs = serial_secs.min(t.elapsed().as_secs_f64());
        let expect = *serial_len.get_or_insert(n);
        assert_eq!(n, expect);
        for (i, &w) in worker_counts.iter().enumerate() {
            let d = prep();
            let t = Instant::now();
            let n = std::hint::black_box(parallel(d, w));
            best[i] = best[i].min(t.elapsed().as_secs_f64());
            assert_eq!(n, expect, "parallel engine lost or invented rows");
        }
    }
    (
        serial_secs,
        worker_counts.iter().copied().zip(best).collect(),
    )
}

/// Wraps a stage factory so every worker's `apply` time accrues to a shared
/// busy counter — the `B1` measurement of the projection model.
struct TimedFactory {
    inner: Box<dyn StageFactory>,
    busy_ns: Arc<AtomicU64>,
}

impl StageFactory for TimedFactory {
    fn output_schema(&self, input: &Arc<Schema>) -> csq_common::Result<Arc<Schema>> {
        self.inner.output_schema(input)
    }

    fn instantiate(&self) -> Box<dyn BatchStage> {
        let mut stage = self.inner.instantiate();
        let busy = self.busy_ns.clone();
        Box::new(move |batch: RowBatch| {
            let t = Instant::now();
            let r = stage.apply(batch);
            busy.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            r
        })
    }
}

/// Benchmark engine configuration: 4096-row morsels (4 source batches per
/// dispense) keep per-morsel scheduling overhead out of the coordinator
/// path at the 1M-row scale; DESIGN.md §4 discusses the trade-off.
const BENCH_MORSEL_ROWS: usize = 4096;

fn opts(workers: usize, ordered: bool) -> ParallelOpts {
    ParallelOpts {
        workers,
        morsel_rows: BENCH_MORSEL_ROWS,
        ordered,
        ..ParallelOpts::default()
    }
}

/// A stage-pipeline workload: serial runner + timed parallel stage chain.
struct StageWorkload {
    pipeline: &'static str,
    rows: usize,
    serial_secs: f64,
    /// (workers, best wall secs)
    runs: Vec<(usize, f64)>,
    /// Per-component noise floors of the 1-worker reps: stage busy,
    /// dispense, and the gather remainder — each the minimum across reps,
    /// so one host hiccup cannot inflate a model component.
    b1: f64,
    d1: f64,
    g1: f64,
}

fn run_stage_workload<MkStages>(
    pipeline: &'static str,
    schema: Schema,
    data: Vec<Row>,
    worker_counts: &[usize],
    serial: impl Fn(Vec<Row>) -> Vec<Row> + Sync,
    mk_stages: MkStages,
) -> StageWorkload
where
    MkStages: Fn(&Arc<AtomicU64>) -> Vec<Box<dyn StageFactory>>,
{
    let rows = data.len();
    let serial_len = serial(data.clone()).len();
    // Serial and parallel reps interleave in rounds so both sample the
    // same host-speed phases (shared-host throughput drifts over minutes;
    // measuring one engine entirely before the other biases the ratio).
    // The serial engine runs on a spawned thread for scheduling parity
    // with the parallel engine's workers — on cgroup-throttled hosts the
    // long-lived main thread is measurably slower than fresh threads.
    let mut serial_secs = f64::INFINITY;
    let mut best_walls = vec![f64::INFINITY; worker_counts.len()];
    let (mut b1, mut d1, mut g1) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..REPS {
        let d = data.clone();
        let start = Instant::now();
        let n = std::thread::scope(|sc| sc.spawn(|| serial(d).len()).join().unwrap());
        serial_secs = serial_secs.min(start.elapsed().as_secs_f64());
        assert_eq!(std::hint::black_box(n), serial_len);
        for (i, &w) in worker_counts.iter().enumerate() {
            let busy = Arc::new(AtomicU64::new(0));
            let scan = Box::new(RowsOp::new(schema.clone(), data.clone()));
            let start = Instant::now();
            let mut p = ParallelPipeline::new(scan, mk_stages(&busy), opts(w, true))
                .expect("parallel pipeline");
            let out = collect(&mut p).expect("parallel run");
            let wall = start.elapsed().as_secs_f64();
            assert_eq!(
                std::hint::black_box(out.len()),
                serial_len,
                "{pipeline}: parallel engine lost or invented rows"
            );
            best_walls[i] = best_walls[i].min(wall);
            if w == 1 {
                let busy_secs = busy.load(Ordering::Relaxed) as f64 / 1e9;
                let dispense_secs = p.dispense_secs();
                b1 = b1.min(busy_secs);
                d1 = d1.min(dispense_secs);
                g1 = g1.min((wall - busy_secs - dispense_secs).max(0.0));
            }
        }
    }
    let runs = worker_counts.iter().copied().zip(best_walls).collect();
    StageWorkload {
        pipeline,
        rows,
        serial_secs,
        runs,
        b1,
        d1,
        g1,
    }
}

fn stage_entries(quick: bool, w: StageWorkload) -> Vec<Entry> {
    let (b1, d1, g1) = (w.b1, w.d1, w.g1);
    if std::env::var("CSQ_BENCH_DEBUG").is_ok() {
        eprintln!(
            "    [debug] {}: Ts={:.1}ms B1={:.1}ms D1={:.1}ms G={:.1}ms",
            w.pipeline,
            w.serial_secs * 1e3,
            b1 * 1e3,
            d1 * 1e3,
            g1 * 1e3,
        );
    }
    w.runs
        .iter()
        .map(|&(n, wall)| {
            let projected = (n > 1).then(|| {
                let bottleneck = d1.max(g1).max(b1 / n as f64).max(1e-12);
                (w.serial_secs / bottleneck).min(n as f64)
            });
            entry(quick, w.pipeline, w.rows, n, w.serial_secs, wall, projected)
        })
        .collect()
}

fn exchange_entries(
    quick: bool,
    pipeline: &str,
    rows: usize,
    serial_secs: f64,
    runs: &[(usize, f64)],
) -> Vec<Entry> {
    runs.iter()
        .map(|&(n, wall)| entry(quick, pipeline, rows, n, serial_secs, wall, None))
        .collect()
}

/// Run every pipeline at full scale (1M-row scan) or quick scale (÷10).
pub fn run(quick: bool) -> Vec<Entry> {
    let worker_counts: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let scale = if quick { 10 } else { 1 };
    let mut out = Vec::new();

    // scan → filter → project as a parallel stage chain.
    {
        let schema = quotes_schema();
        let data = quotes_rows(1_000_000 / scale);
        let w = run_stage_workload(
            "scan_filter_project",
            schema.clone(),
            data,
            worker_counts,
            |d| sfp_batch_engine(&schema, d),
            |busy| {
                vec![
                    Box::new(TimedFactory {
                        inner: Box::new(FilterStageFactory::new(filter_pred())),
                        busy_ns: busy.clone(),
                    }),
                    Box::new(TimedFactory {
                        inner: Box::new(ProjectStageFactory::new(project_exprs())),
                        busy_ns: busy.clone(),
                    }),
                ]
            },
        );
        out.extend(stage_entries(quick, w));
    }

    // VM UDF application: per-worker forked TaskExecutors.
    {
        let rt = vm_runtime();
        let data = udf_rows(200_000 / scale);
        let in_schema = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("obj", DataType::Blob),
        ]);
        let out_schema = in_schema
            .clone()
            .with_field(Field::new("digest", DataType::Int));
        let proto = Arc::new(TaskExecutor::new(rt.clone(), udf_task()).expect("executor"));
        let w = run_stage_workload(
            "vm_udf",
            in_schema,
            data,
            worker_counts,
            |d| udf_batch_engine(&rt, d),
            |busy| {
                let proto = proto.clone();
                let schema = Arc::new(out_schema.clone());
                vec![Box::new(TimedFactory {
                    inner: Box::new(ClosureFactory::new(out_schema.clone(), move || {
                        let mut ex = proto.fork();
                        let schema = schema.clone();
                        Box::new(move |batch: RowBatch| {
                            let rows = ex.process(batch.into_rows())?;
                            Ok(Some(RowBatch::from_rows(schema.clone(), rows)))
                        })
                    })),
                    busy_ns: busy.clone(),
                })]
            },
        );
        out.extend(stage_entries(quick, w));
    }

    // Partitioned distinct through the exchange.
    {
        let schema = dup_schema();
        let data = dup_rows(1_000_000 / scale);
        let rows_n = data.len();
        let (serial_secs, runs) = run_wall_workload(
            worker_counts,
            || data.clone(),
            |d| distinct_batch_engine(&schema, d).len(),
            |d, w| {
                let scan = Box::new(RowsOp::new(schema.clone(), d));
                let mut op = Exchange::distinct_all(scan, &opts(w, false));
                collect(&mut op).expect("parallel distinct").len()
            },
        );
        out.extend(exchange_entries(
            quick,
            "distinct",
            rows_n,
            serial_secs,
            &runs,
        ));
    }

    // Partitioned hash join through the exchange.
    {
        let probe = probe_rows(500_000 / scale);
        let build = build_rows();
        let rows_n = probe.len();
        let (serial_secs, runs) = run_wall_workload(
            worker_counts,
            || (probe.clone(), build.clone()),
            |(p, b)| join_batch_engine(p, b).len(),
            |(p, b), w| {
                let l = Box::new(RowsOp::new(probe_schema(), p));
                let r = Box::new(RowsOp::new(build_schema(), b));
                let mut op = Exchange::hash_join(l, r, vec![1], vec![0], &opts(w, false))
                    .expect("parallel join");
                collect(&mut op).expect("parallel join run").len()
            },
        );
        out.extend(exchange_entries(
            quick,
            "hash_join",
            rows_n,
            serial_secs,
            &runs,
        ));
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::gate::tests::set;
    use crate::gate::{check_regressions, parse_entries, render_document};

    /// A 1M rows/s-serial point at `speedup`; `projected` marks a stage
    /// pipeline (whose projection equals the wall speedup here).
    fn point(pipeline: &str, workers: usize, speedup: f64, projected: bool) -> Entry {
        let mut e = entry(
            true,
            pipeline,
            100_000,
            workers,
            0.1,
            0.1 / speedup,
            projected.then_some(speedup),
        );
        e.host_cpus = 4;
        e
    }

    #[test]
    fn json_roundtrip() {
        let entries = vec![
            point("scan_filter_project", 4, 2.5, true),
            point("distinct", 2, 1.25, false),
        ];
        let parsed = parse_entries(&render_document(&GATE, &entries)).unwrap();
        assert_eq!(parsed, entries);
        assert_eq!(parsed[0].id, "scan_filter_project/workers=4");
        assert_eq!(parsed[0].get("projected_speedup"), Some(2.5));
        assert_eq!(parsed[1].get("projected_speedup"), None);
    }

    #[test]
    fn projected_gate_fires_and_wall_gate_needs_comparable_hw() {
        let baseline = vec![
            point("scan_filter_project", 4, 2.8, true),
            point("distinct", 4, 1.5, false),
        ];
        // Identical run: clean.
        assert!(check_regressions(&GATE, &baseline, &baseline).is_empty());
        // Projected speedup collapse: flagged on any hardware.
        let mut bad = baseline.clone();
        set(&mut bad[0], "projected_speedup", |_| 1.1);
        let fails = check_regressions(&GATE, &bad, &baseline);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("projected_speedup"));
        // Wall drop on a different-shaped host: not flagged.
        let mut other_host = baseline.clone();
        for e in &mut other_host {
            e.host_cpus = 1;
            set(e, "wall_rows_per_sec", |v| v * 0.4);
            set(e, "wall_speedup", |v| v * 0.4);
        }
        set(&mut other_host[0], "projected_speedup", |_| 2.7); // projection stays
        assert!(check_regressions(&GATE, &other_host, &baseline).is_empty());
        // Wall drop on the same host shape with serial engines matching:
        // flagged.
        let mut real = baseline.clone();
        set(&mut real[1], "wall_rows_per_sec", |v| v * 0.5);
        assert_eq!(check_regressions(&GATE, &real, &baseline).len(), 1);
    }

    /// Diagnostic, not a gate: interleaved serial vs 1-worker-parallel
    /// timings to sanity-check measurement-order bias on noisy hosts. Run
    /// with `cargo test -p csq-bench --release -- --ignored --nocapture`.
    #[test]
    #[ignore = "manual perf probe"]
    fn order_probe_serial_vs_one_worker() {
        let schema = quotes_schema();
        let data = quotes_rows(1_000_000);
        for round in 0..4 {
            for which in ["serial  ", "kernels ", "parallel"] {
                let d = data.clone();
                let t = Instant::now();
                let n = if which == "serial  " {
                    sfp_batch_engine(&schema, d).len()
                } else if which == "kernels " {
                    // The same filter/project kernels with no operator
                    // plumbing: chunk → filter_rows → project_rows → out.
                    let filter = FilterStageFactory::new(filter_pred());
                    let project = ProjectStageFactory::new(project_exprs());
                    let mut f = filter.instantiate();
                    let mut pj = project.instantiate();
                    let schema = Arc::new(schema.clone());
                    let mut out: Vec<Row> = Vec::new();
                    let mut it = d.into_iter();
                    loop {
                        let chunk: Vec<Row> = it.by_ref().take(1024).collect();
                        if chunk.is_empty() {
                            break;
                        }
                        let b = RowBatch::from_rows(schema.clone(), chunk);
                        if let Some(b) = f.apply(b).unwrap() {
                            if let Some(b) = pj.apply(b).unwrap() {
                                out.extend(b.into_rows());
                            }
                        }
                    }
                    out.len()
                } else {
                    let scan = Box::new(RowsOp::new(schema.clone(), d));
                    let stages: Vec<Box<dyn StageFactory>> = vec![
                        Box::new(FilterStageFactory::new(filter_pred())),
                        Box::new(ProjectStageFactory::new(project_exprs())),
                    ];
                    let mut p = ParallelPipeline::new(scan, stages, opts(1, true)).unwrap();
                    collect(&mut p).unwrap().len()
                };
                eprintln!(
                    "round {round} {which}: {:>7.1}ms ({n} rows)",
                    t.elapsed().as_secs_f64() * 1e3
                );
            }
        }
    }

    #[test]
    fn quick_run_parallel_matches_serial_rows() {
        // Tiny smoke: the parallel engines must produce the same row counts
        // the serial engines do (full equivalence lives in the proptests).
        let schema = quotes_schema();
        let data = quotes_rows(3_000);
        let serial = sfp_batch_engine(&schema, data.clone());
        let scan = Box::new(RowsOp::new(schema, data));
        let stages: Vec<Box<dyn StageFactory>> = vec![
            Box::new(FilterStageFactory::new(filter_pred())),
            Box::new(ProjectStageFactory::new(project_exprs())),
        ];
        let mut p = ParallelPipeline::new(scan, stages, opts(4, true)).unwrap();
        assert_eq!(collect(&mut p).unwrap(), serial);
    }
}
