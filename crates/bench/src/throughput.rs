//! Local-engine throughput workload: batch engine vs. the pre-vectorization
//! row-at-a-time engine.
//!
//! The `rowref` module is a faithful replica of the executor as it existed
//! before the batch rework (per-row virtual dispatch, per-row projection
//! allocation, uncapacitied collect) so that
//! `results/BENCH_throughput.json` records a true before-vs-after
//! trajectory on the same data and expressions. Pipelines cover the
//! scan→filter→project hot path, hash join, and the client-site VM UDF
//! loop.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use csq_client::service::TaskExecutor;
use csq_client::{ClientRuntime, ClientTask, TaskMode, UdfStep};
use csq_common::{DataType, Field, Result, Row, Schema, Value, DEFAULT_BATCH_SIZE};
use csq_exec::{collect, Filter, HashJoin, Project, RowsOp};
use csq_expr::{BinaryOp, PhysExpr};

use crate::cli::BenchCli;
use crate::gate::{Bound, Entry, Gate, Metric};

/// The results file and gate of this bench: the batch-over-row speedup
/// gates on any host, batch rows/sec only on comparable hardware.
pub const GATE: Gate = Gate {
    name: "throughput",
    note: "reference = the pre-vectorization row engine's rows/sec on the same data; \
           speedup = batch_rows_per_sec / reference, gated where the baseline is >= 1.5x",
    tolerance: 0.20,
    multi_core: false,
    metrics: &[
        // Near-1x pipelines (join, VM UDF) have almost no headroom between
        // "baseline" and "no speedup at all", and the ratio wobbles with
        // the host's allocator/cache behavior — gate the ratio only where
        // the vectorization win is big enough for a 20% drop to be signal.
        Metric {
            min_baseline: 1.5,
            ..Metric::ratio("speedup")
        },
        Metric::absolute("batch_rows_per_sec", Bound::Min),
    ],
};

/// The `throughput` binary.
pub const CLI: BenchCli = BenchCli { gate: &GATE, run };

// ---- the pre-vectorization reference engine --------------------------------

/// Replica of the engine before the batch rework, kept verbatim so the
/// benchmark's "before" side stays honest across future PRs.
mod rowref {
    use super::*;

    /// Clone a value with the *seed* cost model: before this PR,
    /// `Value::Str` held a plain `String`, so every clone on the
    /// project/join paths deep-copied the payload (`Blob` was
    /// already refcounted). The reference engine reproduces that cost;
    /// the batch engine's refcounted `Str` is part of the measured change.
    pub fn seed_clone(v: &Value) -> Value {
        match v {
            Value::Str(s) => Value::from(s.as_str().to_owned()),
            other => other.clone(),
        }
    }

    /// Seed-cost expression evaluation: bare columns deep-copy like the
    /// pre-change `Value::clone`; anything else falls back to the shared
    /// evaluator (whose scalar clones cost the same in both eras).
    fn seed_eval(e: &PhysExpr, row: &Row) -> Result<Value> {
        match e {
            PhysExpr::Column(i) => Ok(seed_clone(row.value(*i))),
            other => other.eval(row),
        }
    }

    pub trait RowOp {
        fn schema(&self) -> &Schema;
        fn next(&mut self) -> Result<Option<Row>>;
    }

    pub fn ref_collect(op: &mut dyn RowOp) -> Result<Vec<Row>> {
        // Pre-change `collect`: grows from empty.
        let mut out = Vec::new();
        while let Some(row) = op.next()? {
            out.push(row);
        }
        Ok(out)
    }

    pub struct RefRows {
        schema: Schema,
        rows: std::vec::IntoIter<Row>,
    }

    impl RefRows {
        pub fn new(schema: Schema, rows: Vec<Row>) -> RefRows {
            RefRows {
                schema,
                rows: rows.into_iter(),
            }
        }
    }

    impl RowOp for RefRows {
        fn schema(&self) -> &Schema {
            &self.schema
        }
        fn next(&mut self) -> Result<Option<Row>> {
            Ok(self.rows.next())
        }
    }

    pub struct RefFilter {
        input: Box<dyn RowOp>,
        predicate: PhysExpr,
    }

    impl RefFilter {
        pub fn new(input: Box<dyn RowOp>, predicate: PhysExpr) -> RefFilter {
            RefFilter { input, predicate }
        }
    }

    impl RowOp for RefFilter {
        fn schema(&self) -> &Schema {
            self.input.schema()
        }
        fn next(&mut self) -> Result<Option<Row>> {
            while let Some(row) = self.input.next()? {
                if self.predicate.eval_predicate(&row)? {
                    return Ok(Some(row));
                }
            }
            Ok(None)
        }
    }

    pub struct RefProject {
        input: Box<dyn RowOp>,
        exprs: Vec<PhysExpr>,
        schema: Schema,
    }

    impl RefProject {
        pub fn new(input: Box<dyn RowOp>, exprs: Vec<(PhysExpr, Field)>) -> RefProject {
            let (exprs, fields): (Vec<_>, Vec<_>) = exprs.into_iter().unzip();
            RefProject {
                input,
                exprs,
                schema: Schema::new(fields),
            }
        }
    }

    impl RowOp for RefProject {
        fn schema(&self) -> &Schema {
            &self.schema
        }
        fn next(&mut self) -> Result<Option<Row>> {
            match self.input.next()? {
                None => Ok(None),
                Some(row) => {
                    let mut values = Vec::with_capacity(self.exprs.len());
                    for e in &self.exprs {
                        values.push(seed_eval(e, &row)?);
                    }
                    Ok(Some(Row::new(values)))
                }
            }
        }
    }

    pub struct RefHashJoin {
        left: Box<dyn RowOp>,
        right: Option<Box<dyn RowOp>>,
        left_key: Vec<usize>,
        right_key: Vec<usize>,
        schema: Schema,
        table: Option<HashMap<Row, Vec<Row>>>,
        pending: Vec<Row>,
    }

    impl RefHashJoin {
        pub fn new(
            left: Box<dyn RowOp>,
            right: Box<dyn RowOp>,
            left_key: Vec<usize>,
            right_key: Vec<usize>,
        ) -> RefHashJoin {
            let schema = left.schema().join(right.schema());
            RefHashJoin {
                left,
                right: Some(right),
                left_key,
                right_key,
                schema,
                table: None,
                pending: Vec::new(),
            }
        }
    }

    impl RowOp for RefHashJoin {
        fn schema(&self) -> &Schema {
            &self.schema
        }
        fn next(&mut self) -> Result<Option<Row>> {
            if self.table.is_none() {
                let mut right = self.right.take().expect("hash join built twice");
                let rows = ref_collect(right.as_mut())?;
                let mut table: HashMap<Row, Vec<Row>> = HashMap::with_capacity(rows.len());
                for r in rows {
                    table.entry(r.project(&self.right_key)).or_default().push(r);
                }
                self.table = Some(table);
            }
            loop {
                if let Some(m) = self.pending.pop() {
                    return Ok(Some(m));
                }
                let Some(l) = self.left.next()? else {
                    return Ok(None);
                };
                let key = l.project(&self.left_key);
                if key.values().iter().any(|v| v.is_null()) {
                    continue;
                }
                if let Some(matches) = self.table.as_ref().unwrap().get(&key) {
                    // Seed `Row::join` deep-copied string values from both
                    // sides into the concatenated row.
                    self.pending = matches
                        .iter()
                        .rev()
                        .map(|r| {
                            Row::new(
                                l.values()
                                    .iter()
                                    .chain(r.values())
                                    .map(seed_clone)
                                    .collect(),
                            )
                        })
                        .collect();
                }
            }
        }
    }
}

// ---- data generators -------------------------------------------------------

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

const SYMBOLS: usize = 64;

fn symbols() -> Vec<Value> {
    (0..SYMBOLS)
        .map(|i| Value::from(format!("SYM{i:03}")))
        .collect()
}

/// (id INT, price FLOAT, sym STRING) — the scan→filter→project relation.
pub fn quotes_schema() -> Schema {
    Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("price", DataType::Float),
        Field::new("sym", DataType::Str),
    ])
}

/// Deterministic quote rows; `price` is uniform-ish in [0, 100).
pub fn quotes_rows(n: usize) -> Vec<Row> {
    let syms = symbols();
    let mut state = 0x1234_5678_9ABC_DEF0u64;
    (0..n)
        .map(|i| {
            let price = (xorshift(&mut state) % 10_000) as f64 / 100.0;
            Row::new(vec![
                Value::Int(i as i64),
                Value::Float(price),
                syms[i % SYMBOLS].clone(),
            ])
        })
        .collect()
}

// ---- pipelines -------------------------------------------------------------

fn filter_pred() -> PhysExpr {
    // Range scan predicate: price > 25 AND price < 58.33 — selectivity
    // ≈ 1/3, the system's default selectivity assumption (see
    // `ScalarUdf::selectivity_hint`).
    let gt = PhysExpr::Binary {
        left: Box::new(PhysExpr::Column(1)),
        op: BinaryOp::Gt,
        right: Box::new(PhysExpr::Literal(Value::Float(25.0))),
    };
    let lt = PhysExpr::Binary {
        left: Box::new(PhysExpr::Column(1)),
        op: BinaryOp::Lt,
        right: Box::new(PhysExpr::Literal(Value::Float(58.33))),
    };
    PhysExpr::Binary {
        left: Box::new(gt),
        op: BinaryOp::And,
        right: Box::new(lt),
    }
}

fn project_exprs() -> Vec<(PhysExpr, Field)> {
    // Ordered column subset: the common SELECT shape, and the one the batch
    // engine projects in place.
    vec![
        (PhysExpr::Column(1), Field::new("price", DataType::Float)),
        (PhysExpr::Column(2), Field::new("sym", DataType::Str)),
    ]
}

fn sfp_row_engine(schema: &Schema, data: Vec<Row>) -> Vec<Row> {
    let scan = Box::new(rowref::RefRows::new(schema.clone(), data));
    let filtered = Box::new(rowref::RefFilter::new(scan, filter_pred()));
    let mut projected = rowref::RefProject::new(filtered, project_exprs());
    rowref::ref_collect(&mut projected).expect("row sfp")
}

fn sfp_batch_engine(schema: &Schema, data: Vec<Row>) -> Vec<Row> {
    let scan = Box::new(RowsOp::new(schema.clone(), data));
    let filtered = Box::new(Filter::new(scan, filter_pred()));
    let mut projected = Project::new(filtered, project_exprs());
    collect(&mut projected).expect("batch sfp")
}

const JOIN_BUILD: usize = 10_000;

fn probe_schema() -> Schema {
    Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("k", DataType::Int),
    ])
}

fn build_schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("name", DataType::Str),
    ])
}

/// Probe rows (id, k) with k cycling through the build side's keys.
pub fn probe_rows(n: usize) -> Vec<Row> {
    (0..n)
        .map(|i| {
            Row::new(vec![
                Value::Int(i as i64),
                Value::Int((i % JOIN_BUILD) as i64),
            ])
        })
        .collect()
}

/// Build rows (k, name).
pub fn build_rows() -> Vec<Row> {
    let syms = symbols();
    (0..JOIN_BUILD)
        .map(|k| Row::new(vec![Value::Int(k as i64), syms[k % SYMBOLS].clone()]))
        .collect()
}

fn join_row_engine(probe: Vec<Row>, build: Vec<Row>) -> Vec<Row> {
    let l = Box::new(rowref::RefRows::new(probe_schema(), probe));
    let r = Box::new(rowref::RefRows::new(build_schema(), build));
    let mut j = rowref::RefHashJoin::new(l, r, vec![1], vec![0]);
    rowref::ref_collect(&mut j).expect("row join")
}

fn join_batch_engine(probe: Vec<Row>, build: Vec<Row>) -> Vec<Row> {
    let l = Box::new(RowsOp::new(probe_schema(), probe));
    let r = Box::new(RowsOp::new(build_schema(), build));
    let mut j = HashJoin::new(l, r, vec![(1, 0)]);
    collect(&mut j).expect("batch join")
}

/// A VM UDF runtime hashing a 64-byte blob argument.
pub fn vm_runtime() -> Arc<ClientRuntime> {
    use csq_client::vm::{assemble, VmUdf};
    let program = assemble("load_arg 0\nblob_hash\nret").expect("vm program");
    let rt = ClientRuntime::new();
    rt.register(Arc::new(VmUdf::new(
        "Digest",
        vec![DataType::Blob],
        DataType::Int,
        program,
    )))
    .expect("register");
    Arc::new(rt)
}

/// (id INT, obj BLOB) rows for the UDF pipeline.
pub fn udf_rows(n: usize) -> Vec<Row> {
    (0..n)
        .map(|i| {
            Row::new(vec![
                Value::Int(i as i64),
                Value::Blob(csq_common::Blob::synthetic(64, (i % 512) as u64)),
            ])
        })
        .collect()
}

fn udf_task() -> ClientTask {
    ClientTask {
        mode: TaskMode::ClientJoin,
        input_width: 2,
        steps: vec![UdfStep {
            udf: "Digest".into(),
            arg_cols: vec![1],
        }],
        predicate: None,
        return_cols: None,
        dedup_cache: false,
    }
}

/// Pre-change client loop: per-row invoke (fresh VM stack each call) and
/// `with_value` (clones the whole row's value vector).
fn udf_row_engine(rt: &Arc<ClientRuntime>, rows: Vec<Row>) -> Vec<Row> {
    let arg_cols = [1usize];
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let args = row.project(&arg_cols);
        let v = rt.invoke("Digest", args.values()).expect("invoke");
        out.push(row.with_value(v));
    }
    out
}

fn udf_batch_engine(rt: &Arc<ClientRuntime>, rows: Vec<Row>) -> Vec<Row> {
    let mut ex = TaskExecutor::new(rt.clone(), udf_task()).expect("executor");
    let mut out = Vec::with_capacity(rows.len());
    let mut it = rows.into_iter();
    loop {
        let chunk: Vec<Row> = it.by_ref().take(DEFAULT_BATCH_SIZE).collect();
        if chunk.is_empty() {
            break;
        }
        out.extend(ex.process(chunk).expect("process"));
    }
    out
}

// ---- harness ---------------------------------------------------------------

const REPS: usize = 5;

/// Best-of-`REPS` throughput of `run` over `rows` input rows. `prep`
/// produces each repetition's input *outside* the timed section, and the
/// output rows are dropped *after* the clock stops, so the measurement
/// covers exactly the pipeline's production of its result.
fn measure<T, P, F>(rows: usize, prep: P, mut run: F) -> f64
where
    P: Fn() -> T,
    F: FnMut(T) -> Vec<Row>,
{
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let input = prep();
        let start = Instant::now();
        let out = std::hint::black_box(run(input));
        let secs = start.elapsed().as_secs_f64();
        assert!(out.len() <= rows * 2, "sanity: output explosion");
        drop(out);
        if secs < best {
            best = secs;
        }
    }
    rows as f64 / best
}

/// Run every pipeline at full scale (1M-row scan) or quick scale (÷10).
pub fn run(quick: bool) -> Vec<Entry> {
    let scale = if quick { 10 } else { 1 };
    let sfp_n = 1_000_000 / scale;
    let join_n = 500_000 / scale;
    let udf_n = 200_000 / scale;
    let entry = |pipeline: &str, rows: usize, row: f64, batch: f64| {
        Entry::new(quick, pipeline, row)
            .with("rows", rows as f64)
            .with("batch_rows_per_sec", batch)
            .with("speedup", batch / row)
    };
    let mut out = Vec::new();

    {
        let schema = quotes_schema();
        let data = quotes_rows(sfp_n);
        let row = measure(sfp_n, || data.clone(), |d| sfp_row_engine(&schema, d));
        let batch = measure(sfp_n, || data.clone(), |d| sfp_batch_engine(&schema, d));
        out.push(entry("scan_filter_project", sfp_n, row, batch));
    }
    {
        let probe = probe_rows(join_n);
        let build = build_rows();
        let prep = || (probe.clone(), build.clone());
        let row = measure(join_n, prep, |(p, b)| join_row_engine(p, b));
        let batch = measure(join_n, prep, |(p, b)| join_batch_engine(p, b));
        out.push(entry("hash_join", join_n, row, batch));
    }
    {
        let rt = vm_runtime();
        let data = udf_rows(udf_n);
        let row = measure(udf_n, || data.clone(), |d| udf_row_engine(&rt, d));
        let batch = measure(udf_n, || data.clone(), |d| udf_batch_engine(&rt, d));
        out.push(entry("vm_udf", udf_n, row, batch));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{check_regressions, parse_entries, render_document};

    #[test]
    fn row_and_batch_pipelines_agree_on_counts() {
        let schema = quotes_schema();
        let data = quotes_rows(5_000);
        assert_eq!(
            sfp_row_engine(&schema, data.clone()),
            sfp_batch_engine(&schema, data)
        );
        let probe = probe_rows(20_000);
        let build = build_rows();
        assert_eq!(
            join_row_engine(probe.clone(), build.clone()),
            join_batch_engine(probe, build)
        );
        let rt = vm_runtime();
        let data = udf_rows(3_000);
        assert_eq!(
            udf_row_engine(&rt, data.clone()),
            udf_batch_engine(&rt, data)
        );
    }

    #[test]
    fn udf_engines_agree_on_values() {
        let rt = vm_runtime();
        let rows = udf_rows(100);
        let mut ex = TaskExecutor::new(rt.clone(), udf_task()).unwrap();
        let batch_out = ex.process(rows.clone()).unwrap();
        for (row, got) in rows.into_iter().zip(batch_out) {
            let args = row.project(&[1]);
            let v = rt.invoke("Digest", args.values()).unwrap();
            assert_eq!(got, row.with_value(v));
        }
    }

    /// (reference row rows/sec, batch rows/sec) → an entry of this bench.
    fn entry(pipeline: &str, row: f64, batch: f64) -> Entry {
        let values = [("batch_rows_per_sec", batch), ("speedup", batch / row)];
        crate::gate::tests::entry(pipeline, row, &values)
    }

    #[test]
    fn json_roundtrip_and_regression_check() {
        let entries = vec![entry("scan_filter_project", 1_000_000.0, 4_000_000.0)];
        let doc = render_document(&GATE, &entries);
        let parsed = parse_entries(&doc).unwrap();
        assert_eq!(parsed, entries);

        // Same numbers: no regression.
        assert!(check_regressions(&GATE, &parsed, &entries).is_empty());
        // 30% batch drop on same hardware (row engine unchanged): flagged.
        let slower = vec![entry("scan_filter_project", 1_000_000.0, 2_800_000.0)];
        let fails = check_regressions(&GATE, &slower, &entries);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("scan_filter_project"));
        // A uniformly slower machine (both engines halved, speedup intact)
        // is not a regression.
        let slow_hw = vec![entry("scan_filter_project", 500_000.0, 2_000_000.0)];
        assert!(check_regressions(&GATE, &slow_hw, &entries).is_empty());
    }

    #[test]
    fn mid_run_hardware_slowdown_disarms_the_absolute_gate_run_wide() {
        // Two near-1x pipelines (speedup gate disarmed below 1.5x), as on
        // the vm_udf/hash_join entries.
        let baseline = vec![
            entry("first", 1_000_000.0, 1_300_000.0),
            entry("second", 2_000_000.0, 2_600_000.0),
        ];
        // CI runner slows down *after* the first pipeline: the first's row
        // engine still matches baseline, but its batch side (measured
        // second, mid-slowdown) dropped 30%; the second pipeline ran fully
        // on slow hardware. No pipeline may hard-fail on absolute rows/sec:
        // the second's row drift proves the hardware is not comparable.
        let mid_run_slowdown = vec![
            entry("first", 1_000_000.0, 910_000.0),
            entry("second", 1_000_000.0, 1_300_000.0),
        ];
        assert!(check_regressions(&GATE, &mid_run_slowdown, &baseline).is_empty());
        // Same batch drop with every row engine matching baseline: the
        // hardware is comparable, so the drop is real and flagged.
        let real_regression = vec![
            entry("first", 1_000_000.0, 910_000.0),
            entry("second", 2_000_000.0, 2_600_000.0),
        ];
        let fails = check_regressions(&GATE, &real_regression, &baseline);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("first") && fails[0].contains("batch_rows_per_sec"));
    }
}
