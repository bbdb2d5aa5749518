//! Morsel-driven parallel execution (DESIGN.md §4).
//!
//! [`ParallelPipeline`] runs a chain of per-batch stages (filter, project,
//! UDF application, …) over morsels of its source on a [`WorkerPool`]:
//!
//! * the **dispenser** (a `parking_lot`-locked wrapper around the source
//!   operator) hands out `(seq, morsel)` pairs — workers self-schedule by
//!   locking it whenever they finish a morsel, so skew balances itself;
//! * each **worker** instantiates its own private stage chain from the
//!   shared [`StageFactory`] list (predicates and projections are compiled
//!   once, cloned per worker) and reports exactly one message per morsel,
//!   including empty results — the gather side relies on gap-free sequence
//!   numbers;
//! * the **gather** side is the operator the caller pulls: in *ordered*
//!   mode a reorder buffer re-emits morsels in input order (what `Sort`
//!   stability and `Limit` prefix semantics above the pipeline need); in
//!   *unordered* mode results stream out as they complete.
//!
//! Errors surface deterministically in ordered mode: the failing morsel's
//! error is returned exactly where the serial engine would have stopped,
//! after all earlier morsels' output. A worker window keeps fast workers at
//! most [`ParallelOpts::window`] morsels ahead of the consumer, bounding the
//! reorder buffer.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;

use csq_common::{CancelToken, CsqError, Field, Result, RowBatch, Schema, DEFAULT_BATCH_SIZE};
use csq_expr::PhysExpr;

use crate::ops::{batch_operator, filter_rows, project_rows, Operator, PredPath, ProjPath};
use crate::pool::WorkerPool;
use crate::BoxOp;

/// Tuning knobs for [`ParallelPipeline`] and the exchange operators.
#[derive(Debug, Clone)]
pub struct ParallelOpts {
    /// Worker threads. `0` means [`WorkerPool::default_workers`] (the
    /// host's available parallelism).
    pub workers: usize,
    /// Rows per morsel (`0` → [`DEFAULT_BATCH_SIZE`]).
    pub morsel_rows: usize,
    /// Preserve input order at the gather (reorder buffer). Required under
    /// `Sort` (stability) and `Limit` (prefix semantics); turning it off
    /// lets results stream out as workers finish.
    pub ordered: bool,
    /// Max morsels workers may run ahead of the consumer (`0` → `8 ×`
    /// workers). Bounds the reorder buffer.
    pub window: usize,
    /// Cooperative cancellation: the dispenser consults this token before
    /// every morsel pull and surfaces a typed `Cancelled`/`Timeout` error
    /// through the ordered gather. The default token never fires.
    pub token: CancelToken,
}

impl Default for ParallelOpts {
    fn default() -> ParallelOpts {
        ParallelOpts {
            workers: 0,
            morsel_rows: 0,
            ordered: true,
            window: 0,
            token: CancelToken::new(),
        }
    }
}

impl ParallelOpts {
    /// Opts with an explicit worker count.
    pub fn with_workers(workers: usize) -> ParallelOpts {
        ParallelOpts {
            workers,
            ..ParallelOpts::default()
        }
    }

    /// Builder-style: disable order preservation.
    pub fn unordered(mut self) -> ParallelOpts {
        self.ordered = false;
        self
    }

    /// Builder-style: attach a cancellation token.
    pub fn with_token(mut self, token: CancelToken) -> ParallelOpts {
        self.token = token;
        self
    }

    pub(crate) fn resolved_workers(&self) -> usize {
        if self.workers == 0 {
            WorkerPool::default_workers()
        } else {
            self.workers
        }
    }

    pub(crate) fn resolved_morsel_rows(&self) -> usize {
        if self.morsel_rows == 0 {
            DEFAULT_BATCH_SIZE
        } else {
            self.morsel_rows
        }
    }

    fn resolved_window(&self, workers: usize) -> u64 {
        if self.window == 0 {
            (workers as u64) * 8
        } else {
            self.window as u64
        }
    }
}

/// One worker's private, stateful per-batch transform. Implementations may
/// keep caches or scratch buffers; they are never shared across threads.
pub trait BatchStage: Send {
    /// Transform one batch. `Ok(None)` means the batch was fully consumed
    /// (e.g. every row filtered out).
    fn apply(&mut self, batch: RowBatch) -> Result<Option<RowBatch>>;
}

impl<F> BatchStage for F
where
    F: FnMut(RowBatch) -> Result<Option<RowBatch>> + Send,
{
    fn apply(&mut self, batch: RowBatch) -> Result<Option<RowBatch>> {
        self(batch)
    }
}

/// Shared recipe for one stage of a parallel pipeline: validates the schema
/// once at build time and instantiates a private [`BatchStage`] per worker.
pub trait StageFactory: Send + Sync {
    /// Output schema for the given input schema.
    fn output_schema(&self, input: &Arc<Schema>) -> Result<Arc<Schema>>;

    /// Build one worker's stage instance.
    fn instantiate(&self) -> Box<dyn BatchStage>;
}

/// Parallel filter stage: the predicate is compiled once
/// (`PredPath::analyze`) and each worker gets its own copy of the
/// compiled form — semantics identical to the serial [`crate::Filter`].
pub struct FilterStageFactory {
    predicate: PhysExpr,
    path: PredPath,
}

impl FilterStageFactory {
    /// Compile `predicate` for parallel evaluation.
    pub fn new(predicate: PhysExpr) -> FilterStageFactory {
        let path = PredPath::analyze(&predicate);
        FilterStageFactory { predicate, path }
    }
}

impl StageFactory for FilterStageFactory {
    fn output_schema(&self, input: &Arc<Schema>) -> Result<Arc<Schema>> {
        Ok(input.clone())
    }

    fn instantiate(&self) -> Box<dyn BatchStage> {
        let predicate = self.predicate.clone();
        let path = self.path.clone();
        Box::new(move |batch: RowBatch| {
            let (schema, mut rows) = batch.into_parts();
            filter_rows(&path, &predicate, &mut rows)?;
            if rows.is_empty() {
                Ok(None)
            } else {
                Ok(Some(RowBatch::from_rows(schema, rows)))
            }
        })
    }
}

/// Parallel projection stage: expressions are classified once
/// (`ProjPath::analyze`) — semantics identical to the serial
/// [`crate::Project`], including the in-place and move fast paths.
pub struct ProjectStageFactory {
    exprs: Vec<PhysExpr>,
    path: ProjPath,
    schema: Arc<Schema>,
}

impl ProjectStageFactory {
    /// `exprs` paired with their output fields, as in [`crate::Project`].
    pub fn new(exprs: Vec<(PhysExpr, Field)>) -> ProjectStageFactory {
        let (exprs, fields): (Vec<_>, Vec<_>) = exprs.into_iter().unzip();
        let path = ProjPath::analyze(&exprs);
        ProjectStageFactory {
            exprs,
            path,
            schema: Arc::new(Schema::new(fields)),
        }
    }
}

impl StageFactory for ProjectStageFactory {
    fn output_schema(&self, _input: &Arc<Schema>) -> Result<Arc<Schema>> {
        Ok(self.schema.clone())
    }

    fn instantiate(&self) -> Box<dyn BatchStage> {
        let exprs = self.exprs.clone();
        let path = self.path.clone();
        let schema = self.schema.clone();
        Box::new(move |batch: RowBatch| {
            let rows = project_rows(&path, &exprs, batch.into_rows())?;
            Ok(Some(RowBatch::from_rows(schema.clone(), rows)))
        })
    }
}

/// Stage factory from a closure — how external subsystems plug their work
/// into the parallel engine (e.g. the client UDF-VM: the closure forks a
/// per-worker `TaskExecutor` and applies it batch by batch).
pub struct ClosureFactory {
    schema: Arc<Schema>,
    make: Arc<dyn Fn() -> Box<dyn BatchStage> + Send + Sync>,
}

impl ClosureFactory {
    /// A factory whose stages produce rows of `schema`.
    pub fn new<F>(schema: Schema, make: F) -> ClosureFactory
    where
        F: Fn() -> Box<dyn BatchStage> + Send + Sync + 'static,
    {
        ClosureFactory {
            schema: Arc::new(schema),
            make: Arc::new(make),
        }
    }
}

impl StageFactory for ClosureFactory {
    fn output_schema(&self, _input: &Arc<Schema>) -> Result<Arc<Schema>> {
        Ok(self.schema.clone())
    }

    fn instantiate(&self) -> Box<dyn BatchStage> {
        (self.make)()
    }
}

/// Shared progress state between dispenser, workers, and gather.
struct Gate {
    /// Morsels handed out so far (error slots included) — also the next seq.
    dispensed: AtomicU64,
    /// Morsels the consumer has retired.
    consumed: AtomicU64,
    /// Set when the operator is dropped or fails: spinning workers exit.
    abandoned: AtomicBool,
    /// Wall nanoseconds spent inside the dispenser lock (pulling the
    /// source + re-chunking). The dispenser is the pipeline's serialized
    /// stage, so this is its steady-state throughput bound; the parallel
    /// benchmark reads it via [`ParallelPipeline::dispense_secs`].
    dispense_ns: AtomicU64,
}

impl Gate {
    fn new() -> Gate {
        Gate {
            dispensed: AtomicU64::new(0),
            consumed: AtomicU64::new(0),
            abandoned: AtomicBool::new(false),
            dispense_ns: AtomicU64::new(0),
        }
    }

    /// Block (politely) until the worker may pull another morsel; `false`
    /// when the pipeline was abandoned.
    fn wait_for_window(&self, window: u64) -> bool {
        loop {
            if self.abandoned.load(Ordering::Relaxed) {
                return false;
            }
            let d = self.dispensed.load(Ordering::Acquire);
            let c = self.consumed.load(Ordering::Acquire);
            if d.saturating_sub(c) <= window {
                return true;
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }
}

/// The shared morsel source: the input operator plus a re-chunking queue,
/// behind a `parking_lot` mutex so workers can self-schedule pulls.
struct Dispenser {
    source: BoxOp,
    queue: VecDeque<RowBatch>,
    /// Total rows currently buffered in `queue`.
    buffered_rows: usize,
    /// The source returned `None`; only the queue remains.
    exhausted: bool,
    morsel_rows: usize,
    gate: Arc<Gate>,
    failed: bool,
    token: CancelToken,
}

impl Dispenser {
    /// Next `(seq, morsel)`, or `None` when exhausted (or failed — after a
    /// failure the remaining input is abandoned, as in the serial engine).
    /// Source batches are re-chunked toward `morsel_rows`: oversized
    /// batches split, undersized ones coalesce (never reordering rows), so
    /// per-morsel scheduling overhead is paid once per `morsel_rows` rows
    /// even when the source emits smaller batches.
    fn next_morsel(&mut self) -> Result<Option<(u64, RowBatch)>> {
        if self.failed {
            return Ok(None);
        }
        // Cancellation checkpoint: every worker passes through here once
        // per morsel, so a tripped token stops the whole pipeline within
        // one morsel's work. The error rides the normal failure path — one
        // worker claims an error seq and the ordered gather surfaces the
        // typed Cancelled/Timeout exactly where the stream stopped.
        if let Err(e) = self.token.check() {
            self.failed = true;
            return Err(e);
        }
        while self.buffered_rows < self.morsel_rows && !self.exhausted {
            match self.source.next_batch() {
                Ok(Some(b)) => {
                    self.buffered_rows += b.len();
                    self.queue.push_back(b);
                }
                Ok(None) => self.exhausted = true,
                Err(e) => {
                    self.failed = true;
                    return Err(e);
                }
            }
        }
        let Some(first) = self.queue.pop_front() else {
            return Ok(None);
        };
        self.buffered_rows -= first.len();
        let morsel = if first.len() > self.morsel_rows {
            // Oversized: emit one morsel, keep the remainder in order.
            let mut parts = first.split_morsels(self.morsel_rows).into_iter();
            let head = parts.next().expect("split of a non-empty batch");
            let rest: Vec<RowBatch> = parts.collect();
            for p in rest.into_iter().rev() {
                self.buffered_rows += p.len();
                self.queue.push_front(p);
            }
            head
        } else if first.len() == self.morsel_rows || self.queue.is_empty() {
            first
        } else {
            // Undersized: coalesce following whole batches while they fit.
            let (schema, mut rows) = first.into_parts();
            while let Some(next) = self.queue.front() {
                if rows.len() + next.len() > self.morsel_rows {
                    break;
                }
                let next = self.queue.pop_front().expect("front checked");
                self.buffered_rows -= next.len();
                rows.extend(next.into_rows());
            }
            RowBatch::from_rows(schema, rows)
        };
        let seq = self.gate.dispensed.fetch_add(1, Ordering::AcqRel);
        Ok(Some((seq, morsel)))
    }

    /// Claim a sequence slot for an error report, so the gather sees a
    /// gap-free stream and surfaces the error at a deterministic position.
    fn claim_error_seq(&mut self) -> u64 {
        self.gate.dispensed.fetch_add(1, Ordering::AcqRel)
    }
}

type MorselResult = (u64, Result<Option<RowBatch>>);

fn apply_chain(chain: &mut [Box<dyn BatchStage>], batch: RowBatch) -> Result<Option<RowBatch>> {
    let mut cur = batch;
    for stage in chain.iter_mut() {
        match stage.apply(cur)? {
            Some(b) => cur = b,
            None => return Ok(None),
        }
    }
    Ok(Some(cur))
}

/// Convert a panic in user-provided stage (or source) code into an exec
/// error, so the gather surfaces it in-band instead of deadlocking on a
/// sequence gap (a dead worker can neither report its morsel nor retire
/// the window the survivors spin on).
fn catch_panic<R>(what: &str, f: impl FnOnce() -> Result<R>) -> Result<R> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|_| {
        Err(CsqError::Exec(format!(
            "parallel worker panicked in {what}"
        )))
    })
}

fn worker_loop(
    dispenser: Arc<Mutex<Dispenser>>,
    gate: Arc<Gate>,
    factories: Arc<Vec<Box<dyn StageFactory>>>,
    out_tx: Sender<MorselResult>,
    window: u64,
) {
    // A panicking stage constructor must still be reported (all workers
    // dying silently would end the stream with no rows and no error).
    let chain = catch_panic("a stage constructor", || {
        Ok(factories
            .iter()
            .map(|f| f.instantiate())
            .collect::<Vec<_>>())
    });
    let mut chain = match chain {
        Ok(c) => c,
        Err(e) => {
            let mut d = dispenser.lock();
            d.failed = true;
            let seq = d.claim_error_seq();
            drop(d);
            let _ = out_tx.send((seq, Err(e)));
            return;
        }
    };
    loop {
        if !gate.wait_for_window(window) {
            return;
        }
        let (seq, morsel) = {
            let mut d = dispenser.lock();
            let t = std::time::Instant::now();
            // A panic inside the source operator surfaces as an error seq
            // too: `next_morsel` claims the seq only as its final step, so
            // an unwound pull has not created a gap yet.
            let pulled = catch_panic("the source operator", || d.next_morsel());
            gate.dispense_ns
                .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            match pulled {
                Ok(Some(x)) => x,
                Ok(None) => return,
                Err(e) => {
                    d.failed = true;
                    let seq = d.claim_error_seq();
                    drop(d);
                    let _ = out_tx.send((seq, Err(e)));
                    return;
                }
            }
        };
        let result = catch_panic("a stage", || apply_chain(&mut chain, morsel));
        let failed = result.is_err();
        if failed {
            // Poison the dispenser first so siblings stop pulling input.
            dispenser.lock().failed = true;
        }
        if out_tx.send((seq, result)).is_err() || failed {
            return;
        }
    }
}

/// Morsel-driven parallel execution of a stage chain over a source operator.
/// See the module docs for the architecture; this type is the gather side
/// and implements [`Operator`] like any other.
pub struct ParallelPipeline {
    // Field order is drop order: the receiver disconnects first (unblocking
    // workers mid-send), then the pool joins them.
    out_rx: Receiver<MorselResult>,
    gate: Arc<Gate>,
    pending: BTreeMap<u64, Result<Option<RowBatch>>>,
    next_seq: u64,
    ordered: bool,
    failed: bool,
    hint: Option<usize>,
    schema: Arc<Schema>,
    _pool: WorkerPool,
}

impl ParallelPipeline {
    /// Build and start the pipeline: `stages` run over morsels of `source`
    /// on `opts.workers` threads. Schemas are validated eagerly.
    pub fn new(
        source: BoxOp,
        stages: Vec<Box<dyn StageFactory>>,
        opts: ParallelOpts,
    ) -> Result<ParallelPipeline> {
        let workers = opts.resolved_workers();
        let window = opts.resolved_window(workers);
        let mut schema = Arc::new(source.schema().clone());
        for f in &stages {
            schema = f.output_schema(&schema)?;
        }
        let hint = source.size_hint();
        let gate = Arc::new(Gate::new());
        let dispenser = Arc::new(Mutex::new(Dispenser {
            source,
            queue: VecDeque::new(),
            buffered_rows: 0,
            exhausted: false,
            morsel_rows: opts.resolved_morsel_rows(),
            gate: gate.clone(),
            failed: false,
            token: opts.token.clone(),
        }));
        let factories = Arc::new(stages);
        // Capacity above the window so the *window* (which the gather
        // retires against) governs run-ahead, not channel blocking — a
        // worker parking on a full channel per couple of morsels costs two
        // context switches per morsel and dominated the coordinator time.
        let (out_tx, out_rx) = bounded(window as usize + workers);
        let pool = WorkerPool::new(workers);
        for _ in 0..workers {
            let dispenser = dispenser.clone();
            let gate = gate.clone();
            let factories = factories.clone();
            let out_tx = out_tx.clone();
            pool.spawn(move || worker_loop(dispenser, gate, factories, out_tx, window));
        }
        // Workers hold the only senders now: the channel disconnects when
        // the last worker exits.
        drop(out_tx);
        Ok(ParallelPipeline {
            out_rx,
            gate,
            pending: BTreeMap::new(),
            next_seq: 0,
            ordered: opts.ordered,
            failed: false,
            hint,
            schema,
            _pool: pool,
        })
    }

    /// Wall seconds spent so far inside the (serialized) morsel dispenser —
    /// source pulls plus re-chunking. The parallel benchmark uses this to
    /// model the pipeline's serial stage.
    pub fn dispense_secs(&self) -> f64 {
        self.gate.dispense_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    fn retire(&mut self) {
        self.next_seq += 1;
        self.gate.consumed.store(self.next_seq, Ordering::Release);
    }

    fn fail(&mut self, e: CsqError) -> Result<Option<RowBatch>> {
        self.failed = true;
        // Unblock any worker spinning on the window.
        self.gate.abandoned.store(true, Ordering::Relaxed);
        Err(e)
    }

    fn produce(&mut self) -> Result<Option<RowBatch>> {
        if self.failed {
            return Ok(None);
        }
        loop {
            if self.ordered {
                if let Some(entry) = self.pending.remove(&self.next_seq) {
                    self.retire();
                    match entry {
                        Ok(Some(b)) if !b.is_empty() => return Ok(Some(b)),
                        Ok(_) => continue,
                        Err(e) => return self.fail(e),
                    }
                }
            }
            match self.out_rx.recv() {
                Ok((seq, res)) => {
                    if self.ordered {
                        // Fast path: morsels usually arrive in order (the
                        // window keeps workers near the consumer), so skip
                        // the reorder buffer when this is the next seq.
                        if seq == self.next_seq && self.pending.is_empty() {
                            self.retire();
                            match res {
                                Ok(Some(b)) if !b.is_empty() => return Ok(Some(b)),
                                Ok(_) => continue,
                                Err(e) => return self.fail(e),
                            }
                        }
                        self.pending.insert(seq, res);
                    } else {
                        self.retire();
                        match res {
                            Ok(Some(b)) if !b.is_empty() => return Ok(Some(b)),
                            Ok(_) => continue,
                            Err(e) => return self.fail(e),
                        }
                    }
                }
                Err(_) => {
                    // All workers exited. Drain whatever is buffered, then
                    // verify nothing was lost to an abnormal worker death.
                    if self.ordered && self.pending.contains_key(&self.next_seq) {
                        continue;
                    }
                    let dispensed = self.gate.dispensed.load(Ordering::Acquire);
                    if self.next_seq < dispensed {
                        return self.fail(CsqError::Exec(
                            "parallel worker terminated without reporting its morsel".into(),
                        ));
                    }
                    return Ok(None);
                }
            }
        }
    }
}

impl Drop for ParallelPipeline {
    fn drop(&mut self) {
        self.gate.abandoned.store(true, Ordering::Relaxed);
        // Field drops do the rest: out_rx disconnects, the pool joins.
    }
}

batch_operator!(ParallelPipeline, hint: |s: &ParallelPipeline| s.hint);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{collect, RowsOp};
    use csq_common::{DataType, Row, Value};
    use csq_expr::BinaryOp;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ])
    }

    fn rows(n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| Row::new(vec![Value::Int(i), Value::Int(i * 10)]))
            .collect()
    }

    fn gt_pred(col: usize, lit: i64) -> PhysExpr {
        PhysExpr::Binary {
            left: Box::new(PhysExpr::Column(col)),
            op: BinaryOp::Gt,
            right: Box::new(PhysExpr::Literal(Value::Int(lit))),
        }
    }

    fn sfp_stages() -> Vec<Box<dyn StageFactory>> {
        vec![
            Box::new(FilterStageFactory::new(gt_pred(0, 9))),
            Box::new(ProjectStageFactory::new(vec![(
                PhysExpr::Column(1),
                Field::new("b", DataType::Int),
            )])),
        ]
    }

    #[test]
    fn pipeline_dispenses_morsels_over_pruned_columnar_scan() {
        // A ColumnarScan source feeds the dispenser segment by segment; the
        // pipeline re-chunks those into morsels, and zone-map pruning means
        // the workers never see the disproved segments at all.
        use crate::ops::ColumnarScan;
        use csq_storage::{FilterSpec, Table};
        let t = Table::with_segment_rows("t", schema(), 64).unwrap();
        t.insert_all(rows(1000)).unwrap();
        let pred = gt_pred(0, 899);
        let spec = FilterSpec::from_phys(&pred).unwrap();
        let t = std::sync::Arc::new(t);
        let scan = ColumnarScan::new(&t, "t", Some(&spec)).unwrap();
        assert!(
            scan.scan_stats().segments_pruned >= 10,
            "tight range must prune most 64-row segments"
        );
        let mut p = ParallelPipeline::new(
            Box::new(scan),
            vec![Box::new(FilterStageFactory::new(pred))],
            opts(4, true),
        )
        .unwrap();
        let out = collect(&mut p).unwrap();
        assert_eq!(out.len(), 100);
        assert_eq!(out[0].value(0), &Value::Int(900));
        assert_eq!(out[99].value(0), &Value::Int(999));
    }

    fn opts(workers: usize, ordered: bool) -> ParallelOpts {
        ParallelOpts {
            workers,
            morsel_rows: 7, // tiny morsels: force real multi-morsel scheduling
            ordered,
            ..ParallelOpts::default()
        }
    }

    #[test]
    fn ordered_gather_matches_serial_exactly() {
        for workers in [1, 2, 4, 8] {
            let serial = {
                let scan = Box::new(RowsOp::new(schema(), rows(500)));
                let f = Box::new(crate::Filter::new(scan, gt_pred(0, 9)));
                let mut p = crate::Project::new(
                    f,
                    vec![(PhysExpr::Column(1), Field::new("b", DataType::Int))],
                );
                collect(&mut p).unwrap()
            };
            let scan = Box::new(RowsOp::new(schema(), rows(500)));
            let mut par = ParallelPipeline::new(scan, sfp_stages(), opts(workers, true)).unwrap();
            assert_eq!(par.schema().len(), 1);
            assert_eq!(collect(&mut par).unwrap(), serial, "workers = {workers}");
        }
    }

    #[test]
    fn unordered_gather_matches_as_multiset() {
        let scan = Box::new(RowsOp::new(schema(), rows(500)));
        let mut par = ParallelPipeline::new(scan, sfp_stages(), opts(4, false)).unwrap();
        let mut got = collect(&mut par).unwrap();
        got.sort_by_key(|r| r.value(0).as_i64().unwrap());
        let expect: Vec<Row> = (10..500)
            .map(|i| Row::new(vec![Value::Int(i * 10)]))
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn empty_source_and_fully_filtered_input() {
        let scan = Box::new(RowsOp::new(schema(), Vec::new()));
        let mut par = ParallelPipeline::new(scan, sfp_stages(), opts(3, true)).unwrap();
        assert!(collect(&mut par).unwrap().is_empty());

        let scan = Box::new(RowsOp::new(schema(), rows(100)));
        let stages: Vec<Box<dyn StageFactory>> =
            vec![Box::new(FilterStageFactory::new(gt_pred(0, 1_000)))];
        let mut par = ParallelPipeline::new(scan, stages, opts(3, true)).unwrap();
        assert!(collect(&mut par).unwrap().is_empty());
    }

    #[test]
    fn identity_pipeline_preserves_input() {
        let scan = Box::new(RowsOp::new(schema(), rows(100)));
        let mut par = ParallelPipeline::new(scan, Vec::new(), opts(4, true)).unwrap();
        assert_eq!(par.size_hint(), Some(100));
        assert_eq!(collect(&mut par).unwrap(), rows(100));
    }

    #[test]
    fn stage_error_is_deterministic_in_ordered_mode() {
        // Row 250 has a Str where Ints live: the projection's eval path
        // errors on it, after rows 10..=249 were already emitted.
        let mut data = rows(500);
        data[250] = Row::new(vec![Value::Int(250), Value::from("boom")]);
        let sum = PhysExpr::Binary {
            left: Box::new(PhysExpr::Column(1)),
            op: BinaryOp::Add,
            right: Box::new(PhysExpr::Literal(Value::Int(1))),
        };
        let stages: Vec<Box<dyn StageFactory>> = vec![Box::new(ProjectStageFactory::new(vec![(
            sum,
            Field::new("s", DataType::Int),
        )]))];
        let scan = Box::new(RowsOp::new(schema(), data));
        let mut par = ParallelPipeline::new(scan, stages, opts(4, true)).unwrap();
        let mut seen = 0usize;
        let err = loop {
            match par.next_batch() {
                Ok(Some(b)) => seen += b.len(),
                Ok(None) => panic!("expected an error"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), "type");
        // Every complete morsel before the failing one was delivered
        // (morsel_rows = 7; row 250 lives in morsel 35 → 245 prior rows).
        assert_eq!(seen, 245);
        // After the error the operator is done, not wedged.
        assert!(par.next_batch().unwrap().is_none());
    }

    #[test]
    fn mid_stream_stage_panic_errors_instead_of_hanging() {
        // A worker dying mid-stream must not wedge the ordered gather: the
        // panic is caught and reported as that morsel's error. Input is
        // far larger than window × morsel_rows, so without in-band
        // reporting the survivors would stall on the window forever.
        let schema = Arc::new(Schema::new(vec![Field::new("a", DataType::Int)]));
        let data: Vec<Row> = (0..5_000).map(|i| Row::new(vec![Value::Int(i)])).collect();
        let make_schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        let stages: Vec<Box<dyn StageFactory>> =
            vec![Box::new(ClosureFactory::new(make_schema, || {
                Box::new(move |batch: RowBatch| {
                    if batch.iter().any(|r| r.value(0).as_i64() == Ok(2_100)) {
                        panic!("stage bug");
                    }
                    Ok(Some(batch))
                })
            }))];
        let scan = Box::new(RowsOp::new(Schema::clone(&schema), data));
        let mut par = ParallelPipeline::new(scan, stages, opts(4, true)).unwrap();
        let mut seen = 0usize;
        let err = loop {
            match par.next_batch() {
                Ok(Some(b)) => seen += b.len(),
                Ok(None) => panic!("expected an error"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), "exec");
        assert!(err.to_string().contains("panicked"), "{err}");
        // Ordered gather delivered exactly the morsels before the
        // panicking one (its boundary lies within one morsel of row 2100).
        assert!(
            (2_094..=2_100).contains(&seen),
            "delivered prefix of {seen} rows"
        );
        assert!(par.next_batch().unwrap().is_none(), "failed, not wedged");
    }

    #[test]
    fn tripped_token_surfaces_typed_error_and_stops() {
        let token = CancelToken::new();
        let scan = Box::new(RowsOp::new(schema(), rows(50_000)));
        let mut par =
            ParallelPipeline::new(scan, sfp_stages(), opts(4, true).with_token(token.clone()))
                .unwrap();
        let first = par.next_batch().unwrap().unwrap();
        assert!(!first.is_empty());
        token.cancel();
        // Within a bounded number of pulls the gather must surface the
        // typed error (buffered morsels may still drain first).
        let mut cancelled = false;
        for _ in 0..10_000 {
            match par.next_batch() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(e) => {
                    assert_eq!(e.kind(), "cancelled");
                    cancelled = true;
                    break;
                }
            }
        }
        assert!(cancelled, "cancellation never surfaced");
        assert!(par.next_batch().unwrap().is_none(), "failed, not wedged");
    }

    #[test]
    fn expired_deadline_token_times_out_before_first_batch() {
        let token = CancelToken::with_timeout(Duration::ZERO);
        let scan = Box::new(RowsOp::new(schema(), rows(500)));
        let mut par =
            ParallelPipeline::new(scan, sfp_stages(), opts(2, true).with_token(token)).unwrap();
        let err = match par.next_batch() {
            Ok(Some(_)) => panic!("no rows should be dispensed past an expired deadline"),
            Ok(None) => panic!("expected a timeout error"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), "timeout");
    }

    #[test]
    fn early_drop_shuts_workers_down() {
        let scan = Box::new(RowsOp::new(schema(), rows(10_000)));
        let mut par = ParallelPipeline::new(scan, sfp_stages(), opts(4, true)).unwrap();
        let first = par.next_batch().unwrap().unwrap();
        assert!(!first.is_empty());
        drop(par); // must not hang or leak threads
    }

    #[test]
    fn limit_over_ordered_pipeline_takes_the_prefix() {
        let scan = Box::new(RowsOp::new(schema(), rows(500)));
        let par = ParallelPipeline::new(scan, Vec::new(), opts(4, true)).unwrap();
        let mut lim = crate::Limit::new(Box::new(par), 42);
        assert_eq!(collect(&mut lim).unwrap(), rows(500)[..42].to_vec());
    }
}
