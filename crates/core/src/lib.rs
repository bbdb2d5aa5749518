//! # csq-core — the PREDATOR-style database facade
//!
//! Ties the whole reproduction together: a [`Database`] owns the server
//! catalog, the client-site UDF runtime, and the network description; SQL
//! text goes in, rows come out. Three execution paths:
//!
//! * [`Database::execute`] — the *threaded* engine: real sender/receiver
//!   threads, a real client thread, an in-memory duplex in real time (bytes
//!   counted, transfer instant). The correctness path.
//! * [`Database::execute_simulated`] — the *virtual-time* engine: the same
//!   plan, the same operator tree and the same client code; only the duplex
//!   under each client-site operator differs, every message on it timed by
//!   the discrete-event link model. Returns a [`SimSummary`] with
//!   completion time and per-link byte accounting.
//! * [`Database::explain`] — the §5 optimizer's chosen plan as text.
//!
//! ```
//! use csq_core::Database;
//! use csq_net::NetworkSpec;
//! use csq_client::synthetic::ObjectUdf;
//! use std::sync::Arc;
//!
//! let db = Database::new(NetworkSpec::modem_28_8());
//! db.execute("CREATE TABLE R (Id INT, Obj BLOB)").unwrap();
//! db.execute("INSERT INTO R VALUES (1, NULL)").unwrap();
//! db.register_udf(Arc::new(ObjectUdf::sized("F", 100))).unwrap();
//! let out = db.execute("SELECT R.Id FROM R R WHERE R.Id > 0").unwrap();
//! assert_eq!(out.rows.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod coord;
mod lower;
mod plancache;
mod result;
pub mod service;

pub use coord::{CoordStats, Coordinator, CoordinatorConfig};
pub use lower::SimSummary;
pub use plancache::{PlanCache, PlanCacheStats, PlannedQuery};
pub use result::QueryResult;
use result::ResultBatches;
pub use service::{ServiceConfig, ServiceHandle, ServiceStats};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use csq_expr::bind;
use csq_opt::{OptContext, QueryGraph};
use csq_sql::{parse_statement, Statement};

// Re-exported so the `csq` facade crate offers the full public vocabulary:
// building a database, loading tables, registering UDFs, and reading results
// all work from `csq::...` alone.
pub use csq_client::synthetic;
pub use csq_client::{ClientRuntime, ScalarUdf, UdfCost, UdfSignature};
pub use csq_client::{ConnectionPool, QueryOptions, RetryPolicy, ServiceConn};
pub use csq_common::{
    Blob, CancelToken, CsqError, DataType, Deadline, Field, Result, Row, RowBatch, Schema, Str,
    Value, DEFAULT_BATCH_SIZE,
};
pub use csq_exec::{AggSpec, HashAggregate, MemoryTracker};
pub use csq_expr::AggFunc;
pub use csq_net::{NetStats, NetworkSpec};
pub use csq_opt::{AggPlacement, OptimizedPlan, UdfMeta};
pub use csq_storage::{Catalog, Table, TableBuilder};

/// Capacity of the per-database plan cache (distinct SQL×context plans).
const PLAN_CACHE_CAPACITY: usize = 256;

/// The database: server catalog + client runtime + optimizer + network.
pub struct Database {
    catalog: Arc<Catalog>,
    client: Arc<ClientRuntime>,
    udf_metas: RwLock<Vec<UdfMeta>>,
    net: RwLock<NetworkSpec>,
    /// Bumped on every change that can alter a plan (DDL, DML, UDF
    /// (re-)registration, network change); cached plans are stamped with
    /// it so a stale plan can never be served.
    plan_epoch: AtomicU64,
    plan_cache: PlanCache,
    /// Byte budget for stateful operators; lowering attaches it to
    /// `HashAggregate` only. Crossing it makes the aggregate spill to temp
    /// files instead of growing.
    /// Defaults to unlimited; see [`set_memory_budget`](Self::set_memory_budget).
    memory: RwLock<Arc<MemoryTracker>>,
}

impl Database {
    /// A fresh database over the given client↔server network.
    pub fn new(net: NetworkSpec) -> Database {
        Database {
            catalog: Arc::new(Catalog::new()),
            client: Arc::new(ClientRuntime::new()),
            udf_metas: RwLock::new(Vec::new()),
            net: RwLock::new(net),
            plan_epoch: AtomicU64::new(0),
            plan_cache: PlanCache::new(PLAN_CACHE_CAPACITY),
            memory: RwLock::new(MemoryTracker::unlimited()),
        }
    }

    /// Cap the bytes the grouped aggregates of all queries on this database
    /// may hold in memory — every phase of every aggregate placement; past
    /// the cap they spill group state to temp files and merge it back
    /// (larger-than-memory execution). Joins are not budgeted: a SQL join
    /// runs as a `NestedLoopJoin`, which has no budget. The budget is
    /// advisory — operators check it at batch boundaries — and shared, so
    /// concurrent queries degrade into spilling instead of compounding
    /// memory use.
    pub fn set_memory_budget(&self, bytes: usize) {
        *self.memory.write() = MemoryTracker::new(bytes);
    }

    /// The operator memory tracker currently in force (spill counts feed
    /// observability; tests and benches attach it to standalone operators).
    pub fn memory_tracker(&self) -> Arc<MemoryTracker> {
        self.memory.read().clone()
    }

    /// Invalidate every cached plan (cheaply: by changing the epoch).
    fn bump_plan_epoch(&self) {
        self.plan_epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// The placement context a plan is valid under. Everything the
    /// optimizer reads — catalog statistics, UDF metadata, *and* the
    /// network description (see [`set_network`](Self::set_network), which
    /// bumps it) — rolls into this one counter, so equal epochs mean the
    /// optimizer would reproduce the same plan.
    pub fn plan_epoch(&self) -> u64 {
        self.plan_epoch.load(Ordering::SeqCst)
    }

    /// The server catalog (for direct table registration by workload
    /// generators).
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The client-site UDF runtime (for invocation accounting in tests).
    pub fn client_runtime(&self) -> &Arc<ClientRuntime> {
        &self.client
    }

    /// Replace the network description used by simulation and optimization
    /// (bandwidths and latencies feed the cost model, so this invalidates
    /// cached plans).
    pub fn set_network(&self, net: NetworkSpec) {
        *self.net.write() = net;
        self.bump_plan_epoch();
    }

    /// The current network description.
    pub fn network(&self) -> NetworkSpec {
        self.net.read().clone()
    }

    /// Register a client-site UDF: the implementation stays in the client
    /// runtime; the server only learns the advertised metadata (signature,
    /// expected result size, expected selectivity).
    pub fn register_udf(&self, udf: Arc<dyn ScalarUdf>) -> Result<()> {
        Self::check_udf_name(&udf)?;
        let meta = Self::meta_of(&udf);
        self.client.register(udf)?;
        self.udf_metas.write().push(meta);
        self.bump_plan_epoch();
        Ok(())
    }

    /// Re-register a UDF: replace the implementation *and* the advertised
    /// metadata under the same name (rolling out a new UDF version on a
    /// live service). Bumps the plan epoch, so every cached or prepared
    /// plan that saw the old metadata replans before its next execution.
    pub fn reregister_udf(&self, udf: Arc<dyn ScalarUdf>) -> Result<()> {
        Self::check_udf_name(&udf)?;
        let meta = Self::meta_of(&udf);
        self.client.replace(udf);
        let mut metas = self.udf_metas.write();
        metas.retain(|m| !m.name.eq_ignore_ascii_case(&meta.name));
        metas.push(meta);
        drop(metas);
        self.bump_plan_epoch();
        Ok(())
    }

    /// COUNT/SUM/MIN/MAX/AVG are contextual keywords in the SQL front
    /// end: `max(x)` always parses as the aggregate, so a scalar UDF with
    /// such a name could never be called — reject the collision instead
    /// of silently shadowing it (applies to registration and live
    /// re-registration alike).
    fn check_udf_name(udf: &Arc<dyn ScalarUdf>) -> Result<()> {
        let name = &udf.signature().name;
        if csq_expr::AggFunc::parse(name).is_some() {
            return Err(CsqError::Plan(format!(
                "cannot register UDF '{name}': the name collides with the SQL \
                 aggregate function {}",
                name.to_ascii_uppercase()
            )));
        }
        Ok(())
    }

    fn meta_of(udf: &Arc<dyn ScalarUdf>) -> UdfMeta {
        let sig = udf.signature().clone();
        UdfMeta {
            name: sig.name.clone(),
            arg_types: sig.arg_types.clone(),
            return_type: sig.return_type,
            result_bytes: udf.result_size_hint().unwrap_or(64) as f64,
            selectivity: udf.selectivity_hint().unwrap_or(1.0 / 3.0),
            client_site: true,
        }
    }

    /// Override the advertised metadata for a registered UDF (statistics
    /// tuning without touching the implementation).
    pub fn advertise_udf(&self, meta: UdfMeta) {
        let mut metas = self.udf_metas.write();
        metas.retain(|m| !m.name.eq_ignore_ascii_case(&meta.name));
        metas.push(meta);
        drop(metas);
        self.bump_plan_epoch();
    }

    fn opt_context(&self) -> OptContext {
        let mut ctx = OptContext::new(self.network());
        for name in self.catalog.table_names() {
            if let Ok(t) = self.catalog.get(&name) {
                ctx.add_table(&name, csq_opt::context::stats_from_table(&t));
            }
        }
        for m in self.udf_metas.read().iter() {
            ctx.add_udf(m.clone());
        }
        ctx
    }

    /// Execute one SQL statement on the threaded engine.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.execute_statement(parse_statement(sql)?)
    }

    /// Optimize a parsed SELECT against the current statistics, UDF metadata
    /// and network — the one way `Database` plans a query.
    fn plan(&self, sel: &csq_sql::SelectStmt) -> Result<(QueryGraph, OptimizedPlan)> {
        let ctx = self.opt_context();
        let graph = csq_opt::query::extract(sel, &ctx)?;
        let plan = csq_opt::optimize(&graph, &ctx)?;
        Ok((graph, plan))
    }

    /// Parse `sql` and [`plan`](Self::plan) it; any statement other than a
    /// SELECT is a plan error saying `not_select`.
    fn plan_sql(&self, sql: &str, not_select: &str) -> Result<(QueryGraph, OptimizedPlan)> {
        match parse_statement(sql)? {
            Statement::Select(sel) => self.plan(&sel),
            _ => Err(CsqError::Plan(not_select.into())),
        }
    }

    /// Execute a SELECT on the virtual-time engine, returning rows plus the
    /// simulated timing/byte summary under the database's network.
    pub fn execute_simulated(&self, sql: &str) -> Result<(QueryResult, SimSummary)> {
        let (graph, plan) =
            self.plan_sql(sql, "execute_simulated only supports SELECT statements")?;
        lower::execute_simulated(self, &graph, &plan)
    }

    /// The optimizer's chosen plan, rendered as an indented tree, with its
    /// estimated network cost. Scan lines carry live zone-map pruning
    /// counts (`segments: N pruned / M`) computed against the current
    /// catalog, so selective filters are visible before running the query.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let (graph, plan) = self.plan_sql(sql, "EXPLAIN only supports SELECT")?;
        let mut notes = std::collections::HashMap::new();
        self.scan_notes(&graph, &plan.root, &[], &mut notes);
        Ok(format!(
            "{}cost: {:.6}s (est. {:.1} rows, {} states explored)\n",
            plan.root.explain_annotated(&graph, &notes),
            plan.cost_seconds,
            plan.est_rows,
            plan.states_explored
        ))
    }

    /// Walk a plan and annotate each scan leaf with the segment counts the
    /// columnar engine would prune/scan, using lowering's own filter-spec
    /// compilation, [`lower::scan_spec`] (`preds` carries the predicate set
    /// of a Filter/Final node sitting directly on the scan, else none).
    fn scan_notes(
        &self,
        graph: &QueryGraph,
        node: &csq_opt::PlanNode,
        preds: &[usize],
        notes: &mut std::collections::HashMap<usize, String>,
    ) {
        use csq_opt::PlanNode;
        match node {
            PlanNode::Scan { unit } => {
                let csq_opt::Unit::Rel { alias, table, .. } = &graph.units[*unit] else {
                    return;
                };
                let Ok(t) = self.catalog.get(table) else {
                    return;
                };
                let spec = lower::scan_spec(graph, &t, alias, preds).ok().flatten();
                let stats = t.prune_stats(spec.as_ref());
                let mut note = format!(
                    "segments: {} pruned / {}",
                    stats.segments_pruned, stats.segments_total
                );
                if stats.tail_rows > 0 {
                    note.push_str(&format!(", {} tail rows", stats.tail_rows));
                }
                notes.insert(*unit, note);
            }
            PlanNode::Filter { input, preds }
            | PlanNode::Final {
                input,
                pushed_preds: preds,
                ..
            } => {
                self.scan_notes(graph, input, preds, notes);
            }
            PlanNode::Join { left, right } => {
                self.scan_notes(graph, left, &[], notes);
                self.scan_notes(graph, right, &[], notes);
            }
            PlanNode::ApplyUdf { input, .. }
            | PlanNode::ReturnToServer { input }
            | PlanNode::Aggregate { input, .. }
            | PlanNode::Scatter { input, .. }
            | PlanNode::Gather { input, .. } => {
                self.scan_notes(graph, input, &[], notes);
            }
        }
    }

    /// Optimize without executing (for tests and benches that inspect plan
    /// shapes).
    pub fn optimize(&self, sql: &str) -> Result<(QueryGraph, OptimizedPlan)> {
        self.plan_sql(sql, "optimize only supports SELECT")
    }

    /// Run a `;`-separated script, returning the last statement's result.
    pub fn execute_script(&self, sql: &str) -> Result<QueryResult> {
        let stmts = csq_sql::parse_statements(sql)?;
        let mut last = QueryResult::empty();
        for s in stmts {
            // Re-render is lossy; dispatch directly instead.
            last = self.execute_statement(s)?;
        }
        Ok(last)
    }

    fn execute_statement(&self, stmt: Statement) -> Result<QueryResult> {
        match stmt {
            Statement::Select(sel) => {
                let (graph, plan) = self.plan(&sel)?;
                let out = lower::execute_threaded(self, &graph, &plan, &CancelToken::new())?;
                Ok(out.into_result())
            }
            other => {
                // CREATE/INSERT share the text path; rebuild minimal SQL is
                // fragile, so inline the same logic via a helper.
                self.execute_nontext(other)
            }
        }
    }

    fn execute_nontext(&self, stmt: Statement) -> Result<QueryResult> {
        let result = match stmt {
            Statement::CreateTable { name, columns } => {
                let fields = columns
                    .into_iter()
                    .map(|(n, t)| csq_common::Field::new(n, t))
                    .collect();
                self.catalog
                    .register(Table::new(name, csq_common::Schema::new(fields))?)?;
                QueryResult::empty()
            }
            Statement::Insert { table, rows } => {
                let t = self.catalog.get(&table)?;
                let mut out = Vec::with_capacity(rows.len());
                let empty_schema = csq_common::Schema::empty();
                let empty_row = Row::new(vec![]);
                for exprs in rows {
                    let mut values: Vec<Value> = Vec::with_capacity(exprs.len());
                    for e in exprs {
                        let bound = bind(&e, &empty_schema).map_err(|_| {
                            CsqError::Plan("INSERT values must be literal expressions".into())
                        })?;
                        values.push(bound.eval(&empty_row)?);
                    }
                    out.push(Row::new(values));
                }
                let n = out.len();
                t.insert_all(out)?;
                QueryResult::count(n)
            }
            Statement::Select(_) => unreachable!("handled by execute_statement"),
        };
        // DDL and new rows both change what the optimizer would produce
        // (schemas, cardinalities, distinct-fraction statistics).
        self.bump_plan_epoch();
        Ok(result)
    }

    // ---- prepared statements and the plan cache ---------------------------

    /// Plan a SELECT through the plan cache: returns the (shared) planned
    /// query plus whether it was served from the cache. Non-SELECT
    /// statements cannot be prepared.
    pub fn prepare(&self, sql: &str) -> Result<(Arc<PlannedQuery>, bool)> {
        let epoch = self.plan_epoch();
        if let Some(planned) = self.plan_cache.lookup(epoch, sql) {
            return Ok((planned, true));
        }
        match parse_statement(sql)? {
            Statement::Select(sel) => Ok((self.plan_select(sql, &sel, epoch)?, false)),
            _ => Err(CsqError::Plan(
                "only SELECT statements can be prepared".into(),
            )),
        }
    }

    /// Optimize a parsed SELECT and publish it to the plan cache.
    fn plan_select(
        &self,
        sql: &str,
        sel: &csq_sql::SelectStmt,
        epoch: u64,
    ) -> Result<Arc<PlannedQuery>> {
        let (graph, plan) = self.plan(sel)?;
        let planned = Arc::new(PlannedQuery {
            sql: sql.to_string(),
            epoch,
            graph,
            plan,
        });
        self.plan_cache.insert(planned.clone());
        Ok(planned)
    }

    /// Execute a prepared plan on the threaded engine. When the database's
    /// plan epoch moved since the plan was made (DDL, DML, UDF
    /// re-registration, network change), the statement transparently
    /// replans first. Returns the result, the plan to pin for the next
    /// execution (same or replanned), and whether planning was skipped.
    pub fn execute_planned(
        &self,
        planned: &Arc<PlannedQuery>,
    ) -> Result<(QueryResult, Arc<PlannedQuery>, bool)> {
        self.execute_planned_with(planned, &CancelToken::new())
    }

    /// [`execute_planned`](Self::execute_planned) under a cancellation
    /// token: deadline expiry or an explicit `cancel()` aborts execution at
    /// the next batch boundary with a typed `timeout`/`cancelled` error.
    pub fn execute_planned_with(
        &self,
        planned: &Arc<PlannedQuery>,
        token: &CancelToken,
    ) -> Result<(QueryResult, Arc<PlannedQuery>, bool)> {
        let (out, fresh, reused) = self.execute_planned_batches(planned, token)?;
        Ok((out.into_result(), fresh, reused))
    }

    /// [`execute_planned_with`](Self::execute_planned_with), the result left
    /// as the executor's output batches.
    pub(crate) fn execute_planned_batches(
        &self,
        planned: &Arc<PlannedQuery>,
        token: &CancelToken,
    ) -> Result<(ResultBatches, Arc<PlannedQuery>, bool)> {
        if planned.epoch == self.plan_epoch() {
            let out = lower::execute_threaded(self, &planned.graph, &planned.plan, token)?;
            return Ok((out, planned.clone(), true));
        }
        self.plan_cache.record_stale_replan();
        let (fresh, cache_hit) = self.prepare(&planned.sql)?;
        let out = lower::execute_threaded(self, &fresh.graph, &fresh.plan, token)?;
        Ok((out, fresh, cache_hit))
    }

    /// Execute one statement, planning SELECTs through the plan cache (the
    /// query service's entry point). Returns the result plus whether a
    /// cached plan was reused. A cache hit skips parsing *and* optimizing.
    pub fn execute_cached(&self, sql: &str) -> Result<(QueryResult, bool)> {
        self.execute_cached_with(sql, &CancelToken::new())
    }

    /// [`execute_cached`](Self::execute_cached) under a cancellation token
    /// (the query service's entry point for deadline-carrying statements).
    pub fn execute_cached_with(
        &self,
        sql: &str,
        token: &CancelToken,
    ) -> Result<(QueryResult, bool)> {
        let (out, cache_hit) = self.execute_cached_batches(sql, token)?;
        Ok((out.into_result(), cache_hit))
    }

    /// [`execute_cached_with`](Self::execute_cached_with), the result left
    /// as the executor's output batches.
    pub(crate) fn execute_cached_batches(
        &self,
        sql: &str,
        token: &CancelToken,
    ) -> Result<(ResultBatches, bool)> {
        let epoch = self.plan_epoch();
        if let Some(planned) = self.plan_cache.lookup(epoch, sql) {
            let out = lower::execute_threaded(self, &planned.graph, &planned.plan, token)?;
            return Ok((out, true));
        }
        match parse_statement(sql)? {
            Statement::Select(sel) => {
                let planned = self.plan_select(sql, &sel, epoch)?;
                let out = lower::execute_threaded(self, &planned.graph, &planned.plan, token)?;
                Ok((out, false))
            }
            other => {
                // DDL and DML answer with a count, never with rows.
                let done = self.execute_nontext(other)?;
                let out = ResultBatches {
                    schema: done.schema,
                    batches: Vec::new(),
                    affected: done.affected,
                };
                Ok((out, false))
            }
        }
    }

    /// Plan-cache counters (hits/misses/stale replans/evictions).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }
}
