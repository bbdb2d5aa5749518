//! # csq-core — the PREDATOR-style database facade
//!
//! Ties the whole reproduction together: a [`Database`] owns the server
//! catalog, the client-site UDF runtime, and the network description; SQL
//! text goes in, rows come out. One statement path over one link: every
//! text goes through the plan cache, and every planned SELECT through one
//! run that lowers and drains one operator tree. Each client-site operator
//! ships over a virtual-time duplex to a client session that answers on the
//! statement's thread, every message timed by the discrete-event link
//! model; so [`Database::execute`] returns the rows and, in
//! [`QueryResult::sim`], the [`SimSummary`] of the statement's completion
//! time and per-link byte accounting, its final delivery included.
//!
//! [`Database::explain`] renders the §5 optimizer's plan from the same
//! cache; [`Database::optimize`] alone plans without it.
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
//! assert_eq!(out.sim.phases, 0); // no UDF: only the delivery crossed the modem
//! assert!(out.sim.elapsed_us > 0);
//! ```

#![warn(missing_docs)]

pub mod coord;
mod lower;
mod plancache;
mod result;
pub mod service;

pub use coord::{CoordStats, Coordinator, CoordinatorConfig};
pub use plancache::{PlanCache, PlanCacheStats, PlannedQuery};
use result::ResultBatches;
pub use result::{QueryResult, SimSummary};
pub use service::{ServiceConfig, ServiceHandle, ServiceStats};

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use csq_expr::{bind, Expr};
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
use csq_storage::TableProfile;
pub use csq_storage::{Catalog, Table, TableBuilder};

/// Capacity of the per-database plan cache (distinct SQL×context plans).
const PLAN_CACHE_CAPACITY: usize = 256;

/// The database: server catalog + client runtime + optimizer + network.
pub struct Database {
    catalog: Arc<Catalog>,
    client: Arc<ClientRuntime>,
    udf_metas: RwLock<Vec<UdfMeta>>,
    net: RwLock<NetworkSpec>,
    /// Bumped on every change outside the catalog that can alter a plan
    /// (UDFs, network, a coordinator's remote tables); plus the catalog's
    /// [`changes`](Catalog::changes), the [`plan_epoch`](Self::plan_epoch).
    plan_epoch: AtomicU64,
    plan_cache: PlanCache,
    /// Byte budget for stateful operators; lowering attaches it to every
    /// `HashAggregate` and `HashJoin`. Crossing it makes an aggregate or a
    /// keyed join spill to temp files instead of growing.
    /// Defaults to unlimited; see [`set_memory_budget`](Self::set_memory_budget).
    memory: RwLock<Arc<MemoryTracker>>,
    /// Tables whose rows live on a coordinator's shards, by lowercase name;
    /// empty except in a [`Coordinator`]'s engine.
    remote: RwLock<HashMap<String, RemoteTable>>,
    /// Shards the remote tables are hash-partitioned across: the
    /// coordinator's shard count, 0 for every other database.
    shards: usize,
}

/// A table whose rows live on a coordinator's shards (DESIGN.md §13): what
/// the coordinator's engine plans it by. It is never a catalog [`Table`], so
/// only a `Gather` reads its rows; a scan outside one is an unknown table.
struct RemoteTable {
    /// Name as created.
    name: String,
    schema: Schema,
    /// Ordinal of the hash-partitioning column.
    shard_col: usize,
    /// The rows routed to the shards, counted as they are routed.
    profile: TableProfile,
    /// Advertised distinct-value counts, by lowercase column name.
    col_distincts: HashMap<String, f64>,
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
            remote: RwLock::new(HashMap::new()),
            shards: 0,
        }
    }

    /// Cap the bytes the grouped aggregates and joins of all queries on
    /// this database may hold in memory — every phase of every aggregate
    /// placement and every join's build side, each table a spill reads
    /// back included; past the cap an aggregate spills group state to temp
    /// files and merges it back, and a keyed join partitions both sides to
    /// temp files and joins them pair by pair (larger-than-memory
    /// execution). A join with no key has nothing to partition on and stays
    /// in memory, its bytes counted. The budget is advisory — operators
    /// check it at batch boundaries — and shared, so concurrent queries
    /// degrade into spilling instead of compounding memory use.
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
    /// optimizer reads — catalog and remote-table statistics, UDF metadata,
    /// *and* the network description (see [`set_network`](Self::set_network), which
    /// bumps it) — rolls into this one counter, so equal epochs mean the
    /// optimizer would reproduce the same plan. A table's statistics move it
    /// whichever path changed them ([`Catalog::changes`]).
    pub fn plan_epoch(&self) -> u64 {
        self.plan_epoch.load(Ordering::SeqCst) + self.catalog.changes()
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

    /// The one optimizer context: catalog and remote tables (these with
    /// their shard keys), UDF metadata, the network and the shard count.
    fn opt_context(&self) -> OptContext {
        let mut ctx = OptContext::new(self.network()).with_shards(self.shards);
        for name in self.catalog.table_names() {
            if let Ok(t) = self.catalog.get(&name) {
                ctx.add_table(&name, csq_opt::context::stats_from_table(&t));
            }
        }
        for t in self.remote.read().values() {
            let stats = csq_opt::context::stats_from_profile(&t.schema, t.profile.clone());
            ctx.add_table(&t.name, stats);
            ctx.set_shard_key(&t.name, &t.schema.field(t.shard_col).name);
            for (column, d) in &t.col_distincts {
                ctx.set_col_distinct(&t.name, column, *d);
            }
        }
        for m in self.udf_metas.read().iter() {
            ctx.add_udf(m.clone());
        }
        ctx
    }

    /// Execute one SQL statement, planning a SELECT through the plan cache.
    /// A SELECT's result carries its virtual time ([`QueryResult::sim`]).
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        Ok(self.execute_cached_with(sql, &CancelToken::new())?.0)
    }

    /// Optimize a parsed SELECT against the current statistics, UDF metadata
    /// and network — the one way `Database` plans a query.
    fn plan(&self, sel: &csq_sql::SelectStmt) -> Result<(QueryGraph, OptimizedPlan)> {
        let ctx = self.opt_context();
        let graph = csq_opt::query::extract(sel, &ctx)?;
        let plan = csq_opt::optimize(&graph, &ctx)?;
        Ok((graph, plan))
    }

    /// [`execute`](Self::execute) for a SELECT only, its [`SimSummary`]
    /// also returned on its own; any other statement is a plan error.
    /// Outside tests only `csqbench` still calls it; it goes with the
    /// benchmark's own run entry point (ROADMAP item 0).
    pub fn execute_simulated(&self, sql: &str) -> Result<(QueryResult, SimSummary)> {
        let (planned, _) =
            self.plan_cached_select(sql, "execute_simulated only supports SELECT statements")?;
        let (out, _, _) = self.run_planned(&planned, false, &CancelToken::new(), None)?;
        let out = out.into_result(&self.network());
        let sim = out.sim.clone();
        Ok((out, sim))
    }

    /// The optimizer's chosen plan, rendered as an indented tree, with its
    /// estimated network cost; planned through the plan cache. Scan lines
    /// carry live zone-map pruning counts (`segments: N pruned / M`)
    /// computed against the current catalog, so selective filters are
    /// visible before running the query.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let (planned, _) = self.plan_cached_select(sql, "EXPLAIN only supports SELECT")?;
        Ok(self.render_explain(&planned.graph, &planned.plan))
    }

    /// [`explain`](Self::explain)'s text for a planned query.
    fn render_explain(&self, graph: &QueryGraph, plan: &OptimizedPlan) -> String {
        let mut notes = HashMap::new();
        self.scan_notes(graph, &plan.root, &[], &mut notes);
        format!(
            "{}cost: {:.6}s (est. {:.1} rows, {} states explored)\n",
            plan.root.explain_annotated(graph, &notes),
            plan.cost_seconds,
            plan.est_rows,
            plan.states_explored
        )
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
        notes: &mut HashMap<usize, String>,
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

    /// The planner on its own: parse and optimize `sql` against the current
    /// statistics, UDF metadata and network, every time. It never reads or
    /// fills the plan cache, so timing it times planning (tests and benches
    /// inspect plan shapes and planning cost through it).
    pub fn optimize(&self, sql: &str) -> Result<(QueryGraph, OptimizedPlan)> {
        match parse_statement(sql)? {
            Statement::Select(sel) => self.plan(&sel),
            _ => Err(CsqError::Plan("optimize only supports SELECT".into())),
        }
    }

    /// Run a `;`-separated script, returning the last statement's result.
    /// The whole script parses before any statement runs; each then runs
    /// from its own text, as [`execute`](Self::execute) runs it.
    pub fn execute_script(&self, sql: &str) -> Result<QueryResult> {
        let mut last = QueryResult::empty();
        for (_, text) in csq_sql::parse_statements(sql)? {
            last = self.execute(text)?;
        }
        Ok(last)
    }

    /// Apply a `CREATE TABLE` or an `INSERT`; returns the rows stored.
    fn apply(&self, write: Write, token: &CancelToken) -> Result<usize> {
        match write {
            Write::CreateTable { name, columns } => {
                let fields = columns
                    .into_iter()
                    .map(|(n, t)| csq_common::Field::new(n, t))
                    .collect();
                self.catalog
                    .register(Table::new(name, csq_common::Schema::new(fields))?)?;
                Ok(0)
            }
            Write::Insert { table, rows } => {
                // An unknown table is reported before any value is read, as
                // the coordinator reports it.
                self.catalog.get(&table)?;
                let rows = rows
                    .into_iter()
                    .map(|exprs| insert_values(exprs).map(Row::new))
                    .collect::<Result<Vec<Row>>>()?;
                self.insert_rows(&table, rows, token)
            }
        }
    }

    /// Append `rows` to `table`, coerced to its column types: the one write
    /// path, behind SQL `INSERT` and the service's typed `Insert` alike;
    /// returns the rows stored. It fails before storing any row (`token`
    /// spent, unknown table, a row that does not fit the schema) or stores
    /// them all, which moves the plan epoch (see [`Catalog::changes`]).
    pub fn insert_rows(&self, table: &str, rows: Vec<Row>, token: &CancelToken) -> Result<usize> {
        token.check()?;
        let t = self.catalog.get(table)?;
        let fields = t.schema().fields();
        let rows: Vec<Row> = rows
            .into_iter()
            .map(|r| {
                let mut values = r.into_values();
                for (v, f) in values.iter_mut().zip(fields) {
                    *v = coerce_to(std::mem::replace(v, Value::Null), f.dtype);
                }
                Row::new(values)
            })
            .collect();
        let n = rows.len();
        t.insert_all(rows)?;
        Ok(n)
    }

    // ---- the one statement path: the plan cache and the planned run -------

    /// Plan a SELECT through the plan cache: returns the (shared) planned
    /// query plus whether it was served from the cache. Non-SELECT
    /// statements cannot be prepared.
    pub fn prepare(&self, sql: &str) -> Result<(Arc<PlannedQuery>, bool)> {
        self.plan_cached_select(sql, "only SELECT statements can be prepared")
    }

    /// Execute a prepared plan. When the database's plan epoch moved since
    /// the plan was made (DDL, any change to a table's statistics, UDF
    /// re-registration, network change), the statement transparently
    /// replans first. Returns the result, the plan to pin for the next
    /// execution (same or replanned), and whether planning was skipped.
    pub fn execute_planned(
        &self,
        planned: &Arc<PlannedQuery>,
    ) -> Result<(QueryResult, Arc<PlannedQuery>, bool)> {
        let (out, fresh, reused) = self.run_planned(planned, true, &CancelToken::new(), None)?;
        Ok((out.into_result(&self.network()), fresh, reused))
    }

    /// [`execute`](Self::execute) under a cancellation token (deadline
    /// expiry or `cancel()` aborts at the next batch boundary with a typed
    /// `timeout`/`cancelled` error); also returns whether a cached plan was
    /// reused. A cache hit skips parsing *and* optimizing.
    pub fn execute_cached_with(
        &self,
        sql: &str,
        token: &CancelToken,
    ) -> Result<(QueryResult, bool)> {
        let (out, cache_hit) = self.run_sql(sql, token)?;
        Ok((out.into_result(&self.network()), cache_hit))
    }

    /// [`execute_cached_with`](Self::execute_cached_with), the result left
    /// as the executor's output batches.
    pub(crate) fn run_sql(&self, sql: &str, token: &CancelToken) -> Result<(ResultBatches, bool)> {
        match self.plan_cached(sql)? {
            Cached::Select(planned, hit) => {
                let (out, _, _) = self.run_planned(&planned, false, token, None)?;
                Ok((out, hit))
            }
            // DDL and DML answer with a count, never with rows.
            Cached::Write(write) => Ok((ResultBatches::count(self.apply(write, token)?), false)),
        }
    }

    /// `sql` as a SELECT planned through the plan cache, or as the parsed
    /// statement when it is not one. A cache hit skips the parse; a SELECT
    /// the cache lacks is planned, published and counted as a miss.
    pub(crate) fn plan_cached(&self, sql: &str) -> Result<Cached> {
        let epoch = self.plan_epoch();
        if let Some(planned) = self.plan_cache.lookup(epoch, sql) {
            return Ok(Cached::Select(planned, true));
        }
        Ok(match parse_statement(sql)? {
            Statement::Select(sel) => {
                let (graph, plan) = self.plan(&sel)?;
                let planned = Arc::new(PlannedQuery {
                    sql: sql.to_string(),
                    epoch,
                    graph,
                    plan,
                });
                self.plan_cache.insert(planned.clone());
                Cached::Select(planned, false)
            }
            Statement::CreateTable { name, columns } => {
                Cached::Write(Write::CreateTable { name, columns })
            }
            Statement::Insert { table, rows } => Cached::Write(Write::Insert { table, rows }),
        })
    }

    /// [`plan_cached`](Self::plan_cached) for an entry point that takes only
    /// a SELECT; any other statement is a plan error saying `not_select`.
    pub(crate) fn plan_cached_select(
        &self,
        sql: &str,
        not_select: &str,
    ) -> Result<(Arc<PlannedQuery>, bool)> {
        match self.plan_cached(sql)? {
            Cached::Select(planned, hit) => Ok((planned, hit)),
            Cached::Write(_) => Err(CsqError::Plan(not_select.into())),
        }
    }

    /// Run a planned SELECT, its `Gather` leaves answered by `gather` (a
    /// coordinator's; `None` elsewhere): the one call of
    /// [`lower::run_tree`]. A `pinned` plan, kept from an earlier lookup, is
    /// planned again through the cache first when the epoch moved (a stale
    /// replan); one [`plan_cached`](Self::plan_cached) just returned is
    /// current by that lookup, so a SELECT whose planning overlapped a
    /// concurrent write is not planned twice. Returns the output batches,
    /// the plan that ran and whether it was reused.
    pub(crate) fn run_planned(
        &self,
        planned: &Arc<PlannedQuery>,
        pinned: bool,
        token: &CancelToken,
        gather: Option<lower::Gather<'_>>,
    ) -> Result<(ResultBatches, Arc<PlannedQuery>, bool)> {
        let (planned, reused) = if !pinned || planned.epoch == self.plan_epoch() {
            (planned.clone(), true)
        } else {
            self.plan_cache.record_stale_replan();
            self.prepare(&planned.sql)?
        };
        let out = lower::run_tree(self, &planned.graph, &planned.plan, token, gather)?;
        Ok((out, planned, reused))
    }

    /// Plan-cache counters (hits/misses/stale replans/evictions).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }

    // ---- remote tables (a coordinator's engine) ---------------------------

    /// True when `name` is a remote table.
    pub(crate) fn has_remote_table(&self, name: &str) -> bool {
        self.remote.read().contains_key(&name.to_ascii_lowercase())
    }

    /// Add a remote table hash-partitioned on column `shard_col`, with no
    /// rows, and bump the plan epoch.
    pub(crate) fn create_remote_table(&self, name: String, schema: Schema, shard_col: usize) {
        let profile = TableProfile {
            col_wire_bytes: vec![0; schema.len()],
            ..TableProfile::default()
        };
        self.remote.write().insert(
            name.to_ascii_lowercase(),
            RemoteTable {
                name,
                schema,
                shard_col,
                profile,
                col_distincts: HashMap::new(),
            },
        );
        self.bump_plan_epoch();
    }

    /// Evaluate the rows of an `INSERT` into remote table `table`, coerce
    /// them to its column types, count them into its profile and bump the
    /// plan epoch; returns the table's name as created and the rows each of
    /// the `shards` shards owns by its shard-key hash. The one place a
    /// remote table's statistics move, so they never move without the
    /// epoch: a row that fails to evaluate fails the statement before any
    /// row is counted, and rows a shard later refuses stay counted.
    pub(crate) fn route_rows(
        &self,
        table: &str,
        rows: Vec<Vec<Expr>>,
    ) -> Result<(String, Vec<Vec<Row>>)> {
        let mut remote = self.remote.write();
        let t = remote
            .get_mut(&table.to_ascii_lowercase())
            .ok_or_else(|| CsqError::Catalog(format!("unknown table '{table}'")))?;
        let mut routed = Vec::with_capacity(rows.len());
        for exprs in rows {
            if exprs.len() != t.schema.len() {
                return Err(CsqError::Type(format!(
                    "table '{}': expected {} columns, got {}",
                    t.name,
                    t.schema.len(),
                    exprs.len()
                )));
            }
            let values = insert_values(exprs)?
                .into_iter()
                .zip(t.schema.fields())
                // Coerce to the declared column type before hashing: stored
                // and routed values must hash identically, and `Int(5)` and
                // `Float(5.0)` do not (shard pruning and routing both hash
                // the declared type).
                .map(|(v, f)| coerce_to(v, f.dtype))
                .collect();
            routed.push(Row::new(values));
        }
        let mut per_shard: Vec<Vec<Row>> = (0..self.shards).map(|_| Vec::new()).collect();
        t.profile.rows += routed.len();
        for row in routed {
            for (sum, v) in t.profile.col_wire_bytes.iter_mut().zip(row.values()) {
                *sum += v.wire_size() as u64;
            }
            per_shard[row.partition_of(Some(&[t.shard_col]), self.shards)].push(row);
        }
        let name = t.name.clone();
        drop(remote);
        self.bump_plan_epoch();
        Ok((name, per_shard))
    }

    /// Record the distinct-value count of remote `table.column` and bump the
    /// plan epoch; a table this database does not hold is ignored.
    pub(crate) fn set_col_distinct(&self, table: &str, column: &str, distinct: f64) {
        if let Some(t) = self.remote.write().get_mut(&table.to_ascii_lowercase()) {
            t.col_distincts
                .insert(column.to_ascii_lowercase(), distinct);
            self.bump_plan_epoch();
        }
    }
}

/// What [`Database::plan_cached`] made of one SQL text.
pub(crate) enum Cached {
    /// A planned SELECT, and whether the plan cache served it.
    Select(Arc<PlannedQuery>, bool),
    /// A `CREATE TABLE` or an `INSERT`, parsed.
    Write(Write),
}

/// A statement that is applied, not planned: every parsed statement but a
/// SELECT, so no SELECT can reach [`Database::apply`].
pub(crate) enum Write {
    /// `CREATE TABLE name (col type, ...)`.
    CreateTable {
        name: String,
        columns: Vec<(String, DataType)>,
    },
    /// `INSERT INTO table VALUES (..), (..)`.
    Insert { table: String, rows: Vec<Vec<Expr>> },
}

/// The values of one `INSERT` row: a literal is taken as it is, and any
/// other expression is bound over no columns and evaluated. `Database` and
/// the coordinator both read rows through it, so a cluster stores what one
/// server stores.
pub(crate) fn insert_values(exprs: Vec<Expr>) -> Result<Vec<Value>> {
    exprs
        .into_iter()
        .map(|e| match e {
            Expr::Literal(v) => Ok(v),
            e => bind(&e, &Schema::empty())
                .map_err(|_| CsqError::Plan("INSERT values must be literal expressions".into()))?
                .eval(&Row::new(Vec::new())),
        })
        .collect()
}

/// A value coerced to a column's declared type (INT → FLOAT is the only
/// SQL-sanctioned widening; anything else is left for the type check):
/// what [`Database::insert_rows`] stores and the coordinator routes by.
pub(crate) fn coerce_to(v: Value, dtype: DataType) -> Value {
    match (v, dtype) {
        (Value::Int(i), DataType::Float) => Value::Float(i as f64),
        (v, _) => v,
    }
}
