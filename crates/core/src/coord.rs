//! Scatter/gather coordinator over hash-sharded server instances
//! (DESIGN.md §13).
//!
//! A [`Coordinator`] fronts several independent query services (each an
//! ordinary [`Database`] behind
//! [`service::start`](crate::service::start)), hash-partitions every table
//! across them by a per-table **shard key**, and executes SQL by scattering
//! per-shard statements and gathering their results:
//!
//! * **DDL** broadcasts to every shard, so all shards hold every table's
//!   (empty) schema.
//! * **INSERT** routes each row to the shard owning the hash bucket of its
//!   shard-key value, then re-renders a per-shard `INSERT`.
//! * **SELECT** is parsed and planned once, through the ordinary optimizer
//!   in a sharded [`OptContext`] (statistics maintained coordinator-side
//!   from the routed inserts), and runs the plan its EXPLAIN prints:
//!   - **pushdown** — single-table, non-aggregate queries run verbatim on
//!     every live shard (or only the shard pinned by a `key = literal`
//!     conjunct) and the gather concatenates rows in shard order, each
//!     shard's checked against the statement's output schema;
//!   - **lowered** — everything else goes through the single-node lowering,
//!     each `Gather` node a leaf over the rows its per-shard statement
//!     returned. Under a [`AggPlacement::ShardPartial`] aggregate that
//!     statement is a rewritten partial query (`GROUP BY` keys plus
//!     decomposed aggregate state — AVG splits into SUM + COUNT), and the
//!     aggregate merges the states with [`HashAggregate::finalize`](csq_exec::HashAggregate::finalize);
//!     any other `Gather` fetches its relation's rows under the conjuncts
//!     that need that relation alone, pinned when one fixes its shard key.
//!     Joins, client-site UDFs and client-only aggregates run above the
//!     leaves at the coordinator (a join is a nested loop under a filter);
//!     nothing is repartitioned across shards.
//!
//! **Failure semantics.** Every per-shard statement goes through the §10
//! retry machinery ([`ConnectionPool::query_with`] under the configured
//! [`QueryOptions`]), so a dead or slow shard surfaces as a *typed,
//! retryable* error tagged with the shard index instead of hanging the
//! gather; the other shards' fetches still complete before the error is
//! returned. [`Coordinator::replace_shard`] swaps a failed shard's address
//! and bumps the **topology epoch**, which (together with the DDL epoch) is
//! part of every cached plan's fingerprint — a topology change can never be
//! served a stale plan.

use std::collections::HashMap;
use std::net::{SocketAddr, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use csq_client::{ConnectionPool, QueryOptions, RemoteResult, ScalarUdf};
use csq_common::{CancelToken, CsqError, DataType, Field, Result, Row, Schema, Value};
use csq_exec::{BoxOp, RowsOp};
use csq_expr::{bind, ColumnRef, Expr, UnaryOp};
use csq_net::NetworkSpec;
use csq_opt::context::TableStats;
use csq_opt::query::extract;
use csq_opt::shard::{pinned_shard_value, pushable};
use csq_opt::{AggPlacement, GatherMode, OptContext, OptimizedPlan, PlanNode, QueryGraph, Unit};
use csq_sql::ast::SelectStmt;
use csq_sql::{parse_statement, Statement};

use crate::result::QueryResult;
use crate::Database;

/// Cached coordinator plans (distinct SQL texts). Small: the coordinator
/// fronts few distinct statement shapes; on overflow the whole cache is
/// reset (cheap, and correctness never depends on residency).
const COORD_PLAN_CACHE_CAPACITY: usize = 64;

/// Tunables for one [`Coordinator`].
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Network description between the coordinator and the shards — feeds
    /// the cost model's gather-traffic estimates.
    pub net: NetworkSpec,
    /// Connections pooled per shard.
    pub pool_size: usize,
    /// Per-shard statement options: the deadline/retry policy every
    /// scattered statement runs under (§10). Defaults to no deadline and no
    /// retry; production deployments should set both so a failed shard
    /// turns into a typed retryable error instead of an unbounded wait.
    pub shard_options: QueryOptions,
}

impl Default for CoordinatorConfig {
    fn default() -> CoordinatorConfig {
        CoordinatorConfig {
            net: NetworkSpec::lan(),
            pool_size: 2,
            shard_options: QueryOptions::new(),
        }
    }
}

/// Monotonic coordinator counters (all relaxed; read for tests and ops).
#[derive(Debug, Default)]
pub struct CoordStats {
    /// SELECTs executed.
    pub queries: AtomicU64,
    /// SELECTs answered by forwarding the statement verbatim to shards.
    pub pushdown_queries: AtomicU64,
    /// SELECTs answered by per-shard partial aggregation + merge.
    pub partial_agg_queries: AtomicU64,
    /// Other SELECTs whose plan the coordinator lowers over gathered leaves
    /// (joins, client-site UDFs, client-only aggregates).
    pub gather_exec_queries: AtomicU64,
    /// SELECT plans served from the coordinator plan cache.
    pub plan_cache_hits: AtomicU64,
    /// Per-shard statements sent (scatter fan-out).
    pub shard_statements: AtomicU64,
    /// Shard contacts skipped because a conjunct pinned the shard key.
    pub shards_pruned: AtomicU64,
    /// Per-shard statements that failed (after their own retry policy).
    pub shard_failures: AtomicU64,
    /// Rows hash-routed by INSERT.
    pub rows_routed: AtomicU64,
}

impl CoordStats {
    fn bump(field: &AtomicU64) {
        field.fetch_add(1, Ordering::Relaxed);
    }

    fn add(field: &AtomicU64, n: u64) {
        field.fetch_add(n, Ordering::Relaxed);
    }
}

/// Coordinator-side shadow of one sharded table: the schema, the shard-key
/// ordinal, and running statistics maintained from routed inserts (the
/// coordinator never scans shards to re-derive them).
struct TableShadow {
    /// Catalog-case table name (as created).
    name: String,
    schema: Schema,
    /// Ordinal of the hash-partitioning column.
    shard_col: usize,
    rows: u64,
    row_byte_sum: f64,
    col_byte_sums: Vec<f64>,
}

impl TableShadow {
    fn stats(&self) -> TableStats {
        let n = (self.rows.max(1)) as f64;
        TableStats {
            schema: self.schema.clone(),
            rows: self.rows as f64,
            row_bytes: self.row_byte_sum / n,
            col_bytes: self.col_byte_sums.iter().map(|b| b / n).collect(),
            segments: Default::default(),
        }
    }
}

/// One shard: its address and connection pool.
struct ShardSlot {
    addr: SocketAddr,
    pool: ConnectionPool,
}

/// How a planned SELECT executes across the shards.
enum Strategy {
    /// Forward the original statement to the target shards; concatenate
    /// rows in shard order (`Gather [ordered]`).
    Pushdown {
        sql: String,
        target: Option<usize>,
        out_schema: Schema,
    },
    /// Lower the plan, each `Gather` a leaf over the rows its per-shard
    /// statement returned.
    Lowered {
        graph: Box<QueryGraph>,
        plan: OptimizedPlan,
        /// One per `Gather`, in [`PlanNode::walk`] order.
        leaves: Vec<Leaf>,
    },
}

/// The per-shard statement behind one `Gather` of a lowered plan.
struct Leaf {
    /// Under a shard-partial aggregate the partial-aggregation rewrite,
    /// otherwise `SELECT * FROM t a [WHERE conjuncts on a alone]`.
    sql: String,
    /// Pinned shard, when a conjunct fixes the relation's shard key.
    target: Option<usize>,
    /// What the returned rows are checked against and read under.
    schema: Schema,
}

/// A planned-and-cached coordinator statement: valid only while both epochs
/// it was planned under still hold.
struct ShardPlan {
    ddl_epoch: u64,
    topology_epoch: u64,
    explain: String,
    strategy: Strategy,
}

/// The scatter/gather coordinator; see the module docs.
pub struct Coordinator {
    shards: RwLock<Vec<ShardSlot>>,
    /// Bumped by [`replace_shard`](Coordinator::replace_shard): part of the
    /// plan-cache fingerprint, so topology changes invalidate cached plans.
    topology_epoch: AtomicU64,
    /// Bumped by DDL, routed DML, and UDF registration (statistics and
    /// schemas feed the optimizer): the other half of the fingerprint.
    ddl_epoch: AtomicU64,
    tables: RwLock<HashMap<String, TableShadow>>,
    /// The coordinator's own engine, over an empty catalog: it holds the
    /// registered UDFs (implementations and advertised metadata) and runs
    /// the coordinator's part of every lowered plan.
    engine: Database,
    distincts: RwLock<HashMap<String, f64>>,
    plans: Mutex<HashMap<String, Arc<ShardPlan>>>,
    config: CoordinatorConfig,
    stats: CoordStats,
}

impl Coordinator {
    /// Connect to the query services at `addrs` (one per shard, already
    /// running) under `config`.
    pub fn connect<A: ToSocketAddrs>(
        addrs: &[A],
        config: CoordinatorConfig,
    ) -> Result<Coordinator> {
        if addrs.is_empty() {
            return Err(CsqError::Config(
                "a coordinator needs at least one shard address".into(),
            ));
        }
        let mut shards = Vec::with_capacity(addrs.len());
        for a in addrs {
            shards.push(Self::dial(a, config.pool_size)?);
        }
        Ok(Coordinator {
            shards: RwLock::new(shards),
            topology_epoch: AtomicU64::new(0),
            ddl_epoch: AtomicU64::new(0),
            tables: RwLock::new(HashMap::new()),
            engine: Database::new(config.net.clone()),
            distincts: RwLock::new(HashMap::new()),
            plans: Mutex::new(HashMap::new()),
            config,
            stats: CoordStats::default(),
        })
    }

    fn dial(addr: impl ToSocketAddrs, pool_size: usize) -> Result<ShardSlot> {
        let resolved = addr
            .to_socket_addrs()
            .map_err(|e| CsqError::Net(format!("resolve shard address: {e}")))?
            .next()
            .ok_or_else(|| CsqError::Net("shard address resolved to nothing".into()))?;
        Ok(ShardSlot {
            addr: resolved,
            pool: ConnectionPool::new(resolved, pool_size)?,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.read().len()
    }

    /// The current topology epoch (bumped by
    /// [`replace_shard`](Coordinator::replace_shard)).
    pub fn topology_epoch(&self) -> u64 {
        self.topology_epoch.load(Ordering::SeqCst)
    }

    /// Coordinator counters.
    pub fn stats(&self) -> &CoordStats {
        &self.stats
    }

    /// Swap shard `idx` to a replacement service at `addr` (failover: the
    /// replacement is assumed to hold the shard's data). Bumps the topology
    /// epoch, so every cached plan replans before its next execution.
    pub fn replace_shard(&self, idx: usize, addr: impl ToSocketAddrs) -> Result<()> {
        let slot = Self::dial(addr, self.config.pool_size)?;
        let mut shards = self.shards.write();
        let Some(entry) = shards.get_mut(idx) else {
            return Err(CsqError::Config(format!(
                "replace_shard: shard {idx} out of range ({} shards)",
                shards.len()
            )));
        };
        *entry = slot;
        drop(shards);
        self.topology_epoch.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Register a client-site UDF with the coordinator, which runs it in
    /// lowered plans (shards never hold UDF implementations, so UDF queries
    /// are never pushed down). Refused as [`Database::register_udf`] refuses
    /// it: a duplicate name, or one colliding with an SQL aggregate.
    pub fn register_udf(&self, udf: Arc<dyn ScalarUdf>) -> Result<()> {
        self.engine.register_udf(udf)?;
        self.bump_ddl();
        Ok(())
    }

    /// Record the distinct-value count of `table.column`, driving the
    /// enumerator's per-shard group estimate (and hence the
    /// shard-partial-vs-gather choice).
    pub fn advertise_distinct(&self, table: &str, column: &str, distinct: f64) {
        self.distincts.write().insert(
            format!(
                "{}.{}",
                table.to_ascii_lowercase(),
                column.to_ascii_lowercase()
            ),
            distinct,
        );
        self.bump_ddl();
    }

    fn bump_ddl(&self) {
        self.ddl_epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// Create a table hash-partitioned on `shard_key`: the `CREATE TABLE`
    /// broadcasts to every shard, and the coordinator records the schema
    /// and routing column.
    pub fn create_table(&self, sql: &str, shard_key: &str) -> Result<QueryResult> {
        let Statement::CreateTable { name, columns } = parse_statement(sql)? else {
            return Err(CsqError::Plan(
                "create_table expects a CREATE TABLE statement".into(),
            ));
        };
        let shard_col = columns
            .iter()
            .position(|(c, _)| c.eq_ignore_ascii_case(shard_key))
            .ok_or_else(|| {
                CsqError::Catalog(format!(
                    "shard key '{shard_key}' is not a column of table '{name}'"
                ))
            })?;
        let fields: Vec<Field> = columns
            .iter()
            .map(|(c, t)| Field::new(c.clone(), *t))
            .collect();
        let key = name.to_ascii_lowercase();
        if self.tables.read().contains_key(&key) {
            return Err(CsqError::Catalog(format!("table '{name}' already exists")));
        }
        let shards = self.shards.read();
        let jobs: Vec<(usize, String)> = (0..shards.len()).map(|i| (i, sql.to_string())).collect();
        self.scatter(&shards, &jobs)?;
        drop(shards);
        let width = fields.len();
        self.tables.write().insert(
            key,
            TableShadow {
                name,
                schema: Schema::new(fields),
                shard_col,
                rows: 0,
                row_byte_sum: 0.0,
                col_byte_sums: vec![0.0; width],
            },
        );
        self.bump_ddl();
        Ok(QueryResult::empty())
    }

    /// Execute one SQL statement across the shards: INSERTs hash-route,
    /// SELECTs scatter/gather. `CREATE TABLE` must go through
    /// [`create_table`](Coordinator::create_table) (it needs a shard key).
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        match parse_statement(sql)? {
            Statement::CreateTable { name, .. } => Err(CsqError::Plan(format!(
                "CREATE TABLE '{name}' on a coordinator needs a shard key; \
                 use Coordinator::create_table(sql, shard_key)"
            ))),
            Statement::Insert { table, rows } => self.route_insert(&table, rows),
            Statement::Select(sel) => self.execute_select(sql, &sel),
        }
    }

    /// The coordinator's chosen scatter/gather plan for a SELECT, rendered
    /// as an indented tree (`Scatter [n shards, k pruned]` / `Gather
    /// [ordered|merge]` nodes included), plus its estimated cost.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let Statement::Select(sel) = parse_statement(sql)? else {
            return Err(CsqError::Plan("EXPLAIN only supports SELECT".into()));
        };
        Ok(self.plan_select(sql, &sel)?.explain.clone())
    }

    // ---- INSERT routing ---------------------------------------------------

    fn route_insert(&self, table: &str, rows: Vec<Vec<Expr>>) -> Result<QueryResult> {
        let shards = self.shards.read();
        let n = shards.len();
        let mut tables = self.tables.write();
        let shadow = tables
            .get_mut(&table.to_ascii_lowercase())
            .ok_or_else(|| CsqError::Catalog(format!("unknown table '{table}'")))?;
        let empty_schema = Schema::empty();
        let empty_row = Row::new(vec![]);
        let mut per_shard: Vec<Vec<Row>> = (0..n).map(|_| Vec::new()).collect();
        let mut routed = 0u64;
        for exprs in rows {
            if exprs.len() != shadow.schema.len() {
                return Err(CsqError::Type(format!(
                    "table '{}': expected {} columns, got {}",
                    shadow.name,
                    shadow.schema.len(),
                    exprs.len()
                )));
            }
            let mut values: Vec<Value> = Vec::with_capacity(exprs.len());
            for (i, e) in exprs.iter().enumerate() {
                let bound = bind(e, &empty_schema).map_err(|_| {
                    CsqError::Plan("INSERT values must be literal expressions".into())
                })?;
                let v = bound.eval(&empty_row)?;
                // Coerce to the declared column type before hashing: stored
                // and routed values must hash identically, and `Int(5)` and
                // `Float(5.0)` do not (shard pruning and routing both hash
                // the declared type).
                values.push(coerce_to(v, shadow.schema.field(i).dtype)?);
            }
            let row = Row::new(values);
            shadow.rows += 1;
            shadow.row_byte_sum += row.wire_size() as f64;
            for (i, v) in row.values().iter().enumerate() {
                shadow.col_byte_sums[i] += v.wire_size() as f64;
            }
            routed += 1;
            let at = row.partition_of(Some(&[shadow.shard_col]), n);
            per_shard[at].push(row);
        }
        let mut jobs = Vec::new();
        for (i, batch) in per_shard.iter().enumerate() {
            if !batch.is_empty() {
                jobs.push((i, render_insert(&shadow.name, batch)?));
            }
        }
        drop(tables);
        self.scatter(&shards, &jobs)?;
        drop(shards);
        CoordStats::add(&self.stats.rows_routed, routed);
        self.bump_ddl(); // Cardinalities moved; cached plans are stale.
        Ok(QueryResult::count(routed as usize))
    }

    // ---- SELECT -----------------------------------------------------------

    fn execute_select(&self, sql: &str, sel: &SelectStmt) -> Result<QueryResult> {
        CoordStats::bump(&self.stats.queries);
        let planned = self.plan_select(sql, sel)?;
        match &planned.strategy {
            Strategy::Pushdown {
                sql,
                target,
                out_schema,
            } => {
                CoordStats::bump(&self.stats.pushdown_queries);
                self.run_pushdown(sql, *target, out_schema)
            }
            Strategy::Lowered {
                graph,
                plan,
                leaves,
            } => {
                let shard_partial = matches!(
                    plan.root,
                    PlanNode::Aggregate {
                        placement: AggPlacement::ShardPartial,
                        ..
                    }
                );
                CoordStats::bump(if shard_partial {
                    &self.stats.partial_agg_queries
                } else {
                    &self.stats.gather_exec_queries
                });
                self.run_lowered(graph, plan, leaves)
            }
        }
    }

    /// Plan `sql` through the coordinator plan cache. A cached plan is
    /// valid only under the exact (DDL epoch, topology epoch) pair it was
    /// made under — DDL/DML move statistics, and a topology change moves
    /// where hash buckets live.
    fn plan_select(&self, sql: &str, sel: &SelectStmt) -> Result<Arc<ShardPlan>> {
        let ddl = self.ddl_epoch.load(Ordering::SeqCst);
        let topo = self.topology_epoch.load(Ordering::SeqCst);
        {
            let plans = self.plans.lock();
            if let Some(p) = plans.get(sql) {
                if p.ddl_epoch == ddl && p.topology_epoch == topo {
                    CoordStats::bump(&self.stats.plan_cache_hits);
                    return Ok(p.clone());
                }
            }
        }
        let ctx = self.opt_context();
        let graph = extract(sel, &ctx)?;
        let optimized = csq_opt::optimize(&graph, &ctx)?;
        let explain = format!(
            "{}cost: {:.6}s (est. {:.1} rows)\n",
            optimized.root.explain(&graph),
            optimized.cost_seconds,
            optimized.est_rows
        );
        let strategy = if pushable(&graph) && graph.aggregate.is_none() {
            pushdown(sql, &graph, &ctx)?
        } else {
            Strategy::Lowered {
                leaves: leaves(&graph, &optimized.root, &ctx)?,
                graph: Box::new(graph),
                plan: optimized,
            }
        };
        let plan = Arc::new(ShardPlan {
            ddl_epoch: ddl,
            topology_epoch: topo,
            explain,
            strategy,
        });
        let mut plans = self.plans.lock();
        if plans.len() >= COORD_PLAN_CACHE_CAPACITY {
            plans.clear();
        }
        plans.insert(sql.to_string(), plan.clone());
        Ok(plan)
    }

    /// The sharded optimizer context: shadow statistics, shard keys, UDF
    /// metadata, and the coordinator↔shard network.
    fn opt_context(&self) -> OptContext {
        let shards = self.shards.read().len();
        let mut ctx = OptContext::new(self.config.net.clone()).with_shards(shards);
        for shadow in self.tables.read().values() {
            ctx.add_table(&shadow.name, shadow.stats());
            ctx.set_shard_key(&shadow.name, &shadow.schema.field(shadow.shard_col).name);
        }
        for meta in self.engine.udf_metas.read().iter() {
            ctx.add_udf(meta.clone());
        }
        for (key, d) in self.distincts.read().iter() {
            if let Some((t, c)) = key.split_once('.') {
                ctx.set_col_distinct(t, c, *d);
            }
        }
        ctx
    }

    fn run_pushdown(
        &self,
        sql: &str,
        target: Option<usize>,
        out_schema: &Schema,
    ) -> Result<QueryResult> {
        let shards = self.shards.read();
        let jobs = self.jobs_for(shards.len(), target, sql);
        let results = self.scatter(&shards, &jobs)?;
        drop(shards);
        let mut rows = Vec::new();
        for (r, (shard, _)) in results.into_iter().zip(&jobs) {
            check_rows(&r.rows, out_schema, *shard)?;
            rows.extend(r.rows);
        }
        Ok(QueryResult {
            schema: out_schema.clone(),
            rows,
            affected: 0,
        })
    }

    /// Fetch every leaf's rows, check them, and run the plan over them.
    fn run_lowered(
        &self,
        graph: &QueryGraph,
        plan: &OptimizedPlan,
        leaves: &[Leaf],
    ) -> Result<QueryResult> {
        let shards = self.shards.read();
        let mut ops: Vec<BoxOp> = Vec::with_capacity(leaves.len());
        for leaf in leaves {
            let jobs = self.jobs_for(shards.len(), leaf.target, &leaf.sql);
            let mut rows = Vec::new();
            for (r, (shard, _)) in self.scatter(&shards, &jobs)?.into_iter().zip(&jobs) {
                check_rows(&r.rows, &leaf.schema, *shard)?;
                rows.extend(r.rows);
            }
            ops.push(Box::new(RowsOp::new(leaf.schema.clone(), rows)));
        }
        drop(shards);
        let token = CancelToken::new();
        Ok(crate::lower::run_tree(&self.engine, graph, plan, &token, None, ops)?.into_result())
    }

    /// The scatter targets for one statement: the pinned shard, or all of
    /// them. Pruned contacts are counted as they are skipped.
    fn jobs_for(&self, n: usize, target: Option<usize>, sql: &str) -> Vec<(usize, String)> {
        match target {
            Some(t) => {
                CoordStats::add(&self.stats.shards_pruned, n.saturating_sub(1) as u64);
                vec![(t, sql.to_string())]
            }
            None => (0..n).map(|i| (i, sql.to_string())).collect(),
        }
    }

    /// Run one statement per `(shard, sql)` job concurrently, each under
    /// the configured per-shard [`QueryOptions`] (§10 deadline + retry):
    /// the last job on the calling thread, every other on a scoped thread of
    /// its own — so a statement pinned to one shard spawns nothing.
    /// Every job runs to completion before any error is returned — a
    /// failed shard cannot leave the others' sessions mid-stream — and the
    /// first failure (lowest shard index) is surfaced with its typed kind
    /// preserved, tagged with the shard it came from. A job that panics,
    /// on its own thread or the caller's, is reported as that shard's
    /// failure.
    fn scatter(&self, shards: &[ShardSlot], jobs: &[(usize, String)]) -> Result<Vec<RemoteResult>> {
        CoordStats::add(&self.stats.shard_statements, jobs.len() as u64);
        let opts = &self.config.shard_options;
        let run = |(i, sql): &(usize, String)| shards[*i].pool.query_with(sql, opts);
        let outcomes: Vec<Result<RemoteResult>> = std::thread::scope(|scope| {
            let (inline, spawned) = match jobs.split_last() {
                Some((last, rest)) => (Some(last), rest),
                None => (None, jobs),
            };
            let handles: Vec<_> = spawned
                .iter()
                .map(|job| scope.spawn(move || run(job)))
                .collect();
            let inline = inline.map(|job| catch_unwind(AssertUnwindSafe(|| run(job))));
            handles
                .into_iter()
                .map(|h| h.join())
                .chain(inline)
                .zip(jobs)
                .map(|(outcome, (i, _))| match outcome {
                    Ok(r) => r.map_err(|e| {
                        // Preserve the typed kind (and with it the client's
                        // retryable classification); tag the shard.
                        CsqError::from_kind(
                            e.kind(),
                            format!("shard {i} ({}): {}", shards[*i].addr, e.message()),
                        )
                    }),
                    Err(_) => Err(CsqError::Exec(format!("shard {i} gather thread panicked"))),
                })
                .collect()
        });
        let mut results = Vec::with_capacity(outcomes.len());
        let mut first_err = None;
        for o in outcomes {
            match o {
                Ok(r) => results.push(r),
                Err(e) => {
                    CoordStats::bump(&self.stats.shard_failures);
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(results),
        }
    }
}

/// The shard owning `v`'s hash bucket among `n` — the same `Value` hash
/// INSERT routing uses, so pruning and routing always agree.
fn shard_for(v: &Value, n: usize) -> usize {
    Row::new(vec![v.clone()]).partition_of(Some(&[0]), n)
}

/// The pushdown strategy of a single-table, non-aggregate statement.
fn pushdown(sql: &str, graph: &QueryGraph, ctx: &OptContext) -> Result<Strategy> {
    let Unit::Rel { alias, stats, .. } = &graph.units[0] else {
        return Err(CsqError::Plan("pushable graph without a relation".into()));
    };
    let qualified = stats.schema.qualify(alias);
    let mut fields = Vec::with_capacity(graph.output.len());
    for (e, name) in &graph.output {
        let dtype = bind(e, &qualified)
            .and_then(|p| p.infer_type(&qualified))
            .unwrap_or(DataType::Str);
        fields.push(Field::new(name.clone(), dtype));
    }
    Ok(Strategy::Pushdown {
        sql: sql.to_string(),
        target: pinned_shard_value(graph, ctx, 0).map(|v| shard_for(v, ctx.shards)),
        out_schema: Schema::new(fields),
    })
}

/// The per-shard statement of every `Gather` in `root`, in walk order. A
/// `Gather [merge]` sits under a shard-partial aggregate and sends the
/// partial-aggregation rewrite; any other fetches its relation's rows.
/// Either is pinned when a conjunct fixes that relation's shard key. Each
/// alias is a leaf of its own, so a self-join's aliases fetch under their
/// own pins and predicates — the fan-out EXPLAIN prints.
fn leaves(graph: &QueryGraph, root: &PlanNode, ctx: &OptContext) -> Result<Vec<Leaf>> {
    let mut gathers = Vec::new();
    root.walk(&mut |node| {
        if let PlanNode::Gather { input, mode } = node {
            let mut unit = None;
            input.walk(&mut |n| {
                if let PlanNode::Scan { unit: u } = n {
                    unit.get_or_insert(*u);
                }
            });
            gathers.push((unit, *mode));
        }
    });
    gathers
        .into_iter()
        .map(|(unit, mode)| {
            let Some((
                unit,
                Unit::Rel {
                    alias,
                    table,
                    stats,
                },
            )) = unit.map(|u| (u, &graph.units[u]))
            else {
                return Err(CsqError::Plan("gather without a relation scan".into()));
            };
            let qualified = stats.schema.qualify(alias);
            let (sql, schema) = match mode {
                GatherMode::Merge => partial_agg_sql(graph, &qualified)?,
                GatherMode::Ordered => (
                    format!("SELECT * FROM {table} {alias}{}", where_sql(graph, unit)?),
                    qualified,
                ),
            };
            Ok(Leaf {
                sql,
                target: pinned_shard_value(graph, ctx, unit).map(|v| shard_for(v, ctx.shards)),
                schema,
            })
        })
        .collect()
}

/// ` WHERE c1 AND …` over the conjuncts a shard can evaluate for relation
/// `unit` alone — those that need no other unit and call no UDF — or
/// nothing when there are none. The operators above a leaf re-apply them.
fn where_sql(graph: &QueryGraph, unit: usize) -> Result<String> {
    let Unit::Rel { alias, .. } = &graph.units[unit] else {
        return Err(CsqError::Plan("shard statement over a non-relation".into()));
    };
    let conjuncts: Vec<String> = graph
        .predicates
        .iter()
        .filter(|p| p.required & !(1u64 << unit) == 0 && !p.references_udf)
        .map(|p| render_expr(&p.expr, Some(alias)))
        .collect::<Result<_>>()?;
    Ok(if conjuncts.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", conjuncts.join(" AND "))
    })
}

/// Check the rows shard `shard` returned for a leaf or a pushed-down
/// statement against the schema the plan reads them under. They come from
/// outside the program: a shard whose table disagrees with the
/// coordinator's shadow schema is a typed error naming the shard, never
/// rows.
fn check_rows(rows: &[Row], schema: &Schema, shard: usize) -> Result<()> {
    for row in rows {
        if row.len() != schema.len() {
            return Err(CsqError::Exec(format!(
                "shard {shard} returned {}-column rows; expected {}",
                row.len(),
                schema.len()
            )));
        }
        for (v, f) in row.values().iter().zip(schema.fields()) {
            if let Some(dt) = v.data_type() {
                if !f.dtype.accepts(dt) {
                    return Err(CsqError::Type(format!(
                        "shard {shard} returned {dt} for column '{}' ({})",
                        f.name, f.dtype
                    )));
                }
            }
        }
    }
    Ok(())
}

/// Coerce a literal to a column's declared type (Int → Float is the only
/// SQL-sanctioned widening); anything else is left for the shard-side type
/// check to reject.
fn coerce_to(v: Value, dtype: DataType) -> Result<Value> {
    Ok(match (v, dtype) {
        (Value::Int(i), DataType::Float) => Value::Float(i as f64),
        (v, _) => v,
    })
}

/// Render a value as a SQL literal that re-parses to the same `Value`.
fn sql_literal(v: &Value) -> Result<String> {
    Ok(match v {
        Value::Null => "NULL".to_string(),
        Value::Bool(true) => "TRUE".to_string(),
        Value::Bool(false) => "FALSE".to_string(),
        // The lexer reads `-9223372036854775808` as a minus sign and a
        // magnitude no i64 holds; the shard evaluates this back to MIN.
        Value::Int(i64::MIN) => format!("({} - 1)", i64::MIN + 1),
        Value::Int(i) => i.to_string(),
        Value::Float(x) => {
            if !x.is_finite() {
                return Err(CsqError::Plan(format!(
                    "cannot render non-finite float {x} as a SQL literal"
                )));
            }
            // `{:?}` keeps the decimal point (`2.0`, not `2`), so the shard
            // re-parses the literal as a Float.
            format!("{x:?}")
        }
        Value::Str(s) => format!("'{}'", s.as_str().replace('\'', "''")),
        Value::Blob(_) => {
            return Err(CsqError::Plan(
                "BLOB values cannot be rendered as SQL literals".into(),
            ))
        }
    })
}

/// Render an expression as per-shard SQL. `alias` qualifies bare columns
/// (per-shard statements always use explicit `table alias` FROM clauses).
/// UDF calls are unrenderable by construction — shards hold no UDF
/// implementations.
fn render_expr(e: &Expr, alias: Option<&str>) -> Result<String> {
    Ok(match e {
        Expr::Literal(v) => sql_literal(v)?,
        Expr::Column(c) => render_col(c, alias),
        Expr::Unary { op, expr } => match op {
            UnaryOp::Not => format!("NOT ({})", render_expr(expr, alias)?),
            UnaryOp::Neg => format!("-({})", render_expr(expr, alias)?),
        },
        Expr::Binary { left, op, right } => format!(
            "({} {} {})",
            render_expr(left, alias)?,
            op.symbol(),
            render_expr(right, alias)?
        ),
        Expr::Udf { name, .. } => {
            return Err(CsqError::Plan(format!(
                "client-site UDF '{name}' cannot run on a shard"
            )))
        }
        Expr::Aggregate { func, arg } => match arg {
            Some(a) => format!("{}({})", func.name(), render_expr(a, alias)?),
            None => format!("{}(*)", func.name()),
        },
    })
}

fn render_col(c: &ColumnRef, alias: Option<&str>) -> String {
    match (&c.qualifier, alias) {
        (Some(q), _) => format!("{q}.{}", c.name),
        (None, Some(a)) => format!("{a}.{}", c.name),
        (None, None) => c.name.clone(),
    }
}

/// Build the per-shard partial-aggregation SQL plus the schema its result
/// rows decode under: qualified group-key fields first, then each call's
/// partial-state fields in [`HashAggregate::partial`](csq_exec::HashAggregate::partial)
/// wire order (COUNT → count, SUM/MIN/MAX → value, AVG → running sum +
/// non-NULL count).
fn partial_agg_sql(graph: &QueryGraph, qualified: &Schema) -> Result<(String, Schema)> {
    let spec = graph
        .aggregate
        .as_ref()
        .ok_or_else(|| CsqError::Plan("partial aggregation without an aggregate".into()))?;
    let Unit::Rel { alias, table, .. } = &graph.units[0] else {
        return Err(CsqError::Plan(
            "partial aggregation without a relation".into(),
        ));
    };
    let mut items = Vec::new();
    let mut fields = Vec::new();
    for (i, g) in spec.group_by.iter().enumerate() {
        items.push(format!("{} AS k{i}", render_col(g, Some(alias))));
        let at = qualified.index_of(g.qualifier.as_deref(), &g.name)?;
        fields.push(qualified.field(at).clone());
    }
    for (i, call) in spec.calls.iter().enumerate() {
        let arg_sql = match &call.arg {
            Some(a) => render_expr(a, Some(alias))?,
            None => "*".to_string(),
        };
        let arg_type = match &call.arg {
            Some(a) => bind(a, qualified)?.infer_type(qualified).ok(),
            None => None,
        };
        match call.func {
            csq_expr::AggFunc::Count => {
                items.push(format!("COUNT({arg_sql}) AS a{i}"));
                fields.push(Field::new(call.result_col.clone(), DataType::Int));
            }
            csq_expr::AggFunc::Sum | csq_expr::AggFunc::Min | csq_expr::AggFunc::Max => {
                items.push(format!("{}({arg_sql}) AS a{i}", call.func.name()));
                fields.push(Field::new(
                    call.result_col.clone(),
                    arg_type.unwrap_or(DataType::Float),
                ));
            }
            csq_expr::AggFunc::Avg => {
                // AVG decomposes: per-shard running sum + non-NULL count,
                // divided only at the coordinator's finalize.
                items.push(format!("SUM({arg_sql}) AS a{i}s"));
                items.push(format!("COUNT({arg_sql}) AS a{i}n"));
                fields.push(Field::new(
                    format!("{}$sum", call.result_col),
                    arg_type.unwrap_or(DataType::Float),
                ));
                fields.push(Field::new(format!("{}$n", call.result_col), DataType::Int));
            }
        }
    }
    let mut sql = format!(
        "SELECT {} FROM {table} {alias}{}",
        items.join(", "),
        where_sql(graph, 0)?
    );
    let keys: Vec<String> = spec
        .group_by
        .iter()
        .map(|g| render_col(g, Some(alias)))
        .collect();
    if !keys.is_empty() {
        sql.push_str(" GROUP BY ");
        sql.push_str(&keys.join(", "));
    }
    Ok((sql, Schema::new(fields)))
}

/// Render a hash-routed per-shard INSERT.
fn render_insert(table: &str, rows: &[Row]) -> Result<String> {
    let mut sql = format!("INSERT INTO {table} VALUES ");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            sql.push_str(", ");
        }
        sql.push('(');
        for (j, v) in row.values().iter().enumerate() {
            if j > 0 {
                sql.push_str(", ");
            }
            sql.push_str(&sql_literal(v)?);
        }
        sql.push(')');
    }
    Ok(sql)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literals_roundtrip_through_the_renderer() {
        let cases = [
            (Value::Null, "NULL"),
            (Value::Bool(true), "TRUE"),
            (Value::Int(-7), "-7"),
            (Value::Int(i64::MIN), "(-9223372036854775807 - 1)"),
            (Value::Float(2.0), "2.0"),
            (Value::from("it's"), "'it''s'"),
        ];
        for (v, want) in cases {
            assert_eq!(sql_literal(&v).unwrap(), want);
        }
        assert!(sql_literal(&Value::Float(f64::NAN)).is_err());
    }

    /// What a shard stores for `values` sent as one rendered INSERT: the
    /// statement re-parsed, its value expressions evaluated the way
    /// `Database::execute` evaluates them.
    fn stored_by_a_shard(values: &[Value]) -> Vec<Value> {
        let sql = render_insert("T", &[Row::new(values.to_vec())]).unwrap();
        let stmt = parse_statement(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let Statement::Insert { rows, .. } = stmt else {
            unreachable!()
        };
        let (schema, row) = (Schema::empty(), Row::new(vec![]));
        rows[0]
            .iter()
            .map(|e| bind(e, &schema).unwrap().eval(&row).unwrap())
            .collect()
    }

    #[test]
    fn rendered_inserts_reparse_to_the_same_values() {
        // `Value` equality is by type and, for floats, by bit pattern.
        let edges = [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(i64::MIN),
            Value::Int(i64::MIN + 1),
            Value::Int(i64::MAX),
            Value::Int(0),
            Value::Int(-1),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::MIN_POSITIVE),
            Value::Float(f64::from_bits(1)),
            Value::Float(-f64::from_bits(0x000f_ffff_ffff_ffff)),
            Value::Float(f64::MAX),
            Value::Float(f64::MIN),
            Value::Float(1e-300),
            Value::Float(0.1),
            Value::Float(1e21),
            Value::from(""),
            Value::from("'"),
            Value::from("''"),
            Value::from("it's -- not a comment"),
            Value::from("line\nbreak\r\n\ttab"),
            Value::from("back\\slash \"quoted\""),
            Value::from("naïve Ünïcödé 数据库 🦀"),
        ];
        assert_eq!(stored_by_a_shard(&edges), edges);

        // A seeded xorshift sweep: ints of every magnitude, finite floats of
        // every exponent, strings over an alphabet of quotes, controls and
        // multi-byte characters.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        const ALPHABET: [char; 12] = [
            'a', 'Z', '7', ' ', '\'', '"', '\\', '\n', '\t', '-', 'é', '数',
        ];
        for _ in 0..200 {
            let mut row = Vec::new();
            for _ in 0..8 {
                let bits = next();
                row.push(Value::Int(bits as i64 >> (next() % 64)));
                if f64::from_bits(bits).is_finite() {
                    row.push(Value::Float(f64::from_bits(bits)));
                }
                let s: String = (0..next() % 12)
                    .map(|_| ALPHABET[(next() % 12) as usize])
                    .collect();
                row.push(Value::from(s));
            }
            assert_eq!(stored_by_a_shard(&row), row);
        }

        // What SQL text cannot carry stays a typed refusal.
        for v in [
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Blob(csq_common::Blob::synthetic(4, 1)),
        ] {
            assert_eq!(
                render_insert("T", &[Row::new(vec![v])]).unwrap_err().kind(),
                "plan"
            );
        }
    }

    #[test]
    fn float_literals_reparse_as_floats() {
        // `Display` for 2.0 gives "2" (reparses as Int); the renderer must
        // keep the decimal point so shard-side filters see the same type.
        let rendered = sql_literal(&Value::Float(2.0)).unwrap();
        let stmt = parse_statement(&format!("SELECT {rendered} AS x FROM t t")).unwrap();
        let Statement::Select(sel) = stmt else {
            unreachable!()
        };
        let csq_sql::ast::SelectItem::Expr { expr, .. } = &sel.items[0] else {
            unreachable!()
        };
        assert!(matches!(expr, Expr::Literal(Value::Float(f)) if *f == 2.0));
    }

    #[test]
    fn insert_rendering_batches_rows() {
        let rows = vec![
            Row::new(vec![Value::Int(1), Value::from("a")]),
            Row::new(vec![Value::Int(2), Value::Null]),
        ];
        assert_eq!(
            render_insert("T", &rows).unwrap(),
            "INSERT INTO T VALUES (1, 'a'), (2, NULL)"
        );
    }

    #[test]
    fn shard_routing_matches_row_partitioning() {
        // The pinning path hashes a lone literal; INSERT routing hashes the
        // key column inside the full row. They must agree.
        let v = Value::from("Acme");
        let row = Row::new(vec![Value::Int(9), v.clone(), Value::Float(1.5)]);
        for n in [1usize, 2, 4, 7] {
            assert_eq!(shard_for(&v, n), row.partition_of(Some(&[1]), n));
        }
    }

    #[test]
    fn int_literals_coerce_before_hashing() {
        let v = coerce_to(Value::Int(5), DataType::Float).unwrap();
        assert_eq!(v, Value::Float(5.0));
        // Str columns are untouched.
        let s = coerce_to(Value::from("x"), DataType::Str).unwrap();
        assert_eq!(s, Value::from("x"));
    }
}
