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
//! * **INSERT** evaluates each row once, routes it to the shard owning the
//!   hash bucket of its shard-key value, and sends each shard its rows as
//!   one typed [`QueryRequest::Insert`](csq_client::QueryRequest::Insert):
//!   values in the row codec, no SQL text for the shard to parse.
//! * **SELECT** is planned by the coordinator's engine, a [`Database`] that
//!   holds each sharded table as a remote entry: its schema, shard key, and
//!   the profile of the rows routed to it. Plans go through the engine's
//!   plan cache, so a repeated statement is not even parsed, and each runs
//!   the plan its EXPLAIN prints:
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
//! **Failure semantics.** Every per-shard request goes through the §10
//! retry machinery ([`ConnectionPool::query_with`], or
//! [`ConnectionPool::insert_with`] for routed rows, under the configured
//! [`QueryOptions`]), so a dead or slow shard surfaces as a *typed* error
//! tagged with the shard index instead of hanging the gather; the other
//! shards' requests still complete before the error is returned. A shard's
//! rows are replayed only on its retryable error, sent before it stores
//! anything; rows sent and never answered fail the INSERT `indeterminate`,
//! stored at most once. A multi-shard INSERT is not atomic — shards that
//! answered keep their rows — and the statistics count every routed row.
//!
//! **One plan epoch.** Every change a plan depends on bumps the engine's
//! plan epoch: `create_table`, every routed INSERT (including one a shard
//! refused — its rows were counted), UDF registration,
//! [`Coordinator::advertise_distinct`], and [`Coordinator::replace_shard`],
//! which swaps a failed shard's address. A cached plan is served only under
//! the epoch it was made in, so none of these is ever served a stale plan.

use std::net::{SocketAddr, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use csq_client::{ConnectionPool, QueryOptions, ScalarUdf};
use csq_common::{CancelToken, CsqError, DataType, Field, Result, Row, Schema, Value};
use csq_exec::{BoxOp, RowsOp};
use csq_expr::{bind, ColumnRef, Expr, UnaryOp};
use csq_net::NetworkSpec;
use csq_opt::shard::pushable;
use csq_opt::{AggPlacement, GatherMode, PlanNode, QueryGraph, Unit};
use csq_sql::{parse_statement, Statement};

use crate::result::QueryResult;
use crate::{Cached, Database, PlannedQuery};

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
    /// SELECTs and EXPLAINs whose plan the coordinator engine's plan cache
    /// served.
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

/// One shard: its address and connection pool.
struct ShardSlot {
    addr: SocketAddr,
    pool: ConnectionPool,
}

/// The per-shard statement behind one `Gather` of a plan.
struct Leaf {
    /// A pushdown plan's statement itself; under a shard-partial aggregate
    /// the partial-aggregation rewrite; otherwise `SELECT * FROM t a [WHERE
    /// conjuncts on a alone]`.
    sql: String,
    /// Pinned shard: the `Scatter`'s target.
    target: Option<usize>,
    /// What the returned rows are checked against and read under.
    schema: Schema,
}

/// The scatter/gather coordinator; see the module docs.
pub struct Coordinator {
    shards: RwLock<Vec<ShardSlot>>,
    /// The coordinator's own engine. Its catalog is empty; it holds each
    /// sharded table as a remote entry (schema, shard key, profile of the
    /// routed rows), the registered UDFs, the plan cache and the one plan
    /// epoch. It plans every SELECT and runs the coordinator's part of
    /// every lowered plan.
    engine: Database,
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
            engine: Database {
                shards: shards.len(),
                ..Database::new(config.net.clone())
            },
            shards: RwLock::new(shards),
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

    /// The plan epoch of the coordinator's engine: bumped by every change a
    /// plan depends on — `create_table`, routed INSERTs, UDF registration,
    /// [`advertise_distinct`](Coordinator::advertise_distinct) and
    /// [`replace_shard`](Coordinator::replace_shard).
    pub fn plan_epoch(&self) -> u64 {
        self.engine.plan_epoch()
    }

    /// Coordinator counters.
    pub fn stats(&self) -> &CoordStats {
        &self.stats
    }

    /// Swap shard `idx` to a replacement service at `addr` (failover: the
    /// replacement is assumed to hold the shard's data). Bumps the plan
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
        self.engine.bump_plan_epoch();
        Ok(())
    }

    /// Register a client-site UDF with the coordinator, which runs it in
    /// lowered plans (shards never hold UDF implementations, so UDF queries
    /// are never pushed down). Refused as [`Database::register_udf`] refuses
    /// it: a duplicate name, or one colliding with an SQL aggregate.
    pub fn register_udf(&self, udf: Arc<dyn ScalarUdf>) -> Result<()> {
        self.engine.register_udf(udf)
    }

    /// Record the distinct-value count of `table.column`, driving the
    /// enumerator's per-shard group estimate (and hence the
    /// shard-partial-vs-gather choice). A table the coordinator does not
    /// hold is ignored.
    pub fn advertise_distinct(&self, table: &str, column: &str, distinct: f64) {
        self.engine.set_col_distinct(table, column, distinct);
    }

    /// Create a table hash-partitioned on `shard_key`: the `CREATE TABLE`
    /// broadcasts to every shard, and the coordinator's engine records the
    /// schema and routing column.
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
        if self.engine.has_remote_table(&name) {
            return Err(CsqError::Catalog(format!("table '{name}' already exists")));
        }
        let shards = self.shards.read();
        let jobs = self.jobs_for(shards.len(), None, sql);
        self.scatter(&shards, &jobs, |pool, sql, opts| pool.query_with(sql, opts))?;
        drop(shards);
        let fields = columns.into_iter().map(|(c, t)| Field::new(c, t)).collect();
        self.engine
            .create_remote_table(name, Schema::new(fields), shard_col);
        Ok(QueryResult::empty())
    }

    /// Execute one SQL statement across the shards: INSERTs hash-route,
    /// SELECTs scatter/gather. `CREATE TABLE` must go through
    /// [`create_table`](Coordinator::create_table) (it needs a shard key).
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        match self.engine.plan_cached(sql)? {
            Cached::Select(planned, hit) => self.execute_select(self.counted(planned, hit)),
            Cached::Other(Statement::CreateTable { name, .. }) => Err(CsqError::Plan(format!(
                "CREATE TABLE '{name}' on a coordinator needs a shard key; \
                 use Coordinator::create_table(sql, shard_key)"
            ))),
            Cached::Other(Statement::Insert { table, rows }) => self.route_insert(&table, rows),
            Cached::Other(Statement::Select(_)) => unreachable!("plan_cached plans every SELECT"),
        }
    }

    /// The coordinator's chosen scatter/gather plan for a SELECT, rendered
    /// as [`Database::explain`] renders a plan (`Scatter [n shards, k
    /// pruned]` / `Gather [ordered|merge]` nodes included), plus its
    /// estimated cost.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let Cached::Select(planned, hit) = self.engine.plan_cached(sql)? else {
            return Err(CsqError::Plan("EXPLAIN only supports SELECT".into()));
        };
        let planned = self.counted(planned, hit);
        Ok(self.engine.render_explain(&planned.graph, &planned.plan))
    }

    /// `planned`, counted as a plan-cache hit when the cache served it.
    fn counted(&self, planned: Arc<PlannedQuery>, hit: bool) -> Arc<PlannedQuery> {
        if hit {
            CoordStats::bump(&self.stats.plan_cache_hits);
        }
        planned
    }

    // ---- INSERT routing ---------------------------------------------------

    fn route_insert(&self, table: &str, rows: Vec<Vec<Expr>>) -> Result<QueryResult> {
        let shards = self.shards.read();
        let (name, per_shard) = self.engine.route_rows(table, rows)?;
        let jobs: Vec<(usize, Vec<Row>)> = per_shard
            .into_iter()
            .enumerate()
            .filter(|(_, rows)| !rows.is_empty())
            .collect();
        let routed: usize = jobs.iter().map(|(_, rows)| rows.len()).sum();
        self.scatter(&shards, &jobs, |pool, rows, opts| {
            pool.insert_with(&name, rows, opts)
        })?;
        CoordStats::add(&self.stats.rows_routed, routed as u64);
        Ok(QueryResult::count(routed))
    }

    // ---- SELECT -----------------------------------------------------------

    /// Send every `Gather`'s per-shard statement, check the rows, and run
    /// the plan over them — or, for a pushdown plan, return its one leaf's
    /// rows.
    fn execute_select(&self, planned: Arc<PlannedQuery>) -> Result<QueryResult> {
        CoordStats::bump(&self.stats.queries);
        let (graph, plan) = (&planned.graph, &planned.plan);
        let pushdown = pushable(graph) && graph.aggregate.is_none();
        CoordStats::bump(match &plan.root {
            _ if pushdown => &self.stats.pushdown_queries,
            PlanNode::Aggregate {
                placement: AggPlacement::ShardPartial,
                ..
            } => &self.stats.partial_agg_queries,
            _ => &self.stats.gather_exec_queries,
        });
        let leaves = leaves(&planned.sql, graph, &plan.root, pushdown)?;
        let shards = self.shards.read();
        let mut ops: Vec<BoxOp> = Vec::with_capacity(leaves.len());
        for leaf in leaves {
            let jobs = self.jobs_for(shards.len(), leaf.target, &leaf.sql);
            let results =
                self.scatter(&shards, &jobs, |pool, sql, opts| pool.query_with(sql, opts))?;
            let mut rows = Vec::new();
            for (r, (shard, _)) in results.into_iter().zip(&jobs) {
                check_rows(&r.rows, &leaf.schema, *shard)?;
                rows.extend(r.rows);
            }
            if pushdown {
                return Ok(QueryResult {
                    schema: leaf.schema,
                    rows,
                    affected: 0,
                });
            }
            ops.push(Box::new(RowsOp::new(leaf.schema, rows)));
        }
        drop(shards);
        let token = CancelToken::new();
        Ok(crate::lower::run_tree(&self.engine, graph, plan, &token, None, ops)?.into_result())
    }

    /// The scatter targets for one statement: the pinned shard, or all of
    /// them. Pruned contacts are counted as they are skipped.
    fn jobs_for<'a>(&self, n: usize, target: Option<usize>, sql: &'a str) -> Vec<(usize, &'a str)> {
        match target {
            Some(t) => {
                CoordStats::add(&self.stats.shards_pruned, n.saturating_sub(1) as u64);
                vec![(t, sql)]
            }
            None => (0..n).map(|i| (i, sql)).collect(),
        }
    }

    /// Run one request per `(shard, job)` concurrently — `run` sends a job
    /// through its shard's pool under the configured per-shard
    /// [`QueryOptions`] (§10 deadline + retry): the last job on the calling
    /// thread, every other on a scoped thread of its own — so a statement
    /// pinned to one shard spawns nothing.
    /// Every job runs to completion before any error is returned — a
    /// failed shard cannot leave the others' sessions mid-stream — and the
    /// first failure (lowest shard index) is surfaced with its typed kind
    /// preserved, tagged with the shard it came from. A job that panics,
    /// on its own thread or the caller's, is reported as that shard's
    /// failure.
    fn scatter<J: Sync, T: Send>(
        &self,
        shards: &[ShardSlot],
        jobs: &[(usize, J)],
        run: impl Fn(&ConnectionPool, &J, &QueryOptions) -> Result<T> + Sync,
    ) -> Result<Vec<T>> {
        CoordStats::add(&self.stats.shard_statements, jobs.len() as u64);
        let opts = &self.config.shard_options;
        let run = |(i, job): &(usize, J)| run(&shards[*i].pool, job, opts);
        let outcomes: Vec<Result<T>> = std::thread::scope(|scope| {
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

/// The per-shard statement of every `Gather` in `root`, in walk order,
/// each pinned to its `Scatter`'s target. A pushdown plan's one `Gather`
/// sends `sql` itself; a `Gather [merge]` sits under a shard-partial
/// aggregate and sends the partial-aggregation rewrite; any other fetches
/// its relation's rows. Each alias is a leaf of its own, so a self-join's
/// aliases fetch under their own pins and predicates — the fan-out EXPLAIN
/// prints.
fn leaves(sql: &str, graph: &QueryGraph, root: &PlanNode, pushdown: bool) -> Result<Vec<Leaf>> {
    let mut gathers = Vec::new();
    root.walk(&mut |node| {
        if let PlanNode::Gather { input, mode } = node {
            let target = match **input {
                PlanNode::Scatter { target, .. } => target,
                _ => None,
            };
            let mut unit = None;
            input.walk(&mut |n| {
                if let PlanNode::Scan { unit: u } = n {
                    unit.get_or_insert(*u);
                }
            });
            gathers.push((unit, *mode, target));
        }
    });
    gathers
        .into_iter()
        .map(|(unit, mode, target)| {
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
                _ if pushdown => (sql.to_string(), output_schema(graph, &qualified)),
                GatherMode::Merge => partial_agg_sql(graph, &qualified)?,
                GatherMode::Ordered => (
                    format!("SELECT * FROM {table} {alias}{}", where_sql(graph, unit)?),
                    qualified,
                ),
            };
            Ok(Leaf {
                sql,
                target,
                schema,
            })
        })
        .collect()
}

/// The output schema of a single-relation statement over `qualified`.
fn output_schema(graph: &QueryGraph, qualified: &Schema) -> Schema {
    let fields = graph
        .output
        .iter()
        .map(|(e, name)| {
            let dtype = bind(e, qualified)
                .and_then(|p| p.infer_type(qualified))
                .unwrap_or(DataType::Str);
            Field::new(name.clone(), dtype)
        })
        .collect();
    Schema::new(fields)
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

    /// What a shard reads back for `values` rendered as SQL literals — the
    /// form a leaf's pushed conjunct carries them in: each literal re-parsed
    /// as an expression, bound and evaluated.
    fn read_by_a_shard(values: &[Value]) -> Vec<Value> {
        let (schema, row) = (Schema::empty(), Row::new(vec![]));
        values
            .iter()
            .map(|v| {
                let sql = sql_literal(v).unwrap();
                let e = csq_sql::parse_expression(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
                bind(&e, &schema).unwrap().eval(&row).unwrap()
            })
            .collect()
    }

    /// Every value a leaf's pushed conjunct can carry renders to a literal a
    /// shard reads back as that same value; the rest is a typed refusal.
    #[test]
    fn pushed_conjunct_literals_reparse_to_the_same_values() {
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
        assert_eq!(read_by_a_shard(&edges), edges);

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
            assert_eq!(read_by_a_shard(&row), row);
        }

        // What SQL text cannot carry stays a typed refusal.
        for v in [
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Blob(csq_common::Blob::synthetic(4, 1)),
        ] {
            assert_eq!(sql_literal(&v).unwrap_err().kind(), "plan");
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

    /// A remote table holds no rows on the engine: a scan of it that no
    /// `Gather` reads is an unknown table, never an empty answer.
    #[test]
    fn a_scan_outside_a_gather_is_an_unknown_table() {
        let engine = Database::new(NetworkSpec::lan());
        let schema = Schema::new(vec![Field::new("Id", DataType::Int)]);
        engine.create_remote_table("R".into(), schema, 0);
        let err = engine.execute("SELECT R.Id FROM R R").unwrap_err();
        assert_eq!(err.kind(), "catalog");
        assert!(err.message().contains("unknown table 'R'"), "{err}");
    }

    #[test]
    fn int_literals_coerce_before_hashing() {
        let v = crate::coerce_to(Value::Int(5), DataType::Float);
        assert_eq!(v, Value::Float(5.0));
        // Str columns are untouched.
        let s = crate::coerce_to(Value::from("x"), DataType::Str);
        assert_eq!(s, Value::from("x"));
    }
}
