//! Scatter/gather coordinator over hash-sharded server instances
//! (DESIGN.md §13).
//!
//! A [`Coordinator`] fronts several independent query services (each an
//! ordinary [`Database`] behind
//! [`service::start`](crate::service::start)), hash-partitions every table
//! across them by a per-table **shard key**, and answers SQL by sending the
//! shards typed requests, never statements for them to plan again:
//!
//! * **DDL** broadcasts to every shard, so all shards hold every table's
//!   (empty) schema.
//! * **INSERT** evaluates each row once, routes it to the shard owning the
//!   hash bucket of its shard-key value, and sends each shard its rows as
//!   one typed [`QueryRequest::Insert`]: values in the row codec, no SQL
//!   text for the shard to parse.
//! * **SELECT** is planned by the coordinator's engine, a [`Database`] that
//!   holds each sharded table as a remote entry: its schema, shard key, and
//!   the profile of the rows routed to it. Plans go through the engine's
//!   plan cache, so a repeated statement is not even parsed, and the engine
//!   lowers the plan its EXPLAIN prints. Each `Gather` is one typed
//!   fragment, a [`QueryRequest::Fetch`] sent to every live shard (or only
//!   the shard a `key = literal` conjunct pins): its relation's rows under
//!   the conjuncts that need that relation alone, narrowed to the columns
//!   the plan reads, and under an [`AggPlacement::ShardPartial`] aggregate
//!   reduced to partial states, which the coordinator merges with
//!   [`HashAggregate::finalize`](csq_exec::HashAggregate::finalize). A
//!   shard runs it with the operators lowering builds and parses nothing.
//!   The SELECT list, joins, client-site UDFs, client-only aggregates and
//!   HAVING run above the leaves at the coordinator (a join is a hash join
//!   under a filter); nothing is repartitioned across shards.
//!
//! **Scatter and failure semantics.** A broadcast, a routed INSERT and a
//! `Gather` each write every shard its request ([`ConnectionPool::send`])
//! before reading any reply, on the calling thread: the shards work at
//! once because each service starts a request as soon as it arrives. Each
//! request runs under the §10 retry machinery and the configured
//! [`QueryOptions`], so a dead or slow shard surfaces as a *typed* error
//! tagged with the shard index, after every other shard's reply was read
//! to its end. A read is replayed on a retryable failure that delivered no
//! row. A shard's rows
//! are replayed only on its retryable error, sent before it stores
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

use std::borrow::Borrow;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use csq_client::{ConnectionPool, InFlight, QueryOptions, QueryRequest, RemoteResult, ScalarUdf};
use csq_common::{CancelToken, CsqError, Field, Result, Row, Schema};
use csq_expr::Expr;
use csq_net::NetworkSpec;
use csq_opt::{AggPlacement, PlanNode};
use csq_sql::{parse_statement, Statement};

use crate::result::QueryResult;
use crate::{Cached, Database, PlannedQuery, Write};

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
    /// SELECTs answered by per-shard partial aggregation + merge.
    pub partial_agg_queries: AtomicU64,
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

    /// Register a client-site UDF with the coordinator, which runs it above
    /// the leaves of its plans (shards never hold UDF implementations, so no
    /// `Fetch` carries a UDF call). Refused as [`Database::register_udf`]
    /// refuses it: a duplicate name, or one colliding with an SQL aggregate.
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
        let ddl = QueryRequest::sql(sql);
        self.scatter(&shards, &self.jobs_for(shards.len(), None, &ddl))?;
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
            Cached::Write(Write::CreateTable { name, .. }) => Err(CsqError::Plan(format!(
                "CREATE TABLE '{name}' on a coordinator needs a shard key; \
                 use Coordinator::create_table(sql, shard_key)"
            ))),
            Cached::Write(Write::Insert { table, rows }) => self.route_insert(&table, rows),
        }
    }

    /// The coordinator's chosen scatter/gather plan for a SELECT, rendered
    /// as [`Database::explain`] renders a plan (`Scatter [n shards, k
    /// pruned]` / `Gather [ordered|merge]` nodes included), plus its
    /// estimated cost.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let (planned, hit) = self
            .engine
            .plan_cached_select(sql, "EXPLAIN only supports SELECT")?;
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
        let routed: usize = per_shard.iter().map(Vec::len).sum();
        let jobs: Vec<(usize, QueryRequest)> = per_shard
            .into_iter()
            .enumerate()
            .filter(|(_, rows)| !rows.is_empty())
            .map(|(i, rows)| {
                let table = name.clone();
                (
                    i,
                    QueryRequest::Insert {
                        table,
                        rows,
                        deadline_ms: 0,
                    },
                )
            })
            .collect();
        self.scatter(&shards, &jobs)?;
        CoordStats::add(&self.stats.rows_routed, routed as u64);
        Ok(QueryResult::count(routed))
    }

    // ---- SELECT -----------------------------------------------------------

    /// Run the plan through the engine's lowering: each `Gather` sends its
    /// `Fetch` to its shards and becomes a leaf over the rows they return,
    /// each shard's checked against the schema the plan reads them under.
    fn execute_select(&self, planned: Arc<PlannedQuery>) -> Result<QueryResult> {
        CoordStats::bump(&self.stats.queries);
        if let PlanNode::Aggregate {
            placement: AggPlacement::ShardPartial,
            ..
        } = planned.plan.root
        {
            CoordStats::bump(&self.stats.partial_agg_queries);
        }
        let gather = |fetch: &QueryRequest, target: Option<usize>, schema: &Schema| {
            let shards = self.shards.read();
            let jobs = self.jobs_for(shards.len(), target, fetch);
            let mut rows = Vec::new();
            for (r, (shard, _)) in self.scatter(&shards, &jobs)?.into_iter().zip(&jobs) {
                check_rows(&r.rows, schema, *shard)?;
                rows.extend(r.rows);
            }
            Ok(rows)
        };
        let (out, _, _) =
            self.engine
                .run_planned(&planned, false, &CancelToken::new(), Some(&gather))?;
        Ok(out.into_result(&self.engine.network()))
    }

    /// The scatter targets for one request: the pinned shard, or all of
    /// them. Pruned contacts are counted as they are skipped.
    fn jobs_for<'a, J: ?Sized>(
        &self,
        n: usize,
        target: Option<usize>,
        job: &'a J,
    ) -> Vec<(usize, &'a J)> {
        match target {
            Some(t) => {
                CoordStats::add(&self.stats.shards_pruned, n.saturating_sub(1) as u64);
                vec![(t, job)]
            }
            None => (0..n).map(|i| (i, job)).collect(),
        }
    }

    /// Send each `(shard, job)` request through its shard's pool under the
    /// per-shard [`QueryOptions`], with no thread: write every first
    /// attempt, read every reply in shard order, then let a failed shard
    /// replay as §10 allows. Every sent request is read to its end before
    /// the first failure (lowest shard index) is returned, its typed kind
    /// kept and the shard named.
    fn scatter<J: Borrow<QueryRequest>>(
        &self,
        shards: &[ShardSlot],
        jobs: &[(usize, J)],
    ) -> Result<Vec<RemoteResult>> {
        CoordStats::add(&self.stats.shard_statements, jobs.len() as u64);
        let opts = &self.config.shard_options;
        let mut flights: Vec<InFlight> = jobs
            .iter()
            .map(|(i, job)| shards[*i].pool.send(job.borrow(), opts))
            .collect();
        flights.iter_mut().for_each(InFlight::read);
        let mut results = Vec::with_capacity(jobs.len());
        let mut first_err = None;
        for (flight, (i, _)) in flights.into_iter().zip(jobs) {
            match flight.finish() {
                Ok(r) => results.push(r),
                Err(e) => {
                    CoordStats::bump(&self.stats.shard_failures);
                    // Preserve the typed kind (and with it the client's
                    // retryable classification); tag the shard.
                    let addr = shards[*i].addr;
                    let tagged = || format!("shard {i} ({addr}): {}", e.message());
                    first_err.get_or_insert_with(|| CsqError::from_kind(e.kind(), tagged()));
                }
            }
        }
        first_err.map_or(Ok(results), Err)
    }
}

/// Check the rows shard `shard` returned for a leaf against the schema the
/// plan reads them under. They come from
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

#[cfg(test)]
mod tests {
    use super::*;
    use csq_common::{DataType, Value};

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
