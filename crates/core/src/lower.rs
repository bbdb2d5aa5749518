//! Plan lowering: optimizer [`PlanNode`] trees → execution.
//!
//! One lowering, two links. [`build_tree`] turns a plan into one operator
//! tree — columnar scans, filters, nested-loop joins, aggregates, and the
//! shipping operators of `csq-ship` — and both entry points drain that tree
//! and project its batches onto the SELECT list. Each `ApplyUdf` node ships
//! over its own duplex to its own client thread, and the link picks only
//! which duplex:
//!
//! * **Threaded** ([`execute_threaded`]): an in-memory duplex in real time;
//!   the tree is drained on the caller's thread, and the result stays
//!   batches ([`ResultBatches`]) — rows are built by whoever receives them.
//! * **Virtual time** ([`execute_simulated`]): a virtual-time duplex over
//!   the database's network; once the tree drains, each node's run (its
//!   clock, bytes and client CPU) is folded into a [`SimSummary`] (phases
//!   are sequential — a conservative approximation of the pipelined
//!   reality, documented in DESIGN.md); the final delivery crosses the
//!   modelled downlink.
//!
//! A coordinator's plan lowers here too ([`run_tree`] on the threaded
//! link), each `Gather` a leaf over the rows the shards returned for it.
//!
//! Execution-semantics notes: `leave-on-client` and `merged-with-final`
//! strategies differ from plain variants only in *cost* (what crosses the
//! uplink when); row semantics are identical, so both links execute them
//! as their plain counterparts and the savings show up in the optimizer's
//! estimates and the cost-model benches.

use csq_client::spawn_client_with_token;
use csq_common::{codec, CancelToken, CsqError, Field, Result, RowBatch, Schema};
use csq_exec::{
    AggSpec, BoxOp, CancelCheck, ColumnarScan, Filter, HashAggregate, NestedLoopJoin, Operator,
    Projection,
};
use csq_expr::{analysis, bind, PhysExpr};
use csq_net::{in_memory_duplex, virtual_duplex, VirtualLinks};
use csq_opt::{AggPlacement, AggregateSpec, PlanNode, QueryGraph, ShipParams, UdfStrategy, Unit};
use csq_ship::{
    ClientJoinSpec, SemiJoinSpec, SimRun, ThreadedClientJoin, ThreadedSemiJoin, UdfApplication,
};
use csq_storage::{FilterSpec, Table};

use crate::result::{QueryResult, ResultBatches};
use crate::Database;

/// Aggregated virtual-time accounting for one query.
#[derive(Debug, Clone, Default)]
pub struct SimSummary {
    /// Total virtual time, µs (client-site phases + final delivery;
    /// server-site operators are free per the paper's assumption).
    pub elapsed_us: u64,
    /// Total downlink bytes.
    pub down_bytes: u64,
    /// Total uplink bytes.
    pub up_bytes: u64,
    /// Total client CPU, µs.
    pub client_cpu_us: u64,
    /// Downlink messages.
    pub down_messages: u64,
    /// Uplink messages.
    pub up_messages: u64,
    /// Number of client-site execution phases (ApplyUdf nodes).
    pub phases: usize,
}

impl SimSummary {
    fn absorb(&mut self, run: &csq_ship::SimRun) {
        self.elapsed_us += run.elapsed_us;
        self.down_bytes += run.down_bytes;
        self.up_bytes += run.up_bytes;
        self.client_cpu_us += run.client_cpu_us;
        self.down_messages += run.down_messages;
        self.up_messages += run.up_messages;
        self.phases += 1;
    }

    /// Elapsed time in seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed_us as f64 / 1e6
    }
}

/// Field describing a UDF unit's appended result column.
fn result_field(graph: &QueryGraph, unit: usize) -> Field {
    match &graph.units[unit] {
        Unit::Udf {
            result_col, meta, ..
        } => Field::new(result_col.clone(), meta.return_type),
        Unit::Rel { .. } => unreachable!("result_field on relation unit"),
    }
}

/// Resolve a UDF unit's argument columns against the current schema.
fn resolve_args(graph: &QueryGraph, unit: usize, schema: &Schema) -> Result<Vec<usize>> {
    let Unit::Udf { args, .. } = &graph.units[unit] else {
        unreachable!()
    };
    args.iter()
        .map(|c| schema.index_of(c.qualifier.as_deref(), &c.name))
        .collect()
}

/// Bind the conjunction of predicate indices against a schema.
fn bind_preds(graph: &QueryGraph, preds: &[usize], schema: &Schema) -> Result<Option<PhysExpr>> {
    let exprs: Vec<_> = preds
        .iter()
        .map(|&p| graph.predicates[p].expr.clone())
        .collect();
    match analysis::conjoin(exprs) {
        Some(e) => Ok(Some(bind(&e, schema)?)),
        None => Ok(None),
    }
}

/// Bind a grouped-aggregation spec against the inner plan's schema: group
/// key ordinals plus one bound [`AggSpec`] per call.
fn bind_aggregate(spec: &AggregateSpec, schema: &Schema) -> Result<(Vec<usize>, Vec<AggSpec>)> {
    let key: Vec<usize> = spec
        .group_by
        .iter()
        .map(|c| schema.index_of(c.qualifier.as_deref(), &c.name))
        .collect::<Result<_>>()?;
    let aggs: Vec<AggSpec> = spec
        .calls
        .iter()
        .map(|call| {
            let arg = call.arg.as_ref().map(|e| bind(e, schema)).transpose()?;
            Ok(AggSpec::new(call.func, arg, call.result_col.clone()))
        })
        .collect::<Result<Vec<_>>>()?;
    Ok((key, aggs))
}

/// `op` — an aggregate's output — under the aggregate's HAVING predicate,
/// if it has one.
fn with_having(spec: &AggregateSpec, op: BoxOp) -> Result<BoxOp> {
    Ok(match &spec.having {
        Some(h) => {
            let pred = bind(h, op.schema())?;
            Box::new(Filter::new(op, pred))
        }
        None => op,
    })
}

/// The [`FilterSpec`] a scan of `table` as `alias` is opened with when `preds`
/// (possibly none) sit directly above it: their conjunction bound against
/// the qualified table schema, its pushable prefix compiled. Lowering opens
/// its scans with this and EXPLAIN counts pruned segments with it.
pub(crate) fn scan_spec(
    graph: &QueryGraph,
    table: &Table,
    alias: &str,
    preds: &[usize],
) -> Result<Option<FilterSpec>> {
    let pred = bind_preds(graph, preds, &table.schema().qualify(alias))?;
    Ok(pred.and_then(|p| FilterSpec::from_phys(&p)))
}

fn udf_application(graph: &QueryGraph, unit: usize, schema: &Schema) -> Result<UdfApplication> {
    let Unit::Udf { name, .. } = &graph.units[unit] else {
        unreachable!()
    };
    Ok(UdfApplication::new(
        name,
        resolve_args(graph, unit, schema)?,
        result_field(graph, unit),
    ))
}

/// What an `ApplyUdf` node ships with, over either link.
enum ShipSpec {
    SemiJoin(SemiJoinSpec),
    ClientJoin(ClientJoinSpec),
}

/// The shipping spec of an `ApplyUdf` node over a child of `schema`: the
/// node's strategy, run at the tuples-per-message and concurrency factor the
/// optimizer stored on it. Both links build their specs here, so they ship
/// the same messages.
fn ship_spec(
    graph: &QueryGraph,
    unit: usize,
    strategy: &UdfStrategy,
    ship: ShipParams,
    schema: &Schema,
) -> Result<ShipSpec> {
    let app = udf_application(graph, unit, schema)?;
    Ok(match strategy {
        UdfStrategy::SemiJoin { .. } => {
            let mut spec = SemiJoinSpec::new(vec![app], ship.concurrency);
            spec.batch_size = ship.tuples_per_message;
            ShipSpec::SemiJoin(spec)
        }
        UdfStrategy::ClientJoin { pushed_preds, .. } => {
            let extended = schema.with_field(result_field(graph, unit));
            let mut spec = ClientJoinSpec::new(vec![app]);
            spec.batch_size = ship.tuples_per_message;
            spec.pushed_predicate = bind_preds(graph, pushed_preds, &extended)?;
            ShipSpec::ClientJoin(spec)
        }
    })
}

// ---- the operator tree -----------------------------------------------------

/// One plan being lowered: what every node of the walk reads.
struct Lowering<'a> {
    db: &'a Database,
    graph: &'a QueryGraph,
    token: &'a CancelToken,
    /// The link every `ApplyUdf` ships over: `None` is the threaded link (a
    /// client thread behind an in-memory duplex), `Some` the virtual-time
    /// link, which keeps each node's links to read once the tree drains.
    /// Every node lowers to the same operator under either.
    sim: Option<Vec<VirtualLinks>>,
    /// What each `Gather` lowers to, in [`PlanNode::walk`] order: the rows a
    /// coordinator fetched for it. Single-node callers pass none.
    leaves: std::vec::IntoIter<BoxOp>,
}

impl Lowering<'_> {
    /// Build a scan leaf: a columnar [`ColumnarScan`] over the unit's table,
    /// with the pushable prefix of `preds` compiled to a [`FilterSpec`] so
    /// the scan skips segments by zone map and decodes only rows the spec
    /// does not reject, wrapped in the per-leaf cancellation checkpoint.
    /// With `narrow` the scan decodes only the columns the plan reads from
    /// this unit.
    fn scan_leaf(&self, unit: usize, preds: &[usize], narrow: bool) -> Result<BoxOp> {
        let graph = self.graph;
        let Unit::Rel { alias, table, .. } = &graph.units[unit] else {
            return Err(CsqError::Plan("scan of non-relation unit".into()));
        };
        let t = self.db.catalog().get(table)?;
        let spec = scan_spec(graph, &t, alias, preds)?;
        let scan = if narrow {
            // Everything above binds by name against its child's schema, and
            // all of it is in the graph: the pre-aggregation output, every
            // predicate (the filter above re-reads the pushed ones) and every
            // UDF argument. A name the table lacks is left for that binding
            // to report.
            let mut cols: Vec<usize> = graph
                .needed_columns(0, 0)
                .iter()
                .filter(|c| graph.owner_of(c) == Some(unit))
                .filter_map(|c| t.schema().index_of(None, &c.name).ok())
                .collect();
            cols.sort_unstable();
            cols.dedup();
            ColumnarScan::with_columns(&t, alias, &cols, spec.as_ref())?
        } else {
            ColumnarScan::new(&t, alias, spec.as_ref())?
        };
        // The scan is where a long plan spends its pull loop, so the
        // cancellation checkpoint lives right above every leaf: each batch
        // boundary observes the token.
        Ok(Box::new(CancelCheck::new(
            Box::new(scan),
            self.token.clone(),
        )))
    }

    /// Lower `node` to its operator tree.
    ///
    /// `narrow` is true until the walk descends through an `ApplyUdf`: the
    /// client-site join ships its whole input record, so the scans feeding
    /// one keep every column.
    fn build_tree(&mut self, node: &PlanNode, narrow: bool) -> Result<BoxOp> {
        let graph = self.graph;
        match node {
            PlanNode::Scan { unit } => self.scan_leaf(*unit, &[], narrow),
            PlanNode::Join { left, right } => {
                let l = self.build_tree(left, narrow)?;
                let r = self.build_tree(right, narrow)?;
                Ok(Box::new(NestedLoopJoin::new(l, r, None)))
            }
            PlanNode::Filter { preds, .. } if preds.is_empty() => {
                Err(CsqError::Plan("empty filter".into()))
            }
            // `input` under the conjunction of `preds` (just `input` when
            // there are none). Predicates landing directly on a scan also
            // push their pushable prefix down as a `FilterSpec`: segments
            // disproved by zone maps are skipped and rows the spec rejects
            // are never materialized. The full predicate is still applied
            // above — the spec only rules out.
            PlanNode::Filter { input, preds }
            | PlanNode::Final {
                input,
                pushed_preds: preds,
                ..
            } => {
                let child = match &**input {
                    PlanNode::Scan { unit } => self.scan_leaf(*unit, preds, narrow)?,
                    _ => self.build_tree(input, narrow)?,
                };
                Ok(match bind_preds(graph, preds, child.schema())? {
                    Some(pred) => Box::new(Filter::new(child, pred)),
                    None => child,
                })
            }
            PlanNode::ReturnToServer { input } => self.build_tree(input, narrow),
            // The shards ran everything under a `Gather`; what it lowers to is
            // the rows the coordinator fetched for it (csq_core::coord).
            PlanNode::Gather { .. } => self.leaves.next().ok_or_else(|| {
                CsqError::Plan("scatter/gather plan reached a single-node executor".into())
            }),
            PlanNode::Scatter { .. } => Err(CsqError::Plan(
                "scatter/gather plan reached a single-node executor".into(),
            )),
            PlanNode::Aggregate {
                input, placement, ..
            } => {
                let child = self.build_tree(input, narrow)?;
                let spec = graph.aggregate.as_ref().ok_or_else(|| {
                    CsqError::Plan("Aggregate node without an aggregate spec".into())
                })?;
                let memory = self.db.memory_tracker();
                let op = match placement {
                    AggPlacement::ClientOnly => {
                        let (key, aggs) = bind_aggregate(spec, child.schema())?;
                        HashAggregate::new(child, key, aggs)
                    }
                    // The partial phase reduces rows to group states (key
                    // columns, then each call's state columns) and the
                    // final phase finishes them: the two ends of the link
                    // the placement is priced on.
                    AggPlacement::ServerPartial => {
                        let (key, aggs) = bind_aggregate(spec, child.schema())?;
                        let key_len = key.len();
                        let partial = HashAggregate::partial(child, key, aggs.clone())
                            .with_memory(memory.clone());
                        HashAggregate::finalize(Box::new(partial), key_len, aggs)?
                    }
                    // The child is the `Gather [merge]` leaf: every shard's
                    // partial states, finished by the same final phase.
                    AggPlacement::ShardPartial => {
                        let aggs = spec
                            .calls
                            .iter()
                            .map(|c| AggSpec::new(c.func, None, c.result_col.clone()))
                            .collect();
                        HashAggregate::finalize(child, spec.group_by.len(), aggs)?
                    }
                };
                with_having(spec, Box::new(op.with_memory(memory)))
            }
            PlanNode::ApplyUdf {
                input,
                unit,
                strategy,
                ship,
            } => {
                let child = self.build_tree(input, false)?;
                let spec = ship_spec(graph, *unit, strategy, *ship, child.schema())?;
                let (server_end, client_end) = match &mut self.sim {
                    None => {
                        let (server_end, client_end, _stats) = in_memory_duplex();
                        (server_end, client_end)
                    }
                    Some(runs) => {
                        let (server_end, client_end, links) = virtual_duplex(&self.db.network());
                        runs.push(links);
                        (server_end, client_end)
                    }
                };
                // Client thread per client-site operator; detached — it exits
                // when the operator closes the connection *or* the query's
                // cancel token trips (checked at every received batch).
                let runtime = self.db.client_runtime().clone();
                spawn_client_with_token(runtime, client_end, self.token.clone())?;
                Ok(match spec {
                    ShipSpec::SemiJoin(spec) => {
                        Box::new(ThreadedSemiJoin::new(child, spec, server_end)?)
                    }
                    ShipSpec::ClientJoin(spec) => {
                        Box::new(ThreadedClientJoin::new(child, spec, server_end)?)
                    }
                })
            }
        }
    }
}

/// Project the final operator output — `batches` of `schema` — onto the
/// query's SELECT list, one batch at a time with a [`Projection`]: a
/// lane-backed batch of plain columns stays lanes (the picked lanes, under
/// the same selection), anything else is projected row by row. The SELECT
/// list is bound only here, after the tree has drained, so an error the
/// tree raises wins over one the projection would.
fn project_output(
    graph: &QueryGraph,
    schema: &Schema,
    batches: Vec<RowBatch>,
) -> Result<ResultBatches> {
    let out = graph.final_output();
    let mut exprs = Vec::with_capacity(out.len());
    for (e, name) in out {
        let pe = bind(e, schema)?;
        let dtype = pe.infer_type(schema).unwrap_or(csq_common::DataType::Str);
        exprs.push((pe, Field::new(name.clone(), dtype)));
    }
    let projection = Projection::new(exprs);
    let batches = batches
        .into_iter()
        .map(|b| projection.apply(b))
        .collect::<Result<_>>()?;
    Ok(ResultBatches {
        schema: projection.schema().as_ref().clone(),
        batches,
        affected: 0,
    })
}

/// Build the operator tree of an optimized SELECT over the link `sim`
/// picks, each `Gather` lowered to the next of `leaves` (a coordinator's
/// fetched rows, in [`PlanNode::walk`] order), drain it under a
/// cancellation token (deadline expiry or an explicit `cancel()` surfaces
/// as a typed `timeout`/`cancelled` error at the next operator batch
/// boundary), then project its batches onto the SELECT list.
pub(crate) fn run_tree(
    db: &Database,
    graph: &QueryGraph,
    plan: &csq_opt::OptimizedPlan,
    token: &CancelToken,
    sim: Option<&mut SimSummary>,
    leaves: Vec<BoxOp>,
) -> Result<ResultBatches> {
    let mut lowering = Lowering {
        db,
        graph,
        token,
        sim: sim.is_some().then(Vec::new),
        leaves: leaves.into_iter(),
    };
    let op = lowering.build_tree(&plan.root, true)?;
    // A second checkpoint above the root catches plans whose leaves run
    // inside feeder threads (the shipping operators).
    let mut op = CancelCheck::new(op, token.clone());
    let mut batches = Vec::new();
    while let Some(batch) = op.next_batch()? {
        batches.push(batch);
    }
    let schema = op.schema().clone();
    drop(op);
    token.check()?;
    if let (Some(summary), Some(runs)) = (sim, lowering.sim) {
        for links in &runs {
            summary.absorb(&SimRun::new(Vec::new(), links));
        }
    }
    project_output(graph, &schema, batches)
}

/// Execute an optimized SELECT on the threaded link under a cancellation
/// token. The one way the service and [`Database::execute`] run a plan.
pub(crate) fn execute_threaded(
    db: &Database,
    graph: &QueryGraph,
    plan: &csq_opt::OptimizedPlan,
    token: &CancelToken,
) -> Result<ResultBatches> {
    run_tree(db, graph, plan, token, None, Vec::new())
}

/// Execute an optimized SELECT on the virtual-time link: the same tree as
/// [`execute_threaded`], its `ApplyUdf` nodes timed by the link model, then
/// the result delivered over the modelled downlink.
pub fn execute_simulated(
    db: &Database,
    graph: &QueryGraph,
    plan: &csq_opt::OptimizedPlan,
) -> Result<(QueryResult, SimSummary)> {
    let mut summary = SimSummary::default();
    let token = CancelToken::new();
    let result = run_tree(db, graph, plan, &token, Some(&mut summary), Vec::new())?;
    let result = result.into_result();
    // Final delivery: ship the projected output to the client over the
    // downlink (the plain Final operator; merged-final savings are an
    // optimizer-estimate concern, see module docs).
    let net = db.network();
    let mut payload = Vec::new();
    codec::encode_rows(&result.rows, &mut payload);
    let mut down = net.make_downlink();
    let (_, arrival) = down.transmit(0, net.downlink_bytes(payload.len()));
    summary.elapsed_us += arrival;
    summary.down_bytes += down.bytes_sent();
    summary.down_messages += 1;
    Ok((result, summary))
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use csq_client::synthetic::RatingUdf;
    use csq_common::{Blob, DataType, Value};
    use csq_net::NetworkSpec;
    use csq_opt::UdfMeta;
    use csq_storage::TableBuilder;

    use super::*;

    fn stock_db(net: NetworkSpec) -> Database {
        let db = Database::new(net);
        let mut b = TableBuilder::new("StockQuotes")
            .column("Name", DataType::Str)
            .column("Change", DataType::Float)
            .column("Close", DataType::Float)
            .column("Quotes", DataType::Blob)
            .column("Report", DataType::Blob);
        for i in 0..2_000u64 {
            b = b.row(vec![
                Value::from(format!("company{i}")),
                Value::Float((i % 40) as f64),
                Value::Float(100.0),
                Value::Blob(Blob::synthetic(1_000, i % 500)),
                Value::Blob(Blob::synthetic(200, 1_000 + i)),
            ]);
        }
        db.catalog().register(b.build().unwrap()).unwrap();
        db.register_udf(Arc::new(RatingUdf::new("ClientAnalysis", 1000)))
            .unwrap();
        db
    }

    /// Columns the lowered operator tree of `sql` produces (before the final
    /// projection onto the SELECT list).
    fn lowered_width(db: &Database, sql: &str) -> usize {
        let (graph, plan) = db.optimize(sql).unwrap();
        let mut lowering = Lowering {
            db,
            graph: &graph,
            token: &CancelToken::new(),
            sim: None,
            leaves: Vec::new().into_iter(),
        };
        let op = lowering.build_tree(&plan.root, true).unwrap();
        op.schema().len()
    }

    /// A filter and a projection of plain columns over a sealed table leave
    /// the result as the scan's lanes: every output batch is lane-backed and
    /// unbuilt, and its rows are the ones the caller of `execute` gets.
    #[test]
    fn filtered_plain_columns_leave_the_executor_as_lanes() {
        let db = Database::new(NetworkSpec::lan());
        let mut b = TableBuilder::new("T")
            .column("Id", DataType::Int)
            .column("Sym", DataType::Str)
            .column("Val", DataType::Int);
        for i in 0..10_000i64 {
            b = b.row(vec![
                Value::Int(i),
                Value::from(format!("SYM{:03}", i * 7 % 500)),
                Value::Int(i * 37 % 100),
            ]);
        }
        let t = b.build().unwrap();
        t.seal_tail();
        db.catalog().register(t).unwrap();
        let sql = "SELECT T.Id, T.Sym, T.Val FROM T T WHERE T.Val > 89";
        let (graph, plan) = db.optimize(sql).unwrap();
        let out = execute_threaded(&db, &graph, &plan, &CancelToken::new()).unwrap();
        assert!(!out.batches.is_empty());
        for batch in &out.batches {
            assert!(batch.lanes().is_some() && !batch.is_materialized());
        }
        assert_eq!(out.len(), 1_000);
        assert_eq!(out.into_result().rows, db.execute(sql).unwrap().rows);
    }

    /// A plain scan decodes only what the plan reads. A scan under an
    /// `ApplyUdf` decodes everything, under either strategy: the client-site
    /// join ships the record it is given, so narrowing it would change what
    /// crosses the link (and what the paper's figures measure).
    #[test]
    fn scans_are_narrowed_except_under_an_apply_udf() {
        let semi = stock_db(NetworkSpec::modem_28_8());
        let join = stock_db(NetworkSpec::cable_asymmetric());
        join.advertise_udf(
            UdfMeta::client("ClientAnalysis", vec![DataType::Blob], DataType::Int)
                .with_result_bytes(20_000.0)
                .with_selectivity(0.01),
        );
        for (db, select, marker) in [
            (&semi, "S.Name", "[semi-join"),
            (&join, "S.Name, S.Quotes", "[client-site join"),
        ] {
            let udf_sql = format!(
                "SELECT {select} FROM StockQuotes S \
                 WHERE S.Change / S.Close > 0.2 AND ClientAnalysis(S.Quotes) > 500"
            );
            let plan = db.explain(&udf_sql).unwrap();
            assert!(plan.contains(marker), "{plan}");
            // All five columns plus the UDF result, though `Report` is unread.
            assert_eq!(lowered_width(db, &udf_sql), 6, "{marker}");
            assert_eq!(
                lowered_width(db, "SELECT S.Name FROM StockQuotes S WHERE S.Close > 1"),
                2
            );
            assert_eq!(lowered_width(db, "SELECT count(*) FROM StockQuotes S"), 1);
        }
    }
}
