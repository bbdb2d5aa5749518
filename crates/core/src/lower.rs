//! Plan lowering: optimizer [`PlanNode`] trees → execution.
//!
//! One lowering, one run, one link. [`run_tree`] is the only way a plan
//! runs: `build_tree` turns it into one operator tree — columnar scans,
//! filters, hash joins, aggregates, and the shipping operators of
//! `csq-ship` — drains that tree and projects its batches onto the SELECT
//! list, leaving the result as batches ([`ResultBatches`]): rows are built
//! by whoever receives them. Each `ApplyUdf` node ships over its own
//! [`client_link`]: a virtual-time duplex over the database's network to a
//! client session answering inline. Once the tree drains, each node's links
//! (its clock, bytes and client CPU) are folded into the result's
//! [`SimSummary`] (phases are sequential — a conservative approximation of
//! the pipelined reality, documented in DESIGN.md); the result's delivery
//! over the modelled downlink is added where it reaches an in-process
//! caller ([`ResultBatches::into_result`]).
//!
//! At a coordinator a [`Gather`] answers each `Gather` leaf: where a single
//! node would build a scan, it builds the typed fragment
//! ([`QueryRequest::Fetch`]) the shards run instead — the same filter and
//! narrowing, and under a shard-partial aggregate its partial phase — and
//! is a leaf over the rows they return. A shard answers it with
//! [`execute_fetch`].
//!
//! Execution-semantics notes: `leave-on-client` and `merged-with-final`
//! strategies differ from plain variants only in *cost* (what crosses the
//! uplink when); row semantics are identical, so lowering executes them as
//! their plain counterparts and the savings show up in the optimizer's
//! estimates and the cost-model benches.

use csq_client::protocol::check_expr_width;
use csq_client::QueryRequest;
use csq_common::{CancelToken, CsqError, DataType, Field, Result, Row, RowBatch, Schema};
use csq_exec::{
    aggregate_state_schema, AggSpec, BoxOp, CancelCheck, ColumnarScan, Filter, HashAggregate,
    HashJoin, Operator, Project, Projection, RowsOp,
};
use csq_expr::{analysis, bind, BinaryOp, ColumnRef, PhysExpr};
use csq_net::{Endpoint, VirtualLinks};
use csq_opt::{
    AggPlacement, AggregateSpec, GatherMode, PlanNode, QueryGraph, ShipParams, UdfStrategy, Unit,
};
use csq_ship::{
    client_link, ClientJoinSpec, SemiJoinSpec, ThreadedClientJoin, ThreadedSemiJoin, UdfApplication,
};
use csq_storage::{FilterSpec, Table};

use crate::result::{ResultBatches, SimSummary};
use crate::Database;

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

/// The table ordinals the plan reads from relation `unit`, whose table has
/// `schema`. Everything above a scan binds by name against its child's
/// schema, and all of it is in the graph: the pre-aggregation output, every
/// predicate (the filter above re-reads the pushed ones) and every UDF
/// argument. A name the table lacks is left for that binding to report.
fn read_columns(graph: &QueryGraph, unit: usize, schema: &Schema) -> Vec<usize> {
    let mut cols: Vec<usize> = graph
        .needed_columns(0, 0)
        .iter()
        .filter(|c| graph.owner_of(c) == Some(unit))
        .filter_map(|c| schema.index_of(None, &c.name).ok())
        .collect();
    cols.sort_unstable();
    cols.dedup();
    cols
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

/// The shipping operator of an `ApplyUdf` node over `child` and `server`:
/// the node's strategy at the tuples-per-message and concurrency factor the
/// optimizer stored on it.
fn ship_op(
    graph: &QueryGraph,
    unit: usize,
    strategy: &UdfStrategy,
    ship: ShipParams,
    child: BoxOp,
    server: Endpoint,
    token: &CancelToken,
) -> Result<BoxOp> {
    let Unit::Udf {
        name,
        args,
        result_col,
        meta,
    } = &graph.units[unit]
    else {
        return Err(CsqError::Plan("ApplyUdf of a relation unit".into()));
    };
    let schema = child.schema();
    let field = Field::new(result_col.clone(), meta.return_type);
    let col = |c: &ColumnRef| schema.index_of(c.qualifier.as_deref(), &c.name);
    let cols = args.iter().map(col).collect::<Result<_>>()?;
    let app = UdfApplication::new(name, cols, field.clone());
    Ok(match strategy {
        UdfStrategy::SemiJoin { .. } => {
            let mut spec = SemiJoinSpec::new(vec![app], ship.concurrency);
            spec.batch_size = ship.tuples_per_message;
            let op = ThreadedSemiJoin::new(child, spec, server)?;
            Box::new(op.with_cancel(token.clone()))
        }
        UdfStrategy::ClientJoin { pushed_preds, .. } => {
            let extended = schema.with_field(field);
            let mut spec = ClientJoinSpec::new(vec![app]);
            spec.batch_size = ship.tuples_per_message;
            spec.concurrency = ship.concurrency;
            spec.pushed_predicate = bind_preds(graph, pushed_preds, &extended)?;
            let op = ThreadedClientJoin::new(child, spec, server)?;
            Box::new(op.with_cancel(token.clone()))
        }
    })
}

/// The `(left, right)` key pairs a join whose left input is `width`
/// columns wide can take from `pred`, the filter over its output `schema`:
/// each conjunct `l = r` between columns of opposite sides of one declared
/// INT, STR, BLOB or BOOL type. FLOAT is left out (`Value` equality is
/// bitwise, so −0.0 and 0.0 differ, and NaN equals itself) and so are
/// mixed types (`sql_cmp` widens INT to FLOAT). Keys are taken only when no
/// conjunct can raise — each compares columns or a column and a literal of
/// one type, two numeric types, or a NULL — so every pair the join never
/// forms is one the filter maps to false, never one it would raise on.
fn join_keys(pred: &PhysExpr, schema: &Schema, width: usize) -> Vec<(usize, usize)> {
    use DataType::{Blob, Bool, Float, Int, Str};
    let operand = |e: &PhysExpr| match e {
        PhysExpr::Column(i) => Some((Some(*i), Some(schema.field(*i).dtype))),
        PhysExpr::Literal(v) => Some((None, v.data_type())),
        _ => None,
    };
    let numeric = |t| matches!(t, Some(Int | Float));
    let (mut keys, mut conjuncts) = (Vec::new(), vec![pred]);
    while let Some(c) = conjuncts.pop() {
        let PhysExpr::Binary { left, op, right } = c else {
            return Vec::new();
        };
        if *op == BinaryOp::And {
            conjuncts.extend([&**right, &**left]);
            continue;
        }
        let (Some((a, t)), Some((b, u))) = (operand(left), operand(right)) else {
            return Vec::new();
        };
        let typed = t == u || t.is_none() || u.is_none() || numeric(t) && numeric(u);
        if !op.is_comparison() || a.or(b).is_none() || !typed {
            return Vec::new();
        }
        if let (BinaryOp::Eq, Some(a), Some(b)) = (op, a, b) {
            let (a, b) = (a.min(b), a.max(b));
            if a < width && b >= width && t == u && matches!(t, Some(Int | Str | Blob | Bool)) {
                keys.push((a, b - width));
            }
        }
    }
    keys
}

// ---- the operator tree -----------------------------------------------------

/// One plan being lowered: what every node of the walk reads.
struct Lowering<'a> {
    db: &'a Database,
    graph: &'a QueryGraph,
    token: &'a CancelToken,
    /// How a coordinator answers each `Gather`; `None` on a single node.
    gather: Option<Gather<'a>>,
    /// Each `ApplyUdf`'s virtual-time links, read once the tree drains.
    runs: Vec<VirtualLinks>,
}

/// A coordinator's answer to one `Gather`: send the `Fetch` to the shard
/// its `Scatter` is pinned to (every shard when `None`) and return their
/// rows, checked against the schema the plan reads them under.
pub(crate) type Gather<'a> = &'a dyn Fn(&QueryRequest, Option<usize>, &Schema) -> Result<Vec<Row>>;

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
            let cols = read_columns(graph, unit, t.schema());
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

    /// Build the leaf a `Gather` over `scatter` lowers to: the fragment the
    /// shards run in place of the scan below it — its relation's rows under
    /// the conjuncts that need that relation alone and call no UDF (the
    /// operators above re-apply them), narrowed as [`scan_leaf`](Self::scan_leaf)
    /// narrows, and under `GatherMode::Merge` reduced to partial aggregate
    /// states — sent as one [`QueryRequest::Fetch`], then the rows returned.
    fn gather_leaf(&self, scatter: &PlanNode, mode: GatherMode, narrow: bool) -> Result<BoxOp> {
        let graph = self.graph;
        let (Some(gather), PlanNode::Scatter { input, target, .. }) = (self.gather, scatter) else {
            return Err(CsqError::Plan(
                "scatter/gather plan reached a single-node executor".into(),
            ));
        };
        let mut unit = None;
        input.walk(&mut |n| {
            if let PlanNode::Scan { unit: u } = n {
                unit.get_or_insert(*u);
            }
        });
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
        let preds: Vec<usize> = (0..graph.predicates.len())
            .filter(|&p| {
                let p = &graph.predicates[p];
                p.required & !(1u64 << unit) == 0 && !p.references_udf
            })
            .collect();
        let columns = if narrow {
            read_columns(graph, unit, &stats.schema)
        } else {
            (0..stats.schema.len()).collect()
        };
        let partial = match mode {
            GatherMode::Merge => Some(bind_aggregate(self.aggregate()?, &qualified)?),
            GatherMode::Ordered => None,
        };
        let schema = match &partial {
            Some((key, aggs)) => aggregate_state_schema(&qualified, key, aggs),
            None => qualified.project(&columns),
        };
        let fetch = QueryRequest::Fetch {
            table: table.clone(),
            schema: stats.schema.clone(),
            filter: bind_preds(graph, &preds, &qualified)?,
            columns,
            partial,
            deadline_ms: 0,
        };
        let rows = gather(&fetch, *target, &schema)?;
        Ok(Box::new(RowsOp::new(schema, rows)))
    }

    fn aggregate(&self) -> Result<&AggregateSpec> {
        self.graph
            .aggregate
            .as_ref()
            .ok_or_else(|| CsqError::Plan("Aggregate node without an aggregate spec".into()))
    }

    /// The join of `l` and `r` under `preds`, the predicates of the filter
    /// directly above it: one [`HashJoin`] under the database's memory
    /// budget, keyed on the pairs [`join_keys`] takes from them (a predicate
    /// that does not bind is left for the filter to report).
    fn join(&mut self, l: &PlanNode, r: &PlanNode, preds: &[usize], narrow: bool) -> Result<BoxOp> {
        let (l, r) = (self.build_tree(l, narrow)?, self.build_tree(r, narrow)?);
        let schema = l.schema().join(r.schema());
        let pred = bind_preds(self.graph, preds, &schema).ok().flatten();
        let keys = pred.map_or(Vec::new(), |p| join_keys(&p, &schema, l.schema().len()));
        let join = HashJoin::new(l, r, keys).with_memory(self.db.memory_tracker());
        Ok(Box::new(join))
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
            PlanNode::Join { left, right } => self.join(left, right, &[], narrow),
            PlanNode::Filter { preds, .. } if preds.is_empty() => {
                Err(CsqError::Plan("empty filter".into()))
            }
            // `input` under the conjunction of `preds` (just `input` when
            // there are none). Predicates landing directly on a scan also
            // push their pushable prefix down as a `FilterSpec`: segments
            // disproved by zone maps are skipped and rows the spec rejects
            // are never materialized; on a join they key it. The full
            // predicate is still applied above — the spec and the key only
            // rule out.
            PlanNode::Filter { input, preds }
            | PlanNode::Final {
                input,
                pushed_preds: preds,
                ..
            } => {
                let child = match &**input {
                    PlanNode::Scan { unit } => self.scan_leaf(*unit, preds, narrow)?,
                    PlanNode::Join { left, right } => self.join(left, right, preds, narrow)?,
                    _ => self.build_tree(input, narrow)?,
                };
                Ok(match bind_preds(graph, preds, child.schema())? {
                    Some(pred) => Box::new(Filter::new(child, pred)),
                    None => child,
                })
            }
            PlanNode::ReturnToServer { input } => self.build_tree(input, narrow),
            PlanNode::Gather { input, mode } => self.gather_leaf(input, *mode, narrow),
            PlanNode::Scatter { .. } => Err(CsqError::Plan(
                "scatter/gather plan reached a single-node executor".into(),
            )),
            PlanNode::Aggregate {
                input, placement, ..
            } => {
                let child = self.build_tree(input, narrow)?;
                let spec = self.aggregate()?;
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
                let runtime = self.db.client_runtime().clone();
                let (server_end, links) = client_link(&self.db.network(), runtime);
                self.runs.push(links);
                ship_op(graph, *unit, strategy, *ship, child, server_end, self.token)
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
        sim: None,
    })
}

/// Build the operator tree of an optimized SELECT, its `Gather` leaves
/// answered by `gather`, drain it under a cancellation token (deadline
/// expiry or an explicit `cancel()` surfaces as a typed
/// `timeout`/`cancelled` error at the next operator batch boundary), then
/// project its batches onto the SELECT list and fold every client-site
/// phase into the result's [`SimSummary`]. The one way a plan runs.
pub(crate) fn run_tree(
    db: &Database,
    graph: &QueryGraph,
    plan: &csq_opt::OptimizedPlan,
    token: &CancelToken,
    gather: Option<Gather<'_>>,
) -> Result<ResultBatches> {
    let mut lowering = Lowering {
        db,
        graph,
        token,
        gather,
        runs: Vec::new(),
    };
    let op = lowering.build_tree(&plan.root, true)?;
    // A second checkpoint above the root: a `Gather` leaf has none of its
    // own.
    let mut op = CancelCheck::new(op, token.clone());
    let mut batches = Vec::new();
    while let Some(batch) = op.next_batch()? {
        batches.push(batch);
    }
    let schema = op.schema().clone();
    drop(op);
    token.check()?;
    let mut out = project_output(graph, &schema, batches)?;
    let mut sim = SimSummary::default();
    for links in &lowering.runs {
        sim.absorb(links);
    }
    out.sim = Some(sim);
    Ok(out)
}

/// Answer a [`QueryRequest::Fetch`] for `table` with the operators lowering
/// builds: a [`ColumnarScan`] under the filter's
/// [`FilterSpec`], its [`Filter`], then the fetched `columns` or, with
/// `partial`, a [`HashAggregate::partial`] under the database's memory
/// tracker. The request comes from outside the program: a table whose
/// columns differ from `schema` by name, type or order is a `catalog`
/// error, and an ordinal past the table's width a `plan` error, both
/// before any operator is built. Nothing is parsed or optimized.
pub(crate) fn execute_fetch(
    db: &Database,
    table: &str,
    schema: &Schema,
    filter: Option<PhysExpr>,
    columns: &[usize],
    partial: Option<(Vec<usize>, Vec<AggSpec>)>,
    token: &CancelToken,
) -> Result<ResultBatches> {
    token.check()?;
    let t = db.catalog().get(table)?;
    let fields = t.schema().fields();
    let same =
        |(a, b): (&Field, &Field)| a.name.eq_ignore_ascii_case(&b.name) && a.dtype == b.dtype;
    if fields.len() != schema.len() || !fields.iter().zip(schema.fields()).all(same) {
        return Err(CsqError::Catalog(format!(
            "table '{table}' here is not the {}-column table the request names",
            schema.len()
        )));
    }
    let width = fields.len();
    let (keys, aggs) = partial.as_ref().map_or((&[][..], &[][..]), |(k, a)| (k, a));
    for e in filter
        .iter()
        .chain(aggs.iter().filter_map(|a| a.arg.as_ref()))
    {
        check_expr_width(e, width)?;
    }
    if let Some(i) = columns.iter().chain(keys).find(|&&i| i >= width) {
        return Err(CsqError::Plan(format!(
            "column {i} out of range (width {width})"
        )));
    }
    let spec = filter.as_ref().and_then(FilterSpec::from_phys);
    let scan = ColumnarScan::new(&t, table, spec.as_ref())?;
    let mut op: BoxOp = Box::new(CancelCheck::new(Box::new(scan), token.clone()));
    if let Some(pred) = filter {
        op = Box::new(Filter::new(op, pred));
    }
    op = match partial {
        Some((keys, aggs)) => {
            Box::new(HashAggregate::partial(op, keys, aggs).with_memory(db.memory_tracker()))
        }
        None => {
            let cols: Vec<_> = columns
                .iter()
                .map(|&i| (PhysExpr::Column(i), op.schema().field(i).clone()))
                .collect();
            Box::new(Project::new(op, cols))
        }
    };
    let mut batches = Vec::new();
    while let Some(batch) = op.next_batch()? {
        batches.push(batch);
    }
    token.check()?;
    Ok(ResultBatches {
        schema: op.schema().clone(),
        batches,
        affected: 0,
        sim: None,
    })
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
            gather: None,
            runs: Vec::new(),
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
        let out = run_tree(&db, &graph, &plan, &CancelToken::new(), None).unwrap();
        assert!(!out.batches.is_empty());
        for batch in &out.batches {
            assert!(batch.lanes().is_some() && !batch.is_materialized());
        }
        assert_eq!(out.len(), 1_000);
        assert_eq!(
            out.into_result(&db.network()).rows,
            db.execute(sql).unwrap().rows
        );
    }

    /// The Figure 1 query stays on lanes from the scan to the result: the
    /// arithmetic conjunct is decided on the scan's lanes, the semi-join
    /// appends its result lane to them, and the filter on the result and
    /// the final projection pick lanes. No row is built before the caller
    /// asks for them.
    #[test]
    fn the_paper_query_leaves_the_executor_as_lanes() {
        let db = stock_db(NetworkSpec::modem_28_8());
        let sql = "SELECT S.Name, S.Report FROM StockQuotes S \
                   WHERE S.Change / S.Close > 0.2 AND ClientAnalysis(S.Quotes) > 500";
        assert!(db.explain(sql).unwrap().contains("[semi-join"));
        let (graph, plan) = db.optimize(sql).unwrap();
        let out = run_tree(&db, &graph, &plan, &CancelToken::new(), None).unwrap();
        assert!(!out.batches.is_empty());
        for batch in &out.batches {
            assert!(batch.lanes().is_some() && !batch.is_materialized());
        }
        let rows = out.into_result(&db.network()).rows;
        assert!(!rows.is_empty());
        assert_eq!(rows, db.execute(sql).unwrap().rows);
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

    /// Lowering keys a join on `l = r` between opposite sides of one
    /// declared INT, STR, BLOB or BOOL type, and only when no conjunct of
    /// the filter can raise; anything else leaves the cross product.
    #[test]
    fn join_keys_take_only_exact_equalities() {
        let side = |q: &str| {
            Schema::new(vec![
                Field::qualified(q, "k", DataType::Int),
                Field::qualified(q, "s", DataType::Str),
                Field::qualified(q, "f", DataType::Float),
                Field::qualified(q, "b", DataType::Bool),
            ])
        };
        let schema = side("a").join(&side("b"));
        let keys = |sql: &str| {
            let pred = bind(&csq_sql::parse_expression(sql).unwrap(), &schema).unwrap();
            join_keys(&pred, &schema, 4)
        };
        assert_eq!(keys("a.k = b.k"), [(0, 0)]);
        assert_eq!(keys("b.s = a.s AND a.k = b.k"), [(1, 1), (0, 0)]);
        assert_eq!(keys("a.b = b.b AND a.k > 3 AND b.f < a.k"), [(3, 3)]);
        assert_eq!(keys("a.k = b.k AND a.s = NULL AND 2.5 <= b.f"), [(0, 0)]);
        // Not a key, but unable to raise: the other pairs stay keys.
        assert_eq!(keys("a.f = b.f AND a.k = b.k"), [(0, 0)]);
        assert_eq!(keys("a.k = b.f AND a.k = a.k AND b.s = b.s"), []);
        assert_eq!(keys("a.k < b.k"), []);
        // A conjunct that could raise leaves the join unkeyed.
        for sql in [
            "a.k = b.k AND a.k / b.k > 1",
            "a.k = b.k AND a.s = 1",
            "a.k = b.k AND (a.f > 1.0 OR a.b)",
            "a.k = b.k AND NOT a.b",
            "a.k = b.k AND 1 = 1",
        ] {
            assert_eq!(keys(sql), [], "{sql}");
        }
    }
}
