//! Shard-aware plan post-processing (DESIGN.md §13).
//!
//! A coordinator context ([`OptContext::with_shards`]) optimizes queries
//! with the ordinary two-site DP, then [`shardify`] rewrites the winning
//! plan into the scatter/gather form the coordinator executes:
//!
//! * **Pushable** queries (a single base relation, no client-site UDF
//!   units) run the whole subplan on every live shard — the plan below the
//!   finalize layer is wrapped in `Gather(Scatter(...))`, and a
//!   shard-partial `Aggregate` sits above the gather as the coordinator's
//!   merge+finalize phase.
//! * Everything else (joins, UDFs) gathers each base relation's shard
//!   partitions separately and runs the remaining operators at the
//!   coordinator: it lowers this same plan, each `Gather` a leaf over the
//!   rows it fetched.
//!
//! Shard pruning: when a conjunct pins a table's hash-partitioning column
//! to a literal (`key = lit`), only the shard owning that hash bucket is
//! contacted; the `Scatter` node records that shard as its `target`.

use csq_common::{Row, Value};
use csq_expr::{BinaryOp, Expr};

use crate::context::OptContext;
use crate::plan::{GatherMode, PlanNode};
use crate::query::{QueryGraph, Unit};

/// The literal a query pins relation `unit`'s shard key to, if any: a
/// conjunct of the form `key = literal` (either side) over the table's
/// hash-partitioning column. The coordinator routes such scans to the
/// single shard owning the literal's hash bucket.
pub fn pinned_shard_value<'a>(
    graph: &'a QueryGraph,
    opt: &OptContext,
    unit: usize,
) -> Option<&'a Value> {
    let Unit::Rel {
        alias,
        table,
        stats,
    } = &graph.units[unit]
    else {
        return None;
    };
    let key = opt.shard_key(table)?;
    // Pruning routes by `Value::hash`, so the literal must already be the
    // column's exact type: `Int(5)` and `Float(5.0)` compare equal under SQL
    // coercion but hash to different buckets. A mistyped literal falls back
    // to contacting every shard, which is always correct.
    let key_type = stats
        .schema
        .index_of(None, key)
        .ok()
        .map(|i| stats.schema.field(i).dtype)?;
    graph
        .predicates
        .iter()
        .filter(|p| p.required == (1u64 << unit))
        .find_map(|p| eq_literal_on(&p.expr, alias, key))
        .filter(|v| v.data_type() == Some(key_type))
}

fn eq_literal_on<'a>(e: &'a Expr, alias: &str, key: &str) -> Option<&'a Value> {
    let Expr::Binary {
        left,
        op: BinaryOp::Eq,
        right,
    } = e
    else {
        return None;
    };
    match (left.as_ref(), right.as_ref()) {
        (Expr::Column(c), Expr::Literal(v)) | (Expr::Literal(v), Expr::Column(c))
            if c.name.eq_ignore_ascii_case(key)
                && c.qualifier
                    .as_deref()
                    .is_none_or(|q| q.eq_ignore_ascii_case(alias)) =>
        {
            Some(v)
        }
        _ => None,
    }
}

/// True when the whole plan can run per shard unchanged: a single base
/// relation and no client-site UDF units.
pub fn pushable(graph: &QueryGraph) -> bool {
    graph.n_rels == 1 && graph.units.len() == 1
}

/// The shard owning `v`'s hash bucket among `n` — the same `Value` hash
/// INSERT routing uses ([`Row::partition_of`]), so pruning and routing
/// always agree.
pub fn shard_for(v: &Value, n: usize) -> usize {
    Row::new(vec![v.clone()]).partition_of(Some(&[0]), n)
}

/// The one shard a scan of relation `unit` contacts when the shard key is
/// pinned; `None` when it contacts every shard.
fn target_for(graph: &QueryGraph, opt: &OptContext, unit: usize) -> Option<usize> {
    pinned_shard_value(graph, opt, unit).map(|v| shard_for(v, opt.shards))
}

/// Rewrite an optimized single-node plan into the scatter/gather form a
/// coordinator executes (see module docs). No-op for unsharded contexts.
pub fn shardify(root: PlanNode, graph: &QueryGraph, opt: &OptContext) -> PlanNode {
    if !opt.sharded() {
        return root;
    }
    if pushable(graph) {
        let target = target_for(graph, opt, 0);
        return match root {
            // The finalize Aggregate stays above the gather: shards run the
            // subplan (for shard-partial, their local partial phase) and the
            // coordinator merges/finishes.
            PlanNode::Aggregate {
                input,
                placement,
                groups_est,
            } => {
                let mode = match placement {
                    csq_cost::AggPlacement::ShardPartial => GatherMode::Merge,
                    _ => GatherMode::Ordered,
                };
                PlanNode::Aggregate {
                    input: Box::new(wrap(input, opt.shards, target, mode)),
                    placement,
                    groups_est,
                }
            }
            other => wrap(Box::new(other), opt.shards, target, GatherMode::Ordered),
        };
    }
    wrap_scans(root, graph, opt)
}

fn wrap(input: Box<PlanNode>, shards: usize, target: Option<usize>, mode: GatherMode) -> PlanNode {
    PlanNode::Gather {
        input: Box::new(PlanNode::Scatter {
            input,
            shards,
            target,
        }),
        mode,
    }
}

/// Fallback form: every base-relation scan gathers its shard partitions;
/// joins/UDFs/aggregation run above, at the coordinator.
fn wrap_scans(node: PlanNode, graph: &QueryGraph, opt: &OptContext) -> PlanNode {
    match node {
        PlanNode::Scan { unit } => wrap(
            Box::new(PlanNode::Scan { unit }),
            opt.shards,
            target_for(graph, opt, unit),
            GatherMode::Ordered,
        ),
        PlanNode::Join { left, right } => PlanNode::Join {
            left: Box::new(wrap_scans(*left, graph, opt)),
            right: Box::new(wrap_scans(*right, graph, opt)),
        },
        PlanNode::ApplyUdf {
            input,
            unit,
            strategy,
            ship,
        } => PlanNode::ApplyUdf {
            input: Box::new(wrap_scans(*input, graph, opt)),
            unit,
            strategy,
            ship,
        },
        PlanNode::Filter { input, preds } => PlanNode::Filter {
            input: Box::new(wrap_scans(*input, graph, opt)),
            preds,
        },
        PlanNode::ReturnToServer { input } => PlanNode::ReturnToServer {
            input: Box::new(wrap_scans(*input, graph, opt)),
        },
        PlanNode::Final {
            input,
            client_resident,
            pushed_preds,
        } => PlanNode::Final {
            input: Box::new(wrap_scans(*input, graph, opt)),
            client_resident,
            pushed_preds,
        },
        PlanNode::Aggregate {
            input,
            placement,
            groups_est,
        } => PlanNode::Aggregate {
            input: Box::new(wrap_scans(*input, graph, opt)),
            placement,
            groups_est,
        },
        // Already wrapped (shardify is idempotent only because these stop
        // the recursion).
        done @ (PlanNode::Scatter { .. } | PlanNode::Gather { .. }) => done,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::TableStats;
    use csq_common::{DataType, Field, Schema};
    use csq_net::NetworkSpec;

    #[test]
    fn shard_routing_matches_row_partitioning() {
        // The pinning path hashes a lone literal; INSERT routing hashes the
        // key column inside the full row. They must agree.
        let v = Value::from("Acme");
        let row = Row::new(vec![Value::Int(9), v.clone(), Value::Float(1.5)]);
        for n in [1usize, 2, 4, 7] {
            assert_eq!(shard_for(&v, n), row.partition_of(Some(&[1]), n));
        }

        // A pinned `Scatter` targets the shard its literal's row routes to.
        let schema = Schema::new(vec![
            Field::new("Id", DataType::Int),
            Field::new("Name", DataType::Str),
            Field::new("Price", DataType::Float),
        ]);
        for n in [2usize, 4, 7] {
            let mut ctx = OptContext::new(NetworkSpec::lan()).with_shards(n);
            ctx.add_table(
                "T",
                TableStats {
                    schema: schema.clone(),
                    rows: 100.0,
                    row_bytes: 27.0,
                    col_bytes: vec![9.0, 9.0, 9.0],
                    segments: Default::default(),
                },
            );
            ctx.set_shard_key("T", "Name");
            let csq_sql::Statement::Select(sel) =
                csq_sql::parse_statement("SELECT T.Id FROM T T WHERE T.Name = 'Acme'").unwrap()
            else {
                unreachable!()
            };
            let graph = crate::query::extract(&sel, &ctx).unwrap();
            let plan = crate::optimize(&graph, &ctx).unwrap();
            let mut targets = Vec::new();
            plan.root.walk(&mut |node| {
                if let PlanNode::Scatter { target, .. } = node {
                    targets.push(*target);
                }
            });
            assert_eq!(
                targets,
                [Some(row.partition_of(Some(&[1]), n))],
                "{n} shards"
            );
        }
    }
}
