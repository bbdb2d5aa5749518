//! Optimizer plan trees and EXPLAIN rendering.

use std::collections::HashMap;

use csq_cost::{AggPlacement, ShipParams};

use crate::query::QueryGraph;

/// How a client-site UDF unit is executed (§2.3 strategies plus the §5.1
/// interaction variants).
#[derive(Debug, Clone, PartialEq)]
pub enum UdfStrategy {
    /// Semi-join: ship deduplicated argument columns, return results.
    /// With `leave_on_client`, results (and the shipped arguments) stay at
    /// the client for later client-site operations or final delivery
    /// (§5.1.2 grouping / §5.2.3 column-location property).
    SemiJoin {
        /// Keep arguments+result at the client instead of returning.
        leave_on_client: bool,
    },
    /// Client-site join: ship (needed columns of) whole records, apply the
    /// UDF plus pushed predicates/projections at the client.
    /// With `merged_with_final`, nothing returns to the server — the client
    /// keeps the delivered rows (Figure 12(d)).
    ClientJoin {
        /// Predicate indices evaluated at the client.
        pushed_preds: Vec<usize>,
        /// Merged with the final result operator.
        merged_with_final: bool,
    },
}

/// How a coordinator reassembles scattered per-shard result streams
/// (DESIGN.md §13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatherMode {
    /// Concatenate the per-shard row streams in shard order — deterministic
    /// given the topology, used for plain row results.
    Ordered,
    /// Merge per-shard partial-aggregate states group-by-group before the
    /// finalize phase (the shard-partial placement's gather).
    Merge,
}

impl GatherMode {
    /// Explain label.
    pub fn label(self) -> &'static str {
        match self {
            GatherMode::Ordered => "ordered",
            GatherMode::Merge => "merge",
        }
    }
}

/// A plan node. Costing annotations live in [`crate::dp::OptimizedPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Scan a base relation unit.
    Scan {
        /// Unit index.
        unit: usize,
    },
    /// Join the left plan with a base relation (left-deep, System-R style).
    /// Join predicates are applied by the following `Filter` (the DP applies
    /// predicates greedily as soon as they are evaluable).
    Join {
        left: Box<PlanNode>,
        right: Box<PlanNode>,
    },
    /// Apply a client-site UDF unit.
    ApplyUdf {
        input: Box<PlanNode>,
        /// Unit index of the UDF.
        unit: usize,
        strategy: UdfStrategy,
        /// Tuples per message and concurrency factor both lowerings ship
        /// with ([`csq_cost::shipping_params`]).
        ship: ShipParams,
    },
    /// Server-site selection of the given predicate indices.
    Filter {
        input: Box<PlanNode>,
        preds: Vec<usize>,
    },
    /// Ship client-resident columns back to the server (needed before a
    /// server-site operator can consume them).
    ReturnToServer { input: Box<PlanNode> },
    /// Deliver the output to the client. `client_resident` counts output
    /// columns that were already at the client (delivered for free thanks
    /// to leave-on-client strategies); `pushed_preds` are residual
    /// predicates evaluated at the client on delivery.
    Final {
        input: Box<PlanNode>,
        client_resident: usize,
        pushed_preds: Vec<usize>,
    },
    /// Grouped aggregation over the delivered rows (details in
    /// [`QueryGraph::aggregate`]). `placement` says where the partial phase
    /// ran: `server-partial` reduced rows to groups before they crossed the
    /// wire (shipping decomposed state), `client-only` shipped the
    /// pre-aggregation rows and aggregated at the client. `groups_est` is
    /// the optimizer's group-count estimate.
    Aggregate {
        input: Box<PlanNode>,
        placement: AggPlacement,
        groups_est: f64,
    },
    /// Fan the subplan out to a shard set (DESIGN.md §13): every live shard
    /// runs the subplan over its hash-partition of the data, or only
    /// `target` when a predicate pins the shard key to one hash bucket.
    Scatter {
        input: Box<PlanNode>,
        /// Shards in the topology.
        shards: usize,
        /// The one shard contacted, when the shard key is pinned; the
        /// coordinator skips the other `shards - 1`.
        target: Option<usize>,
    },
    /// Reassemble the scattered streams at the coordinator: shard-order
    /// concatenation for row results, group-wise state merging for
    /// shard-partial aggregation.
    Gather {
        input: Box<PlanNode>,
        mode: GatherMode,
    },
}

impl PlanNode {
    /// Render an indented EXPLAIN tree using unit/predicate labels from the
    /// query graph.
    pub fn explain(&self, graph: &QueryGraph) -> String {
        self.explain_annotated(graph, &HashMap::new())
    }

    /// Like [`explain`](Self::explain), with an annotation string appended
    /// to each Scan line whose unit index appears in `scan_notes` (the
    /// database layer fills these with live zone-map pruning counts).
    pub fn explain_annotated(
        &self,
        graph: &QueryGraph,
        scan_notes: &HashMap<usize, String>,
    ) -> String {
        let mut out = String::new();
        self.fmt(graph, scan_notes, 0, &mut out);
        out
    }

    fn fmt(
        &self,
        graph: &QueryGraph,
        notes: &HashMap<usize, String>,
        depth: usize,
        out: &mut String,
    ) {
        let pad = "  ".repeat(depth);
        let preds_str = |preds: &[usize]| {
            preds
                .iter()
                .map(|&p| graph.predicates[p].expr.to_string())
                .collect::<Vec<_>>()
                .join(" AND ")
        };
        match self {
            PlanNode::Scan { unit } => match notes.get(unit) {
                Some(n) => {
                    out.push_str(&format!("{pad}Scan {} ({n})\n", graph.units[*unit].label()))
                }
                None => out.push_str(&format!("{pad}Scan {}\n", graph.units[*unit].label())),
            },
            PlanNode::Join { left, right } => {
                out.push_str(&format!("{pad}Join\n"));
                left.fmt(graph, notes, depth + 1, out);
                right.fmt(graph, notes, depth + 1, out);
            }
            PlanNode::ApplyUdf {
                input,
                unit,
                strategy,
                ship,
            } => {
                let how = match strategy {
                    UdfStrategy::SemiJoin {
                        leave_on_client: false,
                    } => "semi-join".to_string(),
                    UdfStrategy::SemiJoin {
                        leave_on_client: true,
                    } => "semi-join, leave-on-client".to_string(),
                    UdfStrategy::ClientJoin {
                        pushed_preds,
                        merged_with_final,
                    } => {
                        let mut s = "client-site join".to_string();
                        if !pushed_preds.is_empty() {
                            s.push_str(&format!(", push [{}]", preds_str(pushed_preds)));
                        }
                        if *merged_with_final {
                            s.push_str(", merged with final");
                        }
                        s
                    }
                };
                out.push_str(&format!(
                    "{pad}ApplyUdf {} [{how}, {}/msg, K={}]\n",
                    graph.units[*unit].label(),
                    ship.tuples_per_message,
                    ship.concurrency
                ));
                input.fmt(graph, notes, depth + 1, out);
            }
            PlanNode::Filter { input, preds } => {
                out.push_str(&format!("{pad}Filter [{}]\n", preds_str(preds)));
                input.fmt(graph, notes, depth + 1, out);
            }
            PlanNode::ReturnToServer { input } => {
                out.push_str(&format!("{pad}ReturnToServer\n"));
                input.fmt(graph, notes, depth + 1, out);
            }
            PlanNode::Aggregate {
                input,
                placement,
                groups_est,
            } => {
                let mut desc = String::new();
                if let Some(spec) = &graph.aggregate {
                    let keys: Vec<String> = spec.group_by.iter().map(|c| c.to_string()).collect();
                    let calls: Vec<String> = spec
                        .calls
                        .iter()
                        .map(|c| match &c.arg {
                            Some(a) => format!("{}({a})", c.func.name()),
                            None => format!("{}(*)", c.func.name()),
                        })
                        .collect();
                    if !keys.is_empty() {
                        desc.push_str(&format!(" by [{}]", keys.join(", ")));
                    }
                    if !calls.is_empty() {
                        desc.push_str(&format!(" [{}]", calls.join(", ")));
                    }
                    if let Some(h) = &spec.having {
                        desc.push_str(&format!(" [having: {h}]"));
                    }
                }
                out.push_str(&format!(
                    "{pad}Aggregate [{}]{desc} (~{:.0} groups)\n",
                    placement.label(),
                    groups_est
                ));
                input.fmt(graph, notes, depth + 1, out);
            }
            PlanNode::Final {
                input,
                client_resident,
                pushed_preds,
            } => {
                let mut note = String::new();
                if *client_resident > 0 {
                    note.push_str(&format!(" [{client_resident} column(s) already at client]"));
                }
                if !pushed_preds.is_empty() {
                    note.push_str(&format!(" [client filter: {}]", preds_str(pushed_preds)));
                }
                out.push_str(&format!("{pad}Final{note}\n"));
                input.fmt(graph, notes, depth + 1, out);
            }
            PlanNode::Scatter {
                input,
                shards,
                target,
            } => {
                let pruned = if target.is_some() { shards - 1 } else { 0 };
                out.push_str(&format!(
                    "{pad}Scatter [{shards} shards, {pruned} pruned]\n"
                ));
                input.fmt(graph, notes, depth + 1, out);
            }
            PlanNode::Gather { input, mode } => {
                out.push_str(&format!("{pad}Gather [{}]\n", mode.label()));
                input.fmt(graph, notes, depth + 1, out);
            }
        }
    }

    /// Collect the UDF application order and strategies (for tests).
    pub fn udf_applications(&self) -> Vec<(usize, UdfStrategy)> {
        let mut v = Vec::new();
        self.walk(&mut |n| {
            if let PlanNode::ApplyUdf { unit, strategy, .. } = n {
                v.push((*unit, strategy.clone()));
            }
        });
        v.reverse(); // walk is top-down; applications happen bottom-up
        v
    }

    /// Depth-first walk (node before children).
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a PlanNode)) {
        f(self);
        match self {
            PlanNode::Scan { .. } => {}
            PlanNode::Join { left, right } => {
                left.walk(f);
                right.walk(f);
            }
            PlanNode::ApplyUdf { input, .. }
            | PlanNode::Filter { input, .. }
            | PlanNode::ReturnToServer { input }
            | PlanNode::Final { input, .. }
            | PlanNode::Aggregate { input, .. }
            | PlanNode::Scatter { input, .. }
            | PlanNode::Gather { input, .. } => input.walk(f),
        }
    }

    /// True when a join appears below the given UDF unit's application
    /// (i.e. the UDF ran after that join) — used in tests that check
    /// operator placement.
    pub fn udf_after_join(&self, udf_unit: usize) -> bool {
        let mut found = false;
        self.walk(&mut |n| {
            if let PlanNode::ApplyUdf { unit, input, .. } = n {
                if *unit == udf_unit {
                    let mut has_join = false;
                    input.walk(&mut |m| {
                        if matches!(m, PlanNode::Join { .. }) {
                            has_join = true;
                        }
                    });
                    found = has_join;
                }
            }
        });
        found
    }
}
