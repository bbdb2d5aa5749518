//! The extended System-R dynamic program (§5.2).
//!
//! Plans are built bottom-up over *units* (base relations + client-site
//! UDFs). Each state is keyed by `(applied units, applied predicates,
//! client-resident columns)` — the last component is the paper's new
//! physical property generalized to column granularity (§5.2.3), so plans
//! that left different column sets at the client are kept separately and
//! semi-join grouping falls out of ordinary dynamic programming.
//!
//! Costs are network-transfer seconds: for each operator that moves data,
//! `max(downlink seconds, uplink seconds)` (the bottleneck link, §3.2),
//! summed over operators, plus a tiny per-tuple server cost that breaks
//! ties in favour of plans doing less server work. The paper's assumption
//! that client and server CPU are not bottlenecks is preserved.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use csq_common::{CsqError, Result};
use csq_expr::analysis;

use crate::context::OptContext;
use crate::plan::{PlanNode, UdfStrategy};
use crate::query::{QueryGraph, Unit};

/// The optimizer's output.
#[derive(Debug, Clone)]
pub struct OptimizedPlan {
    /// The chosen plan.
    pub root: PlanNode,
    /// Estimated total cost, seconds of bottleneck network transfer.
    pub cost_seconds: f64,
    /// Estimated output cardinality.
    pub est_rows: f64,
    /// Number of states explored (for the complexity discussion: the
    /// algorithm is exponential in #joins + #client-site UDFs).
    pub states_explored: usize,
}

#[derive(Clone)]
struct State {
    mask: u64,
    applied_preds: u64,
    client_cols: BTreeSet<String>,
    server_cols: BTreeSet<String>,
    rows: f64,
    cost: f64,
    plan: PlanNode,
}

fn key_of(s: &State) -> (u64, u64, String) {
    let cols = s.client_cols.iter().cloned().collect::<Vec<_>>().join(",");
    (s.mask, s.applied_preds, cols)
}

struct Ctx<'a> {
    graph: &'a QueryGraph,
    opt: &'a OptContext,
    /// Column display name → average wire bytes.
    col_bytes: HashMap<String, f64>,
    /// Per-UDF-unit estimated distinct argument tuples.
    distinct_args: HashMap<usize, f64>,
    /// Column display names per unit.
    unit_cols: Vec<Vec<String>>,
}

impl<'a> Ctx<'a> {
    fn bytes_of(&self, cols: &BTreeSet<String>) -> f64 {
        cols.iter()
            .map(|c| self.col_bytes.get(c).copied().unwrap_or(16.0))
            .sum()
    }

    /// Transfer cost in seconds for one operator moving `down`/`up` bytes.
    fn net_cost(&self, down: f64, up: f64) -> f64 {
        let n = &self.opt.net;
        let down_s = down / n.down_bandwidth;
        let up_s = up * n.uplink_inflation / n.up_bandwidth;
        down_s.max(up_s)
    }

    fn server_cost(&self, rows: f64) -> f64 {
        rows * self.opt.server_tuple_cost * 1e-6
    }

    /// Shipping parameters of one UDF application over `rows` input tuples
    /// of which the fraction `d` crosses the downlink, `down`/`up` bytes per
    /// shipped tuple. Both lowerings execute the leave-on-client and
    /// merged-with-final variants as their plain counterparts, so the bytes
    /// are those of the plain strategy; no client cost is advertised
    /// ([`crate::UdfMeta`]), so the client is not the bottleneck (§3.2).
    fn ship_params(&self, down: f64, up: f64, rows: f64, d: f64) -> csq_cost::ShipParams {
        csq_cost::shipping_params(&self.opt.net, down, up, 0.0, rows, d)
    }

    /// Column display names referenced by an expression.
    fn cols_of_expr(&self, e: &csq_expr::Expr) -> BTreeSet<String> {
        analysis::columns_referenced(e)
            .into_iter()
            .map(|c| self.canonical(&c))
            .collect()
    }

    /// Canonical display name of a reference (resolves bare rel columns to
    /// their alias-qualified form).
    fn canonical(&self, c: &csq_expr::ColumnRef) -> String {
        self.graph.canonical_name(c)
    }

    /// Columns still needed by unapplied predicates, unapplied UDF args,
    /// and the output.
    fn needed(&self, applied_preds: u64, mask: u64) -> BTreeSet<String> {
        self.graph
            .needed_columns(applied_preds, mask)
            .iter()
            .map(|c| self.canonical(c))
            .collect()
    }
}

/// Greedily apply every predicate that is evaluable on the server.
fn greedy_apply(ctx: &Ctx<'_>, s: &mut State) {
    let mut applied = Vec::new();
    for (pi, p) in ctx.graph.predicates.iter().enumerate() {
        if s.applied_preds & (1 << pi) != 0 {
            continue;
        }
        if p.required & !s.mask != 0 {
            continue;
        }
        let cols = ctx.cols_of_expr(&p.expr);
        if cols.iter().all(|c| s.server_cols.contains(c)) {
            s.applied_preds |= 1 << pi;
            s.rows *= p.selectivity;
            applied.push(pi);
        }
    }
    if !applied.is_empty() {
        s.plan = PlanNode::Filter {
            input: Box::new(s.plan.clone()),
            preds: applied,
        };
    }
}

/// Optimize a query graph.
pub fn optimize(graph: &QueryGraph, opt: &OptContext) -> Result<OptimizedPlan> {
    optimize_inner(graph, opt, false)
}

pub(crate) fn optimize_inner(
    graph: &QueryGraph,
    opt: &OptContext,
    rank_mode: bool,
) -> Result<OptimizedPlan> {
    if graph.n_rels == 0 {
        return Err(CsqError::Plan("query has no relations".into()));
    }
    if graph.n_units() > 20 {
        return Err(CsqError::Plan(format!(
            "too many optimization units ({}); the algorithm is exponential \
             in #joins + #client-site UDFs",
            graph.n_units()
        )));
    }

    // Precompute byte sizes and distinct-argument estimates.
    let mut col_bytes = HashMap::new();
    let mut unit_cols: Vec<Vec<String>> = Vec::new();
    for u in &graph.units {
        match u {
            Unit::Rel { alias, stats, .. } => {
                let mut cols = Vec::new();
                for (i, f) in stats.schema.fields().iter().enumerate() {
                    let name = format!("{alias}.{}", f.name);
                    col_bytes.insert(name.clone(), stats.col_bytes[i]);
                    cols.push(name);
                }
                unit_cols.push(cols);
            }
            Unit::Udf {
                result_col, meta, ..
            } => {
                col_bytes.insert(result_col.clone(), meta.result_bytes);
                unit_cols.push(vec![result_col.clone()]);
            }
        }
    }
    let mut distinct_args = HashMap::new();
    for (ui, u) in graph.units.iter().enumerate() {
        if matches!(u, Unit::Udf { .. }) {
            let prereq = graph.prereq_mask(ui);
            let mut d = 1.0f64;
            for (ri, r) in graph.units.iter().enumerate() {
                if prereq & (1 << ri) != 0 {
                    if let Unit::Rel { stats, .. } = r {
                        d *= stats.rows.max(1.0);
                    }
                }
            }
            distinct_args.insert(ui, d);
        }
    }
    let ctx = Ctx {
        graph,
        opt,
        col_bytes,
        distinct_args,
        unit_cols,
    };

    // DP table, staged by popcount. Ordered, so the walks below visit states
    // in key order and a tie in cost goes to the same plan on every run.
    let full = graph.full_mask();
    let mut table: BTreeMap<(u64, u64, String), State> = BTreeMap::new();
    let mut states_explored = 0usize;

    let insert = |table: &mut BTreeMap<(u64, u64, String), State>, s: State| {
        let k = key_of(&s);
        match table.get(&k) {
            Some(old) if old.cost <= s.cost => {}
            _ => {
                table.insert(k, s);
            }
        }
    };

    // Seed with single-relation scans.
    for ri in 0..graph.n_rels {
        let Unit::Rel { stats, .. } = &graph.units[ri] else {
            unreachable!()
        };
        let mut s = State {
            mask: 1 << ri,
            applied_preds: 0,
            client_cols: BTreeSet::new(),
            server_cols: ctx.unit_cols[ri].iter().cloned().collect(),
            rows: stats.rows,
            cost: 0.0,
            plan: PlanNode::Scan { unit: ri },
        };
        greedy_apply(&ctx, &mut s);
        // Scan CPU, discounted by estimated zone-map pruning: the columnar
        // scan skips whole segments the pushed filter prefix disproves, so
        // the per-tuple term covers only the rows it actually touches.
        // Every complete plan scans every relation exactly once with the
        // same seed predicates, so the term sharpens cost estimates without
        // changing which plan wins.
        s.cost += ctx.server_cost(scan_rows_estimate(&ctx, ri, s.applied_preds));
        insert(&mut table, s);
    }

    for size in 1..graph.n_units() {
        let current: Vec<State> = table
            .values()
            .filter(|s| (s.mask.count_ones() as usize) == size)
            .cloned()
            .collect();
        for s in current {
            for unit in 0..graph.n_units() {
                if s.mask & (1 << unit) != 0 {
                    continue;
                }
                if graph.prereq_mask(unit) & !s.mask != 0 {
                    continue;
                }
                match &graph.units[unit] {
                    Unit::Rel { .. } => {
                        if let Some(next) = apply_rel(&ctx, &s, unit) {
                            states_explored += 1;
                            insert(&mut table, next);
                        }
                    }
                    Unit::Udf { .. } => {
                        if rank_mode {
                            // The rank-order baseline applies UDFs eagerly
                            // (cheapest-rank-first ≈ as soon as available)
                            // and only knows the plain semi-join-return
                            // strategy with no grouping or pushdowns.
                            if let Some(next) = apply_udf_semijoin(&ctx, &s, unit, false) {
                                states_explored += 1;
                                insert(&mut table, next);
                            }
                        } else {
                            for variant in udf_variants(&ctx, &s, unit, full) {
                                states_explored += 1;
                                insert(&mut table, variant);
                            }
                        }
                    }
                }
            }
        }
    }

    // Finalize every full-mask state.
    let mut best: Option<State> = None;
    let finals: Vec<State> = table.values().filter(|s| s.mask == full).cloned().collect();
    for s in finals {
        if let Some(done) = finalize(&ctx, &s) {
            states_explored += 1;
            match &best {
                Some(b) if b.cost <= done.cost => {}
                _ => best = Some(done),
            }
        }
    }

    let best = best.ok_or_else(|| {
        CsqError::Plan("optimizer found no complete plan (unsatisfiable prerequisites?)".into())
    })?;
    Ok(OptimizedPlan {
        cost_seconds: best.cost,
        est_rows: best.rows,
        // Coordinator contexts get the plan in scatter/gather form; the
        // default (shards = 0) leaves single-node plans untouched.
        root: crate::shard::shardify(best.plan, graph, opt),
        states_explored,
    })
}

/// Estimated rows the columnar scan of relation `unit` materializes under
/// the predicates applied directly above it: the prunable prefix is
/// compiled exactly as lowering compiles it (bind, then
/// [`FilterSpec::from_phys`]) and held against the zone profiles captured
/// in the table statistics.
fn scan_rows_estimate(ctx: &Ctx<'_>, unit: usize, applied: u64) -> f64 {
    let Unit::Rel { alias, stats, .. } = &ctx.graph.units[unit] else {
        return 0.0;
    };
    let exprs: Vec<csq_expr::Expr> = ctx
        .graph
        .predicates
        .iter()
        .enumerate()
        .filter(|&(pi, _)| applied & (1u64 << pi) != 0)
        .map(|(_, p)| p.expr.clone())
        .collect();
    let spec = analysis::conjoin(exprs)
        .and_then(|e| csq_expr::bind(&e, &stats.schema.qualify(alias)).ok())
        .and_then(|p| csq_storage::FilterSpec::from_phys(&p));
    stats.scan_rows_after_pruning(spec.as_ref())
}

/// Join a base relation onto the plan (returning client columns first if
/// any are outstanding).
fn apply_rel(ctx: &Ctx<'_>, s: &State, unit: usize) -> Option<State> {
    let Unit::Rel { stats, .. } = &ctx.graph.units[unit] else {
        return None;
    };
    let mut s2 = s.clone();
    return_to_server(ctx, &mut s2);
    let left_rows = s2.rows;
    s2.mask |= 1 << unit;
    s2.server_cols.extend(ctx.unit_cols[unit].iter().cloned());
    s2.plan = PlanNode::Join {
        left: Box::new(s2.plan),
        right: Box::new(PlanNode::Scan { unit }),
    };
    // Cross product cardinality; greedy_apply charges join predicates.
    // Equi-join selectivity heuristic: 1/max(|L|,|R|) per join predicate is
    // folded into PredInfo.selectivity upstream? No — PredInfo uses generic
    // heuristics; refine equijoins here by replacing the generic 0.1 with
    // 1/max(rows). We approximate by scaling rows directly for equijoin
    // predicates that become applicable.
    s2.rows = left_rows * stats.rows;
    let before_preds = s2.applied_preds;
    greedy_apply(ctx, &mut s2);
    // Replace generic equi-join selectivities with 1/max cardinality.
    for pi in 0..ctx.graph.predicates.len() {
        let bit = 1u64 << pi;
        if s2.applied_preds & bit != 0 && before_preds & bit == 0 {
            let p = &ctx.graph.predicates[pi];
            if !p.references_udf && analysis::as_equijoin(&p.expr).is_some() {
                // Undo the generic selectivity, apply the join heuristic.
                s2.rows /= p.selectivity;
                s2.rows *= 1.0 / left_rows.max(stats.rows).max(1.0);
            }
        }
    }
    s2.cost += ctx.server_cost(s2.rows);
    Some(s2)
}

/// Ship any client-resident (non-server) columns back to the server.
fn return_to_server(ctx: &Ctx<'_>, s: &mut State) {
    if s.client_cols.is_empty() {
        return;
    }
    let to_return: BTreeSet<String> = s
        .client_cols
        .iter()
        .filter(|c| !s.server_cols.contains(*c))
        .cloned()
        .collect();
    if !to_return.is_empty() {
        let up = s.rows * ctx.bytes_of(&to_return);
        s.cost += ctx.net_cost(0.0, up);
        s.server_cols.extend(to_return);
        s.plan = PlanNode::ReturnToServer {
            input: Box::new(s.plan.clone()),
        };
    }
    s.client_cols.clear();
    // Newly server-resident UDF results may unlock predicates.
    greedy_apply(ctx, s);
}

/// All strategy variants for applying UDF `unit` to state `s`.
fn udf_variants(ctx: &Ctx<'_>, s: &State, unit: usize, full: u64) -> Vec<State> {
    let mut out = Vec::new();
    if let Some(v) = apply_udf_semijoin(ctx, s, unit, false) {
        out.push(v);
    }
    if let Some(v) = apply_udf_semijoin(ctx, s, unit, true) {
        out.push(v);
    }
    if let Some(v) = apply_udf_client_join(ctx, s, unit, false, full) {
        out.push(v);
    }
    if let Some(v) = apply_udf_client_join(ctx, s, unit, true, full) {
        out.push(v);
    }
    out
}

fn udf_arg_cols(ctx: &Ctx<'_>, unit: usize) -> (BTreeSet<String>, f64) {
    let Unit::Udf { args, .. } = &ctx.graph.units[unit] else {
        unreachable!()
    };
    let cols: BTreeSet<String> = args.iter().map(|a| ctx.canonical(a)).collect();
    let bytes = ctx.bytes_of(&cols);
    (cols, bytes)
}

/// Semi-join application (§2.3.1). `leave_on_client` defers the uplink
/// (§5.2.3's column-location property).
fn apply_udf_semijoin(
    ctx: &Ctx<'_>,
    s: &State,
    unit: usize,
    leave_on_client: bool,
) -> Option<State> {
    let Unit::Udf {
        meta, result_col, ..
    } = &ctx.graph.units[unit]
    else {
        return None;
    };
    let (arg_cols, arg_bytes) = udf_arg_cols(ctx, unit);
    // Arguments must be server-resident or already at the client.
    let args_at_client = arg_cols.iter().all(|c| s.client_cols.contains(c));
    if !args_at_client && !arg_cols.iter().all(|c| s.server_cols.contains(c)) {
        return None;
    }
    let distinct = ctx.distinct_args.get(&unit).copied().unwrap_or(s.rows);
    let d = (distinct / s.rows.max(1.0)).min(1.0);
    let mut s2 = s.clone();
    s2.mask |= 1 << unit;
    // Downlink: dedup'd argument columns — free when a previous client-site
    // operation already left them there (grouping, §5.1.2).
    let down = if args_at_client {
        0.0
    } else {
        s.rows * d * arg_bytes
    };
    let up = if leave_on_client {
        0.0
    } else {
        s.rows * d * meta.result_bytes
    };
    s2.cost += ctx.net_cost(down, up) + ctx.server_cost(s.rows);
    if leave_on_client {
        s2.client_cols.extend(arg_cols);
        s2.client_cols.insert(result_col.clone());
    } else {
        s2.server_cols.insert(result_col.clone());
    }
    s2.plan = PlanNode::ApplyUdf {
        input: Box::new(s2.plan),
        unit,
        strategy: UdfStrategy::SemiJoin { leave_on_client },
        ship: ctx.ship_params(arg_bytes, meta.result_bytes, s.rows, d),
    };
    greedy_apply(ctx, &mut s2);
    Some(s2)
}

/// Client-site join application (§2.3.2). Ships needed record columns,
/// pushes evaluable predicates and the projection. With `merged_with_final`
/// nothing returns (Fig 12(d)) — only legal as the last unit with all
/// residual predicates pushable.
fn apply_udf_client_join(
    ctx: &Ctx<'_>,
    s: &State,
    unit: usize,
    merged_with_final: bool,
    full: u64,
) -> Option<State> {
    let Unit::Udf {
        meta: _,
        result_col,
        ..
    } = &ctx.graph.units[unit]
    else {
        return None;
    };
    let new_mask = s.mask | (1 << unit);
    if merged_with_final && new_mask != full {
        return None;
    }
    let (arg_cols, _) = udf_arg_cols(ctx, unit);
    if !arg_cols.iter().all(|c| s.server_cols.contains(c)) {
        // Whole-record shipping needs the arguments server-side. (A CSJ over
        // client-resident args would be a grouped client op — covered by the
        // semi-join leave-on-client variants.)
        return None;
    }

    // Ship the columns later stages still need, plus the arguments.
    let mut shipped: BTreeSet<String> = ctx
        .needed(s.applied_preds, s.mask)
        .intersection(&s.server_cols)
        .cloned()
        .collect();
    shipped.extend(arg_cols.iter().cloned());
    let down = s.rows * ctx.bytes_of(&shipped);

    // Push every unapplied predicate that is evaluable from shipped ∪
    // result ∪ client-resident columns.
    let mut visible = shipped.clone();
    visible.insert(result_col.clone());
    visible.extend(s.client_cols.iter().cloned());
    let mut pushed = Vec::new();
    let mut sel = 1.0;
    let mut applied = s.applied_preds;
    for (pi, p) in ctx.graph.predicates.iter().enumerate() {
        if applied & (1 << pi) != 0 {
            continue;
        }
        if p.required & !new_mask != 0 {
            continue;
        }
        let cols = ctx.cols_of_expr(&p.expr);
        if cols.iter().all(|c| visible.contains(c)) {
            pushed.push(pi);
            sel *= p.selectivity;
            applied |= 1 << pi;
        }
    }
    if merged_with_final {
        // Every remaining predicate must have been pushable.
        for (pi, _) in ctx.graph.predicates.iter().enumerate() {
            if applied & (1 << pi) == 0 {
                return None;
            }
        }
        // Output columns must be visible at the client.
        let out_cols: BTreeSet<String> = ctx
            .graph
            .output
            .iter()
            .flat_map(|(e, _)| ctx.cols_of_expr(e))
            .collect();
        if !out_cols.iter().all(|c| visible.contains(c)) {
            return None;
        }
    }

    let rows_after = s.rows * sel;

    // Pushable projection: return only what later stages / output need.
    let needed_after: BTreeSet<String> = ctx
        .needed(applied, new_mask)
        .intersection(&visible)
        .cloned()
        .collect();
    let up = if merged_with_final {
        0.0
    } else {
        rows_after * ctx.bytes_of(&needed_after)
    };
    let ship = ctx.ship_params(
        ctx.bytes_of(&shipped),
        sel * ctx.bytes_of(&needed_after),
        s.rows,
        1.0,
    );

    let mut s2 = s.clone();
    s2.mask = new_mask;
    s2.applied_preds = applied;
    s2.rows = rows_after;
    s2.cost += ctx.net_cost(down, up) + ctx.server_cost(s.rows);
    if merged_with_final {
        s2.client_cols = visible;
    } else {
        s2.client_cols.clear();
        s2.server_cols = needed_after;
    }
    s2.plan = PlanNode::ApplyUdf {
        input: Box::new(s2.plan),
        unit,
        strategy: UdfStrategy::ClientJoin {
            pushed_preds: pushed,
            merged_with_final,
        },
        ship,
    };
    greedy_apply(ctx, &mut s2);
    Some(s2)
}

/// Apply the final result operator: deliver output columns to the client,
/// paying only for columns not already client-resident; residual predicates
/// that need client-resident columns are evaluated on delivery.
fn finalize(ctx: &Ctx<'_>, s: &State) -> Option<State> {
    let mut s2 = s.clone();
    let out_cols: BTreeSet<String> = ctx
        .graph
        .output
        .iter()
        .flat_map(|(e, _)| ctx.cols_of_expr(e))
        .collect();

    // Residual predicates: evaluable at the client once their server
    // columns are shipped with the result.
    let mut pushed = Vec::new();
    let mut extra_cols: BTreeSet<String> = BTreeSet::new();
    for (pi, p) in ctx.graph.predicates.iter().enumerate() {
        if s2.applied_preds & (1 << pi) != 0 {
            continue;
        }
        if p.required & !s2.mask != 0 {
            return None; // should not happen at full mask
        }
        let cols = ctx.cols_of_expr(&p.expr);
        for c in cols {
            if !s2.client_cols.contains(&c) {
                if !s2.server_cols.contains(&c) {
                    return None; // column lost — invalid plan shape
                }
                extra_cols.insert(c);
            }
        }
        pushed.push(pi);
        s2.applied_preds |= 1 << pi;
        s2.rows *= p.selectivity;
    }

    let mut ship: BTreeSet<String> = out_cols
        .iter()
        .filter(|c| !s2.client_cols.contains(*c))
        .cloned()
        .collect();
    ship.extend(extra_cols);
    for c in &ship {
        if !s2.server_cols.contains(c) {
            return None;
        }
    }
    let client_resident = out_cols.len() - ship.iter().filter(|c| out_cols.contains(*c)).count();
    let down = s.rows * ctx.bytes_of(&ship);

    // Delivery cost of the plain (non-aggregated) output.
    let mut delivery = ctx.net_cost(down, 0.0);
    let mut agg_node = None;
    if let Some(spec) = &ctx.graph.aggregate {
        // Grouped aggregation: enumerate where the partial phase runs.
        //
        // * client-only — ship the pre-aggregation rows (the `down` above)
        //   and aggregate at the client (serial per-tuple work).
        // * server-partial — the server reduces rows to groups first and
        //   ships decomposed state (`groups × state bytes`); the partial
        //   pass costs the server's per-tuple rate like every server-side
        //   operator. Only legal when every aggregation input is
        //   server-resident and no residual predicate remains to be
        //   evaluated at the client pre-grouping.
        let key_cols: BTreeSet<String> = spec.group_by.iter().map(|c| c.to_string()).collect();
        let mut state_bytes = ctx.bytes_of(&key_cols);
        for call in &spec.calls {
            let arg_bytes = call
                .arg
                .as_ref()
                .map(|a| ctx.bytes_of(&ctx.cols_of_expr(a)))
                .unwrap_or(0.0);
            state_bytes += csq_cost::agg_state_bytes(call.func, arg_bytes);
        }
        let distincts: Vec<f64> = spec
            .group_by
            .iter()
            .map(|g| {
                for u in &ctx.graph.units {
                    if let Unit::Rel { alias, table, .. } = u {
                        if Some(alias.as_str()) == g.qualifier.as_deref() {
                            return ctx.opt.col_distinct(table, &g.name);
                        }
                    }
                }
                s2.rows.sqrt().max(1.0)
            })
            .collect();
        let groups = csq_cost::estimate_group_count(s2.rows.max(0.0), &distincts);
        // The shipping-volume model lives in csq-cost; this DP turns its
        // per-placement byte counts into seconds and layers the (tiny)
        // site-CPU terms on top.
        let params = csq_cost::AggPlacementParams {
            rows: s2.rows,
            groups,
            row_bytes: ctx.bytes_of(&ship),
            state_bytes,
        };
        let tuple_secs = ctx.opt.server_tuple_cost * 1e-6;
        let client_total = delivery + params.rows * tuple_secs;
        let server_legal = pushed.is_empty() && out_cols.iter().all(|c| s2.server_cols.contains(c));
        let placement = if ctx.opt.sharded() {
            // N-site enumeration (DESIGN.md §13): there is no single
            // "server" — the candidates are gathering the raw rows from
            // every shard and aggregating at the coordinator (client-only's
            // analogue) vs. per-shard partial aggregation with a
            // coordinator finalize. The latter needs the partial phase to
            // run per shard unchanged: server-legal (no residual client
            // predicates, server-resident inputs) and a pushable plan
            // (single relation, no UDF units).
            let shard_legal = server_legal && ctx.graph.n_rels == 1 && ctx.graph.units.len() == 1;
            let sp = csq_cost::ShardedAggParams {
                base: params,
                shards: ctx.opt.shards.max(1),
            };
            // Per-shard partial work runs concurrently across shards, so
            // the CPU term covers one shard's slice; the coordinator then
            // merges every gathered per-shard group state.
            let shard_total = ctx.net_cost(sp.gather_bytes(), 0.0)
                + ctx.server_cost(params.rows / sp.shards as f64)
                + sp.shards as f64 * sp.per_shard_groups() * tuple_secs;
            if shard_legal && shard_total < client_total {
                delivery = shard_total;
                csq_cost::AggPlacement::ShardPartial
            } else {
                delivery = client_total;
                csq_cost::AggPlacement::ClientOnly
            }
        } else {
            let server_total = ctx.net_cost(
                params.down_bytes(csq_cost::AggPlacement::ServerPartial),
                0.0,
            ) + ctx.server_cost(params.rows)
                + groups * tuple_secs; // the client still merges and finishes
            let placement = if server_legal && server_total < client_total {
                delivery = server_total;
                csq_cost::AggPlacement::ServerPartial
            } else {
                delivery = client_total;
                csq_cost::AggPlacement::ClientOnly
            };
            debug_assert!(
                // CPU terms only sharpen ties; the byte-level chooser and
                // this enumeration must agree whenever server-partial is
                // legal and the byte gap is decisive.
                !server_legal
                    || csq_cost::choose_agg_placement(&params) == placement
                    || (ctx.net_cost(
                        params.down_bytes(csq_cost::AggPlacement::ServerPartial),
                        0.0
                    ) - ctx
                        .net_cost(params.down_bytes(csq_cost::AggPlacement::ClientOnly), 0.0))
                    .abs()
                        < ctx.server_cost(params.rows) + params.rows * tuple_secs
            );
            placement
        };
        let having_sel = spec
            .having
            .as_ref()
            .map(analysis::estimate_selectivity)
            .unwrap_or(1.0);
        s2.rows = groups * having_sel;
        agg_node = Some((placement, groups));
    }
    s2.cost += delivery;
    s2.plan = PlanNode::Final {
        input: Box::new(s2.plan),
        client_resident,
        pushed_preds: pushed,
    };
    if let Some((placement, groups_est)) = agg_node {
        s2.plan = PlanNode::Aggregate {
            input: Box::new(s2.plan),
            placement,
            groups_est,
        };
    }
    Some(s2)
}
