//! §5 optimizer scenarios: the plan-shape choices of Figures 12 and 13 as
//! network/workload parameters vary, plus the rank-order baseline ablation.

use csq_common::{DataType, Field, Schema};
use csq_net::NetworkSpec;
use csq_opt::{
    optimize, rank_order_baseline, OptContext, PlanNode, TableStats, UdfMeta, UdfStrategy,
};
use csq_sql::{parse_statement, Statement};

fn select(sql: &str) -> csq_sql::SelectStmt {
    match parse_statement(sql).unwrap() {
        Statement::Select(s) => s,
        _ => unreachable!(),
    }
}

/// The Figure 11 environment: StockQuotes (big Quotes blobs) ⋈ Estimations.
fn fig11_ctx(net: NetworkSpec) -> OptContext {
    let mut ctx = OptContext::new(net);
    ctx.add_table(
        "StockQuotes",
        TableStats {
            schema: Schema::new(vec![
                Field::new("Name", DataType::Str),
                Field::new("Quotes", DataType::Blob),
                Field::new("FuturePrices", DataType::Blob),
            ]),
            rows: 100.0,
            row_bytes: 2025.0,
            col_bytes: vec![25.0, 1000.0, 1000.0],
            segments: Default::default(),
        },
    );
    ctx.add_table(
        "Estimations",
        TableStats {
            schema: Schema::new(vec![
                Field::new("CompanyName", DataType::Str),
                Field::new("BrokerName", DataType::Str),
                Field::new("Rating", DataType::Int),
            ]),
            rows: 1000.0,
            row_bytes: 59.0,
            col_bytes: vec![25.0, 25.0, 9.0],
            segments: Default::default(),
        },
    );
    ctx
}

const FIG11: &str = "SELECT S.Name, E.BrokerName \
                     FROM StockQuotes S, Estimations E \
                     WHERE S.Name = E.CompanyName AND ClientAnalysis(S.Quotes) = E.Rating";

fn udf_strategies(plan: &PlanNode) -> Vec<UdfStrategy> {
    plan.udf_applications()
        .into_iter()
        .map(|(_, s)| s)
        .collect()
}

#[test]
fn small_results_pick_semijoin() {
    // Tiny results, symmetric fast-ish network: the semi-join ships only
    // 1000-byte argument blobs + 9-byte results; shipping whole records
    // (CSJ) cannot win.
    let mut ctx = fig11_ctx(NetworkSpec::modem_28_8());
    ctx.add_udf(
        UdfMeta::client("ClientAnalysis", vec![DataType::Blob], DataType::Int)
            .with_result_bytes(9.0)
            .with_selectivity(0.001),
    );
    let g = csq_opt::query::extract(&select(FIG11), &ctx).unwrap();
    let plan = optimize(&g, &ctx).unwrap();
    let strategies = udf_strategies(&plan.root);
    assert_eq!(strategies.len(), 1);
    assert!(
        matches!(strategies[0], UdfStrategy::SemiJoin { .. }),
        "{}",
        plan.root.explain(&g)
    );
}

#[test]
fn huge_results_on_slow_uplink_pick_client_join_with_pushdown() {
    // 50 KB results over a 28.8k uplink with a selective predicate: the
    // client-site join pushes `ClientAnalysis(S.Quotes) = E.Rating` and
    // ships only survivors; the semi-join must return every huge result.
    let mut ctx = fig11_ctx(NetworkSpec::cable_asymmetric());
    ctx.add_udf(
        UdfMeta::client("ClientAnalysis", vec![DataType::Blob], DataType::Int)
            .with_result_bytes(50_000.0)
            .with_selectivity(0.01),
    );
    let g = csq_opt::query::extract(&select(FIG11), &ctx).unwrap();
    let plan = optimize(&g, &ctx).unwrap();
    let strategies = udf_strategies(&plan.root);
    // Any uplink-avoiding strategy qualifies: a client-site join with the
    // predicate pushed, or a semi-join that leaves the huge results at the
    // client and filters on delivery (the optimizer may find the latter,
    // which is strictly better — it also dedups arguments).
    let explain = plan.root.explain(&g);
    let avoids_uplink = strategies.iter().any(|s| {
        matches!(
            s,
            UdfStrategy::ClientJoin { pushed_preds, .. } if !pushed_preds.is_empty()
        ) || matches!(
            s,
            UdfStrategy::SemiJoin {
                leave_on_client: true
            } | UdfStrategy::ClientJoin {
                merged_with_final: true,
                ..
            }
        )
    });
    assert!(avoids_uplink, "{explain}");
    // And it must beat the plain return-everything baseline decisively.
    let base = rank_order_baseline(&g, &ctx).unwrap();
    assert!(
        plan.cost_seconds < base.cost_seconds * 0.2,
        "full {} vs baseline {}\n{explain}",
        plan.cost_seconds,
        base.cost_seconds
    );
}

#[test]
fn selective_join_places_udf_after_join() {
    // Fig 12(b): "the number of tuples and/or the number of distinct
    // argument tuples in the relation might be reduced by the join". Here a
    // selective broker filter plus the equi-join leaves ~10 of 100 stocks,
    // so applying the UDF after the join ships far fewer argument blobs.
    let mut ctx = fig11_ctx(NetworkSpec::modem_28_8());
    ctx.add_udf(
        UdfMeta::client("ClientAnalysis", vec![DataType::Blob], DataType::Int)
            .with_result_bytes(9.0)
            .with_selectivity(0.5),
    );
    let sql = "SELECT S.Name, E.BrokerName \
               FROM StockQuotes S, Estimations E \
               WHERE S.Name = E.CompanyName AND E.BrokerName = 'goldman' \
                 AND ClientAnalysis(S.Quotes) = E.Rating";
    let g = csq_opt::query::extract(&select(sql), &ctx).unwrap();
    let plan = optimize(&g, &ctx).unwrap();
    // Find the UDF unit index.
    let udf_unit = g.n_rels; // first UDF unit
    assert!(
        plan.root.udf_after_join(udf_unit),
        "{}",
        plan.root.explain(&g)
    );
}

#[test]
fn exploding_join_keeps_semijoin_insensitive() {
    // §5's point (b): client-site joins are duplicate-sensitive, semi-joins
    // are not. After a row-multiplying join (10 estimations per company),
    // the optimizer must not pick a client-site join that ships every
    // duplicated record when the semi-join dedups arguments.
    let mut ctx = fig11_ctx(NetworkSpec::modem_28_8());
    ctx.add_udf(
        UdfMeta::client("ClientAnalysis", vec![DataType::Blob], DataType::Int)
            .with_result_bytes(500.0)
            .with_selectivity(0.3),
    );
    let g = csq_opt::query::extract(&select(FIG11), &ctx).unwrap();
    let plan = optimize(&g, &ctx).unwrap();
    // Whatever the placement, a duplicate-blind whole-record CSJ after the
    // exploding join must not be chosen over the dedup'ing semi-join.
    let after_join_csj =
        plan.root.udf_applications().iter().any(|(u, s)| {
            matches!(s, UdfStrategy::ClientJoin { .. }) && plan.root.udf_after_join(*u)
        });
    assert!(!after_join_csj, "{}", plan.root.explain(&g));
}

#[test]
fn final_merge_or_leave_chosen_when_output_is_udf_result() {
    // Fig 12(d): the query returns the UDF result itself; with no further
    // server-site operation the optimizer should avoid returning results
    // (client-join merged with final, or semi-join leaving them at the
    // client) when results are big.
    let mut ctx = fig11_ctx(NetworkSpec::cable_asymmetric());
    ctx.add_udf(
        UdfMeta::client("ClientAnalysis", vec![DataType::Blob], DataType::Int)
            .with_result_bytes(20_000.0)
            .with_selectivity(1.0),
    );
    let sql = "SELECT S.Name, ClientAnalysis(S.Quotes) FROM StockQuotes S";
    let g = csq_opt::query::extract(&select(sql), &ctx).unwrap();
    let plan = optimize(&g, &ctx).unwrap();
    let explain = plan.root.explain(&g);
    let merged = udf_strategies(&plan.root).iter().any(|s| {
        matches!(
            s,
            UdfStrategy::ClientJoin {
                merged_with_final: true,
                ..
            } | UdfStrategy::SemiJoin {
                leave_on_client: true
            }
        )
    });
    assert!(merged, "{explain}");
    // The Final node should report client-resident output columns.
    assert!(explain.contains("already at client"), "{explain}");
}

#[test]
fn shared_argument_udfs_group_on_client() {
    // Fig 13: ClientAnalysis(S.Quotes) and Volatility(S.Quotes,
    // S.FuturePrices) share the Quotes argument. The optimizer should pick
    // a plan where the second client-site op reuses client-resident
    // arguments (a leave-on-client step followed by a free-downlink step).
    let mut ctx = fig11_ctx(NetworkSpec::modem_28_8());
    ctx.add_udf(
        UdfMeta::client("ClientAnalysis", vec![DataType::Blob], DataType::Int)
            .with_result_bytes(9.0)
            .with_selectivity(1.0),
    );
    ctx.add_udf(
        UdfMeta::client(
            "Volatility",
            vec![DataType::Blob, DataType::Blob],
            DataType::Float,
        )
        .with_result_bytes(9.0),
    );
    let sql = "SELECT S.Name, ClientAnalysis(S.Quotes), Volatility(S.Quotes, S.FuturePrices) \
               FROM StockQuotes S";
    let g = csq_opt::query::extract(&select(sql), &ctx).unwrap();
    let plan = optimize(&g, &ctx).unwrap();
    let explain = plan.root.explain(&g);
    assert!(
        explain.contains("leave-on-client") || explain.contains("merged with final"),
        "expected grouped client-site execution:\n{explain}"
    );
}

#[test]
fn rank_order_baseline_never_cheaper_and_sometimes_much_worse() {
    let configs = [
        (9.0, 0.5, NetworkSpec::modem_28_8()),
        (20_000.0, 0.01, NetworkSpec::cable_asymmetric()),
        (2_000.0, 0.2, NetworkSpec::modem_28_8()),
    ];
    let mut strictly_better = 0;
    for (r, s, net) in configs {
        let mut ctx = fig11_ctx(net);
        ctx.add_udf(
            UdfMeta::client("ClientAnalysis", vec![DataType::Blob], DataType::Int)
                .with_result_bytes(r)
                .with_selectivity(s),
        );
        let g = csq_opt::query::extract(&select(FIG11), &ctx).unwrap();
        let full = optimize(&g, &ctx).unwrap();
        let base = rank_order_baseline(&g, &ctx).unwrap();
        assert!(
            full.cost_seconds <= base.cost_seconds + 1e-9,
            "r={r}, s={s}"
        );
        if full.cost_seconds < base.cost_seconds * 0.8 {
            strictly_better += 1;
        }
    }
    assert!(
        strictly_better >= 1,
        "the site-aware optimizer should clearly beat rank ordering somewhere"
    );
}

#[test]
fn plan_search_space_is_exponential_but_bounded() {
    let mut ctx = fig11_ctx(NetworkSpec::modem_28_8());
    ctx.add_udf(
        UdfMeta::client("ClientAnalysis", vec![DataType::Blob], DataType::Int)
            .with_result_bytes(9.0),
    );
    ctx.add_udf(
        UdfMeta::client(
            "Volatility",
            vec![DataType::Blob, DataType::Blob],
            DataType::Float,
        )
        .with_result_bytes(9.0),
    );
    let sql = "SELECT S.Name, Volatility(S.Quotes, S.FuturePrices) \
               FROM StockQuotes S, Estimations E \
               WHERE S.Name = E.CompanyName AND ClientAnalysis(S.Quotes) = E.Rating";
    let g = csq_opt::query::extract(&select(sql), &ctx).unwrap();
    assert_eq!(g.n_units(), 4); // 2 rels + 2 UDFs → 2^4 subsets
    let plan = optimize(&g, &ctx).unwrap();
    assert!(plan.states_explored > 10);
    assert!(plan.states_explored < 100_000);
}

#[test]
fn explain_is_stable_and_readable() {
    let mut ctx = fig11_ctx(NetworkSpec::modem_28_8());
    ctx.add_udf(
        UdfMeta::client("ClientAnalysis", vec![DataType::Blob], DataType::Int)
            .with_result_bytes(9.0),
    );
    let g = csq_opt::query::extract(&select(FIG11), &ctx).unwrap();
    let a = optimize(&g, &ctx).unwrap().root.explain(&g);
    let b = optimize(&g, &ctx).unwrap().root.explain(&g);
    assert_eq!(a, b, "optimization must be deterministic");
    assert!(a.contains("Scan"));
    assert!(a.contains("Final"));
}

/// Every environment the `figures` binary plans in (`fig12`, `fig13`): the
/// Figure 11 statistics with both UDFs advertised, at the figure's network,
/// result size and selectivity.
fn figure_envs() -> Vec<(&'static str, OptContext)> {
    let fig12 = "SELECT S.Name, E.BrokerName FROM StockQuotes S, Estimations E \
                 WHERE S.Name = E.CompanyName AND ClientAnalysis(S.Quotes) = E.Rating";
    let fig13 = "SELECT S.Name, E.BrokerName, Volatility(S.Quotes, S.FuturePrices) \
                 FROM StockQuotes S, Estimations E \
                 WHERE S.Name = E.CompanyName AND ClientAnalysis(S.Quotes) = E.Rating";
    [
        (fig12, NetworkSpec::modem_28_8(), 9.0, 0.5),
        (fig12, NetworkSpec::cable_asymmetric(), 20_000.0, 0.01),
        (fig12, NetworkSpec::modem_28_8(), 2_000.0, 0.2),
        (fig13, NetworkSpec::modem_28_8(), 9.0, 0.5),
        (fig13, NetworkSpec::cable_asymmetric(), 9.0, 0.5),
    ]
    .into_iter()
    .map(|(sql, net, result_bytes, selectivity)| {
        let mut ctx = fig11_ctx(net);
        ctx.add_udf(
            UdfMeta::client("ClientAnalysis", vec![DataType::Blob], DataType::Int)
                .with_result_bytes(result_bytes)
                .with_selectivity(selectivity),
        );
        ctx.add_udf(
            UdfMeta::client(
                "Volatility",
                vec![DataType::Blob, DataType::Blob],
                DataType::Float,
            )
            .with_result_bytes(9.0),
        );
        (sql, ctx)
    })
    .collect()
}

/// Plans that tie on cost are told apart the same way on every run: the
/// figure environments hold such ties (modem, 2 KB results, selectivity
/// 0.2 costs a semi-join and a client-site join alike), and repeated
/// optimization in one process must print one EXPLAIN each.
#[test]
fn tied_plans_are_chosen_the_same_way_every_time() {
    for (sql, ctx) in figure_envs() {
        let g = csq_opt::query::extract(&select(sql), &ctx).unwrap();
        let first = optimize(&g, &ctx).unwrap().root.explain(&g);
        for _ in 0..32 {
            assert_eq!(optimize(&g, &ctx).unwrap().root.explain(&g), first);
        }
    }
}

// ---- grouped-aggregation placement (DESIGN.md §7) --------------------------

/// A plain metrics table for the aggregation-placement scenarios: 9-byte
/// int key + 9-byte int value, 1000 rows.
fn metrics_ctx(net: NetworkSpec, key_distinct: f64) -> OptContext {
    let mut ctx = OptContext::new(net);
    ctx.add_table(
        "Metrics",
        TableStats {
            schema: Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new("v", DataType::Int),
            ]),
            rows: 1000.0,
            row_bytes: 18.0,
            col_bytes: vec![9.0, 9.0],
            segments: Default::default(),
        },
    );
    ctx.set_col_distinct("Metrics", "k", key_distinct);
    ctx
}

const AVG_BY_K: &str = "SELECT M.k, AVG(M.v) FROM Metrics M GROUP BY M.k";

fn placement_of(plan: &csq_opt::OptimizedPlan) -> csq_opt::AggPlacement {
    let mut found = None;
    plan.root.walk(&mut |n| {
        if let PlanNode::Aggregate { placement, .. } = n {
            found = Some(*placement);
        }
    });
    found.expect("grouped query must plan an Aggregate node")
}

#[test]
fn aggregation_placement_flips_at_the_shipping_breakeven() {
    // AVG(v) GROUP BY k: client-only ships 18 B/row (key + value);
    // server-partial ships 27 B/group (key + decomposed sum/count state).
    // The modeled break-even reduction factor is therefore 18/27 = 2/3 —
    // below it (few groups) the server-side partial phase ships less and
    // must win; above it the state overhead loses to shipping raw rows.
    for (distinct, expect) in [
        (10.0, csq_opt::AggPlacement::ServerPartial),
        (300.0, csq_opt::AggPlacement::ServerPartial),
        (600.0, csq_opt::AggPlacement::ServerPartial),
        (700.0, csq_opt::AggPlacement::ClientOnly),
        (1000.0, csq_opt::AggPlacement::ClientOnly),
    ] {
        let ctx = metrics_ctx(NetworkSpec::modem_28_8(), distinct);
        let g = csq_opt::query::extract(&select(AVG_BY_K), &ctx).unwrap();
        let plan = optimize(&g, &ctx).unwrap();
        assert_eq!(
            placement_of(&plan),
            expect,
            "distinct={distinct}\n{}",
            plan.root.explain(&g)
        );
    }
}

#[test]
fn aggregation_placement_explains_and_costs_monotonically() {
    // Golden plan shape at high reduction: server-partial, with the group
    // keys and calls rendered, and a cheaper estimate than the forced
    // client-only shape at the same statistics.
    let ctx = metrics_ctx(NetworkSpec::modem_28_8(), 10.0);
    let g = csq_opt::query::extract(&select(AVG_BY_K), &ctx).unwrap();
    let plan = optimize(&g, &ctx).unwrap();
    let explain = plan.root.explain(&g);
    assert!(
        explain.contains("Aggregate [server-partial] by [M.k] [AVG(M.v)]"),
        "{explain}"
    );
    assert!(explain.contains("(~10 groups)"), "{explain}");
    // More groups must never make the plan cheaper.
    let mut last = plan.cost_seconds;
    for distinct in [50.0, 200.0, 600.0, 1000.0] {
        let ctx = metrics_ctx(NetworkSpec::modem_28_8(), distinct);
        let g = csq_opt::query::extract(&select(AVG_BY_K), &ctx).unwrap();
        let cost = optimize(&g, &ctx).unwrap().cost_seconds;
        assert!(
            cost >= last - 1e-12,
            "cost must grow with group count: {cost} < {last} at {distinct}"
        );
        last = cost;
    }
}

#[test]
fn count_star_breakeven_uses_key_bytes_only() {
    // COUNT(*) GROUP BY k ships only the 9-byte key per row client-only,
    // vs 18 B/group (key + count state): break-even reduction 1/2.
    let sql = "SELECT M.k, COUNT(*) FROM Metrics M GROUP BY M.k";
    for (distinct, expect) in [
        (400.0, csq_opt::AggPlacement::ServerPartial),
        (600.0, csq_opt::AggPlacement::ClientOnly),
    ] {
        let ctx = metrics_ctx(NetworkSpec::modem_28_8(), distinct);
        let g = csq_opt::query::extract(&select(sql), &ctx).unwrap();
        let plan = optimize(&g, &ctx).unwrap();
        assert_eq!(
            placement_of(&plan),
            expect,
            "distinct={distinct}\n{}",
            plan.root.explain(&g)
        );
    }
}

#[test]
fn having_shrinks_the_estimated_output() {
    let ctx = metrics_ctx(NetworkSpec::modem_28_8(), 100.0);
    let with_having = {
        let g = csq_opt::query::extract(
            &select("SELECT M.k FROM Metrics M GROUP BY M.k HAVING COUNT(*) > 3"),
            &ctx,
        )
        .unwrap();
        optimize(&g, &ctx).unwrap().est_rows
    };
    let without = {
        let g = csq_opt::query::extract(&select("SELECT M.k FROM Metrics M GROUP BY M.k"), &ctx)
            .unwrap();
        optimize(&g, &ctx).unwrap().est_rows
    };
    assert!((without - 100.0).abs() < 1e-9, "est {without}");
    assert!(with_having < without, "{with_having} vs {without}");
}

#[test]
fn costs_are_the_recorded_ones() {
    // Estimates are pure arithmetic over the statistics, so they repeat to
    // the bit. A cost-model change that moves one re-records it on purpose;
    // a refactor that claims to move nothing must leave all three alone.
    let mut ctx = fig11_ctx(NetworkSpec::modem_28_8());
    ctx.add_udf(
        UdfMeta::client("ClientAnalysis", vec![DataType::Blob], DataType::Int)
            .with_result_bytes(9.0)
            .with_selectivity(0.001),
    );
    let g = csq_opt::query::extract(&select(FIG11), &ctx).unwrap();
    let fig11 = optimize(&g, &ctx).unwrap().cost_seconds;
    assert_eq!(fig11.to_bits(), 0x403b_c777_9909_b23d, "{fig11:?}");

    for (distinct, bits) in [
        (10.0, 0x3fb3_3484_6c0a_eb15_u64),
        (1000.0, 0x4014_0005_3e2d_6238),
    ] {
        let ctx = metrics_ctx(NetworkSpec::modem_28_8(), distinct);
        let g = csq_opt::query::extract(&select(AVG_BY_K), &ctx).unwrap();
        let cost = optimize(&g, &ctx).unwrap().cost_seconds;
        assert_eq!(cost.to_bits(), bits, "distinct={distinct}: {cost:?}");
    }
}

// ---- sharded (N-site) placement, DESIGN.md §13 -----------------------------

fn sharded_ctx(shards: usize) -> OptContext {
    let mut ctx = fig11_ctx(NetworkSpec::lan()).with_shards(shards);
    ctx.set_shard_key("Estimations", "CompanyName");
    ctx
}

#[test]
fn sharded_aggregate_picks_shard_partial_and_renders_fanout() {
    // ~32 expected groups (sqrt default) over 1000 rows: per-shard partial
    // states beat gathering the raw rows, so the enumerator extends the
    // two-site choice to the shard set and EXPLAIN shows the fan-out.
    let ctx = sharded_ctx(4);
    let g = csq_opt::query::extract(
        &select("SELECT E.BrokerName, COUNT(*) FROM Estimations E GROUP BY E.BrokerName"),
        &ctx,
    )
    .unwrap();
    let plan = optimize(&g, &ctx).unwrap();
    let explain = plan.root.explain(&g);
    assert!(explain.contains("Aggregate [shard-partial]"), "{explain}");
    assert!(explain.contains("Gather [merge]"), "{explain}");
    assert!(
        explain.contains("Scatter [4 shards, 0 pruned]"),
        "{explain}"
    );
}

#[test]
fn sharded_aggregate_without_reduction_gathers_rows() {
    // Grouping by a unique key (distinct = rows): partial states save
    // nothing and pay per-shard duplication, so the raw rows cross and the
    // coordinator aggregates alone.
    let mut ctx = sharded_ctx(4);
    ctx.set_col_distinct("Estimations", "CompanyName", 1000.0);
    let g = csq_opt::query::extract(
        &select("SELECT E.CompanyName, COUNT(*) FROM Estimations E GROUP BY E.CompanyName"),
        &ctx,
    )
    .unwrap();
    let plan = optimize(&g, &ctx).unwrap();
    let explain = plan.root.explain(&g);
    assert!(explain.contains("Aggregate [client-only]"), "{explain}");
    assert!(explain.contains("Gather [ordered]"), "{explain}");
}

#[test]
fn pinned_shard_key_prunes_the_scatter() {
    let ctx = sharded_ctx(4);
    let g = csq_opt::query::extract(
        &select(
            "SELECT E.BrokerName, COUNT(*) FROM Estimations E \
             WHERE E.CompanyName = 'Acme' GROUP BY E.BrokerName",
        ),
        &ctx,
    )
    .unwrap();
    let plan = optimize(&g, &ctx).unwrap();
    let explain = plan.root.explain(&g);
    assert!(
        explain.contains("Scatter [4 shards, 3 pruned]"),
        "{explain}"
    );
    // The pruning helper the coordinator routes with agrees with the plan.
    assert!(csq_opt::shard::pinned_shard_value(&g, &ctx, 0).is_some());
}

#[test]
fn sharded_join_gathers_each_relation() {
    // A join is not pushable per shard (rows co-located by different keys):
    // each relation's partitions gather separately and the coordinator
    // joins them above the gathered leaves.
    let ctx = sharded_ctx(4);
    let g = csq_opt::query::extract(
        &select(
            "SELECT S.Name, E.BrokerName FROM StockQuotes S, Estimations E \
             WHERE S.Name = E.CompanyName",
        ),
        &ctx,
    )
    .unwrap();
    let plan = optimize(&g, &ctx).unwrap();
    let explain = plan.root.explain(&g);
    assert_eq!(explain.matches("Gather [ordered]").count(), 2, "{explain}");
    assert_eq!(explain.matches("Scatter [4 shards").count(), 2, "{explain}");
    let mut join_above_gather = false;
    plan.root.walk(&mut |n| {
        if let PlanNode::Join { left, right } = n {
            let gathered = |side: &PlanNode| {
                let mut found = false;
                side.walk(&mut |m| {
                    if matches!(m, PlanNode::Gather { .. }) {
                        found = true;
                    }
                });
                found
            };
            join_above_gather = gathered(left) && gathered(right);
        }
    });
    assert!(join_above_gather, "{explain}");
}

#[test]
fn unsharded_context_never_scatters() {
    let ctx = fig11_ctx(NetworkSpec::lan());
    let g = csq_opt::query::extract(
        &select("SELECT E.BrokerName, COUNT(*) FROM Estimations E GROUP BY E.BrokerName"),
        &ctx,
    )
    .unwrap();
    let plan = optimize(&g, &ctx).unwrap();
    let explain = plan.root.explain(&g);
    assert!(!explain.contains("Scatter"), "{explain}");
    assert!(!explain.contains("Gather"), "{explain}");
}

// ---- plan-time statistics are live -----------------------------------------

/// The optimizer's statistics come from each table's running profile, not
/// from a memo: rows added through SQL *or* behind the database's back
/// (through a held `Arc<Table>`, which bumps no plan epoch) show up in the
/// very next EXPLAIN — estimated rows, sealed-segment count and tail rows.
#[test]
fn explain_statistics_follow_every_insert() {
    use csq::prelude::*;
    use csq_storage::Table;

    let db = Database::new(NetworkSpec::lan());
    let schema = Schema::new(vec![
        Field::new("K", DataType::Int),
        Field::new("V", DataType::Int),
    ]);
    let held = db
        .catalog()
        .register(Table::with_segment_rows("M", schema, 8).unwrap())
        .unwrap();
    let rows = |keys: std::ops::Range<i64>| -> Vec<Row> {
        keys.map(|k| Row::new(vec![Value::Int(k), Value::Int(k * 2)]))
            .collect()
    };
    let all = "SELECT M.K, M.V FROM M M";
    let high = "SELECT M.K FROM M M WHERE M.K >= 100";

    held.insert_all(rows(0..20)).unwrap();
    let e = db.explain(all).unwrap();
    assert!(e.contains("est. 20.0 rows"), "{e}");
    assert!(e.contains("segments: 0 pruned / 2, 4 tail rows"), "{e}");

    db.execute("INSERT INTO M VALUES (100, 1), (101, 2), (102, 3)")
        .unwrap();
    let e = db.explain(all).unwrap();
    assert!(e.contains("est. 23.0 rows"), "{e}");
    assert!(e.contains("segments: 0 pruned / 2, 7 tail rows"), "{e}");

    held.insert_all(rows(103..108)).unwrap();
    let e = db.explain(all).unwrap();
    assert!(e.contains("est. 28.0 rows"), "{e}");
    assert!(e.contains("segments: 0 pruned / 3, 4 tail rows"), "{e}");
    let e = db.explain(high).unwrap();
    assert!(e.contains("segments: 2 pruned / 3, 4 tail rows"), "{e}");

    held.seal_tail();
    let e = db.explain(high).unwrap();
    assert!(e.contains("segments: 2 pruned / 4"), "{e}");
    assert!(!e.contains("tail rows"), "{e}");
}
