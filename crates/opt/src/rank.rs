//! The pre-paper baseline: rank-order placement of expensive predicates.
//!
//! §5 argues that rank-order optimizers (\[HS93], \[CS97]) mis-plan
//! client-site UDFs because they assume (a) a UDF's per-tuple cost is
//! position-independent and (b) duplicates never matter. This baseline
//! reproduces that behaviour: UDFs are applied with the plain
//! semi-join-return strategy (no grouping, no leave-on-client, no client
//! pushdowns, no final merging), placed purely by the System-R
//! selection-eager heuristic. The `ablate_rank_order` bench compares its
//! plans against [`crate::optimize`].

use csq_common::Result;

use crate::context::OptContext;
use crate::dp::{optimize_inner, OptimizedPlan};
use crate::query::QueryGraph;

/// Optimize with the rank-order-style restricted strategy space.
pub fn rank_order_baseline(graph: &QueryGraph, opt: &OptContext) -> Result<OptimizedPlan> {
    optimize_inner(graph, opt, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{TableStats, UdfMeta};
    use crate::query::extract;
    use csq_common::{DataType, Field, Schema};
    use csq_net::NetworkSpec;
    use csq_sql::{parse_statement, Statement};

    fn select(sql: &str) -> csq_sql::SelectStmt {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            _ => unreachable!(),
        }
    }

    fn ctx() -> OptContext {
        let mut ctx = OptContext::new(NetworkSpec::cable_asymmetric());
        ctx.add_table(
            "StockQuotes",
            TableStats {
                schema: Schema::new(vec![
                    Field::new("Name", DataType::Str),
                    Field::new("Quotes", DataType::Blob),
                ]),
                rows: 100.0,
                row_bytes: 1020.0,
                col_bytes: vec![20.0, 1000.0],
                segments: Default::default(),
            },
        );
        ctx.add_udf(
            UdfMeta::client("ClientAnalysis", vec![DataType::Blob], DataType::Int)
                .with_result_bytes(2000.0)
                .with_selectivity(0.1),
        );
        ctx
    }

    #[test]
    fn baseline_never_beats_full_optimizer() {
        let g = extract(
            &select("SELECT S.Name FROM StockQuotes S WHERE ClientAnalysis(S.Quotes) > 100"),
            &ctx(),
        )
        .unwrap();
        let full = crate::optimize(&g, &ctx()).unwrap();
        let base = rank_order_baseline(&g, &ctx()).unwrap();
        assert!(full.cost_seconds <= base.cost_seconds + 1e-12);
    }

    #[test]
    fn baseline_pays_uplink_for_big_results() {
        // With 2000-byte results on a 28.8k uplink the baseline must return
        // results; the full optimizer can push the predicate client-side and
        // avoid most of the uplink — a strict win.
        let g = extract(
            &select("SELECT S.Name FROM StockQuotes S WHERE ClientAnalysis(S.Quotes) > 100"),
            &ctx(),
        )
        .unwrap();
        let full = crate::optimize(&g, &ctx()).unwrap();
        let base = rank_order_baseline(&g, &ctx()).unwrap();
        assert!(
            full.cost_seconds < base.cost_seconds * 0.5,
            "full {} vs baseline {}",
            full.cost_seconds,
            base.cost_seconds
        );
    }
}
