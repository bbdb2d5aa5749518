//! One generator per table/figure of the paper.

use csq_common::{DataType, Field, Schema, Value};
use csq_net::NetworkSpec;
use csq_opt::{optimize, rank_order_baseline, OptContext, TableStats, UdfMeta};
use csq_ship::{
    simulate_client_join, simulate_naive, simulate_semijoin, ClientJoinSpec, SemiJoinSpec,
};
use csq_sql::{parse_statement, Statement};

use crate::workloads::{
    fig6_app, fig6_rows, fig6_runtime, fig6_schema, fig7_apps, fig7_rows, fig7_runtime, fig7_schema,
};
use crate::Series;

/// Measured CSJ/SJ relative time for the Figure 7 query (the y-axis of
/// Figures 8–10). `n`/`arg`/`nonarg`/`distinct` describe the relation,
/// `s` the pushable selectivity, `r` the result payload size.
pub fn relative_time(
    net: &NetworkSpec,
    n: usize,
    arg: usize,
    nonarg: usize,
    distinct: usize,
    s: f64,
    r: usize,
) -> f64 {
    let schema = fig7_schema();
    let rows = fig7_rows(n, arg, nonarg, distinct);
    let (udf1, udf2) = fig7_apps();

    let sj_spec = SemiJoinSpec::new(vec![udf1.clone(), udf2.clone()], 32);
    let sj = simulate_semijoin(&schema, rows.clone(), &sj_spec, fig7_runtime(s, r), net)
        .expect("semi-join simulation");

    let mut csj_spec = ClientJoinSpec::new(vec![udf1, udf2]);
    csj_spec.pushed_predicate = Some(csq_expr::PhysExpr::Binary {
        left: Box::new(csq_expr::PhysExpr::Column(2)),
        op: csq_expr::BinaryOp::Eq,
        right: Box::new(csq_expr::PhysExpr::Literal(Value::Bool(true))),
    });
    // The paper's projection: only non-arguments and results return.
    csj_spec.return_cols = Some(vec![1, 3]);
    let csj = simulate_client_join(&schema, rows, &csj_spec, fig7_runtime(s, r), net)
        .expect("client-join simulation");

    csj.elapsed_us as f64 / sj.elapsed_us as f64
}

/// Figure 2: naive vs concurrent execution — query time for the §4.1
/// workload under the naive strategy and the semi-join at several K.
pub fn fig2() -> Vec<Series> {
    let net = NetworkSpec::modem_28_8();
    let schema = fig6_schema();
    let rows = fig6_rows(100, 500);
    let spec1 = SemiJoinSpec::new(vec![fig6_app()], 1);
    let naive = simulate_naive(&schema, rows.clone(), &spec1, fig6_runtime(), &net).unwrap();
    let mut points = vec![(0.0, naive.elapsed_secs())];
    for k in [1usize, 5, 10, 20] {
        let spec = SemiJoinSpec::new(vec![fig6_app()], k);
        let run = simulate_semijoin(&schema, rows.clone(), &spec, fig6_runtime(), &net).unwrap();
        points.push((k as f64, run.elapsed_secs()));
    }
    vec![Series {
        label: "seconds (x=0 is naive; x=K is semi-join)".into(),
        points,
    }]
}

/// Figure 6: query time vs pipeline concurrency factor for object sizes
/// 100/500/1000 B, 100 rows, 28.8 kbit modem. Paper y-axis: milliseconds.
pub fn fig6() -> Vec<Series> {
    let net = NetworkSpec::modem_28_8();
    let schema = fig6_schema();
    let mut out = Vec::new();
    for size in [100usize, 500, 1000] {
        let rows = fig6_rows(100, size);
        let mut points = Vec::new();
        for k in 1..=21usize {
            let spec = SemiJoinSpec::new(vec![fig6_app()], k);
            let run =
                simulate_semijoin(&schema, rows.clone(), &spec, fig6_runtime(), &net).unwrap();
            points.push((k as f64, run.elapsed_us as f64 / 1e3));
        }
        out.push(Series {
            label: format!("{size} Bytes"),
            points,
        });
    }
    out
}

/// Figure 8: CSJ/SJ vs selectivity on the symmetric network;
/// I = 1000 B, A = 0.5, result sizes 100/1000/2000/5000 B.
pub fn fig8() -> Vec<Series> {
    let net = NetworkSpec::modem_28_8();
    let mut out = Vec::new();
    for r in [100usize, 1000, 2000, 5000] {
        let mut points = Vec::new();
        for step in 0..=10 {
            let s = step as f64 / 10.0;
            points.push((s, relative_time(&net, 60, 495, 495, 60, s, r)));
        }
        out.push(Series {
            label: format!("{r} Bytes"),
            points,
        });
    }
    out
}

/// Figure 9: CSJ/SJ vs selectivity on the asymmetric network (N = 100);
/// I = 5000 B, A = 0.8, result sizes 500/1000/5000 B.
pub fn fig9() -> Vec<Series> {
    let net = NetworkSpec::cable_asymmetric();
    let mut out = Vec::new();
    for r in [500usize, 1000, 5000] {
        let mut points = Vec::new();
        for step in 0..=10 {
            let s = step as f64 / 10.0;
            points.push((s, relative_time(&net, 40, 3995, 995, 40, s, r)));
        }
        out.push(Series {
            label: format!("{r} Bytes"),
            points,
        });
    }
    out
}

/// Figure 10: CSJ/SJ vs result size on the symmetric network;
/// argument 100 B, input 500 B, selectivities 0.25/0.5/0.75/1.0.
pub fn fig10() -> Vec<Series> {
    let net = NetworkSpec::modem_28_8();
    let mut out = Vec::new();
    for s in [0.25f64, 0.5, 0.75, 1.0] {
        let mut points = Vec::new();
        for r in (0..=2000usize).step_by(200) {
            let r = r.max(10);
            points.push((r as f64, relative_time(&net, 60, 95, 395, 60, s, r)));
        }
        out.push(Series {
            label: format!("S={s}"),
            points,
        });
    }
    out
}

/// §3.2 model validation: predicted vs simulated relative time over a
/// parameter grid. Returns `(config label, predicted, measured)` rows.
pub fn cost_validation() -> Vec<(String, f64, f64)> {
    let net = NetworkSpec::modem_28_8();
    let mut out = Vec::new();
    for &(arg, nonarg, s, r) in &[
        (495usize, 495usize, 0.2f64, 500usize),
        (495, 495, 0.5, 1000),
        (495, 495, 0.8, 2000),
        (95, 395, 0.25, 800),
        (95, 395, 0.75, 1500),
        (3995, 995, 0.4, 1000),
    ] {
        let i = (arg + 5 + nonarg + 5) as f64;
        let params = csq_cost::CostParams {
            a: (arg + 5) as f64 / i,
            d: 1.0,
            s,
            p: 1.0,
            i,
            r: (r + 7) as f64, // object + bool results
            n: 1.0,
        }
        .with_paper_projection();
        let predicted = csq_cost::relative_time(&params);
        let measured = relative_time(&net, 50, arg, nonarg, 50, s, r);
        out.push((
            format!("arg={arg} nonarg={nonarg} S={s} R={r}"),
            predicted,
            measured,
        ));
    }
    out
}

/// The Figure 11/12 optimization environment.
fn fig11_ctx(net: NetworkSpec, result_bytes: f64, selectivity: f64) -> OptContext {
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
    ctx
}

fn select(sql: &str) -> csq_sql::SelectStmt {
    match parse_statement(sql).unwrap() {
        Statement::Select(s) => s,
        _ => unreachable!(),
    }
}

/// Figures 12/14: the chosen plan for the Figure 11 query across
/// environments, with the rank-order baseline's cost for comparison.
/// Returns a human-readable report.
pub fn fig12_plan_space() -> String {
    const FIG11: &str = "SELECT S.Name, E.BrokerName \
                         FROM StockQuotes S, Estimations E \
                         WHERE S.Name = E.CompanyName AND ClientAnalysis(S.Quotes) = E.Rating";
    let configs = [
        (
            "modem, 9B results, sel 0.5",
            NetworkSpec::modem_28_8(),
            9.0,
            0.5,
        ),
        (
            "cable N=100, 20KB results, sel 0.01",
            NetworkSpec::cable_asymmetric(),
            20_000.0,
            0.01,
        ),
        (
            "modem, 2KB results, sel 0.2",
            NetworkSpec::modem_28_8(),
            2_000.0,
            0.2,
        ),
    ];
    let mut out = String::new();
    for (label, net, r, s) in configs {
        let ctx = fig11_ctx(net, r, s);
        let g = csq_opt::query::extract(&select(FIG11), &ctx).unwrap();
        let plan = optimize(&g, &ctx).unwrap();
        let base = rank_order_baseline(&g, &ctx).unwrap();
        out.push_str(&format!(
            "== {label} ==\n{}cost {:.3}s (rank-order baseline: {:.3}s, {:.1}x)\n\n",
            plan.root.explain(&g),
            plan.cost_seconds,
            base.cost_seconds,
            base.cost_seconds / plan.cost_seconds.max(1e-12),
        ));
    }
    out
}

/// Figures 13/16: semi-join grouping for the two-UDF query.
pub fn fig13_plan_space() -> String {
    const FIG13: &str = "SELECT S.Name, E.BrokerName, Volatility(S.Quotes, S.FuturePrices) \
         FROM StockQuotes S, Estimations E \
         WHERE S.Name = E.CompanyName AND ClientAnalysis(S.Quotes) = E.Rating";
    let mut out = String::new();
    for (label, net) in [
        ("symmetric modem", NetworkSpec::modem_28_8()),
        ("asymmetric cable N=100", NetworkSpec::cable_asymmetric()),
    ] {
        let ctx = fig11_ctx(net, 9.0, 0.5);
        let g = csq_opt::query::extract(&select(FIG13), &ctx).unwrap();
        let plan = optimize(&g, &ctx).unwrap();
        out.push_str(&format!(
            "== {label} ==\n{}cost {:.3}s, {} states\n\n",
            plan.root.explain(&g),
            plan.cost_seconds,
            plan.states_explored,
        ));
    }
    out
}

/// Ablation: duplicate fraction D — SJ exploits duplicates, CSJ cannot
/// (§3.2.2). Returns series of (D, seconds) for both strategies.
pub fn ablate_duplicates() -> Vec<Series> {
    let net = NetworkSpec::modem_28_8();
    let schema = fig7_schema();
    let (udf1, udf2) = fig7_apps();
    let n = 60usize;
    let mut sj_points = Vec::new();
    let mut csj_points = Vec::new();
    for distinct in [6usize, 15, 30, 45, 60] {
        let rows = fig7_rows(n, 495, 495, distinct);
        let d = distinct as f64 / n as f64;
        let sj = simulate_semijoin(
            &schema,
            rows.clone(),
            &SemiJoinSpec::new(vec![udf1.clone(), udf2.clone()], 16),
            fig7_runtime(0.5, 1000),
            &net,
        )
        .unwrap();
        let csj = simulate_client_join(
            &schema,
            rows,
            &ClientJoinSpec::new(vec![udf1.clone(), udf2.clone()]),
            fig7_runtime(0.5, 1000),
            &net,
        )
        .unwrap();
        sj_points.push((d, sj.elapsed_secs()));
        csj_points.push((d, csj.elapsed_secs()));
    }
    vec![
        Series {
            label: "semi-join".into(),
            points: sj_points,
        },
        Series {
            label: "client-site join".into(),
            points: csj_points,
        },
    ]
}

/// Ablation: true asymmetric links vs the paper's byte-inflation emulation.
/// Returns (selectivity, CSJ/SJ) per model.
pub fn ablate_asymmetry_emulation() -> Vec<Series> {
    let mut out = Vec::new();
    for (label, net) in [
        ("true asymmetric", NetworkSpec::cable_asymmetric()),
        (
            "byte-inflation emulation",
            NetworkSpec::cable_asymmetric_emulated(),
        ),
    ] {
        let mut points = Vec::new();
        for step in [1usize, 2, 4, 8] {
            let s = step as f64 / 10.0;
            points.push((s, relative_time(&net, 40, 3995, 995, 40, s, 1000)));
        }
        out.push(Series {
            label: label.into(),
            points,
        });
    }
    out
}
