//! Reproduction of the qualitative shapes of the paper's Figures 6, 8, 9,
//! and 10 on the virtual-time engine, checked against the §3.2 cost model.

use std::sync::Arc;

use csq_client::synthetic::{ObjectUdf, PredicateUdf};
use csq_client::ClientRuntime;
use csq_common::{Blob, DataType, Field, Row, Schema, Value};
use csq_net::NetworkSpec;
use csq_ship::{
    simulate_client_join, simulate_semijoin, ClientJoinSpec, SemiJoinSpec, UdfApplication,
};

/// Figure 7's relation: Argument and NonArgument objects.
fn fig7_schema() -> Schema {
    Schema::new(vec![
        Field::new("Argument", DataType::Blob),
        Field::new("NonArgument", DataType::Blob),
    ])
}

fn fig7_rows(n: usize, arg_payload: usize, nonarg_payload: usize) -> Vec<Row> {
    (0..n)
        .map(|i| {
            Row::new(vec![
                Value::Blob(Blob::synthetic(arg_payload, i as u64)),
                Value::Blob(Blob::synthetic(nonarg_payload, 10_000 + i as u64)),
            ])
        })
        .collect()
}

/// Runtime with the Figure 7 UDFs: UDF1 (predicate, selectivity s) and
/// UDF2 (object of result_size bytes).
fn fig7_runtime(s: f64, result_size: usize) -> Arc<ClientRuntime> {
    let rt = ClientRuntime::new();
    rt.register(Arc::new(PredicateUdf::new("UDF1", s))).unwrap();
    rt.register(Arc::new(ObjectUdf::sized("UDF2", result_size)))
        .unwrap();
    Arc::new(rt)
}

/// The measured CSJ/SJ relative time for the Figure 7 query at selectivity
/// `s` and result size `r` over network `net`, with `i` split as `arg` +
/// `nonarg` payload bytes.
fn relative_time(net: &NetworkSpec, n: usize, arg: usize, nonarg: usize, s: f64, r: usize) -> f64 {
    let schema = fig7_schema();
    let rows = fig7_rows(n, arg, nonarg);
    let rt = fig7_runtime(s, r);

    // Semi-join: both UDFs grouped on the argument column (the paper's SJ
    // returns all results, applies the selection at the server).
    let udf1 = UdfApplication::new("UDF1", vec![0], Field::new("pass", DataType::Bool));
    let udf2 = UdfApplication::new("UDF2", vec![0], Field::new("res", DataType::Blob));
    let sj_spec = SemiJoinSpec::new(vec![udf1.clone(), udf2.clone()], 32);
    let sj = simulate_semijoin(&schema, rows.clone(), &sj_spec, rt.clone(), net).unwrap();

    // Client-site join: both UDFs at the client, selection pushed, paper
    // projection (non-arguments + results only).
    let mut csj_spec = ClientJoinSpec::new(vec![udf1, udf2]);
    csj_spec.pushed_predicate = Some(csq_expr::PhysExpr::Binary {
        left: Box::new(csq_expr::PhysExpr::Column(2)),
        op: csq_expr::BinaryOp::Eq,
        right: Box::new(csq_expr::PhysExpr::Literal(Value::Bool(true))),
    });
    csj_spec.return_cols = Some(vec![1, 3]); // NonArgument + UDF2 result
    let csj = simulate_client_join(&schema, rows, &csj_spec, rt, net).unwrap();

    csj.elapsed_us as f64 / sj.elapsed_us as f64
}

#[test]
fn fig6_concurrency_sweep_shape() {
    // 100 objects over the 28.8k modem; optimal K near bandwidth×delay.
    let net = NetworkSpec::modem_28_8();
    let schema = Schema::new(vec![Field::new("DataObject", DataType::Blob)]);
    let rt = || {
        let rt = ClientRuntime::new();
        rt.register(Arc::new(ObjectUdf::same_size("UDF"))).unwrap();
        Arc::new(rt)
    };
    let app = UdfApplication::new("UDF", vec![0], Field::new("out", DataType::Blob));
    for size in [100usize, 500, 1000] {
        let rows: Vec<Row> = (0..100)
            .map(|i| Row::new(vec![Value::Blob(Blob::synthetic(size, i))]))
            .collect();
        let time_at = |k: usize| {
            let spec = SemiJoinSpec::new(vec![app.clone()], k);
            simulate_semijoin(&schema, rows.clone(), &spec, rt(), &net)
                .unwrap()
                .elapsed_us
        };
        let t1 = time_at(1);
        let t5 = time_at(5);
        let t21 = time_at(21);
        assert!(t1 > t5, "size {size}: t1={t1} t5={t5}");
        assert!(t5 >= t21, "size {size}");
        // The knee: beyond the bandwidth-delay product gains vanish. For
        // 1000-byte objects BDP ≈ 5 tuples, so K=21 over K=5 gains < 25%.
        if size == 1000 {
            assert!(
                (t5 as f64) < (t21 as f64) * 1.35,
                "size 1000: t5={t5} t21={t21}"
            );
            // But K=1 → K=5 must be a large win (latency hiding).
            assert!(t1 as f64 > t5 as f64 * 2.0, "t1={t1} t5={t5}");
        }
    }
}

#[test]
fn fig8_symmetric_flat_then_linear() {
    // I=1000 (A=0.5), symmetric modem. Wire sizes: blob payload+5, so use
    // payloads that make the *records* ≈1000B: 495+495 payloads.
    let net = NetworkSpec::modem_28_8();
    let rel = |s: f64, r: usize| relative_time(&net, 60, 495, 495, s, r);

    // R=1000: flat-ish region then rising.
    let lo = rel(0.1, 1000);
    let mid = rel(0.45, 1000);
    let hi = rel(0.95, 1000);
    assert!(
        (mid - lo).abs() / lo < 0.25,
        "flat region: lo={lo}, mid={mid}"
    );
    assert!(hi > mid * 1.2, "rising region: mid={mid}, hi={hi}");

    // Larger results run deeper (CSJ relatively better at fixed S).
    let r100 = rel(0.3, 100);
    let r2000 = rel(0.3, 2000);
    let r5000 = rel(0.3, 5000);
    assert!(r100 > r2000, "r100={r100}, r2000={r2000}");
    assert!(r2000 > r5000, "r2000={r2000}, r5000={r5000}");
    // And with big results + selective predicates, CSJ wins outright.
    assert!(rel(0.25, 5000) < 1.0);
}

#[test]
fn fig9_asymmetric_linear_in_selectivity() {
    // N=100, I=5000 (args 4000 + non-args 1000, A=0.8).
    let net = NetworkSpec::cable_asymmetric();
    let rel = |s: f64, r: usize| relative_time(&net, 40, 3995, 995, s, r);
    // No flat region: ratio grows ~linearly with S.
    let r2 = rel(0.2, 1000);
    let r4 = rel(0.4, 1000);
    let r8 = rel(0.8, 1000);
    assert!(r4 > r2 * 1.5, "r2={r2}, r4={r4}");
    assert!(r8 > r4 * 1.5, "r4={r4}, r8={r8}");
    // Small selectivities still favour CSJ for big results.
    assert!(rel(0.05, 5000) < 1.0, "{}", rel(0.05, 5000));
}

#[test]
fn fig10_result_size_sweep() {
    // Symmetric net, arg 100 B, input 500 B. Ratio declines with R and
    // asymptotes; S=1 never dips below 1.
    let net = NetworkSpec::modem_28_8();
    let rel = |s: f64, r: usize| relative_time(&net, 60, 95, 395, s, r);

    for s in [0.25, 0.5, 0.75] {
        let small = rel(s, 50);
        let large = rel(s, 2000);
        assert!(small > large, "s={s}: small={small}, large={large}");
        assert!(large < 1.1, "s={s}: large={large}");
    }
    // Selectivity 1.0 never crosses below 1.
    for r in [50, 400, 1000, 2000] {
        let v = rel(1.0, r);
        assert!(v >= 0.95, "s=1, r={r}: {v}");
    }
    // Lower selectivities sit lower (curves approach their selectivity).
    assert!(rel(0.25, 2000) < rel(0.5, 2000));
    assert!(rel(0.5, 2000) < rel(0.75, 2000));
}

#[test]
fn cost_model_predicts_simulation_within_tolerance() {
    // §3.2 validation: model-predicted relative time vs simulated, over a
    // parameter grid. The model ignores latency fill and message framing,
    // so agreement within ~25% relative is the bar (the paper only argues
    // shapes).
    let net = NetworkSpec::modem_28_8();
    let mut checked = 0;
    for &(arg, nonarg, s, r) in &[
        (495usize, 495usize, 0.3f64, 1000usize),
        (495, 495, 0.8, 1000),
        (495, 495, 0.3, 5000),
        (95, 395, 0.5, 800),
        (3995, 995, 0.5, 500),
    ] {
        let i = (arg + 5 + nonarg + 5) as f64;
        let a = (arg + 5) as f64 / i;
        let params = csq_cost::CostParams {
            a,
            d: 1.0,
            s,
            p: 1.0,
            i,
            // The SJ returns both UDF results (bool + object).
            r: (r + 5 + 2) as f64,
            n: 1.0,
        }
        .with_paper_projection();
        let predicted = csq_cost::relative_time(&params);
        let measured = relative_time(&net, 50, arg, nonarg, s, r);
        let err = (measured - predicted).abs() / predicted;
        assert!(
            err < 0.3,
            "arg={arg} s={s} r={r}: predicted {predicted:.3}, measured {measured:.3}"
        );
        checked += 1;
    }
    assert_eq!(checked, 5);
}
