//! The paper's motivating scenario (§1, Figure 1): a WWW stock-data server,
//! an investor whose analysis code and thresholds are confidential, and a
//! slow link between them. Compares all three execution strategies on the
//! virtual-time engine.
//!
//! ```sh
//! cargo run --example stock_analysis
//! ```

use std::sync::Arc;

use csq_client::synthetic::{ObjectUdf, PredicateUdf};
use csq_client::ClientRuntime;
use csq_common::{Blob, DataType, Field, Row, Schema, Value};
use csq_net::NetworkSpec;
use csq_ship::{
    simulate_client_join, simulate_naive, simulate_semijoin, ClientJoinSpec, SemiJoinSpec,
    UdfApplication,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = NetworkSpec::modem_28_8();

    // 100 companies, 1 KB of price-history per company.
    let schema = Schema::new(vec![
        Field::new("Name", DataType::Str),
        Field::new("Quotes", DataType::Blob),
    ]);
    let rows: Vec<Row> = (0..100)
        .map(|i| {
            Row::new(vec![
                Value::from(format!("company{i:03}")),
                Value::Blob(Blob::synthetic(1000, i)),
            ])
        })
        .collect();

    // The investor's confidential UDFs: a screen (keeps ~20%) and a report
    // generator producing 2 KB analysis objects.
    let runtime = || {
        let rt = ClientRuntime::new();
        rt.register(Arc::new(PredicateUdf::new("Screen", 0.2)))
            .unwrap();
        rt.register(Arc::new(ObjectUdf::sized("Analyze", 2000)))
            .unwrap();
        Arc::new(rt)
    };
    let screen = UdfApplication::new("Screen", vec![1], Field::new("keep", DataType::Bool));
    let analyze = UdfApplication::new("Analyze", vec![1], Field::new("report", DataType::Blob));

    println!("query: screen 100 companies, build reports for survivors");
    println!(
        "network: 28.8 kbit/s modem, RTT {:.2}s\n",
        net.rtt() as f64 / 1e6
    );

    // Naive tuple-at-a-time (§2.1): blocking round trip per tuple.
    let naive = simulate_naive(
        &schema,
        rows.clone(),
        &SemiJoinSpec::new(vec![screen.clone(), analyze.clone()], 1),
        runtime(),
        &net,
    )?;

    // Semi-join with the messages and pipeline the optimizer would plan
    // (§2.3.1, §3.1.2): 1 005-byte arguments down, 2 005-byte reports up.
    let ship = csq_cost::shipping_params(&net, 1005.0, 2005.0, 0.0, rows.len() as f64, 1.0);
    let mut sj_spec = SemiJoinSpec::new(vec![screen.clone(), analyze.clone()], ship.concurrency);
    sj_spec.batch_size = ship.tuples_per_message;
    let sj = simulate_semijoin(&schema, rows.clone(), &sj_spec, runtime(), &net)?;

    // Client-site join with the screen pushed down (§2.3.2): only survivors'
    // names + reports return.
    let mut csj_spec = ClientJoinSpec::new(vec![screen, analyze]);
    csj_spec.pushed_predicate = Some(csq_expr::PhysExpr::Binary {
        left: Box::new(csq_expr::PhysExpr::Column(2)),
        op: csq_expr::BinaryOp::Eq,
        right: Box::new(csq_expr::PhysExpr::Literal(Value::Bool(true))),
    });
    csj_spec.return_cols = Some(vec![0, 3]); // Name + report
    let csj = simulate_client_join(&schema, rows, &csj_spec, runtime(), &net)?;

    println!(
        "{:<22} {:>10} {:>12} {:>12} {:>8}",
        "strategy", "time", "down", "up", "rows"
    );
    for (name, run, rows_out) in [
        ("naive tuple-at-a-time", &naive, naive.rows.len()),
        (
            &format!("semi-join ({}/msg)", ship.tuples_per_message),
            &sj,
            sj.rows.len(),
        ),
        ("client-site join", &csj, csj.rows.len()),
    ] {
        println!(
            "{:<22} {:>8.1}s {:>10} B {:>10} B {:>8}",
            name,
            run.elapsed_secs(),
            run.down_bytes,
            run.up_bytes,
            rows_out
        );
    }
    println!(
        "\nnaive/semi-join speedup: {:.1}x (latency hiding, Figure 2)",
        naive.elapsed_us as f64 / sj.elapsed_us as f64
    );
    println!(
        "client-site join vs semi-join: {:.2}x (selective pushdown trades \
         downlink for uplink, Figure 5)",
        csj.elapsed_us as f64 / sj.elapsed_us as f64
    );
    Ok(())
}
