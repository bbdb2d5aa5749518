//! §5's optimizer in action: the same Figure 11 query gets different plans
//! as the network and UDF statistics change — UDF before/after the join,
//! semi-join vs client-site join, pushdowns, grouping, final merging.
//!
//! ```sh
//! cargo run --example optimizer_explain
//! ```

use std::sync::Arc;

use csq::prelude::*;
use csq_client::synthetic::{ObjectUdf, RatingUdf};
use csq_common::Blob;
use csq_opt::UdfMeta;
use csq_storage::TableBuilder;

fn build_db(net: NetworkSpec) -> std::result::Result<Database, Box<dyn std::error::Error>> {
    let db = Database::new(net);
    let mut stocks = TableBuilder::new("StockQuotes")
        .column("Name", DataType::Str)
        .column("Quotes", DataType::Blob)
        .column("FuturePrices", DataType::Blob);
    for i in 0..100 {
        stocks = stocks.row(vec![
            Value::from(format!("company{i:03}")),
            Value::Blob(Blob::synthetic(1000, i)),
            Value::Blob(Blob::synthetic(1000, 50_000 + i)),
        ]);
    }
    db.catalog().register(stocks.build()?)?;

    let mut est = TableBuilder::new("Estimations")
        .column("CompanyName", DataType::Str)
        .column("BrokerName", DataType::Str)
        .column("Rating", DataType::Int);
    for i in 0..100 {
        for b in 0..10 {
            est = est.row(vec![
                Value::from(format!("company{i:03}")),
                Value::from(format!("broker{b}")),
                Value::Int(((i * 13 + b) % 100) as i64),
            ]);
        }
    }
    db.catalog().register(est.build()?)?;

    db.register_udf(Arc::new(RatingUdf::new("ClientAnalysis", 100)))?;
    db.register_udf(Arc::new(ObjectUdf::sized_n("Volatility", 2, 64)))?;
    Ok(db)
}

const FIG11: &str = "SELECT S.Name, E.BrokerName \
                     FROM StockQuotes S, Estimations E \
                     WHERE S.Name = E.CompanyName AND ClientAnalysis(S.Quotes) = E.Rating";

const FIG13: &str = "SELECT S.Name, E.BrokerName, Volatility(S.Quotes, S.FuturePrices) \
                     FROM StockQuotes S, Estimations E \
                     WHERE S.Name = E.CompanyName AND ClientAnalysis(S.Quotes) = E.Rating";

fn main() -> std::result::Result<(), Box<dyn std::error::Error>> {
    println!("== Figure 11 query, symmetric modem, small results ==");
    let db = build_db(NetworkSpec::modem_28_8())?;
    println!("{}", db.explain(FIG11)?);

    println!("== Same query, asymmetric cable link, 20 KB results ==");
    let db = build_db(NetworkSpec::cable_asymmetric())?;
    db.advertise_udf(
        UdfMeta::client("ClientAnalysis", vec![DataType::Blob], DataType::Int)
            .with_result_bytes(20_000.0)
            .with_selectivity(0.01),
    );
    println!("{}", db.explain(FIG11)?);

    println!("== Figure 13 query (two UDFs sharing S.Quotes), modem ==");
    let db = build_db(NetworkSpec::modem_28_8())?;
    println!("{}", db.explain(FIG13)?);

    println!("== Output-is-the-UDF-result query: final merging ==");
    let db = build_db(NetworkSpec::cable_asymmetric())?;
    db.advertise_udf(
        UdfMeta::client("ClientAnalysis", vec![DataType::Blob], DataType::Int)
            .with_result_bytes(20_000.0)
            .with_selectivity(1.0),
    );
    println!(
        "{}",
        db.explain("SELECT S.Name, ClientAnalysis(S.Quotes) FROM StockQuotes S")?
    );

    println!("== And the chosen Figure 11 plan actually runs ==");
    let db = build_db(NetworkSpec::modem_28_8())?;
    let out = db.execute(FIG11)?;
    println!("{} matching (company, broker) pairs", out.rows.len());
    let sim = &out.sim;
    println!(
        "simulated: {:.2}s over the modem ({} B down, {} B up)",
        sim.elapsed_secs(),
        sim.down_bytes,
        sim.up_bytes
    );
    Ok(())
}
