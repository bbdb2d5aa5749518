//! Quickstart: create a table, register a client-site UDF, run a query.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use std::sync::Arc;

use csq::prelude::*;
use csq_client::synthetic::RatingUdf;
use csq_common::Blob;
use csq_storage::TableBuilder;

fn main() -> std::result::Result<(), Box<dyn std::error::Error>> {
    // A database whose client is connected over a 28.8 kbit/s modem (the
    // paper's testbed). The network only affects simulated timings and the
    // optimizer's choices; execution itself runs in-process.
    let db = Database::new(NetworkSpec::modem_28_8());

    // Plain SQL works for scalar data...
    db.execute("CREATE TABLE Watchlist (Ticker STRING, Shares INT)")?;
    db.execute("INSERT INTO Watchlist VALUES ('ACME', 100), ('GLOBEX', 250)")?;

    // ...and the storage API handles blob-valued columns (price histories).
    let mut quotes = TableBuilder::new("StockQuotes")
        .column("Name", DataType::Str)
        .column("Quotes", DataType::Blob);
    for (i, name) in ["ACME", "GLOBEX", "INITECH", "HOOLI"].iter().enumerate() {
        quotes = quotes.row(vec![
            Value::from(*name),
            Value::Blob(Blob::synthetic(500, i as u64)),
        ]);
    }
    db.catalog().register(quotes.build()?)?;

    // The client registers its proprietary analysis function. The server
    // never sees the implementation — only name, types, and cost hints.
    db.register_udf(Arc::new(RatingUdf::new("ClientAnalysis", 1000)))?;

    // A query mixing a server predicate with a client-site UDF predicate.
    let sql = "SELECT S.Name, ClientAnalysis(S.Quotes) AS rating \
               FROM StockQuotes S \
               WHERE ClientAnalysis(S.Quotes) > 250";

    println!("plan:\n{}", db.explain(sql)?);

    let result = db.execute(sql)?;
    println!("results:\n{}", result.to_table());

    // The result also reports what the query cost over the modem, in
    // virtual time.
    let sim = &result.sim;
    println!(
        "simulated over 28.8k modem: {:.2}s, {} B down / {} B up, {} client invocations",
        sim.elapsed_secs(),
        sim.down_bytes,
        sim.up_bytes,
        db.client_runtime().invocations(),
    );
    Ok(())
}
