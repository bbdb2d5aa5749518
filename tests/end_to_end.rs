//! End-to-end tests: the paper's queries through SQL → optimizer →
//! threaded execution → rows, and agreement with the virtual-time engine.

use std::sync::Arc;

use csq::prelude::*;
use csq_client::synthetic::{ObjectUdf, PredicateUdf, RatingUdf};
use csq_common::Blob;
use csq_storage::TableBuilder;

/// Build the paper's StockQuotes table: Name, Change, Close, Quotes (blob),
/// Report (blob).
fn stock_db(rows: usize) -> Database {
    let db = Database::new(NetworkSpec::modem_28_8());
    let mut b = TableBuilder::new("StockQuotes")
        .column("Name", DataType::Str)
        .column("Change", DataType::Float)
        .column("Close", DataType::Float)
        .column("Quotes", DataType::Blob)
        .column("Report", DataType::Blob);
    for i in 0..rows {
        b = b.row(vec![
            Value::from(format!("company{i}")),
            Value::Float((i % 40) as f64),
            Value::Float(100.0),
            Value::Blob(Blob::synthetic(200, i as u64)),
            Value::Blob(Blob::synthetic(120, 1000 + i as u64)),
        ]);
    }
    db.catalog().register(b.build().unwrap()).unwrap();
    db.register_udf(Arc::new(RatingUdf::new("ClientAnalysis", 1000)))
        .unwrap();
    db.register_udf(Arc::new(PredicateUdf::new("Screen", 0.5)))
        .unwrap();
    db.register_udf(Arc::new(ObjectUdf::sized_n("Volatility", 2, 64)))
        .unwrap();
    db
}

const FIG1: &str = "SELECT S.Name, S.Report \
                    FROM StockQuotes S \
                    WHERE S.Change / S.Close > 0.2 AND ClientAnalysis(S.Quotes) > 500";

#[test]
fn figure1_query_runs_end_to_end() {
    let db = stock_db(60);
    let out = db.execute(FIG1).unwrap();
    assert_eq!(out.schema.len(), 2);
    assert_eq!(out.schema.field(0).name, "S.Name");
    // Verify against a direct computation.
    let t = db.catalog().get("StockQuotes").unwrap();
    let rating = RatingUdf::new("x", 1000);
    use csq_client::ScalarUdf;
    let mut expected = 0;
    for r in t.snapshot() {
        let change = r.value(1).as_f64().unwrap();
        let close = r.value(2).as_f64().unwrap();
        let quote = r.value(3).clone();
        let rated = rating.invoke(&[quote]).unwrap().as_i64().unwrap();
        if change / close > 0.2 && rated > 500 {
            expected += 1;
        }
    }
    assert_eq!(out.rows.len(), expected);
    assert!(expected > 0, "workload must exercise both predicates");
}

/// The threaded rows are the ones plain Rust computes over the table's
/// snapshot, and the virtual-time link — the same operator tree, another
/// link under its `ApplyUdf` — returns them in the same order.
#[test]
fn threaded_and_simulated_agree_on_rows() {
    use csq_client::ScalarUdf;

    let db = stock_db(40);
    let threaded = db.execute(FIG1).unwrap();
    let rating = RatingUdf::new("x", 1000);
    let mut expected: Vec<Row> = Vec::new();
    for r in db.catalog().get("StockQuotes").unwrap().snapshot() {
        let ratio = r.value(1).as_f64().unwrap() / r.value(2).as_f64().unwrap();
        let rated = rating.invoke(&[r.value(3).clone()]).unwrap();
        if ratio > 0.2 && rated.as_i64().unwrap() > 500 {
            expected.push(Row::new(vec![r.value(0).clone(), r.value(4).clone()]));
        }
    }
    let norm = |mut rows: Vec<Row>| {
        rows.sort_by_key(|r| format!("{r}"));
        rows
    };
    assert!(!expected.is_empty());
    assert_eq!(norm(threaded.rows.clone()), norm(expected));
    let (simulated, summary) = db.execute_simulated(FIG1).unwrap();
    assert_eq!(threaded.rows, simulated.rows);
    assert!(summary.elapsed_us > 0);
    assert!(summary.down_bytes > 0);
    assert!(summary.up_bytes > 0);
}

#[test]
fn explain_mentions_strategy_and_udf() {
    let db = stock_db(20);
    let plan = db.explain(FIG1).unwrap();
    assert!(plan.contains("ApplyUdf ClientAnalysis(S.Quotes)"), "{plan}");
    assert!(
        plan.contains("semi-join") || plan.contains("client-site join"),
        "{plan}"
    );
    assert!(plan.contains("cost:"), "{plan}");
}

#[test]
fn figure11_two_table_query() {
    let db = stock_db(25);
    // Estimations(CompanyName, BrokerName, Rating).
    let mut b = TableBuilder::new("Estimations")
        .column("CompanyName", DataType::Str)
        .column("BrokerName", DataType::Str)
        .column("Rating", DataType::Int);
    for i in 0..25 {
        for broker in 0..3 {
            b = b.row(vec![
                Value::from(format!("company{i}")),
                Value::from(format!("broker{broker}")),
                Value::Int((i * 37 + broker) as i64 % 1000),
            ]);
        }
    }
    db.catalog().register(b.build().unwrap()).unwrap();

    let sql = "SELECT S.Name, E.BrokerName \
               FROM StockQuotes S, Estimations E \
               WHERE S.Name = E.CompanyName AND ClientAnalysis(S.Quotes) = E.Rating";
    let out = db.execute(sql).unwrap();

    // Reference computation.
    use csq_client::ScalarUdf;
    let rating = RatingUdf::new("x", 1000);
    let stocks = db.catalog().get("StockQuotes").unwrap().snapshot();
    let ests = db.catalog().get("Estimations").unwrap().snapshot();
    let mut expected = 0;
    for s in &stocks {
        let rated = rating
            .invoke(&[s.value(3).clone()])
            .unwrap()
            .as_i64()
            .unwrap();
        for e in &ests {
            if s.value(0) == e.value(0) && Value::Int(rated) == *e.value(2) {
                expected += 1;
            }
        }
    }
    assert_eq!(out.rows.len(), expected);
}

#[test]
fn multiple_udfs_in_one_query() {
    let db = stock_db(30);
    let sql = "SELECT S.Name, Volatility(S.Quotes, S.Report) \
               FROM StockQuotes S \
               WHERE ClientAnalysis(S.Quotes) > 300 AND Screen(S.Report)";
    let out = db.execute(sql).unwrap();
    // Sanity: the Volatility column is a 64-byte blob.
    for r in &out.rows {
        assert_eq!(r.value(1).as_blob().unwrap().len(), 64);
    }
    let (sim, summary) = db.execute_simulated(sql).unwrap();
    assert_eq!(sim.rows.len(), out.rows.len());
    assert!(summary.phases >= 2, "at least two client-site phases");
}

#[test]
fn select_star_and_projection_expressions() {
    let db = stock_db(5);
    let out = db
        .execute("SELECT *, S.Change / S.Close AS ratio FROM StockQuotes S")
        .unwrap();
    assert_eq!(out.schema.len(), 6);
    assert_eq!(out.rows.len(), 5);
    assert_eq!(out.schema.field(5).name, "ratio");
}

#[test]
fn ddl_dml_roundtrip_via_sql() {
    let db = Database::new(NetworkSpec::lan());
    db.execute("CREATE TABLE t (a INT, b STRING)").unwrap();
    let r = db
        .execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
        .unwrap();
    assert_eq!(r.affected, 3);
    let out = db.execute("SELECT t.a FROM t t WHERE t.a >= 2").unwrap();
    assert_eq!(out.rows.len(), 2);
    // Errors: duplicate table, unknown table, type mismatch.
    assert!(db.execute("CREATE TABLE t (x INT)").is_err());
    assert!(db.execute("INSERT INTO missing VALUES (1)").is_err());
    assert!(db.execute("INSERT INTO t VALUES ('nope', 'y')").is_err());
}

#[test]
fn client_failure_surfaces_as_error() {
    let db = stock_db(10);
    // Screen expects a blob; call it on a float column → client error.
    let err = db
        .execute("SELECT S.Name FROM StockQuotes S WHERE Screen(S.Close)")
        .unwrap_err();
    assert_eq!(err.kind(), "client", "{err}");
}

#[test]
fn script_execution() {
    let db = Database::new(NetworkSpec::lan());
    let out = db
        .execute_script(
            "CREATE TABLE s (v INT); \
             INSERT INTO s VALUES (10), (20), (30); \
             SELECT s.v FROM s s WHERE s.v > 15;",
        )
        .unwrap();
    assert_eq!(out.rows.len(), 2);
}

/// The EXPLAIN surface of zone-map pruning (DESIGN.md §11): a selective
/// range predicate over a clustered key must report most sealed segments
/// pruned, and the query must still return exactly the matching rows.
#[test]
fn explain_reports_segment_pruning_on_selective_scan() {
    let db = Database::new(NetworkSpec::lan());
    db.execute("CREATE TABLE M (K INT, V INT)").unwrap();
    let values: Vec<String> = (0..20_000).map(|i| format!("({i}, {})", i % 97)).collect();
    db.execute(&format!("INSERT INTO M VALUES {}", values.join(", ")))
        .unwrap();

    let plan = db.explain("SELECT M.V FROM M WHERE M.K > 19000").unwrap();
    assert!(plan.contains("pruned"), "no pruning annotation in:\n{plan}");

    let out = db.execute("SELECT M.V FROM M WHERE M.K > 19000").unwrap();
    assert_eq!(out.rows.len(), 999);
}
