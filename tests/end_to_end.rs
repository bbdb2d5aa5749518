//! End-to-end tests: the paper's queries through SQL → optimizer →
//! execution → rows, each result carrying the statement's virtual time.

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

/// The rows are the ones plain Rust computes over the table's snapshot, and
/// the result carries the virtual time of its one client-site phase.
#[test]
fn figure1_rows_match_plain_rust_and_carry_virtual_time() {
    use csq_client::ScalarUdf;

    let db = stock_db(40);
    let out = db.execute(FIG1).unwrap();
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
    assert_eq!(norm(out.rows), norm(expected));
    let sim = out.sim;
    assert_eq!(sim.phases, 1);
    assert!(sim.elapsed_us > 0);
    assert!(sim.down_bytes > 0);
    assert!(sim.up_bytes > 0);
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
    assert!(out.sim.phases >= 2, "at least two client-site phases");
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

/// A script runs each statement from its own text through the plan cache,
/// as every entry point but `optimize` does: CREATE and INSERT plan
/// nothing (neither hit nor miss), and the SELECT is planned once however
/// it is run after.
#[test]
fn script_execution() {
    let db = Database::new(NetworkSpec::lan());
    let sql = "SELECT s.v FROM s s WHERE s.v > 15";
    let out = db
        .execute_script(&format!(
            "CREATE TABLE s (v INT); \
             INSERT INTO s VALUES (10), (20), (30); \
             {sql};"
        ))
        .unwrap();
    assert_eq!(out.rows.len(), 2);
    let counters = || {
        let s = db.plan_cache_stats();
        (s.hits, s.misses, s.stale_replans, s.entries)
    };
    assert_eq!(counters(), (0, 1, 0, 1));
    db.execute(sql).unwrap();
    db.explain(sql).unwrap();
    db.execute_simulated(sql).unwrap();
    assert_eq!(counters(), (3, 1, 0, 1), "one plan served every run");
    db.optimize(sql).unwrap();
    assert_eq!(counters(), (3, 1, 0, 1), "optimize bypasses the cache");
    db.execute_cached_with("INSERT INTO s VALUES (40)", &csq::CancelToken::new())
        .unwrap();
    assert_eq!(counters(), (3, 1, 0, 1), "an INSERT plans nothing");
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

/// The paper's two shipping statements at the benchmark's scale: 2 000
/// rows whose 1 000-byte `Quotes` are shared by four rows each, under a
/// modem (the Figure 1 query plans a semi-join) and under the asymmetric
/// cable link with large advertised results (its variant returning
/// `S.Quotes` plans a client-site join).
fn paper_db(net: NetworkSpec, udf: Arc<dyn csq_client::ScalarUdf>) -> Database {
    let db = Database::new(net);
    let mut b = TableBuilder::new("StockQuotes")
        .column("Name", DataType::Str)
        .column("Change", DataType::Float)
        .column("Close", DataType::Float)
        .column("Quotes", DataType::Blob)
        .column("Report", DataType::Blob);
    for i in 0..2_000u64 {
        b = b.row(vec![
            Value::from(format!("company{i}")),
            Value::Float((i % 40) as f64),
            Value::Float(100.0),
            Value::Blob(Blob::synthetic(1_000, i % 500)),
            Value::Blob(Blob::synthetic(200, 1_000 + i)),
        ]);
    }
    db.catalog().register(b.build().unwrap()).unwrap();
    db.register_udf(udf).unwrap();
    db
}

/// `paper_db`'s Figure 1 statement over the modem (a semi-join) and its
/// variant returning `S.Quotes` over the cable link with large advertised
/// results (a client-site join): `(db, sql, the plan's strategy)` each.
fn paper_statements(
    udf: Arc<dyn csq_client::ScalarUdf>,
) -> [(Database, &'static str, &'static str); 2] {
    let semi = paper_db(NetworkSpec::modem_28_8(), udf.clone());
    let join = paper_db(NetworkSpec::cable_asymmetric(), udf);
    join.advertise_udf(
        csq_core::UdfMeta::client("ClientAnalysis", vec![DataType::Blob], DataType::Int)
            .with_result_bytes(20_000.0)
            .with_selectivity(0.01),
    );
    let fig1_quotes = "SELECT S.Name, S.Quotes FROM StockQuotes S \
                       WHERE S.Change / S.Close > 0.2 AND ClientAnalysis(S.Quotes) > 500";
    [
        (semi, FIG1, "[semi-join, 65/msg, K=130]"),
        (
            join,
            fig1_quotes,
            "[client-site join, push [($u0 > 500)], merged with final, 36/msg, K=108]",
        ),
    ]
}

/// The virtual-time result of both shipping statements, to the µs and the
/// byte: the link model, the shipping window and the client's CPU clock
/// must reproduce it exactly whatever runs the operators.
#[test]
fn the_paper_statements_take_pinned_virtual_time() {
    let rating = Arc::new(RatingUdf::new("ClientAnalysis", 1000));
    for ((db, sql, marker), pinned) in paper_statements(rating)
        .into_iter()
        .zip([PIN_SEMI, PIN_JOIN])
    {
        let plan = db.explain(sql).unwrap();
        assert!(plan.contains(marker), "{plan}");
        let sim = db.execute(sql).unwrap().sim;
        let got = [
            sim.elapsed_us,
            sim.down_bytes,
            sim.up_bytes,
            sim.down_messages,
            sim.up_messages,
            sim.client_cpu_us,
        ];
        assert_eq!(got, pinned, "{marker}: {sim:?}");
        assert_eq!(db.execute_simulated(sql).unwrap().1, sim, "{marker}");
    }
}

/// Every in-process statement carries its virtual time. A SELECT that calls
/// no UDF has no client-site phase, only the delivery of its rows: one
/// downlink message of the row count and the rows as the codec encodes
/// them, NULLs included. A write crosses no modelled link.
#[test]
fn a_statement_without_a_udf_carries_only_its_delivery() {
    let net = NetworkSpec::modem_28_8();
    let db = Database::new(net.clone());
    let mut b = TableBuilder::new("N")
        .column("I", DataType::Int)
        .column("F", DataType::Float)
        .column("B", DataType::Bool);
    let or_null = |null: bool, v: Value| if null { Value::Null } else { v };
    for i in 0..60i64 {
        b = b.row(vec![
            or_null(i % 3 == 0, Value::Int(i)),
            or_null(i % 5 == 0, Value::Float(i as f64)),
            or_null(i % 7 == 0, Value::Bool(i % 2 == 0)),
        ]);
    }
    let t = b.build().unwrap();
    t.seal_tail();
    db.catalog().register(t).unwrap();
    let out = db
        .execute("SELECT N.I, N.F, N.B FROM N N WHERE N.F > 9.5")
        .unwrap();
    assert!(out.rows.iter().any(|r| r.value(0).is_null()));
    let mut payload = Vec::new();
    csq_common::codec::encode_rows(&out.rows, &mut payload);
    let mut down = net.make_downlink();
    let (_, arrival) = down.transmit(0, net.downlink_bytes(payload.len()));
    let delivery = csq::SimSummary {
        elapsed_us: arrival,
        down_bytes: down.bytes_sent(),
        down_messages: 1,
        ..csq::SimSummary::default()
    };
    assert_eq!(out.sim, delivery);
    for sql in ["CREATE TABLE W (A INT)", "INSERT INTO W VALUES (1), (2)"] {
        assert_eq!(db.execute(sql).unwrap().sim, csq::SimSummary::default());
    }
}

/// `[elapsed µs, down bytes, up bytes, down messages, up messages, client
/// CPU µs]` of the semi-join statement over the modem.
const PIN_SEMI: [u64; 6] = [165_864_727, 589_349, 6_215, 11, 8, 0];
/// The same of the client-site join statement over the cable link.
const PIN_JOIN: [u64; 6] = [172_723_910, 1_687_265, 615_797, 30, 27, 0];

/// `ClientAnalysis` as [`RatingUdf`] computes it, noting the thread of
/// every invocation.
struct OnThread {
    rating: RatingUdf,
    threads: std::sync::Mutex<Vec<std::thread::ThreadId>>,
}

impl csq_client::ScalarUdf for OnThread {
    fn signature(&self) -> &csq_client::UdfSignature {
        csq_client::ScalarUdf::signature(&self.rating)
    }

    fn invoke(&self, args: &[Value]) -> csq_common::Result<Value> {
        self.threads
            .lock()
            .unwrap()
            .push(std::thread::current().id());
        csq_client::ScalarUdf::invoke(&self.rating, args)
    }

    fn result_size_hint(&self) -> Option<usize> {
        csq_client::ScalarUdf::result_size_hint(&self.rating)
    }
}

/// A statement that ships starts no thread: under either strategy, every
/// UDF invocation runs on the thread that asked for the rows.
#[test]
fn a_shipping_statement_runs_its_udf_on_the_calling_thread() {
    let udf = Arc::new(OnThread {
        rating: RatingUdf::new("ClientAnalysis", 1000),
        threads: Default::default(),
    });
    for (db, sql, marker) in paper_statements(udf.clone()) {
        assert!(db.explain(sql).unwrap().contains(marker));
        db.execute(sql).unwrap();
        db.execute_simulated(sql).unwrap();
        let threads = std::mem::take(&mut *udf.threads.lock().unwrap());
        assert_eq!(threads.len(), 2 * 475, "{marker}");
        let here = std::thread::current().id();
        assert!(threads.iter().all(|&t| t == here), "{marker}");
    }
}
