//! Workspace smoke test: the `csq` facade alone must be enough to build a
//! database over the paper's modem link, register a client-site UDF, and run
//! a query — guarding the facade's re-export surface (a pure re-export
//! regression breaks this file at compile time).

use std::sync::Arc;

use csq::synthetic::ObjectUdf;
use csq::{DataType, Database, NetworkSpec, TableBuilder, Value};

#[test]
fn facade_builds_database_with_udf_over_modem() {
    let db = Database::new(NetworkSpec::modem_28_8());
    let table = TableBuilder::new("R")
        .column("Id", DataType::Int)
        .column("Obj", DataType::Blob)
        .row(vec![
            Value::Int(1),
            Value::Blob(csq::Blob::synthetic(64, 1)),
        ])
        .row(vec![
            Value::Int(2),
            Value::Blob(csq::Blob::synthetic(64, 2)),
        ])
        .build()
        .unwrap();
    db.catalog().register(table).unwrap();
    db.register_udf(Arc::new(ObjectUdf::sized("F", 32)))
        .unwrap();

    let out = db
        .execute("SELECT R.Id, F(R.Obj) FROM R R WHERE R.Id > 0")
        .unwrap();
    assert_eq!(out.rows.len(), 2);
    assert_eq!(out.schema.len(), 2);
}

#[test]
fn facade_exposes_result_and_simulation_types() {
    let db = Database::new(NetworkSpec::lan());
    db.execute("CREATE TABLE T (A INT)").unwrap();
    db.execute("INSERT INTO T VALUES (7)").unwrap();
    let result: csq::QueryResult = db.execute("SELECT T.A FROM T T").unwrap();
    let summary: &csq::SimSummary = &result.sim;
    assert_eq!(result.rows.len(), 1);
    assert!(summary.elapsed_secs() >= 0.0);
}
