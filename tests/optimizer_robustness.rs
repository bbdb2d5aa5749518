//! Optimizer + engine robustness beyond the paper's example queries:
//! pure-relational queries, three-way joins and cross-relation UDF arguments.

use std::sync::Arc;

use csq_client::synthetic::ObjectUdf;
use csq_common::{Blob, DataType, Value};
use csq_core::Database;
use csq_net::NetworkSpec;
use csq_storage::TableBuilder;

fn three_table_db() -> Database {
    let db = Database::new(NetworkSpec::modem_28_8());
    let mut a = TableBuilder::new("A")
        .column("id", DataType::Int)
        .column("obj", DataType::Blob);
    for i in 0..12i64 {
        a = a.row(vec![
            Value::Int(i),
            Value::Blob(Blob::synthetic(64, i as u64)),
        ]);
    }
    db.catalog().register(a.build().unwrap()).unwrap();
    let mut b = TableBuilder::new("B")
        .column("a_id", DataType::Int)
        .column("tag", DataType::Str);
    for i in 0..12i64 {
        b = b.row(vec![
            Value::Int(i),
            Value::from(if i % 2 == 0 { "even" } else { "odd" }),
        ]);
    }
    db.catalog().register(b.build().unwrap()).unwrap();
    let mut c = TableBuilder::new("C")
        .column("tag", DataType::Str)
        .column("weight", DataType::Int);
    c = c.row(vec![Value::from("even"), Value::Int(10)]);
    c = c.row(vec![Value::from("odd"), Value::Int(20)]);
    db.catalog().register(c.build().unwrap()).unwrap();
    db.register_udf(Arc::new(ObjectUdf::sized("Enrich", 32)))
        .unwrap();
    db.register_udf(Arc::new(ObjectUdf::sized_n("Merge", 2, 16)))
        .unwrap();
    db
}

#[test]
fn pure_relational_query_without_udfs() {
    let db = three_table_db();
    let out = db
        .execute(
            "SELECT A.id, C.weight FROM A A, B B, C C \
             WHERE A.id = B.a_id AND B.tag = C.tag AND C.weight > 15",
        )
        .unwrap();
    // Odd ids only: 6 of 12.
    assert_eq!(out.rows.len(), 6);
    for r in &out.rows {
        assert_eq!(r.value(1), &Value::Int(20));
        assert_eq!(r.value(0).as_i64().unwrap() % 2, 1);
    }
}

#[test]
fn three_way_join_with_udf() {
    let db = three_table_db();
    let sql = "SELECT A.id, Enrich(A.obj) FROM A A, B B, C C \
               WHERE A.id = B.a_id AND B.tag = C.tag AND C.weight = 10";
    let out = db.execute(sql).unwrap();
    assert_eq!(out.rows.len(), 6); // even ids
    for r in &out.rows {
        assert_eq!(r.value(1).as_blob().unwrap().len(), 32);
    }
    // 5 units → exponential DP still small.
    let (_, plan) = db.optimize(sql).unwrap();
    assert!(plan.states_explored < 10_000);
}

#[test]
fn udf_with_arguments_from_two_relations() {
    let db = three_table_db();
    // Merge takes one blob from A and... B has no blob, so use A twice via
    // self-join aliases.
    let sql = "SELECT X.id, Merge(X.obj, Y.obj) FROM A X, A Y \
               WHERE X.id = Y.id";
    let out = db.execute(sql).unwrap();
    assert_eq!(out.rows.len(), 12);
    for r in &out.rows {
        assert_eq!(r.value(1).as_blob().unwrap().len(), 16);
    }
    // The UDF unit's prerequisites must span both relations, so it can only
    // be applied after the join.
    let (graph, plan) = db.optimize(sql).unwrap();
    let udf_unit = graph.n_rels;
    assert!(
        plan.root.udf_after_join(udf_unit),
        "{}",
        plan.root.explain(&graph)
    );
}

#[test]
fn self_join_aliases_resolve_independently() {
    let db = three_table_db();
    let out = db
        .execute("SELECT X.id, Y.id FROM A X, A Y WHERE X.id = Y.id AND X.id < 3")
        .unwrap();
    assert_eq!(out.rows.len(), 3);
}

#[test]
fn unknown_table_and_column_errors() {
    let db = three_table_db();
    assert!(db.execute("SELECT Z.id FROM Zed Z").is_err());
    let err = db.execute("SELECT A.missing FROM A A").unwrap_err();
    assert!(matches!(err.kind(), "catalog" | "plan"), "{err}");
}

#[test]
fn ambiguous_unqualified_column_is_rejected() {
    let db = three_table_db();
    // `tag` exists in both B and C.
    let err = db
        .execute("SELECT tag FROM B B, C C WHERE B.tag = C.tag")
        .unwrap_err();
    assert!(matches!(err.kind(), "plan" | "catalog"), "{err}");
}
