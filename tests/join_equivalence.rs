//! SQL joins against a nested loop.
//!
//! Every SQL join lowers to one `HashJoin` under the `Filter` that holds the
//! join predicate; lowering keys it on the equalities it can decide exactly
//! and leaves the rest (and every pair the key rules out) to that filter.
//! This suite holds `Database::execute` of a two-table join to a plain-Rust
//! nested loop over the inserted rows that keeps each concatenated pair on
//! which `PhysExpr::eval_predicate` holds: the same pairs as a multiset, or
//! an error of the same kind. Each case runs unbudgeted and under a 4 KB
//! memory budget, where a join spills (Grace) exactly when lowering keys
//! it — an unkeyed join has nothing to partition on — and every join gives
//! back every tracked byte.

use csq::prelude::*;
use csq_expr::bind;
use csq_sql::parse_expression;

const L_ROWS: i64 = 300;
const R_ROWS: i64 = 200;

/// `L (LId, k, s, f, x)`: INT keys 0..17 with duplicates and NULLs, STR
/// keys with NULLs, FLOAT cells among 0.0, −0.0, NaN, NULL and small
/// integers, and a non-NULL INT dividend.
fn l_rows() -> Vec<Row> {
    (0..L_ROWS)
        .map(|i| {
            let k = if i % 13 == 0 {
                Value::Null
            } else {
                Value::Int(i % 17)
            };
            let s = if i % 19 == 0 {
                Value::Null
            } else {
                Value::from(format!("s{}", i % 11))
            };
            let f = match i % 6 {
                0 => Value::Float(0.0),
                1 => Value::Float(-0.0),
                2 => Value::Float(f64::NAN),
                3 => Value::Float((i % 17) as f64),
                4 => Value::Null,
                _ => Value::Float(1.5),
            };
            Row::new(vec![Value::Int(i), k, s, f, Value::Int(i % 23 + 1)])
        })
        .collect()
}

/// `R (RId, k, s, f, y, z)`, keyed like `L` (0..23, so keys repeat on the
/// build side too). Two columns divide: `y` is 0 only on row 0, whose key
/// 999 matches no `L` row, and `z` is 0 exactly on the rows whose key is
/// NULL.
fn r_rows() -> Vec<Row> {
    (0..R_ROWS)
        .map(|j| {
            let k = match j {
                0 => Value::Int(999),
                _ if j % 7 == 0 => Value::Null,
                _ => Value::Int(j % 23),
            };
            let s = if j % 29 == 0 {
                Value::Null
            } else {
                Value::from(format!("s{}", j % 13))
            };
            let f = match j % 5 {
                0 => Value::Float(-0.0),
                1 => Value::Float(0.0),
                2 => Value::Float(f64::NAN),
                3 => Value::Float((j % 17) as f64),
                _ => Value::Null,
            };
            let y = Value::Int(if j == 0 { 0 } else { j % 31 + 1 });
            let z = Value::Int(if k.is_null() { 0 } else { j + 1 });
            Row::new(vec![Value::Int(j), k, s, f, y, z])
        })
        .collect()
}

fn database() -> Database {
    let db = Database::new(NetworkSpec::lan());
    db.execute("CREATE TABLE L (LId INT, k INT, s STRING, f FLOAT, x INT)")
        .unwrap();
    db.execute("CREATE TABLE R (RId INT, k INT, s STRING, f FLOAT, y INT, z INT)")
        .unwrap();
    db.catalog().get("L").unwrap().insert_all(l_rows()).unwrap();
    db.catalog().get("R").unwrap().insert_all(r_rows()).unwrap();
    db
}

/// The pairs `(LId, RId)` on which `predicate` holds, as sorted text, or
/// the kind of the first error it raises: a nested loop over the rows.
fn nested_loop(db: &Database, predicate: Option<&str>) -> std::result::Result<Vec<String>, String> {
    let l = db.catalog().get("L").unwrap().schema().qualify("l");
    let r = db.catalog().get("R").unwrap().schema().qualify("r");
    let schema = l.join(&r);
    let pred = predicate.map(|p| bind(&parse_expression(p).unwrap(), &schema).unwrap());
    let mut out = Vec::new();
    for a in &l_rows() {
        for b in &r_rows() {
            let joined = a.join(b);
            let keep = match &pred {
                Some(p) => p
                    .eval_predicate(&joined)
                    .map_err(|e| e.kind().to_string())?,
                None => true,
            };
            if keep {
                out.push(format!("{},{}", a.value(0), b.value(0)));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// The same through `Database::execute`.
fn executed(db: &Database, predicate: Option<&str>) -> std::result::Result<Vec<String>, String> {
    let sql = match predicate {
        Some(p) => format!("SELECT l.LId, r.RId FROM L l, R r WHERE {p}"),
        None => "SELECT l.LId, r.RId FROM L l, R r".to_string(),
    };
    let rows = db.execute(&sql).map_err(|e| e.kind().to_string())?.rows;
    let mut out: Vec<String> = rows
        .iter()
        .map(|row| format!("{},{}", row.value(0), row.value(1)))
        .collect();
    out.sort();
    Ok(out)
}

/// `predicate` answers as the nested loop does, unbudgeted and under a
/// 4 KB budget, where it spills exactly when lowering `keyed` the join;
/// returns the answer.
fn agrees(predicate: Option<&str>, keyed: bool) -> std::result::Result<Vec<String>, String> {
    let db = database();
    let expected = nested_loop(&db, predicate);
    assert_eq!(executed(&db, predicate), expected, "{predicate:?}");
    db.set_memory_budget(4096);
    assert_eq!(
        executed(&db, predicate),
        expected,
        "{predicate:?} under 4 KB"
    );
    let tracker = db.memory_tracker();
    assert_eq!(
        tracker.spill_count() > 0,
        keyed,
        "{predicate:?}: a spill under 4 KB exactly when the join is keyed"
    );
    assert_eq!(
        tracker.used(),
        0,
        "{predicate:?}: tracked bytes left behind"
    );
    expected
}

/// Equi-joins lowering keys: INT and STR keys, a two-column key, keys
/// repeated on the build side, NULL keys on both sides, and theta and
/// single-side conjuncts beside them.
#[test]
fn keyed_joins_match_the_nested_loop() {
    for p in [
        "l.k = r.k",
        "l.s = r.s",
        "l.k = r.k AND l.s = r.s",
        "r.k = l.k AND l.x < r.y AND l.s > 's3'",
        "l.k = r.k AND l.f = r.f",
    ] {
        let pairs = agrees(Some(p), true).unwrap();
        assert!(!pairs.is_empty(), "{p}");
    }
}

/// Pairs a hash key would decide differently from SQL: INT = FLOAT (SQL
/// widens the INT) and FLOAT = FLOAT over −0.0/0.0 (equal under SQL,
/// bitwise apart) and NaN (never equal under SQL, bitwise equal). Lowering
/// keys neither.
#[test]
fn mixed_and_float_keys_match_the_nested_loop() {
    for p in ["l.k = r.f", "l.f = r.f", "r.f = l.f AND l.x > 3"] {
        let pairs = agrees(Some(p), false).unwrap();
        assert!(!pairs.is_empty(), "{p}");
    }
    // −0.0 meets 0.0, and NaN meets nothing.
    let pairs = agrees(Some("l.f = r.f"), false).unwrap();
    assert!(pairs.contains(&"0,0".to_string()) && pairs.contains(&"1,1".to_string()));
    assert!(!pairs.contains(&"2,2".to_string()));
}

/// A theta-only join and a cross product of more than one batch.
#[test]
fn unkeyed_joins_match_the_nested_loop() {
    assert!(!agrees(Some("l.x < r.y"), false).unwrap().is_empty());
    let cross = agrees(None, false).unwrap();
    assert_eq!(cross.len(), (L_ROWS * R_ROWS) as usize);
}

/// A conjunct that can raise keeps the join unkeyed, so the error a pair
/// the key would rule out raises is not lost: a zero divisor on a row whose
/// key matches nothing, and one on the rows whose key is NULL (where the
/// equality is unknown, not false, so the next conjunct is evaluated).
#[test]
fn errors_on_pairs_a_key_would_rule_out_still_raise() {
    assert_eq!(
        agrees(Some("l.x / r.y > 1 AND l.k = r.k"), false),
        Err("exec".into())
    );
    assert_eq!(
        agrees(Some("l.k = r.k AND l.x / r.z > 0"), false),
        Err("exec".into())
    );
}
