//! Differential oracle for sharded execution (DESIGN.md §13): the same
//! workload run through a [`Coordinator`] over 1/2/4 real TCP shard
//! services must be indistinguishable from a single-server engine — per
//! statement, the row multiset must match and failures must carry the same
//! error kind. Both shard-key choices are generated, so grouped
//! aggregation is exercised both with co-located groups (key = group
//! column: every group lives on one shard) and with scattered groups
//! (key = row id: every shard holds a partial state of every group, and
//! the coordinator's merge does real work).
//!
//! Deterministic tests below pin what the differential run cannot see:
//! the per-shard statements a plan sends are the fan-out its EXPLAIN
//! prints, the coordinator refuses the UDF registrations a single server
//! refuses, and a shard whose table disagrees with the coordinator's schema
//! fails typed, naming itself.
//!
//! A separate deterministic test kills one shard mid-workload behind a
//! `csq-net` fault injector and checks the §13 failure contract: the
//! gather returns a typed *retryable* error naming the shard (no hang),
//! the healthy shard keeps answering, and `replace_shard` restores full
//! service under a bumped plan epoch.
//!
//! Failing seeds persist under `proptest-regressions/` (vendored proptest
//! shim) and committed seeds replay on every `cargo test`.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use csq::prelude::*;
use csq_client::Backoff;
use csq_core::service;
use csq_core::{ScalarUdf, UdfSignature};
use csq_net::fault::{Fault, FaultInjector};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// One generated table row: (group, value, name selector).
type RowSpec = (i64, i64, u8);

fn arb_row() -> impl Strategy<Value = RowSpec> {
    (0i64..5, -20i64..20, any::<u8>())
}

/// One generated statement; the mix covers every coordinator strategy:
/// pushdown (with and without shard pruning), shard-partial aggregation,
/// plans lowered over gathered leaves (join, UDF), and failures.
#[derive(Debug, Clone)]
enum QuerySpec {
    /// Filter + projection: pushdown, every shard contacted.
    Filter { lo: i64 },
    /// Equality on the shard key: pushdown, pruned to one shard when the
    /// key is `Id`.
    Pinned { id: i64 },
    /// Grouped aggregation over every decomposable call, optionally with
    /// HAVING (finalized at the coordinator).
    Agg { having: Option<i64> },
    /// Ungrouped aggregation: one partial-state row per shard.
    Global,
    /// Self-join: lowered over one gathered leaf per alias, each fetched
    /// under its own predicates (`a.Val > lo` reaches only `a`'s shards).
    SelfJoin { lo: i64 },
    /// Client-site UDF: lowered over a gathered leaf (shards hold no UDF
    /// code).
    Udf { lo: i64 },
    /// Unknown column: fails at planning on both sides.
    BadColumn,
    /// Lexically broken SQL: fails at parse on both sides.
    BadSyntax,
}

impl QuerySpec {
    fn sql(&self) -> String {
        match self {
            QuerySpec::Filter { lo } => {
                format!("SELECT T.Id, T.Name FROM T T WHERE T.Val > {lo}")
            }
            QuerySpec::Pinned { id } => {
                format!("SELECT T.Grp, T.Val FROM T T WHERE T.Id = {id}")
            }
            QuerySpec::Agg { having: None } => {
                "SELECT T.Grp, COUNT(*), SUM(T.Val), MIN(T.Val), MAX(T.Val), AVG(T.Val) \
                 FROM T T GROUP BY T.Grp"
                    .into()
            }
            QuerySpec::Agg { having: Some(h) } => format!(
                "SELECT T.Grp, COUNT(*), SUM(T.Val) FROM T T GROUP BY T.Grp \
                 HAVING COUNT(*) > {h}"
            ),
            QuerySpec::Global => "SELECT COUNT(*), SUM(T.Val), AVG(T.Val) FROM T T".into(),
            QuerySpec::SelfJoin { lo } => {
                format!("SELECT a.Id, b.Name FROM T a, T b WHERE a.Id = b.Id AND a.Val > {lo}")
            }
            QuerySpec::Udf { lo } => {
                format!("SELECT T.Id, PlusTen(T.Val) FROM T T WHERE T.Id > {lo}")
            }
            QuerySpec::BadColumn => "SELECT T.Nope FROM T T".into(),
            QuerySpec::BadSyntax => "SELECT T.Id FROM T T WHERE".into(),
        }
    }
}

fn arb_query() -> impl Strategy<Value = QuerySpec> {
    prop_oneof![
        (-25i64..25).prop_map(|lo| QuerySpec::Filter { lo }),
        (0i64..40).prop_map(|id| QuerySpec::Pinned { id }),
        prop_oneof![Just(None), (0i64..4).prop_map(Some)]
            .prop_map(|having| QuerySpec::Agg { having }),
        prop_oneof![Just(None), (0i64..4).prop_map(Some)]
            .prop_map(|having| QuerySpec::Agg { having }),
        Just(QuerySpec::Global),
        (-25i64..25).prop_map(|lo| QuerySpec::SelfJoin { lo }),
        (-5i64..30).prop_map(|lo| QuerySpec::Udf { lo }),
        Just(QuerySpec::BadColumn),
        Just(QuerySpec::BadSyntax),
    ]
}

const CREATE: &str = "CREATE TABLE T (Id INT, Grp INT, Val INT, Name STR)";

/// The DML fed *identically* (as SQL text) to the single server and the
/// coordinator — both sides see the exact same statements.
fn insert_statements(rows: &[RowSpec]) -> Vec<String> {
    let names = ["alpha", "bee", "it's", "delta"];
    rows.chunks(7)
        .enumerate()
        .map(|(chunk, batch)| {
            let vals: Vec<String> = batch
                .iter()
                .enumerate()
                .map(|(j, (grp, val, name))| {
                    format!(
                        "({}, {grp}, {val}, '{}')",
                        (chunk * 7 + j) as i64,
                        names[(*name as usize) % names.len()].replace('\'', "''")
                    )
                })
                .collect();
            format!("INSERT INTO T VALUES {}", vals.join(", "))
        })
        .collect()
}

/// `PlusTen(INT) -> INT`: a trivially checkable client-site UDF.
struct PlusTen(UdfSignature);

impl PlusTen {
    fn new() -> PlusTen {
        PlusTen(UdfSignature::new(
            "PlusTen",
            vec![DataType::Int],
            DataType::Int,
        ))
    }
}

impl ScalarUdf for PlusTen {
    fn signature(&self) -> &UdfSignature {
        &self.0
    }

    fn invoke(&self, args: &[Value]) -> Result<Value> {
        Ok(Value::Int(args[0].as_i64()? + 10))
    }
}

/// What one statement produced, normalized for comparison: the row
/// multiset (display-rendered, sorted) or the error kind.
type Outcome = std::result::Result<Vec<String>, &'static str>;

fn outcome_of(r: Result<QueryResult>) -> Outcome {
    match r {
        Ok(result) => {
            let mut rows: Vec<String> = result.rows.iter().map(|r| format!("{r}")).collect();
            rows.sort();
            Ok(rows)
        }
        Err(e) => Err(e.kind()),
    }
}

/// Build the single-server reference from the same SQL the cluster gets.
fn reference_db(inserts: &[String]) -> Database {
    let db = Database::new(NetworkSpec::lan());
    db.execute(CREATE).expect("reference CREATE");
    for stmt in inserts {
        db.execute(stmt).expect("reference INSERT");
    }
    db.register_udf(Arc::new(PlusTen::new())).expect("udf");
    db
}

/// A live cluster: `n` TCP shard services plus a coordinator over them.
struct Cluster {
    dbs: Vec<Arc<Database>>,
    handles: Vec<ServiceHandle>,
    coord: Coordinator,
}

impl Cluster {
    fn start(n: usize, shard_key: &str, inserts: &[String]) -> Cluster {
        let mut dbs = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        for _ in 0..n {
            let db = Arc::new(Database::new(NetworkSpec::lan()));
            dbs.push(db.clone());
            let h = service::start(
                db,
                ServiceConfig {
                    workers: 2,
                    idle_timeout: Duration::from_millis(50),
                    ..ServiceConfig::default()
                },
            )
            .expect("shard service must start");
            addrs.push(h.local_addr());
            handles.push(h);
        }
        let coord =
            Coordinator::connect(&addrs, CoordinatorConfig::default()).expect("coordinator");
        coord
            .create_table(CREATE, shard_key)
            .expect("sharded CREATE");
        for stmt in inserts {
            coord.execute(stmt).expect("routed INSERT");
        }
        coord.register_udf(Arc::new(PlusTen::new())).expect("udf");
        Cluster {
            dbs,
            handles,
            coord,
        }
    }

    fn stop(self) {
        drop(self.coord);
        for h in self.handles {
            h.shutdown();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn sharded_queries_match_single_server(
        rows in prop::collection::vec(arb_row(), 0..60),
        specs in prop::collection::vec(arb_query(), 1..10),
        key_is_id in any::<bool>(),
    ) {
        let inserts = insert_statements(&rows);
        let reference = reference_db(&inserts);
        let queries: Vec<String> = specs.iter().map(QuerySpec::sql).collect();
        let want: Vec<Outcome> = queries
            .iter()
            .map(|q| outcome_of(reference.execute(q)))
            .collect();
        let shard_key = if key_is_id { "Id" } else { "Grp" };

        for n in SHARD_COUNTS {
            let cluster = Cluster::start(n, shard_key, &inserts);
            for (i, q) in queries.iter().enumerate() {
                let got = outcome_of(cluster.coord.execute(q));
                prop_assert_eq!(
                    &got,
                    &want[i],
                    "{} shards, key {}, query {} = {}",
                    n,
                    shard_key,
                    i,
                    q
                );
            }
            cluster.stop();
        }
    }
}

/// Deterministic fixture for the non-proptest checks below.
fn fixture_rows() -> Vec<RowSpec> {
    (0..40)
        .map(|i| (i % 5, (i * 7 % 41) - 20, i as u8))
        .collect()
}

#[test]
fn explain_shows_scatter_gather_and_pruning() {
    let inserts = insert_statements(&fixture_rows());
    let cluster = Cluster::start(4, "Id", &inserts);

    let agg = cluster
        .coord
        .explain("SELECT T.Grp, COUNT(*), AVG(T.Val) FROM T T GROUP BY T.Grp")
        .expect("explain agg");
    assert!(agg.contains("Scatter [4 shards"), "missing scatter: {agg}");
    assert!(
        agg.contains("Gather [merge]") || agg.contains("Gather [ordered]"),
        "missing gather: {agg}"
    );

    let pinned = cluster
        .coord
        .explain("SELECT T.Val FROM T T WHERE T.Id = 7")
        .expect("explain pinned");
    assert!(
        pinned.contains("3 pruned"),
        "shard-key equality must prune 3 of 4 shards: {pinned}"
    );

    // Second EXPLAIN of the same text is served by the coordinator plan
    // cache; a routed INSERT moves statistics and invalidates it.
    let hits0 = cluster
        .coord
        .stats()
        .plan_cache_hits
        .load(std::sync::atomic::Ordering::Relaxed);
    cluster
        .coord
        .explain("SELECT T.Val FROM T T WHERE T.Id = 7")
        .expect("explain again");
    let hits1 = cluster
        .coord
        .stats()
        .plan_cache_hits
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(hits1 > hits0, "repeated explain must hit the plan cache");

    // Every event that moves what a plan depends on moves the one plan
    // epoch.
    let coord = &cluster.coord;
    epoch_moves(coord, "create_table", || {
        coord
            .create_table("CREATE TABLE V (Id INT, Tag STR)", "Tag")
            .expect("sharded CREATE V");
    });
    epoch_moves(coord, "routed INSERT", || {
        coord
            .execute("INSERT INTO T VALUES (100, 1, 2, 'x'), (101, 2, 3, 'y')")
            .expect("routed INSERT");
    });
    epoch_moves(coord, "register_udf", || {
        coord
            .register_udf(plus_ten_named("PlusEleven"))
            .expect("udf")
    });
    epoch_moves(coord, "advertise_distinct", || {
        coord.advertise_distinct("T", "Grp", 5.0)
    });
    epoch_moves(coord, "replace_shard", || {
        coord
            .replace_shard(1, cluster.handles[1].local_addr())
            .expect("replace shard 1")
    });

    cluster.stop();
}

/// Run `event` between EXPLAINs of a statement the plan cache holds: the
/// next EXPLAIN must replan (`plan_cache_hits` unchanged), and the one after
/// it must hit.
fn epoch_moves(coord: &Coordinator, name: &str, event: impl FnOnce()) {
    const SQL: &str = "SELECT T.Val FROM T T WHERE T.Id = 7";
    let hits = || {
        coord
            .stats()
            .plan_cache_hits
            .load(std::sync::atomic::Ordering::Relaxed)
    };
    coord.explain(SQL).expect("explain");
    event();
    let before = hits();
    coord.explain(SQL).expect("explain after the event");
    assert_eq!(hits(), before, "{name}: the next explain must replan");
    coord.explain(SQL).expect("explain again");
    assert_eq!(hits(), before + 1, "{name}: the explain after must hit");
}

/// A multi-row INSERT that one shard refuses still counted its rows into
/// the coordinator's statistics (the other shard stored its share), so it
/// moves the plan epoch as well: the next EXPLAIN replans, and its estimate
/// counts the rows.
#[test]
fn a_failed_routed_insert_leaves_no_stale_plan() {
    let inserts = insert_statements(&fixture_rows());
    let cluster = Cluster::start(2, "Id", &inserts);
    let coord = &cluster.coord;
    let hits = || {
        coord
            .stats()
            .plan_cache_hits
            .load(std::sync::atomic::Ordering::Relaxed)
    };
    let sql = "SELECT T.Id FROM T T";
    let injector = FaultInjector::start(cluster.handles[1].local_addr(), vec![Fault::Refuse; 64])
        .expect("fault injector");
    coord
        .replace_shard(1, injector.local_addr())
        .expect("replace with injector");
    let cached = coord.explain(sql).expect("explain");
    assert!(cached.contains("est. 40.0 rows"), "{cached}");
    assert_eq!(coord.explain(sql).expect("explain again"), cached);

    let rows: Vec<String> = (100..120).map(|i| format!("({i}, 0, 0, 'x')")).collect();
    let insert = format!("INSERT INTO T VALUES {}", rows.join(", "));
    let err = coord.execute(&insert).expect_err("shard 1 refuses");
    assert!(err.message().contains("shard 1"), "{}", err.message());

    let before = hits();
    let replanned = coord.explain(sql).expect("explain after the failed insert");
    assert_eq!(hits(), before, "the failed insert must invalidate the plan");
    assert!(replanned.contains("est. 60.0 rows"), "{replanned}");

    injector.shutdown();
    cluster.stop();
}

/// `route_insert` evaluates an INSERT's value expressions once and ships the
/// routed rows to the shards as typed values. `i64::MIN` has no literal the
/// lexer reads (`-9223372036854775808` is a minus sign and a magnitude no i64
/// holds), so the statement spells it as an expression: what one server
/// stores, the cluster stores.
#[test]
fn routed_insert_stores_i64_min() {
    let inserts = ["INSERT INTO T VALUES (1, 0, -9223372036854775807 - 1, 'min')".to_string()];
    let reference = reference_db(&inserts);
    let cluster = Cluster::start(2, "Id", &inserts);
    let sql = "SELECT T.Val FROM T T WHERE T.Id = 1";
    let stored = cluster.coord.execute(sql).expect("sharded SELECT").rows;
    assert_eq!(stored, reference.execute(sql).expect("SELECT").rows);
    assert_eq!(stored[0].value(0), &Value::Int(i64::MIN));
    cluster.stop();
}

const CREATE_E: &str = "CREATE TABLE E (Id INT, I INT, F FLOAT, S STR)";

/// One server and a 2-shard cluster, sharded on `key`, each holding rows at
/// the edges of every column type. Some have no SQL literal: `1e308 * 10.0`
/// evaluates to infinity, which reaches a shard only as a typed value.
fn edge_tables(key: &str) -> (Database, Cluster) {
    let big = format!("1{}.0", "0".repeat(308));
    let inserts = [
        format!("INSERT INTO E VALUES (0, -9223372036854775807 - 1, {big} * 10.0, 'it''s')"),
        format!("INSERT INTO E VALUES (1, 9223372036854775807, -({big} * 10.0), '')"),
        "INSERT INTO E VALUES (2, NULL, -0.0, 'line\nbreak\r\n\ttab'), (3, 0, NULL, NULL), \
         (4, -1, 0.0, 'naïve Ünïcödé 数据库 🦀'), \
         (5, 7, 2.5, 'back\\slash \"quoted\" -- ''x''')"
            .to_string(),
        // An INT into the FLOAT column is stored as the FLOAT it widens to.
        "INSERT INTO E VALUES (6, 2, 2, 'int in float')".to_string(),
    ];
    let reference = Database::new(NetworkSpec::lan());
    reference.execute(CREATE_E).expect("reference CREATE");
    for stmt in &inserts {
        reference.execute(stmt).expect("reference INSERT");
    }
    let cluster = Cluster::start(2, "Id", &[]);
    cluster
        .coord
        .create_table(CREATE_E, key)
        .expect("sharded CREATE");
    for stmt in &inserts {
        if let Err(e) = cluster.coord.execute(stmt) {
            panic!("key {key}: routed {stmt}: {e}");
        }
    }
    (reference, cluster)
}

/// Values at the edges of every column type, routed through the
/// coordinator: the cluster stores exactly what one server stores, compared
/// by `Value` equality (a float by its bit pattern), under each choice of
/// shard key.
#[test]
fn routed_insert_stores_what_one_server_stores() {
    let by_id = |mut rows: Vec<Row>| {
        rows.sort_by_key(|r| r.value(0).as_i64().expect("Id is an INT"));
        rows
    };
    let sql = "SELECT * FROM E E";
    for key in ["Id", "F", "S"] {
        let (reference, cluster) = edge_tables(key);
        let want = by_id(reference.execute(sql).expect("reference SELECT").rows);
        assert_eq!(want.len(), 7);
        assert_eq!(want[0].value(2), &Value::Float(f64::INFINITY));
        assert_eq!(want[1].value(2), &Value::Float(f64::NEG_INFINITY));
        assert_eq!(want[2].value(2), &Value::Float(-0.0));
        assert_eq!(want[6].value(2), &Value::Float(2.0));
        let got = by_id(cluster.coord.execute(sql).expect("sharded SELECT").rows);
        assert_eq!(got, want, "key {key}");
        cluster.stop();
    }
}

/// A conjunct's literal reaches the shards as a value, so one with no SQL
/// literal of its own — `1e309` reads as infinity — filters the cluster's
/// rows as it filters one server's: in a filter on one table and in a
/// self-join's leaves, under each choice of shard key.
#[test]
fn non_finite_literals_reach_a_shard_as_values() {
    let statements = [
        "SELECT count(*) FROM E E WHERE E.F < 1e309",
        "SELECT count(*) FROM E a, E b WHERE a.Id = b.Id AND a.F < 1e309",
        "SELECT count(*) FROM E E WHERE E.F > -1e309",
    ];
    for key in ["Id", "F", "S"] {
        let (reference, cluster) = edge_tables(key);
        for sql in statements {
            let want = outcome_of(reference.execute(sql));
            assert!(want.is_ok(), "{sql}: {want:?}");
            assert_eq!(
                outcome_of(cluster.coord.execute(sql)),
                want,
                "key {key}: {sql}"
            );
        }
        cluster.stop();
    }
}

#[test]
fn killed_shard_fails_typed_and_replace_restores_service() {
    let inserts = insert_statements(&fixture_rows());
    let mut handles = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..2 {
        let db = Arc::new(Database::new(NetworkSpec::lan()));
        let h = service::start(db, ServiceConfig::default()).expect("shard service");
        addrs.push(h.local_addr());
        handles.push(h);
    }
    let config = CoordinatorConfig {
        shard_options: QueryOptions::new()
            .with_deadline(Duration::from_secs(5))
            .with_retry(RetryPolicy {
                max_attempts: 2,
                backoff: Backoff::new(Duration::from_millis(1), Duration::from_millis(4), 42),
            }),
        ..CoordinatorConfig::default()
    };
    let coord = Coordinator::connect(&addrs, config).expect("coordinator");
    coord.create_table(CREATE, "Id").expect("create");
    for stmt in &inserts {
        coord.execute(stmt).expect("insert");
    }
    let full = "SELECT T.Grp, COUNT(*) FROM T T GROUP BY T.Grp";
    let baseline = coord.execute(full).expect("healthy gather");

    // Kill shard 1: route it through an injector that refuses every
    // connection. The fan-out must return a typed retryable error naming
    // the shard — not hang the gather.
    let injector = FaultInjector::start(addrs[1], vec![Fault::Refuse; 64]).expect("fault injector");
    let epoch0 = coord.plan_epoch();
    coord
        .replace_shard(1, injector.local_addr())
        .expect("replace with injector");
    let err = coord.execute(full).expect_err("dead shard must error");
    assert!(
        err.retryable(),
        "shard death must classify as retryable, got {:?}: {}",
        err.kind(),
        err.message()
    );
    assert!(
        err.message().contains("shard 1"),
        "error must name the failed shard: {}",
        err.message()
    );

    // Pruned statements pinned to the healthy shard keep working.
    let healthy0 = coord
        .execute("SELECT T.Val FROM T T WHERE T.Id = 0")
        .map(|r| r.rows.len());
    let healthy1 = coord
        .execute("SELECT T.Val FROM T T WHERE T.Id = 1")
        .map(|r| r.rows.len());
    assert!(
        healthy0.is_ok() || healthy1.is_ok(),
        "at least one pinned key must route to the live shard"
    );

    // Failover: point shard 1 back at the real service; the plan epoch
    // must have moved (stale plans replan) and the gather must be whole.
    coord.replace_shard(1, addrs[1]).expect("replace back");
    assert!(coord.plan_epoch() >= epoch0 + 2, "epoch must bump per swap");
    let restored = coord.execute(full).expect("restored gather");
    let norm = |r: &QueryResult| {
        let mut v: Vec<String> = r.rows.iter().map(|row| format!("{row}")).collect();
        v.sort();
        v
    };
    assert_eq!(norm(&restored), norm(&baseline));
    assert!(
        coord
            .stats()
            .shard_failures
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0
    );

    injector.shutdown();
    for h in handles {
        h.shutdown();
    }
}

/// `name(INT) -> INT`, adding ten: `PlusTen` under another name.
fn plus_ten_named(name: &str) -> Arc<dyn ScalarUdf> {
    Arc::new(PlusTen(UdfSignature::new(
        name,
        vec![DataType::Int],
        DataType::Int,
    )))
}

/// The coordinator registers a UDF through the same path a single server
/// does: a duplicate name and a name colliding with an SQL aggregate are
/// refused up front with the kinds `Database` gives, and neither refusal
/// leaves anything behind that later statements trip over.
#[test]
fn coordinator_refuses_the_udfs_a_database_refuses() {
    let inserts = insert_statements(&fixture_rows());
    let reference = reference_db(&inserts);
    let cluster = Cluster::start(2, "Id", &inserts);
    for name in ["PlusTen", "Sum"] {
        let want = reference
            .register_udf(plus_ten_named(name))
            .expect_err("a database refuses it")
            .kind();
        let got = cluster.coord.register_udf(plus_ten_named(name));
        assert_eq!(
            got.map_err(|e| e.kind()),
            Err(want),
            "registering '{name}' twice or over an aggregate"
        );
    }
    for sql in [
        "SELECT a.Id, b.Val FROM T a, T b WHERE a.Id = b.Id",
        "SELECT T.Id, PlusTen(T.Val) FROM T T WHERE T.Id > 3",
    ] {
        assert_eq!(
            outcome_of(cluster.coord.execute(sql)),
            outcome_of(reference.execute(sql)),
            "{sql}"
        );
    }
    cluster.stop();
}

/// `(statements, pruned)` summed over EXPLAIN's `Scatter [n shards, k
/// pruned]` lines: each scatter sends `n - k` statements and skips `k`.
fn promised_fan_out(explain: &str) -> (u64, u64) {
    let mut total = (0, 0);
    for line in explain.lines() {
        let Some(rest) = line.trim().strip_prefix("Scatter [") else {
            continue;
        };
        let nums: Vec<u64> = rest
            .split(|c: char| !c.is_ascii_digit())
            .filter(|w| !w.is_empty())
            .map(|w| w.parse().expect("a count"))
            .collect();
        let [n, k] = nums[..] else {
            panic!("unreadable scatter line: {line}");
        };
        total.0 += n - k;
        total.1 += k;
    }
    total
}

/// Every coordinator shape on 4 shards: the rows equal a single server's,
/// and the per-shard statements sent and shards pruned are the ones the
/// statement's EXPLAIN prints.
#[test]
fn fan_out_is_what_explain_promises() {
    const CREATE_U: &str = "CREATE TABLE U (Grp INT, Label STR)";
    let rows = fixture_rows();
    let mut inserts = insert_statements(&rows);
    inserts.push("INSERT INTO U VALUES (0, 'zero'), (1, 'one'), (2, 'two'), (3, 'three')".into());
    let reference = reference_db(&[]);
    reference.execute(CREATE_U).expect("reference CREATE U");
    for stmt in &inserts {
        reference.execute(stmt).expect("reference INSERT");
    }
    let cluster = Cluster::start(4, "Id", &[]);
    let coord = &cluster.coord;
    // `U` is sharded on another key than `T`, so a join of the two cannot
    // be co-located.
    coord
        .create_table(CREATE_U, "Grp")
        .expect("sharded CREATE U");
    for stmt in &inserts {
        coord.execute(stmt).expect("routed INSERT");
    }
    // As many distinct ids as rows: grouping by `Id` reduces nothing per
    // shard, so the optimizer aggregates client-only.
    coord.advertise_distinct("T", "Id", rows.len() as f64);

    let statements = [
        (
            "SELECT T.Id, T.Name FROM T T WHERE T.Val > 0",
            "Gather [ordered]",
        ),
        ("SELECT T.Grp, T.Val FROM T T WHERE T.Id = 7", "3 pruned"),
        (
            "SELECT T.Grp, COUNT(*), SUM(T.Val) FROM T T GROUP BY T.Grp HAVING COUNT(*) > 7",
            "Aggregate [shard-partial]",
        ),
        (
            "SELECT T.Id, COUNT(*) FROM T T GROUP BY T.Id",
            "Aggregate [client-only]",
        ),
        // An alias other than the table name: the leaf's pushed conjunct
        // must be qualified the way its `FROM` names the table.
        (
            "SELECT a.Id, COUNT(*) FROM T a WHERE a.Val > 0 GROUP BY a.Id",
            "Aggregate [client-only]",
        ),
        (
            "SELECT T.Id, PlusTen(T.Val) FROM T T WHERE T.Val > 5",
            "ApplyUdf",
        ),
        (
            "SELECT a.Id, b.Val FROM T a, T b WHERE a.Id = 7 AND a.Id = b.Id",
            "Join",
        ),
        (
            "SELECT T.Id, U.Label FROM T T, U U WHERE T.Grp = U.Grp AND U.Grp = 2",
            "Join",
        ),
    ];
    let count = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    for (sql, marker) in statements {
        let explain = coord.explain(sql).expect("explain");
        assert!(
            explain.contains(marker),
            "{sql}: no '{marker}' in\n{explain}"
        );
        let promised = promised_fan_out(&explain);
        let stats = coord.stats();
        let before = (count(&stats.shard_statements), count(&stats.shards_pruned));
        let got = outcome_of(coord.execute(sql));
        let sent = (
            count(&stats.shard_statements) - before.0,
            count(&stats.shards_pruned) - before.1,
        );
        assert_eq!(got, outcome_of(reference.execute(sql)), "{sql}");
        assert_eq!(
            sent, promised,
            "{sql}: (statements, pruned) sent vs EXPLAIN\n{explain}"
        );
    }
    cluster.stop();
}

/// A shard whose `T` disagrees with the coordinator's schema — it has a
/// column the coordinator's lacks, or the same-typed `Grp` and `Val` in the
/// other order: every statement that gathers `T`'s rows returns a typed
/// error naming that shard, and never rows.
#[test]
fn a_shard_that_disagrees_with_the_schema_fails_typed() {
    let impostors = [
        (
            "CREATE TABLE T (Id INT, Grp INT, Val INT, Name STR, Extra INT)",
            "INSERT INTO T VALUES (1, 0, 5, 'bee', 9), (3, 1, -4, 'alpha', 9)",
            [
                "SELECT a.Id, b.Name FROM T a, T b WHERE a.Id = b.Id",
                "SELECT T.Id, PlusTen(T.Val) FROM T T WHERE T.Id > 0",
                "SELECT * FROM T T",
            ],
        ),
        (
            "CREATE TABLE T (Id INT, Val INT, Grp INT, Name STR)",
            "INSERT INTO T VALUES (1, 200, 20, 'bee'), (3, -4, 1, 'alpha')",
            [
                "SELECT * FROM T T",
                "SELECT a.Id, b.Grp FROM T a, T b WHERE a.Id = b.Id",
                "SELECT T.Grp, COUNT(*), SUM(T.Val) FROM T T GROUP BY T.Grp",
            ],
        ),
    ];
    for (create, insert, statements) in impostors {
        let inserts = insert_statements(&fixture_rows());
        let cluster = Cluster::start(2, "Id", &inserts);
        let impostor = Arc::new(Database::new(NetworkSpec::lan()));
        impostor.execute(create).expect("impostor CREATE");
        impostor.execute(insert).expect("impostor INSERT");
        let handle = service::start(impostor, ServiceConfig::default()).expect("impostor service");
        cluster
            .coord
            .replace_shard(1, handle.local_addr())
            .expect("replace shard 1");
        for sql in statements {
            match cluster.coord.execute(sql) {
                Ok(r) => panic!("{sql}: {} rows from a mismatched shard", r.rows.len()),
                Err(e) => assert!(
                    e.kind() == "catalog" && e.message().contains("shard 1"),
                    "{sql}: the error must be a catalog error naming shard 1, got {}: {}",
                    e.kind(),
                    e.message()
                ),
            }
        }
        handle.shutdown();
        cluster.stop();
    }
}

/// No coordinator read reaches a shard as SQL: across a mix of every read
/// shape — a filter, a pinned lookup, an aggregate, a self-join and a UDF —
/// no shard parses or plans anything, so its plan cache sees no lookup.
#[test]
fn coordinator_reads_never_reach_a_shard_planner() {
    let inserts = insert_statements(&fixture_rows());
    let cluster = Cluster::start(2, "Id", &inserts);
    let lookups = || -> Vec<u64> {
        cluster
            .dbs
            .iter()
            .map(|db| {
                let s = db.plan_cache_stats();
                s.hits + s.misses
            })
            .collect()
    };
    let before = lookups();
    for spec in [
        QuerySpec::Filter { lo: 0 },
        QuerySpec::Pinned { id: 7 },
        QuerySpec::Agg { having: Some(2) },
        QuerySpec::Global,
        QuerySpec::SelfJoin { lo: -5 },
        QuerySpec::Udf { lo: 3 },
    ] {
        let sql = spec.sql();
        let rows = cluster.coord.execute(&sql).expect("sharded SELECT").rows;
        assert!(!rows.is_empty(), "{sql}");
    }
    assert_eq!(lookups(), before, "shard plan-cache lookups");
    cluster.stop();
}
