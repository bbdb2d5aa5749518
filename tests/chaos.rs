//! Chaos differential suite (DESIGN.md §10): the query service behind a
//! seeded, deterministic [`FaultInjector`] must degrade *typedly* — every
//! statement either returns the same rows the serial engine produces or a
//! typed error; never a hang, never a wrong answer — and clients with
//! retry/backoff must recover as soon as the committed fault schedule
//! clears. Also covers the deadline and out-of-band cancellation paths:
//! a timed-out or killed statement answers with `timeout`/`cancelled` and
//! frees its worker for the next statement.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use csq::prelude::*;
use csq_client::Backoff;
use csq_core::service;
use csq_net::{fault_schedule, Fault, FaultInjector};
use csq_storage::TableBuilder;

/// Committed chaos seeds: every run replays these exact fault schedules.
const CHAOS_SEEDS: [u64; 3] = [0xC0FF_EE00, 42, 0x5EED_CAFE];
const CLIENT_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn build_db(rows: usize) -> Arc<Database> {
    let db = Database::new(NetworkSpec::lan());
    let mut b = TableBuilder::new("T")
        .column("Id", DataType::Int)
        .column("Grp", DataType::Int)
        .column("Val", DataType::Int);
    for i in 0..rows {
        b = b.row(vec![
            Value::Int(i as i64),
            Value::Int((i % 7) as i64),
            Value::Int((i as i64 * 31) % 101 - 50),
        ]);
    }
    db.catalog().register(b.build().unwrap()).unwrap();
    Arc::new(db)
}

fn start_service(db: &Arc<Database>, config: ServiceConfig) -> service::ServiceHandle {
    service::start(db.clone(), config).expect("service must start")
}

fn normalize(rows: &[csq_common::Row]) -> Vec<String> {
    let mut out: Vec<String> = rows.iter().map(|r| format!("{r}")).collect();
    out.sort();
    out
}

/// A small deterministic workload; every statement is replay-safe SELECT.
fn workload() -> Vec<String> {
    vec![
        "SELECT T.Id, T.Val FROM T T WHERE T.Val > 0".into(),
        "SELECT T.Grp, count(*), sum(T.Val) FROM T T GROUP BY T.Grp".into(),
        "SELECT T.Id FROM T T WHERE T.Grp = 3".into(),
        "SELECT T.Grp, count(*) FROM T T GROUP BY T.Grp HAVING count(*) > 10".into(),
    ]
}

/// The capstone: seeded fault schedules at 1–8 clients. Every query either
/// matches the serial oracle or fails with a *typed* error; after the
/// schedule is exhausted (fault cleared) every client recovers.
#[test]
fn seeded_fault_schedules_yield_rows_or_typed_errors_and_recover() {
    let db = build_db(500);
    let queries = workload();
    let oracle: Vec<Vec<String>> = queries
        .iter()
        .map(|q| normalize(&db.execute(q).expect("oracle query must run").rows))
        .collect();

    for seed in CHAOS_SEEDS {
        for clients in CLIENT_COUNTS {
            let workers = clients.clamp(2, 4);
            let handle = start_service(
                &db,
                ServiceConfig {
                    workers,
                    max_sessions: 4 * clients + 8,
                    idle_timeout: Duration::from_millis(20),
                    // Statement-level shedding: once every worker is busy
                    // and two statements are already queued, further ones
                    // get a survivable retryable `limit` answer — chaos
                    // clients absorb it through their retry policy.
                    shed_queue_depth: 2,
                    ..ServiceConfig::default()
                },
            );
            let schedule = fault_schedule(seed ^ clients as u64, 12);
            let injector =
                FaultInjector::start(handle.local_addr(), schedule).expect("injector must start");
            // Connections no longer pin workers (the scheduler parks idle
            // sessions), so the pool can give every client thread its own
            // connection even above the worker count.
            let pool = Arc::new(
                ConnectionPool::new(injector.local_addr(), clients)
                    .expect("pool must build")
                    .with_checkout_wait(Duration::from_secs(10)),
            );

            let threads: Vec<_> = (0..clients)
                .map(|k| {
                    let pool = pool.clone();
                    let queries = queries.clone();
                    let oracle = oracle.clone();
                    std::thread::spawn(move || {
                        let opts = QueryOptions::new()
                            .with_deadline(Duration::from_secs(20))
                            .with_retry(RetryPolicy {
                                max_attempts: 6,
                                backoff: Backoff::new(
                                    Duration::from_millis(2),
                                    Duration::from_millis(50),
                                    seed ^ k as u64,
                                ),
                            });
                        for (i, sql) in queries.iter().enumerate() {
                            match pool.query_with(sql, &opts) {
                                // Rows: must match the serial oracle exactly.
                                Ok(result) => assert_eq!(
                                    normalize(&result.rows),
                                    oracle[i],
                                    "client {k} query {i} returned wrong rows under faults"
                                ),
                                // No rows: the error must be typed, i.e. one
                                // of the protocol's named kinds (the kinds
                                // a fault can legitimately surface as).
                                Err(e) => assert!(
                                    matches!(e.kind(), "net" | "codec" | "timeout" | "limit"),
                                    "client {k} query {i}: fault surfaced untyped: {e}"
                                ),
                            }
                        }
                    })
                })
                .collect();
            for t in threads {
                t.join().expect("no client may panic or hang");
            }

            // Fault cleared: the schedule is exhausted (later connections
            // are healthy passthrough), so every client recovers.
            let relaxed = QueryOptions::new()
                .with_deadline(Duration::from_secs(20))
                .with_retry(RetryPolicy {
                    max_attempts: 8,
                    backoff: Backoff::new(
                        Duration::from_millis(2),
                        Duration::from_millis(50),
                        seed,
                    ),
                });
            let result = pool
                .query_with(&queries[0], &relaxed)
                .expect("clients must recover once the fault schedule clears");
            assert_eq!(normalize(&result.rows), oracle[0]);

            drop(pool);
            injector.shutdown();
            handle.shutdown();
        }
    }
}

/// A statement whose deadline expires dies server-side with a typed
/// `timeout`, the session survives, and the service counts it.
#[test]
fn expired_deadline_answers_typed_timeout_and_keeps_the_session() {
    let db = build_db(4_000);
    let handle = start_service(&db, ServiceConfig::default());
    let mut conn = ServiceConn::connect(handle.local_addr()).expect("connect");

    // A quadratic self-join: long enough that a 1ms deadline always
    // expires at a cancellation checkpoint mid-execution.
    let heavy = "SELECT A.Id FROM T A, T B WHERE A.Val > B.Val";
    let err = conn
        .query_with(
            heavy,
            &QueryOptions::new().with_deadline(Duration::from_millis(1)),
        )
        .expect_err("1ms deadline must kill the self-join");
    assert_eq!(err.kind(), "timeout", "{err}");
    assert_eq!(
        conn.last_error_retryable(),
        Some(true),
        "a deadline kill is retryable by classification"
    );
    assert!(!conn.is_broken(), "timeout is a statement error, not fatal");

    // Same session keeps working afterwards.
    let quick = conn
        .query("SELECT T.Id FROM T T WHERE T.Id = 1")
        .expect("session must survive a timed-out statement");
    assert_eq!(quick.rows.len(), 1);
    assert!(
        handle
            .stats()
            .timed_out
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    conn.close();
    handle.shutdown();
}

/// The acceptance demo: an out-of-band `CancelQuery` kills a long-running
/// statement with a typed `cancelled` error, and the freed session worker
/// serves the next client.
#[test]
fn cancel_query_kills_the_statement_and_frees_the_worker() {
    let db = build_db(6_000);
    let handle = start_service(
        &db,
        ServiceConfig {
            // Cancels are handled by the scheduler, not a worker, so even
            // a fully busy pool stays cancellable; two workers just keep
            // the post-cancel probe query snappy.
            workers: 2,
            ..ServiceConfig::default()
        },
    );
    let addr = handle.local_addr();

    let mut victim = ServiceConn::connect(addr).expect("victim connects");
    let ticket = victim.session_info().expect("session ticket");

    let runner = std::thread::spawn(move || {
        // No deadline: only the out-of-band cancel can stop this.
        let err = victim
            .query("SELECT A.Id FROM T A, T B WHERE A.Val > B.Val")
            .expect_err("the cancel must kill this statement");
        let alive = !victim.is_broken();
        victim.close();
        (err, alive)
    });

    // Fire cancels until the statement dies (it may not have started yet;
    // a cancel that finds no running statement is a silent no-op).
    let mut canceller = ServiceConn::connect(addr).expect("canceller connects");
    let (err, session_alive) = loop {
        canceller.cancel_query(ticket).expect("cancel sends");
        std::thread::sleep(Duration::from_millis(20));
        if runner.is_finished() {
            break runner.join().expect("victim thread");
        }
    };
    assert_eq!(err.kind(), "cancelled", "{err}");
    assert!(session_alive, "cancellation must not poison the session");
    canceller.close();

    // The freed worker serves the next client promptly.
    let mut next = ServiceConn::connect(addr).expect("next client connects");
    let result = next
        .query("SELECT T.Id FROM T T WHERE T.Id = 0")
        .expect("freed worker must serve the next client");
    assert_eq!(result.rows.len(), 1);
    assert!(
        handle
            .stats()
            .cancelled
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    next.close();
    handle.shutdown();
}

/// Queue-depth load shedding refuses a *statement* with a **retryable**
/// `limit` error the session survives, while the hard admission bound
/// stays fatal and per-connection.
#[test]
fn load_shedding_refuses_retryably() {
    let db = build_db(4_000);
    let handle = start_service(
        &db,
        ServiceConfig {
            workers: 1,
            max_sessions: 16,
            shed_queue_depth: 0, // shed anything that would have to queue
            ..ServiceConfig::default()
        },
    );
    let addr = handle.local_addr();

    // Occupy the only worker with a long-running statement (bounded by its
    // own deadline, so the test cannot hang).
    let holder = std::thread::spawn(move || {
        let mut conn = ServiceConn::connect(addr).expect("holder connects");
        let heavy = "SELECT A.Id FROM T A, T B WHERE A.Val > B.Val";
        // Either outcome is fine — the statement only needs to *occupy*
        // the worker long enough for the shed below.
        let _ = conn.query_with(
            heavy,
            &QueryOptions::new().with_deadline(Duration::from_secs(3)),
        );
        conn.close();
    });
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while handle
        .scheduler_stats()
        .executing_statements
        .load(std::sync::atomic::Ordering::Relaxed)
        < 1
    {
        assert!(
            std::time::Instant::now() < deadline,
            "holder statement never reached a worker"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // A second client's statement is shed: typed limit error, explicitly
    // retryable, and the *session stays open* (statement-level shedding).
    let mut shed = ServiceConn::connect(addr).expect("shed client connects");
    let err = shed
        .query("SELECT T.Id FROM T T WHERE T.Id = 0")
        .expect_err("queue-depth shedding must refuse");
    assert_eq!(err.kind(), "limit", "{err}");
    assert_eq!(
        shed.last_error_retryable(),
        Some(true),
        "a shed refusal must tell the client to retry"
    );
    assert!(
        !shed.is_broken(),
        "shedding refuses the statement, not the connection"
    );
    assert!(
        handle
            .stats()
            .shed
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );

    // Once the holder's statement finishes, a retry on the *same shed
    // connection* gets through.
    holder.join().expect("holder thread");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let result = loop {
        match shed.query("SELECT T.Id FROM T T WHERE T.Id = 0") {
            Ok(r) => break r,
            Err(e) => {
                assert_eq!(e.kind(), "limit", "only shed refusals expected: {e}");
                assert!(
                    std::time::Instant::now() < deadline,
                    "shed client never got through after the holder left"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    };
    assert_eq!(result.rows.len(), 1);
    shed.close();
    handle.shutdown();
}

/// Transient connection-killing faults are absorbed by retry/backoff: the
/// client replays (zero rows were delivered) and lands the right answer.
#[test]
fn retry_with_backoff_rides_out_transient_faults() {
    let db = build_db(300);
    let handle = start_service(&db, ServiceConfig::default());
    let schedule = vec![Fault::DropAfter(0), Fault::Refuse, Fault::None];
    let injector = FaultInjector::start(handle.local_addr(), schedule).expect("injector");
    let pool = ConnectionPool::new(injector.local_addr(), 1).expect("pool");

    let oracle = normalize(&db.execute(&workload()[0]).unwrap().rows);
    let result = pool
        .query_with(
            &workload()[0],
            &QueryOptions::new()
                .with_deadline(Duration::from_secs(10))
                .with_retry(RetryPolicy {
                    max_attempts: 6,
                    backoff: Backoff::new(Duration::from_millis(2), Duration::from_millis(30), 11),
                }),
        )
        .expect("the third connection is healthy; retries must reach it");
    assert_eq!(normalize(&result.rows), oracle);
    assert!(
        injector.connections() >= 3,
        "success requires riding through both faulted connections"
    );
    injector.shutdown();
    handle.shutdown();
}

/// Retry for the write-contract tests: enough attempts that a replay would
/// happen if the rule allowed one.
fn retrying() -> QueryOptions {
    QueryOptions::new()
        .with_deadline(Duration::from_secs(10))
        .with_retry(RetryPolicy {
            max_attempts: 4,
            backoff: Backoff::new(Duration::from_millis(2), Duration::from_millis(30), 7),
        })
}

/// Rows of `T` with this `Id`, read straight from the table.
fn copies_of(db: &Database, id: i64) -> usize {
    db.execute(&format!("SELECT T.Id FROM T T WHERE T.Id = {id}"))
        .expect("count copies")
        .rows
        .len()
}

/// A typed insert whose answer is lost is not replayed. Over
/// `[DropAfter(0), None]` the first connection delivers the insert and
/// loses its reply; the retrying pool must not send the rows again on the
/// healthy second connection. The outcome is exactly one stored copy, or a
/// typed `indeterminate` error with at most one.
#[test]
fn typed_insert_is_not_replayed_after_its_reply_is_lost() {
    let db = build_db(0);
    let handle = start_service(&db, ServiceConfig::default());
    let schedule = vec![Fault::DropAfter(0), Fault::None];
    let injector = FaultInjector::start(handle.local_addr(), schedule).expect("injector");
    let pool = ConnectionPool::new(injector.local_addr(), 1).expect("pool");
    let row = |id: i64| Row::new(vec![Value::Int(id), Value::Int(0), Value::Int(0)]);

    match pool.insert_with("T", &[row(1)], &retrying()) {
        Ok(stored) => {
            assert_eq!(stored, 1);
            assert_eq!(
                copies_of(&db, 1),
                1,
                "a replayed write stored a second copy"
            );
        }
        Err(e) => {
            assert_eq!(e.kind(), "indeterminate", "{e}");
            assert!(
                copies_of(&db, 1) <= 1,
                "a replayed write stored a second copy"
            );
        }
    }
    // The healthy connection takes the next write.
    assert_eq!(pool.insert_with("T", &[row(2)], &retrying()), Ok(1));
    assert_eq!(copies_of(&db, 2), 1);
    injector.shutdown();
    handle.shutdown();
}

/// A typed insert the server refused with a retryable `Error` frame — here
/// a shed, sent before the rows reach a worker — provably did not apply, so
/// the pool replays it until it lands, exactly once.
#[test]
fn typed_insert_replays_after_a_retryable_refusal() {
    let db = build_db(4_000);
    let handle = start_service(
        &db,
        ServiceConfig {
            workers: 1,
            max_sessions: 16,
            shed_queue_depth: 0,
            ..ServiceConfig::default()
        },
    );
    let addr = handle.local_addr();
    // Occupy the only worker, bounded by its own deadline.
    let holder = std::thread::spawn(move || {
        let mut conn = ServiceConn::connect(addr).expect("holder connects");
        let _ = conn.query_with(
            "SELECT A.Id FROM T A, T B WHERE A.Val > B.Val",
            &QueryOptions::new().with_deadline(Duration::from_secs(1)),
        );
        conn.close();
    });
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while handle
        .scheduler_stats()
        .executing_statements
        .load(std::sync::atomic::Ordering::Relaxed)
        < 1
    {
        assert!(std::time::Instant::now() < deadline, "holder never ran");
        std::thread::sleep(Duration::from_millis(5));
    }
    let pool = ConnectionPool::new(addr, 1).expect("pool");
    let opts = QueryOptions::new()
        .with_deadline(Duration::from_secs(10))
        .with_retry(RetryPolicy {
            max_attempts: 200,
            backoff: Backoff::new(Duration::from_millis(5), Duration::from_millis(50), 3),
        });
    let id = 1_000_000;
    let row = Row::new(vec![Value::Int(id), Value::Int(0), Value::Int(0)]);
    assert_eq!(pool.insert_with("T", &[row], &opts), Ok(1));
    assert!(
        handle
            .stats()
            .shed
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    assert_eq!(copies_of(&db, id), 1);
    holder.join().expect("holder thread");
    handle.shutdown();
}

/// The same contract through a coordinator whose per-shard options retry:
/// shard 1's first connection loses the reply to its routed rows. Every
/// routed row is stored exactly once, or the INSERT fails typed, naming the
/// shard, with no row stored twice.
#[test]
fn routed_insert_is_not_replayed_after_a_shard_reply_is_lost() {
    let dbs: Vec<Arc<Database>> = (0..2)
        .map(|_| Arc::new(Database::new(NetworkSpec::lan())))
        .collect();
    let handles: Vec<_> = dbs
        .iter()
        .map(|db| start_service(db, ServiceConfig::default()))
        .collect();
    let addrs: Vec<_> = handles.iter().map(|h| h.local_addr()).collect();
    let coord = Coordinator::connect(
        &addrs,
        CoordinatorConfig {
            shard_options: retrying(),
            ..CoordinatorConfig::default()
        },
    )
    .expect("coordinator");
    coord
        .create_table("CREATE TABLE T (Id INT, Grp INT, Val INT)", "Id")
        .expect("sharded CREATE");
    let injector =
        FaultInjector::start(addrs[1], vec![Fault::DropAfter(0), Fault::None]).expect("injector");
    coord
        .replace_shard(1, injector.local_addr())
        .expect("route shard 1 through the injector");
    let values: Vec<String> = (0..16).map(|id| format!("({id}, 0, 0)")).collect();
    let outcome = coord.execute(&format!("INSERT INTO T VALUES {}", values.join(", ")));
    let stored: Vec<usize> = (0..16)
        .map(|id| dbs.iter().map(|db| copies_of(db, id)).sum())
        .collect();
    match outcome {
        Ok(r) => {
            assert_eq!(r.affected, 16);
            assert_eq!(stored, vec![1; 16], "copies per Id");
        }
        Err(e) => {
            assert_eq!(e.kind(), "indeterminate", "{e}");
            assert!(e.message().contains("shard 1"), "{e}");
            assert!(stored.iter().all(|&n| n <= 1), "copies per Id: {stored:?}");
        }
    }
    injector.shutdown();
    for h in handles {
        h.shutdown();
    }
}

/// Two shard services behind a coordinator under `config`, loaded by one
/// routed INSERT with `oracle`'s rows of `T`.
fn sharded(
    oracle: &Database,
    config: CoordinatorConfig,
) -> (Vec<Arc<Database>>, Vec<service::ServiceHandle>, Coordinator) {
    let dbs: Vec<Arc<Database>> = (0..2)
        .map(|_| Arc::new(Database::new(NetworkSpec::lan())))
        .collect();
    let handles: Vec<_> = dbs
        .iter()
        .map(|db| start_service(db, ServiceConfig::default()))
        .collect();
    let addrs: Vec<_> = handles.iter().map(|h| h.local_addr()).collect();
    let coord = Coordinator::connect(&addrs, config).expect("coordinator");
    coord
        .create_table("CREATE TABLE T (Id INT, Grp INT, Val INT)", "Id")
        .expect("sharded CREATE");
    let rows: Vec<String> = oracle
        .catalog()
        .get("T")
        .expect("oracle table")
        .snapshot()
        .iter()
        .map(|r| format!("({}, {}, {})", r.value(0), r.value(1), r.value(2)))
        .collect();
    coord
        .execute(&format!("INSERT INTO T VALUES {}", rows.join(", ")))
        .expect("routed INSERT");
    (dbs, handles, coord)
}

/// Route shard `idx` of `coord` through a new injector over `schedule`.
fn inject(
    coord: &Coordinator,
    handles: &[service::ServiceHandle],
    idx: usize,
    schedule: Vec<Fault>,
) -> FaultInjector {
    let injector = FaultInjector::start(handles[idx].local_addr(), schedule).expect("injector");
    coord
        .replace_shard(idx, injector.local_addr())
        .expect("route the shard through the injector");
    injector
}

/// Reads through a coordinator whose per-shard options retry: shard 1's
/// first connection loses the reply to a `Fetch`. A read changes nothing, so
/// the pool replays it on a fresh connection, and every statement — a
/// filter, a shard-partial aggregate and a self-join — returns the rows one
/// server returns.
#[test]
fn a_dropped_fetch_reply_is_retried_to_oracle_rows() {
    let oracle = build_db(200);
    let config = CoordinatorConfig {
        shard_options: retrying(),
        ..CoordinatorConfig::default()
    };
    let (_dbs, handles, coord) = sharded(&oracle, config);
    let injector = inject(&coord, &handles, 1, vec![Fault::DropAfter(0), Fault::None]);
    for sql in [
        "SELECT T.Id, T.Val FROM T T WHERE T.Val > 0",
        "SELECT T.Grp, count(*), sum(T.Val) FROM T T GROUP BY T.Grp",
        "SELECT a.Id, b.Grp FROM T a, T b WHERE a.Id = b.Id AND a.Val < 0",
    ] {
        let got = coord.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let want = oracle.execute(sql).expect("oracle query must run");
        assert_eq!(normalize(&got.rows), normalize(&want.rows), "{sql}");
    }
    assert!(
        injector.connections() >= 2,
        "the dropped reply must have been retried on a fresh connection"
    );
    injector.shutdown();
    for h in handles {
        h.shutdown();
    }
}

/// The scatter writes every shard its `Fetch` before it reads any reply,
/// on the calling thread, so two shards behind the same per-frame delay
/// answer in about the time one does: a scattered SELECT takes less than
/// 1.5× a statement pinned to one shard through the same proxies. A scatter
/// that read each shard before writing to the next would take twice as
/// long. Both statements match no row, so every reply is the same frames.
#[test]
fn scattered_replies_overlap_without_a_thread() {
    const DELAY_MS: u32 = 40;
    let (_dbs, handles, coord) = sharded(&build_db(200), CoordinatorConfig::default());
    let injectors: Vec<FaultInjector> = (0..2)
        .map(|i| inject(&coord, &handles, i, vec![Fault::DelayMs(DELAY_MS); 8]))
        .collect();
    let scattered = "SELECT T.Id FROM T T WHERE T.Val > 1000";
    let pinned = "SELECT T.Id FROM T T WHERE T.Id = 7 AND T.Val > 1000";
    assert!(coord
        .explain(scattered)
        .unwrap()
        .contains("Scatter [2 shards, 0 pruned]"));
    assert!(coord
        .explain(pinned)
        .unwrap()
        .contains("Scatter [2 shards, 1 pruned]"));
    let fastest = |sql: &str| {
        (0..3)
            .map(|_| {
                let start = Instant::now();
                assert!(coord.execute(sql).expect("statement").rows.is_empty());
                start.elapsed()
            })
            .min()
            .expect("three runs")
    };
    let (one, both) = (fastest(pinned), fastest(scattered));
    assert!(one >= Duration::from_millis(2 * DELAY_MS as u64), "{one:?}");
    assert!(
        both.as_secs_f64() < 1.5 * one.as_secs_f64(),
        "two shards took {both:?}, one took {one:?}: the replies did not overlap"
    );
    for injector in injectors {
        injector.shutdown();
    }
    for h in handles {
        h.shutdown();
    }
}

/// With shard 0 dead, a scattered SELECT fails with a typed retryable error
/// naming shard 0, and shard 1's reply is still read to its `End`: its one
/// pooled connection goes back in sync, so the statements pinned to shard 1
/// after it answer on the same session, and no new one is opened.
#[test]
fn a_dead_shard_leaves_its_sibling_in_sync() {
    let oracle = build_db(200);
    let config = CoordinatorConfig {
        pool_size: 1,
        ..CoordinatorConfig::default()
    };
    let (dbs, handles, coord) = sharded(&oracle, config);
    let dead = inject(&coord, &handles, 0, vec![Fault::Refuse; 16]);
    let live = inject(&coord, &handles, 1, Vec::new());
    let id = (0..200)
        .find(|&id| copies_of(&dbs[1], id) == 1)
        .expect("some row lives on shard 1");
    let pinned = format!("SELECT T.Id, T.Val FROM T T WHERE T.Id = {id}");
    let want = normalize(&oracle.execute(&pinned).expect("oracle").rows);
    let answer = || normalize(&coord.execute(&pinned).expect("pinned to shard 1").rows);
    assert_eq!(answer(), want);
    assert_eq!(live.connections(), 1);

    let failures = coord.stats().shard_failures.load(Ordering::Relaxed);
    let err = coord
        .execute("SELECT T.Id, T.Val FROM T T WHERE T.Val > 0")
        .expect_err("a dead shard fails the scatter");
    assert!(err.retryable(), "{err}");
    assert!(err.message().contains("shard 0"), "{err}");
    assert_eq!(
        coord.stats().shard_failures.load(Ordering::Relaxed),
        failures + 1
    );

    for _ in 0..2 {
        assert_eq!(answer(), want);
    }
    assert_eq!(live.connections(), 1, "shard 1 opened a new session");
    dead.shutdown();
    live.shutdown();
    for h in handles {
        h.shutdown();
    }
}

/// Shard 0's first `Fetch` reply is dropped under a retry policy. Every
/// first reply is read before any shard replays, so shard 0's replay dials
/// its fresh connection only after shard 1's slow reply (each frame
/// delayed) has been read; the rows equal the oracle's.
#[test]
fn a_failed_shard_replays_after_its_sibling_reply_is_read() {
    const DELAY_MS: u32 = 60;
    let oracle = build_db(200);
    let config = CoordinatorConfig {
        shard_options: retrying(),
        ..CoordinatorConfig::default()
    };
    let (_dbs, handles, coord) = sharded(&oracle, config);
    let flaky = inject(&coord, &handles, 0, vec![Fault::DropAfter(0), Fault::None]);
    let slow = inject(&coord, &handles, 1, vec![Fault::DelayMs(DELAY_MS); 8]);
    let sql = "SELECT T.Id, T.Val FROM T T WHERE T.Val > 0";
    let done = AtomicBool::new(false);
    let start = Instant::now();
    let (got, replayed_at) = std::thread::scope(|s| {
        let watcher = s.spawn(|| {
            while flaky.connections() < 2 && !done.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            start.elapsed()
        });
        let got = coord.execute(sql);
        done.store(true, Ordering::SeqCst);
        (got, watcher.join().expect("watcher"))
    });
    let got = got.expect("the dropped reply is replayed");
    let want = oracle.execute(sql).expect("oracle query must run");
    assert_eq!(normalize(&got.rows), normalize(&want.rows));
    assert_eq!(flaky.connections(), 2, "shard 0 replayed once");
    // Shard 1's reply is at least `Begin` and `End`, each delayed.
    assert!(
        replayed_at >= Duration::from_millis(2 * DELAY_MS as u64),
        "shard 0 replayed at {replayed_at:?}, before shard 1's reply was read"
    );
    flaky.shutdown();
    slow.shutdown();
    for h in handles {
        h.shutdown();
    }
}

/// `Slow(BLOB) -> INT`: the blob's length, after sleeping a millisecond.
struct Slow(csq_client::UdfSignature);

impl csq_client::ScalarUdf for Slow {
    fn signature(&self) -> &csq_client::UdfSignature {
        &self.0
    }

    fn invoke(&self, args: &[Value]) -> csq_common::Result<Value> {
        std::thread::sleep(Duration::from_millis(1));
        Ok(Value::Int(args[0].as_blob()?.len() as i64))
    }
}

/// A shipping statement is stopped by its deadline between two messages:
/// the operator checks the token before each one, with no client thread
/// of its own to poll it. The statement would call the slow UDF on 2 000
/// distinct 4 KiB blobs (≥ 2 s), 15 to a 64 KiB message; under a 50 ms
/// deadline it answers a typed `timeout` within 500 ms, and the worker it
/// freed serves the session's next statement.
#[test]
fn a_shipping_statement_times_out_between_messages() {
    let db = Database::new(NetworkSpec::lan());
    let mut b = TableBuilder::new("T")
        .column("Id", DataType::Int)
        .column("Arg", DataType::Blob);
    for i in 0..2_000u64 {
        b = b.row(vec![
            Value::Int(i as i64),
            Value::Blob(csq_common::Blob::synthetic(4_096, i)),
        ]);
    }
    db.catalog().register(b.build().unwrap()).unwrap();
    let sig = csq_client::UdfSignature::new("Slow", vec![DataType::Blob], DataType::Int);
    db.register_udf(Arc::new(Slow(sig))).unwrap();
    let sql = "SELECT T.Id FROM T T WHERE Slow(T.Arg) > 0";
    let plan = db.explain(sql).unwrap();
    assert!(
        plan.contains("ApplyUdf Slow(T.Arg) [semi-join, 15/msg"),
        "{plan}"
    );
    let handle = start_service(&Arc::new(db), ServiceConfig::default());
    let mut conn = ServiceConn::connect(handle.local_addr()).expect("connect");
    let started = std::time::Instant::now();
    let err = conn
        .query_with(
            sql,
            &QueryOptions::new().with_deadline(Duration::from_millis(50)),
        )
        .expect_err("a 50 ms deadline must stop 2 s of UDF calls");
    let took = started.elapsed();
    assert_eq!(err.kind(), "timeout", "{err}");
    assert!(took < Duration::from_millis(500), "took {took:?}");
    assert!(!conn.is_broken(), "the server answered the timeout itself");
    let quick = conn
        .query("SELECT T.Id FROM T T WHERE T.Id = 1")
        .expect("the worker is free for the next statement");
    assert_eq!(quick.rows.len(), 1);
    conn.close();
    handle.shutdown();
}
