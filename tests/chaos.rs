//! Chaos differential suite (DESIGN.md §10): the query service behind a
//! seeded, deterministic [`FaultInjector`] must degrade *typedly* — every
//! statement either returns the same rows the serial engine produces or a
//! typed error; never a hang, never a wrong answer — and clients with
//! retry/backoff must recover as soon as the committed fault schedule
//! clears. Also covers the deadline and out-of-band cancellation paths:
//! a timed-out or killed statement answers with `timeout`/`cancelled` and
//! frees its worker for the next statement.

use std::sync::Arc;
use std::time::Duration;

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
