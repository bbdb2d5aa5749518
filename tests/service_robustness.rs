//! Robustness suite for the socket-backed query service (DESIGN.md §12):
//! protocol abuse (garbage/truncated/oversized frames), client disconnects
//! mid-result-stream, server error propagation, admission backpressure,
//! plan-cache invalidation on UDF re-registration, graceful shutdown,
//! connection-storm and high-connection soaks, and scheduler fairness
//! under a flooding client. This file is the CI `service-soak` gate — it
//! runs in release mode on every push so connection/disconnect races get
//! real scheduler pressure.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use csq::prelude::*;
use csq_client::synthetic::ObjectUdf;
use csq_client::QueryResponse;
use csq_common::Blob;
use csq_core::service;
use csq_net::TcpConn;
use csq_storage::TableBuilder;

fn demo_db(rows: usize) -> Arc<Database> {
    let db = Database::new(NetworkSpec::lan());
    let mut b = TableBuilder::new("R")
        .column("Id", DataType::Int)
        .column("Grp", DataType::Int)
        .column("Obj", DataType::Blob);
    for i in 0..rows {
        b = b.row(vec![
            Value::Int(i as i64),
            Value::Int((i % 7) as i64),
            Value::Blob(Blob::synthetic(40, i as u64)),
        ]);
    }
    db.catalog().register(b.build().unwrap()).unwrap();
    db.register_udf(Arc::new(ObjectUdf::sized("Enrich", 16)))
        .unwrap();
    Arc::new(db)
}

fn small_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        max_sessions: 8,
        idle_timeout: Duration::from_millis(20),
        ..ServiceConfig::default()
    }
}

fn start(db: &Arc<Database>, config: ServiceConfig) -> ServiceHandle {
    service::start(db.clone(), config).expect("service must start on loopback")
}

const COUNT_SQL: &str = "SELECT count(*) FROM R R";
const FILTER_SQL: &str = "SELECT R.Id FROM R R WHERE R.Id > 10";

/// Retry a connect+query until the server has capacity again (admission
/// rejections surface as `limit` errors).
fn query_until_admitted(
    addr: SocketAddr,
    sql: &str,
    deadline: Duration,
) -> csq_client::RemoteResult {
    let start = Instant::now();
    loop {
        let attempt = ServiceConn::connect(addr).and_then(|mut c| {
            let out = c.query(sql);
            c.close();
            out
        });
        match attempt {
            Ok(r) => return r,
            Err(e) => {
                assert!(
                    start.elapsed() < deadline,
                    "query did not succeed before deadline; last error: {e}"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

#[test]
fn query_roundtrip_matches_in_process_engine() {
    let db = demo_db(100);
    let handle = start(&db, small_config());
    let mut conn = ServiceConn::connect(handle.local_addr()).unwrap();

    let served = conn.query(FILTER_SQL).unwrap();
    let local = db.execute(FILTER_SQL).unwrap();
    assert_eq!(served.rows, local.rows);
    assert_eq!(
        served.columns,
        local
            .schema
            .fields()
            .iter()
            .map(|f| f.display_name())
            .collect::<Vec<_>>()
    );

    // Second run of the same SQL is a plan-cache hit (no parse/optimize).
    let again = conn.query(FILTER_SQL).unwrap();
    assert!(again.plan_cache_hit, "repeat query must reuse the plan");
    assert_eq!(again.rows, served.rows);

    // Wire accounting is live on both sides of the socket.
    assert!(conn.stats().up_bytes() > 0 && conn.stats().down_bytes() > 0);
    assert!(handle.net_stats().up_bytes() > 0 && handle.net_stats().down_bytes() > 0);
    conn.close();
    handle.shutdown();
}

#[test]
fn udf_query_over_sockets_matches_in_process_engine() {
    // The full shipping pipeline (server → client-site UDF → server) runs
    // inside a session; its results must come back unchanged over TCP.
    let db = demo_db(60);
    let handle = start(&db, small_config());
    let sql = "SELECT R.Id, Enrich(R.Obj) FROM R R WHERE R.Id < 20";
    let served = query_until_admitted(handle.local_addr(), sql, Duration::from_secs(10));
    let local = db.execute(sql).unwrap();
    assert_eq!(served.rows, local.rows);
    assert!(!served.rows.is_empty());
    handle.shutdown();
}

#[test]
fn server_errors_propagate_with_kinds_and_session_survives() {
    let db = demo_db(30);
    let handle = start(&db, small_config());
    let mut conn = ServiceConn::connect(handle.local_addr()).unwrap();

    for (sql, expect_kind) in [
        ("SELEC nope", "parse"),
        ("SELECT M.Id FROM Missing M", "catalog"),
        ("SELECT R.Id FROM R R GROUP BY", "parse"),
    ] {
        let remote = conn.query(sql).unwrap_err();
        let local = db.execute(sql).unwrap_err();
        assert_eq!(remote.kind(), local.kind(), "kind mismatch for {sql}");
        assert_eq!(remote.kind(), expect_kind, "unexpected kind for {sql}");
        assert!(
            !conn.is_broken(),
            "query errors must not poison the session"
        );
    }
    // The same session keeps working after every failure.
    let ok = conn.query(COUNT_SQL).unwrap();
    assert_eq!(ok.rows[0].value(0), &Value::Int(30));
    assert_eq!(handle.stats().queries_failed.load(Ordering::Relaxed), 3);
    conn.close();
    handle.shutdown();
}

/// A statement that raises after its scan has handed on lane batches —
/// in the filter above it, or in the final projection once earlier batches
/// have been projected — answers with exactly one `Error` frame: no `Begin`,
/// no rows. The next statement's answer is the next frame on the socket.
#[test]
fn statement_failing_after_lane_batches_answers_one_error_frame() {
    let db = demo_db(5_000);
    let handle = start(&db, small_config());
    let conn = TcpConn::connect(handle.local_addr()).unwrap();
    let send = |sql: &str| {
        let request = csq_client::QueryRequest::Query {
            sql: sql.into(),
            deadline_ms: 0,
        };
        conn.send(&request.encode()).unwrap();
    };
    let recv = || {
        let csq_net::Frame::Payload(frame) = conn.recv().unwrap() else {
            panic!("expected a response frame");
        };
        QueryResponse::decode(&frame).unwrap()
    };
    for sql in [
        "SELECT R.Id FROM R R WHERE R.Id > 10 AND R.Grp / (R.Id - 4500) >= 0",
        "SELECT R.Grp / (R.Id - 4500) FROM R R WHERE R.Id > 10",
    ] {
        let local = db.execute(sql).unwrap_err();
        assert_eq!(local.message(), "division by zero");
        send(sql);
        match recv() {
            QueryResponse::Error { kind, message, .. } => {
                assert_eq!(
                    (kind.as_str(), message.as_str()),
                    (local.kind(), local.message())
                )
            }
            other => panic!("{sql}: expected one Error frame, got {other:?}"),
        }
        send(COUNT_SQL);
        assert!(matches!(recv(), QueryResponse::Begin { .. }));
        assert_eq!(
            recv(),
            QueryResponse::Rows(vec![Row::new(vec![Value::Int(5_000)])])
        );
        assert!(matches!(recv(), QueryResponse::End { rows: 1, .. }));
    }
    handle.shutdown();
}

#[test]
fn garbage_frame_gets_codec_error_and_other_sessions_continue() {
    let db = demo_db(30);
    let handle = start(&db, small_config());

    let raw = TcpConn::connect(handle.local_addr()).unwrap();
    raw.send(&[0x99, 0x42, 0x07]).unwrap();
    let csq_net::Frame::Payload(resp) = raw.recv().unwrap() else {
        panic!("expected an error response frame");
    };
    let QueryResponse::Error { kind, fatal, .. } = QueryResponse::decode(&resp).unwrap() else {
        panic!("expected an Error response");
    };
    assert_eq!(kind, "codec");
    assert!(fatal, "protocol faults close the session");

    // The process and other sessions are unaffected.
    let ok = query_until_admitted(handle.local_addr(), COUNT_SQL, Duration::from_secs(10));
    assert_eq!(ok.rows[0].value(0), &Value::Int(30));
    assert!(handle.stats().protocol_errors.load(Ordering::Relaxed) >= 1);
    handle.shutdown();
}

#[test]
fn truncated_frame_only_kills_its_own_session() {
    let db = demo_db(30);
    let handle = start(&db, small_config());

    {
        let mut raw = TcpStream::connect(handle.local_addr()).unwrap();
        raw.write_all(&100u32.to_le_bytes()).unwrap();
        raw.write_all(&[1, 2, 3]).unwrap();
        // Die mid-frame.
    }
    let ok = query_until_admitted(handle.local_addr(), COUNT_SQL, Duration::from_secs(10));
    assert_eq!(ok.rows[0].value(0), &Value::Int(30));
    handle.shutdown();
}

#[test]
fn oversized_frame_is_refused_before_allocation() {
    let db = demo_db(30);
    let handle = start(
        &db,
        ServiceConfig {
            max_frame: 4096,
            ..small_config()
        },
    );

    let mut raw = TcpStream::connect(handle.local_addr()).unwrap();
    // Claim a 1 GiB frame; the server must refuse from the header alone.
    raw.write_all(&(1u32 << 30).to_le_bytes()).unwrap();
    raw.flush().unwrap();
    let reader = TcpConn::new(raw.try_clone().unwrap()).unwrap();
    let csq_net::Frame::Payload(resp) = reader.recv().unwrap() else {
        panic!("expected an error response frame");
    };
    let QueryResponse::Error {
        kind,
        message,
        fatal,
        ..
    } = QueryResponse::decode(&resp).unwrap()
    else {
        panic!("expected an Error response");
    };
    assert_eq!(kind, "codec");
    assert!(fatal, "oversized frames close the session");
    assert!(message.contains("exceeds"), "{message}");

    let ok = query_until_admitted(handle.local_addr(), COUNT_SQL, Duration::from_secs(10));
    assert_eq!(ok.rows[0].value(0), &Value::Int(30));
    handle.shutdown();
}

#[test]
fn client_disconnect_mid_result_stream_is_isolated() {
    let db = demo_db(5_000);
    let handle = start(
        &db,
        ServiceConfig {
            chunk_rows: 64, // many frames per result: plenty of mid-stream window
            ..small_config()
        },
    );

    for _ in 0..3 {
        let conn = TcpConn::connect(handle.local_addr()).unwrap();
        conn.send(
            &csq_client::QueryRequest::Query {
                sql: "SELECT R.Id, R.Obj FROM R R".into(),
                deadline_ms: 0,
            }
            .encode(),
        )
        .unwrap();
        // Read just the Begin header, then vanish mid-stream.
        let csq_net::Frame::Payload(_) = conn.recv().unwrap() else {
            panic!("expected Begin frame");
        };
        conn.shutdown();
        drop(conn);
    }

    let ok = query_until_admitted(handle.local_addr(), COUNT_SQL, Duration::from_secs(10));
    assert_eq!(ok.rows[0].value(0), &Value::Int(5_000));
    handle.shutdown();
}

#[test]
fn admission_bound_rejects_with_limit_error_and_recovers() {
    let db = demo_db(20);
    let handle = start(
        &db,
        ServiceConfig {
            workers: 1,
            max_sessions: 2,
            idle_timeout: Duration::from_millis(20),
            ..ServiceConfig::default()
        },
    );

    // Fill the admission budget with two idle sessions (the first is
    // running on the lone worker, the second waits in the queue).
    let mut held1 = ServiceConn::connect(handle.local_addr()).unwrap();
    held1.query(COUNT_SQL).unwrap();
    let held2 = ServiceConn::connect(handle.local_addr()).unwrap();
    // Give the accept loop time to admit the second session.
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.stats().accepted.load(Ordering::Relaxed) < 2 {
        assert!(Instant::now() < deadline, "second session never admitted");
        std::thread::sleep(Duration::from_millis(5));
    }

    // The third connection must be refused, loudly and typed.
    let mut refused = ServiceConn::connect(handle.local_addr()).unwrap();
    let err = refused.query(COUNT_SQL).unwrap_err();
    assert_eq!(err.kind(), "limit");
    assert!(err.message().contains("capacity"), "{err}");
    assert!(
        refused.is_broken(),
        "a refused connection is closing server-side and must not be pooled/reused"
    );
    assert!(handle.stats().rejected.load(Ordering::Relaxed) >= 1);

    // Freeing a session restores capacity.
    held1.close();
    held2.close();
    let ok = query_until_admitted(handle.local_addr(), COUNT_SQL, Duration::from_secs(10));
    assert_eq!(ok.rows[0].value(0), &Value::Int(20));
    handle.shutdown();
}

/// Statistics are live, not memoized: every ad-hoc INSERT makes the pinned
/// plan stale, the re-plan reads the table's current profile, and the
/// prepared SELECT returns the rows inserted since — there is no cached
/// statistics object whose invalidation could be forgotten.
#[test]
fn prepared_select_sees_rows_from_interleaved_adhoc_inserts() {
    let db = demo_db(40);
    let handle = start(&db, small_config());
    let mut reader = ServiceConn::connect(handle.local_addr()).unwrap();
    let mut writer = ServiceConn::connect(handle.local_addr()).unwrap();

    let (stmt, _) = reader
        .prepare("SELECT R.Id FROM R R WHERE R.Id >= 1000")
        .unwrap();
    assert!(reader.execute(stmt).unwrap().rows.is_empty());

    for round in 1..=3usize {
        let id = 1000 + round;
        writer
            .query(&format!("INSERT INTO R VALUES ({id}, 0, NULL)"))
            .unwrap();
        let stale_before = db.plan_cache_stats().stale_replans;
        let got = reader.execute(stmt).unwrap();
        assert!(
            !got.plan_cache_hit,
            "round {round}: an INSERT stales the plan"
        );
        assert_eq!(db.plan_cache_stats().stale_replans, stale_before + 1);
        assert_eq!(got.rows.len(), round, "round {round}: new rows are visible");
        let explain = db.explain("SELECT R.Id FROM R R").unwrap();
        let est = format!("est. {}.0 rows", 40 + round);
        assert!(explain.contains(&est), "round {round}: {explain}");
    }
    assert!(reader.execute(stmt).unwrap().plan_cache_hit);

    reader.close();
    writer.close();
    handle.shutdown();
}

#[test]
fn plan_cache_invalidated_on_udf_reregistration() {
    let db = demo_db(40);
    let handle = start(&db, small_config());
    let sql = "SELECT R.Id, Enrich(R.Obj) FROM R R WHERE R.Id < 8";
    let mut conn = ServiceConn::connect(handle.local_addr()).unwrap();

    let (stmt, first_hit) = conn.prepare(sql).unwrap();
    assert!(!first_hit, "first prepare must plan");
    let before = conn.execute(stmt).unwrap();
    assert!(before.plan_cache_hit, "prepared execution reuses its plan");
    for r in &before.rows {
        assert_eq!(r.value(1).as_blob().unwrap().len(), 16);
    }

    // Roll out Enrich v2 (bigger results). The epoch bump must invalidate
    // the pinned plan: the next execution replans and sees v2.
    db.reregister_udf(Arc::new(ObjectUdf::sized("Enrich", 48)))
        .unwrap();
    let stale_before = db.plan_cache_stats().stale_replans;
    let after = conn.execute(stmt).unwrap();
    assert!(
        !after.plan_cache_hit,
        "stale plan must be replanned after UDF re-registration"
    );
    for r in &after.rows {
        assert_eq!(r.value(1).as_blob().unwrap().len(), 48);
    }
    assert!(db.plan_cache_stats().stale_replans > stale_before);

    // And the re-plan is itself cached again.
    let third = conn.execute(stmt).unwrap();
    assert!(third.plan_cache_hit);
    conn.close();
    handle.shutdown();
}

#[test]
fn prepared_statements_per_session_are_bounded() {
    // One session may pin at most a fixed number of prepared plans; past
    // that, Prepare answers a survivable `limit` error instead of letting
    // a leaky client grow server memory without bound.
    let db = demo_db(10);
    let handle = start(&db, small_config());
    let mut conn = ServiceConn::connect(handle.local_addr()).unwrap();
    let mut handles = Vec::new();
    let mut cap_err = None;
    for i in 0..2_000 {
        // Distinct SQL per statement so each prepare really pins a plan.
        match conn.prepare(&format!("SELECT R.Id FROM R R WHERE R.Id > {i}")) {
            Ok((h, _)) => handles.push(h),
            Err(e) => {
                cap_err = Some(e);
                break;
            }
        }
    }
    let err = cap_err.expect("the prepared-statement cap must trip");
    assert_eq!(err.kind(), "limit");
    assert!(
        handles.len() >= 64,
        "cap unexpectedly small: tripped at {}",
        handles.len()
    );
    assert!(
        !conn.is_broken(),
        "hitting the prepare cap must not poison the session"
    );
    // The session still serves queries and existing prepared statements.
    let ok = conn.query(COUNT_SQL).unwrap();
    assert_eq!(ok.rows[0].value(0), &Value::Int(10));
    let ok = conn.execute(handles[0]).unwrap();
    assert_eq!(ok.rows.len(), 9);
    // Releasing a pin (fire-and-forget CloseStmt) frees a slot: the next
    // prepare succeeds again on the same session.
    conn.close_statement(handles.pop().unwrap()).unwrap();
    conn.prepare(COUNT_SQL)
        .expect("a released slot must be reusable");
    conn.close();
    handle.shutdown();
}

#[test]
fn slowloris_partial_frame_cannot_pin_a_worker() {
    // A client that starts a frame and goes silent (socket held open) must
    // be timed out by the stall detector — other clients keep being
    // served, and shutdown does not hang.
    let db = demo_db(25);
    let handle = start(
        &db,
        ServiceConfig {
            workers: 1,
            max_sessions: 4,
            idle_timeout: Duration::from_millis(30),
            ..ServiceConfig::default()
        },
    );

    let mut slow = TcpStream::connect(handle.local_addr()).unwrap();
    slow.write_all(&128u32.to_le_bytes()).unwrap(); // frame never completed
    slow.flush().unwrap();

    // The stalled session never blocks anyone: the lone worker keeps
    // serving other clients while the stall clock runs.
    let ok = query_until_admitted(handle.local_addr(), COUNT_SQL, Duration::from_secs(10));
    assert_eq!(ok.rows[0].value(0), &Value::Int(25));
    // The scheduler cuts the stalled session off (asynchronously to the
    // query above, so wait for the counter rather than asserting it).
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().protocol_errors.load(Ordering::Relaxed) < 1 {
        assert!(Instant::now() < deadline, "stall detector never fired");
        std::thread::sleep(Duration::from_millis(10));
    }

    let begun = Instant::now();
    handle.shutdown();
    assert!(
        begun.elapsed() < Duration::from_secs(5),
        "shutdown must not hang on a stalled session"
    );
    drop(slow);
}

#[test]
fn client_that_stops_reading_cannot_pin_a_worker() {
    // The write-side slowloris: request a result far larger than the
    // loopback socket buffers, read nothing, and hold the socket open.
    // The session's sends must trip the write timeout, freeing the worker
    // for other clients and keeping shutdown prompt.
    let db = {
        let db = Database::new(NetworkSpec::lan());
        let mut b = TableBuilder::new("R")
            .column("Id", DataType::Int)
            .column("Obj", DataType::Blob);
        for i in 0..20_000 {
            b = b.row(vec![
                Value::Int(i as i64),
                Value::Blob(Blob::synthetic(600, i as u64)),
            ]);
        }
        db.catalog().register(b.build().unwrap()).unwrap();
        Arc::new(db)
    };
    let handle = start(
        &db,
        ServiceConfig {
            workers: 1, // the worker the unread stream would pin
            max_sessions: 4,
            idle_timeout: Duration::from_millis(30),
            write_timeout: Duration::from_millis(200),
            ..ServiceConfig::default()
        },
    );

    // ~12 MB result; we send the query and then never read a byte.
    let greedy = TcpConn::connect(handle.local_addr()).unwrap();
    greedy
        .send(
            &csq_client::QueryRequest::Query {
                sql: "SELECT R.Id, R.Obj FROM R R".into(),
                deadline_ms: 0,
            }
            .encode(),
        )
        .unwrap();

    let ok = query_until_admitted(
        handle.local_addr(),
        "SELECT count(*) FROM R R",
        Duration::from_secs(15),
    );
    assert_eq!(ok.rows[0].value(0), &Value::Int(20_000));

    let begun = Instant::now();
    handle.shutdown();
    assert!(
        begun.elapsed() < Duration::from_secs(5),
        "shutdown must not hang on a write-stalled session"
    );
    drop(greedy);
}

#[test]
fn graceful_shutdown_drains_and_stops_accepting() {
    let db = demo_db(20);
    let handle = start(&db, small_config());
    let addr = handle.local_addr();

    let mut conn = ServiceConn::connect(addr).unwrap();
    conn.query(COUNT_SQL).unwrap();

    // Shutdown with an idle session open: it must drain promptly (the
    // session notices on its idle tick) rather than hang the join.
    let begun = Instant::now();
    handle.shutdown();
    assert!(
        begun.elapsed() < Duration::from_secs(5),
        "shutdown must not hang on idle sessions"
    );

    // The idle session was told the server is going away (or the socket
    // closed under it); either way the next use fails.
    assert!(conn.query(COUNT_SQL).is_err());
    // And nothing is listening anymore.
    let post = ServiceConn::connect(addr).and_then(|mut c| c.query(COUNT_SQL));
    assert!(post.is_err(), "listener must be closed after shutdown");
}

#[test]
fn connection_pool_shares_few_connections_among_many_threads() {
    let db = demo_db(50);
    let handle = start(&db, small_config());
    let pool = Arc::new(ConnectionPool::new(handle.local_addr(), 2).unwrap());

    let threads: Vec<_> = (0..6)
        .map(|_| {
            let pool = pool.clone();
            std::thread::spawn(move || {
                for _ in 0..10 {
                    let mut conn = pool.get().unwrap();
                    let out = conn.query(COUNT_SQL).unwrap();
                    assert_eq!(out.rows[0].value(0), &Value::Int(50));
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    // At most two sessions ever existed for 60 queries.
    assert!(handle.stats().accepted.load(Ordering::Relaxed) <= 2);
    handle.shutdown();
}

#[test]
fn connection_storm_soak() {
    // The soak: many short-lived clients, some hostile, hammering a small
    // service. Every well-formed query must either succeed or be refused
    // with a typed `limit` error; the server must stay serviceable and
    // shut down cleanly afterwards.
    let db = demo_db(200);
    let handle = start(
        &db,
        ServiceConfig {
            workers: 4,
            max_sessions: 12,
            idle_timeout: Duration::from_millis(20),
            ..ServiceConfig::default()
        },
    );
    let addr = handle.local_addr();

    let threads: Vec<_> = (0..8)
        .map(|t| {
            std::thread::spawn(move || {
                let mut ok = 0u64;
                let mut refused = 0u64;
                for i in 0..25 {
                    if (t + i) % 5 == 0 {
                        // Hostile client: garbage or a mid-frame hangup.
                        if let Ok(mut raw) = TcpStream::connect(addr) {
                            if i % 2 == 0 {
                                let _ = raw.write_all(&9u32.to_le_bytes());
                                let _ = raw.write_all(&[0xAB; 9]);
                            } else {
                                let _ = raw.write_all(&64u32.to_le_bytes());
                                let _ = raw.write_all(&[0xCD; 5]);
                            }
                        }
                        continue;
                    }
                    let outcome = ServiceConn::connect(addr).and_then(|mut c| {
                        let sql = if i % 3 == 0 { COUNT_SQL } else { FILTER_SQL };
                        let out = c.query(sql);
                        c.close();
                        out
                    });
                    match outcome {
                        Ok(_) => ok += 1,
                        Err(e) if e.kind() == "limit" => refused += 1,
                        Err(e) => panic!("storm query failed unexpectedly: {e}"),
                    }
                }
                (ok, refused)
            })
        })
        .collect();

    let mut total_ok = 0;
    for t in threads {
        let (ok, _refused) = t.join().unwrap();
        total_ok += ok;
    }
    assert!(total_ok > 0, "the storm must land some queries");
    // The server is still healthy after the storm.
    let after = query_until_admitted(addr, COUNT_SQL, Duration::from_secs(10));
    assert_eq!(after.rows[0].value(0), &Value::Int(200));
    assert!(handle.stats().queries_ok.load(Ordering::Relaxed) >= total_ok);
    handle.shutdown();
}

#[test]
fn thousand_idle_connections_park_flat_and_shut_down_promptly() {
    // The high-connection soak: 1k idle connections must all be admitted
    // on a handful of workers (connections no longer pin workers), cost
    // ~one receive buffer each while parked (the RSS proxy), leave the
    // service fully responsive, and not hang shutdown.
    let db = demo_db(50);
    let handle = start(
        &db,
        ServiceConfig {
            workers: 4,
            max_sessions: 1200,
            ..ServiceConfig::default()
        },
    );
    let addr = handle.local_addr();

    let mut idle = Vec::with_capacity(1_000);
    let deadline = Instant::now() + Duration::from_secs(30);
    while idle.len() < 1_000 {
        match TcpStream::connect(addr) {
            Ok(s) => idle.push(s),
            Err(e) => {
                // Listener backlog overflow under the burst; give the
                // accept loop a beat and retry.
                assert!(Instant::now() < deadline, "connect storm stalled: {e}");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.stats().accepted.load(Ordering::Relaxed) < 1_000 {
        assert!(
            Instant::now() < deadline,
            "only {} of 1000 idle connections admitted",
            handle.stats().accepted.load(Ordering::Relaxed)
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        handle.stats().rejected.load(Ordering::Relaxed),
        0,
        "no idle connection may be refused below max_sessions"
    );
    let deadline = Instant::now() + Duration::from_secs(30);
    let sched = handle.scheduler_stats();
    while sched.parked_sessions.load(Ordering::Relaxed) < 1_000 {
        assert!(
            Instant::now() < deadline,
            "sessions never reached the scheduler"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Still fully serviceable through the parked crowd, and traffic does
    // not inflate the parked-session memory bill.
    for _ in 0..25 {
        let ok = query_until_admitted(addr, COUNT_SQL, Duration::from_secs(10));
        assert_eq!(ok.rows[0].value(0), &Value::Int(50));
    }
    let parked = sched.parked_sessions.load(Ordering::Relaxed);
    let bytes = sched.parked_buffer_bytes.load(Ordering::Relaxed);
    assert!(parked >= 1_000);
    assert!(
        bytes <= (parked + 1) * 32 * 1024,
        "parked memory not flat: {bytes} bytes across {parked} sessions"
    );

    let begun = Instant::now();
    handle.shutdown();
    assert!(
        begun.elapsed() < Duration::from_secs(5),
        "shutdown must not hang on 1k parked sessions"
    );
    drop(idle);
}

#[test]
fn fairness_under_storm_keeps_polite_clients_served() {
    // One flooding client issues back-to-back queries on a persistent
    // session while polite clients make occasional requests. Rotating
    // ready-session dispatch (at most one statement in flight per session)
    // must keep polite latency bounded — no starvation by the chatty one.
    let db = demo_db(100);
    let handle = start(
        &db,
        ServiceConfig {
            workers: 2,
            max_sessions: 16,
            ..ServiceConfig::default()
        },
    );
    let addr = handle.local_addr();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    let flooder = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut conn = ServiceConn::connect(addr).unwrap();
            let mut done = 0u64;
            while !stop.load(Ordering::Relaxed) {
                conn.query(FILTER_SQL).unwrap();
                done += 1;
            }
            conn.close();
            done
        })
    };

    let polite: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut conn = ServiceConn::connect(addr).unwrap();
                let mut worst = Duration::ZERO;
                for _ in 0..15 {
                    let begun = Instant::now();
                    let out = conn.query(COUNT_SQL).unwrap();
                    assert_eq!(out.rows[0].value(0), &Value::Int(100));
                    worst = worst.max(begun.elapsed());
                    std::thread::sleep(Duration::from_millis(5));
                }
                conn.close();
                worst
            })
        })
        .collect();

    let mut worst = Duration::ZERO;
    for t in polite {
        worst = worst.max(t.join().unwrap());
    }
    stop.store(true, Ordering::Relaxed);
    let flooded = flooder.join().unwrap();
    assert!(flooded > 0, "the flooder itself must make progress");
    assert!(
        worst < Duration::from_secs(2),
        "polite clients starved under the storm: worst latency {worst:?} \
         (flooder completed {flooded} queries)"
    );
    handle.shutdown();
}
