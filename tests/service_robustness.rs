//! Robustness suite for the socket-backed query service (DESIGN.md §12):
//! protocol abuse (garbage/truncated/oversized frames), client disconnects
//! mid-result-stream, server error propagation, admission backpressure,
//! plan-cache invalidation on UDF re-registration, graceful shutdown,
//! connection-storm and high-connection soaks, and scheduler fairness
//! under a flooding client. This file is the CI `service-soak` gate — it
//! runs in release mode on every push so connection/disconnect races get
//! real scheduler pressure.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use csq::prelude::*;
use csq_client::synthetic::ObjectUdf;
use csq_client::{QueryRequest, QueryResponse};
use csq_common::Blob;
use csq_common::{Field, RowBatch};
use csq_core::service;
use csq_expr::{AggFunc, AggSpec, BinaryOp, PhysExpr, UnaryOp};
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

/// A client-site UDF whose every call panics.
struct PanickingUdf(csq::UdfSignature);

impl csq::ScalarUdf for PanickingUdf {
    fn signature(&self) -> &csq::UdfSignature {
        &self.0
    }

    fn invoke(&self, _: &[Value]) -> Result<Value> {
        panic!("client-site UDF panics")
    }
}

/// A statement whose UDF panics answers exactly one typed `exec` `Error`
/// frame, counted as a panic and a failure; the panic costs neither the
/// session nor the one worker, which answers the same connection's next
/// statement as its next frame.
#[test]
fn a_panicking_statement_answers_one_exec_error_and_the_worker_lives_on() {
    let db = demo_db(20);
    let sig = csq::UdfSignature::new("Boom", vec![DataType::Blob], DataType::Blob);
    db.register_udf(Arc::new(PanickingUdf(sig))).unwrap();
    let config = ServiceConfig {
        workers: 1,
        ..small_config()
    };
    let handle = start(&db, config);
    let stats = handle.stats().clone();
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
    send("SELECT Boom(R.Obj) FROM R R WHERE R.Id < 5");
    match recv() {
        QueryResponse::Error { kind, fatal, .. } => {
            assert_eq!((kind.as_str(), fatal), ("exec", false))
        }
        other => panic!("expected one Error frame, got {other:?}"),
    }
    assert_eq!(stats.panics.load(Ordering::Relaxed), 1);
    assert_eq!(stats.queries_failed.load(Ordering::Relaxed), 1);
    send(COUNT_SQL);
    assert!(matches!(recv(), QueryResponse::Begin { .. }));
    assert_eq!(
        recv(),
        QueryResponse::Rows(vec![Row::new(vec![Value::Int(20)])])
    );
    assert!(matches!(recv(), QueryResponse::End { rows: 1, .. }));
    assert_eq!(stats.panics.load(Ordering::Relaxed), 1);
    assert_eq!(stats.queries_ok.load(Ordering::Relaxed), 1);
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

/// One answer leaves the server in one write, but the bytes on the wire are
/// still its frames in order — `Begin`, the `Rows` chunks
/// `encode_rows_frames` cuts, `End` — and both ends count them per frame,
/// as they did when each frame was its own send.
#[test]
fn an_answer_is_its_frames_in_order_and_counted_frame_by_frame() {
    const SQL: &str = "SELECT R.Id FROM R R WHERE R.Id < 5";
    let db = demo_db(20);
    let config = ServiceConfig {
        chunk_rows: 2,
        ..small_config()
    };
    let handle = start(&db, config);
    let framed = |payload: &[u8]| {
        let mut out = (payload.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(payload);
        out
    };
    let request = QueryRequest::Query {
        sql: SQL.into(),
        deadline_ms: 0,
    }
    .encode();

    // Read the first answer off a raw socket: five frames, then silence.
    let mut raw = TcpStream::connect(handle.local_addr()).unwrap();
    raw.write_all(&framed(&request)).unwrap();
    let mut got = Vec::new();
    for _ in 0..5 {
        let mut header = [0u8; 4];
        raw.read_exact(&mut header).unwrap();
        let mut payload = vec![0u8; u32::from_le_bytes(header) as usize];
        raw.read_exact(&mut payload).unwrap();
        got.extend(framed(&payload));
    }
    raw.set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    assert!(
        raw.read(&mut [0u8; 1]).is_err(),
        "nothing follows the End frame"
    );

    // Those bytes are exactly the frames the rows make.
    let local = db.execute(SQL).unwrap();
    assert_eq!(local.rows.len(), 5);
    let batch = RowBatch::from_rows(Arc::new(local.schema.clone()), local.rows.clone());
    let columns = local.schema.fields().iter().map(|f| f.display_name());
    let mut frames = vec![QueryResponse::Begin {
        columns: columns.collect(),
    }
    .encode()];
    frames.extend(QueryResponse::encode_rows_frames(&[batch], 2));
    let end = QueryResponse::End {
        rows: 5,
        affected: 0,
        plan_cache_hit: false,
    };
    frames.push(end.encode());
    assert_eq!(frames.len(), 5, "Begin, Rows of 2, 2 and 1 rows, End");
    let expect: Vec<u8> = frames.iter().flat_map(|f| framed(f)).collect();
    assert_eq!(got, expect);

    // Each end's counts are what a send per frame recorded: one frame and
    // its header up, five frames and theirs down.
    let (up, down) = (request.len() as u64 + 4, expect.len() as u64);
    let server = handle.net_stats();
    assert_eq!((server.up_messages(), server.up_bytes()), (1, up));
    assert_eq!((server.down_messages(), server.down_bytes()), (5, down));
    let mut conn = ServiceConn::connect(handle.local_addr()).unwrap();
    let served = conn.query(SQL).unwrap();
    assert_eq!(served.rows, local.rows);
    assert!(served.plan_cache_hit);
    let client = conn.stats();
    assert_eq!((client.up_messages(), client.up_bytes()), (1, up));
    assert_eq!((client.down_messages(), client.down_bytes()), (5, down));
    assert_eq!((server.up_messages(), server.up_bytes()), (2, 2 * up));
    assert_eq!(
        (server.down_messages(), server.down_bytes()),
        (10, 2 * down)
    );
    conn.close();
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
    // Give the scheduler time to admit the second session.
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
    assert_eq!(
        refused.last_error_retryable(),
        Some(true),
        "a full server is worth retrying on a fresh connection"
    );
    assert!(handle.stats().rejected.load(Ordering::Relaxed) >= 1);

    // Freeing a session restores capacity.
    held1.close();
    held2.close();
    let ok = query_until_admitted(handle.local_addr(), COUNT_SQL, Duration::from_secs(10));
    assert_eq!(ok.rows[0].value(0), &Value::Int(20));
    handle.shutdown();
}

/// A pooled query with a retry policy rides out a full server: each refused
/// attempt is a fatal, retryable `limit` answer, so the pool drops that
/// connection, backs off and dials again, and the query is answered once the
/// session holding the only slot closes.
#[test]
fn a_pooled_retry_is_answered_once_a_held_session_closes() {
    let db = demo_db(20);
    let handle = start(
        &db,
        ServiceConfig {
            workers: 1,
            max_sessions: 1,
            ..ServiceConfig::default()
        },
    );
    let addr = handle.local_addr();
    let mut held = ServiceConn::connect(addr).unwrap();
    held.query(COUNT_SQL).unwrap();

    let waiter = std::thread::spawn(move || {
        let pool = ConnectionPool::new(addr, 1).unwrap();
        let opts = QueryOptions::new()
            .with_deadline(Duration::from_secs(20))
            .with_retry(RetryPolicy {
                max_attempts: 400,
                backoff: csq_client::Backoff::new(
                    Duration::from_millis(5),
                    Duration::from_millis(25),
                    7,
                ),
            });
        pool.query_with(COUNT_SQL, &opts)
    });
    // Hold the slot until the pool has been refused at least once.
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().rejected.load(Ordering::Relaxed) == 0 {
        assert!(
            Instant::now() < deadline,
            "the pooled query was never refused"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    held.close();
    let answer = waiter
        .join()
        .unwrap()
        .expect("answered once the slot frees");
    assert_eq!(answer.rows[0].value(0), &Value::Int(20));
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

/// A typed `Insert` bumps the plan epoch as an SQL `INSERT` does: a SELECT
/// prepared on another session replans and returns the new rows.
#[test]
fn prepared_select_sees_rows_from_typed_inserts() {
    let db = demo_db(40);
    let handle = start(&db, small_config());
    let mut reader = ServiceConn::connect(handle.local_addr()).unwrap();
    let mut writer = ServiceConn::connect(handle.local_addr()).unwrap();

    let (stmt, _) = reader
        .prepare("SELECT R.Id FROM R R WHERE R.Id >= 1000")
        .unwrap();
    assert!(reader.execute(stmt).unwrap().rows.is_empty());
    for round in 1..=3usize {
        let row = Row::new(vec![
            Value::Int(1000 + round as i64),
            Value::Int(0),
            Value::Null,
        ]);
        assert_eq!(writer.insert_with("R", &[row], &QueryOptions::new()), Ok(1));
        let got = reader.execute(stmt).unwrap();
        assert!(
            !got.plan_cache_hit,
            "round {round}: the insert stales the plan"
        );
        assert_eq!(got.rows.len(), round, "round {round}: new rows are visible");
    }
    reader.close();
    writer.close();
    handle.shutdown();
}

/// A typed `Insert` that does not fit is refused whole, before any row is
/// stored: the wrong arity or a mistyped value is a `type` error, an unknown
/// table a `catalog` error. The table is unchanged and the session lives on.
#[test]
fn typed_insert_refusals_leave_table_and_session_intact() {
    let db = demo_db(10);
    let handle = start(&db, small_config());
    let mut conn = ServiceConn::connect(handle.local_addr()).unwrap();
    let opts = QueryOptions::new();
    let stored = || db.execute(COUNT_SQL).unwrap().rows[0].value(0).clone();
    let fits = Row::new(vec![Value::Int(100), Value::Int(0), Value::Null]);
    let short = Row::new(vec![Value::Int(101), Value::Int(0)]);
    let mistyped = Row::new(vec![Value::Int(102), Value::from("seven"), Value::Null]);
    for (table, rows, kind) in [
        ("R", vec![fits.clone(), short], "type"),
        ("R", vec![fits.clone(), mistyped], "type"),
        ("Nope", vec![fits.clone()], "catalog"),
    ] {
        let err = conn.insert_with(table, &rows, &opts).unwrap_err();
        assert_eq!(err.kind(), kind, "{table}: {err}");
        assert_eq!(conn.last_error_retryable(), Some(false));
        assert!(!conn.is_broken(), "a refused insert keeps the session");
        assert_eq!(stored(), Value::Int(10), "a refused insert stores nothing");
    }
    assert_eq!(conn.insert_with("R", &[fits], &opts), Ok(1));
    assert_eq!(stored(), Value::Int(11));
    conn.close();
    handle.shutdown();
}

/// A typed `Insert` carries every value as it is — through its encoding,
/// and through a service into the table — at every edge, NaN and blobs
/// included (`Value` equality compares floats by bit pattern).
#[test]
fn typed_insert_carries_values_at_every_edge() {
    let rows = vec![
        Row::new(vec![
            Value::Float(f64::INFINITY),
            Value::Int(i64::MIN),
            Value::from("it's\n\"quoted\" naïve 数据库 🦀"),
            Value::Blob(Blob::synthetic(64, 9)),
        ]),
        Row::new(vec![
            Value::Float(f64::NEG_INFINITY),
            Value::Int(i64::MAX),
            Value::from(""),
            Value::Blob(Blob::synthetic(1, 2)),
        ]),
        Row::new(vec![
            Value::Float(-0.0),
            Value::Null,
            Value::Null,
            Value::Null,
        ]),
        Row::new(vec![
            Value::Float(f64::NAN),
            Value::Int(0),
            Value::from("x"),
            Value::Blob(Blob::synthetic(3, 3)),
        ]),
    ];
    let req = QueryRequest::Insert {
        table: "E".into(),
        rows: rows.clone(),
        deadline_ms: 250,
    };
    assert_eq!(QueryRequest::decode(&req.encode()).unwrap(), req);

    let db = Arc::new(Database::new(NetworkSpec::lan()));
    db.execute("CREATE TABLE E (F FLOAT, I INT, S STR, B BLOB)")
        .unwrap();
    let handle = start(&db, small_config());
    let mut conn = ServiceConn::connect(handle.local_addr()).unwrap();
    assert_eq!(conn.insert_with("E", &rows, &QueryOptions::new()), Ok(4));
    assert_eq!(db.catalog().get("E").unwrap().snapshot(), rows);
    conn.close();
    handle.shutdown();
}

/// A `Fetch` whose filter tests column `i` against `values[i]`, over a
/// schema of every column type, with a partial aggregation of every
/// function.
fn fetch_of(values: &[Value]) -> QueryRequest {
    let binary = |left, op, right| PhysExpr::Binary {
        left: Box::new(left),
        op,
        right: Box::new(right),
    };
    let filter = values
        .iter()
        .enumerate()
        .map(|(i, v)| {
            binary(
                PhysExpr::Column(i),
                BinaryOp::Eq,
                PhysExpr::Literal(v.clone()),
            )
        })
        .reduce(|l, r| binary(l, BinaryOp::And, r));
    let types = [
        DataType::Bool,
        DataType::Int,
        DataType::Float,
        DataType::Str,
        DataType::Blob,
    ];
    let fields = types.map(|t| Field::new(format!("c{t}"), t));
    let funcs = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Avg,
    ];
    let aggs = funcs
        .iter()
        .map(|&f| AggSpec::new(f, Some(PhysExpr::Column(1)), f.name()))
        .chain([AggSpec::new(AggFunc::Count, None, "n")]);
    QueryRequest::Fetch {
        table: "T".into(),
        schema: Schema::new(fields.to_vec()),
        filter,
        columns: (0..values.len()).collect(),
        partial: Some((vec![0, 3], aggs.collect())),
        deadline_ms: 7,
    }
}

/// Every value a `Fetch` can carry decodes to itself: the edge values a
/// SQL literal can spell, those it cannot (NaN, ±inf, a BLOB), and a
/// seeded sweep of ints, floats of every bit pattern and awkward
/// strings.
#[test]
fn fetch_roundtrips_every_value() {
    let roundtrip = |req: QueryRequest| {
        assert_eq!(QueryRequest::decode(&req.encode()).unwrap(), req);
    };
    // `Value` equality is by type and, for floats, by bit pattern.
    let edges = [
        Value::Null,
        Value::Bool(true),
        Value::Bool(false),
        Value::Int(i64::MIN),
        Value::Int(i64::MIN + 1),
        Value::Int(i64::MAX),
        Value::Int(0),
        Value::Int(-1),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(f64::MIN_POSITIVE),
        Value::Float(f64::from_bits(1)),
        Value::Float(-f64::from_bits(0x000f_ffff_ffff_ffff)),
        Value::Float(f64::MAX),
        Value::Float(f64::MIN),
        Value::Float(1e-300),
        Value::Float(0.1),
        Value::Float(1e21),
        Value::Float(f64::NAN),
        Value::Float(f64::INFINITY),
        Value::Float(f64::NEG_INFINITY),
        Value::Blob(Blob::synthetic(4, 1)),
        Value::from(""),
        Value::from("'"),
        Value::from("''"),
        Value::from("it's -- not a comment"),
        Value::from("line\nbreak\r\n\ttab"),
        Value::from("back\\slash \"quoted\""),
        Value::from("naïve Ünïcödé 数据库 🦀"),
    ];
    roundtrip(fetch_of(&edges));

    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    const ALPHABET: [char; 12] = [
        'a', 'Z', '7', ' ', '\'', '"', '\\', '\n', '\t', '-', 'é', '数',
    ];
    for _ in 0..200 {
        let mut row = Vec::new();
        for _ in 0..8 {
            let bits = next();
            row.push(Value::Int(bits as i64 >> (next() % 64)));
            row.push(Value::Float(f64::from_bits(bits)));
            let s: String = (0..next() % 12)
                .map(|_| ALPHABET[(next() % 12) as usize])
                .collect();
            row.push(Value::from(s));
        }
        roundtrip(fetch_of(&row));
    }
    roundtrip(QueryRequest::Fetch {
        table: "T".into(),
        schema: Schema::empty(),
        filter: None,
        columns: Vec::new(),
        partial: None,
        deadline_ms: 0,
    });
}

/// A truncated `Insert` payload, or one claiming more rows than it holds,
/// decodes to a typed `codec` error; `take_count` refuses the count before
/// anything is allocated for it.
#[test]
fn malformed_insert_payloads_are_codec_errors() {
    let full = QueryRequest::Insert {
        table: "T".into(),
        rows: vec![Row::new(vec![Value::Int(1), Value::from("abc")])],
        deadline_ms: 0,
    }
    .encode();
    for cut in 1..full.len() {
        let err = QueryRequest::decode(&full[..cut]).unwrap_err();
        assert_eq!(err.kind(), "codec", "cut at {cut}: {err}");
    }
    let mut lying = QueryRequest::Insert {
        table: "T".into(),
        rows: Vec::new(),
        deadline_ms: 0,
    }
    .encode();
    let at = lying.len() - 4;
    lying[at..].copy_from_slice(&u32::MAX.to_le_bytes());
    let err = QueryRequest::decode(&lying).unwrap_err();
    assert_eq!(err.kind(), "codec");
    assert!(err.message().contains("impossible"), "{err}");
}

/// A hostile `Insert` frame — a row count its payload cannot hold — is a
/// fatal `codec` error for its own session and nothing else.
#[test]
fn hostile_insert_frame_only_kills_its_own_session() {
    let db = demo_db(30);
    let handle = start(&db, small_config());
    let mut bystander = ServiceConn::connect(handle.local_addr()).unwrap();

    let raw = TcpConn::connect(handle.local_addr()).unwrap();
    let mut frame = QueryRequest::Insert {
        table: "R".into(),
        rows: Vec::new(),
        deadline_ms: 0,
    }
    .encode();
    let at = frame.len() - 4;
    frame[at..].copy_from_slice(&u32::MAX.to_le_bytes());
    raw.send(&frame).unwrap();
    let csq_net::Frame::Payload(resp) = raw.recv().unwrap() else {
        panic!("expected an error response frame");
    };
    let QueryResponse::Error { kind, fatal, .. } = QueryResponse::decode(&resp).unwrap() else {
        panic!("expected an Error response");
    };
    assert_eq!(kind, "codec");
    assert!(fatal, "a protocol fault closes the session");
    assert!(!matches!(raw.recv(), Ok(csq_net::Frame::Payload(_))));

    let ok = bystander.query(COUNT_SQL).unwrap();
    assert_eq!(ok.rows[0].value(0), &Value::Int(30));
    bystander.close();
    handle.shutdown();
}

/// `R.Id < 10` over `R`'s ordinals.
fn id_below_10() -> PhysExpr {
    PhysExpr::Binary {
        left: Box::new(PhysExpr::Column(0)),
        op: BinaryOp::Lt,
        right: Box::new(PhysExpr::Literal(Value::Int(10))),
    }
}

/// A `Fetch` of `R`'s `columns` under `filter`, or with `partial` their
/// partial aggregate states.
fn fetch_r(
    filter: PhysExpr,
    columns: Vec<usize>,
    partial: Option<(Vec<usize>, Vec<AggSpec>)>,
) -> QueryRequest {
    QueryRequest::Fetch {
        table: "R".into(),
        schema: Schema::new(vec![
            Field::new("Id", DataType::Int),
            Field::new("Grp", DataType::Int),
            Field::new("Obj", DataType::Blob),
        ]),
        filter: Some(filter),
        columns,
        partial,
        deadline_ms: 0,
    }
}

/// `SUM(arg)` named `s`.
fn sum_of(arg: usize) -> Vec<AggSpec> {
    vec![AggSpec::new(AggFunc::Sum, Some(PhysExpr::Column(arg)), "s")]
}

/// Send one request frame on `conn` and read the answer: its rows, or the
/// error's kind and whether it is fatal.
fn exchange(conn: &TcpConn, frame: &[u8]) -> std::result::Result<Vec<String>, (String, bool)> {
    conn.send(frame).unwrap();
    let mut rows = Vec::new();
    loop {
        let csq_net::Frame::Payload(resp) = conn.recv().unwrap() else {
            panic!("expected a response frame");
        };
        match QueryResponse::decode(&resp).unwrap() {
            QueryResponse::Begin { .. } => {}
            QueryResponse::Rows(chunk) => rows.extend(chunk.iter().map(|r| format!("{r}"))),
            QueryResponse::End { .. } => {
                rows.sort();
                return Ok(rows);
            }
            QueryResponse::Error { kind, fatal, .. } => return Err((kind, fatal)),
            other => panic!("unexpected response {other:?}"),
        }
    }
}

/// A `Fetch` is answered with what the statement it stands for answers —
/// the filtered columns, or the partial states of a grouped aggregation —
/// and plans nothing.
#[test]
fn fetch_answers_what_its_statement_answers() {
    let db = demo_db(50);
    let handle = start(&db, small_config());
    let conn = TcpConn::connect(handle.local_addr()).unwrap();
    let aggs = vec![
        AggSpec::new(AggFunc::Count, None, "n"),
        AggSpec::new(AggFunc::Sum, Some(PhysExpr::Column(0)), "s"),
    ];
    for (req, sql) in [
        (
            fetch_r(id_below_10(), vec![0, 1], None),
            "SELECT R.Id, R.Grp FROM R R WHERE R.Id < 10",
        ),
        (
            fetch_r(id_below_10(), vec![0, 1], Some((vec![1], aggs))),
            "SELECT R.Grp, count(*), sum(R.Id) FROM R R WHERE R.Id < 10 GROUP BY R.Grp",
        ),
    ] {
        let mut want: Vec<String> = db
            .execute(sql)
            .unwrap()
            .rows
            .iter()
            .map(|r| format!("{r}"))
            .collect();
        want.sort();
        let lookups = || {
            let s = db.plan_cache_stats();
            s.hits + s.misses
        };
        let before = lookups();
        assert_eq!(exchange(&conn, &req.encode()), Ok(want), "{sql}");
        assert_eq!(lookups(), before, "a fetch plans nothing");
    }
    handle.shutdown();
}

/// A `Fetch` with an ordinal past its table's width — a returned column, a
/// filter column, a group key, an aggregate argument — or whose table is
/// missing or not the schema it names, is a typed error before any operator
/// is built, and the session answers the next request. A frame
/// that does not decode — an unknown aggregate function, a body cut short —
/// is a fatal `codec` error for its own session only.
#[test]
fn hostile_fetch_frames_are_typed_errors() {
    let db = demo_db(30);
    let handle = start(&db, small_config());
    let valid = fetch_r(id_below_10(), vec![0, 1], Some((vec![1], sum_of(0))));
    let mut reordered = valid.clone();
    if let QueryRequest::Fetch { schema, .. } = &mut reordered {
        let f = schema.fields();
        *schema = Schema::new(vec![f[1].clone(), f[0].clone(), f[2].clone()]);
    }
    let mut unknown = valid.clone();
    if let QueryRequest::Fetch { table, .. } = &mut unknown {
        *table = "Nope".into();
    }
    let refusals = [
        (fetch_r(id_below_10(), vec![0, 3], None), "plan"),
        (fetch_r(PhysExpr::Column(3), vec![0, 1], None), "plan"),
        (
            fetch_r(id_below_10(), vec![0, 1], Some((vec![3], sum_of(0)))),
            "plan",
        ),
        (
            fetch_r(id_below_10(), vec![0, 1], Some((vec![1], sum_of(3)))),
            "plan",
        ),
        (reordered, "catalog"),
        (unknown, "catalog"),
    ];
    let conn = TcpConn::connect(handle.local_addr()).unwrap();
    for (req, kind) in refusals {
        assert_eq!(
            exchange(&conn, &req.encode()),
            Err((kind.to_string(), false)),
            "{req:?}"
        );
        assert!(
            exchange(&conn, &valid.encode()).is_ok(),
            "the session lives"
        );
    }

    // `SUM(R.Id) AS s` ends the frame: the function's name ends 12 bytes
    // from the end, before the argument flag, the column and the call name.
    let mut bad_func = valid.encode();
    let at = bad_func.len() - 12;
    bad_func[at] = b'X';
    let full = valid.encode();
    for frame in [bad_func, full[..full.len() - 1].to_vec()] {
        let raw = TcpConn::connect(handle.local_addr()).unwrap();
        assert_eq!(exchange(&raw, &frame), Err(("codec".to_string(), true)));
    }
    assert!(
        exchange(&conn, &valid.encode()).is_ok(),
        "a bystander lives"
    );
    handle.shutdown();
}

/// Every truncation of a `Fetch` payload, a count larger than the payload
/// and an expression nested past the decoder's bound are typed `codec`
/// errors; `take_count` refuses a count before anything is allocated for it.
#[test]
fn malformed_fetch_payloads_are_codec_errors() {
    let full = fetch_r(id_below_10(), vec![0, 1], Some((vec![1], sum_of(0)))).encode();
    for cut in 1..full.len() {
        let err = QueryRequest::decode(&full[..cut]).unwrap_err();
        assert_eq!(err.kind(), "codec", "cut at {cut}: {err}");
    }
    // The call's name `s` ends the frame behind its 4-byte length.
    let mut lying = full.clone();
    let at = lying.len() - 5;
    lying[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let err = QueryRequest::decode(&lying).unwrap_err();
    assert_eq!(err.kind(), "codec", "{err}");
    let mut deep = PhysExpr::Column(0);
    for _ in 0..300 {
        deep = PhysExpr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(deep),
        };
    }
    let err = QueryRequest::decode(&fetch_r(deep, vec![0], None).encode()).unwrap_err();
    assert_eq!(err.kind(), "codec");
    assert!(err.message().contains("nested"), "{err}");
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
                // scheduler's accept sweep a beat and retry.
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
