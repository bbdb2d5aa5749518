//! The query-service wire protocol: SQL in, result streams out.
//!
//! This sits one level *above* the shipping protocol in [`crate::protocol`].
//! That protocol is what the server speaks to a client-site UDF runtime
//! inside one query; this one is what an application speaks to the whole
//! database over a real socket (see `csq-net::tcp`): send SQL (or a
//! prepared-statement handle), get back a column header, a stream of row
//! chunks, and a terminator — or a typed error that maps 1:1 onto
//! [`CsqError::kind`], so errors observed through the service are
//! comparable to errors from the in-process engine (the differential suite
//! relies on this).
//!
//! Results travel in bounded chunks rather than as one message, so the
//! per-frame length cap in the transport stays effective no matter how
//! large a result set is. The server encodes every chunk of a result before
//! it sends the header ([`QueryResponse::encode_rows_frames`]), so a
//! statement that fails answers with one `Error` and never a partial result.
//!
//! Two requests are not SQL. [`QueryRequest::Insert`] carries typed rows,
//! which the server stores without parsing or evaluating anything.
//! [`QueryRequest::Fetch`] carries a typed read fragment — a table, the
//! schema the sender expects of it, a bound filter, the columns to return
//! and an optional partial aggregation — which the server runs as operators
//! without parsing or planning anything: what a coordinator sends a shard.

use csq_common::codec::{batch_rows_message, encode_rows, tagged_rows, Decoder};
use csq_common::{CsqError, DataType, Field, Result, Row, RowBatch, Schema};
use csq_expr::{AggFunc, AggSpec, PhysExpr};

use crate::protocol::{decode_expr, encode_expr, put_bool, put_str, put_u32, take_bool, take_str};

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryRequest {
    /// Execute one SQL statement (planned through the server's plan cache).
    Query {
        /// SQL text.
        sql: String,
        /// Per-query deadline budget in milliseconds; `0` means no
        /// deadline. The server enforces it cooperatively and answers a
        /// typed `timeout` error once it expires.
        deadline_ms: u64,
    },
    /// Parse/optimize only; the plan is pinned to this session under the
    /// returned statement id.
    Prepare {
        /// SQL text (SELECT only).
        sql: String,
    },
    /// Execute a statement previously pinned by `Prepare` on this session.
    Execute {
        /// Session-local statement id from [`QueryResponse::Prepared`].
        stmt: u32,
        /// Per-query deadline budget in milliseconds; `0` = none.
        deadline_ms: u64,
    },
    /// Unpin a prepared statement (fire-and-forget: the server sends no
    /// reply; TCP ordering guarantees it is processed before any later
    /// request on the session). Frees the server-side plan pin and its
    /// slot under the per-session prepared-statement cap.
    CloseStmt {
        /// Session-local statement id to release.
        stmt: u32,
    },
    /// Graceful session end.
    Close,
    /// Ask for this session's identity (id plus cancel key) so another
    /// connection can target it with `CancelQuery`. Answered with
    /// [`QueryResponse::Session`].
    SessionInfo,
    /// Append typed rows to a table, all or none. Answered like an SQL
    /// `INSERT` (empty `Begin`, `End { affected }`), or with an `Error`
    /// sent only before any row is stored.
    Insert {
        /// Target table name.
        table: String,
        /// The rows, each in the table's column order.
        rows: Vec<Row>,
        /// Per-request deadline budget in milliseconds; `0` = none.
        deadline_ms: u64,
    },
    /// Read a fragment of one table: its rows under `filter`, returned as
    /// `columns` or — with `partial` — as the partial states of a grouped
    /// aggregation (group key columns, then each call's state columns, as
    /// `HashAggregate::partial` emits them). Every ordinal is a table
    /// ordinal. Answered like a SELECT; the server refuses a table whose
    /// columns differ from `schema` by name, type or order. Runs no parse
    /// and no optimize.
    Fetch {
        /// Table name.
        table: String,
        /// The table's columns as the sender plans them, in order.
        schema: Schema,
        /// Conjunction the returned rows satisfy, over table ordinals.
        filter: Option<PhysExpr>,
        /// Table ordinals of the returned columns, in order; unread
        /// with `partial`.
        columns: Vec<usize>,
        /// Group key ordinals plus the aggregate calls to run partially.
        partial: Option<(Vec<usize>, Vec<AggSpec>)>,
        /// Per-request deadline budget in milliseconds; `0` = none.
        deadline_ms: u64,
    },
    /// Kill the query currently running on session `session` (the
    /// Postgres-style out-of-band cancel: a busy session cannot read its
    /// own socket mid-query, so the cancel arrives on a *different*
    /// connection). Fire-and-forget — no reply on this connection; the
    /// target session's own connection observes a typed `cancelled` error.
    /// `key` must match the secret returned by `SessionInfo`, so a
    /// stranger guessing session ids cannot kill other users' queries.
    CancelQuery {
        /// Target session id.
        session: u64,
        /// That session's cancel key.
        key: u64,
    },
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResponse {
    /// Result stream header: output column display names.
    Begin {
        /// Column display names, in output order.
        columns: Vec<String>,
    },
    /// One chunk of result rows (zero or more chunks per query).
    Rows(Vec<Row>),
    /// Result stream terminator.
    End {
        /// Total rows streamed.
        rows: u64,
        /// DML-affected row count (0 for SELECT).
        affected: u64,
        /// Whether the server reused a cached plan (no parse/optimize).
        plan_cache_hit: bool,
    },
    /// The statement failed. `kind` is the server-side [`CsqError::kind`]
    /// tag. With `fatal: false` the session survives and the next request
    /// plans fresh; `fatal: true` announces the server is closing this
    /// connection right after the reply (admission refusal, shutdown
    /// notice, protocol fault), so clients must not reuse or pool it.
    Error {
        /// Error category tag.
        kind: String,
        /// Human-readable message.
        message: String,
        /// True when the server closes the connection after this reply.
        fatal: bool,
        /// The server's verdict on whether retrying (with backoff, possibly
        /// on a fresh connection) can succeed. Usually
        /// [`CsqError::retryable`] of the underlying error, but the server
        /// may override — e.g. a load-shed refusal keeps kind `limit` yet
        /// is retryable once pressure clears.
        retryable: bool,
    },
    /// Answer to `Prepare`.
    Prepared {
        /// Session-local statement id.
        stmt: u32,
        /// Whether the plan came from the server's plan cache.
        plan_cache_hit: bool,
    },
    /// Answer to `SessionInfo`: this session's identity for out-of-band
    /// cancellation.
    Session {
        /// Server-assigned session id.
        id: u64,
        /// Secret cancel key for this session.
        key: u64,
    },
}

impl QueryResponse {
    /// The error response for a statement failure the session survives.
    pub fn from_error(e: &CsqError) -> QueryResponse {
        QueryResponse::Error {
            kind: e.kind().to_string(),
            message: e.message().to_string(),
            fatal: false,
            retryable: e.retryable(),
        }
    }

    /// The error response for a failure after which the server closes the
    /// connection.
    pub fn fatal_error(e: &CsqError) -> QueryResponse {
        QueryResponse::Error {
            kind: e.kind().to_string(),
            message: e.message().to_string(),
            fatal: true,
            retryable: e.retryable(),
        }
    }

    /// A refusal under load: retryable once pressure clears, though a
    /// `limit` error is otherwise permanent. `fatal` when the server closes
    /// the connection after it (admission past `max_sessions`: retry on a
    /// fresh connection), not when the session survives (statement-level
    /// load shedding: retry on the **same** connection).
    pub fn refusal(e: &CsqError, fatal: bool) -> QueryResponse {
        QueryResponse::Error {
            kind: e.kind().to_string(),
            message: e.message().to_string(),
            fatal,
            retryable: true,
        }
    }
}

const REQ_QUERY: u8 = 1;
const REQ_PREPARE: u8 = 2;
const REQ_EXECUTE: u8 = 3;
const REQ_CLOSE: u8 = 4;
const REQ_CLOSE_STMT: u8 = 5;
const REQ_SESSION_INFO: u8 = 6;
const REQ_CANCEL_QUERY: u8 = 7;
const REQ_INSERT: u8 = 8;
const REQ_FETCH: u8 = 9;

const RESP_BEGIN: u8 = 1;
const RESP_ROWS: u8 = 2;
const RESP_END: u8 = 3;
const RESP_ERROR: u8 = 4;
const RESP_PREPARED: u8 = 5;
const RESP_SESSION: u8 = 6;

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a deadline; returns its offset, where a retry overwrites it.
fn put_deadline(out: &mut Vec<u8>, deadline_ms: u64) -> usize {
    let at = out.len();
    put_u64(out, deadline_ms);
    at
}

/// Append an `Insert` request: tag, table name, deadline, then the rows in
/// the [`encode_rows`] layout. Returns the deadline's offset.
fn encode_insert(out: &mut Vec<u8>, table: &str, rows: &[Row], deadline_ms: u64) -> usize {
    out.push(REQ_INSERT);
    put_str(out, table);
    let at = put_deadline(out, deadline_ms);
    encode_rows(rows, out);
    at
}

fn put_ordinals(out: &mut Vec<u8>, ordinals: &[usize]) {
    put_u32(out, ordinals.len() as u32);
    for &i in ordinals {
        put_u32(out, i as u32);
    }
}

fn take_ordinals(d: &mut Decoder<'_>) -> Result<Vec<usize>> {
    let n = d.take_count(4)?;
    let mut ordinals = Vec::with_capacity(n);
    for _ in 0..n {
        ordinals.push(d.take_u32()? as usize);
    }
    Ok(ordinals)
}

fn put_opt_expr(out: &mut Vec<u8>, e: Option<&PhysExpr>) {
    put_bool(out, e.is_some());
    if let Some(e) = e {
        encode_expr(e, out);
    }
}

fn take_opt_expr(d: &mut Decoder<'_>) -> Result<Option<PhysExpr>> {
    Ok(if take_bool(d)? {
        Some(decode_expr(d)?)
    } else {
        None
    })
}

fn decode_fetch(d: &mut Decoder<'_>) -> Result<QueryRequest> {
    let table = take_str(d)?;
    let deadline_ms = d.take_u64()?;
    // A field is at least two 4-byte lengths: its name's and its type's.
    let n = d.take_count(8)?;
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let name = take_str(d)?;
        let dtype = DataType::parse(&take_str(d)?);
        fields.push(Field::new(
            name,
            dtype.map_err(|e| CsqError::Codec(e.message().into()))?,
        ));
    }
    let filter = take_opt_expr(d)?;
    let columns = take_ordinals(d)?;
    let partial = if take_bool(d)? {
        let keys = take_ordinals(d)?;
        // A call is at least its function's 4-byte name length, an
        // argument flag and its own 4-byte name length.
        let n = d.take_count(9)?;
        let mut aggs = Vec::with_capacity(n);
        for _ in 0..n {
            let func = take_str(d)?;
            let func = AggFunc::parse(&func)
                .ok_or_else(|| CsqError::Codec(format!("unknown aggregate function '{func}'")))?;
            let arg = take_opt_expr(d)?;
            aggs.push(AggSpec::new(func, arg, take_str(d)?));
        }
        Some((keys, aggs))
    } else {
        None
    };
    Ok(QueryRequest::Fetch {
        table,
        schema: Schema::new(fields),
        filter,
        columns,
        partial,
        deadline_ms,
    })
}

impl QueryRequest {
    /// An SQL-text [`QueryRequest::Query`] with no deadline of its own (the
    /// sender writes one into each attempt).
    pub fn sql(sql: &str) -> QueryRequest {
        QueryRequest::Query {
            sql: sql.into(),
            deadline_ms: 0,
        }
    }

    /// Encode to wire bytes (one frame payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Append the encoding to `out`; returns the offset of the request's
    /// deadline when it carries one.
    fn encode_into(&self, out: &mut Vec<u8>) -> Option<usize> {
        match self {
            QueryRequest::Query { sql, deadline_ms } => {
                out.push(REQ_QUERY);
                put_str(out, sql);
                return Some(put_deadline(out, *deadline_ms));
            }
            QueryRequest::Prepare { sql } => {
                out.push(REQ_PREPARE);
                put_str(out, sql);
            }
            QueryRequest::Execute { stmt, deadline_ms } => {
                out.push(REQ_EXECUTE);
                put_u32(out, *stmt);
                return Some(put_deadline(out, *deadline_ms));
            }
            QueryRequest::CloseStmt { stmt } => {
                out.push(REQ_CLOSE_STMT);
                put_u32(out, *stmt);
            }
            QueryRequest::Close => out.push(REQ_CLOSE),
            QueryRequest::SessionInfo => out.push(REQ_SESSION_INFO),
            QueryRequest::Insert {
                table,
                rows,
                deadline_ms,
            } => return Some(encode_insert(out, table, rows, *deadline_ms)),
            QueryRequest::Fetch {
                table,
                schema,
                filter,
                columns,
                partial,
                deadline_ms,
            } => {
                out.push(REQ_FETCH);
                put_str(out, table);
                let at = put_deadline(out, *deadline_ms);
                put_u32(out, schema.len() as u32);
                for f in schema.fields() {
                    put_str(out, &f.name);
                    put_str(out, &f.dtype.to_string());
                }
                put_opt_expr(out, filter.as_ref());
                put_ordinals(out, columns);
                put_bool(out, partial.is_some());
                if let Some((keys, aggs)) = partial {
                    put_ordinals(out, keys);
                    put_u32(out, aggs.len() as u32);
                    for a in aggs {
                        put_str(out, a.func.name());
                        put_opt_expr(out, a.arg.as_ref());
                        put_str(out, &a.name);
                    }
                }
                return Some(at);
            }
            QueryRequest::CancelQuery { session, key } => {
                out.push(REQ_CANCEL_QUERY);
                put_u64(out, *session);
                put_u64(out, *key);
            }
        }
        None
    }

    fn decode_with(d: &mut Decoder<'_>) -> Result<QueryRequest> {
        let req = match d.take_u8()? {
            REQ_QUERY => QueryRequest::Query {
                sql: take_str(d)?,
                deadline_ms: d.take_u64()?,
            },
            REQ_PREPARE => QueryRequest::Prepare { sql: take_str(d)? },
            REQ_EXECUTE => QueryRequest::Execute {
                stmt: d.take_u32()?,
                deadline_ms: d.take_u64()?,
            },
            REQ_CLOSE_STMT => QueryRequest::CloseStmt {
                stmt: d.take_u32()?,
            },
            REQ_CLOSE => QueryRequest::Close,
            REQ_SESSION_INFO => QueryRequest::SessionInfo,
            REQ_CANCEL_QUERY => QueryRequest::CancelQuery {
                session: d.take_u64()?,
                key: d.take_u64()?,
            },
            // Fields are read in the order they are written.
            REQ_INSERT => QueryRequest::Insert {
                table: take_str(d)?,
                deadline_ms: d.take_u64()?,
                rows: d.rows(0)?,
            },
            REQ_FETCH => decode_fetch(d)?,
            other => return Err(CsqError::Codec(format!("bad query request tag {other}"))),
        };
        if !d.is_exhausted() {
            return Err(CsqError::Codec("trailing bytes after query request".into()));
        }
        Ok(req)
    }

    /// Decode from wire bytes.
    pub fn decode(buf: &[u8]) -> Result<QueryRequest> {
        QueryRequest::decode_with(&mut Decoder::new(buf))
    }
}

/// A request encoded once for all its attempts; each writes its own
/// deadline into the payload in place.
pub(crate) struct Encoded {
    payload: Vec<u8>,
    deadline_at: Option<usize>,
}

impl Encoded {
    /// Encode `req`.
    pub(crate) fn new(req: &QueryRequest) -> Encoded {
        let mut payload = Vec::new();
        let deadline_at = req.encode_into(&mut payload);
        Encoded {
            payload,
            deadline_at,
        }
    }

    /// An `Insert` of borrowed rows — byte-identical to [`Encoded::new`] of
    /// the owning request, without cloning the rows into one first.
    pub(crate) fn insert(table: &str, rows: &[Row]) -> Encoded {
        let mut payload = Vec::new();
        let deadline_at = Some(encode_insert(&mut payload, table, rows, 0));
        Encoded {
            payload,
            deadline_at,
        }
    }

    /// Whether the request writes, which sets the rule for replaying it.
    pub(crate) fn is_write(&self) -> bool {
        self.payload.first() == Some(&REQ_INSERT)
    }

    /// The payload, carrying `deadline_ms` when the request has a deadline.
    pub(crate) fn payload(&mut self, deadline_ms: u64) -> &[u8] {
        if let Some(slot) = self
            .deadline_at
            .and_then(|at| self.payload.get_mut(at..at + 8))
        {
            slot.copy_from_slice(&deadline_ms.to_le_bytes());
        }
        &self.payload
    }
}

impl QueryResponse {
    /// Encode to wire bytes (one frame payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            QueryResponse::Begin { columns } => {
                out.push(RESP_BEGIN);
                put_u32(&mut out, columns.len() as u32);
                for c in columns {
                    put_str(&mut out, c);
                }
            }
            QueryResponse::Rows(rows) => return Self::encode_rows_chunk(rows),
            QueryResponse::End {
                rows,
                affected,
                plan_cache_hit,
            } => {
                out.push(RESP_END);
                put_u64(&mut out, *rows);
                put_u64(&mut out, *affected);
                put_bool(&mut out, *plan_cache_hit);
            }
            QueryResponse::Error {
                kind,
                message,
                fatal,
                retryable,
            } => {
                out.push(RESP_ERROR);
                put_str(&mut out, kind);
                put_str(&mut out, message);
                put_bool(&mut out, *fatal);
                put_bool(&mut out, *retryable);
            }
            QueryResponse::Prepared {
                stmt,
                plan_cache_hit,
            } => {
                out.push(RESP_PREPARED);
                put_u32(&mut out, *stmt);
                put_bool(&mut out, *plan_cache_hit);
            }
            QueryResponse::Session { id, key } => {
                out.push(RESP_SESSION);
                put_u64(&mut out, *id);
                put_u64(&mut out, *key);
            }
        }
        out
    }

    /// Encode a `Rows` chunk directly from borrowed rows: what
    /// `QueryResponse::Rows(rows.to_vec()).encode()` writes, without the
    /// clone.
    pub fn encode_rows_chunk(rows: &[Row]) -> Vec<u8> {
        tagged_rows(RESP_ROWS, rows.iter().map(Row::values))
    }

    /// The `Rows` frames of a result held as batches: `chunk_rows` rows a
    /// frame (at least one), a frame spanning batch boundaries where it must.
    /// Byte for byte what [`encode_rows_chunk`](Self::encode_rows_chunk)
    /// makes of the batches' rows chunked the same way, but a lane-backed
    /// batch is written from its lanes and never builds a row; this is how
    /// the server encodes results.
    pub fn encode_rows_frames(batches: &[RowBatch], chunk_rows: usize) -> Vec<Vec<u8>> {
        let chunk_rows = chunk_rows.max(1);
        let total: usize = batches.iter().map(RowBatch::len).sum();
        let mut frames = Vec::with_capacity(total.div_ceil(chunk_rows));
        let mut pieces = Vec::new();
        let (mut batch, mut pos, mut left) = (0, 0, total);
        while left > 0 {
            let n = left.min(chunk_rows);
            let mut need = n;
            pieces.clear();
            while need > 0 {
                let Some(b) = batches.get(batch) else { break };
                let take = need.min(b.len() - pos);
                pieces.push((b, pos..pos + take));
                (pos, need) = (pos + take, need - take);
                if pos == b.len() {
                    (batch, pos) = (batch + 1, 0);
                }
            }
            let [a, b, c, d] = (n as u32).to_le_bytes();
            frames.push(batch_rows_message(&[RESP_ROWS, a, b, c, d], &pieces));
            left -= n;
        }
        frames
    }

    fn decode_with(d: &mut Decoder<'_>) -> Result<QueryResponse> {
        let resp = match d.take_u8()? {
            RESP_BEGIN => {
                let n = d.take_count(4)?;
                let mut columns = Vec::with_capacity(n);
                for _ in 0..n {
                    columns.push(take_str(d)?);
                }
                QueryResponse::Begin { columns }
            }
            RESP_ROWS => QueryResponse::Rows(d.rows(0)?),
            RESP_END => QueryResponse::End {
                rows: d.take_u64()?,
                affected: d.take_u64()?,
                plan_cache_hit: take_bool(d)?,
            },
            RESP_ERROR => QueryResponse::Error {
                kind: take_str(d)?,
                message: take_str(d)?,
                fatal: take_bool(d)?,
                retryable: take_bool(d)?,
            },
            RESP_PREPARED => QueryResponse::Prepared {
                stmt: d.take_u32()?,
                plan_cache_hit: take_bool(d)?,
            },
            RESP_SESSION => QueryResponse::Session {
                id: d.take_u64()?,
                key: d.take_u64()?,
            },
            other => return Err(CsqError::Codec(format!("bad query response tag {other}"))),
        };
        if !d.is_exhausted() {
            return Err(CsqError::Codec(
                "trailing bytes after query response".into(),
            ));
        }
        Ok(resp)
    }

    /// Decode from wire bytes (copies string/blob payloads).
    pub fn decode(buf: &[u8]) -> Result<QueryResponse> {
        QueryResponse::decode_with(&mut Decoder::new(buf))
    }

    /// Zero-copy decode: `Str`/`Blob` values in a `Rows` chunk stay views
    /// of the shared frame buffer.
    pub fn decode_shared(buf: &std::sync::Arc<Vec<u8>>) -> Result<QueryResponse> {
        QueryResponse::decode_with(&mut Decoder::shared(buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csq_common::Value;
    use std::sync::Arc;

    #[test]
    fn requests_roundtrip() {
        let reqs = [
            QueryRequest::Query {
                sql: "SELECT R.Id FROM R R".into(),
                deadline_ms: 0,
            },
            QueryRequest::Query {
                sql: "SELECT R.Id FROM R R".into(),
                deadline_ms: 2_500,
            },
            QueryRequest::Prepare { sql: "".into() },
            QueryRequest::Execute {
                stmt: 42,
                deadline_ms: 125,
            },
            QueryRequest::CloseStmt { stmt: 42 },
            QueryRequest::Close,
            QueryRequest::SessionInfo,
            QueryRequest::CancelQuery {
                session: u64::MAX,
                key: 0x1234_5678_9abc_def0,
            },
        ];
        for r in reqs {
            assert_eq!(QueryRequest::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn responses_roundtrip() {
        let resps = [
            QueryResponse::Begin {
                columns: vec!["Id".into(), "count(*)".into()],
            },
            QueryResponse::Rows(vec![
                Row::new(vec![Value::Int(1), Value::from("abc")]),
                Row::new(vec![Value::Null, Value::Float(2.5)]),
            ]),
            QueryResponse::End {
                rows: 17,
                affected: 0,
                plan_cache_hit: true,
            },
            QueryResponse::Error {
                kind: "parse".into(),
                message: "unexpected token".into(),
                fatal: false,
                retryable: false,
            },
            QueryResponse::Error {
                kind: "timeout".into(),
                message: "query deadline exceeded".into(),
                fatal: false,
                retryable: true,
            },
            QueryResponse::Prepared {
                stmt: 7,
                plan_cache_hit: false,
            },
            QueryResponse::Session {
                id: 3,
                key: u64::MAX,
            },
        ];
        for r in resps {
            assert_eq!(QueryResponse::decode(&r.encode()).unwrap(), r);
            let shared = Arc::new(r.encode());
            assert_eq!(QueryResponse::decode_shared(&shared).unwrap(), r);
        }
    }

    #[test]
    fn rows_chunk_fast_path_is_byte_identical() {
        let rows = vec![
            Row::new(vec![Value::Int(5), Value::from("payload")]),
            Row::new(vec![Value::Int(6), Value::Null]),
        ];
        assert_eq!(
            QueryResponse::encode_rows_chunk(&rows),
            QueryResponse::Rows(rows).encode()
        );
    }

    #[test]
    fn every_row_message_is_allocated_at_its_exact_size() {
        use crate::protocol::{Request, Response};
        use csq_common::{Lane, Selection};
        let names = [Value::from("alpha"), Value::Null, Value::from("β")];
        let rows: Vec<Row> = (0..30)
            .map(|i| Row::new(vec![Value::Int(i), names[i as usize % 3].clone()]))
            .collect();
        let schema = Arc::new(Schema::new(vec![
            Field::new("i", DataType::Int),
            Field::new("s", DataType::Str),
        ]));
        let lanes = (0..2)
            .map(|c| Arc::new(Lane::build(&rows[..26], c)))
            .collect();
        // The second frame spans the lane batch's end and the row batch.
        let batches = [
            RowBatch::from_lanes(schema.clone(), lanes, Selection::Window(0..26)),
            RowBatch::from_rows(schema, rows[26..].to_vec()),
        ];
        let frames = QueryResponse::encode_rows_frames(&batches, 16);
        let chunks = rows.chunks(16).map(QueryResponse::encode_rows_chunk);
        assert_eq!(frames, chunks.collect::<Vec<_>>());
        let mut body = Vec::new();
        encode_rows(&rows, &mut body);
        let messages = [
            QueryResponse::encode_rows_chunk(&rows),
            Response::Batch(rows.clone()).encode(),
            Request::encode_batch(rows.iter().map(Row::values)),
        ];
        for m in frames.iter().chain(&messages) {
            assert_eq!(m.len(), m.capacity());
        }
        assert!(messages.iter().all(|m| m[1..] == body[..]));
        assert_eq!(
            Response::decode(&messages[1]).unwrap(),
            Response::Batch(rows.clone())
        );
        assert_eq!(Request::decode(&messages[2]).unwrap(), Request::Batch(rows));
    }

    #[test]
    fn garbage_rejected() {
        assert!(QueryRequest::decode(&[]).is_err());
        assert!(QueryRequest::decode(&[99]).is_err());
        assert!(QueryResponse::decode(&[0]).is_err());
        let mut trailing = QueryRequest::Close.encode();
        trailing.push(1);
        assert!(QueryRequest::decode(&trailing).is_err());
    }

    #[test]
    fn error_response_matches_error_kinds() {
        let e = CsqError::Catalog("unknown table 'T'".into());
        let resp = QueryResponse::from_error(&e);
        let QueryResponse::Error {
            kind,
            message,
            fatal,
            retryable,
        } = resp
        else {
            panic!("expected error response");
        };
        assert!(!fatal);
        assert!(!retryable, "catalog errors are permanent");
        assert_eq!(CsqError::from_kind(&kind, message), e);
        assert!(matches!(
            QueryResponse::fatal_error(&e),
            QueryResponse::Error { fatal: true, .. }
        ));
    }

    #[test]
    fn retryable_flag_tracks_error_classification() {
        assert!(matches!(
            QueryResponse::from_error(&CsqError::Timeout("m".into())),
            QueryResponse::Error {
                retryable: true,
                ..
            }
        ));
        assert!(matches!(
            QueryResponse::from_error(&CsqError::Cancelled("m".into())),
            QueryResponse::Error {
                retryable: false,
                ..
            }
        ));
    }
}
