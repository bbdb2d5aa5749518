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

use csq_common::codec::Decoder;
use csq_common::{CsqError, Result, Row, RowBatch};

use crate::protocol::{put_bool, put_str, put_u32, take_bool, take_str};

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

    /// A fatal error the server nonetheless invites the client to retry
    /// (on a fresh connection, after backoff): the load-shed / admission
    /// refusal. Overrides the default classification, which would call a
    /// `limit` error permanent.
    pub fn retryable_refusal(e: &CsqError) -> QueryResponse {
        QueryResponse::Error {
            kind: e.kind().to_string(),
            message: e.message().to_string(),
            fatal: true,
            retryable: true,
        }
    }

    /// A refusal the *session survives*: the server declined this one
    /// statement (e.g. statement-level load shedding under a full work
    /// queue) but keeps the connection open, so the client should retry on
    /// the **same** connection after backing off. Overrides the default
    /// classification, which would call a `limit` error permanent.
    pub fn survivable_refusal(e: &CsqError) -> QueryResponse {
        QueryResponse::Error {
            kind: e.kind().to_string(),
            message: e.message().to_string(),
            fatal: false,
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

const RESP_BEGIN: u8 = 1;
const RESP_ROWS: u8 = 2;
const RESP_END: u8 = 3;
const RESP_ERROR: u8 = 4;
const RESP_PREPARED: u8 = 5;
const RESP_SESSION: u8 = 6;

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

impl QueryRequest {
    /// Encode to wire bytes (one frame payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            QueryRequest::Query { sql, deadline_ms } => {
                out.push(REQ_QUERY);
                put_str(&mut out, sql);
                put_u64(&mut out, *deadline_ms);
            }
            QueryRequest::Prepare { sql } => {
                out.push(REQ_PREPARE);
                put_str(&mut out, sql);
            }
            QueryRequest::Execute { stmt, deadline_ms } => {
                out.push(REQ_EXECUTE);
                put_u32(&mut out, *stmt);
                put_u64(&mut out, *deadline_ms);
            }
            QueryRequest::CloseStmt { stmt } => {
                out.push(REQ_CLOSE_STMT);
                put_u32(&mut out, *stmt);
            }
            QueryRequest::Close => out.push(REQ_CLOSE),
            QueryRequest::SessionInfo => out.push(REQ_SESSION_INFO),
            QueryRequest::CancelQuery { session, key } => {
                out.push(REQ_CANCEL_QUERY);
                put_u64(&mut out, *session);
                put_u64(&mut out, *key);
            }
        }
        out
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
            QueryResponse::Rows(rows) => {
                out.push(RESP_ROWS);
                csq_common::codec::encode_rows(rows, &mut out);
            }
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

    /// Encode a `Rows` chunk directly from borrowed rows — byte-identical
    /// to `QueryResponse::Rows(rows.to_vec()).encode()` without cloning
    /// first.
    pub fn encode_rows_chunk(rows: &[Row]) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(RESP_ROWS);
        csq_common::codec::encode_rows(rows, &mut out);
        out
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
        let (mut batch, mut pos, mut left) = (0, 0, total);
        while left > 0 {
            let n = left.min(chunk_rows);
            let mut out = vec![RESP_ROWS];
            put_u32(&mut out, n as u32);
            let mut need = n;
            while need > 0 {
                let Some(b) = batches.get(batch) else { break };
                let take = need.min(b.len() - pos);
                csq_common::codec::encode_batch_rows(b, pos..pos + take, &mut out);
                (pos, need) = (pos + take, need - take);
                if pos == b.len() {
                    (batch, pos) = (batch + 1, 0);
                }
            }
            frames.push(out);
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
            RESP_ROWS => {
                let n = d.take_count(4)?;
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    rows.push(d.row()?);
                }
                QueryResponse::Rows(rows)
            }
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
        // The shed refusal: kind limit, yet explicitly retryable + fatal.
        let shed = QueryResponse::retryable_refusal(&CsqError::Limit("server saturated".into()));
        assert!(matches!(
            shed,
            QueryResponse::Error {
                retryable: true,
                fatal: true,
                ..
            }
        ));
    }
}
