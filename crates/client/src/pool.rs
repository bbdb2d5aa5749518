//! Client-side access to the query service: a single framed connection
//! ([`ServiceConn`]) and a bounded, blocking [`ConnectionPool`] for
//! many-threads-few-connections applications.
//!
//! A pooled connection is checked out with [`ConnectionPool::get`], used
//! like a plain [`ServiceConn`], and returned on drop. Connections whose
//! *transport* failed (socket error, codec desync) are discarded instead of
//! returned — a server-side query error (bad SQL, unknown table) leaves the
//! session healthy and the connection reusable, exactly mirroring the
//! server's per-session error isolation.
//!
//! A pooled request has two halves: [`ConnectionPool::send`] writes the
//! first attempt, [`InFlight::finish`] reads the reply and replays where
//! §10's rules allow. The `*_with` calls are the two back to back; a caller
//! with requests for several services sends them all before it finishes
//! any, so the services answer at once with no thread per request.

use std::net::ToSocketAddrs;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};

use csq_common::{CsqError, Deadline, Result, Row};
use csq_net::{Frame, NetStats, TcpConn};

use crate::backoff::Backoff;
use crate::qproto::{Encoded, QueryRequest, QueryResponse};

/// A complete result fetched through the service.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteResult {
    /// Output column display names.
    pub columns: Vec<String>,
    /// Result rows, in stream order.
    pub rows: Vec<Row>,
    /// DML-affected row count (0 for SELECT).
    pub affected: u64,
    /// Whether the server answered from its plan cache.
    pub plan_cache_hit: bool,
}

/// A session-local prepared statement handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatementHandle {
    id: u32,
}

/// A session's out-of-band cancellation credentials, as returned by
/// [`ServiceConn::session_info`]. Present the pair on a *different*
/// connection via [`ServiceConn::cancel_query`] to kill whatever query the
/// session is running; the secret `key` stops other clients from guessing
/// session ids and cancelling queries that are not theirs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionTicket {
    /// Server-assigned session id.
    pub session: u64,
    /// Per-session cancellation secret.
    pub key: u64,
}

/// Per-request execution options: one struct for everything that shapes how
/// a statement runs, instead of one method per combination.
///
/// * `deadline` — overall budget. Enforced twice: forwarded to the server
///   (cooperative kill at the statement's next cancellation checkpoint) and
///   armed client-side as a bounded response wait, so even a server that
///   never starts the statement surfaces a typed `timeout`.
/// * `retry` — automatic retry policy. On a [`ConnectionPool`] each attempt
///   checks out a fresh connection; on a bare [`ServiceConn`] attempts
///   replay on the same session and stop early if the transport broke.
///   `deadline` is the budget across all attempts, backoff waits included.
///   A typed insert replays only when it provably did not apply (see
///   [`ConnectionPool::insert_with`]).
///
/// `QueryOptions::default()` means: no deadline, no retry — identical to
/// the plain [`ServiceConn::query`].
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    /// Overall budget for the request (across all retry attempts), or
    /// `None` for unbounded.
    pub deadline: Option<Duration>,
    /// Retry policy, or `None` for a single attempt.
    pub retry: Option<RetryPolicy>,
}

impl QueryOptions {
    /// No deadline, no retry.
    pub fn new() -> QueryOptions {
        QueryOptions::default()
    }

    /// Set the overall deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> QueryOptions {
        self.deadline = Some(deadline);
        self
    }

    /// Enable retry under `policy`.
    pub fn with_retry(mut self, policy: RetryPolicy) -> QueryOptions {
        self.retry = Some(policy);
        self
    }
}

/// What is left of `deadline` as a wire deadline in milliseconds (0 = none),
/// clamped up to 1ms so "almost spent" still reads as a bound.
fn remaining_ms(deadline: Option<&Deadline>) -> u64 {
    deadline.map_or(0, |dl| (dl.remaining().as_millis() as u64).max(1))
}

/// One framed connection to a query service.
pub struct ServiceConn {
    conn: TcpConn,
    /// Set when the transport or protocol desynchronized; the connection
    /// must not be reused (the pool drops it instead of returning it).
    broken: bool,
    /// Set while a written request's reply is unread: the session cannot
    /// take another request, so until then the connection counts as broken.
    reply_pending: bool,
    /// Statement ids prepared on this session and not yet released —
    /// server-side plan pins counting against the per-session cap. The
    /// pool releases them when a checkout ends (handles are lost on drop,
    /// so an unreleased pin could never be used again anyway).
    open_stmts: Vec<u32>,
    /// The server's explicit retryability verdict from the most recent
    /// wire `Error` frame, if the last request failed with one. `None`
    /// after a success or a transport-level failure (for those, classify
    /// via [`CsqError::retryable`] instead).
    last_retryable: Option<bool>,
    /// Result rows received during the most recent result stream. The
    /// retry layer replays a failed query only when this is zero — once
    /// any row was delivered, a replay could double-observe side effects
    /// or silently re-read a prefix.
    last_rows_received: u64,
}

impl ServiceConn {
    /// Connect to a service address.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<ServiceConn> {
        Ok(ServiceConn {
            conn: TcpConn::connect(addr)?,
            broken: false,
            reply_pending: false,
            open_stmts: Vec::new(),
            last_retryable: None,
            last_rows_received: 0,
        })
    }

    /// Client-side byte/message accounting (sends are uplink, receives are
    /// downlink — the client's view of the same wire the server counts),
    /// kept by the connection itself.
    pub fn stats(&self) -> &NetStats {
        self.conn.stats()
    }

    /// True when a transport/protocol failure poisoned this connection, or
    /// a request's reply is still unread.
    pub fn is_broken(&self) -> bool {
        self.broken || self.reply_pending
    }

    /// The server's retryability verdict for the last request, when it
    /// failed with a wire `Error` frame; `None` otherwise (success, or a
    /// transport failure — classify those with [`CsqError::retryable`]).
    pub fn last_error_retryable(&self) -> Option<bool> {
        self.last_retryable
    }

    /// The error for a `reply` other than the `expected` one. A wire
    /// `Error` frame is its typed error: the server's retryability verdict
    /// is remembered, and a fatal one (admission refusal, shutdown; the
    /// server closes the socket after it) poisons the connection, which
    /// must not go back into a pool. Anything else desynchronized the
    /// stream.
    fn unexpected(&mut self, reply: QueryResponse, expected: &str) -> CsqError {
        if let QueryResponse::Error {
            kind,
            message,
            fatal,
            retryable,
        } = reply
        {
            self.broken |= fatal;
            self.last_retryable = Some(retryable);
            return CsqError::from_kind(&kind, message);
        }
        self.broken = true;
        CsqError::Net(format!(
            "protocol violation: expected {expected}, got {reply:?}"
        ))
    }

    fn send(&mut self, req: &QueryRequest) -> Result<()> {
        self.send_payload(&req.encode())
    }

    fn send_payload(&mut self, payload: &[u8]) -> Result<()> {
        self.conn.send(payload).inspect_err(|_| {
            self.broken = true;
        })
    }

    fn recv(&mut self) -> Result<QueryResponse> {
        match self.conn.recv() {
            Ok(Frame::Payload(buf)) => {
                // Zero-copy: row payloads stay views of the frame buffer.
                let buf = Arc::new(buf);
                QueryResponse::decode_shared(&buf).inspect_err(|_| {
                    self.broken = true;
                })
            }
            Ok(Frame::Closed) => {
                self.broken = true;
                Err(CsqError::Net("server closed the connection".into()))
            }
            Ok(Frame::TimedOut) => {
                // Only possible while a response deadline is armed: the
                // server blew the budget (or this session is parked in the
                // service's admission queue and never started). Broken
                // either way — a late response frame would desync the
                // stream.
                self.broken = true;
                Err(CsqError::Timeout(
                    "no response within the query deadline".into(),
                ))
            }
            Err(e) => {
                self.broken = true;
                Err(e)
            }
        }
    }

    /// Drain one result stream (after `Query`/`Execute`/`Insert` was sent).
    fn read_result(&mut self) -> Result<RemoteResult> {
        let columns = match self.recv()? {
            QueryResponse::Begin { columns } => columns,
            other => return Err(self.unexpected(other, "Begin")),
        };
        let mut rows = Vec::new();
        loop {
            match self.recv()? {
                QueryResponse::Rows(chunk) => {
                    self.last_rows_received += chunk.len() as u64;
                    // The first chunk is the answer's Vec; later ones extend it.
                    if rows.is_empty() {
                        rows = chunk;
                    } else {
                        rows.extend(chunk);
                    }
                }
                QueryResponse::End {
                    rows: n,
                    affected,
                    plan_cache_hit,
                } => {
                    if n as usize != rows.len() {
                        self.broken = true;
                        return Err(CsqError::Net(format!(
                            "protocol violation: End declared {n} rows, received {}",
                            rows.len()
                        )));
                    }
                    return Ok(RemoteResult {
                        columns,
                        rows,
                        affected,
                        plan_cache_hit,
                    });
                }
                other => return Err(self.unexpected(other, "Rows/End")),
            }
        }
    }

    /// Execute one SQL statement under `opts`, collecting the full result.
    ///
    /// With `opts.retry` set, failed attempts replay **on this same
    /// session** when the error is retryable, no result rows were received
    /// (a replay must not double-observe a partial stream), and the
    /// transport is still healthy — a broken connection ends the loop
    /// immediately, since this method cannot re-dial (use
    /// [`ConnectionPool::query_with`] for that). An SQL `INSERT` whose
    /// answer was lost may replay: send writes with
    /// [`insert_with`](Self::insert_with).
    pub fn query_with(&mut self, sql: &str, opts: &QueryOptions) -> Result<RemoteResult> {
        self.run_with(opts, Encoded::new(&QueryRequest::sql(sql)))
    }

    /// Append typed `rows` to `table` under `opts` (a
    /// [`QueryRequest::Insert`], encoded once); returns the rows stored.
    /// It replays only on the server's retryable `Error` frame, sent before
    /// anything is stored. Sent and never answered, it fails
    /// `indeterminate` instead of replaying.
    pub fn insert_with(&mut self, table: &str, rows: &[Row], opts: &QueryOptions) -> Result<u64> {
        Ok(self.run_with(opts, Encoded::insert(table, rows))?.affected)
    }

    /// [`query_with`](Self::query_with) without options: no deadline, one
    /// attempt.
    pub fn query(&mut self, sql: &str) -> Result<RemoteResult> {
        self.query_with(sql, &QueryOptions::default())
    }

    /// Issue one request under `opts`: each attempt writes it and reads
    /// its result stream under what is left of the budget. Without
    /// `opts.retry` this is a single attempt.
    fn run_with(&mut self, opts: &QueryOptions, mut req: Encoded) -> Result<RemoteResult> {
        let deadline = opts.deadline.map(Deadline::from_timeout);
        let dl = deadline.as_ref();
        let mut attempt = || {
            let done = self
                .write(&mut req, dl)
                .and_then(|()| self.read_reply(&req, dl));
            done.map_err(|(e, replay)| (e, replay && !self.broken))
        };
        let first = attempt();
        retry(opts.retry.as_ref(), dl, first, attempt)
    }

    /// Write one attempt of `req` under what is left of the deadline `dl`.
    /// Dropped with the reply unread, the connection is discarded, never
    /// returned to a pool.
    fn write(&mut self, req: &mut Encoded, dl: Option<&Deadline>) -> AttemptResult<()> {
        self.last_retryable = None;
        self.last_rows_received = 0;
        self.send_payload(req.payload(remaining_ms(dl)))
            .map_err(|e| self.failed(req, e))?;
        self.reply_pending = true;
        Ok(())
    }

    /// Read the reply to the attempt just written, under what is left of
    /// `dl`. A write that answered neither `End` nor an `Error` frame
    /// fails `indeterminate`: it may have been applied.
    fn read_reply(&mut self, req: &Encoded, dl: Option<&Deadline>) -> AttemptResult<RemoteResult> {
        self.reply_pending = false;
        self.read_result_within(remaining_ms(dl)).map_err(|e| {
            let e = if req.is_write() && self.last_retryable.is_none() {
                CsqError::Indeterminate(format!("write outcome unknown: sent, then {e}"))
            } else {
                e
            };
            self.failed(req, e)
        })
    }

    /// `e`, paired with whether the attempt that failed with it may be
    /// replayed. A read may when the failure is retryable — the server's
    /// wire verdict, else [`CsqError::retryable`] — and it delivered no
    /// row. A write may only on the server's retryable `Error` frame.
    fn failed(&self, req: &Encoded, e: CsqError) -> (CsqError, bool) {
        let retryable = self
            .last_retryable
            .unwrap_or_else(|| !req.is_write() && e.retryable());
        (e, retryable && self.last_rows_received == 0)
    }

    /// Extra slack on the client-side response timeout beyond the server's
    /// deadline: covers scheduling jitter plus the error frame's travel
    /// time, so the server's *typed* answer wins the race when both sides
    /// enforce the same budget.
    const RESPONSE_GRACE: Duration = Duration::from_millis(500);

    /// [`read_result`](Self::read_result) with a client-side backstop: when
    /// a deadline is set, the connection's idle timeout is armed for the
    /// duration of the result stream so the wait is bounded even if the
    /// server never starts the statement. `deadline_ms == 0` reads
    /// unbounded, matching [`query`](Self::query).
    fn read_result_within(&mut self, deadline_ms: u64) -> Result<RemoteResult> {
        if deadline_ms == 0 {
            return self.read_result();
        }
        self.conn.set_idle_timeout(Some(
            Duration::from_millis(deadline_ms) + Self::RESPONSE_GRACE,
        ));
        let result = self.read_result();
        self.conn.set_idle_timeout(None);
        result
    }

    /// Prepare a SELECT for repeated execution on this session. Returns the
    /// handle plus whether the server's plan cache already had the plan.
    pub fn prepare(&mut self, sql: &str) -> Result<(StatementHandle, bool)> {
        self.last_retryable = None;
        self.send(&QueryRequest::Prepare { sql: sql.into() })?;
        match self.recv()? {
            QueryResponse::Prepared {
                stmt,
                plan_cache_hit,
            } => {
                self.open_stmts.push(stmt);
                Ok((StatementHandle { id: stmt }, plan_cache_hit))
            }
            other => Err(self.unexpected(other, "Prepared")),
        }
    }

    /// Execute a prepared statement under `opts`. Prepared handles are
    /// session-local, so retry here replays on this same session under the
    /// same safety rules as [`query_with`](Self::query_with) (retryable
    /// error, zero rows received, transport healthy).
    pub fn execute_with(
        &mut self,
        stmt: StatementHandle,
        opts: &QueryOptions,
    ) -> Result<RemoteResult> {
        self.run_with(
            opts,
            Encoded::new(&QueryRequest::Execute {
                stmt: stmt.id,
                deadline_ms: 0,
            }),
        )
    }

    /// [`execute_with`](Self::execute_with) without options: no deadline,
    /// one attempt.
    pub fn execute(&mut self, stmt: StatementHandle) -> Result<RemoteResult> {
        self.execute_with(stmt, &QueryOptions::default())
    }

    /// Fetch this session's out-of-band cancellation credentials. Hand the
    /// ticket to [`ServiceConn::cancel_query`] on a *different* connection
    /// to cancel whatever this session is running.
    pub fn session_info(&mut self) -> Result<SessionTicket> {
        self.last_retryable = None;
        self.send(&QueryRequest::SessionInfo)?;
        match self.recv()? {
            QueryResponse::Session { id, key } => Ok(SessionTicket { session: id, key }),
            other => Err(self.unexpected(other, "Session")),
        }
    }

    /// Ask the server to cancel the query running on another session
    /// (fire-and-forget, like Postgres' out-of-band cancel: no reply, and
    /// a wrong ticket is silently ignored). The *target* observes the
    /// cancellation as a typed `cancelled` error on its own connection.
    pub fn cancel_query(&mut self, ticket: SessionTicket) -> Result<()> {
        self.send(&QueryRequest::CancelQuery {
            session: ticket.session,
            key: ticket.key,
        })
    }

    /// Release a prepared statement's server-side pin (fire-and-forget —
    /// no round trip; the server processes it before any later request on
    /// this session). The handle must not be executed afterwards.
    pub fn close_statement(&mut self, stmt: StatementHandle) -> Result<()> {
        self.open_stmts.retain(|&id| id != stmt.id);
        self.send(&QueryRequest::CloseStmt { stmt: stmt.id })
    }

    /// Release every prepared statement still pinned on this session
    /// (fire-and-forget). The pool calls this when a checkout ends so pins
    /// cannot accumulate across users of a recycled connection.
    pub fn release_statements(&mut self) -> Result<()> {
        for id in std::mem::take(&mut self.open_stmts) {
            self.send(&QueryRequest::CloseStmt { stmt: id })?;
        }
        Ok(())
    }

    /// Gracefully end the session.
    pub fn close(mut self) {
        let _ = self.send(&QueryRequest::Close);
        self.conn.shutdown();
    }
}

/// How long [`ConnectionPool::get`] waits for a free slot before giving up
/// with a typed `timeout` error. Generous — it exists so a wedged or
/// saturated pool turns into a diagnosable error instead of a parked thread
/// forever; latency-sensitive callers pass their own budget via
/// [`ConnectionPool::get_within`].
pub const DEFAULT_CHECKOUT_WAIT: Duration = Duration::from_secs(30);

/// Retry policy for [`QueryOptions::retry`]: how many attempts and how to
/// wait between them. The overall wall-clock budget is
/// [`QueryOptions::deadline`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, including the first (min 1).
    pub max_attempts: u32,
    /// Seeded backoff schedule between attempts.
    pub backoff: Backoff,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            backoff: Backoff::default(),
        }
    }
}

/// A bounded pool of service connections shared by many threads.
///
/// Connections are created lazily up to `max`; [`get`](ConnectionPool::get)
/// waits (bounded) when all are checked out — the client-side face of the
/// server's admission backpressure. Internally the pool is a channel of
/// `max` slots — an empty slot means "you may dial", a full one carries an
/// idle connection; the channel's recv is the wait queue.
pub struct ConnectionPool {
    addr: std::net::SocketAddr,
    slots_tx: Sender<Option<ServiceConn>>,
    slots_rx: Receiver<Option<ServiceConn>>,
    checkout_wait: Duration,
}

impl ConnectionPool {
    /// A pool of up to `max` connections to `addr`.
    ///
    /// Size `max` for the client's own concurrency (how many statements it
    /// wants in flight at once), bounded by the service's
    /// `ServiceConfig::max_sessions`. An idle pooled connection parks in
    /// the server's session scheduler at near-zero cost — it does *not*
    /// pin a server worker — so pools well above the server's worker count
    /// are fine; the worker count only bounds how many of the pool's
    /// statements execute simultaneously.
    pub fn new(addr: impl ToSocketAddrs, max: usize) -> Result<ConnectionPool> {
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| CsqError::Net(format!("resolve pool address: {e}")))?
            .next()
            .ok_or_else(|| CsqError::Net("pool address resolved to nothing".into()))?;
        let max = max.max(1);
        let (slots_tx, slots_rx) = bounded(max);
        for _ in 0..max {
            let _ = slots_tx.send(None);
        }
        Ok(ConnectionPool {
            addr,
            slots_tx,
            slots_rx,
            checkout_wait: DEFAULT_CHECKOUT_WAIT,
        })
    }

    /// Override the default checkout wait used by [`get`](ConnectionPool::get).
    pub fn with_checkout_wait(mut self, wait: Duration) -> ConnectionPool {
        self.checkout_wait = wait;
        self
    }

    /// Check out a connection, dialing a fresh one if this slot has none.
    /// Waits up to the pool's checkout wait (default
    /// [`DEFAULT_CHECKOUT_WAIT`]) while all `max` connections are in use,
    /// then fails with a typed `timeout` error instead of blocking forever.
    pub fn get(&self) -> Result<PooledConn<'_>> {
        self.get_within(self.checkout_wait)
    }

    /// Check out a connection, waiting at most `wait` for a free slot.
    /// Fails with a typed `timeout` error once the budget is spent.
    pub fn get_within(&self, wait: Duration) -> Result<PooledConn<'_>> {
        let slot = match self.slots_rx.recv_timeout(wait) {
            Ok(slot) => slot,
            Err(RecvTimeoutError::Timeout) => {
                return Err(CsqError::Timeout(format!(
                    "connection pool checkout timed out after {wait:?} (all connections busy)"
                )));
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Err(CsqError::Net("connection pool closed".into()));
            }
        };
        let conn = match slot {
            Some(conn) => conn,
            None => match ServiceConn::connect(self.addr) {
                Ok(conn) => conn,
                Err(e) => {
                    // Give the slot back so a later caller can retry.
                    let _ = self.slots_tx.send(None);
                    return Err(e);
                }
            },
        };
        Ok(PooledConn {
            pool: self,
            conn: Some(conn),
        })
    }

    /// Execute `sql` under `opts`: checkout, deadline, and (when
    /// `opts.retry` is set) automatic retry with a fresh checkout per
    /// attempt.
    ///
    /// An attempt is retried only when **all** of these hold:
    /// * the failure is retryable — the server's explicit wire verdict
    ///   when an `Error` frame arrived, otherwise the client-side
    ///   [`CsqError::retryable`] classification (net/codec/timeout);
    /// * **zero result rows** were received by the failed attempt, so a
    ///   replay cannot double-observe a partially-delivered stream;
    /// * attempts and wall-clock budget remain, and the next backoff wait
    ///   fits inside the remaining budget.
    ///
    /// An SQL `INSERT` whose answer was lost may replay: send writes with
    /// [`insert_with`](Self::insert_with).
    ///
    /// The remaining budget (checkout, wire time and backoff waits all
    /// count against `opts.deadline`) is also forwarded as each attempt's
    /// server-side query deadline, so no attempt outlives the caller's
    /// patience.
    pub fn query_with(&self, sql: &str, opts: &QueryOptions) -> Result<RemoteResult> {
        self.send(&QueryRequest::sql(sql), opts).finish()
    }

    /// [`ServiceConn::insert_with`] with a fresh checkout per attempt. An
    /// attempt is retried only when it provably did not apply: the checkout
    /// failed retryably, or the server answered a retryable `Error` frame.
    pub fn insert_with(&self, table: &str, rows: &[Row], opts: &QueryOptions) -> Result<u64> {
        let flight = self.send_encoded(Encoded::insert(table, rows), opts);
        Ok(flight.finish()?.affected)
    }

    /// The first half of one request under `opts`: check out a connection
    /// and write the first attempt under the budget's server deadline.
    /// [`InFlight::finish`] is the second half.
    pub fn send<'a>(&'a self, req: &QueryRequest, opts: &'a QueryOptions) -> InFlight<'a> {
        self.send_encoded(Encoded::new(req), opts)
    }

    fn send_encoded<'a>(&'a self, mut req: Encoded, opts: &'a QueryOptions) -> InFlight<'a> {
        let deadline = opts.deadline.map(Deadline::from_timeout);
        let first = match self.write(&mut req, deadline.as_ref()) {
            Ok(conn) => First::Written(Box::new(conn)),
            Err(failed) => First::Done(Err(failed)),
        };
        InFlight {
            pool: self,
            req,
            retry: opts.retry.as_ref(),
            deadline,
            first,
        }
    }

    /// Check out a connection and write one attempt of `req` on it under
    /// what is left of `dl`.
    fn write(&self, req: &mut Encoded, dl: Option<&Deadline>) -> AttemptResult<PooledConn<'_>> {
        let wait = dl.map_or(self.checkout_wait, Deadline::remaining);
        let mut conn = self.get_within(wait.min(self.checkout_wait)).map_err(|e| {
            let replay = e.retryable();
            (e, replay)
        })?;
        conn.write(req, dl)?;
        Ok(conn)
    }
}

/// An attempt's outcome: its value, or its error paired with whether the
/// attempt may be replayed.
type AttemptResult<T> = std::result::Result<T, (CsqError, bool)>;

/// A request [`ConnectionPool::send`] started and [`InFlight::finish`] has
/// not ended. Dropped with its reply unread, its connection is discarded,
/// never returned to the pool with a reply pending.
pub struct InFlight<'a> {
    pool: &'a ConnectionPool,
    req: Encoded,
    retry: Option<&'a RetryPolicy>,
    deadline: Option<Deadline>,
    first: First<'a>,
}

/// The first attempt of an [`InFlight`] request.
enum First<'a> {
    /// Written on this connection; its reply is unread.
    Written(Box<PooledConn<'a>>),
    /// Its outcome: the reply, or the failure to write or read it.
    Done(AttemptResult<RemoteResult>),
}

impl InFlight<'_> {
    /// Read the first attempt's reply to its end, if not yet read, and give
    /// its connection back. A caller holding several flights reads each
    /// before it finishes any: no reply waits behind another's replays.
    pub fn read(&mut self) {
        if let First::Written(conn) = &mut self.first {
            self.first = First::Done(conn.read_reply(&self.req, self.deadline.as_ref()));
        }
    }

    /// The second half of the request: read the first attempt's reply
    /// under what is left of the budget and, while §10's rules allow a
    /// replay, run the pool's retry loop on fresh checkouts.
    pub fn finish(self) -> Result<RemoteResult> {
        let InFlight {
            pool,
            mut req,
            retry: policy,
            deadline,
            first,
        } = self;
        let dl = deadline.as_ref();
        let first = match first {
            First::Written(mut conn) => conn.read_reply(&req, dl),
            First::Done(outcome) => outcome,
        };
        retry(policy, dl, first, || {
            pool.write(&mut req, dl)?.read_reply(&req, dl)
        })
    }
}

/// The retry loop behind every `*_with` call of [`ServiceConn`] and
/// [`ConnectionPool`]: `outcome` is the first attempt's. While an attempt
/// fails in a way it says may be replayed (the `bool`), and `policy`'s
/// attempts and the `deadline` allow, back off and run `attempt` again.
fn retry(
    policy: Option<&RetryPolicy>,
    deadline: Option<&Deadline>,
    mut outcome: AttemptResult<RemoteResult>,
    mut attempt: impl FnMut() -> AttemptResult<RemoteResult>,
) -> Result<RemoteResult> {
    let mut n = 0;
    loop {
        let (e, may_replay) = match outcome {
            Ok(result) => return Ok(result),
            Err(failed) => failed,
        };
        n += 1;
        let again = may_replay
            && policy.is_some_and(|p| n < p.max_attempts && p.backoff.sleep(n - 1, deadline))
            && !deadline.is_some_and(Deadline::expired);
        if !again {
            return Err(e);
        }
        outcome = attempt();
    }
}

/// A checked-out pool connection; returns itself (or its empty slot, when
/// broken) to the pool on drop.
pub struct PooledConn<'a> {
    pool: &'a ConnectionPool,
    conn: Option<ServiceConn>,
}

impl Deref for PooledConn<'_> {
    type Target = ServiceConn;
    fn deref(&self) -> &ServiceConn {
        self.conn.as_ref().expect("pooled connection taken")
    }
}

impl DerefMut for PooledConn<'_> {
    fn deref_mut(&mut self) -> &mut ServiceConn {
        self.conn.as_mut().expect("pooled connection taken")
    }
}

impl Drop for PooledConn<'_> {
    fn drop(&mut self) {
        let Some(mut conn) = self.conn.take() else {
            return; // already returned (cannot happen today, but stay quiet)
        };
        // Prepared handles die with the checkout, so their server-side
        // pins must too — otherwise a recycled connection accumulates
        // pins until the per-session cap refuses every future prepare.
        let _ = conn.release_statements();
        let slot = if conn.is_broken() { None } else { Some(conn) };
        let _ = self.pool.slots_tx.send(slot);
    }
}
