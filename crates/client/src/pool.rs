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

    /// The wire deadline in milliseconds (0 = none), clamped up to 1ms so a
    /// sub-millisecond budget still reads as a bound.
    fn deadline_ms(&self) -> u64 {
        match self.deadline {
            Some(d) => (d.as_millis() as u64).max(1),
            None => 0,
        }
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
    stats: NetStats,
    /// Set when the transport or protocol desynchronized; the connection
    /// must not be reused (the pool drops it instead of returning it).
    broken: bool,
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
            stats: NetStats::new(),
            broken: false,
            open_stmts: Vec::new(),
            last_retryable: None,
            last_rows_received: 0,
        })
    }

    /// Client-side byte/message accounting (sends are uplink, receives are
    /// downlink — the client's view of the same wire the server counts).
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// True when a transport/protocol failure poisoned this connection.
    pub fn is_broken(&self) -> bool {
        self.broken
    }

    /// The server's retryability verdict for the last request, when it
    /// failed with a wire `Error` frame; `None` otherwise (success, or a
    /// transport failure — classify those with [`CsqError::retryable`]).
    pub fn last_error_retryable(&self) -> Option<bool> {
        self.last_retryable
    }

    /// Record a wire `Error` frame: remember the server's retryability
    /// verdict, poison the connection if the server said fatal (it closes
    /// the socket after a fatal reply), and produce the typed error.
    fn wire_error(
        &mut self,
        kind: &str,
        message: String,
        fatal: bool,
        retryable: bool,
    ) -> CsqError {
        self.broken |= fatal;
        self.last_retryable = Some(retryable);
        CsqError::from_kind(kind, message)
    }

    fn send(&mut self, req: &QueryRequest) -> Result<()> {
        self.send_payload(&req.encode())
    }

    fn send_payload(&mut self, payload: &[u8]) -> Result<()> {
        self.stats
            .record_up(payload.len() + csq_net::FRAME_HEADER_BYTES);
        self.conn.send(payload).inspect_err(|_| {
            self.broken = true;
        })
    }

    fn recv(&mut self) -> Result<QueryResponse> {
        match self.conn.recv() {
            Ok(Frame::Payload(buf)) => {
                self.stats
                    .record_down(buf.len() + csq_net::FRAME_HEADER_BYTES);
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
            QueryResponse::Error {
                kind,
                message,
                fatal,
                retryable,
            } => {
                // A fatal error (admission refusal, server shutdown) means
                // the server closes this connection after replying — it
                // must not go back into a pool.
                return Err(self.wire_error(&kind, message, fatal, retryable));
            }
            other => {
                self.broken = true;
                return Err(CsqError::Net(format!(
                    "protocol violation: expected Begin, got {other:?}"
                )));
            }
        };
        let mut rows = Vec::new();
        loop {
            match self.recv()? {
                QueryResponse::Rows(chunk) => {
                    self.last_rows_received += chunk.len() as u64;
                    rows.extend(chunk);
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
                QueryResponse::Error {
                    kind,
                    message,
                    fatal,
                    retryable,
                } => {
                    return Err(self.wire_error(&kind, message, fatal, retryable));
                }
                other => {
                    self.broken = true;
                    return Err(CsqError::Net(format!(
                        "protocol violation: expected Rows/End, got {other:?}"
                    )));
                }
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
        self.run_with(
            opts,
            Encoded::new(&QueryRequest::Query {
                sql: sql.into(),
                deadline_ms: 0,
            }),
        )
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

    /// Issue one request under `opts`: each attempt sends it under its
    /// millisecond deadline (0 = none) and reads the result stream under
    /// the same budget. Without `opts.retry` this is a single attempt.
    fn run_with(&mut self, opts: &QueryOptions, mut req: Encoded) -> Result<RemoteResult> {
        let Some(policy) = &opts.retry else {
            return self.attempt(&mut req, opts.deadline_ms());
        };
        retry(policy, opts.deadline, |deadline| {
            self.attempt(&mut req, remaining_ms(deadline)).map_err(|e| {
                let replay = !self.broken && self.may_replay(&req, &e);
                (e, replay)
            })
        })
    }

    /// One attempt on the wire under a millisecond deadline (0 = none). A
    /// write that was sent and then answered neither `End` nor an `Error`
    /// frame fails `indeterminate`: it may have been applied.
    fn attempt(&mut self, req: &mut Encoded, deadline_ms: u64) -> Result<RemoteResult> {
        self.last_retryable = None;
        self.last_rows_received = 0;
        self.send_payload(req.payload(deadline_ms))?;
        self.read_result_within(deadline_ms).map_err(|e| {
            if req.is_write() && self.last_retryable.is_none() {
                CsqError::Indeterminate(format!("write outcome unknown: sent, then {e}"))
            } else {
                e
            }
        })
    }

    /// Whether the attempt that just failed with `e` may be replayed. A
    /// read may when the failure is retryable — the server's wire verdict,
    /// else [`CsqError::retryable`] — and it delivered no row. A write may
    /// only on the server's retryable `Error` frame.
    fn may_replay(&self, req: &Encoded, e: &CsqError) -> bool {
        let retryable = self
            .last_retryable
            .unwrap_or_else(|| !req.is_write() && e.retryable());
        retryable && self.last_rows_received == 0
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
            QueryResponse::Error {
                kind,
                message,
                fatal,
                retryable,
            } => Err(self.wire_error(&kind, message, fatal, retryable)),
            other => {
                self.broken = true;
                Err(CsqError::Net(format!(
                    "protocol violation: expected Prepared, got {other:?}"
                )))
            }
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
            QueryResponse::Error {
                kind,
                message,
                fatal,
                retryable,
            } => Err(self.wire_error(&kind, message, fatal, retryable)),
            other => {
                self.broken = true;
                Err(CsqError::Net(format!(
                    "protocol violation: expected Session, got {other:?}"
                )))
            }
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
        self.run_with(
            Encoded::new(&QueryRequest::Query {
                sql: sql.into(),
                deadline_ms: 0,
            }),
            opts,
        )
    }

    /// [`ServiceConn::insert_with`] with a fresh checkout per attempt. An
    /// attempt is retried only when it provably did not apply: the checkout
    /// failed retryably, or the server answered a retryable `Error` frame.
    pub fn insert_with(&self, table: &str, rows: &[Row], opts: &QueryOptions) -> Result<u64> {
        Ok(self.run_with(Encoded::insert(table, rows), opts)?.affected)
    }

    /// Send a typed read ([`QueryRequest::Fetch`]) under `opts`, retried as
    /// [`query_with`](Self::query_with) retries: a read changes nothing, so
    /// it is never `indeterminate`.
    pub fn fetch_with(&self, fetch: &QueryRequest, opts: &QueryOptions) -> Result<RemoteResult> {
        self.run_with(Encoded::new(fetch), opts)
    }

    /// [`query_with`](Self::query_with), [`insert_with`](Self::insert_with)
    /// and [`fetch_with`](Self::fetch_with)
    /// over an encoded request: each attempt checks out a connection and
    /// sends `req` under what is left of the budget.
    fn run_with(&self, mut req: Encoded, opts: &QueryOptions) -> Result<RemoteResult> {
        let Some(policy) = &opts.retry else {
            return self.get()?.attempt(&mut req, opts.deadline_ms());
        };
        retry(policy, opts.deadline, |deadline| {
            let checkout = match deadline {
                Some(dl) => self.get_within(dl.remaining().min(self.checkout_wait)),
                None => self.get(),
            };
            let mut conn = checkout.map_err(|e| {
                let replay = e.retryable();
                (e, replay)
            })?;
            // The slot goes back (or is discarded) before any backoff wait.
            conn.attempt(&mut req, remaining_ms(deadline)).map_err(|e| {
                let replay = conn.may_replay(&req, &e);
                (e, replay)
            })
        })
    }
}

/// The retry loop behind every `*_with` call of [`ServiceConn`] and
/// [`ConnectionPool`]: run `attempt` under the deadline of the overall
/// `budget` until it succeeds, fails in a way it says may not be replayed
/// (the `bool`), or attempts or budget run out, backing off in between.
fn retry(
    policy: &RetryPolicy,
    budget: Option<Duration>,
    mut attempt: impl FnMut(Option<&Deadline>) -> std::result::Result<RemoteResult, (CsqError, bool)>,
) -> Result<RemoteResult> {
    let deadline = budget.map(Deadline::from_timeout);
    let attempts = policy.max_attempts.max(1);
    let mut last_err = None;
    for n in 0..attempts {
        if deadline.as_ref().is_some_and(Deadline::expired) {
            return Err(last_err.unwrap_or_else(|| {
                CsqError::Timeout("retry budget exhausted before any attempt".into())
            }));
        }
        match attempt(deadline.as_ref()) {
            Ok(result) => return Ok(result),
            Err((e, may_replay)) => {
                if !may_replay || n + 1 == attempts || !policy.backoff.sleep(n, deadline.as_ref()) {
                    return Err(e);
                }
                last_err = Some(e);
            }
        }
    }
    unreachable!("retry loop always returns on its last attempt")
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
