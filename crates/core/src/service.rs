//! The socket-backed query service: many clients, one database.
//!
//! Architecture (DESIGN.md §12): a connection is a **lightweight session
//! object**, and only *runnable work* occupies a worker. Three kinds of
//! thread cooperate:
//!
//! * The **accept loop** owns the TCP listener and admits connections under
//!   [`ServiceConfig::max_sessions`] — a bound on *connections*, not on
//!   execution concurrency. Refused connections get a fatal `limit` error.
//! * The **session scheduler** (one poller thread) parks every admitted
//!   session and waits for readiness with `poll(2)`
//!   ([`csq_net::ready::poll_readable`]): an idle connection
//!   costs one pollfd entry and its receive buffer, nothing else. When a
//!   complete request frame arrives (non-blocking, resumable reads on the
//!   framed [`TcpConn`]), the statement becomes a job on the
//!   [`csq_exec::WorkerPool`]; memory-only requests
//!   (`SessionInfo`, `CancelQuery`, `CloseStmt`) are answered inline so
//!   they work even when every worker is busy. Ready sessions are swept in
//!   rotating order, so one chatty client cannot starve the rest.
//! * The **workers** (the pool, sized by [`ServiceConfig::workers`])
//!   execute one statement at a time: plan through the database's
//!   [`PlanCache`](crate::PlanCache), encode the result's bounded chunks
//!   straight from the executor's output batches — encoded in full, then
//!   sent over the session's connection (flipped to blocking mode for the
//!   write) — then hand the session back to the scheduler and pick up the
//!   next job.
//!
//! A session therefore moves `Reading → Queued → Executing → Writing →
//! Reading`: the scheduler owns it while Reading, the pool queue while
//! Queued, and exactly one worker while Executing/Writing — it is never
//! shared, only moved. Each session has at most one statement in flight
//! (the scheduler does not read from a session it has handed to a worker),
//! which both preserves per-session request ordering and is the fairness
//! unit.
//!
//! **Admission vs. work bounds.** `max_sessions` caps connections;
//! [`ServiceConfig::shed_queue_depth`] caps the statements waiting for a
//! worker — a statement past it is answered with a *survivable*, retryable
//! `limit` error (the session stays open; the client backs off and retries
//! on the same connection).
//!
//! **Error isolation.** A session can die three ways — malformed frame,
//! mid-stream disconnect, or a query that fails (or panics) — and none of
//! them may take the process, a worker, or any other session with it:
//! query failures answer with a typed `Error` response and the session
//! lives on; transport/protocol failures end only that session; panics are
//! contained by the pool's per-job `catch_unwind` (and answered with an
//! `exec` error when the wire still works).
//!
//! **Graceful shutdown.** [`ServiceHandle::shutdown`] stops the accept
//! loop, wakes the scheduler (which tells every parked client the server
//! is going away), and drains the workers: in-flight statements are
//! answered, then their sessions are told the same and dropped.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use csq_client::qproto::{QueryRequest, QueryResponse};
use csq_common::{CancelToken, CsqError, Result, DEFAULT_BATCH_SIZE};
use csq_exec::WorkerPool;
use csq_net::ready::{poll_readable, wake_pair, Fd, WakeReceiver, Waker};
use csq_net::tcp::{Frame, PollFrame, TcpConn};
use csq_net::{NetStats, FRAME_HEADER_BYTES};
use parking_lot::Mutex;

use crate::plancache::PlannedQuery;
use crate::result::ResultBatches;
use crate::Database;

/// Cap on prepared statements pinned by one session — each pins a full
/// planned query, so an unbounded map would let a single admitted client
/// grow server memory without ever tripping the frame-size cap.
const MAX_PREPARED_PER_SESSION: usize = 256;

/// Inline (memory-only) frames the scheduler answers for one session in a
/// single sweep before yielding to the others — bounds poller time per
/// session, so a client flooding `CancelQuery`s cannot starve the sweep.
const MAX_INLINE_FRAMES_PER_SWEEP: usize = 8;

/// Scheduler wait cap when every parked session is idle: wakeups (new
/// connections, sessions returning from workers, shutdown) interrupt it
/// via the wake pipe, so this only bounds staleness of the stats gauges.
const IDLE_POLL: Duration = Duration::from_millis(500);

/// Tunables for one service instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Statement worker threads — the service's *execution* concurrency.
    /// Connections do not pin workers (the scheduler parks idle sessions
    /// and dispatches only runnable statements), so size this for CPU
    /// parallelism, not for the number of clients: thousands of mostly
    /// idle connections are fine on a handful of workers.
    pub workers: usize,
    /// Cap on concurrently *admitted connections*. Connections beyond this
    /// are refused with a fatal `limit` error instead of accumulating
    /// unboundedly. A parked session costs its receive buffer and a
    /// pollfd entry, so this can be far larger than `workers`.
    pub max_sessions: usize,
    /// Slowloris stall budget: a peer that starts a request frame and then
    /// stops sending is cut off (typed `net` error, counted as a protocol
    /// error) once its partial frame goes this long without progress.
    /// Idle-at-a-frame-boundary connections are *not* subject to it — they
    /// park for free.
    pub idle_timeout: Duration,
    /// Per-frame payload cap for incoming requests.
    pub max_frame: usize,
    /// Write stall budget: a client that stops *reading* its result stream
    /// fails the session's sends after this long instead of pinning a
    /// worker forever (the write-side slowloris guard).
    pub write_timeout: Duration,
    /// Rows per `Rows` frame of a result.
    pub chunk_rows: usize,
    /// The one load-shedding knob, the *work* analog of `max_sessions`:
    /// when every worker is busy and at least this many statements are
    /// already *waiting* for one, a newly arrived statement is refused with
    /// a **survivable, retryable** `limit` error — the session stays open
    /// and a well-behaved client backs off and retries on the same
    /// connection while the queue drains. `0` never queues (a statement
    /// either gets a free worker or is shed). Default: `usize::MAX` (never
    /// shed; each session has at most one statement in flight, so the
    /// queue is still bounded by `max_sessions`).
    pub shed_queue_depth: usize,
}

impl ServiceConfig {
    /// Reject incoherent settings with a typed `config` error. Called by
    /// [`start`]/[`start_on`] on every config, so a bad config fails at
    /// startup instead of misbehaving under load.
    pub fn validate(&self) -> Result<()> {
        let fail = |m: String| Err(CsqError::Config(m));
        if self.workers == 0 {
            return fail("workers must be at least 1".into());
        }
        if self.max_sessions == 0 {
            return fail("max_sessions must be at least 1 (0 admits nobody)".into());
        }
        if self.max_sessions < self.workers {
            return fail(format!(
                "max_sessions ({}) below workers ({}): the extra workers can never be used",
                self.max_sessions, self.workers
            ));
        }
        // usize::MAX is the documented "never shed" sentinel; any other
        // value past the possible queue depth is a threshold that can
        // never trigger — almost certainly a mis-sized knob.
        if self.shed_queue_depth != usize::MAX && self.shed_queue_depth > self.max_sessions {
            return fail(format!(
                "shed_queue_depth ({}) exceeds max_sessions ({}): each session queues at most \
                 one statement, so shedding could never trigger",
                self.shed_queue_depth, self.max_sessions
            ));
        }
        if self.chunk_rows == 0 {
            return fail("chunk_rows must be at least 1".into());
        }
        if self.max_frame == 0 {
            return fail("max_frame must be nonzero".into());
        }
        if self.idle_timeout.is_zero() {
            return fail(
                "idle_timeout must be nonzero (zero cuts off every mid-frame read)".into(),
            );
        }
        if self.write_timeout.is_zero() {
            return fail("write_timeout must be nonzero (zero fails every send)".into());
        }
        Ok(())
    }
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 4,
            max_sessions: 1024,
            idle_timeout: Duration::from_millis(100),
            max_frame: csq_net::DEFAULT_MAX_FRAME,
            write_timeout: Duration::from_secs(10),
            chunk_rows: DEFAULT_BATCH_SIZE,
            shed_queue_depth: usize::MAX,
        }
    }
}

/// Monotonic service counters (all relaxed; read for tests and ops).
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Connections admitted into a session.
    pub accepted: AtomicU64,
    /// Connections refused by the admission bound.
    pub rejected: AtomicU64,
    /// Sessions ended by a transport/protocol fault (truncated, oversized,
    /// undecodable, or mid-frame-stalled frames).
    pub protocol_errors: AtomicU64,
    /// Statements that completed and streamed a full result.
    pub queries_ok: AtomicU64,
    /// Statements answered with an `Error` response.
    pub queries_failed: AtomicU64,
    /// Statements whose execution panicked (contained per session).
    pub panics: AtomicU64,
    /// Statements killed by their own deadline (typed `timeout` answer).
    pub timed_out: AtomicU64,
    /// Statements killed by an out-of-band `CancelQuery` (typed
    /// `cancelled` answer).
    pub cancelled: AtomicU64,
    /// Statements refused by load shedding (survivable retryable `limit`
    /// answer; the session lives on; disjoint from `rejected`, the hard
    /// per-connection admission bound).
    pub shed: AtomicU64,
}

impl ServiceStats {
    fn bump(field: &AtomicU64) {
        field.fetch_add(1, Ordering::Relaxed);
    }
}

/// Live scheduler gauges (instantaneous, unlike the monotonic
/// [`ServiceStats`]); the memory probe for soak tests and ops.
#[derive(Debug, Default)]
pub struct SchedulerStats {
    /// Sessions currently parked in the scheduler (idle or mid-frame).
    pub parked_sessions: AtomicUsize,
    /// Statements waiting in the worker queue.
    pub queued_statements: AtomicUsize,
    /// Statements currently executing on a worker.
    pub executing_statements: AtomicUsize,
    /// Receive-side bytes held by parked sessions (fixed read buffers plus
    /// in-progress partial frames) — the RSS proxy: flat while idle
    /// connections accumulate, growing only with actual inbound traffic.
    pub parked_buffer_bytes: AtomicUsize,
}

/// A live session's out-of-band cancellation state.
struct CancelSlot {
    /// Per-session secret; a `CancelQuery` must present it, so knowing (or
    /// guessing) a session id alone cannot kill someone else's query.
    key: u64,
    /// The cancel token of the statement this session is currently
    /// queueing or executing, if any.
    running: Option<CancelToken>,
}

/// Session id → cancellation state for every live session, shared by the
/// scheduler and all workers (any session may cancel any other, provided
/// it presents the right key — the Postgres out-of-band model, minus the
/// extra listener).
type CancelRegistry = Arc<Mutex<HashMap<u64, CancelSlot>>>;

/// Removes a session's registry entry when the session ends, however it
/// ends (return, disconnect, or panic unwind).
struct Registered {
    registry: CancelRegistry,
    id: u64,
}

impl Drop for Registered {
    fn drop(&mut self) {
        self.registry.lock().remove(&self.id);
    }
}

/// SplitMix64 finalizer — cheap whitening for session keys.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A per-session cancellation secret: unpredictable enough that a client
/// cannot cancel sessions it never spoke to (this is an isolation nicety,
/// not a cryptographic boundary — the service trusts its network).
fn session_key(session_id: u64) -> u64 {
    let clock = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    mix64(session_id ^ clock.rotate_left(17))
}

/// The cancel token for a statement carrying `deadline_ms` (0 = no
/// deadline, cancellable only). Minted when the statement is *queued*, so
/// time spent waiting for a worker counts against the deadline.
fn statement_token(deadline_ms: u64) -> CancelToken {
    if deadline_ms > 0 {
        CancelToken::with_timeout(Duration::from_millis(deadline_ms))
    } else {
        CancelToken::new()
    }
}

/// Decrement-on-drop guard for the admitted-session count; runs whenever
/// the owning [`Session`] is dropped, even on a worker unwind.
struct Admitted(Arc<AtomicUsize>);

impl Drop for Admitted {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One admitted connection: everything a session is, in one movable
/// object. Owned by exactly one thread at a time — the scheduler while
/// parked (Reading), the pool queue while Queued, a worker while
/// Executing/Writing — and moved, never shared. Dropping it anywhere
/// closes the connection and releases the admission slot and cancel
/// registration.
struct Session {
    id: u64,
    key: u64,
    conn: TcpConn,
    /// Prepared statements pinned by this session.
    prepared: HashMap<u32, Arc<PlannedQuery>>,
    next_stmt: u32,
    /// Scheduler hint: bytes may already sit in the connection's read
    /// buffer (invisible to `poll(2)`), so sweep it even if the socket
    /// reports quiet. Set on every (re)injection and early sweep stop.
    maybe_buffered: bool,
    /// Scheduler hint: a request frame is partially read — the slowloris
    /// stall clock ([`TcpConn::partial_age`]) is ticking.
    mid_frame: bool,
    _registered: Registered,
    _admitted: Admitted,
}

/// Everything a scheduler sweep or a worker job needs, cheap to clone.
/// Deliberately does NOT hold the `WorkerPool`: a job holding a pool Arc
/// could become the pool's last owner and join the workers from a worker
/// thread. Only the handle and the poller thread own the pool.
#[derive(Clone)]
struct SchedCtx {
    db: Arc<Database>,
    config: ServiceConfig,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ServiceStats>,
    sched: Arc<SchedulerStats>,
    net: NetStats,
    registry: CancelRegistry,
    /// Workers hand finished sessions back to the scheduler through this.
    inject_tx: Sender<Session>,
    waker: Arc<Waker>,
}

/// A running query service; dropping (or [`shutdown`](Self::shutdown))
/// stops accepting and drains sessions.
pub struct ServiceHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    poller: Option<JoinHandle<()>>,
    pool: Option<Arc<WorkerPool>>,
    stats: Arc<ServiceStats>,
    sched: Arc<SchedulerStats>,
    net: NetStats,
    waker: Arc<Waker>,
}

impl ServiceHandle {
    /// The bound listen address (use with port 0 to discover the port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Service counters.
    pub fn stats(&self) -> &Arc<ServiceStats> {
        &self.stats
    }

    /// Live scheduler gauges (parked sessions, queue depths, buffer bytes).
    pub fn scheduler_stats(&self) -> &Arc<SchedulerStats> {
        &self.sched
    }

    /// Server-side wire accounting across all sessions: sends recorded as
    /// downlink, received requests as uplink, frame headers included.
    pub fn net_stats(&self) -> &NetStats {
        &self.net
    }

    /// Stop accepting, tell idle sessions to finish, and join everything.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the scheduler out of its poll wait; it says goodbye to every
        // parked session and exits.
        self.waker.wake();
        // Unblock the accept loop with a throwaway connection. A wildcard
        // bind (0.0.0.0 / ::) is not itself connectable everywhere, so dial
        // the loopback of the same family instead.
        let wake = if self.addr.ip().is_unspecified() {
            let loopback: std::net::IpAddr = match self.addr {
                SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            };
            SocketAddr::new(loopback, self.addr.port())
        } else {
            self.addr
        };
        match TcpStream::connect_timeout(&wake, Duration::from_millis(500)) {
            Ok(_) => {
                if let Some(h) = self.accept.take() {
                    let _ = h.join();
                }
            }
            Err(_) => {
                // Could not reach our own listener (firewalled wildcard
                // bind, interface gone). The accept thread will observe the
                // flag on its next accept; detach it rather than hang the
                // shutdown on a join that may never return.
                self.accept.take();
            }
        }
        // Join the poller before the pool: the poller owns a pool Arc (it
        // dispatches statements), and joining it also guarantees no new
        // jobs arrive while the pool drains.
        if let Some(h) = self.poller.take() {
            let _ = h.join();
        }
        // Dropping the last Arc on the pool drains queued statements (each
        // answers, sees the shutdown flag, and says goodbye) and joins the
        // workers.
        self.pool.take();
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        if self.accept.is_some() || self.poller.is_some() || self.pool.is_some() {
            self.shutdown_inner();
        }
    }
}

/// Start a query service for `db` on a loopback port chosen by the OS.
pub fn start(db: Arc<Database>, config: ServiceConfig) -> Result<ServiceHandle> {
    start_on(db, ("127.0.0.1", 0), config)
}

/// Start a query service for `db` on `addr`.
pub fn start_on(
    db: Arc<Database>,
    addr: impl ToSocketAddrs,
    config: ServiceConfig,
) -> Result<ServiceHandle> {
    config.validate()?;
    let listener =
        TcpListener::bind(addr).map_err(|e| CsqError::Net(format!("bind service: {e}")))?;
    let local = listener
        .local_addr()
        .map_err(|e| CsqError::Net(format!("service local_addr: {e}")))?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(ServiceStats::default());
    let sched = Arc::new(SchedulerStats::default());
    let net = NetStats::new();
    let pool = Arc::new(WorkerPool::new(config.workers));
    let active = Arc::new(AtomicUsize::new(0));
    let registry: CancelRegistry = Arc::new(Mutex::new(HashMap::new()));
    let (waker, wake_rx) = wake_pair()?;
    let waker = Arc::new(waker);
    let (inject_tx, inject_rx) = unbounded::<Session>();

    let ctx = SchedCtx {
        db,
        config: config.clone(),
        shutdown: shutdown.clone(),
        stats: stats.clone(),
        sched: sched.clone(),
        net: net.clone(),
        registry: registry.clone(),
        inject_tx: inject_tx.clone(),
        waker: waker.clone(),
    };

    let poller = {
        let ctx = ctx.clone();
        let pool = pool.clone();
        std::thread::Builder::new()
            .name("csq-service-poll".into())
            .spawn(move || poller_loop(ctx, pool, inject_rx, wake_rx))
            .map_err(|e| CsqError::Net(format!("spawn scheduler: {e}")))?
    };

    let accept = {
        let shutdown = shutdown.clone();
        let stats = stats.clone();
        let net = net.clone();
        let config = config.clone();
        let registry = registry.clone();
        let waker = waker.clone();
        std::thread::Builder::new()
            .name("csq-service-accept".into())
            .spawn(move || {
                accept_loop(
                    listener, config, shutdown, stats, net, active, registry, inject_tx, waker,
                );
            })
            .map_err(|e| CsqError::Net(format!("spawn accept loop: {e}")))?
    };

    Ok(ServiceHandle {
        addr: local,
        shutdown,
        accept: Some(accept),
        poller: Some(poller),
        pool: Some(pool),
        stats,
        sched,
        net,
        waker,
    })
}

#[allow(clippy::too_many_arguments)]
fn accept_loop(
    listener: TcpListener,
    config: ServiceConfig,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ServiceStats>,
    net: NetStats,
    active: Arc<AtomicUsize>,
    registry: CancelRegistry,
    inject_tx: Sender<Session>,
    waker: Arc<Waker>,
) {
    let next_session = AtomicU64::new(1);
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else {
            continue; // Transient accept failure; keep serving.
        };
        let Ok(conn) = TcpConn::with_max_frame(stream, config.max_frame) else {
            continue; // Peer vanished during setup.
        };
        // Admission bounds *connections*: beyond the cap, refuse loudly
        // (the client sees a fatal `limit` error on its first response
        // read) instead of accumulating sessions without bound. Work-level
        // pressure is handled per statement by the scheduler's shedding.
        let admitted = active.fetch_add(1, Ordering::SeqCst);
        if admitted >= config.max_sessions {
            active.fetch_sub(1, Ordering::SeqCst);
            ServiceStats::bump(&stats.rejected);
            let refusal = QueryResponse::fatal_error(&CsqError::Limit(format!(
                "server at capacity ({} sessions admitted); retry later",
                config.max_sessions
            )));
            refuse(conn, net.clone(), refusal);
            continue;
        }
        if conn.set_write_timeout(Some(config.write_timeout)).is_err() {
            active.fetch_sub(1, Ordering::SeqCst);
            continue; // Peer already gone during setup.
        }
        ServiceStats::bump(&stats.accepted);
        let session_id = next_session.fetch_add(1, Ordering::Relaxed);
        let key = session_key(session_id);
        registry
            .lock()
            .insert(session_id, CancelSlot { key, running: None });
        let session = Session {
            id: session_id,
            key,
            conn,
            prepared: HashMap::new(),
            next_stmt: 1,
            maybe_buffered: false,
            mid_frame: false,
            _registered: Registered {
                registry: registry.clone(),
                id: session_id,
            },
            _admitted: Admitted(active.clone()),
        };
        if inject_tx.send(session).is_err() {
            break; // Scheduler gone: the service is shutting down.
        }
        waker.wake();
    }
}

/// Refuse a connection with a pre-built error response. Runs on a
/// short-lived detached thread so the accept loop never blocks on a slow
/// (or dead) client: it waits for the client's first request — answering
/// before the client reads would race a TCP reset past the refusal frame —
/// replies, then lingers briefly for the client's close.
fn refuse(conn: TcpConn, net: NetStats, refusal: QueryResponse) {
    let _ = std::thread::Builder::new()
        .name("csq-service-refuse".into())
        .spawn(move || {
            conn.set_idle_timeout(Some(Duration::from_millis(200)));
            let _ = conn.set_write_timeout(Some(Duration::from_millis(200)));
            match conn.recv() {
                Ok(Frame::Payload(buf)) => {
                    net.record_up(buf.len() + FRAME_HEADER_BYTES);
                }
                _ => return, // Client never spoke; just drop.
            }
            if send_response(&conn, &net, &refusal) {
                // Give the client a beat to read before the socket dies.
                let _ = conn.recv();
            }
        });
}

/// Send one response frame, recording downlink bytes; `false` when the
/// client is gone.
fn send_response(conn: &TcpConn, net: &NetStats, resp: &QueryResponse) -> bool {
    send_payload(conn, net, &resp.encode())
}

fn send_payload(conn: &TcpConn, net: &NetStats, payload: &[u8]) -> bool {
    net.record_down(payload.len() + FRAME_HEADER_BYTES);
    conn.send(payload).is_ok()
}

/// Non-blocking best-effort response send for the scheduler thread, which
/// must never block on a peer. `false` (socket full or broken) means the
/// caller must drop the connection — responses are small, so a full send
/// buffer implies a client that floods requests without reading answers.
fn try_send_response(conn: &TcpConn, net: &NetStats, resp: &QueryResponse) -> bool {
    let payload = resp.encode();
    match conn.try_send(&payload) {
        Ok(true) => {
            net.record_down(payload.len() + FRAME_HEADER_BYTES);
            true
        }
        _ => false,
    }
}

/// Park `token` in the session's registry slot while a statement is queued
/// or running (so an out-of-band `CancelQuery` can reach it), or clear it
/// (`None`).
fn set_running(registry: &CancelRegistry, session_id: u64, token: Option<CancelToken>) {
    if let Some(slot) = registry.lock().get_mut(&session_id) {
        slot.running = token;
    }
}

fn shutting_down_response() -> QueryResponse {
    QueryResponse::fatal_error(&CsqError::Net("server shutting down".into()))
}

/// The session scheduler: parks every admitted session, waits for
/// readiness, and turns complete request frames into worker jobs. Runs on
/// its own thread until shutdown.
fn poller_loop(
    ctx: SchedCtx,
    pool: Arc<WorkerPool>,
    inject_rx: Receiver<Session>,
    mut wake_rx: WakeReceiver,
) {
    let mut parked: Vec<Session> = Vec::new();
    let mut fds: Vec<Fd> = Vec::new();
    let mut ready: Vec<bool> = Vec::new();
    let mut rotate: usize = 0;
    loop {
        // Absorb newly accepted and worker-returned sessions. Data may
        // already sit in a session's read buffer (invisible to poll), so
        // every injected session gets swept at least once.
        while let Ok(mut session) = inject_rx.try_recv() {
            if session.conn.set_nonblocking(true).is_err() {
                continue; // Peer died during the handoff; drop it.
            }
            session.maybe_buffered = true;
            parked.push(session);
        }
        if ctx.shutdown.load(Ordering::SeqCst) {
            break;
        }
        ctx.sched
            .parked_sessions
            .store(parked.len(), Ordering::Relaxed);
        ctx.sched.parked_buffer_bytes.store(
            parked.iter().map(|s| s.conn.recv_buffer_bytes()).sum(),
            Ordering::Relaxed,
        );
        // Wait for readiness. Buffered data can't trip poll, so sweep
        // immediately while any might exist; tick fast enough to catch
        // mid-frame stalls while any frame is open; otherwise sleep until
        // a socket or the waker speaks.
        let timeout = if parked.iter().any(|s| s.maybe_buffered) {
            Duration::ZERO
        } else if parked.iter().any(|s| s.mid_frame) {
            ctx.config.idle_timeout.min(Duration::from_millis(25))
        } else {
            IDLE_POLL
        };
        fds.clear();
        fds.push(wake_rx.fd());
        fds.extend(parked.iter().map(|s| s.conn.poll_fd()));
        ready.clear();
        ready.resize(fds.len(), false);
        if poll_readable(&fds, &mut ready, timeout).is_err() {
            // A persistent poll failure would spin this loop; pace it.
            std::thread::park_timeout(Duration::from_millis(10));
        }
        if ready.first().copied().unwrap_or(false) {
            wake_rx.drain();
        }
        if parked.is_empty() {
            continue;
        }
        // Sweep ready sessions in rotating order: under a storm every
        // session gets dispatch opportunities at the same rate, so one
        // flooding client cannot starve the polite ones.
        rotate = rotate.wrapping_add(1);
        let offset = rotate % parked.len();
        let mut sweep: Vec<(Session, bool)> =
            parked.drain(..).zip(ready.drain(..).skip(1)).collect();
        sweep.rotate_left(offset);
        for (mut session, was_ready) in sweep {
            if was_ready || session.maybe_buffered {
                if let Some(kept) = drive_session(&ctx, &pool, session) {
                    parked.push(kept);
                }
            } else {
                if session.mid_frame {
                    match session.conn.partial_age() {
                        Some(age) if age > ctx.config.idle_timeout => {
                            // Slowloris: opened a frame, stopped sending.
                            ServiceStats::bump(&ctx.stats.protocol_errors);
                            let err = CsqError::Net(
                                "frame stalled mid-read (peer stopped sending)".into(),
                            );
                            try_send_response(
                                &session.conn,
                                &ctx.net,
                                &QueryResponse::fatal_error(&err),
                            );
                            continue; // Drop the session.
                        }
                        Some(_) => {}
                        None => session.mid_frame = false,
                    }
                }
                parked.push(session);
            }
        }
    }
    // Shutdown: tell every parked client the server is going away, then
    // drain any sessions still in the inject channel. Workers whose
    // hand-back races past this drain get a send error and say goodbye
    // themselves.
    let bye = shutting_down_response();
    for session in parked.drain(..) {
        try_send_response(&session.conn, &ctx.net, &bye);
    }
    while let Ok(session) = inject_rx.try_recv() {
        try_send_response(&session.conn, &ctx.net, &bye);
    }
    ctx.sched.parked_sessions.store(0, Ordering::Relaxed);
    ctx.sched.parked_buffer_bytes.store(0, Ordering::Relaxed);
}

/// Pump one ready session: read as many complete frames as are available,
/// answering memory-only requests inline and dispatching at most one
/// statement to the pool. Returns the session if it should stay parked,
/// `None` if it was dispatched or dropped.
fn drive_session(ctx: &SchedCtx, pool: &WorkerPool, mut session: Session) -> Option<Session> {
    session.maybe_buffered = false;
    session.mid_frame = false;
    let mut inline = 0usize;
    loop {
        let event = match session.conn.poll_recv() {
            Ok(ev) => ev,
            Err(e) => {
                // Truncated/oversized frame or I/O fault: the stream can no
                // longer be trusted — answer if possible, then end only
                // this session.
                ServiceStats::bump(&ctx.stats.protocol_errors);
                try_send_response(&session.conn, &ctx.net, &QueryResponse::fatal_error(&e));
                return None;
            }
        };
        let frame = match event {
            PollFrame::Pending => {
                if let Some(age) = session.conn.partial_age() {
                    session.mid_frame = true;
                    if age > ctx.config.idle_timeout {
                        ServiceStats::bump(&ctx.stats.protocol_errors);
                        let err =
                            CsqError::Net("frame stalled mid-read (peer stopped sending)".into());
                        try_send_response(
                            &session.conn,
                            &ctx.net,
                            &QueryResponse::fatal_error(&err),
                        );
                        return None;
                    }
                }
                return Some(session);
            }
            PollFrame::Closed => return None,
            PollFrame::Frame(buf) => buf,
        };
        ctx.net.record_up(frame.len() + FRAME_HEADER_BYTES);
        let request = match QueryRequest::decode(&frame) {
            Ok(r) => r,
            Err(e) => {
                // Garbage payload: the peer doesn't speak the protocol;
                // report and close.
                ServiceStats::bump(&ctx.stats.protocol_errors);
                try_send_response(&session.conn, &ctx.net, &QueryResponse::fatal_error(&e));
                return None;
            }
        };
        match request {
            QueryRequest::Close => return None,
            QueryRequest::CancelQuery { session: sid, key } => {
                // Fire-and-forget by design (like CloseStmt): no reply, a
                // wrong ticket is silently ignored — answering differently
                // would leak which session ids are live. Handled here, not
                // on a worker, so cancellation still works when every
                // worker is busy (that is exactly when it matters).
                if let Some(slot) = ctx.registry.lock().get(&sid) {
                    if slot.key == key {
                        if let Some(token) = &slot.running {
                            token.cancel();
                        }
                    }
                }
                inline += 1;
            }
            QueryRequest::CloseStmt { stmt } => {
                // Fire-and-forget by design: no reply, so a client can
                // release pins without a round trip.
                session.prepared.remove(&stmt);
                inline += 1;
            }
            QueryRequest::SessionInfo => {
                let resp = QueryResponse::Session {
                    id: session.id,
                    key: session.key,
                };
                if !try_send_response(&session.conn, &ctx.net, &resp) {
                    return None;
                }
                inline += 1;
            }
            req => return dispatch(ctx, pool, session, req),
        }
        if inline >= MAX_INLINE_FRAMES_PER_SWEEP {
            // Bound scheduler time spent on one session per sweep: an
            // inline-frame flood yields to the other sessions and resumes
            // next sweep.
            session.maybe_buffered = true;
            return Some(session);
        }
    }
}

/// Hand a statement to the worker pool — or shed it when the work queue is
/// over budget. Returns the session only in the shed case (it stays
/// parked); a dispatched session travels with its job.
fn dispatch(
    ctx: &SchedCtx,
    pool: &WorkerPool,
    mut session: Session,
    req: QueryRequest,
) -> Option<Session> {
    let queued = ctx.sched.queued_statements.load(Ordering::SeqCst);
    let executing = ctx.sched.executing_statements.load(Ordering::SeqCst);
    if executing >= ctx.config.workers && queued >= ctx.config.shed_queue_depth {
        // Shed *this statement*, not the connection: a survivable
        // retryable `limit` answer tells the client to back off and retry
        // on the same session once pressure clears. Answered from here —
        // routing it through the pool would make the refusal wait behind
        // the very queue it reports as full.
        ServiceStats::bump(&ctx.stats.shed);
        let refusal = QueryResponse::survivable_refusal(&CsqError::Limit(format!(
            "server overloaded ({queued} statements queued); retry with backoff"
        )));
        if !try_send_response(&session.conn, &ctx.net, &refusal) {
            return None;
        }
        session.maybe_buffered = true; // Pipelined frames may follow.
        return Some(session);
    }
    let deadline_ms = match &req {
        QueryRequest::Query { deadline_ms, .. } | QueryRequest::Execute { deadline_ms, .. } => {
            *deadline_ms
        }
        _ => 0,
    };
    let token = statement_token(deadline_ms);
    // Registered from enqueue, not first execution: an out-of-band cancel
    // must reach a statement that is still waiting for a worker, and queue
    // wait counts against the deadline.
    set_running(&ctx.registry, session.id, Some(token.clone()));
    ctx.sched.queued_statements.fetch_add(1, Ordering::SeqCst);
    let job_ctx = ctx.clone();
    pool.spawn(move || run_statement(job_ctx, session, req, token));
    None
}

/// Decrement-on-drop guard for the executing-statements gauge (runs even
/// when a statement job unwinds).
struct Executing(Arc<SchedulerStats>);

impl Drop for Executing {
    fn drop(&mut self) {
        self.0.executing_statements.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One statement's life on a worker: execute, stream the answer (blocking
/// writes under the write timeout), then hand the session back to the
/// scheduler.
fn run_statement(ctx: SchedCtx, mut session: Session, req: QueryRequest, token: CancelToken) {
    ctx.sched.queued_statements.fetch_sub(1, Ordering::SeqCst);
    ctx.sched
        .executing_statements
        .fetch_add(1, Ordering::SeqCst);
    let _executing = Executing(ctx.sched.clone());
    if session.conn.set_nonblocking(false).is_err() {
        set_running(&ctx.registry, session.id, None);
        return; // Peer gone during the handoff.
    }
    let alive = match req {
        QueryRequest::Query { sql, .. } => {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                ctx.db.execute_cached_batches(&sql, &token)
            }));
            answer_execution(&session.conn, &ctx.net, &ctx.stats, &ctx.config, outcome)
        }
        QueryRequest::Execute { stmt, .. } => match session.prepared.get(&stmt) {
            None => {
                ServiceStats::bump(&ctx.stats.queries_failed);
                send_response(
                    &session.conn,
                    &ctx.net,
                    &QueryResponse::from_error(&CsqError::Plan(format!(
                        "unknown prepared statement {stmt}"
                    ))),
                )
            }
            Some(plan) => {
                let plan = plan.clone();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    ctx.db.execute_planned_batches(&plan, &token)
                }));
                let outcome = match outcome {
                    Ok(Ok((result, fresh, reused))) => {
                        // The plan may have been replanned under a new
                        // epoch; keep the session's pin current.
                        session.prepared.insert(stmt, fresh);
                        Ok(Ok((result, reused)))
                    }
                    Ok(Err(e)) => Ok(Err(e)),
                    Err(p) => Err(p),
                };
                answer_execution(&session.conn, &ctx.net, &ctx.stats, &ctx.config, outcome)
            }
        },
        QueryRequest::Prepare { sql } => {
            if session.prepared.len() >= MAX_PREPARED_PER_SESSION {
                ServiceStats::bump(&ctx.stats.queries_failed);
                send_response(
                    &session.conn,
                    &ctx.net,
                    &QueryResponse::from_error(&CsqError::Limit(format!(
                        "session holds {MAX_PREPARED_PER_SESSION} prepared statements; \
                         release some with CloseStmt (or close the connection) before \
                         preparing more"
                    ))),
                )
            } else {
                match catch_unwind(AssertUnwindSafe(|| ctx.db.prepare(&sql))) {
                    Ok(Ok((plan, cache_hit))) => {
                        let stmt = session.next_stmt;
                        session.next_stmt += 1;
                        session.prepared.insert(stmt, plan);
                        send_response(
                            &session.conn,
                            &ctx.net,
                            &QueryResponse::Prepared {
                                stmt,
                                plan_cache_hit: cache_hit,
                            },
                        )
                    }
                    Ok(Err(e)) => {
                        ServiceStats::bump(&ctx.stats.queries_failed);
                        send_response(&session.conn, &ctx.net, &QueryResponse::from_error(&e))
                    }
                    Err(_) => {
                        ServiceStats::bump(&ctx.stats.panics);
                        ServiceStats::bump(&ctx.stats.queries_failed);
                        send_response(&session.conn, &ctx.net, &panic_response())
                    }
                }
            }
        }
        // Close / CancelQuery / CloseStmt / SessionInfo are answered inline
        // by the scheduler and never dispatched here.
        _ => true,
    };
    set_running(&ctx.registry, session.id, None);
    if !alive {
        return; // Client disconnected mid-stream; drop the session.
    }
    if ctx.shutdown.load(Ordering::SeqCst) {
        send_response(&session.conn, &ctx.net, &shutting_down_response());
        return;
    }
    if session.conn.set_nonblocking(true).is_err() {
        return;
    }
    match ctx.inject_tx.send(session) {
        Ok(()) => ctx.waker.wake(),
        Err(e) => {
            // Scheduler already gone (shutdown raced the hand-back): say
            // goodbye ourselves.
            let session = e.0;
            try_send_response(&session.conn, &ctx.net, &shutting_down_response());
        }
    }
}

fn panic_response() -> QueryResponse {
    QueryResponse::from_error(&CsqError::Exec(
        "statement execution panicked (session preserved)".into(),
    ))
}

type ExecutionOutcome =
    std::result::Result<Result<(ResultBatches, bool)>, Box<dyn std::any::Any + Send>>;

/// Turn an execution outcome into wire traffic: `Begin`, the result's
/// `Rows` frames and `End` on success, a typed `Error` on failure or panic.
/// The frames are encoded from the output batches — a lane-backed batch
/// from its lanes, so the server builds no row of it — and all of them
/// before `Begin` is sent. Returns whether the connection is still usable.
fn answer_execution(
    conn: &TcpConn,
    net: &NetStats,
    stats: &ServiceStats,
    config: &ServiceConfig,
    outcome: ExecutionOutcome,
) -> bool {
    match outcome {
        Err(_) => {
            ServiceStats::bump(&stats.panics);
            ServiceStats::bump(&stats.queries_failed);
            send_response(conn, net, &panic_response())
        }
        Ok(Err(e)) => {
            match &e {
                CsqError::Timeout(_) => ServiceStats::bump(&stats.timed_out),
                CsqError::Cancelled(_) => ServiceStats::bump(&stats.cancelled),
                _ => {}
            }
            ServiceStats::bump(&stats.queries_failed);
            send_response(conn, net, &QueryResponse::from_error(&e))
        }
        Ok(Ok((result, plan_cache_hit))) => {
            let columns: Vec<String> = result
                .schema
                .fields()
                .iter()
                .map(|f| f.display_name())
                .collect();
            let frames = QueryResponse::encode_rows_frames(&result.batches, config.chunk_rows);
            let end = QueryResponse::End {
                rows: result.len() as u64,
                affected: result.affected as u64,
                plan_cache_hit,
            };
            // The writes need only the frames: release the rows now.
            drop(result);
            if !send_response(conn, net, &QueryResponse::Begin { columns }) {
                return false;
            }
            for frame in &frames {
                if !send_payload(conn, net, frame) {
                    return false;
                }
            }
            ServiceStats::bump(&stats.queries_ok);
            send_response(conn, net, &end)
        }
    }
}

#[cfg(test)]
mod config_tests {
    use super::*;

    /// Every invalid config the validation suite exercises; shared by the
    /// kind check and the message-hygiene check.
    fn invalid_configs() -> Vec<ServiceConfig> {
        let d = ServiceConfig::default;
        vec![
            ServiceConfig { workers: 0, ..d() },
            ServiceConfig {
                max_sessions: 0,
                ..d()
            },
            // More workers than the session cap: extra workers are dead weight.
            ServiceConfig {
                workers: 8,
                max_sessions: 4,
                ..d()
            },
            // Shed threshold past the possible queue depth can never fire.
            ServiceConfig {
                shed_queue_depth: 100,
                max_sessions: 64,
                ..d()
            },
            ServiceConfig {
                chunk_rows: 0,
                ..d()
            },
            ServiceConfig {
                max_frame: 0,
                ..d()
            },
            ServiceConfig {
                idle_timeout: Duration::ZERO,
                ..d()
            },
            ServiceConfig {
                write_timeout: Duration::ZERO,
                ..d()
            },
        ]
    }

    #[test]
    fn default_config_is_valid() {
        assert!(ServiceConfig::default().validate().is_ok());
    }

    #[test]
    fn incoherent_configs_rejected_with_config_kind() {
        for c in invalid_configs() {
            let err = c.validate().unwrap_err();
            assert_eq!(err.kind(), "config", "config {c:?} gave {err}");
        }
    }

    #[test]
    fn config_error_messages_contain_no_doubled_whitespace() {
        // Regression guard: a broken string continuation once shipped a
        // validation message with an 18-space run in the middle.
        for c in invalid_configs() {
            let err = c.validate().unwrap_err();
            let msg = err.message().to_string();
            assert!(
                !msg.contains("  ") && !msg.contains('\n') && !msg.contains('\t'),
                "config message for {c:?} has doubled/raw whitespace: {msg:?}"
            );
        }
    }

    #[test]
    fn shed_sentinel_means_never_shed_and_stays_valid() {
        // usize::MAX is "shedding disabled", not a threshold above the cap.
        let c = ServiceConfig {
            shed_queue_depth: usize::MAX,
            max_sessions: 4,
            workers: 2,
            ..ServiceConfig::default()
        };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn start_refuses_invalid_config() {
        let db = std::sync::Arc::new(crate::Database::new(csq_net::NetworkSpec::symmetric(
            100_000.0, 0,
        )));
        let cfg = ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        };
        let err = match start(db, cfg) {
            Err(e) => e,
            Ok(_) => panic!("zero-worker config must be refused at start"),
        };
        assert_eq!(err.kind(), "config");
    }
}
