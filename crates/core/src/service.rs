//! The socket-backed query service: many clients, one database.
//!
//! Architecture (DESIGN.md §12): a connection is a **lightweight session
//! object**, and only *runnable work* occupies a worker. Two kinds of
//! thread cooperate, and a connection starts none:
//!
//! * The **session scheduler** (one poller thread) owns the TCP listener
//!   and every admitted session, and waits for readiness on all of them
//!   with `poll(2)` ([`csq_net::ready::poll_readable`]). A readable
//!   listener is drained into parked sessions under
//!   [`ServiceConfig::max_sessions`] — a bound on *connections*, not on
//!   execution concurrency; a connection over it waits, briefly and
//!   bounded, for its first request and is answered with a fatal,
//!   retryable `limit` error. An idle connection costs one pollfd entry
//!   and its receive buffer, nothing else. When a complete request frame
//!   arrives (non-blocking, resumable reads on the framed [`TcpConn`]), the
//!   statement becomes a typed [`Job`] on the workers' one queue, whose
//!   only sender the scheduler holds; memory-only requests (`SessionInfo`,
//!   `CancelQuery`, `CloseStmt`) are answered inline so they work even when
//!   every worker is busy. Ready sessions
//!   are swept in rotating order, so one chatty client cannot starve the
//!   rest.
//! * The **workers** ([`ServiceConfig::workers`] threads, started with the
//!   scheduler by [`start_on`]) execute one statement at a time: plan
//!   through the database's [`PlanCache`](crate::PlanCache), encode the result's bounded chunks
//!   straight from the executor's output batches — encoded in full, then
//!   sent over the session's connection (flipped to blocking mode for the
//!   write) as one vectored write of `Begin`, the `Rows` frames and `End`
//!   — then hand the session back to the scheduler and pick up the next
//!   job.
//!
//! A session therefore moves `Reading → Queued → Executing → Writing →
//! Reading`: the scheduler owns it while Reading, the job queue while
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
//! lives on; transport/protocol failures end only that session; a panic in
//! a statement is caught around its execution and answered with an `exec`
//! error, and the worker loop's own `catch_unwind` keeps any other panic
//! from costing more than that statement's session.
//!
//! **Graceful shutdown.** [`ServiceHandle::shutdown`] wakes the scheduler,
//! which tells every parked client the server is going away and closes the
//! listener as it exits; its exit closes the job queue, and the workers
//! answer what is in flight or queued, tell those sessions the same, drop
//! them and stop.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use csq_client::qproto::{QueryRequest, QueryResponse};
use csq_common::{CancelToken, CsqError, Result, DEFAULT_BATCH_SIZE};
use csq_net::ready::{poll_readable, socket_fd, wake_pair, Fd, WakeReceiver, Waker};
use csq_net::tcp::{PollFrame, TcpConn};
use csq_net::NetStats;
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

/// Connections the scheduler accepts in one sweep before it serves the
/// parked sessions again, so a connect flood cannot starve them.
const MAX_ACCEPTS_PER_SWEEP: usize = 64;

/// How long a refused connection may take to send its first request; it is
/// closed then, answered or not.
const REFUSAL_WAIT: Duration = Duration::from_millis(200);

/// Scheduler wait cap when every parked session is idle: wakeups (sessions
/// returning from workers, shutdown) interrupt it via the wake pipe and a
/// new connection via the listener, so this only bounds staleness of the
/// stats gauges.
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
    /// are refused with a fatal, retryable `limit` error instead of
    /// accumulating unboundedly. A parked session costs its receive buffer
    /// and a pollfd entry, so this can be far larger than `workers`.
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
    /// Statements that completed with a full result, counted just before
    /// the answer's one write (so a client that has read `End` sees it).
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

/// Session id → cancellation state for every admitted session, shared by the
/// scheduler and all workers (any session may cancel any other, provided
/// it presents the right key — the Postgres out-of-band model, minus the
/// extra listener).
type CancelRegistry = Arc<Mutex<HashMap<u64, CancelSlot>>>;

/// A per-session cancellation secret: the session id under a randomly keyed
/// SipHash, unpredictable enough that a client cannot cancel sessions it
/// never spoke to (this is an isolation nicety, not a cryptographic
/// boundary — the service trusts its network).
fn session_key(session_id: u64) -> u64 {
    RandomState::new().hash_one(session_id)
}

/// One admitted connection: everything a session is, in one movable
/// object. Owned by exactly one thread at a time — the scheduler while
/// parked (Reading), the job queue while Queued, a worker while
/// Executing/Writing — and moved, never shared. Dropping it anywhere
/// closes the connection and releases its registration, which is also its
/// admission slot.
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
    registry: CancelRegistry,
}

/// A session leaves the registry when it ends, however it ends (return,
/// disconnect, or panic unwind) — so the registry's size is the
/// admitted-session count that `max_sessions` bounds.
impl Drop for Session {
    fn drop(&mut self) {
        self.registry.lock().remove(&self.id);
    }
}

/// Everything a scheduler sweep or a worker needs; each worker holds its
/// own clone. It holds no sender of the job queue: the scheduler's is the
/// only one, so the queue closes when the scheduler exits.
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

/// One statement on its way to a worker: the session it came from, its
/// decoded request and the cancel token registered for it.
struct Job {
    session: Session,
    req: QueryRequest,
    token: CancelToken,
}

/// What a statement that ran answers with, each beside whether its plan
/// came from the cache: a result, or a just-prepared statement's handle.
enum Outcome {
    Rows(ResultBatches, bool),
    Prepared(u32, bool),
}

/// A running query service; dropping (or [`shutdown`](Self::shutdown))
/// stops accepting and drains sessions.
pub struct ServiceHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// The scheduler, then the workers: joined in that order, because a
    /// worker stops only once the scheduler has dropped the job queue's
    /// sender.
    threads: Vec<JoinHandle<()>>,
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
        // parked session and exits, closing the listener and the job queue.
        // The workers then drain the queue (each statement answers, sees
        // the shutdown flag, and says goodbye) and stop.
        self.waker.wake();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
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
    listener
        .set_nonblocking(true)
        .map_err(|e| CsqError::Net(format!("service listener: {e}")))?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(ServiceStats::default());
    let sched = Arc::new(SchedulerStats::default());
    let net = NetStats::new();
    let (waker, wake_rx) = wake_pair()?;
    let waker = Arc::new(waker);
    let (inject_tx, inject_rx) = unbounded::<Session>();

    let ctx = SchedCtx {
        db,
        config,
        shutdown: shutdown.clone(),
        stats: stats.clone(),
        sched: sched.clone(),
        net: net.clone(),
        registry: Arc::new(Mutex::new(HashMap::new())),
        inject_tx,
        waker: waker.clone(),
    };
    let (jobs, queue) = unbounded::<Job>();
    let mut handle = ServiceHandle {
        addr: local,
        shutdown,
        threads: Vec::new(),
        stats,
        sched,
        net,
        waker,
    };
    // The scheduler starts first and takes the job queue's only sender. A
    // failed spawn returns early and drops `handle`, which joins what did
    // start: the scheduler, whose exit closes the queue, then the workers.
    let scheduler_ctx = ctx.clone();
    let scheduler = move || poller_loop(scheduler_ctx, jobs, listener, inject_rx, wake_rx);
    handle
        .threads
        .push(start_thread("csq-service-poll".into(), scheduler)?);
    for i in 0..ctx.config.workers {
        let (ctx, queue) = (ctx.clone(), queue.clone());
        let worker = start_thread(format!("csq-worker-{i}"), move || worker_loop(&ctx, &queue))?;
        handle.threads.push(worker);
    }
    Ok(handle)
}

/// Start one of the service's threads — the scheduler or a statement
/// worker; [`start_on`] calls it once for each, and nothing else starts a
/// thread.
fn start_thread(name: String, body: impl FnOnce() + Send + 'static) -> Result<JoinHandle<()>> {
    let thread = std::thread::Builder::new().name(name.clone());
    thread
        .spawn(body)
        .map_err(|e| CsqError::Net(format!("spawn {name}: {e}")))
}

/// Send one response frame; `false` when the client is gone.
fn send_response(conn: &TcpConn, resp: &QueryResponse) -> bool {
    conn.send(&resp.encode()).is_ok()
}

/// Non-blocking best-effort response send for the scheduler thread, which
/// must never block on a peer. `false` (socket full or broken) means the
/// caller must drop the connection — responses are small, so a full send
/// buffer implies a client that floods requests without reading answers.
fn try_send_response(conn: &TcpConn, resp: &QueryResponse) -> bool {
    matches!(conn.try_send(&resp.encode()), Ok(true))
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

/// The listener and the admission bound, owned by the scheduler.
struct Gate {
    listener: TcpListener,
    next_session: u64,
    /// Connections over `max_sessions`, each waiting for its first request
    /// until the instant beside it; at most `max_sessions` of them.
    refused: Vec<(TcpConn, Instant)>,
    /// The fatal, retryable `limit` answer every refused connection gets:
    /// the same verdict a refused connection closed unanswered reads as.
    refusal: QueryResponse,
}

impl Gate {
    /// Accept what the listener holds, at most [`MAX_ACCEPTS_PER_SWEEP`]: a
    /// connection under `max_sessions` parks as a session on the spot; one
    /// over it is refused.
    fn admit(&mut self, ctx: &SchedCtx, parked: &mut Vec<Session>) {
        for _ in 0..MAX_ACCEPTS_PER_SWEEP {
            let Ok((stream, _)) = self.listener.accept() else {
                return; // Drained, or a transient failure the next sweep retries.
            };
            let Ok(conn) = TcpConn::with_max_frame(stream, ctx.config.max_frame) else {
                continue; // Peer vanished during setup.
            };
            let conn = conn.counted(ctx.net.clone(), true);
            let write_timeout = conn.set_write_timeout(Some(ctx.config.write_timeout));
            if conn.set_nonblocking(true).and(write_timeout).is_err() {
                continue; // Peer already gone during setup.
            }
            if ctx.registry.lock().len() >= ctx.config.max_sessions {
                // Refuse loudly (a fatal, retryable `limit` error on the
                // client's first response read) instead of accumulating
                // sessions without bound. The answer waits for the client's
                // request: sent before the client reads, it would race a TCP
                // reset past the refusal frame. Past `max_sessions` waiting
                // refusals a connection is closed at once.
                ServiceStats::bump(&ctx.stats.rejected);
                if self.refused.len() < ctx.config.max_sessions {
                    self.refused.push((conn, Instant::now() + REFUSAL_WAIT));
                }
                continue;
            }
            ServiceStats::bump(&ctx.stats.accepted);
            let id = self.next_session;
            self.next_session += 1;
            let key = session_key(id);
            ctx.registry
                .lock()
                .insert(id, CancelSlot { key, running: None });
            parked.push(Session {
                id,
                key,
                conn,
                prepared: HashMap::new(),
                next_stmt: 1,
                maybe_buffered: false,
                mid_frame: false,
                registry: ctx.registry.clone(),
            });
        }
    }

    /// Serve the refused connections, `ready` being their poll readiness:
    /// one whose first request has arrived is answered and closed, as is
    /// one that hung up, broke its frame, or outwaited [`REFUSAL_WAIT`].
    fn sweep_refused(&mut self, ready: &[bool]) {
        let now = Instant::now();
        let mut ready = ready.iter();
        self.refused.retain(|(conn, until)| {
            if ready.next() == Some(&true) {
                match conn.poll_recv() {
                    Ok(PollFrame::Frame(_)) => {
                        try_send_response(conn, &self.refusal);
                        return false;
                    }
                    Ok(PollFrame::Pending) => {}
                    _ => return false,
                }
            }
            *until > now
        });
    }
}

/// The session scheduler: owns the listener, parks every admitted session,
/// waits for readiness, and turns complete request frames into worker
/// jobs. Runs on its own thread until shutdown; the listener and the job
/// queue close when it returns.
fn poller_loop(
    ctx: SchedCtx,
    jobs: Sender<Job>,
    listener: TcpListener,
    inject_rx: Receiver<Session>,
    mut wake_rx: WakeReceiver,
) {
    let full = CsqError::Limit(format!(
        "server at capacity ({} sessions admitted); retry later",
        ctx.config.max_sessions
    ));
    let mut gate = Gate {
        listener,
        next_session: 1,
        refused: Vec::new(),
        refusal: QueryResponse::refusal(&full, true),
    };
    let mut parked: Vec<Session> = Vec::new();
    let mut fds: Vec<Fd> = Vec::new();
    let mut ready: Vec<bool> = Vec::new();
    let mut rotate: usize = 0;
    loop {
        // Absorb sessions the workers handed back. Data may already sit in
        // a session's read buffer (invisible to poll), so each one gets
        // swept at least once.
        while let Ok(mut session) = inject_rx.try_recv() {
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
        // mid-frame stalls while any frame is open, and to close a refused
        // connection when its wait runs out; otherwise sleep until a
        // socket, the listener or the waker speaks.
        let timeout = if parked.iter().any(|s| s.maybe_buffered) {
            Duration::ZERO
        } else {
            let tick = if parked.iter().any(|s| s.mid_frame) {
                ctx.config.idle_timeout.min(Duration::from_millis(25))
            } else {
                IDLE_POLL
            };
            let now = Instant::now();
            gate.refused
                .iter()
                .map(|(_, until)| until.saturating_duration_since(now))
                .fold(tick, Duration::min)
        };
        fds.clear();
        fds.extend([wake_rx.fd(), socket_fd(&gate.listener)]);
        fds.extend(parked.iter().map(|s| s.conn.poll_fd()));
        fds.extend(gate.refused.iter().map(|(conn, _)| conn.poll_fd()));
        ready.clear();
        ready.resize(fds.len(), false);
        if poll_readable(&fds, &mut ready, timeout).is_err() {
            // A persistent poll failure would spin this loop; pace it.
            std::thread::park_timeout(Duration::from_millis(10));
        }
        if ready[0] {
            wake_rx.drain();
        }
        let listening = ready[1];
        gate.sweep_refused(&ready[2 + parked.len()..]);
        if !parked.is_empty() {
            // Sweep ready sessions in rotating order: under a storm every
            // session gets dispatch opportunities at the same rate, so one
            // flooding client cannot starve the polite ones.
            rotate = rotate.wrapping_add(1);
            let offset = rotate % parked.len();
            let mut sweep: Vec<(Session, bool)> =
                parked.drain(..).zip(ready.drain(..).skip(2)).collect();
            sweep.rotate_left(offset);
            for (mut session, was_ready) in sweep {
                if was_ready || session.maybe_buffered {
                    parked.extend(drive_session(&ctx, &jobs, session));
                } else if !(session.mid_frame && stalled(&ctx, &mut session)) {
                    parked.push(session);
                }
            }
        }
        // New sessions join after the sweep: their first poll is the next.
        if listening {
            gate.admit(&ctx, &mut parked);
        }
    }
    // Shutdown: tell every parked client the server is going away, then
    // drain any sessions still in the inject channel. Workers whose
    // hand-back races past this drain get a send error and say goodbye
    // themselves. Refused connections and the listener close on return.
    let bye = shutting_down_response();
    for session in parked.drain(..) {
        try_send_response(&session.conn, &bye);
    }
    while let Ok(session) = inject_rx.try_recv() {
        try_send_response(&session.conn, &bye);
    }
    ctx.sched.parked_sessions.store(0, Ordering::Relaxed);
    ctx.sched.parked_buffer_bytes.store(0, Ordering::Relaxed);
}

/// The slowloris rule: a session whose open frame has made no progress for
/// `idle_timeout` is answered with a fatal stall error and must be dropped
/// (`true`). Tracks whether a frame is open in `mid_frame`.
fn stalled(ctx: &SchedCtx, session: &mut Session) -> bool {
    let Some(age) = session.conn.partial_age() else {
        session.mid_frame = false;
        return false;
    };
    session.mid_frame = true;
    if age <= ctx.config.idle_timeout {
        return false;
    }
    let err = CsqError::Net("frame stalled mid-read (peer stopped sending)".into());
    fault(ctx, &session.conn, &err);
    true
}

/// Count a transport/protocol fault and answer it with a fatal error if the
/// wire still takes one; the caller ends the session.
fn fault(ctx: &SchedCtx, conn: &TcpConn, err: &CsqError) {
    ServiceStats::bump(&ctx.stats.protocol_errors);
    try_send_response(conn, &QueryResponse::fatal_error(err));
}

/// Pump one ready session: read as many complete frames as are available,
/// answering memory-only requests inline and queueing at most one
/// statement for the workers. Returns the session if it should stay
/// parked, `None` if it was queued or dropped.
fn drive_session(ctx: &SchedCtx, jobs: &Sender<Job>, mut session: Session) -> Option<Session> {
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
                fault(ctx, &session.conn, &e);
                return None;
            }
        };
        let frame = match event {
            PollFrame::Pending => return (!stalled(ctx, &mut session)).then_some(session),
            PollFrame::Closed => return None,
            PollFrame::Frame(buf) => buf,
        };
        let request = match QueryRequest::decode(&frame) {
            Ok(r) => r,
            Err(e) => {
                // Garbage payload: the peer doesn't speak the protocol;
                // report and close.
                fault(ctx, &session.conn, &e);
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
                if !try_send_response(&session.conn, &resp) {
                    return None;
                }
                inline += 1;
            }
            req => return dispatch(ctx, jobs, session, req),
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

/// Queue a statement for the workers — or shed it when the work queue is
/// over budget. Returns the session only in the shed case (it stays
/// parked); a queued session travels with its job.
fn dispatch(
    ctx: &SchedCtx,
    jobs: &Sender<Job>,
    mut session: Session,
    req: QueryRequest,
) -> Option<Session> {
    let queued = ctx.sched.queued_statements.load(Ordering::SeqCst);
    let executing = ctx.sched.executing_statements.load(Ordering::SeqCst);
    if executing >= ctx.config.workers && queued >= ctx.config.shed_queue_depth {
        // Shed *this statement*, not the connection: a survivable
        // retryable `limit` answer tells the client to back off and retry
        // on the same session once pressure clears. Answered from here —
        // routing it through the queue would make the refusal wait behind
        // the very queue it reports as full.
        ServiceStats::bump(&ctx.stats.shed);
        let busy = CsqError::Limit(format!(
            "server overloaded ({queued} statements queued); retry with backoff"
        ));
        let refusal = QueryResponse::refusal(&busy, false);
        if !try_send_response(&session.conn, &refusal) {
            return None;
        }
        session.maybe_buffered = true; // Pipelined frames may follow.
        return Some(session);
    }
    let deadline_ms = match &req {
        QueryRequest::Query { deadline_ms, .. }
        | QueryRequest::Execute { deadline_ms, .. }
        | QueryRequest::Insert { deadline_ms, .. }
        | QueryRequest::Fetch { deadline_ms, .. } => *deadline_ms,
        _ => 0,
    };
    // Minted and registered at enqueue, not first execution: queue wait
    // counts against the deadline (0 = none, cancellable only), and an
    // out-of-band cancel must reach a statement still waiting for a worker.
    let token = match deadline_ms {
        0 => CancelToken::new(),
        ms => CancelToken::with_timeout(Duration::from_millis(ms)),
    };
    set_running(&ctx.registry, session.id, Some(token.clone()));
    ctx.sched.queued_statements.fetch_add(1, Ordering::SeqCst);
    // Cannot fail: the workers hold the queue's receiver until the
    // scheduler drops this, its only sender.
    let _ = jobs.send(Job {
        session,
        req,
        token,
    });
    None
}

/// A statement worker: runs each queued job until the scheduler has exited
/// and the queue is drained. A panic that escapes a statement's own
/// `catch_unwind` (in its answer's encoding, say) costs that statement and
/// its session, never the worker.
fn worker_loop(ctx: &SchedCtx, queue: &Receiver<Job>) {
    let executing = &ctx.sched.executing_statements;
    while let Ok(job) = queue.recv() {
        ctx.sched.queued_statements.fetch_sub(1, Ordering::SeqCst);
        executing.fetch_add(1, Ordering::SeqCst);
        let _ = catch_unwind(AssertUnwindSafe(|| run_statement(ctx, job)));
        executing.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One statement's life on a worker: execute, stream the answer (blocking
/// writes under the write timeout), then hand the session back to the
/// scheduler.
fn run_statement(ctx: &SchedCtx, job: Job) {
    let (mut session, req, token) = (job.session, job.req, job.token);
    if session.conn.set_nonblocking(false).is_err() {
        set_running(&ctx.registry, session.id, None);
        return; // Peer gone during the handoff.
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| execute(ctx, &mut session, req, &token)));
    let alive = answer(&session.conn, &ctx.stats, ctx.config.chunk_rows, outcome);
    set_running(&ctx.registry, session.id, None);
    if !alive {
        return; // Client disconnected mid-stream; drop the session.
    }
    if ctx.shutdown.load(Ordering::SeqCst) {
        send_response(&session.conn, &shutting_down_response());
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
            try_send_response(&session.conn, &shutting_down_response());
        }
    }
}

/// Run one statement to what it answers with.
fn execute(
    ctx: &SchedCtx,
    session: &mut Session,
    req: QueryRequest,
    token: &CancelToken,
) -> Result<Outcome> {
    match req {
        QueryRequest::Query { sql, .. } => {
            let (result, plan_cache_hit) = ctx.db.run_sql(&sql, token)?;
            Ok(Outcome::Rows(result, plan_cache_hit))
        }
        // A typed write answers an `Error` only from before `insert_rows`
        // stores a row (expired deadline, unknown table, a row that does not
        // fit the schema); once it has stored them the answer is `End`. So
        // a retryable `Error` proves the rows were not stored, and a client
        // may replay the request.
        QueryRequest::Insert { table, rows, .. } => {
            let stored = ctx.db.insert_rows(&table, rows, token)?;
            Ok(Outcome::Rows(ResultBatches::count(stored), false))
        }
        fetch @ QueryRequest::Fetch { .. } => fetch_rows(&ctx.db, fetch, token),
        QueryRequest::Execute { stmt, .. } => {
            let Some(plan) = session.prepared.get(&stmt).cloned() else {
                return Err(CsqError::Plan(format!("unknown prepared statement {stmt}")));
            };
            let (result, fresh, reused) = ctx.db.run_planned(&plan, true, token, None)?;
            // The plan may have been replanned under a new epoch; keep the
            // session's pin current.
            session.prepared.insert(stmt, fresh);
            Ok(Outcome::Rows(result, reused))
        }
        QueryRequest::Prepare { sql } => {
            if session.prepared.len() >= MAX_PREPARED_PER_SESSION {
                return Err(CsqError::Limit(format!(
                    "session holds {MAX_PREPARED_PER_SESSION} prepared statements; \
                     release some with CloseStmt (or close the connection) before \
                     preparing more"
                )));
            }
            let (plan, plan_cache_hit) = ctx.db.prepare(&sql)?;
            let stmt = session.next_stmt;
            session.next_stmt += 1;
            session.prepared.insert(stmt, plan);
            Ok(Outcome::Prepared(stmt, plan_cache_hit))
        }
        // Close / CancelQuery / CloseStmt / SessionInfo are answered inline
        // by the scheduler, which never queues them.
        _ => Err(CsqError::Exec("request is not a statement".into())),
    }
}

/// Run a coordinator's typed read. Kept out of `execute`: inlined into the
/// statement path, it cost every SQL statement ≈7 % CPU in `csqbench`'s
/// `svc_adhoc_rw` (2 vCPUs, bisected).
#[inline(never)]
fn fetch_rows(db: &Database, fetch: QueryRequest, token: &CancelToken) -> Result<Outcome> {
    let QueryRequest::Fetch {
        table,
        schema,
        filter,
        columns,
        partial,
        ..
    } = fetch
    else {
        return Err(CsqError::Plan("not a fetch request".into()));
    };
    let out = crate::lower::execute_fetch(db, &table, &schema, filter, &columns, partial, token)?;
    Ok(Outcome::Rows(out, false))
}

/// Turn a statement's outcome into wire traffic and return whether the
/// connection is still usable. A result is `Begin`, its `Rows` frames and
/// `End`, encoded from the output batches — a lane-backed batch from its
/// lanes, so the server builds no row of it — and sent in one vectored
/// write; a prepared statement is its handle; a failure or a panic is its
/// typed `Error`, counted.
fn answer(
    conn: &TcpConn,
    stats: &ServiceStats,
    chunk_rows: usize,
    outcome: std::thread::Result<Result<Outcome>>,
) -> bool {
    let outcome = outcome.unwrap_or_else(|_| {
        ServiceStats::bump(&stats.panics);
        Err(CsqError::Exec(
            "statement execution panicked (session preserved)".into(),
        ))
    });
    let (result, plan_cache_hit) = match outcome {
        Ok(Outcome::Rows(result, plan_cache_hit)) => (result, plan_cache_hit),
        Ok(Outcome::Prepared(stmt, plan_cache_hit)) => {
            let prepared = QueryResponse::Prepared {
                stmt,
                plan_cache_hit,
            };
            return send_response(conn, &prepared);
        }
        Err(e) => {
            match &e {
                CsqError::Timeout(_) => ServiceStats::bump(&stats.timed_out),
                CsqError::Cancelled(_) => ServiceStats::bump(&stats.cancelled),
                _ => {}
            }
            ServiceStats::bump(&stats.queries_failed);
            return send_response(conn, &QueryResponse::from_error(&e));
        }
    };
    let columns: Vec<String> = result
        .schema
        .fields()
        .iter()
        .map(|f| f.display_name())
        .collect();
    let frames = QueryResponse::encode_rows_frames(&result.batches, chunk_rows);
    let end = QueryResponse::End {
        rows: result.len() as u64,
        affected: result.affected as u64,
        plan_cache_hit,
    };
    // The write needs only the frames: release the rows now.
    drop(result);
    let (begin, end) = (QueryResponse::Begin { columns }.encode(), end.encode());
    let mut answer: Vec<&[u8]> = Vec::with_capacity(frames.len() + 2);
    answer.push(&begin);
    answer.extend(frames.iter().map(Vec::as_slice));
    answer.push(&end);
    ServiceStats::bump(&stats.queries_ok);
    conn.send_frames(&answer).is_ok()
}

#[cfg(test)]
mod config_tests {
    use super::*;

    /// Every invalid config the validation suite exercises; shared by the
    /// kind check and the message-hygiene check.
    fn invalid_configs() -> Vec<ServiceConfig> {
        let with = |set: fn(&mut ServiceConfig)| {
            let mut c = ServiceConfig::default();
            set(&mut c);
            c
        };
        vec![
            with(|c| c.workers = 0),
            with(|c| c.max_sessions = 0),
            // More workers than the session cap: extra workers are dead weight.
            with(|c| (c.workers, c.max_sessions) = (8, 4)),
            // Shed threshold past the possible queue depth can never fire.
            with(|c| (c.shed_queue_depth, c.max_sessions) = (100, 64)),
            with(|c| c.chunk_rows = 0),
            with(|c| c.max_frame = 0),
            with(|c| c.idle_timeout = Duration::ZERO),
            with(|c| c.write_timeout = Duration::ZERO),
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

#[cfg(test)]
mod scheduler_tests {
    use super::*;
    use csq_client::ServiceConn;
    use parking_lot::MutexGuard;
    use std::io::Read;
    use std::net::TcpStream;
    use std::sync::OnceLock;

    const WORKERS: usize = 2;

    /// Start a service on `addr` once no other test of this module runs
    /// one (the thread census below must see one service only).
    fn serve(addr: &str, max_sessions: usize) -> (ServiceHandle, MutexGuard<'static, ()>) {
        static ONE: OnceLock<Mutex<()>> = OnceLock::new();
        let one = ONE.get_or_init(|| Mutex::new(())).lock();
        let db = Database::new(csq_net::NetworkSpec::symmetric(100_000.0, 0));
        let config = ServiceConfig {
            workers: WORKERS,
            max_sessions,
            ..ServiceConfig::default()
        };
        (start_on(Arc::new(db), (addr, 0), config).unwrap(), one)
    }

    fn wait_for(counter: &AtomicU64, n: u64) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while counter.load(Ordering::Relaxed) < n {
            assert!(Instant::now() < deadline, "timed out waiting for {n}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The process's service threads by name, `(scheduler, workers)`: a
    /// thread's `comm` is its name cut to 15 bytes (`csq-service-pol`).
    #[cfg(target_os = "linux")]
    fn census() -> (usize, usize, Vec<String>) {
        let names: Vec<String> = std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .collect();
        let named = |prefix: &str| names.iter().filter(|n| n.starts_with(prefix)).count();
        (named("csq-service"), named("csq-worker-"), names)
    }

    #[test]
    fn a_refusal_flood_is_answered_on_the_poller_and_starts_no_thread() {
        let (handle, _one) = serve("127.0.0.1", 2);
        let (addr, stats) = (handle.local_addr(), handle.stats().clone());
        let _held: Vec<ServiceConn> = (0..2)
            .map(|_| ServiceConn::connect(addr).unwrap())
            .collect();
        wait_for(&stats.accepted, 2);
        // Three times the cap of silent connections: each is closed within
        // the refusal wait, whether it waited in the list or not.
        let flood_began = Instant::now();
        let silent: Vec<TcpStream> = (0..6).map(|_| TcpStream::connect(addr).unwrap()).collect();
        wait_for(&stats.rejected, 6);
        #[cfg(target_os = "linux")]
        {
            let (scheduler, workers, names) = census();
            assert_eq!(scheduler, 1, "one scheduler thread and no other: {names:?}");
            assert_eq!(workers, WORKERS, "the configured workers: {names:?}");
        }
        for mut s in silent {
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            assert!(matches!(s.read(&mut [0u8; 1]), Ok(0)), "not closed");
        }
        assert!(flood_began.elapsed() < REFUSAL_WAIT + Duration::from_secs(1));
        // A refused connection that asks is answered: a typed, fatal `limit`.
        for _ in 0..3 {
            let mut refused = ServiceConn::connect(addr).unwrap();
            let err = refused.query("SELECT 1").unwrap_err();
            assert_eq!(err.kind(), "limit", "{err}");
            assert!(err.message().contains("capacity") && refused.is_broken());
        }
        assert_eq!(stats.rejected.load(Ordering::Relaxed), 9);
        assert_eq!(stats.accepted.load(Ordering::Relaxed), 2);
        handle.shutdown();
        // A joined thread leaves the task list as the kernel reaps it, a
        // moment after the join returns.
        #[cfg(target_os = "linux")]
        {
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                let (scheduler, workers, names) = census();
                if scheduler + workers == 0 {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "threads outlive shutdown: {names:?}"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    #[test]
    fn a_wildcard_bind_shuts_down_promptly_and_frees_its_port() {
        let (handle, _one) = serve("0.0.0.0", 2);
        let port = handle.local_addr().port();
        let _parked = TcpStream::connect(("127.0.0.1", port)).unwrap();
        wait_for(&handle.stats().accepted, 1);
        let begun = Instant::now();
        handle.shutdown();
        assert!(begun.elapsed() < Duration::from_secs(5));
        let after = TcpStream::connect(("127.0.0.1", port));
        assert!(after.is_err(), "nothing listens on the port after shutdown");
    }
}
