//! Real TCP transport carrying the length-framed wire protocol.
//!
//! Every message the in-memory duplex moves as one `Vec<u8>` crosses a real
//! socket as one **frame**: a 4-byte little-endian payload length followed
//! by the payload bytes. The framing is the only thing this layer adds —
//! payloads are the exact bytes the `csq-common` codec produced, so the
//! zero-copy [`Decoder::shared`](csq_common::codec::Decoder::shared) path
//! works unchanged on received frames.
//!
//! A connection counts the frames it moves into its [`NetStats`], each with
//! its header: a frame it reads once the whole frame is in, a frame it
//! writes as the write starts — taken back if the write fails before that
//! frame is out whole, so what stays counted is the frames written whole,
//! and a peer that has read a frame finds it counted. Which way a frame
//! flows is the side the connection was given once when it was set up
//! ([`TcpConn::counted`]: a server's sends flow down, a client's up), so no
//! caller adds a frame's size by hand.
//!
//! Two consumers sit on top:
//!
//! * [`tcp_duplex`] — a loopback socket pair wrapped as two [`Endpoint`]s,
//!   drop-in compatible with [`in_memory_duplex`](crate::in_memory_duplex):
//!   the threaded shipping engine (`csq-ship`) runs over real sockets with
//!   zero code changes.
//! * [`TcpConn`] used directly — the query service (`csq-core::service`)
//!   and its pooled clients need the error detail [`Endpoint`] deliberately
//!   flattens (clean close vs. truncated frame vs. idle timeout), so they
//!   speak to the framed connection itself via [`Frame`].
//!
//! The send path is one framing loop: a frame's header and payload go out
//! as one vectored write, and [`send_frames`](TcpConn::send_frames) writes a
//! run of frames — a whole query answer — the same way, with no copy of the
//! payloads into one buffer. The bytes are the frames a send per frame
//! would write, in the same order.
//!
//! The receive path is a resumable state machine: a frame read that stops
//! at a `WouldBlock` keeps its progress (header bytes and partial payload)
//! inside the connection and picks up exactly where it left off on the
//! next call. Blocking callers never notice — [`recv`](TcpConn::recv) runs
//! the machine to completion — but it is what lets the service's session
//! scheduler drive thousands of parked connections with non-blocking
//! [`poll_recv`](TcpConn::poll_recv) calls from one thread (DESIGN.md §12).
//! A blocking [`recv`](TcpConn::recv) sets the socket's read timeout only
//! when the armed idle timeout differs from the one it last set.

use std::io::{BufRead, BufReader, IoSlice, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use csq_common::{CsqError, Result};

use crate::channel::Endpoint;
use crate::ready::Fd;
use crate::stats::NetStats;

/// Bytes of frame header (little-endian payload length) per message.
pub const FRAME_HEADER_BYTES: usize = 4;

/// Default cap on a single frame's payload. Large enough for any batch the
/// engine ships (batches are ~1k rows), small enough that a hostile or
/// corrupt length header cannot make the receiver allocate gigabytes.
pub const DEFAULT_MAX_FRAME: usize = 64 << 20;

/// Fixed capacity of the receive-side `BufReader`; part of the per-parked-
/// connection memory bill [`TcpConn::recv_buffer_bytes`] reports.
const RECV_BUFFER_CAPACITY: usize = 8 * 1024;

/// One receive event on a framed connection.
#[derive(Debug)]
pub enum Frame {
    /// A complete frame's payload.
    Payload(Vec<u8>),
    /// The peer closed cleanly at a frame boundary.
    Closed,
    /// No frame arrived within the configured idle timeout (only possible
    /// when [`TcpConn::set_idle_timeout`] armed one). The connection is
    /// still healthy; callers poll their shutdown flag and call
    /// [`TcpConn::recv`] again.
    TimedOut,
}

/// One non-blocking receive event (see [`TcpConn::poll_recv`]).
#[derive(Debug)]
pub enum PollFrame {
    /// A complete frame's payload.
    Frame(Vec<u8>),
    /// No complete frame available yet; any partial progress is retained
    /// and the next call resumes it. Use [`TcpConn::partial_age`] to bound
    /// how long a peer may sit mid-frame.
    Pending,
    /// The peer closed cleanly at a frame boundary.
    Closed,
}

fn io_net(context: &str, e: std::io::Error) -> CsqError {
    CsqError::Net(format!("{context}: {e}"))
}

fn is_wouldblock(e: &std::io::Error) -> bool {
    e.kind() == std::io::ErrorKind::WouldBlock || e.kind() == std::io::ErrorKind::TimedOut
}

/// In-progress frame read: survives `WouldBlock` so a non-blocking caller
/// can resume. Invariant: a `PartialFrame` exists only once at least one
/// byte of the frame has been consumed (zero-progress reads leave no state
/// behind, so "a partial exists" always means "the peer is mid-frame").
struct PartialFrame {
    header: [u8; FRAME_HEADER_BYTES],
    header_filled: usize,
    /// Allocated once the header (and its length check) completes.
    payload: Vec<u8>,
    payload_filled: usize,
    /// Bytes charged to the connection's buffer accounting (the payload
    /// allocation); repaid when the frame completes or is discarded.
    counted: usize,
    /// Last time a read made progress — the mid-frame stall clock.
    last_progress: Instant,
}

impl PartialFrame {
    fn start() -> PartialFrame {
        PartialFrame {
            header: [0u8; FRAME_HEADER_BYTES],
            header_filled: 0,
            payload: Vec::new(),
            payload_filled: 0,
            counted: 0,
            last_progress: Instant::now(),
        }
    }
}

/// The receiving half: buffered reader plus resumable frame state, guarded
/// by one mutex so blocking and polling receivers can never interleave
/// mid-frame.
struct RecvHalf {
    reader: BufReader<TcpStream>,
    partial: Option<PartialFrame>,
    /// The read timeout last set on the socket (`None` = none, as opened).
    armed: Option<Duration>,
}

/// What one `drive` pass produced (the caller assigns meaning to
/// `WouldBlock`: benign `Pending` for pollers, terminal stall for blocking
/// receivers whose read timeout expired).
enum Step {
    Frame(Vec<u8>),
    Closed,
    WouldBlock,
}

/// Advance `conn`'s frame state machine until a frame completes (counted
/// as `conn` counts a read), the peer closes, a read would block, or the
/// stream turns out to be broken. Progress is kept in `half.partial`
/// across `WouldBlock` returns.
fn drive(conn: &TcpConn, half: &mut RecvHalf) -> Result<Step> {
    let (max_frame, buffered) = (conn.max_frame, &conn.recv_buffered);
    loop {
        let RecvHalf {
            reader, partial, ..
        } = half;
        let p = match partial {
            Some(p) => p,
            None => {
                *partial = Some(PartialFrame::start());
                continue;
            }
        };
        if p.header_filled < FRAME_HEADER_BYTES {
            match reader.read(&mut p.header[p.header_filled..]) {
                Ok(0) => {
                    let filled = p.header_filled;
                    *partial = None;
                    return if filled == 0 {
                        Ok(Step::Closed)
                    } else {
                        Err(CsqError::Net(format!(
                            "connection closed mid-frame ({filled} of {FRAME_HEADER_BYTES} header bytes)"
                        )))
                    };
                }
                Ok(n) => {
                    p.header_filled += n;
                    p.last_progress = Instant::now();
                    continue;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if is_wouldblock(&e) => {
                    if p.header_filled == 0 {
                        *partial = None; // Zero progress: not mid-frame.
                    }
                    return Ok(Step::WouldBlock);
                }
                Err(e) => {
                    *partial = None;
                    return Err(io_net("recv frame", e));
                }
            }
        }
        let len = u32::from_le_bytes(p.header) as usize;
        if len > max_frame {
            *partial = None;
            return Err(CsqError::Codec(format!(
                "incoming frame of {len} bytes exceeds the {max_frame} byte limit"
            )));
        }
        if p.payload.len() != len {
            // First visit past the header: safe to allocate, the length
            // check above already vetted the wire-supplied size.
            p.payload = vec![0u8; len];
            p.counted = len;
            buffered.fetch_add(len, Ordering::Relaxed);
        }
        if p.payload_filled < len {
            match reader.read(&mut p.payload[p.payload_filled..]) {
                Ok(0) => {
                    buffered.fetch_sub(p.counted, Ordering::Relaxed);
                    *partial = None;
                    return Err(CsqError::Net(format!(
                        "connection closed mid-frame (expected {len} payload bytes)"
                    )));
                }
                Ok(n) => {
                    p.payload_filled += n;
                    p.last_progress = Instant::now();
                    continue;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if is_wouldblock(&e) => return Ok(Step::WouldBlock),
                Err(e) => {
                    buffered.fetch_sub(p.counted, Ordering::Relaxed);
                    *partial = None;
                    return Err(io_net("recv frame", e));
                }
            }
        }
        buffered.fetch_sub(p.counted, Ordering::Relaxed);
        let done = match partial.take() {
            Some(done) => done,
            None => continue, // Unreachable: `p` above proves it is Some.
        };
        let bytes = done.payload.len() + FRAME_HEADER_BYTES;
        conn.stats.record(!conn.is_server, 1, bytes);
        return Ok(Step::Frame(done.payload));
    }
}

/// A framed duplex TCP connection, usable from sender and receiver threads
/// concurrently (send and recv each serialize on their own half).
pub struct TcpConn {
    recv_half: Mutex<RecvHalf>,
    writer: Mutex<TcpStream>,
    max_frame: usize,
    idle_timeout: Mutex<Option<Duration>>,
    /// Live bytes held by an in-progress frame's payload allocation — the
    /// variable part of this connection's receive-side memory.
    recv_buffered: AtomicUsize,
    fd: Fd,
    /// Where this connection counts the frames it moves: a server end's
    /// sends flow down and its receives up, a client's the other way.
    stats: NetStats,
    is_server: bool,
}

impl TcpConn {
    /// Wrap a connected stream (enables `TCP_NODELAY`: the protocol is
    /// request/response batched, so Nagle only adds latency).
    pub fn new(stream: TcpStream) -> Result<TcpConn> {
        TcpConn::with_max_frame(stream, DEFAULT_MAX_FRAME)
    }

    /// Wrap a connected stream with a custom frame-size cap.
    pub fn with_max_frame(stream: TcpStream, max_frame: usize) -> Result<TcpConn> {
        stream
            .set_nodelay(true)
            .map_err(|e| io_net("set_nodelay", e))?;
        let fd = crate::ready::socket_fd(&stream);
        let read_half = stream.try_clone().map_err(|e| io_net("clone stream", e))?;
        Ok(TcpConn {
            recv_half: Mutex::new(RecvHalf {
                reader: BufReader::with_capacity(RECV_BUFFER_CAPACITY, read_half),
                partial: None,
                armed: None,
            }),
            writer: Mutex::new(stream),
            max_frame,
            idle_timeout: Mutex::new(None),
            recv_buffered: AtomicUsize::new(0),
            fd,
            stats: NetStats::new(),
            is_server: false,
        })
    }

    /// Count this connection's frames into `stats`, as the server's end
    /// when `is_server`. Until then a connection is a client's, counted
    /// into stats of its own.
    pub fn counted(mut self, stats: NetStats, is_server: bool) -> TcpConn {
        self.stats = stats;
        self.is_server = is_server;
        self
    }

    /// The frames this connection has written and read whole, each with
    /// its header.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Connect to a listening service.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<TcpConn> {
        let stream = TcpStream::connect(addr).map_err(|e| io_net("connect", e))?;
        TcpConn::new(stream)
    }

    /// Arm (or disarm) the idle/stall timeout. While armed,
    /// [`recv`](TcpConn::recv) returns [`Frame::TimedOut`] when no frame
    /// *starts* within the window (benign: poll a flag and call `recv`
    /// again), and fails with a terminal "stalled" error when a frame
    /// *stops making progress* mid-read — a slowloris peer that opens a
    /// frame and goes silent cannot pin the receiving thread.
    pub fn set_idle_timeout(&self, timeout: Option<Duration>) {
        *self.idle_timeout.lock() = timeout;
    }

    /// Arm (or disarm) a write timeout on the sending half. While armed,
    /// [`send`](TcpConn::send) fails instead of blocking forever when the
    /// peer stops *reading* — the write-side twin of the recv stall
    /// detector (a client that requests a large result and then never
    /// drains its socket must not pin the sending thread).
    pub fn set_write_timeout(&self, timeout: Option<Duration>) -> Result<()> {
        self.writer
            .lock()
            .set_write_timeout(timeout)
            .map_err(|e| io_net("set_write_timeout", e))
    }

    /// Switch the socket between blocking and non-blocking mode. The mode
    /// lives on the shared socket description, so it flips both halves at
    /// once: the service's scheduler polls a parked connection in
    /// non-blocking mode, then flips to blocking before a worker streams a
    /// response (where `SO_SNDTIMEO` — [`set_write_timeout`](Self::set_write_timeout)
    /// — resumes bounding the sends).
    pub fn set_nonblocking(&self, nonblocking: bool) -> Result<()> {
        self.writer
            .lock()
            .set_nonblocking(nonblocking)
            .map_err(|e| io_net("set_nonblocking", e))
    }

    /// The identity [`poll_readable`](crate::ready::poll_readable) selects
    /// this connection by.
    pub fn poll_fd(&self) -> Fd {
        self.fd
    }

    /// Send one frame (header + payload) in one vectored write.
    pub fn send(&self, payload: &[u8]) -> Result<()> {
        self.send_frames(&[payload])
    }

    /// Send `payloads` as consecutive frames — the same bytes as one
    /// [`send`](Self::send) each, in order — in one vectored write that
    /// resumes after a short write, so an answer's frames cost one syscall
    /// and are not copied into one buffer first.
    pub fn send_frames(&self, payloads: &[&[u8]]) -> Result<()> {
        match self.write_frames(payloads)? {
            Ok(()) => Ok(()),
            Err(e) if is_wouldblock(&e) => {
                Err(CsqError::Net("send stalled (peer stopped reading)".into()))
            }
            Err(e) => Err(io_net("send frame", e)),
        }
    }

    /// Non-blocking best-effort send of one frame. `Ok(true)` means the
    /// whole frame reached the socket; `Ok(false)` means the socket's send
    /// buffer could not take it — the frame may be **half-written**, so the
    /// caller must retire the connection (framing is desynced). Meant for
    /// the scheduler's poller thread, which must never block on a peer:
    /// response frames are small, so a refusal here implies a peer that is
    /// flooding requests without draining answers.
    pub fn try_send(&self, payload: &[u8]) -> Result<bool> {
        match self.write_frames(&[payload])? {
            Ok(()) => Ok(true),
            Err(e) if is_wouldblock(&e) => Ok(false),
            Err(e) => Err(io_net("send frame", e)),
        }
    }

    /// The one framing and write loop under every send: each payload's
    /// header then its bytes, written by `write_vectored` until all are out.
    /// The outer error refuses an oversized payload before a byte is
    /// written; the inner one is the socket's (`WouldBlock` when a write
    /// timeout expires or a non-blocking socket is full).
    ///
    /// The frames are counted as they are handed to the socket, so a peer
    /// that has read a frame finds it counted; a failed write takes back
    /// every frame that did not go out whole.
    fn write_frames(&self, payloads: &[&[u8]]) -> Result<std::io::Result<()>> {
        if let Some(big) = payloads.iter().find(|p| p.len() > self.max_frame) {
            return Err(CsqError::Net(format!(
                "refusing to send {}-byte frame (limit {})",
                big.len(),
                self.max_frame
            )));
        }
        let headers: Vec<[u8; FRAME_HEADER_BYTES]> = payloads
            .iter()
            .map(|p| (p.len() as u32).to_le_bytes())
            .collect();
        let mut slices: Vec<IoSlice<'_>> = headers
            .iter()
            .zip(payloads)
            .flat_map(|(h, p)| [IoSlice::new(h), IoSlice::new(p)])
            .collect();
        let mut bufs = &mut slices[..];
        let framed = |p: &&[u8]| p.len() + FRAME_HEADER_BYTES;
        let bytes = payloads.iter().map(framed).sum();
        self.stats.record(self.is_server, payloads.len(), bytes);
        let mut w = self.writer.lock();
        let mut written = 0;
        let outcome = loop {
            if bufs.is_empty() {
                break Ok(());
            }
            match w.write_vectored(bufs) {
                Ok(0) => {
                    let zero = std::io::ErrorKind::WriteZero;
                    break Err(std::io::Error::new(zero, "wrote 0 bytes"));
                }
                Ok(n) => {
                    written += n;
                    IoSlice::advance_slices(&mut bufs, n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        if outcome.is_err() {
            let mut end = 0;
            let whole = payloads.iter().take_while(|p| {
                end += framed(p);
                end <= written
            });
            let lost = &payloads[whole.count()..];
            let lost_bytes = lost.iter().map(framed).sum();
            self.stats.take_back(self.is_server, lost.len(), lost_bytes);
        }
        Ok(outcome)
    }

    /// Receive the next frame event. Errors are terminal for the
    /// connection: a truncated frame (peer died mid-message), an oversized
    /// length header, a frame that stalls mid-read past the armed idle
    /// timeout (a slowloris peer must not pin the reader forever), or an
    /// I/O failure.
    pub fn recv(&self) -> Result<Frame> {
        let mut half = self.recv_half.lock();
        let timeout = *self.idle_timeout.lock();
        // Only `recv` sets the socket's read timeout, so it is re-armed only
        // when the configured value differs from the one it armed last.
        if half.armed != timeout {
            half.reader
                .get_ref()
                .set_read_timeout(timeout)
                .map_err(|e| io_net("set_read_timeout", e))?;
            half.armed = timeout;
        }
        if timeout.is_some() && half.partial.is_none() {
            // Waiting for a frame to *start* is the only benign timeout.
            match half.reader.fill_buf() {
                Ok([]) => return Ok(Frame::Closed),
                Ok(_) => {}
                Err(e) if is_wouldblock(&e) => return Ok(Frame::TimedOut),
                Err(e) => return Err(io_net("recv frame", e)),
            }
        }
        // The timeout stays armed for the rest of the frame: each read must
        // make progress within the window, so a peer that starts a frame
        // and goes silent surfaces as a terminal "stalled" error instead of
        // pinning this thread forever. (Desynchronization is not a concern:
        // a stall error retires the connection.)
        match drive(self, &mut half)? {
            Step::Frame(payload) => Ok(Frame::Payload(payload)),
            Step::Closed => Ok(Frame::Closed),
            Step::WouldBlock => Err(CsqError::Net(
                "frame stalled mid-read (peer stopped sending)".into(),
            )),
        }
    }

    /// Non-blocking receive: make as much progress as the socket allows and
    /// return [`PollFrame::Pending`] when no complete frame is available.
    /// Partial progress is retained inside the connection and resumed by
    /// the next call (blocking [`recv`](Self::recv) resumes it too). The
    /// socket must be in non-blocking mode ([`set_nonblocking`](Self::set_nonblocking));
    /// on a blocking socket this simply degenerates to a blocking receive.
    ///
    /// Errors carry the same meaning as [`recv`](Self::recv): the stream
    /// can no longer be trusted and the connection must be retired.
    pub fn poll_recv(&self) -> Result<PollFrame> {
        let mut half = self.recv_half.lock();
        match drive(self, &mut half)? {
            Step::Frame(payload) => Ok(PollFrame::Frame(payload)),
            Step::Closed => Ok(PollFrame::Closed),
            Step::WouldBlock => Ok(PollFrame::Pending),
        }
    }

    /// How long the connection has been sitting mid-frame without progress
    /// (`None` when no frame is in flight). This is the poller-side stall
    /// clock: blocking receivers get the same protection from the read
    /// timeout, but a non-blocking poller must bound slowloris peers
    /// itself.
    pub fn partial_age(&self) -> Option<Duration> {
        self.recv_half
            .lock()
            .partial
            .as_ref()
            .map(|p| p.last_progress.elapsed())
    }

    /// Receive-side memory bill for this connection: the fixed reader
    /// buffer plus any in-progress frame's payload allocation. The
    /// scheduler sums this across parked sessions as its RSS proxy (a
    /// parked connection must cost ~the reader buffer, nothing more).
    pub fn recv_buffer_bytes(&self) -> usize {
        RECV_BUFFER_CAPACITY + self.recv_buffered.load(Ordering::Relaxed)
    }

    /// Best-effort shutdown of both directions (unblocks a peer's recv).
    pub fn shutdown(&self) {
        let _ = self.writer.lock().shutdown(Shutdown::Both);
    }
}

/// A loopback TCP duplex `(server, client, stats)` — the socket-backed
/// analog of [`in_memory_duplex`](crate::in_memory_duplex). `stats` are
/// the server end's counts: every frame it writes or reads, header
/// included, so they report exactly what crossed the socket.
pub fn tcp_duplex() -> Result<(Endpoint, Endpoint, NetStats)> {
    let (server_stream, client_stream) =
        crate::ready::loopback_pair().map_err(|e| io_net("loopback pair", e))?;
    let stats = NetStats::new();
    let server = TcpConn::new(server_stream)?.counted(stats.clone(), true);
    let client = TcpConn::new(client_stream)?;
    let (server, client) = (Arc::new(server), Arc::new(client));
    Ok((
        Endpoint::from_tcp(server),
        Endpoint::from_tcp(client),
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loopback_pair() -> (TcpConn, TcpConn) {
        let (server, client) = crate::ready::loopback_pair().unwrap();
        (TcpConn::new(server).unwrap(), TcpConn::new(client).unwrap())
    }

    #[test]
    fn frames_roundtrip_both_directions() {
        let (server, client) = loopback_pair();
        server.send(&[1, 2, 3]).unwrap();
        server.send(&[]).unwrap();
        match client.recv().unwrap() {
            Frame::Payload(p) => assert_eq!(p, vec![1, 2, 3]),
            other => panic!("expected payload, got {other:?}"),
        }
        match client.recv().unwrap() {
            Frame::Payload(p) => assert!(p.is_empty()),
            other => panic!("expected empty payload, got {other:?}"),
        }
        client.send(&[9; 1000]).unwrap();
        match server.recv().unwrap() {
            Frame::Payload(p) => assert_eq!(p.len(), 1000),
            other => panic!("expected payload, got {other:?}"),
        }
    }

    #[test]
    fn send_frames_writes_the_frames_a_send_each_would_in_order() {
        let (server, client) = loopback_pair();
        // Far past a socket buffer, so the vectored write has to resume
        // after short writes.
        let big: Vec<u8> = (0..3 << 20).map(|i| (i % 251) as u8).collect();
        let reader = std::thread::spawn(move || {
            (0..4)
                .map(|_| match client.recv().unwrap() {
                    Frame::Payload(p) => p,
                    other => panic!("expected payload, got {other:?}"),
                })
                .collect::<Vec<_>>()
        });
        let frames: [&[u8]; 4] = [&[1, 2, 3], &[], &big, &[7]];
        server.send_frames(&frames).unwrap();
        assert_eq!(reader.join().unwrap(), frames.map(<[u8]>::to_vec));
    }

    #[test]
    fn recv_rearms_the_read_timeout_only_when_it_changes() {
        let (server, client) = loopback_pair();
        let armed = || server.recv_half.lock().armed;
        assert_eq!(armed(), None);
        let tick = Some(Duration::from_millis(20));
        server.set_idle_timeout(tick);
        assert!(matches!(server.recv().unwrap(), Frame::TimedOut));
        assert_eq!(armed(), tick);
        client.send(&[1]).unwrap();
        assert!(matches!(server.recv().unwrap(), Frame::Payload(_)));
        assert_eq!(armed(), tick);
        server.set_idle_timeout(None);
        client.send(&[2]).unwrap();
        assert!(matches!(server.recv().unwrap(), Frame::Payload(_)));
        assert_eq!(armed(), None);
    }

    #[test]
    fn clean_close_reports_closed() {
        let (server, client) = loopback_pair();
        drop(server);
        assert!(matches!(client.recv().unwrap(), Frame::Closed));
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let (server, mut raw) = crate::ready::loopback_pair().unwrap();
        let server = TcpConn::new(server).unwrap();
        // Claim 100 bytes, deliver 3, die.
        raw.write_all(&100u32.to_le_bytes()).unwrap();
        raw.write_all(&[1, 2, 3]).unwrap();
        drop(raw);
        let err = server.recv().unwrap_err();
        assert_eq!(err.kind(), "net");
        assert!(err.message().contains("mid-frame"), "{err}");
    }

    #[test]
    fn oversized_frame_is_rejected_without_allocation() {
        let (server, mut raw) = crate::ready::loopback_pair().unwrap();
        let server = TcpConn::with_max_frame(server, 1024).unwrap();
        raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let err = server.recv().unwrap_err();
        assert_eq!(err.kind(), "codec");
        assert!(err.message().contains("exceeds"), "{err}");
    }

    #[test]
    fn stalled_mid_frame_errors_instead_of_hanging() {
        // A slowloris peer: starts a frame (header promising 64 bytes),
        // then goes silent while keeping the socket open. With the idle
        // timeout armed, recv must fail fast, not block forever.
        let (server, client) = loopback_pair();
        server.set_idle_timeout(Some(Duration::from_millis(30)));
        // Hand-craft the stall: the client writes only a frame header.
        {
            let mut raw = client.writer.lock();
            raw.write_all(&64u32.to_le_bytes()).unwrap();
            raw.flush().unwrap();
        }
        let started = std::time::Instant::now();
        let err = server.recv().unwrap_err();
        assert_eq!(err.kind(), "net");
        assert!(err.message().contains("stalled"), "{err}");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "stall detection must be prompt"
        );
    }

    #[test]
    fn idle_timeout_ticks_then_still_delivers() {
        let (server, client) = loopback_pair();
        server.set_idle_timeout(Some(Duration::from_millis(20)));
        assert!(matches!(server.recv().unwrap(), Frame::TimedOut));
        client.send(&[7]).unwrap();
        match server.recv().unwrap() {
            Frame::Payload(p) => assert_eq!(p, vec![7]),
            other => panic!("expected payload, got {other:?}"),
        }
    }

    #[test]
    fn poll_recv_resumes_partial_frames_across_calls() {
        let (server, client) = loopback_pair();
        server.set_nonblocking(true).unwrap();
        // Nothing sent yet: pending, and no partial in flight.
        assert!(matches!(server.poll_recv().unwrap(), PollFrame::Pending));
        assert!(server.partial_age().is_none());

        // Dribble a frame across three writes: header, half, rest.
        let payload = [7u8; 32];
        {
            let mut raw = client.writer.lock();
            raw.write_all(&32u32.to_le_bytes()).unwrap();
            raw.flush().unwrap();
        }
        // Let the bytes cross loopback, then observe a mid-frame partial.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match server.poll_recv().unwrap() {
                PollFrame::Pending if server.partial_age().is_some() => break,
                PollFrame::Pending => {}
                other => panic!("expected pending mid-frame, got {other:?}"),
            }
            assert!(std::time::Instant::now() < deadline, "header never arrived");
        }
        assert!(
            server.recv_buffer_bytes() >= RECV_BUFFER_CAPACITY + 32,
            "in-progress payload must be charged to the buffer bill"
        );
        {
            let mut raw = client.writer.lock();
            raw.write_all(&payload[..16]).unwrap();
            raw.write_all(&payload[16..]).unwrap();
            raw.flush().unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let got = loop {
            match server.poll_recv().unwrap() {
                PollFrame::Frame(p) => break p,
                PollFrame::Pending => {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "frame never completed"
                    )
                }
                other => panic!("expected frame, got {other:?}"),
            }
        };
        assert_eq!(got, payload.to_vec());
        assert!(server.partial_age().is_none());
        assert_eq!(
            server.recv_buffer_bytes(),
            RECV_BUFFER_CAPACITY,
            "completed frame must repay its buffer accounting"
        );
    }

    #[test]
    fn poll_recv_drains_pipelined_frames_then_pends() {
        let (server, client) = loopback_pair();
        server.set_nonblocking(true).unwrap();
        client.send(&[1]).unwrap();
        client.send(&[2, 2]).unwrap();
        client.send(&[3, 3, 3]).unwrap();
        let mut got = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while got.len() < 3 {
            match server.poll_recv().unwrap() {
                PollFrame::Frame(p) => got.push(p.len()),
                PollFrame::Pending => {
                    assert!(std::time::Instant::now() < deadline, "frames never arrived")
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(got, vec![1, 2, 3]);
        assert!(matches!(server.poll_recv().unwrap(), PollFrame::Pending));
    }

    #[test]
    fn poll_recv_reports_clean_close_and_peer_death() {
        let (server, client) = loopback_pair();
        server.set_nonblocking(true).unwrap();
        drop(client);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match server.poll_recv().unwrap() {
                PollFrame::Closed => break,
                PollFrame::Pending => {
                    assert!(std::time::Instant::now() < deadline, "close never observed")
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn blocking_recv_finishes_a_frame_started_by_poll_recv() {
        let (server, client) = loopback_pair();
        server.set_nonblocking(true).unwrap();
        {
            let mut raw = client.writer.lock();
            raw.write_all(&8u32.to_le_bytes()).unwrap();
            raw.write_all(&[5u8; 4]).unwrap();
            raw.flush().unwrap();
        }
        // Poll until the partial is in flight.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.partial_age().is_none() {
            assert!(matches!(server.poll_recv().unwrap(), PollFrame::Pending));
            assert!(
                std::time::Instant::now() < deadline,
                "partial never started"
            );
        }
        // Finish the frame and switch the receiver back to blocking mode:
        // recv must resume the same partial, not desync.
        {
            let mut raw = client.writer.lock();
            raw.write_all(&[5u8; 4]).unwrap();
            raw.flush().unwrap();
        }
        server.set_nonblocking(false).unwrap();
        match server.recv().unwrap() {
            Frame::Payload(p) => assert_eq!(p, vec![5u8; 8]),
            other => panic!("expected payload, got {other:?}"),
        }
    }

    #[test]
    fn try_send_delivers_small_frames_and_refuses_when_full() {
        let (server, client) = loopback_pair();
        server.set_nonblocking(true).unwrap();
        assert!(server.try_send(&[9u8; 16]).unwrap(), "small frame must go");
        match client.recv().unwrap() {
            Frame::Payload(p) => assert_eq!(p, vec![9u8; 16]),
            other => panic!("expected payload, got {other:?}"),
        }
        // Saturate the send buffer against a non-reading peer; eventually a
        // try_send must refuse instead of blocking.
        let big = vec![0u8; 256 * 1024];
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match server.try_send(&big) {
                Ok(true) => assert!(
                    std::time::Instant::now() < deadline,
                    "socket buffer never filled"
                ),
                Ok(false) => break,
                Err(e) => panic!("try_send must refuse, not fail: {e}"),
            }
        }
    }

    #[test]
    fn a_connection_counts_the_frames_it_moves_whole() {
        let (server, client) = loopback_pair();
        let stats = NetStats::new();
        let server = server.counted(stats.clone(), true);
        let counts = |s: &NetStats| {
            let down = (s.down_messages(), s.down_bytes());
            (down, (s.up_messages(), s.up_bytes()))
        };
        // A run of frames: each counted with its header, as downlink.
        let frames: [&[u8]; 3] = [&[1, 2, 3], &[], &[7; 10]];
        server.send_frames(&frames).unwrap();
        assert_eq!(counts(&stats), ((3, 13 + 3 * 4), (0, 0)));
        // The client counts each whole frame it reads, blocking or polled.
        assert!(matches!(client.recv().unwrap(), Frame::Payload(_)));
        assert_eq!(counts(client.stats()), ((1, 7), (0, 0)));
        client.set_nonblocking(true).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while client.stats().down_messages() < 3 {
            assert!(matches!(
                client.poll_recv().unwrap(),
                PollFrame::Frame(_) | PollFrame::Pending
            ));
            assert!(std::time::Instant::now() < deadline, "frames never arrived");
        }
        assert!(matches!(client.poll_recv().unwrap(), PollFrame::Pending));
        assert_eq!(counts(client.stats()), ((3, 25), (0, 0)));
        // Its sends are uplink frames, and so are the server's reads.
        client.send(&[5; 6]).unwrap();
        assert!(matches!(server.recv().unwrap(), Frame::Payload(_)));
        assert_eq!(counts(client.stats()), ((3, 25), (1, 10)));
        assert_eq!(counts(&stats), ((3, 25), (1, 10)));
        // A try_send that would block counts nothing, even when it wrote
        // part of its frame.
        server.set_nonblocking(true).unwrap();
        let big = vec![0u8; 256 * 1024];
        let mut sent = 0;
        while server.try_send(&big).unwrap() {
            sent += 1;
            assert!(sent < 4096, "socket buffer never filled");
        }
        let big_frame = (big.len() + FRAME_HEADER_BYTES) as u64;
        let down = (3 + sent, 25 + sent * big_frame);
        assert_eq!(counts(&stats), (down, (1, 10)));
        // A send on a shut-down socket counts nothing.
        server.shutdown();
        assert!(server.send(&[1; 8]).is_err());
        assert_eq!(counts(&stats), (down, (1, 10)));
    }

    #[test]
    fn tcp_duplex_counts_framed_bytes() {
        let (server, client, stats) = tcp_duplex().unwrap();
        server.send(vec![0; 100]).unwrap();
        assert_eq!(client.recv().unwrap().len(), 100);
        client.send(vec![0; 10]).unwrap();
        assert_eq!(server.recv().unwrap().len(), 10);
        assert_eq!(stats.down_bytes(), 100 + FRAME_HEADER_BYTES as u64);
        assert_eq!(stats.up_bytes(), 10 + FRAME_HEADER_BYTES as u64);
        assert_eq!(stats.down_messages(), 1);
        assert_eq!(stats.up_messages(), 1);
    }

    #[test]
    fn tcp_endpoint_recv_none_after_peer_drop() {
        let (server, client, _) = tcp_duplex().unwrap();
        drop(server);
        assert!(client.recv().is_none());
    }

    #[test]
    fn tcp_endpoint_split_works_across_threads() {
        let (server, client, _) = tcp_duplex().unwrap();
        let (stx, srx) = server.split();
        let echo = std::thread::spawn(move || {
            while let Some(msg) = client.recv() {
                if client.send(msg).is_err() {
                    break;
                }
            }
        });
        for i in 0..20u8 {
            stx.send(vec![i; 10]).unwrap();
        }
        for i in 0..20u8 {
            assert_eq!(srx.recv().unwrap(), vec![i; 10]);
        }
        drop(stx);
        drop(srx);
        echo.join().unwrap();
    }
}
