//! The in-memory duplex transport, in real or virtual time.
//!
//! The shipping operators in `csq-ship` run real sender and receiver
//! threads (Figure 3 of the paper) around a real client thread; this module
//! gives them a duplex message channel with byte accounting. Every endpoint
//! keeps a virtual clock (µs). Over a [`virtual_duplex`] each message is
//! stamped with the time it reaches the peer — its sender's clock pushed
//! through that direction's [`Link`] — and a receive moves the receiver's
//! clock up to the stamp; the protocol code adds the waits and the work it
//! times itself ([`NetSender::advance_to`], [`Endpoint::advance`]). Virtual
//! time thus measures the protocol that actually runs, and deterministically:
//! every wait is timestamped, so thread interleaving moves no clock.
//! [`in_memory_duplex`] is the same channel with every stamp 0.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use csq_common::{CsqError, Result};

use crate::link::{Link, SimTime};
use crate::spec::NetworkSpec;
use crate::stats::NetStats;

/// Which way an endpoint's sends flow, for stats accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// Server→client (downlink).
    Down,
    /// Client→server (uplink).
    Up,
}

/// A virtual clock, µs. The two halves of an unsplit endpoint share one.
#[derive(Debug, Clone, Default)]
struct Clock(Arc<AtomicU64>);

impl Clock {
    fn now(&self) -> SimTime {
        self.0.load(Ordering::Relaxed)
    }

    fn advance_to(&self, at: SimTime) {
        self.0.fetch_max(at, Ordering::Relaxed);
    }

    /// A clock of its own, starting at this one's time.
    fn fork(&self) -> Clock {
        Clock(Arc::new(AtomicU64::new(self.now())))
    }
}

/// The modelled links of a [`virtual_duplex`], one [`Link`] per direction,
/// its server endpoint's clock and its endpoints' own work. Clones share
/// them; read them once the run is over.
#[derive(Clone)]
pub struct VirtualLinks(Arc<Links>);

struct Links {
    spec: NetworkSpec,
    down: Mutex<Link>,
    up: Mutex<Link>,
    server: Clock,
    work: AtomicU64,
}

impl VirtualLinks {
    /// Put a `size`-byte payload on `direction`'s link at `at`; returns when
    /// it reaches the peer.
    fn transmit(&self, direction: Direction, at: SimTime, size: usize) -> SimTime {
        let links = &self.0;
        let (link, bytes) = match direction {
            Direction::Down => (&links.down, links.spec.downlink_bytes(size)),
            Direction::Up => (&links.up, links.spec.uplink_bytes(size)),
        };
        link.lock().transmit(at, bytes).1
    }

    /// The downlink: bytes, messages and busy time so far.
    pub fn downlink(&self) -> Link {
        self.0.down.lock().clone()
    }

    /// The uplink: bytes (after any inflation), messages and busy time so
    /// far.
    pub fn uplink(&self) -> Link {
        self.0.up.lock().clone()
    }

    /// The server endpoint's clock — its receiving half's once split: when
    /// the server took the last message it received.
    pub fn server_clock(&self) -> SimTime {
        self.0.server.now()
    }

    /// µs the endpoints spent on their own work ([`Endpoint::advance`]): on
    /// a shipping duplex, the client's UDF CPU.
    pub fn work_us(&self) -> SimTime {
        self.0.work.load(Ordering::Relaxed)
    }
}

struct Message {
    /// When the message reaches the receiver, in virtual time.
    deliver_at: SimTime,
    payload: Vec<u8>,
}

/// What actually carries a sender's messages: the in-memory channel (timed
/// by the links of a virtual duplex, if any) or a framed TCP connection.
enum SendHalf {
    Chan {
        tx: Sender<Message>,
        links: Option<VirtualLinks>,
    },
    Tcp(Arc<crate::tcp::TcpConn>),
}

/// Sending half of an endpoint.
pub struct NetSender {
    half: SendHalf,
    stats: NetStats,
    direction: Direction,
    overhead: usize,
    clock: Clock,
}

impl NetSender {
    /// Send one message, stamped with its arrival at the sender's clock.
    /// Never blocks: the link queues it behind the messages before it.
    pub fn send(&self, payload: Vec<u8>) -> Result<()> {
        let wire_bytes = payload.len() + self.overhead;
        match self.direction {
            Direction::Down => self.stats.record_down(wire_bytes),
            Direction::Up => self.stats.record_up(wire_bytes),
        }
        match &self.half {
            SendHalf::Chan { tx, links } => {
                let deliver_at = links.as_ref().map_or(0, |links| {
                    links.transmit(self.direction, self.clock.now(), payload.len())
                });
                tx.send(Message {
                    deliver_at,
                    payload,
                })
                .map_err(|_| CsqError::Net("peer endpoint closed".into()))
            }
            SendHalf::Tcp(conn) => conn.send(&payload),
        }
    }

    /// Move the sender's clock up to `at`: a wait the protocol timed
    /// itself, such as a credit stamped by the receiver.
    pub fn advance_to(&self, at: SimTime) {
        self.clock.advance_to(at);
    }
}

/// What a receiver drains: the in-memory channel or a framed TCP
/// connection.
enum RecvHalf {
    Chan(Receiver<Message>),
    Tcp(Arc<crate::tcp::TcpConn>),
}

/// Receiving half of an endpoint.
pub struct NetReceiver {
    rx: RecvHalf,
    clock: Clock,
}

impl NetReceiver {
    /// Receive the next message, blocking; `None` when the peer closed.
    /// The receiver's clock moves up to the message's arrival.
    /// On a TCP endpoint any transport failure (truncated frame, reset)
    /// also reads as `None` — the peer is gone either way; consumers that
    /// need the distinction use [`crate::tcp::TcpConn`] directly.
    pub fn recv(&self) -> Option<Vec<u8>> {
        match &self.rx {
            RecvHalf::Chan(rx) => {
                let msg = rx.recv().ok()?;
                self.clock.advance_to(msg.deliver_at);
                Some(msg.payload)
            }
            RecvHalf::Tcp(conn) => match conn.recv() {
                Ok(crate::tcp::Frame::Payload(p)) => Some(p),
                _ => None,
            },
        }
    }

    /// The receiver's clock, µs.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }
}

/// One side of the duplex connection.
pub struct Endpoint {
    sender: NetSender,
    receiver: NetReceiver,
}

impl Endpoint {
    /// Send a message to the peer.
    pub fn send(&self, payload: Vec<u8>) -> Result<()> {
        self.sender.send(payload)
    }

    /// Receive from the peer (blocking); `None` when the peer closed.
    pub fn recv(&self) -> Option<Vec<u8>> {
        self.receiver.recv()
    }

    /// Add `us` of the endpoint's own work to its clock (and, on a virtual
    /// duplex, to [`VirtualLinks::work_us`]).
    pub fn advance(&self, us: SimTime) {
        self.receiver.clock.0.fetch_add(us, Ordering::Relaxed);
        if let SendHalf::Chan {
            links: Some(links), ..
        } = &self.sender.half
        {
            links.0.work.fetch_add(us, Ordering::Relaxed);
        }
    }

    /// Split into independently-owned halves so sender and receiver threads
    /// (Figure 3) can each own their direction. The receiving half keeps
    /// the endpoint's clock; the sending half gets one of its own.
    pub fn split(self) -> (NetSender, NetReceiver) {
        let mut sender = self.sender;
        sender.clock = sender.clock.fork();
        (sender, self.receiver)
    }

    fn new(
        half: SendHalf,
        rx: RecvHalf,
        direction: Direction,
        overhead: usize,
        stats: NetStats,
        clock: Clock,
    ) -> Endpoint {
        let sender = NetSender {
            half,
            stats,
            direction,
            overhead,
            clock: clock.clone(),
        };
        Endpoint {
            sender,
            receiver: NetReceiver { rx, clock },
        }
    }

    /// Wrap one side of a framed TCP connection as an endpoint. `is_server`
    /// picks the stats direction for sends (server sends flow down). The
    /// real 4-byte frame header is charged as per-message overhead so byte
    /// accounting matches what crosses the socket.
    pub(crate) fn from_tcp(
        conn: Arc<crate::tcp::TcpConn>,
        is_server: bool,
        stats: NetStats,
    ) -> Endpoint {
        let direction = if is_server {
            Direction::Down
        } else {
            Direction::Up
        };
        let (half, rx) = (SendHalf::Tcp(conn.clone()), RecvHalf::Tcp(conn));
        let overhead = crate::tcp::FRAME_HEADER_BYTES;
        Endpoint::new(half, rx, direction, overhead, stats, Clock::default())
    }
}

fn build_pair(links: Option<&VirtualLinks>) -> (Endpoint, Endpoint, NetStats) {
    let stats = NetStats::new();
    let (down_tx, down_rx) = unbounded::<Message>();
    let (up_tx, up_rx) = unbounded::<Message>();
    let end = |tx, rx, direction, clock| {
        let half = SendHalf::Chan {
            tx,
            links: links.cloned(),
        };
        Endpoint::new(half, RecvHalf::Chan(rx), direction, 0, stats.clone(), clock)
    };
    let server_clock = links.map_or_else(Clock::default, |l| l.0.server.clone());
    let server = end(down_tx, up_rx, Direction::Down, server_clock);
    let client = end(up_tx, down_rx, Direction::Up, Clock::default());
    (server, client, stats)
}

/// An in-memory duplex connection `(server, client, stats)` in real time:
/// bytes are counted and every message is stamped 0.
pub fn in_memory_duplex() -> (Endpoint, Endpoint, NetStats) {
    build_pair(None)
}

/// An in-memory duplex connection `(server, client, links)` in virtual
/// time over `spec`'s links: a message's stamp is its sender's clock pushed
/// through the link of its direction, at the bytes `spec` charges for it
/// there (framing overhead, uplink inflation).
pub fn virtual_duplex(spec: &NetworkSpec) -> (Endpoint, Endpoint, VirtualLinks) {
    let links = VirtualLinks(Arc::new(Links {
        spec: spec.clone(),
        down: Mutex::new(spec.make_downlink()),
        up: Mutex::new(spec.make_uplink()),
        server: Clock::default(),
        work: AtomicU64::new(0),
    }));
    let (server, client, _) = build_pair(Some(&links));
    (server, client, links)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplex_roundtrip_counts_bytes() {
        let (server, client, stats) = in_memory_duplex();
        server.send(vec![1, 2, 3]).unwrap();
        assert_eq!(client.recv().unwrap(), vec![1, 2, 3]);
        client.send(vec![9; 10]).unwrap();
        assert_eq!(server.recv().unwrap().len(), 10);
        assert_eq!(stats.down_bytes(), 3);
        assert_eq!(stats.up_bytes(), 10);
        assert_eq!(stats.down_messages(), 1);
        assert_eq!(stats.up_messages(), 1);
    }

    #[test]
    fn recv_returns_none_after_peer_drop() {
        let (server, client, _) = in_memory_duplex();
        drop(server);
        assert!(client.recv().is_none());
    }

    #[test]
    fn split_halves_work_across_threads() {
        let (server, client, _) = in_memory_duplex();
        let (stx, srx) = server.split();
        let echo = std::thread::spawn(move || {
            while let Some(msg) = client.recv() {
                if client.send(msg).is_err() {
                    break;
                }
            }
        });
        for i in 0..10u8 {
            stx.send(vec![i]).unwrap();
        }
        for i in 0..10u8 {
            assert_eq!(srx.recv().unwrap(), vec![i]);
        }
        drop(stx);
        drop(srx);
        echo.join().unwrap();
    }

    #[test]
    fn a_virtual_round_trip_moves_each_clock_to_its_arrival() {
        // 100 000 B/s, 1 ms each way: 10 000 bytes take 100 ms to transmit.
        let spec = NetworkSpec::symmetric(100_000.0, 1_000);
        let (server, client, links) = virtual_duplex(&spec);
        server.send(vec![0; 10_000]).unwrap();
        server.send(vec![0; 10_000]).unwrap();
        client.recv().unwrap();
        assert_eq!(client.receiver.now(), 101_000);
        // The second message queued behind the first on the serial link.
        client.recv().unwrap();
        assert_eq!(client.receiver.now(), 201_000);
        client.advance(9_000);
        client.send(vec![0; 100]).unwrap();
        server.recv().unwrap();
        assert_eq!(links.server_clock(), 201_000 + 9_000 + 1_000 + 1_000);
        assert_eq!(links.work_us(), 9_000);
        assert_eq!(links.downlink().busy_time(), 200_000);
        assert_eq!(links.downlink().messages_sent(), 2);
        assert_eq!(links.uplink().bytes_sent(), 100);
        // The real-time duplex stamps every message 0.
        let (server, client, _) = in_memory_duplex();
        server.send(vec![0; 10_000]).unwrap();
        client.recv().unwrap();
        assert_eq!(client.receiver.now(), 0);
    }

    #[test]
    fn a_split_sender_keeps_a_clock_of_its_own() {
        let spec = NetworkSpec::symmetric(1_000.0, 0);
        let (server, client, links) = virtual_duplex(&spec);
        let (tx, rx) = server.split();
        client.send(vec![0; 1_000]).unwrap();
        rx.recv().unwrap();
        assert_eq!(rx.now(), 1_000_000);
        // Receiving moved the receiver, not the sender: this send starts at
        // 0 until the sender is told to wait.
        tx.send(vec![0; 1_000]).unwrap();
        tx.advance_to(5_000_000);
        tx.send(vec![0; 1_000]).unwrap();
        client.recv().unwrap();
        assert_eq!(client.receiver.now(), 1_000_000);
        client.recv().unwrap();
        assert_eq!(client.receiver.now(), 6_000_000);
        assert_eq!(links.server_clock(), 1_000_000);
    }

    #[test]
    fn overhead_is_counted() {
        let spec = NetworkSpec::symmetric(1e9, 0).with_overhead(8);
        let (server, client, links) = virtual_duplex(&spec);
        server.send(vec![0; 100]).unwrap();
        client.recv().unwrap();
        assert_eq!(links.downlink().bytes_sent(), 108);
    }
}
