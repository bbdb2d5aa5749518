//! The in-memory duplex transport, in real or virtual time.
//!
//! The shipping operators in `csq-ship` talk to a client over a duplex
//! message channel with byte accounting. Every endpoint keeps a virtual
//! clock (µs). Over a [`virtual_duplex`] each message is stamped with the
//! time it reaches the peer — its sender's clock pushed through that
//! direction's [`Link`] — and a receive moves the receiver's clock up to
//! the stamp; the protocol code adds the waits and the work it times itself
//! ([`NetSender::advance_to`], [`Endpoint::answer`]). Virtual time thus
//! measures the protocol that actually runs, and deterministically: every
//! wait is timestamped, so thread interleaving moves no clock.
//! [`in_memory_duplex`] is the same channel with every stamp 0. Its client
//! end is served by whoever holds it, or inline ([`Endpoint::with_client`]):
//! each message is answered before its send returns, on the same thread.
//! A channel endpoint counts each message it sends into the duplex's
//! [`NetStats`]; an endpoint over TCP ([`tcp_duplex`](crate::tcp_duplex))
//! counts nothing itself — its connection counts each frame, header
//! included.

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

    /// µs the endpoints spent on their own work ([`Endpoint::answer`]): on
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

/// What a client made of one request: the reply, if the request has one;
/// µs of the client's own work before the reply leaves; and whether the
/// client is done, taking no further request.
#[derive(Debug, Default)]
pub struct Answer {
    pub reply: Option<Vec<u8>>,
    pub work_us: SimTime,
    pub done: bool,
}

/// What actually carries a sender's messages: the in-memory channel, its
/// messages flowing `direction`, timed by the links of a virtual duplex (if
/// any) and counted into `stats`; or a framed TCP connection, which counts
/// its own frames.
enum SendHalf {
    Chan {
        tx: Sender<Message>,
        direction: Direction,
        links: Option<VirtualLinks>,
        stats: NetStats,
    },
    Tcp(Arc<crate::tcp::TcpConn>),
}

/// Sending half of an endpoint.
pub struct NetSender {
    half: SendHalf,
    clock: Clock,
    /// Serves an inline client end: answers the message just sent.
    inline: Option<Mutex<Box<dyn FnMut() + Send>>>,
}

impl NetSender {
    /// Send one message, stamped with its arrival at the sender's clock.
    /// Never blocks: the link queues it behind the messages before it.
    pub fn send(&self, payload: Vec<u8>) -> Result<()> {
        match &self.half {
            SendHalf::Chan {
                tx,
                direction,
                links,
                stats,
            } => {
                stats.record(*direction == Direction::Down, 1, payload.len());
                let deliver_at = links.as_ref().map_or(0, |links| {
                    links.transmit(*direction, self.clock.now(), payload.len())
                });
                tx.send(Message {
                    deliver_at,
                    payload,
                })
                .map_err(|_| CsqError::Net("peer endpoint closed".into()))?
            }
            SendHalf::Tcp(conn) => conn.send(&payload)?,
        }
        if let Some(serve) = &self.inline {
            (*serve.lock())();
        }
        Ok(())
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

    /// Give the client's `answer`: its work passes on this clock, then its
    /// reply leaves. False once the client is done or the peer is gone.
    pub fn answer(&self, answer: Answer) -> bool {
        let work = answer.work_us;
        self.receiver.clock.0.fetch_add(work, Ordering::Relaxed);
        if let SendHalf::Chan {
            links: Some(links), ..
        } = &self.sender.half
        {
            links.0.work.fetch_add(work, Ordering::Relaxed);
        }
        let sent = answer.reply.map_or(Ok(()), |reply| self.send(reply));
        !answer.done && sent.is_ok()
    }

    /// This server endpoint with its pair's `client` end served inline by
    /// `step`: each message is answered before its send returns, and a done
    /// client's end is dropped, which closes it.
    pub fn with_client(
        mut self,
        client: Endpoint,
        mut step: impl FnMut(Vec<u8>) -> Answer + Send + 'static,
    ) -> Endpoint {
        let mut end = Some(client);
        let serve = move || {
            end = end
                .take()
                .filter(|e| e.recv().is_some_and(|r| e.answer(step(r))));
        };
        self.sender.inline = Some(Mutex::new(Box::new(serve)));
        self
    }

    /// Split into independently-owned halves, each with a clock: the
    /// receiving half keeps the endpoint's, the sending half starts one of
    /// its own at its time (Figure 3's sender and receiver).
    pub fn split(self) -> (NetSender, NetReceiver) {
        let mut sender = self.sender;
        sender.clock = sender.clock.fork();
        (sender, self.receiver)
    }

    fn new(half: SendHalf, rx: RecvHalf, clock: Clock) -> Endpoint {
        let sender = NetSender {
            half,
            clock: clock.clone(),
            inline: None,
        };
        Endpoint {
            sender,
            receiver: NetReceiver { rx, clock },
        }
    }

    /// Wrap a framed TCP connection as an endpoint; the connection counts
    /// its own frames.
    pub(crate) fn from_tcp(conn: Arc<crate::tcp::TcpConn>) -> Endpoint {
        let (half, rx) = (SendHalf::Tcp(conn.clone()), RecvHalf::Tcp(conn));
        Endpoint::new(half, rx, Clock::default())
    }
}

fn build_pair(links: Option<&VirtualLinks>) -> (Endpoint, Endpoint, NetStats) {
    let stats = NetStats::new();
    let (down_tx, down_rx) = unbounded::<Message>();
    let (up_tx, up_rx) = unbounded::<Message>();
    let end = |tx, rx, direction, clock| {
        let half = SendHalf::Chan {
            tx,
            direction,
            links: links.cloned(),
            stats: stats.clone(),
        };
        Endpoint::new(half, RecvHalf::Chan(rx), clock)
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
        assert!(client.answer(Answer {
            reply: Some(vec![0; 100]),
            work_us: 9_000,
            done: false,
        }));
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

    /// An echo client: each request answered by itself reversed, after
    /// `work_us` per byte, and done at an empty request.
    fn echo(work_us: SimTime) -> impl FnMut(Vec<u8>) -> Answer + Send + 'static {
        move |request: Vec<u8>| Answer {
            done: request.is_empty(),
            work_us: work_us * request.len() as SimTime,
            reply: (!request.is_empty()).then(|| request.into_iter().rev().collect()),
        }
    }

    #[test]
    fn an_inline_client_stamps_and_counts_what_a_served_one_does() {
        // Requests of 3 000, 10 and 500 bytes, the sender's clock moved
        // between them: over a pair whose client is served afterwards, and
        // over one whose client answers each as it is sent.
        let spec = NetworkSpec::symmetric(100_000.0, 2_000);
        let sizes = [3_000, 10, 500];
        let send_all = |server: &NetSender| {
            for (i, &size) in sizes.iter().enumerate() {
                server.send(vec![i as u8; size]).unwrap();
                server.advance_to(40_000 * i as SimTime);
            }
        };
        let (server, client, pair) = virtual_duplex(&spec);
        let (tx, rx) = server.split();
        send_all(&tx);
        let mut step = echo(3);
        for _ in sizes {
            assert!(client.answer(step(client.recv().unwrap())));
        }
        let (server, client, inline) = virtual_duplex(&spec);
        let (inline_tx, inline_rx) = server.with_client(client, echo(3)).split();
        send_all(&inline_tx);
        for _ in sizes {
            assert_eq!(rx.recv().unwrap(), inline_rx.recv().unwrap());
            assert_eq!(rx.now(), inline_rx.now());
        }
        assert_eq!(pair.server_clock(), inline.server_clock());
        assert_eq!(inline.work_us(), 3 * 3_510);
        assert_eq!(pair.work_us(), inline.work_us());
        for (a, b) in [
            (pair.downlink(), inline.downlink()),
            (pair.uplink(), inline.uplink()),
        ] {
            assert_eq!(a.bytes_sent(), b.bytes_sent());
            assert_eq!(a.messages_sent(), b.messages_sent());
            assert_eq!(a.busy_time(), b.busy_time());
        }
    }

    #[test]
    fn a_done_inline_client_closes_its_end() {
        let (server, client, stats) = in_memory_duplex();
        let server = server.with_client(client, echo(0));
        server.send(vec![1, 2, 3]).unwrap();
        server.send(Vec::new()).unwrap();
        assert!(server.send(vec![4]).is_err(), "the client is done");
        // The reply it sent first is still delivered, then nothing is.
        assert_eq!(server.recv().unwrap(), vec![3, 2, 1]);
        assert!(server.recv().is_none());
        assert_eq!(server.receiver.now(), 0);
        assert_eq!((stats.down_messages(), stats.up_messages()), (3, 1));
        assert_eq!((stats.down_bytes(), stats.up_bytes()), (4, 3));
    }

    #[test]
    fn overhead_is_counted() {
        let mut spec = NetworkSpec::symmetric(1e9, 0);
        spec.per_message_overhead = 8;
        let (server, client, links) = virtual_duplex(&spec);
        server.send(vec![0; 100]).unwrap();
        client.recv().unwrap();
        assert_eq!(links.downlink().bytes_sent(), 108);
    }
}
