//! # csq-net — the network substrate
//!
//! The paper's entire evaluation is network-bound: a 28.8 kbit/s modem (and a
//! 10 Mbit Ethernet emulating asymmetric links "by returning N times as many
//! bytes"). We reproduce that testbed with a **discrete-event link model**:
//!
//! * [`SimTime`] — virtual time in microseconds.
//! * [`Link`] — a serial transmitter with finite bandwidth plus propagation
//!   latency. A message occupies the transmitter for `size/bandwidth` and
//!   arrives `latency` later, so multiple messages pipeline exactly the way
//!   the paper's concurrency analysis assumes (the bandwidth-delay product
//!   governs how much concurrency helps — Figure 6).
//! * [`NetworkSpec`] — a duplex (downlink + uplink) description with presets
//!   for the paper's configurations, including the asymmetric `N = 100`
//!   setup of Figure 9 and the paper's byte-inflation emulation mode.
//! * [`channel`] — the in-memory duplex transport with byte accounting
//!   that the shipping operators run over, in real time
//!   ([`in_memory_duplex`]) or in virtual time ([`virtual_duplex`]: every
//!   message stamped with its arrival through the [`Link`] of its
//!   direction, every endpoint keeping a clock); a client end may be
//!   served inline ([`Endpoint::with_client`]), by a function called as
//!   each request is delivered, so no thread serves it.
//! * [`tcp`] — the same length-framed protocol over real sockets: a framed
//!   [`TcpConn`] plus [`tcp_duplex`], a loopback pair that is drop-in
//!   compatible with the in-memory duplex (the query service and its load
//!   harness run on this).
//! * [`ready`] — readiness polling (`poll(2)` on unix) and a self-pipe
//!   waker, the primitives behind the service's session scheduler: one
//!   thread parks thousands of idle connections and hands complete request
//!   frames to a small worker pool.
//!
//! Timing experiments run the same shipping operators over a virtual-time
//! duplex: deterministic, because every wait is timestamped, and instant.

pub mod channel;
pub mod fault;
pub mod link;
pub mod ready;
pub mod spec;
pub mod stats;
pub mod tcp;

pub use channel::{
    in_memory_duplex, virtual_duplex, Answer, Endpoint, NetReceiver, NetSender, VirtualLinks,
};
pub use fault::{fault_schedule, Fault, FaultInjector};
pub use link::{Link, SimTime};
pub use ready::{poll_readable, wake_pair, Fd, WakeReceiver, Waker};
pub use spec::NetworkSpec;
pub use stats::NetStats;
pub use tcp::{tcp_duplex, Frame, PollFrame, TcpConn, DEFAULT_MAX_FRAME, FRAME_HEADER_BYTES};
