//! The discrete-event serial link model.

/// Virtual time in microseconds.
pub type SimTime = u64;

/// One second in [`SimTime`] units.
pub const SECOND: SimTime = 1_000_000;

/// A unidirectional serial link: a transmitter with finite bandwidth feeding
/// a pipe with fixed propagation latency.
///
/// Transmission is serial — a message must finish leaving the transmitter
/// before the next can start — but propagation is pipelined: many messages
/// can be "in flight" at once. This is the standard store-and-forward model
/// and exactly the behaviour the paper's pipeline-concurrency analysis
/// relies on: the number of messages profitably in flight equals
/// `bandwidth × round-trip-time` worth of bytes.
#[derive(Debug, Clone)]
pub struct Link {
    bandwidth_bytes_per_sec: f64,
    latency: SimTime,
    free_at: SimTime,
    bytes_sent: u64,
    messages_sent: u64,
    busy_time: SimTime,
}

impl Link {
    /// A link with the given bandwidth (bytes/second) and propagation
    /// latency (µs). Bandwidth must be positive.
    pub fn new(bandwidth_bytes_per_sec: f64, latency: SimTime) -> Link {
        assert!(
            bandwidth_bytes_per_sec > 0.0,
            "link bandwidth must be positive"
        );
        Link {
            bandwidth_bytes_per_sec,
            latency,
            free_at: 0,
            bytes_sent: 0,
            messages_sent: 0,
            busy_time: 0,
        }
    }

    /// Time (µs) the transmitter needs to put `size` bytes on the wire.
    pub fn tx_time(&self, size: usize) -> SimTime {
        ((size as f64 / self.bandwidth_bytes_per_sec) * SECOND as f64).ceil() as SimTime
    }

    /// Submit a message of `size` bytes at virtual time `now`.
    ///
    /// Returns `(tx_done, arrival)`: when the transmitter becomes free again
    /// and when the message arrives at the far end. Submitting "in the past"
    /// (before the previous transmission finished) simply queues behind it.
    pub fn transmit(&mut self, now: SimTime, size: usize) -> (SimTime, SimTime) {
        let start = now.max(self.free_at);
        let tx = self.tx_time(size);
        let tx_done = start + tx;
        self.free_at = tx_done;
        self.bytes_sent += size as u64;
        self.messages_sent += 1;
        self.busy_time += tx;
        (tx_done, tx_done + self.latency)
    }

    /// Total payload bytes sent.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Total messages sent.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Total time the transmitter spent busy — used to identify the
    /// bottleneck link of a finished run.
    pub fn busy_time(&self) -> SimTime {
        self.busy_time
    }
}

/// Convert kilobits/second (the paper's unit: "28.8KBit phone connection")
/// to bytes/second.
pub fn kbit_per_sec(kbit: f64) -> f64 {
    kbit * 1000.0 / 8.0
}

/// Convert megabits/second ("10Mbit Ethernet") to bytes/second.
pub fn mbit_per_sec(mbit: f64) -> f64 {
    mbit * 1_000_000.0 / 8.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time_is_size_over_bandwidth() {
        let link = Link::new(1000.0, 0); // 1000 B/s
        assert_eq!(link.tx_time(1000), SECOND);
        assert_eq!(link.tx_time(500), SECOND / 2);
        assert_eq!(link.tx_time(0), 0);
    }

    #[test]
    fn serial_transmission_queues() {
        let mut link = Link::new(1000.0, 100_000); // 1000 B/s, 100ms latency
        let (tx1, arr1) = link.transmit(0, 1000);
        assert_eq!(tx1, SECOND);
        assert_eq!(arr1, SECOND + 100_000);
        // Second message submitted immediately queues behind the first.
        let (tx2, arr2) = link.transmit(0, 1000);
        assert_eq!(tx2, 2 * SECOND);
        assert_eq!(arr2, 2 * SECOND + 100_000);
    }

    #[test]
    fn propagation_pipelines() {
        // With huge latency but fast transmit, arrivals are spaced by tx
        // time, not by latency — messages overlap in the pipe.
        let mut link = Link::new(1_000_000.0, 10 * SECOND);
        let (_, a1) = link.transmit(0, 1000);
        let (_, a2) = link.transmit(0, 1000);
        assert_eq!(a2 - a1, link.tx_time(1000));
    }

    #[test]
    fn idle_gap_not_counted_busy() {
        let mut link = Link::new(1000.0, 0);
        link.transmit(0, 500);
        link.transmit(10 * SECOND, 500);
        assert_eq!(link.busy_time(), SECOND); // two 0.5s transmissions
        assert_eq!(link.bytes_sent(), 1000);
        assert_eq!(link.messages_sent(), 2);
    }

    #[test]
    fn unit_conversions() {
        assert_eq!(kbit_per_sec(28.8), 3600.0);
        assert_eq!(mbit_per_sec(10.0), 1_250_000.0);
    }
}
