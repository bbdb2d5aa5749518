//! Duplex network descriptions and the paper's testbed presets.

use crate::link::{kbit_per_sec, mbit_per_sec, Link, SimTime};

/// Description of the client↔server connection: a downlink (server→client)
/// and an uplink (client→server), each with bandwidth and latency, plus two
/// modelling knobs.
///
/// The paper's asymmetry parameter is `N = downlink bandwidth / uplink
/// bandwidth` ([`NetworkSpec::asymmetry`]).
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSpec {
    /// Server→client bandwidth, bytes/second.
    pub down_bandwidth: f64,
    /// Client→server bandwidth, bytes/second.
    pub up_bandwidth: f64,
    /// Server→client propagation latency, µs.
    pub down_latency: SimTime,
    /// Client→server propagation latency, µs.
    pub up_latency: SimTime,
    /// Fixed framing overhead added to every message, bytes. The paper's
    /// cost model ignores framing (0); expose it for realism ablations.
    pub per_message_overhead: usize,
    /// The paper's *emulation* of asymmetry on a symmetric link: every byte
    /// returned on the uplink is counted `uplink_inflation` times. 1.0 means
    /// true links are used. See §4.3: "The asymmetric network was modeled on
    /// a 10Mbit Ethernet connection by returning N times as many bytes."
    pub uplink_inflation: f64,
}

impl NetworkSpec {
    /// A symmetric network.
    pub fn symmetric(bandwidth_bytes_per_sec: f64, latency: SimTime) -> NetworkSpec {
        NetworkSpec {
            down_bandwidth: bandwidth_bytes_per_sec,
            up_bandwidth: bandwidth_bytes_per_sec,
            down_latency: latency,
            up_latency: latency,
            per_message_overhead: 0,
            uplink_inflation: 1.0,
        }
    }

    /// An asymmetric network with downlink `n` times faster than uplink.
    pub fn asymmetric(down_bandwidth: f64, n: f64, latency: SimTime) -> NetworkSpec {
        assert!(n > 0.0, "asymmetry factor must be positive");
        NetworkSpec {
            down_bandwidth,
            up_bandwidth: down_bandwidth / n,
            down_latency: latency,
            up_latency: latency,
            per_message_overhead: 0,
            uplink_inflation: 1.0,
        }
    }

    /// The paper's §4.1/§4.2 testbed: 28.8 kbit/s symmetric phone line.
    /// Latency is chosen so the bandwidth-delay product is ≈ 2500 bytes per
    /// direction (round-trip ≈ 5000 bytes — the paper observes the optimal
    /// concurrency factor corresponds to ~5000 bytes in the pipeline).
    pub fn modem_28_8() -> NetworkSpec {
        // 28.8 kbit/s = 3600 B/s; 2500 bytes / 3600 B/s ≈ 0.694 s one-way
        // latency.
        let bw = kbit_per_sec(28.8);
        NetworkSpec::symmetric(bw, 694_444)
    }

    /// The paper's §4.3 asymmetric testbed: multiplexed 10 Mbit cable
    /// downlink with 28.8 kbit uplink, N = 100.
    pub fn cable_asymmetric() -> NetworkSpec {
        let up = kbit_per_sec(28.8);
        NetworkSpec {
            down_bandwidth: up * 100.0,
            up_bandwidth: up,
            down_latency: 50_000,
            up_latency: 50_000,
            per_message_overhead: 0,
            uplink_inflation: 1.0,
        }
    }

    /// The paper's own emulation of the asymmetric testbed: a symmetric
    /// link where the client "returns N times as many bytes" (§4.3), sized
    /// so the effective downlink and N match [`NetworkSpec::cable_asymmetric`].
    /// Used by the `ablate_asymmetry_emulation` bench to show both models
    /// agree.
    pub fn cable_asymmetric_emulated() -> NetworkSpec {
        let down = kbit_per_sec(28.8) * 100.0;
        NetworkSpec {
            down_bandwidth: down,
            up_bandwidth: down,
            down_latency: 50_000,
            up_latency: 50_000,
            per_message_overhead: 0,
            uplink_inflation: 100.0,
        }
    }

    /// A fast LAN used by tests where network time should be negligible.
    pub fn lan() -> NetworkSpec {
        NetworkSpec::symmetric(mbit_per_sec(1000.0), 100)
    }

    /// The paper's `N`: downlink/uplink bandwidth ratio, including any
    /// uplink byte inflation.
    pub fn asymmetry(&self) -> f64 {
        self.down_bandwidth / (self.up_bandwidth / self.uplink_inflation)
    }

    /// Round-trip propagation latency, µs.
    pub fn rtt(&self) -> SimTime {
        self.down_latency + self.up_latency
    }

    /// Effective bytes charged on the uplink for a payload of `size` bytes
    /// (applies framing overhead and inflation).
    pub fn uplink_bytes(&self, size: usize) -> usize {
        (((size + self.per_message_overhead) as f64) * self.uplink_inflation).ceil() as usize
    }

    /// Effective bytes charged on the downlink for a payload of `size` bytes.
    pub fn downlink_bytes(&self, size: usize) -> usize {
        size + self.per_message_overhead
    }

    /// Instantiate the downlink for a simulation run.
    pub fn make_downlink(&self) -> Link {
        Link::new(self.down_bandwidth, self.down_latency)
    }

    /// Instantiate the uplink for a simulation run.
    pub fn make_uplink(&self) -> Link {
        Link::new(self.up_bandwidth, self.up_latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_parameters() {
        let m = NetworkSpec::modem_28_8();
        assert_eq!(m.down_bandwidth, 3600.0);
        assert_eq!(m.asymmetry(), 1.0);

        let c = NetworkSpec::cable_asymmetric();
        assert!((c.asymmetry() - 100.0).abs() < 1e-9);

        let e = NetworkSpec::cable_asymmetric_emulated();
        assert!((e.asymmetry() - 100.0).abs() < 1e-9);
        assert_eq!(e.uplink_bytes(10), 1000);
    }

    #[test]
    fn overhead_applies_to_both_directions() {
        let mut s = NetworkSpec::symmetric(1000.0, 0);
        s.per_message_overhead = 8;
        assert_eq!(s.downlink_bytes(100), 108);
        assert_eq!(s.uplink_bytes(100), 108);
    }

    #[test]
    fn asymmetric_constructor_divides_bandwidth() {
        let s = NetworkSpec::asymmetric(10_000.0, 4.0, 10);
        assert_eq!(s.up_bandwidth, 2500.0);
        assert_eq!(s.asymmetry(), 4.0);
        assert_eq!(s.rtt(), 20);
    }

    #[test]
    fn modem_bdp_is_about_5000_bytes_round_trip() {
        let m = NetworkSpec::modem_28_8();
        let bdp = m.down_bandwidth * (m.rtt() as f64 / 1e6);
        assert!((bdp - 5000.0).abs() < 5.0, "bdp = {bdp}");
    }
}
