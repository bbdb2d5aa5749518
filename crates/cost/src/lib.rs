//! # csq-cost — the paper's bandwidth cost model (§3.2)
//!
//! The model counts the bytes each operation that moves data between
//! server and client puts on the client's downlink and uplink, and prices
//! the operation at its **bottleneck link**, the slower of the two
//! transfers ([`LinkBytes::seconds`]). The two client-site strategies of
//! §2.3 move
//!
//! ```text
//! semi-join:        down = rows·d·(argument bytes)   up = rows·d·(result bytes)
//! client-site join: down = rows·(shipped bytes)      up = rows·S·(returned bytes)
//! ```
//!
//! ([`semijoin_bytes`], [`client_join_bytes`]), where `d` is the
//! distinct-argument fraction and `S` the selectivity of the predicates
//! pushed to the client. The optimizer's dynamic program (`csq-opt`) prices
//! every plan through these functions and [`AggPlacementParams`], with the
//! per-tuple byte counts it derives from its statistics. [`CostParams`]
//! builds the same quantities from the paper's seven parameters (A, D, S,
//! P, I, R, N) for one input tuple, so [`relative_time`], the y-axis of
//! Figures 8–10, runs exactly the functions the optimizer runs.
//!
//! The crate also gives the §3.1.2 pipeline concurrency factor (the
//! bandwidth-delay product) and the shipping parameters chosen with it.

use csq_net::{NetworkSpec, SimTime};

/// Bytes one operation puts on each link of the client's connection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkBytes {
    /// Server → client.
    pub down: f64,
    /// Client → server, before the link's uplink inflation.
    pub up: f64,
}

impl LinkBytes {
    /// Transfer seconds on the bottleneck link (§3.2.1): both links carry
    /// their bytes at once, so the slower one bounds the operation.
    pub fn seconds(&self, net: &NetworkSpec) -> f64 {
        let (down_s, up_s) = self.link_seconds(net);
        down_s.max(up_s)
    }

    /// Transfer seconds on the downlink and on the uplink.
    fn link_seconds(&self, net: &NetworkSpec) -> (f64, f64) {
        (
            self.down / net.down_bandwidth,
            self.up * net.uplink_inflation / net.up_bandwidth,
        )
    }
}

/// Semi-join (§2.3.1) over `rows` input tuples: the distinct argument
/// tuples (the fraction `d`) go down, one result each comes back up.
pub fn semijoin_bytes(rows: f64, d: f64, arg_bytes: f64, result_bytes: f64) -> LinkBytes {
    LinkBytes {
        down: rows * d * arg_bytes,
        up: rows * d * result_bytes,
    }
}

/// Client-site join (§2.3.2) over `rows` input tuples: every record goes
/// down with the columns it ships, duplicates included; the fraction
/// `selectivity` passes the pushed predicates, and the pushed projection
/// returns `returned_bytes` of each.
pub fn client_join_bytes(
    rows: f64,
    shipped_bytes: f64,
    selectivity: f64,
    returned_bytes: f64,
) -> LinkBytes {
    LinkBytes {
        down: rows * shipped_bytes,
        up: rows * selectivity * returned_bytes,
    }
}

/// The seven parameters of §3.2.1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// `A`: size of argument columns / total input record size, in (0,1].
    pub a: f64,
    /// `D`: distinct argument tuples / input cardinality, in (0,1].
    pub d: f64,
    /// `S`: selectivity of the pushable predicates, in \[0,1].
    pub s: f64,
    /// `P`: pushable-projection output fraction of `(I+R)`, in (0,1].
    pub p: f64,
    /// `I`: one input record, bytes (> 0).
    pub i: f64,
    /// `R`: one UDF result, bytes (≥ 0).
    pub r: f64,
    /// `N`: downlink bandwidth / uplink bandwidth (> 0).
    pub n: f64,
}

impl CostParams {
    /// The paper's Figure 7/8 convention for `P`: only non-argument columns
    /// and results are returned, i.e. `P·(I+R) = I·(1−A) + R`.
    pub fn with_paper_projection(mut self) -> CostParams {
        self.p = (self.i * (1.0 - self.a) + self.r) / (self.i + self.r);
        self
    }

    /// Check that the parameters are in range and that [`relative_time`]
    /// prices them as a finite, positive ratio. A fraction of 0 (A, D or P)
    /// or an empty record would let a strategy move no bytes at all.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [("A", self.a), ("D", self.d), ("P", self.p)] {
            if !(v > 0.0 && v <= 1.0) {
                return Err(format!("{name} = {v} outside (0, 1]"));
            }
        }
        if !(0.0..=1.0).contains(&self.s) {
            return Err(format!("S = {} outside [0, 1]", self.s));
        }
        if !(self.i > 0.0 && self.r >= 0.0 && (self.i + self.r).is_finite()) {
            return Err(format!(
                "I = {} and R = {} must be finite, I positive and R non-negative",
                self.i, self.r
            ));
        }
        if !(self.n > 0.0 && self.n.is_finite()) {
            return Err(format!("N = {} must be finite and positive", self.n));
        }
        // In range, extreme magnitudes can still under- or overflow.
        let rel = relative_time(self);
        if !(rel > 0.0 && rel.is_finite()) {
            return Err(format!("the model prices CSJ/SJ at {rel}"));
        }
        Ok(())
    }

    /// The semi-join's bytes per input tuple: `D·A·I` down, `D·R` up.
    fn semijoin(&self) -> LinkBytes {
        semijoin_bytes(1.0, self.d, self.a * self.i, self.r)
    }

    /// The client-site join's bytes per input tuple: `I` down,
    /// `S·P·(I+R)` up.
    fn client_join(&self) -> LinkBytes {
        client_join_bytes(1.0, self.i, self.s, self.p * (self.i + self.r))
    }

    /// A connection whose downlink is `N` times as fast as its uplink.
    fn network(&self) -> NetworkSpec {
        NetworkSpec {
            down_bandwidth: self.n,
            up_bandwidth: 1.0,
            ..NetworkSpec::symmetric(1.0, 0)
        }
    }
}

/// Relative execution time CSJ/SJ predicted by the model — the y-axis of
/// Figures 8, 9, and 10.
pub fn relative_time(p: &CostParams) -> f64 {
    let net = p.network();
    p.client_join().seconds(&net) / p.semijoin().seconds(&net)
}

/// Microseconds one message of `down` bytes takes on the downlink and one
/// of `up` bytes on the uplink.
fn message_us(net: &NetworkSpec, down: f64, up: f64) -> (f64, f64) {
    let (down_s, up_s) = LinkBytes { down, up }.link_seconds(net);
    (down_s * 1e6, up_s * 1e6)
}

/// §3.1.2: the optimal pipeline concurrency factor is the number of tuples
/// the pipeline can hold — bottleneck throughput × end-to-end time
/// (bandwidth-delay product in tuples).
///
/// `arg_msg_bytes` / `result_msg_bytes` are the per-tuple message sizes on
/// each link; `client_us` is the client's per-tuple CPU time.
pub fn optimal_concurrency(
    net: &NetworkSpec,
    arg_msg_bytes: usize,
    result_msg_bytes: usize,
    client_us: u64,
) -> usize {
    let (down_t, up_t) = message_us(net, arg_msg_bytes as f64, result_msg_bytes as f64);
    let service = down_t.max(up_t).max(client_us as f64);
    if service <= 0.0 {
        return 1;
    }
    let total = down_t + net.down_latency as f64 + client_us as f64 + up_t + net.up_latency as f64;
    (total / service).ceil().max(1.0) as usize
}

/// The shipping parameters of one client-site UDF application: chosen by
/// the optimizer, carried on the plan's `ApplyUdf` node and read by both
/// lowerings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShipParams {
    /// Tuples (distinct arguments, or whole records) per network message.
    pub tuples_per_message: usize,
    /// Pipeline concurrency factor `K` (§3.1.2): input tuples between the
    /// semi-join's sender and receiver.
    pub concurrency: usize,
}

/// Bytes one shipping message may carry, in either direction.
const MESSAGE_BUDGET_BYTES: f64 = 65_536.0;

/// Share of the estimated transfer time that filling the pipeline with
/// multi-tuple messages may add.
const PIPELINE_FILL_SHARE: f64 = 0.05;

/// Choose tuples-per-message `m` and the concurrency factor `K` for a
/// stream of `rows` input tuples of which the fraction `d` is shipped (the
/// distinct-argument fraction for the semi-join, 1 for the client-site
/// join). `down_bytes`, `up_bytes` and `client_us` are per shipped tuple.
///
/// `m` is as many tuples as fit a 64 KiB message, capped so the pipeline
/// still overlaps: a message occupies one stage at a time, so `m`-tuple
/// messages add `(m − 1)` tuples' worth of the non-bottleneck stages to the
/// one-tuple pipeline, and that may cost at most a twentieth of the
/// estimated transfer. `K` is [`optimal_concurrency`] taken over those
/// messages — how many of them the pipeline holds — in input tuples, and at
/// least two spans: the semi-join admits ⌈K/m⌉ unpaired hand-offs, and with
/// one the sender waits out a round trip per message.
pub fn shipping_params(
    net: &NetworkSpec,
    down_bytes: f64,
    up_bytes: f64,
    client_us: f64,
    rows: f64,
    d: f64,
) -> ShipParams {
    let d = if d > 0.0 { d.min(1.0) } else { 1.0 };
    let shipped = (rows * d).max(1.0);
    let (down_t, up_t) = message_us(net, down_bytes, up_bytes);
    let service = down_t.max(up_t).max(client_us);
    let off_bottleneck = down_t + up_t + client_us - service;
    let fill = if off_bottleneck > 0.0 {
        1.0 + PIPELINE_FILL_SHARE * (shipped * service + net.rtt() as f64) / off_bottleneck
    } else {
        f64::INFINITY
    };
    let fits = MESSAGE_BUDGET_BYTES / down_bytes.max(up_bytes).max(1.0);
    let m = fits.min(fill).min(shipped).floor().max(1.0);
    let in_flight = optimal_concurrency(
        net,
        (m * down_bytes).ceil() as usize,
        (m * up_bytes).ceil() as usize,
        (m * client_us).ceil() as u64,
    );
    let span = (m / d).ceil() as usize;
    ShipParams {
        tuples_per_message: m as usize,
        concurrency: in_flight.max(2) * span,
    }
}

// ---- grouped-aggregation placement (DESIGN.md §7) --------------------------

/// Where a grouped aggregation's partial phase runs relative to the
/// client-server split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggPlacement {
    /// Ship the pre-aggregation rows; the client aggregates everything.
    ClientOnly,
    /// The server partially aggregates (rows → groups) and ships decomposed
    /// state; the client merges and finishes.
    ServerPartial,
    /// N-site generalization (DESIGN.md §13): every shard of a hash-sharded
    /// table partially aggregates its local rows, the per-shard decomposed
    /// states are gathered, and the coordinator merges and finishes. The
    /// two-site `ServerPartial` is the `shards = 1` degenerate case.
    ShardPartial,
}

impl AggPlacement {
    /// Explain label.
    pub fn label(self) -> &'static str {
        match self {
            AggPlacement::ClientOnly => "client-only",
            AggPlacement::ServerPartial => "server-partial",
            AggPlacement::ShardPartial => "shard-partial",
        }
    }
}

/// Estimate the number of groups a GROUP BY produces: the product of the
/// key columns' distinct counts (independence assumption), capped by the
/// input cardinality. No keys = one global group.
pub fn estimate_group_count(rows: f64, key_distincts: &[f64]) -> f64 {
    if rows <= 0.0 {
        return 0.0;
    }
    let mut d = 1.0f64;
    for &k in key_distincts {
        d *= k.max(1.0);
    }
    d.min(rows)
}

/// Wire bytes of one shipped partial-aggregate state (per group, excluding
/// the key columns): COUNT ships a 9-byte Int, SUM/MIN/MAX ship their
/// running value (the argument's width), AVG ships running sum + count.
pub fn agg_state_bytes(func: csq_expr::AggFunc, arg_bytes: f64) -> f64 {
    use csq_expr::AggFunc;
    const INT_WIRE: f64 = 9.0; // 1 tag + 8 payload
    match func {
        AggFunc::Count => INT_WIRE,
        AggFunc::Sum | AggFunc::Min | AggFunc::Max => arg_bytes,
        AggFunc::Avg => INT_WIRE + INT_WIRE, // running sum + count
    }
}

/// Shipping-volume inputs of the placement choice: one struct gives every
/// placement's bytes ([`AggPlacementParams::bytes`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggPlacementParams {
    /// Pre-aggregation input cardinality at the server(s), for the whole
    /// table.
    pub rows: f64,
    /// Estimated group count ([`estimate_group_count`]).
    pub groups: f64,
    /// Bytes per *row* the client-only placement ships (group-key columns +
    /// aggregate argument columns).
    pub row_bytes: f64,
    /// Bytes per *group* a partial placement ships (group-key columns +
    /// decomposed state, [`agg_state_bytes`]).
    pub state_bytes: f64,
    /// Number of sites holding the rows (≥ 1): the shard count of a
    /// hash-sharded table (DESIGN.md §13), 1 for a single server.
    pub shards: usize,
}

impl AggPlacementParams {
    /// Expected groups present on a single shard. Hash partitioning spreads
    /// rows evenly, so a shard sees `rows / shards` rows and can hold at
    /// most that many groups — and never more than the table's total group
    /// count. `min(groups, rows/shards)` keeps the same cap-style estimate
    /// as [`estimate_group_count`].
    pub fn per_shard_groups(&self) -> f64 {
        let n = self.shards.max(1) as f64;
        self.groups.min((self.rows / n).max(1.0))
    }

    /// The bytes a placement puts on the wire, all of them downlink: the
    /// raw rows (client-only), one state per group (server-partial), or one
    /// state per group on every shard that holds any of its rows
    /// (shard-partial — the coordinator merges the duplicates).
    pub fn bytes(&self, placement: AggPlacement) -> LinkBytes {
        let down = match placement {
            AggPlacement::ClientOnly => self.rows * self.row_bytes,
            AggPlacement::ServerPartial => self.groups * self.state_bytes,
            AggPlacement::ShardPartial => {
                self.shards.max(1) as f64 * self.per_shard_groups() * self.state_bytes
            }
        };
        LinkBytes { down, up: 0.0 }
    }
}

/// Timing components for a single-tuple round trip — exposes what the naive
/// strategy pays per tuple (Figure 2a) and what concurrency hides (2b).
pub fn naive_roundtrip_us(
    net: &NetworkSpec,
    arg_msg_bytes: usize,
    result_msg_bytes: usize,
    client_us: u64,
) -> SimTime {
    let (down_t, up_t) = message_us(net, arg_msg_bytes as f64, result_msg_bytes as f64);
    down_t.ceil() as SimTime
        + net.down_latency
        + client_us
        + up_t.ceil() as SimTime
        + net.up_latency
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parameters of the Figure 8 experiment.
    fn fig8_params(r: f64, s: f64) -> CostParams {
        CostParams {
            a: 0.5,
            d: 1.0,
            s,
            p: 1.0, // replaced below
            i: 1000.0,
            r,
            n: 1.0,
        }
        .with_paper_projection()
    }

    /// Parameters of the Figure 9 experiment.
    fn fig9_params(r: f64, s: f64) -> CostParams {
        CostParams {
            a: 0.8,
            d: 1.0,
            s,
            p: 1.0,
            i: 5000.0,
            r,
            n: 100.0,
        }
        .with_paper_projection()
    }

    /// Parameters of the Figure 10 experiment (argument 100 of a 500-byte
    /// record) at selectivity `s`, result size `r` and asymmetry `n`.
    fn fig10_params(s: f64, r: f64, n: f64) -> CostParams {
        CostParams {
            a: 0.2,
            d: 1.0,
            s,
            p: 1.0,
            i: 500.0,
            r,
            n,
        }
        .with_paper_projection()
    }

    #[test]
    fn paper_projection_identity() {
        // P·(I+R) must equal I·(1−A)+R.
        let p = fig8_params(1000.0, 0.5);
        assert!((p.p * (p.i + p.r) - (p.i * 0.5 + 1000.0)).abs() < 1e-9);
    }

    #[test]
    fn fig8_flat_then_linear() {
        // R=1000: flat while the client-site join is downlink-bound, up to
        // the kink at S = I/(N·P·(I+R)) = 1000/1500 = 2/3.
        let rel = |s: f64| relative_time(&fig8_params(1000.0, s));
        let kink = 2.0 / 3.0;
        let flat = rel(0.1);
        assert_eq!(rel(0.5), flat, "flat region");
        assert_eq!(rel(kink - 1e-6), flat, "still flat just below the kink");
        assert!(rel(kink + 1e-6) > flat, "rises just above the kink");
        assert!(rel(0.9) > rel(kink + 1e-6), "and keeps rising");
    }

    #[test]
    fn fig8_larger_results_run_deeper() {
        // "With larger result sizes the flat part of the curve ... will run
        // deeper" — at S=0.2 the relative time decreases with R.
        let rels: Vec<f64> = [100.0, 1000.0, 2000.0, 5000.0]
            .iter()
            .map(|&r| relative_time(&fig8_params(r, 0.2)))
            .collect();
        assert!(rels.windows(2).all(|w| w[1] < w[0]), "{rels:?}");
        // The 2000-byte curve flattens at 0.5 (paper: "the curve for 2000
        // goes flat at 0.5 (1000 bytes on s.j.downlink / 2000 bytes on
        // c.s.j.uplink)"): relative time in the flat region = I_down / (N·D·R).
        let rel2000 = relative_time(&fig8_params(2000.0, 0.1));
        assert!((rel2000 - 0.5).abs() < 1e-9, "rel2000 = {rel2000}");
    }

    #[test]
    fn fig9_downlink_never_bottleneck() {
        // N=100: the paper predicts the downlink only matters below
        // S = I/(N·P·(R+I)) = 5000/(100·6000) ≈ 0.0083 for R=5000.
        let end: f64 = 5000.0 / (100.0 * 6000.0);
        assert!((end - 0.008333).abs() < 1e-4, "end = {end}");
        let rel = |s: f64| relative_time(&fig9_params(5000.0, s));
        assert_eq!(rel(end * 0.5), rel(end * 0.99), "flat below the end");
        assert!(rel(end * 1.01) > rel(end * 0.99), "rises above it");
        // So for any realistic S the ratio is linear through ~the origin.
        let r1 = relative_time(&fig9_params(1000.0, 0.2));
        let r2 = relative_time(&fig9_params(1000.0, 0.4));
        assert!((r2 / r1 - 2.0).abs() < 1e-6, "linear in S");
    }

    #[test]
    fn fig10_crossover_brackets_and_monotone() {
        // Fig 10 on a symmetric net: for each selectivity < 1 there is a
        // result size R* above which the client-site join wins and below
        // which the semi-join wins. In closed form (D=1, SJ uplink-bound):
        // R* = max(I/(N·D), S·I·(1−A)/(D−S)) — the CSJ is downlink-bound at
        // the crossing for S ≤ 0.5 here, uplink-bound at S = 0.75.
        let mut last = 0.0;
        for (s, r_star) in [(0.25, 500.0), (0.5, 500.0), (0.75, 1200.0)] {
            let closed = f64::max(500.0, s * 500.0 * 0.8 / (1.0 - s));
            assert!((closed - r_star).abs() < 1e-9, "s={s}: {closed}");
            let rel = |r: f64| relative_time(&fig10_params(s, r, 1.0));
            assert!((rel(r_star) - 1.0).abs() < 1e-9, "s={s}: {}", rel(r_star));
            assert!(rel(r_star * 0.5) > 1.0, "SJ wins for small results");
            assert!(rel(r_star * 1.5) < 1.0, "CSJ wins for large results");
            assert!(r_star >= last, "the crossing moves out with S");
            last = r_star;
        }
    }

    #[test]
    fn fig10_paper_identity_when_uplink_bound() {
        // The paper's crossing identity S·P·(I+R) = D·R holds exactly when
        // both strategies are uplink-bound at the crossing — force that
        // regime with an asymmetric network (N = 10). Solved for R it is
        // R* = S·I·(1−A)/(D−S) = 0.5·500·0.8/0.5 = 400.
        let r_star = 0.5 * 500.0 * (1.0 - 0.2) / (1.0 - 0.5);
        assert_eq!(r_star, 400.0);
        let q = fig10_params(0.5, r_star, 10.0);
        let (sj, csj) = (q.semijoin(), q.client_join());
        assert!(sj.up > sj.down / q.n, "SJ uplink-bound: {sj:?}");
        assert!(csj.up > csj.down / q.n, "CSJ uplink-bound: {csj:?}");
        let lhs = q.s * q.p * (q.i + q.r);
        let rhs = q.d * q.r;
        assert!((lhs - rhs).abs() / rhs < 1e-9, "lhs={lhs}, rhs={rhs}");
        let rel = |r: f64| relative_time(&fig10_params(0.5, r, 10.0));
        assert!((rel(r_star) - 1.0).abs() < 1e-9, "{}", rel(r_star));
        assert!(rel(r_star - 1.0) > 1.0, "SJ wins just below R*");
        assert!(rel(r_star + 1.0) < 1.0, "CSJ wins just above R*");
    }

    #[test]
    fn fig10_selectivity_one_never_crosses() {
        // "The curve for selectivity one will never cross that line."
        for r in [10.0, 100.0, 500.0, 1000.0, 2000.0, 10000.0] {
            let q = fig10_params(1.0, r, 1.0);
            assert!(
                relative_time(&q) >= 1.0 - 1e-9,
                "r={r}: {}",
                relative_time(&q)
            );
        }
    }

    #[test]
    fn duplicates_help_semijoin_only() {
        let mut p = fig8_params(500.0, 1.0);
        let rel_nodup = relative_time(&p);
        p.d = 0.25;
        let rel_dup = relative_time(&p);
        assert!(
            rel_dup > rel_nodup,
            "duplicates shrink SJ cost, raising CSJ/SJ"
        );
        // CSJ costs are unchanged by D.
        assert_eq!(p.client_join().down, 1000.0);
    }

    #[test]
    fn per_tuple_bytes_are_the_optimizers_bytes() {
        // `CostParams` prices one input tuple through the same functions the
        // optimizer calls with its own row counts: scaling the rows scales
        // both links, so the relative time does not depend on them.
        let p = CostParams {
            a: 0.25,
            d: 0.5,
            s: 0.4,
            p: 0.75,
            i: 800.0,
            r: 200.0,
            n: 4.0,
        };
        let sj = semijoin_bytes(1000.0, p.d, p.a * p.i, p.r);
        let csj = client_join_bytes(1000.0, p.i, p.s, p.p * (p.i + p.r));
        assert_eq!(
            sj,
            LinkBytes {
                down: 100_000.0,
                up: 100_000.0
            }
        );
        assert_eq!(
            csj,
            LinkBytes {
                down: 800_000.0,
                up: 300_000.0
            }
        );
        let net = NetworkSpec::asymmetric(4.0, 4.0, 0);
        assert_eq!(csj.seconds(&net) / sj.seconds(&net), relative_time(&p));
        assert_eq!(sj.seconds(&net), 1000.0 * p.semijoin().seconds(&net));
    }

    #[test]
    fn seconds_take_the_bottleneck_link() {
        // 1000 B/s down, 100 B/s up: 500 B down take 0.5 s, 100 B up 1 s.
        let net = NetworkSpec::asymmetric(1000.0, 10.0, 0);
        let bytes = LinkBytes {
            down: 500.0,
            up: 100.0,
        };
        assert_eq!(bytes.seconds(&net), 1.0);
        // The paper's emulated asymmetry counts every uplink byte N times.
        let emulated = NetworkSpec {
            uplink_inflation: 10.0,
            ..NetworkSpec::symmetric(1000.0, 0)
        };
        assert_eq!(bytes.seconds(&emulated), 1.0);
    }

    #[test]
    fn optimal_concurrency_is_bdp() {
        // The paper's §4.1 reading: ~5000 bytes of pipeline ⇒ K≈5 for
        // 1000-byte objects, K≈10 for 500-byte ones.
        let net = NetworkSpec::modem_28_8();
        let k1000 = optimal_concurrency(&net, 1000, 1000, 0);
        let k500 = optimal_concurrency(&net, 500, 500, 0);
        let k100 = optimal_concurrency(&net, 100, 100, 0);
        assert!((5..=8).contains(&k1000), "k1000 = {k1000}");
        assert!((10..=14).contains(&k500), "k500 = {k500}");
        assert!((50..=60).contains(&k100), "k100 = {k100}");
    }

    #[test]
    fn group_count_estimate_caps_and_multiplies() {
        assert_eq!(estimate_group_count(1000.0, &[10.0]), 10.0);
        assert_eq!(estimate_group_count(1000.0, &[50.0, 40.0]), 1000.0, "cap");
        assert_eq!(estimate_group_count(1000.0, &[]), 1.0, "global group");
        assert_eq!(estimate_group_count(0.0, &[10.0]), 0.0);
        // Degenerate distincts clamp to 1, never shrinking the estimate.
        assert_eq!(estimate_group_count(100.0, &[0.0, 5.0]), 5.0);
    }

    #[test]
    fn sharded_agg_placement_generalizes_two_site() {
        // AVG over a 9-byte int with a 9-byte key: client-only ships
        // 18 B/row, a partial placement 27 B/group.
        let p = |groups: f64, shards: usize| AggPlacementParams {
            rows: 1000.0,
            groups,
            row_bytes: 18.0,
            state_bytes: 27.0,
            shards,
        };
        let down = |p: AggPlacementParams, placement| p.bytes(placement).down;
        // One shard ships what the single server ships.
        for groups in [10.0, 300.0, 900.0] {
            assert_eq!(
                down(p(groups, 1), AggPlacement::ShardPartial),
                down(p(groups, 1), AggPlacement::ServerPartial)
            );
        }
        // Few groups: every shard holds (nearly) all of them, so the gather
        // volume grows with the shard count — but 4 × 10 groups × 27 B still
        // beats 1000 rows × 18 B.
        let p4 = p(10.0, 4);
        assert_eq!(p4.per_shard_groups(), 10.0);
        assert_eq!(down(p4, AggPlacement::ShardPartial), 4.0 * 10.0 * 27.0);
        assert!(down(p4, AggPlacement::ShardPartial) < down(p4, AggPlacement::ClientOnly));
        // No reduction (groups ≈ rows): per-shard states ship overhead for
        // nothing.
        let flat = p(1000.0, 4);
        assert_eq!(flat.per_shard_groups(), 250.0, "capped by rows/shards");
        assert!(down(flat, AggPlacement::ShardPartial) > down(flat, AggPlacement::ClientOnly));
        // Shard fan-out can turn a two-site win into a loss: at 600 groups
        // the single-site state (16.2 kB) beats raw rows (18 kB), but
        // 4 shards × 250 groups × 27 B = 27 kB does not.
        let p600 = p(600.0, 4);
        assert_eq!(down(p600, AggPlacement::ServerPartial), 16_200.0);
        assert_eq!(down(p600, AggPlacement::ClientOnly), 18_000.0);
        assert_eq!(down(p600, AggPlacement::ShardPartial), 27_000.0);
        // Every placement ships downlink only.
        for placement in [
            AggPlacement::ClientOnly,
            AggPlacement::ServerPartial,
            AggPlacement::ShardPartial,
        ] {
            assert_eq!(p600.bytes(placement).up, 0.0);
        }
    }

    #[test]
    fn state_bytes_by_function() {
        use csq_expr::AggFunc;
        assert_eq!(agg_state_bytes(AggFunc::Count, 100.0), 9.0);
        assert_eq!(agg_state_bytes(AggFunc::Sum, 9.0), 9.0);
        assert_eq!(agg_state_bytes(AggFunc::Min, 24.0), 24.0);
        assert_eq!(agg_state_bytes(AggFunc::Avg, 9.0), 18.0);
    }

    #[test]
    fn validation_rejects_nonsense() {
        // Out of range, and each case `relative_time` cannot price as a
        // finite, positive ratio: fractions at 0, NaN anywhere, infinite
        // sizes or N, an empty record, magnitudes that under- or overflow.
        let ok = fig8_params(10.0, 0.5);
        let nan = f64::NAN;
        let inf = f64::INFINITY;
        for (what, q) in [
            ("A > 1", CostParams { a: 1.5, ..ok }),
            ("N = 0", CostParams { n: 0.0, ..ok }),
            ("A = 0", CostParams { a: 0.0, ..ok }),
            ("D = 0", CostParams { d: 0.0, ..ok }),
            ("P = 0", CostParams { p: 0.0, ..ok }),
            ("S < 0", CostParams { s: -0.1, ..ok }),
            ("A NaN", CostParams { a: nan, ..ok }),
            ("D NaN", CostParams { d: nan, ..ok }),
            ("S NaN", CostParams { s: nan, ..ok }),
            ("I NaN", CostParams { i: nan, ..ok }),
            ("R NaN", CostParams { r: nan, ..ok }),
            ("N NaN", CostParams { n: nan, ..ok }),
            ("I = inf", CostParams { i: inf, ..ok }),
            ("R = inf", CostParams { r: inf, ..ok }),
            ("N = inf", CostParams { n: inf, ..ok }),
            ("N = -inf", CostParams { n: -inf, ..ok }),
            ("R < 0", CostParams { r: -1.0, ..ok }),
            ("I = 0", CostParams { i: 0.0, ..ok }),
            (
                "D·A·I underflows",
                CostParams {
                    a: 1e-200,
                    d: 1e-200,
                    i: 1.0,
                    r: 0.0,
                    ..ok
                },
            ),
            (
                "I/N overflows",
                CostParams {
                    i: 1e300,
                    n: 1e-300,
                    ..ok
                },
            ),
        ] {
            assert!(q.validate().is_err(), "{what} accepted: {q:?}");
        }
        // The base case stays valid and prices finitely; so do R = 0 and
        // S = 0.
        for q in [ok, CostParams { r: 0.0, ..ok }, CostParams { s: 0.0, ..ok }] {
            assert!(q.validate().is_ok(), "{q:?}");
            let rel = relative_time(&q);
            assert!(rel.is_finite() && rel > 0.0, "{q:?}: {rel}");
        }
    }
}
