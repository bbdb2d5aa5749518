//! # csq-cost — the paper's bandwidth cost model (§3.2)
//!
//! The model quantifies, per input tuple, how many bytes each strategy puts
//! on the client's downlink and uplink, weighs the uplink by the network
//! asymmetry `N`, and takes the **bottleneck link** (the maximum) as the
//! strategy's cost:
//!
//! ```text
//! semi-join:        down = D·A·I          up(weighted) = N·D·R
//! client-site join: down = I              up(weighted) = N·(I+R)·P·S
//! cost(strategy)  = max(down, weighted up)
//! ```
//!
//! with `A` = argument fraction of the record, `D` = distinct-argument
//! fraction, `S` = pushable-predicate selectivity, `P` = pushable-projection
//! column selectivity, `I` = input record bytes, `R` = result bytes,
//! `N` = downlink/uplink bandwidth ratio.
//!
//! The module also provides the §3.1.2 analysis of the optimal pipeline
//! concurrency factor (the bandwidth-delay product), the breakpoints the
//! paper reads off Figures 8–10, and a strategy chooser used by the
//! optimizer.

use csq_net::{NetworkSpec, SimTime};

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
    /// `I`: one input record, bytes.
    pub i: f64,
    /// `R`: one UDF result, bytes.
    pub r: f64,
    /// `N`: downlink bandwidth / uplink bandwidth.
    pub n: f64,
}

impl CostParams {
    /// Parameters with the paper's "default" shape: no duplicates, no
    /// pushdown reductions, symmetric network.
    pub fn new(i: f64, r: f64) -> CostParams {
        CostParams {
            a: 1.0,
            d: 1.0,
            s: 1.0,
            p: 1.0,
            i,
            r,
            n: 1.0,
        }
    }

    /// The paper's Figure 7/8 convention for `P`: only non-argument columns
    /// and results are returned, i.e. `P·(I+R) = I·(1−A) + R`.
    pub fn with_paper_projection(mut self) -> CostParams {
        self.p = (self.i * (1.0 - self.a) + self.r) / (self.i + self.r);
        self
    }

    /// Validate ranges.
    pub fn validate(&self) -> Result<(), String> {
        let checks = [
            ("A", self.a, 0.0, 1.0),
            ("D", self.d, 0.0, 1.0),
            ("S", self.s, 0.0, 1.0),
            ("P", self.p, 0.0, 1.0),
        ];
        for (name, v, lo, hi) in checks {
            if !(lo..=hi).contains(&v) || v.is_nan() {
                return Err(format!("{name} = {v} outside [{lo}, {hi}]"));
            }
        }
        if self.i < 0.0 || self.r < 0.0 {
            return Err("I and R must be non-negative".into());
        }
        if self.n <= 0.0 {
            return Err("N must be positive".into());
        }
        Ok(())
    }
}

/// Per-tuple byte costs of one strategy on both links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkCosts {
    /// Bytes on the downlink per input tuple.
    pub down: f64,
    /// Bytes on the uplink per input tuple, *weighted by N* so the two
    /// directions are comparable in transfer time.
    pub up_weighted: f64,
}

impl LinkCosts {
    /// The bottleneck cost: `max(down, up_weighted)` (§3.2.1).
    pub fn bottleneck(&self) -> f64 {
        self.down.max(self.up_weighted)
    }

    /// Which link dominates.
    pub fn bottleneck_link(&self) -> Bottleneck {
        if self.down >= self.up_weighted {
            Bottleneck::Downlink
        } else {
            Bottleneck::Uplink
        }
    }
}

/// Which link limits a strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    Downlink,
    Uplink,
}

/// Semi-join per-tuple costs: dedup'd argument columns down, dedup'd results
/// up, no pushdowns possible.
pub fn semijoin_costs(p: &CostParams) -> LinkCosts {
    LinkCosts {
        down: p.d * p.a * p.i,
        up_weighted: p.n * p.d * p.r,
    }
}

/// Client-site join per-tuple costs: whole records down (duplicates
/// included), filtered/projected records + results up.
pub fn client_join_costs(p: &CostParams) -> LinkCosts {
    LinkCosts {
        down: p.i,
        up_weighted: p.n * (p.i + p.r) * p.p * p.s,
    }
}

/// Relative execution time CSJ/SJ predicted by the model — the y-axis of
/// Figures 8, 9, and 10.
pub fn relative_time(p: &CostParams) -> f64 {
    client_join_costs(p).bottleneck() / semijoin_costs(p).bottleneck()
}

/// The two client-site strategies the model chooses between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    SemiJoin,
    ClientJoin,
}

/// Pick the cheaper strategy under the model (ties go to the semi-join,
/// which needs no pushdown analysis).
pub fn choose_strategy(p: &CostParams) -> Strategy {
    if client_join_costs(p).bottleneck() < semijoin_costs(p).bottleneck() {
        Strategy::ClientJoin
    } else {
        Strategy::SemiJoin
    }
}

/// Predicted wall-clock seconds to process `tuples` input tuples: the
/// bottleneck link's bytes divided by that link's bandwidth. (Latency adds a
/// constant pipeline-fill term which the paper's model ignores; so do we.)
pub fn predicted_seconds(
    p: &CostParams,
    tuples: usize,
    strategy: Strategy,
    net: &NetworkSpec,
) -> f64 {
    let costs = match strategy {
        Strategy::SemiJoin => semijoin_costs(p),
        Strategy::ClientJoin => client_join_costs(p),
    };
    let down_secs = costs.down * tuples as f64 / net.down_bandwidth;
    // `up_weighted` folded N in; undo it and charge the real uplink.
    let up_bytes = costs.up_weighted / p.n;
    let up_secs = up_bytes * net.uplink_inflation * tuples as f64 / net.up_bandwidth;
    down_secs.max(up_secs)
}

/// Selectivity below which the client-site join is downlink-bound (the flat
/// region of Figures 8/9): `S* = I / (N·P·(I+R))`, clamped to \[0,1].
pub fn csj_flat_region_end(p: &CostParams) -> f64 {
    let denom = p.n * p.p * (p.i + p.r);
    if denom <= 0.0 {
        return 1.0;
    }
    (p.i / denom).clamp(0.0, 1.0)
}

/// The selectivity at which CSJ and SJ cost the same, if one exists in
/// (0,1]. Below it the client-site join wins. The paper reads these
/// crossings off Figures 8–10: they satisfy `S·P·(I+R) = D·R` when both
/// strategies are uplink-bound.
pub fn crossover_selectivity(p: &CostParams) -> Option<f64> {
    let sj = semijoin_costs(p).bottleneck();
    // CSJ cost as a function of S: max(I, N·(I+R)·P·S) — monotone in S.
    let at = |s: f64| {
        let mut q = *p;
        q.s = s;
        client_join_costs(&q).bottleneck()
    };
    if at(0.0) > sj {
        return None; // CSJ already loses with S=0 (downlink too dear).
    }
    if at(1.0) <= sj {
        return Some(1.0); // CSJ wins everywhere.
    }
    // Solve N·(I+R)·P·S = sj.
    let s = sj / (p.n * (p.i + p.r) * p.p);
    Some(s.clamp(0.0, 1.0))
}

/// The result size at which CSJ and SJ cost the same for a fixed
/// selectivity — the Figure 10 crossings. Solved numerically by bisection
/// because `R` appears on both sides. Returns `None` when CSJ never matches
/// SJ within `(0, r_max]`.
pub fn crossover_result_size(p: &CostParams, r_max: f64) -> Option<f64> {
    let rel = |r: f64| {
        let mut q = *p;
        q.r = r;
        if q.p != 1.0 {
            // Preserve the paper's projection convention when in use:
            // recompute P from A and the new R.
            q = q.with_paper_projection();
        }
        relative_time(&q)
    };
    let (mut lo, mut hi) = (1e-9, r_max);
    let (f_lo, f_hi) = (rel(lo) - 1.0, rel(hi) - 1.0);
    if f_lo.signum() == f_hi.signum() {
        return None;
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        let f_mid = rel(mid) - 1.0;
        if f_mid.signum() == f_lo.signum() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(0.5 * (lo + hi))
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
    let down_t = arg_msg_bytes as f64 / net.down_bandwidth * 1e6;
    let up_t = result_msg_bytes as f64 * net.uplink_inflation / net.up_bandwidth * 1e6;
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
    let down_t = down_bytes / net.down_bandwidth * 1e6;
    let up_t = up_bytes * net.uplink_inflation / net.up_bandwidth * 1e6;
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

/// The partial-aggregation reduction factor `groups / rows` in (0, 1]: the
/// fraction of the input cardinality that survives server-side partial
/// aggregation and has to cross the wire.
pub fn agg_reduction_factor(rows: f64, groups: f64) -> f64 {
    if rows <= 0.0 {
        return 1.0;
    }
    (groups / rows).clamp(0.0, 1.0)
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

/// Shipping-volume inputs of the placement choice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggPlacementParams {
    /// Pre-aggregation input cardinality at the server.
    pub rows: f64,
    /// Estimated group count ([`estimate_group_count`]).
    pub groups: f64,
    /// Bytes per *row* the client-only placement ships (group-key columns +
    /// aggregate argument columns).
    pub row_bytes: f64,
    /// Bytes per *group* the server-partial placement ships (group-key
    /// columns + decomposed state, [`agg_state_bytes`]).
    pub state_bytes: f64,
}

impl AggPlacementParams {
    /// Downlink bytes a placement puts on the wire. `ShardPartial` here is
    /// the single-site degenerate figure; [`ShardedAggParams::gather_bytes`]
    /// gives the N-shard gather volume (a group's state crosses once per
    /// shard that holds any of its rows).
    pub fn down_bytes(&self, placement: AggPlacement) -> f64 {
        match placement {
            AggPlacement::ClientOnly => self.rows * self.row_bytes,
            AggPlacement::ServerPartial | AggPlacement::ShardPartial => {
                self.groups * self.state_bytes
            }
        }
    }

    /// The reduction factor below which server-partial ships fewer bytes:
    /// `groups/rows < row_bytes/state_bytes`. Above 1.0 the state overhead
    /// never loses; at 0 it never wins.
    pub fn breakeven_reduction(&self) -> f64 {
        if self.state_bytes <= 0.0 {
            return 1.0;
        }
        self.row_bytes / self.state_bytes
    }
}

/// Pick the placement that ships fewer bytes across the bottleneck link;
/// ties go to client-only (no extra server work, no state framing).
pub fn choose_agg_placement(p: &AggPlacementParams) -> AggPlacement {
    if p.down_bytes(AggPlacement::ServerPartial) < p.down_bytes(AggPlacement::ClientOnly) {
        AggPlacement::ServerPartial
    } else {
        AggPlacement::ClientOnly
    }
}

/// Shipping-volume inputs of the N-site placement choice (DESIGN.md §13):
/// the two-site [`AggPlacementParams`] plus the shard count the table's rows
/// are hash-partitioned over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardedAggParams {
    /// The two-site volume inputs; `rows` and `groups` describe the *whole*
    /// table, not one shard.
    pub base: AggPlacementParams,
    /// Number of shards holding the table's rows (≥ 1).
    pub shards: usize,
}

impl ShardedAggParams {
    /// Expected groups present on a single shard. Hash partitioning spreads
    /// rows evenly, so a shard sees `rows / shards` rows and can hold at
    /// most that many groups — and never more than the table's total group
    /// count. `min(groups, rows/shards)` keeps the same cap-style estimate
    /// as [`estimate_group_count`].
    pub fn per_shard_groups(&self) -> f64 {
        let n = self.shards.max(1) as f64;
        self.base.groups.min((self.base.rows / n).max(1.0))
    }

    /// Gather volume of the shard-partial placement: each shard ships the
    /// decomposed state of every group it holds, so a wide-spread group's
    /// state crosses the wire once per shard (the coordinator merges the
    /// duplicates).
    pub fn gather_bytes(&self) -> f64 {
        self.shards.max(1) as f64 * self.per_shard_groups() * self.base.state_bytes
    }

    /// The reduction factor below which shard-partial ships fewer bytes than
    /// gathering the raw rows, accounting for per-shard state duplication.
    pub fn breakeven_reduction(&self) -> f64 {
        if self.base.state_bytes <= 0.0 {
            return 1.0;
        }
        self.base.row_bytes / self.base.state_bytes
    }
}

/// N-site analogue of [`choose_agg_placement`]: shard-partial when the
/// per-shard partial states (with their cross-shard group duplication) ship
/// fewer bytes than the raw pre-aggregation rows; ties go to client-only.
/// At `shards = 1` this agrees with the two-site chooser by construction.
pub fn choose_sharded_agg_placement(p: &ShardedAggParams) -> AggPlacement {
    if p.gather_bytes() < p.base.down_bytes(AggPlacement::ClientOnly) {
        AggPlacement::ShardPartial
    } else {
        AggPlacement::ClientOnly
    }
}

/// Measure `I`, `A`, and `D` from actual rows: the average record wire
/// size, the argument fraction, and the distinct-argument fraction over the
/// given argument column ordinals.
pub fn measure_params(rows: &[csq_common::Row], arg_cols: &[usize]) -> (f64, f64, f64) {
    if rows.is_empty() {
        return (0.0, 1.0, 1.0);
    }
    let mut total = 0usize;
    let mut arg_total = 0usize;
    let mut distinct = std::collections::HashSet::new();
    for row in rows {
        total += row.wire_size();
        let key = row.project(arg_cols);
        arg_total += key.wire_size();
        distinct.insert(key);
    }
    let i = total as f64 / rows.len() as f64;
    let a = if total > 0 {
        arg_total as f64 / total as f64
    } else {
        1.0
    };
    let d = distinct.len() as f64 / rows.len() as f64;
    (i, a, d)
}

/// Timing components for a single-tuple round trip — exposes what the naive
/// strategy pays per tuple (Figure 2a) and what concurrency hides (2b).
pub fn naive_roundtrip_us(
    net: &NetworkSpec,
    arg_msg_bytes: usize,
    result_msg_bytes: usize,
    client_us: u64,
) -> SimTime {
    let down_t = (arg_msg_bytes as f64 / net.down_bandwidth * 1e6).ceil() as SimTime;
    let up_t =
        (result_msg_bytes as f64 * net.uplink_inflation / net.up_bandwidth * 1e6).ceil() as SimTime;
    down_t + net.down_latency + client_us + up_t + net.up_latency
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

    #[test]
    fn paper_projection_identity() {
        // P·(I+R) must equal I·(1−A)+R.
        let p = fig8_params(1000.0, 0.5);
        assert!((p.p * (p.i + p.r) - (p.i * 0.5 + 1000.0)).abs() < 1e-9);
    }

    #[test]
    fn fig8_flat_then_linear() {
        // R=1000: flat while downlink-bound; kink near S ≈ I/(P·(I+R)) = 2/3.
        let kink = csj_flat_region_end(&fig8_params(1000.0, 0.0));
        assert!((kink - 1000.0 / 1500.0).abs() < 1e-9, "kink = {kink}");
        let r_low = relative_time(&fig8_params(1000.0, 0.1));
        let r_low2 = relative_time(&fig8_params(1000.0, 0.5));
        assert!((r_low - r_low2).abs() < 1e-12, "flat region");
        let r_hi = relative_time(&fig8_params(1000.0, 0.9));
        assert!(r_hi > r_low, "rises after the kink");
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
        // S = I/(N·P·(R+I)) ≈ 0.0083 for R=5000.
        let end = csj_flat_region_end(&fig9_params(5000.0, 0.0));
        assert!((end - 0.008333).abs() < 1e-4, "end = {end}");
        // So for any realistic S the ratio is linear through ~the origin.
        let r1 = relative_time(&fig9_params(1000.0, 0.2));
        let r2 = relative_time(&fig9_params(1000.0, 0.4));
        assert!((r2 / r1 - 2.0).abs() < 1e-6, "linear in S");
    }

    #[test]
    fn fig10_crossover_brackets_and_monotone() {
        // Fig 10 setup: A=0.2 (arg 100 of 500), I=500, symmetric net. For
        // each selectivity < 1 there is a result size above which the
        // client-site join wins; below it the semi-join wins.
        for s in [0.25, 0.5, 0.75] {
            let base = CostParams {
                a: 0.2,
                d: 1.0,
                s,
                p: 1.0,
                i: 500.0,
                r: 1.0,
                n: 1.0,
            }
            .with_paper_projection();
            let r_star = crossover_result_size(&base, 4000.0)
                .unwrap_or_else(|| panic!("expected a crossover for s={s}"));
            let rel_at = |r: f64| {
                let mut q = base;
                q.r = r;
                relative_time(&q.with_paper_projection())
            };
            assert!((rel_at(r_star) - 1.0).abs() < 0.01, "s={s}, r*={r_star}");
            assert!(rel_at(r_star * 0.5) > 1.0, "SJ wins for small results");
            assert!(rel_at(r_star * 1.5) < 1.0, "CSJ wins for large results");
        }
    }

    #[test]
    fn fig10_paper_identity_when_uplink_bound() {
        // The paper's crossing identity S·P·(I+R) = D·R holds exactly when
        // both strategies are uplink-bound at the crossing — force that
        // regime with an asymmetric network (N = 10).
        let base = CostParams {
            a: 0.2,
            d: 1.0,
            s: 0.5,
            p: 1.0,
            i: 500.0,
            r: 1.0,
            n: 10.0,
        }
        .with_paper_projection();
        let r_star = crossover_result_size(&base, 4000.0).expect("crossover");
        let q = {
            let mut q = base;
            q.r = r_star;
            q.with_paper_projection()
        };
        assert_eq!(client_join_costs(&q).bottleneck_link(), Bottleneck::Uplink);
        assert_eq!(semijoin_costs(&q).bottleneck_link(), Bottleneck::Uplink);
        let lhs = q.s * q.p * (q.i + q.r);
        let rhs = q.d * q.r;
        assert!((lhs - rhs).abs() / rhs < 0.01, "lhs={lhs}, rhs={rhs}");
    }

    #[test]
    fn fig10_selectivity_one_never_crosses() {
        // "The curve for selectivity one will never cross that line."
        let base = CostParams {
            a: 0.2,
            d: 1.0,
            s: 1.0,
            p: 1.0,
            i: 500.0,
            r: 1.0,
            n: 1.0,
        }
        .with_paper_projection();
        for r in [10.0, 100.0, 500.0, 1000.0, 2000.0, 10000.0] {
            let mut q = base;
            q.r = r;
            let q = q.with_paper_projection();
            assert!(
                relative_time(&q) >= 1.0 - 1e-9,
                "r={r}: {}",
                relative_time(&q)
            );
        }
    }

    #[test]
    fn duplicates_help_semijoin_only() {
        let mut p = CostParams::new(1000.0, 500.0);
        p.a = 0.5;
        let rel_nodup = relative_time(&p);
        p.d = 0.25;
        let rel_dup = relative_time(&p);
        assert!(
            rel_dup > rel_nodup,
            "duplicates shrink SJ cost, raising CSJ/SJ"
        );
        // CSJ costs are unchanged by D.
        assert_eq!(client_join_costs(&p).down, 1000.0);
    }

    #[test]
    fn strategy_chooser_matches_relative_time() {
        for (s, r) in [(0.1, 2000.0), (0.9, 100.0), (0.5, 1000.0)] {
            let p = fig8_params(r, s);
            let strat = choose_strategy(&p);
            if relative_time(&p) < 1.0 {
                assert_eq!(strat, Strategy::ClientJoin);
            } else {
                assert_eq!(strat, Strategy::SemiJoin);
            }
        }
    }

    #[test]
    fn crossover_selectivity_brackets() {
        let p = fig8_params(2000.0, 0.0);
        let s_star = crossover_selectivity(&p).expect("crossover exists");
        let mut below = p;
        below.s = (s_star - 0.05).max(0.0);
        let mut above = p;
        above.s = (s_star + 0.05).min(1.0);
        assert!(relative_time(&below) < 1.0 + 1e-9);
        assert!(relative_time(&above) > 1.0 - 1e-9);
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
    fn predicted_seconds_uses_bottleneck_link() {
        let net = NetworkSpec::symmetric(1000.0, 0);
        let mut p = CostParams::new(1000.0, 100.0);
        p.a = 1.0;
        // SJ: 1000 B down per tuple at 1000 B/s → 1 s/tuple.
        let secs = predicted_seconds(&p, 10, Strategy::SemiJoin, &net);
        assert!((secs - 10.0).abs() < 1e-9);
    }

    #[test]
    fn measure_params_from_rows() {
        use csq_common::{Blob, Row, Value};
        let rows: Vec<Row> = (0..10)
            .map(|i| {
                Row::new(vec![
                    Value::Blob(Blob::synthetic(95, (i % 5) as u64)), // arg, wire 100
                    Value::Blob(Blob::synthetic(95, i as u64)),       // rest, wire 100
                ])
            })
            .collect();
        let (i, a, d) = measure_params(&rows, &[0]);
        assert!((i - 200.0).abs() < 1e-9);
        assert!((a - 0.5).abs() < 1e-9);
        assert!((d - 0.5).abs() < 1e-9);
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
    fn agg_placement_flips_at_breakeven_reduction() {
        // AVG over a 9-byte int with a 9-byte key: client-only ships 18 B/row,
        // server-partial ships 27 B/group → break-even at reduction 2/3.
        let p = |groups: f64| AggPlacementParams {
            rows: 1000.0,
            groups,
            row_bytes: 18.0,
            state_bytes: 27.0,
        };
        assert!((p(1.0).breakeven_reduction() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(choose_agg_placement(&p(300.0)), AggPlacement::ServerPartial);
        assert_eq!(choose_agg_placement(&p(900.0)), AggPlacement::ClientOnly);
        // Exactly at break-even the tie goes to client-only.
        assert_eq!(
            choose_agg_placement(&p(1000.0 * 2.0 / 3.0)),
            AggPlacement::ClientOnly
        );
    }

    #[test]
    fn sharded_agg_placement_generalizes_two_site() {
        let base = |groups: f64| AggPlacementParams {
            rows: 1000.0,
            groups,
            row_bytes: 18.0,
            state_bytes: 27.0,
        };
        // shards = 1 agrees with the two-site chooser (modulo the label).
        for groups in [10.0, 300.0, 900.0] {
            let two = choose_agg_placement(&base(groups));
            let n = choose_sharded_agg_placement(&ShardedAggParams {
                base: base(groups),
                shards: 1,
            });
            match two {
                AggPlacement::ClientOnly => assert_eq!(n, AggPlacement::ClientOnly),
                _ => assert_eq!(n, AggPlacement::ShardPartial),
            }
        }
        // Few groups: every shard holds (nearly) all of them, so the gather
        // volume grows with the shard count — but 4 × 10 groups × 27 B still
        // beats 1000 rows × 18 B.
        let p4 = ShardedAggParams {
            base: base(10.0),
            shards: 4,
        };
        assert_eq!(p4.per_shard_groups(), 10.0);
        assert_eq!(p4.gather_bytes(), 4.0 * 10.0 * 27.0);
        assert_eq!(
            choose_sharded_agg_placement(&p4),
            AggPlacement::ShardPartial
        );
        // No reduction (groups ≈ rows): shard-partial ships state overhead
        // for nothing and loses.
        let flat = ShardedAggParams {
            base: base(1000.0),
            shards: 4,
        };
        assert_eq!(flat.per_shard_groups(), 250.0, "capped by rows/shards");
        assert_eq!(
            choose_sharded_agg_placement(&flat),
            AggPlacement::ClientOnly
        );
        // Shard fan-out can flip a two-site win back to client-only: at 600
        // groups the single-site state gather (16.2 kB) beats raw rows
        // (18 kB), but 4 shards × 250 groups × 27 B = 27 kB does not.
        assert_eq!(
            choose_agg_placement(&base(600.0)),
            AggPlacement::ServerPartial
        );
        assert_eq!(
            choose_sharded_agg_placement(&ShardedAggParams {
                base: base(600.0),
                shards: 4,
            }),
            AggPlacement::ClientOnly
        );
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
    fn reduction_factor_clamps() {
        assert_eq!(agg_reduction_factor(100.0, 10.0), 0.1);
        assert_eq!(agg_reduction_factor(100.0, 200.0), 1.0);
        assert_eq!(agg_reduction_factor(0.0, 5.0), 1.0);
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut p = CostParams::new(100.0, 10.0);
        p.a = 1.5;
        assert!(p.validate().is_err());
        p.a = 0.5;
        p.n = 0.0;
        assert!(p.validate().is_err());
        p.n = 1.0;
        assert!(p.validate().is_ok());
    }
}
