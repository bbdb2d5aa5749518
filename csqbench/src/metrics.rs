//! The benchmark's vocabulary: workloads, metric definitions, and the small
//! numeric helpers every workload shares (percentiles, the result checksum,
//! the line-oriented results format).
//!
//! `BENCHMARK.json` at the repository root is *generated* from the tables
//! here (`csqbench --emit-benchmark-json`); a unit test keeps the two equal.

use std::collections::BTreeMap;

use csq_common::{Row, Value};

/// How long one driver run measures, seconds (`run_seconds` in
/// `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// Workload names with the reason each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "svc_scan",
        "prepared scans over TCP: plan cache is bypassed, time goes to storage decode, operators, result codec and frames",
    ),
    (
        "svc_adhoc_rw",
        "ad-hoc inserts beside fresh-literal reads: every SELECT is a plan-cache miss, so parse, plan and table statistics dominate",
    ),
    (
        "udf_ship",
        "the paper's path in-process: semi-join and client-site join shipping, blob codec and client UDF evaluation; no sockets",
    ),
    (
        "shard_scatter",
        "two shard services behind the coordinator: the op waits for the slowest shard, then for the gather/merge",
    ),
];

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json` and the results file.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit (`ms`, `us`, `1/s`, `count`, `ratio`, ...).
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before it counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a caller of the system sees; measured with tracing off.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("op_p50_ms", "ms", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("cpu_ms_per_op", "ms", Lower, 0.25),
    e2e("rss_peak_mb", "MiB", Lower, 0.15),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Per-layer attribution; reported by the traced run. Layers carry the
/// crate/module names. A metric that does not apply to a workload reads 0
/// with `n: 0`.
pub const PER_LAYER: [MetricDef; 69] = [
    // Statement classes, from the untraced phase; they sum into op_p50_ms.
    layer("stmt.filter_p50_ms", "ms", Lower),
    layer("stmt.agg_p50_ms", "ms", Lower),
    layer("stmt.insert_p50_ms", "ms", Lower),
    layer("stmt.point_p50_ms", "ms", Lower),
    layer("stmt.range_p50_ms", "ms", Lower),
    layer("stmt.semijoin_p50_ms", "ms", Lower),
    layer("stmt.clientjoin_p50_ms", "ms", Lower),
    layer("stmt.shard_agg_p50_ms", "ms", Lower),
    layer("stmt.shard_filter_p50_ms", "ms", Lower),
    layer("stmt.shard_pinned_p50_ms", "ms", Lower),
    // Tails, ungated: periodic stalls show here before they reach the median.
    layer("tail.op_p95_ms", "ms", Lower),
    layer("tail.op_p99_ms", "ms", Lower),
    layer("tail.op_max_ms", "ms", Lower),
    // csq-sql
    layer("sql.parse_us", "us", Lower),
    layer("sql.text_bytes", "B", Lower),
    // csq-opt + csq-cost
    layer("opt.plan_us", "us", Lower),
    layer("opt.table_stats_us", "us", Lower),
    // csq-core::plancache
    layer("plancache.hit_ratio", "ratio", Higher),
    layer("plancache.stale_replans", "count", Lower),
    layer("plancache.evictions", "count", Lower),
    // csq-storage
    layer("storage.scan_us", "us", Lower),
    layer("storage.insert_us", "us", Lower),
    layer("storage.rows_scanned", "count", Lower),
    layer("storage.seg_pruned_ratio", "ratio", Higher),
    layer("storage.rows_scanned_per_result_row", "ratio", Lower),
    // csq-exec
    layer("exec.self_us", "us", Lower),
    layer("exec.rows_out", "count", Lower),
    // csq-common::codec + csq-client::qproto
    layer("codec.encode_us", "us", Lower),
    layer("codec.decode_us", "us", Lower),
    layer("codec.result_bytes", "B", Lower),
    // csq-net
    layer("net.frames_us", "us", Lower),
    layer("net.frames", "count", Lower),
    layer("net.bytes_down", "B", Lower),
    layer("net.bytes_up", "B", Lower),
    // csq-core::service
    layer("service.inproc_us", "us", Lower),
    layer("service.overhead_us", "us", Lower),
    layer("service.wire_over_inproc", "ratio", Lower),
    layer("service.plan_reused_ratio", "ratio", Higher),
    layer("service.queries_ok", "count", Higher),
    layer("service.queries_failed", "count", Lower),
    layer("service.shed", "count", Lower),
    // csq-client (UDF side)
    layer("client.udf_us", "us", Lower),
    layer("client.invocations", "count", Lower),
    layer("client.cache_hits", "count", Higher),
    // csq-ship
    layer("ship.semijoin_us", "us", Lower),
    layer("ship.clientjoin_us", "us", Lower),
    layer("ship.down_bytes", "B", Lower),
    layer("ship.up_bytes", "B", Lower),
    layer("ship.messages", "count", Lower),
    layer("ship.sim_link_s", "s", Lower),
    layer("ship.sim_down_bytes", "B", Lower),
    layer("ship.sim_up_bytes", "B", Lower),
    // csq-core::coord
    layer("coord.slowest_shard_us", "us", Lower),
    layer("coord.overhead_us", "us", Lower),
    layer("coord.shard_statements", "count", Lower),
    layer("coord.shards_pruned", "count", Higher),
    layer("coord.plan_cache_hits", "count", Higher),
    layer("coord.shard_failures", "count", Lower),
    // process / host
    layer("proc.cpu_user_ms_per_op", "ms", Lower),
    layer("proc.cpu_sys_ms_per_op", "ms", Lower),
    layer("host.cpus", "count", Higher),
    layer("host.calib_ms", "ms", Lower),
    layer("host.calib_drift_ratio", "ratio", Lower),
    // trace
    layer("trace.ops", "count", Higher),
    layer("trace.op_p50_ms", "ms", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.coverage_ratio", "ratio", Higher),
    // untraced phase of the traced run, for reading the layer numbers
    // against the same run's end-to-end level
    layer("phase.op_p50_ms", "ms", Lower),
    layer("phase.ops_per_s", "1/s", Higher),
];

/// Render `BENCHMARK.json` from the tables above (one metric per line).
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"csqbench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"csqbench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}\n"
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics carry a bound"),
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            m.name,
            m.unit,
            m.better.as_str(),
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Measured values of one run, keyed by metric name. Setting a name that
/// is in neither metric table is a bug in the benchmark and panics.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, (f64, u64)>,
}

impl Report {
    /// Record `value` over `n` samples for metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64, n: u64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|m| m.name == name),
            "metric '{name}' is not defined in metrics.rs"
        );
        assert!(value.is_finite(), "metric '{name}' is not finite: {value}");
        let previous = self.values.insert(name, (value, n));
        assert!(previous.is_none(), "metric '{name}' set twice");
    }

    /// The value and sample count of `name`; a metric the workload never
    /// set does not apply to it and reads `(0, 0)`.
    pub fn get(&self, name: &str) -> (f64, u64) {
        self.values.get(name).copied().unwrap_or((0.0, 0))
    }
}

// ---- percentiles -----------------------------------------------------------

/// Nearest-rank percentile of an ascending slice, `p` in (0, 1). Refuses
/// (returns `None`) unless at least ten samples lie at or beyond the
/// chosen rank on the far side from the median — a p99 over 300 samples is
/// three observations, not a statistic.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} outside (0, 1)");
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = if p >= 0.5 { n - rank.min(n) } else { rank - 1 };
    if n == 0 || beyond < 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of unsorted samples (nearest rank, no sample-count floor: used for
/// per-op layer timings where every op is one sample of the same work).
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    samples[(samples.len() - 1) / 2]
}

// ---- result checksum -------------------------------------------------------

/// Row count plus an order-insensitive 64-bit checksum of a result set: the
/// wrapping sum of a per-row hash. Independent of the engine's own `Hash`
/// impls, so a bug there cannot cancel out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    /// Number of rows.
    pub rows: u64,
    /// Wrapping sum of [`row_hash`] over the rows.
    pub sum: u64,
}

impl Digest {
    /// Digest of a result set.
    pub fn of(rows: &[Row]) -> Digest {
        let mut d = Digest::default();
        for r in rows {
            d.add(r.values());
        }
        d
    }

    /// Fold one row in.
    pub fn add(&mut self, values: &[Value]) {
        self.rows += 1;
        self.sum = self.sum.wrapping_add(row_hash(values));
    }
}

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a over each value's type tag and canonical bytes, finished with a
/// 64-bit mix so that summing row hashes does not cancel structure.
pub fn row_hash(values: &[Value]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        h = match v {
            Value::Null => fnv(h, &[0]),
            Value::Bool(b) => fnv(fnv(h, &[1]), &[*b as u8]),
            Value::Int(i) => fnv(fnv(h, &[2]), &i.to_le_bytes()),
            Value::Float(x) => fnv(fnv(h, &[3]), &x.to_bits().to_le_bytes()),
            Value::Str(s) => fnv(
                fnv(fnv(h, &[4]), &(s.len() as u64).to_le_bytes()),
                s.as_str().as_bytes(),
            ),
            Value::Blob(b) => fnv(
                fnv(fnv(h, &[5]), &(b.len() as u64).to_le_bytes()),
                b.as_bytes(),
            ),
        };
    }
    mix64(h)
}

/// SplitMix64 finalizer; also the benchmark's seeded generator step.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded bijection of `0..n`, for `n` with no prime factors other than 2
/// and 5 (every table size here): `i → (i·m + c) mod n` with `m` odd and not
/// a multiple of 5. Reducing its values mod a divisor of `n` gives every
/// seed the *same* value histogram — and so the same selectivities and the
/// same work — while which row gets which value moves with the seed.
#[derive(Debug, Clone, Copy)]
pub struct Shuffle {
    n: u64,
    mult: u64,
    offset: u64,
}

impl Shuffle {
    /// The bijection of `0..n` for `seed`.
    pub fn new(seed: u64, n: u64) -> Shuffle {
        let mut mult = (mix64(seed) % n) | 1;
        if mult.is_multiple_of(5) {
            mult += 2;
        }
        Shuffle {
            n,
            mult,
            offset: mix64(seed ^ 0x5ca1_ab1e) % n,
        }
    }

    /// Where `i` lands.
    pub fn at(&self, i: u64) -> u64 {
        (i * self.mult + self.offset) % self.n
    }
}

// ---- results file ----------------------------------------------------------

/// One line of `csqbench.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// `end_to_end` or `per_layer`.
    pub kind: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
    /// Regression bound (end-to-end metrics; 0 for per-layer).
    pub bound: f64,
    /// Samples behind the value; 0 = not applicable to this workload.
    pub n: u64,
}

impl Entry {
    /// Render as one JSON object on one line.
    pub fn render(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"metric\": \"{}\", \"kind\": \"{}\", \"value\": {}, \
             \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}, \"n\": {}}}",
            self.workload,
            self.metric,
            self.kind,
            self.value,
            self.unit,
            self.better,
            self.bound,
            self.n
        )
    }

    /// Parse a line written by [`render`](Self::render); `None` for any
    /// other line (the document's header and brackets).
    pub fn parse(line: &str) -> Option<Entry> {
        Some(Entry {
            workload: field_str(line, "workload")?,
            metric: field_str(line, "metric")?,
            kind: field_str(line, "kind")?,
            value: field_num(line, "value")?,
            unit: field_str(line, "unit")?,
            better: field_str(line, "better")?,
            bound: field_num(line, "bound")?,
            n: field_num(line, "n")? as u64,
        })
    }
}

/// `"key": "value"` on a line (same convention as `csq_bench::throughput`,
/// whose helpers are crate-private).
pub fn field_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// `"key": number` on a line.
pub fn field_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.0));
        for name in names {
            assert!(seen.insert(name), "'{name}' is used twice");
            assert!(name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(
                name.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-')),
                "bad name '{name}'"
            );
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.unit.len() <= 16, "unit of {} too long", m.name);
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn benchmark_json_on_disk_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `csqbench --emit-benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn percentile_is_nearest_rank_and_refuses_thin_tails() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 0.50), Some(50.0));
        assert_eq!(percentile(&xs, 0.90), Some(90.0));
        // p95 of 100 samples leaves 5 beyond the rank: refused.
        assert_eq!(percentile(&xs, 0.95), None);
        let xs: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 0.99), Some(990.0));
        assert_eq!(percentile(&xs, 0.999), None);
        // A median needs ten samples on each side.
        let xs: Vec<f64> = (1..=19).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 0.5), None);
        let xs: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn shuffle_is_a_bijection_with_a_fixed_histogram() {
        for (seed, n) in [
            (0u64, 2_000u64),
            (1, 40_000),
            (u64::MAX, 40_000),
            (12_345, 2_000),
        ] {
            let shuffle = Shuffle::new(seed, n);
            let mut seen = vec![false; n as usize];
            let mut over_89 = 0;
            for i in 0..n {
                let at = shuffle.at(i) as usize;
                assert!(!seen[at], "seed {seed}: {at} hit twice");
                seen[at] = true;
                over_89 += (at % 100 > 89) as u64;
            }
            assert_eq!(over_89, n / 10);
        }
    }

    #[test]
    fn median_takes_the_lower_middle() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn digest_ignores_row_order_but_not_content() {
        let a = Row::new(vec![Value::Int(1), Value::from("x")]);
        let b = Row::new(vec![Value::Int(2), Value::Null]);
        let c = Row::new(vec![Value::Int(2), Value::Float(0.0)]);
        assert_eq!(
            Digest::of(&[a.clone(), b.clone()]),
            Digest::of(&[b.clone(), a.clone()])
        );
        assert_ne!(
            Digest::of(&[a.clone(), b.clone()]),
            Digest::of(&[a.clone(), c])
        );
        assert_ne!(
            Digest::of(std::slice::from_ref(&a)),
            Digest::of(&[a.clone(), a.clone()])
        );
        // Column boundaries matter: ("ab","c") != ("a","bc").
        let l = Row::new(vec![Value::from("ab"), Value::from("c")]);
        let r = Row::new(vec![Value::from("a"), Value::from("bc")]);
        assert_ne!(row_hash(l.values()), row_hash(r.values()));
        // Int 1 and Float 1.0 are different results.
        assert_ne!(row_hash(&[Value::Int(1)]), row_hash(&[Value::Float(1.0)]));
    }

    #[test]
    fn entries_roundtrip_through_the_line_format() {
        let e = Entry {
            workload: "svc_scan".into(),
            metric: "op_p50_ms".into(),
            kind: "end_to_end".into(),
            value: 15.230_411,
            unit: "ms".into(),
            better: "lower".into(),
            bound: 0.1,
            n: 2500,
        };
        assert_eq!(Entry::parse(&e.render()), Some(e));
        assert_eq!(Entry::parse("  \"entries\": ["), None);
        assert_eq!(field_num("{\"value\": 1.5e-7, ", "value"), Some(1.5e-7));
    }
}
