//! The one results schema and the one regression gate shared by every
//! gated bench (`throughput`, `storage`, `service`, `sharded`); DESIGN.md §6
//! "Bench gates" is the prose version.
//!
//! A bench run is a list of [`Entry`]s. Each carries the host's core count
//! and a `reference` throughput — untouched code (the row engine, a serial
//! or in-process run of the same statement) measured in the same process —
//! next to its named measurements. The rule, stated once: **ratios of two
//! numbers measured in one process gate on any host; absolute numbers gate
//! only when every entry's reference sits within tolerance of its baseline**
//! (a host that differs, or slows down mid-run, moves some reference and
//! disarms the absolute gates run-wide instead of failing whichever entry
//! straddled the slowdown). What a bench gates is data: its [`Gate`] table.

/// One measured point of a bench run; one line of a results file.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// "quick" or "full".
    pub mode: String,
    /// Stable identity within the bench, e.g. `filter/clients=16/idle=1000`;
    /// (`mode`, `id`) is the key a run is matched to its baseline by.
    pub id: String,
    /// Hardware threads of the measuring host.
    pub host_cpus: usize,
    /// Throughput of the untouched in-process reference (hardware probe).
    pub reference: f64,
    /// Named measurements, gated ([`Gate::metrics`]) or informational.
    pub values: Vec<(String, f64)>,
}

impl Entry {
    /// An entry measured on this host, with no values yet.
    pub fn new(quick: bool, id: impl Into<String>, reference: f64) -> Entry {
        Entry {
            mode: if quick { "quick" } else { "full" }.to_string(),
            id: id.into(),
            host_cpus: host_cpus(),
            reference,
            values: Vec::new(),
        }
    }

    /// Append a named measurement.
    pub fn with(mut self, name: &str, value: f64) -> Entry {
        self.values.push((name.to_string(), value));
        self
    }

    /// Look a measurement up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// Hardware threads available to this process.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// On which hosts a metric is compared with its baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scope {
    /// A ratio of two numbers measured in one process.
    AnyHost,
    /// An absolute number: compared only on comparable hardware.
    ComparableHw,
}

/// When a metric counts as regressed against its baseline value `b`, given
/// the bench tolerance `tol`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Higher is better: fails below `b · (1 − tol)`.
    Min,
    /// Lower is better: fails above `b · (1 + k·tol)`.
    MaxTol(f64),
    /// Lower is better, noisy: fails only above `k · b` (a blow-up detector).
    MaxTimes(f64),
}

/// One gated metric of a bench.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name of the value in [`Entry::values`]. A metric gates an entry when
    /// run and baseline both carry it; carried by only one is a failure.
    pub name: &'static str,
    /// Where it is comparable.
    pub scope: Scope,
    /// When it has regressed.
    pub bound: Bound,
    /// Compare only where the baseline value is at least this (a ratio with
    /// no headroom over 1× is noise, not signal); 0 = always.
    pub min_baseline: f64,
    /// A hard floor for the entry with this id, baseline or not.
    pub floor: Option<(&'static str, f64)>,
}

impl Metric {
    /// A higher-is-better ratio gated on any host.
    pub const fn ratio(name: &'static str) -> Metric {
        Metric {
            name,
            scope: Scope::AnyHost,
            bound: Bound::Min,
            min_baseline: 0.0,
            floor: None,
        }
    }

    /// An absolute number (higher is better unless `bound` says otherwise).
    pub const fn absolute(name: &'static str, bound: Bound) -> Metric {
        Metric {
            scope: Scope::ComparableHw,
            bound,
            ..Metric::ratio(name)
        }
    }
}

/// Everything bench-specific about a results file and its gate.
#[derive(Debug)]
pub struct Gate {
    /// Bench (and binary) name: `results/BENCH_<name>.json`.
    pub name: &'static str,
    /// What `reference` and the values mean, for readers of the file.
    pub note: &'static str,
    /// Regression tolerance.
    pub tolerance: f64,
    /// Whether the measured side uses several cores, so that comparable
    /// hardware additionally means equal `host_cpus`.
    pub multi_core: bool,
    /// Gated metrics in order; an entry reports its first failing one.
    pub metrics: &'static [Metric],
}

/// Integers and large measurements whole, small ones to three decimals.
pub(crate) fn num(v: f64) -> String {
    if v.fract() == 0.0 || v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// Render a results document, one entry per line so the parser and diffs
/// stay trivial.
pub fn render_document(gate: &Gate, entries: &[Entry]) -> String {
    let mut out = format!(
        "{{\n  \"bench\": \"csq_{}\",\n  \"schema_version\": 2,\n  \"note\": \"{}\",\n  \
         \"entries\": [\n",
        gate.name, gate.note
    );
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"id\": \"{}\", \"host_cpus\": {}, \"reference\": {}",
            e.mode,
            e.id,
            e.host_cpus,
            num(e.reference)
        ));
        for (name, v) in &e.values {
            out.push_str(&format!(", \"{name}\": {}", num(*v)));
        }
        out.push_str(if i + 1 == entries.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

fn parse_line(line: &str) -> Result<Entry, String> {
    let body = line
        .trim()
        .trim_end_matches(',')
        .strip_prefix('{')
        .and_then(|l| l.strip_suffix('}'))
        .ok_or("not a {...} object on one line")?;
    let (mut mode, mut id, mut host_cpus, mut reference) = (None, None, None, None);
    let mut values = Vec::new();
    for pair in body.split(", ") {
        let (key, v) = pair.split_once(": ").ok_or(format!("bad field '{pair}'"))?;
        let key = key.trim_matches('"');
        if key == "mode" || key == "id" {
            let s = v.strip_prefix('"').and_then(|v| v.strip_suffix('"'));
            let s = s.ok_or(format!("'{key}' is not a string"))?.to_string();
            *(if key == "mode" { &mut mode } else { &mut id }) = Some(s);
            continue;
        }
        // Plain decimals only: `inf`, `NaN` and exponents are what a broken
        // measurement renders as, and must not parse into a gate input.
        let plain = v
            .bytes()
            .all(|b| b.is_ascii_digit() || b == b'.' || b == b'-');
        let n: f64 = match v.parse() {
            Ok(n) if plain => n,
            _ => return Err(format!("'{key}' is not a plain number: {v}")),
        };
        match key {
            "host_cpus" => host_cpus = Some(n as usize),
            "reference" => reference = Some(n),
            _ => values.push((key.to_string(), n)),
        }
    }
    Ok(Entry {
        mode: mode.ok_or("missing 'mode'")?,
        id: id.ok_or("missing 'id' (not a schema_version 2 results file?)")?,
        host_cpus: host_cpus.ok_or("missing 'host_cpus'")?,
        reference: reference.ok_or("missing 'reference'")?,
        values,
    })
}

/// Parse the entries out of a document written by [`render_document`]
/// (line-oriented; not a general JSON parser). A malformed entry line is an
/// error naming the entry, never a silently shorter list.
pub fn parse_entries(text: &str) -> Result<Vec<Entry>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.contains("\"mode\":") {
            let what = line
                .split("\"id\": \"")
                .nth(1)
                .and_then(|r| r.split('"').next());
            let what = what.map_or(format!("line {}", i + 1), |id| format!("entry '{id}'"));
            out.push(parse_line(line).map_err(|e| format!("malformed {what}: {e}"))?);
        }
    }
    Ok(out)
}

/// Compare a run against a baseline under `gate`; returns human-readable
/// failures. Baseline entries of modes the run does not contain are ignored;
/// within the run's modes an entry present on only one side is a failure —
/// a renamed or dropped entry must not un-gate itself.
pub fn check_regressions(gate: &Gate, current: &[Entry], baseline: &[Entry]) -> Vec<String> {
    let tol = gate.tolerance;
    let pct = (tol * 100.0) as u64;
    let baseline_of = |c: &Entry| baseline.iter().find(|b| b.mode == c.mode && b.id == c.id);
    let same_cpus = |c: &Entry, b: &Entry| c.host_cpus == b.host_cpus;
    let comparable_hw = current.iter().all(|c| match baseline_of(c) {
        Some(b) => {
            (!gate.multi_core || same_cpus(c, b))
                && (c.reference - b.reference).abs() <= b.reference * tol
        }
        None => true,
    });
    let mut failures = Vec::new();
    for b in baseline {
        let in_mode = current.iter().any(|c| c.mode == b.mode);
        if in_mode && !current.iter().any(|c| c.mode == b.mode && c.id == b.id) {
            failures.push(format!(
                "{} ({}): in the baseline but not measured by this run",
                b.id, b.mode
            ));
        }
    }
    for c in current {
        let who = format!("{} ({})", c.id, c.mode);
        let floored = gate.metrics.iter().find_map(|m| {
            let (_, floor) = m.floor.filter(|(id, _)| *id == c.id)?;
            let v = c.get(m.name).unwrap_or(0.0);
            (v < floor).then(|| format!("{who}: {} {v:.2} is below the {floor} floor", m.name))
        });
        if let Some(f) = floored {
            failures.push(f);
            continue;
        }
        let Some(b) = baseline_of(c) else {
            failures.push(format!(
                "{who}: no baseline entry (re-record with{} --merge)",
                if c.mode == "quick" { " --quick" } else { "" }
            ));
            continue;
        };
        for m in gate.metrics {
            let (cv, bv) = match (c.get(m.name), b.get(m.name)) {
                (Some(cv), Some(bv)) if cv.is_finite() => (cv, bv),
                (None, None) => continue,
                _ => {
                    failures.push(format!("{who}: {} is missing or not finite", m.name));
                    break;
                }
            };
            let (armed, scope) = match m.scope {
                Scope::AnyHost => (true, ""),
                Scope::ComparableHw => (comparable_hw, ", hardware comparable"),
            };
            let (limit, how) = match m.bound {
                Bound::Min => (bv * (1.0 - tol), format!("{pct}% below")),
                Bound::MaxTol(k) => (bv * (1.0 + k * tol), format!("{pct}% x {k} above")),
                Bound::MaxTimes(k) => (bv * k, format!("{k}x")),
            };
            let regressed = if m.bound == Bound::Min {
                cv < limit
            } else {
                cv > limit
            };
            if armed && bv >= m.min_baseline && regressed {
                failures.push(format!(
                    "{who}: {} {} is past {} ({how} baseline {}{scope})",
                    m.name,
                    num(cv),
                    num(limit),
                    num(bv),
                ));
                break;
            }
        }
    }
    failures
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A quick-mode entry on a 4-cpu host.
    pub(crate) fn entry(id: &str, reference: f64, values: &[(&str, f64)]) -> Entry {
        let mut e = Entry::new(true, id, reference);
        e.host_cpus = 4;
        values.iter().fold(e, |e, (n, v)| e.with(n, *v))
    }

    /// Rewrite one named value of `e` in place.
    pub(crate) fn set(e: &mut Entry, name: &str, f: impl Fn(f64) -> f64) {
        let v = e.values.iter_mut().find(|(n, _)| n == name).unwrap();
        v.1 = f(v.1);
    }

    const GATE: Gate = Gate {
        name: "test",
        note: "n",
        tolerance: 0.25,
        multi_core: true,
        metrics: &[
            Metric::ratio("speedup"),
            Metric::absolute("qps", Bound::Min),
        ],
    };

    fn run() -> Vec<Entry> {
        vec![
            entry("a/clients=1", 1000.0, &[("speedup", 2.5), ("qps", 900.5)]),
            entry("b", 123456.789, &[("speedup", 0.8), ("rows", 100000.0)]),
        ]
    }

    #[test]
    fn document_roundtrips() {
        let mut entries = run();
        entries[1].reference = 123457.0; // ≥ 1000 renders as an integer
        entries[1].mode = "full".into();
        let doc = render_document(&GATE, &entries);
        assert!(doc.contains("\"schema_version\": 2") && doc.contains("\"bench\": \"csq_test\""));
        assert_eq!(parse_entries(&doc).unwrap(), entries);
    }

    #[test]
    fn malformed_entry_line_is_an_error_naming_the_entry() {
        for bad in ["inf", "NaN", "1e5", "\"fast\""] {
            let doc = render_document(&GATE, &run()).replace("900.500", bad);
            let err = parse_entries(&doc).unwrap_err();
            assert!(
                err.contains("a/clients=1") && err.contains("qps"),
                "{bad}: {err}"
            );
        }
        // A schema-v1 line (no id) is rejected, not skipped.
        let v1 = "{\"mode\": \"quick\", \"pipeline\": \"filter\", \"qps\": 1}";
        assert!(parse_entries(v1).unwrap_err().contains("line 1"));
    }

    #[test]
    fn unmatched_entries_fail_in_both_directions_within_the_mode() {
        let baseline = run();
        assert!(check_regressions(&GATE, &run(), &baseline).is_empty());
        // A renamed entry: the new id has no baseline, the old id no run.
        let mut renamed = run();
        renamed[1].id = "b2".into();
        let fails = check_regressions(&GATE, &renamed, &baseline);
        assert_eq!(fails.len(), 2, "{fails:?}");
        assert!(fails
            .iter()
            .any(|f| f.starts_with("b (quick): in the baseline")));
        assert!(fails
            .iter()
            .any(|f| f.starts_with("b2 (quick): no baseline")));
        // Other-mode baseline entries are not this run's business...
        let mut both = baseline.clone();
        both.push(Entry {
            mode: "full".into(),
            ..baseline[0].clone()
        });
        assert!(check_regressions(&GATE, &run(), &both).is_empty());
        // ...but a baseline with *only* the other mode gates nothing: fail.
        let full_only = vec![both[2].clone()];
        assert_eq!(check_regressions(&GATE, &run(), &full_only).len(), 2);
        assert_eq!(check_regressions(&GATE, &run(), &[]).len(), 2);
        // A gated value present on one side only, or measured as NaN, is a
        // failure too.
        let mut nan = run();
        set(&mut nan[0], "speedup", |_| f64::NAN);
        assert_eq!(check_regressions(&GATE, &nan, &baseline).len(), 1);
        let mut dropped = run();
        dropped[0].values.remove(0);
        let fails = check_regressions(&GATE, &dropped, &baseline);
        assert!(
            fails.len() == 1 && fails[0].contains("speedup is missing"),
            "{fails:?}"
        );
    }
}
