//! `csqbench --compare A.json B.json`: apply each end-to-end metric's bound
//! per (workload, metric) and say `same`, `worse` or `better`. This is the
//! tool for the repeatability check (two runs of one commit must show no
//! `worse`) and for later changes' no-regression tables.

use std::process::ExitCode;

use crate::metrics::Entry;

/// How `b` reads against `a` under the metric's own bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Same,
    /// Worse than `a` by more than the bound.
    Worse,
    /// Better than `a` by more than the bound.
    Better,
}

/// Relative change of `b` against `a`, signed so that positive is worse.
fn worsening(a: &Entry, b: &Entry) -> f64 {
    let change = if a.value == 0.0 {
        if b.value == 0.0 {
            0.0
        } else {
            f64::INFINITY.copysign(b.value)
        }
    } else {
        (b.value - a.value) / a.value.abs()
    };
    if a.better == "higher" {
        -change
    } else {
        change
    }
}

/// Judge one metric.
pub fn verdict(a: &Entry, b: &Entry) -> Verdict {
    let w = worsening(a, b);
    if w > a.bound {
        Verdict::Worse
    } else if w < -a.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &str) -> Result<Vec<Entry>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(path, &text)
}

fn parse(path: &str, text: &str) -> Result<Vec<Entry>, String> {
    let entries: Vec<Entry> = text.lines().filter_map(Entry::parse).collect();
    if entries.iter().any(|e| e.kind == "end_to_end") {
        Ok(entries)
    } else {
        // Zero comparable entries can never flag a regression; that must
        // read as a broken comparison, not a clean one.
        Err(format!("{path} holds no end-to-end csqbench entries"))
    }
}

/// Compare two results files; exit code 1 when any metric is `worse`, 2
/// when the files cannot be compared.
pub fn run(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("csqbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut worse = 0;
    let mut missing = 0;
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    for ea in a.iter().filter(|e| e.kind == "end_to_end") {
        let Some(eb) = b
            .iter()
            .find(|e| e.workload == ea.workload && e.metric == ea.metric)
        else {
            println!(
                "{:<14} {:<16} missing from {path_b}",
                ea.workload, ea.metric
            );
            missing += 1;
            continue;
        };
        let v = verdict(ea, eb);
        worse += (v == Verdict::Worse) as u32;
        println!(
            "{:<14} {:<16} {:>14.4} {:>14.4} {:>+8.1}% {:>6.0}%  {}",
            ea.workload,
            ea.metric,
            ea.value,
            eb.value,
            (eb.value - ea.value) / ea.value * 100.0,
            ea.bound * 100.0,
            match v {
                Verdict::Same => "same",
                Verdict::Worse => "worse",
                Verdict::Better => "better",
            }
        );
    }
    if worse > 0 || missing > 0 {
        eprintln!("csqbench: {worse} metric(s) worse, {missing} missing");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(metric: &str, better: &str, bound: f64, value: f64) -> Entry {
        Entry {
            workload: "w".into(),
            metric: metric.into(),
            kind: "end_to_end".into(),
            value,
            unit: "ms".into(),
            better: better.into(),
            bound,
            n: 100,
        }
    }

    #[test]
    fn bounds_apply_in_the_metric_direction() {
        let base = entry("op_p50_ms", "lower", 0.10, 10.0);
        assert_eq!(
            verdict(&base, &entry("op_p50_ms", "lower", 0.10, 10.9)),
            Verdict::Same
        );
        assert_eq!(
            verdict(&base, &entry("op_p50_ms", "lower", 0.10, 11.1)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &entry("op_p50_ms", "lower", 0.10, 8.9)),
            Verdict::Better
        );
        let rate = entry("ops_per_s", "higher", 0.10, 100.0);
        assert_eq!(
            verdict(&rate, &entry("ops_per_s", "higher", 0.10, 89.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&rate, &entry("ops_per_s", "higher", 0.10, 111.0)),
            Verdict::Better
        );
        assert_eq!(
            verdict(&rate, &entry("ops_per_s", "higher", 0.10, 95.0)),
            Verdict::Same
        );
    }

    #[test]
    fn files_without_entries_do_not_compare_clean() {
        assert!(parse("empty.json", "{\n  \"entries\": [\n  ]\n}\n").is_err());
        let good = entry("op_p50_ms", "lower", 0.1, 1.0).render();
        assert_eq!(parse("good.json", &good).unwrap().len(), 1);
        assert!(load("no/such/file.json").is_err());
    }
}
