//! Shared CLI harness for the four regression-gated benchmark binaries
//! (`throughput`, `storage`, `service`, `sharded`):
//! argument parsing, the `--check` baseline comparison, and the
//! `--merge`-aware results write, all over the one [`crate::gate`] schema.
//!
//! ```text
//! cargo run --release -p csq-bench --bin <bench> -- [OPTIONS]
//!
//!   --quick          smaller inputs (the CI smoke mode)
//!   --out PATH       results file to write   [default: results/BENCH_<bench>.json]
//!   --check PATH     compare against a committed baseline and exit non-zero
//!                    on a regression (the rule: DESIGN.md §6 "Bench gates")
//!   --merge          keep the other mode's entries already in --out
//! ```

use std::process::ExitCode;

use crate::gate::{check_regressions, num, parse_entries, render_document, Entry, Gate};

/// A gated bench: its gate table and its workload.
pub struct BenchCli {
    /// Results-file identity and gated metrics.
    pub gate: &'static Gate,
    /// Run the workload (quick or full mode).
    pub run: fn(quick: bool) -> Vec<Entry>,
}

/// Parse argv, run the bench, check the baseline, write the results file.
pub fn run(cli: BenchCli) -> ExitCode {
    let name = cli.gate.name;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut merge = false;
    let mut out_path = format!("results/BENCH_{name}.json");
    let mut check_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--merge" => merge = true,
            "--out" => match it.next() {
                Some(p) => out_path = p.clone(),
                None => return usage(name, "--out needs a path"),
            },
            "--check" => match it.next() {
                Some(p) => check_path = Some(p.clone()),
                None => return usage(name, "--check needs a path"),
            },
            other => return usage(name, &format!("unknown argument '{other}'")),
        }
    }

    let mode = if quick { "quick" } else { "full" };
    eprintln!("running {name} pipelines ({mode} mode)...");
    let current = (cli.run)(quick);
    for e in &current {
        let values: Vec<String> = e
            .values
            .iter()
            .map(|(n, v)| format!("{n}={}", num(*v)))
            .collect();
        eprintln!(
            "  {:<36} reference {:>10}  {}",
            e.id,
            num(e.reference),
            values.join(" ")
        );
    }

    let mut status = ExitCode::SUCCESS;
    if let Some(path) = check_path {
        let baseline = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read baseline {path}: {e}"))
            .and_then(|text| parse_entries(&text).map_err(|e| format!("baseline {path}: {e}")));
        match baseline {
            Ok(baseline) => {
                let failures = check_regressions(cli.gate, &current, &baseline);
                if failures.is_empty() {
                    eprintln!("regression check vs {path}: ok");
                } else {
                    for f in &failures {
                        eprintln!("REGRESSION: {f}");
                    }
                    status = ExitCode::FAILURE;
                }
            }
            Err(e) => {
                eprintln!("REGRESSION CHECK FAILED: {e}");
                status = ExitCode::FAILURE;
            }
        }
    }

    let mut entries = Vec::new();
    if merge {
        if let Ok(text) = std::fs::read_to_string(&out_path) {
            match parse_entries(&text) {
                Ok(old) => entries.extend(old.into_iter().filter(|e| e.mode != mode)),
                Err(e) => {
                    eprintln!("cannot --merge into {out_path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    entries.extend(current);
    // Stable: within a mode, entries keep the bench's own run order.
    entries.sort_by(|a, b| a.mode.cmp(&b.mode));
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&out_path, render_document(cli.gate, &entries)) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out_path}");
    status
}

fn usage(name: &str, msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("usage: {name} [--quick] [--merge] [--out PATH] [--check PATH]");
    ExitCode::FAILURE
}
