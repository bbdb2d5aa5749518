//! `csqbench` — the repository's benchmark: four closed-loop workloads with
//! seed-generated schedules, every result checked against an oracle, and a
//! traced run that attributes an op's time to the layers it crossed. See
//! `README.md` beside this package for the workloads, the metric glossary
//! and how self times are derived.
//!
//! ```text
//! csqbench --workload W --seed N --seconds S --trace 0|1   one run (driver contract)
//! csqbench [--out DIR] [--seed N] [--seconds S] [--smoke]  all workloads, both kinds,
//!                                                          one child process per run
//! csqbench --compare A.json B.json                         apply the bounds, exit 1 on `worse`
//! csqbench --emit-benchmark-json                           print BENCHMARK.json
//! ```

mod compare;
mod harness;
mod layers;
mod metrics;
mod shard_scatter;
mod svc_adhoc_rw;
mod svc_scan;
mod udf_ship;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{Outcome, RunArgs, SETUP_REPEATS};
use metrics::{Entry, MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

/// Measuring time per run under `--smoke`, seconds.
const SMOKE_SECONDS: f64 = 0.1;

fn run_workload(name: &str, args: &RunArgs) -> Option<Outcome> {
    Some(match name {
        "svc_scan" => harness::run::<svc_scan::SvcScan>(args),
        "svc_adhoc_rw" => harness::run::<svc_adhoc_rw::SvcAdhocRw>(args),
        "udf_ship" => harness::run::<udf_ship::UdfShip>(args),
        "shard_scatter" => harness::run::<shard_scatter::ShardScatter>(args),
        _ => return None,
    })
}

fn defs(trace: bool) -> (&'static [MetricDef], &'static str) {
    if trace {
        (&PER_LAYER, "per_layer")
    } else {
        (&END_TO_END, "end_to_end")
    }
}

/// The result line the driver reads: `correct`, `attempted`, `failed`, and
/// every metric of the requested kind.
fn result_json(outcome: &Outcome, trace: bool) -> String {
    let metrics: Vec<String> = defs(trace)
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                outcome.report.get(m.name).0,
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn entries(workload: &str, outcome: &Outcome, trace: bool) -> Vec<Entry> {
    let (defs, kind) = defs(trace);
    defs.iter()
        .map(|m| {
            let (value, n) = outcome.report.get(m.name);
            Entry {
                workload: workload.to_string(),
                metric: m.name.to_string(),
                kind: kind.to_string(),
                value,
                unit: m.unit.to_string(),
                better: m.better.as_str().to_string(),
                bound: m.bound.unwrap_or(0.0),
                n,
            }
        })
        .collect()
}

/// One run: print every metric by name with its unit, then the result line.
fn run_one(workload: &str, args: &RunArgs) -> ExitCode {
    let Some(outcome) = run_workload(workload, args) else {
        eprintln!("csqbench: unknown workload '{workload}'");
        return ExitCode::from(2);
    };
    for e in entries(workload, &outcome, args.trace) {
        println!("{}", e.render());
    }
    println!(
        "{{\"workload\": \"{workload}\", \"metric\": \"fail_ratio\", \"value\": {}, \"unit\": \"ratio\"}}",
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    println!("{}", result_json(&outcome, args.trace));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, untraced then traced, each in its own child process so
/// peak RSS, allocator state and plan caches do not leak between runs.
/// Collects the children's metric lines into `<out>/csqbench.json`.
fn run_all(out_dir: PathBuf, seed: u64, seconds: f64, smoke: bool) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("csqbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    let exe = std::env::current_exe().expect("own executable path");
    let mut lines: Vec<String> = Vec::new();
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        for trace in ["0", "1"] {
            eprintln!("csqbench: {workload} --trace {trace} ...");
            let output = std::process::Command::new(&exe)
                .args(["--workload", workload, "--trace", trace])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(smoke.then_some("--smoke"))
                .arg("--out")
                .arg(&out_dir)
                .stderr(std::process::Stdio::inherit())
                .output()
                .expect("spawn child run");
            ok &= output.status.success();
            let stdout = String::from_utf8_lossy(&output.stdout);
            for line in stdout.lines() {
                println!("{line}");
                if Entry::parse(line).is_some() {
                    lines.push(line.to_string());
                }
            }
        }
    }
    let mut doc = format!(
        "{{\n  \"bench\": \"csqbench\",\n  \"schema_version\": 1,\n  \"seed\": {seed},\n  \
         \"seconds\": {seconds},\n  \"host_cpus\": {},\n  \"entries\": [\n",
        harness::host_cpus()
    );
    doc.push_str(
        &lines
            .iter()
            .map(|l| format!("    {l}"))
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    doc.push_str("\n  ]\n}\n");
    let path = out_dir.join("csqbench.json");
    if let Err(e) = std::fs::write(&path, doc) {
        eprintln!("csqbench: cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    eprintln!("csqbench: wrote {}", path.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("csqbench: {problem}");
    eprintln!(
        "usage: csqbench --workload <{}> --seed N --seconds S --trace 0|1 [--out DIR]\n       \
         csqbench [--out DIR] [--seed N] [--seconds S] [--smoke]\n       \
         csqbench --compare A.json B.json\n       \
         csqbench --emit-benchmark-json",
        WORKLOADS.map(|w| w.0).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload: Option<String> = None;
    let mut seed = 1u64;
    let mut seconds = RUN_SECONDS as f64;
    let mut trace = false;
    let mut out_dir: Option<PathBuf> = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{a} needs {what}"));
        let parsed = match a.as_str() {
            "--workload" => value("a name").map(|v| workload = Some(v.clone())),
            "--seed" => value("a number").and_then(|v| {
                v.parse()
                    .map(|n| seed = n)
                    .map_err(|_| format!("bad seed '{v}'"))
            }),
            "--seconds" => value("a number").and_then(|v| match v.parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 600.0 => {
                    seconds = s;
                    Ok(())
                }
                _ => Err(format!("bad seconds '{v}'")),
            }),
            "--trace" => value("0 or 1").and_then(|v| match v.as_str() {
                "0" | "1" => {
                    trace = v == "1";
                    Ok(())
                }
                _ => Err(format!("bad trace '{v}'")),
            }),
            "--out" => value("a directory").map(|v| out_dir = Some(PathBuf::from(v))),
            "--smoke" => {
                smoke = true;
                seconds = SMOKE_SECONDS;
                Ok(())
            }
            "--compare" => {
                return match (it.next(), it.next()) {
                    (Some(a), Some(b)) => compare::run(a, b),
                    _ => usage("--compare needs two results files"),
                }
            }
            "--emit-benchmark-json" => {
                print!("{}", metrics::benchmark_json());
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown argument '{other}'")),
        };
        if let Err(problem) = parsed {
            return usage(&problem);
        }
    }
    match workload {
        Some(w) => run_one(
            &w,
            &RunArgs {
                seed,
                seconds,
                setups: if smoke { 1 } else { SETUP_REPEATS },
                trace,
                out_dir,
            },
        ),
        None => run_all(
            out_dir.unwrap_or_else(|| PathBuf::from("csqbench_out")),
            seed,
            seconds,
            smoke,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at smoke length, both kinds: every metric of the kind
    /// is present once with a finite value, the oracle and the counter
    /// reconciliation hold, and the result line has the driver's shape.
    #[test]
    fn smoke_every_workload_reports_every_metric() {
        for (workload, _) in WORKLOADS {
            for trace in [false, true] {
                let args = RunArgs {
                    seed: 7,
                    seconds: SMOKE_SECONDS,
                    setups: 1,
                    trace,
                    out_dir: None,
                };
                let outcome = run_workload(workload, &args).expect("known workload");
                assert!(outcome.correct, "{workload} trace={trace} is not correct");
                assert!(outcome.attempted >= 1 && outcome.failed == 0);
                let es = entries(workload, &outcome, trace);
                assert_eq!(es.len(), defs(trace).0.len());
                for e in &es {
                    assert!(e.value.is_finite(), "{workload} {} not finite", e.metric);
                    assert_eq!(Entry::parse(&e.render()).as_ref(), Some(e));
                }
                if !trace {
                    for e in &es {
                        assert!(e.value > 0.0, "{workload} {} must never be 0", e.metric);
                    }
                }
                let line = result_json(&outcome, trace);
                assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
                for m in defs(trace).0 {
                    assert_eq!(
                        line.matches(&format!("\"{}\": {{", m.name)).count(),
                        1,
                        "{workload}: {} must appear exactly once",
                        m.name
                    );
                }
            }
        }
    }

    #[test]
    fn unknown_workload_is_refused() {
        let args = RunArgs {
            seed: 1,
            seconds: SMOKE_SECONDS,
            setups: 1,
            trace: false,
            out_dir: None,
        };
        assert!(run_workload("nope", &args).is_none());
    }
}
