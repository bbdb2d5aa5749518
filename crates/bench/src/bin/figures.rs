//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```sh
//! cargo run -p csq-bench --bin figures          # all figures
//! cargo run -p csq-bench --bin figures fig8     # one figure
//! ```
//!
//! Prints each series as a table and writes `results/<figure>.csv`.

use std::fs;
use std::path::Path;

use csq_bench::{figures, Series};

fn emit(name: &str, series: &[Series], x: &str, y: &str) {
    println!("---- {name} ----");
    println!("{}", Series::table(series, x, y));
    let dir = Path::new("results");
    let _ = fs::create_dir_all(dir);
    let path = dir.join(format!("{name}.csv"));
    if let Err(e) = fs::write(&path, Series::csv(series)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("wrote {}\n", path.display());
    }
}

fn emit_text(name: &str, text: &str) {
    println!("---- {name} ----");
    println!("{text}");
    let dir = Path::new("results");
    let _ = fs::create_dir_all(dir);
    let path = dir.join(format!("{name}.txt"));
    if let Err(e) = fs::write(&path, text) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("wrote {}\n", path.display());
    }
}

/// Every name `main` dispatches on; anything else is a usage error.
const KNOWN: &[&str] = &[
    "all",
    "fig2",
    "fig6",
    "fig8",
    "fig9",
    "fig10",
    "cost-validation",
    "fig12",
    "fig13",
    "ablations",
    "ablate-duplicates",
    "ablate-asymmetry",
];

fn main() {
    let which: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = which.iter().find(|w| !KNOWN.contains(&w.as_str())) {
        eprintln!("unknown figure `{bad}`; known: {}", KNOWN.join(" "));
        std::process::exit(2);
    }
    let want = |name: &str| which.is_empty() || which.iter().any(|w| w == name || w == "all");

    if want("fig2") {
        emit("fig2", &figures::fig2(), "K (0=naive)", "seconds");
    }
    if want("fig6") {
        emit(
            "fig6",
            &figures::fig6(),
            "concurrency",
            "milliseconds, 100 objects over 28.8kbit",
        );
    }
    if want("fig8") {
        emit(
            "fig8",
            &figures::fig8(),
            "selectivity",
            "CSJ/SJ relative time",
        );
    }
    if want("fig9") {
        emit(
            "fig9",
            &figures::fig9(),
            "selectivity",
            "CSJ/SJ relative time, N=100",
        );
    }
    if want("fig10") {
        emit(
            "fig10",
            &figures::fig10(),
            "result bytes",
            "CSJ/SJ relative time",
        );
    }
    if want("cost-validation") {
        let rows = figures::cost_validation();
        let mut text = format!(
            "{:<44} {:>10} {:>10} {:>8}\n",
            "config", "predicted", "measured", "err%"
        );
        for (label, p, m) in &rows {
            text.push_str(&format!(
                "{label:<44} {p:>10.3} {m:>10.3} {:>7.1}%\n",
                (m - p).abs() / p * 100.0
            ));
        }
        emit_text("cost_validation", &text);
    }
    if want("fig12") {
        emit_text("fig12_plans", &figures::fig12_plan_space());
    }
    if want("fig13") {
        emit_text("fig13_plans", &figures::fig13_plan_space());
    }
    if want("ablate-duplicates") || want("ablations") {
        emit(
            "ablate_duplicates",
            &figures::ablate_duplicates(),
            "D (distinct fraction)",
            "seconds",
        );
    }
    if want("ablate-asymmetry") || want("ablations") {
        emit(
            "ablate_asymmetry_emulation",
            &figures::ablate_asymmetry_emulation(),
            "selectivity",
            "CSJ/SJ relative time",
        );
    }
}
