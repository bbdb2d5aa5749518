//! # csq-bench — workloads and figure regeneration
//!
//! One function per table/figure of the paper's evaluation (§4) plus the §5
//! plan-space demonstrations. The `figures` binary prints the series and
//! writes CSVs; the Criterion benches wrap the same functions so
//! `cargo bench` exercises every experiment.
//!
//! All timings are *virtual* (discrete-event network model, see DESIGN.md):
//! deterministic, instant to compute, and byte-exact with the threaded
//! engine (asserted by the `backends_agree` integration tests).

pub mod cli;
pub mod figures;
pub mod gate;
pub mod service;
pub mod sharded;
pub mod storage;
pub mod throughput;
pub mod workloads;

/// One plotted curve: label plus (x, y) points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label (e.g. "1000 Bytes").
    pub label: String,
    /// Points in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Render as CSV lines `label,x,y`.
    pub fn csv(all: &[Series]) -> String {
        let mut out = String::from("series,x,y\n");
        for s in all {
            for (x, y) in &s.points {
                out.push_str(&format!("{},{},{}\n", s.label, x, y));
            }
        }
        out
    }

    /// Render as an aligned text table for terminal output.
    pub fn table(all: &[Series], x_name: &str, y_name: &str) -> String {
        let mut out = format!("{:>10} ", x_name);
        for s in all {
            out.push_str(&format!("{:>14}", s.label));
        }
        out.push_str(&format!("   ({y_name})\n"));
        let xs: Vec<f64> = all
            .first()
            .map(|s| s.points.iter().map(|p| p.0).collect())
            .unwrap_or_default();
        for (i, x) in xs.iter().enumerate() {
            out.push_str(&format!("{x:>10.3} "));
            for s in all {
                match s.points.get(i) {
                    Some((_, y)) => out.push_str(&format!("{y:>14.3}")),
                    None => out.push_str(&format!("{:>14}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }
}
