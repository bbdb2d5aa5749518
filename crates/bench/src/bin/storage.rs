//! Columnar storage benchmark: zone-map-pruned vs. full selective scan, and
//! budgeted (spilling) vs. in-memory aggregation, writing
//! `results/BENCH_storage.json`. Options (`--quick`, `--out`, `--check`,
//! `--merge`): see `csq_bench::cli`.

fn main() -> std::process::ExitCode {
    csq_bench::cli::run(csq_bench::storage::CLI)
}
