//! Grouped-aggregation benchmark: serial vs. shipped partial/final
//! aggregation, writing `results/BENCH_aggregate.json`. Options (`--quick`, `--out`, `--check`,
//! `--merge`): see `csq_bench::cli`.

fn main() -> std::process::ExitCode {
    csq_bench::cli::run(csq_bench::aggregate::CLI)
}
