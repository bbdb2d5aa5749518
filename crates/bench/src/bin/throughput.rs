//! Local-engine throughput benchmark: batch engine vs. the pre-vectorization
//! row-at-a-time reference engine, writing
//! `results/BENCH_throughput.json`. Options (`--quick`, `--out`, `--check`,
//! `--merge`): see `csq_bench::cli`.

fn main() -> std::process::ExitCode {
    csq_bench::cli::run(csq_bench::throughput::CLI)
}
