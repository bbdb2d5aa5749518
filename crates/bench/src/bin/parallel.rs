//! Parallel-engine benchmark: the serial batch engine vs. the morsel-driven
//! parallel engine at 1/2/4/8 workers, writing
//! `results/BENCH_parallel.json`. Options (`--quick`, `--out`, `--check`,
//! `--merge`): see `csq_bench::cli`.

fn main() -> std::process::ExitCode {
    csq_bench::cli::run(csq_bench::parallel::CLI)
}
