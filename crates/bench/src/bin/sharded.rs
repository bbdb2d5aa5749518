//! Sharded scale-out benchmark: the same statements through a coordinator
//! over 1/2/4 loopback TCP shard services, writing
//! `results/BENCH_sharded.json`. Options (`--quick`, `--out`, `--check`,
//! `--merge`): see `csq_bench::cli`.

fn main() -> std::process::ExitCode {
    csq_bench::cli::run(csq_bench::sharded::CLI)
}
