//! Concurrent query-service load benchmark: closed-loop clients over real
//! loopback TCP sockets, writing
//! `results/BENCH_service.json`. Options (`--quick`, `--out`, `--check`,
//! `--merge`): see `csq_bench::cli`.

fn main() -> std::process::ExitCode {
    csq_bench::cli::run(csq_bench::service::CLI)
}
