//! `perf_harness` — the repo's machine-readable perf trajectory.
//!
//! ```text
//! perf_harness [--out BENCH_solver.json]
//!              [--baseline BENCH_solver.json] [--tolerance 0.25]
//!              [--relative-only]
//! ```
//!
//! Runs pinned solve / engine / replay workloads and emits the
//! `bench-solver/v3` JSON report (see `bench::perf` for the schema).
//! With `--baseline`, compares the fresh run against a committed report and
//! exits nonzero on regression beyond the tolerance — the CI perf gate.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match bench::perf::cli(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
