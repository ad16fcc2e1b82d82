//! Experiment harness: one module per paper-claim experiment (E1–E15; see
//! [`experiments`]), each printing its paper-claim-vs-measured table, plus
//! small table-formatting utilities.
//!
//! Every experiment takes an explicit seed and a `quick` flag (smaller
//! sweeps for CI); the `exp` binary runs one by name, or all. The
//! workspace's one timing harness (`perf_harness`, `BENCH_solver.json`,
//! the CI perf gate) lives in [`perf`].

pub mod experiments;
pub mod perf;
pub mod table;

pub use table::Table;

/// Default seed used by the binaries (date of the thesis defense).
pub const DEFAULT_SEED: u64 = 20100521;
