//! One benchmark for the three paths a user takes to a schedule: a cold
//! solve (`offline_solve`), a request served by the engine over TCP
//! (`engine_diurnal`), and an online trace replay that re-solves as jobs
//! arrive (`online_replay`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload offline_solve --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The inputs come from `--seed` alone; the program under test receives only
//! the generated inputs. An untraced run (`--trace 0`) prints every
//! end-to-end metric of [`catalog::end_to_end`]; a traced run (`--trace 1`)
//! measures the same work untraced and then traced, and prints every
//! per-layer metric of [`catalog::per_layer`]. Layer timings come from spans
//! in this package around calls to each layer's public functions, so nothing
//! inside the program changes. Every output is checked; the last stdout line
//! is one JSON object (`correct`, `attempted`, `failed`, `metrics`), a human
//! table goes to stderr, and any failed check makes the exit code nonzero.

pub mod catalog;
pub mod clock;
pub mod config;
pub mod engine_diurnal;
pub mod offline_solve;
pub mod online_replay;
pub mod report;
pub mod stats;

use std::time::Instant;

use config::Config;
use report::Outcome;

/// Command-line arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct RunArgs {
    /// One of [`catalog::WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// Parses `--workload W --seed N --seconds S --trace 0|1`.
pub fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let flag = |name: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == name)
            .ok_or_else(|| format!("missing {name}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{name} needs a value"))
    };
    let workload = flag("--workload")?.to_string();
    if !catalog::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (expected one of {:?})",
            catalog::WORKLOADS
        ));
    }
    let seed = flag("--seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 = flag("--seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must lie in (0, 120], got {seconds}"));
    }
    let trace = match flag("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(RunArgs {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Derives the seed of one input stream from the workload seed, so streams
/// (instances, arrivals, warm-up traffic) never share random draws.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    // splitmix64 finalizer over the pair
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs a set-up `repeats` times (at least once) and keeps the last result;
/// returns it with the median set-up time in seconds.
pub fn setup_phase<T>(repeats: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..repeats.max(1) {
        // drop the previous set-up first, so repeats never overlap
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    let median = stats::median(&times).expect("at least one repeat");
    (last.expect("at least one repeat"), median)
}

/// Runs one workload and conforms its metrics to the catalog.
pub fn run(args: &RunArgs, cfg: &Config) -> Outcome {
    let repeats = if args.trace { 1 } else { cfg.setup_repeats };
    let mut out = match args.workload.as_str() {
        "offline_solve" => offline_solve::run(&cfg.offline_solve, args, repeats),
        "engine_diurnal" => engine_diurnal::run(&cfg.engine_diurnal, args, repeats),
        "online_replay" => online_replay::run(&cfg.online_replay, args, repeats),
        other => unreachable!("parse_args rejects workload {other}"),
    };
    if args.trace {
        out.conform(&catalog::per_layer(), true);
    } else {
        match report::peak_rss_mb() {
            Some(mb) => out.put("peak_rss_mb", mb, None),
            None => out.invalid.push("peak RSS is unreadable".into()),
        }
        out.conform(&catalog::end_to_end(), false);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload online_replay --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "online_replay");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload offline_solve --seed x --seconds 1 --trace 0",
            "--workload offline_solve --seed 1 --seconds 0 --trace 0",
            "--workload offline_solve --seed 1 --seconds 1 --trace 2",
            "--workload offline_solve --seed 1 --seconds 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn sub_seeds_separate_streams() {
        assert_ne!(sub_seed(1, 1), sub_seed(1, 2));
        assert_ne!(sub_seed(1, 1), sub_seed(2, 1));
        assert_eq!(sub_seed(5, 3), sub_seed(5, 3));
    }

    #[test]
    fn setup_phase_keeps_the_last_result_and_the_median_time() {
        let mut calls = 0;
        let (last, secs) = setup_phase(3, || {
            calls += 1;
            calls
        });
        assert_eq!((last, calls), (3, 3));
        assert!(secs >= 0.0);
    }
}
