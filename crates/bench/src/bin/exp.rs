//! `exp` — runs one paper-claim experiment, or the whole suite.
//!
//! ```text
//! exp <name|all> [seed] [--quick]
//! ```
//!
//! Each experiment prints its paper-claim-vs-measured table and asserts the
//! bound it checks, so a violated claim panics. `--quick` shrinks the sweeps
//! for CI; the seed defaults to `bench::DEFAULT_SEED`. An unknown name (or
//! a seed that is not a number) exits 2 and lists the valid names.

use std::process::ExitCode;

use bench::experiments::EXPERIMENTS;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut positional = args.iter().filter(|a| *a != "--quick");
    let name = positional.next().map_or("", String::as_str);
    let seed = positional
        .next()
        .map_or(Some(bench::DEFAULT_SEED), |s| s.parse().ok());
    let chosen: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|(n, _)| name == "all" || *n == name)
        .collect();
    let (Some(seed), false) = (seed, chosen.is_empty()) else {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        eprintln!(
            "usage: exp <name|all> [seed] [--quick]\nexperiments: all {}",
            names.join(" ")
        );
        return ExitCode::from(2);
    };
    println!("power-scheduling experiments: {name} (seed {seed}, quick = {quick})");
    for (_, run) in chosen {
        run(seed, quick);
    }
    println!("\nall experiment assertions passed.");
    ExitCode::SUCCESS
}
