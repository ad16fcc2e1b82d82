//! Per-theorem experiments E1–E15, one module per experiment except that
//! E4 runs inside the E3 module and E13 inside the E5 module.
//! [`EXPERIMENTS`] names the modules for the `exp` binary, and each
//! module's docs state the claim it checks.

pub mod e01_schedule_all;
pub mod e02_budgeted;
pub mod e03_prize_collecting;
pub mod e05_setcover_hard;
pub mod e06_secretary_monotone;
pub mod e07_secretary_nonmonotone;
pub mod e08_secretary_matroid;
pub mod e09_secretary_knapsack;
pub mod e10_subadditive;
pub mod e11_bottleneck;
pub mod e12_submodularity;
pub mod e14_ablation;
pub mod e15_gap_budget;

/// Runs `trial(i)` for `i in 0..n` on `available_parallelism()` scoped
/// threads, one contiguous chunk of trials each, and returns the results in
/// trial order. The Monte-Carlo sweeps (E6–E9, E12) reduce the results
/// sequentially, so their output does not depend on the thread count.
pub(crate) fn trials<T: Send>(n: usize, trial: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
    let chunk = n.div_ceil(threads).max(1);
    let trial = &trial;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .step_by(chunk)
            .map(|lo| scope.spawn(move || (lo..n.min(lo + chunk)).map(trial).collect::<Vec<T>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// An experiment's entry point, `run(seed, quick)`.
pub type Run = fn(u64, bool);

/// Every experiment under its `exp` name, in suite order.
pub const EXPERIMENTS: &[(&str, Run)] = &[
    ("schedule_all", e01_schedule_all::run),
    ("budgeted_greedy", e02_budgeted::run),
    ("prize_collecting", e03_prize_collecting::run),
    ("setcover_hard", e05_setcover_hard::run),
    ("secretary_monotone", e06_secretary_monotone::run),
    ("secretary_nonmonotone", e07_secretary_nonmonotone::run),
    ("secretary_matroid", e08_secretary_matroid::run),
    ("secretary_knapsack", e09_secretary_knapsack::run),
    ("subadditive", e10_subadditive::run),
    ("bottleneck", e11_bottleneck::run),
    ("submodularity_check", e12_submodularity::run),
    ("ablation", e14_ablation::run),
    ("gap_budget", e15_gap_budget::run),
];

#[cfg(test)]
mod tests {
    #[test]
    fn trials_return_results_in_trial_order() {
        for n in [0usize, 1, 2, 3, 7, 1000] {
            let squares: Vec<usize> = super::trials(n, |i| i * i);
            assert_eq!(
                squares,
                (0..n).map(|i| i * i).collect::<Vec<_>>(),
                "n = {n}"
            );
        }
    }
}
