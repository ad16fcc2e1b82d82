//! Baselines and exact solvers for the scheduling experiments.
//!
//! The paper proves `O(log n)`-approximation; measuring the *actual* ratio
//! requires the true optimum. Prior work's exact algorithms (Baptiste 2006's
//! DP and its multiprocessor extension) cover only the one-interval
//! `α + length` special case and are cited, not contributed; for ratio
//! measurement any exact solver works, so we substitute a pruned
//! branch-and-bound over candidate intervals ([`exact`]) for them.
//!
//! [`heuristics`] adds the comparison strawmen the experiments report
//! alongside the greedy: keep-everything-awake, conflict-blind per-job set
//! cover, and the classical EDF + gap-merge rule for the one-interval
//! single-processor case.

pub mod exact;
pub mod gap_budget;
pub mod heuristics;

pub use exact::{exact_prize_collecting, exact_schedule_all, ExactResult};
pub use gap_budget::{
    max_value_with_budget, min_runs_schedule_all, value_of_awake_set, GapBudgetResult,
};
pub use heuristics::{always_on_cost, cover_each_job_greedy, edf_gap_merge};
