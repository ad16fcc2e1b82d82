//! # power-scheduling
//!
//! A faithful, production-grade Rust implementation of
//! **"Scheduling to Minimize Power Consumption using Submodular Functions"**
//! (Morteza Zadimoghaddam, MIT, 2010 — the full version of the SPAA 2010
//! paper), including every substrate the paper builds on.
//!
//! ## What's inside
//!
//! * [`scheduling`] — the headline algorithms: `O(log n)` schedule-all
//!   (Thm 2.2.1) and the prize-collecting variants (Thms 2.3.1, 2.3.3) over
//!   arbitrary per-(processor, interval) energy costs and multi-interval
//!   jobs;
//! * [`submodular`] — submodular maximization with budget constraints
//!   (Lemma 2.1.2 bicriteria greedy, lazy from upper bounds), set functions,
//!   Set Cover;
//! * [`matching`] — bipartite matching substrate: Hopcroft–Karp and the
//!   incremental matching-rank oracles (Lemmas 2.2.2, 2.3.2);
//! * [`matroids`] — uniform / partition / graphic / transversal / laminar
//!   matroid oracles;
//! * [`secretary`] — the Chapter 3 online algorithms: submodular secretary
//!   (monotone and non-monotone), matroid-constrained, knapsack-constrained,
//!   subadditive (with the hardness construction), and bottleneck rules;
//! * [`baselines`] — exact branch-and-bound optimum and comparison
//!   heuristics;
//! * [`workloads`] — planted-OPT instances, Set-Cover-hard reductions,
//!   energy-market curves, secretary streams.
//!
//! ## Quickstart
//!
//! A [`Solver`](scheduling::Solver) is the entry point: created under a
//! candidate policy and handed the instance and the cost oracle on each
//! call, it exposes every algorithm of Chapter 2 as a goal method and keeps
//! its reduction from one call to the next.
//!
//! ```
//! use power_scheduling::prelude::*;
//!
//! // Two jobs on one processor: one must run at t=0, one at t=3.
//! let inst = Instance::new(1, 4, vec![
//!     Job::unit(vec![SlotRef::new(0, 0)]),
//!     Job::unit(vec![SlotRef::new(0, 3)]),
//! ]);
//! // Classical cost model: waking the processor costs 10, each awake slot 1.
//! let cost = AffineCost::new(10.0, 1.0);
//! let schedule = Solver::new(CandidatePolicy::All)
//!     .schedule_all(&inst, &cost)
//!     .unwrap();
//! // Expensive restarts ⇒ the algorithm keeps the processor awake through
//! // the gap: one interval [0,4) at cost 14 instead of two restarts at 22.
//! assert_eq!(schedule.awake.len(), 1);
//! assert_eq!(schedule.total_cost, 14.0);
//! ```

/// The scheduling core (re-export of the `sched-core` crate).
pub mod scheduling {
    pub use sched_core::*;
}

/// The batch-solving engine and JSONL wire protocol (re-export of the
/// `sched-engine` crate): worker-pool [`Engine`](engine::Engine),
/// [`SolveRequest`](engine::SolveRequest)/[`SolveResponse`](engine::SolveResponse),
/// and the TCP [`serve`](engine::serve) loop behind `power-sched batch` /
/// `power-sched serve`.
pub mod engine {
    pub use sched_engine::*;
}

/// The discrete-event online scheduling simulator (re-export of the
/// `sched-sim` crate): the [`Policy`](sim::Policy) trait, the
/// [`GreedyWake`](sim::GreedyWake) / [`ThresholdHiring`](sim::ThresholdHiring) /
/// [`PeriodicResolve`](sim::PeriodicResolve) policies, the causality-enforcing
/// replay loop, and the competitive-ratio harness behind `power-sched
/// replay`.
pub mod sim {
    pub use sched_sim::*;
}

/// Telemetry: the lock-cheap metrics registry and `obs/v1` snapshot format
/// shared by the solver, the engine, and the simulator (re-export of the
/// `sched-obs` crate). `--metrics-out` files and the engine's `metrics`
/// control verb both carry [`Snapshot`](obs::Snapshot) JSON.
pub mod obs {
    pub use sched_obs::*;
}

/// Submodular functions and budgeted maximization (re-export).
pub mod submodular {
    pub use ::submodular::*;
}

/// Bipartite matching substrate (re-export of `bmatch`).
pub mod matching {
    pub use bmatch::*;
}

/// Matroid oracles (re-export of `matroid`).
pub mod matroids {
    pub use matroid::*;
}

/// Online secretary algorithms (re-export).
pub mod secretary {
    pub use ::secretary::*;
}

/// Baselines and exact solvers (re-export).
pub mod baselines {
    pub use ::baselines::*;
}

/// Instance generators (re-export).
pub mod workloads {
    pub use ::workloads::*;
}

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::engine::{
        Engine, EngineConfig, SolveMode, SolveRequest, SolveResponse, PROTOCOL_VERSION,
    };
    pub use crate::scheduling::{
        enumerate_candidates, prize_collecting, prize_collecting_exact, profile_energy,
        schedule_all, solve_dvfs, validate_dvfs_schedule, validate_profiles, AffineCost,
        ArrivalTrace, CandidateInterval, CandidatePolicy, ConvexCost, DvfsInstance, DvfsSchedule,
        EnergyCost, FreqLadder, Instance, Job, PowerProfile, ProfileCost, Schedule, ScheduleError,
        SleepChoice, SleepState, SlotRef, SolveOptions, Solver, TimeVaryingCost, TimedJob,
        WarmStats,
    };
    pub use crate::sim::{
        replay_fleet, replay_with_report, FleetOptions, OfflineRef, Policy, PolicyKind,
        ReplayReport,
    };
    pub use crate::submodular::{budgeted_greedy, BitSet, GreedyConfig, SetFn};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_compiles_and_solves() {
        let inst = Instance::new(1, 2, vec![Job::unit(vec![SlotRef::new(0, 0)])]);
        let cost = AffineCost::new(1.0, 1.0);
        let s = Solver::new(CandidatePolicy::All)
            .schedule_all(&inst, &cost)
            .unwrap();
        assert_eq!(s.scheduled_count, 1);

        // The free-function path stays available and agrees with the solver.
        let cands = enumerate_candidates(&inst, &cost, CandidatePolicy::All);
        let free = schedule_all(&inst, &cands, &SolveOptions::default()).unwrap();
        assert_eq!(free.total_cost, s.total_cost);
    }

    #[test]
    fn quickstart_numbers_hold() {
        // The exact scenario from the crate docs: one interval [0,4), cost 14.
        let inst = Instance::new(
            1,
            4,
            vec![
                Job::unit(vec![SlotRef::new(0, 0)]),
                Job::unit(vec![SlotRef::new(0, 3)]),
            ],
        );
        let cost = AffineCost::new(10.0, 1.0);
        let schedule = Solver::new(CandidatePolicy::All)
            .schedule_all(&inst, &cost)
            .unwrap();
        assert_eq!(schedule.awake.len(), 1);
        assert_eq!(schedule.total_cost, 14.0);
        assert_eq!((schedule.awake[0].start, schedule.awake[0].end), (0, 4));
    }
}
