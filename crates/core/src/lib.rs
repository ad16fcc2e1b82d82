//! Power-minimizing multiprocessor multi-interval scheduling via submodular
//! maximization — the primary contribution of Zadimoghaddam (2010), Chapter 2.
//!
//! # Problem (Definition 2 of the paper)
//!
//! There are `p` processors and `n` unit-time jobs over discrete time slots
//! `0..T`. Every processor can be kept awake during any interval `[s, e)` at
//! an *arbitrary* energy cost given by an [`cost::EnergyCost`] oracle — costs
//! may differ per processor, vary over time (energy markets), grow
//! super-linearly with interval length (cooling), or be infinite
//! (unavailability). Each job specifies the set of (processor, time-slot)
//! pairs where it may execute (*multi-interval*, per-processor). A schedule
//! picks awake intervals and assigns each job to an awake, allowed slot, no
//! two jobs sharing a slot. Goal: minimize total awake-interval cost.
//!
//! # Algorithms
//!
//! * [`schedule_all::schedule_all`] — Theorem 2.2.1: if a schedule of cost
//!   `B` schedules all jobs, returns one of cost `O(B log n)`. The reduction
//!   builds the slot–job bipartite graph, uses the cardinality matching rank
//!   (monotone submodular by Lemma 2.2.2) as the utility, and runs the
//!   Lemma 2.1.2 budgeted greedy with `x = n`, `ε = 1/(n+1)`.
//! * [`prize_collecting::prize_collecting`] — Theorem 2.3.1: schedules value
//!   `≥ (1−ε)Z` at cost `O(B log 1/ε)` against any adversary scheduling value
//!   `≥ Z` at cost `B`, via the weighted matching rank (Lemma 2.3.2).
//! * [`prize_collecting::prize_collecting_exact`] — Theorem 2.3.3: value
//!   `≥ Z` exactly, cost `O((log n + log Δ)·B)` where `Δ = v_max / v_min`.
//!
//! Both algorithms report infeasibility (relative to the supplied candidate
//! intervals) with a Hall-violator certificate naming jobs that provably
//! cannot all be scheduled.
//!
//! # Entry point
//!
//! Applications should use a [`Solver`]: created once per solve stream
//! under a candidate policy, handed the instance and an inclusion-monotone
//! cost oracle on every call, with all three algorithms as goal methods. It
//! owns the reduction between calls, so consecutive solves on one grid
//! rebuild it in place, and it builds from the slot windows, enumerating no
//! family:
//!
//! ```
//! use sched_core::{AffineCost, CandidatePolicy, Instance, Job, SlotRef, Solver};
//!
//! let inst = Instance::new(1, 4, vec![Job::unit(vec![SlotRef::new(0, 1)])]);
//! let cost = AffineCost::new(2.0, 1.0);
//! let schedule = Solver::new(CandidatePolicy::All).schedule_all(&inst, &cost).unwrap();
//! assert_eq!(schedule.scheduled_count, 1);
//! ```
//!
//! The free functions [`schedule_all()`](schedule_all::schedule_all) and
//! [`prize_collecting()`](prize_collecting::prize_collecting) /
//! [`prize_collecting_exact()`](prize_collecting::prize_collecting_exact)
//! serve explicit candidate families: a price that is not
//! inclusion-monotone ([`TableCost`], a caller's oracle) enumerated with
//! [`enumerate_candidates`], and the compiled DVFS family
//! ([`solve_dvfs`]).
//!
//! # Crate layout
//!
//! * [`model`] — instances, jobs, schedules, and schedule validation;
//! * [`cost`] — the energy-cost oracle and a library of cost models (flat
//!   arena-backed prefix tables with O(1) interval queries);
//! * [`profile`] — per-processor power profiles: heterogeneous wake costs,
//!   busy rates, and multi-level sleep-state ladders with the break-even
//!   sleep-depth rule ([`ProfileCost`] is the heterogeneous oracle);
//! * [`dvfs`] — speed scaling: work-requirement jobs on a discrete
//!   frequency ladder, compiled onto the classical machinery via a
//!   lane-expanded virtual grid;
//! * [`candidates`] — awake-interval candidate generation policies;
//! * [`objective`] — the matching-rank [`submodular::BudgetedObjective`]
//!   adapter driving the greedy (flat CSR slot lists, nested-prefix run
//!   scans, component-memoized gains);
//! * [`naive`] — the retained pre-overhaul solve path, kept as the
//!   bit-identical reference for the equivalence proptests and the perf
//!   harness;
//! * [`solver`] — the [`Solver`] owning the window-built reduction across
//!   calls: cold or warm, reuse or re-solve;
//! * [`trace`] — timed arrival traces (release times) for the online replay
//!   harness in the `sched-sim` crate;
//! * [`mod@schedule_all`], [`mod@prize_collecting`] — the two headline
//!   algorithms.

pub mod candidates;
pub mod cost;
pub mod dvfs;
pub mod model;
pub mod naive;
pub mod objective;
pub mod prize_collecting;
pub mod profile;
pub mod schedule_all;
pub mod simulate;
pub mod solver;
pub mod trace;

pub use candidates::{
    count_candidates, enumerate_candidates, interval_count, CandidateInterval, CandidatePolicy,
};
pub use cost::{AffineCost, ConvexCost, EnergyCost, TableCost, TimeVaryingCost, UnavailableSlots};
pub use dvfs::{
    solve_dvfs, solve_dvfs_counted, solve_dvfs_naive, validate_dvfs_schedule, CompiledDvfs,
    DvfsError, DvfsInstance, DvfsInterval, DvfsQuantum, DvfsSchedule, DvfsSolveError,
    DvfsViolation,
};
pub use model::{Instance, InstanceError, Job, Schedule, ScheduleError, SlotRef, SolveOptions};
pub use objective::{ScheduleObjective, ScheduleReduction};
pub use prize_collecting::{
    is_valid_target, prize_collecting, prize_collecting_exact, prize_collecting_exact_with,
    prize_collecting_with,
};
pub use profile::{
    fleet_or_default, validate_profiles, FreqLadder, FreqLadderError, FreqLevel, PowerProfile,
    ProfileCost, ProfileError, SleepChoice, SleepState, MAX_FREQ, MAX_FREQ_LEVELS,
};
pub use schedule_all::{schedule_all, schedule_all_with};
pub use simulate::{profile_energy, simulate, PowerTrace, ProfileEnergy, SlotState};
pub use solver::{Solver, WarmStats};
pub use trace::{ArrivalTrace, TimedJob, TraceError};
