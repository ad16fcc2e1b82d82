//! The [`Solver`] builder — the single entry point unifying the three
//! algorithms of Chapter 2.
//!
//! Before this module, every caller had to thread three values through every
//! call site (instance, cost oracle, candidate enumeration) and pick one of
//! three free functions. The builder owns that state once:
//!
//! ```
//! use sched_core::{AffineCost, Instance, Job, SlotRef, Solver};
//!
//! let inst = Instance::new(1, 4, vec![
//!     Job::unit(vec![SlotRef::new(0, 0)]),
//!     Job::unit(vec![SlotRef::new(0, 3)]),
//! ]);
//! let cost = AffineCost::new(10.0, 1.0);
//! let schedule = Solver::new(&inst, &cost).schedule_all().unwrap();
//! assert_eq!(schedule.total_cost, 14.0);
//! ```
//!
//! Candidate enumeration is performed lazily, at most once per solver: all
//! three goal methods ([`Solver::schedule_all`], [`Solver::prize_collecting`],
//! [`Solver::prize_collecting_exact`]) share the cached family, so sweeping a
//! parameter (a target value `Z`, an `ε` schedule) re-prices nothing. Callers
//! that build candidate intervals themselves — generators, experiments,
//! ablations — inject them with [`Solver::with_candidates`].
//!
//! Solvers are `Send` and cheap to [`Clone`]: enumerated families live in an
//! [`Arc`], so a worker pool can enumerate once and hand every worker its
//! own solver without copying interval data.

use std::borrow::Cow;
use std::cell::OnceCell;
use std::sync::Arc;

use crate::candidates::{enumerate_candidates, CandidateInterval, CandidatePolicy};
use crate::cost::EnergyCost;
use crate::model::{Instance, Schedule, ScheduleError};
use crate::objective::ScheduleReduction;
use crate::prize_collecting::{prize_collecting_exact_with, prize_collecting_with};
use crate::schedule_all::schedule_all_with;

/// Where the solver's candidate awake intervals come from.
#[derive(Clone, Copy)]
enum CandidateSource<'a> {
    /// Enumerate under a policy, pricing via the cost oracle (the default).
    Enumerate(&'a dyn EnergyCost, CandidatePolicy),
    /// A caller-supplied family, stored directly in the cache at
    /// construction time (no second copy lives here).
    Explicit,
}

/// A candidate family as held by the cache: borrowed from the caller, or
/// owned behind an [`Arc`] so clones of the solver (and external caches)
/// share one allocation.
#[derive(Clone)]
enum Family<'a> {
    Borrowed(&'a [CandidateInterval]),
    Shared(Arc<[CandidateInterval]>),
}

impl Family<'_> {
    fn as_slice(&self) -> &[CandidateInterval] {
        match self {
            Family::Borrowed(s) => s,
            Family::Shared(a) => a,
        }
    }
}

/// Builder-style front end over the Theorem 2.2.1 / 2.3.1 / 2.3.3 solvers.
///
/// Construct with [`Solver::new`] (cost oracle + default
/// [`CandidatePolicy::All`]) or [`Solver::with_candidates`] (explicit
/// family), refine with the chained configuration methods, then call one of
/// the goal methods. See the [module docs](self) for an end-to-end example.
pub struct Solver<'a> {
    instance: &'a Instance,
    source: CandidateSource<'a>,
    cache: OnceCell<Family<'a>>,
    /// Bipartite reduction over the cached family, built lazily on the first
    /// goal call and shared by every subsequent one (and by clones).
    reduction: OnceCell<Arc<ScheduleReduction>>,
}

impl Clone for Solver<'_> {
    /// Cheap: copies references, and shares (never copies) an
    /// already-enumerated candidate family via its `Arc` — likewise the
    /// already-built reduction.
    fn clone(&self) -> Self {
        Self {
            instance: self.instance,
            source: self.source,
            cache: self.cache.clone(),
            reduction: self.reduction.clone(),
        }
    }
}

impl<'a> Solver<'a> {
    /// Solver over `instance` with costs from `cost`, enumerating candidates
    /// under [`CandidatePolicy::All`] (override with [`Solver::policy`]).
    pub fn new(instance: &'a Instance, cost: &'a dyn EnergyCost) -> Self {
        Self {
            instance,
            source: CandidateSource::Enumerate(cost, CandidatePolicy::All),
            cache: OnceCell::new(),
            reduction: OnceCell::new(),
        }
    }

    /// Solver over `instance` using a pre-built candidate family (already
    /// priced); no cost oracle is consulted. Accepts a borrowed slice or an
    /// owned `Vec` — generators that keep their family alive can lend it
    /// without copying.
    pub fn with_candidates(
        instance: &'a Instance,
        candidates: impl Into<Cow<'a, [CandidateInterval]>>,
    ) -> Self {
        let family = match candidates.into() {
            Cow::Borrowed(s) => Family::Borrowed(s),
            Cow::Owned(v) => Family::Shared(Arc::from(v)),
        };
        Self {
            instance,
            source: CandidateSource::Explicit,
            cache: OnceCell::from(family),
            reduction: OnceCell::new(),
        }
    }

    /// Sets the candidate enumeration policy.
    ///
    /// Resets the cached enumeration (and the reduction built over it); no
    /// effect on the interval family of a [`Solver::with_candidates`] solver.
    pub fn policy(mut self, policy: CandidatePolicy) -> Self {
        if let CandidateSource::Enumerate(cost, _) = self.source {
            self.source = CandidateSource::Enumerate(cost, policy);
            self.cache = OnceCell::new();
            self.reduction = OnceCell::new();
        }
        self
    }

    /// The candidate interval family this solver optimizes over (enumerated
    /// on first use, then cached for every subsequent solve).
    pub fn candidates(&self) -> &[CandidateInterval] {
        self.family().as_slice()
    }

    fn family(&self) -> &Family<'a> {
        self.cache.get_or_init(|| match &self.source {
            CandidateSource::Enumerate(cost, policy) => Family::Shared(Arc::from(
                enumerate_candidates(self.instance, *cost, *policy),
            )),
            // the cell is seeded at construction, so get_or_init never
            // reaches this arm for explicit families
            CandidateSource::Explicit => unreachable!("explicit cache seeded at construction"),
        })
    }

    /// The instance being solved.
    pub fn instance(&self) -> &Instance {
        self.instance
    }

    /// The bipartite reduction over the cached candidate family, built on
    /// first use and shared by every goal method (and by clones): sweeping a
    /// target or an `ε` schedule re-reduces nothing.
    ///
    /// The greedy indexes its window subsets, not the family: an index in a
    /// decision log (`submodular.greedy.pick`'s `chosen` and `runner_up`)
    /// maps back to its candidate interval through
    /// [`ScheduleReduction::candidate_of`].
    pub fn reduction(&self) -> &ScheduleReduction {
        self.reduction
            .get_or_init(|| Arc::new(ScheduleReduction::build(self.instance, self.candidates())))
    }

    /// Theorem 2.2.1: schedules **every** job at cost within `O(log n)` of
    /// the cheapest all-jobs schedule.
    pub fn schedule_all(&self) -> Result<Schedule, ScheduleError> {
        // Opened before `reduction()` so a first solve's lazy reduction
        // build nests inside the solve span on the trace timeline.
        let _span = sched_obs::span!("core.solve.schedule_all_ns");
        schedule_all_with(self.instance, self.reduction())
    }

    /// Theorem 2.3.1: schedules value `≥ (1−epsilon)·target` at cost within
    /// `O(log 1/epsilon)` of any schedule achieving `target`.
    pub fn prize_collecting(&self, target: f64, epsilon: f64) -> Result<Schedule, ScheduleError> {
        prize_collecting_with(self.instance, self.reduction(), target, epsilon)
    }

    /// Theorem 2.3.3: schedules value `≥ target` exactly, at cost
    /// `O((log n + log Δ)·B)` where `Δ` is the job-value spread.
    pub fn prize_collecting_exact(&self, target: f64) -> Result<Schedule, ScheduleError> {
        prize_collecting_exact_with(self.instance, self.reduction(), target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::AffineCost;
    use crate::model::{validate_schedule, Job, SlotRef, SolveOptions};
    use crate::schedule_all::schedule_all;

    fn inst() -> Instance {
        Instance::new(
            1,
            4,
            vec![
                Job::unit(vec![SlotRef::new(0, 0)]),
                Job::unit(vec![SlotRef::new(0, 3)]),
            ],
        )
    }

    #[test]
    fn matches_free_functions() {
        let inst = inst();
        let cost = AffineCost::new(10.0, 1.0);
        let solver = Solver::new(&inst, &cost);
        let via_builder = solver.schedule_all().unwrap();

        let cands = enumerate_candidates(&inst, &cost, CandidatePolicy::All);
        let via_free = schedule_all(&inst, &cands, &SolveOptions::default()).unwrap();
        assert_eq!(via_builder.total_cost, via_free.total_cost);
        assert_eq!(via_builder.awake.len(), via_free.awake.len());
    }

    #[test]
    fn candidates_cached_and_shared_across_goals() {
        let inst = Instance::new(
            1,
            4,
            vec![Job::window(2.0, 0, 0, 2), Job::window(3.0, 0, 2, 4)],
        );
        let cost = AffineCost::new(1.0, 1.0);
        let solver = Solver::new(&inst, &cost);
        let first = solver.candidates().as_ptr();
        let all = solver.schedule_all().unwrap();
        let pc = solver.prize_collecting(3.0, 0.25).unwrap();
        let pce = solver.prize_collecting_exact(5.0).unwrap();
        // same cached allocation used throughout
        assert_eq!(first, solver.candidates().as_ptr());
        assert!(validate_schedule(&inst, &all).is_empty());
        assert!(validate_schedule(&inst, &pc).is_empty());
        assert!(validate_schedule(&inst, &pce).is_empty());
        assert!(pc.scheduled_value >= 0.75 * 3.0 - 1e-9);
        assert!(pce.scheduled_value >= 5.0 - 1e-9);
    }

    #[test]
    fn policy_restricts_candidates() {
        let inst = inst();
        let cost = AffineCost::new(0.5, 1.0);
        let solver = Solver::new(&inst, &cost).policy(CandidatePolicy::SingleSlots);
        assert!(solver.candidates().iter().all(|iv| iv.len() == 1));
        let s = solver.schedule_all().unwrap();
        assert_eq!(s.awake.len(), 2);
        assert_eq!(s.total_cost, 3.0);
    }

    #[test]
    fn explicit_candidates_used_verbatim() {
        let inst = Instance::new(1, 3, vec![Job::window(5.0, 0, 0, 1)]);
        // family that cannot host the job
        let solver = Solver::with_candidates(
            &inst,
            vec![CandidateInterval {
                proc: 0,
                start: 1,
                end: 3,
                cost: 2.0,
            }],
        );
        assert!(matches!(
            solver.schedule_all(),
            Err(ScheduleError::Infeasible { .. })
        ));
        // policy() must not clobber an explicit family
        let solver = solver.policy(CandidatePolicy::All);
        assert_eq!(solver.candidates().len(), 1);
    }

    #[test]
    fn clone_shares_enumerated_family_and_is_send() {
        fn assert_send<T: Send>(_: &T) {}
        let inst = inst();
        let cost = AffineCost::new(10.0, 1.0);
        let solver = Solver::new(&inst, &cost);
        assert_send(&solver);
        let family = solver.candidates().as_ptr();
        let clone = solver.clone();
        // the clone reuses the same allocation, not a re-enumeration
        assert_eq!(family, clone.candidates().as_ptr());
        assert_eq!(
            solver.schedule_all().unwrap().total_cost,
            clone.schedule_all().unwrap().total_cost
        );
    }
}
