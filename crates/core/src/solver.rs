//! [`Solver`] — the one owner of the slot–job reduction behind the three
//! algorithms of Chapter 2, cold or warm.
//!
//! A solver is created once per solve stream (a CLI solve, a simulator
//! policy, an engine worker's cache entry) under a candidate policy, and is
//! handed the instance and the cost oracle on every call. Each goal method
//! brings the cached [`ScheduleReduction`] up to date with that instance,
//! then runs its greedy over it; a cold solve is a warm solve from empty
//! state:
//!
//! ```
//! use sched_core::{AffineCost, CandidatePolicy, Instance, Job, SlotRef, Solver};
//!
//! let inst = Instance::new(1, 4, vec![
//!     Job::unit(vec![SlotRef::new(0, 0)]),
//!     Job::unit(vec![SlotRef::new(0, 3)]),
//! ]);
//! let cost = AffineCost::new(10.0, 1.0);
//! let mut solver = Solver::new(CandidatePolicy::All);
//! let schedule = solver.schedule_all(&inst, &cost).unwrap();
//! assert_eq!(schedule.total_cost, 14.0);
//! ```
//!
//! Callers with an explicit candidate family (generators, experiments, the
//! DVFS compiler) call the free functions ([`crate::schedule_all()`],
//! [`crate::prize_collecting()`], [`crate::prize_collecting_exact()`])
//! instead.
//!
//! # How a call updates the reduction
//!
//! * **Window path.** Under an
//!   [`inclusion_monotone`](EnergyCost::inclusion_monotone) cost,
//!   [`ScheduleReduction::apply_delta_windows`] prices each slot window's
//!   tightest interval through the live oracle, in
//!   `O(Σₚ kₚ² + slots + edges)` for `kₚ` job-adjacent slots on processor
//!   `p` instead of `O(p·T²)`. No family is enumerated or kept, so a
//!   changed price is read by the next rebuild.
//! * **Identical instance** (window path only). When the instance equals
//!   the previous call's, the graph, slot arena and components already
//!   belong to it: the windows are only re-priced (`core.warm.repriced`).
//! * **Family path.** Any other cost enumerates the candidate family once
//!   and rebuilds with [`ScheduleReduction::apply_delta`]. Each call folds
//!   the grid dimensions, the family size and the live prices of ~16
//!   sampled candidates into a checksum, and re-enumerates when it differs
//!   from the one recorded at enumeration
//!   (`core.warm.checksum_divergence`). Drift confined to unsampled
//!   intervals goes unseen, which is why monotone costs take the window
//!   path.
//!
//! The previous result is returned without a greedy run only when the
//! instance, the prices and the goal (with its target and `ε`) all equal
//! the previous call's. Prices match when the re-priced subset columns
//! (runs, run bases, window lengths, spans and cost bits) equal a copy kept
//! from the previous call (window path), or when the checksum vouches for
//! the family (family path). Otherwise the goal runs on the reduction,
//! which is current by then. Each call emits one `core.warm.decision`
//! event naming its path and the reason.
//!
//! Every goal runs the greedy a cold solve runs (first keys from upper
//! bounds, no full gain scan), so every result is bit-identical to the free
//! function over the enumerated family by construction: the window build
//! reproduces the family build field for field, and `apply_delta` and
//! `build` run the same rebuild. A call that builds the reduction from
//! scratch counts in [`WarmStats::cold`]: the first call on a grid, a
//! resized grid, a switch between the window and family paths, or a
//! re-enumerated family.

use std::sync::Arc;

use crate::candidates::{enumerate_candidates, CandidateInterval, CandidatePolicy};
use crate::cost::EnergyCost;
use crate::model::{Instance, Job, Schedule, ScheduleError};
use crate::objective::{ScheduleReduction, SubsetColumns};
use crate::prize_collecting::{prize_collecting_exact_with, prize_collecting_with};
use crate::schedule_all::schedule_all_with;

/// Warm/cold call counters kept by a [`Solver`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WarmStats {
    /// Calls that rebuilt the reduction in place, ran on it as it was, or
    /// returned the previous result.
    pub warm: u64,
    /// Calls that built the reduction from scratch: the first call on a
    /// grid, a resized grid, a switch between the window and family paths,
    /// or a family re-enumerated after a checksum divergence.
    pub cold: u64,
}

/// A goal and its parameters. Equal goals on an equal reduction give
/// equal results (the solvers are deterministic).
#[derive(Clone, Copy, Debug, PartialEq)]
enum Goal {
    All,
    Prize { target: f64, epsilon: f64 },
    PrizeExact { target: f64 },
}

/// The previous call on this grid, for the identical-instance path.
struct PrevSolve {
    /// The instance that was solved (owned; compared against the next one).
    instance: Instance,
    /// The goal that was run.
    goal: Goal,
    /// The window path's subset columns, compared with a re-priced
    /// rebuild of the same instance; not read on the family path, whose
    /// checksum vouches for the family.
    columns: SubsetColumns,
    /// The result, returned verbatim when the next call would repeat it.
    result: Result<Schedule, ScheduleError>,
}

/// How a cached reduction was built.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Built {
    /// From the slot windows, under an inclusion-monotone cost.
    Windows,
    /// From the cached family of this enumeration epoch.
    Family(u64),
}

/// An enumerated candidate family and its checksum.
struct CachedFamily {
    /// Structural checksum recorded at enumeration; see [`family_checksum`].
    checksum: u64,
    candidates: Arc<[CandidateInterval]>,
}

/// Per-grid cached state.
struct GridState {
    num_processors: u32,
    horizon: u32,
    /// The family, enumerated only for a family-path call or a
    /// [`Solver::family`] call.
    family: Option<CachedFamily>,
    /// Enumerations of `family` so far, so a family-built reduction can
    /// tell it was built from an older one.
    family_epoch: u64,
    /// The last call's reduction and how it was built.
    reduction: Option<(Built, ScheduleReduction)>,
    prev: Option<PrevSolve>,
}

impl GridState {
    /// Ensures the cached family matches `cost`'s pricing, enumerating (or
    /// re-enumerating after a checksum divergence) if needed.
    fn ensure_family(&mut self, inst: &Instance, cost: &dyn EnergyCost, policy: CandidatePolicy) {
        if let Some(f) = &self.family {
            let live = family_checksum(inst.num_processors, inst.horizon, &f.candidates, |c| {
                cost.cost(c.proc, c.start, c.end).to_bits()
            });
            if live == f.checksum {
                return;
            }
            // Worth surfacing: a noisy cost oracle can silently turn every
            // family-path call cold.
            sched_obs::counter_add("core.warm.checksum_divergence", 1);
        }
        let candidates: Arc<[CandidateInterval]> = enumerate_candidates(inst, cost, policy).into();
        let checksum = family_checksum(inst.num_processors, inst.horizon, &candidates, |c| {
            c.cost.to_bits()
        });
        self.family = Some(CachedFamily {
            checksum,
            candidates,
        });
        self.family_epoch += 1;
    }

    fn candidates(&self) -> &Arc<[CandidateInterval]> {
        &self.family.as_ref().expect("family ensured").candidates
    }
}

/// The solve owner for the three goals of Chapter 2: keeps the reduction
/// (and, on the family path, the candidate family) of the last call alive
/// for the next. See the [module docs](self).
pub struct Solver {
    policy: CandidatePolicy,
    grid: Option<GridState>,
    stats: WarmStats,
}

impl Solver {
    /// New solver enumerating candidates (or slot windows) under `policy`.
    pub fn new(policy: CandidatePolicy) -> Self {
        Self {
            policy,
            grid: None,
            stats: WarmStats::default(),
        }
    }

    /// Warm/cold counters accumulated so far.
    pub fn stats(&self) -> WarmStats {
        self.stats
    }

    /// Structural checksum of the cached family, if one is cached (for
    /// diagnostics).
    pub fn checksum(&self) -> Option<u64> {
        self.grid.as_ref()?.family.as_ref().map(|f| f.checksum)
    }

    /// Drops every cached artifact; the next call is cold.
    pub fn reset(&mut self) {
        self.grid = None;
    }

    /// The candidate family for `inst`'s grid under `cost`, enumerating (or
    /// re-enumerating after a checksum divergence) if needed. Builds no
    /// reduction; a window-path call never reads the family.
    pub fn family(&mut self, inst: &Instance, cost: &dyn EnergyCost) -> Arc<[CandidateInterval]> {
        let grid = grid_for(&mut self.grid, inst);
        grid.ensure_family(inst, cost, self.policy);
        Arc::clone(grid.candidates())
    }

    /// The reduction the last call ran on, if any.
    ///
    /// The greedy indexes its window subsets, not a family: an index in a
    /// decision log (`submodular.greedy.pick`'s `chosen` and `runner_up`)
    /// names its interval through [`ScheduleReduction::interval_of`].
    pub fn reduction(&self) -> Option<&ScheduleReduction> {
        let (_, red) = self.grid.as_ref()?.reduction.as_ref()?;
        Some(red)
    }

    /// Theorem 2.2.1: schedules **every** job of `inst` at cost within
    /// `O(log n)` of the cheapest all-jobs schedule. Bit-identical to
    /// [`crate::schedule_all()`] over
    /// `enumerate_candidates(inst, cost, policy)`.
    pub fn schedule_all(
        &mut self,
        inst: &Instance,
        cost: &dyn EnergyCost,
    ) -> Result<Schedule, ScheduleError> {
        self.solve(inst, cost, Goal::All)
    }

    /// Theorem 2.3.1: schedules value `≥ (1−epsilon)·target` at cost within
    /// `O(log 1/epsilon)` of any schedule achieving `target`.
    pub fn prize_collecting(
        &mut self,
        inst: &Instance,
        cost: &dyn EnergyCost,
        target: f64,
        epsilon: f64,
    ) -> Result<Schedule, ScheduleError> {
        self.solve(inst, cost, Goal::Prize { target, epsilon })
    }

    /// Theorem 2.3.3: schedules value `≥ target` exactly, at cost
    /// `O((log n + log Δ)·B)` where `Δ` is the job-value spread.
    pub fn prize_collecting_exact(
        &mut self,
        inst: &Instance,
        cost: &dyn EnergyCost,
        target: f64,
    ) -> Result<Schedule, ScheduleError> {
        self.solve(inst, cost, Goal::PrizeExact { target })
    }

    /// Brings the cached reduction up to date with `inst` under `cost`,
    /// then runs `goal` on it, or returns the previous result when nothing
    /// it depends on changed.
    fn solve(
        &mut self,
        inst: &Instance,
        cost: &dyn EnergyCost,
        goal: Goal,
    ) -> Result<Schedule, ScheduleError> {
        let _span = sched_obs::span!("core.warm.solve_ns");
        let policy = self.policy;
        let grid = grid_for(&mut self.grid, inst);
        let built = if cost.inclusion_monotone() {
            Built::Windows
        } else {
            grid.ensure_family(inst, cost, policy);
            Built::Family(grid.family_epoch)
        };

        // One decision event per call: which of the warm/cold paths it took
        // and why, so a trace can narrate the solver's behavior next to the
        // greedy's pick log.
        let decision = |path: &'static str, reason: &'static str| {
            if sched_obs::trace::enabled() {
                sched_obs::trace::instant(
                    "core.warm.decision",
                    vec![("path", path.into()), ("reason", reason.into())],
                );
            }
        };

        let cold = match grid.reduction.as_ref().map(|(b, _)| *b) {
            None => Some("new-grid"),
            Some(b) if b == built => None,
            Some(Built::Family(_)) if built != Built::Windows => Some("family-rebuilt"),
            Some(_) => Some("path-switch"),
        };
        if let Some(reason) = cold {
            self.stats.cold += 1;
            sched_obs::counter_add("core.warm.solves.cold", 1);
            decision("cold", reason);
            let red = match built {
                Built::Windows => ScheduleReduction::build_windows(inst, cost, policy),
                Built::Family(_) => ScheduleReduction::build(inst, grid.candidates()),
            };
            grid.reduction = Some((built, red));
        } else {
            self.stats.warm += 1;
            sched_obs::counter_add("core.warm.solves.warm", 1);
            let prev = grid.prev.as_ref().filter(|p| p.instance == *inst);
            let (_, red) = grid.reduction.as_mut().expect("matched above");
            let same_prices = match (built, prev) {
                // the checksum vouches for the family, so the instance
                // decides before any rebuild
                (Built::Family(_), Some(_)) => true,
                (Built::Family(_), None) => {
                    red.apply_delta(inst, &grid.family.as_ref().expect("ensured").candidates);
                    false
                }
                // the job side is already this instance's: re-price only
                (Built::Windows, Some(p)) => {
                    red.reprice_windows(inst, cost, policy);
                    sched_obs::counter_add("core.warm.repriced", 1);
                    p.columns.matches(red)
                }
                (Built::Windows, None) => {
                    red.apply_delta_windows(inst, cost, policy);
                    false
                }
            };
            match prev {
                Some(p) if same_prices && p.goal == goal => {
                    decision("cached", "identical-instance");
                    return p.result.clone();
                }
                Some(_) if same_prices => decision("warm", "new-goal"),
                Some(_) => decision("warm", "repriced"),
                None => decision("warm", "delta"),
            }
        }
        let (_, red) = grid.reduction.as_ref().expect("built above");
        let result = match goal {
            Goal::All => {
                let _span = sched_obs::span!("core.solve.schedule_all_ns");
                schedule_all_with(inst, red)
            }
            Goal::Prize { target, epsilon } => prize_collecting_with(inst, red, target, epsilon),
            Goal::PrizeExact { target } => prize_collecting_exact_with(inst, red, target),
        };
        // the previous call's buffers are overwritten in place
        let prev = match &mut grid.prev {
            Some(prev) => {
                copy_instance(&mut prev.instance, inst);
                prev.goal = goal;
                prev.result = result.clone();
                prev
            }
            none => none.insert(PrevSolve {
                instance: inst.clone(),
                goal,
                columns: SubsetColumns::default(),
                result: result.clone(),
            }),
        };
        if built == Built::Windows {
            prev.columns.record(red);
        }
        result
    }
}

/// The cached state for `inst`'s grid, started afresh when there is none
/// or the grid was resized.
fn grid_for<'g>(grid: &'g mut Option<GridState>, inst: &Instance) -> &'g mut GridState {
    let fits = grid
        .as_ref()
        .is_some_and(|g| g.num_processors == inst.num_processors && g.horizon == inst.horizon);
    if !fits {
        *grid = Some(GridState {
            num_processors: inst.num_processors,
            horizon: inst.horizon,
            family: None,
            family_epoch: 0,
            reduction: None,
            prev: None,
        });
    }
    grid.as_mut().expect("just ensured")
}

/// Overwrites `dst` with `src`, reusing `dst`'s job and slot buffers.
fn copy_instance(dst: &mut Instance, src: &Instance) {
    let Instance {
        num_processors,
        horizon,
        jobs,
    } = src;
    dst.num_processors = *num_processors;
    dst.horizon = *horizon;
    dst.jobs.truncate(jobs.len());
    for (d, s) in dst.jobs.iter_mut().zip(jobs) {
        let Job {
            value,
            allowed,
            work,
        } = s;
        d.value = *value;
        d.allowed.clone_from(allowed);
        d.work = *work;
    }
    let kept = dst.jobs.len();
    dst.jobs.extend_from_slice(&jobs[kept..]);
}

/// FNV-1a over grid dimensions, family size, and up to ~16 sampled candidate
/// costs priced through `price`. At enumeration time `price` reads the stored
/// cost; at check time it re-prices through the live cost oracle, so drift in
/// the cost model at a sampled interval (or a resized family) changes the sum.
fn family_checksum(
    num_processors: u32,
    horizon: u32,
    candidates: &[CandidateInterval],
    price: impl Fn(&CandidateInterval) -> u64,
) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(FNV_PRIME);
    };
    mix(num_processors as u64);
    mix(horizon as u64);
    mix(candidates.len() as u64);
    let m = candidates.len();
    if m > 0 {
        let stride = (m / 16).max(1);
        let mut i = 0;
        while i < m {
            mix(i as u64);
            mix(price(&candidates[i]));
            i += stride;
        }
        mix((m - 1) as u64);
        mix(price(&candidates[m - 1]));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::AffineCost;
    use crate::model::{SlotRef, SolveOptions};
    use crate::naive::naive_schedule_all;
    use crate::prize_collecting::{prize_collecting, prize_collecting_exact};
    use crate::schedule_all::schedule_all;

    fn cost() -> AffineCost {
        AffineCost::new(3.0, 1.0)
    }

    /// An oracle that prices like its inner one but does not declare
    /// itself inclusion-monotone, so a solver takes the family path.
    struct Opaque<C>(C);

    impl<C: EnergyCost> EnergyCost for Opaque<C> {
        fn cost(&self, proc: u32, start: u32, end: u32) -> f64 {
            self.0.cost(proc, start, end)
        }
    }

    fn inst(jobs: Vec<Job>) -> Instance {
        Instance::new(2, 12, jobs)
    }

    fn assert_same(a: &Result<Schedule, ScheduleError>, b: &Result<Schedule, ScheduleError>) {
        match (a, b) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.awake, y.awake);
                assert_eq!(x.assignments, y.assignments);
                assert_eq!(x.total_cost.to_bits(), y.total_cost.to_bits());
                assert_eq!(x.scheduled_value.to_bits(), y.scheduled_value.to_bits());
                assert_eq!(x.scheduled_count, y.scheduled_count);
            }
            (Err(x), Err(y)) => assert_eq!(x, y),
            _ => panic!("warm/cold disagree on feasibility: {a:?} vs {b:?}"),
        }
    }

    /// The free function over the enumerated family: what every call of a
    /// solver under `cost` must reproduce.
    fn cold_with(inst: &Instance, cost: &dyn EnergyCost) -> Result<Schedule, ScheduleError> {
        let cands = enumerate_candidates(inst, cost, CandidatePolicy::All);
        schedule_all(inst, &cands, &SolveOptions::default())
    }

    fn cold(inst: &Instance) -> Result<Schedule, ScheduleError> {
        cold_with(inst, &cost())
    }

    #[test]
    fn matches_free_functions() {
        let inst = Instance::new(
            1,
            4,
            vec![
                Job::unit(vec![SlotRef::new(0, 0)]),
                Job::unit(vec![SlotRef::new(0, 3)]),
            ],
        );
        let cost = AffineCost::new(10.0, 1.0);
        let via_solver = Solver::new(CandidatePolicy::All).schedule_all(&inst, &cost);
        assert_same(&via_solver, &cold_with(&inst, &cost));
        assert_eq!(via_solver.unwrap().total_cost, 14.0);
    }

    #[test]
    fn candidates_cached_and_shared_across_goals() {
        // Schedule-all, prize and exact, twice each on one instance: one
        // cold build serves all six calls, a repeated goal is answered from
        // the previous result only when the goal is the previous call's, and
        // every answer equals the free function over the enumerated family.
        use std::sync::Arc;
        let i = Instance::new(
            2,
            8,
            vec![
                Job::window(4.0, 1, 1, 5),
                Job::window(3.0, 0, 2, 6),
                Job::window(2.0, 0, 0, 3),
                Job::window(1.0, 1, 4, 8),
            ],
        );
        let (target, epsilon) = (6.0, 0.5);
        let monotone = cost();
        let opaque = Opaque(cost());
        for c in [&monotone as &dyn EnergyCost, &opaque] {
            let cands = enumerate_candidates(&i, c, CandidatePolicy::All);
            let opts = SolveOptions::default();
            let want = [
                schedule_all(&i, &cands, &opts),
                prize_collecting(&i, &cands, target, epsilon, &opts),
                prize_collecting_exact(&i, &cands, target, &opts),
            ];
            // distinct answers, so a goal served another goal's is caught
            let awake = |k: usize| want[k].as_ref().expect("feasible").awake.clone();
            assert!(awake(0) != awake(1) && awake(1) != awake(2) && awake(0) != awake(2));
            let mut s = Solver::new(CandidatePolicy::All);
            let registry = Arc::new(sched_obs::Registry::new());
            sched_obs::set_thread(Some(Arc::clone(&registry)));
            for _ in 0..2 {
                assert_same(&s.schedule_all(&i, c), &want[0]);
                assert_same(&s.prize_collecting(&i, c, target, epsilon), &want[1]);
                assert_same(&s.prize_collecting_exact(&i, c, target), &want[2]);
            }
            // a repeat of the last goal is the previous result
            assert_same(&s.prize_collecting_exact(&i, c, target), &want[2]);
            sched_obs::set_thread(None);
            assert_eq!(s.stats(), WarmStats { warm: 6, cold: 1 });
            let enumerated = registry.counter("core.enumerate.candidates").get();
            if c.inclusion_monotone() {
                assert_eq!(enumerated, 0, "the window path enumerates nothing");
            } else {
                // the family path enumerates once and shares the family
                assert_eq!(enumerated, cands.len() as u64);
                assert!(Arc::ptr_eq(&s.family(&i, c), &s.family(&i, c)));
            }
        }
    }

    #[test]
    fn policy_restricts_candidates() {
        let inst = Instance::new(
            1,
            4,
            vec![
                Job::unit(vec![SlotRef::new(0, 0)]),
                Job::unit(vec![SlotRef::new(0, 3)]),
            ],
        );
        let cost = AffineCost::new(0.5, 1.0);
        for c in [&cost as &dyn EnergyCost, &Opaque(cost)] {
            let mut s = Solver::new(CandidatePolicy::SingleSlots);
            assert!(s.family(&inst, c).iter().all(|iv| iv.len() == 1));
            let schedule = s.schedule_all(&inst, c).unwrap();
            assert_eq!(schedule.awake.len(), 2);
            assert_eq!(schedule.total_cost, 3.0);
            let red = s.reduction().expect("a reduction after a solve");
            assert!((0..red.num_subsets()).all(|k| red.interval_of(k).len() == 1));
        }
    }

    #[test]
    fn warm_matches_cold_over_job_churn() {
        let c = cost();
        let mut h = Solver::new(CandidatePolicy::All);
        // A rolling window of jobs: arrivals, expiries, and window shrinks.
        let steps: Vec<Vec<Job>> = vec![
            vec![Job::window(1.0, 0, 0, 4), Job::window(1.0, 1, 2, 6)],
            vec![
                Job::window(1.0, 0, 1, 4), // job 1 window shrank
                Job::window(1.0, 1, 2, 6),
                Job::window(1.0, 0, 6, 10), // arrival
            ],
            vec![
                Job::window(1.0, 1, 3, 6), // shrank again
                Job::window(1.0, 0, 6, 10),
                Job::window(1.0, 1, 8, 12), // arrival
            ],
            vec![Job::window(1.0, 1, 9, 12)],
        ];
        for jobs in steps {
            let i = inst(jobs);
            let warm = h.schedule_all(&i, &c);
            assert_same(&warm, &cold(&i));
            if let Ok(s) = &warm {
                let cands = enumerate_candidates(&i, &c, CandidatePolicy::All);
                let reference =
                    naive_schedule_all(&i, &cands, &SolveOptions::default()).expect("feasible");
                assert_eq!(s.awake, reference.awake);
            }
        }
        let stats = h.stats();
        assert_eq!(stats.cold, 1, "only the first solve is cold");
        assert_eq!(stats.warm, 3);
    }

    #[test]
    fn warm_delta_solves_run_no_full_scan() {
        // A warm re-solve rebuilds the reduction in place and runs the cold
        // lazy greedy from upper bounds: no solve scans every subset.
        use std::sync::Arc;
        let c = cost();
        let mut h = Solver::new(CandidatePolicy::All);
        let steps: [Vec<Job>; 3] = [
            vec![Job::window(1.0, 0, 0, 4), Job::window(1.0, 1, 2, 6)],
            vec![
                Job::window(1.0, 0, 1, 4),
                Job::window(1.0, 1, 2, 6),
                Job::window(1.0, 0, 6, 10),
            ],
            vec![Job::window(1.0, 1, 3, 6), Job::window(1.0, 0, 6, 10)],
        ];
        let registry = Arc::new(sched_obs::Registry::new());
        sched_obs::set_thread(Some(Arc::clone(&registry)));
        let results: Vec<_> = steps
            .iter()
            .map(|jobs| {
                let i = inst(jobs.clone());
                (h.schedule_all(&i, &c), i)
            })
            .collect();
        sched_obs::set_thread(None);
        for (warm, i) in &results {
            assert_same(warm, &cold(i));
        }
        assert_eq!(h.stats(), WarmStats { warm: 2, cold: 1 });
        let scans = registry.histogram("core.objective.scan_gains_ns").count();
        assert_eq!(scans, 0, "no full gain scan in any solve");
        let deltas = registry.histogram("core.reduction.apply_delta_ns").count();
        assert_eq!(deltas, 2, "each warm solve rebuilds the reduction in place");
    }

    #[test]
    fn identical_instance_is_served_from_cache() {
        let c = cost();
        let mut h = Solver::new(CandidatePolicy::All);
        let i = inst(vec![Job::window(1.0, 0, 0, 5), Job::window(1.0, 1, 1, 7)]);
        let first = h.schedule_all(&i, &c);
        let second = h.schedule_all(&i, &c);
        assert_same(&first, &second);
        assert_eq!(h.stats(), WarmStats { warm: 1, cold: 1 });
    }

    #[test]
    fn identical_instance_at_identical_prices_rebuilds_no_graph() {
        use std::sync::Arc;
        let c = cost();
        let mut h = Solver::new(CandidatePolicy::All);
        let i = inst(vec![Job::window(1.0, 0, 0, 5), Job::window(1.0, 1, 1, 7)]);
        let first = h.schedule_all(&i, &c);
        // A rebuilt graph is allocated while the old one is alive, so its
        // adjacency cannot sit at the old address.
        let graph_at = |h: &Solver| {
            let red = h.reduction().expect("a reduction after a solve");
            red.graph.adj_y(0).as_ptr()
        };
        let before = graph_at(&h);
        let registry = Arc::new(sched_obs::Registry::new());
        sched_obs::set_thread(Some(Arc::clone(&registry)));
        let second = h.schedule_all(&i, &c);
        sched_obs::set_thread(None);
        assert_same(&first, &second);
        assert_eq!(graph_at(&h), before, "the graph was not rebuilt");
        assert_eq!(registry.counter("core.warm.repriced").get(), 1);
        let solves = registry.histogram("core.solve.schedule_all_ns").count();
        assert_eq!(solves, 0, "the previous result, without a greedy run");
        assert_eq!(h.stats(), WarmStats { warm: 1, cold: 1 });
    }

    #[test]
    fn cost_model_change_forces_cold_rebuild() {
        // The family path: an oracle that does not declare itself
        // inclusion-monotone is priced through the cached family.
        let c = Opaque(cost());
        let mut h = Solver::new(CandidatePolicy::All);
        let i = inst(vec![Job::window(1.0, 0, 0, 5)]);
        let sum0 = {
            h.schedule_all(&i, &c).expect("feasible");
            h.checksum().expect("family cached")
        };
        // Same grid, different pricing: checksum must diverge and the solver
        // must fall back to a cold rebuild — with the correct new costs.
        let c2 = Opaque(AffineCost::new(5.0, 2.0));
        let i2 = inst(vec![Job::window(1.0, 0, 0, 5), Job::window(1.0, 1, 3, 8)]);
        let warm = h.schedule_all(&i2, &c2);
        assert_ne!(h.checksum().expect("family cached"), sum0);
        assert_same(&warm, &cold_with(&i2, &c2));
        assert_eq!(h.stats(), WarmStats { warm: 0, cold: 2 });
    }

    #[test]
    fn window_path_prices_a_changed_cost_model_warm() {
        // A monotone oracle takes the window path: no family is cached, and
        // a changed model is simply priced by the in-place rebuild.
        let mut h = Solver::new(CandidatePolicy::All);
        let i = inst(vec![Job::window(1.0, 0, 0, 5)]);
        h.schedule_all(&i, &cost()).expect("feasible");
        assert_eq!(h.checksum(), None, "the window path caches no family");
        let c2 = AffineCost::new(5.0, 2.0);
        let i2 = inst(vec![Job::window(1.0, 0, 0, 5), Job::window(1.0, 1, 3, 8)]);
        assert_same(&h.schedule_all(&i2, &c2), &cold_with(&i2, &c2));
        // the same instance under the first model again: the rebuilt
        // subsets' prices differ, so the previous result is not reused
        assert_same(&h.schedule_all(&i2, &cost()), &cold(&i2));
        assert_eq!(h.stats(), WarmStats { warm: 2, cold: 1 });
    }

    /// `AffineCost(3, 1)`, plus `surcharge` on every processor-0 interval
    /// of a 16-slot row that covers slot 15. Declares itself
    /// inclusion-monotone, as it is: a super-interval of a surcharged
    /// interval is surcharged too.
    struct LastSlotSurcharge {
        surcharge: f64,
    }

    impl EnergyCost for LastSlotSurcharge {
        fn cost(&self, proc: u32, start: u32, end: u32) -> f64 {
            let covers_15 = proc == 0 && start <= 15 && 15 < end;
            3.0 + (end - start) as f64 + if covers_15 { self.surcharge } else { 0.0 }
        }

        fn inclusion_monotone(&self) -> bool {
            true
        }
    }

    #[test]
    fn warm_resolve_never_serves_a_stale_price() {
        // A price change that a sampled checksum cannot see: none of the
        // ~16 intervals it re-prices on a 2×16 family covers (0, 15). A
        // solver that reused the family priced under the plain oracle would
        // pick p0 [15,16) at the stale 4.0, where the live price is 14.0.
        let mut h = Solver::new(CandidatePolicy::All);
        let plain = LastSlotSurcharge { surcharge: 0.0 };
        let first = Instance::new(2, 16, vec![Job::window(1.0, 0, 2, 6)]);
        h.schedule_all(&first, &plain).expect("feasible");
        let surcharged = LastSlotSurcharge { surcharge: 10.0 };
        let last = Instance::new(
            2,
            16,
            vec![Job::unit(vec![SlotRef::new(0, 15), SlotRef::new(1, 15)])],
        );
        let warm = h.schedule_all(&last, &surcharged).expect("feasible");
        assert_same(&Ok(warm.clone()), &cold_with(&last, &surcharged));
        let picked: Vec<_> = warm
            .awake
            .iter()
            .map(|iv| (iv.proc, iv.start, iv.end, iv.cost))
            .collect();
        assert_eq!(picked, vec![(1, 15, 16, 4.0)], "the live price");
        assert_eq!(h.stats(), WarmStats { warm: 1, cold: 1 });
    }

    #[test]
    fn switching_between_window_and_family_paths_rebuilds_cold() {
        let mut h = Solver::new(CandidatePolicy::All);
        let monotone = cost();
        let opaque = Opaque(cost());
        let steps: [(&dyn EnergyCost, Vec<Job>, bool); 6] = [
            (&monotone, vec![Job::window(1.0, 0, 0, 4)], true),
            (&monotone, vec![Job::window(1.0, 0, 1, 5)], false),
            (&opaque, vec![Job::window(1.0, 0, 1, 5)], true),
            (&opaque, vec![Job::window(1.0, 1, 2, 7)], false),
            (&opaque, vec![Job::window(1.0, 1, 2, 7)], false),
            (&monotone, vec![Job::window(1.0, 1, 2, 7)], true),
        ];
        for (k, (c, jobs, is_cold)) in steps.into_iter().enumerate() {
            let i = inst(jobs);
            let before = h.stats();
            assert_same(&h.schedule_all(&i, c), &cold(&i));
            let after = h.stats();
            assert_eq!(after.cold - before.cold, u64::from(is_cold), "step {k}");
            assert_eq!(after.warm - before.warm, u64::from(!is_cold), "step {k}");
        }
        // The family the opaque steps enumerated stays cached for
        // `family()` callers; the window steps never read it.
        assert!(h.checksum().is_some());
        let i = inst(vec![Job::window(1.0, 0, 0, 4)]);
        assert_eq!(
            &h.family(&i, &monotone)[..],
            &enumerate_candidates(&i, &monotone, CandidatePolicy::All)[..]
        );
        assert_same(&h.schedule_all(&i, &monotone), &cold(&i));
        assert_eq!(h.stats(), WarmStats { warm: 4, cold: 3 });
    }

    #[test]
    fn grid_resize_forces_cold_rebuild() {
        let c = cost();
        let mut h = Solver::new(CandidatePolicy::All);
        let i = inst(vec![Job::window(1.0, 0, 0, 5)]);
        h.schedule_all(&i, &c).expect("feasible");
        let i2 = Instance::new(3, 16, vec![Job::window(1.0, 2, 4, 9)]);
        let warm = h.schedule_all(&i2, &c);
        assert_same(&warm, &cold(&i2));
        assert_eq!(h.stats(), WarmStats { warm: 0, cold: 2 });
    }

    #[test]
    fn infeasible_steps_do_not_poison_seeds() {
        let c = cost();
        let mut h = Solver::new(CandidatePolicy::All);
        let feasible = inst(vec![Job::window(1.0, 0, 0, 4)]);
        h.schedule_all(&feasible, &c).expect("feasible");
        // A job with an empty allowed set returns early, before the greedy.
        let broken = inst(vec![
            Job::window(1.0, 0, 0, 4),
            Job {
                value: 1.0,
                allowed: vec![],
                work: None,
            },
        ]);
        let r = h.schedule_all(&broken, &c);
        assert!(matches!(r, Err(ScheduleError::Infeasible { .. })));
        // Over-subscribed slot: greedy-infeasible after a full greedy run.
        let tight = inst(vec![Job::unit(vec![SlotRef::new(0, 0)]); 3]);
        let r = h.schedule_all(&tight, &c);
        assert_same(&r, &cold(&tight));
        // And a feasible follow-up still matches cold exactly.
        let next = inst(vec![Job::window(1.0, 0, 2, 6), Job::window(1.0, 1, 0, 9)]);
        assert_same(&h.schedule_all(&next, &c), &cold(&next));
    }

    #[test]
    fn empty_instance_round_trips() {
        let c = cost();
        let mut h = Solver::new(CandidatePolicy::All);
        let empty = inst(vec![]);
        let r = h.schedule_all(&empty, &c).expect("trivially feasible");
        assert_eq!(r.scheduled_count, 0);
        assert!(r.awake.is_empty());
        let next = inst(vec![Job::window(1.0, 0, 0, 4)]);
        assert_same(&h.schedule_all(&next, &c), &cold(&next));
    }
}
