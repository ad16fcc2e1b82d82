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
//! # Which prices a solver takes
//!
//! A solver needs an
//! [`inclusion_monotone`](EnergyCost::inclusion_monotone) price — affine,
//! profiled, convex, time-varying, and [`crate::UnavailableSlots`] over
//! those — and panics on any other. Under such a price each slot window's
//! cheapest interval is its tightest (Lemma 2.2.2 needs no other), so
//! [`ScheduleReduction::apply_delta_windows`] prices one interval per window
//! through the live oracle, in `O(Σₚ kₚ² + slots + edges)` for `kₚ`
//! job-adjacent slots on processor `p` instead of `O(p·T²)`. No family is
//! enumerated or kept, so a changed price is read by the next rebuild.
//!
//! Any other price ([`crate::TableCost`], a caller's oracle) and every
//! explicit candidate family (generators, experiments, the DVFS compiler's)
//! go through the free functions ([`crate::schedule_all()`],
//! [`crate::prize_collecting()`], [`crate::prize_collecting_exact()`]) over
//! [`crate::enumerate_candidates`] or the family itself.
//!
//! # How a call updates the reduction
//!
//! * **New grid.** The first call, and the first after a resize, builds
//!   the reduction from scratch ([`WarmStats::cold`]).
//! * **New instance.** The reduction is rebuilt in place, reusing its
//!   buffers.
//! * **Identical instance.** When the instance equals the previous call's,
//!   the graph, slot arena and components already belong to it: the windows
//!   are only re-priced (`core.warm.repriced`).
//!
//! The previous result is returned without a greedy run only when the
//! instance, the prices and the goal (with its target and `ε`) all equal
//! the previous call's. Prices match when the re-priced subset columns
//! (runs, run bases, window lengths, spans and cost bits) equal a copy kept
//! from the previous call. Otherwise the goal runs on the reduction, which
//! is current by then. Each call emits one `core.warm.decision` event
//! naming its path and the reason.
//!
//! Every goal runs the greedy a cold solve runs (first keys from upper
//! bounds, no full gain scan), so every result is bit-identical to the free
//! function over the enumerated family by construction: the window build
//! reproduces the family build field for field.
//!
//! # One workspace
//!
//! Besides the reduction (graph, slot arena, components, subset columns,
//! each rebuilt in its retained buffers), a solver owns one workspace that
//! every call rebuilds in place: the matching oracle's slot and job arrays,
//! the objective's per-component arrays, the gain scratch with its memo,
//! and the greedy's ratio, heap, group and first-round buffers. The greedy
//! hands the objective each stale group's index, so a refresh finds its
//! run without a search. Slot ids span only the instance's live slots (see
//! "Live-span slot ids" in [`crate::objective`]), so every buffer is sized
//! by the pending jobs, not by the horizon. Once the buffers have grown to
//! an instance's size, a re-solve of a changed instance allocates only what
//! it hands out: the returned schedule's two vectors, the greedy outcome's
//! two and the two of the copy kept for the identical-instance path
//! (`tests/solver_allocations.rs` pins the count). The free functions
//! start every solve from an empty workspace.

use crate::candidates::CandidatePolicy;
use crate::cost::EnergyCost;
use crate::model::{Instance, Job, Schedule, ScheduleError};
use crate::objective::{ScheduleReduction, SolveWorkspace, SubsetColumns};
use crate::prize_collecting::{prize_collecting_exact_in, prize_collecting_in};
use crate::schedule_all::schedule_all_in;

/// Warm/cold call counters kept by a [`Solver`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WarmStats {
    /// Calls that rebuilt the reduction in place, re-priced it, or
    /// returned the previous result.
    pub warm: u64,
    /// Calls that built the reduction from scratch: the first call on a
    /// grid or a resized grid.
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
    /// The subset columns it ran on, compared with a re-priced rebuild of
    /// the same instance.
    columns: SubsetColumns,
    /// The result, returned verbatim when the next call would repeat it.
    result: Result<Schedule, ScheduleError>,
}

/// Per-grid cached state.
struct GridState {
    num_processors: u32,
    horizon: u32,
    /// The last call's reduction, rebuilt in place by the next.
    reduction: ScheduleReduction,
    prev: Option<PrevSolve>,
}

/// The solve owner for the three goals of Chapter 2: keeps the reduction
/// of the last call alive for the next. See the [module docs](self).
pub struct Solver {
    policy: CandidatePolicy,
    grid: Option<GridState>,
    /// The oracle, objective, scratch and greedy arrays every call reuses.
    workspace: SolveWorkspace,
    stats: WarmStats,
}

impl Solver {
    /// New solver building slot windows under `policy`.
    pub fn new(policy: CandidatePolicy) -> Self {
        Self {
            policy,
            grid: None,
            workspace: SolveWorkspace::default(),
            stats: WarmStats::default(),
        }
    }

    /// Warm/cold counters accumulated so far.
    pub fn stats(&self) -> WarmStats {
        self.stats
    }

    /// Drops every cached artifact; the next call is cold.
    pub fn reset(&mut self) {
        self.grid = None;
    }

    /// The reduction the last call ran on, if any.
    ///
    /// The greedy indexes its window subsets, not a family: an index in a
    /// decision log (`submodular.greedy.pick`'s `chosen` and `runner_up`)
    /// names its interval through [`ScheduleReduction::interval_of`].
    pub fn reduction(&self) -> Option<&ScheduleReduction> {
        Some(&self.grid.as_ref()?.reduction)
    }

    /// Theorem 2.2.1: schedules **every** job of `inst` at cost within
    /// `O(log n)` of the cheapest all-jobs schedule. Bit-identical to
    /// [`crate::schedule_all()`] over
    /// `enumerate_candidates(inst, cost, policy)`.
    ///
    /// # Panics
    /// Panics if `cost` is not
    /// [`inclusion_monotone`](EnergyCost::inclusion_monotone) (see the
    /// [module docs](self)), as do the two prize goals.
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

        let fits = self
            .grid
            .as_ref()
            .is_some_and(|g| g.num_processors == inst.num_processors && g.horizon == inst.horizon);
        let grid = match &mut self.grid {
            Some(grid) if fits => {
                self.stats.warm += 1;
                sched_obs::counter_add("core.warm.solves.warm", 1);
                let prev = grid.prev.as_ref().filter(|p| p.instance == *inst);
                let red = &mut grid.reduction;
                let same_prices = match prev {
                    // the job side is already this instance's: re-price only
                    Some(p) => {
                        red.reprice_windows(inst, cost, policy);
                        sched_obs::counter_add("core.warm.repriced", 1);
                        p.columns.matches(red)
                    }
                    None => {
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
                grid
            }
            slot => {
                self.stats.cold += 1;
                sched_obs::counter_add("core.warm.solves.cold", 1);
                decision("cold", "new-grid");
                slot.insert(GridState {
                    num_processors: inst.num_processors,
                    horizon: inst.horizon,
                    reduction: ScheduleReduction::build_windows(inst, cost, policy),
                    prev: None,
                })
            }
        };
        let red = &grid.reduction;
        let ws = &mut self.workspace;
        let result = match goal {
            Goal::All => {
                let _span = sched_obs::span!("core.solve.schedule_all_ns");
                schedule_all_in(inst, red, ws)
            }
            Goal::Prize { target, epsilon } => prize_collecting_in(inst, red, target, epsilon, ws),
            Goal::PrizeExact { target } => prize_collecting_exact_in(inst, red, target, ws),
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
        prev.columns.record(red);
        result
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::enumerate_candidates;
    use crate::cost::{AffineCost, TableCost};
    use crate::model::{SlotRef, SolveOptions};
    use crate::naive::naive_schedule_all;
    use crate::prize_collecting::{prize_collecting, prize_collecting_exact};
    use crate::schedule_all::schedule_all;

    fn cost() -> AffineCost {
        AffineCost::new(3.0, 1.0)
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
        // cold window build serves all six calls, a repeated goal is
        // answered from the previous result only when the goal is the
        // previous call's, and every answer equals the free function over
        // the enumerated family.
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
        let c = cost();
        let cands = enumerate_candidates(&i, &c, CandidatePolicy::All);
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
            assert_same(&s.schedule_all(&i, &c), &want[0]);
            assert_same(&s.prize_collecting(&i, &c, target, epsilon), &want[1]);
            assert_same(&s.prize_collecting_exact(&i, &c, target), &want[2]);
        }
        // a repeat of the last goal is the previous result
        assert_same(&s.prize_collecting_exact(&i, &c, target), &want[2]);
        sched_obs::set_thread(None);
        assert_eq!(s.stats(), WarmStats { warm: 6, cold: 1 });
        let enumerated = registry.counter("core.enumerate.candidates").get();
        assert_eq!(enumerated, 0, "the window build enumerates nothing");
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
        let mut s = Solver::new(CandidatePolicy::SingleSlots);
        let schedule = s.schedule_all(&inst, &cost).unwrap();
        assert_eq!(schedule.awake.len(), 2);
        assert_eq!(schedule.total_cost, 3.0);
        let red = s.reduction().expect("a reduction after a solve");
        assert!((0..red.num_subsets()).all(|k| red.interval_of(k).len() == 1));
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
        // Every graph build counts its slots; a rebuild writes into the
        // old graph's buffers, so their addresses cannot tell.
        let registry = Arc::new(sched_obs::Registry::new());
        sched_obs::set_thread(Some(Arc::clone(&registry)));
        let second = h.schedule_all(&i, &c);
        sched_obs::set_thread(None);
        assert_same(&first, &second);
        let rebuilt = registry.counter("core.reduction.dense_slots").get();
        assert_eq!(rebuilt, 0, "the graph was not rebuilt");
        assert_eq!(registry.counter("core.warm.repriced").get(), 1);
        let solves = registry.histogram("core.solve.schedule_all_ns").count();
        assert_eq!(solves, 0, "the previous result, without a greedy run");
        assert_eq!(h.stats(), WarmStats { warm: 1, cold: 1 });
    }

    #[test]
    fn window_path_prices_a_changed_cost_model_warm() {
        // No family is cached, so a changed model is simply priced by the
        // in-place rebuild.
        let mut h = Solver::new(CandidatePolicy::All);
        let i = inst(vec![Job::window(1.0, 0, 0, 5)]);
        h.schedule_all(&i, &cost()).expect("feasible");
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
        // A price change confined to the intervals that cover (0, 15): a
        // solver that reused prices from the plain oracle would pick
        // p0 [15,16) at the stale 4.0, where the live price is 14.0.
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
    #[should_panic(expected = "inclusion-monotone")]
    fn refuses_a_table_cost() {
        // An explicit table is not inclusion-monotone: its callers solve
        // the enumerated family with the free functions instead.
        let table = TableCost::new([((0, 0, 1), 1.0), ((0, 0, 2), 0.5)], f64::INFINITY);
        let i = Instance::new(1, 2, vec![Job::unit(vec![SlotRef::new(0, 0)])]);
        let _ = Solver::new(CandidatePolicy::All).schedule_all(&i, &table);
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
