//! Incremental warm-start re-solving for the online path.
//!
//! A [`WarmHandle`] keeps the expensive, slowly-changing pieces of a
//! `schedule_all` solve alive across consecutive re-solves on the same
//! processor grid:
//!
//! * the enumerated candidate family (job-independent: it depends only on the
//!   grid dimensions, the candidate policy, and the cost model), shared as an
//!   `Arc<[CandidateInterval]>`;
//! * the [`ScheduleReduction`]'s buffers, rebuilt in place for each new
//!   instance by [`ScheduleReduction::apply_delta`];
//! * the previous instance and its result, returned as-is when the next
//!   instance is identical (the solver is deterministic).
//!
//! A warm re-solve is `apply_delta` followed by the same lazy greedy a cold
//! [`crate::schedule_all_with`] runs: first keys from upper bounds, no full
//! gain scan. The reduction's window subsets (see [`crate::objective`])
//! change with every job delta, so no gain is carried across solves; the
//! subsets themselves are what keeps a re-solve small — a few hundred
//! distinct windows on a grid of a hundred thousand intervals. The result
//! is bit-identical to [`crate::schedule_all()`] (and hence to
//! `crate::naive`) by construction: `apply_delta` and `build` run the same
//! rebuild.
//!
//! # Checksum fallback
//!
//! Reusing the candidate family assumes the grid and the cost model did not
//! change underneath the handle. Each solve recomputes a structural checksum
//! — grid dimensions, family size, and the freshly re-priced costs of ~16
//! sampled candidates — and compares it to the checksum recorded at
//! enumeration time. Any divergence (resized grid, swapped power profiles,
//! perturbed restart cost) triggers a full cold rebuild: re-enumerate,
//! re-price, rebuild the reduction. Cold solves are counted in
//! [`WarmStats::cold`]; callers never observe a stale family.

use std::sync::Arc;

use crate::candidates::{enumerate_candidates, CandidateInterval, CandidatePolicy};
use crate::cost::EnergyCost;
use crate::model::{Instance, Schedule, ScheduleError, SolveOptions};
use crate::objective::ScheduleReduction;
use crate::schedule_all::schedule_all_with;

/// Warm/cold re-solve counters kept by a [`WarmHandle`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WarmStats {
    /// Solves that reused the cached candidate family: the delta path (the
    /// reduction rebuilt in place) and the identical-instance path.
    pub warm: u64,
    /// Solves that enumerated the family from scratch: the first solve and
    /// any solve after a checksum divergence.
    pub cold: u64,
}

/// The previous solve on this grid, for the identical-instance path.
struct PrevSolve {
    /// The instance that was solved (owned; compared against the next one).
    instance: Instance,
    /// The solve result, returned verbatim when the next instance is
    /// identical (the solver is deterministic).
    result: Result<Schedule, ScheduleError>,
}

/// Per-grid cached state: candidate family, checksum, reduction.
struct GridState {
    num_processors: u32,
    horizon: u32,
    /// Structural checksum recorded at enumeration; see [`family_checksum`].
    checksum: u64,
    candidates: Arc<[CandidateInterval]>,
    reduction: ScheduleReduction,
    prev: Option<PrevSolve>,
}

/// A reusable warm-start handle for consecutive `schedule_all` solves.
///
/// Create one per logical solve stream (a [`crate::simulate`] policy, an
/// engine worker cache entry) and call [`WarmHandle::solve`] for each
/// re-solve. The handle owns all cached state; dropping it frees everything.
pub struct WarmHandle {
    policy: CandidatePolicy,
    options: SolveOptions,
    grid: Option<GridState>,
    stats: WarmStats,
}

impl WarmHandle {
    /// New handle with default [`SolveOptions`].
    pub fn new(policy: CandidatePolicy) -> Self {
        Self::with_options(policy, SolveOptions::default())
    }

    /// New handle with explicit solve options, passed to every solve's
    /// greedy exactly as [`crate::schedule_all_with`] takes them: warm or
    /// cold, the lazy greedy starts from upper bounds and runs no full
    /// scan, so `options.parallel` only parallelizes the scans of the
    /// eager loop (`options.lazy == false`).
    pub fn with_options(policy: CandidatePolicy, options: SolveOptions) -> Self {
        Self {
            policy,
            options,
            grid: None,
            stats: WarmStats::default(),
        }
    }

    /// The candidate policy this handle enumerates with.
    pub fn policy(&self) -> CandidatePolicy {
        self.policy
    }

    /// Warm/cold counters accumulated so far.
    pub fn stats(&self) -> WarmStats {
        self.stats
    }

    /// Structural checksum of the cached family, if any (for diagnostics).
    pub fn checksum(&self) -> Option<u64> {
        self.grid.as_ref().map(|g| g.checksum)
    }

    /// Drops every cached artifact; the next solve is cold.
    pub fn reset(&mut self) {
        self.grid = None;
    }

    /// Replaces the solve options for subsequent solves. Safe at any point:
    /// options steer evaluation order only (lazy/eager, scan parallelism),
    /// never the result, so a cached result stays valid.
    pub fn set_options(&mut self, options: SolveOptions) {
        self.options = options;
    }

    /// The candidate family for `inst`'s grid under `cost`, enumerating (or
    /// re-enumerating after divergence) if needed. Lets callers that also
    /// serve non-`schedule_all` goals on the same grid share the family.
    pub fn family(&mut self, inst: &Instance, cost: &dyn EnergyCost) -> Arc<[CandidateInterval]> {
        self.ensure_grid(inst, cost);
        Arc::clone(
            &self
                .grid
                .as_ref()
                .expect("ensure_grid populated")
                .candidates,
        )
    }

    /// Solves `schedule_all` for `inst`, reusing the cached family and
    /// reduction buffers. Bit-identical to [`crate::schedule_all_with`] with
    /// the same options.
    pub fn solve(
        &mut self,
        inst: &Instance,
        cost: &dyn EnergyCost,
    ) -> Result<Schedule, ScheduleError> {
        let _span = sched_obs::span!("core.warm.solve_ns");
        let rebuilt = self.ensure_grid(inst, cost);
        let grid = self.grid.as_mut().expect("ensure_grid populated");

        // One decision event per solve: which of the three warm/cold paths
        // this call took and why, so a trace can narrate the handle's
        // behavior next to the greedy's pick log.
        let decision = |path: &'static str, reason: &'static str| {
            if sched_obs::trace::enabled() {
                sched_obs::trace::instant(
                    "core.warm.decision",
                    vec![("path", path.into()), ("reason", reason.into())],
                );
            }
        };

        if rebuilt {
            // `ensure_grid` built the reduction for `inst`.
            self.stats.cold += 1;
            sched_obs::counter_add("core.warm.solves.cold", 1);
            decision("cold", "family-rebuilt");
        } else {
            self.stats.warm += 1;
            sched_obs::counter_add("core.warm.solves.warm", 1);
            if let Some(prev) = grid.prev.as_ref().filter(|p| p.instance == *inst) {
                decision("cached", "identical-instance");
                return prev.result.clone();
            }
            decision("warm", "delta");
            grid.reduction.apply_delta(inst, &grid.candidates);
        }
        let result = {
            let _span = sched_obs::span!("core.solve.schedule_all_ns");
            schedule_all_with(inst, &grid.reduction, &grid.candidates, &self.options)
        };
        grid.prev = Some(PrevSolve {
            instance: inst.clone(),
            result: result.clone(),
        });
        result
    }

    /// Ensures the cached family matches `inst`'s grid and `cost`'s pricing.
    /// Returns `true` if a full rebuild happened (the reduction was built
    /// for `inst` and the previous solve dropped).
    fn ensure_grid(&mut self, inst: &Instance, cost: &dyn EnergyCost) -> bool {
        let ok = match &self.grid {
            Some(g) => {
                g.num_processors == inst.num_processors
                    && g.horizon == inst.horizon
                    && g.checksum
                        == family_checksum(inst.num_processors, inst.horizon, &g.candidates, |c| {
                            cost.cost(c.proc, c.start, c.end).to_bits()
                        })
            }
            None => false,
        };
        if ok {
            return false;
        }
        if self.grid.is_some() {
            // A cached family existed but no longer matches: resized grid or
            // checksum drift in the cost model. Either way the warm state is
            // discarded — worth surfacing, since a noisy cost oracle can
            // silently turn every "warm" solve cold.
            sched_obs::counter_add("core.warm.checksum_divergence", 1);
        }
        let candidates: Arc<[CandidateInterval]> =
            enumerate_candidates(inst, cost, self.policy).into();
        let checksum = family_checksum(inst.num_processors, inst.horizon, &candidates, |c| {
            c.cost.to_bits()
        });
        let reduction = ScheduleReduction::build(inst, &candidates);
        self.grid = Some(GridState {
            num_processors: inst.num_processors,
            horizon: inst.horizon,
            checksum,
            candidates,
            reduction,
            prev: None,
        });
        true
    }
}

/// FNV-1a over grid dimensions, family size, and up to ~16 sampled candidate
/// costs priced through `price`. At enumeration time `price` reads the stored
/// cost; at check time it re-prices through the live cost oracle, so any
/// drift in the cost model (or a resized family) changes the sum.
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
    use crate::model::{Job, SlotRef};
    use crate::naive::naive_schedule_all;
    use crate::solver::Solver;

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

    fn cold(inst: &Instance) -> Result<Schedule, ScheduleError> {
        let c = cost();
        Solver::new(inst, &c).schedule_all()
    }

    #[test]
    fn warm_matches_cold_over_job_churn() {
        let c = cost();
        let mut h = WarmHandle::new(CandidatePolicy::All);
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
            let warm = h.solve(&i, &c);
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
        // lazy greedy from upper bounds: no solve scans every subset, also
        // with `parallel` set.
        use std::sync::Arc;
        let c = cost();
        let mut h = WarmHandle::with_options(
            CandidatePolicy::All,
            SolveOptions {
                lazy: true,
                parallel: true,
            },
        );
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
                (h.solve(&i, &c), i)
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
        let mut h = WarmHandle::new(CandidatePolicy::All);
        let i = inst(vec![Job::window(1.0, 0, 0, 5), Job::window(1.0, 1, 1, 7)]);
        let first = h.solve(&i, &c);
        let second = h.solve(&i, &c);
        assert_same(&first, &second);
        assert_eq!(h.stats(), WarmStats { warm: 1, cold: 1 });
    }

    #[test]
    fn cost_model_change_forces_cold_rebuild() {
        let c = cost();
        let mut h = WarmHandle::new(CandidatePolicy::All);
        let i = inst(vec![Job::window(1.0, 0, 0, 5)]);
        let sum0 = {
            h.solve(&i, &c).expect("feasible");
            h.checksum().expect("family cached")
        };
        // Same grid, different pricing: checksum must diverge and the handle
        // must fall back to a cold rebuild — with the correct new costs.
        let c2 = AffineCost::new(5.0, 2.0);
        let i2 = inst(vec![Job::window(1.0, 0, 0, 5), Job::window(1.0, 1, 3, 8)]);
        let warm = h.solve(&i2, &c2);
        assert_ne!(h.checksum().expect("family cached"), sum0);
        let expected = Solver::new(&i2, &c2).schedule_all();
        assert_same(&warm, &expected);
        assert_eq!(h.stats(), WarmStats { warm: 0, cold: 2 });
    }

    #[test]
    fn grid_resize_forces_cold_rebuild() {
        let c = cost();
        let mut h = WarmHandle::new(CandidatePolicy::All);
        let i = inst(vec![Job::window(1.0, 0, 0, 5)]);
        h.solve(&i, &c).expect("feasible");
        let i2 = Instance::new(3, 16, vec![Job::window(1.0, 2, 4, 9)]);
        let warm = h.solve(&i2, &c);
        let expected = Solver::new(&i2, &c).schedule_all();
        assert_same(&warm, &expected);
        assert_eq!(h.stats(), WarmStats { warm: 0, cold: 2 });
    }

    #[test]
    fn infeasible_steps_do_not_poison_seeds() {
        let c = cost();
        let mut h = WarmHandle::new(CandidatePolicy::All);
        let feasible = inst(vec![Job::window(1.0, 0, 0, 4)]);
        h.solve(&feasible, &c).expect("feasible");
        // A job with an empty allowed set returns early, before the greedy.
        let broken = inst(vec![
            Job::window(1.0, 0, 0, 4),
            Job {
                value: 1.0,
                allowed: vec![],
                work: None,
            },
        ]);
        let r = h.solve(&broken, &c);
        assert!(matches!(r, Err(ScheduleError::Infeasible { .. })));
        // Over-subscribed slot: greedy-infeasible after a full greedy run.
        let tight = inst(vec![Job::unit(vec![SlotRef::new(0, 0)]); 3]);
        let r = h.solve(&tight, &c);
        assert_same(&r, &cold(&tight));
        // And a feasible follow-up still matches cold exactly.
        let next = inst(vec![Job::window(1.0, 0, 2, 6), Job::window(1.0, 1, 0, 9)]);
        assert_same(&h.solve(&next, &c), &cold(&next));
    }

    #[test]
    fn empty_instance_round_trips() {
        let c = cost();
        let mut h = WarmHandle::new(CandidatePolicy::All);
        let empty = inst(vec![]);
        let r = h.solve(&empty, &c).expect("trivially feasible");
        assert_eq!(r.scheduled_count, 0);
        assert!(r.awake.is_empty());
        let next = inst(vec![Job::window(1.0, 0, 0, 4)]);
        assert_same(&h.solve(&next, &c), &cold(&next));
    }
}
