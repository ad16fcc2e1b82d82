//! Incremental warm-start re-solving for the online path.
//!
//! A [`WarmHandle`] keeps the slowly-changing pieces of a `schedule_all`
//! solve alive across consecutive re-solves on the same processor grid:
//!
//! * the [`ScheduleReduction`]'s buffers, rebuilt in place for each new
//!   instance;
//! * the previous instance and its result, returned as-is when the next
//!   solve would repeat it (the solver is deterministic).
//!
//! How a re-solve rebuilds the reduction depends on the cost oracle:
//!
//! * **Window path.** Under an
//!   [`inclusion_monotone`](EnergyCost::inclusion_monotone) cost,
//!   [`ScheduleReduction::apply_delta_windows`] prices each slot window's
//!   tightest interval through the live oracle, in
//!   `O(Σₚ kₚ² + slots + edges)` for `kₚ` job-adjacent slots on processor
//!   `p` instead of `O(p·T²)`. No candidate family is enumerated or kept,
//!   so nothing cached can go stale: a changed price is read by the next
//!   rebuild.
//! * **Identical-instance path** (window path only). When the instance
//!   equals the previous solve's, the reduction's graph, slot arena and
//!   components already belong to it: the windows are only re-priced
//!   through the live oracle (the subset half of
//!   [`ScheduleReduction::apply_delta_windows`]), and no graph is rebuilt.
//!   The previous result is returned when the re-priced subset columns
//!   (runs, run bases, window lengths, spans and cost bits) equal a copy
//!   kept from the previous solve in retained buffers; otherwise a price
//!   moved, and the greedy runs on the re-priced reduction. Each such
//!   solve counts in `core.warm.repriced`, and its `core.warm.decision`
//!   event reads `cached`/`identical-instance` or `warm`/`repriced`.
//! * **Family path.** Any other cost enumerates the candidate family once
//!   and rebuilds with [`ScheduleReduction::apply_delta`]; see "Checksum
//!   fallback" below.
//!
//! A warm re-solve is that rebuild followed by the same lazy greedy a cold
//! [`crate::schedule_all_with`] runs: first keys from upper bounds, no full
//! gain scan. The reduction's window subsets (see [`crate::objective`])
//! change with every job delta, so no gain is carried across solves; the
//! subsets themselves are what keeps a re-solve small — a few hundred
//! distinct windows on a grid of a hundred thousand intervals. The result
//! is bit-identical to [`crate::schedule_all()`] over the enumerated
//! family (and hence to `crate::naive`) by construction: the window build
//! reproduces the family build field for field, and `apply_delta` and
//! `build` run the same rebuild.
//!
//! # Checksum fallback (family path)
//!
//! Reusing the candidate family assumes the cost model did not change
//! underneath the handle. Each family-path solve recomputes a structural
//! checksum — grid dimensions, family size, and the freshly re-priced costs
//! of ~16 sampled candidates — and compares it to the checksum recorded at
//! enumeration time. A divergence (swapped power profiles, perturbed
//! restart cost) re-enumerates the family and rebuilds the reduction from
//! scratch. The check is a sample: drift confined to unsampled intervals
//! goes unseen, which is why monotone costs take the window path instead.
//!
//! A solve that builds the reduction from scratch is counted in
//! [`WarmStats::cold`]: the first solve on a grid, a resized grid, a
//! switch between the window and family paths, or a re-enumerated family.

use std::sync::Arc;

use crate::candidates::{enumerate_candidates, CandidateInterval, CandidatePolicy};
use crate::cost::EnergyCost;
use crate::model::{Instance, Job, Schedule, ScheduleError};
use crate::objective::{ScheduleReduction, SubsetColumns};
use crate::schedule_all::schedule_all_with;

/// Warm/cold re-solve counters kept by a [`WarmHandle`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WarmStats {
    /// Solves that rebuilt the reduction in place, or returned the previous
    /// result for an identical instance.
    pub warm: u64,
    /// Solves that built the reduction from scratch: the first solve on a
    /// grid, a resized grid, a switch between the window and family paths,
    /// or a family re-enumerated after a checksum divergence.
    pub cold: u64,
}

/// The previous solve on this grid, for the identical-instance path.
struct PrevSolve {
    /// The instance that was solved (owned; compared against the next one).
    instance: Instance,
    /// The window path's subset columns, compared with a re-priced
    /// rebuild of the same instance; not read on the family path, whose
    /// checksum vouches for the family.
    columns: SubsetColumns,
    /// The solve result, returned verbatim when the next solve would
    /// repeat it.
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
    /// The family, enumerated only for a family-path solve or a
    /// [`WarmHandle::family`] call.
    family: Option<CachedFamily>,
    /// Enumerations of `family` so far, so a family-built reduction can
    /// tell it was built from an older one.
    family_epoch: u64,
    /// The last solve's reduction and how it was built.
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
            // family-path solve cold.
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

/// A reusable warm-start handle for consecutive `schedule_all` solves.
///
/// Create one per logical solve stream (a [`crate::simulate`] policy, an
/// engine worker cache entry) and call [`WarmHandle::solve`] for each
/// re-solve. The handle owns all cached state; dropping it frees everything.
pub struct WarmHandle {
    policy: CandidatePolicy,
    grid: Option<GridState>,
    stats: WarmStats,
}

impl WarmHandle {
    /// New handle solving under `policy`. Every solve runs the greedy
    /// [`crate::schedule_all_with`] runs: lazy, from upper bounds, with no
    /// full gain scan.
    pub fn new(policy: CandidatePolicy) -> Self {
        Self {
            policy,
            grid: None,
            stats: WarmStats::default(),
        }
    }

    /// The candidate policy this handle solves under.
    pub fn policy(&self) -> CandidatePolicy {
        self.policy
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

    /// Drops every cached artifact; the next solve is cold.
    pub fn reset(&mut self) {
        self.grid = None;
    }

    /// The candidate family for `inst`'s grid under `cost`, enumerating (or
    /// re-enumerating after a checksum divergence) if needed, for callers
    /// that also serve non-`schedule_all` goals on the same grid. Builds no
    /// reduction; a window-path solve never reads the family.
    pub fn family(&mut self, inst: &Instance, cost: &dyn EnergyCost) -> Arc<[CandidateInterval]> {
        let grid = grid_for(&mut self.grid, inst);
        grid.ensure_family(inst, cost, self.policy);
        Arc::clone(grid.candidates())
    }

    /// Solves `schedule_all` for `inst`, rebuilding the cached reduction in
    /// place. Bit-identical to [`crate::schedule_all_with`] over
    /// `enumerate_candidates(inst, cost, policy)`.
    pub fn solve(
        &mut self,
        inst: &Instance,
        cost: &dyn EnergyCost,
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
            let repeat = match (built, prev) {
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
            if repeat {
                decision("cached", "identical-instance");
                return prev.expect("repeat needs a previous solve").result.clone();
            }
            decision("warm", if prev.is_some() { "repriced" } else { "delta" });
        }
        let (_, red) = grid.reduction.as_ref().expect("built above");
        let result = {
            let _span = sched_obs::span!("core.solve.schedule_all_ns");
            schedule_all_with(inst, red)
        };
        // the previous solve's buffers are overwritten in place
        let prev = match &mut grid.prev {
            Some(prev) => {
                copy_instance(&mut prev.instance, inst);
                prev.result = result.clone();
                prev
            }
            none => none.insert(PrevSolve {
                instance: inst.clone(),
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
    use crate::model::{Job, SlotRef, SolveOptions};
    use crate::naive::naive_schedule_all;
    use crate::solver::Solver;

    fn cost() -> AffineCost {
        AffineCost::new(3.0, 1.0)
    }

    /// An oracle that prices like its inner one but does not declare
    /// itself inclusion-monotone, so a handle takes the family path.
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
        // lazy greedy from upper bounds: no solve scans every subset.
        use std::sync::Arc;
        let c = cost();
        let mut h = WarmHandle::new(CandidatePolicy::All);
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
    fn identical_instance_at_identical_prices_rebuilds_no_graph() {
        use std::sync::Arc;
        let c = cost();
        let mut h = WarmHandle::new(CandidatePolicy::All);
        let i = inst(vec![Job::window(1.0, 0, 0, 5), Job::window(1.0, 1, 1, 7)]);
        let first = h.solve(&i, &c);
        // A rebuilt graph is allocated while the old one is alive, so its
        // adjacency cannot sit at the old address.
        let graph_at = |h: &WarmHandle| {
            let grid = h.grid.as_ref().expect("a grid after a solve");
            let (_, red) = grid.reduction.as_ref().expect("a reduction after a solve");
            red.graph.adj_y(0).as_ptr()
        };
        let before = graph_at(&h);
        let registry = Arc::new(sched_obs::Registry::new());
        sched_obs::set_thread(Some(Arc::clone(&registry)));
        let second = h.solve(&i, &c);
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
        let mut h = WarmHandle::new(CandidatePolicy::All);
        let i = inst(vec![Job::window(1.0, 0, 0, 5)]);
        let sum0 = {
            h.solve(&i, &c).expect("feasible");
            h.checksum().expect("family cached")
        };
        // Same grid, different pricing: checksum must diverge and the handle
        // must fall back to a cold rebuild — with the correct new costs.
        let c2 = Opaque(AffineCost::new(5.0, 2.0));
        let i2 = inst(vec![Job::window(1.0, 0, 0, 5), Job::window(1.0, 1, 3, 8)]);
        let warm = h.solve(&i2, &c2);
        assert_ne!(h.checksum().expect("family cached"), sum0);
        let expected = Solver::new(&i2, &c2).schedule_all();
        assert_same(&warm, &expected);
        assert_eq!(h.stats(), WarmStats { warm: 0, cold: 2 });
    }

    #[test]
    fn window_path_prices_a_changed_cost_model_warm() {
        // A monotone oracle takes the window path: no family is cached, and
        // a changed model is simply priced by the in-place rebuild.
        let mut h = WarmHandle::new(CandidatePolicy::All);
        let i = inst(vec![Job::window(1.0, 0, 0, 5)]);
        h.solve(&i, &cost()).expect("feasible");
        assert_eq!(h.checksum(), None, "the window path caches no family");
        let c2 = AffineCost::new(5.0, 2.0);
        let i2 = inst(vec![Job::window(1.0, 0, 0, 5), Job::window(1.0, 1, 3, 8)]);
        assert_same(&h.solve(&i2, &c2), &Solver::new(&i2, &c2).schedule_all());
        // the same instance under the first model again: the rebuilt
        // subsets' prices differ, so the previous result is not reused
        assert_same(&h.solve(&i2, &cost()), &cold(&i2));
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
        // handle that reused the family priced under the plain oracle would
        // pick p0 [15,16) at the stale 4.0, where the live price is 14.0.
        let mut h = WarmHandle::new(CandidatePolicy::All);
        let plain = LastSlotSurcharge { surcharge: 0.0 };
        let first = Instance::new(2, 16, vec![Job::window(1.0, 0, 2, 6)]);
        h.solve(&first, &plain).expect("feasible");
        let surcharged = LastSlotSurcharge { surcharge: 10.0 };
        let last = Instance::new(
            2,
            16,
            vec![Job::unit(vec![SlotRef::new(0, 15), SlotRef::new(1, 15)])],
        );
        let warm = h.solve(&last, &surcharged).expect("feasible");
        let want = Solver::new(&last, &surcharged).schedule_all();
        assert_same(&Ok(warm.clone()), &want);
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
        let mut h = WarmHandle::new(CandidatePolicy::All);
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
            assert_same(&h.solve(&i, c), &cold(&i));
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
        assert_same(&h.solve(&i, &monotone), &cold(&i));
        assert_eq!(h.stats(), WarmStats { warm: 4, cold: 3 });
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
