//! Incremental warm-start re-solving for the online path.
//!
//! A [`WarmHandle`] keeps the expensive, slowly-changing pieces of a
//! `schedule_all` solve alive across consecutive re-solves on the same
//! processor grid:
//!
//! * the enumerated candidate family (job-independent: it depends only on the
//!   grid dimensions, the candidate policy, and the cost model), shared as an
//!   `Arc<[CandidateInterval]>`;
//! * the flat CSR [`ScheduleReduction`], whose candidate-dependent arrays
//!   (costs, nested-prefix runs) survive deltas verbatim while the
//!   job-dependent arrays are rebuilt in place via
//!   [`ScheduleReduction::apply_delta`];
//! * the initial (`S = ∅`) gain vector of the previous solve, replayed as a
//!   memo seed for every candidate whose window provably did not change.
//!
//! # Soundness
//!
//! The warm path is restricted to the `schedule_all` goal, whose objective is
//! the *cardinality* matching rank (every job value contributes exactly `1.0`
//! to a gain). A candidate's empty-set gain is the maximum-matching rank of
//! the bipartite subgraph induced by its window; that rank depends only on
//! the *content* of the window — which interesting slots it spans and which
//! job edge sets touch them — never on job indices or values. The delta layer
//! therefore marks a slot **dirty** whenever its adjacency could have
//! changed:
//!
//! * every allowed slot of a job present only in the old instance (expiry) or
//!   only in the new one (arrival);
//! * for a job paired across the two instances (by caller key, FIFO per key),
//!   the symmetric difference of its old and new allowed sets.
//!
//! A candidate is *clean* iff no dirty slot lies in its `[start, end)` range
//! on its processor. Within a clean window the induced subgraphs of the old
//! and new instances are content-identical (any job touching a clean slot is
//! paired, and its membership on every clean slot is unchanged), so the old
//! gain — an exactly-representable small-integer `f64` — is bit-identical to
//! what a fresh evaluation would produce. Pairing quality is purely a
//! performance knob: even a "wrong" pairing only shrinks the clean set it
//! could have kept, never admits a stale gain.
//!
//! The memo is kept per nested-prefix run, so a run is seeded only when
//! every member is clean; a run with any dirty member is recomputed whole
//! (one pass). Seeded solves replay clean runs and recompute the others in
//! one explicit initial scan, then run the same lazy greedy on the same
//! scratch, whose first keys read the memo. The greedy keys one heap entry
//! per run and refreshes a stale run in one pass, or replays it when no
//! component stamp on the run moved — exactly as in a cold solve, which
//! starts from upper-bound keys instead. The result is bit-identical to
//! [`crate::schedule_all()`] (and hence to `crate::naive`) by construction.
//!
//! # Checksum fallback
//!
//! Reusing the candidate family assumes the grid and the cost model did not
//! change underneath the handle. Each solve recomputes a structural checksum
//! — grid dimensions, family size, and the freshly re-priced costs of ~16
//! sampled candidates — and compares it to the checksum recorded at
//! enumeration time. Any divergence (resized grid, swapped power profiles,
//! perturbed restart cost) triggers a full cold rebuild: re-enumerate,
//! re-price, rebuild the reduction, drop all seeds. Cold solves are counted
//! in [`WarmStats::cold`]; callers never observe a stale family.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crate::candidates::{enumerate_candidates, CandidateInterval, CandidatePolicy};
use crate::cost::EnergyCost;
use crate::model::{Instance, Schedule, ScheduleError, SlotRef, SolveOptions};
use crate::objective::ScheduleReduction;
use crate::schedule_all::{schedule_all_seeded, WarmSeed};

/// Warm/cold re-solve counters kept by a [`WarmHandle`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WarmStats {
    /// Solves served from the delta path (or the instance-identity fast
    /// path): candidate family, reduction arrays, and clean gains reused.
    pub warm: u64,
    /// Solves that rebuilt state from scratch: the first solve, any solve
    /// after a checksum divergence, and solves with no usable seed.
    pub cold: u64,
}

/// Everything remembered from the previous successful solve on this grid.
struct PrevSolve {
    /// The instance that was solved (owned; compared and diffed against the
    /// next one).
    instance: Instance,
    /// Caller-provided stable job identities, parallel to `instance.jobs`.
    keys: Vec<u64>,
    /// The solve result, returned verbatim when the next instance is
    /// identical (the solver is deterministic).
    result: Result<Schedule, ScheduleError>,
    /// Initial (`S = ∅`) gains of every candidate, the memo seed.
    init: Vec<f64>,
}

/// Per-grid cached state: candidate family, checksum, reduction, seeds.
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

    /// New handle with explicit solve options.
    ///
    /// Every solve, warm or cold, runs one sequential gain scan that captures
    /// the next solve's seed, and the lazy greedy's first keys read the memo
    /// that scan leaves. So `options.parallel` only parallelizes the scans
    /// of the eager loop (`options.lazy == false`), which replay every run
    /// whose memo is current.
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
    /// never the result, so cached seeds stay valid.
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

    /// Solves `schedule_all` for `inst`, reusing as much prior state as the
    /// delta rules allow. Bit-identical to [`crate::schedule_all_with`] with
    /// the same options.
    ///
    /// `keys` are stable per-job identities parallel to `inst.jobs` (e.g.
    /// trace job ids, or [`content_keys`] when no external identity exists).
    /// They only steer the old↔new job pairing, which is a performance
    /// heuristic — collisions or churn cannot affect the result, only how
    /// much is recomputed.
    pub fn solve(
        &mut self,
        inst: &Instance,
        keys: &[u64],
        cost: &dyn EnergyCost,
    ) -> Result<Schedule, ScheduleError> {
        debug_assert_eq!(keys.len(), inst.num_jobs(), "one key per job");
        let _span = sched_obs::span!("core.warm.solve_ns");
        let rebuilt = self.ensure_grid(inst, cost);
        let grid = self.grid.as_mut().expect("ensure_grid populated");

        // One decision event per solve: which of the four warm/cold paths
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

        let mut init = Vec::new();
        let result = if rebuilt {
            self.stats.cold += 1;
            sched_obs::counter_add("core.warm.solves.cold", 1);
            decision("cold", "family-rebuilt");
            schedule_all_seeded(
                inst,
                &grid.reduction,
                &grid.candidates,
                &self.options,
                None,
                &mut init,
            )
        } else {
            match grid.prev.take() {
                Some(prev) if prev.instance == *inst => {
                    // Identical instance: the solver is deterministic, so the
                    // previous result (and its seeds) stand as-is.
                    self.stats.warm += 1;
                    sched_obs::counter_add("core.warm.solves.warm", 1);
                    decision("cached", "identical-instance");
                    let result = prev.result.clone();
                    grid.prev = Some(prev);
                    return result;
                }
                Some(prev) => {
                    self.stats.warm += 1;
                    sched_obs::counter_add("core.warm.solves.warm", 1);
                    decision("warm", "delta-seeded");
                    let dirty = dirty_times_per_proc(
                        &prev.instance,
                        &prev.keys,
                        inst,
                        keys,
                        inst.num_processors,
                    );
                    let clean = clean_mask(&grid.candidates, &dirty);
                    grid.reduction.apply_delta(inst, &grid.candidates);
                    schedule_all_seeded(
                        inst,
                        &grid.reduction,
                        &grid.candidates,
                        &self.options,
                        Some(WarmSeed {
                            vals: &prev.init,
                            clean: &clean,
                        }),
                        &mut init,
                    )
                }
                None => {
                    // Family reusable but no seed (first solve on this grid
                    // ended before producing gains): full gain recompute.
                    self.stats.cold += 1;
                    sched_obs::counter_add("core.warm.solves.cold", 1);
                    decision("cold", "no-seed");
                    grid.reduction.apply_delta(inst, &grid.candidates);
                    schedule_all_seeded(
                        inst,
                        &grid.reduction,
                        &grid.candidates,
                        &self.options,
                        None,
                        &mut init,
                    )
                }
            }
        };

        // An early return (empty instance, or a job with an empty allowed
        // set) never reaches the gain scan; without gains there is nothing to
        // seed from, so drop the prev state rather than store a short vector.
        if init.len() == grid.candidates.len() {
            grid.prev = Some(PrevSolve {
                instance: inst.clone(),
                keys: keys.to_vec(),
                result: result.clone(),
                init,
            });
        } else {
            grid.prev = None;
        }
        result
    }

    /// Ensures the cached family matches `inst`'s grid and `cost`'s pricing.
    /// Returns `true` if a full rebuild happened (seeds were dropped).
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

/// Deterministic content-derived job keys for callers without stable external
/// identities (hashes value bits and the allowed-slot list). Collisions are
/// harmless — keys only steer pairing, never correctness.
pub fn content_keys(inst: &Instance) -> Vec<u64> {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    inst.jobs
        .iter()
        .map(|j| {
            let mut h = DefaultHasher::new();
            j.value.to_bits().hash(&mut h);
            for s in &j.allowed {
                s.proc.hash(&mut h);
                s.time.hash(&mut h);
            }
            h.finish()
        })
        .collect()
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

/// Sorted, deduplicated dirty slot times per processor for the transition
/// `(prev_inst, prev_keys) → (inst, keys)`, per the rules in the module docs.
fn dirty_times_per_proc(
    prev_inst: &Instance,
    prev_keys: &[u64],
    inst: &Instance,
    keys: &[u64],
    num_processors: u32,
) -> Vec<Vec<u32>> {
    let mut dirty: Vec<Vec<u32>> = vec![Vec::new(); num_processors as usize];
    let mark = |dirty: &mut Vec<Vec<u32>>, s: &SlotRef| {
        dirty[s.proc as usize].push(s.time);
    };

    // FIFO pairing per key keeps the pairing deterministic under duplicates.
    let mut by_key: HashMap<u64, VecDeque<u32>> = HashMap::new();
    for (i, &k) in prev_keys.iter().enumerate() {
        by_key.entry(k).or_default().push_back(i as u32);
    }
    let mut paired = vec![false; prev_inst.num_jobs()];
    for (j, job) in inst.jobs.iter().enumerate() {
        match by_key.get_mut(&keys[j]).and_then(|q| q.pop_front()) {
            Some(i) => {
                paired[i as usize] = true;
                let prev_job = &prev_inst.jobs[i as usize];
                if prev_job.allowed != job.allowed {
                    mark_sym_diff(&prev_job.allowed, &job.allowed, &mut dirty);
                }
            }
            None => {
                for s in &job.allowed {
                    mark(&mut dirty, s);
                }
            }
        }
    }
    for (i, prev_job) in prev_inst.jobs.iter().enumerate() {
        if !paired[i] {
            for s in &prev_job.allowed {
                mark(&mut dirty, s);
            }
        }
    }
    for d in &mut dirty {
        d.sort_unstable();
        d.dedup();
    }
    dirty
}

/// `clean[i]` ⇔ no dirty time on `candidates[i]`'s processor falls inside its
/// `[start, end)` range (binary search per candidate).
/// Marks the symmetric difference of two allowed-slot lists into `dirty`,
/// by a two-pointer sweep over sorted views (trace windows are stored in
/// increasing time order; anything else falls back to sorted copies).
/// Duplicate slots within one list may over-mark relative to a set
/// difference — harmless, since extra dirty times only cost performance.
fn mark_sym_diff(a: &[SlotRef], b: &[SlotRef], dirty: &mut [Vec<u32>]) {
    let is_sorted = |v: &[SlotRef]| v.windows(2).all(|w| w[0] <= w[1]);
    let (sa, sb);
    let (a, b): (&[SlotRef], &[SlotRef]) = if is_sorted(a) && is_sorted(b) {
        (a, b)
    } else {
        sa = {
            let mut v = a.to_vec();
            v.sort_unstable();
            v
        };
        sb = {
            let mut v = b.to_vec();
            v.sort_unstable();
            v
        };
        (&sa, &sb)
    };
    let (mut i, mut j) = (0, 0);
    loop {
        match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x == y => {
                i += 1;
                j += 1;
            }
            (Some(&x), Some(&y)) if x < y => {
                dirty[x.proc as usize].push(x.time);
                i += 1;
            }
            (Some(&x), None) => {
                dirty[x.proc as usize].push(x.time);
                i += 1;
            }
            (_, Some(&y)) => {
                dirty[y.proc as usize].push(y.time);
                j += 1;
            }
            (None, None) => break,
        }
    }
}

fn clean_mask(candidates: &[CandidateInterval], dirty: &[Vec<u32>]) -> Vec<bool> {
    // Enumerated families group candidates into runs sharing (proc, start)
    // with strictly increasing ends, so one binary search per group finds
    // the first dirty time at or past `start`; within the group, clean is
    // just `end <= that time`. Candidates outside that layout still get the
    // right answer — the group degenerates to a single member.
    let mut clean = vec![false; candidates.len()];
    let mut i = 0;
    while i < candidates.len() {
        let c = &candidates[i];
        let d = &dirty[c.proc as usize];
        let k = d.partition_point(|&t| t < c.start);
        let limit = d.get(k).copied().unwrap_or(u32::MAX);
        let mut j = i;
        while j < candidates.len() && candidates[j].proc == c.proc && candidates[j].start == c.start
        {
            // half-open window [start, end): dirty time `limit` is outside
            // exactly when end <= limit
            clean[j] = candidates[j].end <= limit;
            j += 1;
        }
        i = j;
    }
    clean
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::AffineCost;
    use crate::model::Job;
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
        let steps: Vec<(Vec<u64>, Vec<Job>)> = vec![
            (
                vec![1, 2],
                vec![Job::window(1.0, 0, 0, 4), Job::window(1.0, 1, 2, 6)],
            ),
            (
                vec![1, 2, 3],
                vec![
                    Job::window(1.0, 0, 1, 4), // job 1 window shrank
                    Job::window(1.0, 1, 2, 6),
                    Job::window(1.0, 0, 6, 10), // arrival
                ],
            ),
            (
                vec![2, 3, 4],
                vec![
                    Job::window(1.0, 1, 3, 6), // shrank again
                    Job::window(1.0, 0, 6, 10),
                    Job::window(1.0, 1, 8, 12), // arrival
                ],
            ),
            (vec![4], vec![Job::window(1.0, 1, 9, 12)]),
        ];
        for (keys, jobs) in steps {
            let i = inst(jobs);
            let warm = h.solve(&i, &keys, &c);
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
    fn parallel_warm_solves_scan_once_each() {
        // Each solve runs exactly one gain scan, the seeded one that captures
        // the next seed, also with `parallel` set: the lazy greedy's first
        // keys read the memo that scan leaves instead of scanning again.
        use std::sync::Arc;
        let c = cost();
        let mut h = WarmHandle::with_options(
            CandidatePolicy::All,
            SolveOptions {
                lazy: true,
                parallel: true,
            },
        );
        let steps: [(Vec<u64>, Vec<Job>); 3] = [
            (
                vec![1, 2],
                vec![Job::window(1.0, 0, 0, 4), Job::window(1.0, 1, 2, 6)],
            ),
            (
                vec![1, 2, 3],
                vec![
                    Job::window(1.0, 0, 1, 4),
                    Job::window(1.0, 1, 2, 6),
                    Job::window(1.0, 0, 6, 10),
                ],
            ),
            (
                vec![2, 3],
                vec![Job::window(1.0, 1, 3, 6), Job::window(1.0, 0, 6, 10)],
            ),
        ];
        let registry = Arc::new(sched_obs::Registry::new());
        sched_obs::set_thread(Some(Arc::clone(&registry)));
        let results: Vec<_> = steps
            .iter()
            .map(|(keys, jobs)| {
                let i = inst(jobs.clone());
                (h.solve(&i, keys, &c), i)
            })
            .collect();
        sched_obs::set_thread(None);
        for (warm, i) in &results {
            assert_same(warm, &cold(i));
        }
        assert_eq!(h.stats(), WarmStats { warm: 2, cold: 1 });
        let scans = registry.histogram("core.objective.scan_gains_ns").count();
        assert_eq!(scans, 3, "one gain scan per solve");
    }

    #[test]
    fn identical_instance_is_served_from_cache() {
        let c = cost();
        let mut h = WarmHandle::new(CandidatePolicy::All);
        let i = inst(vec![Job::window(1.0, 0, 0, 5), Job::window(1.0, 1, 1, 7)]);
        let first = h.solve(&i, &[7, 9], &c);
        let second = h.solve(&i, &[7, 9], &c);
        assert_same(&first, &second);
        assert_eq!(h.stats(), WarmStats { warm: 1, cold: 1 });
    }

    #[test]
    fn cost_model_change_forces_cold_rebuild() {
        let c = cost();
        let mut h = WarmHandle::new(CandidatePolicy::All);
        let i = inst(vec![Job::window(1.0, 0, 0, 5)]);
        let sum0 = {
            h.solve(&i, &[1], &c).expect("feasible");
            h.checksum().expect("family cached")
        };
        // Same grid, different pricing: checksum must diverge and the handle
        // must fall back to a cold rebuild — with the correct new costs.
        let c2 = AffineCost::new(5.0, 2.0);
        let i2 = inst(vec![Job::window(1.0, 0, 0, 5), Job::window(1.0, 1, 3, 8)]);
        let warm = h.solve(&i2, &[1, 2], &c2);
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
        h.solve(&i, &[1], &c).expect("feasible");
        let i2 = Instance::new(3, 16, vec![Job::window(1.0, 2, 4, 9)]);
        let warm = h.solve(&i2, &[1], &c);
        let expected = Solver::new(&i2, &c).schedule_all();
        assert_same(&warm, &expected);
        assert_eq!(h.stats(), WarmStats { warm: 0, cold: 2 });
    }

    #[test]
    fn infeasible_steps_do_not_poison_seeds() {
        let c = cost();
        let mut h = WarmHandle::new(CandidatePolicy::All);
        let feasible = inst(vec![Job::window(1.0, 0, 0, 4)]);
        h.solve(&feasible, &[1], &c).expect("feasible");
        // A job with an empty allowed set returns early (no gain scan).
        let broken = inst(vec![
            Job::window(1.0, 0, 0, 4),
            Job {
                value: 1.0,
                allowed: vec![],
                work: None,
            },
        ]);
        let r = h.solve(&broken, &[1, 2], &c);
        assert!(matches!(r, Err(ScheduleError::Infeasible { .. })));
        // Over-subscribed slot: greedy-infeasible, but gains were produced.
        let tight = inst(vec![Job::unit(vec![SlotRef::new(0, 0)]); 3]);
        let r = h.solve(&tight, &[1, 2, 3], &c);
        assert_same(&r, &cold(&tight));
        // And a feasible follow-up still matches cold exactly.
        let next = inst(vec![Job::window(1.0, 0, 2, 6), Job::window(1.0, 1, 0, 9)]);
        assert_same(&h.solve(&next, &[1, 2], &c), &cold(&next));
    }

    #[test]
    fn empty_instance_round_trips() {
        let c = cost();
        let mut h = WarmHandle::new(CandidatePolicy::All);
        let empty = inst(vec![]);
        let r = h.solve(&empty, &[], &c).expect("trivially feasible");
        assert_eq!(r.scheduled_count, 0);
        assert!(r.awake.is_empty());
        let next = inst(vec![Job::window(1.0, 0, 0, 4)]);
        assert_same(&h.solve(&next, &[1], &c), &cold(&next));
    }

    #[test]
    fn content_keys_are_deterministic_and_content_sensitive() {
        let a = inst(vec![Job::window(1.0, 0, 0, 4), Job::window(1.0, 1, 2, 6)]);
        let b = inst(vec![Job::window(1.0, 0, 0, 4), Job::window(1.0, 1, 2, 6)]);
        assert_eq!(content_keys(&a), content_keys(&b));
        let c = inst(vec![Job::window(1.0, 0, 0, 5), Job::window(1.0, 1, 2, 6)]);
        assert_ne!(content_keys(&a)[0], content_keys(&c)[0]);
        assert_eq!(content_keys(&a)[1], content_keys(&c)[1]);
    }

    #[test]
    fn mispaired_keys_stay_bit_identical() {
        // Deliberately reuse one key for totally different jobs each step:
        // pairing is wrong every time, results must still match cold.
        let c = cost();
        let mut h = WarmHandle::new(CandidatePolicy::All);
        let steps = [
            inst(vec![Job::window(1.0, 0, 0, 4)]),
            inst(vec![Job::window(1.0, 1, 5, 11)]),
            inst(vec![Job::window(1.0, 0, 7, 12), Job::window(1.0, 1, 0, 3)]),
        ];
        for (k, i) in steps.iter().enumerate() {
            let keys = vec![42u64; i.num_jobs()];
            assert_same(&h.solve(i, &keys, &c), &cold(i));
            if k > 0 {
                assert!(h.stats().warm as usize >= k, "delta path should engage");
            }
        }
    }

    #[test]
    fn dirty_marking_covers_churn() {
        let prev = inst(vec![Job::window(1.0, 0, 0, 3), Job::window(1.0, 1, 4, 6)]);
        let next = inst(vec![Job::window(1.0, 0, 1, 3), Job::window(1.0, 1, 8, 10)]);
        // Key 1 pairs (window shrank by slot 0), key 2 expires, key 3 arrives.
        let dirty = dirty_times_per_proc(&prev, &[1, 2], &next, &[1, 3], 2);
        assert_eq!(dirty[0], vec![0]);
        assert_eq!(dirty[1], vec![4, 5, 8, 9]);
    }

    #[test]
    fn clean_mask_respects_half_open_ranges() {
        let cands = vec![
            CandidateInterval {
                proc: 0,
                start: 0,
                end: 3,
                cost: 1.0,
            },
            CandidateInterval {
                proc: 0,
                start: 3,
                end: 6,
                cost: 1.0,
            },
            CandidateInterval {
                proc: 1,
                start: 0,
                end: 6,
                cost: 1.0,
            },
        ];
        let dirty = vec![vec![3], vec![]];
        // Dirty time 3 on proc 0: [0,3) stays clean, [3,6) does not; proc 1
        // is untouched.
        assert_eq!(clean_mask(&cands, &dirty), vec![true, false, true]);
    }
}
