//! Appendix .2: prize-collecting gap-budget scheduling on one processor.
//!
//! The classical minimum-gap setting (Baptiste 2006, Demaine et al. 2007)
//! has the machine asleep whenever idle: awake slots are exactly the busy
//! slots, and a *gap* is a maximal idle period (one restart each).
//! Theorem .2.1 of the paper adapts that DP to the prize-collecting
//! question: **maximize scheduled value using at most `g` awake runs**.
//!
//! This module provides:
//!
//! * [`max_value_with_budget`] — an exact solver enumerating awake-run
//!   structures with matching-oracle leaves, enforcing the busy-when-awake
//!   constraint (every awake slot hosts a job). Exact for the moderate
//!   horizons the experiments use. It stands in for the paper's
//!   `O(n·p⁵·g)` DP, the asymptotically polynomial version of the same
//!   computation, because both return the exact optimum.
//! * [`value_of_awake_set`] — max total value schedulable in a fixed awake
//!   set (idling allowed; Chapter 2's relaxed semantics), used by tests and
//!   the exact solver's relaxation bound.

use bmatch::{BipartiteGraphBuilder, MatchingOracle, NONE};
use sched_core::Instance;

/// Maximum total value of jobs schedulable into the awake slot set `awake`
/// (idling allowed). Works for multi-processor instances too since slots are
/// dense global ids.
pub fn value_of_awake_set(inst: &Instance, awake: &[u32]) -> f64 {
    let mut b = BipartiteGraphBuilder::new(inst.num_slots(), inst.num_jobs() as u32);
    for (jid, job) in inst.jobs.iter().enumerate() {
        for &s in &job.allowed {
            b.add_edge(inst.slot_id(s), jid as u32);
        }
    }
    let g = b.build();
    let values: Vec<f64> = inst.jobs.iter().map(|j| j.value).collect();
    if values.is_empty() {
        return 0.0;
    }
    let mut oracle = MatchingOracle::new(&g, values);
    oracle.commit(awake);
    oracle.total()
}

/// Result of the gap-budget optimization.
#[derive(Clone, Debug, PartialEq)]
pub struct GapBudgetResult {
    /// Chosen awake runs `[start, end)` on processor 0 (every slot busy).
    pub intervals: Vec<(u32, u32)>,
    /// Maximum achievable scheduled value.
    pub value: f64,
}

/// Exact maximum scheduled value on a single processor using at most
/// `max_runs` awake runs (the paper's gap budget is `g = max_runs − 1`
/// interior restarts), under the classical busy-when-awake semantics:
/// every awake slot must host a scheduled job.
///
/// Search over run structures with two prunings: (i) a run prefix whose
/// slots cannot all be saturated is abandoned (adding more awake slots never
/// helps saturate earlier ones); (ii) branches stop once the full instance
/// value is reached. Intended for the small-horizon exact comparisons of the
/// experiments; see the module docs for the relation to the paper's DP.
///
/// # Panics
/// Panics if the instance has more than one processor.
pub fn max_value_with_budget(inst: &Instance, max_runs: u32) -> GapBudgetResult {
    assert_eq!(
        inst.num_processors, 1,
        "gap-budget DP is the single-processor Appendix .2 setting"
    );
    let t = inst.horizon;
    if inst.num_jobs() == 0 || max_runs == 0 || t == 0 {
        return GapBudgetResult {
            intervals: Vec::new(),
            value: 0.0,
        };
    }

    let mut b = BipartiteGraphBuilder::new(inst.num_slots(), inst.num_jobs() as u32);
    for (jid, job) in inst.jobs.iter().enumerate() {
        for &s in &job.allowed {
            b.add_edge(inst.slot_id(s), jid as u32);
        }
    }
    let g = b.build();

    // Boosted values: v'_j = v_j + M with M > Σv forces the weighted oracle
    // to maximize cardinality first, then value — so a selection saturates
    // its awake set iff matched_count == awake count, and the true value is
    // total − M·matched_count.
    let raw: Vec<f64> = inst.jobs.iter().map(|j| j.value).collect();
    let total_value: f64 = raw.iter().sum();
    let m_boost = total_value + 1.0;
    let boosted: Vec<f64> = raw.iter().map(|&v| v + m_boost).collect();
    let base = MatchingOracle::new(&g, boosted);

    let mut best = GapBudgetResult {
        intervals: Vec::new(),
        value: 0.0,
    };

    // DFS over run structures. Oracle state is cloned per branch — fine at
    // the horizons this solver is documented for.
    struct Node<'g> {
        /// Next slot a new run may start at.
        from: u32,
        /// Runs still available.
        remaining: u32,
        oracle: MatchingOracle<'g>,
        /// Awake slots committed so far.
        awake: u32,
        /// Chosen runs.
        chosen: Vec<(u32, u32)>,
    }
    let mut stack = vec![Node {
        from: 0,
        remaining: max_runs,
        oracle: base,
        awake: 0,
        chosen: Vec::new(),
    }];
    while let Some(Node {
        from,
        remaining,
        oracle,
        awake,
        chosen,
    }) = stack.pop()
    {
        let value = oracle.total() - m_boost * awake as f64;
        debug_assert!(value >= -1e-6);
        if value > best.value {
            best.value = value;
            best.intervals = chosen.clone();
        }
        if remaining == 0 || from >= t || best.value >= total_value {
            continue;
        }
        for start in from..t {
            for end in (start + 1)..=t {
                let mut o = oracle.clone();
                let slots: Vec<u32> = (start..end).collect(); // proc 0: id == time
                o.commit(&slots);
                let new_awake = awake + (end - start);
                // busy-when-awake: every awake slot matched, else prune —
                // longer runs from this start will be deficient too, but the
                // oracle is cheap enough that we simply skip this (start,end).
                let matched = o
                    .matching()
                    .filter(|&(x, y)| x != NONE && y != NONE)
                    .count() as u32;
                if matched != new_awake {
                    continue;
                }
                let mut c = chosen.clone();
                c.push((start, end));
                // next run must leave a gap of at least one slot
                stack.push(Node {
                    from: end + 1,
                    remaining: remaining - 1,
                    oracle: o,
                    awake: new_awake,
                    chosen: c,
                });
            }
        }
    }
    best
}

/// The classical *minimum-gap* objective (Baptiste 2006): the smallest number
/// of awake runs that schedules **every** job on the single processor, or
/// `None` if no awake set schedules them all. Computed by searching the run
/// budget upward with [`max_value_with_budget`]; exact, small horizons only
/// (see the module docs).
pub fn min_runs_schedule_all(inst: &Instance) -> Option<u32> {
    let total: f64 = inst.jobs.iter().map(|j| j.value).sum();
    if inst.num_jobs() == 0 {
        return Some(0);
    }
    let max_budget = inst.num_jobs() as u32; // one run per job always suffices if feasible
    (1..=max_budget).find(|&g| max_value_with_budget(inst, g).value >= total - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_core::{Instance, Job, SlotRef};

    fn inst(t: u32, jobs: Vec<Job>) -> Instance {
        Instance::new(1, t, jobs)
    }

    #[test]
    fn value_of_awake_set_counts_weighted_jobs() {
        let i = inst(
            4,
            vec![Job::window(5.0, 0, 0, 2), Job::window(3.0, 0, 0, 2)],
        );
        assert_eq!(value_of_awake_set(&i, &[0, 1]), 8.0);
        assert_eq!(value_of_awake_set(&i, &[0]), 5.0);
        assert_eq!(value_of_awake_set(&i, &[3]), 0.0);
        assert_eq!(value_of_awake_set(&i, &[]), 0.0);
    }

    #[test]
    fn one_run_picks_denser_cluster() {
        // busy-when-awake: a run spanning [0,6) would idle at t∈{2,3,4} — not
        // allowed. One run can either host the two value-3 jobs ([0,2)) or
        // the value-10 job ([5,6)).
        let i = inst(
            6,
            vec![
                Job::window(3.0, 0, 0, 2),
                Job::window(3.0, 0, 0, 2),
                Job::window(10.0, 0, 5, 6),
            ],
        );
        let r = max_value_with_budget(&i, 1);
        assert_eq!(r.value, 10.0);
        assert_eq!(r.intervals, vec![(5, 6)]);
    }

    #[test]
    fn two_runs_capture_both_clusters() {
        let i = inst(
            6,
            vec![
                Job::window(3.0, 0, 0, 2),
                Job::window(3.0, 0, 0, 2),
                Job::window(10.0, 0, 5, 6),
            ],
        );
        let r = max_value_with_budget(&i, 2);
        assert_eq!(r.value, 16.0);
        assert_eq!(r.intervals.len(), 2);
        assert!(
            r.intervals[1].0 > r.intervals[0].1,
            "runs must be separated"
        );
    }

    #[test]
    fn budget_monotone_in_g() {
        let i = inst(
            8,
            vec![
                Job::window(1.0, 0, 0, 1),
                Job::window(2.0, 0, 3, 4),
                Job::window(4.0, 0, 6, 7),
            ],
        );
        let mut prev = 0.0;
        for g in 1..=3 {
            let r = max_value_with_budget(&i, g);
            assert!(r.value >= prev, "value decreased as budget grew");
            prev = r.value;
        }
        assert_eq!(prev, 7.0);
    }

    #[test]
    fn zero_budget_or_empty() {
        let i = inst(3, vec![Job::window(1.0, 0, 0, 3)]);
        assert_eq!(max_value_with_budget(&i, 0).value, 0.0);
        let empty = inst(3, vec![]);
        assert_eq!(max_value_with_budget(&empty, 2).value, 0.0);
    }

    #[test]
    fn flexible_jobs_merge_into_one_run() {
        // three jobs each allowed anywhere in [0,3): one run of length 3,
        // fully busy, schedules all of them
        let i = inst(
            3,
            vec![
                Job::window(1.0, 0, 0, 3),
                Job::window(1.0, 0, 0, 3),
                Job::window(1.0, 0, 0, 3),
            ],
        );
        let r = max_value_with_budget(&i, 1);
        assert_eq!(r.value, 3.0);
        assert_eq!(r.intervals, vec![(0, 3)]);
    }

    #[test]
    fn matches_brute_force_on_random_small() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for trial in 0..12 {
            let t = rng.gen_range(3..7u32);
            let n = rng.gen_range(1..5usize);
            let jobs: Vec<Job> = (0..n)
                .map(|_| {
                    let s = rng.gen_range(0..t);
                    let e = rng.gen_range(s + 1..=t);
                    Job::window(rng.gen_range(1..6) as f64, 0, s, e)
                })
                .collect();
            let i = inst(t, jobs);
            let budget = rng.gen_range(1..3u32);
            let dp = max_value_with_budget(&i, budget);
            // brute force over awake masks with ≤ budget runs and full
            // saturation (busy-when-awake)
            let mut best = 0.0f64;
            for mask in 0u32..(1 << t) {
                if count_runs(mask, t) > budget {
                    continue;
                }
                let awake: Vec<u32> = (0..t).filter(|&s| mask >> s & 1 == 1).collect();
                if !fully_saturable(&i, &awake) {
                    continue;
                }
                best = best.max(value_of_awake_set(&i, &awake));
            }
            assert_eq!(
                dp.value, best,
                "trial {trial}: DP disagrees with brute force"
            );
        }
    }

    /// Can every awake slot be matched to some job simultaneously?
    fn fully_saturable(inst: &Instance, awake: &[u32]) -> bool {
        let mut b = BipartiteGraphBuilder::new(inst.num_slots(), inst.num_jobs() as u32);
        for (jid, job) in inst.jobs.iter().enumerate() {
            for &s in &job.allowed {
                b.add_edge(inst.slot_id(s), jid as u32);
            }
        }
        let g = b.build();
        let allowed: std::collections::HashSet<u32> = awake.iter().copied().collect();
        let m = bmatch::hopcroft_karp(&g, |x| allowed.contains(&x));
        m.size == awake.len()
    }

    fn count_runs(mask: u32, t: u32) -> u32 {
        let mut runs = 0;
        let mut prev = false;
        for s in 0..t {
            let cur = mask >> s & 1 == 1;
            if cur && !prev {
                runs += 1;
            }
            prev = cur;
        }
        runs
    }

    #[test]
    #[should_panic(expected = "single-processor")]
    fn multi_processor_rejected() {
        let i = Instance::new(2, 3, vec![Job::window(1.0, 0, 0, 1)]);
        max_value_with_budget(&i, 1);
    }

    #[test]
    fn min_runs_matches_structure() {
        // pinned jobs at t = 0, 3, 6: three isolated runs needed
        let i = inst(
            7,
            vec![
                Job::unit(vec![SlotRef::new(0, 0)]),
                Job::unit(vec![SlotRef::new(0, 3)]),
                Job::unit(vec![SlotRef::new(0, 6)]),
            ],
        );
        assert_eq!(min_runs_schedule_all(&i), Some(3));
        // flexible jobs compress into one run
        let j = inst(
            4,
            vec![
                Job::window(1.0, 0, 0, 4),
                Job::window(1.0, 0, 0, 4),
                Job::window(1.0, 0, 0, 4),
            ],
        );
        assert_eq!(min_runs_schedule_all(&j), Some(1));
    }

    #[test]
    fn min_runs_infeasible_and_empty() {
        let i = inst(
            1,
            vec![
                Job::unit(vec![SlotRef::new(0, 0)]),
                Job::unit(vec![SlotRef::new(0, 0)]),
            ],
        );
        assert_eq!(min_runs_schedule_all(&i), None);
        assert_eq!(min_runs_schedule_all(&inst(3, vec![])), Some(0));
    }

    #[test]
    fn min_runs_adjacent_jobs_share_a_run() {
        // jobs at t=0,1 and t=4: two runs
        let i = inst(
            5,
            vec![
                Job::unit(vec![SlotRef::new(0, 0)]),
                Job::unit(vec![SlotRef::new(0, 1)]),
                Job::unit(vec![SlotRef::new(0, 4)]),
            ],
        );
        assert_eq!(min_runs_schedule_all(&i), Some(2));
    }
}
