//! Comparison heuristics reported alongside the greedy in the experiments.

use bmatch::MatchingOracle;
use sched_core::objective::ScheduleReduction;
use sched_core::{CandidateInterval, EnergyCost, Instance};

/// Cost of the naive policy that keeps **every** processor awake for the
/// whole horizon. `None` if some processor cannot stay awake throughout
/// (infinite cost).
pub fn always_on_cost(inst: &Instance, cost: &dyn EnergyCost) -> Option<f64> {
    if inst.horizon == 0 {
        return Some(0.0);
    }
    let mut total = 0.0;
    for p in 0..inst.num_processors {
        let c = cost.cost(p, 0, inst.horizon);
        if c.is_infinite() {
            return None;
        }
        total += c;
    }
    Some(total)
}

/// Conflict-blind per-job set cover: repeatedly pick the candidate interval
/// covering the most not-yet-"covered" jobs per unit cost, where a job counts
/// as covered as soon as *one* of its allowed slots is awake — ignoring that
/// two jobs may need the same slot. Afterwards the true matching is computed;
/// the returned flag says whether the cover actually schedules everything.
///
/// This is the strawman that motivates the paper's matching-rank utility: on
/// contended instances it reports "covered" while the real schedule is
/// infeasible.
pub fn cover_each_job_greedy(
    inst: &Instance,
    candidates: &[CandidateInterval],
) -> (Vec<usize>, f64, bool) {
    let n = inst.num_jobs();
    let mut covered = vec![false; n];
    let mut chosen: Vec<usize> = Vec::new();
    let mut total_cost = 0.0;

    // which jobs does each candidate touch?
    let jobs_of: Vec<Vec<u32>> = candidates
        .iter()
        .map(|iv| {
            (0..n as u32)
                .filter(|&j| {
                    inst.jobs[j as usize]
                        .allowed
                        .iter()
                        .any(|s| iv.covers(s.proc, s.time))
                })
                .collect()
        })
        .collect();

    while covered.iter().any(|&c| !c) {
        let mut best = (0.0f64, usize::MAX);
        for (i, jobs) in jobs_of.iter().enumerate() {
            if chosen.contains(&i) {
                continue;
            }
            let newly = jobs.iter().filter(|&&j| !covered[j as usize]).count();
            if newly == 0 {
                continue;
            }
            let ratio = newly as f64 / candidates[i].cost;
            if ratio > best.0 {
                best = (ratio, i);
            }
        }
        if best.1 == usize::MAX {
            break; // some job cannot be covered at all
        }
        chosen.push(best.1);
        total_cost += candidates[best.1].cost;
        for &j in &jobs_of[best.1] {
            covered[j as usize] = true;
        }
    }

    // verify with the true matching
    let red = ScheduleReduction::build(inst, candidates);
    let mut oracle = MatchingOracle::new_cardinality(&red.graph);
    for &i in &chosen {
        oracle.commit(red.interval_slots(&candidates[i]));
    }
    let feasible = oracle.total() as usize == n;
    (chosen, total_cost, feasible)
}

/// Classical single-processor one-interval heuristic: schedule jobs EDF at
/// their earliest free slot, then merge awake runs separated by gaps shorter
/// than `alpha` (the restart cost), pricing with the `α + length` model.
///
/// Returns `None` when EDF fails (over-constrained windows) — unlike the
/// submodular greedy, this baseline has no fallback.
///
/// # Panics
/// Panics if the instance has more than one processor (the heuristic is
/// defined for the classical single-machine setting).
pub fn edf_gap_merge(inst: &Instance, alpha: f64) -> Option<f64> {
    assert_eq!(
        inst.num_processors, 1,
        "edf_gap_merge is a single-processor baseline"
    );
    let t = inst.horizon as usize;

    // windows: jobs sorted by deadline (last allowed slot)
    let mut jobs: Vec<(u32, u32)> = inst
        .jobs
        .iter()
        .map(|j| {
            let lo = j.allowed.iter().map(|s| s.time).min()?;
            let hi = j.allowed.iter().map(|s| s.time).max()?;
            Some((lo, hi))
        })
        .collect::<Option<Vec<_>>>()?;
    jobs.sort_by_key(|&(_, d)| d);

    let mut busy = vec![false; t];
    for &(r, d) in &jobs {
        let slot = (r..=d).find(|&u| !busy[u as usize])?;
        busy[slot as usize] = true;
    }

    // awake runs = busy slots; merge gaps < alpha
    let mut runs: Vec<(usize, usize)> = Vec::new();
    let mut u = 0;
    while u < t {
        if busy[u] {
            let start = u;
            while u < t && busy[u] {
                u += 1;
            }
            runs.push((start, u));
        } else {
            u += 1;
        }
    }
    if runs.is_empty() {
        return Some(0.0);
    }
    let mut merged: Vec<(usize, usize)> = vec![runs[0]];
    for &(s, e) in &runs[1..] {
        let last = merged.last_mut().unwrap();
        let gap = s - last.1;
        if (gap as f64) < alpha {
            last.1 = e; // keep the machine awake through the short gap
        } else {
            merged.push((s, e));
        }
    }
    Some(merged.iter().map(|&(s, e)| alpha + (e - s) as f64).sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_core::{
        enumerate_candidates, schedule_all, AffineCost, CandidatePolicy, Job, SlotRef, SolveOptions,
    };

    #[test]
    fn always_on_simple() {
        let inst = Instance::new(2, 5, vec![Job::window(1.0, 0, 0, 1)]);
        let c = AffineCost::new(2.0, 1.0);
        assert_eq!(always_on_cost(&inst, &c), Some(14.0)); // 2·(2+5)
    }

    #[test]
    fn always_on_zero_horizon() {
        let inst = Instance::new(3, 0, vec![]);
        assert_eq!(always_on_cost(&inst, &AffineCost::new(1.0, 1.0)), Some(0.0));
    }

    #[test]
    fn cover_blind_misses_conflicts() {
        // two jobs both needing slot (0,0) only: cover-greedy claims success
        // with one interval, but the matching check exposes infeasibility.
        let inst = Instance::new(
            1,
            1,
            vec![
                Job::unit(vec![SlotRef::new(0, 0)]),
                Job::unit(vec![SlotRef::new(0, 0)]),
            ],
        );
        let cands = enumerate_candidates(&inst, &AffineCost::new(1.0, 1.0), CandidatePolicy::All);
        let (_, _, feasible) = cover_each_job_greedy(&inst, &cands);
        assert!(!feasible, "strawman should be exposed as infeasible");
    }

    #[test]
    fn cover_blind_ok_when_no_conflicts() {
        let inst = Instance::new(
            1,
            4,
            vec![Job::window(1.0, 0, 0, 2), Job::window(1.0, 0, 2, 4)],
        );
        let cands = enumerate_candidates(&inst, &AffineCost::new(1.0, 1.0), CandidatePolicy::All);
        let (chosen, cost, feasible) = cover_each_job_greedy(&inst, &cands);
        assert!(feasible);
        assert!(!chosen.is_empty());
        assert!(cost > 0.0);
    }

    #[test]
    fn edf_gap_merge_matches_hand_example() {
        // jobs at t∈{0} and t∈{3}; alpha = 10 → merge into [0,4): 10 + 4 = 14
        let inst = Instance::new(
            1,
            4,
            vec![
                Job::unit(vec![SlotRef::new(0, 0)]),
                Job::unit(vec![SlotRef::new(0, 3)]),
            ],
        );
        assert_eq!(edf_gap_merge(&inst, 10.0), Some(14.0));
        // alpha = 0.5 → keep two runs: (0.5+1)·2 = 3
        assert_eq!(edf_gap_merge(&inst, 0.5), Some(3.0));
    }

    #[test]
    fn edf_fails_when_overconstrained() {
        let inst = Instance::new(
            1,
            1,
            vec![
                Job::unit(vec![SlotRef::new(0, 0)]),
                Job::unit(vec![SlotRef::new(0, 0)]),
            ],
        );
        assert_eq!(edf_gap_merge(&inst, 1.0), None);
    }

    #[test]
    fn greedy_competitive_with_edf_on_one_interval_instances() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for _ in 0..10 {
            let t = rng.gen_range(5..=10u32);
            let n = rng.gen_range(1..=4usize);
            let jobs: Vec<Job> = (0..n)
                .map(|_| {
                    let s = rng.gen_range(0..t);
                    let e = rng.gen_range(s + 1..=t);
                    Job::window(1.0, 0, s, e)
                })
                .collect();
            let inst = Instance::new(1, t, jobs);
            let alpha = rng.gen_range(1..=4) as f64;
            let cands =
                enumerate_candidates(&inst, &AffineCost::new(alpha, 1.0), CandidatePolicy::All);
            let greedy = schedule_all(&inst, &cands, &SolveOptions::default());
            let edf = edf_gap_merge(&inst, alpha);
            if let (Ok(g), Some(e)) = (greedy, edf) {
                // the greedy has a log n guarantee; EDF+merge has none — but
                // on these easy instances neither should be wildly worse
                let n = inst.num_jobs() as f64;
                let bound = 2.0 * (n + 1.0).log2().ceil();
                assert!(g.total_cost <= bound * e + 1e-9);
            }
        }
    }
}
