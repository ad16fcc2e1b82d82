//! Exact minimum-cost scheduling via pruned branch-and-bound over candidate
//! intervals.
//!
//! Exponential in the candidate count — intended for the small instances on
//! which experiments measure true approximation ratios. Pruning:
//!
//! * cost bound — abandon branches whose committed cost already meets the
//!   incumbent;
//! * reachability — abandon branches whose committed slots plus *all*
//!   remaining candidates still miss the utility target (one oracle gain
//!   query per node);
//! * candidate ordering — cheaper candidates first, which tightens the
//!   incumbent early.

use bmatch::{GainScratch, MatchingOracle};
use sched_core::objective::ScheduleReduction;
use sched_core::{CandidateInterval, Instance};

/// Result of an exact search.
#[derive(Clone, Debug, PartialEq)]
pub struct ExactResult {
    /// Chosen candidate indices (into the *original* candidate slice).
    pub chosen: Vec<usize>,
    /// Optimal cost.
    pub cost: f64,
    /// Number of search nodes expanded (diagnostics).
    pub nodes: u64,
}

/// Exact minimum-cost selection of candidates scheduling **all** jobs.
/// Returns `None` if infeasible or if `node_budget` is exhausted first.
pub fn exact_schedule_all(
    inst: &Instance,
    candidates: &[CandidateInterval],
    node_budget: u64,
) -> Option<ExactResult> {
    exact_min_cost(inst, candidates, None, inst.num_jobs() as f64, node_budget)
}

/// Exact minimum-cost selection achieving scheduled value ≥ `target`
/// (prize-collecting). Returns `None` if infeasible or out of node budget.
pub fn exact_prize_collecting(
    inst: &Instance,
    candidates: &[CandidateInterval],
    target: f64,
    node_budget: u64,
) -> Option<ExactResult> {
    let values: Vec<f64> = inst.jobs.iter().map(|j| j.value).collect();
    exact_min_cost(inst, candidates, Some(values), target, node_budget)
}

fn exact_min_cost(
    inst: &Instance,
    candidates: &[CandidateInterval],
    values: Option<Vec<f64>>,
    target: f64,
    node_budget: u64,
) -> Option<ExactResult> {
    if target <= 0.0 {
        return Some(ExactResult {
            chosen: Vec::new(),
            cost: 0.0,
            nodes: 0,
        });
    }
    let red = ScheduleReduction::build(inst, candidates);

    // order candidates by cost ascending (stable on index for determinism)
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by(|&a, &b| {
        candidates[a]
            .cost
            .partial_cmp(&candidates[b].cost)
            .unwrap()
            .then(a.cmp(&b))
    });

    let oracle = match &values {
        Some(v) => MatchingOracle::new(&red.graph, v.clone()),
        None => MatchingOracle::new_cardinality(&red.graph),
    };

    // all slots of candidates order[i..] concatenated, for reachability checks
    let mut suffix_slots: Vec<Vec<u32>> = vec![Vec::new(); order.len() + 1];
    for i in (0..order.len()).rev() {
        let mut s = suffix_slots[i + 1].clone();
        s.extend_from_slice(red.interval_slots(&candidates[order[i]]));
        suffix_slots[i] = s;
    }

    let mut best_cost = f64::INFINITY;
    let mut best_set: Option<Vec<usize>> = None;
    let mut nodes = 0u64;
    let mut scratch = GainScratch::new();
    let mut exhausted = false;

    // DFS stack: (next index, oracle state, picked set, cost)
    let mut stack: Vec<(usize, MatchingOracle<'_>, Vec<usize>, f64)> =
        vec![(0, oracle, Vec::new(), 0.0)];

    while let Some((i, mut o, picked, cost)) = stack.pop() {
        nodes += 1;
        if nodes > node_budget {
            exhausted = true;
            break;
        }
        if o.total() >= target - 1e-9 {
            if cost < best_cost {
                best_cost = cost;
                best_set = Some(picked);
            }
            continue;
        }
        if i == order.len() || cost >= best_cost {
            continue;
        }
        let potential = o.total() + o.gain_of(&suffix_slots[i], &mut scratch);
        if potential < target - 1e-9 {
            continue;
        }
        let cand = order[i];
        let c = candidates[cand].cost;

        // exclude branch pushed first so the include branch is explored
        // first (cheap candidates early → good incumbents fast)
        stack.push((i + 1, o.clone(), picked.clone(), cost));
        if cost + c < best_cost {
            o.commit(red.interval_slots(&candidates[cand]));
            let mut p2 = picked;
            p2.push(cand);
            stack.push((i + 1, o, p2, cost + c));
        }
    }

    if exhausted {
        return None;
    }
    best_set.map(|mut chosen| {
        chosen.sort_unstable();
        ExactResult {
            chosen,
            cost: best_cost,
            nodes,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_core::{
        enumerate_candidates, schedule_all, AffineCost, CandidatePolicy, Instance, Job,
        PowerProfile, ProfileCost, SlotRef, SolveOptions,
    };

    #[test]
    fn trivial_zero_target() {
        let inst = Instance::new(1, 2, vec![]);
        let r = exact_schedule_all(&inst, &[], 1000).unwrap();
        assert_eq!(r.cost, 0.0);
        assert!(r.chosen.is_empty());
    }

    #[test]
    fn matches_hand_computed_optimum() {
        // jobs at t=0 and t=3, restart 10 → one merged interval [0,4), cost 14
        let inst = Instance::new(
            1,
            4,
            vec![
                Job::unit(vec![SlotRef::new(0, 0)]),
                Job::unit(vec![SlotRef::new(0, 3)]),
            ],
        );
        let cands = enumerate_candidates(&inst, &AffineCost::new(10.0, 1.0), CandidatePolicy::All);
        let r = exact_schedule_all(&inst, &cands, 1_000_000).unwrap();
        assert_eq!(r.cost, 14.0);
    }

    #[test]
    fn heterogeneous_profiles_exact_picks_the_cheap_processor() {
        // one job runnable on either processor at t=1; proc 1 is far
        // cheaper, so the optimum is proc 1's single slot — and the greedy
        // over the same profiled candidates can never beat exact
        let inst = Instance::new(
            2,
            3,
            vec![Job::unit(vec![SlotRef::new(0, 1), SlotRef::new(1, 1)])],
        );
        let fleet = [
            PowerProfile::affine(9.0, 2.0),
            PowerProfile::affine(1.0, 0.5),
        ];
        let cost = ProfileCost::new(&fleet);
        let cands = enumerate_candidates(&inst, &cost, CandidatePolicy::All);
        let r = exact_schedule_all(&inst, &cands, 1_000_000).unwrap();
        assert_eq!(r.cost, 1.5);
        assert!(cands[r.chosen[0]].proc == 1);
        let greedy = schedule_all(&inst, &cands, &SolveOptions::default()).unwrap();
        assert!(greedy.total_cost >= r.cost - 1e-12);
        assert_eq!(greedy.total_cost, 1.5);
    }

    #[test]
    fn infeasible_returns_none() {
        let inst = Instance::new(
            1,
            1,
            vec![
                Job::unit(vec![SlotRef::new(0, 0)]),
                Job::unit(vec![SlotRef::new(0, 0)]),
            ],
        );
        let cands = enumerate_candidates(&inst, &AffineCost::new(1.0, 1.0), CandidatePolicy::All);
        assert!(exact_schedule_all(&inst, &cands, 1_000_000).is_none());
    }

    #[test]
    fn greedy_never_beats_exact_and_respects_log_bound() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for trial in 0..15 {
            let t = rng.gen_range(3..=6u32);
            let n_jobs = rng.gen_range(1..=4usize);
            let jobs: Vec<Job> = (0..n_jobs)
                .map(|_| {
                    let s = rng.gen_range(0..t);
                    let e = rng.gen_range(s + 1..=t);
                    Job::window(1.0, 0, s, e)
                })
                .collect();
            let inst = Instance::new(1, t, jobs);
            let alpha = rng.gen_range(1..=6) as f64;
            let cands =
                enumerate_candidates(&inst, &AffineCost::new(alpha, 1.0), CandidatePolicy::All);
            let exact = exact_schedule_all(&inst, &cands, 5_000_000);
            let greedy = schedule_all(&inst, &cands, &SolveOptions::default());
            match (exact, greedy) {
                (Some(ex), Ok(g)) => {
                    assert!(
                        g.total_cost >= ex.cost - 1e-9,
                        "trial {trial}: greedy {} beat exact {}",
                        g.total_cost,
                        ex.cost
                    );
                    let n = inst.num_jobs() as f64;
                    let bound = 2.0 * (n + 1.0).log2().ceil() * ex.cost;
                    assert!(
                        g.total_cost <= bound + 1e-9,
                        "trial {trial}: greedy {} above O(B log n) bound {bound}",
                        g.total_cost
                    );
                }
                (None, Err(_)) => {} // both infeasible: consistent
                (ex, g) => panic!(
                    "trial {trial}: feasibility disagreement {ex:?} vs {:?}",
                    g.is_ok()
                ),
            }
        }
    }

    #[test]
    fn prize_collecting_exact_beats_partial_targets() {
        let inst = Instance::new(
            1,
            4,
            vec![
                Job::window(5.0, 0, 0, 1),
                Job::window(3.0, 0, 2, 3),
                Job::window(1.0, 0, 3, 4),
            ],
        );
        let cands = enumerate_candidates(&inst, &AffineCost::new(2.0, 1.0), CandidatePolicy::All);
        // value 5 reachable with just [0,1): cost 3
        let r = exact_prize_collecting(&inst, &cands, 5.0, 1_000_000).unwrap();
        assert_eq!(r.cost, 3.0);
        // value 8 needs slots 0 and 2: either [0,3) cost 5 or two intervals 3+3=6
        let r8 = exact_prize_collecting(&inst, &cands, 8.0, 1_000_000).unwrap();
        assert_eq!(r8.cost, 5.0);
    }

    #[test]
    fn node_budget_exhaustion_returns_none() {
        let inst = Instance::new(
            1,
            6,
            (0..5).map(|i| Job::window(1.0, 0, i, i + 1)).collect(),
        );
        let cands = enumerate_candidates(&inst, &AffineCost::new(1.0, 1.0), CandidatePolicy::All);
        assert!(exact_schedule_all(&inst, &cands, 3).is_none());
    }
}
