//! The pre-overhaul ("naive") solve path, retained verbatim.
//!
//! This module preserves the seed implementation that the bitset/arena fast
//! path replaced: per-candidate `Vec<Vec<u32>>` slot lists, per-(candidate ×
//! slot) degree lookups, and unmemoized candidate-by-candidate gain
//! evaluation. It exists for two reasons:
//!
//! 1. **Equivalence proof** — the proptest suite in
//!    `tests/fast_path_equivalence.rs` asserts the fast path produces
//!    bit-identical schedules to these functions across random instances;
//! 2. **Perf trajectory** — the `perf_harness` benchmarks both paths on the
//!    same pinned workloads, so `BENCH_solver.json` records the speedup as a
//!    reproducible number rather than a claim about an unmeasurable past.
//!
//! Nothing in the production call graph ([`crate::Solver`], the engine, the
//! simulator) routes through here.

use bmatch::{hall_violator, BipartiteGraphBuilder, GainScratch, MatchingOracle};
use submodular::{budgeted_greedy, BudgetedObjective, GreedyConfig};

use crate::candidates::CandidateInterval;
use crate::model::{Instance, Schedule, ScheduleError, SlotRef, SolveOptions};

/// The seed reduction: bipartite graph plus per-candidate slot-id vectors.
pub struct NaiveReduction {
    graph: bmatch::BipartiteGraph,
    slot_lists: Vec<Vec<u32>>,
    costs: Vec<f64>,
}

impl NaiveReduction {
    /// Builds the reduction exactly as the seed did: one heap-allocated slot
    /// list per candidate, filtering degree-0 slots through a CSR degree
    /// lookup per slot.
    pub fn build(inst: &Instance, candidates: &[CandidateInterval]) -> Self {
        let mut b = BipartiteGraphBuilder::new(inst.num_slots(), inst.num_jobs() as u32);
        for (jid, job) in inst.jobs.iter().enumerate() {
            for &s in &job.allowed {
                b.add_edge(inst.slot_id(s), jid as u32);
            }
        }
        let graph = b.build();

        let slot_lists = candidates
            .iter()
            .map(|iv| {
                (iv.start..iv.end)
                    .map(|t| inst.slot_id(SlotRef::new(iv.proc, t)))
                    .filter(|&sid| graph.deg_x(sid) > 0)
                    .collect()
            })
            .collect();
        let costs = candidates.iter().map(|iv| iv.cost).collect();

        Self {
            graph,
            slot_lists,
            costs,
        }
    }
}

/// The seed objective: candidate-by-candidate gain evaluation, no
/// memoization, no structured scans, no bounded first keys (it deliberately
/// overrides neither [`BudgetedObjective::scan_gains`] nor
/// [`BudgetedObjective::first_values`], so its lazy greedy opens with a full
/// scan).
pub struct NaiveObjective<'r> {
    red: &'r NaiveReduction,
    oracle: MatchingOracle<'r>,
}

impl<'r> NaiveObjective<'r> {
    /// Cardinality utility: every job counts 1.
    pub fn new_cardinality(red: &'r NaiveReduction) -> Self {
        Self {
            red,
            oracle: MatchingOracle::new_cardinality(&red.graph),
        }
    }

    /// Weighted utility: job `j` counts `values[j] > 0`.
    pub fn new_weighted(red: &'r NaiveReduction, values: Vec<f64>) -> Self {
        Self {
            red,
            oracle: MatchingOracle::new(&red.graph, values),
        }
    }

    fn extract_schedule(
        &self,
        inst: &Instance,
        candidates: &[CandidateInterval],
        chosen: &[usize],
    ) -> Schedule {
        let awake: Vec<CandidateInterval> = chosen.iter().map(|&i| candidates[i]).collect();
        let mut assignments = vec![None; inst.num_jobs()];
        let mut value = 0.0;
        let mut count = 0usize;
        for (slot_id, job) in self.oracle.matching() {
            assignments[job as usize] = Some(inst.slot_ref(slot_id));
            value += inst.jobs[job as usize].value;
            count += 1;
        }
        let total_cost = awake.iter().map(|iv| iv.cost).sum();
        Schedule {
            awake,
            assignments,
            total_cost,
            scheduled_value: value,
            scheduled_count: count,
        }
    }
}

impl BudgetedObjective for NaiveObjective<'_> {
    type Scratch = GainScratch;

    fn num_subsets(&self) -> usize {
        self.red.slot_lists.len()
    }

    fn cost(&self, i: usize) -> f64 {
        self.red.costs[i]
    }

    fn current(&self) -> f64 {
        self.oracle.total()
    }

    fn gain(&self, i: usize, scratch: &mut Self::Scratch) -> f64 {
        self.oracle.gain_of(&self.red.slot_lists[i], scratch)
    }

    fn commit(&mut self, i: usize) -> f64 {
        self.oracle.commit(&self.red.slot_lists[i])
    }
}

/// Seed implementation of Theorem 2.2.1 (schedule **all** jobs); the fast
/// path's [`crate::schedule_all`] must stay bit-identical to this.
pub fn naive_schedule_all(
    inst: &Instance,
    candidates: &[CandidateInterval],
    _opts: &SolveOptions,
) -> Result<Schedule, ScheduleError> {
    let n = inst.num_jobs();
    if n == 0 {
        return Ok(empty_schedule(inst));
    }
    if let Some((jid, _)) = inst
        .jobs
        .iter()
        .enumerate()
        .find(|(_, j)| j.allowed.is_empty())
    {
        return Err(ScheduleError::Infeasible {
            certificate: vec![jid as u32],
            achieved_value: 0.0,
        });
    }

    let red = NaiveReduction::build(inst, candidates);
    let mut obj = NaiveObjective::new_cardinality(&red);

    let x = n as f64;
    let out = budgeted_greedy(&mut obj, GreedyConfig::new(x, 1.0 / (x + 1.0)));
    if !out.reached_target {
        let certificate = hall_violator(&obj.oracle).unwrap_or_default();
        return Err(ScheduleError::Infeasible {
            certificate,
            achieved_value: out.utility,
        });
    }
    Ok(obj.extract_schedule(inst, candidates, &out.chosen))
}

/// Seed implementation of Theorem 2.3.1 (prize-collecting, `(1−ε)Z`).
pub fn naive_prize_collecting(
    inst: &Instance,
    candidates: &[CandidateInterval],
    target: f64,
    epsilon: f64,
    _opts: &SolveOptions,
) -> Result<Schedule, ScheduleError> {
    let total = inst.total_value();
    if target > total {
        return Err(ScheduleError::TargetExceedsTotalValue { target, total });
    }
    if target <= 0.0 {
        return Ok(empty_schedule(inst));
    }

    let red = NaiveReduction::build(inst, candidates);
    let values: Vec<f64> = inst.jobs.iter().map(|j| j.value).collect();
    let mut obj = NaiveObjective::new_weighted(&red, values);
    let out = budgeted_greedy(&mut obj, GreedyConfig::new(target, epsilon));
    if !out.reached_target {
        let certificate = hall_violator(&obj.oracle).unwrap_or_default();
        return Err(ScheduleError::Infeasible {
            certificate,
            achieved_value: out.utility,
        });
    }
    Ok(obj.extract_schedule(inst, candidates, &out.chosen))
}

/// Seed implementation of Theorem 2.3.3 (prize-collecting, exact `Z`).
pub fn naive_prize_collecting_exact(
    inst: &Instance,
    candidates: &[CandidateInterval],
    target: f64,
    _opts: &SolveOptions,
) -> Result<Schedule, ScheduleError> {
    let total = inst.total_value();
    if target > total {
        return Err(ScheduleError::TargetExceedsTotalValue { target, total });
    }
    if target <= 0.0 {
        return Ok(empty_schedule(inst));
    }

    let (v_min, v_max) = inst
        .value_range()
        .expect("non-empty instance since target > 0 and target <= total");
    let n = inst.num_jobs() as f64;
    let eps = (v_min / (n * v_max)).min(0.5);

    let red = NaiveReduction::build(inst, candidates);
    let values: Vec<f64> = inst.jobs.iter().map(|j| j.value).collect();
    let mut obj = NaiveObjective::new_weighted(&red, values);
    let out = budgeted_greedy(&mut obj, GreedyConfig::new(target, eps));
    if !out.reached_target {
        let certificate = hall_violator(&obj.oracle).unwrap_or_default();
        return Err(ScheduleError::Infeasible {
            certificate,
            achieved_value: out.utility,
        });
    }

    let mut chosen = out.chosen.clone();
    let mut scratch = GainScratch::new();
    while obj.current() < target {
        let mut best: Option<(f64, usize)> = None;
        for i in 0..obj.num_subsets() {
            if chosen.contains(&i) {
                continue;
            }
            let g = obj.gain(i, &mut scratch);
            if g > 0.0 {
                let c = obj.cost(i);
                if best.is_none_or(|(bc, _)| c < bc) {
                    best = Some((c, i));
                }
            }
        }
        let Some((_, idx)) = best else {
            let certificate = hall_violator(&obj.oracle).unwrap_or_default();
            return Err(ScheduleError::Infeasible {
                certificate,
                achieved_value: obj.current(),
            });
        };
        obj.commit(idx);
        chosen.push(idx);
    }

    Ok(obj.extract_schedule(inst, candidates, &chosen))
}

fn empty_schedule(inst: &Instance) -> Schedule {
    Schedule {
        awake: Vec::new(),
        assignments: vec![None; inst.num_jobs()],
        total_cost: 0.0,
        scheduled_value: 0.0,
        scheduled_count: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{enumerate_candidates, CandidatePolicy};
    use crate::cost::AffineCost;
    use crate::model::{validate_schedule, Job, SlotRef};

    #[test]
    fn naive_path_still_solves() {
        let inst = Instance::new(
            1,
            4,
            vec![
                Job::unit(vec![SlotRef::new(0, 0)]),
                Job::unit(vec![SlotRef::new(0, 3)]),
            ],
        );
        let cands = enumerate_candidates(&inst, &AffineCost::new(10.0, 1.0), CandidatePolicy::All);
        let s = naive_schedule_all(&inst, &cands, &SolveOptions::default()).unwrap();
        assert_eq!(s.total_cost, 14.0);
        assert!(validate_schedule(&inst, &s).is_empty());
    }
}
