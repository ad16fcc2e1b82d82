//! Theorems 2.3.1 and 2.3.3: the prize-collecting scheduling problem.
//!
//! Jobs carry values; the adversary schedules value ≥ `Z` at cost `B`.
//!
//! * [`prize_collecting`] (Thm 2.3.1): value ≥ `(1−ε)Z`, cost
//!   `O(B log 1/ε)` — the weighted matching rank (Lemma 2.3.2) is monotone
//!   submodular, so the Lemma 2.1.2 greedy applies directly.
//! * [`prize_collecting_exact`] (Thm 2.3.3): value ≥ `Z` exactly, cost
//!   `O((log n + log Δ)·B)` with `Δ = v_max/v_min`. Run the bicriteria
//!   algorithm with `ε = v_min/(n·v_max)`; since any positive marginal gain
//!   of the weighted rank equals some job's value ≥ `v_min` ≥ the residual
//!   `Z − F(S)`, one final cheapest positive-gain interval closes the gap.

use bmatch::hall_violator;
use submodular::{budgeted_greedy_in, BudgetedObjective, GreedyConfig};

use crate::candidates::CandidateInterval;
use crate::model::{Instance, Schedule, ScheduleError, SolveOptions};
use crate::objective::{ObjectiveScratch, ScheduleObjective, ScheduleReduction, SolveWorkspace};

/// Whether an entry point accepts `target` as a prize-collecting goal:
/// finite and positive. The solvers answer a target of zero or below with
/// an empty schedule; the CLI and the engine reject it instead, both by
/// this rule.
pub fn is_valid_target(target: f64) -> bool {
    target.is_finite() && target > 0.0
}

/// Schedules jobs of total value at least `(1−ε)·target` at cost within
/// `O(log 1/ε)` of any schedule achieving value `target` (Theorem 2.3.1).
///
/// Errors when even the relaxed goal is unreachable with the supplied
/// candidates (certificate included), or when `target` exceeds the total
/// value present in the instance.
///
/// Builds the bipartite reduction internally; repeated solves should go
/// through [`crate::Solver`], which keeps it across calls and calls
/// [`prize_collecting_with`]. `_opts` is ignored (see [`SolveOptions`]).
pub fn prize_collecting(
    inst: &Instance,
    candidates: &[CandidateInterval],
    target: f64,
    epsilon: f64,
    _opts: &SolveOptions,
) -> Result<Schedule, ScheduleError> {
    let red = ScheduleReduction::build(inst, candidates);
    prize_collecting_with(inst, &red, target, epsilon)
}

/// [`prize_collecting`] over a prebuilt [`ScheduleReduction`] (which must
/// have been built for exactly this `inst`).
pub fn prize_collecting_with(
    inst: &Instance,
    red: &ScheduleReduction,
    target: f64,
    epsilon: f64,
) -> Result<Schedule, ScheduleError> {
    prize_collecting_in(inst, red, target, epsilon, &mut SolveWorkspace::default())
}

/// [`prize_collecting_with`] on the arrays of `ws`.
pub(crate) fn prize_collecting_in(
    inst: &Instance,
    red: &ScheduleReduction,
    target: f64,
    epsilon: f64,
    ws: &mut SolveWorkspace,
) -> Result<Schedule, ScheduleError> {
    let total = inst.total_value();
    if target > total {
        return Err(ScheduleError::TargetExceedsTotalValue { target, total });
    }
    if target <= 0.0 {
        return Ok(empty_schedule(inst));
    }

    let values = inst.jobs.iter().map(|j| j.value);
    ws.run(red, values, |obj, scratch, greedy| {
        let out = budgeted_greedy_in(obj, GreedyConfig::new(target, epsilon), scratch, greedy);
        if !out.reached_target {
            let certificate = hall_violator(obj.oracle()).unwrap_or_default();
            return Err(ScheduleError::Infeasible {
                certificate,
                achieved_value: out.utility,
            });
        }
        Ok(obj.extract_schedule(inst, &[], &out.chosen))
    })
}

/// Schedules jobs of total value at least `target` — no `(1−ε)` slack — at
/// cost `O((log n + log Δ)·B)` (Theorem 2.3.3). `_opts` is ignored (see
/// [`SolveOptions`]).
pub fn prize_collecting_exact(
    inst: &Instance,
    candidates: &[CandidateInterval],
    target: f64,
    _opts: &SolveOptions,
) -> Result<Schedule, ScheduleError> {
    let red = ScheduleReduction::build(inst, candidates);
    prize_collecting_exact_with(inst, &red, target)
}

/// [`prize_collecting_exact`] over a prebuilt [`ScheduleReduction`] (which
/// must have been built for exactly this `inst`).
pub fn prize_collecting_exact_with(
    inst: &Instance,
    red: &ScheduleReduction,
    target: f64,
) -> Result<Schedule, ScheduleError> {
    prize_collecting_exact_in(inst, red, target, &mut SolveWorkspace::default())
}

/// [`prize_collecting_exact_with`] on the arrays of `ws`.
pub(crate) fn prize_collecting_exact_in(
    inst: &Instance,
    red: &ScheduleReduction,
    target: f64,
    ws: &mut SolveWorkspace,
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
    // Theorem 2.3.3's slack: ε = v_min / (n · v_max) ≤ 1/n, so the residual
    // after the bicriteria phase is ε·Z ≤ ε·n·v_max = v_min. Clamp away from
    // 1 for the degenerate n = 1 case.
    let eps = (v_min / (n * v_max)).min(0.5);

    let values = inst.jobs.iter().map(|j| j.value);
    ws.run(red, values, |obj, scratch, greedy| {
        let out = budgeted_greedy_in(obj, GreedyConfig::new(target, eps), scratch, greedy);
        if !out.reached_target {
            let certificate = hall_violator(obj.oracle()).unwrap_or_default();
            return Err(ScheduleError::Infeasible {
                certificate,
                achieved_value: out.utility,
            });
        }
        top_up(inst, obj, target, out.chosen)
    })
}

/// The top-up phase of [`prize_collecting_exact`] after its greedy picked
/// `chosen`: while short of `target`, commit the cheapest subset with any
/// positive gain. Any positive gain of the weighted rank is ≥ v_min ≥ the
/// residual, so mathematically one round suffices; the loop is defensive.
fn top_up(
    inst: &Instance,
    obj: &mut ScheduleObjective<'_>,
    target: f64,
    mut chosen: Vec<usize>,
) -> Result<Schedule, ScheduleError> {
    let mut scratch = ObjectiveScratch::default();
    let mut in_chosen = vec![false; obj.num_subsets()];
    for &i in &chosen {
        in_chosen[i] = true;
    }
    let mut gains: Vec<f64> = Vec::new();
    while obj.current() < target {
        obj.scan_gains(false, &mut scratch, &mut gains);
        let mut best: Option<(f64, usize)> = None;
        for (i, &g) in gains.iter().enumerate() {
            if in_chosen[i] {
                continue;
            }
            if g > 0.0 {
                let c = obj.cost(i);
                if best.is_none_or(|(bc, _)| c < bc) {
                    best = Some((c, i));
                }
            }
        }
        let Some((_, idx)) = best else {
            let certificate = hall_violator(obj.oracle()).unwrap_or_default();
            return Err(ScheduleError::Infeasible {
                certificate,
                achieved_value: obj.current(),
            });
        };
        obj.commit(idx);
        chosen.push(idx);
        in_chosen[idx] = true;
    }

    Ok(obj.extract_schedule(inst, &[], &chosen))
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
    use crate::cost::{AffineCost, EnergyCost};
    use crate::model::{validate_schedule, Instance, Job, SlotRef};

    fn value_skewed_instance() -> Instance {
        // expensive-to-reach low-value jobs at late slots; one high-value job
        // early. horizon 6, single processor.
        Instance::new(
            1,
            6,
            vec![
                Job::window(10.0, 0, 0, 1),
                Job::window(1.0, 0, 4, 6),
                Job::window(1.0, 0, 4, 6),
            ],
        )
    }

    fn cands(inst: &Instance, cost: &dyn crate::cost::EnergyCost) -> Vec<CandidateInterval> {
        enumerate_candidates(inst, cost, CandidatePolicy::All)
    }

    #[test]
    fn zero_target_trivial() {
        let inst = value_skewed_instance();
        let c = cands(&inst, &AffineCost::new(1.0, 1.0));
        let s = prize_collecting(&inst, &c, 0.0, 0.1, &SolveOptions::default()).unwrap();
        assert_eq!(s.total_cost, 0.0);
        assert_eq!(s.scheduled_count, 0);
    }

    #[test]
    fn target_above_total_rejected() {
        let inst = value_skewed_instance();
        let c = cands(&inst, &AffineCost::new(1.0, 1.0));
        let err = prize_collecting(&inst, &c, 13.0, 0.1, &SolveOptions::default()).unwrap_err();
        assert!(matches!(err, ScheduleError::TargetExceedsTotalValue { .. }));
    }

    #[test]
    fn picks_high_value_job_first() {
        let inst = value_skewed_instance();
        let c = cands(&inst, &AffineCost::new(1.0, 1.0));
        // target 10 with tight eps: the single high-value job suffices
        let s = prize_collecting(&inst, &c, 10.0, 0.01, &SolveOptions::default()).unwrap();
        assert!(s.scheduled_value >= 0.99 * 10.0);
        assert_eq!(s.assignments[0], Some(SlotRef::new(0, 0)));
        // only needs the [0,1) interval: cost 2
        assert_eq!(s.total_cost, 2.0);
        assert!(validate_schedule(&inst, &s).is_empty());
    }

    #[test]
    fn bicriteria_value_guarantee() {
        let inst = value_skewed_instance();
        let c = cands(&inst, &AffineCost::new(1.0, 1.0));
        for &(target, eps) in &[(11.0, 0.25), (12.0, 0.1), (6.0, 0.5)] {
            let s = prize_collecting(&inst, &c, target, eps, &SolveOptions::default()).unwrap();
            assert!(
                s.scheduled_value >= (1.0 - eps) * target - 1e-9,
                "value {} below (1-{eps})·{target}",
                s.scheduled_value
            );
            assert!(validate_schedule(&inst, &s).is_empty());
        }
    }

    #[test]
    fn exact_reaches_target_exactly_or_more() {
        let inst = value_skewed_instance();
        let c = cands(&inst, &AffineCost::new(1.0, 1.0));
        for &target in &[1.0, 6.0, 10.5, 11.0, 12.0] {
            let s = prize_collecting_exact(&inst, &c, target, &SolveOptions::default()).unwrap();
            assert!(
                s.scheduled_value >= target - 1e-9,
                "value {} below target {target}",
                s.scheduled_value
            );
            assert!(validate_schedule(&inst, &s).is_empty());
        }
    }

    #[test]
    fn exact_cost_bound_on_planted_instances() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(55);
        for _ in 0..8 {
            let t = rng.gen_range(6..=10u32);
            let alpha = rng.gen_range(1..=4) as f64;
            let cost = AffineCost::new(alpha, 1.0);
            // plant one interval holding all jobs
            let s0 = 1u32;
            let e0 = t;
            let mut jobs = Vec::new();
            for time in s0..e0 {
                jobs.push(Job::window(rng.gen_range(1..=8) as f64, 0, time, time + 1));
            }
            let inst = Instance::new(1, t, jobs);
            let planted_cost = cost.cost(0, s0, e0);
            let total = inst.total_value();
            let target = total * 0.9;
            let c = cands(&inst, &cost);
            let s = prize_collecting_exact(&inst, &c, target, &SolveOptions::default()).unwrap();
            assert!(s.scheduled_value >= target - 1e-9);
            let (vmin, vmax) = inst.value_range().unwrap();
            let n = inst.num_jobs() as f64;
            let delta = vmax / vmin;
            // cost ≤ 2B·ceil(log2(1/eps)) + B (top-up), eps = vmin/(n·vmax)
            let bound = planted_cost * (2.0 * (n * delta).log2().ceil() + 1.0);
            assert!(
                s.total_cost <= bound + 1e-9,
                "cost {} above bound {bound}",
                s.total_cost
            );
        }
    }

    #[test]
    fn infeasible_target_with_blocked_candidates() {
        // job value 5 at slot 0 only, but no candidate covers slot 0
        let inst = Instance::new(1, 3, vec![Job::window(5.0, 0, 0, 1)]);
        let c = vec![CandidateInterval {
            proc: 0,
            start: 1,
            end: 3,
            cost: 2.0,
        }];
        let err = prize_collecting(&inst, &c, 5.0, 0.1, &SolveOptions::default()).unwrap_err();
        assert!(matches!(err, ScheduleError::Infeasible { .. }));
        let err2 = prize_collecting_exact(&inst, &c, 5.0, &SolveOptions::default()).unwrap_err();
        assert!(matches!(err2, ScheduleError::Infeasible { .. }));
    }

    #[test]
    fn equal_values_match_cardinality_behaviour() {
        // With identical values (Δ = 1) prize-collecting at Z = n·v behaves
        // like schedule-all.
        let inst = Instance::new(
            1,
            4,
            vec![Job::window(2.0, 0, 0, 2), Job::window(2.0, 0, 2, 4)],
        );
        let c = cands(&inst, &AffineCost::new(1.0, 1.0));
        let s = prize_collecting_exact(&inst, &c, 4.0, &SolveOptions::default()).unwrap();
        assert_eq!(s.scheduled_count, 2);
        assert_eq!(s.scheduled_value, 4.0);
    }
}
