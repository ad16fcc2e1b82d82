//! Theorem 2.2.1: schedule **all** jobs at cost `O(B log n)`.
//!
//! Reduction (§2.2): utility `F(S)` = maximum number of jobs matchable into
//! the slot set `S` (monotone submodular, Lemma 2.2.2). Run the Lemma 2.1.2
//! greedy with target `x = n` and `ε = 1/(n+1)`: since `F` is integral,
//! utility `> n − 1` forces utility `= n`, and the cost bound
//! `2B⌈log₂(n+1)⌉ = O(B log n)` follows. The final maximum bipartite matching
//! is read straight out of the incremental oracle.

use bmatch::hall_violator;
use submodular::{budgeted_greedy_with, GreedyConfig};

use crate::candidates::CandidateInterval;
use crate::model::{Instance, Schedule, ScheduleError, SolveOptions};
use crate::objective::{ObjectiveScratch, ScheduleObjective, ScheduleReduction};

/// Schedules every job of `inst` using awake intervals drawn from
/// `candidates`, with total cost within `O(log n)` of the cheapest such
/// schedule (Theorem 2.2.1).
///
/// Errors with [`ScheduleError::Infeasible`] — including a Hall-violator
/// certificate — when no sub-family of `candidates` can host all jobs.
/// (Feasibility is always relative to the candidate family; pass
/// [`crate::candidates::CandidatePolicy::All`] for the unrestricted problem.)
///
/// Builds the bipartite reduction internally; callers that solve on one
/// grid repeatedly (or mix goal methods) should go through
/// [`crate::Solver`], which keeps the reduction across calls and passes it
/// to [`schedule_all_with`]. `_opts` is ignored (see [`SolveOptions`]).
pub fn schedule_all(
    inst: &Instance,
    candidates: &[CandidateInterval],
    _opts: &SolveOptions,
) -> Result<Schedule, ScheduleError> {
    if inst.num_jobs() == 0 {
        return Ok(empty_schedule());
    }
    // The span covers the reduction build too, so a trace shows
    // solve ⊃ reduction on a cold solve.
    let _span = sched_obs::span!("core.solve.schedule_all_ns");
    let red = ScheduleReduction::build(inst, candidates);
    schedule_all_with(inst, &red)
}

/// [`schedule_all`] over a prebuilt [`ScheduleReduction`] (which must have
/// been built, or last rebuilt in place, for exactly this `inst`, from a
/// candidate family or from the slot windows).
///
/// The greedy runs over the reduction's window subsets, starting its lazy
/// heap from upper bounds, with no full gain scan; every chosen subset is
/// reported as the interval it stands for. This is the one solve behind
/// [`schedule_all`] and [`crate::Solver::schedule_all`].
pub fn schedule_all_with(
    inst: &Instance,
    red: &ScheduleReduction,
) -> Result<Schedule, ScheduleError> {
    let n = inst.num_jobs();
    if n == 0 {
        return Ok(empty_schedule());
    }

    // Jobs with no allowed slots are trivially infeasible.
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

    // No span here: the public entry points ([`schedule_all`],
    // [`crate::Solver::schedule_all`]) each open the
    // `core.solve.schedule_all_ns` span; opening another one would
    // double-count the solve.
    let mut obj = ScheduleObjective::new_cardinality(red);
    let mut scratch = ObjectiveScratch::default();

    let x = n as f64;
    let cfg = GreedyConfig::new(x, 1.0 / (x + 1.0));
    let out = budgeted_greedy_with(&mut obj, cfg, &mut scratch);
    flush_solve_telemetry(&obj, &scratch);

    // Integral utility: reaching (1 − 1/(n+1))·n > n−1 means all n jobs.
    if !out.reached_target {
        let certificate = hall_violator(obj.oracle()).unwrap_or_default();
        return Err(ScheduleError::Infeasible {
            certificate,
            achieved_value: out.utility,
        });
    }
    debug_assert_eq!(out.utility, x, "integral utility must hit n exactly");

    Ok(obj.extract_schedule(inst, &[], &out.chosen))
}

/// Flushes the per-solve batched counters (gain-memo hits, misses and
/// saturated answers, oracle augments, search edge visits) to the ambient
/// registry. The hot loops only bump plain integers; this is the single
/// point where they become metrics. The three memo counters are added even
/// when zero, so a snapshot of any solve names them: a solve whose runs
/// all saturate or go unevaluated has no memo hit, and reads 0, not a
/// missing row.
fn flush_solve_telemetry(obj: &ScheduleObjective<'_>, scratch: &ObjectiveScratch) {
    let (hits, misses) = scratch.memo_counts();
    sched_obs::with_active(|r| {
        r.counter("core.gain_memo.hits").add(hits);
        r.counter("core.gain_memo.misses").add(misses);
        r.counter("core.gain_memo.saturated")
            .add(scratch.memo_saturated());
    });
    let (augments, _) = obj.oracle().op_counts();
    sched_obs::counter_add("matching.oracle.augments", augments);
    sched_obs::counter_add(
        "matching.oracle.edge_visits",
        scratch.edge_visits() + obj.oracle().edge_visits(),
    );
}

fn empty_schedule() -> Schedule {
    Schedule {
        awake: Vec::new(),
        assignments: Vec::new(),
        total_cost: 0.0,
        scheduled_value: 0.0,
        scheduled_count: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{enumerate_candidates, CandidatePolicy};
    use crate::cost::{AffineCost, EnergyCost, TimeVaryingCost};
    use crate::model::{validate_schedule, Instance, Job, SlotRef};
    use crate::profile::{PowerProfile, ProfileCost};

    fn solve(
        inst: &Instance,
        cost: &dyn crate::cost::EnergyCost,
    ) -> Result<Schedule, ScheduleError> {
        let cands = enumerate_candidates(inst, cost, CandidatePolicy::All);
        schedule_all(inst, &cands, &SolveOptions::default())
    }

    #[test]
    fn empty_instance_trivially_scheduled() {
        let inst = Instance::new(1, 4, vec![]);
        let s = solve(&inst, &AffineCost::new(1.0, 1.0)).unwrap();
        assert_eq!(s.total_cost, 0.0);
        assert_eq!(s.scheduled_count, 0);
    }

    #[test]
    fn single_job_single_slot() {
        let inst = Instance::new(1, 3, vec![Job::unit(vec![SlotRef::new(0, 1)])]);
        let s = solve(&inst, &AffineCost::new(2.0, 1.0)).unwrap();
        assert_eq!(s.scheduled_count, 1);
        assert_eq!(s.assignments[0], Some(SlotRef::new(0, 1)));
        // cheapest awake interval containing slot 1 costs restart 2 + len 1 = 3
        assert_eq!(s.total_cost, 3.0);
        assert!(validate_schedule(&inst, &s).is_empty());
    }

    #[test]
    fn merges_intervals_when_restart_is_expensive() {
        // two jobs at t=0 and t=3; restart cost 10 makes one interval [0,4)
        // (cost 14) cheaper than two singletons (cost 22)
        let inst = Instance::new(
            1,
            4,
            vec![
                Job::unit(vec![SlotRef::new(0, 0)]),
                Job::unit(vec![SlotRef::new(0, 3)]),
            ],
        );
        let s = solve(&inst, &AffineCost::new(10.0, 1.0)).unwrap();
        assert_eq!(s.scheduled_count, 2);
        assert_eq!(s.awake.len(), 1);
        assert_eq!(s.total_cost, 14.0);
        assert!(validate_schedule(&inst, &s).is_empty());
    }

    #[test]
    fn splits_intervals_when_restart_is_cheap() {
        // same jobs, restart 0.5: two singletons (cost 3) beat [0,4) (4.5)
        let inst = Instance::new(
            1,
            4,
            vec![
                Job::unit(vec![SlotRef::new(0, 0)]),
                Job::unit(vec![SlotRef::new(0, 3)]),
            ],
        );
        let s = solve(&inst, &AffineCost::new(0.5, 1.0)).unwrap();
        assert_eq!(s.scheduled_count, 2);
        assert_eq!(s.awake.len(), 2);
        assert_eq!(s.total_cost, 3.0);
    }

    #[test]
    fn conflict_forces_two_processors() {
        // two jobs only at t=0; needs both processors awake at t=0
        let inst = Instance::new(
            2,
            2,
            vec![
                Job::unit(vec![SlotRef::new(0, 0), SlotRef::new(1, 0)]),
                Job::unit(vec![SlotRef::new(0, 0), SlotRef::new(1, 0)]),
            ],
        );
        let s = solve(&inst, &AffineCost::new(1.0, 1.0)).unwrap();
        assert_eq!(s.scheduled_count, 2);
        let procs: std::collections::HashSet<u32> =
            s.assignments.iter().map(|a| a.unwrap().proc).collect();
        assert_eq!(procs.len(), 2);
        assert!(validate_schedule(&inst, &s).is_empty());
    }

    #[test]
    fn infeasible_too_many_jobs_for_slots() {
        // three jobs, all only at slot (0,0): Hall violator expected
        let jobs = vec![
            Job::unit(vec![SlotRef::new(0, 0)]),
            Job::unit(vec![SlotRef::new(0, 0)]),
            Job::unit(vec![SlotRef::new(0, 0)]),
        ];
        let inst = Instance::new(1, 2, jobs);
        let err = solve(&inst, &AffineCost::new(1.0, 1.0)).unwrap_err();
        match err {
            ScheduleError::Infeasible {
                certificate,
                achieved_value,
            } => {
                assert_eq!(achieved_value, 1.0);
                // the violator found from one unsaturated job contains that
                // job plus the one matched into slot (0,0): 2 jobs vs 1 slot
                assert!(
                    certificate.len() >= 2,
                    "violator too small: {certificate:?}"
                );
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn explicit_candidates_used_verbatim() {
        // a family that cannot host the job: nothing is re-enumerated
        let inst = Instance::new(1, 3, vec![Job::window(5.0, 0, 0, 1)]);
        let family = [CandidateInterval {
            proc: 0,
            start: 1,
            end: 3,
            cost: 2.0,
        }];
        assert!(matches!(
            schedule_all(&inst, &family, &SolveOptions::default()),
            Err(ScheduleError::Infeasible { .. })
        ));
    }

    #[test]
    fn job_with_no_slots_is_infeasible() {
        let inst = Instance::new(1, 2, vec![Job::unit(vec![])]);
        let err = solve(&inst, &AffineCost::new(1.0, 1.0)).unwrap_err();
        assert!(matches!(err, ScheduleError::Infeasible { .. }));
    }

    #[test]
    fn heterogeneous_processors_prefer_cheap_one() {
        // job can run on either processor at t=0; proc 1 is much cheaper
        let inst = Instance::new(
            2,
            1,
            vec![Job::unit(vec![SlotRef::new(0, 0), SlotRef::new(1, 0)])],
        );
        let cost = ProfileCost::new(&[
            PowerProfile::affine(10.0, 1.0),
            PowerProfile::affine(0.5, 0.5),
        ]);
        let s = solve(&inst, &cost).unwrap();
        assert_eq!(s.assignments[0].unwrap().proc, 1);
        assert_eq!(s.total_cost, 1.0);
    }

    #[test]
    fn time_varying_prices_steer_awake_intervals() {
        // job may run at t=0 or t=2; t=0 is pricey, t=2 cheap
        let inst = Instance::new(
            1,
            3,
            vec![Job::unit(vec![SlotRef::new(0, 0), SlotRef::new(0, 2)])],
        );
        let cost = TimeVaryingCost::new(1.0, vec![vec![50.0, 1.0, 1.0]]);
        let s = solve(&inst, &cost).unwrap();
        assert_eq!(s.assignments[0], Some(SlotRef::new(0, 2)));
        assert_eq!(s.total_cost, 2.0);
    }

    #[test]
    fn multi_interval_jobs_use_any_window() {
        // job 0: [0,1) ∪ [4,5); job 1: [4,5) only. Cheapest: both in [4,6)?
        // job windows force both at t=4.. only one slot each — job1 takes
        // (0,4), job0 its other window (0,0) or... verify feasibility+validity
        let inst = Instance::new(
            1,
            6,
            vec![
                Job::unit(vec![SlotRef::new(0, 0), SlotRef::new(0, 4)]),
                Job::unit(vec![SlotRef::new(0, 4)]),
            ],
        );
        let s = solve(&inst, &AffineCost::new(1.0, 1.0)).unwrap();
        assert_eq!(s.scheduled_count, 2);
        assert_eq!(s.assignments[1], Some(SlotRef::new(0, 4)));
        assert_eq!(s.assignments[0], Some(SlotRef::new(0, 0)));
        assert!(validate_schedule(&inst, &s).is_empty());
    }

    #[test]
    fn log_n_bound_holds_on_planted_instances() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
        for trial in 0..10 {
            // plant: one awake interval per processor covering all jobs
            let p = rng.gen_range(1..=3u32);
            let t = rng.gen_range(6..=12u32);
            let alpha = rng.gen_range(1..=5) as f64;
            let cost = AffineCost::new(alpha, 1.0);
            let mut jobs = Vec::new();
            let mut planted_cost = 0.0;
            for proc in 0..p {
                let s = rng.gen_range(0..t / 2);
                let e = rng.gen_range(s + 1..=t);
                planted_cost += cost.cost(proc, s, e);
                // fill the interval with jobs (distinct slots)
                for time in s..e {
                    if rng.gen_bool(0.7) {
                        jobs.push(Job::unit(vec![SlotRef::new(proc, time)]));
                    }
                }
            }
            if jobs.is_empty() {
                continue;
            }
            let n = jobs.len() as f64;
            let inst = Instance::new(p, t, jobs);
            let s = solve(&inst, &cost).unwrap();
            assert_eq!(s.scheduled_count, inst.num_jobs());
            let bound = 2.0 * (n + 1.0).log2().ceil() * planted_cost;
            assert!(
                s.total_cost <= bound + 1e-9,
                "trial {trial}: cost {} exceeds O(B log n) bound {bound} (B={planted_cost})",
                s.total_cost
            );
            assert!(validate_schedule(&inst, &s).is_empty());
        }
    }

    #[test]
    fn eager_and_lazy_agree() {
        // `SolveOptions` is ignored: every spelling runs the one lazy
        // greedy, so all three answers are bit-identical.
        let inst = Instance::new(
            2,
            5,
            vec![
                Job::window(1.0, 0, 0, 3),
                Job::window(1.0, 0, 2, 5),
                Job::window(1.0, 1, 1, 4),
            ],
        );
        let cands = enumerate_candidates(&inst, &AffineCost::new(2.0, 1.0), CandidatePolicy::All);
        let lazy = schedule_all(
            &inst,
            &cands,
            &SolveOptions {
                lazy: true,
                parallel: false,
            },
        )
        .unwrap();
        let eager = schedule_all(
            &inst,
            &cands,
            &SolveOptions {
                lazy: false,
                parallel: false,
            },
        )
        .unwrap();
        assert_eq!(lazy.total_cost.to_bits(), eager.total_cost.to_bits());
        assert_eq!(lazy.awake, eager.awake);
        let par = schedule_all(
            &inst,
            &cands,
            &SolveOptions {
                lazy: false,
                parallel: true,
            },
        )
        .unwrap();
        assert_eq!(lazy.total_cost.to_bits(), par.total_cost.to_bits());
        assert_eq!(lazy.awake, par.awake);
    }
}
