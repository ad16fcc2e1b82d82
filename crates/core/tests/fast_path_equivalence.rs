//! The fast path's correctness contract: **bit-identical** schedules to the
//! retained naive (seed) implementation.
//!
//! Every hot-path trick — flat CSR slot lists, nested-prefix run scans,
//! component-memoized gains, the reduction a `Solver` keeps across calls — claims
//! to change *nothing* about what the greedy computes, only how fast it
//! computes it. These proptests pin that claim across random instances and
//! cost models, comparing full `Schedule` values (awake intervals with their
//! exact `f64` costs, per-job assignments, totals) and error cases.

use proptest::prelude::*;
use sched_core::naive::{naive_prize_collecting, naive_prize_collecting_exact, naive_schedule_all};
use sched_core::{
    enumerate_candidates, prize_collecting, prize_collecting_exact, schedule_all, AffineCost,
    CandidatePolicy, EnergyCost, Instance, Job, PowerProfile, ProfileCost, Schedule, ScheduleError,
    SlotRef, SolveOptions, Solver, TimeVaryingCost, UnavailableSlots,
};

/// Strategy: a random instance as raw sizing + job windows + value seeds.
#[allow(clippy::type_complexity)]
fn instance_strategy() -> impl Strategy<Value = (u32, u32, Vec<(u32, u32, u32, u32)>)> {
    (1u32..4, 3u32..16).prop_flat_map(|(p, t)| {
        let jobs = proptest::collection::vec((0..p, 0..t, 1u32..6, 1u32..9), 1..14);
        (Just(p), Just(t), jobs)
    })
}

fn build_instance(p: u32, t: u32, jobs: &[(u32, u32, u32, u32)]) -> Instance {
    let jobs = jobs
        .iter()
        .map(|&(proc, start, len, value)| {
            let end = (start + len).min(t);
            Job {
                value: value as f64,
                allowed: (start..end.max(start + 1).min(t))
                    .map(|time| SlotRef::new(proc, time))
                    .collect(),
                work: None,
            }
        })
        .collect();
    Instance::new(p, t, jobs)
}

/// Asserts two solve outcomes are bit-identical (schedules or errors).
fn assert_identical(
    fast: &Result<Schedule, ScheduleError>,
    naive: &Result<Schedule, ScheduleError>,
) -> Result<(), TestCaseError> {
    match (fast, naive) {
        (Ok(f), Ok(n)) => {
            prop_assert_eq!(f.awake.len(), n.awake.len(), "awake interval count");
            for (a, b) in f.awake.iter().zip(&n.awake) {
                prop_assert_eq!(a.proc, b.proc);
                prop_assert_eq!(a.start, b.start);
                prop_assert_eq!(a.end, b.end);
                prop_assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "interval cost bits");
            }
            prop_assert_eq!(&f.assignments, &n.assignments, "assignments");
            prop_assert_eq!(
                f.total_cost.to_bits(),
                n.total_cost.to_bits(),
                "total cost bits"
            );
            prop_assert_eq!(
                f.scheduled_value.to_bits(),
                n.scheduled_value.to_bits(),
                "scheduled value bits"
            );
            prop_assert_eq!(f.scheduled_count, n.scheduled_count);
        }
        (Err(ef), Err(en)) => prop_assert_eq!(ef, en, "error mismatch"),
        (f, n) => prop_assert!(false, "outcome mismatch: fast {f:?} vs naive {n:?}"),
    }
    Ok(())
}

/// One cost model per `pick` value, exercising all four oracle layouts
/// (uniform affine, time-varying arenas, unavailability wrappers, and
/// heterogeneous per-processor profiles).
fn cost_model(pick: u8, p: u32, t: u32) -> Box<dyn EnergyCost> {
    match pick % 4 {
        0 => Box::new(AffineCost::new(3.0, 1.0)),
        3 => Box::new(ProfileCost::new(
            &(0..p)
                .map(|proc| PowerProfile::affine(2.0 + proc as f64, 0.5 + 0.75 * proc as f64))
                .collect::<Vec<_>>(),
        )),
        1 => Box::new(TimeVaryingCost::new(
            2.0,
            (0..p)
                .map(|proc| {
                    (0..t)
                        .map(|time| {
                            if (proc + time) % 7 == 3 {
                                f64::INFINITY
                            } else {
                                1.0 + ((proc + 2 * time) % 5) as f64
                            }
                        })
                        .collect()
                })
                .collect(),
        )),
        _ => Box::new(UnavailableSlots::new(
            AffineCost::new(1.5, 0.5),
            p,
            &(0..p)
                .flat_map(|proc| {
                    (0..t)
                        .filter(move |time| (proc + time) % 6 == 1)
                        .map(move |time| (proc, time))
                })
                .collect::<Vec<_>>(),
        )),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn schedule_all_bit_identical((p, t, jobs) in instance_strategy(),
                                  cost_pick in 0u8..4) {
        let inst = build_instance(p, t, &jobs);
        let cost = cost_model(cost_pick, p, t);
        let cands = enumerate_candidates(&inst, cost.as_ref(), CandidatePolicy::All);
        let opts = SolveOptions::default();
        let fast = schedule_all(&inst, &cands, &opts);
        let naive = naive_schedule_all(&inst, &cands, &opts);
        assert_identical(&fast, &naive)?;
    }

    #[test]
    fn prize_collecting_bit_identical((p, t, jobs) in instance_strategy(),
                                      cost_pick in 0u8..4,
                                      frac in 1u32..10) {
        let inst = build_instance(p, t, &jobs);
        let cost = cost_model(cost_pick, p, t);
        let cands = enumerate_candidates(&inst, cost.as_ref(), CandidatePolicy::All);
        let opts = SolveOptions::default();
        let target = inst.total_value() * frac as f64 / 10.0;

        let fast = prize_collecting(&inst, &cands, target, 0.25, &opts);
        let naive = naive_prize_collecting(&inst, &cands, target, 0.25, &opts);
        assert_identical(&fast, &naive)?;

        let fast = prize_collecting_exact(&inst, &cands, target, &opts);
        let naive = naive_prize_collecting_exact(&inst, &cands, target, &opts);
        assert_identical(&fast, &naive)?;
    }

    #[test]
    fn solver_goal_sequence_matches_naive((p, t, jobs) in instance_strategy(),
                                          frac in 1u32..10) {
        // One Solver serves every goal on one instance, under each of the
        // four cost models in turn (so the later models re-price the
        // previous one's windows); every call must still match a
        // from-scratch naive solve
        let inst = build_instance(p, t, &jobs);
        let mut solver = Solver::new(CandidatePolicy::All);
        let target = inst.total_value() * frac as f64 / 10.0;
        let opts = SolveOptions::default();
        for pick in 0..4 {
            let model = cost_model(pick, p, t);
            let cost = model.as_ref();
            let cands = enumerate_candidates(&inst, cost, CandidatePolicy::All);
            assert_identical(
                &solver.schedule_all(&inst, cost),
                &naive_schedule_all(&inst, &cands, &opts),
            )?;
            assert_identical(
                &solver.prize_collecting(&inst, cost, target, 0.25),
                &naive_prize_collecting(&inst, &cands, target, 0.25, &opts),
            )?;
            assert_identical(
                &solver.prize_collecting_exact(&inst, cost, target),
                &naive_prize_collecting_exact(&inst, &cands, target, &opts),
            )?;
            // repeat the first goal: the memo-warmed second run must not drift
            assert_identical(
                &solver.schedule_all(&inst, cost),
                &naive_schedule_all(&inst, &cands, &opts),
            )?;
        }
    }

    /// Heterogeneous instances: fully random per-processor profiles (wake,
    /// busy rate, and sleep-ladder depth drawn per processor). The fast
    /// path must stay bit-identical to naive on awake intervals,
    /// assignments, and every f64 cost bit — heterogeneity enters solely
    /// through candidate pricing, so nothing in the hot path may assume a
    /// uniform fleet. Ladders are included deliberately: they must not leak
    /// into interval pricing at all.
    #[test]
    fn heterogeneous_profiles_bit_identical(
        (p, t, jobs) in instance_strategy(),
        params in proptest::collection::vec((1u32..12, 1u32..8, 0u32..3), 4),
        frac in 1u32..10,
    ) {
        let inst = build_instance(p, t, &jobs);
        let fleet: Vec<PowerProfile> = (0..p as usize)
            .map(|proc| {
                let (wake, busy, ladder) = params[proc];
                PowerProfile::envelope_ladder(wake as f64 * 0.75, busy as f64 * 0.5, ladder)
            })
            .collect();
        let cost = ProfileCost::new(&fleet);
        let cands = enumerate_candidates(&inst, &cost, CandidatePolicy::All);
        let opts = SolveOptions::default();

        assert_identical(
            &schedule_all(&inst, &cands, &opts),
            &naive_schedule_all(&inst, &cands, &opts),
        )?;
        let target = inst.total_value() * frac as f64 / 10.0;
        assert_identical(
            &prize_collecting(&inst, &cands, target, 0.25, &opts),
            &naive_prize_collecting(&inst, &cands, target, 0.25, &opts),
        )?;
        assert_identical(
            &prize_collecting_exact(&inst, &cands, target, &opts),
            &naive_prize_collecting_exact(&inst, &cands, target, &opts),
        )?;
    }
}

/// Word-boundary horizons push dense slot ids across u64 word edges; the
/// fast path must stay identical there too (fixed seeds, not proptest, so
/// the exact horizons 63/64/65 are always exercised).
#[test]
fn word_boundary_horizons_bit_identical() {
    for horizon in [63u32, 64, 65] {
        let jobs: Vec<Job> = (0..12)
            .map(|i| Job::window(1.0 + (i % 4) as f64, i % 2, i * 5 % horizon, horizon))
            .collect();
        let inst = Instance::new(2, horizon, jobs);
        let cost = AffineCost::new(4.0, 1.0);
        // MaxLength keeps the family size civilised at T=65
        let cands = enumerate_candidates(&inst, &cost, CandidatePolicy::MaxLength(9));
        let opts = SolveOptions::default();
        let fast = schedule_all(&inst, &cands, &opts);
        let naive = naive_schedule_all(&inst, &cands, &opts);
        match (&fast, &naive) {
            (Ok(f), Ok(n)) => {
                assert_eq!(
                    f.total_cost.to_bits(),
                    n.total_cost.to_bits(),
                    "T={horizon}"
                );
                assert_eq!(f.assignments, n.assignments, "T={horizon}");
            }
            (Err(ef), Err(en)) => assert_eq!(ef, en, "T={horizon}"),
            other => panic!("outcome mismatch at T={horizon}: {other:?}"),
        }
    }
}
