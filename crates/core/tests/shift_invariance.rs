//! Time-shift invariance of the solves.
//!
//! Under a price that depends on an interval's processor and length only
//! (affine, or per-processor profiles) with strictly positive busy rates,
//! moving every allowed time by `d` and extending the horizon by `d` moves
//! the schedule by `d` and nothing else: the same cost bits, assignments and
//! awake intervals shifted by `d`. The reduction numbers slots over each
//! instance's live span, so both instances solve on the same slot ids; the
//! free functions enumerate a family over the whole horizon. A busy rate of
//! 0 is left out on purpose: every member of a window's class then ties
//! with its tight interval, and the representative is the lowest start, 0
//! on both horizons, which is not a shift.

use proptest::prelude::*;
use sched_core::{
    enumerate_candidates, schedule_all, AffineCost, CandidatePolicy, EnergyCost, Instance, Job,
    PowerProfile, ProfileCost, Schedule, ScheduleError, SlotRef, SolveOptions, Solver,
};

/// Strategy: grid size, jobs `(proc, start, len, second processor)` and a
/// shift.
#[allow(clippy::type_complexity)]
fn shifted_strategy() -> impl Strategy<Value = (u32, u32, Vec<(u32, u32, u32, u32)>, u32)> {
    (1u32..4, 3u32..16).prop_flat_map(|(p, t)| {
        let jobs = proptest::collection::vec((0..p, 0..t, 1u32..6, 0..p + 1), 1..12);
        (Just(p), Just(t), jobs, 1u32..40)
    })
}

/// The instance with every allowed time moved by `d` and the horizon
/// extended by `d`. A job's window is `[start, start + len)` clipped to the
/// horizon, on `proc`, and also on `second` when that names another
/// processor.
fn build_instance(p: u32, t: u32, jobs: &[(u32, u32, u32, u32)], d: u32) -> Instance {
    let jobs = jobs
        .iter()
        .map(|&(proc, start, len, second)| {
            let times = start..(start + len).min(t);
            let mut allowed: Vec<SlotRef> = times
                .clone()
                .map(|time| SlotRef::new(proc, time + d))
                .collect();
            if second < p && second != proc {
                allowed.extend(times.map(|time| SlotRef::new(second, time + d)));
            }
            Job {
                value: 1.0,
                allowed,
                work: None,
            }
        })
        .collect();
    Instance::new(p, t + d, jobs)
}

/// The prices, by `pick`: affine with a positive rate, or a fleet of
/// per-processor profiles with positive busy rates.
fn price(pick: u8, p: u32) -> Box<dyn EnergyCost> {
    match pick % 4 {
        0 => Box::new(AffineCost::new(3.0, 1.0)),
        1 => Box::new(AffineCost::new(0.5, 2.0)),
        2 => Box::new(AffineCost::new(10.0, 0.25)),
        _ => Box::new(ProfileCost::new(
            &(0..p)
                .map(|proc| PowerProfile::affine(1.0 + 2.0 * proc as f64, 0.5 + proc as f64))
                .collect::<Vec<_>>(),
        )),
    }
}

/// Asserts that `shifted` is `base` moved by `d`: the same cost bits,
/// assignments and awake intervals shifted by `d`, or the same error.
fn assert_shifted(
    base: &Result<Schedule, ScheduleError>,
    shifted: &Result<Schedule, ScheduleError>,
    d: u32,
) -> Result<(), TestCaseError> {
    match (base, shifted) {
        (Ok(b), Ok(s)) => {
            let moved: Vec<_> = b
                .awake
                .iter()
                .map(|iv| (iv.proc, iv.start + d, iv.end + d, iv.cost.to_bits()))
                .collect();
            let got: Vec<_> = s
                .awake
                .iter()
                .map(|iv| (iv.proc, iv.start, iv.end, iv.cost.to_bits()))
                .collect();
            prop_assert_eq!(got, moved, "awake intervals");
            let moved: Vec<_> = (b.assignments.iter())
                .map(|a| a.map(|s| SlotRef::new(s.proc, s.time + d)))
                .collect();
            prop_assert_eq!(&s.assignments, &moved, "assignments");
            prop_assert_eq!(s.total_cost.to_bits(), b.total_cost.to_bits());
            prop_assert_eq!(s.scheduled_value.to_bits(), b.scheduled_value.to_bits());
            prop_assert_eq!(s.scheduled_count, b.scheduled_count);
        }
        (Err(eb), Err(es)) => prop_assert_eq!(eb, es),
        (b, s) => prop_assert!(false, "outcome mismatch: {b:?} vs shifted {s:?}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn shifted_instances_solve_to_shifted_schedules(
        (p, t, jobs, d) in shifted_strategy(),
        pick in 0u8..4,
    ) {
        let cost = price(pick, p);
        let base = build_instance(p, t, &jobs, 0);
        let shifted = build_instance(p, t, &jobs, d);
        let free = |inst: &Instance| {
            let family = enumerate_candidates(inst, cost.as_ref(), CandidatePolicy::All);
            schedule_all(inst, &family, &SolveOptions::default())
        };
        let want = free(&base);
        assert_shifted(&want, &free(&shifted), d)?;

        // one solver across both grids, then back on the first: each call
        // is a rebuild of the buffers the other instance left behind
        let mut solver = Solver::new(CandidatePolicy::All);
        assert_shifted(&want, &solver.schedule_all(&base, cost.as_ref()), 0)?;
        assert_shifted(&want, &solver.schedule_all(&shifted, cost.as_ref()), d)?;
        assert_shifted(&want, &solver.schedule_all(&base, cost.as_ref()), 0)?;
    }
}
