//! The DVFS layer's two reduction contracts, property-tested.
//!
//! 1. **Degenerate-ladder identity**: the single-frequency ladder
//!    (`gamma = 1`, `beta = 0`, `freqs = [1]`, so `P(1) = rate` bitwise)
//!    must reduce speed scaling to the classical fixed-shape model
//!    *bit-for-bit* — same compiled instance, same candidate family with
//!    the same `f64` cost bits as `AffineCost`, and the same schedule.
//!    This is what lets pre-DVFS callers ignore the ladder entirely.
//! 2. **Fast/naive identity**: `solve_dvfs` (hot path) and
//!    `solve_dvfs_naive` (retained seed path) agree bit-for-bit on random
//!    multi-frequency instances, extending the `fast_path_equivalence`
//!    guarantee through the compile → solve → decompile pipeline.
//!
//! Plus the serde back-compat anchor: legacy instance JSON without `work`
//! fields parses and solves exactly as before the refactor.

use proptest::prelude::*;
use sched_core::dvfs::DvfsInstance;
use sched_core::{
    enumerate_candidates, solve_dvfs, solve_dvfs_naive, validate_dvfs_schedule, AffineCost,
    CandidatePolicy, FreqLadder, Instance, Job, SlotRef, Solver,
};

/// Random classical instance: sizing plus per-job windows and value seeds.
#[allow(clippy::type_complexity)]
fn window_strategy() -> impl Strategy<Value = (u32, u32, Vec<(u32, u32, u32, u32)>)> {
    (1u32..4, 3u32..12).prop_flat_map(|(p, t)| {
        let jobs = proptest::collection::vec((0..p, 0..t, 1u32..5, 1u32..9), 1..10);
        (Just(p), Just(t), jobs)
    })
}

fn build_jobs(t: u32, jobs: &[(u32, u32, u32, u32)], works: Option<&[u32]>) -> Vec<Job> {
    jobs.iter()
        .enumerate()
        .map(|(i, &(proc, start, len, value))| Job {
            value: value as f64,
            allowed: (start..(start + len).min(t).max(start + 1).min(t))
                .map(|time| SlotRef::new(proc, time))
                .collect(),
            work: works.map(|w| w[i]),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Contract 1: the degenerate ladder compiles to the *same* problem the
    // classical affine model solves — candidates and schedules bit-identical.
    #[test]
    fn degenerate_ladder_reduces_to_fixed_shape_pricing(
        (p, t, jobs) in window_strategy(),
        wake_tenths in 0u32..80,
        rate_tenths in 1u32..40,
    ) {
        let wake = f64::from(wake_tenths) / 10.0;
        let rate = f64::from(rate_tenths) / 10.0;
        let inst = Instance::new(p, t, build_jobs(t, &jobs, None));
        let dvfs = DvfsInstance {
            num_processors: p,
            horizon: t,
            wake_cost: wake,
            ladder: FreqLadder::degenerate(rate),
            jobs: inst.jobs.clone(),
        };
        let compiled = dvfs.compile().expect("degenerate compile");

        // The compiled virtual grid *is* the physical grid (1 level, top
        // frequency 1), and its candidate family carries the same cost bits
        // as the classical affine enumeration.
        prop_assert_eq!(compiled.instance.num_processors, p);
        prop_assert_eq!(compiled.instance.horizon, t);
        let affine = AffineCost::new(wake, rate);
        let classical = enumerate_candidates(&inst, &affine, CandidatePolicy::All);
        prop_assert_eq!(compiled.candidates.len(), classical.len(), "candidate family size");
        for (a, b) in compiled.candidates.iter().zip(&classical) {
            prop_assert_eq!(a.proc, b.proc);
            prop_assert_eq!(a.start, b.start);
            prop_assert_eq!(a.end, b.end);
            prop_assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "candidate cost bits");
        }

        // And the solved schedules agree bit-for-bit, interval by interval.
        let classical = Solver::new(CandidatePolicy::All).schedule_all(&inst, &affine);
        let dvfs_sched = solve_dvfs(&dvfs);
        match (classical, dvfs_sched) {
            (Ok(c), Ok(d)) => {
                prop_assert_eq!(c.total_cost.to_bits(), d.total_cost.to_bits(), "total cost bits");
                prop_assert_eq!(c.scheduled_value.to_bits(), d.scheduled_value.to_bits());
                prop_assert_eq!(c.awake.len(), d.awake.len());
                for (a, b) in c.awake.iter().zip(&d.awake) {
                    prop_assert_eq!(a.proc, b.proc);
                    prop_assert_eq!(a.start, b.start);
                    prop_assert_eq!(a.end, b.end);
                    prop_assert_eq!(b.freq, 1u32);
                    prop_assert_eq!(b.level, 0usize);
                    prop_assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "interval cost bits");
                }
                // One work unit per job, in the slot the classical
                // assignment picked.
                for (jid, (slot, quanta)) in c.assignments.iter().zip(&d.assignments).enumerate() {
                    match slot {
                        Some(s) => {
                            prop_assert_eq!(quanta.len(), 1, "job {}", jid);
                            prop_assert_eq!(quanta[0].proc, s.proc);
                            prop_assert_eq!(quanta[0].time, s.time);
                        }
                        None => prop_assert!(quanta.is_empty()),
                    }
                }
            }
            (Err(_), Err(_)) => {}
            (c, d) => {
                return Err(TestCaseError::fail(format!(
                    "outcomes diverge: classical {c:?} vs dvfs {d:?}"
                )));
            }
        }
    }

    // Contract 2: fast and naive DVFS paths are bit-identical on random
    // multi-frequency instances with random work requirements.
    #[test]
    fn dvfs_fast_and_naive_paths_are_bit_identical(
        (p, t, jobs) in window_strategy(),
        works in proptest::collection::vec(1u32..5, 10),
        wake_tenths in 0u32..60,
        ladder_kind in 0u8..3,
    ) {
        let ladder = match ladder_kind {
            0 => FreqLadder::new(1.0, 0.0, 2.0, vec![1, 2]),
            1 => FreqLadder::new(0.5, 1.0, 2.0, vec![1, 2, 4]),
            _ => FreqLadder::new(1.0, 0.5, 3.0, vec![1, 3]),
        };
        let dvfs = DvfsInstance {
            num_processors: p,
            horizon: t,
            wake_cost: f64::from(wake_tenths) / 10.0,
            ladder,
            jobs: build_jobs(t, &jobs, Some(&works[..jobs.len()])),
        };
        let fast = solve_dvfs(&dvfs);
        let naive = solve_dvfs_naive(&dvfs);
        match (fast, naive) {
            (Ok(f), Ok(n)) => {
                prop_assert_eq!(f.total_cost.to_bits(), n.total_cost.to_bits(), "total cost bits");
                prop_assert_eq!(f.scheduled_value.to_bits(), n.scheduled_value.to_bits());
                prop_assert_eq!(f.awake.len(), n.awake.len());
                for (a, b) in f.awake.iter().zip(&n.awake) {
                    prop_assert_eq!(a.proc, b.proc);
                    prop_assert_eq!(a.level, b.level);
                    prop_assert_eq!(a.freq, b.freq);
                    prop_assert_eq!(a.start, b.start);
                    prop_assert_eq!(a.end, b.end);
                    prop_assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "interval cost bits");
                }
                prop_assert_eq!(&f.assignments, &n.assignments, "work-unit placements");
                // Both are genuinely valid DVFS schedules, not just equal.
                prop_assert_eq!(validate_dvfs_schedule(&dvfs, &f), vec![]);
            }
            (Err(f), Err(n)) => prop_assert_eq!(format!("{f:?}"), format!("{n:?}")),
            (f, n) => {
                return Err(TestCaseError::fail(format!(
                    "outcomes diverge: fast {f:?} vs naive {n:?}"
                )));
            }
        }
    }
}

// Legacy instance JSON — written before jobs had a `work` field — must
// parse with every job at one work unit and solve exactly as before.
#[test]
fn legacy_instance_json_parses_and_solves_unchanged() {
    let legacy = r#"{
        "num_processors": 1,
        "horizon": 4,
        "jobs": [
            {"value": 1.0, "allowed": [{"proc": 0, "time": 0}]},
            {"value": 2.0, "allowed": [{"proc": 0, "time": 3}]}
        ]
    }"#;
    let inst: Instance = serde_json::from_str(legacy).expect("legacy JSON parses");
    assert_eq!(inst.validate(), Ok(()));
    assert!(inst.jobs.iter().all(|j| j.work.is_none()));
    assert!(inst.jobs.iter().all(|j| j.work_units() == 1));

    // The exact pre-refactor outcome: keeping the processor awake through
    // the gap beats a second wake (10 + 4·1 = 14 < 2·10 + 2).
    let cost = AffineCost::new(10.0, 1.0);
    let s = Solver::new(CandidatePolicy::All)
        .schedule_all(&inst, &cost)
        .expect("solves");
    assert_eq!(s.awake.len(), 1);
    assert_eq!(s.total_cost, 14.0);

    // And re-serializing omits nothing a legacy reader would choke on:
    // `work` serializes as null, which old decoders treated as absent.
    let back = serde_json::to_string(&inst).unwrap();
    let reparsed: Instance = serde_json::from_str(&back).unwrap();
    assert!(reparsed.jobs.iter().all(|j| j.work.is_none()));
}
