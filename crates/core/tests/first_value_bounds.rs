//! Soundness of the lazy greedy's first values on the scheduling objective.
//!
//! A cold solve keys each run's first heap entry by
//! `min(|slots_of(i)|, J_i) × max job value`, `J_i` being the jobs of the
//! components the candidate's window touches, instead of the candidate's
//! exact gain. The greedy's picks stay exact only if every such bound is at
//! least the candidate's true marginal gain. These proptests check that on
//! cardinality, weighted and DVFS-compiled reductions, at `S = ∅` and after
//! random commits, and check that every value reported exact is the gain —
//! including the 0 a run whose components have no unmatched job left is
//! answered without a pass.

use bmatch::GainScratch;
use proptest::prelude::*;
use sched_core::dvfs::DvfsInstance;
use sched_core::objective::ObjectiveScratch;
use sched_core::{
    enumerate_candidates, AffineCost, CandidatePolicy, FreqLadder, Instance, Job,
    ScheduleObjective, ScheduleReduction, SlotRef,
};
use submodular::BudgetedObjective;

/// Random sizing plus per-job `(proc, start, len, value)` windows.
#[allow(clippy::type_complexity)]
fn window_strategy() -> impl Strategy<Value = (u32, u32, Vec<(u32, u32, u32, u32)>)> {
    (1u32..4, 3u32..14).prop_flat_map(|(p, t)| {
        let jobs = proptest::collection::vec((0..p, 0..t, 1u32..6, 1u32..9), 1..12);
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

/// The exact gain of every subset: the oracle's own `gain_of` over its
/// window, which reads no memo and knows no saturated run.
fn exact_gains(red: &ScheduleReduction, obj: &ScheduleObjective<'_>) -> Vec<f64> {
    let mut scratch = GainScratch::new();
    (0..red.num_subsets())
        .map(|k| obj.oracle().gain_of(red.slots_of(k), &mut scratch))
        .collect()
}

/// Checks `obj`'s first values against the exact `gains`: every bound is at
/// least the gain, and every exact value is the gain, bit for bit. Checks
/// with a cold scratch, where every value must be a bound, and with one
/// that has evaluated every other run, which mixes exact values and bounds.
fn assert_first_values_sound(
    obj: &ScheduleObjective<'_>,
    gains: &[f64],
    stage: &str,
) -> Result<(), TestCaseError> {
    let m = obj.num_subsets();
    let mut cold = ObjectiveScratch::default();
    let mut mixed = ObjectiveScratch::default();
    for &(lo, _) in obj.groups().iter().step_by(2) {
        obj.gain(lo as usize, &mut mixed);
    }
    for (name, scratch) in [("cold", &mut cold), ("mixed", &mut mixed)] {
        let (mut vals, mut bounded) = (Vec::new(), Vec::new());
        obj.first_values(scratch, &mut vals, &mut bounded);
        prop_assert_eq!(vals.len(), m);
        let mut exact = vec![true; m];
        for &g in &bounded {
            let (lo, hi) = obj.groups()[g as usize];
            exact[lo as usize..hi as usize].fill(false);
        }
        for i in 0..m {
            if exact[i] {
                prop_assert!(
                    name == "mixed",
                    "{}: a cold scratch has no exact value",
                    stage
                );
                prop_assert_eq!(
                    vals[i].to_bits(),
                    gains[i].to_bits(),
                    "{} ({}): exact value of candidate {}",
                    stage,
                    name,
                    i
                );
            } else {
                prop_assert!(
                    vals[i] >= gains[i],
                    "{} ({}): bound {} of candidate {} is below its gain {}",
                    stage,
                    name,
                    vals[i],
                    i,
                    gains[i]
                );
            }
        }
    }
    Ok(())
}

/// Runs the check on `obj` at `S = ∅` and after each commit in `picks`
/// (indices taken modulo the family size). After each commit, every gain a
/// scratch kept across the commits reports — replayed from the memo,
/// answered 0 for a run whose components have no unmatched job left, or
/// evaluated — is the exact gain, bit for bit.
fn assert_sound_through_commits(
    red: &ScheduleReduction,
    mut obj: ScheduleObjective<'_>,
    picks: &[u32],
) -> Result<(), TestCaseError> {
    assert_first_values_sound(&obj, &exact_gains(red, &obj), "S = ∅")?;
    let m = obj.num_subsets();
    let mut kept = ObjectiveScratch::default();
    for (k, &pick) in picks.iter().enumerate() {
        obj.commit(pick as usize % m);
        let stage = format!("after {} commits", k + 1);
        let gains = exact_gains(red, &obj);
        assert_first_values_sound(&obj, &gains, &stage)?;
        for (i, &want) in gains.iter().enumerate() {
            prop_assert_eq!(
                obj.gain(i, &mut kept).to_bits(),
                want.to_bits(),
                "{}: gain of candidate {} through a kept scratch",
                &stage,
                i
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cardinality_and_weighted_bounds_hold(
        (p, t, jobs) in window_strategy(),
        values in proptest::collection::vec(1u32..40, 12),
        picks in proptest::collection::vec(0u32..1000, 0..12),
        restart in 0u32..6,
    ) {
        let inst = Instance::new(p, t, build_jobs(t, &jobs, None));
        let cost = AffineCost::new(restart as f64, 1.0);
        let cands = enumerate_candidates(&inst, &cost, CandidatePolicy::All);
        let red = ScheduleReduction::build(&inst, &cands);
        assert_sound_through_commits(&red, ScheduleObjective::new_cardinality(&red), &picks)?;
        // values in quarters, so the largest value is rarely a whole number
        let weights = values[..inst.num_jobs()].iter().map(|&v| v as f64 / 4.0).collect();
        assert_sound_through_commits(&red, ScheduleObjective::new_weighted(&red, weights), &picks)?;
    }

    #[test]
    fn dvfs_compiled_bounds_hold(
        (p, t, jobs) in window_strategy(),
        works in proptest::collection::vec(1u32..5, 12),
        picks in proptest::collection::vec(0u32..1000, 0..12),
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
            wake_cost: 2.0,
            ladder,
            jobs: build_jobs(t, &jobs, Some(&works[..jobs.len()])),
        };
        let compiled = dvfs.compile().expect("generated DVFS instances compile");
        let red = ScheduleReduction::build(&compiled.instance, &compiled.candidates);
        assert_sound_through_commits(&red, ScheduleObjective::new_cardinality(&red), &picks)?;
    }
}
