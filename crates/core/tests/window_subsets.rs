//! Exactness of the reduction's window subsets.
//!
//! `ScheduleReduction` indexes the greedy by *subset*: one per distinct
//! nonempty job-adjacent slot window, represented by its cheapest, then
//! lowest-index, candidate. These proptests check the subset family against
//! a brute-force reference built from per-candidate slot lists, the way
//! `sched_core::naive::NaiveReduction` builds them, on families whose
//! classes are ordered in every way the one-pass build must handle: costs
//! that rise along a run, costs that fall along a run, all-equal costs (the
//! index decides), length-capped families and families with holes. They
//! also pin fast≡naive bit-identity on the falling-cost and equal-cost
//! families, which the other suites do not generate.

use std::collections::HashMap;

use proptest::prelude::*;
use sched_core::naive::{naive_prize_collecting_exact, naive_schedule_all};
use sched_core::{
    enumerate_candidates, prize_collecting_exact, schedule_all, AffineCost, CandidateInterval,
    CandidatePolicy, Instance, Job, Schedule, ScheduleError, ScheduleReduction, SlotRef,
    SolveOptions, TableCost, UnavailableSlots,
};

/// Strategy: grid size plus jobs, each a window or a sparse slot set, so
/// windows share first interesting slots across several starts.
#[allow(clippy::type_complexity)]
fn instance_strategy() -> impl Strategy<Value = (u32, u32, Vec<(u32, u32, u32, u32)>)> {
    (1u32..4, 3u32..14).prop_flat_map(|(p, t)| {
        let jobs = proptest::collection::vec((0..p, 0..t, 1u32..5, 0u32..3), 1..10);
        (Just(p), Just(t), jobs)
    })
}

/// Jobs from the strategy's tuples: `stride` 0 is a window of `len` slots,
/// otherwise `len` slots spaced `stride + 1` apart.
fn build_instance(p: u32, t: u32, jobs: &[(u32, u32, u32, u32)]) -> Instance {
    let jobs = jobs
        .iter()
        .map(|&(proc, start, len, stride)| {
            let allowed: Vec<SlotRef> = (0..len)
                .map(|k| start + k * (stride + 1))
                .filter(|&time| time < t)
                .map(|time| SlotRef::new(proc, time))
                .collect();
            Job {
                value: 1.0 + (start % 3) as f64,
                allowed,
                work: None,
            }
        })
        .collect();
    Instance::new(p, t, jobs)
}

/// The five families, by `pick`: rising affine costs over all intervals,
/// a length cap, holes, costs that fall along a run, and equal costs.
fn family(pick: u8, inst: &Instance) -> Vec<CandidateInterval> {
    let (p, t) = (inst.num_processors, inst.horizon);
    match pick % 5 {
        0 => enumerate_candidates(inst, &AffineCost::new(3.0, 1.0), CandidatePolicy::All),
        1 => enumerate_candidates(
            inst,
            &AffineCost::new(2.0, 0.5),
            CandidatePolicy::MaxLength(3),
        ),
        2 => {
            let blocked: Vec<(u32, u32)> = (0..p)
                .flat_map(|proc| {
                    (0..t)
                        .filter(move |time| (proc + time) % 5 == 2)
                        .map(move |time| (proc, time))
                })
                .collect();
            let cost = UnavailableSlots::new(AffineCost::new(1.5, 0.5), p, &blocked);
            enumerate_candidates(inst, &cost, CandidatePolicy::All)
        }
        3 => enumerate_candidates(inst, &falling_costs(p, t), CandidatePolicy::All),
        _ => enumerate_candidates(inst, &AffineCost::new(2.0, 0.0), CandidatePolicy::All),
    }
}

/// A table whose costs fall as an interval grows, with a wobble per
/// interval larger than one slot's fall, so the cheapest member of a class
/// can sit in any run of its group.
fn falling_costs(p: u32, t: u32) -> TableCost {
    let entries = (0..p).flat_map(move |proc| {
        (0..t).flat_map(move |s| {
            (s + 1..=t).map(move |e| {
                let wobble = ((s * 7 + e * 3 + proc) % 4) as f64 * 0.75;
                ((proc, s, e), (t + 2 - (e - s)) as f64 * 0.5 + wobble)
            })
        })
    });
    TableCost::new(entries, f64::INFINITY)
}

/// Per-candidate job-adjacent slots, built as the naive reduction does.
fn naive_slot_lists(inst: &Instance, cands: &[CandidateInterval]) -> Vec<Vec<SlotRef>> {
    let mut adjacent = vec![false; inst.num_slots() as usize];
    for job in &inst.jobs {
        for &s in &job.allowed {
            adjacent[inst.slot_id(s) as usize] = true;
        }
    }
    cands
        .iter()
        .map(|iv| {
            (iv.start..iv.end)
                .map(|time| SlotRef::new(iv.proc, time))
                .filter(|&s| adjacent[inst.slot_id(s) as usize])
                .collect()
        })
        .collect()
}

/// The slots of the reduction's slot ids `ids` (the reduction numbers
/// slots over its live span, not as [`Instance::slot_id`] does).
fn slot_refs(red: &ScheduleReduction, ids: &[u32]) -> Vec<SlotRef> {
    ids.iter().map(|&x| red.slot_ref(x)).collect()
}

fn assert_subsets_exact(inst: &Instance, cands: &[CandidateInterval]) -> Result<(), TestCaseError> {
    let red = ScheduleReduction::build(inst, cands);
    let lists = naive_slot_lists(inst, cands);

    // brute force: every class's minimum (cost, index) member
    let mut best: HashMap<&[SlotRef], usize> = HashMap::new();
    for (i, list) in lists.iter().enumerate() {
        if list.is_empty() {
            continue;
        }
        let entry = best.entry(list.as_slice()).or_insert(i);
        if cands[i].cost < cands[*entry].cost {
            *entry = i;
        }
    }
    prop_assert_eq!(red.num_subsets(), best.len(), "one subset per window");

    for (i, list) in lists.iter().enumerate() {
        let slots = slot_refs(&red, red.interval_slots(&cands[i]));
        prop_assert_eq!(&slots, list, "cand {}", i);
    }
    for k in 0..red.num_subsets() {
        let c = red.candidate_of(k);
        let slots = slot_refs(&red, red.slots_of(k));
        prop_assert_eq!(&slots, &lists[c], "subset {}", k);
        prop_assert_eq!(
            best[slots.as_slice()],
            c,
            "subset {} is its class minimum",
            k
        );
        prop_assert_eq!(red.cost_of(k).to_bits(), cands[c].cost.to_bits());
        if k > 0 {
            prop_assert!(red.candidate_of(k - 1) < c, "candidate order at {}", k);
        }
    }

    let mut next = 0;
    for &(lo, hi) in red.runs() {
        let (lo, hi) = (lo as usize, hi as usize);
        prop_assert!(lo == next && hi > lo, "runs partition the subsets");
        for k in lo + 1..hi {
            let (a, b) = (red.slots_of(k - 1), red.slots_of(k));
            prop_assert!(a.len() < b.len() && b.starts_with(a), "run link {}", k);
        }
        next = hi;
    }
    prop_assert_eq!(next, red.num_subsets());
    Ok(())
}

fn assert_identical(
    fast: &Result<Schedule, ScheduleError>,
    naive: &Result<Schedule, ScheduleError>,
) -> Result<(), TestCaseError> {
    match (fast, naive) {
        (Ok(f), Ok(n)) => {
            prop_assert_eq!(&f.awake, &n.awake, "awake intervals");
            prop_assert_eq!(&f.assignments, &n.assignments, "assignments");
            prop_assert_eq!(f.total_cost.to_bits(), n.total_cost.to_bits());
            prop_assert_eq!(f.scheduled_value.to_bits(), n.scheduled_value.to_bits());
        }
        (Err(ef), Err(en)) => prop_assert_eq!(ef, en),
        (f, n) => prop_assert!(false, "outcome mismatch: fast {f:?} vs naive {n:?}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn subsets_are_the_distinct_windows_with_their_cheapest_members(
        (p, t, jobs) in instance_strategy(),
        pick in 0u8..5,
    ) {
        let inst = build_instance(p, t, &jobs);
        assert_subsets_exact(&inst, &family(pick, &inst))?;
    }

    #[test]
    fn falling_and_equal_costs_stay_bit_identical_to_naive(
        (p, t, jobs) in instance_strategy(),
        equal in any::<bool>(),
        frac in 1u32..10,
    ) {
        let inst = build_instance(p, t, &jobs);
        let cands = family(if equal { 4 } else { 3 }, &inst);
        let opts = SolveOptions::default();
        assert_identical(
            &schedule_all(&inst, &cands, &opts),
            &naive_schedule_all(&inst, &cands, &opts),
        )?;
        let target = inst.total_value() * frac as f64 / 10.0;
        assert_identical(
            &prize_collecting_exact(&inst, &cands, target, &opts),
            &naive_prize_collecting_exact(&inst, &cands, target, &opts),
        )?;
    }
}

/// A group whose windows are met out of candidate order: on one processor
/// with a job-free slot 0, starts 0 and 1 share every window, and falling
/// costs make the start-0 run cheapest for the long windows while start 1
/// keeps the short one. The build must sort the group and split its runs.
#[test]
fn out_of_order_group_is_sorted_into_runs() {
    let inst = Instance::new(1, 4, vec![Job::window(1.0, 0, 1, 4)]);
    let cost = TableCost::new(
        [
            ((0, 0, 1), 9.0),
            ((0, 0, 2), 8.0),
            ((0, 0, 3), 2.0),
            ((0, 0, 4), 1.0),
            ((0, 1, 2), 3.0),
            ((0, 1, 3), 4.0),
            ((0, 1, 4), 5.0),
        ],
        9.0,
    );
    let cands = enumerate_candidates(&inst, &cost, CandidatePolicy::All);
    let red = ScheduleReduction::build(&inst, &cands);
    let picked: Vec<(u32, u32)> = (0..red.num_subsets())
        .map(|k| {
            let iv = &cands[red.candidate_of(k)];
            (iv.start, iv.end)
        })
        .collect();
    assert_eq!(picked, vec![(0, 3), (0, 4), (1, 2), (2, 3), (2, 4), (3, 4)]);
    assert_eq!(red.runs(), &[(0, 2), (2, 3), (3, 5), (5, 6)]);
    assert_subsets_exact(&inst, &cands).unwrap();
}

/// Equal costs (affine with rate 0): every member of a class ties, so the
/// lowest index must represent it. One job at slot 3 of a 4-slot row gives
/// the intervals ending at 4 one shared window; the first is [0,4).
#[test]
fn equal_costs_keep_the_lowest_index() {
    let inst = Instance::new(1, 4, vec![Job::unit(vec![SlotRef::new(0, 3)])]);
    let cands = family(4, &inst);
    let red = ScheduleReduction::build(&inst, &cands);
    assert_eq!(red.num_subsets(), 1);
    let iv = &cands[red.candidate_of(0)];
    assert_eq!((iv.start, iv.end), (0, 4));
    assert_subsets_exact(&inst, &cands).unwrap();
}
