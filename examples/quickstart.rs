//! Quickstart: schedule a handful of jobs on two heterogeneous processors
//! and watch the algorithm trade restarts against idle-awake time.
//!
//! Run with: `cargo run --example quickstart`

use power_scheduling::prelude::*;

fn main() {
    // Two processors over a 12-slot horizon. Processor 0 is power-hungry but
    // cheap to wake; processor 1 sips power but has an expensive restart.
    let cost = ProfileCost::new(&[
        PowerProfile::affine(1.0, 2.0),
        PowerProfile::affine(6.0, 0.5),
    ]);

    // Six unit jobs. Some are pinned to exact slots, some have flexible
    // windows, one may run on either processor (multi-interval, per-processor
    // slot lists — the generality the paper introduces).
    let jobs = vec![
        Job::unit(vec![SlotRef::new(0, 0)]),
        Job::window(1.0, 0, 2, 5),
        Job::window(1.0, 1, 0, 4),
        Job::window(1.0, 1, 6, 10),
        Job::unit(vec![SlotRef::new(0, 7), SlotRef::new(1, 7)]),
        Job::window(1.0, 1, 8, 12).add_window(0, 8, 12),
    ];
    let inst = Instance::new(2, 12, jobs);

    // Every interval of the grid is a candidate; under a price that grows
    // with the interval (as profile pricing does) their number has a closed
    // form, and the solver never enumerates them.
    let candidates =
        power_scheduling::scheduling::count_candidates(&inst, &cost, CandidatePolicy::All)
            .expect("profile pricing is inclusion-monotone");
    println!(
        "instance: {} jobs, {} processors, horizon {}, {candidates} candidate intervals",
        inst.num_jobs(),
        inst.num_processors,
        inst.horizon,
    );

    // One Solver owns the reduction; it is handed the instance and the cost
    // oracle on each call and builds from the slot windows.
    let mut solver = Solver::new(CandidatePolicy::All);
    let schedule = solver
        .schedule_all(&inst, &cost)
        .expect("instance is feasible");

    println!("\nawake intervals (greedy picks, O(B log n) guarantee):");
    for iv in &schedule.awake {
        println!(
            "  processor {} awake [{:>2}, {:>2})  cost {:>6.2}",
            iv.proc, iv.start, iv.end, iv.cost
        );
    }
    println!("\njob assignments:");
    for (j, a) in schedule.assignments.iter().enumerate() {
        match a {
            Some(s) => println!("  job {j} -> processor {} @ t={}", s.proc, s.time),
            None => println!("  job {j} -> UNSCHEDULED"),
        }
    }
    println!("\ntotal energy cost: {:.2}", schedule.total_cost);

    // Replay the schedule slot by slot: the PowerTrace Display shows each
    // processor's machine states as run-length-encoded S/I/B (sleep, idle,
    // busy) runs with restart and utilization accounting.
    println!("\nmachine-state timeline:");
    print!(
        "{}",
        power_scheduling::scheduling::simulate::simulate(&inst, &schedule)
    );

    // Validation is available as a library call:
    let violations = power_scheduling::scheduling::model::validate_schedule(&inst, &schedule);
    assert!(violations.is_empty(), "schedule invalid: {violations:?}");
    println!("schedule validated: no collisions, all slots awake and allowed");
}
