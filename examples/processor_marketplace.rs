//! The paper's §3.1 story end-to-end: a fixed batch of tasks, processors
//! arriving one at a time (spot-market machines, say), hire-or-pass decisions
//! that are irrevocable. The team utility is Chapter 2's matching rank —
//! "how many tasks could the hired machines actually run?" — which is
//! monotone submodular (Lemma 2.2.2), so Algorithm 1 applies with the
//! Theorem 3.2.5 guarantee. After hiring, Chapter 2's schedule-all computes
//! the energy-minimal schedule on the hired machines.
//!
//! Run with: `cargo run --example processor_marketplace`

use power_scheduling::prelude::*;
use power_scheduling::secretary::{offline_greedy, random_stream, submodular_secretary};
use power_scheduling::workloads::ProcessorRankFn;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let num_processors = 40u32;
    let horizon = 6u32;
    let k = 6; // hiring budget

    // 50 tasks, each runnable only on a few specific (machine, slot) pairs —
    // machines hold different datasets/accelerators at different times.
    let jobs: Vec<Job> = (0..50)
        .map(|_| {
            let options = rng.gen_range(1..=3);
            let allowed = (0..options)
                .map(|_| SlotRef::new(rng.gen_range(0..num_processors), rng.gen_range(0..horizon)))
                .collect();
            Job::unit(allowed)
        })
        .collect();
    let inst = Instance::new(num_processors, horizon, jobs);
    let utility = ProcessorRankFn::new(&inst);

    let (offline_team, offline_val) = offline_greedy(&utility, k);
    println!(
        "offline (full knowledge) team {:?} runs {} of {} tasks",
        offline_team,
        offline_val,
        inst.num_jobs()
    );

    // One online run, narrated.
    let arrival = random_stream(num_processors as usize, &mut rng);
    let hired = submodular_secretary(&utility, &arrival, k);
    let online_val = utility.value_of(&hired);
    println!("online hiring over arrival order: team {hired:?} runs {online_val} tasks");

    // Monte-Carlo estimate of the competitive ratio.
    let trials = 1000;
    let total: f64 = (0..trials)
        .map(|_| {
            let s = random_stream(num_processors as usize, &mut rng);
            utility.value_of(&submodular_secretary(&utility, &s, k))
        })
        .sum();
    let ratio = total / trials as f64 / offline_val;
    println!("average competitive ratio over {trials} orders: {ratio:.3}");
    let bound = (1.0 - 1.0 / std::f64::consts::E) / (7.0 * std::f64::consts::E);
    assert!(ratio >= bound);

    // Phase 2: schedule the tasks on the hired machines, energy-minimally.
    // Restrict each job to slots on hired machines; drop jobs with no slots
    // (prize lost to the online setting).
    let hired_set: std::collections::HashSet<u32> = hired.iter().copied().collect();
    let reachable: Vec<Job> = inst
        .jobs
        .iter()
        .filter_map(|j| {
            let allowed: Vec<SlotRef> = j
                .allowed
                .iter()
                .copied()
                .filter(|s| hired_set.contains(&s.proc))
                .collect();
            (!allowed.is_empty()).then_some(Job {
                value: j.value,
                allowed,
                work: None,
            })
        })
        .collect();
    let sub = Instance::new(num_processors, horizon, reachable);
    let cost = AffineCost::new(4.0, 1.0);
    // Reachable jobs can still contend for the same slot, so ask for exactly
    // the matching-rank value the hiring utility promised (prize-collecting,
    // Thm 2.3.3) rather than all reachable jobs.
    let schedule = Solver::new(CandidatePolicy::All)
        .prize_collecting_exact(&sub, &cost, online_val)
        .expect("the hiring utility certified this value is schedulable");
    println!(
        "\nphase 2 (Thm 2.3.3): scheduled {} tasks (value {}) at energy cost {:.1} using {} awake intervals",
        schedule.scheduled_count,
        schedule.scheduled_value,
        schedule.total_cost,
        schedule.awake.len()
    );
    assert!(schedule.scheduled_value >= online_val - 1e-9);
}
