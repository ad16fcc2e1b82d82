//! Prize-collecting scenario: an overloaded cluster that cannot run every
//! job. Jobs carry values (priorities); we sweep the value target `Z` and
//! watch the cost/value trade-off of Theorems 2.3.1 and 2.3.3.
//!
//! Run with: `cargo run --example prize_collecting_cluster`

use power_scheduling::prelude::*;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let horizon = 10u32;
    let procs = 2u32;

    // 30 jobs contend for 20 slots — not everything fits. Values follow a
    // priority ladder: a few critical jobs, many cheap ones.
    let mut jobs = Vec::new();
    for i in 0..30 {
        let value = match i % 10 {
            0 => 50.0,
            1..=3 => 10.0,
            _ => 1.0,
        };
        let proc = rng.gen_range(0..procs);
        let lo = rng.gen_range(0..horizon - 2);
        let hi = rng.gen_range(lo + 1..=horizon);
        jobs.push(Job::window(value, proc, lo, hi));
    }
    let inst = Instance::new(procs, horizon, jobs);
    let total = inst.total_value();
    println!(
        "cluster: {} jobs, total value {total}, {} slots available",
        inst.num_jobs(),
        inst.num_slots()
    );

    let cost = AffineCost::new(3.0, 1.0);
    // One Solver for the whole sweep: the reduction is built once, then
    // every target Z below runs on it.
    let mut solver = Solver::new(CandidatePolicy::All);

    println!("\n  target Z | scheduled value | energy cost | jobs run");
    println!("  ---------+-----------------+-------------+---------");
    for frac in [0.25, 0.5, 0.75, 0.9] {
        let z = total * frac;
        match solver.prize_collecting_exact(&inst, &cost, z) {
            Ok(s) => println!(
                "  {z:>8.1} | {:>15.1} | {:>11.2} | {:>8}",
                s.scheduled_value, s.total_cost, s.scheduled_count
            ),
            Err(e) => println!("  {z:>8.1} | infeasible: {e}"),
        }
    }

    // The bicriteria variant trades a little value for guaranteed cost:
    let z = total * 0.9;
    let eps = 0.1;
    let s = solver
        .prize_collecting(&inst, &cost, z, eps)
        .expect("relaxed target reachable");
    println!(
        "\nbicriteria (Thm 2.3.1) at Z={z:.1}, ε={eps}: value {:.1} (≥ {:.1}), cost {:.2}",
        s.scheduled_value,
        (1.0 - eps) * z,
        s.total_cost
    );
    assert!(s.scheduled_value >= (1.0 - eps) * z - 1e-9);
}
