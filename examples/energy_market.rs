//! Energy-market scenario: per-slot electricity prices vary over a simulated
//! day (the paper's motivation #2 for arbitrary interval costs). The
//! scheduler shifts awake intervals into cheap-price valleys; we compare its
//! bill against the keep-everything-on baseline and EDF+gap-merge.
//!
//! Run with: `cargo run --example energy_market`

use power_scheduling::baselines::always_on_cost;
use power_scheduling::prelude::*;
use power_scheduling::workloads::market_prices;
use rand::SeedableRng;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(20100521);
    let horizon = 48u32; // half-hour slots over a day
    let procs = 2u32;

    // Day/night tariff with noise; peak around midday.
    let prices: Vec<Vec<f64>> = (0..procs)
        .map(|_| market_prices(horizon as usize, 1.0, 0.8, 48.0, 0.1, &mut rng))
        .collect();
    println!("price curve (processor 0), one char per slot (▁ cheap … █ expensive):");
    println!("  {}", sparkline(&prices[0]));
    let cost = TimeVaryingCost::new(2.0, prices);

    // Batch jobs with generous windows: they can run almost any time, so the
    // scheduler is free to chase cheap slots.
    let mut jobs = Vec::new();
    for i in 0..16u32 {
        let proc = i % procs;
        let lo = (i * 2) % (horizon - 12);
        jobs.push(Job::window(1.0, proc, lo, horizon));
    }
    let inst = Instance::new(procs, horizon, jobs);

    let schedule = Solver::new(CandidatePolicy::All)
        .schedule_all(&inst, &cost)
        .expect("feasible: windows are wide");

    println!("\nchosen awake intervals:");
    for iv in &schedule.awake {
        println!(
            "  proc {} awake [{:>2}, {:>2})  cost {:>6.2}",
            iv.proc, iv.start, iv.end, iv.cost
        );
    }

    let naive = always_on_cost(&inst, &cost).expect("finite");
    println!("\n               greedy bill: {:>8.2}", schedule.total_cost);
    println!("  always-on baseline bill: {naive:>8.2}");
    println!(
        "                   savings: {:>7.1}%",
        100.0 * (1.0 - schedule.total_cost / naive)
    );
    assert!(
        schedule.total_cost < naive,
        "price-aware schedule must beat always-on"
    );
}

fn sparkline(xs: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    xs.iter()
        .map(|&x| {
            let t = if hi > lo { (x - lo) / (hi - lo) } else { 0.0 };
            BARS[((t * 7.0).round() as usize).min(7)]
        })
        .collect()
}
