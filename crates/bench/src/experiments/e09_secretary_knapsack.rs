//! E9 — Theorem 3.1.3: `l`-knapsack submodular secretary, `O(l)`-competitive.
//!
//! The reduction loses a factor `4l`; the ratio must therefore degrade
//! roughly linearly in `l`, not faster.

use super::trials;
use crate::table::{section, Table};
use rand::{Rng, SeedableRng};
use secretary::knapsack::offline_knapsack_estimate;
use secretary::{knapsack_secretary, random_stream, KnapsackInstance};
use submodular::{BitSet, SetFn};
use workloads::secretary_streams::heavy_tail_additive;

/// Runs E9 and prints its table.
pub fn run(seed: u64, quick: bool) {
    section(&format!(
        "E9  Theorem 3.1.3  l-knapsack secretary, Ω(1/l)   [seed {seed}]"
    ));
    let runs = if quick { 300 } else { 1200 };
    let n = if quick { 50 } else { 100 };
    let mut t = Table::new(&["l", "offline ref", "online avg", "ratio", "ratio·l"]);

    let mut ratios = Vec::new();
    for l in [1usize, 2, 4] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xE9 ^ (l as u64) << 3);
        let f = heavy_tail_additive(n, &mut rng);
        let weights: Vec<Vec<f64>> = (0..l)
            .map(|_| (0..n).map(|_| rng.gen_range(0.1..1.0)).collect())
            .collect();
        let caps: Vec<f64> = (0..l).map(|_| rng.gen_range(1.5..3.0)).collect();
        let inst = KnapsackInstance::new(weights, caps);
        let w = inst.reduced_weights();
        let all: Vec<u32> = (0..n as u32).collect();
        let offline = offline_knapsack_estimate(&f, &w, &all);
        if offline <= 0.0 {
            continue;
        }
        let total: f64 = trials(runs, |trial| {
            let mut trng =
                rand::rngs::StdRng::seed_from_u64(seed ^ 0x9E ^ (trial as u64) << 14 ^ (l as u64));
            let s = random_stream(n, &mut trng);
            let taken = knapsack_secretary(&f, &inst, &s, &mut trng);
            debug_assert!(inst.feasible(&taken));
            f.eval(&BitSet::from_iter(n, taken))
        })
        .into_iter()
        .sum();
        let avg = total / runs as f64;
        let ratio = avg / offline;
        ratios.push((l, ratio));
        assert!(
            ratio * (l as f64) >= 0.02,
            "E9: ratio·l = {} collapses faster than O(l)",
            ratio * l as f64
        );
        t.row(vec![
            l.to_string(),
            format!("{offline:.2}"),
            format!("{avg:.2}"),
            format!("{ratio:.3}"),
            format!("{:.3}", ratio * l as f64),
        ]);
    }
    t.print();
    println!("  (ratio·l staying bounded away from 0 is the O(l) shape)");
}
