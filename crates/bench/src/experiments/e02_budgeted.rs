//! E2 — Lemma 2.1.2: bicriteria greedy sweep over ε.
//!
//! Planted coverage instances: `B` disjoint unit-cost subsets cover the
//! universe (the optimum), plus decoys. For each ε the greedy must reach
//! utility `(1−ε)·x` at cost ≤ `2⌈log₂(1/ε)⌉·B`. The table sets the lazy
//! greedy's gain evaluations beside `m × picks`, the count a full scan of
//! all `m` subsets per pick makes; the lazy greedy picks exactly what such
//! a scan picks (checked against a full-scan reference in
//! `crates/submodular/tests/greedy_properties.rs`).

use crate::table::{section, Table};
use rand::{Rng, SeedableRng};
use submodular::functions::CoverageFn;
use submodular::{budgeted_greedy, GreedyConfig, SetSystemObjective};

/// Runs E2 and prints its table.
pub fn run(seed: u64, quick: bool) {
    section(&format!(
        "E2  Lemma 2.1.2  (1−ε, 2⌈lg 1/ε⌉)-bicriteria greedy   [seed {seed}]"
    ));
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xE2);

    let universe = if quick { 60 } else { 240 };
    let opt_sets = 6usize;
    // plant: opt_sets disjoint unit-cost sets covering the universe
    let mut subsets: Vec<Vec<u32>> = vec![Vec::new(); opt_sets];
    for item in 0..universe as u32 {
        subsets[rng.gen_range(0..opt_sets)].push(item);
    }
    subsets.retain(|s| !s.is_empty());
    let b = subsets.len() as f64;
    // decoys: random subsets with random costs
    for _ in 0..40 {
        let mut s: Vec<u32> = (0..universe as u32)
            .filter(|_| rng.gen_bool(0.25))
            .collect();
        s.truncate(universe / 3);
        if !s.is_empty() {
            subsets.push(s);
        }
    }
    let mut costs = vec![1.0; subsets.len()];
    for c in costs.iter_mut().skip(opt_sets) {
        *c = rng.gen_range(0.7..3.0);
    }
    let f = CoverageFn::unweighted(universe, (0..universe).map(|i| vec![i as u32]).collect());

    let mut t = Table::new(&[
        "ε",
        "target x",
        "utility",
        "≥(1−ε)x",
        "cost",
        "bound 2⌈lg 1/ε⌉·B",
        "evals lazy",
        "evals eager",
    ]);
    let exps: Vec<i32> = if quick {
        vec![1, 3, 6]
    } else {
        (1..=10).collect()
    };
    for e in exps {
        let eps = 2f64.powi(-e);
        let x = universe as f64;
        let mut obj = SetSystemObjective::new(&f, subsets.clone(), costs.clone());
        let lazy = budgeted_greedy(&mut obj, GreedyConfig::new(x, eps));
        assert!(lazy.reached_target);
        assert!(lazy.utility >= (1.0 - eps) * x - 1e-9);
        let bound = 2.0 * (1.0 / eps).log2().ceil() * b;
        assert!(lazy.total_cost <= bound + 1e-9, "E2 bound violated");
        t.row(vec![
            format!("2^-{e}"),
            format!("{x:.0}"),
            format!("{:.1}", lazy.utility),
            format!("{:.1}", (1.0 - eps) * x),
            format!("{:.2}", lazy.total_cost),
            format!("{bound:.1}"),
            lazy.evaluations.to_string(),
            (subsets.len() * lazy.chosen.len()).to_string(),
        ]);
    }
    t.print();
    println!(
        "  (B = {b} planted unit-cost sets; evals eager = m × picks, m = {} subsets)",
        subsets.len()
    );
}
