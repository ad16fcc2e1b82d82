//! E3/E4 — Theorems 2.3.1 and 2.3.3: prize-collecting scheduling.
//!
//! E3 sweeps ε at fixed `Z`: value must reach `(1−ε)Z` and cost stay within
//! `2⌈log₂ 1/ε⌉·B`. E4 sweeps the value spread `Δ = v_max/v_min` with the
//! exact-`Z` algorithm: cost within `(2⌈log₂(nΔ)⌉ + 1)·B`.

use crate::table::{section, Table};
use rand::{Rng, SeedableRng};
use sched_core::{
    prize_collecting_exact, prize_collecting_with, CandidatePolicy, ScheduleReduction,
};
use workloads::planted::PlantedCostModel;
use workloads::{planted_instance, PlantedConfig};

/// Runs E3 (ε sweep) and E4 (Δ sweep) and prints both tables.
pub fn run(seed: u64, quick: bool) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xE3);

    section(&format!(
        "E3  Theorem 2.3.1  prize-collecting (1−ε)Z, cost O(B log 1/ε)   [seed {seed}]"
    ));
    let cfg = PlantedConfig {
        num_processors: 2,
        horizon: if quick { 14 } else { 24 },
        target_jobs: if quick { 12 } else { 24 },
        decoy_prob: 0.25,
        max_value: 9,
        cost_model: PlantedCostModel::Affine { restart: 3.0 },
        policy: CandidatePolicy::All,
    };
    let p = planted_instance(&cfg, &mut rng);
    let total = p.instance.total_value();
    let z = 0.8 * total;
    // one reduction for the whole ε sweep: built once, reused
    let red = ScheduleReduction::build(&p.instance, &p.candidates);
    let mut t = Table::new(&["ε", "Z", "value", "≥(1−ε)Z", "cost", "bound 2⌈lg 1/ε⌉·B"]);
    for e in [1, 2, 4, 6, 8] {
        let eps = 2f64.powi(-e);
        let s =
            prize_collecting_with(&p.instance, &red, z, eps).expect("planted instance can reach Z");
        assert!(
            s.scheduled_value >= (1.0 - eps) * z - 1e-9,
            "E3 value guarantee violated"
        );
        let bound = 2.0 * (1.0 / eps).log2().ceil() * p.planted_cost;
        assert!(s.total_cost <= bound + 1e-9, "E3 cost bound violated");
        t.row(vec![
            format!("2^-{e}"),
            format!("{z:.1}"),
            format!("{:.1}", s.scheduled_value),
            format!("{:.1}", (1.0 - eps) * z),
            format!("{:.2}", s.total_cost),
            format!("{bound:.1}"),
        ]);
    }
    t.print();
    println!("  (B = planted cost {:.2} ≥ OPT)", p.planted_cost);

    section("E4  Theorem 2.3.3  exact-Z, cost O((log n + log Δ)·B)");
    let mut t4 = Table::new(&["Δ", "n", "Z", "value", "cost", "bound (2⌈lg nΔ⌉+1)·B"]);
    for &delta in &[1u32, 4, 16, 64, 256] {
        let cfg = PlantedConfig {
            max_value: delta,
            ..cfg
        };
        let p = planted_instance(&cfg, &mut rng);
        let total = p.instance.total_value();
        let z = rng.gen_range(0.5..0.9) * total;
        let s = prize_collecting_exact(&p.instance, &p.candidates, z, &Default::default())
            .expect("planted instance can reach Z");
        assert!(
            s.scheduled_value >= z - 1e-9,
            "E4 exact-Z guarantee violated"
        );
        let n = p.instance.num_jobs() as f64;
        let (vmin, vmax) = p.instance.value_range().unwrap();
        let d = vmax / vmin;
        let bound = (2.0 * (n * d).log2().ceil() + 1.0) * p.planted_cost;
        assert!(s.total_cost <= bound + 1e-9, "E4 cost bound violated");
        t4.row(vec![
            format!("{d:.0}"),
            format!("{n:.0}"),
            format!("{z:.1}"),
            format!("{:.1}", s.scheduled_value),
            format!("{:.2}", s.total_cost),
            format!("{bound:.1}"),
        ]);
    }
    t4.print();
}
