//! E1 — Theorem 2.2.1: the schedule-all greedy's cost is `O(B log n)`.
//!
//! Planted instances across `n`, `p`, and cost models; the measured ratio is
//! `greedy / B` where `B` is the planted solution's cost (≥ OPT, so the
//! reported ratio is conservative). For small instances the exact
//! branch-and-bound optimum is also computed and the true ratio shown.

use crate::table::{section, Table};
use baselines::exact_schedule_all;
use rand::SeedableRng;
use sched_core::{schedule_all, CandidatePolicy};
use workloads::planted::PlantedCostModel;
use workloads::{planted_instance, PlantedConfig};

/// Runs E1 and prints its table.
pub fn run(seed: u64, quick: bool) {
    section(&format!(
        "E1  Theorem 2.2.1  schedule-all, cost ≤ O(B log n)   [seed {seed}]"
    ));
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

    let sizes: &[(usize, u32, u32)] = if quick {
        &[(8, 1, 12), (16, 2, 16), (32, 2, 24)]
    } else {
        &[
            (8, 1, 12),
            (16, 2, 16),
            (32, 2, 24),
            (64, 4, 32),
            (128, 4, 48),
            (256, 4, 64),
        ]
    };
    let models: &[(&str, PlantedCostModel)] = &[
        ("affine", PlantedCostModel::Affine { restart: 3.0 }),
        ("market", PlantedCostModel::Market { restart: 2.0 }),
        (
            "convex",
            PlantedCostModel::Convex {
                restart: 1.0,
                quad: 0.3,
            },
        ),
    ];

    let mut t = Table::new(&[
        "n",
        "p",
        "model",
        "B(plant)",
        "greedy",
        "ratio≤",
        "bound 2⌈lg(n+1)⌉",
        "exactOPT",
        "ratio/OPT",
    ]);
    for &(n, p, horizon) in sizes {
        for (mname, model) in models {
            let cfg = PlantedConfig {
                num_processors: p,
                horizon,
                target_jobs: n,
                decoy_prob: 0.3,
                max_value: 1,
                cost_model: *model,
                policy: CandidatePolicy::All,
            };
            let inst = planted_instance(&cfg, &mut rng);
            let nn = inst.instance.num_jobs() as f64;
            let s = schedule_all(&inst.instance, &inst.candidates, &Default::default())
                .expect("planted instances are feasible");
            let ratio = s.total_cost / inst.planted_cost;
            let bound = 2.0 * (nn + 1.0).log2().ceil();
            assert!(
                ratio <= bound + 1e-9,
                "E1 bound violated: {ratio} > {bound}"
            );

            // exact OPT for small instances only (B&B is exponential)
            let (opt_s, opt_ratio) =
                if inst.instance.num_jobs() <= 10 && inst.candidates.len() <= 700 {
                    match exact_schedule_all(&inst.instance, &inst.candidates, 4_000_000) {
                        Some(ex) => (
                            format!("{:.2}", ex.cost),
                            format!("{:.3}", s.total_cost / ex.cost),
                        ),
                        None => ("-".into(), "-".into()),
                    }
                } else {
                    ("-".into(), "-".into())
                };

            t.row(vec![
                inst.instance.num_jobs().to_string(),
                p.to_string(),
                mname.to_string(),
                format!("{:.2}", inst.planted_cost),
                format!("{:.2}", s.total_cost),
                format!("{ratio:.3}"),
                format!("{bound:.0}"),
                opt_s,
                opt_ratio,
            ]);
        }
    }
    t.print();
    println!("  (ratio≤ is vs the planted cost B ≥ OPT, hence conservative)");
}
