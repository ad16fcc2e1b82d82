//! E6 — Theorem 3.2.5: the monotone submodular secretary algorithm is
//! `(1−1/e)/(7e)`-competitive in expectation.
//!
//! Monte-Carlo over random arrival orders on coverage and facility-location
//! utilities; reference is the offline greedy (a `(1−1/e)`-approximation of
//! the true optimum, so the reported ratio *underestimates* competitiveness
//! against `f(R)` by at most that factor — still far above the bound).

use super::trials;
use crate::table::{section, Table};
use rand::SeedableRng;
use secretary::{offline_greedy, random_stream, submodular_secretary};
use submodular::{BitSet, SetFn};
use workloads::secretary_streams::{random_coverage, random_facility_location};

/// Runs E6 and prints its table.
pub fn run(seed: u64, quick: bool) {
    section(&format!(
        "E6  Theorem 3.2.5  monotone submodular secretary ≥ (1−1/e)/(7e) ≈ 0.0332   [seed {seed}]"
    ));
    let runs = if quick { 200 } else { 1000 };
    let mut t = Table::new(&[
        "utility",
        "n",
        "k",
        "offline ref",
        "online avg",
        "ratio",
        "bound",
    ]);
    let bound = (1.0 - 1.0 / std::f64::consts::E) / (7.0 * std::f64::consts::E);

    let configs: Vec<(usize, usize)> = if quick {
        vec![(60, 4), (120, 8)]
    } else {
        vec![(50, 2), (100, 4), (200, 8), (400, 16), (1000, 32)]
    };

    for &(n, k) in &configs {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ (n as u64) << 8 ^ k as u64);
        for which in ["coverage", "facility"] {
            let f: Box<dyn SetFn + Send + Sync> = match which {
                "coverage" => Box::new(random_coverage(n, n / 2 + 10, 0.08, &mut rng)),
                _ => Box::new(random_facility_location(n, n / 3 + 5, &mut rng)),
            };
            let (_, offline) = offline_greedy(f.as_ref(), k);
            if offline <= 0.0 {
                continue;
            }
            // parallel Monte-Carlo with per-trial derived seeds (reproducible)
            let total: f64 = trials(runs, |trial| {
                let mut trng = rand::rngs::StdRng::seed_from_u64(
                    seed ^ 0xE6 ^ (trial as u64) << 20 ^ (n as u64),
                );
                let s = random_stream(n, &mut trng);
                let hired = submodular_secretary(f.as_ref(), &s, k);
                f.eval(&BitSet::from_iter(n, hired))
            })
            .into_iter()
            .sum();
            let avg = total / runs as f64;
            let ratio = avg / offline;
            assert!(
                ratio >= bound,
                "E6: ratio {ratio} below Theorem 3.2.5 bound {bound} ({which}, n={n}, k={k})"
            );
            t.row(vec![
                which.to_string(),
                n.to_string(),
                k.to_string(),
                format!("{offline:.2}"),
                format!("{avg:.2}"),
                format!("{ratio:.3}"),
                format!("{bound:.4}"),
            ]);
        }
    }
    t.print();
    println!("  ({runs} Monte-Carlo arrival orders per row; reference = offline greedy)");
}
