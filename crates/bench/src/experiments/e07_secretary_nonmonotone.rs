//! E7 — Theorem 3.2.8: Algorithm 2 is `8e²`-competitive for non-monotone
//! submodular utilities (directed cuts).

use super::trials;
use crate::table::{section, Table};
use rand::SeedableRng;
use secretary::{nonmonotone_submodular_secretary, offline_greedy, random_stream};
use submodular::{BitSet, SetFn};
use workloads::secretary_streams::random_cut;

/// Runs E7 and prints its table.
pub fn run(seed: u64, quick: bool) {
    section(&format!("E7  Theorem 3.2.8  non-monotone (directed cut) secretary ≥ 1/(8e²) ≈ 0.0169   [seed {seed}]"));
    let runs = if quick { 300 } else { 1500 };
    let bound = 1.0 / (8.0 * std::f64::consts::E * std::f64::consts::E);
    let mut t = Table::new(&[
        "n",
        "arcs",
        "k",
        "offline ref",
        "online avg",
        "ratio",
        "bound",
    ]);

    let configs: Vec<(usize, usize, usize)> = if quick {
        vec![(40, 200, 6)]
    } else {
        vec![(30, 120, 4), (60, 400, 8), (120, 900, 12)]
    };
    for &(n, arcs, k) in &configs {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xE7 ^ (n as u64) << 4);
        let f = random_cut(n, arcs, 5, &mut rng);
        let (_, offline) = offline_greedy(&f, k);
        if offline <= 0.0 {
            continue;
        }
        let total: f64 = trials(runs, |trial| {
            let mut trng =
                rand::rngs::StdRng::seed_from_u64(seed ^ 0x7E ^ (trial as u64) << 16 ^ (n as u64));
            let s = random_stream(n, &mut trng);
            let hired = nonmonotone_submodular_secretary(&f, &s, k, &mut trng);
            f.eval(&BitSet::from_iter(n, hired))
        })
        .into_iter()
        .sum();
        let avg = total / runs as f64;
        let ratio = avg / offline;
        assert!(
            ratio >= bound,
            "E7: ratio {ratio} below Theorem 3.2.8 bound {bound}"
        );
        t.row(vec![
            n.to_string(),
            arcs.to_string(),
            k.to_string(),
            format!("{offline:.2}"),
            format!("{avg:.2}"),
            format!("{ratio:.3}"),
            format!("{bound:.4}"),
        ]);
    }
    t.print();
}
