//! E8 — Theorem 3.1.2: matroid-constrained submodular secretary,
//! `O(l log² r)`-competitive, across matroid families and `l ∈ {1,2,3}`.

use super::trials;
use crate::table::{section, Table};
use matroid::{GraphicMatroid, LaminarMatroid, Matroid, PartitionMatroid, UniformMatroid};
use rand::SeedableRng;
use secretary::{matroid_submodular_secretary, offline_matroid_greedy, random_stream};
use submodular::{BitSet, SetFn};
use workloads::secretary_streams::random_coverage;

/// Runs E8 and prints its table.
pub fn run(seed: u64, quick: bool) {
    section(&format!(
        "E8  Theorem 3.1.2  matroid submodular secretary, Ω(1/(l log² r))   [seed {seed}]"
    ));
    let runs = if quick { 200 } else { 800 };
    let n = if quick { 48 } else { 96 };
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xE8);
    let f = random_coverage(n, n / 2, 0.1, &mut rng);

    // matroid menagerie over ground 0..n
    let uniform = UniformMatroid::new(n, 8);
    let partition = PartitionMatroid::new((0..n as u32).map(|e| e % 6).collect(), vec![2; 6]);
    let laminar = LaminarMatroid::new(
        n,
        vec![(0..n as u32 / 2).collect(), (0..n as u32).collect()],
        vec![4, 10],
    );
    // graphic matroid on a random graph with n edges
    let verts = n / 3;
    let edges: Vec<(u32, u32)> = {
        use rand::Rng;
        (0..n)
            .map(|_| {
                (
                    rng.gen_range(0..verts as u32),
                    rng.gen_range(0..verts as u32),
                )
            })
            .collect()
    };
    let graphic = GraphicMatroid::new(verts, edges);

    let families: Vec<(&str, Vec<&dyn Matroid>)> = vec![
        ("uniform(8)", vec![&uniform]),
        ("partition", vec![&partition]),
        ("graphic", vec![&graphic]),
        ("laminar", vec![&laminar]),
        ("l=2: unif∧part", vec![&uniform, &partition]),
        ("l=3: +laminar", vec![&uniform, &partition, &laminar]),
    ];

    let mut t = Table::new(&[
        "constraint",
        "l",
        "r",
        "offline ref",
        "online avg",
        "ratio",
        "Ω(1/(l·lg²r))",
    ]);
    for (name, ms) in &families {
        let l = ms.len() as f64;
        let r = matroid::max_rank(ms) as f64;
        let (_, offline) = offline_matroid_greedy(&f, ms);
        if offline <= 0.0 {
            continue;
        }
        let total: f64 = trials(runs, |trial| {
            let mut trng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x8E ^ (trial as u64) << 12);
            let s = random_stream(n, &mut trng);
            let hired = matroid_submodular_secretary(&f, &s, ms, &mut trng);
            debug_assert!(matroid::independent_in_all(ms, &hired));
            f.eval(&BitSet::from_iter(n, hired))
        })
        .into_iter()
        .sum();
        let avg = total / runs as f64;
        let ratio = avg / offline;
        let nominal = 1.0 / (8.0 * std::f64::consts::E * l * r.log2().max(1.0).powi(2));
        assert!(
            ratio >= nominal,
            "E8: {name} ratio {ratio} below the Θ(1/(l log² r)) shape {nominal}"
        );
        t.row(vec![
            name.to_string(),
            format!("{l:.0}"),
            format!("{r:.0}"),
            format!("{offline:.2}"),
            format!("{avg:.2}"),
            format!("{ratio:.3}"),
            format!("{nominal:.4}"),
        ]);
    }
    t.print();
    println!("  (independence of every hired set asserted in debug builds)");
}
