//! E12 — Lemmas 2.2.2 / 2.3.2: randomized falsification attempt on the
//! submodularity and monotonicity of the matching-rank utilities.
//!
//! Samples random bipartite graphs, random nested pairs `A ⊆ B`, and random
//! probe slots `v`, and counts violations of
//! `F(A∪{v}) − F(A) ≥ F(B∪{v}) − F(B)` — the count must be exactly zero for
//! both the cardinality and weighted oracles (the paper's proofs say so; the
//! experiment hammers the implementation).

use super::trials;
use crate::table::{section, Table};
use bmatch::{BipartiteGraph, MatchingOracle};
use rand::{Rng, SeedableRng};

/// Runs E12 and prints its table.
pub fn run(seed: u64, quick: bool) {
    section(&format!(
        "E12  Lemmas 2.2.2/2.3.2  matching rank is monotone submodular   [seed {seed}]"
    ));
    let samples = if quick { 2_000 } else { 20_000 };
    let mut t = Table::new(&[
        "oracle",
        "samples",
        "submod. violations",
        "monot. violations",
    ]);

    for weighted in [false, true] {
        let (sub_v, mono_v) = trials(samples, |i| {
            let mut rng =
                rand::rngs::StdRng::seed_from_u64(seed ^ 0x12 ^ (i as u64) << 1 ^ weighted as u64);
            let nx = rng.gen_range(2..=14u32);
            let ny = rng.gen_range(1..=10u32);
            let mut edges = Vec::new();
            for x in 0..nx {
                for y in 0..ny {
                    if rng.gen_bool(0.3) {
                        edges.push((x, y));
                    }
                }
            }
            let g = BipartiteGraph::from_edges(nx, ny, &edges);
            let values: Vec<f64> = (0..ny)
                .map(|_| {
                    if weighted {
                        rng.gen_range(1..=12) as f64
                    } else {
                        1.0
                    }
                })
                .collect();
            let eval = |slots: &[u32]| {
                let mut o = MatchingOracle::new(&g, values.clone());
                o.commit(slots);
                o.total()
            };
            let a: Vec<u32> = (0..nx).filter(|_| rng.gen_bool(0.3)).collect();
            let mut b = a.clone();
            for x in 0..nx {
                if !b.contains(&x) && rng.gen_bool(0.3) {
                    b.push(x);
                }
            }
            let v = rng.gen_range(0..nx);
            let (fa, fb) = (eval(&a), eval(&b));
            let mut av = a.clone();
            av.push(v);
            let mut bv = b.clone();
            bv.push(v);
            let ga = eval(&av) - fa;
            let gb = eval(&bv) - fb;
            let sub = usize::from(ga < gb - 1e-9);
            let mono = usize::from(fb < fa - 1e-9);
            (sub, mono)
        })
        .into_iter()
        .fold((0, 0), |x, y| (x.0 + y.0, x.1 + y.1));

        assert_eq!(sub_v, 0, "E12: submodularity violated!");
        assert_eq!(mono_v, 0, "E12: monotonicity violated!");
        t.row(vec![
            if weighted {
                "weighted (L2.3.2)"
            } else {
                "cardinality (L2.2.2)"
            }
            .to_string(),
            samples.to_string(),
            sub_v.to_string(),
            mono_v.to_string(),
        ]);
    }
    t.print();
}
