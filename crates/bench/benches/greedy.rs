//! Criterion benches for the Lemma 2.1.2 budgeted greedy: eager vs lazy vs
//! parallel candidate scans on coverage set systems (the lazy-vs-eager
//! ablation of experiment E14).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{Rng, SeedableRng};
use submodular::functions::CoverageFn;
use submodular::{budgeted_greedy, GreedyConfig, SetSystemObjective};

struct Inst {
    f: CoverageFn,
    subsets: Vec<Vec<u32>>,
    costs: Vec<f64>,
    universe: usize,
}

fn coverage_instance(universe: usize, m: usize, seed: u64) -> Inst {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut subsets: Vec<Vec<u32>> = (0..m)
        .map(|_| {
            (0..universe as u32)
                .filter(|_| rng.gen_bool(0.05))
                .collect()
        })
        .collect();
    subsets.push((0..universe as u32).collect()); // coverable guarantee
    let costs = (0..subsets.len())
        .map(|i| {
            if i + 1 == subsets.len() {
                universe as f64
            } else {
                rng.gen_range(0.5..4.0)
            }
        })
        .collect();
    let f = CoverageFn::unweighted(universe, (0..universe).map(|i| vec![i as u32]).collect());
    Inst {
        f,
        subsets,
        costs,
        universe,
    }
}

fn bench_greedy_variants(c: &mut Criterion) {
    let mut g = c.benchmark_group("budgeted_greedy");
    g.sample_size(10);
    for &(u, m) in &[(300usize, 200usize), (1000, 800)] {
        let inst = coverage_instance(u, m, 7);
        for (name, lazy, parallel) in [
            ("eager", false, false),
            ("lazy", true, false),
            ("lazy_par", true, true),
        ] {
            g.bench_with_input(
                BenchmarkId::new(name, format!("u{u}_m{m}")),
                &inst,
                |b, inst| {
                    b.iter(|| {
                        let mut obj = SetSystemObjective::new(
                            &inst.f,
                            inst.subsets.clone(),
                            inst.costs.clone(),
                        );
                        let cfg = GreedyConfig {
                            target: inst.universe as f64,
                            epsilon: 1.0 / (inst.universe as f64 + 1.0),
                            lazy,
                            parallel,
                        };
                        budgeted_greedy(&mut obj, cfg).total_cost
                    })
                },
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_greedy_variants);
criterion_main!(benches);
