//! Property-based tests (proptest) for the core invariants the paper's
//! correctness rests on: submodularity/monotonicity of the matching-rank
//! oracles, bicriteria guarantees of the budgeted greedy, bitset algebra,
//! matroid axioms, and schedule validity.

use power_scheduling::matching::{hopcroft_karp, BipartiteGraph, GainScratch, MatchingOracle};
use power_scheduling::matroids::{Matroid, PartitionMatroid};
use power_scheduling::prelude::*;
use power_scheduling::scheduling::model::validate_schedule;
use power_scheduling::submodular::functions::CoverageFn;
use power_scheduling::submodular::SetSystemObjective;
use proptest::prelude::*;

/// Strategy: a small random bipartite graph as (nx, ny, edge list).
fn graph_strategy() -> impl Strategy<Value = (u32, u32, Vec<(u32, u32)>)> {
    (1u32..10, 1u32..8).prop_flat_map(|(nx, ny)| {
        let edges = proptest::collection::vec((0..nx, 0..ny), 0..40);
        (Just(nx), Just(ny), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn oracle_total_matches_hopcroft_karp((nx, ny, edges) in graph_strategy(),
                                          subset_bits in proptest::collection::vec(any::<bool>(), 10)) {
        let g = BipartiteGraph::from_edges(nx, ny, &edges);
        let mut oracle = MatchingOracle::new_cardinality(&g);
        let allowed: Vec<bool> = (0..nx as usize)
            .map(|i| *subset_bits.get(i).unwrap_or(&false))
            .collect();
        for (x, &a) in allowed.iter().enumerate() {
            if a {
                oracle.add_slot(x as u32);
            }
        }
        let hk = hopcroft_karp(&g, |x| allowed[x as usize]);
        prop_assert_eq!(oracle.total(), hk.size as f64);
    }

    #[test]
    fn oracle_gain_is_pure_and_matches_commit((nx, ny, edges) in graph_strategy(),
                                              pre in proptest::collection::vec(0u32..10, 0..6),
                                              probe in proptest::collection::vec(0u32..10, 0..6)) {
        let g = BipartiteGraph::from_edges(nx, ny, &edges);
        let mut oracle = MatchingOracle::new_cardinality(&g);
        for &x in pre.iter().filter(|&&x| x < nx) {
            oracle.add_slot(x);
        }
        let probe: Vec<u32> = probe.into_iter().filter(|&x| x < nx).collect();
        let before = oracle.total();
        let mut scratch = GainScratch::new();
        let gain = oracle.gain_of(&probe, &mut scratch);
        prop_assert_eq!(oracle.total(), before, "gain_of mutated the oracle");
        let realized = oracle.commit(&probe);
        prop_assert_eq!(gain, realized, "gain_of disagreed with commit");
    }

    #[test]
    fn matching_rank_diminishing_returns((nx, ny, edges) in graph_strategy(),
                                         a_bits in proptest::collection::vec(any::<bool>(), 10),
                                         extra_bits in proptest::collection::vec(any::<bool>(), 10),
                                         v in 0u32..10) {
        prop_assume!(v < nx);
        let g = BipartiteGraph::from_edges(nx, ny, &edges);
        let eval = |slots: &[u32]| {
            let mut o = MatchingOracle::new_cardinality(&g);
            o.commit(slots);
            o.total()
        };
        let a: Vec<u32> = (0..nx).filter(|&x| *a_bits.get(x as usize).unwrap_or(&false)).collect();
        let mut b = a.clone();
        for x in 0..nx {
            if !b.contains(&x) && *extra_bits.get(x as usize).unwrap_or(&false) {
                b.push(x);
            }
        }
        let (fa, fb) = (eval(&a), eval(&b));
        prop_assert!(fb >= fa, "monotonicity violated");
        let mut av = a.clone(); av.push(v);
        let mut bv = b.clone(); bv.push(v);
        let ga = eval(&av) - fa;
        let gb = eval(&bv) - fb;
        prop_assert!(ga >= gb - 1e-9, "submodularity violated: {} < {}", ga, gb);
    }

    #[test]
    fn budgeted_greedy_bicriteria_guarantee(seed in 0u64..5000, eps_exp in 1i32..8) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = rng.gen_range(8..30usize);
        // planted unit-cost cover of size k
        let k = rng.gen_range(2..5usize);
        let mut subsets: Vec<Vec<u32>> = vec![Vec::new(); k];
        for item in 0..n as u32 {
            subsets[rng.gen_range(0..k)].push(item);
        }
        subsets.retain(|s| !s.is_empty());
        let b = subsets.len() as f64;
        for _ in 0..10 {
            let s: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(0.3)).collect();
            if !s.is_empty() { subsets.push(s); }
        }
        let costs: Vec<f64> = (0..subsets.len())
            .map(|i| if (i as f64) < b { 1.0 } else { rng.gen_range(0.5..3.0) })
            .collect();
        let f = CoverageFn::unweighted(n, (0..n).map(|i| vec![i as u32]).collect());
        let eps = 2f64.powi(-eps_exp);
        let mut obj = SetSystemObjective::new(&f, subsets, costs);
        let out = power_scheduling::submodular::budgeted_greedy(
            &mut obj, GreedyConfig::new(n as f64, eps));
        prop_assert!(out.reached_target);
        prop_assert!(out.utility >= (1.0 - eps) * n as f64 - 1e-9);
        let bound = 2.0 * (1.0 / eps).log2().ceil() * b;
        prop_assert!(out.total_cost <= bound + 1e-9,
            "cost {} above bound {}", out.total_cost, bound);
    }

    #[test]
    fn bitset_union_intersection_laws(xs in proptest::collection::vec(0u32..64, 0..30),
                                      ys in proptest::collection::vec(0u32..64, 0..30)) {
        let a = BitSet::from_iter(64, xs.iter().copied());
        let b = BitSet::from_iter(64, ys.iter().copied());
        let mut u = a.clone(); u.union_with(&b);
        let mut i = a.clone(); i.intersect_with(&b);
        // |A| + |B| = |A∪B| + |A∩B|
        prop_assert_eq!(a.count() + b.count(), u.count() + i.count());
        // A∩B ⊆ A ⊆ A∪B
        prop_assert!(i.is_subset(&a));
        prop_assert!(a.is_subset(&u));
        // intersection_count agrees with materialized intersection
        prop_assert_eq!(a.intersection_count(&b), i.count());
    }

    #[test]
    fn partition_matroid_axioms_random(groups in proptest::collection::vec(0u32..3, 1..9),
                                       caps in proptest::collection::vec(0usize..3, 3)) {
        let m = PartitionMatroid::new(groups, caps);
        if m.ground_size() <= 9 {
            prop_assert!(power_scheduling::matroids::check_matroid_axioms(&m).is_ok());
        }
    }

    #[test]
    fn schedules_always_validate(seed in 0u64..3000) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let t = rng.gen_range(3..10u32);
        let p = rng.gen_range(1..3u32);
        let n = rng.gen_range(1..6usize);
        let jobs: Vec<Job> = (0..n).map(|_| {
            let proc = rng.gen_range(0..p);
            let s = rng.gen_range(0..t);
            let e = rng.gen_range(s + 1..=t);
            Job::window(rng.gen_range(1..5) as f64, proc, s, e)
        }).collect();
        let inst = Instance::new(p, t, jobs);
        let cost = AffineCost::new(rng.gen_range(1..5) as f64, 1.0);
        let cands = enumerate_candidates(&inst, &cost, CandidatePolicy::All);
        if let Ok(s) = schedule_all(&inst, &cands, &SolveOptions::default()) {
            prop_assert!(validate_schedule(&inst, &s).is_empty());
            prop_assert_eq!(s.scheduled_count, inst.num_jobs());
        }
        // prize-collecting at half the total value must also validate
        let z = inst.total_value() / 2.0;
        if let Ok(s) = prize_collecting_exact(&inst, &cands, z, &SolveOptions::default()) {
            prop_assert!(validate_schedule(&inst, &s).is_empty());
            prop_assert!(s.scheduled_value >= z - 1e-9);
        }
    }
}
