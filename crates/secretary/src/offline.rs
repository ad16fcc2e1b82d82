//! Offline reference solvers used to estimate `f(R)` (the offline optimum)
//! in competitive-ratio experiments.

use matroid::Matroid;
use submodular::{BitSet, SetFn};

/// Cardinality-constrained offline greedy: `k` rounds of best-marginal-gain.
/// For monotone submodular `f` this is the classical `(1−1/e)`-approximation
/// (Nemhauser–Wolsey–Fisher); we use it as the reference "OPT" proxy for
/// larger instances, and the experiments' tables label it "offline ref".
pub fn offline_greedy<F: SetFn + ?Sized>(f: &F, k: usize) -> (Vec<u32>, f64) {
    let n = f.ground_size();
    let mut set = BitSet::new(n);
    let mut cur = f.eval(&set);
    let mut chosen = Vec::with_capacity(k);
    let mut tmp = BitSet::new(n);
    for _ in 0..k {
        let mut best = (0.0f64, u32::MAX);
        for e in 0..n as u32 {
            if set.contains(e) {
                continue;
            }
            tmp.copy_from(&set);
            tmp.insert(e);
            let gain = f.eval(&tmp) - cur;
            if gain > best.0 || (gain == best.0 && best.1 != u32::MAX && e < best.1) {
                best = (gain, e);
            }
        }
        if best.1 == u32::MAX || best.0 <= 0.0 {
            break;
        }
        set.insert(best.1);
        cur += best.0;
        chosen.push(best.1);
    }
    (chosen, cur)
}

/// Exact optimum over all subsets of size ≤ `k` by enumeration. Exponential —
/// use only for small `n` (≤ 24-ish) in tests and calibration runs.
pub fn offline_exact_small<F: SetFn + ?Sized>(f: &F, k: usize) -> (Vec<u32>, f64) {
    let n = f.ground_size();
    assert!(n <= 24, "exact enumeration limited to n ≤ 24, got {n}");
    let mut best_val = f.eval(&BitSet::new(n));
    let mut best_set: Vec<u32> = Vec::new();
    let mut scratch = BitSet::new(n);

    // iterate over all masks with popcount ≤ k
    for mask in 0u32..(1u32 << n) {
        if (mask.count_ones() as usize) > k {
            continue;
        }
        scratch.clear();
        for e in 0..n as u32 {
            if mask >> e & 1 == 1 {
                scratch.insert(e);
            }
        }
        let v = f.eval(&scratch);
        if v > best_val {
            best_val = v;
            best_set = scratch.iter().collect();
        }
    }
    (best_set, best_val)
}

/// Offline greedy under `l` matroid constraints: each round adds the
/// best-marginal element whose addition stays independent in *all* matroids.
/// For monotone submodular `f` this is the classical `1/(l+1)`-approximation.
pub fn offline_matroid_greedy<F: SetFn + ?Sized>(
    f: &F,
    matroids: &[&dyn Matroid],
) -> (Vec<u32>, f64) {
    let n = f.ground_size();
    let mut set = BitSet::new(n);
    let mut ids: Vec<u32> = Vec::new();
    let mut cur = f.eval(&set);
    let mut tmp = BitSet::new(n);
    loop {
        let mut best = (0.0f64, u32::MAX);
        for e in 0..n as u32 {
            if set.contains(e) {
                continue;
            }
            if !matroids.iter().all(|m| m.can_add(&ids, e)) {
                continue;
            }
            tmp.copy_from(&set);
            tmp.insert(e);
            let gain = f.eval(&tmp) - cur;
            if gain > best.0 || (gain == best.0 && best.1 != u32::MAX && e < best.1) {
                best = (gain, e);
            }
        }
        if best.1 == u32::MAX || best.0 <= 0.0 {
            break;
        }
        set.insert(best.1);
        ids.push(best.1);
        cur += best.0;
    }
    (ids, cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use matroid::UniformMatroid;
    use submodular::functions::{AdditiveFn, CoverageFn};

    #[test]
    fn greedy_picks_top_values_for_additive() {
        let f = AdditiveFn::new(vec![5.0, 1.0, 9.0, 3.0]);
        let (chosen, val) = offline_greedy(&f, 2);
        assert_eq!(val, 14.0);
        let mut c = chosen;
        c.sort_unstable();
        assert_eq!(c, vec![0, 2]);
    }

    #[test]
    fn greedy_within_one_minus_inv_e_of_exact() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        for _ in 0..20 {
            let n = rng.gen_range(5..12usize);
            let u = rng.gen_range(5..15usize);
            let covers: Vec<Vec<u32>> = (0..n)
                .map(|_| (0..u as u32).filter(|_| rng.gen_bool(0.3)).collect())
                .collect();
            let f = CoverageFn::unweighted(u, covers);
            let k = rng.gen_range(1..=4usize);
            let (_, g) = offline_greedy(&f, k);
            let (_, opt) = offline_exact_small(&f, k);
            assert!(g >= (1.0 - 1.0 / std::f64::consts::E) * opt - 1e-9);
            assert!(g <= opt + 1e-9);
        }
    }

    #[test]
    fn exact_small_finds_optimum() {
        let f = CoverageFn::unweighted(4, vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![0, 3]]);
        let (set, val) = offline_exact_small(&f, 2);
        assert_eq!(val, 4.0);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn matroid_greedy_respects_constraint() {
        let f = AdditiveFn::new(vec![5.0, 4.0, 3.0, 2.0]);
        let m = UniformMatroid::new(4, 2);
        let ms: Vec<&dyn Matroid> = vec![&m];
        let (ids, val) = offline_matroid_greedy(&f, &ms);
        assert_eq!(ids.len(), 2);
        assert_eq!(val, 9.0);
    }

    #[test]
    fn matroid_greedy_multiple_constraints() {
        use matroid::PartitionMatroid;
        let f = AdditiveFn::new(vec![5.0, 4.0, 3.0, 2.0]);
        let m1 = UniformMatroid::new(4, 3);
        // elements {0,1} in group 0 cap 1; {2,3} group 1 cap 1
        let m2 = PartitionMatroid::new(vec![0, 0, 1, 1], vec![1, 1]);
        let ms: Vec<&dyn Matroid> = vec![&m1, &m2];
        let (ids, val) = offline_matroid_greedy(&f, &ms);
        assert_eq!(ids.len(), 2);
        assert_eq!(val, 8.0); // 5 + 3
    }
}
