//! Set Cover and Max-k-Cover as special cases of budgeted submodular
//! maximization.
//!
//! The paper (§2.1) observes that the Lemma 2.1.2 greedy generalizes the
//! classical Set Cover greedy: running it with target `x = n` (the universe
//! size) and `ε < 1/n` recovers a full cover of cost `O(B log n)`; the
//! classical `H_n` analysis gives cost ≤ `(ln n + 1)·OPT` for the same picks
//! under linear costs. This module packages both views plus the Max-k-Cover
//! greedy with its `(1 − 1/e)` guarantee — all reused by the hardness
//! experiments (Appendix .1 reductions) and the secretary workloads.

use crate::budgeted::{budgeted_greedy, GreedyConfig, GreedyOutcome, SetSystemObjective};
use crate::functions::{CoverageFn, SetFn};
use crate::BitSet;

/// A weighted Set Cover instance: universe `0..n`, sets with positive costs.
#[derive(Clone, Debug)]
pub struct SetCoverInstance {
    /// Universe size `n`.
    pub universe: usize,
    /// The sets.
    pub sets: Vec<Vec<u32>>,
    /// Positive per-set costs.
    pub costs: Vec<f64>,
}

impl SetCoverInstance {
    /// Creates an instance with unit costs.
    pub fn unit_costs(universe: usize, sets: Vec<Vec<u32>>) -> Self {
        let costs = vec![1.0; sets.len()];
        Self {
            universe,
            sets,
            costs,
        }
    }

    /// Whether the union of all sets covers the universe.
    pub fn is_coverable(&self) -> bool {
        let mut cov = BitSet::new(self.universe);
        for s in &self.sets {
            for &e in s {
                cov.insert(e);
            }
        }
        cov.count() == self.universe
    }

    /// `H_n = 1 + 1/2 + … + 1/n`, the classical greedy guarantee factor.
    pub fn harmonic_bound(&self) -> f64 {
        (1..=self.universe).map(|i| 1.0 / i as f64).sum()
    }
}

/// Result of the Set Cover greedy.
#[derive(Clone, Debug)]
pub struct SetCoverSolution {
    /// Chosen set indices in pick order.
    pub chosen: Vec<usize>,
    /// Total cost.
    pub cost: f64,
    /// Number of universe items covered.
    pub covered: usize,
    /// Whether the whole universe was covered.
    pub complete: bool,
    /// The underlying greedy outcome (trace, evaluation counts).
    pub outcome: GreedyOutcome,
}

/// Solves Set Cover with the Lemma 2.1.2 greedy (`x = n`, `ε = 1/(n+1)`), as
/// the paper prescribes. Under linear costs the picks coincide with the
/// classical greedy, so cost ≤ `H_n · OPT`.
pub fn greedy_set_cover(inst: &SetCoverInstance) -> SetCoverSolution {
    let n = inst.universe;
    let f = CoverageFn::unweighted(n, (0..n).map(|i| vec![i as u32]).collect());
    // Ground elements are universe items; allowable subsets are the sets.
    let mut obj = SetSystemObjective::new(&f, inst.sets.clone(), inst.costs.clone());
    let eps = 1.0 / (n as f64 + 1.0);
    let out = budgeted_greedy(&mut obj, GreedyConfig::new(n as f64, eps));
    // Integral utility: (1 - 1/(n+1))·n > n-1 forces utility == n on success.
    let covered = out.utility.round() as usize;
    SetCoverSolution {
        chosen: out.chosen.clone(),
        cost: out.total_cost,
        covered,
        complete: covered == n,
        outcome: out,
    }
}

/// Max-k-Cover: choose at most `k` sets maximizing coverage. The classical
/// greedy achieves `(1 − 1/e)·OPT` (Nemhauser et al.; cited as [35, 41] in
/// the paper). Works for any monotone submodular `f`, not just coverage.
pub fn greedy_max_cover<F: SetFn>(f: &F, subsets: &[Vec<u32>], k: usize) -> (Vec<usize>, f64) {
    let n = f.ground_size();
    let mut union = BitSet::new(n);
    let mut current = f.eval(&union);
    let mut chosen = Vec::with_capacity(k);
    let mut tmp = BitSet::new(n);
    for _ in 0..k.min(subsets.len()) {
        let mut best = (f64::NEG_INFINITY, usize::MAX);
        for (i, s) in subsets.iter().enumerate() {
            if chosen.contains(&i) {
                continue;
            }
            tmp.copy_from(&union);
            for &e in s {
                tmp.insert(e);
            }
            let gain = f.eval(&tmp) - current;
            if gain > best.0 || (gain == best.0 && i < best.1) {
                best = (gain, i);
            }
        }
        let (gain, idx) = best;
        if idx == usize::MAX || gain <= 0.0 {
            break;
        }
        for &e in &subsets[idx] {
            union.insert(e);
        }
        current += gain;
        chosen.push(idx);
    }
    (chosen, current)
}

/// Exact minimum-cost set cover by exhaustive subset search. Exponential in
/// the number of sets — strictly for small test/experiment instances.
///
/// Returns `None` if the instance is not coverable.
pub fn exact_set_cover(inst: &SetCoverInstance) -> Option<(Vec<usize>, f64)> {
    let m = inst.sets.len();
    assert!(m <= 24, "exact set cover is exponential; m={m} too large");
    let full: u64 = if inst.universe == 64 {
        u64::MAX
    } else {
        (1u64 << inst.universe) - 1
    };
    assert!(
        inst.universe <= 64,
        "exact set cover supports universes up to 64"
    );
    let masks: Vec<u64> = inst
        .sets
        .iter()
        .map(|s| s.iter().fold(0u64, |m, &e| m | (1 << e)))
        .collect();
    let mut best: Option<(Vec<usize>, f64)> = None;
    for pick in 0u32..(1 << m) {
        let mut cov = 0u64;
        let mut cost = 0.0;
        for (i, &mask) in masks.iter().enumerate() {
            if pick >> i & 1 == 1 {
                cov |= mask;
                cost += inst.costs[i];
            }
        }
        if cov == full && best.as_ref().is_none_or(|(_, c)| cost < *c) {
            let chosen = (0..m).filter(|&i| pick >> i & 1 == 1).collect();
            best = Some((chosen, cost));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_simple_instance() {
        let inst = SetCoverInstance::unit_costs(4, vec![vec![0, 1], vec![2], vec![3], vec![2, 3]]);
        let sol = greedy_set_cover(&inst);
        assert!(sol.complete);
        assert_eq!(sol.covered, 4);
        // optimal: {0,1} + {2,3} = cost 2; greedy should find it here
        assert_eq!(sol.cost, 2.0);
    }

    #[test]
    fn respects_harmonic_bound_randomized() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..30 {
            let n = rng.gen_range(4..12usize);
            let m = rng.gen_range(3..10usize);
            let mut sets: Vec<Vec<u32>> = (0..m)
                .map(|_| (0..n as u32).filter(|_| rng.gen_bool(0.4)).collect())
                .collect();
            // guarantee coverability
            sets.push((0..n as u32).collect());
            let costs: Vec<f64> = (0..sets.len())
                .map(|_| rng.gen_range(1..5) as f64)
                .collect();
            let inst = SetCoverInstance {
                universe: n,
                sets,
                costs,
            };
            let sol = greedy_set_cover(&inst);
            assert!(sol.complete);
            let (_, opt) = exact_set_cover(&inst).unwrap();
            assert!(
                sol.cost <= (inst.harmonic_bound() + 1.0) * opt + 1e-9,
                "greedy {} vs bound {} (opt {opt})",
                sol.cost,
                (inst.harmonic_bound() + 1.0) * opt
            );
        }
    }

    #[test]
    fn incomplete_when_uncoverable() {
        let inst = SetCoverInstance::unit_costs(3, vec![vec![0], vec![1]]);
        assert!(!inst.is_coverable());
        let sol = greedy_set_cover(&inst);
        assert!(!sol.complete);
        assert_eq!(sol.covered, 2);
    }

    #[test]
    fn max_cover_respects_k() {
        let f = CoverageFn::unweighted(6, (0..6).map(|i| vec![i as u32]).collect());
        let subsets = vec![vec![0, 1, 2], vec![2, 3], vec![4, 5], vec![0, 5]];
        let (chosen, val) = greedy_max_cover(&f, &subsets, 2);
        assert_eq!(chosen.len(), 2);
        assert_eq!(val, 5.0); // {0,1,2} + {4,5}
        assert_eq!(chosen, vec![0, 2]);
    }

    #[test]
    fn max_cover_one_minus_inv_e_randomized() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for _ in 0..20 {
            let n = rng.gen_range(5..12usize);
            let m = rng.gen_range(3..8usize);
            let k = rng.gen_range(1..=m.min(4));
            let subsets: Vec<Vec<u32>> = (0..m)
                .map(|_| (0..n as u32).filter(|_| rng.gen_bool(0.4)).collect())
                .collect();
            let f = CoverageFn::unweighted(n, (0..n).map(|i| vec![i as u32]).collect());
            let (_, greedy_val) = greedy_max_cover(&f, &subsets, k);
            // brute-force optimum over k-subsets
            let mut opt = 0.0f64;
            let idx: Vec<usize> = (0..m).collect();
            fn combos(idx: &[usize], k: usize) -> Vec<Vec<usize>> {
                if k == 0 {
                    return vec![vec![]];
                }
                if idx.len() < k {
                    return vec![];
                }
                let mut out = combos(&idx[1..], k - 1)
                    .into_iter()
                    .map(|mut c| {
                        c.insert(0, idx[0]);
                        c
                    })
                    .collect::<Vec<_>>();
                out.extend(combos(&idx[1..], k));
                out
            }
            for c in combos(&idx, k) {
                let mut u = BitSet::new(n);
                for &i in &c {
                    for &e in &subsets[i] {
                        u.insert(e);
                    }
                }
                opt = opt.max(f.eval(&u));
            }
            assert!(
                greedy_val >= (1.0 - 1.0 / std::f64::consts::E) * opt - 1e-9,
                "greedy {greedy_val} below (1-1/e)*{opt}"
            );
        }
    }

    #[test]
    fn exact_set_cover_finds_optimum() {
        let inst = SetCoverInstance {
            universe: 4,
            sets: vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![0, 1, 2, 3]],
            costs: vec![1.0, 1.0, 1.0, 2.5],
        };
        let (chosen, cost) = exact_set_cover(&inst).unwrap();
        assert_eq!(cost, 2.0);
        assert_eq!(chosen, vec![0, 2]);
    }

    #[test]
    fn exact_set_cover_none_when_uncoverable() {
        let inst = SetCoverInstance::unit_costs(2, vec![vec![0]]);
        assert!(exact_set_cover(&inst).is_none());
    }
}
