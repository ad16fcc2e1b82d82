//! Section 3.4: the submodular secretary problem under `l` knapsack
//! constraints (Theorem 3.1.3, `O(l)`-competitive).
//!
//! Reduction (Lemma 3.4.1): scale every knapsack to capacity 1 and give item
//! `j` the single weight `w'_j = max_i w_ij / C_i`; any set feasible for the
//! single knapsack is feasible for all `l`, and the single-knapsack optimum
//! is at least `OPT/4l`. Both steps are online-safe (computable on arrival).
//!
//! Single-knapsack algorithm: flip a fair coin. *Heads*: hire the single
//! best item via the 1/e rule (covers the case of one dominant item).
//! *Tails*: observe the first half, compute a constant-factor offline
//! estimate `ÔPT` of the knapsack optimum on it (density greedy ∨ best
//! single item, in place of the Lee et al. solver the paper cites: the
//! analysis needs only a constant-factor estimate), then greedily take
//! second-half items whose marginal density beats `ÔPT/6` while they fit.

use rand::Rng;
use submodular::{BitSet, SetFn};

use crate::classic::classic_secretary;

const INV_E: f64 = 0.36787944117144233;

/// An `l`-knapsack constraint system over items `0..n`.
#[derive(Clone, Debug)]
pub struct KnapsackInstance {
    /// `weights[i][j]` = weight of item `j` in knapsack `i` (non-negative).
    pub weights: Vec<Vec<f64>>,
    /// `capacities[i]` > 0.
    pub capacities: Vec<f64>,
}

impl KnapsackInstance {
    /// Creates and validates an instance.
    pub fn new(weights: Vec<Vec<f64>>, capacities: Vec<f64>) -> Self {
        assert_eq!(weights.len(), capacities.len());
        assert!(!capacities.is_empty(), "need at least one knapsack");
        let n = weights.first().map_or(0, |w| w.len());
        for (i, row) in weights.iter().enumerate() {
            assert_eq!(row.len(), n, "knapsack {i} has wrong arity");
            assert!(row.iter().all(|&w| w >= 0.0), "negative weight");
        }
        assert!(capacities.iter().all(|&c| c > 0.0), "non-positive capacity");
        Self {
            weights,
            capacities,
        }
    }

    /// Number of knapsacks `l`.
    pub fn num_knapsacks(&self) -> usize {
        self.capacities.len()
    }

    /// Number of items.
    pub fn num_items(&self) -> usize {
        self.weights.first().map_or(0, |w| w.len())
    }

    /// Is `set` feasible in every knapsack?
    pub fn feasible(&self, set: &[u32]) -> bool {
        self.weights
            .iter()
            .zip(&self.capacities)
            .all(|(row, &c)| set.iter().map(|&j| row[j as usize]).sum::<f64>() <= c + 1e-12)
    }

    /// The reduction's single-knapsack weights `w'_j = max_i w_ij / C_i`
    /// (capacity 1).
    pub fn reduced_weights(&self) -> Vec<f64> {
        let n = self.num_items();
        (0..n)
            .map(|j| {
                self.weights
                    .iter()
                    .zip(&self.capacities)
                    .map(|(row, &c)| row[j] / c)
                    .fold(0.0, f64::max)
            })
            .collect()
    }
}

/// Offline constant-factor approximation for submodular maximization under a
/// single unit knapsack, restricted to `items`: max(density greedy, best
/// single item). Used to estimate `ÔPT` from the first half of the stream.
pub fn offline_knapsack_estimate<F: SetFn + ?Sized>(f: &F, w: &[f64], items: &[u32]) -> f64 {
    let n = f.ground_size();
    let mut best_single = 0.0f64;
    let mut buf = BitSet::new(n);
    for &j in items {
        if w[j as usize] <= 1.0 {
            buf.clear();
            buf.insert(j);
            best_single = best_single.max(f.eval(&buf));
        }
    }

    // density greedy
    let mut taken = BitSet::new(n);
    let mut cur = f.eval(&taken);
    let mut load = 0.0;
    let mut remaining: Vec<u32> = items.to_vec();
    let mut tmp = BitSet::new(n);
    loop {
        let mut best: Option<(f64, usize)> = None;
        for (pos, &j) in remaining.iter().enumerate() {
            let wj = w[j as usize];
            if wj <= 0.0 || load + wj > 1.0 {
                continue;
            }
            tmp.copy_from(&taken);
            tmp.insert(j);
            let gain = f.eval(&tmp) - cur;
            if gain <= 0.0 {
                continue;
            }
            let density = gain / wj;
            if best.is_none_or(|(d, _)| density > d) {
                best = Some((density, pos));
            }
        }
        let Some((_, pos)) = best else { break };
        let j = remaining.swap_remove(pos);
        taken.insert(j);
        load += w[j as usize];
        cur = f.eval(&taken);
    }
    cur.max(best_single)
}

/// Theorem 3.1.3: the `l`-knapsack submodular secretary algorithm. `stream`
/// is the arrival order; the returned set is feasible in every knapsack.
pub fn knapsack_secretary<F: SetFn + ?Sized>(
    f: &F,
    inst: &KnapsackInstance,
    stream: &[u32],
    rng: &mut impl Rng,
) -> Vec<u32> {
    let n = stream.len();
    if n == 0 {
        return Vec::new();
    }
    let w = inst.reduced_weights();
    let ground = f.ground_size();

    if rng.gen_bool(0.5) {
        // best single feasible item via 1/e rule
        let vals: Vec<f64> = stream
            .iter()
            .map(|&j| {
                if w[j as usize] <= 1.0 {
                    let mut b = BitSet::new(ground);
                    b.insert(j);
                    f.eval(&b)
                } else {
                    f64::NEG_INFINITY
                }
            })
            .collect();
        return match classic_secretary(&vals, INV_E) {
            Some(pos) if vals[pos].is_finite() => vec![stream[pos]],
            _ => Vec::new(),
        };
    }

    // estimate phase on the first half
    let half = n / 2;
    let estimate = offline_knapsack_estimate(f, &w, &stream[..half]);
    if estimate <= 0.0 {
        return Vec::new();
    }
    let density_bar = estimate / 6.0;

    // selection phase on the second half
    let mut taken_ids: Vec<u32> = Vec::new();
    let mut taken = BitSet::new(ground);
    let mut cur = f.eval(&taken);
    let mut load = 0.0;
    let mut tmp = BitSet::new(ground);
    for &j in &stream[half..] {
        let wj = w[j as usize];
        if wj <= 0.0 || load + wj > 1.0 {
            continue;
        }
        tmp.copy_from(&taken);
        tmp.insert(j);
        let v = f.eval(&tmp);
        let gain = v - cur;
        if gain / wj >= density_bar {
            taken.insert(j);
            taken_ids.push(j);
            cur = v;
            load += wj;
        }
    }
    taken_ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::random_stream;
    use rand::SeedableRng;
    use submodular::functions::AdditiveFn;

    fn eval_set<F: SetFn + ?Sized>(f: &F, set: &[u32]) -> f64 {
        f.eval(&BitSet::from_iter(f.ground_size(), set.iter().copied()))
    }

    #[test]
    fn reduction_weights_and_feasibility() {
        let inst = KnapsackInstance::new(
            vec![vec![2.0, 1.0, 4.0], vec![1.0, 3.0, 1.0]],
            vec![4.0, 6.0],
        );
        let w = inst.reduced_weights();
        assert_eq!(w, vec![0.5, 0.5, 1.0]);
        assert!(inst.feasible(&[0, 1]));
        assert!(inst.feasible(&[2]));
        assert!(!inst.feasible(&[0, 1, 2])); // knapsack 0: 2+1+4=7 > 4
    }

    #[test]
    fn single_knapsack_reduction_preserves_feasibility() {
        // any set feasible under (w', cap 1) must be feasible in all knapsacks
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for _ in 0..30 {
            let n = 8;
            let l = rng.gen_range(1..4usize);
            let weights: Vec<Vec<f64>> = (0..l)
                .map(|_| (0..n).map(|_| rng.gen_range(0.0..3.0)).collect())
                .collect();
            let caps: Vec<f64> = (0..l).map(|_| rng.gen_range(1.0..5.0)).collect();
            let inst = KnapsackInstance::new(weights, caps);
            let w = inst.reduced_weights();
            // random subsets feasible under reduced weights
            let set: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(0.4)).collect();
            let reduced_ok = set.iter().map(|&j| w[j as usize]).sum::<f64>() <= 1.0;
            if reduced_ok {
                assert!(inst.feasible(&set), "reduction not conservative");
            }
        }
    }

    #[test]
    fn offline_estimate_reasonable() {
        // items weights 0.5 each, additive values; best pair value
        let f = AdditiveFn::new(vec![4.0, 3.0, 2.0, 1.0]);
        let w = vec![0.5, 0.5, 0.5, 0.5];
        let est = offline_knapsack_estimate(&f, &w, &[0, 1, 2, 3]);
        assert_eq!(est, 7.0); // density greedy takes items 0 and 1
    }

    #[test]
    fn output_always_feasible() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        use rand::Rng;
        let n = 30;
        let f = AdditiveFn::new((0..n).map(|_| rng.gen_range(1.0..10.0)).collect());
        let weights: Vec<Vec<f64>> = (0..2)
            .map(|_| (0..n).map(|_| rng.gen_range(0.1..2.0)).collect())
            .collect();
        let inst = KnapsackInstance::new(weights, vec![3.0, 4.0]);
        for _ in 0..200 {
            let s = random_stream(n, &mut rng);
            let taken = knapsack_secretary(&f, &inst, &s, &mut rng);
            assert!(inst.feasible(&taken), "infeasible output {taken:?}");
        }
    }

    #[test]
    fn achieves_constant_fraction_of_offline() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
        use rand::Rng;
        let n = 60;
        let values: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..10.0)).collect();
        let f = AdditiveFn::new(values);
        let weights = vec![(0..n)
            .map(|_| rng.gen_range(0.1..1.0))
            .collect::<Vec<f64>>()];
        let inst = KnapsackInstance::new(weights, vec![2.0]);
        let w = inst.reduced_weights();
        let all: Vec<u32> = (0..n as u32).collect();
        let offline = offline_knapsack_estimate(&f, &w, &all);
        assert!(offline > 0.0);
        let trials = 600;
        let mut total = 0.0;
        for _ in 0..trials {
            let s = random_stream(n, &mut rng);
            let taken = knapsack_secretary(&f, &inst, &s, &mut rng);
            total += eval_set(&f, &taken);
        }
        let ratio = (total / trials as f64) / offline;
        assert!(
            ratio >= 0.05,
            "knapsack secretary ratio {ratio} too far below constant"
        );
    }

    #[test]
    fn empty_stream() {
        let f = AdditiveFn::new(vec![]);
        let inst = KnapsackInstance::new(vec![vec![]], vec![1.0]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        assert!(knapsack_secretary(&f, &inst, &[], &mut rng).is_empty());
    }
}
