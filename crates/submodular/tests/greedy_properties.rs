//! Property tests for the budgeted greedy across objective implementations:
//! the lazy greedy ≡ an eager full-scan reference, grouped lazy keys ≡
//! singleton keys, upper-bound first keys ≡ exact ones, trace/accounting
//! invariants, and Lemma 2.1.1 (the paper's key lemma).

use proptest::prelude::*;
use submodular::budgeted::SetSystemScratch;
use submodular::functions::CoverageFn;
use submodular::{
    budgeted_greedy, budgeted_greedy_in, BitSet, BudgetedObjective, GreedyBuffers, GreedyConfig,
    GreedyOutcome, SetFn, SetSystemObjective,
};

/// A set system that declares consecutive groups of its subsets, so the
/// lazy greedy keeps one heap entry per group and refreshes a group's
/// members together. The groups flagged in `bounded` give the lazy loop an
/// upper bound as their members' first values instead of the exact gains.
struct Grouped<'f> {
    inner: SetSystemObjective<'f, CoverageFn>,
    groups: Vec<(u32, u32)>,
    bounded: Vec<bool>,
    /// The largest total item weight one ground element covers: no ground
    /// element adds more to the coverage, so `|Sᵢ|` times this bounds the
    /// gain of subset `i` against any solution.
    max_cover: f64,
}

impl<'f> Grouped<'f> {
    fn new(
        f: &'f CoverageFn,
        subsets: &[Vec<u32>],
        costs: &[f64],
        groups: Vec<(u32, u32)>,
        bounded: &[bool],
    ) -> Self {
        let max_cover = (0..f.ground_size())
            .map(|e| f.covers(e).iter().map(|&u| f.weight(u)).sum::<f64>())
            .fold(0.0, f64::max);
        Self {
            inner: SetSystemObjective::new(f, subsets.to_vec(), costs.to_vec()),
            bounded: (0..groups.len())
                .map(|g| bounded.get(g) == Some(&true))
                .collect(),
            groups,
            max_cover,
        }
    }
}

impl BudgetedObjective for Grouped<'_> {
    type Scratch = SetSystemScratch;

    fn num_subsets(&self) -> usize {
        self.inner.num_subsets()
    }

    fn cost(&self, i: usize) -> f64 {
        self.inner.cost(i)
    }

    fn current(&self) -> f64 {
        self.inner.current()
    }

    fn gain(&self, i: usize, scratch: &mut Self::Scratch) -> f64 {
        self.inner.gain(i, scratch)
    }

    fn commit(&mut self, i: usize) -> f64 {
        self.inner.commit(i)
    }

    fn groups(&self) -> &[(u32, u32)] {
        &self.groups
    }

    fn first_values(
        &self,
        scratch: &mut Self::Scratch,
        out: &mut Vec<f64>,
        bounded: &mut Vec<u32>,
    ) {
        out.clear();
        bounded.clear();
        for (g, &(lo, hi)) in self.groups.iter().enumerate() {
            for i in lo as usize..hi as usize {
                out.push(if self.bounded[g] {
                    self.inner.subsets()[i].len() as f64 * self.max_cover
                } else {
                    self.inner.gain(i, scratch)
                });
            }
            if self.bounded[g] {
                bounded.push(g as u32);
            }
        }
    }
}

/// What the eager reference picked.
struct Eager {
    chosen: Vec<usize>,
    total_cost: f64,
    utility: f64,
    /// `m` per full scan.
    evaluations: usize,
}

/// The eager reference: the Lemma 2.1.2 greedy as one full scan per pick,
/// which the lazy loop must match pick for pick, ties included. Each round
/// evaluates every subset's exact gain, clamps it to `target − F(S)`, and
/// commits the best by clamped ratio (descending), then cost (ascending),
/// then index (ascending). It stops at utility `(1−ε)·target` or when no
/// subset has a positive clamped gain.
fn eager_reference<O: BudgetedObjective>(obj: &mut O, target: f64, epsilon: f64) -> Eager {
    let goal = (1.0 - epsilon) * target;
    let mut scratch = O::Scratch::default();
    let mut out = Eager {
        chosen: Vec::new(),
        total_cost: 0.0,
        utility: obj.current(),
        evaluations: 0,
    };
    while out.utility < goal {
        // (ratio, cost, index) of the best subset so far; a later index
        // replaces it only when strictly better, so index ascending breaks
        // the last tie
        let mut best: Option<(f64, f64, usize)> = None;
        for i in 0..obj.num_subsets() {
            let gain = obj.gain(i, &mut scratch).min(target - out.utility).max(0.0);
            let (ratio, cost) = (gain / obj.cost(i), obj.cost(i));
            if best.is_none_or(|(r, c, _)| ratio > r || (ratio == r && cost < c)) {
                best = Some((ratio, cost, i));
            }
        }
        out.evaluations += obj.num_subsets();
        let Some((_, cost, i)) = best.filter(|&(ratio, _, _)| ratio > 0.0) else {
            break; // stalled
        };
        obj.commit(i);
        out.chosen.push(i);
        out.total_cost += cost;
        out.utility = obj.current();
    }
    out
}

/// [`eager_reference`] on the plain set system.
fn run_eager(f: &CoverageFn, subsets: &[Vec<u32>], costs: &[f64], target: f64, eps: f64) -> Eager {
    let mut obj = SetSystemObjective::new(f, subsets.to_vec(), costs.to_vec());
    eager_reference(&mut obj, target, eps)
}

/// Splits `0..m` into consecutive groups, cutting after every `i` with
/// `cuts[i]` set.
fn groups_from_cuts(m: usize, cuts: &[bool]) -> Vec<(u32, u32)> {
    let mut groups = Vec::new();
    let mut lo = 0;
    for i in 0..m {
        if i + 1 == m || cuts[i % cuts.len()] {
            groups.push((lo as u32, i as u32 + 1));
            lo = i + 1;
        }
    }
    groups
}

/// Runs the greedy on `subsets` with the given groups (`None`: the plain
/// set system, whose groups are singletons), bounding the first values of
/// the groups flagged in `bounded`.
fn run_grouped(
    f: &CoverageFn,
    subsets: &[Vec<u32>],
    costs: &[f64],
    cfg: GreedyConfig,
    groups: Option<Vec<(u32, u32)>>,
    bounded: &[bool],
) -> GreedyOutcome {
    match groups {
        Some(groups) => budgeted_greedy(&mut Grouped::new(f, subsets, costs, groups, bounded), cfg),
        None => budgeted_greedy(
            &mut SetSystemObjective::new(f, subsets.to_vec(), costs.to_vec()),
            cfg,
        ),
    }
}

/// Identity coverage over `items`: ground element `i` covers item `i`, so a
/// subset is a set of items.
fn identity(items: usize) -> CoverageFn {
    CoverageFn::unweighted(items, (0..items).map(|i| vec![i as u32]).collect())
}

/// Runs one instance to full coverage with the eager reference, lazily with
/// singleton groups, and lazily with `groups`, exact and with the `bounded`
/// groups' first values bounded, and checks all four pick `expected`.
fn assert_tie_order(
    f: &CoverageFn,
    subsets: &[Vec<u32>],
    costs: &[f64],
    groups: &[(u32, u32)],
    bounded: &[bool],
    expected: &[usize],
) {
    let target = f.eval(&BitSet::full(f.ground_size()));
    let eps = 0.5 / target;
    let cfg = GreedyConfig::new(target, eps);
    let grouped = run_grouped(f, subsets, costs, cfg, Some(groups.to_vec()), &[]);
    let with_bounds = run_grouped(f, subsets, costs, cfg, Some(groups.to_vec()), bounded);
    let singles = run_grouped(f, subsets, costs, cfg, None, &[]);
    let eager = run_eager(f, subsets, costs, target, eps);
    assert_eq!(eager.chosen, expected, "eager");
    assert_eq!(singles.chosen, expected, "singleton groups");
    assert_eq!(grouped.chosen, expected, "declared groups");
    assert_eq!(with_bounds.chosen, expected, "declared groups with bounds");
}

#[test]
fn lazy_matches_eager() {
    // universe {0..5}, identity coverage: subsets are groups of items
    let f = identity(6);
    let subsets = [
        vec![0, 1, 2],          // cost 3
        vec![3, 4],             // cost 2
        vec![5],                // cost 1
        vec![0, 1, 2, 3, 4, 5], // cost 10 (bad deal)
        vec![2, 3],             // cost 5 (bad deal)
    ];
    let costs = [3.0, 2.0, 1.0, 10.0, 5.0];
    let eps = 1.0 / 7.0;
    let eager = run_eager(&f, &subsets, &costs, 6.0, eps);
    let lazy = run_grouped(&f, &subsets, &costs, GreedyConfig::new(6.0, eps), None, &[]);
    assert_eq!(eager.chosen, lazy.chosen);
    assert_eq!(eager.utility, lazy.utility);
    assert_eq!(eager.total_cost, lazy.total_cost);
    assert!(
        lazy.evaluations <= eager.evaluations,
        "lazy should not evaluate more than eager"
    );
}

#[test]
fn grouped_keys_break_exact_ties_by_cost_then_index() {
    // Every subset starts at ratio 1, so each pick is decided by the
    // (cost, index) tie-break, inside a group and across the groups [0, 3)
    // and [3, 5).
    let subsets = [
        vec![0, 1],    // cost 2
        vec![2],       // cost 1: ties subset 3 on cost, wins on index
        vec![3, 4, 5], // cost 3
        vec![6],       // cost 1
        vec![0, 6, 7], // cost 3
    ];
    let costs = [2.0, 1.0, 3.0, 1.0, 3.0];
    let groups = [(0, 3), (3, 5)];
    // Under identity coverage a bound, `|Sᵢ|` times 1, is the gain at
    // `S = ∅`, so bounding the first group leaves every key's ratio at 1:
    // its bound keys and the second group's exact keys tie on ratio, and the
    // same (cost, index) order decides.
    assert_tie_order(
        &identity(8),
        &subsets,
        &costs,
        &groups,
        &[true, false],
        &[1, 3, 0, 2, 4],
    );
}

#[test]
fn bound_key_that_ties_an_exact_key_is_evaluated_before_either_is_picked() {
    // Ground element 0 covers items {0, 1}, so a bound is twice the number
    // of ground elements. Subset 1's bound key (ratio 2, cost 1) ties
    // subset 0's exact key (ratio 2, cost 2) on ratio and wins on cost, so
    // it tops the heap despite its higher index. Its evaluation drops it to
    // ratio 1, and subset 0 is picked first, as the eager greedy does.
    let f = CoverageFn::unweighted(5, vec![vec![0, 1], vec![2], vec![3, 4]]);
    let subsets = [
        vec![0, 2], // cost 2: gain 4, ratio 2
        vec![1],    // cost 1: bound 2, ratio 2; gain 1, ratio 1
    ];
    assert_tie_order(
        &f,
        &subsets,
        &[2.0, 1.0],
        &[(0, 1), (1, 2)],
        &[false, true],
        &[0, 1],
    );
}

#[test]
fn refreshed_group_that_only_ties_the_next_key_waits_its_turn() {
    // After subset 0 is picked, its group's stale key (subset 1, ratio 1.5)
    // tops the heap. The refresh drops subset 1 to ratio 1, a tie with the
    // other group's key (subset 2, ratio 1) that subset 2 wins on cost, so
    // the refreshed group must go back to the heap, not be committed.
    let subsets = [
        vec![0, 1],    // cost 1: ratio 2
        vec![1, 2, 3], // cost 2: ratio 1.5, then 1 once item 1 is covered
        vec![4],       // cost 1: ratio 1
    ];
    let costs = [1.0, 2.0, 1.0];
    assert_tie_order(
        &identity(5),
        &subsets,
        &costs,
        &[(0, 2), (2, 3)],
        &[false, true],
        &[0, 2, 1],
    );
}

#[test]
fn decision_log_counts_group_refreshes_and_names_the_runner_up() {
    use sched_obs::trace::{self, Tracer};
    use std::sync::Arc;

    // The instance above: pick 0 needs no refresh, and its runner-up is its
    // own group's remaining member (stale ratio 1.5 beats the other group's
    // key 1). Pick 2 takes two refreshes (both groups tie at ratio 1) and
    // its runner-up is the next heap key. Pick 1 takes one refresh and has
    // no runner-up left.
    let f = CoverageFn::unweighted(5, (0..5).map(|i| vec![i as u32]).collect());
    let subsets = [vec![0, 1], vec![1, 2, 3], vec![4]];
    let tracer = Arc::new(Tracer::new());
    trace::set_thread(Some(Arc::clone(&tracer)));
    let out = run_grouped(
        &f,
        &subsets,
        &[1.0, 2.0, 1.0],
        GreedyConfig::new(5.0, 0.1),
        Some(vec![(0, 2), (2, 3)]),
        &[],
    );
    trace::set_thread(None);
    assert_eq!(out.chosen, vec![0, 2, 1]);

    // Every runner-up key here was evaluated, so none is flagged a bound.
    assert_eq!(
        pick_log(&tracer),
        vec![
            (Some(0.0), Some(0.0), Some(1.0), Some(1.5), Some(0.0)),
            (Some(2.0), Some(2.0), Some(1.0), Some(1.0), Some(0.0)),
            (Some(1.0), Some(1.0), None, None, None),
        ]
    );
}

/// The decision log's picks as `(chosen, reevals, runner_up,
/// runner_up_ratio, runner_up_bound)`.
#[allow(clippy::type_complexity)]
fn pick_log(
    tracer: &sched_obs::trace::Tracer,
) -> Vec<(
    Option<f64>,
    Option<f64>,
    Option<f64>,
    Option<f64>,
    Option<f64>,
)> {
    use sched_obs::trace::ArgValue;
    let num = |args: &[(&str, ArgValue)], key: &str| {
        args.iter().find(|(k, _)| *k == key).map(|(_, v)| match v {
            ArgValue::U64(x) => *x as f64,
            ArgValue::F64(x) => *x,
            other => panic!("{key} is not a number: {other:?}"),
        })
    };
    tracer
        .events()
        .into_iter()
        .filter(|e| e.name == "submodular.greedy.pick")
        .map(|e| {
            (
                num(&e.args, "chosen"),
                num(&e.args, "reevals"),
                num(&e.args, "runner_up"),
                num(&e.args, "runner_up_ratio"),
                num(&e.args, "runner_up_bound"),
            )
        })
        .collect()
}

#[test]
fn decision_log_flags_a_runner_up_that_is_still_a_bound() {
    use sched_obs::trace::{self, Tracer};
    use std::sync::Arc;

    // Ground element 0 covers items {0, 1}, so subset 1's bound is 2 × 2 = 4
    // (ratio 4/3) while its gain is 2 (ratio 2/3). Pick 0 takes no refresh,
    // and its runner-up is subset 1's bound, never evaluated. Pick 2
    // refreshes subset 1 (down to 2/3) and then itself; its runner-up is
    // subset 1's evaluated key. Pick 1 takes one refresh. Evaluations are
    // the two exact first values plus the three refreshes.
    let f = CoverageFn::unweighted(5, vec![vec![0, 1], vec![2], vec![3], vec![4]]);
    let subsets = [vec![0], vec![1, 2], vec![3]];
    let tracer = Arc::new(Tracer::new());
    trace::set_thread(Some(Arc::clone(&tracer)));
    let out = run_grouped(
        &f,
        &subsets,
        &[1.0, 3.0, 1.0],
        GreedyConfig::new(5.0, 0.1),
        Some(vec![(0, 1), (1, 2), (2, 3)]),
        &[false, true, false],
    );
    trace::set_thread(None);
    assert_eq!(out.chosen, vec![0, 2, 1]);
    assert_eq!(out.evaluations, 5);
    assert_eq!(
        pick_log(&tracer),
        vec![
            (Some(0.0), Some(0.0), Some(1.0), Some(4.0 / 3.0), Some(1.0)),
            (Some(2.0), Some(2.0), Some(1.0), Some(2.0 / 3.0), Some(0.0)),
            (Some(1.0), Some(1.0), None, None, None),
        ]
    );
}

#[derive(Debug, Clone)]
struct Inst {
    universe: usize,
    covers: Vec<Vec<u32>>,
    subsets: Vec<Vec<u32>>,
    costs: Vec<f64>,
}

fn instance_strategy() -> impl Strategy<Value = Inst> {
    (4usize..20, 3usize..10).prop_flat_map(|(universe, n)| {
        let covers =
            proptest::collection::vec(proptest::collection::vec(0u32..universe as u32, 0..5), n);
        let m = 2usize..7;
        (Just(universe), covers, m).prop_flat_map(move |(u, cov, m)| {
            let nn = cov.len();
            let subsets =
                proptest::collection::vec(proptest::collection::vec(0u32..nn as u32, 1..=nn), m);
            let costs = proptest::collection::vec(1u32..6, m);
            (Just(u), Just(cov), subsets, costs).prop_map(|(u, cov, mut subs, costs)| {
                for s in subs.iter_mut() {
                    s.sort_unstable();
                    s.dedup();
                }
                Inst {
                    universe: u,
                    covers: cov,
                    subsets: subs,
                    costs: costs.into_iter().map(|c| c as f64).collect(),
                }
            })
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_greedy_variants_agree(inst in instance_strategy(), eps_exp in 1i32..6,
                                 target_frac in 0.1f64..1.0) {
        let f = CoverageFn::unweighted(inst.universe, inst.covers.clone());
        let full = f.eval(&BitSet::full(f.ground_size()));
        let target = full * target_frac;
        let eps = 2f64.powi(-eps_exp);

        let eager = run_eager(&f, &inst.subsets, &inst.costs, target, eps);
        let mut obj = SetSystemObjective::new(&f, inst.subsets.clone(), inst.costs.clone());
        let lazy = budgeted_greedy(&mut obj, GreedyConfig::new(target, eps));
        prop_assert_eq!(&eager.chosen, &lazy.chosen);
        prop_assert_eq!(eager.total_cost, lazy.total_cost);
        prop_assert!(lazy.evaluations <= eager.evaluations);
    }

    #[test]
    fn grouped_lazy_matches_eager_and_singleton_groups(
        inst in instance_strategy(),
        cuts in proptest::collection::vec(any::<bool>(), 1..8),
        eps_exp in 1i32..6,
        target_frac in 0.1f64..1.0,
    ) {
        let f = CoverageFn::unweighted(inst.universe, inst.covers.clone());
        let full = f.eval(&BitSet::full(f.ground_size()));
        let target = full * target_frac;
        let eps = 2f64.powi(-eps_exp);
        let groups = groups_from_cuts(inst.subsets.len(), &cuts);

        let cfg = GreedyConfig::new(target, eps);
        let eager = run_eager(&f, &inst.subsets, &inst.costs, target, eps);
        let singles = run_grouped(&f, &inst.subsets, &inst.costs, cfg, None, &[]);
        let grouped = run_grouped(&f, &inst.subsets, &inst.costs, cfg, Some(groups), &[]);
        prop_assert_eq!(&grouped.chosen, &eager.chosen);
        prop_assert_eq!(&grouped.chosen, &singles.chosen);
        prop_assert_eq!(grouped.total_cost, eager.total_cost);
        prop_assert_eq!(grouped.utility, eager.utility);
        prop_assert!(grouped.evaluations <= eager.evaluations);
    }

    #[test]
    fn bounded_first_keys_match_eager_and_singleton_groups(
        inst in instance_strategy(),
        cuts in proptest::collection::vec(any::<bool>(), 1..8),
        bounded in proptest::collection::vec(any::<bool>(), 7),
        weights in proptest::collection::vec(1u32..5, 20),
        eps_exp in 1i32..6,
        target_frac in 0.1f64..1.0,
    ) {
        // weighted items, so the largest cover weight is not a cover size
        let weights: Vec<f64> = weights[..inst.universe].iter().map(|&w| w as f64).collect();
        let f = CoverageFn::new(inst.universe, inst.covers.clone(), weights);
        let full = f.eval(&BitSet::full(f.ground_size()));
        let target = full * target_frac;
        let eps = 2f64.powi(-eps_exp);
        let groups = groups_from_cuts(inst.subsets.len(), &cuts);

        let cfg = GreedyConfig::new(target, eps);
        let eager = run_eager(&f, &inst.subsets, &inst.costs, target, eps);
        let singles = run_grouped(&f, &inst.subsets, &inst.costs, cfg, None, &[]);
        let bounds =
            run_grouped(&f, &inst.subsets, &inst.costs, cfg, Some(groups.clone()), &bounded);
        prop_assert_eq!(&bounds.chosen, &eager.chosen);
        prop_assert_eq!(&bounds.chosen, &singles.chosen);
        prop_assert_eq!(bounds.total_cost, eager.total_cost);
        prop_assert_eq!(bounds.utility, eager.utility);

        // the same run on buffers a run with other groups filled first
        let mut bufs = GreedyBuffers::default();
        let mut plain = SetSystemObjective::new(&f, inst.subsets.clone(), inst.costs.clone());
        budgeted_greedy_in(&mut plain, cfg, &mut Default::default(), &mut bufs);
        let mut obj = Grouped::new(&f, &inst.subsets, &inst.costs, groups, &bounded);
        let reused = budgeted_greedy_in(&mut obj, cfg, &mut Default::default(), &mut bufs);
        prop_assert_eq!(&reused.chosen, &bounds.chosen);
        prop_assert_eq!(&reused.trace, &bounds.trace);
        prop_assert_eq!(reused.evaluations, bounds.evaluations);
    }

    #[test]
    fn outcome_accounting_invariants(inst in instance_strategy(), eps_exp in 1i32..5) {
        let f = CoverageFn::unweighted(inst.universe, inst.covers.clone());
        let full = f.eval(&BitSet::full(f.ground_size()));
        prop_assume!(full > 0.0);
        let eps = 2f64.powi(-eps_exp);
        let mut obj = SetSystemObjective::new(&f, inst.subsets.clone(), inst.costs.clone());
        let out = budgeted_greedy(&mut obj, GreedyConfig::new(full, eps));

        // chosen are distinct and valid indices
        let mut ch = out.chosen.clone();
        ch.sort_unstable();
        ch.dedup();
        prop_assert_eq!(ch.len(), out.chosen.len());
        prop_assert!(out.chosen.iter().all(|&i| i < inst.subsets.len()));

        // trace matches chosen; costs add up; utility_after is non-decreasing
        prop_assert_eq!(out.trace.len(), out.chosen.len());
        let cost_sum: f64 = out.trace.iter().map(|r| r.cost).sum();
        prop_assert!((cost_sum - out.total_cost).abs() < 1e-9);
        let mut prev = 0.0;
        for r in &out.trace {
            prop_assert!(r.utility_after >= prev - 1e-9);
            prev = r.utility_after;
        }

        // final utility equals F of the committed union
        let mut union = BitSet::new(f.ground_size());
        for &i in &out.chosen {
            for &e in &inst.subsets[i] {
                union.insert(e);
            }
        }
        prop_assert!((f.eval(&union) - out.utility).abs() < 1e-9);
    }

    #[test]
    fn lemma_2_1_1_holds(inst in instance_strategy(),
                         s_prime_bits in proptest::collection::vec(any::<bool>(), 10)) {
        // Lemma 2.1.1: Σⱼ [F(S' ∪ Sⱼ) − F(S')] ≥ F(T) − F(S') where T = ∪ Sⱼ.
        let f = CoverageFn::unweighted(inst.universe, inst.covers.clone());
        let n = f.ground_size();
        let s_prime = BitSet::from_iter(
            n,
            (0..n as u32).filter(|&e| *s_prime_bits.get(e as usize).unwrap_or(&false)),
        );
        let f_sp = f.eval(&s_prime);

        let mut t = BitSet::new(n);
        let mut gain_sum = 0.0;
        for subset in &inst.subsets {
            let mut su = s_prime.clone();
            for &e in subset {
                su.insert(e);
                t.insert(e);
            }
            gain_sum += f.eval(&su) - f_sp;
        }
        let f_t = f.eval(&t);
        prop_assert!(
            gain_sum >= f_t - f_sp - 1e-9,
            "Lemma 2.1.1 violated: {} < {}", gain_sum, f_t - f_sp
        );
    }
}
