//! Submodular maximization with budget constraints — the bicriteria greedy of
//! Lemma 2.1.2.
//!
//! Given allowable subsets `S₁..S_m` with positive costs `Cᵢ`, a monotone
//! submodular utility `F`, and a target `x`, the greedy repeatedly picks the
//! subset maximizing
//!
//! ```text
//! ( min{x, F(S ∪ Sᵢ)} − F(S) ) / Cᵢ
//! ```
//!
//! until utility reaches `(1−ε)x`. Lemma 2.1.2 proves: if some collection of
//! cost `B` achieves utility `x`, the greedy's cost is at most
//! `2B⌈log₂(1/ε)⌉`.
//!
//! # Oracle abstraction
//!
//! The greedy is generic over [`BudgetedObjective`], which exposes exact
//! marginal-gain evaluation *without mutation* plus a commit operation. This
//! lets the identical greedy drive explicit set systems (this module's
//! [`SetSystemObjective`]) and the incremental matching-rank oracles of the
//! scheduling reduction (`sched-core`).
//!
//! # Lazy evaluation
//!
//! Because `F` is submodular and the clamp `min(x, ·)` only tightens as
//! `F(S)` grows, each candidate's clamped ratio is non-increasing over the
//! run, so a ratio computed in an earlier round is an upper bound on the
//! current one. The lazy greedy exploits this per **group**: a set of
//! consecutive candidates whose gains one evaluation pass computes together
//! ([`BudgetedObjective::groups`]; `sched-core` declares its nested-prefix
//! runs). The heap holds one entry per group, keyed by the group's best
//! member under the order `(ratio desc, cost asc, index asc)`.
//!
//! * **Stale keys stay upper bounds.** A member's current key is at most its
//!   stored one, and the stored best member's key is at least every stored
//!   member key. On an exact ratio tie the stored best already wins on
//!   `(cost, index)`, which never change, so a stale group key bounds every
//!   member's current key under the full order.
//! * **Refresh.** Popping a stale group re-evaluates all its members with one
//!   [`BudgetedObjective::group_gains`] call and re-keys the group. If the
//!   refreshed best ratio is strictly above the next heap key it is the
//!   exact argmax and is committed directly; otherwise the group goes back
//!   with a fresh key, and a fresh key at the top is the exact argmax.
//! * **After a commit** the committed member's gain is exactly 0 (its
//!   subset now lies inside `S`), so its ratio becomes 0 and the group is
//!   re-keyed by its best remaining member. A group whose best ratio is 0
//!   can never rise again and leaves the heap.
//!
//! Every pick is therefore the exact argmax a full scan of every candidate
//! would make, ties included; `tests/greedy_properties.rs` checks this
//! against such a scan. Objectives that declare no groups get singleton
//! groups, which is the classical per-candidate lazy greedy.
//!
//! # Initial keys may be upper bounds
//!
//! The argument above never uses that a stale key was once exact, only that
//! it bounds every member's current key from above. So a group's first key
//! may come from any upper bound on its members' gains; this is Minoux's
//! accelerated greedy (1978). [`BudgetedObjective::first_values`] supplies
//! the first values, each either an exact gain or a bound. A group with a
//! bounded member carries a round stamp no commit round reaches, so its key
//! is never taken as fresh: the group is evaluated once its key reaches the
//! top of the heap, and is never picked on a bound. The greedy makes only a
//! handful of picks, so a group whose bound never reaches the top is never
//! evaluated at all. `sched-core`'s scheduling objective bounds a
//! candidate's matching-rank gain by the smaller of its number of
//! job-adjacent slots and the number of jobs in the connected components
//! those slots touch, times the largest job value, which a cold solve reads
//! straight from its slot windows instead of scanning every candidate.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::bitset::BitSet;
use crate::functions::SetFn;

/// Objective oracle for the budgeted greedy.
///
/// Implementations maintain a current solution set `S` internally; `gain(i)`
/// must return the exact `F(S ∪ Sᵢ) − F(S)` without changing `S`, and
/// `commit(i)` must apply `S ← S ∪ Sᵢ` and return the realized gain.
pub trait BudgetedObjective {
    /// Scratch for gain evaluation.
    type Scratch: Default;

    /// Number of allowable subsets `m`.
    fn num_subsets(&self) -> usize;

    /// Cost `Cᵢ > 0` of subset `i`.
    fn cost(&self, i: usize) -> f64;

    /// Current utility `F(S)`.
    fn current(&self) -> f64;

    /// Exact marginal gain of subset `i` against the current solution.
    fn gain(&self, i: usize, scratch: &mut Self::Scratch) -> f64;

    /// Commits subset `i`; returns the realized gain.
    fn commit(&mut self, i: usize) -> f64;

    /// Evaluates the raw marginal gain of **every** subset against the
    /// current solution, writing into `out` (cleared and resized to
    /// [`BudgetedObjective::num_subsets`]).
    ///
    /// The default simply loops [`BudgetedObjective::gain`]. Objectives
    /// with structure among their subsets override this: `sched-core`'s
    /// scheduling objective evaluates each nested-prefix run of awake
    /// intervals in a single incremental pass, which is where a full scan's
    /// cost collapses from `O(m · |T|)` to `O(m)` oracle work. Overrides
    /// must return bit-identical values to the default.
    ///
    /// The `bool` is ignored: every scan is sequential. It stays only so
    /// existing callers keep compiling.
    fn scan_gains(&self, _parallel: bool, scratch: &mut Self::Scratch, out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..self.num_subsets()).map(|i| self.gain(i, scratch)));
    }

    /// Groups of subsets whose gains one evaluation pass computes together,
    /// as consecutive index ranges `[lo, hi)` that partition `0..m` in
    /// order. The lazy greedy keeps one heap entry per group and refreshes a
    /// stale group with one [`BudgetedObjective::group_gains`] call.
    ///
    /// The default (empty) declares no groups: every subset is its own
    /// group.
    fn groups(&self) -> &[(u32, u32)] {
        &[]
    }

    /// Raw marginal gains of the members `lo..lo + out.len()` of group
    /// `group` (an index into [`BudgetedObjective::groups`], or the subset
    /// index when the objective declares none) against the current
    /// solution, written into `out`. The default calls
    /// [`BudgetedObjective::gain`] once per member; overrides must return
    /// bit-identical values.
    fn group_gains(&self, _group: usize, lo: usize, scratch: &mut Self::Scratch, out: &mut [f64]) {
        for (k, g) in out.iter_mut().enumerate() {
            *g = self.gain(lo + k, scratch);
        }
    }

    /// The lazy greedy's first value for every subset: its raw marginal gain
    /// against the current solution, or an upper bound on that gain. Writes
    /// the values into `out` (cleared and resized to
    /// [`BudgetedObjective::num_subsets`]) and, into `bounded` (cleared
    /// first), the index of every group whose values include a bound — a
    /// subset index when the objective declares no groups. Every value
    /// outside those groups is the exact gain.
    ///
    /// The default is [`BudgetedObjective::scan_gains`] with every value
    /// exact. An override may return any bound that is cheaper to read than
    /// the gain: the lazy loop never picks a group on a bound (see the
    /// [module docs](self)). A bound below the true gain breaks the greedy's
    /// picks; exact values must be bit-identical to the default's.
    fn first_values(
        &self,
        scratch: &mut Self::Scratch,
        out: &mut Vec<f64>,
        bounded: &mut Vec<u32>,
    ) {
        self.scan_gains(false, scratch, out);
        bounded.clear();
    }
}

/// Configuration for [`budgeted_greedy`]. Build it with
/// [`GreedyConfig::new`].
#[derive(Clone, Copy, Debug)]
pub struct GreedyConfig {
    /// Utility target `x`.
    pub target: f64,
    /// Bicriteria slack `ε ∈ (0, 1)`: the greedy stops at utility
    /// `(1−ε)·target`.
    pub epsilon: f64,
    /// Ignored: the greedy always runs the lazy loop. Kept only so struct
    /// literals that name the field keep compiling.
    pub lazy: bool,
    /// Ignored: every evaluation is sequential. Kept only so struct
    /// literals that name the field keep compiling.
    pub parallel: bool,
}

impl GreedyConfig {
    /// The config with the given target and slack.
    pub fn new(target: f64, epsilon: f64) -> Self {
        Self {
            target,
            epsilon,
            lazy: true,
            parallel: false,
        }
    }
}

/// One greedy iteration, for phase-structure experiments (E2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IterRecord {
    /// Chosen subset index.
    pub chosen: usize,
    /// Clamped gain realized.
    pub gain: f64,
    /// Cost paid.
    pub cost: f64,
    /// Utility after the commit.
    pub utility_after: f64,
}

/// Result of a [`budgeted_greedy`] run.
#[derive(Clone, Debug)]
pub struct GreedyOutcome {
    /// Chosen subset indices, in pick order.
    pub chosen: Vec<usize>,
    /// Total cost paid.
    pub total_cost: f64,
    /// Final utility `F(S)`.
    pub utility: f64,
    /// Whether utility ≥ `(1−ε)·target` was reached.
    pub reached_target: bool,
    /// Number of gain evaluations performed (lazy-greedy effectiveness
    /// metric): the number of exact first values plus one per group
    /// refresh. With singleton groups a refresh is one candidate's gain. A
    /// run whose first values are all bounds reports its refreshes only. A
    /// full scan every iteration would make `m` evaluations per pick.
    pub evaluations: usize,
    /// Per-iteration trace.
    pub trace: Vec<IterRecord>,
}

/// The lazy loop's working arrays: group ranges, ratios, first-value
/// rounds, the heap, and the picks with their trace. [`budgeted_greedy_in`]
/// clears and refills them, so a caller that runs one greedy after another
/// on one set of buffers allocates nothing for them once they are large
/// enough.
#[derive(Default)]
pub struct GreedyBuffers {
    groups: Vec<(usize, usize)>,
    ratio: Vec<f64>,
    bounded: Vec<u32>,
    first_round: Vec<usize>,
    heap: BinaryHeap<HeapEntry>,
    chosen: Vec<usize>,
    trace: Vec<IterRecord>,
}

/// Runs the Lemma 2.1.2 bicriteria greedy to utility `(1−ε)·target`.
///
/// Returns with `reached_target == false` if the greedy stalls (no candidate
/// has positive clamped gain) before reaching the goal; on monotone
/// submodular objectives this certifies that *no* collection of the given
/// subsets attains the target.
///
/// # Panics
/// Panics if `epsilon ∉ (0,1)`, `target < 0`, or any cost is not strictly
/// positive and finite.
pub fn budgeted_greedy<O: BudgetedObjective>(obj: &mut O, cfg: GreedyConfig) -> GreedyOutcome {
    budgeted_greedy_with(obj, cfg, &mut O::Scratch::default())
}

/// [`budgeted_greedy`] with a caller-supplied scratch.
///
/// The scratch is the per-thread gain-evaluation workspace; objectives that
/// memoize evaluations in it (like `sched-core`'s scheduling objective) can
/// fill the memo before the run, with an explicit
/// [`BudgetedObjective::scan_gains`] for instance, so the greedy's first
/// keys read the memo instead of recomputing gains. With a
/// default-constructed scratch this is exactly [`budgeted_greedy`].
pub fn budgeted_greedy_with<O: BudgetedObjective>(
    obj: &mut O,
    cfg: GreedyConfig,
    scratch: &mut O::Scratch,
) -> GreedyOutcome {
    budgeted_greedy_in(obj, cfg, scratch, &mut GreedyBuffers::default())
}

/// [`budgeted_greedy_with`] on caller-kept [`GreedyBuffers`]: the same
/// picks, with the loop's arrays written into `bufs`. The outcome's `chosen`
/// and `trace` are exact-size copies of the buffers' picks.
pub fn budgeted_greedy_in<O: BudgetedObjective>(
    obj: &mut O,
    cfg: GreedyConfig,
    scratch: &mut O::Scratch,
    bufs: &mut GreedyBuffers,
) -> GreedyOutcome {
    assert!(
        cfg.epsilon > 0.0 && cfg.epsilon < 1.0,
        "epsilon must lie in (0,1), got {}",
        cfg.epsilon
    );
    assert!(cfg.target >= 0.0, "target must be non-negative");
    let m = obj.num_subsets();
    for i in 0..m {
        let c = obj.cost(i);
        assert!(
            c > 0.0 && c.is_finite(),
            "cost of subset {i} must be positive and finite, got {c}"
        );
    }

    // One span + a few counter flushes per greedy run (not per iteration):
    // telemetry stays out of the pick/evaluate hot loops.
    let _span = sched_obs::span!("submodular.greedy.run_ns");
    let goal = (1.0 - cfg.epsilon) * cfg.target;
    let mut out = GreedyOutcome {
        chosen: Vec::new(),
        total_cost: 0.0,
        utility: obj.current(),
        reached_target: obj.current() >= goal,
        evaluations: 0,
        trace: Vec::new(),
    };
    if out.reached_target || m == 0 {
        out.reached_target = out.utility >= goal;
        return out;
    }

    bufs.chosen.clear();
    bufs.trace.clear();
    lazy_loop(obj, cfg, goal, scratch, bufs, &mut out);
    out.chosen = bufs.chosen.clone();
    out.trace = bufs.trace.clone();
    sched_obs::counter_add("submodular.greedy.iterations", out.trace.len() as u64);
    sched_obs::counter_add("submodular.greedy.evaluations", out.evaluations as u64);
    out
}

/// Clamped gain: `min{x, F(S∪Sᵢ)} − F(S)` given the raw gain.
#[inline]
fn clamp_gain(raw: f64, current: f64, target: f64) -> f64 {
    raw.min(target - current).max(0.0)
}

/// The lazy heap's entry for one group, keyed by the group's best member.
#[derive(PartialEq)]
struct HeapEntry {
    ratio: f64,
    cost: f64,
    /// The best member: the candidate the key belongs to.
    idx: usize,
    group: usize,
    /// Commit round in which the group was last evaluated, or
    /// [`NEVER_EVALUATED`].
    round: usize,
}

/// The round stamp of a group whose key is still a first-value bound. No
/// commit round reaches it, so such a key is never taken as fresh.
const NEVER_EVALUATED: usize = usize::MAX;

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // max-heap by ratio; ties -> cheaper first, then lower index
        self.ratio
            .partial_cmp(&other.ratio)
            .unwrap_or(Ordering::Equal)
            .then_with(|| {
                other
                    .cost
                    .partial_cmp(&self.cost)
                    .unwrap_or(Ordering::Equal)
            })
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Writes the objective's groups into `out` as `[lo, hi)` ranges;
/// singletons when it declares none.
///
/// # Panics
/// Panics if the declared groups do not partition `0..m` into consecutive
/// non-empty ranges.
fn group_ranges<O: BudgetedObjective>(obj: &O, out: &mut Vec<(usize, usize)>) {
    let m = obj.num_subsets();
    let declared = obj.groups();
    out.clear();
    if declared.is_empty() {
        out.extend((0..m).map(|i| (i, i + 1)));
        return;
    }
    let mut next = 0;
    for &(lo, hi) in declared {
        assert!(
            lo as usize == next && hi > lo,
            "groups must partition 0..{m} into consecutive non-empty ranges"
        );
        next = hi as usize;
    }
    assert_eq!(next, m, "groups must cover all {m} subsets");
    out.extend(declared.iter().map(|&(lo, hi)| (lo as usize, hi as usize)));
}

/// The best member of the non-empty range `lo..hi` under the greedy's
/// order: higher ratio, then lower cost, then lower index.
fn best_member<O: BudgetedObjective>(obj: &O, ratio: &[f64], lo: usize, hi: usize) -> usize {
    (lo + 1..hi).fold(lo, |best, i| {
        let order = ratio[i]
            .partial_cmp(&ratio[best])
            .unwrap_or(Ordering::Equal)
            .then_with(|| {
                let (cb, ci) = (obj.cost(best), obj.cost(i));
                cb.partial_cmp(&ci).unwrap_or(Ordering::Equal)
            });
        if order == Ordering::Greater {
            i
        } else {
            best
        }
    })
}

fn lazy_loop<O: BudgetedObjective>(
    obj: &mut O,
    cfg: GreedyConfig,
    goal: f64,
    scratch: &mut O::Scratch,
    bufs: &mut GreedyBuffers,
    out: &mut GreedyOutcome,
) {
    let m = obj.num_subsets();
    let GreedyBuffers {
        groups,
        ratio,
        bounded,
        first_round,
        heap,
        chosen,
        trace,
    } = bufs;
    group_ranges(obj, groups);
    let groups = &*groups;
    // Raw gains -> clamped ratios, in place, for the members from `lo` on.
    let to_ratios = |obj: &O, ratio: &mut [f64], lo: usize, current: f64| {
        for (k, r) in ratio.iter_mut().enumerate() {
            *r = clamp_gain(*r, current, cfg.target) / obj.cost(lo + k);
        }
    };
    // The group's entry, keyed by its best member and stamped with `round`;
    // `None` when that member's ratio is 0: ratios never rise, so such a
    // group can never be picked again.
    let key = |obj: &O, ratio: &[f64], group: usize, round: usize| {
        let (lo, hi) = groups[group];
        let idx = best_member(obj, ratio, lo, hi);
        (ratio[idx] > 0.0).then(|| HeapEntry {
            ratio: ratio[idx],
            cost: obj.cost(idx),
            idx,
            group,
            round,
        })
    };

    // First values: exact gains or upper bounds (see the module docs). A
    // group with a bounded member starts stale and stays so until it is
    // refreshed. From here on `ratio[i]` holds candidate i's clamped ratio
    // as of its group's last evaluation, or its first-value bound.
    obj.first_values(scratch, ratio, bounded);
    assert_eq!(
        ratio.len(),
        m,
        "first_values must give one value per subset"
    );
    first_round.clear();
    first_round.resize(groups.len(), 0);
    for &g in bounded.iter() {
        first_round[g as usize] = NEVER_EVALUATED;
    }
    out.evaluations += groups
        .iter()
        .zip(first_round.iter())
        .filter(|&(_, &r)| r == 0)
        .map(|(&(lo, hi), _)| hi - lo)
        .sum::<usize>();
    to_ratios(obj, ratio, 0, out.utility);
    // Heapify the first keys in place of the buffer's old entries.
    let mut entries = std::mem::take(heap).into_vec();
    entries.clear();
    entries.extend((0..groups.len()).filter_map(|g| key(obj, ratio, g, first_round[g])));
    *heap = BinaryHeap::from(entries);

    let mut round = 0usize;
    // Group refreshes since the last commit; reported in the decision log so
    // a trace shows how hard the lazy heap worked for each pick.
    let mut refreshes_since_commit = 0u64;
    while out.utility < goal {
        let Some(top) = heap.pop() else { break };
        let (lo, hi) = groups[top.group];
        let pick = if top.round == round {
            // fresh: this is the true argmax
            top
        } else {
            // stale: refresh the whole group in one pass and re-key it
            obj.group_gains(top.group, lo, scratch, &mut ratio[lo..hi]);
            to_ratios(obj, &mut ratio[lo..hi], lo, out.utility);
            out.evaluations += 1;
            refreshes_since_commit += 1;
            let Some(fresh) = key(obj, ratio, top.group, round) else {
                continue;
            };
            // Every other group's members are bounded above by its stale
            // key; if the refreshed best strictly beats the next key, it is
            // the unique argmax — commit directly instead of cycling the
            // group through the heap.
            if heap.peek().is_some_and(|next| fresh.ratio <= next.ratio) {
                heap.push(fresh);
                continue;
            }
            fresh
        };
        // The committed member's gain is now exactly 0; the rest of its
        // group keeps its (now stale) ratios.
        ratio[pick.idx] = 0.0;
        let rest = key(obj, ratio, pick.group, round);
        // The runner-up is the better of the next heap key (a stale upper
        // bound on its group, which is the certificate the lazy rule used)
        // and the committed group's best remaining member.
        let runner_up = heap
            .peek()
            .into_iter()
            .chain(rest.as_ref())
            .max()
            .map(|e| RunnerUp {
                idx: e.idx,
                ratio: e.ratio,
                gain: e.ratio * e.cost,
                bound: e.round == NEVER_EVALUATED,
            });
        let log = PickTrace {
            runner_up,
            reevals: refreshes_since_commit,
        };
        commit_pick(obj, cfg, pick.idx, out, (chosen, trace), log);
        heap.extend(rest);
        refreshes_since_commit = 0;
        round += 1;
    }
    out.reached_target = out.utility >= goal;
}

/// Decision-log context for one committed pick. Emitted only when a tracer
/// is ambiently installed; carrying it through [`commit_pick`] keeps the
/// event emission in one place without touching the pick loop's hot path.
struct PickTrace {
    /// The better of the next (stale upper-bound) heap key and the committed
    /// group's best remaining member.
    runner_up: Option<RunnerUp>,
    /// Lazy-heap group refreshes spent since the previous commit.
    reevals: u64,
}

/// The runner-up candidate of one pick, for the decision log.
struct RunnerUp {
    idx: usize,
    ratio: f64,
    gain: f64,
    /// The key is a first-value bound of a group never evaluated, not a
    /// ratio the candidate ever had.
    bound: bool,
}

/// Commits pick `idx`, appending it to the run's picks and their trace.
fn commit_pick<O: BudgetedObjective>(
    obj: &mut O,
    cfg: GreedyConfig,
    idx: usize,
    out: &mut GreedyOutcome,
    (chosen, trace): (&mut Vec<usize>, &mut Vec<IterRecord>),
    log: PickTrace,
) {
    let before = out.utility;
    let raw = obj.commit(idx);
    let cost = obj.cost(idx);
    out.utility = obj.current();
    debug_assert!((out.utility - (before + raw)).abs() < 1e-6);
    out.total_cost += cost;
    chosen.push(idx);
    let gain = clamp_gain(raw, before, cfg.target);
    trace.push(IterRecord {
        chosen: idx,
        gain,
        cost,
        utility_after: out.utility,
    });
    if sched_obs::trace::enabled() {
        let mut args: Vec<(&'static str, sched_obs::trace::ArgValue)> = vec![
            ("iter", (chosen.len() as u64 - 1).into()),
            ("chosen", idx.into()),
            ("gain", gain.into()),
            ("cost", cost.into()),
            ("ratio", (gain / cost).into()),
            ("utility_after", out.utility.into()),
            ("remaining", (cfg.target - out.utility).max(0.0).into()),
            ("reevals", log.reevals.into()),
        ];
        if let Some(ru) = log.runner_up {
            args.push(("runner_up", ru.idx.into()));
            args.push(("runner_up_ratio", ru.ratio.into()));
            args.push(("runner_up_gain", ru.gain.into()));
            args.push(("runner_up_bound", u64::from(ru.bound).into()));
        }
        sched_obs::trace::instant("submodular.greedy.pick", args);
    }
}

/// [`BudgetedObjective`] over an explicit set system: allowable subsets given
/// as id lists, utility given by any [`SetFn`] evaluated on the union bitset.
pub struct SetSystemObjective<'f, F: SetFn> {
    f: &'f F,
    subsets: Vec<Vec<u32>>,
    costs: Vec<f64>,
    union: BitSet,
    current: f64,
}

impl<'f, F: SetFn> SetSystemObjective<'f, F> {
    /// Creates the objective with solution `S = ∅`.
    ///
    /// # Panics
    /// Panics if lengths mismatch, ids exceed the ground set, or costs are
    /// not strictly positive.
    pub fn new(f: &'f F, subsets: Vec<Vec<u32>>, costs: Vec<f64>) -> Self {
        assert_eq!(subsets.len(), costs.len());
        let n = f.ground_size();
        for s in &subsets {
            for &e in s {
                assert!(
                    (e as usize) < n,
                    "element {e} outside ground set of size {n}"
                );
            }
        }
        let union = BitSet::new(n);
        let current = f.eval(&union);
        Self {
            f,
            subsets,
            costs,
            union,
            current,
        }
    }

    /// Current union of committed subsets.
    pub fn union(&self) -> &BitSet {
        &self.union
    }

    /// The allowable subsets.
    pub fn subsets(&self) -> &[Vec<u32>] {
        &self.subsets
    }
}

/// Scratch for [`SetSystemObjective`]: a reusable bitset for `S ∪ Sᵢ`.
#[derive(Default)]
pub struct SetSystemScratch {
    tmp: Option<BitSet>,
}

impl<F: SetFn> BudgetedObjective for SetSystemObjective<'_, F> {
    type Scratch = SetSystemScratch;

    fn num_subsets(&self) -> usize {
        self.subsets.len()
    }

    fn cost(&self, i: usize) -> f64 {
        self.costs[i]
    }

    fn current(&self) -> f64 {
        self.current
    }

    fn gain(&self, i: usize, scratch: &mut Self::Scratch) -> f64 {
        let n = self.f.ground_size();
        let tmp = scratch.tmp.get_or_insert_with(|| BitSet::new(n));
        if tmp.capacity() != n {
            *tmp = BitSet::new(n);
        }
        tmp.copy_from(&self.union);
        for &e in &self.subsets[i] {
            tmp.insert(e);
        }
        self.f.eval(tmp) - self.current
    }

    fn commit(&mut self, i: usize) -> f64 {
        for &e in &self.subsets[i] {
            self.union.insert(e);
        }
        let new = self.f.eval(&self.union);
        let gain = new - self.current;
        self.current = new;
        gain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::CoverageFn;

    fn cover_instance() -> (CoverageFn, Vec<Vec<u32>>, Vec<f64>) {
        // universe {0..5}; ground elements = universe items themselves
        // (identity coverage); allowable subsets pick groups of items.
        let f = CoverageFn::unweighted(6, (0..6).map(|i| vec![i as u32]).collect());
        let subsets = vec![
            vec![0, 1, 2],          // cost 3
            vec![3, 4],             // cost 2
            vec![5],                // cost 1
            vec![0, 1, 2, 3, 4, 5], // cost 10 (bad deal)
            vec![2, 3],             // cost 5 (bad deal)
        ];
        let costs = vec![3.0, 2.0, 1.0, 10.0, 5.0];
        (f, subsets, costs)
    }

    #[test]
    fn reaches_full_target() {
        let (f, subsets, costs) = cover_instance();
        let mut obj = SetSystemObjective::new(&f, subsets, costs);
        let out = budgeted_greedy(&mut obj, GreedyConfig::new(6.0, 1.0 / 7.0));
        assert!(out.reached_target);
        // (1-1/7)*6 = 36/7 > 5, so integral utility must be 6
        assert_eq!(out.utility, 6.0);
        assert_eq!(out.total_cost, 6.0); // picks subsets 0,1,2
        let mut ch = out.chosen.clone();
        ch.sort_unstable();
        assert_eq!(ch, vec![0, 1, 2]);
    }

    #[test]
    fn partial_target_stops_early() {
        let (f, subsets, costs) = cover_instance();
        let mut obj = SetSystemObjective::new(&f, subsets, costs);
        // target 6 with eps = 0.5 stops at utility >= 3
        let out = budgeted_greedy(&mut obj, GreedyConfig::new(6.0, 0.5));
        assert!(out.reached_target);
        assert!(out.utility >= 3.0);
        assert!(out.total_cost <= 3.0 + 1e-12);
    }

    #[test]
    fn stalls_when_infeasible() {
        // universe has 3 items but subsets only ever cover item 0
        let f = CoverageFn::unweighted(3, vec![vec![0]]);
        let mut obj = SetSystemObjective::new(&f, vec![vec![0]], vec![1.0]);
        let out = budgeted_greedy(&mut obj, GreedyConfig::new(3.0, 0.1));
        assert!(!out.reached_target);
        assert_eq!(out.utility, 1.0);
    }

    #[test]
    fn respects_cost_bound_on_planted_instances() {
        // plant an optimal cover of known cost B and verify cost <= 2*ceil(log2(1/eps))*B
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let n = rng.gen_range(10..40usize);
            // optimal solution: k disjoint subsets covering everything, each cost 1
            let k = rng.gen_range(2..6usize);
            let mut subsets: Vec<Vec<u32>> = vec![Vec::new(); k];
            for item in 0..n as u32 {
                subsets[rng.gen_range(0..k)].push(item);
            }
            subsets.retain(|s| !s.is_empty());
            let b = subsets.len() as f64;
            // plus noise subsets with random costs
            for _ in 0..20 {
                let len = rng.gen_range(1..=n / 2);
                let mut s: Vec<u32> = (0..n as u32).collect();
                for i in (1..s.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    s.swap(i, j);
                }
                s.truncate(len);
                subsets.push(s);
            }
            let m = subsets.len();
            let mut costs = vec![1.0; m];
            for c in costs.iter_mut().skip((b as usize).min(m)) {
                *c = rng.gen_range(0.5..4.0);
            }
            let f = CoverageFn::unweighted(n, (0..n).map(|i| vec![i as u32]).collect());
            // ground elements are items; allowable subsets as generated
            let eps = 0.125;
            let mut obj = SetSystemObjective::new(&f, subsets, costs);
            let out = budgeted_greedy(&mut obj, GreedyConfig::new(n as f64, eps));
            assert!(out.reached_target);
            let bound = 2.0 * (1.0 / eps).log2().ceil() * b;
            assert!(
                out.total_cost <= bound + 1e-9,
                "cost {} exceeds bound {bound} (B={b})",
                out.total_cost
            );
        }
    }

    #[test]
    fn trace_is_consistent() {
        let (f, subsets, costs) = cover_instance();
        let mut obj = SetSystemObjective::new(&f, subsets, costs);
        let out = budgeted_greedy(&mut obj, GreedyConfig::new(6.0, 1.0 / 7.0));
        assert_eq!(out.trace.len(), out.chosen.len());
        let mut cost = 0.0;
        for (r, &c) in out.trace.iter().zip(&out.chosen) {
            assert_eq!(r.chosen, c);
            cost += r.cost;
        }
        assert_eq!(cost, out.total_cost);
        assert_eq!(out.trace.last().unwrap().utility_after, out.utility);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn bad_epsilon_panics() {
        let f = CoverageFn::unweighted(1, vec![vec![0]]);
        let mut obj = SetSystemObjective::new(&f, vec![vec![0]], vec![1.0]);
        budgeted_greedy(&mut obj, GreedyConfig::new(1.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cost_panics() {
        let f = CoverageFn::unweighted(1, vec![vec![0]]);
        let mut obj = SetSystemObjective::new(&f, vec![vec![0]], vec![0.0]);
        budgeted_greedy(&mut obj, GreedyConfig::new(1.0, 0.5));
    }

    #[test]
    fn zero_target_returns_immediately() {
        let f = CoverageFn::unweighted(1, vec![vec![0]]);
        let mut obj = SetSystemObjective::new(&f, vec![vec![0]], vec![1.0]);
        let out = budgeted_greedy(&mut obj, GreedyConfig::new(0.0, 0.5));
        assert!(out.reached_target);
        assert!(out.chosen.is_empty());
        assert_eq!(out.total_cost, 0.0);
    }
}
