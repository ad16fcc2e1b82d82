//! Incremental (vertex-weighted) matching-rank oracle.
//!
//! [`MatchingOracle`] maintains, for a growing slot set `S ⊆ X`, a
//! maximum-weight matching that saturates only slots in `S`, where job `y`
//! contributes `values[y] > 0` when saturated. With all values equal to 1 the
//! oracle computes the cardinality rank of Lemma 2.2.2; with job values it
//! computes the weighted rank of Lemma 2.3.2. Both are monotone submodular.
//!
//! # Exact single-slot increments
//!
//! The structural fact proved in the paper (and re-verified by this crate's
//! property tests): if `M` is a maximum-weight matching for `S`, then a
//! maximum-weight matching for `S ∪ {v}` is obtained from `M` by flipping one
//! `M`-alternating path that starts at `v` and ends at the highest-value
//! unsaturated job reachable from `v`; the increase `F(S∪{v}) − F(S)` equals
//! that job's value (or 0 if no unsaturated job is reachable). A single BFS
//! over the alternating structure therefore performs an exact increment in
//! `O(E)`.
//!
//! # Marginal gains without mutation
//!
//! Greedy algorithms need `F(S ∪ T) − F(S)` for many candidate slot sets `T`
//! before committing one. [`MatchingOracle::gain_of`] evaluates this exactly
//! on an epoch-versioned overlay ([`GainScratch`]) without touching the
//! committed state, so candidate evaluation takes `&self` and parallelizes
//! with one scratch per thread.

use crate::graph::BipartiteGraph;

/// Sentinel index meaning "unmatched" / "absent".
pub const NONE: u32 = u32::MAX;

/// Shared BFS workspace for alternating-path searches.
#[derive(Clone, Debug, Default)]
struct BfsScratch {
    epoch: u32,
    /// Per-job visitation tag (`== epoch` means visited in current search).
    job_seen: Vec<u32>,
    /// Per-job: the slot from which BFS first reached it.
    prev_slot: Vec<u32>,
    /// Slot frontier.
    queue: Vec<u32>,
}

impl BfsScratch {
    fn ensure(&mut self, nx: usize, ny: usize) {
        if self.job_seen.len() != ny {
            self.job_seen = vec![0; ny];
            self.prev_slot = vec![NONE; ny];
            self.epoch = 0;
        }
        self.queue.reserve(nx.saturating_sub(self.queue.capacity()));
    }

    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.job_seen.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

/// Read/write access to a matching state; lets the committed path and the
/// overlay path share one augmentation routine.
trait MatchView {
    fn mx(&self, x: u32) -> u32;
    fn my(&self, y: u32) -> u32;
    fn set_mx(&mut self, x: u32, y: u32);
    fn set_my(&mut self, y: u32, x: u32);
}

struct DirectView<'a> {
    match_x: &'a mut [u32],
    match_y: &'a mut [u32],
}

impl MatchView for DirectView<'_> {
    #[inline]
    fn mx(&self, x: u32) -> u32 {
        self.match_x[x as usize]
    }
    #[inline]
    fn my(&self, y: u32) -> u32 {
        self.match_y[y as usize]
    }
    #[inline]
    fn set_mx(&mut self, x: u32, y: u32) {
        self.match_x[x as usize] = y;
    }
    #[inline]
    fn set_my(&mut self, y: u32, x: u32) {
        self.match_y[y as usize] = x;
    }
}

/// Epoch-versioned copy-on-write overlay over the committed matching.
///
/// Reads fall through to the committed arrays unless the entry was written in
/// the current evaluation epoch; writes never touch the committed arrays.
/// Reusing one `GainScratch` across evaluations costs O(touched entries) per
/// evaluation instead of O(V). Duplicate slots within one evaluation are
/// detected with the same epoch trick (`added_ver`), so an evaluation costs
/// O(|T|) bookkeeping instead of the O(|T|²) of a linear `contains` scan.
#[derive(Clone, Debug, Default)]
pub struct GainScratch {
    ep: u32,
    mx_ov: Vec<u32>,
    mx_ver: Vec<u32>,
    my_ov: Vec<u32>,
    my_ver: Vec<u32>,
    bfs: BfsScratch,
    /// Per-slot tag: `== ep` when the slot was already added in this epoch.
    added_ver: Vec<u32>,
}

impl GainScratch {
    /// Creates an empty scratch; it sizes itself lazily to the oracle it is
    /// first used with.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, nx: usize, ny: usize) {
        // Restarting the epoch must clear *every* stamp array: a surviving
        // stamp from the old epochs would read as current again.
        if self.mx_ver.len() != nx || self.my_ver.len() != ny {
            self.mx_ov = vec![NONE; nx];
            self.mx_ver = vec![0; nx];
            self.added_ver = vec![0; nx];
            self.my_ov = vec![NONE; ny];
            self.my_ver = vec![0; ny];
            self.ep = 0;
        }
        self.bfs.ensure(nx, ny);
    }

    fn next_epoch(&mut self) -> u32 {
        if self.ep == u32::MAX {
            self.mx_ver.fill(0);
            self.my_ver.fill(0);
            self.added_ver.fill(0);
            self.ep = 0;
        }
        self.ep += 1;
        self.ep
    }
}

struct OverlayView<'a> {
    base_x: &'a [u32],
    base_y: &'a [u32],
    ep: u32,
    mx_ov: &'a mut [u32],
    mx_ver: &'a mut [u32],
    my_ov: &'a mut [u32],
    my_ver: &'a mut [u32],
}

impl MatchView for OverlayView<'_> {
    #[inline]
    fn mx(&self, x: u32) -> u32 {
        if self.mx_ver[x as usize] == self.ep {
            self.mx_ov[x as usize]
        } else {
            self.base_x[x as usize]
        }
    }
    #[inline]
    fn my(&self, y: u32) -> u32 {
        if self.my_ver[y as usize] == self.ep {
            self.my_ov[y as usize]
        } else {
            self.base_y[y as usize]
        }
    }
    #[inline]
    fn set_mx(&mut self, x: u32, y: u32) {
        self.mx_ov[x as usize] = y;
        self.mx_ver[x as usize] = self.ep;
    }
    #[inline]
    fn set_my(&mut self, y: u32, x: u32) {
        self.my_ov[y as usize] = x;
        self.my_ver[y as usize] = self.ep;
    }
}

/// Incremental maximum-weight matching-rank oracle over a fixed bipartite
/// graph; see the module docs for the invariants it maintains.
#[derive(Clone, Debug)]
pub struct MatchingOracle<'g> {
    g: &'g BipartiteGraph,
    values: Vec<f64>,
    allowed: Vec<bool>,
    /// Jobs removed by [`MatchingOracle::retract`]; they no longer
    /// participate in augmentations or gain evaluations.
    retired: Vec<bool>,
    match_x: Vec<u32>,
    match_y: Vec<u32>,
    total: f64,
    n_allowed: usize,
    revision: u64,
    // Committed-operation tallies for telemetry: plain fields (no atomics,
    // no dependency on any metrics crate) that callers read out once per
    // solve via [`MatchingOracle::op_counts`].
    augment_ops: u64,
    retract_ops: u64,
    bfs: BfsScratch,
}

impl<'g> MatchingOracle<'g> {
    /// Creates an oracle computing the *weighted* matching rank with the given
    /// positive per-job values. `S` starts empty (so `F(∅) = 0`).
    ///
    /// # Panics
    /// Panics if `values.len() != g.ny()` or any value is not strictly
    /// positive and finite.
    pub fn new(g: &'g BipartiteGraph, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), g.ny() as usize, "one value per job required");
        for (y, &v) in values.iter().enumerate() {
            assert!(
                v > 0.0 && v.is_finite(),
                "job {y} has non-positive or non-finite value {v}"
            );
        }
        let mut bfs = BfsScratch::default();
        bfs.ensure(g.nx() as usize, g.ny() as usize);
        Self {
            g,
            values,
            allowed: vec![false; g.nx() as usize],
            retired: vec![false; g.ny() as usize],
            match_x: vec![NONE; g.nx() as usize],
            match_y: vec![NONE; g.ny() as usize],
            total: 0.0,
            n_allowed: 0,
            revision: 0,
            augment_ops: 0,
            retract_ops: 0,
            bfs,
        }
    }

    /// Creates an oracle computing the *cardinality* matching rank (all job
    /// values 1).
    pub fn new_cardinality(g: &'g BipartiteGraph) -> Self {
        Self::new(g, vec![1.0; g.ny() as usize])
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &'g BipartiteGraph {
        self.g
    }

    /// Current value `F(S)`.
    #[inline]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Counter bumped every time the committed matching actually mutates
    /// (an [`MatchingOracle::add_slot`] that flips an alternating path, or a
    /// [`MatchingOracle::reset`]).
    ///
    /// Zero-gain slot additions leave it unchanged **and leave every exact
    /// marginal gain unchanged**: for `S' = S ∪ {v}` with `F(S') = F(S)`,
    /// monotonicity gives `F(S'∪T) ≥ F(S∪T)` while submodularity gives
    /// `F(S'∪T) − F(S') ≤ F(S∪T) − F(S)`; together they squeeze
    /// `F(S'∪T) − F(S') = F(S∪T) − F(S)` exactly. Callers can therefore
    /// memoize [`MatchingOracle::gain_of`] results keyed on this revision.
    #[inline]
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Per-job values.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Is slot `x` currently in `S`?
    #[inline]
    pub fn is_allowed(&self, x: u32) -> bool {
        self.allowed[x as usize]
    }

    /// `|S|`.
    #[inline]
    pub fn num_allowed(&self) -> usize {
        self.n_allowed
    }

    /// The job matched to slot `x`, if any.
    #[inline]
    pub fn matched_job(&self, x: u32) -> Option<u32> {
        let y = self.match_x[x as usize];
        (y != NONE).then_some(y)
    }

    /// The slot matched to job `y`, if any.
    #[inline]
    pub fn matched_slot(&self, y: u32) -> Option<u32> {
        let x = self.match_y[y as usize];
        (x != NONE).then_some(x)
    }

    /// Number of saturated jobs.
    pub fn matched_count(&self) -> usize {
        self.match_y.iter().filter(|&&x| x != NONE).count()
    }

    /// Iterates over the current matching as `(slot, job)` pairs.
    pub fn matching(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.match_x
            .iter()
            .enumerate()
            .filter(|(_, &y)| y != NONE)
            .map(|(x, &y)| (x as u32, y))
    }

    /// Adds slot `v` to `S` and returns the exact increase `F(S∪{v}) − F(S)`.
    /// Adding an already-allowed slot is a no-op returning 0.
    pub fn add_slot(&mut self, v: u32) -> f64 {
        if self.allowed[v as usize] {
            return 0.0;
        }
        self.allowed[v as usize] = true;
        self.n_allowed += 1;
        self.augment_ops += 1;
        let mut view = DirectView {
            match_x: &mut self.match_x,
            match_y: &mut self.match_y,
        };
        let gain = best_augment(
            self.g,
            v,
            &mut view,
            &mut self.bfs,
            &self.values,
            &self.retired,
        );
        if gain > 0.0 {
            self.revision += 1;
        }
        self.total += gain;
        gain
    }

    /// Adds every slot in `slots` to `S`; returns the total exact increase.
    pub fn commit(&mut self, slots: &[u32]) -> f64 {
        let mut gain = 0.0;
        for &v in slots {
            gain += self.add_slot(v);
        }
        gain
    }

    /// Retires job `y` — the delta operation for a job leaving the instance.
    ///
    /// The job is removed from the committed matching (if saturated) and
    /// excluded from every future augmentation and gain evaluation. The slot
    /// it occupied is re-augmented locally: a single alternating-path search
    /// from the freed slot restores a maximum-weight matching over the
    /// surviving jobs, because the only new source of augmenting paths after
    /// deleting one matched pair is that freed slot (every other free slot
    /// already had no augmenting path, and the retired job cannot terminate
    /// one). Returns the exact change `F_after − F_before` (always ≤ 0).
    ///
    /// Retiring an already-retired job is a no-op returning 0. Any retract of
    /// a live job bumps [`MatchingOracle::revision`] — even when the job was
    /// unsaturated, since its departure can still lower future marginal
    /// gains.
    pub fn retract(&mut self, y: u32) -> f64 {
        if self.retired[y as usize] {
            return 0.0;
        }
        self.retired[y as usize] = true;
        self.revision += 1;
        self.retract_ops += 1;
        let x = self.match_y[y as usize];
        if x == NONE {
            return 0.0;
        }
        self.match_y[y as usize] = NONE;
        self.match_x[x as usize] = NONE;
        let lost = self.values[y as usize];
        self.total -= lost;
        let mut view = DirectView {
            match_x: &mut self.match_x,
            match_y: &mut self.match_y,
        };
        let regained = best_augment(
            self.g,
            x,
            &mut view,
            &mut self.bfs,
            &self.values,
            &self.retired,
        );
        self.total += regained;
        regained - lost
    }

    /// Lifetime `(augment, retract)` committed-operation counts: augmenting
    /// searches run by [`MatchingOracle::add_slot`] and live-job retracts
    /// run by [`MatchingOracle::retract`]. Speculative gain evaluations are
    /// not counted. Telemetry layers read this once per solve.
    #[inline]
    pub fn op_counts(&self) -> (u64, u64) {
        (self.augment_ops, self.retract_ops)
    }

    /// Has job `y` been retired by [`MatchingOracle::retract`]?
    #[inline]
    pub fn is_retired(&self, y: u32) -> bool {
        self.retired[y as usize]
    }

    /// Evaluates `F(S ∪ T) − F(S)` exactly for `T = slots`, *without*
    /// modifying the committed state. Duplicate and already-allowed slots in
    /// `T` are ignored. Takes `&self`: safe to call concurrently with one
    /// [`GainScratch`] per thread.
    pub fn gain_of(&self, slots: &[u32], scratch: &mut GainScratch) -> f64 {
        self.overlay_scan(slots, scratch, |_, _| {})
    }

    /// Evaluates `F(S ∪ Pₖ) − F(S)` for **every prefix** `Pₖ` of `slots` in
    /// one overlay pass, pushing the cumulative gain after each position into
    /// `out` (so `out[k]` is the exact gain of the first `k + 1` slots).
    ///
    /// This is the batch form of [`MatchingOracle::gain_of`] for nested
    /// candidate families (awake intervals sharing a start): evaluating all
    /// `L` prefixes individually costs `O(L²)` slot augmentations, one scan
    /// costs `O(L)`. Every emitted value is bit-identical to the
    /// corresponding `gain_of` call, because the overlay after `k` slots is
    /// exactly the state `gain_of(&slots[..=k])` would have reached.
    pub fn gain_prefixes(&self, slots: &[u32], scratch: &mut GainScratch, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(slots.len());
        self.overlay_scan(slots, scratch, |_, cum| out.push(cum));
    }

    /// Shared overlay walk: adds `slots` one by one to a copy-on-write view,
    /// calling `emit(position, cumulative_gain)` after each position.
    /// Returns the final cumulative gain.
    fn overlay_scan(
        &self,
        slots: &[u32],
        scratch: &mut GainScratch,
        mut emit: impl FnMut(usize, f64),
    ) -> f64 {
        let nx = self.g.nx() as usize;
        let ny = self.g.ny() as usize;
        scratch.ensure(nx, ny);
        let ep = scratch.next_epoch();
        let mut gain = 0.0;
        for (k, &v) in slots.iter().enumerate() {
            if !self.allowed[v as usize] && scratch.added_ver[v as usize] != ep {
                scratch.added_ver[v as usize] = ep;
                let mut view = OverlayView {
                    base_x: &self.match_x,
                    base_y: &self.match_y,
                    ep,
                    mx_ov: &mut scratch.mx_ov,
                    mx_ver: &mut scratch.mx_ver,
                    my_ov: &mut scratch.my_ov,
                    my_ver: &mut scratch.my_ver,
                };
                gain += best_augment(
                    self.g,
                    v,
                    &mut view,
                    &mut scratch.bfs,
                    &self.values,
                    &self.retired,
                );
            }
            emit(k, gain);
        }
        gain
    }

    /// Clears `S` back to the empty set and un-retires every job.
    pub fn reset(&mut self) {
        self.allowed.fill(false);
        self.retired.fill(false);
        self.match_x.fill(NONE);
        self.match_y.fill(NONE);
        self.total = 0.0;
        self.n_allowed = 0;
        self.revision += 1;
    }
}

/// Finds the maximum-value unsaturated job reachable from the newly-allowed,
/// unmatched slot `v` by an alternating path, flips that path, and returns the
/// gained value (0 if none reachable). Ties broken toward the smallest job
/// index for determinism. Retired jobs are invisible: never matched (they are
/// unmatched by construction) and never chosen as the augmenting endpoint.
fn best_augment(
    g: &BipartiteGraph,
    v: u32,
    view: &mut impl MatchView,
    bfs: &mut BfsScratch,
    values: &[f64],
    retired: &[bool],
) -> f64 {
    debug_assert_eq!(view.mx(v), NONE, "newly added slot must be unmatched");
    let ep = bfs.next_epoch();
    bfs.queue.clear();
    bfs.queue.push(v);
    let mut best_y = NONE;
    let mut best_val = 0.0f64;

    let mut head = 0;
    while head < bfs.queue.len() {
        let x = bfs.queue[head];
        head += 1;
        for &y in g.adj_x(x) {
            if retired[y as usize] || bfs.job_seen[y as usize] == ep {
                continue;
            }
            bfs.job_seen[y as usize] = ep;
            bfs.prev_slot[y as usize] = x;
            let m = view.my(y);
            if m == NONE {
                let val = values[y as usize];
                if val > best_val || (val == best_val && best_y != NONE && y < best_y) {
                    best_val = val;
                    best_y = y;
                }
            } else {
                // The matched partner slot is explored next; it is enqueued at
                // most once because each slot has a unique matched job.
                bfs.queue.push(m);
            }
        }
    }

    if best_y == NONE {
        return 0.0;
    }

    // Flip the alternating path from best_y back to v via parent pointers.
    let mut y = best_y;
    loop {
        let s = bfs.prev_slot[y as usize];
        let prev_job = view.mx(s);
        view.set_my(y, s);
        view.set_mx(s, y);
        if prev_job == NONE {
            debug_assert_eq!(s, v);
            break;
        }
        y = prev_job;
    }
    best_val
}

/// Reference implementation of the weighted matching rank: greedy over jobs
/// in decreasing value order with Kuhn-style augmentation, restricted to
/// `allowed` slots. Correct because job sets matchable into `S` form a
/// transversal matroid and greedy maximizes weight over matroids.
///
/// Exponential in nothing, but O(ny · E); intended for tests and validation.
pub fn weighted_rank_reference(
    g: &BipartiteGraph,
    values: &[f64],
    allowed: impl Fn(u32) -> bool,
) -> f64 {
    let mut order: Vec<u32> = (0..g.ny()).collect();
    order.sort_by(|&a, &b| {
        values[b as usize]
            .partial_cmp(&values[a as usize])
            .unwrap()
            .then(a.cmp(&b))
    });
    let mut match_x = vec![NONE; g.nx() as usize];
    let mut match_y = vec![NONE; g.ny() as usize];
    let mut total = 0.0;
    let mut seen = vec![false; g.nx() as usize];

    fn try_augment(
        g: &BipartiteGraph,
        y: u32,
        allowed: &impl Fn(u32) -> bool,
        match_x: &mut [u32],
        match_y: &mut [u32],
        seen: &mut [bool],
    ) -> bool {
        for &x in g.adj_y(y) {
            if !allowed(x) || seen[x as usize] {
                continue;
            }
            seen[x as usize] = true;
            let occupant = match_x[x as usize];
            if occupant == NONE || try_augment(g, occupant, allowed, match_x, match_y, seen) {
                match_x[x as usize] = y;
                match_y[y as usize] = x;
                return true;
            }
        }
        false
    }

    for y in order {
        seen.fill(false);
        if try_augment(g, y, &allowed, &mut match_x, &mut match_y, &mut seen) {
            total += values[y as usize];
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hopcroft_karp::hopcroft_karp;
    use rand::{Rng, SeedableRng};

    fn random_graph(rng: &mut impl Rng, nx: u32, ny: u32, p: f64) -> BipartiteGraph {
        let mut e = Vec::new();
        for x in 0..nx {
            for y in 0..ny {
                if rng.gen_bool(p) {
                    e.push((x, y));
                }
            }
        }
        BipartiteGraph::from_edges(nx, ny, &e)
    }

    #[test]
    fn empty_set_has_zero_rank() {
        let g = BipartiteGraph::from_edges(3, 3, &[(0, 0), (1, 1)]);
        let o = MatchingOracle::new_cardinality(&g);
        assert_eq!(o.total(), 0.0);
        assert_eq!(o.num_allowed(), 0);
    }

    #[test]
    fn single_slot_single_job() {
        let g = BipartiteGraph::from_edges(1, 1, &[(0, 0)]);
        let mut o = MatchingOracle::new_cardinality(&g);
        assert_eq!(o.add_slot(0), 1.0);
        assert_eq!(o.total(), 1.0);
        assert_eq!(o.matched_job(0), Some(0));
        assert_eq!(o.matched_slot(0), Some(0));
        // idempotent
        assert_eq!(o.add_slot(0), 0.0);
        assert_eq!(o.total(), 1.0);
    }

    #[test]
    fn rebinding_through_alternating_path() {
        // slots {0,1}, jobs {0,1}; edges: (0,0),(0,1),(1,0).
        // Add slot 0: matches some job. Add slot 1: must reach total 2 via
        // possible rebinding.
        let g = BipartiteGraph::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]);
        let mut o = MatchingOracle::new_cardinality(&g);
        assert_eq!(o.add_slot(0), 1.0);
        assert_eq!(o.add_slot(1), 1.0);
        assert_eq!(o.total(), 2.0);
    }

    #[test]
    fn weighted_prefers_high_value_job() {
        // one slot, two jobs with values 1 and 10
        let g = BipartiteGraph::from_edges(1, 2, &[(0, 0), (0, 1)]);
        let mut o = MatchingOracle::new(&g, vec![1.0, 10.0]);
        assert_eq!(o.add_slot(0), 10.0);
        assert_eq!(o.matched_job(0), Some(1));
    }

    #[test]
    fn weighted_rebind_releases_low_value() {
        // slot 0 adj {job0(v=5), job1(v=3)}; slot 1 adj {job0}.
        // add slot 0 -> picks job0 (5). add slot 1 -> rebind job0 to slot 1,
        // slot 0 takes job1: gain 3.
        let g = BipartiteGraph::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]);
        let mut o = MatchingOracle::new(&g, vec![5.0, 3.0]);
        assert_eq!(o.add_slot(0), 5.0);
        assert_eq!(o.add_slot(1), 3.0);
        assert_eq!(o.total(), 8.0);
    }

    #[test]
    fn cardinality_matches_hopcroft_karp_incrementally() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let nx = rng.gen_range(1..=12u32);
            let ny = rng.gen_range(1..=10u32);
            let g = random_graph(&mut rng, nx, ny, 0.3);
            let mut o = MatchingOracle::new_cardinality(&g);
            let mut order: Vec<u32> = (0..nx).collect();
            // random insertion order
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            let mut inserted = vec![false; nx as usize];
            for &v in &order {
                o.add_slot(v);
                inserted[v as usize] = true;
                let hk = hopcroft_karp(&g, |x| inserted[x as usize]);
                assert_eq!(
                    o.total(),
                    hk.size as f64,
                    "oracle vs HK mismatch after inserting {v}"
                );
            }
        }
    }

    #[test]
    fn weighted_matches_reference_incrementally() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        for _ in 0..50 {
            let nx = rng.gen_range(1..=10u32);
            let ny = rng.gen_range(1..=8u32);
            let g = random_graph(&mut rng, nx, ny, 0.35);
            let values: Vec<f64> = (0..ny).map(|_| rng.gen_range(1..=20) as f64).collect();
            let mut o = MatchingOracle::new(&g, values.clone());
            let mut inserted = vec![false; nx as usize];
            for v in 0..nx {
                o.add_slot(v);
                inserted[v as usize] = true;
                let want = weighted_rank_reference(&g, &values, |x| inserted[x as usize]);
                assert_eq!(o.total(), want, "weighted oracle mismatch at slot {v}");
            }
        }
    }

    #[test]
    fn gain_of_is_pure_and_matches_commit() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for _ in 0..40 {
            let nx = rng.gen_range(2..=12u32);
            let ny = rng.gen_range(1..=8u32);
            let g = random_graph(&mut rng, nx, ny, 0.3);
            let values: Vec<f64> = (0..ny).map(|_| rng.gen_range(1..=9) as f64).collect();
            let mut o = MatchingOracle::new(&g, values);
            let mut scratch = GainScratch::new();
            // commit a random prefix
            for v in 0..nx / 2 {
                o.add_slot(v);
            }
            let before = o.total();
            // candidate: random slot subset
            let cand: Vec<u32> = (0..nx).filter(|_| rng.gen_bool(0.4)).collect();
            let g1 = o.gain_of(&cand, &mut scratch);
            let g2 = o.gain_of(&cand, &mut scratch);
            assert_eq!(g1, g2, "gain_of must be deterministic and pure");
            assert_eq!(o.total(), before, "gain_of must not mutate the oracle");
            let committed = o.commit(&cand);
            assert_eq!(g1, committed, "gain_of must equal the committed gain");
        }
    }

    #[test]
    fn gain_prefixes_matches_individual_gain_of() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for _ in 0..40 {
            let nx = rng.gen_range(2..=14u32);
            let ny = rng.gen_range(1..=10u32);
            let g = random_graph(&mut rng, nx, ny, 0.3);
            let values: Vec<f64> = (0..ny).map(|_| rng.gen_range(1..=9) as f64).collect();
            let mut o = MatchingOracle::new(&g, values);
            for v in 0..nx / 3 {
                o.add_slot(v);
            }
            // slot list with duplicates and already-allowed entries mixed in
            let slots: Vec<u32> = (0..nx + 4).map(|_| rng.gen_range(0..nx)).collect();
            let mut scratch = GainScratch::new();
            let mut cum = Vec::new();
            o.gain_prefixes(&slots, &mut scratch, &mut cum);
            assert_eq!(cum.len(), slots.len());
            for k in 0..slots.len() {
                let want = o.gain_of(&slots[..=k], &mut scratch);
                assert_eq!(cum[k], want, "prefix {k} of {slots:?}");
            }
        }
    }

    #[test]
    fn revision_tracks_matching_mutations_only() {
        // slot 0 has a job; slot 1 is isolated (degree 0, zero gain).
        let g = BipartiteGraph::from_edges(2, 1, &[(0, 0)]);
        let mut o = MatchingOracle::new_cardinality(&g);
        let r0 = o.revision();
        assert_eq!(o.add_slot(1), 0.0);
        assert_eq!(o.revision(), r0, "zero-gain add must not bump revision");
        assert_eq!(o.add_slot(0), 1.0);
        assert_eq!(o.revision(), r0 + 1);
        let mut s = GainScratch::new();
        o.gain_of(&[0, 1], &mut s);
        assert_eq!(o.revision(), r0 + 1, "gain_of must not bump revision");
        o.reset();
        assert!(
            o.revision() > r0 + 1,
            "reset must invalidate memoized gains"
        );
    }

    #[test]
    fn gain_of_ignores_duplicates_and_existing() {
        let g = BipartiteGraph::from_edges(2, 2, &[(0, 0), (1, 1)]);
        let mut o = MatchingOracle::new_cardinality(&g);
        o.add_slot(0);
        let mut s = GainScratch::new();
        assert_eq!(o.gain_of(&[0, 1, 1, 0], &mut s), 1.0);
    }

    #[test]
    fn monotone_and_submodular_randomized() {
        // randomized check of monotonicity and the diminishing-returns
        // inequality F(A∪{v})-F(A) >= F(B∪{v})-F(B) for A ⊆ B.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..60 {
            let nx = rng.gen_range(2..=10u32);
            let ny = rng.gen_range(1..=8u32);
            let g = random_graph(&mut rng, nx, ny, 0.35);
            let values: Vec<f64> = (0..ny).map(|_| rng.gen_range(1..=10) as f64).collect();

            let eval = |slots: &[u32]| -> f64 {
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
            let fa = eval(&a);
            let fb = eval(&b);
            assert!(fb >= fa, "monotonicity violated");
            let mut av = a.clone();
            av.push(v);
            let mut bv = b.clone();
            bv.push(v);
            let ga = eval(&av) - fa;
            let gb = eval(&bv) - fb;
            assert!(
                ga >= gb - 1e-9,
                "submodularity violated: gain(A,{v})={ga} < gain(B,{v})={gb}"
            );
        }
    }

    #[test]
    fn reset_clears_state() {
        let g = BipartiteGraph::from_edges(2, 2, &[(0, 0), (1, 1)]);
        let mut o = MatchingOracle::new_cardinality(&g);
        o.commit(&[0, 1]);
        assert_eq!(o.total(), 2.0);
        o.reset();
        assert_eq!(o.total(), 0.0);
        assert_eq!(o.num_allowed(), 0);
        assert_eq!(o.matched_count(), 0);
        // can re-add
        assert_eq!(o.add_slot(0), 1.0);
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn zero_value_rejected() {
        let g = BipartiteGraph::from_edges(1, 1, &[(0, 0)]);
        let _ = MatchingOracle::new(&g, vec![0.0]);
    }

    #[test]
    fn retract_reaugments_locally() {
        // slots {0,1}, jobs {0,1}; slot 0 adj both jobs, slot 1 adj job 0.
        // Commit both slots: total 2. Retract job 0 (wherever it sits): the
        // freed slot must re-augment so the surviving job stays matched.
        let g = BipartiteGraph::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]);
        let mut o = MatchingOracle::new_cardinality(&g);
        o.commit(&[0, 1]);
        assert_eq!(o.total(), 2.0);
        let r = o.revision();
        assert_eq!(o.retract(0), -1.0);
        assert_eq!(o.total(), 1.0);
        assert!(o.is_retired(0));
        assert_eq!(o.matched_job(0), Some(1), "slot 0 must rebind to job 1");
        assert!(o.revision() > r);
        // idempotent
        assert_eq!(o.retract(0), 0.0);
        assert_eq!(o.total(), 1.0);
    }

    #[test]
    fn retract_excludes_job_from_future_gains() {
        let g = BipartiteGraph::from_edges(2, 1, &[(0, 0), (1, 0)]);
        let mut o = MatchingOracle::new_cardinality(&g);
        let r = o.revision();
        // job 0 unsaturated; retiring it must still bump revision because
        // memoized gains (which could have matched it) are now stale.
        assert_eq!(o.retract(0), 0.0);
        assert!(o.revision() > r);
        let mut s = GainScratch::new();
        assert_eq!(o.gain_of(&[0, 1], &mut s), 0.0);
        assert_eq!(o.add_slot(0), 0.0, "retired job must not be matched");
        assert_eq!(o.matched_job(0), None);
    }

    #[test]
    fn retract_matches_reference_randomized() {
        // Interleave slot additions and job retractions; after each step the
        // oracle total must equal the reference rank over surviving jobs.
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..40 {
            let nx = rng.gen_range(2..=10u32);
            let ny = rng.gen_range(2..=8u32);
            let g = random_graph(&mut rng, nx, ny, 0.35);
            let values: Vec<f64> = (0..ny).map(|_| rng.gen_range(1..=9) as f64).collect();
            let mut o = MatchingOracle::new(&g, values.clone());
            let mut inserted = vec![false; nx as usize];
            let mut gone = vec![false; ny as usize];
            for _ in 0..(nx + ny) {
                if rng.gen_bool(0.6) {
                    let v = rng.gen_range(0..nx);
                    o.add_slot(v);
                    inserted[v as usize] = true;
                } else {
                    let y = rng.gen_range(0..ny);
                    o.retract(y);
                    gone[y as usize] = true;
                }
                // reference: same graph minus the retired jobs' edges
                let live: Vec<(u32, u32)> = g.edges().filter(|&(_, y)| !gone[y as usize]).collect();
                let gl = BipartiteGraph::from_edges(nx, ny, &live);
                let want = weighted_rank_reference(&gl, &values, |x| inserted[x as usize]);
                assert_eq!(o.total(), want, "rank mismatch after delta sequence");
            }
        }
    }

    #[test]
    fn reset_clears_retirement() {
        let g = BipartiteGraph::from_edges(1, 1, &[(0, 0)]);
        let mut o = MatchingOracle::new_cardinality(&g);
        o.add_slot(0);
        o.retract(0);
        assert_eq!(o.total(), 0.0);
        o.reset();
        assert!(!o.is_retired(0));
        assert_eq!(o.add_slot(0), 1.0);
    }

    #[test]
    fn matching_iterator_consistent() {
        let g = BipartiteGraph::from_edges(3, 3, &[(0, 0), (1, 1), (2, 2)]);
        let mut o = MatchingOracle::new_cardinality(&g);
        o.commit(&[0, 1, 2]);
        let pairs: Vec<(u32, u32)> = o.matching().collect();
        assert_eq!(pairs.len(), 3);
        for (x, y) in pairs {
            assert_eq!(o.matched_slot(y), Some(x));
        }
    }
}
