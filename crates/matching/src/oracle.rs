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
//!
//! # Dead jobs and early exit
//!
//! Most searches in a gain scan fail: the new slot reaches only saturated
//! jobs. The jobs `D` a failed search reaches are each matched to a slot the
//! search enqueued, and every job adjacent to one of those slots is in `D`
//! or already dead. So `D` is *closed*: an alternating walk that enters `D`
//! stays among `D` and its matched slots and never ends at an unsaturated
//! job. The search marks `D` dead, and later searches skip dead jobs.
//! Skipping them changes neither which live jobs a search reaches nor the
//! slot it first reaches each one from, because the slots matched into `D`
//! are adjacent to no live job. No later operation reopens `D`:
//!
//! * **slot insertion** adds no edge at a slot matched into `D`, and the new
//!   slot's own search sees `D` closed like any other;
//! * **augmentation** flips a path that ends at an unsaturated job, so the
//!   path never enters `D` and `D`'s matched edges never flip.
//!
//! So a dead job is always matched. Committed marks live in the oracle
//! until [`MatchingOracle::reset`]; marks set by overlay searches live in the
//! [`GainScratch`] for one pass, because that pass's matching is thrown
//! away.
//!
//! Overlay searches also stop at the first unsaturated job worth the
//! largest job value, since no job can add more. The overlay may then hold
//! a different maximum matching than the exhaustive search would build, but
//! each increment `F(S ∪ Pₖ₊₁) − F(S ∪ Pₖ)` depends on the slot sets, not on
//! the matching, so every gain keeps its bits. Committed searches stay
//! exhaustive with the smallest-index tie-break: the committed matching, and
//! every assignment read from it, is the one the plain search builds.

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
    /// Lifetime count of adjacency entries the searches examined.
    edge_visits: u64,
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

/// Read/write access to a matching state and its dead-job marks; lets the
/// committed path and the overlay path share one augmentation routine.
trait MatchView {
    fn mx(&self, x: u32) -> u32;
    fn my(&self, y: u32) -> u32;
    fn set_mx(&mut self, x: u32, y: u32);
    fn set_my(&mut self, y: u32, x: u32);
    /// Is job `y` in a closed, fully matched set (see the module docs)?
    fn is_dead(&self, y: u32) -> bool;
    fn mark_dead(&mut self, y: u32);
}

struct DirectView<'a> {
    match_x: &'a mut [u32],
    match_y: &'a mut [u32],
    dead: &'a mut [bool],
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
    #[inline]
    fn is_dead(&self, y: u32) -> bool {
        self.dead[y as usize]
    }
    #[inline]
    fn mark_dead(&mut self, y: u32) {
        self.dead[y as usize] = true;
    }
}

/// Epoch-versioned copy-on-write overlay over the committed matching.
///
/// Reads fall through to the committed arrays unless the entry was written in
/// the current evaluation epoch; writes never touch the committed arrays.
/// Reusing one `GainScratch` across evaluations costs O(touched entries) per
/// evaluation instead of O(V). Duplicate slots within one evaluation are
/// detected with the same epoch trick (`added_ver`), so an evaluation costs
/// O(|T|) bookkeeping instead of the O(|T|²) of a linear `contains` scan,
/// and jobs a failed search proves dead stay dead for the rest of the pass
/// (`dead_ver`).
#[derive(Clone, Debug, Default)]
pub struct GainScratch {
    ep: u32,
    mx_ov: Vec<u32>,
    mx_ver: Vec<u32>,
    my_ov: Vec<u32>,
    my_ver: Vec<u32>,
    /// Per-job tag: `== ep` when a failed search in this epoch marked the
    /// job dead.
    dead_ver: Vec<u32>,
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
            self.dead_ver = vec![0; ny];
            self.ep = 0;
        }
        self.bfs.ensure(nx, ny);
    }

    fn next_epoch(&mut self) -> u32 {
        if self.ep == u32::MAX {
            self.mx_ver.fill(0);
            self.my_ver.fill(0);
            self.dead_ver.fill(0);
            self.added_ver.fill(0);
            self.ep = 0;
        }
        self.ep += 1;
        self.ep
    }

    /// Lifetime count of adjacency entries examined by the alternating-path
    /// searches of gain evaluations run with this scratch. A plain field:
    /// telemetry and work-bound tests read it once per solve.
    #[inline]
    pub fn edge_visits(&self) -> u64 {
        self.bfs.edge_visits
    }
}

struct OverlayView<'a> {
    base_x: &'a [u32],
    base_y: &'a [u32],
    base_dead: &'a [bool],
    ep: u32,
    mx_ov: &'a mut [u32],
    mx_ver: &'a mut [u32],
    my_ov: &'a mut [u32],
    my_ver: &'a mut [u32],
    dead_ver: &'a mut [u32],
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
    #[inline]
    fn is_dead(&self, y: u32) -> bool {
        self.base_dead[y as usize] || self.dead_ver[y as usize] == self.ep
    }
    #[inline]
    fn mark_dead(&mut self, y: u32) {
        self.dead_ver[y as usize] = self.ep;
    }
}

/// Incremental maximum-weight matching-rank oracle over a fixed bipartite
/// graph; see the module docs for the invariants it maintains.
#[derive(Clone, Debug)]
pub struct MatchingOracle<'g> {
    g: &'g BipartiteGraph,
    values: Vec<f64>,
    /// Largest job value: an overlay search stops at the first unsaturated
    /// job worth this much.
    max_value: f64,
    allowed: Vec<bool>,
    /// Jobs every search skips: the closed sets failed committed searches
    /// reached, which stay matched (see the module docs).
    dead: Vec<bool>,
    match_x: Vec<u32>,
    match_y: Vec<u32>,
    total: f64,
    n_allowed: usize,
    revision: u64,
    // Committed-operation tallies for telemetry: plain fields (no atomics,
    // no dependency on any metrics crate) that callers read out once per
    // solve via [`MatchingOracle::op_counts`].
    augment_ops: u64,
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
        let max_value = values.iter().copied().fold(0.0, f64::max);
        Self {
            g,
            values,
            max_value,
            allowed: vec![false; g.nx() as usize],
            dead: vec![false; g.ny() as usize],
            match_x: vec![NONE; g.nx() as usize],
            match_y: vec![NONE; g.ny() as usize],
            total: 0.0,
            n_allowed: 0,
            revision: 0,
            augment_ops: 0,
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

    /// The largest job value (0 with no jobs). Adding one slot `x` to `S`
    /// raises `F` by at most this much: dropping the job matched to `x` from
    /// a best matching of `S ∪ {x}` leaves a matching of `S`.
    #[inline]
    pub fn max_value(&self) -> f64 {
        self.max_value
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
            dead: &mut self.dead,
        };
        let gain = best_augment(
            self.g,
            v,
            &mut view,
            &mut self.bfs,
            &self.values,
            f64::INFINITY,
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

    /// Lifetime committed-operation counts as `(augments, 0)`: the
    /// augmenting searches run by [`MatchingOracle::add_slot`]. Speculative
    /// gain evaluations are not counted. The second value is always 0,
    /// because the oracle never deletes a job (there is no `retract` or
    /// `is_retired`); the pair keeps its shape for callers that destructure
    /// it. Telemetry layers read this once per solve.
    #[inline]
    pub fn op_counts(&self) -> (u64, u64) {
        (self.augment_ops, 0)
    }

    /// Lifetime count of adjacency entries examined by the committed
    /// searches of [`MatchingOracle::add_slot`];
    /// [`GainScratch::edge_visits`] counts the speculative ones.
    #[inline]
    pub fn edge_visits(&self) -> u64 {
        self.bfs.edge_visits
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
                    base_dead: &self.dead,
                    ep,
                    mx_ov: &mut scratch.mx_ov,
                    mx_ver: &mut scratch.mx_ver,
                    my_ov: &mut scratch.my_ov,
                    my_ver: &mut scratch.my_ver,
                    dead_ver: &mut scratch.dead_ver,
                };
                gain += best_augment(
                    self.g,
                    v,
                    &mut view,
                    &mut scratch.bfs,
                    &self.values,
                    self.max_value,
                );
            }
            emit(k, gain);
        }
        gain
    }

    /// Clears `S` back to the empty set and revives every dead job.
    pub fn reset(&mut self) {
        self.allowed.fill(false);
        self.dead.fill(false);
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
/// index for determinism, unless a job worth at least `stop_at` turns up: the
/// search then stops there (overlay searches pass the largest job value,
/// committed ones `f64::INFINITY`). Dead jobs are skipped; a search that
/// reaches no unsaturated job marks every job it reached dead (see the
/// module docs).
fn best_augment(
    g: &BipartiteGraph,
    v: u32,
    view: &mut impl MatchView,
    bfs: &mut BfsScratch,
    values: &[f64],
    stop_at: f64,
) -> f64 {
    debug_assert_eq!(view.mx(v), NONE, "newly added slot must be unmatched");
    let ep = bfs.next_epoch();
    bfs.queue.clear();
    bfs.queue.push(v);
    let mut best_y = NONE;
    let mut best_val = 0.0f64;
    let mut visits = 0u64;

    let mut head = 0;
    'search: while head < bfs.queue.len() {
        let x = bfs.queue[head];
        head += 1;
        for &y in g.adj_x(x) {
            visits += 1;
            if view.is_dead(y) || bfs.job_seen[y as usize] == ep {
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
                    if val >= stop_at {
                        break 'search;
                    }
                }
            } else {
                // The matched partner slot is explored next; it is enqueued at
                // most once because each slot has a unique matched job.
                bfs.queue.push(m);
            }
        }
    }
    bfs.edge_visits += visits;

    if best_y == NONE {
        // Every job reached is matched to a slot after `v` on the queue.
        for &x in &bfs.queue[1..] {
            let y = view.mx(x);
            view.mark_dead(y);
        }
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

    /// The exhaustive search without dead-job pruning or early exit, kept as
    /// the identity reference: it walks every reachable job on every search.
    #[derive(Clone)]
    struct Reference<'g> {
        g: &'g BipartiteGraph,
        values: Vec<f64>,
        allowed: Vec<bool>,
        match_x: Vec<u32>,
        match_y: Vec<u32>,
        total: f64,
    }

    impl<'g> Reference<'g> {
        fn new(g: &'g BipartiteGraph, values: Vec<f64>) -> Self {
            Self {
                g,
                values,
                allowed: vec![false; g.nx() as usize],
                match_x: vec![NONE; g.nx() as usize],
                match_y: vec![NONE; g.ny() as usize],
                total: 0.0,
            }
        }

        fn augment(&mut self, v: u32) -> f64 {
            let ny = self.g.ny() as usize;
            let mut seen = vec![false; ny];
            let mut prev_slot = vec![NONE; ny];
            let mut queue = vec![v];
            let (mut best_y, mut best_val) = (NONE, 0.0f64);
            let mut head = 0;
            while head < queue.len() {
                let x = queue[head];
                head += 1;
                for &y in self.g.adj_x(x) {
                    if seen[y as usize] {
                        continue;
                    }
                    seen[y as usize] = true;
                    prev_slot[y as usize] = x;
                    let m = self.match_y[y as usize];
                    if m == NONE {
                        let val = self.values[y as usize];
                        if val > best_val || (val == best_val && best_y != NONE && y < best_y) {
                            best_val = val;
                            best_y = y;
                        }
                    } else {
                        queue.push(m);
                    }
                }
            }
            if best_y == NONE {
                return 0.0;
            }
            let mut y = best_y;
            loop {
                let s = prev_slot[y as usize];
                let prev_job = self.match_x[s as usize];
                self.match_y[y as usize] = s;
                self.match_x[s as usize] = y;
                if prev_job == NONE {
                    break;
                }
                y = prev_job;
            }
            best_val
        }

        fn add_slot(&mut self, v: u32) -> f64 {
            if self.allowed[v as usize] {
                return 0.0;
            }
            self.allowed[v as usize] = true;
            let gain = self.augment(v);
            self.total += gain;
            gain
        }

        /// Cumulative gains of adding `slots` one by one to a copy.
        fn prefix_gains(&self, slots: &[u32]) -> Vec<f64> {
            let mut copy = self.clone();
            let mut cum = 0.0;
            slots
                .iter()
                .map(|&v| {
                    cum += copy.add_slot(v);
                    cum
                })
                .collect()
        }
    }

    fn shuffle<T>(rng: &mut impl Rng, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, rng.gen_range(0..=i));
        }
    }

    /// A random graph whose slots and jobs come in groups of twins with
    /// identical adjacency: the shapes DVFS lanes (twin slots) and sub-jobs
    /// (twin jobs, each worth `value / work`) compile to. Ids are shuffled
    /// in half the draws, so twins are not always neighbours.
    fn twin_graph(rng: &mut impl Rng, weighted: bool) -> (BipartiteGraph, Vec<f64>) {
        let base_x = rng.gen_range(1..=8u32);
        let base_y = rng.gen_range(1..=6u32);
        let expand = |rng: &mut _, n: u32| -> Vec<u32> {
            let mut of: Vec<u32> = (0..n)
                .flat_map(|b| std::iter::repeat_n(b, Rng::gen_range(rng, 1..=3)))
                .collect();
            if Rng::gen_bool(rng, 0.5) {
                shuffle(rng, &mut of);
            }
            of
        };
        let slot_base = expand(rng, base_x);
        let job_base = expand(rng, base_y);
        let base = random_graph(rng, base_x, base_y, 0.4);
        let mut edges = Vec::new();
        for (x, &bx) in slot_base.iter().enumerate() {
            for (y, &by) in job_base.iter().enumerate() {
                if base.adj_x(bx).contains(&by) {
                    edges.push((x as u32, y as u32));
                }
            }
        }
        let g = BipartiteGraph::from_edges(slot_base.len() as u32, job_base.len() as u32, &edges);
        let values = if weighted {
            let base_values: Vec<f64> = (0..base_y).map(|_| rng.gen_range(1..=12) as f64).collect();
            let work: Vec<usize> = (0..base_y)
                .map(|b| job_base.iter().filter(|&&j| j == b).count())
                .collect();
            job_base
                .iter()
                .map(|&b| base_values[b as usize] / work[b as usize] as f64)
                .collect()
        } else {
            vec![1.0; job_base.len()]
        };
        (g, values)
    }

    fn assert_same_state(o: &MatchingOracle<'_>, r: &Reference<'_>, ctx: &str) {
        assert_eq!(o.match_x, r.match_x, "match_x diverged {ctx}");
        assert_eq!(o.match_y, r.match_y, "match_y diverged {ctx}");
        assert_eq!(o.total.to_bits(), r.total.to_bits(), "total diverged {ctx}");
    }

    #[test]
    fn pruned_search_is_identical_to_the_exhaustive_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x7D1E);
        // one scratch across every oracle and pass, as a worker thread uses it
        let mut scratch = GainScratch::new();
        let mut cum = Vec::new();
        let mut failed_searches = 0;
        for trial in 0..160 {
            let (g, values) = twin_graph(&mut rng, trial % 2 == 1);
            let nx = g.nx();
            let mut o = MatchingOracle::new(&g, values.clone());
            let mut r = Reference::new(&g, values);
            let mut order: Vec<u32> = (0..nx).collect();
            shuffle(&mut rng, &mut order);
            for (step, &v) in order.iter().enumerate() {
                let ctx = format!("(trial {trial}, step {step})");
                let (got, want) = (o.add_slot(v), r.add_slot(v));
                assert_eq!(got.to_bits(), want.to_bits(), "add_slot({v}) {ctx}");
                if got == 0.0 {
                    failed_searches += 1;
                }
                assert_same_state(&o, &r, &ctx);

                // a long probe: unadded twins of added slots, repeats and
                // already-allowed slots, so most of its searches fail
                let mut probe: Vec<u32> = (0..nx).chain(0..nx / 2).collect();
                shuffle(&mut rng, &mut probe);
                probe.truncate(rng.gen_range(1..=probe.len()));
                let want = r.prefix_gains(&probe);
                o.gain_prefixes(&probe, &mut scratch, &mut cum);
                let bits = |v: &[f64]| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&cum), bits(&want), "gain_prefixes {probe:?} {ctx}");
                let last = *want.last().unwrap();
                let single = o.gain_of(&probe, &mut scratch);
                assert_eq!(single.to_bits(), last.to_bits(), "gain_of {ctx}");
                assert_same_state(&o, &r, &ctx);
            }
        }
        assert!(failed_searches > 500, "too few failed searches exercised");
    }

    #[test]
    fn failed_searches_skip_the_closed_set_they_reached() {
        // slots 0..4 share one job; after slot 0 takes it, each later slot's
        // search fails, and from the second one on it finds the job dead and
        // examines only its own adjacency entry
        let g = BipartiteGraph::from_edges(4, 1, &[(0, 0), (1, 0), (2, 0), (3, 0)]);
        let mut o = MatchingOracle::new_cardinality(&g);
        assert_eq!(o.add_slot(0), 1.0);
        assert_eq!(o.edge_visits(), 1);
        assert_eq!(o.add_slot(1), 0.0);
        assert_eq!(o.edge_visits(), 3, "slot 1 walks job 0 back to slot 0");
        assert_eq!(o.add_slot(2), 0.0);
        assert_eq!(o.edge_visits(), 4, "job 0 is dead: one entry");
        // the overlay sees the committed mark too
        let mut s = GainScratch::new();
        assert_eq!(o.gain_of(&[3], &mut s), 0.0);
        assert_eq!(s.edge_visits(), 1);
        // reset revives it
        o.reset();
        assert_eq!(o.add_slot(3), 1.0);
    }

    #[test]
    fn epoch_wrap_clears_every_stamp() {
        // slots 0 and 1 share job 0: the first pass (epoch 1) adds both
        // slots, matches the job and marks it dead; a pass that wraps the
        // epoch counter back to 1 must not read any of those stamps
        let g = BipartiteGraph::from_edges(2, 1, &[(0, 0), (1, 0)]);
        let o = MatchingOracle::new_cardinality(&g);
        let mut s = GainScratch::new();
        assert_eq!(o.gain_of(&[0, 1], &mut s), 1.0);
        assert_eq!(s.dead_ver[0], 1);
        s.ep = u32::MAX;
        assert_eq!(o.gain_of(&[1], &mut s), 1.0);
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
