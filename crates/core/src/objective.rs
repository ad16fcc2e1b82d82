//! The bipartite reduction and the greedy objective adapter.
//!
//! Section 2.2 of the paper formulates scheduling as submodular maximization:
//! ground set = slot/processor pairs, allowable subsets = candidate awake
//! intervals (each contributing its slots), utility = matching rank of the
//! slot–job bipartite graph. This module builds that graph once
//! ([`ScheduleReduction`]) and adapts the incremental
//! [`bmatch::MatchingOracle`] to the [`BudgetedObjective`] interface consumed
//! by the Lemma 2.1.2 greedy.
//!
//! # Hot-path layout
//!
//! The reduction is built for the greedy's access pattern, not for
//! readability of the intermediate state:
//!
//! * **Windows of one slot arena** — the *interesting* slots (adjacent to at
//!   least one job) live in one increasing arena, and a prefix count over
//!   dense slot ids maps an interval `[s, e)` to its window of that arena
//!   with two loads. Degree-0 slots can never change the matching, so they
//!   are never evaluated; an interval's *cost* still covers them.
//! * **Window subsets** — the greedy's index space is not the candidate
//!   family but one *subset* per distinct nonempty window. By Lemma 2.2.2 a
//!   candidate's marginal gain is the matching rank its window adds, so
//!   candidates with equal windows always have equal gains, and the greedy's
//!   order `(ratio desc, cost asc, index asc)` can only ever pick the
//!   cheapest, then lowest-index, member of such a class: for a positive
//!   gain `g`, `g / c` never rises as `c` grows, and equal costs fall to the
//!   index. This holds for any costs (Definition 2). A candidate with an
//!   empty window has gain 0 forever and is never picked. So each subset is
//!   represented by that member ([`ScheduleReduction::interval_of`], and
//!   [`ScheduleReduction::candidate_of`] after a family build), and subsets
//!   are kept in increasing candidate order, so every tie between classes
//!   breaks as it would between their members. The greedy over subsets
//!   picks exactly the candidates the greedy over the whole family picks.
//!   On the online path's 131,584-interval grid a few hundred windows are
//!   distinct.
//! * **Window build** — under an
//!   [`inclusion_monotone`](EnergyCost::inclusion_monotone) cost,
//!   [`ScheduleReduction::build_windows`] finds the subsets without the
//!   family. The class of window `a..=b` (interesting slots at times
//!   `t_a < … < t_b` on one processor) is every interval `[s, e)` with
//!   `t_{a−1} < s ≤ t_a` and `t_b < e ≤ t_{b+1}` allowed by the policy
//!   (with `t_{a−1} = −1` and `t_{b+1} = T` at the row's ends).
//!   Each member contains the tight interval `[t_a, t_b + 1)`, so none
//!   costs less, and the class is empty when the tight interval is `∞` or
//!   longer than the policy allows — as is every longer window's, which
//!   ends the scan of windows from `a`. The representative is the first
//!   cheapest member in candidate order `(start, end)`: a member with start
//!   `t_a` and a later end may tie but comes later, and a member starting
//!   further left contains the left extension `[t_a − 1, t_b + 1)`. One
//!   call pricing that extension certifies the tight interval when it
//!   costs strictly more. When it ties (a zero rate or price, a restart so
//!   large that adding the rate rounds away), cost is non-increasing in
//!   the start, so the tying starts form a range, and a scan leftwards to
//!   `t_{a−1} + 1` or the length cap finds its lowest: the representative
//!   is `[s_min, t_b + 1)`. Windows come out in candidate order except
//!   after such a tie, where the family build's sort and run split apply.
//!   The build prices `O(Σₚ kₚ²)` intervals for `kₚ` interesting slots on
//!   processor `p`, where the family has `O(p·T²)`, and equals
//!   [`ScheduleReduction::build`] over the enumerated family field for
//!   field.
//! * **Prefix runs** — subsets whose windows start at the same interesting
//!   slot, in increasing length, are nested prefixes.
//!   [`ScheduleReduction::runs`] records those maximal chains; a full scan
//!   then evaluates each chain with **one** incremental
//!   [`bmatch::MatchingOracle::gain_prefixes`] pass (`O(L)` slot
//!   augmentations for `L` nested subsets instead of `O(L²)`), emitting
//!   bit-identical gains.
//! * **Runs are the lazy greedy's groups** — [`ScheduleObjective`] declares
//!   its runs through [`BudgetedObjective::groups`], so the lazy heap holds
//!   one entry per run, keyed by its best member. A stale pop refreshes all
//!   run-mates with one pass and re-keys the run once, instead of sending
//!   each run-mate through the heap to replay its memoized gain.
//! * **Component-memoized gains** — slots are partitioned into connected
//!   components of the slot–job graph. The matching-rank utility decomposes
//!   over components, so a run's exact gains can only change when a commit
//!   touches one of *its* components. [`ScheduleObjective`] version-stamps
//!   components on mutation and replays a run's cached gains when no stamp
//!   on the run moved since its last pass — sound, and bit-identical by
//!   construction.
//! * **Bounded first keys** — the greedy's first keys read the memo where a
//!   run's memo is current. Every other subset's first key is an upper
//!   bound, `min(|slots_of(k)|, J_k)` times the oracle's largest job value,
//!   where `J_k` counts the jobs of the components subset `k`'s window
//!   touches. Each successful augment saturates exactly one more job, in
//!   the component of the slot it started from (an augmenting path never
//!   leaves its component), so the window can saturate at most
//!   `|slots_of(k)|` jobs and at most `J_k`. The build counts jobs per
//!   component, and the component walk that records each subset's prefix
//!   stores that minimum beside it, so a first key is one load. No solve
//!   runs a full gain scan, and a run is evaluated only when its bound
//!   reaches the top of the lazy heap (see `submodular::budgeted`, "Initial
//!   keys may be upper bounds").
//! * **Saturated runs** — [`ScheduleObjective`] counts each component's
//!   unmatched jobs, decrementing on every committed slot whose augment
//!   succeeds. Once every component a run touches has none left, no
//!   augmenting path can start in the run's windows, now or after any
//!   later commit (the matching only grows), so each member's gain is
//!   exactly 0: a stale run in that state is answered without a pass and
//!   stays current for the rest of the solve. The check runs only when some
//!   component has saturated since the run's last evaluation, so a stale
//!   run's common path stays `O(1)`.

use std::sync::atomic::{AtomicU64, Ordering};

use bmatch::{BipartiteGraph, BipartiteGraphBuilder, GainScratch, MatchingOracle};
use submodular::BudgetedObjective;

use crate::candidates::{CandidateInterval, CandidatePolicy};
use crate::cost::EnergyCost;
use crate::model::{Instance, Schedule};

/// Distinguishes objectives so a reused scratch never replays memoized gains
/// computed against a different objective.
static OBJECTIVE_TOKENS: AtomicU64 = AtomicU64::new(1);

/// The slot–job bipartite graph plus one subset per distinct nonempty
/// candidate window (see the [module docs](self) for the layout and the
/// exactness argument).
///
/// Built once per solve from an explicit family
/// ([`ScheduleReduction::build`]), or straight from the slot windows under
/// an inclusion-monotone cost ([`ScheduleReduction::build_windows`]), which
/// a [`crate::Solver`] keeps and rebuilds in place from call to call;
/// borrowed by [`ScheduleObjective`].
#[derive(Clone, Debug)]
pub struct ScheduleReduction {
    /// `X` = dense slot ids (`proc · horizon + time`), `Y` = jobs.
    pub graph: BipartiteGraph,
    /// Slots per processor row of the dense slot ids.
    horizon: u32,
    /// All *interesting* slot ids (degree > 0) in increasing dense order —
    /// the single shared arena every window is a range of.
    islots: Vec<u32>,
    /// `prefix[x]` = number of interesting slots with dense id `< x`, for
    /// `x` in `0..=nx`: interval `[s, e)` on processor `p` has the window
    /// `prefix[p·T + s]..prefix[p·T + e]` of `islots`.
    prefix: Vec<u32>,
    /// After a family build, the candidate index of each subset: the
    /// cheapest, then lowest-index, candidate with the subset's window.
    /// Strictly increasing. Empty after a window build, which has no
    /// family to index.
    cand: Vec<u32>,
    /// Cost of each subset: that of its class's cheapest, then first in
    /// candidate order, member.
    costs: Vec<f64>,
    /// `(start, end)` of that member; its processor is its window's.
    spans: Vec<(u32, u32)>,
    /// Window length of each subset; the window starts at its run's offset.
    len: Vec<u32>,
    /// Maximal subset ranges `[lo, hi)` whose windows form nested prefixes
    /// (same first interesting slot, increasing length).
    runs: Vec<(u32, u32)>,
    /// Per run: the offset of its windows into `islots`, and the start of
    /// its component sequence in `comp_arena`.
    run_base: Vec<(u32, u32)>,
    /// Row-major arena of connected-component ids, one sequence per window
    /// group in first-slot order and deduped — every subset's component set
    /// is a **prefix** of its run's sequence (its window is a prefix of the
    /// group's longest).
    comp_arena: Vec<u32>,
    /// Per-subset prefix length into its run's component sequence.
    comp_len: Vec<u32>,
    /// Per subset: the most jobs its window can newly saturate, the smaller
    /// of its length and `J_k`, the jobs of the components it touches.
    saturable: Vec<u32>,
    /// Number of distinct connected components.
    num_comps: u32,
    /// Component id of each interesting slot, by its position in `islots`.
    comp_of_islot: Vec<u32>,
    /// Jobs per component (a job with no allowed slot is in none).
    comp_jobs: Vec<u32>,
    /// Retained union-find, densification and grouping buffers, so
    /// [`ScheduleReduction::apply_delta_windows`] reuses the allocations of
    /// the previous build.
    scratch: RebuildScratch,
}

/// Working buffers for the rebuild, retained across deltas.
#[derive(Clone, Debug, Default)]
struct RebuildScratch {
    uf: Vec<u32>,
    dense: Vec<u32>,
    /// Group epoch at which each component was last pushed to the arena.
    comp_seen: Vec<u32>,
    /// Window groups finished so far in this build: the next group's epoch.
    groups: u32,
    /// Subset of the current window group with each window length, or
    /// `u32::MAX`; all `u32::MAX` between groups.
    by_len: Vec<u32>,
    /// Subset rows of a group that came out of candidate order.
    sort_buf: Vec<SortRow>,
}

/// A subset row while its group is sorted: `(order key, span, cost,
/// length, component prefix, saturable jobs)`.
type SortRow = (u64, (u32, u32), f64, u32, u32, u32);

impl ScheduleReduction {
    /// A reduction of nothing, for the builds to fill.
    fn empty() -> Self {
        Self {
            graph: BipartiteGraphBuilder::new(0, 0).build(),
            horizon: 0,
            islots: Vec::new(),
            prefix: Vec::new(),
            cand: Vec::new(),
            costs: Vec::new(),
            spans: Vec::new(),
            len: Vec::new(),
            runs: Vec::new(),
            run_base: Vec::new(),
            comp_arena: Vec::new(),
            comp_len: Vec::new(),
            saturable: Vec::new(),
            num_comps: 0,
            comp_of_islot: Vec::new(),
            comp_jobs: Vec::new(),
            scratch: RebuildScratch::default(),
        }
    }

    /// Builds the reduction for `inst` and the given candidate family.
    pub fn build(inst: &Instance, candidates: &[CandidateInterval]) -> Self {
        let _span = sched_obs::span!("core.reduction.build_ns");
        let mut red = Self::empty();
        red.rebuild_graph(inst);
        red.build_subsets(candidates);
        red.record_build(candidates.len());
        red
    }

    /// Builds the reduction straight from `inst`'s slot windows, pricing
    /// one tight interval per window through `cost`: field-for-field what
    /// [`ScheduleReduction::build`] makes of
    /// `enumerate_candidates(inst, cost, policy)`, except that no
    /// [`ScheduleReduction::candidate_of`] column exists. See "Window
    /// build" in the [module docs](self).
    ///
    /// # Panics
    /// Panics if `cost` does not declare
    /// [`EnergyCost::inclusion_monotone`], or, as enumeration does, if it
    /// prices a subset's interval at a non-positive or NaN cost.
    pub fn build_windows(inst: &Instance, cost: &dyn EnergyCost, policy: CandidatePolicy) -> Self {
        let _span = sched_obs::span!("core.reduction.build_ns");
        let mut red = Self::empty();
        red.rebuild_windows(inst, cost, policy);
        red
    }

    /// Applies a job delta: [`ScheduleReduction::build_windows`] for the new
    /// instance **in place**, reusing the retained allocations. Subsets
    /// depend on which slots are job-adjacent, so every row is rebuilt, and
    /// every representative is re-priced through `cost`, so nothing from
    /// the previous build can go stale: the result is field-for-field
    /// `build_windows(inst, cost, policy)`.
    pub fn apply_delta_windows(
        &mut self,
        inst: &Instance,
        cost: &dyn EnergyCost,
        policy: CandidatePolicy,
    ) {
        let _span = sched_obs::span!("core.reduction.apply_delta_ns");
        self.rebuild_windows(inst, cost, policy);
    }

    /// The subset half of [`ScheduleReduction::apply_delta_windows`]: every
    /// window re-priced through `cost`, keeping the graph, the slot arena
    /// and the components. Only for `inst` equal to the instance this
    /// reduction was last built for, whose job side they already are.
    pub(crate) fn reprice_windows(
        &mut self,
        inst: &Instance,
        cost: &dyn EnergyCost,
        policy: CandidatePolicy,
    ) {
        let _span = sched_obs::span!("core.reduction.apply_delta_ns");
        debug_assert_eq!(self.graph.ny() as usize, inst.num_jobs());
        self.price_windows(inst.num_processors, cost, policy);
    }

    /// The shared rebuild behind [`ScheduleReduction::build_windows`] and
    /// [`ScheduleReduction::apply_delta_windows`].
    fn rebuild_windows(&mut self, inst: &Instance, cost: &dyn EnergyCost, policy: CandidatePolicy) {
        self.rebuild_graph(inst);
        self.price_windows(inst.num_processors, cost, policy);
    }

    /// The subsets of a window build over the current job side.
    fn price_windows(
        &mut self,
        num_processors: u32,
        cost: &dyn EnergyCost,
        policy: CandidatePolicy,
    ) {
        assert!(
            cost.inclusion_monotone(),
            "the window build needs an inclusion-monotone cost"
        );
        let priced = self.build_window_subsets(num_processors, cost, policy);
        self.record_build(priced);
    }

    /// Counts a finished build: `intervals` is the work it did on the
    /// interval side, the candidates walked or the oracle calls made.
    fn record_build(&self, intervals: usize) {
        sched_obs::counter_add("core.reduction.intervals", intervals as u64);
        sched_obs::counter_add("core.reduction.subsets", self.costs.len() as u64);
        if sched_obs::trace::enabled() {
            sched_obs::trace::instant(
                "core.reduction.subsets",
                vec![
                    ("intervals", intervals.into()),
                    ("subsets", self.costs.len().into()),
                ],
            );
        }
    }

    /// The job side of every build: graph, interesting slots and their
    /// prefix counts, and connected components, written into the retained
    /// buffers.
    fn rebuild_graph(&mut self, inst: &Instance) {
        let mut b = BipartiteGraphBuilder::new(inst.num_slots(), inst.num_jobs() as u32);
        for (jid, job) in inst.jobs.iter().enumerate() {
            for &s in &job.allowed {
                b.add_edge(inst.slot_id(s), jid as u32);
            }
        }
        self.graph = b.build();
        self.horizon = inst.horizon;
        let graph = &self.graph;

        // interesting slots (degree > 0) and their prefix counts
        let nx = graph.nx() as usize;
        self.islots.clear();
        self.prefix.clear();
        self.prefix.reserve(nx + 1);
        for x in 0..graph.nx() {
            self.prefix.push(self.islots.len() as u32);
            if graph.deg_x(x) > 0 {
                self.islots.push(x);
            }
        }
        self.prefix.push(self.islots.len() as u32);

        // connected components of the slot–job graph, via union-find over
        // each job's adjacent slots
        let uf = &mut self.scratch.uf;
        uf.clear();
        uf.extend(0..graph.nx());
        fn find(uf: &mut [u32], x: u32) -> u32 {
            let mut r = x;
            while uf[r as usize] != r {
                r = uf[r as usize];
            }
            let mut c = x;
            while uf[c as usize] != r {
                let next = uf[c as usize];
                uf[c as usize] = r;
                c = next;
            }
            r
        }
        for y in 0..graph.ny() {
            let adj = graph.adj_y(y);
            if let Some(&first) = adj.first() {
                let root = find(uf, first);
                for &x in &adj[1..] {
                    let r = find(uf, x);
                    uf[r as usize] = root;
                }
            }
        }
        // densify component ids over interesting slots
        let dense = &mut self.scratch.dense;
        dense.clear();
        dense.resize(nx, u32::MAX);
        let comp_of_islot = &mut self.comp_of_islot;
        comp_of_islot.clear();
        let mut num_comps = 0u32;
        for &x in &self.islots {
            let root = find(uf, x);
            if dense[root as usize] == u32::MAX {
                dense[root as usize] = num_comps;
                num_comps += 1;
            }
            comp_of_islot.push(dense[root as usize]);
        }
        self.num_comps = num_comps;

        // jobs per component, by each job's first slot (an interesting one,
        // so `prefix` gives its arena position)
        self.comp_jobs.clear();
        self.comp_jobs.resize(num_comps as usize, 0);
        for y in 0..graph.ny() {
            if let Some(&x) = graph.adj_y(y).first() {
                let c = comp_of_islot[self.prefix[x as usize] as usize];
                self.comp_jobs[c as usize] += 1;
            }
        }
    }

    /// Clears the subset columns for a new build and sizes the group
    /// buffers; `cap` reserves room for that many subsets.
    fn begin_subsets(&mut self, cap: usize) {
        let k = self.islots.len();
        for col in [&mut self.len, &mut self.comp_len, &mut self.saturable] {
            col.clear();
            col.reserve(cap);
        }
        self.cand.clear();
        self.costs.clear();
        self.costs.reserve(cap);
        self.spans.clear();
        self.spans.reserve(cap);
        self.runs.clear();
        self.run_base.clear();
        self.comp_arena.clear();
        let scratch = &mut self.scratch;
        scratch.comp_seen.clear();
        scratch.comp_seen.resize(self.num_comps as usize, u32::MAX);
        scratch.groups = 0;
        scratch.by_len.clear();
        scratch.by_len.resize(k + 1, u32::MAX);
    }

    /// One pass over the candidates, one *window group* at a time: the
    /// consecutive candidates on one processor whose windows start at the
    /// same interesting slot. A window length met for the first time emits
    /// a subset; a cheaper twin re-points it in place. The group is then
    /// finished by [`ScheduleReduction::finish_group`].
    fn build_subsets(&mut self, candidates: &[CandidateInterval]) {
        // Distinct nonempty windows: at most one per (offset, length) pair.
        let k = self.islots.len();
        let cap = candidates.len().min(k * (k + 1) / 2);
        self.begin_subsets(cap);
        self.cand.reserve(cap);
        let mut i = 0;
        while i < candidates.len() {
            let Self {
                horizon,
                prefix,
                cand,
                costs,
                spans,
                len: lens,
                comp_len,
                saturable,
                scratch,
                ..
            } = self;
            let by_len = &mut scratch.by_len;
            let first = &candidates[i];
            let prefix = &prefix[(first.proc * *horizon) as usize..];
            let off = prefix[first.start as usize];
            let lo = costs.len();
            let mut max_len = 0;
            while let Some(c) = candidates.get(i) {
                if c.proc != first.proc || prefix[c.start as usize] != off {
                    break;
                }
                let l = prefix[c.end as usize] - off;
                if l > 0 {
                    let s = &mut by_len[l as usize];
                    if *s == u32::MAX {
                        *s = costs.len() as u32;
                        cand.push(i as u32);
                        costs.push(c.cost);
                        spans.push((c.start, c.end));
                        lens.push(l);
                        comp_len.push(0);
                        saturable.push(0);
                        max_len = max_len.max(l);
                    } else if c.cost < costs[*s as usize] {
                        cand[*s as usize] = i as u32;
                        costs[*s as usize] = c.cost;
                        spans[*s as usize] = (c.start, c.end);
                    }
                }
                i += 1;
            }
            if costs.len() > lo {
                self.finish_group(lo, off, max_len);
            }
        }
    }

    /// The window build: for each processor and each interesting slot `a`
    /// on it, the windows `a..=b` for `b = a, a + 1, …`, each represented by
    /// the first in candidate order of its cheapest members (see "Window
    /// build" in the [module docs](self)). Returns the oracle calls made.
    fn build_window_subsets(
        &mut self,
        num_processors: u32,
        cost: &dyn EnergyCost,
        policy: CandidatePolicy,
    ) -> usize {
        let t = self.horizon;
        // the longest interval the policy allows, in slots
        let cap = match policy {
            CandidatePolicy::All => t,
            CandidatePolicy::MaxLength(k) => k,
            CandidatePolicy::SingleSlots => 1,
        };
        self.begin_subsets(0);
        let mut calls = 0;
        let mut price = |proc, start, end| {
            calls += 1;
            cost.cost(proc, start, end)
        };
        for proc in 0..num_processors {
            let row = proc * t;
            let first = self.prefix[row as usize];
            let last = self.prefix[(row + t) as usize];
            for a in first..last {
                let start_a = self.islots[a as usize] - row;
                // the window's class starts past the previous interesting slot
                let lowest_start = if a > first {
                    self.islots[a as usize - 1] - row + 1
                } else {
                    0
                };
                let lo = self.costs.len();
                for b in a..last {
                    let end = self.islots[b as usize] - row + 1;
                    // Every member of this window's class, and of every
                    // longer window's, contains [start_a, end).
                    if end - start_a > cap {
                        break;
                    }
                    let c = price(proc, start_a, end);
                    if c.is_infinite() {
                        break;
                    }
                    assert!(
                        c > 0.0 && c.is_finite(),
                        "cost oracle returned invalid cost {c} for ({proc}, [{start_a},{end}))"
                    );
                    // Members starting further left contain the left
                    // extension: they cost more unless it ties.
                    let mut start = start_a;
                    while start > lowest_start && end - (start - 1) <= cap {
                        let left = price(proc, start - 1, end);
                        debug_assert!(left >= c, "cost is not inclusion-monotone");
                        if left != c {
                            break;
                        }
                        start -= 1;
                    }
                    let l = b - a + 1;
                    self.scratch.by_len[l as usize] = self.costs.len() as u32;
                    self.costs.push(c);
                    self.spans.push((start, end));
                    self.len.push(l);
                    self.comp_len.push(0);
                    self.saturable.push(0);
                }
                let len = (self.costs.len() - lo) as u32;
                if len > 0 {
                    self.finish_group(lo, a, len);
                }
            }
        }
        calls
    }

    /// Finishes the window group of subsets `lo..` (windows starting at
    /// `islots[off]`, the longest `max_len` interesting slots long, and
    /// `by_len` pointing each length at its subset). One walk over the
    /// longest window records its component sequence, every subset's prefix
    /// of it, and the jobs each subset can saturate. A group whose subsets
    /// came out of candidate order (costs that fall along a run, families
    /// with holes, ties that move a representative's start left) is sorted
    /// and split into nested-prefix runs; any other group is one run.
    fn finish_group(&mut self, lo: usize, off: u32, max_len: u32) {
        let hi = self.costs.len();
        let Self {
            cand,
            costs,
            spans,
            len: lens,
            runs,
            run_base,
            comp_arena,
            comp_len,
            saturable,
            comp_of_islot,
            comp_jobs,
            scratch,
            ..
        } = self;
        let RebuildScratch {
            comp_seen,
            groups,
            by_len,
            sort_buf,
            ..
        } = scratch;
        // Candidate order within the group: the candidate index after a
        // family build; after a window build (no candidate column), the
        // interval's (start, end), since a group lies on one processor.
        let key = |s: usize| match cand.get(s) {
            Some(&c) => u64::from(c),
            None => u64::from(spans[s].0) << 32 | u64::from(spans[s].1),
        };

        // Walk the group's longest window once. Visiting lengths in
        // increasing order also checks that the group is in candidate
        // order: subset indices and order keys must both increase.
        let comp_base = comp_arena.len() as u32;
        let mut next = lo;
        let mut in_order = true;
        let mut jobs = 0;
        for p in 0..max_len {
            let c = comp_of_islot[(off + p) as usize];
            if comp_seen[c as usize] != *groups {
                comp_seen[c as usize] = *groups;
                comp_arena.push(c);
                jobs += comp_jobs[c as usize];
            }
            let s = std::mem::replace(&mut by_len[p as usize + 1], u32::MAX);
            if s != u32::MAX {
                let s = s as usize;
                comp_len[s] = comp_arena.len() as u32 - comp_base;
                saturable[s] = jobs.min(p + 1);
                in_order &= s == next && (s == lo || key(s - 1) < key(s));
                next += 1;
            }
        }
        *groups += 1;

        if in_order {
            runs.push((lo as u32, hi as u32));
            run_base.push((off, comp_base));
            return;
        }
        sort_buf.clear();
        sort_buf.extend((lo..hi).map(|s| {
            (
                key(s),
                spans[s],
                costs[s],
                lens[s],
                comp_len[s],
                saturable[s],
            )
        }));
        sort_buf.sort_unstable_by_key(|row| row.0);
        for (s, &(k, span, cost, l, cl, sat)) in (lo..hi).zip(sort_buf.iter()) {
            if let Some(c) = cand.get_mut(s) {
                *c = k as u32;
            }
            spans[s] = span;
            costs[s] = cost;
            lens[s] = l;
            comp_len[s] = cl;
            saturable[s] = sat;
        }
        let mut run_lo = lo;
        for s in lo + 1..=hi {
            if s == hi || lens[s] <= lens[s - 1] {
                runs.push((run_lo as u32, s as u32));
                run_base.push((off, comp_base));
                run_lo = s;
            }
        }
    }

    /// Number of subsets: distinct nonempty candidate windows.
    #[inline]
    pub fn num_subsets(&self) -> usize {
        self.costs.len()
    }

    /// The candidate subset `k` stands for, by its index in the family
    /// this reduction was built from: the cheapest, then lowest-index,
    /// candidate with its window. Strictly increasing in `k`.
    ///
    /// # Panics
    /// Panics after [`ScheduleReduction::build_windows`], which indexes no
    /// family; [`ScheduleReduction::interval_of`] names the interval on
    /// either build.
    #[inline]
    pub fn candidate_of(&self, k: usize) -> usize {
        self.cand[k] as usize
    }

    /// The interval subset `k` stands for, with its cost: the cheapest,
    /// then first in candidate order, interval with its window.
    pub fn interval_of(&self, k: usize) -> CandidateInterval {
        self.interval_in_run(self.run_of(k), k)
    }

    /// Every subset's interval ([`ScheduleReduction::interval_of`]), in
    /// subset order.
    #[cfg(test)]
    fn intervals(&self) -> impl Iterator<Item = CandidateInterval> + '_ {
        self.runs
            .iter()
            .enumerate()
            .flat_map(move |(r, &(lo, hi))| {
                (lo..hi).map(move |k| self.interval_in_run(r, k as usize))
            })
    }

    /// The interval of subset `k` of run `r`: its span, on the processor
    /// of the run's windows.
    fn interval_in_run(&self, r: usize, k: usize) -> CandidateInterval {
        let (start, end) = self.spans[k];
        CandidateInterval {
            proc: self.islots[self.run_base[r].0 as usize] / self.horizon,
            start,
            end,
            cost: self.costs[k],
        }
    }

    /// The (job-adjacent) slot ids of subset `k`'s window, shared by every
    /// candidate of its class.
    #[inline]
    pub fn slots_of(&self, k: usize) -> &[u32] {
        self.window_in_run(self.run_of(k), k)
    }

    /// Cost of subset `k`: the cost of
    /// [`ScheduleReduction::interval_of`].
    #[inline]
    pub fn cost_of(&self, k: usize) -> f64 {
        self.costs[k]
    }

    /// The (job-adjacent) slot ids of any interval on this reduction's grid,
    /// read from the prefix counts — the per-candidate view, for callers
    /// that index the candidate family rather than the subsets.
    #[inline]
    pub fn interval_slots(&self, iv: &CandidateInterval) -> &[u32] {
        let row = (iv.proc * self.horizon) as usize;
        let lo = self.prefix[row + iv.start as usize] as usize;
        let hi = self.prefix[row + iv.end as usize] as usize;
        &self.islots[lo..hi]
    }

    /// Maximal nested-prefix subset ranges (see the module docs).
    #[inline]
    pub fn runs(&self) -> &[(u32, u32)] {
        &self.runs
    }

    /// The run containing subset `k`.
    #[inline]
    fn run_of(&self, k: usize) -> usize {
        self.runs.partition_point(|&(_, hi)| hi as usize <= k)
    }

    /// The window of subset `k` of run `r`.
    #[inline]
    fn window_in_run(&self, r: usize, k: usize) -> &[u32] {
        let off = self.run_base[r].0 as usize;
        &self.islots[off..off + self.len[k] as usize]
    }

    /// Connected-component ids touched by any subset of run `r` — the
    /// prefix its longest member touches.
    #[inline]
    fn comps_of_run(&self, r: usize) -> &[u32] {
        self.comps_in_run(r, self.runs[r].1 as usize - 1)
    }

    /// Connected-component ids subset `k` of run `r` touches — the
    /// length-`comp_len[k]` prefix of the run's component sequence.
    #[inline]
    fn comps_in_run(&self, r: usize, k: usize) -> &[u32] {
        let base = self.run_base[r].1 as usize;
        &self.comp_arena[base..base + self.comp_len[k] as usize]
    }
}

/// A copy of a window-built reduction's subset columns — runs, run bases,
/// window lengths, spans and cost bits — in buffers retained across
/// solves. Over the same job side, equal columns mean an identical
/// reduction and so an identical solve.
#[derive(Debug, Default)]
pub(crate) struct SubsetColumns {
    runs: Vec<(u32, u32)>,
    run_base: Vec<(u32, u32)>,
    len: Vec<u32>,
    spans: Vec<(u32, u32)>,
    costs: Vec<f64>,
}

impl SubsetColumns {
    /// Overwrites the copy with `red`'s columns.
    pub(crate) fn record(&mut self, red: &ScheduleReduction) {
        self.runs.clone_from(&red.runs);
        self.run_base.clone_from(&red.run_base);
        self.len.clone_from(&red.len);
        self.spans.clone_from(&red.spans);
        self.costs.clone_from(&red.costs);
    }

    /// Whether `red`'s columns equal the copy, costs bit for bit.
    pub(crate) fn matches(&self, red: &ScheduleReduction) -> bool {
        self.runs == red.runs
            && self.run_base == red.run_base
            && self.len == red.len
            && self.spans == red.spans
            && self.costs.len() == red.costs.len()
            && (self.costs.iter().zip(&red.costs)).all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// Per-thread scratch for [`ScheduleObjective`]: overlay matching workspace
/// plus the component-version gain memo.
pub struct ObjectiveScratch {
    gain: GainScratch,
    /// Objective token the memo below was filled against.
    memo_token: u64,
    /// Version at which run `r` was last evaluated (0 = never), or
    /// [`SATURATED`].
    run_eval: Vec<u64>,
    /// Cached raw gain of subset `k` (valid iff its run's `run_eval`
    /// covers the run's latest component stamp).
    memo_val: Vec<f64>,
    /// Cumulative-gain buffer for prefix scans.
    cum: Vec<f64>,
    /// Memo telemetry: subsets served from the memo, recomputed, or
    /// answered 0 because their run saturated, as plain fields so the hot
    /// loops pay no atomics. Flushed to the ambient registry once per solve
    /// by `schedule_all`.
    memo_hits: u64,
    memo_misses: u64,
    memo_saturated: u64,
}

impl Default for ObjectiveScratch {
    fn default() -> Self {
        Self {
            gain: GainScratch::new(),
            memo_token: 0,
            run_eval: Vec::new(),
            memo_val: Vec::new(),
            cum: Vec::new(),
            memo_hits: 0,
            memo_misses: 0,
            memo_saturated: 0,
        }
    }
}

impl ObjectiveScratch {
    /// Lifetime `(hits, misses)` of the gain memo: subsets whose gain was
    /// replayed from the memo vs. recomputed through the oracle.
    pub fn memo_counts(&self) -> (u64, u64) {
        (self.memo_hits, self.memo_misses)
    }

    /// Lifetime count of subsets answered 0 without a pass because every
    /// component their run touches had no unmatched job left (see
    /// "Saturated runs" in the [module docs](self)).
    pub fn memo_saturated(&self) -> u64 {
        self.memo_saturated
    }

    /// Lifetime count of adjacency entries examined by the matching
    /// searches of gain evaluations run with this scratch (see
    /// [`GainScratch::edge_visits`]).
    pub fn edge_visits(&self) -> u64 {
        self.gain.edge_visits()
    }

    /// Sizes the memo for `red` and forgets it if it was filled against
    /// another objective.
    fn ensure(&mut self, token: u64, red: &ScheduleReduction) {
        if self.memo_token != token
            || self.memo_val.len() != red.num_subsets()
            || self.run_eval.len() != red.runs().len()
        {
            self.memo_token = token;
            self.run_eval.clear();
            self.run_eval.resize(red.runs().len(), 0);
            self.memo_val.clear();
            self.memo_val.resize(red.num_subsets(), 0.0);
        }
    }
}

/// [`BudgetedObjective`] over the matching rank: `F(S)` = maximum (weighted)
/// value of jobs matchable into the union of committed subset windows.
/// Indices are subsets of the [`ScheduleReduction`]; a chosen subset maps
/// back to its interval through [`ScheduleReduction::interval_of`].
pub struct ScheduleObjective<'r> {
    red: &'r ScheduleReduction,
    oracle: MatchingOracle<'r>,
    /// Identity of this objective, for scratch-memo safety.
    token: u64,
    /// Global commit version; starts at 1, bumped on every mutating commit.
    version: u64,
    /// Per-component version of the last mutating commit that touched it.
    comp_version: Vec<u64>,
    /// Per-component count of jobs the committed matching leaves unmatched.
    unmatched: Vec<u32>,
    /// Version of the last commit that left a component with no unmatched
    /// job (0 = none yet).
    saturated_at: u64,
}

/// The `run_eval` of a run whose components have no unmatched job left: its
/// gains are 0 for the rest of the solve, so its memo stays current.
const SATURATED: u64 = u64::MAX;

impl<'r> ScheduleObjective<'r> {
    /// Cardinality utility (Lemma 2.2.2): every job counts 1.
    pub fn new_cardinality(red: &'r ScheduleReduction) -> Self {
        Self::with_oracle(red, MatchingOracle::new_cardinality(&red.graph))
    }

    /// Weighted utility (Lemma 2.3.2): job `j` counts `values[j] > 0`.
    pub fn new_weighted(red: &'r ScheduleReduction, values: Vec<f64>) -> Self {
        Self::with_oracle(red, MatchingOracle::new(&red.graph, values))
    }

    fn with_oracle(red: &'r ScheduleReduction, oracle: MatchingOracle<'r>) -> Self {
        Self {
            red,
            oracle,
            token: OBJECTIVE_TOKENS.fetch_add(1, Ordering::Relaxed),
            version: 1,
            comp_version: vec![0; red.num_comps as usize],
            unmatched: red.comp_jobs.clone(),
            saturated_at: 0,
        }
    }

    /// Read access to the underlying oracle (matching extraction,
    /// Hall-violator certificates).
    pub fn oracle(&self) -> &MatchingOracle<'r> {
        &self.oracle
    }

    /// Latest version stamped on any component of run `r`: the run's memo
    /// entry, evaluated at version `≥` this, is still exact.
    #[inline]
    fn stamp_of_run(&self, r: usize) -> u64 {
        self.red
            .comps_of_run(r)
            .iter()
            .map(|&c| self.comp_version[c as usize])
            .max()
            .unwrap_or(0)
    }

    /// Re-evaluates every subset of run `r` with one incremental overlay
    /// pass over the run's longest window and memoizes the results: `O(L)`
    /// slot augmentations for the run's `L` nested subsets instead of
    /// `O(L²)`.
    fn refresh_run(&self, r: usize, scratch: &mut ObjectiveScratch) {
        let (lo, hi) = self.red.runs()[r];
        let (lo, hi) = (lo as usize, hi as usize);
        let mut cum = std::mem::take(&mut scratch.cum);
        let longest = self.red.window_in_run(r, hi - 1);
        self.oracle
            .gain_prefixes(longest, &mut scratch.gain, &mut cum);
        for (val, &len) in scratch.memo_val[lo..hi]
            .iter_mut()
            .zip(&self.red.len[lo..hi])
        {
            *val = cum[len as usize - 1];
        }
        scratch.run_eval[r] = self.version;
        scratch.cum = cum;
    }

    /// Whether run `r`'s memoized gains are exact: the run was evaluated
    /// and no component stamp on it moved since.
    #[inline]
    fn memo_current(&self, r: usize, scratch: &ObjectiveScratch) -> bool {
        let eval = scratch.run_eval[r];
        eval != 0 && eval >= self.stamp_of_run(r)
    }

    /// Whether every component run `r` touches has no unmatched job left,
    /// checked only when one saturated since the run's last evaluation.
    #[inline]
    fn run_saturated(&self, r: usize, scratch: &ObjectiveScratch) -> bool {
        self.saturated_at > scratch.run_eval[r]
            && (self.red.comps_of_run(r).iter()).all(|&c| self.unmatched[c as usize] == 0)
    }

    /// Brings run `r`'s memoized gains up to date: replays them when no
    /// component stamp on the run moved since its last pass, writes 0 for
    /// every member when the run saturated, else runs one pass. Every
    /// member counts as one memo hit, saturated answer or miss.
    fn fresh_run(&self, r: usize, scratch: &mut ObjectiveScratch) {
        let (lo, hi) = self.red.runs()[r];
        let members = u64::from(hi - lo);
        if self.memo_current(r, scratch) {
            scratch.memo_hits += members;
        } else if self.run_saturated(r, scratch) {
            scratch.memo_saturated += members;
            scratch.memo_val[lo as usize..hi as usize].fill(0.0);
            scratch.run_eval[r] = SATURATED;
        } else {
            scratch.memo_misses += members;
            self.refresh_run(r, scratch);
        }
    }

    /// Extracts the schedule corresponding to the chosen subset indices
    /// (each mapped to its interval through
    /// [`ScheduleReduction::interval_of`]) and the oracle's current
    /// maximum matching.
    ///
    /// `_candidates` is not read: every subset carries its interval, also
    /// after a window build. It stays for callers written against the
    /// family build.
    pub fn extract_schedule(
        &self,
        inst: &Instance,
        _candidates: &[CandidateInterval],
        chosen: &[usize],
    ) -> Schedule {
        let awake: Vec<CandidateInterval> =
            chosen.iter().map(|&k| self.red.interval_of(k)).collect();
        let mut assignments = vec![None; inst.num_jobs()];
        let mut value = 0.0;
        let mut count = 0usize;
        for (slot_id, job) in self.oracle.matching() {
            assignments[job as usize] = Some(inst.slot_ref(slot_id));
            value += inst.jobs[job as usize].value;
            count += 1;
        }
        let total_cost = awake.iter().map(|iv| iv.cost).sum();
        Schedule {
            awake,
            assignments,
            total_cost,
            scheduled_value: value,
            scheduled_count: count,
        }
    }
}

impl BudgetedObjective for ScheduleObjective<'_> {
    type Scratch = ObjectiveScratch;

    fn num_subsets(&self) -> usize {
        self.red.num_subsets()
    }

    fn cost(&self, i: usize) -> f64 {
        self.red.cost_of(i)
    }

    fn current(&self) -> f64 {
        self.oracle.total()
    }

    fn gain(&self, i: usize, scratch: &mut Self::Scratch) -> f64 {
        scratch.ensure(self.token, self.red);
        self.fresh_run(self.red.run_of(i), scratch);
        scratch.memo_val[i]
    }

    fn groups(&self) -> &[(u32, u32)] {
        self.red.runs()
    }

    fn group_gains(&self, lo: usize, scratch: &mut Self::Scratch, out: &mut [f64]) {
        scratch.ensure(self.token, self.red);
        let r = self.red.run_of(lo);
        debug_assert_eq!(self.red.runs()[r], (lo as u32, (lo + out.len()) as u32));
        self.fresh_run(r, scratch);
        out.copy_from_slice(&scratch.memo_val[lo..lo + out.len()]);
    }

    fn commit(&mut self, i: usize) -> f64 {
        let r = self.red.run_of(i);
        let before = self.oracle.revision();
        // `MatchingOracle::commit`, slot by slot: a successful augment
        // saturates one more job, in the component of the slot it started
        // from
        let off = self.red.run_base[r].0 as usize;
        let mut gain = 0.0;
        let mut saturated = false;
        for (p, &x) in self.red.window_in_run(r, i).iter().enumerate() {
            let g = self.oracle.add_slot(x);
            if g > 0.0 {
                let left = &mut self.unmatched[self.red.comp_of_islot[off + p] as usize];
                *left -= 1;
                saturated |= *left == 0;
            }
            gain += g;
        }
        let mutated = self.oracle.revision() != before;
        let comps = self.red.comps_in_run(r, i);
        if mutated {
            // the matching mutated: gains of subsets sharing a component
            // may have changed; everyone else's memo stays exact (the
            // matching rank decomposes over components, and zero-mutation
            // growth of S provably never moves any gain — see
            // `MatchingOracle::revision`)
            self.version += 1;
            for &c in comps {
                self.comp_version[c as usize] = self.version;
            }
            if saturated {
                self.saturated_at = self.version;
            }
        }
        if sched_obs::trace::enabled() {
            let iv = self.red.interval_in_run(r, i);
            sched_obs::trace::instant(
                "core.commit",
                vec![
                    ("subset", i.into()),
                    ("proc", iv.proc.into()),
                    ("start", iv.start.into()),
                    ("end", iv.end.into()),
                    ("gain", gain.into()),
                    ("mutated", u64::from(mutated).into()),
                    (
                        "component",
                        comps.first().map_or(-1i64, |&c| i64::from(c)).into(),
                    ),
                    ("components", comps.len().into()),
                ],
            );
        }
        gain
    }

    fn scan_gains(&self, _parallel: bool, scratch: &mut Self::Scratch, out: &mut Vec<f64>) {
        let _span = sched_obs::span!("core.objective.scan_gains_ns");
        scratch.ensure(self.token, self.red);
        for r in 0..self.red.runs().len() {
            self.fresh_run(r, scratch);
        }
        out.clear();
        out.extend_from_slice(&scratch.memo_val);
    }

    /// Exact memoized gains for the runs whose memo is current, and
    /// `min(|slots_of(k)|, J_k) ×` [`MatchingOracle::max_value`] for every
    /// other subset, `J_k` being the jobs of the components its window
    /// touches: each slot's augment saturates at most one more job, of its
    /// own component. Reads no matching.
    fn first_values(
        &self,
        scratch: &mut Self::Scratch,
        out: &mut Vec<f64>,
        bounded: &mut Vec<u32>,
    ) {
        scratch.ensure(self.token, self.red);
        let max_value = self.oracle.max_value();
        out.clear();
        out.reserve(self.red.num_subsets());
        bounded.clear();
        for (r, &(lo, hi)) in self.red.runs().iter().enumerate() {
            let (lo, hi) = (lo as usize, hi as usize);
            if self.memo_current(r, scratch) {
                scratch.memo_hits += (hi - lo) as u64;
                out.extend_from_slice(&scratch.memo_val[lo..hi]);
            } else {
                let saturable = &self.red.saturable[lo..hi];
                out.extend(saturable.iter().map(|&n| n as f64 * max_value));
                bounded.push(r as u32);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{enumerate_candidates, CandidatePolicy};
    use crate::cost::AffineCost;
    use crate::model::{Instance, Job};
    use submodular::{budgeted_greedy, GreedyConfig};

    fn two_job_instance() -> Instance {
        Instance::new(
            1,
            4,
            vec![Job::window(1.0, 0, 0, 2), Job::window(1.0, 0, 2, 4)],
        )
    }

    #[test]
    fn reduction_shapes() {
        let inst = two_job_instance();
        let cands = enumerate_candidates(&inst, &AffineCost::new(1.0, 1.0), CandidatePolicy::All);
        let red = ScheduleReduction::build(&inst, &cands);
        assert_eq!(red.graph.nx(), 4);
        assert_eq!(red.graph.ny(), 2);
        // every slot is job-adjacent, so every interval's window is
        // distinct: one subset per candidate, in candidate order
        assert_eq!(red.num_subsets(), cands.len());
        assert!((0..cands.len()).all(|k| red.candidate_of(k) == k));
        // one run per first interesting slot
        assert_eq!(red.runs().len(), 4);
        assert_eq!(
            red.runs()
                .iter()
                .map(|&(l, h)| (h - l) as usize)
                .sum::<usize>(),
            cands.len()
        );
    }

    #[test]
    fn degree_zero_slots_filtered() {
        // job only at t=0; interval [0,3) contributes just slot 0 to the list
        let inst = Instance::new(1, 3, vec![Job::window(1.0, 0, 0, 1)]);
        let cands = vec![CandidateInterval {
            proc: 0,
            start: 0,
            end: 3,
            cost: 4.0,
        }];
        let red = ScheduleReduction::build(&inst, &cands);
        assert_eq!(red.slots_of(0), &[0]);
    }

    #[test]
    fn scan_gains_matches_individual_gains() {
        let inst = Instance::new(
            2,
            6,
            vec![
                Job::window(1.0, 0, 0, 3),
                Job::window(1.0, 0, 2, 5),
                Job::window(1.0, 1, 1, 4),
                Job::window(1.0, 1, 3, 6),
            ],
        );
        let cands = enumerate_candidates(&inst, &AffineCost::new(2.0, 1.0), CandidatePolicy::All);
        let red = ScheduleReduction::build(&inst, &cands);
        let mut obj = ScheduleObjective::new_cardinality(&red);
        // also after a few commits, so the overlay starts from a non-empty
        // matching
        for round in 0..3 {
            let mut scanned = Vec::new();
            let mut scratch = ObjectiveScratch::default();
            obj.scan_gains(false, &mut scratch, &mut scanned);
            let mut fresh = ObjectiveScratch::default();
            for (i, &scan) in scanned.iter().enumerate() {
                assert_eq!(
                    scan,
                    obj.gain(i, &mut fresh),
                    "round {round}, candidate {i}"
                );
            }
            // the scan leaves every run's memo current: the first values
            // replay it exactly and bound nothing
            let (mut first, mut bounded) = (Vec::new(), Vec::new());
            obj.first_values(&mut scratch, &mut first, &mut bounded);
            assert_eq!(first, scanned, "round {round}");
            assert!(bounded.is_empty(), "round {round}");
            obj.commit(round * 7 % red.num_subsets());
        }
    }

    #[test]
    fn memo_replays_only_untouched_components() {
        // two processors with disjoint job sets => two components
        let inst = Instance::new(
            2,
            4,
            vec![Job::window(1.0, 0, 0, 2), Job::window(1.0, 1, 2, 4)],
        );
        let cands = enumerate_candidates(&inst, &AffineCost::new(1.0, 1.0), CandidatePolicy::All);
        let red = ScheduleReduction::build(&inst, &cands);
        assert_eq!(red.num_comps, 2);
        let mut obj = ScheduleObjective::new_cardinality(&red);
        let mut scratch = ObjectiveScratch::default();
        let on_proc = |p: u32| {
            (0..red.num_subsets())
                .find(|&k| cands[red.candidate_of(k)].proc == p)
                .unwrap()
        };
        let (on_p0, on_p1) = (on_proc(0), on_proc(1));
        let run_p0 = red.run_of(on_p0);
        let run_p1 = red.run_of(on_p1);
        obj.gain(on_p0, &mut scratch);
        let g1_before = obj.gain(on_p1, &mut scratch);
        // commit on processor 0: processor 1's run keeps its memo
        obj.commit(on_p0);
        assert!(
            scratch.run_eval[run_p1] >= obj.stamp_of_run(run_p1),
            "p1 memo valid"
        );
        assert!(
            scratch.run_eval[run_p0] < obj.stamp_of_run(run_p0),
            "p0 memo stale"
        );
        let misses = scratch.memo_counts().1;
        assert_eq!(obj.gain(on_p1, &mut scratch), g1_before);
        assert_eq!(scratch.memo_counts().1, misses, "p1 replayed, no pass");
        // and the replayed value matches a fresh evaluation
        let mut fresh = ObjectiveScratch::default();
        assert_eq!(obj.gain(on_p1, &mut fresh), g1_before);
    }

    #[test]
    fn group_gains_match_individual_gains_after_commits() {
        let inst = Instance::new(
            2,
            6,
            vec![
                Job::window(1.0, 0, 0, 3),
                Job::window(1.0, 0, 2, 5),
                Job::window(1.0, 1, 1, 4),
                Job::window(1.0, 1, 3, 6),
            ],
        );
        let cands = enumerate_candidates(&inst, &AffineCost::new(2.0, 1.0), CandidatePolicy::All);
        let red = ScheduleReduction::build(&inst, &cands);
        let mut obj = ScheduleObjective::new_cardinality(&red);
        assert_eq!(obj.groups(), red.runs());
        let mut scratch = ObjectiveScratch::default();
        for round in 0..3 {
            for &(lo, hi) in red.runs() {
                let (lo, hi) = (lo as usize, hi as usize);
                let mut group = vec![0.0; hi - lo];
                obj.group_gains(lo, &mut scratch, &mut group);
                let mut fresh = ObjectiveScratch::default();
                for (k, &g) in group.iter().enumerate() {
                    assert_eq!(g, obj.gain(lo + k, &mut fresh), "round {round}");
                }
            }
            obj.commit(round * 5 % red.num_subsets());
        }
    }

    #[test]
    fn first_values_bound_the_runs_without_a_current_memo() {
        let inst = Instance::new(
            2,
            6,
            vec![
                Job::window(3.0, 0, 0, 3),
                Job::window(1.0, 0, 2, 5),
                Job::window(2.0, 1, 1, 4),
            ],
        );
        let cands = enumerate_candidates(&inst, &AffineCost::new(2.0, 1.0), CandidatePolicy::All);
        let red = ScheduleReduction::build(&inst, &cands);
        let values = inst.jobs.iter().map(|j| j.value).collect();
        let mut obj = ScheduleObjective::new_weighted(&red, values);
        let mut scratch = ObjectiveScratch::default();
        let (mut vals, mut bounded) = (Vec::new(), Vec::new());
        obj.first_values(&mut scratch, &mut vals, &mut bounded);
        let every_run: Vec<u32> = (0..red.runs().len() as u32).collect();
        assert_eq!(bounded, every_run, "a cold scratch has no memo");
        // Processor 0's slots 0..5 form one component with 2 jobs, and
        // processor 1's slots 1..4 one with 1 job, so each window's bound is
        // min(its slots, its component's jobs) times the largest value, 3.
        for (k, &v) in vals.iter().enumerate() {
            let iv = red.interval_of(k);
            let jobs = if iv.proc == 0 { 2 } else { 1 };
            let slots = red.slots_of(k).len();
            assert_eq!(v, slots.min(jobs) as f64 * 3.0, "subset {k}");
        }
        let bound_of = |proc, start, end| {
            let k = (0..red.num_subsets())
                .find(|&k| {
                    let iv = red.interval_of(k);
                    (iv.proc, iv.start, iv.end) == (proc, start, end)
                })
                .unwrap();
            vals[k]
        };
        assert_eq!(bound_of(0, 0, 5), 6.0, "5 slots, 2 jobs");
        assert_eq!(bound_of(0, 0, 1), 3.0, "1 slot");
        assert_eq!(bound_of(1, 1, 4), 3.0, "3 slots, 1 job");
        assert_eq!(scratch.memo_counts(), (0, 0), "bounds evaluate nothing");

        // After a commit on processor 0, the run evaluated on processor 1
        // keeps its exact values, and every other first value still bounds
        // the current gain.
        let on_proc = |p: u32| {
            (0..red.num_subsets())
                .find(|&k| cands[red.candidate_of(k)].proc == p)
                .unwrap()
        };
        let on_p1 = on_proc(1);
        let run_p1 = red.run_of(on_p1) as u32;
        let g = obj.gain(on_p1, &mut scratch);
        obj.commit(on_proc(0));
        obj.first_values(&mut scratch, &mut vals, &mut bounded);
        assert!(!bounded.contains(&run_p1), "the evaluated run is exact");
        assert_eq!(vals[on_p1], g);
        let mut fresh = ObjectiveScratch::default();
        for &r in &bounded {
            let (lo, hi) = red.runs()[r as usize];
            for (i, &v) in vals.iter().enumerate().take(hi as usize).skip(lo as usize) {
                assert!(v >= obj.gain(i, &mut fresh), "subset {i}");
            }
        }
    }

    #[test]
    fn saturated_runs_answer_zero_without_a_pass() {
        // Processor 0 has one job on slots 0..3, processor 1 two jobs on
        // slots 0..4: one component each.
        let inst = Instance::new(
            2,
            4,
            vec![
                Job::window(1.0, 0, 0, 3),
                Job::window(1.0, 1, 0, 4),
                Job::window(1.0, 1, 1, 4),
            ],
        );
        let cands = enumerate_candidates(&inst, &AffineCost::new(1.0, 1.0), CandidatePolicy::All);
        let red = ScheduleReduction::build(&inst, &cands);
        assert_eq!(red.num_comps, 2);
        let on_proc = |p: u32| {
            (0..red.num_subsets())
                .filter(|&k| red.interval_of(k).proc == p)
                .collect::<Vec<_>>()
        };
        let (on_p0, on_p1) = (on_proc(0), on_proc(1));
        let truth = |obj: &ScheduleObjective<'_>| -> Vec<u64> {
            (0..red.num_subsets())
                .map(|k| {
                    let g = obj
                        .oracle()
                        .gain_of(red.slots_of(k), &mut GainScratch::new());
                    g.to_bits()
                })
                .collect()
        };
        let bits = |gains: &[f64]| gains.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
        let mut obj = ScheduleObjective::new_cardinality(&red);
        let mut scratch = ObjectiveScratch::default();
        let mut gains = Vec::new();
        obj.scan_gains(false, &mut scratch, &mut gains);

        // One processor-1 slot matches one of its two jobs: its component
        // keeps an unmatched job, so its stale runs take a pass.
        let single = *on_p1.iter().find(|&&k| red.slots_of(k).len() == 1).unwrap();
        assert_eq!(obj.commit(single), 1.0);
        let misses = scratch.memo_counts().1;
        obj.scan_gains(false, &mut scratch, &mut gains);
        assert_eq!(bits(&gains), truth(&obj));
        assert_eq!(scratch.memo_saturated(), 0);
        assert_eq!(scratch.memo_counts().1 - misses, on_p1.len() as u64);

        // Matching processor 0's only job saturates its component: every
        // processor-0 run is stale, answered 0 without a pass, and stays
        // current from then on.
        assert_eq!(obj.commit(on_p0[0]), 1.0);
        let misses = scratch.memo_counts().1;
        obj.scan_gains(false, &mut scratch, &mut gains);
        assert_eq!(bits(&gains), truth(&obj));
        assert!(on_p0.iter().all(|&k| gains[k] == 0.0));
        assert_eq!(scratch.memo_saturated(), on_p0.len() as u64);
        assert_eq!(scratch.memo_counts().1, misses, "no pass");
        obj.scan_gains(false, &mut scratch, &mut gains);
        assert_eq!(scratch.memo_saturated(), on_p0.len() as u64, "replayed");
        assert_eq!(scratch.memo_counts().1, misses);
    }

    #[test]
    fn scratch_memo_is_not_replayed_across_objectives() {
        let inst = two_job_instance();
        let cands = enumerate_candidates(&inst, &AffineCost::new(1.0, 1.0), CandidatePolicy::All);
        let red = ScheduleReduction::build(&inst, &cands);
        let mut scratch = ObjectiveScratch::default();
        let mut a = ScheduleObjective::new_cardinality(&red);
        let g = a.gain(0, &mut scratch);
        a.commit(0);
        // same scratch against a *fresh* objective: must re-evaluate, not
        // replay a memo stamped by the old objective's versions
        let b = ScheduleObjective::new_cardinality(&red);
        assert_eq!(b.gain(0, &mut scratch), g);
    }

    #[test]
    fn greedy_drives_objective_to_full_schedule() {
        let inst = two_job_instance();
        let cands = enumerate_candidates(&inst, &AffineCost::new(1.0, 1.0), CandidatePolicy::All);
        let red = ScheduleReduction::build(&inst, &cands);
        let mut obj = ScheduleObjective::new_cardinality(&red);
        let n = inst.num_jobs() as f64;
        let out = budgeted_greedy(&mut obj, GreedyConfig::new(n, 1.0 / (n + 1.0)));
        assert!(out.reached_target);
        assert_eq!(out.utility, 2.0);
        let sched = obj.extract_schedule(&inst, &cands, &out.chosen);
        assert_eq!(sched.scheduled_count, 2);
        assert!(crate::model::validate_schedule(&inst, &sched).is_empty());
    }

    #[test]
    fn weighted_objective_counts_values() {
        let inst = Instance::new(
            1,
            2,
            vec![Job::window(5.0, 0, 0, 1), Job::window(3.0, 0, 1, 2)],
        );
        let cands = enumerate_candidates(&inst, &AffineCost::new(1.0, 1.0), CandidatePolicy::All);
        let red = ScheduleReduction::build(&inst, &cands);
        let values = inst.jobs.iter().map(|j| j.value).collect();
        let mut obj = ScheduleObjective::new_weighted(&red, values);
        let out = budgeted_greedy(&mut obj, GreedyConfig::new(8.0, 0.01));
        assert!(out.reached_target);
        assert_eq!(out.utility, 8.0);
    }
}

/// The window build against the family build it stands in for, field for
/// field, on random instances, policies and inclusion-monotone cost models,
/// including every kind of tie the representative's leftward scan resolves.
#[cfg(test)]
mod window_build_tests {
    use proptest::prelude::*;

    use super::*;
    use crate::candidates::enumerate_candidates;
    use crate::cost::{AffineCost, ConvexCost, TableCost, TimeVaryingCost, UnavailableSlots};
    use crate::model::{Job, SlotRef};
    use crate::profile::{PowerProfile, ProfileCost};

    /// Strategy: grid size plus jobs, each a window or a sparse slot set.
    #[allow(clippy::type_complexity)]
    fn instance_strategy() -> impl Strategy<Value = (u32, u32, Vec<(u32, u32, u32, u32)>)> {
        (1u32..4, 3u32..14).prop_flat_map(|(p, t)| {
            let jobs = proptest::collection::vec((0..p, 0..t, 1u32..5, 0u32..3), 1..10);
            (Just(p), Just(t), jobs)
        })
    }

    /// Jobs from the strategy's tuples: `stride` 0 is a window of `len`
    /// slots, otherwise `len` slots spaced `stride + 1` apart.
    fn build_instance(p: u32, t: u32, jobs: &[(u32, u32, u32, u32)]) -> Instance {
        let jobs = jobs
            .iter()
            .map(|&(proc, start, len, stride)| {
                let allowed = (0..len)
                    .map(|k| start + k * (stride + 1))
                    .filter(|&time| time < t)
                    .map(|time| SlotRef::new(proc, time))
                    .collect();
                Job {
                    value: 1.0,
                    allowed,
                    work: None,
                }
            })
            .collect();
        Instance::new(p, t, jobs)
    }

    /// The monotone cost models, by `pick`. Rate-0 affine, zero-busy
    /// profiles, a float-saturated restart, zero prices and constant convex
    /// costs make members of a class tie with its tight interval.
    fn cost_model(pick: u8, p: u32, t: u32) -> Box<dyn EnergyCost> {
        match pick % 9 {
            0 => Box::new(AffineCost::new(3.0, 1.0)),
            1 => Box::new(AffineCost::new(2.0, 0.0)),
            // 1e17 + len rounds back to 1e17 for short lengths
            2 => Box::new(AffineCost::new(1e17, 1.0)),
            3 => Box::new(ProfileCost::new(
                &(0..p)
                    .map(|proc| PowerProfile::affine(1.0 + proc as f64, (proc % 2) as f64 * 0.5))
                    .collect::<Vec<_>>(),
            )),
            4 => Box::new(TimeVaryingCost::new(
                1.5,
                (0..p)
                    .map(|proc| {
                        (0..t)
                            .map(|time| match (proc * 7 + time * 3) % 6 {
                                0 => f64::INFINITY,
                                1 | 2 => 0.0,
                                k => k as f64 * 0.5,
                            })
                            .collect()
                    })
                    .collect(),
            )),
            5 => Box::new(UnavailableSlots::new(
                AffineCost::new(1.5, 0.5),
                p,
                &(0..p)
                    .flat_map(|proc| {
                        (0..t)
                            .filter(move |time| (proc + time) % 5 == 2)
                            .map(move |time| (proc, time))
                    })
                    .collect::<Vec<_>>(),
            )),
            6 => Box::new(ConvexCost::new(1.0, 0.0, 0.25)),
            7 => Box::new(ConvexCost::new(2.0, 0.0, 0.0)),
            _ => Box::new(UnavailableSlots::new(
                AffineCost::new(2.0, 0.0),
                p,
                &[(0, t / 2)],
            )),
        }
    }

    /// The policies, by `pick` in `0..18`, including a cap past any
    /// horizon.
    fn policy(pick: u8) -> CandidatePolicy {
        match pick % 3 {
            0 => CandidatePolicy::All,
            1 => CandidatePolicy::MaxLength([1, 2, 3, 5, 8, u32::MAX][pick as usize / 3]),
            _ => CandidatePolicy::SingleSlots,
        }
    }

    /// Asserts two reductions equal field for field: subset intervals with
    /// their cost bits, window lengths, runs and run bases, the component
    /// arena and every subset's prefix of it, the jobs each subset can
    /// saturate and each component holds, and the slot arena with its
    /// prefix counts.
    fn assert_same_layout(
        w: &ScheduleReduction,
        f: &ScheduleReduction,
    ) -> Result<(), TestCaseError> {
        let bits = |r: &ScheduleReduction| -> Vec<(u32, u32, u32, u64)> {
            r.intervals()
                .map(|iv| (iv.proc, iv.start, iv.end, iv.cost.to_bits()))
                .collect()
        };
        prop_assert_eq!(bits(w), bits(f), "subset intervals and cost bits");
        prop_assert_eq!(&w.len, &f.len, "window lengths");
        prop_assert_eq!(&w.runs, &f.runs, "runs");
        prop_assert_eq!(&w.run_base, &f.run_base, "run bases");
        prop_assert_eq!(&w.comp_arena, &f.comp_arena, "component arena");
        prop_assert_eq!(&w.comp_len, &f.comp_len, "component prefixes");
        prop_assert_eq!(&w.saturable, &f.saturable, "saturable jobs");
        prop_assert_eq!(&w.comp_jobs, &f.comp_jobs, "jobs per component");
        prop_assert_eq!(w.num_comps, f.num_comps);
        prop_assert_eq!(&w.islots, &f.islots, "interesting slots");
        prop_assert_eq!(&w.prefix, &f.prefix, "slot prefix counts");
        prop_assert_eq!(w.horizon, f.horizon);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn window_build_equals_the_family_build(
            (p, t, jobs) in instance_strategy(),
            cost_pick in 0u8..9,
            policy_pick in 0u8..18,
        ) {
            let inst = build_instance(p, t, &jobs);
            let cost = cost_model(cost_pick, p, t);
            let policy = policy(policy_pick);
            let family = enumerate_candidates(&inst, cost.as_ref(), policy);
            let expected = ScheduleReduction::build(&inst, &family);
            let windows = ScheduleReduction::build_windows(&inst, cost.as_ref(), policy);
            assert_same_layout(&windows, &expected)?;
            prop_assert!(windows.cand.is_empty(), "a window build indexes no family");

            // in place over the buffers of another instance's build
            let first = build_instance(p, t, &jobs[..jobs.len() / 2]);
            let mut rebuilt = ScheduleReduction::build_windows(&first, cost.as_ref(), policy);
            rebuilt.apply_delta_windows(&inst, cost.as_ref(), policy);
            assert_same_layout(&rebuilt, &expected)?;
        }
    }

    /// Rate 0: every member of the class of a job at slot 3 of a 4-slot row
    /// ties with the tight interval [3,4), so the scan moves the
    /// representative to the lowest start, [0,4), as the family build
    /// keeps the lowest index.
    #[test]
    fn ties_move_the_representative_to_the_lowest_start() {
        let inst = Instance::new(1, 4, vec![Job::unit(vec![SlotRef::new(0, 3)])]);
        let red = ScheduleReduction::build_windows(
            &inst,
            &AffineCost::new(2.0, 0.0),
            CandidatePolicy::All,
        );
        let iv = red.interval_of(0);
        assert_eq!((red.num_subsets(), iv.start, iv.end), (1, 0, 4));
        // a length cap stops the scan: [1,4) is the longest member allowed
        let capped = ScheduleReduction::build_windows(
            &inst,
            &AffineCost::new(2.0, 0.0),
            CandidatePolicy::MaxLength(3),
        );
        assert_eq!(capped.interval_of(0).start, 1);
    }

    #[test]
    fn intervals_counter_counts_oracle_calls() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        struct Counting(AffineCost, AtomicUsize);
        impl EnergyCost for Counting {
            fn cost(&self, proc: u32, start: u32, end: u32) -> f64 {
                self.1.fetch_add(1, Ordering::Relaxed);
                self.0.cost(proc, start, end)
            }
            fn inclusion_monotone(&self) -> bool {
                true
            }
        }
        let inst = Instance::new(
            2,
            8,
            vec![Job::window(1.0, 0, 1, 4), Job::window(1.0, 1, 5, 8)],
        );
        let cost = Counting(AffineCost::new(3.0, 1.0), AtomicUsize::new(0));
        let registry = Arc::new(sched_obs::Registry::new());
        sched_obs::set_thread(Some(Arc::clone(&registry)));
        let red = ScheduleReduction::build_windows(&inst, &cost, CandidatePolicy::All);
        sched_obs::set_thread(None);
        // 6 windows per processor, one tight interval each, plus a left
        // extension for the 3 windows per processor whose class reaches
        // further left (those starting at its first job slot)
        assert_eq!(red.num_subsets(), 12);
        assert_eq!(cost.1.load(Ordering::Relaxed), 18);
        assert_eq!(registry.counter("core.reduction.intervals").get(), 18);
        assert_eq!(registry.counter("core.reduction.subsets").get(), 12);
    }

    #[test]
    #[should_panic(expected = "inclusion-monotone")]
    fn window_build_refuses_an_undeclared_cost() {
        let inst = Instance::new(1, 2, vec![Job::window(1.0, 0, 0, 2)]);
        ScheduleReduction::build_windows(&inst, &TableCost::new([], 1.0), CandidatePolicy::All);
    }
}
