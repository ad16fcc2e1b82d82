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
//!   represented by that member ([`ScheduleReduction::candidate_of`]), and
//!   subsets are kept in increasing candidate order, so every tie between
//!   classes breaks as it would between their members. The greedy over
//!   subsets picks exactly the candidates the greedy over the whole family
//!   picks. On the online path's 131,584-interval grid a few hundred
//!   windows are distinct.
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
//!   bound read from its window: `|slots_of(k)|` times the oracle's largest
//!   job value. So no solve runs a full gain scan, and a run is evaluated
//!   only when its bound reaches the top of the lazy heap (see
//!   `submodular::budgeted`, "Initial keys may be upper bounds").

use std::sync::atomic::{AtomicU64, Ordering};

use bmatch::{BipartiteGraph, BipartiteGraphBuilder, GainScratch, MatchingOracle};
use submodular::BudgetedObjective;

use crate::candidates::CandidateInterval;
use crate::model::{Instance, Schedule};

/// Distinguishes objectives so a reused scratch never replays memoized gains
/// computed against a different objective.
static OBJECTIVE_TOKENS: AtomicU64 = AtomicU64::new(1);

/// The slot–job bipartite graph plus one subset per distinct nonempty
/// candidate window (see the [module docs](self) for the layout and the
/// exactness argument).
///
/// Built once per solve (or once per [`crate::Solver`], which caches it
/// across goal calls); borrowed by [`ScheduleObjective`].
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
    /// Candidate index of each subset: the cheapest, then lowest-index,
    /// candidate with the subset's window. Strictly increasing.
    cand: Vec<u32>,
    /// Cost of each subset (its candidate's).
    costs: Vec<f64>,
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
    /// Number of distinct connected components.
    num_comps: u32,
    /// Size of the candidate family the subsets were drawn from.
    num_candidates: usize,
    /// Retained union-find, densification and grouping buffers, so
    /// [`ScheduleReduction::apply_delta`] reuses the allocations of the
    /// previous build.
    scratch: RebuildScratch,
}

/// Working buffers for the rebuild, retained across deltas.
#[derive(Clone, Debug, Default)]
struct RebuildScratch {
    uf: Vec<u32>,
    dense: Vec<u32>,
    /// Component id of each interesting slot, by its position in `islots`.
    comp_of_islot: Vec<u32>,
    /// Group epoch at which each component was last pushed to the arena.
    comp_seen: Vec<u32>,
    /// Subset of the current window group with each window length, or
    /// `u32::MAX`; all `u32::MAX` between groups.
    by_len: Vec<u32>,
    /// Subset rows of a group that came out of candidate order:
    /// `(candidate, cost, length, component prefix)`.
    sort_buf: Vec<(u32, f64, u32, u32)>,
}

impl ScheduleReduction {
    /// Builds the reduction for `inst` and the given candidate family.
    pub fn build(inst: &Instance, candidates: &[CandidateInterval]) -> Self {
        let _span = sched_obs::span!("core.reduction.build_ns");
        let mut red = Self {
            graph: BipartiteGraphBuilder::new(0, 0).build(),
            horizon: 0,
            islots: Vec::new(),
            prefix: Vec::new(),
            cand: Vec::new(),
            costs: Vec::new(),
            len: Vec::new(),
            runs: Vec::new(),
            run_base: Vec::new(),
            comp_arena: Vec::new(),
            comp_len: Vec::new(),
            num_comps: 0,
            num_candidates: 0,
            scratch: RebuildScratch::default(),
        };
        red.rebuild(inst, candidates);
        red
    }

    /// Applies a job delta: rebuilds the reduction for the new instance
    /// **in place**, reusing the retained allocations. Subsets depend on
    /// which slots are job-adjacent, so every row is rebuilt; arrivals and
    /// expiries are implied by the new instance.
    ///
    /// The result is field-for-field identical to
    /// `ScheduleReduction::build(inst, candidates)` — both paths run the same
    /// rebuild — so correctness never depends on the delta being small.
    ///
    /// # Panics
    /// Panics (debug) if `candidates` is not the size of the family this
    /// reduction was built with.
    pub fn apply_delta(&mut self, inst: &Instance, candidates: &[CandidateInterval]) {
        let _span = sched_obs::span!("core.reduction.apply_delta_ns");
        debug_assert_eq!(
            candidates.len(),
            self.num_candidates,
            "apply_delta requires the original candidate family"
        );
        self.rebuild(inst, candidates);
    }

    /// The shared rebuild behind [`ScheduleReduction::build`] and
    /// [`ScheduleReduction::apply_delta`]: graph, interesting slots and
    /// their prefix counts, connected components, and the subsets, written
    /// into the retained buffers.
    fn rebuild(&mut self, inst: &Instance, candidates: &[CandidateInterval]) {
        let mut b = BipartiteGraphBuilder::new(inst.num_slots(), inst.num_jobs() as u32);
        for (jid, job) in inst.jobs.iter().enumerate() {
            for &s in &job.allowed {
                b.add_edge(inst.slot_id(s), jid as u32);
            }
        }
        self.graph = b.build();
        self.horizon = inst.horizon;
        self.num_candidates = candidates.len();
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
        let comp_of_islot = &mut self.scratch.comp_of_islot;
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

        self.build_subsets(candidates);
        sched_obs::counter_add("core.reduction.subsets", self.cand.len() as u64);
        if sched_obs::trace::enabled() {
            sched_obs::trace::instant(
                "core.reduction.subsets",
                vec![
                    ("candidates", candidates.len().into()),
                    ("subsets", self.cand.len().into()),
                ],
            );
        }
    }

    /// One pass over the candidates, one *window group* at a time: the
    /// consecutive candidates on one processor whose windows start at the
    /// same interesting slot. A window length met for the first time emits
    /// a subset; a cheaper twin re-points it in place. One walk over the
    /// group's longest window then records its component sequence and
    /// every subset's prefix of it. A group whose subsets came out of
    /// candidate order (costs that fall along a run, families with holes)
    /// is sorted and split into nested-prefix runs; any other group is one
    /// run.
    fn build_subsets(&mut self, candidates: &[CandidateInterval]) {
        let Self {
            horizon,
            islots,
            prefix,
            cand,
            costs,
            len: lens,
            runs,
            run_base,
            comp_arena,
            comp_len,
            num_comps,
            scratch,
            ..
        } = self;
        let RebuildScratch {
            comp_of_islot,
            comp_seen,
            by_len,
            sort_buf,
            ..
        } = scratch;
        // Distinct nonempty windows: at most one per (offset, length) pair.
        let k = islots.len();
        let cap = candidates.len().min(k * (k + 1) / 2);
        cand.clear();
        cand.reserve(cap);
        costs.clear();
        costs.reserve(cap);
        lens.clear();
        lens.reserve(cap);
        comp_len.clear();
        comp_len.reserve(cap);
        runs.clear();
        run_base.clear();
        comp_arena.clear();
        comp_seen.clear();
        comp_seen.resize(*num_comps as usize, u32::MAX);
        by_len.clear();
        by_len.resize(k + 1, u32::MAX);

        let mut group = 0u32;
        let mut i = 0;
        while i < candidates.len() {
            let first = &candidates[i];
            let row = (first.proc * *horizon) as usize;
            let off = prefix[row + first.start as usize];
            let lo = cand.len();
            let mut max_len = 0;
            while let Some(c) = candidates.get(i) {
                if c.proc != first.proc || prefix[row + c.start as usize] != off {
                    break;
                }
                let l = prefix[row + c.end as usize] - off;
                if l > 0 {
                    let s = &mut by_len[l as usize];
                    if *s == u32::MAX {
                        *s = cand.len() as u32;
                        cand.push(i as u32);
                        costs.push(c.cost);
                        lens.push(l);
                        comp_len.push(0);
                        max_len = max_len.max(l);
                    } else if c.cost < costs[*s as usize] {
                        cand[*s as usize] = i as u32;
                        costs[*s as usize] = c.cost;
                    }
                }
                i += 1;
            }
            let hi = cand.len();
            if hi == lo {
                continue;
            }

            // Walk the group's longest window once. Visiting lengths in
            // increasing order also checks that the group is in candidate
            // order: subset indices and candidates must both increase.
            let comp_base = comp_arena.len() as u32;
            let mut next = lo;
            let mut in_order = true;
            for p in 0..max_len {
                let c = comp_of_islot[(off + p) as usize];
                if comp_seen[c as usize] != group {
                    comp_seen[c as usize] = group;
                    comp_arena.push(c);
                }
                let s = std::mem::replace(&mut by_len[p as usize + 1], u32::MAX);
                if s != u32::MAX {
                    let s = s as usize;
                    comp_len[s] = comp_arena.len() as u32 - comp_base;
                    in_order &= s == next && (s == lo || cand[s - 1] < cand[s]);
                    next += 1;
                }
            }
            group += 1;

            if in_order {
                runs.push((lo as u32, hi as u32));
                run_base.push((off, comp_base));
                continue;
            }
            sort_buf.clear();
            sort_buf.extend((lo..hi).map(|s| (cand[s], costs[s], lens[s], comp_len[s])));
            sort_buf.sort_unstable_by_key(|row| row.0);
            for (s, &(c, cost, l, cl)) in (lo..hi).zip(sort_buf.iter()) {
                cand[s] = c;
                costs[s] = cost;
                lens[s] = l;
                comp_len[s] = cl;
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
    }

    /// Number of subsets: distinct nonempty candidate windows.
    #[inline]
    pub fn num_subsets(&self) -> usize {
        self.cand.len()
    }

    /// The candidate subset `k` stands for: the cheapest, then
    /// lowest-index, candidate with its window. Strictly increasing in `k`.
    #[inline]
    pub fn candidate_of(&self, k: usize) -> usize {
        self.cand[k] as usize
    }

    /// The (job-adjacent) slot ids of subset `k`'s window, shared by every
    /// candidate of its class.
    #[inline]
    pub fn slots_of(&self, k: usize) -> &[u32] {
        self.window_in_run(self.run_of(k), k)
    }

    /// Cost of subset `k`: the cost of [`ScheduleReduction::candidate_of`].
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

/// Per-thread scratch for [`ScheduleObjective`]: overlay matching workspace
/// plus the component-version gain memo.
pub struct ObjectiveScratch {
    gain: GainScratch,
    /// Objective token the memo below was filled against.
    memo_token: u64,
    /// Version at which run `r` was last evaluated (0 = never).
    run_eval: Vec<u64>,
    /// Cached raw gain of subset `k` (valid iff its run's `run_eval`
    /// covers the run's latest component stamp).
    memo_val: Vec<f64>,
    /// Cumulative-gain buffer for prefix scans.
    cum: Vec<f64>,
    /// Memo telemetry: subsets served from the memo vs. recomputed, as
    /// plain fields so the hot loops pay no atomics. Flushed to the
    /// ambient registry once per solve by `schedule_all`.
    memo_hits: u64,
    memo_misses: u64,
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
        }
    }
}

impl ObjectiveScratch {
    /// Lifetime `(hits, misses)` of the gain memo: subsets whose gain was
    /// replayed from the memo vs. recomputed through the oracle.
    pub fn memo_counts(&self) -> (u64, u64) {
        (self.memo_hits, self.memo_misses)
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
/// back to its interval through [`ScheduleReduction::candidate_of`].
pub struct ScheduleObjective<'r> {
    red: &'r ScheduleReduction,
    oracle: MatchingOracle<'r>,
    /// Identity of this objective, for scratch-memo safety.
    token: u64,
    /// Global commit version; starts at 1, bumped on every mutating commit.
    version: u64,
    /// Per-component version of the last mutating commit that touched it.
    comp_version: Vec<u64>,
}

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

    /// Brings run `r`'s memoized gains up to date: replays them when no
    /// component stamp on the run moved since its last pass, else runs one
    /// pass. Every member counts as one memo hit or miss.
    fn fresh_run(&self, r: usize, scratch: &mut ObjectiveScratch) {
        let (lo, hi) = self.red.runs()[r];
        let members = u64::from(hi - lo);
        if self.memo_current(r, scratch) {
            scratch.memo_hits += members;
        } else {
            scratch.memo_misses += members;
            self.refresh_run(r, scratch);
        }
    }

    /// Extracts the schedule corresponding to the chosen subset indices
    /// (each mapped to its candidate through
    /// [`ScheduleReduction::candidate_of`]) and the oracle's current
    /// maximum matching.
    pub fn extract_schedule(
        &self,
        inst: &Instance,
        candidates: &[CandidateInterval],
        chosen: &[usize],
    ) -> Schedule {
        let awake: Vec<CandidateInterval> = chosen
            .iter()
            .map(|&k| candidates[self.red.candidate_of(k)])
            .collect();
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
        let gain = self.oracle.commit(self.red.window_in_run(r, i));
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
        }
        if sched_obs::trace::enabled() {
            sched_obs::trace::instant(
                "core.commit",
                vec![
                    ("cand", self.red.candidate_of(i).into()),
                    ("subset", i.into()),
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

    fn scan_gains(&self, parallel: bool, scratch: &mut Self::Scratch, out: &mut Vec<f64>) {
        let _span = sched_obs::span!("core.objective.scan_gains_ns");
        scratch.ensure(self.token, self.red);
        let runs = self.red.runs();
        if parallel {
            // Replay the runs whose memo is current, refresh the others on
            // per-thread scratches, and write them back into the memo: the
            // same memo state the sequential scan leaves.
            use rayon::prelude::*;
            let stale: Vec<usize> = (0..runs.len())
                .filter(|&r| !self.memo_current(r, scratch))
                .collect();
            let fresh: Vec<Vec<f64>> = (0..stale.len())
                .into_par_iter()
                .map_init(ObjectiveScratch::default, |s, k| {
                    let r = stale[k];
                    s.ensure(self.token, self.red);
                    self.refresh_run(r, s);
                    let (lo, hi) = (runs[r].0 as usize, runs[r].1 as usize);
                    s.memo_val[lo..hi].to_vec()
                })
                .collect();
            let mut refreshed = 0;
            for (&r, vals) in stale.iter().zip(fresh) {
                let lo = runs[r].0 as usize;
                scratch.memo_val[lo..lo + vals.len()].copy_from_slice(&vals);
                scratch.run_eval[r] = self.version;
                refreshed += vals.len() as u64;
            }
            scratch.memo_misses += refreshed;
            scratch.memo_hits += self.red.num_subsets() as u64 - refreshed;
        } else {
            for r in 0..runs.len() {
                self.fresh_run(r, scratch);
            }
        }
        out.clear();
        out.extend_from_slice(&scratch.memo_val);
    }

    /// Exact memoized gains for the runs whose memo is current, and
    /// `|slots_of(k)| ×` [`MatchingOracle::max_value`] for every other
    /// subset: each slot raises the matching rank by at most one job's
    /// value. Reads no matching, so `parallel` has nothing to split.
    fn first_values(
        &self,
        _parallel: bool,
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
                out.extend(self.red.len[lo..hi].iter().map(|&l| l as f64 * max_value));
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
            let mut par = Vec::new();
            obj.scan_gains(true, &mut ObjectiveScratch::default(), &mut par);
            assert_eq!(par, scanned, "parallel scan diverged at round {round}");
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
    fn parallel_scan_replays_the_callers_memo() {
        let inst = Instance::new(
            2,
            6,
            vec![
                Job::window(1.0, 0, 0, 3),
                Job::window(1.0, 0, 2, 5),
                Job::window(1.0, 1, 1, 4),
            ],
        );
        let cands = enumerate_candidates(&inst, &AffineCost::new(2.0, 1.0), CandidatePolicy::All);
        let red = ScheduleReduction::build(&inst, &cands);
        let obj = ScheduleObjective::new_cardinality(&red);
        let m = red.num_subsets() as u64;

        // Evaluate only the last run, then scan: the parallel scan must
        // replay that run from this scratch, refresh only the others, and
        // leave the memo as current as the sequential scan does.
        let partial = || {
            let mut scratch = ObjectiveScratch::default();
            let last = red.runs().len() - 1;
            obj.gain(red.runs()[last].0 as usize, &mut scratch);
            scratch
        };
        let (mut seq_scratch, mut par_scratch) = (partial(), partial());
        let evaluated = seq_scratch.memo_counts().1;
        assert!(evaluated > 0 && evaluated < m, "a partial memo");
        let (mut seq, mut par) = (Vec::new(), Vec::new());
        obj.scan_gains(false, &mut seq_scratch, &mut seq);
        obj.scan_gains(true, &mut par_scratch, &mut par);
        assert_eq!(par, seq);
        assert_eq!(par_scratch.memo_counts(), seq_scratch.memo_counts());
        assert_eq!(par_scratch.memo_counts(), (evaluated, m));
        let (mut again, mut bounded) = (Vec::new(), Vec::new());
        obj.first_values(false, &mut par_scratch, &mut again, &mut bounded);
        assert_eq!(again, seq);
        assert!(bounded.is_empty(), "every run's memo is current");
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
        obj.first_values(false, &mut scratch, &mut vals, &mut bounded);
        let every_run: Vec<u32> = (0..red.runs().len() as u32).collect();
        assert_eq!(bounded, every_run, "a cold scratch has no memo");
        for (k, &v) in vals.iter().enumerate() {
            assert_eq!(v, red.slots_of(k).len() as f64 * 3.0, "subset {k}");
        }
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
        obj.first_values(false, &mut scratch, &mut vals, &mut bounded);
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
        let out = budgeted_greedy(&mut obj, GreedyConfig::lazy(n, 1.0 / (n + 1.0)));
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
