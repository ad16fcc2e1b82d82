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
//! * **Flat CSR slot lists** — per-candidate slot ids live in one row-major
//!   arena (`slot_arena` + `slot_off`), not `Vec<Vec<u32>>`: one allocation,
//!   contiguous iteration, no per-candidate pointer chase.
//! * **Interesting-slot bitset** — slots adjacent to at least one job are
//!   precomputed into a [`BitSet`] once, so filtering a candidate's slots is
//!   a bit test instead of a CSR degree lookup per (candidate × slot).
//! * **Prefix runs** — enumerated families arrive grouped by (processor,
//!   start) with increasing end, so consecutive candidates' slot lists are
//!   nested prefixes. [`ScheduleReduction::runs`] records those maximal
//!   chains; a full candidate scan then evaluates each chain with **one**
//!   incremental [`bmatch::MatchingOracle::gain_prefixes`] pass (`O(L)` slot
//!   augmentations for `L` nested candidates instead of `O(L²)`), emitting
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
//!   run's memo is current (a warm solve's seeded scan leaves every run
//!   current). Every other candidate's first key is an upper bound read
//!   from its slot window: `|slots_of(i)|` times the oracle's largest job
//!   value. So a cold solve runs no full gain scan, and a run is evaluated
//!   only when its bound reaches the top of the lazy heap (see
//!   `submodular::budgeted`, "Initial keys may be upper bounds").

use std::sync::atomic::{AtomicU64, Ordering};

use bmatch::{BipartiteGraph, BipartiteGraphBuilder, GainScratch, MatchingOracle};
use submodular::{BitSet, BudgetedObjective};

use crate::candidates::CandidateInterval;
use crate::model::{Instance, Schedule, SlotRef};

/// Distinguishes objectives so a reused scratch never replays memoized gains
/// computed against a different objective.
static OBJECTIVE_TOKENS: AtomicU64 = AtomicU64::new(1);

/// The slot–job bipartite graph plus per-candidate slot lists in flat CSR
/// form (see the [module docs](self) for the layout rationale).
///
/// Built once per solve (or once per [`crate::Solver`], which caches it
/// across goal calls); borrowed by [`ScheduleObjective`].
#[derive(Clone, Debug)]
pub struct ScheduleReduction {
    /// `X` = dense slot ids (`proc · horizon + time`), `Y` = jobs.
    pub graph: BipartiteGraph,
    /// All *interesting* slot ids (degree > 0) in increasing dense order —
    /// the single shared arena every candidate's slot list is a window of.
    /// Degree-0 slots can never change the matching, so they are omitted
    /// from gain evaluation; an interval's *cost* still covers them.
    islots: Vec<u32>,
    /// Per-candidate window `[off, off + len)` into `islots`. Nested
    /// candidates share storage: `[s, e′)` with `e′ > e` has the same `off`
    /// and a larger `len`, so no per-candidate slot copying happens at all.
    slot_win: Vec<(u32, u32)>,
    /// Candidate costs.
    costs: Vec<f64>,
    /// Run index of each candidate.
    run_of: Vec<u32>,
    /// Maximal candidate ranges `[lo, hi)` whose slot lists form nested
    /// prefixes (same processor and start, increasing end).
    runs: Vec<(u32, u32)>,
    /// Row-major arena of per-run connected-component ids, in first-slot
    /// order and deduped — every candidate's component set is a **prefix**
    /// of its run's sequence (its window is a prefix of the run's longest).
    run_comp_arena: Vec<u32>,
    /// CSR offsets into `run_comp_arena`, one per run plus a sentinel.
    run_comp_off: Vec<u32>,
    /// Per-candidate prefix length into its run's component sequence.
    comp_len: Vec<u32>,
    /// Number of distinct connected components.
    num_comps: u32,
    /// Retained union-find / densification buffers for
    /// [`ScheduleReduction::apply_delta`].
    scratch: RebuildScratch,
}

/// Working buffers for the job-state rebuild, retained across deltas so a
/// re-solve reuses the allocations of the previous one.
#[derive(Clone, Debug, Default)]
struct RebuildScratch {
    uf: Vec<u32>,
    comp_of_slot: Vec<u32>,
    dense: Vec<u32>,
    comp_seen: Vec<u32>,
}

impl ScheduleReduction {
    /// Builds the reduction for `inst` and the given candidate family.
    pub fn build(inst: &Instance, candidates: &[CandidateInterval]) -> Self {
        let _span = sched_obs::span!("core.reduction.build_ns");
        // Candidate-dependent state first: costs and the maximal
        // nested-prefix runs over the candidate order. Both survive job
        // deltas untouched — the candidate family is job-independent.
        let mut runs: Vec<(u32, u32)> = Vec::new();
        let mut run_of = Vec::with_capacity(candidates.len());
        let mut lo = 0usize;
        for i in 1..=candidates.len() {
            let chained = i < candidates.len() && {
                let (a, b) = (&candidates[i - 1], &candidates[i]);
                a.proc == b.proc && a.start == b.start && a.end < b.end
            };
            if !chained {
                for _ in lo..i {
                    run_of.push(runs.len() as u32);
                }
                runs.push((lo as u32, i as u32));
                lo = i;
            }
        }
        let costs = candidates.iter().map(|iv| iv.cost).collect();

        let mut red = Self {
            graph: BipartiteGraphBuilder::new(0, 0).build(),
            islots: Vec::new(),
            slot_win: Vec::new(),
            costs,
            run_of,
            runs,
            run_comp_arena: Vec::new(),
            run_comp_off: Vec::new(),
            comp_len: Vec::new(),
            num_comps: 0,
            scratch: RebuildScratch::default(),
        };
        red.rebuild_job_state(inst, candidates);
        red
    }

    /// Applies a job delta: rebuilds every job-dependent structure (graph,
    /// interesting-slot arena, candidate windows, connected components) for
    /// the new instance **in place**, reusing the retained allocations and
    /// leaving the candidate-dependent rows (`costs`, `runs`, `run_of`)
    /// untouched. Arrivals and expiries are implied by the new instance; the
    /// caller (the warm handle) diffs instances to find what changed.
    ///
    /// The result is field-for-field identical to
    /// `ScheduleReduction::build(inst, candidates)` — both paths run the same
    /// rebuild — so correctness never depends on the delta being small.
    ///
    /// # Panics
    /// Panics (debug) if `candidates` is not the family this reduction was
    /// built with: windows are recomputed against it, and costs/runs are
    /// assumed to still match.
    pub fn apply_delta(&mut self, inst: &Instance, candidates: &[CandidateInterval]) {
        let _span = sched_obs::span!("core.reduction.apply_delta_ns");
        debug_assert_eq!(
            candidates.len(),
            self.costs.len(),
            "apply_delta requires the original candidate family"
        );
        self.rebuild_job_state(inst, candidates);
    }

    /// The shared job-state rebuild behind [`ScheduleReduction::build`] and
    /// [`ScheduleReduction::apply_delta`]: graph, interesting slots,
    /// per-candidate windows, and connected components, written into the
    /// retained buffers.
    fn rebuild_job_state(&mut self, inst: &Instance, candidates: &[CandidateInterval]) {
        let mut b = BipartiteGraphBuilder::new(inst.num_slots(), inst.num_jobs() as u32);
        for (jid, job) in inst.jobs.iter().enumerate() {
            for &s in &job.allowed {
                b.add_edge(inst.slot_id(s), jid as u32);
            }
        }
        self.graph = b.build();
        let graph = &self.graph;

        // interesting slots (degree > 0), tested once per dense slot id
        let nx = graph.nx() as usize;
        let mut interesting = BitSet::new(nx);
        for x in 0..graph.nx() {
            if graph.deg_x(x) > 0 {
                interesting.insert(x);
            }
        }
        self.islots.clear();
        self.islots.extend(interesting.iter());
        let islots = &self.islots;

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
        let comp_of_slot = &mut self.scratch.comp_of_slot;
        comp_of_slot.clear();
        comp_of_slot.resize(nx, u32::MAX);
        let dense = &mut self.scratch.dense;
        dense.clear();
        dense.resize(nx, u32::MAX);
        let mut num_comps = 0u32;
        for &x in islots {
            let root = find(uf, x);
            if dense[root as usize] == u32::MAX {
                dense[root as usize] = num_comps;
                num_comps += 1;
            }
            comp_of_slot[x as usize] = dense[root as usize];
        }
        self.num_comps = num_comps;

        // per-candidate windows into `islots`, walked incrementally per run
        // (ends increase, so the window only ever grows), plus per-run
        // component sequences in first-slot order (epoch-deduped) with each
        // candidate recording its prefix length into the sequence
        self.slot_win.clear();
        self.slot_win.reserve(candidates.len());
        self.comp_len.clear();
        self.comp_len.reserve(candidates.len());
        self.run_comp_arena.clear();
        self.run_comp_off.clear();
        self.run_comp_off.reserve(self.runs.len() + 1);
        self.run_comp_off.push(0);
        let comp_seen = &mut self.scratch.comp_seen;
        comp_seen.clear();
        comp_seen.resize(num_comps as usize, u32::MAX);
        for (run_idx, &(rlo, rhi)) in self.runs.iter().enumerate() {
            let run_base = self.run_comp_arena.len();
            let first = &candidates[rlo as usize];
            let base_id = inst.slot_id(SlotRef::new(first.proc, first.start));
            let off = islots.partition_point(|&s| s < base_id);
            let mut cursor = off;
            for cand in &candidates[rlo as usize..rhi as usize] {
                let end_id = inst.slot_id(SlotRef::new(cand.proc, 0)) + cand.end;
                while cursor < islots.len() && islots[cursor] < end_id {
                    let c = comp_of_slot[islots[cursor] as usize];
                    if comp_seen[c as usize] != run_idx as u32 {
                        comp_seen[c as usize] = run_idx as u32;
                        self.run_comp_arena.push(c);
                    }
                    cursor += 1;
                }
                self.slot_win.push((off as u32, (cursor - off) as u32));
                self.comp_len
                    .push((self.run_comp_arena.len() - run_base) as u32);
            }
            self.run_comp_off.push(self.run_comp_arena.len() as u32);
        }
    }

    /// Number of candidates in the reduction.
    #[inline]
    pub fn num_candidates(&self) -> usize {
        self.costs.len()
    }

    /// The (job-adjacent) slot ids contributed by candidate `i`.
    #[inline]
    pub fn slots_of(&self, i: usize) -> &[u32] {
        let (off, len) = self.slot_win[i];
        &self.islots[off as usize..(off + len) as usize]
    }

    /// Cost of candidate `i`.
    #[inline]
    pub fn cost_of(&self, i: usize) -> f64 {
        self.costs[i]
    }

    /// Connected-component ids touched by any candidate of run `r`.
    #[inline]
    fn comps_of_run(&self, r: usize) -> &[u32] {
        &self.run_comp_arena[self.run_comp_off[r] as usize..self.run_comp_off[r + 1] as usize]
    }

    /// Connected-component ids candidate `i`'s slots touch — the length-
    /// `comp_len[i]` prefix of its run's component sequence.
    #[inline]
    fn comps_of(&self, i: usize) -> &[u32] {
        let base = self.run_comp_off[self.run_of[i] as usize] as usize;
        &self.run_comp_arena[base..base + self.comp_len[i] as usize]
    }

    /// Maximal nested-prefix candidate ranges (see the module docs).
    #[inline]
    pub fn runs(&self) -> &[(u32, u32)] {
        &self.runs
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
    /// Cached raw gain of candidate `i` (valid iff its run's `run_eval`
    /// covers the run's latest component stamp).
    memo_val: Vec<f64>,
    /// Cumulative-gain buffer for prefix scans.
    cum: Vec<f64>,
    /// Memo telemetry: candidates served from the memo vs. recomputed, as
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
    /// Lifetime `(hits, misses)` of the gain memo: candidates whose gain
    /// was replayed from the memo vs. recomputed through the oracle.
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
            || self.memo_val.len() != red.num_candidates()
            || self.run_eval.len() != red.runs().len()
        {
            self.reset(token, red);
        }
    }

    /// Forgets every memoized gain and sizes the memo for `red`.
    fn reset(&mut self, token: u64, red: &ScheduleReduction) {
        self.memo_token = token;
        self.run_eval.clear();
        self.run_eval.resize(red.runs().len(), 0);
        self.memo_val.clear();
        self.memo_val.resize(red.num_candidates(), 0.0);
    }
}

/// [`BudgetedObjective`] over the matching rank: `F(S)` = maximum (weighted)
/// value of jobs matchable into the union of committed candidate intervals.
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

    /// Re-evaluates every candidate of run `r` with one incremental overlay
    /// pass over the run's longest member and memoizes the results: `O(L)`
    /// slot augmentations for the run's `L` nested candidates instead of
    /// `O(L²)`.
    fn refresh_run(&self, r: usize, scratch: &mut ObjectiveScratch) {
        let (lo, hi) = self.red.runs()[r];
        let (lo, hi) = (lo as usize, hi as usize);
        let slots = self.red.slots_of(hi - 1);
        let mut cum = std::mem::take(&mut scratch.cum);
        self.oracle
            .gain_prefixes(slots, &mut scratch.gain, &mut cum);
        for j in lo..hi {
            let len = self.red.slots_of(j).len();
            scratch.memo_val[j] = if len == 0 { 0.0 } else { cum[len - 1] };
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

    /// Pre-seeds `scratch`'s gain memo: every run whose members are all
    /// `clean` is stamped as already evaluated with values `vals`; the rest
    /// stay unevaluated. A subsequent [`BudgetedObjective::scan_gains`] then
    /// replays the seeded runs and recomputes only the others, and the
    /// greedy's first keys read the memo — the warm-start path of
    /// incremental re-solving.
    ///
    /// Only sound on a *fresh* objective (no commits yet): the seed is
    /// stamped at the initial version, and the caller must guarantee each
    /// seeded value equals what a fresh evaluation against `S = ∅` would
    /// return — the warm handle derives this from its instance diff and
    /// falls back to a cold solve when it cannot.
    pub(crate) fn seed_memo(&self, scratch: &mut ObjectiveScratch, vals: &[f64], clean: &[bool]) {
        let m = self.red.num_candidates();
        debug_assert_eq!(vals.len(), m);
        debug_assert_eq!(clean.len(), m);
        debug_assert_eq!(self.version, 1, "seeding requires a fresh objective");
        scratch.reset(self.token, self.red);
        for (r, &(lo, hi)) in self.red.runs().iter().enumerate() {
            let (lo, hi) = (lo as usize, hi as usize);
            if clean[lo..hi].iter().all(|&c| c) {
                scratch.run_eval[r] = self.version;
                scratch.memo_val[lo..hi].copy_from_slice(&vals[lo..hi]);
            }
        }
    }

    /// Extracts the schedule corresponding to the chosen candidate indices
    /// and the oracle's current maximum matching.
    pub fn extract_schedule(
        &self,
        inst: &Instance,
        candidates: &[CandidateInterval],
        chosen: &[usize],
    ) -> Schedule {
        let awake: Vec<CandidateInterval> = chosen.iter().map(|&i| candidates[i]).collect();
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
        self.red.num_candidates()
    }

    fn cost(&self, i: usize) -> f64 {
        self.red.cost_of(i)
    }

    fn current(&self) -> f64 {
        self.oracle.total()
    }

    fn gain(&self, i: usize, scratch: &mut Self::Scratch) -> f64 {
        scratch.ensure(self.token, self.red);
        self.fresh_run(self.red.run_of[i] as usize, scratch);
        scratch.memo_val[i]
    }

    fn groups(&self) -> &[(u32, u32)] {
        self.red.runs()
    }

    fn group_gains(&self, lo: usize, scratch: &mut Self::Scratch, out: &mut [f64]) {
        scratch.ensure(self.token, self.red);
        let r = self.red.run_of[lo] as usize;
        debug_assert_eq!(self.red.runs()[r], (lo as u32, (lo + out.len()) as u32));
        self.fresh_run(r, scratch);
        out.copy_from_slice(&scratch.memo_val[lo..lo + out.len()]);
    }

    fn commit(&mut self, i: usize) -> f64 {
        let before = self.oracle.revision();
        let gain = self.oracle.commit(self.red.slots_of(i));
        let mutated = self.oracle.revision() != before;
        if mutated {
            // the matching mutated: gains of candidates sharing a component
            // may have changed; everyone else's memo stays exact (the
            // matching rank decomposes over components, and zero-mutation
            // growth of S provably never moves any gain — see
            // `MatchingOracle::revision`)
            self.version += 1;
            for &c in self.red.comps_of(i) {
                self.comp_version[c as usize] = self.version;
            }
        }
        if sched_obs::trace::enabled() {
            let comps = self.red.comps_of(i);
            sched_obs::trace::instant(
                "core.commit",
                vec![
                    ("cand", i.into()),
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
            scratch.memo_hits += self.red.num_candidates() as u64 - refreshed;
        } else {
            for r in 0..runs.len() {
                self.fresh_run(r, scratch);
            }
        }
        out.clear();
        out.extend_from_slice(&scratch.memo_val);
    }

    /// Exact memoized gains for the runs whose memo is current, and
    /// `|slots_of(i)| ×` [`MatchingOracle::max_value`] for every other
    /// candidate: each slot raises the matching rank by at most one job's
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
        out.reserve(self.red.num_candidates());
        bounded.clear();
        for (r, &(lo, hi)) in self.red.runs().iter().enumerate() {
            let (lo, hi) = (lo as usize, hi as usize);
            if self.memo_current(r, scratch) {
                scratch.memo_hits += (hi - lo) as u64;
                out.extend_from_slice(&scratch.memo_val[lo..hi]);
            } else {
                out.extend((lo..hi).map(|i| self.red.slots_of(i).len() as f64 * max_value));
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
        assert_eq!(red.num_candidates(), cands.len());
        // enumerated families group by start: one run per (proc, start)
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
            obj.commit(round * 7 % cands.len());
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
        let on_p1 = (0..cands.len()).find(|&i| cands[i].proc == 1).unwrap();
        let on_p0 = (0..cands.len()).find(|&i| cands[i].proc == 0).unwrap();
        let run_p0 = red.run_of[on_p0] as usize;
        let run_p1 = red.run_of[on_p1] as usize;
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
            obj.commit(round * 5 % cands.len());
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
        let mut exact = Vec::new();
        obj.scan_gains(false, &mut ObjectiveScratch::default(), &mut exact);

        // Seed every run but the first: the parallel scan must replay the
        // seeded runs from this scratch, refresh only the first, and leave
        // the memo as current as the sequential scan does.
        let m = cands.len();
        let first_run = red.runs()[0].1 as usize;
        let clean: Vec<bool> = (0..m).map(|i| i >= first_run).collect();
        let mut scratch = ObjectiveScratch::default();
        obj.seed_memo(&mut scratch, &exact, &clean);
        let mut par = Vec::new();
        obj.scan_gains(true, &mut scratch, &mut par);
        assert_eq!(par, exact);
        let refreshed = first_run as u64;
        assert_eq!(scratch.memo_counts(), (m as u64 - refreshed, refreshed));
        let (mut again, mut bounded) = (Vec::new(), Vec::new());
        obj.first_values(false, &mut scratch, &mut again, &mut bounded);
        assert_eq!(again, exact);
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
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(v, red.slots_of(i).len() as f64 * 3.0, "candidate {i}");
        }
        assert_eq!(scratch.memo_counts(), (0, 0), "bounds evaluate nothing");

        // After a commit on processor 0, the run evaluated on processor 1
        // keeps its exact values, and every other first value still bounds
        // the current gain.
        let on_p1 = (0..cands.len()).find(|&i| cands[i].proc == 1).unwrap();
        let run_p1 = red.run_of[on_p1];
        let g = obj.gain(on_p1, &mut scratch);
        obj.commit((0..cands.len()).find(|&i| cands[i].proc == 0).unwrap());
        obj.first_values(false, &mut scratch, &mut vals, &mut bounded);
        assert!(!bounded.contains(&run_p1), "the evaluated run is exact");
        assert_eq!(vals[on_p1], g);
        let mut fresh = ObjectiveScratch::default();
        for &r in &bounded {
            let (lo, hi) = red.runs()[r as usize];
            for (i, &v) in vals.iter().enumerate().take(hi as usize).skip(lo as usize) {
                assert!(v >= obj.gain(i, &mut fresh), "candidate {i}");
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
