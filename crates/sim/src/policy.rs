//! Online scheduling policies and the decision interface they implement.
//!
//! A [`Policy`] is called once per time slot with a [`SlotView`] — the
//! causality-restricted window onto the trace (only released jobs are
//! visible) — and answers with a [`SlotDecision`]: which processors to keep
//! awake during the slot and which pending jobs to run on them. The
//! simulator in [`crate::replay()`] validates every decision, so a policy
//! cannot cheat (run an unreleased job, double-book a slot, run a job on a
//! sleeping processor).
//!
//! Three policies ship with the crate, spanning the design space the paper's
//! online chapter motivates:
//!
//! * [`GreedyWake`] — wake on demand, sleep when idle: runs every runnable
//!   pending job at its first opportunity (least-slack first) and never pays
//!   for an idle slot. Maximum restarts, zero idle energy.
//! * [`ThresholdHiring`] — secretary-style: serves eagerly while *observing*
//!   demand for a prefix of the horizon, then uses Dynkin's threshold rule
//!   (via [`secretary::classic_secretary`]) to commit to a hold-awake
//!   regime: once hired, awake processors are kept awake through idle gaps
//!   up to the restart/rate break-even point (the ski-rental rule for sleep
//!   states).
//! * [`PeriodicResolve`] — every `k` slots (and whenever a newly revealed
//!   job would expire before the next checkpoint), re-solves the revealed
//!   suffix with the offline `schedule_all` and follows that plan: over
//!   the enumerated family, or through its own [`sched_core::Solver`]
//!   carried from checkpoint to checkpoint (`:warm`).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use sched_core::{
    enumerate_candidates, schedule_all, CandidateInterval, CandidatePolicy, FreqLadder, Instance,
    Job, PowerProfile, ProfileCost, SlotRef, SolveOptions, Solver, TimedJob,
};
use sched_engine::Engine;
use secretary::classic_secretary;
use serde::{Deserialize, Serialize};

/// What a policy may see at one time slot: the clock, the trace geometry,
/// the *released* jobs, and yesterday's machine state. Constructed by the
/// simulator; policies cannot reach unreleased jobs through it.
pub struct SlotView<'a> {
    /// Current slot.
    pub now: u32,
    /// Number of processors.
    pub num_processors: u32,
    /// Horizon `T`.
    pub horizon: u32,
    /// Restart cost of the trace's affine model (the fleet-wide default;
    /// heterogeneous fleets answer per processor via
    /// [`SlotView::wake_cost`]).
    pub restart: f64,
    /// Per-slot rate of the trace's affine model (see
    /// [`SlotView::busy_rate`]).
    pub rate: f64,
    pub(crate) jobs: &'a [TimedJob],
    pub(crate) pending: &'a [usize],
    pub(crate) awake_prev: &'a [bool],
    /// One power profile per processor (the trace's, or the affine default
    /// cloned fleet-wide).
    pub(crate) profiles: &'a [PowerProfile],
    /// The trace's frequency ladder, when it is a DVFS trace. Awake runs
    /// are then re-priced by the simulator at the lowest level covering the
    /// heaviest job in the run, and idle holds burn the bottom level's
    /// power instead of the affine rate.
    pub(crate) freq_ladder: Option<&'a FreqLadder>,
}

impl SlotView<'_> {
    /// Ids of released, unscheduled, unexpired jobs (ascending).
    pub fn pending(&self) -> &[usize] {
        self.pending
    }

    /// The job data for a *released* job id.
    ///
    /// # Panics
    /// Panics if the job has not been released yet — the causality guard.
    pub fn job(&self, id: usize) -> &TimedJob {
        let j = &self.jobs[id];
        assert!(
            j.release <= self.now,
            "policy peeked at job {id} before its release ({} > {})",
            j.release,
            self.now
        );
        j
    }

    /// Was `proc` awake during the previous slot?
    pub fn was_awake(&self, proc: u32) -> bool {
        self.awake_prev[proc as usize]
    }

    /// The power profile of one processor.
    pub fn profile(&self, proc: u32) -> &PowerProfile {
        &self.profiles[proc as usize]
    }

    /// Full wake cost of `proc` (per-processor under heterogeneous fleets).
    pub fn wake_cost(&self, proc: u32) -> f64 {
        self.profiles[proc as usize].wake_cost
    }

    /// Per-slot awake rate of `proc`.
    pub fn busy_rate(&self, proc: u32) -> f64 {
        self.profiles[proc as usize].busy_rate
    }

    /// Largest idle streak worth bridging awake on `proc` — the ski-rental
    /// break-even against the cheapest sleep option (off, or any ladder
    /// state), capped at the horizon. Equals `ceil(restart / rate)` for the
    /// affine default profile. On a DVFS trace the idle burn is the bottom
    /// frequency's power, not the affine rate, so the break-even is
    /// `ceil(restart / P(f_min))`.
    pub fn hold_break_even(&self, proc: u32) -> u32 {
        if let Some(ladder) = self.freq_ladder {
            let idle_burn = ladder.level(0).power;
            let slots = (self.restart / idle_burn).ceil() as u32;
            return slots.max(1).min(self.horizon);
        }
        self.profiles[proc as usize].hold_break_even(self.horizon)
    }

    /// The trace's frequency ladder, when this is a DVFS trace.
    pub fn ladder(&self) -> Option<&FreqLadder> {
        self.freq_ladder
    }

    /// The lowest ladder level able to finish `work` units in one slot, or
    /// `None` when the trace has no ladder (or no level is fast enough).
    pub fn min_level_for(&self, work: u32) -> Option<usize> {
        self.freq_ladder.and_then(|l| l.min_level_for(work))
    }

    /// Processors on which `id` may run *right now* (sorted, deduped).
    pub fn runnable_procs(&self, id: usize) -> Vec<u32> {
        let mut procs: Vec<u32> = self
            .job(id)
            .allowed
            .iter()
            .filter(|s| s.time == self.now)
            .map(|s| s.proc)
            .collect();
        procs.sort_unstable();
        procs.dedup();
        procs
    }

    /// Number of allowed slots strictly after `now` — the job's remaining
    /// opportunities if it is not run in this slot.
    pub fn slack(&self, id: usize) -> usize {
        self.job(id)
            .allowed
            .iter()
            .filter(|s| s.time > self.now)
            .count()
    }
}

/// A policy's answer for one slot.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SlotDecision {
    /// Processors awake during this slot (sorted, deduped by the policy;
    /// the simulator validates).
    pub awake: Vec<u32>,
    /// `(job id, processor)` assignments executing in this slot. Every
    /// processor must appear in `awake` and at most once in `run`.
    pub run: Vec<(usize, u32)>,
}

/// Per-re-solve cost accounting for re-solving policies: warm/cold solve
/// counters plus wall-time statistics over the individual suffix solves.
/// Surfaced in [`crate::report::ReplayReport`] and the CLI aggregate table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResolveStats {
    /// Re-solves served by the incremental warm path (delta or
    /// instance-identity); always 0 when warm-start is off.
    pub warm: u64,
    /// Re-solves that rebuilt solver state from scratch (every re-solve when
    /// warm-start is off; the first solve and any resized grid when on).
    pub cold: u64,
    /// Total timed re-solves (`warm + cold`).
    pub count: u64,
    /// Summed wall time of all re-solves, nanoseconds.
    pub total_ns: u64,
    /// Median re-solve wall time, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile re-solve wall time, nanoseconds.
    pub p99_ns: u64,
}

/// An online scheduling policy: one decision per slot, under causality.
pub trait Policy: Send {
    /// Display name carried into reports.
    fn name(&self) -> String;

    /// Decides the current slot.
    fn decide(&mut self, view: &SlotView<'_>) -> SlotDecision;

    /// Policy-specific event count (re-solves, hiring commitments, …);
    /// reported as `events` in replay reports.
    fn events(&self) -> u64 {
        0
    }

    /// Re-solve accounting, for policies that re-solve ([`PeriodicResolve`]);
    /// `None` for everything else.
    fn resolve_stats(&self) -> Option<ResolveStats> {
        None
    }
}

/// Least-slack-first eager assignment: the shared work-horse of the
/// policies. Orders pending jobs by `(slack, id)` and places each on a free
/// allowed processor, preferring processors already woken this slot, then
/// processors awake in the previous slot, then the lowest index. With
/// `forced_only` set, only jobs out of slack (their last opportunity is this
/// slot) are placed — the deadline-rescue pass.
pub fn greedy_decision(view: &SlotView<'_>, forced_only: bool) -> SlotDecision {
    let mut order: Vec<usize> = view.pending().to_vec();
    order.sort_by_key(|&id| (view.slack(id), id));
    let mut used = vec![false; view.num_processors as usize];
    let mut decision = SlotDecision::default();
    for id in order {
        if forced_only && view.slack(id) > 0 {
            continue;
        }
        let pick = view
            .runnable_procs(id)
            .into_iter()
            .filter(|&p| !used[p as usize])
            .min_by_key(|&p| (!decision.awake.contains(&p), !view.was_awake(p), p));
        if let Some(p) = pick {
            used[p as usize] = true;
            if !decision.awake.contains(&p) {
                decision.awake.push(p);
            }
            decision.run.push((id, p));
        }
    }
    decision.awake.sort_unstable();
    decision
}

/// Wake on demand, sleep when idle: every runnable pending job runs at its
/// first opportunity; a processor is awake exactly when it executes a job.
/// The maximal-restart / zero-idle corner of the design space.
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedyWake;

impl Policy for GreedyWake {
    fn name(&self) -> String {
        "greedy".into()
    }

    fn decide(&mut self, view: &SlotView<'_>) -> SlotDecision {
        greedy_decision(view, false)
    }
}

/// Secretary-style threshold hiring.
///
/// For the first `observe_frac` of the horizon the policy serves jobs
/// eagerly (like [`GreedyWake`]) while recording the per-slot demand — the
/// total value of pending jobs runnable in that slot. After the observation
/// phase it applies Dynkin's rule through
/// [`secretary::classic_secretary`]: the first slot whose demand strictly
/// beats everything observed triggers the *hiring commitment*. From then on
/// the policy holds awake processors through idle gaps up to that
/// processor's break-even against its cheapest sleep option
/// ([`SlotView::hold_break_even`]: `min(wake/busy, min_k wake_k/(busy −
/// idle_k))` over the sleep ladder — `ceil(restart / rate)`, the classical
/// ski-rental bound, under the affine default), re-entering the hold
/// regime whenever demand beats the observed threshold again.
pub struct ThresholdHiring {
    observe_frac: f64,
    demand: Vec<f64>,
    hired: bool,
    commits: u64,
    idle_streak: Vec<u32>,
}

impl ThresholdHiring {
    /// The canonical observation fraction `1/e`.
    pub const INV_E: f64 = 0.36787944117144233;

    /// `observe_frac` is clamped to `[0, 0.9]`.
    pub fn new(observe_frac: f64) -> Self {
        Self {
            observe_frac: observe_frac.clamp(0.0, 0.9),
            demand: Vec::new(),
            hired: false,
            commits: 0,
            idle_streak: Vec::new(),
        }
    }

    fn cutoff(&self, horizon: u32) -> usize {
        (horizon as f64 * self.observe_frac).floor() as usize
    }
}

impl Default for ThresholdHiring {
    fn default() -> Self {
        Self::new(Self::INV_E)
    }
}

impl Policy for ThresholdHiring {
    fn name(&self) -> String {
        format!("hiring:{:.3}", self.observe_frac)
    }

    fn decide(&mut self, view: &SlotView<'_>) -> SlotDecision {
        let t = view.now as usize;
        let cutoff = self.cutoff(view.horizon);
        self.idle_streak.resize(view.num_processors as usize, 0);
        let demand_now: f64 = view
            .pending()
            .iter()
            .filter(|&&id| !view.runnable_procs(id).is_empty())
            .map(|&id| view.job(id).value)
            .sum();
        self.demand.push(demand_now);

        let mut decision = greedy_decision(view, false);

        if t >= cutoff && !self.hired {
            // Dynkin's rule on the demand stream revealed so far. The
            // fraction is chosen so classic_secretary's internal cutoff is
            // exactly ours; Some(t) means this very slot is the first whose
            // demand strictly beats the whole observation phase.
            let frac = (cutoff as f64 + 0.5) / (t + 1) as f64;
            if classic_secretary(&self.demand, frac) == Some(t) {
                self.hired = true;
                self.commits += 1;
            }
        }

        if self.hired {
            // Hold-awake regime: keep yesterday's awake processors awake
            // through idle gaps shorter than that processor's break-even
            // against its cheapest sleep option (per-processor under
            // heterogeneous fleets; ceil(restart/rate) for the affine
            // default).
            for p in 0..view.num_processors {
                let running = decision.awake.contains(&p);
                if running {
                    self.idle_streak[p as usize] = 0;
                } else if view.was_awake(p)
                    && self.idle_streak[p as usize] < view.hold_break_even(p)
                {
                    self.idle_streak[p as usize] += 1;
                    decision.awake.push(p);
                }
            }
            decision.awake.sort_unstable();
        }
        decision
    }

    fn events(&self) -> u64 {
        self.commits
    }
}

/// How [`PeriodicResolve`] runs its suffix solves.
enum Resolver {
    /// On the policy's thread: enumerate the suffix's candidate family and
    /// run the free `schedule_all` over it, keeping nothing between
    /// checkpoints.
    Family,
    /// On the policy's thread, through one [`Solver`] carried from
    /// checkpoint to checkpoint: each re-solve rebuilds the reduction in
    /// place from the slot windows (profile pricing is
    /// inclusion-monotone), enumerating no family. Bit-identical to
    /// [`Resolver::Family`] by construction.
    Warm(Box<Solver>),
}

/// Re-solve the revealed suffix every `period` slots through the offline
/// solver stack, then follow the plan.
///
/// At each checkpoint (and early, whenever a newly revealed job would expire
/// before the next checkpoint while still having a future slot to plan) the
/// policy builds an [`Instance`] from all pending jobs with their remaining
/// windows and solves `schedule_all` over the full grid on the replaying
/// thread. The resulting schedule *is* the plan: awake intervals (clamped
/// to the present) and per-job slot assignments, followed verbatim until
/// the next re-solve. A forced-job rescue pass backstops
/// arrivals the plan missed — a job revealed at its very last opportunity
/// is placed directly on a free allowed processor when a dry run proves the
/// rescue will succeed (skipping a suffix re-solve it would not need), and
/// triggers the full re-solve otherwise, since re-planning can move the
/// occupying job to a later slot — and an infeasible suffix degrades to
/// eager greedy for one slot.
///
/// Unlike the eager policies, plan-following *defers* jobs toward cheap
/// merged intervals — so an adversarial late arrival can collide with a
/// deferred job in a way no re-solve can repair (the early slots the
/// offline optimum would have used are already in the past). Such losses
/// are intrinsic to deferral, are counted in
/// [`ReplayOutcome::dropped`](crate::replay::ReplayOutcome::dropped), and
/// show up as `fallbacks` here.
pub struct PeriodicResolve {
    period: u32,
    resolver: Resolver,
    next_resolve: u32,
    plan_awake: Vec<CandidateInterval>,
    plan_assign: HashMap<usize, SlotRef>,
    /// Set when the last re-solve found the suffix infeasible; until the
    /// next checkpoint the policy serves eagerly instead of following a
    /// (nonexistent) plan.
    degraded: bool,
    resolves: u64,
    fallbacks: u64,
    /// Wall time of each suffix re-solve, nanoseconds, in call order.
    solve_ns: Vec<u64>,
    /// The last re-solve's suffix instance, its jobs' trace ids and its
    /// price, rewritten in place by the next re-solve.
    suffix: Instance,
    ids: Vec<usize>,
    cost: ProfileCost,
    /// Jobs past the pending count, kept for their slot buffers.
    spare: Vec<Job>,
}

impl PeriodicResolve {
    /// Re-solve every `period` slots (`period >= 1`), solving inline over
    /// the enumerated family.
    pub fn new(period: u32) -> Self {
        Self {
            period: period.max(1),
            resolver: Resolver::Family,
            next_resolve: 0,
            plan_awake: Vec::new(),
            plan_assign: HashMap::new(),
            degraded: false,
            resolves: 0,
            fallbacks: 0,
            solve_ns: Vec::new(),
            suffix: Instance::new(0, 0, Vec::new()),
            ids: Vec::new(),
            cost: ProfileCost::new(&[]),
            spare: Vec::new(),
        }
    }

    /// Same policy, with incremental warm-start re-solving: a private
    /// [`Solver`] carries the reduction's buffers from one checkpoint to
    /// the next. Decisions are bit-identical to [`PeriodicResolve::new`].
    pub fn new_warm(period: u32) -> Self {
        Self {
            resolver: Resolver::Warm(Box::new(Solver::new(CandidatePolicy::All))),
            ..Self::new(period)
        }
    }

    /// Warm/cold solve counts of the private solver, when warm-start is on.
    pub fn warm_stats(&self) -> Option<sched_core::WarmStats> {
        match &self.resolver {
            Resolver::Warm(solver) => Some(solver.stats()),
            Resolver::Family => None,
        }
    }

    /// Number of suffix re-solves performed so far.
    pub fn resolves(&self) -> u64 {
        self.resolves
    }

    /// Number of slots that fell back to eager greedy (infeasible suffix).
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// First-free-processor allocation of forced unplanned jobs (ascending
    /// id): the single implementation behind both the rescue pass and its
    /// predictive dry run in `decide` — they must agree exactly, or the dry
    /// run could predict a rescue that then fails and silently drops a job
    /// the skipped re-solve would have saved. `used` marks processors the
    /// plan already occupies this slot. Returns the placements and whether
    /// every forced job found a processor.
    fn rescue_placements(
        &self,
        view: &SlotView<'_>,
        mut used: Vec<bool>,
    ) -> (Vec<(usize, u32)>, bool) {
        let mut forced: Vec<usize> = view
            .pending()
            .iter()
            .copied()
            .filter(|id| !self.plan_assign.contains_key(id) && view.slack(*id) == 0)
            .collect();
        forced.sort_unstable();
        let mut placed = Vec::new();
        let mut complete = true;
        for id in forced {
            match view
                .runnable_procs(id)
                .into_iter()
                .find(|&p| !used[p as usize])
            {
                Some(p) => {
                    used[p as usize] = true;
                    placed.push((id, p));
                }
                None => complete = false,
            }
        }
        (placed, complete)
    }

    /// Processors occupied this slot by plan-assigned pending jobs.
    fn plan_used_now(&self, view: &SlotView<'_>) -> Vec<bool> {
        let mut used = vec![false; view.num_processors as usize];
        for &id in view.pending() {
            if let Some(slot) = self.plan_assign.get(&id) {
                if slot.time == view.now {
                    used[slot.proc as usize] = true;
                }
            }
        }
        used
    }

    /// Rewrites the suffix instance as every pending job with its allowed
    /// slots from `view.now` on, and `ids` as their trace ids, in the
    /// buffers of the previous re-solve.
    fn fill_suffix(&mut self, view: &SlotView<'_>) {
        self.ids.clear();
        self.ids.extend_from_slice(view.pending());
        let inst = &mut self.suffix;
        inst.num_processors = view.num_processors;
        inst.horizon = view.horizon;
        let jobs = &mut inst.jobs;
        let n = self.ids.len();
        self.spare.extend(jobs.drain(n.min(jobs.len())..));
        while jobs.len() < n {
            jobs.push(self.spare.pop().unwrap_or_else(|| Job::unit(Vec::new())));
        }
        for (job, &id) in jobs.iter_mut().zip(&self.ids) {
            let j = view.job(id);
            job.value = j.value;
            job.allowed.clear();
            let future = j.allowed.iter().filter(|s| s.time >= view.now);
            job.allowed.extend(future);
            job.work = None;
        }
    }

    fn resolve(&mut self, view: &SlotView<'_>) {
        self.plan_awake.clear();
        self.plan_assign.clear();
        self.degraded = false;
        self.next_resolve = view.now + self.period;
        if view.pending().is_empty() {
            return;
        }
        self.resolves += 1;

        self.fill_suffix(view);
        let (inst, ids) = (&self.suffix, &self.ids);

        let started = Instant::now();
        // Re-solves price per processor profile; bit-identical to the
        // affine (restart, rate) oracle when the trace has no explicit
        // profiles.
        let cost = &mut self.cost;
        cost.set_profiles(view.profiles);
        let solved = match &mut self.resolver {
            Resolver::Family => {
                let family = enumerate_candidates(inst, cost, CandidatePolicy::All);
                schedule_all(inst, &family, &SolveOptions::default()).ok()
            }
            Resolver::Warm(solver) => solver.schedule_all(inst, cost).ok(),
        };
        let elapsed_ns = started.elapsed().as_nanos() as u64;
        self.solve_ns.push(elapsed_ns);
        sched_obs::record_ns("sim.resolve.latency_ns", elapsed_ns);
        if sched_obs::trace::enabled() {
            // Per-resolve decision event: what was re-solved, through which
            // resolver, and whether the suffix came back feasible.
            let resolver = match self.resolver {
                Resolver::Family => "family",
                Resolver::Warm(_) => "warm",
            };
            sched_obs::trace::instant(
                "sim.policy.resolve",
                vec![
                    ("now", u64::from(view.now).into()),
                    ("pending", ids.len().into()),
                    ("resolver", resolver.into()),
                    ("feasible", u64::from(solved.is_some()).into()),
                    ("latency_ns", elapsed_ns.into()),
                ],
            );
        }
        let Some(schedule) = solved else {
            // Infeasible suffix: serve eagerly until the next slot's retry.
            self.degraded = true;
            self.next_resolve = view.now + 1;
            self.fallbacks += 1;
            return;
        };

        for iv in &schedule.awake {
            let mut iv = *iv;
            iv.start = iv.start.max(view.now);
            if iv.start < iv.end {
                self.plan_awake.push(iv);
            }
        }
        for (i, asg) in schedule.assignments.iter().enumerate() {
            if let Some(slot) = asg {
                self.plan_assign.insert(ids[i], *slot);
            }
        }
    }
}

impl Policy for PeriodicResolve {
    fn name(&self) -> String {
        if let Resolver::Warm(_) = self.resolver {
            format!("resolve:{}:warm", self.period)
        } else {
            format!("resolve:{}", self.period)
        }
    }

    fn decide(&mut self, view: &SlotView<'_>) -> SlotDecision {
        // An unplanned job that would expire before the next checkpoint
        // triggers an early re-solve — except when its final opportunity is
        // *this very slot* and a dry run shows the rescue pass below will
        // place it on a processor the plan leaves free: then the rescue is
        // guaranteed to serve it without the cost of a suffix re-solve.
        // When the dry run fails (all its allowed processors are taken by
        // planned jobs) the full re-solve still fires — a re-solve CAN save
        // such a job by reshuffling the occupying plan entry to a later
        // slot, so skipping it unconditionally would drop jobs the
        // re-solve path serves.
        let future_expiring = view.pending().iter().any(|&id| {
            !self.plan_assign.contains_key(&id)
                && view
                    .job(id)
                    .deadline()
                    .is_some_and(|d| d < self.next_resolve && d > view.now)
        });
        let rescue_would_fail =
            !future_expiring && !self.rescue_placements(view, self.plan_used_now(view)).1;
        if view.now >= self.next_resolve || future_expiring || rescue_would_fail {
            self.resolve(view);
        }

        if self.degraded {
            // Last re-solve found the suffix infeasible: serve eagerly.
            return greedy_decision(view, false);
        }

        let mut used = vec![false; view.num_processors as usize];
        let mut decision = SlotDecision::default();
        for &id in view.pending() {
            if let Some(slot) = self.plan_assign.get(&id) {
                if slot.time == view.now && !used[slot.proc as usize] {
                    used[slot.proc as usize] = true;
                    decision.run.push((id, slot.proc));
                }
            }
        }
        for p in 0..view.num_processors {
            let planned_awake = self.plan_awake.iter().any(|iv| iv.covers(p, view.now));
            if planned_awake || used[p as usize] {
                decision.awake.push(p);
            }
        }

        // Rescue pass: forced jobs the plan missed (released after the last
        // re-solve, at their final opportunity) are placed on free allowed
        // processors rather than dropped — via the same allocation the dry
        // run above predicted with.
        for (id, p) in self.rescue_placements(view, used).0 {
            if !decision.awake.contains(&p) {
                decision.awake.push(p);
            }
            decision.run.push((id, p));
        }
        decision.awake.sort_unstable();
        decision
    }

    fn events(&self) -> u64 {
        self.resolves
    }

    fn resolve_stats(&self) -> Option<ResolveStats> {
        let mut sorted = self.solve_ns.clone();
        sorted.sort_unstable();
        // Nearest-rank percentiles (the workspace-wide rule, shared with
        // `sched_obs` histograms): rank ⌈q·n⌉, zero when there are no
        // samples. With one sample every percentile is that sample; with
        // two, p50 is the smaller and p99 the larger.
        let pct = |q: f64| match sched_obs::nearest_rank_index(sorted.len(), q) {
            Some(i) => sorted[i],
            None => 0,
        };
        let (warm, cold) = match self.warm_stats() {
            Some(stats) => (stats.warm, stats.cold),
            None => (0, self.resolves),
        };
        Some(ResolveStats {
            warm,
            cold,
            count: self.solve_ns.len() as u64,
            total_ns: self.solve_ns.iter().sum(),
            p50_ns: pct(0.50),
            p99_ns: pct(0.99),
        })
    }
}

/// Parseable policy selector — the `--policy` flag of `power-sched replay`.
#[derive(Clone, Debug, PartialEq)]
pub enum PolicyKind {
    /// [`GreedyWake`].
    Greedy,
    /// [`ThresholdHiring`] with the given observation fraction.
    Hiring {
        /// Fraction of the horizon observed before hiring.
        observe_frac: f64,
    },
    /// [`PeriodicResolve`] with the given re-solve period.
    Resolve {
        /// Slots between suffix re-solves.
        period: u32,
        /// Incremental warm-start re-solving (bit-identical decisions,
        /// faster re-solves). Off by default.
        warm: bool,
    },
}

impl PolicyKind {
    /// Instantiates the policy. Every re-solve runs on the replaying
    /// thread. The `engine` argument is ignored; it survives only because
    /// `perfbench/` spells `build(None)`.
    pub fn build(&self, _engine: Option<&Arc<Engine>>) -> Box<dyn Policy> {
        match *self {
            PolicyKind::Greedy => Box::new(GreedyWake),
            PolicyKind::Hiring { observe_frac } => Box::new(ThresholdHiring::new(observe_frac)),
            PolicyKind::Resolve { period, warm: true } => {
                Box::new(PeriodicResolve::new_warm(period))
            }
            PolicyKind::Resolve {
                period,
                warm: false,
            } => Box::new(PeriodicResolve::new(period)),
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyKind::Greedy => write!(f, "greedy"),
            PolicyKind::Hiring { observe_frac } => write!(f, "hiring:{observe_frac:.3}"),
            PolicyKind::Resolve {
                period,
                warm: false,
            } => write!(f, "resolve:{period}"),
            PolicyKind::Resolve { period, warm: true } => write!(f, "resolve:{period}:warm"),
        }
    }
}

impl std::str::FromStr for PolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "greedy" => Ok(PolicyKind::Greedy),
            "hiring" => Ok(PolicyKind::Hiring {
                observe_frac: ThresholdHiring::INV_E,
            }),
            "resolve" => Ok(PolicyKind::Resolve {
                period: 4,
                warm: false,
            }),
            other => {
                if let Some(f) = other.strip_prefix("hiring:") {
                    let observe_frac: f64 = f
                        .parse()
                        .map_err(|e| format!("bad observe fraction in '{other}': {e}"))?;
                    if !(0.0..=0.9).contains(&observe_frac) {
                        return Err(format!("observe fraction {observe_frac} outside [0, 0.9]"));
                    }
                    Ok(PolicyKind::Hiring { observe_frac })
                } else if let Some(k) = other.strip_prefix("resolve:") {
                    let (k, warm) = match k.strip_suffix(":warm") {
                        Some(k) => (k, true),
                        None => (k, false),
                    };
                    let period: u32 = k
                        .parse()
                        .map_err(|e| format!("bad period in '{other}': {e}"))?;
                    if period == 0 {
                        return Err("resolve period must be positive".into());
                    }
                    Ok(PolicyKind::Resolve { period, warm })
                } else {
                    Err(format!(
                        "unknown policy '{other}' (expected greedy, hiring[:F], or resolve[:K[:warm]])"
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_kind_parse_and_display() {
        assert_eq!("greedy".parse::<PolicyKind>().unwrap(), PolicyKind::Greedy);
        assert_eq!(
            "resolve:8".parse::<PolicyKind>().unwrap(),
            PolicyKind::Resolve {
                period: 8,
                warm: false
            }
        );
        assert_eq!(
            "resolve:8:warm".parse::<PolicyKind>().unwrap(),
            PolicyKind::Resolve {
                period: 8,
                warm: true
            }
        );
        assert_eq!(
            "hiring:0.5".parse::<PolicyKind>().unwrap(),
            PolicyKind::Hiring { observe_frac: 0.5 }
        );
        assert!(matches!(
            "hiring".parse::<PolicyKind>().unwrap(),
            PolicyKind::Hiring { .. }
        ));
        assert!(matches!(
            "resolve".parse::<PolicyKind>().unwrap(),
            PolicyKind::Resolve {
                period: 4,
                warm: false
            }
        ));
        for bad in [
            "",
            "bogus",
            "resolve:0",
            "resolve:x",
            "resolve:4:tepid",
            "hiring:2.0",
        ] {
            assert!(bad.parse::<PolicyKind>().is_err(), "{bad} should not parse");
        }
        assert_eq!(
            PolicyKind::Resolve {
                period: 4,
                warm: false
            }
            .to_string(),
            "resolve:4"
        );
        assert_eq!(
            PolicyKind::Resolve {
                period: 2,
                warm: true
            }
            .to_string(),
            "resolve:2:warm"
        );
        assert_eq!(PolicyKind::Greedy.to_string(), "greedy");
    }

    #[test]
    fn resolve_stats_percentiles_follow_nearest_rank_on_tiny_samples() {
        // Zero samples: every field is zero, not a panic or a garbage index.
        let mut p = PeriodicResolve::new(4);
        let s = p.resolve_stats().unwrap();
        assert_eq!((s.count, s.total_ns, s.p50_ns, s.p99_ns), (0, 0, 0, 0));

        // One sample: every percentile is that sample (rank ⌈q·1⌉ = 1).
        p.solve_ns = vec![700];
        let s = p.resolve_stats().unwrap();
        assert_eq!((s.count, s.total_ns), (1, 700));
        assert_eq!((s.p50_ns, s.p99_ns), (700, 700));

        // Two samples: p50 is the smaller (rank ⌈0.5·2⌉ = 1), p99 the
        // larger (rank ⌈0.99·2⌉ = 2) — the rule the old round()-based
        // formula got wrong by mapping p50 of two samples to the larger.
        p.solve_ns = vec![900, 100];
        let s = p.resolve_stats().unwrap();
        assert_eq!((s.count, s.total_ns), (2, 1000));
        assert_eq!((s.p50_ns, s.p99_ns), (100, 900));

        // A larger check against the shared rule directly.
        p.solve_ns = (1..=100).rev().collect();
        let s = p.resolve_stats().unwrap();
        assert_eq!(s.p50_ns, 50);
        assert_eq!(s.p99_ns, 99);
    }

    #[test]
    fn greedy_decision_prefers_already_awake_processors() {
        let jobs = vec![
            TimedJob::window(1.0, 0, 0, 0, 4),
            TimedJob::window(1.0, 0, 1, 0, 4),
        ];
        let pending = vec![0usize, 1];
        let awake_prev = vec![false, true];
        let profiles = vec![PowerProfile::affine(3.0, 1.0); 2];
        let view = SlotView {
            now: 0,
            num_processors: 2,
            horizon: 4,
            restart: 3.0,
            rate: 1.0,
            jobs: &jobs,
            pending: &pending,
            awake_prev: &awake_prev,
            profiles: &profiles,
            freq_ladder: None,
        };
        // each job is single-processor here, so both procs get used
        let d = greedy_decision(&view, false);
        assert_eq!(d.awake, vec![0, 1]);
        assert_eq!(d.run.len(), 2);

        // a two-processor job prefers the previously awake processor
        let jobs = vec![TimedJob {
            release: 0,
            value: 1.0,
            allowed: vec![SlotRef::new(0, 0), SlotRef::new(1, 0)],
            work: None,
        }];
        let pending = vec![0usize];
        let view = SlotView {
            now: 0,
            num_processors: 2,
            horizon: 4,
            restart: 3.0,
            rate: 1.0,
            jobs: &jobs,
            pending: &pending,
            awake_prev: &awake_prev,
            profiles: &profiles,
            freq_ladder: None,
        };
        let d = greedy_decision(&view, false);
        assert_eq!(d.run, vec![(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "before its release")]
    fn view_enforces_causality() {
        let jobs = vec![TimedJob::window(1.0, 5, 0, 5, 8)];
        let pending: Vec<usize> = vec![];
        let awake_prev = vec![false];
        let profiles = vec![PowerProfile::affine(1.0, 1.0)];
        let view = SlotView {
            now: 2,
            num_processors: 1,
            horizon: 8,
            restart: 1.0,
            rate: 1.0,
            jobs: &jobs,
            pending: &pending,
            awake_prev: &awake_prev,
            profiles: &profiles,
            freq_ladder: None,
        };
        let _ = view.job(0);
    }
}
