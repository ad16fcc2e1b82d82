//! The discrete-event replay loop: clock, causality, validation, and energy
//! accounting.
//!
//! [`replay`] owns the clock. At each slot it reveals the jobs released at
//! that instant, hands the policy a causality-restricted [`SlotView`], and
//! validates the returned [`SlotDecision`] before committing it: a job must
//! be pending and allowed on its assigned (processor, slot), processors
//! must not be double-booked, and every executing processor must be awake.
//! Awake slots are folded into maximal per-processor runs, each priced by
//! the trace's affine cost model exactly as the offline optimizer would
//! price the same interval — so online and offline costs are directly
//! comparable. On a DVFS trace each run is instead priced at the lowest
//! ladder level whose frequency covers the heaviest job executed in the
//! run (`wake + P(f_ℓ) · len`, the bottom level when the run is idle),
//! which keeps every run a feasible awake interval of the compiled
//! offline DVFS problem. The finished replay is packaged as an ordinary
//! [`Schedule`] plus the [`PowerTrace`] machine-state timeline from
//! [`sched_core::simulate()`].

use sched_core::simulate::{simulate, PowerTrace};
use sched_core::trace::{ArrivalTrace, TraceError};
use sched_core::{CandidateInterval, EnergyCost, FreqLadder, PowerProfile, Schedule, SlotRef};

use crate::policy::{Policy, ResolveStats, SlotDecision, SlotView};

/// Why a replay failed.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// The trace failed [`ArrivalTrace::validate`].
    Trace(TraceError),
    /// The policy returned an invalid decision (the message names the
    /// offending job/processor and slot).
    PolicyViolation {
        /// Slot at which the violation happened.
        slot: u32,
        /// Human-readable description.
        message: String,
    },
    /// The offline reference solve failed (the trace is offline-infeasible).
    OfflineInfeasible(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Trace(e) => write!(f, "invalid trace: {e}"),
            SimError::PolicyViolation { slot, message } => {
                write!(f, "policy violation at slot {slot}: {message}")
            }
            SimError::OfflineInfeasible(m) => write!(f, "offline reference infeasible: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<TraceError> for SimError {
    fn from(e: TraceError) -> Self {
        SimError::Trace(e)
    }
}

/// Everything a finished replay produced.
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// The online schedule: maximal awake runs (priced like offline
    /// candidates) and per-job assignments, indexed like the trace's jobs.
    pub schedule: Schedule,
    /// Machine-state timeline, restarts, and utilization — from
    /// [`sched_core::simulate()`] on the online schedule.
    pub power: PowerTrace,
    /// Jobs whose windows expired unscheduled (trace job ids, ascending).
    pub dropped: Vec<usize>,
    /// The policy's event counter (re-solves, hiring commitments, …).
    pub events: u64,
    /// Re-solve accounting (warm/cold split and per-re-solve wall time) for
    /// policies that re-solve; `None` for the eager policies.
    pub resolve_stats: Option<ResolveStats>,
    /// Display name of the policy that produced this outcome.
    pub policy: String,
}

impl ReplayOutcome {
    /// Total online energy cost (sum of the priced awake runs).
    pub fn online_cost(&self) -> f64 {
        self.schedule.total_cost
    }
}

/// Replays `trace` through `policy`, enforcing causality and validating
/// every decision. Deterministic: the same trace and policy configuration
/// always produce the identical outcome, bit for bit.
pub fn replay(trace: &ArrivalTrace, policy: &mut dyn Policy) -> Result<ReplayOutcome, SimError> {
    trace.validate()?;
    let p = trace.num_processors as usize;
    // Awake runs are priced through the trace's per-processor profiles;
    // without explicit profiles this is bit-identical to the affine
    // (restart, rate) model replays always used.
    let profiles: Vec<PowerProfile> = trace.fleet_profiles();
    let cost = trace.cost_model();
    let ladder = trace.freq_ladder.as_ref();

    // Job ids ordered by (release, id): the released prefix grows with t.
    let mut order: Vec<usize> = (0..trace.jobs.len()).collect();
    order.sort_by_key(|&id| (trace.jobs[id].release, id));
    let mut next_release = 0usize;

    let mut pending: Vec<usize> = Vec::new();
    let mut assignments: Vec<Option<SlotRef>> = vec![None; trace.jobs.len()];
    let mut dropped: Vec<usize> = Vec::new();
    let mut awake_prev = vec![false; p];
    let mut run_start: Vec<Option<u32>> = vec![None; p];
    // Heaviest work requirement executed in the current run of each
    // processor (0 while the run is idle) — fixes the DVFS level the run
    // is priced at when it closes.
    let mut run_max_work: Vec<u32> = vec![0; p];
    let mut runs: Vec<CandidateInterval> = Vec::new();

    for now in 0..trace.horizon {
        while next_release < order.len() && trace.jobs[order[next_release]].release == now {
            pending.push(order[next_release]);
            next_release += 1;
        }
        pending.sort_unstable();

        let decision = {
            let _span = sched_obs::span!("sim.decide.latency_ns");
            let view = SlotView {
                now,
                num_processors: trace.num_processors,
                horizon: trace.horizon,
                restart: trace.restart,
                rate: trace.rate,
                jobs: &trace.jobs,
                pending: &pending,
                awake_prev: &awake_prev,
                profiles: &profiles,
                freq_ladder: ladder,
            };
            policy.decide(&view)
        };
        if sched_obs::trace::enabled() {
            // Slot-by-slot narration: what the policy chose to run and keep
            // awake, next to the spans of the solve that produced the plan.
            sched_obs::trace::instant(
                "sim.slot.decision",
                vec![
                    ("now", u64::from(now).into()),
                    ("pending", pending.len().into()),
                    ("run", decision.run.len().into()),
                    ("awake", decision.awake.len().into()),
                ],
            );
        }
        let awake_now = validate_decision(trace, &pending, &decision, now)?;

        for &(id, proc) in &decision.run {
            assignments[id] = Some(SlotRef::new(proc, now));
            pending.retain(|&x| x != id);
            let w = trace.jobs[id].work_units();
            run_max_work[proc as usize] = run_max_work[proc as usize].max(w);
        }
        // Expiry: pending jobs with no opportunity left after this slot.
        pending.retain(|&id| {
            let alive = trace.jobs[id].allowed.iter().any(|s| s.time > now);
            if !alive {
                dropped.push(id);
            }
            alive
        });

        // Fold awake flags into maximal per-processor runs.
        for proc in 0..p {
            match (run_start[proc], awake_now[proc]) {
                (None, true) => run_start[proc] = Some(now),
                (Some(start), false) => {
                    runs.push(priced_run(
                        &cost,
                        ladder,
                        trace.restart,
                        proc as u32,
                        start,
                        now,
                        run_max_work[proc],
                    ));
                    run_start[proc] = None;
                    run_max_work[proc] = 0;
                }
                _ => {}
            }
        }
        awake_prev = awake_now;
    }
    for (proc, start) in run_start.iter().enumerate() {
        if let Some(start) = start {
            runs.push(priced_run(
                &cost,
                ladder,
                trace.restart,
                proc as u32,
                *start,
                trace.horizon,
                run_max_work[proc],
            ));
        }
    }
    runs.sort_by_key(|iv| (iv.proc, iv.start));
    dropped.sort_unstable();

    let scheduled_value: f64 = assignments
        .iter()
        .enumerate()
        .filter(|(_, a)| a.is_some())
        .map(|(id, _)| trace.jobs[id].value)
        .sum();
    let scheduled_count = assignments.iter().flatten().count();
    let schedule = Schedule {
        total_cost: runs.iter().map(|iv| iv.cost).sum(),
        awake: runs,
        assignments,
        scheduled_value,
        scheduled_count,
    };
    let power = simulate(&trace.to_instance(), &schedule);

    Ok(ReplayOutcome {
        schedule,
        power,
        dropped,
        events: policy.events(),
        resolve_stats: policy.resolve_stats(),
        policy: policy.name(),
    })
}

fn priced_run(
    cost: &dyn EnergyCost,
    ladder: Option<&FreqLadder>,
    wake: f64,
    proc: u32,
    start: u32,
    end: u32,
    max_work: u32,
) -> CandidateInterval {
    let cost = match ladder {
        // DVFS pricing: the whole run holds the lowest level whose
        // frequency covers the heaviest job it executed (the bottom level
        // when idle). Trace validation caps work at the top frequency, so
        // a sufficient level always exists.
        Some(ladder) => {
            let level = ladder
                .min_level_for(max_work.max(1))
                .expect("trace validation caps work at the top frequency");
            wake + ladder.level(level).power * (end - start) as f64
        }
        None => cost.cost(proc, start, end),
    };
    CandidateInterval {
        proc,
        start,
        end,
        cost,
    }
}

/// Checks a decision and returns the per-processor awake flags for the slot.
fn validate_decision(
    trace: &ArrivalTrace,
    pending: &[usize],
    decision: &SlotDecision,
    now: u32,
) -> Result<Vec<bool>, SimError> {
    let p = trace.num_processors as usize;
    let violation = |message: String| SimError::PolicyViolation { slot: now, message };

    let mut awake_now = vec![false; p];
    for &proc in &decision.awake {
        if proc as usize >= p {
            return Err(violation(format!("awake processor {proc} out of range")));
        }
        awake_now[proc as usize] = true;
    }
    let mut proc_used = vec![false; p];
    let mut job_used = std::collections::HashSet::new();
    for &(id, proc) in &decision.run {
        if proc as usize >= p {
            return Err(violation(format!(
                "job {id} assigned to bad processor {proc}"
            )));
        }
        if !awake_now[proc as usize] {
            return Err(violation(format!(
                "job {id} runs on sleeping processor {proc}"
            )));
        }
        if proc_used[proc as usize] {
            return Err(violation(format!("processor {proc} double-booked")));
        }
        proc_used[proc as usize] = true;
        if !job_used.insert(id) {
            return Err(violation(format!("job {id} scheduled twice in one slot")));
        }
        if !pending.contains(&id) {
            return Err(violation(format!(
                "job {id} is not pending (unreleased, already scheduled, or expired)"
            )));
        }
        if !trace.jobs[id].allowed.contains(&SlotRef::new(proc, now)) {
            return Err(violation(format!(
                "job {id} not allowed on processor {proc} at slot {now}"
            )));
        }
    }
    Ok(awake_now)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{GreedyWake, PeriodicResolve, PolicyKind, ThresholdHiring};
    use sched_core::model::validate_schedule;
    use sched_core::trace::TimedJob;

    fn two_burst_trace() -> ArrivalTrace {
        // Burst at t=0 (two jobs, tight windows) and a late job at t=6.
        ArrivalTrace {
            name: "two-burst".into(),
            num_processors: 1,
            horizon: 10,
            restart: 4.0,
            rate: 1.0,
            jobs: vec![
                TimedJob::window(1.0, 0, 0, 0, 3),
                TimedJob::window(1.0, 0, 0, 0, 3),
                TimedJob::window(1.0, 6, 0, 6, 9),
            ],
            profiles: None,
            freq_ladder: None,
        }
    }

    #[test]
    fn greedy_completes_and_accounts_cost() {
        let trace = two_burst_trace();
        let out = replay(&trace, &mut GreedyWake).unwrap();
        assert!(out.dropped.is_empty(), "dropped {:?}", out.dropped);
        assert_eq!(out.schedule.scheduled_count, 3);
        // Greedy runs jobs at t=0,1 (one run [0,2)) and t=6 ([6,7)):
        // cost (4+2) + (4+1) = 11.
        assert_eq!(out.online_cost(), 11.0);
        assert_eq!(out.power.restarts.iter().sum::<usize>(), 2);
        // The online schedule is a valid offline schedule of the instance.
        assert!(validate_schedule(&trace.to_instance(), &out.schedule).is_empty());
    }

    #[test]
    fn all_policies_produce_valid_schedules() {
        let trace = two_burst_trace();
        for kind in ["greedy", "hiring", "resolve:3"] {
            let kind: PolicyKind = kind.parse().unwrap();
            let mut policy = kind.build(None);
            let out = replay(&trace, policy.as_mut()).unwrap();
            assert!(out.dropped.is_empty(), "{kind}: dropped {:?}", out.dropped);
            assert_eq!(out.schedule.scheduled_count, 3, "{kind}");
            assert!(
                validate_schedule(&trace.to_instance(), &out.schedule).is_empty(),
                "{kind}: invalid schedule"
            );
        }
    }

    #[test]
    fn resolve_plans_ahead_and_counts_resolves() {
        let trace = two_burst_trace();
        let mut policy = PeriodicResolve::new(3);
        let out = replay(&trace, &mut policy).unwrap();
        assert!(policy.resolves() >= 2, "resolves {}", policy.resolves());
        assert_eq!(policy.fallbacks(), 0);
        assert_eq!(out.events, policy.resolves());
        assert_eq!(out.schedule.scheduled_count, 3);
    }

    #[test]
    fn hiring_holds_processors_awake_after_commitment() {
        // Steady demand after the observation phase: hiring should pay
        // fewer restarts than greedy at the price of idle slots.
        let trace = ArrivalTrace {
            name: "steady".into(),
            num_processors: 1,
            horizon: 12,
            restart: 6.0,
            rate: 1.0,
            jobs: (0..5)
                .map(|i| TimedJob::window(1.0 + i as f64, 2 * i, 0, 2 * i, 2 * i + 2))
                .collect(),
            profiles: None,
            freq_ladder: None,
        };
        let greedy = replay(&trace, &mut GreedyWake).unwrap();
        let mut hiring_policy = ThresholdHiring::new(0.25);
        let hiring = replay(&trace, &mut hiring_policy).unwrap();
        assert!(hiring.dropped.is_empty() && greedy.dropped.is_empty());
        let g_restarts: usize = greedy.power.restarts.iter().sum();
        let h_restarts: usize = hiring.power.restarts.iter().sum();
        assert!(
            h_restarts < g_restarts,
            "hiring restarts {h_restarts} not below greedy {g_restarts}"
        );
        assert_eq!(hiring.events, 1, "exactly one hiring commitment");
    }

    #[test]
    fn deterministic_bit_for_bit() {
        let trace = two_burst_trace();
        for kind in ["greedy", "hiring", "resolve:2"] {
            let kind: PolicyKind = kind.parse().unwrap();
            let a = replay(&trace, kind.build(None).as_mut()).unwrap();
            let b = replay(&trace, kind.build(None).as_mut()).unwrap();
            assert_eq!(a.schedule.awake, b.schedule.awake, "{kind}");
            assert_eq!(a.schedule.assignments, b.schedule.assignments, "{kind}");
            assert_eq!(
                a.online_cost().to_bits(),
                b.online_cost().to_bits(),
                "{kind}"
            );
        }
    }

    #[test]
    fn invalid_trace_rejected() {
        let mut trace = two_burst_trace();
        trace.jobs[0].allowed.push(SlotRef::new(0, 99));
        assert!(matches!(
            replay(&trace, &mut GreedyWake),
            Err(SimError::Trace(_))
        ));
    }

    #[test]
    fn cheating_policy_is_caught() {
        struct RunsSleeping;
        impl Policy for RunsSleeping {
            fn name(&self) -> String {
                "cheat".into()
            }
            fn decide(&mut self, view: &SlotView<'_>) -> SlotDecision {
                match view.pending().first() {
                    Some(&id) => SlotDecision {
                        awake: vec![],
                        run: vec![(id, 0)],
                    },
                    None => SlotDecision::default(),
                }
            }
        }
        let err = replay(&two_burst_trace(), &mut RunsSleeping).unwrap_err();
        assert!(
            matches!(err, SimError::PolicyViolation { slot: 0, .. }),
            "{err}"
        );

        struct DoubleBooks;
        impl Policy for DoubleBooks {
            fn name(&self) -> String {
                "cheat2".into()
            }
            fn decide(&mut self, view: &SlotView<'_>) -> SlotDecision {
                if view.pending().len() >= 2 {
                    SlotDecision {
                        awake: vec![0],
                        run: vec![(view.pending()[0], 0), (view.pending()[1], 0)],
                    }
                } else {
                    SlotDecision::default()
                }
            }
        }
        let err = replay(&two_burst_trace(), &mut DoubleBooks).unwrap_err();
        assert!(
            matches!(err, SimError::PolicyViolation { .. }) && err.to_string().contains("double"),
            "{err}"
        );
    }

    #[test]
    fn contended_final_slot_reports_drop() {
        // Two jobs, both only runnable at (0, 1): one must drop.
        let trace = ArrivalTrace {
            name: "contended".into(),
            num_processors: 1,
            horizon: 3,
            restart: 1.0,
            rate: 1.0,
            jobs: vec![
                TimedJob::window(1.0, 1, 0, 1, 2),
                TimedJob::window(1.0, 1, 0, 1, 2),
            ],
            profiles: None,
            freq_ladder: None,
        };
        let out = replay(&trace, &mut GreedyWake).unwrap();
        assert_eq!(out.schedule.scheduled_count, 1);
        assert_eq!(out.dropped.len(), 1);
    }
}
