//! Per-trace replay reports: online cost vs. an offline reference, as JSON.
//!
//! The offline reference is the crate's honesty anchor. By default
//! ([`OfflineRef::Auto`]) small traces are solved to *true optimality* with
//! the branch-and-bound solver from `baselines` (so `ratio >= 1` is a
//! theorem, not an observation: the online schedule is itself a feasible
//! offline schedule), and larger traces fall back to the `O(log n)` greedy
//! [`schedule_all`](schedule_all()) the paper's offline chapter provides.
//! The report records which reference was used.

use serde::{Deserialize, Serialize};

use baselines::exact_schedule_all;
use sched_core::trace::ArrivalTrace;
use sched_core::{
    enumerate_candidates, profile_energy, schedule_all, CandidateInterval, CandidatePolicy,
    Instance, SolveOptions,
};

use crate::policy::{Policy, ResolveStats};
use crate::replay::{replay, ReplayOutcome, SimError};

/// Which offline baseline the competitive ratio is measured against.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum OfflineRef {
    /// Exact branch-and-bound for small traces, greedy
    /// [`schedule_all`](schedule_all()) otherwise.
    #[default]
    Auto,
    /// Always the greedy `O(log n)` [`schedule_all`](schedule_all()).
    Greedy,
    /// Always exact (errors on traces too large for the node budget).
    Exact,
}

impl std::str::FromStr for OfflineRef {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(OfflineRef::Auto),
            "greedy" => Ok(OfflineRef::Greedy),
            "exact" => Ok(OfflineRef::Exact),
            other => Err(format!(
                "unknown offline reference '{other}' (expected auto, greedy, or exact)"
            )),
        }
    }
}

/// Exact search is attempted only below these sizes — measured on this
/// branch-and-bound, ~60 candidates is where node counts cross ~10⁵ and the
/// reference stops being cheap enough to run per trace in a fleet. The
/// node budget backstops unlucky instances; exhaustion falls back to
/// greedy under [`OfflineRef::Auto`].
const EXACT_MAX_CANDIDATES: usize = 60;
const EXACT_MAX_JOBS: usize = 10;
const EXACT_NODE_BUDGET: u64 = 1_500_000;

/// The offline reference cost for a trace, plus the label of the solver
/// that produced it (`"exact"` or `"greedy"`).
pub fn offline_reference(
    trace: &ArrivalTrace,
    which: OfflineRef,
) -> Result<(f64, &'static str), SimError> {
    let inst = trace.to_instance();
    if inst.num_jobs() == 0 {
        return Ok((0.0, "exact"));
    }
    // DVFS traces are referenced against the *compiled* speed-scaling
    // problem: work-expanded sub-jobs over the (level × lane) virtual grid.
    // The online replay's priced runs are feasible awake intervals of that
    // relaxation, so `ratio >= 1` stays a theorem for drop-free replays.
    if trace.freq_ladder.is_some() {
        let compiled = trace
            .to_dvfs_instance()
            .expect("freq_ladder is present, so the trace converts")
            .compile()
            .map_err(|e| SimError::OfflineInfeasible(e.to_string()))?;
        return reference_over(&compiled.instance, &compiled.candidates, which);
    }
    // Per-processor profile pricing — identical to the affine model for
    // traces without explicit profiles, so online and offline costs stay
    // directly comparable either way.
    let candidates = enumerate_candidates(&inst, &trace.cost_model(), CandidatePolicy::All);
    reference_over(&inst, &candidates, which)
}

/// Exact branch-and-bound over `candidates` when `which` asks for it (or,
/// under [`OfflineRef::Auto`], when the instance is small enough), else
/// the greedy [`schedule_all`](schedule_all()).
fn reference_over(
    inst: &Instance,
    candidates: &[CandidateInterval],
    which: OfflineRef,
) -> Result<(f64, &'static str), SimError> {
    let try_exact = match which {
        OfflineRef::Exact => true,
        OfflineRef::Greedy => false,
        OfflineRef::Auto => {
            candidates.len() <= EXACT_MAX_CANDIDATES && inst.num_jobs() <= EXACT_MAX_JOBS
        }
    };
    if try_exact {
        if let Some(exact) = exact_schedule_all(inst, candidates, EXACT_NODE_BUDGET) {
            return Ok((exact.cost, "exact"));
        }
        if which == OfflineRef::Exact {
            return Err(SimError::OfflineInfeasible(
                "exact reference infeasible or out of node budget".into(),
            ));
        }
    }
    schedule_all(inst, candidates, &SolveOptions::default())
        .map(|s| (s.total_cost, "greedy"))
        .map_err(|e| SimError::OfflineInfeasible(e.to_string()))
}

/// One trace × one policy, summarized — the JSONL record `power-sched
/// replay` emits per trace.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ReplayReport {
    /// Trace label.
    pub trace: String,
    /// Policy display name.
    pub policy: String,
    /// Jobs in the trace.
    pub jobs: usize,
    /// Jobs the policy scheduled.
    pub scheduled: usize,
    /// Jobs whose windows expired unscheduled.
    pub dropped: usize,
    /// Explicit "nothing was dropped" verdict. `PeriodicResolve`'s
    /// documented deferral-drop hazard means a plan-following replay can
    /// silently lose late arrivals; scripts and the competitive-ratio
    /// assertions must gate on this boolean — the `ratio` of a lossy replay
    /// compares an *incomplete* online schedule against the full offline
    /// optimum and is meaningless (it can even sit below 1).
    pub drop_free: bool,
    /// Online energy cost.
    pub online_cost: f64,
    /// Deployed energy of the online schedule under the trace's power
    /// profiles: maximal awake runs with every inter-run gap bridged at the
    /// break-even sleep depth. Equals `online_cost` for ladder-free fleets;
    /// never exceeds it.
    pub deployed_cost: f64,
    /// Offline reference cost.
    pub offline_cost: f64,
    /// Empirical competitive ratio (`online / offline`; `1.0` for an empty
    /// trace).
    pub ratio: f64,
    /// Explicit `ratio ≥ 1` verdict (up to float slack). Scripts must
    /// assert on this boolean: grepping the serialized `ratio` digits for a
    /// leading `0` also matched any other field ordering that happened to
    /// put a `0`-prefixed float after it, and silently inverted if serde
    /// ever reordered fields.
    pub ratio_ok: bool,
    /// Which offline solver produced the reference (`exact` or `greedy`).
    pub offline_ref: String,
    /// Total restarts paid (awake runs started).
    pub restarts: usize,
    /// Total awake slots.
    pub awake_slots: usize,
    /// Total busy slots.
    pub busy_slots: usize,
    /// Fleet utilization: busy / awake (0 when never awake).
    pub utilization: f64,
    /// Policy event counter (re-solves, hiring commitments).
    pub events: u64,
    /// Re-solve accounting for re-solving policies: warm/cold solve split
    /// and per-re-solve wall-time statistics. Absent for eager policies.
    pub resolve_stats: Option<ResolveStats>,
}

impl ReplayReport {
    /// Builds the report from a finished replay and an offline reference.
    pub fn from_outcome(
        trace: &ArrivalTrace,
        outcome: &ReplayOutcome,
        offline_cost: f64,
        offline_ref: &'static str,
    ) -> Self {
        let online_cost = outcome.online_cost();
        let ratio = if offline_cost > 0.0 {
            online_cost / offline_cost
        } else {
            1.0
        };
        let ratio_ok = ratio >= 1.0 - 1e-9;
        // DVFS runs are already priced at their ladder level; the sleep
        // ladder's gap-bridging does not apply (a trace cannot carry both),
        // so deployed energy is the online cost itself.
        let deployed_cost = if trace.freq_ladder.is_some() {
            online_cost
        } else {
            profile_energy(
                &trace.to_instance(),
                &outcome.schedule,
                &trace.fleet_profiles(),
            )
            .total
        };
        ReplayReport {
            trace: trace.name.clone(),
            policy: outcome.policy.clone(),
            jobs: trace.jobs.len(),
            scheduled: outcome.schedule.scheduled_count,
            dropped: outcome.dropped.len(),
            drop_free: outcome.dropped.is_empty(),
            online_cost,
            deployed_cost,
            offline_cost,
            ratio,
            ratio_ok,
            offline_ref: offline_ref.into(),
            restarts: outcome.power.restarts.iter().sum(),
            awake_slots: outcome.power.awake_slots.iter().sum(),
            busy_slots: outcome.power.busy_slots.iter().sum(),
            utilization: outcome.power.fleet_utilization().unwrap_or(0.0),
            events: outcome.events,
            resolve_stats: outcome.resolve_stats,
        }
    }
}

/// Replays `trace` through `policy` and reports against `offline` — the
/// one-call entry point. Returns the report and the full outcome (for
/// callers that also want the timeline).
pub fn replay_with_report(
    trace: &ArrivalTrace,
    policy: &mut dyn Policy,
    offline: OfflineRef,
) -> Result<(ReplayReport, ReplayOutcome), SimError> {
    let outcome = replay(trace, policy)?;
    let (offline_cost, offline_ref) = offline_reference(trace, offline)?;
    let report = ReplayReport::from_outcome(trace, &outcome, offline_cost, offline_ref);
    Ok((report, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use sched_core::trace::TimedJob;
    use sched_core::SlotRef;

    fn trace() -> ArrivalTrace {
        ArrivalTrace {
            name: "report-test".into(),
            num_processors: 1,
            horizon: 8,
            restart: 4.0,
            rate: 1.0,
            jobs: vec![
                TimedJob::window(1.0, 0, 0, 0, 2),
                TimedJob::window(1.0, 0, 0, 3, 5),
                TimedJob::window(1.0, 5, 0, 5, 8),
            ],
            profiles: None,
            freq_ladder: None,
        }
    }

    #[test]
    fn exact_reference_bounds_every_policy_from_below() {
        let t = trace();
        let (opt, kind) = offline_reference(&t, OfflineRef::Auto).unwrap();
        assert_eq!(kind, "exact"); // small trace: auto uses exact
                                   // OPT: all three jobs, e.g. [0,1) + [3,6) = 5 + 7 = 12, or one run
                                   // [0,6) = 10... exact finds the true minimum; sanity-bound it.
        assert!(opt > 0.0 && opt <= 12.0);
        for kind in ["greedy", "hiring", "resolve:2"] {
            let kind: PolicyKind = kind.parse().unwrap();
            let (report, outcome) =
                replay_with_report(&t, kind.build(None).as_mut(), OfflineRef::Auto).unwrap();
            assert_eq!(report.dropped, 0, "{kind}");
            assert_eq!(report.scheduled, 3, "{kind}");
            assert!(
                report.ratio >= 1.0 - 1e-9,
                "{kind}: ratio {} < 1 (online {}, offline {})",
                report.ratio,
                report.online_cost,
                report.offline_cost
            );
            assert!(report.ratio_ok, "{kind}: ratio_ok must reflect ratio >= 1");
            assert!(
                report.drop_free,
                "{kind}: drop_free must reflect dropped == 0"
            );
            assert_eq!(report.online_cost, outcome.online_cost());
            // ladder-free fleet: deployed energy is exactly the interval sum
            assert!(
                (report.deployed_cost - report.online_cost).abs() < 1e-9,
                "{kind}"
            );
            assert_eq!(report.offline_ref, "exact");
        }
    }

    #[test]
    fn dvfs_trace_replays_and_bounds_ratio() {
        // Cubic-ish ladder: P(1) = 1, P(2) = 4. The work-2 job forces its
        // run up to the top level; the later unit job runs at the bottom.
        let t = ArrivalTrace {
            name: "dvfs-report".into(),
            num_processors: 1,
            horizon: 6,
            restart: 2.0,
            rate: 1.0,
            jobs: vec![
                TimedJob::window(1.0, 0, 0, 0, 2).with_work(2),
                TimedJob::window(1.0, 0, 0, 4, 6),
            ],
            profiles: None,
            freq_ladder: Some(sched_core::FreqLadder::new(1.0, 0.0, 2.0, vec![1, 2])),
        };
        for kind in ["greedy", "hiring", "resolve:2"] {
            let kind: PolicyKind = kind.parse().unwrap();
            let (report, outcome) =
                replay_with_report(&t, kind.build(None).as_mut(), OfflineRef::Auto).unwrap();
            assert!(report.drop_free, "{kind}: dropped {:?}", outcome.dropped);
            assert_eq!(report.scheduled, 2, "{kind}");
            assert!(
                report.ratio >= 1.0 - 1e-9,
                "{kind}: ratio {} < 1 (online {}, offline {})",
                report.ratio,
                report.online_cost,
                report.offline_cost
            );
            // DVFS traces report deployed == online (no sleep ladder).
            assert_eq!(report.deployed_cost, report.online_cost, "{kind}");
        }
        // Greedy wakes twice: [t,t+1) at level 1 (2 + 4) and one unit run
        // at level 0 (2 + 1) — online cost 9 against a known-exact anchor.
        let (report, _) = replay_with_report(
            &t,
            PolicyKind::Greedy.build(None).as_mut(),
            OfflineRef::Auto,
        )
        .unwrap();
        assert_eq!(report.online_cost, 9.0);
        assert_eq!(report.offline_ref, "exact");
    }

    #[test]
    fn greedy_reference_selectable() {
        let t = trace();
        let (greedy_cost, kind) = offline_reference(&t, OfflineRef::Greedy).unwrap();
        assert_eq!(kind, "greedy");
        let (exact_cost, _) = offline_reference(&t, OfflineRef::Exact).unwrap();
        assert!(greedy_cost >= exact_cost - 1e-9);
    }

    #[test]
    fn empty_trace_has_unit_ratio() {
        let t = ArrivalTrace {
            name: "empty".into(),
            num_processors: 1,
            horizon: 4,
            restart: 1.0,
            rate: 1.0,
            jobs: vec![],
            profiles: None,
            freq_ladder: None,
        };
        let (report, _) = replay_with_report(
            &t,
            PolicyKind::Greedy.build(None).as_mut(),
            OfflineRef::Auto,
        )
        .unwrap();
        assert_eq!(report.ratio, 1.0);
        assert!(report.ratio_ok);
        assert_eq!(report.online_cost, 0.0);
        assert_eq!(report.offline_cost, 0.0);
    }

    #[test]
    fn report_serde_round_trip() {
        let t = trace();
        let (report, _) = replay_with_report(
            &t,
            PolicyKind::Greedy.build(None).as_mut(),
            OfflineRef::Auto,
        )
        .unwrap();
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"drop_free\":true"), "{json}");
        let back: ReplayReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.ratio, report.ratio);
        assert_eq!(back.ratio_ok, report.ratio_ok);
        assert_eq!(back.drop_free, report.drop_free);
        assert_eq!(back.deployed_cost, report.deployed_cost);
        assert_eq!(back.policy, report.policy);
        assert_eq!(back.offline_ref, report.offline_ref);
    }

    #[test]
    fn deferral_loss_serializes_drop_free_false_and_can_undercut_opt() {
        // The documented deferral-drop hazard, as a concrete trace where
        // the loss is *intrinsic* to deferral: the expensive restart makes
        // the t=0 re-solve merge X (allowed {1, 4}) and Z ({4, 5}) into the
        // single interval [4,6), deferring X past its early slot. The
        // adversary then releases Y at slot 4 — its only slot, which the
        // plan already spent on X. No re-solve can repair this (X's slot 1
        // is in the past; X, Y, Z now fight over slots {4, 5}), so the
        // rescue dry-run correctly escalates to a re-solve, the re-solve
        // reports the suffix infeasible, and exactly Y drops. The replay
        // *completes* with one drop — and its ratio compares an incomplete
        // schedule against the full offline optimum (which runs X@1 early),
        // so it sits BELOW 1 here. `drop_free:false` is the
        // machine-readable signal that such a ratio is meaningless.
        let t = ArrivalTrace {
            name: "deferral-cliff".into(),
            num_processors: 1,
            horizon: 6,
            restart: 10.0,
            rate: 1.0,
            jobs: vec![
                TimedJob {
                    release: 0,
                    value: 1.0,
                    allowed: vec![SlotRef::new(0, 1), SlotRef::new(0, 4)],
                    work: None,
                },
                TimedJob::window(1.0, 0, 0, 4, 6),
                TimedJob {
                    release: 4,
                    value: 1.0,
                    allowed: vec![SlotRef::new(0, 4)],
                    work: None,
                },
            ],
            profiles: None,
            freq_ladder: None,
        };
        // offline-feasible: X@1, Y@4, Z@5 — one interval [1,6), OPT = 15
        let (opt, kind) = offline_reference(&t, OfflineRef::Auto).unwrap();
        assert_eq!(kind, "exact");
        assert_eq!(opt, 15.0);
        let (report, outcome) = replay_with_report(
            &t,
            PolicyKind::Resolve {
                period: 10,
                warm: false,
            }
            .build(None)
            .as_mut(),
            OfflineRef::Auto,
        )
        .unwrap();
        assert_eq!(report.dropped, 1, "deferral must cost exactly job Y");
        assert!(!report.drop_free);
        assert_eq!(outcome.dropped, vec![2]);
        // the lossy online schedule ([4,6) = 12) undercuts the full OPT
        assert!(
            report.ratio < 1.0,
            "lossy ratio {} should undercut OPT",
            report.ratio
        );
        assert!(!report.ratio_ok);
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"drop_free\":false"), "{json}");
    }

    #[test]
    fn offline_infeasible_is_reported() {
        let t = ArrivalTrace {
            name: "overfull".into(),
            num_processors: 1,
            horizon: 2,
            restart: 1.0,
            rate: 1.0,
            jobs: vec![
                TimedJob::window(1.0, 0, 0, 0, 1),
                TimedJob::window(1.0, 0, 0, 0, 1),
            ],
            profiles: None,
            freq_ladder: None,
        };
        assert!(matches!(
            offline_reference(&t, OfflineRef::Auto),
            Err(SimError::OfflineInfeasible(_))
        ));
    }
}
