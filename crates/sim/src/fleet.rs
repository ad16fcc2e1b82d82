//! Deterministic parallel replay of trace fleets.
//!
//! [`replay_fleet`] is the crate's one replay loop: it runs every trace
//! through a fresh `kind.build(None)` policy, fanning the traces across
//! `workers` threads, of which the calling thread is the first. Each trace
//! replays under the ambient trace id `replay-<trace name>`, so the
//! process-global tracer keeps every trace's events apart at any worker
//! count, and every solver span lands in the process-global registry (the
//! spawned threads install none of their own). Each replay is a
//! pure deterministic function of its trace and the policy configuration,
//! and results are returned in input order — so the output is
//! **bit-identical at any worker count**, apart from re-solve wall times
//! (the property the acceptance tests pin down).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use sched_core::trace::ArrivalTrace;

use crate::policy::PolicyKind;
use crate::replay::{ReplayOutcome, SimError};
use crate::report::{replay_with_report, OfflineRef, ReplayReport};

/// Fleet configuration.
#[derive(Clone, Copy, Debug)]
pub struct FleetOptions {
    /// Replay threads, the calling thread included, so `1` spawns none.
    /// `0` means one per available core.
    pub workers: usize,
    /// Offline reference selection.
    pub offline: OfflineRef,
}

impl Default for FleetOptions {
    fn default() -> Self {
        Self {
            workers: 1,
            offline: OfflineRef::Auto,
        }
    }
}

/// One trace's replay: the report and the full outcome, as
/// [`replay_with_report`] returns them.
pub type FleetResult = Result<(ReplayReport, ReplayOutcome), SimError>;

/// Replays every trace under a fresh `kind` policy; one result per trace,
/// in input order, bit-identical at any worker count.
pub fn replay_fleet(
    traces: &[ArrivalTrace],
    kind: &PolicyKind,
    options: &FleetOptions,
) -> Vec<FleetResult> {
    let workers = if options.workers > 0 {
        options.workers
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    };
    // Work stealing over a shared index counter; each slot is written by
    // exactly one worker.
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<FleetResult>> = traces.iter().map(|_| OnceLock::new()).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(trace) = traces.get(i) else { break };
        sched_obs::trace::set_trace_id(Some(&format!("replay-{}", trace.name)));
        let mut policy = kind.build(None);
        let _ = slots[i].set(replay_with_report(trace, policy.as_mut(), options.offline));
    };
    let caller_trace_id = sched_obs::trace::current_trace_id();
    std::thread::scope(|scope| {
        for _ in 1..workers.min(traces.len()) {
            scope.spawn(work);
        }
        work();
    });
    sched_obs::trace::set_trace_id(caller_trace_id.as_deref());
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every trace replayed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_core::trace::TimedJob;

    /// Small enough (2·28 = 56 candidates) that the auto reference is the
    /// exact optimum, making the `ratio >= 1` assertions theorems.
    fn fleet(n: usize) -> Vec<ArrivalTrace> {
        (0..n)
            .map(|i| ArrivalTrace {
                name: format!("t{i}"),
                num_processors: 2,
                horizon: 7,
                restart: 3.0,
                rate: 1.0,
                jobs: (0..4)
                    .map(|j| {
                        let release = ((i + j) % 4) as u32;
                        TimedJob::window(1.0, release, (j % 2) as u32, release, release + 3)
                    })
                    .collect(),
                profiles: None,
                freq_ladder: None,
            })
            .collect()
    }

    fn options(workers: usize) -> FleetOptions {
        FleetOptions {
            workers,
            offline: OfflineRef::Auto,
        }
    }

    #[test]
    fn fleet_results_bit_identical_across_worker_counts() {
        let traces = fleet(7);
        // Wall-clock re-solve timings are legitimately run-dependent;
        // everything else (decisions, energy, warm/cold counts) must be
        // bit-identical.
        let render = |kind: &PolicyKind, workers: usize| -> Vec<String> {
            replay_fleet(&traces, kind, &options(workers))
                .into_iter()
                .map(|r| {
                    let (mut report, _) = r.unwrap();
                    if let Some(rs) = &mut report.resolve_stats {
                        rs.total_ns = 0;
                        rs.p50_ns = 0;
                        rs.p99_ns = 0;
                    }
                    serde_json::to_string(&report).unwrap()
                })
                .collect()
        };
        for kind in ["greedy", "hiring", "resolve:3"] {
            let kind: PolicyKind = kind.parse().unwrap();
            let base = render(&kind, 1);
            for workers in [2, 4] {
                assert_eq!(
                    base,
                    render(&kind, workers),
                    "{kind} differs at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn resolve_fleet_replays_drop_free_above_the_optimum() {
        let traces = fleet(5);
        let kind = PolicyKind::Resolve {
            period: 3,
            warm: false,
        };
        for workers in [1, 3] {
            for (r, trace) in replay_fleet(&traces, &kind, &options(workers))
                .into_iter()
                .zip(&traces)
            {
                let (report, outcome) = r.unwrap();
                assert_eq!(report.trace, trace.name, "results come back in input order");
                assert_eq!(report.dropped, 0);
                assert!(outcome.dropped.is_empty());
                assert!(report.ratio >= 1.0 - 1e-9, "ratio {}", report.ratio);
                assert!(report.events >= 1);
                assert_eq!(report.online_cost, outcome.online_cost());
            }
        }
    }

    #[test]
    fn every_trace_replays_under_its_own_trace_id() {
        let traces = fleet(4);
        let tracer = std::sync::Arc::new(sched_obs::trace::Tracer::new());
        sched_obs::trace::set_thread(Some(std::sync::Arc::clone(&tracer)));
        sched_obs::trace::set_trace_id(Some("caller"));
        // One worker: every replay runs on this thread, under this
        // thread's tracer, and the caller's own id comes back afterwards.
        let reports = replay_fleet(&traces, &PolicyKind::Greedy, &options(1));
        assert_eq!(
            sched_obs::trace::current_trace_id().as_deref(),
            Some("caller")
        );
        sched_obs::trace::set_thread(None);
        sched_obs::trace::set_trace_id(None);
        assert!(reports.iter().all(Result::is_ok));
        let events = tracer.events();
        for trace in &traces {
            let id = format!("replay-{}", trace.name);
            let slots = events
                .iter()
                .filter(|e| e.name == "sim.slot.decision" && *e.trace_id == *id)
                .count();
            assert_eq!(slots, trace.horizon as usize, "{id}");
        }
    }

    #[test]
    fn empty_fleet_is_fine() {
        assert!(replay_fleet(&[], &PolicyKind::Greedy, &FleetOptions::default()).is_empty());
    }
}
