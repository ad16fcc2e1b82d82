//! `online_replay`: `replay()` of seeded Poisson-burst and diurnal traces
//! with advance notice under `resolve:K:warm`, on one thread.
//!
//! Jobs are announced `lead` slots before their window opens, so the warm
//! handle's delta re-solves do most of the work while enumeration and the
//! reduction build are almost absent — the opposite mix to
//! `offline_solve`. This is also the only workload that runs the simulator's
//! own slot loop. A [`TimedPolicy`] around the boxed policy times every
//! `decide` call and tells re-solving calls from plain ones by whether the
//! policy's `events()` advanced. Replays and `decide` calls are timed on the
//! thread's CPU clock (see [`crate::clock`]).

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sched_core::model::validate_schedule;
use sched_core::trace::ArrivalTrace;
use sched_sim::{replay, Policy, PolicyKind, ResolveStats, SlotDecision, SlotView};
use workloads::{generate_trace, ArrivalConfig, TraceKind};

use crate::clock::CpuTimer;
use crate::config::ReplayConfig;
use crate::report::Outcome;
use crate::stats::{mean, per_op_best, percentile, sorted, MIN_REPEATS};
use crate::{setup_phase, sub_seed, RunArgs};

/// Times every `decide` call of the wrapped policy on the thread's CPU
/// clock, filing it as a re-solve when the policy's event counter advanced
/// during the call. Forwards everything else unchanged.
pub struct TimedPolicy {
    inner: Box<dyn Policy>,
    /// CPU time of each re-solving `decide` call, nanoseconds.
    pub resolve_ns: Vec<u64>,
    /// CPU time of each other `decide` call, nanoseconds.
    pub plain_ns: Vec<u64>,
}

impl TimedPolicy {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Policy>) -> Self {
        Self {
            inner,
            resolve_ns: Vec::new(),
            plain_ns: Vec::new(),
        }
    }
}

impl Policy for TimedPolicy {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn decide(&mut self, view: &SlotView<'_>) -> SlotDecision {
        let events = self.inner.events();
        let t = CpuTimer::start();
        let decision = self.inner.decide(view);
        let ns = t.elapsed().as_nanos() as u64;
        if self.inner.events() != events {
            self.resolve_ns.push(ns);
        } else {
            self.plain_ns.push(ns);
        }
        decision
    }

    fn events(&self) -> u64 {
        self.inner.events()
    }

    fn resolve_stats(&self) -> Option<ResolveStats> {
        self.inner.resolve_stats()
    }
}

/// The policy replayed: a warm re-solve on every slot.
const POLICY: PolicyKind = PolicyKind::Resolve {
    period: 1,
    warm: true,
};

/// Generates the trace pool: `traces_per_kind` Poisson-burst and diurnal
/// traces (the generators' default pricing, values and slack), each job
/// announced `lead` slots early.
fn build_traces(cfg: &ReplayConfig, seed: u64) -> Vec<ArrivalTrace> {
    let arrivals = ArrivalConfig {
        num_processors: cfg.processors,
        horizon: cfg.horizon,
        target_jobs: cfg.jobs,
        ..ArrivalConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 3));
    let mut traces = Vec::new();
    for _ in 0..cfg.traces_per_kind {
        for kind in [TraceKind::PoissonBursts, TraceKind::Diurnal] {
            let mut trace = generate_trace(kind, &arrivals, &mut rng);
            // releasing earlier only relaxes the instance: still feasible
            for job in &mut trace.jobs {
                job.release = job.release.saturating_sub(cfg.lead);
            }
            traces.push(trace);
        }
    }
    traces
}

/// One replay's measurements.
struct Replayed {
    cost: f64,
    scheduled: usize,
    cpu: Duration,
    policy: TimedPolicy,
    stats: Option<ResolveStats>,
    dropped: usize,
}

fn replay_once(trace: &ArrivalTrace, kind: &PolicyKind) -> Result<Replayed, String> {
    let mut policy = TimedPolicy::new(kind.build(None));
    let t = CpuTimer::start();
    let outcome = replay(trace, &mut policy).map_err(|e| e.to_string())?;
    let cpu = t.elapsed();
    let v = validate_schedule(&trace.to_instance(), &outcome.schedule);
    if !v.is_empty() {
        return Err(format!("invalid online schedule: {:?}", v[0]));
    }
    Ok(Replayed {
        cost: outcome.schedule.total_cost,
        scheduled: outcome.schedule.scheduled_count,
        cpu,
        policy,
        stats: outcome.resolve_stats,
        dropped: outcome.dropped.len(),
    })
}

/// Runs the workload.
pub fn run(cfg: &ReplayConfig, args: &RunArgs, setup_repeats: usize) -> Outcome {
    let mut out = Outcome::default();
    let kind = POLICY;
    // Set-up: generate the traces, then one untimed warm-up replay.
    let (traces, setup_s) = setup_phase(setup_repeats, || {
        let traces = build_traces(cfg, args.seed);
        std::hint::black_box(replay_once(&traces[0], &kind).ok());
        traces
    });
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };

    // Passes over the trace pool; replay times and each re-solve's time are
    // kept per trace and per re-solve, so repeats can be compared. A slow
    // host may stretch the run past its seconds: every trace gets its
    // repeats.
    let mut first: Vec<Option<(u64, usize)>> = vec![None; traces.len()];
    let mut cpus: Vec<Vec<f64>> = vec![Vec::new(); traces.len()];
    let mut resolve_us: Vec<Vec<Vec<f64>>> = vec![Vec::new(); traces.len()];
    let mut replaying = Duration::ZERO;
    let mut ops = 0usize;
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < budget || ops < MIN_REPEATS * traces.len() {
        let k = ops % traces.len();
        ops += 1;
        out.attempted += 1;
        let r = match replay_once(&traces[k], &kind) {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("trace {k}: {e}"));
                continue;
            }
        };
        replaying += r.cpu;
        cpus[k].push(r.cpu.as_secs_f64());
        let per_resolve = &mut resolve_us[k];
        if per_resolve.is_empty() {
            per_resolve.resize(r.policy.resolve_ns.len(), Vec::new());
        }
        if per_resolve.len() != r.policy.resolve_ns.len() {
            out.fail(format!("trace {k}: re-solve count changed between replays"));
            continue;
        }
        for (samples, &ns) in per_resolve.iter_mut().zip(&r.policy.resolve_ns) {
            samples.push(ns as f64 / 1e3);
        }
        if r.dropped > 0 {
            out.fail(format!("trace {k}: {} jobs dropped", r.dropped));
            continue;
        }
        match first[k] {
            Some((bits, _)) if bits != r.cost.to_bits() => {
                out.fail(format!("trace {k}: repeat replay cost differs"))
            }
            Some(_) => {}
            None => first[k] = Some((r.cost.to_bits(), r.scheduled)),
        }
    }

    if args.trace {
        traced_pass(&traces, &kind, ops, replaying, &mut out);
        return out;
    }

    out.put("setup_s", setup_s, Some(setup_repeats));
    // One pass over the pool at each trace's best replay time.
    let slots: u32 = traces.iter().map(|t| t.horizon).sum();
    let cpu: f64 = per_op_best(&cpus).iter().sum();
    out.put("throughput_per_s", f64::from(slots) / cpu, Some(ops));
    let resolves: Vec<Vec<f64>> = resolve_us.into_iter().flatten().collect();
    out.put_latencies(&resolves);
    let (cost, jobs) = first
        .iter()
        .flatten()
        .fold((0.0, 0usize), |(c, j), &(bits, n)| {
            (c + f64::from_bits(bits), j + n)
        });
    out.put(
        "energy_per_job",
        cost / jobs.max(1) as f64,
        Some(traces.len()),
    );
    out
}

/// The traced pass: the same `ops` replays with a metrics registry installed
/// on this thread, so the solver's own `submodular.greedy.run_ns` histogram
/// fills, plus the replay/decide split per trace.
fn traced_pass(
    traces: &[ArrivalTrace],
    kind: &PolicyKind,
    ops: usize,
    untraced: Duration,
    out: &mut Outcome,
) {
    let registry = Arc::new(sched_obs::Registry::new());
    sched_obs::set_thread(Some(Arc::clone(&registry)));
    let mut plain_us = Vec::new();
    let mut self_ms = Vec::new();
    let mut cpu = Duration::ZERO;
    let (mut warm, mut count, mut dropped) = (0u64, 0u64, 0u64);
    for i in 0..ops {
        let k = i % traces.len();
        out.attempted += 1;
        let t = CpuTimer::start();
        let r = replay_once(&traces[k], kind);
        cpu += t.elapsed();
        let r = match r {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("traced trace {k}: {e}"));
                continue;
            }
        };
        let decide: u64 = r.policy.resolve_ns.iter().chain(&r.policy.plain_ns).sum();
        self_ms.push((r.cpu.as_nanos() as f64 - decide as f64) / 1e6);
        plain_us.extend(r.policy.plain_ns.iter().map(|&ns| ns as f64 / 1e3));
        dropped += r.dropped as u64;
        if r.dropped > 0 {
            out.fail(format!("traced trace {k}: {} jobs dropped", r.dropped));
        }
        let s = r.stats.unwrap_or_default();
        warm += s.warm;
        count += s.count;
    }
    sched_obs::set_thread(None);

    out.put(
        "trace.overhead",
        cpu.as_secs_f64() / untraced.as_secs_f64(),
        Some(ops),
    );
    let decide = percentile(&sorted(&plain_us), 0.5);
    out.put_required(
        "sim.decide_us_p50",
        decide.map(|v| (v, plain_us.len())),
        "need 20 plain decide calls",
    );
    out.put(
        "sim.replay_self_ms",
        mean(&self_ms).unwrap_or(0.0),
        Some(self_ms.len()),
    );
    out.put(
        "core.warm.warm_share",
        warm as f64 / count.max(1) as f64,
        Some(count as usize),
    );
    out.put(
        "core.warm.resolves",
        count as f64 / ops.max(1) as f64,
        Some(ops),
    );
    let greedy = registry
        .histogram("submodular.greedy.run_ns")
        .snapshot("submodular.greedy.run_ns");
    let greedy_p50 = (greedy.count >= crate::stats::min_samples(0.5) as u64)
        .then(|| (greedy.p50 as f64 / 1e6, greedy.count as usize));
    out.put_required(
        "submodular.greedy.run_ms_p50",
        greedy_p50,
        "need 20 greedy runs",
    );
    out.put("sim.jobs_dropped", dropped as f64, Some(ops));
}
