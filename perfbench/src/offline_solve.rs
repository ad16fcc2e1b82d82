//! `offline_solve`: a closed loop of cold solves on one thread.
//!
//! Each operation builds a fresh instance from the pool and solves it from
//! scratch — `enumerate_candidates` → `schedule_all` for the `affine` and
//! `hetero` classes, `solve_dvfs` for `dvfs` — so enumeration, the reduction
//! build, the first gain scan, the lazy greedy loop and the matching oracle
//! do nearly all the work, with no wire and no warm state. The loop rotates
//! `affine`, `hetero`, `dvfs`, and through each class's pool.
//!
//! The traced run replaces each entry point with its public pieces, timing
//! each (see [`solve_traced`]), and checks that the result is bit-identical
//! to the untraced entry point's. Solves and layers are timed on the
//! thread's CPU clock (see [`crate::clock`]).

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sched_core::model::validate_schedule;
use sched_core::objective::ObjectiveScratch;
use sched_core::{
    enumerate_candidates, schedule_all, solve_dvfs, validate_dvfs_schedule, AffineCost,
    CandidateInterval, CandidatePolicy, DvfsInstance, DvfsSchedule, EnergyCost, Instance,
    PowerProfile, ProfileCost, Schedule, ScheduleObjective, ScheduleReduction, SolveOptions,
};
use submodular::{budgeted_greedy_with, BudgetedObjective, GreedyConfig};
use workloads::planted::PlantedCostModel;
use workloads::{dvfs_instance, planted_instance, DvfsConfig, PlantedConfig};

use crate::catalog::CLASSES;
use crate::clock::{thread_cpu, CpuTimer};
use crate::config::{ClassShape, OfflineConfig};
use crate::report::Outcome;
use crate::stats::{per_op_best, MIN_REPEATS};
use crate::{setup_phase, sub_seed, RunArgs};

/// The generated inputs: one pool per class.
struct Pools {
    affine: Vec<Instance>,
    hetero: Vec<Instance>,
    dvfs: Vec<DvfsInstance>,
    affine_cost: AffineCost,
    hetero_cost: ProfileCost,
}

/// A solve's result, classical or speed-scaling.
#[derive(Clone, Debug)]
enum Solved {
    /// `schedule_all` result.
    Plain(Schedule),
    /// `solve_dvfs` result.
    Dvfs(DvfsSchedule),
}

impl Solved {
    fn cost(&self) -> f64 {
        match self {
            Solved::Plain(s) => s.total_cost,
            Solved::Dvfs(s) => s.total_cost,
        }
    }

    /// Bit-identity: same cost bits, same awake intervals, same assignments.
    fn same_as(&self, other: &Solved) -> bool {
        match (self, other) {
            (Solved::Plain(a), Solved::Plain(b)) => {
                a.total_cost.to_bits() == b.total_cost.to_bits()
                    && a.assignments == b.assignments
                    && a.awake.len() == b.awake.len()
                    && a.awake.iter().zip(&b.awake).all(|(x, y)| {
                        (x.proc, x.start, x.end, x.cost.to_bits())
                            == (y.proc, y.start, y.end, y.cost.to_bits())
                    })
            }
            (Solved::Dvfs(a), Solved::Dvfs(b)) => {
                a.total_cost.to_bits() == b.total_cost.to_bits()
                    && a.assignments == b.assignments
                    && a.awake == b.awake
            }
            _ => false,
        }
    }
}

/// Restart cost the `affine` and `hetero` instances are planted with (and
/// the price of an `affine` awake interval, at busy rate 1). The `dvfs` class
/// keeps the generator's default wake cost.
const RESTART: f64 = 3.0;

/// The fixed four-profile fleet pricing the `hetero` class: wake costs and
/// busy rates both rise with the processor index.
fn hetero_fleet(processors: u32) -> Vec<PowerProfile> {
    (0..processors)
        .map(|p| PowerProfile::affine(2.0 + 1.5 * p as f64, 0.75 + 0.5 * p as f64))
        .collect()
}

fn planted(shape: &ClassShape, rng: &mut StdRng) -> Instance {
    planted_instance(
        &PlantedConfig {
            num_processors: shape.processors,
            horizon: shape.horizon,
            target_jobs: shape.jobs,
            decoy_prob: 0.3,
            max_value: 1,
            cost_model: PlantedCostModel::Affine { restart: RESTART },
            policy: CandidatePolicy::All,
        },
        rng,
    )
    .instance
}

/// Generates every class's pool from `seed`.
fn build_pools(cfg: &OfflineConfig, seed: u64) -> Pools {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 1));
    let n = cfg.pool_per_class;
    let affine = (0..n).map(|_| planted(&cfg.affine, &mut rng)).collect();
    let hetero = (0..n).map(|_| planted(&cfg.hetero, &mut rng)).collect();
    let dvfs = (0..n)
        .map(|_| {
            dvfs_instance(
                &DvfsConfig {
                    num_processors: cfg.dvfs.processors,
                    horizon: cfg.dvfs.horizon,
                    target_jobs: cfg.dvfs.jobs,
                    ..DvfsConfig::default()
                },
                &mut rng,
            )
        })
        .collect();
    Pools {
        affine,
        hetero,
        dvfs,
        affine_cost: AffineCost::new(RESTART, 1.0),
        hetero_cost: ProfileCost::new(&hetero_fleet(cfg.hetero.processors)),
    }
}

impl Pools {
    fn pool_len(&self) -> usize {
        self.affine.len()
    }

    /// Class and pool index of the `i`-th operation.
    fn op(&self, i: usize) -> (usize, usize) {
        (i % 3, (i / 3) % self.pool_len())
    }

    fn plain(&self, class: usize, k: usize) -> (&Instance, &dyn EnergyCost) {
        match class {
            0 => (&self.affine[k], &self.affine_cost),
            _ => (&self.hetero[k], &self.hetero_cost),
        }
    }

    /// One cold solve through the public entry point, from a freshly built
    /// instance.
    fn solve_cold(&self, class: usize, k: usize) -> Result<Solved, String> {
        if class == 2 {
            let d = self.dvfs[k].clone();
            return solve_dvfs(&d).map(Solved::Dvfs).map_err(|e| e.to_string());
        }
        let (src, cost) = self.plain(class, k);
        let inst = Instance::new(src.num_processors, src.horizon, src.jobs.clone());
        let cands = enumerate_candidates(&inst, cost, CandidatePolicy::All);
        schedule_all(&inst, &cands, &SolveOptions::default())
            .map(Solved::Plain)
            .map_err(|e| e.to_string())
    }

    /// Validates a result and checks that every job was scheduled.
    fn check(&self, class: usize, k: usize, s: &Solved) -> Result<(), String> {
        let name = CLASSES[class];
        match s {
            Solved::Plain(s) => {
                let (inst, _) = self.plain(class, k);
                let v = validate_schedule(inst, s);
                if !v.is_empty() {
                    return Err(format!("{name}[{k}]: invalid schedule: {:?}", v[0]));
                }
                if s.scheduled_count != inst.num_jobs() {
                    return Err(format!(
                        "{name}[{k}]: scheduled {} of {} jobs",
                        s.scheduled_count,
                        inst.num_jobs()
                    ));
                }
            }
            Solved::Dvfs(s) => {
                let d = &self.dvfs[k];
                let v = validate_dvfs_schedule(d, s);
                if !v.is_empty() {
                    return Err(format!("{name}[{k}]: invalid DVFS schedule: {:?}", v[0]));
                }
                if s.completed(d).len() != d.jobs.len() {
                    return Err(format!("{name}[{k}]: not every job completed"));
                }
            }
        }
        Ok(())
    }

    fn jobs(&self, class: usize, k: usize) -> usize {
        match class {
            2 => self.dvfs[k].jobs.len(),
            c => self.plain(c, k).0.num_jobs(),
        }
    }
}

/// Per-class layer accounting of the traced run.
#[derive(Clone, Debug, Default)]
struct Layers {
    solves: u64,
    total: Duration,
    candidates: Duration,
    compile: Duration,
    reduction: Duration,
    first_scan: Duration,
    greedy: Duration,
    extract: Duration,
    decompile: Duration,
}

/// Work counts of one traced solve; they repeat exactly for one instance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counts {
    candidates: u64,
    evaluations: u64,
    picks: u64,
    memo_hits: u64,
    memo_misses: u64,
    augments: u64,
    retracts: u64,
}

/// Steps 2–5 of a traced solve: reduction build, oracle construction plus
/// one gain scan, the greedy (whose own initial scan replays the memo, so
/// its span is the lazy loop), and schedule extraction — the same calls and
/// configuration `schedule_all` makes.
fn greedy_stages(
    inst: &Instance,
    cands: &[CandidateInterval],
    acc: &mut Layers,
    counts: &mut Counts,
) -> Result<Schedule, String> {
    let t0 = thread_cpu();
    let red = ScheduleReduction::build(inst, cands);
    let t1 = thread_cpu();
    let mut obj = ScheduleObjective::new_cardinality(&red);
    let mut scratch = ObjectiveScratch::default();
    let mut gains = Vec::new();
    obj.scan_gains(false, &mut scratch, &mut gains);
    let t2 = thread_cpu();
    let n = inst.num_jobs() as f64;
    let opts = SolveOptions::default();
    let out = budgeted_greedy_with(
        &mut obj,
        GreedyConfig {
            target: n,
            epsilon: 1.0 / (n + 1.0),
            lazy: opts.lazy,
            parallel: opts.parallel,
        },
        &mut scratch,
    );
    let t3 = thread_cpu();
    if !out.reached_target {
        return Err(format!("greedy stalled at utility {}", out.utility));
    }
    let schedule = obj.extract_schedule(inst, cands, &out.chosen);
    let t4 = thread_cpu();
    acc.reduction += t1 - t0;
    acc.first_scan += t2 - t1;
    acc.greedy += t3 - t2;
    acc.extract += t4 - t3;
    let (memo_hits, memo_misses) = scratch.memo_counts();
    let (augments, retracts) = obj.oracle().op_counts();
    *counts = Counts {
        candidates: cands.len() as u64,
        evaluations: out.evaluations as u64,
        picks: out.chosen.len() as u64,
        memo_hits,
        memo_misses,
        augments,
        retracts,
    };
    Ok(schedule)
}

impl Pools {
    /// A cold solve decomposed into its public pieces, each timed:
    /// `enumerate_candidates` (or `DvfsInstance::compile`), then
    /// [`greedy_stages`], then `CompiledDvfs::decompile` for `dvfs`.
    fn solve_traced(
        &self,
        class: usize,
        k: usize,
        acc: &mut Layers,
        counts: &mut Counts,
    ) -> Result<Solved, String> {
        if class == 2 {
            let d = self.dvfs[k].clone();
            let t0 = thread_cpu();
            let compiled = d.compile().map_err(|e| e.to_string())?;
            let t1 = thread_cpu();
            acc.compile += t1 - t0;
            let s = greedy_stages(&compiled.instance, &compiled.candidates, acc, counts)?;
            let t2 = thread_cpu();
            let out = compiled.decompile(&s);
            let t3 = thread_cpu();
            acc.decompile += t3 - t2;
            acc.total += t3 - t0;
            acc.solves += 1;
            return Ok(Solved::Dvfs(out));
        }
        let (src, cost) = self.plain(class, k);
        let inst = Instance::new(src.num_processors, src.horizon, src.jobs.clone());
        let t0 = thread_cpu();
        let cands = enumerate_candidates(&inst, cost, CandidatePolicy::All);
        let t1 = thread_cpu();
        acc.candidates += t1 - t0;
        let s = greedy_stages(&inst, &cands, acc, counts)?;
        acc.total += thread_cpu() - t0;
        acc.solves += 1;
        Ok(Solved::Plain(s))
    }
}

fn ms_per_solve(d: Duration, solves: u64) -> f64 {
    d.as_secs_f64() * 1e3 / solves.max(1) as f64
}

/// Runs the workload.
pub fn run(cfg: &OfflineConfig, args: &RunArgs, setup_repeats: usize) -> Outcome {
    let mut out = Outcome::default();
    // Set-up: build the pools, then one untimed warm-up solve per class.
    let (pools, setup_s) = setup_phase(setup_repeats, || {
        let pools = build_pools(cfg, args.seed);
        for class in 0..3 {
            black_box(pools.solve_cold(class, 0).ok());
        }
        pools
    });
    let slots = pools.pool_len() * 3;
    let mut refs: Vec<Option<Solved>> = vec![None; slots];

    // Passes over the whole pool; every instance's solve time is kept per
    // instance. Untimed checks run between timed solves. A slow host may
    // stretch the run past its seconds: every instance gets its repeats.
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let window = Instant::now();
    let mut times_us: Vec<Vec<f64>> = vec![Vec::new(); slots];
    let mut solving = Duration::ZERO;
    let mut ops = 0usize;
    while window.elapsed().as_secs_f64() < budget || ops < MIN_REPEATS * slots {
        let (class, k) = pools.op(ops);
        let slot = class * pools.pool_len() + k;
        ops += 1;
        out.attempted += 1;
        let t = CpuTimer::start();
        let r = black_box(pools.solve_cold(class, k));
        let dt = t.elapsed();
        let s = match r {
            Ok(s) => s,
            Err(e) => {
                out.fail(format!("{}[{k}]: {e}", CLASSES[class]));
                continue;
            }
        };
        solving += dt;
        times_us[slot].push(dt.as_secs_f64() * 1e6);
        if let Err(e) = pools.check(class, k, &s) {
            out.fail(e);
            continue;
        }
        match &refs[slot] {
            Some(r) if !r.same_as(&s) => {
                out.fail(format!("{}[{k}]: repeat solve differs", CLASSES[class]))
            }
            Some(_) => {}
            None => refs[slot] = Some(s),
        }
    }

    if args.trace {
        traced_pass(&pools, &refs, ops, solving, &mut out);
        return out;
    }

    out.put("setup_s", setup_s, Some(setup_repeats));
    // One pass over the pool at each instance's best solve time.
    let best = per_op_best(&times_us);
    out.put(
        "throughput_per_s",
        best.len() as f64 * 1e6 / best.iter().sum::<f64>(),
        Some(ops),
    );
    out.put_latencies(&times_us);
    let (mut cost, mut jobs) = (0.0, 0usize);
    for (slot, r) in refs.iter().enumerate() {
        if let Some(r) = r {
            cost += r.cost();
            jobs += pools.jobs(slot / pools.pool_len(), slot % pools.pool_len());
        }
    }
    out.put(
        "energy_per_job",
        cost / jobs.max(1) as f64,
        Some(refs.len()),
    );
    out
}

/// The traced pass: the same `ops` operations as the untraced pass, each
/// decomposed by [`Pools::solve_traced`] and compared to the untraced result.
fn traced_pass(
    pools: &Pools,
    refs: &[Option<Solved>],
    ops: usize,
    untraced: Duration,
    out: &mut Outcome,
) {
    let mut layers = vec![Layers::default(); 3];
    let mut counts = vec![Counts::default(); refs.len()];
    let mut traced = Duration::ZERO;
    for i in 0..ops {
        let (class, k) = pools.op(i);
        let slot = class * pools.pool_len() + k;
        out.attempted += 1;
        let t = CpuTimer::start();
        let r = pools.solve_traced(class, k, &mut layers[class], &mut counts[slot]);
        traced += t.elapsed();
        match r {
            Err(e) => out.fail(format!("traced {}[{k}]: {e}", CLASSES[class])),
            Ok(s) => match &refs[slot] {
                Some(r) if r.same_as(&s) => {}
                _ => out.fail(format!(
                    "traced {}[{k}] differs from the untraced entry point",
                    CLASSES[class]
                )),
            },
        }
    }
    out.put(
        "trace.overhead",
        traced.as_secs_f64() / untraced.as_secs_f64(),
        Some(ops),
    );
    for (class, name) in CLASSES.iter().enumerate() {
        let l = &layers[class];
        let n = Some(l.solves as usize);
        let ms = |d| ms_per_solve(d, l.solves);
        if class == 2 {
            out.put(format!("core.dvfs.compile.ms.{name}"), ms(l.compile), n);
            out.put(format!("core.dvfs.decompile.ms.{name}"), ms(l.decompile), n);
        } else {
            out.put(format!("core.candidates.ms.{name}"), ms(l.candidates), n);
        }
        out.put(format!("core.reduction.ms.{name}"), ms(l.reduction), n);
        out.put(format!("core.first_scan.ms.{name}"), ms(l.first_scan), n);
        out.put(format!("submodular.greedy.ms.{name}"), ms(l.greedy), n);
        out.put(format!("core.extract.ms.{name}"), ms(l.extract), n);
        let spans = l.candidates
            + l.compile
            + l.reduction
            + l.first_scan
            + l.greedy
            + l.extract
            + l.decompile;
        out.put(
            format!("unattributed.share.{name}"),
            1.0 - spans.as_secs_f64() / l.total.as_secs_f64(),
            n,
        );

        // Counts over one pass of the pool, so they repeat exactly.
        let pool = &counts[class * pools.pool_len()..(class + 1) * pools.pool_len()];
        let sum = |f: fn(&Counts) -> u64| pool.iter().map(f).sum::<u64>() as f64;
        let per = |f: fn(&Counts) -> u64| sum(f) / pool.len() as f64;
        let m = Some(pool.len());
        out.put(
            format!("core.candidates.count.{name}"),
            per(|c| c.candidates),
            m,
        );
        out.put(
            format!("submodular.greedy.evaluations.{name}"),
            per(|c| c.evaluations),
            m,
        );
        out.put(
            format!("submodular.greedy.picks.{name}"),
            per(|c| c.picks),
            m,
        );
        out.put(
            format!("submodular.greedy.picks_per_eval.{name}"),
            sum(|c| c.picks) / sum(|c| c.evaluations),
            m,
        );
        out.put(
            format!("core.gain_memo.hit_rate.{name}"),
            sum(|c| c.memo_hits) / (sum(|c| c.memo_hits) + sum(|c| c.memo_misses)),
            m,
        );
        out.put(
            format!("matching.oracle.augments.{name}"),
            per(|c| c.augments),
            m,
        );
        out.put(
            format!("matching.oracle.retracts.{name}"),
            per(|c| c.retracts),
            m,
        );
    }
}
