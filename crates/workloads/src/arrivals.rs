//! Timed arrival-trace generators for the online replay harness.
//!
//! Three families, spanning the demand shapes the power-aware scheduling
//! literature simulates against (cf. Bunde, arXiv:cs/0605126):
//!
//! * [`poisson_bursts`] — a Poisson arrival process (exponential
//!   inter-arrival gaps, Poisson burst sizes) — bursty but memoryless;
//! * [`diurnal`] — sinusoidally modulated per-slot arrival intensity, the
//!   day/night load curve of a real fleet;
//! * [`deadline_cliffs`] — adversarial waves whose jobs all share one
//!   deadline at the wave's end, punishing procrastinating policies with a
//!   mass wake-up at the cliff.
//!
//! Every generator *plants* each job a private home slot on one processor
//! (an occupancy grid guarantees distinct homes), so the offline instance
//! is always feasible and `schedule_all` reference costs exist; windows are
//! single-processor and contiguous, which keeps eager deadline-ordered
//! online policies drop-free as well. All randomness comes from the caller's
//! RNG, so every trace is reproducible from its seed.

use rand::distributions::{Distribution, Exp, Poisson};
use rand::Rng;
use sched_core::trace::{ArrivalTrace, TimedJob};
use sched_core::SlotRef;

/// Shared sizing knobs for the arrival generators.
#[derive(Clone, Copy, Debug)]
pub struct ArrivalConfig {
    /// Number of processors.
    pub num_processors: u32,
    /// Horizon `T`.
    pub horizon: u32,
    /// Approximate number of jobs to generate (capped by free capacity).
    pub target_jobs: usize,
    /// Restart cost of the trace's affine energy model.
    pub restart: f64,
    /// Per-slot rate of the trace's affine energy model.
    pub rate: f64,
    /// Job values drawn uniformly from `1..=max_value` (1 = unit values).
    pub max_value: u32,
    /// Extra window slots granted past the planted home slot.
    pub slack: u32,
}

impl Default for ArrivalConfig {
    fn default() -> Self {
        Self {
            num_processors: 2,
            horizon: 24,
            target_jobs: 12,
            restart: 4.0,
            rate: 1.0,
            max_value: 1,
            slack: 3,
        }
    }
}

/// Which generator to run — the `--trace` flag of `power-sched generate`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// [`poisson_bursts`].
    PoissonBursts,
    /// [`diurnal`].
    Diurnal,
    /// [`deadline_cliffs`].
    DeadlineCliffs,
}

impl std::str::FromStr for TraceKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "poisson" => Ok(TraceKind::PoissonBursts),
            "diurnal" => Ok(TraceKind::Diurnal),
            "cliffs" => Ok(TraceKind::DeadlineCliffs),
            other => Err(format!(
                "unknown trace kind '{other}' (expected poisson, diurnal, or cliffs)"
            )),
        }
    }
}

impl std::fmt::Display for TraceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceKind::PoissonBursts => write!(f, "poisson"),
            TraceKind::Diurnal => write!(f, "diurnal"),
            TraceKind::DeadlineCliffs => write!(f, "cliffs"),
        }
    }
}

/// Dispatches to the selected generator.
pub fn generate_trace(kind: TraceKind, cfg: &ArrivalConfig, rng: &mut impl Rng) -> ArrivalTrace {
    match kind {
        TraceKind::PoissonBursts => poisson_bursts(cfg, rng),
        TraceKind::Diurnal => diurnal(cfg, rng),
        TraceKind::DeadlineCliffs => deadline_cliffs(cfg, rng),
    }
}

/// Occupancy grid for home-slot planting.
struct Grid {
    occ: Vec<Vec<bool>>,
}

impl Grid {
    /// # Panics
    /// Panics on degenerate configs (`horizon == 0`, `num_processors == 0`),
    /// like [`crate::planted_instance`]; callers with untrusted sizing (the
    /// CLI) must reject those before generating.
    fn new(cfg: &ArrivalConfig) -> Self {
        assert!(
            cfg.num_processors > 0 && cfg.horizon > 0,
            "arrival generators need at least one processor and one slot"
        );
        Self {
            occ: vec![vec![false; cfg.horizon as usize]; cfg.num_processors as usize],
        }
    }

    /// Claims the earliest free slot on `proc` in `[from, to)`.
    fn claim_earliest(&mut self, proc: u32, from: u32, to: u32) -> Option<u32> {
        (from..to)
            .find(|&t| !self.occ[proc as usize][t as usize])
            .inspect(|&t| {
                self.occ[proc as usize][t as usize] = true;
            })
    }

    /// Claims the latest free slot on `proc` in `[from, to)`.
    fn claim_latest(&mut self, proc: u32, from: u32, to: u32) -> Option<u32> {
        (from..to)
            .rev()
            .find(|&t| !self.occ[proc as usize][t as usize])
            .inspect(|&t| {
                self.occ[proc as usize][t as usize] = true;
            })
    }
}

fn job_value(cfg: &ArrivalConfig, rng: &mut impl Rng) -> f64 {
    if cfg.max_value <= 1 {
        1.0
    } else {
        rng.gen_range(1..=cfg.max_value) as f64
    }
}

/// Contiguous single-processor window `[release, deadline]` around `home`.
fn windowed_job(cfg: &ArrivalConfig, value: f64, release: u32, proc: u32, home: u32) -> TimedJob {
    let end = (home + 1 + cfg.slack).min(cfg.horizon);
    TimedJob {
        release,
        value,
        allowed: (release..end).map(|t| SlotRef::new(proc, t)).collect(),
        work: None,
    }
}

/// Poisson bursts: exponential inter-arrival gaps (mean `horizon /
/// (target_jobs / mean_burst)`), each arrival bringing `1 + Poisson(1)`
/// jobs on random processors.
pub fn poisson_bursts(cfg: &ArrivalConfig, rng: &mut impl Rng) -> ArrivalTrace {
    let mut grid = Grid::new(cfg); // asserts a non-degenerate grid first
    let mean_burst = 2.0;
    let bursts = (cfg.target_jobs as f64 / mean_burst).max(1.0);
    // Over-provision the rate: arrivals past the horizon are discarded and
    // the job count is capped at target_jobs, so without margin the
    // truncation makes traces chronically undershoot the target.
    let exp = Exp::new(1.6 * bursts / cfg.horizon as f64).expect("positive rate");
    let burst_size = Poisson::new(mean_burst - 1.0).expect("positive mean");

    let mut jobs = Vec::new();
    let mut clock = 0.0f64;
    while jobs.len() < cfg.target_jobs {
        clock += exp.sample(rng);
        let release = clock.floor() as i64;
        if release >= cfg.horizon as i64 {
            break;
        }
        // Never release at the very last slot: a job revealed there has a
        // single-slot window, which collides unavoidably with any policy
        // that deferred work into that slot.
        let release = (release as u32).min(cfg.horizon.saturating_sub(2));
        let burst: u64 = Distribution::<u64>::sample(&burst_size, rng) + 1;
        for _ in 0..burst {
            if jobs.len() >= cfg.target_jobs {
                break;
            }
            let proc = rng.gen_range(0..cfg.num_processors);
            if let Some(home) = grid.claim_earliest(proc, release, cfg.horizon) {
                jobs.push(windowed_job(cfg, job_value(cfg, rng), release, proc, home));
            }
        }
    }
    ArrivalTrace {
        name: format!(
            "poisson-p{}-T{}-n{}",
            cfg.num_processors,
            cfg.horizon,
            jobs.len()
        ),
        num_processors: cfg.num_processors,
        horizon: cfg.horizon,
        restart: cfg.restart,
        rate: cfg.rate,
        jobs,
        profiles: None,
        freq_ladder: None,
    }
}

/// Diurnal load: per-slot arrival counts drawn from a Poisson whose mean
/// follows a day/night sinusoid over the horizon — heavy half, quiet half.
pub fn diurnal(cfg: &ArrivalConfig, rng: &mut impl Rng) -> ArrivalTrace {
    let base = cfg.target_jobs as f64 / cfg.horizon as f64;
    let mut grid = Grid::new(cfg);
    let mut jobs = Vec::new();
    // Stop one slot early for the same single-slot-window reason as
    // [`poisson_bursts`].
    for t in 0..cfg.horizon.saturating_sub(1) {
        let phase = (t as f64 / cfg.horizon as f64) * std::f64::consts::TAU;
        let lambda = (base * (1.0 + 0.9 * phase.sin())).max(0.02);
        let arrivals: u64 = Poisson::new(lambda).expect("positive mean").sample(rng);
        for _ in 0..arrivals {
            if jobs.len() >= cfg.target_jobs {
                break;
            }
            let proc = rng.gen_range(0..cfg.num_processors);
            if let Some(home) = grid.claim_earliest(proc, t, cfg.horizon) {
                jobs.push(windowed_job(cfg, job_value(cfg, rng), t, proc, home));
            }
        }
    }
    ArrivalTrace {
        name: format!(
            "diurnal-p{}-T{}-n{}",
            cfg.num_processors,
            cfg.horizon,
            jobs.len()
        ),
        num_processors: cfg.num_processors,
        horizon: cfg.horizon,
        restart: cfg.restart,
        rate: cfg.rate,
        jobs,
        profiles: None,
        freq_ladder: None,
    }
}

/// Adversarial deadline cliffs: the horizon is split into waves; each
/// wave's jobs are released across its first half but **all** share the
/// wave-end deadline. A policy that procrastinates faces a mass wake-up at
/// the cliff; one that serves eagerly pays restarts per release. Homes are
/// planted backward from the cliff so the wave is always feasible.
pub fn deadline_cliffs(cfg: &ArrivalConfig, rng: &mut impl Rng) -> ArrivalTrace {
    let waves = 3u32.min(cfg.horizon.max(1));
    let wave_len = (cfg.horizon / waves).max(1);
    let per_wave = cfg.target_jobs.div_ceil(waves as usize);

    let mut grid = Grid::new(cfg);
    let mut jobs = Vec::new();
    for w in 0..waves {
        let wave_start = w * wave_len;
        let cliff = if w == waves - 1 {
            cfg.horizon
        } else {
            (w + 1) * wave_len
        };
        let release_span = ((cliff - wave_start) / 2).max(1);
        for _ in 0..per_wave {
            if jobs.len() >= cfg.target_jobs {
                break;
            }
            let release = wave_start + rng.gen_range(0..release_span);
            let proc = rng.gen_range(0..cfg.num_processors);
            if let Some(_home) = grid.claim_latest(proc, release, cliff) {
                jobs.push(TimedJob {
                    release,
                    value: job_value(cfg, rng),
                    allowed: (release..cliff).map(|t| SlotRef::new(proc, t)).collect(),
                    work: None,
                });
            }
        }
    }
    ArrivalTrace {
        name: format!(
            "cliffs-p{}-T{}-n{}",
            cfg.num_processors,
            cfg.horizon,
            jobs.len()
        ),
        num_processors: cfg.num_processors,
        horizon: cfg.horizon,
        restart: cfg.restart,
        rate: cfg.rate,
        jobs,
        profiles: None,
        freq_ladder: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sched_core::{enumerate_candidates, schedule_all, AffineCost, CandidatePolicy};

    fn kinds() -> [TraceKind; 3] {
        [
            TraceKind::PoissonBursts,
            TraceKind::Diurnal,
            TraceKind::DeadlineCliffs,
        ]
    }

    #[test]
    fn generated_traces_validate_and_are_offline_feasible() {
        for kind in kinds() {
            for seed in 0..8 {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let cfg = ArrivalConfig::default();
                let trace = generate_trace(kind, &cfg, &mut rng);
                assert_eq!(trace.validate(), Ok(()), "{kind} seed {seed}");
                assert!(!trace.jobs.is_empty(), "{kind} seed {seed}: empty trace");
                assert!(trace.jobs.len() <= cfg.target_jobs);
                let inst = trace.to_instance();
                let cost = AffineCost::new(trace.restart, trace.rate);
                let cands = enumerate_candidates(&inst, &cost, CandidatePolicy::All);
                let solved = schedule_all(&inst, &cands, &Default::default());
                assert!(
                    solved.is_ok(),
                    "{kind} seed {seed}: planted trace offline-infeasible"
                );
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        for kind in kinds() {
            let cfg = ArrivalConfig::default();
            let a = generate_trace(kind, &cfg, &mut rand::rngs::StdRng::seed_from_u64(9));
            let b = generate_trace(kind, &cfg, &mut rand::rngs::StdRng::seed_from_u64(9));
            assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap(),
                "{kind} not deterministic"
            );
        }
    }

    #[test]
    fn cliffs_share_wave_deadlines() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let cfg = ArrivalConfig {
            horizon: 24,
            target_jobs: 9,
            ..Default::default()
        };
        let trace = deadline_cliffs(&cfg, &mut rng);
        let mut deadlines: Vec<u32> = trace.jobs.iter().map(|j| j.deadline().unwrap()).collect();
        deadlines.sort_unstable();
        deadlines.dedup();
        assert!(
            deadlines.len() <= 3,
            "more deadline cliffs than waves: {deadlines:?}"
        );
    }

    #[test]
    fn kind_parse_round_trip() {
        for kind in kinds() {
            assert_eq!(kind.to_string().parse::<TraceKind>().unwrap(), kind);
        }
        assert!("bogus".parse::<TraceKind>().is_err());
    }

    #[test]
    fn values_respect_max_value() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let cfg = ArrivalConfig {
            max_value: 5,
            ..Default::default()
        };
        let trace = poisson_bursts(&cfg, &mut rng);
        for j in &trace.jobs {
            assert!(j.value >= 1.0 && j.value <= 5.0);
        }
    }
}
