//! Workload knobs, read from `perfbench/config.json` (embedded at build
//! time). The engine's offered rates are absolute and fixed here: a run never
//! derives its load from its own measured capacity, so two commits are always
//! offered the same load. The file holds the engine's load shape and the
//! sizes the smoke tests shrink; values nothing ever varies are constants of
//! the workload modules.

use serde::Deserialize;

/// Everything `config.json` holds.
#[derive(Clone, Debug, Deserialize)]
pub struct Config {
    /// Set-up runs per untimed phase; `setup_s` is their median.
    pub setup_repeats: usize,
    /// `offline_solve` sizing.
    pub offline_solve: OfflineConfig,
    /// `engine_diurnal` load shape.
    pub engine_diurnal: DiurnalConfig,
    /// `online_replay` trace shape.
    pub online_replay: ReplayConfig,
}

/// One offline instance class.
#[derive(Clone, Debug, Deserialize)]
pub struct ClassShape {
    /// Processors.
    pub processors: u32,
    /// Horizon.
    pub horizon: u32,
    /// Jobs.
    pub jobs: usize,
}

/// `offline_solve` sizing.
#[derive(Clone, Debug, Deserialize)]
pub struct OfflineConfig {
    /// Instances per class; the closed loop rotates through them.
    pub pool_per_class: usize,
    /// Planted instance, affine cost.
    pub affine: ClassShape,
    /// Planted instance, fixed per-processor profile fleet.
    pub hetero: ClassShape,
    /// Speed-scaling instance on the default three-rung ladder.
    pub dvfs: ClassShape,
}

/// `engine_diurnal` load shape.
#[derive(Clone, Debug, Deserialize)]
pub struct DiurnalConfig {
    /// Server worker threads (fixed, never read from the machine).
    pub workers: usize,
    /// Offered rate at the trough of each cycle, requests/s.
    pub low_rps: f64,
    /// Offered rate at the peak of each cycle, requests/s.
    pub high_rps: f64,
    /// Length of one trough-peak-trough cycle, seconds.
    pub cycle_s: f64,
    /// Whole cycles in one pass of the arrival schedule; a run repeats the
    /// pass as often as its seconds allow.
    pub cycles_per_pass: usize,
    /// The run is invalid when the generator's p99 lag exceeds this.
    pub lag_bound_us_p99: f64,
    /// Untimed warm-up requests per set-up.
    pub warmup_requests: usize,
    /// About one request in this many is re-solved in process and compared.
    pub sample_every: u64,
}

/// `online_replay` trace shape.
#[derive(Clone, Debug, Deserialize)]
pub struct ReplayConfig {
    /// Traces per generator kind (Poisson bursts, diurnal).
    pub traces_per_kind: usize,
    /// Processors.
    pub processors: u32,
    /// Horizon (slots).
    pub horizon: u32,
    /// Jobs per trace (target).
    pub jobs: usize,
    /// Advance notice: jobs are released this many slots before their
    /// window opens.
    pub lead: u32,
}

impl Config {
    /// The committed configuration.
    pub fn committed() -> Self {
        serde_json::from_str(include_str!("../config.json")).expect("config.json parses")
    }
}
