//! Speed scaling (DVFS): work-requirement jobs on a discrete frequency
//! ladder, compiled onto the classical unit-job machinery.
//!
//! # Model
//!
//! A [`DvfsInstance`] gives each job a **work requirement** `w` (units of
//! computation) instead of a fixed one-slot shape, and each processor a
//! [`FreqLadder`] of discrete speeds with dynamic power
//! `P(f) = alpha · f^gamma + beta`. Running at frequency `f`, a processor
//! executes `f` units of work per awake slot and draws `P(f)` energy per
//! slot; a job's allowed set still names *physical* (processor, slot) pairs.
//! The scheduler chooses awake intervals **and** a frequency level per
//! interval: low levels *stretch* work across cheap slow slots, high levels
//! *compress* it into few expensive fast ones.
//!
//! # Compilation
//!
//! Rather than re-deriving the matching-rank greedy for divisible work, the
//! DVFS problem **compiles onto the existing solvers** via a virtual grid
//! (`L` = number of levels, `F` = top frequency):
//!
//! * virtual processor `p·L + ℓ` is physical processor `p` running at level
//!   `ℓ`;
//! * virtual time expands each physical slot into `F` *lanes*
//!   (`t·F + k`, `k < F`); a slot at level `ℓ` exposes its first `f_ℓ`
//!   lanes — its work capacity at that speed;
//! * a job of work `w` and value `v` becomes `w` **sub-jobs** of value
//!   `v / w`, each allowed on every lane of every allowed slot at every
//!   level;
//! * a candidate awake interval at level `ℓ` over physical `[s, e)` covers
//!   virtual `[s·F, e·F)` on virtual processor `p·L + ℓ` and costs
//!   `wake + P(f_ℓ) · (e − s)` — the same float expression as the classical
//!   [`AffineCost`](crate::AffineCost).
//!
//! With the degenerate single-frequency ladder
//! ([`FreqLadder::degenerate`]), `L = F = 1` and the construction collapses
//! bit-identically to the classical model — the equivalence proptests in
//! `tests/dvfs_equivalence.rs` prove it.
//!
//! # What the relaxation buys and costs
//!
//! This is a *malleable, level-parallel* relaxation of per-job frequency
//! assignment: a job's work units may split across slots, levels, and
//! processors, and a physical processor may notionally hold two levels awake
//! in one slot (two virtual rows). In exchange, the fast/naive/exact solver
//! stack and every guarantee it carries apply verbatim to the compiled
//! instance — in particular the exact branch-and-bound reference stays a
//! lower bound within the same model, so small-instance `ratio ≥ 1`
//! cross-checks remain theorems. Classical
//! [`validate_schedule`](crate::model::validate_schedule) does **not** apply
//! to decompiled schedules (lane sharing is legal here); use
//! [`validate_dvfs_schedule`] instead.
//!
//! The compiled family is explicit, and its price is not
//! inclusion-monotone (an interval that is not lane-aligned is no
//! candidate), so it is solved by the free
//! [`schedule_all`](crate::schedule_all()) over
//! [`CompiledDvfs::candidates`], not by a [`crate::Solver`]:
//! [`solve_dvfs_counted`] compiles, solves and decompiles, and the CLI, the
//! engine and [`solve_dvfs`] all go through it.

use serde::{Deserialize, Serialize};

use crate::candidates::CandidateInterval;
use crate::model::{Instance, InstanceError, Job, Schedule, ScheduleError, SlotRef, SolveOptions};
use crate::naive::naive_schedule_all;
use crate::profile::{FreqLadder, FreqLadderError};
use crate::schedule_all::schedule_all;

/// A speed-scaling instance: work-requirement jobs, a frequency ladder, and
/// a wake cost per awake interval.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DvfsInstance {
    /// Number of physical processors `p`.
    pub num_processors: u32,
    /// Number of physical time slots `T`.
    pub horizon: u32,
    /// Fixed cost of waking a processor for one awake interval (any level).
    pub wake_cost: f64,
    /// The frequency ladder shared by every processor.
    pub ladder: FreqLadder,
    /// The jobs; [`Job::work`] defaults to one unit when absent.
    pub jobs: Vec<Job>,
}

/// Structural problems detected by [`DvfsInstance::validate`].
#[derive(Clone, Debug, PartialEq)]
pub enum DvfsError {
    /// The frequency ladder is invalid.
    Ladder(FreqLadderError),
    /// The underlying physical instance is invalid.
    Instance(InstanceError),
    /// The wake cost is not finite and non-negative.
    InvalidWakeCost {
        /// The rejected wake cost.
        wake_cost: f64,
    },
}

impl std::fmt::Display for DvfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DvfsError::Ladder(e) => write!(f, "invalid frequency ladder: {e}"),
            DvfsError::Instance(e) => write!(f, "{e}"),
            DvfsError::InvalidWakeCost { wake_cost } => {
                write!(
                    f,
                    "wake cost must be finite and non-negative, got {wake_cost}"
                )
            }
        }
    }
}

impl std::error::Error for DvfsError {}

/// Why a DVFS solve failed, with certificates mapped back to *original* job
/// indices (the solver's Hall violators name sub-jobs).
#[derive(Clone, Debug, PartialEq)]
pub enum DvfsSolveError {
    /// The instance failed validation before compilation.
    Invalid(DvfsError),
    /// Not all work can be scheduled with the compiled candidates.
    Infeasible {
        /// Original job indices forming the (deduplicated) Hall violator.
        certificate: Vec<u32>,
        /// Value scheduled at the stall point (fractional — sub-job values).
        achieved_value: f64,
    },
}

impl std::fmt::Display for DvfsSolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DvfsSolveError::Invalid(e) => write!(f, "{e}"),
            DvfsSolveError::Infeasible {
                certificate,
                achieved_value,
            } => write!(
                f,
                "infeasible DVFS instance (achieved value {achieved_value}; \
                 Hall violator of {} jobs)",
                certificate.len()
            ),
        }
    }
}

impl std::error::Error for DvfsSolveError {}

impl DvfsInstance {
    /// Checks structural invariants: a valid ladder, a usable wake cost
    /// (`wake_cost + min-level power` is automatically positive because
    /// validated ladders have positive power at every level), and a valid
    /// underlying physical instance including `work >= 1`.
    pub fn validate(&self) -> Result<(), DvfsError> {
        self.ladder.validate().map_err(DvfsError::Ladder)?;
        if !(self.wake_cost.is_finite() && self.wake_cost >= 0.0) {
            return Err(DvfsError::InvalidWakeCost {
                wake_cost: self.wake_cost,
            });
        }
        self.to_physical_instance()
            .validate()
            .map_err(DvfsError::Instance)
    }

    /// The physical instance view (jobs verbatim, no lane expansion) — what
    /// validation checks slot ranges against.
    fn to_physical_instance(&self) -> Instance {
        Instance {
            num_processors: self.num_processors,
            horizon: self.horizon,
            jobs: self.jobs.clone(),
        }
    }

    /// Total work units across all jobs.
    pub fn total_work(&self) -> u64 {
        self.jobs.iter().map(|j| u64::from(j.work_units())).sum()
    }

    /// Compiles onto the virtual grid (see the [module docs](self)).
    /// Validates first.
    pub fn compile(&self) -> Result<CompiledDvfs, DvfsError> {
        let _span = sched_obs::span!("core.dvfs.compile_ns");
        self.validate()?;
        let levels = self.ladder.num_levels();
        let lane_factor = self.ladder.max_freq();
        let l = levels as u32;
        let f = lane_factor;

        let mut jobs = Vec::new();
        let mut sub_job_owner = Vec::new();
        for (jid, job) in self.jobs.iter().enumerate() {
            let w = job.work_units();
            // Sub-job value v / w; for w = 1 this is v / 1.0 == v bitwise,
            // which the degenerate-ladder equivalence proof relies on.
            let sub_value = job.value / w as f64;
            let mut allowed = Vec::new();
            for level in 0..levels {
                let freq = self.ladder.freqs[level];
                for s in &job.allowed {
                    for k in 0..freq {
                        allowed.push(SlotRef {
                            proc: s.proc * l + level as u32,
                            time: s.time * f + k,
                        });
                    }
                }
            }
            for _ in 0..w {
                jobs.push(Job {
                    value: sub_value,
                    allowed: allowed.clone(),
                    work: None,
                });
                sub_job_owner.push(jid as u32);
            }
        }
        let instance = Instance {
            num_processors: self.num_processors * l,
            horizon: self.horizon * f,
            jobs,
        };

        // Explicit candidate family in (virtual proc, start, end) order,
        // finite costs only, as enumerate_candidates lists a family.
        let mut candidates = Vec::new();
        for proc in 0..self.num_processors {
            for level in 0..levels {
                let power = self.ladder.power_of_freq(self.ladder.freqs[level]);
                let vproc = proc * l + level as u32;
                for start in 0..self.horizon {
                    for end in (start + 1)..=self.horizon {
                        // Same float expression as AffineCost::cost.
                        let cost = self.wake_cost + power * (end - start) as f64;
                        if cost.is_infinite() {
                            continue;
                        }
                        candidates.push(CandidateInterval {
                            proc: vproc,
                            start: start * f,
                            end: end * f,
                            cost,
                        });
                    }
                }
            }
        }

        Ok(CompiledDvfs {
            instance,
            candidates,
            levels,
            lane_factor,
            wake_cost: self.wake_cost,
            ladder: self.ladder.clone(),
            sub_job_owner,
            num_jobs: self.jobs.len(),
        })
    }
}

/// A compiled DVFS instance: the virtual-grid [`Instance`] and candidate
/// family the classical solvers run on, plus the bookkeeping to map
/// schedules back to physical coordinates.
#[derive(Clone, Debug)]
pub struct CompiledDvfs {
    /// The virtual instance (`p·L` processors, `T·F` slots, one sub-job per
    /// work unit).
    pub instance: Instance,
    /// Candidate awake intervals over the virtual grid, lane-aligned, one
    /// per (processor, level, physical interval) of finite cost.
    pub candidates: Vec<CandidateInterval>,
    /// Number of frequency levels `L`.
    pub levels: usize,
    /// Lane factor `F` (the ladder's top frequency).
    pub lane_factor: u32,
    /// Wake cost carried over for validation/decompilation.
    pub wake_cost: f64,
    /// The ladder carried over for decompilation.
    pub ladder: FreqLadder,
    /// Original job index of each sub-job.
    pub sub_job_owner: Vec<u32>,
    /// Number of original jobs.
    pub num_jobs: usize,
}

impl CompiledDvfs {
    /// Maps a virtual-grid schedule back to physical coordinates.
    ///
    /// # Panics
    /// Panics if an awake interval is not lane-aligned — impossible for
    /// schedules produced from this compilation's candidates.
    pub fn decompile(&self, s: &Schedule) -> DvfsSchedule {
        let l = self.levels as u32;
        let f = self.lane_factor;
        let awake = s
            .awake
            .iter()
            .map(|iv| {
                assert!(
                    iv.start % f == 0 && iv.end % f == 0,
                    "awake interval [{}, {}) is not lane-aligned",
                    iv.start,
                    iv.end
                );
                let level = (iv.proc % l) as usize;
                DvfsInterval {
                    proc: iv.proc / l,
                    level,
                    freq: self.ladder.freqs[level],
                    start: iv.start / f,
                    end: iv.end / f,
                    cost: iv.cost,
                }
            })
            .collect();
        let mut assignments = vec![Vec::new(); self.num_jobs];
        for (sub, asg) in s.assignments.iter().enumerate() {
            if let Some(slot) = asg {
                assignments[self.sub_job_owner[sub] as usize].push(DvfsQuantum {
                    proc: slot.proc / l,
                    level: (slot.proc % l) as usize,
                    time: slot.time / f,
                    lane: slot.time % f,
                });
            }
        }
        DvfsSchedule {
            awake,
            assignments,
            total_cost: s.total_cost,
            scheduled_value: s.scheduled_value,
        }
    }
}

/// One awake interval of a DVFS schedule: a physical processor held awake at
/// one frequency level over a physical time interval.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DvfsInterval {
    /// Physical processor.
    pub proc: u32,
    /// Frequency level index (0 = slowest).
    pub level: usize,
    /// The frequency at that level, denormalized for readability.
    pub freq: u32,
    /// First awake physical slot (inclusive).
    pub start: u32,
    /// One past the last awake physical slot (exclusive).
    pub end: u32,
    /// Energy cost: `wake + P(freq) · (end − start)`.
    pub cost: f64,
}

/// One scheduled work unit: which lane of which slot, at which level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DvfsQuantum {
    /// Physical processor.
    pub proc: u32,
    /// Frequency level index.
    pub level: usize,
    /// Physical time slot.
    pub time: u32,
    /// Lane within the slot (`0..freq(level)`).
    pub lane: u32,
}

/// A DVFS schedule in physical coordinates: per-level awake intervals and
/// per-job work-unit placements.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DvfsSchedule {
    /// Chosen awake intervals, in greedy pick order.
    pub awake: Vec<DvfsInterval>,
    /// Per original job: the placements of its work units.
    pub assignments: Vec<Vec<DvfsQuantum>>,
    /// Total energy cost of the awake intervals.
    pub total_cost: f64,
    /// Total scheduled value (fractional sub-job accounting; equals the sum
    /// of completed-job values when every job completes).
    pub scheduled_value: f64,
}

impl DvfsSchedule {
    /// Indices of jobs whose every work unit is placed.
    pub fn completed(&self, dvfs: &DvfsInstance) -> Vec<usize> {
        self.assignments
            .iter()
            .enumerate()
            .filter(|(j, quanta)| quanta.len() == dvfs.jobs[*j].work_units() as usize)
            .map(|(j, _)| j)
            .collect()
    }

    /// Flattens this schedule into a classical [`Schedule`] over the
    /// *physical* grid — awake intervals in physical coordinates, each job
    /// assigned its first quantum's slot — plus the frequency level of every
    /// awake interval, in order. This is the wire shape the engine returns:
    /// lossy for multi-quantum jobs but enough for a dashboard; callers
    /// needing the full placement use [`DvfsSchedule`] directly. The
    /// flattened schedule must not be fed to classical
    /// [`validate_schedule`](crate::model::validate_schedule) — lane sharing
    /// is legal under DVFS and would be reported as slot collisions.
    pub fn to_physical(&self) -> (Schedule, Vec<u32>) {
        let awake = self
            .awake
            .iter()
            .map(|iv| CandidateInterval {
                proc: iv.proc,
                start: iv.start,
                end: iv.end,
                cost: iv.cost,
            })
            .collect();
        let freq_levels = self.awake.iter().map(|iv| iv.level as u32).collect();
        let mut count = 0usize;
        let assignments = self
            .assignments
            .iter()
            .map(|quanta| {
                quanta.first().map(|q| {
                    count += 1;
                    SlotRef {
                        proc: q.proc,
                        time: q.time,
                    }
                })
            })
            .collect();
        (
            Schedule {
                awake,
                assignments,
                total_cost: self.total_cost,
                scheduled_value: self.scheduled_value,
                scheduled_count: count,
            },
            freq_levels,
        )
    }
}

/// Violations detected by [`validate_dvfs_schedule`].
#[derive(Clone, Debug, PartialEq)]
pub enum DvfsViolation {
    /// A quantum's (processor, time) is not in its job's allowed set.
    DisallowedSlot {
        /// Offending job index.
        job: u32,
        /// The offending quantum.
        quantum: DvfsQuantum,
    },
    /// A quantum's lane is at or past its level's frequency.
    LaneOutOfRange {
        /// Offending job index.
        job: u32,
        /// The offending quantum.
        quantum: DvfsQuantum,
    },
    /// Two quanta occupy the same (processor, level, time, lane).
    LaneCollision {
        /// The contested quantum position.
        quantum: DvfsQuantum,
    },
    /// A quantum is not covered by any awake interval at its level.
    QuantumNotAwake {
        /// Offending job index.
        job: u32,
        /// The offending quantum.
        quantum: DvfsQuantum,
    },
    /// A job has more quanta placed than its work requirement.
    TooMuchWork {
        /// Offending job index.
        job: u32,
    },
    /// An awake interval's cost differs from `wake + P(freq) · len`.
    IntervalCostMismatch {
        /// Index into [`DvfsSchedule::awake`].
        interval: usize,
    },
    /// Recorded total cost does not match the sum of interval costs.
    CostMismatch {
        /// The recorded total.
        recorded: f64,
        /// The recomputed sum.
        actual: f64,
    },
}

/// Checks a DVFS schedule against its instance: allowed slots, lane bounds,
/// lane exclusivity, awake coverage at the right level, per-job work bounds,
/// and cost accounting. Returns all violations found.
pub fn validate_dvfs_schedule(dvfs: &DvfsInstance, s: &DvfsSchedule) -> Vec<DvfsViolation> {
    let mut out = Vec::new();
    let mut used = std::collections::HashSet::new();
    for (jid, quanta) in s.assignments.iter().enumerate() {
        let job = &dvfs.jobs[jid];
        if quanta.len() > job.work_units() as usize {
            out.push(DvfsViolation::TooMuchWork { job: jid as u32 });
        }
        for q in quanta {
            let slot = SlotRef {
                proc: q.proc,
                time: q.time,
            };
            if !job.allowed.contains(&slot) {
                out.push(DvfsViolation::DisallowedSlot {
                    job: jid as u32,
                    quantum: *q,
                });
            }
            if q.level >= dvfs.ladder.num_levels() || q.lane >= dvfs.ladder.freqs[q.level] {
                out.push(DvfsViolation::LaneOutOfRange {
                    job: jid as u32,
                    quantum: *q,
                });
                continue;
            }
            if !used.insert((q.proc, q.level, q.time, q.lane)) {
                out.push(DvfsViolation::LaneCollision { quantum: *q });
            }
            let covered = s.awake.iter().any(|iv| {
                iv.proc == q.proc && iv.level == q.level && iv.start <= q.time && q.time < iv.end
            });
            if !covered {
                out.push(DvfsViolation::QuantumNotAwake {
                    job: jid as u32,
                    quantum: *q,
                });
            }
        }
    }
    let mut actual = 0.0;
    for (i, iv) in s.awake.iter().enumerate() {
        actual += iv.cost;
        let expect = dvfs.wake_cost
            + dvfs.ladder.power_of_freq(iv.freq) * (iv.end.saturating_sub(iv.start)) as f64;
        if iv.level >= dvfs.ladder.num_levels()
            || dvfs.ladder.freqs[iv.level] != iv.freq
            || (expect - iv.cost).abs() > 1e-6
        {
            out.push(DvfsViolation::IntervalCostMismatch { interval: i });
        }
    }
    if (actual - s.total_cost).abs() > 1e-6 {
        out.push(DvfsViolation::CostMismatch {
            recorded: s.total_cost,
            actual,
        });
    }
    out
}

fn map_infeasible(compiled: &CompiledDvfs, e: ScheduleError) -> DvfsSolveError {
    match e {
        ScheduleError::Infeasible {
            certificate,
            achieved_value,
        } => {
            let mut jobs: Vec<u32> = certificate
                .iter()
                .map(|&sub| compiled.sub_job_owner[sub as usize])
                .collect();
            jobs.sort_unstable();
            jobs.dedup();
            DvfsSolveError::Infeasible {
                certificate: jobs,
                achieved_value,
            }
        }
        // schedule_all never returns TargetExceedsTotalValue, but map it
        // conservatively to an empty-certificate infeasibility.
        ScheduleError::TargetExceedsTotalValue { .. } => DvfsSolveError::Infeasible {
            certificate: Vec::new(),
            achieved_value: 0.0,
        },
    }
}

/// Solves a DVFS instance end-to-end on the fast path: compile, greedy
/// `schedule_all` over the compiled candidates, decompile.
pub fn solve_dvfs(dvfs: &DvfsInstance) -> Result<DvfsSchedule, DvfsSolveError> {
    solve_dvfs_counted(dvfs).map(|(schedule, _)| schedule)
}

/// [`solve_dvfs`], plus the size of the compiled family it solved over —
/// what the engine reports as a DVFS request's `candidates`.
pub fn solve_dvfs_counted(dvfs: &DvfsInstance) -> Result<(DvfsSchedule, usize), DvfsSolveError> {
    compile_and_solve(dvfs, schedule_all)
}

/// The naive twin of [`solve_dvfs`]: identical compilation, solved through
/// the retained seed path — the reference the DVFS equivalence proptests
/// compare bits against.
pub fn solve_dvfs_naive(dvfs: &DvfsInstance) -> Result<DvfsSchedule, DvfsSolveError> {
    compile_and_solve(dvfs, naive_schedule_all).map(|(schedule, _)| schedule)
}

/// A schedule-all solver over an explicit family.
type FamilySolve =
    fn(&Instance, &[CandidateInterval], &SolveOptions) -> Result<Schedule, ScheduleError>;

/// Compiles `dvfs`, runs `solve` over the compiled candidates and
/// decompiles the answer; also returns the compiled family's size.
fn compile_and_solve(
    dvfs: &DvfsInstance,
    solve: FamilySolve,
) -> Result<(DvfsSchedule, usize), DvfsSolveError> {
    let compiled = dvfs.compile().map_err(DvfsSolveError::Invalid)?;
    let schedule = solve(
        &compiled.instance,
        &compiled.candidates,
        &SolveOptions::default(),
    )
    .map_err(|e| map_infeasible(&compiled, e))?;
    Ok((compiled.decompile(&schedule), compiled.candidates.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{enumerate_candidates, CandidatePolicy};
    use crate::cost::AffineCost;
    use crate::profile::FreqLadder;

    fn two_level() -> DvfsInstance {
        DvfsInstance {
            num_processors: 1,
            horizon: 3,
            wake_cost: 1.0,
            ladder: FreqLadder::new(1.0, 0.0, 2.0, vec![1, 2]),
            jobs: vec![
                Job::window(1.0, 0, 0, 1).with_work(2),
                Job::window(1.0, 0, 1, 2),
                Job::window(1.0, 0, 2, 3),
            ],
        }
    }

    #[test]
    fn compile_expands_grid_and_subjobs() {
        let d = two_level();
        let c = d.compile().unwrap();
        assert_eq!(c.instance.num_processors, 2); // 1 proc × 2 levels
        assert_eq!(c.instance.horizon, 6); // 3 slots × lane factor 2
        assert_eq!(c.instance.num_jobs(), 4); // work 2 + 1 + 1
        assert_eq!(c.sub_job_owner, vec![0, 0, 1, 2]);
        // Sub-jobs of job 0 may run on level 0 lane 0 of slot 0, and level 1
        // lanes 0..2 of slot 0.
        assert_eq!(
            c.instance.jobs[0].allowed,
            vec![SlotRef::new(0, 0), SlotRef::new(1, 0), SlotRef::new(1, 1),]
        );
        // Sub-job values split the original value bitwise-evenly.
        assert_eq!(c.instance.jobs[0].value, 0.5);
        assert_eq!(c.instance.jobs[2].value, 1.0);
        // Candidate count: per virtual processor T(T+1)/2 = 6.
        assert_eq!(c.candidates.len(), 12);
    }

    #[test]
    fn explicit_candidates_match_oracle_enumeration() {
        // Level ℓ of processor p is the physical row priced affine at
        // (wake, P(f_ℓ)), stretched onto lanes: enumerating that price on
        // the physical grid lists the compiled family row by row, bits
        // included.
        let d = two_level();
        let c = d.compile().unwrap();
        let physical = Instance::new(d.num_processors, d.horizon, Vec::new());
        let (l, f) = (d.ladder.num_levels() as u32, d.ladder.max_freq());
        let mut expected = Vec::new();
        for proc in 0..d.num_processors {
            for (level, &freq) in d.ladder.freqs.iter().enumerate() {
                let cost = AffineCost::new(d.wake_cost, d.ladder.power_of_freq(freq));
                let row = enumerate_candidates(&physical, &cost, CandidatePolicy::All);
                expected.extend(row.iter().filter(|iv| iv.proc == proc).map(|iv| {
                    let vproc = proc * l + level as u32;
                    (vproc, iv.start * f, iv.end * f, iv.cost.to_bits())
                }));
            }
        }
        let compiled: Vec<_> = c
            .candidates
            .iter()
            .map(|iv| (iv.proc, iv.start, iv.end, iv.cost.to_bits()))
            .collect();
        assert_eq!(compiled, expected);
    }

    #[test]
    fn compile_drops_intervals_that_price_to_infinity() {
        // P(1) = 1e308: one slot is finite, two overflow to ∞, and an
        // infinite price is no candidate, as under enumerate_candidates.
        let d = DvfsInstance {
            num_processors: 1,
            horizon: 2,
            wake_cost: 0.0,
            ladder: FreqLadder::new(1e308, 0.0, 1.0, vec![1]),
            jobs: vec![Job::window(1.0, 0, 0, 2)],
        };
        let c = d.compile().unwrap();
        let spans: Vec<_> = c.candidates.iter().map(|iv| (iv.start, iv.end)).collect();
        assert_eq!(spans, vec![(0, 1), (1, 2)]);
        let (s, candidates) = solve_dvfs_counted(&d).unwrap();
        assert_eq!(candidates, 2);
        assert_eq!(s.total_cost, 1e308);
    }

    #[test]
    fn solve_round_trips_and_validates() {
        let d = two_level();
        let s = solve_dvfs(&d).unwrap();
        assert!(validate_dvfs_schedule(&d, &s).is_empty());
        assert_eq!(s.completed(&d), vec![0, 1, 2]);
        assert_eq!(s.scheduled_value, 3.0);
        let (phys, levels) = s.to_physical();
        assert_eq!(phys.scheduled_count, 3);
        assert_eq!(levels.len(), s.awake.len());
        assert!(phys.awake.iter().all(|iv| iv.end <= d.horizon));
    }

    #[test]
    fn infeasible_certificate_names_original_jobs() {
        // Work 4 in a single slot: even waking both levels at once (the
        // relaxation's worst case) only exposes 1 + 2 = 3 lanes.
        let d = DvfsInstance {
            num_processors: 1,
            horizon: 1,
            wake_cost: 1.0,
            ladder: FreqLadder::new(1.0, 0.0, 2.0, vec![1, 2]),
            jobs: vec![Job::window(1.0, 0, 0, 1).with_work(4)],
        };
        let err = solve_dvfs(&d).unwrap_err();
        match err {
            DvfsSolveError::Infeasible { certificate, .. } => {
                assert_eq!(certificate, vec![0]);
            }
            other => panic!("expected infeasible, got {other:?}"),
        }
        assert!(solve_dvfs_naive(&d).is_err());
    }

    #[test]
    fn validate_rejects_bad_instances() {
        let mut d = two_level();
        d.wake_cost = f64::NAN;
        assert!(matches!(
            d.validate(),
            Err(DvfsError::InvalidWakeCost { .. })
        ));
        let mut d = two_level();
        d.ladder.freqs = vec![];
        assert!(matches!(d.validate(), Err(DvfsError::Ladder(_))));
        let mut d = two_level();
        d.jobs[0].work = Some(0);
        assert!(matches!(d.validate(), Err(DvfsError::Instance(_))));
        let mut d = two_level();
        d.jobs[0].allowed[0].time = 99;
        assert!(matches!(d.validate(), Err(DvfsError::Instance(_))));
        assert!(matches!(solve_dvfs(&d), Err(DvfsSolveError::Invalid(_))));
        assert_eq!(two_level().total_work(), 4);
    }

    #[test]
    fn validator_catches_planted_violations() {
        let d = two_level();
        let mut s = solve_dvfs(&d).unwrap();
        // Move a quantum outside its job's allowed set.
        let orig = s.clone();
        s.assignments[1][0].time = 0;
        assert!(validate_dvfs_schedule(&d, &s)
            .iter()
            .any(|v| matches!(v, DvfsViolation::DisallowedSlot { job: 1, .. })));

        // Lane beyond the level's frequency.
        let mut s = orig.clone();
        s.assignments[1][0].lane = 7;
        assert!(validate_dvfs_schedule(&d, &s)
            .iter()
            .any(|v| matches!(v, DvfsViolation::LaneOutOfRange { .. })));

        // Duplicate quantum position → collision + too much work.
        let mut s = orig.clone();
        let q = s.assignments[1][0];
        s.assignments[1].push(q);
        let v = validate_dvfs_schedule(&d, &s);
        assert!(v
            .iter()
            .any(|x| matches!(x, DvfsViolation::LaneCollision { .. })));
        assert!(v
            .iter()
            .any(|x| matches!(x, DvfsViolation::TooMuchWork { job: 1 })));

        // Break an interval's cost and the total.
        let mut s = orig.clone();
        s.awake[0].cost += 1.0;
        let v = validate_dvfs_schedule(&d, &s);
        assert!(v
            .iter()
            .any(|x| matches!(x, DvfsViolation::IntervalCostMismatch { .. })));
        assert!(v
            .iter()
            .any(|x| matches!(x, DvfsViolation::CostMismatch { .. })));

        // Strip the awake cover.
        let mut s = orig;
        s.awake.clear();
        s.total_cost = 0.0;
        assert!(validate_dvfs_schedule(&d, &s)
            .iter()
            .any(|x| matches!(x, DvfsViolation::QuantumNotAwake { .. })));
    }

    #[test]
    fn dvfs_schedule_serde_round_trip() {
        let d = two_level();
        let s = solve_dvfs(&d).unwrap();
        let json = serde_json::to_string(&s).unwrap();
        let back: DvfsSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back.total_cost, s.total_cost);
        assert_eq!(back.assignments, s.assignments);
        assert!(validate_dvfs_schedule(&d, &back).is_empty());
        let json = serde_json::to_string(&d).unwrap();
        let back: DvfsInstance = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }
}
