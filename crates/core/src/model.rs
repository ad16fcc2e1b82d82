//! Scheduling instances, schedules, and validation.
//!
//! Time is discrete: slots `0..horizon`. A *slot reference* is a (processor,
//! time) pair; internally slots get dense ids `proc * horizon + time` so that
//! the bipartite reduction can index arrays directly.

use serde::{Deserialize, Serialize};

use crate::candidates::CandidateInterval;

/// A (processor, time-slot) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SlotRef {
    /// Processor index, `0..num_processors`.
    pub proc: u32,
    /// Time slot, `0..horizon`.
    pub time: u32,
}

impl SlotRef {
    /// Convenience constructor.
    pub fn new(proc: u32, time: u32) -> Self {
        Self { proc, time }
    }
}

/// A unit-time job: a positive value and the list of slots where it may run.
///
/// `PartialEq` is bitwise on the value (and order-sensitive on the slots):
/// exactly the notion of equality the warm-start instance-identity fast path
/// needs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// Job value (used by the prize-collecting variants; 1.0 by convention
    /// for schedule-all instances). Must be strictly positive.
    pub value: f64,
    /// Valid (processor, time) pairs — the set `T` of Definition 2. May span
    /// several disjoint intervals on several processors.
    pub allowed: Vec<SlotRef>,
    /// Work requirement in units of computation, for speed-scaling (DVFS)
    /// instances: at frequency `f` the job occupies `ceil(work / f)` slots.
    /// `None` (the legacy fixed-shape encoding — missing from pre-DVFS JSON)
    /// means one unit; the classical solvers ignore anything beyond that and
    /// the DVFS compiler in [`crate::dvfs`] expands larger requirements.
    /// Must be at least 1 when present.
    pub work: Option<u32>,
}

impl Job {
    /// Unit-value job allowed on the given slots.
    pub fn unit(allowed: Vec<SlotRef>) -> Self {
        Self {
            value: 1.0,
            allowed,
            work: None,
        }
    }

    /// Job allowed anywhere in `[start, end)` on processor `proc`.
    pub fn window(value: f64, proc: u32, start: u32, end: u32) -> Self {
        Self {
            value,
            allowed: (start..end).map(|t| SlotRef::new(proc, t)).collect(),
            work: None,
        }
    }

    /// Adds every slot of `[start, end)` on `proc` to the allowed set.
    pub fn add_window(mut self, proc: u32, start: u32, end: u32) -> Self {
        self.allowed
            .extend((start..end).map(|t| SlotRef::new(proc, t)));
        self
    }

    /// Sets the work requirement (builder style).
    pub fn with_work(mut self, work: u32) -> Self {
        self.work = Some(work);
        self
    }

    /// The work requirement, defaulting the legacy encoding to one unit.
    #[inline]
    pub fn work_units(&self) -> u32 {
        self.work.unwrap_or(1)
    }
}

/// A scheduling instance (Definition 2 of the paper).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Instance {
    /// Number of processors `p`.
    pub num_processors: u32,
    /// Number of time slots `T`; valid times are `0..horizon`.
    pub horizon: u32,
    /// The jobs.
    pub jobs: Vec<Job>,
}

impl Instance {
    /// Creates an instance, validating slot references and job values.
    ///
    /// # Panics
    /// Panics if any allowed slot is out of range or a job value is not
    /// strictly positive and finite. Untrusted inputs (deserialized wire
    /// requests, files) should be checked with [`Instance::validate`]
    /// instead.
    pub fn new(num_processors: u32, horizon: u32, jobs: Vec<Job>) -> Self {
        let inst = Self {
            num_processors,
            horizon,
            jobs,
        };
        if let Err(e) = inst.validate() {
            panic!("{e}");
        }
        inst
    }

    /// Checks the structural invariants [`Instance::new`] asserts: every job
    /// value strictly positive and finite, every allowed slot in range.
    ///
    /// Serde deserialization constructs instances field-by-field without
    /// running [`Instance::new`], so anything arriving over a file or the
    /// wire must pass through this check before it reaches a solver (which
    /// indexes arrays by slot id and would otherwise panic).
    pub fn validate(&self) -> Result<(), InstanceError> {
        for (i, j) in self.jobs.iter().enumerate() {
            if !(j.value > 0.0 && j.value.is_finite()) {
                return Err(InstanceError::InvalidValue {
                    job: i as u32,
                    value: j.value,
                });
            }
            if j.work == Some(0) {
                return Err(InstanceError::InvalidWork { job: i as u32 });
            }
            for s in &j.allowed {
                if s.proc >= self.num_processors || s.time >= self.horizon {
                    return Err(InstanceError::OutOfRangeSlot {
                        job: i as u32,
                        slot: *s,
                    });
                }
            }
        }
        Ok(())
    }

    /// Number of jobs `n`.
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Dense slot id of `s` (`proc * horizon + time`).
    #[inline]
    pub fn slot_id(&self, s: SlotRef) -> u32 {
        s.proc * self.horizon + s.time
    }

    /// Inverse of [`Instance::slot_id`].
    #[inline]
    pub fn slot_ref(&self, id: u32) -> SlotRef {
        SlotRef {
            proc: id / self.horizon,
            time: id % self.horizon,
        }
    }

    /// Total number of dense slot ids (`p · T`).
    #[inline]
    pub fn num_slots(&self) -> u32 {
        self.num_processors * self.horizon
    }

    /// Sum of all job values.
    pub fn total_value(&self) -> f64 {
        self.jobs.iter().map(|j| j.value).sum()
    }

    /// `(v_min, v_max)` over jobs; `None` for empty instances.
    pub fn value_range(&self) -> Option<(f64, f64)> {
        self.jobs
            .iter()
            .map(|j| j.value)
            .fold(None, |acc, v| match acc {
                None => Some((v, v)),
                Some((lo, hi)) => Some((lo.min(v), hi.max(v))),
            })
    }
}

/// Accepted by the free solver functions ([`crate::schedule_all`] and its
/// siblings) and ignored: every solve runs the one lazy greedy,
/// sequentially. Both fields are kept only so existing callers keep
/// compiling; setting them changes no pick and no cost bit.
#[derive(Clone, Copy, Debug)]
pub struct SolveOptions {
    /// Ignored.
    pub lazy: bool,
    /// Ignored.
    pub parallel: bool,
}

impl Default for SolveOptions {
    fn default() -> Self {
        Self {
            lazy: true,
            parallel: false,
        }
    }
}

/// A computed schedule: chosen awake intervals plus a job assignment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Schedule {
    /// Chosen awake intervals, in greedy pick order.
    pub awake: Vec<CandidateInterval>,
    /// Per-job assignment (`None` = not scheduled).
    pub assignments: Vec<Option<SlotRef>>,
    /// Total energy cost of the awake intervals.
    pub total_cost: f64,
    /// Total value of scheduled jobs.
    pub scheduled_value: f64,
    /// Number of scheduled jobs.
    pub scheduled_count: usize,
}

/// Structural problems detected by [`Instance::validate`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum InstanceError {
    /// A job value is not strictly positive and finite.
    InvalidValue {
        /// Offending job index.
        job: u32,
        /// The rejected value.
        value: f64,
    },
    /// An allowed slot lies outside `processors × horizon`.
    OutOfRangeSlot {
        /// Offending job index.
        job: u32,
        /// The rejected slot reference.
        slot: SlotRef,
    },
    /// A job declares an explicit work requirement of zero.
    InvalidWork {
        /// Offending job index.
        job: u32,
    },
}

impl std::fmt::Display for InstanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstanceError::InvalidValue { job, value } => {
                write!(f, "job {job} has invalid value {value}")
            }
            InstanceError::OutOfRangeSlot { job, slot } => write!(
                f,
                "job {job} references out-of-range slot ({}, {})",
                slot.proc, slot.time
            ),
            InstanceError::InvalidWork { job } => {
                write!(f, "job {job} declares a work requirement of zero")
            }
        }
    }
}

impl std::error::Error for InstanceError {}

/// Why a solve failed.
#[derive(Clone, Debug, PartialEq)]
pub enum ScheduleError {
    /// Not all jobs (or not enough value) can be scheduled with the supplied
    /// candidate intervals. The certificate lists a Hall-violating job set
    /// when one exists: more jobs than available distinct slots among the
    /// union of all candidates.
    Infeasible {
        /// Jobs forming a Hall violator (may be empty when the stall is due
        /// to exhausted candidates rather than a matching deficiency).
        certificate: Vec<u32>,
        /// Value scheduled at the stall point.
        achieved_value: f64,
    },
    /// The requested target exceeds the total value present in the instance.
    TargetExceedsTotalValue {
        /// Requested target.
        target: f64,
        /// Sum of all job values.
        total: f64,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::Infeasible {
                certificate,
                achieved_value,
            } => write!(
                f,
                "infeasible with the supplied candidates (achieved value {achieved_value}; \
                 Hall violator of {} jobs)",
                certificate.len()
            ),
            ScheduleError::TargetExceedsTotalValue { target, total } => {
                write!(f, "target {target} exceeds total instance value {total}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Violations detected by [`validate_schedule`].
#[derive(Clone, Debug, PartialEq)]
pub enum ScheduleViolation {
    /// A job was assigned a slot not in its allowed list.
    DisallowedSlot { job: u32 },
    /// Two jobs share one slot.
    SlotCollision { slot: SlotRef },
    /// An assigned slot is not covered by any awake interval.
    SlotNotAwake { job: u32, slot: SlotRef },
    /// Recorded cost does not match the sum of awake interval costs.
    CostMismatch { recorded: f64, actual: f64 },
    /// Recorded value/count do not match the assignment.
    AccountingMismatch,
}

/// Checks a schedule against its instance: allowed slots, no collisions,
/// awake coverage, and cost/value accounting. Returns all violations found.
pub fn validate_schedule(inst: &Instance, s: &Schedule) -> Vec<ScheduleViolation> {
    let mut out = Vec::new();
    let mut used = std::collections::HashSet::new();
    let mut value = 0.0;
    let mut count = 0usize;

    for (jid, asg) in s.assignments.iter().enumerate() {
        let Some(slot) = asg else { continue };
        count += 1;
        value += inst.jobs[jid].value;
        if !inst.jobs[jid].allowed.contains(slot) {
            out.push(ScheduleViolation::DisallowedSlot { job: jid as u32 });
        }
        if !used.insert(*slot) {
            out.push(ScheduleViolation::SlotCollision { slot: *slot });
        }
        let covered = s
            .awake
            .iter()
            .any(|iv| iv.proc == slot.proc && iv.start <= slot.time && slot.time < iv.end);
        if !covered {
            out.push(ScheduleViolation::SlotNotAwake {
                job: jid as u32,
                slot: *slot,
            });
        }
    }

    let actual_cost: f64 = s.awake.iter().map(|iv| iv.cost).sum();
    if (actual_cost - s.total_cost).abs() > 1e-6 {
        out.push(ScheduleViolation::CostMismatch {
            recorded: s.total_cost,
            actual: actual_cost,
        });
    }
    if count != s.scheduled_count || (value - s.scheduled_value).abs() > 1e-6 {
        out.push(ScheduleViolation::AccountingMismatch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_instance() -> Instance {
        Instance::new(
            2,
            4,
            vec![
                Job::unit(vec![SlotRef::new(0, 0), SlotRef::new(1, 2)]),
                Job::window(2.0, 0, 1, 3),
            ],
        )
    }

    #[test]
    fn slot_id_roundtrip() {
        let inst = tiny_instance();
        for p in 0..2 {
            for t in 0..4 {
                let s = SlotRef::new(p, t);
                assert_eq!(inst.slot_ref(inst.slot_id(s)), s);
            }
        }
        assert_eq!(inst.num_slots(), 8);
    }

    #[test]
    fn job_window_builder() {
        let j = Job::window(1.5, 1, 2, 5);
        assert_eq!(j.allowed.len(), 3);
        assert_eq!(j.allowed[0], SlotRef::new(1, 2));
        let j2 = Job::unit(vec![]).add_window(0, 0, 2).add_window(1, 3, 4);
        assert_eq!(j2.allowed.len(), 3);
    }

    #[test]
    fn totals() {
        let inst = tiny_instance();
        assert_eq!(inst.total_value(), 3.0);
        assert_eq!(inst.value_range(), Some((1.0, 2.0)));
        assert_eq!(inst.num_jobs(), 2);
    }

    #[test]
    #[should_panic(expected = "out-of-range slot")]
    fn out_of_range_slot_rejected() {
        Instance::new(1, 2, vec![Job::unit(vec![SlotRef::new(0, 2)])]);
    }

    #[test]
    #[should_panic(expected = "invalid value")]
    fn non_positive_value_rejected() {
        Instance::new(
            1,
            2,
            vec![Job {
                value: 0.0,
                allowed: vec![],
                work: None,
            }],
        );
    }

    #[test]
    fn validate_reports_structural_errors_without_panicking() {
        let ok = tiny_instance();
        assert_eq!(ok.validate(), Ok(()));

        // construct field-by-field, as serde deserialization does
        let bad_slot = Instance {
            num_processors: 1,
            horizon: 2,
            jobs: vec![Job::unit(vec![SlotRef { proc: 0, time: 5 }])],
        };
        assert_eq!(
            bad_slot.validate(),
            Err(InstanceError::OutOfRangeSlot {
                job: 0,
                slot: SlotRef { proc: 0, time: 5 }
            })
        );
        assert!(bad_slot
            .validate()
            .unwrap_err()
            .to_string()
            .contains("out-of-range slot"));

        let bad_value = Instance {
            num_processors: 1,
            horizon: 2,
            jobs: vec![Job {
                value: f64::NAN,
                allowed: vec![],
                work: None,
            }],
        };
        assert!(matches!(
            bad_value.validate(),
            Err(InstanceError::InvalidValue { job: 0, .. })
        ));

        let zero_work = Instance {
            num_processors: 1,
            horizon: 2,
            jobs: vec![Job::unit(vec![SlotRef::new(0, 0)]).with_work(0)],
        };
        assert_eq!(
            zero_work.validate(),
            Err(InstanceError::InvalidWork { job: 0 })
        );
        assert!(zero_work
            .validate()
            .unwrap_err()
            .to_string()
            .contains("work requirement of zero"));
    }

    #[test]
    fn work_units_defaults_to_one() {
        let j = Job::unit(vec![SlotRef::new(0, 0)]);
        assert_eq!(j.work, None);
        assert_eq!(j.work_units(), 1);
        let j = j.with_work(3);
        assert_eq!(j.work_units(), 3);
        Instance::new(1, 1, vec![Job::unit(vec![SlotRef::new(0, 0)]).with_work(2)]);
    }

    #[test]
    fn validation_catches_violations() {
        let inst = tiny_instance();
        let good = Schedule {
            awake: vec![CandidateInterval {
                proc: 0,
                start: 0,
                end: 3,
                cost: 5.0,
            }],
            assignments: vec![Some(SlotRef::new(0, 0)), Some(SlotRef::new(0, 1))],
            total_cost: 5.0,
            scheduled_value: 3.0,
            scheduled_count: 2,
        };
        assert!(validate_schedule(&inst, &good).is_empty());

        // collision + disallowed + not-awake + bad accounting
        let bad = Schedule {
            awake: vec![],
            assignments: vec![Some(SlotRef::new(0, 3)), Some(SlotRef::new(0, 3))],
            total_cost: 1.0,
            scheduled_value: 0.0,
            scheduled_count: 0,
        };
        let v = validate_schedule(&inst, &bad);
        assert!(v.contains(&ScheduleViolation::DisallowedSlot { job: 0 }));
        assert!(v.contains(&ScheduleViolation::SlotCollision {
            slot: SlotRef::new(0, 3)
        }));
        assert!(v
            .iter()
            .any(|x| matches!(x, ScheduleViolation::SlotNotAwake { .. })));
        assert!(v
            .iter()
            .any(|x| matches!(x, ScheduleViolation::CostMismatch { .. })));
        assert!(v.contains(&ScheduleViolation::AccountingMismatch));
    }

    #[test]
    fn empty_instance_value_range() {
        let inst = Instance::new(1, 1, vec![]);
        assert_eq!(inst.value_range(), None);
        assert_eq!(inst.total_value(), 0.0);
    }
}
