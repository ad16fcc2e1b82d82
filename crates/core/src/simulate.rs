//! Discrete-time power simulation of a schedule.
//!
//! The optimization side of this crate treats awake-interval costs as opaque
//! oracle values; this module replays a [`Schedule`] slot by slot, producing
//! the per-processor machine-state timeline (sleep / idle-awake / busy), the
//! restart count, utilization statistics, and — for decomposable cost
//! models — a per-slot energy attribution. Examples use it for narration;
//! tests use it as an independent cross-check of schedule accounting.

use serde::{Deserialize, Serialize};
use submodular::BitSet;

use crate::model::{Instance, Schedule};
use crate::profile::{PowerProfile, SleepChoice};

/// Machine state of one processor in one slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SlotState {
    /// Asleep (not inside any awake interval).
    Sleep,
    /// Awake but not executing a job (the paper's "processor may be idle
    /// during an awake interval").
    Idle,
    /// Awake and executing a job.
    Busy,
}

/// Result of replaying a schedule.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PowerTrace {
    /// `states[p][t]`: machine state of processor `p` in slot `t`.
    pub states: Vec<Vec<SlotState>>,
    /// Number of awake intervals (= restarts paid) per processor.
    pub restarts: Vec<usize>,
    /// Awake slots per processor.
    pub awake_slots: Vec<usize>,
    /// Busy slots per processor.
    pub busy_slots: Vec<usize>,
    /// Total energy as recorded by the schedule.
    pub total_energy: f64,
}

impl PowerTrace {
    /// Fraction of awake time spent busy, per processor (`None` when a
    /// processor was never awake).
    pub fn utilization(&self, proc: u32) -> Option<f64> {
        let a = self.awake_slots[proc as usize];
        (a > 0).then(|| self.busy_slots[proc as usize] as f64 / a as f64)
    }

    /// Fleet-wide utilization (`None` if nothing was ever awake).
    pub fn fleet_utilization(&self) -> Option<f64> {
        let a: usize = self.awake_slots.iter().sum();
        let b: usize = self.busy_slots.iter().sum();
        (a > 0).then(|| b as f64 / a as f64)
    }

    /// One line per processor: `S` sleep, `.` idle, `#` busy.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (p, row) in self.states.iter().enumerate() {
            out.push_str(&format!("p{p}: "));
            for s in row {
                out.push(match s {
                    SlotState::Sleep => 'S',
                    SlotState::Idle => '.',
                    SlotState::Busy => '#',
                });
            }
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for PowerTrace {
    /// Compact per-processor timeline: maximal runs of each machine state,
    /// run-length encoded (`4S 2B 1I 3S` = 4 sleep, 2 busy, 1 idle, 3 sleep
    /// slots), followed by the restart count and utilization. One line per
    /// processor — the narration format of `power-sched replay --verbose`
    /// and the examples.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (p, row) in self.states.iter().enumerate() {
            write!(f, "p{p}:")?;
            let mut run: Option<(SlotState, usize)> = None;
            for &s in row.iter() {
                match &mut run {
                    Some((state, n)) if *state == s => *n += 1,
                    _ => {
                        if let Some((state, n)) = run.take() {
                            write!(f, " {n}{}", state_letter(state))?;
                        }
                        run = Some((s, 1));
                    }
                }
            }
            if let Some((state, n)) = run {
                write!(f, " {n}{}", state_letter(state))?;
            }
            write!(
                f,
                "  ({} restart{}, {} awake, {} busy",
                self.restarts[p],
                if self.restarts[p] == 1 { "" } else { "s" },
                self.awake_slots[p],
                self.busy_slots[p],
            )?;
            match self.utilization(p as u32) {
                Some(u) => writeln!(f, ", {:.0}% utilized)", 100.0 * u)?,
                None => writeln!(f, ")")?,
            }
        }
        Ok(())
    }
}

fn state_letter(s: SlotState) -> char {
    match s {
        SlotState::Sleep => 'S',
        SlotState::Idle => 'I',
        SlotState::Busy => 'B',
    }
}

/// Replays `schedule` against `inst`.
///
/// Overlapping awake intervals on one processor are merged for state
/// purposes (a slot is awake if any chosen interval covers it) but each
/// chosen interval still counts one restart, mirroring how the optimizer
/// pays for intervals.
pub fn simulate(inst: &Instance, schedule: &Schedule) -> PowerTrace {
    let p = inst.num_processors as usize;
    let t = inst.horizon as usize;

    // Merge awake intervals into per-processor slot bitsets first: marking an
    // interval is a handful of masked word stores, and the awake count is a
    // popcount — the per-slot state rows are materialized once at the end.
    let mut awake = vec![BitSet::new(t); p];
    let mut restarts = vec![0usize; p];
    for iv in &schedule.awake {
        awake[iv.proc as usize].set_range(iv.start, iv.end);
        restarts[iv.proc as usize] += 1;
    }
    let mut busy = vec![BitSet::new(t); p];
    for asg in schedule.assignments.iter().flatten() {
        busy[asg.proc as usize].insert(asg.time);
    }

    let states: Vec<Vec<SlotState>> = awake
        .iter()
        .zip(&busy)
        .map(|(aw, bz)| {
            let mut row = vec![SlotState::Sleep; t];
            for s in aw.iter() {
                row[s as usize] = SlotState::Idle;
            }
            for s in bz.iter() {
                row[s as usize] = SlotState::Busy;
            }
            row
        })
        .collect();
    // a (structurally invalid) busy slot outside every awake interval still
    // renders as Busy, so the awake count is over the union — exactly the
    // "state != Sleep" count of the per-slot representation
    let awake_slots: Vec<usize> = awake
        .iter_mut()
        .zip(&busy)
        .map(|(aw, bz)| {
            aw.union_with(bz);
            aw.count()
        })
        .collect();
    let busy_slots: Vec<usize> = busy.iter().map(BitSet::count).collect();

    PowerTrace {
        states,
        restarts,
        awake_slots,
        busy_slots,
        total_energy: schedule.total_cost,
    }
}

/// One inter-run gap and the sleep depth the break-even rule parked it in.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GapChoice {
    /// Processor the gap belongs to.
    pub proc: u32,
    /// First asleep slot (exclusive end of the previous awake run).
    pub start: u32,
    /// One past the last asleep slot (start of the next awake run).
    pub end: u32,
    /// Chosen sleep depth.
    pub choice: SleepChoice,
    /// Energy of bridging the gap at that depth.
    pub cost: f64,
}

/// Deployed-energy accounting of a schedule under per-processor
/// [`PowerProfile`]s — the ladder-aware refinement of the solver's
/// interval-sum cost.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ProfileEnergy {
    /// Per-processor awake draw (`busy_rate ×` merged awake slots).
    pub awake_energy: Vec<f64>,
    /// Per-processor wake costs: the full wake of the first run plus the
    /// break-even gap cost of every inter-run gap.
    pub wake_energy: Vec<f64>,
    /// Every inter-run gap with its chosen sleep depth.
    pub gaps: Vec<GapChoice>,
    /// Total deployed energy. Never exceeds the schedule's interval-sum
    /// `total_cost` when priced by the same fleet: merging overlapping
    /// intervals drops duplicate wakes and every gap costs at most one full
    /// wake.
    pub total: f64,
}

/// Accounts the energy a fleet described by `profiles` actually spends
/// executing `schedule`: awake intervals are merged into maximal runs, each
/// awake slot draws `busy_rate`, the first run on a processor pays the full
/// wake from off, and every inter-run gap is bridged at the break-even sleep
/// depth ([`PowerProfile::best_sleep`]) — the same wake-vs-sleep comparison
/// the solver makes between a spanning candidate and two separate ones,
/// extended down the sleep ladder.
///
/// # Panics
/// Panics if `profiles` does not hold exactly one profile per processor.
pub fn profile_energy(
    inst: &Instance,
    schedule: &Schedule,
    profiles: &[PowerProfile],
) -> ProfileEnergy {
    let p = inst.num_processors as usize;
    assert_eq!(p, profiles.len(), "one profile per processor required");
    let t = inst.horizon as usize;

    let mut awake = vec![BitSet::new(t); p];
    for iv in &schedule.awake {
        awake[iv.proc as usize].set_range(iv.start, iv.end);
    }

    let mut awake_energy = vec![0.0; p];
    let mut wake_energy = vec![0.0; p];
    let mut gaps = Vec::new();
    for (proc, set) in awake.iter().enumerate() {
        let profile = &profiles[proc];
        awake_energy[proc] = profile.busy_rate * set.count() as f64;
        // maximal awake runs, in time order
        let mut runs: Vec<(u32, u32)> = Vec::new();
        for s in set.iter() {
            match runs.last_mut() {
                Some((_, end)) if *end == s => *end = s + 1,
                _ => runs.push((s, s + 1)),
            }
        }
        // the first run pays the full off→on wake; each later one the
        // break-even cost of the gap that precedes it
        let mut prev_end: Option<u32> = None;
        for &(start, end) in &runs {
            match prev_end {
                None => wake_energy[proc] += profile.wake_cost,
                Some(e) => {
                    let gap = start - e;
                    let cost = profile.gap_cost(gap);
                    wake_energy[proc] += cost;
                    gaps.push(GapChoice {
                        proc: proc as u32,
                        start: e,
                        end: start,
                        choice: profile.best_sleep(gap),
                        cost,
                    });
                }
            }
            prev_end = Some(end);
        }
    }

    let total = awake_energy.iter().sum::<f64>() + wake_energy.iter().sum::<f64>();
    ProfileEnergy {
        awake_energy,
        wake_energy,
        gaps,
        total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{enumerate_candidates, CandidatePolicy};
    use crate::cost::AffineCost;
    use crate::model::{Job, SlotRef, SolveOptions};
    use crate::profile::SleepState;
    use crate::schedule_all::schedule_all;

    fn solved() -> (Instance, Schedule) {
        let inst = Instance::new(
            1,
            5,
            vec![
                Job::unit(vec![SlotRef::new(0, 0)]),
                Job::unit(vec![SlotRef::new(0, 3)]),
            ],
        );
        let cands = enumerate_candidates(&inst, &AffineCost::new(10.0, 1.0), CandidatePolicy::All);
        let s = schedule_all(&inst, &cands, &SolveOptions::default()).unwrap();
        (inst, s)
    }

    #[test]
    fn states_match_schedule() {
        let (inst, s) = solved();
        let trace = simulate(&inst, &s);
        // one merged interval [0,4): busy at 0 and 3, idle at 1, 2
        assert_eq!(trace.states[0][0], SlotState::Busy);
        assert_eq!(trace.states[0][1], SlotState::Idle);
        assert_eq!(trace.states[0][2], SlotState::Idle);
        assert_eq!(trace.states[0][3], SlotState::Busy);
        assert_eq!(trace.states[0][4], SlotState::Sleep);
        assert_eq!(trace.restarts[0], 1);
        assert_eq!(trace.awake_slots[0], 4);
        assert_eq!(trace.busy_slots[0], 2);
        assert_eq!(trace.utilization(0), Some(0.5));
        assert_eq!(trace.fleet_utilization(), Some(0.5));
        assert_eq!(trace.total_energy, s.total_cost);
    }

    #[test]
    fn render_shape() {
        let (inst, s) = solved();
        let r = simulate(&inst, &s).render();
        assert_eq!(r.trim_end(), "p0: #..#S");
    }

    #[test]
    fn display_run_length_encodes() {
        let (inst, s) = solved();
        let line = simulate(&inst, &s).to_string();
        // busy at 0 and 3, idle between, asleep at 4
        assert_eq!(
            line.trim_end(),
            "p0: 1B 2I 1B 1S  (1 restart, 4 awake, 2 busy, 50% utilized)"
        );

        let empty = simulate(
            &Instance::new(1, 3, vec![]),
            &Schedule {
                awake: vec![],
                assignments: vec![],
                total_cost: 0.0,
                scheduled_value: 0.0,
                scheduled_count: 0,
            },
        );
        assert_eq!(
            empty.to_string().trim_end(),
            "p0: 3S  (0 restarts, 0 awake, 0 busy)"
        );
    }

    #[test]
    fn empty_schedule_all_sleep() {
        let inst = Instance::new(2, 3, vec![]);
        let s = Schedule {
            awake: vec![],
            assignments: vec![],
            total_cost: 0.0,
            scheduled_value: 0.0,
            scheduled_count: 0,
        };
        let trace = simulate(&inst, &s);
        assert!(trace
            .states
            .iter()
            .all(|row| row.iter().all(|&x| x == SlotState::Sleep)));
        assert_eq!(trace.utilization(0), None);
        assert_eq!(trace.fleet_utilization(), None);
    }

    #[test]
    fn profile_energy_applies_break_even_depths() {
        // two runs [0,2) and [8,10) on one processor, gap of 6
        let inst = Instance::new(1, 10, vec![]);
        let profile = crate::profile::PowerProfile::with_ladder(
            10.0,
            1.0,
            vec![SleepState {
                idle_rate: 0.5,
                wake_cost: 2.0,
            }],
        );
        let schedule = Schedule {
            awake: vec![
                crate::candidates::CandidateInterval {
                    proc: 0,
                    start: 0,
                    end: 2,
                    cost: profile.interval_cost(2),
                },
                crate::candidates::CandidateInterval {
                    proc: 0,
                    start: 8,
                    end: 10,
                    cost: profile.interval_cost(2),
                },
            ],
            assignments: vec![],
            total_cost: 2.0 * profile.interval_cost(2),
            scheduled_value: 0.0,
            scheduled_count: 0,
        };
        let e = profile_energy(&inst, &schedule, std::slice::from_ref(&profile));
        // awake draw 4·1; first wake 10; gap of 6 dozes at 0.5·6+2 = 5 < 10
        assert_eq!(e.awake_energy[0], 4.0);
        assert_eq!(e.wake_energy[0], 15.0);
        assert_eq!(e.total, 19.0);
        assert_eq!(
            e.gaps,
            vec![GapChoice {
                proc: 0,
                start: 2,
                end: 8,
                choice: SleepChoice::State(0),
                cost: 5.0,
            }]
        );
        // the refinement never exceeds the solver's interval-sum cost
        assert!(e.total <= schedule.total_cost + 1e-12);
    }

    #[test]
    fn profile_energy_matches_interval_sum_without_ladder() {
        // solved schedules under an affine fleet: deployed energy equals the
        // interval sum whenever chosen intervals are disjoint
        let (inst, s) = solved();
        let fleet = vec![crate::profile::PowerProfile::affine(10.0, 1.0)];
        let e = profile_energy(&inst, &s, &fleet);
        assert!((e.total - s.total_cost).abs() < 1e-9);
        assert!(e.gaps.is_empty());

        // empty schedule: zero everywhere
        let empty = Schedule {
            awake: vec![],
            assignments: vec![],
            total_cost: 0.0,
            scheduled_value: 0.0,
            scheduled_count: 0,
        };
        let e = profile_energy(&inst, &empty, &fleet);
        assert_eq!(e.total, 0.0);
        assert!(e.gaps.is_empty() && e.wake_energy[0] == 0.0);
    }

    #[test]
    fn busy_count_equals_scheduled_count() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        for _ in 0..10 {
            let t = rng.gen_range(4..10u32);
            let p = rng.gen_range(1..3u32);
            let n = rng.gen_range(1..5usize);
            let jobs: Vec<Job> = (0..n)
                .map(|_| {
                    let proc = rng.gen_range(0..p);
                    let s = rng.gen_range(0..t);
                    let e = rng.gen_range(s + 1..=t);
                    Job::window(1.0, proc, s, e)
                })
                .collect();
            let inst = Instance::new(p, t, jobs);
            let cands =
                enumerate_candidates(&inst, &AffineCost::new(2.0, 1.0), CandidatePolicy::All);
            if let Ok(s) = schedule_all(&inst, &cands, &SolveOptions::default()) {
                let trace = simulate(&inst, &s);
                let busy: usize = trace.busy_slots.iter().sum();
                assert_eq!(busy, s.scheduled_count);
                let restarts: usize = trace.restarts.iter().sum();
                assert_eq!(restarts, s.awake.len());
            }
        }
    }
}
