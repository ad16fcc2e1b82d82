//! Per-processor **power profiles**: heterogeneous wake costs, busy rates,
//! and multi-level sleep-state ladders.
//!
//! The paper's classical model charges one global `(restart, rate)` pair.
//! Real fleets mix machine generations with distinct power ratings (cf.
//! *Scheduling Under Power and Energy Constraints*, Dupty et al.) and expose
//! several sleep depths per machine — a deeper state draws less while idle
//! but costs more to wake (cf. *NP-Hardness of Speed Scaling with a Sleep
//! State*, Kumar & Shannigrahi). This module models both:
//!
//! * [`PowerProfile`] — one processor's `wake_cost` (full wake from the
//!   deepest "off" state), `busy_rate` (energy per awake slot), and an
//!   optional [`SleepState`] ladder ordered shallow → deep (idle draw
//!   strictly decreasing, wake cost strictly increasing);
//! * [`ProfileCost`] — the [`EnergyCost`] oracle over a fleet of profiles,
//!   flattened into per-processor parameter tables so an interval query is
//!   two array reads and a fused multiply-add (bit-identical to
//!   [`AffineCost`](crate::AffineCost) when every profile is affine);
//! * the **break-even sleep-depth rule** ([`PowerProfile::gap_cost`] /
//!   [`PowerProfile::best_sleep`]): for a gap of `g` slots between two awake
//!   runs, the machine drops to the state minimizing
//!   `idle_rate · g + wake_cost` (the deepest "off" state has zero idle
//!   draw and the full wake cost). This is the same ski-rental comparison
//!   the solver already performs between "stay awake through the gap" and
//!   "sleep and pay a restart", extended down the ladder.
//!
//! The solver prices every awake interval with the *full* wake cost
//! ([`PowerProfile::interval_cost`]), so chosen-interval sums remain
//! independent of each other (the submodular structure of Definition 2 is
//! preserved); the per-gap depth choice is a closed-form refinement applied
//! when accounting deployed energy
//! ([`profile_energy`](crate::simulate::profile_energy)) — it can only
//! lower the bill, never raise it.

use serde::{Deserialize, Serialize};

use crate::cost::EnergyCost;

/// One intermediate sleep state: cheaper to hold than awake-idle, cheaper to
/// leave than a full off→on restart.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SleepState {
    /// Energy drawn per slot while parked in this state.
    pub idle_rate: f64,
    /// One-time cost of waking from this state back to awake.
    pub wake_cost: f64,
}

/// One processor's power profile.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PowerProfile {
    /// Full wake cost from the deepest ("off") state — what the solver
    /// charges per awake interval.
    pub wake_cost: f64,
    /// Energy per awake slot (busy or idle-awake).
    pub busy_rate: f64,
    /// Optional ladder of intermediate sleep states, ordered shallow → deep:
    /// `idle_rate` strictly decreasing, `wake_cost` strictly increasing.
    /// Empty = the classical two-state (awake/off) model.
    pub sleep_states: Vec<SleepState>,
}

/// Which state a processor parks in during a gap between awake runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SleepChoice {
    /// Fully off: zero idle draw, full `wake_cost` on the next run.
    Off,
    /// The ladder state at this index (shallow → deep ordering).
    State(usize),
}

// The vendored serde derive only handles fieldless enums, so the
// externally-tagged encoding (`"Off"` / `{"State":k}`, matching upstream
// serde's default) is spelled out by hand.
impl Serialize for SleepChoice {
    fn to_value(&self) -> serde::Value {
        match self {
            SleepChoice::Off => serde::Value::Str("Off".into()),
            SleepChoice::State(k) => {
                serde::Value::Object(vec![("State".into(), serde::Value::Num(*k as f64))])
            }
        }
    }
}

impl Deserialize for SleepChoice {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Str(s) if s == "Off" => Ok(SleepChoice::Off),
            serde::Value::Object(_) => {
                Ok(SleepChoice::State(usize::from_value(v.field("State")?)?))
            }
            other => Err(serde::Error(format!(
                "expected \"Off\" or {{\"State\":k}}, found {}",
                other.kind()
            ))),
        }
    }
}

impl PowerProfile {
    /// The classical affine profile: no intermediate sleep states.
    pub fn affine(wake_cost: f64, busy_rate: f64) -> Self {
        let p = Self {
            wake_cost,
            busy_rate,
            sleep_states: Vec::new(),
        };
        p.validate(0).expect("affine profile parameters invalid");
        p
    }

    /// A profile with a sleep ladder (shallow → deep), validated.
    ///
    /// # Panics
    /// Panics if the parameters violate [`PowerProfile::validate`].
    pub fn with_ladder(wake_cost: f64, busy_rate: f64, sleep_states: Vec<SleepState>) -> Self {
        let p = Self {
            wake_cost,
            busy_rate,
            sleep_states,
        };
        p.validate(0).expect("ladder profile parameters invalid");
        p
    }

    /// A profile whose `levels`-state ladder interpolates the awake/off
    /// envelope: state `k` of `L` parks at `busy_rate · (L−k)/(L+1)` idle
    /// draw for `wake_cost · (k+1)/(L+1)` wake cost — strictly monotone and
    /// strictly inside the envelope for any positive parameters, so it
    /// always validates. The canonical synthetic ladder used by the
    /// workload generators and the property tests.
    ///
    /// # Panics
    /// Panics if `wake_cost`/`busy_rate` themselves are invalid (see
    /// [`PowerProfile::validate`]).
    pub fn envelope_ladder(wake_cost: f64, busy_rate: f64, levels: u32) -> Self {
        let l = levels as usize;
        let sleep_states = (0..l)
            .map(|k| SleepState {
                idle_rate: busy_rate * (l - k) as f64 / (l + 1) as f64,
                wake_cost: wake_cost * (k + 1) as f64 / (l + 1) as f64,
            })
            .collect();
        Self::with_ladder(wake_cost, busy_rate, sleep_states)
    }

    /// Structural checks for one profile (reported as processor `proc`):
    /// finite non-negative parameters, a strictly positive awake cost
    /// (`wake_cost + busy_rate > 0`), and a monotone ladder — each state's
    /// idle draw strictly below the previous (and at most `busy_rate`), its
    /// wake cost strictly above the previous (and at most `wake_cost`).
    pub fn validate(&self, proc: u32) -> Result<(), ProfileError> {
        let finite_nonneg = |x: f64| x.is_finite() && x >= 0.0;
        if !finite_nonneg(self.wake_cost) || !finite_nonneg(self.busy_rate) {
            return Err(ProfileError::NonFinite { proc });
        }
        if self.wake_cost + self.busy_rate <= 0.0 {
            return Err(ProfileError::Free { proc });
        }
        let mut prev_idle = f64::INFINITY;
        let mut prev_wake = -1.0;
        for (state, s) in self.sleep_states.iter().enumerate() {
            let bad = |reason| ProfileError::BadLadder {
                proc,
                state,
                reason,
            };
            if !finite_nonneg(s.idle_rate) || !finite_nonneg(s.wake_cost) {
                return Err(bad("parameters must be finite and non-negative"));
            }
            if s.idle_rate > self.busy_rate {
                return Err(bad("idle draw above the awake rate"));
            }
            if s.wake_cost > self.wake_cost {
                return Err(bad("wake cost above the full (off-state) wake cost"));
            }
            if s.idle_rate >= prev_idle {
                return Err(bad("idle draw must strictly decrease down the ladder"));
            }
            if s.wake_cost <= prev_wake {
                return Err(bad("wake cost must strictly increase down the ladder"));
            }
            prev_idle = s.idle_rate;
            prev_wake = s.wake_cost;
        }
        Ok(())
    }

    /// Solver-facing price of an awake interval of `len` slots: the full
    /// wake cost plus the awake draw — evaluated exactly like
    /// [`AffineCost`](crate::AffineCost) so homogeneous fleets stay
    /// bit-identical to the classical model.
    #[inline]
    pub fn interval_cost(&self, len: u32) -> f64 {
        self.wake_cost + self.busy_rate * len as f64
    }

    /// Cost of bridging a `gap`-slot idle period at the best sleep depth:
    /// `min(wake_cost, min_k(idle_k · gap + wake_k))`. With an empty ladder
    /// this is exactly the classical per-interval restart.
    pub fn gap_cost(&self, gap: u32) -> f64 {
        self.sleep_states
            .iter()
            .map(|s| s.idle_rate * gap as f64 + s.wake_cost)
            .fold(self.wake_cost, f64::min)
    }

    /// The break-even sleep-depth rule: which state [`PowerProfile::gap_cost`]
    /// chose for a `gap`-slot idle period. Ties keep the earlier option —
    /// `Off` over any state, a shallower state over a deeper one — matching
    /// the strict-less update of the `min` fold.
    pub fn best_sleep(&self, gap: u32) -> SleepChoice {
        let mut best = (self.wake_cost, SleepChoice::Off);
        for (k, s) in self.sleep_states.iter().enumerate() {
            let c = s.idle_rate * gap as f64 + s.wake_cost;
            if c < best.0 {
                best = (c, SleepChoice::State(k));
            }
        }
        best.1
    }

    /// Largest idle streak worth bridging by *staying awake* rather than
    /// dropping into any sleep state — the hold-awake ski-rental bound the
    /// online policies use. Staying awake for `g` slots costs
    /// `busy_rate · g`; sleeping at depth `k` costs `idle_k · g + wake_k`,
    /// so awake wins up to `wake_k / (busy_rate − idle_k)` against each
    /// state and `wake_cost / busy_rate` against off. Capped at `cap`
    /// (free-to-hold profiles would hold forever).
    pub fn hold_break_even(&self, cap: u32) -> u32 {
        if self.busy_rate <= 0.0 {
            return cap;
        }
        let mut bound = self.wake_cost / self.busy_rate;
        for s in &self.sleep_states {
            if s.idle_rate < self.busy_rate {
                bound = bound.min(s.wake_cost / (self.busy_rate - s.idle_rate));
            }
        }
        let be = bound.ceil();
        if be >= cap as f64 {
            cap
        } else {
            be as u32
        }
    }
}

/// Structural problems in a profile fleet.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProfileError {
    /// A parameter is NaN, infinite, or negative.
    NonFinite {
        /// Offending processor.
        proc: u32,
    },
    /// `wake_cost + busy_rate == 0`: awake intervals would be free and the
    /// greedy's ratio rule would divide by zero.
    Free {
        /// Offending processor.
        proc: u32,
    },
    /// A sleep-state ladder violates the monotonicity/bounds contract.
    BadLadder {
        /// Offending processor.
        proc: u32,
        /// Offending ladder index (shallow → deep).
        state: usize,
        /// What went wrong.
        reason: &'static str,
    },
    /// The fleet has a different number of profiles than processors.
    CountMismatch {
        /// Processors in the instance.
        expected: u32,
        /// Profiles supplied.
        got: usize,
    },
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::NonFinite { proc } => {
                write!(f, "profile for processor {proc} has a non-finite or negative parameter")
            }
            ProfileError::Free { proc } => write!(
                f,
                "profile for processor {proc} makes awake intervals free (wake_cost + busy_rate must be > 0)"
            ),
            ProfileError::BadLadder { proc, state, reason } => write!(
                f,
                "profile for processor {proc}, sleep state {state}: {reason}"
            ),
            ProfileError::CountMismatch { expected, got } => write!(
                f,
                "profile count mismatch: {expected} processors but {got} profiles"
            ),
        }
    }
}

impl std::error::Error for ProfileError {}

/// Validates a fleet of profiles against a processor count: exactly one
/// valid profile per processor.
pub fn validate_profiles(
    profiles: &[PowerProfile],
    num_processors: u32,
) -> Result<(), ProfileError> {
    if profiles.len() != num_processors as usize {
        return Err(ProfileError::CountMismatch {
            expected: num_processors,
            got: profiles.len(),
        });
    }
    for (proc, p) in profiles.iter().enumerate() {
        p.validate(proc as u32)?;
    }
    Ok(())
}

/// The fleet a consumer should price with: explicit `profiles` verbatim
/// when present (no padding — a wrong-length fleet must be rejected by
/// [`validate_profiles`] upstream, not silently extended), otherwise the
/// affine `(restart, rate)` profile cloned across all `num_processors`.
pub fn fleet_or_default(
    profiles: Option<&[PowerProfile]>,
    num_processors: u32,
    restart: f64,
    rate: f64,
) -> Vec<PowerProfile> {
    match profiles {
        Some(p) => p.to_vec(),
        None => vec![PowerProfile::affine(restart, rate); num_processors as usize],
    }
}

/// [`EnergyCost`] oracle over a heterogeneous fleet: per-processor
/// `wake_cost + busy_rate · len`, with the parameters flattened into two
/// dense arrays so the hot-path query is two indexed loads (the same
/// arena-table discipline as [`TimeVaryingCost`](crate::TimeVaryingCost)).
///
/// Sleep ladders do **not** enter interval pricing — an awake interval pays
/// the full wake cost regardless of the preceding gap, keeping candidate
/// costs independent (see the [module docs](self)); they refine the
/// deployed-energy accounting in
/// [`profile_energy`](crate::simulate::profile_energy) instead.
#[derive(Clone, Debug)]
pub struct ProfileCost {
    wake: Vec<f64>,
    busy: Vec<f64>,
}

impl ProfileCost {
    /// Oracle over a validated fleet (one profile per processor).
    ///
    /// # Panics
    /// Panics if any profile fails [`PowerProfile::validate`]; untrusted
    /// fleets must pass [`validate_profiles`] first.
    pub fn new(profiles: &[PowerProfile]) -> Self {
        let mut cost = Self {
            wake: Vec::new(),
            busy: Vec::new(),
        };
        cost.set_profiles(profiles);
        cost
    }

    /// Rewrites the oracle for `profiles` in place, keeping its buffers:
    /// [`ProfileCost::new`] for a caller that re-prices one fleet again and
    /// again.
    ///
    /// # Panics
    /// As [`ProfileCost::new`].
    pub fn set_profiles(&mut self, profiles: &[PowerProfile]) {
        for (proc, p) in profiles.iter().enumerate() {
            if let Err(e) = p.validate(proc as u32) {
                panic!("{e}");
            }
        }
        self.wake.clear();
        self.wake.extend(profiles.iter().map(|p| p.wake_cost));
        self.busy.clear();
        self.busy.extend(profiles.iter().map(|p| p.busy_rate));
    }

    /// Homogeneous fleet: every processor gets `(wake_cost, busy_rate)` —
    /// bit-identical to [`AffineCost`](crate::AffineCost) with the same
    /// parameters.
    pub fn uniform(num_processors: u32, wake_cost: f64, busy_rate: f64) -> Self {
        Self::new(&vec![
            PowerProfile::affine(wake_cost, busy_rate);
            num_processors as usize
        ])
    }
}

impl EnergyCost for ProfileCost {
    fn cost(&self, proc: u32, start: u32, end: u32) -> f64 {
        debug_assert!(start < end);
        self.wake[proc as usize] + self.busy[proc as usize] * (end - start) as f64
    }

    /// Per processor this is an [`AffineCost`](crate::AffineCost), and
    /// inclusion never crosses processors.
    fn inclusion_monotone(&self) -> bool {
        true
    }
}

/// Hard cap on the number of frequency levels in a [`FreqLadder`]. The DVFS
/// compilation multiplies the processor count by the level count, so this
/// bounds the virtual-grid blowup.
pub const MAX_FREQ_LEVELS: usize = 8;

/// Hard cap on any single frequency in a [`FreqLadder`]. The compilation
/// multiplies the horizon by the top frequency (one lane per work unit per
/// slot), so this bounds the virtual-horizon blowup.
pub const MAX_FREQ: u32 = 64;

/// One frequency level of a [`FreqLadder`], as a computed view: the speed
/// (work units per slot) and the dynamic power drawn per slot while awake at
/// that speed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FreqLevel {
    /// Work units executed per slot at this level.
    pub freq: u32,
    /// Power per awake slot at this level: `alpha * freq^gamma + beta`.
    pub power: f64,
}

/// A discrete DVFS frequency ladder with dynamic power
/// `P(f) = alpha * f^gamma + beta` (the `DiscretePowerModel` shape).
///
/// Frequencies are integer speeds — work units per slot — listed strictly
/// increasing. A job with work requirement `w` occupies `ceil(w / f)` slots
/// when run at frequency `f`: low levels *stretch* a job across cheap slow
/// slots, high levels *compress* it into few expensive fast ones.
///
/// Validation additionally requires **monotone non-decreasing energy per
/// unit of work** up the ladder (`P(f)/f` non-decreasing in `f`): the
/// above-critical-speed regime where slowing down never wastes energy. This
/// keeps the stretch/compress trade-off well-posed — higher frequencies buy
/// schedule room, never free energy.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FreqLadder {
    /// Dynamic-power coefficient `alpha` (finite, non-negative).
    pub alpha: f64,
    /// Static power `beta` drawn per awake slot regardless of speed
    /// (finite, non-negative).
    pub beta: f64,
    /// Dynamic-power exponent `gamma` (finite, non-negative; cubes are the
    /// classical CMOS model).
    pub gamma: f64,
    /// Available frequencies, strictly increasing, each in
    /// `1..=`[`MAX_FREQ`], at most [`MAX_FREQ_LEVELS`] of them.
    pub freqs: Vec<u32>,
}

impl FreqLadder {
    /// A validated ladder.
    ///
    /// # Panics
    /// Panics if the parameters violate [`FreqLadder::validate`].
    pub fn new(alpha: f64, beta: f64, gamma: f64, freqs: Vec<u32>) -> Self {
        let l = Self {
            alpha,
            beta,
            gamma,
            freqs,
        };
        if let Err(e) = l.validate() {
            panic!("{e}");
        }
        l
    }

    /// The degenerate single-frequency ladder that reduces DVFS to the
    /// classical fixed-shape model: one speed-1 level with `gamma = 1`,
    /// `beta = 0`, so `P(1) = rate` bitwise (`1^1 == 1`, `rate·1+0 == rate`).
    pub fn degenerate(rate: f64) -> Self {
        Self::new(rate, 0.0, 1.0, vec![1])
    }

    /// Structural checks: finite non-negative curve parameters, a non-empty
    /// strictly increasing frequency list within the caps, strictly positive
    /// power at every level, and monotone non-decreasing energy-per-work.
    pub fn validate(&self) -> Result<(), FreqLadderError> {
        let finite_nonneg = |x: f64| x.is_finite() && x >= 0.0;
        if !finite_nonneg(self.alpha) || !finite_nonneg(self.beta) || !finite_nonneg(self.gamma) {
            return Err(FreqLadderError::NonFinite);
        }
        if self.freqs.is_empty() {
            return Err(FreqLadderError::Empty);
        }
        if self.freqs.len() > MAX_FREQ_LEVELS {
            return Err(FreqLadderError::TooManyLevels {
                got: self.freqs.len(),
            });
        }
        let mut prev = 0u32;
        for (level, &f) in self.freqs.iter().enumerate() {
            if f == 0 || f > MAX_FREQ {
                return Err(FreqLadderError::FreqOutOfRange { level, freq: f });
            }
            if f <= prev {
                return Err(FreqLadderError::NotIncreasing { level });
            }
            prev = f;
        }
        let mut prev_epw = -f64::INFINITY;
        for (level, &f) in self.freqs.iter().enumerate() {
            let p = self.power_of_freq(f);
            if !(p > 0.0 && p.is_finite()) {
                return Err(FreqLadderError::NonPositivePower { level, power: p });
            }
            let epw = p / f as f64;
            // Tolerance absorbs powf round-off on equal-energy ladders.
            if epw < prev_epw - 1e-9 {
                return Err(FreqLadderError::EnergyPerWorkDecreasing { level });
            }
            prev_epw = epw;
        }
        Ok(())
    }

    /// Number of levels `L`.
    #[inline]
    pub fn num_levels(&self) -> usize {
        self.freqs.len()
    }

    /// The top (fastest) frequency.
    #[inline]
    pub fn max_freq(&self) -> u32 {
        *self.freqs.last().expect("validated ladder is non-empty")
    }

    /// The bottom (slowest) frequency.
    #[inline]
    pub fn min_freq(&self) -> u32 {
        self.freqs[0]
    }

    /// Dynamic power per awake slot at frequency `f`:
    /// `alpha * f^gamma + beta`.
    #[inline]
    pub fn power_of_freq(&self, f: u32) -> f64 {
        self.alpha * (f as f64).powf(self.gamma) + self.beta
    }

    /// The computed view of level `level` (0 = slowest).
    #[inline]
    pub fn level(&self, level: usize) -> FreqLevel {
        let freq = self.freqs[level];
        FreqLevel {
            freq,
            power: self.power_of_freq(freq),
        }
    }

    /// All levels, slow → fast.
    pub fn levels(&self) -> Vec<FreqLevel> {
        (0..self.num_levels()).map(|l| self.level(l)).collect()
    }

    /// The lowest level whose frequency can execute `work` units in a single
    /// slot, or `None` if even the top frequency cannot.
    pub fn min_level_for(&self, work: u32) -> Option<usize> {
        self.freqs.iter().position(|&f| f >= work)
    }
}

/// Structural problems in a [`FreqLadder`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FreqLadderError {
    /// `alpha`, `beta`, or `gamma` is NaN, infinite, or negative.
    NonFinite,
    /// The frequency list is empty.
    Empty,
    /// More than [`MAX_FREQ_LEVELS`] levels.
    TooManyLevels {
        /// Levels supplied.
        got: usize,
    },
    /// A frequency is zero or above [`MAX_FREQ`].
    FreqOutOfRange {
        /// Offending level index.
        level: usize,
        /// The rejected frequency.
        freq: u32,
    },
    /// Frequencies are not strictly increasing.
    NotIncreasing {
        /// Offending level index.
        level: usize,
    },
    /// `P(f) <= 0` at some level: awake slots would be free and the greedy's
    /// ratio rule would divide by zero.
    NonPositivePower {
        /// Offending level index.
        level: usize,
        /// The computed power.
        power: f64,
    },
    /// Energy per unit of work `P(f)/f` decreases up the ladder — the
    /// below-critical-speed regime this model excludes.
    EnergyPerWorkDecreasing {
        /// Offending level index.
        level: usize,
    },
}

impl std::fmt::Display for FreqLadderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FreqLadderError::NonFinite => {
                write!(f, "ladder parameters must be finite and non-negative")
            }
            FreqLadderError::Empty => write!(f, "ladder must list at least one frequency"),
            FreqLadderError::TooManyLevels { got } => {
                write!(f, "ladder has {got} levels (max {MAX_FREQ_LEVELS})")
            }
            FreqLadderError::FreqOutOfRange { level, freq } => {
                write!(f, "level {level} frequency {freq} outside 1..={MAX_FREQ}")
            }
            FreqLadderError::NotIncreasing { level } => {
                write!(f, "frequencies must strictly increase (level {level})")
            }
            FreqLadderError::NonPositivePower { level, power } => {
                write!(f, "level {level} has non-positive power {power}")
            }
            FreqLadderError::EnergyPerWorkDecreasing { level } => write!(
                f,
                "energy per work unit decreases at level {level}; \
                 P(f)/f must be non-decreasing up the ladder"
            ),
        }
    }
}

impl std::error::Error for FreqLadderError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::AffineCost;

    fn laddered() -> PowerProfile {
        // off: idle 0 / wake 10; states: (idle 0.5, wake 2), (idle 0.2, wake 5)
        PowerProfile::with_ladder(
            10.0,
            1.0,
            vec![
                SleepState {
                    idle_rate: 0.5,
                    wake_cost: 2.0,
                },
                SleepState {
                    idle_rate: 0.2,
                    wake_cost: 5.0,
                },
            ],
        )
    }

    #[test]
    fn interval_cost_matches_affine_bits() {
        let p = PowerProfile::affine(3.0, 1.5);
        let a = AffineCost::new(3.0, 1.5);
        let c = ProfileCost::uniform(2, 3.0, 1.5);
        for (s, e) in [(0u32, 1u32), (2, 7), (0, 63)] {
            assert_eq!(p.interval_cost(e - s).to_bits(), a.cost(0, s, e).to_bits());
            assert_eq!(c.cost(1, s, e).to_bits(), a.cost(1, s, e).to_bits());
        }
    }

    #[test]
    fn gap_cost_picks_break_even_depth() {
        let p = laddered();
        // short gap: shallow state (0.5·2 + 2 = 3 beats 0.2·2+5 = 5.4 and 10)
        assert_eq!(p.gap_cost(2), 3.0);
        assert_eq!(p.best_sleep(2), SleepChoice::State(0));
        // medium gap: deep state (0.5·12+2 = 8, 0.2·12+5 = 7.4, off 10)
        assert_eq!(p.gap_cost(12), 7.4);
        assert_eq!(p.best_sleep(12), SleepChoice::State(1));
        // long gap: off wins (0.2·30+5 = 11 > 10)
        assert_eq!(p.gap_cost(30), 10.0);
        assert_eq!(p.best_sleep(30), SleepChoice::Off);
        // no ladder: always the full restart
        let flat = PowerProfile::affine(4.0, 1.0);
        for g in [1, 5, 100] {
            assert_eq!(flat.gap_cost(g), 4.0);
            assert_eq!(flat.best_sleep(g), SleepChoice::Off);
        }
    }

    #[test]
    fn gap_cost_never_exceeds_full_wake() {
        let p = laddered();
        for g in 0..200 {
            assert!(p.gap_cost(g) <= p.wake_cost + 1e-12, "gap {g}");
        }
    }

    #[test]
    fn hold_break_even_matches_classical_ski_rental() {
        // no ladder: ceil(wake / busy), the rule ThresholdHiring used
        assert_eq!(PowerProfile::affine(6.0, 1.0).hold_break_even(100), 6);
        assert_eq!(PowerProfile::affine(6.5, 1.0).hold_break_even(100), 7);
        // zero busy rate: holding is free — cap
        assert_eq!(PowerProfile::affine(6.0, 0.0).hold_break_even(24), 24);
        // a cheap shallow state shortens the hold: wake 2 / (1 − 0.5) = 4
        assert_eq!(laddered().hold_break_even(100), 4);
        // cap clamps
        assert_eq!(PowerProfile::affine(50.0, 1.0).hold_break_even(8), 8);
    }

    #[test]
    fn validation_rejects_bad_ladders() {
        let ok = laddered();
        assert_eq!(ok.validate(0), Ok(()));
        assert_eq!(validate_profiles(std::slice::from_ref(&ok), 1), Ok(()));
        assert_eq!(
            validate_profiles(std::slice::from_ref(&ok), 2),
            Err(ProfileError::CountMismatch {
                expected: 2,
                got: 1
            })
        );

        let mut non_monotone = laddered();
        non_monotone.sleep_states[1].idle_rate = 0.9; // not below state 0's 0.5
        assert!(matches!(
            non_monotone.validate(3),
            Err(ProfileError::BadLadder {
                proc: 3,
                state: 1,
                ..
            })
        ));

        let mut above_busy = laddered();
        above_busy.sleep_states[0].idle_rate = 1.5; // above busy_rate 1.0
        assert!(matches!(
            above_busy.validate(0),
            Err(ProfileError::BadLadder { state: 0, .. })
        ));

        let mut above_wake = laddered();
        above_wake.sleep_states[1].wake_cost = 11.0; // above full wake 10
        assert!(matches!(
            above_wake.validate(0),
            Err(ProfileError::BadLadder { state: 1, .. })
        ));

        let free = PowerProfile {
            wake_cost: 0.0,
            busy_rate: 0.0,
            sleep_states: vec![],
        };
        assert_eq!(free.validate(1), Err(ProfileError::Free { proc: 1 }));

        let nan = PowerProfile {
            wake_cost: f64::NAN,
            busy_rate: 1.0,
            sleep_states: vec![],
        };
        assert_eq!(nan.validate(0), Err(ProfileError::NonFinite { proc: 0 }));
        assert!(nan
            .validate(0)
            .unwrap_err()
            .to_string()
            .contains("processor 0"));
    }

    #[test]
    fn profile_cost_is_heterogeneous() {
        let c = ProfileCost::new(&[
            PowerProfile::affine(1.0, 1.0),
            PowerProfile::affine(5.0, 0.5),
        ]);
        assert_eq!(c.cost(0, 0, 2), 3.0);
        assert_eq!(c.cost(1, 0, 2), 6.0);
    }

    #[test]
    fn fleet_or_default_fills_affine() {
        let fleet = fleet_or_default(None, 3, 4.0, 1.0);
        assert_eq!(fleet.len(), 3);
        assert!(fleet
            .iter()
            .all(|p| p.wake_cost == 4.0 && p.sleep_states.is_empty()));
        let explicit = [laddered()];
        let fleet = fleet_or_default(Some(&explicit), 1, 0.0, 1.0);
        assert_eq!(fleet[0].sleep_states.len(), 2);
    }

    #[test]
    fn freq_ladder_validates_and_prices() {
        let l = FreqLadder::new(1.0, 0.5, 2.0, vec![1, 2, 4]);
        assert_eq!(l.num_levels(), 3);
        assert_eq!(l.min_freq(), 1);
        assert_eq!(l.max_freq(), 4);
        // P(f) = f² + 0.5
        assert_eq!(
            l.level(0),
            FreqLevel {
                freq: 1,
                power: 1.5
            }
        );
        assert_eq!(
            l.level(1),
            FreqLevel {
                freq: 2,
                power: 4.5
            }
        );
        assert_eq!(
            l.level(2),
            FreqLevel {
                freq: 4,
                power: 16.5
            }
        );
        assert_eq!(l.levels().len(), 3);
        assert_eq!(l.min_level_for(1), Some(0));
        assert_eq!(l.min_level_for(2), Some(1));
        assert_eq!(l.min_level_for(3), Some(2));
        assert_eq!(l.min_level_for(5), None);
    }

    #[test]
    fn degenerate_ladder_prices_bitwise_like_rate() {
        for rate in [0.25, 1.0, 3.5] {
            let l = FreqLadder::degenerate(rate);
            assert_eq!(l.power_of_freq(1).to_bits(), rate.to_bits());
        }
    }

    #[test]
    fn freq_ladder_rejects_bad_shapes() {
        let base = |freqs: Vec<u32>| FreqLadder {
            alpha: 1.0,
            beta: 0.0,
            gamma: 2.0,
            freqs,
        };
        assert_eq!(base(vec![]).validate(), Err(FreqLadderError::Empty));
        assert_eq!(
            base(vec![1, 1]).validate(),
            Err(FreqLadderError::NotIncreasing { level: 1 })
        );
        assert_eq!(
            base(vec![0]).validate(),
            Err(FreqLadderError::FreqOutOfRange { level: 0, freq: 0 })
        );
        assert_eq!(
            base(vec![1, 1000]).validate(),
            Err(FreqLadderError::FreqOutOfRange {
                level: 1,
                freq: 1000
            })
        );
        assert_eq!(
            base((1..=9).collect()).validate(),
            Err(FreqLadderError::TooManyLevels { got: 9 })
        );
        let nan = FreqLadder {
            alpha: f64::NAN,
            beta: 0.0,
            gamma: 1.0,
            freqs: vec![1],
        };
        assert_eq!(nan.validate(), Err(FreqLadderError::NonFinite));
        // alpha = beta = 0 makes every level free
        let free = FreqLadder {
            alpha: 0.0,
            beta: 0.0,
            gamma: 1.0,
            freqs: vec![1],
        };
        assert!(matches!(
            free.validate(),
            Err(FreqLadderError::NonPositivePower { level: 0, .. })
        ));
        // gamma < 1 with beta = 0: P(f)/f decreases — below critical speed
        let sub = FreqLadder {
            alpha: 1.0,
            beta: 0.0,
            gamma: 0.5,
            freqs: vec![1, 4],
        };
        assert_eq!(
            sub.validate(),
            Err(FreqLadderError::EnergyPerWorkDecreasing { level: 1 })
        );
        // gamma = 1, beta = 0: constant energy per work — allowed (ties ok)
        assert!(base(vec![1, 2, 4]).validate().is_ok());
        assert!(FreqLadder {
            alpha: 2.0,
            beta: 0.0,
            gamma: 1.0,
            freqs: vec![1, 2, 4]
        }
        .validate()
        .is_ok());
        for e in [
            FreqLadderError::Empty,
            FreqLadderError::EnergyPerWorkDecreasing { level: 1 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn freq_ladder_serde_round_trip() {
        let l = FreqLadder::new(1.0, 0.5, 3.0, vec![1, 2, 3]);
        let json = serde_json::to_string(&l).unwrap();
        let back: FreqLadder = serde_json::from_str(&json).unwrap();
        assert_eq!(back, l);
        assert_eq!(back.validate(), Ok(()));
    }

    #[test]
    fn serde_round_trip() {
        let p = laddered();
        let json = serde_json::to_string(&p).unwrap();
        let back: PowerProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
        let choice = SleepChoice::State(1);
        let json = serde_json::to_string(&choice).unwrap();
        let back: SleepChoice = serde_json::from_str(&json).unwrap();
        assert_eq!(back, choice);
    }
}
