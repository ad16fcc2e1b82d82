//! Awake-interval candidate generation.
//!
//! The greedy optimizes over an explicit family of candidate awake intervals
//! (the paper's "allowable subsets"). Definition 2 permits the costs to come
//! from a query oracle; in the polynomial regime the relevant candidates are
//! the `O(p·T²)` contiguous intervals, optionally length-bounded. Intervals
//! with infinite cost (unavailability) are dropped during enumeration.

use serde::{Deserialize, Serialize};

use crate::cost::EnergyCost;
use crate::model::Instance;

/// One candidate awake interval `[start, end)` on a processor, with its
/// energy cost already evaluated.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CandidateInterval {
    /// Processor index.
    pub proc: u32,
    /// First awake slot (inclusive).
    pub start: u32,
    /// One past the last awake slot (exclusive).
    pub end: u32,
    /// Energy cost (strictly positive, finite).
    pub cost: f64,
}

impl CandidateInterval {
    /// Interval length in slots.
    #[inline]
    pub fn len(&self) -> u32 {
        self.end - self.start
    }

    /// Never empty by construction, but included for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Does the interval cover `(proc, time)`?
    #[inline]
    pub fn covers(&self, proc: u32, time: u32) -> bool {
        self.proc == proc && self.start <= time && time < self.end
    }
}

/// Which intervals to enumerate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CandidatePolicy {
    /// Every interval `[s, e)` with `0 ≤ s < e ≤ T`, per processor
    /// (`O(p·T²)` candidates).
    All,
    /// Every interval of length at most `max_len` (`O(p·T·max_len)`).
    MaxLength(u32),
    /// Single-slot intervals only (`p·T` candidates). With affine costs this
    /// degenerates to per-slot set cover — useful as an ablation.
    SingleSlots,
}

impl std::fmt::Display for CandidatePolicy {
    /// The textual form accepted back by [`CandidatePolicy::from_str`]
    /// (`all`, `single`, `maxlen:K`) — used by the CLI and the wire
    /// protocol.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CandidatePolicy::All => write!(f, "all"),
            CandidatePolicy::SingleSlots => write!(f, "single"),
            CandidatePolicy::MaxLength(k) => write!(f, "maxlen:{k}"),
        }
    }
}

impl std::str::FromStr for CandidatePolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "all" => Ok(CandidatePolicy::All),
            "single" => Ok(CandidatePolicy::SingleSlots),
            other => match other.strip_prefix("maxlen:") {
                Some(k) => {
                    let k: u32 = k
                        .parse()
                        .map_err(|e| format!("bad maxlen in policy '{other}': {e}"))?;
                    if k == 0 {
                        return Err("maxlen policy requires a positive length".into());
                    }
                    Ok(CandidatePolicy::MaxLength(k))
                }
                None => Err(format!(
                    "unknown candidate policy '{other}' (expected all, single, or maxlen:K)"
                )),
            },
        }
    }
}

/// Enumerates candidate intervals for `inst` under `policy`, pricing each via
/// `cost` and dropping infinite-cost intervals.
///
/// # Panics
/// Panics if the oracle returns a non-positive finite cost (the greedy's
/// ratio rule requires strictly positive costs).
pub fn enumerate_candidates(
    inst: &Instance,
    cost: &dyn EnergyCost,
    policy: CandidatePolicy,
) -> Vec<CandidateInterval> {
    let _span = sched_obs::span!("core.enumerate_ns");
    let t = inst.horizon;
    let mut out = Vec::new();
    for proc in 0..inst.num_processors {
        for start in 0..t {
            let max_end = match policy {
                CandidatePolicy::All => t,
                CandidatePolicy::MaxLength(l) => start.saturating_add(l).min(t),
                CandidatePolicy::SingleSlots => (start + 1).min(t),
            };
            for end in (start + 1)..=max_end {
                let c = cost.cost(proc, start, end);
                if c.is_infinite() {
                    continue;
                }
                assert!(
                    c > 0.0 && c.is_finite(),
                    "cost oracle returned invalid cost {c} for ({proc}, [{start},{end}))"
                );
                out.push(CandidateInterval {
                    proc,
                    start,
                    end,
                    cost: c,
                });
            }
        }
    }
    sched_obs::counter_add("core.enumerate.candidates", out.len() as u64);
    out
}

/// Intervals `enumerate_candidates` walks under `policy` on a
/// `processors × horizon` grid, finite or not, in closed form.
pub fn interval_count(policy: CandidatePolicy, processors: u32, horizon: u32) -> u64 {
    let t = u64::from(horizon);
    let per_proc = match policy {
        CandidatePolicy::All => t * (t + 1) / 2,
        CandidatePolicy::SingleSlots => t,
        CandidatePolicy::MaxLength(k) => {
            // starts `0..=t-k` reach k slots; the last k-1 starts reach
            // k-1, …, 1
            let k = u64::from(k).min(t);
            k * (t - k + 1) + k * k.saturating_sub(1) / 2
        }
    };
    u64::from(processors) * per_proc
}

/// How many candidates `enumerate_candidates(inst, cost, policy)` returns,
/// without enumerating them, when `p` oracle calls can tell: under an
/// [`inclusion_monotone`](EnergyCost::inclusion_monotone) cost every
/// interval is finite exactly when each processor's whole horizon `[0, T)`
/// is, and then the count is [`interval_count`]. `None` when the cost is
/// not monotone or some horizon is infinite: only enumeration knows.
///
/// Like the enumeration's own check, this presumes finite prices are
/// positive.
pub fn count_candidates(
    inst: &Instance,
    cost: &dyn EnergyCost,
    policy: CandidatePolicy,
) -> Option<u64> {
    let (p, t) = (inst.num_processors, inst.horizon);
    let finite = t == 0 || (0..p).all(|proc| cost.cost(proc, 0, t).is_finite());
    (cost.inclusion_monotone() && finite).then(|| interval_count(policy, p, t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{AffineCost, UnavailableSlots};
    use crate::model::{Instance, Job, SlotRef};

    fn inst(p: u32, t: u32) -> Instance {
        Instance::new(p, t, vec![Job::unit(vec![SlotRef::new(0, 0)])])
    }

    #[test]
    fn all_counts() {
        let i = inst(2, 4);
        let c = enumerate_candidates(&i, &AffineCost::new(1.0, 1.0), CandidatePolicy::All);
        // per processor: T(T+1)/2 = 10
        assert_eq!(c.len(), 20);
    }

    #[test]
    fn max_length_counts() {
        let i = inst(1, 5);
        let c = enumerate_candidates(
            &i,
            &AffineCost::new(1.0, 1.0),
            CandidatePolicy::MaxLength(2),
        );
        // lengths 1 (5) + 2 (4) = 9
        assert_eq!(c.len(), 9);
        assert!(c.iter().all(|iv| iv.len() <= 2));
    }

    #[test]
    fn max_length_beyond_the_horizon_admits_every_interval() {
        // `start + K` must not wrap: a cap past the horizon is no cap
        let i = inst(1, 6);
        let cost = AffineCost::new(1.0, 1.0);
        let all = enumerate_candidates(&i, &cost, CandidatePolicy::All);
        let huge = enumerate_candidates(&i, &cost, CandidatePolicy::MaxLength(u32::MAX));
        assert_eq!(huge, all);
    }

    #[test]
    fn single_slots() {
        let i = inst(3, 4);
        let c = enumerate_candidates(&i, &AffineCost::new(1.0, 1.0), CandidatePolicy::SingleSlots);
        assert_eq!(c.len(), 12);
        assert!(c.iter().all(|iv| iv.len() == 1));
    }

    #[test]
    fn infinite_cost_dropped() {
        let i = inst(1, 3);
        let cost = UnavailableSlots::new(AffineCost::new(1.0, 1.0), 1, &[(0, 1)]);
        let c = enumerate_candidates(&i, &cost, CandidatePolicy::All);
        // only [0,1) and [2,3) survive
        assert_eq!(c.len(), 2);
        assert!(c.iter().all(|iv| !iv.covers(0, 1)));
    }

    #[test]
    fn costs_recorded() {
        let i = inst(1, 3);
        let c = enumerate_candidates(&i, &AffineCost::new(2.0, 1.0), CandidatePolicy::All);
        for iv in &c {
            assert_eq!(iv.cost, 2.0 + iv.len() as f64);
        }
    }

    #[test]
    fn policy_parse_display_round_trip() {
        for p in [
            CandidatePolicy::All,
            CandidatePolicy::SingleSlots,
            CandidatePolicy::MaxLength(7),
        ] {
            assert_eq!(p.to_string().parse::<CandidatePolicy>().unwrap(), p);
        }
        assert_eq!(
            "all".parse::<CandidatePolicy>().unwrap(),
            CandidatePolicy::All
        );
        assert!("maxlen:0".parse::<CandidatePolicy>().is_err());
        assert!("maxlen:x".parse::<CandidatePolicy>().is_err());
        assert!("bogus".parse::<CandidatePolicy>().is_err());
    }

    #[test]
    fn covers_checks_processor() {
        let iv = CandidateInterval {
            proc: 1,
            start: 2,
            end: 5,
            cost: 1.0,
        };
        assert!(iv.covers(1, 2));
        assert!(iv.covers(1, 4));
        assert!(!iv.covers(1, 5));
        assert!(!iv.covers(0, 3));
        assert_eq!(iv.len(), 3);
        assert!(!iv.is_empty());
    }

    #[test]
    fn interval_count_matches_enumeration() {
        let cost = AffineCost::new(1.0, 1.0);
        for t in 1..=9 {
            let i = inst(2, t);
            let policies = [
                CandidatePolicy::All,
                CandidatePolicy::SingleSlots,
                CandidatePolicy::MaxLength(1),
                CandidatePolicy::MaxLength(2),
                CandidatePolicy::MaxLength(5),
                CandidatePolicy::MaxLength(t),
                CandidatePolicy::MaxLength(t + 1),
                CandidatePolicy::MaxLength(u32::MAX),
            ];
            for policy in policies {
                let enumerated = enumerate_candidates(&i, &cost, policy).len() as u64;
                assert_eq!(interval_count(policy, 2, t), enumerated, "{policy} t={t}");
                assert_eq!(
                    count_candidates(&i, &cost, policy),
                    Some(enumerated),
                    "{policy} t={t}"
                );
            }
        }
        assert_eq!(interval_count(CandidatePolicy::All, 3, 0), 0);
    }

    #[test]
    fn count_candidates_declines_what_only_enumeration_knows() {
        let i = inst(2, 6);
        // an unavailable slot makes some intervals of processor 0 infinite
        let holes = UnavailableSlots::new(AffineCost::new(1.0, 1.0), 2, &[(0, 3)]);
        assert!(holes.inclusion_monotone());
        assert_eq!(count_candidates(&i, &holes, CandidatePolicy::All), None);
        // a cost that is not monotone is never counted
        struct Flat;
        impl EnergyCost for Flat {
            fn cost(&self, _proc: u32, _start: u32, _end: u32) -> f64 {
                1.0
            }
        }
        assert_eq!(count_candidates(&i, &Flat, CandidatePolicy::All), None);
    }
}
