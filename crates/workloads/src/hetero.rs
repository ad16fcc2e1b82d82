//! Heterogeneous-fleet and sleep-ladder profile generators.
//!
//! Real fleets mix machine generations: a power-hungry old node next to an
//! efficient new one, each with firmware exposing several sleep depths.
//! These generators produce random [`PowerProfile`] fleets — distinct wake
//! costs and busy rates per processor, optionally with a monotone
//! [`SleepState`] ladder — and attach them to the timed arrival traces from
//! [`crate::arrivals`], giving the online replay harness and the CLI
//! (`generate --hetero`) reproducible heterogeneous scenarios. All
//! randomness comes from the caller's RNG, so every fleet is reproducible
//! from its seed.

use rand::Rng;
use sched_core::trace::ArrivalTrace;
use sched_core::{validate_profiles, PowerProfile};

use crate::arrivals::{generate_trace, ArrivalConfig, TraceKind};

/// One random per-processor profile fleet: wake costs drawn from
/// `[2, 10)`, busy rates from `[0.5, 2)`, and — when `sleep_levels > 0` — a
/// [`PowerProfile::envelope_ladder`] of that many states per processor
/// (strictly decreasing idle draw, strictly increasing wake cost, strictly
/// inside the awake/off envelope).
pub fn hetero_profiles(
    num_processors: u32,
    sleep_levels: u32,
    rng: &mut impl Rng,
) -> Vec<PowerProfile> {
    let fleet: Vec<PowerProfile> = (0..num_processors)
        .map(|_| {
            let wake = rng.gen_range(2.0..10.0f64);
            let busy = rng.gen_range(0.5..2.0f64);
            PowerProfile::envelope_ladder(wake, busy, sleep_levels)
        })
        .collect();
    debug_assert!(validate_profiles(&fleet, num_processors).is_ok());
    fleet
}

/// A timed arrival trace with an attached heterogeneous fleet: generates
/// the `kind` workload from `cfg`, then draws one random profile per
/// processor with `sleep_levels` ladder states. The trace's `restart`/`rate`
/// stay as the homogeneous fallback metadata but the profiles govern all
/// pricing.
pub fn hetero_trace(
    kind: TraceKind,
    cfg: &ArrivalConfig,
    sleep_levels: u32,
    rng: &mut impl Rng,
) -> ArrivalTrace {
    let mut trace = generate_trace(kind, cfg, rng);
    trace.profiles = Some(hetero_profiles(cfg.num_processors, sleep_levels, rng));
    trace.name = format!("hetero{sleep_levels}-{}", trace.name);
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sched_core::{enumerate_candidates, schedule_all, CandidatePolicy, ProfileCost};

    #[test]
    fn fleets_are_valid_and_distinct() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for levels in [0u32, 1, 3] {
            let fleet = hetero_profiles(4, levels, &mut rng);
            assert_eq!(validate_profiles(&fleet, 4), Ok(()));
            assert!(fleet
                .iter()
                .all(|p| p.sleep_states.len() == levels as usize));
            // random draws must actually differ across the fleet
            let wakes: Vec<u64> = fleet.iter().map(|p| p.wake_cost.to_bits()).collect();
            assert!(wakes.windows(2).any(|w| w[0] != w[1]), "degenerate fleet");
        }
    }

    #[test]
    fn hetero_traces_validate_and_stay_offline_feasible() {
        for kind in [
            TraceKind::PoissonBursts,
            TraceKind::Diurnal,
            TraceKind::DeadlineCliffs,
        ] {
            for seed in 0..4 {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let cfg = ArrivalConfig::default();
                let trace = hetero_trace(kind, &cfg, 2, &mut rng);
                assert_eq!(trace.validate(), Ok(()), "{kind} seed {seed}");
                assert!(trace.name.starts_with("hetero2-"));
                let profiles = trace.profiles.as_ref().unwrap();
                assert_eq!(profiles.len(), cfg.num_processors as usize);
                // planted homes keep the instance feasible under any
                // (finite, positive) pricing
                let inst = trace.to_instance();
                let cost = ProfileCost::new(profiles);
                let cands = enumerate_candidates(&inst, &cost, CandidatePolicy::All);
                assert!(
                    schedule_all(&inst, &cands, &Default::default()).is_ok(),
                    "{kind} seed {seed}: hetero trace offline-infeasible"
                );
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = ArrivalConfig::default();
        let a = hetero_trace(
            TraceKind::PoissonBursts,
            &cfg,
            2,
            &mut rand::rngs::StdRng::seed_from_u64(9),
        );
        let b = hetero_trace(
            TraceKind::PoissonBursts,
            &cfg,
            2,
            &mut rand::rngs::StdRng::seed_from_u64(9),
        );
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }
}
