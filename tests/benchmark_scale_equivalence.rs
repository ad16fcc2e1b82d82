//! Fast ≡ naive bit-identity at the offline benchmark's own shapes.
//!
//! The `fast_path_equivalence` and `dvfs_equivalence` proptests draw small
//! grids (at most 3 processors, horizon 15), so no nested-prefix run there
//! has more than 15 members. The lazy greedy keys one heap entry per run,
//! and the benchmark shapes below have runs of up to 48 members: these
//! seeded instances pin bit-identity where the grouping actually bites.

use power_scheduling::scheduling::naive::naive_schedule_all;
use power_scheduling::scheduling::{
    enumerate_candidates, schedule_all, solve_dvfs, solve_dvfs_naive, AffineCost, CandidatePolicy,
    EnergyCost, Instance, PowerProfile, ProfileCost, Schedule, SolveOptions,
};
use power_scheduling::workloads::planted::PlantedCostModel;
use power_scheduling::workloads::{dvfs_instance, planted_instance, DvfsConfig, PlantedConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 7919;
const PER_SHAPE: usize = 6;

/// A planted unit-value instance on a `processors × horizon` grid, with the
/// benchmark's restart cost of 3.
fn planted(processors: u32, horizon: u32, jobs: usize, rng: &mut StdRng) -> Instance {
    planted_instance(
        &PlantedConfig {
            num_processors: processors,
            horizon,
            target_jobs: jobs,
            decoy_prob: 0.3,
            max_value: 1,
            cost_model: PlantedCostModel::Affine { restart: 3.0 },
            policy: CandidatePolicy::All,
        },
        rng,
    )
    .instance
}

fn assert_bit_identical(fast: &Schedule, naive: &Schedule, what: &str) {
    assert_eq!(fast.awake.len(), naive.awake.len(), "{what}: awake count");
    for (a, b) in fast.awake.iter().zip(&naive.awake) {
        assert_eq!(
            (a.proc, a.start, a.end, a.cost.to_bits()),
            (b.proc, b.start, b.end, b.cost.to_bits()),
            "{what}: awake interval"
        );
    }
    assert_eq!(fast.assignments, naive.assignments, "{what}: assignments");
    assert_eq!(
        fast.total_cost.to_bits(),
        naive.total_cost.to_bits(),
        "{what}: total cost"
    );
    assert_eq!(fast.scheduled_count, naive.scheduled_count, "{what}: count");
}

fn check_schedule_all(inst: &Instance, cost: &dyn EnergyCost, what: &str) {
    let cands = enumerate_candidates(inst, cost, CandidatePolicy::All);
    let opts = SolveOptions::default();
    let fast = schedule_all(inst, &cands, &opts).expect("planted instances are feasible");
    let naive = naive_schedule_all(inst, &cands, &opts).expect("planted instances are feasible");
    assert_bit_identical(&fast, &naive, what);
}

#[test]
fn affine_n128_p4_t48_matches_naive() {
    let mut rng = StdRng::seed_from_u64(SEED);
    let cost = AffineCost::new(3.0, 1.0);
    for k in 0..PER_SHAPE {
        let inst = planted(4, 48, 128, &mut rng);
        check_schedule_all(&inst, &cost, &format!("affine[{k}]"));
    }
}

#[test]
fn hetero_n64_p4_t32_matches_naive() {
    let mut rng = StdRng::seed_from_u64(SEED + 1);
    let fleet: Vec<PowerProfile> = (0..4)
        .map(|p| PowerProfile::affine(2.0 + 1.5 * p as f64, 0.75 + 0.5 * p as f64))
        .collect();
    let cost = ProfileCost::new(&fleet);
    for k in 0..PER_SHAPE {
        let inst = planted(4, 32, 64, &mut rng);
        check_schedule_all(&inst, &cost, &format!("hetero[{k}]"));
    }
}

#[test]
fn dvfs_n64_p4_t32_matches_naive() {
    let mut rng = StdRng::seed_from_u64(SEED + 2);
    let cfg = DvfsConfig {
        num_processors: 4,
        horizon: 32,
        target_jobs: 64,
        ..DvfsConfig::default()
    };
    for k in 0..PER_SHAPE {
        let d = dvfs_instance(&cfg, &mut rng);
        let fast = solve_dvfs(&d).expect("generated DVFS instances are feasible");
        let naive = solve_dvfs_naive(&d).expect("generated DVFS instances are feasible");
        assert_eq!(
            fast.total_cost.to_bits(),
            naive.total_cost.to_bits(),
            "dvfs[{k}]: total cost"
        );
        assert_eq!(fast.awake, naive.awake, "dvfs[{k}]: awake intervals");
        assert_eq!(
            fast.assignments, naive.assignments,
            "dvfs[{k}]: assignments"
        );
    }
}
