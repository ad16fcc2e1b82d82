//! Larger randomized stress tests for the incremental matching-rank oracle —
//! the load-bearing component of the whole reduction. Cross-checks hundreds
//! of random insertion schedules against Hopcroft–Karp and the weighted
//! reference at sizes well beyond the unit tests, checks scratch reuse
//! across oracles, and bounds the search work of a pinned DVFS gain scan,
//! of a whole cold solve of the same shape, and of a warm online replay,
//! and the slots a warm replay's rebuilds number on a long horizon.

use std::sync::Arc;

use power_scheduling::matching::oracle::weighted_rank_reference;
use power_scheduling::matching::{hopcroft_karp, BipartiteGraph, GainScratch, MatchingOracle};
use power_scheduling::obs::{self, Registry};
use power_scheduling::scheduling::dvfs::CompiledDvfs;
use power_scheduling::scheduling::objective::ObjectiveScratch;
use power_scheduling::scheduling::{schedule_all, ScheduleObjective, ScheduleReduction};
use power_scheduling::sim::{replay, PolicyKind};
use power_scheduling::submodular::BudgetedObjective;
use power_scheduling::workloads::{
    dvfs_instance, generate_trace, ArrivalConfig, DvfsConfig, TraceKind,
};
use rand::{Rng, SeedableRng};

fn random_graph(rng: &mut impl Rng, nx: u32, ny: u32, deg: usize) -> BipartiteGraph {
    let mut edges = Vec::with_capacity(nx as usize * deg);
    for x in 0..nx {
        for _ in 0..rng.gen_range(0..=deg) {
            edges.push((x, rng.gen_range(0..ny)));
        }
    }
    BipartiteGraph::from_edges(nx, ny, &edges)
}

#[test]
fn cardinality_oracle_vs_hopcroft_karp_at_scale() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xBEEF);
    for trial in 0..10 {
        let nx = rng.gen_range(100..400u32);
        let ny = rng.gen_range(50..200u32);
        let g = random_graph(&mut rng, nx, ny, 5);
        let mut oracle = MatchingOracle::new_cardinality(&g);
        let mut inserted = vec![false; nx as usize];
        // random insertion order, checking every ~50 insertions
        let mut order: Vec<u32> = (0..nx).collect();
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        for (step, &v) in order.iter().enumerate() {
            oracle.add_slot(v);
            inserted[v as usize] = true;
            if step % 50 == 49 || step + 1 == order.len() {
                let hk = hopcroft_karp(&g, |x| inserted[x as usize]);
                assert_eq!(
                    oracle.total(),
                    hk.size as f64,
                    "trial {trial} step {step}: oracle diverged from HK"
                );
            }
        }
    }
}

#[test]
fn weighted_oracle_vs_reference_at_scale() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xCAFE);
    for trial in 0..6 {
        let nx = rng.gen_range(60..150u32);
        let ny = rng.gen_range(30..80u32);
        let g = random_graph(&mut rng, nx, ny, 4);
        let values: Vec<f64> = (0..ny).map(|_| rng.gen_range(1..=50) as f64).collect();
        let mut oracle = MatchingOracle::new(&g, values.clone());
        let mut inserted = vec![false; nx as usize];
        for v in 0..nx {
            oracle.add_slot(v);
            inserted[v as usize] = true;
            if v % 37 == 36 || v + 1 == nx {
                let want = weighted_rank_reference(&g, &values, |x| inserted[x as usize]);
                assert_eq!(
                    oracle.total(),
                    want,
                    "trial {trial} slot {v}: weighted oracle diverged"
                );
            }
        }
    }
}

#[test]
fn interleaved_gains_and_commits_stay_consistent() {
    // Alternate gain probes and commits; every commit must realize the gain
    // its immediately preceding probe predicted, and probes must not corrupt
    // the committed state even under heavy scratch reuse.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xD00D);
    let g = random_graph(&mut rng, 300, 150, 5);
    let values: Vec<f64> = (0..150).map(|_| rng.gen_range(1..=20) as f64).collect();
    let mut oracle = MatchingOracle::new(&g, values);
    let mut scratch = GainScratch::new();
    for _ in 0..200 {
        let probe: Vec<u32> = (0..rng.gen_range(1..8))
            .map(|_| rng.gen_range(0..300u32))
            .collect();
        let predicted = oracle.gain_of(&probe, &mut scratch);
        let again = oracle.gain_of(&probe, &mut scratch);
        assert_eq!(predicted, again, "probe not idempotent");
        if rng.gen_bool(0.5) {
            let before = oracle.total();
            let realized = oracle.commit(&probe);
            assert_eq!(predicted, realized, "commit diverged from probe");
            assert_eq!(oracle.total(), before + realized);
        }
    }
    // final cross-check against reference
    let committed: Vec<bool> = (0..300).map(|x| oracle.is_allowed(x)).collect();
    let want = weighted_rank_reference(oracle.graph(), oracle.values(), |x| committed[x as usize]);
    assert_eq!(oracle.total(), want);
}

#[test]
fn gain_scratch_shared_across_different_oracles() {
    // One scratch reused against two different oracles (as when a caller
    // keeps one scratch across solves) must stay correct thanks to
    // epoch/versioning.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xF00D);
    let g1 = random_graph(&mut rng, 80, 40, 4);
    let g2 = random_graph(&mut rng, 120, 60, 4);
    let mut o1 = MatchingOracle::new_cardinality(&g1);
    let mut o2 = MatchingOracle::new_cardinality(&g2);
    o1.commit(&(0..40u32).collect::<Vec<_>>());
    o2.commit(&(0..60u32).collect::<Vec<_>>());
    let mut scratch = GainScratch::new();
    for _ in 0..50 {
        let p1: Vec<u32> = (0..4).map(|_| rng.gen_range(0..80u32)).collect();
        let p2: Vec<u32> = (0..4).map(|_| rng.gen_range(0..120u32)).collect();
        let g1a = o1.gain_of(&p1, &mut scratch);
        let g2a = o2.gain_of(&p2, &mut scratch);
        let g1b = o1.gain_of(&p1, &mut scratch);
        let g2b = o2.gain_of(&p2, &mut scratch);
        assert_eq!(g1a, g1b, "scratch crosstalk on oracle 1");
        assert_eq!(g2a, g2b, "scratch crosstalk on oracle 2");
    }
}

#[test]
fn gain_scratch_reuse_when_only_the_job_side_resizes() {
    // Same slot count, more jobs: the slot-side stamps of the first oracle's
    // evaluation must not survive into the second one's epochs.
    let small = BipartiteGraph::from_edges(2, 1, &[(0, 0), (1, 0)]);
    let large = BipartiteGraph::from_edges(2, 2, &[(0, 0), (1, 1)]);
    let mut scratch = GainScratch::new();
    MatchingOracle::new_cardinality(&small).gain_of(&[0, 1], &mut scratch);
    let oracle = MatchingOracle::new_cardinality(&large);
    let fresh = oracle.gain_of(&[0, 1], &mut GainScratch::new());
    assert_eq!(fresh, 2.0);
    assert_eq!(oracle.gain_of(&[0, 1], &mut scratch), fresh);
}

#[test]
fn gain_scratch_reuse_when_only_the_slot_side_resizes() {
    // Same job count, more slots: the job-side stamps of the first oracle's
    // evaluation must not survive into the second one's epochs.
    let small = BipartiteGraph::from_edges(1, 2, &[(0, 0)]);
    let large = BipartiteGraph::from_edges(2, 2, &[(0, 0), (1, 1)]);
    let mut scratch = GainScratch::new();
    MatchingOracle::new_cardinality(&small).gain_of(&[0], &mut scratch);
    let oracle = MatchingOracle::new_cardinality(&large);
    let fresh = oracle.gain_of(&[0, 1], &mut GainScratch::new());
    assert_eq!(fresh, 2.0);
    assert_eq!(oracle.gain_of(&[0, 1], &mut scratch), fresh);
}

#[test]
fn gain_scratch_reuse_after_a_failed_search_with_a_new_job_count() {
    // Two slots share one job, so the second slot's search fails and marks
    // job 0 dead for that pass. The next oracle has more jobs and restarts
    // the scratch's epochs: a dead mark surviving the resize would read as
    // current and hide its job 0.
    let small = BipartiteGraph::from_edges(2, 1, &[(0, 0), (1, 0)]);
    let large = BipartiteGraph::from_edges(2, 3, &[(0, 0), (1, 1), (1, 2)]);
    let mut scratch = GainScratch::new();
    let first = MatchingOracle::new_cardinality(&small);
    assert_eq!(first.gain_of(&[0, 1], &mut scratch), 1.0, "slot 1 fails");
    let oracle = MatchingOracle::new_cardinality(&large);
    let fresh = oracle.gain_of(&[0, 1], &mut GainScratch::new());
    assert_eq!(fresh, 2.0);
    assert_eq!(oracle.gain_of(&[0, 1], &mut scratch), fresh);
    // and back to the smaller job count
    assert_eq!(first.gain_of(&[0, 1], &mut scratch), 1.0);
}

/// The pinned DVFS shape the work bounds below are measured on: the
/// seed-11 `dvfs_instance` at n64/p4/t32, compiled.
fn pinned_dvfs_shape() -> CompiledDvfs {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let dvfs = dvfs_instance(
        &DvfsConfig {
            num_processors: 4,
            horizon: 32,
            target_jobs: 64,
            ..DvfsConfig::default()
        },
        &mut rng,
    );
    dvfs.compile().expect("generated DVFS instances compile")
}

/// Upper bound on the adjacency entries the first gain scan of the pinned
/// DVFS shape may examine, about twice the count measured when it was set.
/// The count is machine-portable, and the fast≡naive speedup gate cannot
/// see oracle changes because both paths share the oracle.
const DVFS_FIRST_SCAN_EDGE_VISITS_MAX: u64 = 140_000;

#[test]
fn dvfs_first_scan_edge_visits_stay_bounded() {
    let compiled = pinned_dvfs_shape();
    let red = ScheduleReduction::build(&compiled.instance, &compiled.candidates);
    let obj = ScheduleObjective::new_cardinality(&red);
    let mut scratch = ObjectiveScratch::default();
    let mut gains = Vec::new();
    obj.scan_gains(false, &mut scratch, &mut gains);
    assert_eq!(gains.len(), red.num_subsets());
    let visits = scratch.edge_visits();
    assert!(
        visits <= DVFS_FIRST_SCAN_EDGE_VISITS_MAX,
        "first scan examined {visits} adjacency entries, bound {DVFS_FIRST_SCAN_EDGE_VISITS_MAX}"
    );
}

/// Upper bounds on the work of one cold solve of the pinned DVFS shape:
/// adjacency entries examined by every matching search of the solve and the
/// greedy's gain evaluations, about twice the counts measured when they were
/// set, and subsets whose gains a pass recomputed (`core.gain_memo.misses`),
/// about 1.4 times the 121 measured when it was set. A cold solve keys its
/// lazy heap by upper bounds instead of scanning every candidate first, so
/// bringing the scan back, or loosening the bounds until most runs reach
/// the heap top, fails here; so does a solve that rescans runs whose
/// components have no unmatched job left (850 subsets when each was
/// rescanned).
const DVFS_WHOLE_SOLVE_EDGE_VISITS_MAX: u64 = 7_000;
const DVFS_WHOLE_SOLVE_EVALUATIONS_MAX: u64 = 70;
const DVFS_WHOLE_SOLVE_MISSES_MAX: u64 = 170;

#[test]
fn dvfs_whole_solve_edge_visits_stay_bounded() {
    let compiled = pinned_dvfs_shape();
    let registry = Arc::new(Registry::new());
    obs::set_thread(Some(Arc::clone(&registry)));
    let solved = schedule_all(
        &compiled.instance,
        &compiled.candidates,
        &Default::default(),
    );
    obs::set_thread(None);
    solved.expect("the pinned shape is feasible");

    let visits = registry.counter("matching.oracle.edge_visits").get();
    let evaluations = registry.counter("submodular.greedy.evaluations").get();
    let misses = registry.counter("core.gain_memo.misses").get();
    assert!(
        visits > 0 && evaluations > 0 && misses > 0,
        "the solve flushed its counters"
    );
    assert!(
        visits <= DVFS_WHOLE_SOLVE_EDGE_VISITS_MAX,
        "the solve examined {visits} adjacency entries, bound {DVFS_WHOLE_SOLVE_EDGE_VISITS_MAX}"
    );
    assert!(
        evaluations <= DVFS_WHOLE_SOLVE_EVALUATIONS_MAX,
        "the solve made {evaluations} gain evaluations, bound {DVFS_WHOLE_SOLVE_EVALUATIONS_MAX}"
    );
    assert!(
        misses <= DVFS_WHOLE_SOLVE_MISSES_MAX,
        "the solve's passes recomputed {misses} subsets, bound {DVFS_WHOLE_SOLVE_MISSES_MAX}"
    );
}

/// Upper bounds on the work of one `resolve:1:warm` replay of the pinned
/// advance-notice trace below. Subsets built over all re-solves, and
/// intervals the builds examined (each re-solve's grid holds 131,584
/// intervals; the window build prices a few hundred), are held to about
/// twice the counts measured when they were set. Adjacency entries examined
/// by every matching search of every re-solve (64,057 measured) and the
/// greedy's gain evaluations (5,263) are held to about 1.4 and 1.33 times
/// theirs: first keys bounded by slot counts alone, or passes over runs
/// whose components have no unmatched job left, took 128,253 and 8,271. A
/// warm re-solve that scans every subset, a reduction that stops
/// collapsing equal windows, or a warm rebuild that walks the interval
/// family fails here too.
const WARM_REPLAY_EDGE_VISITS_MAX: u64 = 90_000;
const WARM_REPLAY_EVALUATIONS_MAX: u64 = 7_000;
const WARM_REPLAY_SUBSETS_MAX: u64 = 70_000;
const WARM_REPLAY_INTERVALS_MAX: u64 = 120_000;

#[test]
fn warm_replay_edge_visits_stay_bounded() {
    // The `online_replay` shape: p4/T256, 96 jobs, each released 24 slots
    // before its window opens.
    let arrivals = ArrivalConfig {
        num_processors: 4,
        horizon: 256,
        target_jobs: 96,
        ..ArrivalConfig::default()
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut trace = generate_trace(TraceKind::PoissonBursts, &arrivals, &mut rng);
    for job in &mut trace.jobs {
        job.release = job.release.saturating_sub(24);
    }

    let registry = Arc::new(Registry::new());
    obs::set_thread(Some(Arc::clone(&registry)));
    let warm = replay(
        &trace,
        PolicyKind::Resolve {
            period: 1,
            warm: true,
        }
        .build(None)
        .as_mut(),
    );
    obs::set_thread(None);
    let warm = warm.expect("the pinned trace replays");
    let cold = replay(
        &trace,
        PolicyKind::Resolve {
            period: 1,
            warm: false,
        }
        .build(None)
        .as_mut(),
    )
    .expect("the pinned trace replays");
    assert_eq!(warm.schedule.awake, cold.schedule.awake);
    assert_eq!(warm.schedule.assignments, cold.schedule.assignments);
    assert_eq!(
        warm.schedule.total_cost.to_bits(),
        cold.schedule.total_cost.to_bits()
    );

    let resolves = registry.counter("core.warm.solves.warm").get();
    let visits = registry.counter("matching.oracle.edge_visits").get();
    let evaluations = registry.counter("submodular.greedy.evaluations").get();
    let subsets = registry.counter("core.reduction.subsets").get();
    let intervals = registry.counter("core.reduction.intervals").get();
    assert!(
        resolves > 0 && visits > 0 && evaluations > 0 && subsets > 0 && intervals > 0,
        "the replay re-solved warm and flushed its counters"
    );
    assert!(
        visits <= WARM_REPLAY_EDGE_VISITS_MAX,
        "the replay examined {visits} adjacency entries, bound {WARM_REPLAY_EDGE_VISITS_MAX}"
    );
    assert!(
        evaluations <= WARM_REPLAY_EVALUATIONS_MAX,
        "the replay made {evaluations} gain evaluations, bound {WARM_REPLAY_EVALUATIONS_MAX}"
    );
    assert!(
        subsets <= WARM_REPLAY_SUBSETS_MAX,
        "the replay built {subsets} subsets, bound {WARM_REPLAY_SUBSETS_MAX}"
    );
    assert!(
        intervals <= WARM_REPLAY_INTERVALS_MAX,
        "the replay's builds examined {intervals} intervals, bound {WARM_REPLAY_INTERVALS_MAX}"
    );
}

/// Upper bound on the slots the reduction numbers per graph build during
/// one `resolve:1:warm` replay of a 4,096-slot trace: four processors times
/// 64 slots, a bound on the live span of the jobs pending at one time (each
/// window is a few slots long and announced 24 slots early), not on the
/// horizon. Slot ids over the whole horizon read 16,384 per build here.
const WARM_REPLAY_DENSE_SLOTS_PER_BUILD_MAX: u64 = 4 * 64;

#[test]
fn warm_replay_dense_slots_stay_bounded() {
    // The `online_replay` shape stretched to T=4096 at the same density:
    // 96 jobs per 256 slots, each released 24 slots before its window
    // opens.
    let arrivals = ArrivalConfig {
        num_processors: 4,
        horizon: 4096,
        target_jobs: 96 * 16,
        ..ArrivalConfig::default()
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut trace = generate_trace(TraceKind::PoissonBursts, &arrivals, &mut rng);
    for job in &mut trace.jobs {
        job.release = job.release.saturating_sub(24);
    }

    let registry = Arc::new(Registry::new());
    obs::set_thread(Some(Arc::clone(&registry)));
    let warm = replay(
        &trace,
        PolicyKind::Resolve {
            period: 1,
            warm: true,
        }
        .build(None)
        .as_mut(),
    );
    obs::set_thread(None);
    warm.expect("the pinned trace replays");

    let solves = registry.counter("core.warm.solves.warm").get()
        + registry.counter("core.warm.solves.cold").get();
    // a re-solve of an unchanged instance re-prices without a graph build
    let builds = solves - registry.counter("core.warm.repriced").get();
    let dense = registry.counter("core.reduction.dense_slots").get();
    assert!(
        builds > 0 && dense > 0,
        "the replay rebuilt its reduction and counted its slots"
    );
    let per_build = dense / builds;
    assert!(
        per_build <= WARM_REPLAY_DENSE_SLOTS_PER_BUILD_MAX,
        "the replay numbered {dense} slots over {builds} graph builds, {per_build} per build, \
         bound {WARM_REPLAY_DENSE_SLOTS_PER_BUILD_MAX}"
    );
}
