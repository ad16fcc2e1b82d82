//! E14 — ablations of two design choices:
//!
//! * **candidate policy** — full `O(T²)` interval family vs length-bounded
//!   vs single slots. Single slots degenerate toward per-slot set cover
//!   (many restarts); the full family is what lets the algorithm merge awake
//!   intervals when restarts are expensive (the paper's key modeling point).
//! * **engine sharding** (E14c) — the same workload through the
//!   `sched-engine` worker pool at 1/2/4 workers; costs must not depend on
//!   the worker count.
//!
//! The greedy itself has one configuration (lazy, from upper bounds), so
//! there is no greedy-variant table; E2 reports the evaluations a full scan
//! per pick would make next to the lazy count.

use crate::table::{section, Table};
use rand::SeedableRng;
use sched_core::{count_candidates, enumerate_candidates, CandidatePolicy, Solver};
use sched_engine::{Engine, EngineConfig, SolveRequest};
use std::time::Instant;
use workloads::planted::PlantedCostModel;
use workloads::{planted_instance, PlantedConfig};

/// Runs E14 and prints its tables.
pub fn run(seed: u64, quick: bool) {
    section(&format!(
        "E14  ablation: candidate interval policies   [seed {seed}]"
    ));
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x14);
    let cfg = PlantedConfig {
        num_processors: 2,
        horizon: if quick { 20 } else { 40 },
        target_jobs: if quick { 16 } else { 40 },
        decoy_prob: 0.3,
        max_value: 1,
        // expensive restarts: interval merging matters
        cost_model: PlantedCostModel::Affine { restart: 8.0 },
        policy: CandidatePolicy::All,
    };
    let p = planted_instance(&cfg, &mut rng);

    let mut t = Table::new(&["policy", "#candidates", "cost", "vs All", "intervals", "ms"]);
    let mut all_cost = None;
    for (name, policy) in [
        ("All (T²)", CandidatePolicy::All),
        ("MaxLength(8)", CandidatePolicy::MaxLength(8)),
        ("MaxLength(3)", CandidatePolicy::MaxLength(3)),
        ("SingleSlots", CandidatePolicy::SingleSlots),
    ] {
        let (inst, cost) = (&p.instance, p.cost.as_ref());
        let n_cands = count_candidates(inst, cost, policy)
            .unwrap_or_else(|| enumerate_candidates(inst, cost, policy).len() as u64);
        let t0 = Instant::now();
        let s = Solver::new(policy)
            .schedule_all(inst, cost)
            .expect("planted instance feasible under every policy");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let base = *all_cost.get_or_insert(s.total_cost);
        t.row(vec![
            name.to_string(),
            n_cands.to_string(),
            format!("{:.2}", s.total_cost),
            format!("{:.2}x", s.total_cost / base),
            s.awake.len().to_string(),
            format!("{ms:.1}"),
        ]);
    }
    t.print();
    println!("  (restart cost 8: single-slot candidates pay one restart per job)");

    section("E14c  ablation: engine sharding (1/2/4 workers)");
    // The planted grid is shared by every request, so workers reuse their
    // solvers after their first request; the ablation isolates the sharding
    // itself.
    let batch = if quick { 16 } else { 48 };
    let requests: Vec<SolveRequest> = (0..batch)
        .map(|i| {
            SolveRequest::builder(i as u64, p.instance.clone())
                .affine(8.0, 1.0)
                .build()
        })
        .collect();
    let mut t3 = Table::new(&["workers", "cost (first req)", "req/s", "ms total"]);
    let mut baseline_cost = None;
    for workers in [1usize, 2, 4] {
        let engine = Engine::new(EngineConfig::with_workers(workers));
        let t0 = Instant::now();
        let responses = engine.solve_batch(requests.iter().cloned());
        let secs = t0.elapsed().as_secs_f64();
        let cost = responses[0]
            .schedule
            .as_ref()
            .expect("planted instance feasible")
            .total_cost;
        for r in &responses {
            assert!(r.ok, "engine request failed: {:?}", r.error);
            let c = r.schedule.as_ref().unwrap().total_cost;
            let base = *baseline_cost.get_or_insert(c);
            assert_eq!(
                c.to_bits(),
                base.to_bits(),
                "cost must not depend on worker count"
            );
        }
        t3.row(vec![
            workers.to_string(),
            format!("{cost:.2}"),
            format!("{:.0}", batch as f64 / secs),
            format!("{:.1}", secs * 1e3),
        ]);
    }
    t3.print();
    println!("  (bit-identical costs across worker counts — asserted above)");
}
