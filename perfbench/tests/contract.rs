//! The benchmark's own contract: the metric names it prints are the ones
//! `BENCHMARK.json` declares, the policy timing wrapper is transparent, and
//! every workload passes its correctness checks on a tiny configuration, on
//! two seeds.

use perfbench::catalog::{self, MetricSpec};
use perfbench::config::Config;
use perfbench::online_replay::TimedPolicy;
use perfbench::{run, RunArgs};
use sched_sim::{Policy, ResolveStats, SlotDecision, SlotView};
use serde::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn str_field<'v>(v: &'v Value, name: &str) -> &'v str {
    match v.field(name).expect(name) {
        Value::Str(s) => s,
        other => panic!("{name} is not a string: {other:?}"),
    }
}

fn declared(kind: &str) -> Vec<(String, String, String)> {
    let Value::Array(items) = benchmark_json().field(kind).expect(kind).clone() else {
        panic!("{kind} is not an array")
    };
    items
        .iter()
        .map(|m| {
            (
                str_field(m, "name").to_string(),
                str_field(m, "unit").to_string(),
                str_field(m, "better").to_string(),
            )
        })
        .collect()
}

fn catalog_rows(specs: &[MetricSpec]) -> Vec<(String, String, String)> {
    specs
        .iter()
        .map(|s| {
            (
                s.name.clone(),
                s.unit.to_string(),
                s.better.as_str().to_string(),
            )
        })
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json_exactly() {
    assert_eq!(declared("end_to_end"), catalog_rows(&catalog::end_to_end()));
    assert_eq!(declared("per_layer"), catalog_rows(&catalog::per_layer()));
    let Value::Array(workloads) = benchmark_json().field("workloads").unwrap().clone() else {
        panic!()
    };
    let names: Vec<&str> = workloads.iter().map(|w| str_field(w, "name")).collect();
    assert_eq!(names, catalog::WORKLOADS);
}

/// Counts one event every other call and reports fixed re-solve stats.
struct Fake {
    calls: u64,
}

impl Policy for Fake {
    fn name(&self) -> String {
        "fake".into()
    }
    fn decide(&mut self, _view: &SlotView<'_>) -> SlotDecision {
        self.calls += 1;
        SlotDecision::default()
    }
    fn events(&self) -> u64 {
        self.calls / 2
    }
    fn resolve_stats(&self) -> Option<ResolveStats> {
        Some(ResolveStats {
            warm: 3,
            cold: 1,
            count: 4,
            total_ns: 40,
            p50_ns: 9,
            p99_ns: 12,
        })
    }
}

#[test]
fn timed_policy_forwards_events_and_resolve_stats() {
    let trace = sched_core::trace::ArrivalTrace {
        name: "empty".into(),
        num_processors: 1,
        horizon: 5,
        restart: 1.0,
        rate: 1.0,
        jobs: Vec::new(),
        profiles: None,
        freq_ladder: None,
    };
    let mut timed = TimedPolicy::new(Box::new(Fake { calls: 0 }));
    let out = sched_sim::replay(&trace, &mut timed).expect("empty trace replays");
    // five decide calls; events advance on calls 2 and 4
    assert_eq!(timed.events(), 2);
    assert_eq!(out.events, 2);
    assert_eq!(timed.resolve_ns.len(), 2);
    assert_eq!(timed.plain_ns.len(), 3);
    assert_eq!(timed.name(), "fake");
    assert_eq!(timed.resolve_stats().map(|s| s.warm), Some(3));
    assert_eq!(out.resolve_stats.map(|s| s.count), Some(4));
}

/// The committed shapes scaled down so each workload finishes in a second
/// or two yet still measures 1,000 distinct operations three times each.
fn tiny() -> Config {
    let mut cfg = Config::committed();
    cfg.setup_repeats = 2;
    let o = &mut cfg.offline_solve;
    o.pool_per_class = 340;
    for shape in [&mut o.affine, &mut o.hetero, &mut o.dvfs] {
        shape.processors = 2;
        shape.horizon = 8;
        shape.jobs = 6;
    }
    let e = &mut cfg.engine_diurnal;
    e.low_rps = 1000.0;
    e.high_rps = 1600.0;
    e.cycles_per_pass = 1;
    e.warmup_requests = 50;
    e.sample_every = 10;
    let r = &mut cfg.online_replay;
    r.traces_per_kind = 8;
    r.processors = 2;
    r.horizon = 128;
    r.jobs = 32;
    r.lead = 12;
    cfg
}

/// The default seed, and one held out while the benchmark was written.
const SEEDS: [u64; 2] = [1, 7919];

fn smoke(workload: &str, seconds: f64) {
    let cfg = tiny();
    for seed in SEEDS {
        for trace in [false, true] {
            let args = RunArgs {
                workload: workload.into(),
                seed,
                seconds,
                trace,
            };
            let out = run(&args, &cfg);
            let specs = if trace {
                catalog::per_layer()
            } else {
                catalog::end_to_end()
            };
            assert!(
                out.correct(),
                "{workload} seed {seed} trace {trace}:\n{}",
                out.table(workload, &specs)
            );
            let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
            let want: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
            assert_eq!(names, want);
            let line = out.json_line(&specs);
            assert!(line.starts_with("{\"correct\":true,"), "{line}");
        }
    }
}

#[test]
fn offline_solve_smoke() {
    smoke("offline_solve", 1.0);
}

#[test]
fn offline_layer_spans_cover_the_committed_shapes() {
    let args = RunArgs {
        workload: "offline_solve".into(),
        seed: 3,
        seconds: 0.4,
        trace: true,
    };
    let out = run(&args, &Config::committed());
    assert_eq!(out.failed, 0, "{:?}", out.problems);
    for class in catalog::CLASSES {
        let share = out.get(&format!("unattributed.share.{class}")).unwrap();
        assert!((0.0..=0.10).contains(&share), "{class}: {share}");
    }
}

#[test]
fn engine_diurnal_smoke() {
    smoke("engine_diurnal", 3.0);
}

#[test]
fn online_replay_smoke() {
    smoke("online_replay", 2.0);
}
