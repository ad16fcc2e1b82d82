//! End-to-end tests of `power-sched replay`'s one replay path: every mode
//! runs the traces through `replay_fleet`, so metrics see every re-solve,
//! `--trace-out` keeps each trace's events apart at any worker count, and
//! neither `--verbose` nor `--workers` changes a report.

use power_scheduling::obs::Snapshot;
use power_scheduling::prelude::ReplayReport;
use std::path::PathBuf;
use std::process::Command;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("power-sched-replay-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Runs `power-sched replay ARGS` and returns its reports and stderr.
fn replay(args: &[&str]) -> (Vec<ReplayReport>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_power-sched"))
        .arg("replay")
        .args(args)
        .output()
        .expect("spawn power-sched replay");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "replay {args:?} failed: {stderr}");
    let reports = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| serde_json::from_str(l).expect("every stdout line is a ReplayReport"))
        .collect();
    (reports, stderr)
}

/// A report as JSON with the re-solve wall times zeroed: everything else
/// is a deterministic function of the trace and the policy.
fn untimed(r: &ReplayReport) -> String {
    let mut r = r.clone();
    if let Some(rs) = &mut r.resolve_stats {
        rs.total_ns = 0;
        rs.p50_ns = 0;
        rs.p99_ns = 0;
    }
    serde_json::to_string(&r).unwrap()
}

const GEN: [&str; 5] = ["--gen", "--count", "4", "--seed", "7"];

#[test]
fn cold_resolve_metrics_hold_every_re_solve_and_reference() {
    let dir = temp_dir("metrics");
    let path = dir.join("metrics.json");
    let mut args = GEN.to_vec();
    args.extend([
        "--policy",
        "resolve",
        "--metrics-out",
        path.to_str().unwrap(),
    ]);
    let (reports, _) = replay(&args);
    let text = std::fs::read_to_string(&path).expect("metrics written");
    let snapshot = Snapshot::from_json(&text).expect("an obs/v1 snapshot");
    let count = |name: &str| {
        snapshot
            .histograms
            .iter()
            .find(|h| h.name == name)
            .map_or(0, |h| h.count)
    };
    let resolves: u64 = reports.iter().map(|r| r.events).sum();
    assert_eq!(count("sim.resolve.latency_ns"), resolves);
    // Default-size traces are past exact search, so each trace's offline
    // reference is one more greedy solve.
    assert!(reports.iter().all(|r| r.offline_ref == "greedy"));
    assert_eq!(
        count("core.solve.schedule_all_ns"),
        resolves + reports.len() as u64,
        "one solver span per re-solve plus one per reference"
    );
}

/// The fields of a `trace/v1` line the test reads.
#[derive(serde::Deserialize)]
struct Event {
    name: String,
    trace_id: String,
}

#[test]
fn trace_out_stamps_each_trace_with_its_own_id_at_two_workers() {
    let dir = temp_dir("trace-ids");
    let path = dir.join("trace.jsonl");
    let mut args = GEN.to_vec();
    args.extend(["--policy", "resolve:2", "--workers", "2"]);
    args.extend(["--trace-out", path.to_str().unwrap()]);
    let (reports, _) = replay(&args);
    let events: Vec<Event> = std::fs::read_to_string(&path)
        .expect("trace written")
        .lines()
        .map(|l| serde_json::from_str(l).expect("a trace/v1 line"))
        .collect();
    let ids: Vec<String> = reports
        .iter()
        .map(|r| format!("replay-{}", r.trace))
        .collect();
    assert!(
        events.iter().all(|e| ids.contains(&e.trace_id)),
        "every event carries one of {ids:?}"
    );
    for (r, id) in reports.iter().zip(&ids) {
        let count = |name: &str| {
            events
                .iter()
                .filter(|e| e.name == name && e.trace_id == *id)
                .count()
        };
        // 24 slots per generated trace, one decision each
        assert_eq!(count("sim.slot.decision"), 24, "{id}");
        assert_eq!(count("sim.policy.resolve") as u64, r.events, "{id}");
    }
}

#[test]
fn verbose_and_four_workers_report_as_the_default_run() {
    for policy in ["resolve", "resolve:1:warm", "hiring"] {
        let mut args = GEN.to_vec();
        args.extend(["--policy", policy]);
        let (base, _) = replay(&args);
        let base: Vec<String> = base.iter().map(untimed).collect();
        for extra in [
            &["--verbose"][..],
            &["--workers", "4"],
            &["--workers", "4", "--verbose"],
        ] {
            let mut args = args.clone();
            args.extend(extra);
            let (reports, stderr) = replay(&args);
            let reports: Vec<String> = reports.iter().map(untimed).collect();
            assert_eq!(reports, base, "{policy} {extra:?}");
            if extra.contains(&"--verbose") {
                // narration comes in input order, one header per trace
                let headers: Vec<&str> = stderr
                    .lines()
                    .filter(|l| l.ends_with("]:"))
                    .map(|l| l.split(' ').next().unwrap())
                    .collect();
                let names: Vec<String> = base
                    .iter()
                    .map(|r| serde_json::from_str::<ReplayReport>(r).unwrap().trace)
                    .collect();
                assert_eq!(headers, names, "{policy} {extra:?}");
            }
        }
    }
}
