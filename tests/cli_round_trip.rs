//! End-to-end test of the `power-sched` binary: `generate → solve →
//! validate`, exercising the real argv parsing and the serde JSON files the
//! CLI reads and writes — the same path a shell user takes.

use power_scheduling::prelude::*;
use power_scheduling::scheduling::model::validate_schedule;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_power-sched"))
}

fn run_ok(cmd: &mut Command) -> Output {
    let out = cmd.output().expect("spawn power-sched");
    assert!(
        out.status.success(),
        "power-sched {:?} failed\nstdout: {}\nstderr: {}",
        cmd.get_args().collect::<Vec<_>>(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("power-sched-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn generate(dir: &Path, seed: u64, jobs: usize) -> PathBuf {
    let inst_path = dir.join("inst.json");
    run_ok(bin().args([
        "generate",
        "--seed",
        &seed.to_string(),
        "--processors",
        "2",
        "--horizon",
        "14",
        "--jobs",
        &jobs.to_string(),
        "--values",
        "4",
        "--out",
        inst_path.to_str().unwrap(),
    ]));
    inst_path
}

#[test]
fn generate_solve_validate_round_trip() {
    let dir = temp_dir("all");
    let inst_path = generate(&dir, 99, 10);
    let sched_path = dir.join("sched.json");

    let out = run_ok(bin().args([
        "solve",
        inst_path.to_str().unwrap(),
        "--restart",
        "3",
        "--rate",
        "1",
        "--out",
        sched_path.to_str().unwrap(),
    ]));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("scheduled"),
        "solve output missing summary: {stdout}"
    );

    // The validate subcommand must accept the files the CLI itself wrote.
    let out = run_ok(bin().args([
        "validate",
        inst_path.to_str().unwrap(),
        sched_path.to_str().unwrap(),
    ]));
    assert!(String::from_utf8_lossy(&out.stdout).contains("schedule is valid"));

    // Independent library-level check of the on-disk artifacts: parse both
    // files ourselves and re-validate — the CLI's word is not enough.
    let inst: Instance =
        serde_json::from_str(&std::fs::read_to_string(&inst_path).unwrap()).unwrap();
    let sched: Schedule =
        serde_json::from_str(&std::fs::read_to_string(&sched_path).unwrap()).unwrap();
    assert!(validate_schedule(&inst, &sched).is_empty());
    assert_eq!(sched.scheduled_count, inst.num_jobs(), "schedule-all mode");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn solve_with_target_reaches_prize_collecting_value() {
    let dir = temp_dir("target");
    let inst_path = generate(&dir, 7, 8);
    let sched_path = dir.join("sched.json");

    let inst: Instance =
        serde_json::from_str(&std::fs::read_to_string(&inst_path).unwrap()).unwrap();
    let target = 0.5 * inst.total_value();

    run_ok(bin().args([
        "solve",
        inst_path.to_str().unwrap(),
        "--target",
        &target.to_string(),
        "--out",
        sched_path.to_str().unwrap(),
    ]));
    run_ok(bin().args([
        "validate",
        inst_path.to_str().unwrap(),
        sched_path.to_str().unwrap(),
    ]));

    let sched: Schedule =
        serde_json::from_str(&std::fs::read_to_string(&sched_path).unwrap()).unwrap();
    assert!(
        sched.scheduled_value >= target - 1e-9,
        "value {} below requested target {target}",
        sched.scheduled_value
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn validate_rejects_corrupted_schedule() {
    let dir = temp_dir("corrupt");
    let inst_path = generate(&dir, 3, 6);
    let sched_path = dir.join("sched.json");
    run_ok(bin().args([
        "solve",
        inst_path.to_str().unwrap(),
        "--out",
        sched_path.to_str().unwrap(),
    ]));

    // Corrupt the recorded cost: validation must fail loudly.
    let mut sched: Schedule =
        serde_json::from_str(&std::fs::read_to_string(&sched_path).unwrap()).unwrap();
    sched.total_cost += 5.0;
    std::fs::write(&sched_path, serde_json::to_string(&sched).unwrap()).unwrap();

    let out = bin()
        .args([
            "validate",
            inst_path.to_str().unwrap(),
            sched_path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn power-sched");
    assert!(
        !out.status.success(),
        "validate accepted a corrupted schedule"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("CostMismatch"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_subcommand_exits_with_usage() {
    let out = bin().arg("frobnicate").output().expect("spawn power-sched");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn explain_marks_a_runner_up_that_is_still_a_bound() {
    // A cold solve keys most runs by upper bounds, so a pick's runner-up is
    // often a run never evaluated: `explain` must show that key as a bound
    // on the ratio, and every other runner-up as its ratio. This seed's
    // four picks have runner-ups of both kinds.
    let dir = temp_dir("explain");
    let inst_path = generate(&dir, 42, 8);
    let out = run_ok(bin().args([
        "explain",
        inst_path.to_str().unwrap(),
        "--restart",
        "3",
        "--rate",
        "1",
    ]));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let runner_ups: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_once("(runner-up ").map(|(_, r)| r))
        .collect();
    let bounds = runner_ups
        .iter()
        .filter(|r| r.contains(" (bound))"))
        .count();
    assert!(
        bounds > 0 && bounds < runner_ups.len(),
        "expected runner-ups of both kinds: {stdout}"
    );
    for r in &runner_ups {
        assert_eq!(
            r.contains("ratio ≤ "),
            r.contains(" (bound))"),
            "a bound must read as `ratio ≤ x (bound)`: {r}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explain_names_enumerated_candidates_not_subset_indices() {
    // One processor, horizon 4, jobs only at slots 1 and 3. The greedy runs
    // over one subset per distinct window — {1}, {1,3} and {3}, standing
    // for the candidate intervals [1,2), [1,4) and [3,4) — so its indices
    // are 0, 1 and 2. `explain` must name the intervals.
    let dir = temp_dir("explain-subsets");
    let inst_path = dir.join("inst.json");
    let inst = Instance::new(
        1,
        4,
        vec![
            Job::unit(vec![SlotRef::new(0, 3)]),
            Job::unit(vec![SlotRef::new(0, 1)]),
        ],
    );
    std::fs::write(&inst_path, serde_json::to_string(&inst).unwrap()).unwrap();
    let out = run_ok(bin().args([
        "explain",
        inst_path.to_str().unwrap(),
        "--restart",
        "3",
        "--rate",
        "1",
    ]));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let picks: Vec<&str> = stdout.lines().filter(|l| l.contains("pick ")).collect();
    assert_eq!(picks.len(), 1, "one pick covers both jobs: {stdout}");
    assert!(
        picks[0].contains("pick   0: p0 [1,4) gain 2.000 cost 6.000"),
        "the pick is p0 [1,4), not subset 1: {stdout}"
    );
    assert!(
        picks[0].contains("(runner-up p0 [1,2) ratio 0.250)"),
        "the runner-up is p0 [1,2), not subset 0: {stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
