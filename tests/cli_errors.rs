//! Regression tests for CLI error handling: malformed JSON and invalid
//! instances must produce structured errors — never a panic — with a
//! nonzero exit for `solve` and in-band error responses for `batch`.

use power_scheduling::engine::{ErrorKind, SolveResponse};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_power-sched"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("power-sched-errors-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn assert_clean_failure(out: &Output) {
    assert!(!out.status.success(), "expected a nonzero exit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error:"),
        "expected a structured error line, got: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "CLI must not panic on bad input: {stderr}"
    );
}

#[test]
fn solve_rejects_truncated_json_without_panicking() {
    let dir = temp_dir("truncated");
    let path = dir.join("trunc.json");
    // a real instance file chopped mid-string
    std::fs::write(&path, r#"{"num_processors":2,"horizon":8,"jobs":[{"va"#).unwrap();
    let out = bin()
        .args(["solve", path.to_str().unwrap()])
        .output()
        .expect("spawn solve");
    assert_clean_failure(&out);
    assert!(String::from_utf8_lossy(&out.stderr).contains("not a valid instance"));
}

#[test]
fn solve_into_a_pipe_closed_early_exits_quietly() {
    // `power-sched solve … | head -1`: the reader takes the first line and
    // closes the pipe. 4096 processors × 24 slots print about 130 KB of
    // timeline, more than the pipe buffer holds, so the solve is still
    // writing when the pipe closes.
    let dir = temp_dir("closed-pipe");
    let path = dir.join("wide.json");
    std::fs::write(
        &path,
        r#"{"num_processors":4096,"horizon":24,"jobs":[{"value":1,"allowed":[{"proc":0,"time":3}]},{"value":1,"allowed":[{"proc":1,"time":7}]}]}"#,
    )
    .unwrap();
    let mut child = bin()
        .args(["solve", path.to_str().unwrap(), "--policy", "single"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn solve");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("first line");
    // the reader was dropped with the statement above: the pipe is closed
    assert!(first.starts_with("scheduled 2/2 jobs"), "got: {first}");
    let out = child.wait_with_output().expect("solve exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "CLI must not panic: {stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(
        out.status.success(),
        "a closed pipe is not an error: {stderr}"
    );
    assert!(stderr.is_empty(), "nothing to report: {stderr}");
}

#[test]
fn solve_rejects_out_of_range_slots_without_panicking() {
    let dir = temp_dir("oob");
    let path = dir.join("oob.json");
    // parses fine, but job 0 points outside the grid — would panic deep in
    // the matching reduction if solved unchecked
    std::fs::write(
        &path,
        r#"{"num_processors":1,"horizon":2,"jobs":[{"value":1,"allowed":[{"proc":0,"time":9}]}]}"#,
    )
    .unwrap();
    let out = bin()
        .args(["solve", path.to_str().unwrap()])
        .output()
        .expect("spawn solve");
    assert_clean_failure(&out);
    assert!(String::from_utf8_lossy(&out.stderr).contains("out-of-range slot"));
}

#[test]
fn solve_rejects_non_positive_values_without_panicking() {
    let dir = temp_dir("negval");
    let path = dir.join("neg.json");
    std::fs::write(
        &path,
        r#"{"num_processors":1,"horizon":2,"jobs":[{"value":-1,"allowed":[]}]}"#,
    )
    .unwrap();
    let out = bin()
        .args(["solve", path.to_str().unwrap()])
        .output()
        .expect("spawn solve");
    assert_clean_failure(&out);
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid value"));
}

#[test]
fn hostile_numeric_flags_fail_cleanly_and_name_the_flag() {
    let dir = temp_dir("numeric-flags");
    let path = dir.join("inst.json");
    std::fs::write(
        &path,
        r#"{"num_processors":1,"horizon":4,"jobs":[{"value":1,"allowed":[{"proc":0,"time":1}]}]}"#,
    )
    .unwrap();
    let inst = path.to_str().unwrap();
    let out = dir.join("out.json");
    let out = out.to_str().unwrap();
    // (arguments, the flag stderr must name); the DVFS cases fail on the
    // flag before the ladder and schedule files are read
    let cases: [(&[&str], &str); 17] = [
        (&["solve", inst, "--restart", "-1"], "--restart"),
        (&["solve", inst, "--rate", "-1"], "--rate"),
        (&["solve", inst, "--restart", "nan"], "--restart"),
        (
            &["solve", inst, "--restart", "0", "--rate", "0"],
            "--restart",
        ),
        (&["solve", inst, "--rate", "x"], "--rate"),
        (&["solve", inst, "--target", "nan"], "--target"),
        (&["explain", inst, "--restart", "-1"], "--restart"),
        (&["explain", inst, "--target", "x"], "--target"),
        (
            &["generate", "--processors", "0", "--out", out],
            "--processors",
        ),
        (&["generate", "--horizon", "0", "--out", out], "--horizon"),
        (&["generate", "--seed", "x", "--out", out], "--seed"),
        (&["generate", "--jobs", "-3", "--out", out], "--jobs"),
        (&["generate", "--values", "x", "--out", out], "--values"),
        (
            &["generate", "--processors", "x", "--out", out],
            "--processors",
        ),
        (&["generate", "--horizon", "x", "--out", out], "--horizon"),
        (
            &[
                "solve",
                inst,
                "--freq-ladder",
                "none.json",
                "--restart",
                "x",
            ],
            "--restart",
        ),
        (
            &[
                "validate",
                inst,
                "none.json",
                "--freq-ladder",
                "none.json",
                "--restart",
                "x",
            ],
            "--restart",
        ),
    ];
    for (args, name) in cases {
        let run = bin().args(args).output().expect("spawn power-sched");
        assert_clean_failure(&run);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(
            stderr.contains(name),
            "{args:?}: stderr must name {name}: {stderr}"
        );
    }
}

/// `solve` and `explain` refuse a target of zero or below with exit 1,
/// as the engine refuses it with `BadRequest`: both go through one rule,
/// so no target is accepted on one entry point and rejected on another.
#[test]
fn non_positive_targets_fail_on_the_cli_as_in_the_engine() {
    use power_scheduling::engine::{Engine, EngineConfig, SolveRequest};
    use power_scheduling::prelude::{Instance, Job};

    let dir = temp_dir("targets");
    let path = dir.join("inst.json");
    let json =
        r#"{"num_processors":1,"horizon":4,"jobs":[{"value":1,"allowed":[{"proc":0,"time":1}]}]}"#;
    std::fs::write(&path, json).unwrap();
    let inst = path.to_str().unwrap();
    let engine = Engine::new(EngineConfig::with_workers(1));
    let targets = ["0", "-1", "-0", "inf", "nan"];
    for (id, target) in targets.into_iter().enumerate() {
        for cmd in ["solve", "explain"] {
            let run = bin()
                .args([cmd, inst, "--target", target])
                .output()
                .expect("spawn power-sched");
            assert_clean_failure(&run);
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert!(
                stderr.contains("--target must be finite and positive"),
                "{cmd} --target {target}: {stderr}"
            );
        }
        let req = SolveRequest::builder(
            id as u64,
            Instance::new(1, 4, vec![Job::window(1.0, 0, 1, 2)]),
        )
        .affine(3.0, 1.0)
        .prize_collecting_exact(target.parse().unwrap())
        .build();
        let resp = engine.submit(req).wait();
        assert_eq!(
            resp.error.map(|e| e.kind),
            Some(ErrorKind::BadRequest),
            "engine, target {target}"
        );
    }
    // and a positive target passes both
    let run = bin()
        .args(["solve", inst, "--target", "1"])
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
}

#[test]
fn replay_rejects_malformed_policy_suffixes_without_panicking() {
    // regression: every malformed --policy suffix must exit nonzero with a
    // parse message, never a panic — including suffixes that parse as the
    // right type but violate the policy's domain (resolve:0, hiring:2.0)
    for bad in ["hiring:x", "resolve:0", "resolve:x", "hiring:2.0", "bogus"] {
        let out = bin()
            .args([
                "replay", "--gen", "poisson", "--count", "1", "--seed", "1", "--policy", bad,
            ])
            .output()
            .expect("spawn replay");
        assert_clean_failure(&out);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("policy") || stderr.contains("period") || stderr.contains("fraction"),
            "--policy {bad}: error must name the bad input, got: {stderr}"
        );
    }
}

#[test]
fn replay_rejects_malformed_hetero_and_offline_flags() {
    for args in [
        vec!["replay", "--gen", "poisson", "--hetero", "x"],
        vec!["replay", "--gen", "poisson", "--offline", "sometimes"],
        vec!["replay", "--gen", "nosuchkind"],
    ] {
        let out = bin().args(&args).output().expect("spawn replay");
        assert_clean_failure(&out);
    }
}

#[test]
fn generate_hetero_without_profiles_out_writes_nothing() {
    // the flag pair is validated before any file I/O: a failed invocation
    // must not leave a stray instance file behind its nonzero exit
    let dir = temp_dir("hetero-noout");
    let inst = dir.join("inst.json");
    let out = bin()
        .args([
            "generate",
            "--seed",
            "5",
            "--processors",
            "3",
            "--hetero",
            "2",
            "--out",
            inst.to_str().unwrap(),
        ])
        .output()
        .expect("spawn generate");
    assert_clean_failure(&out);
    assert!(String::from_utf8_lossy(&out.stderr).contains("--profiles-out"));
    assert!(
        !inst.exists(),
        "failed generate must not leave a partial instance file"
    );
}

#[test]
fn solve_rejects_bad_profile_fleets_without_panicking() {
    let dir = temp_dir("profiles");
    let inst = dir.join("inst.json");
    std::fs::write(
        &inst,
        r#"{"num_processors":2,"horizon":4,"jobs":[{"value":1,"allowed":[{"proc":0,"time":1}]}]}"#,
    )
    .unwrap();

    // count mismatch: one profile for two processors
    let short = dir.join("short.json");
    std::fs::write(
        &short,
        r#"[{"wake_cost":3,"busy_rate":1,"sleep_states":[]}]"#,
    )
    .unwrap();
    let out = bin()
        .args([
            "solve",
            inst.to_str().unwrap(),
            "--profiles",
            short.to_str().unwrap(),
        ])
        .output()
        .expect("spawn solve");
    assert_clean_failure(&out);
    assert!(String::from_utf8_lossy(&out.stderr).contains("mismatch"));

    // non-monotone sleep ladder
    let ladder = dir.join("ladder.json");
    std::fs::write(
        &ladder,
        r#"[{"wake_cost":3,"busy_rate":1,"sleep_states":[{"idle_rate":0.2,"wake_cost":1},{"idle_rate":0.5,"wake_cost":2}]},{"wake_cost":3,"busy_rate":1,"sleep_states":[]}]"#,
    )
    .unwrap();
    let out = bin()
        .args([
            "solve",
            inst.to_str().unwrap(),
            "--profiles",
            ladder.to_str().unwrap(),
        ])
        .output()
        .expect("spawn solve");
    assert_clean_failure(&out);
    assert!(String::from_utf8_lossy(&out.stderr).contains("sleep state"));

    // a valid fleet must keep working through the same path
    let good = dir.join("good.json");
    std::fs::write(
        &good,
        r#"[{"wake_cost":3,"busy_rate":1,"sleep_states":[]},{"wake_cost":5,"busy_rate":2,"sleep_states":[]}]"#,
    )
    .unwrap();
    let out = bin()
        .args([
            "solve",
            inst.to_str().unwrap(),
            "--profiles",
            good.to_str().unwrap(),
        ])
        .output()
        .expect("spawn solve");
    assert!(
        out.status.success(),
        "valid profiles must solve: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn batch_turns_bad_lines_into_structured_responses() {
    let dir = temp_dir("batch");
    let input = dir.join("reqs.jsonl");
    let good = r#"{"version":1,"id":5,"mode":"ScheduleAll","instance":{"num_processors":1,"horizon":4,"jobs":[{"value":1,"allowed":[{"proc":0,"time":1}]}]},"restart":3,"rate":1}"#;
    let truncated = r#"{"version":1,"id":6,"mode":"ScheduleAll","inst"#;
    let bad_instance = r#"{"version":1,"id":7,"mode":"ScheduleAll","instance":{"num_processors":1,"horizon":2,"jobs":[{"value":1,"allowed":[{"proc":4,"time":0}]}]},"restart":3,"rate":1}"#;
    std::fs::write(&input, format!("{good}\n{truncated}\n{bad_instance}\n")).unwrap();

    let out = bin()
        .args(["batch", input.to_str().unwrap(), "--workers", "2"])
        .output()
        .expect("spawn batch");
    assert!(
        out.status.success(),
        "batch reports per-line errors in-band: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!String::from_utf8_lossy(&out.stderr).contains("panicked"));

    let responses: Vec<SolveResponse> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| serde_json::from_str(l).expect("each line is a SolveResponse"))
        .collect();
    assert_eq!(responses.len(), 3);

    assert!(responses[0].ok);
    assert_eq!(responses[0].id, 5);

    let parse_err = responses[1].error.as_ref().expect("truncated line fails");
    assert_eq!(parse_err.kind, ErrorKind::Parse);
    assert!(parse_err.message.contains("line 2"));

    let inst_err = responses[2].error.as_ref().expect("bad instance fails");
    assert_eq!(inst_err.kind, ErrorKind::InvalidInstance);
    assert_eq!(
        responses[2].id, 7,
        "id is still echoed for invalid instances"
    );
}

#[test]
fn failed_replay_still_flushes_metrics_out() {
    // A command that dies mid-run must leave its partial metrics snapshot
    // behind: that is the run whose numbers are most wanted. The second
    // trace here is invalid JSON, so replay fails after the registry is
    // installed — the flush must happen anyway.
    let dir = temp_dir("metrics-on-failure");
    let bad = dir.join("bad-trace.json");
    std::fs::write(&bad, "{not json").unwrap();
    let metrics = dir.join("metrics.json");
    let out = bin()
        .args([
            "replay",
            bad.to_str().unwrap(),
            "--policy",
            "resolve:1",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("spawn replay");
    assert_clean_failure(&out);
    let text =
        std::fs::read_to_string(&metrics).expect("metrics snapshot written despite the failed run");
    let snapshot =
        power_scheduling::obs::Snapshot::from_json(&text).expect("flushed file is obs/v1");
    assert_eq!(snapshot.schema, power_scheduling::obs::SCHEMA);
}

#[test]
fn metrics_rejects_malformed_snapshot_files_with_nonzero_exit() {
    let dir = temp_dir("metrics-bad");
    let path = dir.join("snap.json");
    std::fs::write(&path, r#"{"schema":"obs/v1","counters":[{"name":"x""#).unwrap();
    let out = bin()
        .args(["metrics", path.to_str().unwrap()])
        .output()
        .expect("spawn metrics");
    assert_clean_failure(&out);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("not an obs/v1 snapshot"),
        "parse failures must say what was wrong"
    );
}

#[test]
fn deeply_nested_json_fails_cleanly_instead_of_overflowing_the_stack() {
    // A megabyte of `[`: the parser refuses the nesting at the shared depth
    // limit instead of recursing until the stack overflows.
    let dir = temp_dir("deep");
    let path = dir.join("deep.json");
    std::fs::write(&path, "[".repeat(1 << 20)).unwrap();
    for verb in ["solve", "metrics"] {
        let out = bin()
            .args([verb, path.to_str().unwrap()])
            .output()
            .expect("spawn power-sched");
        assert_eq!(out.status.code(), Some(1), "{verb}: a clean error exit");
        assert_clean_failure(&out);
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("nesting deeper than 64"),
            "{verb}: the error names the limit"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
