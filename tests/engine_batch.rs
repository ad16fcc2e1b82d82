//! End-to-end tests of `power-sched batch`: mixed-mode JSONL workloads
//! through the real binary, checking that responses come back in input
//! order and that every cost is bit-identical to a direct sequential
//! `Solver` call — the engine's sharding must never change results.

use power_scheduling::engine::{SolveMode, SolveRequest, SolveResponse};
use power_scheduling::prelude::*;
use power_scheduling::workloads::planted::PlantedCostModel;
use power_scheduling::workloads::{planted_instance, PlantedConfig};
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::process::Command;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("power-sched-batch-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A deterministic mixed-mode workload over planted (feasible) instances,
/// cycling through solve modes, grids, and candidate policies.
fn mixed_requests(n: usize, seed: u64) -> Vec<SolveRequest> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let horizon = 8 + (i % 3) as u32 * 2;
            let planted = planted_instance(
                &PlantedConfig {
                    num_processors: 1 + (i % 2) as u32,
                    horizon,
                    target_jobs: 5 + i % 4,
                    decoy_prob: 0.25,
                    max_value: 3,
                    cost_model: PlantedCostModel::Affine { restart: 4.0 },
                    policy: CandidatePolicy::All,
                },
                &mut rng,
            );
            let inst = planted.instance;
            let total = inst.total_value();
            let mut builder = SolveRequest::builder(i as u64, inst).affine(4.0, 1.0);
            builder = match i % 3 {
                0 => builder,
                1 => builder
                    .prize_collecting((total * 0.5).max(1.0))
                    .epsilon(0.25),
                _ => builder.prize_collecting_exact((total * 0.4).max(1.0)),
            };
            if i % 5 == 0 {
                builder = builder.policy("maxlen:6");
            }
            builder.build()
        })
        .collect()
}

/// The candidate family `req` is solved over: every finite-cost interval
/// under its pricing and policy.
fn family(req: &SolveRequest) -> Vec<CandidateInterval> {
    let cost = AffineCost::new(req.restart, req.rate);
    let policy: CandidatePolicy = req
        .policy
        .as_deref()
        .unwrap_or("all")
        .parse()
        .expect("test policies are valid");
    enumerate_candidates(&req.instance, &cost, policy)
}

/// What the engine is specified to compute for `req`: the free function
/// of its goal over [`family`].
fn direct_solve(req: &SolveRequest) -> Result<Schedule, ScheduleError> {
    let family = family(req);
    let (inst, opts) = (&req.instance, &SolveOptions::default());
    match req.mode {
        SolveMode::ScheduleAll => schedule_all(inst, &family, opts),
        SolveMode::PrizeCollecting => prize_collecting(
            inst,
            &family,
            req.target.unwrap(),
            req.epsilon.unwrap_or(0.1),
            opts,
        ),
        SolveMode::PrizeCollectingExact => {
            prize_collecting_exact(inst, &family, req.target.unwrap(), opts)
        }
    }
}

fn run_batch(input: &Path, out: &Path, workers: u32) -> Vec<SolveResponse> {
    let output = Command::new(env!("CARGO_BIN_EXE_power-sched"))
        .args([
            "batch",
            input.to_str().unwrap(),
            "--workers",
            &workers.to_string(),
            "--out",
            out.to_str().unwrap(),
        ])
        .output()
        .expect("spawn power-sched batch");
    assert!(
        output.status.success(),
        "batch failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    std::fs::read_to_string(out)
        .expect("read responses")
        .lines()
        .map(|l| serde_json::from_str(l).expect("every output line is a SolveResponse"))
        .collect()
}

fn write_requests(dir: &Path, name: &str, requests: &[SolveRequest]) -> PathBuf {
    let path = dir.join(name);
    let body: String = requests
        .iter()
        .map(|r| serde_json::to_string(r).unwrap() + "\n")
        .collect();
    std::fs::write(&path, body).expect("write requests");
    path
}

#[test]
fn fifty_mixed_requests_in_order_matching_direct_solver_calls() {
    let dir = temp_dir("fifty");
    let requests = mixed_requests(50, 0xBA7C4);
    let input = write_requests(&dir, "reqs.jsonl", &requests);
    let responses = run_batch(&input, &dir.join("resp.jsonl"), 4);

    assert_eq!(responses.len(), 50);
    for (req, resp) in requests.iter().zip(&responses) {
        assert_eq!(resp.id, req.id, "responses must arrive in input order");
        match direct_solve(req) {
            Ok(direct) => {
                assert!(
                    resp.ok,
                    "request {} unexpectedly failed: {:?}",
                    req.id, resp.error
                );
                let got = resp.schedule.as_ref().unwrap();
                assert_eq!(
                    got.total_cost.to_bits(),
                    direct.total_cost.to_bits(),
                    "request {}: engine cost {} != direct cost {}",
                    req.id,
                    got.total_cost,
                    direct.total_cost
                );
                assert_eq!(got.scheduled_count, direct.scheduled_count);
                assert_eq!(got.awake, direct.awake, "request {}", req.id);
                assert_eq!(got.assignments, direct.assignments, "request {}", req.id);
            }
            Err(_) => assert!(
                !resp.ok,
                "request {} must fail like the direct call",
                req.id
            ),
        }
        let metrics = resp.metrics.expect("success responses carry metrics");
        assert!(u64::from(metrics.worker) < 4);
        assert_eq!(metrics.candidates, family(req).len() as u64);
    }
}

/// The acceptance workload: 200 mixed-mode requests; 1-worker and 4-worker
/// runs must produce bit-identical costs, both equal to sequential solves.
#[test]
fn two_hundred_requests_bit_identical_across_worker_counts() {
    let dir = temp_dir("acceptance");
    let requests = mixed_requests(200, 0xACCE5);
    let input = write_requests(&dir, "reqs.jsonl", &requests);

    let one = run_batch(&input, &dir.join("resp1.jsonl"), 1);
    let four = run_batch(&input, &dir.join("resp4.jsonl"), 4);
    assert_eq!(one.len(), 200);
    assert_eq!(four.len(), 200);

    for ((req, r1), r4) in requests.iter().zip(&one).zip(&four) {
        assert_eq!(r1.id, req.id);
        assert_eq!(r4.id, req.id);
        assert_eq!(
            r1.ok, r4.ok,
            "request {}: ok diverged across worker counts",
            req.id
        );
        if let (Some(s1), Some(s4)) = (&r1.schedule, &r4.schedule) {
            assert_eq!(
                s1.total_cost.to_bits(),
                s4.total_cost.to_bits(),
                "request {}: cost diverged across worker counts",
                req.id
            );
            let direct = direct_solve(req).expect("solvable in the 1-worker run");
            assert_eq!(s1.total_cost.to_bits(), direct.total_cost.to_bits());
        }
    }
}

#[test]
fn batch_reads_stdin_and_reports_parallel_option_requests() {
    use std::io::Write;
    let requests = mixed_requests(6, 0x57D1);
    let mut child = Command::new(env!("CARGO_BIN_EXE_power-sched"))
        .args(["batch", "-", "--workers", "2"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn power-sched batch -");
    {
        // every line carries the retired solver toggles, which the engine
        // accepts and ignores
        let stdin = child.stdin.as_mut().unwrap();
        for r in &requests {
            let json = serde_json::to_string(r).unwrap();
            let body = json.strip_suffix('}').unwrap();
            writeln!(stdin, "{body},\"lazy\":false,\"parallel\":true}}").unwrap();
        }
    }
    let output = child.wait_with_output().expect("batch over stdin");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    let responses: Vec<SolveResponse> = stdout
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(responses.len(), 6);
    for (req, resp) in requests.iter().zip(&responses) {
        assert!(resp.ok, "{:?}", resp.error);
        let direct = direct_solve(req).unwrap();
        assert_eq!(
            resp.schedule.as_ref().unwrap().total_cost.to_bits(),
            direct.total_cost.to_bits(),
            "the retired toggles must not change results"
        );
    }
}

/// Every DVFS request is served as `solve_dvfs` solves its instance:
/// seeded `dvfs_instance`s of the default shape and of the n64/p4/t32 one,
/// some made infeasible, through a two-worker engine. Each response is
/// `solve_dvfs` followed by `DvfsSchedule::to_physical`, field for field
/// and cost bits included, and an infeasible one carries `solve_dvfs`'s
/// error, worded in the request's own jobs.
#[test]
fn dvfs_requests_match_solve_dvfs_field_for_field() {
    use power_scheduling::workloads::{dvfs_instance, DvfsConfig};
    let configs = [
        DvfsConfig::default(),
        DvfsConfig {
            num_processors: 4,
            horizon: 32,
            target_jobs: 64,
            ..DvfsConfig::default()
        },
    ];
    let mut rng = rand::rngs::StdRng::seed_from_u64(27);
    let instances: Vec<DvfsInstance> = (0..60)
        .map(|k| {
            let mut d = dvfs_instance(&configs[k % 2], &mut rng);
            if k % 10 == 7 {
                // more work than every lane of every level of its slots
                let job = &mut d.jobs[0];
                let lanes: u32 = d.ladder.freqs.iter().sum();
                job.work = Some(lanes * job.allowed.len() as u32 + 1);
            }
            d
        })
        .collect();
    let requests: Vec<SolveRequest> = instances
        .iter()
        .enumerate()
        .map(|(id, d)| {
            let inst = Instance::new(d.num_processors, d.horizon, d.jobs.clone());
            SolveRequest::builder(id as u64, inst)
                .affine(d.wake_cost, 1.0)
                .freq_ladder(d.ladder.clone())
                .build()
        })
        .collect();
    let engine = Engine::new(EngineConfig::with_workers(2));
    let responses = engine.solve_batch(requests);
    let mut infeasible = 0;
    for (d, resp) in instances.iter().zip(&responses) {
        match solve_dvfs(d) {
            Ok(direct) => {
                assert!(resp.ok, "request {}: {:?}", resp.id, resp.error);
                let (want, levels) = direct.to_physical();
                let got = resp.schedule.as_ref().expect("schedule");
                assert_eq!(got.awake, want.awake, "request {}", resp.id);
                assert_eq!(got.assignments, want.assignments);
                assert_eq!(got.total_cost.to_bits(), want.total_cost.to_bits());
                assert_eq!(
                    got.scheduled_value.to_bits(),
                    want.scheduled_value.to_bits()
                );
                assert_eq!(got.scheduled_count, want.scheduled_count);
                assert_eq!(resp.freq_levels.as_ref(), Some(&levels));
                let metrics = resp.metrics.expect("metrics");
                let compiled = d.compile().expect("compiles");
                assert_eq!(metrics.candidates, compiled.candidates.len() as u64);
                assert!(!metrics.cache_hit, "a DVFS request reuses nothing");
            }
            Err(e) => {
                infeasible += 1;
                let error = resp.error.as_ref().expect("an error response");
                assert_eq!(error.kind, power_scheduling::engine::ErrorKind::Infeasible);
                assert_eq!(error.message, e.to_string());
                assert!(resp.schedule.is_none() && resp.freq_levels.is_none());
            }
        }
    }
    assert_eq!(infeasible, 6, "every planted overload is infeasible");
}

/// A `power-sched serve` on an ephemeral port, killed on drop.
struct Server {
    child: std::process::Child,
    addr: String,
}

impl Server {
    fn spawn() -> Self {
        use std::io::BufRead;
        let mut child = Command::new(env!("CARGO_BIN_EXE_power-sched"))
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn power-sched serve");
        let mut banner = String::new();
        std::io::BufReader::new(child.stdout.as_mut().expect("piped stdout"))
            .read_line(&mut banner)
            .expect("read listen banner");
        assert!(banner.contains("listening on"), "banner: {banner}");
        let addr = banner.trim().rsplit(' ').next().unwrap().to_string();
        Self { child, addr }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Finite prices and values can sum past `f64::MAX`, and JSON cannot
/// write the infinite total. Each such request is answered alone with a
/// `BadRequest` that keeps its id and trace id, and the rest of the batch
/// is still answered: locally and over both transports, one line per
/// request and exit 0.
#[test]
fn an_unwritable_schedule_fails_alone_on_every_transport() {
    let split = || {
        Instance::new(
            2,
            2,
            vec![
                Job::unit(vec![SlotRef::new(0, 0)]),
                Job::unit(vec![SlotRef::new(1, 1)]),
            ],
        )
    };
    let huge_values = Instance::new(
        1,
        4,
        (0..2)
            .map(|t| Job {
                value: 1e308,
                allowed: vec![SlotRef::new(0, t)],
                work: None,
            })
            .collect(),
    );
    let plain = Instance::new(1, 4, vec![Job::unit(vec![SlotRef::new(0, 1)])]);
    let requests = vec![
        // two wakes at 1e308 each: the total overflows
        SolveRequest::builder(7, split())
            .affine(1e308, 0.0)
            .trace_id("overflow-7")
            .build(),
        SolveRequest::builder(8, plain).affine(3.0, 1.0).build(),
        // two values of 1e308: scheduled_value overflows
        SolveRequest::builder(9, huge_values)
            .affine(3.0, 1.0)
            .build(),
        // the DVFS path: one slot at level 0 costs 1e308
        SolveRequest::builder(10, split())
            .affine(0.0, 1.0)
            .freq_ladder(FreqLadder::new(1e308, 0.0, 1.0, vec![1]))
            .build(),
    ];
    let dir = temp_dir("unwritable");
    let input = write_requests(&dir, "requests.jsonl", &requests);
    let server = Server::spawn();
    let transports: [&[&str]; 3] = [
        &[],
        &["--connect", &server.addr, "--format", "jsonl"],
        &["--connect", &server.addr],
    ];
    for (k, extra) in transports.iter().enumerate() {
        let out = dir.join(format!("responses-{k}.jsonl"));
        let output = Command::new(env!("CARGO_BIN_EXE_power-sched"))
            .args([
                "batch",
                input.to_str().unwrap(),
                "--out",
                out.to_str().unwrap(),
            ])
            .args(*extra)
            .output()
            .expect("spawn power-sched batch");
        assert!(
            output.status.success(),
            "batch {extra:?} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let responses: Vec<SolveResponse> = std::fs::read_to_string(&out)
            .expect("responses written")
            .lines()
            .map(|l| serde_json::from_str(l).expect("every line is a SolveResponse"))
            .collect();
        let ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
        assert_eq!(ids, [7, 8, 9, 10], "{extra:?}");
        for r in &responses {
            if r.id == 8 {
                assert!(r.ok, "{extra:?}: {:?}", r.error);
                continue;
            }
            let error = r.error.as_ref().expect("an error response");
            assert_eq!(
                error.kind,
                power_scheduling::engine::ErrorKind::BadRequest,
                "{extra:?} request {}: {}",
                r.id,
                error.message
            );
            assert!(error.message.contains("not finite"), "{}", error.message);
            assert!(r.schedule.is_none());
        }
        assert_eq!(responses[0].trace_id.as_deref(), Some("overflow-7"));
        assert_eq!(responses[2].trace_id.as_deref(), Some("req-9"));
    }
}
