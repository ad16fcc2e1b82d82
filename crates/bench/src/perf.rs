//! The workspace's one timing harness, behind `perf_harness` — the repo's
//! performance trajectory and its CI perf gate.
//!
//! Runs pinned, deterministic workloads through the three hot paths
//! (direct solve, engine requests in-process and over TCP, online replay)
//! and emits a stable JSON report (`BENCH_solver.json`, schema
//! `bench-solver/v3`):
//!
//! ```json
//! {
//!   "schema": "bench-solver/v3",
//!   "rounds": 7,
//!   "workloads": [
//!     {"name": "solve_schedule_all_n64_p4_t32", "variant": "fast",
//!      "ops": 20, "ns_per_op": 450000.0, "ops_per_sec": 2200.0,
//!      "peak_candidates": 2112},
//!     ...
//!   ],
//!   "ratios": [{"workload": "solve_schedule_all_n64_p4_t32",
//!               "variant": "fast", "baseline": "naive", "ratio": 2.3}, ...]
//! }
//! ```
//!
//! * A pair times the same operations two ways, one row per `variant`:
//!   `fast`/`naive` (the production solve path against the seed
//!   implementation retained in `sched_core::naive`, proven bit-identical
//!   by the equivalence proptests), `warm`/`cold` re-solves, `off`/`on`
//!   (a solve with no ambient registry or tracer installed, and with one),
//!   `binary`/`jsonl` (the same pipelined requests sent to one in-process
//!   `serve` over v3 binary frames and over JSONL lines), or
//!   `stream`/`tree` (n64 requests and their responses through the binary
//!   codec: streamed encoding and typed decoding, against the value-tree
//!   path it replaced, asserted byte- and value-equal before timing).
//!   The in-process engine and replay workloads have no twin; their rows
//!   read `n/a`.
//! * `ops_per_sec` is the headline throughput (solves, requests, re-solves,
//!   traces or codec round trips per second); `ns_per_op` its inverse; `peak_candidates` the
//!   largest candidate family any solve in the workload optimized over.
//! * A ratio is `variant.ops_per_sec / baseline.ops_per_sec` within a
//!   pair. `fast`/`naive`, `warm`/`cold`, `binary`/`jsonl` and
//!   `stream`/`tree` record one, a speedup. `off`/`on` pairs sit near parity and record both
//!   directions: `on`/`off` falls when recording gets costlier, `off`/`on`
//!   when the bare path does.
//!
//! Timing is best-of-[`ROUNDS`] wall clock over whole workload passes, so
//! one noisy scheduler tick cannot poison a row. Every run takes the same
//! rounds, so a CI gate's best-of is as noisy as its baseline's.
//! `--baseline FILE` compares a fresh run against a committed report and
//! fails when any ratio (or, without `--relative-only`, any row's
//! throughput) falls more than the tolerance below it — the CI perf gate.

use std::hint::black_box;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Instant;

use rand::SeedableRng;
use sched_core::naive::naive_schedule_all;
use sched_core::{
    enumerate_candidates, schedule_all, solve_dvfs, solve_dvfs_naive, ArrivalTrace,
    CandidateInterval, CandidatePolicy, Instance, PowerProfile, ProfileCost, SolveOptions,
};
use sched_engine::codec::{self, WireFormat};
use sched_engine::protocol::{parse_value, SolveResponse, WireRequest};
use sched_engine::{serve, Engine, EngineClient, EngineConfig, SolveRequest, Transport};
use sched_obs::trace::Tracer;
use sched_obs::Registry;
use sched_sim::{replay, replay_fleet, FleetOptions, OfflineRef, PolicyKind};
use serde::{Deserialize, Serialize};
use workloads::planted::PlantedCostModel;
use workloads::{
    dvfs_instance, generate_trace, planted_instance, ArrivalConfig, DvfsConfig, PlantedConfig,
    PlantedInstance, TraceKind,
};

use crate::Table;

/// Report schema identifier; bump when the JSON layout changes.
pub const SCHEMA: &str = "bench-solver/v3";

/// Timed passes per variant; a row keeps its best.
pub const ROUNDS: u32 = 7;

/// One measured workload row.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Workload identifier (stable across runs).
    pub name: String,
    /// The side of its pair the row times (`fast`/`naive`, `warm`/`cold`,
    /// `off`/`on`, `binary`/`jsonl`, `stream`/`tree`), or `n/a` for a
    /// workload without a twin.
    pub variant: String,
    /// Operations (solves / requests / re-solves / traces / codec round
    /// trips) per timed pass.
    pub ops: u64,
    /// Nanoseconds per operation (best pass).
    pub ns_per_op: f64,
    /// Operations per second (best pass).
    pub ops_per_sec: f64,
    /// Largest candidate family any solve optimized over.
    pub peak_candidates: u64,
}

/// One gated throughput ratio between the two rows of a pair.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Ratio {
    /// Workload the pair belongs to.
    pub workload: String,
    /// Variant of the numerator row.
    pub variant: String,
    /// Variant of the denominator row.
    pub baseline: String,
    /// `variant.ops_per_sec / baseline.ops_per_sec`.
    pub ratio: f64,
}

/// The full report (`BENCH_solver.json`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PerfReport {
    /// Always [`SCHEMA`].
    pub schema: String,
    /// Timed passes per variant ([`ROUNDS`]); a gate compares only reports
    /// that took the same number.
    pub rounds: u32,
    /// Measured rows.
    pub workloads: Vec<WorkloadResult>,
    /// Ratios within pairs; these are what `--relative-only` gates.
    pub ratios: Vec<Ratio>,
}

/// Solves per timed pass of every solve pair.
const SOLVES: u64 = 20;

const SOLVES_OK: &str = "pinned shape solves";

/// One timed pass: runs a workload's operations once and returns the
/// nanoseconds they took.
type Pass<'a> = Box<dyn FnMut() -> u64 + 'a>;

/// One pinned workload of the table [`run`] measures.
struct Workload<'a> {
    name: String,
    /// Operations per pass.
    ops: u64,
    peak_candidates: u64,
    /// One labelled pass per variant: two for a pair, whose first-over-
    /// second ratio is gated, or one for a workload without a twin.
    variants: Vec<(&'static str, Pass<'a>)>,
    /// Gate second over first as well: set on pairs expected near parity,
    /// so that either side getting costlier fails.
    both_ways: bool,
}

/// Nanoseconds one call of `pass` takes.
fn time(pass: impl FnOnce()) -> u64 {
    let t0 = Instant::now();
    pass();
    t0.elapsed().as_nanos() as u64
}

/// A pass of [`SOLVES`] back-to-back calls of `solve`.
fn solves<'a, T>(mut solve: impl FnMut() -> T + 'a) -> Pass<'a> {
    Box::new(move || {
        time(|| {
            for _ in 0..SOLVES {
                black_box(solve());
            }
        })
    })
}

/// Awake intervals a `p`-processor, `t`-slot instance can choose from.
fn all_intervals(p: u32, t: u32) -> u64 {
    let t = t as u64;
    p as u64 * t * (t + 1) / 2
}

/// The pinned planted shape every classical solve workload draws from.
fn planted(n: usize, p: u32, t: u32) -> PlantedInstance {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    planted_instance(
        &PlantedConfig {
            num_processors: p,
            horizon: t,
            target_jobs: n,
            decoy_prob: 0.3,
            max_value: 1,
            cost_model: PlantedCostModel::Affine { restart: 3.0 },
            policy: CandidatePolicy::All,
        },
        &mut rng,
    )
}

/// A `fast`/`naive` pair of schedule-all solves over one instance.
fn solve_pair<'a>(
    name: String,
    inst: &'a Instance,
    cands: &'a [CandidateInterval],
) -> Workload<'a> {
    let opts = SolveOptions::default();
    Workload {
        name,
        ops: SOLVES,
        peak_candidates: cands.len() as u64,
        variants: vec![
            (
                "fast",
                solves(move || schedule_all(inst, cands, &opts).expect(SOLVES_OK)),
            ),
            (
                "naive",
                solves(move || naive_schedule_all(inst, cands, &opts).expect(SOLVES_OK)),
            ),
        ],
        both_ways: false,
    }
}

/// An `off`/`on` pair of `solve` passes, gated both ways: `off` runs with
/// nothing installed, `on` between `install(true)` and `install(false)`.
fn overhead_pair<'a, T>(
    name: String,
    peak_candidates: u64,
    solve: impl FnMut() -> T + Copy + 'a,
    mut install: impl FnMut(bool) + 'a,
) -> Workload<'a> {
    let mut on = solves(solve);
    Workload {
        name,
        ops: SOLVES,
        peak_candidates,
        variants: vec![
            ("off", solves(solve)),
            (
                "on",
                Box::new(move || {
                    install(true);
                    let ns = on();
                    install(false);
                    ns
                }),
            ),
        ],
        both_ways: true,
    }
}

/// One pass of a warm or cold `PeriodicResolve` replay: `(re-solves,
/// their summed nanoseconds, total cost bits)`.
fn resolve_pass(trace: &ArrivalTrace, period: u32, warm: bool) -> (u64, u64, u64) {
    let mut policy = PolicyKind::Resolve { period, warm }.build(None);
    let out = replay(trace, policy.as_mut()).expect("pinned trace replays");
    let rs = out
        .resolve_stats
        .expect("resolve policy reports per-re-solve timing");
    (rs.count, rs.total_ns, out.schedule.total_cost.to_bits())
}

/// Re-solves a warm-vs-cold pass times at least: it replays its trace until
/// it holds this many, so a short replay's tick-sized noise averages out.
const RESOLVES_PER_PASS: u64 = 256;

/// The timed side of a warm-vs-cold pair: `replays` replays' re-solve
/// nanoseconds, after checking that each reproduced the `pinned` re-solve
/// count and cost bits.
fn resolve_variant(
    trace: &ArrivalTrace,
    period: u32,
    warm: bool,
    pinned: (u64, u64),
    replays: u64,
) -> Pass<'_> {
    Box::new(move || {
        (0..replays)
            .map(|_| {
                let (count, ns, bits) = resolve_pass(trace, period, warm);
                assert_eq!(
                    (count, bits),
                    pinned,
                    "k={period} replay (warm: {warm}) diverged from the cold replay"
                );
                ns
            })
            .sum()
    })
}

/// Round trips per pass of the codec pair.
const CODEC_OPS: u64 = 128;

/// The codec pair's pinned pool: n64/p4/t32 planted requests, one per
/// seed, each with the response a one-worker engine gives it.
fn codec_pool() -> Vec<(SolveRequest, SolveResponse)> {
    let requests: Vec<SolveRequest> = (0..16)
        .map(|i| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE + i);
            let planted = planted_instance(
                &PlantedConfig {
                    num_processors: 4,
                    horizon: 32,
                    target_jobs: 64,
                    decoy_prob: 0.3,
                    max_value: 1,
                    cost_model: PlantedCostModel::Affine { restart: 3.0 },
                    policy: CandidatePolicy::All,
                },
                &mut rng,
            );
            SolveRequest::builder(i, planted.instance)
                .affine(3.0, 1.0)
                .build()
        })
        .collect();
    let responses = Engine::new(EngineConfig::with_workers(1)).solve_batch(requests.clone());
    assert!(responses.iter().all(|r| r.ok), "codec pool solves");
    requests.into_iter().zip(responses).collect()
}

/// A request and its response through the binary codec, encoded and
/// decoded: streamed with typed decoding as the server and client run it,
/// or through the value tree (`tree`), the path they ran before. Returns
/// both payloads and both decoded values.
fn codec_round_trip(
    req: &SolveRequest,
    resp: &SolveResponse,
    tree: bool,
) -> ([Vec<u8>; 2], SolveRequest, SolveResponse) {
    const OK: &str = "pinned codec pool decodes";
    if tree {
        let payloads = [
            codec::encode_value(&req.to_value()),
            codec::encode_value(&resp.to_value()),
        ];
        let req = match parse_value(&codec::decode_value(&payloads[0]).expect(OK)) {
            Ok(WireRequest::Solve(req)) => *req,
            other => panic!("{OK}: {other:?}"),
        };
        let resp = SolveResponse::from_value(&codec::decode_value(&payloads[1]).expect(OK));
        (payloads, req, resp.expect(OK))
    } else {
        let payloads = [codec::to_binary(req), codec::to_binary(resp)];
        let req = codec::decode_request(WireFormat::Binary, &payloads[0]).expect(OK);
        let resp = codec::from_binary(&payloads[1]).expect(OK);
        (payloads, req, resp)
    }
}

/// The timed side of the codec pair: [`CODEC_OPS`] round trips over the
/// pool, in order and wrapping around.
fn codec_variant(pool: &[(SolveRequest, SolveResponse)], tree: bool) -> Pass<'_> {
    Box::new(move || {
        time(|| {
            for (req, resp) in pool.iter().cycle().take(CODEC_OPS as usize) {
                black_box(codec_round_trip(req, resp, tree));
            }
        })
    })
}

/// Requests per pass of the framing pair.
const FRAMING_OPS: u64 = 1024;

/// Requests a framing pass pipelines before it drains their responses.
const FRAMING_WINDOW: u64 = 32;

/// The framing pair's pinned request pool: small planted instances, cheap
/// enough that the wire, not the solver, dominates a pass.
fn framing_pool() -> Vec<SolveRequest> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x10AD);
    (0..64)
        .map(|i| {
            let planted = planted_instance(
                &PlantedConfig {
                    num_processors: 2,
                    horizon: 16,
                    target_jobs: 8 + i % 5,
                    decoy_prob: 0.2,
                    max_value: 3,
                    cost_model: PlantedCostModel::Affine { restart: 4.0 },
                    policy: CandidatePolicy::All,
                },
                &mut rng,
            );
            SolveRequest::builder(i as u64, planted.instance)
                .affine(4.0, 1.0)
                .build()
        })
        .collect()
}

/// Sends `ops` requests from `pool`, in order and wrapping around, over
/// `client` with [`FRAMING_WINDOW`] in flight. Panics on a short read or on
/// any response that is not `ok`, which would time an error path.
fn framing_pass(client: &mut EngineClient, pool: &[SolveRequest], ops: u64) {
    let mut sent = 0;
    while sent < ops {
        let burst = FRAMING_WINDOW.min(ops - sent);
        for k in sent..sent + burst {
            client
                .send(&pool[k as usize % pool.len()])
                .expect("send a framing request");
        }
        client.flush().expect("flush a framing window");
        for _ in 0..burst {
            let resp = client
                .recv()
                .expect("read a framing response")
                .expect("short read: the server closed mid-window");
            assert!(
                resp.ok,
                "framing request {} failed: {:?}",
                resp.id, resp.error
            );
        }
        sent += burst;
    }
}

/// The timed side of the framing pair: one pass over its own connection.
fn framing_variant(mut client: EngineClient, pool: &[SolveRequest]) -> Pass<'_> {
    Box::new(move || time(|| framing_pass(&mut client, pool, FRAMING_OPS)))
}

/// Runs `serve` with two workers on an ephemeral port. Returns its address
/// and a closure that shuts it down gracefully and joins it.
fn boot_server() -> (SocketAddr, impl FnOnce()) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().expect("bound address");
    let server = std::thread::spawn(move || serve(listener, EngineConfig::with_workers(2)));
    let stop = move || {
        let mut client =
            EngineClient::connect(addr, Transport::default()).expect("connect for shutdown");
        client.send_control("shutdown").expect("send shutdown");
        client.flush().expect("flush shutdown");
        let _ = client.recv();
        server.join().expect("serve thread").expect("serve loop");
    };
    (addr, stop)
}

/// Runs every workload and assembles the report.
pub fn run() -> PerfReport {
    run_rounds(ROUNDS)
}

/// [`run`] with `rounds` timed passes per variant.
fn run_rounds(rounds: u32) -> PerfReport {
    // --- inputs, all pinned and seeded ---
    let shapes = [(24, 2, 16), (64, 4, 32), (128, 4, 48)];
    let classical: Vec<_> = shapes
        .iter()
        .map(|&(n, p, t)| (format!("n{n}_p{p}_t{t}"), planted(n, p, t)))
        .collect();
    let (n64_shape, n64) = (&classical[1].0, &classical[1].1);
    // the n64 instance re-priced under a fixed heterogeneous fleet, so the
    // gate catches a hot-path regression that only bites when
    // per-processor costs differ
    let fleet: Vec<PowerProfile> = (0..n64.instance.num_processors)
        .map(|proc| PowerProfile::affine(2.0 + 1.5 * proc as f64, 0.75 + 0.5 * proc as f64))
        .collect();
    let cost = ProfileCost::new(&fleet);
    let hetero = enumerate_candidates(&n64.instance, &cost, CandidatePolicy::All);
    // the n64 shape with planted work requirements over a three-rung
    // quadratic ladder; both sides run compile → solve → decompile
    // (compilation is part of every real DVFS solve), so the ratio isolates
    // the solver paths on the lane-expanded grid
    let dvfs = &dvfs_instance(
        &DvfsConfig {
            num_processors: 4,
            horizon: 32,
            target_jobs: 64,
            ..DvfsConfig::default()
        },
        &mut rand::rngs::StdRng::seed_from_u64(11),
    );
    let requests = &engine_workload(64);
    let framing = &framing_pool();
    let codec_pool = &codec_pool();
    let cfg = ArrivalConfig::default();
    let replay_traces: &Vec<_> = &(0..8)
        .map(|i| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(100 + i);
            generate_trace(TraceKind::PoissonBursts, &cfg, &mut rng)
        })
        .collect();
    let resolve_traces: Vec<(u32, ArrivalTrace)> = [(1, 1234), (4, 4321)]
        .into_iter()
        .map(|(period, seed)| (period, advance_notice_trace(seed)))
        .collect();
    let registry = Arc::new(Registry::new());
    let tracer = Arc::new(Tracer::new());

    // --- the table: every pinned workload, in report order ---
    let mut table: Vec<Workload> = classical
        .iter()
        .map(|(shape, inst)| {
            solve_pair(
                format!("solve_schedule_all_{shape}"),
                &inst.instance,
                &inst.candidates,
            )
        })
        .collect();
    table.push(solve_pair(
        format!("solve_schedule_all_hetero_{n64_shape}"),
        &n64.instance,
        &hetero,
    ));
    table.push(Workload {
        name: format!("solve_dvfs_{n64_shape}"),
        ops: SOLVES,
        peak_candidates: dvfs
            .compile()
            .expect("pinned DVFS shape compiles")
            .candidates
            .len() as u64,
        variants: vec![
            ("fast", solves(move || solve_dvfs(dvfs).expect(SOLVES_OK))),
            (
                "naive",
                solves(move || solve_dvfs_naive(dvfs).expect(SOLVES_OK)),
            ),
        ],
        both_ways: false,
    });
    let engine_peak = requests
        .iter()
        .map(|r| all_intervals(r.instance.num_processors, r.instance.horizon))
        .max()
        .unwrap_or(0);
    for workers in [1usize, 4] {
        table.push(Workload {
            name: format!("engine_mixed{}_w{workers}", requests.len()),
            ops: requests.len() as u64,
            peak_candidates: engine_peak,
            variants: vec![(
                "n/a",
                Box::new(move || {
                    time(|| {
                        let engine = Engine::new(EngineConfig::with_workers(workers));
                        let responses = engine.solve_batch(requests.iter().cloned());
                        assert!(responses.iter().all(|r| r.ok), "engine workload failed");
                    })
                }),
            )],
            both_ways: false,
        });
    }
    // The framing pair: one connection per transport to one server, both
    // open across rounds, after an untimed pass that warms every worker's
    // candidate cache so neither variant pays enumeration.
    let (addr, stop_server) = boot_server();
    let [mut binary, jsonl] = [Transport::Binary, Transport::Jsonl]
        .map(|t| EngineClient::connect(addr, t).expect("connect to the framing server"));
    framing_pass(&mut binary, framing, framing.len() as u64);
    table.push(Workload {
        name: "engine_framing_closed_loop".into(),
        ops: FRAMING_OPS,
        peak_candidates: all_intervals(2, 16),
        variants: vec![
            ("binary", framing_variant(binary, framing)),
            ("jsonl", framing_variant(jsonl, framing)),
        ],
        both_ways: false,
    });
    table.push(Workload {
        name: format!("replay_poisson_x{}_greedy", replay_traces.len()),
        ops: replay_traces.len() as u64,
        peak_candidates: replay_traces
            .iter()
            .map(|tr| all_intervals(tr.num_processors, tr.horizon))
            .max()
            .unwrap_or(0),
        variants: vec![(
            "n/a",
            Box::new(move || {
                let fleet = FleetOptions {
                    workers: 1,
                    offline: OfflineRef::Greedy,
                };
                time(|| {
                    let reports = replay_fleet(replay_traces, &PolicyKind::Greedy, &fleet);
                    assert!(reports.iter().all(|r| r.is_ok()), "replay workload failed");
                })
            }),
        )],
        both_ways: false,
    });
    // Warm vs cold re-solves: both variants replay the whole trace, and a
    // row times the re-solves only (the policy's own per-re-solve wall
    // clocks, summed), so the ratio isolates exactly what the warm solver
    // accelerates. One untimed cold replay pins the re-solve count and the
    // cost bits every timed pass must reproduce.
    for &(period, ref trace) in &resolve_traces {
        let (resolves, _, cost_bits) = resolve_pass(trace, period, false);
        let pinned = (resolves, cost_bits);
        let replays = RESOLVES_PER_PASS.div_ceil(resolves);
        table.push(Workload {
            name: format!("resolve_warm_vs_cold_k{period}"),
            ops: resolves * replays,
            peak_candidates: all_intervals(trace.num_processors, trace.horizon),
            variants: vec![
                (
                    "warm",
                    resolve_variant(trace, period, true, pinned, replays),
                ),
                (
                    "cold",
                    resolve_variant(trace, period, false, pinned, replays),
                ),
            ],
            both_ways: false,
        });
    }
    // Codec: the same n64 requests and responses streamed with typed
    // decoding, and through the value tree, the retained baseline. Both
    // sides must agree byte for byte and value for value before timing.
    for (req, resp) in codec_pool {
        let (stream, tree) = (
            codec_round_trip(req, resp, false),
            codec_round_trip(req, resp, true),
        );
        assert_eq!(
            stream.0, tree.0,
            "request {}: streamed bytes differ",
            req.id
        );
        assert_eq!(format!("{:?}", stream.1), format!("{req:?}"));
        assert_eq!(format!("{:?}", tree.1), format!("{req:?}"));
        assert_eq!(format!("{:?}", stream.2), format!("{:?}", tree.2));
    }
    table.push(Workload {
        name: format!("wire_codec_{n64_shape}"),
        ops: CODEC_OPS,
        peak_candidates: n64.candidates.len() as u64,
        variants: vec![
            ("stream", codec_variant(codec_pool, false)),
            ("tree", codec_variant(codec_pool, true)),
        ],
        both_ways: false,
    });
    // Telemetry overhead: the n64 solve with nothing installed (`off`:
    // spans disarm at creation, counters vanish in `with_active`) and with
    // a thread-local registry, then tracer, installed (`on`: every span,
    // histogram and counter lands; with the tracer every span becomes a
    // ring-buffer event and the greedy logs each pick).
    let solve_opts = SolveOptions::default();
    let solve_n64 =
        move || schedule_all(&n64.instance, &n64.candidates, &solve_opts).expect(SOLVES_OK);
    let peak_n64 = n64.candidates.len() as u64;
    table.push(overhead_pair(
        format!("obs_overhead_{n64_shape}"),
        peak_n64,
        solve_n64,
        move |on| sched_obs::set_thread(on.then(|| Arc::clone(&registry))),
    ));
    table.push(overhead_pair(
        format!("trace_overhead_{n64_shape}"),
        peak_n64,
        solve_n64,
        move |on| {
            sched_obs::trace::set_thread(on.then(|| Arc::clone(&tracer)));
            // bounded ring: clearing between passes keeps eviction churn
            // out of the measurement's steady state
            tracer.clear();
        },
    ));

    // --- the one timing loop ---
    let mut workloads = Vec::new();
    let mut ratios = Vec::new();
    for mut w in table {
        // interleave a pair's variants round by round, so clock drift,
        // thermal state and scheduler noise hit both alike
        let mut best = vec![u64::MAX; w.variants.len()];
        for _ in 0..rounds {
            for ((_, pass), best) in w.variants.iter_mut().zip(&mut best) {
                *best = (*best).min(pass());
            }
        }
        let rows: Vec<WorkloadResult> = w
            .variants
            .iter()
            .zip(best)
            .map(|((variant, _), ns)| {
                let ns_per_op = ns as f64 / w.ops as f64;
                WorkloadResult {
                    name: w.name.clone(),
                    variant: variant.to_string(),
                    ops: w.ops,
                    ns_per_op,
                    ops_per_sec: 1e9 / ns_per_op,
                    peak_candidates: w.peak_candidates,
                }
            })
            .collect();
        let ratio = |a: &WorkloadResult, b: &WorkloadResult| Ratio {
            workload: w.name.clone(),
            variant: a.variant.clone(),
            baseline: b.variant.clone(),
            ratio: a.ops_per_sec / b.ops_per_sec,
        };
        if let [a, b] = &rows[..] {
            ratios.push(ratio(a, b));
            if w.both_ways {
                ratios.push(ratio(b, a));
            }
        }
        workloads.extend(rows);
    }
    stop_server();

    PerfReport {
        schema: SCHEMA.into(),
        rounds,
        workloads,
        ratios,
    }
}

/// The pinned re-solve trace: a Poisson trace announcing every job `LEAD`
/// ticks before its window opens.
fn advance_notice_trace(seed: u64) -> ArrivalTrace {
    let cfg = ArrivalConfig {
        num_processors: 2,
        horizon: 192,
        target_jobs: 28,
        restart: 3.0,
        rate: 1.0,
        max_value: 1,
        slack: 2,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut trace = generate_trace(TraceKind::PoissonBursts, &cfg, &mut rng);
    // Releasing earlier only relaxes the instance, so the trace stays
    // feasible. A k=1 re-solver then sees long quiet stretches where the
    // pending set's windows are untouched — the memoized-solve fast path
    // of the warm solver — interleaved with arrival/service ticks that
    // exercise the delta path. This is the advance-reservation shape
    // warm-starting targets: re-solve every tick, change rarely.
    const LEAD: u32 = 24;
    for job in &mut trace.jobs {
        job.release = job.release.saturating_sub(LEAD);
    }
    trace
}

/// The deterministic mixed-mode engine workload, sized by `count`: a third
/// each of schedule-all, prize-collecting and exact prize-collecting
/// requests.
fn engine_workload(count: usize) -> Vec<SolveRequest> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xE16);
    (0..count)
        .map(|i| {
            let planted = planted_instance(
                &PlantedConfig {
                    num_processors: 2,
                    horizon: 24,
                    target_jobs: 16 + i % 8,
                    decoy_prob: 0.3,
                    max_value: 3,
                    cost_model: PlantedCostModel::Affine { restart: 4.0 },
                    policy: CandidatePolicy::All,
                },
                &mut rng,
            );
            let inst = planted.instance;
            let total = inst.total_value();
            match i % 3 {
                0 => SolveRequest::builder(i as u64, inst)
                    .affine(4.0, 1.0)
                    .build(),
                1 => SolveRequest::builder(i as u64, inst)
                    .affine(4.0, 1.0)
                    .prize_collecting((total * 0.5).max(1.0))
                    .epsilon(0.25)
                    .build(),
                _ => SolveRequest::builder(i as u64, inst)
                    .affine(4.0, 1.0)
                    .prize_collecting_exact((total * 0.4).max(1.0))
                    .build(),
            }
        })
        .collect()
}

/// Renders the report as the human table printed to stderr.
pub fn render_table(report: &PerfReport) -> String {
    let mut table = Table::new(&[
        "workload",
        "variant",
        "ops",
        "ns/op",
        "ops/sec",
        "peak cands",
    ]);
    for w in &report.workloads {
        table.row(vec![
            w.name.clone(),
            w.variant.clone(),
            w.ops.to_string(),
            format!("{:.0}", w.ns_per_op),
            format!("{:.1}", w.ops_per_sec),
            w.peak_candidates.to_string(),
        ]);
    }
    let mut out = table.render();
    for r in &report.ratios {
        out.push_str(&format!(
            "ratio {}: {} is {:.2}x {}\n",
            r.workload, r.variant, r.ratio, r.baseline
        ));
    }
    out
}

/// Compares a fresh run against a committed baseline. Returns the list of
/// regressions: ratios that fell below `baseline · (1 − tolerance)` or are
/// missing from the fresh run, plus — unless `relative_only` is set — rows
/// whose absolute throughput fell below the same floor. Reports of
/// different schemas or rounds do not compare at all: a best of fewer
/// rounds is noisier than its baseline.
///
/// The ratios are machine-portable (both rows of a pair ran on the same
/// machine in the same process), so they are what CI gates on; absolute
/// `ops_per_sec` comparisons are only meaningful when fresh run and
/// baseline come from comparable hardware. A committed ratio the fresh run
/// lacks is a problem, so renaming or dropping a pinned pair cannot pass
/// the gate unnoticed; rows present in only one report, and fresh ratios
/// the baseline lacks, are ignored.
pub fn compare(
    fresh: &PerfReport,
    baseline: &PerfReport,
    tolerance: f64,
    relative_only: bool,
) -> Vec<String> {
    let mut problems = Vec::new();
    if fresh.schema != baseline.schema {
        problems.push(format!(
            "schema mismatch: fresh {} vs baseline {}",
            fresh.schema, baseline.schema
        ));
        return problems;
    }
    if fresh.rounds != baseline.rounds {
        problems.push(format!(
            "rounds mismatch: fresh best of {} vs baseline best of {}",
            fresh.rounds, baseline.rounds
        ));
        return problems;
    }
    let floor = |base: f64| base * (1.0 - tolerance);
    for b in baseline.workloads.iter().filter(|_| !relative_only) {
        let Some(f) = fresh
            .workloads
            .iter()
            .find(|f| f.name == b.name && f.variant == b.variant)
        else {
            continue;
        };
        if f.ops_per_sec < floor(b.ops_per_sec) {
            problems.push(format!(
                "{} [{}]: {:.1} ops/sec < floor {:.1} (baseline {:.1}, tolerance {:.0}%)",
                b.name,
                b.variant,
                f.ops_per_sec,
                floor(b.ops_per_sec),
                b.ops_per_sec,
                tolerance * 100.0
            ));
        }
    }
    for b in &baseline.ratios {
        let Some(f) = fresh.ratios.iter().find(|f| {
            f.workload == b.workload && f.variant == b.variant && f.baseline == b.baseline
        }) else {
            problems.push(format!(
                "{} {}/{}: missing from the fresh run (baseline {:.2}x)",
                b.workload, b.variant, b.baseline, b.ratio
            ));
            continue;
        };
        if f.ratio < floor(b.ratio) {
            problems.push(format!(
                "{} {}/{}: {:.2}x < floor {:.2}x (baseline {:.2}x)",
                b.workload,
                b.variant,
                b.baseline,
                f.ratio,
                floor(b.ratio),
                b.ratio
            ));
        }
    }
    problems
}

/// The `perf_harness` entry point.
///
/// Flags: `--out FILE` (default stdout), `--baseline FILE`
/// (enables the regression gate), `--tolerance F` (default 0.25),
/// `--relative-only` (gate only on the machine-portable ratios — the CI
/// configuration, where runner hardware differs from the machine that
/// recorded the baseline).
pub fn cli(args: &[String]) -> Result<(), String> {
    let relative_only = args.iter().any(|a| a == "--relative-only");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let tolerance: f64 = match flag("--tolerance") {
        Some(v) => v.parse().map_err(|e| format!("bad --tolerance: {e}"))?,
        None => 0.25,
    };
    if !(0.0..1.0).contains(&tolerance) {
        return Err(format!("--tolerance must be in [0, 1), got {tolerance}"));
    }

    let report = run();
    eprint!("{}", render_table(&report));
    let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    match flag("--out") {
        Some(out) => {
            std::fs::write(&out, format!("{json}\n")).map_err(|e| format!("writing {out}: {e}"))?;
            eprintln!("wrote {out}");
        }
        None => println!("{json}"),
    }

    if let Some(path) = flag("--baseline") {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("reading baseline {path}: {e}"))?;
        let baseline: PerfReport =
            serde_json::from_str(&text).map_err(|e| format!("{path} is not a perf report: {e}"))?;
        let problems = compare(&report, &baseline, tolerance, relative_only);
        if !problems.is_empty() {
            return Err(format!(
                "perf regression against {path}:\n  {}",
                problems.join("\n  ")
            ));
        }
        eprintln!(
            "perf gate: no regression against {path} (tolerance {:.0}%)",
            tolerance * 100.0
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ratio(variant: &str, baseline: &str, ratio: f64) -> Ratio {
        Ratio {
            workload: "w".into(),
            variant: variant.into(),
            baseline: baseline.into(),
            ratio,
        }
    }

    fn tiny_report(ops_per_sec: f64, speedup: f64) -> PerfReport {
        PerfReport {
            schema: SCHEMA.into(),
            rounds: ROUNDS,
            workloads: vec![WorkloadResult {
                name: "w".into(),
                variant: "fast".into(),
                ops: 1,
                ns_per_op: 1e9 / ops_per_sec,
                ops_per_sec,
                peak_candidates: 10,
            }],
            ratios: vec![ratio("fast", "naive", speedup)],
        }
    }

    #[test]
    fn compare_flags_regressions_within_tolerance() {
        let base = tiny_report(1000.0, 2.5);
        assert!(compare(&tiny_report(800.0, 2.5), &base, 0.25, false).is_empty());
        assert_eq!(
            compare(&tiny_report(700.0, 2.5), &base, 0.25, false).len(),
            1
        );
        assert_eq!(
            compare(&tiny_report(1000.0, 1.5), &base, 0.25, false).len(),
            1
        );
        // a missing row is ignored, but a missing committed ratio is a
        // problem; schema and rounds mismatches are fatal
        let mut other = tiny_report(100.0, 1.0);
        other.workloads[0].name = "other".into();
        other.ratios[0].workload = "other".into();
        let problems = compare(&other, &base, 0.25, false);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("missing"), "{problems:?}");
        let mut bad = tiny_report(1000.0, 2.5);
        bad.schema = "bench-solver/v2".into();
        assert_eq!(compare(&bad, &base, 0.25, false).len(), 1);
        let mut fewer = tiny_report(1000.0, 2.5);
        fewer.rounds = 3;
        let problems = compare(&fewer, &base, 0.25, false);
        assert!(problems[0].starts_with("rounds mismatch"), "{problems:?}");
    }

    #[test]
    fn relative_only_ignores_absolute_throughput() {
        // a 10x slower machine with the speedup intact passes; a decayed
        // speedup still fails
        let base = tiny_report(1000.0, 2.5);
        assert!(compare(&tiny_report(100.0, 2.5), &base, 0.25, true).is_empty());
        assert_eq!(
            compare(&tiny_report(100.0, 1.5), &base, 0.25, true).len(),
            1
        );
    }

    #[test]
    fn costlier_recording_fails_the_on_over_off_ratio() {
        // the `on` side of an overhead pair got twice as slow: `off`/`on`
        // rose, which its floor cannot catch, and `on`/`off` fell to 0.5
        let pair = |off_over_on: f64| PerfReport {
            ratios: vec![
                ratio("off", "on", off_over_on),
                ratio("on", "off", 1.0 / off_over_on),
            ],
            ..tiny_report(1000.0, 1.0)
        };
        let problems = compare(&pair(2.0), &pair(1.0), 0.25, true);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].starts_with("w on/off: 0.50x"), "{problems:?}");
    }

    #[test]
    fn report_serde_round_trip() {
        let r = tiny_report(123.0, 2.0);
        let json = serde_json::to_string(&r).unwrap();
        let back: PerfReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schema, SCHEMA);
        assert_eq!(back.workloads.len(), 1);
        assert_eq!(back.workloads[0].ops_per_sec, 123.0);
        assert_eq!(back.ratios[0].ratio, 2.0);
    }

    #[test]
    fn run_produces_expected_rows() {
        // one round keeps this debug test short; the rows and ratios a run
        // emits do not depend on the rounds
        let report = run_rounds(1);
        assert_eq!(report.schema, SCHEMA);
        assert_eq!(report.rounds, 1);
        for w in &report.workloads {
            assert!(w.ops_per_sec > 0.0, "{}", w.name);
            assert!(w.ns_per_op > 0.0, "{}", w.name);
        }
        // the gate skips rows and ratios missing from either report, so the
        // committed baseline must hold exactly the ones a run emits
        let baseline: PerfReport =
            serde_json::from_str(include_str!("../../../BENCH_solver.json")).unwrap();
        let rows = |r: &PerfReport| -> Vec<String> {
            r.workloads
                .iter()
                .map(|w| format!("{} {}", w.name, w.variant))
                .collect()
        };
        let ratios = |r: &PerfReport| -> Vec<String> {
            r.ratios
                .iter()
                .map(|q| format!("{} {}/{}", q.workload, q.variant, q.baseline))
                .collect()
        };
        assert_eq!(rows(&report), rows(&baseline));
        assert_eq!(ratios(&report), ratios(&baseline));
        // (3 solve shapes + hetero + DVFS + framing + 2 warm-vs-cold +
        // codec + 2 overhead) pairs + 2 engine rows + 1 replay row; one
        // ratio per pair, two per overhead pair
        assert_eq!(report.workloads.len(), 25);
        assert_eq!(report.ratios.len(), 13);
        assert!(ratios(&report).contains(&"trace_overhead_n64_p4_t32 on/off".to_string()));
        assert!(ratios(&report).contains(&"obs_overhead_n64_p4_t32 off/on".to_string()));
        assert!(ratios(&report).contains(&"engine_framing_closed_loop binary/jsonl".to_string()));
        assert!(ratios(&report).contains(&"wire_codec_n64_p4_t32 stream/tree".to_string()));
    }

    /// The message of the panic `pass` raises.
    fn panic_message(pass: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(pass))
            .expect_err("the pass must panic");
        match payload.downcast::<String>() {
            Ok(msg) => *msg,
            Err(payload) => payload
                .downcast::<&str>()
                .map_or_else(|_| String::new(), |msg| msg.to_string()),
        }
    }

    #[test]
    fn framing_pass_panics_on_a_failed_response() {
        // a negative restart passes the wire but fails the engine's checks
        let mut bad = framing_pool().swap_remove(0);
        bad.restart = -1.0;
        let (addr, stop) = boot_server();
        let mut client = EngineClient::connect(addr, Transport::Binary).unwrap();
        let msg = panic_message(|| framing_pass(&mut client, &[bad], 1));
        drop(client);
        stop();
        assert!(msg.starts_with("framing request 0 failed"), "{msg}");
    }

    #[test]
    fn framing_pass_panics_on_a_short_read() {
        // a peer that reads every request and closes its write side at once
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            std::io::copy(&mut stream, &mut std::io::sink()).unwrap();
        });
        let mut client = EngineClient::connect(addr, Transport::Jsonl).unwrap();
        let msg = panic_message(|| framing_pass(&mut client, &framing_pool(), 3));
        drop(client);
        peer.join().unwrap();
        assert!(msg.starts_with("short read"), "{msg}");
    }
}
