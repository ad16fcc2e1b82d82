//! `bench::loadgen` — the engine *load* benchmark behind `loadgen_harness`
//! (`BENCH_engine_load.json`, schema `bench-engine-load/v1`).
//!
//! Where `bench::perf` measures solver throughput in-process, this harness
//! measures the **wire**: it boots a real `sched-engine` TCP server on an
//! ephemeral port and drives it with a load generator, producing
//!
//! * **closed-loop framing rows** — the same pinned request batch pushed
//!   through the legacy JSONL transport and the v3 binary framing, windowed
//!   pipelining, one row each, plus the pinned
//!   `binary_over_jsonl_closed_loop` ratio. Both directions of the
//!   comparison run in one process on one machine, so the ratio is
//!   machine-portable and CI gates on it (`--relative-only`);
//! * **open-loop arrival rows** — Poisson arrivals at fixed offered rates
//!   (sized relative to the measured closed-loop capacity: one rate under
//!   it, one rate over it) and a diurnally modulated row, against a server
//!   with a bounded admission queue and `reject` shedding. Each row reports
//!   offered rate, achieved throughput, shed rate, and p50/p99/p999
//!   response latency. Absolute numbers are hardware-bound — they are
//!   recorded for trend-reading, not gated relatively.
//!
//! Run it via `loadgen_harness [--quick] [--out BENCH_engine_load.json]
//! [--baseline FILE --tolerance F [--relative-only]]`.

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sched_engine::codec::{self, WireFormat};
use sched_engine::{
    serve_with_options, EngineClient, EngineConfig, ErrorKind, ServeOptions, ShedPolicy,
    SolveRequest, SolveResponse, Transport,
};
use serde::{Deserialize, Serialize};
use workloads::planted::PlantedCostModel;
use workloads::{planted_instance, PlantedConfig};

use crate::table::Table;

/// Report schema identifier; bump when the JSON layout changes.
pub const SCHEMA: &str = "bench-engine-load/v1";

/// One measured load scenario.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LoadRow {
    /// Scenario identifier (stable across runs).
    pub name: String,
    /// Wire transport the clients spoke (`jsonl` or `binary`).
    pub transport: String,
    /// Offered arrival rate in requests/sec (`0` for closed-loop rows,
    /// where the client offers as fast as responses drain).
    pub offered_rps: f64,
    /// Requests sent.
    pub sent: u64,
    /// Requests solved (`ok` responses).
    pub solved: u64,
    /// Requests shed with a structured `Overloaded` response.
    pub shed: u64,
    /// `shed / sent`.
    pub shed_rate: f64,
    /// Completed responses (solved + shed) per second of wall clock.
    pub throughput_rps: f64,
    /// Response-latency percentiles over all responses, microseconds.
    pub p50_us: f64,
    /// 99th percentile latency, microseconds.
    pub p99_us: f64,
    /// 99.9th percentile latency, microseconds.
    pub p999_us: f64,
}

/// A pinned machine-portable ratio (both sides measured in one process).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LoadRatio {
    /// Ratio identifier.
    pub name: String,
    /// The ratio value (e.g. binary throughput over JSONL throughput).
    pub value: f64,
}

/// The full report (`BENCH_engine_load.json`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LoadReport {
    /// Always [`SCHEMA`].
    pub schema: String,
    /// `quick` (CI gate) or `full`.
    pub mode: String,
    /// Measured scenario rows.
    pub rows: Vec<LoadRow>,
    /// Pinned ratios — what CI gates on.
    pub ratios: Vec<LoadRatio>,
}

/// Harness sizing.
#[derive(Clone, Copy, Debug)]
pub struct LoadOptions {
    /// Smaller batches and shorter open-loop runs — the CI configuration.
    pub quick: bool,
}

/// Percentile over an unsorted sample of latencies (nearest-rank).
fn percentile_us(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // The epsilon keeps exact products (0.999 · 1000) from ceiling up a
    // rank on floating-point jitter.
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

fn latency_stats(mut micros: Vec<u64>) -> (f64, f64, f64) {
    micros.sort_unstable();
    (
        percentile_us(&micros, 50.0),
        percentile_us(&micros, 99.0),
        percentile_us(&micros, 99.9),
    )
}

/// The pinned request pool: small planted instances, realistic but cheap,
/// so the wire (not the solver) dominates closed-loop rows.
fn request_pool(quick: bool, seed: u64) -> Vec<SolveRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = if quick { 32 } else { 64 };
    (0..pool)
        .map(|i| {
            let planted = planted_instance(
                &PlantedConfig {
                    num_processors: 2,
                    horizon: 16,
                    target_jobs: 8 + i % 5,
                    decoy_prob: 0.2,
                    max_value: 3,
                    cost_model: PlantedCostModel::Affine { restart: 4.0 },
                    policy: sched_core::CandidatePolicy::All,
                },
                &mut rng,
            );
            SolveRequest::builder(i as u64, planted.instance)
                .affine(4.0, 1.0)
                .build()
        })
        .collect()
}

/// Boots a real TCP server on an ephemeral port; returns its address and a
/// shutdown closure that gracefully stops it (joining the serve thread).
fn boot_server(config: EngineConfig, shed_policy: Option<ShedPolicy>) -> (String, impl FnOnce()) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || {
        serve_with_options(
            listener,
            config,
            ServeOptions {
                metrics_out: None,
                shed_policy,
            },
        )
    });
    let shutdown_addr = addr.clone();
    let shutdown = move || {
        let mut client = EngineClient::connect(&*shutdown_addr, Transport::default())
            .expect("connect for shutdown");
        client.send_control("shutdown").expect("send shutdown");
        client.flush().expect("flush shutdown");
        let _ = client.recv();
        handle.join().expect("serve thread").expect("serve loop");
    };
    (addr, shutdown)
}

/// Closed-loop row: pushes `total` pooled requests through one connection
/// with windowed pipelining (window 32) and measures completion
/// throughput, best-of-`rounds` (one noisy scheduler tick must not poison
/// the pinned framing ratio — same convention as `bench::perf`).
fn closed_loop_row(
    addr: &str,
    transport: Transport,
    pool: &[SolveRequest],
    total: usize,
    rounds: usize,
    name: &str,
) -> LoadRow {
    let mut client = EngineClient::connect(addr, transport).expect("connect");
    let window = 32;
    let mut best: Option<(f64, u64, Vec<u64>)> = None;
    for _ in 0..rounds.max(1) {
        let mut latencies = Vec::with_capacity(total);
        let mut solved = 0u64;
        let t0 = Instant::now();
        let mut next_id = 0u64;
        while (next_id as usize) < total {
            let burst = window.min(total - next_id as usize);
            let sent_at = Instant::now();
            for _ in 0..burst {
                let mut req = pool[next_id as usize % pool.len()].clone();
                req.id = next_id;
                next_id += 1;
                client.send(&req).expect("send");
            }
            client.flush().expect("flush");
            for _ in 0..burst {
                let resp = client.recv().expect("recv").expect("response");
                if resp.ok {
                    solved += 1;
                }
                latencies.push(sent_at.elapsed().as_micros() as u64);
            }
        }
        let rps = total as f64 / t0.elapsed().as_secs_f64();
        if best.as_ref().is_none_or(|(b, _, _)| rps > *b) {
            best = Some((rps, solved, latencies));
        }
    }
    let (throughput_rps, solved, latencies) = best.expect("at least one round");
    let (p50_us, p99_us, p999_us) = latency_stats(latencies);
    LoadRow {
        name: name.into(),
        transport: transport.to_string(),
        offered_rps: 0.0,
        sent: total as u64,
        solved,
        shed: 0,
        shed_rate: 0.0,
        throughput_rps,
        p50_us,
        p99_us,
        p999_us,
    }
}

/// Sleeps until `deadline`. Deliberately sleep-based (no spinning): the
/// generator shares cores with the server under test, and a spinning pacer
/// would starve the very workers it is measuring. Sleep overshoot makes
/// the *achieved* offered rate drift below nominal, which is why rows
/// report the measured send rate, not the request.
fn pace_until(deadline: Instant) {
    let now = Instant::now();
    if now < deadline {
        std::thread::sleep(deadline - now);
    }
}

/// Open-loop row: paced arrivals over one binary-framed connection against
/// a shedding server. `rate_at(i, elapsed)` returns the instantaneous
/// offered rate for the `i`-th arrival, letting callers express both flat
/// Poisson and diurnal modulation.
fn open_loop_row(
    addr: &str,
    pool: &[SolveRequest],
    total: usize,
    name: &str,
    mut rate_at: impl FnMut(f64) -> f64 + Send,
    seed: u64,
) -> LoadRow {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut writer = BufWriter::new(stream.try_clone().expect("clone stream"));
    let mut reader = BufReader::new(stream);
    let format = WireFormat::Binary;

    let t0 = Instant::now();
    let send_times = std::sync::Mutex::new(vec![None::<Instant>; total]);
    let measured_offered = std::sync::Mutex::new(0.0f64);
    let (solved, shed, latencies) = std::thread::scope(|scope| {
        let send_times = &send_times;
        let measured_offered = &measured_offered;
        scope.spawn(move || {
            // Sender: exponential inter-arrival gaps at the (possibly
            // time-varying) offered rate, deterministic seed. Arrivals the
            // pacer overslept past are sent immediately (catch-up burst),
            // keeping the average offered rate close to nominal.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut next_at = Instant::now();
            for i in 0..total {
                pace_until(next_at);
                let mut req = pool[i % pool.len()].clone();
                req.id = i as u64;
                let payload = codec::value_to_payload(format, &req).expect("encode request");
                send_times.lock().unwrap()[i] = Some(Instant::now());
                codec::write_frame(&mut writer, format, &payload).expect("send frame");
                writer.flush().expect("flush frame");
                let rate = rate_at(t0.elapsed().as_secs_f64()).max(1.0);
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                next_at += Duration::from_secs_f64(-u.ln() / rate);
            }
            *measured_offered.lock().unwrap() = total as f64 / t0.elapsed().as_secs_f64();
        });

        // Receiver (this thread): responses come back in request order.
        let mut solved = 0u64;
        let mut shed = 0u64;
        let mut latencies = Vec::with_capacity(total);
        for i in 0..total {
            let (fmt, payload) = codec::read_frame(&mut reader)
                .expect("read frame")
                .expect("response before EOF");
            let done = Instant::now();
            let value = codec::payload_to_value(fmt, &payload).expect("decode payload");
            let resp = SolveResponse::from_value(&value).expect("typed response");
            let sent = send_times.lock().unwrap()[i].expect("send recorded before recv");
            latencies.push((done - sent).as_micros() as u64);
            if resp.ok {
                solved += 1;
            } else {
                let err = resp.error.as_ref().expect("failure carries error");
                assert_eq!(
                    err.kind,
                    ErrorKind::Overloaded,
                    "open-loop failures must be sheds: {err:?}"
                );
                shed += 1;
            }
        }
        (solved, shed, latencies)
    });
    let secs = t0.elapsed().as_secs_f64();
    let (p50_us, p99_us, p999_us) = latency_stats(latencies);
    LoadRow {
        name: name.into(),
        transport: "binary".into(),
        offered_rps: measured_offered.into_inner().unwrap(),
        sent: total as u64,
        solved,
        shed,
        shed_rate: shed as f64 / total as f64,
        throughput_rps: total as f64 / secs,
        p50_us,
        p99_us,
        p999_us,
    }
}

/// Runs every scenario and assembles the report.
pub fn run(options: LoadOptions) -> LoadReport {
    let quick = options.quick;
    let pool = request_pool(quick, 0x10AD);
    let closed_total = if quick { 256 } else { 1024 };

    // Closed-loop framing comparison: plain backpressure server (no
    // shedding — every request must complete), 2 workers for stability.
    let mut rows = Vec::new();
    let (addr, stop) = boot_server(
        EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        },
        None,
    );
    // Warm the candidate caches so neither transport pays enumeration.
    closed_loop_row(&addr, Transport::Jsonl, &pool, pool.len(), 1, "warmup");
    let jsonl = closed_loop_row(
        &addr,
        Transport::Jsonl,
        &pool,
        closed_total,
        3,
        "closed_loop",
    );
    let binary = closed_loop_row(
        &addr,
        Transport::Binary,
        &pool,
        closed_total,
        3,
        "closed_loop",
    );
    stop();
    let ratio = LoadRatio {
        name: "binary_over_jsonl_closed_loop".into(),
        value: binary.throughput_rps / jsonl.throughput_rps,
    };
    rows.push(jsonl);
    rows.push(binary);

    // Open-loop arrivals against a bounded queue with reject shedding.
    // Rates are pinned relative to this run's measured capacity, so the
    // under/over split survives hardware changes.
    let (addr, stop) = boot_server(
        EngineConfig {
            workers: 2,
            queue_depth: 8,
            ..EngineConfig::default()
        },
        Some(ShedPolicy::Reject),
    );
    // Warm this server's candidate caches sequentially (window 1 — a
    // pipelined warmup against the depth-8 queue would shed, leaving part
    // of the pool cold), then time a second sequential pass: its rate is
    // the single-in-flight service rate the paced open loop experiences,
    // which deep closed-loop pipelining overstates several-fold.
    let seq_capacity = {
        let mut warm = EngineClient::connect(&addr, Transport::default()).expect("warmup connect");
        let sequential_pass = |client: &mut EngineClient| {
            let t0 = Instant::now();
            for req in &pool {
                client.send(req).expect("warmup send");
                client.flush().expect("warmup flush");
                client
                    .recv()
                    .expect("warmup recv")
                    .expect("warmup response");
            }
            pool.len() as f64 / t0.elapsed().as_secs_f64()
        };
        sequential_pass(&mut warm); // cold pass: warms the caches
        sequential_pass(&mut warm) // warm pass: the measured rate
    };
    let open_total = if quick { 400 } else { 2000 };
    let under = 0.5 * seq_capacity;
    let over = 4.0 * seq_capacity;
    rows.push(open_loop_row(
        &addr,
        &pool,
        open_total,
        "poisson_under_capacity",
        |_| under,
        0xA1,
    ));
    rows.push(open_loop_row(
        &addr,
        &pool,
        open_total,
        "poisson_over_capacity",
        |_| over,
        0xA2,
    ));
    // Diurnal modulation: the offered rate swings ±60% around 80% of the
    // sequential service rate over a short "day", crossing it at peak and
    // idling well under it in the trough.
    let base = 0.8 * seq_capacity;
    let day_secs = (open_total as f64 / base).max(0.2);
    rows.push(open_loop_row(
        &addr,
        &pool,
        open_total,
        "diurnal",
        move |t| base * (1.0 + 0.6 * (std::f64::consts::TAU * t / day_secs).sin()),
        0xA3,
    ));
    stop();

    LoadReport {
        schema: SCHEMA.into(),
        mode: if quick { "quick" } else { "full" }.into(),
        rows,
        ratios: vec![ratio],
    }
}

/// Compares a fresh run against a committed baseline; same contract as
/// `bench::perf::compare`. Ratios (machine-portable) always gate; absolute
/// `throughput_rps` rows gate only without `relative_only`.
pub fn compare(
    fresh: &LoadReport,
    baseline: &LoadReport,
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
    if !relative_only {
        for b in &baseline.rows {
            let Some(f) = fresh
                .rows
                .iter()
                .find(|f| f.name == b.name && f.transport == b.transport)
            else {
                continue;
            };
            let floor = b.throughput_rps * (1.0 - tolerance);
            if f.throughput_rps < floor {
                problems.push(format!(
                    "{} [{}]: {:.1} rps < floor {:.1} (baseline {:.1}, tolerance {:.0}%)",
                    b.name,
                    b.transport,
                    f.throughput_rps,
                    floor,
                    b.throughput_rps,
                    tolerance * 100.0
                ));
            }
        }
    }
    for b in &baseline.ratios {
        let Some(f) = fresh.ratios.iter().find(|f| f.name == b.name) else {
            continue;
        };
        let floor = b.value * (1.0 - tolerance);
        if f.value < floor {
            problems.push(format!(
                "{}: {:.2} < floor {:.2} (baseline {:.2})",
                b.name, f.value, floor, b.value
            ));
        }
    }
    problems
}

/// Renders the report as the human table printed to stderr.
pub fn render_table(report: &LoadReport) -> String {
    let mut table = Table::new(&[
        "scenario", "wire", "offered", "sent", "shed%", "rps", "p50 µs", "p99 µs", "p999 µs",
    ]);
    for r in &report.rows {
        table.row(vec![
            r.name.clone(),
            r.transport.clone(),
            if r.offered_rps > 0.0 {
                format!("{:.0}", r.offered_rps)
            } else {
                "closed".into()
            },
            r.sent.to_string(),
            format!("{:.1}", r.shed_rate * 100.0),
            format!("{:.0}", r.throughput_rps),
            format!("{:.0}", r.p50_us),
            format!("{:.0}", r.p99_us),
            format!("{:.0}", r.p999_us),
        ]);
    }
    let mut out = table.render();
    for ratio in &report.ratios {
        out.push_str(&format!("{}: {:.2}x\n", ratio.name, ratio.value));
    }
    out
}

/// Shared CLI driver for `loadgen_harness`.
///
/// Flags: `--quick`, `--out FILE` (default stdout), `--baseline FILE`
/// (enables the regression gate), `--tolerance F` (default 0.25),
/// `--relative-only` (gate only on the machine-portable ratios — the CI
/// configuration).
pub fn cli(args: &[String]) -> Result<(), String> {
    let quick = args.iter().any(|a| a == "--quick");
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

    let report = run(LoadOptions { quick });
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
        let baseline: LoadReport =
            serde_json::from_str(&text).map_err(|e| format!("{path} is not a load report: {e}"))?;
        let problems = compare(&report, &baseline, tolerance, relative_only);
        if !problems.is_empty() {
            return Err(format!(
                "load regression against {path}:\n  {}",
                problems.join("\n  ")
            ));
        }
        eprintln!(
            "load gate: no regression against {path} (tolerance {:.0}%)",
            tolerance * 100.0
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report(rps: f64, ratio: f64) -> LoadReport {
        LoadReport {
            schema: SCHEMA.into(),
            mode: "quick".into(),
            rows: vec![LoadRow {
                name: "closed_loop".into(),
                transport: "binary".into(),
                offered_rps: 0.0,
                sent: 10,
                solved: 10,
                shed: 0,
                shed_rate: 0.0,
                throughput_rps: rps,
                p50_us: 100.0,
                p99_us: 200.0,
                p999_us: 300.0,
            }],
            ratios: vec![LoadRatio {
                name: "binary_over_jsonl_closed_loop".into(),
                value: ratio,
            }],
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_us(&sorted, 50.0), 500.0);
        assert_eq!(percentile_us(&sorted, 99.0), 990.0);
        assert_eq!(percentile_us(&sorted, 99.9), 999.0);
        assert_eq!(percentile_us(&[], 50.0), 0.0);
        assert_eq!(percentile_us(&[7], 99.9), 7.0);
    }

    #[test]
    fn compare_gates_on_the_pinned_ratio() {
        let baseline = tiny_report(1000.0, 1.5);
        // Ratio holds, absolute throughput slumps: relative-only passes.
        let fresh = tiny_report(100.0, 1.45);
        assert!(compare(&fresh, &baseline, 0.25, true).is_empty());
        assert_eq!(compare(&fresh, &baseline, 0.25, false).len(), 1);
        // Ratio collapses below the floor: gated even relative-only.
        let fresh = tiny_report(1000.0, 1.0);
        assert_eq!(compare(&fresh, &baseline, 0.25, true).len(), 1);
        // Schema mismatch is terminal.
        let mut alien = tiny_report(1000.0, 1.5);
        alien.schema = "bench-engine-load/v0".into();
        assert_eq!(compare(&alien, &baseline, 0.25, true).len(), 1);
    }

    /// End-to-end smoke of the harness itself: tiny sizes, every scenario.
    #[test]
    fn quick_run_produces_a_complete_gateable_report() {
        let report = run(LoadOptions { quick: true });
        assert_eq!(report.schema, SCHEMA);
        let names: Vec<&str> = report.rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "closed_loop",
                "closed_loop",
                "poisson_under_capacity",
                "poisson_over_capacity",
                "diurnal"
            ]
        );
        assert_eq!(report.rows[0].transport, "jsonl");
        assert_eq!(report.rows[1].transport, "binary");
        for row in &report.rows {
            assert_eq!(
                row.solved + row.shed,
                row.sent,
                "{}: no silent drops",
                row.name
            );
            assert!(row.throughput_rps > 0.0);
            assert!(row.p999_us >= row.p99_us && row.p99_us >= row.p50_us);
        }
        // The over-capacity row must actually shed against a depth-8 queue.
        let over = &report.rows[3];
        assert!(over.shed > 0, "2x capacity against queue_depth=8 must shed");
        assert_eq!(report.ratios.len(), 1);
        assert!(report.ratios[0].value > 0.0);
        // The report round-trips through its JSON wire shape.
        let json = serde_json::to_string(&report).unwrap();
        let back: LoadReport = serde_json::from_str(&json).unwrap();
        assert!(compare(&back, &report, 0.25, true).is_empty());
    }
}
