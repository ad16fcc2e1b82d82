//! `engine_diurnal`: an open loop over one binary-framed connection to an
//! in-process `serve`.
//!
//! Arrivals are a seeded Poisson process whose rate swings sinusoidally
//! between two absolute rates over whole cycles (`config.json`). Most
//! requests are small `ScheduleAll` solves on a few shared grids; some form
//! evolving sequences, each request the previous one plus or minus a few
//! jobs, as a periodic re-solver sends; a minority are prize-collecting,
//! exact prize-collecting, DVFS, and medium (n64) solves. No two requests
//! carry the same instance, so the engine's identical-instance result path
//! cannot replace solving. Each solve is small, so codec, framing, queueing
//! and worker handoff dominate: the trough puts service and wire time into
//! the median, the peak puts queue wait into the tail.
//!
//! The pass's requests are generated during set-up. One thread paces,
//! encodes and sends; the calling thread only reads, decodes and
//! timestamps, and every response is checked after the pass. Each request
//! is timed from when it was due to be sent. A run drives the same pass of
//! whole cycles several times, so each request's best latency over the
//! passes stands for it.

use std::collections::HashSet;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sched_core::model::validate_schedule;
use sched_core::{
    solve_dvfs, validate_dvfs_schedule, CandidatePolicy, DvfsInstance, Instance, Job,
};
use sched_engine::codec::{self, WireFormat};
use sched_engine::{
    serve, Engine, EngineClient, EngineConfig as ServeConfig, SolveMode, SolveRequest,
    SolveResponse, Transport,
};
use serde::Deserialize;
use workloads::planted::PlantedCostModel;
use workloads::{dvfs_instance, planted_instance, DvfsConfig, PlantedConfig};

use crate::config::DiurnalConfig;
use crate::report::Outcome;
use crate::stats::{median, percentile, sorted};
use crate::{setup_phase, sub_seed, RunArgs};

/// One planted request shape, priced affine with rate 1.
#[derive(Clone, Copy)]
struct Shape {
    processors: u32,
    horizon: u32,
    jobs: (usize, usize),
    decoy_prob: f64,
    max_value: u32,
    restart: f64,
}

/// The shared grids small requests land on. `LOADGEN` is the pinned request
/// pool of the engine load generator (`bench::loadgen`: 2×16, 8–12 jobs);
/// `MIXED` is the mixed-mode engine workload of the perf harness
/// (`bench::perf`: 2×24, 16–23 jobs).
const LOADGEN: Shape = Shape {
    processors: 2,
    horizon: 16,
    jobs: (8, 12),
    decoy_prob: 0.2,
    max_value: 3,
    restart: 4.0,
};
const MIXED: Shape = Shape {
    processors: 2,
    horizon: 24,
    jobs: (16, 23),
    decoy_prob: 0.3,
    max_value: 3,
    restart: 4.0,
};

/// The n64/p4/t32 schedule-all shape of the perf harness's solver rows.
const MEDIUM: Shape = Shape {
    processors: 4,
    horizon: 32,
    jobs: (64, 64),
    decoy_prob: 0.3,
    max_value: 1,
    restart: 3.0,
};

/// Concurrent evolving re-solve sequences, each on a `LOADGEN` instance of
/// its largest size.
const STREAMS: usize = 4;

/// Requests in one evolving sequence before it starts over on a fresh
/// instance.
const STREAM_STEPS: usize = 16;

/// Which part of the mix a request belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Kind {
    /// Fresh `ScheduleAll` on a shared grid.
    Small,
    /// Next step of an evolving sequence (`ScheduleAll`).
    Evolve,
    /// Prize-collecting on `MIXED`, target half the value, ε = 0.25.
    Prize,
    /// Exact prize-collecting on `MIXED`, target 0.4 of the value.
    Exact,
    /// Speed scaling: the DVFS generator's default instance.
    Dvfs,
    /// `MEDIUM` `ScheduleAll`.
    Medium,
}

impl Kind {
    /// Percent of the mix below which each kind lies. The shares are a
    /// judgement, not a measurement (no traffic record exists): most
    /// requests small, a quarter evolving, the rest split over the four
    /// minority kinds with the costliest (exact, n64) kept smallest.
    const MIX: [(u32, Kind); 6] = [
        (52, Kind::Small),
        (77, Kind::Evolve),
        (83, Kind::Prize),
        (87, Kind::Exact),
        (93, Kind::Dvfs),
        (100, Kind::Medium),
    ];
}

/// One evolving sequence: a planted instance and which of its jobs the
/// current request holds.
struct Stream {
    jobs: Vec<Job>,
    active: Vec<bool>,
    steps_left: usize,
}

/// Deterministic request source: the same seed yields the same requests.
struct RequestGen {
    rng: StdRng,
    streams: Vec<Stream>,
    /// Kinds still to draw from the current block of 100. Each block holds
    /// every kind in exactly its [`Kind::MIX`] share, in seeded order, so
    /// seeds differ in where the costly kinds land, not in how many there
    /// are.
    deck: Vec<Kind>,
    /// Grid of the last small request: small requests alternate grids.
    small_on_mixed: bool,
    seen: HashSet<u64>,
    next_id: u64,
}

fn planted(shape: Shape, jobs: usize, rng: &mut StdRng) -> Instance {
    planted_instance(
        &PlantedConfig {
            num_processors: shape.processors,
            horizon: shape.horizon,
            target_jobs: jobs,
            decoy_prob: shape.decoy_prob,
            max_value: shape.max_value,
            cost_model: PlantedCostModel::Affine {
                restart: shape.restart,
            },
            policy: CandidatePolicy::All,
        },
        rng,
    )
    .instance
}

fn instance_key(kind: Kind, inst: &Instance) -> u64 {
    let mut h = DefaultHasher::new();
    kind.hash(&mut h);
    (inst.num_processors, inst.horizon).hash(&mut h);
    for j in &inst.jobs {
        j.value.to_bits().hash(&mut h);
        j.allowed.hash(&mut h);
        j.work.hash(&mut h);
    }
    h.finish()
}

impl RequestGen {
    /// A generator for one input stream of `seed`.
    fn new(seed: u64) -> Self {
        let rng = StdRng::seed_from_u64(seed);
        let streams = (0..STREAMS)
            .map(|_| Stream {
                jobs: Vec::new(),
                active: Vec::new(),
                steps_left: 0,
            })
            .collect();
        Self {
            rng,
            streams,
            deck: Vec::new(),
            small_on_mixed: false,
            seen: HashSet::new(),
            next_id: 0,
        }
    }

    /// The next kind from the shuffled block, dealing a new block when the
    /// last one is spent.
    fn next_kind(&mut self) -> Kind {
        if self.deck.is_empty() {
            let mut from = 0;
            for &(below, kind) in &Kind::MIX {
                self.deck.extend((from..below).map(|_| kind));
                from = below;
            }
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                self.deck.swap(i, j);
            }
        }
        self.deck.pop().expect("a dealt block is not empty")
    }

    fn fresh(&mut self, shape: Shape) -> Instance {
        let (lo, hi) = shape.jobs;
        let n = self.rng.gen_range(lo..=hi);
        planted(shape, n, &mut self.rng)
    }

    /// Advances stream `s` by dropping or re-adding one to three jobs. Every
    /// job keeps its planted home slot, so every subset stays feasible.
    fn evolve(&mut self, s: usize) -> Instance {
        if self.streams[s].steps_left == 0 {
            let inst = planted(LOADGEN, LOADGEN.jobs.1, &mut self.rng);
            self.streams[s] = Stream {
                active: vec![true; inst.jobs.len()],
                jobs: inst.jobs,
                steps_left: STREAM_STEPS,
            };
        }
        let stream = &mut self.streams[s];
        stream.steps_left -= 1;
        for _ in 0..self.rng.gen_range(1..=3) {
            let i = self.rng.gen_range(0..stream.jobs.len());
            stream.active[i] = !stream.active[i];
        }
        let jobs = stream
            .jobs
            .iter()
            .zip(&stream.active)
            .filter(|(_, on)| **on)
            .map(|(j, _)| j.clone())
            .collect();
        Instance::new(LOADGEN.processors, LOADGEN.horizon, jobs)
    }

    fn draw(&mut self, kind: Kind, id: u64) -> SolveRequest {
        let affine =
            |inst, shape: Shape| SolveRequest::builder(id, inst).affine(shape.restart, 1.0);
        match kind {
            Kind::Small => {
                // alternate, so both grids keep exactly half the small share
                self.small_on_mixed = !self.small_on_mixed;
                let shape = if self.small_on_mixed { MIXED } else { LOADGEN };
                affine(self.fresh(shape), shape).build()
            }
            Kind::Evolve => {
                let s = self.rng.gen_range(0..STREAMS);
                affine(self.evolve(s), LOADGEN).build()
            }
            Kind::Prize => {
                let inst = self.fresh(MIXED);
                let total = inst.total_value();
                affine(inst, MIXED)
                    .prize_collecting(0.5 * total)
                    .epsilon(0.25)
                    .build()
            }
            Kind::Exact => {
                let inst = self.fresh(MIXED);
                let total = inst.total_value();
                affine(inst, MIXED)
                    .prize_collecting_exact(0.4 * total)
                    .build()
            }
            Kind::Dvfs => {
                let d = dvfs_instance(&DvfsConfig::default(), &mut self.rng);
                let inst = Instance {
                    num_processors: d.num_processors,
                    horizon: d.horizon,
                    jobs: d.jobs,
                };
                SolveRequest::builder(id, inst)
                    .affine(d.wake_cost, 1.0)
                    .freq_ladder(d.ladder)
                    .build()
            }
            Kind::Medium => affine(self.fresh(MEDIUM), MEDIUM).build(),
        }
    }

    /// The next request; its instance differs from every earlier one.
    fn next_request(&mut self) -> (Kind, SolveRequest) {
        let id = self.next_id;
        self.next_id += 1;
        let kind = self.next_kind();
        loop {
            let req = self.draw(kind, id);
            if !req.instance.jobs.is_empty() && self.seen.insert(instance_key(kind, &req.instance))
            {
                return (kind, req);
            }
        }
    }
}

/// Offered rate at `t` seconds: `low` at the start of each cycle, `high`
/// half-way through.
fn rate_at(cfg: &DiurnalConfig, t: f64) -> f64 {
    let phase = std::f64::consts::TAU * t / cfg.cycle_s;
    cfg.low_rps + (cfg.high_rps - cfg.low_rps) * 0.5 * (1.0 - phase.cos())
}

/// Seeded non-homogeneous Poisson arrival offsets (seconds from the start)
/// over `cycles` whole cycles, by thinning a rate-`high_rps` process.
fn arrival_offsets(cfg: &DiurnalConfig, seed: u64, cycles: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let end = cfg.cycle_s * cycles as f64;
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        t += -u.ln() / cfg.high_rps;
        if t >= end {
            return out;
        }
        if rng.gen_range(0.0..1.0) * cfg.high_rps < rate_at(cfg, t) {
            out.push(t);
        }
    }
}

/// An in-process server; dropping it shuts the server down gracefully and
/// joins its thread.
struct Server {
    addr: SocketAddr,
    handle: Option<JoinHandle<std::io::Result<()>>>,
}

impl Server {
    /// Binds an ephemeral local port and serves with the `serve` defaults
    /// (blocking backpressure, no shedding) and `workers` workers.
    fn boot(workers: usize) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let config = ServeConfig {
            workers,
            ..ServeConfig::default()
        };
        let handle = std::thread::spawn(move || serve(listener, config));
        Ok(Self {
            addr,
            handle: Some(handle),
        })
    }

    /// One control round trip on a fresh connection.
    fn control(&self, verb: &str) -> std::io::Result<Option<SolveResponse>> {
        let mut client = EngineClient::connect(self.addr, Transport::default())?;
        client.send_control(verb)?;
        client.flush()?;
        client.recv()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        match self.control("shutdown") {
            Ok(_) => {
                if let Ok(Err(e)) = handle.join() {
                    eprintln!("perfbench: serve loop ended with {e}");
                }
            }
            Err(e) => eprintln!("perfbench: could not stop the server: {e}"),
        }
    }
}

/// Set-up: boot, negotiate with `hello`, and push untimed warm-up traffic
/// (its own input stream) through so the workers' candidate caches fill.
fn boot_and_warm(cfg: &DiurnalConfig, seed: u64) -> Result<Server, String> {
    let server = Server::boot(cfg.workers).map_err(|e| format!("boot: {e}"))?;
    let mut client = EngineClient::connect(server.addr, Transport::default())
        .map_err(|e| format!("connect: {e}"))?;
    client.hello().map_err(|e| format!("hello: {e}"))?;
    let mut gen = RequestGen::new(sub_seed(seed, 21));
    let window = 16;
    let mut sent = 0;
    while sent < cfg.warmup_requests {
        let burst = window.min(cfg.warmup_requests - sent);
        for _ in 0..burst {
            let (_, req) = gen.next_request();
            client
                .send(&req)
                .map_err(|e| format!("warm-up send: {e}"))?;
        }
        client.flush().map_err(|e| format!("warm-up flush: {e}"))?;
        for _ in 0..burst {
            match client.recv() {
                Ok(Some(r)) if r.ok => {}
                other => return Err(format!("warm-up response: {other:?}")),
            }
        }
        sent += burst;
    }
    Ok(server)
}

/// The requests of one pass in due order, generated during set-up.
type Requests = Vec<(Kind, SolveRequest)>;

fn build_requests(seed: u64, count: usize) -> Requests {
    let mut gen = RequestGen::new(seed);
    (0..count).map(|_| gen.next_request()).collect()
}

/// A request on the wire, as the receiver needs it.
struct InFlight {
    index: usize,
    due: Instant,
    sent: Instant,
    encode_ns: u64,
}

/// A response as the receive loop leaves it: decoded and timestamped. It is
/// checked after the pass, so checking never delays the responses queued
/// behind it or takes CPU from the server being measured.
struct Received {
    meta: InFlight,
    resp: SolveResponse,
    read_at: Instant,
    done: Instant,
}

/// What one pass over the wire returned, before any check.
struct Wire {
    received: Vec<Received>,
    /// Send time minus due time, µs.
    lag_us: Vec<f64>,
    /// Most requests outstanding at once.
    inflight_max: u64,
    /// Why requests went unanswered, if any did.
    transport: Option<String>,
    /// Wall time from the first due time to the last response, seconds.
    wall_s: f64,
}

/// Everything one pass over the arrival schedule measured.
#[derive(Default)]
struct Pass {
    /// Requests due.
    due: usize,
    /// Responses read.
    responses: usize,
    /// Responses that passed every check.
    answered: usize,
    /// Wall time from the first due time to the last response, seconds.
    wall_s: f64,
    /// Latency of each request from its due time, µs (NaN when the
    /// request failed).
    latency_us: Vec<f64>,
    /// Cost bits of each request's schedule (`None` when it failed).
    cost_bits: Vec<Option<u64>>,
    /// Send time minus due time, µs.
    lag_us: Vec<f64>,
    /// Client-side encode time, µs (traced pass only).
    encode_us: Vec<f64>,
    /// Client-side decode time, µs (traced pass only).
    decode_us: Vec<f64>,
    /// Server-reported solve time, µs.
    solve_us: Vec<f64>,
    /// Latency from the send minus solve time, µs.
    residual_us: Vec<f64>,
    /// Responses whose candidate family came from the worker cache.
    cache_hits: usize,
    /// Most requests outstanding at once.
    inflight_max: u64,
    /// Sum of returned schedule costs.
    cost: f64,
    /// Jobs those schedules scheduled.
    jobs: usize,
    /// Failure descriptions, one per failed response.
    failures: Vec<String>,
    /// Why requests went unanswered, if any did.
    transport: Option<String>,
    /// DVFS requests with the engine's cost bits, for the in-process check.
    dvfs: Vec<(SolveRequest, u64)>,
    /// Sampled requests with the engine's cost bits.
    sample: Vec<(SolveRequest, u64)>,
}

/// Checks one response against its request, sent under id `id`; returns
/// the schedule's cost bits on success.
fn check_response(
    kind: Kind,
    req: &SolveRequest,
    id: u64,
    resp: &SolveResponse,
) -> Result<u64, String> {
    if !resp.ok {
        return Err(format!("request {id} not ok: {:?}", resp.error));
    }
    if resp.id != id {
        return Err(format!("response {} answers request {id}", resp.id));
    }
    let s = resp
        .schedule
        .as_ref()
        .ok_or_else(|| format!("request {id}: ok without a schedule"))?;
    let n = req.instance.num_jobs();
    // The DVFS wire schedule is a lossy physical flattening; it is checked
    // in full after the run against an in-process `solve_dvfs`.
    if kind != Kind::Dvfs {
        let v = validate_schedule(&req.instance, s);
        if !v.is_empty() {
            return Err(format!("request {id}: invalid schedule {:?}", v[0]));
        }
    }
    let enough = match req.mode {
        SolveMode::ScheduleAll => s.scheduled_count == n,
        SolveMode::PrizeCollecting => {
            let target = req.target.unwrap_or(0.0);
            s.scheduled_value >= (1.0 - req.epsilon.unwrap_or(0.1)) * target - 1e-9
        }
        SolveMode::PrizeCollectingExact => s.scheduled_value >= req.target.unwrap_or(0.0) - 1e-9,
    };
    if !enough {
        return Err(format!(
            "request {id}: scheduled {} jobs, value {}",
            s.scheduled_count, s.scheduled_value
        ));
    }
    Ok(s.total_cost.to_bits())
}

/// Sleeps until `deadline` (no spinning: the pacer shares two cores with the
/// server it measures).
fn pace_until(deadline: Instant) {
    let now = Instant::now();
    if now < deadline {
        std::thread::sleep(deadline - now);
    }
}

/// Drives one pass of the open loop over a fresh connection: one thread
/// paces, encodes and sends, the calling thread reads, decodes and
/// timestamps. Request ids start at `id_base`, so repeated passes never
/// reuse an id.
fn drive(
    addr: SocketAddr,
    requests: &Requests,
    offsets: &[f64],
    id_base: u64,
    traced: bool,
) -> Wire {
    let mut wire = Wire {
        received: Vec::with_capacity(offsets.len()),
        lag_us: Vec::new(),
        inflight_max: 0,
        transport: None,
        wall_s: 0.0,
    };
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            wire.transport = Some(format!("connect: {e}"));
            return wire;
        }
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let (write_half, read_half) = match stream.try_clone() {
        Ok(w) => (w, stream),
        Err(e) => {
            wire.transport = Some(format!("clone stream: {e}"));
            return wire;
        }
    };
    let sent_count = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<InFlight>();
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut last_done = t0;

    std::thread::scope(|scope| {
        let sent_count = &sent_count;
        let sender = scope.spawn(move || -> (Vec<f64>, Option<String>) {
            let mut writer = BufWriter::new(write_half);
            let mut lag_us = Vec::with_capacity(offsets.len());
            for (index, (&offset, (_, req))) in offsets.iter().zip(requests).enumerate() {
                let due = t0 + Duration::from_secs_f64(offset);
                pace_until(due);
                let sent = Instant::now();
                lag_us.push((sent - due).as_secs_f64() * 1e6);
                let mut req = req.clone();
                req.id += id_base;
                let payload = match codec::value_to_payload(WireFormat::Binary, &req) {
                    Ok(p) => p,
                    Err(e) => return (lag_us, Some(format!("encode: {e}"))),
                };
                let encode_ns = if traced {
                    sent.elapsed().as_nanos() as u64
                } else {
                    0
                };
                sent_count.fetch_add(1, Ordering::Relaxed);
                let meta = InFlight {
                    index,
                    due,
                    sent,
                    encode_ns,
                };
                if tx.send(meta).is_err() {
                    return (lag_us, Some("receiver stopped".into()));
                }
                let written = codec::write_frame(&mut writer, WireFormat::Binary, &payload)
                    .and_then(|()| writer.flush());
                if let Err(e) = written {
                    return (lag_us, Some(format!("send: {e}")));
                }
            }
            (lag_us, None)
        });

        let mut reader = BufReader::new(&read_half);
        for (received, meta) in rx.iter().enumerate() {
            let inflight = sent_count.load(Ordering::Relaxed) - received as u64;
            wire.inflight_max = wire.inflight_max.max(inflight);
            let frame = codec::read_frame(&mut reader);
            let read_at = Instant::now();
            let resp = match frame {
                Ok(Some((fmt, payload))) => codec::payload_to_value(fmt, &payload)
                    .map_err(|e| e.to_string())
                    .and_then(|v| SolveResponse::from_value(&v).map_err(|e| e.to_string())),
                Ok(None) => Err("server closed the connection".into()),
                Err(e) => Err(format!("read: {e:?}")),
            };
            let done = Instant::now();
            match resp {
                Ok(resp) => {
                    last_done = done;
                    wire.received.push(Received {
                        meta,
                        resp,
                        read_at,
                        done,
                    });
                }
                Err(e) => {
                    wire.transport = Some(format!("request {}: {e}", meta.index as u64 + id_base));
                    // unblock the sender and stop: the stream is unusable
                    let _ = read_half.shutdown(Shutdown::Both);
                    break;
                }
            }
        }
        drop(rx);
        match sender.join() {
            Ok((lag, err)) => {
                wire.lag_us = lag;
                if wire.transport.is_none() {
                    wire.transport = err;
                }
            }
            Err(_) => wire.transport = Some("sender thread panicked".into()),
        }
    });
    wire.wall_s = (last_done - t0).as_secs_f64();
    wire
}

/// Checks every response of a pass and gathers its measurements.
fn settle(
    wire: Wire,
    requests: &Requests,
    id_base: u64,
    sample_seed: u64,
    cfg: &DiurnalConfig,
    traced: bool,
) -> Pass {
    let mut pass = Pass {
        due: requests.len(),
        responses: wire.received.len(),
        wall_s: wire.wall_s,
        latency_us: vec![f64::NAN; requests.len()],
        cost_bits: vec![None; requests.len()],
        lag_us: wire.lag_us,
        inflight_max: wire.inflight_max,
        transport: wire.transport,
        ..Pass::default()
    };
    for Received {
        meta,
        resp,
        read_at,
        done,
    } in wire.received
    {
        let (kind, req) = &requests[meta.index];
        let id = req.id + id_base;
        let bits = match check_response(*kind, req, id, &resp) {
            Ok(bits) => bits,
            Err(e) => {
                pass.failures.push(e);
                continue;
            }
        };
        pass.answered += 1;
        pass.latency_us[meta.index] = (done - meta.due).as_secs_f64() * 1e6;
        pass.cost_bits[meta.index] = Some(bits);
        let s = resp.schedule.as_ref().expect("checked");
        pass.cost += s.total_cost;
        pass.jobs += s.scheduled_count;
        if let Some(m) = resp.metrics {
            let solve = m.solve_micros as f64;
            pass.solve_us.push(solve);
            pass.residual_us
                .push((done - meta.sent).as_secs_f64() * 1e6 - solve);
            pass.cache_hits += usize::from(m.cache_hit);
        }
        if traced {
            pass.encode_us.push(meta.encode_ns as f64 / 1e3);
            pass.decode_us.push((done - read_at).as_secs_f64() * 1e6);
        }
        let with_id = || SolveRequest { id, ..req.clone() };
        if *kind == Kind::Dvfs {
            pass.dvfs.push((with_id(), bits));
        }
        if sub_seed(sample_seed, meta.index as u64).is_multiple_of(cfg.sample_every.max(1)) {
            pass.sample.push((with_id(), bits));
        }
    }
    pass
}

/// Re-solves DVFS requests with `solve_dvfs` (full validation) and a sample
/// of all requests on a fresh in-process engine, comparing cost bits with
/// what the server returned. Returns one description per mismatch.
fn cross_check(pass: &Pass) -> Vec<String> {
    let mut bad = Vec::new();
    for (req, bits) in &pass.dvfs {
        let (Some(ladder), inst) = (&req.freq_ladder, &req.instance) else {
            continue;
        };
        let d = DvfsInstance {
            num_processors: inst.num_processors,
            horizon: inst.horizon,
            wake_cost: req.restart,
            ladder: ladder.clone(),
            jobs: inst.jobs.clone(),
        };
        match solve_dvfs(&d) {
            Err(e) => bad.push(format!("dvfs request {}: in-process solve: {e}", req.id)),
            Ok(s) => {
                let v = validate_dvfs_schedule(&d, &s);
                if !v.is_empty() || s.completed(&d).len() != d.jobs.len() {
                    bad.push(format!("dvfs request {}: invalid schedule {v:?}", req.id));
                } else if s.total_cost.to_bits() != *bits {
                    bad.push(format!("dvfs request {}: cost differs from serve", req.id));
                }
            }
        }
    }
    let engine = Engine::new(ServeConfig::with_workers(1));
    let responses = engine.solve_batch(pass.sample.iter().map(|(r, _)| r.clone()));
    for ((req, bits), resp) in pass.sample.iter().zip(responses) {
        let same = resp.ok
            && resp
                .schedule
                .as_ref()
                .is_some_and(|s| s.total_cost.to_bits() == *bits);
        if !same {
            bad.push(format!(
                "request {}: solve_batch disagrees with serve",
                req.id
            ));
        }
    }
    bad
}

/// Books a pass's failures. Only the first pass of a run is cross-checked:
/// later passes send the same requests and must return the same cost bits.
fn record(out: &mut Outcome, pass: &Pass, first: Option<&Pass>) {
    out.attempted += pass.due as u64;
    for f in &pass.failures {
        out.fail(f.clone());
    }
    let unanswered = pass.due - pass.responses;
    if unanswered > 0 {
        let why = pass
            .transport
            .as_deref()
            .unwrap_or("unknown transport error");
        out.fail(format!("{unanswered} requests unanswered: {why}"));
        out.failed += unanswered as u64 - 1;
    }
    match first {
        None => {
            for f in cross_check(pass) {
                out.fail_check(f);
            }
        }
        Some(first) => {
            let differ = pass
                .cost_bits
                .iter()
                .zip(&first.cost_bits)
                .filter(|(a, b)| matches!((a, b), (Some(a), Some(b)) if a != b))
                .count();
            if differ > 0 {
                out.fail_check(format!("{differ} repeated requests changed cost"));
            }
        }
    }
}

fn pctl(samples: &[f64], q: f64) -> Option<(f64, usize)> {
    percentile(&sorted(samples), q).map(|v| (v, samples.len()))
}

/// Runs the workload.
pub fn run(cfg: &DiurnalConfig, args: &RunArgs, setup_repeats: usize) -> Outcome {
    let mut out = Outcome::default();
    // Set-up: the arrival schedule, then server boot, hello and warm-up.
    let gen_seed = sub_seed(args.seed, 12);
    let (setup, setup_s) = setup_phase(setup_repeats, || {
        let offsets = arrival_offsets(cfg, sub_seed(args.seed, 11), cfg.cycles_per_pass);
        let requests = build_requests(gen_seed, offsets.len());
        boot_and_warm(cfg, args.seed).map(|s| (s, offsets, requests))
    });
    let (server, offsets, requests) = match setup {
        Ok(s) => s,
        Err(e) => {
            out.fail_check(format!("set-up: {e}"));
            return out;
        }
    };
    let pass_s = cfg.cycle_s * cfg.cycles_per_pass as f64;
    // A traced run spends half its seconds untraced and half traced.
    let share = if args.trace { 0.5 } else { 1.0 };
    let passes = ((share * args.seconds / pass_s).floor() as usize).max(1);
    let ids = offsets.len() as u64;
    let mut runs: Vec<Pass> = Vec::with_capacity(passes);
    let mut traced: Vec<Pass> = Vec::new();
    let one_pass = |p: usize, traced: bool| {
        let base = p as u64 * ids;
        let wire = drive(server.addr, &requests, &offsets, base, traced);
        settle(wire, &requests, base, gen_seed, cfg, traced)
    };
    for p in 0..passes {
        let pass = one_pass(p, false);
        record(&mut out, &pass, runs.first());
        runs.push(pass);
    }
    if args.trace {
        for p in passes..2 * passes {
            let pass = one_pass(p, true);
            record(&mut out, &pass, runs.first());
            traced.push(pass);
        }
    }
    let lags = concat(runs.iter().chain(&traced), |p| &p.lag_us);
    if let Some((lag, _)) = pctl(&lags, 0.99) {
        if lag > cfg.lag_bound_us_p99 {
            out.invalid.push(format!(
                "generator lag p99 {lag:.0} us exceeds the {} us bound",
                cfg.lag_bound_us_p99
            ));
        }
    }

    if args.trace {
        per_layer(&mut out, &server, &runs, &traced);
        return out;
    }

    out.put("setup_s", setup_s, Some(setup_repeats));
    let rates: Vec<f64> = runs.iter().map(|p| p.answered as f64 / p.wall_s).collect();
    out.put(
        "throughput_per_s",
        median(&rates).unwrap_or(0.0),
        Some(passes),
    );
    // Each request's latency over the passes that answered it.
    let latencies: Vec<Vec<f64>> = (0..offsets.len())
        .map(|i| {
            runs.iter()
                .map(|p| p.latency_us[i])
                .filter(|v| !v.is_nan())
                .collect()
        })
        .collect();
    out.put_latencies(&latencies);
    let first = &runs[0];
    out.put(
        "energy_per_job",
        first.cost / first.jobs.max(1) as f64,
        Some(first.answered),
    );
    out
}

/// One sample vector gathered over several passes.
fn concat<'p>(passes: impl Iterator<Item = &'p Pass>, field: fn(&Pass) -> &Vec<f64>) -> Vec<f64> {
    passes.flat_map(|p| field(p).iter().copied()).collect()
}

fn per_layer(out: &mut Outcome, server: &Server, untraced: &[Pass], traced: &[Pass]) {
    let wall = |passes: &[Pass]| passes.iter().map(|p| p.wall_s).sum::<f64>();
    out.put(
        "trace.overhead",
        wall(traced) / wall(untraced),
        Some(traced.len()),
    );
    let need = "need 1,000 responses";
    let of = |field: fn(&Pass) -> &Vec<f64>, q| pctl(&concat(traced.iter(), field), q);
    out.put_required("engine.codec.encode_us", of(|p| &p.encode_us, 0.5), need);
    out.put_required("engine.codec.decode_us", of(|p| &p.decode_us, 0.5), need);
    out.put_required("engine.solve_us_p50", of(|p| &p.solve_us, 0.5), need);
    out.put_required("engine.solve_us_p99", of(|p| &p.solve_us, 0.99), need);
    out.put_required("engine.residual_us_p50", of(|p| &p.residual_us, 0.5), need);
    out.put_required("engine.residual_us_p99", of(|p| &p.residual_us, 0.99), need);
    out.put_required("engine.generator_lag_us_p99", of(|p| &p.lag_us, 0.99), need);
    let answered: usize = traced.iter().map(|p| p.answered).sum();
    let hits: usize = traced.iter().map(|p| p.cache_hits).sum();
    out.put(
        "engine.cache_hit_rate",
        hits as f64 / answered.max(1) as f64,
        Some(answered),
    );
    let inflight = traced.iter().map(|p| p.inflight_max).max().unwrap_or(0);
    out.put("engine.inflight_max", inflight as f64, Some(answered));
    // The server's own service-time histogram covers its whole life:
    // warm-up and every pass.
    let service = server.control("metrics").ok().flatten().and_then(|r| {
        r.obs?
            .histograms
            .into_iter()
            .find(|h| h.name == "engine.request.latency_ns")
    });
    let (p50, p99) = match service {
        Some(h) if h.count >= crate::stats::min_samples(0.99) as u64 => (
            Some((h.p50 as f64 / 1e3, h.count as usize)),
            Some((h.p99 as f64 / 1e3, h.count as usize)),
        ),
        _ => (None, None),
    };
    out.put_required("engine.service_us_p50", p50, "server histogram");
    out.put_required("engine.service_us_p99", p99, "server histogram");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DiurnalConfig {
        crate::config::Config::committed().engine_diurnal
    }

    #[test]
    fn requests_are_deterministic_and_never_repeat_an_instance() {
        let mut a = RequestGen::new(9);
        let mut b = RequestGen::new(9);
        let mut keys = HashSet::new();
        let mut kinds = Vec::new();
        for _ in 0..600 {
            let (ka, ra) = a.next_request();
            let (kb, rb) = b.next_request();
            assert_eq!(ka, kb);
            assert_eq!(ra.instance, rb.instance);
            assert!(ra.instance.validate().is_ok());
            assert!(
                keys.insert(format!("{:?}", ra.instance)),
                "repeated instance"
            );
            kinds.push(ka);
        }
        // every block of 100 holds each kind in exactly its share
        for block in kinds.chunks(100) {
            let mut from = 0;
            for &(below, kind) in &Kind::MIX {
                let n = block.iter().filter(|&&k| k == kind).count();
                assert_eq!(n as u32, below - from, "{kind:?}");
                from = below;
            }
        }
        assert_ne!(kinds[..100], kinds[100..200], "blocks are shuffled");
    }

    #[test]
    fn arrivals_follow_the_configured_absolute_rates() {
        let cfg = cfg();
        let a = arrival_offsets(&cfg, 5, 2);
        assert_eq!(a, arrival_offsets(&cfg, 5, 2), "same seed, same schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().copied().unwrap_or(0.0) < 2.0 * cfg.cycle_s);
        let mean = (cfg.low_rps + cfg.high_rps) / 2.0;
        let expect = mean * 2.0 * cfg.cycle_s;
        let got = a.len() as f64;
        assert!((got - expect).abs() < 0.1 * expect, "{got} vs {expect}");
        assert_eq!(rate_at(&cfg, 0.0), cfg.low_rps);
        assert!((rate_at(&cfg, cfg.cycle_s / 2.0) - cfg.high_rps).abs() < 1e-9);
    }

    /// Closed-loop capacity on this mix — how the absolute rates in
    /// `config.json` were chosen. Window 6 keeps as many requests in flight
    /// as the `serve` defaults hold (a queue of 2 per worker plus one in
    /// service per worker). Run with
    /// `cargo test --release -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn calibrate_closed_loop_capacity() {
        let cfg = cfg();
        let server = boot_and_warm(&cfg, 1).unwrap();
        let mut client = EngineClient::connect(server.addr, Transport::default()).unwrap();
        let mut gen = RequestGen::new(99);
        for window in [6, 32] {
            let total = 20_000;
            let t0 = Instant::now();
            let mut done = 0;
            while done < total {
                for _ in 0..window {
                    client.send(&gen.next_request().1).unwrap();
                }
                client.flush().unwrap();
                for _ in 0..window {
                    assert!(client.recv().unwrap().unwrap().ok);
                }
                done += window;
            }
            let rps = done as f64 / t0.elapsed().as_secs_f64();
            println!("closed-loop capacity, window {window}: {rps:.0} requests/s");
        }
    }
}
