//! The sharded solving engine: a fixed pool of worker threads pulling
//! [`SolveRequest`]s off one bounded queue.
//!
//! # Design
//!
//! * **Sharding** — workers share a single bounded deque behind a mutex
//!   (work stealing by contention: whichever worker is idle takes the next
//!   request). A fast producer either blocks in [`Engine::submit`]
//!   (backpressure — the batch path) or goes through [`Engine::admit`],
//!   which never blocks: when the queue is full it *sheds* per a
//!   [`ShedPolicy`] — reject the newcomer, or answer the oldest queued
//!   request with a structured [`ErrorKind::Overloaded`] response and
//!   admit the newcomer in its place. Either way memory stays bounded and
//!   every request gets an answer; nothing is silently dropped.
//! * **Retry hints** — shed responses carry `retry_after_ms`, estimated
//!   from an EWMA of recent request latency times the current backlog per
//!   worker — roughly "when will a queue slot exist again".
//! * **Solver reuse** — what an affine or profiled request can reuse
//!   depends only on `(processors, horizon, cost, policy)`, not on the
//!   jobs. Each worker keeps a keyed cache of up to 64 [`Solver`]s
//!   (`SOLVER_CACHE_CAPACITY`) — [`SolveMetrics::cache_hit`]
//!   reports a hit per response. Every goal runs on its key's solver: the
//!   reduction is rebuilt in place from the slot windows between
//!   consecutive requests on the same grid, enumerating no family, and a
//!   request repeating the previous one (instance, prices and goal) is
//!   answered from the previous result; bit-identical to a cold solve by
//!   construction. A DVFS request reuses nothing: it compiles its own
//!   family and solves it as [`sched_core::solve_dvfs`] does.
//! * **Ordering** — [`Engine::submit`] returns a [`Ticket`] per request;
//!   [`Engine::solve_batch`] / [`Engine::process_lines`] collect tickets in
//!   submission order, so batch output order always matches input order no
//!   matter which worker finished first.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use sched_core::{
    count_candidates, enumerate_candidates, is_valid_target, solve_dvfs_counted, validate_profiles,
    AffineCost, CandidatePolicy, DvfsInstance, DvfsSolveError, EnergyCost, FreqLadder, ProfileCost,
    Solver,
};
use sched_obs::{Gauge, Registry, Snapshot};

use crate::protocol::{
    line_correlation, parse_line, version_supported, ErrorKind, SolveMetrics, SolveMode,
    SolveRequest, SolveResponse, WireError, WireRequest, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION,
};

/// Sizing knobs for [`Engine::new`]; the default is one worker per core,
/// a queue of twice that depth, and no flight recorder.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineConfig {
    /// Worker threads. `0` means "one per available core".
    pub workers: usize,
    /// Bounded request-queue depth. `0` means `2 × workers`.
    pub queue_depth: usize,
    /// Flight recorder: when set, the engine owns a small bounded
    /// [`Tracer`](sched_obs::trace::Tracer) ring (last
    /// [`sched_obs::trace::FLIGHT_CAPACITY`] events per thread), every
    /// worker records its spans and decision events into it, and the last
    /// events are dumped to stderr on request failure, accept-loop error
    /// bursts, and graceful shutdown. Shed events are recorded into it too.
    pub flight_recorder: bool,
}

impl EngineConfig {
    /// Config with an explicit worker count (other knobs defaulted).
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers,
            ..Self::default()
        }
    }

    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

/// What [`Engine::admit`] does when the bounded queue is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Shed the *newcomer*: the admitted request is answered immediately
    /// with [`ErrorKind::Overloaded`]; the queue is untouched. Favors
    /// requests already accepted (FIFO fairness).
    Reject,
    /// Shed the *oldest* queued request (answering its ticket with
    /// [`ErrorKind::Overloaded`]) and admit the newcomer in its place.
    /// Favors fresh work — the oldest request has waited longest and is
    /// the most likely to have been abandoned by its client.
    Oldest,
}

impl std::str::FromStr for ShedPolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "reject" => Ok(ShedPolicy::Reject),
            "oldest" => Ok(ShedPolicy::Oldest),
            other => Err(format!(
                "unknown shed policy '{other}' (expected reject or oldest)"
            )),
        }
    }
}

impl std::fmt::Display for ShedPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ShedPolicy::Reject => "reject",
            ShedPolicy::Oldest => "oldest",
        })
    }
}

/// Outcome of a non-blocking [`Engine::admit`].
pub enum AdmitResult {
    /// The request is queued; the ticket resolves to its response (which
    /// may still be `Overloaded` if a later `Oldest`-policy admission
    /// sheds it while it waits).
    Admitted(Ticket),
    /// The request was shed at the door ([`ShedPolicy::Reject`] with a
    /// full queue): here is its `Overloaded` response, ready to send.
    Shed(Box<SolveResponse>),
}

/// Claim on one submitted request's response.
pub struct Ticket {
    rx: mpsc::Receiver<SolveResponse>,
    id: u64,
}

impl Ticket {
    /// Blocks until the engine answers. Never panics: a dead worker yields a
    /// structured [`ErrorKind::Internal`] response.
    pub fn wait(self) -> SolveResponse {
        self.rx.recv().unwrap_or_else(|_| {
            SolveResponse::failure(
                self.id,
                WireError::new(ErrorKind::Internal, "engine worker dropped the request"),
            )
        })
    }
}

struct Job {
    req: Box<SolveRequest>,
    reply: mpsc::SyncSender<SolveResponse>,
}

/// The engine's bounded request queue. Hand-rolled (deque + condvars)
/// rather than `mpsc::sync_channel` because admission control needs two
/// things a channel cannot do: inspect fullness *atomically with* the
/// enqueue decision, and evict the oldest queued entry to answer it with
/// an `Overloaded` response ([`ShedPolicy::Oldest`]).
struct SharedQueue {
    capacity: usize,
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

enum Admission {
    /// Queued; with [`ShedPolicy::Oldest`] on a full queue, the evicted
    /// front entry rides along for the caller to answer.
    Admitted { victim: Option<Job> },
    /// Full queue under [`ShedPolicy::Reject`]: the job comes back.
    Rejected(Job),
}

impl SharedQueue {
    fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        // A worker that panicked mid-solve never holds this lock, and the
        // deque itself cannot be left inconsistent by any panic in here,
        // so a poisoned mutex is safe to keep using.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocking enqueue: waits for a slot (backpressure). After close the
    /// job is dropped, which resolves its ticket to a structured
    /// `Internal` failure.
    fn push_blocking(&self, job: Job) {
        let mut st = self.lock();
        while st.jobs.len() >= self.capacity && !st.closed {
            st = self
                .not_full
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if st.closed {
            return;
        }
        st.jobs.push_back(job);
        drop(st);
        self.not_empty.notify_one();
    }

    /// Non-blocking admission applying `policy` when full.
    fn try_admit(&self, job: Job, policy: ShedPolicy) -> Admission {
        let mut st = self.lock();
        if st.closed {
            return Admission::Admitted { victim: None }; // dropped job → Internal
        }
        if st.jobs.len() < self.capacity {
            st.jobs.push_back(job);
            drop(st);
            self.not_empty.notify_one();
            return Admission::Admitted { victim: None };
        }
        match policy {
            ShedPolicy::Reject => Admission::Rejected(job),
            ShedPolicy::Oldest => {
                let victim = st.jobs.pop_front().expect("full queue has a front");
                st.jobs.push_back(job);
                Admission::Admitted {
                    victim: Some(victim),
                }
            }
        }
    }

    /// Blocking dequeue; `None` once the queue is closed *and* drained.
    fn pop_blocking(&self) -> Option<Job> {
        let mut st = self.lock();
        loop {
            if let Some(job) = st.jobs.pop_front() {
                drop(st);
                self.not_full.notify_one();
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st = self
                .not_empty
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    fn len(&self) -> usize {
        self.lock().jobs.len()
    }
}

/// The worker pool. Dropping the engine (or calling [`Engine::shutdown`])
/// closes the queue and joins every worker after it drains in-flight work.
///
/// # Telemetry
///
/// The engine owns a *global* [`Registry`] (queue depth gauge, request
/// latency histogram, request counters, shed counters) plus one registry
/// per worker. Each worker installs its registry as the thread-ambient
/// one, so every metric the solver stack records (`core.*`,
/// `submodular.*`, `matching.*`, `engine.cache.*`) lands per-worker.
/// [`Engine::metrics_snapshot`] folds everything into one `obs/v1`
/// [`Snapshot`], worker rows prefixed `workerN.`.
pub struct Engine {
    queue: Arc<SharedQueue>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
    registry: Arc<Registry>,
    worker_registries: Vec<Arc<Registry>>,
    queue_depth: Arc<Gauge>,
    /// EWMA of request service latency (ns), updated by workers; feeds the
    /// `retry_after_ms` hint. Racy updates are fine — it is a hint.
    latency_ewma_ns: Arc<AtomicU64>,
    tracer: Option<Arc<sched_obs::trace::Tracer>>,
}

impl Engine {
    /// Spawns the worker pool.
    pub fn new(config: EngineConfig) -> Self {
        let workers = config.resolved_workers();
        let depth = if config.queue_depth > 0 {
            config.queue_depth
        } else {
            workers * 2
        };
        let registry = Arc::new(Registry::new());
        let queue_depth = registry.gauge("engine.queue.depth");
        let worker_registries: Vec<Arc<Registry>> =
            (0..workers).map(|_| Arc::new(Registry::new())).collect();
        let tracer = config
            .flight_recorder
            .then(|| Arc::new(sched_obs::trace::Tracer::flight_recorder()));
        let queue = Arc::new(SharedQueue::new(depth));
        let latency_ewma_ns = Arc::new(AtomicU64::new(0));
        let handles = (0..workers)
            .map(|worker_id| {
                let queue = Arc::clone(&queue);
                let global = Arc::clone(&registry);
                let local = Arc::clone(&worker_registries[worker_id]);
                let tracer = tracer.clone();
                let ewma = Arc::clone(&latency_ewma_ns);
                std::thread::Builder::new()
                    .name(format!("sched-engine-worker-{worker_id}"))
                    .spawn(move || {
                        worker_loop(worker_id as u32, &queue, global, local, tracer, &ewma)
                    })
                    .expect("spawn engine worker")
            })
            .collect();
        Self {
            queue,
            handles,
            workers,
            registry,
            worker_registries,
            queue_depth,
            latency_ewma_ns,
            tracer,
        }
    }

    /// The engine's flight-recorder tracer, when
    /// [`EngineConfig::flight_recorder`] was set. The serve loop records
    /// accept errors into it and dumps it on fatal accept bursts and
    /// graceful shutdown.
    pub fn tracer(&self) -> Option<&Arc<sched_obs::trace::Tracer>> {
        self.tracer.as_ref()
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Requests currently queued (excludes in-flight solves).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The engine-global registry (queue depth, request latency, accept
    /// errors, shed counters). Per-worker solver metrics live in the worker
    /// registries; use [`Engine::metrics_snapshot`] for the merged view.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// One merged `obs/v1` snapshot: the global registry's rows plus every
    /// worker registry's rows under a `workerN.` prefix.
    pub fn metrics_snapshot(&self) -> Snapshot {
        let mut snap = self.registry.snapshot();
        for (i, w) in self.worker_registries.iter().enumerate() {
            snap.merge_prefixed(&w.snapshot(), &format!("worker{i}."));
        }
        snap
    }

    /// Enqueues one request, blocking while the bounded queue is full
    /// (backpressure — the batch path). The returned [`Ticket`] resolves
    /// to the response. Serve connections use [`Engine::admit`] instead,
    /// which sheds rather than blocking the reader.
    pub fn submit(&self, req: SolveRequest) -> Ticket {
        let id = req.id;
        let (reply, rx) = mpsc::sync_channel(1);
        let job = Job {
            req: Box::new(req),
            reply,
        };
        self.queue_depth.add(1);
        self.queue.push_blocking(job);
        Ticket { rx, id }
    }

    /// Non-blocking admission with load shedding: when the queue is full,
    /// `policy` decides who gets the [`ErrorKind::Overloaded`] answer —
    /// the newcomer ([`ShedPolicy::Reject`], returned as
    /// [`AdmitResult::Shed`]) or the oldest queued request
    /// ([`ShedPolicy::Oldest`], whose *ticket* resolves to `Overloaded`
    /// while the newcomer is admitted). Shed responses carry a
    /// `retry_after_ms` hint; every shed increments
    /// `engine.shed.{reject|oldest}` and is recorded by the flight
    /// recorder.
    pub fn admit(&self, req: SolveRequest, policy: ShedPolicy) -> AdmitResult {
        let id = req.id;
        let trace_id = req.trace_id.clone();
        let (reply, rx) = mpsc::sync_channel(1);
        let job = Job {
            req: Box::new(req),
            reply,
        };
        match self.queue.try_admit(job, policy) {
            Admission::Admitted { victim: None } => {
                self.queue_depth.add(1);
                AdmitResult::Admitted(Ticket { rx, id })
            }
            Admission::Admitted {
                victim: Some(victim),
            } => {
                // net queue length unchanged: one in, one out
                let resp = self.shed_response(victim.req.id, victim.req.trace_id.clone(), policy);
                let _ = victim.reply.send(resp); // victim's ticket resolves now
                AdmitResult::Admitted(Ticket { rx, id })
            }
            Admission::Rejected(job) => {
                drop(job); // our own reply channel; the response goes back directly
                AdmitResult::Shed(Box::new(self.shed_response(id, trace_id, policy)))
            }
        }
    }

    /// Builds one `Overloaded` response and books the shed (counters +
    /// flight recorder).
    fn shed_response(
        &self,
        id: u64,
        trace_id: Option<String>,
        policy: ShedPolicy,
    ) -> SolveResponse {
        self.registry.counter("engine.shed").inc();
        self.registry
            .counter(&format!("engine.shed.{policy}"))
            .inc();
        if let Some(t) = &self.tracer {
            t.record_instant(
                "engine.shed",
                trace_id.as_deref(),
                vec![
                    ("id", id.into()),
                    ("policy", policy.to_string().into()),
                    ("queue_len", self.queue.len().into()),
                ],
            );
        }
        let resp = SolveResponse::overloaded(id, self.retry_after_hint_ms());
        match trace_id {
            Some(t) => resp.with_trace_id(t),
            None => resp,
        }
    }

    /// Estimated milliseconds until a queue slot frees up: current backlog
    /// per worker times the recent-latency EWMA. Floors at 1ms; before any
    /// request has completed the EWMA seed is 1ms per backlog entry.
    fn retry_after_hint_ms(&self) -> u64 {
        let ewma_ns = match self.latency_ewma_ns.load(Ordering::Relaxed) {
            0 => 1_000_000, // no completions yet: assume 1ms requests
            n => n,
        };
        let backlog = self.queue.len() as u64 + 1;
        let ns = ewma_ns.saturating_mul(backlog) / self.workers.max(1) as u64;
        (ns / 1_000_000).max(1)
    }

    /// Solves a batch concurrently; the output order matches the input
    /// order.
    pub fn solve_batch(
        &self,
        requests: impl IntoIterator<Item = SolveRequest>,
    ) -> Vec<SolveResponse> {
        // Submission interleaves with solving: the bounded queue blocks this
        // thread whenever the pool is saturated.
        let tickets: Vec<Ticket> = requests.into_iter().map(|r| self.submit(r)).collect();
        tickets.into_iter().map(Ticket::wait).collect()
    }

    /// Processes raw JSONL lines: solve lines are dispatched to the pool,
    /// malformed lines become structured [`ErrorKind::Parse`] failures, and
    /// control lines are rejected (they only make sense on a server
    /// connection). Blank lines are skipped. One response per non-blank
    /// line, in input order.
    pub fn process_lines<'l>(
        &self,
        lines: impl IntoIterator<Item = &'l str>,
    ) -> Vec<SolveResponse> {
        enum Pending {
            Ready(Box<SolveResponse>),
            InFlight(Ticket),
        }
        let pending: Vec<Pending> = lines
            .into_iter()
            .enumerate()
            .filter(|(_, line)| !line.trim().is_empty())
            .map(|(lineno, line)| match parse_line(line) {
                Ok(WireRequest::Solve(req)) => Pending::InFlight(self.submit(*req)),
                Ok(WireRequest::Control(ctl)) => Pending::Ready(Box::new(SolveResponse::failure(
                    0,
                    WireError::new(
                        ErrorKind::BadRequest,
                        format!(
                            "control request '{}' is only valid on a serve connection",
                            ctl.control
                        ),
                    ),
                ))),
                Err(mut e) => {
                    e.message = format!("line {}: {}", lineno + 1, e.message);
                    // best-effort correlation: a line that is valid JSON but
                    // not a valid request still gets its id/trace_id echoed
                    let (id, trace_id) = line_correlation(line);
                    let resp = SolveResponse::failure(id, e);
                    Pending::Ready(Box::new(match trace_id {
                        Some(t) => resp.with_trace_id(t),
                        None => resp,
                    }))
                }
            })
            .collect();
        pending
            .into_iter()
            .map(|p| match p {
                Pending::Ready(r) => *r,
                Pending::InFlight(t) => t.wait(),
            })
            .collect()
    }

    /// Closes the queue and joins every worker (also performed on drop).
    pub fn shutdown(self) {}
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.queue.close(); // workers exit once drained
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Distinct grid/cost/policy keys a worker's solver cache holds; the cache
/// is cleared when a new key finds it full.
const SOLVER_CACHE_CAPACITY: usize = 64;

/// Solver-cache key: everything a window build's prices depend on. Note
/// the job set is *not* part of the key — the grid is. Heterogeneous
/// requests key on the exact per-processor `(wake, busy)` parameter bits
/// (full equality, not a hash fingerprint, so a collision can never serve
/// another fleet's prices).
#[derive(Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    processors: u32,
    horizon: u32,
    restart_bits: u64,
    rate_bits: u64,
    /// Per-processor `(wake_cost, busy_rate)` bits for profiled requests
    /// (sleep ladders never affect interval pricing, so they stay out of
    /// the key); `None` for the affine default.
    profile_bits: Option<Vec<(u64, u64)>>,
    policy: CandidatePolicy,
}

type SolverCache = HashMap<CacheKey, Solver>;

fn worker_loop(
    worker_id: u32,
    queue: &SharedQueue,
    global: Arc<Registry>,
    local: Arc<Registry>,
    tracer: Option<Arc<sched_obs::trace::Tracer>>,
    ewma_ns: &AtomicU64,
) {
    // Everything the solver stack records ambiently on this thread lands in
    // the worker's own registry; cross-worker aggregates (queue depth,
    // request latency) go through handles on the global registry. The
    // shared flight recorder (if any) receives every span and decision
    // event this worker's solves emit.
    sched_obs::set_thread(Some(local));
    sched_obs::trace::set_thread(tracer);
    let queue_depth = global.gauge("engine.queue.depth");
    let requests = global.counter("engine.requests");
    let latency = global.histogram("engine.request.latency_ns");
    let mut cache = SolverCache::new();
    while let Some(job) = queue.pop_blocking() {
        queue_depth.add(-1);
        requests.inc();
        let t0 = Instant::now();
        let response = serve_request(worker_id, &mut cache, &job.req);
        let elapsed_ns = t0.elapsed().as_nanos() as u64;
        latency.record(elapsed_ns);
        // racy read-modify-write is fine: this feeds a hint, not a metric
        let prev = ewma_ns.load(Ordering::Relaxed);
        let next = if prev == 0 {
            elapsed_ns
        } else {
            prev - prev / 8 + elapsed_ns / 8
        };
        ewma_ns.store(next, Ordering::Relaxed);
        let _ = job.reply.send(response); // receiver may have hung up
    }
}

/// What a validated request asks the solver to do.
struct Plan {
    policy: CandidatePolicy,
    goal: Goal,
}

enum Goal {
    All,
    Prize { target: f64, epsilon: f64 },
    PrizeExact { target: f64 },
}

fn plan(req: &SolveRequest) -> Result<Plan, WireError> {
    if !version_supported(req.version) {
        return Err(WireError::new(
            ErrorKind::UnsupportedVersion,
            format!(
                "protocol version {} not supported \
                 (expected {MIN_PROTOCOL_VERSION}..={PROTOCOL_VERSION})",
                req.version
            ),
        ));
    }
    req.instance
        .validate()
        .map_err(|e| WireError::new(ErrorKind::InvalidInstance, e.to_string()))?;
    // The cost constructors assert their parameters; reject over the wire
    // instead of letting a bad request panic (and kill) a worker thread.
    if let Some(ladder) = &req.freq_ladder {
        if req.profiles.is_some() {
            return Err(WireError::new(
                ErrorKind::BadRequest,
                "freq_ladder and profiles are mutually exclusive",
            ));
        }
        if req.policy.is_some() {
            return Err(WireError::new(
                ErrorKind::BadRequest,
                "freq_ladder requests use the compiled DVFS candidate family; \
                 `policy` is not applicable",
            ));
        }
        if req.mode != SolveMode::ScheduleAll {
            return Err(WireError::new(
                ErrorKind::BadRequest,
                "freq_ladder requests support ScheduleAll only",
            ));
        }
        ladder.validate().map_err(|e| {
            WireError::new(ErrorKind::BadRequest, format!("invalid freq_ladder: {e}"))
        })?;
        if !(req.restart.is_finite() && req.restart >= 0.0) {
            return Err(WireError::new(
                ErrorKind::BadRequest,
                format!(
                    "wake cost (restart) must be finite and non-negative (got {})",
                    req.restart
                ),
            ));
        }
        return Ok(Plan {
            policy: CandidatePolicy::All,
            goal: Goal::All,
        });
    }
    if let Some(job) = req.instance.jobs.iter().position(|j| j.work_units() > 1) {
        return Err(WireError::new(
            ErrorKind::BadRequest,
            format!("job {job} declares a work requirement but the request has no freq_ladder"),
        ));
    }
    match &req.profiles {
        Some(profiles) => {
            validate_profiles(profiles, req.instance.num_processors)
                .map_err(|e| WireError::new(ErrorKind::BadRequest, e.to_string()))?;
        }
        None => {
            if !(req.restart.is_finite()
                && req.rate.is_finite()
                && req.restart >= 0.0
                && req.rate >= 0.0)
            {
                return Err(WireError::new(
                    ErrorKind::BadRequest,
                    format!(
                        "restart/rate must be finite and non-negative (got {}, {})",
                        req.restart, req.rate
                    ),
                ));
            }
            if req.restart + req.rate <= 0.0 {
                return Err(WireError::new(
                    ErrorKind::BadRequest,
                    "restart and rate cannot both be zero: awake intervals must cost something",
                ));
            }
        }
    }
    let policy = match &req.policy {
        None => CandidatePolicy::All,
        Some(s) => s
            .parse()
            .map_err(|e| WireError::new(ErrorKind::BadRequest, e))?,
    };
    let need_target = || {
        req.target.filter(|&t| is_valid_target(t)).ok_or_else(|| {
            WireError::new(
                ErrorKind::BadRequest,
                "prize-collecting modes require a finite positive `target`",
            )
        })
    };
    let goal = match req.mode {
        SolveMode::ScheduleAll => Goal::All,
        SolveMode::PrizeCollecting => {
            let epsilon = req.epsilon.unwrap_or(0.1);
            if !(epsilon > 0.0 && epsilon < 1.0) {
                return Err(WireError::new(
                    ErrorKind::BadRequest,
                    format!("epsilon {epsilon} outside (0, 1)"),
                ));
            }
            Goal::Prize {
                target: need_target()?,
                epsilon,
            }
        }
        SolveMode::PrizeCollectingExact => Goal::PrizeExact {
            target: need_target()?,
        },
    };
    Ok(Plan { policy, goal })
}

fn serve_request(worker_id: u32, cache: &mut SolverCache, req: &SolveRequest) -> SolveResponse {
    // Resolve the request's trace id (stamping a deterministic `req-<id>`
    // when the caller sent none) and make it this thread's ambient id for
    // the duration of the request, so every span and decision event the
    // solve emits — and the response, success or failure — carries it.
    let trace_id = req
        .trace_id
        .clone()
        .unwrap_or_else(|| format!("req-{}", req.id));
    sched_obs::trace::set_trace_id(Some(&trace_id));
    let response = {
        let _span = sched_obs::span!("engine.request_ns");
        serve_request_planned(worker_id, cache, req)
    };
    // Finite prices and values can still sum past `f64::MAX`. JSON has no
    // infinity, so such a schedule could not be written, and one
    // unwritable response would lose the rest of its batch: answer it as
    // a bad request, like any other input out of range.
    let response = match &response.schedule {
        Some(s) if !(s.total_cost.is_finite() && s.scheduled_value.is_finite()) => {
            SolveResponse::failure(
                req.id,
                WireError::new(
                    ErrorKind::BadRequest,
                    format!(
                        "the schedule's total_cost ({}) or scheduled_value ({}) is not \
                         finite: the request's prices or values are too large to sum",
                        s.total_cost, s.scheduled_value
                    ),
                ),
            )
        }
        _ => response,
    };
    if !response.ok {
        if let Some(t) = sched_obs::trace::active_tracer() {
            t.dump_to_stderr(&format!("request {} failed, trace_id={trace_id}", req.id));
        }
    }
    sched_obs::trace::set_trace_id(None);
    response.with_trace_id(trace_id)
}

fn serve_request_planned(
    worker_id: u32,
    cache: &mut SolverCache,
    req: &SolveRequest,
) -> SolveResponse {
    let plan = match plan(req) {
        Ok(p) => p,
        Err(e) => return SolveResponse::failure(req.id, e),
    };
    if let Some(ladder) = &req.freq_ladder {
        return serve_dvfs(worker_id, req, ladder);
    }

    // Pricing parameters a request's model ignores are normalized out of
    // the key — profiled requests ignore restart/rate — otherwise two
    // clients sending the same prices with different ignored fields would
    // double-occupy the bounded cache.
    let key = CacheKey {
        processors: req.instance.num_processors,
        horizon: req.instance.horizon,
        restart_bits: if req.profiles.is_some() {
            0
        } else {
            req.restart.to_bits()
        },
        rate_bits: if req.profiles.is_some() {
            0
        } else {
            req.rate.to_bits()
        },
        profile_bits: req.profiles.as_ref().map(|ps| {
            ps.iter()
                .map(|p| (p.wake_cost.to_bits(), p.busy_rate.to_bits()))
                .collect()
        }),
        policy: plan.policy,
    };
    // plan() has vetted the parameters, so neither constructor can assert
    let cost: Box<dyn EnergyCost> = match &req.profiles {
        Some(profiles) => Box::new(ProfileCost::new(profiles)),
        None => Box::new(AffineCost::new(req.restart, req.rate)),
    };
    let cache_hit = cache.contains_key(&key);
    sched_obs::counter_add(
        if cache_hit {
            "engine.cache.hits"
        } else {
            "engine.cache.misses"
        },
        1,
    );
    if !cache_hit {
        if cache.len() >= SOLVER_CACHE_CAPACITY {
            cache.clear(); // simplest bound; capacity is generous
        }
        cache.insert(key.clone(), Solver::new(plan.policy));
    }
    let solver = cache.get_mut(&key).expect("just inserted");
    // The wire reports the family's size, in closed form; where a horizon
    // prices to ∞ the closed form declines and enumeration counts it,
    // outside the solve timer.
    let instance = &req.instance;
    let candidates = count_candidates(instance, cost.as_ref(), plan.policy)
        .unwrap_or_else(|| enumerate_candidates(instance, cost.as_ref(), plan.policy).len() as u64);

    let t0 = Instant::now();
    let outcome = match plan.goal {
        Goal::All => solver.schedule_all(instance, cost.as_ref()),
        Goal::Prize { target, epsilon } => {
            solver.prize_collecting(instance, cost.as_ref(), target, epsilon)
        }
        Goal::PrizeExact { target } => {
            solver.prize_collecting_exact(instance, cost.as_ref(), target)
        }
    };
    let solve_micros = t0.elapsed().as_micros() as u64;

    match outcome {
        Ok(schedule) => SolveResponse::success(
            req.id,
            schedule,
            SolveMetrics {
                solve_micros,
                candidates,
                worker: worker_id,
                cache_hit,
            },
        ),
        Err(e) => {
            SolveResponse::failure(req.id, WireError::new(ErrorKind::Infeasible, e.to_string()))
        }
    }
}

/// Serves a DVFS request as [`sched_core::solve_dvfs`] solves its
/// instance: compile, the free `schedule_all` over the compiled family,
/// decompile. An instance the compiler refuses is a bad request, and an
/// infeasible one names the request's own jobs.
fn serve_dvfs(worker_id: u32, req: &SolveRequest, ladder: &FreqLadder) -> SolveResponse {
    let dvfs = DvfsInstance {
        num_processors: req.instance.num_processors,
        horizon: req.instance.horizon,
        wake_cost: req.restart,
        ladder: ladder.clone(),
        jobs: req.instance.jobs.clone(),
    };
    let t0 = Instant::now();
    let outcome = solve_dvfs_counted(&dvfs);
    let solve_micros = t0.elapsed().as_micros() as u64;
    let (schedule, candidates) = match outcome {
        Ok(solved) => solved,
        Err(e) => {
            let kind = match e {
                DvfsSolveError::Invalid(_) => ErrorKind::BadRequest,
                DvfsSolveError::Infeasible { .. } => ErrorKind::Infeasible,
            };
            return SolveResponse::failure(req.id, WireError::new(kind, e.to_string()));
        }
    };
    let (physical, freq_levels) = schedule.to_physical();
    let metrics = SolveMetrics {
        solve_micros,
        candidates: candidates as u64,
        worker: worker_id,
        cache_hit: false,
    };
    let mut resp = SolveResponse::success(req.id, physical, metrics);
    resp.freq_levels = Some(freq_levels);
    resp
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_core::{enumerate_candidates, Instance, Job as CoreJob, SlotRef};

    fn inst(t: u32) -> Instance {
        Instance::new(
            1,
            t,
            vec![
                CoreJob::unit(vec![SlotRef::new(0, 0)]),
                CoreJob::unit(vec![SlotRef::new(0, t - 1)]),
            ],
        )
    }

    fn schedule_all(id: u64, instance: Instance, restart: f64, rate: f64) -> SolveRequest {
        SolveRequest::builder(id, instance)
            .affine(restart, rate)
            .build()
    }

    /// A request heavy enough (dense 2×300 grid, 600 jobs) to occupy a
    /// worker for tens of milliseconds — long enough for a test thread to
    /// observably fill the queue behind it.
    fn stall_request(id: u64) -> SolveRequest {
        let t = 300;
        let jobs = (0..600)
            .map(|j| CoreJob::unit(vec![SlotRef::new((j % 2) as u32, (j as u32 / 2) % t)]))
            .collect();
        SolveRequest::builder(id, Instance::new(2, t, jobs))
            .affine(5.0, 1.0)
            .build()
    }

    #[test]
    fn batch_preserves_input_order_and_matches_direct_solves() {
        let engine = Engine::new(EngineConfig::with_workers(4));
        let requests: Vec<SolveRequest> = (0..24)
            .map(|i| schedule_all(1000 + i, inst(4 + (i % 5) as u32), 10.0, 1.0))
            .collect();
        let responses = engine.solve_batch(requests.clone());
        assert_eq!(responses.len(), 24);
        for (req, resp) in requests.iter().zip(&responses) {
            assert_eq!(resp.id, req.id, "order not preserved");
            assert!(resp.ok, "unexpected failure: {:?}", resp.error);
            let cost = AffineCost::new(req.restart, req.rate);
            let family = enumerate_candidates(&req.instance, &cost, CandidatePolicy::All);
            let direct =
                sched_core::schedule_all(&req.instance, &family, &Default::default()).unwrap();
            let got = resp.schedule.as_ref().unwrap();
            assert_eq!(got.total_cost, direct.total_cost, "cost mismatch");
        }
    }

    #[test]
    fn candidate_cache_hits_across_requests_on_same_grid() {
        let engine = Engine::new(EngineConfig::with_workers(1));
        let reqs: Vec<SolveRequest> = (0..6).map(|i| schedule_all(i, inst(6), 3.0, 1.0)).collect();
        let responses = engine.solve_batch(reqs);
        let hits: Vec<bool> = responses
            .iter()
            .map(|r| r.metrics.unwrap().cache_hit)
            .collect();
        assert!(!hits[0], "first request misses the cache");
        assert!(
            hits[1..].iter().all(|&h| h),
            "single worker must reuse its solver: {hits:?}"
        );
    }

    #[test]
    fn monotone_schedule_all_requests_enumerate_no_family() {
        use sched_core::PowerProfile;
        let engine = Engine::new(EngineConfig::with_workers(1));
        let fleet = vec![
            PowerProfile::affine(2.0, 1.0),
            PowerProfile::affine(3.0, 0.5),
        ];
        let grid = |id: u64| {
            let jobs = (0..6)
                .map(|j| CoreJob::unit(vec![SlotRef::new(j % 2, (3 * j + id as u32) % 16)]))
                .collect();
            SolveRequest::builder(id, Instance::new(2, 16, jobs))
        };
        let requests: Vec<SolveRequest> = (0..8)
            .map(|id| match id % 4 {
                0 => grid(id).affine(4.0, 1.0).build(),
                1 => grid(id).affine(4.0, 1.0).policy("maxlen:3").build(),
                2 => grid(id).affine(4.0, 1.0).policy("single").build(),
                _ => grid(id).profiles(fleet.clone()).build(),
            })
            .collect();
        let responses = engine.solve_batch(requests.clone());
        let enumerated = |engine: &Engine| {
            engine
                .metrics_snapshot()
                .counters
                .iter()
                .find(|c| c.name == "worker0.core.enumerate.candidates")
                .map_or(0, |c| c.value)
        };
        assert_eq!(enumerated(&engine), 0, "schedule-all built a family");
        // the wire still reports the family's size
        for (req, resp) in requests.iter().zip(&responses) {
            assert!(resp.ok, "{:?}", resp.error);
            let policy = plan(req).unwrap().policy;
            let cost: Box<dyn EnergyCost> = match &req.profiles {
                Some(fleet) => Box::new(ProfileCost::new(fleet)),
                None => Box::new(AffineCost::new(req.restart, req.rate)),
            };
            let family = enumerate_candidates(&req.instance, cost.as_ref(), policy);
            assert_eq!(resp.metrics.unwrap().candidates, family.len() as u64);
        }
        // prize goals on the same grid enumerate nothing either, and report
        // the same family size
        let prize = grid(9).affine(4.0, 1.0).prize_collecting(2.0).build();
        let exact = grid(10)
            .affine(4.0, 1.0)
            .prize_collecting_exact(2.0)
            .build();
        for resp in engine.solve_batch(vec![prize, exact]) {
            assert!(resp.ok, "{:?}", resp.error);
            assert_eq!(resp.metrics.unwrap().candidates, 272);
        }
        assert_eq!(enumerated(&engine), 0, "a prize goal built a family");
    }

    #[test]
    fn structured_errors_for_bad_requests() {
        let engine = Engine::new(EngineConfig::with_workers(2));

        let wrong_version = SolveRequest::builder(1, inst(4))
            .affine(3.0, 1.0)
            .version(99)
            .build();
        let mut missing_target = schedule_all(2, inst(4), 3.0, 1.0);
        missing_target.mode = SolveMode::PrizeCollecting;
        let bad_policy = SolveRequest::builder(3, inst(4))
            .affine(3.0, 1.0)
            .policy("bogus")
            .build();
        let mut bad_instance = schedule_all(4, inst(4), 3.0, 1.0);
        bad_instance.instance.jobs[0].allowed[0].time = 99;
        let infeasible = SolveRequest::builder(5, inst(4))
            .affine(3.0, 1.0)
            .prize_collecting_exact(50.0)
            .build();

        let responses = engine.solve_batch(vec![
            wrong_version,
            missing_target,
            bad_policy,
            bad_instance,
            infeasible,
        ]);
        let kinds: Vec<ErrorKind> = responses
            .iter()
            .map(|r| r.error.as_ref().expect("all must fail").kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                ErrorKind::UnsupportedVersion,
                ErrorKind::BadRequest,
                ErrorKind::BadRequest,
                ErrorKind::InvalidInstance,
                ErrorKind::Infeasible,
            ]
        );
        assert!(responses.iter().all(|r| !r.ok));
    }

    #[test]
    fn degenerate_cost_parameters_cannot_kill_workers() {
        // Regression: restart=rate=0 (or NaN) used to trip AffineCost::new's
        // assert inside a worker thread, killing it permanently.
        let engine = Engine::new(EngineConfig::with_workers(1));
        let zero = schedule_all(1, inst(4), 0.0, 0.0);
        let nan = schedule_all(2, inst(4), f64::NAN, 1.0);
        let negative = schedule_all(3, inst(4), -1.0, 1.0);
        let fine = schedule_all(4, inst(4), 3.0, 1.0);

        let responses = engine.solve_batch(vec![zero, nan, negative, fine]);
        for r in &responses[..3] {
            assert_eq!(r.error.as_ref().unwrap().kind, ErrorKind::BadRequest);
        }
        // the single worker survived the bad requests and still solves
        assert!(responses[3].ok, "{:?}", responses[3].error);
    }

    #[test]
    fn profiled_requests_solve_heterogeneously_and_cache_by_fleet() {
        use sched_core::PowerProfile;
        let engine = Engine::new(EngineConfig::with_workers(1));
        // one job runnable on either processor; proc 1 is much cheaper
        let instance = Instance::new(
            2,
            3,
            vec![CoreJob::unit(vec![SlotRef::new(0, 1), SlotRef::new(1, 1)])],
        );
        let cheap_p1 = vec![
            PowerProfile::affine(9.0, 2.0),
            PowerProfile::affine(1.0, 0.5),
        ];
        let cheap_p0 = vec![
            PowerProfile::affine(1.0, 0.5),
            PowerProfile::affine(9.0, 2.0),
        ];
        let profiled = |id: u64, profiles: Vec<PowerProfile>| {
            SolveRequest::builder(id, instance.clone())
                .profiles(profiles)
                .build()
        };
        let responses = engine.solve_batch(vec![
            profiled(1, cheap_p1.clone()),
            profiled(2, cheap_p1.clone()),
            profiled(3, cheap_p0),
            schedule_all(4, instance.clone(), 3.0, 1.0),
        ]);
        assert!(responses.iter().all(|r| r.ok), "{responses:?}");
        let placed = |r: &SolveResponse| {
            r.schedule.as_ref().unwrap().assignments[0]
                .as_ref()
                .unwrap()
                .proc
        };
        assert_eq!(placed(&responses[0]), 1, "cheap processor must win");
        assert_eq!(placed(&responses[2]), 0, "flipped fleet flips the pick");
        assert_eq!(responses[0].schedule.as_ref().unwrap().total_cost, 1.5);
        // identical fleets hit the cache; a different fleet must not
        let hits: Vec<bool> = responses
            .iter()
            .map(|r| r.metrics.unwrap().cache_hit)
            .collect();
        assert_eq!(hits, vec![false, true, false, false]);
        // matches a direct profiled solve
        let cost = ProfileCost::new(&cheap_p1);
        let family = enumerate_candidates(&instance, &cost, CandidatePolicy::All);
        let direct = sched_core::schedule_all(&instance, &family, &Default::default()).unwrap();
        assert_eq!(
            responses[0].schedule.as_ref().unwrap().total_cost,
            direct.total_cost
        );
    }

    #[test]
    fn invalid_profiles_are_rejected_not_fatal() {
        use sched_core::{PowerProfile, SleepState};
        let engine = Engine::new(EngineConfig::with_workers(1));
        // wrong count
        let short = SolveRequest::builder(
            1,
            Instance::new(2, 3, vec![CoreJob::unit(vec![SlotRef::new(0, 0)])]),
        )
        .profiles(vec![PowerProfile::affine(1.0, 1.0)])
        .build();
        // non-monotone ladder, built field-by-field as a hostile client would
        let mut bad_ladder = SolveRequest::builder(2, inst(3))
            .profiles(vec![PowerProfile::affine(4.0, 1.0)])
            .build();
        bad_ladder.profiles.as_mut().unwrap()[0].sleep_states = vec![
            SleepState {
                idle_rate: 0.2,
                wake_cost: 2.0,
            },
            SleepState {
                idle_rate: 0.5,
                wake_cost: 3.0,
            },
        ];
        let fine = schedule_all(3, inst(4), 3.0, 1.0);
        let responses = engine.solve_batch(vec![short, bad_ladder, fine]);
        assert_eq!(
            responses[0].error.as_ref().unwrap().kind,
            ErrorKind::BadRequest
        );
        assert!(responses[0]
            .error
            .as_ref()
            .unwrap()
            .message
            .contains("mismatch"));
        assert_eq!(
            responses[1].error.as_ref().unwrap().kind,
            ErrorKind::BadRequest
        );
        // the single worker survived both and still solves
        assert!(responses[2].ok, "{:?}", responses[2].error);
    }

    #[test]
    fn dvfs_requests_solve_and_return_freq_levels() {
        use sched_core::FreqLadder;
        let engine = Engine::new(EngineConfig::with_workers(1));
        // The documented greedy-vs-exact DVFS instance: P(1)=1, P(2)=4,
        // wake 1. Greedy stretches the bottom level first and lands at 9.
        let instance = Instance::new(
            1,
            3,
            vec![
                CoreJob::window(1.0, 0, 0, 1).with_work(2),
                CoreJob::window(1.0, 0, 1, 2),
                CoreJob::window(1.0, 0, 2, 3),
            ],
        );
        let ladder = FreqLadder::new(1.0, 0.0, 2.0, vec![1, 2]);
        let req = |id: u64, rate: f64| {
            SolveRequest::builder(id, instance.clone())
                .affine(1.0, rate)
                .freq_ladder(ladder.clone())
                .build()
        };
        // Same grid and restart, no ladder.
        let affine = schedule_all(
            4,
            Instance::new(1, 3, instance.jobs[1..].to_vec()),
            1.0,
            0.0,
        );
        let responses = engine.solve_batch(vec![req(1, 0.0), req(2, 0.0), req(3, 7.5), affine]);
        for resp in &responses[..3] {
            assert!(resp.ok, "{:?}", resp.error);
            let schedule = resp.schedule.as_ref().unwrap();
            assert_eq!(schedule.total_cost, 9.0);
            assert_eq!(schedule.scheduled_count, 3);
            let levels = resp.freq_levels.as_ref().expect("DVFS response levels");
            assert_eq!(levels.len(), schedule.awake.len());
            assert!(levels.iter().all(|&l| l < 2));
        }
        assert!(responses[3].ok, "{:?}", responses[3].error);
        assert!(responses[3].freq_levels.is_none());
        // a DVFS request compiles its own family and reuses nothing, and a
        // ladder-free request on the same grid and restart is a new key
        let hits: Vec<bool> = responses
            .iter()
            .map(|r| r.metrics.unwrap().cache_hit)
            .collect();
        assert_eq!(hits, vec![false; 4]);
        // each DVFS answer is the direct solve's, flattened to the wire
        let dvfs = DvfsInstance {
            num_processors: 1,
            horizon: 3,
            wake_cost: 1.0,
            ladder: ladder.clone(),
            jobs: instance.jobs.clone(),
        };
        let direct = sched_core::solve_dvfs(&dvfs).unwrap();
        assert_eq!(direct.total_cost, 9.0);
        let (physical, levels) = direct.to_physical();
        for resp in &responses[..3] {
            let got = resp.schedule.as_ref().unwrap();
            assert_eq!(got.awake, physical.awake);
            assert_eq!(got.assignments, physical.assignments);
            assert_eq!(resp.freq_levels.as_ref(), Some(&levels));
            // 1 processor × 2 levels × T(T+1)/2 intervals
            assert_eq!(resp.metrics.unwrap().candidates, 12);
        }
    }

    #[test]
    fn dvfs_infeasibility_names_the_request_jobs() {
        use sched_core::FreqLadder;
        // One job of work 4 with two allowed slots at frequency 1: two of
        // its four work units fit (the achieved value counts matched
        // units). The violator is that one job, not its compiled work
        // units, as `power-sched solve --freq-ladder` words it.
        let engine = Engine::new(EngineConfig::with_workers(1));
        let instance = Instance::new(1, 2, vec![CoreJob::window(1.0, 0, 0, 2).with_work(4)]);
        let req = SolveRequest::builder(1, instance)
            .affine(1.0, 0.0)
            .freq_ladder(FreqLadder::new(1.0, 0.0, 1.0, vec![1]))
            .build();
        let resp = engine.solve_batch(vec![req]).remove(0);
        let error = resp.error.expect("infeasible");
        assert_eq!(error.kind, ErrorKind::Infeasible);
        assert_eq!(
            error.message,
            "infeasible DVFS instance (achieved value 2; Hall violator of 1 jobs)"
        );
    }

    #[test]
    fn full_solver_cache_is_cleared_for_a_new_key() {
        // One worker, one grid per horizon: the 65th distinct grid finds
        // the cache full and clears it, so the first grid misses again and
        // the 65th, cached after the clear, still hits.
        let engine = Engine::new(EngineConfig::with_workers(1));
        let horizons: Vec<u32> = (0..=SOLVER_CACHE_CAPACITY as u32)
            .map(|k| 2 + k)
            .chain([2, 2 + SOLVER_CACHE_CAPACITY as u32])
            .collect();
        let requests: Vec<SolveRequest> = horizons
            .iter()
            .enumerate()
            .map(|(id, &t)| schedule_all(id as u64, inst(t), 3.0, 1.0))
            .collect();
        let hits: Vec<bool> = engine
            .solve_batch(requests)
            .iter()
            .map(|r| r.metrics.expect("solved").cache_hit)
            .collect();
        let mut want = vec![false; SOLVER_CACHE_CAPACITY + 2];
        want.push(true);
        assert_eq!(hits, want);
    }

    #[test]
    fn dvfs_misuse_is_rejected_not_fatal() {
        use sched_core::{FreqLadder, PowerProfile};
        let engine = Engine::new(EngineConfig::with_workers(1));
        let ladder = FreqLadder::new(1.0, 0.0, 2.0, vec![1, 2]);
        // ladder + profiles is ambiguous pricing
        let both = SolveRequest::builder(1, inst(4))
            .affine(1.0, 0.0)
            .freq_ladder(ladder.clone())
            .profiles(vec![PowerProfile::affine(3.0, 1.0)])
            .build();
        // a work requirement without a ladder has no frequency to run at
        let mut orphan_work = SolveRequest::builder(2, inst(4)).affine(3.0, 1.0).build();
        orphan_work.instance.jobs[0] = orphan_work.instance.jobs[0].clone().with_work(2);
        // prize-collecting over the compiled grid is not offered
        let mut prize = SolveRequest::builder(3, inst(4))
            .affine(1.0, 0.0)
            .prize_collecting(1.0)
            .build();
        prize.freq_ladder = Some(ladder);
        let fine = schedule_all(4, inst(4), 3.0, 1.0);
        let responses = engine.solve_batch(vec![both, orphan_work, prize, fine]);
        for r in &responses[..3] {
            assert_eq!(r.error.as_ref().unwrap().kind, ErrorKind::BadRequest);
        }
        assert!(responses[3].ok, "{:?}", responses[3].error);
    }

    #[test]
    fn v1_requests_still_served() {
        let engine = Engine::new(EngineConfig::with_workers(1));
        let v1 = SolveRequest::builder(7, inst(4))
            .affine(3.0, 1.0)
            .version(1)
            .build();
        let responses = engine.solve_batch(vec![v1]);
        assert!(responses[0].ok, "{:?}", responses[0].error);
        assert_eq!(responses[0].version, PROTOCOL_VERSION);
    }

    #[test]
    fn process_lines_interleaves_parse_errors_in_order() {
        let engine = Engine::new(EngineConfig::with_workers(2));
        let good = serde_json::to_string(&schedule_all(7, inst(4), 3.0, 1.0)).unwrap();
        let lines = [
            good.as_str(),
            "{\"truncated\":",
            "",
            good.as_str(),
            "{\"version\":1,\"control\":\"shutdown\"}",
        ];
        let responses = engine.process_lines(lines);
        assert_eq!(responses.len(), 4); // blank line skipped
        assert!(responses[0].ok);
        assert_eq!(responses[1].error.as_ref().unwrap().kind, ErrorKind::Parse);
        assert!(responses[1]
            .error
            .as_ref()
            .unwrap()
            .message
            .contains("line 2"));
        assert!(responses[2].ok);
        assert_eq!(
            responses[3].error.as_ref().unwrap().kind,
            ErrorKind::BadRequest
        );
    }

    #[test]
    fn all_three_modes_solve_through_the_pool() {
        let instance = Instance::new(
            1,
            4,
            vec![CoreJob::window(2.0, 0, 0, 2), CoreJob::window(3.0, 0, 2, 4)],
        );
        let requests = vec![
            schedule_all(1, instance.clone(), 1.0, 1.0),
            SolveRequest::builder(2, instance.clone())
                .affine(1.0, 1.0)
                .prize_collecting(3.0)
                .epsilon(0.25)
                .build(),
            SolveRequest::builder(3, instance.clone())
                .affine(1.0, 1.0)
                .prize_collecting_exact(5.0)
                .build(),
        ];
        let family =
            enumerate_candidates(&instance, &AffineCost::new(1.0, 1.0), CandidatePolicy::All);
        let opts = Default::default();
        let want = [
            sched_core::schedule_all(&instance, &family, &opts),
            sched_core::prize_collecting(&instance, &family, 3.0, 0.25, &opts),
            sched_core::prize_collecting_exact(&instance, &family, 5.0, &opts),
        ];
        // one worker runs the three goals in turn on one solver: each must
        // still get its own goal's answer
        for workers in [1, 3] {
            let engine = Engine::new(EngineConfig::with_workers(workers));
            let responses = engine.solve_batch(requests.clone());
            assert!(responses.iter().all(|r| r.ok), "{responses:?}");
            for (resp, want) in responses.iter().zip(&want) {
                let (got, want) = (resp.schedule.as_ref().unwrap(), want.as_ref().unwrap());
                assert_eq!(got.awake, want.awake, "request {}", resp.id);
                assert_eq!(got.total_cost.to_bits(), want.total_cost.to_bits());
            }
        }
        assert!(want[1].as_ref().unwrap().scheduled_value >= 0.75 * 3.0 - 1e-9);
        assert!(want[2].as_ref().unwrap().scheduled_value >= 5.0 - 1e-9);
    }

    #[test]
    fn tiny_queue_applies_backpressure_without_deadlock() {
        let engine = Engine::new(EngineConfig {
            workers: 2,
            queue_depth: 1,
            ..Default::default()
        });
        let responses = engine
            .solve_batch((0..40).map(|i| schedule_all(i, inst(3 + (i % 4) as u32), 2.0, 1.0)));
        assert_eq!(responses.len(), 40);
        assert!(responses.iter().all(|r| r.ok));
        let ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
        assert_eq!(ids, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn shared_queue_sheds_deterministically() {
        // the queue alone, no workers: admission decisions are exact
        let q = SharedQueue::new(2);
        let job = |id: u64| Job {
            req: Box::new(schedule_all(id, inst(4), 1.0, 1.0)),
            reply: mpsc::sync_channel(1).0,
        };
        assert!(matches!(
            q.try_admit(job(1), ShedPolicy::Reject),
            Admission::Admitted { victim: None }
        ));
        assert!(matches!(
            q.try_admit(job(2), ShedPolicy::Reject),
            Admission::Admitted { victim: None }
        ));
        // full: Reject bounces the newcomer, queue untouched
        match q.try_admit(job(3), ShedPolicy::Reject) {
            Admission::Rejected(j) => assert_eq!(j.req.id, 3),
            _ => panic!("expected rejection at capacity"),
        }
        assert_eq!(q.len(), 2);
        // full: Oldest evicts the front (id 1), admits the newcomer
        match q.try_admit(job(4), ShedPolicy::Oldest) {
            Admission::Admitted {
                victim: Some(victim),
            } => assert_eq!(victim.req.id, 1),
            _ => panic!("expected oldest-shed at capacity"),
        }
        assert_eq!(q.len(), 2);
        // FIFO order of the survivors, then clean close
        assert_eq!(q.pop_blocking().unwrap().req.id, 2);
        assert_eq!(q.pop_blocking().unwrap().req.id, 4);
        q.close();
        assert!(q.pop_blocking().is_none());
    }

    #[test]
    fn admit_sheds_structured_overloaded_under_reject() {
        let engine = Engine::new(EngineConfig {
            workers: 1,
            queue_depth: 1,
            ..Default::default()
        });
        // occupy the single worker for a while
        let stall = engine.submit(stall_request(0));
        // burst far past capacity without draining: depth 1 must shed most
        let mut admitted = Vec::new();
        let mut shed = 0u32;
        for i in 1..=50u64 {
            match engine.admit(schedule_all(i, inst(4), 2.0, 1.0), ShedPolicy::Reject) {
                AdmitResult::Admitted(t) => admitted.push(t),
                AdmitResult::Shed(resp) => {
                    assert!(!resp.ok);
                    assert_eq!(resp.id, i, "shed response echoes the newcomer's id");
                    assert_eq!(resp.error.as_ref().unwrap().kind, ErrorKind::Overloaded);
                    assert!(resp.retry_after_ms.unwrap() >= 1, "hint must be positive");
                    shed += 1;
                }
            }
        }
        assert!(shed > 0, "a burst of 50 into a depth-1 queue must shed");
        assert!(stall.wait().ok);
        // Reject never touches queued work: every admitted ticket solves
        for t in admitted {
            let r = t.wait();
            assert!(r.ok, "{:?}", r.error);
        }
        // sheds are counted
        let snap = engine.metrics_snapshot();
        let count = |name: &str| {
            snap.counters
                .iter()
                .find(|c| c.name == name)
                .map_or(0, |c| c.value)
        };
        assert_eq!(count("engine.shed"), u64::from(shed));
        assert_eq!(count("engine.shed.reject"), u64::from(shed));
    }

    #[test]
    fn admit_oldest_answers_the_victims_ticket_and_admits_the_newcomer() {
        let engine = Engine::new(EngineConfig {
            workers: 1,
            queue_depth: 1,
            ..Default::default()
        });
        let stall = engine.submit(stall_request(0));
        // wait until the worker has dequeued the stall, so the queue is
        // observably empty before the two admissions race nothing
        let t0 = Instant::now();
        while engine.queue_len() > 0 {
            assert!(t0.elapsed().as_secs() < 10, "worker never took the stall");
            std::thread::yield_now();
        }
        let first = match engine.admit(
            SolveRequest::builder(1, inst(4))
                .affine(2.0, 1.0)
                .trace_id("victim-1")
                .build(),
            ShedPolicy::Oldest,
        ) {
            AdmitResult::Admitted(t) => t,
            AdmitResult::Shed(r) => panic!("empty queue must admit: {r:?}"),
        };
        let second = match engine.admit(schedule_all(2, inst(4), 2.0, 1.0), ShedPolicy::Oldest) {
            AdmitResult::Admitted(t) => t,
            AdmitResult::Shed(r) => panic!("oldest policy never sheds the newcomer: {r:?}"),
        };
        // the first request was evicted: its ticket resolves to Overloaded
        // with its own correlation keys and a positive hint
        let victim = first.wait();
        assert!(!victim.ok);
        assert_eq!(victim.id, 1);
        assert_eq!(victim.error.as_ref().unwrap().kind, ErrorKind::Overloaded);
        assert_eq!(victim.trace_id.as_deref(), Some("victim-1"));
        assert!(victim.retry_after_ms.unwrap() >= 1);
        // the newcomer and the stall both solve
        assert!(stall.wait().ok);
        let r = second.wait();
        assert!(r.ok, "{:?}", r.error);
        let snap = engine.metrics_snapshot();
        let oldest = snap
            .counters
            .iter()
            .find(|c| c.name == "engine.shed.oldest")
            .map_or(0, |c| c.value);
        assert_eq!(oldest, 1);
    }
}
