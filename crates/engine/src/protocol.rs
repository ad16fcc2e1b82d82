//! The engine wire protocol: request/response schema, versioning, and the
//! compatibility policy.
//!
//! # Transports
//!
//! Protocol v3 speaks two framings over the same request/response schema,
//! chosen per connection by its **first byte** (see [`crate::codec`]):
//!
//! * **v3 frames** (the default for `batch --connect` and
//!   [`crate::client::EngineClient`]): `magic | u32 len | u8 format-tag |
//!   payload`, where the payload is the request object in compact binary
//!   (tag 2; the JSON-text tag 1 is withdrawn and answered with a `Parse`
//!   failure). The magic byte `0xB3` is outside ASCII, so no JSONL line can
//!   be mistaken for a frame.
//! * **JSONL** (versions 1/2, kept byte-compatible for `nc`/debug use):
//!   one JSON object per line, one response line per request line, in
//!   request order.
//!
//! # Request/response schema
//!
//! Two request shapes share a connection or batch file:
//!
//! * **solve requests** ([`SolveRequest`]) name a protocol `version`, a
//!   caller-chosen `id` (echoed back), a [`SolveMode`], the [`Instance`],
//!   and the affine cost parameters `restart`/`rate`. Optional fields —
//!   `profiles`, `policy` (`"all"` | `"single"` | `"maxlen:K"`),
//!   `target`/`epsilon` for the prize-collecting modes, `trace_id` — may be
//!   omitted entirely. Construct them with [`SolveRequest::builder`]. The
//!   retired `lazy`/`parallel` solver toggles are accepted and ignored on
//!   both transports: every solve runs the one lazy greedy, and a request
//!   carrying them gets the same schedule, bit for bit, as one without.
//! * **control requests** ([`ControlRequest`]) carry a `control` verb:
//!   `"ping"` (liveness probe), `"hello"` (capability negotiation — the ack
//!   carries [`HelloInfo`]), `"metrics"` (returns the engine's `obs/v1`
//!   telemetry snapshot in the ack's `obs` field), or `"shutdown"` (drain
//!   and stop a server).
//!
//! Every response is a [`SolveResponse`]: `ok` plus either a [`Schedule`]
//! and [`SolveMetrics`], or a structured [`WireError`] (`kind` + `message`).
//! Control requests are acknowledged with a schedule-less `ok` response
//! whose id echoes nothing (`0`).
//!
//! # Compatibility policy
//!
//! **What [`MIN_PROTOCOL_VERSION`] promises.** Any request stamped with a
//! version in `MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION` that uses only the
//! fields defined at that version is accepted and served with *unchanged
//! semantics*. A v1 JSONL line written against the first release still
//! parses, solves identically, and receives a response whose v1-era fields
//! mean what they always meant. Shrinking the window (raising
//! `MIN_PROTOCOL_VERSION`) is a breaking release decision, never a side
//! effect of a feature.
//!
//! **Additive fields vs. version bumps.** New capability ships as trailing
//! `Option` fields whenever possible: absent means the old behavior, both
//! sides ignore fields they do not know, and the version window does not
//! move. That is how v2's `profiles`, the `metrics` verb with the `obs`
//! response field, and `trace_id` landed. [`PROTOCOL_VERSION`] is bumped
//! only when a client may need to *assert* the new capability set — a new
//! transport, a new response the client must understand, or a changed
//! field meaning. The stamp is a capability floor, not a parse switch:
//! servers answer with their own version and old parsers keep working.
//!
//! **The v1 → v3 history.** v1: affine `(restart, rate)` costs over JSONL.
//! v2 (additive fields, window unchanged): per-processor `profiles`,
//! `metrics`/`obs` telemetry, `trace_id` propagation. v3 (this version):
//! length-prefixed binary framing with content negotiation, the `hello`
//! verb, and bounded-queue admission control — a v3 stamp tells the server
//! the client understands framed responses, [`ErrorKind::Overloaded`]
//! failures, and the `retry_after_ms` hint. The JSONL encoding of v1/v2 is
//! still accepted byte-for-byte.
//!
//! **v3 negotiation flow.**
//! 1. The client connects and sends either a frame (first byte `0xB3` →
//!    framed mode for the whole connection) or a JSON line (first byte
//!    `{` or anything else → legacy JSONL mode). Nothing is consumed
//!    speculatively; the server sniffs without committing.
//! 2. Optionally, the client's first request is the `hello` verb. The ack
//!    carries [`HelloInfo`] — the server's version window and supported
//!    payload formats — so a cautious client can downgrade before sending
//!    work. Clients that already know the server skip this round-trip.
//! 3. Every response is encoded in the connection's transport (JSONL
//!    requests get JSONL lines, frames get frames), so pipelining stays
//!    unambiguous.

use sched_core::{FreqLadder, Instance, PowerProfile, Schedule};
use sched_obs::Snapshot;
use serde::{Deserialize, Serialize, Value};

/// Version stamped on every request and response. Bump on any incompatible
/// change to the wire structs or transport (see the module-level
/// compatibility policy).
pub const PROTOCOL_VERSION: u32 = 3;

/// Oldest protocol version still accepted. v1 (affine costs, JSONL) is a
/// strict subset of v2 (profiles) which the v3 server still speaks
/// verbatim, so the whole window is served.
pub const MIN_PROTOCOL_VERSION: u32 = 1;

/// Is `version` within the accepted window?
#[inline]
pub fn version_supported(version: u32) -> bool {
    (MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&version)
}

/// Which solver goal method a request invokes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolveMode {
    /// Theorem 2.2.1: schedule every job.
    ScheduleAll,
    /// Theorem 2.3.1: schedule value `≥ (1−epsilon)·target`.
    PrizeCollecting,
    /// Theorem 2.3.3: schedule value `≥ target` exactly.
    PrizeCollectingExact,
}

/// One solve request.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SolveRequest {
    /// Protocol version; must be within the accepted window.
    pub version: u32,
    /// Caller-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Solver goal method.
    pub mode: SolveMode,
    /// The scheduling instance (validated engine-side before solving).
    pub instance: Instance,
    /// Affine cost: fixed wake-up cost `α` (ignored when `profiles` is
    /// present).
    pub restart: f64,
    /// Affine cost: energy per awake slot (ignored when `profiles` is
    /// present).
    pub rate: f64,
    /// Per-processor power profiles (protocol v2). `None` = the affine
    /// `(restart, rate)` model on every processor — the v1 behavior.
    pub profiles: Option<Vec<PowerProfile>>,
    /// Candidate policy (`"all"` | `"single"` | `"maxlen:K"`); `None` = all.
    pub policy: Option<String>,
    /// Target value `Z` — required by the prize-collecting modes.
    pub target: Option<f64>,
    /// `ε ∈ (0, 1)` for [`SolveMode::PrizeCollecting`]; default `0.1`.
    pub epsilon: Option<f64>,
    /// Caller-chosen trace id for cross-process tracing. The engine stamps
    /// a deterministic one (`req-<id>`) when absent and echoes it on
    /// success *and* failure responses; worker-side spans and decision
    /// events are tagged with it. Optional and trailing like `profiles`
    /// and `obs`, so older peers interoperate unchanged.
    pub trace_id: Option<String>,
    /// Discrete DVFS frequency ladder (additive v3 field). When present,
    /// jobs may carry `work` requirements and the engine solves the
    /// compiled speed-scaling problem, answering with the physical
    /// schedule plus per-interval `freq_levels`. Mutually exclusive with
    /// `profiles`. Absent = the fixed-shape behavior of v1/v2.
    pub freq_ladder: Option<FreqLadder>,
}

impl SolveRequest {
    /// Starts a request builder: [`SolveMode::ScheduleAll`] with zero affine
    /// costs and every optional field unset. Chain setters, then
    /// [`SolveRequestBuilder::build`]:
    ///
    /// ```
    /// use sched_engine::protocol::{SolveMode, SolveRequest};
    /// use sched_core::{Instance, Job, SlotRef};
    ///
    /// let inst = Instance::new(1, 4, vec![Job::unit(vec![SlotRef::new(0, 0)])]);
    /// let req = SolveRequest::builder(7, inst)
    ///     .affine(3.0, 1.0)
    ///     .trace_id("replay-7")
    ///     .build();
    /// assert_eq!(req.mode, SolveMode::ScheduleAll);
    /// assert_eq!(req.restart, 3.0);
    /// ```
    pub fn builder(id: u64, instance: Instance) -> SolveRequestBuilder {
        SolveRequestBuilder {
            req: SolveRequest {
                version: PROTOCOL_VERSION,
                id,
                mode: SolveMode::ScheduleAll,
                instance,
                restart: 0.0,
                rate: 0.0,
                profiles: None,
                policy: None,
                target: None,
                epsilon: None,
                trace_id: None,
                freq_ladder: None,
            },
        }
    }
}

/// Fluent constructor for [`SolveRequest`] — the one way to build requests
/// in-process (the wire shape itself stays a plain serde struct). Every
/// setter is optional; the starting state is a current-version
/// `ScheduleAll` over the given instance with zero affine costs.
#[derive(Clone, Debug)]
pub struct SolveRequestBuilder {
    req: SolveRequest,
}

impl SolveRequestBuilder {
    /// Overrides the stamped protocol version (compat tests; defaults to
    /// [`PROTOCOL_VERSION`]).
    pub fn version(mut self, version: u32) -> Self {
        self.req.version = version;
        self
    }

    /// Sets the solver goal method.
    pub fn mode(mut self, mode: SolveMode) -> Self {
        self.req.mode = mode;
        self
    }

    /// Sets the affine cost model: wake-up cost `α` and per-slot rate.
    pub fn affine(mut self, restart: f64, rate: f64) -> Self {
        self.req.restart = restart;
        self.req.rate = rate;
        self
    }

    /// Prices by explicit per-processor profiles (the v2 heterogeneous
    /// form; the affine `restart`/`rate` stamps are ignored engine-side).
    pub fn profiles(mut self, profiles: Vec<PowerProfile>) -> Self {
        self.req.profiles = Some(profiles);
        self
    }

    /// Sets the candidate policy (`"all"` | `"single"` | `"maxlen:K"`).
    pub fn policy(mut self, policy: impl Into<String>) -> Self {
        self.req.policy = Some(policy.into());
        self
    }

    /// Switches to [`SolveMode::PrizeCollecting`] with the given target
    /// (set [`epsilon`](Self::epsilon) separately; engine default `0.1`).
    pub fn prize_collecting(mut self, target: f64) -> Self {
        self.req.mode = SolveMode::PrizeCollecting;
        self.req.target = Some(target);
        self
    }

    /// Switches to [`SolveMode::PrizeCollectingExact`] with the given
    /// target.
    pub fn prize_collecting_exact(mut self, target: f64) -> Self {
        self.req.mode = SolveMode::PrizeCollectingExact;
        self.req.target = Some(target);
        self
    }

    /// Sets `ε` for [`SolveMode::PrizeCollecting`].
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.req.epsilon = Some(epsilon);
        self
    }

    /// Sets the caller's trace id.
    pub fn trace_id(mut self, trace_id: impl Into<String>) -> Self {
        self.req.trace_id = Some(trace_id.into());
        self
    }

    /// Prices by a discrete DVFS frequency ladder (additive v3 field; the
    /// affine `restart` stamp is the wake cost, `rate` is ignored).
    pub fn freq_ladder(mut self, ladder: FreqLadder) -> Self {
        self.req.freq_ladder = Some(ladder);
        self
    }

    /// Finishes the build.
    pub fn build(self) -> SolveRequest {
        self.req
    }
}

/// One control request (server-level verbs).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ControlRequest {
    /// Protocol version; must be within the accepted window.
    pub version: u32,
    /// `"ping"`, `"hello"`, `"metrics"`, or `"shutdown"`.
    pub control: String,
}

/// The server's capability card, carried on `hello` acks: the protocol
/// window it serves and the payload formats it decodes. Lets a client
/// negotiate down (or bail) before sending work.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HelloInfo {
    /// Newest protocol version the server speaks ([`PROTOCOL_VERSION`]).
    pub protocol: u32,
    /// Oldest version still accepted ([`MIN_PROTOCOL_VERSION`]).
    pub min_protocol: u32,
    /// Payload encodings the server accepts: `"binary"` frames plus
    /// `"jsonl"` for the legacy line transport.
    pub formats: Vec<String>,
}

impl HelloInfo {
    /// This build's capabilities.
    pub fn current() -> Self {
        Self {
            protocol: PROTOCOL_VERSION,
            min_protocol: MIN_PROTOCOL_VERSION,
            formats: vec!["binary".into(), "jsonl".into()],
        }
    }
}

/// Machine-readable failure category of a [`WireError`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorKind {
    /// The line or frame payload was not a well-formed request object.
    Parse,
    /// The request's protocol version is not supported.
    UnsupportedVersion,
    /// The request is well-formed but semantically invalid (bad policy,
    /// missing target, ε out of range, unknown control verb, …).
    BadRequest,
    /// The instance failed [`Instance::validate`].
    InvalidInstance,
    /// The solver proved the request infeasible (or the target exceeds the
    /// total instance value).
    Infeasible,
    /// The engine could not complete the request (worker failure).
    Internal,
    /// The request was shed by admission control: the bounded queue was
    /// full. The response's `retry_after_ms` carries the server's backoff
    /// hint. Retrying (after the hint) is always safe — the request was
    /// never solved.
    Overloaded,
}

/// Structured error carried by failed responses.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WireError {
    /// Failure category.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Convenience constructor.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        Self {
            kind,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.kind, self.message)
    }
}

/// Per-request engine measurements, reported on success.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SolveMetrics {
    /// Wall-clock time of the solve call itself, microseconds: the
    /// solver's goal method, or for a DVFS request the compile, solve and
    /// decompile of [`sched_core::solve_dvfs_counted`].
    pub solve_micros: u64,
    /// Finite-cost candidate intervals of the request's grid under its
    /// policy: the family every goal optimizes over. Counted in closed form
    /// when the price is affine or profiled (by enumeration where a horizon
    /// prices to ∞), and the compiled family's size for a DVFS request.
    pub candidates: u64,
    /// Worker index that served the request.
    pub worker: u32,
    /// Whether the worker already held a [`sched_core::Solver`] for the
    /// request's grid, price and policy, whose reduction buffers were
    /// reused. Always `false` for a DVFS request, which compiles and solves
    /// its own family and reuses nothing.
    pub cache_hit: bool,
}

/// One response.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SolveResponse {
    /// Protocol version of the responder.
    pub version: u32,
    /// Echo of the request id (`0` for control acks and unparseable lines).
    pub id: u64,
    /// Whether the request was served.
    pub ok: bool,
    /// The computed schedule, on success.
    pub schedule: Option<Schedule>,
    /// The failure, when `ok` is false.
    pub error: Option<WireError>,
    /// Engine measurements, on success.
    pub metrics: Option<SolveMetrics>,
    /// `obs/v1` telemetry snapshot, set only on `metrics` control acks.
    /// Optional and trailing, so v1/v2 clients that never send the verb
    /// parse every response exactly as before.
    pub obs: Option<Snapshot>,
    /// Echo of the request's trace id (engine-stamped when the request
    /// carried none), present on success *and* failure so clients can
    /// correlate either outcome with their traces. Optional and trailing
    /// like `obs`.
    pub trace_id: Option<String>,
    /// Backoff hint in milliseconds, set only on
    /// [`ErrorKind::Overloaded`] failures: the server's estimate of when
    /// queue space will exist again. Additive v3 field.
    pub retry_after_ms: Option<u64>,
    /// The server's capability card, set only on `hello` control acks.
    /// Additive v3 field.
    pub hello: Option<HelloInfo>,
    /// Frequency ladder level of each interval in `schedule.awake`
    /// (parallel arrays), set only on successful DVFS solves — a request
    /// that carried `freq_ladder`. Additive v3 field: ladder-free
    /// responses omit it and parse unchanged by v1/v2 clients.
    pub freq_levels: Option<Vec<u32>>,
}

impl SolveResponse {
    /// Successful response.
    pub fn success(id: u64, schedule: Schedule, metrics: SolveMetrics) -> Self {
        Self {
            version: PROTOCOL_VERSION,
            id,
            ok: true,
            schedule: Some(schedule),
            error: None,
            metrics: Some(metrics),
            obs: None,
            trace_id: None,
            retry_after_ms: None,
            hello: None,
            freq_levels: None,
        }
    }

    /// Failed response.
    pub fn failure(id: u64, error: WireError) -> Self {
        Self {
            version: PROTOCOL_VERSION,
            id,
            ok: false,
            schedule: None,
            error: Some(error),
            metrics: None,
            obs: None,
            trace_id: None,
            retry_after_ms: None,
            hello: None,
            freq_levels: None,
        }
    }

    /// An [`ErrorKind::Overloaded`] shed response with the server's
    /// retry-after hint.
    pub fn overloaded(id: u64, retry_after_ms: u64) -> Self {
        let mut resp = Self::failure(
            id,
            WireError::new(
                ErrorKind::Overloaded,
                "request shed: admission queue is full",
            ),
        );
        resp.retry_after_ms = Some(retry_after_ms);
        resp
    }

    /// Acknowledgement of a control request.
    pub fn control_ack() -> Self {
        Self {
            version: PROTOCOL_VERSION,
            id: 0,
            ok: true,
            schedule: None,
            error: None,
            metrics: None,
            obs: None,
            trace_id: None,
            retry_after_ms: None,
            hello: None,
            freq_levels: None,
        }
    }

    /// Same response with the trace id stamped (builder-style).
    pub fn with_trace_id(mut self, trace_id: impl Into<String>) -> Self {
        self.trace_id = Some(trace_id.into());
        self
    }

    /// Acknowledgement of a `metrics` control request, carrying the
    /// engine's telemetry snapshot.
    pub fn metrics_ack(snapshot: Snapshot) -> Self {
        Self {
            obs: Some(snapshot),
            ..Self::control_ack()
        }
    }

    /// Acknowledgement of a `hello` control request, carrying this build's
    /// capability card.
    pub fn hello_ack() -> Self {
        Self {
            hello: Some(HelloInfo::current()),
            ..Self::control_ack()
        }
    }
}

/// The key that makes a request object a [`ControlRequest`].
pub(crate) const CONTROL_KEY: &str = "control";

/// A parsed request: solve work or a control verb.
#[derive(Clone, Debug)]
pub enum WireRequest {
    /// A solve request (boxed: the instance dominates the size).
    Solve(Box<SolveRequest>),
    /// A control request.
    Control(ControlRequest),
}

/// Parses an already-decoded request value (the payload of a v3 frame)
/// into a [`WireRequest`].
///
/// Control objects are recognized first (they carry a `control` key a solve
/// request never has); anything else must deserialize as a
/// [`SolveRequest`]. A control request from an unknown protocol version is
/// rejected here with [`ErrorKind::UnsupportedVersion`] — its verb must
/// never be acted on. (Solve requests get the same version check
/// engine-side, before solving.)
pub fn parse_value(v: &Value) -> Result<WireRequest, WireError> {
    let is_control = matches!(v, Value::Object(_)) && v.field(CONTROL_KEY).is_ok();
    if is_control {
        let ctl = ControlRequest::from_value(v).map_err(|e| {
            WireError::new(ErrorKind::Parse, format!("malformed control request: {e}"))
        })?;
        if !version_supported(ctl.version) {
            return Err(WireError::new(
                ErrorKind::UnsupportedVersion,
                format!(
                    "control protocol version {} not supported \
                     (expected {MIN_PROTOCOL_VERSION}..={PROTOCOL_VERSION})",
                    ctl.version
                ),
            ));
        }
        return Ok(WireRequest::Control(ctl));
    }
    match SolveRequest::from_value(v) {
        Ok(req) => Ok(WireRequest::Solve(Box::new(req))),
        Err(e) => Err(WireError::new(
            ErrorKind::Parse,
            format!("malformed request: {e}"),
        )),
    }
}

/// Parses one JSONL line into a [`WireRequest`] (the legacy v1/v2
/// transport; framed payloads go through [`parse_value`] directly).
pub fn parse_line(line: &str) -> Result<WireRequest, WireError> {
    let v: Value = serde_json::from_str(line)
        .map_err(|e| WireError::new(ErrorKind::Parse, format!("malformed request line: {e}")))?;
    parse_value(&v)
}

/// Best-effort extraction of `(id, trace_id)` from a request value that
/// failed full parsing, so even a `Parse`-kind failure response can carry
/// the caller's correlation keys. Values that are not objects (or carry
/// ill-typed keys) yield `(0, None)` — the same id control acks use for
/// "no request".
pub fn value_correlation(v: &Value) -> (u64, Option<String>) {
    let id = v
        .field("id")
        .ok()
        .and_then(|f| u64::from_value(f).ok())
        .unwrap_or(0);
    let trace_id = v
        .field("trace_id")
        .ok()
        .and_then(|f| Option::<String>::from_value(f).ok())
        .flatten();
    (id, trace_id)
}

/// [`value_correlation`] for a raw JSONL line (non-JSON lines yield
/// `(0, None)`).
pub fn line_correlation(line: &str) -> (u64, Option<String>) {
    match serde_json::from_str::<Value>(line) {
        Ok(v) => value_correlation(&v),
        Err(_) => (0, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_core::{Job, SlotRef};

    fn tiny() -> Instance {
        Instance::new(1, 4, vec![Job::unit(vec![SlotRef::new(0, 1)])])
    }

    #[test]
    fn request_round_trips_through_json() {
        let req = SolveRequest::builder(42, tiny())
            .affine(3.0, 1.0)
            .prize_collecting(1.0)
            .epsilon(0.25)
            .build();
        let json = serde_json::to_string(&req).unwrap();
        let back: SolveRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back.id, 42);
        assert_eq!(back.mode, SolveMode::PrizeCollecting);
        assert_eq!(back.target, Some(1.0));
        assert_eq!(back.epsilon, Some(0.25));
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn builder_defaults_match_the_old_positional_shape() {
        // the builder with only affine costs set must produce exactly what
        // `schedule_all(id, inst, restart, rate)` used to: every optional
        // field unset, current version stamped
        let req = SolveRequest::builder(7, tiny()).affine(10.0, 1.0).build();
        assert_eq!(req.version, PROTOCOL_VERSION);
        assert_eq!(req.mode, SolveMode::ScheduleAll);
        assert_eq!((req.restart, req.rate), (10.0, 1.0));
        assert!(req.profiles.is_none() && req.policy.is_none());
        assert!(req.target.is_none() && req.epsilon.is_none());
        assert!(req.trace_id.is_none() && req.freq_ladder.is_none());
    }

    #[test]
    fn optional_fields_may_be_omitted() {
        let line = r#"{"version":1,"id":7,"mode":"ScheduleAll","instance":{"num_processors":1,"horizon":2,"jobs":[{"value":1,"allowed":[{"proc":0,"time":0}]}]},"restart":3,"rate":1}"#;
        let req = match parse_line(line).unwrap() {
            WireRequest::Solve(r) => r,
            other => panic!("expected solve, got {other:?}"),
        };
        assert_eq!(req.id, 7);
        assert!(req.policy.is_none() && req.target.is_none() && req.trace_id.is_none());
    }

    #[test]
    fn v1_lines_without_profiles_still_parse() {
        // the exact shape every pre-profile client sends: version 1, no
        // `profiles` key — must keep parsing as the affine default
        let line = r#"{"version":1,"id":3,"mode":"ScheduleAll","instance":{"num_processors":1,"horizon":2,"jobs":[{"value":1,"allowed":[{"proc":0,"time":0}]}]},"restart":3,"rate":1}"#;
        let req = match parse_line(line).unwrap() {
            WireRequest::Solve(r) => r,
            other => panic!("expected solve, got {other:?}"),
        };
        assert_eq!(req.version, 1);
        assert!(req.profiles.is_none());
        assert!(version_supported(1) && version_supported(PROTOCOL_VERSION));
        assert!(!version_supported(0) && !version_supported(PROTOCOL_VERSION + 1));
    }

    #[test]
    fn profiled_request_round_trips() {
        use sched_core::{PowerProfile, SleepState};
        let profiles = vec![PowerProfile::with_ladder(
            8.0,
            1.0,
            vec![SleepState {
                idle_rate: 0.25,
                wake_cost: 2.0,
            }],
        )];
        let req = SolveRequest::builder(11, tiny())
            .profiles(profiles.clone())
            .build();
        assert_eq!(req.version, PROTOCOL_VERSION);
        let json = serde_json::to_string(&req).unwrap();
        let back: SolveRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back.profiles, Some(profiles));
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn control_lines_are_recognized_first() {
        match parse_line(r#"{"version":1,"control":"shutdown"}"#).unwrap() {
            WireRequest::Control(c) => assert_eq!(c.control, "shutdown"),
            other => panic!("expected control, got {other:?}"),
        }
    }

    #[test]
    fn version_mismatched_control_is_rejected_not_acted_on() {
        let err = parse_line(r#"{"version":99,"control":"shutdown"}"#).unwrap_err();
        assert_eq!(err.kind, ErrorKind::UnsupportedVersion);
    }

    #[test]
    fn malformed_lines_yield_parse_errors() {
        let err = parse_line("{\"version\":1,").unwrap_err();
        assert_eq!(err.kind, ErrorKind::Parse);
        let err = parse_line("not json at all").unwrap_err();
        assert_eq!(err.kind, ErrorKind::Parse);
    }

    #[test]
    fn response_round_trips() {
        let resp = SolveResponse::failure(9, WireError::new(ErrorKind::BadRequest, "nope"));
        let json = serde_json::to_string(&resp).unwrap();
        let back: SolveResponse = serde_json::from_str(&json).unwrap();
        assert!(!back.ok);
        assert_eq!(back.error.as_ref().unwrap().kind, ErrorKind::BadRequest);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn overloaded_response_carries_kind_and_hint() {
        let resp = SolveResponse::overloaded(5, 12);
        let json = serde_json::to_string(&resp).unwrap();
        let back: SolveResponse = serde_json::from_str(&json).unwrap();
        assert!(!back.ok);
        assert_eq!(back.id, 5);
        assert_eq!(back.error.as_ref().unwrap().kind, ErrorKind::Overloaded);
        assert_eq!(back.retry_after_ms, Some(12));
    }

    #[test]
    fn hello_ack_carries_the_capability_card() {
        let resp = SolveResponse::hello_ack();
        let json = serde_json::to_string(&resp).unwrap();
        let back: SolveResponse = serde_json::from_str(&json).unwrap();
        assert!(back.ok);
        let hello = back.hello.expect("hello info");
        assert_eq!(hello.protocol, PROTOCOL_VERSION);
        assert_eq!(hello.min_protocol, MIN_PROTOCOL_VERSION);
        assert_eq!(hello.formats, ["binary", "jsonl"]);
    }

    #[test]
    fn parse_value_classifies_solve_and_control() {
        let req = SolveRequest::builder(4, tiny()).affine(2.0, 1.0).build();
        match parse_value(&req.to_value()).unwrap() {
            WireRequest::Solve(r) => assert_eq!(r.id, 4),
            other => panic!("expected solve, got {other:?}"),
        }
        let ctl = ControlRequest {
            version: PROTOCOL_VERSION,
            control: "hello".into(),
        };
        match parse_value(&ctl.to_value()).unwrap() {
            WireRequest::Control(c) => assert_eq!(c.control, "hello"),
            other => panic!("expected control, got {other:?}"),
        }
        assert_eq!(
            parse_value(&Value::Str("nope".into())).unwrap_err().kind,
            ErrorKind::Parse
        );
    }

    #[test]
    fn correlation_survives_malformed_requests() {
        assert_eq!(
            line_correlation(r#"{"id":9,"trace_id":"t-9","mode":"Bogus"}"#),
            (9, Some("t-9".into()))
        );
        assert_eq!(line_correlation("not json"), (0, None));
        assert_eq!(value_correlation(&Value::Null), (0, None));
    }
}
