//! # sched-engine — a sharded, multi-threaded batch-solving engine
//!
//! `sched-core` solves one instance per call. This crate turns that library
//! into a *service*: a long-lived [`Engine`] that accepts a stream of
//! [`SolveRequest`]s, shards them across a fixed pool of worker threads,
//! keeps one [`Solver`] per grid, price and policy on each worker (so
//! consecutive requests rebuild one reduction in place), and reports
//! per-request [`SolveMetrics`]. It backs the `power-sched batch` and
//! `power-sched serve` CLI modes.
//!
//! ```text
//!                     ┌──────────────────────────────────────────────┐
//!   v3 frames or ──►  │                 Engine                       │
//!   JSONL lines       │  bounded queue ──┬── worker 0 ── keyed       │
//!   (file, stdin,     │  (backpressure   ├── worker 1    Solver      │
//!    TCP socket)      │   or shedding)   └── worker N    cache       │
//!                     └──────────────┬───────────────────────────────┘
//!   responses ◄── tickets, resolved in submission order
//! ```
//!
//! ## Wire protocol v3 (framed binary, negotiated)
//!
//! Since protocol v3 the default transport is a length-prefixed binary
//! frame:
//!
//! ```text
//! ┌──────────┬────────────┬──────────┬───────────────┐
//! │ magic    │ len: u32   │ tag: u8  │ payload       │
//! │ B3 50    │ LE, payload│ 2=binary │ (len bytes)   │
//! │          │ bytes      │          │               │
//! └──────────┴────────────┴──────────┴───────────────┘
//! ```
//!
//! The payload is one request/response object, encoded with the compact
//! field-tagged binary codec in [`codec`]. The server *negotiates per
//! connection by sniffing the first byte* — `0xB3` never begins a JSONL
//! line, so framed and line clients share one port — and answers in the
//! connection's transport. The `hello` control verb returns a capability
//! card ([`HelloInfo`]) for clients that want explicit negotiation. Legacy
//! JSONL (v1/v2) remains fully supported: one JSON object per line, one
//! response line per request line, in request order — handy with `nc` for
//! debugging.
//! See [`protocol`] for the schema, versioning, and the compatibility
//! policy, and [`client::EngineClient`] for the canonical client.
//!
//! A minimal JSONL request (still accepted verbatim):
//!
//! ```json
//! {"version":1,"id":1,"mode":"ScheduleAll",
//!  "instance":{"num_processors":1,"horizon":4,
//!              "jobs":[{"value":1,"allowed":[{"proc":0,"time":0}]}]},
//!  "restart":3,"rate":1}
//! ```
//!
//! ## In-process use
//!
//! ```
//! use sched_core::{Instance, Job, SlotRef};
//! use sched_engine::{Engine, EngineConfig, SolveRequest};
//!
//! let engine = Engine::new(EngineConfig::with_workers(2));
//! let inst = Instance::new(1, 4, vec![Job::unit(vec![SlotRef::new(0, 0)])]);
//! let responses = engine.solve_batch(vec![
//!     SolveRequest::builder(1, inst).affine(10.0, 1.0).build(),
//! ]);
//! assert!(responses[0].ok);
//! assert_eq!(responses[0].schedule.as_ref().unwrap().scheduled_count, 1);
//! ```
//!
//! ## Guarantees
//!
//! * **Determinism** — worker scheduling never affects results: each request
//!   is solved by one worker with the same deterministic greedy the library
//!   exposes, so batch output is bit-identical to the free functions over
//!   the enumerated family (asserted by integration tests).
//! * **Order** — [`Engine::solve_batch`] and the server's per-connection
//!   writer resolve tickets in submission order.
//! * **Backpressure or shedding** — the request queue is bounded. By
//!   default producers block instead of buffering unboundedly; a server
//!   started with a shed policy instead answers excess load with structured
//!   `Overloaded` responses carrying a `retry_after_ms` hint (see
//!   [`ShedPolicy`] and [`ServeOptions`]).
//!
//! [`Solver`]: sched_core::Solver

pub mod client;
pub mod codec;
pub mod engine;
pub mod protocol;
pub mod server;

pub use client::{EngineClient, Transport};
pub use codec::{read_frame, write_frame, FrameError, WireFormat, MAGIC, MAX_FRAME_LEN};
pub use engine::{AdmitResult, Engine, EngineConfig, ShedPolicy, Ticket};
pub use protocol::{
    parse_line, parse_value, ControlRequest, ErrorKind, HelloInfo, SolveMetrics, SolveMode,
    SolveRequest, SolveRequestBuilder, SolveResponse, WireError, WireRequest, PROTOCOL_VERSION,
};
pub use server::{serve, serve_with_options, ServeOptions};
