//! # sched-sim — discrete-event online scheduling simulator
//!
//! The paper's model is offline: every job is known up front. This crate
//! replays *timed arrival traces* ([`sched_core::trace::ArrivalTrace`] —
//! jobs revealed at release times) into pluggable online policies and
//! measures their **empirical competitive ratio** against the offline
//! solver stack, connecting the online half of the codebase (the secretary
//! algorithms) to the exact machinery of Chapter 2.
//!
//! * The simulator ([`replay`]) owns the clock and enforces causality: a
//!   [`Policy`] sees only released jobs through its [`SlotView`], and every
//!   [`SlotDecision`] is validated (no double-booking, no running on
//!   sleeping processors, no unreleased jobs).
//! * Energy accounting reuses the offline pricing: maximal awake runs are
//!   costed by the trace's affine model exactly as candidate intervals
//!   would be, and the finished replay is an ordinary
//!   [`sched_core::Schedule`] cross-checked through
//!   [`sched_core::simulate`]'s [`PowerTrace`](sched_core::PowerTrace).
//! * The ratio harness ([`replay_with_report`], [`replay_fleet`]) solves
//!   the offline instance — exactly (branch-and-bound) for small traces,
//!   with the greedy `O(log n)` [`schedule_all`](sched_core::schedule_all())
//!   otherwise —
//!   and emits JSON [`ReplayReport`]s; fleets parallelize across traces
//!   with bit-identical output at any worker count.
//!
//! ## Policies
//!
//! | Policy | Flag | Idea |
//! |---|---|---|
//! | [`GreedyWake`] | `greedy` | wake on demand, sleep when idle |
//! | [`ThresholdHiring`] | `hiring[:F]` | observe a demand prefix, commit via Dynkin's rule (`secretary`), then hold awake to the restart break-even |
//! | [`PeriodicResolve`] | `resolve[:K[:warm]]` | every `K` slots re-solve the revealed suffix with `schedule_all` — over the enumerated family, through one [`Solver`](sched_core::Solver) kept across checkpoints (`:warm`), or through a shared [`sched_engine::Engine`] — and follow the plan |
//!
//! ## Quickstart
//!
//! ```
//! use sched_core::trace::{ArrivalTrace, TimedJob};
//! use sched_sim::{replay_with_report, OfflineRef, PolicyKind};
//!
//! let trace = ArrivalTrace {
//!     name: "doc".into(),
//!     num_processors: 1,
//!     horizon: 6,
//!     restart: 3.0,
//!     rate: 1.0,
//!     jobs: vec![
//!         TimedJob::window(1.0, 0, 0, 0, 2),
//!         TimedJob::window(1.0, 3, 0, 3, 6),
//!     ],
//!     profiles: None,
//!     freq_ladder: None,
//! };
//! let mut policy = PolicyKind::Greedy.build(None);
//! let (report, _) = replay_with_report(&trace, policy.as_mut(), OfflineRef::Auto).unwrap();
//! assert_eq!(report.scheduled, 2);
//! assert!(report.ratio >= 1.0); // online never beats the offline optimum
//! ```

pub mod fleet;
pub mod policy;
pub mod replay;
pub mod report;

pub use fleet::{replay_fleet, FleetOptions};
pub use policy::{
    greedy_decision, GreedyWake, PeriodicResolve, Policy, PolicyKind, ResolveStats, SlotDecision,
    SlotView, ThresholdHiring,
};
pub use replay::{replay, ReplayOutcome, SimError};
pub use report::{offline_reference, replay_with_report, OfflineRef, ReplayReport};
