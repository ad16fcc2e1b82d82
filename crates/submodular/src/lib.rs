//! Submodular set functions and budgeted submodular maximization.
//!
//! This crate implements Section 2.1 of Zadimoghaddam (2010): *submodular
//! maximization with budget constraints*. Given a ground set `U`, a family of
//! allowable subsets `S₁..S_m ⊆ U` with costs `C₁..C_m`, a monotone submodular
//! utility `F : 2^U → ℝ` and a target `x`, the bicriteria greedy of
//! Lemma 2.1.2 finds a collection with utility ≥ `(1−ε)x` and cost at most
//! `O(B·log(1/ε))` whenever some collection of cost `B` achieves utility `x`.
//!
//! The greedy is exposed through the [`budgeted::BudgetedObjective`] trait so
//! that it runs unchanged on top of very different oracles: explicit set
//! systems over bitsets ([`budgeted::SetSystemObjective`]), the bipartite
//! matching-rank oracles used by the scheduling reduction (implemented in the
//! `sched-core` crate), and Set Cover ([`setcover`]), which the paper notes is
//! the special case recovering the classical `ln n + 1` greedy.
//!
//! Modules:
//! * [`bitset`] — dense fixed-capacity bitset used as the canonical subset
//!   representation (and by `sched-core` for its slot grids);
//! * [`functions`] — a library of set functions (coverage, facility location,
//!   budget-additive, cuts, …) with explicit monotonicity/submodularity
//!   metadata, shared with the secretary crate;
//! * [`budgeted`] — the Lemma 2.1.2 greedy (lazy, from upper bounds) plus
//!   iteration traces for the phase-structure experiments;
//! * [`setcover`] — Set Cover / Max-k-Cover adapters and the classical greedy
//!   guarantees.

pub mod bitset;
pub mod budgeted;
pub mod functions;
pub mod setcover;

pub use bitset::BitSet;
pub use budgeted::{
    budgeted_greedy, budgeted_greedy_in, budgeted_greedy_with, BudgetedObjective, GreedyBuffers,
    GreedyConfig, GreedyOutcome, IterRecord, SetSystemObjective,
};
pub use functions::SetFn;
