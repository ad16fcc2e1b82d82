//! Bipartite matching substrate for submodular power scheduling.
//!
//! The scheduling algorithms of Zadimoghaddam (2010) reduce power-minimizing
//! scheduling to maximizing a *matching rank function* over a bipartite graph
//! `G = (X ∪ Y, E)`, where `X` holds time-slot/processor pairs and `Y` holds
//! jobs. For a subset `S ⊆ X`:
//!
//! * the **cardinality rank** `F(S)` is the maximum number of jobs matchable
//!   using only slots in `S` (Lemma 2.2.2 of the paper shows `F` is monotone
//!   submodular);
//! * the **weighted rank** `F(S)` is the maximum total value of jobs matchable
//!   using only slots in `S`, where each job carries a positive value
//!   (Lemma 2.3.2 shows this is also monotone submodular).
//!
//! This crate provides:
//!
//! * [`BipartiteGraph`] — a compact CSR representation with both-direction
//!   adjacency;
//! * [`hopcroft_karp()`] — an O(E·√V) maximum-cardinality matching used as
//!   an independent test oracle and for one-shot computations;
//! * [`MatchingOracle`] — the workhorse *incremental* oracle that maintains a
//!   maximum-weight matching under slot insertions, supports exact marginal
//!   gain queries `F(S ∪ T) − F(S)` without mutation (via an epoch-versioned
//!   scratch overlay, so gains parallelize with one scratch per thread), and
//!   transactional commit;
//! * [`hall`] — Hall-violator extraction, an infeasibility certificate naming
//!   a set of jobs that provably cannot all be scheduled.
//!
//! The key structural fact exploited throughout (it is exactly what the
//! paper's submodularity proofs expose): adding a single slot `v` to `S`
//! changes `F` by either zero or the value of a single job, realized by the
//! best alternating path starting at `v` and ending at an unsaturated job.

pub mod graph;
pub mod hall;
pub mod hopcroft_karp;
pub mod oracle;

pub use graph::{BipartiteGraph, BipartiteGraphBuilder};
pub use hall::hall_violator;
pub use hopcroft_karp::hopcroft_karp;
pub use oracle::{GainScratch, MatchingOracle, OracleBuffers, NONE};
