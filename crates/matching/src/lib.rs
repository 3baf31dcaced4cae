//! # bgpq-matching
//!
//! The pattern matchers of the `bgpq` workspace, over any
//! [`GraphAccess`](bgpq_graph::GraphAccess) and with optional candidate sets
//! supplied by the caller:
//!
//! * [`vf2`] — subgraph-isomorphism matching (the paper's `VF2` baseline): a
//!   backtracking search enumerating every injective mapping of the pattern
//!   into the data graph that preserves labels, predicates and edges;
//! * [`simulation`] — maximum graph simulation (the paper's `gsim` baseline,
//!   after Henzinger, Henzinger & Kopke);
//! * [`result`] — the match/relation types shared with the executors of
//!   `bgpq-core`.
//!
//! This crate knows nothing of access schemas. How a pattern node gets its
//! candidates from the indices of `A` is decided in `bgpq_core` alone: its
//! planner covers the pattern and its fetch probes the indices, and both
//! evaluation tiers built on them hand the candidates to these matchers —
//! `bVF2`/`bSim` on the fetched fragment `G_Q`, `optVF2`/`optgsim` on the
//! whole graph (`bgpq_core::exec`). All of them return the answer plain
//! `VF2`/`gsim` return on `G`: `VF2 = optVF2 = bVF2` and
//! `gsim = optgsim = bSim`. (This crate cannot intra-doc-link those items:
//! `bgpq-core` depends on `bgpq-matching`, not the other way around.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod result;
pub mod simulation;
pub mod vf2;

pub use result::{Match, MatchSet, SimulationRelation};
pub use simulation::{simulation_match, SimulationMatcher};
pub use vf2::{SubgraphMatcher, Vf2Config, Vf2Stats};
