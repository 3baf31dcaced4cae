//! # bgpq-core
//!
//! Bounded query evaluation for the `bgpq` workspace — the heart of *Making
//! Pattern Queries Bounded in Big Graphs* (Cao, Fan, Huai, Huang, ICDE 2015).
//!
//! A pattern query `Q` is **effectively bounded** under an access schema `A`
//! when, for every graph `G |= A`, its answer can be computed from a fragment
//! `G_Q ⊆ G` whose size depends only on `Q` and `A`. This crate implements
//! the constructive pipeline behind that claim:
//!
//! * [`plan`] — decides effective boundedness and produces a [`QueryPlan`]:
//!   an ordered list of [`FetchStep`]s covering every pattern node with a
//!   constraint of the schema. Coverage is semantics-aware
//!   ([`Semantics::Isomorphism`] vs [`Semantics::Simulation`]);
//! * [`fetch`] — executes a plan over an
//!   [`AccessIndexSet`](bgpq_access::AccessIndexSet), fetching candidate
//!   sets through index lookups only and inducing the bounded fragment
//!   `G_Q` as a [`Subgraph`](bgpq_graph::Subgraph);
//! * [`exec`] — the bounded executors [`bounded_subgraph_match`] (`bVF2`)
//!   and [`bounded_simulation_match`] (`bSim`), which run the
//!   `bgpq-matching` algorithms directly on a zero-copy
//!   [`FragmentView`](bgpq_graph::FragmentView) of `G_Q` (built into a
//!   reusable [`ScratchArena`](bgpq_graph::ScratchArena) — no fragment
//!   materialization, no id remapping), returning answers that are
//!   **identical** to whole-graph `VF2` / `gsim`; and the index-seeded
//!   baselines [`opt_subgraph_match`] (`optVF2`) and
//!   [`opt_simulation_match`] (`optgsim`), the same matchers on the whole
//!   graph from [`seeded_candidates`]: the same fetch, through the plan or
//!   the partial plan a [`PlanError`] carries.
//!
//! How a pattern node gets its candidates from the indices is decided here
//! alone. The cross-algorithm equivalence suite in `tests/equivalence.rs`
//! asserts the identity on generated workloads: `VF2 = optVF2 = bVF2` and
//! `gsim = optgsim = bSim`, node for node.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod fetch;
pub mod plan;

#[cfg(test)]
mod opt_simulation;
#[cfg(test)]
mod opt_vf2;

pub use exec::{
    bounded_simulation_match, bounded_simulation_match_prefetched, bounded_subgraph_match,
    bounded_subgraph_match_prefetched, opt_simulation_match, opt_subgraph_match, plan_for_indices,
    BoundedRun,
};
pub use fetch::{
    execute_plan, fetch_candidate_sets, seeded_candidates, CandidateSet, FetchResult, FetchStats,
    LookupMemo,
};
pub use plan::{plan_query, plan_query_filtered, FetchStep, PlanError, QueryPlan, Semantics};
