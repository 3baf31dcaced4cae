//! # bgpq-engine
//!
//! The session-oriented query engine of the `bgpq` workspace — the single
//! public entry point over the pipeline of *Making Pattern Queries Bounded
//! in Big Graphs* (Cao, Fan, Huai, Huang, ICDE 2015).
//!
//! The lower crates expose the paper's pieces as free functions: deciding
//! effective boundedness ([`plan_query`]), fetching the bounded fragment
//! `G_Q` ([`execute_plan`]), and the matchers (`VF2`/`optVF2`/`bVF2`,
//! `gsim`/`optgsim`/`bSim`). A production caller serving many queries over
//! one graph should not hand-wire those per request; the [`Engine`] does it
//! once, per session:
//!
//! ```text
//!  QueryRequest ──► query cache (LRU, keyed by pattern fingerprint
//!       │            + semantics + snapshot version; one entry holds the
//!       │            plan or unbounded verdict, and the fetched fragment)
//!       ▼
//!  strategy selection ──► Bounded (bVF2/bSim)        when a plan exists
//!       │                 IndexSeeded (optVF2/optgsim)  else, with indices
//!       ▼                 Baseline (VF2/gsim)           always
//!  QueryResponse { answer, strategy, ExecStats, Explain? }
//! ```
//!
//! All strategies return identical answers — the engine trades cost, never
//! correctness — so callers get the paper's bounded evaluation whenever the
//! schema supports it and a graceful, *sound* fallback whenever it does
//! not.
//!
//! The crate re-exports the request-facing types of the whole workspace
//! (patterns, schemas, matchers, plans, the unified [`BgpqError`]), so
//! `bgpq-engine` is the only dependency an application needs; the free
//! functions remain available for callers that want to drive single steps
//! themselves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
mod cache;
pub mod engine;
pub mod error;
pub mod request;
pub mod response;
pub mod stats;
pub mod strategy;

pub use budget::BudgetPolicy;
pub use cache::{QueryCache, SharedResources, DEFAULT_CACHE_CAPACITY};
pub use engine::{Engine, INITIAL_SNAPSHOT_VERSION};
pub use error::BgpqError;
pub use request::{QueryRequest, QueryRequestBuilder};
pub use response::{Explain, QueryAnswer, QueryResponse};
pub use stats::{CacheOutcome, EngineStats, ExecStats};
pub use strategy::StrategyKind;

// The workspace's request-facing surface, re-exported so applications can
// depend on `bgpq-engine` alone.
pub use bgpq_access::{
    apply_delta, apply_deltas, check_schema, discover_schema, load_schema, load_snapshot,
    read_schema, read_snapshot, save_schema, save_snapshot, write_schema, write_snapshot,
    AccessConstraint, AccessIndexSet, AccessSchema, ConstraintId, ConstraintIndex, ConstraintKind,
    DiscoveryConfig, GraphDelta, MaintenanceStats, SnapshotBundle, TouchedNodes,
};
pub use bgpq_core::{
    bounded_simulation_match, bounded_simulation_match_prefetched, bounded_subgraph_match,
    bounded_subgraph_match_prefetched, execute_plan, fetch_candidate_sets, opt_simulation_match,
    opt_subgraph_match, plan_for_indices, plan_query, seeded_candidates, BoundedRun, CandidateSet,
    FetchResult, FetchStats, LookupMemo, PlanError, QueryPlan, Semantics,
};
pub use bgpq_graph::{
    FragmentView, Graph, GraphAccess, GraphBuilder, GraphError, Label, LabelInterner, NodeId,
    ScratchArena, SnapshotError, Subgraph, Value,
};
pub use bgpq_matching::{
    simulation_match, Match, MatchSet, SimulationMatcher, SimulationRelation, SubgraphMatcher,
    Vf2Config, Vf2Stats,
};
pub use bgpq_pattern::{
    parse_pattern, Pattern, PatternBuilder, PatternFingerprint, Predicate, WorkloadGenerator,
};
