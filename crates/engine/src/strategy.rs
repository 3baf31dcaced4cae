//! Evaluation strategies and their selection contract.
//!
//! The paper's three evaluation tiers become implementations of one
//! [`Strategy`] trait:
//!
//! * [`Bounded`] — `bVF2`/`bSim`: fetch the bounded fragment `G_Q` through
//!   access-constraint indices and match on it. Requires a [`QueryPlan`],
//!   i.e. the pattern must be effectively bounded under the engine's schema
//!   for the requested semantics.
//! * [`IndexSeeded`] — `optVF2`/`optgsim`: match on the whole graph, but
//!   narrow candidate sets through the indices first. Sound for every
//!   pattern; useful whenever the schema is non-empty.
//! * [`Baseline`] — `VF2`/`gsim`: plain whole-graph matching. Always
//!   applicable.
//!
//! All three return identical answers (the equivalence suites lock this
//! down); they differ only in cost. The [`Engine`] walks its
//! strategies in this order and runs the first applicable one, which gives
//! the automatic bounded → seeded → baseline fallback the paper's
//! experiments hand-wired.

use crate::engine::Engine;
use crate::request::QueryRequest;
use crate::response::QueryAnswer;
use crate::stats::CacheOutcome;
use bgpq_core::{FetchStats, QueryPlan, Semantics};
use bgpq_graph::Graph;
use bgpq_matching::{
    opt_simulation_match_stats, opt_subgraph_match_stats, simulation_match, SubgraphMatcher,
    Vf2Config,
};
use bgpq_pattern::Pattern;
use std::fmt;

/// Identifies a strategy, in responses and for per-request overrides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Bounded evaluation on the fetched fragment (`bVF2`/`bSim`).
    Bounded,
    /// Whole-graph matching with index-seeded candidates
    /// (`optVF2`/`optgsim`).
    IndexSeeded,
    /// Plain whole-graph matching (`VF2`/`gsim`).
    Baseline,
}

impl fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StrategyKind::Bounded => write!(f, "bounded (bVF2/bSim)"),
            StrategyKind::IndexSeeded => write!(f, "index-seeded (optVF2/optgsim)"),
            StrategyKind::Baseline => write!(f, "baseline (VF2/gsim)"),
        }
    }
}

/// What a strategy hands back to the engine: the answer plus whatever
/// counters the tier produces.
#[derive(Debug, Clone)]
pub struct StrategyRun {
    /// The answer, over node ids of the engine's graph.
    pub answer: QueryAnswer,
    /// Fetch counters, when the strategy fetched a fragment.
    pub fetch: Option<FetchStats>,
    /// Candidate nodes the pattern's predicates rejected before matching
    /// (see [`ExecStats::predicate_filtered`](crate::ExecStats::predicate_filtered)
    /// for the per-strategy meaning). Populated by every strategy.
    pub predicate_filtered: u64,
    /// Search-tree steps, when the strategy ran a VF2-family search.
    pub matcher_steps: Option<u64>,
    /// True when the search stopped on the request's step budget.
    pub aborted: bool,
    /// What the fragment cache did, when the bounded strategy consulted it
    /// (`None` for the non-bounded tiers, which fetch no fragment).
    pub fragment_cache: Option<CacheOutcome>,
}

/// One evaluation tier the engine can dispatch a request to.
///
/// Implementations must return, for every request they claim to be
/// applicable to, exactly the same answer as every other strategy (modulo
/// truncation by the request's budgets): strategies trade cost, never
/// correctness. The engine guarantees `execute` is only called when
/// `is_applicable` returned true with the same arguments.
pub trait Strategy: Send + Sync {
    /// The tier this strategy implements.
    fn kind(&self) -> StrategyKind;

    /// Whether this strategy can serve `request` on `engine`. `plan` is the
    /// cached planning outcome for the request's pattern and semantics —
    /// `Some` iff the pattern is effectively bounded under the engine's
    /// schema.
    fn is_applicable(
        &self,
        engine: &Engine,
        request: &QueryRequest,
        plan: Option<&QueryPlan>,
    ) -> bool;

    /// Evaluates `request` on `engine`.
    fn execute(
        &self,
        engine: &Engine,
        request: &QueryRequest,
        plan: Option<&QueryPlan>,
    ) -> StrategyRun;
}

/// Translates the request's budgets into matcher knobs.
pub(crate) fn vf2_config(request: &QueryRequest) -> Vf2Config {
    Vf2Config {
        max_matches: request.max_matches(),
        max_steps: request.step_budget(),
    }
}

/// `bVF2`/`bSim` on the fetched bounded fragment.
pub struct Bounded;

impl Strategy for Bounded {
    fn kind(&self) -> StrategyKind {
        StrategyKind::Bounded
    }

    fn is_applicable(&self, _: &Engine, _: &QueryRequest, plan: Option<&QueryPlan>) -> bool {
        plan.is_some()
    }

    fn execute(
        &self,
        engine: &Engine,
        request: &QueryRequest,
        plan: Option<&QueryPlan>,
    ) -> StrategyRun {
        let plan = plan.expect("engine dispatches Bounded only with a plan");
        engine.run_bounded(request, plan)
    }
}

/// `optVF2`/`optgsim`: whole-graph matching with index-narrowed candidates.
pub struct IndexSeeded;

impl Strategy for IndexSeeded {
    fn kind(&self) -> StrategyKind {
        StrategyKind::IndexSeeded
    }

    fn is_applicable(&self, engine: &Engine, _: &QueryRequest, _: Option<&QueryPlan>) -> bool {
        // With no indices, seeding degenerates to label scans — identical to
        // the baseline at strictly more bookkeeping, so don't claim it.
        !engine.indices().is_empty()
    }

    fn execute(
        &self,
        engine: &Engine,
        request: &QueryRequest,
        _: Option<&QueryPlan>,
    ) -> StrategyRun {
        match request.semantics() {
            Semantics::Isomorphism => {
                let (matches, stats, seed) = opt_subgraph_match_stats(
                    request.pattern(),
                    engine.graph(),
                    engine.indices(),
                    vf2_config(request),
                );
                StrategyRun {
                    answer: QueryAnswer::Matches(matches),
                    fetch: None,
                    predicate_filtered: seed.predicate_filtered,
                    matcher_steps: Some(stats.steps),
                    aborted: stats.aborted,
                    fragment_cache: None,
                }
            }
            Semantics::Simulation => {
                let (relation, seed) =
                    opt_simulation_match_stats(request.pattern(), engine.graph(), engine.indices());
                StrategyRun {
                    answer: QueryAnswer::Simulation(relation),
                    fetch: None,
                    predicate_filtered: seed.predicate_filtered,
                    matcher_steps: None,
                    aborted: false,
                    fragment_cache: None,
                }
            }
        }
    }
}

/// `VF2`/`gsim`: plain whole-graph matching, the always-available floor.
pub struct Baseline;

impl Strategy for Baseline {
    fn kind(&self) -> StrategyKind {
        StrategyKind::Baseline
    }

    fn is_applicable(&self, _: &Engine, _: &QueryRequest, _: Option<&QueryPlan>) -> bool {
        true
    }

    fn execute(
        &self,
        engine: &Engine,
        request: &QueryRequest,
        _: Option<&QueryPlan>,
    ) -> StrategyRun {
        let predicate_filtered = label_scan_predicate_filtered(request.pattern(), engine.graph());
        match request.semantics() {
            Semantics::Isomorphism => {
                let (matches, stats) = SubgraphMatcher::new(request.pattern(), engine.graph())
                    .with_config(vf2_config(request))
                    .run();
                StrategyRun {
                    answer: QueryAnswer::Matches(matches),
                    fetch: None,
                    predicate_filtered,
                    matcher_steps: Some(stats.steps),
                    aborted: stats.aborted,
                    fragment_cache: None,
                }
            }
            Semantics::Simulation => StrategyRun {
                answer: QueryAnswer::Simulation(simulation_match(
                    request.pattern(),
                    engine.graph(),
                )),
                fetch: None,
                predicate_filtered,
                matcher_steps: None,
                aborted: false,
                fragment_cache: None,
            },
        }
    }
}

/// The baseline's `predicate_filtered` counter: label-compatible data nodes
/// each pattern node's predicate rejects. A reporting scan (one pass over
/// the label index per pattern node), kept out of the matchers so it cannot
/// perturb their search statistics.
fn label_scan_predicate_filtered(pattern: &Pattern, graph: &Graph) -> u64 {
    pattern
        .nodes()
        .map(|u| {
            graph
                .nodes_with_label(pattern.label(u))
                .iter()
                .filter(|&&v| !pattern.predicate(u).eval(graph.value(v)))
                .count() as u64
        })
        .sum()
}
