//! The paper's three evaluation tiers and how the engine picks one.
//!
//! All three return identical answers (the equivalence suites lock this
//! down); they differ only in cost. The [`Engine`] runs the first tier that
//! applies — `Bounded` when the pattern is effectively bounded under its
//! schema for the requested semantics, `IndexSeeded` when the schema is
//! non-empty, `Baseline` always — which gives the automatic bounded → seeded
//! → baseline fallback the paper's experiments hand-wired, or the tier the
//! request forced.

use crate::cache::CacheEntry;
use crate::engine::Engine;
use crate::error::BgpqError;
use crate::request::QueryRequest;
use crate::response::QueryAnswer;
use crate::stats::CacheOutcome;
use bgpq_core::{FetchStats, PlanError, QueryPlan, Semantics};
use bgpq_graph::Graph;
use bgpq_matching::{
    opt_simulation_match_stats, opt_subgraph_match_stats, simulation_match, SubgraphMatcher,
    Vf2Config, Vf2Stats,
};
use bgpq_pattern::Pattern;
use std::fmt;

/// Identifies a strategy, in responses and for per-request overrides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Bounded evaluation on the fetched fragment (`bVF2`/`bSim`). Requires
    /// a plan.
    Bounded,
    /// Whole-graph matching with index-seeded candidates
    /// (`optVF2`/`optgsim`). Requires a non-empty schema.
    IndexSeeded,
    /// Plain whole-graph matching (`VF2`/`gsim`). Always applicable.
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

/// What a tier hands back to the engine: the answer plus whatever counters
/// the tier produces.
pub(crate) struct StrategyRun {
    /// The answer, over node ids of the engine's graph.
    pub(crate) answer: QueryAnswer,
    /// The VF2-family search's counters (`None` for simulation).
    pub(crate) search: Option<Vf2Stats>,
    /// Candidate nodes the pattern's predicates rejected before matching
    /// (see [`ExecStats::predicate_filtered`](crate::ExecStats::predicate_filtered)
    /// for the per-tier meaning).
    pub(crate) predicate_filtered: u64,
    /// Fetch counters, when the tier fetched a fragment.
    pub(crate) fetch: Option<FetchStats>,
    /// What the cache did for the fragment (`None` for the whole-graph
    /// tiers, which fetch none).
    pub(crate) fragment_cache: Option<CacheOutcome>,
}

impl StrategyRun {
    /// A whole-graph tier's run: no fetch, no fragment.
    fn whole_graph(answer: QueryAnswer, search: Option<Vf2Stats>, predicate_filtered: u64) -> Self {
        StrategyRun {
            answer,
            search,
            predicate_filtered,
            fetch: None,
            fragment_cache: None,
        }
    }
}

/// Translates the request's budgets into matcher knobs.
pub(crate) fn vf2_config(request: &QueryRequest) -> Vf2Config {
    Vf2Config {
        max_matches: request.max_matches(),
        max_steps: request.step_budget(),
    }
}

impl Engine {
    /// The first applicable tier, or the forced one. `plan` is the cached
    /// planning outcome for the request's pattern and semantics.
    pub(crate) fn select_strategy(
        &self,
        request: &QueryRequest,
        plan: &Result<QueryPlan, PlanError>,
    ) -> Result<StrategyKind, BgpqError> {
        use StrategyKind::{Baseline, Bounded, IndexSeeded};
        let applicable = |kind| match kind {
            Bounded => plan.is_ok(),
            // With no indices, seeding degenerates to label scans — identical
            // to the baseline at strictly more bookkeeping, so don't claim it.
            IndexSeeded => !self.indices().is_empty(),
            Baseline => true,
        };
        match (request.forced_strategy(), plan) {
            (None, _) => Ok([Bounded, IndexSeeded, Baseline]
                .into_iter()
                .find(|&kind| applicable(kind))
                .expect("Baseline is always applicable")),
            (Some(kind), _) if applicable(kind) => Ok(kind),
            (Some(Bounded), Err(err)) => Err(BgpqError::Unbounded(err.clone())),
            (Some(kind), _) => Err(BgpqError::StrategyUnavailable {
                requested: kind,
                reason: "the engine's access schema cannot support it".into(),
            }),
        }
    }

    /// Runs `kind`, which [`Engine::select_strategy`] chose for `request`;
    /// `plan_cache` is what the cache did when `entry` was looked up.
    pub(crate) fn run_strategy(
        &self,
        kind: StrategyKind,
        request: &QueryRequest,
        entry: &CacheEntry,
        plan_cache: CacheOutcome,
    ) -> StrategyRun {
        match kind {
            StrategyKind::Bounded => self.run_bounded(request, entry, plan_cache),
            StrategyKind::IndexSeeded => self.run_seeded(request),
            StrategyKind::Baseline => self.run_baseline(request),
        }
    }

    /// `optVF2`/`optgsim`: whole-graph matching with index-narrowed
    /// candidates.
    fn run_seeded(&self, request: &QueryRequest) -> StrategyRun {
        let (pattern, graph, indices) = (request.pattern(), self.graph(), self.indices());
        let (answer, search, seed) = match request.semantics() {
            Semantics::Isomorphism => {
                let config = vf2_config(request);
                let (matches, stats, seed) =
                    opt_subgraph_match_stats(pattern, graph, indices, config);
                (QueryAnswer::Matches(matches), Some(stats), seed)
            }
            Semantics::Simulation => {
                let (relation, seed) = opt_simulation_match_stats(pattern, graph, indices);
                (QueryAnswer::Simulation(relation), None, seed)
            }
        };
        StrategyRun::whole_graph(answer, search, seed.predicate_filtered)
    }

    /// `VF2`/`gsim`: plain whole-graph matching, the always-available floor.
    fn run_baseline(&self, request: &QueryRequest) -> StrategyRun {
        let (pattern, graph) = (request.pattern(), self.graph());
        let (answer, search) = match request.semantics() {
            Semantics::Isomorphism => {
                let matcher = SubgraphMatcher::new(pattern, graph).with_config(vf2_config(request));
                let (matches, stats) = matcher.run();
                (QueryAnswer::Matches(matches), Some(stats))
            }
            Semantics::Simulation => (
                QueryAnswer::Simulation(simulation_match(pattern, graph)),
                None,
            ),
        };
        let predicate_filtered = label_scan_predicate_filtered(pattern, graph);
        StrategyRun::whole_graph(answer, search, predicate_filtered)
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
