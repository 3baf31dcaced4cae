//! Typed query responses.

use crate::stats::ExecStats;
use crate::strategy::StrategyKind;
use bgpq_core::QueryPlan;
use bgpq_matching::{MatchSet, SimulationRelation};

/// The answer of one query, shaped by its
/// [`Semantics`](bgpq_core::Semantics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryAnswer {
    /// Subgraph-isomorphism answers: the canonical match set.
    Matches(MatchSet),
    /// Simulation answers: the maximum simulation relation.
    Simulation(SimulationRelation),
}

impl QueryAnswer {
    /// The match set, when this is an isomorphism answer.
    pub fn as_matches(&self) -> Option<&MatchSet> {
        match self {
            QueryAnswer::Matches(m) => Some(m),
            QueryAnswer::Simulation(_) => None,
        }
    }

    /// The simulation relation, when this is a simulation answer.
    pub fn as_simulation(&self) -> Option<&SimulationRelation> {
        match self {
            QueryAnswer::Matches(_) => None,
            QueryAnswer::Simulation(r) => Some(r),
        }
    }

    /// True when the query has no match at all.
    pub fn is_empty(&self) -> bool {
        match self {
            QueryAnswer::Matches(m) => m.is_empty(),
            QueryAnswer::Simulation(r) => r.is_empty(),
        }
    }

    /// Number of answer items: matches for isomorphism, `(u, v)` pairs for
    /// simulation.
    pub fn len(&self) -> usize {
        match self {
            QueryAnswer::Matches(m) => m.len(),
            QueryAnswer::Simulation(r) => r.pair_count(),
        }
    }
}

/// How the engine arrived at an answer, attached to the response when the
/// request set [`explain`](crate::QueryRequestBuilder::explain).
#[derive(Debug, Clone)]
pub struct Explain {
    /// The strategy that produced the answer.
    pub strategy: StrategyKind,
    /// The fetch plan, when the pattern is effectively bounded under the
    /// engine's schema for the requested semantics.
    pub plan: Option<QueryPlan>,
    /// Why the engine fell back from the bounded strategy (the planner's
    /// refusal), when it did.
    pub fallback_reason: Option<String>,
}

impl Explain {
    /// Renders the explain as human-readable lines — the canonical textual
    /// form shared by every front end (`bgpq query` prints these locally;
    /// the network server ships them pre-rendered so a graph-less remote
    /// client displays the identical plan).
    pub fn render_lines(
        &self,
        pattern: &bgpq_pattern::Pattern,
        schema: &bgpq_access::AccessSchema,
        interner: &bgpq_graph::LabelInterner,
    ) -> Vec<String> {
        let mut lines = Vec::new();
        match &self.plan {
            Some(plan) => {
                lines.push(format!("plan ({:?} semantics):", plan.semantics));
                for step in &plan.steps {
                    let via: Vec<String> =
                        step.via.iter().map(|&u| pattern.column_name(u)).collect();
                    let constraint = schema
                        .get(step.constraint)
                        .map(|c| c.display_with(interner))
                        .unwrap_or_else(|| step.constraint.to_string());
                    lines.push(format!(
                        "  fetch {} via {} [{}] (≤ {} candidates)",
                        pattern.column_name(step.node),
                        constraint,
                        if via.is_empty() {
                            "∅".to_string()
                        } else {
                            via.join(", ")
                        },
                        step.candidate_bound
                    ));
                }
            }
            None => {
                lines.push(format!(
                    "no bounded plan: {}",
                    self.fallback_reason
                        .as_deref()
                        .unwrap_or("(strategy was forced)")
                ));
            }
        }
        lines
    }
}

/// The outcome of one [`Engine::execute`](crate::Engine::execute) call.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The answer, over node ids of the engine's graph.
    pub answer: QueryAnswer,
    /// The strategy that actually ran (after automatic selection and
    /// fallback).
    pub strategy: StrategyKind,
    /// Unified execution statistics.
    pub stats: ExecStats,
    /// Present iff the request asked for an explain.
    pub explain: Option<Explain>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpq_graph::NodeId;
    use bgpq_matching::Match;

    #[test]
    fn answer_accessors() {
        let matches = QueryAnswer::Matches(MatchSet::new([Match::new(vec![NodeId(1)])]));
        assert!(matches.as_matches().is_some());
        assert!(matches.as_simulation().is_none());
        assert!(!matches.is_empty());
        assert_eq!(matches.len(), 1);

        let sim = QueryAnswer::Simulation(SimulationRelation::empty(2));
        assert!(sim.as_simulation().is_some());
        assert!(sim.as_matches().is_none());
        assert!(sim.is_empty());
        assert_eq!(sim.len(), 0);
    }
}
