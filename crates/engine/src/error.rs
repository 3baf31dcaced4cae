//! The unified workspace error type.
//!
//! Before the engine existed, callers hand-wired `bgpq-core` planning and
//! `bgpq-graph` construction and had to juggle [`PlanError`] and
//! [`GraphError`] separately. [`BgpqError`] folds every per-crate error enum
//! into one `std::error::Error` with `From` conversions, so engine callers
//! can use `?` across the whole workspace.

use bgpq_core::PlanError;
use bgpq_graph::GraphError;
use std::fmt;

use crate::strategy::StrategyKind;

/// Any error the `bgpq` workspace can produce, unified for engine callers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BgpqError {
    /// Building, mutating or (de)serializing a data graph failed.
    Graph(GraphError),
    /// The pattern is not effectively bounded under the engine's schema for
    /// the requested semantics, and the request insisted on the
    /// [`Bounded`](StrategyKind::Bounded) strategy.
    Unbounded(PlanError),
    /// The request forced a strategy that cannot serve it (e.g.
    /// [`IndexSeeded`](StrategyKind::IndexSeeded) on an engine with an empty
    /// access schema).
    StrategyUnavailable {
        /// The strategy the request demanded.
        requested: StrategyKind,
        /// Why the engine cannot run it.
        reason: String,
    },
    /// The request's pattern was built against a label interner that does
    /// not agree with the engine graph's: some pattern label id would be
    /// compared against a graph label id carrying a different name, which
    /// would silently corrupt answers. Build patterns with
    /// `PatternBuilder::with_interner(engine.graph().interner().clone())`.
    PatternMismatch {
        /// The first misaligned pattern node.
        node: bgpq_pattern::PatternNodeId,
        /// That node's label name as the pattern understands it.
        label: String,
    },
}

impl fmt::Display for BgpqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BgpqError::Graph(e) => write!(f, "graph error: {e}"),
            BgpqError::Unbounded(e) => write!(f, "{e}"),
            BgpqError::StrategyUnavailable { requested, reason } => {
                write!(f, "strategy {requested} unavailable: {reason}")
            }
            BgpqError::PatternMismatch { node, label } => {
                write!(
                    f,
                    "pattern node {node} (label {label:?}) was built against a label \
                     interner that disagrees with the engine's graph; build patterns \
                     with the graph's interner"
                )
            }
        }
    }
}

impl std::error::Error for BgpqError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BgpqError::Graph(e) => Some(e),
            BgpqError::Unbounded(e) => Some(e),
            BgpqError::StrategyUnavailable { .. } | BgpqError::PatternMismatch { .. } => None,
        }
    }
}

impl From<GraphError> for BgpqError {
    fn from(err: GraphError) -> Self {
        BgpqError::Graph(err)
    }
}

impl From<PlanError> for BgpqError {
    fn from(err: PlanError) -> Self {
        BgpqError::Unbounded(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpq_core::Semantics;
    use bgpq_pattern::PatternNodeId;
    use std::error::Error;

    #[test]
    fn conversions_and_sources() {
        let g: BgpqError = GraphError::NodeNotFound(3).into();
        assert!(matches!(g, BgpqError::Graph(_)));
        assert!(g.source().is_some());
        assert!(g.to_string().contains("node 3 not found"));

        let p: BgpqError = PlanError {
            uncovered: vec![PatternNodeId(0)],
            partial: bgpq_core::QueryPlan {
                semantics: Semantics::Isomorphism,
                steps: vec![],
            },
        }
        .into();
        assert!(matches!(p, BgpqError::Unbounded(_)));
        assert!(p.source().is_some());
        assert!(p.to_string().contains("not effectively bounded"));

        let s = BgpqError::StrategyUnavailable {
            requested: StrategyKind::IndexSeeded,
            reason: "empty schema".into(),
        };
        assert!(s.source().is_none());
        assert!(s.to_string().contains("optVF2/optgsim"));
    }

    /// The point of the unification: one `?` works across crates.
    #[test]
    fn question_mark_compatibility() {
        fn fails_graph() -> Result<(), BgpqError> {
            Err(GraphError::DuplicateNode(1))?;
            Ok(())
        }
        fn fails_plan() -> Result<(), BgpqError> {
            Err(PlanError {
                uncovered: vec![],
                partial: bgpq_core::QueryPlan {
                    semantics: Semantics::Simulation,
                    steps: vec![],
                },
            })?;
            Ok(())
        }
        assert!(fails_graph().is_err());
        assert!(fails_plan().is_err());
    }
}
