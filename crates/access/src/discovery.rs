//! Discovery of access constraints from a data graph.
//!
//! Section II of the paper lists four practical sources of access
//! constraints, all of which reduce to simple statistics:
//!
//! 1. **degree bounds** — if every `l`-labeled node has at most `N`
//!    neighbors labeled `l'`, then `l → (l', N)` holds (type 2);
//! 2. **global label counts** — `∅ → (l, N)` when at most `N` nodes carry
//!    `l` (type 1);
//! 3. **functional dependencies** — `X → A` becomes `X → (A, 1)`, a special
//!    case of the fanout bound with `N = 1`;
//! 4. **aggregate queries** — grouped counts such as
//!    `(year, award) → (movie, 4)`, the general form with `|S| ≥ 2`.
//!
//! [`discover_schema`] implements all four, bounded by a [`DiscoveryConfig`]
//! so the resulting schema only keeps constraints whose bounds are small
//! enough to be useful for bounded evaluation.

use crate::constraint::AccessConstraint;
use crate::index::ConstraintIndex;
use crate::schema::AccessSchema;
use bgpq_graph::{Graph, Label};
use std::collections::BTreeSet;

/// Thresholds controlling which discovered constraints are kept.
#[derive(Debug, Clone)]
pub struct DiscoveryConfig {
    /// Keep `∅ → (l, N)` only when `N ≤ max_global_bound`.
    pub max_global_bound: usize,
    /// Keep `l → (l', N)` only when `N ≤ max_unary_bound`.
    pub max_unary_bound: usize,
    /// Also look for general constraints `(l1, l2) → (l, N)` over label
    /// pairs that co-occur in some node's neighborhood.
    pub discover_pairs: bool,
    /// Keep pair constraints only when `N ≤ max_pair_bound`.
    pub max_pair_bound: usize,
    /// Upper bound on the number of `(l1, l2, l)` pair candidates examined
    /// (pair discovery builds an index per candidate, so it is the expensive
    /// step).
    pub max_pair_candidates: usize,
    /// Upper bound on the total number of constraints returned.
    pub max_constraints: usize,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig {
            max_global_bound: 1_000,
            max_unary_bound: 200,
            discover_pairs: true,
            max_pair_bound: 200,
            max_pair_candidates: 200,
            max_constraints: 512,
        }
    }
}

impl DiscoveryConfig {
    /// A configuration that only discovers type (1) and type (2) constraints
    /// (cheap; no per-candidate index builds).
    pub fn simple() -> Self {
        DiscoveryConfig {
            discover_pairs: false,
            ..Default::default()
        }
    }
}

/// Discovers an access schema satisfied by `graph`, following the four
/// recipes of Section II.
///
/// Every returned constraint is tight (its bound is the observed maximum) and
/// therefore satisfied by `graph` by construction.
pub fn discover_schema(graph: &Graph, config: &DiscoveryConfig) -> AccessSchema {
    let stats = graph.stats();
    let mut schema = AccessSchema::new();

    // Type (1): global label counts, rarest labels first so that truncation
    // by `max_constraints` keeps the most selective constraints.
    for (label, count) in stats.labels_by_frequency() {
        if count <= config.max_global_bound {
            schema.add(AccessConstraint::global(label, count));
        }
    }

    // Type (2): neighbor fanout bounds per ordered label pair (includes
    // FD-like constraints when the bound is 1).
    let mut fanouts: Vec<((Label, Label), usize)> = stats
        .answer_lengths
        .keys()
        .map(|&(l1, l2)| ((l1, l2), stats.fanout(l1, l2)))
        .collect();
    fanouts.sort_by_key(|&((l1, l2), n)| (n, l1, l2));
    for ((source, target), bound) in fanouts {
        if bound <= config.max_unary_bound {
            schema.add(AccessConstraint::unary(source, target, bound));
        }
    }

    // General pairs: for label pairs co-occurring in some neighborhood,
    // measure the exact max cardinality by building the index.
    if config.discover_pairs {
        let candidates = pair_candidates(graph, config.max_pair_candidates);
        for (l1, l2, target) in candidates {
            let constraint = AccessConstraint::new([l1, l2], target, usize::MAX);
            let index = ConstraintIndex::build(graph, constraint);
            let observed = index.max_cardinality();
            if observed > 0 && observed <= config.max_pair_bound && !index.is_truncated() {
                schema.add(AccessConstraint::new([l1, l2], target, observed));
            }
            if schema.len() >= config.max_constraints {
                break;
            }
        }
    }

    schema.minimized().truncated(config.max_constraints)
}

/// Collects `(l1, l2, target)` triples such that some `target`-labeled node
/// has at least one neighbor labeled `l1` and one labeled `l2`.
fn pair_candidates(graph: &Graph, cap: usize) -> Vec<(Label, Label, Label)> {
    let mut seen: BTreeSet<(Label, Label, Label)> = BTreeSet::new();
    for v in graph.nodes() {
        let target = graph.label(v);
        let neighbor_labels: Vec<Label> = graph.neighbor_runs(v).map(|(l, _)| l).collect();
        for (i, &l1) in neighbor_labels.iter().enumerate() {
            for &l2 in &neighbor_labels[i + 1..] {
                seen.insert((l1, l2, target));
                if seen.len() >= cap {
                    return seen.into_iter().collect();
                }
            }
        }
    }
    seen.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::satisfy::satisfies;
    use bgpq_graph::{GraphBuilder, Value};

    /// Small IMDb-shaped graph: 2 years, 1 award, 4 movies, 2 actors per
    /// movie, 1 country.
    fn imdb_toy() -> Graph {
        let mut b = GraphBuilder::new();
        let y1 = b.add_node("year", Value::Int(2011));
        let y2 = b.add_node("year", Value::Int(2012));
        let aw = b.add_node("award", Value::str("Oscar"));
        let us = b.add_node("country", Value::str("US"));
        for i in 0..4 {
            let m = b.add_node("movie", Value::Int(i));
            b.add_edge(if i % 2 == 0 { y1 } else { y2 }, m).unwrap();
            b.add_edge(aw, m).unwrap();
            for j in 0..2 {
                let a = b.add_node("actor", Value::Int(10 * i + j));
                b.add_edge(m, a).unwrap();
                b.add_edge(a, us).unwrap();
            }
        }
        b.build()
    }

    #[test]
    fn discovered_schema_is_satisfied_by_construction() {
        let g = imdb_toy();
        let schema = discover_schema(&g, &DiscoveryConfig::default());
        assert!(!schema.is_empty());
        assert!(satisfies(&g, &schema));
    }

    #[test]
    fn global_constraints_reflect_label_counts() {
        let g = imdb_toy();
        let schema = discover_schema(&g, &DiscoveryConfig::simple());
        let year = g.interner().get("year").unwrap();
        let movie = g.interner().get("movie").unwrap();
        assert_eq!(schema.global_bound(year), Some(2));
        assert_eq!(schema.global_bound(movie), Some(4));
    }

    #[test]
    fn unary_constraints_reflect_fanouts() {
        let g = imdb_toy();
        let schema = discover_schema(&g, &DiscoveryConfig::simple());
        let movie = g.interner().get("movie").unwrap();
        let actor = g.interner().get("actor").unwrap();
        let country = g.interner().get("country").unwrap();
        // Each movie has exactly 2 actors; each actor 1 country (an FD).
        assert_eq!(schema.unary_bound(movie, actor), Some(2));
        assert_eq!(schema.unary_bound(actor, country), Some(1));
    }

    #[test]
    fn pair_discovery_finds_year_award_movie() {
        let g = imdb_toy();
        let schema = discover_schema(&g, &DiscoveryConfig::default());
        let year = g.interner().get("year").unwrap();
        let award = g.interner().get("award").unwrap();
        let movie = g.interner().get("movie").unwrap();
        // Each (year, award) pair has exactly 2 co-nominated movies here.
        let found = schema.iter().any(|c| {
            c.source() == [year.min(award), year.max(award)]
                && c.target() == movie
                && c.bound() == 2
        });
        assert!(
            found,
            "expected (year, award) -> (movie, 2) to be discovered"
        );
    }

    #[test]
    fn thresholds_filter_out_loose_constraints() {
        let g = imdb_toy();
        let config = DiscoveryConfig {
            max_global_bound: 3, // movies (4) and actors (8) are excluded
            max_unary_bound: 1,
            discover_pairs: false,
            ..Default::default()
        };
        let schema = discover_schema(&g, &config);
        let movie = g.interner().get("movie").unwrap();
        let actor = g.interner().get("actor").unwrap();
        assert_eq!(schema.global_bound(movie), None);
        assert_eq!(schema.unary_bound(movie, actor), None);
        // But the FD actor -> country (bound 1) survives.
        let country = g.interner().get("country").unwrap();
        assert_eq!(schema.unary_bound(actor, country), Some(1));
    }

    #[test]
    fn max_constraints_caps_the_schema() {
        let g = imdb_toy();
        let config = DiscoveryConfig {
            max_constraints: 3,
            ..Default::default()
        };
        let schema = discover_schema(&g, &config);
        assert!(schema.len() <= 3);
    }

    #[test]
    fn empty_graph_discovers_empty_schema() {
        let schema = discover_schema(&Graph::empty(), &DiscoveryConfig::default());
        assert!(schema.is_empty());
    }
}
