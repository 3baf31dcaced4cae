//! Subgraph-isomorphism matching (the `VF2` baseline).
//!
//! A match of a pattern `Q` in a graph `G` is an injective mapping `h` from
//! pattern nodes to data nodes such that
//!
//! * labels agree: `f_Q(u) = f(h(u))`;
//! * predicates hold: `g_Q(ν(h(u)))` is true;
//! * every pattern edge is realized: `(u, u') ∈ E_Q ⇒ (h(u), h(u')) ∈ E`.
//!
//! (This is the "match = subgraph isomorphic to Q" semantics of Section II:
//! the matched subgraph `G'` consists of the image nodes and the images of
//! the pattern edges, so data edges *between* matched nodes that have no
//! pattern counterpart are irrelevant.)
//!
//! The implementation is a VF2-style backtracking search with a
//! connectivity-aware matching order, candidate sets restricted to
//! label-compatible nodes, and optional externally supplied candidate sets
//! (used by `optVF2` and by the bounded executor `bVF2`).

use crate::result::{Match, MatchSet};
use bgpq_graph::{Graph, GraphAccess, NodeId};
use bgpq_pattern::{Pattern, PatternNodeId};
use std::collections::HashSet;

/// Tuning knobs for the subgraph matcher.
#[derive(Debug, Clone, Default)]
pub struct Vf2Config {
    /// Stop after this many matches (`None` = enumerate all).
    pub max_matches: Option<usize>,
    /// Abort after roughly this many search-tree nodes (`None` = unlimited).
    /// Used by the experiments to emulate the paper's evaluation timeouts.
    pub max_steps: Option<u64>,
}

/// Statistics of one matcher run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Vf2Stats {
    /// Search-tree nodes expanded.
    pub steps: u64,
    /// True when the run stopped because `max_steps` was hit.
    pub aborted: bool,
}

/// A backtracking subgraph-isomorphism matcher.
///
/// Generic over [`GraphAccess`]: the same search runs on a whole [`Graph`]
/// (the `VF2`/`optVF2` baselines) or on a zero-copy
/// [`FragmentView`](bgpq_graph::FragmentView) of the fetched fragment `G_Q`
/// (the bounded executor `bVF2`), with answers reported over the ids of
/// whatever graph it was given.
pub struct SubgraphMatcher<'a, G: GraphAccess = Graph> {
    pattern: &'a Pattern,
    graph: &'a G,
    config: Vf2Config,
    /// Optional externally supplied candidate sets per pattern node, kept
    /// sorted and deduplicated for binary-search membership tests.
    candidates: Option<Vec<Vec<NodeId>>>,
}

impl<'a, G: GraphAccess> SubgraphMatcher<'a, G> {
    /// Creates a matcher over the full data graph.
    pub fn new(pattern: &'a Pattern, graph: &'a G) -> Self {
        SubgraphMatcher {
            pattern,
            graph,
            config: Vf2Config::default(),
            candidates: None,
        }
    }

    /// Restricts the search to the given candidate sets (one per pattern
    /// node, indexed by [`PatternNodeId`]). The sets are treated as sets:
    /// order and duplicates don't matter, and nodes absent from the graph
    /// (or, on a fragment view, from the fragment) are ignored.
    pub fn with_candidates(mut self, mut candidates: Vec<Vec<NodeId>>) -> Self {
        assert_eq!(candidates.len(), self.pattern.node_count());
        for set in &mut candidates {
            set.sort_unstable();
            set.dedup();
        }
        self.candidates = Some(candidates);
        self
    }

    /// Sets the configuration.
    pub fn with_config(mut self, config: Vf2Config) -> Self {
        self.config = config;
        self
    }

    /// Enumerates matches, returning the canonical match set.
    pub fn find_all(&self) -> MatchSet {
        self.run().0
    }

    /// True when at least one match exists.
    pub fn exists(&self) -> bool {
        let matcher = SubgraphMatcher {
            pattern: self.pattern,
            graph: self.graph,
            config: Vf2Config {
                max_matches: Some(1),
                ..self.config.clone()
            },
            candidates: self.candidates.clone(),
        };
        !matcher.run().0.is_empty()
    }

    /// Number of matches.
    pub fn count(&self) -> usize {
        self.find_all().len()
    }

    /// Runs the search, returning the match set and run statistics.
    pub fn run(&self) -> (MatchSet, Vf2Stats) {
        let n = self.pattern.node_count();
        if n == 0 {
            return (MatchSet::new([Match::new(Vec::new())]), Vf2Stats::default());
        }
        let order = self.matching_order();
        let mut state = SearchState {
            matcher: self,
            order,
            assignment: vec![None; n],
            used: HashSet::new(),
            results: Vec::new(),
            stats: Vf2Stats::default(),
        };
        state.search(0);
        (MatchSet::new(state.results), state.stats)
    }

    /// True when data node `v` is label- and predicate-compatible with
    /// pattern node `u`, and (when candidate sets are given) belongs to `u`'s
    /// candidate set.
    fn compatible(&self, u: PatternNodeId, v: NodeId) -> bool {
        if !self.graph.contains_node(v) || self.graph.label(v) != self.pattern.label(u) {
            return false;
        }
        if !self.pattern.predicate(u).eval(self.graph.value(v)) {
            return false;
        }
        if let Some(cands) = &self.candidates {
            if cands[u.index()].binary_search(&v).is_err() {
                return false;
            }
        }
        // Cheap degree pruning: v must offer at least as many out/in edges.
        self.graph.out_degree(v) >= self.pattern.children(u).len()
            && self.graph.in_degree(v) >= self.pattern.parents(u).len()
    }

    /// Static matching order: start from the most constrained node (smallest
    /// candidate estimate), then repeatedly pick an unvisited node with the
    /// most already-ordered neighbors (ties broken by estimate).
    fn matching_order(&self) -> Vec<PatternNodeId> {
        let n = self.pattern.node_count();
        let estimate: Vec<usize> = (0..n)
            .map(|i| {
                let u = PatternNodeId(i as u32);
                match &self.candidates {
                    Some(c) => c[i].len(),
                    None => self.graph.label_count(self.pattern.label(u)),
                }
            })
            .collect();
        let mut order: Vec<PatternNodeId> = Vec::with_capacity(n);
        let mut placed = vec![false; n];
        for _ in 0..n {
            let mut best: Option<(usize, usize, usize)> = None; // (-connected, estimate, idx)
            for i in 0..n {
                if placed[i] {
                    continue;
                }
                let u = PatternNodeId(i as u32);
                let connected = self
                    .pattern
                    .neighbors(u)
                    .iter()
                    .filter(|&&w| placed[w.index()])
                    .count();
                let key = (usize::MAX - connected, estimate[i], i);
                if best.map(|b| key < b).unwrap_or(true) {
                    best = Some(key);
                }
            }
            let (_, _, idx) = best.expect("some node remains");
            placed[idx] = true;
            order.push(PatternNodeId(idx as u32));
        }
        order
    }
}

struct SearchState<'m, 'a, G: GraphAccess> {
    matcher: &'m SubgraphMatcher<'a, G>,
    order: Vec<PatternNodeId>,
    assignment: Vec<Option<NodeId>>,
    used: HashSet<NodeId>,
    results: Vec<Match>,
    stats: Vf2Stats,
}

impl<G: GraphAccess> SearchState<'_, '_, G> {
    fn done(&self) -> bool {
        if self.stats.aborted {
            return true;
        }
        if let Some(max) = self.matcher.config.max_matches {
            if self.results.len() >= max {
                return true;
            }
        }
        false
    }

    fn search(&mut self, depth: usize) {
        if self.done() {
            return;
        }
        if let Some(max_steps) = self.matcher.config.max_steps {
            if self.stats.steps >= max_steps {
                self.stats.aborted = true;
                return;
            }
        }
        self.stats.steps += 1;

        if depth == self.order.len() {
            let assignment: Vec<NodeId> = self
                .assignment
                .iter()
                .map(|v| v.expect("complete"))
                .collect();
            self.results.push(Match::new(assignment));
            return;
        }
        let u = self.order[depth];
        let candidates = self.candidate_nodes(u);
        for v in candidates {
            if self.done() {
                return;
            }
            if self.used.contains(&v) || !self.consistent(u, v) {
                continue;
            }
            self.assignment[u.index()] = Some(v);
            self.used.insert(v);
            self.search(depth + 1);
            self.used.remove(&v);
            self.assignment[u.index()] = None;
        }
    }

    /// Candidate data nodes for pattern node `u` given the current partial
    /// assignment: neighbors of an already-matched pattern neighbor when one
    /// exists (locality), otherwise all label-compatible nodes.
    fn candidate_nodes(&self, u: PatternNodeId) -> Vec<NodeId> {
        let graph = self.matcher.graph;
        let pattern = self.matcher.pattern;
        // Prefer expanding from a matched pattern neighbor.
        for &p in pattern.children(u) {
            if let Some(v) = self.assignment[p.index()] {
                return graph
                    .in_neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&c| self.matcher.compatible(u, c))
                    .collect();
            }
        }
        for &p in pattern.parents(u) {
            if let Some(v) = self.assignment[p.index()] {
                return graph
                    .out_neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&c| self.matcher.compatible(u, c))
                    .collect();
            }
        }
        match &self.matcher.candidates {
            Some(cands) => cands[u.index()]
                .iter()
                .copied()
                .filter(|&c| self.matcher.compatible(u, c))
                .collect(),
            None => graph
                .nodes_with_label(pattern.label(u))
                .iter()
                .copied()
                .filter(|&c| self.matcher.compatible(u, c))
                .collect(),
        }
    }

    /// Checks that assigning `v` to `u` realizes every pattern edge between
    /// `u` and already-matched pattern nodes. `v` comes from
    /// [`Self::candidate_nodes`], which has already filtered by
    /// [`SubgraphMatcher::compatible`].
    fn consistent(&self, u: PatternNodeId, v: NodeId) -> bool {
        let graph = self.matcher.graph;
        let pattern = self.matcher.pattern;
        for &child in pattern.children(u) {
            if let Some(w) = self.assignment[child.index()] {
                if !graph.has_edge(v, w) {
                    return false;
                }
            }
        }
        for &parent in pattern.parents(u) {
            if let Some(w) = self.assignment[parent.index()] {
                if !graph.has_edge(w, v) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpq_graph::{GraphBuilder, Value};
    use bgpq_pattern::{PatternBuilder, Predicate};

    /// Builds a data graph with `k` (movie -> actor, movie -> actress) stars
    /// plus one movie lacking an actress.
    fn movie_graph(k: usize) -> Graph {
        let mut b = GraphBuilder::new();
        for i in 0..k as i64 {
            let m = b.add_node("movie", Value::Int(2000 + i));
            let a = b.add_node("actor", Value::Int(i));
            let s = b.add_node("actress", Value::Int(i));
            b.add_edge(m, a).unwrap();
            b.add_edge(m, s).unwrap();
        }
        let lonely = b.add_node("movie", Value::Int(1990));
        let a = b.add_node("actor", Value::Int(99));
        b.add_edge(lonely, a).unwrap();
        b.build()
    }

    fn movie_pattern(graph: &Graph) -> Pattern {
        let mut b = PatternBuilder::with_interner(graph.interner().clone());
        let m = b.node("movie", Predicate::always());
        let a = b.node("actor", Predicate::always());
        let s = b.node("actress", Predicate::always());
        b.edge(m, a);
        b.edge(m, s);
        b.build()
    }

    #[test]
    fn finds_all_star_matches() {
        let g = movie_graph(3);
        let q = movie_pattern(&g);
        let matches = SubgraphMatcher::new(&q, &g).find_all();
        // The lonely movie has no actress, so exactly 3 matches.
        assert_eq!(matches.len(), 3);
        for m in matches.iter() {
            assert!(m.is_injective());
            // Verify every pattern edge is realized.
            for (s, d) in q.edges() {
                assert!(g.has_edge(m.node_for(s), m.node_for(d)));
            }
        }
    }

    #[test]
    fn predicates_prune_matches() {
        let g = movie_graph(3);
        let mut b = PatternBuilder::with_interner(g.interner().clone());
        let m = b.node("movie", Predicate::range(2001, 2002));
        let a = b.node("actor", Predicate::always());
        b.edge(m, a);
        let q = b.build();
        let matches = SubgraphMatcher::new(&q, &g).find_all();
        assert_eq!(matches.len(), 2);
    }

    #[test]
    fn empty_pattern_has_one_empty_match() {
        let g = movie_graph(1);
        let q = PatternBuilder::with_interner(g.interner().clone()).build();
        let matches = SubgraphMatcher::new(&q, &g).find_all();
        assert_eq!(matches.len(), 1);
        assert!(matches.matches()[0].is_empty());
    }

    #[test]
    fn no_match_when_label_absent() {
        let g = movie_graph(2);
        let mut b = PatternBuilder::with_interner(g.interner().clone());
        b.node("director", Predicate::always());
        let q = b.build();
        assert!(SubgraphMatcher::new(&q, &g).find_all().is_empty());
        assert!(!SubgraphMatcher::new(&q, &g).exists());
    }

    #[test]
    fn injectivity_is_enforced() {
        // Pattern: two distinct actors of the same movie; data: movie with
        // only one actor → no match.
        let mut gb = GraphBuilder::new();
        let m = gb.add_node("movie", Value::Int(1));
        let a = gb.add_node("actor", Value::Int(1));
        gb.add_edge(m, a).unwrap();
        let g = gb.build();

        let mut b = PatternBuilder::with_interner(g.interner().clone());
        let pm = b.node("movie", Predicate::always());
        let a1 = b.node("actor", Predicate::always());
        let a2 = b.node("actor", Predicate::always());
        b.edge(pm, a1);
        b.edge(pm, a2);
        let q = b.build();
        assert_eq!(SubgraphMatcher::new(&q, &g).count(), 0);

        // With two actors there are 2 matches (the two orderings).
        let mut gb = GraphBuilder::new();
        let m = gb.add_node("movie", Value::Int(1));
        let a = gb.add_node("actor", Value::Int(1));
        let b2 = gb.add_node("actor", Value::Int(2));
        gb.add_edge(m, a).unwrap();
        gb.add_edge(m, b2).unwrap();
        let g2 = gb.build();
        assert_eq!(SubgraphMatcher::new(&q, &g2).count(), 2);
    }

    #[test]
    fn edge_direction_matters() {
        let mut gb = GraphBuilder::new();
        let a = gb.add_node("a", Value::Null);
        let c = gb.add_node("b", Value::Null);
        gb.add_edge(a, c).unwrap();
        let g = gb.build();

        let mut pb = PatternBuilder::with_interner(g.interner().clone());
        let pa = pb.node("a", Predicate::always());
        let pc = pb.node("b", Predicate::always());
        pb.edge(pc, pa); // reversed direction
        let q = pb.build();
        assert_eq!(SubgraphMatcher::new(&q, &g).count(), 0);
    }

    #[test]
    fn candidate_restriction_limits_matches() {
        let g = movie_graph(3);
        let q = movie_pattern(&g);
        // Restrict the movie node to a single data node.
        let movie_nodes = g
            .nodes_with_label(g.interner().get("movie").unwrap())
            .to_vec();
        let actors = g.nodes_with_label(g.interner().get("actor").unwrap());
        let actresses = g.nodes_with_label(g.interner().get("actress").unwrap());
        let candidates = vec![vec![movie_nodes[0]], actors.to_vec(), actresses.to_vec()];
        let matches = SubgraphMatcher::new(&q, &g)
            .with_candidates(candidates)
            .find_all();
        assert_eq!(matches.len(), 1);
        assert_eq!(
            matches.matches()[0].node_for(PatternNodeId(0)),
            movie_nodes[0]
        );
    }

    #[test]
    fn max_matches_short_circuits() {
        let g = movie_graph(10);
        let q = movie_pattern(&g);
        let (matches, stats) = SubgraphMatcher::new(&q, &g)
            .with_config(Vf2Config {
                max_matches: Some(2),
                max_steps: None,
            })
            .run();
        assert_eq!(matches.len(), 2);
        assert!(!stats.aborted);
    }

    #[test]
    fn max_steps_aborts_search() {
        let g = movie_graph(50);
        let q = movie_pattern(&g);
        let (_, stats) = SubgraphMatcher::new(&q, &g)
            .with_config(Vf2Config {
                max_matches: None,
                max_steps: Some(5),
            })
            .run();
        assert!(stats.aborted);
        assert!(stats.steps <= 6);
    }

    #[test]
    fn triangle_pattern_in_cycle() {
        // Directed triangle data graph; triangle pattern has 3 rotations.
        let mut gb = GraphBuilder::new();
        let n0 = gb.add_node("x", Value::Null);
        let n1 = gb.add_node("x", Value::Null);
        let n2 = gb.add_node("x", Value::Null);
        gb.add_edge(n0, n1).unwrap();
        gb.add_edge(n1, n2).unwrap();
        gb.add_edge(n2, n0).unwrap();
        let g = gb.build();

        let mut pb = PatternBuilder::with_interner(g.interner().clone());
        let p0 = pb.node("x", Predicate::always());
        let p1 = pb.node("x", Predicate::always());
        let p2 = pb.node("x", Predicate::always());
        pb.edge(p0, p1);
        pb.edge(p1, p2);
        pb.edge(p2, p0);
        let q = pb.build();
        assert_eq!(SubgraphMatcher::new(&q, &g).count(), 3);
    }
}
