//! Maximum graph simulation (the `gsim` baseline).
//!
//! A binary relation `R ⊆ V_Q × V` is a *simulation* of pattern `Q` in graph
//! `G` when for every `(u, v) ∈ R`:
//!
//! * labels agree (`f_Q(u) = f(v)`) and the predicate holds (`g_Q(ν(v))`);
//! * for every pattern edge `(u, u')` there is a data edge `(v, v')` with
//!   `(u', v') ∈ R` — every child requirement of `u` has a witness.
//!
//! `Q(G)` is the unique **maximum** such relation in which every pattern node
//! has at least one match; when some pattern node cannot be matched the
//! answer is empty (see [`SimulationRelation::from_candidates`]). The
//! implementation is the fixpoint refinement of Henzinger, Henzinger & Kopke:
//! start from all label/predicate-compatible pairs and repeatedly remove
//! pairs that lost their last witness, until stable.
//!
//! Like [`crate::vf2`], the matcher accepts optional externally supplied
//! candidate sets; `optgsim` (`bgpq_core::exec::opt_simulation_match`) and
//! the bounded executor `bSim` (`bgpq_core::exec::bounded_simulation_match`) seed it with
//! index-restricted candidates, which never changes the result as long as
//! the candidate sets cover the maximum relation.

use crate::result::SimulationRelation;
use bgpq_graph::{Graph, GraphAccess, NodeId};
use bgpq_pattern::{Pattern, PatternNodeId};
use std::collections::BTreeSet;

/// Fixpoint matcher computing the maximum graph-simulation relation.
///
/// Generic over [`GraphAccess`], like [`crate::SubgraphMatcher`]: `gsim` and
/// `optgsim` run it on the whole [`Graph`], the bounded executor `bSim` on a
/// zero-copy [`FragmentView`](bgpq_graph::FragmentView) of the fetched
/// fragment.
pub struct SimulationMatcher<'a, G: GraphAccess = Graph> {
    pattern: &'a Pattern,
    graph: &'a G,
    /// Optional externally supplied candidate sets per pattern node.
    candidates: Option<Vec<Vec<NodeId>>>,
}

impl<'a, G: GraphAccess> SimulationMatcher<'a, G> {
    /// Creates a matcher over the full data graph.
    pub fn new(pattern: &'a Pattern, graph: &'a G) -> Self {
        SimulationMatcher {
            pattern,
            graph,
            candidates: None,
        }
    }

    /// Restricts the initial relation to the given candidate sets (one per
    /// pattern node, indexed by [`PatternNodeId`]).
    ///
    /// The result is unchanged as long as each candidate set is a superset of
    /// the maximum relation's matches for that node.
    pub fn with_candidates(mut self, candidates: Vec<Vec<NodeId>>) -> Self {
        assert_eq!(candidates.len(), self.pattern.node_count());
        self.candidates = Some(candidates);
        self
    }

    /// True when data node `v` can possibly simulate pattern node `u`.
    fn compatible(&self, u: PatternNodeId, v: NodeId) -> bool {
        self.graph.label(v) == self.pattern.label(u)
            && self.pattern.predicate(u).eval(self.graph.value(v))
    }

    /// The initial (pre-refinement) match set of pattern node `u`.
    fn initial_set(&self, u: PatternNodeId) -> BTreeSet<NodeId> {
        match &self.candidates {
            Some(cands) => cands[u.index()]
                .iter()
                .copied()
                .filter(|&v| self.graph.contains_node(v) && self.compatible(u, v))
                .collect(),
            None => self
                .graph
                .nodes_with_label(self.pattern.label(u))
                .iter()
                .copied()
                .filter(|&v| self.compatible(u, v))
                .collect(),
        }
    }

    /// Runs the refinement to the maximum fixpoint.
    pub fn run(&self) -> SimulationRelation {
        let n = self.pattern.node_count();
        let mut sim: Vec<BTreeSet<NodeId>> =
            self.pattern.nodes().map(|u| self.initial_set(u)).collect();

        loop {
            let mut changed = false;
            for i in 0..n {
                let u = PatternNodeId(i as u32);
                for &child in self.pattern.children(u) {
                    // Drop every v ∈ sim(u) without an out-neighbor in
                    // sim(child). Removals are collected first so that
                    // self-loops (u = child) read a consistent snapshot.
                    let doomed: Vec<NodeId> = sim[i]
                        .iter()
                        .copied()
                        .filter(|&v| {
                            !self
                                .graph
                                .out_neighbors(v)
                                .iter()
                                .any(|w| sim[child.index()].contains(w))
                        })
                        .collect();
                    if !doomed.is_empty() {
                        changed = true;
                        for v in doomed {
                            sim[i].remove(&v);
                        }
                    }
                }
                if sim[i].is_empty() && n > 0 {
                    // Totality is violated: the whole answer is empty.
                    return SimulationRelation::empty(n);
                }
            }
            if !changed {
                break;
            }
        }
        SimulationRelation::from_candidates(
            sim.into_iter().map(|s| s.into_iter().collect()).collect(),
        )
    }
}

/// Computes the maximum graph-simulation relation of `pattern` in `graph`
/// (the paper's `gsim` baseline). Accepts any [`GraphAccess`]
/// implementation.
pub fn simulation_match<G: GraphAccess>(pattern: &Pattern, graph: &G) -> SimulationRelation {
    SimulationMatcher::new(pattern, graph).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpq_graph::{GraphBuilder, Value};
    use bgpq_pattern::{PatternBuilder, Predicate};

    /// a1 -> b1 -> c1, a2 -> b2 (b2 has no c-child), plus a dangling b3.
    fn chain_graph() -> Graph {
        let mut b = GraphBuilder::new();
        let a1 = b.add_node("a", Value::Int(1));
        let b1 = b.add_node("b", Value::Int(1));
        let c1 = b.add_node("c", Value::Int(1));
        let a2 = b.add_node("a", Value::Int(2));
        let b2 = b.add_node("b", Value::Int(2));
        b.add_node("b", Value::Int(3));
        b.add_edge(a1, b1).unwrap();
        b.add_edge(b1, c1).unwrap();
        b.add_edge(a2, b2).unwrap();
        b.build()
    }

    fn chain_pattern(graph: &Graph) -> Pattern {
        let mut b = PatternBuilder::with_interner(graph.interner().clone());
        let a = b.node("a", Predicate::always());
        let c = b.node("b", Predicate::always());
        let d = b.node("c", Predicate::always());
        b.edge(a, c);
        b.edge(c, d);
        b.build()
    }

    #[test]
    fn refinement_prunes_nodes_without_witnesses() {
        let g = chain_graph();
        let q = chain_pattern(&g);
        let rel = simulation_match(&q, &g);
        // Only a1 -> b1 -> c1 survives: b2 has no c-child, b3 no child at all,
        // and a2's only b-child (b2) is pruned.
        assert_eq!(rel.matches_of(PatternNodeId(0)), &[NodeId(0)]);
        assert_eq!(rel.matches_of(PatternNodeId(1)), &[NodeId(1)]);
        assert_eq!(rel.matches_of(PatternNodeId(2)), &[NodeId(2)]);
        assert!(rel.is_total_for(&q));
    }

    #[test]
    fn simulation_allows_non_injective_matches() {
        // Pattern: two a-nodes pointing at one b; data: a single a -> b.
        // Simulation (unlike isomorphism) matches both pattern a's to the
        // same data node.
        let mut gb = GraphBuilder::new();
        let a = gb.add_node("a", Value::Null);
        let c = gb.add_node("b", Value::Null);
        gb.add_edge(a, c).unwrap();
        let g = gb.build();

        let mut pb = PatternBuilder::with_interner(g.interner().clone());
        let p1 = pb.node("a", Predicate::always());
        let p2 = pb.node("a", Predicate::always());
        let pc = pb.node("b", Predicate::always());
        pb.edge(p1, pc);
        pb.edge(p2, pc);
        let q = pb.build();
        let rel = simulation_match(&q, &g);
        assert_eq!(rel.matches_of(PatternNodeId(0)), &[a]);
        assert_eq!(rel.matches_of(PatternNodeId(1)), &[a]);
        assert_eq!(rel.matches_of(PatternNodeId(2)), &[c]);
    }

    #[test]
    fn totality_violation_empties_the_relation() {
        let g = chain_graph();
        let mut pb = PatternBuilder::with_interner(g.interner().clone());
        let pa = pb.node("a", Predicate::always());
        let pd = pb.node("d", Predicate::always()); // label absent from G
        pb.edge(pa, pd);
        let q = pb.build();
        let rel = simulation_match(&q, &g);
        assert!(rel.is_empty());
        assert_eq!(rel.pattern_node_count(), 2);
    }

    #[test]
    fn predicates_restrict_the_relation() {
        let g = chain_graph();
        let mut pb = PatternBuilder::with_interner(g.interner().clone());
        pb.node("b", Predicate::range(2, 3));
        let q = pb.build();
        let rel = simulation_match(&q, &g);
        // b2 (value 2) and b3 (value 3) pass; b1 (value 1) does not.
        assert_eq!(rel.matches_of(PatternNodeId(0)), &[NodeId(4), NodeId(5)]);
    }

    #[test]
    fn cycle_pattern_on_cycle_graph() {
        let mut gb = GraphBuilder::new();
        let n0 = gb.add_node("x", Value::Null);
        let n1 = gb.add_node("x", Value::Null);
        gb.add_edge(n0, n1).unwrap();
        gb.add_edge(n1, n0).unwrap();
        let g = gb.build();

        let mut pb = PatternBuilder::with_interner(g.interner().clone());
        let p0 = pb.node("x", Predicate::always());
        let p1 = pb.node("x", Predicate::always());
        pb.edge(p0, p1);
        pb.edge(p1, p0);
        let q = pb.build();
        let rel = simulation_match(&q, &g);
        // Both data nodes simulate both pattern nodes.
        assert_eq!(rel.pair_count(), 4);
    }

    #[test]
    fn self_loop_pattern_requires_cyclic_witnesses() {
        // Pattern x with a self-loop: only data nodes on an x-cycle qualify.
        let mut gb = GraphBuilder::new();
        let on_cycle = gb.add_node("x", Value::Null);
        let chain = gb.add_node("x", Value::Null);
        gb.add_edge(on_cycle, on_cycle).unwrap();
        gb.add_edge(chain, on_cycle).unwrap();
        let g = gb.build();

        let mut pb = PatternBuilder::with_interner(g.interner().clone());
        let p = pb.node("x", Predicate::always());
        pb.edge(p, p);
        let q = pb.build();
        let rel = simulation_match(&q, &g);
        assert_eq!(rel.matches_of(PatternNodeId(0)), &[on_cycle, chain]);
        // `chain` survives because its witness (`on_cycle`) stays in the set.
    }

    #[test]
    fn empty_pattern_yields_empty_relation() {
        let g = chain_graph();
        let q = PatternBuilder::with_interner(g.interner().clone()).build();
        let rel = simulation_match(&q, &g);
        assert_eq!(rel.pattern_node_count(), 0);
        assert!(rel.is_empty());
    }

    #[test]
    fn candidate_restriction_with_superset_is_lossless() {
        let g = chain_graph();
        let q = chain_pattern(&g);
        let full = simulation_match(&q, &g);
        // Seed with exactly the label-compatible sets (a sound superset).
        let candidates: Vec<Vec<NodeId>> = q
            .nodes()
            .map(|u| g.nodes_with_label(q.label(u)).to_vec())
            .collect();
        let seeded = SimulationMatcher::new(&q, &g)
            .with_candidates(candidates)
            .run();
        assert_eq!(full, seeded);
    }

    #[test]
    fn candidate_restriction_can_shrink_the_relation() {
        let g = chain_graph();
        let mut pb = PatternBuilder::with_interner(g.interner().clone());
        pb.node("b", Predicate::always());
        let q = pb.build();
        let seeded = SimulationMatcher::new(&q, &g)
            .with_candidates(vec![vec![NodeId(1)]])
            .run();
        assert_eq!(seeded.matches_of(PatternNodeId(0)), &[NodeId(1)]);
    }
}
