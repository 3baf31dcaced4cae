//! Fixture tests of `optgsim`
//! ([`opt_simulation_match`](crate::opt_simulation_match)): seeding never
//! changes `gsim`'s answers, and it narrows a node only through its
//! children, never through a parent.

#[cfg(test)]
mod tests {
    use crate::opt_simulation_match;
    use bgpq_access::{AccessConstraint, AccessIndexSet, AccessSchema};
    use bgpq_graph::{Graph, GraphBuilder, Value};
    use bgpq_matching::simulation_match;
    use bgpq_pattern::{Pattern, PatternBuilder, PatternNodeId, Predicate};

    /// a1 -> b1, a2 -> b2, plus b3 with no incoming a-edge.
    fn ab_graph() -> Graph {
        let mut b = GraphBuilder::new();
        let a1 = b.add_node("a", Value::Int(1));
        let b1 = b.add_node("b", Value::Int(1));
        let a2 = b.add_node("a", Value::Int(2));
        let b2 = b.add_node("b", Value::Int(2));
        b.add_node("b", Value::Int(3));
        b.add_edge(a1, b1).unwrap();
        b.add_edge(a2, b2).unwrap();
        b.build()
    }

    fn ab_pattern(graph: &Graph) -> Pattern {
        let mut pb = PatternBuilder::with_interner(graph.interner().clone());
        let pa = pb.node("a", Predicate::always());
        let pc = pb.node("b", Predicate::always());
        pb.edge(pa, pc);
        pb.build()
    }

    /// The regression the child-only rule exists for: `b3` simulates the
    /// pattern's `b` node despite having no `a` parent, so narrowing `b`
    /// through the `a → (b, N)` constraint would lose it.
    #[test]
    fn parentless_simulators_are_preserved() {
        let g = ab_graph();
        let q = ab_pattern(&g);
        let a_l = g.interner().get("a").unwrap();
        let b_l = g.interner().get("b").unwrap();
        let schema = AccessSchema::from_constraints([
            AccessConstraint::global(a_l, 10),
            AccessConstraint::unary(a_l, b_l, 1),
        ]);
        let indices = AccessIndexSet::build(&g, &schema);
        let plain = simulation_match(&q, &g);
        let opt = opt_simulation_match(&q, &g, &indices);
        assert_eq!(plain, opt);
        // All three b-nodes simulate the child (it has no requirements).
        assert_eq!(opt.matches_of(PatternNodeId(1)).len(), 3);
        // Only a1 and a2 simulate the parent.
        assert_eq!(opt.matches_of(PatternNodeId(0)).len(), 2);
    }

    #[test]
    fn child_side_narrowing_is_used_and_lossless() {
        let g = ab_graph();
        let q = ab_pattern(&g);
        let a_l = g.interner().get("a").unwrap();
        let b_l = g.interner().get("b").unwrap();
        // `a` can be narrowed through its child `b`: every simulating a-node
        // has a b-child witness.
        let schema = AccessSchema::from_constraints([
            AccessConstraint::global(b_l, 10),
            AccessConstraint::unary(b_l, a_l, 1),
        ]);
        let indices = AccessIndexSet::build(&g, &schema);
        assert_eq!(
            simulation_match(&q, &g),
            opt_simulation_match(&q, &g, &indices)
        );
    }

    #[test]
    fn predicates_and_empty_schema() {
        let g = ab_graph();
        let mut pb = PatternBuilder::with_interner(g.interner().clone());
        let pa = pb.node("a", Predicate::always());
        let pc = pb.node("b", Predicate::range(1, 2));
        pb.edge(pa, pc);
        let q = pb.build();
        let indices = AccessIndexSet::build(&g, &AccessSchema::new());
        assert_eq!(
            simulation_match(&q, &g),
            opt_simulation_match(&q, &g, &indices)
        );
    }
}
