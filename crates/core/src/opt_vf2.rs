//! Fixture tests of `optVF2` ([`opt_subgraph_match`](crate::opt_subgraph_match)):
//! seeded candidates never change `VF2`'s answers and never widen its search.

#[cfg(test)]
mod tests {
    use crate::exec::seed;
    use crate::{opt_subgraph_match, Semantics};
    use bgpq_access::{AccessConstraint, AccessIndexSet, AccessSchema};
    use bgpq_graph::{Graph, GraphBuilder, Value};
    use bgpq_matching::SubgraphMatcher;
    use bgpq_pattern::{Pattern, PatternBuilder, Predicate};

    fn movie_graph(k: usize) -> Graph {
        let mut b = GraphBuilder::new();
        for i in 0..k as i64 {
            let m = b.add_node("movie", Value::Int(2000 + i));
            let a = b.add_node("actor", Value::Int(i));
            let s = b.add_node("actress", Value::Int(i));
            b.add_edge(m, a).unwrap();
            b.add_edge(m, s).unwrap();
        }
        b.build()
    }

    fn star_pattern(graph: &Graph) -> Pattern {
        let mut b = PatternBuilder::with_interner(graph.interner().clone());
        let m = b.node("movie", Predicate::always());
        let a = b.node("actor", Predicate::always());
        let s = b.node("actress", Predicate::always());
        b.edge(m, a);
        b.edge(m, s);
        b.build()
    }

    fn full_schema(graph: &Graph) -> AccessSchema {
        let movie = graph.interner().get("movie").unwrap();
        let actor = graph.interner().get("actor").unwrap();
        let actress = graph.interner().get("actress").unwrap();
        AccessSchema::from_constraints([
            AccessConstraint::global(movie, 100),
            AccessConstraint::unary(movie, actor, 1),
            AccessConstraint::unary(movie, actress, 1),
        ])
    }

    #[test]
    fn matches_equal_plain_vf2() {
        let g = movie_graph(5);
        let q = star_pattern(&g);
        let indices = AccessIndexSet::build(&g, &full_schema(&g));
        let plain = SubgraphMatcher::new(&q, &g).find_all();
        let opt = opt_subgraph_match(&q, &g, &indices);
        assert_eq!(plain, opt);
        assert_eq!(opt.len(), 5);
    }

    #[test]
    fn seeding_prunes_the_search() {
        let g = movie_graph(20);
        let q = star_pattern(&g);
        let indices = AccessIndexSet::build(&g, &full_schema(&g));
        let (_, plain_stats) = SubgraphMatcher::new(&q, &g).run();
        let candidates = seed(&q, &g, &indices, Semantics::Isomorphism);
        let (opt_set, opt_stats) = SubgraphMatcher::new(&q, &g)
            .with_candidates(candidates)
            .run();
        assert_eq!(opt_set.len(), 20);
        assert!(
            opt_stats.steps <= plain_stats.steps,
            "seeded search must not expand more nodes ({} vs {})",
            opt_stats.steps,
            plain_stats.steps
        );
    }

    #[test]
    fn empty_schema_degenerates_to_plain_vf2() {
        let g = movie_graph(3);
        let q = star_pattern(&g);
        let indices = AccessIndexSet::build(&g, &AccessSchema::new());
        let plain = SubgraphMatcher::new(&q, &g).find_all();
        assert_eq!(plain, opt_subgraph_match(&q, &g, &indices));
    }
}
