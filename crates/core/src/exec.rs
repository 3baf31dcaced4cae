//! The bounded executors `bVF2` and `bSim`.
//!
//! Given a pattern `Q`, a data graph `G` and the indices of an access schema
//! `A` with `G |= A`, the executors
//!
//! 1. build a [`QueryPlan`] (or fail with [`PlanError`] when `Q` is not
//!    effectively bounded under `A` for the requested semantics);
//! 2. fetch the bounded fragment `G_Q` through index lookups only
//!    ([`crate::fetch`]);
//! 3. build a zero-copy [`FragmentView`] of `G_Q` over `G` — sorted node
//!    list plus fragment-local adjacency, assembled into a reusable
//!    [`ScratchArena`] — and run the corresponding `bgpq-matching`
//!    algorithm directly on the view, seeded with the fetched candidate
//!    sets.
//!
//! Because the view keeps parent node ids throughout, the answers come out
//! over `G` with **no id remapping**; the former hot path — materializing
//! `G_Q` as a standalone graph and translating ids both ways — survives only
//! as the `#[cfg(test)]` oracle that the zero-copy path is differentially
//! tested against.
//!
//! The central claim of the paper — and the invariant the equivalence test
//! suite locks down — is that the result equals whole-graph matching
//! exactly: `bVF2(Q, G_Q) = VF2(Q, G)` and `bSim(Q, G_Q) = gsim(Q, G)`,
//! while `|G_Q|` is bounded by `Q` and `A` alone.
//!
//! The paper's optimized baselines `optVF2` and `optgsim`
//! ([`opt_subgraph_match`], [`opt_simulation_match`]) are the same matchers
//! on the whole of `G`, seeded through the same planner and fetch
//! ([`seeded_candidates`]): they differ from `bVF2`/`bSim` only in whether
//! the coverage closure reaches every pattern node.

use crate::fetch::{fetch_candidates, seeded_candidates, CandidateSet, FetchStats};
use crate::plan::{plan_query_filtered, PlanError, QueryPlan, Semantics};
use bgpq_access::AccessIndexSet;
use bgpq_graph::{FragmentView, Graph, GraphAccess, NodeId, ScratchArena};
use bgpq_matching::{
    MatchSet, SimulationMatcher, SimulationRelation, SubgraphMatcher, Vf2Config, Vf2Stats,
};
use bgpq_pattern::Pattern;
use std::time::Instant;

/// The outcome of one bounded evaluation.
#[derive(Debug, Clone)]
pub struct BoundedRun<T> {
    /// The answer, over node ids of the *original* graph `G`.
    pub result: T,
    /// The plan that was executed.
    pub plan: QueryPlan,
    /// Fetch counters, including the fragment size `|G_Q|`.
    pub fetch: FetchStats,
}

/// `bVF2`: bounded subgraph-isomorphism matching.
///
/// Returns the exact `VF2` answer computed from the fetched fragment, or
/// [`PlanError`] when the query is not effectively bounded under the schema.
/// Constraints whose index was truncated during its build are excluded from
/// planning — a truncated index cannot honor the fetch contract.
///
/// Allocates a fresh [`ScratchArena`] per call. Session layers that serve
/// repeated queries plan once ([`plan_for_indices`]), fetch
/// ([`fetch_candidate_sets`](crate::fetch::fetch_candidate_sets)) and call
/// [`bounded_subgraph_match_prefetched`] with a pooled arena instead.
pub fn bounded_subgraph_match(
    pattern: &Pattern,
    graph: &Graph,
    indices: &AccessIndexSet,
) -> Result<BoundedRun<MatchSet>, PlanError> {
    let plan = plan_for_indices(pattern, indices, Semantics::Isomorphism)?;
    let fetched = fetch_candidates(&plan, pattern, graph, indices);
    let scratch = &mut ScratchArena::new();
    let config = Vf2Config::default();
    let (result, fetch, _) =
        bounded_subgraph_match_prefetched(pattern, graph, &fetched, config, scratch);
    Ok(BoundedRun {
        result,
        plan,
        fetch,
    })
}

/// `bVF2` from an already-fetched [`CandidateSet`]: builds the zero-copy
/// fragment view from [`CandidateSet::all_nodes`] and matches on it, issuing
/// **no** index lookups. This is the fragment-cache hit path of session
/// layers — the candidate set must have been fetched for this `pattern`
/// against this `graph` (same snapshot), or the answer is undefined.
///
/// The returned [`FetchStats`] are the candidate set's own counters with the
/// fragment fields filled in and the view-construction time *added* to
/// [`FetchStats::fragment_build_nanos`]; callers reusing a cached set can
/// subtract the cached baseline to isolate this call's cost.
pub fn bounded_subgraph_match_prefetched(
    pattern: &Pattern,
    graph: &Graph,
    fetched: &CandidateSet,
    config: Vf2Config,
    scratch: &mut ScratchArena,
) -> (MatchSet, FetchStats, Vf2Stats) {
    let build_started = Instant::now();
    let view = FragmentView::induced(graph, &fetched.all_nodes, scratch);
    let mut fetch = fetched.stats.clone();
    fetch.fragment_nodes = view.node_count();
    fetch.fragment_edges = view.edge_count();
    fetch.adjacency_reads = view.adjacency_reads();
    fetch.fragment_build_nanos = fetch
        .fragment_build_nanos
        .saturating_add(build_started.elapsed().as_nanos() as u64);
    // Candidates are parent ids and the view speaks parent ids: the matches
    // come out over `G` directly.
    let (matches, stats) = SubgraphMatcher::new(pattern, &view)
        .with_candidates(fetched.candidates.clone())
        .with_config(config)
        .run();
    (matches, fetch, stats)
}

/// `bSim`: bounded graph-simulation matching.
///
/// Returns the exact `gsim` answer computed from the fetched fragment, or
/// [`PlanError`] when the query is not effectively bounded under the schema
/// for simulation semantics. Truncated indices are excluded from planning,
/// as for [`bounded_subgraph_match`].
pub fn bounded_simulation_match(
    pattern: &Pattern,
    graph: &Graph,
    indices: &AccessIndexSet,
) -> Result<BoundedRun<SimulationRelation>, PlanError> {
    let plan = plan_for_indices(pattern, indices, Semantics::Simulation)?;
    let fetched = fetch_candidates(&plan, pattern, graph, indices);
    let scratch = &mut ScratchArena::new();
    let (result, fetch) = bounded_simulation_match_prefetched(pattern, graph, &fetched, scratch);
    Ok(BoundedRun {
        result,
        plan,
        fetch,
    })
}

/// `bSim` from an already-fetched [`CandidateSet`], the simulation
/// counterpart of [`bounded_subgraph_match_prefetched`] — the same
/// pattern/snapshot contract and [`FetchStats`] conventions apply.
pub fn bounded_simulation_match_prefetched(
    pattern: &Pattern,
    graph: &Graph,
    fetched: &CandidateSet,
    scratch: &mut ScratchArena,
) -> (SimulationRelation, FetchStats) {
    let build_started = Instant::now();
    let view = FragmentView::induced(graph, &fetched.all_nodes, scratch);
    let mut fetch = fetched.stats.clone();
    fetch.fragment_nodes = view.node_count();
    fetch.fragment_edges = view.edge_count();
    fetch.adjacency_reads = view.adjacency_reads();
    fetch.fragment_build_nanos = fetch
        .fragment_build_nanos
        .saturating_add(build_started.elapsed().as_nanos() as u64);
    let relation = SimulationMatcher::new(pattern, &view)
        .with_candidates(fetched.candidates.clone())
        .run();
    (relation, fetch)
}

/// Plans over the schema behind `indices`, excluding constraints whose
/// index dropped entries when the per-node combination cap was hit: a
/// lookup against such an index can report "empty" for a set that does have
/// common neighbors, which would silently lose matches.
pub fn plan_for_indices(
    pattern: &Pattern,
    indices: &AccessIndexSet,
    semantics: Semantics,
) -> Result<QueryPlan, PlanError> {
    plan_query_filtered(pattern, indices.schema(), semantics, |id| {
        indices.get(id).is_some_and(|index| !index.is_truncated())
    })
}

/// `optVF2`: whole-graph subgraph-isomorphism matching from candidates
/// seeded through the planner's (possibly partial) plan. Equals `VF2`
/// whenever `graph` satisfies the schema behind `indices`.
pub fn opt_subgraph_match(pattern: &Pattern, graph: &Graph, indices: &AccessIndexSet) -> MatchSet {
    let candidates = seed(pattern, graph, indices, Semantics::Isomorphism);
    let matcher = SubgraphMatcher::new(pattern, graph).with_candidates(candidates);
    matcher.find_all()
}

/// `optgsim`: whole-graph simulation from candidates seeded through the
/// planner's (possibly partial) simulation plan. Equals `gsim` whenever
/// `graph` satisfies the schema behind `indices`.
pub fn opt_simulation_match(
    pattern: &Pattern,
    graph: &Graph,
    indices: &AccessIndexSet,
) -> SimulationRelation {
    let candidates = seed(pattern, graph, indices, Semantics::Simulation);
    SimulationMatcher::new(pattern, graph)
        .with_candidates(candidates)
        .run()
}

pub(crate) fn seed(
    pattern: &Pattern,
    graph: &Graph,
    indices: &AccessIndexSet,
    semantics: Semantics,
) -> Vec<Vec<NodeId>> {
    let plan = plan_for_indices(pattern, indices, semantics).unwrap_or_else(|err| err.partial);
    seeded_candidates(&plan, pattern, graph, indices).0
}

/// The pre-zero-copy execution path, kept as the differential oracle: fetch,
/// **materialize** `G_Q` as a standalone graph, remap candidates to local
/// ids, match, and remap the answers back to parent ids.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::fetch::execute_plan;

    pub fn bounded_subgraph_match_materialized(
        plan: &QueryPlan,
        pattern: &Pattern,
        graph: &Graph,
        indices: &AccessIndexSet,
        config: Vf2Config,
    ) -> (MatchSet, FetchStats) {
        assert_eq!(plan.semantics, Semantics::Isomorphism);
        let fetched = execute_plan(plan, pattern, graph, indices);
        let m = fetched.fragment.materialize(graph);
        let local_candidates = to_local(&fetched.candidates, &m.to_parent);
        let (local_matches, _) = SubgraphMatcher::new(pattern, &m.graph)
            .with_candidates(local_candidates)
            .with_config(config)
            .run();
        let result = MatchSet::new(
            local_matches
                .iter()
                .map(|mat| mat.map_nodes(|v| m.parent_node(v))),
        );
        (result, fetched.stats)
    }

    pub fn bounded_simulation_match_materialized(
        plan: &QueryPlan,
        pattern: &Pattern,
        graph: &Graph,
        indices: &AccessIndexSet,
    ) -> (SimulationRelation, FetchStats) {
        assert_eq!(plan.semantics, Semantics::Simulation);
        let fetched = execute_plan(plan, pattern, graph, indices);
        let m = fetched.fragment.materialize(graph);
        let local_candidates = to_local(&fetched.candidates, &m.to_parent);
        let local_relation = SimulationMatcher::new(pattern, &m.graph)
            .with_candidates(local_candidates)
            .run();
        (
            local_relation.map_nodes(|v| m.parent_node(v)),
            fetched.stats,
        )
    }

    /// Translates per-pattern-node candidate sets from parent ids to the
    /// materialized fragment's local ids. `to_parent` is sorted ascending
    /// (the fragment stores its nodes in a `BTreeSet`), so a binary search
    /// inverts it.
    fn to_local(candidates: &[Vec<NodeId>], to_parent: &[NodeId]) -> Vec<Vec<NodeId>> {
        candidates
            .iter()
            .map(|set| {
                set.iter()
                    .filter_map(|v| to_parent.binary_search(v).ok().map(|i| NodeId(i as u32)))
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpq_access::{AccessConstraint, AccessSchema};
    use bgpq_graph::{GraphBuilder, Value};
    use bgpq_matching::simulation_match;
    use bgpq_pattern::{PatternBuilder, PatternNodeId, Predicate};

    /// The running-example graph plus heavy unrelated noise: k extra
    /// disconnected movie-shaped stars whose labels don't appear in the
    /// pattern, and parentless b-noise for the simulation test.
    fn setup() -> (Graph, AccessSchema) {
        let mut b = GraphBuilder::new();
        let y1 = b.add_node("year", Value::Int(2011));
        let y2 = b.add_node("year", Value::Int(2012));
        let aw = b.add_node("award", Value::str("Oscar"));
        for i in 0..4 {
            let m = b.add_node("movie", Value::Int(i));
            b.add_edge(if i % 2 == 0 { y1 } else { y2 }, m).unwrap();
            b.add_edge(aw, m).unwrap();
            for j in 0..2 {
                let a = b.add_node("actor", Value::Int(10 * i + j));
                b.add_edge(m, a).unwrap();
            }
        }
        for i in 0..100 {
            b.add_node("unrelated", Value::Int(i));
        }
        let g = b.build();
        let year = g.interner().get("year").unwrap();
        let award = g.interner().get("award").unwrap();
        let movie = g.interner().get("movie").unwrap();
        let actor = g.interner().get("actor").unwrap();
        let schema = AccessSchema::from_constraints([
            AccessConstraint::global(year, 2),
            AccessConstraint::global(award, 1),
            AccessConstraint::new([year, award], movie, 2),
            AccessConstraint::unary(movie, actor, 2),
        ]);
        (g, schema)
    }

    fn movie_pattern(g: &Graph) -> Pattern {
        let mut pb = PatternBuilder::with_interner(g.interner().clone());
        let m = pb.node("movie", Predicate::always());
        let y = pb.node("year", Predicate::single(bgpq_pattern::Op::Eq, 2011));
        let a = pb.node("award", Predicate::always());
        let act = pb.node("actor", Predicate::always());
        pb.edge(y, m);
        pb.edge(a, m);
        pb.edge(m, act);
        pb.build()
    }

    #[test]
    fn bvf2_equals_whole_graph_vf2_on_a_small_fragment() {
        let (g, schema) = setup();
        let indices = AccessIndexSet::build(&g, &schema);
        let q = movie_pattern(&g);
        let whole = SubgraphMatcher::new(&q, &g).find_all();
        let run = bounded_subgraph_match(&q, &g, &indices).unwrap();
        assert_eq!(whole, run.result);
        assert_eq!(run.result.len(), 4); // 2 movies × 2 actors
                                         // The fragment is a fraction of the 111-node graph.
        assert!(run.fetch.fragment_nodes <= 8);
        assert!(run.fetch.fragment_size() < g.size() / 4);
    }

    #[test]
    fn bsim_requires_simulation_sound_schema() {
        let (g, schema) = setup();
        let indices = AccessIndexSet::build(&g, &schema);
        let q = movie_pattern(&g);
        // actor is only reachable through its parent movie → not bounded
        // for simulation under this schema.
        assert!(bounded_simulation_match(&q, &g, &indices).is_err());
    }

    #[test]
    fn bsim_equals_whole_graph_gsim() {
        // a -> b with schema global(b), b → (a, N): bounded for simulation.
        let mut gb = GraphBuilder::new();
        let a1 = gb.add_node("a", Value::Int(1));
        let b1 = gb.add_node("b", Value::Int(1));
        let a2 = gb.add_node("a", Value::Int(2));
        let b2 = gb.add_node("b", Value::Int(2));
        gb.add_node("a", Value::Int(3)); // childless a: pruned by gsim
        gb.add_edge(a1, b1).unwrap();
        gb.add_edge(a2, b2).unwrap();
        for i in 0..30 {
            gb.add_node("z", Value::Int(i));
        }
        let g = gb.build();
        let la = g.interner().get("a").unwrap();
        let lb = g.interner().get("b").unwrap();
        let schema = AccessSchema::from_constraints([
            AccessConstraint::global(lb, 2),
            AccessConstraint::unary(lb, la, 1),
        ]);
        let indices = AccessIndexSet::build(&g, &schema);

        let mut pb = PatternBuilder::with_interner(g.interner().clone());
        let pa = pb.node("a", Predicate::always());
        let pbn = pb.node("b", Predicate::always());
        pb.edge(pa, pbn);
        let q = pb.build();

        let whole = simulation_match(&q, &g);
        let run = bounded_simulation_match(&q, &g, &indices).unwrap();
        assert_eq!(whole, run.result);
        assert_eq!(run.result.matches_of(PatternNodeId(0)).len(), 2);
        assert_eq!(run.result.matches_of(PatternNodeId(1)).len(), 2);
        assert!(run.fetch.fragment_nodes <= 4);
    }

    #[test]
    fn unbounded_query_is_rejected() {
        let (g, _) = setup();
        let indices = AccessIndexSet::build(&g, &AccessSchema::new());
        let q = movie_pattern(&g);
        let err = bounded_subgraph_match(&q, &g, &indices).unwrap_err();
        assert_eq!(err.uncovered.len(), q.node_count());
    }

    #[test]
    fn empty_pattern_matches_once() {
        let (g, schema) = setup();
        let indices = AccessIndexSet::build(&g, &schema);
        let q = PatternBuilder::with_interner(g.interner().clone()).build();
        let run = bounded_subgraph_match(&q, &g, &indices).unwrap();
        assert_eq!(run.result.len(), 1);
        assert!(run.result.matches()[0].is_empty());
        let sim = bounded_simulation_match(&q, &g, &indices).unwrap();
        assert!(sim.result.is_empty());
    }

    #[test]
    fn no_match_when_predicates_filter_everything() {
        let (g, schema) = setup();
        let indices = AccessIndexSet::build(&g, &schema);
        let mut pb = PatternBuilder::with_interner(g.interner().clone());
        let m = pb.node("movie", Predicate::always());
        let y = pb.node("year", Predicate::single(bgpq_pattern::Op::Eq, 1999));
        let a = pb.node("award", Predicate::always());
        pb.edge(y, m);
        pb.edge(a, m);
        let q = pb.build();
        let run = bounded_subgraph_match(&q, &g, &indices).unwrap();
        assert!(run.result.is_empty());
        assert_eq!(run.result, SubgraphMatcher::new(&q, &g).find_all());
    }

    /// The zero-copy path must return byte-identical answers and fetch
    /// counters to the retired materialize-and-remap path.
    #[test]
    fn zero_copy_execution_matches_materialized_oracle() {
        let (g, schema) = setup();
        let indices = AccessIndexSet::build(&g, &schema);
        let mut scratch = ScratchArena::new();

        let q = movie_pattern(&g);
        let plan = plan_for_indices(&q, &indices, Semantics::Isomorphism).unwrap();
        let fetched = fetch_candidates(&plan, &q, &g, &indices);
        let (fast, fast_fetch, _) =
            bounded_subgraph_match_prefetched(&q, &g, &fetched, Vf2Config::default(), &mut scratch);
        let (oracle, oracle_fetch) = super::oracle::bounded_subgraph_match_materialized(
            &plan,
            &q,
            &g,
            &indices,
            Vf2Config::default(),
        );
        assert_eq!(fast, oracle);
        assert_eq!(fast_fetch.fragment_nodes, oracle_fetch.fragment_nodes);
        assert_eq!(fast_fetch.fragment_edges, oracle_fetch.fragment_edges);
        assert_eq!(fast_fetch.index_lookups, oracle_fetch.index_lookups);
        assert_eq!(
            fast_fetch.predicate_filtered,
            oracle_fetch.predicate_filtered
        );

        // Simulation side, on a simulation-bounded fixture, reusing the
        // same arena (exercises cross-query reuse).
        let mut gb = GraphBuilder::new();
        let a1 = gb.add_node("a", Value::Int(1));
        let b1 = gb.add_node("b", Value::Int(1));
        gb.add_edge(a1, b1).unwrap();
        gb.add_node("b", Value::Int(2));
        let g2 = gb.build();
        let la = g2.interner().get("a").unwrap();
        let lb = g2.interner().get("b").unwrap();
        let schema2 = AccessSchema::from_constraints([
            AccessConstraint::global(lb, 2),
            AccessConstraint::unary(lb, la, 1),
        ]);
        let indices2 = AccessIndexSet::build(&g2, &schema2);
        let mut pb = PatternBuilder::with_interner(g2.interner().clone());
        let pa = pb.node("a", Predicate::always());
        let pbn = pb.node("b", Predicate::always());
        pb.edge(pa, pbn);
        let q2 = pb.build();
        let plan2 = plan_for_indices(&q2, &indices2, Semantics::Simulation).unwrap();
        let fetched2 = fetch_candidates(&plan2, &q2, &g2, &indices2);
        let (fast, _) = bounded_simulation_match_prefetched(&q2, &g2, &fetched2, &mut scratch);
        let (oracle, _) =
            super::oracle::bounded_simulation_match_materialized(&plan2, &q2, &g2, &indices2);
        assert_eq!(fast, oracle);
        assert_eq!(fast, simulation_match(&q2, &g2));
    }

    /// Arena reuse across many queries must never leak state between
    /// fragments.
    #[test]
    fn scratch_arena_reuse_is_stateless_across_queries() {
        let (g, schema) = setup();
        let indices = AccessIndexSet::build(&g, &schema);
        let mut scratch = ScratchArena::new();
        let q = movie_pattern(&g);
        let plan = plan_for_indices(&q, &indices, Semantics::Isomorphism).unwrap();
        let baseline = SubgraphMatcher::new(&q, &g).find_all();
        for _ in 0..5 {
            let fetched = fetch_candidates(&plan, &q, &g, &indices);
            let config = Vf2Config::default();
            let (matches, fetch, _) =
                bounded_subgraph_match_prefetched(&q, &g, &fetched, config, &mut scratch);
            assert_eq!(matches, baseline);
            assert!(fetch.fragment_nodes <= 8);
        }
    }

    /// A hub with enough (x, y) neighbor pairs to overflow the per-node
    /// combination cap: its pair index is truncated and must be excluded
    /// from bounded planning rather than silently losing matches.
    #[test]
    fn truncated_indices_are_excluded_from_plans() {
        let mut gb = GraphBuilder::new();
        let hub = gb.add_node("hub", Value::Null);
        for i in 0..70 {
            let x = gb.add_node("x", Value::Int(i));
            let y = gb.add_node("y", Value::Int(i));
            gb.add_edge(x, hub).unwrap();
            gb.add_edge(y, hub).unwrap();
        }
        let g = gb.build();
        let x_l = g.interner().get("x").unwrap();
        let y_l = g.interner().get("y").unwrap();
        let hub_l = g.interner().get("hub").unwrap();
        let schema = AccessSchema::from_constraints([
            AccessConstraint::global(x_l, 70),
            AccessConstraint::global(y_l, 70),
            AccessConstraint::new([x_l, y_l], hub_l, 4900),
        ]);
        let indices = AccessIndexSet::build(&g, &schema);
        assert!(
            indices
                .get(bgpq_access::ConstraintId(2))
                .unwrap()
                .is_truncated(),
            "fixture must actually truncate"
        );

        let mut pb = PatternBuilder::with_interner(g.interner().clone());
        let px = pb.node("x", Predicate::always());
        let py = pb.node("y", Predicate::always());
        let ph = pb.node("hub", Predicate::always());
        pb.edge(px, ph);
        pb.edge(py, ph);
        let q = pb.build();

        // The only constraint covering `hub` is truncated, so the query is
        // rejected rather than answered from an incomplete index.
        let err = bounded_subgraph_match(&q, &g, &indices).unwrap_err();
        assert_eq!(err.uncovered, vec![PatternNodeId(2)]);
        // And the seeded baseline falls back instead of narrowing through
        // the truncated index: answers stay identical to plain VF2.
        let plain = SubgraphMatcher::new(&q, &g).find_all();
        assert_eq!(plain.len(), 70 * 70);
        assert_eq!(plain, opt_subgraph_match(&q, &g, &indices));
    }

    /// A unary hub target listed under more sources than the cap: a unary
    /// index answers from the graph's rows and never truncates, so under a
    /// cap of 1 and the default cap alike every lookup is complete and the
    /// query plans and answers in full.
    #[test]
    fn a_unary_hub_target_past_the_cap_still_plans() {
        let posts = bgpq_access::DEFAULT_MAX_COMBINATIONS_PER_NODE + 10;
        let mut gb = GraphBuilder::new();
        let hub = gb.add_node("tag", Value::Null);
        for i in 0..posts {
            let post = gb.add_node("post", Value::Int(i as i64));
            gb.add_edge(post, hub).unwrap();
        }
        let g = gb.build();
        let post_l = g.interner().get("post").unwrap();
        let tag_l = g.interner().get("tag").unwrap();
        let schema = AccessSchema::from_constraints([
            AccessConstraint::global(post_l, posts),
            AccessConstraint::unary(post_l, tag_l, 1),
        ]);
        let mut pb = PatternBuilder::with_interner(g.interner().clone());
        let pp = pb.node("post", Predicate::always());
        let pt = pb.node("tag", Predicate::always());
        pb.edge(pp, pt);
        let q = pb.build();
        for indices in [
            AccessIndexSet::build_with_cap(&g, &schema, 1),
            AccessIndexSet::build(&g, &schema),
        ] {
            let unary = indices.get(bgpq_access::ConstraintId(1)).unwrap();
            assert!(!unary.is_truncated());
            assert_eq!(unary.key_count(), posts);
            for &post in g.nodes_with_label(post_l) {
                assert_eq!(unary.common_neighbors(&[post]).to_vec(), [hub]);
            }
            let plan = plan_for_indices(&q, &indices, Semantics::Isomorphism);
            assert!(plan.is_ok(), "cap {}", unary.cap());
            let run = bounded_subgraph_match(&q, &g, &indices).unwrap();
            assert_eq!(run.result.len(), posts);
        }
    }
}
