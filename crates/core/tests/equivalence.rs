//! Cross-algorithm equivalence: the paper's central claim, as a test suite.
//!
//! On generated workloads (fixed seeds, deterministic generator) over a
//! deterministic data graph, every algorithm of the same semantics must
//! return exactly the same answer:
//!
//! * subgraph queries: `VF2 = optVF2 = bVF2` — identical [`MatchSet`]s;
//! * simulation queries: `gsim = optgsim = bSim` — identical
//!   [`SimulationRelation`]s, node for node;
//!
//! while `bVF2`/`bSim` compute theirs from the bounded fragment `G_Q`
//! fetched through access-constraint indices.

use bgpq_access::{check_schema, discover_schema, AccessIndexSet, DiscoveryConfig};
use bgpq_core::{
    bounded_simulation_match, bounded_subgraph_match, opt_simulation_match, opt_subgraph_match,
};
use bgpq_graph::{Graph, GraphBuilder, Value};
use bgpq_matching::{simulation_match, SubgraphMatcher};
use bgpq_pattern::{Pattern, WorkloadGenerator};

/// A deterministic IMDb-shaped graph: years, awards, movies, actors,
/// actresses, countries, genres — rich enough that generated patterns find
/// matches and discovery finds non-trivial constraints.
fn data_graph() -> Graph {
    let mut b = GraphBuilder::new();
    let years: Vec<_> = (0..6)
        .map(|i| b.add_node("year", Value::Int(2008 + i)))
        .collect();
    let awards: Vec<_> = (0..3)
        .map(|i| b.add_node("award", Value::str(format!("award{i}"))))
        .collect();
    let countries: Vec<_> = (0..4)
        .map(|i| b.add_node("country", Value::str(format!("c{i}"))))
        .collect();
    let genres: Vec<_> = (0..3)
        .map(|i| b.add_node("genre", Value::str(format!("g{i}"))))
        .collect();
    for i in 0..18i64 {
        let m = b.add_node("movie", Value::Int(i));
        let y = years[(i % 6) as usize];
        let aw = awards[(i % 3) as usize];
        b.add_edge(y, m).unwrap();
        b.add_edge(aw, m).unwrap();
        b.add_edge(m, genres[(i % 3) as usize]).unwrap();
        for j in 0..2 {
            let actor = b.add_node("actor", Value::Int(10 * i + j));
            b.add_edge(m, actor).unwrap();
            b.add_edge(actor, countries[((i + j) % 4) as usize])
                .unwrap();
        }
        let actress = b.add_node("actress", Value::Int(100 + i));
        b.add_edge(m, actress).unwrap();
        b.add_edge(actress, countries[(i % 4) as usize]).unwrap();
    }
    b.build()
}

/// Discovered schema + indices, verified to hold on the graph.
fn discovered_indices(graph: &Graph) -> AccessIndexSet {
    let schema = discover_schema(graph, &DiscoveryConfig::default());
    assert!(
        check_schema(graph, &schema).is_empty(),
        "discovered schema must be satisfied by construction"
    );
    AccessIndexSet::build(graph, &schema)
}

/// The three fixed workload seeds the issue asks for.
const SEEDS: [u64; 3] = [1, 7, 42];

fn workload(graph: &Graph, seed: u64) -> Vec<Pattern> {
    let mut generator = WorkloadGenerator::with_seed(seed);
    let mut patterns = generator.generate_anchored(graph, 6);
    patterns.extend(generator.generate(graph, 6));
    patterns
}

#[test]
fn subgraph_queries_vf2_optvf2_bvf2_agree() {
    let g = data_graph();
    let indices = discovered_indices(&g);
    let mut bounded_total = 0usize;
    let mut nonempty_total = 0usize;
    for seed in SEEDS {
        for (i, q) in workload(&g, seed).iter().enumerate() {
            let vf2 = SubgraphMatcher::new(q, &g).find_all();
            let opt = opt_subgraph_match(q, &g, &indices);
            assert_eq!(vf2, opt, "VF2 vs optVF2, seed {seed}, pattern {i}");
            let run = bounded_subgraph_match(q, &g, &indices)
                .unwrap_or_else(|e| panic!("seed {seed}, pattern {i} not bounded: {e}"));
            assert_eq!(vf2, run.result, "VF2 vs bVF2, seed {seed}, pattern {i}");
            bounded_total += 1;
            if !vf2.is_empty() {
                nonempty_total += 1;
            }
        }
    }
    // The discovered schema has a global constraint per label, so every
    // workload pattern is effectively bounded.
    assert_eq!(bounded_total, SEEDS.len() * 12);
    // Anchored generation guarantees the suite exercises non-empty answers.
    assert!(
        nonempty_total >= SEEDS.len() * 3,
        "too few non-empty workloads: {nonempty_total}"
    );
}

#[test]
fn simulation_queries_gsim_optgsim_bsim_agree() {
    let g = data_graph();
    let indices = discovered_indices(&g);
    let mut nonempty_total = 0usize;
    for seed in SEEDS {
        for (i, q) in workload(&g, seed).iter().enumerate() {
            let gsim = simulation_match(q, &g);
            let opt = opt_simulation_match(q, &g, &indices);
            assert_eq!(gsim, opt, "gsim vs optgsim, seed {seed}, pattern {i}");
            let run = bounded_simulation_match(q, &g, &indices)
                .unwrap_or_else(|e| panic!("seed {seed}, pattern {i} not bounded: {e}"));
            assert_eq!(gsim, run.result, "gsim vs bSim, seed {seed}, pattern {i}");
            if !gsim.is_empty() {
                nonempty_total += 1;
            }
        }
    }
    assert!(
        nonempty_total >= SEEDS.len() * 3,
        "too few non-empty workloads: {nonempty_total}"
    );
}

#[test]
fn bounded_fragments_are_small_and_lookups_bounded() {
    let g = data_graph();
    let indices = discovered_indices(&g);
    for seed in SEEDS {
        for q in workload(&g, seed) {
            let run = bounded_subgraph_match(&q, &g, &indices).unwrap();
            // The fragment never exceeds the whole graph, and the fetched
            // node count respects the plan's a-priori bound.
            assert!(run.fetch.fragment_size() <= g.size());
            assert!((run.fetch.fragment_nodes as u64) <= run.plan.worst_case_nodes());
            assert!(run.fetch.index_lookups > 0 || q.is_empty());
        }
    }
}

/// Equivalence also holds when the fetch has to propagate through a general
/// `(year, award) → movie` constraint rather than global label counts.
#[test]
fn equivalence_through_pair_constraint_propagation() {
    use bgpq_access::{AccessConstraint, AccessSchema};
    use bgpq_pattern::{PatternBuilder, Predicate};

    let g = data_graph();
    let year = g.interner().get("year").unwrap();
    let award = g.interner().get("award").unwrap();
    let movie = g.interner().get("movie").unwrap();
    let actor = g.interner().get("actor").unwrap();
    let actress = g.interner().get("actress").unwrap();
    let country = g.interner().get("country").unwrap();
    // No global movie/actor/actress/country constraints: those nodes can
    // only be fetched by propagating through the pattern.
    let schema = AccessSchema::from_constraints([
        AccessConstraint::global(year, 10),
        AccessConstraint::global(award, 10),
        AccessConstraint::new([year, award], movie, 6),
        AccessConstraint::unary(movie, actor, 4),
        AccessConstraint::unary(movie, actress, 4),
        AccessConstraint::unary(actor, country, 2),
    ]);
    assert!(check_schema(&g, &schema).is_empty());
    let indices = AccessIndexSet::build(&g, &schema);

    let mut pb = PatternBuilder::with_interner(g.interner().clone());
    let p_m = pb.node("movie", Predicate::always());
    let p_y = pb.node("year", Predicate::range(2009, 2011));
    let p_aw = pb.node("award", Predicate::always());
    let p_ac = pb.node("actor", Predicate::always());
    let p_c = pb.node("country", Predicate::always());
    pb.edge(p_y, p_m);
    pb.edge(p_aw, p_m);
    pb.edge(p_m, p_ac);
    pb.edge(p_ac, p_c);
    let q = pb.build();

    let vf2 = SubgraphMatcher::new(&q, &g).find_all();
    assert!(!vf2.is_empty());
    assert_eq!(vf2, opt_subgraph_match(&q, &g, &indices));
    let run = bounded_subgraph_match(&q, &g, &indices).unwrap();
    assert_eq!(vf2, run.result);
    // Every step except the two globals keys off fetched candidates.
    assert!(run.plan.steps.iter().filter(|s| !s.via.is_empty()).count() >= 3);
    // And the fragment is genuinely bounded: far below |G|.
    assert!(run.fetch.fragment_size() < g.size() / 2);
}
