//! Property-based differential suite: the paper's equivalence claim under
//! randomized workloads.
//!
//! [`DetRng`] drives ~200 seeds; each seed generates a random data graph, a
//! random (possibly deliberately weakened) access schema, and a random
//! pattern workload, then asserts the full cross-algorithm contract:
//!
//! * `VF2 = optVF2 = bVF2` (match sets compared canonically, i.e.
//!   order-independently — [`bgpq_engine::MatchSet`] sorts and deduplicates
//!   on construction);
//! * `gsim = optgsim = bSim` (relations compared node for node);
//! * when a pattern is **not** effectively bounded, every path agrees on the
//!   rejection: the direct executor and the engine's forced-`Bounded` mode
//!   report the same uncovered pattern nodes, while the fallback strategies
//!   still return the exact whole-graph answer;
//! * truncated indices are excluded from planning identically everywhere;
//! * the fetch equals a reference that probes every key and reuses nothing,
//!   on the indices as built and on capped (truncated) ones.
//!
//! Everything is seeded and deterministic: a failure reports its seed and
//! pattern index, which reproduce the exact workload.

use bgpq_engine::{
    bounded_simulation_match, bounded_subgraph_match, check_schema, discover_schema,
    fetch_candidate_sets, opt_simulation_match, opt_subgraph_match, plan_query, simulation_match,
    AccessConstraint, AccessIndexSet, AccessSchema, BgpqError, ConstraintId, DiscoveryConfig,
    Engine, Graph, GraphBuilder, LookupMemo, NodeId, QueryPlan, QueryRequest, Semantics,
    StrategyKind, SubgraphMatcher,
};
use bgpq_graph::Value;
use bgpq_pattern::{DetRng, GeneratorConfig, Pattern, WorkloadGenerator};
use std::collections::BTreeSet;

/// Labels the random graphs draw from.
const LABEL_POOL: [&str; 8] = [
    "person", "movie", "award", "city", "genre", "year", "studio", "critic",
];

/// A random node-labeled graph: 18–40 nodes over 4–8 labels, with roughly
/// 1–3 edges per node and small integer attribute values (so generated
/// predicates are selective but rarely empty).
fn random_graph(rng: &mut DetRng) -> Graph {
    let label_count = rng.random_range(4..=LABEL_POOL.len());
    let n = rng.random_range(18..=40);
    let mut b = GraphBuilder::new();
    let ids: Vec<_> = (0..n)
        .map(|_| {
            let label = LABEL_POOL[rng.random_range(0..label_count)];
            let value = Value::Int(rng.random_range(0..9) as i64);
            b.add_node(label, value)
        })
        .collect();
    for _ in 0..rng.random_range(n..=3 * n) {
        let s = ids[rng.random_range(0..n)];
        let d = ids[rng.random_range(0..n)];
        if s != d {
            b.add_edge(s, d).unwrap();
        }
    }
    b.build()
}

/// A schema for the seed: the discovered (satisfied-by-construction) schema,
/// or — on half the seeds — a weakened prefix of it, so that some patterns
/// lose coverage and the unbounded-rejection paths get exercised.
fn random_schema(rng: &mut DetRng, graph: &Graph) -> AccessSchema {
    let discovered = discover_schema(graph, &DiscoveryConfig::default());
    assert!(
        check_schema(graph, &discovered).is_empty(),
        "discovered schema must hold on its graph"
    );
    if rng.random_bool(0.5) || discovered.is_empty() {
        discovered
    } else {
        discovered.truncated(rng.random_range(0..=discovered.len()))
    }
}

fn workload(rng: &mut DetRng, graph: &Graph, seed: u64) -> Vec<Pattern> {
    let config = GeneratorConfig {
        min_nodes: 2,
        max_nodes: 5,
        edge_factor: 1.5,
        min_predicates: 1,
        max_predicates: 5,
        seed: seed ^ rng.next_u64(),
    };
    let mut generator = WorkloadGenerator::new(config);
    let mut patterns = generator.generate_anchored(graph, 3);
    patterns.extend(generator.generate(graph, 3));
    patterns
}

/// The isomorphism half of the contract for one pattern.
fn check_isomorphism(
    seed: u64,
    i: usize,
    q: &Pattern,
    graph: &Graph,
    indices: &AccessIndexSet,
    engine: &Engine,
) {
    let vf2 = SubgraphMatcher::new(q, graph).find_all();
    let opt = opt_subgraph_match(q, graph, indices);
    assert_eq!(vf2, opt, "VF2 vs optVF2 (seed {seed}, pattern {i})");

    match bounded_subgraph_match(q, graph, indices) {
        Ok(run) => {
            assert_eq!(vf2, run.result, "VF2 vs bVF2 (seed {seed}, pattern {i})");
            let forced = engine
                .execute(
                    &QueryRequest::build(q.clone())
                        .strategy(StrategyKind::Bounded)
                        .finish(),
                )
                .unwrap_or_else(|e| {
                    panic!(
                        "engine Bounded refused a bounded pattern (seed {seed}, pattern {i}): {e}"
                    )
                });
            assert_eq!(
                forced.answer.as_matches(),
                Some(&vf2),
                "engine bVF2 vs VF2 (seed {seed}, pattern {i})"
            );
        }
        Err(err) => {
            // Rejection agreement: the engine's forced-Bounded mode must
            // refuse for exactly the same reason.
            let engine_err = engine
                .execute(
                    &QueryRequest::build(q.clone())
                        .strategy(StrategyKind::Bounded)
                        .finish(),
                )
                .expect_err("direct planner rejected, engine must too");
            match engine_err {
                BgpqError::Unbounded(plan_err) => assert_eq!(
                    plan_err.uncovered, err.uncovered,
                    "uncovered-node agreement (seed {seed}, pattern {i})"
                ),
                other => panic!("expected Unbounded, got {other} (seed {seed}, pattern {i})"),
            }
        }
    }

    // Automatic selection (whatever tier it lands on) returns the answer.
    let auto = engine
        .execute(&QueryRequest::build(q.clone()).finish())
        .unwrap();
    assert_eq!(
        auto.answer.as_matches(),
        Some(&vf2),
        "engine auto vs VF2 (seed {seed}, pattern {i}, strategy {})",
        auto.strategy
    );
}

/// The simulation half of the contract for one pattern.
fn check_simulation(
    seed: u64,
    i: usize,
    q: &Pattern,
    graph: &Graph,
    indices: &AccessIndexSet,
    engine: &Engine,
) {
    let gsim = simulation_match(q, graph);
    let opt = opt_simulation_match(q, graph, indices);
    assert_eq!(gsim, opt, "gsim vs optgsim (seed {seed}, pattern {i})");

    match bounded_simulation_match(q, graph, indices) {
        Ok(run) => {
            assert_eq!(gsim, run.result, "gsim vs bSim (seed {seed}, pattern {i})");
        }
        Err(err) => {
            let engine_err = engine
                .execute(
                    &QueryRequest::build(q.clone())
                        .semantics(Semantics::Simulation)
                        .strategy(StrategyKind::Bounded)
                        .finish(),
                )
                .expect_err("direct planner rejected, engine must too");
            match engine_err {
                BgpqError::Unbounded(plan_err) => assert_eq!(
                    plan_err.uncovered, err.uncovered,
                    "sim uncovered-node agreement (seed {seed}, pattern {i})"
                ),
                other => panic!("expected Unbounded, got {other} (seed {seed}, pattern {i})"),
            }
        }
    }

    let auto = engine
        .execute(
            &QueryRequest::build(q.clone())
                .semantics(Semantics::Simulation)
                .finish(),
        )
        .unwrap();
    assert_eq!(
        auto.answer.as_simulation(),
        Some(&gsim),
        "engine auto vs gsim (seed {seed}, pattern {i}, strategy {})",
        auto.strategy
    );
}

/// The graph, schema and pattern workload of one seed of the matrix.
fn seed_fixture(seed: u64) -> (Graph, AccessSchema, Vec<Pattern>) {
    let mut rng = DetRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1FF);
    let graph = random_graph(&mut rng);
    let schema = random_schema(&mut rng, &graph);
    let patterns = workload(&mut rng, &graph, seed);
    (graph, schema, patterns)
}

fn run_seed(seed: u64) {
    let (graph, schema, patterns) = seed_fixture(seed);
    let indices = AccessIndexSet::build(&graph, &schema);
    let engine = Engine::with_indices(graph.clone(), indices.clone());
    for (i, q) in patterns.iter().enumerate() {
        check_isomorphism(seed, i, q, &graph, &indices, &engine);
        check_simulation(seed, i, q, &graph, &indices, &engine);
    }

    // The checks above warmed `engine`'s cache: plans and fragments. Replays
    // through the warm cache must reproduce the answers of a fully
    // uncached engine bit for bit.
    let uncached = Engine::with_indices(graph.clone(), indices.clone()).with_cache_capacity(0);
    for semantics in [Semantics::Isomorphism, Semantics::Simulation] {
        let requests: Vec<QueryRequest> = patterns
            .iter()
            .map(|q| QueryRequest::build(q.clone()).semantics(semantics).finish())
            .collect();
        for (i, request) in requests.iter().enumerate() {
            let alone = uncached.execute(request).unwrap();
            let warm = engine.execute(request).unwrap();
            assert_eq!(
                warm.answer, alone.answer,
                "warm cache vs uncached (seed {seed}, pattern {i}, {semantics:?})"
            );
        }
    }
}

// The fixed 200-seed matrix, split into four jobs so `cargo test` runs them
// on separate threads.

#[test]
fn differential_seed_matrix_000_049() {
    (0..50).for_each(run_seed);
}

#[test]
fn differential_seed_matrix_050_099() {
    (50..100).for_each(run_seed);
}

#[test]
fn differential_seed_matrix_100_149() {
    (100..150).for_each(run_seed);
}

#[test]
fn differential_seed_matrix_150_199() {
    (150..200).for_each(run_seed);
}

/// The fetch with nothing reused: every key combination of every step
/// probed through `common_neighbors`, every predicate evaluated. Returns the
/// candidates, their union and the number of probes.
fn reference_fetch(
    plan: &QueryPlan,
    q: &Pattern,
    graph: &Graph,
    indices: &AccessIndexSet,
) -> (Vec<Vec<NodeId>>, Vec<NodeId>, u64) {
    let mut candidates: Vec<Vec<NodeId>> = vec![Vec::new(); q.node_count()];
    let mut probes = 0;
    for step in &plan.steps {
        let mut keys: Vec<Vec<NodeId>> = vec![Vec::new()];
        for w in &step.via {
            let extend = |key: &Vec<NodeId>| -> Vec<Vec<NodeId>> {
                let nodes = candidates[w.index()].iter();
                nodes.map(|&v| [key.as_slice(), &[v]].concat()).collect()
            };
            keys = keys.iter().flat_map(extend).collect();
        }
        let index = indices
            .get(step.constraint)
            .expect("plan constraint is indexed");
        let mut fetched = BTreeSet::new();
        for key in &keys {
            probes += 1;
            fetched.extend(index.common_neighbors(key));
        }
        let predicate = q.predicate(step.node);
        let kept = fetched
            .into_iter()
            .filter(|&v| predicate.eval(graph.value(v)));
        candidates[step.node.index()] = kept.collect();
    }
    let all_nodes: BTreeSet<NodeId> = candidates.iter().flatten().copied().collect();
    (candidates, all_nodes.into_iter().collect(), probes)
}

/// `schema` with every global constraint dropped but the tightest: plans
/// under it must reach most pattern nodes through keyed steps, which the
/// seed's own schema (a global for every label) rarely needs.
fn keyed_schema(schema: &AccessSchema) -> AccessSchema {
    let globals = schema.iter().filter(|c| c.is_global());
    let anchor = globals.min_by_key(|c| c.bound()).cloned();
    let keyed = schema.iter().filter(|c| !c.is_global()).cloned();
    AccessSchema::from_constraints(anchor.into_iter().chain(keyed))
}

/// [`keyed_schema`] with its `|S| ≥ 2` constraints first, so the planner,
/// which takes the first constraint that covers a node, fetches through
/// them where it can — the only kind a cap truncates.
fn pairs_first_schema(schema: &AccessSchema) -> AccessSchema {
    let keyed = keyed_schema(schema);
    let (pairs, rest): (Vec<_>, Vec<_>) = keyed.iter().cloned().partition(|c| c.source_len() > 1);
    AccessSchema::from_constraints(pairs.into_iter().chain(rest))
}

/// `fetch_candidate_sets` against [`reference_fetch`] on every seed of the
/// matrix, both semantics, under the seed's schema, its [`keyed_schema`]
/// and its [`pairs_first_schema`], over indices uncapped and capped at two
/// and one combinations per node. Plans come from the schema alone, so
/// capped runs fetch through truncated `|S| ≥ 2` indices too: the fetch
/// contract does not depend on an index being complete. One memo serves
/// every fetch of a seed.
#[test]
fn fetch_equals_a_reference_that_probes_every_key() {
    // Fetches with a keyed step, with a reused step, through a truncated index.
    let mut seen = [0usize; 3];
    for seed in 0..200 {
        let (graph, schema, patterns) = seed_fixture(seed);
        let mut memo = LookupMemo::new();
        for schema in [keyed_schema(&schema), pairs_first_schema(&schema), schema] {
            for cap in [usize::MAX, 2, 1] {
                let indices = AccessIndexSet::build_with_cap(&graph, &schema, cap);
                for (i, q) in patterns.iter().enumerate() {
                    for semantics in [Semantics::Isomorphism, Semantics::Simulation] {
                        let Ok(plan) = plan_query(q, &schema, semantics) else {
                            continue;
                        };
                        let at = format!("seed {seed}, pattern {i}, {semantics:?}, cap {cap}");
                        let (candidates, all_nodes, probes) =
                            reference_fetch(&plan, q, &graph, &indices);
                        let fetched = fetch_candidate_sets(&plan, q, &graph, &indices, &mut memo);
                        assert_eq!(fetched.candidates, candidates, "{at}");
                        assert_eq!(fetched.all_nodes, all_nodes, "{at}");
                        let stats = &fetched.stats;
                        assert_eq!(stats.index_lookups + stats.lookups_deduped, probes, "{at}");
                        let truncated = |c| indices.get(c).unwrap().is_truncated();
                        let hits = [
                            plan.steps.iter().any(|s| !s.via.is_empty()),
                            stats.lookups_deduped > 0,
                            plan.steps.iter().any(|s| truncated(s.constraint)),
                        ];
                        for (count, hit) in seen.iter_mut().zip(hits) {
                            *count += usize::from(hit);
                        }
                    }
                }
            }
        }
    }
    assert!(
        seen.iter().all(|&n| n > 0),
        "keyed, reused, truncated: {seen:?}"
    );
}

/// Randomized hub fixtures whose pair index overflows the per-node
/// combination cap: the truncated index must be excluded from planning on
/// every path, and the fallback strategies must still return the exact
/// whole-graph answer.
#[test]
fn truncated_indices_agree_across_strategies() {
    for seed in [3u64, 11, 27, 55, 91] {
        let mut rng = DetRng::seed_from_u64(seed);
        // 66 × 66 = 4356 (x, y) pairs per hub > the 4096 build cap.
        let pairs = rng.random_range(66..=80);
        let mut gb = GraphBuilder::new();
        let hub = gb.add_node("hub", Value::Null);
        for i in 0..pairs as i64 {
            let x = gb.add_node("x", Value::Int(i));
            let y = gb.add_node("y", Value::Int(i));
            gb.add_edge(x, hub).unwrap();
            gb.add_edge(y, hub).unwrap();
        }
        let g = gb.build();
        let l = |name: &str| g.interner().get(name).unwrap();
        let schema = AccessSchema::from_constraints([
            AccessConstraint::global(l("x"), pairs),
            AccessConstraint::global(l("y"), pairs),
            AccessConstraint::new([l("x"), l("y")], l("hub"), pairs * pairs),
        ]);
        let indices = AccessIndexSet::build(&g, &schema);
        assert!(
            indices.get(ConstraintId(2)).unwrap().is_truncated(),
            "seed {seed}: fixture must truncate"
        );
        let engine = Engine::with_indices(g.clone(), indices.clone());

        let mut pb = bgpq_pattern::PatternBuilder::with_interner(g.interner().clone());
        let px = pb.node("x", bgpq_pattern::Predicate::always());
        let py = pb.node("y", bgpq_pattern::Predicate::always());
        let ph = pb.node("hub", bgpq_pattern::Predicate::always());
        pb.edge(px, ph);
        pb.edge(py, ph);
        let q = pb.build();

        // Direct executor and engine agree the query is unbounded (the only
        // hub-covering constraint is truncated)...
        let err = bounded_subgraph_match(&q, &g, &indices).unwrap_err();
        assert_eq!(err.uncovered.len(), 1, "seed {seed}");
        let engine_err = engine
            .execute(
                &QueryRequest::build(q.clone())
                    .strategy(StrategyKind::Bounded)
                    .finish(),
            )
            .unwrap_err();
        assert!(matches!(engine_err, BgpqError::Unbounded(_)), "seed {seed}");

        // ...while every surviving path returns the exact answer.
        let vf2 = SubgraphMatcher::new(&q, &g).find_all();
        assert_eq!(vf2.len(), pairs * pairs, "seed {seed}");
        assert_eq!(vf2, opt_subgraph_match(&q, &g, &indices), "seed {seed}");
        let auto = engine
            .execute(&QueryRequest::build(q.clone()).finish())
            .unwrap();
        assert_eq!(auto.answer.as_matches(), Some(&vf2), "seed {seed}");
        assert_ne!(auto.strategy, StrategyKind::Bounded, "seed {seed}");

        // A replay through the now-warm plan cache (which holds the cached
        // Unbounded verdict) agrees too.
        let again = engine
            .execute(&QueryRequest::build(q.clone()).finish())
            .unwrap();
        assert_eq!(again.answer.as_matches(), Some(&vf2), "seed {seed}");
    }
}

/// Interleaved-commit differential: a serving chain shares one query cache
/// across snapshot versions. After every "commit"
/// (graph mutation + index rebuild + version bump), answers served through
/// the shared cache — cold and warm — must equal a fully
/// uncached engine on the same snapshot. A deliberately tiny cache
/// capacity forces eviction and version churn to interact.
#[test]
fn cached_answers_agree_across_interleaved_commits() {
    use bgpq_engine::{QueryCache, SharedResources};
    for seed in [7u64, 21, 42, 63, 84] {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut graph = random_graph(&mut rng);
        let shared = SharedResources {
            cache: QueryCache::with_capacity(8),
            ..SharedResources::default()
        };
        for version in 0..4u64 {
            let schema = discover_schema(&graph, &DiscoveryConfig::default());
            let indices = AccessIndexSet::build(&graph, &schema);
            let engine = Engine::with_shared_at_version(
                graph.clone(),
                indices.clone(),
                version,
                shared.clone(),
            );
            let uncached =
                Engine::with_indices(graph.clone(), indices.clone()).with_cache_capacity(0);
            let patterns = workload(&mut rng, &graph, seed ^ version);
            let requests: Vec<QueryRequest> = patterns
                .iter()
                .map(|q| QueryRequest::build(q.clone()).finish())
                .collect();
            for (i, request) in requests.iter().enumerate() {
                let expected = uncached.execute(request).unwrap().answer;
                let cold = engine.execute(request).unwrap().answer;
                assert_eq!(
                    cold, expected,
                    "cold (seed {seed}, v{version}, pattern {i})"
                );
                let warm = engine.execute(request).unwrap().answer;
                assert_eq!(
                    warm, expected,
                    "warm (seed {seed}, v{version}, pattern {i})"
                );
            }

            // The "commit": mutate the graph for the next version while the
            // shared cache keeps holding this version's entries.
            let live: Vec<_> = graph.nodes().filter(|&v| graph.is_live(v)).collect();
            let label = LABEL_POOL[rng.random_range(0..LABEL_POOL.len())];
            let new = graph.insert_node(label, Value::Int(rng.random_range(0..9) as i64));
            let anchor = live[rng.random_range(0..live.len())];
            graph.insert_edge(anchor, new).unwrap();
            if rng.random_bool(0.5) {
                let victim = live[rng.random_range(0..live.len())];
                if victim != anchor {
                    graph.delete_node(victim).unwrap();
                }
            }
        }
    }
}
