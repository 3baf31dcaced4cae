//! Property-based differential suite for live incremental maintenance: 200
//! random delta streams (50 seeds × 4 commits, plus a capped-index matrix)
//! are applied through [`Server::commit`], and after **every** stream the
//! maintained [`AccessIndexSet`] must be identical to one rebuilt from
//! scratch on the mutated graph — same keys, same answers, same
//! (incrementally tracked) maximum cardinalities and bound verdicts —
//! including when indices were built under a small combination cap. After
//! the final stream of each seed, bVF2/bSim answers on the maintained
//! snapshot must equal the answers of a from-scratch engine over the same
//! graph, for automatic selection and for the forced bounded strategy
//! (agreeing on rejection when a pattern is unbounded).
//!
//! Everything is seeded and deterministic: failures report their seed and
//! commit round.

use bgpq_access::{AccessConstraint, AccessIndexSet, AccessSchema};
use bgpq_engine::{
    check_schema, discover_schema, BgpqError, DiscoveryConfig, Engine, QueryRequest, Semantics,
    StrategyKind,
};
use bgpq_graph::{Graph, GraphBuilder, NodeId, Value};
use bgpq_pattern::{DetRng, GeneratorConfig, Pattern, WorkloadGenerator};
use bgpq_serve::{Server, Snapshot, Update};

const LABEL_POOL: [&str; 6] = ["person", "movie", "award", "city", "genre", "year"];

/// A random graph guaranteed to intern every pool label (so updates never
/// grow the interner and patterns stay aligned across snapshots).
fn random_graph(rng: &mut DetRng) -> Graph {
    let n = rng.random_range(15..=30);
    let mut b = GraphBuilder::new();
    let ids: Vec<_> = (0..n)
        .map(|i| {
            let label = LABEL_POOL[if i < LABEL_POOL.len() {
                i
            } else {
                rng.random_range(0..LABEL_POOL.len())
            }];
            b.add_node(label, Value::Int(rng.random_range(0..9) as i64))
        })
        .collect();
    for _ in 0..rng.random_range(n..=2 * n) {
        let s = ids[rng.random_range(0..n)];
        let d = ids[rng.random_range(0..n)];
        if s != d {
            b.add_edge(s, d).unwrap();
        }
    }
    b.build()
}

/// One random update, valid against `scratch` (which it is applied to, so a
/// batch generated sequentially stays valid as a whole).
fn random_update(rng: &mut DetRng, scratch: &mut Graph) -> Update {
    let live: Vec<NodeId> = scratch.nodes().filter(|&v| scratch.is_live(v)).collect();
    let edges: Vec<_> = scratch.edges().collect();
    loop {
        match rng.random_range(0..4) {
            0 => {
                let label = LABEL_POOL[rng.random_range(0..LABEL_POOL.len())];
                let value = Value::Int(rng.random_range(0..9) as i64);
                scratch.insert_node(label, value.clone());
                return Update::AddNode {
                    label: label.to_string(),
                    value,
                };
            }
            1 if live.len() >= 2 => {
                let src = live[rng.random_range(0..live.len())];
                let dst = live[rng.random_range(0..live.len())];
                if src == dst {
                    continue;
                }
                scratch.insert_edge(src, dst).unwrap();
                return Update::AddEdge { src, dst };
            }
            2 if !edges.is_empty() => {
                let e = edges[rng.random_range(0..edges.len())];
                scratch.delete_edge(e.src, e.dst).unwrap();
                return Update::RemoveEdge {
                    src: e.src,
                    dst: e.dst,
                };
            }
            3 if live.len() > 6 => {
                let node = live[rng.random_range(0..live.len())];
                scratch.delete_node(node).unwrap();
                return Update::RemoveNode { node };
            }
            _ => continue,
        }
    }
}

/// Asserts the maintained indices answer every lookup exactly like indices
/// rebuilt from scratch on `graph` (under `cap` when given).
fn assert_equal_to_rebuild(
    maintained: &AccessIndexSet,
    graph: &Graph,
    cap: Option<usize>,
    ctx: &str,
) {
    let rebuilt = match cap {
        Some(cap) => AccessIndexSet::build_with_cap(graph, maintained.schema(), cap),
        None => AccessIndexSet::build(graph, maintained.schema()),
    };
    for (id, fresh) in rebuilt.iter() {
        let kept = maintained.get(id).unwrap();
        assert_eq!(
            kept.key_count(),
            fresh.key_count(),
            "key count {id} ({ctx})"
        );
        assert_eq!(kept.size(), fresh.size(), "size {id} ({ctx})");
        for (key, answers) in fresh.entries() {
            assert_eq!(
                kept.common_neighbors(key),
                answers,
                "answers {id} key {key:?} ({ctx})"
            );
        }
        assert_eq!(
            kept.max_cardinality(),
            fresh.max_cardinality(),
            "max cardinality {id} ({ctx})"
        );
        assert_eq!(
            kept.within_bound(),
            fresh.within_bound(),
            "bound verdict {id} ({ctx})"
        );
        assert_eq!(
            kept.is_truncated(),
            fresh.is_truncated(),
            "truncation verdict {id} ({ctx})"
        );
        // And the other way round: nothing stale survives in the kept index.
        for (key, answers) in kept.entries() {
            assert_eq!(
                fresh.common_neighbors(key),
                answers,
                "stale answers {id} key {key:?} ({ctx})"
            );
        }
    }
}

/// Asserts the maintained snapshot and a from-scratch engine agree on every
/// pattern, for both semantics, for automatic selection and forced-bounded.
fn assert_engines_agree(snapshot: &Snapshot, fresh: &Engine, patterns: &[Pattern], ctx: &str) {
    for (i, q) in patterns.iter().enumerate() {
        for semantics in [Semantics::Isomorphism, Semantics::Simulation] {
            let auto = |engine: &Engine| {
                engine
                    .execute(&QueryRequest::build(q.clone()).semantics(semantics).finish())
                    .unwrap_or_else(|e| panic!("auto failed ({ctx}, pattern {i}): {e}"))
            };
            let maintained_auto = auto(snapshot.engine());
            let fresh_auto = auto(fresh);
            assert_eq!(
                maintained_auto.answer, fresh_auto.answer,
                "auto answers diverged ({ctx}, pattern {i}, {semantics:?})"
            );

            let forced = |engine: &Engine| {
                engine.execute(
                    &QueryRequest::build(q.clone())
                        .semantics(semantics)
                        .strategy(StrategyKind::Bounded)
                        .finish(),
                )
            };
            match (forced(snapshot.engine()), forced(fresh)) {
                (Ok(a), Ok(b)) => assert_eq!(
                    a.answer, b.answer,
                    "bounded answers diverged ({ctx}, pattern {i}, {semantics:?})"
                ),
                (Err(BgpqError::Unbounded(a)), Err(BgpqError::Unbounded(b))) => assert_eq!(
                    a.uncovered, b.uncovered,
                    "rejection reasons diverged ({ctx}, pattern {i}, {semantics:?})"
                ),
                (a, b) => panic!(
                    "bounded outcome diverged ({ctx}, pattern {i}, {semantics:?}): \
                     maintained {a:?} vs fresh {b:?}"
                ),
            }
        }
    }
}

fn run_seed(seed: u64) {
    let mut rng = DetRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xBEEF);
    let graph = random_graph(&mut rng);
    let schema = discover_schema(&graph, &DiscoveryConfig::default());
    assert!(
        check_schema(&graph, &schema).is_empty(),
        "discovered schema must hold (seed {seed})"
    );
    let server = Server::new(graph, &schema);

    for round in 0..4 {
        let mut scratch = server.snapshot().graph().clone();
        let batch: Vec<Update> = (0..rng.random_range(1..=5))
            .map(|_| random_update(&mut rng, &mut scratch))
            .collect();
        let receipt = server
            .commit(&batch)
            .unwrap_or_else(|e| panic!("commit failed (seed {seed}, round {round}): {e}"));
        assert_eq!(receipt.version, round + 1);

        let snapshot = server.snapshot();
        assert_equal_to_rebuild(
            snapshot.indices(),
            snapshot.graph(),
            None,
            &format!("seed {seed}, round {round}"),
        );
    }

    // The maintained snapshot must answer like a from-scratch engine.
    let snapshot = server.snapshot();
    let mut generator = WorkloadGenerator::new(GeneratorConfig {
        min_nodes: 2,
        max_nodes: 4,
        edge_factor: 1.5,
        min_predicates: 0,
        max_predicates: 3,
        seed: seed ^ rng.next_u64(),
    });
    let mut patterns = generator.generate_anchored(snapshot.graph(), 2);
    patterns.extend(generator.generate(snapshot.graph(), 2));
    let fresh = Engine::new(snapshot.graph().clone(), &schema);
    assert_engines_agree(&snapshot, &fresh, &patterns, &format!("seed {seed}"));
}

// 50 seeds × 4 commit rounds = 200 maintained-vs-rebuilt delta streams.

#[test]
fn delta_stream_matrix_00_24() {
    (0..25).for_each(run_seed);
}

#[test]
fn delta_stream_matrix_25_49() {
    (25..50).for_each(run_seed);
}

/// The capped matrix: indices built under a small per-node combination cap
/// stay identical to capped rebuilds while hub neighborhoods churn — the
/// maintenance path must enumerate refreshed contributions under the same
/// cap as a fresh build, not the default.
#[test]
fn capped_indices_stay_identical_under_churn() {
    const CAP: usize = 60;
    for seed in 0..10u64 {
        let mut rng = DetRng::seed_from_u64(seed ^ 0xCAB);
        let mut b = GraphBuilder::new();
        let hub = b.add_node("hub", Value::Null);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..10 {
            let x = b.add_node("x", Value::Int(i));
            let y = b.add_node("y", Value::Int(i));
            b.add_edge(x, hub).unwrap();
            b.add_edge(y, hub).unwrap();
            xs.push(x);
            ys.push(y);
        }
        let graph = b.build();
        let l = |name: &str| graph.interner().get(name).unwrap();
        let schema = AccessSchema::from_constraints([
            AccessConstraint::new([l("x"), l("y")], l("hub"), 1),
            AccessConstraint::global(l("hub"), 4),
        ]);
        let indices = AccessIndexSet::build_with_cap(&graph, &schema, CAP);
        assert!(indices.iter().any(|(_, idx)| idx.is_truncated()));
        let server = Server::with_indices(graph, indices);

        for round in 0..3 {
            // Churn the hub's neighborhood: add an x and a y, drop an edge.
            let next = server.snapshot().graph().node_count() as u32;
            let victim = if rng.random_bool(0.5) {
                xs[rng.random_range(0..xs.len())]
            } else {
                ys[rng.random_range(0..ys.len())]
            };
            let batch = vec![
                Update::AddNode {
                    label: "x".into(),
                    value: Value::Int(100 + round),
                },
                Update::AddNode {
                    label: "y".into(),
                    value: Value::Int(200 + round),
                },
                Update::AddEdge {
                    src: NodeId(next),
                    dst: NodeId(0),
                },
                Update::AddEdge {
                    src: NodeId(next + 1),
                    dst: NodeId(0),
                },
                Update::RemoveEdge {
                    src: victim,
                    dst: NodeId(0),
                },
            ];
            server.commit(&batch).unwrap();
            let snapshot = server.snapshot();
            assert_equal_to_rebuild(
                snapshot.indices(),
                snapshot.graph(),
                Some(CAP),
                &format!("cap seed {seed}, round {round}"),
            );
        }
    }
}
