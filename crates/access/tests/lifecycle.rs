//! The full access-schema lifecycle:
//! `discover_schema` → `check_schema` → incremental `maintenance`, with the
//! maintained indices answering identically to a freshly rebuilt
//! [`AccessIndexSet`] after every change.

use bgpq_access::maintenance::{apply_delta, apply_deltas, GraphDelta};
use bgpq_access::{check_schema, discover_schema, AccessIndexSet, DiscoveryConfig};
use bgpq_graph::{Graph, GraphBuilder, NodeId, Value};

/// Node labels of the fixture, in id order. Rebuilding the graph from an
/// edge list keeps node ids stable across deltas.
const LABELS: [&str; 10] = [
    "year", "year", "award", "movie", "movie", "movie", "actor", "actor", "actor", "country",
];

fn base_edges() -> Vec<(NodeId, NodeId)> {
    let n = |i: u32| NodeId(i);
    vec![
        (n(0), n(3)), // year1 -> movie1
        (n(2), n(3)), // award -> movie1
        (n(1), n(4)), // year2 -> movie2
        (n(2), n(4)), // award -> movie2
        (n(0), n(5)), // year1 -> movie3
        (n(3), n(6)), // movie1 -> actor1
        (n(3), n(7)), // movie1 -> actor2
        (n(4), n(8)), // movie2 -> actor3
        (n(6), n(9)), // actor1 -> country
        (n(7), n(9)), // actor2 -> country
        (n(8), n(9)), // actor3 -> country
    ]
}

fn build(edges: &[(NodeId, NodeId)], extra_nodes: usize) -> Graph {
    let mut b = GraphBuilder::new();
    for l in LABELS {
        b.add_node(l, Value::Int(0));
    }
    for _ in 0..extra_nodes {
        b.add_node("movie", Value::Int(99));
    }
    for &(s, d) in edges {
        b.add_edge(s, d).unwrap();
    }
    b.build()
}

/// Every lookup of the maintained index set must equal a from-scratch
/// rebuild on the current graph — both directions (no missing and no stale
/// entries).
fn assert_identical_to_rebuild(maintained: &AccessIndexSet, graph: &Graph) {
    let rebuilt = AccessIndexSet::build(graph, maintained.schema());
    assert_eq!(maintained.len(), rebuilt.len());
    for (id, fresh) in rebuilt.iter() {
        let kept = maintained.get(id).unwrap();
        assert_eq!(kept.key_count(), fresh.key_count(), "key count for {id}");
        assert_eq!(kept.size(), fresh.size(), "size for {id}");
        assert_eq!(
            kept.max_cardinality(),
            fresh.max_cardinality(),
            "max cardinality for {id}"
        );
        for (key, answers) in fresh.entries() {
            assert_eq!(kept.common_neighbors(key), answers, "{id} key {key:?}");
        }
        for (key, answers) in kept.entries() {
            assert_eq!(
                fresh.common_neighbors(key),
                answers,
                "stale {id} key {key:?}"
            );
        }
    }
    assert_eq!(maintained.total_size(), rebuilt.total_size());
}

#[test]
fn discover_check_maintain_round_trip() {
    let edges = base_edges();
    let g0 = build(&edges, 0);

    // 1. Discover a schema and verify G |= A.
    let schema = discover_schema(&g0, &DiscoveryConfig::default());
    assert!(!schema.is_empty());
    assert!(check_schema(&g0, &schema).is_empty());

    // 2. Build the indices once.
    let mut indices = AccessIndexSet::build(&g0, &schema);
    assert!(indices.within_bounds());

    // 3. Insert an edge (year2 -> movie3: movie3 gains a (year, award)... no
    //    award yet, but year fanouts change), maintain, compare to rebuild.
    let mut e1 = edges.clone();
    e1.push((NodeId(1), NodeId(5)));
    let g1 = build(&e1, 0);
    apply_delta(
        &mut indices,
        &g1,
        &GraphDelta::InsertEdge(NodeId(1), NodeId(5)),
    );
    assert_identical_to_rebuild(&indices, &g1);

    // 4. Delete an edge (award -> movie1), maintain, compare.
    let e2: Vec<_> = e1
        .iter()
        .copied()
        .filter(|&e| e != (NodeId(2), NodeId(3)))
        .collect();
    let g2 = build(&e2, 0);
    apply_delta(
        &mut indices,
        &g2,
        &GraphDelta::DeleteEdge(NodeId(2), NodeId(3)),
    );
    assert_identical_to_rebuild(&indices, &g2);

    // 5. Insert a fresh movie node and wire it up in one batch.
    let new_movie = NodeId(LABELS.len() as u32);
    let mut e3 = e2.clone();
    e3.push((NodeId(2), new_movie));
    e3.push((new_movie, NodeId(6)));
    let g3 = build(&e3, 1);
    apply_deltas(
        &mut indices,
        &g3,
        &[
            GraphDelta::InsertNode(new_movie),
            GraphDelta::InsertEdge(NodeId(2), new_movie),
            GraphDelta::InsertEdge(new_movie, NodeId(6)),
        ],
    );
    assert_identical_to_rebuild(&indices, &g3);
}

#[test]
fn maintained_indices_survive_a_delta_storm() {
    // Apply a long alternating sequence of insertions and deletions and
    // check equivalence after every step.
    let mut edges = base_edges();
    let g = build(&edges, 0);
    let schema = discover_schema(&g, &DiscoveryConfig::simple());
    assert!(check_schema(&g, &schema).is_empty());
    let mut indices = AccessIndexSet::build(&g, &schema);

    let candidates = [
        (NodeId(1), NodeId(3)), // year2 -> movie1
        (NodeId(0), NodeId(4)), // year1 -> movie2
        (NodeId(4), NodeId(6)), // movie2 -> actor1
        (NodeId(5), NodeId(8)), // movie3 -> actor3
        (NodeId(2), NodeId(5)), // award -> movie3
    ];
    for &(s, d) in &candidates {
        // Insert.
        edges.push((s, d));
        let g_ins = build(&edges, 0);
        apply_delta(&mut indices, &g_ins, &GraphDelta::InsertEdge(s, d));
        assert_identical_to_rebuild(&indices, &g_ins);
    }
    for &(s, d) in candidates.iter().rev() {
        // Delete again.
        let pos = edges.iter().rposition(|&e| e == (s, d)).unwrap();
        edges.remove(pos);
        let g_del = build(&edges, 0);
        apply_delta(&mut indices, &g_del, &GraphDelta::DeleteEdge(s, d));
        assert_identical_to_rebuild(&indices, &g_del);
    }
    // After inserting and deleting the same edges, we are back at the base
    // graph: the maintained indices must equal the original build.
    let fresh = AccessIndexSet::build(&build(&base_edges(), 0), &schema);
    assert_eq!(indices.total_size(), fresh.total_size());
}

#[test]
fn maintenance_preserves_schema_violation_detection() {
    // Discovered bounds are tight; adding edges can push a fanout past its
    // bound, and the maintained indices must expose that via within_bounds.
    let edges = base_edges();
    let g = build(&edges, 0);
    let schema = discover_schema(&g, &DiscoveryConfig::simple());
    let mut indices = AccessIndexSet::build(&g, &schema);
    assert!(indices.within_bounds());

    // movie1 already has 2 actors (the discovered movie → actor bound);
    // give it a third.
    let mut e1 = edges.clone();
    e1.push((NodeId(3), NodeId(8)));
    let g1 = build(&e1, 0);
    apply_delta(
        &mut indices,
        &g1,
        &GraphDelta::InsertEdge(NodeId(3), NodeId(8)),
    );
    assert_identical_to_rebuild(&indices, &g1);
    assert!(!indices.within_bounds());
    assert!(!check_schema(&g1, indices.schema()).is_empty());
}
