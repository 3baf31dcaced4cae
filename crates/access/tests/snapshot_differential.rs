//! Loaded-index differential suite: a bundle stores its graph and schema,
//! and the [`AccessIndexSet`] a load builds must be indistinguishable from
//! one freshly built over the same graph and schema at the default cap —
//! same entries, same caps, same truncation verdicts — across schema
//! shapes, caps and graph mutations.

use bgpq_access::{
    discover_schema, read_snapshot, write_snapshot, AccessIndexSet, DiscoveryConfig,
    SnapshotBundle, DEFAULT_MAX_COMBINATIONS_PER_NODE,
};
use bgpq_graph::{Graph, GraphBuilder, NodeId, Value};
use std::io::Cursor;

/// Full observable equality of two index sets over the same schema.
fn assert_index_sets_identical(fresh: &AccessIndexSet, loaded: &AccessIndexSet) {
    assert_eq!(fresh.len(), loaded.len(), "index count");
    assert_eq!(fresh.total_size(), loaded.total_size(), "total size");
    assert_eq!(
        fresh.within_bounds(),
        loaded.within_bounds(),
        "within_bounds"
    );
    for (id, a) in fresh.iter() {
        let b = loaded.get(id).unwrap_or_else(|| panic!("{id} missing"));
        assert_eq!(a.constraint(), b.constraint(), "constraint of {id}");
        assert_eq!(a.cap(), b.cap(), "cap of {id}");
        assert_eq!(a.is_truncated(), b.is_truncated(), "truncation of {id}");
        assert_eq!(a.within_bound(), b.within_bound(), "bound of {id}");
        assert_eq!(
            a.max_cardinality(),
            b.max_cardinality(),
            "max cardinality of {id}"
        );
        assert_eq!(a.key_count(), b.key_count(), "key count of {id}");
        assert_eq!(a.size(), b.size(), "size of {id}");
        if a.constraint().is_global() {
            let nodes = |index: &bgpq_access::ConstraintIndex| index.common_neighbors(&[]).to_vec();
            assert_eq!(nodes(a), nodes(b), "global nodes of {id}");
        }
        let entries_a: Vec<(Vec<NodeId>, Vec<NodeId>)> =
            a.entries().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        let mut entries_b: Vec<(Vec<NodeId>, Vec<NodeId>)> =
            b.entries().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        // Entry iteration order is a HashMap artifact; compare as sets.
        let mut entries_a = entries_a;
        entries_a.sort();
        entries_b.sort();
        assert_eq!(entries_a, entries_b, "entries of {id}");
        // Reverse map parity via point lookups.
        for (key, answers) in &entries_a {
            assert_eq!(
                a.common_neighbors(key),
                b.common_neighbors(key),
                "lookup {key:?} in {id}"
            );
            for &t in answers {
                assert_eq!(
                    a.has_contribution(t),
                    b.has_contribution(t),
                    "contribution {t} in {id}"
                );
            }
        }
    }
}

/// The bundle of `graph` and `indices`' schema, written and read back. Its
/// indices must be the build of the loaded graph and schema.
fn round_trip(graph: &Graph, indices: &AccessIndexSet) -> SnapshotBundle {
    let mut buf = Vec::new();
    write_snapshot(graph, indices.schema(), &mut buf).unwrap();
    let bundle = read_snapshot(Cursor::new(buf)).unwrap();
    let rebuilt = AccessIndexSet::build(&bundle.graph, &bundle.schema);
    assert_index_sets_identical(&rebuilt, &bundle.indices);
    bundle
}

/// The movie/actor fixture with enough structure for discovery to find
/// grouped (multi-source) constraints.
fn fixture() -> Graph {
    let mut b = GraphBuilder::new();
    let years: Vec<NodeId> = (0..3)
        .map(|i| b.add_node("year", Value::Int(2000 + i)))
        .collect();
    let awards: Vec<NodeId> = (0..2)
        .map(|i| b.add_node("award", Value::str(format!("a{i}"))))
        .collect();
    let movies: Vec<NodeId> = (0..12)
        .map(|i| b.add_node("movie", Value::str(format!("m{i}"))))
        .collect();
    let actors: Vec<NodeId> = (0..8)
        .map(|i| b.add_node("actor", Value::str(format!("p{i}"))))
        .collect();
    for (i, &m) in movies.iter().enumerate() {
        b.add_edge(years[i % years.len()], m).unwrap();
        b.add_edge(awards[i % awards.len()], m).unwrap();
        b.add_edge(m, actors[i % actors.len()]).unwrap();
        b.add_edge(m, actors[(i + 3) % actors.len()]).unwrap();
    }
    b.build()
}

/// A star graph whose hubs each have `spokes` neighbours, their two labels
/// alternating along the ids: `(spokes / 2)²` combinations for the grouped
/// `{spoke, rim} → hub` constraint, more than a small cap allows.
fn hub_graph(spokes: i64) -> Graph {
    let mut b = GraphBuilder::new();
    let spokes: Vec<NodeId> = (0..spokes)
        .map(|i| b.add_node(["spoke", "rim"][i as usize % 2], Value::Int(i)))
        .collect();
    let hubs: Vec<NodeId> = (0..3).map(|i| b.add_node("hub", Value::Int(i))).collect();
    for &h in &hubs {
        for &s in &spokes {
            b.add_edge(s, h).unwrap();
        }
    }
    b.build()
}

#[test]
fn discovered_schema_round_trips_identically() {
    let graph = fixture();
    let schema = discover_schema(&graph, &DiscoveryConfig::default());
    assert!(!schema.is_empty(), "discovery found constraints");
    let fresh = AccessIndexSet::build(&graph, &schema);
    let bundle = round_trip(&graph, &fresh);
    assert_eq!(bundle.schema.len(), schema.len(), "schema survived");
    assert_index_sets_identical(&fresh, &bundle.indices);
}

/// A hub with 65 spokes of each label has 4 225 combinations, past the
/// default cap of 4 096: a loaded bundle's pair index is truncated, as a
/// fresh build's is.
#[test]
fn truncated_indices_round_trip_with_their_verdicts() {
    use bgpq_access::{AccessConstraint, AccessSchema};
    let graph = hub_graph(130);
    let label = |name| graph.interner().get(name).unwrap();
    let schema = AccessSchema::from_constraints([
        AccessConstraint::global(label("hub"), 3),
        AccessConstraint::unary(label("spoke"), label("hub"), 3),
        AccessConstraint::new([label("spoke"), label("rim")], label("hub"), 3),
    ]);
    let fresh = AccessIndexSet::build(&graph, &schema);
    assert!(
        fresh.iter().any(|(_, idx)| idx.is_truncated()),
        "fixture must force truncation (caps: {:?})",
        fresh.iter().map(|(_, i)| i.cap()).collect::<Vec<_>>()
    );
    let bundle = round_trip(&graph, &fresh);
    assert_index_sets_identical(&fresh, &bundle.indices);
}

/// The cap stays out of the file: a set built at any cap writes the same
/// bytes, and loads as the build at the default cap, truncated or not as
/// that build is, whatever the cap of the set written was.
#[test]
fn several_caps_round_trip() {
    let graph = hub_graph(24);
    let schema = discover_schema(&graph, &DiscoveryConfig::default());
    let at_default = AccessIndexSet::build(&graph, &schema);
    assert!(at_default.iter().all(|(_, idx)| !idx.is_truncated()));
    let mut files = Vec::new();
    for cap in [1usize, 2, 8, 64, 100_000] {
        let fresh = AccessIndexSet::build_with_cap(&graph, &schema, cap);
        assert_eq!(fresh.iter().any(|(_, i)| i.is_truncated()), cap <= 144);
        let bundle = round_trip(&graph, &fresh);
        assert_index_sets_identical(&at_default, &bundle.indices);
        let caps = bundle.indices.iter().map(|(_, i)| i.cap());
        assert!(caps
            .into_iter()
            .all(|c| c == DEFAULT_MAX_COMBINATIONS_PER_NODE));
        let mut bytes = Vec::new();
        write_snapshot(&graph, fresh.schema(), &mut bytes).unwrap();
        files.push(bytes);
    }
    assert!(files.windows(2).all(|pair| pair[0] == pair[1]));
}

#[test]
fn mutated_graph_round_trips_with_rebuilt_indices() {
    let mut graph = fixture();
    // Mutations leave tombstones behind; the snapshot must carry the graph
    // slot-exactly so the indices built at load keep the same node ids.
    let victim = graph
        .nodes()
        .find(|&v| graph.label_name(v) == "movie")
        .unwrap();
    graph.delete_node(victim).unwrap();
    let fresh_node = graph.insert_node("movie", Value::str("late arrival"));
    let year = graph
        .nodes()
        .find(|&v| graph.is_live(v) && graph.label_name(v) == "year")
        .unwrap();
    graph.insert_edge(year, fresh_node).unwrap();

    let schema = discover_schema(&graph, &DiscoveryConfig::default());
    let fresh = AccessIndexSet::build(&graph, &schema);
    let bundle = round_trip(&graph, &fresh);
    assert_eq!(
        bundle.graph.live_node_count(),
        graph.live_node_count(),
        "live nodes survived"
    );
    assert_eq!(
        bundle.graph.node_count(),
        graph.node_count(),
        "slots survived"
    );
    assert_index_sets_identical(&fresh, &bundle.indices);
}

#[test]
fn empty_schema_round_trips() {
    let graph = fixture();
    let schema = bgpq_access::AccessSchema::new();
    let fresh = AccessIndexSet::build(&graph, &schema);
    let bundle = round_trip(&graph, &fresh);
    assert_eq!(bundle.schema.len(), 0);
    assert_index_sets_identical(&fresh, &bundle.indices);
}
