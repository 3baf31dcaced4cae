//! Persisted-index differential suite: an [`AccessIndexSet`] deserialized
//! from a snapshot must be indistinguishable from one freshly built over the
//! same graph and schema — same entries, same caps, same truncation
//! verdicts — across schema shapes, caps and graph mutations.

use bgpq_access::{
    discover_schema, read_snapshot, write_snapshot, AccessIndexSet, DiscoveryConfig, SnapshotBundle,
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

fn round_trip(graph: &Graph, indices: &AccessIndexSet) -> SnapshotBundle {
    let mut buf = Vec::new();
    write_snapshot(graph, indices, &mut buf).unwrap();
    read_snapshot(Cursor::new(buf)).unwrap()
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

/// A star graph whose hub has more neighbor combinations than a small cap
/// allows, forcing `is_truncated` on the grouped `{spoke, rim} → hub`
/// constraint. Its two spoke labels alternate along the ids.
fn hub_graph() -> Graph {
    let mut b = GraphBuilder::new();
    let spokes: Vec<NodeId> = (0..24)
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

#[test]
fn truncated_indices_round_trip_with_their_verdicts() {
    let graph = hub_graph();
    let schema = discover_schema(&graph, &DiscoveryConfig::default());
    // A tiny cap guarantees at least one index truncates on the hub graph.
    let fresh = AccessIndexSet::build_with_cap(&graph, &schema, 4);
    assert!(
        fresh.iter().any(|(_, idx)| idx.is_truncated()),
        "fixture must force truncation (caps: {:?})",
        fresh.iter().map(|(_, i)| i.cap()).collect::<Vec<_>>()
    );
    let bundle = round_trip(&graph, &fresh);
    assert_index_sets_identical(&fresh, &bundle.indices);
}

#[test]
fn several_caps_round_trip() {
    let graph = hub_graph();
    let schema = discover_schema(&graph, &DiscoveryConfig::default());
    for cap in [1usize, 2, 8, 64, 100_000] {
        let fresh = AccessIndexSet::build_with_cap(&graph, &schema, cap);
        let bundle = round_trip(&graph, &fresh);
        assert_index_sets_identical(&fresh, &bundle.indices);
    }
}

#[test]
fn mutated_graph_round_trips_with_rebuilt_indices() {
    let mut graph = fixture();
    // Mutations leave tombstones behind; the snapshot must carry the graph
    // slot-exactly so the persisted indices keep referring to valid ids.
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
    // And the loaded bundle's indices agree with a build over the *loaded*
    // graph — ids in the persisted entries still mean the same nodes.
    let rebuilt = AccessIndexSet::build(&bundle.graph, &bundle.schema);
    assert_index_sets_identical(&rebuilt, &bundle.indices);
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

/// A unary record is its cap alone: the writer lists no entries for
/// `spoke → hub`. A record listing them — whole, as format 1 wrote them,
/// or truncated at the combination cap, each hub under its first 4 spokes,
/// with or without the capped list that build kept — fails to load with a
/// typed error naming the `Indices` section and saying to recompile.
#[test]
fn a_unary_section_truncated_when_written_is_refused_with_a_word_to_recompile() {
    use bgpq_graph::io::snapshot::{
        Section, SectionWriter, SnapshotArchive, SnapshotError, SnapshotWriter,
    };
    let graph = hub_graph();
    let (spoke, hub) = (graph.interner().get("spoke"), graph.interner().get("hub"));
    let schema =
        bgpq_access::AccessSchema::from_constraints([bgpq_access::AccessConstraint::unary(
            spoke.unwrap(),
            hub.unwrap(),
            3,
        )]);
    let mut written = Vec::new();
    let indices = AccessIndexSet::build_with_cap(&graph, &schema, 4);
    write_snapshot(&graph, &indices, &mut written).unwrap();
    let hubs = graph.nodes_with_label(hub.unwrap()).to_vec();
    let spokes = graph.nodes_with_label(spoke.unwrap()).to_vec();
    // Every spoke neighbours every hub: the first `cap` spokes list them all.
    let section = |cap: usize, capped: &[NodeId]| {
        let mut w = SectionWriter::new();
        w.put_u32(1);
        w.put_u64(4);
        w.put_u32(capped.len() as u32);
        capped.iter().for_each(|v| w.put_u32(v.0));
        let listed = &spokes[..cap.min(spokes.len())];
        w.put_u32(listed.len() as u32);
        for o in listed {
            w.put_u32(1);
            w.put_u32(o.0);
            w.put_u32(hubs.len() as u32);
            hubs.iter().for_each(|v| w.put_u32(v.0));
        }
        w.into_bytes()
    };
    let archive = SnapshotArchive::from_bytes(written.clone()).unwrap();
    assert_eq!(
        section(0, &[]),
        &*archive.require(Section::Indices).unwrap()
    );
    for (cap, capped) in [(usize::MAX, &[][..]), (4, &hubs[..]), (4, &[])] {
        let mut w = SnapshotWriter::new();
        for (id, range) in archive.sections() {
            let payload = match id {
                Section::Indices => section(cap, capped),
                _ => written[range].to_vec(),
            };
            w.add_section(id, payload);
        }
        let mut stale = Vec::new();
        w.write_to(&mut stale).unwrap();
        match read_snapshot(Cursor::new(stale)) {
            Err(SnapshotError::Corrupt { section, message }) => {
                assert_eq!(section, Section::Indices);
                assert!(message.contains("recompile the snapshot"), "{message}");
            }
            other => panic!("a truncated unary section must be refused, got {other:?}"),
        }
    }
}
