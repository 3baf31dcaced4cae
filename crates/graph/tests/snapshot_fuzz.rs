//! Seeded structure-blind fuzzing of the graph sections of a snapshot.
//!
//! Each round mutates one payload — `Labels`, `Values`, `OutAdjacency`,
//! `InAdjacency` or `LabelIndex` — and rewrites the container around it,
//! so every checksum is right and only the decoder can object. A load must
//! then return the original graph (a `Values` mutation may change values,
//! which carry no redundancy) or a `Corrupt` error blaming the mutated
//! section or one decoded after it that cross-checks it; it must never
//! panic, and no allocation it makes may be sized by a count the file
//! claims rather than by bytes the file holds.

mod mutation;

use bgpq_graph::io::snapshot::{
    read_graph_snapshot, write_graph_snapshot, Section, SnapshotArchive, SnapshotError,
};
use bgpq_graph::{Graph, GraphBuilder, NodeId, Value};
use mutation::{largest_allocation, mutate, with_payload, Seeded, FIXED_ALLOCATIONS};

/// The graph sections in the order the decoder reads them.
const DECODE_ORDER: [Section; 6] = [
    Section::Strings,
    Section::Labels,
    Section::Values,
    Section::OutAdjacency,
    Section::InAdjacency,
    Section::LabelIndex,
];

/// 60 nodes of four labels that do not ascend along the ids, every value
/// kind, repeated edges, and two deleted nodes.
fn sample_graph() -> Graph {
    let mut b = GraphBuilder::new();
    let ids: Vec<NodeId> = (0..60)
        .map(|i| {
            let value = match i % 5 {
                0 => Value::Int(i * 3),
                1 => Value::str(format!("n{i}")),
                2 => Value::Float(i as f64 / 7.0),
                3 => Value::Bool(i % 2 == 0),
                _ => Value::Null,
            };
            b.add_node(&format!("l{}", (i * 7) % 4), value)
        })
        .collect();
    for i in 0..ids.len() {
        b.add_edge(ids[i], ids[(i * 13 + 5) % ids.len()]).unwrap();
        b.add_edge(ids[i], ids[(i * 29 + 1) % ids.len()]).unwrap();
        b.add_edge(ids[0], ids[i]).unwrap();
    }
    let mut g = b.build();
    g.delete_node(ids[17]).unwrap();
    g.delete_node(ids[42]).unwrap();
    g
}

/// Where `loaded` differs from `original`, if anywhere; values are not
/// compared unless `values` is set.
fn difference(original: &Graph, loaded: &Graph, values: bool) -> Option<String> {
    if loaded.node_count() != original.node_count()
        || loaded.edge_count() != original.edge_count()
        || loaded.live_node_count() != original.live_node_count()
        || loaded.interner() != original.interner()
    {
        return Some("counts or labels in use".into());
    }
    for v in original.nodes() {
        let same = loaded.try_label(v) == original.try_label(v)
            && (!values || loaded.value(v) == original.value(v))
            && loaded.out_neighbors(v) == original.out_neighbors(v)
            && loaded.in_neighbors(v) == original.in_neighbors(v);
        if !same {
            return Some(format!("node {v}"));
        }
    }
    let buckets = original.interner().iter();
    let mut labels = buckets.map(|(label, _)| label);
    labels
        .find(|&l| loaded.nodes_with_label(l) != original.nodes_with_label(l))
        .map(|l| format!("the bucket of {l:?}"))
}

#[test]
fn seeded_mutations_load_the_same_graph_or_a_typed_refusal() {
    let graph = sample_graph();
    let mut bytes = Vec::new();
    write_graph_snapshot(&graph, &mut bytes).unwrap();
    let archive = SnapshotArchive::from_bytes(bytes.clone()).unwrap();
    let node_count = graph.node_count() as u32;
    let mut rng = Seeded(0xF0_22ED);
    let (mut loads, mut refused) = (0, 0);
    for mutated in [
        Section::Labels,
        Section::Values,
        Section::OutAdjacency,
        Section::InAdjacency,
        Section::LabelIndex,
    ] {
        let payload = archive.require(mutated).unwrap();
        let payload = &*payload;
        let later = DECODE_ORDER.iter().position(|&s| s == mutated).unwrap();
        for round in 0..120 {
            let changed = mutate(&mut rng, payload, node_count);
            if changed == payload {
                continue;
            }
            let file = with_payload(&bytes, mutated, &changed);
            let (result, largest) =
                largest_allocation(|| read_graph_snapshot(std::io::Cursor::new(&file)));
            let what = format!("{mutated}, round {round}");
            assert!(
                largest <= 4 * file.len() + FIXED_ALLOCATIONS,
                "{what}: a {largest}-byte allocation for a {}-byte file",
                file.len()
            );
            loads += 1;
            match result {
                Ok(loaded) => {
                    let values = mutated != Section::Values;
                    if let Some(at) = difference(&graph, &loaded, values) {
                        panic!("{what}: loaded a different graph ({at})");
                    }
                }
                Err(SnapshotError::Corrupt { section, message }) => {
                    refused += 1;
                    assert!(
                        DECODE_ORDER[later..].contains(&section),
                        "{what}: blamed {section} ({message})"
                    );
                }
                Err(other) => panic!("{what}: {other:?}"),
            }
        }
    }
    assert!(loads >= 500, "only {loads} mutated loads");
    assert!(refused * 2 > loads, "only {refused} of {loads} refused");
}
