//! Seeded structure-blind fuzzing of the `Schema` and `Indices` sections of
//! a snapshot, with the generator, mutations and allocation bound of
//! `bgpq-graph`'s graph-section fuzz.
//!
//! The bundle holds a global, a unary and a capped pair index over a graph
//! with a deleted node. Each round mutates one of the two payloads and
//! rewrites the container around it, so every checksum is right and only
//! the decoder can object. A load must then return the original schema and
//! indices, apart from the fields that carry no redundancy — a
//! constraint's bound, an index's cap and its capped-target list, and a
//! pair index's answer lists beyond what the adjacency confirms: an answer
//! dropped, or a capped target listed under another key it neighbours,
//! loads, but never an answer that is not a common neighbour of its key —
//! or a `Corrupt` error blaming the mutated section or `Indices`, decoded
//! after `Schema` and checked against it; it must never panic, and no
//! allocation it makes may be sized by a count the file claims rather than
//! by bytes the file holds.

#[path = "../../graph/tests/mutation/mod.rs"]
mod mutation;

use bgpq_access::{
    read_snapshot, write_snapshot, AccessConstraint, AccessIndexSet, AccessSchema, ConstraintIndex,
    SnapshotBundle,
};
use bgpq_graph::io::snapshot::{Section, SnapshotArchive, SnapshotError};
use bgpq_graph::{Graph, GraphBuilder, NodeId, Value};
use mutation::{largest_allocation, mutate, with_payload, Seeded, FIXED_ALLOCATIONS};

/// Three years, three awards, twelve movies each of one year and one award
/// and two actors, and a hub movie of every year and award, whose nine
/// pairs outgrow the cap of 4. One actor is deleted.
fn sample_bundle() -> (Graph, AccessIndexSet) {
    let mut b = GraphBuilder::new();
    let years: Vec<NodeId> = (0..3).map(|i| b.add_node("year", Value::Int(i))).collect();
    let awards: Vec<NodeId> = (0..3).map(|i| b.add_node("award", Value::Int(i))).collect();
    let mut actors = Vec::new();
    for i in 0..12 {
        let movie = b.add_node("movie", Value::Int(i));
        b.add_edge(years[i as usize % 3], movie).unwrap();
        b.add_edge(awards[i as usize / 3 % 3], movie).unwrap();
        for j in 0..2 {
            let actor = b.add_node("actor", Value::Int(10 * i + j));
            b.add_edge(movie, actor).unwrap();
            actors.push(actor);
        }
    }
    let hub = b.add_node("movie", Value::Int(-1));
    for (&year, &award) in years.iter().zip(&awards) {
        b.add_edge(year, hub).unwrap();
        b.add_edge(award, hub).unwrap();
    }
    let mut graph = b.build();
    graph.delete_node(actors[5]).unwrap();
    let l = |name: &str| graph.interner().get(name).unwrap();
    let schema = AccessSchema::from_constraints([
        AccessConstraint::global(l("year"), 10),
        AccessConstraint::unary(l("movie"), l("actor"), 10),
        AccessConstraint::new([l("year"), l("award")], l("movie"), 20),
    ]);
    let indices = AccessIndexSet::build_with_cap(&graph, &schema, 4);
    assert!(indices.iter().any(|(_, index)| index.is_truncated()));
    (graph, indices)
}

/// Where `loaded` differs from the original `graph` and `indices`, if
/// anywhere, bounds, caps and capped targets aside. A pair index is held
/// to what its entries can be checked against: every answer a neighbour of
/// each node of its key.
fn difference(graph: &Graph, indices: &AccessIndexSet, loaded: &SnapshotBundle) -> Option<String> {
    if loaded.graph.node_count() != graph.node_count()
        || loaded.graph.edge_count() != graph.edge_count()
        || loaded.schema.len() != indices.schema().len()
    {
        return Some("counts".into());
    }
    let mut constraints = indices.schema().iter().zip(loaded.schema.iter());
    let renamed = |(a, b): &(&AccessConstraint, &AccessConstraint)| {
        a.source() != b.source() || a.target() != b.target()
    };
    if let Some((a, b)) = constraints.find(renamed) {
        return Some(format!("constraint {a} loaded as {b}"));
    }
    for (id, original) in indices.iter() {
        let index = loaded.indices.get(id)?;
        let entries = |index: &ConstraintIndex| -> Vec<(Vec<NodeId>, Vec<NodeId>)> {
            let entries = index.entries();
            entries
                .map(|(key, answers)| (key.to_vec(), answers.to_vec()))
                .collect()
        };
        if original.constraint().source_len() >= 2 {
            for (key, answers) in entries(index) {
                let apart = |&&t: &&NodeId| key.iter().any(|&v| !graph.are_neighbors(v, t));
                if let Some(t) = answers.iter().find(apart) {
                    return Some(format!("answer {t} of key {key:?} is no common neighbour"));
                }
            }
        } else if entries(index) != entries(original)
            || index.key_count() != original.key_count()
            || index.max_cardinality() != original.max_cardinality()
        {
            return Some(format!("the entries of {}", original.constraint()));
        }
    }
    None
}

#[test]
fn seeded_mutations_load_the_same_indices_or_a_typed_refusal() {
    let (graph, indices) = sample_bundle();
    let mut bytes = Vec::new();
    write_snapshot(&graph, &indices, &mut bytes).unwrap();
    let archive = SnapshotArchive::from_bytes(bytes.clone()).unwrap();
    let node_count = graph.node_count() as u32;
    let mut rng = Seeded(0xACCE_55ED);
    let (mut loads, mut refused) = (0, 0);
    for mutated in [Section::Schema, Section::Indices] {
        let payload = archive.require(mutated).unwrap();
        let payload = &*payload;
        for round in 0..2000 {
            let changed = mutate(&mut rng, payload, node_count);
            if changed == payload {
                continue;
            }
            let file = with_payload(&bytes, mutated, &changed);
            let (result, largest) =
                largest_allocation(|| read_snapshot(std::io::Cursor::new(&file)));
            let what = format!("{mutated}, round {round}");
            assert!(
                largest <= 4 * file.len() + FIXED_ALLOCATIONS,
                "{what}: a {largest}-byte allocation for a {}-byte file",
                file.len()
            );
            loads += 1;
            match result {
                Ok(loaded) => {
                    if let Some(at) = difference(&graph, &indices, &loaded) {
                        panic!("{what}: loaded different indices ({at})");
                    }
                }
                Err(SnapshotError::Corrupt { section, message }) => {
                    refused += 1;
                    assert!(
                        [mutated, Section::Indices].contains(&section),
                        "{what}: blamed {section} ({message})"
                    );
                }
                Err(other) => panic!("{what}: {other:?}"),
            }
        }
    }
    assert!(loads >= 3500, "only {loads} mutated loads");
    assert!(refused * 2 > loads, "only {refused} of {loads} refused");
}
