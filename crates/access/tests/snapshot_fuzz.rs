//! Seeded structure-blind fuzzing of the `Schema` section of a snapshot,
//! with the generator, mutations and allocation bound of `bgpq-graph`'s
//! graph-section fuzz.
//!
//! The bundle holds a global, a unary and a pair constraint over a graph
//! with a deleted node; the pair's labels are those of a hub movie that
//! has a key per year and award. Each round mutates the `Schema` payload
//! and rewrites the container around it, so every checksum is right and
//! only the decoder can object. A bundle stores no index: a load returns
//! the original graph, a schema whose every label the graph interns, and
//! the indices a fresh build of that graph and schema holds — the original
//! indices when the schema survived — or a `Corrupt` error blaming
//! `Schema`. It must never panic, and no allocation it makes, the index
//! build's included, may be sized by a count the file claims rather than by
//! bytes the file holds.

#[path = "../../graph/tests/mutation/mod.rs"]
mod mutation;

use bgpq_access::{
    read_snapshot, write_snapshot, AccessConstraint, AccessIndexSet, AccessSchema, SnapshotBundle,
};
use bgpq_graph::io::snapshot::{Section, SnapshotArchive, SnapshotError};
use bgpq_graph::{Graph, GraphBuilder, NodeId, Value};
use mutation::{largest_allocation, mutate, with_payload, Seeded, FIXED_ALLOCATIONS};

/// Three years, three awards, twelve movies each of one year and one award
/// and two actors, and a hub movie of every year and award, keyed under
/// nine pairs. One actor is deleted.
fn sample_bundle() -> (Graph, AccessSchema) {
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
    (graph, schema)
}

/// Every `(key, answers)` entry of every index of `set`, in order.
fn entries(set: &AccessIndexSet) -> Vec<Vec<(Vec<NodeId>, Vec<NodeId>)>> {
    let index_entries = |index: &bgpq_access::ConstraintIndex| {
        let entries = index.entries();
        entries
            .map(|(key, answers)| (key.to_vec(), answers.to_vec()))
            .collect()
    };
    set.iter().map(|(_, index)| index_entries(index)).collect()
}

/// Where `loaded` differs from what a load of a mutated schema may return,
/// if anywhere: the original graph, and the indices of a fresh build of it
/// under the loaded schema — the original ones when the schema is the
/// original.
fn difference(
    graph: &Graph,
    schema: &AccessSchema,
    original: &[Vec<(Vec<NodeId>, Vec<NodeId>)>],
    loaded: &SnapshotBundle,
) -> Option<String> {
    if loaded.graph.node_count() != graph.node_count()
        || loaded.graph.edge_count() != graph.edge_count()
    {
        return Some("graph counts".into());
    }
    let built = AccessIndexSet::build(&loaded.graph, &loaded.schema);
    let got = entries(&loaded.indices);
    if got != entries(&built) || loaded.indices.schema() != &loaded.schema {
        return Some("the indices are not a build of the loaded schema".into());
    }
    if &loaded.schema == schema && got != original {
        return Some("the original schema loaded other indices".into());
    }
    None
}

#[test]
fn seeded_mutations_load_the_same_indices_or_a_typed_refusal() {
    let (graph, schema) = sample_bundle();
    let original = entries(&AccessIndexSet::build(&graph, &schema));
    let hub_keys = original[2].iter().filter(|(_, answers)| answers.len() > 1);
    assert!(hub_keys.count() > 0, "the hub shares a key with a movie");
    let mut bytes = Vec::new();
    write_snapshot(&graph, &schema, &mut bytes).unwrap();
    let archive = SnapshotArchive::from_bytes(bytes.clone()).unwrap();
    let node_count = graph.node_count() as u32;
    let mut rng = Seeded(0xACCE_55ED);
    let (mut loads, mut refused) = (0, 0);
    let payload = archive.require(Section::Schema).unwrap();
    let payload = &*payload;
    for round in 0..4000 {
        let changed = mutate(&mut rng, payload, node_count);
        if changed == payload {
            continue;
        }
        let file = with_payload(&bytes, Section::Schema, &changed);
        let (result, largest) = largest_allocation(|| read_snapshot(std::io::Cursor::new(&file)));
        let what = format!("round {round}");
        assert!(
            largest <= 4 * file.len() + FIXED_ALLOCATIONS,
            "{what}: a {largest}-byte allocation for a {}-byte file",
            file.len()
        );
        loads += 1;
        match result {
            Ok(loaded) => {
                if let Some(at) = difference(&graph, &schema, &original, &loaded) {
                    panic!("{what}: {at}");
                }
            }
            Err(SnapshotError::Corrupt { section, message }) => {
                refused += 1;
                assert_eq!(section, Section::Schema, "{what}: {message}");
            }
            Err(other) => panic!("{what}: {other:?}"),
        }
    }
    assert!(loads >= 3500, "only {loads} mutated loads");
    assert!(refused * 2 > loads, "only {refused} of {loads} refused");
}
