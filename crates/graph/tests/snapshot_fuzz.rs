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

use bgpq_graph::io::snapshot::{
    read_graph_snapshot, write_graph_snapshot, Section, SnapshotArchive, SnapshotError,
    SnapshotWriter,
};
use bgpq_graph::{Graph, GraphBuilder, NodeId, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, noting the largest request each thread makes.
struct Tracking;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// What a load may allocate at once beyond a few times the file: a page of
/// rows and the like, fixed sizes the file does not choose.
const FIXED_ALLOCATIONS: usize = 64 << 10;

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

/// A small seeded generator (an LCG).
struct Seeded(u64);

impl Seeded {
    fn below(&mut self, bound: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) as usize % bound.max(1)
    }
}

/// One seeded mutation of `payload`: a bit flip, a word overwritten with a
/// value lengths and ids are made of, two words swapped, or bytes cut from
/// or added to the end.
fn mutate(rng: &mut Seeded, payload: &[u8], node_count: u32) -> Vec<u8> {
    let mut out = payload.to_vec();
    let at = rng.below(out.len());
    match rng.below(6) {
        0 => out[at] ^= 1 << rng.below(8),
        1 if out.len() >= 4 => {
            let at = rng.below(out.len() - 3);
            let words = [0, 1, node_count - 1, node_count, node_count + 1, u32::MAX];
            let word = match rng.below(words.len() + 1) {
                i if i < words.len() => words[i],
                _ => rng.below(1 << 20) as u32,
            };
            out[at..at + 4].copy_from_slice(&word.to_le_bytes());
        }
        2 if out.len() >= 8 => {
            let at = rng.below(out.len() - 7);
            let words = [0, u64::MAX, 1 << 40, u64::from(node_count) + 1];
            out[at..at + 8].copy_from_slice(&words[rng.below(words.len())].to_le_bytes());
        }
        3 if out.len() >= 8 => {
            let (a, b) = (rng.below(out.len() / 4), rng.below(out.len() / 4));
            let (a, b) = (4 * a.min(b), 4 * a.max(b));
            if a != b {
                let word: [u8; 4] = out[a..a + 4].try_into().unwrap();
                out.copy_within(b..b + 4, a);
                out[b..b + 4].copy_from_slice(&word);
            }
        }
        4 => out.truncate(out.len() - 1 - rng.below(8.min(out.len()))),
        _ => out.extend((0..1 + rng.below(8)).map(|_| rng.below(256) as u8)),
    }
    out
}

/// `bytes` with `section`'s payload replaced, every checksum recomputed.
fn with_payload(bytes: &[u8], section: Section, payload: &[u8]) -> Vec<u8> {
    let archive = SnapshotArchive::from_bytes(bytes.to_vec()).unwrap();
    let mut writer = SnapshotWriter::new();
    for (id, range) in archive.sections() {
        let body = if id == section {
            payload
        } else {
            &bytes[range]
        };
        writer.add_section(id, body.to_vec());
    }
    let mut out = Vec::new();
    writer.write_to(&mut out).unwrap();
    out
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
            LARGEST.with(|largest| largest.set(0));
            let result = read_graph_snapshot(std::io::Cursor::new(&file));
            let largest = LARGEST.with(Cell::get);
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
