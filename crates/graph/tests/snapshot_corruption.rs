//! Corruption robustness of the snapshot container: every truncation and
//! every byte flip must surface as a typed [`SnapshotError`] naming the
//! damaged section — never a panic, and never a silently mis-loaded graph.

use bgpq_graph::io::snapshot::{
    checksum, read_graph_snapshot, write_graph_snapshot, Section, SnapshotArchive, SnapshotError,
    SnapshotWriter, FORMAT_VERSION, MAGIC,
};
use bgpq_graph::{Graph, GraphBuilder, NodeId, Value};
use std::io::Cursor;
use std::ops::Range;

fn sample_graph() -> Graph {
    let mut b = GraphBuilder::new();
    let ids: Vec<NodeId> = (0..40)
        .map(|i| {
            b.add_node(
                &format!("l{}", i % 5),
                match i % 4 {
                    0 => Value::Int(i),
                    1 => Value::str(format!("v{i}")),
                    2 => Value::Float(i as f64 / 3.0),
                    _ => Value::Null,
                },
            )
        })
        .collect();
    for i in 0..ids.len() {
        b.add_edge(ids[i], ids[(i * 7 + 3) % ids.len()]).unwrap();
        b.add_edge(ids[i], ids[(i * 11 + 5) % ids.len()]).unwrap();
    }
    b.build()
}

fn snapshot_bytes(g: &Graph) -> Vec<u8> {
    let mut buf = Vec::new();
    write_graph_snapshot(g, &mut buf).unwrap();
    buf
}

/// The verified `(section, payload range)` table of a pristine snapshot.
fn section_table(bytes: &[u8]) -> Vec<(Section, Range<usize>)> {
    SnapshotArchive::from_bytes(bytes.to_vec())
        .unwrap()
        .sections()
        .collect()
}

fn load(bytes: &[u8]) -> Result<Graph, SnapshotError> {
    read_graph_snapshot(Cursor::new(bytes))
}

/// Truncating the file at *every* possible length must produce a typed
/// error, never a panic and never a short-but-plausible graph.
#[test]
fn truncation_at_every_length_is_a_typed_error() {
    let bytes = snapshot_bytes(&sample_graph());
    for len in 0..bytes.len() {
        let err = load(&bytes[..len]).expect_err(&format!("length {len} must not load"));
        match (len, &err) {
            // A proper prefix of the magic still looks like a snapshot cut
            // short; anything shorter than the fixed header is Truncated.
            (0..=15, SnapshotError::Truncated { section }) => {
                assert_eq!(*section, Section::Header, "length {len}")
            }
            (0..=15, other) => panic!("length {len}: unexpected {other:?}"),
            (
                _,
                SnapshotError::Truncated { .. }
                | SnapshotError::ChecksumMismatch { .. }
                | SnapshotError::Corrupt { .. },
            ) => {}
            (_, other) => panic!("length {len}: unexpected {other:?}"),
        }
    }
}

/// Truncating exactly at each section's payload boundary names the first
/// section whose bytes are missing.
#[test]
fn truncation_at_section_boundaries_names_the_missing_section() {
    let bytes = snapshot_bytes(&sample_graph());
    let table = section_table(&bytes);
    for (i, (section, range)) in table.iter().enumerate() {
        // Cut at the section's start: this section's extent now dangles.
        let err = load(&bytes[..range.start]).unwrap_err();
        assert_eq!(
            err,
            SnapshotError::Truncated { section: *section },
            "cut at start of {section}"
        );
        // Cut one byte into the payload: still this section.
        if !range.is_empty() {
            let err = load(&bytes[..range.start + 1]).unwrap_err();
            assert_eq!(
                err,
                SnapshotError::Truncated { section: *section },
                "cut inside {section}"
            );
        }
        // Cut at the section's end: the *next* section is the first victim.
        if let Some((next, _)) = table.get(i + 1) {
            let err = load(&bytes[..range.end]).unwrap_err();
            assert_eq!(
                err,
                SnapshotError::Truncated { section: *next },
                "cut at end of {section}"
            );
        }
    }
}

/// Flipping any single byte anywhere in the file must either fail with a
/// typed error or (vacuously) still load the identical graph. It must never
/// panic and never load a *different* graph.
#[test]
fn flipping_any_byte_never_panics_or_misloads() {
    let graph = sample_graph();
    let bytes = snapshot_bytes(&graph);
    for at in 0..bytes.len() {
        for mask in [0x01u8, 0xFF] {
            let mut copy = bytes.clone();
            copy[at] ^= mask;
            match load(&copy) {
                Err(_) => {}
                Ok(loaded) => {
                    // Only acceptable if the flip was immaterial: same graph.
                    assert_eq!(loaded.node_count(), graph.node_count(), "byte {at}");
                    assert_eq!(loaded.edge_count(), graph.edge_count(), "byte {at}");
                    for v in graph.nodes() {
                        assert_eq!(
                            graph.out_neighbors(v),
                            loaded.out_neighbors(v),
                            "byte {at}, node {v}"
                        );
                        assert_eq!(graph.label(v), loaded.label(v), "byte {at}, node {v}");
                    }
                }
            }
        }
    }
}

#[test]
fn damaged_magic_is_not_a_snapshot() {
    let mut bytes = snapshot_bytes(&sample_graph());
    bytes[0] ^= 0x20;
    assert_eq!(load(&bytes).unwrap_err(), SnapshotError::NotASnapshot);
    // Arbitrary non-snapshot content gets the same diagnosis.
    assert_eq!(
        load(b"n 0 movie \"Argo\"\n").unwrap_err(),
        SnapshotError::NotASnapshot
    );
}

#[test]
fn future_format_version_is_rejected_with_both_versions() {
    // A later format, and format 1, which stored the label buckets and the
    // global and unary index entries.
    for found in [0x7B, 1] {
        let mut bytes = snapshot_bytes(&sample_graph());
        bytes[MAGIC.len()] = found as u8; // version field follows the magic
        assert_eq!(
            load(&bytes).unwrap_err(),
            SnapshotError::UnsupportedVersion {
                found,
                supported: 2,
            }
        );
    }
}

/// Damaging the recorded checksum of each table entry (file offset
/// `16 + i*28 + 20`) must name exactly that entry's section.
#[test]
fn table_checksum_damage_names_the_right_section() {
    let bytes = snapshot_bytes(&sample_graph());
    let table = section_table(&bytes);
    for (i, (section, _)) in table.iter().enumerate() {
        let mut copy = bytes.clone();
        copy[16 + i * 28 + 20] ^= 0xFF;
        assert_eq!(
            load(&copy).unwrap_err(),
            SnapshotError::ChecksumMismatch { section: *section },
            "entry {i}"
        );
    }
}

/// Damaging one payload byte in each section must name that section.
#[test]
fn payload_damage_names_the_containing_section() {
    let bytes = snapshot_bytes(&sample_graph());
    for (section, range) in section_table(&bytes) {
        if range.is_empty() {
            continue;
        }
        let mut copy = bytes.clone();
        let mid = range.start + range.len() / 2;
        copy[mid] ^= 0xFF;
        assert_eq!(
            load(&copy).unwrap_err(),
            SnapshotError::ChecksumMismatch { section },
            "payload of {section}"
        );
    }
}

/// A section extent that overflows or reaches past the file is rejected at
/// parse time, before any decoding touches it.
#[test]
fn implausible_section_extents_are_rejected() {
    let g = sample_graph();
    let bytes = snapshot_bytes(&g);

    // Overflowing offset+len in the first entry.
    let mut copy = bytes.clone();
    copy[16 + 4..16 + 12].copy_from_slice(&u64::MAX.to_le_bytes());
    match load(&copy).unwrap_err() {
        SnapshotError::Corrupt { section, .. } => assert_eq!(section, Section::SectionTable),
        SnapshotError::Truncated { .. } => {}
        other => panic!("unexpected {other:?}"),
    }

    // Implausible section count in the header.
    let mut copy = bytes.clone();
    copy[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
    match load(&copy).unwrap_err() {
        SnapshotError::Corrupt { section, message } => {
            assert_eq!(section, Section::Header);
            assert!(message.contains("section count"), "{message}");
        }
        other => panic!("unexpected {other:?}"),
    }
}

/// Structurally invalid content behind a *correct* checksum is caught by the
/// decoder's invariant checks — here, an out-of-bounds adjacency target.
#[test]
fn structurally_invalid_content_is_a_corrupt_error() {
    let bytes = snapshot_bytes(&sample_graph());
    let table = section_table(&bytes);
    let (_, range) = table
        .iter()
        .find(|(s, _)| *s == Section::OutAdjacency)
        .expect("out adjacency present")
        .clone();
    let entry_index = table
        .iter()
        .position(|(s, _)| *s == Section::OutAdjacency)
        .unwrap();

    let mut copy = bytes.clone();
    // The last u32 of the payload is an adjacency target; point it far out
    // of bounds and fix up the recorded checksum so only the decoder can
    // object.
    let target_at = range.end - 4;
    copy[target_at..range.end].copy_from_slice(&u32::MAX.to_le_bytes());
    let fixed = checksum(&copy[range.clone()]);
    let checksum_at = 16 + entry_index * 28 + 20;
    copy[checksum_at..checksum_at + 8].copy_from_slice(&fixed.to_le_bytes());

    match load(&copy).unwrap_err() {
        SnapshotError::Corrupt { section, .. } => assert_eq!(section, Section::OutAdjacency),
        other => panic!("unexpected {other:?}"),
    }
}

/// `bytes` with `section`'s payload replaced, every checksum recomputed.
fn with_payload(bytes: &[u8], section: Section, payload: Vec<u8>) -> Vec<u8> {
    let mut writer = SnapshotWriter::new();
    for (id, range) in section_table(bytes) {
        let body = if id == section {
            payload.clone()
        } else {
            bytes[range].to_vec()
        };
        writer.add_section(id, body);
    }
    let mut out = Vec::new();
    writer.write_to(&mut out).unwrap();
    out
}

/// An adjacency payload's rows: `n`, the id total, `n + 1` `u64` offsets,
/// then the `u32` targets.
fn adjacency_rows(payload: &[u8]) -> Vec<Vec<u32>> {
    let n = u32::from_le_bytes(payload[..4].try_into().unwrap()) as usize;
    let word = |at: usize, width: usize| {
        let mut le = [0u8; 8];
        le[..width].copy_from_slice(&payload[at..at + width]);
        u64::from_le_bytes(le) as usize
    };
    let offset = |v: usize| word(12 + 8 * v, 8);
    let targets = 12 + 8 * (n + 1);
    (0..n)
        .map(|v| {
            let ids = offset(v)..offset(v + 1);
            ids.map(|i| word(targets + 4 * i, 4) as u32).collect()
        })
        .collect()
}

/// The payload of `rows`, laid out as the writer lays it out.
fn adjacency_payload(rows: &[Vec<u32>]) -> Vec<u8> {
    let total: usize = rows.iter().map(Vec::len).sum();
    let mut out = (rows.len() as u32).to_le_bytes().to_vec();
    out.extend((total as u64).to_le_bytes());
    let mut offset = 0u64;
    for row in rows {
        out.extend(offset.to_le_bytes());
        offset += row.len() as u64;
    }
    out.extend(offset.to_le_bytes());
    for &id in rows.iter().flatten() {
        out.extend(id.to_le_bytes());
    }
    out
}

/// The in-adjacency must be the out-adjacency transposed. Behind correct
/// checksums, an in-row whose first source is rewritten to another node
/// (the totals still agree) and an in-row short of one source (they do
/// not) are both refused, naming the in-adjacency and what is wrong.
#[test]
fn an_in_adjacency_that_is_not_the_transpose_is_rejected() {
    let graph = sample_graph();
    let bytes = snapshot_bytes(&graph);
    let archive = SnapshotArchive::from_bytes(bytes.clone()).unwrap();
    let inc = adjacency_rows(&archive.require(Section::InAdjacency).unwrap());
    let out = adjacency_rows(&archive.require(Section::OutAdjacency).unwrap());
    assert_eq!(
        adjacency_payload(&inc),
        &*archive.require(Section::InAdjacency).unwrap()
    );
    let dst = inc.iter().position(|row| !row.is_empty()).unwrap();
    let src = inc[dst][0];
    let other = (0..graph.node_count() as u32)
        .find(|v| !inc[dst].contains(v))
        .unwrap();
    let total = graph.edge_count();

    let mut rewritten = inc.clone();
    rewritten[dst][0] = other;
    rewritten[dst].sort_unstable();
    let mut shortened = inc.clone();
    shortened[dst].remove(0);
    let cases = [
        (
            rewritten,
            format!(
                "edge ({src}, {}) is missing from the in-adjacency",
                NodeId(dst as u32)
            ),
        ),
        (
            shortened,
            format!("edge totals disagree: out {total}, in {}", total - 1),
        ),
    ];
    assert_eq!(out.iter().map(Vec::len).sum::<usize>(), total);
    for (rows, message) in cases {
        let copy = with_payload(&bytes, Section::InAdjacency, adjacency_payload(&rows));
        assert_eq!(
            load(&copy).unwrap_err(),
            SnapshotError::Corrupt {
                section: Section::InAdjacency,
                message,
            }
        );
    }
}

/// Format 2 stores no label buckets: a graph whose last `l`-node was
/// deleted still loads with one bucket per interned label.
#[test]
fn buckets_are_rebuilt_from_the_labels_at_the_interner_width() {
    let mut graph = sample_graph();
    let lone = graph.insert_node("lone", Value::Null);
    graph.delete_node(lone).unwrap();
    let bytes = snapshot_bytes(&graph);
    let ids: Vec<u32> = section_table(&bytes).iter().map(|(s, _)| s.id()).collect();
    assert_eq!(ids, [1, 2, 3, 4, 5], "no retired section is written");
    let loaded = load(&bytes).unwrap();
    assert_eq!(loaded.interner(), graph.interner());
    for (label, _) in graph.interner().iter() {
        assert_eq!(
            loaded.nodes_with_label(label),
            graph.nodes_with_label(label)
        );
    }
    assert_eq!(loaded.spines()[4], graph.spines()[4], "the bucket table");
}

/// Error messages are actionable: they name the section in human-readable
/// form and suggest regeneration on version mismatch.
#[test]
fn diagnostics_are_human_readable() {
    let truncated = SnapshotError::Truncated {
        section: Section::InAdjacency,
    };
    assert!(
        truncated.to_string().contains("in-adjacency"),
        "{truncated}"
    );
    let version = SnapshotError::UnsupportedVersion {
        found: 9,
        supported: FORMAT_VERSION,
    };
    assert!(version.to_string().contains("bgpq compile"), "{version}");
}
