//! Snapshot persistence for access schemas.
//!
//! The paper's cost model charges schema discovery and index construction
//! to a **one-time preprocessing phase**; queries then run in time that
//! depends only on the schema's bounds. [`crate::discovery`] and
//! [`crate::AccessIndexSet::build`] implement that phase. A `.bgpq` bundle,
//! the container defined in [`bgpq_graph::io::snapshot`], keeps what the
//! graph cannot derive: the graph sections and a `Schema` section, which
//! stores each constraint `S → (l, N)` as label ids against the graph's own
//! interner.
//!
//! It stores no index. A global or unary index is the graph's label bucket
//! or adjacency rows, and an `|S| ≥ 2` index is a function of the graph,
//! its constraint and the combination cap, so [`decode_bundle`] builds every
//! index at [`crate::DEFAULT_MAX_COMBINATIONS_PER_NODE`]: a loaded bundle's indices
//! are a fresh build by construction, and no stored entry can disagree with
//! the graph. The cap stays out of the file on purpose: a cap the file
//! claimed would set how much work a load does.
//!
//! Loading validates the schema against the graph decoded from the same
//! container (every label id interned), so a corrupt or hand-edited
//! snapshot surfaces as a typed [`SnapshotError`] naming the section instead
//! of a wrong query answer.

use crate::constraint::AccessConstraint;
use crate::index::AccessIndexSet;
use crate::schema::AccessSchema;
use bgpq_graph::io::snapshot::{
    decode_graph, encode_graph, Section, SectionReader, SectionWriter, SnapshotArchive,
    SnapshotError, SnapshotWriter,
};
use bgpq_graph::{Graph, Label};
use std::io::{Read, Write};
use std::path::Path;

/// Everything a snapshot loads into: the graph, the access schema
/// discovered for it, and the indices built over both at load. Loading one
/// is the binary equivalent of `load → discover → index` with the first two
/// steps already done.
#[derive(Debug, Clone)]
pub struct SnapshotBundle {
    /// The data graph.
    pub graph: Graph,
    /// The access schema the indices back.
    pub schema: AccessSchema,
    /// The per-constraint indices, built at load at
    /// [`crate::DEFAULT_MAX_COMBINATIONS_PER_NODE`].
    pub indices: AccessIndexSet,
}

/// Serializes `graph` and `schema` into the snapshot container on `w`.
pub fn write_snapshot<W: Write>(
    graph: &Graph,
    schema: &AccessSchema,
    w: W,
) -> Result<(), SnapshotError> {
    let mut writer = SnapshotWriter::new();
    encode_graph(graph, &mut writer);
    writer.add_section(Section::Schema, encode_schema(schema).into_bytes());
    writer.write_to(w)
}

/// Saves a full snapshot to `path`.
pub fn save_snapshot(
    graph: &Graph,
    schema: &AccessSchema,
    path: impl AsRef<Path>,
) -> Result<(), SnapshotError> {
    let file = std::fs::File::create(path)?;
    write_snapshot(graph, schema, file)
}

/// Reads a full snapshot — graph and schema, and the indices built over
/// them — from `r`.
pub fn read_snapshot<R: Read>(r: R) -> Result<SnapshotBundle, SnapshotError> {
    decode_bundle(&SnapshotArchive::read_from(r)?)
}

/// Loads a full snapshot from a file.
pub fn load_snapshot(path: impl AsRef<Path>) -> Result<SnapshotBundle, SnapshotError> {
    decode_bundle(&SnapshotArchive::open(path)?)
}

/// Decodes graph and schema from an already-verified archive and builds
/// the indices over them at [`crate::DEFAULT_MAX_COMBINATIONS_PER_NODE`].
pub fn decode_bundle(archive: &SnapshotArchive) -> Result<SnapshotBundle, SnapshotError> {
    let graph = decode_graph(archive)?;
    let schema = decode_schema(archive, &graph)?;
    let indices = AccessIndexSet::build(&graph, &schema);
    Ok(SnapshotBundle {
        graph,
        schema,
        indices,
    })
}

fn encode_schema(schema: &AccessSchema) -> SectionWriter {
    let mut w = SectionWriter::new();
    w.put_u32(schema.len() as u32);
    for constraint in schema.iter() {
        w.put_u32(constraint.source_len() as u32);
        for &label in constraint.source() {
            w.put_u32(label.0);
        }
        w.put_u32(constraint.target().0);
        w.put_u64(constraint.bound() as u64);
    }
    w
}

/// Decodes the `Schema` section, validating every label id against the
/// graph's interner.
pub fn decode_schema(
    archive: &SnapshotArchive,
    graph: &Graph,
) -> Result<AccessSchema, SnapshotError> {
    let payload = archive.require(Section::Schema)?;
    let mut r = SectionReader::new(Section::Schema, &payload);
    let count = r.read_u32()? as usize;
    // A constraint takes 16 bytes at least: sized by the bytes, not the
    // claimed count.
    let mut constraints = Vec::with_capacity(count.min(payload.len() / 16));
    for i in 0..count {
        let source_len = r.read_u32()? as usize;
        let source = r.read_u32_vec(source_len)?;
        let target = r.read_u32()?;
        let bound = r.read_count()?;
        for &id in source.iter().chain([&target]) {
            if !graph.interner().contains(Label(id)) {
                return Err(r.corrupt(format!("constraint {i} uses unknown label id {id}")));
            }
        }
        constraints.push(AccessConstraint::new(
            source.into_iter().map(Label),
            Label(target),
            bound,
        ));
    }
    r.expect_end()?;
    Ok(AccessSchema::from_constraints(constraints))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpq_graph::{GraphBuilder, NodeId, Value};

    fn toy() -> (Graph, AccessSchema) {
        let mut b = GraphBuilder::new();
        let y = b.add_node("year", Value::Int(2012));
        let a = b.add_node("award", Value::str("Oscar"));
        let us = b.add_node("country", Value::str("US"));
        for i in 0..3 {
            let m = b.add_node("movie", Value::Int(i));
            b.add_edge(y, m).unwrap();
            b.add_edge(a, m).unwrap();
            let act = b.add_node("actor", Value::Int(i));
            b.add_edge(m, act).unwrap();
            b.add_edge(act, us).unwrap();
        }
        // A second year with a movie of its own: a second pair key.
        let y2 = b.add_node("year", Value::Int(2013));
        let m = b.add_node("movie", Value::Int(3));
        b.add_edge(y2, m).unwrap();
        b.add_edge(a, m).unwrap();
        // A movie of no year: no pair key lists it.
        b.add_node("movie", Value::Int(4));
        let g = b.build();
        let get = |n: &str| g.interner().get(n).unwrap();
        let schema = AccessSchema::from_constraints([
            AccessConstraint::global(get("year"), 135),
            AccessConstraint::unary(get("movie"), get("actor"), 30),
            AccessConstraint::new([get("year"), get("award")], get("movie"), 4),
        ]);
        (g, schema)
    }

    /// The entries of every index of `set`, in order.
    fn entries(set: &AccessIndexSet) -> Vec<Vec<(Vec<NodeId>, Vec<NodeId>)>> {
        let owned = |(key, answers): (&[NodeId], bgpq_graph::Neighbors<'_>)| {
            (key.to_vec(), answers.to_vec())
        };
        set.iter()
            .map(|(_, index)| index.entries().map(owned).collect())
            .collect()
    }

    #[test]
    fn bundle_round_trips() {
        let (g, schema) = toy();
        let indices = AccessIndexSet::build(&g, &schema);
        let mut buf = Vec::new();
        write_snapshot(&g, &schema, &mut buf).unwrap();
        let bundle = read_snapshot(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(bundle.schema, schema);
        assert_eq!(bundle.graph.node_count(), g.node_count());
        assert_eq!(bundle.indices.len(), indices.len());
        for ((_, fresh), (_, loaded)) in indices.iter().zip(bundle.indices.iter()) {
            assert_eq!(loaded.constraint(), fresh.constraint());
            assert_eq!(loaded.key_count(), fresh.key_count());
            assert_eq!(loaded.size(), fresh.size());
            assert_eq!(loaded.max_cardinality(), fresh.max_cardinality());
            assert_eq!(loaded.cap(), fresh.cap());
            assert_eq!(loaded.is_truncated(), fresh.is_truncated());
        }
        assert_eq!(entries(&bundle.indices), entries(&indices));
        assert_eq!(bundle.indices.total_size(), indices.total_size());
    }

    /// A bundle is the five graph sections and `Schema`. A file that also
    /// carries section 8, where format 2 stored the indices, loads with
    /// that section checksummed and skipped, as the retired ids 6 and 9
    /// are: its indices are the build of its graph and schema.
    #[test]
    fn a_stray_indices_section_is_skipped() {
        let (g, schema) = toy();
        let mut written = Vec::new();
        write_snapshot(&g, &schema, &mut written).unwrap();
        let archive = SnapshotArchive::from_bytes(written.clone()).unwrap();
        let ids: Vec<u32> = archive.sections().map(|(s, _)| s.id()).collect();
        assert_eq!(ids, [1, 2, 3, 4, 5, 7]);
        let mut writer = SnapshotWriter::new();
        for (section, range) in archive.sections() {
            writer.add_section(section, written[range].to_vec());
        }
        assert_eq!(Section::from_id(8), Section::Unknown(8));
        writer.add_section(Section::from_id(8), b"format 2's index entries".to_vec());
        let mut stray = Vec::new();
        writer.write_to(&mut stray).unwrap();
        let bundle = read_snapshot(std::io::Cursor::new(stray)).unwrap();
        assert_eq!(bundle.schema, schema);
        let built = AccessIndexSet::build(&bundle.graph, &bundle.schema);
        assert_eq!(entries(&bundle.indices), entries(&built));
    }

    #[test]
    fn graph_only_snapshot_has_no_schema() {
        let (g, _) = toy();
        let mut buf = Vec::new();
        bgpq_graph::io::snapshot::write_graph_snapshot(&g, &mut buf).unwrap();
        let err = read_snapshot(std::io::Cursor::new(buf)).unwrap_err();
        assert_eq!(
            err,
            SnapshotError::MissingSection {
                section: Section::Schema
            }
        );
    }
}
