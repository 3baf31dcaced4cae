//! Snapshot persistence for access schemas and their indices.
//!
//! The paper's cost model charges schema discovery and index construction
//! to a **one-time preprocessing phase**; queries then run in time that
//! depends only on the schema's bounds. [`crate::discovery`] and
//! [`crate::AccessIndexSet::build`] implement that phase, and this module
//! makes it genuinely one-time by persisting both results inside the
//! `.bgpq` container defined in [`bgpq_graph::io::snapshot`]:
//!
//! * the `Schema` section stores each constraint `S → (l, N)` as label ids
//!   against the graph's own interner;
//! * the `Indices` section stores one record per constraint: the per-node
//!   combination cap, the set of capped target nodes and the key → answer
//!   entries. An `|S| ≥ 2` record holds its full map — enough to reproduce
//!   the exact [`ConstraintIndex`] a fresh build would produce, including
//!   its `is_truncated` verdict.
//!
//! A global or unary index's entries are the graph's own label bucket or
//! adjacency segments, and it never truncates, so its record is its cap
//! alone (16 bytes): format 2 writes no entries and no capped targets for
//! it, whatever `|G|` is, and refuses a record that carries either as
//! corrupt, with a word to recompile the file.
//!
//! Loading re-validates everything against the graph decoded from the same
//! container (label ids interned, node ids live and carrying the labels the
//! constraint requires, keys and answers sorted, every `|S| ≥ 2` answer a
//! neighbour of each node of its key), so a corrupt or hand-edited snapshot
//! surfaces as a typed [`SnapshotError`] naming the section instead of a
//! wrong query answer — with one exception: an `|S| ≥ 2` answer *dropped*
//! from its list, or a whole entry dropped, leaves a list the graph cannot
//! contradict without a rebuild, and loads.

use crate::constraint::AccessConstraint;
use crate::index::{AccessIndexSet, ConstraintIndex};
use crate::schema::AccessSchema;
use bgpq_graph::io::snapshot::{
    decode_graph, encode_graph, Section, SectionReader, SectionWriter, SnapshotArchive,
    SnapshotError, SnapshotWriter,
};
use bgpq_graph::{Graph, Label, NodeId};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

/// Everything a snapshot holds: the graph, the access schema discovered for
/// it, and the indices built over it. Loading one is the binary equivalent
/// of `load → discover → index` with all three steps already done.
#[derive(Debug, Clone)]
pub struct SnapshotBundle {
    /// The data graph.
    pub graph: Graph,
    /// The access schema the indices were built for.
    pub schema: AccessSchema,
    /// The per-constraint indices, caps and truncation verdicts included.
    pub indices: AccessIndexSet,
}

/// Serializes `graph` and `indices` (whose schema is embedded) into the
/// snapshot container on `w`.
pub fn write_snapshot<W: Write>(
    graph: &Graph,
    indices: &AccessIndexSet,
    w: W,
) -> Result<(), SnapshotError> {
    let mut writer = SnapshotWriter::new();
    encode_graph(graph, &mut writer);
    writer.add_section(
        Section::Schema,
        encode_schema(indices.schema()).into_bytes(),
    );
    writer.add_section(Section::Indices, encode_indices(indices).into_bytes());
    writer.write_to(w)
}

/// Saves a full snapshot to `path`.
pub fn save_snapshot(
    graph: &Graph,
    indices: &AccessIndexSet,
    path: impl AsRef<Path>,
) -> Result<(), SnapshotError> {
    let file = std::fs::File::create(path)?;
    write_snapshot(graph, indices, file)
}

/// Reads a full snapshot — graph, schema and indices — from `r`.
pub fn read_snapshot<R: Read>(r: R) -> Result<SnapshotBundle, SnapshotError> {
    decode_bundle(&SnapshotArchive::read_from(r)?)
}

/// Loads a full snapshot from a file.
pub fn load_snapshot(path: impl AsRef<Path>) -> Result<SnapshotBundle, SnapshotError> {
    decode_bundle(&SnapshotArchive::open(path)?)
}

/// Decodes graph, schema and indices from an already-verified archive.
pub fn decode_bundle(archive: &SnapshotArchive) -> Result<SnapshotBundle, SnapshotError> {
    let graph = decode_graph(archive)?;
    let schema = decode_schema(archive, &graph)?;
    let indices = decode_indices(archive, &graph, &schema)?;
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

fn encode_indices(indices: &AccessIndexSet) -> SectionWriter {
    let mut w = SectionWriter::new();
    w.put_u32(indices.len() as u32);
    for (_, index) in indices.iter() {
        w.put_u64(index.cap() as u64);
        let capped = index.capped_targets();
        w.put_u32(capped.len() as u32);
        for v in capped {
            w.put_u32(v.0);
        }
        // A global or unary index's entries are the graph's.
        if index.constraint().source_len() <= 1 {
            w.put_u32(0);
            continue;
        }
        // Entries come in increasing key order, so identical indices
        // serialize identically.
        w.put_u32(index.key_count() as u32);
        let (mut written, mut previous) = (0, None);
        for (key, answers) in index.entries() {
            debug_assert!(previous.map_or(true, |p| p < key), "{key:?} out of order");
            w.put_u32(key.len() as u32);
            for v in key {
                w.put_u32(v.0);
            }
            w.put_u32(answers.len() as u32);
            for v in answers {
                w.put_u32(v.0);
            }
            written += 1;
            previous = Some(key);
        }
        debug_assert_eq!(
            written,
            index.key_count(),
            "entries of {}",
            index.constraint()
        );
    }
    w
}

/// Reads a sorted node-id list onto the end of `ids`, checking bounds and
/// strict order.
fn read_sorted_ids(
    r: &mut SectionReader<'_>,
    len: usize,
    node_count: usize,
    what: &str,
    ids: &mut Vec<NodeId>,
) -> Result<(), SnapshotError> {
    let size = len
        .checked_mul(4)
        .ok_or_else(|| r.corrupt(format!("{what} length {len} overflows")))?;
    let start = ids.len();
    let words = r.read_bytes(size)?.chunks_exact(4);
    ids.extend(words.map(|word| NodeId(u32::from_le_bytes(word.try_into().unwrap()))));
    let read = &ids[start..];
    if read.windows(2).any(|pair| pair[0] >= pair[1]) {
        return Err(r.corrupt(format!("{what} is not sorted strictly")));
    }
    if let Some(&last) = read.last().filter(|v| v.index() >= node_count) {
        return Err(r.corrupt(format!("{what} references out-of-bounds node {last}")));
    }
    Ok(())
}

/// Decodes the `Indices` section against the graph and schema decoded from
/// the same archive, rebuilding the per-target bookkeeping that is
/// derivable from the persisted entries. Each index's entries must come in
/// strictly increasing key order, as [`write_snapshot`] writes them: a
/// repeated or out-of-order key is refused as corrupt. A global or unary
/// record must carry no entries and no capped target — the index answers
/// from the graph — or it is refused as corrupt with a word to recompile
/// the file. An `|S| ≥ 2` answer must neighbour every node of its key.
pub fn decode_indices(
    archive: &SnapshotArchive,
    graph: &Graph,
    schema: &AccessSchema,
) -> Result<AccessIndexSet, SnapshotError> {
    let bytes = archive.require(Section::Indices)?;
    let mut r = SectionReader::new(Section::Indices, &bytes);
    let count = r.read_u32()? as usize;
    if count != schema.len() {
        return Err(r.corrupt(format!(
            "{count} indices for a schema of {} constraints",
            schema.len()
        )));
    }
    let node_count = graph.node_count();
    let mut indices = Vec::with_capacity(count);
    // Every entry's key and then its answers in one flat id list, and one
    // `(start, mid, end)` span per entry; both buffers serve every index.
    let (mut ids, mut spans, mut previous) = (Vec::new(), Vec::new(), Vec::new());
    // The graph the global and unary indices answer from, made for the
    // first index.
    let mut shared: Option<Arc<Graph>> = None;
    for constraint in schema.iter() {
        let cap = r.read_count()?;
        let capped_len = r.read_u32()? as usize;
        let kind = match constraint.source_len() {
            0 => Some("global"),
            1 => Some("unary"),
            _ => None,
        };
        if let Some(kind) = kind.filter(|_| capped_len > 0) {
            return Err(r.corrupt(format!(
                "the {kind} index of {constraint} lists capped targets, but it never \
                 truncates; recompile the snapshot"
            )));
        }
        let mut capped = Vec::new();
        read_sorted_ids(
            &mut r,
            capped_len,
            node_count,
            "capped-target list",
            &mut capped,
        )?;
        if let Some(v) = capped
            .iter()
            .find(|&&v| graph.label(v) != constraint.target())
        {
            return Err(r.corrupt(format!(
                "capped target {v} does not carry the target label of {constraint}"
            )));
        }

        let entry_count = r.read_u32()? as usize;
        if let Some(kind) = kind {
            if entry_count > 0 {
                return Err(r.corrupt(format!(
                    "the {kind} index of {constraint} lists entries, but its entries are the \
                     graph's; recompile the snapshot"
                )));
            }
            let shared = shared.get_or_insert_with(|| Arc::new(graph.clone()));
            let index = ConstraintIndex::on_graph(Arc::clone(shared), constraint.clone(), cap);
            indices.push(index);
            continue;
        }
        ids.clear();
        previous.clear();
        for entry in 0..entry_count {
            let start = ids.len();
            let key_len = r.read_u32()? as usize;
            if key_len != constraint.source_len() {
                return Err(r.corrupt(format!("index key of {key_len} ids for {constraint}")));
            }
            read_sorted_ids(&mut r, key_len, node_count, "index key", &mut ids)?;
            let mid = ids.len();
            for &v in &ids[start..mid] {
                if constraint.source().binary_search(&graph.label(v)).is_err() {
                    return Err(r.corrupt(format!(
                        "key node {v} does not carry a source label of {constraint}"
                    )));
                }
            }
            if entry > 0 && previous[..] >= ids[start..mid] {
                return Err(r.corrupt("index keys are not in strictly increasing order"));
            }
            previous.clear();
            previous.extend_from_slice(&ids[start..mid]);
            let ans_len = r.read_u32()? as usize;
            // Maintenance drops a key whose answers run out.
            if ans_len == 0 {
                let key = &ids[start..mid];
                return Err(r.corrupt(format!("index key {key:?} has no answers")));
            }
            read_sorted_ids(&mut r, ans_len, node_count, "index answer", &mut ids)?;
            for &v in &ids[mid..] {
                if graph.label(v) != constraint.target() {
                    return Err(r.corrupt(format!(
                        "answer node {v} does not carry the target label of {constraint}"
                    )));
                }
            }
            let (key, answers) = ids[start..].split_at(mid - start);
            // A segment lookup per answer and key node.
            for &t in answers {
                if let Some(v) = key.iter().find(|&&v| !graph.are_neighbors(v, t)) {
                    return Err(r.corrupt(format!(
                        "answer node {t} of key {key:?} is not a neighbour of {v}"
                    )));
                }
            }
            spans.push((start, mid, ids.len()));
        }
        let index =
            ConstraintIndex::from_entries(constraint.clone(), cap, capped, &ids, &mut spans);
        indices.push(index);
    }
    r.expect_end()?;
    Ok(AccessIndexSet::from_indices(schema.clone(), indices))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpq_graph::{GraphBuilder, Value};

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

    #[test]
    fn bundle_round_trips() {
        let (g, schema) = toy();
        let indices = AccessIndexSet::build(&g, &schema);
        let mut buf = Vec::new();
        write_snapshot(&g, &indices, &mut buf).unwrap();
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
        assert_eq!(bundle.indices.total_size(), indices.total_size());
    }

    /// `toy`'s snapshot bytes with the entries of index `edited` passed
    /// through `edit` before they are written, and `capped` written as its
    /// capped targets (nothing is capped). Index 0 is global and 1 unary,
    /// whose records list no entries, and 2 a pair index (two keys, of three
    /// answers and one).
    fn with_entries(
        edited: usize,
        capped: &[NodeId],
        edit: impl Fn(&mut Vec<(Vec<NodeId>, Vec<NodeId>)>),
    ) -> Vec<u8> {
        let (g, schema) = toy();
        let indices = AccessIndexSet::build(&g, &schema);
        let mut w = SectionWriter::new();
        w.put_u32(indices.len() as u32);
        for (id, index) in indices.iter() {
            w.put_u64(index.cap() as u64);
            let capped = if id.index() == edited { capped } else { &[] };
            w.put_u32(capped.len() as u32);
            capped.iter().for_each(|v| w.put_u32(v.0));
            let mut entries = match index.constraint().source_len() {
                0 | 1 => Vec::new(),
                _ => owned_entries(index),
            };
            if id.index() == edited {
                edit(&mut entries);
            }
            w.put_u32(entries.len() as u32);
            for list in entries.iter().flat_map(|(key, answers)| [key, answers]) {
                w.put_u32(list.len() as u32);
                list.iter().for_each(|v| w.put_u32(v.0));
            }
        }
        let mut writer = SnapshotWriter::new();
        encode_graph(&g, &mut writer);
        writer.add_section(Section::Schema, encode_schema(&schema).into_bytes());
        writer.add_section(Section::Indices, w.into_bytes());
        let mut buf = Vec::new();
        writer.write_to(&mut buf).unwrap();
        buf
    }

    /// An index's entries as owned id lists, in key order.
    fn owned_entries(index: &ConstraintIndex) -> Vec<(Vec<NodeId>, Vec<NodeId>)> {
        let entries = index.entries();
        entries
            .map(|(key, answers)| (key.to_vec(), answers.to_vec()))
            .collect()
    }

    #[test]
    fn index_keys_must_come_in_strictly_increasing_order() {
        // Unedited, the hand-written section is what `write_snapshot` writes.
        let (g, schema) = toy();
        let mut written = Vec::new();
        write_snapshot(&g, &AccessIndexSet::build(&g, &schema), &mut written).unwrap();
        assert_eq!(with_entries(2, &[], |_| {}), written);
        assert!(read_snapshot(std::io::Cursor::new(written)).is_ok());

        let duplicated = with_entries(2, &[], |entries| entries[1] = entries[0].clone());
        let swapped = with_entries(2, &[], |entries| entries.swap(0, 1));
        for (what, bytes) in [
            ("a duplicated key", duplicated),
            ("a swapped pair", swapped),
        ] {
            match read_snapshot(std::io::Cursor::new(bytes)) {
                Err(SnapshotError::Corrupt { section, message }) => {
                    assert_eq!(section, Section::Indices, "{what}");
                    assert!(message.contains("strictly increasing"), "{what}: {message}");
                }
                other => panic!("{what} must be refused as corrupt, got {other:?}"),
            }
        }
    }

    /// A global or unary record is its cap alone: the entries format 1
    /// wrote for it (the label bucket, or the unary keys and their
    /// adjacency segments), any other entry and any capped target are
    /// refused as corrupt with a word to recompile. A pair record is
    /// checked entry by entry: a key of another length, a key without
    /// answers, an answer that is not a neighbour of every node of its key
    /// and a capped target without the target label are refused.
    #[test]
    fn malformed_unary_entries_are_refused() {
        let (g, schema) = toy();
        let built = AccessIndexSet::build(&g, &schema);
        let format_1 = |id| owned_entries(built.get(crate::ConstraintId(id)).unwrap());
        assert_eq!(format_1(1).len(), 3, "three movies with actors");
        let first = |label: &str| {
            *g.nodes_with_label(g.interner().get(label).unwrap())
                .first()
                .unwrap()
        };
        let movies = g.nodes_with_label(g.interner().get("movie").unwrap());
        let lone = *movies.last().unwrap();
        let cases = [
            (
                "the unary entries format 1 wrote",
                with_entries(1, &[], |entries| *entries = format_1(1)),
                "lists entries, but its entries are the graph's; recompile the snapshot",
            ),
            (
                "one unary entry",
                with_entries(1, &[], |entries| entries.push(format_1(1)[0].clone())),
                "the unary index of",
            ),
            (
                "a unary target listed as capped",
                with_entries(1, &[first("actor")], |_| {}),
                "lists capped targets, but it never truncates; recompile the snapshot",
            ),
            (
                "the global key format 1 wrote",
                with_entries(0, &[], |entries| *entries = format_1(0)),
                "the global index of",
            ),
            (
                "a capped global index",
                with_entries(0, &[first("year")], |_| {}),
                "lists capped targets",
            ),
            (
                "an empty pair key",
                with_entries(2, &[], |entries| entries[0].0.clear()),
                "index key of 0 ids",
            ),
            (
                "a pair answer that is not a neighbour of its key",
                with_entries(2, &[], |entries| entries[0].1.push(lone)),
                "is not a neighbour of",
            ),
            (
                "a pair key without answers",
                with_entries(2, &[], |entries| entries[0].1.clear()),
                "has no answers",
            ),
            (
                "a capped pair target without the target label",
                with_entries(2, &[first("actor")], |_| {}),
                "does not carry the target label",
            ),
        ];
        for (what, bytes, wording) in cases {
            match read_snapshot(std::io::Cursor::new(bytes)) {
                Err(SnapshotError::Corrupt { section, message }) => {
                    assert_eq!(section, Section::Indices, "{what}");
                    assert!(message.contains(wording), "{what}: {message}");
                }
                other => panic!("{what} must be refused as corrupt, got {other:?}"),
            }
        }
        // A capped target of a pair index carrying the target label is
        // taken as persisted.
        let movie = first("movie");
        let bundle = read_snapshot(std::io::Cursor::new(with_entries(2, &[movie], |_| {})));
        let pair = bundle.unwrap().indices;
        assert!(pair.get(crate::ConstraintId(2)).unwrap().is_truncated());
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

    #[test]
    fn answer_label_mismatch_is_rejected() {
        let (g, schema) = toy();
        let indices = AccessIndexSet::build(&g, &schema);
        let mut buf = Vec::new();
        write_snapshot(&g, &indices, &mut buf).unwrap();
        // Locate the indices payload and flip an id inside it, then fix the
        // checksum so the structural validation (not the checksum) trips.
        let archive = SnapshotArchive::from_bytes(buf.clone()).unwrap();
        let (_, range) = archive
            .sections()
            .find(|(s, _)| *s == Section::Indices)
            .unwrap();
        let mut damaged = buf.clone();
        // Byte 12 sits in the first index's capped/entry header region; a
        // wild edit may hit several fields, so only assert typed failure.
        damaged[range.start + 12] ^= 0x40;
        let entry_at = (0..)
            .map(|i| 16 + i * 28)
            .find(|&at| {
                u32::from_le_bytes(damaged[at..at + 4].try_into().unwrap()) == Section::Indices.id()
            })
            .unwrap();
        let fixed = bgpq_graph::io::snapshot::checksum(&damaged[range.clone()]);
        damaged[entry_at + 20..entry_at + 28].copy_from_slice(&fixed.to_le_bytes());
        let err = read_snapshot(std::io::Cursor::new(damaged)).unwrap_err();
        match err {
            SnapshotError::Corrupt { section, .. } => assert_eq!(section, Section::Indices),
            other => panic!("expected a corrupt-indices error, got {other}"),
        }
    }
}
