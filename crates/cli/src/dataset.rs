//! Shared dataset plumbing of the subcommands: format detection, loading,
//! and schema acquisition (load a serialized schema or discover one).
//!
//! Format resolution sniffs the file content first: a `.bgpq` snapshot is
//! recognized by its magic bytes no matter what the file is called, so
//! renamed or extensionless snapshots still load through the binary path
//! (and text datasets can never be mis-parsed as snapshots). The extension
//! only breaks the tie for the line-oriented text formats, which have no
//! magic.

use bgpq_access::snapshot::decode_bundle;
use bgpq_engine::{discover_schema, AccessIndexSet, AccessSchema, DiscoveryConfig, Graph};
use bgpq_graph::io::snapshot::{decode_graph, Section, SnapshotArchive};
use bgpq_graph::io::{
    load_edge_list, load_graph, load_jsonl, sniff_snapshot, DEFAULT_EDGE_LIST_LABEL,
};
use std::error::Error;
use std::fmt;
use std::path::Path;

/// The dataset file formats the CLI can ingest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// `n`/`e` typed records (whitespace- or tab-separated): `.tsv`, `.txt`,
    /// `.graph`.
    Text,
    /// JSON lines: `.jsonl`, `.ndjson`.
    Jsonl,
    /// Plain `src dst` edge list: `.el`, `.edges`.
    EdgeList,
    /// Binary `.bgpq` snapshot container (detected by magic bytes).
    Snapshot,
}

impl Format {
    /// Resolves a `--format` value.
    pub fn from_name(name: &str) -> Option<Format> {
        match name {
            "text" | "tsv" => Some(Format::Text),
            "jsonl" | "ndjson" => Some(Format::Jsonl),
            "edges" | "edge-list" | "el" => Some(Format::EdgeList),
            "snapshot" | "bgpq" => Some(Format::Snapshot),
            _ => None,
        }
    }

    /// Guesses the format from a file extension (text when unknown). Only a
    /// fallback: [`Format::resolve`] checks the snapshot magic bytes first.
    pub fn detect(path: &Path) -> Format {
        match path.extension().and_then(|e| e.to_str()) {
            Some("jsonl" | "ndjson") => Format::Jsonl,
            Some("el" | "edges") => Format::EdgeList,
            Some("bgpq") => Format::Snapshot,
            _ => Format::Text,
        }
    }

    /// Resolves the format of `path` by content: snapshot when the file
    /// starts with the `.bgpq` magic bytes, otherwise by extension.
    pub fn resolve(path: &Path) -> std::io::Result<Format> {
        if sniff_snapshot(path)? {
            Ok(Format::Snapshot)
        } else {
            Ok(Format::detect(path))
        }
    }

    /// The CLI name of the format.
    pub fn name(self) -> &'static str {
        match self {
            Format::Text => "text",
            Format::Jsonl => "jsonl",
            Format::EdgeList => "edges",
            Format::Snapshot => "snapshot",
        }
    }
}

impl fmt::Display for Format {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A loaded dataset: the graph, the format it arrived in, and — when the
/// source was a compiled snapshot — the schema and indices embedded in it.
pub struct LoadedDataset {
    /// The data graph.
    pub graph: Graph,
    /// The format the file was read as.
    pub format: Format,
    /// Schema and pre-built indices carried by a compiled snapshot, absent
    /// for line-oriented formats and graph-only snapshots.
    pub embedded: Option<(AccessSchema, AccessIndexSet)>,
}

/// Loads a dataset, picking the reader from `format` (or content sniffing +
/// extension when `None`). `edge_label` is the implicit node label of edge
/// lists. Snapshot inputs surface their embedded schema and indices.
pub fn load_dataset_full(
    path: &Path,
    format: Option<Format>,
    edge_label: &str,
) -> Result<LoadedDataset, Box<dyn Error>> {
    let annotate_io =
        |e: std::io::Error| -> Box<dyn Error> { format!("{}: {e}", path.display()).into() };
    let format = match format {
        Some(f) => f,
        None => Format::resolve(path).map_err(annotate_io)?,
    };
    let annotate = |e: bgpq_engine::GraphError| -> Box<dyn Error> {
        format!("{}: {e}", path.display()).into()
    };
    let (graph, embedded) = match format {
        Format::Text => (load_graph(path).map_err(annotate)?, None),
        Format::Jsonl => (load_jsonl(path).map_err(annotate)?, None),
        Format::EdgeList => (load_edge_list(path, edge_label).map_err(annotate)?, None),
        Format::Snapshot => {
            let annotate_snap = |e: bgpq_graph::SnapshotError| -> Box<dyn Error> {
                format!("{}: {e}", path.display()).into()
            };
            let archive = SnapshotArchive::open(path).map_err(annotate_snap)?;
            if archive.section(Section::Schema).is_some() {
                let bundle = decode_bundle(&archive).map_err(annotate_snap)?;
                (bundle.graph, Some((bundle.schema, bundle.indices)))
            } else {
                (decode_graph(&archive).map_err(annotate_snap)?, None)
            }
        }
    };
    Ok(LoadedDataset {
        graph,
        format,
        embedded,
    })
}

/// Loads a dataset, discarding any embedded schema/indices (callers that
/// only need the graph).
pub fn load_dataset(
    path: &Path,
    format: Option<Format>,
    edge_label: &str,
) -> Result<(Graph, Format), Box<dyn Error>> {
    let loaded = load_dataset_full(path, format, edge_label)?;
    Ok((loaded.graph, loaded.format))
}

/// The implicit node label used for edge lists unless `--label` overrides
/// it.
pub fn default_edge_label() -> &'static str {
    DEFAULT_EDGE_LIST_LABEL
}

/// Obtains the access schema for `graph`: loads `--schema FILE` when given,
/// otherwise runs discovery with `config`.
pub fn load_or_discover_schema(
    graph: &Graph,
    schema_path: Option<&Path>,
    config: &DiscoveryConfig,
) -> Result<AccessSchema, Box<dyn Error>> {
    match schema_path {
        Some(path) => {
            let mut interner = graph.interner().clone();
            bgpq_access::load_schema(path, &mut interner)
                .map_err(|e| format!("{}: {e}", path.display()).into())
        }
        None => Ok(discover_schema(graph, config)),
    }
}
