//! Shared dataset plumbing of the subcommands: format detection, loading,
//! and `open_input`, the one place that decides where a command's graph,
//! schema and indices come from.
//!
//! Format resolution sniffs the file content first: a `.bgpq` snapshot is
//! recognized by its magic bytes no matter what the file is called, so
//! renamed or extensionless snapshots still load through the binary path
//! (and text datasets can never be mis-parsed as snapshots). The extension
//! only breaks the tie for the line-oriented text formats, which have no
//! magic.

use crate::args::Args;
use crate::commands::{discovery_config, resolve_scenario, scenario_config, SNAPSHOT_FLAG};
use crate::scenario::{Scenario, ScenarioConfig};
use bgpq_access::snapshot::decode_bundle;
use bgpq_engine::{discover_schema, AccessIndexSet, AccessSchema, Graph};
use bgpq_graph::io::snapshot::{Section, SnapshotArchive};
use bgpq_graph::io::{
    load_edge_list, load_graph, load_graph_snapshot, load_jsonl, sniff_snapshot,
    DEFAULT_EDGE_LIST_LABEL,
};
use bgpq_workload::stream_graph_counted;
use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Instant;

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
            if archive.contains(Section::Schema) {
                let bundle = decode_bundle(&archive).map_err(annotate_snap)?;
                (bundle.graph, Some((bundle.schema, bundle.indices)))
            } else {
                drop(archive);
                (load_graph_snapshot(path).map_err(annotate_snap)?, None)
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

/// Resolves a command's dataset path: the positional path (with content
/// sniffing and the `--format` override) or `--snapshot FILE`, which forces
/// the binary reader. Exactly one must be given.
pub(crate) fn dataset_source(args: &Args) -> Result<(&Path, Option<Format>), Box<dyn Error>> {
    match (args.flag(SNAPSHOT_FLAG), args.positional(0)) {
        (Some(_), Some(_)) => Err("give either a dataset path or --snapshot FILE, not both".into()),
        (Some(snap), None) => Ok((Path::new(snap), Some(Format::Snapshot))),
        (None, Some(path)) => Ok((Path::new(path), parse_format(args)?)),
        (None, None) => Err("missing dataset (positional path or --snapshot FILE)".into()),
    }
}

/// Resolves the optional `--format` flag.
pub(crate) fn parse_format(args: &Args) -> Result<Option<Format>, Box<dyn Error>> {
    match args.flag("format") {
        None => Ok(None),
        Some(name) => Format::from_name(name).map(Some).ok_or_else(|| {
            format!("invalid --format {name:?} (text, jsonl, edges or snapshot)").into()
        }),
    }
}

/// Where a command's graph came from.
pub(crate) enum GraphSource {
    /// A dataset file, read as the given format.
    File(PathBuf, Format),
    /// A built-in scenario streamed into the graph builder (`--gen`).
    Generated {
        /// The scenario.
        scenario: Scenario,
        /// Its scale, seed and skew knobs.
        config: ScenarioConfig,
        /// Records the generator streamed.
        records: u64,
    },
}

impl fmt::Display for GraphSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphSource::File(path, _) => write!(f, "{}", path.display()),
            GraphSource::Generated { scenario, .. } => write!(f, "gen:{scenario}"),
        }
    }
}

/// Where a command's schema came from.
pub(crate) enum SchemaSource {
    /// Embedded in a compiled snapshot, together with its indices.
    Embedded,
    /// Read from `--schema FILE`.
    File(PathBuf),
    /// Discovered on the graph under the discovery flags.
    Discovered,
}

impl fmt::Display for SchemaSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaSource::Embedded => f.write_str("embedded in snapshot"),
            SchemaSource::File(path) => write!(f, "from {}", path.display()),
            SchemaSource::Discovered => f.write_str("discovered"),
        }
    }
}

/// A command's resolved input: the graph, its schema and its indices.
pub(crate) struct Input {
    /// The data graph.
    pub(crate) graph: Graph,
    /// Where the graph came from.
    pub(crate) source: GraphSource,
    /// Time spent loading or generating the graph.
    pub(crate) load_nanos: u64,
    /// The access schema.
    pub(crate) schema: AccessSchema,
    /// Where the schema came from.
    pub(crate) schema_source: SchemaSource,
    /// The indices: embedded in the snapshot, or built here when asked for.
    pub(crate) indices: Option<AccessIndexSet>,
    /// Time the index build took; `None` when nothing was built.
    pub(crate) index_nanos: Option<u64>,
}

impl Input {
    /// `SOURCE: N nodes, E edges; schema: K constraints (ORIGIN)`, the input
    /// line of `query`, `serve` and `workload`.
    pub(crate) fn summary(&self) -> String {
        format!(
            "{}: {} nodes, {} edges; schema: {} constraints ({})",
            self.source,
            self.graph.live_node_count(),
            self.graph.edge_count(),
            self.schema.len(),
            self.schema_source
        )
    }
}

/// The front door of every command that needs a graph and its schema.
///
/// The graph comes from the positional path, `--snapshot FILE`, or `--gen
/// SCENARIO` (only for the commands that declare that flag). The schema and
/// indices come from the snapshot when it embeds them; otherwise the schema
/// is read from `--schema FILE` or discovered, and the indices are built
/// with `index_cap` combinations per target node when it is `Some`.
pub(crate) fn open_input(args: &Args, index_cap: Option<usize>) -> Result<Input, Box<dyn Error>> {
    let started = Instant::now();
    let (graph, source, embedded) = match args.flag("gen") {
        Some(name) => {
            if args.positional(0).is_some() || args.flag(SNAPSHOT_FLAG).is_some() {
                return Err("--gen conflicts with a dataset path or --snapshot".into());
            }
            let scenario = resolve_scenario(name)?;
            let config = scenario_config(args)?;
            // Records go straight from the generator into the graph
            // builder, never through a Vec or a dataset file.
            let (graph, records) = stream_graph_counted(scenario, &config);
            let source = GraphSource::Generated {
                scenario,
                config,
                records,
            };
            (graph, source, None)
        }
        None => {
            let (path, format) = dataset_source(args)?;
            let label = args.flag("label").unwrap_or(default_edge_label());
            let loaded = load_dataset_full(path, format, label)?;
            let source = GraphSource::File(path.to_path_buf(), loaded.format);
            (loaded.graph, source, loaded.embedded)
        }
    };
    let load_nanos = started.elapsed().as_nanos() as u64;

    let (schema, schema_source, indices) = match (embedded, args.flag("schema")) {
        (Some(_), Some(_)) => {
            return Err(format!(
                "--schema conflicts with the schema embedded in {source}; \
                 use the original dataset to apply a different schema"
            )
            .into());
        }
        (Some((schema, indices)), None) => (schema, SchemaSource::Embedded, Some(indices)),
        (None, Some(path)) => {
            let mut interner = graph.interner().clone();
            let schema = bgpq_access::load_schema(path, &mut interner)
                .map_err(|e| format!("{path}: {e}"))?;
            (schema, SchemaSource::File(PathBuf::from(path)), None)
        }
        (None, None) => {
            let schema = discover_schema(&graph, &discovery_config(args)?);
            (schema, SchemaSource::Discovered, None)
        }
    };
    let (indices, index_nanos) = match (indices, index_cap) {
        (None, Some(cap)) => {
            let started = Instant::now();
            let indices = AccessIndexSet::build_with_cap(&graph, &schema, cap);
            (Some(indices), Some(started.elapsed().as_nanos() as u64))
        }
        (indices, _) => (indices, None),
    };
    Ok(Input {
        graph,
        source,
        load_nanos,
        schema,
        schema_source,
        indices,
        index_nanos,
    })
}
