//! `bgpq compile` — compile a dataset into a `.bgpq` binary snapshot with
//! its access schema and pre-built indices embedded.
//!
//! This is the paper's one-time preprocessing phase made literal: parse the
//! text dataset once, discover (or load) the schema once, build the indices
//! once, and persist all three. Every later `bgpq query --snapshot` (or
//! `load`/`index`/`serve-demo`) bulk-loads the result without re-paying any
//! of those costs.

use super::{
    dataset_source, discovery_config, fmt_nanos, knob_summary, resolve_scenario, scenario_config,
    DISCOVERY_FLAGS, SCENARIO_FLAGS, SIMPLE_SWITCH, SNAPSHOT_FLAG,
};
use crate::args::Args;
use crate::dataset::{
    default_edge_label, load_dataset_full, load_or_discover_schema, Format, LoadedDataset,
};
use bgpq_access::DEFAULT_MAX_COMBINATIONS_PER_NODE;
use bgpq_engine::{save_snapshot, AccessIndexSet};
use bgpq_workload::stream_graph_counted;
use std::error::Error;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const USAGE: &str = "USAGE: bgpq compile <dataset|--gen SCENARIO> --out FILE.bgpq
                     [--schema FILE] [--cap N] [discovery flags]
                     [--format text|jsonl|edges|snapshot] [--label NAME]
                     [--scale N] [--seed N] [--zipf S] [--hot-fraction F]
                     [--domain D]

Loads the dataset, obtains an access schema (--schema FILE or discovery),
builds one index per constraint (--cap bounds the combinations materialized
per target node) and writes graph + schema + indices into one binary
snapshot. Querying the snapshot later re-pays none of these costs.
With --gen SCENARIO the built-in generator streams records straight into
the graph builder — no dataset file and no record buffer, so compiling a
--scale 1000000 snapshot is bounded by the graph itself, not the stream.
Recompiling an existing snapshot (snapshot input, no --schema) reuses its
embedded schema and indices verbatim.";

/// Runs the subcommand.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let mut value_flags = vec!["format", "label", "schema", "snapshot", "out", "cap", "gen"];
    value_flags.extend_from_slice(&DISCOVERY_FLAGS);
    value_flags.extend_from_slice(&SCENARIO_FLAGS);
    let args = Args::parse(argv, &value_flags, &[SIMPLE_SWITCH, "help"])?;
    if args.switch("help") {
        writeln!(out, "{USAGE}")?;
        return Ok(());
    }
    let out_path = Path::new(
        args.flag("out")
            .ok_or("missing --out FILE.bgpq (see `bgpq compile --help`)")?,
    );
    let cap: usize = args.flag_or("cap", DEFAULT_MAX_COMBINATIONS_PER_NODE)?;
    let schema_path = args.flag("schema").map(Path::new);

    let (loaded, source_display) = match args.flag("gen") {
        Some(name) => {
            if args.positional(0).is_some() || args.flag(SNAPSHOT_FLAG).is_some() {
                return Err("--gen conflicts with a dataset path or --snapshot".into());
            }
            let scenario = resolve_scenario(name)?;
            let config = scenario_config(&args)?;
            let started = Instant::now();
            // Streaming path: records go straight from the generator into
            // the graph builder, never through a Vec or a dataset file.
            let (graph, records) = stream_graph_counted(scenario, &config);
            writeln!(
                out,
                "generated {} graph (scale {}, seed {}{}): {} nodes, {} edges \
                 streamed from {} records in {}",
                scenario,
                config.scale,
                config.seed,
                knob_summary(&config),
                graph.live_node_count(),
                graph.edge_count(),
                records,
                fmt_nanos(started.elapsed().as_nanos() as u64)
            )?;
            let loaded = LoadedDataset {
                graph,
                format: Format::Text,
                embedded: None,
            };
            (loaded, format!("gen:{scenario}"))
        }
        None => {
            let (path, format) = dataset_source(&args)?;
            let label = args.flag("label").unwrap_or(default_edge_label());
            let started = Instant::now();
            let loaded = load_dataset_full(path, format, label)?;
            writeln!(
                out,
                "dataset {} ({}): {} nodes, {} edges, loaded in {}",
                path.display(),
                loaded.format,
                loaded.graph.live_node_count(),
                loaded.graph.edge_count(),
                fmt_nanos(started.elapsed().as_nanos() as u64)
            )?;
            let display = path.display().to_string();
            (loaded, display)
        }
    };

    let (graph, schema, indices, source) = match (loaded.embedded, schema_path) {
        (Some(_), Some(_)) => {
            return Err(
                "--schema conflicts with a snapshot input's embedded schema; \
                 recompile from the original dataset instead"
                    .into(),
            );
        }
        (Some((schema, indices)), None) => (loaded.graph, schema, indices, "reused from snapshot"),
        (None, schema_path) => {
            let schema =
                load_or_discover_schema(&loaded.graph, schema_path, &discovery_config(&args)?)?;
            let started = Instant::now();
            let indices = AccessIndexSet::build_with_cap(&loaded.graph, &schema, cap);
            let build_nanos = started.elapsed().as_nanos() as u64;
            writeln!(
                out,
                "schema: {} constraints ({}); indices built in {}",
                schema.len(),
                match schema_path {
                    Some(p) => format!("from {}", p.display()),
                    None => "discovered".into(),
                },
                fmt_nanos(build_nanos)
            )?;
            (loaded.graph, schema, indices, "freshly built")
        }
    };

    let started = Instant::now();
    save_snapshot(&graph, &indices, out_path)
        .map_err(|e| format!("{}: {e}", out_path.display()))?;
    let write_nanos = started.elapsed().as_nanos() as u64;
    let bytes = std::fs::metadata(out_path).map(|m| m.len()).unwrap_or(0);
    writeln!(
        out,
        "compiled {} -> {}: {} constraints, |index| = {} node ids ({source}), \
         {} bytes written in {}",
        source_display,
        out_path.display(),
        schema.len(),
        indices.total_size(),
        bytes,
        fmt_nanos(write_nanos)
    )?;
    Ok(())
}
