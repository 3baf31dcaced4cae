//! `bgpq compile` — compile a dataset into a `.bgpq` binary snapshot with
//! its access schema embedded.
//!
//! This is the paper's one-time preprocessing phase made literal: parse the
//! text dataset once, discover (or load) the schema once, and persist both.
//! Every later `bgpq query --snapshot` (or `load`/`index`/`serve-demo`)
//! bulk-loads the result without re-paying either, and builds the indices,
//! which a bundle does not store, over what it loaded.

use super::{fmt_nanos, knob_summary, DISCOVERY_FLAGS, SCENARIO_FLAGS, SIMPLE_SWITCH};
use crate::args::Args;
use crate::dataset::{open_input, GraphSource};
use bgpq_engine::save_snapshot;
use std::error::Error;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const USAGE: &str = "USAGE: bgpq compile <dataset|--gen SCENARIO> --out FILE.bgpq
                     [--schema FILE] [discovery flags]
                     [--format text|jsonl|edges|snapshot] [--label NAME]
                     [--scale N] [--seed N] [--zipf S] [--hot-fraction F]
                     [--domain D]

Loads the dataset, obtains an access schema (--schema FILE or discovery),
builds one index per constraint to report its size, and writes graph +
schema into one binary snapshot. Querying the snapshot later re-pays
neither parsing nor discovery; its load builds the indices.
With --gen SCENARIO the built-in generator streams records straight into
the graph builder — no dataset file and no record buffer, so compiling a
--scale 1000000 snapshot is bounded by the graph itself, not the stream.
Recompiling an existing snapshot (snapshot input, no --schema) reuses its
embedded schema verbatim.";

/// Runs the subcommand.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let mut value_flags = vec!["format", "label", "schema", "snapshot", "out", "gen"];
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
    let input = open_input(&args, true)?;
    let (graph, schema) = (&input.graph, &input.schema);
    let loaded_in = fmt_nanos(input.load_nanos);
    match &input.source {
        GraphSource::Generated {
            scenario,
            config,
            records,
        } => writeln!(
            out,
            "generated {} graph (scale {}, seed {}{}): {} nodes, {} edges \
             streamed from {} records in {loaded_in}",
            scenario,
            config.scale,
            config.seed,
            knob_summary(config),
            graph.live_node_count(),
            graph.edge_count(),
            records,
        )?,
        GraphSource::File(path, format) => writeln!(
            out,
            "dataset {} ({format}): {} nodes, {} edges, loaded in {loaded_in}",
            path.display(),
            graph.live_node_count(),
            graph.edge_count(),
        )?,
    }
    let indices = input.indices.as_ref().expect("indices requested");
    let built = match input.index_nanos {
        Some(nanos) => {
            writeln!(
                out,
                "schema: {} constraints ({}); indices built in {}",
                schema.len(),
                input.schema_source,
                fmt_nanos(nanos)
            )?;
            "freshly built"
        }
        None => "built at load",
    };

    let started = Instant::now();
    save_snapshot(graph, schema, out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
    let write_nanos = started.elapsed().as_nanos() as u64;
    let bytes = std::fs::metadata(out_path).map(|m| m.len()).unwrap_or(0);
    writeln!(
        out,
        "compiled {} -> {}: {} constraints, |index| = {} node ids ({built}), \
         {} bytes written in {}",
        input.source,
        out_path.display(),
        schema.len(),
        indices.total_size(),
        bytes,
        fmt_nanos(write_nanos)
    )?;
    Ok(())
}
