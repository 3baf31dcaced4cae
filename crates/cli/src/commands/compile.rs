//! `bgpq compile` — compile a dataset into a `.bgpq` binary snapshot with
//! its access schema and pre-built indices embedded.
//!
//! This is the paper's one-time preprocessing phase made literal: parse the
//! text dataset once, discover (or load) the schema once, build the indices
//! once, and persist all three. Every later `bgpq query --snapshot` (or
//! `load`/`index`/`serve-demo`) bulk-loads the result without re-paying any
//! of those costs.

use super::{fmt_nanos, knob_summary, DISCOVERY_FLAGS, SCENARIO_FLAGS, SIMPLE_SWITCH};
use crate::args::Args;
use crate::dataset::{open_input, GraphSource};
use bgpq_access::DEFAULT_MAX_COMBINATIONS_PER_NODE;
use bgpq_engine::save_snapshot;
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
    let input = open_input(&args, Some(cap))?;
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
        None => "reused from snapshot",
    };

    let started = Instant::now();
    save_snapshot(graph, indices, out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
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
