//! `bgpq index` — build the access indices and report their sizes.

use super::{dataset_source, discovery_config, DISCOVERY_FLAGS, SIMPLE_SWITCH};
use crate::args::Args;
use crate::dataset::{default_edge_label, load_dataset_full, load_or_discover_schema};
use bgpq_engine::AccessIndexSet;
use std::error::Error;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const USAGE: &str = "USAGE: bgpq index <dataset|--snapshot FILE> [--schema FILE]
                     [discovery flags] [--format text|jsonl|edges|snapshot]
                     [--label NAME]

Builds one index per access constraint (from --schema FILE, or freshly
discovered) and reports per-index key counts, sizes and maximum observed
cardinality, plus the paper's |index| / |G| ratio. A compiled snapshot input
reports its embedded indices without rebuilding them.";

/// Runs the subcommand.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let mut value_flags = vec!["format", "label", "schema", "snapshot"];
    value_flags.extend_from_slice(&DISCOVERY_FLAGS);
    let args = Args::parse(argv, &value_flags, &[SIMPLE_SWITCH, "help"])?;
    if args.switch("help") {
        writeln!(out, "{USAGE}")?;
        return Ok(());
    }
    let (path, format) = dataset_source(&args)?;
    let label = args.flag("label").unwrap_or(default_edge_label());
    let loaded = load_dataset_full(path, format, label)?;
    let schema_path = args.flag("schema").map(Path::new);

    let (graph, indices) = match (loaded.embedded, schema_path) {
        (Some(_), Some(_)) => {
            return Err(
                "--schema conflicts with a snapshot input's embedded schema; \
                 index the original dataset to use a different schema"
                    .into(),
            );
        }
        (Some((_, indices)), None) => {
            writeln!(
                out,
                "loaded {} indices from snapshot {} (no rebuild)",
                indices.len(),
                path.display()
            )?;
            (loaded.graph, indices)
        }
        (None, schema_path) => {
            let schema =
                load_or_discover_schema(&loaded.graph, schema_path, &discovery_config(&args)?)?;
            let started = Instant::now();
            let indices = AccessIndexSet::build(&loaded.graph, &schema);
            let build_nanos = started.elapsed().as_nanos() as u64;
            writeln!(
                out,
                "built {} indices over {} in {}",
                indices.len(),
                path.display(),
                super::fmt_nanos(build_nanos)
            )?;
            (loaded.graph, indices)
        }
    };
    writeln!(
        out,
        "  {:<34} {:>8} {:>10} {:>8}  status",
        "constraint", "keys", "size", "maxcard"
    )?;
    for (id, index) in indices.iter() {
        let constraint = index.constraint();
        let status = match (index.within_bound(), index.is_truncated()) {
            (_, true) => "TRUNCATED",
            (false, _) => "OVER BOUND",
            _ => "ok",
        };
        writeln!(
            out,
            "  {:<34} {:>8} {:>10} {:>8}  {}",
            format!("{id}: {}", constraint.display_with(graph.interner())),
            index.key_count(),
            index.size(),
            index.max_cardinality(),
            status
        )?;
    }
    let g_size = graph.live_node_count() + graph.edge_count();
    let total = indices.total_size();
    writeln!(
        out,
        "total |index| = {} node ids ({:.1}% of |G| = {})",
        total,
        if g_size == 0 {
            0.0
        } else {
            100.0 * total as f64 / g_size as f64
        },
        g_size
    )?;
    Ok(())
}
