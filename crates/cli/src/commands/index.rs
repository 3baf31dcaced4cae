//! `bgpq index` — build the access indices and report their sizes.

use super::{DISCOVERY_FLAGS, SIMPLE_SWITCH};
use crate::args::Args;
use crate::dataset::open_input;
use bgpq_access::DEFAULT_MAX_COMBINATIONS_PER_NODE;
use std::error::Error;
use std::io::Write;

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
    let input = open_input(&args, Some(DEFAULT_MAX_COMBINATIONS_PER_NODE))?;
    let (graph, indices) = (&input.graph, input.indices.expect("indices requested"));
    match input.index_nanos {
        Some(nanos) => writeln!(
            out,
            "built {} indices over {} in {}",
            indices.len(),
            input.source,
            super::fmt_nanos(nanos)
        )?,
        None => writeln!(
            out,
            "loaded {} indices from snapshot {} (no rebuild)",
            indices.len(),
            input.source
        )?,
    }
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
