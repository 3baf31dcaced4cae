//! `bgpq discover` — discover an access schema from a dataset.

use super::{discovery_config, DISCOVERY_FLAGS, SIMPLE_SWITCH};
use crate::args::Args;
use crate::dataset::{default_edge_label, load_dataset, parse_format};
use bgpq_engine::{discover_schema, save_schema, ConstraintKind};
use std::error::Error;
use std::io::Write;
use std::path::Path;

const USAGE: &str = "USAGE: bgpq discover <dataset> [--simple] [--max-global N] [--max-unary N]
                     [--max-pair N] [--max-constraints N] [--out FILE]
                     [--format text|jsonl|edges] [--label NAME]

Runs the four discovery recipes of the paper's Section II (label counts,
fanout bounds, FDs, grouped constraints) and prints the resulting schema.
--simple skips the pair-discovery pass; --out serializes the schema so later
runs can skip discovery (`bgpq query --schema FILE`).";

/// Runs the subcommand.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let mut value_flags = vec!["format", "label", "out"];
    value_flags.extend_from_slice(&DISCOVERY_FLAGS);
    let args = Args::parse(argv, &value_flags, &[SIMPLE_SWITCH, "help"])?;
    if args.switch("help") {
        writeln!(out, "{USAGE}")?;
        return Ok(());
    }
    let path = Path::new(args.require_positional(0, "dataset")?);
    let format = parse_format(&args)?;
    let label = args.flag("label").unwrap_or(default_edge_label());
    let (graph, _) = load_dataset(path, format, label)?;

    let config = discovery_config(&args)?;
    let schema = discover_schema(&graph, &config);
    writeln!(
        out,
        "discovered {} constraints over {} (||A|| = {}, |A| = {})",
        schema.len(),
        path.display(),
        schema.len(),
        schema.total_length()
    )?;
    let kind_name = |k: ConstraintKind| match k {
        ConstraintKind::Global => "global ",
        ConstraintKind::Unary => "unary  ",
        ConstraintKind::General => "general",
    };
    for (id, constraint) in schema.iter_with_ids() {
        writeln!(
            out,
            "  {id}: {} {}",
            kind_name(constraint.kind()),
            constraint.display_with(graph.interner())
        )?;
    }
    if let Some(out_path) = args.flag("out") {
        save_schema(&schema, graph.interner(), out_path)?;
        writeln!(out, "wrote {out_path}")?;
    }
    Ok(())
}
