//! `bgpq load` — parse a dataset and print its statistics.

use crate::args::Args;
use crate::dataset::{dataset_source, default_edge_label, load_dataset_full, Format};
use bgpq_engine::Graph;
use std::error::Error;
use std::io::Write;
use std::path::Path;

const USAGE: &str = "USAGE: bgpq load <dataset|--snapshot FILE>
                     [--format text|jsonl|edges|snapshot] [--label NAME]

Parses the dataset (reporting malformed lines with their line number) and
prints node/edge counts, the label histogram, degree statistics and the mix
of attribute value types. Snapshots are recognized by their magic bytes
regardless of extension; a compiled snapshot additionally reports its
embedded schema and index sizes. --label sets the implicit node label of
edge lists.";

/// Runs the subcommand.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let args = Args::parse(argv, &["format", "label", "snapshot"], &["help"])?;
    if args.switch("help") {
        writeln!(out, "{USAGE}")?;
        return Ok(());
    }
    let (path, format) = dataset_source(&args)?;
    let label = args.flag("label").unwrap_or(default_edge_label());
    let loaded = load_dataset_full(path, format, label)?;
    report(&loaded.graph, path, loaded.format, out)?;
    if let Some((schema, indices)) = &loaded.embedded {
        writeln!(
            out,
            "  snapshot: {} constraints embedded, |index| = {} node ids",
            schema.len(),
            indices.total_size()
        )?;
    }
    Ok(())
}

fn report(
    graph: &Graph,
    path: &Path,
    format: Format,
    out: &mut dyn Write,
) -> Result<(), Box<dyn Error>> {
    let stats = graph.stats();
    writeln!(out, "dataset {} ({format})", path.display())?;
    writeln!(
        out,
        "  nodes: {}   edges: {}   distinct labels: {}",
        stats.node_count,
        stats.edge_count,
        stats.label_counts.len()
    )?;
    writeln!(
        out,
        "  degree: max {}   avg {:.2}",
        stats.max_degree, stats.avg_degree
    )?;

    let mut labels: Vec<(String, usize)> = stats
        .label_counts
        .iter()
        .map(|(&l, &count)| (graph.interner().name_or_placeholder(l), count))
        .collect();
    labels.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    writeln!(out, "  labels:")?;
    for (name, count) in labels {
        writeln!(out, "    {name:<16} {count}")?;
    }

    let mut by_type: [(&str, usize); 5] = [
        ("null", 0),
        ("bool", 0),
        ("int", 0),
        ("float", 0),
        ("str", 0),
    ];
    for v in graph.nodes().filter(|&v| graph.is_live(v)) {
        let name = graph.value(v).type_name();
        if let Some(slot) = by_type.iter_mut().find(|(n, _)| *n == name) {
            slot.1 += 1;
        }
    }
    let mix: Vec<String> = by_type
        .iter()
        .filter(|(_, c)| *c > 0)
        .map(|(n, c)| format!("{n} {c}"))
        .collect();
    writeln!(out, "  values: {}", mix.join("   "))?;
    Ok(())
}
