//! `bgpq workload` — generate a parameterized query workload manifest from
//! a dataset (or a streamed scenario graph) and its access schema.
//!
//! The generator walks the schema's coverage structure, so every query it
//! flags `bounded` is verified to plan under the schema and every query it
//! flags `unbounded` is verified to be rejected by the planner. The output
//! is a JSON-lines manifest consumable by `bgpq query --workload`.

use super::{knob_summary, DISCOVERY_FLAGS, SCENARIO_FLAGS, SIMPLE_SWITCH};
use crate::args::Args;
use crate::commands::query::parse_semantics;
use crate::dataset::{open_input, GraphSource};
use bgpq_workload::{generate_workload, Shape, Workload, WorkloadConfig};
use std::error::Error;
use std::io::Write;

const USAGE: &str = "USAGE: bgpq workload <dataset|--snapshot FILE|--gen SCENARIO> [--out FILE]
                     [--queries N] [--seed N] [--bounded-fraction F]
                     [--selectivity F|none] [--min-nodes N] [--max-nodes N]
                     [--semantics iso|sim] [--shapes chain=2,star=1,...]
                     [--schema FILE] [discovery flags]
                     [--format text|jsonl|edges|snapshot] [--label NAME]
                     [--scale N] [--zipf S] [--hot-fraction F] [--domain D]

Generates N parameterized pattern queries against the dataset's access
schema (embedded in a snapshot, loaded from --schema, or discovered) and
writes a JSON-lines manifest: one query per line with its shape, semantics,
boundedness flag, selectivity target and pattern text. Bounded queries are
verified to plan under the schema; unbounded queries are verified to be
rejected by the planner.

With --gen SCENARIO the graph is streamed from the built-in generator
instead of a file; --seed then drives both the graph and the workload, so
one seed pins the whole benchmark input. --shapes takes comma-separated
shape names with optional integer weights (chain, star, cycle, tree).
--selectivity none drops the root value predicates entirely.";

/// Runs the subcommand.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let mut value_flags = vec![
        "format",
        "label",
        "schema",
        "snapshot",
        "out",
        "gen",
        "queries",
        "bounded-fraction",
        "selectivity",
        "min-nodes",
        "max-nodes",
        "semantics",
        "shapes",
    ];
    value_flags.extend_from_slice(&DISCOVERY_FLAGS);
    value_flags.extend_from_slice(&SCENARIO_FLAGS);
    let args = Args::parse(argv, &value_flags, &[SIMPLE_SWITCH, "help"])?;
    if args.switch("help") {
        writeln!(out, "{USAGE}")?;
        return Ok(());
    }

    let defaults = WorkloadConfig::default();
    let config = WorkloadConfig {
        queries: args.flag_or("queries", defaults.queries)?,
        seed: args.flag_or("seed", defaults.seed)?,
        bounded_fraction: args.flag_or("bounded-fraction", defaults.bounded_fraction)?,
        selectivity: match args.flag("selectivity") {
            None => defaults.selectivity,
            Some("none") => None,
            Some(raw) => Some(
                raw.parse::<f64>()
                    .ok()
                    .filter(|s| (0.0..=1.0).contains(s))
                    .ok_or_else(|| format!("invalid --selectivity {raw:?} (0..=1 or none)"))?,
            ),
        },
        min_nodes: args.flag_or("min-nodes", defaults.min_nodes)?,
        max_nodes: args.flag_or("max-nodes", defaults.max_nodes)?,
        semantics: parse_semantics(args.flag("semantics"))?,
        shape_weights: match args.flag("shapes") {
            None => defaults.shape_weights,
            Some(raw) => parse_shapes(raw)?,
        },
    };
    if !(0.0..=1.0).contains(&config.bounded_fraction) {
        return Err("--bounded-fraction expects a value in [0, 1]".into());
    }

    let input = open_input(&args, None)?;
    let (graph, schema) = (&input.graph, &input.schema);
    match &input.source {
        GraphSource::Generated {
            scenario,
            config: scenario_config,
            ..
        } => writeln!(
            out,
            "generated {} graph (scale {}, seed {}{}): {} nodes, {} edges; \
             schema: {} constraints",
            scenario,
            scenario_config.scale,
            scenario_config.seed,
            knob_summary(scenario_config),
            graph.live_node_count(),
            graph.edge_count(),
            schema.len()
        )?,
        GraphSource::File(..) => writeln!(out, "dataset {}", input.summary())?,
    }
    let workload = generate_workload(graph, schema, &config)?;

    let manifest = workload.to_manifest();
    let written = match args.flag("out") {
        Some(path) => {
            std::fs::write(path, &manifest).map_err(|e| format!("{path}: {e}"))?;
            format!(" -> {path} ({} bytes)", manifest.len())
        }
        None => {
            out.write_all(manifest.as_bytes())?;
            String::new()
        }
    };

    let [chains, stars, cycles, trees] = workload.shape_counts();
    writeln!(
        out,
        "workload over {}: {} queries ({} bounded / {} unbounded; \
         chain {chains}, star {stars}, cycle {cycles}, tree {trees}), seed {}{written}",
        input.source,
        workload.queries.len(),
        workload.bounded_count(),
        workload.queries.len() - workload.bounded_count(),
        config.seed,
    )?;
    summarize(&workload, out)?;
    Ok(())
}

/// Parses `--shapes chain=2,star,cycle=0` into [`Shape::ALL`]-indexed
/// weights. Bare names weigh 1; omitted shapes weigh 0.
fn parse_shapes(raw: &str) -> Result<[u32; 4], String> {
    let mut weights = [0u32; 4];
    for part in raw.split(',') {
        let (name, weight) = match part.split_once('=') {
            Some((n, w)) => (
                n.trim(),
                w.trim()
                    .parse::<u32>()
                    .map_err(|_| format!("invalid shape weight {w:?} in --shapes"))?,
            ),
            None => (part.trim(), 1),
        };
        let shape = Shape::from_name(name)
            .ok_or_else(|| format!("unknown shape {name:?} (chain, star, cycle or tree)"))?;
        let i = Shape::ALL.iter().position(|&s| s == shape).unwrap();
        weights[i] += weight;
    }
    if weights.iter().all(|&w| w == 0) {
        return Err("--shapes needs at least one positive weight".into());
    }
    Ok(weights)
}

/// Prints the aggregate selectivity and fragment-bound lines.
fn summarize(workload: &Workload, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let achieved: Vec<f64> = workload
        .queries
        .iter()
        .filter_map(|q| q.selectivity_achieved)
        .collect();
    if !achieved.is_empty() {
        writeln!(
            out,
            "selectivity: achieved mean {:.3} over {} predicated roots",
            achieved.iter().sum::<f64>() / achieved.len() as f64,
            achieved.len()
        )?;
    }
    let bounds: Vec<u64> = workload
        .queries
        .iter()
        .filter_map(|q| q.worst_case_nodes)
        .collect();
    if !bounds.is_empty() {
        writeln!(
            out,
            "fragment bound: worst-case fetch mean {} nodes, max {} (over {} bounded plans)",
            bounds.iter().sum::<u64>() / bounds.len() as u64,
            bounds.iter().max().unwrap(),
            bounds.len()
        )?;
    }
    Ok(())
}
