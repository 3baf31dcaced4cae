//! `bgpq serve-demo` — drive the concurrent server with a scripted mixed
//! read/update workload.

use super::{commit_phases, fmt_nanos, DISCOVERY_FLAGS, SIMPLE_SWITCH};
use crate::args::Args;
use crate::dataset::open_input;
use bgpq_engine::{parse_pattern, Graph, NodeId, PatternBuilder, Predicate, QueryRequest};
use bgpq_pattern::{DetRng, Pattern};
use bgpq_serve::{Server, Update};
use std::collections::HashMap;
use std::error::Error;
use std::io::Write;
use std::time::Instant;

const USAGE: &str = "USAGE: bgpq serve-demo <dataset|--snapshot FILE> [--commits N] [--batch N]
                     [--queries N] [--seed N] [--schema FILE] [--pattern FILE]
                     [discovery flags] [--format text|jsonl|edges|snapshot]
                     [--label NAME]

Loads the dataset into the epoch-versioned server, then alternates scripted
update batches (node/edge inserts, edge removals, occasional node removals)
with read rounds, printing per-commit maintenance costs and closed-loop
query throughput. A compiled snapshot input starts serving from its
embedded schema, over indices built when it loads. Without --pattern a
two-node query over the dataset's most common edge label pair is used.";

/// Runs the subcommand.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let mut value_flags = vec![
        "format", "label", "schema", "snapshot", "pattern", "commits", "batch", "queries", "seed",
    ];
    value_flags.extend_from_slice(&DISCOVERY_FLAGS);
    let args = Args::parse(argv, &value_flags, &[SIMPLE_SWITCH, "help"])?;
    if args.switch("help") {
        writeln!(out, "{USAGE}")?;
        return Ok(());
    }
    let commits: usize = args.flag_or("commits", 5)?;
    let batch: usize = args.flag_or("batch", 8)?;
    let queries: usize = args.flag_or("queries", 100)?;
    let seed: u64 = args.flag_or("seed", 42)?;

    let input = open_input(&args, true)?;
    let (graph, source) = (input.graph, input.source);

    if graph.live_node_count() == 0 {
        return Err(format!("{source}: dataset has no nodes to serve").into());
    }
    let pattern = match args.flag("pattern") {
        Some(pattern_path) => {
            let text = std::fs::read_to_string(pattern_path)
                .map_err(|e| format!("{pattern_path}: {e}"))?;
            parse_pattern(&text, graph.interner().clone())
                .map_err(|e| format!("{pattern_path}: {e}"))?
        }
        None => default_pattern(&graph).ok_or("dataset has no edges; pass --pattern FILE")?,
    };
    let label_names: Vec<String> = graph
        .interner()
        .iter()
        .map(|(_, name)| name.to_string())
        .collect();
    let mut live: Vec<NodeId> = graph.nodes().filter(|&v| graph.is_live(v)).collect();

    writeln!(
        out,
        "serving {}: {} nodes, {} edges, {} constraints; {} commits x {} updates, {} queries/round",
        source,
        graph.live_node_count(),
        graph.edge_count(),
        input.schema.len(),
        commits,
        batch,
        queries
    )?;

    let server = Server::with_indices(graph, input.indices.expect("indices requested"));
    let request = QueryRequest::build(pattern).finish();
    let mut rng = DetRng::seed_from_u64(seed);
    let mut fresh_value = 1_000_000i64;
    let mut total_query_nanos = 0u64;
    let mut total_queries = 0u64;
    let mut read_round =
        |server: &Server, out: &mut dyn Write, round: usize| -> Result<(), Box<dyn Error>> {
            let snapshot = server.snapshot();
            let started = Instant::now();
            let mut answers = 0usize;
            for _ in 0..queries {
                answers = snapshot.execute(&request)?.answer.len();
            }
            let nanos = started.elapsed().as_nanos() as u64;
            total_query_nanos += nanos;
            total_queries += queries as u64;
            writeln!(
                out,
                "  round {round} @ v{}: {} queries in {} ({} answers each)",
                snapshot.version(),
                queries,
                fmt_nanos(nanos),
                answers
            )?;
            Ok(())
        };

    read_round(&server, out, 0)?;
    for commit_no in 1..=commits {
        let mut updates = Vec::with_capacity(batch);
        let snapshot = server.snapshot();
        let snapshot_graph = snapshot.graph();
        let mut next_id = snapshot_graph.node_count() as u32;

        // Occasionally retire one node (and implicitly its edges); exclude
        // it from this batch's endpoint sampling.
        let removed: Option<NodeId> = if commit_no % 3 == 0 && live.len() > 4 {
            let idx = rng.random_range(0..live.len());
            let node = live.swap_remove(idx);
            updates.push(Update::RemoveNode { node });
            Some(node)
        } else {
            None
        };
        let pick_live = |rng: &mut DetRng| live[rng.random_range(0..live.len())];

        while updates.len() < batch {
            match rng.random_range(0..=9) {
                // Insert a node under an existing label and wire it in.
                0..=3 => {
                    let label = &label_names[rng.random_range(0..label_names.len())];
                    fresh_value += 1;
                    updates.push(Update::AddNode {
                        label: label.clone(),
                        value: bgpq_engine::Value::Int(fresh_value),
                    });
                    let id = NodeId(next_id);
                    next_id += 1;
                    updates.push(Update::AddEdge {
                        src: pick_live(&mut rng),
                        dst: id,
                    });
                }
                // Insert an edge between existing nodes.
                4..=7 => {
                    updates.push(Update::AddEdge {
                        src: pick_live(&mut rng),
                        dst: pick_live(&mut rng),
                    });
                }
                // Remove a random existing edge (no-op when it raced away).
                _ => {
                    let src = pick_live(&mut rng);
                    let out_edges = snapshot_graph.out_neighbors(src);
                    let pick =
                        (!out_edges.is_empty()).then(|| rng.random_range(0..out_edges.len()));
                    if let Some(&dst) = pick.and_then(|i| out_edges.get(i)) {
                        if Some(dst) != removed {
                            updates.push(Update::RemoveEdge { src, dst });
                        }
                    }
                }
            }
        }

        let receipt = server.commit(&updates)?;
        live.extend(receipt.new_nodes.iter().copied());
        writeln!(
            out,
            "  commit {commit_no} -> v{}: {} updates, {} deltas, maintenance {} \
             (touched {} nodes, {} contributions), commit {}",
            receipt.version,
            updates.len(),
            receipt.deltas,
            fmt_nanos(receipt.delta_apply_nanos),
            receipt.maintenance.touched_nodes,
            receipt.maintenance.refreshed_contributions,
            fmt_nanos(receipt.commit_nanos)
        )?;
        read_round(&server, out, commit_no)?;
    }

    let stats = server.stats();
    let final_snapshot = server.snapshot();
    writeln!(
        out,
        "final: epoch {}, {} nodes, {} edges; {} commits applied {} deltas \
         (maintenance {}, commits {})",
        stats.epoch,
        final_snapshot.graph().live_node_count(),
        final_snapshot.graph().edge_count(),
        stats.commits,
        stats.deltas_applied,
        fmt_nanos(stats.delta_apply_nanos),
        fmt_nanos(stats.commit_nanos)
    )?;
    writeln!(out, "{}", commit_phases(&stats))?;
    let qps = if total_query_nanos == 0 {
        0.0
    } else {
        total_queries as f64 / (total_query_nanos as f64 / 1e9)
    };
    writeln!(
        out,
        "reads: {} queries in {} -> {:.0} queries/sec (single reader thread)",
        total_queries,
        fmt_nanos(total_query_nanos),
        qps
    )?;
    let engine_stats = final_snapshot.engine().stats();
    writeln!(
        out,
        "plan cache @ v{}: {} hits, {} misses, {} invalidations",
        engine_stats.snapshot_version,
        engine_stats.plan_cache_hits,
        engine_stats.plan_cache_misses,
        engine_stats.plan_cache_invalidations
    )?;
    Ok(())
}

/// A two-node pattern over the dataset's most common `(source label, target
/// label)` edge pair — guaranteed to have matches on the loaded graph.
fn default_pattern(graph: &Graph) -> Option<Pattern> {
    let mut pair_counts: HashMap<(String, String), usize> = HashMap::new();
    for e in graph.edges() {
        let key = (graph.label_name(e.src), graph.label_name(e.dst));
        *pair_counts.entry(key).or_insert(0) += 1;
    }
    let ((src, dst), _) = pair_counts
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))?;
    let mut builder = PatternBuilder::with_interner(graph.interner().clone());
    let a = builder.named_node("a", &src, Predicate::always());
    let b = builder.named_node("b", &dst, Predicate::always());
    builder.edge(a, b);
    Some(builder.build())
}
