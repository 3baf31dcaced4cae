//! `bgpq query` — run one pattern query through the engine.

use super::{fmt_nanos, DISCOVERY_FLAGS, SIMPLE_SWITCH};
use crate::args::Args;
use crate::dataset::open_input;
use crate::render::{write_answer, AnswerView, BindingView, SimRowView};
use bgpq_access::DEFAULT_MAX_COMBINATIONS_PER_NODE;
use bgpq_engine::{
    parse_pattern, Engine, QueryAnswer, QueryRequest, QueryRequestBuilder, QueryResponse,
    Semantics, StrategyKind,
};
use bgpq_pattern::Pattern;
use bgpq_workload::{parse_manifest, LatencyHistogram};
use std::error::Error;
use std::io::Write;

const USAGE: &str = "USAGE: bgpq query <dataset|--snapshot FILE> --pattern FILE
                     [--workload FILE] [--schema FILE] [--semantics iso|sim]
                     [--strategy auto|bounded|seeded|baseline]
                     [--max-matches N] [--step-budget N] [--show N]
                     [--explain] [discovery flags]
                     [--format text|jsonl|edges|snapshot] [--label NAME]

Loads the dataset, obtains an access schema (--schema FILE or discovery),
builds an engine and executes the pattern file (see `bgpq-pattern::parse`
for the syntax). A compiled snapshot input (--snapshot FILE, or a dataset
path carrying the snapshot magic) supplies its embedded schema and indices,
so no discovery or index build happens at query time. The engine picks the
cheapest sound strategy — bounded bVF2/bSim when the pattern is effectively
bounded under the schema — unless --strategy forces a tier. --explain
prints the fetch plan or the planner's refusal.

--workload FILE (instead of --pattern) runs every query of a `bgpq
workload` manifest closed-loop through the engine and reports latency
percentiles, per-strategy counts and the aggregate fragment size; --show
bounds the per-query detail lines.";

/// Runs the subcommand.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let mut value_flags = vec![
        "format",
        "label",
        "schema",
        "snapshot",
        "pattern",
        "semantics",
        "strategy",
        "max-matches",
        "step-budget",
        "show",
        "workload",
    ];
    value_flags.extend_from_slice(&DISCOVERY_FLAGS);
    let args = Args::parse(argv, &value_flags, &[SIMPLE_SWITCH, "explain", "help"])?;
    if args.switch("help") {
        writeln!(out, "{USAGE}")?;
        return Ok(());
    }
    let pattern_path = match (args.flag("pattern"), args.flag("workload")) {
        (Some(_), Some(_)) => return Err("give --pattern FILE or --workload FILE, not both".into()),
        (None, None) => {
            return Err(
                "missing --pattern FILE or --workload FILE (see `bgpq query --help`)".into(),
            )
        }
        (pattern, _) => pattern,
    };
    let semantics = parse_semantics(args.flag("semantics"))?;
    let strategy = parse_strategy(args.flag("strategy"))?;
    let show = args.flag_or("show", 10usize)?;
    let limits = Limits {
        strategy,
        max_matches: args.parsed("max-matches")?,
        step_budget: args.parsed("step-budget")?,
    };

    let input = open_input(&args, Some(DEFAULT_MAX_COMBINATIONS_PER_NODE))?;
    writeln!(out, "dataset {}", input.summary())?;
    let indices = input.indices.expect("indices requested");
    let engine = Engine::with_indices(input.graph, indices);
    let Some(pattern_path) = pattern_path else {
        // --workload: run every manifest query closed-loop and aggregate.
        let manifest_path = args.flag("workload").expect("checked above");
        return run_workload(&engine, manifest_path, &limits, show, out);
    };
    let pattern_text =
        std::fs::read_to_string(pattern_path).map_err(|e| format!("{pattern_path}: {e}"))?;
    let pattern = parse_pattern(&pattern_text, engine.graph().interner().clone())
        .map_err(|e| format!("{pattern_path}: {e}"))?;
    writeln!(
        out,
        "pattern {}: {} nodes, {} edges",
        pattern_path,
        pattern.node_count(),
        pattern.edge_count()
    )?;

    let builder = limits.apply(QueryRequest::build(pattern.clone()).semantics(semantics));
    let request = builder.explain(args.switch("explain")).finish();
    let response = engine.execute(&request)?;
    report(&response, &pattern, &engine, show, out)?;
    Ok(())
}

/// What the command line forces on every request: `--strategy`,
/// `--max-matches` and `--step-budget`.
struct Limits {
    strategy: Option<StrategyKind>,
    max_matches: Option<usize>,
    step_budget: Option<u64>,
}

impl Limits {
    fn apply(&self, mut builder: QueryRequestBuilder) -> QueryRequestBuilder {
        if let Some(kind) = self.strategy {
            builder = builder.strategy(kind);
        }
        if let Some(n) = self.max_matches {
            builder = builder.max_matches(n);
        }
        if let Some(steps) = self.step_budget {
            builder = builder.step_budget(steps);
        }
        builder
    }
}

/// Closed-loop manifest runner behind `--workload FILE`: executes every
/// query of a `bgpq workload` manifest through the engine, under the
/// command line's limits, and reports latency percentiles, the strategy
/// mix and the aggregate fragment size.
fn run_workload(
    engine: &Engine,
    manifest_path: &str,
    limits: &Limits,
    show: usize,
    out: &mut dyn Write,
) -> Result<(), Box<dyn Error>> {
    let text =
        std::fs::read_to_string(manifest_path).map_err(|e| format!("{manifest_path}: {e}"))?;
    let manifest = parse_manifest(&text).map_err(|e| format!("{manifest_path}: {e}"))?;
    let bounded_flagged = manifest.iter().filter(|q| q.bounded).count();
    writeln!(
        out,
        "workload {manifest_path}: {} queries ({} bounded / {} unbounded)",
        manifest.len(),
        bounded_flagged,
        manifest.len() - bounded_flagged
    )?;

    let graph_nodes = engine.graph().live_node_count();
    let mut latency = LatencyHistogram::new();
    let mut strategies: std::collections::BTreeMap<String, usize> = Default::default();
    let (mut fragment_nodes, mut fragment_runs) = (0u64, 0u64);
    let mut refused = 0usize;
    for (ran, q) in manifest.iter().enumerate() {
        let pattern = parse_pattern(&q.pattern, engine.graph().interner().clone())
            .map_err(|e| format!("{manifest_path}: query {}: {e}", q.index))?;
        let builder = limits.apply(QueryRequest::build(pattern).semantics(q.semantics));
        let response = match engine.execute(&builder.finish()) {
            Ok(response) => response,
            // Forcing --strategy bounded makes the engine refuse the
            // manifest's unbounded-flagged queries; that is a data point of
            // the run, not an error.
            Err(_) if !q.bounded => {
                refused += 1;
                continue;
            }
            Err(e) => return Err(format!("{manifest_path}: query {}: {e}", q.index).into()),
        };
        latency.record(response.stats.total_nanos / 1_000);
        *strategies.entry(response.strategy.to_string()).or_default() += 1;
        let answers = match &response.answer {
            QueryAnswer::Matches(matches) => matches.len(),
            QueryAnswer::Simulation(relation) => relation.pair_count(),
        };
        let mut line = format!(
            "  q{} {} {}: {} strategy, {} answers, {}",
            q.index,
            q.shape.map_or("?", |s| s.name()),
            if q.bounded { "bounded" } else { "unbounded" },
            response.strategy,
            answers,
            fmt_nanos(response.stats.total_nanos),
        );
        if let Some(fetch) = &response.stats.fetch {
            fragment_nodes += fetch.fragment_nodes as u64;
            fragment_runs += 1;
            line.push_str(&format!(", |G_Q| = {} nodes", fetch.fragment_nodes));
        }
        if ran < show {
            writeln!(out, "{line}")?;
        }
    }

    let mut line = format!("ran {} queries", manifest.len() - refused);
    if refused > 0 {
        line.push_str(&format!(" ({refused} refused by the forced strategy)"));
    }
    if !strategies.is_empty() {
        let mix: Vec<String> = strategies.iter().map(|(k, v)| format!("{k} {v}")).collect();
        line.push_str(&format!("; strategies: {}", mix.join(", ")));
    }
    writeln!(out, "{line}")?;
    if latency.count() > 0 {
        writeln!(
            out,
            "latency: p50 {} µs, p95 {} µs, p99 {} µs, mean {} µs, max {} µs",
            latency.quantile(0.5),
            latency.quantile(0.95),
            latency.quantile(0.99),
            latency.mean(),
            latency.max()
        )?;
    }
    if fragment_runs > 0 {
        let avg = fragment_nodes as f64 / fragment_runs as f64;
        writeln!(
            out,
            "fragments: avg |G_Q| = {avg:.1} nodes ({:.2}% of |G|) over {fragment_runs} \
             index-fetched runs",
            100.0 * avg / graph_nodes.max(1) as f64
        )?;
    }
    Ok(())
}

pub(crate) fn parse_semantics(raw: Option<&str>) -> Result<Semantics, Box<dyn Error>> {
    match raw {
        None | Some("iso" | "isomorphism") => Ok(Semantics::Isomorphism),
        Some("sim" | "simulation") => Ok(Semantics::Simulation),
        Some(other) => Err(format!("invalid --semantics {other:?} (iso or sim)").into()),
    }
}

pub(crate) fn parse_strategy(raw: Option<&str>) -> Result<Option<StrategyKind>, Box<dyn Error>> {
    match raw {
        None | Some("auto") => Ok(None),
        Some("bounded") => Ok(Some(StrategyKind::Bounded)),
        Some("seeded") => Ok(Some(StrategyKind::IndexSeeded)),
        Some("baseline") => Ok(Some(StrategyKind::Baseline)),
        Some(other) => {
            Err(format!("invalid --strategy {other:?} (auto, bounded, seeded or baseline)").into())
        }
    }
}

fn report(
    response: &QueryResponse,
    pattern: &Pattern,
    engine: &Engine,
    show: usize,
    out: &mut dyn Write,
) -> Result<(), Box<dyn Error>> {
    let graph = engine.graph();
    // Reduce the answer to display views and go through the shared
    // renderer: `bgpq client` renders wire frames through the same code,
    // which is what keeps local and remote output byte-identical.
    let view = match &response.answer {
        QueryAnswer::Matches(matches) => AnswerView::Matches {
            total: matches.len(),
            rows: matches
                .iter()
                .take(show)
                .map(|m| {
                    pattern
                        .nodes()
                        .map(|u| {
                            let v = m.node_for(u);
                            BindingView {
                                node: pattern.column_name(u),
                                id: v.0,
                                label: graph.label_name(v).to_string(),
                                value: graph.value(v).to_string(),
                            }
                        })
                        .collect()
                })
                .collect(),
        },
        QueryAnswer::Simulation(relation) => AnswerView::Simulation {
            pairs: relation.pair_count(),
            rows: pattern
                .nodes()
                .map(|u| {
                    let vs = relation.matches_of(u);
                    SimRowView {
                        node: pattern.column_name(u),
                        label: pattern.label_name(u),
                        total: vs.len(),
                        ids: vs.iter().take(show).map(|v| v.0).collect(),
                    }
                })
                .collect(),
        },
    };
    write_answer(out, &response.strategy.to_string(), &view, show)?;

    let stats = &response.stats;
    let mut line = format!(
        "stats: plan {}{}",
        fmt_nanos(stats.plan_nanos),
        stats
            .plan_cache
            .map(|o| format!(" ({o})"))
            .unwrap_or_default()
    );
    if let Some(fetch) = &stats.fetch {
        let g_size = graph.live_node_count();
        line.push_str(&format!(
            " · fetch+build {} (|G_Q| = {} nodes / {} edges, {:.1}% of |G|, {} index lookups)",
            fmt_nanos(stats.fragment_build_nanos),
            fetch.fragment_nodes,
            fetch.fragment_edges,
            if g_size == 0 {
                0.0
            } else {
                100.0 * fetch.fragment_nodes as f64 / g_size as f64
            },
            fetch.index_lookups
        ));
    }
    line.push_str(&format!(
        " · match {} · total {}",
        fmt_nanos(stats.match_nanos),
        fmt_nanos(stats.total_nanos)
    ));
    writeln!(out, "{line}")?;
    if let (Some(bound), Some(util)) = (stats.worst_case_nodes, stats.fetch_utilization()) {
        writeln!(
            out,
            "bound: worst-case {} fetched nodes, used {:.1}%",
            bound,
            100.0 * util
        )?;
    }
    if stats.aborted {
        writeln!(
            out,
            "WARNING: step budget exhausted; the answer may be incomplete"
        )?;
    }

    if let Some(explain) = &response.explain {
        for line in explain.render_lines(pattern, engine.indices().schema(), graph.interner()) {
            writeln!(out, "{line}")?;
        }
    }
    Ok(())
}
