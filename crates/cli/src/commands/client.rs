//! `bgpq client` — query a `bgpq serve` instance over TCP.

use super::fmt_nanos;
use crate::args::Args;
use crate::render::{write_answer, AnswerView, BindingView, SimRowView};
use bgpq_net::{AnswerKind, Client, QueryOutcome, QuerySpec};
use std::error::Error;
use std::io::{BufRead, Write};

const USAGE: &str = "USAGE: bgpq client --addr HOST:PORT [--name ID]
                     [--pattern FILE] [--semantics iso|sim]
                     [--strategy auto|bounded|seeded|baseline]
                     [--max-matches N] [--step-budget N] [--deadline-ms N]
                     [--show N] [--explain] [--stats] [--ping]

Connects to a `bgpq serve` instance. With --pattern the query runs once
and the answer is printed exactly like a local `bgpq query`; --ping and
--stats are one-shot probes. Without any of those the client enters a
small REPL (`help` lists its commands). Typed server rejections —
overloaded, draining, budget_exceeded, unbounded — are reported with
their error code so scripts can branch on them.";

/// Runs the subcommand.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let value_flags = [
        "addr",
        "name",
        "pattern",
        "semantics",
        "strategy",
        "max-matches",
        "step-budget",
        "deadline-ms",
        "show",
    ];
    let args = Args::parse(argv, &value_flags, &["explain", "stats", "ping", "help"])?;
    if args.switch("help") {
        writeln!(out, "{USAGE}")?;
        return Ok(());
    }
    let addr = args
        .flag("addr")
        .ok_or("missing --addr HOST:PORT (see `bgpq client --help`)")?;
    let name = args.flag("name").unwrap_or("bgpq-client");
    let show = args.flag_or("show", 10usize)?;

    let mut client = Client::connect(addr, name).map_err(|e| format!("{addr}: {e}"))?;
    writeln!(
        out,
        "connected to {} at {} (epoch {})",
        client.server_name(),
        addr,
        client.epoch()
    )?;

    let mut spec = QuerySpec::new(String::new());
    spec.semantics = super::query::parse_semantics(args.flag("semantics"))?;
    spec.strategy = super::query::parse_strategy(args.flag("strategy"))?;
    if args.flag("max-matches").is_some() {
        spec.max_matches = Some(args.flag_or("max-matches", 0usize)?);
    }
    if args.flag("step-budget").is_some() {
        spec.step_budget = Some(args.flag_or("step-budget", 0u64)?);
    }
    if args.flag("deadline-ms").is_some() {
        spec.deadline_ms = Some(args.flag_or("deadline-ms", 0u64)?);
    }
    spec.explain = args.switch("explain");

    let one_shot = args.switch("ping") || args.switch("stats") || args.flag("pattern").is_some();
    if args.switch("ping") {
        let epoch = client.ping().map_err(|e| e.to_string())?;
        writeln!(out, "pong: epoch {epoch}")?;
    }
    if let Some(pattern_path) = args.flag("pattern") {
        spec.pattern =
            std::fs::read_to_string(pattern_path).map_err(|e| format!("{pattern_path}: {e}"))?;
        let outcome = client.query(&spec).map_err(|e| e.to_string())?;
        render_outcome(out, &outcome, show)?;
    }
    if args.switch("stats") {
        let stats = client.stats().map_err(|e| e.to_string())?;
        writeln!(out, "{}", stats.render())?;
    }
    if one_shot {
        client.goodbye().map_err(|e| e.to_string())?;
        return Ok(());
    }
    repl(&mut client, spec, show, out)
}

/// Renders a received answer through the same renderer `bgpq query` uses,
/// so the `strategy:`/`answer:` block is byte-identical to a local run.
fn render_outcome(
    out: &mut dyn Write,
    outcome: &QueryOutcome,
    show: usize,
) -> Result<(), Box<dyn Error>> {
    // The blocks arrive as ids and typed values; display strings are made
    // here, for the rows that are printed, and nowhere before.
    let view = match outcome.header.kind {
        AnswerKind::Matches => AnswerView::Matches {
            total: outcome.header.total as usize,
            rows: outcome
                .matches
                .iter()
                .take(show)
                .map(|row| {
                    row.iter()
                        .map(|b| BindingView {
                            node: b.node.to_string(),
                            id: b.id,
                            label: b.label.to_string(),
                            value: b.value.to_string(),
                        })
                        .collect()
                })
                .collect(),
        },
        AnswerKind::Simulation => AnswerView::Simulation {
            pairs: outcome.header.total as usize,
            rows: outcome
                .header
                .columns
                .iter()
                .zip(&outcome.header.labels)
                .zip(&outcome.sim)
                .map(|((node, label), ids)| SimRowView {
                    node: node.clone(),
                    label: label.clone(),
                    total: ids.len(),
                    ids: ids.iter().take(show).copied().collect(),
                })
                .collect(),
        },
    };
    write_answer(out, &outcome.header.strategy, &view, show)?;

    let s = &outcome.done.stats;
    let mut line = format!("stats: plan {}", fmt_nanos(s.plan_nanos));
    if let Some(nodes) = s.fragment_nodes {
        line.push_str(&format!(
            " · fetch+build {} (|G_Q| = {} nodes)",
            fmt_nanos(s.fragment_build_nanos),
            nodes
        ));
    }
    line.push_str(&format!(
        " · match {} · total {} (server, snapshot v{})",
        fmt_nanos(s.match_nanos),
        fmt_nanos(s.total_nanos),
        outcome.header.snapshot_version
    ));
    writeln!(out, "{line}")?;
    if let (Some(bound), Some(fragment)) = (s.worst_case_nodes, s.fragment_nodes) {
        if bound > 0 {
            writeln!(
                out,
                "bound: worst-case {} fetched nodes, used {:.1}%",
                bound,
                100.0 * fragment as f64 / bound as f64
            )?;
        }
    }
    if outcome.done.aborted {
        writeln!(
            out,
            "WARNING: step budget exhausted; the answer may be incomplete"
        )?;
    }
    if let Some(lines) = &outcome.done.explain {
        for line in lines {
            writeln!(out, "{line}")?;
        }
    }
    Ok(())
}

const REPL_HELP: &str = "REPL commands:
  query FILE          run the pattern file with the current settings
  semantics iso|sim   set query semantics
  strategy auto|bounded|seeded|baseline
  show N              matches/ids to display per answer
  explain on|off      request fetch plans with answers
  deadline N          per-query deadline in ms (0 clears it)
  stats               print the server's counters document
  ping                liveness probe (prints the snapshot epoch)
  quit                leave (sends goodbye)";

fn repl(
    client: &mut Client,
    mut spec: QuerySpec,
    mut show: usize,
    out: &mut dyn Write,
) -> Result<(), Box<dyn Error>> {
    writeln!(out, "interactive mode; type `help` for commands")?;
    out.flush()?;
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line?;
        let mut parts = line.split_whitespace();
        let Some(command) = parts.next() else {
            continue;
        };
        let arg = parts.next();
        let result: Result<(), Box<dyn Error>> = match (command, arg) {
            ("help", _) => {
                writeln!(out, "{REPL_HELP}")?;
                Ok(())
            }
            ("quit" | "exit", _) => {
                break;
            }
            ("query", Some(path)) => match std::fs::read_to_string(path) {
                Ok(text) => {
                    spec.pattern = text;
                    match client.query(&spec) {
                        Ok(outcome) => render_outcome(out, &outcome, show),
                        Err(e) => {
                            writeln!(out, "error: {e}")?;
                            Ok(())
                        }
                    }
                }
                Err(e) => {
                    writeln!(out, "error: {path}: {e}")?;
                    Ok(())
                }
            },
            ("semantics", Some(s)) => match super::query::parse_semantics(Some(s)) {
                Ok(semantics) => {
                    spec.semantics = semantics;
                    Ok(())
                }
                Err(e) => {
                    writeln!(out, "error: {e}")?;
                    Ok(())
                }
            },
            ("strategy", Some(s)) => match super::query::parse_strategy(Some(s)) {
                Ok(strategy) => {
                    spec.strategy = strategy;
                    Ok(())
                }
                Err(e) => {
                    writeln!(out, "error: {e}")?;
                    Ok(())
                }
            },
            ("show", Some(n)) => {
                match n.parse::<usize>() {
                    Ok(n) => show = n,
                    Err(_) => writeln!(out, "error: show expects a number")?,
                }
                Ok(())
            }
            ("explain", Some(flag)) => {
                spec.explain = flag == "on";
                Ok(())
            }
            ("deadline", Some(n)) => {
                match n.parse::<u64>() {
                    Ok(0) => spec.deadline_ms = None,
                    Ok(ms) => spec.deadline_ms = Some(ms),
                    Err(_) => writeln!(out, "error: deadline expects milliseconds")?,
                }
                Ok(())
            }
            ("stats", _) => {
                match client.stats() {
                    Ok(stats) => writeln!(out, "{}", stats.render())?,
                    Err(e) => writeln!(out, "error: {e}")?,
                }
                Ok(())
            }
            ("ping", _) => {
                match client.ping() {
                    Ok(epoch) => writeln!(out, "pong: epoch {epoch}")?,
                    Err(e) => writeln!(out, "error: {e}")?,
                }
                Ok(())
            }
            _ => {
                writeln!(out, "unknown command {line:?}; type `help`")?;
                Ok(())
            }
        };
        result?;
        out.flush()?;
    }
    Ok(())
}
