//! Output and orchestration: the result line one workload run prints, the
//! `run` command (one child process per workload, merged) and the `repeat`
//! command (whole sets back to back, spreads held against the bounds).

use crate::measure::{end_to_end, Report, MIN_EPISODES};
use crate::metrics::{median, quartiles, relative_spread, END_TO_END};
use crate::recipe::{WorkloadSpec, WORKLOADS};
use crate::trace::{per_layer, TRACED_CYCLES};
use bgpq_graph::io::json::{parse_json, Json};
use std::process::{Command, Stdio};

/// What to run, as given on the command line.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Minimum-length runs (two episodes of two cycles): finishes every
    /// workload in seconds, for tests. Too short for the coverage check.
    pub smoke: bool,
}

/// Cycles per episode (and per traced segment) of a `--smoke` run, which has
/// exactly two episodes.
const SMOKE_CYCLES: usize = 2;

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 0x1CDE_2015;
/// Default `--seconds`; `BENCHMARK.json`'s `run_seconds`.
pub const DEFAULT_SECONDS: u64 = 36;

/// Runs one workload in this process and prints its context line and, last,
/// the result line. Returns whether every op succeeded.
pub fn run_workload(spec: &'static WorkloadSpec, options: Options) -> Result<bool, String> {
    let report = match (options.trace, options.smoke) {
        (true, false) => per_layer(spec, options.seed, TRACED_CYCLES)?,
        (true, true) => per_layer(spec, options.seed, SMOKE_CYCLES)?,
        (false, false) => {
            let seconds = options.seconds;
            end_to_end(spec, options.seed, spec.cycles, MIN_EPISODES, seconds)?
        }
        (false, true) => end_to_end(spec, options.seed, SMOKE_CYCLES, 2, 0)?,
    };
    if let Some((name, _, value)) = report.metrics.iter().find(|m| !m.2.is_finite()) {
        return Err(format!("{name} is not a finite number: {value}"));
    }
    println!("{}", detail_line(spec.name, &report));
    println!("{}", result_line(&report));
    Ok(report.tally.failed == 0)
}

/// `detail {...}`: the context a reader needs beside the metrics — seed,
/// cores, cycle and sample counts.
fn detail_line(workload: &str, report: &Report) -> String {
    let fields: Vec<String> = report
        .detail
        .iter()
        .map(|(key, value)| format!("\"{key}\": {value}"))
        .collect();
    format!(
        "detail {{\"workload\": \"{workload}\", {}}}",
        fields.join(", ")
    )
}

/// The one JSON object the driver reads from the last line of stdout.
fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.failed == 0,
        report.tally.attempted,
        report.tally.failed,
        metrics.join(", ")
    )
}

/// One child's parsed output.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in printed order.
    metrics: Vec<(String, f64, String)>,
    detail: Json,
}

/// Runs one workload in a child process of its own, so peak RSS and
/// allocator state cannot leak between workloads.
fn run_child(workload: &str, options: Options) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if options.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if options.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result = stdout.lines().last().ok_or(format!(
        "the {workload} child printed nothing ({})",
        output.status
    ))?;
    let bad = |what: &str| format!("the {workload} child's output has no {what}: {result}");
    let result = parse_json(result).map_err(|e| format!("{workload}: {e}"))?;
    let Some(Json::Obj(fields)) = result.get("metrics") else {
        return Err(bad("metrics object"));
    };
    let metrics = fields
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(bad("metric value"))?;
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .ok_or(bad("metric unit"))?;
            Ok((name.clone(), value, unit.to_string()))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let detail = stdout
        .lines()
        .find_map(|line| line.strip_prefix("detail "))
        .ok_or(bad("detail line"))
        .and_then(|d| parse_json(d).map_err(|e| format!("{workload}: {e}")))?;
    Ok(ChildRun {
        correct: result
            .get("correct")
            .and_then(Json::as_bool)
            .ok_or(bad("correct"))?,
        attempted: result
            .get("attempted")
            .and_then(Json::as_u64)
            .ok_or(bad("attempted"))?,
        failed: result
            .get("failed")
            .and_then(Json::as_u64)
            .ok_or(bad("failed"))?,
        metrics,
        detail,
    })
}

/// `run`: every workload, one child each, one after the other; prints every
/// metric by name with its unit, then the children's context. Returns
/// whether every op of every workload succeeded.
pub fn run_all(options: Options) -> Result<bool, String> {
    let mut all_correct = true;
    for spec in &WORKLOADS {
        let child = run_child(spec.name, options)?;
        all_correct &= child.correct;
        println!(
            "{}: {} ops attempted, {} failed{}",
            spec.name,
            child.attempted,
            child.failed,
            if child.correct { "" } else { "  <-- INCORRECT" }
        );
        for (name, value, unit) in &child.metrics {
            println!("  {name:<36} {value:>16.3} {unit}");
        }
        println!("  detail {}", child.detail.render());
        if options.trace && !options.smoke {
            all_correct &= coverage_holds(spec, &child);
        }
    }
    Ok(all_correct)
}

/// The trace coverage check, on the in-process workloads: the shadow stages
/// must account for 85–115% of the call they re-run — of `serve.commit`
/// and of a hot `execute`. A cold `execute` right after a commit reads a
/// freshly cloned graph and indices that no query has touched yet, while
/// its shadow, one round later, finds them in the CPU caches; its band
/// starts at 65%. The residues are printed (`engine.overhead_us`,
/// `engine.cold_overhead_us`), not hidden.
fn coverage_holds(spec: &WorkloadSpec, child: &ChildRun) -> bool {
    if spec.transport != crate::recipe::Transport::InProcess {
        return true;
    }
    let mut holds = true;
    for (name, low) in [
        ("trace.commit_coverage_pct", 85.0),
        ("trace.hot_coverage_pct", 85.0),
        ("trace.cold_coverage_pct", 65.0),
    ] {
        let value = child.metrics.iter().find(|m| m.0 == name).map(|m| m.1);
        let ok = value.is_some_and(|v| (low..=115.0).contains(&v));
        println!(
            "  {name} within {low}-115%: {}",
            if ok { "yes" } else { "NO" }
        );
        holds &= ok;
    }
    holds
}

/// `repeat`: `sets` whole sets of `runs` runs per workload, each run of a
/// set with another seed (both sets use the same seeds), as the driver that
/// accepts the benchmark does. Prints per (workload, metric) the quartiles
/// and relative spread of each set next to the bound, and returns whether
/// every spread (except `setup_s`) is within its bound and no later set's
/// median is worse than the first's by more than the bound.
pub fn repeat(options: Options, sets: usize, runs: usize) -> Result<bool, String> {
    // values[set][workload][metric] -> one value per run
    let mut values = vec![vec![vec![Vec::<f64>::new(); END_TO_END.len()]; WORKLOADS.len()]; sets];
    for (set, per_set) in values.iter_mut().enumerate() {
        for run in 0..runs {
            let seeded = Options {
                seed: options.seed.wrapping_add(run as u64),
                ..options
            };
            for (w, spec) in WORKLOADS.iter().enumerate() {
                let child = run_child(spec.name, seeded)?;
                if !child.correct {
                    return Err(format!("{}: {} ops failed", spec.name, child.failed));
                }
                for (m, metric) in END_TO_END.iter().enumerate() {
                    let value = child.metrics.iter().find(|c| c.0 == metric.name);
                    per_set[w][m].push(value.ok_or(format!("{} missing", metric.name))?.1);
                }
                eprintln!("set {} run {} {} done", set + 1, run + 1, spec.name);
            }
        }
    }

    let mut accepted = true;
    println!(
        "| workload | metric | unit | set | min | q1 | median | q3 | spread | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    for (w, spec) in WORKLOADS.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let first = median(&values[0][w][m]);
            for (set, per_set) in values.iter().enumerate() {
                let v = &per_set[w][m];
                let [q1, q2, q3] = quartiles(v);
                let spread = relative_spread(v);
                let worse = match metric.better {
                    "lower" => q2 / first - 1.0,
                    _ => 1.0 - q2 / first,
                };
                let steady = metric.name == "setup_s" || spread <= metric.bound;
                let ok = steady && worse <= metric.bound;
                accepted &= ok;
                println!(
                    "| {} | {} | {} | {} | {:.3} | {:.3} | {:.3} | {:.3} | {:.2}% | {:.0}% | {} |",
                    spec.name,
                    metric.name,
                    metric.unit,
                    set + 1,
                    v.iter().copied().fold(f64::INFINITY, f64::min),
                    q1,
                    q2,
                    q3,
                    100.0 * spread,
                    100.0 * metric.bound,
                    match (ok, spread <= metric.bound / 2.0) {
                        (false, _) => "FAIL",
                        (true, true) => "ok",
                        (true, false) => "ok (spread above half the bound)",
                    }
                );
            }
        }
    }
    Ok(accepted)
}
