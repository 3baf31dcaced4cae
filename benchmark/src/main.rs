//! Command line of the benchmark.
//!
//! ```text
//! bgpq-benchmark --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! bgpq-benchmark run    [--seed N] [--seconds S] [--trace] [--smoke]
//! bgpq-benchmark repeat [--sets K] [--runs N] [--seed N] [--seconds S]
//! ```
//!
//! The first form runs one workload in this process and prints, as the last
//! line of stdout, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `run` spawns that form once per workload, sequentially.

use bgpq_benchmark::recipe::{WorkloadSpec, WORKLOADS};
use bgpq_benchmark::report::{self, Options, DEFAULT_SECONDS, DEFAULT_SEED};
use std::process::ExitCode;

const USAGE: &str = "usage: bgpq-benchmark (--workload W | run | repeat [--sets K] [--runs N]) \
[--seed N] [--seconds S] [--trace [0|1]] [--smoke]";

fn main() -> ExitCode {
    match dispatch(std::env::args().skip(1).collect()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("bgpq-benchmark: failed ops or a failed check — see the output above");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("bgpq-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: Vec<String>) -> Result<bool, String> {
    let mut options = Options {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let (mut command, mut workload) = (None, None);
    let (mut sets, mut runs) = (2usize, 10usize);
    let mut args = args.into_iter().peekable();
    while let Some(arg) = args.next() {
        let mut number = |flag: &str| -> Result<u64, String> {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let parsed = match value.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => value.parse(),
            };
            parsed.map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match arg.as_str() {
            "run" | "repeat" if command.is_none() => command = Some(arg),
            "--seed" => options.seed = number("--seed")?,
            "--seconds" => options.seconds = number("--seconds")?,
            "--sets" => sets = number("--sets")? as usize,
            "--runs" => runs = number("--runs")? as usize,
            "--smoke" => options.smoke = true,
            // `--trace 0|1` (the driver's form) or a bare `--trace`.
            "--trace" => match args.peek().map(String::as_str) {
                Some("0") | Some("1") => options.trace = args.next().as_deref() == Some("1"),
                _ => options.trace = true,
            },
            "--workload" => {
                let name = args.next().ok_or("--workload needs a name")?;
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(WorkloadSpec::by_name(&name).ok_or(format!(
                    "unknown workload `{name}`; the workloads are {}",
                    names.join(", ")
                ))?);
            }
            other => return Err(format!("unexpected argument `{other}`\n{USAGE}")),
        }
    }
    match (command.as_deref(), workload) {
        (None, Some(spec)) => report::run_workload(spec, options),
        (Some("run"), None) => report::run_all(options),
        (Some("repeat"), None) if sets >= 1 && runs >= 2 => report::repeat(options, sets, runs),
        (Some("repeat"), None) => Err("repeat needs --sets >= 1 and --runs >= 2".into()),
        _ => Err(USAGE.into()),
    }
}
