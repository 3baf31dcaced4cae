//! # bgpq-cli
//!
//! The end-to-end command line of the `bgpq` workspace. The library crates
//! expose the paper's pipeline piecewise — graph substrate, patterns,
//! access schemas, matchers, planner, engine, server — and until this crate
//! existed only test binaries wired them together. `bgpq` turns them into a
//! runnable system over real dataset files:
//!
//! ```text
//! bgpq gen social --scale 100 --out data/social.tsv   # or: your own dataset
//! bgpq load data/social.tsv                           # parse + stats
//! bgpq discover data/social.tsv --out social.schema   # access constraints
//! bgpq index data/social.tsv --schema social.schema   # index sizes vs |G|
//! bgpq compile data/social.tsv --out social.bgpq      # one-time preprocessing
//! bgpq query --snapshot social.bgpq --pattern q.pat   # bounded evaluation
//! bgpq serve-demo --snapshot social.bgpq              # live updates + reads
//! ```
//!
//! Everything is dependency-free; commands are implemented as library
//! functions writing to any `Write`, so the integration tests drive the
//! exact code the binary runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod dataset;
pub mod render;
pub use bgpq_workload::scenario;

use std::error::Error;
use std::io::Write;

/// Usage text of the top-level binary.
pub const USAGE: &str = "bgpq — bounded graph pattern queries, end to end

USAGE: bgpq <command> [args]

COMMANDS:
  gen <scenario>       generate a built-in dataset (social, citation, products)
  load <dataset>       parse a dataset and print its statistics
  discover <dataset>   discover an access schema (optionally --out FILE)
  index <dataset>      build access indices and report their sizes
  compile <dataset>    compile dataset + schema + indices into a .bgpq snapshot
  query <dataset>      run a pattern query (--pattern FILE) through the engine
  workload <dataset>   generate a schema-aware query workload manifest
  serve-demo <dataset> drive the concurrent server with a mixed workload
  serve <dataset>      listen for bgpq-net TCP clients (--port 0 = any free)
  client               query a running `bgpq serve` (--addr HOST:PORT)
  help                 show this text

DATASET FORMATS (snapshots detected by magic bytes; otherwise by extension,
or --format text|jsonl|edges|snapshot):
  .tsv/.txt  typed n/e records   .jsonl  JSON lines   .el/.edges  edge list
  .bgpq      binary snapshot (graph + schema + indices, via `bgpq compile`)

Every command that reads a dataset, except discover, also accepts
`--snapshot FILE` instead of the dataset path. Run `bgpq <command> --help` for the flags of one command.";

/// Dispatches one CLI invocation (`argv` excludes the program name),
/// writing human-readable output to `out`.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let Some(command) = argv.first().map(String::as_str) else {
        writeln!(out, "{USAGE}")?;
        return Ok(());
    };
    let rest = &argv[1..];
    match command {
        "gen" => commands::gen::run(rest, out),
        "load" => commands::load::run(rest, out),
        "discover" => commands::discover::run(rest, out),
        "index" => commands::index::run(rest, out),
        "compile" => commands::compile::run(rest, out),
        "query" => commands::query::run(rest, out),
        "workload" => commands::workload::run(rest, out),
        "serve-demo" => commands::serve_demo::run(rest, out),
        "serve" => commands::serve::run(rest, out),
        "client" => commands::client::run(rest, out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        other => Err(format!("unknown command {other:?} (try `bgpq help`)").into()),
    }
}
