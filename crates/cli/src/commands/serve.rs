//! `bgpq serve` — expose a dataset over the TCP wire protocol.

use super::{commit_phases, DISCOVERY_FLAGS, SIMPLE_SWITCH};
use crate::args::Args;
use crate::dataset::open_input;
use bgpq_access::DEFAULT_MAX_COMBINATIONS_PER_NODE;
use bgpq_engine::BudgetPolicy;
use bgpq_net::{NetServer, NetServerConfig, DEFAULT_MAX_FRAME_BYTES};
use bgpq_serve::Server;
use std::error::Error;
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "USAGE: bgpq serve <dataset|--snapshot FILE> [--host ADDR] [--port N]
                     [--max-in-flight N] [--read-timeout-ms N] [--max-frame-bytes N]
                     [--steps-per-ms N] [--name ID] [--drain-after-ms N]
                     [--schema FILE] [discovery flags]
                     [--format text|jsonl|edges|snapshot] [--label NAME]

Loads the dataset into the epoch-versioned server and listens for bgpq-net
protocol connections (`bgpq client`, see docs/PROTOCOL.md). Queries and
updates pass an admission gate capped at --max-in-flight concurrent
requests, each running on its own session thread; beyond it clients get a
typed `overloaded` rejection with a retry-after hint (--max-in-flight 0
rejects everything — out-of-rotation mode). --port 0 picks a free port,
printed on the `listening on` line.
--steps-per-ms calibrates how client deadlines map onto deterministic step
budgets. By default the server runs until killed; --drain-after-ms N
drains gracefully after N ms and exits (in-flight queries finish, new ones
are rejected with `draining`).";

/// Runs the subcommand.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let mut value_flags = vec![
        "format",
        "label",
        "schema",
        "snapshot",
        "host",
        "port",
        "max-in-flight",
        "read-timeout-ms",
        "max-frame-bytes",
        "steps-per-ms",
        "name",
        "drain-after-ms",
    ];
    value_flags.extend_from_slice(&DISCOVERY_FLAGS);
    let args = Args::parse(argv, &value_flags, &[SIMPLE_SWITCH, "help"])?;
    if args.switch("help") {
        writeln!(out, "{USAGE}")?;
        return Ok(());
    }
    let host = args.flag("host").unwrap_or("127.0.0.1");
    let port: u16 = args.flag_or("port", 0u16)?;
    let max_in_flight: usize = args.flag_or("max-in-flight", 8usize)?;
    let read_timeout_ms: u64 = args.flag_or("read-timeout-ms", 0u64)?;
    let max_frame_bytes: u32 = args.flag_or("max-frame-bytes", DEFAULT_MAX_FRAME_BYTES)?;
    let steps_per_ms: u64 =
        args.flag_or("steps-per-ms", BudgetPolicy::default().steps_per_milli)?;
    let drain_after_ms: u64 = args.flag_or("drain-after-ms", 0u64)?;
    let name = args.flag("name").unwrap_or("bgpq-net").to_string();

    let input = open_input(&args, Some(DEFAULT_MAX_COMBINATIONS_PER_NODE))?;
    let summary = input.summary();
    let indices = input.indices.expect("indices requested");
    let server = Arc::new(Server::with_indices(input.graph, indices));

    let config = NetServerConfig {
        addr: format!("{host}:{port}"),
        max_in_flight,
        max_frame_bytes,
        read_timeout: (read_timeout_ms > 0).then(|| Duration::from_millis(read_timeout_ms)),
        server_name: name,
        budget_policy: BudgetPolicy {
            steps_per_milli: steps_per_ms.max(1),
            ..BudgetPolicy::default()
        },
        ..NetServerConfig::default()
    };
    let handle = NetServer::start(Arc::clone(&server), config)
        .map_err(|e| format!("cannot listen on {host}:{port}: {e}"))?;

    writeln!(out, "serving {summary}")?;
    writeln!(
        out,
        "listening on {} (max in-flight {})",
        handle.local_addr(),
        max_in_flight
    )?;
    out.flush()?;

    if drain_after_ms > 0 {
        std::thread::sleep(Duration::from_millis(drain_after_ms));
        let stats = handle.gate_stats();
        let drained = handle.shutdown();
        writeln!(
            out,
            "drained {}: admitted {}, rejected {} overloaded / {} draining",
            if drained { "cleanly" } else { "with timeout" },
            stats.admitted,
            stats.rejected_overloaded,
            stats.rejected_draining
        )?;
        writeln!(out, "{}", commit_phases(&server.stats()))?;
        return Ok(());
    }
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
