//! Open-loop TCP serving benchmark: latency percentiles and reject rate
//! versus offered load, over real loopback connections.
//!
//! Unlike the closed-loop `bench_serve` (which measures peak throughput by
//! letting each worker issue the next query the moment the previous one
//! returns), this bench fixes an *offered* arrival rate per tier and
//! schedules request arrivals on a strict clock, independent of how fast
//! the server answers. Latency is measured from the **scheduled arrival**,
//! not the send, so queueing delay under overload is visible instead of
//! being absorbed by a coordinating sender (no coordinated omission). More
//! sender connections than the admission gate's `max_in_flight` are kept
//! open, so pushing the offered rate past capacity produces typed
//! `overloaded` rejections — the reject rate per tier is the admission
//! control story in one number.
//!
//! Besides the tiers the report carries `bytes_in_per_query` (what one
//! answer costs a client on the wire) and `layers`: the server's own
//! per-phase histograms (parse, execute, render) read from its `stats`
//! frame after the last tier, so a slow tier can be read as server time or
//! as time spent outside it. There is no queue inside the server: a
//! request the cores cannot run yet waits in its socket, in front of the
//! admission gate, and shows up as its sender's lateness, not in `layers`.
//! `--max-p99-ms` gates the lowest offered tier (the higher ones overload
//! the server by design).
//!
//! Results merge into `BENCH_serve.json` under a `"tcp"` key (run
//! `bench_serve` first for the closed-loop section, then this binary).
//!
//! ```sh
//! cargo run --release -p bgpq-net --bin bench_net            # full run
//! cargo run --release -p bgpq-net --bin bench_net -- --smoke # CI smoke
//! ```

use bgpq_engine::{AccessConstraint, AccessSchema};
use bgpq_graph::{Graph, GraphBuilder, Value};
use bgpq_net::{Client, ErrorCode, NetServer, NetServerConfig, QuerySpec};
use bgpq_serve::Server;
use bgpq_workload::histogram::LatencyHistogram;
use bgpq_workload::ArrivalClock;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

struct BenchConfig {
    /// Movie clusters in the generated base graph.
    movies: usize,
    /// Offered-load tiers, in queries per second.
    offered: Vec<u64>,
    /// Measurement window per tier.
    duration_ms: u64,
    /// Sender connections (more than `max_in_flight`, so overload tiers
    /// can actually trip the admission gate).
    connections: usize,
    /// Admission gate capacity.
    max_in_flight: usize,
    /// Report path to merge the `"tcp"` section into.
    out: String,
    /// Exit non-zero when the p99 of the lowest offered tier exceeds this
    /// many milliseconds.
    max_p99_ms: Option<f64>,
}

impl BenchConfig {
    fn parse(args: &[String]) -> Result<Self, String> {
        let smoke = args.iter().any(|a| a == "--smoke");
        let mut config = if smoke {
            BenchConfig {
                movies: 300,
                offered: vec![100, 500, 2_000],
                duration_ms: 200,
                connections: 12,
                max_in_flight: 8,
                out: "BENCH_serve.json".to_string(),
                max_p99_ms: None,
            }
        } else {
            BenchConfig {
                movies: 2_000,
                offered: vec![200, 1_000, 4_000, 16_000],
                duration_ms: 500,
                connections: 12,
                max_in_flight: 8,
                out: "BENCH_serve.json".to_string(),
                max_p99_ms: None,
            }
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value_for = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} expects a value"))
            };
            match arg.as_str() {
                "--smoke" => {}
                "--movies" => config.movies = parse_num(&value_for("--movies")?)?,
                "--offered" => {
                    config.offered = value_for("--offered")?
                        .split(',')
                        .map(|s| parse_num(s).map(|n| n as u64))
                        .collect::<Result<Vec<_>, _>>()?;
                }
                "--duration-ms" => {
                    config.duration_ms = parse_num(&value_for("--duration-ms")?)? as u64
                }
                "--connections" => config.connections = parse_num(&value_for("--connections")?)?,
                "--max-in-flight" => {
                    config.max_in_flight = parse_num(&value_for("--max-in-flight")?)?
                }
                "--out" => config.out = value_for("--out")?,
                "--max-p99-ms" => {
                    let raw = value_for("--max-p99-ms")?;
                    config.max_p99_ms =
                        Some(raw.parse().map_err(|_| format!("not a number: {raw:?}"))?);
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if config.offered.is_empty() || config.duration_ms == 0 || config.connections == 0 {
            return Err("--offered, --duration-ms and --connections must be non-empty".into());
        }
        Ok(config)
    }
}

fn parse_num(s: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("not a number: {s:?}"))
}

/// The IMDb-shaped base graph shared with `bench_serve`: `movies` clusters,
/// each a movie linked from a (year, award) pair and to 2 actors.
fn build_graph(movies: usize) -> Graph {
    let mut b = GraphBuilder::new();
    let years: Vec<_> = (0..20)
        .map(|i| b.add_node("year", Value::Int(2000 + i)))
        .collect();
    let awards: Vec<_> = (0..5)
        .map(|i| b.add_node("award", Value::str(format!("award{i}"))))
        .collect();
    for i in 0..movies {
        let m = b.add_node("movie", Value::Int(i as i64));
        b.add_edge(years[i % years.len()], m).unwrap();
        b.add_edge(awards[i % awards.len()], m).unwrap();
        for j in 0..2 {
            let a = b.add_node("actor", Value::Int((10 * i + j) as i64));
            b.add_edge(m, a).unwrap();
        }
    }
    b.build()
}

fn build_schema(graph: &Graph, movies: usize) -> AccessSchema {
    let l = |name: &str| graph.interner().get(name).unwrap();
    AccessSchema::from_constraints([
        AccessConstraint::global(l("year"), 20),
        AccessConstraint::global(l("award"), 5),
        AccessConstraint::new([l("year"), l("award")], l("movie"), movies / 10 + 10),
        AccessConstraint::unary(l("movie"), l("actor"), 4),
    ])
}

/// The textual pattern each sender rotates through (one per base year).
fn query_text(year: i64) -> String {
    format!(
        "node m: movie\nnode y: year where value = {year}\nnode a: actor\n\
         edge y -> m\nedge m -> a\n"
    )
}

struct TierResult {
    offered_qps: u64,
    scheduled: u64,
    completed: u64,
    rejected: u64,
    achieved_qps: f64,
    /// On-wire bytes the senders received for their completed queries.
    bytes_in: u64,
    latency: LatencyHistogram,
}

/// One open-loop tier: arrivals on a strict clock at `offered` per second,
/// spread round-robin over the sender connections.
fn run_tier(addr: std::net::SocketAddr, config: &BenchConfig, offered: u64) -> TierResult {
    let duration = Duration::from_millis(config.duration_ms);
    // A small lead lets every sender connect before arrival 0 is due.
    let clock = ArrivalClock::new(offered, duration, Duration::from_millis(5));
    let connections = config.connections;

    let senders: Vec<_> = (0..connections)
        .map(|c| {
            thread::spawn(move || {
                let mut client =
                    Client::connect(addr, &format!("bench-{c}")).expect("connect sender");
                let specs: Vec<QuerySpec> = (0..5)
                    .map(|i| QuerySpec::new(query_text(2000 + ((c + i) % 20) as i64)))
                    .collect();
                let mut latency = LatencyHistogram::new();
                let (mut completed, mut rejected, mut scheduled) = (0u64, 0u64, 0u64);
                let mut bytes_in = 0u64;
                // This sender owns arrivals c, c+C, c+2C, …
                let mut i = c as u64;
                while let Some(arrival) = clock.wait_for(i) {
                    scheduled += 1;
                    let before = client.bytes_in();
                    match client.query(&specs[(i as usize / connections) % specs.len()]) {
                        Ok(_) => {
                            completed += 1;
                            bytes_in += client.bytes_in() - before;
                            latency.record(arrival.elapsed().as_micros() as u64);
                        }
                        Err(e) if e.code() == Some(ErrorCode::Overloaded) => rejected += 1,
                        Err(e) => panic!("sender {c}: {e}"),
                    }
                    i += connections as u64;
                }
                client.goodbye().expect("goodbye");
                (completed, rejected, scheduled, bytes_in, latency)
            })
        })
        .collect();

    let mut result = TierResult {
        offered_qps: offered,
        scheduled: 0,
        completed: 0,
        rejected: 0,
        achieved_qps: 0.0,
        bytes_in: 0,
        latency: LatencyHistogram::new(),
    };
    for sender in senders {
        let (completed, rejected, scheduled, bytes_in, latency) =
            sender.join().expect("sender panicked");
        result.completed += completed;
        result.bytes_in += bytes_in;
        result.rejected += rejected;
        result.scheduled += scheduled;
        result.latency.merge(&latency);
    }
    result.achieved_qps = result.completed as f64 / duration.as_secs_f64();
    result
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match BenchConfig::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bench_net: {e}");
            eprintln!(
                "usage: bench_net [--smoke] [--movies N] [--offered Q1,Q2,..] \
                 [--duration-ms D] [--connections C] [--max-in-flight M] \
                 [--out PATH] [--max-p99-ms X]"
            );
            std::process::exit(2);
        }
    };

    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    let graph = build_graph(config.movies);
    let schema = build_schema(&graph, config.movies);
    println!(
        "base graph: {} nodes, {} edges; {} cores available",
        graph.node_count(),
        graph.edge_count(),
        cores
    );
    let server = Arc::new(Server::new(graph, &schema));
    let handle = NetServer::start(
        Arc::clone(&server),
        NetServerConfig {
            max_in_flight: config.max_in_flight,
            ..NetServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = handle.local_addr();

    let tiers: Vec<TierResult> = config
        .offered
        .iter()
        .map(|&offered| {
            let tier = run_tier(addr, &config, offered);
            println!(
                "offered {:>6} qps: {:>6.0} achieved, {:>5} rejected ({:.1}%), \
                 p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms",
                tier.offered_qps,
                tier.achieved_qps,
                tier.rejected,
                100.0 * tier.rejected as f64 / tier.scheduled.max(1) as f64,
                tier.latency.quantile(0.5) as f64 / 1_000.0,
                tier.latency.quantile(0.95) as f64 / 1_000.0,
                tier.latency.quantile(0.99) as f64 / 1_000.0,
            );
            tier
        })
        .collect();
    // The server's own account of the same requests, phase by phase.
    let layers = Client::connect(addr, "bench-layers")
        .and_then(|mut client| {
            let stats = client.stats()?;
            client.goodbye()?;
            Ok(stats)
        })
        .expect("stats frame");
    let layers = layers
        .get("server")
        .and_then(|server| server.get("phases_us"))
        .expect("the stats frame carries phases_us")
        .render();
    assert!(handle.shutdown(), "bench server drains cleanly");

    let tier_json: Vec<String> = tiers
        .iter()
        .map(|t| {
            format!(
                "      {{\"offered_qps\": {}, \"scheduled\": {}, \"completed\": {}, \
                 \"rejected\": {}, \"reject_rate\": {:.4}, \"achieved_qps\": {:.0}, \
                 \"latency_us\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}, \"mean\": {}, \
                 \"max\": {}}}}}",
                t.offered_qps,
                t.scheduled,
                t.completed,
                t.rejected,
                t.rejected as f64 / t.scheduled.max(1) as f64,
                t.achieved_qps,
                t.latency.quantile(0.5),
                t.latency.quantile(0.95),
                t.latency.quantile(0.99),
                t.latency.mean(),
                t.latency.max(),
            )
        })
        .collect();
    let (completed, bytes_in) = tiers
        .iter()
        .fold((0, 0), |(c, b), t| (c + t.completed, b + t.bytes_in));
    let tcp_json = format!(
        "{{\n    \"config\": {{\"movies\": {}, \"duration_ms\": {}, \"connections\": {}, \
         \"max_in_flight\": {}, \"cores\": {}}},\n    \
         \"bytes_in_per_query\": {},\n    \"layers\": {layers},\n    \
         \"tiers\": [\n{}\n    ]\n  }}",
        config.movies,
        config.duration_ms,
        config.connections,
        config.max_in_flight,
        cores,
        bytes_in / completed.max(1),
        tier_json.join(",\n")
    );

    // Merge into the closed-loop report: replace an existing `"tcp"`
    // section, or append one before the closing brace.
    let report = match std::fs::read_to_string(&config.out) {
        Ok(text) => match text.find("\"tcp\":") {
            Some(idx) => format!("{}\"tcp\": {tcp_json}\n}}\n", &text[..idx]),
            None => {
                let base = text
                    .trim_end()
                    .strip_suffix('}')
                    .expect("report ends with a JSON object")
                    .trim_end();
                format!("{base},\n  \"tcp\": {tcp_json}\n}}\n")
            }
        },
        Err(_) => format!("{{\n  \"tcp\": {tcp_json}\n}}\n"),
    };
    std::fs::write(&config.out, &report).expect("write bench report");
    println!("report -> {} (tcp section)", config.out);
    if let Some(max) = config.max_p99_ms {
        // Gate the lowest tier only: the overload tiers oversubscribe the
        // cores by design.
        let p99_ms = tiers[0].latency.quantile(0.99) as f64 / 1_000.0;
        if p99_ms > max {
            eprintln!(
                "bench_net: REGRESSION — p99 at {} offered qps is {p99_ms:.2} ms, \
                 above the allowed {max:.2} ms (on {cores} cores)",
                tiers[0].offered_qps
            );
            std::process::exit(1);
        }
    }
}
