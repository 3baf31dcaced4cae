//! Closed-loop serving throughput benchmark: queries/sec at 1/2/4/8 worker
//! threads under a mixed read+update workload.
//!
//! Each thread tier gets a **fresh server** over the same base graph. Worker
//! threads pin the current snapshot and execute bounded queries back-to-back
//! until the deadline; one writer thread concurrently commits update batches
//! (insert a movie cluster, periodically remove the oldest one) at a fixed
//! cadence, exercising copy-on-write snapshots plus incremental index
//! maintenance. Readers are never blocked by the writer, so on a machine
//! with enough cores throughput scales with the worker count; the report
//! records the available parallelism so single-core results are
//! interpretable. Results land in JSON (default `BENCH_serve.json`).
//!
//! ```sh
//! cargo run --release -p bgpq-serve --bin bench_serve            # full run
//! cargo run --release -p bgpq-serve --bin bench_serve -- --smoke # CI smoke
//! ```

use bgpq_engine::{AccessConstraint, AccessSchema, QueryRequest, StrategyKind};
use bgpq_graph::{Graph, GraphBuilder, NodeId, Value};
use bgpq_pattern::{Pattern, PatternBuilder, Predicate};
use bgpq_serve::{Server, Update};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

struct BenchConfig {
    /// Movie clusters in the generated base graph.
    movies: usize,
    /// Distinct queries in the read workload.
    queries: usize,
    /// Closed-loop measurement window per thread tier.
    duration_ms: u64,
    /// Worker-thread tiers to measure.
    threads: Vec<usize>,
    /// Pause between writer commits (the update cadence).
    writer_period_us: u64,
    /// Output path for the JSON report.
    out: String,
    /// Exit non-zero when the best multi-thread qps falls below
    /// `min_scaling ×` the single-thread qps.
    min_scaling: Option<f64>,
}

impl BenchConfig {
    fn parse(args: &[String]) -> Result<Self, String> {
        let smoke = args.iter().any(|a| a == "--smoke");
        let mut config = if smoke {
            BenchConfig {
                movies: 300,
                queries: 5,
                duration_ms: 150,
                threads: vec![1, 2, 4],
                writer_period_us: 3_000,
                out: "BENCH_serve.json".to_string(),
                min_scaling: None,
            }
        } else {
            BenchConfig {
                movies: 2_000,
                queries: 10,
                duration_ms: 400,
                threads: vec![1, 2, 4, 8],
                writer_period_us: 3_000,
                out: "BENCH_serve.json".to_string(),
                min_scaling: None,
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
                "--queries" => config.queries = parse_num(&value_for("--queries")?)?,
                "--duration-ms" => {
                    config.duration_ms = parse_num(&value_for("--duration-ms")?)? as u64
                }
                "--writer-period-us" => {
                    config.writer_period_us = parse_num(&value_for("--writer-period-us")?)? as u64
                }
                "--threads" => {
                    let raw = value_for("--threads")?;
                    config.threads = raw
                        .split(',')
                        .map(parse_num)
                        .collect::<Result<Vec<_>, _>>()?;
                }
                "--out" => config.out = value_for("--out")?,
                "--min-scaling" => {
                    let raw = value_for("--min-scaling")?;
                    config.min_scaling =
                        Some(raw.parse().map_err(|_| format!("not a number: {raw:?}"))?);
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if config.queries == 0 || config.duration_ms == 0 || config.threads.is_empty() {
            return Err("--queries, --duration-ms and --threads must be non-empty".into());
        }
        Ok(config)
    }
}

fn parse_num(s: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("not a number: {s:?}"))
}

/// Anchor nodes of the base graph the writer links new clusters to.
struct Anchors {
    years: Vec<NodeId>,
    awards: Vec<NodeId>,
    countries: Vec<NodeId>,
}

/// The IMDb-shaped base graph of the engine bench: `movies` clusters, each a
/// movie linked from a (year, award) pair and to 2 actors.
fn build_graph(movies: usize) -> (Graph, Anchors) {
    let mut b = GraphBuilder::new();
    let years: Vec<_> = (0..20)
        .map(|i| b.add_node("year", Value::Int(2000 + i)))
        .collect();
    let awards: Vec<_> = (0..5)
        .map(|i| b.add_node("award", Value::str(format!("award{i}"))))
        .collect();
    let countries: Vec<_> = (0..10)
        .map(|i| b.add_node("country", Value::str(format!("c{i}"))))
        .collect();
    for i in 0..movies {
        let m = b.add_node("movie", Value::Int(i as i64));
        b.add_edge(years[i % years.len()], m).unwrap();
        b.add_edge(awards[i % awards.len()], m).unwrap();
        for j in 0..2 {
            let a = b.add_node("actor", Value::Int((10 * i + j) as i64));
            b.add_edge(m, a).unwrap();
            b.add_edge(a, countries[(i + j) % countries.len()]).unwrap();
        }
    }
    (
        b.build(),
        Anchors {
            years,
            awards,
            countries,
        },
    )
}

fn build_schema(graph: &Graph, movies: usize) -> AccessSchema {
    let l = |name: &str| graph.interner().get(name).unwrap();
    // Generous bounds: the writer adds clusters while the bench runs.
    let per_pair = movies / 10 + 10;
    AccessSchema::from_constraints([
        AccessConstraint::global(l("year"), 20),
        AccessConstraint::global(l("award"), 5),
        AccessConstraint::new([l("year"), l("award")], l("movie"), per_pair),
        AccessConstraint::unary(l("movie"), l("actor"), 8),
        AccessConstraint::unary(l("actor"), l("country"), 1),
    ])
}

fn build_query(graph: &Graph, year: i64) -> Pattern {
    let mut pb = PatternBuilder::with_interner(graph.interner().clone());
    let m = pb.node("movie", Predicate::always());
    let y = pb.node("year", Predicate::single(bgpq_pattern::Op::Eq, year));
    let a = pb.node("award", Predicate::always());
    let act = pb.node("actor", Predicate::always());
    pb.edge(y, m);
    pb.edge(a, m);
    pb.edge(m, act);
    pb.build()
}

/// The batch inserting one movie cluster (movie + 2 actors + 4 edges),
/// given the id the next inserted node will receive.
fn insert_cluster_batch(anchors: &Anchors, round: usize, next_id: u32) -> Vec<Update> {
    let movie = NodeId(next_id);
    let actor0 = NodeId(next_id + 1);
    let actor1 = NodeId(next_id + 2);
    vec![
        Update::AddNode {
            label: "movie".into(),
            value: Value::Int(1_000_000 + round as i64),
        },
        Update::AddNode {
            label: "actor".into(),
            value: Value::Int(2_000_000 + round as i64),
        },
        Update::AddNode {
            label: "actor".into(),
            value: Value::Int(3_000_000 + round as i64),
        },
        Update::AddEdge {
            src: anchors.years[round % anchors.years.len()],
            dst: movie,
        },
        Update::AddEdge {
            src: anchors.awards[round % anchors.awards.len()],
            dst: movie,
        },
        Update::AddEdge {
            src: movie,
            dst: actor0,
        },
        Update::AddEdge {
            src: movie,
            dst: actor1,
        },
        Update::AddEdge {
            src: actor0,
            dst: anchors.countries[round % anchors.countries.len()],
        },
        Update::AddEdge {
            src: actor1,
            dst: anchors.countries[(round + 1) % anchors.countries.len()],
        },
    ]
}

struct TierResult {
    threads: usize,
    queries: u64,
    answers: u64,
    qps: f64,
    commits: u64,
    avg_commit_us: f64,
    avg_delta_apply_us: f64,
    nodes_touched: u64,
    final_version: u64,
    plan_cache_invalidations: u64,
    fragment_cache_hits: u64,
    fragment_cache_invalidations: u64,
}

/// One closed-loop measurement: `threads` readers hammering the server while
/// one writer commits at a fixed cadence.
fn run_tier(
    base_graph: &Graph,
    schema: &AccessSchema,
    anchors: &Anchors,
    queries: &[Pattern],
    threads: usize,
    duration: Duration,
    writer_period: Duration,
) -> TierResult {
    let server = Arc::new(Server::new(base_graph.clone(), schema));
    let stop = Arc::new(AtomicBool::new(false));

    let writer = {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        let anchors = Anchors {
            years: anchors.years.clone(),
            awards: anchors.awards.clone(),
            countries: anchors.countries.clone(),
        };
        thread::spawn(move || {
            let mut round = 0usize;
            // (movie, actor, actor) clusters added by this writer, oldest first.
            let mut live_clusters: Vec<[NodeId; 3]> = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let next_id = server.snapshot().graph().node_count() as u32;
                let batch = insert_cluster_batch(&anchors, round, next_id);
                server.commit(&batch).expect("writer batches are valid");
                live_clusters.push([NodeId(next_id), NodeId(next_id + 1), NodeId(next_id + 2)]);
                // Every other round, retire the oldest cluster so the mix
                // exercises node/edge deletion too.
                if round % 2 == 1 {
                    let oldest = live_clusters.remove(0);
                    let batch: Vec<Update> = oldest
                        .iter()
                        .map(|&node| Update::RemoveNode { node })
                        .collect();
                    server.commit(&batch).expect("cluster nodes are live");
                }
                round += 1;
                thread::sleep(writer_period);
            }
        })
    };

    let deadline = Instant::now() + duration;
    let workers: Vec<_> = (0..threads)
        .map(|w| {
            let server = Arc::clone(&server);
            let queries: Vec<Pattern> = queries.to_vec();
            thread::spawn(move || {
                let mut served = 0u64;
                let mut answers = 0u64;
                let mut i = w; // stagger the starting query per worker
                while Instant::now() < deadline {
                    let q = &queries[i % queries.len()];
                    let response = server
                        .execute(&QueryRequest::build(q.clone()).finish())
                        .expect("serving queries never fail");
                    // The schema keeps these queries bounded throughout.
                    assert_eq!(response.strategy, StrategyKind::Bounded);
                    answers += response.answer.len() as u64;
                    served += 1;
                    i += 1;
                }
                (served, answers)
            })
        })
        .collect();

    let mut total_queries = 0u64;
    let mut total_answers = 0u64;
    for worker in workers {
        let (served, answers) = worker.join().expect("worker panicked");
        total_queries += served;
        total_answers += answers;
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().expect("writer panicked");

    let stats = server.stats();
    let engine_stats = server.snapshot().engine().stats();
    TierResult {
        threads,
        queries: total_queries,
        answers: total_answers,
        qps: total_queries as f64 / duration.as_secs_f64(),
        commits: stats.commits,
        avg_commit_us: stats.commit_nanos as f64 / stats.commits.max(1) as f64 / 1_000.0,
        avg_delta_apply_us: stats.delta_apply_nanos as f64 / stats.commits.max(1) as f64 / 1_000.0,
        nodes_touched: stats.nodes_touched,
        final_version: stats.epoch,
        plan_cache_invalidations: engine_stats.plan_cache_invalidations,
        fragment_cache_hits: engine_stats.fragment_cache_hits,
        fragment_cache_invalidations: engine_stats.fragment_cache_invalidations,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match BenchConfig::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bench_serve: {e}");
            eprintln!(
                "usage: bench_serve [--smoke] [--movies N] [--queries K] [--duration-ms D] \
                 [--threads 1,2,4,8] [--writer-period-us U] [--out PATH] [--min-scaling X]"
            );
            std::process::exit(2);
        }
    };

    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    let (graph, anchors) = build_graph(config.movies);
    let schema = build_schema(&graph, config.movies);
    println!(
        "base graph: {} nodes, {} edges; {} cores available",
        graph.node_count(),
        graph.edge_count(),
        cores
    );

    let queries: Vec<Pattern> = (0..config.queries)
        .map(|i| build_query(&graph, 2000 + (i % 20) as i64))
        .collect();

    let duration = Duration::from_millis(config.duration_ms);
    let writer_period = Duration::from_micros(config.writer_period_us);
    let tiers: Vec<TierResult> = config
        .threads
        .iter()
        .map(|&threads| {
            let tier = run_tier(
                &graph,
                &schema,
                &anchors,
                &queries,
                threads,
                duration,
                writer_period,
            );
            println!(
                "{:>2} worker(s): {:>8.0} qps ({} queries, {} commits of {:.1} us avg, \
                 of which delta apply {:.1} us, final version {}, \
                 {} fragment-cache hits / {} invalidations)",
                tier.threads,
                tier.qps,
                tier.queries,
                tier.commits,
                tier.avg_commit_us,
                tier.avg_delta_apply_us,
                tier.final_version,
                tier.fragment_cache_hits,
                tier.fragment_cache_invalidations
            );
            tier
        })
        .collect();

    let single = tiers.iter().find(|t| t.threads == 1);
    let best_multi = tiers
        .iter()
        .filter(|t| t.threads > 1)
        .max_by(|a, b| a.qps.total_cmp(&b.qps));
    let scaling = match (single, best_multi) {
        (Some(s), Some(m)) if s.qps > 0.0 => Some((m.threads, m.qps / s.qps)),
        _ => None,
    };

    let tier_json: Vec<String> = tiers
        .iter()
        .map(|t| {
            format!(
                "    {{\"threads\": {}, \"queries\": {}, \"answers\": {}, \"qps\": {:.0}, \
                 \"commits\": {}, \"avg_commit_us\": {:.1}, \"avg_delta_apply_us\": {:.1}, \
                 \"nodes_touched\": {}, \"final_version\": {}, \
                 \"plan_cache_invalidations\": {}, \"fragment_cache_hits\": {}, \
                 \"fragment_cache_invalidations\": {}}}",
                t.threads,
                t.queries,
                t.answers,
                t.qps,
                t.commits,
                t.avg_commit_us,
                t.avg_delta_apply_us,
                t.nodes_touched,
                t.final_version,
                t.plan_cache_invalidations,
                t.fragment_cache_hits,
                t.fragment_cache_invalidations
            )
        })
        .collect();
    let scaling_json = match scaling {
        Some((threads, factor)) => format!(
            "{{\"best_multi_threads\": {threads}, \"best_multi_over_single\": {factor:.2}}}"
        ),
        None => "null".to_string(),
    };
    let report = format!(
        "{{\n  \"config\": {{\"movies\": {}, \"queries\": {}, \"duration_ms\": {}, \
         \"writer_period_us\": {}, \"cores\": {}}},\n  \"graph\": {{\"nodes\": {}, \"edges\": {}}},\n  \
         \"tiers\": [\n{}\n  ],\n  \"scaling\": {}\n}}\n",
        config.movies,
        config.queries,
        config.duration_ms,
        config.writer_period_us,
        cores,
        graph.node_count(),
        graph.edge_count(),
        tier_json.join(",\n"),
        scaling_json
    );
    std::fs::write(&config.out, &report).expect("write bench report");
    println!("report -> {}", config.out);

    if let Some(min) = config.min_scaling {
        match scaling {
            Some((threads, factor)) => {
                if factor < min {
                    eprintln!(
                        "bench_serve: REGRESSION — {threads}-thread qps is only {factor:.2}x \
                         the single-thread qps (required: {min:.2}x, cores: {cores})"
                    );
                    std::process::exit(1);
                }
                println!("bench_serve: scaling gate passed ({factor:.2}x >= {min:.2}x)");
            }
            None => {
                eprintln!(
                    "bench_serve: --min-scaling needs a 1-thread tier and a multi-thread tier"
                );
                std::process::exit(2);
            }
        }
    }
}
