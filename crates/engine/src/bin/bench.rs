//! Dependency-free benchmark: `VF2` vs `optVF2` vs `bVF2` through the engine.
//!
//! Builds a deterministic IMDb-shaped graph, an access schema that makes the
//! query family effectively bounded, and times the three evaluation tiers on
//! a repeated workload — repeats exercise the engine's plan cache. Results
//! are written as JSON (default `BENCH_engine.json`), seeding the
//! workspace's performance trajectory.
//!
//! ```sh
//! cargo run --release -p bgpq-engine --bin bench            # full run
//! cargo run --release -p bgpq-engine --bin bench -- --smoke # CI smoke run
//! ```

use bgpq_engine::{
    apply_deltas, discover_schema, load_snapshot, opt_subgraph_match, save_snapshot,
    AccessConstraint, AccessIndexSet, AccessSchema, CacheOutcome, DiscoveryConfig, Engine, Graph,
    GraphBuilder, GraphDelta, QueryRequest, Semantics, StrategyKind, SubgraphMatcher,
};
use bgpq_graph::bitset::dedup_with_bitset;
use bgpq_graph::io::{load_graph, load_graph_snapshot, load_jsonl, save_graph_snapshot};
use bgpq_graph::{NodeBitSet, NodeId, Value};
use bgpq_pattern::{Pattern, PatternBuilder, Predicate};
use bgpq_workload::{
    generate_workload, stream_graph, ArrivalClock, LatencyHistogram, Scenario, ScenarioConfig,
    WorkloadConfig,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Benchmark parameters, overridable from the command line.
struct BenchConfig {
    /// Number of movie stars in the generated graph.
    movies: usize,
    /// Distinct queries in the workload (distinct year predicates).
    queries: usize,
    /// How many times the whole workload repeats (cache-hit rounds).
    rounds: usize,
    /// Output path for the JSON report.
    out: String,
    /// Exit non-zero when `speedup.vf2_over_bvf2` falls below this (the CI
    /// bench-regression gate).
    min_speedup: Option<f64>,
    /// Exit non-zero when any checked-in dataset's binary-over-text load
    /// speedup falls below this.
    min_load_speedup: Option<f64>,
    /// Exit non-zero when the fragment-cache hit speedup (uncached bVF2
    /// latency over cache-hit latency on the hot query) falls below this.
    min_fragment_hit_speedup: Option<f64>,
    /// Exit non-zero when the bitmap-dedup speedup over the sorted-vec
    /// baseline falls below this (1.0 = "no worse than sorting the raw
    /// union").
    min_bitmap_speedup: Option<f64>,
    /// Run only the open-loop section (plus the graph/engine it needs) —
    /// the fast CI gate mode behind `--open-loop`.
    open_loop_only: bool,
    /// Offered-load tiers of the open-loop section, queries per second.
    offered: Vec<u64>,
    /// Open-loop measurement window per tier.
    duration_ms: u64,
    /// Concurrent executor lanes of the open-loop section.
    lanes: usize,
    /// Exit non-zero when the *lowest* offered tier's p99 exceeds this many
    /// milliseconds (higher tiers deliberately overload the engine, so
    /// their queueing-inflated p99 is data, not a regression signal).
    max_p99_ms: Option<f64>,
    /// `|G|` scales of the fragment-scaling section.
    scales: Vec<usize>,
    /// Queries per scale in the fragment-scaling workload.
    workload_queries: usize,
    /// Exit non-zero when avg `|G_Q|` at the largest scale exceeds this
    /// multiple of avg `|G_Q|` at the smallest — the scale-invariance gate
    /// (bounded fragments must not track `|G|`).
    max_fragment_growth: Option<f64>,
    /// Exit non-zero when `avg_query_us` at the largest scale exceeds this
    /// multiple of `avg_query_us` at the smallest — the wall-clock side of
    /// the same claim (a bounded query's latency must not track `|G|`).
    max_latency_growth: Option<f64>,
    /// Exit non-zero when `maintenance_us_per_batch` at the largest scale
    /// exceeds this multiple of it at the smallest — the update side of the
    /// claim (index maintenance must not track `|G|`).
    max_maintenance_growth: Option<f64>,
    /// Exit non-zero when `commit_us` at the largest scale exceeds this
    /// multiple of it at the smallest (a whole copy-on-write commit must not
    /// track `|G|` either).
    max_commit_growth: Option<f64>,
}

impl BenchConfig {
    fn parse(args: &[String]) -> Result<Self, String> {
        // --smoke only swaps the defaults; explicit flags always win,
        // regardless of the order they appear in.
        let smoke = args.iter().any(|a| a == "--smoke");
        let mut config = if smoke {
            BenchConfig {
                movies: 300,
                queries: 5,
                rounds: 2,
                out: "BENCH_engine.json".to_string(),
                min_speedup: None,
                min_load_speedup: None,
                min_fragment_hit_speedup: None,
                min_bitmap_speedup: None,
                open_loop_only: false,
                offered: vec![200, 1_000],
                duration_ms: 150,
                lanes: 4,
                max_p99_ms: None,
                scales: vec![2_000, 10_000, 50_000],
                workload_queries: 8,
                max_fragment_growth: None,
                max_latency_growth: None,
                max_maintenance_growth: None,
                max_commit_growth: None,
            }
        } else {
            BenchConfig {
                movies: 3000,
                queries: 10,
                rounds: 3,
                out: "BENCH_engine.json".to_string(),
                min_speedup: None,
                min_load_speedup: None,
                min_fragment_hit_speedup: None,
                min_bitmap_speedup: None,
                open_loop_only: false,
                offered: vec![500, 2_000, 8_000],
                duration_ms: 400,
                lanes: 4,
                max_p99_ms: None,
                scales: vec![10_000, 100_000, 1_000_000],
                workload_queries: 12,
                max_fragment_growth: None,
                max_latency_growth: None,
                max_maintenance_growth: None,
                max_commit_growth: None,
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
                "--rounds" => config.rounds = parse_num(&value_for("--rounds")?)?,
                "--out" => config.out = value_for("--out")?,
                "--min-speedup" => {
                    let raw = value_for("--min-speedup")?;
                    config.min_speedup =
                        Some(raw.parse().map_err(|_| format!("not a number: {raw:?}"))?);
                }
                "--min-load-speedup" => {
                    let raw = value_for("--min-load-speedup")?;
                    config.min_load_speedup =
                        Some(raw.parse().map_err(|_| format!("not a number: {raw:?}"))?);
                }
                "--min-fragment-hit-speedup" => {
                    let raw = value_for("--min-fragment-hit-speedup")?;
                    config.min_fragment_hit_speedup =
                        Some(raw.parse().map_err(|_| format!("not a number: {raw:?}"))?);
                }
                "--min-bitmap-speedup" => {
                    let raw = value_for("--min-bitmap-speedup")?;
                    config.min_bitmap_speedup =
                        Some(raw.parse().map_err(|_| format!("not a number: {raw:?}"))?);
                }
                "--open-loop" => config.open_loop_only = true,
                "--offered" => {
                    config.offered = value_for("--offered")?
                        .split(',')
                        .map(|s| parse_num(s).map(|n| n as u64))
                        .collect::<Result<Vec<_>, _>>()?;
                }
                "--duration-ms" => {
                    config.duration_ms = parse_num(&value_for("--duration-ms")?)? as u64
                }
                "--lanes" => config.lanes = parse_num(&value_for("--lanes")?)?,
                "--max-p99-ms" => {
                    let raw = value_for("--max-p99-ms")?;
                    config.max_p99_ms =
                        Some(raw.parse().map_err(|_| format!("not a number: {raw:?}"))?);
                }
                "--scales" => {
                    config.scales = value_for("--scales")?
                        .split(',')
                        .map(parse_num)
                        .collect::<Result<Vec<_>, _>>()?;
                }
                "--workload-queries" => {
                    config.workload_queries = parse_num(&value_for("--workload-queries")?)?
                }
                "--max-fragment-growth" => {
                    let raw = value_for("--max-fragment-growth")?;
                    config.max_fragment_growth =
                        Some(raw.parse().map_err(|_| format!("not a number: {raw:?}"))?);
                }
                "--max-latency-growth" => {
                    let raw = value_for("--max-latency-growth")?;
                    config.max_latency_growth =
                        Some(raw.parse().map_err(|_| format!("not a number: {raw:?}"))?);
                }
                "--max-maintenance-growth" => {
                    let raw = value_for("--max-maintenance-growth")?;
                    config.max_maintenance_growth =
                        Some(raw.parse().map_err(|_| format!("not a number: {raw:?}"))?);
                }
                "--max-commit-growth" => {
                    let raw = value_for("--max-commit-growth")?;
                    config.max_commit_growth =
                        Some(raw.parse().map_err(|_| format!("not a number: {raw:?}"))?);
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if config.queries == 0 || config.rounds == 0 {
            return Err("--queries and --rounds must be positive".into());
        }
        if config.offered.is_empty() || config.duration_ms == 0 || config.lanes == 0 {
            return Err("--offered, --duration-ms and --lanes must be non-empty".into());
        }
        if config.scales.len() < 2 || config.workload_queries == 0 {
            return Err("--scales needs at least two scales, --workload-queries > 0".into());
        }
        Ok(config)
    }
}

fn parse_num(s: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("not a number: {s:?}"))
}

/// A scaled version of the paper's running example: `movies` movie stars,
/// each linked from a (year, award) pair and to actors, plus noise nodes
/// bounded evaluation must never touch.
fn build_graph(movies: usize) -> Graph {
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
        for j in 0..3 {
            let a = b.add_node("actor", Value::Int((10 * i + j) as i64));
            b.add_edge(m, a).unwrap();
            b.add_edge(a, countries[(i + j) % countries.len()]).unwrap();
        }
    }
    // Unrelated noise: visible to whole-graph scans, invisible to the fetch.
    for i in 0..movies {
        b.add_node("noise", Value::Int(i as i64));
    }
    b.build()
}

/// The access schema the generator satisfies by construction.
fn build_schema(graph: &Graph, movies: usize) -> AccessSchema {
    let l = |name: &str| graph.interner().get(name).unwrap();
    let per_pair = movies / 20 + 1;
    AccessSchema::from_constraints([
        AccessConstraint::global(l("year"), 20),
        AccessConstraint::global(l("award"), 5),
        AccessConstraint::new([l("year"), l("award")], l("movie"), per_pair),
        AccessConstraint::unary(l("movie"), l("actor"), 3),
        AccessConstraint::unary(l("actor"), l("country"), 1),
    ])
}

/// The repeated hot query for the fragment-cache comparison: broad
/// `always()` predicates on the pair-key side (every year × award, so the
/// fetch issues the full lookup fan-out) with one selective leaf predicate
/// (so matching on the fetched fragment is cheap). Fetch-dominated by
/// construction — the case the fragment cache exists for.
fn build_hot_query(graph: &Graph) -> Pattern {
    let mut pb = PatternBuilder::with_interner(graph.interner().clone());
    let m = pb.node("movie", Predicate::always());
    let y = pb.node("year", Predicate::always());
    let a = pb.node("award", Predicate::always());
    let act = pb.node("actor", Predicate::single(bgpq_pattern::Op::Eq, 5));
    pb.edge(y, m);
    pb.edge(a, m);
    pb.edge(m, act);
    pb.build()
}

/// What the fragment-cache comparison measured on the hot query.
struct FragmentCacheBench {
    uncached: Timing,
    hit: Timing,
    fragment_nodes: u64,
    lookups_per_miss: u64,
}

impl FragmentCacheBench {
    fn hit_speedup(&self) -> f64 {
        self.uncached.avg_micros() / self.hit.avg_micros().max(0.001)
    }
}

/// Times the hot query through a fragment-cache-disabled engine (every run
/// re-fetches) against cache hits on a warmed engine. Answers are asserted
/// identical; only the fetch work differs.
fn bench_fragment_cache(engine: &Engine, reps: usize) -> FragmentCacheBench {
    let hot = build_hot_query(engine.graph());
    let request = QueryRequest::build(hot)
        .strategy(StrategyKind::Bounded)
        .finish();
    let uncached_engine = Engine::with_indices(engine.graph().clone(), engine.indices().clone())
        .with_fragment_cache_capacity(0);

    // Warm both plan caches (and `engine`'s fragment cache) untimed so the
    // timed loops compare pure fetch-vs-hit work.
    let warm = uncached_engine
        .execute(&request)
        .expect("hot query bounded");
    let first = engine.execute(&request).expect("hot query bounded");
    assert_eq!(first.answer, warm.answer, "cached diverged from uncached");
    let lookups_per_miss = first.stats.fetch.as_ref().map_or(0, |f| f.index_lookups);
    let fragment_nodes = first
        .stats
        .fetch
        .as_ref()
        .map_or(0, |f| f.fragment_nodes as u64);

    let mut uncached = Timing::default();
    let mut hit = Timing::default();
    for _ in 0..reps {
        let t = Instant::now();
        let response = uncached_engine.execute(&request).expect("bounded");
        uncached.record(t.elapsed().as_nanos(), response.answer.len());
        assert_eq!(response.stats.fragment_cache, Some(CacheOutcome::Bypass));

        let t = Instant::now();
        let response = engine.execute(&request).expect("bounded");
        hit.record(t.elapsed().as_nanos(), response.answer.len());
        assert_eq!(response.stats.fragment_cache, Some(CacheOutcome::Hit));
        assert_eq!(response.answer, warm.answer, "hit diverged from uncached");
    }
    FragmentCacheBench {
        uncached,
        hit,
        fragment_nodes,
        lookups_per_miss,
    }
}

/// What the bitmap-vs-sorted-vec dedup comparison measured.
struct BitmapBench {
    sorted_vec: Timing,
    bitmap: Timing,
    union_len: usize,
    unique: usize,
}

impl BitmapBench {
    fn speedup(&self) -> f64 {
        self.sorted_vec.avg_micros() / self.bitmap.avg_micros().max(0.001)
    }
}

/// Times the candidate-fetch dedup strategies head to head on the union
/// shape `fetch_candidate_sets` actually sees: the concatenation of every
/// (year, award) key side's neighbor list, where each movie appears once
/// per incident key. The baseline sorts the raw duplicated union and
/// `dedup()`s; the bitmap path drops repeats in O(n) first and sorts only
/// the survivors.
fn bench_bitmap_dedup(graph: &Graph, reps: usize) -> BitmapBench {
    let mut union_template: Vec<NodeId> = Vec::new();
    for label in ["year", "award"] {
        let id = graph.interner().get(label).expect("bench label exists");
        for &key in graph.nodes_with_label(id) {
            union_template.extend_from_slice(graph.out_neighbors(key));
        }
    }
    let mut seen = NodeBitSet::with_capacity(graph.node_count());

    let mut sorted_vec = Timing::default();
    let mut bitmap = Timing::default();
    let mut baseline: Vec<NodeId> = Vec::new();
    for rep in 0..reps.max(10) {
        let mut v = union_template.clone();
        let t = Instant::now();
        v.sort_unstable();
        v.dedup();
        sorted_vec.record(t.elapsed().as_nanos(), v.len());
        if rep == 0 {
            baseline = v.clone();
        }
        std::hint::black_box(&v);

        let mut v = union_template.clone();
        let t = Instant::now();
        dedup_with_bitset(&mut v, &mut seen);
        v.sort_unstable();
        bitmap.record(t.elapsed().as_nanos(), v.len());
        if rep == 0 {
            assert_eq!(v, baseline, "bitmap dedup diverged from sort+dedup");
        }
        std::hint::black_box(&v);
    }
    BitmapBench {
        sorted_vec,
        bitmap,
        union_len: union_template.len(),
        unique: baseline.len(),
    }
}

/// One open-loop tier's outcome.
struct OpenLoopTier {
    offered_qps: u64,
    scheduled: u64,
    completed: u64,
    achieved_qps: f64,
    latency: LatencyHistogram,
}

/// Open-loop execution directly against the engine: `lanes` executor
/// threads share one strict arrival clock at `offered` queries per second —
/// lane `c` owns arrivals `c, c+L, c+2L, …` — and latency is measured from
/// the *scheduled* arrival, so queueing delay past engine capacity shows up
/// in the percentiles instead of being absorbed by a coordinating sender
/// (no coordinated omission). The same clock + histogram drive the TCP
/// bench in `bgpq-net`; this is the engine-only counterpart.
fn run_open_loop_tier(
    engine: &Engine,
    requests: &[QueryRequest],
    offered: u64,
    duration: Duration,
    lanes: usize,
) -> OpenLoopTier {
    let clock = ArrivalClock::new(offered, duration, Duration::from_millis(2));
    let lane_results: Vec<(u64, u64, LatencyHistogram)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..lanes)
            .map(|c| {
                s.spawn(move || {
                    let mut latency = LatencyHistogram::new();
                    let (mut completed, mut scheduled) = (0u64, 0u64);
                    let mut i = c as u64;
                    while let Some(arrival) = clock.wait_for(i) {
                        scheduled += 1;
                        let request = &requests[i as usize % requests.len()];
                        engine
                            .execute(request)
                            .expect("open-loop queries are bounded");
                        completed += 1;
                        latency.record(arrival.elapsed().as_micros() as u64);
                        i += lanes as u64;
                    }
                    (completed, scheduled, latency)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lane panicked"))
            .collect()
    });
    let mut tier = OpenLoopTier {
        offered_qps: offered,
        scheduled: 0,
        completed: 0,
        achieved_qps: 0.0,
        latency: LatencyHistogram::new(),
    };
    for (completed, scheduled, latency) in lane_results {
        tier.completed += completed;
        tier.scheduled += scheduled;
        tier.latency.merge(&latency);
    }
    tier.achieved_qps = tier.completed as f64 / duration.as_secs_f64();
    tier
}

/// One `|G|` scale of the fragment-scaling sweep.
struct ScalePoint {
    scale: usize,
    nodes: usize,
    edges: usize,
    build_ms: f64,
    queries: usize,
    avg_fragment_nodes: f64,
    fragment_fraction: f64,
    avg_query_us: f64,
    /// avg parent adjacency entries read per view build: the work behind
    /// `avg_query_us`'s view-build share, counted rather than timed.
    avg_adjacency_reads: f64,
    maintenance_us_per_batch: f64,
    refreshed_per_batch: f64,
    /// One whole commit of the same batch, the way the serving layer pays
    /// for it: share the published graph and indices, replay, maintain,
    /// build the next engine, drop the superseded version.
    commit_us: f64,
    /// Where `commit_us` goes, in µs per commit: cloning the published
    /// graph and indices, replaying the batch, index maintenance, and
    /// dropping the superseded version (the rest is building the engine).
    commit_phases_us: [f64; 4],
}

/// Names of [`ScalePoint::commit_phases_us`], in order.
const COMMIT_PHASES: [&str; 4] = ["clone", "replay", "maintain", "retire"];

/// The fixed skewed-social recipe of the sweep: one seed and one knob set
/// pin the graph shape and value domains across every scale, so only `|G|`
/// varies between the sweep's points.
fn scaling_scenario(scale: usize) -> ScenarioConfig {
    ScenarioConfig {
        zipf: Some(1.1),
        hot_fraction: Some(0.5),
        domain: Some(50),
        ..ScenarioConfig::new(scale, 7)
    }
}

/// Fresh-post maintenance batches applied per scale point.
const MAINTENANCE_BATCHES: usize = 200;

/// Copy-on-write commits of the same batch timed per scale point.
const COMMIT_BATCHES: usize = 50;

/// One fresh post attached to a rotating author and tag: the update batch
/// of the maintenance and commit curves. Applies it to `graph` and returns
/// its deltas.
fn post_batch(
    graph: &mut Graph,
    users: &[NodeId],
    tags: &[NodeId],
    scale: usize,
    i: usize,
) -> [GraphDelta; 3] {
    let p = graph.insert_node("post", Value::Int((scale + i) as i64));
    let u = users[(i * 31) % users.len()];
    let tg = tags[(i * 17) % tags.len()];
    graph.insert_edge(u, p).expect("endpoints exist");
    graph.insert_edge(p, tg).expect("endpoints exist");
    [
        GraphDelta::InsertNode(p),
        GraphDelta::InsertEdge(u, p),
        GraphDelta::InsertEdge(p, tg),
    ]
}

/// Measures `avg |G_Q|` vs `|G|`, the incremental maintenance cost and the
/// cost of a whole commit on the same-seed skewed social scenario at each
/// scale: the paper's two size-independence claims (fragments bounded by
/// the plan, updates bounded by `|ΔG ∪ Nb(ΔG)|`) as curves.
fn bench_fragment_scaling(scales: &[usize], workload_queries: usize) -> Vec<ScalePoint> {
    scales
        .iter()
        .map(|&scale| {
            let t = Instant::now();
            let config = scaling_scenario(scale);
            let mut graph = stream_graph(Scenario::Social, &config);
            let schema = discover_schema(&graph, &DiscoveryConfig::simple());
            // Uncapped build: the workload generator certifies boundedness
            // against the schema alone, and the engine's planner excludes
            // constraints whose index truncated at the combination cap — a
            // truncated index here would turn certified-bounded queries into
            // refusals. Unary/global constraints keep this O(|E|) regardless.
            let mut indices = AccessIndexSet::build_with_cap(&graph, &schema, usize::MAX);
            let build_ms = t.elapsed().as_nanos() as f64 / 1e6;

            // Maintenance-cost curve: absorb fresh post + author + tag edge
            // batches. Locality says this cost must stay flat as |G| grows.
            let label = |name: &str| graph.interner().get(name).expect("social label exists");
            let users: Vec<NodeId> = graph.nodes_with_label(label("user")).to_vec();
            let tags: Vec<NodeId> = graph.nodes_with_label(label("tag")).to_vec();
            let mut maintenance_nanos = 0u128;
            let mut refreshed = 0u64;
            for i in 0..MAINTENANCE_BATCHES {
                let deltas = post_batch(&mut graph, &users, &tags, scale, i);
                let t = Instant::now();
                let stats = apply_deltas(&mut indices, &graph, &deltas);
                maintenance_nanos += t.elapsed().as_nanos();
                refreshed += stats.refreshed_contributions as u64;
            }

            // Commit-cost curve: the same batch as a serving commit. The
            // published version stays alive (readers may pin it) while its
            // copy-on-write successor is built, then is dropped — so the
            // number includes what sharing, un-sharing and freeing cost.
            // (`bgpq-serve` sits above this crate; this is `Server::commit`
            // minus its lock and pointer swap.)
            let mut engine = Engine::with_indices(graph, indices);
            let mut phase_nanos = [0u128; 4];
            let commits = Instant::now();
            for i in MAINTENANCE_BATCHES..MAINTENANCE_BATCHES + COMMIT_BATCHES {
                let t = Instant::now();
                let mut graph = engine.graph().clone();
                let mut indices = engine.indices().clone();
                let cloned = t.elapsed();
                let deltas = post_batch(&mut graph, &users, &tags, scale, i);
                let replayed = t.elapsed();
                apply_deltas(&mut indices, &graph, &deltas);
                let maintained = t.elapsed();
                let next = Engine::with_indices(graph, indices);
                let built = t.elapsed();
                engine = next;
                let retired = t.elapsed();
                let spans = [
                    cloned,
                    replayed - cloned,
                    maintained - replayed,
                    retired - built,
                ];
                for (total, span) in phase_nanos.iter_mut().zip(spans) {
                    *total += span.as_nanos();
                }
            }
            let commit_nanos = commits.elapsed().as_nanos();
            let graph = engine.graph();

            // Same-seed bounded workload at every scale: identical query
            // recipe, so avg |G_Q| tracking |G| would be a violation of the
            // boundedness contract, not workload drift.
            let wconfig = WorkloadConfig {
                queries: workload_queries,
                seed: 0x1CDE_2015,
                bounded_fraction: 1.0,
                selectivity: Some(0.5),
                min_nodes: 3,
                max_nodes: 5,
                semantics: Semantics::Isomorphism,
                shape_weights: [2, 1, 0, 1],
            };
            let workload = generate_workload(graph, &schema, &wconfig)
                .expect("curated social tier keeps bounded queries generable");
            let nodes = graph.live_node_count();
            let edges = graph.edge_count();
            let (mut fragment_nodes, mut adjacency_reads, mut runs) = (0u64, 0u64, 0u64);
            let mut total_nanos = 0u128;
            for q in &workload.queries {
                let request = QueryRequest::build(q.pattern.clone())
                    .strategy(StrategyKind::Bounded)
                    .finish();
                let response = engine.execute(&request).expect("workload flagged bounded");
                total_nanos += response.stats.total_nanos as u128;
                if let Some(fetch) = &response.stats.fetch {
                    fragment_nodes += fetch.fragment_nodes as u64;
                    adjacency_reads += fetch.adjacency_reads;
                    runs += 1;
                }
            }
            let avg_fragment = fragment_nodes as f64 / runs.max(1) as f64;
            ScalePoint {
                scale,
                nodes,
                edges,
                build_ms,
                queries: workload.queries.len(),
                avg_fragment_nodes: avg_fragment,
                fragment_fraction: avg_fragment / nodes.max(1) as f64,
                avg_query_us: total_nanos as f64 / workload.queries.len().max(1) as f64 / 1e3,
                avg_adjacency_reads: adjacency_reads as f64 / runs.max(1) as f64,
                maintenance_us_per_batch: maintenance_nanos as f64
                    / MAINTENANCE_BATCHES as f64
                    / 1e3,
                refreshed_per_batch: refreshed as f64 / MAINTENANCE_BATCHES as f64,
                commit_us: commit_nanos as f64 / COMMIT_BATCHES as f64 / 1e3,
                commit_phases_us: phase_nanos.map(|n| n as f64 / COMMIT_BATCHES as f64 / 1e3),
            }
        })
        .collect()
}

/// `metric` at the largest scale over the smallest — the number the
/// `--max-fragment-growth` (avg `|G_Q|`), `--max-latency-growth`
/// (`avg_query_us`), `--max-maintenance-growth`
/// (`maintenance_us_per_batch`) and `--max-commit-growth` (`commit_us`)
/// gates check.
fn scale_growth(points: &[ScalePoint], metric: impl Fn(&ScalePoint) -> f64) -> f64 {
    let first = points.first().map_or(1.0, |p| metric(p).max(1.0));
    let last = points.last().map_or(1.0, |p| metric(p).max(1.0));
    last / first
}

fn open_loop_json(tiers: &[OpenLoopTier], config: &BenchConfig, cores: usize) -> String {
    let tier_json: Vec<String> = tiers
        .iter()
        .map(|t| {
            format!(
                "      {{\"offered_qps\": {}, \"scheduled\": {}, \"completed\": {}, \
                 \"achieved_qps\": {:.0}, \"latency_us\": {{\"p50\": {}, \"p95\": {}, \
                 \"p99\": {}, \"mean\": {}, \"max\": {}}}}}",
                t.offered_qps,
                t.scheduled,
                t.completed,
                t.achieved_qps,
                t.latency.quantile(0.5),
                t.latency.quantile(0.95),
                t.latency.quantile(0.99),
                t.latency.mean(),
                t.latency.max(),
            )
        })
        .collect();
    format!(
        "{{\n    \"config\": {{\"duration_ms\": {}, \"lanes\": {}, \"cores\": {}}},\n    \
         \"tiers\": [\n{}\n    ]\n  }}",
        config.duration_ms,
        config.lanes,
        cores,
        tier_json.join(",\n")
    )
}

/// `name value` for each commit phase of `p`, comma-separated.
fn commit_phases(p: &ScalePoint, pair: impl Fn(&str, f64) -> String) -> String {
    let pairs = COMMIT_PHASES.iter().zip(p.commit_phases_us);
    let pairs: Vec<String> = pairs.map(|(name, us)| pair(name, us)).collect();
    pairs.join(", ")
}

fn fragment_scaling_json(points: &[ScalePoint]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "      {{\"scale\": {}, \"nodes\": {}, \"edges\": {}, \"build_ms\": {:.1}, \
                 \"queries\": {}, \"avg_fragment_nodes\": {:.1}, \"fragment_fraction\": {:.6}, \
                 \"avg_query_us\": {:.1}, \"avg_adjacency_reads\": {:.1}, \
                 \"maintenance_us_per_batch\": {:.2}, \"refreshed_per_batch\": {:.1}, \
                 \"commit_us\": {:.2}, \"commit_phases_us\": {{{}}}}}",
                p.scale,
                p.nodes,
                p.edges,
                p.build_ms,
                p.queries,
                p.avg_fragment_nodes,
                p.fragment_fraction,
                p.avg_query_us,
                p.avg_adjacency_reads,
                p.maintenance_us_per_batch,
                p.refreshed_per_batch,
                p.commit_us,
                commit_phases(p, |name, us| format!("\"{name}\": {us:.2}")),
            )
        })
        .collect();
    format!(
        "{{\n    \"scenario\": \"social\", \"zipf\": 1.1, \"hot_fraction\": 0.5, \
         \"domain\": 50,\n    \"maintenance_batches\": {},\n    \"commit_batches\": {},\n    \
         \"fragment_growth\": {:.3},\n    \"latency_growth\": {:.3},\n    \
         \"maintenance_growth\": {:.3},\n    \"commit_growth\": {:.3},\n    \
         \"scales\": [\n{}\n    ]\n  }}",
        MAINTENANCE_BATCHES,
        COMMIT_BATCHES,
        scale_growth(points, |p| p.avg_fragment_nodes),
        scale_growth(points, |p| p.avg_query_us),
        scale_growth(points, |p| p.maintenance_us_per_batch),
        scale_growth(points, |p| p.commit_us),
        rows.join(",\n")
    )
}

/// The query family: award-winning movies of a given year, with their
/// actors and the actors' countries. Distinct years give distinct patterns
/// (distinct fingerprints); repeating a year exercises the plan cache.
fn build_query(graph: &Graph, year: i64) -> Pattern {
    let mut pb = PatternBuilder::with_interner(graph.interner().clone());
    let m = pb.node("movie", Predicate::always());
    let y = pb.node("year", Predicate::single(bgpq_pattern::Op::Eq, year));
    let a = pb.node("award", Predicate::always());
    let act = pb.node("actor", Predicate::always());
    let c = pb.node("country", Predicate::always());
    pb.edge(y, m);
    pb.edge(a, m);
    pb.edge(m, act);
    pb.edge(act, c);
    pb.build()
}

#[derive(Default)]
struct Timing {
    total_nanos: u128,
    runs: u64,
    answers: u64,
}

impl Timing {
    fn record(&mut self, nanos: u128, answers: usize) {
        self.total_nanos += nanos;
        self.runs += 1;
        self.answers += answers as u64;
    }

    fn avg_micros(&self) -> f64 {
        if self.runs == 0 {
            return 0.0;
        }
        self.total_nanos as f64 / self.runs as f64 / 1_000.0
    }
}

/// One dataset's text-vs-binary load comparison (min-of-rounds, in ms).
struct LoadTiming {
    name: &'static str,
    /// Line-oriented parse of the checked-in file into a `Graph`.
    text_parse_ms: f64,
    /// Binary load of the same graph from its snapshot sections.
    snapshot_load_ms: f64,
    /// Binary load of the *full* compiled bundle — graph plus the embedded
    /// schema and pre-built indices, i.e. everything `query --snapshot`
    /// needs. The text path would additionally pay discovery + index build.
    bundle_load_ms: f64,
}

impl LoadTiming {
    fn speedup(&self) -> f64 {
        self.text_parse_ms / self.snapshot_load_ms.max(1e-6)
    }
}

/// Minimum wall-clock over `rounds` runs of `f`, in milliseconds.
fn min_ms<T>(rounds: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_nanos() as f64 / 1e6);
    }
    best
}

/// Times loading each checked-in dataset through its line-oriented parser
/// vs. through a compiled binary snapshot (graph + schema + indices). The
/// snapshot side does strictly more — it also restores the indices — and
/// must still win by a wide margin, because it bulk-reads sections instead
/// of parsing, re-interning and re-sorting per record.
fn bench_snapshot_loads(rounds: usize) -> Vec<LoadTiming> {
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data");
    type Parser = fn(&Path) -> Graph;
    let datasets: [(&'static str, PathBuf, Parser); 3] = [
        ("social", data.join("social.tsv"), |p| {
            load_graph(p).expect("checked-in dataset parses")
        }),
        ("citation", data.join("citation.jsonl"), |p| {
            load_jsonl(p).expect("checked-in dataset parses")
        }),
        ("products", data.join("products.jsonl"), |p| {
            load_jsonl(p).expect("checked-in dataset parses")
        }),
    ];
    let tmp = std::env::temp_dir().join("bgpq_bench_snapshots");
    std::fs::create_dir_all(&tmp).expect("temp dir");

    datasets
        .into_iter()
        .map(|(name, path, parse)| {
            let graph = parse(&path);
            let schema = discover_schema(&graph, &DiscoveryConfig::default());
            let indices = AccessIndexSet::build(&graph, &schema);
            let graph_snap = tmp.join(format!("{name}.graph.bgpq"));
            let bundle_snap = tmp.join(format!("{name}.bgpq"));
            save_graph_snapshot(&graph, &graph_snap).expect("compile graph snapshot");
            save_snapshot(&graph, &indices, &bundle_snap).expect("compile bundle");

            // Like for like: both sides produce exactly a `Graph`.
            let text_parse_ms = min_ms(rounds, || parse(&path));
            let snapshot_load_ms = min_ms(rounds, || {
                load_graph_snapshot(&graph_snap).expect("snapshot loads")
            });
            let bundle_load_ms = min_ms(rounds, || {
                load_snapshot(&bundle_snap).expect("bundle loads")
            });
            std::fs::remove_file(&graph_snap).ok();
            std::fs::remove_file(&bundle_snap).ok();
            LoadTiming {
                name,
                text_parse_ms,
                snapshot_load_ms,
                bundle_load_ms,
            }
        })
        .collect()
}

fn json_entry(name: &str, t: &Timing) -> String {
    format!(
        "    \"{}\": {{\"runs\": {}, \"total_ms\": {:.3}, \"avg_us\": {:.1}, \"answers\": {}}}",
        name,
        t.runs,
        t.total_nanos as f64 / 1_000_000.0,
        t.avg_micros(),
        t.answers
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match BenchConfig::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bench: {e}");
            eprintln!(
                "usage: bench [--smoke] [--movies N] [--queries K] [--rounds R] \
                 [--out PATH] [--min-speedup X] \
                 [--min-load-speedup X] [--min-fragment-hit-speedup X] \
                 [--min-bitmap-speedup X] \
                 [--open-loop] [--offered Q1,Q2,..] [--duration-ms D] [--lanes L] \
                 [--max-p99-ms X] [--scales S1,S2,..] [--workload-queries K] \
                 [--max-fragment-growth X] [--max-latency-growth X] \
                 [--max-maintenance-growth X] [--max-commit-growth X]"
            );
            std::process::exit(2);
        }
    };

    let build_start = Instant::now();
    let graph = build_graph(config.movies);
    let schema = build_schema(&graph, config.movies);
    let engine = Engine::new(graph, &schema);
    let build_ms = build_start.elapsed().as_millis();
    println!(
        "graph: {} nodes, {} edges; indices built in {build_ms} ms",
        engine.graph().node_count(),
        engine.graph().edge_count()
    );

    let queries: Vec<Pattern> = (0..config.queries)
        .map(|i| build_query(engine.graph(), 2000 + (i % 20) as i64))
        .collect();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Open-loop tiers: a strict arrival grid per offered-load tier, latency
    // measured from the scheduled arrival (see `run_open_loop_tier`). Plan
    // caches are warmed untimed so tier 0 doesn't pay the planning cost.
    let requests: Vec<QueryRequest> = queries
        .iter()
        .map(|q| {
            QueryRequest::build(q.clone())
                .strategy(StrategyKind::Bounded)
                .finish()
        })
        .collect();
    for request in &requests {
        engine.execute(request).expect("warm queries are bounded");
    }
    let open_loop: Vec<OpenLoopTier> = config
        .offered
        .iter()
        .map(|&offered| {
            let tier = run_open_loop_tier(
                &engine,
                &requests,
                offered,
                Duration::from_millis(config.duration_ms),
                config.lanes,
            );
            println!(
                "open-loop {:>6} qps offered: {:>6.0} achieved on {} lanes, \
                 p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms",
                tier.offered_qps,
                tier.achieved_qps,
                config.lanes,
                tier.latency.quantile(0.5) as f64 / 1_000.0,
                tier.latency.quantile(0.95) as f64 / 1_000.0,
                tier.latency.quantile(0.99) as f64 / 1_000.0,
            );
            tier
        })
        .collect();
    if let Some(max) = config.max_p99_ms {
        // Gate the lowest tier only: overload tiers queue by design.
        let p99_ms = open_loop[0].latency.quantile(0.99) as f64 / 1_000.0;
        if p99_ms > max {
            eprintln!(
                "bench: REGRESSION — open_loop p99 at {} offered qps is {p99_ms:.2} ms, \
                 above the allowed {max:.2} ms (on {cores} cores)",
                open_loop[0].offered_qps
            );
            std::process::exit(1);
        }
        println!("bench: open-loop p99 gate passed ({p99_ms:.2} <= {max:.2} ms)");
    }
    if config.open_loop_only {
        println!("open-loop only: skipping comparison sections, report untouched");
        return;
    }

    let mut vf2 = Timing::default();
    let mut opt = Timing::default();
    let mut bounded = Timing::default();
    let mut fragment_nodes = 0u64;
    let mut fragment_build_nanos = 0u128;
    let mut match_nanos = 0u128;

    for round in 0..config.rounds {
        for q in &queries {
            let t = Instant::now();
            let plain = SubgraphMatcher::new(q, engine.graph()).find_all();
            vf2.record(t.elapsed().as_nanos(), plain.len());

            let t = Instant::now();
            let seeded = opt_subgraph_match(q, engine.graph(), engine.indices());
            opt.record(t.elapsed().as_nanos(), seeded.len());

            let t = Instant::now();
            let response = engine
                .execute(
                    &QueryRequest::build(q.clone())
                        .strategy(StrategyKind::Bounded)
                        .finish(),
                )
                .expect("bench queries are bounded by construction");
            bounded.record(t.elapsed().as_nanos(), response.answer.len());
            fragment_build_nanos += response.stats.fragment_build_nanos as u128;
            match_nanos += response.stats.match_nanos as u128;

            if let Some(fetch) = &response.stats.fetch {
                fragment_nodes += fetch.fragment_nodes as u64;
            }
            assert_eq!(plain, seeded, "optVF2 diverged from VF2");
            assert_eq!(
                Some(&plain),
                response.answer.as_matches(),
                "bVF2 diverged from VF2"
            );
        }
        println!(
            "round {}: plan cache {} hits / {} misses",
            round + 1,
            engine.stats().plan_cache_hits,
            engine.stats().plan_cache_misses
        );
    }

    let reps = (config.rounds * config.queries).max(10);
    let fragment = bench_fragment_cache(&engine, reps);
    println!(
        "fragment cache: uncached {:.1} us vs hit {:.1} us ({:.2}x) on the hot query \
         ({} lookups per miss, |G_Q| = {} nodes)",
        fragment.uncached.avg_micros(),
        fragment.hit.avg_micros(),
        fragment.hit_speedup(),
        fragment.lookups_per_miss,
        fragment.fragment_nodes
    );
    let bitmap = bench_bitmap_dedup(engine.graph(), config.rounds * config.queries);
    println!(
        "bitmap dedup: sort+dedup {:.1} us vs bitmap {:.1} us ({:.2}x) on a \
         {}-entry union ({} unique)",
        bitmap.sorted_vec.avg_micros(),
        bitmap.bitmap.avg_micros(),
        bitmap.speedup(),
        bitmap.union_len,
        bitmap.unique
    );

    let scaling = bench_fragment_scaling(&config.scales, config.workload_queries);
    for p in &scaling {
        println!(
            "scale {:>8}: |G| = {} nodes / {} edges (built in {:.0} ms), \
             avg |G_Q| = {:.1} nodes ({:.4}% of |G|), query {:.1} us avg \
             ({:.0} adjacency reads per view), \
             maintenance {:.1} us per 3-delta batch ({:.1} contributions), \
             commit {:.1} us ({})",
            p.scale,
            p.nodes,
            p.edges,
            p.build_ms,
            p.avg_fragment_nodes,
            100.0 * p.fragment_fraction,
            p.avg_query_us,
            p.avg_adjacency_reads,
            p.maintenance_us_per_batch,
            p.refreshed_per_batch,
            p.commit_us,
            commit_phases(p, |name, us| format!("{name} {us:.1}")),
        );
    }
    let growth = scale_growth(&scaling, |p| p.avg_fragment_nodes);
    let latency_growth = scale_growth(&scaling, |p| p.avg_query_us);
    let graph_growth = scaling.last().map_or(1.0, |p| p.nodes as f64)
        / scaling.first().map_or(1.0, |p| p.nodes.max(1) as f64);
    let maintenance_growth = scale_growth(&scaling, |p| p.maintenance_us_per_batch);
    let commit_growth = scale_growth(&scaling, |p| p.commit_us);
    println!(
        "fragment scaling: avg |G_Q| grew {growth:.2}x, avg query latency \
         {latency_growth:.2}x, maintenance per batch {maintenance_growth:.2}x and a whole \
         commit {commit_growth:.2}x while |G| grew {graph_growth:.0}x"
    );

    let loads = bench_snapshot_loads(15);
    for l in &loads {
        println!(
            "load {}: text parse {:.3} ms | snapshot load {:.3} ms ({:.1}x) | \
             full bundle {:.3} ms",
            l.name,
            l.text_parse_ms,
            l.snapshot_load_ms,
            l.speedup(),
            l.bundle_load_ms
        );
    }
    let snapshot_load_json = loads
        .iter()
        .map(|l| {
            format!(
                "    \"{}\": {{\"text_parse_ms\": {:.3}, \"snapshot_load_ms\": {:.3}, \
                 \"bundle_load_ms\": {:.3}, \"speedup\": {:.2}}}",
                l.name,
                l.text_parse_ms,
                l.snapshot_load_ms,
                l.bundle_load_ms,
                l.speedup()
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");

    let stats = engine.stats();
    let graph_nodes = engine.graph().node_count() as f64;
    let avg_fragment = fragment_nodes as f64 / bounded.runs.max(1) as f64;
    let runs = bounded.runs.max(1) as f64;
    let avg_build_us = fragment_build_nanos as f64 / runs / 1_000.0;
    let avg_match_us = match_nanos as f64 / runs / 1_000.0;
    let vf2_over_bvf2 = vf2.avg_micros() / bounded.avg_micros().max(0.001);
    let report = format!
(
        "{{\n  \"config\": {{\"movies\": {}, \"queries\": {}, \"rounds\": {}, \"cores\": {}}},\n  \"graph\": {{\"nodes\": {}, \"edges\": {}}},\n  \"algorithms\": {{\n{},\n{},\n{}\n  }},\n  \"bvf2_breakdown\": {{\"fragment_build_us\": {:.1}, \"match_us\": {:.1}}},\n  \"fragment\": {{\"avg_nodes\": {:.1}, \"avg_fraction_of_graph\": {:.5}}},\n  \"plan_cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}}},\n  \"fragment_cache\": {{\"uncached_us\": {:.1}, \"hit_us\": {:.1}, \"hit_speedup\": {:.2}, \"lookups_per_miss\": {}, \"fragment_nodes\": {}}},\n  \"bitmap_dedup\": {{\"sorted_vec_us\": {:.1}, \"bitmap_us\": {:.1}, \"speedup\": {:.2}, \"union_len\": {}, \"unique\": {}}},\n  \"snapshot_load\": {{\n{}\n  }},\n  \"open_loop\": {},\n  \"fragment_scaling\": {},\n  \"speedup\": {{\"vf2_over_bvf2\": {:.2}, \"optvf2_over_bvf2\": {:.2}}}\n}}\n",
        config.movies,
        config.queries,
        config.rounds,
        cores,
        engine.graph().node_count(),
        engine.graph().edge_count(),
        json_entry("vf2", &vf2),
        json_entry("optvf2", &opt),
        json_entry("bvf2_engine", &bounded),
        avg_build_us,
        avg_match_us,
        avg_fragment,
        avg_fragment / graph_nodes,
        stats.plan_cache_hits,
        stats.plan_cache_misses,
        stats.plan_cache_evictions,
        fragment.uncached.avg_micros(),
        fragment.hit.avg_micros(),
        fragment.hit_speedup(),
        fragment.lookups_per_miss,
        fragment.fragment_nodes,
        bitmap.sorted_vec.avg_micros(),
        bitmap.bitmap.avg_micros(),
        bitmap.speedup(),
        bitmap.union_len,
        bitmap.unique,
        snapshot_load_json,
        open_loop_json(&open_loop, &config, cores),
        fragment_scaling_json(&scaling),
        vf2_over_bvf2,
        opt.avg_micros() / bounded.avg_micros().max(0.001),
    );
    std::fs::write(&config.out, &report).expect("write bench report");
    println!(
        "vf2 {:.1} us | optvf2 {:.1} us | bvf2(engine) {:.1} us per query \
         (fragment build {:.1} us + match {:.1} us); report -> {}",
        vf2.avg_micros(),
        opt.avg_micros(),
        bounded.avg_micros(),
        avg_build_us,
        avg_match_us,
        config.out
    );
    if let Some(min) = config.min_speedup {
        if vf2_over_bvf2 < min {
            eprintln!(
                "bench: REGRESSION — speedup.vf2_over_bvf2 = {vf2_over_bvf2:.2} \
                 is below the required minimum {min:.2}"
            );
            std::process::exit(1);
        }
        println!("bench: speedup gate passed ({vf2_over_bvf2:.2} >= {min:.2})");
    }
    if let Some(min) = config.min_fragment_hit_speedup {
        let speedup = fragment.hit_speedup();
        if speedup < min {
            eprintln!(
                "bench: REGRESSION — fragment_cache.hit_speedup = {speedup:.2} \
                 is below the required minimum {min:.2}"
            );
            std::process::exit(1);
        }
        println!("bench: fragment-cache hit gate passed ({speedup:.2} >= {min:.2})");
    }
    if let Some(min) = config.min_bitmap_speedup {
        let speedup = bitmap.speedup();
        if speedup < min {
            eprintln!(
                "bench: REGRESSION — bitmap_dedup.speedup = {speedup:.2} \
                 is below the required minimum {min:.2}"
            );
            std::process::exit(1);
        }
        println!("bench: bitmap dedup gate passed ({speedup:.2} >= {min:.2})");
    }
    if let Some(max) = config.max_fragment_growth {
        if growth > max {
            eprintln!(
                "bench: REGRESSION — fragment_scaling.fragment_growth = {growth:.2} \
                 exceeds the allowed {max:.2} (avg |G_Q| is tracking |G|)"
            );
            std::process::exit(1);
        }
        println!("bench: fragment-growth gate passed ({growth:.2} <= {max:.2})");
    }
    if let Some(max) = config.max_latency_growth {
        if latency_growth > max {
            eprintln!(
                "bench: REGRESSION — fragment_scaling.latency_growth = {latency_growth:.2} \
                 exceeds the allowed {max:.2} (bounded query latency is tracking |G|)"
            );
            std::process::exit(1);
        }
        println!("bench: latency-growth gate passed ({latency_growth:.2} <= {max:.2})");
    }
    if let Some(max) = config.max_maintenance_growth {
        if maintenance_growth > max {
            eprintln!(
                "bench: REGRESSION — fragment_scaling.maintenance_growth = \
                 {maintenance_growth:.2} exceeds the allowed {max:.2} (index maintenance is \
                 tracking |G|)"
            );
            std::process::exit(1);
        }
        println!("bench: maintenance-growth gate passed ({maintenance_growth:.2} <= {max:.2})");
    }
    if let Some(max) = config.max_commit_growth {
        if commit_growth > max {
            eprintln!(
                "bench: REGRESSION — fragment_scaling.commit_growth = {commit_growth:.2} \
                 exceeds the allowed {max:.2} (a copy-on-write commit is tracking |G|)"
            );
            std::process::exit(1);
        }
        println!("bench: commit-growth gate passed ({commit_growth:.2} <= {max:.2})");
    }
    if let Some(min) = config.min_load_speedup {
        for l in &loads {
            let speedup = l.speedup();
            if speedup < min {
                eprintln!(
                    "bench: REGRESSION — snapshot_load.{}.speedup = {speedup:.2} \
                     is below the required minimum {min:.2}",
                    l.name
                );
                std::process::exit(1);
            }
        }
        println!("bench: snapshot load gate passed (all datasets >= {min:.2}x)");
    }
}
