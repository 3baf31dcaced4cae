//! The workspace's one benchmark harness, built as a table.
//!
//! *One section = one function returning a [`Json`] value = one key of one
//! report (`BENCH.json`) = at most a few rows of [`GATES`]*, which `--check`
//! evaluates with one generic loop. Every threshold and tier list is a
//! constant next to its reason; the command line only picks the profile, the
//! report path and, optionally, a single section.
//!
//! Every graph-backed section runs on one rig: the streamed skewed-social
//! scenario ([`scaling_scenario`], seed 7), its discovered schema, uncapped
//! indices and the same-seed `generate_workload` queries. `scaling` sweeps
//! that rig over three `|G|` a decade apart and draws the paper's headline
//! figure — `VF2` and `optVF2` over `bVF2` *as `|G|` grows* — next to the
//! fragment, latency, maintenance, commit and offline-stage curves;
//! `snapshot_load` times binary against text loading of the checked-in
//! datasets and of the 30k-node rig graph; `serving` and `tcp`
//! put the sweep's smallest graph behind `bgpq-serve` and `bgpq-net`.
//!
//! ```sh
//! cargo run --release -p bgpq-net --bin bench                      # full profile, ~20 s
//! cargo run --release -p bgpq-net --bin bench -- --smoke --check   # what CI runs, ~8 s
//! ```

use bgpq_engine::{
    apply_deltas_shared, discover_schema, load_snapshot, save_snapshot, AccessIndexSet,
    AccessSchema, CacheOutcome, DiscoveryConfig, Engine, Graph, GraphDelta, NodeId, QueryRequest,
    QueryResponse, Semantics, StrategyKind, Value,
};
use bgpq_graph::io::json::{write_json_string, Json};
use bgpq_graph::io::{
    load_graph, load_graph_snapshot, load_jsonl, save_graph, save_graph_snapshot,
};
use bgpq_net::{Client, ErrorCode, NetServer, NetServerConfig, QuerySpec};
use bgpq_serve::{Server, Update};
use bgpq_workload::{
    generate_workload, stream_graph, ArrivalClock, GeneratedQuery, LatencyHistogram, Scenario,
    ScenarioConfig, Workload, WorkloadConfig,
};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// What differs between the full run and the CI-sized one: the sweep and the
/// `tcp` tiers. `window` and `load_rounds` have one production value each and
/// are fields only so that the tests' toy profile can shrink them.
struct Profile {
    name: &'static str,
    /// `ScenarioConfig::scale` of each sweep point (the graph has about 3x as
    /// many nodes); `serving` and `tcp` run on the first.
    scales: &'static [usize],
    /// Measurement window of each `serving` round and `tcp` tier. Half a
    /// second keeps the closed-loop qps comparison stable on shared runners.
    window: Duration,
    /// Offered-load tiers of `tcp`, queries per second. The first sits far
    /// below capacity and is the gated one; the last overloads on purpose.
    offered: &'static [u64],
    /// Rounds each `snapshot_load` timing is the minimum of.
    load_rounds: usize,
}

/// The checked-in `BENCH.json`: the sweep reaches a 3.0M-node graph.
const FULL: Profile = Profile {
    name: "full",
    scales: &[10_000, 100_000, 1_000_000],
    window: Duration::from_millis(500),
    offered: &[200, 1_000, 4_000, 16_000],
    load_rounds: 40,
};

/// `--smoke`: the same 100x sweep a decade lower, sized for shared runners.
const SMOKE: Profile = Profile {
    name: "smoke",
    scales: &[2_000, 20_000, 200_000],
    window: Duration::from_millis(500),
    offered: &[100, 500, 2_000],
    load_rounds: 40,
};

/// A section: its key in the report and the function that measures it.
type Section = (&'static str, fn(&Profile) -> Json);

const SECTIONS: [Section; 4] = [
    ("scaling", scaling),
    ("snapshot_load", snapshot_load),
    ("serving", serving),
    ("tcp", tcp),
];

/// Which side of its threshold a gated number must stay on.
#[derive(Clone, Copy)]
enum Bound {
    Min,
    Max,
}
use Bound::{Max, Min};

/// One `--check` row: dotted key (a numeric segment indexes an array), bound,
/// threshold, and what a violation means. The comment above a row says why
/// the threshold has the value it has; the readings quoted are the `--smoke`
/// sweep's (6k to 600k nodes), which is what CI checks. The full profile's
/// top point is five times larger, and there `maintenance_growth` reads
/// 2.0-2.9 and `maintain_growth` 3.4-3.8. Maintenance copies no list that
/// grows with |G| (answer lists are bounded by N and live in their page);
/// what grows is un-sharing a touched index, one reference count per 64
/// pages of each of its arrays.
type Gate = (&'static str, Bound, f64, &'static str);

#[rustfmt::skip] // a table: one row per line, columns aligned
const GATES: [Gate; 14] = [
    // The paper's headline figure: bVF2 is flat in |G|, VF2 linear, so the
    // ratio must favour bVF2 on the sweep's largest graph (14x smoke, 41x
    // full) and must have grown since the smallest.
    ("scaling.vf2_over_bvf2_largest", Min,      1.0, "bVF2 lost to whole-graph VF2"),
    ("scaling.vf2_over_bvf2_growth",  Min,      1.0, "the speedup over VF2 shrank as |G| grew"),
    // A hit skips planning and the fetch, not the view build or the match:
    // the lowest per-scale ratio of the sweep reads 1.34-1.67x since the
    // fetch became index probes only (~6 us), 1.5-2.4x before.
    ("scaling.hit_speedup",           Min,      1.3, "a plan and fragment cache hit stopped paying off"),
    // avg |G_Q| reads 0.9x over the 100x sweep.
    ("scaling.fragment_growth",       Max,      2.0, "avg |G_Q| is tracking |G|"),
    // Each query's median of three cold runs reads 0.9-1.8x; 7.5x when view
    // builds still scanned hub neighbourhoods. One cold run per query once
    // read 13x from a scheduler stall.
    ("scaling.latency_growth",        Max,      4.0, "bounded query latency is tracking |G|"),
    // Edge-local maintenance reads 0.6-2x; 350x when a touched hub's whole
    // contribution was removed and re-enumerated.
    ("scaling.maintenance_growth",    Max,      3.0, "index maintenance is tracking |G|"),
    // 1.4-2.4x since the copy-on-write spine; 70x before it.
    ("scaling.commit_growth",         Max,      8.0, "a copy-on-write commit is tracking |G|"),
    // The commit's maintain phase alone: 1.7-2.7x smoke, 3.80x in the full
    // profile's BENCH.json (6.7 -> 12.6 -> 25.6 us; 3.4-3.8 over three runs),
    // 3.9x (25.5 -> 100 us) when every shard copy still cloned two heap
    // lists per entry. The threshold is the full reading with ~1.8x headroom.
    ("scaling.maintain_growth",       Max,      7.0, "the commit's index maintenance is tracking |G|"),
    // Work, not time, so it repeats exactly for one seed: the adjacency ids
    // a commit copies, those of each row page and hub chunk it un-shares.
    // 1.18 over the smoke sweep (5147 -> 5547 -> 6096 per commit: a page
    // holds at most `PAGE_IDS` ids, and an edit copies one chunk of a hub's
    // row, < 1024 ids); 4.68 when rows had slots and only spilled rows
    // counted. Copying a hub's row whole tracks the hubs' degree, ~100x.
    ("scaling.row_copy_growth",       Max,      8.0, "a commit copies adjacency rows whole again"),
    // Counted too: `Graph::storage_bytes` per edge on the sweep's largest
    // graph. 19.28 at --smoke (600k nodes) since a page of rows became one
    // buffer of bounds and ids; 29.8 when every row took a 24-byte slot.
    ("scaling.graph_bytes_per_edge_largest", Max, 22.0, "graph storage per edge grew back towards a slot per row"),
    // Offline setup (stream + discover + index) per decade of |G|, the
    // larger of the two steps; 10 is linear. 10.8-14.6 over 10 back-to-back
    // --smoke runs of the shard-order index build, 10.3-16.5 over 20 with an
    // earlier build of it (the 6k-node point takes 4-9 ms, so the ratio is
    // noisy); 20 is the highest reading plus ~20%. The full profile reads
    // 10.7-17.6, and 16.5 with one scan and a hash insert per index key.
    // With unary indices as arrays: 8.5-13.2 over 20 back-to-back --smoke
    // runs, 11.1-12.2 at full profile.
    ("scaling.build_growth",          Max,     20.0, "the offline setup is growing faster than |G|"),
    // Bulk-reading sections against parsing, interning and sorting records,
    // on the 30k-node rig graph (the datasets load in tens of us and are not
    // gated): 4.27-4.52x over 10 back-to-back --smoke runs (text 16-19 ms,
    // binary 3.7-4.3 ms; the lowest of six `--only` runs was 4.19), so 3.5
    // sits ~17% under the floor. It read 6.0-6.5x before the graph builder
    // stopped hashing every edge: text parsing got faster (22-26 ms then),
    // binary loading did not get slower (3.5-4.3 ms then).
    ("snapshot_load.rig.speedup",     Min,      3.5, "a binary snapshot lost its lead over text loading"),
    // Readers never wait on the writer: 1.2-1.6x with the second core free,
    // 0.8-1.0x when a shared host withholds it (four runs in ten on this box).
    ("serving.multi_over_single",     Min,      1.0, "more readers served fewer queries"),
    // The lowest tier sits far below capacity and reads 1-7 ms; 50 ms only
    // trips on a wire path gone quadratic. Higher tiers overload by design.
    ("tcp.tiers.0.latency_us.p99",    Max, 50_000.0, "p99 (us) far below capacity left the millisecond range"),
];

fn cores() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// `x` as a JSON number with `digits` decimals, rounded the way `{:.N}`
/// rounds (non-finite values pass through and render as `null`).
fn num(x: f64, digits: usize) -> Json {
    Json::Float(format!("{x:.digits$}").parse().unwrap_or(f64::NAN))
}

fn int(n: impl TryInto<i64>) -> Json {
    Json::Int(n.try_into().unwrap_or(i64::MAX))
}

/// The fixed skewed-social recipe: one seed and one knob set pin the graph
/// shape and value domains across every scale, so only `|G|` varies between
/// the sweep's points.
fn scaling_scenario(scale: usize) -> ScenarioConfig {
    ScenarioConfig {
        zipf: Some(1.1),
        hot_fraction: Some(0.5),
        domain: Some(50),
        ..ScenarioConfig::new(scale, 7)
    }
}

/// The rig: graph, discovered schema, indices, and the endpoints update
/// batches attach fresh posts to.
struct Rig {
    graph: Graph,
    schema: AccessSchema,
    indices: AccessIndexSet,
    users: Vec<NodeId>,
    tags: Vec<NodeId>,
    /// Milliseconds the three offline stages took: stream, discover, index.
    stages_ms: [f64; 3],
    /// How far streaming the graph raised the process's peak RSS, in MiB
    /// (`None` off Linux). The sweep runs its scales in ascending order, so
    /// each row's build is the largest yet and the rise is what it held
    /// above every earlier row's peak.
    build_peak_mb: Option<f64>,
}

/// The process's peak resident set size (`VmHWM`) in MiB, where
/// `/proc/self/status` reports one.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let kib: f64 = kib.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib / 1024.0)
}

impl Rig {
    fn build(scale: usize) -> Rig {
        let peak_before = peak_rss_mb();
        let t = Instant::now();
        let graph = stream_graph(Scenario::Social, &scaling_scenario(scale));
        let streamed = t.elapsed();
        let build_peak_mb = peak_rss_mb()
            .zip(peak_before)
            .map(|(after, before)| after - before);
        let schema = discover_schema(&graph, &DiscoveryConfig::simple());
        let discovered = t.elapsed();
        // Uncapped build: the workload generator certifies boundedness
        // against the schema alone, and the engine's planner excludes
        // constraints whose index truncated at the combination cap — a
        // truncated `|S| ≥ 2` index here would turn certified-bounded
        // queries into refusals. Unary and global indices never truncate.
        let indices = AccessIndexSet::build_with_cap(&graph, &schema, usize::MAX);
        let stages = [streamed, discovered - streamed, t.elapsed() - discovered];
        let nodes_of = |name: &str| {
            let label = graph.interner().get(name).expect("social label exists");
            graph.nodes_with_label(label).to_vec()
        };
        let (users, tags) = (nodes_of("user"), nodes_of("tag"));
        Rig {
            graph,
            schema,
            indices,
            users,
            tags,
            stages_ms: stages.map(|stage| stage.as_nanos() as f64 / 1e6),
            build_peak_mb,
        }
    }
}

/// Author and tag of the `i`-th fresh post: the update batch of the
/// maintenance and commit curves and of the `serving` writer.
fn post_endpoints(users: &[NodeId], tags: &[NodeId], i: usize) -> (NodeId, NodeId) {
    (users[(i * 31) % users.len()], tags[(i * 17) % tags.len()])
}

/// Same-seed bounded workload on every graph: identical query recipe, so
/// avg `|G_Q|` tracking `|G|` would be a violation of the boundedness
/// contract, not workload drift.
fn workload(graph: &Graph, schema: &AccessSchema) -> Workload {
    let config = WorkloadConfig {
        queries: 12,
        seed: 0x1CDE_2015,
        bounded_fraction: 1.0,
        selectivity: Some(0.5),
        min_nodes: 3,
        max_nodes: 5,
        semantics: Semantics::Isomorphism,
        shape_weights: [2, 1, 0, 1],
    };
    generate_workload(graph, schema, &config)
        .expect("curated social tier keeps bounded queries generable")
}

/// Fresh-post maintenance batches applied per scale point.
const MAINTENANCE_BATCHES: usize = 200;

/// Copy-on-write commits of the same batch timed per scale point.
const COMMIT_BATCHES: usize = 50;

/// Cached executions of each query per scale point; `hit_us` is the fastest.
const HIT_PASSES: usize = 5;

/// Cold `bVF2` passes per scale point, each on an engine with a fresh cache;
/// `avg_query_us` and `fetch_us` take each query's median.
const COLD_PASSES: usize = 3;

/// Names of a scale point's `commit_phases_us`, in order.
const COMMIT_PHASES: [&str; 4] = ["clone", "replay", "maintain", "retire"];

/// The evaluation tiers after a scale point's cold `bVF2` passes, in
/// execution order. The cold passes run first, on the state the maintenance
/// and commit batches left behind, so their numbers do not depend on the
/// tiers after them; the `hit` pass finds every plan and fragment cached.
const TIERS: [(&str, StrategyKind); 3] = [
    ("hit", StrategyKind::Bounded),
    ("optvf2", StrategyKind::IndexSeeded),
    ("vf2", StrategyKind::Baseline),
];

/// One fresh post attached to a rotating author and tag, applied to `graph`.
fn post_batch(graph: &mut Graph, (u, tg): (NodeId, NodeId), value: usize) -> [GraphDelta; 3] {
    let p = graph.insert_node("post", Value::Int(value as i64));
    graph.insert_edge(u, p).expect("endpoints exist");
    graph.insert_edge(p, tg).expect("endpoints exist");
    [
        GraphDelta::InsertNode(p),
        GraphDelta::InsertEdge(u, p),
        GraphDelta::InsertEdge(p, tg),
    ]
}

/// One `|G|` of the sweep: avg `|G_Q|`, the incremental maintenance cost,
/// the cost of a whole commit, and the three evaluation tiers on the same
/// queries — the paper's size-independence claims (fragments bounded by the
/// plan, updates bounded by `|ΔG ∪ Nb(ΔG)|`) and its speedup, per scale.
fn scale_point(scale: usize) -> Json {
    let rig = Rig::build(scale);
    let [stream_ms, discover_ms, index_ms] = rig.stages_ms;
    // What the index and the graph storage hold, counted from their shape
    // (MiB, as RSS is). The global and unary indices are the graph's label
    // buckets and rows.
    let mib = |bytes: usize| bytes as f64 / (1u64 << 20) as f64;
    let (index_mb, graph_mb) = (
        mib(rig.indices.storage_bytes()),
        mib(rig.graph.storage_bytes()),
    );
    let graph_bytes_per_edge =
        rig.graph.storage_bytes() as f64 / rig.graph.edge_count().max(1) as f64;
    let (mut graph, mut indices) = (Arc::new(rig.graph), rig.indices);
    let endpoints = |i| post_endpoints(&rig.users, &rig.tags, i);
    let post = |graph: &mut Graph, i| post_batch(graph, endpoints(i), scale + i);

    // Maintenance-cost curve: absorb fresh post + author + tag edge
    // batches. Locality says this cost must stay flat as |G| grows. The
    // unary indices share the graph, so each batch edits the next version
    // of it, and the previous version is dropped after the timed span (a
    // commit's `retire` phase, timed below).
    let mut maintenance_nanos = 0u128;
    let mut refreshed = 0u64;
    for i in 0..MAINTENANCE_BATCHES {
        let mut next = Graph::clone(&graph);
        let deltas = post(&mut next, i);
        let next = Arc::new(next);
        let t = Instant::now();
        let stats = apply_deltas_shared(&mut indices, &next, &deltas);
        maintenance_nanos += t.elapsed().as_nanos();
        refreshed += stats.refreshed_contributions as u64;
        graph = next;
    }

    // Commit-cost curve: the same batch as a serving commit. The published
    // version stays alive (readers may pin it) while its copy-on-write
    // successor is built, then is dropped — so the number includes what
    // sharing, un-sharing and freeing cost (`Server::commit` minus its lock
    // and pointer swap).
    let mut engine = Engine::with_indices(graph, indices);
    let mut phase_nanos = [0u128; 4];
    let rows_before = engine.graph().row_ids_copied();
    let commits = Instant::now();
    for i in MAINTENANCE_BATCHES..MAINTENANCE_BATCHES + COMMIT_BATCHES {
        let t = Instant::now();
        let mut graph = engine.graph().clone();
        let mut indices = engine.indices().clone();
        let cloned = t.elapsed();
        let deltas = post(&mut graph, i);
        let replayed = t.elapsed();
        let graph = Arc::new(graph);
        apply_deltas_shared(&mut indices, &graph, &deltas);
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
    let row_ids_copied = engine.graph().row_ids_copied() - rows_before;

    let workload = workload(engine.graph(), &rig.schema);
    let queries = workload.queries.len().max(1) as f64;
    let execute = |engine: &Engine, strategy, q: &GeneratedQuery| {
        let request = QueryRequest::build(q.pattern.clone()).strategy(strategy);
        let response = engine.execute(&request.finish());
        response.expect("workload flagged bounded")
    };
    let pass = |engine: &Engine, strategy| -> Vec<QueryResponse> {
        workload
            .queries
            .iter()
            .map(|q| execute(engine, strategy, q))
            .collect()
    };
    // Every cold pass gets an engine over copy-on-write clones of the same
    // snapshot, so none finds a plan or fragment cached; the last one's
    // cache serves the `hit` tier.
    let cold: Vec<Vec<QueryResponse>> = (0..COLD_PASSES)
        .map(|_| {
            engine = Engine::with_indices(engine.graph().clone(), engine.indices().clone());
            pass(&engine, StrategyKind::Bounded)
        })
        .collect();
    let runs = TIERS.map(|(_, strategy)| pass(&engine, strategy));
    let [hit, seeded, plain] = &runs;
    let cached = |r: &QueryResponse| r.stats.fragment_cache == Some(CacheOutcome::Hit);
    assert!(cold.iter().flatten().all(|r| !cached(r)), "a cold pass hit");
    assert!(
        hit.iter().all(cached),
        "the bVF2 pass after the cold ones hits"
    );
    let tiers = TIERS.iter().map(|(tier, _)| *tier).zip(&runs);
    for (tier, tier_runs) in cold.iter().map(|pass| ("bvf2", pass)).chain(tiers) {
        for (response, cold) in tier_runs.iter().zip(&cold[0]) {
            assert_eq!(response.answer, cold.answer, "{tier} diverged from bVF2");
        }
    }
    let total_us = |r: &QueryResponse| r.stats.total_nanos as f64 / 1e3;
    let build_us = |r: &QueryResponse| {
        let nanos = r.stats.fetch.as_ref().map_or(0, |f| f.fragment_build_nanos);
        nanos as f64 / 1e3
    };
    // Each query's median over the cold passes, averaged: a scheduler stall
    // lands in one pass, not in a median.
    let cold_us = |read: &dyn Fn(&QueryResponse) -> f64| {
        let median = |q: usize| {
            let mut runs: Vec<f64> = cold.iter().map(|pass| read(&pass[q])).collect();
            runs.sort_by(f64::total_cmp);
            runs[runs.len() / 2]
        };
        (0..workload.queries.len()).map(median).sum::<f64>() / queries
    };
    let bvf2_us = cold_us(&total_us);
    // A hit builds the same view without the lookups: the difference is the
    // fetch.
    let fetch_us = cold_us(&build_us) - hit.iter().map(build_us).sum::<f64>() / queries;
    let avg_us = |tier: &Vec<QueryResponse>| tier.iter().map(total_us).sum::<f64>() / queries;
    let [optvf2_us, vf2_us] = [seeded, plain].map(avg_us);
    // A cold run happens once; a cached one repeats, so a stalled pass does
    // not count against the cache: each query's fastest of `HIT_PASSES`.
    let fastest_hit = |(q, first): (&GeneratedQuery, &QueryResponse)| {
        let again = (1..HIT_PASSES).map(|_| total_us(&execute(&engine, StrategyKind::Bounded, q)));
        again.fold(total_us(first), f64::min)
    };
    let hits = workload.queries.iter().zip(hit).map(fastest_hit);
    let hit_us = hits.sum::<f64>() / queries;
    let vf2_worst_us = plain.iter().map(total_us).fold(0.0, f64::max);
    let fetches = cold[0].iter().filter_map(|r| r.stats.fetch.as_ref());
    let fetches: Vec<_> = fetches.collect();
    let per_fetch = |total: u64| total as f64 / fetches.len().max(1) as f64;
    let avg_fragment = per_fetch(fetches.iter().map(|f| f.fragment_nodes as u64).sum());
    let avg_reads = per_fetch(fetches.iter().map(|f| f.adjacency_reads).sum());
    let avg_lookups = per_fetch(fetches.iter().map(|f| f.index_lookups).sum());
    let answers: usize = cold[0].iter().map(|r| r.answer.len()).sum();
    let graph = engine.graph();
    let nodes = graph.live_node_count();
    let maintenance_us = maintenance_nanos as f64 / 1e3 / MAINTENANCE_BATCHES as f64;
    let per_commit_us = |nanos: u128| num(nanos as f64 / 1e3 / COMMIT_BATCHES as f64, 2);
    let phases = phase_nanos.map(per_commit_us);
    let phases = Json::obj(COMMIT_PHASES.into_iter().zip(phases));
    let fraction = avg_fragment / nodes.max(1) as f64;
    let refreshed = refreshed as f64 / MAINTENANCE_BATCHES as f64;
    println!(
        "scale {scale:>8}: |G| = {nodes} nodes, avg |G_Q| = {avg_fragment:.1}; VF2 {vf2_us:.0} us, \
         optVF2 {optvf2_us:.0} us, bVF2 {bvf2_us:.0} us cold (fetch {fetch_us:.1}) / \
         {hit_us:.0} us cached ({:.2}x over VF2)",
        vf2_us / bvf2_us
    );
    Json::obj([
        ("scale", int(scale)),
        ("nodes", int(nodes)),
        ("edges", int(graph.edge_count())),
        ("build_ms", num(stream_ms + discover_ms + index_ms, 1)),
        ("stream_ms", num(stream_ms, 1)),
        ("discover_ms", num(discover_ms, 1)),
        ("index_ms", num(index_ms, 1)),
        ("index_mb", num(index_mb, 2)),
        ("graph_mb", num(graph_mb, 2)),
        // Counted, so seed-deterministic; the largest scale's is gated.
        ("graph_bytes_per_edge", num(graph_bytes_per_edge, 2)),
        // Reported, not gated: the rise depends on the allocator.
        (
            "build_peak_mb",
            rig.build_peak_mb.map_or(Json::Null, |mb| num(mb, 1)),
        ),
        ("queries", int(workload.queries.len())),
        ("avg_fragment_nodes", num(avg_fragment, 1)),
        ("fragment_fraction", num(fraction, 6)),
        ("avg_query_us", num(bvf2_us, 1)),
        ("avg_adjacency_reads", num(avg_reads, 1)),
        ("avg_index_lookups", num(avg_lookups, 1)),
        ("fetch_us", num(fetch_us, 2)),
        ("maintenance_us_per_batch", num(maintenance_us, 2)),
        ("refreshed_per_batch", num(refreshed, 1)),
        ("commit_us", per_commit_us(commit_nanos)),
        ("commit_phases_us", phases),
        // Work, not time: seed-deterministic, and gated on its growth.
        (
            "row_ids_copied_per_commit",
            num(row_ids_copied as f64 / COMMIT_BATCHES as f64, 1),
        ),
        ("answers", int(answers)),
        ("hit_us", num(hit_us, 1)),
        ("optvf2_us", num(optvf2_us, 1)),
        ("vf2_us", num(vf2_us, 1)),
        ("vf2_worst_us", num(vf2_worst_us, 1)),
        ("vf2_over_bvf2", num(vf2_us / bvf2_us, 2)),
        ("optvf2_over_bvf2", num(optvf2_us / bvf2_us, 2)),
        ("hit_speedup", num(bvf2_us / hit_us, 2)),
    ])
}

/// `key` (dotted, like a gate's) of a row as a positive finite number.
fn positive(row: Option<&Json>, key: &str) -> Option<f64> {
    let x = resolve(row?, key)?.as_f64()?;
    (x.is_finite() && x > 0.0).then_some(x)
}

/// `key` at the last row over `key` at the first. A zero, missing or
/// non-finite operand yields NaN, which no gate passes.
fn growth(rows: &[Json], key: &str) -> f64 {
    match (positive(rows.first(), key), positive(rows.last(), key)) {
        (Some(first), Some(last)) => last / first,
        _ => f64::NAN,
    }
}

fn scaling(profile: &Profile) -> Json {
    let points: Vec<Json> = profile.scales.iter().map(|&s| scale_point(s)).collect();
    // A hit has to pay off at every scale: the lowest ratio of the sweep.
    let mut hit_speedups = points.iter().map(|p| positive(Some(p), "hit_speedup"));
    let hit_speedup = hit_speedups.try_fold(f64::INFINITY, |low, x| Some(low.min(x?)));
    let growth_of = |key| num(growth(&points, key), 3);
    let last_of = |key| num(positive(points.last(), key).unwrap_or(f64::NAN), 2);
    // Offline setup per decade of |G|, the larger of the two steps: 10 is
    // linear (gated, see `GATES`).
    let step =
        |w: &[Json]| Some(positive(w.get(1), "build_ms")? / positive(w.first(), "build_ms")?);
    let mut build_steps = points.windows(2).map(step);
    let build_growth = build_steps.try_fold(0.0, |high: f64, x| Some(high.max(x?)));
    Json::obj([
        ("scenario", Json::str("social")),
        ("zipf", num(1.1, 1)),
        ("hot_fraction", num(0.5, 1)),
        ("domain", int(50)),
        ("maintenance_batches", int(MAINTENANCE_BATCHES)),
        ("commit_batches", int(COMMIT_BATCHES)),
        ("fragment_growth", growth_of("avg_fragment_nodes")),
        ("latency_growth", growth_of("avg_query_us")),
        ("maintenance_growth", growth_of("maintenance_us_per_batch")),
        ("commit_growth", growth_of("commit_us")),
        ("maintain_growth", growth_of("commit_phases_us.maintain")),
        // The commit's graph-edit phase; reported, not gated.
        ("replay_growth", growth_of("commit_phases_us.replay")),
        // The work behind it, gated (see `GATES`).
        ("row_copy_growth", growth_of("row_ids_copied_per_commit")),
        ("build_growth", num(build_growth.unwrap_or(f64::NAN), 2)),
        ("vf2_over_bvf2_largest", last_of("vf2_over_bvf2")),
        ("vf2_over_bvf2_growth", growth_of("vf2_over_bvf2")),
        (
            "graph_bytes_per_edge_largest",
            last_of("graph_bytes_per_edge"),
        ),
        ("hit_speedup", num(hit_speedup.unwrap_or(f64::NAN), 2)),
        ("scales", Json::Arr(points)),
    ])
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

/// `ScenarioConfig::scale` of `snapshot_load`'s gated `rig` row, in both
/// profiles: the full sweep's smallest graph (30k nodes), whose loads take
/// milliseconds where the checked-in datasets' take tens of microseconds.
const LOAD_RIG_SCALE: usize = 10_000;

/// Times loading graphs through their line-oriented parser vs. through a
/// compiled binary snapshot: each checked-in dataset, and the `rig` graph
/// written out in-process. `text_parse_ms` and `snapshot_load_ms` are like
/// for like (both produce exactly a `Graph`); `bundle_load_ms` also restores
/// the embedded schema and pre-built indices, which the text path would pay
/// discovery and an index build for.
fn snapshot_load(profile: &Profile) -> Json {
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data");
    let parse = |path: &Path| match path.extension() {
        Some(extension) if extension == "jsonl" => load_jsonl(path),
        _ => load_graph(path),
    };
    let tmp = std::env::temp_dir().join(format!("bgpq_bench_{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("temp dir");
    let row = |path: &Path, graph: &Graph, config: &DiscoveryConfig| {
        let schema = discover_schema(graph, config);
        let indices = AccessIndexSet::build(graph, &schema);
        let (graph_snap, bundle_snap) = (tmp.join("graph.bgpq"), tmp.join("bundle.bgpq"));
        save_graph_snapshot(graph, &graph_snap).expect("compile graph snapshot");
        save_snapshot(graph, &indices, &bundle_snap).expect("compile bundle");
        let rounds = profile.load_rounds;
        let text_parse_ms = min_ms(rounds, || parse(path));
        let snapshot_load_ms = min_ms(rounds, || load_graph_snapshot(&graph_snap).expect("loads"));
        let bundle_load_ms = min_ms(rounds, || load_snapshot(&bundle_snap).expect("loads"));
        Json::obj([
            ("text_parse_ms", num(text_parse_ms, 3)),
            ("snapshot_load_ms", num(snapshot_load_ms, 3)),
            ("bundle_load_ms", num(bundle_load_ms, 3)),
            ("speedup", num(text_parse_ms / snapshot_load_ms, 2)),
        ])
    };
    let datasets = [
        ("social", "social.tsv"),
        ("citation", "citation.jsonl"),
        ("products", "products.jsonl"),
    ];
    let rows = datasets.map(|(name, file)| {
        let path = data.join(file);
        let graph = parse(&path).expect("checked-in dataset parses");
        (name, row(&path, &graph, &DiscoveryConfig::default()))
    });
    let graph = stream_graph(Scenario::Social, &scaling_scenario(LOAD_RIG_SCALE));
    let text = tmp.join("rig.tsv");
    save_graph(&graph, &text).expect("write the rig graph");
    let rig = ("rig", row(&text, &graph, &DiscoveryConfig::simple()));
    std::fs::remove_dir_all(&tmp).ok();
    Json::obj(rows.into_iter().chain([rig]))
}

/// Pause between the `serving` writer's commits (the update cadence).
const WRITER_PERIOD: Duration = Duration::from_millis(3);

/// One closed-loop `serving` tier on a fresh server: `readers` threads
/// execute the workload back to back while one writer commits a fresh post
/// every [`WRITER_PERIOD`].
fn serving_tier(rig: &Rig, queries: &[GeneratedQuery], readers: usize, profile: &Profile) -> Json {
    let server = Server::with_indices(rig.graph.clone(), rig.indices.clone());
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let deadline = started + profile.window;
    let reader = |r: usize| {
        let mut served = 0u64;
        while Instant::now() < deadline {
            // Stagger the starting query per reader.
            let q = &queries[(r + served as usize) % queries.len()];
            let request = QueryRequest::build(q.pattern.clone()).finish();
            let response = server
                .execute(&request)
                .expect("bounded queries never fail");
            // Posts never break the schema's bounds on these queries.
            assert_eq!(response.strategy, StrategyKind::Bounded);
            served += 1;
        }
        served
    };
    let (served, elapsed) = thread::scope(|s| {
        s.spawn(|| {
            for i in 0.. {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let post = NodeId(server.snapshot().graph().node_count() as u32);
                let (src, dst) = post_endpoints(&rig.users, &rig.tags, i);
                let label = "post".into();
                let value = Value::Int((profile.scales[0] + i) as i64);
                let batch = [
                    Update::AddNode { label, value },
                    Update::AddEdge { src, dst: post },
                    Update::AddEdge { src: post, dst },
                ];
                server.commit(&batch).expect("writer batches are valid");
                thread::sleep(WRITER_PERIOD);
            }
        });
        let handles: Vec<_> = (0..readers).map(|r| s.spawn(move || reader(r))).collect();
        let served = handles
            .into_iter()
            .map(|h| h.join().expect("reader panicked"));
        let served: u64 = served.sum();
        let elapsed = started.elapsed();
        stop.store(true, Ordering::Relaxed);
        (served, elapsed)
    });
    let stats = server.stats();
    let per_commit_us = |nanos: u64| num(nanos as f64 / stats.commits.max(1) as f64 / 1e3, 1);
    let fragment_cache_hits = server.snapshot().engine().stats().fragment_cache_hits;
    Json::obj([
        ("readers", int(readers)),
        ("queries", int(served)),
        ("qps", num(served as f64 / elapsed.as_secs_f64(), 0)),
        ("commits", int(stats.commits)),
        ("avg_commit_us", per_commit_us(stats.commit_nanos)),
        ("avg_delta_apply_us", per_commit_us(stats.delta_apply_nanos)),
        ("fragment_cache_hits", int(fragment_cache_hits)),
    ])
}

/// Closed-loop serving throughput under a mixed read+update workload: one
/// reader, then one per core, each against one writer. On a single core the
/// two tiers are the same tier, measured once: the ratio is 1 by identity
/// instead of by a coin flip between two equal runs.
fn serving(profile: &Profile) -> Json {
    let rig = Rig::build(profile.scales[0]);
    let queries = workload(&rig.graph, &rig.schema).queries;
    let mut readers = vec![1, cores()];
    readers.dedup();
    let tier = |readers| serving_tier(&rig, &queries, readers, profile);
    let tiers: Vec<Json> = readers.into_iter().map(tier).collect();
    Json::obj([
        ("scale", int(profile.scales[0])),
        ("window_ms", int(profile.window.as_millis())),
        ("writer_period_us", int(WRITER_PERIOD.as_micros())),
        ("multi_over_single", num(growth(&tiers, "qps"), 2)),
        ("tiers", Json::Arr(tiers)),
    ])
}

/// Sender connections of a `tcp` tier: more than the admission gate's
/// default `max_in_flight` of 8, so an overload tier can actually trip it.
const CONNECTIONS: usize = 12;

/// A histogram of microseconds as percentiles.
fn distribution(h: &LatencyHistogram) -> Json {
    Json::obj([
        ("p50", int(h.quantile(0.5))),
        ("p95", int(h.quantile(0.95))),
        ("p99", int(h.quantile(0.99))),
        ("mean", int(h.mean())),
        ("max", int(h.max())),
    ])
}

/// One open-loop tier: arrivals on a strict clock at `offered` per second —
/// sender `c` of `C` owns arrivals `c, c+C, c+2C, …` — with latency measured
/// from the *scheduled* arrival, so queueing delay under overload is visible
/// instead of being absorbed by a coordinating sender (no coordinated
/// omission). The senders are blocking clients, so past capacity they fall
/// behind their own schedule: `lateness_us` (scheduled arrival to actual
/// send) says by how much, and `achieved_qps` divides by the span the tier
/// really took, not by the nominal window late senders run past.
fn tcp_tier(addr: SocketAddr, specs: &[QuerySpec], offered: u64, window: Duration) -> Json {
    // A small lead lets every sender connect before arrival 0 is due.
    let clock = ArrivalClock::new(offered, window, Duration::from_millis(5));
    let first_arrival = clock.arrival(0).expect("a window holds an arrival");
    let sender = |c: usize| {
        let mut client = Client::connect(addr, &format!("bench-{c}")).expect("connect sender");
        let (mut latency, mut lateness) = (LatencyHistogram::new(), LatencyHistogram::new());
        let [mut scheduled, mut completed, mut rejected, mut bytes_in] = [0u64; 4];
        let mut last_completion = first_arrival;
        let mut i = c as u64;
        while let Some(arrival) = clock.wait_for(i) {
            scheduled += 1;
            lateness.record(arrival.elapsed().as_micros() as u64);
            let before = client.bytes_in();
            match client.query(&specs[i as usize % specs.len()]) {
                Ok(_) => {
                    completed += 1;
                    bytes_in += client.bytes_in() - before;
                    latency.record(arrival.elapsed().as_micros() as u64);
                    last_completion = Instant::now();
                }
                Err(e) if e.code() == Some(ErrorCode::Overloaded) => rejected += 1,
                Err(e) => panic!("sender {c}: {e}"),
            }
            i += CONNECTIONS as u64;
        }
        client.goodbye().expect("goodbye");
        let counts = [scheduled, completed, rejected, bytes_in];
        (counts, last_completion, latency, lateness)
    };
    let lanes: Vec<_> = thread::scope(|s| {
        let handles = (0..CONNECTIONS).map(|c| s.spawn(move || sender(c)));
        let handles: Vec<_> = handles.collect();
        let lanes = handles
            .into_iter()
            .map(|h| h.join().expect("sender panicked"));
        lanes.collect()
    });
    let mut counts = [0u64; 4];
    let (mut latency, mut lateness) = (LatencyHistogram::new(), LatencyHistogram::new());
    let mut last_completion = first_arrival;
    for (lane_counts, lane_last, lane_latency, lane_lateness) in &lanes {
        for (total, n) in counts.iter_mut().zip(lane_counts) {
            *total += n;
        }
        last_completion = last_completion.max(*lane_last);
        latency.merge(lane_latency);
        lateness.merge(lane_lateness);
    }
    let [scheduled, completed, rejected, bytes_in] = counts;
    let reject_rate = rejected as f64 / scheduled.max(1) as f64;
    // The schedule occupies the whole window even when its last request
    // completes early, so the span never reads shorter than the window.
    let span = (last_completion - first_arrival).max(window).as_secs_f64();
    Json::obj([
        ("offered_qps", int(offered)),
        ("scheduled", int(scheduled)),
        ("completed", int(completed)),
        ("rejected", int(rejected)),
        ("reject_rate", num(reject_rate, 4)),
        ("span_ms", num(span * 1e3, 1)),
        ("achieved_qps", num(completed as f64 / span, 0)),
        ("bytes_in_per_query", int(bytes_in / completed.max(1))),
        ("latency_us", distribution(&latency)),
        ("lateness_us", distribution(&lateness)),
    ])
}

/// Open-loop serving over real loopback connections: latency percentiles,
/// generator lateness and reject rate per offered-load tier, then `layers` —
/// the server's own per-phase histograms (parse, execute, render) from its
/// `stats` frame, so a slow tier can be read as server time or as time spent
/// outside it. There is no queue inside the server: a request the cores
/// cannot run yet waits in its socket, in front of the admission gate, and
/// shows up as its sender's lateness, not in `layers`.
fn tcp(profile: &Profile) -> Json {
    let scale = profile.scales[0];
    let rig = Rig::build(scale);
    let queries = workload(&rig.graph, &rig.schema).queries;
    let specs = queries.into_iter().map(|q| QuerySpec::new(q.text));
    let specs: Vec<QuerySpec> = specs.collect();
    let config = NetServerConfig::default();
    let max_in_flight = config.max_in_flight;
    let server = Arc::new(Server::with_indices(rig.graph, rig.indices));
    let handle = NetServer::start(server, config).expect("bind loopback");
    let addr = handle.local_addr();
    let tier = |&offered| tcp_tier(addr, &specs, offered, profile.window);
    let tiers: Vec<Json> = profile.offered.iter().map(tier).collect();
    let mut client = Client::connect(addr, "bench-layers").expect("connect for stats");
    let stats = client.stats().expect("stats frame");
    client.goodbye().expect("goodbye");
    let layers = resolve(&stats, "server.phases_us");
    let layers = layers.expect("the stats frame carries phases_us").clone();
    assert!(handle.shutdown(), "bench server drains cleanly");
    Json::obj([
        ("scale", int(scale)),
        ("window_ms", int(profile.window.as_millis())),
        ("connections", int(CONNECTIONS)),
        ("max_in_flight", int(max_in_flight)),
        ("layers", layers),
        ("tiers", Json::Arr(tiers)),
    ])
}

/// Runs the selected sections (all of them for `None`) into one report.
fn measure(profile: &Profile, only: Option<&str>) -> Json {
    let scales = profile.scales.iter().map(|&s| int(s)).collect();
    let config = Json::obj([
        ("profile", Json::str(profile.name)),
        ("cores", int(cores())),
        ("scales", Json::Arr(scales)),
    ]);
    let mut fields = vec![("config".to_string(), config)];
    for (name, section) in SECTIONS {
        if only.map_or(true, |o| o == name) {
            let t = Instant::now();
            fields.push((name.to_string(), section(profile)));
            println!("{name}: measured in {:.1} s", t.elapsed().as_secs_f64());
        }
    }
    Json::Obj(fields)
}

/// Pretty-prints a report: one child per line down to the rows of a section
/// (depth 3) and wherever nothing nests further, compact from there.
fn pretty(out: &mut String, value: &Json, depth: usize) {
    let (children, open, close): (Vec<(Option<&str>, &Json)>, _, _) = match value {
        Json::Obj(fields) => (
            fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            '{',
            '}',
        ),
        Json::Arr(items) => (items.iter().map(|v| (None, v)).collect(), '[', ']'),
        _ => (Vec::new(), ' ', ' '),
    };
    let nests = |v: &Json| matches!(v, Json::Obj(_) | Json::Arr(_));
    if depth >= 3 || !children.iter().any(|(_, v)| nests(v)) {
        return out.push_str(&value.render());
    }
    out.push(open);
    for (i, (key, child)) in children.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(depth + 1));
        if let Some(key) = key {
            write_json_string(out, key);
            out.push_str(": ");
        }
        pretty(out, child, depth + 1);
    }
    out.push('\n');
    out.push_str(&"  ".repeat(depth));
    out.push(close);
}

/// The value a dotted key names in `report`; a numeric segment indexes an
/// array.
fn resolve<'a>(report: &'a Json, key: &str) -> Option<&'a Json> {
    key.split('.')
        .try_fold(report, |value, segment| match value {
            Json::Arr(items) => items.get(segment.parse::<usize>().ok()?),
            _ => value.get(segment),
        })
}

/// One gate's line: `Ok` when it holds, `Err` when the number is on the
/// wrong side of the threshold — or is not there at all: a key that does not
/// resolve to a finite number (a renamed section, a ratio with a zero
/// operand) fails its gate instead of silently disabling it.
fn verdict(report: &Json, &(key, bound, threshold, meaning): &Gate) -> Result<String, String> {
    let value = resolve(report, key).and_then(Json::as_f64);
    let Some(value) = value.filter(|x| x.is_finite()) else {
        return Err(format!(
            "REGRESSION — {key} is not a finite number in the report"
        ));
    };
    let (holds, relation) = match bound {
        Min => (value >= threshold, ">="),
        Max => (value <= threshold, "<="),
    };
    if holds {
        Ok(format!(
            "gate passed — {key} = {value} {relation} {threshold}"
        ))
    } else {
        Err(format!(
            "REGRESSION — {key} = {value}, required {relation} {threshold} ({meaning})"
        ))
    }
}

/// Evaluates `gates` against `report`, one line each; the exit code.
fn check<'a>(report: &Json, gates: impl IntoIterator<Item = &'a Gate>) -> i32 {
    let mut code = 0;
    for gate in gates {
        match verdict(report, gate) {
            Ok(line) => println!("bench: {line}"),
            Err(line) => {
                eprintln!("bench: {line}");
                code = 1;
            }
        }
    }
    code
}

#[derive(Debug, Default, PartialEq)]
struct Args {
    smoke: bool,
    check: bool,
    out: Option<String>,
    only: Option<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--smoke" => parsed.smoke = true,
                "--check" => parsed.check = true,
                "--out" => parsed.out = Some(it.next().ok_or("--out expects a path")?.clone()),
                "--only" => {
                    let name = it.next().ok_or("--only expects a section")?;
                    if !SECTIONS.iter().any(|(section, _)| section == name) {
                        return Err(format!("unknown section {name:?}"));
                    }
                    parsed.only = Some(name.clone());
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(parsed)
    }
}

fn run(args: &[String]) -> i32 {
    let args = match Args::parse(args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench: {e}");
            let sections: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
            let sections = sections.join("|");
            eprintln!("usage: bench [--smoke] [--check] [--out PATH] [--only {sections}]");
            return 2;
        }
    };
    let only = args.only.as_deref();
    let report = measure(if args.smoke { &SMOKE } else { &FULL }, only);
    let mut text = String::new();
    pretty(&mut text, &report, 0);
    text.push('\n');
    // `BENCH.json` is the checked-in full report: a smoke-sized or partial
    // run writes only where `--out` says, and prints its report otherwise.
    let whole = !args.smoke && only.is_none();
    let out = args.out.as_deref().or(whole.then_some("BENCH.json"));
    match out.map(|out| (out, std::fs::write(out, &text))) {
        Some((out, Ok(()))) => println!("report -> {out}"),
        Some((out, Err(e))) => {
            eprintln!("bench: cannot write {out}: {e}");
            return 2;
        }
        None => print!("{text}"),
    }
    if !args.check {
        return 0;
    }
    let selected = |gate: &&Gate| only.map_or(true, |o| gate.0.split('.').next() == Some(o));
    check(&report, GATES.iter().filter(selected))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run(&args));
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpq_graph::io::json::parse_json;
    use std::sync::OnceLock;

    /// A two-point toy sweep: every section in process, seconds in a debug
    /// build. Its timings mean nothing; its keys, counts and asserts do. Not
    /// smaller: under a scale of ~1000 the scenario's curated tier is most of
    /// the graph and whole-graph `VF2` enumerates answers by the million.
    const TOY: Profile = Profile {
        name: "toy",
        scales: &[1_000, 2_000],
        window: Duration::from_millis(40),
        offered: &[200],
        load_rounds: 1,
    };

    /// The toy report, measured once and read back from its own rendering —
    /// what a consumer of `BENCH.json` sees.
    fn report() -> &'static Json {
        static REPORT: OnceLock<Json> = OnceLock::new();
        REPORT.get_or_init(|| {
            let mut text = String::new();
            pretty(&mut text, &measure(&TOY, None), 0);
            parse_json(&text).expect("the rendered report is JSON")
        })
    }

    #[test]
    fn every_gate_key_resolves_to_a_finite_number() {
        for gate in &GATES {
            let value = resolve(report(), gate.0).and_then(Json::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{}: {value:?}", gate.0);
        }
    }

    #[test]
    fn a_gate_on_a_missing_key_or_a_zero_operand_fails_and_names_the_key() {
        let renamed: Gate = ("scaling.renamed_away", Max, 1.0, "");
        let line = verdict(report(), &renamed).unwrap_err();
        assert!(line.contains("scaling.renamed_away"), "{line}");
        assert_eq!(check(report(), [&renamed]), 1);

        let rows = |first, last| [first, last].map(|x| Json::obj([("x", num(x, 2))]));
        // Below 1.0 at both ends: the clamped ratio read 1.0 and passed.
        assert_eq!(growth(&rows(0.25, 0.5), "x"), 2.0);
        // A dotted key reads a nested number, as `maintain_growth` does.
        let nested = [0.25, 0.75].map(|x| Json::obj([("phases", Json::obj([("x", num(x, 2))]))]));
        assert_eq!(growth(&nested, "phases.x"), 3.0);
        for broken in [rows(0.0, 0.5), rows(0.5, f64::NAN)] {
            assert!(growth(&broken, "x").is_nan());
            assert!(growth(&broken, "missing").is_nan());
            let doctored = Json::obj([("x_growth", num(growth(&broken, "x"), 3))]);
            let line = verdict(&doctored, &("x_growth", Max, 9.0, "")).unwrap_err();
            assert!(line.contains("x_growth"), "{line}");
        }
    }

    #[test]
    fn a_violated_threshold_exits_non_zero_naming_key_value_and_bound() {
        let doctored = |x| Json::obj([("serving", Json::obj([("multi_over_single", num(x, 2))]))]);
        let gate = GATES.iter().find(|g| g.0 == "serving.multi_over_single");
        let gate = gate.expect("the serving gate is in the table");
        let line = verdict(&doctored(0.5), gate).unwrap_err();
        for part in ["REGRESSION", "serving.multi_over_single", "0.5", ">= 1"] {
            assert!(line.contains(part), "{part:?} not in {line:?}");
        }
        assert_eq!(check(&doctored(0.5), [gate]), 1);
        assert_eq!(check(&doctored(1.5), [gate]), 0);
    }

    #[test]
    fn the_three_tiers_answer_alike_at_each_scale_point() {
        // `scale_point` asserts answer equality tier by tier; what is left to
        // check is that it ran at both points and on non-empty answers.
        let points = resolve(report(), "scaling.scales").and_then(Json::as_arr);
        let points = points.expect("scaling has its rows");
        assert_eq!(points.len(), TOY.scales.len());
        for point in points {
            let keys = [
                "answers",
                "vf2_us",
                "optvf2_us",
                "avg_query_us",
                "hit_us",
                "avg_index_lookups",
            ];
            for key in keys {
                assert!(positive(Some(point), key).is_some(), "{key} in {point:?}");
            }
        }
    }

    #[test]
    fn an_open_loop_tier_reports_lateness_and_no_more_than_it_was_offered() {
        let tier = resolve(report(), "tcp.tiers.0").expect("one tier");
        let read = |key| resolve(tier, key).and_then(Json::as_f64).expect(key);
        // Counted by the senders as the clock hands arrivals out: a dropped
        // arrival or a wrong lane stride shows against the clock's own grid.
        let offered = TOY.offered[0] as f64 * TOY.window.as_secs_f64();
        assert_eq!(read("scheduled"), offered);
        assert_eq!(read("completed") + read("rejected"), read("scheduled"));
        assert!(read("span_ms") >= TOY.window.as_millis() as f64);
        assert!(read("achieved_qps") <= read("offered_qps"));
        assert!(read("lateness_us.p50") <= read("lateness_us.p99"));
    }

    #[test]
    fn exactly_four_flags_and_every_removed_one_is_refused() {
        let strings = |args: &[&str]| args.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        let all = strings(&["--smoke", "--check", "--out", "x.json", "--only", "tcp"]);
        let parsed = Args {
            smoke: true,
            check: true,
            out: Some("x.json".into()),
            only: Some("tcp".into()),
        };
        assert_eq!(Args::parse(&all), Ok(parsed));
        assert!(Args::parse(&strings(&["--only", "open_loop"])).is_err());
        #[rustfmt::skip]
        let removed = [
            "--movies", "--queries", "--rounds", "--min-speedup", "--min-load-speedup",
            "--min-fragment-hit-speedup", "--min-bitmap-speedup", "--open-loop", "--offered",
            "--duration-ms", "--lanes", "--max-p99-ms", "--scales", "--workload-queries",
            "--max-fragment-growth", "--max-latency-growth", "--max-maintenance-growth",
            "--max-commit-growth", "--threads", "--writer-period-us", "--min-scaling",
            "--connections", "--max-in-flight",
        ];
        for flag in removed {
            let args = strings(&[flag, "1"]);
            let refusal = Args::parse(&args).unwrap_err();
            assert!(refusal.contains("unknown argument") && refusal.contains(flag));
            assert_eq!(run(&args), 2);
        }
    }
}
