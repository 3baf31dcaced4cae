//! Scale-invariance regression: the paper's headline claim, as a test.
//!
//! The same seed-pinned bounded workload runs against the same skewed
//! social scenario at two scales a decade apart. The graph grows ~10x;
//! the average fragment `|G_Q|` the bounded strategy fetches must stay in
//! a constant band, because the plan — not the graph — sizes it, and so
//! must the parent adjacency entries read to build its view, although the
//! hubs inside the fragment grow with the graph. A nightly `--ignored`
//! smoke streams the full million-node scenario to verify the generator
//! holds its contiguous-id contract at that size.

use bgpq_engine::{
    discover_schema, AccessIndexSet, DiscoveryConfig, Engine, QueryRequest, Semantics, StrategyKind,
};
use bgpq_workload::{
    generate_with, generate_workload, stream_graph, Record, Scenario, ScenarioConfig,
    WorkloadConfig,
};

/// The engine bench's skewed scaling scenario, pinned to one seed.
fn scaling_scenario(scale: usize) -> ScenarioConfig {
    ScenarioConfig {
        zipf: Some(1.1),
        hot_fraction: Some(0.5),
        domain: Some(50),
        ..ScenarioConfig::new(scale, 7)
    }
}

/// One scale point: averages per bounded run, and the graph they ran on.
struct ScalePoint {
    /// avg `|V(G_Q)|`.
    fragment_nodes: f64,
    /// avg `FetchStats::adjacency_reads`: work counted, not timed.
    adjacency_reads: f64,
    /// Live `|V|`.
    nodes: usize,
    /// The largest out-degree in the graph: what a hub scan would cost.
    max_out_degree: usize,
}

fn measure(scale: usize) -> ScalePoint {
    let graph = stream_graph(Scenario::Social, &scaling_scenario(scale));
    let schema = discover_schema(&graph, &DiscoveryConfig::simple());
    // Uncapped: a truncated index would make the engine's filtered planner
    // refuse queries the generator certified bounded against the schema.
    let indices = AccessIndexSet::build_with_cap(&graph, &schema, usize::MAX);
    let config = WorkloadConfig {
        queries: 8,
        seed: 0x1CDE_2015,
        bounded_fraction: 1.0,
        selectivity: Some(0.5),
        min_nodes: 3,
        max_nodes: 5,
        semantics: Semantics::Isomorphism,
        shape_weights: [2, 1, 0, 1],
    };
    let workload = generate_workload(&graph, &schema, &config).expect("bounded workload generates");
    let nodes = graph.live_node_count();
    let max_out_degree = graph
        .nodes()
        .map(|v| graph.out_degree(v))
        .max()
        .unwrap_or(0);
    let engine = Engine::with_indices(graph, indices);
    let (mut fragment_nodes, mut adjacency_reads, mut runs) = (0u64, 0u64, 0u64);
    for q in &workload.queries {
        let request = QueryRequest::build(q.pattern.clone())
            .strategy(StrategyKind::Bounded)
            .finish();
        let response = engine.execute(&request).expect("certified bounded");
        let fetch = response.stats.fetch.as_ref().expect("bounded runs fetch");
        fragment_nodes += fetch.fragment_nodes as u64;
        adjacency_reads += fetch.adjacency_reads;
        runs += 1;
    }
    ScalePoint {
        fragment_nodes: fragment_nodes as f64 / runs as f64,
        adjacency_reads: adjacency_reads as f64 / runs as f64,
        nodes,
        max_out_degree,
    }
}

/// `|G|` grows 10x; avg `|G_Q|` and the avg adjacency entries read to build
/// its view stay put. Debug builds use a smaller decade so the test stays
/// CI-sized either way.
#[test]
fn fragment_size_and_view_work_are_scale_invariant_across_a_decade() {
    let scales: [usize; 2] = if cfg!(debug_assertions) {
        [2_000, 20_000]
    } else {
        [10_000, 100_000]
    };
    let (small, large) = (measure(scales[0]), measure(scales[1]));
    let graph_growth = large.nodes as f64 / small.nodes as f64;
    assert!(
        graph_growth > 3.0,
        "scenario stopped scaling: |G| {} -> {}",
        small.nodes,
        large.nodes
    );
    let fragment_growth = large.fragment_nodes / small.fragment_nodes.max(1.0);
    assert!(
        (0.5..=2.0).contains(&fragment_growth),
        "avg |G_Q| {:.1} -> {:.1} ({fragment_growth:.2}x) left the constant band while |G| \
         grew {graph_growth:.1}x",
        small.fragment_nodes,
        large.fragment_nodes
    );
    // The guard must have something to guard against: the hubs do grow.
    assert!(
        large.max_out_degree as f64 > 3.0 * small.max_out_degree as f64,
        "hubs stopped growing: max out-degree {} -> {}",
        small.max_out_degree,
        large.max_out_degree
    );
    // Wider than the `|G_Q|` band: a list is still read whole until it is
    // 8x the fragment, so mid-sized hubs grow into the gallop before the
    // count flattens (1.03x in release, 1.78x over the debug decade; a scan
    // of every neighbourhood would track the hubs, ~9x).
    let reads_growth = large.adjacency_reads / small.adjacency_reads.max(1.0);
    assert!(
        (0.4..=2.5).contains(&reads_growth),
        "avg adjacency reads per view {:.0} -> {:.0} ({reads_growth:.2}x) left the constant \
         band while |G| grew {graph_growth:.1}x",
        small.adjacency_reads,
        large.adjacency_reads
    );
}

/// Nightly smoke: stream the million-node skewed scenario end to end and
/// check the sink contract the loaders rely on — node ids contiguous from
/// zero, every edge endpoint already emitted. Run with `--ignored`.
#[test]
#[ignore = "million-node stream; run nightly via cargo test -- --ignored"]
fn million_node_stream_keeps_ids_contiguous() {
    let config = scaling_scenario(1_000_000);
    let mut next_id = 0u64;
    let mut edges = 0u64;
    generate_with(Scenario::Social, &config, |record| match record {
        Record::Node { id, .. } => {
            assert_eq!(id, next_id, "node ids must be contiguous from 0");
            next_id += 1;
        }
        Record::Edge { src, dst, .. } => {
            assert!(src < next_id && dst < next_id, "edge before its endpoints");
            edges += 1;
        }
    });
    assert!(
        next_id > 1_000_000,
        "scenario under-emitted: {next_id} nodes"
    );
    assert!(edges > 1_000_000, "scenario under-emitted: {edges} edges");
}
