//! Scale-invariance regression: the paper's headline claim, as a test.
//!
//! The same seed-pinned bounded workload runs against the same skewed
//! social scenario at two scales a decade apart. The graph grows ~10x;
//! the average fragment `|G_Q|` the bounded strategy fetches must stay in
//! a constant band, because the plan — not the graph — sizes it, and so
//! must the parent adjacency entries read to build its view, although the
//! hubs inside the fragment grow with the graph. The update side is held to
//! the same standard: a fixed batch of posts attached to the graph's
//! biggest hubs must copy the same number of storage pages, label-bucket
//! chunks, adjacency-row ids and spine groups (and no index page: the unary
//! indices are the graph's rows), and repair the same number of
//! contributions, at both scales — and what a commit pays just
//! to *share* the previous version is counted against its structural
//! bound, one reference count per 64 pages. The graph's and the indices'
//! storage per node stays in a constant band too, its bundle's `Indices`
//! section stays at 32 bytes per constraint at most, with no label
//! buckets written beside it, and every generated query
//! plans against indices built at the default combination cap, since unary
//! indices never truncate. A nightly `--ignored`
//! smoke streams the full million-node scenario to verify the generator
//! holds its contiguous-id contract at that size.

use bgpq_engine::{
    discover_schema, plan_for_indices, AccessIndexSet, DiscoveryConfig, NodeId, QueryRequest,
    Semantics, StrategyKind, Value,
};
use bgpq_graph::io::snapshot::{Section, SnapshotArchive};
use bgpq_graph::{SpineShape, PAGE_SIZE, SPINE_FANOUT};
use bgpq_serve::{Server, Update};
use bgpq_workload::{
    generate_with, generate_workload, stream_graph, Record, Scenario, ScenarioConfig,
    WorkloadConfig,
};

/// The bench harness's skewed scaling scenario, pinned to one seed.
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
    /// `|E|` as built.
    edges: usize,
    /// The largest out-degree in the graph: what a hub scan would cost.
    max_out_degree: usize,
    /// Degree of the smallest hub the commit batches attach posts to.
    touched_hub_degree: usize,
    /// Per commit: storage pages, bucket chunks, adjacency-row ids and
    /// index pages copied, spine groups un-shared (graph and indices), and
    /// contributions repaired — the commit's work, counted, not timed.
    pages_copied: f64,
    chunks_copied: f64,
    row_ids_copied: f64,
    shards_copied: f64,
    groups_copied: f64,
    refreshed: f64,
    /// Reference counts bumped by one `Graph::clone` plus un-sharing every
    /// index the batch touches.
    share_refcounts: usize,
    /// Bytes of graph and index storage per node of the graph as built
    /// (`Graph::storage_bytes` plus `AccessIndexSet::storage_bytes`:
    /// counted, not measured). The global and unary indices are the
    /// graph's label buckets and rows, so the graph's bytes are theirs too.
    bytes_per_node: f64,
}

/// Every spine holds its last leaf apart and the others in
/// `⌈(leaves − 1) / 64⌉` groups; returns the reference counts cloning (or
/// un-sharing) the spines' owner bumps — a group's each, and the last
/// leaf's.
fn refcounts(spines: &[SpineShape]) -> usize {
    for spine in spines {
        let grouped = spine.leaves.saturating_sub(1);
        assert_eq!(spine.groups, grouped.div_ceil(SPINE_FANOUT));
    }
    spines.iter().map(SpineShape::refcounts).sum()
}

/// Commit batches applied per scale point, each attaching one post to each
/// of the [`HUBS`] busiest authors and tags.
const COMMITS: usize = 4;
const HUBS: usize = 3;

/// The `HUBS` nodes labeled `label` with the most neighbors, busiest first.
fn hubs(graph: &bgpq_engine::Graph, label: &str) -> Vec<NodeId> {
    let label = graph.interner().get(label).expect("social label exists");
    let mut nodes = graph.nodes_with_label(label).to_vec();
    nodes.sort_by_key(|&v| std::cmp::Reverse(graph.degree(v)));
    nodes.truncate(HUBS);
    nodes
}

fn measure(scale: usize) -> ScalePoint {
    let graph = stream_graph(Scenario::Social, &scaling_scenario(scale));
    let schema = discover_schema(&graph, &DiscoveryConfig::simple());
    // Uncapped: a truncated index would make the engine's filtered planner
    // refuse queries the generator certified bounded against the schema.
    let indices = AccessIndexSet::build_with_cap(&graph, &schema, usize::MAX);
    // A simple schema is global and unary constraints alone, answered by
    // the graph: it stores nothing beside it.
    assert_eq!(indices.storage_bytes(), 0, "index bytes (scale {scale})");
    let bytes = graph.storage_bytes() + indices.storage_bytes();
    let bytes_per_node = bytes as f64 / graph.node_count() as f64;
    // Nor does its bundle: a global or unary record is its cap, 16 bytes
    // whatever `|G|` is, and the label buckets are rebuilt from the labels.
    let mut bundle = Vec::new();
    bgpq_access::write_snapshot(&graph, &indices, &mut bundle).expect("the bundle writes");
    let archive = SnapshotArchive::from_bytes(bundle).expect("the bundle reads");
    let (_, range) = archive
        .sections()
        .find(|&(section, _)| section == Section::Indices)
        .expect("a bundle has indices");
    assert!(
        range.len() <= 32 * schema.len(),
        "a {}-byte Indices section for {} constraints (scale {scale})",
        range.len(),
        schema.len()
    );
    let retired = archive.sections().find(|(section, _)| section.id() == 6);
    assert!(retired.is_none(), "a label-bucket section (scale {scale})");
    let edges = graph.edge_count();
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
    // The CLI's indices, at the default cap, plan every certified query: a
    // unary index never truncates, and nothing else here enumerates.
    let at_default_cap = AccessIndexSet::build(&graph, &schema);
    for (i, q) in workload.queries.iter().enumerate() {
        let planned = plan_for_indices(&q.pattern, &at_default_cap, Semantics::Isomorphism);
        assert!(
            planned.is_ok(),
            "query {i} does not plan at the default cap (scale {scale})"
        );
    }
    let nodes = graph.live_node_count();
    let max_out_degree = graph
        .nodes()
        .map(|v| graph.out_degree(v))
        .max()
        .unwrap_or(0);
    let (authors, tags) = (hubs(&graph, "user"), hubs(&graph, "tag"));
    let touched_hub_degree = authors
        .iter()
        .chain(&tags)
        .map(|&v| graph.degree(v))
        .min()
        .expect("the scenario has users and tags");
    let server = Server::with_indices(graph, indices);
    let (mut fragment_nodes, mut adjacency_reads, mut runs) = (0u64, 0u64, 0u64);
    for q in &workload.queries {
        let request = QueryRequest::build(q.pattern.clone())
            .strategy(StrategyKind::Bounded)
            .finish();
        let response = server.execute(&request).expect("certified bounded");
        let fetch = response.stats.fetch.as_ref().expect("bounded runs fetch");
        fragment_nodes += fetch.fragment_nodes as u64;
        adjacency_reads += fetch.adjacency_reads;
        runs += 1;
    }

    let (mut pages_copied, mut shards_copied, mut refreshed) = (0u64, 0u64, 0usize);
    let (mut chunks_copied, mut groups_copied, mut row_ids_copied) = (0u64, 0u64, 0u64);
    let groups = |server: &Server| {
        let snapshot = server.snapshot();
        snapshot.graph().groups_copied() + snapshot.indices().groups_copied()
    };
    for _ in 0..COMMITS {
        let groups_before = groups(&server);
        let next = server.snapshot().graph().node_count() as u32;
        let mut batch = Vec::new();
        for (post, (&author, &tag)) in (next..).map(NodeId).zip(authors.iter().zip(&tags)) {
            batch.push(Update::AddNode {
                label: "post".into(),
                value: Value::Int(i64::from(post.0)),
            });
            batch.push(Update::AddEdge {
                src: author,
                dst: post,
            });
            batch.push(Update::AddEdge {
                src: post,
                dst: tag,
            });
        }
        let receipt = server.commit(&batch).expect("the batch is valid");
        pages_copied += receipt.pages_copied;
        chunks_copied += receipt.chunks_copied;
        row_ids_copied += receipt.row_ids_copied;
        shards_copied += receipt.shards_copied;
        groups_copied += groups(&server) - groups_before;
        refreshed += receipt.maintenance.refreshed_contributions;
    }

    // What sharing the last version cost the last commit: the graph's
    // spines, and those of every index the batch un-shared. The four
    // per-node arrays hold one page per `PAGE_SIZE` nodes.
    let snapshot = server.snapshot();
    let graph_spines = snapshot.graph().spines();
    let pages = snapshot.graph().node_count().div_ceil(PAGE_SIZE);
    assert!(graph_spines[..4].iter().all(|spine| spine.leaves == pages));
    let post = snapshot.graph().interner().get("post").unwrap();
    let touched = snapshot.indices().iter().filter(|(_, index)| {
        let c = index.constraint();
        c.target() == post || c.source().contains(&post)
    });
    let share_refcounts = refcounts(&graph_spines)
        + touched
            .map(|(_, index)| refcounts(&index.spines()))
            .sum::<usize>();
    ScalePoint {
        fragment_nodes: fragment_nodes as f64 / runs as f64,
        adjacency_reads: adjacency_reads as f64 / runs as f64,
        nodes,
        edges,
        max_out_degree,
        touched_hub_degree,
        pages_copied: pages_copied as f64 / COMMITS as f64,
        chunks_copied: chunks_copied as f64 / COMMITS as f64,
        row_ids_copied: row_ids_copied as f64 / COMMITS as f64,
        shards_copied: shards_copied as f64 / COMMITS as f64,
        groups_copied: groups_copied as f64 / COMMITS as f64,
        refreshed: refreshed as f64 / COMMITS as f64,
        share_refcounts,
        bytes_per_node,
    }
}

/// `|G|` grows 10x; avg `|G_Q|`, the avg adjacency entries read to build its
/// view, and the copy and repair work of a commit stay put. Debug builds use
/// a smaller decade so the test stays CI-sized either way.
#[test]
fn fragment_view_and_commit_work_are_scale_invariant_across_a_decade() {
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

    // The update-side twin: the same three-post batch, attached to the
    // busiest authors and tags, costs the same copy-on-write work and the
    // same index repairs whether those hubs have hundreds of neighbours or
    // thousands.
    let hub_growth = large.touched_hub_degree as f64 / small.touched_hub_degree as f64;
    assert!(
        hub_growth > 3.0,
        "the touched hubs stopped growing: degree {} -> {}",
        small.touched_hub_degree,
        large.touched_hub_degree
    );
    assert!(small.refreshed > 0.0 && small.pages_copied > 0.0);
    // The schema is global and unary constraints, answered from the
    // graph's label buckets and rows, whose copies `chunks` and `pages`
    // count. No index page is copied at either scale.
    assert_eq!(
        (small.shards_copied, large.shards_copied),
        (0.0, 0.0),
        "index pages copied per commit"
    );
    assert_eq!(
        small.refreshed, large.refreshed,
        "the same batch must repair the same contributions at every scale"
    );
    assert_eq!(
        (small.chunks_copied, large.chunks_copied),
        (1.0, 1.0),
        "three posts share one tail chunk of their bucket, however long the bucket"
    );
    // A hub's row is chunked: an edit copies the chunk it lands in, not
    // the row, however many neighbours the hub has.
    for (what, small, large) in [
        ("pages", small.pages_copied, large.pages_copied),
        ("groups", small.groups_copied, large.groups_copied),
        ("row ids", small.row_ids_copied, large.row_ids_copied),
    ] {
        let growth = large / small;
        eprintln!("{what} copied per commit {small:.1} -> {large:.1} ({growth:.2}x)");
        assert!(
            (0.5..=2.0).contains(&growth),
            "{what} copied per commit {small:.1} -> {large:.1} ({growth:.2}x) left the constant \
             band while the touched hubs grew {hub_growth:.1}x"
        );
    }

    // The graph and its indices grow with the graph, not faster: their
    // storage per node stays put over the decade, and near what a node's
    // own share of the storage takes — a label, a value, the two `u16`
    // bounds of its rows in their pages and the ids its rows list (each
    // edge is listed twice, once per direction) — at either scale. Both
    // are arrays over node ids (the unary indices are the graph's rows), so
    // a label's pages or a blank page leaking in per key would show here.
    let bytes_growth = large.bytes_per_node / small.bytes_per_node;
    eprintln!(
        "graph and index bytes per node {:.1} -> {:.1} ({bytes_growth:.3}x)",
        small.bytes_per_node, large.bytes_per_node
    );
    for point in [&small, &large] {
        let ids = 2 * point.edges * std::mem::size_of::<NodeId>();
        let own = (std::mem::size_of::<bgpq_graph::Label>()
            + std::mem::size_of::<Value>()
            + 2 * std::mem::size_of::<u16>()) as f64
            + ids as f64 / point.nodes as f64;
        eprintln!(
            "a node's own share at |V| = {}: {own:.1} bytes",
            point.nodes
        );
        assert!(
            point.bytes_per_node <= 1.5 * own,
            "graph and index bytes per node {:.1} at |V| = {} exceed 1.5x the {own:.1} bytes \
             of a node's own share",
            point.bytes_per_node,
            point.nodes
        );
    }
    assert!(
        (0.5..=2.0).contains(&bytes_growth),
        "graph and index bytes per node {:.1} -> {:.1} ({bytes_growth:.2}x) left the constant \
         band while |G| grew {graph_growth:.1}x",
        small.bytes_per_node,
        large.bytes_per_node
    );

    // Sharing the previous version is the one cost left that follows `|G|`:
    // one reference count per 64 pages (checked spine by spine in
    // `measure`), so a 10x graph pays at most 10x of a number that starts
    // in the teens — a flat table of pages would start 64x up.
    let flat = |p: &ScalePoint| 4 * p.nodes.div_ceil(PAGE_SIZE);
    assert!(
        large.share_refcounts < flat(&large) / 8 && small.share_refcounts < 64,
        "sharing a version bumps {} -> {} reference counts (a flat page table: {} -> {})",
        small.share_refcounts,
        large.share_refcounts,
        flat(&small),
        flat(&large)
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
