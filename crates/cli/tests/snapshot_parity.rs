//! Query parity between the two preprocessing paths: an engine built from a
//! text/JSONL dataset (discovery + index build at load time) and an engine
//! built from a compiled `.bgpq` snapshot of the same dataset must return
//! identical answers for every checked-in query, under both bounded
//! matching (bVF2) and bounded simulation (bSim).

use bgpq_cli::dataset::{load_dataset, Format};
use bgpq_engine::{
    discover_schema, parse_pattern, read_snapshot, save_snapshot, write_snapshot, AccessIndexSet,
    DiscoveryConfig, Engine, QueryAnswer, QueryRequest, Semantics, StrategyKind,
};
use std::io::Cursor;
use std::path::{Path, PathBuf};

fn data_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data")
}

/// The checked-in datasets and their matching query patterns.
fn checked_in() -> Vec<(PathBuf, PathBuf)> {
    let data = data_dir();
    vec![
        (data.join("social.tsv"), data.join("queries/social.pat")),
        (
            data.join("citation.jsonl"),
            data.join("queries/citation.pat"),
        ),
        (
            data.join("products.jsonl"),
            data.join("queries/products.pat"),
        ),
    ]
}

/// Order-independent normal form of a query answer for equality checks.
fn normalize(answer: &QueryAnswer, pattern: &bgpq_pattern::Pattern) -> Vec<Vec<u32>> {
    match answer {
        QueryAnswer::Matches(matches) => {
            let mut rows: Vec<Vec<u32>> = matches
                .iter()
                .map(|m| pattern.nodes().map(|u| m.node_for(u).0).collect())
                .collect();
            rows.sort();
            rows
        }
        QueryAnswer::Simulation(relation) => pattern
            .nodes()
            .map(|u| {
                let mut vs: Vec<u32> = relation.matches_of(u).iter().map(|v| v.0).collect();
                vs.sort_unstable();
                vs
            })
            .collect(),
    }
}

#[test]
fn snapshot_and_text_engines_answer_identically_on_checked_in_queries() {
    for (dataset, query) in checked_in() {
        let (graph, _) = load_dataset(&dataset, None, "node")
            .unwrap_or_else(|e| panic!("{}: {e}", dataset.display()));
        let schema = discover_schema(&graph, &DiscoveryConfig::default());
        let indices = AccessIndexSet::build(&graph, &schema);

        // Path A: the graph as parsed, schema discovered, indices built now.
        let fresh = Engine::with_indices(graph.clone(), indices.clone());
        // Path B: compile to an in-memory snapshot, load it back, serve
        // from the embedded schema and indices without rebuilding.
        let mut bytes = Vec::new();
        write_snapshot(&graph, &indices, &mut bytes)
            .unwrap_or_else(|e| panic!("{}: compile: {e}", dataset.display()));
        let bundle = read_snapshot(Cursor::new(bytes))
            .unwrap_or_else(|e| panic!("{}: load: {e}", dataset.display()));
        assert_eq!(bundle.schema.len(), schema.len(), "schema survived");
        let snapped = Engine::from_snapshot(bundle);

        let text =
            std::fs::read_to_string(&query).unwrap_or_else(|e| panic!("{}: {e}", query.display()));
        let pattern = parse_pattern(&text, fresh.graph().interner().clone())
            .unwrap_or_else(|e| panic!("{}: {e}", query.display()));

        for semantics in [Semantics::Isomorphism, Semantics::Simulation] {
            for strategy in [None, Some(StrategyKind::Bounded)] {
                let build = |p| {
                    let mut b = QueryRequest::build(p).semantics(semantics);
                    if let Some(kind) = strategy {
                        b = b.strategy(kind);
                    }
                    b.finish()
                };
                let a = fresh.execute(&build(pattern.clone())).unwrap_or_else(|e| {
                    panic!("{} {semantics:?} {strategy:?}: fresh: {e}", query.display())
                });
                let b = snapped
                    .execute(&build(pattern.clone()))
                    .unwrap_or_else(|e| {
                        panic!(
                            "{} {semantics:?} {strategy:?}: snapshot: {e}",
                            query.display()
                        )
                    });
                assert_eq!(
                    normalize(&a.answer, &pattern),
                    normalize(&b.answer, &pattern),
                    "{} under {semantics:?} {strategy:?}",
                    query.display()
                );
                // The snapshot path must actually use the bounded tier when
                // the fresh path does — same strategy choice, same plan.
                assert_eq!(
                    a.strategy,
                    b.strategy,
                    "{} under {semantics:?} {strategy:?}: strategy diverged",
                    query.display()
                );
            }
        }
    }
}

/// The snapshot reader autodetects by magic bytes: the same parity holds
/// when the snapshot file has a misleading extension.
#[test]
fn parity_survives_misleading_extensions() {
    let (dataset, query) = checked_in().remove(0);
    let (graph, _) = load_dataset(&dataset, None, "node").unwrap();
    let schema = discover_schema(&graph, &DiscoveryConfig::default());
    let indices = AccessIndexSet::build(&graph, &schema);

    let dir = std::env::temp_dir().join("bgpq_snapshot_parity");
    std::fs::create_dir_all(&dir).unwrap();
    // A `.tsv` name must not trick the loader into text parsing.
    let disguised = dir.join("disguised.tsv");
    let mut bytes = Vec::new();
    write_snapshot(&graph, &indices, &mut bytes).unwrap();
    std::fs::write(&disguised, &bytes).unwrap();

    let (loaded, format) = load_dataset(&disguised, None, "node").unwrap();
    assert_eq!(format, Format::Snapshot, "magic bytes win over extension");
    assert_eq!(loaded.node_count(), graph.node_count());
    assert_eq!(loaded.edge_count(), graph.edge_count());

    let text = std::fs::read_to_string(&query).unwrap();
    let pattern = parse_pattern(&text, graph.interner().clone()).unwrap();
    let fresh = Engine::with_indices(graph, indices);
    let snapped = Engine::from_snapshot(read_snapshot(Cursor::new(bytes)).unwrap());
    let request = |p: bgpq_pattern::Pattern| QueryRequest::build(p).finish();
    let a = fresh.execute(&request(pattern.clone())).unwrap();
    let b = snapped.execute(&request(pattern.clone())).unwrap();
    assert_eq!(
        normalize(&a.answer, &pattern),
        normalize(&b.answer, &pattern)
    );
    std::fs::remove_file(disguised).ok();
}

/// Byte-wise FNV-1a 64, independent of the container's own checksum.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `.bgpq` bytes are a contract with every file already compiled in their
/// format: how the indices store their entries in memory must not show in
/// them. The digests are those of format 2 — no label buckets, and no
/// entries for a global or unary index — for each dataset under its
/// discovered schema.
#[test]
fn saved_snapshots_of_the_checked_in_datasets_keep_their_bytes() {
    let expected = [
        ("social.tsv", 0x476e_63d6_6bd0_72fc),
        ("citation.jsonl", 0x750d_05e8_abd9_eb91),
        ("products.jsonl", 0x0e2b_333b_f551_6dfd),
    ];
    let dir = std::env::temp_dir().join(format!("bgpq_snapshot_digest_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut actual = Vec::new();
    for (name, _) in expected {
        let (graph, _) = load_dataset(&data_dir().join(name), None, "node").unwrap();
        let schema = discover_schema(&graph, &DiscoveryConfig::default());
        let indices = AccessIndexSet::build(&graph, &schema);
        let path = dir.join(name).with_extension("bgpq");
        save_snapshot(&graph, &indices, &path).unwrap();
        actual.push((name, fnv64(&std::fs::read(&path).unwrap())));
    }
    std::fs::remove_dir_all(&dir).ok();
    for ((name, want), (_, got)) in expected.iter().zip(&actual) {
        assert_eq!(*got, *want, "{name}: digest {got:#018x}, all: {actual:#x?}");
    }
}

/// How a graph's lists are chunked does not show in its file: a graph
/// grown by mutation — bucket and row chunks filled, split and copied on
/// write along the way — compiles to the same bytes as the same content
/// built in one go, indices included.
#[test]
fn a_snapshot_written_after_chunked_mutation_is_byte_identical_to_a_fresh_build() {
    use bgpq_engine::{GraphBuilder, NodeId, Value};
    use bgpq_graph::label_index::CHUNK_TARGET;

    let total = 5 * CHUNK_TARGET + 77;
    let prefix = CHUNK_TARGET + 9;
    let label = |i: usize| ["post", "post", "user", "post", "tag"][i % 5];
    let edges: Vec<(usize, usize)> = (1..total)
        .flat_map(|i| [(i, i / 2), (i * 7 % total, i)])
        .filter(|(s, d)| s != d)
        .collect();
    let build = |nodes: usize| {
        let mut b = GraphBuilder::new();
        for i in 0..nodes {
            b.add_node(label(i), Value::Int(i as i64 % 97));
        }
        for &(s, d) in edges.iter().filter(|(s, d)| s.max(d) < &nodes) {
            b.add_edge(NodeId(s as u32), NodeId(d as u32)).unwrap();
        }
        b.build()
    };

    let fresh = build(total);
    let mut grown = build(prefix);
    for i in prefix..total {
        // A pinned clone per step keeps every chunk and page shared, so
        // each write goes through the copy-on-write path.
        let pinned = grown.clone();
        let id = grown.insert_node(label(i), Value::Int(i as i64 % 97));
        assert_eq!(id.index(), i);
        for &(s, d) in edges.iter().filter(|(s, d)| *s.max(d) == i) {
            grown
                .insert_edge(NodeId(s as u32), NodeId(d as u32))
                .unwrap();
        }
        assert_eq!(pinned.node_count(), i);
    }
    // Churn that cancels out: the live content is unchanged.
    let (s, d) = edges[edges.len() / 2];
    assert!(grown
        .delete_edge(NodeId(s as u32), NodeId(d as u32))
        .unwrap());
    assert!(grown
        .insert_edge(NodeId(s as u32), NodeId(d as u32))
        .unwrap());
    assert!(grown.chunks_copied() > 0 && fresh.chunks_copied() == 0);

    let compile = |graph: &bgpq_engine::Graph| {
        let schema = discover_schema(graph, &DiscoveryConfig::default());
        let indices = AccessIndexSet::build(graph, &schema);
        let mut bytes = Vec::new();
        write_snapshot(graph, &indices, &mut bytes).unwrap();
        bytes
    };
    let (a, b) = (compile(&fresh), compile(&grown));
    assert!(
        a == b,
        "snapshots differ ({} vs {} bytes)",
        a.len(),
        b.len()
    );
}
