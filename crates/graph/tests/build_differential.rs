//! `GraphBuilder::build` against the slow, obviously right construction:
//! the same nodes and edges grown into an empty graph one
//! `Graph::insert_edge` at a time. Seeded recipes cover labels that do not
//! ascend along the ids (so rows are regrouped by label), repeated and
//! reversed edges and self-loops, isolated nodes, a hub whose rows are
//! longer than a page of nodes, a hub whose rows are held in chunks, a
//! page whose rows overflow its cap of ids, and the empty graph. The two
//! must agree on rows, label buckets and `storage_bytes` (a page's layout
//! is a function of its rows). Every built graph, and a copy of it with
//! deleted nodes, must also round-trip through a snapshot; the chunked
//! hub's rows are also edited back below one chunk, in step with the grown
//! graph.

use bgpq_graph::io::snapshot::{read_graph_snapshot, write_graph_snapshot};
use bgpq_graph::{Graph, GraphBuilder, NodeId, Value, CHUNK_TARGET, HUB_ROW, PAGE_IDS, PAGE_SIZE};

/// A small seeded generator (an LCG), so the recipes need no dependency.
struct Seeded(u64);

impl Seeded {
    fn below(&mut self, bound: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) as usize % bound.max(1)
    }
}

/// Nodes as `(label name, value)` and edges as id pairs, in arrival order.
struct Recipe {
    name: &'static str,
    nodes: Vec<(String, Value)>,
    edges: Vec<(u32, u32)>,
}

fn value(rng: &mut Seeded, i: usize) -> Value {
    match rng.below(5) {
        0 => Value::Null,
        1 => Value::Bool(i % 2 == 0),
        2 => Value::Int(i as i64 - 7),
        3 => Value::Float(i as f64 / 4.0),
        _ => Value::str(format!("s{i}")),
    }
}

fn recipes() -> Vec<Recipe> {
    let mut rng = Seeded(0x0B11_D5EED);
    let mut recipes = vec![Recipe {
        name: "empty",
        nodes: Vec::new(),
        edges: Vec::new(),
    }];

    // Labels drawn at random, so they descend along the ids; every edge
    // also arrives repeated or reversed now and then, and self-loops occur.
    let n = 3 * PAGE_SIZE / 2;
    let nodes = (0..n)
        .map(|i| (format!("l{}", rng.below(6)), value(&mut rng, i)))
        .collect();
    let mut edges = Vec::new();
    for _ in 0..4 * n {
        let (a, b) = (rng.below(n) as u32, rng.below(n) as u32);
        edges.push((a, b));
        match rng.below(4) {
            0 => edges.push((a, b)),
            1 => edges.push((b, a)),
            _ => {}
        }
    }
    recipes.push(Recipe {
        name: "shuffled labels, repeats and reversals",
        nodes,
        edges,
    });

    // A hub joined both ways to more nodes than a page holds, among
    // nodes of three labels interleaved along the ids; every tenth node
    // has no edge at all.
    let n = PAGE_SIZE + 90;
    let nodes = (0..n)
        .map(|i| (["b", "a", "c"][i % 3].to_string(), value(&mut rng, i)))
        .collect();
    let mut edges = Vec::new();
    let hub = 1;
    for v in (0..n as u32).filter(|v| v % 10 != 0 && *v != hub) {
        edges.push((hub, v));
        if rng.below(3) == 0 {
            edges.push((v, hub));
        }
        if rng.below(2) == 0 {
            edges.push((v, (v * 7 + 3) % n as u32));
        }
    }
    edges.retain(|&(a, b)| a % 10 != 0 && b % 10 != 0);
    recipes.push(Recipe {
        name: "a hub past a page, isolated nodes",
        nodes,
        edges,
    });
    recipes.push(chunked_hub(&mut rng));
    recipes.push(page_past_its_cap(&mut rng));

    // Labels ascending along the ids, as the scenario generators emit
    // them, edges in reverse arrival order, a few isolated nodes last.
    let n = 2 * PAGE_SIZE + 17;
    let nodes = (0..n)
        .map(|i| (format!("k{}", i * 4 / n), value(&mut rng, i)))
        .collect();
    let mut edges: Vec<(u32, u32)> = (0..3 * n)
        .map(|_| (rng.below(n - 5) as u32, rng.below(n - 5) as u32))
        .collect();
    edges.reverse();
    recipes.push(Recipe {
        name: "ascending labels, isolated tail",
        nodes,
        edges,
    });
    recipes
}

/// A hub whose out-row spans several chunks and whose in-row just passes
/// two, its neighbours of three labels interleaved along the ids: grown
/// edge by edge, the rows turn chunked on the way.
fn chunked_hub(rng: &mut Seeded) -> Recipe {
    let n = 3 * CHUNK_TARGET + 50;
    let nodes = (0..n)
        .map(|i| (["b", "a", "c"][i % 3].to_string(), value(rng, i)))
        .collect();
    let hub = 2;
    let mut edges = Vec::new();
    for v in (0..n as u32).filter(|&v| v != hub) {
        if rng.below(8) != 0 {
            edges.push((hub, v));
        }
        if rng.below(3) != 0 {
            edges.push((v, hub));
        }
    }
    Recipe {
        name: "a hub held in chunks",
        nodes,
        edges,
    }
}

/// Nodes of the first page with rows of several hundred ids each, more
/// than one page holds in all, edges in random order: the rows that would
/// take the page past `PAGE_IDS` are chunked beside it, though none is a
/// hub.
fn page_past_its_cap(rng: &mut Seeded) -> Recipe {
    let n = 4 * PAGE_SIZE;
    let nodes = (0..n)
        .map(|i| (["b", "a"][i % 2].to_string(), value(rng, i)))
        .collect();
    let busy = 2 * PAGE_IDS / (HUB_ROW * 3 / 4) + 1;
    let mut edges = Vec::new();
    for v in 0..busy as u32 {
        for _ in 0..HUB_ROW * 3 / 4 + rng.below(100) {
            edges.push((v, rng.below(n) as u32));
        }
    }
    for _ in 0..2 * n {
        edges.push((rng.below(n) as u32, rng.below(n) as u32));
    }
    for i in (1..edges.len()).rev() {
        edges.swap(i, rng.below(i + 1));
    }
    Recipe {
        name: "a page past its cap of ids",
        nodes,
        edges,
    }
}

fn built(recipe: &Recipe) -> Graph {
    let mut b = GraphBuilder::new();
    for (label, value) in &recipe.nodes {
        b.add_node(label, value.clone());
    }
    let edges = recipe.edges.iter().map(|&(a, b)| (NodeId(a), NodeId(b)));
    b.add_edges(edges).unwrap();
    b.build()
}

fn grown(recipe: &Recipe) -> Graph {
    let mut g = Graph::empty();
    for (label, value) in &recipe.nodes {
        g.insert_node(label, value.clone());
    }
    for &(a, b) in &recipe.edges {
        g.insert_edge(NodeId(a), NodeId(b)).unwrap();
    }
    g
}

/// Panics, naming `what`, unless the two graphs are the same: labels,
/// values, both rows of every node, edge and live counts, and the label
/// buckets.
fn assert_same(a: &Graph, b: &Graph, what: &str) {
    assert_eq!(a.interner(), b.interner(), "{what}: interner");
    assert_eq!(a.node_count(), b.node_count(), "{what}: node count");
    assert_eq!(a.live_node_count(), b.live_node_count(), "{what}: live");
    assert_eq!(a.edge_count(), b.edge_count(), "{what}: edge count");
    for v in a.nodes() {
        assert_eq!(a.is_live(v), b.is_live(v), "{what}: liveness of {v}");
        assert_eq!(a.try_label(v), b.try_label(v), "{what}: label of {v}");
        assert_eq!(a.value(v), b.value(v), "{what}: value of {v}");
        assert_eq!(a.out_neighbors(v), b.out_neighbors(v), "{what}: out {v}");
        assert_eq!(a.in_neighbors(v), b.in_neighbors(v), "{what}: in {v}");
    }
    for (label, _) in a.interner().iter() {
        assert_eq!(
            a.nodes_with_label(label),
            b.nodes_with_label(label),
            "{what}: bucket of {label:?}"
        );
    }
    assert_eq!(
        a.distinct_label_count(),
        b.distinct_label_count(),
        "{what}: labels in use"
    );
    assert_eq!(
        a.storage_bytes(),
        b.storage_bytes(),
        "{what}: storage bytes"
    );
}

fn round_trip(g: &Graph) -> Graph {
    let mut bytes = Vec::new();
    write_graph_snapshot(g, &mut bytes).unwrap();
    read_graph_snapshot(std::io::Cursor::new(bytes)).unwrap()
}

#[test]
fn the_bulk_build_is_the_graph_grown_edge_by_edge() {
    for recipe in recipes() {
        let (fast, slow) = (built(&recipe), grown(&recipe));
        assert_same(&fast, &slow, recipe.name);
        let longest = fast.nodes().map(|v| fast.out_degree(v)).max();
        if recipe.name.starts_with("a hub") {
            assert!(longest > Some(PAGE_SIZE), "the hub row spans a page");
        }
        if recipe.name.ends_with("cap of ids") {
            let spilled = fast.nodes().filter(|&v| {
                fast.out_degree(v) < HUB_ROW && fast.out_neighbors(v).as_slice().is_none()
            });
            assert!(spilled.count() > 0, "a row short of a hub is chunked");
        }
        if recipe.name.ends_with("in chunks") {
            let hub = NodeId(2);
            assert!(
                fast.out_neighbors(hub).as_slice().is_none(),
                "the out-row is chunked"
            );
            assert!(fast.in_degree(hub) > 2 * CHUNK_TARGET, "so is the in-row");
        }
    }
}

/// The chunked hub's edges are deleted, front, back and middle of its rows
/// in turn, from the built graph and the grown one alike, until both rows
/// fit one chunk again: the two graphs stay the same, a clone pinned at
/// each checkpoint keeps what it held, and each version round-trips
/// through a snapshot.
#[test]
fn hub_rows_shrink_back_below_one_chunk_in_step() {
    let recipe = chunked_hub(&mut Seeded(0xC4_0C4));
    let (mut fast, mut slow) = (built(&recipe), grown(&recipe));
    let hub = NodeId(2);
    let mut pins = Vec::new();
    let mut step = 0;
    while fast.out_degree(hub) + fast.in_degree(hub) > 0 {
        for outgoing in [true, false] {
            let row = match outgoing {
                true => fast.out_neighbors(hub).to_vec(),
                false => fast.in_neighbors(hub).to_vec(),
            };
            let Some(&w) = [row.first(), row.last(), row.get(row.len() / 2)][step % 3] else {
                continue;
            };
            let (src, dst) = if outgoing { (hub, w) } else { (w, hub) };
            assert!(fast.delete_edge(src, dst).unwrap());
            assert!(slow.delete_edge(src, dst).unwrap());
        }
        if step % 97 == 0 {
            assert_same(&fast, &slow, &format!("step {step}"));
            assert_same(
                &round_trip(&fast),
                &fast,
                &format!("round trip at step {step}"),
            );
            pins.push((fast.clone(), slow.clone()));
        }
        step += 1;
    }
    assert_same(&fast, &slow, "emptied");
    assert!(fast.out_neighbors(hub).as_slice().is_some());
    for (i, (pinned, held)) in pins.iter().enumerate() {
        assert_same(pinned, held, &format!("pin {i}"));
    }
}

#[test]
fn every_built_graph_round_trips_with_and_without_tombstones() {
    for recipe in recipes() {
        let g = built(&recipe);
        assert_same(&round_trip(&g), &g, recipe.name);
        let mut pruned = g.clone();
        let doomed: Vec<NodeId> = g.nodes().filter(|v| v.0 % 7 == 3).collect();
        for &v in &doomed {
            pruned.delete_node(v).unwrap();
        }
        let what = format!("{} with {} deleted", recipe.name, doomed.len());
        assert_same(&round_trip(&pruned), &pruned, &what);
    }
}
