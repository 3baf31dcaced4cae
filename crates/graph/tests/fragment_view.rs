//! Seeded property test: `FragmentView::induced` ≡ the `Subgraph::induced`
//! oracle on random graphs with planted hubs and tombstoned nodes, for
//! fragment sizes on both sides of the hub's degree and of the point
//! (`deg = 8·|V(G_Q)|`) where the build switches from scanning a parent list
//! to galloping the fragment into it — so both probe directions and the tie
//! between them are exercised.

use bgpq_graph::{
    EdgeId, FragmentView, Graph, GraphAccess, GraphBuilder, Label, NodeId, ScratchArena, Subgraph,
    Value,
};
use std::collections::BTreeMap;

/// SplitMix64: a dependency-free deterministic stream per seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A sparse random graph with one out-hub (node 0) and one in-hub (node 1)
/// of degree `hub_degree`, then a handful of deletions — some of them hub
/// neighbours — so tombstoned slots are in play.
fn random_graph(rng: &mut Rng, hub_degree: usize) -> Graph {
    let n = 3 * hub_degree + 40 + rng.below(60);
    let mut b = GraphBuilder::new();
    for i in 0..n {
        b.add_node(["a", "b", "c", "d"][rng.below(4)], Value::Int(i as i64));
    }
    let node = |i: usize| NodeId(i as u32);
    for _ in 0..3 * n {
        let (s, d) = (rng.below(n), rng.below(n));
        // Keep the hubs' planted degrees exact; duplicates are rejected by
        // the builder's own dedup.
        if s > 1 && d > 1 && s != d {
            b.add_edge(node(s), node(d)).unwrap();
        }
    }
    let mut spokes: Vec<usize> = (2..n).collect();
    rng.shuffle(&mut spokes);
    for &w in &spokes[..hub_degree] {
        b.add_edge(node(0), node(w)).unwrap();
    }
    rng.shuffle(&mut spokes);
    for &w in &spokes[..hub_degree] {
        b.add_edge(node(w), node(1)).unwrap();
    }
    let mut g = b.build();
    for _ in 0..4 {
        let v = node(2 + rng.below(n - 2));
        if g.is_live(v) {
            g.delete_node(v).unwrap();
        }
    }
    g
}

/// `size` distinct nodes: the two hubs first, then hub neighbours and
/// arbitrary nodes (tombstones included) interleaved; returned shuffled,
/// with a few duplicates appended.
fn fragment_of_size(rng: &mut Rng, g: &Graph, size: usize) -> Vec<NodeId> {
    let mut pool: Vec<NodeId> = g.nodes().skip(2).collect();
    rng.shuffle(&mut pool);
    // Bias towards hub neighbours so the intersection has hits to keep.
    pool.sort_by_key(|&v| !(g.has_edge(NodeId(0), v) && v.0 % 2 == 0));
    let mut nodes: Vec<NodeId> = [NodeId(0), NodeId(1)]
        .into_iter()
        .chain(pool)
        .take(size)
        .collect();
    for _ in 0..nodes.len().min(3) {
        nodes.push(nodes[rng.below(nodes.len())]);
    }
    rng.shuffle(&mut nodes);
    nodes
}

fn assert_view_equals_oracle(g: &Graph, nodes: &[NodeId], arena: &mut ScratchArena) {
    let oracle = Subgraph::induced(g, nodes.iter().copied());
    let view = FragmentView::induced(g, nodes, arena);
    let members: Vec<NodeId> = oracle.nodes().collect();
    let edges: Vec<(NodeId, NodeId)> = oracle.edges().collect();

    assert_eq!(view.node_count(), members.len());
    assert_eq!(view.edge_count(), edges.len());
    assert_eq!(view.node_ids().collect::<Vec<_>>(), members);
    assert_eq!(
        view.edge_ids().collect::<Vec<_>>(),
        edges
            .iter()
            .map(|&(s, d)| EdgeId::new(s, d))
            .collect::<Vec<_>>()
    );
    for v in g.nodes() {
        assert_eq!(view.contains_node(v), oracle.contains_node(v), "{v:?}");
        // Local rows keep the parent's `(label, id)` order.
        let mut out: Vec<NodeId> = edges.iter().filter(|e| e.0 == v).map(|e| e.1).collect();
        let mut inc: Vec<NodeId> = edges.iter().filter(|e| e.1 == v).map(|e| e.0).collect();
        out.sort_by_key(|&w| (g.label(w), w));
        inc.sort_by_key(|&w| (g.label(w), w));
        assert_eq!(view.out_neighbors(v), out.as_slice(), "out of {v:?}");
        assert_eq!(view.in_neighbors(v), inc.as_slice(), "in of {v:?}");
    }
    for &s in &members {
        for &d in &members {
            assert_eq!(view.has_edge(s, d), oracle.contains_edge(s, d));
        }
    }
    assert!(!view.has_edge(NodeId(u32::MAX), NodeId(0)));

    let mut groups: BTreeMap<Label, Vec<NodeId>> = BTreeMap::new();
    for &v in &members {
        groups.entry(g.label(v)).or_default().push(v);
    }
    let all_labels: Vec<Label> = g.nodes().map(|v| g.label(v)).collect();
    for label in all_labels {
        let expect = groups.get(&label).map_or(&[][..], Vec::as_slice);
        assert_eq!(view.nodes_with_label(label), expect);
    }

    // The work counter: a list within 8x of the fragment is read whole; of
    // a longer one, each fragment label costs a bisection and a gallop to
    // find its segment, and each fragment node at most a gallop and a
    // bisection into its label's segment.
    let n = members.len() as u64;
    let labels = groups.len() as u64;
    let bound: u64 = members
        .iter()
        .map(|&v| match g.out_degree(v) as u64 {
            d if d <= 8 * n => d,
            d => (n + labels) * (3 * u64::from(d.ilog2()) + 5),
        })
        .sum();
    assert!(view.adjacency_reads() <= bound);
}

#[test]
fn induced_view_equals_subgraph_oracle_around_hub_degrees() {
    for seed in 0..24u64 {
        let mut rng = Rng(seed);
        let hub_degree = 8 * (4 + rng.below(12));
        let g = random_graph(&mut rng, hub_degree);
        // Deletions may have clipped a spoke: size fragments by the out-hub's
        // real degree. `tie` nodes is the smallest fragment that still scans
        // the hub's list; one fewer gallops into it.
        let deg = g.out_degree(NodeId(0));
        let tie = deg.div_ceil(8);
        assert!(tie >= 3, "seed {seed}: hub lost its spokes");
        // One arena for the whole seed: every build follows a different one.
        let mut arena = ScratchArena::new();
        let sizes = [0, 1, 2, tie - 1, tie, tie + 1, deg - 1, deg, deg + 1];
        for size in sizes.into_iter().chain([2 * deg, g.node_count()]) {
            let nodes = fragment_of_size(&mut rng, &g, size);
            assert_view_equals_oracle(&g, &nodes, &mut arena);
        }
        // A tombstone-only fragment and a hub-free one.
        let dead: Vec<NodeId> = g.nodes().filter(|&v| !g.is_live(v)).collect();
        assert!(!dead.is_empty(), "seed {seed}: no tombstones");
        assert_view_equals_oracle(&g, &dead, &mut arena);
        let tail: Vec<NodeId> = g.nodes().skip(2).step_by(3).collect();
        assert_view_equals_oracle(&g, &tail, &mut arena);
    }
}
