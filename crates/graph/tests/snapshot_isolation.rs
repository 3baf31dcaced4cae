//! Seeded property test for the graph's structurally shared storage: the
//! failure class copy-on-write introduces is **aliasing** — a write through
//! one clone leaking into another. Every version of a random update stream
//! (node and edge inserts and deletes, tombstones, a hub) is pinned next to
//! a flat model of what it held when it was taken; after all later commits
//! have mutated their own clones, every pinned version must still read
//! exactly like its model through every accessor.
//!
//! The streams are aimed at the seams of the paged layout: ids `k·PAGE − 1`
//! and `k·PAGE`, a push that opens a new page, and the deletion of a hub
//! whose neighbours span every page. A second stream is aimed at the chunked
//! label buckets: a label frequent enough to span several chunks is grown
//! through a tail split, thinned until chunks merge, and another label is
//! emptied to zero.

use bgpq_graph::label_index::CHUNK_TARGET;
use bgpq_graph::{Graph, GraphBuilder, Label, LabelIndex, NodeId, Value, PAGE_SIZE};
use std::collections::BTreeSet;

const LABELS: [&str; 4] = ["a", "b", "c", "hub"];

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
}

/// What a graph version must read like: a flat copy, no sharing.
#[derive(Clone)]
struct Model {
    /// `None` marks a deleted slot.
    nodes: Vec<Option<(&'static str, i64)>>,
    edges: BTreeSet<(u32, u32)>,
}

impl Model {
    fn live(&self) -> Vec<u32> {
        (0..self.nodes.len() as u32)
            .filter(|&v| self.nodes[v as usize].is_some())
            .collect()
    }
}

fn assert_reads_like(graph: &Graph, model: &Model, ctx: &str) {
    assert_eq!(graph.node_count(), model.nodes.len(), "{ctx}: node count");
    assert_eq!(graph.edge_count(), model.edges.len(), "{ctx}: edge count");
    assert_eq!(
        graph.live_node_count(),
        model.live().len(),
        "{ctx}: live count"
    );
    let edges: BTreeSet<(u32, u32)> = graph.edges().map(|e| (e.src.0, e.dst.0)).collect();
    assert_eq!(edges, model.edges, "{ctx}: edge set");
    // Rows are sorted by `(label, id)` of the neighbour.
    let key = |w: &u32| {
        let (name, _) = model.nodes[*w as usize].expect("a row holds live nodes");
        (graph.interner().get(name), *w)
    };
    for (v, slot) in model.nodes.iter().enumerate() {
        let id = NodeId(v as u32);
        let mut out: Vec<u32> = model
            .edges
            .range((v as u32, 0)..=(v as u32, u32::MAX))
            .map(|&(_, d)| d)
            .collect();
        let mut inc: Vec<u32> = model
            .edges
            .iter()
            .filter(|&&(_, d)| d == v as u32)
            .map(|&(s, _)| s)
            .collect();
        out.sort_by_key(key);
        inc.sort_by_key(key);
        let ids = |row: bgpq_graph::Ids<'_>| row.iter().map(|n| n.0).collect::<Vec<u32>>();
        assert_eq!(ids(graph.out_neighbors(id)), out, "{ctx}: out row of {v}");
        assert_eq!(ids(graph.in_neighbors(id)), inc, "{ctx}: in row of {v}");
        match slot {
            Some((label, value)) => {
                assert!(graph.is_live(id), "{ctx}: {v} is live");
                assert_eq!(graph.label_name(id), *label, "{ctx}: label of {v}");
                assert_eq!(graph.value(id), &Value::Int(*value), "{ctx}: value of {v}");
            }
            None => {
                assert!(!graph.is_live(id), "{ctx}: {v} is deleted");
                assert_eq!(graph.value(id), &Value::Null, "{ctx}: value of {v}");
            }
        }
    }
    for name in LABELS {
        let want: Vec<u32> = (0..model.nodes.len() as u32)
            .filter(|&v| model.nodes[v as usize].is_some_and(|(l, _)| l == name))
            .collect();
        let got: Vec<u32> = match graph.interner().get(name) {
            Some(label) => graph.nodes_with_label(label).iter().map(|n| n.0).collect(),
            None => Vec::new(),
        };
        assert_eq!(got, want, "{ctx}: nodes labeled {name}");
    }
}

/// Exactly two full pages, so the first inserted node opens the third; node
/// 0 is a hub with an edge to or from every fourth node, across both pages.
fn initial(rng: &mut Rng) -> (Graph, Model) {
    let n = 2 * PAGE_SIZE;
    let mut b = GraphBuilder::new();
    let mut model = Model {
        nodes: Vec::new(),
        edges: BTreeSet::new(),
    };
    for i in 0..n {
        let label = if i == 0 { "hub" } else { LABELS[rng.below(3)] };
        b.add_node(label, Value::Int(i as i64));
        model.nodes.push(Some((label, i as i64)));
    }
    let mut edge = |b: &mut GraphBuilder, s: usize, d: usize| {
        b.add_edge(NodeId(s as u32), NodeId(d as u32)).unwrap();
        model.edges.insert((s as u32, d as u32));
    };
    for i in (4..n).step_by(4) {
        if i % 8 == 0 {
            edge(&mut b, 0, i);
        } else {
            edge(&mut b, i, 0);
        }
    }
    for _ in 0..2 * n {
        let (s, d) = (1 + rng.below(n - 1), 1 + rng.below(n - 1));
        edge(&mut b, s, d);
    }
    (b.build(), model)
}

/// A node id biased toward the page seams (`k·PAGE − 1`, `k·PAGE`).
fn pick(rng: &mut Rng, live: &[u32]) -> u32 {
    if rng.below(3) == 0 {
        let pages = live.len().div_ceil(PAGE_SIZE) as u32;
        let seam = (1 + rng.below(pages as usize) as u32) * PAGE_SIZE as u32;
        let id = seam - rng.below(2) as u32;
        if live.binary_search(&id).is_ok() {
            return id;
        }
    }
    live[rng.below(live.len())]
}

/// Applies one random update to `graph` and `model` alike.
fn mutate(rng: &mut Rng, graph: &mut Graph, model: &mut Model) {
    let live = model.live();
    match rng.below(10) {
        0..=2 => {
            let label = LABELS[rng.below(3)];
            let value = rng.below(1000) as i64;
            let id = graph.insert_node(label, Value::Int(value));
            assert_eq!(id.index(), model.nodes.len());
            model.nodes.push(Some((label, value)));
        }
        3..=6 => {
            let (s, d) = (pick(rng, &live), pick(rng, &live));
            let added = graph.insert_edge(NodeId(s), NodeId(d)).unwrap();
            assert_eq!(added, model.edges.insert((s, d)));
        }
        7..=8 => {
            let Some(&(s, d)) = model.edges.iter().nth(rng.below(model.edges.len().max(1))) else {
                return;
            };
            assert!(graph.delete_edge(NodeId(s), NodeId(d)).unwrap());
            model.edges.remove(&(s, d));
        }
        _ => {
            // Never the hub here: its deletion is a scripted commit.
            let v = pick(rng, &live[1..]);
            let removed = graph.delete_node(NodeId(v)).unwrap();
            let before = model.edges.len();
            model.edges.retain(|&(s, d)| s != v && d != v);
            assert_eq!(removed.len(), before - model.edges.len());
            model.nodes[v as usize] = None;
        }
    }
}

#[test]
fn pinned_versions_survive_later_commits() {
    for seed in 0..6u64 {
        let mut rng = Rng(seed);
        let (graph, model) = initial(&mut rng);
        let mut versions = vec![(graph, model)];
        for commit in 0..24 {
            let (base, base_model) = versions.last().unwrap();
            let (mut graph, mut model) = (base.clone(), base_model.clone());
            let copied_before = graph.pages_copied();
            if commit == 0 {
                // Both pages are full: this push opens the third and must
                // leave the two shared ones alone.
                let id = graph.insert_node("a", Value::Int(-1));
                assert_eq!(id.index(), 2 * PAGE_SIZE);
                model.nodes.push(Some(("a", -1)));
                assert_eq!(graph.pages_copied(), copied_before, "a new page is no copy");
            }
            if commit == 12 {
                // The hub goes: every page holding one of its neighbours is
                // written to.
                let removed = graph.delete_node(NodeId(0)).unwrap();
                assert!(removed.len() >= PAGE_SIZE / 4, "node 0 is a hub");
                model.edges.retain(|&(s, d)| s != 0 && d != 0);
                model.nodes[0] = None;
            }
            for _ in 0..1 + rng.below(12) {
                mutate(&mut rng, &mut graph, &mut model);
            }
            versions.push((graph, model));
        }
        let copied = versions.last().unwrap().0.pages_copied();
        assert!(
            copied >= 24,
            "seed {seed}: every commit wrote to pages its base still shared ({copied} copies)"
        );
        for (version, (graph, model)) in versions.iter().enumerate() {
            assert_reads_like(graph, model, &format!("seed {seed} version {version}"));
        }
        // Dropping versions out of order must not disturb the survivors.
        let survivors: Vec<_> = versions
            .into_iter()
            .enumerate()
            .filter(|(i, _)| i % 3 == 1)
            .collect();
        for (version, (graph, model)) in &survivors {
            assert_reads_like(graph, model, &format!("seed {seed} survivor {version}"));
        }
    }
}

/// Writes on either side of a page seam land in different pages; writes
/// within one page copy it once.
#[test]
fn page_seams_separate_the_copies() {
    let mut b = GraphBuilder::new();
    for i in 0..3 * PAGE_SIZE {
        b.add_node("a", Value::Int(i as i64));
    }
    let base = b.build();
    let last_of_first = NodeId(PAGE_SIZE as u32 - 1);
    let first_of_second = NodeId(PAGE_SIZE as u32);

    let mut g = base.clone();
    g.insert_edge(last_of_first, first_of_second).unwrap();
    // out[PAGE−1] and in[PAGE]: one page of each array.
    assert_eq!(g.pages_copied() - base.pages_copied(), 2);
    g.insert_edge(last_of_first, NodeId(PAGE_SIZE as u32 + 1))
        .unwrap();
    assert_eq!(
        g.pages_copied() - base.pages_copied(),
        2,
        "both rows live in pages this clone already owns"
    );
    g.insert_edge(first_of_second, last_of_first).unwrap();
    assert_eq!(g.pages_copied() - base.pages_copied(), 4);

    assert_eq!(base.edge_count(), 0);
    assert!(base.out_neighbors(last_of_first).is_empty());
    assert_eq!(
        g.out_neighbors(last_of_first),
        &[first_of_second, NodeId(PAGE_SIZE as u32 + 1)]
    );
    assert_eq!(g.in_neighbors(last_of_first), &[first_of_second]);
}

/// The chunked buckets of `graph` list exactly what an index built from
/// scratch over the same label assignment lists.
fn assert_buckets_match_a_fresh_build(graph: &Graph, model: &Model, ctx: &str) {
    // Deleted slots get a label of their own: no real bucket may list them.
    let dead = Label(graph.interner().len() as u32);
    let assignment: Vec<Label> = model
        .nodes
        .iter()
        .map(|slot| slot.map_or(dead, |(name, _)| graph.interner().get(name).unwrap()))
        .collect();
    let fresh = LabelIndex::build(&assignment);
    for label in graph.interner().labels() {
        let chunked = graph.nodes_with_label(label);
        assert_eq!(chunked, fresh.nodes(label), "{ctx}: bucket of {label}");
        assert_eq!(chunked.len(), graph.label_count(label), "{ctx}: {label}");
        assert_eq!(chunked.first(), fresh.nodes(label).first(), "{ctx}");
    }
}

#[test]
fn pinned_versions_keep_their_label_buckets_through_splits_merges_and_emptying() {
    // `a` spans three chunks (the last one a single id), `b` fits in one.
    let mut b = GraphBuilder::new();
    let mut model = Model {
        nodes: Vec::new(),
        edges: BTreeSet::new(),
    };
    for i in 0..2 * CHUNK_TARGET + 101 {
        let label = if i % 21 == 20 { "b" } else { "a" };
        b.add_node(label, Value::Int(i as i64));
        model.nodes.push(Some((label, i as i64)));
    }
    let mut versions = vec![(b.build(), model)];
    let mut commit = |edit: &mut dyn FnMut(&mut Graph, &mut Model)| {
        let (base, base_model) = versions.last().unwrap();
        let (mut graph, mut model) = (base.clone(), base_model.clone());
        edit(&mut graph, &mut model);
        let ctx = format!("version {}", versions.len());
        assert_buckets_match_a_fresh_build(&graph, &model, &ctx);
        versions.push((graph, model));
    };
    let delete = |graph: &mut Graph, model: &mut Model, v: usize| {
        graph.delete_node(NodeId(v as u32)).unwrap();
        model.nodes[v] = None;
    };

    // Appends fill the tail chunk of `a` past twice the target: it splits.
    for round in 0..5 {
        commit(&mut |graph, model| {
            for i in 0..CHUNK_TARGET / 2 {
                let value = (round * CHUNK_TARGET + i) as i64;
                graph.insert_node("a", Value::Int(value));
                model.nodes.push(Some(("a", value)));
            }
        });
    }
    // Tombstones thin the middle of `a` until chunks fall under a quarter
    // of the target and fold into their neighbours.
    for round in 0..4 {
        commit(&mut |graph, model| {
            for v in (CHUNK_TARGET / 2..2 * CHUNK_TARGET).filter(|v| v % 4 == round) {
                if model.nodes[v].is_some() {
                    delete(graph, model, v);
                }
            }
        });
    }
    // `b` is emptied to zero, then comes back.
    commit(&mut |graph, model| {
        for v in model.live() {
            if model.nodes[v as usize].is_some_and(|(label, _)| label == "b") {
                delete(graph, model, v as usize);
            }
        }
        let b_label = graph.interner().get("b").unwrap();
        assert!(graph.nodes_with_label(b_label).is_empty());
    });
    commit(&mut |graph, model| {
        graph.insert_node("b", Value::Int(7));
        model.nodes.push(Some(("b", 7)));
    });

    let last = &versions.last().unwrap().0;
    assert!(
        last.chunks_copied() >= versions.len() as u64 - 1,
        "every commit wrote to a chunk its base still shared"
    );
    for (version, (graph, model)) in versions.iter().enumerate() {
        let ctx = format!("pinned version {version}");
        assert_reads_like(graph, model, &ctx);
        assert_buckets_match_a_fresh_build(graph, model, &ctx);
    }
}
