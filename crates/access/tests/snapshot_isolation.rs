//! Seeded property test for the indices' structurally shared storage. A
//! maintained [`AccessIndexSet`] is a copy-on-write clone of its
//! predecessor, so the failure class to rule out is **aliasing**: a later
//! commit's write showing through an older version. Random update streams
//! (node and edge inserts and deletes, tombstones, hub endpoints, the
//! deletion of a hub) are maintained version by version with
//! [`apply_deltas`]; every version stays pinned, and once the stream is over
//! each one must still equal a from-scratch rebuild over its own graph —
//! every entry, cardinality, truncation verdict and contribution probe —
//! and load from its snapshot as the build of the loaded graph and schema.
//!
//! The streams grow the `(user, tag) → item` index's arrays past their
//! first page, and run once uncapped and once under a combination cap small
//! enough that hub targets sit at it. Unary indices answer from the graph's
//! own rows, so every pinned version of them reads its own graph.

use bgpq_access::{
    apply_deltas, read_snapshot, write_snapshot, AccessConstraint, AccessIndexSet, AccessSchema,
    ConstraintId, GraphDelta, DEFAULT_MAX_COMBINATIONS_PER_NODE,
};
use bgpq_graph::{Graph, GraphBuilder, NodeId, Value};
use bgpq_pattern::DetRng;

const USERS: usize = 6;
const TAGS: usize = 4;
const ITEMS: usize = 100;

/// Users `0..6` (user 0 and 1 are hubs), tags `6..10`, then items, each
/// with an author and a tag.
fn initial(rng: &mut DetRng) -> (Graph, AccessSchema) {
    let mut b = GraphBuilder::new();
    let users: Vec<NodeId> = (0..USERS)
        .map(|i| b.add_node("user", Value::Int(i as i64)))
        .collect();
    let tags: Vec<NodeId> = (0..TAGS)
        .map(|i| b.add_node("tag", Value::Int(i as i64)))
        .collect();
    for i in 0..ITEMS {
        let item = b.add_node("item", Value::Int(i as i64));
        // Half of the items go to the two hub users.
        let pool = if rng.random_range(0..2) == 0 {
            2
        } else {
            USERS
        };
        let author = users[rng.random_range(0..pool)];
        b.add_edge(author, item).unwrap();
        b.add_edge(item, *rng.choose(&tags).unwrap()).unwrap();
    }
    let graph = b.build();
    let l = |name: &str| graph.interner().get(name).unwrap();
    let schema = AccessSchema::from_constraints([
        AccessConstraint::global(l("tag"), 64),
        AccessConstraint::unary(l("item"), l("user"), 4),
        AccessConstraint::unary(l("user"), l("item"), 400),
        AccessConstraint::unary(l("tag"), l("item"), 400),
        AccessConstraint::new([l("user"), l("tag")], l("item"), 400),
    ]);
    (graph, schema)
}

/// The index the stream grows past its first page: `(user, tag) → item`,
/// whose target listings are addressed by item id. (A unary index keeps no
/// pages: its answers are the graph's rows.)
const GROWING: ConstraintId = ConstraintId(4);

fn live_with(graph: &Graph, name: &str) -> Vec<NodeId> {
    graph
        .nodes_with_label(graph.interner().get(name).unwrap())
        .to_vec()
}

/// Applies one random update to `graph`, appending its deltas.
fn mutate(rng: &mut DetRng, graph: &mut Graph, deltas: &mut Vec<GraphDelta>) {
    let (users, tags, items) = (
        live_with(graph, "user"),
        live_with(graph, "tag"),
        live_with(graph, "item"),
    );
    let live: Vec<NodeId> = graph.nodes().filter(|&v| graph.is_live(v)).collect();
    match rng.random_range(0..12) {
        // A fresh item with an author (half the time a hub) and a tag.
        0..=5 => {
            let item = graph.insert_node("item", Value::Int(rng.random_range(0..100) as i64));
            deltas.push(GraphDelta::InsertNode(item));
            let pool = if rng.random_range(0..2) == 0 {
                1
            } else {
                users.len()
            };
            insert_edge(graph, users[rng.random_range(0..pool)], item, deltas);
            insert_edge(graph, item, *rng.choose(&tags).unwrap(), deltas);
        }
        6 => {
            let label = ["user", "tag"][rng.random_range(0..2)];
            let node = graph.insert_node(label, Value::Int(rng.random_range(0..100) as i64));
            deltas.push(GraphDelta::InsertNode(node));
        }
        // Any edge at all, self-loops and odd label pairs included.
        7..=8 => insert_edge(
            graph,
            *rng.choose(&live).unwrap(),
            *rng.choose(&live).unwrap(),
            deltas,
        ),
        9..=10 => {
            let edges: Vec<_> = graph.edges().collect();
            let e = edges[rng.random_range(0..edges.len())];
            assert!(graph.delete_edge(e.src, e.dst).unwrap());
            deltas.push(GraphDelta::DeleteEdge(e.src, e.dst));
        }
        _ => {
            // Spare the last user and tag so the stream can keep attaching.
            let pool: &[NodeId] = match rng.random_range(0..3) {
                0 if users.len() > 2 => &users[2..],
                1 if tags.len() > 1 => &tags[1..],
                _ => &items,
            };
            delete_node(graph, *rng.choose(pool).unwrap(), deltas);
        }
    }
}

fn insert_edge(graph: &mut Graph, src: NodeId, dst: NodeId, deltas: &mut Vec<GraphDelta>) {
    if graph.insert_edge(src, dst).unwrap() {
        deltas.push(GraphDelta::InsertEdge(src, dst));
    }
}

fn delete_node(graph: &mut Graph, node: NodeId, deltas: &mut Vec<GraphDelta>) {
    for e in graph.delete_node(node).unwrap() {
        deltas.push(GraphDelta::DeleteEdge(e.src, e.dst));
    }
    deltas.push(GraphDelta::DeleteNode(node));
}

fn assert_equals_rebuild(kept: &AccessIndexSet, graph: &Graph, cap: usize, ctx: &str) {
    let rebuilt = AccessIndexSet::build_with_cap(graph, kept.schema(), cap);
    for ((id, kept), (_, fresh)) in kept.iter().zip(rebuilt.iter()) {
        let ctx = format!("{ctx}, {id} {}", fresh.constraint());
        assert_eq!(kept.key_count(), fresh.key_count(), "key count ({ctx})");
        assert_eq!(kept.size(), fresh.size(), "size ({ctx})");
        for (key, answers) in fresh.entries() {
            assert_eq!(kept.common_neighbors(key), answers, "key {key:?} ({ctx})");
        }
        for (key, answers) in kept.entries() {
            assert_eq!(fresh.common_neighbors(key), answers, "key {key:?} ({ctx})");
        }
        assert_eq!(
            kept.max_cardinality(),
            fresh.max_cardinality(),
            "max cardinality ({ctx})"
        );
        assert_eq!(kept.within_bound(), fresh.within_bound(), "bound ({ctx})");
        assert_eq!(
            kept.is_truncated(),
            fresh.is_truncated(),
            "truncation ({ctx})"
        );
        for v in graph.nodes() {
            assert_eq!(
                kept.has_contribution(v),
                fresh.has_contribution(v),
                "contribution of {v} ({ctx})"
            );
        }
    }
}

fn run_stream(seed: u64, cap: usize) {
    let mut rng = DetRng::seed_from_u64(seed ^ 0x15_0CA7);
    let (graph, schema) = initial(&mut rng);
    let indices = AccessIndexSet::build_with_cap(&graph, &schema, cap);
    let mut versions = vec![(graph, indices)];
    for commit in 0..40 {
        let (base_graph, base_indices) = versions.last().unwrap();
        let (mut graph, mut indices) = (base_graph.clone(), base_indices.clone());
        let mut deltas = Vec::new();
        if commit == 30 {
            // A hub goes, with every edge it had.
            delete_node(&mut graph, NodeId(0), &mut deltas);
        }
        for _ in 0..4 + rng.random_range(0..10) {
            mutate(&mut rng, &mut graph, &mut deltas);
        }
        apply_deltas(&mut indices, &graph, &deltas);
        let ctx = format!("seed {seed} cap {cap} commit {commit}");
        assert_equals_rebuild(&indices, &graph, cap, &ctx);
        versions.push((graph, indices));
    }

    // Under a cap the hub targets stop accepting keys, so only the uncapped
    // stream is guaranteed to outgrow the index's first page.
    let shards = |set: &AccessIndexSet| set.get(GROWING).unwrap().shard_count();
    let most = versions.iter().map(|(_, set)| shards(set)).max().unwrap();
    assert!(
        cap < usize::MAX || most > shards(&versions[0].1),
        "seed {seed}: the stream must grow the index past its first page (still {most} pages)"
    );
    let last = &versions.last().unwrap().1;
    assert!(
        last.shards_copied() > 0,
        "seed {seed}: maintaining a shared set copies the pages it writes to"
    );
    // The point of the test: later commits changed nothing in older versions.
    // Each also loads from its snapshot as the build of the loaded graph and
    // schema.
    for (version, (graph, indices)) in versions.iter().enumerate() {
        let ctx = format!("seed {seed} cap {cap} pinned version {version}");
        assert_equals_rebuild(indices, graph, cap, &ctx);
        let mut bytes = Vec::new();
        write_snapshot(graph, indices.schema(), &mut bytes).unwrap();
        let loaded = read_snapshot(std::io::Cursor::new(bytes)).unwrap();
        let default = DEFAULT_MAX_COMBINATIONS_PER_NODE;
        assert_equals_rebuild(&loaded.indices, &loaded.graph, default, &ctx);
    }
}

#[test]
fn pinned_index_versions_survive_later_commits() {
    for seed in 0..6 {
        run_stream(seed, usize::MAX);
    }
}

/// Under a small cap every busy item (as a `(user, tag) → item` target)
/// sits at the cap, so whole contributions are re-enumerated under it on
/// most commits, and edge deltas keep carrying targets up to the cap and
/// back below it. The unary indices ignore the cap.
#[test]
fn pinned_index_versions_survive_later_commits_at_the_cap() {
    for cap in [1, 2, 5] {
        for seed in 0..4 {
            run_stream(seed, cap);
        }
    }
}

/// Every `(constraint, key, answers)` entry of `set`, sorted.
fn entries_of(set: &AccessIndexSet) -> Vec<(ConstraintId, Vec<NodeId>, Vec<NodeId>)> {
    let mut entries: Vec<_> = set
        .iter()
        .flat_map(|(id, index)| {
            index
                .entries()
                .map(move |(key, answers)| (id, key.to_vec(), answers.to_vec()))
        })
        .collect();
    entries.sort();
    entries
}

/// On a clone of a built set, one user's answer list (unary and
/// `(user, tag)` alike) grows from 0 to 8 items in a random order and
/// shrinks back to 0 in another, one edge per commit: through the graph's
/// row for the unary index, through a rebuilt shared list for the pair. A
/// copy pinned at every step must keep what it held, and each step must
/// equal a fresh build.
#[test]
fn pinned_copies_survive_an_answer_list_crossing_the_inline_limit() {
    const GROWN: usize = 8;
    for seed in 0..4 {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new();
        let hub = b.add_node("user", Value::Int(0));
        let tag = b.add_node("tag", Value::Int(0));
        let mut items = Vec::new();
        for i in 0..GROWN + 24 {
            let item = b.add_node("item", Value::Int(i as i64));
            b.add_edge(item, tag).unwrap();
            if i >= GROWN {
                // Other users and their items fill the pages around the
                // hub's entry.
                let user = b.add_node("user", Value::Int(i as i64));
                b.add_edge(user, item).unwrap();
            } else {
                items.push(item);
            }
        }
        let graph = b.build();
        let l = |name: &str| graph.interner().get(name).unwrap();
        let schema = AccessSchema::from_constraints([
            AccessConstraint::unary(l("user"), l("item"), GROWN),
            AccessConstraint::unary(l("item"), l("user"), 1),
            AccessConstraint::new([l("user"), l("tag")], l("item"), GROWN),
        ]);
        let built = AccessIndexSet::build_with_cap(&graph, &schema, usize::MAX);
        let (mut graph, mut indices) = (graph.clone(), built.clone());
        let mut pins = vec![(entries_of(&built), built)];

        let mut order = items.clone();
        let mut steps = Vec::new();
        while !order.is_empty() {
            steps.push((true, order.swap_remove(rng.random_range(0..order.len()))));
        }
        let mut order = items.clone();
        while !order.is_empty() {
            steps.push((false, order.swap_remove(rng.random_range(0..order.len()))));
        }
        for (step, &(insert, item)) in steps.iter().enumerate() {
            let delta = if insert {
                assert!(graph.insert_edge(hub, item).unwrap());
                GraphDelta::InsertEdge(hub, item)
            } else {
                assert!(graph.delete_edge(hub, item).unwrap());
                GraphDelta::DeleteEdge(hub, item)
            };
            apply_deltas(&mut indices, &graph, &[delta]);
            let listed = graph.out_degree(hub);
            let lists = [&[hub][..], &[hub, tag][..]];
            for (id, key) in [ConstraintId(0), ConstraintId(2)].into_iter().zip(lists) {
                let answers = indices.get(id).unwrap().common_neighbors(key);
                assert_eq!(answers.len(), listed, "seed {seed} step {step}");
            }
            assert_equals_rebuild(
                &indices,
                &graph,
                usize::MAX,
                &format!("seed {seed} step {step}"),
            );
            pins.push((entries_of(&indices), indices.clone()));
        }
        assert_eq!(graph.out_degree(hub), 0);
        for (step, (held, pinned)) in pins.iter().enumerate() {
            assert_eq!(&entries_of(pinned), held, "seed {seed}: pin {step} changed");
        }
    }
}
