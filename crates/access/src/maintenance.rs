//! Incremental maintenance of access-constraint indices.
//!
//! Section II of the paper notes that the indices of an access schema can be
//! maintained incrementally and locally: after a change `ΔG` it suffices to
//! inspect `ΔG ∪ Nb(ΔG)` — the changed nodes/edges and their neighbors —
//! regardless of how big `G` is.
//!
//! A **global** or **unary** constraint's answers are the graph's own label
//! bucket or segments of its adjacency rows, so the graph's mutation
//! already maintained them. [`apply_deltas`] moves such an index to the new
//! graph — a handle swap — and counts the nodes of `ΔG` carrying its keyed
//! label on either version, one label read per node: no answer list is
//! read, so a hub is never rescanned, and the index keeps no figures about
//! its lists to bring up to date (its `max_cardinality` is read off the
//! graph when asked).
//!
//! An `|S| ≥ 2` constraint stores, for `S → (l, N)`, the contribution of
//! every `l`-labeled node `u`: the set of `S`-labeled neighbor combinations
//! of `u`. That contribution depends only on `u`'s neighborhood, so an edge
//! insertion or deletion `(a, b)` can only change the contributions of `a`
//! and `b` (when they carry the target label), and a node insertion only
//! adds a (possibly empty) contribution for the new node. [`apply_deltas`]
//! recomputes exactly those contributions against the *new* graph.
//!
//! Index storage is copy-on-write: a maintenance call on a cloned
//! [`AccessIndexSet`] un-shares only the `|S| ≥ 2` constraints it changes
//! and, inside them, the pages its node ids fall in — a key's smallest id,
//! a target's own id. A global or unary index is un-shared on every call,
//! to take the new graph; it owns no pages. The new nodes of a batch have
//! consecutive ids, so their entries share a page.

use crate::index::AccessIndexSet;
use bgpq_graph::{Graph, NodeId};
use std::sync::Arc;

/// A single change applied to the underlying data graph.
///
/// The delta refers to the **new** graph: for insertions the edge/node is
/// present in the new graph, for deletions it is absent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphDelta {
    /// A directed edge was inserted.
    InsertEdge(NodeId, NodeId),
    /// A directed edge was deleted.
    DeleteEdge(NodeId, NodeId),
    /// A node was inserted (possibly followed by `InsertEdge` deltas).
    InsertNode(NodeId),
    /// A node was deleted. A node deletion implies the deletion of its
    /// incident edges, whose endpoints' contributions also change, so a
    /// `DeleteNode` must travel in the same batch as one `DeleteEdge` per
    /// incident edge of the *old* graph —
    /// [`Graph::delete_node`](bgpq_graph::Graph::delete_node) returns exactly
    /// that edge list.
    DeleteNode(NodeId),
}

/// The nodes directly touched by one delta (`ΔG`): at most two, returned
/// without heap allocation — the maintenance hot loop flattens one of these
/// per delta, so a `Vec` per delta would dominate small-batch costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TouchedNodes {
    nodes: [NodeId; 2],
    len: u8,
}

impl TouchedNodes {
    fn one(a: NodeId) -> Self {
        TouchedNodes {
            nodes: [a, a],
            len: 1,
        }
    }

    fn two(a: NodeId, b: NodeId) -> Self {
        TouchedNodes {
            nodes: [a, b],
            len: 2,
        }
    }

    /// The touched nodes as a slice.
    pub fn as_slice(&self) -> &[NodeId] {
        &self.nodes[..self.len as usize]
    }
}

impl std::ops::Deref for TouchedNodes {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        self.as_slice()
    }
}

impl IntoIterator for TouchedNodes {
    type Item = NodeId;
    type IntoIter = std::iter::Take<std::array::IntoIter<NodeId, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.nodes.into_iter().take(self.len as usize)
    }
}

impl GraphDelta {
    /// The nodes directly touched by this delta (`ΔG`), heap-free.
    pub fn touched_nodes(&self) -> TouchedNodes {
        match *self {
            GraphDelta::InsertEdge(a, b) | GraphDelta::DeleteEdge(a, b) => TouchedNodes::two(a, b),
            GraphDelta::InsertNode(v) | GraphDelta::DeleteNode(v) => TouchedNodes::one(v),
        }
    }
}

/// What one maintenance call recomputed — the serving layer's observability
/// into the paper's `O(|ΔG ∪ Nb(ΔG)|)` claim.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Distinct nodes in `ΔG` (after deduplicating the batch).
    pub touched_nodes: usize,
    /// `(constraint, node)` contributions repaired: per touched node, one
    /// per `|S| ≥ 2` constraint whose target label the node carries or
    /// that still lists the node, one per global constraint whose target
    /// label it carries (or carried), its bucket membership, and one per
    /// unary constraint whose source label it carries (or carried), its
    /// answer list.
    pub refreshed_contributions: usize,
}

/// Updates every index of `indices` to reflect `delta`, using `new_graph`
/// (the graph *after* the change) as ground truth. Only the contributions of
/// nodes in `ΔG` are recomputed.
pub fn apply_delta(
    indices: &mut AccessIndexSet,
    new_graph: &Graph,
    delta: &GraphDelta,
) -> MaintenanceStats {
    apply_deltas(indices, new_graph, std::slice::from_ref(delta))
}

/// Applies a batch of deltas at once; the contribution of each affected node
/// is repaired a single time per index.
///
/// A global or unary index moves to `new_graph` (see the module docs). In
/// an `|S| ≥ 2` index a node is repaired when it currently carries the
/// target label **or** when it previously contributed — the latter covers
/// deleted nodes, whose stale
/// contributions must be removed even though a tombstone's label matches no
/// target. Repairs are idempotent, independent of the order of the batch,
/// and run under the combination cap each index was built with, so a
/// maintained index stays equivalent to a fresh rebuild even at the cap.
///
/// The global and unary indices answer from `new_graph` itself, so they
/// take a clone of it behind one new `Arc`; a caller that holds the new
/// graph behind an `Arc` already shares that one through
/// [`apply_deltas_shared`].
pub fn apply_deltas(
    indices: &mut AccessIndexSet,
    new_graph: &Graph,
    deltas: &[GraphDelta],
) -> MaintenanceStats {
    maintain(indices, new_graph, || Arc::new(new_graph.clone()), deltas)
}

/// [`apply_deltas`] with `new_graph` already behind an `Arc`: every global
/// and unary index takes that handle, and nothing of the graph is cloned.
pub fn apply_deltas_shared(
    indices: &mut AccessIndexSet,
    new_graph: &Arc<Graph>,
    deltas: &[GraphDelta],
) -> MaintenanceStats {
    maintain(indices, new_graph, || Arc::clone(new_graph), deltas)
}

/// The body of [`apply_deltas`]; `share` hands out the handle on
/// `new_graph` the global and unary indices take, asked for at most once.
fn maintain(
    indices: &mut AccessIndexSet,
    new_graph: &Graph,
    share: impl Fn() -> Arc<Graph>,
    deltas: &[GraphDelta],
) -> MaintenanceStats {
    let mut touched: Vec<NodeId> = deltas.iter().flat_map(GraphDelta::touched_nodes).collect();
    touched.sort_unstable();
    touched.dedup();

    let mut stats = MaintenanceStats {
        touched_nodes: touched.len(),
        refreshed_contributions: 0,
    };
    // The new graph, one handle shared by every global and unary index.
    let mut shared_graph: Option<Arc<Graph>> = None;
    for shared in &mut indices.indices {
        if shared.constraint().source_len() <= 1 {
            let graph = shared_graph.get_or_insert_with(&share);
            let index = Arc::make_mut(shared);
            stats.refreshed_contributions += index.move_to(graph, &touched);
            continue;
        }
        let target_label = shared.constraint().target();
        let stale: Vec<NodeId> = touched
            .iter()
            .copied()
            .filter(|&node| {
                new_graph.try_label(node) == Some(target_label) || shared.has_contribution(node)
            })
            .collect();
        if stale.is_empty() {
            continue; // the index stays shared with the previous version
        }
        stats.refreshed_contributions += stale.len();
        let index = Arc::make_mut(shared);
        for node in stale {
            index.refresh_target(new_graph, node);
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{AccessConstraint, ConstraintId};
    use crate::schema::AccessSchema;
    use bgpq_graph::{GraphBuilder, Value};

    struct Fixture {
        nodes: Vec<NodeId>,
        edges: Vec<(NodeId, NodeId)>,
    }

    /// year/award/movie/actor fixture with an explicit edge list so tests can
    /// rebuild graphs with edges added or removed.
    fn fixture() -> Fixture {
        // Node ids assigned in order below.
        let year1 = NodeId(0);
        let year2 = NodeId(1);
        let award = NodeId(2);
        let movie1 = NodeId(3);
        let movie2 = NodeId(4);
        let actor1 = NodeId(5);
        let actor2 = NodeId(6);
        let edges = vec![
            (year1, movie1),
            (award, movie1),
            (year2, movie2),
            (award, movie2),
            (movie1, actor1),
            (movie2, actor2),
        ];
        Fixture {
            nodes: vec![year1, year2, award, movie1, movie2, actor1, actor2],
            edges,
        }
    }

    fn build_graph(edges: &[(NodeId, NodeId)], extra_nodes: usize) -> Graph {
        let labels = ["year", "year", "award", "movie", "movie", "actor", "actor"];
        let mut b = GraphBuilder::new();
        for (i, l) in labels.iter().enumerate() {
            b.add_node(l, Value::Int(i as i64));
        }
        for _ in 0..extra_nodes {
            b.add_node("movie", Value::Int(99));
        }
        for &(s, d) in edges {
            b.add_edge(s, d).unwrap();
        }
        b.build()
    }

    fn schema_for(graph: &Graph) -> AccessSchema {
        let year = graph.interner().get("year").unwrap();
        let award = graph.interner().get("award").unwrap();
        let movie = graph.interner().get("movie").unwrap();
        let actor = graph.interner().get("actor").unwrap();
        AccessSchema::from_constraints([
            AccessConstraint::new([year, award], movie, 4),
            AccessConstraint::unary(movie, actor, 5),
            AccessConstraint::global(movie, 10),
        ])
    }

    /// Asserts that `maintained` answers every lookup exactly like an index
    /// rebuilt from scratch on `graph`.
    fn assert_equivalent_to_rebuild(maintained: &AccessIndexSet, graph: &Graph) {
        let rebuilt = AccessIndexSet::build(graph, maintained.schema());
        for (id, fresh) in rebuilt.iter() {
            let kept = maintained.get(id).unwrap();
            assert_eq!(
                kept.key_count(),
                fresh.key_count(),
                "key count mismatch for {id}"
            );
            assert_eq!(kept.size(), fresh.size(), "size mismatch for {id}");
            for (key, answers) in fresh.entries() {
                assert_eq!(
                    kept.common_neighbors(key),
                    answers,
                    "answers mismatch for {id} key {key:?}"
                );
            }
            assert_eq!(kept.max_cardinality(), fresh.max_cardinality());
            assert_eq!(kept.is_truncated(), fresh.is_truncated());
        }
    }

    #[test]
    fn edge_insertion_matches_full_rebuild() {
        let f = fixture();
        let old = build_graph(&f.edges, 0);
        let schema = schema_for(&old);
        let mut indices = AccessIndexSet::build(&old, &schema);

        // Connect year1 to movie2: movie2 now has two (year, award) keys.
        let mut new_edges = f.edges.clone();
        new_edges.push((f.nodes[0], f.nodes[4]));
        let new = build_graph(&new_edges, 0);
        apply_delta(
            &mut indices,
            &new,
            &GraphDelta::InsertEdge(f.nodes[0], f.nodes[4]),
        );
        assert_equivalent_to_rebuild(&indices, &new);
    }

    #[test]
    fn edge_deletion_matches_full_rebuild() {
        let f = fixture();
        let old = build_graph(&f.edges, 0);
        let schema = schema_for(&old);
        let mut indices = AccessIndexSet::build(&old, &schema);

        // Delete award -> movie1: movie1 no longer has a (year, award) key.
        let new_edges: Vec<_> = f
            .edges
            .iter()
            .copied()
            .filter(|&e| e != (f.nodes[2], f.nodes[3]))
            .collect();
        let new = build_graph(&new_edges, 0);
        apply_delta(
            &mut indices,
            &new,
            &GraphDelta::DeleteEdge(f.nodes[2], f.nodes[3]),
        );
        assert_equivalent_to_rebuild(&indices, &new);
    }

    #[test]
    fn batched_deltas_match_full_rebuild() {
        let f = fixture();
        let old = build_graph(&f.edges, 0);
        let schema = schema_for(&old);
        let mut indices = AccessIndexSet::build(&old, &schema);

        // Apply two changes at once: remove (movie1, actor1), add (movie1, actor2).
        let mut new_edges: Vec<_> = f
            .edges
            .iter()
            .copied()
            .filter(|&e| e != (f.nodes[3], f.nodes[5]))
            .collect();
        new_edges.push((f.nodes[3], f.nodes[6]));
        let new = build_graph(&new_edges, 0);
        apply_deltas(
            &mut indices,
            &new,
            &[
                GraphDelta::DeleteEdge(f.nodes[3], f.nodes[5]),
                GraphDelta::InsertEdge(f.nodes[3], f.nodes[6]),
            ],
        );
        assert_equivalent_to_rebuild(&indices, &new);
    }

    #[test]
    fn node_insertion_updates_global_indices() {
        let f = fixture();
        let old = build_graph(&f.edges, 0);
        let schema = schema_for(&old);
        let mut indices = AccessIndexSet::build(&old, &schema);

        // New graph has one extra movie node (id 7) with no edges yet.
        let new = build_graph(&f.edges, 1);
        apply_delta(&mut indices, &new, &GraphDelta::InsertNode(NodeId(7)));
        assert_equivalent_to_rebuild(&indices, &new);
        // The global movie index must now list 3 movies.
        let global = indices.get(ConstraintId(2)).unwrap();
        assert_eq!(global.common_neighbors(&[]).len(), 3);
    }

    #[test]
    fn unrelated_deltas_do_not_change_indices() {
        let f = fixture();
        let old = build_graph(&f.edges, 0);
        let schema = schema_for(&old);
        let mut indices = AccessIndexSet::build(&old, &schema);
        let before_size = indices.total_size();

        // Add an actor-to-actor edge: no constraint targets year/actor pairs
        // in a way this affects (actor is a target only of movie→actor whose
        // endpoints didn't change labels... but actor1 is a target of
        // constraint 1? No: constraint 1 targets actor with source movie, and
        // actor1's neighborhood changed, so its contribution is refreshed —
        // the result must still equal a rebuild).
        let mut new_edges = f.edges.clone();
        new_edges.push((f.nodes[5], f.nodes[6]));
        let new = build_graph(&new_edges, 0);
        apply_delta(
            &mut indices,
            &new,
            &GraphDelta::InsertEdge(f.nodes[5], f.nodes[6]),
        );
        assert_equivalent_to_rebuild(&indices, &new);
        // Sizes did not change: the actor-actor edge creates no new
        // (movie → actor) combination.
        assert_eq!(indices.total_size(), before_size);
    }

    /// The cached maximum cardinality is counted, not rescanned: it must
    /// follow an answer list up and back down, and drop to zero with the
    /// last entry.
    #[test]
    fn max_cardinality_follows_growth_and_shrinkage() {
        let f = fixture();
        let mut g = build_graph(&f.edges, 0);
        let schema = schema_for(&g);
        let mut indices = AccessIndexSet::build(&g, &schema);
        let movie_actor = ConstraintId(1);
        let max = |indices: &AccessIndexSet| indices.get(movie_actor).unwrap().max_cardinality();
        assert_eq!(max(&indices), 1);

        // movie1 gains actor2: its answer list is now the longest.
        g.insert_edge(f.nodes[3], f.nodes[6]).unwrap();
        apply_delta(
            &mut indices,
            &g,
            &GraphDelta::InsertEdge(f.nodes[3], f.nodes[6]),
        );
        assert_eq!(max(&indices), 2);
        assert_equivalent_to_rebuild(&indices, &g);

        // ...and loses it again.
        g.delete_edge(f.nodes[3], f.nodes[6]).unwrap();
        apply_delta(
            &mut indices,
            &g,
            &GraphDelta::DeleteEdge(f.nodes[3], f.nodes[6]),
        );
        assert_eq!(max(&indices), 1);

        for (movie, actor) in [(f.nodes[3], f.nodes[5]), (f.nodes[4], f.nodes[6])] {
            g.delete_edge(movie, actor).unwrap();
            apply_delta(&mut indices, &g, &GraphDelta::DeleteEdge(movie, actor));
        }
        assert_eq!(max(&indices), 0);
        assert_equivalent_to_rebuild(&indices, &g);
    }

    /// One edge at a hub target refreshes one contribution: maintaining a
    /// shared clone counts the new post (not the hub's 2 000 other
    /// sources), copies no index page — a unary index keeps none — and
    /// re-applying the same delta changes nothing.
    #[test]
    fn an_edge_at_a_hub_is_repaired_locally() {
        let mut b = GraphBuilder::new();
        let hub = b.add_node("tag", Value::Null);
        for i in 0..2_000 {
            let post = b.add_node("post", Value::Int(i));
            b.add_edge(post, hub).unwrap();
        }
        let mut g = b.build();
        let l = |name: &str| g.interner().get(name).unwrap();
        let schema =
            AccessSchema::from_constraints([AccessConstraint::unary(l("post"), l("tag"), 1)]);
        let base = AccessIndexSet::build(&g, &schema);
        assert_eq!(base.get(ConstraintId(0)).unwrap().shard_count(), 0);

        let post = g.insert_node("post", Value::Int(-1));
        g.insert_edge(post, hub).unwrap();
        let deltas = [
            GraphDelta::InsertNode(post),
            GraphDelta::InsertEdge(post, hub),
        ];
        let mut next = base.clone();
        let stats = apply_deltas(&mut next, &g, &deltas);
        assert_eq!(
            stats.refreshed_contributions, 1,
            "only the post is a source"
        );
        assert_eq!(next.shards_copied(), base.shards_copied());
        assert_equivalent_to_rebuild(&next, &g);
        assert_equivalent_to_rebuild(&base, &{
            let mut old = g.clone();
            old.delete_node(post).unwrap();
            old
        });

        // Idempotent: the index already answers from the new graph.
        apply_deltas(&mut next, &g, &deltas);
        assert_equivalent_to_rebuild(&next, &g);
    }

    /// Unary indices never truncate: a hub target listed under more
    /// sources than the cap — a batch of edge deltas takes it there — is
    /// answered in full for every source, under caps 1, 2 and 3 alike, and
    /// no index reports truncation; dropping the edges again leaves the
    /// one source left.
    #[test]
    fn a_unary_hub_target_outgrowing_the_cap_is_never_truncated() {
        for cap in [1, 2, 3] {
            let mut b = GraphBuilder::new();
            let tag = b.add_node("tag", Value::Null);
            let posts: Vec<NodeId> = (0..4).map(|i| b.add_node("post", Value::Int(i))).collect();
            let mut g = b.build();
            let l = |name: &str| g.interner().get(name).unwrap();
            let schema =
                AccessSchema::from_constraints([AccessConstraint::unary(l("post"), l("tag"), 9)]);
            let mut indices = AccessIndexSet::build_with_cap(&g, &schema, cap);

            let mut deltas = Vec::new();
            for &post in posts.iter().rev() {
                g.insert_edge(post, tag).unwrap();
                deltas.push(GraphDelta::InsertEdge(post, tag));
            }
            apply_deltas(&mut indices, &g, &deltas);
            let rebuilt = AccessIndexSet::build_with_cap(&g, &schema, cap);
            let (kept, fresh) = (
                indices.get(ConstraintId(0)).unwrap(),
                rebuilt.get(ConstraintId(0)).unwrap(),
            );
            assert!(!fresh.is_truncated() && !kept.is_truncated(), "cap {cap}");
            assert_eq!(kept.key_count(), posts.len(), "cap {cap}");
            for &post in &posts {
                assert_eq!(kept.common_neighbors(&[post]).to_vec(), [tag], "cap {cap}");
            }
            assert!(kept.has_contribution(tag));
            assert_equivalent_to_rebuild(&indices, &g);

            let mut deltas = Vec::new();
            for &post in &posts[..3] {
                g.delete_edge(post, tag).unwrap();
                deltas.push(GraphDelta::DeleteEdge(post, tag));
            }
            apply_deltas(&mut indices, &g, &deltas);
            let kept = indices.get(ConstraintId(0)).unwrap();
            assert!(!kept.is_truncated(), "cap {cap}");
            assert_eq!(kept.common_neighbors(&[posts[3]]).to_vec(), [tag]);
            assert_eq!(kept.key_count(), 1);
        }
    }

    #[test]
    fn touched_nodes_reports_delta_support() {
        assert_eq!(
            GraphDelta::InsertEdge(NodeId(1), NodeId(2))
                .touched_nodes()
                .as_slice(),
            &[NodeId(1), NodeId(2)]
        );
        assert_eq!(
            GraphDelta::DeleteEdge(NodeId(3), NodeId(4))
                .touched_nodes()
                .as_slice(),
            &[NodeId(3), NodeId(4)]
        );
        assert_eq!(
            GraphDelta::InsertNode(NodeId(5)).touched_nodes().as_slice(),
            &[NodeId(5)]
        );
        assert_eq!(
            GraphDelta::DeleteNode(NodeId(6)).touched_nodes().as_slice(),
            &[NodeId(6)]
        );
        // The iterator form matches the slice form and allocates nothing.
        let collected: Vec<NodeId> = GraphDelta::InsertEdge(NodeId(1), NodeId(2))
            .touched_nodes()
            .into_iter()
            .collect();
        assert_eq!(collected, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn node_deletion_matches_full_rebuild() {
        let f = fixture();
        let old = build_graph(&f.edges, 0);
        let schema = schema_for(&old);
        let mut indices = AccessIndexSet::build(&old, &schema);

        // Delete movie1 through the mutation API: its (year, award) key and
        // its movie→actor contribution must disappear, and the global movie
        // index must drop it.
        let mut new = old.clone();
        let removed = new.delete_node(f.nodes[3]).unwrap();
        let mut deltas: Vec<GraphDelta> = removed
            .iter()
            .map(|e| GraphDelta::DeleteEdge(e.src, e.dst))
            .collect();
        deltas.push(GraphDelta::DeleteNode(f.nodes[3]));
        let stats = apply_deltas(&mut indices, &new, &deltas);
        // movie1 plus its 3 neighbors (year1, award, actor1).
        assert_eq!(stats.touched_nodes, 4);
        assert!(stats.refreshed_contributions > 0);
        assert_equivalent_to_rebuild(&indices, &new);
        let global = indices.get(ConstraintId(2)).unwrap();
        assert_eq!(global.common_neighbors(&[]).len(), 1);
        assert!(!global.has_contribution(f.nodes[3]));
    }

    #[test]
    fn maintenance_respects_the_build_cap() {
        // A hub with x/y source pairs exceeding a tiny cap: refreshing the
        // hub must re-enumerate under the *build* cap, exactly like a fresh
        // build with that cap would.
        let mut b = GraphBuilder::new();
        let hub = b.add_node("hub", Value::Null);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..8 {
            let x = b.add_node("x", Value::Int(i));
            let y = b.add_node("y", Value::Int(i));
            b.add_edge(x, hub).unwrap();
            b.add_edge(y, hub).unwrap();
            xs.push(x);
            ys.push(y);
        }
        let mut g = b.build();
        let x_l = g.interner().get("x").unwrap();
        let y_l = g.interner().get("y").unwrap();
        let hub_l = g.interner().get("hub").unwrap();
        let schema =
            AccessSchema::from_constraints([AccessConstraint::new([x_l, y_l], hub_l, 100)]);
        let cap = 10;
        let mut indices = AccessIndexSet::build_with_cap(&g, &schema, cap);
        assert!(indices.get(ConstraintId(0)).unwrap().is_truncated());
        assert_eq!(indices.get(ConstraintId(0)).unwrap().cap(), cap);

        // Mutate the hub's neighborhood and maintain incrementally.
        let x_new = g.insert_node("x", Value::Int(99));
        g.insert_edge(x_new, hub).unwrap();
        g.delete_edge(xs[0], hub).unwrap();
        let stats = apply_deltas(
            &mut indices,
            &g,
            &[
                GraphDelta::InsertNode(x_new),
                GraphDelta::InsertEdge(x_new, hub),
                GraphDelta::DeleteEdge(xs[0], hub),
            ],
        );
        assert!(stats.refreshed_contributions > 0);

        // The maintained index equals a fresh build under the same cap.
        let rebuilt = AccessIndexSet::build_with_cap(&g, &schema, cap);
        let kept = indices.get(ConstraintId(0)).unwrap();
        let fresh = rebuilt.get(ConstraintId(0)).unwrap();
        assert_eq!(kept.key_count(), fresh.key_count());
        assert_eq!(kept.size(), fresh.size());
        for (key, answers) in fresh.entries() {
            assert_eq!(kept.common_neighbors(key), answers);
        }
        assert_eq!(kept.max_cardinality(), fresh.max_cardinality());
        assert_eq!(kept.is_truncated(), fresh.is_truncated());
    }

    #[test]
    fn truncation_verdict_tracks_the_offending_node() {
        // One hub over the cap; deleting the hub must clear the truncation
        // verdict exactly like a rebuild on the new graph would.
        let mut b = GraphBuilder::new();
        let hub = b.add_node("hub", Value::Null);
        for i in 0..6 {
            let x = b.add_node("x", Value::Int(i));
            let y = b.add_node("y", Value::Int(i));
            b.add_edge(x, hub).unwrap();
            b.add_edge(y, hub).unwrap();
        }
        let mut g = b.build();
        let x_l = g.interner().get("x").unwrap();
        let y_l = g.interner().get("y").unwrap();
        let hub_l = g.interner().get("hub").unwrap();
        let schema = AccessSchema::from_constraints([AccessConstraint::new([x_l, y_l], hub_l, 1)]);
        let mut indices = AccessIndexSet::build_with_cap(&g, &schema, 8);
        assert!(indices.get(ConstraintId(0)).unwrap().is_truncated());

        let mut deltas: Vec<GraphDelta> = g
            .delete_node(hub)
            .unwrap()
            .iter()
            .map(|e| GraphDelta::DeleteEdge(e.src, e.dst))
            .collect();
        deltas.push(GraphDelta::DeleteNode(hub));
        apply_deltas(&mut indices, &g, &deltas);

        assert!(
            !indices.get(ConstraintId(0)).unwrap().is_truncated(),
            "removing the capped node must clear the truncation verdict"
        );
        let rebuilt = AccessIndexSet::build_with_cap(&g, &schema, 8);
        assert!(!rebuilt.get(ConstraintId(0)).unwrap().is_truncated());
    }
}
