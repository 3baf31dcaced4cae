//! The epoch-versioned server: lock-free-pinned readers, one writer.

use crate::snapshot::Snapshot;
use bgpq_access::{
    apply_deltas_shared, AccessIndexSet, AccessSchema, GraphDelta, MaintenanceStats,
};
use bgpq_engine::{BgpqError, Engine, QueryRequest, QueryResponse, SharedResources};
use bgpq_graph::{Graph, NodeId, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Instant;

/// One logical mutation of the served graph, expressed in caller terms
/// (labels and node ids) rather than low-level [`GraphDelta`]s — the server
/// derives those, including the implied edge deletions of a node removal.
#[derive(Debug, Clone, PartialEq)]
pub enum Update {
    /// Add a node with the given label name and attribute value. The id it
    /// receives is the next free one (`graph.node_count()` of the snapshot
    /// the commit builds on, plus any nodes added earlier in the batch) and
    /// is reported in [`CommitReceipt::new_nodes`].
    AddNode {
        /// Label name, interned on the fly.
        label: String,
        /// Attribute value `ν(v)`.
        value: Value,
    },
    /// Add the directed edge `(src, dst)`. Adding an edge that already
    /// exists is a no-op (the graph is simple), not an error.
    AddEdge {
        /// Source endpoint.
        src: NodeId,
        /// Destination endpoint.
        dst: NodeId,
    },
    /// Remove the directed edge `(src, dst)`. Removing an absent edge is a
    /// no-op.
    RemoveEdge {
        /// Source endpoint.
        src: NodeId,
        /// Destination endpoint.
        dst: NodeId,
    },
    /// Remove a node and every edge incident to it. The slot is tombstoned:
    /// ids of other nodes do not shift.
    RemoveNode {
        /// The node to remove.
        node: NodeId,
    },
}

/// What one successful [`Server::commit`] did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommitReceipt {
    /// The epoch of the snapshot the commit published.
    pub version: u64,
    /// Ids assigned to [`Update::AddNode`] updates, in batch order.
    pub new_nodes: Vec<NodeId>,
    /// Number of low-level [`GraphDelta`]s the batch expanded to (node
    /// removals contribute one delta per removed incident edge plus one).
    pub deltas: usize,
    /// What incremental index maintenance recomputed.
    pub maintenance: MaintenanceStats,
    /// Nanoseconds spent in [`apply_deltas_shared`] — the paper's
    /// `O(|ΔG ∪ Nb(ΔG)|)` incremental maintenance cost, to be compared with
    /// the cost of rebuilding every index from scratch.
    pub delta_apply_nanos: u64,
    /// Nanoseconds for the whole commit: sharing the base snapshot's graph
    /// and indices (reference-count bumps), mutation replay and incremental
    /// maintenance (each copying only the pages it writes to),
    /// the pointer swap, and retiring the superseded snapshot. The five
    /// phase timers below plus `delta_apply_nanos` account for it, up to
    /// building the next engine.
    pub commit_nanos: u64,
    /// Nanoseconds cloning the base snapshot's graph and indices: one
    /// reference-count bump per group of 64 pages, per label-table group
    /// and per constraint.
    pub clone_nanos: u64,
    /// Nanoseconds replaying the batch as graph mutations on the clone.
    pub replay_nanos: u64,
    /// Nanoseconds the snapshot pointer's write lock was held — the only
    /// span during which [`Server::snapshot`] can wait.
    pub publish_nanos: u64,
    /// Nanoseconds dropping the superseded snapshot after the lock was
    /// released. When no reader pins it this frees what the commit
    /// replaced; otherwise it is one decrement and the last reader pays.
    pub retire_nanos: u64,
    /// Pages of the graph's per-node storage this commit copied because the
    /// base snapshot still shared them
    /// ([`Graph::pages_copied`](bgpq_graph::Graph::pages_copied)).
    pub pages_copied: u64,
    /// Index pages this commit copied, for the same reason
    /// ([`AccessIndexSet::shards_copied`]). Only `|S| ≥ 2` indices keep
    /// pages: a global or unary index is the graph's label bucket or rows.
    pub shards_copied: u64,
    /// Label-bucket chunks this commit copied, for the same reason
    /// ([`Graph::chunks_copied`](bgpq_graph::Graph::chunks_copied)).
    pub chunks_copied: u64,
    /// Adjacency-row ids this commit copied, for the same reason
    /// ([`Graph::row_ids_copied`](bgpq_graph::Graph::row_ids_copied)): a
    /// shared row's buffer or one chunk of a hub's chunked row per edit.
    /// All four counts follow `|ΔG|`, not `|G|`.
    pub row_ids_copied: u64,
}

/// Writer-side lifetime counters of a [`Server`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// The epoch of the current snapshot.
    pub epoch: u64,
    /// Successful commits (equals the epoch unless the server was created
    /// from a non-zero snapshot).
    pub commits: u64,
    /// Low-level deltas applied across all commits.
    pub deltas_applied: u64,
    /// Distinct `ΔG` nodes inspected by maintenance across all commits.
    pub nodes_touched: u64,
    /// `(constraint, node)` contributions recomputed across all commits.
    pub contributions_refreshed: u64,
    /// Total nanoseconds spent in incremental index maintenance.
    pub delta_apply_nanos: u64,
    /// Total nanoseconds spent in whole commits (clone + replay +
    /// maintenance + publish + retire).
    pub commit_nanos: u64,
    /// Total nanoseconds cloning base snapshots
    /// ([`CommitReceipt::clone_nanos`]).
    pub clone_nanos: u64,
    /// Total nanoseconds replaying update batches.
    pub replay_nanos: u64,
    /// Total nanoseconds the snapshot pointer's write lock was held.
    pub publish_nanos: u64,
    /// Total nanoseconds retiring superseded snapshots.
    pub retire_nanos: u64,
    /// Graph storage pages copied on write across all commits.
    pub pages_copied: u64,
    /// Index pages copied on write across all commits.
    pub shards_copied: u64,
    /// Label-bucket chunks copied on write across all commits.
    pub chunks_copied: u64,
    /// Adjacency-row ids copied on write across all commits.
    pub row_ids_copied: u64,
}

/// A multi-threaded serving frontend over one logical graph.
///
/// The server owns an epoch-versioned chain of [`Snapshot`]s, of which it
/// retains the newest; older snapshots stay alive exactly as long as some
/// reader still pins them (readers hold an `Arc`). The concurrency contract:
///
/// * **Readers never wait for the writer's work.** [`Server::snapshot`]
///   clones an `Arc` under a read lock held for nanoseconds; the writer's
///   copy-on-write mutation and index maintenance happen entirely outside
///   that lock, which it takes only for the final pointer swap.
/// * **Writes are serialized and atomic.** One internal writer lock orders
///   [`Server::commit`] calls; a failing update (missing endpoint, deleted
///   node) aborts the whole batch with no published change.
/// * **A commit costs `O(|ΔG|)`, not `O(|G|)`.** Graph and index storage
///   are structurally shared between snapshots: a commit clones the current
///   graph and indices (reference-count bumps, one per group of 64 storage
///   pages and per constraint), applies the batch as graph mutations, and
///   repairs the clone's indices with [`apply_deltas_shared`], the global
///   and unary ones taking the new graph's own `Arc` (one graph clone per
///   commit).
///   Each write copies only the page, short adjacency row, chunk of a hub's
///   row or of a label bucket, or index page it lands in
///   ([`CommitReceipt::pages_copied`], [`CommitReceipt::row_ids_copied`],
///   [`CommitReceipt::chunks_copied`], [`CommitReceipt::shards_copied`])
///   plus its group of 64 pointers — none for the last page or chunk,
///   where appends land; everything else stays shared with the
///   snapshots readers still pin, and dropping a superseded snapshot —
///   after the pointer swap, outside its lock — frees only what its
///   successor replaced. A global or unary index is the graph's label
///   bucket or rows and copies nothing of its own. An `|S| ≥ 2` index is a
///   pair of arrays over node ids, so a batch's new nodes, whose ids are
///   consecutive, write one page of each; an entry's key and answers are
///   two shared id lists, so a page copy bumps their reference counts and
///   an edit rebuilds the one answer list it changes. What still follows
///   `|G|`: `|V| / 16 384` reference counts per per-node array on the
///   clone and again on the retire (184 each at 3.0M nodes), one per 64
///   pages of each array of a touched index, and a hub row's top level,
///   one pointer per 64 of its chunks.
/// * **Caches stay correct across epochs.** All snapshot engines share one
///   [`SharedResources`]: one query cache, whose entry per query holds its
///   plan and fetched candidate sets, and one pool of scratch arenas. Cache
///   slots are keyed by snapshot version, so a commit that changes index
///   coverage or graph content makes every affected plan (and unbounded
///   verdict) and every cached candidate set re-derive at the new version —
///   retiring the superseded entries, the commit-piggybacked invalidation —
///   while readers pinned to old snapshots keep their own cache population
///   instead of fighting the current readers for slots. The arenas carry no version: the buffers
///   one version's queries grew serve the next version's, and a pinned-old
///   reader racing a current one still gets an arena of its own.
///
/// ```
/// use bgpq_engine::{AccessConstraint, AccessSchema, Value};
/// use bgpq_graph::GraphBuilder;
/// use bgpq_serve::Server;
///
/// let mut b = GraphBuilder::new();
/// let y = b.add_node("year", Value::Int(2012));
/// let m = b.add_node("movie", Value::str("Argo"));
/// b.add_edge(y, m).unwrap();
/// let graph = b.build();
/// let year = graph.interner().get("year").unwrap();
/// let schema = AccessSchema::from_constraints([AccessConstraint::global(year, 10)]);
///
/// let server = Server::new(graph, &schema);
/// // Readers pin a snapshot once and keep it for as long as they like.
/// let pinned = server.snapshot();
/// assert_eq!(pinned.version(), 0);
/// assert_eq!(server.version(), 0);
/// ```
pub struct Server {
    current: RwLock<Arc<Snapshot>>,
    /// Handed to the engine of every version the server publishes.
    shared: SharedResources,
    /// Serializes writers; held across the whole copy-on-write commit.
    writer: Mutex<()>,
    commits: AtomicU64,
    commit_nanos: AtomicU64,
    deltas_applied: AtomicU64,
    nodes_touched: AtomicU64,
    contributions_refreshed: AtomicU64,
    delta_apply_nanos: AtomicU64,
    clone_nanos: AtomicU64,
    replay_nanos: AtomicU64,
    publish_nanos: AtomicU64,
    retire_nanos: AtomicU64,
    pages_copied: AtomicU64,
    shards_copied: AtomicU64,
    chunks_copied: AtomicU64,
    row_ids_copied: AtomicU64,
}

impl Server {
    /// Creates a server for `graph` under `schema`, building the version-0
    /// snapshot's indices (the one-off setup cost; every later version is
    /// maintained incrementally).
    pub fn new(graph: Graph, schema: &AccessSchema) -> Self {
        let indices = AccessIndexSet::build(&graph, schema);
        Self::with_indices(graph, indices)
    }

    /// Creates a server from pre-built indices.
    pub fn with_indices(graph: Graph, indices: AccessIndexSet) -> Self {
        let shared = SharedResources::default();
        let engine = Engine::with_shared_at_version(graph, indices, 0, shared.clone());
        Server {
            current: RwLock::new(Arc::new(Snapshot::new(engine))),
            shared,
            writer: Mutex::new(()),
            commits: AtomicU64::new(0),
            commit_nanos: AtomicU64::new(0),
            deltas_applied: AtomicU64::new(0),
            nodes_touched: AtomicU64::new(0),
            contributions_refreshed: AtomicU64::new(0),
            delta_apply_nanos: AtomicU64::new(0),
            clone_nanos: AtomicU64::new(0),
            replay_nanos: AtomicU64::new(0),
            publish_nanos: AtomicU64::new(0),
            retire_nanos: AtomicU64::new(0),
            pages_copied: AtomicU64::new(0),
            shards_copied: AtomicU64::new(0),
            chunks_copied: AtomicU64::new(0),
            row_ids_copied: AtomicU64::new(0),
        }
    }

    /// Creates a server from a loaded snapshot bundle (`bgpq compile`
    /// output): graph, schema and indices arrive fully built, so version 0
    /// starts serving without any discovery or index-construction cost.
    pub fn from_snapshot(bundle: bgpq_engine::SnapshotBundle) -> Self {
        Self::with_indices(bundle.graph, bundle.indices)
    }

    /// Pins the current snapshot. The returned `Arc` keeps that version
    /// alive (graph, indices and engine) for as long as the reader holds it,
    /// no matter how many commits land in the meantime.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// The epoch of the current snapshot.
    pub fn version(&self) -> u64 {
        self.snapshot().version()
    }

    /// Executes one request against the current snapshot (pin + execute).
    /// Callers issuing several requests that must observe the *same* version
    /// should pin a [`Server::snapshot`] once and execute on it directly.
    pub fn execute(&self, request: &QueryRequest) -> Result<QueryResponse, BgpqError> {
        self.snapshot().execute(request)
    }

    /// Applies a batch of updates atomically, publishing the next snapshot.
    ///
    /// The commit runs entirely on a private copy-on-write clone of the
    /// current graph and indices: replay the updates as graph mutations
    /// (collecting the equivalent [`GraphDelta`]s — a node removal expands
    /// to its incident edge deletions first, so maintenance sees the full
    /// `ΔG`), repair the indices incrementally, build the next engine and
    /// swap the snapshot pointer. Readers keep executing against their pinned versions
    /// throughout; an error leaves the served state untouched.
    ///
    /// ```
    /// use bgpq_engine::{AccessConstraint, AccessSchema, NodeId, Value};
    /// use bgpq_graph::GraphBuilder;
    /// use bgpq_serve::{Server, Update};
    ///
    /// let mut b = GraphBuilder::new();
    /// let y = b.add_node("year", Value::Int(2012));
    /// b.add_node("movie", Value::str("Argo"));
    /// let graph = b.build();
    /// let year = graph.interner().get("year").unwrap();
    /// let schema = AccessSchema::from_constraints([AccessConstraint::global(year, 10)]);
    /// let server = Server::new(graph, &schema);
    ///
    /// // A reader pins version 0; the writer publishes version 1.
    /// let pinned = server.snapshot();
    /// let receipt = server
    ///     .commit(&[
    ///         Update::AddNode { label: "movie".into(), value: Value::str("Gravity") },
    ///         Update::AddEdge { src: NodeId(0), dst: NodeId(2) },
    ///     ])
    ///     .unwrap();
    /// assert_eq!(receipt.version, 1);
    /// assert_eq!(receipt.new_nodes, vec![NodeId(2)]);
    /// assert_eq!(receipt.deltas, 2);
    ///
    /// // The pinned snapshot still sees the old graph; the server the new.
    /// assert_eq!(pinned.graph().node_count(), 2);
    /// assert_eq!(server.snapshot().graph().node_count(), 3);
    /// ```
    pub fn commit(&self, updates: &[Update]) -> Result<CommitReceipt, BgpqError> {
        // Neither lock guards state a panic can tear — one guards `()`, the
        // other a single pointer store — so a commit that panicked poisons
        // nothing the next one needs: its private clone died with it.
        let _writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let commit_started = Instant::now();
        let base = self.snapshot();
        let mut graph = base.graph().clone();
        let mut indices = base.indices().clone();
        let clone_nanos = commit_started.elapsed().as_nanos() as u64;

        let started = Instant::now();
        let mut deltas: Vec<GraphDelta> = Vec::with_capacity(updates.len());
        let mut new_nodes = Vec::new();
        for update in updates {
            match update {
                Update::AddNode { label, value } => {
                    let id = graph.insert_node(label, value.clone());
                    new_nodes.push(id);
                    deltas.push(GraphDelta::InsertNode(id));
                }
                Update::AddEdge { src, dst } => {
                    if graph.insert_edge(*src, *dst)? {
                        deltas.push(GraphDelta::InsertEdge(*src, *dst));
                    }
                }
                Update::RemoveEdge { src, dst } => {
                    if graph.delete_edge(*src, *dst)? {
                        deltas.push(GraphDelta::DeleteEdge(*src, *dst));
                    }
                }
                Update::RemoveNode { node } => {
                    for edge in graph.delete_node(*node)? {
                        deltas.push(GraphDelta::DeleteEdge(edge.src, edge.dst));
                    }
                    deltas.push(GraphDelta::DeleteNode(*node));
                }
            }
        }

        let replay_nanos = started.elapsed().as_nanos() as u64;

        let started = Instant::now();
        let graph = Arc::new(graph);
        let maintenance = apply_deltas_shared(&mut indices, &graph, &deltas);
        let delta_apply_nanos = started.elapsed().as_nanos() as u64;
        let pages_copied = graph.pages_copied() - base.graph().pages_copied();
        let shards_copied = indices.shards_copied() - base.indices().shards_copied();
        let chunks_copied = graph.chunks_copied() - base.graph().chunks_copied();
        let row_ids_copied = graph.row_ids_copied() - base.graph().row_ids_copied();

        let version = base.version() + 1;
        let engine = Engine::with_shared_at_version(graph, indices, version, self.shared.clone());
        let next = Arc::new(Snapshot::new(engine));

        // Swap under the lock, tear down outside it: readers wait for a
        // pointer store, never for the superseded snapshot's teardown.
        let started = Instant::now();
        let retired = {
            let mut current = self.current.write().unwrap_or_else(PoisonError::into_inner);
            std::mem::replace(&mut *current, next)
        };
        let publish_nanos = started.elapsed().as_nanos() as u64;

        let started = Instant::now();
        drop(base);
        drop(retired);
        let retire_nanos = started.elapsed().as_nanos() as u64;
        let commit_nanos = commit_started.elapsed().as_nanos() as u64;

        for (total, amount) in [
            (&self.commits, 1),
            (&self.deltas_applied, deltas.len() as u64),
            (&self.nodes_touched, maintenance.touched_nodes as u64),
            (
                &self.contributions_refreshed,
                maintenance.refreshed_contributions as u64,
            ),
            (&self.delta_apply_nanos, delta_apply_nanos),
            (&self.commit_nanos, commit_nanos),
            (&self.clone_nanos, clone_nanos),
            (&self.replay_nanos, replay_nanos),
            (&self.publish_nanos, publish_nanos),
            (&self.retire_nanos, retire_nanos),
            (&self.pages_copied, pages_copied),
            (&self.shards_copied, shards_copied),
            (&self.chunks_copied, chunks_copied),
            (&self.row_ids_copied, row_ids_copied),
        ] {
            total.fetch_add(amount, Ordering::Relaxed);
        }

        Ok(CommitReceipt {
            version,
            new_nodes,
            deltas: deltas.len(),
            maintenance,
            delta_apply_nanos,
            commit_nanos,
            clone_nanos,
            replay_nanos,
            publish_nanos,
            retire_nanos,
            pages_copied,
            shards_copied,
            chunks_copied,
            row_ids_copied,
        })
    }

    /// Writer-side lifetime counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            epoch: self.version(),
            commits: self.commits.load(Ordering::Relaxed),
            deltas_applied: self.deltas_applied.load(Ordering::Relaxed),
            nodes_touched: self.nodes_touched.load(Ordering::Relaxed),
            contributions_refreshed: self.contributions_refreshed.load(Ordering::Relaxed),
            delta_apply_nanos: self.delta_apply_nanos.load(Ordering::Relaxed),
            commit_nanos: self.commit_nanos.load(Ordering::Relaxed),
            clone_nanos: self.clone_nanos.load(Ordering::Relaxed),
            replay_nanos: self.replay_nanos.load(Ordering::Relaxed),
            publish_nanos: self.publish_nanos.load(Ordering::Relaxed),
            retire_nanos: self.retire_nanos.load(Ordering::Relaxed),
            pages_copied: self.pages_copied.load(Ordering::Relaxed),
            shards_copied: self.shards_copied.load(Ordering::Relaxed),
            chunks_copied: self.chunks_copied.load(Ordering::Relaxed),
            row_ids_copied: self.row_ids_copied.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("snapshot", &*self.snapshot())
            .field("commits", &self.commits.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpq_access::AccessConstraint;
    use bgpq_engine::{StrategyKind, SubgraphMatcher};
    use bgpq_graph::GraphBuilder;
    use bgpq_pattern::{PatternBuilder, Predicate};

    /// year → movie → actor star with one extra disconnected year.
    fn fixture() -> (Graph, AccessSchema) {
        let mut b = GraphBuilder::new();
        let y = b.add_node("year", Value::Int(2012));
        let m = b.add_node("movie", Value::str("Argo"));
        let a = b.add_node("actor", Value::str("Affleck"));
        b.add_node("year", Value::Int(1999));
        b.add_edge(y, m).unwrap();
        b.add_edge(m, a).unwrap();
        let g = b.build();
        let l = |name: &str| g.interner().get(name).unwrap();
        let schema = AccessSchema::from_constraints([
            AccessConstraint::global(l("year"), 10),
            AccessConstraint::unary(l("year"), l("movie"), 5),
            AccessConstraint::unary(l("movie"), l("actor"), 5),
        ]);
        (g, schema)
    }

    fn year_movie_actor_query(graph: &Graph, year: i64) -> QueryRequest {
        let mut pb = PatternBuilder::with_interner(graph.interner().clone());
        let m = pb.node("movie", Predicate::always());
        let y = pb.node("year", Predicate::single(bgpq_pattern::Op::Eq, year));
        let a = pb.node("actor", Predicate::always());
        pb.edge(y, m);
        pb.edge(m, a);
        QueryRequest::build(pb.build()).finish()
    }

    #[test]
    fn server_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Server>();
        assert_send_sync::<Arc<Snapshot>>();
    }

    #[test]
    fn commit_publishes_new_version_and_answers_change() {
        let (g, schema) = fixture();
        let server = Server::new(g, &schema);
        assert_eq!(server.version(), 0);

        let request = year_movie_actor_query(server.snapshot().graph(), 2012);
        let before = server.execute(&request).unwrap();
        assert_eq!(before.answer.len(), 1);
        assert_eq!(before.stats.snapshot_version, 0);

        // Attach a second movie+actor to the 2012 year node.
        let base = server.snapshot();
        let next_id = base.graph().node_count() as u32;
        let receipt = server
            .commit(&[
                Update::AddNode {
                    label: "movie".into(),
                    value: Value::str("Gravity"),
                },
                Update::AddNode {
                    label: "actor".into(),
                    value: Value::str("Bullock"),
                },
                Update::AddEdge {
                    src: NodeId(0),
                    dst: NodeId(next_id),
                },
                Update::AddEdge {
                    src: NodeId(next_id),
                    dst: NodeId(next_id + 1),
                },
            ])
            .unwrap();
        assert_eq!(receipt.version, 1);
        assert_eq!(receipt.new_nodes, vec![NodeId(4), NodeId(5)]);
        assert_eq!(receipt.deltas, 4);
        assert!(receipt.maintenance.refreshed_contributions > 0);

        // The pinned old snapshot still sees the old answer...
        let old = base.execute(&request).unwrap();
        assert_eq!(old.answer.len(), 1);
        // ...while the current snapshot sees the new one, via the bounded
        // strategy backed by incrementally maintained indices.
        let after = server
            .execute(
                &QueryRequest::build(request.pattern().clone())
                    .strategy(StrategyKind::Bounded)
                    .finish(),
            )
            .unwrap();
        assert_eq!(after.answer.len(), 2);
        assert_eq!(after.stats.snapshot_version, 1);

        // The maintained answer agrees with a direct whole-graph match.
        let snapshot = server.snapshot();
        let direct = SubgraphMatcher::new(request.pattern(), snapshot.graph()).find_all();
        assert_eq!(after.answer.as_matches(), Some(&direct));
    }

    #[test]
    fn the_receipt_accounts_for_the_commit_phase_by_phase() {
        let (g, schema) = fixture();
        let server = Server::new(g, &schema);
        let add_movie = [Update::AddNode {
            label: "movie".into(),
            value: Value::Null,
        }];
        let pinned = server.snapshot();
        let first = server.commit(&add_movie).unwrap();
        let second = server.commit(&add_movie).unwrap();
        for receipt in [&first, &second] {
            let phases = receipt.clone_nanos
                + receipt.replay_nanos
                + receipt.delta_apply_nanos
                + receipt.publish_nanos
                + receipt.retire_nanos;
            assert!(phases > 0 && phases <= receipt.commit_nanos);
            assert_eq!(receipt.chunks_copied, 1, "the movie bucket's one chunk");
        }
        // The pinned version 0 outlives both retires, untouched.
        assert_eq!((pinned.version(), pinned.graph().node_count()), (0, 4));
        let stats = server.stats();
        assert_eq!(stats.chunks_copied, 2);
        assert_eq!(stats.retire_nanos, first.retire_nanos + second.retire_nanos);
        assert_eq!(stats.clone_nanos, first.clone_nanos + second.clone_nanos);
        assert_eq!(stats.commit_nanos, first.commit_nanos + second.commit_nanos);
    }

    /// A thread that panics while holding the writer lock (a commit dying
    /// mid-maintenance) or the snapshot pointer poisons both; the server
    /// still commits, and readers see the next version.
    #[test]
    fn a_panic_under_either_lock_leaves_the_server_serving() {
        let (g, schema) = fixture();
        let server = Server::new(g, &schema);
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                let _held = server.writer.lock();
                panic!("a commit panics while it holds the writer lock");
            });
            assert!(writer.join().is_err());
            let swapper = s.spawn(|| {
                let _held = server.current.write();
                panic!("a panic while the snapshot pointer is held");
            });
            assert!(swapper.join().is_err());
        });
        assert!(server.writer.is_poisoned() && server.current.is_poisoned());

        let receipt = server
            .commit(&[Update::AddNode {
                label: "year".into(),
                value: Value::Int(2020),
            }])
            .unwrap();
        assert_eq!((receipt.version, server.version()), (1, 1));
        let request = year_movie_actor_query(server.snapshot().graph(), 2012);
        let response = server.execute(&request).unwrap();
        assert_eq!(response.answer.len(), 1);
        assert_eq!(response.stats.snapshot_version, 1);
        assert_eq!(server.commit(&[]).unwrap().version, 2);
    }

    #[test]
    fn failed_commit_leaves_state_untouched() {
        let (g, schema) = fixture();
        let server = Server::new(g, &schema);
        let before_edges = server.snapshot().graph().edge_count();
        let err = server.commit(&[Update::AddEdge {
            src: NodeId(0),
            dst: NodeId(99),
        }]);
        assert!(err.is_err());
        assert_eq!(server.version(), 0);
        assert_eq!(server.snapshot().graph().edge_count(), before_edges);
        assert_eq!(server.stats().commits, 0);
    }

    #[test]
    fn node_removal_expands_to_edge_deltas() {
        let (g, schema) = fixture();
        let server = Server::new(g, &schema);
        let receipt = server
            .commit(&[Update::RemoveNode { node: NodeId(1) }])
            .unwrap();
        // movie1 had 2 incident edges: 2 DeleteEdge + 1 DeleteNode.
        assert_eq!(receipt.deltas, 3);
        let snapshot = server.snapshot();
        assert!(!snapshot.graph().is_live(NodeId(1)));
        assert_eq!(snapshot.graph().edge_count(), 0);
        // The maintained indices equal a fresh build on the mutated graph.
        let rebuilt = AccessIndexSet::build(snapshot.graph(), snapshot.indices().schema());
        for (id, fresh) in rebuilt.iter() {
            let kept = snapshot.indices().get(id).unwrap();
            assert_eq!(kept.key_count(), fresh.key_count());
            assert_eq!(kept.size(), fresh.size());
        }
    }

    #[test]
    fn version_bump_invalidates_shared_fragment_cache() {
        let (g, schema) = fixture();
        let server = Server::new(g, &schema);
        let request = year_movie_actor_query(server.snapshot().graph(), 2012);

        server.execute(&request).unwrap(); // miss, fragment cached at v0
        server.execute(&request).unwrap(); // hit
        assert_eq!(server.snapshot().engine().stats().fragment_cache_hits, 1);

        // Attach a second movie+actor to the 2012 year node: the cached v0
        // fragment no longer describes the graph.
        let next = server.snapshot().graph().node_count() as u32;
        server
            .commit(&[
                Update::AddNode {
                    label: "movie".into(),
                    value: Value::str("Gravity"),
                },
                Update::AddNode {
                    label: "actor".into(),
                    value: Value::str("Bullock"),
                },
                Update::AddEdge {
                    src: NodeId(0),
                    dst: NodeId(next),
                },
                Update::AddEdge {
                    src: NodeId(next),
                    dst: NodeId(next + 1),
                },
            ])
            .unwrap();

        // The v1 probe misses (stale fragments are invisible), re-fetches,
        // and the answer reflects the committed change — never the cache.
        let after = server.execute(&request).unwrap();
        assert_eq!(after.answer.len(), 2);
        assert_eq!(after.stats.snapshot_version, 1);
        let stats = server.snapshot().engine().stats();
        assert_eq!(
            stats.fragment_cache_invalidations, 1,
            "the v0 fragment must be retired by the v1 re-fetch"
        );
        // And the re-fetched v1 fragment serves hits again.
        let again = server.execute(&request).unwrap();
        assert_eq!(again.answer.len(), 2);
        assert_eq!(server.snapshot().engine().stats().fragment_cache_hits, 2);
    }

    /// A reader pinned before a commit keeps answering from its own
    /// version's fragments while the current snapshot re-fetches: the two
    /// cache populations coexist, and neither sees the other's data.
    #[test]
    fn pinned_reader_keeps_stale_fragments_without_polluting_current() {
        let (g, schema) = fixture();
        let server = Server::new(g, &schema);
        let request = year_movie_actor_query(server.snapshot().graph(), 2012);

        let pinned = server.snapshot();
        pinned.execute(&request).unwrap(); // fragment cached at v0
        let next = server.snapshot().graph().node_count() as u32;
        server
            .commit(&[
                Update::AddNode {
                    label: "movie".into(),
                    value: Value::str("Gravity"),
                },
                Update::AddEdge {
                    src: NodeId(0),
                    dst: NodeId(next),
                },
            ])
            .unwrap();

        // The pinned reader's repeat is a hit on the v0 fragment and still
        // sees the old answer; the current snapshot computes the new one.
        let old = pinned.execute(&request).unwrap();
        assert_eq!(old.answer.len(), 1);
        assert_eq!(old.stats.snapshot_version, 0);
        let new = server.execute(&request).unwrap();
        assert_eq!(new.stats.snapshot_version, 1);
        // Gravity has no actor yet, so the answer is still the Argo match —
        // but it must come from a fresh v1 fetch, not the stale fragment.
        assert_eq!(new.answer.len(), 1);
        assert_ne!(
            new.stats.fragment_cache,
            Some(bgpq_engine::CacheOutcome::Hit),
            "v1 must not be served the v0 fragment"
        );
    }

    /// The satellite regression at the serving level: after N commits, the
    /// current version's repeated queries must keep hitting the fragment
    /// cache — stale-version leftovers are evicted first, so version churn
    /// cannot collapse the current working set's hit rate.
    #[test]
    fn current_version_fragment_hit_rate_survives_commits() {
        let (g, schema) = fixture();
        let server = Server::new(g, &schema);
        let request = year_movie_actor_query(server.snapshot().graph(), 2012);
        for _ in 0..5 {
            // Warm the fragment at the current version, then commit.
            server.execute(&request).unwrap();
            server
                .commit(&[Update::AddNode {
                    label: "year".into(),
                    value: Value::Int(1900),
                }])
                .unwrap();
        }
        // At the final version: one warming miss, then only hits.
        server.execute(&request).unwrap();
        let stats_before = server.snapshot().engine().stats();
        for _ in 0..3 {
            let r = server.execute(&request).unwrap();
            assert_eq!(r.stats.fragment_cache, Some(bgpq_engine::CacheOutcome::Hit));
        }
        let stats = server.snapshot().engine().stats();
        assert_eq!(
            stats.fragment_cache_hits,
            stats_before.fragment_cache_hits + 3
        );
        assert_eq!(
            stats.fragment_cache_invalidations, 5,
            "each commit's re-fetch retires exactly the superseded fragment"
        );
    }

    #[test]
    fn version_bump_invalidates_shared_plan_cache() {
        let (g, schema) = fixture();
        let server = Server::new(g, &schema);
        let request = year_movie_actor_query(server.snapshot().graph(), 2012);

        server.execute(&request).unwrap(); // miss, cached at v0
        server.execute(&request).unwrap(); // hit
        assert_eq!(server.snapshot().engine().stats().plan_cache_hits, 1);

        server
            .commit(&[Update::AddNode {
                label: "year".into(),
                value: Value::Int(2020),
            }])
            .unwrap();
        let response = server.execute(&request).unwrap();
        assert_eq!(response.answer.len(), 1);
        let stats = server.snapshot().engine().stats();
        assert_eq!(stats.snapshot_version, 1);
        assert_eq!(
            stats.plan_cache_invalidations, 1,
            "the v0 plan must be dropped on the v1 probe"
        );
    }
}
