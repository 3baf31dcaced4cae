//! One immutable, versioned view of the served graph.

use bgpq_access::AccessIndexSet;
use bgpq_engine::{BgpqError, Engine, QueryRequest, QueryResponse};
use bgpq_graph::Graph;

/// One version of the served graph: the graph as of an epoch, the
/// access-constraint indices maintained up to that epoch, and an
/// [`Engine`] pinned to it.
///
/// Snapshots are immutable and shared behind `Arc`: a reader that pinned one
/// keeps evaluating against a consistent graph/index pair even while the
/// writer publishes newer versions. Successive snapshots share storage —
/// graph pages, adjacency rows, label-bucket chunks, whole constraint indices and
/// the pages inside them — and differ only in what a commit wrote, so
/// keeping an old version pinned costs the memory of its differences, and
/// dropping it frees exactly those. The engine's query cache is shared
/// across the whole snapshot chain and validated per version, so pinning an
/// old snapshot can never observe a newer version's plans or fragments.
pub struct Snapshot {
    engine: Engine,
}

impl Snapshot {
    /// Wraps an engine built for one snapshot version
    /// (see [`Engine::with_shared_at_version`]).
    pub(crate) fn new(engine: Engine) -> Self {
        Snapshot { engine }
    }

    /// The epoch of this snapshot (monotonically increasing across commits).
    pub fn version(&self) -> u64 {
        self.engine.version()
    }

    /// The graph as of this snapshot.
    pub fn graph(&self) -> &Graph {
        self.engine.graph()
    }

    /// The incrementally maintained indices as of this snapshot.
    pub fn indices(&self) -> &AccessIndexSet {
        self.engine.indices()
    }

    /// The engine serving this snapshot.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Executes one request against this snapshot.
    pub fn execute(&self, request: &QueryRequest) -> Result<QueryResponse, BgpqError> {
        self.engine.execute(request)
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("version", &self.version())
            .field("nodes", &self.graph().node_count())
            .field("edges", &self.graph().edge_count())
            .finish()
    }
}
