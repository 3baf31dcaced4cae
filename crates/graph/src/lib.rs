//! # bgpq-graph
//!
//! Data-graph substrate for the `bgpq` workspace, a reproduction of
//! *"Making Pattern Queries Bounded in Big Graphs"* (Cao, Fan, Huai, Huang,
//! ICDE 2015).
//!
//! The paper models a data graph as a node-labeled directed graph
//! `G = (V, E, f, ν)` where every node `v` carries a label `f(v)` drawn from
//! a finite alphabet `Σ` and an attribute value `ν(v)` interpreted under that
//! label (e.g. `year = 2011`). This crate provides:
//!
//! * [`Label`] / [`LabelInterner`] — interned labels so that the rest of the
//!   workspace works with cheap `u32` identifiers instead of strings;
//! * [`Value`] — attribute values with a total order, used by pattern
//!   predicates;
//! * [`Graph`] and [`GraphBuilder`] — the graph storage with out/in adjacency
//!   rows sorted by `(neighbour label, id)` (so a node's neighbours of one
//!   label, the answer of a unary access constraint, are one segment per
//!   direction: [`Graph::neighbors_labeled`]), per-label node indexes and
//!   neighbor queries, held in structurally shared pages so a clone is cheap
//!   and a mutation copies only what it touches (a page of 256 adjacency
//!   rows is their bounds and one buffer of ids, a row of [`HUB_ROW`] ids
//!   or more chunked beside it; common neighbours of `|S| ≥ 2` nodes are
//!   answered by the access indices of `bgpq-access`);
//! * [`Spine`] — the two-level copy-on-write vector all of that sharing
//!   (and the access indices' in `bgpq-access`) is built on; [`PagedVec`] —
//!   the per-node array on top of it, under the graph's labels and values
//!   and the access indices; [`Row`] — the sorted id list the access
//!   indices store their keys and answer lists in, by value, held in
//!   chunks of [`CHUNK_TARGET`] ids past one chunk's worth, the same
//!   chunked list as a label bucket and a hub's row; and [`Ids`] — the
//!   borrowed handle every row and bucket is read through;
//! * [`Subgraph`] — an explicit node + edge set of `G`, materializable into
//!   a standalone graph: the slow, obviously-correct test oracle that
//!   [`FragmentView`] and the bounded executors are checked against;
//! * [`view`] — zero-copy fragment execution: the [`GraphAccess`] trait the
//!   matchers are generic over, and [`FragmentView`], a borrow of `G` plus a
//!   fragment's node set that the bounded executors match on directly
//!   (adjacency built once into a reusable [`ScratchArena`]);
//! * [`stats`] — degree / label-frequency statistics used when discovering
//!   access constraints;
//! * [`io`] — dataset ingestion: a plain-text interchange format, plain
//!   edge lists (SNAP-style) and a JSON-lines node+edge format, all with
//!   line-numbered diagnostics — plus [`io::snapshot`], a versioned binary
//!   container whose sections bulk-load into the in-memory representation
//!   (checksummed, with typed section-named errors).
//!
//! Everything here is deliberately free of any pattern-matching or
//! access-constraint logic: those live in `bgpq-pattern`, `bgpq-access`,
//! `bgpq-matching` and `bgpq-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adjacency;
pub mod builder;
mod chunked;
pub mod error;
pub mod graph;
pub mod io;
pub mod label;
pub mod label_index;
mod paged;
pub mod pool;
pub mod row;
pub mod spine;
pub mod stats;
pub mod subgraph;
pub mod value;
pub mod view;

pub use adjacency::{HUB_ROW, PAGE_IDS};
pub use builder::GraphBuilder;
pub use chunked::{Ids, CHUNK_TARGET};
pub use error::GraphError;
pub use graph::{EdgeId, Graph, Merge, NeighborRuns, Neighbors, NodeId};
pub use io::snapshot::SnapshotError;
pub use label::{Label, LabelInterner};
pub use label_index::{LabelIndex, LabelNodes};
pub use paged::{PagedVec, PAGE_SIZE};
pub use pool::ArenaPool;
pub use row::{Row, INLINE_ROW};
pub use spine::{Spine, SpineShape, SPINE_FANOUT};
pub use stats::GraphStats;
pub use subgraph::Subgraph;
pub use value::Value;
pub use view::{FragmentView, GraphAccess, ScratchArena};

/// Convenient `Result` alias used across the graph substrate.
pub type Result<T> = std::result::Result<T, GraphError>;
