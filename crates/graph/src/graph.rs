//! The node-labeled directed data graph `G = (V, E, f, ν)`.
//!
//! [`Graph`] is an immutable-after-construction graph optimized for the kinds
//! of accesses the bounded-evaluation machinery performs:
//!
//! * neighbor and label lookups in O(degree);
//! * **neighbours by label in O(log degree)**: every adjacency row is sorted
//!   by `(neighbour label, id)`, so the `l'`-labelled neighbours of a node —
//!   the answer a unary access constraint `l → (l', N)` asks for — are one
//!   contiguous segment of its out-row plus one of its in-row
//!   ([`Graph::neighbors_labeled`]). The graph *is* the unary index;
//!   `bgpq-access` keeps no copy of it;
//! * `has_edge` in O(log degree) (a binary search on the `(label, id)` key);
//! * enumeration of all nodes carrying a given label (via the embedded
//!   [`LabelIndex`]);
//! * [`GraphStats`] of each version, computed once ([`Graph::stats`]).
//!
//! Construction goes through [`crate::GraphBuilder`], which performs the
//! necessary sorting and deduplication once. For serving scenarios the graph
//! additionally supports **in-place mutation** ([`Graph::insert_node`],
//! [`Graph::insert_edge`], [`Graph::delete_edge`], [`Graph::delete_node`])
//! that keeps the adjacency rows in `(label, id)` order and the embedded
//! [`LabelIndex`] in sync, so access-constraint indices can be maintained
//! incrementally against the mutated graph instead of rebuilt.
//!
//! **Storage is structurally shared**, all of it on one mechanism: the
//! two-level copy-on-write [`crate::Spine`]. The four per-node arrays
//! (labels, values, out- and in-adjacency) are paged vectors
//! ([`crate::PAGE_SIZE`] nodes per page, [`crate::SPINE_FANOUT`] pages per
//! group, the last page apart), an adjacency row ([`Row`]) lives inside its
//! page up to a few neighbours, behind its own `Arc<[NodeId]>` up to one
//! chunk's worth, and in chunks of [`crate::CHUNK_TARGET`] ids past that
//! (a hub), label buckets are the same chunked lists, and the label
//! alphabet sits behind one `Arc`. [`Graph::clone`] therefore bumps `|V| /
//! 16 384` reference counts per array ([`Graph::spines`] counts them: 184
//! each at 3.0M nodes — a 64th of a count per page, not a constant), and a
//! mutation of the clone copies only the pages, short rows and chunks it
//! lands in plus their groups of 64 pointers (none for an array's last
//! page or a list's last chunk, where appends land) — nothing sized by
//! `|G|`, a hub's row included ([`Graph::row_ids_copied`] counts the row
//! ids copied) — which is what lets a serving commit keep the previous
//! snapshot alive for its readers at `O(|ΔG|)` cost. Rows are read through
//! the borrowed [`Ids`] handle, piece by piece; nothing on the query path
//! flattens a chunked row. The price is on the read side: `label()`,
//! `value()` and the neighbour accessors follow one more pointer than a
//! flat page table would, through a top level of at most a few dozen
//! entries.

use crate::chunked::Ids;
use crate::error::GraphError;
use crate::label::{Label, LabelInterner};
use crate::label_index::{LabelIndex, LabelNodes};
use crate::paged::PagedVec;
use crate::row::Row;
use crate::spine::SpineShape;
use crate::stats::GraphStats;
use crate::value::Value;
use crate::Result;
use std::cmp::Ordering;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Sentinel label carried by deleted node slots. It is never interned, so it
/// compares unequal to every real label and [`LabelIndex`] lookups for it
/// return the empty list.
pub(crate) const TOMBSTONE: Label = Label(u32::MAX);

/// Identifier of a node in a [`Graph`]; contiguous from `0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the node id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Identifier of a directed edge `(src, dst)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId {
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
}

impl EdgeId {
    /// Creates an edge id from its endpoints.
    pub fn new(src: NodeId, dst: NodeId) -> Self {
        EdgeId { src, dst }
    }
}

/// A node-labeled directed data graph.
///
/// The size of the graph, written `|G|` in the paper, is the number of nodes
/// plus the number of edges ([`Graph::size`]).
#[derive(Debug, Clone)]
pub struct Graph {
    pub(crate) interner: LabelInterner,
    pub(crate) labels: PagedVec<Label>,
    pub(crate) values: PagedVec<Value>,
    /// Out-adjacency per node, sorted by `(label, id)`.
    pub(crate) out: PagedVec<Row>,
    /// In-adjacency per node, sorted by `(label, id)`.
    pub(crate) inc: PagedVec<Row>,
    pub(crate) edge_count: usize,
    pub(crate) label_index: LabelIndex,
    /// Number of deleted (tombstoned) node slots; node ids stay contiguous
    /// so deletion marks the slot instead of shifting ids.
    pub(crate) dead_count: usize,
    /// Row ids copied because an edit found their buffer or chunk still
    /// shared with another clone; inherited by clones, like the spines'
    /// copy counters.
    pub(crate) row_ids_copied: u64,
    /// This version's statistics, computed on first use and shared by its
    /// clones; a mutation starts a new one.
    pub(crate) stats: Arc<OnceLock<GraphStats>>,
}

impl Graph {
    /// Creates an empty graph with an empty label alphabet.
    pub fn empty() -> Self {
        Graph {
            interner: LabelInterner::new(),
            labels: PagedVec::default(),
            values: PagedVec::default(),
            out: PagedVec::default(),
            inc: PagedVec::default(),
            edge_count: 0,
            label_index: LabelIndex::default(),
            dead_count: 0,
            row_ids_copied: 0,
            stats: Arc::default(),
        }
    }

    /// Number of nodes `|V|`.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of directed edges `|E|`.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The paper's `|G| = |V| + |E|`.
    pub fn size(&self) -> usize {
        self.node_count() + self.edge_count()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The label interner shared by this graph.
    pub fn interner(&self) -> &LabelInterner {
        &self.interner
    }

    /// The graph's label → sorted-node-bucket index. Read-only: mutation
    /// goes through the graph's own insert/delete operations, which keep
    /// the index consistent.
    pub fn label_index(&self) -> &LabelIndex {
        &self.label_index
    }

    /// Returns all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.labels.len() as u32).map(NodeId)
    }

    /// Returns every directed edge `(src, dst)`, ascending by `(src, dst)`
    /// (a row not already in id order is sorted on the way out).
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.out.iter().enumerate().flat_map(|(src, row)| {
            let dsts = by_id(row.ids());
            (0..dsts.len()).map(move |i| EdgeId::new(NodeId(src as u32), dsts[i]))
        })
    }

    /// True when `v` is a valid node id of this graph.
    pub fn contains_node(&self, v: NodeId) -> bool {
        v.index() < self.labels.len()
    }

    /// The label `f(v)` of node `v`.
    ///
    /// # Panics
    /// Panics if `v` is not a node of this graph.
    pub fn label(&self, v: NodeId) -> Label {
        self.labels[v.index()]
    }

    /// The label of `v`, or `None` when `v` is out of range.
    pub fn try_label(&self, v: NodeId) -> Option<Label> {
        self.labels.get(v.index()).copied()
    }

    /// Pages of per-node storage copied because a mutation found them still
    /// shared with another clone of this graph. The count is inherited by
    /// clones, so the copy work of one commit is the difference between the
    /// new snapshot's count and its base's.
    pub fn pages_copied(&self) -> u64 {
        self.labels.pages().leaves_copied()
            + self.values.pages().leaves_copied()
            + self.out.pages().leaves_copied()
            + self.inc.pages().leaves_copied()
    }

    /// Label-bucket chunks copied on write, counted like
    /// [`Graph::pages_copied`]: at most one per node registered or
    /// unregistered since the chunk was last shared, whatever the label's
    /// frequency.
    pub fn chunks_copied(&self) -> u64 {
        self.label_index.chunks_copied()
    }

    /// Adjacency-row ids copied on write, counted like
    /// [`Graph::pages_copied`]: the ids of a shared row's buffer, or of one
    /// chunk of a chunked row, each time an edit un-shares it. An edit
    /// copies at most one chunk's worth, whatever the row's length.
    pub fn row_ids_copied(&self) -> u64 {
        self.row_ids_copied
    }

    /// Groups of page or chunk pointers copied on write, counted like
    /// [`Graph::pages_copied`] (one group of [`crate::SPINE_FANOUT`]
    /// pointers per page or chunk a mutation un-shares, at most).
    pub fn groups_copied(&self) -> u64 {
        self.labels.pages().groups_copied()
            + self.values.pages().groups_copied()
            + self.out.pages().groups_copied()
            + self.inc.pages().groups_copied()
            + self.label_index.groups_copied()
    }

    /// The shapes of the spines a [`Graph::clone`] walks — the four
    /// per-node arrays, then the label-bucket table. The sum of their
    /// `groups` is the number of reference counts a clone bumps.
    pub fn spines(&self) -> [SpineShape; 5] {
        [
            self.labels.pages().shape(),
            self.values.pages().shape(),
            self.out.pages().shape(),
            self.inc.pages().shape(),
            self.label_index.shape(),
        ]
    }

    /// The statistics of this version of the graph ([`GraphStats`]):
    /// computed by the first call, then shared by every clone until one of
    /// them mutates. Schema discovery and the unary access indices read the
    /// same pass.
    pub fn stats(&self) -> &GraphStats {
        self.stats.get_or_init(|| GraphStats::compute(self))
    }

    /// Bytes the per-node storage holds: the pages of the four per-node
    /// arrays and the buffers of long adjacency rows — counted from the
    /// storage's shape, not measured, so the same for the same graph on
    /// every run. The label buckets and the heap of string values are not
    /// included. Since the rows are also the unary access indices, this is
    /// their storage too.
    pub fn storage_bytes(&self) -> usize {
        let rows = |array: &PagedVec<Row>| {
            array.storage_bytes() + array.iter().map(Row::heap_bytes).sum::<usize>()
        };
        self.labels.storage_bytes()
            + self.values.storage_bytes()
            + rows(&self.out)
            + rows(&self.inc)
    }

    /// The attribute value `ν(v)` of node `v`.
    pub fn value(&self, v: NodeId) -> &Value {
        &self.values[v.index()]
    }

    /// The label name of node `v` (for diagnostics).
    pub fn label_name(&self, v: NodeId) -> String {
        self.interner.name_or_placeholder(self.label(v))
    }

    /// Out-neighbors of `v`, sorted by `(label, id)`: each label's
    /// neighbours are one segment, in id order. Borrowed as stored, a hub's
    /// row in chunks.
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> Ids<'_> {
        self.out[v.index()].ids()
    }

    /// In-neighbors of `v`, sorted by `(label, id)` like
    /// [`Graph::out_neighbors`].
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> Ids<'_> {
        self.inc[v.index()].ids()
    }

    /// The neighbors of `v` labeled `label` in either direction, ascending,
    /// each once: the `label` segments of its out- and in-row, merged as
    /// they are read — the answer of a unary access constraint
    /// `f(v) → (label, N)` at `v`. Empty when `v` is out of range.
    pub fn neighbors_labeled(&self, v: NodeId, label: Label) -> Neighbors<'_> {
        Neighbors {
            out: self.labeled(&self.out, v, label),
            inc: self.labeled(&self.inc, v, label),
        }
    }

    /// All neighbors of `v` (union of in- and out-neighbors, deduplicated),
    /// sorted by id.
    ///
    /// The paper treats neighborhood as undirected: `v` is a neighbor of `v'`
    /// when either `(v, v')` or `(v', v)` is an edge.
    pub fn neighbors(&self, v: NodeId) -> Vec<NodeId> {
        let mut all: Vec<NodeId> = self.neighbor_runs(v).flat_map(|(_, run)| run).collect();
        all.sort_unstable();
        all
    }

    /// The neighbors of `v` grouped by label, labels ascending: one
    /// `(label, neighbors)` pair per label some neighbor carries. A group's
    /// bounds are found by galloping, so a label's neighbors cost
    /// `O(log run)` label reads, not one per neighbor.
    pub fn neighbor_runs(&self, v: NodeId) -> NeighborRuns<'_, impl Fn(NodeId) -> Label + '_> {
        self.neighbor_runs_by(v, move |w| self.label(w))
    }

    /// [`Graph::neighbor_runs`] with the labels read through `label_of`,
    /// which must agree with [`Graph::label`] on every neighbor: a pass over
    /// the whole graph reads them from a flat copy ([`Graph::labels`]), one
    /// load each instead of a walk down the pages.
    pub fn neighbor_runs_by<F: Fn(NodeId) -> Label>(
        &self,
        v: NodeId,
        label_of: F,
    ) -> NeighborRuns<'_, F> {
        NeighborRuns {
            label_of,
            out: self.out_neighbors(v),
            inc: self.in_neighbors(v),
        }
    }

    /// The label of every node slot, in id order (a deleted slot's is a
    /// sentinel no node carries).
    pub fn labels(&self) -> impl Iterator<Item = Label> + '_ {
        self.labels.iter().copied()
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out[v.index()].len()
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.inc[v.index()].len()
    }

    /// Undirected degree of `v` (number of distinct neighbors).
    pub fn degree(&self, v: NodeId) -> usize {
        self.neighbor_runs(v).map(|(_, run)| run.len()).sum()
    }

    /// True when the directed edge `(src, dst)` exists.
    pub fn has_edge(&self, src: NodeId, dst: NodeId) -> bool {
        self.contains_node(dst)
            && self
                .out
                .get(src.index())
                .is_some_and(|dsts| dsts.ids().contains_by(order(&self.labels, dst)))
    }

    /// True when `a` and `b` are neighbors in either direction.
    pub fn are_neighbors(&self, a: NodeId, b: NodeId) -> bool {
        self.has_edge(a, b) || self.has_edge(b, a)
    }

    /// All nodes carrying `label`, sorted by node id.
    pub fn nodes_with_label(&self, label: Label) -> LabelNodes<'_> {
        self.label_index.nodes(label)
    }

    /// Number of nodes carrying `label`.
    pub fn label_count(&self, label: Label) -> usize {
        self.label_index.count(label)
    }

    /// Total number of distinct labels that appear on at least one node.
    pub fn distinct_label_count(&self) -> usize {
        self.label_index.distinct_labels()
    }

    /// True when `v` is a node slot that has not been deleted.
    ///
    /// Node ids are contiguous and stable: [`Graph::delete_node`] tombstones
    /// the slot instead of shifting ids, so `contains_node` keeps answering
    /// true for deleted slots while `is_live` does not.
    pub fn is_live(&self, v: NodeId) -> bool {
        self.labels.get(v.index()).is_some_and(|&l| l != TOMBSTONE)
    }

    /// Number of live (non-deleted) nodes.
    pub fn live_node_count(&self) -> usize {
        self.labels.len() - self.dead_count
    }

    /// The `label` segment of `v`'s row in `rows` (empty past the end).
    fn labeled<'a>(&'a self, rows: &'a PagedVec<Row>, v: NodeId, label: Label) -> Ids<'a> {
        let row = rows.get(v.index()).map_or(Ids::default(), Row::ids);
        segment(row, label, |w| self.label(w))
    }

    /// The `label` segment of `v`'s out-row, and the number of row entries
    /// read to find it (for `FragmentView::adjacency_reads`).
    pub(crate) fn out_segment(&self, v: NodeId, label: Label) -> (Ids<'_>, u64) {
        let reads = std::cell::Cell::new(0);
        let segment = segment(self.out_neighbors(v), label, |w| {
            reads.set(reads.get() + 1);
            self.label(w)
        });
        (segment, reads.get())
    }
}

/// Orders a row entry `w` against `v` by `(label, id)`, the order of every
/// row, the labels read from `labels`.
fn order(labels: &PagedVec<Label>, v: NodeId) -> impl Fn(NodeId) -> Ordering + '_ {
    let key = (labels[v.index()], v);
    move |w| (labels[w.index()], w).cmp(&key)
}

/// The `label` segment of `row`, a row sorted by `(label, id)` whose labels
/// `label_of` reads: the labels at both ends settle a row that lacks the
/// label or holds nothing else; otherwise a binary search finds its start
/// and a gallop its end, so a short segment costs a few label reads
/// however long the row.
fn segment(row: Ids<'_>, label: Label, label_of: impl Fn(NodeId) -> Label) -> Ids<'_> {
    let (Some(&first), Some(&last)) = (row.first(), row.last()) else {
        return row;
    };
    let (first, last) = (label_of(first), label_of(last));
    if last < label || first > label {
        return Ids::default();
    }
    let rest = match first == label {
        true => row,
        false => row.split_by(|w| label_of(w) < label).1,
    };
    match last == label {
        true => rest,
        false => rest.split_run(|w| label_of(w) == label).0,
    }
}

/// `row` in id order: borrowed when it is one slice already in that order,
/// else a sorted copy.
pub(crate) fn by_id(row: Ids<'_>) -> std::borrow::Cow<'_, [NodeId]> {
    match row.as_slice() {
        Some(ids) if ids.windows(2).all(|pair| pair[0] < pair[1]) => {
            std::borrow::Cow::Borrowed(ids)
        }
        _ => {
            let mut sorted = row.to_vec();
            sorted.sort_unstable();
            std::borrow::Cow::Owned(sorted)
        }
    }
}

/// In-place mutation, the write side of the serving subsystem.
///
/// These operations keep every invariant the read API relies on: adjacency
/// rows stay sorted by `(label, id)` and deduplicated, `edge_count` stays
/// exact, and the embedded [`LabelIndex`] tracks label membership. Deleting a node
/// tombstones its slot (ids never shift): the slot keeps existing for
/// [`Graph::contains_node`], but carries a reserved sentinel label that
/// matches no interned label, has no adjacency, and is absent from the label
/// index — so matchers, which seed candidates through the label index, never
/// see deleted nodes.
impl Graph {
    /// Appends a node labeled `label_name` (interned on the fly), returning
    /// its id.
    pub fn insert_node(&mut self, label_name: &str, value: Value) -> NodeId {
        let label = self.interner.intern(label_name);
        self.insert_node_labeled(label, value)
    }

    /// Appends a node with an already-interned label, returning its id.
    ///
    /// # Panics
    /// Panics when `label` is the reserved tombstone sentinel.
    pub fn insert_node_labeled(&mut self, label: Label, value: Value) -> NodeId {
        assert!(label != TOMBSTONE, "the tombstone label cannot be assigned");
        self.stats = Arc::default();
        let id = NodeId(self.labels.len() as u32);
        self.labels.push(label);
        self.values.push(value);
        self.out.push(Row::default());
        self.inc.push(Row::default());
        self.label_index.insert(label, id);
        id
    }

    /// Inserts the directed edge `(src, dst)`. Returns `Ok(true)` when the
    /// edge is new, `Ok(false)` when it already existed (the graph stays
    /// simple), and an error when either endpoint is missing or deleted.
    pub fn insert_edge(&mut self, src: NodeId, dst: NodeId) -> Result<bool> {
        if !self.is_live(src) || !self.is_live(dst) {
            return Err(GraphError::EndpointNotFound {
                src: src.0 as u64,
                dst: dst.0 as u64,
            });
        }
        if self.has_edge(src, dst) {
            return Ok(false);
        }
        self.stats = Arc::default();
        let labels = &self.labels;
        let copied = [
            self.out
                .make_mut(src.index())
                .insert_by(dst, order(labels, dst)),
            self.inc
                .make_mut(dst.index())
                .insert_by(src, order(labels, src)),
        ];
        self.row_ids_copied += copied
            .iter()
            .map(|c| c.expect("out and in adjacency agree on membership") as u64)
            .sum::<u64>();
        self.edge_count += 1;
        Ok(true)
    }

    /// Deletes the directed edge `(src, dst)`. Returns `Ok(true)` when the
    /// edge existed, `Ok(false)` when it did not, and an error when either
    /// endpoint id is out of range.
    pub fn delete_edge(&mut self, src: NodeId, dst: NodeId) -> Result<bool> {
        if !self.contains_node(src) || !self.contains_node(dst) {
            return Err(GraphError::EndpointNotFound {
                src: src.0 as u64,
                dst: dst.0 as u64,
            });
        }
        if !self.has_edge(src, dst) {
            return Ok(false);
        }
        self.stats = Arc::default();
        let labels = &self.labels;
        let copied = [
            self.out.make_mut(src.index()).remove_by(order(labels, dst)),
            self.inc.make_mut(dst.index()).remove_by(order(labels, src)),
        ];
        self.row_ids_copied += copied
            .iter()
            .map(|c| c.expect("out and in adjacency agree on membership") as u64)
            .sum::<u64>();
        self.edge_count -= 1;
        Ok(true)
    }

    /// Deletes node `v`: removes every incident edge, unregisters the node
    /// from the label index and tombstones its slot. Returns the removed
    /// edges so callers maintaining derived indices can account for the full
    /// change `ΔG` (the edges plus the node).
    ///
    /// Errors when `v` is out of range or already deleted.
    pub fn delete_node(&mut self, v: NodeId) -> Result<Vec<EdgeId>> {
        if !self.is_live(v) {
            return Err(GraphError::NodeNotFound(v.0 as u64));
        }
        self.stats = Arc::default();
        let mut removed = Vec::new();
        let labels = &self.labels;
        let listed = "out and in adjacency agree on membership";
        for &dst in std::mem::take(self.out.make_mut(v.index())).ids() {
            let copied = self.inc.make_mut(dst.index()).remove_by(order(labels, v));
            self.row_ids_copied += copied.expect(listed) as u64;
            removed.push(EdgeId::new(v, dst));
        }
        for &src in std::mem::take(self.inc.make_mut(v.index())).ids() {
            let copied = self.out.make_mut(src.index()).remove_by(order(labels, v));
            self.row_ids_copied += copied.expect(listed) as u64;
            removed.push(EdgeId::new(src, v));
        }
        self.edge_count -= removed.len();
        self.label_index.remove(self.labels[v.index()], v);
        *self.labels.make_mut(v.index()) = TOMBSTONE;
        *self.values.make_mut(v.index()) = Value::Null;
        self.dead_count += 1;
        Ok(removed)
    }
}

impl Default for Graph {
    fn default() -> Self {
        Graph::empty()
    }
}

/// Two id-sorted lists of neighbours merged as they are read: ascending,
/// each id once — a label's out- and in-segment ([`Graph::neighbors_labeled`],
/// [`Graph::neighbor_runs`]), or one list alone ([`Neighbors::from`]).
#[derive(Clone, Copy, Default)]
pub struct Neighbors<'a> {
    out: Ids<'a>,
    inc: Ids<'a>,
}

impl<'a> Neighbors<'a> {
    /// True when both lists are empty.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty() && self.inc.is_empty()
    }

    /// Number of distinct ids: both lengths, less the ids the lists share.
    /// Lists whose id ranges do not overlap (one alone, too) are counted
    /// without being read, two plain slices by one branch-free merge.
    #[inline]
    pub fn len(&self) -> usize {
        let (a, b) = (&self.out, &self.inc);
        if let (Some(a), Some(b)) = (a.as_slice(), b.as_slice()) {
            return distinct(a, b);
        }
        if a.is_empty() || b.is_empty() || a.last() < b.first() || b.last() < a.first() {
            return a.len() + b.len();
        }
        self.iter().count()
    }

    /// The ids, ascending, collected.
    pub fn to_vec(&self) -> Vec<NodeId> {
        self.iter().collect()
    }

    /// The two lists, as borrowed.
    pub fn lists(&self) -> [Ids<'a>; 2] {
        [self.out, self.inc]
    }

    /// Iterates over the ids, ascending, each once.
    #[inline]
    pub fn iter(&self) -> Merge<'a> {
        let (mut out, mut inc) = (self.out.iter(), self.inc.iter());
        Merge {
            next: [out.next().copied(), inc.next().copied()],
            out,
            inc,
        }
    }
}

/// The number of distinct ids of two id-sorted slices: both lengths, less
/// the ids they share, found by one branch-free merge unless their ranges
/// do not overlap.
#[inline]
fn distinct(a: &[NodeId], b: &[NodeId]) -> usize {
    let (Some((&a_first, &a_last)), Some((&b_first, &b_last))) =
        (a.first().zip(a.last()), b.first().zip(b.last()))
    else {
        return a.len() + b.len();
    };
    if a_last < b_first || b_last < a_first {
        return a.len() + b.len();
    }
    let (mut i, mut j, mut shared) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        shared += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    a.len() + b.len() - shared
}

impl<'a> From<Ids<'a>> for Neighbors<'a> {
    fn from(ids: Ids<'a>) -> Self {
        Neighbors {
            out: ids,
            inc: Ids::default(),
        }
    }
}

impl<'a> From<&'a [NodeId]> for Neighbors<'a> {
    fn from(ids: &'a [NodeId]) -> Self {
        Neighbors::from(Ids::from(ids))
    }
}

impl<'a> IntoIterator for Neighbors<'a> {
    type Item = NodeId;
    type IntoIter = Merge<'a>;

    fn into_iter(self) -> Merge<'a> {
        self.iter()
    }
}

/// Equal when they hold the same ids, however split between the lists.
impl PartialEq for Neighbors<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Neighbors<'_> {}

impl fmt::Debug for Neighbors<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The ids of a [`Neighbors`] pair, ascending, each once.
#[derive(Clone)]
pub struct Merge<'a> {
    /// The next id of each list, read ahead.
    next: [Option<NodeId>; 2],
    out: crate::chunked::Iter<'a>,
    inc: crate::chunked::Iter<'a>,
}

impl Iterator for Merge<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        let next = match self.next {
            [Some(a), Some(b)] => a.min(b),
            [a, b] => a.or(b)?,
        };
        if self.next[0] == Some(next) {
            self.next[0] = self.out.next().copied();
        }
        if self.next[1] == Some(next) {
            self.next[1] = self.inc.next().copied();
        }
        Some(next)
    }
}

/// A node's neighbors grouped by label ([`Graph::neighbor_runs`]), labels
/// read through `F`.
#[derive(Clone)]
pub struct NeighborRuns<'a, F> {
    label_of: F,
    out: Ids<'a>,
    inc: Ids<'a>,
}

impl<'a, F: Fn(NodeId) -> Label> Iterator for NeighborRuns<'a, F> {
    type Item = (Label, Neighbors<'a>);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let label_of = &self.label_of;
        let heads = [self.out.first(), self.inc.first()].map(|w| w.map(|&w| label_of(w)));
        let label = match heads {
            [Some(a), Some(b)] => a.min(b),
            [a, b] => a.or(b)?,
        };
        // A row whose first id carries the label runs on from there.
        let take = |row: &mut Ids<'a>, head: Option<Label>| {
            if head != Some(label) {
                return Ids::default();
            }
            let (run, rest) = row.split_run(|w| label_of(w) == label);
            *row = rest;
            run
        };
        let out = take(&mut self.out, heads[0]);
        let inc = take(&mut self.inc, heads[1]);
        Some((label, Neighbors { out, inc }))
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph(|V|={}, |E|={}, labels={})",
            self.node_count(),
            self.edge_count(),
            self.distinct_label_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;
    use crate::graph::NodeId;
    use crate::value::Value;

    /// Builds the small movie graph used across substrate tests:
    ///
    /// ```text
    ///   award --> movie <-- year
    ///               |\
    ///               v v
    ///          actor   actress
    ///               \   /
    ///                v v
    ///              country
    /// ```
    fn movie_graph() -> (crate::Graph, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        let award = b.add_node("award", Value::str("Oscar"));
        let year = b.add_node("year", Value::Int(2012));
        let movie = b.add_node("movie", Value::str("Argo"));
        let actor = b.add_node("actor", Value::str("A"));
        let actress = b.add_node("actress", Value::str("B"));
        let country = b.add_node("country", Value::str("US"));
        b.add_edge(award, movie).unwrap();
        b.add_edge(year, movie).unwrap();
        b.add_edge(movie, actor).unwrap();
        b.add_edge(movie, actress).unwrap();
        b.add_edge(actor, country).unwrap();
        b.add_edge(actress, country).unwrap();
        let g = b.build();
        (g, vec![award, year, movie, actor, actress, country])
    }

    #[test]
    fn counts_and_size() {
        let (g, _) = movie_graph();
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.size(), 12);
        assert!(!g.is_empty());
        assert_eq!(g.distinct_label_count(), 6);
    }

    #[test]
    fn labels_and_values() {
        let (g, ids) = movie_graph();
        let movie = ids[2];
        assert_eq!(g.label_name(movie), "movie");
        assert_eq!(g.value(movie), &Value::str("Argo"));
        assert_eq!(g.value(ids[1]), &Value::Int(2012));
        assert!(g.contains_node(movie));
        assert!(!g.contains_node(NodeId(100)));
        assert_eq!(g.try_label(NodeId(100)), None);
    }

    #[test]
    fn adjacency_is_correct() {
        let (g, ids) = movie_graph();
        let (award, year, movie, actor, actress, country) =
            (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]);
        assert!(g.has_edge(award, movie));
        assert!(!g.has_edge(movie, award));
        assert!(g.are_neighbors(movie, award));
        assert_eq!(g.out_neighbors(movie), &[actor, actress]);
        assert_eq!(g.in_neighbors(movie), &[award, year]);
        assert_eq!(g.neighbors(movie), vec![award, year, actor, actress]);
        assert_eq!(g.out_degree(movie), 2);
        assert_eq!(g.in_degree(movie), 2);
        assert_eq!(g.degree(movie), 4);
        assert_eq!(g.degree(country), 2);
    }

    #[test]
    fn label_index_lookups() {
        let (g, ids) = movie_graph();
        let movie_label = g.interner().get("movie").unwrap();
        assert_eq!(g.nodes_with_label(movie_label), &[ids[2]]);
        assert_eq!(g.label_count(movie_label), 1);
    }

    #[test]
    fn edges_iterator_enumerates_all_edges() {
        let (g, _) = movie_graph();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), g.edge_count());
        for e in edges {
            assert!(g.has_edge(e.src, e.dst));
        }
    }

    #[test]
    fn empty_graph_behaviour() {
        let g = crate::Graph::empty();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_empty());
        assert_eq!(g.nodes().count(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn insert_node_and_edge_maintain_indices() {
        let (mut g, ids) = movie_graph();
        let movie_label = g.interner().get("movie").unwrap();
        let m2 = g.insert_node("movie", Value::str("Gravity"));
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.live_node_count(), 7);
        assert_eq!(g.nodes_with_label(movie_label), &[ids[2], m2]);
        assert!(g.is_live(m2));

        // New edges keep adjacency sorted and refuse duplicates.
        assert!(g.insert_edge(ids[0], m2).unwrap());
        assert!(!g.insert_edge(ids[0], m2).unwrap());
        assert_eq!(g.edge_count(), 7);
        assert_eq!(g.out_neighbors(ids[0]), &[ids[2], m2]);
        assert_eq!(g.in_neighbors(m2), &[ids[0]]);
        assert!(g.insert_edge(NodeId(50), m2).is_err());
    }

    #[test]
    fn delete_edge_updates_both_directions() {
        let (mut g, ids) = movie_graph();
        assert!(g.delete_edge(ids[2], ids[3]).unwrap());
        assert!(!g.delete_edge(ids[2], ids[3]).unwrap());
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.out_neighbors(ids[2]), &[ids[4]]);
        assert_eq!(g.in_neighbors(ids[3]), &[] as &[NodeId]);
        assert!(g.delete_edge(NodeId(50), ids[3]).is_err());
    }

    #[test]
    fn delete_node_tombstones_and_detaches() {
        let (mut g, ids) = movie_graph();
        let movie = ids[2];
        let movie_label = g.label(movie);
        let removed = g.delete_node(movie).unwrap();
        // All four incident edges are reported exactly once.
        assert_eq!(removed.len(), 4);
        assert_eq!(g.edge_count(), 2);
        assert!(!g.is_live(movie));
        assert!(g.contains_node(movie), "ids stay stable");
        assert_eq!(g.live_node_count(), 5);
        assert!(g.nodes_with_label(movie_label).is_empty());
        assert!(g.neighbors(movie).is_empty());
        assert_eq!(g.in_neighbors(ids[3]), &[] as &[NodeId]);
        // The tombstoned label matches no interned label.
        assert!(g.try_label(movie).is_some());
        assert_ne!(g.label(movie), movie_label);
        // Deleting again or touching the dead slot errors.
        assert!(g.delete_node(movie).is_err());
        assert!(g.insert_edge(ids[0], movie).is_err());
        // Dead slots keep edge deletion well-defined (the edges are gone).
        assert!(!g.delete_edge(ids[0], movie).unwrap());
    }

    #[test]
    fn delete_node_handles_self_loops() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("a", Value::Null);
        let c = b.add_node("b", Value::Null);
        b.add_edge(a, a).unwrap();
        b.add_edge(a, c).unwrap();
        b.add_edge(c, a).unwrap();
        let mut g = b.build();
        let removed = g.delete_node(a).unwrap();
        assert_eq!(removed.len(), 3);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_live(c));
    }

    /// Rows switch from in-page to shared storage past `INLINE_ROW`
    /// neighbours, in both directions, without changing what they read as;
    /// a clone pinned before each edit keeps the row it saw.
    #[test]
    fn rows_move_between_inline_and_shared_storage() {
        use crate::row::INLINE_ROW;
        let mut b = GraphBuilder::new();
        let hub = b.add_node("hub", Value::Null);
        let spokes: Vec<NodeId> = (0..2 * INLINE_ROW as i64)
            .map(|i| b.add_node("x", Value::Int(i)))
            .collect();
        let mut g = b.build();
        let mut pinned = Vec::new();
        for (i, &spoke) in spokes.iter().enumerate().rev() {
            pinned.push((g.clone(), g.out_neighbors(hub).to_vec()));
            assert!(g.insert_edge(hub, spoke).unwrap());
            assert_eq!(g.out_neighbors(hub), &spokes[i..]);
            let inline = g.out[hub.index()].is_inline();
            assert_eq!(inline, spokes.len() - i <= INLINE_ROW);
        }
        for (i, &spoke) in spokes.iter().enumerate() {
            pinned.push((g.clone(), g.out_neighbors(hub).to_vec()));
            assert!(g.delete_edge(hub, spoke).unwrap());
            assert_eq!(g.out_neighbors(hub), &spokes[i + 1..]);
            assert!(g.in_neighbors(spoke).is_empty());
        }
        assert!(g.out[hub.index()].is_inline() && g.out_degree(hub) == 0);
        for (old, row) in &pinned {
            assert_eq!(old.out_neighbors(hub), &row[..]);
        }
    }

    /// Labels interleaved along the ids: every row stays grouped by label
    /// through edits, a label's segments answer `neighbors_labeled`, and the
    /// memoized statistics follow the edits — for a short row, and for a
    /// hub's row past one chunk, which is then cut back below one chunk and
    /// grown past it again, edits at its front, middle and end in turn, a
    /// clone pinned every few steps.
    #[test]
    fn rows_stay_grouped_by_label_through_edits() {
        use crate::chunked::CHUNK_TARGET;
        for n in [12, 3 * CHUNK_TARGET + 7] {
            let mut b = GraphBuilder::new();
            let hub = b.add_node("hub", Value::Null);
            let ids: Vec<NodeId> = (0..n)
                .map(|i| b.add_node(["b", "a", "c"][i % 3], Value::Int(i as i64)))
                .collect();
            for &v in ids.iter().rev() {
                b.add_edge(hub, v).unwrap();
            }
            b.add_edge(ids[4], hub).unwrap();
            let mut g = b.build();
            let a = g.interner().get("a").unwrap();
            let grouped = |g: &crate::Graph| {
                let key = |&w: &NodeId| (g.label(w), w);
                let mut sorted = g.out_neighbors(hub).to_vec();
                sorted.sort_by_key(key);
                assert_eq!(g.out_neighbors(hub), &sorted[..]);
                let of_a = g.neighbors(hub).into_iter().filter(|&w| g.label(w) == a);
                assert_eq!(
                    g.neighbors_labeled(hub, a).to_vec(),
                    of_a.collect::<Vec<_>>()
                );
                for run in g.out_neighbors(hub).chunks() {
                    assert!(run.iter().all(|&w| g.has_edge(hub, w)));
                }
            };
            let chunked = |g: &crate::Graph| g.out[hub.index()].is_chunked();
            let of_a = n / 3;
            grouped(&g);
            assert_eq!(chunked(&g), n >= 2 * CHUNK_TARGET);
            assert_eq!(g.stats().fanout(g.label(hub), a), of_a);
            assert!(g.delete_edge(hub, ids[1]).unwrap());
            assert!(g.has_edge(hub, ids[4]) && g.has_edge(ids[4], hub));
            grouped(&g);
            assert_eq!(g.stats().fanout(g.label(hub), a), of_a - 1);
            let fresh = g.insert_node("a", Value::Null);
            assert!(g.insert_edge(fresh, hub).unwrap());
            grouped(&g);
            assert_eq!(g.neighbors_labeled(hub, a).len(), of_a);
            assert_eq!(g.stats().fanout(g.label(hub), a), of_a);
            if n < 2 * CHUNK_TARGET {
                continue;
            }
            // Down below one chunk, then back up past two.
            let mut pins = Vec::new();
            let mut step = 0;
            while g.out_degree(hub) > CHUNK_TARGET / 2 {
                let row = g.out_neighbors(hub);
                let at = [0, row.len() / 2, row.len() - 1][step % 3];
                let w = *row.get(at).unwrap();
                if step % 50 == 0 {
                    pins.push((g.clone(), row.to_vec()));
                    grouped(&g);
                }
                assert!(g.delete_edge(hub, w).unwrap());
                step += 1;
            }
            assert!(!chunked(&g), "shrunk below one chunk, the row is one slice");
            grouped(&g);
            for (i, &v) in ids.iter().enumerate() {
                g.insert_edge(hub, v).unwrap();
                if i % 50 == 0 {
                    pins.push((g.clone(), g.out_neighbors(hub).to_vec()));
                    grouped(&g);
                }
            }
            assert!(chunked(&g), "grown back past two chunks");
            grouped(&g);
            assert!(g.row_ids_copied() > 0, "pinned rows were copied");
            for (pinned, row) in &pins {
                assert_eq!(pinned.out_neighbors(hub), &row[..]);
            }
        }
    }

    #[test]
    fn display_formats() {
        let (g, ids) = movie_graph();
        assert!(g.to_string().contains("|V|=6"));
        assert_eq!(ids[0].to_string(), "v0");
        assert_eq!(
            crate::graph::EdgeId::new(ids[0], ids[2]),
            crate::graph::EdgeId::new(ids[0], ids[2])
        );
    }
}
