//! Zero-copy fragment execution: [`GraphAccess`] and [`FragmentView`].
//!
//! The bounded executors of `bgpq-core` evaluate a pattern on the fetched
//! fragment `G_Q ⊆ G`. The original implementation *materialized* `G_Q` as a
//! standalone [`Graph`] per query — cloning the label interner, re-adding
//! every node and value through a [`crate::GraphBuilder`], and remapping all
//! node ids twice (parent → local for the candidate sets, local → parent for
//! the answers). On the reference benchmark that copy dominated the bounded
//! hot path and made `bVF2` *slower* than whole-graph `VF2`.
//!
//! This module removes the copy:
//!
//! * [`GraphAccess`] abstracts the read surface the matchers of
//!   `bgpq-matching` need (labels, values, adjacency, degrees, label
//!   lookups), so the same `VF2`/`gsim` code runs on a whole [`Graph`] or on
//!   a fragment view without knowing which;
//! * [`FragmentView`] implements it as a *borrow* of the base graph plus the
//!   fragment's sorted node list: a small open-addressed table over that
//!   list answers membership, and fragment-local adjacency lists (CSR
//!   layout) are built once per query — node ids remain **parent ids**
//!   throughout, so no remapping ever happens;
//! * [`ScratchArena`] owns the buffers a view is built into. A session layer
//!   (the `bgpq-engine` `Engine`) keeps arenas across queries, so steady-state
//!   fragment construction performs no allocations at all.
//!
//! Nothing is sized by the parent graph: every arena buffer holds `O(|G_Q|)`
//! entries. Parent rows are sorted by `(label, id)`, and so are the view's
//! local rows. An induced out-list reads a parent out-list of `d ≤
//! 8·|V(G_Q)|` whole; a longer one (a hub) is read only in the segments of
//! labels the fragment holds, each intersected with that label's fragment
//! nodes from the cheaper side. In-lists are the transpose of the kept
//! out-edges, so parent in-adjacency is never read.
//! [`FragmentView::adjacency_reads`] counts what is read.

use crate::chunked::Ids;
use crate::graph::{by_id, EdgeId, Graph, NodeId};
use crate::label::Label;
use crate::label_index::LabelNodes;
use crate::value::Value;

/// The read-only graph surface pattern matchers run against.
///
/// Implemented by [`Graph`] (the whole data graph) and by [`FragmentView`]
/// (a zero-copy view of a fragment `G_Q ⊆ G`). All node ids handed in and
/// out are ids of the underlying *base* graph; a view merely restricts which
/// nodes and edges are visible.
pub trait GraphAccess {
    /// Number of visible nodes.
    fn node_count(&self) -> usize;

    /// Number of visible directed edges.
    fn edge_count(&self) -> usize;

    /// True when `v` is a visible node.
    fn contains_node(&self, v: NodeId) -> bool;

    /// The label `f(v)` of node `v`.
    ///
    /// # Panics
    /// May panic when `v` is not a node of the underlying graph.
    fn label(&self, v: NodeId) -> Label;

    /// The attribute value `ν(v)` of node `v`.
    ///
    /// # Panics
    /// May panic when `v` is not a node of the underlying graph.
    fn value(&self, v: NodeId) -> &Value;

    /// Visible out-neighbors of `v`, sorted by `(label, id)`: a label's
    /// neighbours are one segment, in id order. Empty when `v` is not
    /// visible.
    fn out_neighbors(&self, v: NodeId) -> Ids<'_>;

    /// Visible in-neighbors of `v`, sorted by `(label, id)`. Empty when `v`
    /// is not visible.
    fn in_neighbors(&self, v: NodeId) -> Ids<'_>;

    /// True when the directed edge `(src, dst)` is visible.
    fn has_edge(&self, src: NodeId, dst: NodeId) -> bool;

    /// Visible nodes carrying `label`, sorted by node id.
    fn nodes_with_label(&self, label: Label) -> LabelNodes<'_>;

    /// Iterates over all visible node ids, ascending.
    fn node_ids(&self) -> Box<dyn Iterator<Item = NodeId> + '_>;

    /// Iterates over all visible directed edges, ascending by `(src, dst)`.
    fn edge_ids(&self) -> Box<dyn Iterator<Item = EdgeId> + '_>;

    /// Visible out-degree of `v`.
    fn out_degree(&self, v: NodeId) -> usize {
        self.out_neighbors(v).len()
    }

    /// Visible in-degree of `v`.
    fn in_degree(&self, v: NodeId) -> usize {
        self.in_neighbors(v).len()
    }

    /// Number of visible nodes carrying `label`.
    fn label_count(&self, label: Label) -> usize {
        self.nodes_with_label(label).len()
    }

    /// `|G| = |V| + |E|` of the visible graph.
    fn size(&self) -> usize {
        self.node_count() + self.edge_count()
    }
}

impl GraphAccess for Graph {
    fn node_count(&self) -> usize {
        Graph::node_count(self)
    }

    fn edge_count(&self) -> usize {
        Graph::edge_count(self)
    }

    fn contains_node(&self, v: NodeId) -> bool {
        Graph::contains_node(self, v)
    }

    fn label(&self, v: NodeId) -> Label {
        Graph::label(self, v)
    }

    fn value(&self, v: NodeId) -> &Value {
        Graph::value(self, v)
    }

    fn out_neighbors(&self, v: NodeId) -> Ids<'_> {
        Graph::out_neighbors(self, v)
    }

    fn in_neighbors(&self, v: NodeId) -> Ids<'_> {
        Graph::in_neighbors(self, v)
    }

    fn has_edge(&self, src: NodeId, dst: NodeId) -> bool {
        Graph::has_edge(self, src, dst)
    }

    fn nodes_with_label(&self, label: Label) -> LabelNodes<'_> {
        Graph::nodes_with_label(self, label)
    }

    fn node_ids(&self) -> Box<dyn Iterator<Item = NodeId> + '_> {
        Box::new(self.nodes())
    }

    fn edge_ids(&self) -> Box<dyn Iterator<Item = EdgeId> + '_> {
        Box::new(self.edges())
    }
}

/// Reusable buffers a [`FragmentView`] is built into.
///
/// One arena serves one view at a time; building a new view overwrites the
/// previous one's storage (a view borrows the arena for its whole lifetime).
/// Session layers pool arenas, so per-query fragment construction reuses
/// capacity instead of allocating. Every buffer is fragment-local — sized
/// by `|G_Q|`, never by the parent's `|V|`.
#[derive(Debug, Default)]
pub struct ScratchArena {
    /// Fragment nodes (parent ids), ascending; a node's index is its *slot*.
    nodes: Vec<NodeId>,
    /// Open-addressed node → slot table, rebuilt per view: a power of two
    /// `≥ 8·|V(G_Q)|` of entries `node id << 32 | slot + 1`, `0` for empty.
    /// The matchers look a slot up on every adjacency read: a binary search
    /// of `nodes`, or collisions at load factor 1/2, cost a 30k-node graph
    /// a quarter of its hot-query latency.
    slot_table: Vec<u64>,
    /// `32 - log2(slot_table.len())`: the hash keeps that many top bits.
    slot_shift: u32,
    /// The label of every fragment node, by slot.
    slot_label: Vec<Label>,
    /// CSR offsets into `out_adj`, one entry per fragment node plus one.
    out_start: Vec<u32>,
    /// Concatenated fragment-local out-adjacency, each row sorted by
    /// `(label, id)`.
    out_adj: Vec<NodeId>,
    /// The slot of every `out_adj` entry, for the transpose and `has_edge`.
    out_slot: Vec<u32>,
    /// CSR offsets into `in_adj`.
    in_start: Vec<u32>,
    /// Concatenated fragment-local in-adjacency, each row sorted by
    /// `(label, id)`.
    in_adj: Vec<NodeId>,
    /// Scratch for the regrouping: every fragment node with its label, read
    /// from the parent once per node rather than once per comparison, and
    /// its slot.
    labelled: Vec<(Label, NodeId, u32)>,
    /// Fragment nodes regrouped by label (each group sorted by node id).
    by_label: Vec<NodeId>,
    /// `(label, start, end)` ranges into `by_label`, sorted by label.
    label_ranges: Vec<(Label, u32, u32)>,
    /// Parent adjacency entries read or probed by the last build.
    adjacency_reads: u64,
}

/// Calls `hit(i)` for every `short[i]` that `long` lists, ascending. Both
/// lists are sorted and duplicate-free. A list held in chunks is entered
/// at the piece of the next `short` element (galloped to in the next
/// piece, else found by a binary search over the pieces), that piece is
/// intersected with the run of `short` it covers, and the pieces between
/// are skipped: no chunk is visited that no `short` element falls in.
/// Returns an upper bound on the number of `long` entries compared.
fn intersect_sorted(short: &[NodeId], long: Ids<'_>, mut hit: impl FnMut(usize)) -> u64 {
    if let Some(long) = long.as_slice() {
        return intersect_slices(short, long, hit);
    }
    let (mut probes, mut from, mut long) = (0, 0, long);
    while let Some(&x) = short.get(from) {
        let Some((piece, rest)) = long.split_run(|w| w < x).1.split_first() else {
            break;
        };
        let last = piece[piece.len() - 1];
        let upto = from + short[from..].partition_point(|&y| y <= last);
        probes += intersect_slices(&short[from..upto], piece, |i| hit(from + i));
        (from, long) = (upto, rest);
    }
    probes
}

/// Calls `hit(i)` for every `short[i]` that `long` lists, ascending. Both
/// slices are sorted and duplicate-free; each element of `short` is
/// galloped into `long` from the previous probe's position,
/// `O(log(|long| / |short|))` each. Returns an upper bound on the number of
/// `long` entries compared.
fn intersect_slices(short: &[NodeId], long: &[NodeId], mut hit: impl FnMut(usize)) -> u64 {
    let (mut probes, mut lo) = (0u64, 0usize);
    for (i, &x) in short.iter().enumerate() {
        // Everything before `lo` is `< x`: double the stride until
        // `long[hi] >= x` (or the end), then bisect the bracket.
        let (mut hi, mut stride) = (lo, 1);
        while hi < long.len() && long[hi] < x {
            (lo, hi, stride) = (hi + 1, hi + stride, 2 * stride);
            probes += 1;
        }
        let hi = hi.min(long.len());
        probes += 1 + u64::from(usize::BITS - (hi - lo).leading_zeros());
        lo += long[lo..hi].partition_point(|&y| y < x);
        if long.get(lo) == Some(&x) {
            hit(i);
        }
    }
    probes
}

/// A parent out-list over this many times longer than the fragment's node
/// list is galloped into, a shorter one scanned (a table probe per entry): a
/// gallop costs `2·log2(d / |V(G_Q)|) + 2` poorly predicted comparisons per
/// fragment node. Measured flat between 4 and 16 at 30k and 600k nodes.
const GALLOP_RATIO: usize = 8;

/// A local row up to this long is scanned by `has_edge`, which then needs
/// no slot of the far end.
const SCANNED_ROW: usize = 16;

impl ScratchArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Where the linear probe for `v` starts: the top bits of `v · 2³²/φ`
    /// (Fibonacci hashing spreads the runs of consecutive ids in fragments).
    fn home(&self, v: NodeId) -> usize {
        (v.0.wrapping_mul(0x9E37_79B9) >> self.slot_shift) as usize
    }

    /// Stores the sorted, deduplicated `nodes` and indexes their slots.
    fn set_nodes(&mut self, nodes: &[NodeId]) {
        self.nodes.clear();
        self.nodes.extend_from_slice(nodes);
        self.nodes.sort_unstable();
        self.nodes.dedup();
        // At least two entries, so that the hash shift stays below 32.
        let capacity = (8 * self.nodes.len()).next_power_of_two().max(2);
        self.slot_shift = 32u32.saturating_sub(capacity.trailing_zeros());
        self.slot_table.clear();
        self.slot_table.resize(capacity, 0);
        for (slot, &v) in self.nodes.iter().enumerate() {
            let mut at = self.home(v);
            while self.slot_table[at] != 0 {
                at = (at + 1) & (capacity - 1);
            }
            self.slot_table[at] = u64::from(v.0) << 32 | (slot as u64 + 1);
        }
    }

    /// The slot of `v` in the sorted node list, when it is a member.
    #[inline]
    fn slot(&self, v: NodeId) -> Option<usize> {
        let mut at = self.home(v);
        loop {
            match self.slot_table[at] {
                0 => return None,
                entry if (entry >> 32) as u32 == v.0 => return Some(entry as u32 as usize - 1),
                _ => at = (at + 1) & (self.slot_table.len() - 1),
            }
        }
    }

    /// The CSR row of `v` in the out or the in arrays; empty for a non-member.
    fn row<'s>(&self, v: NodeId, start: &[u32], adj: &'s [NodeId]) -> &'s [NodeId] {
        let slot = self.slot(v);
        slot.map_or(&[], |i| &adj[start[i] as usize..start[i + 1] as usize])
    }

    /// Fills the adjacency CSR with the *induced* edges: every parent edge
    /// between fragment members. An out-list is the parent out-list
    /// intersected with the fragment nodes — scanned against the slot table
    /// up to [`GALLOP_RATIO`]; beyond, only the segments of the fragment's
    /// labels are read, each galloped into or scanned as its own length
    /// says, so no hub list is read whole. Both keep the parent's `(label,
    /// id)` order. In-lists transpose the kept out-edges, sources taken in
    /// `(label, id)` order: no parent in-list is read.
    fn fill_induced_adjacency(&mut self, graph: &Graph) {
        let n = self.nodes.len();
        self.out_start.clear();
        self.out_adj.clear();
        self.out_slot.clear();
        self.adjacency_reads = 0;
        for i in 0..n {
            self.out_start.push(self.out_adj.len() as u32);
            let parent = graph.out_neighbors(self.nodes[i]);
            if parent.len() <= GALLOP_RATIO * n {
                self.adjacency_reads += parent.len() as u64;
                self.keep_members(parent);
                continue;
            }
            for r in 0..self.label_ranges.len() {
                let (label, start, end) = self.label_ranges[r];
                let (segment, probes) = graph.out_segment(self.nodes[i], label);
                self.adjacency_reads += probes;
                let members = start as usize..end as usize;
                // Counted a piece at a time, and only up to the bound: a
                // segment over many chunks of a hub's row is not walked.
                let bound = GALLOP_RATIO * members.len();
                let count = |n: usize, piece: &[NodeId]| {
                    let n = n + piece.len();
                    (n <= bound).then_some(n)
                };
                if let Some(len) = segment.chunks().try_fold(0, count) {
                    self.adjacency_reads += len as u64;
                    self.keep_members(segment);
                    continue;
                }
                let (out_adj, out_slot) = (&mut self.out_adj, &mut self.out_slot);
                let (nodes, labelled) = (&self.by_label[members.clone()], &self.labelled[members]);
                self.adjacency_reads += intersect_sorted(nodes, segment, |m| {
                    out_adj.push(nodes[m]);
                    out_slot.push(labelled[m].2);
                });
            }
        }
        self.out_start.push(self.out_adj.len() as u32);

        // Transpose by counting sort over slots. Counts go two places past
        // their slot, so after the prefix sum `in_start[s + 1]` is the write
        // cursor of slot `s`; once every edge is placed it has advanced to
        // the start of slot `s + 1`, i.e. `in_start[..=n]` are the offsets.
        self.in_start.clear();
        self.in_start.resize(n + 2, 0);
        for &s in &self.out_slot {
            self.in_start[s as usize + 2] += 1;
        }
        for s in 2..n + 2 {
            self.in_start[s] += self.in_start[s - 1];
        }
        self.in_adj.resize(self.out_adj.len(), NodeId(0));
        for &(_, src, i) in &self.labelled {
            let row = self.out_start[i as usize] as usize..self.out_start[i as usize + 1] as usize;
            for &slot in &self.out_slot[row] {
                let cursor = &mut self.in_start[slot as usize + 1];
                self.in_adj[*cursor as usize] = src;
                *cursor += 1;
            }
        }
        self.in_start.truncate(n + 1);
    }

    /// Appends the fragment members of `parent` (a parent row, or a segment
    /// of one) to the out-list being filled, in its order.
    fn keep_members(&mut self, parent: Ids<'_>) {
        for piece in parent.chunks() {
            for &w in piece {
                if let Some(slot) = self.slot(w) {
                    self.out_adj.push(w);
                    self.out_slot.push(slot as u32);
                }
            }
        }
    }

    /// Groups the fragment nodes by label for `nodes_with_label` lookups
    /// and the segment-wise intersection, and records each node's label by
    /// slot.
    fn fill_label_ranges(&mut self, graph: &Graph) {
        self.labelled.clear();
        let labelled = self.nodes.iter().enumerate();
        let labelled = labelled.map(|(slot, &v)| (graph.label(v), v, slot as u32));
        self.labelled.extend(labelled);
        self.slot_label.clear();
        self.slot_label
            .extend(self.labelled.iter().map(|&(label, ..)| label));
        self.labelled.sort_unstable();
        self.by_label.clear();
        self.by_label
            .extend(self.labelled.iter().map(|&(_, v, _)| v));
        self.label_ranges.clear();
        let mut start = 0usize;
        while let Some(&(label, ..)) = self.labelled.get(start) {
            let run = self.labelled[start..].partition_point(|&(l, ..)| l == label);
            let end = start + run;
            self.label_ranges.push((label, start as u32, end as u32));
            start = end;
        }
    }
}

/// A zero-copy view of a fragment `G_Q ⊆ G`.
///
/// The view borrows the base [`Graph`] (for labels and attribute values) and
/// a [`ScratchArena`] holding the fragment's sorted node list and
/// fragment-local adjacency. Node ids are **parent ids** — matchers running
/// on the view produce answers directly over `G`, with no remapping.
#[derive(Debug, Clone, Copy)]
pub struct FragmentView<'a> {
    graph: &'a Graph,
    arena: &'a ScratchArena,
}

impl<'a> FragmentView<'a> {
    /// Builds the view of the subgraph of `graph` *induced* by `nodes`
    /// (duplicates and ordering of `nodes` don't matter): its edges are all
    /// parent edges between fragment nodes.
    ///
    /// # Panics
    /// Panics if some node id is out of range for `graph`.
    pub fn induced(graph: &'a Graph, nodes: &[NodeId], arena: &'a mut ScratchArena) -> Self {
        assert!(
            nodes.iter().all(|&v| v.index() < Graph::node_count(graph)),
            "fragment node out of range"
        );
        arena.set_nodes(nodes);
        arena.fill_label_ranges(graph);
        arena.fill_induced_adjacency(graph);
        FragmentView { graph, arena }
    }

    /// The base graph this view restricts.
    pub fn base(&self) -> &'a Graph {
        self.graph
    }

    /// The fragment's nodes (parent ids, ascending).
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.arena.nodes.iter().copied()
    }

    /// Parent adjacency entries read or probed to build this view: a whole
    /// out-list within 8x of `|V(G_Q)|`; of a longer one, the probes that
    /// find the segment of each fragment label and the segment's entries
    /// read or galloped into (`FetchStats::adjacency_reads` in `bgpq-core`).
    pub fn adjacency_reads(&self) -> u64 {
        self.arena.adjacency_reads
    }
}

impl GraphAccess for FragmentView<'_> {
    fn node_count(&self) -> usize {
        self.arena.nodes.len()
    }

    fn edge_count(&self) -> usize {
        self.arena.out_adj.len()
    }

    fn contains_node(&self, v: NodeId) -> bool {
        self.arena.slot(v).is_some()
    }

    fn label(&self, v: NodeId) -> Label {
        self.graph.label(v)
    }

    fn value(&self, v: NodeId) -> &Value {
        self.graph.value(v)
    }

    fn out_neighbors(&self, v: NodeId) -> Ids<'_> {
        Ids::from(
            self.arena
                .row(v, &self.arena.out_start, &self.arena.out_adj),
        )
    }

    fn in_neighbors(&self, v: NodeId) -> Ids<'_> {
        Ids::from(self.arena.row(v, &self.arena.in_start, &self.arena.in_adj))
    }

    /// A short local row is scanned; a longer one is binary searched on
    /// the `(label, id)` key, read from the arena: slots ascend with ids, so
    /// `(label, slot)` orders the row alike.
    fn has_edge(&self, src: NodeId, dst: NodeId) -> bool {
        let arena = self.arena;
        let Some(s) = arena.slot(src) else {
            return false;
        };
        let row = arena.out_start[s] as usize..arena.out_start[s + 1] as usize;
        if row.len() <= SCANNED_ROW {
            return arena.out_adj[row].contains(&dst);
        }
        let Some(d) = arena.slot(dst) else {
            return false;
        };
        let key = (arena.slot_label[d], d as u32);
        arena.out_slot[row]
            .binary_search_by(|&t| (arena.slot_label[t as usize], t).cmp(&key))
            .is_ok()
    }

    fn nodes_with_label(&self, label: Label) -> LabelNodes<'_> {
        let ranges = &self.arena.label_ranges;
        let nodes = match ranges.binary_search_by_key(&label, |&(l, _, _)| l) {
            Ok(i) => {
                let (_, s, e) = ranges[i];
                &self.arena.by_label[s as usize..e as usize]
            }
            Err(_) => &[],
        };
        LabelNodes::from(nodes)
    }

    fn node_ids(&self) -> Box<dyn Iterator<Item = NodeId> + '_> {
        Box::new(self.arena.nodes.iter().copied())
    }

    fn edge_ids(&self) -> Box<dyn Iterator<Item = EdgeId> + '_> {
        Box::new(self.nodes().flat_map(move |src| {
            let dsts = by_id(self.out_neighbors(src));
            (0..dsts.len()).map(move |i| EdgeId::new(src, dsts[i]))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::subgraph::Subgraph;

    fn diamond_graph() -> Graph {
        // a0 -> b1, a0 -> c2, b1 -> d3, c2 -> d3, d3 -> a4 (a-labeled again),
        // plus an isolated e5.
        let mut b = GraphBuilder::new();
        let a0 = b.add_node("a", Value::Int(0));
        let b1 = b.add_node("b", Value::Int(1));
        let c2 = b.add_node("c", Value::Int(2));
        let d3 = b.add_node("d", Value::Int(3));
        let a4 = b.add_node("a", Value::Int(4));
        b.add_node("e", Value::Int(5));
        b.add_edge(a0, b1).unwrap();
        b.add_edge(a0, c2).unwrap();
        b.add_edge(b1, d3).unwrap();
        b.add_edge(c2, d3).unwrap();
        b.add_edge(d3, a4).unwrap();
        b.build()
    }

    #[test]
    fn graph_implements_graph_access_consistently() {
        let g = diamond_graph();
        assert_eq!(GraphAccess::node_count(&g), g.node_count());
        assert_eq!(GraphAccess::edge_count(&g), g.edge_count());
        assert_eq!(g.node_ids().count(), 6);
        assert_eq!(g.edge_ids().count(), 5);
        assert_eq!(GraphAccess::out_degree(&g, NodeId(0)), 2);
        assert_eq!(GraphAccess::size(&g), 11);
        let a = g.interner().get("a").unwrap();
        assert_eq!(GraphAccess::label_count(&g, a), 2);
    }

    #[test]
    fn induced_view_restricts_nodes_and_edges() {
        let g = diamond_graph();
        let mut arena = ScratchArena::new();
        // Fragment {a0, b1, d3}: edges a0->b1 and b1->d3 survive; c2's edges
        // and d3->a4 do not.
        let view = FragmentView::induced(&g, &[NodeId(3), NodeId(0), NodeId(1)], &mut arena);
        assert_eq!(view.node_count(), 3);
        assert_eq!(view.edge_count(), 2);
        assert_eq!(view.size(), 5);
        assert!(view.contains_node(NodeId(0)));
        assert!(!view.contains_node(NodeId(2)));
        assert!(!view.contains_node(NodeId(100)));
        assert_eq!(view.out_neighbors(NodeId(0)), &[NodeId(1)]);
        assert_eq!(view.out_neighbors(NodeId(2)), &[] as &[NodeId]);
        assert_eq!(view.in_neighbors(NodeId(3)), &[NodeId(1)]);
        assert!(view.has_edge(NodeId(0), NodeId(1)));
        assert!(!view.has_edge(NodeId(0), NodeId(2))); // c2 invisible
        assert!(!view.has_edge(NodeId(3), NodeId(4))); // a4 invisible
        assert_eq!(view.out_degree(NodeId(1)), 1);
        assert_eq!(view.in_degree(NodeId(1)), 1);
        // Labels and values read through to the parent.
        assert_eq!(view.label(NodeId(3)), g.label(NodeId(3)));
        assert_eq!(view.value(NodeId(3)), &Value::Int(3));
        let a = g.interner().get("a").unwrap();
        assert_eq!(view.nodes_with_label(a), &[NodeId(0)]);
        let e = g.interner().get("e").unwrap();
        assert_eq!(view.nodes_with_label(e), &[] as &[NodeId]);
        assert_eq!(view.label_count(a), 1);
        let edges: Vec<EdgeId> = view.edge_ids().collect();
        assert_eq!(
            edges,
            vec![
                EdgeId::new(NodeId(0), NodeId(1)),
                EdgeId::new(NodeId(1), NodeId(3))
            ]
        );
    }

    /// The differential oracle: a view over a node set must present exactly
    /// the graph [`Subgraph::induced`] + [`Subgraph::materialize`] builds,
    /// modulo the id remapping the materialized path needs and the view
    /// avoids.
    #[test]
    fn view_iteration_equals_materialized_subgraph() {
        let g = diamond_graph();
        let fragments: [&[NodeId]; 5] = [
            &[NodeId(0), NodeId(1), NodeId(3), NodeId(4)],
            &[
                NodeId(0),
                NodeId(1),
                NodeId(2),
                NodeId(3),
                NodeId(4),
                NodeId(5),
            ],
            &[NodeId(5)],
            &[],
            &[NodeId(4), NodeId(2), NodeId(0), NodeId(2)],
        ];
        for nodes in fragments {
            let fragment = Subgraph::induced(&g, nodes.iter().copied());
            let m = fragment.materialize(&g);
            let mut arena = ScratchArena::new();
            let view = FragmentView::induced(&g, nodes, &mut arena);

            assert_eq!(view.node_count(), m.graph.node_count());
            assert_eq!(view.edge_count(), m.graph.edge_count());
            assert!(view.nodes().eq(fragment.nodes()));
            assert!(view
                .edge_ids()
                .eq(fragment.edges().map(|(s, d)| EdgeId::new(s, d))));
            // Node-by-node: labels, values, degrees and adjacency agree once
            // local ids are translated back to parent ids.
            for (local_idx, parent) in m.to_parent.iter().enumerate() {
                let local = NodeId(local_idx as u32);
                assert!(view.contains_node(*parent));
                assert_eq!(view.label(*parent), m.graph.label(local));
                assert_eq!(view.value(*parent), m.graph.value(local));
                let out: Vec<NodeId> = m
                    .graph
                    .out_neighbors(local)
                    .iter()
                    .map(|&w| m.parent_node(w))
                    .collect();
                assert_eq!(view.out_neighbors(*parent), out.as_slice());
                let inc: Vec<NodeId> = m
                    .graph
                    .in_neighbors(local)
                    .iter()
                    .map(|&w| m.parent_node(w))
                    .collect();
                assert_eq!(view.in_neighbors(*parent), inc.as_slice());
            }
            // Label lookups agree.
            for label in g.interner().labels() {
                let through_view: Vec<NodeId> = view.nodes_with_label(label).to_vec();
                let mut through_mat: Vec<NodeId> = m
                    .graph
                    .nodes_with_label(label)
                    .iter()
                    .map(|&v| m.parent_node(v))
                    .collect();
                through_mat.sort_unstable();
                assert_eq!(through_view, through_mat);
            }
        }
    }

    /// Both probe directions of the sorted intersection, every alignment,
    /// against a long list held as one slice and in chunks.
    #[test]
    fn intersect_sorted_finds_every_common_element() {
        use crate::chunked::{Chunked, CHUNK_TARGET};
        let ids = |v: &[u32]| v.iter().map(|&i| NodeId(i)).collect::<Vec<_>>();
        let n = 3 * CHUNK_TARGET as u32 + 7;
        let long = ids(&(0..n).map(|i| i * 3).collect::<Vec<_>>());
        let chunked = Chunked::from_sorted(&long);
        let last = 3 * (n - 1);
        let seam = 3 * CHUNK_TARGET as u32;
        for short in [
            ids(&[]),
            ids(&[0]),
            ids(&[last]),
            ids(&[1, 2, 4]),
            ids(&[0, 3, 6, 9, 300, seam - 3, seam, seam + 1, last, last + 1]),
            long.clone(),
        ] {
            let expect: Vec<usize> = short
                .iter()
                .enumerate()
                .filter_map(|(i, x)| long.binary_search(x).ok().map(|_| i))
                .collect();
            for held in [Ids::from(&long[..]), chunked.ids()] {
                let mut hits = Vec::new();
                let probes = intersect_sorted(&short, held, |i| hits.push(i));
                assert_eq!(hits, expect);
                // ≤ 2·log2(|long|) + 2 compared entries per probed element.
                assert!(probes <= short.len() as u64 * 26, "{probes} probes");
            }
        }
        assert_eq!(
            intersect_sorted(&long, Ids::default(), |_| unreachable!()),
            long.len() as u64
        );
    }

    /// Star with a 100 000-leaf hub: a 10-node fragment through the hub
    /// must bisect the hub's list, not scan it — in either edge direction.
    #[test]
    fn hub_adjacency_is_probed_not_scanned() {
        const DEG: u32 = 100_000;
        for hub_is_source in [true, false] {
            let mut b = GraphBuilder::new();
            let hub = b.add_node("hub", Value::Null);
            for i in 0..DEG {
                let leaf = b.add_node("leaf", Value::Int(i64::from(i)));
                if hub_is_source {
                    b.add_edge(hub, leaf).unwrap();
                } else {
                    b.add_edge(leaf, hub).unwrap();
                }
            }
            let g = b.build();
            let mut nodes: Vec<NodeId> = (1..10).map(|i| NodeId(i * 9_973)).collect();
            nodes.push(hub);
            let mut arena = ScratchArena::new();
            let view = FragmentView::induced(&g, &nodes, &mut arena);
            assert_eq!(view.edge_count(), 9);
            assert_eq!(view.out_degree(hub) + view.in_degree(hub), 9);
            // c·|G_Q|·log2(deg) with c = 2 (gallop out + bisect back).
            let bound = 2 * nodes.len() as u64 * u64::from(DEG.ilog2() + 1);
            assert!(
                view.adjacency_reads() <= bound,
                "{} reads for a 10-node fragment (bound {bound})",
                view.adjacency_reads()
            );

            // A second, smaller view in the same arena: no stale members,
            // edges or counters from the first.
            let view = FragmentView::induced(&g, &[NodeId(5), NodeId(6)], &mut arena);
            assert_eq!((view.node_count(), view.edge_count()), (2, 0));
            assert!(!view.contains_node(hub) && !view.contains_node(nodes[0]));
            assert_eq!(view.in_neighbors(NodeId(5)), &[] as &[NodeId]);
            assert_eq!(view.label_count(g.label(hub)), 0);
            assert!(view.adjacency_reads() <= 2);
        }
    }

    #[test]
    fn arena_reuse_rebuilds_cleanly() {
        let g = diamond_graph();
        let mut arena = ScratchArena::new();
        {
            let view = FragmentView::induced(&g, &[NodeId(0), NodeId(1), NodeId(2)], &mut arena);
            assert_eq!(view.node_count(), 3);
            assert!(view.contains_node(NodeId(2)));
        }
        // Rebuild with a disjoint fragment: nothing from the first build may
        // leak through.
        let view = FragmentView::induced(&g, &[NodeId(3), NodeId(4)], &mut arena);
        assert_eq!(view.node_count(), 2);
        assert!(!view.contains_node(NodeId(0)));
        assert!(!view.contains_node(NodeId(2)));
        assert!(view.has_edge(NodeId(3), NodeId(4)));
        assert_eq!(view.out_neighbors(NodeId(3)), &[NodeId(4)]);

        // And duplicates in the node list are deduplicated.
        let view = FragmentView::induced(&g, &[NodeId(1), NodeId(1)], &mut arena);
        assert_eq!(view.node_count(), 1);
        assert_eq!(view.edge_count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_nodes_are_rejected() {
        let g = diamond_graph();
        let mut arena = ScratchArena::new();
        let _ = FragmentView::induced(&g, &[NodeId(99)], &mut arena);
    }

    #[test]
    fn empty_view_behaves() {
        let g = diamond_graph();
        let mut arena = ScratchArena::new();
        let view = FragmentView::induced(&g, &[], &mut arena);
        assert_eq!(view.node_count(), 0);
        assert_eq!(view.edge_count(), 0);
        assert_eq!(view.node_ids().count(), 0);
        assert_eq!(view.edge_ids().count(), 0);
        assert!(!view.contains_node(NodeId(0)));
        let a = g.interner().get("a").unwrap();
        assert_eq!(view.nodes_with_label(a), &[] as &[NodeId]);
    }
}
