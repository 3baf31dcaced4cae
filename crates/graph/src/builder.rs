//! Incremental construction of [`Graph`]s.
//!
//! The builder accepts nodes (label name + value) and directed edges in any
//! order and produces a [`Graph`] whose adjacency rows are sorted by
//! `(neighbour label, id)`, and a label index. Adding an edge only appends
//! it to a list: parallel edges are dropped in [`GraphBuilder::build`],
//! whose counting sort puts each node's neighbours side by side anyway, so a
//! streamed graph costs no hash probe per edge.
//!
//! **The graph is built at its own size.** A value moves into the graph's
//! paged array a page at a time as nodes arrive, so values are never held
//! twice. `build` counts both directions' CSR arrays (`u32` offsets) in one
//! pass over the edge list and fills them in a second that consumes it;
//! then it cuts the out-rows' pages from the out-CSR and drops it before it
//! cuts the in-rows'. Its peak is the finished graph plus the in-CSR,
//! `4·|E| + 4·|V|` bytes: on the 600k-node benchmark graph (1.78M edges,
//! 39 MB resident once built) a fresh process peaks at 54.4 MB (66.7 MB
//! when every row took a 24-byte slot). Both sources of a graph, this
//! builder and the snapshot decoder, make their row pages through one
//! function, `rows_from_csr`.

use crate::adjacency::{Adjacency, Cut, Source};
use crate::error::GraphError;
use crate::graph::{Graph, NodeId, TOMBSTONE};
use crate::label::{Label, LabelInterner};
use crate::label_index::LabelIndex;
use crate::paged::{PagedVec, PAGE_SIZE};
use crate::value::Value;
use crate::Result;

/// Builder for [`Graph`].
///
/// ```
/// use bgpq_graph::{GraphBuilder, Value};
///
/// let mut b = GraphBuilder::new();
/// let movie = b.add_node("movie", Value::str("Argo"));
/// let actor = b.add_node("actor", Value::str("Alan"));
/// b.add_edge(movie, actor).unwrap();
/// let g = b.build();
/// assert_eq!(g.node_count(), 2);
/// assert!(g.has_edge(movie, actor));
/// ```
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    interner: LabelInterner,
    labels: Vec<Label>,
    /// The graph's own value array, filled a page at a time as nodes
    /// arrive: a value waits in `page` until its page is full.
    values: PagedVec<Value>,
    page: Vec<Value>,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates an empty builder with a fresh label interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder that reuses an existing label interner, so that the
    /// produced graph shares label ids with previously built artifacts
    /// (patterns, schemas).
    pub fn with_interner(interner: LabelInterner) -> Self {
        GraphBuilder {
            interner,
            ..Self::default()
        }
    }

    /// Creates a builder with capacity hints for nodes and edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        GraphBuilder {
            labels: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            ..Self::default()
        }
    }

    /// Access to the interner being populated.
    pub fn interner(&self) -> &LabelInterner {
        &self.interner
    }

    /// Interns a label name without creating a node.
    pub fn intern_label(&mut self, name: &str) -> Label {
        self.interner.intern(name)
    }

    /// Adds a node with a label given by name, returning its id.
    pub fn add_node(&mut self, label_name: &str, value: Value) -> NodeId {
        let label = self.interner.intern(label_name);
        self.add_node_labeled(label, value)
    }

    /// Adds a node with an already-interned label.
    pub fn add_node_labeled(&mut self, label: Label, value: Value) -> NodeId {
        let id = NodeId(self.labels.len() as u32);
        self.labels.push(label);
        self.page.push(value);
        if self.page.len() == PAGE_SIZE {
            self.values.extend(self.page.drain(..));
        }
        id
    }

    /// Adds a directed edge `(src, dst)`.
    ///
    /// Duplicate edges are dropped at [`GraphBuilder::build`] (the graph is
    /// simple); referencing a missing endpoint is an error.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId) -> Result<()> {
        let n = self.labels.len() as u32;
        if src.0 >= n || dst.0 >= n {
            return Err(GraphError::EndpointNotFound {
                src: src.0 as u64,
                dst: dst.0 as u64,
            });
        }
        self.edges.push((src, dst));
        Ok(())
    }

    /// Adds every edge in `edges`; stops at the first error.
    pub fn add_edges<I>(&mut self, edges: I) -> Result<()>
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        for (src, dst) in edges {
            self.add_edge(src, dst)?;
        }
        Ok(())
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Finalizes the builder into an immutable [`Graph`] (see the module
    /// docs for the order in which it lets go of its scratch).
    pub fn build(self) -> Graph {
        let GraphBuilder {
            interner,
            labels,
            mut values,
            page,
            edges,
        } = self;
        values.extend(page);
        let label_index = LabelIndex::build(&labels, interner.len());
        let [out, inc] = Csr::both_directions(labels.len(), edges);
        let out = out.into_rows(&labels);
        let inc = inc.into_rows(&labels);
        Graph {
            interner,
            labels: labels.into_iter().collect(),
            values,
            edge_count: out.iter().map(|row| row.len()).sum(),
            out,
            inc,
            label_index,
            dead_count: 0,
            row_ids_copied: 0,
            stats: Default::default(),
        }
    }
}

/// One direction of the edge list as compressed sparse rows: node `v`'s
/// neighbours are `targets[offsets[v]..offsets[v + 1]]`, in the order the
/// edges were added, repeats included.
struct Csr {
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
}

impl Csr {
    /// The out- and in-CSR of `edges`, both counted in one pass over the
    /// list and filled in a second that consumes it.
    fn both_directions(n: usize, edges: Vec<(NodeId, NodeId)>) -> [Csr; 2] {
        let m = edges.len();
        assert!(
            u32::try_from(m).is_ok(),
            "{m} edges overflow the builder's u32 offsets"
        );
        let mut both = [(); 2].map(|_| Csr {
            offsets: vec![0; n + 2],
            targets: vec![NodeId(0); m],
        });
        // Row `v`'s count goes to slot `v + 2`, so that after the prefix
        // sums slot `v + 1` is where row `v` starts; filling row `v`
        // advances that slot to its end, which is where row `v + 1` starts.
        for &(src, dst) in &edges {
            both[0].offsets[src.index() + 2] += 1;
            both[1].offsets[dst.index() + 2] += 1;
        }
        for csr in &mut both {
            for v in 2..csr.offsets.len() {
                csr.offsets[v] += csr.offsets[v - 1];
            }
        }
        for (src, dst) in edges {
            both[0].place(src, dst);
            both[1].place(dst, src);
        }
        for csr in &mut both {
            csr.offsets.pop();
        }
        both
    }

    /// Writes `neighbor` at the fill position of `node`'s row.
    fn place(&mut self, node: NodeId, neighbor: NodeId) {
        let at = &mut self.offsets[node.index() + 1];
        self.targets[*at as usize] = neighbor;
        *at += 1;
    }

    /// The graph's rows, each sorted in place and rid of repeats; the CSR
    /// is dropped once they are cut.
    fn into_rows(self, labels: &[Label]) -> Adjacency {
        let Csr {
            offsets,
            mut targets,
        } = self;
        let rows = rows_from_csr(labels, |v, row| {
            let ids = &mut targets[offsets[v] as usize..offsets[v + 1] as usize];
            ids.sort_unstable();
            row.extend_from_slice(ids);
            row.dedup();
            Ok::<_, std::convert::Infallible>(())
        });
        rows.unwrap_or_else(|never| match never {})
    }
}

/// Cuts the pages of rows, one row per node, out of a CSR — the one way
/// adjacency pages are made from many rows, by [`GraphBuilder::build`] and
/// by the snapshot decoder alike. `cut(v, row)` appends node `v`'s
/// neighbours to the empty `row` in id order, each once, or refuses the
/// whole CSR. The row is then put in `(label, id)` order: when labels do
/// not descend anywhere along the ids — each label a contiguous id range
/// in interning order, as the scenario generators emit them — id order
/// already is that order; otherwise a row whose labels descend is sorted
/// again by label. Each page is laid out as its last row arrives.
pub(crate) fn rows_from_csr<E>(
    labels: &[Label],
    mut cut: impl FnMut(usize, &mut Vec<NodeId>) -> std::result::Result<(), E>,
) -> std::result::Result<Adjacency, E> {
    let by_id = labels_ascend(labels);
    let mut row = Vec::new();
    let mut pages = Vec::with_capacity(labels.len().div_ceil(PAGE_SIZE));
    let mut page = Cut::new();
    for v in 0..labels.len() {
        row.clear();
        cut(v, &mut row)?;
        if !by_id {
            group_by_label(&mut row, labels);
        }
        page.push(Source::Ids(&row));
        if page.is_full() {
            pages.push(std::mem::replace(&mut page, Cut::new()).finish());
        }
    }
    if labels.len() % PAGE_SIZE != 0 {
        pages.push(page.finish());
    }
    Ok(Adjacency::from_pages(pages, labels.len()))
}

/// True when no live node's label is below an earlier live node's: then
/// every id-sorted row is in `(label, id)` order already. Deleted slots
/// carry the tombstone sentinel and sit in no row, so they are skipped.
fn labels_ascend(labels: &[Label]) -> bool {
    let mut live = labels.iter().filter(|&&label| label != TOMBSTONE);
    let mut previous = Label(0);
    live.all(|&label| std::mem::replace(&mut previous, label) <= label)
}

/// Reorders an id-sorted row into `(label, id)` order, reading each label
/// once; a row whose labels already ascend is left as it is.
fn group_by_label(row: &mut [NodeId], labels: &[Label]) {
    let label = |v: NodeId| labels[v.index()];
    if row.windows(2).any(|pair| label(pair[0]) > label(pair[1])) {
        row.sort_by_key(|&v| (label(v), v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_simple_graph() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("a", Value::Null);
        let c = b.add_node("b", Value::Int(1));
        b.add_edge(a, c).unwrap();
        assert_eq!(b.node_count(), 2);
        let g = b.build();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(a, c));
        assert!(!g.has_edge(c, a));
    }

    #[test]
    fn duplicate_edges_are_deduplicated() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("a", Value::Null);
        let c = b.add_node("b", Value::Null);
        b.add_edge(a, c).unwrap();
        b.add_edge(a, c).unwrap();
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.out_neighbors(a), &[c]);
        assert_eq!(g.in_neighbors(c), &[a]);
    }

    /// Random edge lists, self-loops and repeats included, added in random
    /// orders: the graph is the one a set of the edges describes.
    #[test]
    fn repeated_edges_in_any_order_build_the_set_model() {
        use std::collections::BTreeSet;
        let mut state = 0x5EED_u64;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % bound
        };
        for round in 0..40 {
            let n = 1 + next(30);
            let mut edges: Vec<(NodeId, NodeId)> = (0..next(4 * n + 1))
                .map(|_| (NodeId(next(n) as u32), NodeId(next(n) as u32)))
                .collect();
            for i in 0..next(edges.len() + 1) {
                edges.push(edges[i]);
            }
            for i in (1..edges.len()).rev() {
                edges.swap(i, next(i + 1));
            }
            let mut b = GraphBuilder::new();
            for _ in 0..n {
                b.add_node("x", Value::Null);
            }
            b.add_edges(edges.iter().copied()).unwrap();
            let g = b.build();
            let model: BTreeSet<(NodeId, NodeId)> = edges.into_iter().collect();
            assert_eq!(g.edge_count(), model.len(), "round {round}");
            assert!(g.edges().map(|e| (e.src, e.dst)).eq(model.iter().copied()));
            for v in g.nodes() {
                let inc: Vec<NodeId> = model.iter().filter(|e| e.1 == v).map(|e| e.0).collect();
                assert_eq!(g.in_neighbors(v), inc.as_slice(), "round {round}");
                let mut both: Vec<NodeId> = model
                    .iter()
                    .filter_map(|&(s, d)| (s == v).then_some(d).or((d == v).then_some(s)))
                    .collect();
                both.sort_unstable();
                both.dedup();
                assert_eq!(g.neighbors(v), both, "round {round}");
                assert_eq!(g.degree(v), both.len());
            }
        }
    }

    #[test]
    fn missing_endpoint_is_an_error() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("a", Value::Null);
        let err = b.add_edge(a, NodeId(5)).unwrap_err();
        assert!(matches!(err, GraphError::EndpointNotFound { .. }));
    }

    #[test]
    fn add_edges_bulk() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("a", Value::Null);
        let c = b.add_node("b", Value::Null);
        let d = b.add_node("c", Value::Null);
        b.add_edges([(a, c), (c, d), (d, a)]).unwrap();
        let g = b.build();
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn with_interner_shares_label_ids() {
        let mut interner = LabelInterner::new();
        let movie = interner.intern("movie");
        let mut b = GraphBuilder::with_interner(interner);
        let m = b.add_node("movie", Value::Null);
        let g = b.build();
        assert_eq!(g.label(m), movie);
    }

    #[test]
    fn adjacency_is_sorted_regardless_of_insertion_order() {
        let mut b = GraphBuilder::with_capacity(4, 3);
        let hub = b.add_node("hub", Value::Null);
        let n3 = b.add_node("x", Value::Null);
        let n2 = b.add_node("x", Value::Null);
        let n1 = b.add_node("x", Value::Null);
        // Insert in descending order of destination id.
        b.add_edge(hub, n1).unwrap();
        b.add_edge(hub, n2).unwrap();
        b.add_edge(hub, n3).unwrap();
        let g = b.build();
        let out = g.out_neighbors(hub);
        let mut sorted = out.to_vec();
        sorted.sort_unstable();
        assert_eq!(out, sorted.as_slice());
    }

    #[test]
    fn intern_label_without_node() {
        let mut b = GraphBuilder::new();
        let l = b.intern_label("ghost");
        assert_eq!(b.interner().get("ghost"), Some(l));
        let g = b.build();
        assert_eq!(g.label_count(l), 0);
    }
}
