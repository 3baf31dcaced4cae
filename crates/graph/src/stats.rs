//! Graph statistics used to discover access constraints.
//!
//! Section II of the paper suggests four ways of finding access constraints
//! in real data: degree bounds, global label counts, functional dependencies
//! and aggregate queries. All of them reduce to simple statistics over the
//! graph which [`GraphStats`] collects in one pass:
//!
//! * how many nodes carry each label (type-1 constraints `∅ → (l, N)`);
//! * for each ordered label pair `(l, l')`, how many `l`-labeled nodes have
//!   each number of `l'`-labeled neighbors, whose maximum bounds the
//!   type-2 constraint `l → (l', N)` (`N = 1` corresponds to an FD);
//! * degree distribution summaries used for reporting.
//!
//! The pass walks the label index one label at a time and reads each node's
//! neighbours label by label ([`Graph::neighbor_runs_by`]): adjacency rows
//! are sorted by `(label, id)`, so a label's neighbours are one segment per
//! direction whose length is read off its bounds, not counted entry by
//! entry. Each `(l, l')` count lands in a histogram — the answer-length
//! histogram of the unary constraint `l → (l', N)` — so the unary access
//! indices of `bgpq-access` read their cardinality figures off this one
//! pass.
//! [`Graph::stats`] computes it once per graph version.

use crate::graph::{Graph, NodeId};
use crate::label::Label;
use std::collections::{BTreeMap, HashMap};

/// Aggregate statistics of a data graph.
#[derive(Debug, Clone)]
pub struct GraphStats {
    /// Number of nodes per label.
    pub label_counts: HashMap<Label, usize>,
    /// `answer_lengths[(l, l')]` maps each `k ≥ 1` to the number of
    /// `l`-labeled nodes with exactly `k` neighbors (either direction)
    /// labeled `l'`: the answer-length histogram of the unary constraint
    /// `l → (l', N)`, whose last key is the pair's [`GraphStats::fanout`].
    pub answer_lengths: HashMap<(Label, Label), BTreeMap<usize, usize>>,
    /// Maximum undirected degree over all nodes.
    pub max_degree: usize,
    /// Average undirected degree over all nodes.
    pub avg_degree: f64,
    /// Number of nodes.
    pub node_count: usize,
    /// Number of edges.
    pub edge_count: usize,
}

impl GraphStats {
    /// Computes statistics for `graph` in `O(|V| + Σ_v deg(v))` time and
    /// `O(|Σ|)` scratch space.
    pub fn compute(graph: &Graph) -> Self {
        let mut label_counts = HashMap::new();
        let mut answer_lengths = HashMap::new();
        let (mut max_degree, mut total_degree) = (0, 0);
        // By label id (one slot per label bucket): the current label's
        // histogram of neighbour counts, with the ids made nonempty.
        let width = graph.label_index.buckets().count();
        let mut per_label = vec![Vec::new(); width];
        let mut label_seen = Vec::new();
        // Every label by id, read once: a neighbour's label is then one load.
        let labels: Vec<Label> = graph.labels().collect();
        let label_of = |w: NodeId| labels[w.index()];
        // Deleted slots are in no bucket: the statistics describe the live
        // graph, so tombstones must not dilute counts or averages.
        for (lv, nodes) in graph.label_index().iter() {
            label_counts.insert(lv, nodes.len());
            for &v in nodes {
                let mut degree = 0;
                for (ln, run) in graph.neighbor_runs_by(v, label_of) {
                    let count = run.len();
                    degree += count;
                    let histogram: &mut Vec<usize> = &mut per_label[ln.index()];
                    if histogram.is_empty() {
                        label_seen.push(ln);
                    }
                    if histogram.len() <= count {
                        histogram.resize(count + 1, 0);
                    }
                    histogram[count] += 1;
                }
                max_degree = max_degree.max(degree);
                total_degree += degree;
            }
            for ln in label_seen.drain(..) {
                let histogram = std::mem::take(&mut per_label[ln.index()]);
                let lengths = histogram.into_iter().enumerate().filter(|&(_, n)| n > 0);
                answer_lengths.insert((lv, ln), lengths.collect());
            }
        }
        let node_count = graph.live_node_count();
        GraphStats {
            label_counts,
            answer_lengths,
            max_degree,
            avg_degree: total_degree as f64 / node_count.max(1) as f64,
            node_count,
            edge_count: graph.edge_count(),
        }
    }

    /// Number of nodes labeled `l` (0 when the label is unused).
    pub fn label_count(&self, l: Label) -> usize {
        self.label_counts.get(&l).copied().unwrap_or(0)
    }

    /// Maximum number of `l2`-labeled neighbors of any `l1`-labeled node.
    pub fn fanout(&self, l1: Label, l2: Label) -> usize {
        let lengths = self.answer_lengths.get(&(l1, l2));
        lengths
            .and_then(|l| l.keys().next_back().copied())
            .unwrap_or(0)
    }

    /// Labels sorted by increasing frequency (rarest first); useful when
    /// choosing which global constraints are worth indexing.
    pub fn labels_by_frequency(&self) -> Vec<(Label, usize)> {
        let mut v: Vec<(Label, usize)> = self.label_counts.iter().map(|(&l, &c)| (l, c)).collect();
        v.sort_by_key(|&(l, c)| (c, l));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::graph::NodeId;
    use crate::value::Value;

    fn star_graph(center_label: &str, leaf_label: &str, leaves: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let c = b.add_node(center_label, Value::Null);
        for _ in 0..leaves {
            let leaf = b.add_node(leaf_label, Value::Null);
            b.add_edge(c, leaf).unwrap();
        }
        b.build()
    }

    #[test]
    fn label_counts_are_exact() {
        let g = star_graph("movie", "actor", 5);
        let stats = GraphStats::compute(&g);
        let movie = g.interner().get("movie").unwrap();
        let actor = g.interner().get("actor").unwrap();
        assert_eq!(stats.label_count(movie), 1);
        assert_eq!(stats.label_count(actor), 5);
        assert_eq!(stats.node_count, 6);
        assert_eq!(stats.edge_count, 5);
    }

    #[test]
    fn fanout_captures_max_neighbor_count_per_label_pair() {
        let g = star_graph("movie", "actor", 4);
        let stats = GraphStats::compute(&g);
        let movie = g.interner().get("movie").unwrap();
        let actor = g.interner().get("actor").unwrap();
        // The movie sees 4 actors; each actor sees 1 movie.
        assert_eq!(stats.fanout(movie, actor), 4);
        assert_eq!(stats.fanout(actor, movie), 1);
        // Unrelated pairs default to 0.
        assert_eq!(stats.fanout(actor, actor), 0);
    }

    #[test]
    fn degree_summaries() {
        let g = star_graph("c", "l", 3);
        let stats = GraphStats::compute(&g);
        assert_eq!(stats.max_degree, 3);
        // degrees: center 3, three leaves 1 → avg 6/4
        assert!((stats.avg_degree - 1.5).abs() < 1e-9);
        assert_eq!(g.degree(NodeId(0)), 3);
    }

    #[test]
    fn labels_by_frequency_sorts_rarest_first() {
        let g = star_graph("hub", "leaf", 7);
        let stats = GraphStats::compute(&g);
        let order = stats.labels_by_frequency();
        assert_eq!(order.len(), 2);
        assert_eq!(order[0].1, 1);
        assert_eq!(order[1].1, 7);
    }

    /// Self-loops, a label on no node and a deleted node: the dense counts
    /// equal a per-node recount of the live graph.
    #[test]
    fn counts_equal_a_per_node_recount() {
        let mut b = GraphBuilder::new();
        b.intern_label("ghost");
        let ids: Vec<NodeId> = (0..40)
            .map(|i| b.add_node(["a", "b", "c"][i * 7 % 3], Value::Null))
            .collect();
        for i in 0..120 {
            b.add_edge(ids[i % 5], ids[i * 13 % 40]).unwrap();
        }
        let mut g = b.build();
        g.delete_node(ids[3]).unwrap();
        let stats = GraphStats::compute(&g);
        let (mut counts, mut lengths) = (HashMap::new(), HashMap::new());
        for v in g.nodes().filter(|&v| g.is_live(v)) {
            *counts.entry(g.label(v)).or_insert(0) += 1;
            let mut per_label = HashMap::new();
            for n in g.neighbors(v) {
                *per_label.entry(g.label(n)).or_insert(0) += 1;
            }
            for (l, c) in per_label {
                let histogram: &mut BTreeMap<usize, usize> =
                    lengths.entry((g.label(v), l)).or_default();
                *histogram.entry(c).or_insert(0) += 1;
            }
        }
        assert_eq!(stats.label_counts, counts);
        assert_eq!(stats.answer_lengths, lengths);
        let degrees: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
        assert_eq!(stats.max_degree, *degrees.iter().max().unwrap());
        assert_eq!(
            stats.avg_degree,
            degrees.iter().sum::<usize>() as f64 / 39.0
        );
    }

    #[test]
    fn empty_graph_stats() {
        let g = Graph::empty();
        let stats = GraphStats::compute(&g);
        assert_eq!(stats.node_count, 0);
        assert_eq!(stats.max_degree, 0);
        assert_eq!(stats.avg_degree, 0.0);
        assert!(stats.labels_by_frequency().is_empty());
    }
}
