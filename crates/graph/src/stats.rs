//! Graph statistics used to discover access constraints.
//!
//! Section II of the paper suggests four ways of finding access constraints
//! in real data: degree bounds, global label counts, functional dependencies
//! and aggregate queries. All of them reduce to simple statistics over the
//! graph which [`GraphStats`] collects in one pass:
//!
//! * how many nodes carry each label (type-1 constraints `∅ → (l, N)`);
//! * for each ordered label pair `(l, l')`, the maximum number of
//!   `l'`-labeled neighbors any `l`-labeled node has (type-2 constraints
//!   `l → (l', N)`, and `N = 1` corresponds to an FD);
//! * degree distribution summaries used for reporting.
//!
//! The pass walks the label index one label at a time and counts neighbour
//! labels into arrays indexed by label id: an adjacency entry costs an
//! array increment, and each map entry is written once.

use crate::graph::Graph;
use crate::label::Label;
use std::collections::HashMap;

/// Aggregate statistics of a data graph.
#[derive(Debug, Clone)]
pub struct GraphStats {
    /// Number of nodes per label.
    pub label_counts: HashMap<Label, usize>,
    /// `fanout[(l, l')]` = max over `l`-labeled nodes of the number of
    /// neighbors (either direction) labeled `l'`.
    pub max_label_fanout: HashMap<(Label, Label), usize>,
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
        let mut max_label_fanout = HashMap::new();
        let (mut max_degree, mut total_degree) = (0, 0);
        // By label id (one slot per label bucket): the current node's
        // neighbour counts and their maxima over the current label, each
        // with the ids it has made nonzero.
        let width = graph.label_index.buckets().count();
        let (mut per_node, mut per_label) = (vec![0usize; width], vec![0usize; width]);
        let (mut node_seen, mut label_seen) = (Vec::new(), Vec::new());
        // Deleted slots are in no bucket: the statistics describe the live
        // graph, so tombstones must not dilute counts or averages.
        for (lv, nodes) in graph.label_index().iter() {
            label_counts.insert(lv, nodes.len());
            for &v in nodes {
                let mut degree = 0;
                for n in graph.neighbor_iter(v) {
                    degree += 1;
                    let ln = graph.label(n).index();
                    if per_node[ln] == 0 {
                        node_seen.push(ln);
                    }
                    per_node[ln] += 1;
                }
                max_degree = max_degree.max(degree);
                total_degree += degree;
                for ln in node_seen.drain(..) {
                    if per_label[ln] == 0 {
                        label_seen.push(ln);
                    }
                    per_label[ln] = per_label[ln].max(std::mem::take(&mut per_node[ln]));
                }
            }
            for ln in label_seen.drain(..) {
                let max = std::mem::take(&mut per_label[ln]);
                max_label_fanout.insert((lv, Label(ln as u32)), max);
            }
        }
        let node_count = graph.live_node_count();
        GraphStats {
            label_counts,
            max_label_fanout,
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
        self.max_label_fanout.get(&(l1, l2)).copied().unwrap_or(0)
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
        let (mut counts, mut fanout) = (HashMap::new(), HashMap::new());
        for v in g.nodes().filter(|&v| g.is_live(v)) {
            *counts.entry(g.label(v)).or_insert(0) += 1;
            let mut per_label = HashMap::new();
            for n in g.neighbors(v) {
                *per_label.entry(g.label(n)).or_insert(0) += 1;
            }
            for (l, c) in per_label {
                let max = fanout.entry((g.label(v), l)).or_insert(0);
                *max = c.max(*max);
            }
        }
        assert_eq!(stats.label_counts, counts);
        assert_eq!(stats.max_label_fanout, fanout);
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
