//! The pattern query representation.

use crate::predicate::Predicate;
use bgpq_graph::{Label, LabelInterner};
use std::collections::BTreeSet;
use std::fmt;

/// Identifier of a pattern node, contiguous from `0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PatternNodeId(pub u32);

impl PatternNodeId {
    /// The node id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PatternNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

impl From<u32> for PatternNodeId {
    fn from(v: u32) -> Self {
        PatternNodeId(v)
    }
}

/// A single pattern node: a label plus a predicate on the attribute value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PatternNodeData {
    pub(crate) label: Label,
    pub(crate) predicate: Predicate,
    pub(crate) name: Option<String>,
}

/// A pattern query `Q = (V_Q, E_Q, f_Q, g_Q)`.
///
/// Patterns are immutable once built (see [`crate::PatternBuilder`]) and
/// carry a copy of the label interner they were built against so that labels
/// can be rendered by name in diagnostics.
#[derive(Debug, Clone)]
pub struct Pattern {
    pub(crate) interner: LabelInterner,
    pub(crate) nodes: Vec<PatternNodeData>,
    pub(crate) out: Vec<Vec<PatternNodeId>>,
    pub(crate) inc: Vec<Vec<PatternNodeId>>,
    pub(crate) edges: Vec<(PatternNodeId, PatternNodeId)>,
}

impl Pattern {
    /// Number of pattern nodes `|V_Q|`.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of pattern edges `|E_Q|`.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// `|Q| = |V_Q| + |E_Q|`.
    pub fn size(&self) -> usize {
        self.node_count() + self.edge_count()
    }

    /// True when the pattern has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The interner the pattern was built against.
    pub fn interner(&self) -> &LabelInterner {
        &self.interner
    }

    /// All pattern node ids.
    pub fn nodes(&self) -> impl Iterator<Item = PatternNodeId> + '_ {
        (0..self.nodes.len() as u32).map(PatternNodeId)
    }

    /// All directed pattern edges in insertion order.
    pub fn edges(&self) -> impl Iterator<Item = (PatternNodeId, PatternNodeId)> + '_ {
        self.edges.iter().copied()
    }

    /// True when `u` is a node of this pattern.
    pub fn contains_node(&self, u: PatternNodeId) -> bool {
        u.index() < self.nodes.len()
    }

    /// The label `f_Q(u)`.
    pub fn label(&self, u: PatternNodeId) -> Label {
        self.nodes[u.index()].label
    }

    /// The predicate `g_Q(u)`.
    pub fn predicate(&self, u: PatternNodeId) -> &Predicate {
        &self.nodes[u.index()].predicate
    }

    /// Optional human-readable name given at build time.
    pub fn node_name(&self, u: PatternNodeId) -> Option<&str> {
        self.nodes[u.index()].name.as_deref()
    }

    /// The column name of `u` in answers and explain text: its build-time
    /// name, else `u{i}`.
    pub fn column_name(&self, u: PatternNodeId) -> String {
        match self.node_name(u) {
            Some(name) => name.to_string(),
            None => u.to_string(),
        }
    }

    /// The label name of `u` (falls back to a placeholder).
    pub fn label_name(&self, u: PatternNodeId) -> String {
        self.interner.name_or_placeholder(self.label(u))
    }

    /// Children of `u`: nodes `u'` with an edge `(u, u')`.
    pub fn children(&self, u: PatternNodeId) -> &[PatternNodeId] {
        &self.out[u.index()]
    }

    /// Parents of `u`: nodes `u'` with an edge `(u', u)`.
    pub fn parents(&self, u: PatternNodeId) -> &[PatternNodeId] {
        &self.inc[u.index()]
    }

    /// All neighbors of `u` in either direction, deduplicated and sorted.
    pub fn neighbors(&self, u: PatternNodeId) -> Vec<PatternNodeId> {
        let mut all: Vec<PatternNodeId> = self.out[u.index()]
            .iter()
            .chain(self.inc[u.index()].iter())
            .copied()
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// True when the directed edge `(src, dst)` is in the pattern.
    pub fn has_edge(&self, src: PatternNodeId, dst: PatternNodeId) -> bool {
        self.out[src.index()].binary_search(&dst).is_ok()
    }

    /// Undirected degree of `u`.
    pub fn degree(&self, u: PatternNodeId) -> usize {
        self.neighbors(u).len()
    }

    /// The set of distinct labels used by the pattern.
    pub fn distinct_labels(&self) -> BTreeSet<Label> {
        self.nodes.iter().map(|n| n.label).collect()
    }

    /// The number of distinct labels, written `L_Q` in Section V.
    pub fn label_count(&self) -> usize {
        self.distinct_labels().len()
    }

    /// Total number of predicate atoms across all nodes (the `#p` of the
    /// experiment workload generator).
    pub fn predicate_count(&self) -> usize {
        self.nodes.iter().map(|n| n.predicate.len()).sum()
    }

    /// Pattern nodes carrying `label`.
    pub fn nodes_with_label(&self, label: Label) -> Vec<PatternNodeId> {
        self.nodes().filter(|&u| self.label(u) == label).collect()
    }

    /// True when the pattern is weakly connected (ignoring edge direction).
    /// The empty pattern is considered connected.
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![PatternNodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for n in self.neighbors(u) {
                if !seen[n.index()] {
                    seen[n.index()] = true;
                    count += 1;
                    stack.push(n);
                }
            }
        }
        count == self.nodes.len()
    }

    /// True when, for every node, its parents carry pairwise distinct labels
    /// (one of the special cases of Theorem 2 with a better complexity).
    pub fn parents_have_distinct_labels(&self) -> bool {
        self.nodes().all(|u| {
            let mut labels: Vec<Label> = self.parents(u).iter().map(|&p| self.label(p)).collect();
            let before = labels.len();
            labels.sort_unstable();
            labels.dedup();
            labels.len() == before
        })
    }
}

impl fmt::Display for Pattern {
    /// Renders a pattern in a compact multi-line form:
    ///
    /// ```text
    /// pattern (4 nodes, 3 edges)
    ///   u0: movie [true]
    ///   u1: year [x >= 2011 && x <= 2013]
    ///   u1 -> u0
    /// ```
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pattern ({} nodes, {} edges)",
            self.node_count(),
            self.edge_count()
        )?;
        for u in self.nodes() {
            writeln!(f, "  {}: {} [{}]", u, self.label_name(u), self.predicate(u))?;
        }
        for (s, d) in self.edges() {
            writeln!(f, "  {s} -> {d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PatternBuilder;
    use crate::predicate::{Op, Predicate};

    /// The paper's running example Q0 (Fig. 1): actor/actress co-starring in
    /// an award-winning movie from 2011-2013, same country of origin.
    fn q0() -> Pattern {
        let mut b = PatternBuilder::new();
        let award = b.node("award", Predicate::always());
        let year = b.node("year", Predicate::range(2011, 2013));
        let movie = b.node("movie", Predicate::always());
        let actor = b.node("actor", Predicate::always());
        let actress = b.node("actress", Predicate::always());
        let country = b.node("country", Predicate::always());
        b.edge(movie, award);
        b.edge(movie, year);
        b.edge(movie, actor);
        b.edge(movie, actress);
        b.edge(actor, country);
        b.edge(actress, country);
        b.build()
    }

    #[test]
    fn q0_shape() {
        let q = q0();
        assert_eq!(q.node_count(), 6);
        assert_eq!(q.edge_count(), 6);
        assert_eq!(q.size(), 12);
        assert!(!q.is_empty());
        assert!(q.is_connected());
        assert_eq!(q.label_count(), 6);
        assert_eq!(q.distinct_labels().len(), 6);
    }

    #[test]
    fn adjacency_and_labels() {
        let q = q0();
        let movie = PatternNodeId(2);
        let award = PatternNodeId(0);
        let country = PatternNodeId(5);
        assert_eq!(q.label_name(movie), "movie");
        assert!(q.has_edge(movie, award));
        assert!(!q.has_edge(award, movie));
        assert_eq!(q.children(movie).len(), 4);
        assert_eq!(q.parents(movie).len(), 0);
        assert_eq!(q.parents(country).len(), 2);
        assert_eq!(q.degree(movie), 4);
        assert_eq!(q.neighbors(country).len(), 2);
        assert!(q.contains_node(movie));
        assert!(!q.contains_node(PatternNodeId(10)));
    }

    #[test]
    fn predicates_are_attached_to_the_right_node() {
        let q = q0();
        let year = PatternNodeId(1);
        assert_eq!(q.predicate(year).len(), 2);
        assert!(q.predicate(PatternNodeId(0)).is_empty());
        assert_eq!(q.predicate_count(), 2);
    }

    #[test]
    fn nodes_with_label_filters() {
        let q = q0();
        let actor_label = q.interner().get("actor").unwrap();
        assert_eq!(q.nodes_with_label(actor_label), vec![PatternNodeId(3)]);
        let missing = Label(999);
        assert!(q.nodes_with_label(missing).is_empty());
    }

    #[test]
    fn connectivity_detects_disconnected_patterns() {
        let mut b = PatternBuilder::new();
        let a = b.node("a", Predicate::always());
        let c = b.node("b", Predicate::always());
        b.node("c", Predicate::always());
        b.edge(a, c);
        let q = b.build();
        assert!(!q.is_connected());
    }

    #[test]
    fn parents_with_distinct_labels_special_case() {
        let q = q0();
        assert!(q.parents_have_distinct_labels());

        // Two parents with the same label ("person" twice) violate the case.
        let mut b = PatternBuilder::new();
        let p1 = b.node("person", Predicate::always());
        let p2 = b.node("person", Predicate::always());
        let city = b.node("city", Predicate::always());
        b.edge(p1, city);
        b.edge(p2, city);
        let q2 = b.build();
        assert!(!q2.parents_have_distinct_labels());
    }

    #[test]
    fn empty_pattern_is_connected_and_sized_zero() {
        let q = PatternBuilder::new().build();
        assert!(q.is_connected());
        assert_eq!(q.size(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn named_nodes_and_display() {
        let mut b = PatternBuilder::new();
        let u = b.named_node("m", "movie", Predicate::single(Op::Eq, "Argo"));
        let q = b.build();
        assert_eq!(q.node_name(u), Some("m"));
        let rendered = q.to_string();
        assert!(rendered.contains("movie"));
        assert!(rendered.contains("pattern (1 nodes, 0 edges)"));
        assert_eq!(u.to_string(), "u0");
        // A column is named after the node, else after its id.
        let mut b = PatternBuilder::new();
        b.named_node("m", "movie", Predicate::always());
        let v = b.node("year", Predicate::always());
        let q2 = b.build();
        assert_eq!(
            (q2.column_name(u), q2.column_name(v)),
            ("m".into(), "u1".into())
        );
    }
}
