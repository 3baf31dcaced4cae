//! Random pattern-query workloads.
//!
//! Section VII of the paper generates, for every dataset, 100 random pattern
//! queries over the dataset's label alphabet, controlled by the number of
//! nodes `#n ∈ [3, 7]`, the number of edges `#e ∈ [#n − 1, 1.5·#n]` and the
//! number of match predicates `#p ∈ [2, 8]`. [`WorkloadGenerator`] reproduces
//! that generator with two sampling modes:
//!
//! * [`WorkloadGenerator::generate`] — label-random patterns: labels are
//!   drawn from the graph's alphabet and a random weakly connected pattern is
//!   assembled (a spanning tree plus extra random edges). This is the paper's
//!   generator; such patterns may or may not have matches.
//! * [`WorkloadGenerator::generate_anchored`] — patterns extracted from an
//!   actual connected fragment of the data graph, so that at least one
//!   subgraph-isomorphism match is guaranteed (predicates are chosen to hold
//!   on the sampled fragment). These are used when measuring evaluation cost,
//!   where empty answers would make baselines look artificially fast.

use crate::builder::PatternBuilder;
use crate::pattern::{Pattern, PatternNodeId};
use crate::predicate::{Atom, Op, Predicate};
use crate::rng::DetRng;
use bgpq_graph::{Graph, NodeId, Value};

/// Parameters of the workload generator.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Inclusive range for the number of pattern nodes `#n`.
    pub min_nodes: usize,
    /// Inclusive upper bound for `#n`.
    pub max_nodes: usize,
    /// Multiplier on `#n` giving the upper bound for `#e`
    /// (the lower bound is always `#n − 1`, a spanning tree).
    pub edge_factor: f64,
    /// Inclusive range for the total number of predicate atoms `#p`.
    pub min_predicates: usize,
    /// Inclusive upper bound for `#p`.
    pub max_predicates: usize,
    /// RNG seed; workloads are fully deterministic given the seed.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    /// The paper's ranges: `#n ∈ [3,7]`, `#e ∈ [#n−1, 1.5·#n]`, `#p ∈ [2,8]`.
    fn default() -> Self {
        GeneratorConfig {
            min_nodes: 3,
            max_nodes: 7,
            edge_factor: 1.5,
            min_predicates: 2,
            max_predicates: 8,
            seed: 0x1CDE_2015,
        }
    }
}

impl GeneratorConfig {
    /// A config that generates patterns with exactly `n` nodes.
    pub fn with_exact_nodes(n: usize) -> Self {
        GeneratorConfig {
            min_nodes: n,
            max_nodes: n,
            ..Default::default()
        }
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Deterministic random workload generator over a data graph.
#[derive(Debug)]
pub struct WorkloadGenerator {
    config: GeneratorConfig,
    rng: DetRng,
}

impl WorkloadGenerator {
    /// Creates a generator from a configuration.
    pub fn new(config: GeneratorConfig) -> Self {
        let rng = DetRng::seed_from_u64(config.seed);
        WorkloadGenerator { config, rng }
    }

    /// Creates a generator with the paper's default parameters and `seed`.
    pub fn with_seed(seed: u64) -> Self {
        Self::new(GeneratorConfig::default().with_seed(seed))
    }

    /// The configuration in use.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Generates `count` label-random patterns over `graph`'s label alphabet.
    pub fn generate(&mut self, graph: &Graph, count: usize) -> Vec<Pattern> {
        (0..count).map(|_| self.generate_one(graph)).collect()
    }

    /// Generates `count` patterns anchored on actual fragments of `graph`,
    /// guaranteeing at least one subgraph-isomorphism match each.
    pub fn generate_anchored(&mut self, graph: &Graph, count: usize) -> Vec<Pattern> {
        (0..count)
            .map(|_| self.generate_one_anchored(graph))
            .collect()
    }

    /// Generates one label-random pattern.
    pub fn generate_one(&mut self, graph: &Graph) -> Pattern {
        let n = self.pick_node_count();
        let labels: Vec<_> = graph
            .interner()
            .labels()
            .filter(|&l| graph.label_count(l) > 0)
            .collect();
        let mut builder = PatternBuilder::with_interner(graph.interner().clone());
        let mut ids = Vec::with_capacity(n);
        for _ in 0..n {
            let label = if labels.is_empty() {
                builder.interner().get("node").unwrap_or_default()
            } else {
                *self.rng.choose(&labels).expect("non-empty")
            };
            ids.push(builder.node_labeled(label, Predicate::always()));
        }
        self.wire_random_edges(&mut builder, &ids);
        let pattern = builder.build();
        self.attach_predicates(graph, pattern, None)
    }

    /// Generates one pattern anchored on a random connected fragment.
    pub fn generate_one_anchored(&mut self, graph: &Graph) -> Pattern {
        if graph.is_empty() {
            return PatternBuilder::with_interner(graph.interner().clone()).build();
        }
        let n = self.pick_node_count();
        let fragment = self.sample_connected_fragment(graph, n);
        let mut builder = PatternBuilder::with_interner(graph.interner().clone());
        let ids: Vec<PatternNodeId> = fragment
            .iter()
            .map(|&v| builder.node_labeled(graph.label(v), Predicate::always()))
            .collect();
        // Mirror every data edge between sampled nodes as a pattern edge.
        for (i, &v) in fragment.iter().enumerate() {
            for (j, &w) in fragment.iter().enumerate() {
                if i != j && graph.has_edge(v, w) {
                    builder.edge(ids[i], ids[j]);
                }
            }
        }
        let pattern = builder.build();
        self.attach_predicates(graph, pattern, Some(&fragment))
    }

    fn pick_node_count(&mut self) -> usize {
        if self.config.min_nodes >= self.config.max_nodes {
            self.config.min_nodes.max(1)
        } else {
            self.rng
                .random_range(self.config.min_nodes..=self.config.max_nodes)
                .max(1)
        }
    }

    fn pick_predicate_count(&mut self) -> usize {
        if self.config.min_predicates >= self.config.max_predicates {
            self.config.min_predicates
        } else {
            self.rng
                .random_range(self.config.min_predicates..=self.config.max_predicates)
        }
    }

    /// Wires a random weakly connected edge set: a random spanning tree plus
    /// extra edges up to `#e ≤ edge_factor · #n`.
    fn wire_random_edges(&mut self, builder: &mut PatternBuilder, ids: &[PatternNodeId]) {
        let n = ids.len();
        if n <= 1 {
            return;
        }
        // Spanning tree: connect node i to a random previous node.
        for i in 1..n {
            let j = self.rng.random_range(0..i);
            if self.rng.random_bool(0.5) {
                builder.edge(ids[j], ids[i]);
            } else {
                builder.edge(ids[i], ids[j]);
            }
        }
        let max_edges = ((n as f64) * self.config.edge_factor).floor() as usize;
        let target = if max_edges > n - 1 {
            self.rng.random_range((n - 1)..=max_edges)
        } else {
            n - 1
        };
        let mut attempts = 0;
        while builder.edge_count() < target && attempts < 10 * target {
            attempts += 1;
            let a = ids[self.rng.random_range(0..n)];
            let b = ids[self.rng.random_range(0..n)];
            if a != b {
                builder.edge(a, b);
            }
        }
    }

    /// Random-walk / BFS hybrid sampling of a weakly connected fragment of
    /// `graph` with up to `n` nodes.
    fn sample_connected_fragment(&mut self, graph: &Graph, n: usize) -> Vec<NodeId> {
        let start = NodeId(self.rng.random_range(0..graph.node_count()) as u32);
        let mut fragment = vec![start];
        let mut frontier = graph.neighbors(start);
        while fragment.len() < n && !frontier.is_empty() {
            let idx = self.rng.random_range(0..frontier.len());
            let next = frontier.swap_remove(idx);
            if fragment.contains(&next) {
                continue;
            }
            fragment.push(next);
            for nb in graph.neighbors(next) {
                if !fragment.contains(&nb) && !frontier.contains(&nb) {
                    frontier.push(nb);
                }
            }
        }
        fragment
    }

    /// Distributes `#p` predicate atoms over the nodes of `pattern`.
    ///
    /// When `anchor` is given, node `i` of the pattern corresponds to data
    /// node `anchor[i]` and the atoms are chosen to hold on that node's
    /// value; otherwise constants are sampled from data nodes with the same
    /// label (which keeps predicates satisfiable in the graph at large).
    fn attach_predicates(
        &mut self,
        graph: &Graph,
        pattern: Pattern,
        anchor: Option<&[NodeId]>,
    ) -> Pattern {
        let total = self.pick_predicate_count();
        let n = pattern.node_count();
        if n == 0 {
            return pattern;
        }
        let mut atoms_per_node = vec![Vec::new(); n];
        for _ in 0..total {
            let i = self.rng.random_range(0..n);
            let u = PatternNodeId(i as u32);
            let value = match anchor {
                Some(nodes) if i < nodes.len() => graph.value(nodes[i]).clone(),
                _ => {
                    let candidates = graph.nodes_with_label(pattern.label(u));
                    let pick = match candidates.len() {
                        0 => None,
                        len => candidates.iter().nth(self.rng.random_range(0..len)),
                    };
                    pick.map_or(Value::Null, |&v| graph.value(v).clone())
                }
            };
            if value.is_null() {
                continue;
            }
            let satisfied = anchor.is_some();
            atoms_per_node[i].push(self.make_atom(value, satisfied));
        }

        // Rebuild the pattern with predicates attached.
        let mut builder = PatternBuilder::with_interner(pattern.interner().clone());
        for u in pattern.nodes() {
            let atoms = std::mem::take(&mut atoms_per_node[u.index()]);
            builder.node_labeled(pattern.label(u), Predicate::conjunction(atoms));
        }
        for (s, d) in pattern.edges() {
            builder.edge(s, d);
        }
        builder.build()
    }

    /// Builds a random atom around `value`. When `must_hold` is true the atom
    /// is guaranteed to evaluate to true on `value`.
    fn make_atom(&mut self, value: Value, must_hold: bool) -> Atom {
        let op = *self.rng.choose(&Op::ALL).expect("non-empty");
        if !must_hold {
            return Atom::new(op, value);
        }
        match value {
            Value::Int(i) => match op {
                Op::Eq | Op::Le | Op::Ge => Atom::new(op, i),
                Op::Lt => Atom::new(Op::Lt, i.saturating_add(1)),
                Op::Gt => Atom::new(Op::Gt, i.saturating_sub(1)),
                Op::Ne => Atom::new(Op::Ne, i.wrapping_add(1)),
            },
            Value::Float(x) => match op {
                Op::Eq | Op::Le | Op::Ge => Atom::new(op, x),
                Op::Lt => Atom::new(Op::Lt, x + 1.0),
                Op::Gt => Atom::new(Op::Gt, x - 1.0),
                Op::Ne => Atom::new(Op::Ne, x + 1.0),
            },
            other => Atom::new(Op::Eq, other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpq_graph::GraphBuilder;

    fn sample_graph() -> Graph {
        let mut b = GraphBuilder::new();
        let mut movies = Vec::new();
        for i in 0..10 {
            movies.push(b.add_node("movie", Value::Int(2000 + i)));
        }
        for (i, &m) in movies.iter().enumerate() {
            let actor = b.add_node("actor", Value::Int(i as i64));
            let country = b.add_node("country", Value::str(format!("c{}", i % 3)));
            b.add_edge(m, actor).unwrap();
            b.add_edge(actor, country).unwrap();
            if i > 0 {
                b.add_edge(movies[i - 1], m).unwrap();
            }
        }
        b.build()
    }

    #[test]
    fn generated_patterns_respect_node_range() {
        let g = sample_graph();
        let mut generator = WorkloadGenerator::with_seed(7);
        let patterns = generator.generate(&g, 20);
        assert_eq!(patterns.len(), 20);
        for q in &patterns {
            assert!(q.node_count() >= 3 && q.node_count() <= 7);
            assert!(q.edge_count() >= q.node_count() - 1);
            assert!(q.edge_count() <= (1.5 * q.node_count() as f64) as usize + 1);
            assert!(q.is_connected(), "generated pattern must be connected");
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g = sample_graph();
        let a = WorkloadGenerator::with_seed(42).generate(&g, 5);
        let b = WorkloadGenerator::with_seed(42).generate(&g, 5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.node_count(), y.node_count());
            assert_eq!(x.edge_count(), y.edge_count());
            let xl: Vec<_> = x.nodes().map(|u| x.label(u)).collect();
            let yl: Vec<_> = y.nodes().map(|u| y.label(u)).collect();
            assert_eq!(xl, yl);
        }
        let c = WorkloadGenerator::with_seed(43).generate(&g, 5);
        let same = a.iter().zip(&c).all(|(x, y)| {
            x.node_count() == y.node_count()
                && x.edges().collect::<Vec<_>>() == y.edges().collect::<Vec<_>>()
        });
        assert!(!same, "different seeds should give different workloads");
    }

    #[test]
    fn anchored_patterns_use_real_labels_and_edges() {
        let g = sample_graph();
        let mut generator = WorkloadGenerator::with_seed(11);
        let patterns = generator.generate_anchored(&g, 10);
        for q in &patterns {
            assert!(q.node_count() >= 1);
            assert!(q.is_connected());
            // Every pattern label exists in the graph.
            for u in q.nodes() {
                assert!(g.label_count(q.label(u)) > 0);
            }
        }
    }

    #[test]
    fn predicates_are_attached_within_bounds() {
        let g = sample_graph();
        let mut generator = WorkloadGenerator::new(GeneratorConfig {
            min_predicates: 2,
            max_predicates: 8,
            ..Default::default()
        });
        let patterns = generator.generate(&g, 10);
        for q in &patterns {
            assert!(q.predicate_count() <= 8);
        }
    }

    #[test]
    fn exact_node_count_config() {
        let g = sample_graph();
        let mut generator = WorkloadGenerator::new(GeneratorConfig::with_exact_nodes(5));
        for q in generator.generate(&g, 5) {
            assert_eq!(q.node_count(), 5);
        }
    }

    #[test]
    fn empty_graph_yields_empty_anchored_pattern() {
        let g = Graph::empty();
        let mut generator = WorkloadGenerator::with_seed(1);
        let q = generator.generate_one_anchored(&g);
        assert!(q.is_empty());
    }

    #[test]
    fn anchored_predicates_hold_on_anchor() {
        // With anchoring, generated predicates must keep at least one match
        // alive: check the atoms hold on some graph node with that label.
        let g = sample_graph();
        let mut generator = WorkloadGenerator::with_seed(3);
        for q in generator.generate_anchored(&g, 10) {
            for u in q.nodes() {
                if q.predicate(u).is_empty() {
                    continue;
                }
                let holds_somewhere = g
                    .nodes_with_label(q.label(u))
                    .iter()
                    .any(|&v| q.predicate(u).eval(g.value(v)));
                assert!(
                    holds_somewhere,
                    "anchored predicate must hold on at least one data node"
                );
            }
        }
    }
}
