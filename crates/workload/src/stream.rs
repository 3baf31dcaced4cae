//! Streaming construction of a [`Graph`] from a scenario record stream.
//!
//! `bgpq compile --gen` and the scale benches need a million-node graph
//! without first buffering a million-record `Vec` — the exact failure mode
//! the peak-memory audit guards against. [`GraphSink`] consumes records one
//! at a time, relying on two invariants every generator upholds (and this
//! sink asserts):
//!
//! * node ids are contiguous from 0 in emission order, so external ids map
//!   to [`NodeId`]s without a hash map, and
//! * every node is emitted before any edge referencing it, so edges can be
//!   added immediately.
//!
//! **What it costs in memory.** No record is buffered; what the build holds
//! beyond the graph is the edge list (8 bytes an edge) while records
//! arrive, then CSR scratch of `4·|E| + 4·|V|` bytes per direction while
//! [`GraphBuilder::build`] cuts the row pages (see `bgpq_graph::builder`).
//! The peak is the finished graph plus one direction's CSR: streaming the
//! 600k-node benchmark graph (1.78M edges) in a fresh process peaks at
//! 54.4 MB of RSS against 39 MB once built (66.7 and 57.7 MB when every
//! row took a 24-byte slot), on 64-bit Linux with glibc's allocator.
//!
//! The sink also counts the records it saw, which lets tests prove the
//! streaming path was actually used: a path that buffered and replayed
//! would still produce the same graph, but only the sink's counter reflects
//! one-at-a-time consumption of the generator closure.

use crate::scenario::{generate_with, Record, Scenario, ScenarioConfig};
use bgpq_graph::{Graph, GraphBuilder, NodeId};

/// A streaming consumer that feeds records straight into a
/// [`GraphBuilder`] (see the module docs).
#[derive(Debug)]
pub struct GraphSink {
    builder: GraphBuilder,
    nodes: u64,
    edges: u64,
}

impl Default for GraphSink {
    fn default() -> Self {
        Self::new()
    }
}

impl GraphSink {
    /// An empty sink.
    pub fn new() -> Self {
        GraphSink {
            builder: GraphBuilder::new(),
            nodes: 0,
            edges: 0,
        }
    }

    /// Consumes one record.
    ///
    /// # Panics
    /// Panics when a node record's external id is not the next contiguous
    /// id, or an edge references a node not yet emitted — both would mean a
    /// generator broke the streaming contract.
    pub fn push(&mut self, record: Record) {
        match record {
            Record::Node { id, label, value } => {
                assert_eq!(
                    id, self.nodes,
                    "generator emitted non-contiguous node id {id} (expected {})",
                    self.nodes
                );
                self.builder.add_node(label, value);
                self.nodes += 1;
            }
            Record::Edge { src, dst } => {
                assert!(
                    src < self.nodes && dst < self.nodes,
                    "edge ({src}, {dst}) references a node past {}",
                    self.nodes
                );
                self.builder
                    .add_edge(NodeId(src as u32), NodeId(dst as u32))
                    .expect("streamed endpoints exist");
                self.edges += 1;
            }
        }
    }

    /// Total records consumed so far — the counter audit tests assert on.
    pub fn records_seen(&self) -> u64 {
        self.nodes + self.edges
    }

    /// Node records consumed so far.
    pub fn node_records(&self) -> u64 {
        self.nodes
    }

    /// Edge records consumed so far.
    pub fn edge_records(&self) -> u64 {
        self.edges
    }

    /// Finalizes the graph.
    pub fn finish(self) -> Graph {
        self.builder.build()
    }
}

/// Streams `scenario` under `config` directly into a graph — no record
/// buffer; the peak is the graph plus one direction's CSR scratch (see the
/// module docs).
pub fn stream_graph(scenario: Scenario, config: &ScenarioConfig) -> Graph {
    stream_graph_counted(scenario, config).0
}

/// Like [`stream_graph`], additionally returning the number of records the
/// streaming sink consumed (for the peak-memory audit assertions).
pub fn stream_graph_counted(scenario: Scenario, config: &ScenarioConfig) -> (Graph, u64) {
    let mut sink = GraphSink::new();
    generate_with(scenario, config, |record| sink.push(record));
    let records = sink.records_seen();
    (sink.finish(), records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{generate, same_graph};

    #[test]
    fn streamed_graph_matches_buffered_graph() {
        let knobbed = ScenarioConfig {
            zipf: Some(1.3),
            hot_fraction: Some(0.6),
            domain: Some(5),
            ..ScenarioConfig::new(150, 17)
        };
        for config in [ScenarioConfig::new(150, 17), knobbed] {
            for scenario in Scenario::ALL {
                let dataset = generate(scenario, &config);
                let buffered = dataset.build_graph();
                let (streamed, records) = stream_graph_counted(scenario, &config);
                assert_eq!(
                    records,
                    dataset.records().len() as u64,
                    "{scenario} sink consumed a different record count"
                );
                same_graph(&buffered, &streamed)
                    .unwrap_or_else(|e| panic!("{scenario} streamed graph drifted: {e}"));
            }
        }
    }

    #[test]
    fn sink_counts_node_and_edge_records() {
        let config = ScenarioConfig::new(40, 1);
        let mut sink = GraphSink::new();
        generate_with(Scenario::Citation, &config, |r| sink.push(r));
        assert!(sink.node_records() > 0);
        assert!(sink.edge_records() > 0);
        assert_eq!(
            sink.records_seen(),
            sink.node_records() + sink.edge_records()
        );
        let edge_records = sink.edge_records();
        let graph = sink.finish();
        // The builder deduplicates parallel edges, so the graph can hold
        // fewer edges than the stream carried — but exactly as many as the
        // buffered path keeps.
        assert!(graph.edge_count() as u64 <= edge_records);
        let buffered = generate(Scenario::Citation, &config).build_graph();
        assert_eq!(graph.edge_count(), buffered.edge_count());
    }

    #[test]
    #[should_panic(expected = "non-contiguous")]
    fn sink_rejects_gapped_ids() {
        let mut sink = GraphSink::new();
        sink.push(Record::Node {
            id: 3,
            label: "user",
            value: bgpq_graph::Value::Null,
        });
    }
}
