//! Benchmark-harness layer for the bgpq workspace.
//!
//! The paper's headline claim — the fragment `G_Q` an effectively bounded
//! query touches depends on the query and the access schema, never on `|G|`
//! — is only worth anything if it is *measured*: on big skewed graphs, under
//! open-loop load, with percentiles instead of averages. This crate gathers
//! the machinery the workspace's measuring code shares — the one bench
//! harness (`crates/net/src/bin/bench.rs`), the CLI and the network layer:
//!
//! * [`scenario`] — the three synthetic dataset generators (social,
//!   citation, product catalog), streaming one [`scenario::Record`] at a
//!   time so `--scale 1000000` runs in constant memory, with skew knobs:
//!   zipfian hub degrees, hot-label concentration and a configurable value
//!   domain that also plants small curated hub tiers (the access-schema
//!   anchors bounded plans hang off).
//! * [`stream`] — [`stream::GraphSink`], which feeds a record stream
//!   straight into a [`bgpq_graph::GraphBuilder`] without buffering, plus
//!   counting so tests can assert the streaming path is actually used.
//! * [`query`] — the parameterized query-workload generator: chain / star /
//!   cycle / tree patterns derived from a discovered access schema, with a
//!   bounded/unbounded mix and predicate-selectivity targets, all
//!   deterministic in a seed.
//! * [`histogram`] — the log-bucketed [`LatencyHistogram`] behind the net
//!   server's latency and span percentiles and the bench's open-loop tiers.
//! * [`clock`] — the fixed-interval [`ArrivalClock`] the bench's open-loop
//!   `tcp` tiers schedule requests with, immune to coordinated omission.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod histogram;
pub mod query;
pub mod scenario;
pub mod stream;

pub use clock::ArrivalClock;
pub use histogram::LatencyHistogram;
pub use query::{
    generate_workload, parse_manifest, GeneratedQuery, ManifestQuery, Shape, Workload,
    WorkloadConfig, WorkloadError,
};
pub use scenario::{generate, generate_with, Dataset, Record, Scenario, ScenarioConfig};
pub use stream::{stream_graph, stream_graph_counted, GraphSink};
