//! The common recipe: the workloads, how the system under test is set
//! up, and the seeded op script each run replays.
//!
//! The *dataset* — graph, discovered schema, indices and the query set `Q` —
//! is pinned by [`DATASET_SEED`], like the fixed tables of a database
//! benchmark. The run's `--seed` drives the *request stream*: the order of
//! `Q` inside every round and the endpoints of every commit batch. Median
//! query latency moves by 30–40% between graphs generated from different
//! seeds (different hubs, different answer sizes), which is far above any
//! bound a regression check could use; the order of requests does not move
//! it, so runs with different seeds stay comparable.

use bgpq_engine::{
    discover_schema, AccessIndexSet, DiscoveryConfig, NodeId, Pattern, QueryRequest, Semantics,
    Value,
};
use bgpq_net::{Client, NetServer, NetServerConfig, NetServerHandle, QuerySpec};
use bgpq_pattern::DetRng;
use bgpq_serve::{Server, Update};
use bgpq_workload::{generate_workload, stream_graph, Scenario, ScenarioConfig, WorkloadConfig};
use std::sync::Arc;
use std::time::Instant;

/// Seed of the pinned dataset (graph and query set).
pub const DATASET_SEED: u64 = 0x1CDE_2015;
/// `|Q|`: distinct planner-verified bounded patterns per round. Well below
/// the default fragment-cache capacity (128), so hot rounds always hit.
pub const QUERY_COUNT: usize = 32;
/// New `post` nodes per commit; each brings an author and a tag edge, so a
/// batch is `3 * POSTS_PER_COMMIT` updates.
pub const POSTS_PER_COMMIT: usize = 4;
/// How the single client reaches the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `Server::execute` / `Server::commit` calls.
    InProcess,
    /// One `bgpq_net::Client` connection over loopback TCP.
    Wire,
}

/// One workload: a graph scale, a hot-round count and a transport.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    /// `ScenarioConfig::scale` (users); the graph has about 3x as many nodes.
    pub scale: usize,
    /// `H`: hot rounds of `Q` after each cycle's cold round.
    pub hot_rounds: usize,
    pub transport: Transport,
    /// `C`: measured cycles of the script one run replays, episode after
    /// episode, each time on a system set up afresh. A constant, so that the
    /// ops a run measures never depend on how fast the code under test is;
    /// chosen so that an episode takes about three seconds on the seed code.
    pub cycles: usize,
}

/// The benchmark's workloads. All are closed loop with one client: the next
/// op is issued only when the previous one returned.
pub const WORKLOADS: [WorkloadSpec; 3] = [
    WorkloadSpec {
        name: "engine_small",
        why: "30k-node graph in process: |G|-proportional work is negligible, so scale fixes must not move it",
        scale: 10_000,
        hot_rounds: 8,
        transport: Transport::InProcess,
        cycles: 40,
    },
    WorkloadSpec {
        name: "engine_large",
        why: "600k-node graph in process: fetch, view build and the commit's copy-on-write clone dominate",
        scale: 200_000,
        hot_rounds: 8,
        transport: Transport::InProcess,
        cycles: 8,
    },
    WorkloadSpec {
        name: "wire_mixed",
        why: "30k-node graph over loopback TCP, a commit per 96 queries, every third query cold: socket, frames, proto and row rendering dominate",
        scale: 10_000,
        hot_rounds: 2,
        transport: Transport::Wire,
        cycles: 6,
    },
];

impl WorkloadSpec {
    pub fn by_name(name: &str) -> Option<&'static WorkloadSpec> {
        WORKLOADS.iter().find(|w| w.name == name)
    }
}

/// One member of `Q`, in every form the layers take it.
pub struct Query {
    pub pattern: Pattern,
    /// The wire text (`bgpq-pattern` grammar); parses back to `pattern`.
    pub text: String,
    pub request: QueryRequest,
    pub spec: QuerySpec,
}

/// Set-up stage timings (seconds) and the size of what was built.
#[derive(Debug, Clone, Copy)]
pub struct Stages {
    pub stream_build_s: f64,
    pub discover_s: f64,
    pub index_build_s: f64,
    pub index_entries: usize,
    /// Everything: generate, discover, index build, query set, server start
    /// and (for wire rigs) socket start plus handshake.
    pub total_s: f64,
}

/// The loopback front end of a rig. Field order matters: the client closes
/// its connection before the handle's drop drains and joins the server.
pub struct Net {
    pub client: Client,
    pub handle: NetServerHandle,
}

/// One set-up system under test.
pub struct Rig {
    pub spec: &'static WorkloadSpec,
    pub server: Arc<Server>,
    pub queries: Vec<Query>,
    /// The hottest tenth of the users (the generator attaches to early
    /// users preferentially): commit batches pick authors among the hubs.
    pub authors: Vec<NodeId>,
    pub tags: Vec<NodeId>,
    pub stages: Stages,
    pub net: Option<Net>,
}

impl Rig {
    /// Builds the pinned dataset at the workload's scale and starts serving
    /// it; `with_net` also starts the TCP front end and connects the one
    /// client.
    pub fn setup(spec: &'static WorkloadSpec, with_net: bool) -> Result<Rig, String> {
        let started = Instant::now();
        let config = ScenarioConfig {
            zipf: Some(1.1),
            hot_fraction: Some(0.5),
            domain: Some(50),
            ..ScenarioConfig::new(spec.scale, DATASET_SEED)
        };
        let graph = stream_graph(Scenario::Social, &config);
        let stream_build_s = started.elapsed().as_secs_f64();

        let stage = Instant::now();
        let schema = discover_schema(&graph, &DiscoveryConfig::simple());
        let discover_s = stage.elapsed().as_secs_f64();

        // Uncapped: the generator certifies boundedness against the schema
        // alone, and the planner refuses constraints whose index truncated.
        let stage = Instant::now();
        let indices = AccessIndexSet::build_with_cap(&graph, &schema, usize::MAX);
        let index_build_s = stage.elapsed().as_secs_f64();
        let index_entries = indices.total_size();

        // The social schema admits no simulation-bounded pattern (bSim plans
        // cover a node through its children only), so Q is isomorphism-only.
        let generated = generate_workload(
            &graph,
            &schema,
            &WorkloadConfig {
                queries: 4 * QUERY_COUNT,
                seed: DATASET_SEED,
                bounded_fraction: 1.0,
                selectivity: Some(0.5),
                min_nodes: 3,
                max_nodes: 5,
                semantics: Semantics::Isomorphism,
                shape_weights: [2, 1, 0, 1],
            },
        )
        .map_err(|e| format!("query generation failed: {e}"))?;
        // Distinct fingerprints only: a repeated pattern would hit the
        // fragment cache inside the cold round.
        let mut seen = std::collections::BTreeSet::new();
        let queries: Vec<Query> = generated
            .queries
            .into_iter()
            .filter(|q| seen.insert(q.pattern.fingerprint().0))
            .take(QUERY_COUNT)
            .map(|q| Query {
                request: QueryRequest::build(q.pattern.clone()).finish(),
                spec: QuerySpec::new(q.text.clone()),
                pattern: q.pattern,
                text: q.text,
            })
            .collect();
        if queries.len() < QUERY_COUNT {
            return Err(format!(
                "only {} distinct bounded queries generated",
                queries.len()
            ));
        }

        let nodes_of = |name: &str| -> Result<Vec<NodeId>, String> {
            let label = graph
                .interner()
                .get(name)
                .ok_or_else(|| format!("the social graph has no `{name}` label"))?;
            Ok(graph.nodes_with_label(label).to_vec())
        };
        let mut authors = nodes_of("user")?;
        authors.truncate((authors.len() / 10).max(1));
        let tags = nodes_of("tag")?;

        let server = Arc::new(Server::with_indices(graph, indices));
        let net = if with_net {
            let handle = NetServer::start(Arc::clone(&server), NetServerConfig::default())
                .map_err(|e| format!("cannot start the TCP front end: {e}"))?;
            let client = Client::connect(handle.local_addr(), "benchmark")
                .map_err(|e| format!("cannot connect to the TCP front end: {e}"))?;
            Some(Net { client, handle })
        } else {
            None
        };
        Ok(Rig {
            spec,
            server,
            queries,
            authors,
            tags,
            stages: Stages {
                stream_build_s,
                discover_s,
                index_build_s,
                index_entries,
                total_s: started.elapsed().as_secs_f64(),
            },
            net,
        })
    }

    /// The op script of `cycles` cycles continuing from the server's current
    /// version: per cycle one commit batch, then `1 + H` rounds of `Q`, each
    /// in its own seed-drawn order.
    pub fn script(&self, seed: u64, cycles: usize) -> Vec<Cycle> {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut next_node = self.server.snapshot().graph().node_count() as u32;
        (0..cycles)
            .map(|_| {
                let mut updates = Vec::with_capacity(3 * POSTS_PER_COMMIT);
                for _ in 0..POSTS_PER_COMMIT {
                    let post = NodeId(next_node);
                    next_node += 1;
                    updates.push(Update::AddNode {
                        label: "post".into(),
                        value: Value::Int(i64::from(post.0)),
                    });
                    updates.push(Update::AddEdge {
                        src: *rng.choose(&self.authors).expect("authors is non-empty"),
                        dst: post,
                    });
                    updates.push(Update::AddEdge {
                        src: post,
                        dst: *rng.choose(&self.tags).expect("tags is non-empty"),
                    });
                }
                let rounds = (0..=self.spec.hot_rounds)
                    .map(|_| {
                        let mut order: Vec<u16> = (0..self.queries.len() as u16).collect();
                        for i in (1..order.len()).rev() {
                            order.swap(i, rng.random_range(0..=i));
                        }
                        order
                    })
                    .collect();
                Cycle { updates, rounds }
            })
            .collect()
    }
}

/// One cycle of the script: a commit, a cold round, `H` hot rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct Cycle {
    pub updates: Vec<Update>,
    /// Query indices in issue order; round 0 is the cold one.
    pub rounds: Vec<Vec<u16>>,
}

/// Renders a script as text, one op per line: what "the same seed gives the
/// same inputs" is checked on.
pub fn render_script(script: &[Cycle]) -> String {
    let mut out = String::new();
    for (c, cycle) in script.iter().enumerate() {
        out.push_str(&format!("cycle {c}\ncommit"));
        for update in &cycle.updates {
            match update {
                Update::AddNode { label, value } => out.push_str(&format!(" +{label}={value}")),
                Update::AddEdge { src, dst } => out.push_str(&format!(" {}>{}", src.0, dst.0)),
                other => out.push_str(&format!(" {other:?}")),
            }
        }
        for (r, round) in cycle.rounds.iter().enumerate() {
            let kind = if r == 0 { "cold" } else { "hot" };
            let order: Vec<String> = round.iter().map(u16::to_string).collect();
            out.push_str(&format!("\n{kind} {}", order.join(" ")));
        }
        out.push('\n');
    }
    out
}
