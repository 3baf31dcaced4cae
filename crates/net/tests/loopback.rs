//! Loopback integration: real TCP connections against a [`NetServer`].
//!
//! These tests prove the wire protocol is lossless (every id, label and
//! value received over TCP equals direct [`Server::execute`] on the same
//! snapshot, under both semantics), that
//! admission control produces the typed `overloaded` / `draining`
//! rejections, that `max_in_flight` is the one bound on concurrent
//! executions now that queries run on their session threads, that every
//! answer is of one version whatever a racing writer does, that drain lets
//! in-flight queries finish, and that client deadlines map onto
//! deterministic step budgets with the documented blame rule
//! (deadline-derived abort → `budget_exceeded` error; explicit-budget abort
//! → truncated answer with `aborted` set).

use bgpq_engine::{
    parse_pattern, AccessConstraint, AccessSchema, BudgetPolicy, QueryAnswer, QueryRequest,
    Semantics, StrategyKind,
};
use bgpq_graph::io::json::{parse_json, Json};
use bgpq_graph::{Graph, GraphBuilder, NodeId, Value};
use bgpq_net::frame::{read_frame, write_frame};
use bgpq_net::{
    AnswerKind, Client, ClientError, ErrorCode, NetServer, NetServerConfig, NetServerHandle,
    QueryOutcome, QuerySpec, Request, DEFAULT_MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use bgpq_serve::{Server, Snapshot, Update};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// IMDb-shaped fixture: `movies` clusters of (year, award) → movie → actors.
fn fixture(movies: usize) -> (Graph, AccessSchema) {
    let mut b = GraphBuilder::new();
    let years: Vec<_> = (0..10)
        .map(|i| b.add_node("year", Value::Int(2000 + i)))
        .collect();
    let awards: Vec<_> = (0..3)
        .map(|i| b.add_node("award", Value::str(format!("award{i}"))))
        .collect();
    for i in 0..movies {
        let m = b.add_node("movie", Value::Int(i as i64));
        b.add_edge(years[i % years.len()], m).unwrap();
        b.add_edge(awards[i % awards.len()], m).unwrap();
        for j in 0..2 {
            let a = b.add_node("actor", Value::Int((10 * i + j) as i64));
            b.add_edge(m, a).unwrap();
        }
    }
    let g = b.build();
    let l = |name: &str| g.interner().get(name).unwrap();
    let schema = AccessSchema::from_constraints([
        AccessConstraint::global(l("year"), 10),
        AccessConstraint::global(l("award"), 3),
        AccessConstraint::new([l("year"), l("award")], l("movie"), movies),
        AccessConstraint::unary(l("movie"), l("actor"), 4),
    ]);
    (g, schema)
}

const YEAR_QUERY: &str = "node y: year where value = 2003\n\
                          node m: movie\n\
                          node a: actor\n\
                          edge y -> m\n\
                          edge m -> a\n";

fn start(movies: usize, config: NetServerConfig) -> NetServerHandle {
    let (graph, schema) = fixture(movies);
    let server = Arc::new(Server::new(graph, &schema));
    NetServer::start(server, config).expect("bind loopback")
}

fn connect(handle: &NetServerHandle, name: &str) -> Client {
    Client::connect(handle.local_addr(), name).expect("connect")
}

#[test]
fn tcp_answers_equal_direct_execution() {
    let handle = start(40, NetServerConfig::default());
    let mut client = connect(&handle, "parity");

    // The award query brings string values (and an unbounded pattern, so the
    // automatic strategy falls back) next to the integer-only year query.
    const AWARD_QUERY: &str = "node w: award where value = \"award1\"\n\
                               node m: movie\n\
                               edge w -> m\n";
    for (text, semantics, strategy) in [
        (YEAR_QUERY, Semantics::Isomorphism, None),
        (
            YEAR_QUERY,
            Semantics::Isomorphism,
            Some(StrategyKind::Baseline),
        ),
        (YEAR_QUERY, Semantics::Simulation, None),
        (AWARD_QUERY, Semantics::Isomorphism, None),
        (AWARD_QUERY, Semantics::Simulation, None),
    ] {
        let mut spec = QuerySpec::new(text);
        spec.semantics = semantics;
        spec.strategy = strategy;
        let outcome = client.query(&spec).expect("query over TCP");

        // Direct execution on the same snapshot version.
        let snapshot = handle.server().snapshot();
        assert_eq!(outcome.header.snapshot_version, snapshot.version());
        let pattern = parse_pattern(text, snapshot.graph().interner().clone()).expect("pattern");
        let mut builder = QueryRequest::build(pattern.clone()).semantics(semantics);
        if let Some(kind) = strategy {
            builder = builder.strategy(kind);
        }
        let direct = snapshot.execute(&builder.finish()).expect("direct");
        assert_eq!(outcome.header.strategy, direct.strategy.to_string());

        match (&direct.answer, outcome.header.kind) {
            (QueryAnswer::Matches(matches), AnswerKind::Matches) => {
                assert!(!matches.is_empty(), "the fixture answers every query");
                assert_eq!(outcome.header.total as usize, matches.len());
                assert_eq!(outcome.matches.len(), matches.len());
                assert_eq!(outcome.matches.iter().count(), matches.len());
                assert!(outcome.header.labels.is_empty());
                // Every row carries the same bindings, in canonical order:
                // the pattern node's name, the data node's id, and the
                // label and typed value the snapshot holds for that node.
                let graph = snapshot.graph();
                for (wire_row, direct_row) in outcome.matches.iter().zip(matches.iter()) {
                    assert_eq!(wire_row.iter().count(), pattern.node_count());
                    for (binding, u) in wire_row.iter().zip(pattern.nodes()) {
                        let v = direct_row.node_for(u);
                        assert_eq!(binding.node, pattern.node_name(u).unwrap());
                        assert_eq!(binding.id, v.0);
                        assert_eq!(binding.label, graph.label_name(v));
                        assert_eq!(
                            format!("{:?}", binding.value),
                            format!("{:?}", graph.value(v)),
                            "typed value of node {v:?}"
                        );
                    }
                    let ids: Vec<u32> = wire_row.iter().map(|b| b.id).collect();
                    assert_eq!(wire_row.ids(), ids);
                }
            }
            (QueryAnswer::Simulation(relation), AnswerKind::Simulation) => {
                assert_eq!(outcome.header.total as usize, relation.pair_count());
                assert!(outcome.matches.is_empty());
                assert_eq!(outcome.sim.len(), pattern.node_count());
                // One column per pattern node: its name, its pattern label,
                // and the simulating data nodes in the relation's own order.
                for (index, u) in pattern.nodes().enumerate() {
                    assert_eq!(outcome.header.columns[index], pattern.node_name(u).unwrap());
                    assert_eq!(outcome.header.labels[index], pattern.label_name(u));
                    let direct_ids: Vec<u32> = relation.matches_of(u).iter().map(|v| v.0).collect();
                    assert_eq!(outcome.sim[index], direct_ids, "node index {index}");
                }
            }
            (answer, kind) => panic!("kind mismatch: direct {answer:?} vs wire {kind:?}"),
        }
        assert!(!outcome.done.aborted);
    }
    client.goodbye().unwrap();
    assert!(handle.shutdown());
}

/// Block boundaries and the mid-answer flush are invisible to the reader:
/// whatever `rows_per_frame` cuts the answer into — one row per block, a
/// last block that is exactly full, a reply larger than the server's write
/// buffer — the table holds the same rows as direct execution.
#[test]
fn block_boundaries_and_partial_flushes_do_not_change_the_answer() {
    const ALL_CASTS: &str = "node m: movie\nnode a: actor\nedge m -> a\n";
    // 5000 movies x 2 actors: 10 000 rows, ~80 KB of ids alone.
    for rows_per_frame in [1, 64, 2_500, 10_000, 10_001] {
        let handle = start(
            5_000,
            NetServerConfig {
                rows_per_frame,
                ..NetServerConfig::default()
            },
        );
        let mut client = connect(&handle, "blocks");
        let outcome = client.query(&QuerySpec::new(ALL_CASTS)).expect("query");

        // Every row and every binding, also in the last (possibly short)
        // block.
        assert_eq!(
            outcome.matches.len(),
            10_000,
            "rows_per_frame {rows_per_frame}"
        );
        let snapshot = handle.server().snapshot();
        assert_equals_direct(&outcome, &snapshot, &QuerySpec::new(ALL_CASTS));
        client.goodbye().unwrap();
        assert!(handle.shutdown());
    }
}

#[test]
fn concurrent_clients_and_writer_see_consistent_snapshots() {
    let handle = start(30, NetServerConfig::default());
    let addr = handle.local_addr();

    let readers: Vec<_> = (0..3)
        .map(|r| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, &format!("reader-{r}")).expect("connect");
                let mut last_version = 0u64;
                for round in 0..12 {
                    let mut spec = QuerySpec::new(YEAR_QUERY);
                    spec.semantics = if round % 2 == 0 {
                        Semantics::Isomorphism
                    } else {
                        Semantics::Simulation
                    };
                    let outcome = client.query(&spec).expect("query");
                    assert!(
                        outcome.header.snapshot_version >= last_version,
                        "versions went backwards"
                    );
                    last_version = outcome.header.snapshot_version;
                    assert!(outcome.header.total > 0, "fixture always has matches");
                }
                client.goodbye().unwrap();
            })
        })
        .collect();

    // A writer commits through the same protocol while the readers run.
    let mut writer = connect(&handle, "writer");
    let mut version = 0;
    for i in 0..6 {
        let summary = writer
            .update(&[Update::AddNode {
                label: "actor".into(),
                value: Value::Int(9_000 + i),
            }])
            .expect("commit");
        assert!(summary.version > version, "commit bumps the epoch");
        version = summary.version;
        assert_eq!(summary.new_nodes.len(), 1);
    }
    writer.goodbye().unwrap();

    for reader in readers {
        reader.join().expect("reader thread");
    }
    assert_eq!(handle.server().version(), 6);
    assert!(handle.shutdown());
}

/// Asserts a wire answer equals `snapshot.execute` on the same spec, row
/// for row: ids, and the label and value `snapshot` holds for each id.
fn assert_equals_direct(outcome: &QueryOutcome, snapshot: &Snapshot, spec: &QuerySpec) {
    assert_eq!(outcome.header.snapshot_version, snapshot.version());
    let graph = snapshot.graph();
    let pattern = parse_pattern(&spec.pattern, graph.interner().clone()).expect("pattern");
    let mut builder = QueryRequest::build(pattern);
    if let Some(kind) = spec.strategy {
        builder = builder.strategy(kind);
    }
    let direct = snapshot.execute(&builder.finish()).expect("direct");
    let QueryAnswer::Matches(matches) = &direct.answer else {
        panic!("isomorphism answer expected");
    };
    assert_eq!(outcome.header.total as usize, matches.len());
    assert_eq!(outcome.matches.len(), matches.len());
    for (wire_row, direct_row) in outcome.matches.iter().zip(matches.iter()) {
        let direct_ids: Vec<u32> = direct_row.assignment().iter().map(|v| v.0).collect();
        assert_eq!(wire_row.ids(), direct_ids);
        for binding in wire_row.iter() {
            let v = NodeId(binding.id);
            assert_eq!(binding.label, graph.label_name(v), "label of {v:?}");
            assert_eq!(binding.value, graph.value(v), "value of {v:?}");
        }
    }
}

/// Queries run on their session threads, so the admission gate is the only
/// thing between six eager sessions and six concurrent executions: with
/// `max_in_flight = 2` no more than two ever run, whoever is turned away
/// gets the typed `overloaded` + retry hint, and whoever is admitted gets
/// the engine's exact answer.
#[test]
fn max_in_flight_is_the_bound_on_concurrent_executions() {
    const SESSIONS: usize = 6;
    const ROUNDS: usize = 30;
    let config = NetServerConfig {
        max_in_flight: 2,
        ..NetServerConfig::default()
    };
    let handle = start(400, config);
    let addr = handle.local_addr();
    // No commits in this test: every answer is of this one version.
    let snapshot = handle.server().snapshot();
    let mut spec = QuerySpec::new(YEAR_QUERY);
    spec.strategy = Some(StrategyKind::Baseline); // long enough to overlap

    let barrier = Arc::new(Barrier::new(SESSIONS));
    let sessions: Vec<_> = (0..SESSIONS)
        .map(|s| {
            let (barrier, snapshot, spec) =
                (Arc::clone(&barrier), Arc::clone(&snapshot), spec.clone());
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, &format!("eager-{s}")).expect("connect");
                barrier.wait();
                let (mut admitted, mut rejected) = (0u64, 0u64);
                for _ in 0..ROUNDS {
                    match client.query(&spec) {
                        Ok(outcome) => {
                            assert_equals_direct(&outcome, &snapshot, &spec);
                            admitted += 1;
                        }
                        Err(ClientError::Server {
                            code,
                            retry_after_ms,
                            ..
                        }) => {
                            assert_eq!(code, ErrorCode::Overloaded);
                            assert!(retry_after_ms.is_some(), "overloaded carries a retry hint");
                            rejected += 1;
                        }
                        Err(other) => panic!("neither an answer nor a rejection: {other:?}"),
                    }
                }
                client.goodbye().unwrap();
                (admitted, rejected)
            })
        })
        .collect();
    let (admitted, rejected) = sessions
        .into_iter()
        .map(|s| s.join().expect("session thread"))
        .fold((0, 0), |(a, r), (da, dr)| (a + da, r + dr));

    assert_eq!(admitted + rejected, (SESSIONS * ROUNDS) as u64);
    let stats = handle.gate_stats();
    assert!((1..=2).contains(&stats.peak_in_flight), "{stats:?}");
    assert_eq!(stats.admitted, admitted);
    assert_eq!(stats.rejected_overloaded, rejected);
    assert!(handle.shutdown());
}

/// Every answer is of one version — rows, labels, values and the header's
/// `snapshot_version` — while a writer keeps tombstoning matched actors
/// underneath the readers. The session's pin is the only thing that
/// guarantees it: a reply rendered from a newer version than it was
/// computed on would show a removed actor's placeholder label and `null`.
/// (The exact execute → commit → render interleaving is forced in
/// `server.rs`'s unit tests; this is the same property through real
/// sessions, with the writer paced by the readers' progress.)
#[test]
fn answers_under_a_racing_writer_are_of_one_version() {
    const MOVIES: usize = 40;
    const ALL_CASTS: &str = "node m: movie\nnode a: actor\nedge m -> a\n";
    let config = NetServerConfig {
        rows_per_frame: 1, // a long render: many chances for a commit to land
        ..NetServerConfig::default()
    };
    let handle = start(MOVIES, config);
    let addr = handle.local_addr();
    let answered = Arc::new(AtomicU64::new(0));

    let readers: Vec<_> = (0..3)
        .map(|r| {
            let answered = Arc::clone(&answered);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, &format!("reader-{r}")).expect("connect");
                let mut outcomes = Vec::new();
                loop {
                    let outcome = client.query(&QuerySpec::new(ALL_CASTS)).expect("query");
                    answered.fetch_add(1, Ordering::SeqCst);
                    let done = outcome.header.snapshot_version == MOVIES as u64;
                    outcomes.push(outcome);
                    if done {
                        break;
                    }
                }
                client.goodbye().unwrap();
                outcomes
            })
        })
        .collect();

    // One commit per movie, each removing that movie's first actor (fixture
    // ids: 13 hubs, then movie, actor, actor per cluster), and each waiting
    // for a reader to have answered since the previous one. Every version
    // stays pinned here so the answers can be checked against it afterwards.
    let server = handle.server();
    let mut versions = vec![server.snapshot()];
    for i in 0..MOVIES {
        let seen = answered.load(Ordering::SeqCst);
        while answered.load(Ordering::SeqCst) == seen {
            std::thread::yield_now();
        }
        let actor = NodeId((13 + 3 * i + 1) as u32);
        server
            .commit(&[Update::RemoveNode { node: actor }])
            .expect("commit");
        versions.push(server.snapshot());
    }

    let mut seen_versions = std::collections::BTreeSet::new();
    for reader in readers {
        for outcome in reader.join().expect("reader thread") {
            let version = outcome.header.snapshot_version as usize;
            assert_eq!(outcome.header.total as usize, 2 * MOVIES - version);
            assert_equals_direct(&outcome, &versions[version], &QuerySpec::new(ALL_CASTS));
            seen_versions.insert(version);
        }
    }
    assert!(seen_versions.len() > 2, "the readers ran beside the writer");
    assert!(handle.shutdown());
}

#[test]
fn zero_capacity_gate_rejects_with_overloaded() {
    let config = NetServerConfig {
        max_in_flight: 0,
        ..NetServerConfig::default()
    };
    let handle = start(5, config);
    let mut client = connect(&handle, "rejected");

    let err = client.query(&QuerySpec::new(YEAR_QUERY)).unwrap_err();
    match &err {
        bgpq_net::ClientError::Server {
            code,
            retry_after_ms,
            ..
        } => {
            assert_eq!(*code, ErrorCode::Overloaded);
            assert!(retry_after_ms.is_some(), "overloaded carries a retry hint");
        }
        other => panic!("expected server rejection, got {other:?}"),
    }
    assert!(err.is_retryable());

    // The session survives a rejection: ping still answers.
    assert_eq!(client.ping().unwrap(), 0);

    // Updates pass the same gate.
    let err = client
        .update(&[Update::AddNode {
            label: "actor".into(),
            value: Value::Int(1),
        }])
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Overloaded));
    client.goodbye().unwrap();
    assert!(handle.shutdown());
}

#[test]
fn drain_finishes_in_flight_queries_and_rejects_new_ones() {
    let handle = start(400, NetServerConfig::default());
    let addr = handle.local_addr();

    // Continuous query traffic: each thread queries in a loop until it is
    // turned away by the drain. Every completed query must be a *full*
    // answer — drain may reject new work, never truncate admitted work.
    let workers: Vec<_> = (0..4)
        .map(|w| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, &format!("looper-{w}")).expect("connect");
                let mut successes = 0u64;
                loop {
                    let mut spec = QuerySpec::new(YEAR_QUERY);
                    spec.strategy = Some(StrategyKind::Baseline);
                    match client.query(&spec) {
                        Ok(outcome) => {
                            assert!(outcome.header.total > 0, "admitted answers are complete");
                            assert!(!outcome.done.aborted);
                            successes += 1;
                        }
                        Err(err) => {
                            assert_eq!(
                                err.code(),
                                Some(ErrorCode::Draining),
                                "the only rejection a draining server hands out"
                            );
                            assert!(err.is_retryable());
                            break;
                        }
                    }
                }
                client.goodbye().unwrap();
                successes
            })
        })
        .collect();

    // Wait until work is verifiably in flight, then drain underneath it.
    let started = Instant::now();
    while handle.in_flight() == 0 {
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "queries never became in-flight"
        );
        std::thread::yield_now();
    }
    handle.drain();
    assert!(handle.is_draining());

    let successes: u64 = workers
        .into_iter()
        .map(|w| w.join().expect("worker thread"))
        .sum();
    assert!(successes > 0, "queries admitted before the drain completed");

    // New sessions are turned away too, but non-admitted requests (ping,
    // stats, goodbye) stay available on a draining server.
    let mut late = connect(&handle, "late");
    let err = late.query(&QuerySpec::new(YEAR_QUERY)).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Draining));
    late.ping().unwrap();
    late.goodbye().unwrap();

    let stats = handle.gate_stats();
    assert_eq!(stats.admitted, successes);
    assert!(
        stats.rejected_draining >= 5,
        "four loopers + the late client"
    );
    assert_eq!(handle.in_flight(), 0, "drain left nothing in flight");
    assert!(handle.shutdown(), "drained server shuts down cleanly");
}

#[test]
fn deadline_derived_abort_is_a_budget_exceeded_error() {
    // One step per millisecond with a floor of one: a 1 ms deadline buys a
    // single matcher step, which cannot finish any query on the fixture.
    let config = NetServerConfig {
        budget_policy: BudgetPolicy {
            steps_per_milli: 1,
            floor_steps: 1,
        },
        ..NetServerConfig::default()
    };
    let handle = start(20, config);
    let mut client = connect(&handle, "deadline");

    let mut spec = QuerySpec::new(YEAR_QUERY);
    spec.deadline_ms = Some(1);
    let err = client.query(&spec).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::BudgetExceeded));
    assert!(
        !err.is_retryable(),
        "a longer deadline is a client decision"
    );
    client.goodbye().unwrap();
    assert!(handle.shutdown());
}

#[test]
fn explicit_budget_abort_returns_a_truncated_answer() {
    let handle = start(20, NetServerConfig::default());
    let mut client = connect(&handle, "budgeted");

    // The client asked for this budget explicitly, so exhaustion is a
    // truncated answer (aborted flag set), not an error.
    let mut spec = QuerySpec::new(YEAR_QUERY);
    spec.step_budget = Some(1);
    let outcome = client.query(&spec).expect("truncated answer");
    assert!(outcome.done.aborted);

    // Even with a deadline attached, the tighter explicit budget takes the
    // blame: still an answer, not a budget_exceeded error.
    spec.deadline_ms = Some(60_000);
    let outcome = client.query(&spec).expect("explicit budget wins blame");
    assert!(outcome.done.aborted);
    client.goodbye().unwrap();
    assert!(handle.shutdown());
}

#[test]
fn zero_deadline_is_a_parse_error_and_the_session_survives() {
    let handle = start(10, NetServerConfig::default());
    let mut client = connect(&handle, "zero-deadline");

    // `deadline_ms: 0` is rejected at wire decode, before admission — it
    // would otherwise silently round up to the 1 ms engine floor.
    let mut spec = QuerySpec::new(YEAR_QUERY);
    spec.deadline_ms = Some(0);
    let err = client.query(&spec).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Parse));
    let message = err.to_string();
    assert!(message.contains("deadline_ms"), "got: {message}");

    // The session survives the rejection, and the smallest legal deadline
    // goes through.
    assert_eq!(client.ping().unwrap(), 0);
    spec.deadline_ms = Some(1);
    let outcome = client.query(&spec).expect("1 ms deadline is legal");
    assert!(outcome.header.total > 0);
    client.goodbye().unwrap();
    assert!(handle.shutdown());
}

#[test]
fn stats_document_counts_requests_and_clients() {
    let handle = start(10, NetServerConfig::default());
    let mut client = connect(&handle, "metrics");

    assert_eq!(client.ping().unwrap(), 0);
    client.query(&QuerySpec::new(YEAR_QUERY)).unwrap();
    let stats = client.stats().expect("stats document");

    let server = stats.get("server").expect("server object");
    assert_eq!(server.get("protocol").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(server.get("queries").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(server.get("admitted").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(
        server.get("draining").and_then(|v| v.as_bool()),
        Some(false)
    );
    let latency = server.get("latency_us").expect("latency object");
    assert_eq!(latency.get("count").and_then(|v| v.as_u64()), Some(1));
    assert!(latency.get("p99").and_then(|v| v.as_u64()).unwrap() >= 1);
    // The span of that one query: exactly three phases, no queue.
    let Some(Json::Obj(phases)) = server.get("phases_us") else {
        panic!("phases object");
    };
    let names: Vec<&str> = phases.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, ["parse", "execute", "render"]);
    for (phase, hist) in phases {
        assert_eq!(
            hist.get("count").and_then(|v| v.as_u64()),
            Some(1),
            "{phase}"
        );
    }

    // Per-client counters are folded once per request; a session still sees
    // itself exactly: this `stats` request is its third, and the bytes are
    // the ones the client counted up to and including this request frame.
    let clients = stats.get("clients").and_then(|v| v.as_arr()).unwrap();
    assert_eq!(clients.len(), 1);
    let me = &clients[0];
    assert_eq!(me.get("name").and_then(|v| v.as_str()), Some("metrics"));
    assert_eq!(me.get("requests").and_then(|v| v.as_u64()), Some(3));
    assert_eq!(me.get("rejected").and_then(|v| v.as_u64()), Some(0));
    let hello_bytes = 4 + "{\"type\":\"hello\",\"protocol\":2,\"client\":\"metrics\"}".len() as u64;
    assert_eq!(
        me.get("bytes_in").and_then(|v| v.as_u64()),
        Some(client.bytes_out() - hello_bytes),
        "every request frame after the hello"
    );
    let stats_frame_bytes =
        4 + format!("{{\"type\":\"stats\",\"stats\":{}}}", stats.render()).len() as u64;
    assert_eq!(
        me.get("bytes_out").and_then(|v| v.as_u64()),
        Some(client.bytes_in() - stats_frame_bytes),
        "every reply before this one"
    );
    client.goodbye().unwrap();
    assert!(handle.shutdown());
}

#[test]
fn committed_updates_are_visible_to_later_queries() {
    let handle = start(10, NetServerConfig::default());
    let mut client = connect(&handle, "updater");

    let before = client.query(&QuerySpec::new(YEAR_QUERY)).unwrap();

    // Add one movie in year 2003 with one actor: movie node + actor node,
    // wired to the existing year-2003 node (fixture id 3).
    let next = handle.server().snapshot().graph().node_count() as u32;
    let summary = client
        .update(&[
            Update::AddNode {
                label: "movie".into(),
                value: Value::Int(777),
            },
            Update::AddNode {
                label: "actor".into(),
                value: Value::Int(778),
            },
            Update::AddEdge {
                src: NodeId(3),
                dst: NodeId(next),
            },
            Update::AddEdge {
                src: NodeId(next),
                dst: NodeId(next + 1),
            },
        ])
        .expect("commit");
    assert_eq!(summary.new_nodes, vec![next, next + 1]);

    let after = client.query(&QuerySpec::new(YEAR_QUERY)).unwrap();
    assert_eq!(after.header.snapshot_version, summary.version);
    assert_eq!(after.header.total, before.header.total + 1);

    // The `stats` document says what that commit copied and where its time
    // went, phase by phase.
    let stats = client.stats().expect("stats document");
    let commit = stats.get("server").and_then(|s| s.get("commit")).unwrap();
    let count = |name: &str| commit.get(name).and_then(|v| v.as_u64());
    assert_eq!(count("deltas"), Some(4));
    assert_eq!(count("chunks_copied"), Some(2), "a movie and an actor");
    assert!(count("pages_copied") > Some(0));
    // The unary `movie → actor` index is the graph's rows (their copies are
    // `pages_copied`), and the new movie gains no `(year, award)` key: no
    // index page is copied.
    assert_eq!(count("shards_copied"), Some(0));
    let totals = commit.get("total_us").expect("phase totals");
    let micros = |phase: &str| totals.get(phase).and_then(|v| v.as_u64());
    let phases = ["clone", "replay", "maintain", "publish", "retire"];
    let accounted: u64 = phases.iter().map(|p| micros(p).expect(p)).sum();
    assert!(accounted <= micros("commit").expect("whole commit"));
    client.goodbye().unwrap();
    assert!(handle.shutdown());
}

/// The `done` frame as it is on the wire, not as the client's decoder sees
/// it: the server span has three phases, `execute_nanos` is the engine's own
/// `total_nanos`, and the `queue_nanos` of earlier builds is gone.
#[test]
fn done_stats_carry_a_three_phase_span_and_no_queue() {
    let handle = start(10, NetServerConfig::default());
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    let mut send = |request: Request| {
        write_frame(&mut stream, request.encode().expect("encodable")).expect("send");
        loop {
            let (payload, _) = read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES).expect("reply");
            // Row blocks are binary; the last frame of every reply is JSON.
            let Ok(text) = String::from_utf8(payload) else {
                continue;
            };
            let Ok(json) = parse_json(&text) else {
                continue;
            };
            match json.get("type").and_then(|t| t.as_str()) {
                Some("answer") => continue,
                _ => return json,
            }
        }
    };
    send(Request::Hello {
        protocol: PROTOCOL_VERSION,
        client: "raw".into(),
    });
    let done = send(Request::Query(QuerySpec::new(YEAR_QUERY)));
    assert_eq!(done.get("type").and_then(|t| t.as_str()), Some("done"));
    let Some(Json::Obj(stats)) = done.get("stats") else {
        panic!("done carries stats: {}", done.render());
    };
    let names: Vec<&str> = stats.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(
        names,
        [
            "plan_nanos",
            "fragment_build_nanos",
            "match_nanos",
            "total_nanos",
            "fragment_nodes",
            "worst_case_nodes",
            "parse_nanos",
            "execute_nanos",
            "render_nanos",
        ]
    );
    let nanos = |name: &str| done.get("stats").and_then(|s| s.get(name)?.as_u64());
    assert_eq!(nanos("execute_nanos"), nanos("total_nanos"));
    assert!(nanos("parse_nanos") > Some(0) && nanos("render_nanos") > Some(0));
    send(Request::Goodbye);
    assert!(handle.shutdown());
}
