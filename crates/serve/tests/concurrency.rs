//! Concurrency stress: reader threads running the engine differential
//! workload while a writer applies delta batches. Every reader must see
//! internally consistent results from its pinned snapshot (engine answers
//! equal a direct whole-graph match on that exact snapshot, versions never
//! go backwards), and the final published snapshot must match a serial
//! replay of the same update batches on the initial graph.

use bgpq_engine::{
    simulation_match, AccessConstraint, AccessSchema, QueryRequest, Semantics, SubgraphMatcher,
};
use bgpq_graph::{Graph, GraphBuilder, NodeId, Value};
use bgpq_pattern::{Pattern, PatternBuilder, Predicate};
use bgpq_serve::{Server, Update, WorkerPool};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

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

fn year_query(graph: &Graph, year: i64) -> Pattern {
    let mut pb = PatternBuilder::with_interner(graph.interner().clone());
    let m = pb.node("movie", Predicate::always());
    let y = pb.node("year", Predicate::single(bgpq_pattern::Op::Eq, year));
    let a = pb.node("award", Predicate::always());
    let act = pb.node("actor", Predicate::always());
    pb.edge(y, m);
    pb.edge(a, m);
    pb.edge(m, act);
    pb.build()
}

/// Mirrors [`Server::commit`]'s update semantics directly on a graph — the
/// serial-replay oracle.
fn apply_updates(graph: &mut Graph, updates: &[Update]) {
    for update in updates {
        match update {
            Update::AddNode { label, value } => {
                graph.insert_node(label, value.clone());
            }
            Update::AddEdge { src, dst } => {
                graph.insert_edge(*src, *dst).unwrap();
            }
            Update::RemoveEdge { src, dst } => {
                graph.delete_edge(*src, *dst).unwrap();
            }
            Update::RemoveNode { node } => {
                graph.delete_node(*node).unwrap();
            }
        }
    }
}

/// Deterministic update batches: round `i` adds one movie cluster, odd
/// rounds also retire the oldest surviving cluster. Generated by simulating
/// against `scratch` so every batch is valid when applied in order.
fn make_batches(scratch: &mut Graph, rounds: usize) -> Vec<Vec<Update>> {
    let years: Vec<NodeId> = (0..10).map(NodeId).collect();
    let awards: Vec<NodeId> = (10..13).map(NodeId).collect();
    let mut live_clusters: Vec<[NodeId; 3]> = Vec::new();
    let mut batches = Vec::new();
    for round in 0..rounds {
        let next = scratch.node_count() as u32;
        let (movie, a0, a1) = (NodeId(next), NodeId(next + 1), NodeId(next + 2));
        let mut batch = vec![
            Update::AddNode {
                label: "movie".into(),
                value: Value::Int(500 + round as i64),
            },
            Update::AddNode {
                label: "actor".into(),
                value: Value::Int(600 + round as i64),
            },
            Update::AddNode {
                label: "actor".into(),
                value: Value::Int(700 + round as i64),
            },
            Update::AddEdge {
                src: years[round % years.len()],
                dst: movie,
            },
            Update::AddEdge {
                src: awards[round % awards.len()],
                dst: movie,
            },
            Update::AddEdge {
                src: movie,
                dst: a0,
            },
            Update::AddEdge {
                src: movie,
                dst: a1,
            },
        ];
        live_clusters.push([movie, a0, a1]);
        if round % 2 == 1 {
            let oldest = live_clusters.remove(0);
            batch.extend(oldest.iter().map(|&node| Update::RemoveNode { node }));
        }
        apply_updates(scratch, &batch);
        batches.push(batch);
    }
    batches
}

fn assert_graphs_identical(a: &Graph, b: &Graph) {
    assert_eq!(a.node_count(), b.node_count());
    assert_eq!(a.edge_count(), b.edge_count());
    assert_eq!(a.live_node_count(), b.live_node_count());
    for v in a.nodes() {
        assert_eq!(a.is_live(v), b.is_live(v), "liveness of {v}");
        assert_eq!(a.try_label(v), b.try_label(v), "label of {v}");
        assert_eq!(a.out_neighbors(v), b.out_neighbors(v), "adjacency of {v}");
        assert_eq!(a.value(v), b.value(v), "value of {v}");
    }
}

#[test]
fn readers_stay_consistent_while_writer_commits() {
    const READERS: usize = 4;
    const ROUNDS: usize = 24;

    let (graph, schema) = fixture(40);
    let mut scratch = graph.clone();
    let batches = make_batches(&mut scratch, ROUNDS);
    let server = Arc::new(Server::new(graph.clone(), &schema));
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            let interner_graph = graph.clone();
            thread::spawn(move || {
                let queries: Vec<Pattern> = (0..5)
                    .map(|i| year_query(&interner_graph, 2000 + ((r + i) % 10) as i64))
                    .collect();
                let mut iterations = 0u64;
                let mut last_version = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let q = &queries[iterations as usize % queries.len()];
                    // Pin one snapshot for the whole iteration: the engine
                    // answer and the direct whole-graph oracle must agree on
                    // that exact graph version, regardless of concurrent
                    // commits.
                    let snapshot = server.snapshot();
                    assert!(
                        snapshot.version() >= last_version,
                        "snapshot versions must be monotone per reader"
                    );
                    last_version = snapshot.version();
                    if iterations % 4 == 3 {
                        let response = snapshot
                            .execute(
                                &QueryRequest::build(q.clone())
                                    .semantics(Semantics::Simulation)
                                    .finish(),
                            )
                            .expect("simulation never fails");
                        let oracle = simulation_match(q, snapshot.graph());
                        assert_eq!(
                            response.answer.as_simulation(),
                            Some(&oracle),
                            "simulation diverged on pinned snapshot v{}",
                            snapshot.version()
                        );
                    } else {
                        let response = snapshot
                            .execute(&QueryRequest::build(q.clone()).finish())
                            .expect("isomorphism never fails");
                        let oracle = SubgraphMatcher::new(q, snapshot.graph()).find_all();
                        assert_eq!(
                            response.answer.as_matches(),
                            Some(&oracle),
                            "matches diverged on pinned snapshot v{}",
                            snapshot.version()
                        );
                        assert_eq!(response.stats.snapshot_version, snapshot.version());
                    }
                    iterations += 1;
                }
                iterations
            })
        })
        .collect();

    // The writer: commit every batch with a small pause so readers overlap
    // many different snapshot versions.
    for batch in &batches {
        server.commit(batch).expect("precomputed batches are valid");
        thread::sleep(Duration::from_millis(2));
    }
    stop.store(true, Ordering::Relaxed);
    for reader in readers {
        let iterations = reader.join().expect("reader panicked");
        assert!(iterations > 0, "every reader must have made progress");
    }

    // The final snapshot equals a serial replay of the batches...
    let final_snapshot = server.snapshot();
    assert_eq!(final_snapshot.version(), ROUNDS as u64);
    assert_graphs_identical(final_snapshot.graph(), &scratch);
    // ...and its maintained indices equal a from-scratch rebuild.
    let rebuilt = bgpq_access::AccessIndexSet::build(&scratch, &schema);
    for (id, fresh) in rebuilt.iter() {
        let kept = final_snapshot.indices().get(id).unwrap();
        assert_eq!(kept.key_count(), fresh.key_count(), "key count {id}");
        assert_eq!(kept.size(), fresh.size(), "size {id}");
        for (key, answers) in fresh.entries() {
            assert_eq!(kept.common_neighbors(key), answers, "answers {id}");
        }
    }
}

/// Snapshots share storage with their successors, so the property to hold
/// is isolation: a reader that pins version `v` and keeps it across 50
/// later commits — each one a copy-on-write clone of its predecessor,
/// adding and retiring whole clusters — reads byte-identical answers,
/// indices and adjacency throughout. The reader and the writer alternate
/// through channels, so every re-read happens with a known number of
/// commits landed.
#[test]
fn pinned_reader_reads_the_same_bytes_across_fifty_commits() {
    const COMMITS: usize = 50;

    let (graph, schema) = fixture(40);
    let mut scratch = graph.clone();
    let batches = make_batches(&mut scratch, 3 + COMMITS);
    let server = Arc::new(Server::new(graph.clone(), &schema));
    // Version 3 is itself the product of three copy-on-write commits.
    for batch in &batches[..3] {
        server.commit(batch).unwrap();
    }

    let (landed_tx, landed_rx) = std::sync::mpsc::channel::<u64>();
    let (checked_tx, checked_rx) = std::sync::mpsc::channel::<()>();
    let reader = {
        let server = Arc::clone(&server);
        thread::spawn(move || {
            let pinned = server.snapshot();
            assert_eq!(pinned.version(), 3);
            let queries: Vec<Pattern> = (0..10)
                .map(|i| year_query(pinned.graph(), 2000 + i))
                .collect();
            // Everything a reader can see, rendered to bytes: answers under
            // both semantics from a cache-less engine over the pinned graph
            // and indices (so every read reaches the shared storage), the
            // index entries, and the raw adjacency.
            let render = || {
                let engine = bgpq_engine::Engine::with_indices(
                    pinned.graph().clone(),
                    pinned.indices().clone(),
                );
                let mut out = String::new();
                for q in &queries {
                    for semantics in [Semantics::Isomorphism, Semantics::Simulation] {
                        let request = QueryRequest::build(q.clone()).semantics(semantics).finish();
                        out += &format!("{:?}\n", engine.execute(&request).unwrap().answer);
                        out += &format!("{:?}\n", pinned.execute(&request).unwrap().answer);
                    }
                }
                for (id, index) in pinned.indices().iter() {
                    let entries: Vec<_> = index.entries().collect();
                    out += &format!("{id} {} {entries:?}\n", index.max_cardinality());
                }
                for v in pinned.graph().nodes() {
                    let g = pinned.graph();
                    out += &format!(
                        "{v} {:?} {:?} {:?} {:?}\n",
                        g.try_label(v),
                        g.value(v),
                        g.out_neighbors(v),
                        g.in_neighbors(v)
                    );
                }
                out
            };
            let reference = render();
            checked_tx.send(()).unwrap();
            for version in landed_rx {
                assert!(server.version() >= version);
                assert!(
                    render() == reference,
                    "pinned v3 changed under the reader once v{version} was committed"
                );
                checked_tx.send(()).unwrap();
            }
        })
    };

    // A panicking reader drops its sender, which fails these `recv`s.
    checked_rx.recv().expect("reader rendered its reference");
    for batch in &batches[3..] {
        let receipt = server.commit(batch).expect("precomputed batches are valid");
        assert!(receipt.pages_copied > 0 && receipt.shards_copied > 0);
        landed_tx.send(receipt.version).unwrap();
        checked_rx.recv().expect("reader re-read its snapshot");
    }
    drop(landed_tx);
    reader.join().expect("reader panicked");
    assert_eq!(server.version(), (3 + COMMITS) as u64);
    assert_graphs_identical(server.snapshot().graph(), &scratch);
}

/// One arena pool serves the whole version chain: a commit builds no pool
/// of its own (and drops no warmed arenas with the superseded engine), and
/// a reader pinned to an old version racing a current one checks out of the
/// same pool without ever aliasing an arena.
#[test]
fn every_version_shares_one_arena_pool_without_aliasing() {
    let (graph, schema) = fixture(10);
    let server = Server::new(graph, &schema);
    let first = server.snapshot();
    for i in 0..5 {
        server
            .commit(&[Update::AddNode {
                label: "actor".into(),
                value: Value::Int(9_000 + i),
            }])
            .unwrap();
    }
    let current = server.snapshot();
    assert_eq!((first.version(), current.version()), (0, 5));
    assert!(Arc::ptr_eq(
        first.engine().arena_pool(),
        current.engine().arena_pool()
    ));

    // Both readers hold their arena across the barrier, so the addresses
    // they publish describe overlapping checkouts.
    let barrier = std::sync::Barrier::new(2);
    let held = std::sync::atomic::AtomicUsize::new(0);
    thread::scope(|scope| {
        for snapshot in [&first, &current] {
            let (barrier, held) = (&barrier, &held);
            scope.spawn(move || {
                snapshot.engine().arena_pool().with_any(|arena| {
                    let addr = arena as *mut _ as usize;
                    barrier.wait();
                    let other = held.swap(addr, Ordering::SeqCst);
                    assert_ne!(other, addr, "two versions aliased one arena");
                    barrier.wait();
                });
            });
        }
    });
    // Both still answer, each from its own version.
    let request = QueryRequest::build(year_query(current.graph(), 2003)).finish();
    assert_eq!(first.execute(&request).unwrap().stats.snapshot_version, 0);
    assert_eq!(current.execute(&request).unwrap().stats.snapshot_version, 5);
}

#[test]
fn worker_pool_serves_submitted_requests() {
    let (graph, schema) = fixture(10);
    let server = Arc::new(Server::new(graph.clone(), &schema));
    let pool = WorkerPool::new(Arc::clone(&server), 3);

    let replies: Vec<_> = (0..60)
        .map(|i| {
            let q = year_query(&graph, 2000 + (i % 10) as i64);
            (i, pool.submit(QueryRequest::build(q).finish()))
        })
        .collect();
    for (i, reply) in replies {
        let response = reply
            .recv()
            .expect("worker replies")
            .unwrap_or_else(|e| panic!("request {i} failed: {e}"));
        let q = year_query(&graph, 2000 + (i % 10) as i64);
        let oracle = SubgraphMatcher::new(&q, server.snapshot().graph()).find_all();
        assert_eq!(response.answer.as_matches(), Some(&oracle));
    }
    assert_eq!(pool.shutdown(), 60);
}
