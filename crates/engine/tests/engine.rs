//! End-to-end engine behavior: strategy selection, graceful fallback with
//! answers identical to the direct algorithms, plan-cache hits/eviction,
//! budgets and forced-strategy errors.

use bgpq_engine::{
    check_schema, discover_schema, simulation_match, AccessConstraint, AccessSchema, BgpqError,
    CacheOutcome, DiscoveryConfig, Engine, Graph, GraphBuilder, QueryRequest, Semantics,
    StrategyKind, SubgraphMatcher, WorkloadGenerator,
};
use bgpq_graph::Value;
use bgpq_pattern::{Pattern, PatternBuilder, Predicate};

/// The IMDb-shaped toy of the equivalence suite: years, awards, movies,
/// actors, countries — plus noise nodes no bounded fetch may touch.
fn data_graph() -> Graph {
    let mut b = GraphBuilder::new();
    let years: Vec<_> = (0..4)
        .map(|i| b.add_node("year", Value::Int(2010 + i)))
        .collect();
    let awards: Vec<_> = (0..2)
        .map(|i| b.add_node("award", Value::str(format!("award{i}"))))
        .collect();
    let countries: Vec<_> = (0..3)
        .map(|i| b.add_node("country", Value::str(format!("c{i}"))))
        .collect();
    for i in 0..12i64 {
        let m = b.add_node("movie", Value::Int(i));
        b.add_edge(years[(i % 4) as usize], m).unwrap();
        b.add_edge(awards[(i % 2) as usize], m).unwrap();
        for j in 0..2 {
            let a = b.add_node("actor", Value::Int(10 * i + j));
            b.add_edge(m, a).unwrap();
            b.add_edge(a, countries[((i + j) % 3) as usize]).unwrap();
        }
    }
    for i in 0..40 {
        b.add_node("noise", Value::Int(i));
    }
    b.build()
}

/// A schema under which the movie pattern is bounded for isomorphism (but
/// `actor`/`country` are only reachable through parents, so simulation
/// plans fail).
fn schema(graph: &Graph) -> AccessSchema {
    let l = |name: &str| graph.interner().get(name).unwrap();
    AccessSchema::from_constraints([
        AccessConstraint::global(l("year"), 4),
        AccessConstraint::global(l("award"), 2),
        AccessConstraint::new([l("year"), l("award")], l("movie"), 3),
        AccessConstraint::unary(l("movie"), l("actor"), 2),
        AccessConstraint::unary(l("actor"), l("country"), 1),
    ])
}

fn movie_pattern(graph: &Graph, year: i64) -> Pattern {
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

fn engine() -> Engine {
    let g = data_graph();
    let s = schema(&g);
    assert!(check_schema(&g, &s).is_empty(), "fixture schema must hold");
    Engine::new(g, &s)
}

#[test]
fn plannable_queries_select_bounded_and_match_vf2() {
    let engine = engine();
    let q = movie_pattern(engine.graph(), 2011);
    let direct = SubgraphMatcher::new(&q, engine.graph()).find_all();
    assert!(!direct.is_empty());

    let response = engine
        .execute(&QueryRequest::build(q).explain(true).finish())
        .unwrap();
    assert_eq!(response.strategy, StrategyKind::Bounded);
    assert_eq!(response.answer.as_matches(), Some(&direct));
    // Bounded runs report the fetch and the a-priori bound.
    let fetch = response.stats.fetch.as_ref().expect("bounded ran a fetch");
    assert!(fetch.fragment_nodes > 0);
    assert!((fetch.fragment_nodes as u64) <= response.stats.worst_case_nodes.unwrap());
    assert!(response.stats.fetch_utilization().unwrap() <= 1.0);
    // Explain carries the plan, no fallback.
    let explain = response.explain.expect("explain was requested");
    assert_eq!(explain.strategy, StrategyKind::Bounded);
    assert!(explain.plan.is_some());
    assert!(explain.fallback_reason.is_none());
    assert_eq!(engine.stats().bounded_runs, 1);
}

#[test]
fn second_identical_request_is_a_plan_cache_hit() {
    let engine = engine();
    let first = engine
        .execute(&QueryRequest::build(movie_pattern(engine.graph(), 2012)).finish())
        .unwrap();
    assert_eq!(first.stats.plan_cache, Some(CacheOutcome::Miss));

    // A structurally identical pattern, built independently.
    let second = engine
        .execute(&QueryRequest::build(movie_pattern(engine.graph(), 2012)).finish())
        .unwrap();
    assert_eq!(second.stats.plan_cache, Some(CacheOutcome::Hit));
    assert_eq!(second.answer, first.answer);

    // A different predicate constant is a different pattern: miss.
    let other = engine
        .execute(&QueryRequest::build(movie_pattern(engine.graph(), 2013)).finish())
        .unwrap();
    assert_eq!(other.stats.plan_cache, Some(CacheOutcome::Miss));

    let stats = engine.stats();
    assert_eq!(stats.queries, 3);
    assert_eq!(stats.plan_cache_hits, 1);
    assert_eq!(stats.plan_cache_misses, 2);
    assert_eq!(stats.cached_plans, 2);
    assert_eq!(stats.plan_cache_evictions, 0);
}

#[test]
fn tiny_cache_evicts_least_recently_used() {
    let engine = engine().with_cache_capacity(2);
    let years = [2010, 2011, 2012];
    for y in years {
        let r = engine
            .execute(&QueryRequest::build(movie_pattern(engine.graph(), y)).finish())
            .unwrap();
        assert_eq!(r.stats.plan_cache, Some(CacheOutcome::Miss));
    }
    let stats = engine.stats();
    assert_eq!(stats.plan_cache_evictions, 1);
    assert_eq!(stats.cached_plans, 2);
    // 2010 was evicted (LRU); 2012 is still cached.
    let r = engine
        .execute(&QueryRequest::build(movie_pattern(engine.graph(), 2012)).finish())
        .unwrap();
    assert_eq!(r.stats.plan_cache, Some(CacheOutcome::Hit));
    // The evicted entry took its fragment with it.
    let r = engine
        .execute(&QueryRequest::build(movie_pattern(engine.graph(), 2010)).finish())
        .unwrap();
    assert_eq!(r.stats.plan_cache, Some(CacheOutcome::Miss));
    assert_eq!(r.stats.fragment_cache, Some(CacheOutcome::Miss));
}

#[test]
fn unbounded_isomorphism_query_falls_back_with_identical_answer() {
    let engine = engine();
    // `noise` has no covering constraint → unbounded under the schema.
    let mut pb = PatternBuilder::with_interner(engine.graph().interner().clone());
    pb.node("noise", Predicate::single(bgpq_pattern::Op::Lt, 5));
    let q = pb.build();

    let direct = SubgraphMatcher::new(&q, engine.graph()).find_all();
    assert_eq!(direct.len(), 5);
    let response = engine
        .execute(&QueryRequest::build(q).explain(true).finish())
        .unwrap();
    // Indices exist, so the fallback tier is IndexSeeded — never Bounded.
    assert_eq!(response.strategy, StrategyKind::IndexSeeded);
    assert_eq!(response.answer.as_matches(), Some(&direct));
    assert!(response.stats.fetch.is_none());
    assert!(response.stats.worst_case_nodes.is_none());
    let explain = response.explain.unwrap();
    assert!(explain.plan.is_none());
    assert!(explain
        .fallback_reason
        .unwrap()
        .contains("not effectively bounded"));
    assert_eq!(engine.stats().fallbacks, 1);
    // The unbounded verdict is cached too.
    let mut pb = PatternBuilder::with_interner(engine.graph().interner().clone());
    pb.node("noise", Predicate::single(bgpq_pattern::Op::Lt, 5));
    let r = engine
        .execute(&QueryRequest::build(pb.build()).finish())
        .unwrap();
    assert_eq!(r.stats.plan_cache, Some(CacheOutcome::Hit));
}

#[test]
fn empty_schema_falls_back_to_baseline_identical_to_vf2_and_gsim() {
    let g = data_graph();
    let engine = Engine::new(g, &AccessSchema::new());
    let q = movie_pattern(engine.graph(), 2011);

    let vf2 = SubgraphMatcher::new(&q, engine.graph()).find_all();
    let r = engine
        .execute(&QueryRequest::build(q.clone()).finish())
        .unwrap();
    assert_eq!(r.strategy, StrategyKind::Baseline);
    assert_eq!(r.answer.as_matches(), Some(&vf2));

    let gsim = simulation_match(&q, engine.graph());
    let r = engine
        .execute(
            &QueryRequest::build(q)
                .semantics(Semantics::Simulation)
                .finish(),
        )
        .unwrap();
    assert_eq!(r.strategy, StrategyKind::Baseline);
    assert_eq!(r.answer.as_simulation(), Some(&gsim));
}

#[test]
fn simulation_unbounded_under_schema_falls_back_but_matches_gsim() {
    let engine = engine();
    // actor/country are only coverable through parents: bounded for
    // isomorphism, unbounded for simulation under this schema.
    let q = movie_pattern(engine.graph(), 2010);
    let gsim = simulation_match(&q, engine.graph());
    let r = engine
        .execute(
            &QueryRequest::build(q)
                .semantics(Semantics::Simulation)
                .finish(),
        )
        .unwrap();
    assert_eq!(r.strategy, StrategyKind::IndexSeeded);
    assert_eq!(r.answer.as_simulation(), Some(&gsim));
}

#[test]
fn foreign_interner_patterns_are_rejected_not_answered_wrongly() {
    let engine = engine();
    // Same label names, but interned in a different order: the ids cross
    // names, so raw-id matching would silently corrupt the answer.
    let mut pb = PatternBuilder::new();
    let m = pb.node("movie", Predicate::always()); // id 0 = "year" in the graph
    let y = pb.node("year", Predicate::always());
    pb.edge(y, m);
    let err = engine
        .execute(&QueryRequest::build(pb.build()).finish())
        .unwrap_err();
    assert!(matches!(err, BgpqError::PatternMismatch { .. }));
    assert!(err.to_string().contains("interner"));

    // A fresh interner whose id assignment happens to coincide is fine:
    // "year" is the graph's first label, and a never-seen label is fine
    // too (it can only produce an empty answer).
    let mut pb = PatternBuilder::new();
    pb.node("year", Predicate::always());
    assert!(engine
        .execute(&QueryRequest::build(pb.build()).finish())
        .is_ok());
    let mut pb = PatternBuilder::with_interner(engine.graph().interner().clone());
    pb.node("label_the_graph_never_saw", Predicate::always());
    let r = engine
        .execute(&QueryRequest::build(pb.build()).finish())
        .unwrap();
    assert!(r.answer.is_empty());
}

#[test]
fn all_strategies_agree_when_forced() {
    let engine = engine();
    for semantics in [Semantics::Isomorphism, Semantics::Simulation] {
        // Pick a pattern bounded for the semantics at hand.
        let q = match semantics {
            Semantics::Isomorphism => movie_pattern(engine.graph(), 2011),
            Semantics::Simulation => {
                // movie with year/award children only: coverable via
                // children for simulation too.
                let mut pb = PatternBuilder::with_interner(engine.graph().interner().clone());
                let m = pb.node("movie", Predicate::always());
                let y = pb.node("year", Predicate::always());
                let a = pb.node("award", Predicate::always());
                pb.edge(m, y);
                pb.edge(m, a);
                pb.build()
            }
        };
        let answers: Vec<_> = [
            StrategyKind::Bounded,
            StrategyKind::IndexSeeded,
            StrategyKind::Baseline,
        ]
        .into_iter()
        .map(|kind| {
            let r = engine
                .execute(
                    &QueryRequest::build(q.clone())
                        .semantics(semantics)
                        .strategy(kind)
                        .finish(),
                )
                .unwrap_or_else(|e| panic!("{kind:?}/{semantics} failed: {e}"));
            assert_eq!(r.strategy, kind);
            r.answer
        })
        .collect();
        assert_eq!(answers[0], answers[1], "{semantics}: bounded vs seeded");
        assert_eq!(answers[1], answers[2], "{semantics}: seeded vs baseline");
    }
}

#[test]
fn forced_strategy_errors_are_typed() {
    let engine = engine();
    let mut pb = PatternBuilder::with_interner(engine.graph().interner().clone());
    pb.node("noise", Predicate::always());
    let unbounded = pb.build();
    let err = engine
        .execute(
            &QueryRequest::build(unbounded)
                .strategy(StrategyKind::Bounded)
                .finish(),
        )
        .unwrap_err();
    assert!(matches!(err, BgpqError::Unbounded(_)));

    let empty = Engine::new(data_graph(), &AccessSchema::new());
    let err = empty
        .execute(
            &QueryRequest::build(movie_pattern(empty.graph(), 2010))
                .strategy(StrategyKind::IndexSeeded)
                .finish(),
        )
        .unwrap_err();
    assert!(matches!(err, BgpqError::StrategyUnavailable { .. }));
}

#[test]
fn budgets_truncate_and_abort() {
    let engine = engine();
    let q = movie_pattern(engine.graph(), 2011);
    let full = engine
        .execute(&QueryRequest::build(q.clone()).finish())
        .unwrap();
    let full_len = full.answer.len();
    assert!(full_len > 1);

    let capped = engine
        .execute(&QueryRequest::build(q.clone()).max_matches(1).finish())
        .unwrap();
    assert_eq!(capped.answer.len(), 1);
    assert!(!capped.stats.aborted);

    let starved = engine
        .execute(&QueryRequest::build(q).step_budget(1).finish())
        .unwrap();
    assert!(starved.stats.aborted);
    assert!(starved.answer.len() < full_len);
}

/// Stats must be populated uniformly: every strategy reports the plan-cache
/// outcome and the `predicate_filtered` counter, and the
/// `fragment_build`/`match` time split is consistent with which strategy
/// actually fetched a fragment.
#[test]
fn exec_stats_are_uniform_across_strategies() {
    let engine = engine();
    // The 2011 predicate rejects the three other year nodes, so every
    // strategy must report predicate-filtered candidates.
    for (kind, semantics) in [
        (StrategyKind::Bounded, Semantics::Isomorphism),
        (StrategyKind::IndexSeeded, Semantics::Isomorphism),
        (StrategyKind::IndexSeeded, Semantics::Simulation),
        (StrategyKind::Baseline, Semantics::Isomorphism),
        (StrategyKind::Baseline, Semantics::Simulation),
    ] {
        let r = engine
            .execute(
                &QueryRequest::build(movie_pattern(engine.graph(), 2011))
                    .semantics(semantics)
                    .strategy(kind)
                    .finish(),
            )
            .unwrap();
        assert_eq!(r.strategy, kind);
        assert!(
            r.stats.plan_cache.is_some(),
            "{kind:?}/{semantics}: plan cache outcome missing"
        );
        assert_eq!(
            r.stats.predicate_filtered, 3,
            "{kind:?}/{semantics}: three non-2011 years must be filtered"
        );
        // The build/match split: only the bounded tier builds a fragment.
        if kind == StrategyKind::Bounded {
            assert!(r.stats.fetch.is_some());
            assert!(r.stats.fragment_build_nanos > 0);
            assert_eq!(
                r.stats.fetch.as_ref().unwrap().fragment_build_nanos,
                r.stats.fragment_build_nanos
            );
        } else {
            assert!(r.stats.fetch.is_none());
            assert_eq!(r.stats.fragment_build_nanos, 0);
        }
        assert!(r.stats.total_nanos >= r.stats.match_nanos + r.stats.fragment_build_nanos);
    }
    // A repeated request reports a Hit on every strategy, not just Bounded.
    for kind in [
        StrategyKind::Bounded,
        StrategyKind::IndexSeeded,
        StrategyKind::Baseline,
    ] {
        let r = engine
            .execute(
                &QueryRequest::build(movie_pattern(engine.graph(), 2011))
                    .strategy(kind)
                    .finish(),
            )
            .unwrap();
        assert_eq!(
            r.stats.plan_cache,
            Some(CacheOutcome::Hit),
            "{kind:?}: repeat request must hit the plan cache"
        );
    }
}

/// A repeated bounded query must reuse its cached candidate set: the second
/// run reports a fragment-cache hit with zero index lookups, the same
/// fragment, and the identical answer.
#[test]
fn repeated_bounded_query_hits_the_fragment_cache() {
    let engine = engine();
    let request = |year| QueryRequest::build(movie_pattern(engine.graph(), year)).finish();

    let first = engine.execute(&request(2011)).unwrap();
    assert_eq!(first.strategy, StrategyKind::Bounded);
    assert_eq!(first.stats.fragment_cache, Some(CacheOutcome::Miss));
    let first_fetch = first.stats.fetch.as_ref().unwrap();
    assert!(first_fetch.index_lookups > 0);

    let second = engine.execute(&request(2011)).unwrap();
    assert_eq!(second.stats.fragment_cache, Some(CacheOutcome::Hit));
    assert_eq!(second.answer, first.answer);
    // The hit skipped every lookup: the fetch reports only this request's
    // own work, while the fragment-size fields describe the reused fragment.
    let second_fetch = second.stats.fetch.as_ref().unwrap();
    assert_eq!(second_fetch.index_lookups, 0);
    assert_eq!(second_fetch.lookups_deduped, 0);
    assert_eq!(second_fetch.nodes_returned, 0);
    assert_eq!(second_fetch.fragment_nodes, first_fetch.fragment_nodes);
    assert_eq!(second_fetch.fragment_edges, first_fetch.fragment_edges);
    assert!(second_fetch.fragment_build_nanos <= first_fetch.fragment_build_nanos);

    // A different predicate constant is a different fragment: miss.
    let other = engine.execute(&request(2013)).unwrap();
    assert_eq!(other.stats.fragment_cache, Some(CacheOutcome::Miss));

    let stats = engine.stats();
    assert_eq!(stats.fragment_cache_hits, 1);
    assert_eq!(stats.fragment_cache_misses, 2);
    assert_eq!(stats.cached_fragments, 2);
}

/// A query first served by a non-bounded tier leaves an entry with a plan
/// and no fragment: the first bounded run fills it, the next one reads it.
#[test]
fn a_cached_plan_without_a_fragment_is_filled_by_the_first_bounded_run() {
    let engine = engine();
    let request = || QueryRequest::build(movie_pattern(engine.graph(), 2011));
    let seeded = request().strategy(StrategyKind::IndexSeeded).finish();
    let seeded = engine.execute(&seeded).unwrap();
    assert_eq!(seeded.stats.plan_cache, Some(CacheOutcome::Miss));
    assert_eq!(seeded.stats.fragment_cache, None);
    let stats = engine.stats();
    assert_eq!((stats.cached_plans, stats.cached_fragments), (1, 0));

    let cold = engine.execute(&request().finish()).unwrap();
    assert_eq!(cold.strategy, StrategyKind::Bounded);
    assert_eq!(cold.stats.plan_cache, Some(CacheOutcome::Hit));
    assert_eq!(cold.stats.fragment_cache, Some(CacheOutcome::Miss));
    assert!(cold.stats.fetch.as_ref().unwrap().index_lookups > 0);

    let hot = engine.execute(&request().finish()).unwrap();
    assert_eq!(hot.stats.plan_cache, Some(CacheOutcome::Hit));
    assert_eq!(hot.stats.fragment_cache, Some(CacheOutcome::Hit));
    assert_eq!(hot.stats.fetch.as_ref().unwrap().index_lookups, 0);

    assert_eq!(seeded.answer, cold.answer);
    assert_eq!(cold.answer, hot.answer);
    let stats = engine.stats();
    assert_eq!((stats.cached_plans, stats.cached_fragments), (1, 1));
    assert_eq!(
        (stats.fragment_cache_hits, stats.fragment_cache_misses),
        (1, 1)
    );
}

/// Concurrent cold runs of one bounded query share one entry: each run is
/// counted once, as the fetch that filled the entry or as a hit on it, and
/// every answer is the same.
#[test]
fn racing_cold_bounded_requests_share_one_entry() {
    let engine = engine();
    let threads = 4;
    let barrier = std::sync::Barrier::new(threads);
    let answers: Vec<_> = std::thread::scope(|s| {
        let runs: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let request = QueryRequest::build(movie_pattern(engine.graph(), 2011)).finish();
                    barrier.wait();
                    let r = engine.execute(&request).unwrap();
                    assert_eq!(r.strategy, StrategyKind::Bounded);
                    r.answer
                })
            })
            .collect();
        runs.into_iter().map(|run| run.join().unwrap()).collect()
    });
    assert!(!answers[0].is_empty());
    assert!(answers.iter().all(|a| *a == answers[0]));
    let stats = engine.stats();
    assert_eq!((stats.cached_plans, stats.cached_fragments), (1, 1));
    assert_eq!(
        stats.fragment_cache_hits + stats.fragment_cache_misses,
        threads as u64
    );
}

/// Capacity 0 disables the fragment cache: every bounded run re-fetches and
/// reports a bypass, and nothing is retained or counted.
#[test]
fn fragment_cache_capacity_zero_bypasses() {
    let engine = engine().with_cache_capacity(0);
    let request = || QueryRequest::build(movie_pattern(engine.graph(), 2011)).finish();
    let first = engine.execute(&request()).unwrap();
    let second = engine.execute(&request()).unwrap();
    assert_eq!(first.stats.fragment_cache, Some(CacheOutcome::Bypass));
    assert_eq!(second.stats.fragment_cache, Some(CacheOutcome::Bypass));
    assert_eq!(second.answer, first.answer);
    assert!(second.stats.fetch.as_ref().unwrap().index_lookups > 0);
    let stats = engine.stats();
    assert_eq!(stats.fragment_cache_hits, 0);
    assert_eq!(stats.fragment_cache_misses, 0);
    assert_eq!(stats.cached_fragments, 0);
}

/// Only the bounded tier consults the fragment cache; the other strategies
/// fetch no fragment and must report no outcome.
#[test]
fn non_bounded_strategies_report_no_fragment_cache_outcome() {
    let engine = engine();
    for kind in [StrategyKind::IndexSeeded, StrategyKind::Baseline] {
        let r = engine
            .execute(
                &QueryRequest::build(movie_pattern(engine.graph(), 2011))
                    .strategy(kind)
                    .finish(),
            )
            .unwrap();
        assert_eq!(r.stats.fragment_cache, None, "{kind:?}");
    }
}

/// The equivalence suite's guarantee, re-asserted through the session API:
/// on generated workloads the engine (auto-selected strategy) returns
/// exactly the direct algorithms' answers, for both semantics.
#[test]
fn engine_equivalence_on_generated_workloads() {
    let g = data_graph();
    let discovered = discover_schema(&g, &DiscoveryConfig::default());
    let engine = Engine::new(g, &discovered);
    let mut generator = WorkloadGenerator::with_seed(7);
    let mut patterns = generator.generate_anchored(engine.graph(), 5);
    patterns.extend(generator.generate(engine.graph(), 5));

    let mut bounded_runs = 0;
    for (i, q) in patterns.into_iter().enumerate() {
        let vf2 = SubgraphMatcher::new(&q, engine.graph()).find_all();
        let r = engine
            .execute(&QueryRequest::build(q.clone()).finish())
            .unwrap();
        assert_eq!(r.answer.as_matches(), Some(&vf2), "iso pattern {i}");
        if r.strategy == StrategyKind::Bounded {
            bounded_runs += 1;
        }

        let gsim = simulation_match(&q, engine.graph());
        let r = engine
            .execute(
                &QueryRequest::build(q)
                    .semantics(Semantics::Simulation)
                    .finish(),
            )
            .unwrap();
        assert_eq!(r.answer.as_simulation(), Some(&gsim), "sim pattern {i}");
    }
    // The discovered schema has global constraints per label, so the
    // isomorphism side must run bounded throughout.
    assert_eq!(bounded_runs, 10);
    assert_eq!(engine.stats().queries, 20);
}

/// Two concurrent bounded executions can never alias an arena. Every pool
/// slot is held hostage by a thread for the whole duration
/// of four concurrent bounded executions — `with_any` must hand each
/// execution a distinct overflow arena (never block behind a busy slot,
/// never share one), and every answer must equal the serial run.
#[test]
fn concurrent_bounded_executions_never_alias_an_arena() {
    let engine = engine();
    let q = movie_pattern(engine.graph(), 2011);
    let serial = engine
        .execute(&QueryRequest::build(q.clone()).finish())
        .unwrap();
    assert_eq!(serial.strategy, StrategyKind::Bounded);
    assert!(!serial.answer.is_empty());

    let pool = engine.arena_pool();
    let workers = pool.workers();
    let queries = 4;
    let barrier = std::sync::Barrier::new(workers + queries);
    std::thread::scope(|s| {
        for _ in 0..workers {
            let barrier = &barrier;
            s.spawn(move || {
                pool.with_any(|_| {
                    // Hold the slot across both barriers: busy for the
                    // entire window in which the queries execute.
                    barrier.wait();
                    barrier.wait();
                });
            });
        }
        for _ in 0..queries {
            let (engine, q, serial, barrier) = (&engine, &q, &serial, &barrier);
            s.spawn(move || {
                barrier.wait();
                let r = engine
                    .execute(&QueryRequest::build(q.clone()).finish())
                    .unwrap();
                assert_eq!(r.strategy, StrategyKind::Bounded);
                assert_eq!(r.answer, serial.answer);
                barrier.wait();
            });
        }
    });
}
