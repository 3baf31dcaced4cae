//! The session-oriented engine.

use crate::cache::{CacheEntry, QueryCache, SharedResources};
use crate::error::BgpqError;
use crate::request::QueryRequest;
use crate::response::{Explain, QueryAnswer, QueryResponse};
use crate::stats::{CacheOutcome, EngineStats, ExecStats};
use crate::strategy::{vf2_config, StrategyKind, StrategyRun};
use bgpq_access::{AccessIndexSet, AccessSchema};
use bgpq_core::{
    bounded_simulation_match_prefetched, bounded_subgraph_match_prefetched, fetch_candidate_sets,
    plan_for_indices, FetchStats, LookupMemo, PlanError, QueryPlan, Semantics,
};
use bgpq_graph::{ArenaPool, Graph};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The version of a standalone engine's (only) snapshot.
pub const INITIAL_SNAPSHOT_VERSION: u64 = 0;

/// A session-oriented query engine over one graph and one access schema.
///
/// The engine holds the [`Graph`] (behind an `Arc` it shares with the
/// unary access indices, which answer from the graph's rows) and the
/// [`AccessIndexSet`] built for its schema, and serves repeated
/// [`QueryRequest`]s through [`Engine::execute`]. Per request it
///
/// 1. retrieves the query's entry from the LRU [`QueryCache`] (keyed by the
///    pattern's canonical fingerprint and the semantics), running the
///    effective-boundedness decision only on a miss;
/// 2. selects a [`StrategyKind`]: `Bounded` when a plan exists, else
///    `IndexSeeded` when the schema is non-empty, else `Baseline` — or the
///    strategy the request forced;
/// 3. executes it — the bounded tier fetching its candidate sets into the
///    cache entry unless an earlier run already did — and returns a typed
///    [`QueryResponse`] with the answer, the strategy used, and unified
///    [`ExecStats`].
///
/// `execute` takes `&self` — the engine is `Sync` and can be shared across
/// threads behind an `Arc`, with the cache guarded internally.
///
/// ```
/// use bgpq_engine::{AccessConstraint, AccessSchema, Engine, QueryRequest};
/// use bgpq_graph::{GraphBuilder, Value};
/// use bgpq_pattern::{PatternBuilder, Predicate};
///
/// // A toy graph: one movie from 2012 with one actor, plus noise.
/// let mut b = GraphBuilder::new();
/// let y = b.add_node("year", Value::Int(2012));
/// let m = b.add_node("movie", Value::str("Argo"));
/// let a = b.add_node("actor", Value::str("Affleck"));
/// b.add_edge(y, m).unwrap();
/// b.add_edge(m, a).unwrap();
/// let graph = b.build();
///
/// let year = graph.interner().get("year").unwrap();
/// let movie = graph.interner().get("movie").unwrap();
/// let actor = graph.interner().get("actor").unwrap();
/// let schema = AccessSchema::from_constraints([
///     AccessConstraint::global(year, 10),
///     AccessConstraint::unary(year, movie, 5),
///     AccessConstraint::unary(movie, actor, 5),
/// ]);
/// let engine = Engine::new(graph, &schema);
///
/// let mut pb = PatternBuilder::with_interner(engine.graph().interner().clone());
/// let pm = pb.node("movie", Predicate::always());
/// let py = pb.node("year", Predicate::single(bgpq_pattern::Op::Eq, 2012));
/// let pa = pb.node("actor", Predicate::always());
/// pb.edge(py, pm);
/// pb.edge(pm, pa);
///
/// let request = QueryRequest::build(pb.build()).finish();
/// let response = engine.execute(&request).unwrap();
/// assert_eq!(response.answer.len(), 1);
/// assert_eq!(response.strategy, bgpq_engine::StrategyKind::Bounded);
/// // A second identical request is served from the query cache.
/// let again = engine.execute(&request).unwrap();
/// assert_eq!(engine.stats().plan_cache_hits, 1);
/// assert_eq!(again.answer, response.answer);
/// ```
pub struct Engine {
    graph: Arc<Graph>,
    indices: AccessIndexSet,
    /// The snapshot version this engine serves. Standalone engines stay at
    /// [`INITIAL_SNAPSHOT_VERSION`]; a serving layer derives one engine per
    /// graph snapshot with monotonically increasing versions.
    version: u64,
    /// Plans and fetched candidate sets: a repeated query skips planning,
    /// and a repeated bounded query reuses its fragment instead of
    /// re-issuing lookups.
    cache: QueryCache,
    /// Pool of fragment-construction arenas, one checked out per in-flight
    /// bounded execution; buffers are reused across queries — and, in a
    /// serving chain, across versions — so steady-state fragment builds
    /// allocate nothing. A busy slot is skipped, never shared, so two
    /// concurrent executions can never alias an arena.
    scratch: Arc<ArenaPool>,
    queries: AtomicU64,
    bounded_runs: AtomicU64,
    fallbacks: AtomicU64,
}

impl Engine {
    /// Creates an engine for `graph` under `schema`, building one index per
    /// constraint (the one-off session setup cost).
    pub fn new(graph: impl Into<Arc<Graph>>, schema: &AccessSchema) -> Self {
        let graph = graph.into();
        let indices = AccessIndexSet::build(&graph, schema);
        Self::with_indices(graph, indices)
    }

    /// Creates an engine from pre-built indices (e.g. indices maintained
    /// incrementally by `bgpq_access::maintenance` across graph updates),
    /// with a cache and arenas of its own.
    pub fn with_indices(graph: impl Into<Arc<Graph>>, indices: AccessIndexSet) -> Self {
        Self::with_shared_at_version(
            graph,
            indices,
            INITIAL_SNAPSHOT_VERSION,
            SharedResources::default(),
        )
    }

    /// Creates the engine of one **graph snapshot** in a serving chain: the
    /// graph and indices as of `version`, plus the [`SharedResources`] it
    /// has in common with the engines of the other snapshots. Cache entries
    /// are keyed by snapshot version, so a version bump makes them re-derive
    /// instead of being served stale, and engines of different versions
    /// coexist in the shared cache (see [`QueryCache`]). The arena pool
    /// hands every in-flight execution of any version an arena of its own.
    pub fn with_shared_at_version(
        graph: impl Into<Arc<Graph>>,
        indices: AccessIndexSet,
        version: u64,
        shared: SharedResources,
    ) -> Self {
        Engine {
            graph: graph.into(),
            indices,
            version,
            cache: shared.cache,
            scratch: shared.arenas,
            queries: AtomicU64::new(0),
            bounded_runs: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
        }
    }

    /// Creates an engine from a loaded snapshot bundle: the graph, schema
    /// and indices come out of the container fully built, so no schema
    /// discovery or index construction happens here — the preprocessing
    /// cost was paid once, by `bgpq compile`.
    pub fn from_snapshot(bundle: bgpq_access::SnapshotBundle) -> Self {
        Self::with_indices(bundle.graph, bundle.indices)
    }

    /// Replaces the query cache with one holding at most `capacity` queries
    /// (`0` disables caching — every query plans, and every bounded query
    /// fetches, afresh). Existing entries and cache counters are dropped
    /// (the new cache is private to this engine).
    pub fn with_cache_capacity(self, capacity: usize) -> Self {
        Engine {
            cache: QueryCache::with_capacity(capacity),
            ..self
        }
    }

    /// The snapshot version this engine serves
    /// ([`INITIAL_SNAPSHOT_VERSION`] for standalone engines).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The data graph the engine serves queries over.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The access indices backing the engine's schema.
    pub fn indices(&self) -> &AccessIndexSet {
        &self.indices
    }

    /// The engine's scratch-arena pool; executions check an arena out
    /// through [`ArenaPool::with_any`]. Engines built from one
    /// [`SharedResources`] return the same pool.
    pub fn arena_pool(&self) -> &Arc<ArenaPool> {
        &self.scratch
    }

    /// Executes one request: plan (cached) → select strategy → run.
    ///
    /// The request's pattern must be built against the engine graph's label
    /// interner (clone it via `engine.graph().interner()`): matching
    /// compares raw label ids, so a pattern from a foreign interner is
    /// rejected with [`BgpqError::PatternMismatch`] rather than silently
    /// returning wrong answers. Beyond that, automatic selection never
    /// fails — every engine can at least run the baseline. The remaining
    /// errors arise from a forced strategy the engine cannot honor:
    /// [`BgpqError::Unbounded`] when [`StrategyKind::Bounded`] was demanded
    /// for an unbounded pattern, [`BgpqError::StrategyUnavailable`]
    /// otherwise.
    pub fn execute(&self, request: &QueryRequest) -> Result<QueryResponse, BgpqError> {
        let started = Instant::now();
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.check_pattern_alignment(request.pattern())?;

        let key = (request.pattern().fingerprint(), request.semantics());
        let (entry, plan_cache) = self.cache.entry(key, self.version, || {
            plan_for_indices(request.pattern(), &self.indices, request.semantics())
        });
        let plan_nanos = started.elapsed().as_nanos() as u64;
        let plan = entry.plan.as_ref().ok();

        let strategy = self.select_strategy(request, &entry.plan)?;
        if strategy == StrategyKind::Bounded {
            self.bounded_runs.fetch_add(1, Ordering::Relaxed);
        } else if plan.is_none() && request.forced_strategy().is_none() {
            self.fallbacks.fetch_add(1, Ordering::Relaxed);
        }

        let match_started = Instant::now();
        let run = self.run_strategy(strategy, request, &entry, plan_cache);
        let exec_nanos = match_started.elapsed().as_nanos() as u64;
        let fragment_build_nanos = run
            .fetch
            .as_ref()
            .map_or(0, |fetch| fetch.fragment_build_nanos);

        let stats = ExecStats {
            snapshot_version: self.version,
            plan_nanos,
            fragment_build_nanos,
            match_nanos: exec_nanos.saturating_sub(fragment_build_nanos),
            total_nanos: started.elapsed().as_nanos() as u64,
            plan_cache: Some(plan_cache),
            fragment_cache: run.fragment_cache,
            predicate_filtered: run.predicate_filtered,
            fetch: run.fetch,
            worst_case_nodes: plan.map(QueryPlan::worst_case_nodes),
            matcher_steps: run.search.as_ref().map(|search| search.steps),
            aborted: run.search.as_ref().is_some_and(|search| search.aborted),
        };
        let explain = request.explain_requested().then(|| Explain {
            strategy,
            plan: plan.cloned(),
            fallback_reason: entry.plan.as_ref().err().map(PlanError::to_string),
        });
        Ok(QueryResponse {
            answer: run.answer,
            strategy,
            stats,
            explain,
        })
    }

    /// Runs the bounded tier: the entry's candidate sets — fetched now
    /// unless an earlier run at this version already did, which is sound
    /// because the cache key canonically covers the pattern's structure,
    /// labels and predicate constants, and planning and fetching are
    /// deterministic for a fixed snapshot — then a zero-copy view build
    /// and the match. `plan_cache` is what the cache did for the entry.
    pub(crate) fn run_bounded(
        &self,
        request: &QueryRequest,
        entry: &CacheEntry,
        plan_cache: CacheOutcome,
    ) -> StrategyRun {
        let plan = entry.plan.as_ref();
        let plan = plan.expect("the bounded tier is selected only with a plan");
        let pattern = request.pattern();
        let cached = plan_cache != CacheOutcome::Bypass;
        let (fragment, fragment_cache) = self.cache.fragment(entry, cached, || {
            let memo = &mut LookupMemo::new();
            fetch_candidate_sets(plan, pattern, &self.graph, &self.indices, memo)
        });
        let (answer, mut fetch, search) = match request.semantics() {
            Semantics::Isomorphism => {
                let (matches, fetch, stats) = self.scratch.with_any(|scratch| {
                    let config = vf2_config(request);
                    bounded_subgraph_match_prefetched(
                        pattern,
                        &self.graph,
                        fragment,
                        config,
                        scratch,
                    )
                });
                (QueryAnswer::Matches(matches), fetch, Some(stats))
            }
            Semantics::Simulation => {
                let (relation, fetch) = self.scratch.with_any(|scratch| {
                    bounded_simulation_match_prefetched(pattern, &self.graph, fragment, scratch)
                });
                (QueryAnswer::Simulation(relation), fetch, None)
            }
        };
        if fragment_cache == CacheOutcome::Hit {
            subtract_cached_baseline(&mut fetch, &fragment.stats);
        }
        StrategyRun {
            answer,
            search,
            predicate_filtered: fetch.predicate_filtered,
            fetch: Some(fetch),
            fragment_cache: Some(fragment_cache),
        }
    }

    /// Lifetime counters: queries served, bounded runs, fallbacks and
    /// cache behavior.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            snapshot_version: self.version,
            queries: self.queries.load(Ordering::Relaxed),
            bounded_runs: self.bounded_runs.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            ..self.cache.stats()
        }
    }

    /// Rejects patterns whose label ids disagree with the engine graph's
    /// interner. Alignment per pattern node: its label name resolves to the
    /// *same* id in the graph's interner — or to no id at all while the
    /// pattern's id is also unassigned in the graph (a label the graph has
    /// never seen can only produce an empty candidate set, never a wrong
    /// one). Anything else means raw-id comparisons would cross names.
    fn check_pattern_alignment(&self, pattern: &bgpq_pattern::Pattern) -> Result<(), BgpqError> {
        let graph_interner = self.graph.interner();
        for u in pattern.nodes() {
            let label = pattern.label(u);
            let aligned = match pattern.interner().name(label) {
                Some(name) => match graph_interner.get(name) {
                    Some(graph_label) => graph_label == label,
                    None => !graph_interner.contains(label),
                },
                // The pattern's own interner does not know the id: only
                // safe when the graph cannot produce it either.
                None => !graph_interner.contains(label),
            };
            if !aligned {
                return Err(BgpqError::PatternMismatch {
                    node: u,
                    label: pattern.label_name(u),
                });
            }
        }
        Ok(())
    }
}

/// Rebases a cache-hit request's fetch counters onto its *own* work: the
/// cached [`FetchStats`] baseline — the lookups, filtering and lookup-side
/// time spent when the fragment was originally fetched — is subtracted, so
/// the request reports zero index lookups and only its view-construction
/// time, while the fragment-size fields (not part of the baseline delta)
/// keep describing the reused fragment.
fn subtract_cached_baseline(fetch: &mut FetchStats, baseline: &FetchStats) {
    fetch.index_lookups = fetch.index_lookups.saturating_sub(baseline.index_lookups);
    fetch.lookups_deduped = fetch
        .lookups_deduped
        .saturating_sub(baseline.lookups_deduped);
    fetch.nodes_returned = fetch.nodes_returned.saturating_sub(baseline.nodes_returned);
    fetch.predicate_filtered = fetch
        .predicate_filtered
        .saturating_sub(baseline.predicate_filtered);
    fetch.fragment_build_nanos = fetch
        .fragment_build_nanos
        .saturating_sub(baseline.fragment_build_nanos);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The engine must stay shareable across threads.
    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
    }

    /// A panic inside the bounded tier's fetch — in the cache entry's
    /// `OnceLock` initialiser — unwinds to the caller and leaves nothing
    /// behind: the counters still read, the entry is refetched by the next
    /// identical request and answers as the index-seeded tier does, and the
    /// arena pool keeps its slot.
    #[test]
    fn a_panic_inside_the_fetch_leaves_the_entry_refetchable() {
        use crate::cache::PANIC_IN_FETCH;
        use bgpq_access::AccessConstraint;
        use bgpq_graph::{GraphBuilder, ScratchArena, Value};
        use bgpq_pattern::{PatternBuilder, Predicate};
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let mut b = GraphBuilder::new();
        let users: Vec<_> = (0..3).map(|i| b.add_node("user", Value::Int(i))).collect();
        for i in 0..12 {
            let post = b.add_node("post", Value::Int(i));
            b.add_edge(users[i as usize % 3], post).unwrap();
        }
        let graph = b.build();
        let label = |name: &str| graph.interner().get(name).unwrap();
        let schema = AccessSchema::from_constraints([
            AccessConstraint::global(label("user"), 3),
            AccessConstraint::unary(label("user"), label("post"), 4),
        ]);
        let mut pb = PatternBuilder::with_interner(graph.interner().clone());
        let (user, post) = (
            pb.node("user", Predicate::always()),
            pb.node("post", Predicate::always()),
        );
        pb.edge(user, post);
        let pattern = pb.build();
        let engine = Engine::new(graph, &schema);
        let request = |kind| {
            let request = QueryRequest::build(pattern.clone()).strategy(kind);
            request.finish()
        };
        let arena = |pool: &ArenaPool| pool.with_any(|a| a as *mut ScratchArena as usize);
        let slot = arena(engine.arena_pool());

        PANIC_IN_FETCH.set(true);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            engine.execute(&request(StrategyKind::Bounded))
        }));
        assert!(unwound.is_err(), "the injected panic must reach the caller");
        let stats = engine.stats();
        assert_eq!((stats.cached_plans, stats.cached_fragments), (1, 0));
        assert_eq!(stats.fragment_cache_misses, 0);

        let bounded = engine.execute(&request(StrategyKind::Bounded)).unwrap();
        assert_eq!(
            bounded.stats.fragment_cache,
            Some(CacheOutcome::Miss),
            "refetched"
        );
        let seeded = engine.execute(&request(StrategyKind::IndexSeeded)).unwrap();
        assert_eq!(bounded.answer, seeded.answer);
        assert_eq!(bounded.answer.as_matches().map(|m| m.len()), Some(12));
        let again = engine.execute(&request(StrategyKind::Bounded)).unwrap();
        assert_eq!(again.stats.fragment_cache, Some(CacheOutcome::Hit));
        assert_eq!(engine.stats().cached_fragments, 1);
        assert_eq!(
            arena(engine.arena_pool()),
            slot,
            "the pool's slot is still in service"
        );
    }
}
