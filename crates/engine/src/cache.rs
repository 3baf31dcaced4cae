//! The query cache: one LRU entry per query, holding its plan and, once the
//! bounded tier has fetched it, its candidate sets.
//!
//! Planning — the effective-boundedness closure of
//! [`bgpq_core::plan_query`] — is cheap next to matching, but a
//! session-oriented engine sees the *same* patterns over and over (dashboard
//! queries, templated lookups), and the planner's outcome for a pattern
//! never changes while the schema is fixed. An entry memoizes it, keyed by
//! the canonical [`PatternFingerprint`](bgpq_pattern::PatternFingerprint)
//! plus the [`Semantics`]: the second identical request skips the closure
//! entirely, and *negative* outcomes (the pattern is unbounded) are cached
//! too, so repeated unbounded queries skip straight to their fallback tier.
//!
//! The fetched [`CandidateSet`] — every index lookup plus predicate
//! filtering behind one bounded query, which together with the pattern
//! determines the fragment `G_Q` — is deterministic per (pattern
//! fingerprint, semantics, snapshot version) as well: the fingerprint
//! canonically covers the pattern's structure, labels *and* predicate
//! constants, and planning is deterministic. So the entry that holds the
//! plan also holds the fragment, in a [`OnceLock`] the bounded tier fills
//! on its first run without taking the cache lock. A hot query takes the
//! lock once, skips every lookup and goes straight to view construction and
//! matching.
//!
//! Under a **mutable** graph an update can change the index coverage a plan
//! depends on, or the graph region a fragment was fetched from, so slots are
//! keyed by snapshot version too (see [`Lru::probe`] and [`Lru::insert`]). A
//! [`QueryCache`] can thus be handed to the engines of successive snapshots,
//! which share one bounded cache without ever serving a stale entry.

use crate::stats::{CacheOutcome, EngineStats};
use bgpq_core::{CandidateSet, PlanError, QueryPlan, Semantics};
use bgpq_graph::ArenaPool;
use bgpq_pattern::PatternFingerprint;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Default number of queries the engine caches: the reach the plan cache
/// had before plans and candidate sets shared one entry, so a mix of more
/// than 128 distinct bounded and unbounded queries does not cycle through
/// the cache. Every entry may hold a candidate set, whose size the plan
/// bounds independently of `|G|`.
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// Cache key: what the planner's outcome — and, given the deterministic
/// planner, the fetched candidate set — depends on, given a fixed schema.
pub(crate) type CacheKey = (PatternFingerprint, Semantics);

/// One query's cached state at one snapshot version.
pub(crate) struct CacheEntry {
    /// The plan, or the planner's refusal.
    pub(crate) plan: Result<QueryPlan, PlanError>,
    /// The candidate sets the plan fetches; empty until the bounded tier
    /// first runs the query at this version.
    pub(crate) fragment: OnceLock<CandidateSet>,
}

/// What the engines of one serving chain share across snapshot versions:
/// the query cache and the scratch arenas. A serving layer creates one
/// value, keeps it, and hands a clone (two reference-count bumps) to
/// [`Engine::with_shared_at_version`](crate::Engine::with_shared_at_version)
/// for every snapshot it publishes: cache entries are keyed by version, so
/// sharing never serves a stale one, and the arenas warmed by one version's
/// queries serve the next version's instead of being dropped with the
/// superseded engine. [`Default`] gives a default-capacity cache and one
/// arena slot per available core.
#[derive(Debug, Clone)]
pub struct SharedResources {
    /// Memoized plans, unbounded verdicts and fetched candidate sets.
    pub cache: QueryCache,
    /// Fragment-construction arenas, one checked out per in-flight bounded
    /// execution — of whichever version.
    pub arenas: Arc<ArenaPool>,
}

impl Default for SharedResources {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        SharedResources {
            cache: QueryCache::default(),
            arenas: Arc::new(ArenaPool::new(cores)),
        }
    }
}

/// A bounded, versioned LRU of query entries (see the module docs).
///
/// Cloning is cheap and shares the underlying cache. Entries are validated
/// against the probing engine's snapshot version, so sharing never serves a
/// plan or candidate set computed against another version's graph or
/// indices.
#[derive(Clone)]
pub struct QueryCache(Arc<Shared>);

#[derive(Default)]
struct Shared {
    lru: Mutex<Lru>,
    /// Counted outside the lock: the bounded tier reads and fills an
    /// entry's fragment without taking it.
    fragment_hits: AtomicU64,
    fragment_misses: AtomicU64,
}

impl QueryCache {
    /// Creates a cache holding at most `capacity` queries (`0` disables
    /// caching: every request plans and fetches afresh and reports
    /// [`CacheOutcome::Bypass`]).
    pub fn with_capacity(capacity: usize) -> Self {
        QueryCache(Arc::new(Shared {
            lru: Mutex::new(Lru::new(capacity)),
            ..Shared::default()
        }))
    }

    /// The lock guards a map probe or insert plus counters, so a panic
    /// inside it can at worst lose one entry: a poisoned lock is recovered.
    fn lock(&self) -> MutexGuard<'_, Lru> {
        self.0.lru.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The entry of `key` at `version`, and what the cache did. A hit takes
    /// the lock once. On a miss `plan` runs *outside* the lock — holding it
    /// across a planning run would serialize unrelated requests — and a
    /// second lock inserts the entry; a request that raced on the same miss
    /// adopts the entry inserted first, so both share one fragment.
    pub(crate) fn entry(
        &self,
        key: CacheKey,
        version: u64,
        plan: impl FnOnce() -> Result<QueryPlan, PlanError>,
    ) -> (Arc<CacheEntry>, CacheOutcome) {
        let enabled = {
            let mut lru = self.lock();
            if let Some(entry) = lru.probe(&key, version) {
                return (entry, CacheOutcome::Hit);
            }
            lru.capacity > 0
        };
        let entry = Arc::new(CacheEntry {
            plan: plan(),
            fragment: OnceLock::new(),
        });
        if !enabled {
            return (entry, CacheOutcome::Bypass);
        }
        (self.lock().insert(key, version, entry), CacheOutcome::Miss)
    }

    /// The entry's candidate sets, fetched by `fetch` if the entry holds
    /// none yet, and what the cache did. `cached` is false for an entry the
    /// cache bypassed. No lock is taken: fetching is deterministic per
    /// snapshot, so concurrent first requests wait for one fetch instead of
    /// repeating it, and every one of them reads the same candidate sets.
    pub(crate) fn fragment<'e>(
        &self,
        entry: &'e CacheEntry,
        cached: bool,
        fetch: impl FnOnce() -> CandidateSet,
    ) -> (&'e CandidateSet, CacheOutcome) {
        let mut fetched = false;
        let fragment = entry.fragment.get_or_init(|| {
            fetched = true;
            fetch()
        });
        let (outcome, counter) = match (cached, fetched) {
            (false, _) => return (fragment, CacheOutcome::Bypass),
            (true, true) => (CacheOutcome::Miss, &self.0.fragment_misses),
            (true, false) => (CacheOutcome::Hit, &self.0.fragment_hits),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        (fragment, outcome)
    }

    /// The cache's counters as [`EngineStats`] (the engine fills in its own
    /// fields). Takes the lock once.
    pub(crate) fn stats(&self) -> EngineStats {
        let lru = self.lock();
        EngineStats {
            plan_cache_hits: lru.hits,
            plan_cache_misses: lru.misses,
            plan_cache_evictions: lru.evictions,
            plan_cache_invalidations: lru.invalidations,
            cached_plans: lru.slots.len(),
            fragment_cache_hits: self.0.fragment_hits.load(Ordering::Relaxed),
            fragment_cache_misses: self.0.fragment_misses.load(Ordering::Relaxed),
            fragment_cache_evictions: lru.fragment_evictions,
            fragment_cache_invalidations: lru.fragment_invalidations,
            cached_fragments: lru.slots.values().filter(|s| s.holds_fragment()).count(),
            ..EngineStats::default()
        }
    }
}

impl Default for QueryCache {
    /// A cache of [`DEFAULT_CACHE_CAPACITY`] queries.
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

impl std::fmt::Debug for QueryCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let lru = self.lock();
        let (capacity, len) = (lru.capacity, lru.slots.len());
        f.debug_struct("QueryCache")
            .field("capacity", &capacity)
            .field("len", &len)
            .finish()
    }
}

struct Slot {
    entry: Arc<CacheEntry>,
    last_used: u64,
}

impl Slot {
    fn holds_fragment(&self) -> bool {
        self.entry.fragment.get().is_some()
    }
}

/// The state behind the lock. Every counter counts entries; the
/// `fragment_*` ones only entries that held candidate sets.
#[derive(Default)]
struct Lru {
    capacity: usize,
    /// Keyed by (pattern fingerprint + semantics, snapshot version).
    slots: HashMap<(CacheKey, u64), Slot>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
    fragment_evictions: u64,
    fragment_invalidations: u64,
}

impl Lru {
    fn new(capacity: usize) -> Self {
        Lru {
            capacity,
            ..Lru::default()
        }
    }

    /// Looks `key` up for an engine at `version`, counting a hit or a miss.
    /// Only an entry computed against exactly `version` is returned — a
    /// commit may have changed the index coverage its plan (or unbounded
    /// verdict) depends on, or the graph its fragment came from — so other
    /// versions' slots are invisible, though retained for the readers
    /// pinned to them. A disabled cache (capacity 0) counts nothing.
    fn probe(&mut self, key: &CacheKey, version: u64) -> Option<Arc<CacheEntry>> {
        if self.capacity == 0 {
            return None;
        }
        self.clock += 1;
        match self.slots.get_mut(&(*key, version)) {
            Some(slot) => {
                slot.last_used = self.clock;
                self.hits += 1;
                Some(Arc::clone(&slot.entry))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Caches `entry` under `key` for `version` and returns the entry now
    /// cached there: a present one (two requests raced on the same miss)
    /// wins and is returned without eviction. Inserting at a version
    /// retires the key's entries of **strictly older** versions (counted as
    /// invalidations): they are superseded for every reader that will still
    /// probe them at that version or later, while a pinned reader's insert
    /// at an *older* version leaves newer entries untouched — the two
    /// populations coexist instead of evicting each other.
    ///
    /// Eviction prefers the least-recently-used slot among entries of
    /// versions **strictly older** than `version` — leftovers of superseded
    /// snapshots whose pinned readers are mostly gone — and only when no
    /// such entry exists falls back to global LRU. A plain global LRU can
    /// evict a hot current-version slot while a stale-version slot survives
    /// on an old `last_used` stamp, collapsing the current version's hit
    /// rate under version churn.
    fn insert(&mut self, key: CacheKey, version: u64, entry: Arc<CacheEntry>) -> Arc<CacheEntry> {
        self.clock += 1;
        if let Some(slot) = self.slots.get_mut(&(key, version)) {
            slot.last_used = self.clock;
            return Arc::clone(&slot.entry);
        }
        let stale: Vec<(CacheKey, u64)> = self
            .slots
            .keys()
            .filter(|&&(k, v)| k == key && v < version)
            .copied()
            .collect();
        for old in stale {
            self.invalidations += 1;
            self.fragment_invalidations += u64::from(self.remove(&old));
        }
        if self.slots.len() >= self.capacity {
            let lru = |older: bool| {
                self.slots
                    .iter()
                    .filter(|(&(_, v), _)| !older || v < version)
                    .min_by_key(|(_, slot)| slot.last_used)
                    .map(|(&k, _)| k)
            };
            if let Some(victim) = lru(true).or_else(|| lru(false)) {
                self.evictions += 1;
                self.fragment_evictions += u64::from(self.remove(&victim));
            }
        }
        let slot = Slot {
            entry: Arc::clone(&entry),
            last_used: self.clock,
        };
        self.slots.insert((key, version), slot);
        entry
    }

    /// Drops a slot; true if its entry held candidate sets.
    fn remove(&mut self, key: &(CacheKey, u64)) -> bool {
        self.slots
            .remove(key)
            .is_some_and(|slot| slot.holds_fragment())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u128) -> CacheKey {
        (PatternFingerprint(i), Semantics::Isomorphism)
    }

    fn entry(plan: Result<QueryPlan, PlanError>) -> Arc<CacheEntry> {
        Arc::new(CacheEntry {
            plan,
            fragment: OnceLock::new(),
        })
    }

    fn plan() -> Result<QueryPlan, PlanError> {
        Ok(QueryPlan {
            semantics: Semantics::Isomorphism,
            steps: Vec::new(),
        })
    }

    fn empty_plan() -> Arc<CacheEntry> {
        entry(plan())
    }

    fn candidates() -> CandidateSet {
        CandidateSet {
            candidates: Vec::new(),
            all_nodes: Vec::new(),
            stats: Default::default(),
        }
    }

    /// Probe-then-insert at version 0, the way the engine drives the cache.
    fn fill(cache: &mut Lru, k: CacheKey) -> Option<Arc<CacheEntry>> {
        let probed = cache.probe(&k, 0);
        if probed.is_none() {
            cache.insert(k, 0, empty_plan());
        }
        probed
    }

    #[test]
    fn second_lookup_is_a_hit() {
        let mut cache = Lru::new(4);
        assert!(fill(&mut cache, key(1)).is_none());
        assert!(fill(&mut cache, key(1)).is_some());
        assert!(fill(&mut cache, key(1)).is_some());
        assert_eq!((cache.hits, cache.misses), (2, 1));
        assert_eq!(cache.slots.len(), 1);
    }

    #[test]
    fn semantics_is_part_of_the_key() {
        let mut cache = Lru::new(4);
        let fp = PatternFingerprint(9);
        fill(&mut cache, (fp, Semantics::Isomorphism));
        assert!(
            fill(&mut cache, (fp, Semantics::Simulation)).is_none(),
            "same fingerprint, other semantics: miss"
        );
        assert_eq!(cache.slots.len(), 2);
    }

    #[test]
    fn eviction_drops_the_least_recently_used() {
        let mut cache = Lru::new(2);
        fill(&mut cache, key(1));
        fill(&mut cache, key(2));
        // Key 2 holds candidate sets: its eviction counts for both caches.
        let two = &cache.slots[&(key(2), 0)].entry;
        two.fragment.set(candidates()).unwrap();
        // Touch key 1 so key 2 becomes the LRU.
        assert!(fill(&mut cache, key(1)).is_some());
        fill(&mut cache, key(3));
        assert_eq!((cache.evictions, cache.fragment_evictions), (1, 1));
        assert_eq!(cache.slots.len(), 2);
        // Key 2 was evicted; key 1 survived.
        assert!(fill(&mut cache, key(1)).is_some());
        assert!(fill(&mut cache, key(2)).is_none());
    }

    #[test]
    fn racing_reinsert_of_a_present_key_does_not_evict() {
        let mut cache = Lru::new(2);
        fill(&mut cache, key(1));
        fill(&mut cache, key(2));
        let first = cache.probe(&key(2), 0).unwrap();
        // Two requests raced on key 2's miss; the loser's insert adopts the
        // winner's entry instead of replacing it.
        let adopted = cache.insert(key(2), 0, empty_plan());
        assert!(Arc::ptr_eq(&adopted, &first));
        assert_eq!(cache.evictions, 0);
        assert_eq!(cache.slots.len(), 2);
        assert!(cache.probe(&key(1), 0).is_some(), "key 1 must survive");
    }

    #[test]
    fn zero_capacity_bypasses() {
        let cache = QueryCache::with_capacity(0);
        for _ in 0..2 {
            let (entry, outcome) = cache.entry(key(5), 0, plan);
            assert_eq!(outcome, CacheOutcome::Bypass);
            let (_, fragment) = cache.fragment(&entry, false, candidates);
            assert_eq!(fragment, CacheOutcome::Bypass);
        }
        let stats = cache.stats();
        assert_eq!(stats.cached_plans, 0);
        assert_eq!(stats.plan_cache_hits, 0);
        assert_eq!(
            stats.plan_cache_misses, 0,
            "bypass counts neither hit nor miss"
        );
        assert_eq!(stats.fragment_cache_misses, 0);
    }

    /// A thread that panics under the cache lock poisons it; the engine
    /// recovers the guard, answers as before and still reports its stats.
    #[test]
    fn a_poisoned_cache_lock_is_recovered() {
        use crate::{AccessConstraint, AccessIndexSet, AccessSchema, Engine, QueryRequest};
        use bgpq_graph::{GraphBuilder, Value};
        use bgpq_pattern::{PatternBuilder, Predicate};
        let mut b = GraphBuilder::new();
        b.add_node("year", Value::Int(2012));
        let graph = b.build();
        let year = graph.interner().get("year").unwrap();
        let schema = AccessSchema::from_constraints([AccessConstraint::global(year, 10)]);
        let indices = AccessIndexSet::build(&graph, &schema);
        let shared = SharedResources::default();
        let engine = Engine::with_shared_at_version(graph, indices, 0, shared.clone());
        let mut pb = PatternBuilder::with_interner(engine.graph().interner().clone());
        pb.node("year", Predicate::always());
        let request = QueryRequest::build(pb.build()).finish();
        let before = engine.execute(&request).unwrap();
        assert_eq!(before.answer.len(), 1);

        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _held = shared.cache.lock();
                panic!("a panic while the cache lock is held");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(shared.cache.0.lru.is_poisoned());
        let after = engine.execute(&request).unwrap();
        assert_eq!(after.answer, before.answer);
        assert_eq!(after.stats.fragment_cache, Some(CacheOutcome::Hit));
        let stats = engine.stats();
        assert_eq!((stats.queries, stats.fragment_cache_hits), (2, 1));
    }

    #[test]
    fn negative_outcomes_are_cached() {
        let mut cache = Lru::new(2);
        let k = key(7);
        assert!(cache.probe(&k, 0).is_none());
        let refusal = PlanError {
            uncovered: vec![],
            partial: QueryPlan {
                semantics: Semantics::Isomorphism,
                steps: vec![],
            },
        };
        cache.insert(k, 0, entry(Err(refusal)));
        let cached = cache.probe(&k, 0).expect("unbounded verdicts are memoized");
        assert!(cached.plan.is_err());
    }

    #[test]
    fn version_bump_invalidates_stale_slots() {
        let mut cache = Lru::new(4);
        let k = key(3);
        cache.insert(k, 0, empty_plan());
        assert!(cache.probe(&k, 0).is_some());
        // A newer snapshot version must not see the version-0 entry; the
        // slot is retained for readers still pinned to version 0.
        assert!(cache.probe(&k, 1).is_none());
        assert_eq!(cache.invalidations, 0);
        assert_eq!(cache.slots.len(), 1);
        // Re-planning at version 1 retires the superseded version-0 slot —
        // an entry without candidate sets, so no fragment is invalidated.
        cache.insert(k, 1, empty_plan());
        assert_eq!((cache.invalidations, cache.fragment_invalidations), (1, 0));
        assert_eq!(cache.slots.len(), 1);
        let current = cache.probe(&k, 1).unwrap();
        current.fragment.set(candidates()).unwrap();
        cache.insert(k, 2, empty_plan());
        assert_eq!((cache.invalidations, cache.fragment_invalidations), (2, 1));
    }

    /// Regression: a stale-version slot kept fresh by a pinned reader must
    /// not push a current-version slot out of a full cache. Global LRU did
    /// exactly that — the stale slot's recent `last_used` stamp made the
    /// *current* version's least-recent slot the victim.
    #[test]
    fn stale_version_slots_are_evicted_before_current_ones() {
        let mut cache = Lru::new(2);
        cache.insert(key(1), 0, empty_plan());
        cache.insert(key(2), 1, empty_plan());
        // A reader still pinned to version 0 keeps its slot hot.
        assert!(cache.probe(&key(1), 0).is_some());
        // A current-version insert into the full cache must victimize the
        // strictly-older version-0 slot, not the current-version key 2 —
        // even though key 2 is now the least recently used.
        cache.insert(key(3), 1, empty_plan());
        assert_eq!(cache.evictions, 1);
        assert!(cache.probe(&key(2), 1).is_some(), "current slot survives");
        assert!(cache.probe(&key(3), 1).is_some());
        assert!(cache.probe(&key(1), 0).is_none(), "stale slot was evicted");
    }

    /// Under version churn (one leftover entry per superseded version), the
    /// current version's working set must stay fully cached: every eviction
    /// takes a strictly-older leftover.
    #[test]
    fn current_version_working_set_survives_version_churn() {
        let mut cache = Lru::new(4);
        let hot = [key(1), key(2), key(3)];
        for version in 1..=5u64 {
            // Each "commit" leaves one entry only ever used at its version.
            cache.insert(key(100 + u128::from(version)), version, empty_plan());
            // The hot working set re-derives at the new version.
            for k in hot {
                if cache.probe(&k, version).is_none() {
                    cache.insert(k, version, empty_plan());
                }
            }
        }
        // After the churn, the entire current-version working set hits.
        let hits_before = cache.hits;
        for k in hot {
            assert!(cache.probe(&k, 5).is_some());
        }
        assert_eq!(cache.hits, hits_before + hot.len() as u64);
        // Every surviving slot is a current-version slot plus at most the
        // newest leftover: strictly-older versions were preferred victims.
        assert!(cache.slots.len() <= 4);
    }

    #[test]
    fn pinned_old_version_coexists_with_current() {
        let mut cache = Lru::new(4);
        let k = key(4);
        cache.insert(k, 1, empty_plan());
        // A reader pinned to version 0 misses, re-plans, and re-inserts at
        // its own version without touching the current version's slot...
        assert!(cache.probe(&k, 0).is_none());
        cache.insert(k, 0, empty_plan());
        assert_eq!(cache.invalidations, 0, "older inserts retire nothing");
        assert_eq!(cache.slots.len(), 2);
        // ...so from here on both populations hit steadily (no ping-pong).
        assert!(cache.probe(&k, 0).is_some());
        assert!(cache.probe(&k, 1).is_some());
        assert!(cache.probe(&k, 0).is_some());
        assert_eq!(cache.misses, 1);
    }
}
