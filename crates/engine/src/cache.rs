//! The LRU caches: planning outcomes and fetched fragments.
//!
//! Planning — the effective-boundedness closure of
//! [`bgpq_core::plan_query`] — is cheap next to matching, but a
//! session-oriented engine sees the *same* patterns over and over (dashboard
//! queries, templated lookups), and the planner's outcome for a pattern
//! never changes while the schema is fixed. The plan cache memoizes it,
//! keyed by the canonical
//! [`PatternFingerprint`](bgpq_pattern::PatternFingerprint) plus the
//! [`Semantics`]: the second identical request skips the closure entirely,
//! and *negative* outcomes (the pattern is unbounded) are cached too, so
//! repeated unbounded queries skip straight to their fallback strategy.
//!
//! The **fragment cache** applies the same machinery one level down: the
//! fetched [`CandidateSet`] — every index lookup plus predicate filtering
//! behind one bounded query, which together with the pattern determines the
//! fragment `G_Q` — is itself deterministic per (pattern fingerprint,
//! semantics, snapshot version). The fingerprint canonically covers the
//! pattern's structure, labels *and* predicate constants, and planning is
//! deterministic, so the same key the plan cache uses also fully determines
//! the fetched candidate sets. A repeated hot query skips every lookup and
//! goes straight to view construction and matching.
//!
//! Both caches share one implementation, [`VersionedCache`]. Eviction is
//! least-recently-used over a bounded number of entries, with one
//! refinement: entries of **strictly older snapshot versions** than the
//! inserting engine's are preferred as victims over current-version
//! entries, regardless of recency. Without this, a stale-version slot whose
//! pinned readers are long gone can outlive a hot current-version slot on
//! an old `last_used` stamp. The scan is `O(capacity)` per eviction — noise
//! compared to one avoided planning run or fetch pass.
//!
//! Under a **mutable** graph a cached outcome is no longer eternal: an
//! update can change the index coverage a plan depends on, or the graph
//! region a fragment was fetched from. Slots are therefore keyed by
//! *(pattern fingerprint, semantics, snapshot version)*: a probe only ever
//! sees outcomes computed against its own version, entries of **different
//! versions coexist** (a reader pinned to an old snapshot keeps its cache
//! locality instead of fighting the current version's readers slot for
//! slot), and re-inserting a key at a newer version retires that key's
//! strictly-older entries, counted as *invalidations*. A [`SharedPlanCache`]
//! / [`SharedFragmentCache`] can be handed to the engines of successive
//! snapshots so the chain shares one bounded cache without ever serving a
//! stale entry — commit-time invalidation piggybacks on the first
//! re-execution at the new version instead of requiring an eager sweep.

use bgpq_core::{CandidateSet, PlanError, QueryPlan, Semantics};
use bgpq_graph::ArenaPool;
use bgpq_pattern::PatternFingerprint;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Cache key: what the planner's outcome — and, given the deterministic
/// planner, the fetched candidate set — depends on, given a fixed schema.
pub(crate) type PlanKey = (PatternFingerprint, Semantics);

/// A memoized planning outcome — the plan, or the planner's refusal.
pub(crate) type PlanOutcome = Arc<Result<QueryPlan, PlanError>>;

/// A memoized fetch outcome: the candidate sets (and thus the fragment
/// `G_Q`) of one bounded query at one snapshot version.
pub(crate) type FragmentEntry = Arc<CandidateSet>;

struct Slot<V> {
    outcome: V,
    last_used: u64,
}

/// What the engines of one serving chain share across snapshot versions:
/// both caches and the scratch arenas. A serving layer creates one value,
/// keeps it, and hands a clone (three reference-count bumps) to
/// [`Engine::with_shared_at_version`](crate::Engine::with_shared_at_version)
/// for every snapshot it publishes: cache entries are keyed by version, so
/// sharing never serves a stale one, and the arenas warmed by one version's
/// queries serve the next version's instead of being dropped with the
/// superseded engine. [`Default`] gives default-capacity caches and one
/// arena slot per available core.
#[derive(Debug, Clone)]
pub struct SharedResources {
    /// Memoized planning outcomes.
    pub plans: SharedPlanCache,
    /// Memoized fetched candidate sets.
    pub fragments: SharedFragmentCache,
    /// Fragment-construction arenas, one checked out per in-flight bounded
    /// execution — of whichever version.
    pub arenas: Arc<ArenaPool>,
}

impl Default for SharedResources {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        SharedResources {
            plans: SharedPlanCache::default(),
            fragments: SharedFragmentCache::default(),
            arenas: Arc::new(ArenaPool::new(cores)),
        }
    }
}

/// A bounded least-recently-used cache of versioned outcomes.
pub(crate) struct VersionedCache<V> {
    capacity: usize,
    /// Keyed by (pattern fingerprint + semantics, snapshot version).
    slots: HashMap<(PlanKey, u64), Slot<V>>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
}

/// The plan cache: memoized planning outcomes.
pub(crate) type PlanCache = VersionedCache<PlanOutcome>;

/// The fragment cache: memoized candidate sets.
pub(crate) type FragmentCache = VersionedCache<FragmentEntry>;

/// A plan cache that can be shared by the engines of successive graph
/// snapshots (see [`SharedResources`]).
///
/// Cloning is cheap and shares the underlying cache. Entries are validated
/// against the probing engine's snapshot version, so sharing never serves a
/// plan computed against another version's index coverage.
#[derive(Clone)]
pub struct SharedPlanCache(pub(crate) Arc<Mutex<PlanCache>>);

impl SharedPlanCache {
    /// Creates a shared cache holding at most `capacity` outcomes
    /// (`0` disables caching).
    pub fn with_capacity(capacity: usize) -> Self {
        SharedPlanCache(Arc::new(Mutex::new(PlanCache::new(capacity))))
    }
}

impl Default for SharedPlanCache {
    /// A shared cache with the engine's default capacity.
    fn default() -> Self {
        Self::with_capacity(crate::engine::DEFAULT_PLAN_CACHE_CAPACITY)
    }
}

impl std::fmt::Debug for SharedPlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cache = self.0.lock().expect("plan cache poisoned");
        f.debug_struct("SharedPlanCache")
            .field("capacity", &cache.capacity)
            .field("len", &cache.len())
            .finish()
    }
}

/// A fragment cache that can be shared by the engines of successive graph
/// snapshots, exactly as [`SharedPlanCache`] is — same keying, same
/// multi-version coexistence, same commit-piggybacked invalidation.
///
/// Cloning is cheap and shares the underlying cache. Entries are validated
/// against the probing engine's snapshot version, so sharing never serves a
/// candidate set fetched from another version's graph or indices.
#[derive(Clone)]
pub struct SharedFragmentCache(pub(crate) Arc<Mutex<FragmentCache>>);

impl SharedFragmentCache {
    /// Creates a shared cache holding at most `capacity` candidate sets
    /// (`0` disables fragment caching).
    pub fn with_capacity(capacity: usize) -> Self {
        SharedFragmentCache(Arc::new(Mutex::new(FragmentCache::new(capacity))))
    }
}

impl Default for SharedFragmentCache {
    /// A shared cache with the engine's default capacity.
    fn default() -> Self {
        Self::with_capacity(crate::engine::DEFAULT_FRAGMENT_CACHE_CAPACITY)
    }
}

impl std::fmt::Debug for SharedFragmentCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cache = self.0.lock().expect("fragment cache poisoned");
        f.debug_struct("SharedFragmentCache")
            .field("capacity", &cache.capacity)
            .field("len", &cache.len())
            .finish()
    }
}

impl<V: Clone> VersionedCache<V> {
    /// Creates a cache holding at most `capacity` outcomes. Capacity `0`
    /// disables caching (every lookup reports [`CacheOutcome::Bypass`]).
    pub(crate) fn new(capacity: usize) -> Self {
        VersionedCache {
            capacity,
            slots: HashMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            invalidations: 0,
        }
    }

    /// Looks `key` up for an engine at `version`, counting a hit or a miss.
    /// Only an outcome planned against exactly `version` is returned — a
    /// commit may have changed the index coverage the plan (or unbounded
    /// verdict) depends on, so other versions' slots are invisible (though
    /// retained for the readers pinned to them). Returns `None` both on a
    /// miss and when caching is disabled — the caller distinguishes the two
    /// via [`VersionedCache::is_enabled`] and is expected to compute the
    /// outcome *outside* the cache lock, then [`VersionedCache::insert`] it:
    /// holding the lock across a planning run or a fetch pass would
    /// serialize unrelated requests behind it.
    pub(crate) fn probe(&mut self, key: &PlanKey, version: u64) -> Option<V> {
        if self.capacity == 0 {
            return None;
        }
        self.clock += 1;
        match self.slots.get_mut(&(*key, version)) {
            Some(slot) => {
                slot.last_used = self.clock;
                self.hits += 1;
                Some(slot.outcome.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Caches `outcome` under `key` for `version`, evicting an entry when
    /// full. Inserting at a version retires the key's entries of **strictly
    /// older** versions (counted as invalidations): they are superseded for
    /// every reader that will still probe them at that version or later,
    /// while a pinned reader's re-insert at an *older* version leaves newer
    /// entries untouched — the two populations coexist instead of evicting
    /// each other. Re-inserting a present key (two threads raced on the same
    /// miss) replaces the slot without eviction. No-op when disabled.
    ///
    /// Eviction prefers the least-recently-used slot among entries of
    /// versions **strictly older** than `version` — leftovers of superseded
    /// snapshots whose pinned readers are mostly gone — and only when no
    /// such entry exists falls back to global LRU. A plain global LRU can
    /// evict a hot current-version slot while a stale-version slot survives
    /// on an old `last_used` stamp, collapsing the current version's hit
    /// rate under version churn.
    pub(crate) fn insert(&mut self, key: PlanKey, version: u64, outcome: V) {
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        let stale: Vec<(PlanKey, u64)> = self
            .slots
            .keys()
            .filter(|&&(k, v)| k == key && v < version)
            .copied()
            .collect();
        for old in stale {
            self.slots.remove(&old);
            self.invalidations += 1;
        }
        let full_key = (key, version);
        if !self.slots.contains_key(&full_key) && self.slots.len() >= self.capacity {
            let victim = self
                .slots
                .iter()
                .filter(|(&(_, v), _)| v < version)
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(&k, _)| k)
                .or_else(|| {
                    self.slots
                        .iter()
                        .min_by_key(|(_, slot)| slot.last_used)
                        .map(|(&k, _)| k)
                });
            if let Some(lru) = victim {
                self.slots.remove(&lru);
                self.evictions += 1;
            }
        }
        self.slots.insert(
            full_key,
            Slot {
                outcome,
                last_used: self.clock,
            },
        );
    }

    /// False when the capacity is zero (lookups bypass the cache).
    pub(crate) fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    pub(crate) fn misses(&self) -> u64 {
        self.misses
    }

    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    pub(crate) fn invalidations(&self) -> u64 {
        self.invalidations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u128) -> PlanKey {
        (PatternFingerprint(i), Semantics::Isomorphism)
    }

    fn empty_plan(sem: Semantics) -> Result<QueryPlan, PlanError> {
        Ok(QueryPlan {
            semantics: sem,
            steps: Vec::new(),
        })
    }

    /// Probe-then-insert at version 0, the way the engine drives the cache.
    fn fill(cache: &mut PlanCache, k: PlanKey) -> Option<PlanOutcome> {
        let probed = cache.probe(&k, 0);
        if probed.is_none() && cache.is_enabled() {
            cache.insert(k, 0, Arc::new(empty_plan(k.1)));
        }
        probed
    }

    #[test]
    fn second_lookup_is_a_hit() {
        let mut cache = PlanCache::new(4);
        assert!(fill(&mut cache, key(1)).is_none());
        assert!(fill(&mut cache, key(1)).is_some());
        assert!(fill(&mut cache, key(1)).is_some());
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn semantics_is_part_of_the_key() {
        let mut cache = PlanCache::new(4);
        let fp = PatternFingerprint(9);
        fill(&mut cache, (fp, Semantics::Isomorphism));
        assert!(
            fill(&mut cache, (fp, Semantics::Simulation)).is_none(),
            "same fingerprint, other semantics: miss"
        );
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn eviction_drops_the_least_recently_used() {
        let mut cache = PlanCache::new(2);
        fill(&mut cache, key(1));
        fill(&mut cache, key(2));
        // Touch key 1 so key 2 becomes the LRU.
        assert!(fill(&mut cache, key(1)).is_some());
        fill(&mut cache, key(3));
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 2);
        // Key 2 was evicted; key 1 survived.
        assert!(fill(&mut cache, key(1)).is_some());
        assert!(fill(&mut cache, key(2)).is_none());
    }

    #[test]
    fn racing_reinsert_of_a_present_key_does_not_evict() {
        let mut cache = PlanCache::new(2);
        fill(&mut cache, key(1));
        fill(&mut cache, key(2));
        // Two threads raced on key 2's miss; the loser re-inserts.
        cache.insert(key(2), 0, Arc::new(empty_plan(Semantics::Isomorphism)));
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.len(), 2);
        assert!(cache.probe(&key(1), 0).is_some(), "key 1 must survive");
    }

    #[test]
    fn zero_capacity_bypasses() {
        let mut cache = PlanCache::new(0);
        assert!(!cache.is_enabled());
        assert!(cache.probe(&key(5), 0).is_none());
        cache.insert(key(5), 0, Arc::new(empty_plan(Semantics::Isomorphism)));
        assert!(cache.probe(&key(5), 0).is_none());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 0, "bypass counts neither hit nor miss");
    }

    #[test]
    fn negative_outcomes_are_cached() {
        let mut cache = PlanCache::new(2);
        let k = key(7);
        assert!(cache.probe(&k, 0).is_none());
        cache.insert(
            k,
            0,
            Arc::new(Err(PlanError {
                semantics: Semantics::Isomorphism,
                uncovered: vec![],
            })),
        );
        let cached = cache.probe(&k, 0).expect("unbounded verdicts are memoized");
        assert!(cached.is_err());
    }

    #[test]
    fn version_bump_invalidates_stale_slots() {
        let mut cache = PlanCache::new(4);
        let k = key(3);
        cache.insert(k, 0, Arc::new(empty_plan(Semantics::Isomorphism)));
        assert!(cache.probe(&k, 0).is_some());
        // A newer snapshot version must not see the version-0 plan; the slot
        // is retained for readers still pinned to version 0.
        assert!(cache.probe(&k, 1).is_none());
        assert_eq!(cache.invalidations(), 0);
        assert_eq!(cache.len(), 1);
        // Re-planning at version 1 retires the superseded version-0 slot.
        cache.insert(k, 1, Arc::new(empty_plan(Semantics::Isomorphism)));
        assert_eq!(cache.invalidations(), 1);
        assert_eq!(cache.len(), 1);
        assert!(cache.probe(&k, 1).is_some());
    }

    /// Regression: a stale-version slot kept fresh by a pinned reader must
    /// not push a current-version slot out of a full cache. Global LRU did
    /// exactly that — the stale slot's recent `last_used` stamp made the
    /// *current* version's least-recent slot the victim.
    #[test]
    fn stale_version_slots_are_evicted_before_current_ones() {
        let mut cache = PlanCache::new(2);
        let outcome = || Arc::new(empty_plan(Semantics::Isomorphism));
        cache.insert(key(1), 0, outcome());
        cache.insert(key(2), 1, outcome());
        // A reader still pinned to version 0 keeps its slot hot.
        assert!(cache.probe(&key(1), 0).is_some());
        // A current-version insert into the full cache must victimize the
        // strictly-older version-0 slot, not the current-version key 2 —
        // even though key 2 is now the least recently used.
        cache.insert(key(3), 1, outcome());
        assert_eq!(cache.evictions(), 1);
        assert!(cache.probe(&key(2), 1).is_some(), "current slot survives");
        assert!(cache.probe(&key(3), 1).is_some());
        assert!(cache.probe(&key(1), 0).is_none(), "stale slot was evicted");
    }

    /// Under version churn (one leftover entry per superseded version), the
    /// current version's working set must stay fully cached: every eviction
    /// takes a strictly-older leftover.
    #[test]
    fn current_version_working_set_survives_version_churn() {
        let mut cache = PlanCache::new(4);
        let outcome = || Arc::new(empty_plan(Semantics::Isomorphism));
        let hot = [key(1), key(2), key(3)];
        for version in 1..=5u64 {
            // Each "commit" leaves one entry only ever used at its version.
            cache.insert(key(100 + u128::from(version)), version, outcome());
            // The hot working set re-derives at the new version.
            for k in hot {
                if cache.probe(&k, version).is_none() {
                    cache.insert(k, version, outcome());
                }
            }
        }
        // After the churn, the entire current-version working set hits.
        let hits_before = cache.hits();
        for k in hot {
            assert!(cache.probe(&k, 5).is_some());
        }
        assert_eq!(cache.hits(), hits_before + hot.len() as u64);
        // Every surviving slot is a current-version slot plus at most the
        // newest leftover: strictly-older versions were preferred victims.
        assert!(cache.len() <= 4);
    }

    #[test]
    fn pinned_old_version_coexists_with_current() {
        let mut cache = PlanCache::new(4);
        let k = key(4);
        cache.insert(k, 1, Arc::new(empty_plan(Semantics::Isomorphism)));
        // A reader pinned to version 0 misses, re-plans, and re-inserts at
        // its own version without touching the current version's slot...
        assert!(cache.probe(&k, 0).is_none());
        cache.insert(k, 0, Arc::new(empty_plan(Semantics::Isomorphism)));
        assert_eq!(cache.invalidations(), 0, "older inserts retire nothing");
        assert_eq!(cache.len(), 2);
        // ...so from here on both populations hit steadily (no ping-pong).
        assert!(cache.probe(&k, 0).is_some());
        assert!(cache.probe(&k, 1).is_some());
        assert!(cache.probe(&k, 0).is_some());
        assert_eq!(cache.misses(), 1);
    }
}
