//! Unified execution and engine statistics.

use bgpq_core::FetchStats;
use std::fmt;

/// What the query cache did for one request's plan
/// ([`ExecStats::plan_cache`]) or fragment ([`ExecStats::fragment_cache`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the cache: the plan (or the planner's refusal), or the
    /// fetched candidate sets.
    Hit,
    /// Computed (planned or fetched) and stored in the cache.
    Miss,
    /// The cache is disabled (capacity 0); computed uncached.
    Bypass,
}

impl fmt::Display for CacheOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheOutcome::Hit => write!(f, "hit"),
            CacheOutcome::Miss => write!(f, "miss"),
            CacheOutcome::Bypass => write!(f, "bypass"),
        }
    }
}

/// Per-request execution statistics, unified across strategies.
///
/// Fields that only make sense for some strategies are `Option`s: a
/// [`Baseline`](crate::StrategyKind::Baseline) run has no fetch, a
/// simulation run has no matcher step counter.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// The snapshot version (epoch) of the engine that served the request —
    /// lets a caller of a concurrently-updated serving layer attribute an
    /// answer to the exact graph version it was computed on.
    pub snapshot_version: u64,
    /// Nanoseconds spent deciding boundedness / retrieving the plan
    /// (including the cache probe).
    pub plan_nanos: u64,
    /// Nanoseconds spent fetching candidates and building the fragment view
    /// (`0` unless the bounded strategy ran) — the paper-side cost of
    /// assembling `G_Q` before any matching happens.
    pub fragment_build_nanos: u64,
    /// Nanoseconds spent in the matcher proper (for bounded runs, the
    /// strategy's execution time minus [`ExecStats::fragment_build_nanos`]).
    pub match_nanos: u64,
    /// End-to-end nanoseconds for the request inside the engine.
    pub total_nanos: u64,
    /// What the query cache did for this request's plan.
    pub plan_cache: Option<CacheOutcome>,
    /// What the query cache did for this request's fetched candidate sets
    /// (`Some` iff the bounded strategy ran). On a [`CacheOutcome::Hit`] the fetch skipped every
    /// index lookup: [`ExecStats::fetch`] then reports only this request's
    /// own work (zero lookups, the view-construction time), while the
    /// fragment-size fields still describe the reused fragment.
    pub fragment_cache: Option<CacheOutcome>,
    /// Candidate nodes rejected by the pattern's predicates before matching,
    /// reported by **every** strategy: the bounded tier counts fetched nodes
    /// its predicates dropped, the seeded tier counts drops during candidate
    /// seeding, and the baseline counts label-compatible nodes failing their
    /// predicate.
    pub predicate_filtered: u64,
    /// Fetch counters (index lookups, fragment size `|G_Q|`), present iff
    /// the bounded strategy ran.
    pub fetch: Option<FetchStats>,
    /// The plan's a-priori bound on fetched nodes — compare with
    /// [`FetchStats::fragment_nodes`] for the paper's "actual vs. worst
    /// case" measurement. Present iff the pattern is effectively bounded.
    pub worst_case_nodes: Option<u64>,
    /// Search-tree nodes the matcher expanded (VF2-family strategies only).
    pub matcher_steps: Option<u64>,
    /// True when the matcher stopped early because the request's step
    /// budget was exhausted — the answer may be incomplete.
    pub aborted: bool,
}

impl ExecStats {
    /// Fraction of the worst-case node bound the fetch actually used, when
    /// both sides are known (`None` for unbounded patterns or non-bounded
    /// strategies; `0.0` when the worst case is itself zero).
    pub fn fetch_utilization(&self) -> Option<f64> {
        let fetch = self.fetch.as_ref()?;
        let bound = self.worst_case_nodes?;
        if bound == 0 {
            return Some(0.0);
        }
        Some(fetch.fragment_nodes as f64 / bound as f64)
    }
}

/// Counters over an [`Engine`](crate::Engine)'s lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// The snapshot version (epoch) this engine serves; `0` for standalone
    /// engines, the commit epoch for engines in a serving snapshot chain.
    pub snapshot_version: u64,
    /// Requests executed (successful or not).
    pub queries: u64,
    /// Requests answered by the bounded strategy.
    pub bounded_runs: u64,
    /// Requests that wanted the bounded strategy but fell back because the
    /// pattern is unbounded under the engine's schema.
    pub fallbacks: u64,
    /// Requests whose query entry (plan or unbounded verdict) was cached.
    pub plan_cache_hits: u64,
    /// Requests that planned and cached a new entry.
    pub plan_cache_misses: u64,
    /// Entries evicted to respect the cache capacity.
    pub plan_cache_evictions: u64,
    /// Entries retired because the same query was planned at a newer
    /// snapshot version — the cost of a version bump under a shared cache.
    pub plan_cache_invalidations: u64,
    /// Entries (plans or negative outcomes) currently cached.
    pub cached_plans: usize,
    /// Bounded runs that found their entry holding candidate sets and
    /// skipped every index lookup.
    pub fragment_cache_hits: u64,
    /// Bounded runs that fetched into a cache-owned entry (possibly evicted
    /// since).
    pub fragment_cache_misses: u64,
    /// Evicted entries that held candidate sets.
    pub fragment_cache_evictions: u64,
    /// Retired entries (see [`EngineStats::plan_cache_invalidations`]) that
    /// held candidate sets — the commit-piggybacked invalidation of cached
    /// fragments.
    pub fragment_cache_invalidations: u64,
    /// Entries currently holding candidate sets.
    pub cached_fragments: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_utilization_requires_both_sides() {
        let mut s = ExecStats::default();
        assert_eq!(s.fetch_utilization(), None);
        s.worst_case_nodes = Some(10);
        assert_eq!(s.fetch_utilization(), None);
        s.fetch = Some(FetchStats {
            fragment_nodes: 5,
            ..FetchStats::default()
        });
        assert_eq!(s.fetch_utilization(), Some(0.5));
        s.worst_case_nodes = Some(0);
        assert_eq!(s.fetch_utilization(), Some(0.0));
    }

    #[test]
    fn cache_outcome_displays() {
        assert_eq!(CacheOutcome::Hit.to_string(), "hit");
        assert_eq!(CacheOutcome::Miss.to_string(), "miss");
        assert_eq!(CacheOutcome::Bypass.to_string(), "bypass");
    }
}
