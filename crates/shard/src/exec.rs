//! Parallel bounded execution over a [`ShardedIndexSet`].
//!
//! Three entry points mirror the serial pipeline of `bgpq-core`:
//!
//! * [`sharded_fetch_candidate_sets`] — the candidate fetch, with index
//!   lookups fanning out across shards (each fresh key is answered by
//!   concatenating the disjoint per-shard answers and sorting);
//! * [`parallel_bounded_subgraph_match_prefetched`] — `bVF2` with the
//!   deterministic pivot's candidates split into contiguous ranges across
//!   workers, merged through the canonicalizing [`MatchSet::new`];
//! * [`parallel_bounded_simulation_match_prefetched`] — `bSim`; the
//!   fixpoint is a unique relation, so only the fetch parallelizes and the
//!   solve runs serially on one merged fragment view.
//!
//! **Every function here returns results identical to its serial
//! counterpart** for every `(partitions, threads)` combination — candidate
//! sets are sorted unions of disjoint per-shard answers, each `bVF2` match
//! maps the pivot to exactly one candidate (so the range split partitions
//! the match set), and merge goes through canonicalizing constructors.
//! Order-dependent requests (`max_matches` / `max_steps` budgets) take the
//! serial fallback: a budget cuts enumeration *order*-dependently, which a
//! split could change.

use crate::index::ShardedIndexSet;
use crate::pool::{parallel_map, split_ranges};
use bgpq_access::ConstraintId;
use bgpq_core::{
    bounded_simulation_match_prefetched, bounded_subgraph_match_prefetched, CandidateSet,
    FetchStats, QueryPlan,
};
use bgpq_graph::{ArenaPool, FragmentView, Graph, GraphAccess, NodeId};
use bgpq_matching::seed::for_each_combination;
use bgpq_matching::{MatchSet, SimulationRelation, SubgraphMatcher, Vf2Config, Vf2Stats};
use bgpq_pattern::Pattern;
use std::collections::HashMap;
use std::time::Instant;

/// Runs the index-lookup loop of `plan` against sharded indices, producing
/// candidate sets identical — including the [`FetchStats`] lookup counters —
/// to [`bgpq_core::fetch_candidate_sets`] with a fresh memo against the
/// merged single set.
///
/// Steps run in plan order (later steps key off earlier candidates), but
/// within a step every *fresh* canonical key fans out over the shards on up
/// to `threads` workers. Repeated keys — within a step, or across steps —
/// are answered from a local memo and counted as deduplicated, exactly like
/// the serial fetch.
///
/// # Panics
/// Panics if `plan` references constraints absent from the sharded set.
pub fn sharded_fetch_candidate_sets(
    plan: &QueryPlan,
    pattern: &Pattern,
    graph: &Graph,
    sharded: &ShardedIndexSet,
    threads: usize,
) -> CandidateSet {
    let started = Instant::now();
    let n = pattern.node_count();
    let mut candidates: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let mut stats = FetchStats::default();
    // Memoized answers per constraint, keyed by canonical key — the sharded
    // twin of `LookupMemo`, kept local so it can double as the fan-out
    // work-list builder.
    let mut memo: HashMap<ConstraintId, HashMap<Vec<NodeId>, Vec<NodeId>>> = HashMap::new();

    for step in &plan.steps {
        assert!(
            sharded
                .shards()
                .iter()
                .all(|s| s.get(step.constraint).is_some()),
            "plan constraint must exist in every shard of the index set"
        );
        // Canonical key per via-combination, in enumeration order.
        let mut occurrences: Vec<Vec<NodeId>> = Vec::new();
        if step.via.is_empty() {
            occurrences.push(Vec::new());
        } else {
            for_each_combination(&step.via, &candidates, &mut |key| {
                let mut canonical = key.to_vec();
                canonical.sort_unstable();
                canonical.dedup();
                occurrences.push(canonical);
            });
        }
        // Fresh keys fan out across shards in parallel; repeats are memo
        // hits, with the same counter semantics as the serial fetch.
        let step_memo = memo.entry(step.constraint).or_default();
        let mut fresh: Vec<Vec<NodeId>> = Vec::new();
        for key in &occurrences {
            if step_memo.contains_key(key) {
                stats.lookups_deduped += 1;
            } else {
                stats.index_lookups += 1;
                step_memo.insert(key.clone(), Vec::new());
                fresh.push(key.clone());
            }
        }
        let answers = parallel_map(threads, &fresh, |_, key| {
            sharded.common_neighbors(step.constraint, key)
        });
        for (key, answer) in fresh.into_iter().zip(answers) {
            step_memo.insert(key, answer);
        }
        let mut fetched: Vec<NodeId> = Vec::new();
        for key in &occurrences {
            fetched.extend_from_slice(&step_memo[key]);
        }
        stats.nodes_returned += fetched.len() as u64;
        fetched.sort_unstable();
        fetched.dedup();
        let before_filter = fetched.len();
        fetched.retain(|&v| pattern.predicate(step.node).eval(graph.value(v)));
        stats.predicate_filtered += (before_filter - fetched.len()) as u64;
        candidates[step.node.index()] = fetched;
    }

    let all_nodes: Vec<NodeId> = {
        let mut v: Vec<NodeId> = candidates.iter().flatten().copied().collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    stats.fragment_build_nanos = started.elapsed().as_nanos() as u64;

    CandidateSet {
        candidates,
        all_nodes,
        stats,
    }
}

/// `bVF2` from an already-fetched [`CandidateSet`], with the search split
/// across up to `threads` workers.
///
/// The pivot is the pattern node with the **largest** candidate set (ties
/// broken by smallest pattern node id — a pure function of the candidate
/// sets, so every thread count picks the same pivot). Its candidates are
/// split into contiguous ranges, one worker each; since every match maps
/// the pivot to exactly one candidate, the per-range match sets partition
/// the full answer, and [`MatchSet::new`] canonicalizes the merge. Each
/// worker builds its own fragment view in a distinct [`ArenaPool`] slot.
///
/// Budgeted configs (`max_matches` / `max_steps`), empty patterns, and
/// `threads <= 1` all take the serial path — identical by construction.
pub fn parallel_bounded_subgraph_match_prefetched(
    pattern: &Pattern,
    graph: &Graph,
    fetched: &CandidateSet,
    config: Vf2Config,
    pool: &ArenaPool,
    threads: usize,
) -> (MatchSet, FetchStats, Vf2Stats) {
    let budgeted = config.max_matches.is_some() || config.max_steps.is_some();
    let pivot = fetched
        .candidates
        .iter()
        .enumerate()
        .max_by(|(i, a), (j, b)| a.len().cmp(&b.len()).then(j.cmp(i)))
        .map(|(i, _)| i);
    let splittable = pivot.is_some_and(|p| fetched.candidates[p].len() >= 2);
    if budgeted || threads <= 1 || !splittable {
        return pool.with_any(|scratch| {
            bounded_subgraph_match_prefetched(pattern, graph, fetched, config.clone(), scratch)
        });
    }
    let pivot = pivot.expect("splittable implies a pivot");
    let build_started = Instant::now();
    let ranges = split_ranges(fetched.candidates[pivot].len(), threads);
    let parts = parallel_map(ranges.len(), &ranges, |w, range| {
        pool.with_worker(w, |scratch| {
            let view = FragmentView::induced(graph, &fetched.all_nodes, scratch);
            let mut candidates = fetched.candidates.clone();
            candidates[pivot] = candidates[pivot][range.clone()].to_vec();
            let (matches, stats) = SubgraphMatcher::new(pattern, &view)
                .with_candidates(candidates)
                .with_config(config.clone())
                .run();
            let shape = (view.node_count(), view.edge_count());
            (matches, stats, shape, view.adjacency_reads())
        })
    });
    let mut fetch = fetched.stats.clone();
    (fetch.fragment_nodes, fetch.fragment_edges) = parts[0].2;
    // Every worker built its own view: the reads add up.
    fetch.adjacency_reads = parts.iter().map(|p| p.3).sum();
    fetch.fragment_build_nanos = fetch
        .fragment_build_nanos
        .saturating_add(build_started.elapsed().as_nanos() as u64);
    let steps = parts.iter().map(|(_, s, _, _)| s.steps).sum();
    let matches = MatchSet::new(parts.iter().flat_map(|(m, _, _, _)| m.iter().cloned()));
    (
        matches,
        fetch,
        Vf2Stats {
            steps,
            aborted: false,
        },
    )
}

/// `bSim` from an already-fetched [`CandidateSet`].
///
/// The simulation fixpoint is the unique maximal relation, so there is
/// nothing to split: the parallel win for `bSim` is the sharded fetch that
/// produced `fetched`. This wrapper exists so partitioned callers drive
/// both semantics through the same pool-aware surface.
pub fn parallel_bounded_simulation_match_prefetched(
    pattern: &Pattern,
    graph: &Graph,
    fetched: &CandidateSet,
    pool: &ArenaPool,
) -> (SimulationRelation, FetchStats) {
    pool.with_any(|scratch| bounded_simulation_match_prefetched(pattern, graph, fetched, scratch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionSpec;
    use bgpq_access::{AccessConstraint, AccessIndexSet, AccessSchema};
    use bgpq_core::{fetch_candidate_sets, plan_for_indices, LookupMemo, Semantics};
    use bgpq_graph::{GraphBuilder, Value};
    use bgpq_pattern::{PatternBuilder, Predicate};

    /// Years × awards feeding movies feeding actors, sized so candidate
    /// sets are big enough to split across several workers.
    fn setup() -> (Graph, AccessSchema, Pattern) {
        let mut b = GraphBuilder::new();
        let years: Vec<_> = (0..3)
            .map(|i| b.add_node("year", Value::Int(2010 + i)))
            .collect();
        let awards: Vec<_> = (0..2).map(|i| b.add_node("award", Value::Int(i))).collect();
        for i in 0..12i64 {
            let m = b.add_node("movie", Value::Int(i));
            b.add_edge(years[(i % 3) as usize], m).unwrap();
            b.add_edge(awards[(i % 2) as usize], m).unwrap();
            for j in 0..3 {
                let a = b.add_node("actor", Value::Int(10 * i + j));
                b.add_edge(m, a).unwrap();
            }
        }
        let g = b.build();
        let l = |n: &str| g.interner().get(n).unwrap();
        let schema = AccessSchema::from_constraints([
            AccessConstraint::global(l("year"), 3),
            AccessConstraint::global(l("award"), 2),
            AccessConstraint::new([l("year"), l("award")], l("movie"), 4),
            AccessConstraint::unary(l("movie"), l("actor"), 3),
        ]);
        let mut pb = PatternBuilder::with_interner(g.interner().clone());
        let m = pb.node("movie", Predicate::always());
        let y = pb.node("year", Predicate::always());
        let a = pb.node("award", Predicate::always());
        let act = pb.node("actor", Predicate::always());
        pb.edge(y, m);
        pb.edge(a, m);
        pb.edge(m, act);
        (g, schema, pb.build())
    }

    #[test]
    fn sharded_fetch_equals_serial_fetch_counters_included() {
        let (g, schema, q) = setup();
        let full = AccessIndexSet::build(&g, &schema);
        let plan = plan_for_indices(&q, &full, Semantics::Isomorphism).unwrap();
        let mut memo = LookupMemo::new();
        let serial = fetch_candidate_sets(&plan, &q, &g, &full, &mut memo);
        for parts in [1, 2, 4] {
            for threads in [1, 2] {
                let spec = PartitionSpec::hash(parts);
                let sharded = ShardedIndexSet::build(&g, &schema, &spec, threads);
                let fetched = sharded_fetch_candidate_sets(&plan, &q, &g, &sharded, threads);
                assert_eq!(
                    fetched.candidates, serial.candidates,
                    "P={parts} T={threads}"
                );
                assert_eq!(fetched.all_nodes, serial.all_nodes);
                assert_eq!(fetched.stats.index_lookups, serial.stats.index_lookups);
                assert_eq!(fetched.stats.lookups_deduped, serial.stats.lookups_deduped);
                assert_eq!(fetched.stats.nodes_returned, serial.stats.nodes_returned);
                assert_eq!(
                    fetched.stats.predicate_filtered,
                    serial.stats.predicate_filtered
                );
            }
        }
    }

    #[test]
    fn parallel_bvf2_equals_serial_for_every_thread_count() {
        let (g, schema, q) = setup();
        let full = AccessIndexSet::build(&g, &schema);
        let plan = plan_for_indices(&q, &full, Semantics::Isomorphism).unwrap();
        let mut memo = LookupMemo::new();
        let fetched = fetch_candidate_sets(&plan, &q, &g, &full, &mut memo);
        let pool = ArenaPool::new(4);
        let (serial, serial_fetch, _) = pool.with_any(|s| {
            bounded_subgraph_match_prefetched(&q, &g, &fetched, Vf2Config::default(), s)
        });
        assert!(!serial.is_empty(), "fixture must produce matches");
        for threads in [1, 2, 3, 4, 8] {
            let (parallel, fetch, _) = parallel_bounded_subgraph_match_prefetched(
                &q,
                &g,
                &fetched,
                Vf2Config::default(),
                &pool,
                threads,
            );
            assert_eq!(parallel, serial, "threads={threads}");
            assert_eq!(fetch.fragment_nodes, serial_fetch.fragment_nodes);
            assert_eq!(fetch.fragment_edges, serial_fetch.fragment_edges);
        }
    }

    #[test]
    fn budgeted_configs_take_the_serial_path() {
        let (g, schema, q) = setup();
        let full = AccessIndexSet::build(&g, &schema);
        let plan = plan_for_indices(&q, &full, Semantics::Isomorphism).unwrap();
        let mut memo = LookupMemo::new();
        let fetched = fetch_candidate_sets(&plan, &q, &g, &full, &mut memo);
        let pool = ArenaPool::new(4);
        let config = Vf2Config {
            max_matches: Some(3),
            max_steps: None,
        };
        let (serial, _, _) = pool
            .with_any(|s| bounded_subgraph_match_prefetched(&q, &g, &fetched, config.clone(), s));
        let (parallel, _, _) =
            parallel_bounded_subgraph_match_prefetched(&q, &g, &fetched, config, &pool, 4);
        // A budget must yield the exact serial prefix, not a per-worker one.
        assert_eq!(parallel, serial);
        assert_eq!(parallel.len(), 3);
    }

    #[test]
    fn parallel_bsim_equals_serial() {
        // a -> b fixture, simulation-bounded.
        let mut gb = GraphBuilder::new();
        for i in 0..6 {
            let a = gb.add_node("a", Value::Int(i));
            let b = gb.add_node("b", Value::Int(i));
            gb.add_edge(a, b).unwrap();
        }
        let g = gb.build();
        let la = g.interner().get("a").unwrap();
        let lb = g.interner().get("b").unwrap();
        let schema = AccessSchema::from_constraints([
            AccessConstraint::global(lb, 6),
            AccessConstraint::unary(lb, la, 1),
        ]);
        let full = AccessIndexSet::build(&g, &schema);
        let mut pb = PatternBuilder::with_interner(g.interner().clone());
        let pa = pb.node("a", Predicate::always());
        let pbn = pb.node("b", Predicate::always());
        pb.edge(pa, pbn);
        let q = pb.build();
        let plan = plan_for_indices(&q, &full, Semantics::Simulation).unwrap();
        let pool = ArenaPool::new(2);
        let mut memo = LookupMemo::new();
        let serial_fetch = fetch_candidate_sets(&plan, &q, &g, &full, &mut memo);
        let (serial, _) =
            pool.with_any(|s| bounded_simulation_match_prefetched(&q, &g, &serial_fetch, s));
        let spec = PartitionSpec::hash(3);
        let sharded = ShardedIndexSet::build(&g, &schema, &spec, 2);
        let fetched = sharded_fetch_candidate_sets(&plan, &q, &g, &sharded, 2);
        let (parallel, _) = parallel_bounded_simulation_match_prefetched(&q, &g, &fetched, &pool);
        assert_eq!(parallel, serial);
        assert!(!parallel.is_empty());
    }
}
