//! Executing a fetch plan: from indices to the bounded fragment `G_Q`.
//!
//! [`execute_plan`] walks the steps of a [`QueryPlan`] in order. For each
//! pattern node it issues the index lookups the step prescribes — one lookup
//! for a global constraint, one per combination of already-fetched `via`
//! candidates otherwise — unions the answers, and filters them by the node's
//! predicate (sound: every answer node must satisfy it). The union of all
//! candidate sets induces the fragment `G_Q` in `G`, which is the only part
//! of the data graph the bounded executors of [`crate::exec`] ever look at.
//!
//! The work performed here is bounded by the plan, not by `|G|`: the number
//! of lookups is a product of constraint bounds, each answer has at most `N`
//! nodes, and building the induced [`Subgraph`] touches only the adjacency of
//! fetched nodes. [`FetchStats`] records the actual counts so experiments can
//! reproduce the paper's `|G_Q|/|G|` measurements.
//!
//! Two entry points share the lookup loop: [`execute_plan`] materializes the
//! fragment as an explicit [`Subgraph`] (inspection, tests, offline tools),
//! while [`fetch_candidate_sets`] returns only a [`CandidateSet`] — the
//! candidate sets and their sorted union — from which the bounded executors
//! of [`crate::exec`] build a zero-copy
//! [`FragmentView`](bgpq_graph::FragmentView) instead of ever allocating a
//! `Subgraph` on the hot path.
//!
//! A lookup is one [`ConstraintIndex::common_neighbors`] probe whose
//! borrowed answer list is appended straight to the step's list: no key is
//! copied, hashed or cached. Within a step no key repeats (the `via` nodes
//! carry the constraint's distinct source labels). What does repeat is whole
//! steps: two pattern nodes of one label fetched through the same constraint
//! from the same `via` nodes probe the identical key set. The
//! [`LookupMemo`] keeps such a step's answers for the later steps of the
//! plan that repeat it, and each applies its own predicate.
//!
//! The index-seeded tier (`optVF2`/`optgsim`) fetches through the same loop:
//! [`seeded_candidates`] runs it on the plan the planner built — complete,
//! or the partial plan of a [`PlanError`](crate::plan::PlanError) — and
//! gives every node the plan leaves uncovered its label-compatible nodes.
//!
//! [`ConstraintIndex::common_neighbors`]: bgpq_access::ConstraintIndex::common_neighbors

use crate::plan::{FetchStep, QueryPlan};
use bgpq_access::AccessIndexSet;
use bgpq_graph::{Graph, NodeId, Subgraph};
use bgpq_pattern::{Pattern, PatternNodeId};
use std::time::Instant;

/// Counters describing one plan execution.
///
/// Deliberately **not** `PartialEq`: the struct carries the wall-clock
/// [`FetchStats::fragment_build_nanos`], so two semantically identical
/// fetches are never byte-equal. Compare the individual counters instead.
#[derive(Debug, Clone, Default)]
pub struct FetchStats {
    /// Probes that reached a [`bgpq_access::ConstraintIndex`]: one per key
    /// combination of every step the [`LookupMemo`] did not serve.
    pub index_lookups: u64,
    /// Keys not probed because their step repeated an earlier step's
    /// `(constraint, via)` and reused its answers from the [`LookupMemo`].
    /// `index_lookups + lookups_deduped` is every key combination of the
    /// plan.
    pub lookups_deduped: u64,
    /// Nodes the probes returned, before deduplication and filtering; a
    /// step served from the [`LookupMemo`] adds none.
    pub nodes_returned: u64,
    /// Distinct fetched nodes dropped because the pattern node's predicate
    /// rejected them — a measure of how selective the query's predicates are
    /// relative to the schema's constraints.
    pub predicate_filtered: u64,
    /// Nodes in the fetched fragment `|V(G_Q)|`.
    pub fragment_nodes: usize,
    /// Edges in the fetched fragment `|E(G_Q)|`.
    pub fragment_edges: usize,
    /// Parent adjacency entries read or probed while building the fragment
    /// view ([`bgpq_graph::FragmentView::adjacency_reads`]): the work the
    /// view build did on `G`, which must not grow with `|G|`. Filled by the
    /// bounded executors of [`crate::exec`] (a cache hit reports its own
    /// build); zero for [`execute_plan`], which builds no view.
    pub adjacency_reads: u64,
    /// Nanoseconds spent fetching candidates and building the fragment
    /// (index lookups + `Subgraph`/`FragmentView` construction). A timing,
    /// not a semantic counter: two equal fetches may differ here.
    pub fragment_build_nanos: u64,
}

impl FetchStats {
    /// `|G_Q| = |V(G_Q)| + |E(G_Q)|`.
    pub fn fragment_size(&self) -> usize {
        self.fragment_nodes + self.fragment_edges
    }
}

/// The outcome of executing a plan: per-node candidates plus the fragment.
#[derive(Debug, Clone)]
pub struct FetchResult {
    /// Sorted, deduplicated candidate set per pattern node (indexed by
    /// pattern node id).
    pub candidates: Vec<Vec<NodeId>>,
    /// The bounded fragment `G_Q`: the subgraph of `G` induced by the union
    /// of all candidate sets.
    pub fragment: Subgraph,
    /// Counters for reporting.
    pub stats: FetchStats,
}

/// The lean fetch outcome the bounded executors consume: candidate sets and
/// their sorted union, with no fragment container allocated.
///
/// This is the unit session layers cache: together with the pattern it was
/// fetched for, a `CandidateSet` fully determines the bounded fragment `G_Q`
/// (the subgraph induced by [`CandidateSet::all_nodes`]), so reusing one
/// skips every index lookup of a repeated query.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    /// Sorted, deduplicated candidate set per pattern node (indexed by
    /// pattern node id).
    pub candidates: Vec<Vec<NodeId>>,
    /// Sorted, deduplicated union of all candidate sets — the node set of
    /// the fragment `G_Q` those candidates induce.
    pub all_nodes: Vec<NodeId>,
    /// Counters of the fetch that produced this set.
    /// `fragment_nodes`/`fragment_edges` are left for the caller to fill
    /// once the fragment representation (view or subgraph) exists;
    /// `fragment_build_nanos` holds the lookup-side time, to which the
    /// executors add their view-construction time.
    pub stats: FetchStats,
}

/// A memo of plan steps: the sorted, deduplicated answers of a step,
/// before its predicate, kept for the later steps of the same plan that
/// repeat its `(constraint, via)` and would otherwise probe the identical
/// key set. Finding the earlier step is a linear scan, with no hashing.
///
/// Only steps a later step repeats are recorded, and
/// [`fetch_candidate_sets`] clears the memo on entry: a step means nothing
/// outside its plan, so nothing carries across fetches.
#[derive(Debug, Default)]
pub struct LookupMemo {
    /// `(step index, probes, answers)` per recorded step.
    steps: Vec<(usize, u64, Vec<NodeId>)>,
}

impl LookupMemo {
    /// An empty memo.
    pub fn new() -> Self {
        LookupMemo::default()
    }
}

/// Runs the index-lookup loop of `plan` with a private [`LookupMemo`],
/// producing per-node candidates and their union. Shared by
/// [`execute_plan`] and the bounded executors.
///
/// # Panics
/// Panics if `plan` references constraints absent from `indices` (i.e. the
/// plan was built against a different schema).
pub(crate) fn fetch_candidates(
    plan: &QueryPlan,
    pattern: &Pattern,
    graph: &Graph,
    indices: &AccessIndexSet,
) -> CandidateSet {
    fetch_candidate_sets(plan, pattern, graph, indices, &mut LookupMemo::new())
}

/// Runs the index-lookup loop of `plan`, producing per-node candidates and
/// their union. A step that repeats an earlier step's `(constraint, via)`
/// reuses that step's answers from `memo`, which is cleared first (see
/// [`LookupMemo`]). `plan` must come from the schema behind `indices`: a
/// foreign plan whose constraint ids exist there fetches wrong candidates.
///
/// # Panics
/// Panics if `plan` references constraints absent from `indices` (i.e. the
/// plan was built against a different schema).
pub fn fetch_candidate_sets(
    plan: &QueryPlan,
    pattern: &Pattern,
    graph: &Graph,
    indices: &AccessIndexSet,
    memo: &mut LookupMemo,
) -> CandidateSet {
    let started = Instant::now();
    memo.steps.clear();
    let mut candidates: Vec<Vec<NodeId>> = vec![Vec::new(); pattern.node_count()];
    let mut stats = FetchStats::default();
    for (i, step) in plan.steps.iter().enumerate() {
        let repeats = |s: &FetchStep| s.constraint == step.constraint && s.via == step.via;
        let earlier = memo.steps.iter().find(|(j, ..)| repeats(&plan.steps[*j]));
        let mut fetched = if let Some((_, probes, answers)) = earlier {
            stats.lookups_deduped += probes;
            answers.clone()
        } else {
            let index = indices
                .get(step.constraint)
                .expect("plan constraint must exist in the index set");
            let (mut fetched, mut probes) = (Vec::new(), 0);
            for_each_combination(&step.via, &candidates, &mut Vec::new(), &mut |key| {
                probes += 1;
                fetched.extend_from_slice(index.common_neighbors(key));
            });
            stats.index_lookups += probes;
            stats.nodes_returned += fetched.len() as u64;
            // Sized by the fetched list, never by `|V|`.
            fetched.sort_unstable();
            fetched.dedup();
            if plan.steps[i + 1..].iter().any(repeats) {
                memo.steps.push((i, probes, fetched.clone()));
            }
            fetched
        };
        // An empty predicate accepts every node: read no value for it.
        let predicate = pattern.predicate(step.node);
        if !predicate.is_empty() {
            let before_filter = fetched.len();
            fetched.retain(|&v| predicate.eval(graph.value(v)));
            stats.predicate_filtered += (before_filter - fetched.len()) as u64;
        }
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

/// Sound candidate sets for whole-graph matching (`optVF2`/`optgsim`):
/// the nodes `plan` covers get what its fetch returns, every other node its
/// label-compatible nodes of `graph` that pass its predicate (a `|G|`-sized
/// scan). `plan` is the planner's outcome for `pattern` against the schema
/// behind `indices`: the plan, or the partial plan of its
/// [`PlanError`](crate::plan::PlanError) for an unbounded pattern.
///
/// # Panics
/// Panics if `plan` references constraints absent from `indices`.
pub fn seeded_candidates(
    plan: &QueryPlan,
    pattern: &Pattern,
    graph: &Graph,
    indices: &AccessIndexSet,
) -> (Vec<Vec<NodeId>>, FetchStats) {
    let CandidateSet {
        mut candidates,
        mut stats,
        ..
    } = fetch_candidates(plan, pattern, graph, indices);
    for u in pattern.nodes().filter(|&u| plan.step_for(u).is_none()) {
        let labelled = graph.nodes_with_label(pattern.label(u));
        let predicate = pattern.predicate(u);
        let kept: Vec<NodeId> = labelled
            .iter()
            .copied()
            .filter(|&v| predicate.is_empty() || predicate.eval(graph.value(v)))
            .collect();
        stats.predicate_filtered += (labelled.len() - kept.len()) as u64;
        candidates[u.index()] = kept;
    }
    (candidates, stats)
}

/// Invokes `emit` with every combination of candidates of the `via` nodes
/// (the cartesian product of their candidate sets, in order), each appended
/// to `key`.
fn for_each_combination(
    via: &[PatternNodeId],
    candidates: &[Vec<NodeId>],
    key: &mut Vec<NodeId>,
    emit: &mut impl FnMut(&[NodeId]),
) {
    let Some((w, rest)) = via.split_first() else {
        return emit(key);
    };
    for &v in &candidates[w.index()] {
        key.push(v);
        for_each_combination(rest, candidates, key, emit);
        key.pop();
    }
}

/// Executes `plan` for `pattern` against `indices`, materializing the
/// fragment from `graph` as an explicit [`Subgraph`].
///
/// `graph` is only used to evaluate predicates on fetched nodes and to
/// induce the fragment's edges — both bounded by the fetched node set.
/// The bounded executors of [`crate::exec`] do not go through this function:
/// they build a zero-copy [`FragmentView`](bgpq_graph::FragmentView) from
/// the crate-internal `fetch_candidates` instead.
///
/// # Panics
/// Panics if `plan` references constraints absent from `indices` (i.e. the
/// plan was built against a different schema).
pub fn execute_plan(
    plan: &QueryPlan,
    pattern: &Pattern,
    graph: &Graph,
    indices: &AccessIndexSet,
) -> FetchResult {
    let started = Instant::now();
    let fetched = fetch_candidates(plan, pattern, graph, indices);
    let fragment = Subgraph::induced(graph, fetched.all_nodes);
    let mut stats = fetched.stats;
    stats.fragment_nodes = fragment.node_count();
    stats.fragment_edges = fragment.edge_count();
    stats.fragment_build_nanos = started.elapsed().as_nanos() as u64;

    FetchResult {
        candidates: fetched.candidates,
        fragment,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{plan_query, Semantics};
    use bgpq_access::{AccessConstraint, AccessSchema};
    use bgpq_graph::{GraphBuilder, Value};
    use bgpq_pattern::{PatternBuilder, Predicate};

    /// 2 years, 1 award, 4 movies, 2 actors each; plus 50 unrelated noise
    /// nodes that a bounded fetch must never touch.
    fn graph_with_noise() -> Graph {
        let mut b = GraphBuilder::new();
        let y1 = b.add_node("year", Value::Int(2011));
        let y2 = b.add_node("year", Value::Int(2012));
        let aw = b.add_node("award", Value::str("Oscar"));
        for i in 0..4 {
            let m = b.add_node("movie", Value::Int(i));
            b.add_edge(if i % 2 == 0 { y1 } else { y2 }, m).unwrap();
            b.add_edge(aw, m).unwrap();
            for j in 0..2 {
                let a = b.add_node("actor", Value::Int(10 * i + j));
                b.add_edge(m, a).unwrap();
            }
        }
        for i in 0..50 {
            b.add_node("noise", Value::Int(i));
        }
        b.build()
    }

    fn setup() -> (Graph, AccessSchema) {
        let g = graph_with_noise();
        let year = g.interner().get("year").unwrap();
        let award = g.interner().get("award").unwrap();
        let movie = g.interner().get("movie").unwrap();
        let actor = g.interner().get("actor").unwrap();
        let schema = AccessSchema::from_constraints([
            AccessConstraint::global(year, 2),
            AccessConstraint::global(award, 1),
            AccessConstraint::new([year, award], movie, 2),
            AccessConstraint::unary(movie, actor, 2),
        ]);
        (g, schema)
    }

    fn movie_pattern(g: &Graph) -> Pattern {
        let mut pb = PatternBuilder::with_interner(g.interner().clone());
        let m = pb.node("movie", Predicate::always());
        let y = pb.node("year", Predicate::single(bgpq_pattern::Op::Eq, 2011));
        let a = pb.node("award", Predicate::always());
        let act = pb.node("actor", Predicate::always());
        pb.edge(y, m);
        pb.edge(a, m);
        pb.edge(m, act);
        pb.build()
    }

    #[test]
    fn fetch_is_bounded_and_excludes_noise() {
        let (g, schema) = setup();
        let indices = AccessIndexSet::build(&g, &schema);
        let q = movie_pattern(&g);
        let plan = plan_query(&q, &schema, Semantics::Isomorphism).unwrap();
        let fetched = execute_plan(&plan, &q, &g, &indices);

        // year restricted by predicate to 2011 → 2 movies → 4 actors.
        assert_eq!(fetched.candidates[1], vec![NodeId(0)]);
        assert_eq!(fetched.candidates[0].len(), 2);
        assert_eq!(fetched.candidates[3].len(), 4);
        // The fragment holds ≤ 8 of the 69 graph nodes; no noise node.
        assert!(fetched.stats.fragment_nodes <= 8);
        let noise = g.interner().get("noise").unwrap();
        for v in fetched.fragment.nodes() {
            assert_ne!(g.label(v), noise);
        }
        assert!(fetched.fragment.is_subgraph_of(&g));
        assert_eq!(
            fetched.stats.fragment_size(),
            fetched.stats.fragment_nodes + fetched.stats.fragment_edges
        );
        // Fetched nodes stay within the plan's worst-case bound.
        assert!((fetched.stats.fragment_nodes as u64) <= plan.worst_case_nodes());
    }

    #[test]
    fn lookup_count_is_product_of_key_candidates() {
        let (g, schema) = setup();
        let indices = AccessIndexSet::build(&g, &schema);
        let q = movie_pattern(&g);
        let plan = plan_query(&q, &schema, Semantics::Isomorphism).unwrap();
        let fetched = execute_plan(&plan, &q, &g, &indices);
        // `index_lookups` counts *distinct* lookups issued. Here every
        // combination keys a distinct lookup, so the count is the product
        // of key-candidate set sizes: 1 (year global) + 1 (award global) +
        // 1·1 (pair keys after the year predicate cut candidates to one) +
        // 2 (one per movie) = 5, with nothing deduplicated.
        assert_eq!(fetched.stats.index_lookups, 5);
        assert_eq!(fetched.stats.lookups_deduped, 0);
    }

    /// year = `year` → movie → two actor nodes, the second one filtered by
    /// `second_actor`: the actor nodes' steps share `(constraint, via)`.
    fn two_actor_pattern(g: &Graph, year: i64, second_actor: Predicate) -> Pattern {
        let mut pb = PatternBuilder::with_interner(g.interner().clone());
        let m = pb.node("movie", Predicate::always());
        let y = pb.node("year", Predicate::single(bgpq_pattern::Op::Eq, year));
        let a = pb.node("award", Predicate::always());
        let act1 = pb.node("actor", Predicate::always());
        let act2 = pb.node("actor", second_actor);
        pb.edge(y, m);
        pb.edge(a, m);
        pb.edge(m, act1);
        pb.edge(m, act2);
        pb.build()
    }

    /// Two same-labeled pattern nodes fetched through the same constraint
    /// from the same `via` node repeat each other's key set; the second step
    /// must reuse the first one's answers, not re-probe the index.
    #[test]
    fn repeated_via_keys_are_looked_up_once() {
        let (g, schema) = setup();
        let indices = AccessIndexSet::build(&g, &schema);
        let q = two_actor_pattern(&g, 2011, Predicate::always());
        let plan = plan_query(&q, &schema, Semantics::Isomorphism).unwrap();
        let fetched = execute_plan(&plan, &q, &g, &indices);
        // year + award + 1 pair key + 2 movie→actor keys for the first
        // actor node = 5 probes; the second actor node's step repeats the
        // first one's 2 keys and reuses its answers.
        assert_eq!(fetched.stats.index_lookups, 5);
        assert_eq!(fetched.stats.lookups_deduped, 2);
        assert_eq!(fetched.stats.nodes_returned, 2 + 1 + 2 + 4);
        // Reuse never changes the answer: both actor nodes see all actors
        // of the 2011 movies.
        assert_eq!(fetched.candidates[3], fetched.candidates[4]);
        assert_eq!(fetched.candidates[3].len(), 4);
    }

    /// A reused step applies its own predicate to the shared answers, not
    /// the predicate of the step it reuses.
    #[test]
    fn a_reused_step_applies_its_own_predicate() {
        let (g, schema) = setup();
        let indices = AccessIndexSet::build(&g, &schema);
        let q = two_actor_pattern(&g, 2011, Predicate::single(bgpq_pattern::Op::Ge, 20));
        let plan = plan_query(&q, &schema, Semantics::Isomorphism).unwrap();
        let fetched = execute_plan(&plan, &q, &g, &indices);
        assert_eq!(fetched.stats.lookups_deduped, 2);
        // The 2011 movies are movies 0 and 2: actors 0, 1, 20, 21.
        let values = |u: usize| -> Vec<Value> {
            let nodes = fetched.candidates[u].iter();
            nodes.map(|&v| g.value(v).clone()).collect()
        };
        assert_eq!(values(3), [0, 1, 20, 21].map(Value::Int));
        assert_eq!(values(4), [20, 21].map(Value::Int));
        assert_eq!(fetched.stats.predicate_filtered, 1 + 2);
    }

    /// A memo reused across fetches carries nothing: every fetch through it
    /// equals a fresh-memo fetch, probes included — also when the earlier
    /// plan recorded a step whose index means another step in the next one.
    #[test]
    fn a_shared_memo_carries_nothing_across_fetches() {
        let (g, schema) = setup();
        let indices = AccessIndexSet::build(&g, &schema);
        let patterns = [
            two_actor_pattern(&g, 2011, Predicate::always()),
            two_actor_pattern(&g, 2012, Predicate::always()),
            movie_pattern(&g),
            two_actor_pattern(&g, 2011, Predicate::always()),
        ];
        let mut memo = LookupMemo::new();
        for q in &patterns {
            let plan = plan_query(q, &schema, Semantics::Isomorphism).unwrap();
            let fresh = fetch_candidates(&plan, q, &g, &indices);
            let shared = fetch_candidate_sets(&plan, q, &g, &indices, &mut memo);
            assert_eq!(shared.candidates, fresh.candidates);
            assert_eq!(shared.all_nodes, fresh.all_nodes);
            assert_eq!(shared.stats.index_lookups, fresh.stats.index_lookups);
            assert_eq!(shared.stats.lookups_deduped, fresh.stats.lookups_deduped);
        }
        // The 2012 pattern's actors are the 2012 movies' (1 and 3), not the
        // 2011 ones a stale step would have served.
        let plan = plan_query(&patterns[1], &schema, Semantics::Isomorphism).unwrap();
        let fetched = fetch_candidate_sets(&plan, &patterns[1], &g, &indices, &mut memo);
        let actor_values = fetched.candidates[4].iter().map(|&v| g.value(v).clone());
        let expected = [10, 11, 30, 31].map(Value::Int);
        assert_eq!(actor_values.collect::<Vec<_>>(), expected);
    }

    /// The index-seeded tier's candidates: the planner's plan, or the
    /// partial plan of its refusal, through [`seeded_candidates`].
    fn seeded(q: &Pattern, g: &Graph, schema: &AccessSchema, sem: Semantics) -> Vec<Vec<NodeId>> {
        let indices = AccessIndexSet::build(g, schema);
        let plan = crate::exec::plan_for_indices(q, &indices, sem).unwrap_or_else(|e| e.partial);
        seeded_candidates(&plan, q, g, &indices).0
    }

    #[test]
    fn globals_seed_directly() {
        let (g, schema) = setup();
        let mut pb = PatternBuilder::with_interner(g.interner().clone());
        pb.node("year", Predicate::single(bgpq_pattern::Op::Ge, 2012));
        let cand = seeded(&pb.build(), &g, &schema, Semantics::Isomorphism);
        // Global year constraint plus the predicate keeps only year 2012.
        assert_eq!(cand[0], vec![NodeId(1)]);
    }

    #[test]
    fn propagation_narrows_through_pair_constraint() {
        let (g, schema) = setup();
        let cand = seeded(&movie_pattern(&g), &g, &schema, Semantics::Isomorphism);
        // year narrowed to 2011 → movies narrowed to the two 2011 movies
        // via (year, award) → movie, then actors to those movies' actors.
        assert_eq!(cand[1].len(), 1, "year candidates");
        assert_eq!(cand[0].len(), 2, "movie candidates");
        assert_eq!(cand[3].len(), 4, "actor candidates");
    }

    /// Pattern movie -> actor: for simulation, `actor` may not be narrowed
    /// via its parent `movie` (a data actor node could simulate `actor`
    /// without any movie parent), so it falls back to the label scan.
    #[test]
    fn simulation_semantics_ignores_parent_side_constraints() {
        let (g, schema) = setup();
        let mut pb = PatternBuilder::with_interner(g.interner().clone());
        let m = pb.node("movie", Predicate::always());
        let act = pb.node("actor", Predicate::always());
        pb.edge(m, act);
        let q = pb.build();
        let label_count = |name| g.label_count(g.interner().get(name).unwrap());
        let sim = seeded(&q, &g, &schema, Semantics::Simulation);
        assert_eq!(sim[1].len(), label_count("actor"));
        // Isomorphism cannot narrow the movie node either: no global movie
        // constraint, and year/award are absent from the pattern.
        let iso = seeded(&q, &g, &schema, Semantics::Isomorphism);
        assert_eq!(iso[0].len(), label_count("movie"));
    }

    /// A node the plan leaves uncovered gets its label's nodes, filtered by
    /// its predicate, and the rejected ones are counted.
    #[test]
    fn unseeded_nodes_fall_back_to_label_scan() {
        let (g, _) = setup();
        let indices = AccessIndexSet::build(&g, &AccessSchema::new());
        let mut pb = PatternBuilder::with_interner(g.interner().clone());
        pb.node("movie", Predicate::single(bgpq_pattern::Op::Ge, 1));
        let q = pb.build();
        let plan = crate::exec::plan_for_indices(&q, &indices, Semantics::Isomorphism)
            .unwrap_err()
            .partial;
        let (cand, stats) = seeded_candidates(&plan, &q, &g, &indices);
        let movies = g.nodes_with_label(g.interner().get("movie").unwrap());
        assert_eq!(cand[0], movies.to_vec()[1..]);
        assert_eq!((stats.predicate_filtered, stats.index_lookups), (1, 0));
    }

    #[test]
    fn empty_pattern_yields_no_sets() {
        let (g, schema) = setup();
        let q = PatternBuilder::with_interner(g.interner().clone()).build();
        assert!(seeded(&q, &g, &schema, Semantics::Simulation).is_empty());
    }

    #[test]
    fn empty_candidates_propagate_to_empty_fragment() {
        let (g, schema) = setup();
        let indices = AccessIndexSet::build(&g, &schema);
        let mut pb = PatternBuilder::with_interner(g.interner().clone());
        let m = pb.node("movie", Predicate::always());
        let y = pb.node("year", Predicate::single(bgpq_pattern::Op::Eq, 1999));
        let a = pb.node("award", Predicate::always());
        pb.edge(y, m);
        pb.edge(a, m);
        let q = pb.build();
        let plan = plan_query(&q, &schema, Semantics::Isomorphism).unwrap();
        let fetched = execute_plan(&plan, &q, &g, &indices);
        // No 1999 year → no movie keys → movie candidates empty.
        assert!(fetched.candidates[1].is_empty());
        assert!(fetched.candidates[0].is_empty());
        // Fragment still carries the award node (fetched by its global).
        assert_eq!(fetched.stats.fragment_nodes, 1);
    }
}
