//! Index-seeded candidate sets for `optVF2` / `optgsim`.
//!
//! Given a pattern `Q`, a data graph `G` and the indices of an access schema
//! `A` with `G |= A`, this module computes, for every pattern node `u`, a
//! sound candidate set: a superset of the data nodes that can appear in any
//! answer. The optimized baselines hand these sets to the matchers of
//! [`crate::vf2`] / [`crate::simulation`], which prunes their search without
//! changing the result.
//!
//! Seeding works in two steps:
//!
//! 1. **global seeding** — a type (1) constraint `∅ → (l, N)` lists all
//!    `l`-labeled nodes, so any pattern node labeled `l` starts from at most
//!    `N` candidates;
//! 2. **propagation** — a constraint `S → (l, N)` narrows a node `u` labeled
//!    `l` once suitable pattern neighbors covering the source labels `S`
//!    already have narrow candidate sets: every data node matching `u` must
//!    be a common neighbor of some combination of their candidates, so the
//!    union of index lookups over those combinations covers `u`.
//!
//! The soundness of step 2 depends on the query semantics, captured by
//! [`SeedSemantics`]:
//!
//! * **isomorphism** — a match realizes *every* pattern edge, so any pattern
//!   neighbor of `u` (parent or child) can contribute a source label;
//! * **simulation** — a simulating node is only guaranteed witnesses for the
//!   *children* of `u`; a data node can simulate `u` without having any
//!   parent-side counterpart, so only children may drive the narrowing.
//!
//! Using the isomorphism rule for simulation would drop valid simulation
//! matches — the distinction mirrors the paper's separate boundedness
//! results for subgraph and simulation queries.

use bgpq_access::AccessIndexSet;
use bgpq_graph::{Graph, LabelNodes, NodeId};
use bgpq_pattern::{Pattern, PatternNodeId};

/// Which query semantics the candidate sets must stay sound for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeedSemantics {
    /// Subgraph-isomorphism matching (`VF2` family): propagate from any
    /// pattern neighbor.
    Isomorphism,
    /// Graph-simulation matching (`gsim` family): propagate from pattern
    /// children only.
    Simulation,
}

/// Safety valve: skip a narrowing step whose key-combination count explodes
/// (the unrestricted fallback remains sound).
const MAX_COMBINATIONS: usize = 20_000;

/// Counters describing one candidate-seeding run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeedStats {
    /// Candidate nodes dropped because the pattern node's predicate rejected
    /// them — the seeding-side analogue of
    /// `FetchStats::predicate_filtered` in `bgpq-core`.
    pub predicate_filtered: u64,
}

/// Computes one sound candidate set per pattern node.
///
/// Nodes that no constraint narrows fall back to the label index of `graph`
/// (all label-compatible nodes), so the result is always usable with
/// [`crate::SubgraphMatcher::with_candidates`] /
/// [`crate::SimulationMatcher::with_candidates`].
pub fn seeded_candidates(
    pattern: &Pattern,
    graph: &Graph,
    indices: &AccessIndexSet,
    semantics: SeedSemantics,
) -> Vec<Vec<NodeId>> {
    seeded_candidates_with_stats(pattern, graph, indices, semantics).0
}

/// [`seeded_candidates`] that also reports [`SeedStats`] counters.
pub fn seeded_candidates_with_stats(
    pattern: &Pattern,
    graph: &Graph,
    indices: &AccessIndexSet,
    semantics: SeedSemantics,
) -> (Vec<Vec<NodeId>>, SeedStats) {
    let n = pattern.node_count();
    let mut cand: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let mut known = vec![false; n];
    let mut stats = SeedStats::default();

    // Step 1: global constraints.
    for u in pattern.nodes() {
        if let Some(id) = indices.find_global(pattern.label(u)) {
            let index = indices.get(id).expect("id from find_global");
            cand[u.index()] =
                filter_by_predicate(pattern, graph, u, index.global_nodes().into(), &mut stats);
            known[u.index()] = true;
        }
    }

    // Step 2: propagate until no node gains a candidate set.
    loop {
        let mut progressed = false;
        for u in pattern.nodes() {
            if known[u.index()] {
                continue;
            }
            if let Some(nodes) = try_narrow(
                pattern, graph, indices, semantics, u, &cand, &known, &mut stats,
            ) {
                cand[u.index()] = nodes;
                known[u.index()] = true;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    // Fallback: label-compatible nodes for everything still unseeded.
    for u in pattern.nodes() {
        if !known[u.index()] {
            cand[u.index()] = filter_by_predicate(
                pattern,
                graph,
                u,
                graph.nodes_with_label(pattern.label(u)),
                &mut stats,
            );
        }
    }
    (cand, stats)
}

/// Attempts to narrow `u` with some constraint of the schema, returning the
/// sound candidate set on success.
#[allow(clippy::too_many_arguments)]
fn try_narrow(
    pattern: &Pattern,
    graph: &Graph,
    indices: &AccessIndexSet,
    semantics: SeedSemantics,
    u: PatternNodeId,
    cand: &[Vec<NodeId>],
    known: &[bool],
    stats: &mut SeedStats,
) -> Option<Vec<NodeId>> {
    let pool: Vec<PatternNodeId> = match semantics {
        SeedSemantics::Isomorphism => pattern.neighbors(u),
        SeedSemantics::Simulation => pattern.children(u).to_vec(),
    };
    for (id, constraint) in indices.schema().constraints_targeting(pattern.label(u)) {
        if constraint.is_global() {
            continue; // handled in step 1
        }
        let index = indices.get(id).expect("id from schema iteration");
        if index.is_truncated() {
            // A truncated index dropped (key → target) entries during its
            // build, so a lookup may report "empty" for a set that does
            // have common neighbors — narrowing through it would silently
            // lose matches. Fall through to another constraint or the
            // label-scan fallback instead.
            continue;
        }
        let weight = |w: PatternNodeId| known[w.index()].then(|| cand[w.index()].len() as u64);
        let Some(via) = pick_via_nodes(pattern, constraint.source(), &pool, &weight) else {
            continue;
        };
        let combos: usize = via
            .iter()
            .map(|w| cand[w.index()].len())
            .try_fold(1usize, |acc, len| acc.checked_mul(len))
            .unwrap_or(usize::MAX);
        if combos > MAX_COMBINATIONS {
            continue;
        }
        let mut out = Vec::new();
        for_each_combination(&via, cand, &mut |key| {
            out.extend_from_slice(index.common_neighbors(key));
        });
        // Combination unions repeat nodes heavily; a bitmap membership pass
        // drops duplicates in O(n) before the much smaller sort.
        let mut seen = bgpq_graph::NodeBitSet::with_capacity(graph.node_count());
        bgpq_graph::bitset::dedup_with_bitset(&mut out, &mut seen);
        out.sort_unstable();
        return Some(filter_by_predicate(
            pattern,
            graph,
            u,
            out[..].into(),
            stats,
        ));
    }
    None
}

/// Picks, for every source label of a constraint, a pattern node from `pool`
/// carrying that label — the one with the smallest `weight` (ties broken by
/// node id, keeping the choice deterministic). `weight` returns `None` for
/// nodes that are not yet available (unseeded here, uncovered in the
/// planner of `bgpq-core`, which shares this selection rule).
pub fn pick_via_nodes(
    pattern: &Pattern,
    source: &[bgpq_graph::Label],
    pool: &[PatternNodeId],
    weight: &impl Fn(PatternNodeId) -> Option<u64>,
) -> Option<Vec<PatternNodeId>> {
    source
        .iter()
        .map(|&label| {
            pool.iter()
                .copied()
                .filter(|&w| pattern.label(w) == label)
                .filter_map(|w| weight(w).map(|k| (k, w)))
                .min()
                .map(|(_, w)| w)
        })
        .collect()
}

/// Invokes `emit` with every combination of candidates of the `via` nodes
/// (the cartesian product of their candidate sets, in order).
///
/// Shared by the optimized baselines here and by the bounded fetch of
/// `bgpq-core`.
pub fn for_each_combination(
    via: &[PatternNodeId],
    candidates: &[Vec<NodeId>],
    emit: &mut impl FnMut(&[NodeId]),
) {
    let mut key = Vec::with_capacity(via.len());
    enumerate_combinations(via, candidates, &mut key, emit);
}

fn enumerate_combinations(
    via: &[PatternNodeId],
    cand: &[Vec<NodeId>],
    key: &mut Vec<NodeId>,
    emit: &mut impl FnMut(&[NodeId]),
) {
    if key.len() == via.len() {
        emit(key);
        return;
    }
    let w = via[key.len()];
    for &v in &cand[w.index()] {
        key.push(v);
        enumerate_combinations(via, cand, key, emit);
        key.pop();
    }
}

fn filter_by_predicate(
    pattern: &Pattern,
    graph: &Graph,
    u: PatternNodeId,
    nodes: LabelNodes<'_>,
    stats: &mut SeedStats,
) -> Vec<NodeId> {
    let kept: Vec<NodeId> = nodes
        .iter()
        .copied()
        .filter(|&v| pattern.predicate(u).eval(graph.value(v)))
        .collect();
    stats.predicate_filtered += (nodes.len() - kept.len()) as u64;
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpq_access::{AccessConstraint, AccessSchema};
    use bgpq_graph::{GraphBuilder, Value};
    use bgpq_pattern::{PatternBuilder, Predicate};

    /// 2 years, 1 award, 4 movies (year alternating), 2 actors per movie.
    fn imdb_toy() -> Graph {
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
        b.build()
    }

    fn schema(graph: &Graph) -> AccessSchema {
        let year = graph.interner().get("year").unwrap();
        let award = graph.interner().get("award").unwrap();
        let movie = graph.interner().get("movie").unwrap();
        let actor = graph.interner().get("actor").unwrap();
        AccessSchema::from_constraints([
            AccessConstraint::global(year, 2),
            AccessConstraint::global(award, 1),
            AccessConstraint::new([year, award], movie, 2),
            AccessConstraint::unary(movie, actor, 2),
        ])
    }

    #[test]
    fn globals_seed_directly() {
        let g = imdb_toy();
        let indices = AccessIndexSet::build(&g, &schema(&g));
        let mut pb = PatternBuilder::with_interner(g.interner().clone());
        pb.node("year", Predicate::single(bgpq_pattern::Op::Ge, 2012));
        let q = pb.build();
        let cand = seeded_candidates(&q, &g, &indices, SeedSemantics::Isomorphism);
        // Global year constraint plus the predicate keeps only year 2012.
        assert_eq!(cand[0], vec![NodeId(1)]);
    }

    #[test]
    fn propagation_narrows_through_pair_constraint() {
        let g = imdb_toy();
        let indices = AccessIndexSet::build(&g, &schema(&g));
        let mut pb = PatternBuilder::with_interner(g.interner().clone());
        let m = pb.node("movie", Predicate::always());
        let y = pb.node("year", Predicate::single(bgpq_pattern::Op::Eq, 2011));
        let a = pb.node("award", Predicate::always());
        let act = pb.node("actor", Predicate::always());
        pb.edge(y, m);
        pb.edge(a, m);
        pb.edge(m, act);
        let q = pb.build();
        let cand = seeded_candidates(&q, &g, &indices, SeedSemantics::Isomorphism);
        // year narrowed to 2011 → movies narrowed to the two 2011 movies
        // via (year, award) → movie, then actors to those movies' actors.
        assert_eq!(cand[1].len(), 1, "year candidates");
        assert_eq!(cand[0].len(), 2, "movie candidates");
        assert_eq!(cand[3].len(), 4, "actor candidates");
        // All real matches are covered.
        let movie_l = g.interner().get("movie").unwrap();
        for &mv in &cand[0] {
            assert_eq!(g.label(mv), movie_l);
        }
    }

    #[test]
    fn simulation_semantics_ignores_parent_side_constraints() {
        let g = imdb_toy();
        let indices = AccessIndexSet::build(&g, &schema(&g));
        // Pattern movie -> actor: for simulation, `actor` may not be narrowed
        // via its parent `movie` (a data actor node could simulate `actor`
        // without any movie parent), so it falls back to the label scan.
        let mut pb = PatternBuilder::with_interner(g.interner().clone());
        let m = pb.node("movie", Predicate::always());
        let act = pb.node("actor", Predicate::always());
        pb.edge(m, act);
        let q = pb.build();
        let iso = seeded_candidates(&q, &g, &indices, SeedSemantics::Isomorphism);
        let sim = seeded_candidates(&q, &g, &indices, SeedSemantics::Simulation);
        let actor_l = g.interner().get("actor").unwrap();
        assert_eq!(sim[1].len(), g.label_count(actor_l));
        // Isomorphism seeding cannot do better here either (movie itself is
        // unseeded: no global movie constraint and year/award are absent from
        // the pattern), so both fall back for the movie node.
        let movie_l = g.interner().get("movie").unwrap();
        assert_eq!(iso[0].len(), g.label_count(movie_l));
    }

    #[test]
    fn unseeded_nodes_fall_back_to_label_scan() {
        let g = imdb_toy();
        let indices = AccessIndexSet::build(&g, &AccessSchema::new());
        let mut pb = PatternBuilder::with_interner(g.interner().clone());
        pb.node("movie", Predicate::always());
        let q = pb.build();
        let cand = seeded_candidates(&q, &g, &indices, SeedSemantics::Isomorphism);
        let movie_l = g.interner().get("movie").unwrap();
        assert_eq!(cand[0], g.nodes_with_label(movie_l).to_vec());
    }

    #[test]
    fn empty_pattern_yields_no_sets() {
        let g = imdb_toy();
        let indices = AccessIndexSet::build(&g, &AccessSchema::new());
        let q = PatternBuilder::with_interner(g.interner().clone()).build();
        assert!(seeded_candidates(&q, &g, &indices, SeedSemantics::Simulation).is_empty());
    }
}
