//! Query plans: deciding effective boundedness and ordering the fetch.
//!
//! A pattern query `Q` is *effectively bounded* under an access schema `A`
//! when, for every graph `G |= A`, the answer `Q(G)` can be computed from a
//! fragment `G_Q ⊆ G` whose size depends only on `Q` and `A` — never on
//! `|G|`. The planner realizes the constructive side of that definition: it
//! tries to **cover** every pattern node with a constraint of the schema,
//!
//! * a type (1) constraint `∅ → (l, N)` covers any node labeled `l` outright
//!   (at most `N` candidates, fetched with one index lookup);
//! * a constraint `S → (l, N)` covers a node `u` labeled `l` once, for every
//!   source label in `S`, some *already covered* pattern node adjacent to `u`
//!   carries that label — each combination of their candidates keys one index
//!   lookup returning at most `N` nodes.
//!
//! Which adjacent nodes are eligible depends on the query semantics
//! ([`Semantics`]): an isomorphism match realizes every pattern edge, so any
//! neighbor of `u` may contribute; a simulation match only guarantees witness
//! edges towards *children* of `u`, so only children may. A query can
//! therefore be bounded for `bVF2` yet unbounded for `bSim` — mirroring the
//! paper's separate characterizations for subgraph and simulation queries.
//!
//! The closure computation is the syntactic sufficient condition of the
//! paper's coverage check: when it succeeds the resulting [`QueryPlan`] lists
//! one [`FetchStep`] per pattern node in dependency order, together with a
//! worst-case candidate bound per node; when it fails, [`PlanError`] reports
//! the uncovered nodes and carries the partial plan for the covered ones,
//! through which the index-seeded tier fetches
//! ([`seeded_candidates`](crate::fetch::seeded_candidates)). Both tiers get
//! their candidates from `A` through this one closure.

use bgpq_access::{AccessSchema, ConstraintId};
use bgpq_graph::Label;
use bgpq_pattern::{Pattern, PatternNodeId};
use std::fmt;

/// Query semantics a plan must stay sound for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Semantics {
    /// Subgraph-isomorphism queries (`bVF2`): any pattern neighbor of a node
    /// may drive its fetch.
    Isomorphism,
    /// Graph-simulation queries (`bSim`): only pattern children may.
    Simulation,
}

impl fmt::Display for Semantics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Semantics::Isomorphism => write!(f, "isomorphism"),
            Semantics::Simulation => write!(f, "simulation"),
        }
    }
}

/// One step of a fetch plan: how the candidates of `node` are retrieved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchStep {
    /// The pattern node whose candidates this step fetches.
    pub node: PatternNodeId,
    /// The constraint whose index is queried.
    pub constraint: ConstraintId,
    /// Already-fetched pattern nodes providing the `S`-labeled lookup keys,
    /// aligned with the constraint's (sorted) source labels. Empty for
    /// global constraints.
    pub via: Vec<PatternNodeId>,
    /// Worst-case number of candidates this step can fetch, given the
    /// bounds of the constraints used so far (saturating).
    pub candidate_bound: u64,
}

/// A complete fetch plan: every pattern node covered, in dependency order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    /// The semantics the plan is sound for.
    pub semantics: Semantics,
    /// One step per pattern node, topologically ordered: every `via` node of
    /// a step is fetched by an earlier step.
    pub steps: Vec<FetchStep>,
}

impl QueryPlan {
    /// Worst-case total number of fetched candidate nodes, independent of
    /// `|G|` (saturating). This is the paper's bound on `|V(G_Q)|`.
    pub fn worst_case_nodes(&self) -> u64 {
        self.steps
            .iter()
            .fold(0u64, |acc, s| acc.saturating_add(s.candidate_bound))
    }

    /// The constraints (hence indices) the plan uses — the paper's
    /// `|index_Q|` is the size of exactly these.
    pub fn constraints_used(&self) -> Vec<ConstraintId> {
        let mut ids: Vec<ConstraintId> = self.steps.iter().map(|s| s.constraint).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The step fetching `node`, if the plan covers it.
    pub fn step_for(&self, node: PatternNodeId) -> Option<&FetchStep> {
        self.steps.iter().find(|s| s.node == node)
    }
}

/// Why no plan exists: the query is not (syntactically) effectively bounded
/// under the schema for the requested semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    /// Pattern nodes no constraint could cover.
    pub uncovered: Vec<PatternNodeId>,
    /// The steps the closure found for the nodes it did cover, in
    /// dependency order, under the requested semantics — a plan covering
    /// all but [`PlanError::uncovered`].
    pub partial: QueryPlan,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nodes: Vec<String> = self.uncovered.iter().map(|u| u.to_string()).collect();
        write!(
            f,
            "query is not effectively bounded under the schema for {} semantics: \
             pattern nodes [{}] cannot be covered",
            self.partial.semantics,
            nodes.join(", ")
        )
    }
}

impl std::error::Error for PlanError {}

/// Decides effective boundedness of `pattern` under `schema` and builds the
/// fetch plan.
///
/// Runs the coverage closure to a fixpoint; the choice of constraint and of
/// `via` nodes is deterministic (schema order, then smallest candidate
/// bound, then smallest node id).
pub fn plan_query(
    pattern: &Pattern,
    schema: &AccessSchema,
    semantics: Semantics,
) -> Result<QueryPlan, PlanError> {
    plan_query_filtered(pattern, schema, semantics, |_| true)
}

/// [`plan_query`] restricted to the constraints accepted by `usable`.
///
/// The bounded executors use this to exclude constraints whose index was
/// truncated during its build (see
/// [`ConstraintIndex::is_truncated`](bgpq_access::ConstraintIndex::is_truncated)):
/// such an index may answer "empty" for a key it dropped, so fetching
/// through it could silently lose matches. Excluding a constraint can only
/// shrink the set of bounded queries, never change an answer.
pub fn plan_query_filtered(
    pattern: &Pattern,
    schema: &AccessSchema,
    semantics: Semantics,
    usable: impl Fn(ConstraintId) -> bool,
) -> Result<QueryPlan, PlanError> {
    let n = pattern.node_count();
    let mut covered = vec![false; n];
    let mut bound = vec![0u64; n];
    let mut steps: Vec<FetchStep> = Vec::with_capacity(n);

    loop {
        let mut progressed = false;
        for u in pattern.nodes() {
            if covered[u.index()] {
                continue;
            }
            if let Some(step) = cover_node(pattern, schema, semantics, u, &covered, &bound, &usable)
            {
                bound[u.index()] = step.candidate_bound;
                covered[u.index()] = true;
                steps.push(step);
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    let uncovered: Vec<PatternNodeId> = pattern.nodes().filter(|u| !covered[u.index()]).collect();
    let plan = QueryPlan { semantics, steps };
    if uncovered.is_empty() {
        Ok(plan)
    } else {
        Err(PlanError {
            uncovered,
            partial: plan,
        })
    }
}

/// Tries every constraint targeting `u`'s label, in schema order, returning
/// the first step that covers `u` from already-covered nodes.
fn cover_node(
    pattern: &Pattern,
    schema: &AccessSchema,
    semantics: Semantics,
    u: PatternNodeId,
    covered: &[bool],
    bound: &[u64],
    usable: &impl Fn(ConstraintId) -> bool,
) -> Option<FetchStep> {
    let pool: Vec<PatternNodeId> = match semantics {
        Semantics::Isomorphism => pattern.neighbors(u),
        Semantics::Simulation => pattern.children(u).to_vec(),
    };
    for (id, constraint) in schema.constraints_targeting(pattern.label(u)) {
        if !usable(id) {
            continue;
        }
        if constraint.is_global() {
            return Some(FetchStep {
                node: u,
                constraint: id,
                via: Vec::new(),
                candidate_bound: constraint.bound() as u64,
            });
        }
        if let Some(via) = pick_via_nodes(pattern, constraint.source(), &pool, covered, bound) {
            // Each combination of via-candidates keys one lookup of ≤ N
            // answers: bound(u) = N · ∏ bound(via_i).
            let combos = via
                .iter()
                .fold(1u64, |acc, w| acc.saturating_mul(bound[w.index()]));
            return Some(FetchStep {
                node: u,
                constraint: id,
                via,
                candidate_bound: combos.saturating_mul(constraint.bound() as u64),
            });
        }
    }
    None
}

/// Picks, for every source label of a constraint, a covered pattern node
/// from `pool` carrying that label — the one with the smallest bound (ties
/// broken by node id, keeping the choice deterministic).
fn pick_via_nodes(
    pattern: &Pattern,
    source: &[Label],
    pool: &[PatternNodeId],
    covered: &[bool],
    bound: &[u64],
) -> Option<Vec<PatternNodeId>> {
    source
        .iter()
        .map(|&label| {
            pool.iter()
                .copied()
                .filter(|&w| covered[w.index()] && pattern.label(w) == label)
                .min_by_key(|&w| (bound[w.index()], w))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpq_access::AccessConstraint;
    use bgpq_graph::LabelInterner;
    use bgpq_pattern::{PatternBuilder, Predicate};

    /// The paper's running example: Q0 over the IMDb-style schema A0.
    fn q0_setup() -> (Pattern, AccessSchema) {
        let mut interner = LabelInterner::new();
        let year = interner.intern("year");
        let award = interner.intern("award");
        let movie = interner.intern("movie");
        let actor = interner.intern("actor");
        let actress = interner.intern("actress");
        let country = interner.intern("country");

        let mut b = PatternBuilder::with_interner(interner);
        let p_aw = b.node("award", Predicate::always());
        let p_y = b.node("year", Predicate::range(2011, 2013));
        let p_m = b.node("movie", Predicate::always());
        let p_ac = b.node("actor", Predicate::always());
        let p_as = b.node("actress", Predicate::always());
        let p_c = b.node("country", Predicate::always());
        b.edge(p_m, p_aw);
        b.edge(p_m, p_y);
        b.edge(p_m, p_ac);
        b.edge(p_m, p_as);
        b.edge(p_ac, p_c);
        b.edge(p_as, p_c);
        let pattern = b.build();

        // A0 from Example 3, with person split into actor/actress bounds.
        let schema = AccessSchema::from_constraints([
            AccessConstraint::new([year, award], movie, 4),
            AccessConstraint::unary(movie, actor, 30),
            AccessConstraint::unary(movie, actress, 30),
            AccessConstraint::unary(actor, country, 1),
            AccessConstraint::unary(actress, country, 1),
            AccessConstraint::global(year, 135),
            AccessConstraint::global(award, 24),
        ]);
        (pattern, schema)
    }

    #[test]
    fn q0_is_bounded_under_a0_for_isomorphism() {
        let (q, a) = q0_setup();
        let plan = plan_query(&q, &a, Semantics::Isomorphism).expect("Q0 is bounded under A0");
        assert_eq!(plan.steps.len(), q.node_count());
        // Every via node is fetched by an earlier step.
        for (i, step) in plan.steps.iter().enumerate() {
            for w in &step.via {
                assert!(
                    plan.steps[..i].iter().any(|s| s.node == *w),
                    "step {i} uses unfetched via node {w}"
                );
            }
        }
        // The movie step keys the (year, award) pair index.
        let movie_step = plan.step_for(bgpq_pattern::PatternNodeId(2)).unwrap();
        assert_eq!(movie_step.constraint, ConstraintId(0));
        assert_eq!(movie_step.via.len(), 2);
        // Worst case: 135 + 24 + 135·24·4 + fanouts — finite and |G|-free.
        assert!(plan.worst_case_nodes() > 0);
        assert!(!plan.constraints_used().is_empty());
    }

    #[test]
    fn q0_is_not_bounded_for_simulation_under_a0() {
        // For simulation, each node may only be fetched through children.
        // movie still works (year and award are its children and globally
        // covered), but actor/actress can only be reached through their
        // parent movie, and country has no children at all — the closure
        // stalls with those three uncovered.
        let (q, a) = q0_setup();
        let err = plan_query(&q, &a, Semantics::Simulation).unwrap_err();
        use bgpq_pattern::PatternNodeId;
        assert_eq!(
            err.uncovered,
            vec![PatternNodeId(3), PatternNodeId(4), PatternNodeId(5)]
        );
        assert!(err.to_string().contains("simulation"));
        // The partial plan keeps the steps for the covered nodes.
        let mut partial: Vec<PatternNodeId> = err.partial.steps.iter().map(|s| s.node).collect();
        partial.sort();
        assert_eq!(partial, [0, 1, 2].map(PatternNodeId));
    }

    #[test]
    fn missing_constraint_reports_uncovered_nodes() {
        let (q, _) = q0_setup();
        let empty = AccessSchema::new();
        let err = plan_query(&q, &empty, Semantics::Isomorphism).unwrap_err();
        assert_eq!(err.uncovered.len(), q.node_count());
        assert!(err.to_string().contains("not effectively bounded"));
    }

    #[test]
    fn empty_pattern_has_empty_plan() {
        let q = PatternBuilder::new().build();
        let plan = plan_query(&q, &AccessSchema::new(), Semantics::Simulation).unwrap();
        assert!(plan.steps.is_empty());
        assert_eq!(plan.worst_case_nodes(), 0);
    }

    #[test]
    fn simulation_plans_through_children() {
        // Pattern a -> b. Schema: global(b), b → (a, N). For simulation,
        // a's child b drives the fetch: every simulating a-node has a
        // b-child witness.
        let mut interner = LabelInterner::new();
        let la = interner.intern("a");
        let lb = interner.intern("b");
        let mut pb = PatternBuilder::with_interner(interner);
        let pa = pb.node("a", Predicate::always());
        let pbn = pb.node("b", Predicate::always());
        pb.edge(pa, pbn);
        let q = pb.build();

        let schema = AccessSchema::from_constraints([
            AccessConstraint::global(lb, 7),
            AccessConstraint::unary(lb, la, 3),
        ]);
        let plan = plan_query(&q, &schema, Semantics::Simulation).unwrap();
        assert_eq!(plan.steps.len(), 2);
        let a_step = plan.step_for(bgpq_pattern::PatternNodeId(0)).unwrap();
        assert_eq!(a_step.via, vec![bgpq_pattern::PatternNodeId(1)]);
        assert_eq!(a_step.candidate_bound, 21); // 7 keys × 3 answers

        // The reverse schema (global(a), a → (b, N)) covers b only for
        // isomorphism, not for simulation.
        let reverse = AccessSchema::from_constraints([
            AccessConstraint::global(la, 7),
            AccessConstraint::unary(la, lb, 3),
        ]);
        assert!(plan_query(&q, &reverse, Semantics::Isomorphism).is_ok());
        assert!(plan_query(&q, &reverse, Semantics::Simulation).is_err());
    }

    #[test]
    fn deterministic_plans() {
        let (q, a) = q0_setup();
        let p1 = plan_query(&q, &a, Semantics::Isomorphism).unwrap();
        let p2 = plan_query(&q, &a, Semantics::Isomorphism).unwrap();
        assert_eq!(p1, p2);
    }
}
