//! Indices backing access constraints.
//!
//! For a constraint `S → (l, N)` the paper requires an index that, given any
//! `S`-labeled node set `V_S`, returns all common neighbors of `V_S` labeled
//! `l` in `O(N)` time. [`ConstraintIndex`] realizes that contract, and
//! [`AccessIndexSet`] packs one index per constraint of a schema. Each kind
//! of constraint keeps its entries where they are cheapest to keep:
//!
//! * a **global** constraint `∅ → (l, N)` has one key, the empty set, whose
//!   answers — every `l`-labeled node — are the graph's own label bucket
//!   ([`Graph::nodes_with_label`]);
//! * a **unary** constraint `l' → (l, N)` — a per-node degree bound, the
//!   commonest kind — is answered by the graph's rows. Adjacency rows are
//!   sorted by `(neighbour label, id)`, so the answers of an `l'`-node `o`
//!   are the `l`-segment of its out-row and the `l`-segment of its in-row,
//!   found by binary search and merged as they are read
//!   ([`Graph::neighbors_labeled`]);
//! * an **`|S| ≥ 2`** constraint is keyed by a sorted node-id tuple: slot
//!   `k[0]` of an array holds the keys whose smallest id is `k[0]`, sorted,
//!   each with its answers, and a second array lists, per target node, the
//!   keys it is listed under and whether its enumeration hit the cap.
//!
//! A global or unary index holds a handle on the graph version it describes
//! and nothing else, and never truncates: every commit maintains the
//! graph's buckets and rows, so the index costs nothing to keep, and a
//! snapshot stores nothing of it but its cap.
//!
//! The experiments of the paper build these indices as MySQL tables; here
//! they are in-memory structures with the same asymptotic access contract,
//! plus size accounting used to reproduce the `|index_Q|/|G|` measurements of
//! Fig. 5(d,h,l). A global or unary index's size counts the entries it
//! answers, as a table would hold them, though it stores none.
//!
//! **Storage is structurally shared.** An [`AccessIndexSet`] holds each
//! [`ConstraintIndex`] behind an `Arc`, and an `|S| ≥ 2` index keeps all of
//! its per-entry state in copy-on-write pages, the leaves of
//! [`bgpq_graph::Spine`]s, in the one copy-on-write array of the workspace,
//! [`PagedVec`], addressed by node id. Cloning a set costs one
//! reference-count bump per constraint; maintaining the clone un-shares only
//! the constraints a delta touches — one bump per
//! [`bgpq_graph::SPINE_FANOUT`] pages ([`ConstraintIndex::spines`]), no copy
//! sized by the index's content — and inside those copies only the pages
//! the changed node ids fall in. A global or unary index shares the graph's
//! own pages. That is what lets the serving layer publish a new snapshot per
//! commit at `O(|ΔG|)` cost while readers keep the old one.
//!
//! **An `|S| ≥ 2` entry is two shared id lists.** A key and its answers
//! are each an `Arc<[NodeId]>`; the key's list is shared by its slot and by
//! every target listing it. An edit rebuilds the one answer list it
//! changes, at most `N` ids under a graph that satisfies the constraint.
//!
//! **A global or unary build is a handle.** The graph builder's row sort
//! did the paper's preprocessing. The figures an index reports about its
//! entries — `max_cardinality`, `key_count`, `size` — are read when asked:
//! a global index's from its bucket's length, a unary index's from the
//! `answer_lengths` entry of its label pair in the graph's statistics
//! ([`Graph::stats`], one pass per graph version, shared by its clones, the
//! pass schema discovery makes too), and an `|S| ≥ 2` index's by walking
//! its keys. Only offline callers ask — discovery, `check_schema`, reports
//! — so a commit keeps no such figures. Snapshot decoding fills the
//! `|S| ≥ 2` arrays from the entries it reads, which come in key order.
//! Maintenance edits entries one at a time; `|S| ≥ 2` indices enumerate
//! their combinations per target, in the build too.

use crate::constraint::{AccessConstraint, ConstraintId};
use crate::schema::AccessSchema;
use bgpq_graph::{Graph, Label, Neighbors, NodeId, PagedVec, SpineShape};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Upper bound on the number of `S`-labeled combinations materialized per
/// target node of an `|S| ≥ 2` constraint. Real access constraints have
/// small source fanouts (a movie has one year and one award), so this cap
/// exists only as a safety valve against degenerate schemas; hitting it
/// marks the index as truncated. Global and unary indices never truncate.
pub const DEFAULT_MAX_COMBINATIONS_PER_NODE: usize = 4096;

/// The index of a single access constraint.
#[derive(Debug, Clone)]
pub struct ConstraintIndex {
    pub(crate) constraint: AccessConstraint,
    entries: Entries,
    /// The per-node combination cap this index was built with. Incremental
    /// maintenance reuses it so refreshed contributions are enumerated
    /// exactly like a fresh build's; only `|S| ≥ 2` indices enumerate.
    cap: usize,
}

/// Where an index keeps its entries, chosen by `|S|`.
#[derive(Debug, Clone)]
enum Entries {
    /// `|S| ≤ 1`: the graph, whose label bucket is the global key's answer
    /// list and whose rows hold every unary answer list.
    Graph(GraphHandle),
    /// `|S| ≥ 2`.
    ByFirst(ByFirst),
}

/// The graph version a global or unary index answers from, shared with its
/// owner.
#[derive(Clone)]
struct GraphHandle(Arc<Graph>);

impl fmt::Debug for GraphHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GraphHandle({})", self.0)
    }
}

/// A sorted id list of an `|S| ≥ 2` index, a key or its answers.
type List = Arc<[NodeId]>;

/// An `|S| ≥ 2` index: arrays addressed by node id.
#[derive(Debug, Clone, Default)]
struct ByFirst {
    /// Node `v` → the keys whose smallest id is `v`, each with its sorted
    /// answers (never empty), in increasing key order.
    keys: PagedVec<Vec<(List, List)>>,
    /// Target node → what removing its contribution needs.
    targets: PagedVec<Listing>,
    /// Number of targets whose listing is capped.
    capped: usize,
}

/// The contribution of one target node to an `|S| ≥ 2` index.
#[derive(Debug, Clone, Default)]
struct Listing {
    /// The keys the target is listed under (at most `cap` of them), each
    /// sharing its slot's list.
    keys: Vec<List>,
    /// True when the target's combination enumeration hit the cap. Kept per
    /// node (not as a sticky flag) so that maintenance removing or
    /// repairing a capped node's contribution leaves the truncation verdict
    /// exactly where a fresh rebuild would put it.
    capped: bool,
}

impl ByFirst {
    /// The answers of `key` (strictly increasing), empty when it is not
    /// indexed.
    fn answers(&self, key: &[NodeId]) -> &[NodeId] {
        let Some(slot) = key.first().and_then(|first| self.keys.get(first.index())) else {
            return &[];
        };
        match slot.binary_search_by(|(k, _)| k[..].cmp(key)) {
            Ok(i) => &slot[i].1,
            Err(_) => &[],
        }
    }

    /// Lists `target` under `key` (strictly increasing), the key inserted
    /// when it is new. Returns the key's list, or `None`, copying nothing,
    /// when `target` is listed already.
    fn insert(&mut self, key: &[NodeId], target: NodeId) -> Option<List> {
        let at = self.answers(key).binary_search(&target).err()?;
        let slot = self.keys.make_mut(key[0].index());
        let i = slot
            .binary_search_by(|(k, _)| k[..].cmp(key))
            .unwrap_or_else(|i| {
                slot.insert(i, (List::from(key), List::from([])));
                i
            });
        let (key, answers) = &mut slot[i];
        let (before, after) = answers.split_at(at);
        *answers = [before, &[target], after].concat().into();
        Some(Arc::clone(key))
    }

    /// Unlists `target` from `key` (strictly increasing), dropping a key
    /// left without answers; copies nothing when `target` is not listed.
    fn remove(&mut self, key: &[NodeId], target: NodeId) {
        let Ok(at) = self.answers(key).binary_search(&target) else {
            return;
        };
        let slot = self.keys.make_mut(key[0].index());
        let i = slot.binary_search_by(|(k, _)| k[..].cmp(key));
        let i = i.expect("the key is indexed");
        let answers = &slot[i].1;
        if answers.len() == 1 {
            slot.remove(i);
        } else {
            slot[i].1 = [&answers[..at], &answers[at + 1..]].concat().into();
        }
    }

    fn listing(&self, target: NodeId) -> Option<&Listing> {
        self.targets.get(target.index())
    }

    /// Takes `target`'s listing out, leaving it empty; writes nothing when
    /// it already is.
    fn unlist(&mut self, target: NodeId) -> Vec<List> {
        let listed = self.listing(target);
        if !listed.is_some_and(|listing| listing.capped || !listing.keys.is_empty()) {
            return Vec::new();
        }
        let listing = std::mem::take(self.targets.make_mut(target.index()));
        self.capped -= usize::from(listing.capped);
        listing.keys
    }
}

/// Shape and copy counters of one page array: `(shape, pages copied,
/// groups copied)`.
fn array_stats<T: Clone + Default>(array: &PagedVec<T>) -> (SpineShape, u64, u64) {
    let pages = array.pages();
    (pages.shape(), pages.leaves_copied(), pages.groups_copied())
}

impl ConstraintIndex {
    /// Builds the index for `constraint` over `graph`.
    pub fn build(graph: &Graph, constraint: AccessConstraint) -> Self {
        Self::build_with_cap(graph, constraint, DEFAULT_MAX_COMBINATIONS_PER_NODE)
    }

    /// Builds the index with an explicit combination cap per target node
    /// (it bounds only the enumeration of an `|S| ≥ 2` index).
    pub fn build_with_cap(graph: &Graph, constraint: AccessConstraint, cap: usize) -> Self {
        if constraint.source_len() <= 1 {
            return Self::on_graph(Arc::new(graph.clone()), constraint, cap);
        }
        let mut index = Self::empty(constraint, cap);
        for &v in graph.nodes_with_label(index.constraint.target()) {
            index.refresh_target(graph, v);
        }
        index
    }

    /// The global or unary index answering from `graph` (the build, and a
    /// snapshot load).
    pub(crate) fn on_graph(graph: Arc<Graph>, constraint: AccessConstraint, cap: usize) -> Self {
        debug_assert!(constraint.source_len() <= 1, "{constraint} has no graph");
        Self::with_entries(constraint, cap, Entries::Graph(GraphHandle(graph)))
    }

    /// The `|S| ≥ 2` index holding `spans` — each a key and then its
    /// answers in the flat `ids` list, as `ids[start..mid]` and
    /// `ids[mid..end]`, keys strictly increasing and both lists sorted
    /// strictly — with its per-target bookkeeping derived from them and
    /// `capped` as its capped targets (snapshot load). The spans are
    /// drained. A global or unary index loads as
    /// [`ConstraintIndex::on_graph`] instead.
    pub(crate) fn from_entries(
        constraint: AccessConstraint,
        cap: usize,
        capped: Vec<NodeId>,
        ids: &[NodeId],
        spans: &mut Vec<(usize, usize, usize)>,
    ) -> Self {
        // Keys come in increasing order, so their first ids never decrease
        // and every slot is written in order.
        let mut by_first = ByFirst {
            capped: capped.len(),
            ..ByFirst::default()
        };
        for (start, mid, end) in spans.drain(..) {
            let key = List::from(&ids[start..mid]);
            for &t in &ids[mid..end] {
                let listing = by_first.targets.make_mut(t.index());
                listing.keys.push(Arc::clone(&key));
            }
            let slot = by_first.keys.make_mut(ids[start].index());
            slot.push((key, List::from(&ids[mid..end])));
        }
        for t in capped {
            by_first.targets.make_mut(t.index()).capped = true;
        }
        Self::with_entries(constraint, cap, Entries::ByFirst(by_first))
    }

    /// An `|S| ≥ 2` index with no entries.
    fn empty(constraint: AccessConstraint, cap: usize) -> Self {
        debug_assert!(constraint.source_len() >= 2, "{constraint} has a graph");
        Self::with_entries(constraint, cap, Entries::ByFirst(ByFirst::default()))
    }

    fn with_entries(constraint: AccessConstraint, cap: usize, entries: Entries) -> Self {
        ConstraintIndex {
            constraint,
            entries,
            cap,
        }
    }

    /// The constraint this index backs.
    pub fn constraint(&self) -> &AccessConstraint {
        &self.constraint
    }

    /// Common neighbors labeled `l` of the `S`-labeled set `vs`
    /// (order of `vs` does not matter), ascending. Returns an empty list
    /// when the set is not indexed, which for a graph satisfying the
    /// constraint means the answer is empty. A global answer (`vs` empty)
    /// is the graph's label bucket, a unary answer two borrowed segments of
    /// the graph's rows, merged as they are read.
    pub fn common_neighbors(&self, vs: &[NodeId]) -> Neighbors<'_> {
        let target = self.constraint.target();
        match &self.entries {
            // `vs` names no node, or one node once or more.
            Entries::Graph(GraphHandle(graph)) => match (self.constraint.source(), vs) {
                ([], []) => graph.nodes_with_label(target).into(),
                (&[source], [o, rest @ ..])
                    if rest.iter().all(|v| v == o) && graph.try_label(*o) == Some(source) =>
                {
                    graph.neighbors_labeled(*o, target)
                }
                _ => Neighbors::default(),
            },
            // A strictly increasing probe already is its own key: no
            // allocation on the fetch path.
            Entries::ByFirst(by_first) if vs.windows(2).all(|w| w[0] < w[1]) => {
                Neighbors::from(by_first.answers(vs))
            }
            Entries::ByFirst(by_first) => {
                let mut key = vs.to_vec();
                key.sort_unstable();
                key.dedup();
                Neighbors::from(by_first.answers(&key))
            }
        }
    }

    /// Answer-list length → number of keys whose list is that long
    /// (non-empty lists only), read when asked (see the module docs): a
    /// global index's one list is its label bucket, a unary index's lengths
    /// are the graph's statistics, and an `|S| ≥ 2` index walks its keys.
    fn answer_lengths(&self) -> Cow<'_, BTreeMap<usize, usize>> {
        let target = self.constraint.target();
        let graph = match &self.entries {
            Entries::Graph(GraphHandle(graph)) => graph,
            Entries::ByFirst(by_first) => {
                let mut lengths = BTreeMap::new();
                for (_, answers) in by_first.keys.iter().flatten() {
                    *lengths.entry(answers.len()).or_insert(0) += 1;
                }
                return Cow::Owned(lengths);
            }
        };
        match *self.constraint.source() {
            [] => {
                let all = graph.label_count(target);
                Cow::Owned((all > 0).then_some((all, 1)).into_iter().collect())
            }
            [source] => match graph.stats().answer_lengths.get(&(source, target)) {
                Some(lengths) => Cow::Borrowed(lengths),
                None => Cow::Owned(BTreeMap::new()),
            },
            _ => unreachable!("{} is not answered by the graph", self.constraint),
        }
    }

    /// The largest answer set across all indexed keys — the graph satisfies
    /// the cardinality part of the constraint iff this is `≤ N`. Read when
    /// called; always equal to a fresh rebuild's.
    pub fn max_cardinality(&self) -> usize {
        let lengths = self.answer_lengths();
        lengths.keys().next_back().copied().unwrap_or(0)
    }

    /// True when every indexed key respects the bound `N`.
    pub fn within_bound(&self) -> bool {
        self.max_cardinality() <= self.constraint.bound()
    }

    /// True when some target node's combination enumeration hit the cap —
    /// at build time or during an incremental refresh. Only an `|S| ≥ 2`
    /// index enumerates, so only one can be truncated. Maintenance keeps
    /// this exact: deleting or repairing the offending node clears it, just
    /// as a fresh rebuild would.
    pub fn is_truncated(&self) -> bool {
        match &self.entries {
            Entries::Graph(_) => false,
            Entries::ByFirst(by_first) => by_first.capped > 0,
        }
    }

    /// The target nodes whose enumeration hit the cap, sorted.
    pub(crate) fn capped_targets(&self) -> Vec<NodeId> {
        match &self.entries {
            Entries::Graph(_) => Vec::new(),
            Entries::ByFirst(by_first) => {
                let listings = by_first.targets.iter().enumerate();
                let capped = listings.filter(|(_, listing)| listing.capped);
                capped.map(|(t, _)| NodeId(t as u32)).collect()
            }
        }
    }

    /// The per-node combination cap the index was built with (and that
    /// incremental maintenance keeps honoring).
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// True when `target` currently contributes at least one indexed entry —
    /// the probe incremental maintenance uses to decide whether a node that
    /// no longer carries the target label (it was deleted) still needs its
    /// stale contribution removed.
    pub fn has_contribution(&self, target: NodeId) -> bool {
        match &self.entries {
            // In the bucket, or listed under its source-labeled neighbours.
            Entries::Graph(GraphHandle(graph)) => {
                graph.try_label(target) == Some(self.constraint.target())
                    && self
                        .constraint
                        .source()
                        .iter()
                        .all(|&source| !graph.neighbors_labeled(target, source).is_empty())
            }
            Entries::ByFirst(by_first) => by_first
                .listing(target)
                .is_some_and(|listing| !listing.keys.is_empty()),
        }
    }

    /// Number of distinct keys indexed: a global index's one key, the empty
    /// set, always exists.
    pub fn key_count(&self) -> usize {
        match self.constraint.is_global() {
            true => 1,
            false => self.answer_lengths().values().sum(),
        }
    }

    /// Total number of node ids stored (keys plus answers) — the paper's
    /// `|index|` measure for one constraint. Every key holds `|S|` ids.
    pub fn size(&self) -> usize {
        let lengths = self.answer_lengths();
        let keys: usize = lengths.values().sum();
        let answers: usize = lengths.iter().map(|(len, keys)| len * keys).sum();
        keys * self.constraint.source_len() + answers
    }

    /// Iterates over `(key, answers)` pairs in increasing key order. A
    /// global index's one key is empty; a unary index's keys are its
    /// source-labeled nodes with at least one answer, each borrowed from
    /// the graph's label bucket.
    pub fn entries(&self) -> impl Iterator<Item = (&[NodeId], Neighbors<'_>)> {
        let entries: Box<dyn Iterator<Item = _>> = match &self.entries {
            Entries::Graph(GraphHandle(graph)) => graph_entries(graph, &self.constraint),
            Entries::ByFirst(by_first) => {
                let keys = by_first.keys.iter().flatten();
                Box::new(keys.map(|(key, answers)| (&key[..], Neighbors::from(&answers[..]))))
            }
        };
        entries
    }

    /// Bytes this index's storage holds: its pages, the vectors they point
    /// to, and each id list with its reference counts, a key's once however
    /// many listings share it — counted from the storage's shape, not
    /// measured. Shared storage counts in full. A global or unary index
    /// holds none: its answers are the graph's buckets and rows.
    pub fn storage_bytes(&self) -> usize {
        let Entries::ByFirst(by_first) = &self.entries else {
            return 0;
        };
        let list = |ids: &List| 2 * std::mem::size_of::<usize>() + std::mem::size_of_val(&ids[..]);
        let slots = by_first.keys.iter().map(|slot| {
            let lists = slot.iter().map(|(key, answers)| list(key) + list(answers));
            slot.capacity() * std::mem::size_of::<(List, List)>() + lists.sum::<usize>()
        });
        let listings = by_first.targets.iter();
        let listings =
            listings.map(|listing| listing.keys.capacity() * std::mem::size_of::<List>());
        by_first.keys.storage_bytes()
            + slots.sum::<usize>()
            + by_first.targets.storage_bytes()
            + listings.sum::<usize>()
    }

    /// Number of copy-on-write pages the index's storage is spread over.
    pub fn shard_count(&self) -> usize {
        self.spines().iter().map(|spine| spine.leaves).sum()
    }

    /// Shape and copy counters of the page arrays the index keeps: keys and
    /// target listings of an `|S| ≥ 2` index, none for a global or unary
    /// one.
    fn arrays(&self) -> Vec<(SpineShape, u64, u64)> {
        match &self.entries {
            Entries::Graph(_) => Vec::new(),
            Entries::ByFirst(by_first) => {
                vec![array_stats(&by_first.keys), array_stats(&by_first.targets)]
            }
        }
    }

    /// The shapes of the spines un-sharing this index walks (see
    /// `arrays`). The sum of their `groups` is the number of reference
    /// counts that costs.
    pub fn spines(&self) -> Vec<SpineShape> {
        self.arrays().into_iter().map(|(shape, ..)| shape).collect()
    }

    /// Pages copied because a write found them still shared with another
    /// clone of this index. The count is inherited by clones, so the copy
    /// work of one maintenance call is the difference across it. A global
    /// or unary index keeps no pages; the graph counts the pages and chunks
    /// its commit copies.
    pub fn shards_copied(&self) -> u64 {
        self.arrays().iter().map(|&(_, pages, _)| pages).sum()
    }

    /// Groups of page pointers copied on write, counted like
    /// [`ConstraintIndex::shards_copied`].
    pub fn groups_copied(&self) -> u64 {
        self.arrays().iter().map(|&(_, _, groups)| groups).sum()
    }

    /// The entries of an `|S| ≥ 2` index, to edit.
    fn by_first(&mut self) -> &mut ByFirst {
        match &mut self.entries {
            Entries::ByFirst(by_first) => by_first,
            Entries::Graph(_) => unreachable!("{} is answered by the graph", self.constraint),
        }
    }

    /// Brings the contribution of `target` to an `|S| ≥ 2` index — every
    /// entry listing it — to what a fresh build over `graph` would hold,
    /// under the index's own combination cap: its keys are enumerated again
    /// and compared with the keys it is listed under, and only the entries
    /// it joined or left are edited. Deleted nodes end with no
    /// contribution: a tombstoned slot's label matches no constraint target.
    pub(crate) fn refresh_target(&mut self, graph: &Graph, target: NodeId) {
        let mut listed = self.by_first().unlist(target);
        let (mut keys, capped) = self.combinations(graph, target);
        listed.sort_unstable();
        keys.sort_unstable();
        for key in &listed {
            if keys.binary_search_by(|k| k[..].cmp(key)).is_err() {
                self.by_first().remove(key, target);
            }
        }
        let mut lists = Vec::with_capacity(keys.len());
        for key in keys {
            match listed.binary_search_by(|k| k[..].cmp(&key)) {
                Ok(i) => lists.push(Arc::clone(&listed[i])),
                Err(_) => lists.extend(self.by_first().insert(&key, target)),
            }
        }
        if capped || !lists.is_empty() {
            let by_first = self.by_first();
            by_first.capped += usize::from(capped);
            let listing = Listing {
                keys: lists,
                capped,
            };
            *by_first.targets.make_mut(target.index()) = listing;
        }
    }

    /// Moves a global or unary index to `graph`, the version after a batch
    /// of deltas that touched the nodes `touched` (sorted, each once).
    /// Returns the number of touched nodes carrying the keyed label — the
    /// source label of a unary index, the target label of a global one —
    /// before or after: the contributions the move refreshed.
    pub(crate) fn move_to(&mut self, graph: &Arc<Graph>, touched: &[NodeId]) -> usize {
        let Entries::Graph(GraphHandle(held)) = &mut self.entries else {
            unreachable!("{} has no graph", self.constraint)
        };
        let old = std::mem::replace(held, Arc::clone(graph));
        let source = self.constraint.source().first().copied();
        let keyed = source.unwrap_or(self.constraint.target());
        let carries = |g: &Graph, o: NodeId| g.try_label(o) == Some(keyed);
        let moved = touched
            .iter()
            .filter(|&&o| carries(&old, o) || carries(graph, o));
        moved.count()
    }

    /// The keys of `target` in an `|S| ≥ 2` index over `graph`, each sorted:
    /// every `S`-labeled combination of its neighbors, up to the cap, and
    /// whether the cap cut them short. None when `target` does not carry
    /// the target label.
    fn combinations(&self, graph: &Graph, target: NodeId) -> (Vec<Vec<NodeId>>, bool) {
        if graph.try_label(target) != Some(self.constraint.target()) {
            return (Vec::new(), false);
        }
        // The target's neighbors carrying each source label of the
        // constraint: one run of its label-grouped neighbors each.
        let mut per_label: Vec<Vec<NodeId>> = vec![Vec::new(); self.constraint.source_len()];
        for (label, run) in graph.neighbor_runs(target) {
            if let Ok(pos) = self.constraint.source().binary_search(&label) {
                per_label[pos].extend(run);
            }
        }
        if per_label.iter().any(Vec::is_empty) {
            return (Vec::new(), false); // `target` has no S-labeled neighbor set.
        }
        let mut capped = false;
        let mut combos: Vec<Vec<NodeId>> = vec![Vec::new()];
        for bucket in &per_label {
            let mut next = Vec::with_capacity(combos.len() * bucket.len());
            'outer: for combo in &combos {
                for &candidate in bucket {
                    if combo.contains(&candidate) {
                        // A node cannot play two roles in the same S-labeled
                        // set (|V_S| = |S| requires distinct nodes).
                        continue;
                    }
                    let mut extended = combo.clone();
                    extended.push(candidate);
                    next.push(extended);
                    if next.len() >= self.cap {
                        capped = true;
                        break 'outer;
                    }
                }
            }
            combos = next;
            if combos.is_empty() {
                break;
            }
        }
        for key in &mut combos {
            key.sort_unstable();
        }
        (combos, capped)
    }
}

/// The entries of the global or unary index of `constraint` over `graph`,
/// by key: a global index's one key, the empty set, with its label bucket,
/// or every source-labelled node with at least one answer, ascending, and
/// its answers.
fn graph_entries<'g>(
    graph: &'g Graph,
    constraint: &AccessConstraint,
) -> Box<dyn Iterator<Item = (&'g [NodeId], Neighbors<'g>)> + 'g> {
    let target = constraint.target();
    match *constraint.source() {
        [] => Box::new(std::iter::once((
            &[][..],
            graph.nodes_with_label(target).into(),
        ))),
        [source] => {
            let sources = graph.nodes_with_label(source).into_iter();
            Box::new(sources.filter_map(move |o| {
                let answers = graph.neighbors_labeled(*o, target);
                (!answers.is_empty()).then_some((std::slice::from_ref(o), answers))
            }))
        }
        _ => unreachable!("{constraint} is not answered by the graph"),
    }
}

/// One [`ConstraintIndex`] per constraint of an [`AccessSchema`].
///
/// Cloning is `O(||A||)`: the schema and every index are shared, and
/// maintenance un-shares only the indices it changes.
#[derive(Debug, Clone)]
pub struct AccessIndexSet {
    pub(crate) schema: Arc<AccessSchema>,
    pub(crate) indices: Vec<Arc<ConstraintIndex>>,
}

impl AccessIndexSet {
    /// Builds all indices for `schema` over `graph`.
    pub fn build(graph: &Graph, schema: &AccessSchema) -> Self {
        Self::build_with_cap(graph, schema, DEFAULT_MAX_COMBINATIONS_PER_NODE)
    }

    /// Builds all indices with an explicit per-node combination cap. The cap
    /// is remembered by every index, so incremental maintenance refreshes
    /// contributions under the same cap as a fresh build.
    ///
    /// The global and unary indices share one handle on `graph`, whose
    /// statistics pass — which schema discovery has usually made already —
    /// the unary ones read their cardinality figures from when asked.
    pub fn build_with_cap(graph: &Graph, schema: &AccessSchema, cap: usize) -> Self {
        let mut shared: Option<Arc<Graph>> = None;
        let indices = schema
            .iter()
            .map(|constraint| match constraint.source_len() {
                0 | 1 => {
                    let graph = shared.get_or_insert_with(|| Arc::new(graph.clone()));
                    ConstraintIndex::on_graph(Arc::clone(graph), constraint.clone(), cap)
                }
                _ => ConstraintIndex::build_with_cap(graph, constraint.clone(), cap),
            });
        let indices = indices.collect();
        Self::from_indices(schema.clone(), indices)
    }

    /// Packs already-built indices, one per constraint of `schema`, in order.
    pub(crate) fn from_indices(schema: AccessSchema, indices: Vec<ConstraintIndex>) -> Self {
        debug_assert_eq!(schema.len(), indices.len());
        AccessIndexSet {
            schema: Arc::new(schema),
            indices: indices.into_iter().map(Arc::new).collect(),
        }
    }

    /// The schema these indices back.
    pub fn schema(&self) -> &AccessSchema {
        &self.schema
    }

    /// The index for constraint `id`.
    pub fn get(&self, id: ConstraintId) -> Option<&ConstraintIndex> {
        self.indices.get(id.index()).map(|index| &**index)
    }

    /// Iterates over `(id, index)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ConstraintId, &ConstraintIndex)> {
        self.indices
            .iter()
            .enumerate()
            .map(|(i, idx)| (ConstraintId(i as u32), &**idx))
    }

    /// Number of indices (equals `||A||`).
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True when the schema is empty.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Sum of the sizes of all indices — the `|index|` of the whole schema.
    pub fn total_size(&self) -> usize {
        self.iter().map(|(_, index)| index.size()).sum()
    }

    /// Bytes the indices' storage holds (see
    /// [`ConstraintIndex::storage_bytes`]): a deterministic count, the same
    /// for the same graph and schema on every run.
    pub fn storage_bytes(&self) -> usize {
        self.iter().map(|(_, index)| index.storage_bytes()).sum()
    }

    /// Index pages copied by maintenance along this set's clone
    /// lineage (see [`ConstraintIndex::shards_copied`]): the copy work of
    /// one commit is the difference between the new snapshot's count and
    /// its base's.
    pub fn shards_copied(&self) -> u64 {
        self.iter().map(|(_, index)| index.shards_copied()).sum()
    }

    /// Groups of page pointers copied by maintenance along this
    /// set's clone lineage (see [`ConstraintIndex::groups_copied`]).
    pub fn groups_copied(&self) -> u64 {
        self.iter().map(|(_, index)| index.groups_copied()).sum()
    }

    /// Sum of the sizes of the indices identified by `ids` — the paper's
    /// `|index_Q|`: only the indices a query plan actually uses.
    pub fn size_of(&self, ids: impl IntoIterator<Item = ConstraintId>) -> usize {
        ids.into_iter()
            .filter_map(|id| self.get(id))
            .map(ConstraintIndex::size)
            .sum()
    }

    /// Finds a constraint with exactly the given source label set and target
    /// label, preferring the tightest bound.
    pub fn find_exact(&self, source: &[Label], target: Label) -> Option<ConstraintId> {
        let mut key: Vec<Label> = source.to_vec();
        key.sort_unstable();
        key.dedup();
        self.schema
            .iter_with_ids()
            .filter(|(_, c)| c.source() == key.as_slice() && c.target() == target)
            .min_by_key(|(_, c)| c.bound())
            .map(|(id, _)| id)
    }

    /// Finds the tightest global constraint on `target`.
    pub fn find_global(&self, target: Label) -> Option<ConstraintId> {
        self.schema
            .iter_with_ids()
            .filter(|(_, c)| c.is_global() && c.target() == target)
            .min_by_key(|(_, c)| c.bound())
            .map(|(id, _)| id)
    }

    /// True when every index respects its cardinality bound, i.e. the
    /// indexed graph satisfies the cardinality part of the schema.
    pub fn within_bounds(&self) -> bool {
        self.iter().all(|(_, index)| index.within_bound())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpq_graph::{GraphBuilder, Value};

    /// Two (year, award) pairs each pointing at movies, movies pointing at
    /// actors, actors at one country.
    fn imdb_toy() -> (Graph, Label, Label, Label, Label, Label) {
        let mut b = GraphBuilder::new();
        let year_l = b.intern_label("year");
        let award_l = b.intern_label("award");
        let movie_l = b.intern_label("movie");
        let actor_l = b.intern_label("actor");
        let country_l = b.intern_label("country");

        let y1 = b.add_node("year", Value::Int(2011));
        let y2 = b.add_node("year", Value::Int(2012));
        let a1 = b.add_node("award", Value::str("Oscar"));
        let us = b.add_node("country", Value::str("US"));
        for i in 0..3 {
            let m = b.add_node("movie", Value::Int(i));
            let y = if i % 2 == 0 { y1 } else { y2 };
            b.add_edge(y, m).unwrap();
            b.add_edge(a1, m).unwrap();
            for j in 0..2 {
                let act = b.add_node("actor", Value::Int(10 * i + j));
                b.add_edge(m, act).unwrap();
                b.add_edge(act, us).unwrap();
            }
        }
        (b.build(), year_l, award_l, movie_l, actor_l, country_l)
    }

    #[test]
    fn global_index_lists_all_labeled_nodes() {
        let (g, year_l, ..) = imdb_toy();
        let idx = ConstraintIndex::build(&g, AccessConstraint::global(year_l, 135));
        assert_eq!(idx.common_neighbors(&[]).len(), 2);
        assert_eq!(idx.storage_bytes(), 0);
        assert_eq!(idx.max_cardinality(), 2);
        assert!(idx.within_bound());
        assert_eq!(idx.key_count(), 1);
        assert!(!idx.is_truncated());
    }

    #[test]
    fn unary_index_maps_each_source_node() {
        let (g, _, _, movie_l, actor_l, _) = imdb_toy();
        let idx = ConstraintIndex::build(&g, AccessConstraint::unary(movie_l, actor_l, 30));
        // Every movie has exactly 2 actors.
        for &m in g.nodes_with_label(movie_l) {
            let actors = idx.common_neighbors(&[m]);
            assert_eq!(actors.len(), 2);
            for a in actors {
                assert!(g.are_neighbors(m, a));
                assert_eq!(g.label(a), actor_l);
            }
        }
        assert_eq!(idx.max_cardinality(), 2);
        assert!(idx.within_bound());
    }

    #[test]
    fn general_index_on_pairs() {
        let (g, year_l, award_l, movie_l, ..) = imdb_toy();
        let idx = ConstraintIndex::build(&g, AccessConstraint::new([year_l, award_l], movie_l, 4));
        let years = g.nodes_with_label(year_l).to_vec();
        let awards = g.nodes_with_label(award_l).to_vec();
        // (y1, a1) has movies 0 and 2; (y2, a1) has movie 1.
        let m_y1 = idx.common_neighbors(&[years[0], awards[0]]).to_vec();
        let m_y2 = idx.common_neighbors(&[years[1], awards[0]]).to_vec();
        assert_eq!(m_y1.len(), 2);
        assert_eq!(m_y2.len(), 1);
        // Order of the lookup key must not matter.
        assert_eq!(
            idx.common_neighbors(&[awards[0], years[0]]),
            idx.common_neighbors(&[years[0], awards[0]])
        );
        assert!(!m_y2.contains(&m_y1[0]));
        assert_eq!(idx.max_cardinality(), 2);
        assert!(idx.within_bound());
    }

    #[test]
    fn lookup_of_unindexed_set_is_empty() {
        let (g, year_l, _, movie_l, actor_l, _) = imdb_toy();
        let idx = ConstraintIndex::build(&g, AccessConstraint::unary(year_l, movie_l, 10));
        // An actor node is not a valid S-labeled set for this constraint.
        let actor = *g.nodes_with_label(actor_l).first().unwrap();
        assert!(idx.common_neighbors(&[actor]).is_empty());
    }

    #[test]
    fn index_size_accounts_keys_and_answers() {
        let (g, _, _, movie_l, actor_l, _) = imdb_toy();
        let idx = ConstraintIndex::build(&g, AccessConstraint::unary(movie_l, actor_l, 30));
        // 3 movie keys (1 node each) + 6 actor answers = 9.
        assert_eq!(idx.size(), 9);
        assert_eq!(idx.entries().count(), 3);
    }

    #[test]
    fn duplicate_labels_in_key_are_deduplicated() {
        let (g, _, _, movie_l, actor_l, country_l) = imdb_toy();
        // Constraint (actor, actor) collapses to {actor}: the index behaves
        // like a unary constraint.
        let idx =
            ConstraintIndex::build(&g, AccessConstraint::new([actor_l, actor_l], country_l, 10));
        let a = *g.nodes_with_label(actor_l).first().unwrap();
        assert_eq!(idx.common_neighbors(&[a, a]).len(), 1);
        assert_eq!(idx.constraint().source_len(), 1);
        let _ = movie_l;
    }

    #[test]
    fn index_set_builds_one_index_per_constraint() {
        let (g, year_l, award_l, movie_l, actor_l, country_l) = imdb_toy();
        let schema = AccessSchema::from_constraints([
            AccessConstraint::new([year_l, award_l], movie_l, 4),
            AccessConstraint::unary(movie_l, actor_l, 30),
            AccessConstraint::unary(actor_l, country_l, 1),
            AccessConstraint::global(year_l, 135),
        ]);
        let set = AccessIndexSet::build(&g, &schema);
        assert_eq!(set.len(), 4);
        assert!(!set.is_empty());
        assert!(set.within_bounds());
        assert!(set.total_size() > 0);
        assert_eq!(
            set.size_of([ConstraintId(3)]),
            set.get(ConstraintId(3)).unwrap().size()
        );
        assert_eq!(set.schema().len(), 4);

        // find_exact and find_global locate constraints irrespective of order.
        assert_eq!(
            set.find_exact(&[award_l, year_l], movie_l),
            Some(ConstraintId(0))
        );
        assert_eq!(set.find_exact(&[movie_l], actor_l), Some(ConstraintId(1)));
        assert_eq!(set.find_exact(&[movie_l], country_l), None);
        assert_eq!(set.find_global(year_l), Some(ConstraintId(3)));
        assert_eq!(set.find_global(movie_l), None);
    }

    #[test]
    fn find_exact_prefers_tightest_bound() {
        let (g, year_l, _, movie_l, ..) = imdb_toy();
        let schema = AccessSchema::from_constraints([
            AccessConstraint::unary(year_l, movie_l, 100),
            AccessConstraint::unary(year_l, movie_l, 5),
        ]);
        let set = AccessIndexSet::build(&g, &schema);
        assert_eq!(set.find_exact(&[year_l], movie_l), Some(ConstraintId(1)));
    }

    #[test]
    fn violated_bound_is_detected() {
        let (g, _, _, movie_l, actor_l, _) = imdb_toy();
        // Claim every movie has at most 1 actor — false (they have 2).
        let idx = ConstraintIndex::build(&g, AccessConstraint::unary(movie_l, actor_l, 1));
        assert!(!idx.within_bound());
        assert_eq!(idx.max_cardinality(), 2);
    }

    /// Maintenance replayed on every target-labeled node of an empty index:
    /// the oracle a bulk build must equal. A global or unary index has no
    /// entries to replay (its answers are the graph's bucket and rows): its
    /// oracle is its build, one constraint alone.
    fn replayed(graph: &Graph, constraint: AccessConstraint, cap: usize) -> ConstraintIndex {
        if constraint.source_len() <= 1 {
            return ConstraintIndex::build_with_cap(graph, constraint, cap);
        }
        let target = constraint.target();
        let mut index = ConstraintIndex::empty(constraint, cap);
        for &v in graph.nodes_with_label(target) {
            index.refresh_target(graph, v);
        }
        index
    }

    /// `a` and `b` hold the same entries and answer every question about
    /// them alike: counts, cardinality, truncation, and per node of `graph`
    /// its contribution.
    fn assert_same_content(a: &ConstraintIndex, b: &ConstraintIndex, graph: &Graph, ctx: &str) {
        assert!(a.entries().eq(b.entries()), "entries ({ctx})");
        // The figures read off the graph's statistics or bucket are those
        // of the entries themselves.
        let (mut keys, mut largest, mut ids) = (0, 0, 0);
        for (key, answers) in a.entries() {
            (keys, largest) = (keys + 1, largest.max(answers.len()));
            ids += key.len() + answers.len();
        }
        assert_eq!(a.max_cardinality(), largest, "max of the entries ({ctx})");
        assert_eq!(a.key_count(), keys, "entry count ({ctx})");
        assert_eq!(a.size(), ids, "ids of the entries ({ctx})");
        assert_eq!(a.max_cardinality(), b.max_cardinality(), "max ({ctx})");
        assert_eq!(a.is_truncated(), b.is_truncated(), "truncated ({ctx})");
        assert_eq!(a.key_count(), b.key_count(), "key count ({ctx})");
        assert_eq!(a.size(), b.size(), "size ({ctx})");
        let (capped_a, capped_b) = (a.capped_targets(), b.capped_targets());
        assert_eq!(capped_a, capped_b, "capped targets ({ctx})");
        for v in graph.nodes() {
            let state = |i: &ConstraintIndex| i.has_contribution(v);
            assert_eq!(state(a), state(b), "node {v} ({ctx})");
        }
    }

    /// [`assert_same_content`], and the same storage shape.
    fn assert_same_index(a: &ConstraintIndex, b: &ConstraintIndex, graph: &Graph, ctx: &str) {
        assert_same_content(a, b, graph, ctx);
        assert_eq!(a.spines(), b.spines(), "spines ({ctx})");
    }

    /// A random graph over three labels, self-loops and repeated edges
    /// included, with a few nodes deleted, and a fourth label on no node.
    /// One in eight is large enough to spread its arrays over several pages.
    fn random_graph(rng: &mut bgpq_pattern::DetRng) -> Graph {
        let mut b = GraphBuilder::new();
        b.intern_label("ghost");
        let n = if rng.random_range(0..8) == 0 {
            rng.random_range(300..800)
        } else {
            rng.random_range(10..60)
        };
        for _ in 0..n {
            b.add_node(["a", "b", "c"][rng.random_range(0..3)], Value::Null);
        }
        // Low ids are hubs, so caps of 1 and 2 bite.
        for _ in 0..rng.random_range(0..4 * n) {
            let hub = NodeId(rng.random_range(0..n.min(4)) as u32);
            let other = NodeId(rng.random_range(0..n) as u32);
            let (src, dst) = if rng.random_bool(0.5) {
                (hub, other)
            } else {
                (other, hub)
            };
            b.add_edge(src, dst).unwrap();
            let (x, y) = (rng.random_range(0..n), rng.random_range(0..n));
            b.add_edge(NodeId(x as u32), NodeId(y as u32)).unwrap();
        }
        let mut g = b.build();
        for _ in 0..rng.random_range(0..4) {
            let v = NodeId(rng.random_range(0..n) as u32);
            if g.is_live(v) {
                g.delete_node(v).unwrap();
            }
        }
        g
    }

    /// Global and unary indices built alone equal those built as a set,
    /// where they share one graph handle (four unary targets per source,
    /// one of them at two bounds), and stay equal to their replay — a
    /// build alone on the new graph — through one batch of maintenance.
    #[test]
    fn bulk_build_equals_maintenance_replay() {
        use crate::maintenance::{apply_deltas, GraphDelta};
        for seed in 0..60 {
            let mut rng = bgpq_pattern::DetRng::seed_from_u64(seed);
            let graph = random_graph(&mut rng);
            let labels: Vec<Label> = graph.interner().labels().collect();
            let mut constraints: Vec<AccessConstraint> = labels
                .iter()
                .map(|&l| AccessConstraint::global(l, 8))
                .collect();
            for &s in &labels {
                constraints.extend(labels.iter().map(|&t| AccessConstraint::unary(s, t, 8)));
                // The same pair again, at another bound.
                let t = labels[rng.random_range(0..labels.len())];
                constraints.push(AccessConstraint::unary(s, t, 3));
            }
            // Members of one scan sit anywhere in the schema.
            for i in (1..constraints.len()).rev() {
                constraints.swap(i, rng.random_range(0..i + 1));
            }
            let schema = AccessSchema::from_constraints(constraints.iter().cloned());

            let mut next = graph.clone();
            let mut deltas = Vec::new();
            let live: Vec<NodeId> = next.nodes().filter(|&v| next.is_live(v)).collect();
            for _ in 0..rng.random_range(1..8) {
                let (x, y) = (*rng.choose(&live).unwrap(), *rng.choose(&live).unwrap());
                if !next.is_live(x) || !next.is_live(y) {
                    continue;
                }
                if rng.random_bool(0.3) {
                    if next.delete_edge(x, y).unwrap() {
                        deltas.push(GraphDelta::DeleteEdge(x, y));
                    }
                } else if next.insert_edge(x, y).unwrap() {
                    deltas.push(GraphDelta::InsertEdge(x, y));
                }
            }
            let fresh = next.insert_node("a", Value::Null);
            deltas.push(GraphDelta::InsertNode(fresh));
            next.insert_edge(fresh, live[0]).unwrap();
            deltas.push(GraphDelta::InsertEdge(fresh, live[0]));
            let doomed = *rng.choose(&live).unwrap();
            for e in next.delete_node(doomed).unwrap() {
                deltas.push(GraphDelta::DeleteEdge(e.src, e.dst));
            }
            deltas.push(GraphDelta::DeleteNode(doomed));

            for cap in [usize::MAX, 2, 1] {
                let build = |g: &Graph| {
                    let indices = constraints.iter().map(|c| replayed(g, c.clone(), cap));
                    AccessIndexSet::from_indices(schema.clone(), indices.collect())
                };
                let mut alone = build(&graph);
                let mut shared = AccessIndexSet::build_with_cap(&graph, &schema, cap);
                for (step, g) in [("build", &graph), ("maintained", &next)] {
                    if step == "maintained" {
                        for set in [&mut alone, &mut shared] {
                            apply_deltas(set, g, &deltas);
                        }
                    }
                    let replay = build(g);
                    for (bulk, how) in [(&alone, "alone"), (&shared, "shared")] {
                        for ((id, a), (_, b)) in bulk.iter().zip(replay.iter()) {
                            let c = a.constraint();
                            let ctx = format!("seed {seed}, cap {cap}, {how}, {step}, {id} {c}");
                            assert_same_index(a, b, g, &ctx);
                        }
                    }
                }
            }
        }
    }
    /// A graph whose labels come in runs: a long run fills whole pages, so
    /// an index keyed by another label has blank pages there, and labels
    /// alternate where short runs meet. The lowest ids are hubs.
    fn run_labeled_graph(rng: &mut bgpq_pattern::DetRng) -> Graph {
        let mut b = GraphBuilder::new();
        let n = rng.random_range(300..1400);
        while b.node_count() < n {
            let label = ["a", "b", "c"][rng.random_range(0..3)];
            let run = if rng.random_bool(0.3) {
                rng.random_range(200..600)
            } else {
                rng.random_range(1..6)
            };
            for _ in 0..run {
                b.add_node(label, Value::Null);
            }
        }
        let n = b.node_count();
        for _ in 0..3 * n {
            let hub = NodeId(rng.random_range(0..6) as u32);
            let other = NodeId(rng.random_range(0..n) as u32);
            b.add_edge(hub, other).unwrap();
            let (x, y) = (rng.random_range(0..n), rng.random_range(0..n));
            b.add_edge(NodeId(x as u32), NodeId(y as u32)).unwrap();
        }
        b.build()
    }

    /// One random commit on `graph`, returning its deltas: new nodes (ids
    /// past the end of every array, now and then a page's worth) with a few
    /// edges, edge inserts and deletes among the old nodes, and node
    /// deletions, hubs among them.
    fn random_commit(
        rng: &mut bgpq_pattern::DetRng,
        graph: &mut Graph,
    ) -> Vec<crate::maintenance::GraphDelta> {
        use crate::maintenance::GraphDelta;
        let mut deltas = Vec::new();
        let live: Vec<NodeId> = graph.nodes().filter(|&v| graph.is_live(v)).collect();
        let fresh = if rng.random_bool(0.3) {
            rng.random_range(200..400)
        } else {
            rng.random_range(1..6)
        };
        for _ in 0..fresh {
            let v = graph.insert_node(["a", "b", "c"][rng.random_range(0..3)], Value::Null);
            deltas.push(GraphDelta::InsertNode(v));
            for _ in 0..rng.random_range(0..3) {
                let other = *rng.choose(&live).unwrap();
                let (src, dst) = if rng.random_bool(0.5) {
                    (v, other)
                } else {
                    (other, v)
                };
                if graph.insert_edge(src, dst).unwrap() {
                    deltas.push(GraphDelta::InsertEdge(src, dst));
                }
            }
        }
        for _ in 0..rng.random_range(1..20) {
            let (x, y) = (*rng.choose(&live).unwrap(), *rng.choose(&live).unwrap());
            if rng.random_bool(0.4) {
                if graph.delete_edge(x, y).unwrap() {
                    deltas.push(GraphDelta::DeleteEdge(x, y));
                }
            } else if graph.insert_edge(x, y).unwrap() {
                deltas.push(GraphDelta::InsertEdge(x, y));
            }
        }
        for _ in 0..rng.random_range(0..4) {
            let v = if rng.random_bool(0.2) {
                NodeId(rng.random_range(0..6) as u32)
            } else {
                *rng.choose(&live).unwrap()
            };
            if graph.is_live(v) {
                for e in graph.delete_node(v).unwrap() {
                    deltas.push(GraphDelta::DeleteEdge(e.src, e.dst));
                }
                deltas.push(GraphDelta::DeleteNode(v));
            }
        }
        deltas
    }

    /// The indices of every kind — unary, global and `|S| = 2` — equal the
    /// oracle through a stream of commits, under caps 1, 2 and none (the
    /// cap bounds the `|S| = 2` enumeration only; unary and global indices
    /// never truncate, at any cap): the
    /// maintained indices, maintenance replayed from empty on the new graph,
    /// a fresh build and a snapshot round trip of the maintained set agree
    /// entry by entry and node by node, and the maintained set writes the
    /// fresh build's snapshot bytes. The decoded arrays also take the fresh
    /// build's page layout.
    #[test]
    fn array_indices_equal_the_oracle_through_commits() {
        use crate::maintenance::apply_deltas;
        use crate::snapshot::{read_snapshot, write_snapshot};
        let mut blank_pages_seen = 0;
        for seed in 0..12 {
            let mut rng = bgpq_pattern::DetRng::seed_from_u64(seed ^ 0xA22A);
            let graph = run_labeled_graph(&mut rng);
            let labels: Vec<Label> = graph.interner().labels().collect();
            let pairs = labels
                .iter()
                .flat_map(|&s| labels.iter().map(move |&t| (s, t)));
            let mut constraints: Vec<AccessConstraint> = pairs
                .map(|(s, t)| AccessConstraint::unary(s, t, 8))
                .collect();
            for (i, &t) in labels.iter().enumerate() {
                constraints.push(AccessConstraint::global(t, 8));
                // `{a, b} → c`, `{a, c} → b` and `{b, c} → a`.
                let others = labels.iter().enumerate().filter(|&(j, _)| j != i);
                let source: Vec<Label> = others.map(|(_, &l)| l).collect();
                constraints.push(AccessConstraint::new(source, t, 8));
            }
            let schema = AccessSchema::from_constraints(constraints);
            for cap in [1, 2, usize::MAX] {
                let mut g = graph.clone();
                let mut maintained = AccessIndexSet::build_with_cap(&g, &schema, cap);
                for commit in 0..4 {
                    let deltas = random_commit(&mut rng, &mut g);
                    apply_deltas(&mut maintained, &g, &deltas);
                    let fresh = AccessIndexSet::build_with_cap(&g, &schema, cap);
                    let snapshot = |set: &AccessIndexSet| {
                        let mut bytes = Vec::new();
                        write_snapshot(&g, set, &mut bytes).unwrap();
                        bytes
                    };
                    let written = snapshot(&maintained);
                    let ctx = format!("seed {seed}, cap {cap}, commit {commit}");
                    assert!(written == snapshot(&fresh), "snapshot bytes ({ctx})");
                    let loaded = read_snapshot(std::io::Cursor::new(written)).unwrap();
                    for (id, kept) in maintained.iter() {
                        let ctx = format!("{ctx}, {id} {}", kept.constraint());
                        let oracle = replayed(&g, kept.constraint().clone(), cap);
                        let fresh = fresh.get(id).unwrap();
                        assert_same_content(kept, &oracle, &g, &format!("maintained, {ctx}"));
                        assert_same_content(fresh, &oracle, &g, &format!("fresh, {ctx}"));
                        let decoded = loaded.indices.get(id).unwrap();
                        assert_same_index(decoded, fresh, &g, &format!("decoded, {ctx}"));
                        if let Entries::ByFirst(by_first) = &fresh.entries {
                            let slot = std::mem::size_of::<Vec<(List, List)>>();
                            let dense = by_first.keys.pages().len() * slot * bgpq_graph::PAGE_SIZE;
                            blank_pages_seen += usize::from(by_first.keys.storage_bytes() < dense);
                        }
                    }
                }
            }
        }
        assert!(blank_pages_seen > 0, "no index had blank pages");
    }

    #[test]
    fn combination_cap_marks_truncation() {
        // A hub with many neighbors of two source labels explodes the
        // cartesian product; the cap must kick in.
        let mut b = GraphBuilder::new();
        let hub = b.add_node("hub", Value::Null);
        for i in 0..20 {
            let x = b.add_node("x", Value::Int(i));
            let y = b.add_node("y", Value::Int(i));
            b.add_edge(x, hub).unwrap();
            b.add_edge(y, hub).unwrap();
        }
        let g = b.build();
        let x_l = g.interner().get("x").unwrap();
        let y_l = g.interner().get("y").unwrap();
        let hub_l = g.interner().get("hub").unwrap();
        let idx =
            ConstraintIndex::build_with_cap(&g, AccessConstraint::new([x_l, y_l], hub_l, 1), 50);
        assert!(idx.is_truncated());
        assert!(idx.key_count() <= 50);
    }
}
