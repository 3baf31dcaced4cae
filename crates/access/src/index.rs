//! Indices backing access constraints.
//!
//! For a constraint `S → (l, N)` the paper requires an index that, given any
//! `S`-labeled node set `V_S`, returns all common neighbors of `V_S` labeled
//! `l` in `O(N)` time. [`ConstraintIndex`] realizes that contract with a hash
//! map keyed by the (sorted) node-id tuple of `V_S`; [`AccessIndexSet`] packs
//! one index per constraint of a schema.
//!
//! The experiments of the paper build these indices as MySQL tables; here
//! they are in-memory structures with the same asymptotic access contract,
//! plus size accounting used to reproduce the `|index_Q|/|G|` measurements of
//! Fig. 5(d,h,l).
//!
//! **Storage is structurally shared.** An [`AccessIndexSet`] holds each
//! [`ConstraintIndex`] behind an `Arc`, and an index keeps all of its
//! per-entry state in hash-sharded copy-on-write maps (the `cow_map`
//! module, on [`bgpq_graph::Spine`]). Cloning a set costs one
//! reference-count bump per constraint; maintaining the clone un-shares
//! only the constraints a delta touches — one bump per
//! [`bgpq_graph::SPINE_FANOUT`] shards ([`ConstraintIndex::spines`]), no
//! copy sized by the index's content — and inside those copies only the
//! shards the changed entries hash to. That is what lets the serving layer
//! publish a new snapshot per commit at `O(|ΔG|)` cost while readers keep
//! the old one.
//!
//! **Entries are stored by value.** Every key and every answer list is a
//! [`Row`]: up to five ids inline in the shard's table, a longer list
//! behind one shared buffer. Answer lists are bounded by `N` and keys by
//! `|S|`, so nearly every entry is inline, and a shard copy is one table
//! copy that touches no per-entry heap object; an edit changes its list in
//! place, copying a long one only while a pinned version still shares it.
//!
//! **The build reads each source label once and fills each map in shard
//! order.** [`AccessIndexSet::build_with_cap`] groups the unary
//! constraints by source label and makes one id-order pass over each
//! label's nodes, reading every neighbor's label once and handing the
//! neighbor to each constraint of the group that targets it (one count per
//! node keeps every target's first `cap` sources, as maintenance does).
//! Each constraint collects one flat answer list; its map is then filled
//! shard by shard (`CowMap::from_records`) from compact `(source, start,
//! end)` key records in one buffer the whole group reuses, and so are its
//! key counts. The scan's buffers are allocated at their final capacity
//! and freed before the next group, the largest group first, so that the
//! tables built after them reuse what they freed instead of growing the
//! heap. Snapshot decoding fills the maps the same way from the key-sorted
//! entries it reads. Maintenance edits entries one at a time; `|S| ≥ 2`
//! indices still enumerate their combinations per target and insert key
//! by key.

use crate::constraint::{AccessConstraint, ConstraintId};
use crate::cow_map::{shard_hash, CowMap};
use crate::schema::AccessSchema;
use bgpq_graph::{Graph, Label, NodeId, Row, SpineShape};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Upper bound on the number of `S`-labeled combinations materialized per
/// target node. Real access constraints have small source fanouts (a movie
/// has one year and one award), so this cap exists only as a safety valve
/// against degenerate schemas; hitting it marks the index as truncated.
pub const DEFAULT_MAX_COMBINATIONS_PER_NODE: usize = 4096;

/// The index of a single access constraint.
#[derive(Debug, Clone)]
pub struct ConstraintIndex {
    pub(crate) constraint: AccessConstraint,
    /// Sorted `S`-labeled node tuple → sorted common neighbors labeled `l`.
    /// Global constraints use the empty key (always present).
    map: CowMap<Row, Row>,
    /// Unary constraints: target node → number of keys it is listed under.
    /// Those keys are the target's `S`-labeled neighbors, which maintenance
    /// re-derives from the graph and the delta batch — so a hub target costs
    /// one counter here, not a key list that every edge would rewrite.
    key_counts: CowMap<NodeId, u32>,
    /// Constraints with `|S| ≥ 2`: target node → the keys it is listed
    /// under (at most `cap` of them), for removing its contribution.
    reverse: CowMap<NodeId, Vec<Row>>,
    /// Answer-list length → number of keys whose list is that long
    /// (non-empty lists only); the last entry is the maximum cardinality.
    lengths: BTreeMap<usize, usize>,
    /// Target nodes whose combination enumeration hit the cap. Tracked per
    /// node (not as a sticky flag) so that maintenance removing or repairing
    /// a capped node's contribution leaves the truncation verdict exactly
    /// where a fresh rebuild would put it. A map like the others, so that
    /// un-sharing the index copies none of it.
    pub(crate) capped_targets: CowMap<NodeId, ()>,
    /// The per-node combination cap this index was built with. Incremental
    /// maintenance reuses it so refreshed contributions are enumerated
    /// exactly like a fresh build's.
    cap: usize,
}

impl ConstraintIndex {
    /// Builds the index for `constraint` over `graph`.
    pub fn build(graph: &Graph, constraint: AccessConstraint) -> Self {
        Self::build_with_cap(graph, constraint, DEFAULT_MAX_COMBINATIONS_PER_NODE)
    }

    /// Builds the index with an explicit combination cap per target node.
    ///
    /// A global or unary index is filled in bulk — its entries collected
    /// first, then each map filled shard by shard — to the index that
    /// replaying maintenance would give (the unit tests' oracle); `|S| ≥ 2`
    /// enumerates per target.
    pub fn build_with_cap(graph: &Graph, constraint: AccessConstraint, cap: usize) -> Self {
        let target = constraint.target();
        match *constraint.source() {
            [source] => {
                let mut built = Self::build_unary(graph, source, vec![constraint], cap);
                built.pop().expect("one index per constraint")
            }
            // The one key of a global index exists even without answers.
            [] => {
                let all = graph.nodes_with_label(target).to_vec();
                let mut spans = vec![(0, 0, all.len())];
                Self::from_entries(graph, constraint, cap, Vec::new(), &all, &mut spans)
            }
            _ => {
                let targets = graph.label_count(target);
                let mut index = Self::empty(constraint, cap, 0, targets);
                for &v in graph.nodes_with_label(target) {
                    index.add_combinations(graph, v);
                }
                index.shrink_to_fit();
                index
            }
        }
    }

    /// Builds the unary indices of `constraints`, all on source label
    /// `source`, in one id-order pass over the source-labeled nodes: each
    /// neighbor's label is read once, and the neighbor handed to every
    /// constraint that targets that label. A target is listed under its
    /// first `cap` sources and capped at `cap` or more, as in maintenance.
    /// A node carries one label, so one count per node serves every
    /// constraint (those sharing a target label count alike). Each index's
    /// maps are then filled shard by shard from compact key records, one
    /// record buffer serving every constraint of the group.
    fn build_unary(
        graph: &Graph,
        source: Label,
        constraints: Vec<AccessConstraint>,
        cap: usize,
    ) -> Vec<Self> {
        let limit = cap.max(1);
        // Label id → the constraints targeting it; a label past the table
        // (a deleted node's tombstone among them) is nobody's target.
        let width = constraints.iter().map(|c| c.target().index() + 1).max();
        let mut takers = vec![Vec::new(); width.unwrap_or(0)];
        for (i, constraint) in constraints.iter().enumerate() {
            takers[constraint.target().index()].push(i);
        }
        let sources = graph.nodes_with_label(source);
        // Per constraint: the flat answer list, and where each source's
        // answers end in it. Every list is allocated at its final capacity —
        // an answer list for all the edges of the scanned nodes, of which
        // only the written pages are ever touched — because the buffers a
        // doubling list frees behind it end up interleaved with the tables
        // built next, and a process that rebuilds its indices keeps growing
        // its heap around them.
        let edges = sources
            .iter()
            .map(|&o| graph.out_degree(o) + graph.in_degree(o));
        let edges: usize = edges.sum();
        let mut lists: Vec<(Vec<NodeId>, Vec<u32>)> = constraints
            .iter()
            .map(|_| (Vec::with_capacity(edges), Vec::with_capacity(sources.len())))
            .collect();
        let mut counts = vec![0u32; graph.node_count()];
        for &o in sources.iter() {
            for t in graph.neighbor_iter(o) {
                let Some(takers) = takers.get(graph.label(t).index()) else {
                    continue;
                };
                if takers.is_empty() || counts[t.index()] as usize >= limit {
                    continue;
                }
                counts[t.index()] += 1;
                for &i in takers {
                    lists[i].0.push(t);
                }
            }
            for (answers, ends) in &mut lists {
                ends.push(u32::try_from(answers.len()).expect("under 2^32 answers"));
            }
        }
        // One `(key, start, end)` record per key with answers.
        let mut records: Vec<(NodeId, u32, u32)> = Vec::with_capacity(sources.len());
        let built = constraints.into_iter().zip(lists);
        let built = built.map(|(constraint, (answers, ends))| {
            let mut start = 0;
            for (&o, &end) in sources.iter().zip(&ends) {
                if end > start {
                    records.push((o, start, end));
                }
                start = end;
            }
            drop(ends);
            let mut index = Self::empty(constraint, cap, 0, 0);
            index.note_lengths(
                records
                    .iter()
                    .map(|&(_, start, end)| (end - start) as usize),
            );
            index.map = CowMap::from_records(
                sources.len(),
                &mut records,
                |(o, ..)| shard_hash(std::slice::from_ref(o)),
                |(o, start, end)| {
                    let answers = &answers[start as usize..end as usize];
                    (Row::from(&[o][..]), Row::from(answers))
                },
            );
            drop(answers);
            index.count_keys(graph, &counts);
            let target = index.constraint.target();
            let capped = graph.nodes_with_label(target).iter();
            let mut capped: Vec<NodeId> = capped
                .copied()
                .filter(|t| counts[t.index()] as usize >= limit)
                .collect();
            index.capped_targets = CowMap::from_records(0, &mut capped, shard_hash, |t| (t, ()));
            index
        });
        built.collect()
    }

    /// The index holding `spans` — each a key and then its answers in the
    /// flat `ids` list, as `ids[start..mid]` and `ids[mid..end]`, every key
    /// distinct and both lists sorted strictly — with its per-target
    /// bookkeeping derived from them and `capped` as its capped targets
    /// (snapshot load, and a global index's build). The spans are drained.
    pub(crate) fn from_entries(
        graph: &Graph,
        constraint: AccessConstraint,
        cap: usize,
        mut capped: Vec<NodeId>,
        ids: &[NodeId],
        spans: &mut Vec<(usize, usize, usize)>,
    ) -> Self {
        let target = constraint.target();
        let mut index = Self::empty(constraint, cap, 0, graph.label_count(target));
        index.note_lengths(spans.iter().map(|&(_, mid, end)| end - mid));
        let answers = spans
            .iter()
            .map(|&(start, mid, end)| (start..mid, &ids[mid..end]));
        match index.constraint.source_len() {
            0 => {}
            1 => {
                let mut counts = vec![0u32; graph.node_count()];
                for t in answers.flat_map(|(_, answers)| answers) {
                    counts[t.index()] += 1;
                }
                index.count_keys(graph, &counts);
            }
            _ => {
                for (key, answers) in answers {
                    let key = Row::from(&ids[key]);
                    for &t in answers {
                        index.reverse.entry_or_default(t).push(key.clone());
                    }
                }
                index.reverse.shrink_to_fit();
            }
        }
        index.map = CowMap::from_records(
            spans.len(),
            spans,
            |&(start, mid, _)| shard_hash(&ids[start..mid]),
            |(start, mid, end)| (Row::from(&ids[start..mid]), Row::from(&ids[mid..end])),
        );
        index.capped_targets = CowMap::from_records(0, &mut capped, shard_hash, |t| (t, ()));
        index
    }

    /// Fills a unary index's key counts from `counts`, the number of keys
    /// each node is listed under (only target-labeled nodes are read).
    fn count_keys(&mut self, graph: &Graph, counts: &[u32]) {
        let target = self.constraint.target();
        let targets = graph.label_count(target);
        let mut counted = Vec::with_capacity(targets);
        let listed = graph.nodes_with_label(target).iter();
        counted.extend(
            listed
                .map(|&t| (t, counts[t.index()]))
                .filter(|&(_, n)| n > 0),
        );
        self.key_counts =
            CowMap::from_records(targets, &mut counted, |(t, _)| shard_hash(t), |entry| entry);
    }

    /// Counts answer lists of the given lengths into `lengths`.
    fn note_lengths(&mut self, lengths: impl Iterator<Item = usize>) {
        let mut histogram = vec![0usize];
        for len in lengths {
            histogram.resize(histogram.len().max(len + 1), 0);
            histogram[len] += 1;
        }
        let lengths = histogram.into_iter().enumerate().skip(1);
        self.lengths = lengths.filter(|&(_, keys)| keys > 0).collect();
    }

    /// Re-fits maps that were sized for more entries than they received
    /// (every source-labeled node a key, every target-labeled node a
    /// contributor), so clones stop paying for shards nothing lives in.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.map.shrink_to_fit();
        self.key_counts.shrink_to_fit();
        self.reverse.shrink_to_fit();
    }

    /// An index with no entries, sized for `keys` keys and `targets`
    /// contributing targets.
    pub(crate) fn empty(
        constraint: AccessConstraint,
        cap: usize,
        keys: usize,
        targets: usize,
    ) -> Self {
        let (counted, reversed) = match constraint.source_len() {
            0 => (0, 0),
            1 => (targets, 0),
            _ => (0, targets),
        };
        ConstraintIndex {
            constraint,
            map: CowMap::with_capacity(keys),
            key_counts: CowMap::with_capacity(counted),
            reverse: CowMap::with_capacity(reversed),
            lengths: BTreeMap::new(),
            capped_targets: CowMap::with_capacity(0),
            cap,
        }
    }

    /// The constraint this index backs.
    pub fn constraint(&self) -> &AccessConstraint {
        &self.constraint
    }

    /// Common neighbors labeled `l` of the `S`-labeled set `vs`
    /// (order of `vs` does not matter). Returns an empty slice when the set
    /// is not indexed, which for a graph satisfying the constraint means the
    /// answer is empty.
    pub fn common_neighbors(&self, vs: &[NodeId]) -> &[NodeId] {
        // A strictly increasing probe already is its own key (always so for
        // unary and global lookups): no allocation on the fetch path.
        let answers = if vs.windows(2).all(|w| w[0] < w[1]) {
            self.map.get(vs)
        } else {
            self.map.get(Self::canonical_key(vs).as_slice())
        };
        answers.map_or(&[], |answers| answers)
    }

    /// True when `target` is a common neighbor (labeled `l`) of `vs`.
    pub fn contains(&self, vs: &[NodeId], target: NodeId) -> bool {
        self.common_neighbors(vs).contains(&target)
    }

    /// All nodes labeled `l` for a global (`S = ∅`) constraint.
    pub fn global_nodes(&self) -> &[NodeId] {
        debug_assert!(self.constraint.is_global());
        self.common_neighbors(&[])
    }

    /// The largest answer set across all indexed keys — the graph satisfies
    /// the cardinality part of the constraint iff this is `≤ N`. Maintained
    /// incrementally; always equal to a fresh rebuild's.
    pub fn max_cardinality(&self) -> usize {
        self.lengths.keys().next_back().copied().unwrap_or(0)
    }

    /// True when every indexed key respects the bound `N`.
    pub fn within_bound(&self) -> bool {
        self.max_cardinality() <= self.constraint.bound()
    }

    /// True when some target node's combination enumeration hit the cap —
    /// at build time or during an incremental refresh. Maintenance keeps
    /// this exact: deleting or repairing the offending node clears it, just
    /// as a fresh rebuild would.
    pub fn is_truncated(&self) -> bool {
        self.capped_targets.len() > 0
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
        match self.constraint.source_len() {
            0 => self.global_nodes().binary_search(&target).is_ok(),
            1 => self.key_counts.contains_key(&target),
            _ => self.reverse.contains_key(&target),
        }
    }

    /// Number of distinct keys indexed.
    pub fn key_count(&self) -> usize {
        self.map.len()
    }

    /// Total number of node ids stored (keys plus answers) — the paper's
    /// `|index|` measure for one constraint.
    pub fn size(&self) -> usize {
        self.entries().map(|(k, v)| k.len() + v.len()).sum()
    }

    /// Iterates over `(key, answers)` pairs.
    pub fn entries(&self) -> impl Iterator<Item = (&[NodeId], &[NodeId])> {
        self.map.iter().map(|(k, v)| (&k[..], &v[..]))
    }

    /// Number of copy-on-write shards the index's maps are spread over.
    pub fn shard_count(&self) -> usize {
        self.spines().iter().map(|spine| spine.leaves).sum()
    }

    /// The shapes of the shard spines un-sharing this index walks (entries,
    /// key counts, reverse keys, capped targets). The sum of their `groups`
    /// is the number of reference counts that costs.
    pub fn spines(&self) -> [SpineShape; 4] {
        [
            self.map.shape(),
            self.key_counts.shape(),
            self.reverse.shape(),
            self.capped_targets.shape(),
        ]
    }

    /// Shards copied because a write found them still shared with another
    /// clone of this index. The count is inherited by clones, so the copy
    /// work of one maintenance call is the difference across it.
    pub fn shards_copied(&self) -> u64 {
        self.map.copied()
            + self.key_counts.copied()
            + self.reverse.copied()
            + self.capped_targets.copied()
    }

    /// Groups of shard pointers copied on write, counted like
    /// [`ConstraintIndex::shards_copied`].
    pub fn groups_copied(&self) -> u64 {
        self.map.groups_copied()
            + self.key_counts.groups_copied()
            + self.reverse.groups_copied()
            + self.capped_targets.groups_copied()
    }

    fn canonical_key(vs: &[NodeId]) -> Vec<NodeId> {
        let mut key = vs.to_vec();
        key.sort_unstable();
        key.dedup();
        key
    }

    /// Records that one answer list changed length.
    fn note_length(&mut self, from: usize, to: usize) {
        if from > 0 {
            let count = self.lengths.get_mut(&from).expect("length was counted");
            *count -= 1;
            if *count == 0 {
                self.lengths.remove(&from);
            }
        }
        if to > 0 {
            *self.lengths.entry(to).or_insert(0) += 1;
        }
    }

    /// Lists `target` under `key`; returns whether the entry is new.
    fn list_insert(&mut self, key: &[NodeId], target: NodeId) -> bool {
        let answers = self.map.entry_or_default(Row::from(key));
        let Err(pos) = answers.binary_search(&target) else {
            return false;
        };
        answers.insert(pos, target);
        let len = answers.len();
        self.note_length(len - 1, len);
        true
    }

    /// Unlists `target` from `key`, dropping a key left without answers;
    /// returns whether the entry existed.
    fn list_remove(&mut self, key: &[NodeId], target: NodeId) -> bool {
        let listed = self.map.get(key).map(|a| a.binary_search(&target));
        let Some(Ok(pos)) = listed else {
            return false;
        };
        let answers = self.map.get_mut(key).expect("the key was just read");
        answers.remove(pos);
        let len = answers.len();
        if len == 0 && !key.is_empty() {
            self.map.remove(key);
        }
        self.note_length(len + 1, len);
        true
    }

    /// Brings the contribution of `target` — every entry listing it — to
    /// what a fresh build over `graph` would hold, under the index's own
    /// combination cap. Deleted nodes end with no contribution: a tombstoned
    /// slot's label matches no constraint target.
    ///
    /// `partners` are the nodes an edge delta of the current batch pairs
    /// with `target`: former neighbors a unary index may still list it
    /// under (replaying a fresh build, the unit tests' oracle, passes none).
    pub(crate) fn refresh_target(&mut self, graph: &Graph, target: NodeId, partners: &[NodeId]) {
        let is_target = graph.try_label(target) == Some(self.constraint.target());
        match self.constraint.source_len() {
            0 => {
                if is_target {
                    self.list_insert(&[], target);
                } else {
                    self.list_remove(&[], target);
                }
            }
            1 => self.refresh_unary_target(graph, target, is_target, partners),
            _ => {
                self.capped_targets.remove(&target);
                for key in self.reverse.remove(&target).unwrap_or_default() {
                    self.list_remove(&key, target);
                }
                if is_target {
                    self.add_combinations(graph, target);
                }
            }
        }
    }

    /// Edge-local maintenance of a unary index: after edge deltas between
    /// `target` and each of `partners`, entry `[o] → target` must exist iff
    /// the two are neighbors in `graph` with the constraint's labels. Only
    /// those pairs are looked at — never the rest of `target`'s
    /// neighborhood — unless `target` sits at the combination cap, where
    /// which neighbors are listed depends on all of them.
    pub(crate) fn reconcile_edges(&mut self, graph: &Graph, target: NodeId, partners: &[NodeId]) {
        debug_assert_eq!(self.constraint.source_len(), 1);
        let is_target = graph.try_label(target) == Some(self.constraint.target());
        if self.capped_targets.contains_key(&target) {
            return self.refresh_unary_target(graph, target, is_target, partners);
        }
        let source = self.constraint.source()[0];
        let mut count = self.key_counts.get(&target).copied().unwrap_or(0);
        for &o in partners {
            let wanted =
                is_target && graph.try_label(o) == Some(source) && graph.are_neighbors(o, target);
            if wanted && self.list_insert(&[o], target) {
                count += 1;
            } else if !wanted && self.list_remove(&[o], target) {
                count -= 1;
            }
        }
        self.set_key_count(target, count);
        if count as usize >= self.cap.max(1) {
            // The batch took the target to the cap (or past it): which
            // neighbors are listed now depends on all of them.
            self.refresh_unary_target(graph, target, is_target, partners);
        }
    }

    /// The whole-contribution refresh of a unary index: the first `cap`
    /// source-labeled neighbors by id list `target`, as in a fresh build.
    /// Anything else that still lists it is a former neighbor, hence a
    /// current neighbor or one of `partners`, and is unlisted.
    fn refresh_unary_target(
        &mut self,
        graph: &Graph,
        target: NodeId,
        is_target: bool,
        partners: &[NodeId],
    ) {
        let neighbors = if graph.contains_node(target) {
            graph.neighbors(target)
        } else {
            Vec::new()
        };
        let source = self.constraint.source()[0];
        let cap = self.cap.max(1);
        let mut listed: Vec<NodeId> = neighbors
            .iter()
            .copied()
            .filter(|&o| is_target && graph.label(o) == source)
            .collect();
        if listed.len() >= cap {
            self.capped_targets.insert(target, ());
            listed.truncate(cap);
        } else {
            self.capped_targets.remove(&target);
        }
        if self.key_counts.contains_key(&target) {
            for &o in neighbors.iter().chain(partners) {
                if listed.binary_search(&o).is_err() {
                    self.list_remove(&[o], target);
                }
            }
        }
        for &o in &listed {
            self.list_insert(&[o], target);
        }
        self.set_key_count(target, listed.len() as u32);
    }

    fn set_key_count(&mut self, target: NodeId, count: u32) {
        if count == 0 {
            self.key_counts.remove(&target);
        } else if self.key_counts.get(&target) != Some(&count) {
            self.key_counts.insert(target, count);
        }
    }

    /// Adds the contribution of `target` (a node labeled `l`) to an index
    /// with `|S| ≥ 2` by enumerating every `S`-labeled combination of its
    /// neighbors in `graph`, up to the cap.
    fn add_combinations(&mut self, graph: &Graph, target: NodeId) {
        // Group the target's neighbors by the source labels of the constraint.
        let mut per_label: Vec<Vec<NodeId>> = vec![Vec::new(); self.constraint.source_len()];
        for n in graph.neighbor_iter(target) {
            let ln = graph.label(n);
            if let Ok(pos) = self.constraint.source().binary_search(&ln) {
                per_label[pos].push(n);
            }
        }
        if per_label.iter().any(Vec::is_empty) {
            return; // `target` has no S-labeled neighbor set.
        }
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
                        self.capped_targets.insert(target, ());
                        break 'outer;
                    }
                }
            }
            combos = next;
            if combos.is_empty() {
                return;
            }
        }
        let mut keys = Vec::with_capacity(combos.len());
        for key in &mut combos {
            key.sort_unstable();
            if self.list_insert(key, target) {
                keys.push(Row::from(&key[..]));
            }
        }
        if !keys.is_empty() {
            self.reverse.insert(target, keys);
        }
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
    /// The unary constraints are built a source label at a time: one scan
    /// of that label's nodes fills every unary index reading it.
    pub fn build_with_cap(graph: &Graph, schema: &AccessSchema, cap: usize) -> Self {
        let mut indices: Vec<Option<ConstraintIndex>> = vec![None; schema.len()];
        let mut unary: BTreeMap<Label, Vec<usize>> = BTreeMap::new();
        for (i, constraint) in schema.iter().enumerate() {
            if let [source] = *constraint.source() {
                unary.entry(source).or_default().push(i);
            } else {
                let index = ConstraintIndex::build_with_cap(graph, constraint.clone(), cap);
                indices[i] = Some(index);
            }
        }
        // The largest group first: the tables built after it reuse the
        // buffers its scan freed.
        let mut unary: Vec<(Label, Vec<usize>)> = unary.into_iter().collect();
        unary.sort_by_key(|(source, _)| std::cmp::Reverse(graph.label_count(*source)));
        let constraints: Vec<&AccessConstraint> = schema.iter().collect();
        for (source, members) in unary {
            let group = members.iter().map(|&i| constraints[i].clone()).collect();
            let built = ConstraintIndex::build_unary(graph, source, group, cap);
            for (i, index) in members.into_iter().zip(built) {
                indices[i] = Some(index);
            }
        }
        let indices = indices
            .into_iter()
            .map(|index| index.expect("every constraint is built"));
        Self::from_indices(schema.clone(), indices.collect())
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

    /// Shards copied by maintenance along this set's clone lineage (see
    /// [`ConstraintIndex::shards_copied`]): the copy work of one commit is
    /// the difference between the new snapshot's count and its base's.
    pub fn shards_copied(&self) -> u64 {
        self.iter().map(|(_, index)| index.shards_copied()).sum()
    }

    /// Groups of shard pointers copied by maintenance along this set's
    /// clone lineage (see [`ConstraintIndex::groups_copied`]).
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
        assert_eq!(idx.global_nodes().len(), 2);
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
            for &a in actors {
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
        let m_y1 = idx.common_neighbors(&[years[0], awards[0]]);
        let m_y2 = idx.common_neighbors(&[years[1], awards[0]]);
        assert_eq!(m_y1.len(), 2);
        assert_eq!(m_y2.len(), 1);
        // Order of the lookup key must not matter.
        assert_eq!(
            idx.common_neighbors(&[awards[0], years[0]]),
            idx.common_neighbors(&[years[0], awards[0]])
        );
        assert!(idx.contains(&[years[0], awards[0]], m_y1[0]));
        assert!(!idx.contains(&[years[1], awards[0]], m_y1[0]));
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
    /// the oracle a bulk build must equal.
    fn replayed(graph: &Graph, constraint: AccessConstraint, cap: usize) -> ConstraintIndex {
        let keys = match constraint.source() {
            [source] => graph.label_count(*source),
            _ => 0,
        };
        let target = constraint.target();
        let mut index = ConstraintIndex::empty(constraint, cap, keys, graph.label_count(target));
        for &v in graph.nodes_with_label(target) {
            index.refresh_target(graph, v, &[]);
        }
        if index.constraint.is_global() {
            index.map.entry_or_default(Row::default());
        }
        index.shrink_to_fit();
        index
    }

    fn assert_same_index(a: &ConstraintIndex, b: &ConstraintIndex, graph: &Graph, ctx: &str) {
        let sorted = |index: &ConstraintIndex| {
            let mut entries: Vec<(Vec<NodeId>, Vec<NodeId>)> = index
                .entries()
                .map(|(k, v)| (k.to_vec(), v.to_vec()))
                .collect();
            entries.sort_unstable();
            entries
        };
        assert_eq!(sorted(a), sorted(b), "entries ({ctx})");
        assert_eq!(a.lengths, b.lengths, "lengths ({ctx})");
        assert_eq!(a.max_cardinality(), b.max_cardinality(), "max ({ctx})");
        assert_eq!(a.is_truncated(), b.is_truncated(), "truncated ({ctx})");
        assert_eq!(a.key_count(), b.key_count(), "key count ({ctx})");
        assert_eq!(a.spines(), b.spines(), "shard spines ({ctx})");
        for v in graph.nodes() {
            let state = |i: &ConstraintIndex| {
                let counted = i.key_counts.get(&v).copied();
                let capped = i.capped_targets.contains_key(&v);
                (i.has_contribution(v), counted, capped)
            };
            assert_eq!(state(a), state(b), "node {v} ({ctx})");
        }
    }

    /// A random graph over three labels, self-loops and repeated edges
    /// included, with a few nodes deleted, and a fourth label on no node.
    /// One in eight is large enough to spread its maps over several shards.
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

    /// Bulk-built global and unary indices equal the maintenance replay,
    /// and stay equal through one batch of maintenance — built alone and
    /// built as a set, where every source label's unary constraints (four
    /// targets, one of them at two bounds) share one scan.
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
                let build = |make: fn(&Graph, AccessConstraint, usize) -> ConstraintIndex| {
                    let indices = constraints.iter().map(|c| make(&graph, c.clone(), cap));
                    AccessIndexSet::from_indices(schema.clone(), indices.collect())
                };
                let mut alone = build(ConstraintIndex::build_with_cap);
                let mut shared = AccessIndexSet::build_with_cap(&graph, &schema, cap);
                let mut replay = build(replayed);
                for (step, g) in [("build", &graph), ("maintained", &next)] {
                    if step == "maintained" {
                        for set in [&mut alone, &mut shared, &mut replay] {
                            apply_deltas(set, g, &deltas);
                        }
                    }
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
