//! Label → node index.
//!
//! Access constraints of type (1) (`∅ → (l, N)`) bound the number of nodes of
//! the whole graph that carry label `l`, and query plans start by fetching
//! exactly those nodes. [`LabelIndex`] provides that lookup in O(1) plus the
//! size of the answer.
//!
//! **Buckets are chunked.** A label's sorted node list is cut into sorted
//! chunks of about [`CHUNK_TARGET`] ids, the leaves of a [`Spine`]; the
//! bucket table is itself a spine of buckets. Cloning the index bumps
//! `⌈|Σ| / 64⌉` reference counts, and registering or unregistering a node
//! copies one chunk (< 4 KB), that chunk's group of 64 pointers and the
//! top of its bucket's spine (`⌈chunks / 64⌉` bumps) — whatever the label's
//! frequency. Nothing on the update path is sized by `|G|` any more. Readers
//! get a [`LabelNodes`] handle that walks the chunks in order; a scan pays
//! one pointer hop per chunk.

use crate::graph::NodeId;
use crate::label::Label;
use crate::spine::{self, Spine, SpineShape};

/// Ids a bucket chunk is cut to; a chunk is split in two at twice this, and
/// merged into a neighbour when it falls under a quarter of it.
pub const CHUNK_TARGET: usize = 512;

/// The sorted nodes of one label: sorted chunks, each non-empty, every id
/// of a chunk below every id of the next.
#[derive(Debug, Clone, Default)]
struct Bucket {
    chunks: Spine<Vec<NodeId>>,
    len: usize,
}

impl Bucket {
    /// Cuts an already sorted id list into chunks.
    fn from_sorted(ids: &[NodeId]) -> Self {
        Bucket {
            chunks: ids.chunks(CHUNK_TARGET).map(<[NodeId]>::to_vec).collect(),
            len: ids.len(),
        }
    }

    fn contains(&self, node: NodeId) -> bool {
        self.nodes().contains(node)
    }

    fn insert(&mut self, node: NodeId) -> bool {
        if self.chunks.is_empty() {
            self.chunks.push(vec![node]);
            self.len = 1;
            return true;
        }
        let at = chunk_of(&self.chunks, node);
        let Err(pos) = self.chunks.leaf(at).binary_search(&node) else {
            return false;
        };
        let chunk = self.chunks.make_mut(at);
        chunk.insert(pos, node);
        if chunk.len() >= 2 * CHUNK_TARGET {
            let upper = chunk.split_off(CHUNK_TARGET);
            self.chunks.insert(at + 1, upper);
        }
        self.len += 1;
        true
    }

    fn remove(&mut self, node: NodeId) -> bool {
        if self.chunks.is_empty() {
            return false;
        }
        let at = chunk_of(&self.chunks, node);
        let Ok(pos) = self.chunks.leaf(at).binary_search(&node) else {
            return false;
        };
        self.chunks.make_mut(at).remove(pos);
        self.len -= 1;
        self.merge_small(at);
        true
    }

    /// Folds chunk `at` into a neighbour once it is under a quarter of the
    /// target and the two fit one chunk; an emptied chunk always does, so
    /// no empty chunk survives.
    fn merge_small(&mut self, at: usize) {
        let len = self.chunks.leaf(at).len();
        if len >= CHUNK_TARGET / 4 {
            return;
        }
        let fits = |other: usize| len + self.chunks.leaf(other).len() <= CHUNK_TARGET;
        let lower = if at + 1 < self.chunks.len() && fits(at + 1) {
            at
        } else if at > 0 && fits(at - 1) {
            at - 1
        } else if len == 0 {
            return self.chunks.remove(at);
        } else {
            return;
        };
        let upper = self.chunks.leaf(lower + 1).clone();
        self.chunks.make_mut(lower).extend(upper);
        self.chunks.remove(lower + 1);
    }

    fn nodes(&self) -> LabelNodes<'_> {
        LabelNodes {
            chunks: Chunks::Many(&self.chunks),
            len: self.len,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Chunks<'a> {
    One(&'a [NodeId]),
    Many(&'a Spine<Vec<NodeId>>),
}

/// The sorted nodes carrying one label, borrowed from wherever they are
/// stored: the chunks of a [`LabelIndex`] bucket, or one plain slice (a
/// [`crate::FragmentView`]'s arena). Cheap to copy; never flattens.
#[derive(Clone, Copy)]
pub struct LabelNodes<'a> {
    chunks: Chunks<'a>,
    len: usize,
}

impl<'a> LabelNodes<'a> {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no node carries the label.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the nodes, ascending.
    pub fn iter(&self) -> Iter<'a> {
        match self.chunks {
            Chunks::One(ids) => Iter {
                current: ids.iter(),
                rest: spine::Iter::default(),
            },
            Chunks::Many(chunks) => Iter {
                current: [].iter(),
                rest: chunks.iter(),
            },
        }
    }

    /// The smallest node, if any.
    pub fn first(&self) -> Option<&'a NodeId> {
        self.iter().next()
    }

    /// True when `node` is listed (two binary searches).
    pub fn contains(&self, node: NodeId) -> bool {
        match self.chunks {
            Chunks::One(ids) => ids.binary_search(&node).is_ok(),
            Chunks::Many(chunks) => {
                let listed = |chunk: &Vec<NodeId>| chunk.binary_search(&node).is_ok();
                chunks.get(chunk_of(chunks, node)).is_some_and(listed)
            }
        }
    }

    /// Copies the nodes into one vector.
    pub fn to_vec(&self) -> Vec<NodeId> {
        let mut ids = Vec::with_capacity(self.len);
        ids.extend(self.iter());
        ids
    }
}

impl<'a> From<&'a [NodeId]> for LabelNodes<'a> {
    fn from(ids: &'a [NodeId]) -> Self {
        LabelNodes {
            chunks: Chunks::One(ids),
            len: ids.len(),
        }
    }
}

impl<'a> IntoIterator for LabelNodes<'a> {
    type Item = &'a NodeId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Prints like the slice it stands for.
impl std::fmt::Debug for LabelNodes<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Equal to any id list with the same nodes in the same order.
impl<T: AsRef<[NodeId]> + ?Sized> PartialEq<T> for LabelNodes<'_> {
    fn eq(&self, other: &T) -> bool {
        self.iter().eq(other.as_ref())
    }
}

impl PartialEq<LabelNodes<'_>> for LabelNodes<'_> {
    fn eq(&self, other: &LabelNodes<'_>) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

/// Iterator over a [`LabelNodes`] list.
#[derive(Debug)]
pub struct Iter<'a> {
    current: std::slice::Iter<'a, NodeId>,
    rest: spine::Iter<'a, Vec<NodeId>>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a NodeId;

    #[inline]
    fn next(&mut self) -> Option<&'a NodeId> {
        loop {
            if let Some(node) = self.current.next() {
                return Some(node);
            }
            self.current = self.rest.next()?.iter();
        }
    }
}

/// Maps each label to the sorted list of node ids carrying it (see the
/// module docs for how the lists are stored and shared).
#[derive(Debug, Clone, Default)]
pub struct LabelIndex {
    /// `buckets.leaf(label.index())` lists the nodes with that label.
    buckets: Spine<Bucket>,
}

impl LabelIndex {
    /// Builds an index from a per-node label assignment.
    pub fn build(labels: &[Label]) -> Self {
        let max = labels.iter().map(|l| l.index() + 1).max().unwrap_or(0);
        let mut buckets = vec![Vec::new(); max];
        for (i, label) in labels.iter().enumerate() {
            buckets[label.index()].push(NodeId(i as u32));
        }
        // Node ids are pushed in increasing order, so each bucket is sorted.
        let mut index = LabelIndex::default();
        for bucket in &buckets {
            index.push_bucket(bucket);
        }
        index
    }

    /// All nodes carrying `label` (empty when the label is unused).
    pub fn nodes(&self, label: Label) -> LabelNodes<'_> {
        match self.buckets.get(label.index()) {
            Some(bucket) => bucket.nodes(),
            None => LabelNodes::from(&[][..]),
        }
    }

    /// Number of nodes carrying `label`.
    pub fn count(&self, label: Label) -> usize {
        self.nodes(label).len()
    }

    /// Number of labels that appear on at least one node.
    pub fn distinct_labels(&self) -> usize {
        self.iter().count()
    }

    /// Iterates over `(label, nodes)` pairs for labels with at least one node.
    pub fn iter(&self) -> impl Iterator<Item = (Label, LabelNodes<'_>)> {
        self.buckets().filter(|(_, nodes)| !nodes.is_empty())
    }

    /// Registers `node` under `label`, keeping the bucket sorted. A no-op
    /// when the node is already present. Used by graph mutation to keep the
    /// index in sync with label assignments.
    pub fn insert(&mut self, label: Label, node: NodeId) {
        let missing = (label.index() + 1).saturating_sub(self.buckets.len());
        self.buckets
            .extend(std::iter::repeat_with(Bucket::default).take(missing));
        if !self.buckets.leaf(label.index()).contains(node) {
            self.buckets.make_mut(label.index()).insert(node);
        }
    }

    /// Removes `node` from `label`'s bucket. Returns whether it was present.
    pub fn remove(&mut self, label: Label, node: NodeId) -> bool {
        let listed = |bucket: &Bucket| bucket.contains(node);
        self.buckets.get(label.index()).is_some_and(listed)
            && self.buckets.make_mut(label.index()).remove(node)
    }

    /// The whole bucket table in label-id order, unused labels included —
    /// the snapshot writer serializes it as one CSR section.
    pub(crate) fn buckets(&self) -> impl Iterator<Item = (Label, LabelNodes<'_>)> {
        let buckets = self.buckets.iter().enumerate();
        buckets.map(|(i, bucket)| (Label(i as u32), bucket.nodes()))
    }

    /// Appends the bucket of the next label id (the build, and a snapshot
    /// load bucket by bucket). The caller guarantees `nodes` is sorted,
    /// deduplicated and lists exactly the nodes carrying that label.
    pub(crate) fn push_bucket(&mut self, nodes: &[NodeId]) {
        self.buckets.push(Bucket::from_sorted(nodes));
    }

    /// Chunks copied because a write found them still shared with another
    /// clone of this index; inherited by clones, like
    /// [`Spine::leaves_copied`].
    pub fn chunks_copied(&self) -> u64 {
        let copied = |bucket: &Bucket| bucket.chunks.leaves_copied();
        self.buckets.iter().map(copied).sum()
    }

    /// Spine groups copied on write, in the bucket table and the buckets.
    pub(crate) fn groups_copied(&self) -> u64 {
        let copied = |bucket: &Bucket| bucket.chunks.groups_copied();
        self.buckets.groups_copied() + self.buckets.iter().map(copied).sum::<u64>()
    }

    /// Shape of the bucket table: its groups are what a `clone` bumps.
    pub(crate) fn shape(&self) -> SpineShape {
        self.buckets.shape()
    }
}

/// Index of the one chunk that may hold `node`: the last whose first id is
/// not above it (the first chunk when `node` precedes them all).
fn chunk_of(chunks: &Spine<Vec<NodeId>>, node: NodeId) -> usize {
    let (mut low, mut high) = (0, chunks.len());
    while low < high {
        let mid = low + (high - low) / 2;
        if chunks.leaf(mid)[0] <= node {
            low = mid + 1;
        } else {
            high = mid;
        }
    }
    low.saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_groups_nodes_by_label() {
        let labels = vec![Label(0), Label(1), Label(0), Label(2), Label(1)];
        let idx = LabelIndex::build(&labels);
        assert_eq!(idx.nodes(Label(0)), &[NodeId(0), NodeId(2)]);
        assert_eq!(idx.nodes(Label(1)), &[NodeId(1), NodeId(4)]);
        assert_eq!(idx.nodes(Label(2)), &[NodeId(3)]);
        assert_eq!(idx.count(Label(0)), 2);
        assert_eq!(idx.distinct_labels(), 3);
    }

    #[test]
    fn unknown_labels_are_empty() {
        let idx = LabelIndex::build(&[Label(0)]);
        assert!(idx.nodes(Label(5)).is_empty());
        assert_eq!(idx.count(Label(5)), 0);
    }

    #[test]
    fn empty_index() {
        let idx = LabelIndex::build(&[]);
        assert_eq!(idx.distinct_labels(), 0);
        assert_eq!(idx.iter().count(), 0);
    }

    #[test]
    fn iter_skips_unused_labels() {
        // Label 1 never appears even though label 2 does.
        let labels = vec![Label(0), Label(2)];
        let idx = LabelIndex::build(&labels);
        let seen: Vec<u32> = idx.iter().map(|(l, _)| l.0).collect();
        assert_eq!(seen, vec![0, 2]);
    }

    #[test]
    fn insert_keeps_buckets_sorted_and_deduplicated() {
        let mut idx = LabelIndex::build(&[Label(0), Label(0)]);
        idx.insert(Label(0), NodeId(5));
        idx.insert(Label(0), NodeId(3));
        idx.insert(Label(0), NodeId(3));
        assert_eq!(
            idx.nodes(Label(0)),
            &[NodeId(0), NodeId(1), NodeId(3), NodeId(5)]
        );
        // Inserting under an unseen label grows the bucket table.
        idx.insert(Label(4), NodeId(9));
        assert_eq!(idx.nodes(Label(4)), &[NodeId(9)]);
        assert_eq!(idx.distinct_labels(), 2);
    }

    #[test]
    fn remove_reports_presence() {
        let mut idx = LabelIndex::build(&[Label(0), Label(1), Label(0)]);
        assert!(idx.remove(Label(0), NodeId(0)));
        assert!(!idx.remove(Label(0), NodeId(0)));
        assert!(!idx.remove(Label(7), NodeId(0)));
        assert_eq!(idx.nodes(Label(0)), &[NodeId(2)]);
    }

    /// Every chunk non-empty, within the split bound, and below the next.
    fn assert_chunk_invariants(idx: &LabelIndex, label: Label) {
        let bucket = idx.buckets.leaf(label.index());
        let chunks: Vec<&Vec<NodeId>> = bucket.chunks.iter().collect();
        assert_eq!(chunks.iter().map(|c| c.len()).sum::<usize>(), bucket.len);
        for chunk in &chunks {
            assert!(!chunk.is_empty() && chunk.len() < 2 * CHUNK_TARGET);
            assert!(chunk.windows(2).all(|w| w[0] < w[1]));
        }
        for pair in chunks.windows(2) {
            assert!(pair[0].last() < pair[1].first());
        }
    }

    #[test]
    fn random_edits_with_pinned_clones_agree_with_a_set_model() {
        use std::collections::BTreeSet;
        let label = Label(1);
        let span = 6 * CHUNK_TARGET as u64;
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let mut idx = LabelIndex::default();
        let mut model: BTreeSet<NodeId> = BTreeSet::new();
        let mut pinned: Vec<(LabelIndex, BTreeSet<NodeId>)> = Vec::new();
        // Grow, churn, then drain to empty: inserts win first, removes last.
        for (steps, insert_bias) in [(9_000, 9), (6_000, 5), (30_000, 1)] {
            for step in 0..steps {
                let node = NodeId(next(span) as u32);
                if next(10) < insert_bias {
                    idx.insert(label, node);
                    model.insert(node);
                } else {
                    assert_eq!(idx.remove(label, node), model.remove(&node));
                }
                if step % 1_500 == 0 {
                    pinned.push((idx.clone(), model.clone()));
                }
            }
            assert_chunk_invariants(&idx, label);
            assert!(idx.nodes(label).iter().eq(model.iter()));
            assert_eq!(idx.nodes(label).first(), model.first());
        }
        assert!(pinned.iter().any(|(_, m)| m.len() > 3 * CHUNK_TARGET));
        for node in std::mem::take(&mut model) {
            assert!(idx.remove(label, node));
        }
        assert!(idx.nodes(label).is_empty() && idx.distinct_labels() == 0);
        assert_eq!(idx.buckets.leaf(label.index()).chunks.len(), 0);
        for (version, model) in &pinned {
            assert_chunk_invariants(version, label);
            let nodes = version.nodes(label);
            assert_eq!(nodes.len(), model.len());
            assert!(nodes.iter().eq(model.iter()));
            for probe in (0..span as u32).step_by(97).map(NodeId) {
                assert_eq!(nodes.contains(probe), model.contains(&probe));
            }
        }
        assert!(idx.chunks_copied() > 0, "edits found chunks a pin shared");
    }

    #[test]
    fn appends_fill_the_tail_chunk_and_split_it_at_twice_the_target() {
        let label = Label(0);
        let mut idx = LabelIndex::build(&vec![label; CHUNK_TARGET + 1]);
        let chunk_lens = |idx: &LabelIndex| -> Vec<usize> {
            let bucket = idx.buckets.leaf(0);
            bucket.chunks.iter().map(Vec::len).collect()
        };
        assert_eq!(chunk_lens(&idx), [CHUNK_TARGET, 1]);
        let base = idx.clone();
        for i in CHUNK_TARGET + 1..3 * CHUNK_TARGET {
            idx.insert(label, NodeId(i as u32));
        }
        assert_eq!(chunk_lens(&idx), [CHUNK_TARGET; 3]);
        assert_eq!(idx.chunks_copied(), 1, "only the tail was ever shared");
        assert_eq!(base.count(label), CHUNK_TARGET + 1);
        assert!(std::ptr::eq(
            idx.buckets.leaf(0).chunks.leaf(0),
            base.buckets.leaf(0).chunks.leaf(0)
        ));
    }

    #[test]
    fn a_slice_handle_behaves_like_a_chunked_one() {
        let ids: Vec<NodeId> = (0..10).map(|i| NodeId(3 * i)).collect();
        let nodes = LabelNodes::from(&ids[..]);
        assert_eq!(nodes, ids);
        assert_eq!(nodes.to_vec(), ids);
        assert_eq!((nodes.len(), nodes.first()), (10, Some(&NodeId(0))));
        assert!(nodes.contains(NodeId(27)) && !nodes.contains(NodeId(28)));
        assert_eq!(format!("{nodes:?}"), format!("{ids:?}"));
        assert!(LabelNodes::from(&[][..]).is_empty());
    }
}
