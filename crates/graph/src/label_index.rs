//! Label → node index.
//!
//! Access constraints of type (1) (`∅ → (l, N)`) bound the number of nodes of
//! the whole graph that carry label `l`, and query plans start by fetching
//! exactly those nodes. [`LabelIndex`] provides that lookup in O(1) plus the
//! size of the answer.
//!
//! **Buckets are chunked.** A label's sorted node list is the crate's one
//! chunked sorted-id list (the `chunked` module, also under every hub's
//! adjacency row): sorted chunks of about [`CHUNK_TARGET`] ids, the leaves
//! of a [`Spine`]. The bucket table is itself a spine of buckets. Cloning the
//! index bumps `⌈|Σ| / 64⌉ + 1` reference counts, and registering or
//! unregistering a node copies one chunk (< 4 KB), that chunk's group of 64
//! pointers unless it is the bucket's last chunk — where a new node lands —
//! and the top of its bucket's spine (`⌈chunks / 64⌉ + 1` bumps), whatever
//! the label's frequency. Nothing on the update path is sized by `|G|` any
//! more. Readers get a [`LabelNodes`] handle that walks the chunks in
//! order; a scan pays one pointer hop per chunk.

use crate::chunked::Chunked;
pub use crate::chunked::CHUNK_TARGET;
use crate::graph::NodeId;
use crate::label::Label;
use crate::spine::{Spine, SpineShape};

/// The sorted nodes carrying one label, borrowed: the chunks of a
/// [`LabelIndex`] bucket, or one plain slice (a [`crate::FragmentView`]'s
/// arena). The one sorted-id handle of the crate, [`crate::Ids`].
pub type LabelNodes<'a> = crate::chunked::Ids<'a>;

/// Maps each label to the sorted list of node ids carrying it (see the
/// module docs for how the lists are stored and shared).
#[derive(Debug, Clone, Default)]
pub struct LabelIndex {
    /// `buckets.leaf(label.index())` lists the nodes with that label, by id.
    buckets: Spine<Chunked>,
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
            Some(bucket) => bucket.ids(),
            None => LabelNodes::default(),
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
            .extend(std::iter::repeat_with(Chunked::default).take(missing));
        if !self.buckets.leaf(label.index()).ids().contains(node) {
            let bucket = self.buckets.make_mut(label.index());
            bucket.insert_by(node, |w| w.cmp(&node));
        }
    }

    /// Removes `node` from `label`'s bucket. Returns whether it was present.
    pub fn remove(&mut self, label: Label, node: NodeId) -> bool {
        let listed = |bucket: &Chunked| bucket.ids().contains(node);
        self.buckets.get(label.index()).is_some_and(listed)
            && (self.buckets.make_mut(label.index()))
                .remove_by(|w| w.cmp(&node))
                .is_some()
    }

    /// The whole bucket table in label-id order, unused labels included —
    /// the snapshot writer serializes it as one CSR section.
    pub(crate) fn buckets(&self) -> impl Iterator<Item = (Label, LabelNodes<'_>)> {
        let buckets = self.buckets.iter().enumerate();
        buckets.map(|(i, bucket)| (Label(i as u32), bucket.ids()))
    }

    /// Appends the bucket of the next label id (the build, and a snapshot
    /// load bucket by bucket). The caller guarantees `nodes` is sorted,
    /// deduplicated and lists exactly the nodes carrying that label.
    pub(crate) fn push_bucket(&mut self, nodes: &[NodeId]) {
        self.buckets.push(Chunked::from_sorted(nodes));
    }

    /// Chunks copied because a write found them still shared with another
    /// clone of this index; inherited by clones, like
    /// [`Spine::leaves_copied`].
    pub fn chunks_copied(&self) -> u64 {
        let copied = |bucket: &Chunked| bucket.chunks().leaves_copied();
        self.buckets.iter().map(copied).sum()
    }

    /// Spine groups copied on write, in the bucket table and the buckets.
    pub(crate) fn groups_copied(&self) -> u64 {
        let copied = |bucket: &Chunked| bucket.chunks().groups_copied();
        self.buckets.groups_copied() + self.buckets.iter().map(copied).sum::<u64>()
    }

    /// Shape of the bucket table: its groups are what a `clone` bumps.
    pub(crate) fn shape(&self) -> SpineShape {
        self.buckets.shape()
    }
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
        let chunks: Vec<&Vec<NodeId>> = bucket.chunks().iter().collect();
        assert_eq!(chunks.iter().map(|c| c.len()).sum::<usize>(), bucket.len());
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
        assert_eq!(idx.buckets.leaf(label.index()).chunk_count(), 0);
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
            bucket.chunks().iter().map(Vec::len).collect()
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
            idx.buckets.leaf(0).chunks().leaf(0),
            base.buckets.leaf(0).chunks().leaf(0)
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
