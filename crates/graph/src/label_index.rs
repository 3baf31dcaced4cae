//! Label → node index.
//!
//! Access constraints of type (1) (`∅ → (l, N)`) bound the number of nodes of
//! the whole graph that carry label `l`, and query plans start by fetching
//! exactly those nodes. [`LabelIndex`] provides that lookup in O(1) plus the
//! size of the answer.

use crate::graph::NodeId;
use crate::label::Label;
use std::sync::Arc;

/// Maps each label to the sorted list of node ids carrying it.
///
/// Buckets are shared between clones and copied on write one at a time:
/// cloning the index bumps one reference count per label, and registering a
/// node copies only its own label's bucket (whole — 4 bytes per node of that
/// label, the one `|G|`-proportional term left on the update path).
#[derive(Debug, Clone, Default)]
pub struct LabelIndex {
    /// `buckets[label.index()]` is the sorted list of nodes with that label.
    buckets: Vec<Arc<Vec<NodeId>>>,
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
        Self::from_buckets(buckets)
    }

    /// All nodes carrying `label` (empty slice when the label is unused).
    pub fn nodes(&self, label: Label) -> &[NodeId] {
        self.buckets
            .get(label.index())
            .map_or(&[], |bucket| bucket.as_slice())
    }

    /// Number of nodes carrying `label`.
    pub fn count(&self, label: Label) -> usize {
        self.nodes(label).len()
    }

    /// Number of labels that appear on at least one node.
    pub fn distinct_labels(&self) -> usize {
        self.buckets.iter().filter(|b| !b.is_empty()).count()
    }

    /// Iterates over `(label, nodes)` pairs for labels with at least one node.
    pub fn iter(&self) -> impl Iterator<Item = (Label, &[NodeId])> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .map(|(i, b)| (Label(i as u32), b.as_slice()))
    }

    /// The most frequent label and its frequency, if any node exists.
    pub fn max_frequency(&self) -> Option<(Label, usize)> {
        self.iter()
            .map(|(l, nodes)| (l, nodes.len()))
            .max_by_key(|&(_, n)| n)
    }

    /// Registers `node` under `label`, keeping the bucket sorted. A no-op
    /// when the node is already present. Used by graph mutation to keep the
    /// index in sync with label assignments.
    pub fn insert(&mut self, label: Label, node: NodeId) {
        if label.index() >= self.buckets.len() {
            self.buckets.resize_with(label.index() + 1, Arc::default);
        }
        let bucket = &mut self.buckets[label.index()];
        if let Err(pos) = bucket.binary_search(&node) {
            Arc::make_mut(bucket).insert(pos, node);
        }
    }

    /// The raw bucket table, indexed by label id — the snapshot writer
    /// serializes it verbatim as a CSR section.
    pub(crate) fn buckets(&self) -> &[Arc<Vec<NodeId>>] {
        &self.buckets
    }

    /// Reassembles an index from a validated bucket table (snapshot load).
    /// The caller guarantees each bucket is sorted, deduplicated and lists
    /// exactly the nodes carrying its label.
    pub(crate) fn from_buckets(buckets: Vec<Vec<NodeId>>) -> Self {
        LabelIndex {
            buckets: buckets.into_iter().map(Arc::new).collect(),
        }
    }

    /// Removes `node` from `label`'s bucket. Returns whether it was present.
    pub fn remove(&mut self, label: Label, node: NodeId) -> bool {
        let Some(bucket) = self.buckets.get_mut(label.index()) else {
            return false;
        };
        match bucket.binary_search(&node) {
            Ok(pos) => {
                Arc::make_mut(bucket).remove(pos);
                true
            }
            Err(_) => false,
        }
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
        assert_eq!(idx.max_frequency(), None);
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

    #[test]
    fn max_frequency_finds_dominant_label() {
        let labels = vec![Label(0), Label(1), Label(1), Label(1), Label(2)];
        let idx = LabelIndex::build(&labels);
        assert_eq!(idx.max_frequency(), Some((Label(1), 3)));
    }
}
