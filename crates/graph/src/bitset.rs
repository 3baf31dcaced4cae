//! Dense bitmap membership sets over node ids.
//!
//! The intersection- and dedup-heavy *whole-graph* paths of the workspace —
//! common-neighbor intersection during index builds, candidate-set
//! union/dedup when seeding the `IndexSeeded` strategy — historically worked
//! on sorted `Vec<NodeId>`s with `binary_search`-based membership.
//! [`NodeBitSet`] replaces those membership probes with one-word bit tests:
//! a `Vec<u64>` indexed by `node_id / 64`, giving `O(1)` insert/contains and
//! a word-parallel intersection.
//!
//! The set is *dense*: capacity is the number of node-id slots of the graph
//! it describes, so it is cheap for the repeated probes of a hot loop and
//! deliberately not a general sparse-set container — which also keeps it off
//! the bounded query path, where nothing may be sized by `|V|` (bounded
//! fetch sorts and dedups; [`crate::FragmentView`] keeps a fragment-local
//! slot table). Callers that only touch
//! a handful of tiny sets should keep the sorted-vec path — see
//! [`Graph::common_neighbors`](crate::Graph::common_neighbors), which
//! switches representation adaptively and is unit-tested against the legacy
//! intersection.

use crate::graph::NodeId;

/// A fixed-capacity bitmap set of node ids.
///
/// ```
/// use bgpq_graph::{bitset::NodeBitSet, NodeId};
///
/// let mut set = NodeBitSet::with_capacity(100);
/// set.insert(NodeId(3));
/// set.insert(NodeId(64));
/// assert!(set.contains(NodeId(3)));
/// assert!(!set.contains(NodeId(4)));
/// assert_eq!(set.len(), 2);
/// assert_eq!(set.iter().collect::<Vec<_>>(), vec![NodeId(3), NodeId(64)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeBitSet {
    words: Vec<u64>,
    /// Number of set bits, maintained incrementally so `len` is `O(1)`.
    len: usize,
}

impl NodeBitSet {
    /// An empty set able to hold node ids `0..capacity` without resizing.
    pub fn with_capacity(capacity: usize) -> Self {
        NodeBitSet {
            words: vec![0; capacity.div_ceil(64)],
            len: 0,
        }
    }

    /// Builds the set from any iterator of node ids (duplicates are fine).
    /// Capacity grows to the largest id seen.
    pub fn from_nodes(nodes: impl IntoIterator<Item = NodeId>) -> Self {
        let mut set = NodeBitSet::default();
        for v in nodes {
            set.insert(v);
        }
        set
    }

    /// Number of node ids in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the set holds no ids.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of node-id slots the set can hold without growing.
    pub fn capacity(&self) -> usize {
        self.words.len() * 64
    }

    /// Adds `v`, growing capacity if needed. Returns true when `v` was new.
    pub fn insert(&mut self, v: NodeId) -> bool {
        let (word, bit) = (v.index() / 64, v.index() % 64);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1u64 << bit;
        let was_absent = self.words[word] & mask == 0;
        self.words[word] |= mask;
        self.len += was_absent as usize;
        was_absent
    }

    /// Removes `v`. Returns true when `v` was present.
    pub fn remove(&mut self, v: NodeId) -> bool {
        let (word, bit) = (v.index() / 64, v.index() % 64);
        match self.words.get_mut(word) {
            Some(w) => {
                let mask = 1u64 << bit;
                let was_present = *w & mask != 0;
                *w &= !mask;
                self.len -= was_present as usize;
                was_present
            }
            None => false,
        }
    }

    /// True when `v` is in the set. Ids beyond capacity are simply absent.
    pub fn contains(&self, v: NodeId) -> bool {
        self.words
            .get(v.index() / 64)
            .is_some_and(|w| w & (1u64 << (v.index() % 64)) != 0)
    }

    /// Empties the set, keeping capacity.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Intersects in place: `self ∩= other`, word-parallel.
    pub fn intersect_with(&mut self, other: &NodeBitSet) {
        let keep = self.words.len().min(other.words.len());
        for (w, o) in self.words[..keep].iter_mut().zip(&other.words[..keep]) {
            *w &= o;
        }
        self.words[keep..].fill(0);
        self.len = self.words.iter().map(|w| w.count_ones() as usize).sum();
    }

    /// Iterates the set's node ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let base = (i * 64) as u32;
            BitIter { word, base }
        })
    }

    /// The set's contents as a sorted `Vec` — the interchange format the
    /// sorted-vec paths of the workspace expect.
    pub fn to_sorted_vec(&self) -> Vec<NodeId> {
        self.iter().collect()
    }
}

impl FromIterator<NodeId> for NodeBitSet {
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        NodeBitSet::from_nodes(iter)
    }
}

/// Iterator over the set bits of one word.
struct BitIter {
    word: u64,
    base: u32,
}

impl Iterator for BitIter {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.word == 0 {
            return None;
        }
        let bit = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(NodeId(self.base + bit))
    }
}

/// Deduplicates `nodes` in place (first occurrence wins, relative order
/// kept) using one bitmap membership pass — no sort required. The returned
/// count is the number of duplicates dropped.
///
/// This is the seed-path replacement for `sort_unstable(); dedup()` when the
/// caller wants to keep collecting into the same buffer: the bitmap probe is
/// `O(1)` per element where the sorted-vec dedup paid `O(log n)` per
/// membership decision (and a full sort first).
pub fn dedup_with_bitset(nodes: &mut Vec<NodeId>, scratch: &mut NodeBitSet) -> usize {
    scratch.clear();
    let before = nodes.len();
    nodes.retain(|&v| scratch.insert(v));
    before - nodes.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove_roundtrip() {
        let mut s = NodeBitSet::with_capacity(10);
        assert!(s.is_empty());
        assert!(s.insert(NodeId(7)));
        assert!(!s.insert(NodeId(7)), "double insert reports not-new");
        assert!(s.contains(NodeId(7)));
        assert_eq!(s.len(), 1);
        assert!(s.remove(NodeId(7)));
        assert!(!s.remove(NodeId(7)));
        assert!(s.is_empty());
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut s = NodeBitSet::with_capacity(1);
        s.insert(NodeId(1000));
        assert!(s.contains(NodeId(1000)));
        assert!(!s.contains(NodeId(999)));
        assert!(s.capacity() >= 1001);
    }

    #[test]
    fn out_of_range_queries_are_absent() {
        let s = NodeBitSet::with_capacity(64);
        assert!(!s.contains(NodeId(u32::MAX)));
        let mut s = s;
        assert!(!s.remove(NodeId(500)));
    }

    #[test]
    fn iteration_is_sorted_across_words() {
        let ids = [900, 3, 64, 65, 0, 127, 128];
        let s: NodeBitSet = ids.iter().map(|&i| NodeId(i)).collect();
        let mut expect: Vec<NodeId> = ids.iter().map(|&i| NodeId(i)).collect();
        expect.sort_unstable();
        assert_eq!(s.to_sorted_vec(), expect);
        assert_eq!(s.len(), expect.len());
    }

    #[test]
    fn intersection_matches_sorted_vec_semantics() {
        let a: NodeBitSet = [1, 5, 64, 200].iter().map(|&i| NodeId(i)).collect();
        let b: NodeBitSet = [5, 64, 300].iter().map(|&i| NodeId(i)).collect();
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.to_sorted_vec(), vec![NodeId(5), NodeId(64)]);
        // Asymmetric capacities: the shorter side wins past its end.
        let mut j = b.clone();
        j.intersect_with(&a);
        assert_eq!(j.to_sorted_vec(), vec![NodeId(5), NodeId(64)]);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut s = NodeBitSet::with_capacity(256);
        let cap = s.capacity();
        s.insert(NodeId(200));
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(NodeId(200)));
        assert_eq!(s.capacity(), cap);
    }

    #[test]
    fn dedup_keeps_first_occurrence_order() {
        let mut v: Vec<NodeId> = [5, 1, 5, 3, 1, 9].iter().map(|&i| NodeId(i)).collect();
        let mut scratch = NodeBitSet::default();
        let dropped = dedup_with_bitset(&mut v, &mut scratch);
        assert_eq!(dropped, 2);
        assert_eq!(v, vec![NodeId(5), NodeId(1), NodeId(3), NodeId(9)]);
        // The scratch is reusable: a second call starts clean.
        let mut w = vec![NodeId(1), NodeId(1)];
        assert_eq!(dedup_with_bitset(&mut w, &mut scratch), 1);
    }
}
