//! Long sorted id lists in chunks, and [`Ids`], the one borrowed handle
//! every sorted id list of the graph is read through.
//!
//! A label's node bucket and a hub's adjacency row are long sorted lists
//! that a commit edits one id at a time, while an older version of the graph
//! still shares them. Copying such a list whole makes an edit `O(d)`, and
//! `d` follows `|G|`. [`Chunked`] cuts the list into sorted chunks of about
//! [`CHUNK_TARGET`] ids, the leaves of a [`Spine`]: an insert or a delete
//! copies the one chunk it lands in (< 4 KB) and, unless that chunk is the
//! spine's tail, its group of 64 chunk pointers — whatever the list's
//! length. A chunk is split in two at twice the target and merged into a
//! neighbour once it falls under a quarter of it.
//!
//! The list's order is its owner's: a label bucket is sorted by id, an
//! adjacency row by `(neighbour label, id)`. Every search therefore takes a
//! comparator, `cmp(w)` ordering a listed id `w` against the one sought, as
//! `slice::binary_search_by` does.
//!
//! Readers get an [`Ids`] handle: a list's pieces — one plain slice, or a
//! partial first chunk, whole chunks and a partial last chunk — with their
//! length. It iterates, searches by key and splits where a predicate stops
//! holding, each piece at a time, and never flattens a chunked list.

use crate::graph::NodeId;
use crate::spine::Spine;
use std::cmp::Ordering;

/// Ids a chunk is cut to; a chunk is split in two at twice this, and merged
/// into a neighbour when it falls under a quarter of it.
pub const CHUNK_TARGET: usize = 512;

type Chunks = Spine<Vec<NodeId>>;

/// A sorted id list in sorted chunks, each non-empty, every id of a chunk
/// ordered before every id of the next.
#[derive(Debug, Clone, Default)]
pub(crate) struct Chunked {
    chunks: Chunks,
    len: usize,
}

impl Chunked {
    /// Cuts an already sorted id list into chunks of [`CHUNK_TARGET`].
    pub(crate) fn from_sorted(ids: &[NodeId]) -> Self {
        Chunked {
            chunks: ids.chunks(CHUNK_TARGET).map(<[NodeId]>::to_vec).collect(),
            len: ids.len(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Number of chunks.
    pub(crate) fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// The chunk spine (its shape and copy counters).
    pub(crate) fn chunks(&self) -> &Chunks {
        &self.chunks
    }

    /// The list, borrowed.
    pub(crate) fn ids(&self) -> Ids<'_> {
        match self.chunks.last() {
            None => Ids::default(),
            Some(last) => Ids::span(
                &self.chunks,
                (0, 0),
                (self.chunks.len() - 1, last.len()),
                Some(self.len),
            ),
        }
    }

    /// Inserts `id` where `cmp` orders it. Returns `None` when it is
    /// already listed, else the number of ids copied because a clone
    /// shared the chunk it went into.
    pub(crate) fn insert_by(
        &mut self,
        id: NodeId,
        cmp: impl Fn(NodeId) -> Ordering,
    ) -> Option<usize> {
        if self.chunks.is_empty() {
            self.chunks.push(vec![id]);
            self.len = 1;
            return Some(0);
        }
        let at = self.chunk_of(&cmp);
        let Err(pos) = self.chunks.leaf(at).binary_search_by(|&w| cmp(w)) else {
            return None;
        };
        let copied = self.edit(at, |chunk| chunk.insert(pos, id));
        if self.chunks.leaf(at).len() >= 2 * CHUNK_TARGET {
            let upper = self.chunks.make_mut(at).split_off(CHUNK_TARGET);
            self.chunks.insert(at + 1, upper);
        }
        self.len += 1;
        Some(copied)
    }

    /// Removes the id `cmp` finds. Returns `None` when none is listed, else
    /// the number of ids copied because a clone shared the chunks edited.
    pub(crate) fn remove_by(&mut self, cmp: impl Fn(NodeId) -> Ordering) -> Option<usize> {
        if self.chunks.is_empty() {
            return None;
        }
        let at = self.chunk_of(&cmp);
        let Ok(pos) = self.chunks.leaf(at).binary_search_by(|&w| cmp(w)) else {
            return None;
        };
        let copied = self.edit(at, |chunk| {
            chunk.remove(pos);
        });
        self.len -= 1;
        Some(copied + self.merge_small(at))
    }

    /// Applies `edit` to chunk `at`, returning the ids copied to un-share
    /// it first.
    fn edit(&mut self, at: usize, edit: impl FnOnce(&mut Vec<NodeId>)) -> usize {
        let (before, len) = (self.chunks.leaves_copied(), self.chunks.leaf(at).len());
        edit(self.chunks.make_mut(at));
        len * (self.chunks.leaves_copied() - before) as usize
    }

    /// Folds chunk `at` into a neighbour once it is under a quarter of the
    /// target and the two fit one chunk; an emptied chunk always does, so
    /// no empty chunk survives. Returns the ids copied to un-share the
    /// chunk folded into.
    fn merge_small(&mut self, at: usize) -> usize {
        let len = self.chunks.leaf(at).len();
        if len >= CHUNK_TARGET / 4 {
            return 0;
        }
        let fits = |other: usize| len + self.chunks.leaf(other).len() <= CHUNK_TARGET;
        let lower = if at + 1 < self.chunks.len() && fits(at + 1) {
            at
        } else if at > 0 && fits(at - 1) {
            at - 1
        } else if len == 0 {
            self.chunks.remove(at);
            return 0;
        } else {
            return 0;
        };
        let upper = self.chunks.leaf(lower + 1).clone();
        let copied = self.edit(lower, |chunk| chunk.extend(upper));
        self.chunks.remove(lower + 1);
        copied
    }

    /// Index of the one chunk that may hold the id `cmp` seeks: the last
    /// whose first id is not ordered after it (the first chunk when it
    /// precedes them all).
    fn chunk_of(&self, cmp: &impl Fn(NodeId) -> Ordering) -> usize {
        let (mut low, mut high) = (0, self.chunks.len());
        while low < high {
            let mid = low + (high - low) / 2;
            if cmp(self.chunks.leaf(mid)[0]) != Ordering::Greater {
                low = mid + 1;
            } else {
                high = mid;
            }
        }
        low.saturating_sub(1)
    }

    /// Bytes the chunks hold: each chunk's buffer with its vector header
    /// and reference counts, and a pointer to it.
    pub(crate) fn heap_bytes(&self) -> usize {
        let overhead = std::mem::size_of::<Vec<NodeId>>() + 3 * std::mem::size_of::<usize>();
        let chunk = |c: &Vec<NodeId>| overhead + c.capacity() * std::mem::size_of::<NodeId>();
        self.chunks.iter().map(chunk).sum()
    }
}

/// A sorted id list, borrowed from wherever it is stored: one plain slice
/// (a short row, a [`crate::FragmentView`]'s arena, one chunk), or a run of
/// a chunked list's chunks. Cheap to copy; never flattens.
#[derive(Clone, Copy)]
pub struct Ids<'a>(Repr<'a>);

#[derive(Clone, Copy)]
enum Repr<'a> {
    Flat(&'a [NodeId]),
    Span(Span<'a>),
}

/// Ids `start..` of chunk `first` through ids `..end` of chunk `last`
/// (`first < last`): a list over two chunks or more. One that fits a
/// single chunk is [`Repr::Flat`]. `len` is the count when known — a whole
/// list's — else [`UNCOUNTED`]: a split does not walk the chunks it spans
/// to count them.
#[derive(Clone, Copy)]
struct Span<'a> {
    chunks: &'a Chunks,
    first: u32,
    start: u32,
    last: u32,
    end: u32,
    len: u32,
}

/// A [`Span`]'s `len` when its ids were not counted.
const UNCOUNTED: u32 = u32::MAX;

impl Default for Ids<'_> {
    fn default() -> Self {
        Ids::from(&[][..])
    }
}

impl<'a> From<&'a [NodeId]> for Ids<'a> {
    #[inline]
    fn from(ids: &'a [NodeId]) -> Self {
        Ids(Repr::Flat(ids))
    }
}

impl<'a> Ids<'a> {
    /// Ids `start..` of chunk `first` through `..end` of chunk `last`, the
    /// span holding `len` ids when counted: one slice when both ends fall
    /// in one chunk.
    fn span(
        chunks: &'a Chunks,
        (first, start): (usize, usize),
        (last, end): (usize, usize),
        len: Option<usize>,
    ) -> Self {
        if first == last {
            return Ids::from(&chunks.leaf(first)[start..end]);
        }
        let narrow = |x: usize| x as u32;
        Ids(Repr::Span(Span {
            chunks,
            first: narrow(first),
            start: narrow(start),
            last: narrow(last),
            end: narrow(end),
            len: len.map_or(UNCOUNTED, narrow),
        }))
    }

    /// Number of ids: a walk over the chunks of a part of a chunked list
    /// split from it; a whole list's or a slice's is stored.
    #[inline]
    pub fn len(&self) -> usize {
        match self.0 {
            Repr::Flat(ids) => ids.len(),
            Repr::Span(span) => span.len(),
        }
    }

    /// True when the list is empty (a span of chunks never is).
    #[inline]
    pub fn is_empty(&self) -> bool {
        match self.0 {
            Repr::Flat(ids) => ids.is_empty(),
            Repr::Span(_) => false,
        }
    }

    /// The list as one slice, when it is stored as one.
    #[inline]
    pub fn as_slice(&self) -> Option<&'a [NodeId]> {
        match self.0 {
            Repr::Flat(ids) => Some(ids),
            Repr::Span(_) => None,
        }
    }

    /// Iterates over the ids in order.
    #[inline]
    pub fn iter(&self) -> Iter<'a> {
        match self.0 {
            Repr::Flat(ids) => Iter {
                current: ids.iter(),
                span: None,
                next: 0,
                after: 0,
            },
            Repr::Span(span) => {
                let head = span.piece(0);
                Iter {
                    current: head.iter(),
                    span: Some(span),
                    next: 1,
                    after: span.len() - head.len(),
                }
            }
        }
    }

    /// The list's pieces in order, each a non-empty slice: one for a list
    /// stored as one, else the part of each chunk the list holds.
    pub fn chunks(&self) -> impl Iterator<Item = &'a [NodeId]> + 'a {
        let this = *self;
        (0..self.pieces()).map(move |j| this.piece(j))
    }

    /// The first piece and the list after it, unless the list is empty.
    pub fn split_first(self) -> Option<(&'a [NodeId], Self)> {
        match self.0 {
            Repr::Flat([]) => None,
            Repr::Flat(ids) => Some((ids, Ids::default())),
            Repr::Span(span) => {
                let (next, last) = (span.first as usize + 1, span.last as usize);
                let rest = Ids::span(span.chunks, (next, 0), (last, span.end as usize), None);
                Some((span.piece(0), rest))
            }
        }
    }

    /// The first id, if any.
    #[inline]
    pub fn first(&self) -> Option<&'a NodeId> {
        match self.0 {
            Repr::Flat(ids) => ids.first(),
            Repr::Span(span) => span.piece(0).first(),
        }
    }

    /// The last id, if any.
    #[inline]
    pub fn last(&self) -> Option<&'a NodeId> {
        match self.0 {
            Repr::Flat(ids) => ids.last(),
            Repr::Span(span) => span.piece(span.pieces() - 1).last(),
        }
    }

    /// The id at position `i`, if any: a walk over the pieces before it.
    pub fn get(&self, mut i: usize) -> Option<&'a NodeId> {
        for piece in self.chunks() {
            match piece.get(i) {
                Some(id) => return Some(id),
                None => i -= piece.len(),
            }
        }
        None
    }

    /// Copies the ids into one vector.
    pub fn to_vec(&self) -> Vec<NodeId> {
        let mut ids = Vec::with_capacity(self.len());
        for piece in self.chunks() {
            ids.extend_from_slice(piece);
        }
        ids
    }

    /// True when `id` is listed, for a list sorted by id.
    pub fn contains(&self, id: NodeId) -> bool {
        self.contains_by(|w| w.cmp(&id))
    }

    /// True when the list holds the id `cmp` seeks (`cmp(w)` orders a
    /// listed `w` against it): a binary search for its piece by the
    /// pieces' first ids, then one inside the piece.
    pub fn contains_by(&self, cmp: impl Fn(NodeId) -> Ordering) -> bool {
        let (mut low, mut high) = (1, self.pieces());
        while low < high {
            let mid = low + (high - low) / 2;
            if cmp(self.piece(mid)[0]) != Ordering::Greater {
                low = mid + 1;
            } else {
                high = mid;
            }
        }
        let piece = if self.is_empty() {
            &[]
        } else {
            self.piece(low - 1)
        };
        piece.binary_search_by(|&w| cmp(w)).is_ok()
    }

    /// Splits the list before its first id that `pred` rejects; `pred`
    /// must hold for a prefix of the list and fail for the rest. A binary
    /// search over the pieces' last ids, then one inside the piece found.
    #[inline(always)]
    pub fn split_by(self, pred: impl Fn(NodeId) -> bool) -> (Self, Self) {
        match self.0 {
            Repr::Flat(ids) => split_slice(ids, ids.partition_point(|&w| pred(w))),
            Repr::Span(span) => span.split_by(pred),
        }
    }

    /// [`Ids::split_by`], found from the front: a prefix within the first
    /// piece is galloped to, so a short one costs a few `pred` calls
    /// however long the list.
    #[inline(always)]
    pub fn split_run(self, pred: impl Fn(NodeId) -> bool) -> (Self, Self) {
        match self.0 {
            Repr::Flat(ids) => {
                let whole = ids.last().is_some_and(|&last| pred(last));
                split_slice(ids, if whole { ids.len() } else { gallop(ids, pred) })
            }
            Repr::Span(span) => span.split_run(pred),
        }
    }

    /// Number of non-empty pieces.
    #[inline]
    fn pieces(&self) -> usize {
        match self.0 {
            Repr::Flat(ids) => usize::from(!ids.is_empty()),
            Repr::Span(span) => span.pieces(),
        }
    }

    /// Piece `j`.
    #[inline]
    fn piece(&self, j: usize) -> &'a [NodeId] {
        match self.0 {
            Repr::Flat(ids) => ids,
            Repr::Span(span) => span.piece(j),
        }
    }
}

impl<'a> Span<'a> {
    fn pieces(&self) -> usize {
        (self.last - self.first) as usize + 1
    }

    fn len(&self) -> usize {
        match self.len {
            UNCOUNTED => (0..self.pieces()).map(|j| self.piece(j).len()).sum(),
            len => len as usize,
        }
    }

    /// Piece `j`: the part of chunk `first + j` the span holds.
    fn piece(&self, j: usize) -> &'a [NodeId] {
        let chunk = self.chunks.leaf(self.first as usize + j);
        let start = if j == 0 { self.start as usize } else { 0 };
        let end = if j + 1 == self.pieces() {
            self.end as usize
        } else {
            chunk.len()
        };
        &chunk[start..end]
    }

    #[inline(never)]
    fn split_run(self, pred: impl Fn(NodeId) -> bool) -> (Ids<'a>, Ids<'a>) {
        match self.piece(0) {
            head if !pred(head[head.len() - 1]) => self.split_at(0, gallop(head, pred)),
            _ => self.split_by(pred),
        }
    }

    #[inline(never)]
    fn split_by(self, pred: impl Fn(NodeId) -> bool) -> (Ids<'a>, Ids<'a>) {
        let n = self.pieces();
        let (mut low, mut high) = (0, n);
        while low < high {
            let mid = low + (high - low) / 2;
            if pred(*self.piece(mid).last().expect("pieces are not empty")) {
                low = mid + 1;
            } else {
                high = mid;
            }
        }
        if low == n {
            return (Ids(Repr::Span(self)), Ids::default());
        }
        let at = self.piece(low).partition_point(|&w| pred(w));
        self.split_at(low, at)
    }

    /// The span before and from position `at` of piece `j`; `at` is below
    /// the piece's length. Neither part is counted.
    #[inline(never)]
    fn split_at(self, j: usize, at: usize) -> (Ids<'a>, Ids<'a>) {
        let (first, chunk) = (self.first as usize, self.first as usize + j);
        let offset = if j == 0 { self.start as usize } else { 0 } + at;
        let prefix = match (j, at) {
            (0, 0) => Ids::default(),
            (_, 0) => {
                let end = self.chunks.leaf(chunk - 1).len();
                Ids::span(
                    self.chunks,
                    (first, self.start as usize),
                    (chunk - 1, end),
                    None,
                )
            }
            _ => Ids::span(
                self.chunks,
                (first, self.start as usize),
                (chunk, offset),
                None,
            ),
        };
        let suffix = Ids::span(
            self.chunks,
            (chunk, offset),
            (self.last as usize, self.end as usize),
            None,
        );
        (prefix, suffix)
    }
}

/// `ids` before and from `at`, as handles.
#[inline]
fn split_slice(ids: &[NodeId], at: usize) -> (Ids<'_>, Ids<'_>) {
    let (before, after) = ids.split_at(at);
    (Ids::from(before), Ids::from(after))
}

/// How many ids at the front of `ids` `pred` accepts (it holds for a
/// prefix only), found by doubling a stride from the front and bisecting
/// the last bracket: `O(log run)` calls.
#[inline]
fn gallop(ids: &[NodeId], pred: impl Fn(NodeId) -> bool) -> usize {
    if !ids.first().is_some_and(|&w| pred(w)) {
        return 0;
    }
    // `ids[lo]` passes; double the stride until one does not.
    let (mut lo, mut stride) = (0, 1);
    while lo + stride < ids.len() && pred(ids[lo + stride]) {
        lo += stride;
        stride *= 2;
    }
    let hi = (lo + stride).min(ids.len());
    lo + 1 + ids[lo + 1..hi].partition_point(|&w| pred(w))
}

impl<'a> IntoIterator for Ids<'a> {
    type Item = &'a NodeId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Prints like the slice it stands for.
impl std::fmt::Debug for Ids<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Equal to any id list with the same ids in the same order.
impl<T: AsRef<[NodeId]> + ?Sized> PartialEq<T> for Ids<'_> {
    fn eq(&self, other: &T) -> bool {
        let other = other.as_ref();
        self.len() == other.len() && self.iter().eq(other)
    }
}

impl PartialEq<Ids<'_>> for Ids<'_> {
    fn eq(&self, other: &Ids<'_>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Ids<'_> {}

/// Iterator over an [`Ids`] list.
#[derive(Clone)]
pub struct Iter<'a> {
    current: std::slice::Iter<'a, NodeId>,
    /// The list's pieces when it has more than one, and the next to read.
    span: Option<Span<'a>>,
    next: usize,
    /// Ids in the pieces after the current one.
    after: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a NodeId;

    #[inline]
    fn next(&mut self) -> Option<&'a NodeId> {
        loop {
            if let Some(id) = self.current.next() {
                return Some(id);
            }
            let span = self.span.as_ref()?;
            if self.next == span.pieces() {
                return None;
            }
            self.current = span.piece(self.next).iter();
            self.after -= self.current.len();
            self.next += 1;
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.current.len() + self.after;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl std::fmt::Debug for Iter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.clone()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(range: impl IntoIterator<Item = u32>) -> Vec<NodeId> {
        range.into_iter().map(NodeId).collect()
    }

    /// Every chunk non-empty, within the split bound, ordered within and
    /// below the next.
    fn assert_chunk_invariants(list: &Chunked) {
        let chunks: Vec<&Vec<NodeId>> = list.chunks.iter().collect();
        assert_eq!(chunks.iter().map(|c| c.len()).sum::<usize>(), list.len);
        for chunk in &chunks {
            assert!(!chunk.is_empty() && chunk.len() < 2 * CHUNK_TARGET);
            assert!(chunk.windows(2).all(|w| w[0] < w[1]));
        }
        for pair in chunks.windows(2) {
            assert!(pair[0].last() < pair[1].first());
        }
    }

    /// Everything a handle answers, against the slice it stands for.
    fn assert_handle(handle: Ids<'_>, model: &[NodeId]) {
        assert_eq!(handle.len(), model.len());
        assert_eq!(handle.is_empty(), model.is_empty());
        assert!(handle.iter().eq(model.iter()));
        assert_eq!(handle.to_vec(), model);
        assert_eq!(
            handle.chunks().map(<[NodeId]>::len).sum::<usize>(),
            model.len()
        );
        assert!(handle.chunks().all(|piece| !piece.is_empty()));
        assert_eq!(
            (handle.first(), handle.last()),
            (model.first(), model.last())
        );
        for (i, &id) in model.iter().enumerate().step_by(37) {
            assert_eq!(handle.get(i), Some(&id));
            assert!(handle.contains(id));
            assert!(!handle.contains(NodeId(id.0 + 1)) || model.contains(&NodeId(id.0 + 1)));
        }
        assert_eq!(handle.get(model.len()), None);
    }

    #[test]
    fn handles_split_anywhere_like_the_slice() {
        let model = ids((0..5 * CHUNK_TARGET as u32 + 77).map(|i| 3 * i));
        let list = Chunked::from_sorted(&model);
        assert!(list.chunk_count() > 2);
        let whole = list.ids();
        assert_handle(whole, &model);
        assert_eq!(whole.as_slice(), None);
        let cuts = [
            0,
            1,
            5,
            CHUNK_TARGET - 1,
            CHUNK_TARGET,
            2 * CHUNK_TARGET + 3,
            model.len() - 1,
            model.len(),
        ];
        for &a in &cuts {
            let pivot = model.get(a).map_or(u32::MAX, |id| id.0);
            for galloped in [false, true] {
                let (before, after) = match galloped {
                    false => whole.split_by(|w| w.0 < pivot),
                    true => whole.split_run(|w| w.0 < pivot),
                };
                assert_handle(before, &model[..a]);
                assert_handle(after, &model[a..]);
                // A split of a split: every shape of handle splits again.
                for &b in &cuts {
                    let b = b.min(model.len() - a);
                    let pivot = model.get(a + b).map_or(u32::MAX, |id| id.0);
                    let (inner, rest) = after.split_by(|w| w.0 < pivot);
                    assert_handle(inner, &model[a..a + b]);
                    assert_handle(rest, &model[a + b..]);
                }
            }
        }
        let slice = Ids::from(&model[..10]);
        assert_eq!(slice.as_slice(), Some(&model[..10]));
        assert_handle(slice.split_run(|w| w.0 < 9).1, &model[3..10]);
    }

    #[test]
    fn a_short_prefix_is_galloped_to() {
        let model = ids(0..4 * CHUNK_TARGET as u32);
        let list = Chunked::from_sorted(&model);
        let calls = std::cell::Cell::new(0);
        let (run, _) = list.ids().split_run(|w| {
            calls.set(calls.get() + 1);
            w.0 < 3
        });
        assert_eq!(run, model[..3]);
        assert!(calls.get() <= 6, "{} calls", calls.get());
    }

    /// Seeded inserts and removes at the front, middle and end of a list
    /// that crosses the chunk bounds in both directions, a clone pinned
    /// at every step, against a `Vec` model.
    #[test]
    fn random_edits_with_pinned_clones_agree_with_a_vec_model() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let span = 6 * CHUNK_TARGET as u64;
        let mut list = Chunked::default();
        let mut model: Vec<NodeId> = Vec::new();
        let mut pins: Vec<(Chunked, Vec<NodeId>)> = Vec::new();
        let (mut copied, mut longest) = (0, 0);
        // Grow, churn, then drain to empty: inserts win first, removes last.
        for (steps, insert_bias) in [(9_000, 9), (6_000, 5), (30_000, 1)] {
            for step in 0..steps {
                // A third of the probes aim at either end of the list.
                let id = match (next(3), model.first(), model.last()) {
                    (0, Some(first), _) => NodeId(first.0.saturating_sub(next(2) as u32)),
                    (1, _, Some(last)) => NodeId(last.0 + next(2) as u32),
                    _ => NodeId(next(span) as u32),
                };
                let cmp = |w: NodeId| w.cmp(&id);
                let pos = model.binary_search(&id);
                if next(10) < insert_bias {
                    let done = list.insert_by(id, cmp);
                    assert_eq!(done.is_some(), pos.is_err());
                    copied += done.unwrap_or(0);
                    if let Err(pos) = pos {
                        model.insert(pos, id);
                    }
                } else {
                    let done = list.remove_by(cmp);
                    assert_eq!(done.is_some(), pos.is_ok());
                    copied += done.unwrap_or(0);
                    if let Ok(pos) = pos {
                        model.remove(pos);
                    }
                }
                if step % 500 == 0 {
                    assert_chunk_invariants(&list);
                    assert_handle(list.ids(), &model);
                }
                longest = longest.max(model.len());
                pins.push((list.clone(), model.clone()));
                if pins.len() > 8 {
                    let (pinned, held) = pins.remove(next(8) as usize);
                    assert_handle(pinned.ids(), &held);
                }
            }
            assert!(copied > 0, "edits found chunks a pin shared");
        }
        assert!(longest > 3 * CHUNK_TARGET && model.len() < CHUNK_TARGET);
        assert_chunk_invariants(&list);
        assert_handle(list.ids(), &model);
        for (pinned, held) in &pins {
            assert_chunk_invariants(pinned);
            assert_handle(pinned.ids(), held);
        }
    }

    #[test]
    fn an_edit_copies_one_chunk_whatever_the_length() {
        for n in [3 * CHUNK_TARGET, 40 * CHUNK_TARGET, 200 * CHUNK_TARGET] {
            let base = Chunked::from_sorted(&ids((0..n as u32).map(|i| 2 * i)));
            for at in [0, n / 2, n - 1] {
                let mut list = base.clone();
                let id = NodeId(2 * at as u32 + 1);
                assert_eq!(list.insert_by(id, |w| w.cmp(&id)), Some(CHUNK_TARGET));
                assert_eq!(list.chunks.leaves_copied(), 1);
                assert!(list.chunks.groups_copied() <= 1);
                assert_eq!(list.remove_by(|w| w.cmp(&id)), Some(0), "now unshared");
                assert_eq!(list.ids(), base.ids());
            }
        }
    }
}
