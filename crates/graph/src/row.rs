//! [`Row`]: a sorted list of node ids kept by value, the access indices'.
//!
//! The access indices in `bgpq-access` store every key and every answer
//! list of a global or `|S| ≥ 2` constraint as a `Row`, sorted by id. (The
//! graph's adjacency rows are not `Row`s: a page of them is one buffer, see
//! `adjacency.rs`.) Most keys and many answer lists are short — an
//! `|S|`-tuple key, a pair's few common neighbours — so the short ones live
//! inside the row itself and a table of rows is a flat table: copying it
//! allocates nothing and dropping it frees nothing per entry. A global
//! index's answer list is long, and a commit that edits it must not copy it
//! whole: past one chunk's worth of ids a row is chunked, so an edit copies
//! one chunk whatever the row's length.

use crate::chunked::{Chunked, Ids, CHUNK_TARGET};
use crate::graph::NodeId;
use std::fmt;
use std::sync::Arc;

/// Ids a [`Row`] holds in place, without an allocation of its own.
pub const INLINE_ROW: usize = 5;

/// Ids at which a row becomes chunked: the length at which a chunk splits.
const CHUNKED_ROW: usize = 2 * CHUNK_TARGET;

/// A list of node ids sorted by id.
///
/// A row takes one of three forms, by length, and fills the 24 bytes of a
/// `Vec` in each:
///
/// * up to [`INLINE_ROW`] ids live inside the row: no allocation, no
///   reference count, no pointer hop to read them;
/// * a longer row, up to one chunk, is one `Arc<[NodeId]>` that every clone
///   shares, so copying a page of rows never copies a long list. It is
///   edited inside its buffer while no clone shares it (growing into spare
///   room it keeps at the tail, doubled when it runs out, like a `Vec`),
///   and copied once when a clone does;
/// * a row that reaches two chunks' worth ([`CHUNK_TARGET`] ids each) is
///   chunked: sorted chunks behind one shared `Arc`, so an edit under a
///   clone copies one chunk, at most one group of 64 chunk pointers and
///   the row's top level (a pointer per 64 chunks) — whatever its length.
///
/// An edit moves a row between forms at the boundaries: an inline row
/// spills when it outgrows [`INLINE_ROW`], a shared one moves back inline
/// when it shrinks to it; a shared row is chunked when it reaches two
/// chunks, and a chunked row whose chunks merge into one is shared again.
///
/// A row is read through its [`Ids`] handle ([`Row::ids`]) and edited by
/// id ([`Row::insert`], [`Row::remove`]).
#[derive(Clone)]
pub struct Row(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        ids: [NodeId; INLINE_ROW],
    },
    /// The row is `ids[..len]`; the rest of the buffer is room to grow.
    Shared {
        len: u32,
        ids: Arc<[NodeId]>,
    },
    Chunked(Arc<Chunked>),
}

impl Row {
    /// The ids, borrowed.
    #[inline]
    pub fn ids(&self) -> Ids<'_> {
        match &self.0 {
            Repr::Inline { len, ids } => Ids::from(&ids[..usize::from(*len)]),
            Repr::Shared { len, ids } => Ids::from(&ids[..*len as usize]),
            Repr::Chunked(chunks) => chunks.ids(),
        }
    }

    /// Number of ids.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => usize::from(*len),
            Repr::Shared { len, .. } => *len as usize,
            Repr::Chunked(chunks) => chunks.len(),
        }
    }

    /// True when the row holds no id.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the ids live inside the row rather than behind an `Arc`.
    fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }

    /// True when the row is chunked.
    #[cfg(test)]
    pub(crate) fn is_chunked(&self) -> bool {
        matches!(self.0, Repr::Chunked(_))
    }

    /// Inserts `id`. Returns `None` when it is already listed, else the
    /// number of ids copied because a clone shared the buffer or chunk the
    /// edit landed in.
    pub fn insert(&mut self, id: NodeId) -> Option<usize> {
        if let Repr::Chunked(chunks) = &mut self.0 {
            return Arc::make_mut(chunks).insert_by(id, |w| w.cmp(&id));
        }
        let pos = self.flat().binary_search(&id).err()?;
        Some(self.insert_flat(pos, id))
    }

    /// Removes `id`. Returns `None` when it is not listed, else the number
    /// of ids copied because a clone shared the buffer or chunks the edit
    /// landed in.
    pub fn remove(&mut self, id: NodeId) -> Option<usize> {
        let Repr::Chunked(chunks) = &mut self.0 else {
            let pos = self.flat().binary_search(&id).ok()?;
            return Some(self.remove_flat(pos));
        };
        let chunks = Arc::make_mut(chunks);
        let copied = chunks.remove_by(|w| w.cmp(&id))?;
        if chunks.chunk_count() <= 1 {
            *self = Row::from(&chunks.ids().to_vec()[..]);
        }
        Some(copied)
    }

    /// Bytes the row holds outside itself: a shared row's buffer, spare
    /// room included, or a chunked row's chunks (counted whole by every row
    /// that shares them). An inline row holds none.
    pub fn heap_bytes(&self) -> usize {
        let counts = 2 * std::mem::size_of::<usize>();
        match &self.0 {
            Repr::Inline { .. } => 0,
            Repr::Shared { ids, .. } => counts + std::mem::size_of_val::<[NodeId]>(ids),
            Repr::Chunked(chunks) => counts + std::mem::size_of::<Chunked>() + chunks.heap_bytes(),
        }
    }

    /// An inline or shared row's ids.
    fn flat(&self) -> &[NodeId] {
        match &self.0 {
            Repr::Inline { len, ids } => &ids[..usize::from(*len)],
            Repr::Shared { len, ids } => &ids[..*len as usize],
            Repr::Chunked(_) => unreachable!("a chunked row has no one slice"),
        }
    }

    /// Inserts `id` at `pos` of an inline or shared row, chunking a row
    /// that reaches [`CHUNKED_ROW`]; returns the ids copied because a clone
    /// shared the buffer.
    fn insert_flat(&mut self, pos: usize, id: NodeId) -> usize {
        let len = self.len();
        if let Some(buf) = self.buffer_mut(len + 1) {
            buf.copy_within(pos..len, pos + 1);
            buf[pos] = id;
            self.set_len(len + 1);
            return 0;
        }
        // Out of room: a buffer this row holds alone doubles, a shared one
        // is copied at its new size.
        let unshared = self.buffer_mut(0).is_some();
        let old = self.flat();
        let parts = [&old[..pos], &[id], &old[pos..]];
        if len + 1 >= CHUNKED_ROW {
            self.0 = Repr::Chunked(Arc::new(Chunked::from_sorted(&parts.concat())));
            return 0;
        }
        let room = if unshared { 2 * len } else { len + 1 };
        self.0 = shared(&parts, room.min(CHUNKED_ROW - 1));
        if unshared || len <= INLINE_ROW {
            0
        } else {
            len
        }
    }

    /// Removes the id at `pos` of an inline or shared row; returns the ids
    /// copied because a clone shared the buffer.
    fn remove_flat(&mut self, pos: usize) -> usize {
        let len = self.len();
        if self.is_inline() || len - 1 > INLINE_ROW {
            if let Some(buf) = self.buffer_mut(len) {
                buf.copy_within(pos + 1..len, pos);
                self.set_len(len - 1);
                return 0;
            }
        }
        let old = self.flat();
        let (before, after) = (&old[..pos], &old[pos + 1..]);
        if len - 1 > INLINE_ROW {
            self.0 = shared(&[before, after], len - 1);
            return len - 1;
        }
        let mut ids = [NodeId(0); INLINE_ROW];
        ids[..pos].copy_from_slice(before);
        ids[pos..len - 1].copy_from_slice(after);
        self.0 = Repr::Inline {
            len: (len - 1) as u8,
            ids,
        };
        0
    }

    /// An inline or shared row's whole buffer, when no clone shares it and
    /// it has room for `need` ids.
    fn buffer_mut(&mut self, need: usize) -> Option<&mut [NodeId]> {
        match &mut self.0 {
            Repr::Inline { ids, .. } => (need <= INLINE_ROW).then_some(&mut ids[..]),
            Repr::Shared { ids, .. } => Arc::get_mut(ids).filter(|buf| need <= buf.len()),
            Repr::Chunked(_) => None,
        }
    }

    fn set_len(&mut self, new: usize) {
        match &mut self.0 {
            Repr::Inline { len, .. } => *len = new as u8,
            Repr::Shared { len, .. } => *len = new as u32,
            Repr::Chunked(_) => unreachable!("a chunked row keeps its own length"),
        }
    }
}

/// A shared row of `parts` laid end to end, in a new buffer of `room` ids:
/// one allocation, then a slice copy per part.
fn shared(parts: &[&[NodeId]], room: usize) -> Repr {
    let mut ids: Arc<[NodeId]> = std::iter::repeat(NodeId(0)).take(room).collect();
    let buf = Arc::get_mut(&mut ids).expect("a new buffer is not shared");
    let mut len = 0;
    for part in parts {
        buf[len..len + part.len()].copy_from_slice(part);
        len += part.len();
    }
    Repr::Shared {
        len: len as u32,
        ids,
    }
}

impl Default for Row {
    fn default() -> Self {
        Row::from(&[][..])
    }
}

/// The form the length calls for.
impl From<&[NodeId]> for Row {
    fn from(ids: &[NodeId]) -> Self {
        if ids.len() >= CHUNKED_ROW {
            return Row(Repr::Chunked(Arc::new(Chunked::from_sorted(ids))));
        }
        if ids.len() > INLINE_ROW {
            return Row(Repr::Shared {
                len: ids.len() as u32,
                ids: Arc::from(ids),
            });
        }
        let mut buf = [NodeId(0); INLINE_ROW];
        buf[..ids.len()].copy_from_slice(ids);
        Row(Repr::Inline {
            len: ids.len() as u8,
            ids: buf,
        })
    }
}

impl PartialEq for Row {
    fn eq(&self, other: &Row) -> bool {
        self.ids() == other.ids()
    }
}

impl Eq for Row {}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.ids().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(range: std::ops::Range<u32>) -> Vec<NodeId> {
        range.map(NodeId).collect()
    }

    fn put(row: &mut Row, id: NodeId) -> Option<usize> {
        row.insert(id)
    }

    fn take(row: &mut Row, id: NodeId) -> Option<usize> {
        row.remove(id)
    }

    fn first_ptr(row: &Row) -> *const NodeId {
        row.ids().first().expect("not empty")
    }

    #[test]
    fn a_row_fills_the_bytes_of_a_vec() {
        assert_eq!(
            std::mem::size_of::<Row>(),
            std::mem::size_of::<Vec<NodeId>>()
        );
    }

    /// Grows one row from empty past the inline limit and back, against a
    /// `Vec` model, at the front, middle and back in turn; a clone pinned
    /// at every step keeps what it held.
    #[test]
    fn edits_spill_and_unspill_at_the_inline_limit() {
        let mut row = Row::default();
        let mut model: Vec<NodeId> = Vec::new();
        let mut pins: Vec<(Row, Vec<NodeId>)> = Vec::new();
        for i in 0..4 * INLINE_ROW as u32 {
            // Ids spaced apart, so that there is always room between two.
            let id = match (i % 3, model.first(), model.last()) {
                (0, Some(first), _) => NodeId(first.0 - 1),
                (1, _, _) if model.len() >= 2 => {
                    let mid = model.len() / 2;
                    NodeId((model[mid - 1].0 + model[mid].0) / 2)
                }
                (_, _, Some(last)) => NodeId(last.0 + 1000),
                _ => NodeId(1 << 20),
            };
            assert!(put(&mut row, id).is_some());
            assert_eq!(put(&mut row, id), None, "already listed");
            let pos = model.binary_search(&id).unwrap_err();
            model.insert(pos, id);
            assert_eq!(row.ids(), model);
            assert_eq!(row.is_inline(), model.len() <= INLINE_ROW);
            if i % 2 == 0 {
                pins.push((row.clone(), model.clone()));
            }
        }
        while !model.is_empty() {
            let pos = [0, model.len() / 2, model.len() - 1][model.len() % 3];
            let id = model.remove(pos);
            assert!(take(&mut row, id).is_some());
            assert_eq!(take(&mut row, id), None, "already gone");
            assert_eq!(row.ids(), model);
            assert_eq!(row.is_inline(), model.len() <= INLINE_ROW);
            pins.push((row.clone(), model.clone()));
        }
        for (pinned, held) in &pins {
            assert_eq!(pinned.ids(), held);
        }
    }

    #[test]
    fn an_unshared_row_grows_in_place() {
        let mut row = Row::from(&ids(0..INLINE_ROW as u32 + 1)[..]);
        assert_eq!(put(&mut row, NodeId(6)), Some(0)); // full: the buffer doubles
        let buffer = first_ptr(&row);
        for i in 7..12 {
            assert_eq!(put(&mut row, NodeId(i)), Some(0));
        }
        assert_eq!(first_ptr(&row), buffer, "no copy while there is room");
        assert_eq!(row.ids(), ids(0..12));
        let pinned = row.clone();
        assert_eq!(
            take(&mut row, NodeId(0)),
            Some(11),
            "a shared buffer is copied"
        );
        assert_ne!(first_ptr(&row), first_ptr(&pinned));
        assert_eq!(
            (row.ids(), pinned.ids()),
            (Ids::from(&ids(1..12)[..]), Ids::from(&ids(0..12)[..]))
        );
    }

    /// Seeded inserts and removes at the front, middle and end of a row
    /// that crosses the chunk threshold in both directions, with a clone
    /// pinned at every step, against a `Vec` model. Every edit under a pin
    /// copies at most one chunk's worth of ids once the row is chunked.
    #[test]
    fn rows_cross_the_chunk_threshold_both_ways_under_pins() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let mut row = Row::default();
        let mut model: Vec<NodeId> = Vec::new();
        let mut pins: Vec<(Row, Vec<NodeId>)> = Vec::new();
        let (mut was_chunked, mut unchunked) = (false, false);
        // Grow well past two chunks, then shrink back to a few ids.
        for (steps, grow) in [(5 * CHUNKED_ROW, true), (6 * CHUNKED_ROW, false)] {
            for _ in 0..steps {
                let id = match next(3) {
                    0 => model.first().map_or(NodeId(0), |&w| w),
                    1 => model.last().map_or(NodeId(0), |&w| w),
                    _ => NodeId(next(4 * CHUNKED_ROW as u64) as u32),
                };
                // Near an end, step to a neighbour of it that may be new.
                let id = NodeId(id.0 + next(2) as u32);
                let pos = model.binary_search(&id);
                let copied = if grow {
                    let copied = row.insert(id);
                    assert_eq!(copied.is_some(), pos.is_err());
                    if let Err(pos) = pos {
                        model.insert(pos, id);
                    }
                    copied
                } else {
                    let copied = row.remove(id);
                    assert_eq!(copied.is_some(), pos.is_ok());
                    if let Ok(pos) = pos {
                        model.remove(pos);
                    }
                    copied
                };
                // The last pin shares the row: every edit copies, a chunk's
                // worth at most.
                assert!(copied.unwrap_or(0) < CHUNKED_ROW, "one chunk at most");
                was_chunked |= row.is_chunked();
                unchunked |= was_chunked && !row.is_chunked();
                assert_eq!(row.is_chunked(), row.ids().as_slice().is_none());
                assert!(model.len() < CHUNKED_ROW || row.is_chunked());
                if next(4) == 0 {
                    assert_eq!(row.ids(), model);
                }
                pins.push((row.clone(), model.clone()));
                if pins.len() > 6 {
                    let (pinned, held) = pins.remove(next(6) as usize);
                    assert_eq!(pinned.ids(), held);
                }
            }
        }
        assert!(was_chunked && unchunked, "crossed the threshold both ways");
        for (pinned, held) in &pins {
            assert_eq!(pinned.ids(), held);
        }
    }
}
