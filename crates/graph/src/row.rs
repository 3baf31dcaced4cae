//! [`Row`]: the workspace's one short sorted list of node ids, kept by value.
//!
//! The graph stores every adjacency list as a `Row` (sorted by `(label,
//! id)`), and the access indices in `bgpq-access` store every key and every
//! answer list of a global or `|S| ≥ 2` constraint as one (sorted by id).
//! Most of those lists are short — a node's few neighbours, an `|S|`-tuple
//! key — so the short ones live inside the row itself and a table of rows is
//! a flat table: copying it allocates nothing and dropping it frees nothing
//! per entry.

use crate::graph::NodeId;
use std::fmt;
use std::sync::Arc;

/// Ids a [`Row`] holds in place, without an allocation of its own.
pub const INLINE_ROW: usize = 5;

/// A short list of node ids, kept in whatever order its owner sorts it by.
///
/// Up to [`INLINE_ROW`] ids live inside the row: no allocation, no reference
/// count, no pointer hop to read them. A longer row is one `Arc<[NodeId]>`
/// that every clone shares, so copying a page of rows never
/// copies a long list. Both forms fill the 24 bytes of a `Vec`.
///
/// A row reads and compares as the slice it holds. [`Row::insert`] and
/// [`Row::remove`] edit it in place: an inline row stays inline while it
/// fits and spills at the boundary; a shared row is edited inside its buffer while no clone
/// shares it (growing into spare room it keeps at the tail, doubled when it
/// runs out, like a `Vec`), is copied once when a clone does, and moves back
/// inline when it shrinks to [`INLINE_ROW`] ids.
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
}

impl Row {
    /// True when the ids live inside the row rather than behind an `Arc`.
    pub(crate) fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }

    /// Inserts `id` at `pos`, shifting the ids after it right.
    ///
    /// # Panics
    /// Panics when `pos > self.len()`.
    pub fn insert(&mut self, pos: usize, id: NodeId) {
        let len = self.len();
        assert!(pos <= len, "insert at {pos} into a row of {len}");
        if let Some(buf) = self.buffer_mut(len + 1) {
            buf.copy_within(pos..len, pos + 1);
            buf[pos] = id;
            self.set_len(len + 1);
            return;
        }
        // Out of room: a buffer this row holds alone doubles, a shared one
        // is copied at its new size.
        let room = if self.buffer_mut(0).is_some() {
            2 * len
        } else {
            len + 1
        };
        let old = &self[..];
        self.0 = shared(&[&old[..pos], &[id], &old[pos..]], room);
    }

    /// Removes and returns the id at `pos`, shifting the ids after it left.
    ///
    /// # Panics
    /// Panics when `pos >= self.len()`.
    pub fn remove(&mut self, pos: usize) -> NodeId {
        let len = self.len();
        assert!(pos < len, "remove at {pos} from a row of {len}");
        let id = self[pos];
        if self.is_inline() || len - 1 > INLINE_ROW {
            if let Some(buf) = self.buffer_mut(len) {
                buf.copy_within(pos + 1..len, pos);
                self.set_len(len - 1);
                return id;
            }
        }
        let old = &self[..];
        let (before, after) = (&old[..pos], &old[pos + 1..]);
        self.0 = if len - 1 > INLINE_ROW {
            shared(&[before, after], len - 1)
        } else {
            let mut ids = [NodeId(0); INLINE_ROW];
            ids[..pos].copy_from_slice(before);
            ids[pos..len - 1].copy_from_slice(after);
            Repr::Inline {
                len: (len - 1) as u8,
                ids,
            }
        };
        id
    }

    /// Bytes the row holds outside itself: a shared row's buffer, spare
    /// room included (counted whole by every row that shares it). An inline
    /// row holds none.
    pub fn heap_bytes(&self) -> usize {
        match &self.0 {
            Repr::Inline { .. } => 0,
            Repr::Shared { ids, .. } => {
                2 * std::mem::size_of::<usize>() + std::mem::size_of_val::<[NodeId]>(ids)
            }
        }
    }

    /// The row's whole buffer, when no clone shares it and it has room for
    /// `need` ids.
    fn buffer_mut(&mut self, need: usize) -> Option<&mut [NodeId]> {
        match &mut self.0 {
            Repr::Inline { ids, .. } => (need <= INLINE_ROW).then_some(&mut ids[..]),
            Repr::Shared { ids, .. } => Arc::get_mut(ids).filter(|buf| need <= buf.len()),
        }
    }

    fn set_len(&mut self, new: usize) {
        match &mut self.0 {
            Repr::Inline { len, .. } => *len = new as u8,
            Repr::Shared { len, .. } => *len = new as u32,
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

impl From<&[NodeId]> for Row {
    fn from(ids: &[NodeId]) -> Self {
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

impl std::ops::Deref for Row {
    type Target = [NodeId];

    #[inline]
    fn deref(&self) -> &[NodeId] {
        match &self.0 {
            Repr::Inline { len, ids } => &ids[..usize::from(*len)],
            Repr::Shared { len, ids } => &ids[..*len as usize],
        }
    }
}

impl PartialEq for Row {
    fn eq(&self, other: &Row) -> bool {
        **self == **other
    }
}

impl Eq for Row {}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(range: std::ops::Range<u32>) -> Vec<NodeId> {
        range.map(NodeId).collect()
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
            let pos = [0, model.len() / 2, model.len()][i as usize % 3];
            row.insert(pos, NodeId(i));
            model.insert(pos, NodeId(i));
            assert_eq!(&row[..], &model[..]);
            assert_eq!(row.is_inline(), model.len() <= INLINE_ROW);
            if i % 2 == 0 {
                pins.push((row.clone(), model.clone()));
            }
        }
        while !model.is_empty() {
            let pos = [0, model.len() / 2, model.len() - 1][model.len() % 3];
            assert_eq!(row.remove(pos), model.remove(pos));
            assert_eq!(&row[..], &model[..]);
            assert_eq!(row.is_inline(), model.len() <= INLINE_ROW);
            pins.push((row.clone(), model.clone()));
        }
        for (pinned, held) in &pins {
            assert_eq!(&pinned[..], &held[..]);
        }
    }

    #[test]
    fn an_unshared_row_grows_in_place() {
        let mut row = Row::from(&ids(0..INLINE_ROW as u32 + 1)[..]);
        row.insert(6, NodeId(6)); // full: the buffer doubles
        let buffer = row.as_ptr();
        for i in 7..12 {
            row.insert(i as usize, NodeId(i));
        }
        assert_eq!(row.as_ptr(), buffer, "no copy while there is room");
        assert_eq!(&row[..], &ids(0..12)[..]);
        let pinned = row.clone();
        row.remove(0);
        assert_ne!(row.as_ptr(), pinned.as_ptr(), "a shared buffer is copied");
        assert_eq!((&row[..], &pinned[..]), (&ids(1..12)[..], &ids(0..12)[..]));
    }
}
