//! One direction of the graph's adjacency, a page of rows to a buffer.
//!
//! A node's row lists its neighbours in one direction, sorted by
//! `(neighbour label, id)`; the rows of [`PAGE_SIZE`] consecutive nodes
//! make a [`RowPage`], and the pages are the leaves of a [`Spine`], so a
//! clone of the graph shares them and a write copies the page it lands in.
//!
//! **A page is one buffer of ids.** Most rows are short — on the 600k-node
//! benchmark graph 92% of them hold three ids or fewer — so a page does not
//! give each row a slot of its own. It holds its rows' `u16` bounds inline
//! and one buffer with the ids of its rows, row after row: a row is the
//! slice between its two bounds. A read loads the bounds and the buffer's
//! pointer side by side from the page, then the ids; with the bounds at
//! the head of the id buffer instead, a random row read waited on one load
//! more and took 60–105 ns where a row in its own slot took 36–45 (41–72
//! ns as laid out here; 600k- and 3.0M-node graphs). Copying a page on
//! write is one copy of the bounds and of the buffer, and nothing in them
//! holds a reference count.
//!
//! **Long rows are chunked beside the buffer.** A row of [`HUB_ROW`] ids or
//! more, and a row that would take its page past [`PAGE_IDS`] ids, is held
//! as a [`Chunked`] list behind its own `Arc` next to the buffer (its end
//! bound is its start, flagged). An edit under a clone then copies one
//! chunk of it, and a page copy is bounded by [`PAGE_IDS`] whatever the
//! degrees. Which rows are chunked is a function of the page's rows alone —
//! walking them in order, a row stays in the buffer when it is shorter than
//! [`HUB_ROW`] and fits beside the rows kept before it — so a graph built in
//! bulk and the same graph grown edge by edge lay their pages out alike.
//!
//! Edits keep that rule. An insert or a delete in a buffer row shifts the
//! ids after it and bumps the bounds that follow; an edit that would
//! change which rows are chunked (a row reaching [`HUB_ROW`], a page
//! reaching [`PAGE_IDS`], a chunked row falling below [`HUB_ROW`], a delete
//! where a row was chunked for room) cuts the page again from its rows,
//! reusing the chunked lists that stay chunked. Both cost about one copy
//! of the page.

use crate::chunked::{Chunked, Ids, CHUNK_TARGET};
use crate::graph::NodeId;
use crate::paged::PAGE_SIZE;
use crate::spine::Spine;
use std::cmp::Ordering;
use std::sync::Arc;

/// Ids at which a row is held in chunks beside its page rather than in it:
/// the length at which a chunk splits.
pub const HUB_ROW: usize = 2 * CHUNK_TARGET;

/// Ids a page holds of its own rows at most (16 KB); a row that would take
/// its page past this is chunked beside it.
pub const PAGE_IDS: usize = 16 * PAGE_SIZE;

/// Set in bound `r + 1` when row `r` is chunked.
const CHUNKED: u16 = 1 << 15;

/// Ids an unshared copy of a page has room for past its own, so that the
/// rest of a commit's edits to the page do not reallocate it.
const COPY_ROOM: usize = 16;

const _: () = assert!(PAGE_IDS < CHUNKED as usize);

/// The rows of [`PAGE_SIZE`] consecutive nodes (see the module docs).
pub(crate) struct RowPage {
    /// Row `r` is `ids[bounds[r]..bounds[r + 1]]`, the flag masked off
    /// bound `r`; a flagged bound `r + 1` marks row `r` chunked.
    bounds: [u16; PAGE_SIZE + 1],
    /// The ids of the rows held here, row after row.
    ids: Vec<NodeId>,
    /// The chunked rows, by row index, ascending.
    chunked: Vec<(usize, Arc<Chunked>)>,
}

/// A copy with a little room to grow, for the edits that follow it.
impl Clone for RowPage {
    fn clone(&self) -> Self {
        let mut ids = Vec::with_capacity(self.ids.len() + COPY_ROOM);
        ids.extend_from_slice(&self.ids);
        RowPage {
            bounds: self.bounds,
            ids,
            chunked: self.chunked.clone(),
        }
    }
}

impl RowPage {
    /// A page of empty rows.
    fn empty() -> Self {
        Cut::new().finish()
    }

    /// The buffer range of row `r`'s ids (empty when it is chunked).
    #[inline]
    fn range(&self, r: usize) -> std::ops::Range<usize> {
        let start = self.bounds[r] & !CHUNKED;
        usize::from(start)..usize::from(self.bounds[r + 1] & !CHUNKED)
    }

    /// Row `r`.
    #[inline]
    fn row(&self, r: usize) -> Ids<'_> {
        let end = self.bounds[r + 1];
        if end & CHUNKED != 0 {
            return self.chunked_row(r).ids();
        }
        let start = self.bounds[r] & !CHUNKED;
        Ids::from(&self.ids[usize::from(start)..usize::from(end)])
    }

    #[inline]
    fn is_chunked(&self, r: usize) -> bool {
        self.bounds[r + 1] & CHUNKED != 0
    }

    /// Where row `r`'s list is in `chunked`.
    fn chunked_at(&self, r: usize) -> usize {
        let at = self.chunked.binary_search_by_key(&r, |&(row, _)| row);
        at.expect("a flagged row has a chunked list")
    }

    #[cold]
    #[inline(never)]
    fn chunked_row(&self, r: usize) -> &Chunked {
        &self.chunked[self.chunked_at(r)].1
    }

    /// True when a row shorter than [`HUB_ROW`] is chunked: the page ran
    /// out of room, and a delete may let a row back in.
    fn spilled(&self) -> bool {
        self.chunked.iter().any(|(_, list)| list.len() < HUB_ROW)
    }

    /// Row `r` as a source for [`Cut::push`].
    fn source(&self, r: usize) -> Source<'_> {
        match self.is_chunked(r) {
            true => Source::Chunked(self.chunked[self.chunked_at(r)].1.clone()),
            false => Source::Ids(&self.ids[self.range(r)]),
        }
    }

    /// The page cut again from its rows, row `r` replaced by `edited`.
    fn recut(&self, r: usize, edited: Source<'_>) -> RowPage {
        let mut cut = Cut::new();
        let mut edited = Some(edited);
        for j in 0..PAGE_SIZE {
            match j == r {
                true => cut.push(edited.take().expect("one row is edited")),
                false => cut.push(self.source(j)),
            }
        }
        cut.finish()
    }

    /// Inserts `id`, which row `r` does not list, where `cmp` orders it;
    /// returns the ids copied to un-share a chunk.
    fn insert(&mut self, r: usize, id: NodeId, cmp: impl Fn(NodeId) -> Ordering) -> usize {
        if self.is_chunked(r) {
            // A chunked row only grows: no row changes form.
            let at = self.chunked_at(r);
            let list = Arc::make_mut(&mut self.chunked[at].1);
            return list
                .insert_by(id, cmp)
                .expect("the row does not list the id");
        }
        let range = self.range(r);
        let ids = &self.ids[range.clone()];
        let pos = ids.binary_search_by(|&w| cmp(w)).expect_err("not listed");
        if ids.len() + 1 >= HUB_ROW || self.ids.len() + 1 > PAGE_IDS {
            let mut row = ids.to_vec();
            row.insert(pos, id);
            *self = self.recut(r, Source::Ids(&row));
            return 0;
        }
        // Every row keeps its form: rows after `r` start one id later and
        // still fit, chunked ones stay chunked.
        self.ids.insert(range.start + pos, id);
        self.bounds[r + 1..].iter_mut().for_each(|b| *b += 1);
        0
    }

    /// Removes the id `cmp` finds, which row `r` lists; returns the ids
    /// copied to un-share a chunk.
    fn remove(&mut self, r: usize, cmp: impl Fn(NodeId) -> Ordering) -> usize {
        if self.is_chunked(r) {
            let at = self.chunked_at(r);
            let list = Arc::make_mut(&mut self.chunked[at].1);
            let copied = list.remove_by(cmp).expect("the row lists the id");
            if list.len() < HUB_ROW {
                let list = self.chunked[at].1.clone();
                *self = self.recut(r, Source::Chunked(list));
            }
            return copied;
        }
        let range = self.range(r);
        let ids = &self.ids[range.clone()];
        let pos = ids.binary_search_by(|&w| cmp(w)).expect("listed");
        if self.spilled() {
            let mut row = ids.to_vec();
            row.remove(pos);
            *self = self.recut(r, Source::Ids(&row));
            return 0;
        }
        self.ids.remove(range.start + pos);
        self.bounds[r + 1..].iter_mut().for_each(|b| *b -= 1);
        0
    }

    /// Empties row `r`, returning its ids.
    fn take(&mut self, r: usize) -> Vec<NodeId> {
        let ids = self.row(r).to_vec();
        *self = self.recut(r, Source::Ids(&[]));
        ids
    }

    /// Bytes the page holds, counted from its rows (see
    /// [`Adjacency::storage_bytes`]).
    fn storage_bytes(&self) -> usize {
        let word = std::mem::size_of::<usize>();
        let lists = self
            .chunked
            .iter()
            .map(|(_, list)| chunked_bytes(list.len()));
        2 * word
            + std::mem::size_of::<RowPage>()
            + self.ids.len() * std::mem::size_of::<NodeId>()
            + self.chunked.len() * std::mem::size_of::<(usize, Arc<Chunked>)>()
            + lists.sum::<usize>()
    }
}

/// Bytes of a chunked row of `len` ids as cut: its ids, a chunk's vector
/// header, reference counts and pointer per [`CHUNK_TARGET`] ids, and the
/// list's own header and counts.
fn chunked_bytes(len: usize) -> usize {
    let word = std::mem::size_of::<usize>();
    let chunk = std::mem::size_of::<Vec<NodeId>>() + 3 * word;
    2 * word
        + std::mem::size_of::<Chunked>()
        + len * std::mem::size_of::<NodeId>()
        + len.div_ceil(CHUNK_TARGET) * chunk
}

/// A row handed to [`Cut::push`].
pub(crate) enum Source<'a> {
    /// Sorted ids, copied into the page or cut into chunks.
    Ids(&'a [NodeId]),
    /// A chunked list, kept as it is if it stays chunked.
    Chunked(Arc<Chunked>),
}

impl Source<'_> {
    fn len(&self) -> usize {
        match self {
            Source::Ids(ids) => ids.len(),
            Source::Chunked(list) => list.len(),
        }
    }
}

/// Lays out one page from its rows, in order: the one place where a row is
/// put in the buffer or chunked beside it.
pub(crate) struct Cut {
    page: RowPage,
    rows: usize,
}

impl Cut {
    pub(crate) fn new() -> Self {
        Cut {
            page: RowPage {
                bounds: [0; PAGE_SIZE + 1],
                ids: Vec::new(),
                chunked: Vec::new(),
            },
            rows: 0,
        }
    }

    /// Appends the page's next row: into the buffer when it is shorter
    /// than [`HUB_ROW`] and fits beside the rows held already, else
    /// chunked beside it.
    pub(crate) fn push(&mut self, row: Source<'_>) {
        let (r, len, held) = (self.rows, row.len(), self.page.ids.len());
        assert!(r < PAGE_SIZE, "a page holds {PAGE_SIZE} rows");
        self.rows += 1;
        let ids = &mut self.page.ids;
        if len < HUB_ROW && held + len <= PAGE_IDS {
            match row {
                Source::Ids(row) => ids.extend_from_slice(row),
                Source::Chunked(list) => list.ids().chunks().for_each(|c| ids.extend_from_slice(c)),
            }
            self.page.bounds[r + 1] = (held + len) as u16;
            return;
        }
        let list = match row {
            Source::Ids(ids) => Arc::new(Chunked::from_sorted(ids)),
            Source::Chunked(list) => list,
        };
        self.page.chunked.push((r, list));
        self.page.bounds[r + 1] = held as u16 | CHUNKED;
    }

    /// True when the page has all its rows.
    pub(crate) fn is_full(&self) -> bool {
        self.rows == PAGE_SIZE
    }

    /// The page, rows never pushed empty, its buffer at its size.
    pub(crate) fn finish(mut self) -> RowPage {
        let held = self.page.ids.len() as u16;
        self.page.bounds[self.rows + 1..].fill(held);
        self.page.ids.shrink_to_fit();
        self.page
    }
}

/// One direction's rows, [`PAGE_SIZE`] to a copy-on-write page.
#[derive(Clone, Default)]
pub(crate) struct Adjacency {
    pages: Spine<RowPage>,
    len: usize,
}

impl std::fmt::Debug for Adjacency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

const PAGE_BITS: u32 = PAGE_SIZE.trailing_zeros();
const PAGE_MASK: usize = PAGE_SIZE - 1;

impl Adjacency {
    /// The rows of pages cut already, `len` of them.
    pub(crate) fn from_pages(pages: Vec<RowPage>, len: usize) -> Self {
        assert_eq!(
            pages.len(),
            len.div_ceil(PAGE_SIZE),
            "a page per {PAGE_SIZE} rows"
        );
        Adjacency {
            pages: pages.into_iter().collect(),
            len,
        }
    }

    /// Row `v`.
    ///
    /// # Panics
    /// Panics when `v` is out of range.
    #[inline]
    pub(crate) fn row(&self, v: usize) -> Ids<'_> {
        self.get(v)
            .unwrap_or_else(|| panic!("row {v} out of range for {}", self.len))
    }

    /// Row `v`, or `None` past the end.
    #[inline]
    pub(crate) fn get(&self, v: usize) -> Option<Ids<'_>> {
        (v < self.len).then(|| self.pages.leaf(v >> PAGE_BITS).row(v & PAGE_MASK))
    }

    /// The rows in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Ids<'_>> {
        let rows = self
            .pages
            .iter()
            .flat_map(|page| (0..PAGE_SIZE).map(|r| page.row(r)));
        rows.take(self.len)
    }

    /// The spine the pages hang off (its shape and copy counters).
    pub(crate) fn pages(&self) -> &Spine<RowPage> {
        &self.pages
    }

    /// True when row `v` is chunked beside its page.
    #[cfg(test)]
    pub(crate) fn is_chunked(&self, v: usize) -> bool {
        self.pages.leaf(v >> PAGE_BITS).is_chunked(v & PAGE_MASK)
    }

    /// Appends an empty row: the open tail page already reads its unused
    /// rows as empty, so only opening a page writes anything.
    pub(crate) fn push_empty(&mut self) {
        if self.len & PAGE_MASK == 0 {
            self.pages.push(RowPage::empty());
        }
        self.len += 1;
    }

    /// Inserts `id` into row `v` where `cmp` orders it (`cmp(w)` orders a
    /// listed `w` against `id`). Returns `None` when it is listed already,
    /// else the ids copied on write: the page's, when a clone shared it,
    /// and a chunk's.
    pub(crate) fn insert_by(
        &mut self,
        v: usize,
        id: NodeId,
        cmp: impl Fn(NodeId) -> Ordering,
    ) -> Option<usize> {
        if self.row(v).contains_by(&cmp) {
            return None;
        }
        let (page, copied) = self.page_mut(v);
        Some(copied + page.insert(v & PAGE_MASK, id, cmp))
    }

    /// Removes the id `cmp` finds from row `v` (see
    /// [`Adjacency::insert_by`]). Returns `None` when none is listed, else
    /// the ids copied on write.
    pub(crate) fn remove_by(
        &mut self,
        v: usize,
        cmp: impl Fn(NodeId) -> Ordering,
    ) -> Option<usize> {
        if !self.row(v).contains_by(&cmp) {
            return None;
        }
        let (page, copied) = self.page_mut(v);
        Some(copied + page.remove(v & PAGE_MASK, cmp))
    }

    /// Empties row `v`; returns its ids and the ids copied on write.
    pub(crate) fn take(&mut self, v: usize) -> (Vec<NodeId>, usize) {
        let (page, copied) = self.page_mut(v);
        (page.take(v & PAGE_MASK), copied)
    }

    /// The page row `v` is on, un-shared, and the ids copied to un-share it.
    fn page_mut(&mut self, v: usize) -> (&mut RowPage, usize) {
        let (p, before) = (v >> PAGE_BITS, self.pages.leaves_copied());
        let held = self.pages.leaf(p).ids.len();
        self.pages.make_mut(p);
        let copied = if self.pages.leaves_copied() > before {
            held
        } else {
            0
        };
        (self.pages.make_mut(p), copied)
    }

    /// Bytes the rows hold, counted from the rows rather than measured: a
    /// page's header, bounds and ids, each chunked row as
    /// [`chunked_bytes`] counts it, and a pointer per page. Spare room a
    /// buffer or chunk keeps to grow into is not counted, so equal rows
    /// count the same however they were made.
    pub(crate) fn storage_bytes(&self) -> usize {
        let pages = self.pages.iter().map(RowPage::storage_bytes);
        pages.sum::<usize>() + self.pages.len() * std::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small seeded generator (splitmix64).
    struct Seeded(u64);

    impl Seeded {
        fn below(&mut self, bound: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound.max(1) as u64) as usize
        }
    }

    /// The rows cut into pages by [`Cut`], as the builder cuts them.
    fn cut(rows: &[Vec<NodeId>]) -> Adjacency {
        let mut pages = Vec::new();
        for page_rows in rows.chunks(PAGE_SIZE) {
            let mut cut = Cut::new();
            for row in page_rows {
                cut.push(Source::Ids(row));
            }
            pages.push(cut.finish());
        }
        Adjacency::from_pages(pages, rows.len())
    }

    fn assert_rows(rows: &Adjacency, model: &[Vec<NodeId>], what: &str) {
        assert_eq!(rows.len, model.len(), "{what}: row count");
        for (v, want) in model.iter().enumerate() {
            assert_eq!(rows.row(v), want, "{what}: row {v}");
        }
        assert!(rows.iter().eq(model.iter().map(|row| Ids::from(&row[..]))));
        // The layout is the one a fresh cut of the same rows makes.
        let fresh = cut(model);
        assert_eq!(rows.storage_bytes(), fresh.storage_bytes(), "{what}: bytes");
        for v in 0..model.len() {
            assert_eq!(
                rows.is_chunked(v),
                fresh.is_chunked(v),
                "{what}: form of {v}"
            );
        }
    }

    /// Seeded inserts and removes at the front, middle and end of rows,
    /// against a `Vec<Vec<NodeId>>` model, with a clone pinned at every
    /// step: rows cross [`HUB_ROW`] and the page's [`PAGE_IDS`] in both
    /// directions, rows are appended to the open tail page and emptied as
    /// a deleted node's are. After every edit the rows are those a fresh
    /// cut lays out, and every pin still reads what it held.
    #[test]
    fn edits_agree_with_a_vec_model_under_pins() {
        let mut rng = Seeded(0x05EE_D0F0_A6E0);
        let n = PAGE_SIZE + 40;
        let mut model: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut rows = cut(&model);
        let mut pins: Vec<(Adjacency, Vec<Vec<NodeId>>)> = Vec::new();
        let (mut hubs, mut spilled, mut unspilled, mut unhubbed) = (false, false, false, false);
        // Rows 0..5 grow past the hub threshold, rows 8..16 to a few hundred
        // ids each, so that the first page runs out of room; the rest stay
        // short. Then everything shrinks.
        let goal = |v: usize| match v {
            0..=4 => HUB_ROW + 30,
            8..=15 => 700,
            _ => 3,
        };
        for phase in 0..2 {
            for step in 0..24_000 {
                let v = match rng.below(5) {
                    0 | 1 => rng.below(5),
                    2 => 8 + rng.below(8),
                    3 => rng.below(model.len()),
                    _ => PAGE_SIZE + rng.below(model.len() - PAGE_SIZE),
                };
                let row = &model[v];
                let grow = phase == 0 && row.len() < goal(v);
                // Ids keyed by `(id % 5, id)`, as rows are by label.
                let key = |w: NodeId| (w.0 % 5, w.0);
                if grow {
                    let id = match (rng.below(3), row.first(), row.last()) {
                        // The next id in key order before the first or
                        // after the last: an edit at the row's front or end.
                        (0, Some(&first), _) if first.0 >= 5 => NodeId(first.0 - 5),
                        (1, _, Some(&last)) => NodeId(last.0 + 5),
                        _ => NodeId(rng.below(1 << 20) as u32),
                    };
                    let cmp = |w: NodeId| key(w).cmp(&key(id));
                    let at = row.binary_search_by(|&w| cmp(w));
                    let copied = rows.insert_by(v, id, cmp);
                    assert_eq!(copied.is_some(), at.is_err(), "insert {id:?} into {v}");
                    if let Err(at) = at {
                        model[v].insert(at, id);
                    }
                } else if !row.is_empty() {
                    let at = [0, row.len() / 2, row.len() - 1][rng.below(3)];
                    let id = row[at];
                    let cmp = |w: NodeId| key(w).cmp(&key(id));
                    assert!(rows.remove_by(v, cmp).is_some(), "remove {id:?} from {v}");
                    assert_eq!(rows.remove_by(v, cmp), None, "removed already");
                    model[v].remove(at);
                }
                if step % 3_000 == 2_999 {
                    // A deleted node's rows are emptied; a new node's row is
                    // appended to the open tail page.
                    let v = rng.below(model.len());
                    let (ids, _) = rows.take(v);
                    assert_eq!(ids, std::mem::take(&mut model[v]));
                    rows.push_empty();
                    model.push(Vec::new());
                }
                let page = rows.pages.leaf(0);
                hubs |= page.chunked.iter().any(|(_, l)| l.len() >= HUB_ROW);
                spilled |= page.spilled();
                unspilled |= spilled && !page.spilled();
                unhubbed |= hubs && (0..5).all(|v| !rows.is_chunked(v));
                assert!(page.ids.len() <= PAGE_IDS);
                if step % 97 == 0 {
                    assert_rows(&rows, &model, &format!("phase {phase}, step {step}"));
                }
                pins.push((rows.clone(), model.clone()));
                if pins.len() > 8 {
                    let (pinned, held) = pins.remove(rng.below(8));
                    if step % 13 == 0 {
                        assert_rows(&pinned, &held, "pin");
                    }
                }
            }
        }
        assert!(
            hubs && spilled && unspilled && unhubbed,
            "every form change was made"
        );
        assert_rows(&rows, &model, "last");
        for (pinned, held) in &pins {
            assert_rows(pinned, held, "pin");
        }
    }

    /// An edit to a shared page copies the page's ids once, and the edits
    /// after it copy nothing; a page copy holds at most `PAGE_IDS` ids.
    #[test]
    fn a_shared_page_is_copied_once_per_edit_burst() {
        let model: Vec<Vec<NodeId>> = (0..PAGE_SIZE as u32)
            .map(|v| (0..v % 4).map(|i| NodeId(1000 * v + i)).collect())
            .collect();
        let mut rows = cut(&model);
        let held: usize = model.iter().map(Vec::len).sum();
        let pinned = rows.clone();
        let by_id = |id: NodeId| move |w: NodeId| w.cmp(&id);
        assert_eq!(rows.insert_by(7, NodeId(99), by_id(NodeId(99))), Some(held));
        assert_eq!(rows.insert_by(9, NodeId(98), by_id(NodeId(98))), Some(0));
        assert_eq!(rows.remove_by(7, by_id(NodeId(99))), Some(0));
        assert_eq!(rows.pages.leaves_copied(), 1);
        assert_eq!(pinned.row(9), &model[9]);
        assert_eq!(rows.row(9).len(), model[9].len() + 1);
    }
}
