//! A paged copy-on-write vector: the workspace's one per-node array, under
//! the per-node storage of [`crate::Graph`] and the access indices of
//! `bgpq-access` alike.
//!
//! A snapshot chain keeps many versions of one graph alive at once, and a
//! commit changes a handful of nodes. [`PagedVec`] makes that cheap: the
//! elements live in fixed-size pages, and the pages are the leaves of a
//! [`Spine`] — cloning the vector bumps one reference count per *group* of
//! [`crate::SPINE_FANOUT`] pages (`len / 16 384` of them) and one for the
//! last page, and a write copies only the page it lands in plus that
//! page's group of pointers (and only while they are still shared). The
//! last page is kept outside the groups, so an append — a new node's slot —
//! copies that page alone. Reads pay two cache-resident pointer hops over
//! a flat `Vec`.
//!
//! **Pages nothing was written to share one blank page.** An array indexed
//! by node id but written only at the ids of one label — an access index
//! keyed by its source nodes — leaves whole pages at their defaults. Every
//! such page is the same shared page of defaults, so the array allocates
//! pages only where it holds values. A read past the end is `None`; a write
//! past the end extends the array, the whole pages it skips blank.

use crate::spine::Spine;
use std::sync::Arc;

const PAGE_BITS: u32 = 8;

/// Elements per page of the workspace's copy-on-write arrays: node ids
/// `k·PAGE_SIZE .. (k+1)·PAGE_SIZE` share one page of every per-node array.
///
/// Chosen to balance the two costs of a commit: cloning a graph bumps
/// `4·|V| / (PAGE_SIZE · SPINE_FANOUT)` reference counts, and each page a
/// write lands in copies `PAGE_SIZE` elements.
pub const PAGE_SIZE: usize = 1 << PAGE_BITS;

const PAGE_MASK: usize = PAGE_SIZE - 1;

type Page<T> = [T; PAGE_SIZE];

/// A growable vector stored in `Arc`-shared pages of [`PAGE_SIZE`] elements
/// (see the module docs).
///
/// Slots past `len` in the last page, and every slot of a blank page, hold
/// `T::default()`.
#[derive(Debug, Clone)]
pub struct PagedVec<T> {
    pages: Spine<Page<T>>,
    len: usize,
    /// The page of defaults that every page no write has reached shares;
    /// made by the first extension that skips a page.
    blank: Option<Arc<Page<T>>>,
}

impl<T> Default for PagedVec<T> {
    fn default() -> Self {
        PagedVec {
            pages: Spine::default(),
            len: 0,
            blank: None,
        }
    }
}

impl<T: Clone + Default> PagedVec<T> {
    /// Number of elements, defaults in skipped pages included.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the array has no element.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Element `i`, or `None` past the end.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        (i < self.len).then(|| &self.pages.leaf(i >> PAGE_BITS)[i & PAGE_MASK])
    }

    /// Mutable access to element `i`, copying its page first when another
    /// clone (or the blank page's other users) still shares it. Past the
    /// end the array is extended to `i + 1` elements first: the page `i`
    /// lands in is allocated, the whole pages before it are blank.
    pub fn make_mut(&mut self, i: usize) -> &mut T {
        if i >= self.len {
            self.extend_to(i + 1);
        }
        &mut self.pages.make_mut(i >> PAGE_BITS)[i & PAGE_MASK]
    }

    /// Appends `value`. Opening a new page allocates it; it copies nothing.
    pub fn push(&mut self, value: T) {
        *self.make_mut(self.len) = value;
    }

    /// Grows the array to `len` elements of which the new ones are defaults.
    fn extend_to(&mut self, len: usize) {
        let last = (len - 1) >> PAGE_BITS;
        if last >= self.pages.len() {
            let gap = last - self.pages.len();
            if gap > 0 {
                let blank = self.blank();
                self.pages.extend(std::iter::repeat(blank).take(gap));
            }
            self.pages.push(defaults());
        }
        self.len = len;
    }

    /// The shared blank page, made on first use.
    fn blank(&mut self) -> Arc<Page<T>> {
        self.blank.get_or_insert_with(defaults).clone()
    }

    /// Collects `items`, or returns the first `Err` among them. Collecting
    /// into `Result<PagedVec<T>, E>` does the same, but built the 600k-node
    /// benchmark graph's rows a quarter slower.
    pub(crate) fn try_from_iter<E>(
        items: impl IntoIterator<Item = Result<T, E>>,
    ) -> Result<Self, E> {
        let mut refused = None;
        let items = items.into_iter();
        let paged = items
            .map_while(|item| item.map_err(|err| refused = Some(err)).ok())
            .collect();
        refused.map_or(Ok(paged), Err)
    }

    /// Iterates over the elements in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.pages.iter().flat_map(|p| p.iter()).take(self.len)
    }

    /// The spine the pages hang off (its shape and copy counters).
    pub fn pages(&self) -> &Spine<Page<T>> {
        &self.pages
    }

    /// Bytes the array's own storage holds: its pages, the blank page
    /// counted once however many slots share it, and one pointer per page.
    /// What the elements themselves point to is not included.
    pub fn storage_bytes(&self) -> usize {
        let blank = self.blank.as_deref();
        let is_blank = |p: &&Page<T>| blank.is_some_and(|b| std::ptr::eq(*p, b));
        let blanks = self.pages.iter().filter(is_blank).count();
        let held = self.pages.len() - blanks + usize::from(blanks > 0);
        held * std::mem::size_of::<Page<T>>() + self.pages.len() * std::mem::size_of::<usize>()
    }
}

/// A page of defaults.
fn defaults<T: Default>() -> Arc<Page<T>> {
    page(std::iter::repeat_with(T::default).take(PAGE_SIZE).collect())
}

/// Types a full page's worth of items as a page. Pages are collected
/// straight into their `Arc` allocation and typed afterwards: a
/// `[T; PAGE_SIZE]` built by value is built element by element behind a drop
/// guard and then moved twice.
fn page<T>(items: Arc<[T]>) -> Arc<Page<T>> {
    items.try_into().ok().expect("a page holds PAGE_SIZE items")
}

impl<T: Clone + Default> std::ops::Index<usize> for PagedVec<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        assert!(i < self.len, "index {i} out of range for {}", self.len);
        &self.pages.leaf(i >> PAGE_BITS)[i & PAGE_MASK]
    }
}

/// Fills the open tail page in place (copying it first while a clone
/// shares it), then builds every further page once, uniquely owned, a
/// page's items at a time.
impl<T: Clone + Default> Extend<T> for PagedVec<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        let mut iter = iter.into_iter();
        while self.len & PAGE_MASK != 0 {
            match iter.next() {
                Some(item) => self.push(item),
                None => return,
            }
        }
        let len = &mut self.len;
        self.pages.extend(std::iter::from_fn(|| {
            let mut items = Vec::with_capacity(PAGE_SIZE);
            items.extend(iter.by_ref().take(PAGE_SIZE));
            if items.is_empty() {
                return None;
            }
            *len += items.len();
            items.resize_with(PAGE_SIZE, T::default);
            Some(page(items.into()))
        }));
    }
}

impl<T: Clone + Default> FromIterator<T> for PagedVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut paged = PagedVec::default();
        paged.extend(iter);
        paged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_index_and_iter_agree_with_a_vec() {
        let mut paged = PagedVec::default();
        let mut flat = Vec::new();
        for i in 0..(2 * PAGE_SIZE + 3) as u32 {
            paged.push(i);
            flat.push(i);
        }
        assert_eq!(paged.len(), flat.len());
        assert!(paged.iter().eq(flat.iter()));
        assert_eq!(paged[PAGE_SIZE - 1], flat[PAGE_SIZE - 1]);
        assert_eq!(paged[PAGE_SIZE], flat[PAGE_SIZE]);
        assert_eq!(paged.get(flat.len()), None);
        let collected: PagedVec<u32> = flat.iter().copied().collect();
        assert!(collected.iter().eq(flat.iter()));
        assert_eq!(collected.len(), flat.len());
    }

    #[test]
    fn collect_handles_exact_page_multiples() {
        for n in [0, PAGE_SIZE, 2 * PAGE_SIZE] {
            let paged: PagedVec<usize> = (0..n).collect();
            assert_eq!(paged.len(), n);
            assert_eq!(paged.pages.len(), n / PAGE_SIZE);
            assert!(paged.iter().copied().eq(0..n));
        }
    }

    #[test]
    fn extend_fills_the_open_tail_then_appends_whole_pages() {
        let mut paged: PagedVec<u32> = (0..PAGE_SIZE as u32 - 3).collect();
        let pinned = paged.clone();
        let mut flat: Vec<u32> = pinned.iter().copied().collect();
        for (start, n) in [(7_000u32, 5usize), (9_000, 2 * PAGE_SIZE + 1), (0, 0)] {
            paged.extend(start..start + n as u32);
            flat.extend(start..start + n as u32);
            assert_eq!(paged.len(), flat.len());
            assert!(paged.iter().eq(flat.iter()));
        }
        assert_eq!(paged.pages.len(), flat.len().div_ceil(PAGE_SIZE));
        assert_eq!(paged.pages.leaves_copied(), 1, "the shared tail, once");
        assert!(pinned.iter().copied().eq(0..PAGE_SIZE as u32 - 3));
    }

    #[test]
    fn a_write_copies_only_its_own_shared_page() {
        let mut a: PagedVec<u32> = (0..3 * PAGE_SIZE as u32).collect();
        let b = a.clone();
        *a.make_mut(PAGE_SIZE) = 7;
        *a.make_mut(PAGE_SIZE + 1) = 8;
        assert_eq!(
            a.pages.leaves_copied(),
            1,
            "the second write finds the page unique"
        );
        assert_eq!((a[PAGE_SIZE], b[PAGE_SIZE]), (7, PAGE_SIZE as u32));
        let same = |i: usize| std::ptr::eq(a.pages.leaf(i), b.pages.leaf(i));
        assert!(same(0) && !same(1) && same(2));
    }

    #[test]
    fn a_push_into_a_shared_tail_copies_it_and_a_new_page_copies_nothing() {
        let mut a: PagedVec<u32> = (0..PAGE_SIZE as u32 - 1).collect();
        let b = a.clone();
        a.push(1); // fills the shared tail page: one copy
        assert_eq!(a.pages.leaves_copied(), 1);
        a.push(2); // opens a page
        assert_eq!(a.pages.leaves_copied(), 1);
        assert_eq!((a.len(), b.len()), (PAGE_SIZE + 1, PAGE_SIZE - 1));
        assert_eq!(b.get(PAGE_SIZE - 1), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn indexing_the_padding_of_the_last_page_panics() {
        let paged: PagedVec<u32> = (0..3).collect();
        let _ = paged[3];
    }

    /// A model of a sparse array: the values written, by index.
    fn assert_model(paged: &PagedVec<u32>, model: &std::collections::BTreeMap<usize, u32>) {
        let len = model.keys().next_back().map_or(0, |&i| i + 1);
        assert!(paged.len() >= len);
        for i in 0..paged.len() + PAGE_SIZE {
            let want = model.get(&i).copied().or((i < paged.len()).then_some(0));
            assert_eq!(paged.get(i).copied(), want, "index {i}");
        }
    }

    #[test]
    fn skipped_pages_share_one_blank_page() {
        let ids = [3 * PAGE_SIZE + 1, 3 * PAGE_SIZE + 9, 7 * PAGE_SIZE];
        let mut sparse = PagedVec::default();
        for &i in &ids {
            *sparse.make_mut(i) = i as u32;
        }
        let model = ids.iter().map(|&i| (i, i as u32)).collect();
        assert_model(&sparse, &model);
        assert_eq!((sparse.len(), sparse.pages.len()), (7 * PAGE_SIZE + 1, 8));
        let blank = sparse.pages.leaf(0);
        let blanks = (0..8).filter(|&p| std::ptr::eq(sparse.pages.leaf(p), blank));
        assert_eq!(blanks.collect::<Vec<_>>(), [0, 1, 2, 4, 5, 6]);
        // Two held pages and the blank one, each behind a page pointer.
        let page = std::mem::size_of::<Page<u32>>();
        let pointer = std::mem::size_of::<usize>();
        assert_eq!(sparse.storage_bytes(), 3 * page + 8 * pointer);
        let dense: PagedVec<u32> = (0..8 * PAGE_SIZE as u32).collect();
        assert_eq!(dense.storage_bytes(), 8 * page + 8 * pointer);
    }

    /// Writes past the end and into blank pages, under a clone pinned at
    /// every step, against a map model.
    #[test]
    fn writes_past_the_end_extend_and_blank_pages_copy_on_write() {
        let mut paged: PagedVec<u32> = PagedVec::default();
        let mut model = std::collections::BTreeMap::new();
        let mut pins = Vec::new();
        let writes = [
            5 * PAGE_SIZE + 3,
            2,
            2 * PAGE_SIZE,
            5 * PAGE_SIZE + 4,
            9 * PAGE_SIZE - 1,
        ];
        for (n, &i) in writes.iter().enumerate() {
            let before = paged.pages.leaves_copied();
            let opens = i >> PAGE_BITS >= paged.pages.len();
            *paged.make_mut(i) = n as u32 + 1;
            model.insert(i, n as u32 + 1);
            assert_model(&paged, &model);
            // A write into a blank page or a pinned one copies it; a page
            // opened at the end is new, and copies nothing.
            let copied = paged.pages.leaves_copied() - before;
            assert_eq!(copied, u64::from(!opens), "write {n} at {i}");
            pins.push((paged.clone(), model.clone()));
        }
        assert_eq!(paged.get(9 * PAGE_SIZE), None);
        for (pinned, held) in &pins {
            assert_model(pinned, held);
        }
    }
}
