//! A paged copy-on-write vector: the per-node storage of [`crate::Graph`].
//!
//! A snapshot chain keeps many versions of one graph alive at once, and a
//! commit changes a handful of nodes. [`PagedVec`] makes that cheap: the
//! elements live in fixed-size pages, and the pages are the leaves of a
//! [`Spine`] — cloning the vector bumps one reference count per *group* of
//! [`crate::SPINE_FANOUT`] pages (`len / 16 384` of them), and a write copies
//! only the page it lands in plus that page's group of pointers (and only
//! while they are still shared). Reads pay two cache-resident pointer hops
//! over a flat `Vec`.

use crate::spine::Spine;
use std::sync::Arc;

const PAGE_BITS: u32 = 8;

/// Elements per page of the graph's copy-on-write storage: node ids
/// `k·PAGE_SIZE .. (k+1)·PAGE_SIZE` share one page of every per-node array.
///
/// Chosen to balance the two costs of a commit: cloning a graph bumps
/// `4·|V| / (PAGE_SIZE · SPINE_FANOUT)` reference counts, and each page a
/// write lands in copies `PAGE_SIZE` elements.
pub const PAGE_SIZE: usize = 1 << PAGE_BITS;

const PAGE_MASK: usize = PAGE_SIZE - 1;

/// A growable vector stored in `Arc`-shared pages of [`PAGE_SIZE`] elements.
///
/// Slots of the last page past `len` hold `T::default()` and are never
/// observable.
#[derive(Debug, Clone)]
pub(crate) struct PagedVec<T> {
    pages: Spine<[T; PAGE_SIZE]>,
    len: usize,
}

impl<T> Default for PagedVec<T> {
    fn default() -> Self {
        PagedVec {
            pages: Spine::default(),
            len: 0,
        }
    }
}

impl<T: Clone + Default> PagedVec<T> {
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn get(&self, i: usize) -> Option<&T> {
        (i < self.len).then(|| &self.pages.leaf(i >> PAGE_BITS)[i & PAGE_MASK])
    }

    /// Mutable access to element `i`, copying its page first when another
    /// clone still shares it.
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub fn make_mut(&mut self, i: usize) -> &mut T {
        assert!(i < self.len, "index {i} out of range for {}", self.len);
        &mut self.pages.make_mut(i >> PAGE_BITS)[i & PAGE_MASK]
    }

    /// Appends `value`. Opening a new page allocates it; it copies nothing.
    pub fn push(&mut self, value: T) {
        if self.len & PAGE_MASK == 0 {
            let defaults = std::iter::repeat_with(T::default).take(PAGE_SIZE);
            self.pages.push(page(defaults.collect()));
        }
        self.len += 1;
        *self.make_mut(self.len - 1) = value;
    }

    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.pages.iter().flat_map(|p| p.iter()).take(self.len)
    }

    /// The spine the pages hang off (its shape and copy counters).
    pub fn pages(&self) -> &Spine<[T; PAGE_SIZE]> {
        &self.pages
    }
}

/// Types a full page's worth of items as a page. Pages are collected
/// straight into their `Arc` allocation and typed afterwards: a
/// `[T; PAGE_SIZE]` built by value is built element by element behind a drop
/// guard and then moved twice.
fn page<T>(items: Arc<[T]>) -> Arc<[T; PAGE_SIZE]> {
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

/// Builds every page once, uniquely owned.
impl<T: Clone + Default> FromIterator<T> for PagedVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let mut len = 0;
        let pages = std::iter::from_fn(|| {
            let mut items = Vec::with_capacity(PAGE_SIZE);
            items.extend(iter.by_ref().take(PAGE_SIZE));
            if items.is_empty() {
                return None;
            }
            len += items.len();
            items.resize_with(PAGE_SIZE, T::default);
            Some(page(items.into()))
        });
        let pages = pages.collect();
        PagedVec { pages, len }
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
}
