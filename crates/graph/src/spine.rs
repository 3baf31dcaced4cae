//! The two-level copy-on-write spine under every structurally shared
//! container of the workspace: the pages of a [`crate::Graph`]'s per-node
//! arrays, the chunks of its label buckets, and the pages of the access
//! indices in `bgpq-access`.
//!
//! A snapshot chain keeps many versions of one container alive at once, and
//! a commit changes a handful of leaves. A [`Spine`] holds its leaves behind
//! `Arc`s, and the leaf pointers themselves in `Arc`'d *groups* of
//! [`SPINE_FANOUT`]:
//!
//! * **clone** bumps one reference count per group — `⌈leaves / 64⌉`, e.g.
//!   `|V| / 16 384` for an array of [`crate::PAGE_SIZE`]-node pages (183 at
//!   3.0M nodes). That is a 64th of a flat `Vec<Arc<leaf>>`, not a constant:
//!   the bound is honest about still following `|G|`, two orders of
//!   magnitude below the work a commit does anyway;
//! * **[`Spine::make_mut`]** un-shares one group (64 pointer copies) and
//!   one leaf, and only while they are still shared;
//! * **drop** of a retired version decrements the groups, and walks into
//!   only those its successor replaced;
//! * **reads** pay one more dependent load than a flat vector — through a
//!   top level of a few dozen pointers that stays in L1.

use std::sync::Arc;

const FANOUT_BITS: u32 = 6;

/// Leaves per group of a [`Spine`]: cloning a spine of `n` leaves bumps
/// `⌈n / SPINE_FANOUT⌉` reference counts.
pub const SPINE_FANOUT: usize = 1 << FANOUT_BITS;

const FANOUT_MASK: usize = SPINE_FANOUT - 1;

/// The size of a [`Spine`]: `groups` is the number of reference counts one
/// clone of it bumps, always `⌈leaves / SPINE_FANOUT⌉`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpineShape {
    /// Number of leaves.
    pub leaves: usize,
    /// Number of groups of leaf pointers.
    pub groups: usize,
}

/// Every group but the last holds exactly [`SPINE_FANOUT`] leaves.
type Group<L> = Arc<[Arc<L>]>;

/// A growable vector of `Arc`-shared leaves behind `Arc`-shared groups of
/// leaf pointers (see the module docs).
#[derive(Debug)]
pub struct Spine<L> {
    groups: Vec<Group<L>>,
    len: usize,
    /// Leaves copied because a write found them shared, over the whole
    /// clone lineage of this value (clones inherit the count).
    leaves_copied: u64,
    /// Groups copied for the same reason, counted the same way.
    groups_copied: u64,
}

impl<L> Default for Spine<L> {
    fn default() -> Self {
        Spine {
            groups: Vec::new(),
            len: 0,
            leaves_copied: 0,
            groups_copied: 0,
        }
    }
}

/// One reference-count bump per group; no leaf is touched.
impl<L> Clone for Spine<L> {
    fn clone(&self) -> Self {
        Spine {
            groups: self.groups.clone(),
            len: self.len,
            leaves_copied: self.leaves_copied,
            groups_copied: self.groups_copied,
        }
    }
}

impl<L> Spine<L> {
    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the spine holds no leaf.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Leaf and group counts together.
    pub fn shape(&self) -> SpineShape {
        SpineShape {
            leaves: self.len,
            groups: self.groups.len(),
        }
    }

    /// Lifetime count of leaves copied on write (see the field).
    pub fn leaves_copied(&self) -> u64 {
        self.leaves_copied
    }

    /// Lifetime count of groups copied on write (see the field).
    pub fn groups_copied(&self) -> u64 {
        self.groups_copied
    }

    /// Leaf `i`.
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    #[inline]
    pub fn leaf(&self, i: usize) -> &L {
        &self.groups[i >> FANOUT_BITS][i & FANOUT_MASK]
    }

    /// Leaf `i`, or `None` when out of range.
    pub fn get(&self, i: usize) -> Option<&L> {
        (i < self.len).then(|| self.leaf(i))
    }

    /// Iterates over the leaves in order.
    pub fn iter(&self) -> Iter<'_, L> {
        Iter {
            groups: self.groups.iter(),
            ..Iter::default()
        }
    }

    /// Appends a leaf. Opening a group allocates it; extending the last one
    /// rewrites its (at most [`SPINE_FANOUT`]) pointers.
    pub fn push(&mut self, leaf: impl Into<Arc<L>>) {
        let at = self.len;
        self.reshape_from(at, |tail| tail.push(leaf.into()));
    }

    /// Inserts a leaf before position `i`, shifting the leaves after it —
    /// `len − i` pointer moves, so cheap at the tail and meant to be rare
    /// elsewhere.
    ///
    /// # Panics
    /// Panics when `i > len`.
    pub fn insert(&mut self, i: usize, leaf: impl Into<Arc<L>>) {
        assert!(i <= self.len, "index {i} out of range for {}", self.len);
        self.reshape_from(i, |tail| tail.insert(i & FANOUT_MASK, leaf.into()));
    }

    /// Removes leaf `i`, shifting the leaves after it (see
    /// [`Spine::insert`] for the cost).
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub fn remove(&mut self, i: usize) {
        assert!(i < self.len, "index {i} out of range for {}", self.len);
        self.reshape_from(i, |tail| {
            tail.remove(i & FANOUT_MASK);
        });
    }

    /// Regroups the leaf pointers from the group of position `at` onwards
    /// after `edit` changed them. Groups before it keep their identity.
    fn reshape_from(&mut self, at: usize, edit: impl FnOnce(&mut Vec<Arc<L>>)) {
        let first = at >> FANOUT_BITS;
        let mut tail: Vec<Arc<L>> = Vec::with_capacity(self.len - (first << FANOUT_BITS) + 1);
        for group in self.groups.drain(first..) {
            self.groups_copied += u64::from(Arc::strong_count(&group) > 1);
            tail.extend(group.iter().cloned());
        }
        edit(&mut tail);
        self.len = (first << FANOUT_BITS) + tail.len();
        let mut tail = tail.into_iter();
        while tail.len() > 0 {
            self.groups.push(tail.by_ref().take(SPINE_FANOUT).collect());
        }
    }
}

impl<L: Clone> Spine<L> {
    /// Mutable access to leaf `i`, copying its group and then the leaf
    /// first, each only when another clone still shares it.
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub fn make_mut(&mut self, i: usize) -> &mut L {
        assert!(i < self.len, "index {i} out of range for {}", self.len);
        // Nothing here hands out `Weak`s, so a strong count of one means
        // unique. Each level is checked with one atomic read-modify-write,
        // as a flat page table's single level was: this runs on every
        // write of an index build.
        let group = &mut self.groups[i >> FANOUT_BITS];
        if Arc::strong_count(group) > 1 {
            *group = group.iter().cloned().collect();
            self.groups_copied += 1;
        }
        let leaves = Arc::get_mut(group).expect("the group was just made unique");
        let leaf = &mut leaves[i & FANOUT_MASK];
        // `Arc::make_mut` moves to a new allocation exactly when it copies.
        let shared = Arc::as_ptr(leaf);
        let leaf = Arc::make_mut(leaf);
        self.leaves_copied += u64::from(!std::ptr::eq(shared, leaf));
        leaf
    }

    /// Empties the spine and returns its leaves by value, copying (and
    /// counting) those another clone still shares. The counters stay.
    pub fn take_leaves(&mut self) -> Vec<L> {
        let groups = std::mem::take(&mut self.groups);
        self.len = 0;
        let shared: Vec<Arc<L>> = groups.iter().flat_map(|g| g.iter().cloned()).collect();
        drop(groups);
        let mut leaves = Vec::with_capacity(shared.len());
        for leaf in shared {
            leaves.push(Arc::try_unwrap(leaf).unwrap_or_else(|leaf| {
                self.leaves_copied += 1;
                (*leaf).clone()
            }));
        }
        leaves
    }
}

/// Appends the leaves, regrouping the tail once.
impl<L, A: Into<Arc<L>>> Extend<A> for Spine<L> {
    fn extend<I: IntoIterator<Item = A>>(&mut self, iter: I) {
        let at = self.len;
        self.reshape_from(at, |tail| tail.extend(iter.into_iter().map(Into::into)));
    }
}

/// Builds every group once, uniquely owned.
impl<L, A: Into<Arc<L>>> FromIterator<A> for Spine<L> {
    fn from_iter<I: IntoIterator<Item = A>>(iter: I) -> Self {
        let mut spine = Spine::default();
        spine.extend(iter);
        spine
    }
}

/// Iterator over the leaves of a [`Spine`]; the default value is empty.
#[derive(Debug)]
pub struct Iter<'a, L> {
    groups: std::slice::Iter<'a, Group<L>>,
    leaves: std::slice::Iter<'a, Arc<L>>,
}

impl<L> Default for Iter<'_, L> {
    fn default() -> Self {
        Iter {
            groups: [].iter(),
            leaves: [].iter(),
        }
    }
}

impl<'a, L> Iterator for Iter<'a, L> {
    type Item = &'a L;

    #[inline]
    fn next(&mut self) -> Option<&'a L> {
        loop {
            if let Some(leaf) = self.leaves.next() {
                return Some(leaf);
            }
            self.leaves = self.groups.next()?.iter();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// A deterministic xorshift stream for the model tests.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    fn assert_matches(spine: &Spine<u32>, model: &[u32]) {
        assert_eq!(spine.len(), model.len());
        assert_eq!(spine.is_empty(), model.is_empty());
        assert_eq!(spine.shape().groups, model.len().div_ceil(SPINE_FANOUT));
        assert!(spine.iter().eq(model.iter()));
        for (i, value) in model.iter().enumerate() {
            assert_eq!(spine.leaf(i), value);
        }
        assert_eq!(spine.get(model.len()), None);
        let full = spine.groups.len().saturating_sub(1);
        assert!(spine.groups[..full].iter().all(|g| g.len() == SPINE_FANOUT));
    }

    #[test]
    fn random_interleavings_agree_with_a_vec_model() {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        // Live versions: the spine under edit first, pinned clones after it.
        let mut versions: Vec<(Spine<u32>, Vec<u32>)> = vec![(Spine::default(), Vec::new())];
        for step in 0..6_000u32 {
            let len = versions[0].1.len();
            match rng.below(12) {
                0..=4 => {
                    versions[0].0.push(step);
                    versions[0].1.push(step);
                }
                5..=7 if len > 0 => {
                    let i = rng.below(len);
                    *versions[0].0.make_mut(i) = step;
                    versions[0].1[i] = step;
                }
                8 => {
                    let i = rng.below(len + 1);
                    versions[0].0.insert(i, step);
                    versions[0].1.insert(i, step);
                }
                9 if len > 0 => {
                    let i = rng.below(len);
                    versions[0].0.remove(i);
                    versions[0].1.remove(i);
                }
                10 => {
                    let pinned = (versions[0].0.clone(), versions[0].1.clone());
                    versions.push(pinned);
                }
                11 if versions.len() > 1 => {
                    let victim = 1 + rng.below(versions.len() - 1);
                    versions.swap_remove(victim);
                }
                _ => {}
            }
            if step % 97 == 0 {
                for (spine, model) in &versions {
                    assert_matches(spine, model);
                }
            }
        }
        assert!(
            versions[0].1.len() > 3 * SPINE_FANOUT,
            "crossed group seams"
        );
        for (spine, model) in &versions {
            assert_matches(spine, model);
        }
    }

    #[test]
    fn exact_multiples_of_the_group_size_open_no_empty_group() {
        for n in [0, 1, SPINE_FANOUT - 1, SPINE_FANOUT, 2 * SPINE_FANOUT] {
            let model: Vec<u32> = (0..n as u32).collect();
            let collected: Spine<u32> = model.iter().copied().collect();
            assert_matches(&collected, &model);
            let mut pushed = Spine::default();
            for &value in &model {
                pushed.push(value);
            }
            assert_matches(&pushed, &model);
            let mut grown = pushed.clone();
            grown.push(7);
            assert_eq!(grown.shape().groups, (n + 1).div_ceil(SPINE_FANOUT));
            assert_matches(&pushed, &model);
            if n > 0 {
                grown.remove(n);
                grown.remove(n - 1);
                assert_matches(&grown, &model[..n - 1]);
            }
        }
    }

    #[test]
    fn a_write_unshares_one_group_and_one_leaf() {
        let n = 3 * SPINE_FANOUT + 5;
        let mut a: Spine<u32> = (0..n as u32).collect();
        let b = a.clone();
        let at = SPINE_FANOUT + 3;
        *a.make_mut(at) = 7;
        *a.make_mut(at) = 8;
        assert_eq!((a.groups_copied(), a.leaves_copied()), (1, 1));
        *a.make_mut(at + 1) = 9;
        assert_eq!(
            (a.groups_copied(), a.leaves_copied()),
            (1, 2),
            "the group is already unique; its other leaves are not"
        );
        assert_eq!((*a.leaf(at), *b.leaf(at)), (8, at as u32));
        for g in 0..a.shape().groups {
            assert_eq!(Arc::ptr_eq(&a.groups[g], &b.groups[g]), g != 1, "group {g}");
        }
        for i in 0..n {
            let (x, y) = (&a.groups[i >> FANOUT_BITS], &b.groups[i >> FANOUT_BITS]);
            let same = Arc::ptr_eq(&x[i & FANOUT_MASK], &y[i & FANOUT_MASK]);
            assert_eq!(same, i != at && i != at + 1, "leaf {i}");
        }
        drop(b);
        *a.make_mut(0) = 1;
        assert_eq!(
            (a.groups_copied(), a.leaves_copied()),
            (1, 2),
            "nothing is shared once the other version is gone"
        );
    }

    #[test]
    fn reshaping_keeps_the_groups_before_the_edit_and_every_leaf() {
        let n = 4 * SPINE_FANOUT;
        let mut a: Spine<u32> = (0..n as u32).collect();
        let b = a.clone();
        a.insert(2 * SPINE_FANOUT + 1, 999);
        assert_eq!(a.groups_copied(), 2, "groups 2 and 3 were shared");
        a.push(1000);
        assert_eq!(a.groups_copied(), 2, "the tail group is the spine's own");
        assert!(Arc::ptr_eq(&a.groups[0], &b.groups[0]));
        assert!(Arc::ptr_eq(&a.groups[1], &b.groups[1]));
        let kept: HashSet<*const u32> = a.iter().map(|leaf| leaf as *const u32).collect();
        assert!(b.iter().all(|leaf| kept.contains(&(leaf as *const u32))));
        assert_eq!(a.leaves_copied(), 0, "moving a pointer copies no leaf");
        assert!(b.iter().copied().eq(0..n as u32));
    }

    #[test]
    fn taking_the_leaves_copies_only_the_shared_ones() {
        let mut a: Spine<Vec<u32>> = (0..70u32).map(|i| vec![i]).collect();
        let b = a.clone();
        a.make_mut(3).push(1); // leaf 3 is now a's own
        let before = a.leaves_copied();
        let leaves = a.take_leaves();
        assert_eq!(leaves.len(), 70);
        assert_eq!(leaves[3], vec![3, 1]);
        assert_eq!(a.leaves_copied() - before, 69);
        assert!(a.is_empty() && a.shape().groups == 0);
        assert_eq!(b.leaf(3), &vec![3]);
    }

    #[test]
    fn the_default_iterator_is_empty() {
        assert_eq!(Iter::<u32>::default().next(), None);
    }
}
