//! The two-level copy-on-write spine under every structurally shared
//! container of the workspace: the pages of a [`crate::Graph`]'s per-node
//! arrays, the chunks of its label buckets and long adjacency rows, and the
//! pages of the access indices in `bgpq-access`.
//!
//! A snapshot chain keeps many versions of one container alive at once, and
//! a commit changes a handful of leaves. A [`Spine`] holds its leaves behind
//! `Arc`s, every leaf but the last in `Arc`'d *groups* of
//! [`SPINE_FANOUT`] leaf pointers, and the last leaf — the open tail that
//! appends write to — on its own:
//!
//! * **clone** bumps one reference count per group plus one for the tail —
//!   about `|V| / 16 384` for an array of [`crate::PAGE_SIZE`]-node pages
//!   (184 at 3.0M nodes). That is a 64th of a flat `Vec<Arc<leaf>>`, not a
//!   constant: the bound is honest about still following `|G|`, two orders
//!   of magnitude below the work a commit does anyway;
//! * **[`Spine::make_mut`]** un-shares one leaf and, unless the leaf is the
//!   tail, its group (64 pointer copies) — each only while still shared. A
//!   write to the tail (a new node's slot, a bucket's or a row's last
//!   chunk) copies the tail alone;
//! * **drop** of a retired version decrements the groups and the tail, and
//!   walks into only those its successor replaced;
//! * **reads** pay one more dependent load than a flat vector — through a
//!   top level of a few dozen pointers that stays in L1.

use std::sync::Arc;

const FANOUT_BITS: u32 = 6;

/// Leaves per group of a [`Spine`]: cloning a spine of `n` leaves bumps
/// `⌈(n − 1) / SPINE_FANOUT⌉ + 1` reference counts.
pub const SPINE_FANOUT: usize = 1 << FANOUT_BITS;

const FANOUT_MASK: usize = SPINE_FANOUT - 1;

/// The size of a [`Spine`]: `groups` is always `⌈(leaves − 1) /
/// SPINE_FANOUT⌉`, since the last leaf sits outside them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpineShape {
    /// Number of leaves.
    pub leaves: usize,
    /// Number of groups of leaf pointers.
    pub groups: usize,
}

impl SpineShape {
    /// Reference counts one clone of the spine bumps: its groups and its
    /// tail leaf.
    pub fn refcounts(&self) -> usize {
        self.groups + usize::from(self.leaves > 0)
    }
}

/// Every group but the last holds exactly [`SPINE_FANOUT`] leaves.
type Group<L> = Arc<[Arc<L>]>;

/// A growable vector of `Arc`-shared leaves behind `Arc`-shared groups of
/// leaf pointers, its last leaf held apart (see the module docs).
#[derive(Debug)]
pub struct Spine<L> {
    /// Leaves `0 .. len − 1`.
    groups: Vec<Group<L>>,
    /// Leaf `len − 1`; `None` exactly when the spine is empty.
    tail: Option<Arc<L>>,
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
            tail: None,
            len: 0,
            leaves_copied: 0,
            groups_copied: 0,
        }
    }
}

/// One reference-count bump per group and one for the tail; no leaf is
/// touched.
impl<L> Clone for Spine<L> {
    fn clone(&self) -> Self {
        Spine {
            groups: self.groups.clone(),
            tail: self.tail.clone(),
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
        match self.groups.get(i >> FANOUT_BITS) {
            Some(group) if i + 1 < self.len => &group[i & FANOUT_MASK],
            _ => self.tail_at(i),
        }
    }

    /// The tail, which must be leaf `i`.
    #[cold]
    #[inline(never)]
    fn tail_at(&self, i: usize) -> &L {
        assert!(i + 1 == self.len, "index {i} out of range for {}", self.len);
        self.tail.as_deref().expect("a non-empty spine has a tail")
    }

    /// Leaf `i`, or `None` when out of range.
    pub fn get(&self, i: usize) -> Option<&L> {
        (i < self.len).then(|| self.leaf(i))
    }

    /// The last leaf, if any.
    pub fn last(&self) -> Option<&L> {
        self.tail.as_deref()
    }

    /// Iterates over the leaves in order.
    pub fn iter(&self) -> Iter<'_, L> {
        Iter {
            groups: self.groups.iter(),
            leaves: [].iter(),
            tail: self.tail.as_deref(),
        }
    }

    /// Appends a leaf. The old tail joins the last group: opening a group
    /// allocates it, extending one rewrites its (at most
    /// [`SPINE_FANOUT`]) pointers.
    pub fn push(&mut self, leaf: impl Into<Arc<L>>) {
        if let Some(last) = self.tail.replace(leaf.into()) {
            match self.groups.last_mut() {
                Some(group) if group.len() < SPINE_FANOUT => {
                    self.groups_copied += u64::from(Arc::strong_count(group) > 1);
                    let leaves = group.iter().cloned().chain(std::iter::once(last));
                    *group = leaves.collect();
                }
                _ => self.groups.push(Arc::from([last])),
            }
        }
        self.len += 1;
    }

    /// Inserts a leaf before position `i`, shifting the leaves after it —
    /// `len − i` pointer moves, so cheap at the tail and meant to be rare
    /// elsewhere.
    ///
    /// # Panics
    /// Panics when `i > len`.
    pub fn insert(&mut self, i: usize, leaf: impl Into<Arc<L>>) {
        assert!(i <= self.len, "index {i} out of range for {}", self.len);
        self.reshape_from(i, |tail, at| tail.insert(at, leaf.into()));
    }

    /// Removes leaf `i`, shifting the leaves after it (see
    /// [`Spine::insert`] for the cost).
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub fn remove(&mut self, i: usize) {
        assert!(i < self.len, "index {i} out of range for {}", self.len);
        self.reshape_from(i, |tail, at| {
            tail.remove(at);
        });
    }

    /// Regroups the leaf pointers from the group of position `at` onwards,
    /// the tail included, after `edit(leaves, at)` changed them (`at`
    /// counted from the first leaf handed over). Groups before it keep
    /// their identity.
    fn reshape_from(&mut self, at: usize, edit: impl FnOnce(&mut Vec<Arc<L>>, usize)) {
        // Position `len` at a multiple of the fanout is still the last
        // group's: the tail before it is.
        let first = (at >> FANOUT_BITS).min(self.len.saturating_sub(1) >> FANOUT_BITS);
        let mut tail: Vec<Arc<L>> = Vec::with_capacity(self.len - (first << FANOUT_BITS) + 1);
        for group in self.groups.drain(first..) {
            self.groups_copied += u64::from(Arc::strong_count(&group) > 1);
            tail.extend(group.iter().cloned());
        }
        tail.extend(self.tail.take());
        edit(&mut tail, at - (first << FANOUT_BITS));
        if tail.is_empty() {
            // The edit took the last leaf: the last group gives up a tail.
            if let Some(group) = self.groups.pop() {
                self.groups_copied += u64::from(Arc::strong_count(&group) > 1);
                tail.extend(group.iter().cloned());
            }
        }
        self.len = (self.groups.len() << FANOUT_BITS) + tail.len();
        self.tail = tail.pop();
        let mut tail = tail.into_iter();
        while tail.len() > 0 {
            self.groups.push(tail.by_ref().take(SPINE_FANOUT).collect());
        }
    }
}

impl<L: Clone> Spine<L> {
    /// Mutable access to leaf `i`, copying its group (unless it is the
    /// tail, which has none) and then the leaf first, each only when
    /// another clone still shares it.
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub fn make_mut(&mut self, i: usize) -> &mut L {
        assert!(i < self.len, "index {i} out of range for {}", self.len);
        if i + 1 == self.len {
            let tail = self.tail.as_mut().expect("a non-empty spine has a tail");
            return unshare(tail, &mut self.leaves_copied);
        }
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
        unshare(&mut leaves[i & FANOUT_MASK], &mut self.leaves_copied)
    }

    /// Empties the spine and returns its leaves by value, copying (and
    /// counting) those another clone still shares. The counters stay.
    pub fn take_leaves(&mut self) -> Vec<L> {
        let groups = std::mem::take(&mut self.groups);
        let tail = self.tail.take();
        self.len = 0;
        let grouped = groups.iter().flat_map(|g| g.iter().cloned());
        let shared: Vec<Arc<L>> = grouped.chain(tail).collect();
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

/// The leaf behind `leaf`, copied first (and counted in `copied`) while
/// another clone shares it.
fn unshare<'a, L: Clone>(leaf: &'a mut Arc<L>, copied: &mut u64) -> &'a mut L {
    // `Arc::make_mut` moves to a new allocation exactly when it copies.
    let shared = Arc::as_ptr(leaf);
    let leaf = Arc::make_mut(leaf);
    *copied += u64::from(!std::ptr::eq(shared, leaf));
    leaf
}

/// Appends the leaves, regrouping the tail once.
impl<L, A: Into<Arc<L>>> Extend<A> for Spine<L> {
    fn extend<I: IntoIterator<Item = A>>(&mut self, iter: I) {
        let at = self.len;
        self.reshape_from(at, |tail, _| tail.extend(iter.into_iter().map(Into::into)));
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
    tail: Option<&'a L>,
}

impl<L> Default for Iter<'_, L> {
    fn default() -> Self {
        Iter {
            groups: [].iter(),
            leaves: [].iter(),
            tail: None,
        }
    }
}

impl<L> Clone for Iter<'_, L> {
    fn clone(&self) -> Self {
        Iter {
            groups: self.groups.clone(),
            leaves: self.leaves.clone(),
            tail: self.tail,
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
            match self.groups.next() {
                Some(group) => self.leaves = group.iter(),
                None => return self.tail.take(),
            }
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
        let grouped = model.len().saturating_sub(1);
        assert_eq!(spine.shape().groups, grouped.div_ceil(SPINE_FANOUT));
        assert!(spine.iter().eq(model.iter()));
        for (i, value) in model.iter().enumerate() {
            assert_eq!(spine.leaf(i), value);
        }
        assert_eq!(spine.get(model.len()), None);
        assert_eq!(spine.last(), model.last());
        let full = spine.groups.len().saturating_sub(1);
        assert!(spine.groups[..full].iter().all(|g| g.len() == SPINE_FANOUT));
        let held: usize = spine.groups.iter().map(|g| g.len()).sum();
        assert_eq!(held, grouped, "every leaf but the last is grouped");
    }

    #[test]
    fn random_interleavings_agree_with_a_vec_model() {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        // Live versions: the spine under edit first, pinned clones after it.
        let mut versions: Vec<(Spine<u32>, Vec<u32>)> = vec![(Spine::default(), Vec::new())];
        for step in 0..6_000u32 {
            let len = versions[0].1.len();
            // Every other edit lands at the tail seam: the last leaf, or
            // the one before it.
            let near_tail = |rng: &mut Rng, n: usize| match rng.below(2) {
                0 => rng.below(n),
                _ => n - 1 - rng.below(n.min(2)),
            };
            match rng.below(12) {
                0..=4 => {
                    versions[0].0.push(step);
                    versions[0].1.push(step);
                }
                5..=7 if len > 0 => {
                    let i = near_tail(&mut rng, len);
                    *versions[0].0.make_mut(i) = step;
                    versions[0].1[i] = step;
                }
                8 => {
                    let i = near_tail(&mut rng, len + 1);
                    versions[0].0.insert(i, step);
                    versions[0].1.insert(i, step);
                }
                9 if len > 0 => {
                    let i = near_tail(&mut rng, len);
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
            assert_eq!(grown.shape().groups, n.div_ceil(SPINE_FANOUT));
            assert_eq!(grown.shape().refcounts(), n.div_ceil(SPINE_FANOUT) + 1);
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
            let same = std::ptr::eq(a.leaf(i), b.leaf(i));
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
        assert_eq!(a.groups_copied(), 2, "the old tail opens a group");
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
    fn a_write_to_the_tail_copies_the_leaf_and_no_group() {
        for n in [1, SPINE_FANOUT, SPINE_FANOUT + 1, 3 * SPINE_FANOUT + 5] {
            let mut a: Spine<u32> = (0..n as u32).collect();
            let b = a.clone();
            *a.make_mut(n - 1) = 7;
            assert_eq!((a.groups_copied(), a.leaves_copied()), (0, 1), "n = {n}");
            assert_eq!((*a.leaf(n - 1), *b.leaf(n - 1)), (7, n as u32 - 1));
            for g in 0..a.shape().groups {
                assert!(Arc::ptr_eq(&a.groups[g], &b.groups[g]), "group {g}");
            }
        }
    }

    /// A push hands the old tail to the groups: into a fresh group when the
    /// last one is full (nothing copied), else into the last one (copied
    /// when shared). Pins keep what they held at every step.
    #[test]
    fn a_push_hands_the_old_tail_to_the_groups() {
        let mut a: Spine<u32> = Spine::default();
        let mut pins: Vec<(Spine<u32>, u32)> = Vec::new();
        for i in 0..2 * SPINE_FANOUT as u32 + 3 {
            let before = a.groups_copied();
            let last_group_full = !a.groups.last().is_some_and(|g| g.len() < SPINE_FANOUT);
            pins.push((a.clone(), i));
            a.push(i);
            let copied = a.groups_copied() - before;
            let shared_partial_group = i > 0 && !last_group_full;
            assert_eq!(copied, u64::from(shared_partial_group), "push {i}");
            assert_eq!(a.last(), Some(&i));
        }
        assert_eq!(a.leaves_copied(), 0, "a push copies no leaf");
        for (pinned, len) in &pins {
            assert!(pinned.iter().copied().eq(0..*len));
        }
    }

    /// Inserting and removing at the seam between the groups and the tail,
    /// under a pin, against a `Vec` model.
    #[test]
    fn inserts_and_removes_at_the_tail_seam() {
        for n in [1, 2, SPINE_FANOUT, SPINE_FANOUT + 1, 2 * SPINE_FANOUT + 1] {
            let base: Spine<u32> = (0..n as u32).collect();
            let model: Vec<u32> = (0..n as u32).collect();
            for at in n.saturating_sub(2)..=n {
                let mut a = base.clone();
                let mut m = model.clone();
                a.insert(at, 99);
                m.insert(at, 99);
                assert_matches(&a, &m);
                a.remove(at.min(m.len() - 1));
                m.remove(at.min(m.len() - 1));
                assert_matches(&a, &m);
                if at < n {
                    a.remove(at);
                    m.remove(at);
                    assert_matches(&a, &m);
                }
                assert_matches(&base, &model);
            }
        }
    }

    #[test]
    fn the_default_iterator_is_empty() {
        assert_eq!(Iter::<u32>::default().next(), None);
    }
}
