//! A hash-sharded copy-on-write map: the storage of a global or `|S| ≥ 2`
//! [`crate::ConstraintIndex`], whose keys are node-id tuples. (A unary
//! index is keyed by one node id and is an array instead,
//! [`bgpq_graph::PagedVec`].)
//!
//! The serving layer keeps many versions of one index alive at once, and a
//! commit changes a handful of entries. [`CowMap`] spreads its entries over
//! `2^bits` small `HashMap`s, the leaves of a [`Spine`]: cloning the map
//! bumps one reference count per group of [`bgpq_graph::SPINE_FANOUT`]
//! shards (`entries / 4096` or so), and a write copies only the shard its
//! key hashes to plus that shard's group of pointers (and only while they
//! are still shared). A probe follows one more pointer than it would
//! through a flat shard table. The shard count follows the entry count — a
//! shard holds [`SHARD_LOAD`] to `2·SHARD_LOAD` entries when the map was
//! sized for its content — and doubles when the map outgrows it, like a
//! `HashMap` rehash.
//!
//! What a shard copy costs is what cloning its entries costs, so the index
//! keeps its entries by value: keys and answer lists are
//! [`bgpq_graph::Row`]s, which hold up to five ids inline. Copying a shard
//! of such entries is one table allocation and a flat copy — a longer list
//! costs one reference-count bump — and dropping the superseded copy frees
//! one table, not two heap lists per entry.
//!
//! **Bulk fills go shard by shard.** Inserting a whole map one key at a
//! time lands each key in a random shard, and every shard's table rehashes
//! as it grows. [`CowMap::from_records`] instead takes one record per key
//! from the caller's buffer (a record names its key and how to make its
//! entry — an index passes a span of one flat id list), sorts the buffer by
//! shard in place with a counting sort, and then builds each shard's table
//! in one pass at its final size. A global index's build, snapshot decoding
//! and the map's own re-bucketing (`split`, `shrink_to_fit`) all go through
//! it; maintenance inserts key by key.

use bgpq_graph::{Spine, SpineShape};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Entries per shard a map is sized for; a shard is split at twice this.
pub(crate) const SHARD_LOAD: usize = 64;

/// Picks a key's shard: a multiply-rotate mix whose top bits spread dense
/// node ids evenly. It only has to balance the shards — inside a shard the
/// `HashMap` hashes the key again with its own seeded hasher — and it is the
/// same in every process, so which shards a batch copies is reproducible.
#[derive(Default)]
struct ShardHasher(u64);

impl Hasher for ShardHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(Debug, Clone)]
pub(crate) struct CowMap<K, V> {
    /// `2^bits` shards; a key lives in the shard named by the top `bits`
    /// bits of its [`ShardHasher`] hash, so doubling splits shard `i` into
    /// `2i` and `2i + 1`.
    shards: Spine<HashMap<K, V>>,
    bits: u32,
    len: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> CowMap<K, V> {
    /// An empty map sized for `entries` entries.
    pub fn with_capacity(entries: usize) -> Self {
        let bits = bits_for(entries);
        CowMap {
            shards: (0..1usize << bits).map(|_| HashMap::new()).collect(),
            bits,
            len: 0,
        }
    }

    /// The map of one entry per record: the map `with_capacity(sized_for)`
    /// followed by an insert per record and [`CowMap::shrink_to_fit`] would
    /// be, shard for shard. `hash` is the [`shard_hash`] of a record's key
    /// (no two records may share a key) and `entry` makes the entry. The
    /// records are sorted by shard in place and drained, so `records` comes
    /// back empty with its capacity kept.
    pub fn from_records<T>(
        sized_for: usize,
        records: &mut Vec<T>,
        hash: impl Fn(&T) -> u64,
        entry: impl FnMut(T) -> (K, V),
    ) -> Self {
        let mut map = CowMap {
            shards: Spine::default(),
            bits: 0,
            len: 0,
        };
        map.fill(sized_for, records, hash, entry);
        map
    }

    /// Fills a map whose spine is empty; see [`CowMap::from_records`].
    fn fill<T>(
        &mut self,
        sized_for: usize,
        records: &mut Vec<T>,
        hash: impl Fn(&T) -> u64,
        mut entry: impl FnMut(T) -> (K, V),
    ) {
        debug_assert!(self.shards.is_empty());
        self.len = records.len();
        self.bits = bits_for(sized_for);
        if 4 * self.len < SHARD_LOAD << self.bits {
            self.bits = bits_for(self.len);
        }
        while self.len > (2 * SHARD_LOAD) << self.bits {
            self.bits += 1;
        }
        let mut shard_of: Vec<u32> = records
            .iter()
            .map(|record| self.shard(hash(record)) as u32)
            .collect();
        let mut sizes = vec![0usize; 1 << self.bits];
        for &shard in &shard_of {
            sizes[shard as usize] += 1;
        }
        // Counting sort in place: `next[s]` is the first slot of shard `s`'s
        // range not yet known to hold one of its records; each swap moves a
        // record to its own range for good.
        let mut next = Vec::with_capacity(sizes.len());
        let mut end = 0;
        for &size in &sizes {
            next.push(end);
            end += size;
        }
        let mut start = 0;
        for (s, &size) in sizes.iter().enumerate() {
            start += size;
            while next[s] < start {
                let i = next[s];
                let home = shard_of[i] as usize;
                if home == s {
                    next[s] += 1;
                } else {
                    records.swap(i, next[home]);
                    shard_of.swap(i, next[home]);
                    next[home] += 1;
                }
            }
        }
        drop((shard_of, next));
        let mut sorted = records.drain(..);
        self.shards.extend(sizes.iter().map(|&size| {
            let mut shard = HashMap::with_capacity(size);
            shard.extend(sorted.by_ref().take(size).map(&mut entry));
            debug_assert_eq!(shard.len(), size, "records share a key");
            shard
        }));
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// Shards copied because a write found them shared, over the whole
    /// clone lineage of this value (clones inherit the count).
    pub fn copied(&self) -> u64 {
        self.shards.leaves_copied()
    }

    /// Groups of shard pointers copied for the same reason.
    pub fn groups_copied(&self) -> u64 {
        self.shards.groups_copied()
    }

    /// Shape of the shard spine: its groups are what a clone bumps.
    pub fn shape(&self) -> SpineShape {
        self.shards.shape()
    }

    /// Bytes the map's storage holds, counted from its shape: every
    /// shard's table at its capacity (an entry and a control byte per
    /// slot), a pointer per shard, and what `held` says each entry points
    /// to.
    pub fn storage_bytes(&self, held: impl Fn(&K, &V) -> usize) -> usize {
        let slot = std::mem::size_of::<(K, V)>() + 1;
        let tables: usize = self
            .shards
            .iter()
            .map(|shard| shard.capacity() * slot)
            .sum();
        let pointers = self.shards.len() * std::mem::size_of::<usize>();
        tables + pointers + self.iter().map(|(k, v)| held(k, v)).sum::<usize>()
    }

    fn shard_of<Q: Hash + ?Sized>(&self, key: &Q) -> usize {
        self.shard(shard_hash(key))
    }

    /// The shard named by the top `bits` bits of a [`shard_hash`].
    fn shard(&self, hash: u64) -> usize {
        if self.bits == 0 {
            return 0;
        }
        (hash >> (64 - self.bits)) as usize
    }

    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.shards.leaf(self.shard_of(key)).get(key)
    }

    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get(key).is_some()
    }

    /// Mutable access to the value under `key`; copies nothing when the key
    /// is absent.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let i = self.shard_of(key);
        if !self.shards.leaf(i).contains_key(key) {
            return None;
        }
        self.shards.make_mut(i).get_mut(key)
    }

    /// The value under `key`, inserted as `V::default()` when absent.
    pub fn entry_or_default(&mut self, key: K) -> &mut V
    where
        V: Default,
    {
        let mut i = self.shard_of(&key);
        if !self.shards.leaf(i).contains_key(&key) {
            if self.is_full() {
                self.split();
                i = self.shard_of(&key);
            }
            self.len += 1;
        }
        self.shards.make_mut(i).entry(key).or_default()
    }

    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if self.is_full() && !self.contains_key(&key) {
            self.split();
        }
        let i = self.shard_of(&key);
        let old = self.shards.make_mut(i).insert(key, value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes `key`; copies nothing when it is absent.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let i = self.shard_of(key);
        if !self.shards.leaf(i).contains_key(key) {
            return None;
        }
        self.len -= 1;
        self.shards.make_mut(i).remove(key)
    }

    /// True when one more key would overfill the shards.
    fn is_full(&self) -> bool {
        self.len >= 2 * SHARD_LOAD * self.shards.len()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.shards.iter().flat_map(|shard| shard.iter())
    }

    /// Re-buckets a map that ended up with under a quarter of the entries
    /// it was sized for, so clones stop paying for shards it does not need.
    pub fn shrink_to_fit(&mut self) {
        if 4 * self.len < SHARD_LOAD * self.shards.len() {
            self.rebucket(self.len);
        }
    }

    /// Doubles the shard count: shard `i`'s entries move to `2i` and
    /// `2i + 1`, by their next hash bit.
    fn split(&mut self) {
        self.rebucket(SHARD_LOAD << (self.bits + 1));
    }

    /// Refills the map as one sized for `sized_for` entries. Shards still
    /// shared with another clone are copied (and counted) like any other
    /// write; the copy counters stay.
    fn rebucket(&mut self, sized_for: usize) {
        let leaves = self.shards.take_leaves();
        let mut entries: Vec<(K, V)> = leaves.into_iter().flatten().collect();
        self.fill(
            sized_for,
            &mut entries,
            |(key, _)| shard_hash(key),
            |entry| entry,
        );
    }
}

/// The hash a key's shard is picked from; a key and anything it borrows as
/// (a [`bgpq_graph::Row`] and its id slice) hash alike.
pub(crate) fn shard_hash<Q: Hash + ?Sized>(key: &Q) -> u64 {
    let mut hasher = ShardHasher::default();
    key.hash(&mut hasher);
    hasher.finish()
}

/// Shard bits of a map sized for `entries` entries.
fn bits_for(entries: usize) -> u32 {
    (entries / SHARD_LOAD).max(1).ilog2()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_like_a_hash_map_across_splits() {
        let mut map: CowMap<Vec<u32>, u32> = CowMap::with_capacity(0);
        let mut model = HashMap::new();
        assert_eq!(map.shape().leaves, 1);
        for i in 0..1000u32 {
            assert_eq!(
                map.insert(vec![i, i + 1], i),
                model.insert(vec![i, i + 1], i)
            );
            *map.entry_or_default(vec![i % 7]) += 1;
            *model.entry(vec![i % 7]).or_default() += 1;
        }
        for i in (0..1000u32).step_by(3) {
            assert_eq!(map.remove(&[i, i + 1][..]), model.remove(&vec![i, i + 1]));
            assert_eq!(map.remove(&[i, i + 1][..]), None);
        }
        assert!(map.shape().leaves > 1, "1000 keys must have split the map");
        assert_eq!(map.len(), model.len());
        assert_eq!(map.iter().count(), model.len());
        for (key, value) in &model {
            assert_eq!(map.get(key.as_slice()), Some(value));
        }
        assert_eq!(map.get_mut(&[5000u32][..]), None);
    }

    #[test]
    fn a_bulk_fill_equals_inserting_key_by_key() {
        let per_shard = |map: &CowMap<u32, u64>| -> Vec<Vec<(u32, u64)>> {
            let shards = map.shards.iter().map(|shard| {
                let mut entries: Vec<(u32, u64)> = shard.iter().map(|(&k, &v)| (k, v)).collect();
                entries.sort_unstable();
                entries
            });
            shards.collect()
        };
        let load = SHARD_LOAD;
        // Sized right, for many more (a quarter and under), for fewer (the
        // map grows past its sizing), and empty.
        let cases = [
            (100 * load, 90 * load),
            (64 * load, 16 * load),
            (64 * load, 15 * load),
        ];
        let cases = cases
            .into_iter()
            .chain([(0, 5 * load + 1), (3 * load, 0), (load, 1)]);
        for (sized_for, len) in cases {
            let keys = (0..len as u32).map(|i| i.wrapping_mul(2_654_435_761));
            let mut one_by_one = CowMap::with_capacity(sized_for);
            for key in keys.clone() {
                one_by_one.insert(key, u64::from(key) + 1);
            }
            one_by_one.shrink_to_fit();
            let mut records: Vec<u32> = keys.collect();
            let bulk = CowMap::from_records(sized_for, &mut records, shard_hash, |key| {
                (key, u64::from(key) + 1)
            });
            let ctx = format!("sized for {sized_for}, {len} keys");
            assert_eq!(bulk.shape(), one_by_one.shape(), "{ctx}");
            assert_eq!(bulk.len(), len, "{ctx}");
            assert_eq!(per_shard(&bulk), per_shard(&one_by_one), "{ctx}");
            assert!(records.is_empty() && records.capacity() >= len, "{ctx}");
            assert_eq!(bulk.copied(), 0, "a fresh map copies nothing ({ctx})");
        }
    }

    #[test]
    fn sized_maps_keep_shards_near_the_load() {
        let map: CowMap<u32, u32> = CowMap::with_capacity(64 * SHARD_LOAD + 5);
        assert_eq!(map.shape().leaves, 64);
        assert_eq!(
            CowMap::<u32, u32>::with_capacity(SHARD_LOAD - 1)
                .shape()
                .leaves,
            1
        );
    }

    #[test]
    fn a_write_copies_only_its_own_shared_shard() {
        let mut a: CowMap<u32, u32> = CowMap::with_capacity(16 * SHARD_LOAD);
        for i in 0..500 {
            a.insert(i, i);
        }
        let b = a.clone();
        assert_eq!(a.copied(), 0, "filling a fresh map copies nothing");
        *a.get_mut(&7).unwrap() = 70;
        *a.get_mut(&7).unwrap() = 71;
        assert_eq!(a.copied(), 1, "the second write finds the shard unique");
        assert_eq!(a.remove(&9999), None);
        assert_eq!(a.get_mut(&9999), None);
        assert_eq!(a.copied(), 1, "a miss copies nothing");
        assert_eq!((a.get(&7), b.get(&7)), (Some(&71), Some(&7)));
        let shared = a
            .shards
            .iter()
            .zip(b.shards.iter())
            .filter(|(x, y)| std::ptr::eq(*x, *y))
            .count();
        assert_eq!(shared, a.shape().leaves - 1);
    }

    #[test]
    fn splitting_a_shared_map_leaves_the_other_clone_intact() {
        let mut a: CowMap<u32, u32> = CowMap::with_capacity(0);
        for i in 0..2 * SHARD_LOAD as u32 {
            a.insert(i, i);
        }
        let b = a.clone();
        a.insert(1_000, 1); // the map is full: this insert splits it
        assert_eq!((a.shape().leaves, b.shape().leaves), (2, 1));
        assert_eq!(a.copied(), 1);
        assert_eq!((a.len(), b.len()), (2 * SHARD_LOAD + 1, 2 * SHARD_LOAD));
        for i in 0..2 * SHARD_LOAD as u32 {
            assert_eq!((a.get(&i), b.get(&i)), (Some(&i), Some(&i)));
        }
        assert_eq!(b.get(&1_000), None);
    }

    #[test]
    fn split_and_shrink_cross_a_group_boundary_under_a_pinned_clone() {
        use bgpq_graph::SPINE_FANOUT;
        // Full at exactly one group of shards: the next new key doubles the
        // map into a second group.
        let full = 2 * SHARD_LOAD * SPINE_FANOUT;
        let mut a: CowMap<u32, u32> = CowMap::with_capacity(SPINE_FANOUT * SHARD_LOAD);
        for i in 0..full as u32 {
            a.insert(i, i);
        }
        assert_eq!((a.shape().leaves, a.shape().groups), (SPINE_FANOUT, 1));
        let pinned = a.clone();
        a.insert(u32::MAX, 0);
        assert_eq!((a.shape().leaves, a.shape().groups), (2 * SPINE_FANOUT, 2));
        assert_eq!(a.copied(), SPINE_FANOUT as u64, "every shard was shared");
        assert_eq!((a.len(), pinned.len()), (full + 1, full));
        for i in 0..full as u32 {
            assert_eq!((a.get(&i), pinned.get(&i)), (Some(&i), Some(&i)));
        }
        assert_eq!((a.get(&u32::MAX), pinned.get(&u32::MAX)), (Some(&0), None));

        // Emptied to a sliver, the two groups re-fit into a single shard;
        // the clone pinned before the purge keeps all of them.
        let before = a.clone();
        for i in SHARD_LOAD as u32..=full as u32 {
            a.remove(&i);
        }
        a.remove(&u32::MAX);
        a.shrink_to_fit();
        assert_eq!((a.shape().leaves, a.shape().groups), (1, 1));
        assert_eq!((a.len(), a.iter().count()), (SHARD_LOAD, SHARD_LOAD));
        assert_eq!(before.shape().groups, 2);
        assert_eq!((before.len(), before.iter().count()), (full + 1, full + 1));
        assert_eq!((a.get(&5), a.get(&(full as u32 - 1))), (Some(&5), None));
        assert_eq!(before.get(&(full as u32 - 1)), Some(&(full as u32 - 1)));
        assert!(
            a.copied() >= before.copied(),
            "the counters survive a re-fit"
        );
    }
}
