//! A hash-sharded copy-on-write map: the storage of a
//! [`crate::ConstraintIndex`].
//!
//! The serving layer keeps many versions of one index alive at once, and a
//! commit changes a handful of entries. [`CowMap`] spreads its entries over
//! `2^bits` small `HashMap`s behind `Arc`s: cloning the map bumps one
//! reference count per shard, and a write copies only the shard its key
//! hashes to (and only while that shard is still shared). The shard count
//! follows the entry count — a shard holds [`SHARD_LOAD`] to
//! `2·SHARD_LOAD` entries when the map was sized for its content — and
//! doubles when the map outgrows it, like a `HashMap` rehash.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

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
    shards: Vec<Arc<HashMap<K, V>>>,
    bits: u32,
    len: usize,
    /// Shards copied because a write found them shared, over the whole
    /// clone lineage of this value (clones inherit the count).
    copied: u64,
}

impl<K: Hash + Eq + Clone, V: Clone> CowMap<K, V> {
    /// An empty map sized for `entries` entries.
    pub fn with_capacity(entries: usize) -> Self {
        let bits = (entries / SHARD_LOAD).max(1).ilog2();
        CowMap {
            shards: (0..1usize << bits).map(|_| Arc::default()).collect(),
            bits,
            len: 0,
            copied: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Lifetime count of copy-on-write shard copies (see the field).
    pub fn copied(&self) -> u64 {
        self.copied
    }

    fn shard_of<Q: Hash + ?Sized>(&self, key: &Q) -> usize {
        if self.bits == 0 {
            return 0;
        }
        let mut hasher = ShardHasher::default();
        key.hash(&mut hasher);
        (hasher.finish() >> (64 - self.bits)) as usize
    }

    /// Shard `i`, copied first when another clone still shares it.
    fn shard_mut(&mut self, i: usize) -> &mut HashMap<K, V> {
        let shard = &mut self.shards[i];
        if Arc::get_mut(shard).is_none() {
            *shard = Arc::new((**shard).clone());
            self.copied += 1;
        }
        Arc::get_mut(shard).expect("the shard was just made unique")
    }

    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.shards[self.shard_of(key)].get(key)
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
        if !self.shards[i].contains_key(key) {
            return None;
        }
        self.shard_mut(i).get_mut(key)
    }

    /// The value under `key`, inserted as `V::default()` when absent.
    pub fn entry_or_default<Q>(&mut self, key: &Q) -> &mut V
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
        V: Default,
    {
        let mut i = self.shard_of(key);
        if self.shards[i].contains_key(key) {
            return self
                .shard_mut(i)
                .get_mut(key)
                .expect("the key was just seen");
        }
        if self.is_full() {
            self.split();
            i = self.shard_of(key);
        }
        self.len += 1;
        self.shard_mut(i).entry(key.to_owned()).or_default()
    }

    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if self.is_full() && !self.contains_key(&key) {
            self.split();
        }
        let i = self.shard_of(&key);
        let old = self.shard_mut(i).insert(key, value);
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
        if !self.shards[i].contains_key(key) {
            return None;
        }
        self.len -= 1;
        self.shard_mut(i).remove(key)
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
        if 4 * self.len >= SHARD_LOAD * self.shards.len() {
            return;
        }
        let mut fitted = CowMap::with_capacity(self.len);
        fitted.copied = self.copied;
        for shard in std::mem::take(&mut self.shards) {
            let entries = Arc::try_unwrap(shard).unwrap_or_else(|shared| (*shared).clone());
            for (key, value) in entries {
                fitted.insert(key, value);
            }
        }
        *self = fitted;
    }

    /// Doubles the shard count, moving every entry to the half of its old
    /// shard its next hash bit names. Shards still shared with another
    /// clone are copied (and counted) like any other write.
    fn split(&mut self) {
        let old = std::mem::take(&mut self.shards);
        self.bits += 1;
        self.shards.reserve(2 * old.len());
        for shard in old {
            let entries = Arc::try_unwrap(shard).unwrap_or_else(|shared| {
                self.copied += 1;
                (*shared).clone()
            });
            let (mut low, mut high) = (HashMap::new(), HashMap::new());
            for (key, value) in entries {
                if self.shard_of(&key) & 1 == 0 {
                    low.insert(key, value);
                } else {
                    high.insert(key, value);
                }
            }
            self.shards.push(Arc::new(low));
            self.shards.push(Arc::new(high));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_like_a_hash_map_across_splits() {
        let mut map: CowMap<Vec<u32>, u32> = CowMap::with_capacity(0);
        let mut model = HashMap::new();
        assert_eq!(map.shard_count(), 1);
        for i in 0..1000u32 {
            assert_eq!(
                map.insert(vec![i, i + 1], i),
                model.insert(vec![i, i + 1], i)
            );
            *map.entry_or_default(&[i % 7][..]) += 1;
            *model.entry(vec![i % 7]).or_default() += 1;
        }
        for i in (0..1000u32).step_by(3) {
            assert_eq!(map.remove(&[i, i + 1][..]), model.remove(&vec![i, i + 1]));
            assert_eq!(map.remove(&[i, i + 1][..]), None);
        }
        assert!(map.shard_count() > 1, "1000 keys must have split the map");
        assert_eq!(map.len(), model.len());
        assert_eq!(map.iter().count(), model.len());
        for (key, value) in &model {
            assert_eq!(map.get(key.as_slice()), Some(value));
        }
        assert_eq!(map.get_mut(&[5000u32][..]), None);
    }

    #[test]
    fn sized_maps_keep_shards_near_the_load() {
        let map: CowMap<u32, u32> = CowMap::with_capacity(64 * SHARD_LOAD + 5);
        assert_eq!(map.shard_count(), 64);
        assert_eq!(
            CowMap::<u32, u32>::with_capacity(SHARD_LOAD - 1).shard_count(),
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
            .zip(&b.shards)
            .filter(|(x, y)| Arc::ptr_eq(x, y))
            .count();
        assert_eq!(shared, a.shard_count() - 1);
    }

    #[test]
    fn splitting_a_shared_map_leaves_the_other_clone_intact() {
        let mut a: CowMap<u32, u32> = CowMap::with_capacity(0);
        for i in 0..2 * SHARD_LOAD as u32 {
            a.insert(i, i);
        }
        let b = a.clone();
        a.insert(1_000, 1); // the map is full: this insert splits it
        assert_eq!((a.shard_count(), b.shard_count()), (2, 1));
        assert_eq!(a.copied(), 1);
        assert_eq!((a.len(), b.len()), (2 * SHARD_LOAD + 1, 2 * SHARD_LOAD));
        for i in 0..2 * SHARD_LOAD as u32 {
            assert_eq!((a.get(&i), b.get(&i)), (Some(&i), Some(&i)));
        }
        assert_eq!(b.get(&1_000), None);
    }
}
