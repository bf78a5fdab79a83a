//! [`ChunkMap`]: the sorted map behind every per-entry collection of a
//! [`StateView`](super::StateView).
//!
//! Entries live in sorted chunks of about 64 entries, each behind
//! its own `Arc`. Cloning a map clones one `Arc` per chunk, and a patch
//! through [`Arc::make_mut`] copies only the chunks it touches, so a
//! snapshot a reader still holds and the one the control plane patches
//! next share every chunk the batch left alone. The read API is the
//! subset of `BTreeMap`'s that readers use; equality and `Debug` go by
//! content, whatever the chunk layout.

use std::borrow::Borrow;
use std::fmt;
use std::ops::Index;
use std::slice;
use std::sync::Arc;

/// Entries per chunk: a chunk splits in two of this size once it holds
/// more than twice as many, and merges with a neighbour when the two fit
/// in one.
const CHUNK: usize = 64;

/// One sorted run of entries, shared between snapshots until patched.
type Chunk<K, V> = Arc<Vec<(K, V)>>;

/// A sorted map stored as shared chunks: cheap to clone, copy-on-write
/// per chunk. Chunks are non-empty, sorted, and in key order.
pub struct ChunkMap<K, V> {
    chunks: Vec<Chunk<K, V>>,
    len: usize,
}

impl<K, V> ChunkMap<K, V> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entries in key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter {
            chunks: self.chunks.iter(),
            front: Default::default(),
            back: Default::default(),
            len: self.len,
        }
    }

    /// The keys in order.
    pub fn keys(&self) -> Keys<'_, K, V> {
        Keys(self.iter())
    }

    /// The values in key order.
    pub fn values(&self) -> Values<'_, K, V> {
        Values(self.iter())
    }

    /// The chunks, for tests that count what two snapshots share.
    #[cfg(test)]
    pub(crate) fn chunks(&self) -> &[Chunk<K, V>] {
        &self.chunks
    }
}

impl<K: Ord, V> ChunkMap<K, V> {
    /// The index of the first chunk whose last key is not below `key`:
    /// the chunk that holds `key` if any does, `chunks.len()` if every
    /// key is below it.
    fn chunk_of<Q>(&self, key: &Q) -> usize
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.chunks.partition_point(|chunk| {
            let (last, _) = chunk.last().expect("chunks are non-empty");
            last.borrow() < key
        })
    }

    /// The chunk and position of `key`, if present.
    fn find<Q>(&self, key: &Q) -> Option<(usize, usize)>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let c = self.chunk_of(key);
        let chunk = self.chunks.get(c)?;
        let i = chunk.binary_search_by(|(k, _)| k.borrow().cmp(key)).ok()?;
        Some((c, i))
    }

    /// The value stored under `key`.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let (c, i) = self.find(key)?;
        Some(&self.chunks[c][i].1)
    }

    /// Whether `key` has an entry.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.find(key).is_some()
    }
}

impl<K: Ord + Clone, V: Clone> ChunkMap<K, V> {
    /// The value under `key`, writable; copies its chunk if a snapshot
    /// still shares it.
    pub(crate) fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let (c, i) = self.find(key)?;
        Some(&mut Arc::make_mut(&mut self.chunks[c])[i].1)
    }

    /// Stores `value` under `key`, returning the value it replaces.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<V> {
        let Some(last) = self.chunks.len().checked_sub(1) else {
            self.chunks.push(Arc::new(vec![(key, value)]));
            self.len = 1;
            return None;
        };
        // A key above every other joins the last chunk.
        let c = self.chunk_of(&key).min(last);
        let chunk = Arc::make_mut(&mut self.chunks[c]);
        match chunk.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => Some(std::mem::replace(&mut chunk[i].1, value)),
            Err(i) => {
                chunk.insert(i, (key, value));
                self.len += 1;
                if chunk.len() > 2 * CHUNK {
                    let tail = chunk.split_off(CHUNK);
                    chunk.shrink_to_fit();
                    self.chunks.insert(c + 1, Arc::new(tail));
                }
                None
            }
        }
    }

    /// Removes `key`'s entry, returning its value. A chunk that empties
    /// is dropped; one that fits in a neighbour with it is merged into it,
    /// so churn cannot thin the map into many near-empty chunks and a
    /// clone stays O(entries / `CHUNK`).
    pub(crate) fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let (c, i) = self.find(key)?;
        let (_, value) = Arc::make_mut(&mut self.chunks[c]).remove(i);
        self.len -= 1;
        if self.chunks[c].is_empty() {
            self.chunks.remove(c);
        } else if let Some(left) = c.checked_sub(1).filter(|&l| self.fits(l)) {
            self.merge(left);
        } else if c + 1 < self.chunks.len() && self.fits(c) {
            self.merge(c);
        }
        Some(value)
    }

    /// Whether chunks `c` and `c + 1` fit in one.
    fn fits(&self, c: usize) -> bool {
        self.chunks[c].len() + self.chunks[c + 1].len() <= CHUNK
    }

    /// Moves chunk `c + 1`'s entries onto the end of chunk `c`.
    fn merge(&mut self, c: usize) {
        let right = self.chunks.remove(c + 1);
        let right = Arc::try_unwrap(right).unwrap_or_else(|shared| shared.to_vec());
        Arc::make_mut(&mut self.chunks[c]).extend(right);
    }
}

/// Builds the map from entries in any order; a repeated key keeps its
/// last value, as `BTreeMap`'s `collect` does.
impl<K: Ord, V> FromIterator<(K, V)> for ChunkMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(entries: I) -> Self {
        let mut entries: Vec<(K, V)> = entries.into_iter().collect();
        entries.sort_by(|(a, _), (b, _)| a.cmp(b));
        entries.dedup_by(|later, kept| {
            let repeated = later.0 == kept.0;
            if repeated {
                std::mem::swap(later, kept);
            }
            repeated
        });
        let len = entries.len();
        let mut chunks = Vec::with_capacity(len.div_ceil(CHUNK));
        let mut entries = entries.into_iter();
        while entries.len() > 0 {
            chunks.push(Arc::new(entries.by_ref().take(CHUNK).collect()));
        }
        ChunkMap { chunks, len }
    }
}

impl<K, V> Default for ChunkMap<K, V> {
    fn default() -> Self {
        ChunkMap {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

/// Shares every chunk: one reference-count bump per chunk.
impl<K, V> Clone for ChunkMap<K, V> {
    fn clone(&self) -> Self {
        ChunkMap {
            chunks: self.chunks.clone(),
            len: self.len,
        }
    }
}

impl<K: PartialEq, V: PartialEq> PartialEq for ChunkMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for ChunkMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K, Q, V> Index<&Q> for ChunkMap<K, V>
where
    K: Ord + Borrow<Q>,
    Q: Ord + ?Sized,
{
    type Output = V;

    /// # Panics
    ///
    /// Panics if `key` has no entry.
    fn index(&self, key: &Q) -> &V {
        self.get(key).expect("no entry found for key")
    }
}

impl<'a, K, V> IntoIterator for &'a ChunkMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;

    fn into_iter(self) -> Iter<'a, K, V> {
        self.iter()
    }
}

/// The entries of a [`ChunkMap`] in key order, from either end.
pub struct Iter<'a, K, V> {
    /// Chunks neither end has entered yet.
    chunks: slice::Iter<'a, Chunk<K, V>>,
    front: slice::Iter<'a, (K, V)>,
    back: slice::Iter<'a, (K, V)>,
    /// Entries left between the two ends.
    len: usize,
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((k, v)) = self.front.next() {
                self.len -= 1;
                return Some((k, v));
            }
            match self.chunks.next() {
                Some(chunk) => self.front = chunk.iter(),
                None => {
                    let (k, v) = self.back.next()?;
                    self.len -= 1;
                    return Some((k, v));
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.len, Some(self.len))
    }
}

impl<K, V> DoubleEndedIterator for Iter<'_, K, V> {
    fn next_back(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((k, v)) = self.back.next_back() {
                self.len -= 1;
                return Some((k, v));
            }
            match self.chunks.next_back() {
                Some(chunk) => self.back = chunk.iter(),
                None => {
                    let (k, v) = self.front.next_back()?;
                    self.len -= 1;
                    return Some((k, v));
                }
            }
        }
    }
}

/// The keys of a [`ChunkMap`] in order.
pub struct Keys<'a, K, V>(Iter<'a, K, V>);

impl<'a, K, V> Iterator for Keys<'a, K, V> {
    type Item = &'a K;

    fn next(&mut self) -> Option<&'a K> {
        self.0.next().map(|(k, _)| k)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl<K, V> DoubleEndedIterator for Keys<'_, K, V> {
    fn next_back(&mut self) -> Option<Self::Item> {
        self.0.next_back().map(|(k, _)| k)
    }
}

/// The values of a [`ChunkMap`] in key order.
pub struct Values<'a, K, V>(Iter<'a, K, V>);

impl<'a, K, V> Iterator for Values<'a, K, V> {
    type Item = &'a V;

    fn next(&mut self) -> Option<&'a V> {
        self.0.next().map(|(_, v)| v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl<K, V> DoubleEndedIterator for Values<'_, K, V> {
    fn next_back(&mut self) -> Option<Self::Item> {
        self.0.next_back().map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Checks the chunk invariants and every read against `model`.
    fn agrees(map: &ChunkMap<u16, u32>, model: &BTreeMap<u16, u32>) -> Result<(), TestCaseError> {
        prop_assert_eq!(map.len(), model.len());
        prop_assert_eq!(map.is_empty(), model.is_empty());
        prop_assert!(map
            .chunks()
            .iter()
            .all(|c| !c.is_empty() && c.len() <= 2 * CHUNK));
        prop_assert_eq!(
            map.chunks().iter().map(|c| c.len()).sum::<usize>(),
            model.len()
        );
        prop_assert!(map.iter().eq(model.iter()));
        prop_assert!(map.iter().rev().eq(model.iter().rev()));
        prop_assert!(map.keys().rev().eq(model.keys().rev()));
        prop_assert!(map.values().eq(model.values()));
        for key in 0..KEYS {
            prop_assert_eq!(map.get(&key), model.get(&key));
            prop_assert_eq!(map.contains_key(&key), model.contains_key(&key));
        }
        Ok(())
    }

    /// Keys span a few chunks' worth, so random removes hit.
    const KEYS: u16 = 320;

    /// Random keys and values, each with a percentile: the step inserts
    /// if the percentile is below the phase's insert share, else removes.
    fn ops() -> impl Strategy<Value = Vec<(u8, u16, u32)>> {
        proptest::collection::vec((0u8..100, 0..KEYS, 0..u32::MAX), 0..400)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random inserts and removes, from a collected start, agree with
        /// a `BTreeMap` after every step: a growing phase that splits
        /// chunks, then a shrinking one that merges and empties them. The
        /// patched map equals one collected from the same contents,
        /// though chunked apart, and a clone taken first keeps its value.
        #[test]
        fn chunk_map_agrees_with_a_btree_map(
            start in proptest::collection::vec((0..KEYS, 0..u32::MAX), 0..64),
            grow in ops(),
            shrink in ops(),
        ) {
            let mut map: ChunkMap<u16, u32> = start.iter().copied().collect();
            let mut model: BTreeMap<u16, u32> = start.into_iter().collect();
            agrees(&map, &model)?;
            let held = map.clone();
            let held_model = model.clone();
            let steps = grow.into_iter().map(|(p, k, v)| (p < 85, k, v));
            let steps = steps.chain(shrink.into_iter().map(|(p, k, v)| (p < 15, k, v)));
            for (insert, key, value) in steps {
                if insert {
                    prop_assert_eq!(map.insert(key, value), model.insert(key, value));
                } else {
                    prop_assert_eq!(map.remove(&key), model.remove(&key));
                }
                agrees(&map, &model)?;
            }
            // The clone taken before the patches kept its value.
            agrees(&held, &held_model)?;
            let collected: ChunkMap<u16, u32> = model.iter().map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(&map, &collected);
            prop_assert_eq!(format!("{map:?}"), format!("{model:?}"));
        }
    }

    /// Inserting in key order splits past twice the chunk size; removing
    /// merges neighbours back, and emptying drops every chunk.
    #[test]
    fn chunks_split_and_merge() {
        let mut map = ChunkMap::default();
        for key in 0..(2 * CHUNK + 1) {
            map.insert(key, ());
        }
        let sizes: Vec<usize> = map.chunks().iter().map(|c| c.len()).collect();
        assert_eq!(sizes, [CHUNK, CHUNK + 1]);
        for key in 0..CHUNK {
            map.remove(&key);
        }
        assert_eq!(map.chunks().len(), 1, "the survivors fit in one chunk");
        for key in CHUNK..(2 * CHUNK + 1) {
            map.remove(&key);
        }
        assert!(map.is_empty() && map.chunks().is_empty());
        assert_eq!(map, ChunkMap::default());
    }

    /// Collecting keeps each repeated key's last value.
    #[test]
    fn collect_keeps_the_last_value_of_a_key() {
        let map: ChunkMap<&str, u8> = [("b", 1), ("a", 2), ("b", 3)].into_iter().collect();
        assert_eq!(map.len(), 2);
        assert_eq!((map["a"], map["b"]), (2, 3));
        assert_eq!(format!("{map:?}"), r#"{"a": 2, "b": 3}"#);
    }
}
