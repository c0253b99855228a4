//! Dense side tables keyed by arena ids.
//!
//! The IR allocates every entity (operation, variable, block, …) out of an
//! [`Arena`](crate::Arena), so the ids are small dense integers. Analyses and
//! back-end passes attach facts to those entities; a [`SecondaryMap`] stores
//! such facts in a plain `Vec` indexed by the id instead of a `BTreeMap`,
//! turning the O(log n) pointer-chasing lookups on the scheduler's innermost
//! loops into O(1) array reads while keeping the deterministic, key-ordered
//! iteration the reproduction relies on (dense-index order *is* id order).
//!
//! The API deliberately mirrors the `BTreeMap` subset the code base used
//! before — `insert(K, V)`, `get(&K)`, `contains_key(&K)`, `keys`, `values`,
//! indexing by `&K` — so the refactor to dense tables leaves call sites and
//! public struct shapes intact. Iteration yields `(K, &V)` pairs (keys are
//! `Copy`).

use std::fmt;
use std::marker::PhantomData;

use crate::arena::Id;

/// A key with a dense, stable `usize` representation.
///
/// Implemented for every arena [`Id`]; downstream crates implement it for
/// their own small enums (e.g. functional-unit classes) to reuse
/// [`SecondaryMap`] for per-class tables.
pub trait DenseKey: Copy + Eq {
    /// The dense index of this key.
    fn dense_index(self) -> usize;
    /// Rebuilds the key from a dense index previously returned by
    /// [`DenseKey::dense_index`].
    fn from_dense_index(index: usize) -> Self;
}

impl<T> DenseKey for Id<T> {
    #[inline]
    fn dense_index(self) -> usize {
        self.index()
    }
    #[inline]
    fn from_dense_index(index: usize) -> Self {
        Id::from_raw(index as u32)
    }
}

/// A `Vec`-backed map from a [`DenseKey`] to values.
///
/// Missing keys cost one `Option` check; present keys cost one bounds-checked
/// array access. Iteration runs in ascending dense-index order, which for
/// arena ids equals allocation (program) order — the same deterministic order
/// `BTreeMap` iteration gave, so schedules, bindings and reports are
/// bit-identical to the map-based implementation.
pub struct SecondaryMap<K: DenseKey, V> {
    slots: Vec<Option<V>>,
    len: usize,
    _marker: PhantomData<fn(K) -> K>,
}

impl<K: DenseKey, V> SecondaryMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        SecondaryMap {
            slots: Vec::new(),
            len: 0,
            _marker: PhantomData,
        }
    }

    /// Creates an empty map with room for keys of dense index `< capacity`
    /// without reallocation.
    pub fn with_capacity(capacity: usize) -> Self {
        SecondaryMap {
            slots: Vec::with_capacity(capacity),
            len: 0,
            _marker: PhantomData,
        }
    }

    /// Number of present entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no entry is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all entries, keeping the allocation.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.len = 0;
    }

    /// Inserts `value` at `key`, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let index = key.dense_index();
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, || None);
        }
        let previous = self.slots[index].replace(value);
        if previous.is_none() {
            self.len += 1;
        }
        previous
    }

    /// Removes the entry at `key`, returning its value if it was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let removed = self.slots.get_mut(key.dense_index())?.take();
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// Borrow of the value at `key`, if present.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.slots.get(key.dense_index())?.as_ref()
    }

    /// Mutable borrow of the value at `key`, if present.
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.slots.get_mut(key.dense_index())?.as_mut()
    }

    /// Returns `true` if `key` has a value.
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        self.slots
            .get(key.dense_index())
            .map(Option::is_some)
            .unwrap_or(false)
    }

    /// Mutable borrow of the value at `key`, inserting `default()` first if
    /// the key is vacant — the dense equivalent of `entry(key).or_insert_with`.
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let index = key.dense_index();
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, || None);
        }
        let slot = &mut self.slots[index];
        if slot.is_none() {
            *slot = Some(default());
            self.len += 1;
        }
        slot.as_mut().expect("just filled")
    }

    /// Iterates over `(key, &value)` pairs in ascending dense-index order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter {
            inner: self.slots.iter().enumerate(),
            _marker: PhantomData,
        }
    }

    /// Iterates over `(key, &mut value)` pairs in ascending dense-index order.
    pub fn iter_mut(&mut self) -> IterMut<'_, K, V> {
        IterMut {
            inner: self.slots.iter_mut().enumerate(),
            _marker: PhantomData,
        }
    }

    /// Iterates over present keys in ascending dense-index order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Iterates over present values in key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }
}

impl<K: DenseKey, V> Default for SecondaryMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: DenseKey, V: Clone> Clone for SecondaryMap<K, V> {
    fn clone(&self) -> Self {
        SecondaryMap {
            slots: self.slots.clone(),
            len: self.len,
            _marker: PhantomData,
        }
    }

    /// Clones `source` into `self`, reusing the slot vector's allocation —
    /// the building block behind batch drivers (such as the RTL simulator's
    /// next-state tables) that overwrite the same tables run after run.
    fn clone_from(&mut self, source: &Self) {
        self.slots.clone_from(&source.slots);
        self.len = source.len;
    }
}

impl<K: DenseKey + fmt::Debug, V: fmt::Debug> fmt::Debug for SecondaryMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: DenseKey, V: PartialEq> PartialEq for SecondaryMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self
                .iter()
                .zip(other.iter())
                .all(|((ka, va), (kb, vb))| ka == kb && va == vb)
    }
}

impl<K: DenseKey, V: Eq> Eq for SecondaryMap<K, V> {}

impl<K: DenseKey, V> std::ops::Index<&K> for SecondaryMap<K, V> {
    type Output = V;
    fn index(&self, key: &K) -> &V {
        self.get(key).expect("no entry for key in SecondaryMap")
    }
}

impl<K: DenseKey, V> std::ops::Index<K> for SecondaryMap<K, V> {
    type Output = V;
    fn index(&self, key: K) -> &V {
        self.get(&key).expect("no entry for key in SecondaryMap")
    }
}

impl<K: DenseKey, V> FromIterator<(K, V)> for SecondaryMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = SecondaryMap::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

impl<K: DenseKey, V> Extend<(K, V)> for SecondaryMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

/// Borrowing iterator over `(K, &V)` pairs; see [`SecondaryMap::iter`].
pub struct Iter<'a, K: DenseKey, V> {
    inner: std::iter::Enumerate<std::slice::Iter<'a, Option<V>>>,
    _marker: PhantomData<fn(K) -> K>,
}

impl<'a, K: DenseKey, V> Iterator for Iter<'a, K, V> {
    type Item = (K, &'a V);
    fn next(&mut self) -> Option<Self::Item> {
        for (index, slot) in self.inner.by_ref() {
            if let Some(value) = slot.as_ref() {
                return Some((K::from_dense_index(index), value));
            }
        }
        None
    }
}

/// Mutably borrowing iterator over `(K, &mut V)` pairs; see
/// [`SecondaryMap::iter_mut`].
pub struct IterMut<'a, K: DenseKey, V> {
    inner: std::iter::Enumerate<std::slice::IterMut<'a, Option<V>>>,
    _marker: PhantomData<fn(K) -> K>,
}

impl<'a, K: DenseKey, V> Iterator for IterMut<'a, K, V> {
    type Item = (K, &'a mut V);
    fn next(&mut self) -> Option<Self::Item> {
        for (index, slot) in self.inner.by_ref() {
            if let Some(value) = slot.as_mut() {
                return Some((K::from_dense_index(index), value));
            }
        }
        None
    }
}

impl<'a, K: DenseKey, V> IntoIterator for &'a SecondaryMap<K, V> {
    type Item = (K, &'a V);
    type IntoIter = Iter<'a, K, V>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a, K: DenseKey, V> IntoIterator for &'a mut SecondaryMap<K, V> {
    type Item = (K, &'a mut V);
    type IntoIter = IterMut<'a, K, V>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Key = Id<u32>;

    fn key(i: u32) -> Key {
        Id::from_raw(i)
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut map: SecondaryMap<Key, String> = SecondaryMap::new();
        assert!(map.is_empty());
        assert_eq!(map.insert(key(3), "three".into()), None);
        assert_eq!(map.insert(key(0), "zero".into()), None);
        assert_eq!(map.len(), 2);
        assert_eq!(map.get(&key(3)).map(String::as_str), Some("three"));
        assert_eq!(map.get(&key(1)), None);
        assert_eq!(map.insert(key(3), "THREE".into()), Some("three".into()));
        assert_eq!(map.len(), 2);
        assert_eq!(map.remove(&key(3)), Some("THREE".into()));
        assert_eq!(map.remove(&key(3)), None);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn iteration_is_in_key_order() {
        let mut map: SecondaryMap<Key, u32> = SecondaryMap::new();
        map.insert(key(5), 50);
        map.insert(key(1), 10);
        map.insert(key(9), 90);
        let pairs: Vec<(u32, u32)> = map.iter().map(|(k, &v)| (k.raw(), v)).collect();
        assert_eq!(pairs, vec![(1, 10), (5, 50), (9, 90)]);
        let keys: Vec<u32> = map.keys().map(Id::raw).collect();
        assert_eq!(keys, vec![1, 5, 9]);
        let sum: u32 = map.values().sum();
        assert_eq!(sum, 150);
    }

    #[test]
    fn get_or_insert_with_behaves_like_entry() {
        let mut map: SecondaryMap<Key, Vec<u32>> = SecondaryMap::new();
        map.get_or_insert_with(key(2), Vec::new).push(7);
        map.get_or_insert_with(key(2), Vec::new).push(8);
        assert_eq!(map[&key(2)], vec![7, 8]);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn equality_ignores_trailing_capacity() {
        let mut a: SecondaryMap<Key, u32> = SecondaryMap::new();
        let mut b: SecondaryMap<Key, u32> = SecondaryMap::new();
        a.insert(key(1), 1);
        b.insert(key(9), 9);
        b.insert(key(1), 1);
        b.remove(&key(9));
        assert_eq!(a, b, "a removed high key leaves no trace");
    }

    #[test]
    fn index_by_ref_and_value() {
        let mut map: SecondaryMap<Key, u32> = SecondaryMap::new();
        map.insert(key(4), 44);
        assert_eq!(map[&key(4)], 44);
        assert_eq!(map[key(4)], 44);
    }

    #[test]
    fn iter_mut_updates_values() {
        let mut map: SecondaryMap<Key, u32> = SecondaryMap::from_iter([(key(0), 1), (key(2), 2)]);
        for (_, v) in &mut map {
            *v *= 10;
        }
        assert_eq!(map.values().copied().collect::<Vec<_>>(), vec![10, 20]);
    }
}
