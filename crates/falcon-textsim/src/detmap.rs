//! Lookup-only hash containers: [`DetMap`] and [`DetSet`].
//!
//! A run's outcome must be a function of its inputs, config and seed.
//! std's `HashMap`/`HashSet` iterate in an order drawn from a per-instance
//! random seed, so any result that walks one can differ between two runs.
//! These wrappers keep std's table and its default `RandomState` (the
//! same layout and the same HashDoS resistance against outside input)
//! but expose no iteration: no `iter`, `keys`, `values` or
//! `IntoIterator`. The one way out is [`DetMap::into_sorted_vec`], whose
//! order is the keys' `Ord`. With the order unobservable, the random seed
//! cannot reach a result. The root `clippy.toml` bans std's two
//! containers everywhere else.

use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::Hash;

/// A hash map that can be looked up but not iterated.
#[derive(Clone)]
pub struct DetMap<K, V>(HashMap<K, V>);

/// A hash set that can be looked up but not iterated.
#[derive(Clone)]
pub struct DetSet<K>(HashSet<K>);

impl<K, V> Default for DetMap<K, V> {
    fn default() -> Self {
        Self(HashMap::default())
    }
}

impl<K> Default for DetSet<K> {
    fn default() -> Self {
        Self(HashSet::default())
    }
}

impl<K: Hash + Eq, V> DetMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// The value under `key`.
    pub fn get<Q: Hash + Eq + ?Sized>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        self.0.get(key)
    }

    /// The value under `key`, mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.0.get_mut(key)
    }

    /// True iff `key` has a value.
    pub fn contains_key<Q: Hash + Eq + ?Sized>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
    {
        self.0.contains_key(key)
    }

    /// The slot of `key`, for in-place insert or update.
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        self.0.entry(key)
    }

    /// Set `key` to `value`; the value it replaced, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.0.insert(key, value)
    }

    /// Take the value under `key` out of the map.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.0.remove(key)
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True iff the map has no keys.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Every entry, in ascending key order.
    pub fn into_sorted_vec(self) -> Vec<(K, V)>
    where
        K: Ord,
    {
        let mut entries: Vec<(K, V)> = self.0.into_iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        entries
    }
}

impl<K: Hash + Eq> DetSet<K> {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// True iff `key` is in the set.
    pub fn contains(&self, key: &K) -> bool {
        self.0.contains(key)
    }

    /// Add `key`; true iff it was not there yet.
    pub fn insert(&mut self, key: K) -> bool {
        self.0.insert(key)
    }

    /// Take `key` out of the set; true iff it was there.
    pub fn remove(&mut self, key: &K) -> bool {
        self.0.remove(key)
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True iff the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Every key, in ascending order.
    pub fn into_sorted_vec(self) -> Vec<K>
    where
        K: Ord,
    {
        let mut keys: Vec<K> = self.0.into_iter().collect();
        keys.sort_unstable();
        keys
    }
}

impl<K: Hash + Eq, V> FromIterator<(K, V)> for DetMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        Self(iter.into_iter().collect())
    }
}

impl<K: Hash + Eq> FromIterator<K> for DetSet<K> {
    fn from_iter<I: IntoIterator<Item = K>>(iter: I) -> Self {
        Self(iter.into_iter().collect())
    }
}

impl<K: Hash + Eq, V> Extend<(K, V)> for DetMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        self.0.extend(iter);
    }
}

/// The size only (here and for [`DetSet`]): entries in hash order would
/// make two equal maps print differently.
impl<K, V> fmt::Debug for DetMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DetMap")
            .field("len", &self.0.len())
            .finish()
    }
}

impl<K> fmt::Debug for DetSet<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DetSet")
            .field("len", &self.0.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_entry_insert_remove_len() {
        let mut m: DetMap<&str, u32> = DetMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert("a", 1), None);
        assert_eq!(m.insert("a", 2), Some(1));
        *m.entry("b").or_insert(0) += 5;
        *m.entry("b").or_insert(0) += 5;
        assert_eq!((m.len(), m.get("a"), m.get("b")), (2, Some(&2), Some(&10)));
        assert!(m.contains_key("b") && !m.contains_key("c"));
        assert_eq!(m.remove(&"a"), Some(2));
        assert_eq!(m.remove(&"a"), None);
        assert_eq!(m.len(), 1);
        assert_eq!(format!("{m:?}"), "DetMap { len: 1 }");
    }

    #[test]
    fn set_insert_remove_len() {
        let mut s: DetSet<u32> = [3, 1, 3].into_iter().collect();
        assert_eq!(s.len(), 2);
        assert!(!s.insert(1) && s.insert(2));
        assert!(s.contains(&2) && s.remove(&2) && !s.remove(&2));
        assert_eq!(s.into_sorted_vec(), vec![1, 3]);
    }

    #[test]
    fn into_sorted_vec_is_sorted() {
        let m: DetMap<u64, u64> = (0..500u64).map(|i| (i * 7919 % 1009, i)).collect();
        let keys: Vec<u64> = m.into_sorted_vec().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys.len(), 500);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn insertion_order_does_not_reach_the_sorted_vec() {
        let words = ["kiwi", "apple", "fig", "pear", "date", "lime", "plum"];
        let forward: DetMap<String, usize> = words
            .iter()
            .enumerate()
            .map(|(i, w)| (w.to_string(), i))
            .collect();
        let backward: DetMap<String, usize> = words
            .iter()
            .enumerate()
            .rev()
            .map(|(i, w)| (w.to_string(), i))
            .collect();
        assert_eq!(forward.into_sorted_vec(), backward.into_sorted_vec());
        let a: DetSet<&str> = words.iter().copied().collect();
        let b: DetSet<&str> = words.iter().rev().copied().collect();
        assert_eq!(a.into_sorted_vec(), b.into_sorted_vec());
    }
}
