//! Lock-striped concurrent map primitives for Rehearsal.
//!
//! Several layers of the analyzer share process-wide or run-wide tables
//! that many threads probe at once: the digest memos and the analysis
//! memo tables, all shared by fleet jobs and serve workers. A single `Mutex<HashMap>` serializes
//! every probe; [`ShardedMap`] splits the key space across a power-of-two
//! number of independently locked shards so threads touching different
//! keys never contend, while keeping the simple "probe, compute outside
//! the lock, double-checked insert" memoization discipline.
//!
//! The map is append-friendly: values are never removed, and racing fills
//! of the same key are resolved first-writer-wins, so it is only suitable
//! for memo tables whose values are pure functions of their keys (both
//! racers compute the same fact) or registries where the first
//! registration should stick.
//!
//! # Examples
//!
//! ```
//! use rehearsal_sync::ShardedMap;
//!
//! let m: ShardedMap<u64, String> = ShardedMap::new();
//! let (v, hit) = m.get_or_insert_with(7, || "seven".to_string());
//! assert!(!hit);
//! let (v2, hit2) = m.get_or_insert_with(7, || unreachable!());
//! assert!(hit2);
//! assert_eq!(v, v2);
//! ```

#![warn(missing_docs)]

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::RwLock;

/// Default shard count: enough stripes that a dozen worker threads with
/// hash-spread keys rarely collide, small enough that iterating shards
/// (for snapshots) stays cheap.
pub const DEFAULT_SHARDS: usize = 16;

/// Routes a hashable value to a shard index in `0..n_shards`
/// (`n_shards` must be a power of two).
///
/// Uses the standard library's deterministic `DefaultHasher` so routing
/// is stable within a process without per-map random state; the high
/// bits are folded in so maps whose `Hash` impls only touch low bits
/// still spread.
pub fn shard_index<K: Hash>(key: &K, n_shards: usize) -> usize {
    debug_assert!(n_shards.is_power_of_two());
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    let x = h.finish();
    ((x ^ (x >> 32)) as usize) & (n_shards - 1)
}

/// A concurrent hash map striped across independently locked shards.
///
/// Reads take one shard's shared lock; writes take one shard's exclusive
/// lock.
#[derive(Debug)]
pub struct ShardedMap<K, V> {
    shards: Box<[RwLock<HashMap<K, V>>]>,
}

impl<K: Hash + Eq, V: Clone> Default for ShardedMap<K, V> {
    fn default() -> Self {
        ShardedMap::new()
    }
}

impl<K: Hash + Eq, V: Clone> ShardedMap<K, V> {
    /// An empty map with [`DEFAULT_SHARDS`] shards.
    pub fn new() -> ShardedMap<K, V> {
        ShardedMap::with_shards(DEFAULT_SHARDS)
    }

    /// An empty map with `n` shards (rounded up to a power of two).
    pub fn with_shards(n: usize) -> ShardedMap<K, V> {
        let n = n.max(1).next_power_of_two();
        let shards = (0..n).map(|_| RwLock::new(HashMap::new())).collect();
        ShardedMap { shards }
    }

    fn shard(&self, key: &K) -> &RwLock<HashMap<K, V>> {
        &self.shards[shard_index(key, self.shards.len())]
    }

    /// The value stored under `key`, if any.
    pub fn get(&self, key: &K) -> Option<V> {
        let guard = self.shard(key).read().expect("sharded map poisoned");
        guard.get(key).cloned()
    }

    /// Inserts `value` under `key` unless a value is already present;
    /// returns the value that ended up in the map and whether it was
    /// already there (first-writer-wins).
    pub fn insert_if_absent(&self, key: K, value: V) -> (V, bool) {
        let mut guard = self.shard(&key).write().expect("sharded map poisoned");
        if let Some(existing) = guard.get(&key) {
            return (existing.clone(), true);
        }
        guard.insert(key, value.clone());
        (value, false)
    }

    /// The memoized value for `key`, computing it on first use.
    ///
    /// The lock is **not** held during `compute`, so two threads may race
    /// to fill the same entry; the first insert wins and the loser's
    /// computed value is discarded. Returns the stored value and whether
    /// the call was a cache hit (`true` iff `compute` did not run).
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> (V, bool) {
        if let Some(v) = self.get(&key) {
            return (v, true);
        }
        let value = compute();
        let (stored, _) = self.insert_if_absent(key, value);
        (stored, false)
    }

    /// A point-in-time copy of every entry (shard by shard; entries
    /// inserted concurrently into already-visited shards are missed).
    pub fn snapshot(&self) -> Vec<(K, V)>
    where
        K: Clone,
    {
        let mut out = Vec::new();
        for s in self.shards.iter() {
            let guard = s.read().expect("sharded map poisoned");
            out.extend(guard.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_map() {
        let m: ShardedMap<u32, u32> = ShardedMap::new();
        assert_eq!(m.get(&1), None);
    }

    #[test]
    fn shard_count_rounds_up() {
        let m: ShardedMap<u32, u32> = ShardedMap::with_shards(5);
        assert_eq!(m.shards.len(), 8);
        let m: ShardedMap<u32, u32> = ShardedMap::with_shards(0);
        assert_eq!(m.shards.len(), 1);
    }

    #[test]
    fn first_writer_wins() {
        let m: ShardedMap<u32, &'static str> = ShardedMap::new();
        let (v, existed) = m.insert_if_absent(1, "a");
        assert_eq!((v, existed), ("a", false));
        let (v, existed) = m.insert_if_absent(1, "b");
        assert_eq!((v, existed), ("a", true));
        assert_eq!(m.get(&1), Some("a"));
    }

    #[test]
    fn get_or_insert_with_reports_hits() {
        let m: ShardedMap<u32, u32> = ShardedMap::new();
        let (v, hit) = m.get_or_insert_with(3, || 30);
        assert_eq!((v, hit), (30, false));
        let (v, hit) = m.get_or_insert_with(3, || panic!("must not recompute"));
        assert_eq!((v, hit), (30, true));
    }

    #[test]
    fn keys_spread_across_shards() {
        let m: ShardedMap<u64, u64> = ShardedMap::new();
        for k in 0..512u64 {
            m.insert_if_absent(k, k);
        }
        let occupied = m
            .shards
            .iter()
            .filter(|s| !s.read().unwrap().is_empty())
            .count();
        assert!(occupied > 1, "hash routing should use more than one shard");
        let mut snap = m.snapshot();
        snap.sort_unstable();
        assert_eq!(snap.len(), 512);
        assert!(snap.iter().all(|&(k, v)| k == v));
    }

    #[test]
    fn concurrent_fills_converge() {
        let m: ShardedMap<u32, u32> = ShardedMap::new();
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let m = &m;
                scope.spawn(move || {
                    for k in 0..256u32 {
                        // Every thread computes the same pure function, so
                        // whichever writer wins stores the right value.
                        let (v, _) = m.get_or_insert_with(k, || k * 2 + (t - t));
                        assert_eq!(v, k * 2);
                    }
                });
            }
        });
        assert!((0..256u32).all(|k| m.get(&k) == Some(k * 2)));
    }
}
