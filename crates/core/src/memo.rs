//! Process-wide, id-keyed memo tables for structure-dependent analyses.
//!
//! Hash-consed [`Expr`] ids are stable for the process lifetime and
//! identify structure exactly, so any analysis that depends only on an
//! expression's structure can be cached here once and shared with every
//! later caller — across analysis sessions and fleet worker threads. A
//! table stores its values directly: a `Copy` fact such as a digest is
//! kept as the plain value, and a summary that callers share is kept
//! behind an `Arc` by its table. Like the arena itself, tables are
//! append-only; there is nothing to invalidate. Memory therefore grows
//! with the number of *distinct* expressions ever analyzed (summaries are
//! O(paths) each): right for batch fleet runs and repeated analyses of the
//! same manifests, while a long-lived service fed an unbounded stream of
//! novel manifests keeps a little per manifest until its process is
//! recycled (or an eviction policy grows here and in the arena together).
//!
//! Because nothing is ever evicted, only feed these tables (and the
//! arena's own per-node path sets) the expressions an analysis keeps.
//! Pruning rewrites each owner once per walk (`prune_paths`) and repeats
//! a walk only when a path drops out of its set, so it computes no
//! summaries, definitive-write maps or path sets ([`Expr::paths`]) on the
//! trees it builds; it reads only sets that already exist
//! ([`Expr::known_paths`]). Callers that analyze the final pruned graph
//! (the encoder, the explorer) may memoize freely.
//!
//! Tables are backed by [`rehearsal_sync::ShardedMap`], so concurrent
//! probes from fleet workers stripe across independent locks instead of
//! serializing on one `Mutex`.

use rehearsal_fs::Expr;
use rehearsal_sync::ShardedMap;
use std::hash::Hash;
use std::sync::{Arc, OnceLock};

/// A lazily-initialized, thread-safe `Expr → V` memo table.
///
/// Each table carries the trace-counter names its hits and misses are
/// recorded under (e.g. `memo.accesses.hits`), so the registry shows
/// how much structural analysis was shared vs. computed.
pub(crate) struct ExprMemo<V> {
    table: OnceLock<ShardedMap<Expr, V>>,
    hit_metric: &'static str,
    miss_metric: &'static str,
}

impl<V: Clone> ExprMemo<V> {
    /// An empty table (usable in `static` position) whose lookups are
    /// counted under the two given trace-counter names.
    pub(crate) const fn new(hit_metric: &'static str, miss_metric: &'static str) -> ExprMemo<V> {
        ExprMemo {
            table: OnceLock::new(),
            hit_metric,
            miss_metric,
        }
    }

    /// The memoized value for `e`, computing and caching it on first use.
    ///
    /// No lock is held during `compute`, so two threads may race to fill
    /// the same entry; both compute the same structural fact and the
    /// first insert wins.
    pub(crate) fn get_or_compute(&self, e: Expr, compute: impl FnOnce() -> V) -> V {
        let table = self.table.get_or_init(ShardedMap::new);
        let (value, hit) = table.get_or_insert_with(e, compute);
        if hit {
            rehearsal_trace::counter_add(self.hit_metric, 1);
        } else {
            rehearsal_trace::counter_add(self.miss_metric, 1);
        }
        value
    }
}

/// An [`ExprMemo`] of summaries that many expressions have in common: an
/// equal summary computed before is reused instead of kept twice, so the
/// table holds one copy per distinct value. A resource and its copy with
/// renamed contents have equal access summaries and footprints (both are
/// path-level), and share one.
pub(crate) struct SharedExprMemo<T> {
    memo: ExprMemo<Arc<T>>,
    values: OnceLock<ShardedMap<Arc<T>, Arc<T>>>,
}

impl<T: Hash + Eq> SharedExprMemo<T> {
    /// An empty table, counted under the two given trace-counter names.
    pub(crate) const fn new(
        hit_metric: &'static str,
        miss_metric: &'static str,
    ) -> SharedExprMemo<T> {
        SharedExprMemo {
            memo: ExprMemo::new(hit_metric, miss_metric),
            values: OnceLock::new(),
        }
    }

    /// The memoized value for `e`, computing it on first use and sharing
    /// it with every expression whose value is equal.
    pub(crate) fn get_or_compute(&self, e: Expr, compute: impl FnOnce() -> T) -> Arc<T> {
        self.memo.get_or_compute(e, || {
            let value = Arc::new(compute());
            let values = self.values.get_or_init(ShardedMap::new);
            values.insert_if_absent(Arc::clone(&value), value).0
        })
    }
}
