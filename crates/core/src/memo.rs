//! Process-wide, id-keyed memo tables for structure-dependent analyses.
//!
//! Hash-consed [`Expr`] ids are stable for the process lifetime and
//! identify structure exactly, so any analysis that depends only on an
//! expression's structure can be cached here once and shared (as an
//! `Arc`) with every later caller — across analysis sessions and fleet
//! worker threads. Like the arena itself, tables are append-only; there
//! is nothing to invalidate. Memory therefore grows with the number of
//! *distinct* expressions ever analyzed (summaries are O(paths) each):
//! right for batch fleet runs and repeated analyses of the same manifests,
//! while a very long-lived service processing an unbounded stream of novel
//! manifests should recycle its process (or grow an eviction policy here
//! and in the arena together).
//!
//! Tables are backed by [`rehearsal_sync::ShardedMap`], so concurrent
//! probes from fleet workers stripe across independent locks instead of
//! serializing on one `Mutex`.

use rehearsal_fs::Expr;
use rehearsal_sync::ShardedMap;
use std::sync::{Arc, OnceLock};

/// A lazily-initialized, thread-safe `Expr → Arc<T>` memo table.
///
/// Each table carries the trace-counter names its hits and misses are
/// recorded under (e.g. `memo.accesses.hits`), so the registry shows
/// how much structural analysis was shared vs. computed.
pub(crate) struct ExprMemo<T> {
    table: OnceLock<ShardedMap<Expr, Arc<T>>>,
    hit_metric: &'static str,
    miss_metric: &'static str,
}

impl<T> ExprMemo<T> {
    /// An empty table (usable in `static` position) whose lookups are
    /// counted under the two given trace-counter names.
    pub(crate) const fn new(hit_metric: &'static str, miss_metric: &'static str) -> ExprMemo<T> {
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
    pub(crate) fn get_or_compute(&self, e: Expr, compute: impl FnOnce() -> T) -> Arc<T> {
        let table = self.table.get_or_init(ShardedMap::new);
        let (value, hit) = table.get_or_insert_with(e, || Arc::new(compute()));
        if hit {
            rehearsal_trace::counter_add(self.hit_metric, 1);
        } else {
            rehearsal_trace::counter_add(self.miss_metric, 1);
        }
        value
    }
}
