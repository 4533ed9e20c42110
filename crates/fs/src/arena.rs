//! The process-global hash-consing arena backing the FS IR.
//!
//! [`Pred`](crate::Pred) and [`Expr`](crate::Expr) are `Copy`-able `u32`
//! handles into this arena, in exactly the way the path/content interner already
//! makes paths and contents `Copy` handles. Interning a node first looks it
//! up structurally: building the same tree twice yields the *same* handle,
//! so `==` on handles is O(1) structural equality and common subtrees are
//! stored (and later analyzed) exactly once.
//!
//! # Lifecycle
//!
//! The arena is **process-global and append-only**, like the path/content
//! interner it composes with: node ids stay valid for the lifetime of the
//! process, across every analysis session, and are never invalidated or
//! garbage-collected. This is the right trade for Rehearsal's workloads —
//! resource models are built from a small vocabulary of idioms
//! (`ensure_dir`, `overwrite`, …) over an interned path universe, so the
//! arena saturates quickly and every later analysis re-uses the same nodes.
//! Per-expression *analysis* results that depend only on structure (path
//! sets, node counts) are memoized here as well; analysis state that
//! depends on a solver context (symbolic states, formulas) is memoized
//! per-`Encoder` in `rehearsal-core` instead, keyed by these ids.
//!
//! A path set, once computed, lives as long as its node, and computing
//! one for a node computes and stores one for every node below it. So a
//! caller that builds throwaway trees (an intermediate rewrite that is
//! replaced moments later, as pruning does once per pruned path) must
//! not call [`Expr::paths`](crate::ExprId::paths) on them: it would pin a
//! set on every fresh node for the rest of the process. Such callers use
//! [`Expr::known_paths`](crate::ExprId::known_paths), which only reads a
//! set that already exists, and walk the tree otherwise.
//!
//! # Sharding
//!
//! The store is lock-striped: nodes are hash-routed across `N_SHARDS`
//! independently locked shards, and a handle encodes its shard in the
//! low `SHARD_BITS` bits (`id = local << SHARD_BITS | shard`). Ids
//! remain process-stable and `Copy`; fleet jobs and serve workers
//! touching different subtrees intern and probe without contending on a
//! single lock word. Lock acquisitions that find their
//! shard held are counted and surfaced as the `arena.shard_contention`
//! trace gauge, so profiles show whether the stripe count is adequate.
//! The four IR constants (`Pred::TRUE`/`FALSE`, `Expr::SKIP`/`ERROR`)
//! keep their historical ids 0 and 1 by seeding shards 0 and 1 and
//! special-casing their interning before hash routing.

use crate::ast::{ExprNode, PredNode};
use crate::path::{Content, FsPath};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};

/// Number of low handle bits that encode the owning shard.
pub(crate) const SHARD_BITS: u32 = 4;
/// Number of lock stripes in the arena.
pub(crate) const N_SHARDS: usize = 1 << SHARD_BITS;

/// One interned predicate with its memoized structural facts.
#[derive(Debug)]
struct PredEntry {
    node: PredNode,
    /// Number of AST nodes (children are interned first, so this is
    /// computed eagerly at interning time).
    size: u64,
    /// Lazily computed, shared set of mentioned paths.
    paths: Option<Arc<BTreeSet<FsPath>>>,
}

/// One interned expression with its memoized structural facts.
#[derive(Debug)]
struct ExprEntry {
    node: ExprNode,
    size: u64,
    paths: Option<Arc<BTreeSet<FsPath>>>,
    contents: Option<Arc<BTreeSet<Content>>>,
}

/// Counters describing the arena (see [`arena_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Distinct predicate nodes interned so far.
    pub pred_nodes: usize,
    /// Distinct expression nodes interned so far.
    pub expr_nodes: usize,
    /// Predicate interning requests served by an existing node.
    pub pred_dedup_hits: u64,
    /// Expression interning requests served by an existing node.
    pub expr_dedup_hits: u64,
}

impl ArenaStats {
    /// Total interning requests (constructed + deduplicated).
    pub fn requests(&self) -> u64 {
        self.pred_nodes as u64
            + self.expr_nodes as u64
            + self.pred_dedup_hits
            + self.expr_dedup_hits
    }

    /// Fraction of interning requests answered by sharing an existing node
    /// (0.0 when nothing has been interned).
    pub fn dedup_ratio(&self) -> f64 {
        let requests = self.requests();
        if requests == 0 {
            return 0.0;
        }
        (self.pred_dedup_hits + self.expr_dedup_hits) as f64 / requests as f64
    }

    /// The arena growth between two snapshots (`self` taken after `base`).
    pub fn since(&self, base: &ArenaStats) -> ArenaStats {
        ArenaStats {
            pred_nodes: self.pred_nodes - base.pred_nodes,
            expr_nodes: self.expr_nodes - base.expr_nodes,
            pred_dedup_hits: self.pred_dedup_hits - base.pred_dedup_hits,
            expr_dedup_hits: self.expr_dedup_hits - base.expr_dedup_hits,
        }
    }
}

#[derive(Debug)]
struct Shard<N, E> {
    entries: Vec<E>,
    /// Node → full (shard-encoded) id.
    lookup: HashMap<N, u32>,
}

impl<N, E> Default for Shard<N, E> {
    fn default() -> Self {
        Shard {
            entries: Vec::new(),
            lookup: HashMap::new(),
        }
    }
}

type PredShard = Shard<PredNode, PredEntry>;
type ExprShard = Shard<ExprNode, ExprEntry>;

struct IrArena {
    preds: Vec<RwLock<PredShard>>,
    exprs: Vec<RwLock<ExprShard>>,
    pred_hits: AtomicU64,
    expr_hits: AtomicU64,
    /// Lock acquisitions that found their shard held and had to block.
    contention: AtomicU64,
}

/// Packs a shard number and a shard-local index into a handle.
fn compose(shard: usize, local: usize) -> u32 {
    ((local as u32) << SHARD_BITS) | shard as u32
}

/// The shard number encoded in a handle.
fn shard_of(id: u32) -> usize {
    (id as usize) & (N_SHARDS - 1)
}

/// The shard-local index encoded in a handle.
fn local_of(id: u32) -> usize {
    (id >> SHARD_BITS) as usize
}

impl IrArena {
    fn new() -> IrArena {
        let arena = IrArena {
            preds: (0..N_SHARDS)
                .map(|_| RwLock::new(Shard::default()))
                .collect(),
            exprs: (0..N_SHARDS)
                .map(|_| RwLock::new(Shard::default()))
                .collect(),
            pred_hits: AtomicU64::new(0),
            expr_hits: AtomicU64::new(0),
            contention: AtomicU64::new(0),
        };
        // Fixed ids for the constants, mirroring the solver's `Ctx`:
        // `Pred::TRUE`/`Pred::FALSE` and `Expr::SKIP`/`Expr::ERROR` are
        // `const` handles with ids 0 and 1, i.e. local index 0 of shards
        // 0 and 1. `intern_pred`/`intern_expr` special-case them before
        // hash routing, so the seeded positions are authoritative.
        for (shard, node) in [(0, PredNode::True), (1, PredNode::False)] {
            let mut guard = arena.preds[shard].write().expect("IR arena poisoned");
            guard.entries.push(PredEntry {
                node,
                size: 1,
                paths: None,
            });
            guard.lookup.insert(node, compose(shard, 0));
        }
        for (shard, node) in [(0, ExprNode::Skip), (1, ExprNode::Error)] {
            let mut guard = arena.exprs[shard].write().expect("IR arena poisoned");
            guard.entries.push(ExprEntry {
                node,
                size: 1,
                paths: None,
                contents: None,
            });
            guard.lookup.insert(node, compose(shard, 0));
        }
        arena
    }

    fn read<'a, N, E>(&'a self, lock: &'a RwLock<Shard<N, E>>) -> RwLockReadGuard<'a, Shard<N, E>> {
        match lock.try_read() {
            Ok(g) => g,
            Err(TryLockError::WouldBlock) => {
                self.contention.fetch_add(1, Ordering::Relaxed);
                lock.read().expect("IR arena poisoned")
            }
            Err(TryLockError::Poisoned(_)) => panic!("IR arena poisoned"),
        }
    }

    fn write<'a, N, E>(
        &'a self,
        lock: &'a RwLock<Shard<N, E>>,
    ) -> RwLockWriteGuard<'a, Shard<N, E>> {
        match lock.try_write() {
            Ok(g) => g,
            Err(TryLockError::WouldBlock) => {
                self.contention.fetch_add(1, Ordering::Relaxed);
                lock.write().expect("IR arena poisoned")
            }
            Err(TryLockError::Poisoned(_)) => panic!("IR arena poisoned"),
        }
    }

    fn intern_pred(&self, node: PredNode) -> u32 {
        // The constants keep their seeded ids regardless of hash routing.
        match node {
            PredNode::True => {
                self.pred_hits.fetch_add(1, Ordering::Relaxed);
                return 0;
            }
            PredNode::False => {
                self.pred_hits.fetch_add(1, Ordering::Relaxed);
                return 1;
            }
            _ => {}
        }
        let shard = rehearsal_sync::shard_index(&node, N_SHARDS);
        let lock = &self.preds[shard];
        if let Some(&id) = self.read(lock).lookup.get(&node) {
            self.pred_hits.fetch_add(1, Ordering::Relaxed);
            return id;
        }
        // Children are already interned, so their sizes are readable from
        // their own shards; no lock is held while we gather them.
        let size = match node {
            PredNode::True
            | PredNode::False
            | PredNode::DoesNotExist(_)
            | PredNode::IsFile(_)
            | PredNode::IsDir(_)
            | PredNode::IsEmptyDir(_)
            | PredNode::MetaIs(_, _, _) => 1,
            PredNode::And(a, b) | PredNode::Or(a, b) => {
                1 + self.pred_size(a.index()) + self.pred_size(b.index())
            }
            PredNode::Not(a) => 1 + self.pred_size(a.index()),
        };
        let mut guard = self.write(lock);
        if let Some(&id) = guard.lookup.get(&node) {
            self.pred_hits.fetch_add(1, Ordering::Relaxed);
            return id;
        }
        let id = compose(shard, guard.entries.len());
        guard.entries.push(PredEntry {
            node,
            size,
            paths: None,
        });
        guard.lookup.insert(node, id);
        id
    }

    fn intern_expr(&self, node: ExprNode) -> u32 {
        match node {
            ExprNode::Skip => {
                self.expr_hits.fetch_add(1, Ordering::Relaxed);
                return 0;
            }
            ExprNode::Error => {
                self.expr_hits.fetch_add(1, Ordering::Relaxed);
                return 1;
            }
            _ => {}
        }
        let shard = rehearsal_sync::shard_index(&node, N_SHARDS);
        let lock = &self.exprs[shard];
        if let Some(&id) = self.read(lock).lookup.get(&node) {
            self.expr_hits.fetch_add(1, Ordering::Relaxed);
            return id;
        }
        let size = match node {
            ExprNode::Skip
            | ExprNode::Error
            | ExprNode::Mkdir(_)
            | ExprNode::CreateFile(_, _)
            | ExprNode::Rm(_)
            | ExprNode::Cp(_, _)
            | ExprNode::ChMeta(_, _, _) => 1,
            ExprNode::Seq(a, b) => 1 + self.expr_size(a.index()) + self.expr_size(b.index()),
            ExprNode::If(p, a, b) => {
                1 + self.pred_size(p.index())
                    + self.expr_size(a.index())
                    + self.expr_size(b.index())
            }
        };
        let mut guard = self.write(lock);
        if let Some(&id) = guard.lookup.get(&node) {
            self.expr_hits.fetch_add(1, Ordering::Relaxed);
            return id;
        }
        let id = compose(shard, guard.entries.len());
        guard.entries.push(ExprEntry {
            node,
            size,
            paths: None,
            contents: None,
        });
        guard.lookup.insert(node, id);
        id
    }

    fn pred_node(&self, id: u32) -> PredNode {
        self.read(&self.preds[shard_of(id)]).entries[local_of(id)].node
    }

    fn expr_node(&self, id: u32) -> ExprNode {
        self.read(&self.exprs[shard_of(id)]).entries[local_of(id)].node
    }

    fn pred_size(&self, id: u32) -> u64 {
        self.read(&self.preds[shard_of(id)]).entries[local_of(id)].size
    }

    fn expr_size(&self, id: u32) -> u64 {
        self.read(&self.exprs[shard_of(id)]).entries[local_of(id)].size
    }

    /// Already-computed path set of a predicate, if any (read-only probe
    /// so the common cached case needs no exclusive lock).
    fn try_pred_paths(&self, id: u32) -> Option<Arc<BTreeSet<FsPath>>> {
        self.read(&self.preds[shard_of(id)]).entries[local_of(id)]
            .paths
            .as_ref()
            .map(Arc::clone)
    }

    /// Already-computed path set of an expression, if any.
    fn try_expr_paths(&self, id: u32) -> Option<Arc<BTreeSet<FsPath>>> {
        self.read(&self.exprs[shard_of(id)]).entries[local_of(id)]
            .paths
            .as_ref()
            .map(Arc::clone)
    }

    /// Already-computed content set of an expression, if any.
    fn try_expr_contents(&self, id: u32) -> Option<Arc<BTreeSet<Content>>> {
        self.read(&self.exprs[shard_of(id)]).entries[local_of(id)]
            .contents
            .as_ref()
            .map(Arc::clone)
    }

    /// Publishes a computed path set; first writer wins, so repeated
    /// calls on the same node keep returning the same shared allocation.
    fn store_pred_paths(&self, id: u32, set: Arc<BTreeSet<FsPath>>) -> Arc<BTreeSet<FsPath>> {
        let mut guard = self.write(&self.preds[shard_of(id)]);
        let slot = &mut guard.entries[local_of(id)].paths;
        match slot {
            Some(existing) => Arc::clone(existing),
            None => {
                *slot = Some(Arc::clone(&set));
                set
            }
        }
    }

    fn store_expr_paths(&self, id: u32, set: Arc<BTreeSet<FsPath>>) -> Arc<BTreeSet<FsPath>> {
        let mut guard = self.write(&self.exprs[shard_of(id)]);
        let slot = &mut guard.entries[local_of(id)].paths;
        match slot {
            Some(existing) => Arc::clone(existing),
            None => {
                *slot = Some(Arc::clone(&set));
                set
            }
        }
    }

    fn store_expr_contents(&self, id: u32, set: Arc<BTreeSet<Content>>) -> Arc<BTreeSet<Content>> {
        let mut guard = self.write(&self.exprs[shard_of(id)]);
        let slot = &mut guard.entries[local_of(id)].contents;
        match slot {
            Some(existing) => Arc::clone(existing),
            None => {
                *slot = Some(Arc::clone(&set));
                set
            }
        }
    }

    /// Memoized path set of a predicate, computed with an explicit stack
    /// (two-phase DFS). Each per-node probe and store is a brief
    /// single-shard lock, so no lock is held across the traversal and
    /// concurrent computations of shared subtrees are harmless (both
    /// compute the same structural fact; the first store wins).
    fn pred_paths(&self, root: u32) -> Arc<BTreeSet<FsPath>> {
        if let Some(cached) = self.try_pred_paths(root) {
            return cached;
        }
        // (id, children_visited)
        let mut stack: Vec<(u32, bool)> = vec![(root, false)];
        while let Some((id, expanded)) = stack.pop() {
            if self.try_pred_paths(id).is_some() {
                continue;
            }
            let node = self.pred_node(id);
            if !expanded {
                stack.push((id, true));
                match node {
                    PredNode::And(a, b) | PredNode::Or(a, b) => {
                        stack.push((a.index(), false));
                        stack.push((b.index(), false));
                    }
                    PredNode::Not(a) => stack.push((a.index(), false)),
                    _ => {}
                }
                continue;
            }
            let cached = |i: u32| self.try_pred_paths(i).expect("computed");
            let set = match node {
                PredNode::True | PredNode::False => Arc::new(BTreeSet::new()),
                PredNode::DoesNotExist(p)
                | PredNode::IsFile(p)
                | PredNode::IsDir(p)
                | PredNode::IsEmptyDir(p)
                | PredNode::MetaIs(p, _, _) => Arc::new(BTreeSet::from([p])),
                PredNode::And(a, b) | PredNode::Or(a, b) => {
                    merge_sets(cached(a.index()), cached(b.index()))
                }
                PredNode::Not(a) => cached(a.index()),
            };
            self.store_pred_paths(id, set);
        }
        self.try_pred_paths(root).expect("computed")
    }

    /// Memoized path set of an expression (includes guard predicates).
    fn expr_paths(&self, root: u32) -> Arc<BTreeSet<FsPath>> {
        if let Some(cached) = self.try_expr_paths(root) {
            return cached;
        }
        let mut stack: Vec<(u32, bool)> = vec![(root, false)];
        while let Some((id, expanded)) = stack.pop() {
            if self.try_expr_paths(id).is_some() {
                continue;
            }
            let node = self.expr_node(id);
            if !expanded {
                stack.push((id, true));
                match node {
                    ExprNode::Seq(a, b) | ExprNode::If(_, a, b) => {
                        stack.push((a.index(), false));
                        stack.push((b.index(), false));
                    }
                    _ => {}
                }
                continue;
            }
            let cached = |i: u32| self.try_expr_paths(i).expect("computed");
            let set = match node {
                ExprNode::Skip | ExprNode::Error => Arc::new(BTreeSet::new()),
                ExprNode::Mkdir(p)
                | ExprNode::CreateFile(p, _)
                | ExprNode::Rm(p)
                | ExprNode::ChMeta(p, _, _) => Arc::new(BTreeSet::from([p])),
                ExprNode::Cp(a, b) => Arc::new(BTreeSet::from([a, b])),
                ExprNode::Seq(a, b) => merge_sets(cached(a.index()), cached(b.index())),
                ExprNode::If(p, a, b) => {
                    let guard = self.pred_paths(p.index());
                    let branches = merge_sets(cached(a.index()), cached(b.index()));
                    merge_sets(guard, branches)
                }
            };
            self.store_expr_paths(id, set);
        }
        self.try_expr_paths(root).expect("computed")
    }

    /// Memoized content set of an expression.
    fn expr_contents(&self, root: u32) -> Arc<BTreeSet<Content>> {
        if let Some(cached) = self.try_expr_contents(root) {
            return cached;
        }
        let mut stack: Vec<(u32, bool)> = vec![(root, false)];
        while let Some((id, expanded)) = stack.pop() {
            if self.try_expr_contents(id).is_some() {
                continue;
            }
            let node = self.expr_node(id);
            if !expanded {
                stack.push((id, true));
                match node {
                    ExprNode::Seq(a, b) | ExprNode::If(_, a, b) => {
                        stack.push((a.index(), false));
                        stack.push((b.index(), false));
                    }
                    _ => {}
                }
                continue;
            }
            let cached = |i: u32| self.try_expr_contents(i).expect("computed");
            let set = match node {
                ExprNode::CreateFile(_, c) => Arc::new(BTreeSet::from([c])),
                ExprNode::Seq(a, b) | ExprNode::If(_, a, b) => {
                    merge_sets(cached(a.index()), cached(b.index()))
                }
                _ => Arc::new(BTreeSet::new()),
            };
            self.store_expr_contents(id, set);
        }
        self.try_expr_contents(root).expect("computed")
    }

    fn stats(&self) -> ArenaStats {
        ArenaStats {
            pred_nodes: self.preds.iter().map(|s| self.read(s).entries.len()).sum(),
            expr_nodes: self.exprs.iter().map(|s| self.read(s).entries.len()).sum(),
            pred_dedup_hits: self.pred_hits.load(Ordering::Relaxed),
            expr_dedup_hits: self.expr_hits.load(Ordering::Relaxed),
        }
    }
}

/// Unions two shared sets, reusing either side when it already contains
/// the other (the common case for `Seq` spines, where the accumulated set
/// is a superset of each new leaf).
fn merge_sets<T: Ord + Copy>(a: Arc<BTreeSet<T>>, b: Arc<BTreeSet<T>>) -> Arc<BTreeSet<T>> {
    if b.iter().all(|x| a.contains(x)) {
        return a;
    }
    if a.iter().all(|x| b.contains(x)) {
        return b;
    }
    let mut out = (*a).clone();
    out.extend(b.iter().copied());
    Arc::new(out)
}

fn ir() -> &'static IrArena {
    static IR: OnceLock<IrArena> = OnceLock::new();
    IR.get_or_init(IrArena::new)
}

/// Interns a predicate node, returning its process-stable id.
pub(crate) fn intern_pred(node: PredNode) -> u32 {
    ir().intern_pred(node)
}

/// Interns an expression node, returning its process-stable id.
pub(crate) fn intern_expr(node: ExprNode) -> u32 {
    ir().intern_expr(node)
}

/// The node a predicate id denotes, one level deep.
pub(crate) fn pred_node(id: u32) -> PredNode {
    ir().pred_node(id)
}

/// The node an expression id denotes, one level deep.
pub(crate) fn expr_node(id: u32) -> ExprNode {
    ir().expr_node(id)
}

/// Memoized AST node count of a predicate.
pub(crate) fn pred_size(id: u32) -> u64 {
    ir().pred_size(id)
}

/// Memoized AST node count of an expression.
pub(crate) fn expr_size(id: u32) -> u64 {
    ir().expr_size(id)
}

/// Memoized path set of a predicate.
pub(crate) fn pred_paths(id: u32) -> Arc<BTreeSet<FsPath>> {
    ir().pred_paths(id)
}

/// Memoized path set of an expression (includes guard predicates).
pub(crate) fn expr_paths(id: u32) -> Arc<BTreeSet<FsPath>> {
    ir().expr_paths(id)
}

/// The path set of an expression if one was already computed; never
/// computes (or stores) one.
pub(crate) fn known_expr_paths(id: u32) -> Option<Arc<BTreeSet<FsPath>>> {
    ir().try_expr_paths(id)
}

/// Memoized content set of an expression.
pub(crate) fn expr_contents(id: u32) -> Arc<BTreeSet<Content>> {
    ir().expr_contents(id)
}

/// A snapshot of the arena's size and sharing counters.
///
/// The arena is process-global and append-only, so meaningful per-workload
/// numbers come from diffing two snapshots with [`ArenaStats::since`].
pub fn arena_stats() -> ArenaStats {
    ir().stats()
}

/// Number of shard-lock acquisitions that found their stripe held by
/// another thread and had to block (cumulative for the process).
pub fn arena_shard_contention() -> u64 {
    ir().contention.load(Ordering::Relaxed)
}

/// Publishes the arena's size and sharing counters into the current trace
/// session's registry. The arena is process-global and append-only, so
/// these land as high-water gauges (cumulative sizes), not per-run deltas;
/// per-workload deltas still come from [`ArenaStats::since`].
pub fn publish_arena_metrics() {
    if !rehearsal_trace::is_active() {
        return;
    }
    let s = arena_stats();
    rehearsal_trace::gauge_max("arena.pred_nodes", s.pred_nodes as i64);
    rehearsal_trace::gauge_max("arena.expr_nodes", s.expr_nodes as i64);
    rehearsal_trace::gauge_max("arena.pred_dedup_hits", s.pred_dedup_hits as i64);
    rehearsal_trace::gauge_max("arena.expr_dedup_hits", s.expr_dedup_hits as i64);
    rehearsal_trace::gauge_max("arena.shard_contention", arena_shard_contention() as i64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_ratio_is_zero_on_empty_stats() {
        // A fresh (all-zero) snapshot must not divide by zero.
        let empty = ArenaStats::default();
        assert_eq!(empty.requests(), 0);
        assert_eq!(empty.dedup_ratio(), 0.0);

        // Same for a diff of identical snapshots — the common way to get
        // an all-zero value in practice.
        let now = arena_stats();
        assert_eq!(now.since(&now).dedup_ratio(), 0.0);
    }

    #[test]
    fn dedup_ratio_counts_hits_over_requests() {
        let s = ArenaStats {
            pred_nodes: 2,
            expr_nodes: 3,
            pred_dedup_hits: 10,
            expr_dedup_hits: 5,
        };
        assert_eq!(s.requests(), 20);
        assert!((s.dedup_ratio() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn constants_keep_their_seeded_ids() {
        assert_eq!(intern_pred(PredNode::True), 0);
        assert_eq!(intern_pred(PredNode::False), 1);
        assert_eq!(intern_expr(ExprNode::Skip), 0);
        assert_eq!(intern_expr(ExprNode::Error), 1);
        assert!(matches!(pred_node(0), PredNode::True));
        assert!(matches!(pred_node(1), PredNode::False));
        assert!(matches!(expr_node(0), ExprNode::Skip));
        assert!(matches!(expr_node(1), ExprNode::Error));
    }

    #[test]
    fn handles_encode_their_shard() {
        let p = crate::FsPath::parse("/arena-shard-test").unwrap();
        let id = intern_expr(ExprNode::Mkdir(p));
        assert_eq!(
            shard_of(id),
            rehearsal_sync::shard_index(&ExprNode::Mkdir(p), N_SHARDS)
        );
        // Interning again returns the same handle.
        assert_eq!(intern_expr(ExprNode::Mkdir(p)), id);
    }
}
