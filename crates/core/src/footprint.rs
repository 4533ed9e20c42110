//! Per-resource footprint summaries and structural digests.
//!
//! Two pieces live here:
//!
//! 1. **Structural digests** ([`expr_digest`], [`graph_digest`]): 64-bit
//!    FNV-1a hashes of the *structure* of an FS program (node tags, path
//!    strings, contents), not its arena ids — arena ids are stable only
//!    within one process, digests are stable across processes and are what
//!    cache and baseline files store. Two manifests that lower to the same
//!    graph (formatting, comments, resource reordering) get the same
//!    digest.
//! 2. **Footprints** ([`footprint`]): a per-resource summary of the read
//!    set, write set, idempotently-ensured directories, metadata effects,
//!    and observed directories, derived from the memoized [`accesses`]
//!    summary. [`Footprint::may_overlap`] splits a graph into the
//!    components idempotence checks separately, and lint's race-candidate
//!    rule (R2001) flags unordered overlapping pairs with it.

use crate::commutativity::{accesses, Access};
use crate::determinism::FsGraph;
use crate::memo::{ExprMemo, SharedExprMemo};
use rehearsal_fs::{Expr, ExprNode, FsPath, Pred, PredNode};
use rehearsal_sync::ShardedMap;
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn mix_bytes(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

fn mix_u64(state: u64, value: u64) -> u64 {
    mix_bytes(state, &value.to_le_bytes())
}

/// Length-prefixed so `("a", "bc")` and `("ab", "c")` differ.
fn mix_str(state: u64, s: &str) -> u64 {
    mix_bytes(mix_u64(state, s.len() as u64), s.as_bytes())
}

fn mix_path(state: u64, p: FsPath) -> u64 {
    mix_str(state, &p.to_string())
}

static PRED_DIGESTS: OnceLock<ShardedMap<Pred, u64>> = OnceLock::new();
static EXPR_DIGESTS: ExprMemo<u64> = ExprMemo::new("memo.digest.hits", "memo.digest.misses");

/// The structural digest of a predicate (see [`expr_digest`]).
///
/// Memoized in a lock-striped [`ShardedMap`], so digest probes from many
/// fleet workers stop serializing on one lock.
pub fn pred_digest(p: Pred) -> u64 {
    let table = PRED_DIGESTS.get_or_init(ShardedMap::new);
    let (d, _) = table.get_or_insert_with(p, || compute_pred_digest(p));
    d
}

fn compute_pred_digest(p: Pred) -> u64 {
    let h = mix_bytes(FNV_OFFSET, b"pred");
    match p.node() {
        PredNode::True => mix_u64(h, 0x01),
        PredNode::False => mix_u64(h, 0x02),
        PredNode::DoesNotExist(q) => mix_path(mix_u64(h, 0x03), q),
        PredNode::IsFile(q) => mix_path(mix_u64(h, 0x04), q),
        PredNode::IsDir(q) => mix_path(mix_u64(h, 0x05), q),
        PredNode::IsEmptyDir(q) => mix_path(mix_u64(h, 0x06), q),
        PredNode::MetaIs(q, field, v) => mix_str(
            mix_str(mix_path(mix_u64(h, 0x07), q), &field.to_string()),
            &v.as_string(),
        ),
        PredNode::And(a, b) => mix_u64(mix_u64(mix_u64(h, 0x08), pred_digest(a)), pred_digest(b)),
        PredNode::Or(a, b) => mix_u64(mix_u64(mix_u64(h, 0x09), pred_digest(a)), pred_digest(b)),
        PredNode::Not(a) => mix_u64(mix_u64(h, 0x0a), pred_digest(a)),
    }
}

/// The structural digest of an FS program.
///
/// Hashes node tags, path strings, content strings, and metadata fields —
/// never arena ids — so the digest is stable across processes and can be
/// persisted in cache and baseline files. Memoized per arena id, so
/// repeated digests of shared subtrees are O(1). Equal digests are
/// trusted to mean equal structure (the same 64-bit collision model the
/// verdict cache already uses).
pub fn expr_digest(e: Expr) -> u64 {
    EXPR_DIGESTS.get_or_compute(e, || compute_expr_digest(e))
}

fn compute_expr_digest(e: Expr) -> u64 {
    let h = mix_bytes(FNV_OFFSET, b"expr");
    match e.node() {
        ExprNode::Skip => mix_u64(h, 0x20),
        ExprNode::Error => mix_u64(h, 0x21),
        ExprNode::Mkdir(p) => mix_path(mix_u64(h, 0x22), p),
        ExprNode::CreateFile(p, c) => mix_str(mix_path(mix_u64(h, 0x23), p), &c.as_string()),
        ExprNode::Rm(p) => mix_path(mix_u64(h, 0x24), p),
        ExprNode::Cp(src, dst) => mix_path(mix_path(mix_u64(h, 0x25), src), dst),
        ExprNode::ChMeta(p, field, v) => mix_str(
            mix_str(mix_path(mix_u64(h, 0x26), p), &field.to_string()),
            &v.as_string(),
        ),
        ExprNode::Seq(a, b) => mix_u64(mix_u64(mix_u64(h, 0x27), expr_digest(a)), expr_digest(b)),
        ExprNode::If(c, t, f) => mix_u64(
            mix_u64(mix_u64(mix_u64(h, 0x28), pred_digest(c)), expr_digest(t)),
            expr_digest(f),
        ),
    }
}

/// The canonical digest of a lowered resource graph: resource digests plus
/// dependency-edge structure, independent of declaration order, resource
/// names, and spans.
///
/// Resources are put in a canonical order by Weisfeiler–Leman-style color
/// refinement (initial color = the resource's [`expr_digest`], refined
/// with sorted predecessor/successor color multisets), then the digest
/// hashes the resource digests in that order and the edge set remapped to
/// canonical positions. Reordering two *structurally distinguishable*
/// resources therefore cannot change the digest; indistinguishable
/// resources (identical programs with identical neighborhoods) are
/// interchangeable anyway. A refinement miss only costs a cache miss,
/// never a wrong verdict.
pub fn graph_digest(graph: &FsGraph) -> u64 {
    let n = graph.exprs.len();
    let digests: Vec<u64> = graph.exprs.iter().map(|&e| expr_digest(e)).collect();
    let mut color = digests.clone();
    for _ in 0..2 {
        let mut next = Vec::with_capacity(n);
        for i in 0..n {
            let mut preds: Vec<u64> = graph
                .edges
                .iter()
                .filter(|&&(_, to)| to == i)
                .map(|&(from, _)| color[from])
                .collect();
            let mut succs: Vec<u64> = graph
                .edges
                .iter()
                .filter(|&&(from, _)| from == i)
                .map(|&(_, to)| color[to])
                .collect();
            preds.sort_unstable();
            succs.sort_unstable();
            let mut h = mix_u64(mix_bytes(FNV_OFFSET, b"color"), color[i]);
            h = mix_u64(h, preds.len() as u64);
            for c in preds {
                h = mix_u64(h, c);
            }
            h = mix_u64(h, succs.len() as u64);
            for c in succs {
                h = mix_u64(h, c);
            }
            next.push(h);
        }
        color = next;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (color[i], digests[i]));
    let mut rank = vec![0usize; n];
    for (r, &i) in order.iter().enumerate() {
        rank[i] = r;
    }
    let mut edges: Vec<(usize, usize)> = graph
        .edges
        .iter()
        .map(|&(a, b)| (rank[a], rank[b]))
        .collect();
    edges.sort_unstable();

    let mut h = mix_bytes(FNV_OFFSET, b"graph");
    h = mix_u64(h, n as u64);
    for &i in &order {
        h = mix_u64(h, digests[i]);
    }
    h = mix_u64(h, edges.len() as u64);
    for (a, b) in edges {
        h = mix_u64(mix_u64(h, a as u64), b as u64);
    }
    h
}

/// The canonical footprint of one resource's FS program: what it reads,
/// writes, manages metadata on, and which directories' child sets it
/// observes.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Footprint {
    /// Paths the program reads (including idempotent ensure-dir checks).
    pub reads: BTreeSet<FsPath>,
    /// Paths the program writes or creates.
    pub writes: BTreeSet<FsPath>,
    /// Paths the program idempotently ensures are directories (the
    /// fig. 9b `D` access, produced by the guarded-mkdir idiom lowering
    /// emits for ancestor directories). Two ensures of the same path
    /// commute — whichever runs first creates the directory, the other is
    /// a no-op — so `ensured ∩ ensured` is *not* a conflict; keeping this
    /// out of [`Footprint::writes`] is what stops every resource under
    /// `/etc` from overlapping every other.
    pub ensured: BTreeSet<FsPath>,
    /// Paths whose metadata (owner/group/mode) the program manages or
    /// observes — the package/meta effect set.
    pub meta: BTreeSet<FsPath>,
    /// Directories whose *children* the program observes (via `rm` or
    /// `emptydir?`): any write under such a directory conflicts.
    pub observed_dirs: BTreeSet<FsPath>,
}

impl Footprint {
    /// True when the two footprints provably touch disjoint state,
    /// mirroring the Lemma 4 access matrix path-by-path: no write of one
    /// overlaps a read, write, ensure, or meta effect of the other; no
    /// ensure of one overlaps a read or write of the other (two ensures
    /// of the same path commute); and neither changes anything under a
    /// directory whose children the other observes. Disjoint footprints
    /// commute (property-tested against the concrete semantics in
    /// `tests/footprint_props.rs`).
    pub fn disjoint(&self, other: &Footprint) -> bool {
        fn writes_conflict(a: &Footprint, b: &Footprint) -> bool {
            a.writes.iter().any(|p| {
                b.reads.contains(p)
                    || b.writes.contains(p)
                    || b.meta.contains(p)
                    || b.ensured.contains(p)
            }) || a
                .ensured
                .iter()
                .any(|p| b.reads.contains(p) || b.writes.contains(p) || b.meta.contains(p))
                || a.meta
                    .iter()
                    .any(|p| b.meta.contains(p) || b.writes.contains(p))
        }
        fn observation_conflict(a: &Footprint, b: &Footprint) -> bool {
            a.observed_dirs.iter().any(|&d| {
                b.writes
                    .iter()
                    .chain(b.meta.iter())
                    .chain(b.ensured.iter())
                    .any(|&p| p != d && d.is_ancestor_of(p))
            })
        }
        !writes_conflict(self, other)
            && !writes_conflict(other, self)
            && !observation_conflict(self, other)
            && !observation_conflict(other, self)
    }

    /// True when the footprints *may* touch overlapping state — the
    /// conservative complement of [`Footprint::disjoint`], the edge
    /// relation of idempotence components and of lint's race candidates.
    pub fn may_overlap(&self, other: &Footprint) -> bool {
        !self.disjoint(other)
    }
}

static FOOTPRINTS: SharedExprMemo<Footprint> =
    SharedExprMemo::new("memo.footprint.hits", "memo.footprint.misses");

/// The memoized [`Footprint`] of `e`, derived from the shared
/// [`accesses`] summary plus a metadata
/// walk. Like every memo table, computed once per distinct program and
/// shared across analysis sessions and fleet worker threads.
pub fn footprint(e: Expr) -> Arc<Footprint> {
    FOOTPRINTS.get_or_compute(e, || {
        let summary = accesses(e);
        let mut fp = Footprint::default();
        for (p, a) in summary.touched() {
            match a {
                Access::Bot => {}
                Access::Read => {
                    fp.reads.insert(p);
                }
                Access::EnsureDir => {
                    fp.ensured.insert(p);
                }
                Access::Write => {
                    fp.writes.insert(p);
                }
            }
        }
        fp.observed_dirs = summary.observed_dirs().clone();
        collect_meta_paths(e, &mut fp.meta);
        fp
    })
}

fn collect_meta_paths(e: Expr, out: &mut BTreeSet<FsPath>) {
    match e.node() {
        ExprNode::ChMeta(p, _, _) => {
            out.insert(p);
        }
        ExprNode::Seq(a, b) => {
            collect_meta_paths(a, out);
            collect_meta_paths(b, out);
        }
        ExprNode::If(c, t, f) => {
            collect_pred_meta_paths(c, out);
            collect_meta_paths(t, out);
            collect_meta_paths(f, out);
        }
        _ => {}
    }
}

fn collect_pred_meta_paths(p: Pred, out: &mut BTreeSet<FsPath>) {
    match p.node() {
        PredNode::MetaIs(q, _, _) => {
            out.insert(q);
        }
        PredNode::And(a, b) | PredNode::Or(a, b) => {
            collect_pred_meta_paths(a, out);
            collect_pred_meta_paths(b, out);
        }
        PredNode::Not(a) => collect_pred_meta_paths(a, out),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rehearsal_fs::Content;

    fn p(s: &str) -> FsPath {
        FsPath::parse(s).unwrap()
    }

    fn file(path: &str, content: &str) -> Expr {
        Expr::create_file(p(path), Content::intern(content))
    }

    fn graph(exprs: Vec<Expr>, edges: &[(usize, usize)]) -> FsGraph {
        let names = (0..exprs.len()).map(|i| format!("r{i}")).collect();
        FsGraph::new(exprs, edges.iter().copied().collect(), names)
    }

    #[test]
    fn digests_are_structural_and_pinned() {
        // Pinned constants lock the digest scheme across processes and
        // releases: cache schema 5 and baseline files depend on it.
        assert_eq!(expr_digest(Expr::SKIP), 0xd064_9878_d16f_952e);
        assert_eq!(expr_digest(Expr::mkdir(p("/a"))), 0x1fc0_4ec8_d257_2656);
        assert_eq!(expr_digest(file("/etc/motd", "hi")), 0x57a3_dda8_d634_f0ff);
    }

    #[test]
    fn equal_structure_means_equal_digest() {
        let a = Expr::mkdir(p("/a")).seq(file("/a/f", "x"));
        let b = Expr::mkdir(p("/a")).seq(file("/a/f", "x"));
        assert_eq!(expr_digest(a), expr_digest(b));
        let c = Expr::mkdir(p("/a")).seq(file("/a/f", "y"));
        assert_ne!(expr_digest(a), expr_digest(c));
    }

    #[test]
    fn graph_digest_ignores_order_names_and_spans() {
        let e1 = file("/etc/a", "1");
        let e2 = file("/etc/b", "2");
        let g1 = graph(vec![e1, e2], &[]);
        let g2 = graph(vec![e2, e1], &[]);
        assert_eq!(graph_digest(&g1), graph_digest(&g2));

        // An edge is structure: adding one changes the digest.
        let g3 = graph(vec![e1, e2], &[(0, 1)]);
        assert_ne!(graph_digest(&g1), graph_digest(&g3));

        // Edge direction is structure too, and reordering the resource
        // list remaps edges with it.
        let g4 = graph(vec![e2, e1], &[(1, 0)]);
        assert_eq!(graph_digest(&g3), graph_digest(&g4));
        let g5 = graph(vec![e1, e2], &[(1, 0)]);
        assert_ne!(graph_digest(&g3), graph_digest(&g5));
    }

    #[test]
    fn footprints_classify_reads_writes_meta() {
        let e = Expr::if_(
            Pred::is_dir(p("/etc")),
            file("/etc/app.conf", "x").seq(Expr::chmeta(
                p("/etc/app.conf"),
                rehearsal_fs::MetaField::Mode,
                Content::intern("0644"),
            )),
            Expr::ERROR,
        );
        let fp = footprint(e);
        assert!(fp.writes.contains(&p("/etc/app.conf")));
        assert!(fp.meta.contains(&p("/etc/app.conf")));
    }

    #[test]
    fn disjoint_footprints_do_not_overlap() {
        let a = footprint(file("/a/x", "1"));
        let b = footprint(file("/b/y", "2"));
        assert!(a.disjoint(&b));
        let c = footprint(file("/a/x", "other"));
        assert!(!a.disjoint(&c));
    }

    #[test]
    fn observed_dirs_conflict_with_writes_underneath() {
        let observer = footprint(Expr::rm(p("/spool"))); // rm observes children
        let writer = footprint(file("/spool/job", "j"));
        assert!(observer.may_overlap(&writer));
    }
}
