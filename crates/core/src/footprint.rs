//! Per-resource footprint summaries and structural digests — the
//! foundation of differential (incremental) verification.
//!
//! A fleet rerun after a small edit should cost time proportional to the
//! *diff*, not the fleet. Three pieces make that possible:
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
//!    summary. Footprints serialize into baseline entries so a later run
//!    can reason about resources that no longer exist in the new graph.
//! 3. **The commute oracle** ([`CommuteOracle`]): a digest-keyed store of
//!    per-pair commutativity verdicts. Seeded from a baseline with the
//!    pairs whose endpoints are *clean* (outside the [`dirty_cone`]), it
//!    short-circuits the pairwise [`commutes`] computation during
//!    re-analysis. Because `commutes` is a pure function of the two
//!    expressions' structure and the digest identifies that structure,
//!    a seeded answer is always identical to a recomputed one — reuse can
//!    change wall time, never verdicts.

use crate::commutativity::{accesses, commutes, Access};
use crate::determinism::FsGraph;
use crate::memo::ExprMemo;
use rehearsal_fs::{Expr, ExprNode, FsPath, Pred, PredNode};
use rehearsal_sync::ShardedMap;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
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
    *EXPR_DIGESTS.get_or_compute(e, || compute_expr_digest(e))
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
/// observes — plus its structural digest.
///
/// Footprints are what baseline files persist per resource; the path sets
/// are rendered as strings on disk and reparsed on load, so a later
/// process (with different arena ids) can still test overlap against
/// resources that were removed by an edit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Structural digest of the program ([`expr_digest`]).
    pub digest: u64,
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
    /// conservative complement of [`Footprint::disjoint`], used to pull
    /// resources into the [`dirty_cone`].
    pub fn may_overlap(&self, other: &Footprint) -> bool {
        !self.disjoint(other)
    }
}

static FOOTPRINTS: ExprMemo<Footprint> =
    ExprMemo::new("memo.footprint.hits", "memo.footprint.misses");

/// The memoized [`Footprint`] of `e`, derived from the shared
/// [`accesses`] summary plus a metadata
/// walk. Like every memo table, computed once per distinct program and
/// shared across analysis sessions and fleet worker threads.
pub fn footprint(e: Expr) -> Arc<Footprint> {
    FOOTPRINTS.get_or_compute(e, || {
        let summary = accesses(e);
        let mut fp = Footprint {
            digest: expr_digest(e),
            ..Footprint::default()
        };
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

/// A digest-keyed store of per-pair commutativity verdicts.
///
/// During re-analysis the explorer and the elimination pass consult the
/// oracle before calling [`commutes`]; a seeded or previously-computed
/// answer for the same digest pair is returned directly. `commutes` is a
/// pure function of the two programs' structure, so a stored bit is
/// always identical to what recomputation would produce — the oracle
/// affects wall time and the `pairs_reused` counter, never verdicts.
///
/// Thread-safe: one oracle is shared across a job's analysis stages, and
/// the pair store is a lock-striped [`ShardedMap`].
#[derive(Debug, Default)]
pub struct CommuteOracle {
    pairs: ShardedMap<(u64, u64), bool>,
    reused: AtomicU64,
    computed: AtomicU64,
}

impl CommuteOracle {
    /// An empty oracle (everything will be computed and recorded).
    pub fn new() -> CommuteOracle {
        CommuteOracle::default()
    }

    fn key(a: u64, b: u64) -> (u64, u64) {
        (a.min(b), a.max(b))
    }

    /// Seeds a pair verdict from a baseline. Safe only because the digest
    /// identifies structure: seed pairs must come from a prior run of the
    /// same pure `commutes` over structurally identical programs.
    pub fn seed(&self, a: u64, b: u64, commute: bool) {
        self.pairs
            .insert_if_absent(CommuteOracle::key(a, b), commute);
    }

    /// The commutativity verdict for the digest pair, consulting the
    /// store first and computing (then recording) on a miss.
    pub fn commutes_pair(&self, a: u64, b: u64, compute: impl FnOnce() -> bool) -> bool {
        let key = CommuteOracle::key(a, b);
        if let Some(bit) = self.pairs.get(&key) {
            self.reused.fetch_add(1, Ordering::Relaxed);
            return bit;
        }
        let bit = compute();
        self.computed.fetch_add(1, Ordering::Relaxed);
        let (stored, _) = self.pairs.insert_if_absent(key, bit);
        stored
    }

    /// How many pair lookups were answered from the store.
    pub fn pairs_reused(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }

    /// How many pair verdicts were computed fresh this run.
    pub fn pairs_computed(&self) -> u64 {
        self.computed.load(Ordering::Relaxed)
    }

    /// Every stored pair (seeded and computed), sorted — the form a
    /// baseline file persists.
    pub fn export(&self) -> Vec<(u64, u64, bool)> {
        let mut out: Vec<(u64, u64, bool)> = self
            .pairs
            .snapshot()
            .into_iter()
            .map(|((a, b), bit)| (a, b, bit))
            .collect();
        out.sort_unstable();
        out
    }
}

/// Computes the *dirty cone* of an edit: the seed resources (those whose
/// digest is new relative to the baseline) plus every resource that might
/// interact with the edit — because its footprint may overlap a seed's or
/// a removed baseline resource's footprint, or because it is ordered
/// relative to a seed by a dependency edge.
///
/// Resources outside the cone are *clean*: their baseline pair verdicts
/// may be seeded into a [`CommuteOracle`]. The cone itself is a
/// performance-accounting boundary, not a soundness one — seeded answers
/// are identical to recomputed ones by construction — so an
/// overapproximate cone only reduces reuse. Overlap against removed
/// resources uses the conservative serialized footprints; anything
/// ambiguous overlaps.
pub fn dirty_cone(
    graph: &FsGraph,
    seed: &BTreeSet<usize>,
    removed: &[Footprint],
) -> BTreeSet<usize> {
    let footprints: Vec<Arc<Footprint>> = graph.exprs.iter().map(|&e| footprint(e)).collect();
    let mut cone: BTreeSet<usize> = seed.clone();
    // Resources that may interact with a resource the edit deleted (or
    // rewrote beyond recognition) are dirty too: the baseline's pair
    // verdicts involving the removed program say nothing about them now.
    for (i, fp) in footprints.iter().enumerate() {
        if removed.iter().any(|r| fp.may_overlap(r)) {
            cone.insert(i);
        }
    }
    // One expansion round: footprint overlap with, or a dependency edge
    // touching, anything dirty so far.
    let base = cone.clone();
    for &d in &base {
        for &(a, b) in &graph.edges {
            if a == d {
                cone.insert(b);
            }
            if b == d {
                cone.insert(a);
            }
        }
        for (i, fp) in footprints.iter().enumerate() {
            if !cone.contains(&i) && fp.may_overlap(&footprints[d]) {
                cone.insert(i);
            }
        }
    }
    cone
}

/// The pairwise commutativity of two resources, via the oracle when one
/// is supplied. This is the single entry point the explorer and the
/// elimination pass share, so `pairs_reused` counts every short-circuited
/// pair exactly once per lookup site.
pub(crate) fn commutes_with_oracle(
    oracle: Option<&CommuteOracle>,
    ea: Expr,
    eb: Expr,
    sa: &crate::commutativity::AccessSummary,
    sb: &crate::commutativity::AccessSummary,
) -> bool {
    match oracle {
        Some(o) => o.commutes_pair(expr_digest(ea), expr_digest(eb), || commutes(sa, sb)),
        None => commutes(sa, sb),
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
        assert_eq!(fp.digest, expr_digest(e));
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

    #[test]
    fn oracle_reuses_seeded_pairs_and_records_computed_ones() {
        let oracle = CommuteOracle::new();
        oracle.seed(1, 2, true);
        assert!(oracle.commutes_pair(2, 1, || unreachable!("seeded pair must not recompute")));
        assert_eq!(oracle.pairs_reused(), 1);
        assert!(!oracle.commutes_pair(3, 4, || false));
        assert_eq!(oracle.pairs_computed(), 1);
        // The computed pair is now stored.
        assert!(!oracle.commutes_pair(4, 3, || true));
        assert_eq!(oracle.pairs_reused(), 2);
        assert_eq!(oracle.export(), vec![(1, 2, true), (3, 4, false)]);
    }

    #[test]
    fn dirty_cone_pulls_in_overlap_and_edges() {
        let exprs = vec![
            file("/a/one", "1"),   // 0: edited (seed)
            file("/a/one.d", "2"), // 1: disjoint from everything
            file("/b/two", "3"),   // 2: edge-ordered after 0
            file("/c/three", "4"), // 3: clean
        ];
        let g = graph(exprs, &[(0, 2)]);
        let cone = dirty_cone(&g, &BTreeSet::from([0]), &[]);
        assert!(cone.contains(&0), "seed is dirty");
        assert!(cone.contains(&2), "edge-ordered resource joins the cone");
        assert!(
            !cone.contains(&3),
            "disjoint unordered resource stays clean"
        );

        // A removed resource's serialized footprint dirties overlaps.
        let removed = Footprint {
            digest: 0,
            writes: BTreeSet::from([p("/c/three")]),
            ..Footprint::default()
        };
        let cone = dirty_cone(&g, &BTreeSet::new(), &[removed]);
        assert!(cone.contains(&3));
    }
}
