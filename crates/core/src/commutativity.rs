//! The syntactic commutativity check (paper §4.3, fig. 9b, Lemma 4).
//!
//! The conventional read/write-set check fails for Puppet because packages
//! create overlapping directory trees (`/usr`, `/etc`, …) — a form of
//! *false sharing*. The fix is a third abstract access kind `D`: "this
//! expression idempotently ensures the path is a directory". Two
//! expressions may both hold `D` on a path and still commute.
//!
//! Lattice: `⊥ ⊏ R, D ⊏ W`.
//!
//! Summaries are memoized process-wide, keyed by the hash-consed
//! expression id: the O(n²) pairwise commutativity pass, resource
//! elimination, pruning, and repair all consult [`accesses`] for the same
//! expressions, and identical subprograms (shared dependency blocks,
//! repeated idioms) now summarize exactly once.

use crate::memo::SharedExprMemo;
use rehearsal_fs::{Expr, ExprNode, FsPath, Pred, PredNode};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Abstract access to one path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Access {
    /// Untouched.
    Bot,
    /// Read.
    Read,
    /// Idempotently ensured to be a directory.
    EnsureDir,
    /// Written (or mixed access).
    Write,
}

impl Access {
    fn join(self, other: Access) -> Access {
        use Access::*;
        match (self, other) {
            (Bot, x) | (x, Bot) => x,
            (Read, Read) => Read,
            (EnsureDir, EnsureDir) => EnsureDir,
            _ => Write,
        }
    }
}

/// Identifies an idempotent check-then-act block (e.g. a package-install
/// guard). Two resources that access a path only through *identical* blocks
/// commute on that path: the block is idempotent, so whichever runs first
/// does the work and the other skips. This is how two packages sharing a
/// dependency (both embedding the same `install(libc6)` block) are proven
/// to commute.
///
/// With the hash-consed IR the tag is simply the block's arena id —
/// structural identity is id identity, so the seed's hash-plus-size
/// approximation (with its theoretical collisions) is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct BlockTag(Expr);

/// How a path relates to idempotent blocks within one expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum BlockCtx {
    /// Every access to the path sits inside this one block.
    Only(BlockTag),
    /// The path is (also) accessed outside any block.
    Outside,
}

/// The abstract access summary of one expression.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct AccessSummary {
    map: BTreeMap<FsPath, Access>,
    /// Paths whose *children* the expression observes (via `rm` or
    /// `emptydir?`): any write to a child of such a path conflicts.
    observes_children_of: BTreeSet<FsPath>,
    /// Block context per path (see [`BlockCtx`]).
    blocks: BTreeMap<FsPath, BlockCtx>,
}

impl AccessSummary {
    /// The access recorded for `p`.
    pub fn access(&self, p: FsPath) -> Access {
        self.map.get(&p).copied().unwrap_or(Access::Bot)
    }

    /// Paths with the given access kind.
    pub fn paths_with(&self, a: Access) -> impl Iterator<Item = FsPath> + '_ {
        self.map
            .iter()
            .filter(move |(_, &x)| x == a)
            .map(|(&p, _)| p)
    }

    /// All touched paths.
    pub fn touched(&self) -> impl Iterator<Item = (FsPath, Access)> + '_ {
        self.map.iter().map(|(&p, &a)| (p, a))
    }

    /// Paths whose children the expression observes.
    pub fn observed_dirs(&self) -> &BTreeSet<FsPath> {
        &self.observes_children_of
    }

    fn note_block(&mut self, p: FsPath, current: Option<BlockTag>) {
        let entry = self.blocks.entry(p);
        match (entry, current) {
            (std::collections::btree_map::Entry::Vacant(v), Some(tag)) => {
                v.insert(BlockCtx::Only(tag));
            }
            (std::collections::btree_map::Entry::Vacant(v), None) => {
                v.insert(BlockCtx::Outside);
            }
            (std::collections::btree_map::Entry::Occupied(mut o), cur) => {
                let keep = matches!((o.get(), cur), (BlockCtx::Only(t), Some(tag)) if *t == tag);
                if !keep {
                    o.insert(BlockCtx::Outside);
                }
            }
        }
    }

    fn block_of(&self, p: FsPath) -> Option<BlockTag> {
        match self.blocks.get(&p) {
            Some(BlockCtx::Only(t)) => Some(*t),
            _ => None,
        }
    }

    fn read(&mut self, p: FsPath) {
        let cur = self.access(p);
        // A read of a path this expression already pins as `D` is stable
        // (only dir-ness is observable and `D` guarantees it); do not
        // promote D to W.
        let next = match cur {
            Access::EnsureDir => Access::EnsureDir,
            other => other.join(Access::Read),
        };
        self.map.insert(p, next);
    }

    fn write(&mut self, p: FsPath) {
        self.map.insert(p, Access::Write);
    }

    fn ensure_dir(&mut self, p: FsPath) {
        // fig. 9b: p may become D only if its parent is already D (or is
        // the root, which always exists) and p itself is at most D.
        let parent_ok = match p.parent() {
            Some(parent) => parent == FsPath::root() || self.access(parent) == Access::EnsureDir,
            None => false,
        };
        let self_ok = matches!(self.access(p), Access::Bot | Access::EnsureDir);
        if parent_ok && self_ok {
            self.map.insert(p, Access::EnsureDir);
        } else {
            // The un-absorbed mkdir also reads its parent's dir-ness.
            if let Some(parent) = p.parent() {
                if parent != FsPath::root() {
                    self.read(parent);
                }
            }
            self.write(p);
        }
    }

    fn observe_children(&mut self, p: FsPath) {
        self.observes_children_of.insert(p);
    }

    fn merge_branch(&mut self, other: AccessSummary) {
        for (p, a) in other.map {
            let cur = self.access(p);
            self.map.insert(p, cur.join(a));
        }
        self.observes_children_of.extend(other.observes_children_of);
        for (p, ctx) in other.blocks {
            match ctx {
                BlockCtx::Only(t) => self.note_block(p, Some(t)),
                BlockCtx::Outside => self.note_block(p, None),
            }
        }
    }
}

/// The last expression on the right spine of a `Seq` chain.
fn last_op(e: Expr) -> Expr {
    match e.node() {
        ExprNode::Seq(_, b) => last_op(b),
        _ => e,
    }
}

/// Recognizes an idempotent check-then-act block keyed on a path `m`.
/// Two expressions that access a path only through *identical* such blocks
/// commute on it: whichever block runs first does the work, the second run
/// is a no-op (and the block's error conditions depend only on state the
/// conflict analysis tracks separately).
///
/// Shapes recognized:
///
/// * marker-install style: `if (none?(m)) { …; creat(m, _) } else if
///   (file?(m)) id else err`;
/// * marker-remove style: `if (file?(m)) { …; rm(m) } else id`;
/// * overwrite: `if (none?(m)) creat(m, c) else if (file?(m)) { rm(m);
///   creat(m, c) } else err` (the definitive write idiom — used for every
///   package file, so two packages shipping the same file with the same
///   content commute);
/// * create-if-absent: `if (none?(m)) creat(m, _) else if (file?(m)) id
///   else err`;
/// * remove-if-present: `if (file?(m)) rm(m) else if (none?(m)) id else
///   err`.
fn idempotent_block(pred: Pred, then_: Expr, else_: Expr) -> Option<()> {
    match (pred.node(), else_.node()) {
        (PredNode::DoesNotExist(m), ExprNode::If(ep, et, ee)) => {
            match (ep.node(), et.node(), ee.node()) {
                // create-if-absent / marker-install.
                (PredNode::IsFile(m2), ExprNode::Skip, ExprNode::Error) if m2 == m => {
                    match last_op(then_).node() {
                        ExprNode::CreateFile(q, _) if q == m => Some(()),
                        _ => None,
                    }
                }
                // overwrite.
                (PredNode::IsFile(m2), ExprNode::Seq(rm, cr), ExprNode::Error) if m2 == m => {
                    match (then_.node(), rm.node(), cr.node()) {
                        (
                            ExprNode::CreateFile(q1, c1),
                            ExprNode::Rm(q2),
                            ExprNode::CreateFile(q3, c2),
                        ) if q1 == m && q2 == m && q3 == m && c1 == c2 => Some(()),
                        _ => None,
                    }
                }
                _ => None,
            }
        }
        // marker-remove.
        (PredNode::IsFile(m), ExprNode::Skip) => match last_op(then_).node() {
            ExprNode::Rm(q) if q == m => Some(()),
            _ => None,
        },
        // remove-if-present.
        (PredNode::IsFile(m), ExprNode::If(ep, et, ee)) => {
            match (then_.node(), ep.node(), et.node(), ee.node()) {
                (ExprNode::Rm(q1), PredNode::DoesNotExist(m2), ExprNode::Skip, ExprNode::Error)
                    if q1 == m && m2 == m =>
                {
                    Some(())
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// Recognizes the guarded-mkdir idioms of fig. 9b:
/// `if (¬dir?(p)) mkdir(p) [else id]` and
/// `if (none?(p)) mkdir(p) else if (file?(p)) err else id`.
fn guarded_mkdir(pred: Pred, then_: Expr, else_: Expr) -> Option<FsPath> {
    match (pred.node(), then_.node(), else_.node()) {
        (PredNode::Not(inner), ExprNode::Mkdir(p), ExprNode::Skip) => match inner.node() {
            PredNode::IsDir(q) if q == p => Some(p),
            _ => None,
        },
        (
            PredNode::DoesNotExist(q),
            ExprNode::Mkdir(p),
            ExprNode::If(inner_pred, inner_then, inner_else),
        ) if q == p => match (inner_pred.node(), inner_then.node(), inner_else.node()) {
            (PredNode::IsFile(r), ExprNode::Error, ExprNode::Skip) if r == p => Some(p),
            _ => None,
        },
        _ => None,
    }
}

fn pred_accesses(pred: Pred, out: &mut AccessSummary, block: Option<BlockTag>) {
    match pred.node() {
        PredNode::True | PredNode::False => {}
        PredNode::DoesNotExist(p) | PredNode::IsFile(p) | PredNode::IsDir(p) => {
            out.read(p);
            out.note_block(p, block);
        }
        PredNode::IsEmptyDir(p) => {
            out.read(p);
            out.note_block(p, block);
            out.observe_children(p);
        }
        PredNode::MetaIs(p, _, _) => {
            // Observes both existence and a metadata field of p.
            out.read(p);
            out.note_block(p, block);
        }
        PredNode::And(a, b) | PredNode::Or(a, b) => {
            pred_accesses(a, out, block);
            pred_accesses(b, out, block);
        }
        PredNode::Not(a) => pred_accesses(a, out, block),
    }
}

fn expr_accesses(e: Expr, out: &mut AccessSummary, block: Option<BlockTag>) {
    match e.node() {
        ExprNode::Skip | ExprNode::Error => {}
        ExprNode::Mkdir(p) | ExprNode::CreateFile(p, _) => {
            if let Some(parent) = p.parent() {
                out.read(parent);
                out.note_block(parent, block);
            }
            out.write(p);
            out.note_block(p, block);
        }
        ExprNode::Rm(p) => {
            out.write(p);
            out.note_block(p, block);
            out.observe_children(p);
        }
        ExprNode::ChMeta(p, _, _) => {
            // A metadata write is a write to p: two expressions that
            // manage the same path's metadata must not commute (last
            // write wins), and a metadata write does not commute with a
            // content write or removal of the same path either. The
            // access lattice stays path-granular — a per-field refinement
            // would buy little, since real resources set owner/group/mode
            // together.
            out.write(p);
            out.note_block(p, block);
        }
        ExprNode::Cp(src, dst) => {
            out.read(src);
            out.note_block(src, block);
            if let Some(parent) = dst.parent() {
                out.read(parent);
                out.note_block(parent, block);
            }
            out.write(dst);
            out.note_block(dst, block);
        }
        ExprNode::Seq(a, b) => {
            expr_accesses(a, out, block);
            expr_accesses(b, out, block);
        }
        ExprNode::If(pred, then_, else_) => {
            if let Some(p) = guarded_mkdir(pred, then_, else_) {
                out.ensure_dir(p);
                out.note_block(p, block);
                return;
            }
            let block = if block.is_none() && idempotent_block(pred, then_, else_).is_some() {
                Some(BlockTag(e))
            } else {
                block
            };
            pred_accesses(pred, out, block);
            let mut bt = AccessSummary::default();
            expr_accesses(then_, &mut bt, block);
            let mut be = AccessSummary::default();
            expr_accesses(else_, &mut be, block);
            bt.merge_branch(be);
            // Branch results compose sequentially with what came before.
            for (p, a) in &bt.map {
                match a {
                    Access::Bot => {}
                    Access::Read => out.read(*p),
                    Access::EnsureDir => out.ensure_dir(*p),
                    Access::Write => out.write(*p),
                }
            }
            for (p, ctx) in bt.blocks {
                match ctx {
                    BlockCtx::Only(t) => out.note_block(p, Some(t)),
                    BlockCtx::Outside => out.note_block(p, None),
                }
            }
            out.observes_children_of.extend(bt.observes_children_of);
        }
    }
}

/// Computes the abstract access summary of an expression (`[e]C ⊥`).
///
/// Summaries depend only on the expression's structure, so they are
/// memoized process-wide keyed by the hash-consed id: repeated queries for
/// the same (sub)program — across the commutativity pass, elimination,
/// pruning, and repair — are answered by a shared `Arc` in O(1).
pub fn accesses(e: Expr) -> Arc<AccessSummary> {
    static MEMO: SharedExprMemo<AccessSummary> =
        SharedExprMemo::new("memo.accesses.hits", "memo.accesses.misses");
    MEMO.get_or_compute(e, || {
        let mut out = AccessSummary::default();
        expr_accesses(e, &mut out, None);
        out
    })
}

/// Lemma 4: do `e1` and `e2` commute?
///
/// Conditions (plus a write/write disjointness check stated in the paper's
/// prose, and child-observation checks that make `rm`/`emptydir?` sound):
/// 1. `R(e1) ∩ W(e2) = ∅` and symmetrically;
/// 2. `W(e1) ∩ W(e2) = ∅`;
/// 3. `D(e1) ∩ (R(e2) ∪ W(e2)) = ∅` and symmetrically;
/// 4. no write or `D` of one under a directory whose children the other
///    observes.
pub fn commutes(a: &AccessSummary, b: &AccessSummary) -> bool {
    use Access::*;
    for (p, aa) in a.touched() {
        let ba = b.access(p);
        let conflict = matches!(
            (aa, ba),
            (Read, Write)
                | (Write, Read)
                | (Write, Write)
                | (EnsureDir, Read)
                | (Read, EnsureDir)
                | (EnsureDir, Write)
                | (Write, EnsureDir)
        );
        if conflict {
            // Excused when both sides touch p only inside the *same*
            // idempotent block (e.g. two packages installing a shared
            // dependency).
            let excused = matches!(
                (a.block_of(p), b.block_of(p)),
                (Some(ta), Some(tb)) if ta == tb
            );
            if !excused {
                return false;
            }
        }
    }
    // Child-observation: a path created/removed/ensured by one side under a
    // directory whose emptiness the other side can observe.
    let changes = |s: &AccessSummary| -> Vec<FsPath> {
        s.touched()
            .filter(|(_, acc)| matches!(acc, Write | EnsureDir))
            .map(|(p, _)| p)
            .collect()
    };
    for p in changes(a) {
        if let Some(parent) = p.parent() {
            if b.observed_dirs().contains(&parent) {
                return false;
            }
        }
    }
    for p in changes(b) {
        if let Some(parent) = p.parent() {
            if a.observed_dirs().contains(&parent) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rehearsal_fs::{check_equiv_brute_force, Content, FsPath};

    fn p(s: &str) -> FsPath {
        FsPath::parse(s).unwrap()
    }

    fn ensure_dir(path: FsPath) -> Expr {
        Expr::if_then(Pred::is_dir(path).not(), Expr::mkdir(path))
    }

    #[test]
    fn guarded_mkdir_is_d() {
        let e = ensure_dir(p("/usr"));
        let s = accesses(e);
        assert_eq!(s.access(p("/usr")), Access::EnsureDir);
    }

    #[test]
    fn accesses_are_memoized() {
        let e = ensure_dir(p("/memo")).seq(Expr::create_file(p("/memo/f"), Content::intern("x")));
        let s1 = accesses(e);
        let s2 = accesses(e);
        assert!(Arc::ptr_eq(&s1, &s2), "same id returns the shared summary");
    }

    #[test]
    fn expanded_guard_form_is_d() {
        let a = p("/usr");
        let e = Expr::if_(
            Pred::does_not_exist(a),
            Expr::mkdir(a),
            Expr::if_(Pred::is_file(a), Expr::ERROR, Expr::SKIP),
        );
        assert_eq!(accesses(e).access(a), Access::EnsureDir);
    }

    #[test]
    fn unguarded_mkdir_is_w() {
        let e = Expr::mkdir(p("/usr"));
        assert_eq!(accesses(e).access(p("/usr")), Access::Write);
    }

    #[test]
    fn d_requires_parent_d() {
        // Creating /a/b before /a is not D for /a/b.
        let bad = ensure_dir(p("/a/b")).seq(ensure_dir(p("/a")));
        let s = accesses(bad);
        assert_eq!(s.access(p("/a/b")), Access::Write);
        // In the right order both are D.
        let good = ensure_dir(p("/a")).seq(ensure_dir(p("/a/b")));
        let s = accesses(good);
        assert_eq!(s.access(p("/a")), Access::EnsureDir);
        assert_eq!(s.access(p("/a/b")), Access::EnsureDir);
    }

    #[test]
    fn packages_with_shared_dirs_commute() {
        // Two "packages" that both ensure /usr and /usr/bin, then create
        // their own files — the motivating case of §4.3.
        let pkg = |name: &str| {
            ensure_dir(p("/usr"))
                .seq(ensure_dir(p("/usr/bin")))
                .seq(Expr::create_file(
                    p("/usr/bin").join(name),
                    Content::intern(name),
                ))
        };
        let a = pkg("vim");
        let b = pkg("git");
        assert!(commutes(&accesses(a), &accesses(b)));
        // Sanity: brute-force agrees they commute.
        let ab = a.seq(b);
        let ba = b.seq(a);
        check_equiv_brute_force(ab, ba, &[p("/usr"), p("/usr/bin")], &[])
            .expect("they really commute");
    }

    #[test]
    fn conflicting_writes_do_not_commute() {
        let a = Expr::create_file(p("/f"), Content::intern("a"));
        let b = Expr::create_file(p("/f"), Content::intern("b"));
        assert!(!commutes(&accesses(a), &accesses(b)));
    }

    #[test]
    fn read_write_conflict() {
        let a = Expr::if_(Pred::is_file(p("/f")), Expr::SKIP, Expr::ERROR);
        let b = Expr::create_file(p("/f"), Content::intern("x"));
        assert!(!commutes(&accesses(a), &accesses(b)));
    }

    #[test]
    fn d_conflicts_with_read_and_write() {
        let d = ensure_dir(p("/d"));
        let r = Expr::if_(Pred::does_not_exist(p("/d")), Expr::SKIP, Expr::ERROR);
        let w = Expr::rm(p("/d"));
        assert!(!commutes(&accesses(d), &accesses(r)));
        assert!(!commutes(&accesses(d), &accesses(w)));
        // But D/D is fine.
        assert!(commutes(&accesses(d), &accesses(ensure_dir(p("/d")))));
    }

    #[test]
    fn rm_observes_children() {
        // rm(/d) vs creating a file inside /d: removing first succeeds,
        // removing second fails — they must not commute.
        let a = Expr::rm(p("/d"));
        let b = Expr::create_file(p("/d/f"), Content::intern("x"));
        assert!(!commutes(&accesses(a), &accesses(b)));
    }

    #[test]
    fn emptydir_test_observes_children() {
        let a = Expr::if_(Pred::is_empty_dir(p("/d")), Expr::SKIP, Expr::ERROR);
        let b = Expr::create_file(p("/d/f"), Content::intern("x"));
        assert!(!commutes(&accesses(a), &accesses(b)));
        // A sibling write does not disturb the emptiness of /d.
        let c = Expr::create_file(p("/e"), Content::intern("x"));
        assert!(commutes(&accesses(a), &accesses(c)));
    }

    #[test]
    fn meta_writes_conflict_on_the_same_path() {
        let f = p("/mw/f");
        let a = Expr::chmod(f, Content::intern("0644"));
        let b = Expr::chmod(f, Content::intern("0755"));
        assert!(!commutes(&accesses(a), &accesses(b)), "chmod vs chmod");
        let o = Expr::chown(f, Content::intern("root"));
        assert!(!commutes(&accesses(a), &accesses(o)), "chmod vs chown");
        let w = Expr::create_file(f, Content::intern("x"));
        assert!(!commutes(&accesses(a), &accesses(w)), "chmod vs creat");
        let r = Expr::if_(
            Pred::meta_is(f, rehearsal_fs::MetaField::Mode, Content::intern("0644")),
            Expr::SKIP,
            Expr::ERROR,
        );
        assert!(!commutes(&accesses(a), &accesses(r)), "chmod vs meta_is");
    }

    #[test]
    fn meta_writes_on_distinct_paths_commute() {
        let a = Expr::chmod(p("/mw/a"), Content::intern("0644"));
        let b = Expr::chown(p("/mw/b"), Content::intern("root"));
        assert!(commutes(&accesses(a), &accesses(b)));
        // Brute-force confirmation over states where both paths exist.
        let fs = rehearsal_fs::FileSystem::with_root()
            .set(p("/mw"), rehearsal_fs::FileState::DIR)
            .set(
                p("/mw/a"),
                rehearsal_fs::FileState::file(Content::intern("x")),
            )
            .set(
                p("/mw/b"),
                rehearsal_fs::FileState::file(Content::intern("y")),
            );
        let ab = rehearsal_fs::eval(a.seq(b), &fs).unwrap();
        let ba = rehearsal_fs::eval(b.seq(a), &fs).unwrap();
        assert_eq!(ab, ba);
    }

    #[test]
    fn disjoint_resources_commute() {
        let a = Expr::create_file(p("/x"), Content::intern("1"));
        let b = Expr::create_file(p("/y"), Content::intern("2"));
        assert!(commutes(&accesses(a), &accesses(b)));
    }

    /// Two resources that embed the *identical* install block for a shared
    /// dependency commute — the block-tag excuse. With hash-consing the
    /// two embedded blocks are literally the same node.
    #[test]
    fn shared_dependency_blocks_commute() {
        let m = p("/packages/libc");
        let marker_content = Content::intern("installed:libc");
        let libf = p("/usr/libc.so");
        let install_libc = Expr::if_(
            Pred::does_not_exist(m),
            ensure_dir(p("/usr"))
                .seq(Expr::create_file(libf, Content::intern("pkg:libc")))
                .seq(Expr::create_file(m, marker_content)),
            Expr::if_(Pred::is_file(m), Expr::SKIP, Expr::ERROR),
        );
        let own = |name: &str| {
            ensure_dir(p("/usr")).seq(Expr::create_file(
                p("/usr").join(name),
                Content::intern(name),
            ))
        };
        let pkg_a = install_libc.seq(own("vim"));
        let pkg_b = install_libc.seq(own("git"));
        assert!(
            commutes(&accesses(pkg_a), &accesses(pkg_b)),
            "identical dependency blocks must be excused"
        );
        // Brute-force confirmation that the excuse is sound.
        let ab = pkg_a.seq(pkg_b);
        let ba = pkg_b.seq(pkg_a);
        check_equiv_brute_force(
            ab,
            ba,
            &[
                p("/packages"),
                m,
                p("/usr"),
                libf,
                p("/usr/vim"),
                p("/usr/git"),
            ],
            &[marker_content],
        )
        .expect("shared blocks really commute");
        // A file resource clobbering the shared file is NOT excused.
        let clobber = Expr::create_file(libf, Content::intern("mine"));
        assert!(!commutes(&accesses(pkg_a), &accesses(clobber)));
    }

    /// The soundness property behind Lemma 4, validated by brute force on a
    /// gallery of expression pairs: whenever the analysis says two
    /// expressions commute, they are semantically equivalent in both
    /// orders.
    #[test]
    fn commute_verdicts_are_sound() {
        let c1 = Content::intern("one");
        let c2 = Content::intern("two");
        let gallery = vec![
            Expr::create_file(p("/a/f"), c1),
            Expr::create_file(p("/a/g"), c2),
            ensure_dir(p("/a")),
            ensure_dir(p("/a")).seq(ensure_dir(p("/a/sub"))),
            Expr::rm(p("/a")),
            Expr::if_(Pred::is_file(p("/a/f")), Expr::rm(p("/a/f")), Expr::SKIP),
            Expr::cp(p("/a/f"), p("/b")),
            Expr::mkdir(p("/c")),
            Expr::if_(Pred::is_empty_dir(p("/a")), Expr::SKIP, Expr::ERROR),
            Expr::chmod(p("/a/f"), Content::intern("0600")),
            Expr::chown(p("/b"), Content::intern("root")),
            Expr::if_(
                Pred::meta_is(
                    p("/a/g"),
                    rehearsal_fs::MetaField::Owner,
                    Content::intern("root"),
                ),
                Expr::SKIP,
                Expr::ERROR,
            ),
        ];
        let paths = [p("/a"), p("/a/f"), p("/a/g"), p("/a/sub"), p("/b"), p("/c")];
        for (i, &e1) in gallery.iter().enumerate() {
            for &e2 in gallery.iter().skip(i + 1) {
                if commutes(&accesses(e1), &accesses(e2)) {
                    let ab = e1.seq(e2);
                    let ba = e2.seq(e1);
                    check_equiv_brute_force(ab, ba, &paths, &[c1]).unwrap_or_else(|cex| {
                        panic!(
                            "analysis claims {e1} and {e2} commute, \
                                 but they differ on {cex}"
                        )
                    });
                }
            }
        }
    }
}
