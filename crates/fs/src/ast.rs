//! The FS language (paper fig. 5): a loop-free imperative language of
//! filesystem operations.
//!
//! Expressions denote partial functions from filesystems to filesystems;
//! predicates denote filesystem observations. Resources compiled from Puppet
//! manifests are FS programs, and all of Rehearsal's analyses operate on
//! this language.
//!
//! # Representation
//!
//! [`Pred`] and [`Expr`] are `Copy`-able handles into the process-global
//! hash-consing arena of [`crate::arena`]: structurally identical trees are
//! interned once and get the same handle, so `==` on handles is O(1)
//! structural equality and subtree facts ([`Expr::paths`], [`Expr::size`],
//! …) are memoized per node. Inspect structure through [`Pred::node`] /
//! [`Expr::node`], which return the [`PredNode`] / [`ExprNode`] one level
//! deep with child *handles* in place of the old boxed subtrees.

use crate::arena;
use crate::meta::MetaField;
use crate::path::{Content, FsPath};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A handle to a hash-consed predicate over filesystem states (paper
/// fig. 5).
///
/// Handles are `Copy` and equality on them is O(1) *structural* equality:
/// two predicates built the same way are the same handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PredId(u32);

/// The canonical name for [`PredId`] used throughout the codebase.
pub type Pred = PredId;

/// A handle to a hash-consed FS expression (paper fig. 5).
///
/// Handles are `Copy` and equality on them is O(1) structural equality.
///
/// # Examples
///
/// ```
/// use rehearsal_fs::{Expr, FsPath, Content, Pred};
/// let vimrc = FsPath::parse("/home/carol/.vimrc")?;
/// let e = Expr::if_(
///     Pred::is_dir(vimrc.parent().unwrap()),
///     Expr::create_file(vimrc, Content::intern("syntax on")),
///     Expr::ERROR,
/// );
/// assert!(e.paths().contains(&vimrc));
/// # Ok::<(), rehearsal_fs::ParsePathError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExprId(u32);

/// The canonical name for [`ExprId`] used throughout the codebase.
pub type Expr = ExprId;

/// One level of predicate structure, with child handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredNode {
    /// Always true.
    True,
    /// Always false.
    False,
    /// `none?(p)` — the path does not exist.
    DoesNotExist(FsPath),
    /// `file?(p)` — the path is a regular file.
    IsFile(FsPath),
    /// `dir?(p)` — the path is a directory.
    IsDir(FsPath),
    /// `emptydir?(p)` — the path is a directory with no children.
    IsEmptyDir(FsPath),
    /// `meta_is(p, field, v)` — the path exists and its metadata `field`
    /// is managed to exactly `v`. False when the path is absent or the
    /// field is unmanaged.
    MetaIs(FsPath, MetaField, Content),
    /// Conjunction.
    And(Pred, Pred),
    /// Disjunction.
    Or(Pred, Pred),
    /// Negation.
    Not(Pred),
}

/// One level of expression structure, with child handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExprNode {
    /// `id` — no-op.
    Skip,
    /// `err` — halt with an error.
    Error,
    /// `mkdir(p)` — create a directory; the parent must be a directory and
    /// `p` must not exist.
    Mkdir(FsPath),
    /// `creat(p, c)` — create a file with content `c`; the parent must be a
    /// directory and `p` must not exist.
    CreateFile(FsPath, Content),
    /// `rm(p)` — remove a file or empty directory.
    Rm(FsPath),
    /// `cp(src, dst)` — copy file `src` to `dst`; `src` must be a file, the
    /// parent of `dst` must be a directory, and `dst` must not exist.
    /// The destination's metadata starts [`Unmanaged`](crate::MetaValue),
    /// like any freshly created path.
    Cp(FsPath, FsPath),
    /// `chmeta(p, field, v)` — manage one metadata field of an existing
    /// path (the `chown`/`chgrp`/`chmod` family); `p` must exist.
    ChMeta(FsPath, MetaField, Content),
    /// Sequencing.
    Seq(Expr, Expr),
    /// Conditional.
    If(Pred, Expr, Expr),
}

impl PredId {
    /// The constant `true` predicate.
    pub const TRUE: Pred = PredId(0);
    /// The constant `false` predicate.
    pub const FALSE: Pred = PredId(1);

    /// Interns a node verbatim, *without* smart-constructor folding.
    ///
    /// Structurally identical nodes always intern to equal handles. Prefer
    /// the smart constructors ([`PredId::and`], [`PredId::or`],
    /// [`PredId::not`]); raw interning exists for tests and for callers
    /// that must keep a specific shape.
    pub fn intern(node: PredNode) -> Pred {
        PredId(arena::intern_pred(node))
    }

    /// `none?(p)`.
    pub fn does_not_exist(p: FsPath) -> Pred {
        Pred::intern(PredNode::DoesNotExist(p))
    }

    /// `file?(p)`.
    pub fn is_file(p: FsPath) -> Pred {
        Pred::intern(PredNode::IsFile(p))
    }

    /// `dir?(p)`.
    pub fn is_dir(p: FsPath) -> Pred {
        Pred::intern(PredNode::IsDir(p))
    }

    /// `emptydir?(p)`.
    pub fn is_empty_dir(p: FsPath) -> Pred {
        Pred::intern(PredNode::IsEmptyDir(p))
    }

    /// `meta_is(p, field, v)` — `p` exists and `field` is managed to `v`.
    pub fn meta_is(p: FsPath, field: MetaField, v: Content) -> Pred {
        Pred::intern(PredNode::MetaIs(p, field, v))
    }

    /// Conjunction with constant folding.
    pub fn and(self, other: Pred) -> Pred {
        match (self, other) {
            (Pred::TRUE, p) | (p, Pred::TRUE) => p,
            (Pred::FALSE, _) | (_, Pred::FALSE) => Pred::FALSE,
            (a, b) => Pred::intern(PredNode::And(a, b)),
        }
    }

    /// Disjunction with constant folding.
    pub fn or(self, other: Pred) -> Pred {
        match (self, other) {
            (Pred::FALSE, p) | (p, Pred::FALSE) => p,
            (Pred::TRUE, _) | (_, Pred::TRUE) => Pred::TRUE,
            (a, b) => Pred::intern(PredNode::Or(a, b)),
        }
    }

    /// Negation with constant folding and double-negation elimination.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Pred {
        match self.node() {
            PredNode::True => Pred::FALSE,
            PredNode::False => Pred::TRUE,
            PredNode::Not(inner) => inner,
            _ => Pred::intern(PredNode::Not(self)),
        }
    }

    /// The node this handle denotes, one level deep.
    pub fn node(self) -> PredNode {
        arena::pred_node(self.0)
    }

    /// All paths mentioned by this predicate (memoized and shared: repeated
    /// calls on the same node return the same allocation).
    pub fn paths(self) -> Arc<BTreeSet<FsPath>> {
        arena::pred_paths(self.0)
    }

    /// Number of AST nodes (memoized).
    pub fn size(self) -> usize {
        arena::pred_size(self.0) as usize
    }

    /// The raw arena id (stable for the process lifetime; encodes the
    /// owning shard in its low bits, so ids are not dense).
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for PredId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node() {
            PredNode::True => write!(f, "true"),
            PredNode::False => write!(f, "false"),
            PredNode::DoesNotExist(p) => write!(f, "none?({p})"),
            PredNode::IsFile(p) => write!(f, "file?({p})"),
            PredNode::IsDir(p) => write!(f, "dir?({p})"),
            PredNode::IsEmptyDir(p) => write!(f, "emptydir?({p})"),
            PredNode::MetaIs(p, field, v) => {
                write!(f, "{field}?({p}, {:?})", v.as_string())
            }
            PredNode::And(a, b) => write!(f, "({a} ∧ {b})"),
            PredNode::Or(a, b) => write!(f, "({a} ∨ {b})"),
            PredNode::Not(a) => write!(f, "¬{a}"),
        }
    }
}

impl ExprId {
    /// The no-op `id`.
    pub const SKIP: Expr = ExprId(0);
    /// The failing program `err`.
    pub const ERROR: Expr = ExprId(1);

    /// Interns a node verbatim, *without* smart-constructor folding (see
    /// [`PredId::intern`]).
    pub fn intern(node: ExprNode) -> Expr {
        ExprId(arena::intern_expr(node))
    }

    /// `mkdir(p)`.
    pub fn mkdir(p: FsPath) -> Expr {
        Expr::intern(ExprNode::Mkdir(p))
    }

    /// `creat(p, c)`.
    pub fn create_file(p: FsPath, c: Content) -> Expr {
        Expr::intern(ExprNode::CreateFile(p, c))
    }

    /// `rm(p)`.
    pub fn rm(p: FsPath) -> Expr {
        Expr::intern(ExprNode::Rm(p))
    }

    /// `cp(src, dst)`.
    pub fn cp(src: FsPath, dst: FsPath) -> Expr {
        Expr::intern(ExprNode::Cp(src, dst))
    }

    /// `chown(p, owner)` — manage the owner of an existing path.
    pub fn chown(p: FsPath, owner: Content) -> Expr {
        Expr::intern(ExprNode::ChMeta(p, MetaField::Owner, owner))
    }

    /// `chgrp(p, group)` — manage the group of an existing path.
    pub fn chgrp(p: FsPath, group: Content) -> Expr {
        Expr::intern(ExprNode::ChMeta(p, MetaField::Group, group))
    }

    /// `chmod(p, mode)` — manage the mode of an existing path.
    pub fn chmod(p: FsPath, mode: Content) -> Expr {
        Expr::intern(ExprNode::ChMeta(p, MetaField::Mode, mode))
    }

    /// `chmeta(p, field, v)` — the generic form of
    /// [`chown`](Expr::chown)/[`chgrp`](Expr::chgrp)/[`chmod`](Expr::chmod).
    pub fn chmeta(p: FsPath, field: MetaField, v: Content) -> Expr {
        Expr::intern(ExprNode::ChMeta(p, field, v))
    }

    /// Sequencing with unit and error short-circuiting.
    pub fn seq(self, other: Expr) -> Expr {
        match (self, other) {
            (Expr::SKIP, e) | (e, Expr::SKIP) => e,
            (Expr::ERROR, _) => Expr::ERROR,
            (a, b) => Expr::intern(ExprNode::Seq(a, b)),
        }
    }

    /// Sequences an iterator of expressions.
    pub fn seq_all(es: impl IntoIterator<Item = Expr>) -> Expr {
        es.into_iter().fold(Expr::SKIP, Expr::seq)
    }

    /// Conditional with constant folding of the guard.
    pub fn if_(pred: Pred, then_: Expr, else_: Expr) -> Expr {
        match pred {
            Pred::TRUE => then_,
            Pred::FALSE => else_,
            p => {
                if then_ == else_ {
                    then_
                } else {
                    Expr::intern(ExprNode::If(p, then_, else_))
                }
            }
        }
    }

    /// `if (pred) then_ else id` (the paper's shorthand).
    pub fn if_then(pred: Pred, then_: Expr) -> Expr {
        Expr::if_(pred, then_, Expr::SKIP)
    }

    /// The node this handle denotes, one level deep.
    pub fn node(self) -> ExprNode {
        arena::expr_node(self.0)
    }

    /// All paths that appear in the program text, including guard
    /// predicates (memoized and shared across callers).
    pub fn paths(self) -> Arc<BTreeSet<FsPath>> {
        arena::expr_paths(self.0)
    }

    /// The path set [`ExprId::paths`] would return, if some caller has
    /// already computed it; `None` otherwise. Unlike `paths`, this never
    /// computes a set, so it leaves no per-node sets behind on trees that
    /// are about to be discarded (see the arena's lifecycle notes).
    pub fn known_paths(self) -> Option<Arc<BTreeSet<FsPath>>> {
        arena::known_expr_paths(self.0)
    }

    /// All file contents that appear in the program text (memoized).
    pub fn contents(self) -> Arc<BTreeSet<Content>> {
        arena::expr_contents(self.0)
    }

    /// Number of AST nodes (memoized).
    pub fn size(self) -> usize {
        arena::expr_size(self.0) as usize
    }

    /// The raw arena id (stable for the process lifetime; encodes the
    /// owning shard in its low bits, so ids are not dense).
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ExprId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node() {
            ExprNode::Skip => write!(f, "id"),
            ExprNode::Error => write!(f, "err"),
            ExprNode::Mkdir(p) => write!(f, "mkdir({p})"),
            ExprNode::CreateFile(p, c) => write!(f, "creat({p}, {:?})", c.as_string()),
            ExprNode::Rm(p) => write!(f, "rm({p})"),
            ExprNode::Cp(p1, p2) => write!(f, "cp({p1}, {p2})"),
            ExprNode::ChMeta(p, field, v) => {
                let op = match field {
                    MetaField::Owner => "chown",
                    MetaField::Group => "chgrp",
                    MetaField::Mode => "chmod",
                };
                write!(f, "{op}({p}, {:?})", v.as_string())
            }
            ExprNode::Seq(a, b) => write!(f, "{a}; {b}"),
            ExprNode::If(p, a, b) => {
                if b == Expr::SKIP {
                    write!(f, "if ({p}) {{{a}}}")
                } else {
                    write!(f, "if ({p}) {{{a}}} else {{{b}}}")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> FsPath {
        FsPath::parse(s).unwrap()
    }

    #[test]
    fn smart_seq() {
        let e = Expr::mkdir(p("/a"));
        assert_eq!(Expr::SKIP.seq(e), e);
        assert_eq!(e.seq(Expr::SKIP), e);
        assert_eq!(Expr::ERROR.seq(e), Expr::ERROR);
        let s = e.seq(Expr::rm(p("/b")));
        assert!(matches!(s.node(), ExprNode::Seq(_, _)));
    }

    #[test]
    fn smart_if() {
        let e = Expr::mkdir(p("/a"));
        assert_eq!(Expr::if_(Pred::TRUE, e, Expr::ERROR), e);
        assert_eq!(Expr::if_(Pred::FALSE, e, Expr::ERROR), Expr::ERROR);
        assert_eq!(
            Expr::if_(Pred::is_dir(p("/x")), e, e),
            e,
            "identical branches collapse"
        );
    }

    #[test]
    fn pred_folding() {
        assert_eq!(Pred::TRUE.and(Pred::is_dir(p("/a"))), Pred::is_dir(p("/a")));
        assert_eq!(Pred::FALSE.and(Pred::is_dir(p("/a"))), Pred::FALSE);
        assert_eq!(Pred::FALSE.or(Pred::is_dir(p("/a"))), Pred::is_dir(p("/a")));
        assert_eq!(Pred::is_dir(p("/a")).not().not(), Pred::is_dir(p("/a")));
    }

    #[test]
    fn hash_consing_shares_nodes() {
        let a = Expr::mkdir(p("/hc/a"));
        let b = Expr::mkdir(p("/hc/a"));
        assert_eq!(a, b, "identical leaves intern to the same handle");
        let s1 = a.seq(Expr::rm(p("/hc/b")));
        let s2 = b.seq(Expr::rm(p("/hc/b")));
        assert_eq!(s1, s2, "identical trees intern to the same handle");
        let raw = Expr::intern(ExprNode::Seq(a, Expr::rm(p("/hc/b"))));
        assert_eq!(raw, s1, "raw interning of the same shape agrees");
    }

    #[test]
    fn paths_collected() {
        let e = Expr::cp(p("/src"), p("/dst")).seq(Expr::if_then(
            Pred::is_file(p("/marker")),
            Expr::rm(p("/src")),
        ));
        let paths = e.paths();
        assert!(paths.contains(&p("/src")));
        assert!(paths.contains(&p("/dst")));
        assert!(paths.contains(&p("/marker")));
        assert_eq!(paths.len(), 3);
        // Memoized: the same shared set comes back.
        assert!(Arc::ptr_eq(&paths, &e.paths()));
    }

    #[test]
    fn contents_collected() {
        let c1 = Content::intern("a");
        let c2 = Content::intern("b");
        let e = Expr::create_file(p("/x"), c1).seq(Expr::create_file(p("/y"), c2));
        let cs = e.contents();
        assert!(cs.contains(&c1) && cs.contains(&c2));
    }

    #[test]
    fn sizes_are_memoized_consistently() {
        let a = Expr::mkdir(p("/sz/a"));
        let b = Expr::rm(p("/sz/b"));
        let s = Expr::intern(ExprNode::Seq(a, b));
        assert_eq!(s.size(), 1 + a.size() + b.size());
        let g = Expr::if_(Pred::is_dir(p("/sz/a")), a, b);
        assert_eq!(g.size(), 1 + 1 + a.size() + b.size());
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::if_then(Pred::is_dir(p("/a")), Expr::mkdir(p("/a/b")));
        assert_eq!(e.to_string(), "if (dir?(/a)) {mkdir(/a/b)}");
    }

    #[test]
    fn seq_all_folds() {
        let es = vec![Expr::SKIP, Expr::mkdir(p("/a")), Expr::SKIP];
        assert_eq!(Expr::seq_all(es), Expr::mkdir(p("/a")));
    }
}
