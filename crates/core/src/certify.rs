//! Solver-free idempotence certificates.
//!
//! [`certify_idempotent`] proves `e; e ≡ e` with two abstract runs of `e`
//! and no solver. It either proves the equivalence or abstains; it never
//! refutes it. Every `NotIdempotent` verdict and every counterexample
//! still comes from the SAT query in [`crate::idempotence`], which runs
//! whenever the certificate abstains.
//!
//! # Abstract states
//!
//! An abstract state maps paths to abstract values. A value is a
//! non-empty set of kinds drawn from {absent, dir, file}; when it admits
//! files it also says whether every such file holds one content `c`
//! (`file(c)`) or any content (`file(any)`). A path with no entry is
//! unconstrained (⊤), except that a path whose nearest recorded ancestor
//! cannot be a directory is absent. The root starts as a directory.
//!
//! The concretization `γ(S)` is the set of tree-consistent filesystems
//! (the root is a directory, and a path exists only under a directory)
//! that agree with every path's value in `S`. These are the initial states
//! the SAT encoding ranges over, so a proof here is a proof there.
//!
//! Refinement keeps the tree rule: a path that certainly exists makes its
//! ancestors directories, and a path that cannot be a directory makes its
//! recorded descendants absent. A refinement that leaves some path with
//! no kind at all is a contradiction: no concrete state reaches that
//! point (⊥).
//!
//! # Pass 1: the post-state
//!
//! Run `e` from ⊤. A decided guard picks its branch. An undecided guard
//! runs both branches, each refined by the guard or by its negation, and
//! joins the results pointwise; only the paths a branch wrote are joined,
//! found through an undo journal, so a branch costs what it touches and
//! not the size of the state. Each operation refines the state by its
//! precondition (for `mkdir(p)`: the parent is a directory and `p` is
//! absent) and then writes its effect. A successful `rm(p)` removes a file
//! or an empty directory, so every recorded descendant of `p` is absent
//! too. `err` and contradictions give ⊥. The result `Post` satisfies:
//! for every tree-consistent `σ`, if `e(σ)` succeeds then `e(σ) ∈ γ(Post)`.
//! If `Post` is ⊥, `e` errors on every state, and `e; e` errors exactly
//! when `e` does, so `e` is idempotent.
//!
//! # Pass 2: the fixed point
//!
//! Run `e` again from `Post`, now requiring that every guard and every
//! precondition is decided (and holds), that `rm` only removes a path that
//! is certainly a file, and that every path written ends on a single
//! concrete value (absent, dir or `file(c)`) equal to its value in `Post`.
//! Otherwise the certificate abstains.
//!
//! # Soundness
//!
//! Take any `s′ ∈ γ(Post)`. Every guard pass 2 met was decided on all of
//! `γ`, so the concrete run of `e` on `s′` takes the same branches and
//! meets every precondition; it changes only the paths pass 2 wrote, and
//! leaves each on its singleton value in `Post`, which is `s′`'s value
//! there. So `e(s′) = s′` in kinds and contents.
//!
//! Metadata agrees too. The certificate abstains on every `chmeta` and
//! `meta_is`, so `e` never sets metadata, and every path it creates starts
//! unmanaged. Pass 2 cannot write a path that is a directory in `Post`
//! (`mkdir`, `creat` and `cp` need it absent, `rm` needs a file), and an
//! absent path has no metadata. A path that ends as `file(c)` in `Post` was
//! created by every successful run of `e`: no guard or precondition reads
//! contents, so a run that left it untouched would leave any other content
//! just as well from a variant of the same initial state, and `Post` would
//! admit that content. So it is unmanaged in `s′` as in `e(s′)`.
//!
//! Now let `σ` be tree-consistent. If `e(σ)` errors, so does `e(e(σ))`.
//! Otherwise `s′ = e(σ) ∈ γ(Post)` and `e(s′) = s′`. Hence `e; e = e`.
//!
//! # Cost
//!
//! The certificate is pure: it interns nothing, keeps no process-global
//! memo, and never asks for [`Expr::paths`], which would pin path sets in
//! the arena. `Seq` spines are walked with an explicit stack (package
//! resources sequence more than a thousand steps), so only nested
//! undecided conditionals recurse.

use rehearsal_fs::{Content, Expr, ExprNode, FsPath, Pred, PredNode};
use std::collections::{HashMap, HashSet};

const ABSENT: u8 = 1;
const DIR: u8 = 2;
const FILE: u8 = 4;
const ANY: u8 = ABSENT | DIR | FILE;

/// Proves `e; e ≡ e` without a solver, or abstains.
///
/// Returns `true` only when `e` is idempotent on every tree-consistent
/// filesystem (see the module docs). `false` means the certificate does
/// not know, not that `e` is non-idempotent.
///
/// # Examples
///
/// ```
/// use rehearsal_core::certify::certify_idempotent;
/// use rehearsal_fs::{Expr, FsPath, Pred};
/// let a = FsPath::parse("/a")?;
/// assert!(certify_idempotent(Expr::if_then(Pred::is_dir(a).not(), Expr::mkdir(a))));
/// assert!(!certify_idempotent(Expr::mkdir(a)), "abstains; SAT refutes it");
/// # Ok::<(), rehearsal_fs::ParsePathError>(())
/// ```
pub fn certify_idempotent(e: Expr) -> bool {
    let mut run = Run::new();
    match run.exec(e) {
        Err(Abstain) => false,
        Ok(false) => true,
        Ok(true) => {
            let post = run.vals.clone();
            run.fixed = true;
            matches!(run.exec(e), Ok(true))
                && run.written.iter().all(|&p| {
                    let end = lookup(&run.vals, p);
                    end.is_singleton() && end == lookup(&post, p)
                })
        }
    }
}

/// The certificate gives up; the SAT query decides.
struct Abstain;

/// `Ok(false)`: no successful run gets past this point (⊥).
type Step = Result<bool, Abstain>;

/// One path's abstract value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Val {
    kinds: u8,
    /// The content of every file this value admits; `None` is any content.
    /// Always `None` when `kinds` has no `FILE`.
    content: Option<Content>,
}

impl Val {
    const TOP: Val = Val {
        kinds: ANY,
        content: None,
    };
    const ABSENT: Val = Val {
        kinds: ABSENT,
        content: None,
    };
    const DIR: Val = Val {
        kinds: DIR,
        content: None,
    };

    fn file(content: Option<Content>) -> Val {
        Val {
            kinds: FILE,
            content,
        }
    }

    fn with_kinds(self, kinds: u8) -> Val {
        Val {
            kinds,
            content: self.content.filter(|_| kinds & FILE != 0),
        }
    }

    fn join(self, other: Val) -> Val {
        let content = match (self.kinds & FILE != 0, other.kinds & FILE != 0) {
            (true, true) => self.content.filter(|_| self.content == other.content),
            (true, false) => self.content,
            (false, true) => other.content,
            (false, false) => None,
        };
        Val {
            kinds: self.kinds | other.kinds,
            content,
        }
    }

    /// Whether this value admits exactly one concrete path state.
    fn is_singleton(self) -> bool {
        match self.kinds {
            ABSENT | DIR => true,
            FILE => self.content.is_some(),
            _ => false,
        }
    }

    /// Whether the path is certainly (`Some(true)`) or certainly not
    /// (`Some(false)`) of `kind`.
    fn test(self, kind: u8) -> Option<bool> {
        if self.kinds == kind {
            Some(true)
        } else if self.kinds & kind == 0 {
            Some(false)
        } else {
            None
        }
    }
}

/// A path's value in `vals`: its entry, else absent under a recorded
/// ancestor that cannot be a directory, else ⊤.
fn lookup(vals: &HashMap<FsPath, Val>, p: FsPath) -> Val {
    if let Some(&v) = vals.get(&p) {
        return v;
    }
    let mut cur = p;
    while let Some(parent) = cur.parent() {
        if let Some(v) = vals.get(&parent) {
            return if v.kinds & DIR == 0 {
                Val::ABSENT
            } else {
                Val::TOP
            };
        }
        cur = parent;
    }
    Val::TOP
}

/// One abstract run of an expression (pass 1, then pass 2 on the same
/// state).
struct Run {
    vals: HashMap<FsPath, Val>,
    /// Recorded paths by parent (append-only; an undone entry stays
    /// listed and reads as its derived value).
    kids: HashMap<FsPath, Vec<FsPath>>,
    indexed: HashSet<FsPath>,
    /// Old entries of every path written inside an undecided branch.
    journal: Vec<(FsPath, Option<Val>)>,
    /// Nesting of undecided branches; writes are journaled only inside one.
    depth: usize,
    /// Pass 2: everything must be decided, and writes are recorded.
    fixed: bool,
    written: Vec<FsPath>,
}

impl Run {
    fn new() -> Run {
        let root = FsPath::root();
        Run {
            vals: HashMap::from([(root, Val::DIR)]),
            kids: HashMap::new(),
            indexed: HashSet::from([root]),
            journal: Vec::new(),
            depth: 0,
            fixed: false,
            written: Vec::new(),
        }
    }

    fn get(&self, p: FsPath) -> Val {
        lookup(&self.vals, p)
    }

    fn set(&mut self, p: FsPath, v: Val) {
        let old = self.vals.insert(p, v);
        if self.depth > 0 {
            self.journal.push((p, old));
        }
        if old.is_none() {
            let mut cur = p;
            while self.indexed.insert(cur) {
                let Some(parent) = cur.parent() else { break };
                self.kids.entry(parent).or_default().push(cur);
                cur = parent;
            }
        }
    }

    fn undo(&mut self, mark: usize) {
        while self.journal.len() > mark {
            let (p, old) = self.journal.pop().expect("journal above mark");
            match old {
                Some(v) => self.vals.insert(p, v),
                None => self.vals.remove(&p),
            };
        }
    }

    /// Restricts `p` to the kinds in `mask`, keeping the tree rule;
    /// `false` on a contradiction.
    fn meet(&mut self, p: FsPath, mask: u8) -> bool {
        let v = self.get(p);
        let kinds = v.kinds & mask;
        if kinds == 0 {
            return false;
        }
        if kinds == v.kinds {
            return true;
        }
        self.set(p, v.with_kinds(kinds));
        if kinds & ABSENT == 0 && !self.dirs_above(p) {
            return false;
        }
        if v.kinds & DIR != 0 && kinds & DIR == 0 {
            return self.absent_below(p);
        }
        true
    }

    /// Makes every ancestor of an existing `p` a directory.
    fn dirs_above(&mut self, p: FsPath) -> bool {
        let mut cur = p;
        while let Some(parent) = cur.parent() {
            let v = self.get(parent);
            if v.kinds == DIR {
                return true;
            }
            if v.kinds & DIR == 0 {
                return false;
            }
            self.set(parent, Val::DIR);
            cur = parent;
        }
        true
    }

    /// Makes every recorded descendant of `p` absent.
    fn absent_below(&mut self, p: FsPath) -> bool {
        let mut todo = self.kids.get(&p).cloned().unwrap_or_default();
        while let Some(c) = todo.pop() {
            match self.vals.get(&c) {
                Some(v) if v.kinds & ABSENT == 0 => return false,
                Some(&Val::ABSENT) => {}
                _ => self.set(c, Val::ABSENT),
            }
            if let Some(grand) = self.kids.get(&c) {
                todo.extend(grand.iter().copied());
            }
        }
        true
    }

    fn has_child(&self, p: FsPath) -> bool {
        self.kids.get(&p).is_some_and(|kids| {
            kids.iter()
                .any(|c| self.vals.get(c).is_some_and(|v| v.kinds & ABSENT == 0))
        })
    }

    /// The guard's value on every state of `γ`, or `None` if it varies.
    fn eval(&self, g: Pred) -> Result<Option<bool>, Abstain> {
        Ok(match g.node() {
            PredNode::True => Some(true),
            PredNode::False => Some(false),
            PredNode::DoesNotExist(p) => self.get(p).test(ABSENT),
            PredNode::IsFile(p) => self.get(p).test(FILE),
            PredNode::IsDir(p) => self.get(p).test(DIR),
            PredNode::IsEmptyDir(p) => {
                let v = self.get(p);
                (v.kinds & DIR == 0 || (v.kinds == DIR && self.has_child(p))).then_some(false)
            }
            PredNode::MetaIs(..) => return Err(Abstain),
            PredNode::Not(a) => self.eval(a)?.map(|b| !b),
            PredNode::And(a, b) => match self.eval(a)? {
                Some(false) => Some(false),
                Some(true) => self.eval(b)?,
                None => (self.eval(b)? == Some(false)).then_some(false),
            },
            PredNode::Or(a, b) => match self.eval(a)? {
                Some(true) => Some(true),
                Some(false) => self.eval(b)?,
                None => (self.eval(b)? == Some(true)).then_some(true),
            },
        })
    }

    /// Refines the state by `g == holds`; `Ok(false)` on a contradiction.
    fn refine(&mut self, g: Pred, holds: bool) -> Step {
        Ok(match g.node() {
            PredNode::True => holds,
            PredNode::False => !holds,
            PredNode::DoesNotExist(p) => self.meet(p, if holds { ABSENT } else { DIR | FILE }),
            PredNode::IsFile(p) => self.meet(p, if holds { FILE } else { ABSENT | DIR }),
            PredNode::IsDir(p) => self.meet(p, if holds { DIR } else { ABSENT | FILE }),
            PredNode::IsEmptyDir(p) => {
                // Not being an empty directory does not narrow any one path.
                !holds || (self.meet(p, DIR) && self.absent_below(p))
            }
            PredNode::MetaIs(..) => return Err(Abstain),
            PredNode::Not(a) => self.refine(a, !holds)?,
            PredNode::And(a, b) if holds => self.refine(a, true)? && self.refine(b, true)?,
            PredNode::Or(a, b) if !holds => self.refine(a, false)? && self.refine(b, false)?,
            PredNode::And(a, b) | PredNode::Or(a, b) => {
                // One operand must equal `holds`; narrow only when the
                // other is already ruled out.
                match (self.eval(a)?, self.eval(b)?) {
                    (Some(va), _) if va != holds => self.refine(b, holds)?,
                    (_, Some(vb)) if vb != holds => self.refine(a, holds)?,
                    _ => true,
                }
            }
        })
    }

    /// Runs `e`: the post-state run (pass 1), or the fixed-point run
    /// (pass 2) when `self.fixed`.
    fn exec(&mut self, e: Expr) -> Step {
        let mut todo = vec![e];
        while let Some(e) = todo.pop() {
            let reached = match e.node() {
                ExprNode::Skip => true,
                ExprNode::Error => self.fail()?,
                ExprNode::Seq(a, b) => {
                    todo.push(b);
                    todo.push(a);
                    true
                }
                ExprNode::If(g, then_, else_) => match self.eval(g)? {
                    Some(true) => {
                        todo.push(then_);
                        true
                    }
                    Some(false) => {
                        todo.push(else_);
                        true
                    }
                    None if self.fixed => return Err(Abstain),
                    None => self.branch(g, then_, else_)?,
                },
                ExprNode::Mkdir(p) => self.create(p, Val::DIR)?,
                ExprNode::CreateFile(p, c) => self.create(p, Val::file(Some(c)))?,
                ExprNode::Cp(src, dst) => {
                    self.require(src, FILE)? && {
                        let copy = Val::file(self.get(src).content);
                        self.create(dst, copy)?
                    }
                }
                ExprNode::Rm(p) => self.remove(p)?,
                ExprNode::ChMeta(..) => return Err(Abstain),
            };
            if !reached {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Runs both arms of an undecided conditional and joins them.
    fn branch(&mut self, g: Pred, then_: Expr, else_: Expr) -> Step {
        let mark = self.journal.len();
        self.depth += 1;
        let then_reached = self.refine(g, true)? && self.exec(then_)?;
        let then_vals: HashMap<FsPath, Val> = if then_reached {
            self.journal[mark..]
                .iter()
                .map(|&(p, _)| (p, self.vals[&p]))
                .collect()
        } else {
            HashMap::new()
        };
        self.undo(mark);
        let else_reached = self.refine(g, false)? && self.exec(else_)?;
        self.depth -= 1;
        match (then_reached, else_reached) {
            (false, false) => Ok(false),
            (false, true) => Ok(true),
            (true, false) => {
                self.undo(mark);
                for (p, v) in then_vals {
                    self.set(p, v);
                }
                Ok(true)
            }
            (true, true) => {
                // Each arm's value of a path the other arm wrote is its
                // entry, or ⊤ where it has none (⊤ covers any derived
                // value).
                let mut before: HashMap<FsPath, Option<Val>> = HashMap::new();
                for &(p, old) in &self.journal[mark..] {
                    before.entry(p).or_insert(old);
                }
                for (&p, &then_v) in &then_vals {
                    let else_v = self.vals.get(&p).copied().unwrap_or(Val::TOP);
                    self.set(p, then_v.join(else_v));
                }
                for (p, old) in before {
                    if !then_vals.contains_key(&p) {
                        let else_v = self.vals[&p];
                        self.set(p, old.unwrap_or(Val::TOP).join(else_v));
                    }
                }
                Ok(true)
            }
        }
    }

    fn fail(&self) -> Step {
        if self.fixed {
            Err(Abstain)
        } else {
            Ok(false)
        }
    }

    /// A precondition: pass 1 refines by it, pass 2 needs it decided.
    fn require(&mut self, p: FsPath, mask: u8) -> Step {
        if self.fixed && self.get(p).kinds & !mask != 0 {
            return Err(Abstain);
        }
        Ok(self.meet(p, mask))
    }

    /// `mkdir`, `creat` and the write half of `cp`.
    fn create(&mut self, p: FsPath, v: Val) -> Step {
        let Some(parent) = p.parent() else {
            return self.fail();
        };
        if !(self.require(parent, DIR)? && self.require(p, ABSENT)?) {
            return Ok(false);
        }
        self.write(p, v);
        Ok(true)
    }

    fn remove(&mut self, p: FsPath) -> Step {
        if p == FsPath::root() {
            // `rm(/)` succeeds on an empty root; not worth modelling.
            return Err(Abstain);
        }
        if self.fixed {
            if self.get(p).kinds != FILE {
                return Err(Abstain);
            }
        } else if !(self.meet(p, DIR | FILE) && self.absent_below(p)) {
            return Ok(false);
        }
        self.write(p, Val::ABSENT);
        Ok(true)
    }

    fn write(&mut self, p: FsPath, v: Val) {
        self.set(p, v);
        if self.fixed {
            self.written.push(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rehearsal_fs::{MetaField, Pred};

    fn p(s: &str) -> FsPath {
        FsPath::parse(s).unwrap()
    }

    fn c(s: &str) -> Content {
        Content::intern(s)
    }

    fn ensure_dir(path: &str) -> Expr {
        Expr::if_then(Pred::is_dir(p(path)).not(), Expr::mkdir(p(path)))
    }

    fn overwrite(path: &str, content: &str) -> Expr {
        let (f, c) = (p(path), c(content));
        Expr::if_(
            Pred::does_not_exist(f),
            Expr::create_file(f, c),
            Expr::if_(
                Pred::is_file(f),
                Expr::rm(f).seq(Expr::create_file(f, c)),
                Expr::ERROR,
            ),
        )
    }

    fn remove_file(path: &str) -> Expr {
        let f = p(path);
        Expr::if_(
            Pred::is_file(f),
            Expr::rm(f),
            Expr::if_(Pred::does_not_exist(f), Expr::SKIP, Expr::ERROR),
        )
    }

    #[test]
    fn resource_idioms_are_certified() {
        assert!(certify_idempotent(Expr::SKIP));
        assert!(certify_idempotent(ensure_dir("/a")));
        assert!(certify_idempotent(overwrite("/f", "v")));
        assert!(certify_idempotent(remove_file("/f")));
        let nested = ensure_dir("/d")
            .seq(ensure_dir("/d/e"))
            .seq(overwrite("/d/e/f", "x"))
            .seq(remove_file("/d/g"));
        assert!(certify_idempotent(nested));
    }

    #[test]
    fn raw_operations_abstain() {
        assert!(!certify_idempotent(Expr::mkdir(p("/a"))));
        assert!(!certify_idempotent(Expr::create_file(p("/a"), c("x"))));
        assert!(!certify_idempotent(Expr::rm(p("/a"))));
    }

    #[test]
    fn always_erroring_expressions_are_certified() {
        assert!(certify_idempotent(Expr::ERROR));
        let e = Expr::create_file(p("/b"), c("x")).seq(Expr::ERROR);
        assert!(certify_idempotent(e));
        // Contradictory guards leave no successful run either.
        let a = p("/a");
        let e = Expr::if_(
            Pred::is_dir(a).and(Pred::is_file(a)),
            Expr::SKIP,
            Expr::ERROR,
        );
        assert!(certify_idempotent(e));
    }

    #[test]
    fn overwrites_are_certified_and_flips_abstain() {
        let e = overwrite("/f", "a").seq(overwrite("/f", "b"));
        assert!(certify_idempotent(e), "ends on b either way");
        let flip = Expr::if_(
            Pred::does_not_exist(p("/f")),
            Expr::create_file(p("/f"), c("a")),
            Expr::rm(p("/f")),
        );
        assert!(!certify_idempotent(flip), "creates, then removes");
    }

    #[test]
    fn copy_then_delete_abstains() {
        // Paper fig. 3d: deterministic but not idempotent.
        let copy = Expr::if_(
            Pred::does_not_exist(p("/dst")),
            Expr::cp(p("/src"), p("/dst")),
            Expr::if_(
                Pred::is_file(p("/dst")),
                Expr::rm(p("/dst")).seq(Expr::cp(p("/src"), p("/dst"))),
                Expr::ERROR,
            ),
        );
        assert!(!certify_idempotent(copy.seq(remove_file("/src"))));
    }

    #[test]
    fn removing_an_empty_directory_is_not_an_error() {
        // From an empty /a, `rm(/a)` succeeds and the else arm recreates
        // it, so the second run removes it again: /a flips. Treating the
        // rm of a directory as an error would hide the first arm.
        let a = p("/a");
        let e = Expr::if_(Pred::is_dir(a), Expr::rm(a), Expr::mkdir(a));
        assert!(!certify_idempotent(e));
    }

    #[test]
    fn metadata_abstains() {
        let f = p("/f");
        let chown = overwrite("/f", "x").seq(Expr::chown(f, c("root")));
        assert!(!certify_idempotent(chown));
        let guard = Expr::if_then(
            Pred::meta_is(f, MetaField::Mode, c("0644")).not(),
            Expr::chmod(f, c("0644")),
        );
        assert!(!certify_idempotent(guard));
    }

    #[test]
    fn deep_sequences_run_on_a_small_stack() {
        let e = Expr::seq_all((0..5000).map(|i| overwrite(&format!("/deep{i}"), "x")));
        let certified = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || certify_idempotent(e))
            .unwrap()
            .join()
            .unwrap();
        assert!(certified);
    }
}
