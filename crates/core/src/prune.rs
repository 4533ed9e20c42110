//! Shrinking resources (paper §4.4, fig. 10): eliminate writes to paths
//! that only one resource definitively writes and nothing else observes.
//!
//! Two pieces:
//!
//! * [`definitive_writes`] — the abstract interpretation of fig. 10b. We
//!   implement the figure literally: a conditional joins its branches
//!   pointwise, with `⊥ ⊔ v = v`. The untouched branch of an idempotent
//!   check-then-act resource therefore does not destroy definitiveness,
//!   which matches the paper's reading of its own resource models ("a
//!   resource that writes to p typically ensures that p is either placed in
//!   a definite state or signals an error").
//! * [`prune_path`] — the partial evaluator `P⟦·⟧` of fig. 10a: replaces
//!   writes to the pruned path with their (residual) preconditions and
//!   resolves subsequent reads against the tracked state.
//!
//! [`prune_graph`] combines them with the §4.4 side conditions: a path is
//! pruned only when exactly one resource definitively writes it, no other
//! resource touches it, and no resource observes it through the emptiness
//! of its parent directory. Pruned paths become *read-only*, which the
//! encoder exploits with a single variable per path.
//!
//! Like the access summaries, definitive-write maps depend only on
//! structure and are memoized process-wide by hash-consed id. Pruning
//! interns a whole new owner tree per pruned path, and all but the last
//! of those trees are thrown away, so nothing here computes per-node
//! path sets on a rewritten tree: the arena would keep them forever (see
//! [`rehearsal_fs::ExprId::known_paths`]).

use crate::commutativity::accesses;
use crate::determinism::FsGraph;
use crate::memo::ExprMemo;
use rehearsal_fs::{Content, Expr, ExprNode, FsPath, Pred, PredNode};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Abstract values of fig. 10b: `⊥ ⊏ dir, file(c), dne ⊏ ⊤`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefValue {
    /// Untouched.
    Bot,
    /// Definitively a directory.
    Dir,
    /// Definitively a file with this content.
    File(Content),
    /// Definitively absent.
    Dne,
    /// Indeterminate.
    Top,
}

impl DefValue {
    fn join(self, other: DefValue) -> DefValue {
        use DefValue::*;
        match (self, other) {
            (Bot, x) | (x, Bot) => x,
            (a, b) if a == b => a,
            _ => Top,
        }
    }

    /// Whether the value is a definite write (`⊏ ⊤` and not `⊥`).
    pub fn is_definitive(self) -> bool {
        matches!(self, DefValue::Dir | DefValue::File(_) | DefValue::Dne)
    }
}

fn dw(e: Expr, state: &mut BTreeMap<FsPath, DefValue>) {
    match e.node() {
        ExprNode::Skip | ExprNode::Error => {}
        ExprNode::Mkdir(p) => {
            state.insert(p, DefValue::Dir);
        }
        ExprNode::CreateFile(p, c) => {
            state.insert(p, DefValue::File(c));
        }
        ExprNode::Rm(p) => {
            state.insert(p, DefValue::Dne);
        }
        ExprNode::Cp(_, dst) => {
            state.insert(dst, DefValue::Top);
        }
        ExprNode::ChMeta(p, _, _) => {
            // The path's existence/content is untouched but its metadata
            // changed: the final state is not one of the fig. 10b points,
            // so it is indeterminate — which also keeps metadata-managed
            // paths out of the pruning candidate set.
            state.insert(p, DefValue::Top);
        }
        ExprNode::Seq(a, b) => {
            dw(a, state);
            dw(b, state);
        }
        ExprNode::If(_, a, b) => {
            let mut sa = state.clone();
            let mut sb = state.clone();
            dw(a, &mut sa);
            dw(b, &mut sb);
            let keys: BTreeSet<FsPath> = sa.keys().chain(sb.keys()).copied().collect();
            for p in keys {
                let va = sa.get(&p).copied().unwrap_or(DefValue::Bot);
                let vb = sb.get(&p).copied().unwrap_or(DefValue::Bot);
                state.insert(p, va.join(vb));
            }
        }
    }
}

type DefMap = BTreeMap<FsPath, DefValue>;

/// The definitive-write map of an expression (fig. 10b), memoized
/// process-wide by hash-consed id.
pub fn definitive_writes(e: Expr) -> Arc<DefMap> {
    static MEMO: ExprMemo<DefMap> = ExprMemo::new(
        "memo.definitive_writes.hits",
        "memo.definitive_writes.misses",
    );
    MEMO.get_or_compute(e, || {
        let mut state = BTreeMap::new();
        dw(e, &mut state);
        state
    })
}

/// What we know about the pruned path's current state during partial
/// evaluation: either still the (unknown) initial value, possibly narrowed
/// by guards, or exactly the value of an eliminated write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Track {
    /// Initial value; the set records which of {dne, file, dir} remain
    /// possible.
    Initial { dne: bool, file: bool, dir: bool },
    /// A pruned write placed the path in this exact state.
    Written(WrittenState),
    /// Control-flow merged a written and an unwritten branch; any later
    /// operation that consults the path aborts pruning.
    Ambiguous,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WrittenState {
    Dir,
    File,
    Dne,
}

/// Truth of a simple predicate about the pruned path under the tracked
/// state: `Some(b)` if decided, `None` if it must residualize.
fn decide(track: Track, wants: WrittenState) -> Option<bool> {
    match track {
        Track::Ambiguous => None,
        Track::Written(w) => Some(w == wants),
        Track::Initial { dne, file, dir } => {
            let (this, others) = match wants {
                WrittenState::Dne => (dne, file || dir),
                WrittenState::File => (file, dne || dir),
                WrittenState::Dir => (dir, dne || file),
            };
            if !this {
                Some(false)
            } else if !others {
                Some(true)
            } else {
                None
            }
        }
    }
}

/// Residual precondition for a write assuming the path check passed:
/// the non-`p` part of the precondition (e.g. `dir?(parent)`).
fn parent_dir_pred(p: FsPath) -> Pred {
    match p.parent() {
        Some(parent) if parent != FsPath::root() => Pred::is_dir(parent),
        _ => Pred::TRUE, // the root always exists as a directory
    }
}

/// Partially evaluates predicates with respect to the pruned path.
/// Returns `Err(())` when the predicate observes `p` in a way we cannot
/// residualize (`emptydir?` of `p` itself after a write).
fn prune_pred(pred: Pred, p: FsPath, track: Track) -> Result<Pred, ()> {
    match pred.node() {
        PredNode::True | PredNode::False => Ok(pred),
        PredNode::DoesNotExist(q) if q == p => {
            if track == Track::Ambiguous {
                return Err(());
            }
            match decide(track, WrittenState::Dne) {
                Some(true) => Ok(Pred::TRUE),
                Some(false) => Ok(Pred::FALSE),
                None => Ok(pred), // reads the initial value
            }
        }
        PredNode::IsFile(q) if q == p => {
            if track == Track::Ambiguous {
                return Err(());
            }
            match decide(track, WrittenState::File) {
                Some(true) => Ok(Pred::TRUE),
                Some(false) => Ok(Pred::FALSE),
                None => Ok(pred),
            }
        }
        PredNode::IsDir(q) if q == p => {
            if track == Track::Ambiguous {
                return Err(());
            }
            match decide(track, WrittenState::Dir) {
                Some(true) => Ok(Pred::TRUE),
                Some(false) => Ok(Pred::FALSE),
                None => Ok(pred),
            }
        }
        PredNode::IsEmptyDir(q) if q == p => {
            if track == Track::Ambiguous {
                return Err(());
            }
            // Emptiness depends on children we are not tracking; only safe
            // when we can decide p is not a directory at all.
            match decide(track, WrittenState::Dir) {
                Some(false) => Ok(Pred::FALSE),
                _ => match track {
                    Track::Initial { .. } => Ok(pred),
                    Track::Written(_) | Track::Ambiguous => Err(()),
                },
            }
        }
        PredNode::MetaIs(q, _, _) if q == p => {
            // Metadata of the pruned path cannot be residualized.
            Err(())
        }
        PredNode::DoesNotExist(_)
        | PredNode::IsFile(_)
        | PredNode::IsDir(_)
        | PredNode::IsEmptyDir(_)
        | PredNode::MetaIs(_, _, _) => Ok(pred),
        PredNode::And(a, b) => Ok(prune_pred(a, p, track)?.and(prune_pred(b, p, track)?)),
        PredNode::Or(a, b) => Ok(prune_pred(a, p, track)?.or(prune_pred(b, p, track)?)),
        PredNode::Not(a) => Ok(prune_pred(a, p, track)?.not()),
    }
}

/// Refines the tracked initial-value set by a guard known to be true
/// (`polarity = true`) or false.
fn refine(track: Track, pred: Pred, p: FsPath, polarity: bool) -> Track {
    let Track::Initial { dne, file, dir } = track else {
        return track;
    };
    match pred.node() {
        PredNode::DoesNotExist(q) if q == p => {
            if polarity {
                Track::Initial {
                    dne,
                    file: false,
                    dir: false,
                }
            } else {
                Track::Initial {
                    dne: false,
                    file,
                    dir,
                }
            }
        }
        PredNode::IsFile(q) if q == p => {
            if polarity {
                Track::Initial {
                    dne: false,
                    file,
                    dir: false,
                }
            } else {
                Track::Initial {
                    dne,
                    file: false,
                    dir,
                }
            }
        }
        PredNode::IsDir(q) if q == p => {
            if polarity {
                Track::Initial {
                    dne: false,
                    file: false,
                    dir,
                }
            } else {
                Track::Initial {
                    dne,
                    file,
                    dir: false,
                }
            }
        }
        PredNode::Not(inner) => refine(track, inner, p, !polarity),
        _ => track,
    }
}

fn prune_rec(e: Expr, p: FsPath, track: Track) -> Result<(Expr, Track), ()> {
    match e.node() {
        ExprNode::Skip | ExprNode::Error => Ok((e, track)),
        ExprNode::Mkdir(q) if q == p => {
            if track == Track::Ambiguous {
                return Err(());
            }
            let pre_self = match decide(track, WrittenState::Dne) {
                Some(true) => Pred::TRUE,
                Some(false) => Pred::FALSE,
                None => Pred::does_not_exist(p),
            };
            let pre = pre_self.and(parent_dir_pred(p));
            Ok((
                Expr::if_(pre, Expr::SKIP, Expr::ERROR),
                Track::Written(WrittenState::Dir),
            ))
        }
        ExprNode::CreateFile(q, _) if q == p => {
            if track == Track::Ambiguous {
                return Err(());
            }
            let pre_self = match decide(track, WrittenState::Dne) {
                Some(true) => Pred::TRUE,
                Some(false) => Pred::FALSE,
                None => Pred::does_not_exist(p),
            };
            let pre = pre_self.and(parent_dir_pred(p));
            Ok((
                Expr::if_(pre, Expr::SKIP, Expr::ERROR),
                Track::Written(WrittenState::File),
            ))
        }
        ExprNode::Rm(q) if q == p => {
            if track == Track::Ambiguous {
                return Err(());
            }
            // Only safe when the path is certainly a file here (emptiness
            // of a directory depends on untracked children).
            let pre = match decide(track, WrittenState::File) {
                Some(true) => Pred::TRUE,
                _ => match track {
                    Track::Initial { dir: false, .. } => {
                        // file or dne: rm succeeds iff it is a file.
                        match decide(track, WrittenState::Dne) {
                            Some(false) => Pred::TRUE,
                            _ => Pred::is_file(p),
                        }
                    }
                    _ => return Err(()),
                },
            };
            Ok((
                Expr::if_(pre, Expr::SKIP, Expr::ERROR),
                Track::Written(WrittenState::Dne),
            ))
        }
        ExprNode::Mkdir(q) | ExprNode::CreateFile(q, _) if q.parent() == Some(p) => {
            // The operation implicitly reads `dir?(p)`. Before any pruned
            // write this is the initial value (consistent with the
            // read-only encoding); after a pruned write it would read a
            // stale value, so pruning must be abandoned.
            match track {
                Track::Initial { .. } => Ok((e, track)),
                _ => Err(()),
            }
        }
        ExprNode::Mkdir(_) | ExprNode::CreateFile(_, _) | ExprNode::Rm(_) => Ok((e, track)),
        ExprNode::ChMeta(q, _, _) => {
            if q == p {
                // A metadata write to the pruned path cannot be replaced
                // by a precondition (the metadata itself is the effect).
                return Err(());
            }
            Ok((e, track))
        }
        ExprNode::Cp(src, dst) => {
            if src == p || dst == p {
                // Copying content to or from the pruned path cannot be
                // residualized.
                return Err(());
            }
            if dst.parent() == Some(p) && !matches!(track, Track::Initial { .. }) {
                return Err(());
            }
            Ok((e, track))
        }
        ExprNode::Seq(a, b) => {
            let (ea, ta) = prune_rec(a, p, track)?;
            let (eb, tb) = prune_rec(b, p, ta)?;
            Ok((ea.seq(eb), tb))
        }
        ExprNode::If(pred, then_, else_) => {
            let residual_pred = prune_pred(pred, p, track)?;
            match residual_pred {
                Pred::TRUE => prune_rec(then_, p, refine(track, pred, p, true)),
                Pred::FALSE => prune_rec(else_, p, refine(track, pred, p, false)),
                rp => {
                    let (et, tt) = prune_rec(then_, p, refine(track, pred, p, true))?;
                    let (ee, te) = prune_rec(else_, p, refine(track, pred, p, false))?;
                    // A branch that halts with err contributes no state.
                    let track_out = if et == Expr::ERROR {
                        te
                    } else if ee == Expr::ERROR || tt == te {
                        tt
                    } else {
                        // Branches disagree about p's state: safe to carry
                        // on, but any later operation that consults p will
                        // abort pruning.
                        Track::Ambiguous
                    };
                    Ok((Expr::if_(rp, et, ee), track_out))
                }
            }
        }
    }
}

/// `prune(p, e)` (fig. 10a): eliminates writes to `p`, preserving `e`'s
/// error behavior and its effect on all other paths. Returns `None` when
/// the expression uses `p` in a shape the partial evaluator cannot handle
/// (e.g. `cp` through `p`); callers simply skip pruning that path.
pub fn prune_path(e: Expr, p: FsPath) -> Option<Expr> {
    prune_path_with(e, p, writes_path)
}

/// [`prune_path`] with the final "no write to `p` survives" check
/// supplied by the caller (tests pass a reference implementation).
fn prune_path_with(e: Expr, p: FsPath, writes: fn(Expr, FsPath) -> bool) -> Option<Expr> {
    let initial = Track::Initial {
        dne: true,
        file: true,
        dir: true,
    };
    let (out, _) = prune_rec(e, p, initial).ok()?;
    // Defensive: no write to p may survive.
    if writes(out, p) {
        return None;
    }
    Some(out)
}

fn writes_path(e: Expr, p: FsPath) -> bool {
    // Cheap pre-filter via a per-node path set that already exists: if
    // `p` is not mentioned at all, it is certainly not written. `e` is
    // usually a freshly pruned tree that the next pruned path replaces,
    // so computing sets here would pin one on each of its new nodes for
    // the life of the process; without a set, the walk decides.
    if e.known_paths().is_some_and(|paths| !paths.contains(&p)) {
        return false;
    }
    match e.node() {
        ExprNode::Skip | ExprNode::Error => false,
        ExprNode::Mkdir(q) | ExprNode::CreateFile(q, _) | ExprNode::Rm(q) => q == p,
        ExprNode::ChMeta(q, _, _) => q == p,
        ExprNode::Cp(_, dst) => dst == p,
        ExprNode::Seq(a, b) => writes_path(a, p) || writes_path(b, p),
        ExprNode::If(_, a, b) => writes_path(a, p) || writes_path(b, p),
    }
}

/// Applies pruning across a graph (paper §4.4): for every path definitively
/// written by exactly one resource, untouched by all others, and not
/// observed through its parent's emptiness, rewrite the owner and mark the
/// path read-only.
///
/// Returns the pruned graph and the set of read-only paths.
pub fn prune_graph(graph: &FsGraph) -> (FsGraph, BTreeSet<FsPath>) {
    prune_graph_with(graph, writes_path)
}

fn prune_graph_with(
    graph: &FsGraph,
    writes: fn(Expr, FsPath) -> bool,
) -> (FsGraph, BTreeSet<FsPath>) {
    let defs: Vec<Arc<DefMap>> = graph.exprs.iter().map(|&e| definitive_writes(e)).collect();
    let summaries: Vec<_> = graph.exprs.iter().map(|&e| accesses(e)).collect();

    // Candidate paths → owning resource.
    let mut candidates: BTreeMap<FsPath, usize> = BTreeMap::new();
    for (i, d) in defs.iter().enumerate() {
        for (&p, &v) in d.iter() {
            if v.is_definitive() {
                candidates.entry(p).or_insert(i);
            }
        }
    }
    let mut out = graph.clone();
    let mut read_only = BTreeSet::new();
    'paths: for (&p, &owner) in &candidates {
        if p == FsPath::root() {
            continue;
        }
        // Definitively written by exactly one resource; untouched by all
        // others; parent emptiness unobserved by anyone (including the
        // owner, conservatively).
        for (j, d) in defs.iter().enumerate() {
            if j != owner && d.get(&p).copied().unwrap_or(DefValue::Bot) != DefValue::Bot {
                continue 'paths;
            }
        }
        for (j, s) in summaries.iter().enumerate() {
            if j != owner && s.access(p) != crate::commutativity::Access::Bot {
                continue 'paths;
            }
            if let Some(parent) = p.parent() {
                if s.observed_dirs().contains(&parent) {
                    continue 'paths;
                }
            }
            if s.observed_dirs().contains(&p) && j != owner {
                continue 'paths;
            }
        }
        match prune_path_with(out.exprs[owner], p, writes) {
            Some(rewritten) => {
                out.exprs[owner] = rewritten;
                read_only.insert(p);
            }
            None => continue,
        }
    }
    (out, read_only)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rehearsal_fs::{check_equiv_brute_force, eval, FileState, FileSystem};

    fn p(s: &str) -> FsPath {
        FsPath::parse(s).unwrap()
    }

    fn overwrite(path: FsPath, c: Content) -> Expr {
        Expr::if_(
            Pred::does_not_exist(path),
            Expr::create_file(path, c),
            Expr::if_(
                Pred::is_file(path),
                Expr::rm(path).seq(Expr::create_file(path, c)),
                Expr::ERROR,
            ),
        )
    }

    fn ensure_dir(path: FsPath) -> Expr {
        Expr::if_then(Pred::is_dir(path).not(), Expr::mkdir(path))
    }

    #[test]
    fn definitive_writes_basic() {
        let c = Content::intern("x");
        let e = Expr::create_file(p("/f"), c);
        assert_eq!(definitive_writes(e)[&p("/f")], DefValue::File(c));
        let e2 = Expr::mkdir(p("/d"));
        assert_eq!(definitive_writes(e2)[&p("/d")], DefValue::Dir);
        let e3 = Expr::rm(p("/f"));
        assert_eq!(definitive_writes(e3)[&p("/f")], DefValue::Dne);
    }

    #[test]
    fn definitive_writes_are_memoized() {
        let e = overwrite(p("/dwmemo"), Content::intern("v"));
        assert!(Arc::ptr_eq(&definitive_writes(e), &definitive_writes(e)));
    }

    #[test]
    fn branches_that_agree_stay_definitive() {
        let c = Content::intern("x");
        let e = Expr::if_(
            Pred::is_file(p("/q")),
            Expr::create_file(p("/f"), c),
            Expr::create_file(p("/f"), c),
        );
        assert_eq!(definitive_writes(e)[&p("/f")], DefValue::File(c));
    }

    #[test]
    fn branches_that_disagree_are_top() {
        let e = Expr::if_(
            Pred::is_file(p("/q")),
            Expr::create_file(p("/f"), Content::intern("a")),
            Expr::create_file(p("/f"), Content::intern("b")),
        );
        assert_eq!(definitive_writes(e)[&p("/f")], DefValue::Top);
    }

    #[test]
    fn idempotent_guard_is_definitive_per_fig10b() {
        // The literal fig. 10b join: untouched else-branch does not destroy
        // definitiveness.
        let e = ensure_dir(p("/d"));
        assert_eq!(definitive_writes(e)[&p("/d")], DefValue::Dir);
        let c = Content::intern("v");
        let o = overwrite(p("/f"), c);
        assert_eq!(definitive_writes(o)[&p("/f")], DefValue::File(c));
    }

    #[test]
    fn sequencing_takes_last_write() {
        let c = Content::intern("x");
        let e = Expr::create_file(p("/f"), c).seq(Expr::rm(p("/f")));
        assert_eq!(definitive_writes(e)[&p("/f")], DefValue::Dne);
    }

    #[test]
    fn cp_destination_is_top() {
        let e = Expr::cp(p("/a"), p("/b"));
        assert_eq!(definitive_writes(e)[&p("/b")], DefValue::Top);
    }

    /// The paper's central pruning equivalence (shown in §4.4):
    /// `mkdir(p); if (dir?(p)) id else err  ≡  mkdir(p)` must survive
    /// pruning as `≡`, while naive write deletion would break it.
    #[test]
    fn prune_preserves_guarded_reads() {
        let d = p("/d");
        let e1 = Expr::mkdir(d).seq(Expr::if_(Pred::is_dir(d), Expr::SKIP, Expr::ERROR));
        let e2 = Expr::mkdir(d);
        let p1 = prune_path(e1, d).expect("prunable");
        let p2 = prune_path(e2, d).expect("prunable");
        // Both residuals behave identically on every state (they only check
        // the precondition).
        check_equiv_brute_force(p1, p2, &[d], &[]).expect("pruned forms equivalent");
        assert!(!writes_path(p1, d));
    }

    #[test]
    fn prune_overwrite_residual_matches_error_behavior() {
        let f = p("/x/f");
        let c = Content::intern("v");
        let e = overwrite(f, c);
        let pruned = prune_path(e, f).expect("prunable");
        // The residual errs exactly when the original errs.
        let c2 = Content::intern("other");
        let states = [
            FileSystem::with_root().set(p("/x"), FileState::DIR),
            FileSystem::with_root()
                .set(p("/x"), FileState::DIR)
                .set(f, FileState::file(c2)),
            FileSystem::with_root()
                .set(p("/x"), FileState::DIR)
                .set(f, FileState::DIR),
            FileSystem::with_root(), // /x missing
        ];
        for fs in &states {
            assert_eq!(
                eval(e, fs).is_ok(),
                eval(pruned, fs).is_ok(),
                "error behavior must be preserved on {fs}"
            );
        }
    }

    #[test]
    fn prune_rejects_cp() {
        let e = Expr::cp(p("/src"), p("/dst"));
        assert!(prune_path(e, p("/dst")).is_none());
        assert!(prune_path(e, p("/src")).is_none());
    }

    #[test]
    fn prune_package_install_block() {
        // if (none?(m)) { ensure_dir(/usr); creat(/usr/f); creat(m) }
        // else if (file?(m)) id else err — pruning /usr/f keeps the rest.
        let m = p("/packages/pkg");
        let f = p("/usr/f");
        let c = Content::intern("pkg:f");
        let body = ensure_dir(p("/usr"))
            .seq(Expr::create_file(f, c))
            .seq(Expr::create_file(m, Content::intern("marker")));
        let e = Expr::if_(
            Pred::does_not_exist(m),
            body,
            Expr::if_(Pred::is_file(m), Expr::SKIP, Expr::ERROR),
        );
        let pruned = prune_path(e, f).expect("prunable");
        assert!(!writes_path(pruned, f));
        // The marker and /usr writes are untouched.
        assert!(writes_path(pruned, m));
        assert!(writes_path(pruned, p("/usr")));
    }

    #[test]
    fn prune_graph_respects_ownership() {
        let c = Content::intern("mine");
        let f = p("/only/f");
        let shared = p("/shared");
        let e1 = ensure_dir(p("/only"))
            .seq(Expr::create_file(f, c))
            .seq(overwrite(shared, Content::intern("a")));
        let e2 = overwrite(shared, Content::intern("b"));
        let g = FsGraph::new(
            vec![e1, e2],
            BTreeSet::new(),
            vec!["r0".into(), "r1".into()],
        );
        let (pruned, ro) = prune_graph(&g);
        assert!(ro.contains(&f), "/only/f has one owner and no observers");
        assert!(!ro.contains(&shared), "shared path written by both");
        assert!(!writes_path(pruned.exprs[0], f));
        assert!(writes_path(pruned.exprs[0], shared));
    }

    /// The path-set pre-filter `writes_path` used before it stopped
    /// forcing sets on fresh trees: the reference the pruned graphs are
    /// compared against.
    fn writes_path_forcing_sets(e: Expr, p: FsPath) -> bool {
        if !e.paths().contains(&p) {
            return false;
        }
        match e.node() {
            ExprNode::Skip | ExprNode::Error => false,
            ExprNode::Mkdir(q) | ExprNode::CreateFile(q, _) | ExprNode::Rm(q) => q == p,
            ExprNode::ChMeta(q, _, _) => q == p,
            ExprNode::Cp(_, dst) => dst == p,
            ExprNode::Seq(a, b) | ExprNode::If(_, a, b) => {
                writes_path_forcing_sets(a, p) || writes_path_forcing_sets(b, p)
            }
        }
    }

    #[test]
    fn pruning_leaves_no_path_set_on_the_rewritten_tree() {
        // Paths unique to this test, so no other test can have interned
        // (and computed sets for) the rewritten nodes first.
        let f = p("/prune-known-paths/f");
        let m = p("/prune-known-paths/marker");
        let e = ensure_dir(p("/prune-known-paths"))
            .seq(overwrite(f, Content::intern("known-paths")))
            .seq(Expr::create_file(m, Content::intern("known-paths-marker")));
        assert!(e.paths().contains(&f));
        assert!(e.known_paths().is_some(), "the input's sets are known");
        let pruned = prune_path(e, f).expect("prunable");
        assert_ne!(pruned, e);
        assert_eq!(
            pruned.known_paths(),
            None,
            "pruning computed a path set on the throwaway tree"
        );
        assert!(!writes_path(pruned, f));
        assert_eq!(pruned.known_paths(), None, "nor did the write check");
    }

    /// Every pinned manifest (the 19 bundled ones and the 6 metadata
    /// ones, the latter under the metadata model), lowered.
    fn pinned_graphs() -> Vec<(String, FsGraph)> {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut graphs = Vec::new();
        for (dir, model_metadata) in [("benchmarks", false), ("benchmarks-metadata", true)] {
            let mut files: Vec<_> = std::fs::read_dir(root.join(dir))
                .unwrap()
                .map(|entry| entry.unwrap().path())
                .filter(|path| path.extension().is_some_and(|x| x == "pp"))
                .collect();
            files.sort();
            for file in files {
                let source = std::fs::read_to_string(&file).unwrap();
                let options = crate::AnalysisOptions {
                    model_metadata,
                    ..crate::AnalysisOptions::default()
                };
                let (graph, _) = crate::Rehearsal::new(rehearsal_pkgdb::Platform::Ubuntu)
                    .with_options(options)
                    .lower_source(&source)
                    .unwrap();
                graphs.push((file.display().to_string(), graph));
            }
        }
        graphs
    }

    #[test]
    fn prune_graph_matches_the_set_forcing_reference_on_pinned_manifests() {
        let graphs = pinned_graphs();
        assert_eq!(graphs.len(), 25);
        let mut pruned_somewhere = false;
        for (name, graph) in &graphs {
            // The new check first, so it cannot lean on sets the
            // reference computes.
            let (pruned, read_only) = prune_graph(graph);
            let (expected, expected_read_only) = prune_graph_with(graph, writes_path_forcing_sets);
            assert_eq!(read_only, expected_read_only, "{name}: read-only set");
            assert_eq!(pruned.exprs, expected.exprs, "{name}: pruned handles");
            pruned_somewhere |= !read_only.is_empty();
        }
        assert!(pruned_somewhere, "the suite exercises pruning");
    }

    #[test]
    fn prune_graph_blocks_parent_observers() {
        // r0 creates /d/f; r1 removes /d (observes /d's children).
        let f = p("/d/f");
        let e1 = Expr::create_file(f, Content::intern("x"));
        let e2 = Expr::rm(p("/d"));
        let g = FsGraph::new(
            vec![e1, e2],
            BTreeSet::new(),
            vec!["r0".into(), "r1".into()],
        );
        let (_, ro) = prune_graph(&g);
        assert!(!ro.contains(&f), "emptiness of /d is observed by r1");
    }
}
