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
//! * [`prune_paths`] — the partial evaluator `P⟦·⟧` of fig. 10a,
//!   generalised from one path to a set: one walk of the owner carries a
//!   `Track` per pruned path, replaces every write to a pruned path with
//!   its (residual) precondition and resolves later reads against the
//!   tracked state. A path the walk cannot residualize leaves the set and
//!   the owner is walked again without it.
//!
//! [`prune_graph`] combines them with the §4.4 side conditions: a path is
//! pruned only when exactly one resource definitively writes it, no other
//! resource touches it, and no resource observes it through the emptiness
//! of its parent directory. Candidates are filtered through one inverted
//! index from each path to the resources that access it, and each owner
//! is rewritten by one [`prune_paths`] call for all of its candidates.
//! Pruned paths become *read-only*, which the encoder exploits with a
//! single variable per path.
//!
//! Like the access summaries, definitive-write maps depend only on
//! structure and are memoized process-wide by hash-consed id. The
//! rewritten owner is interned once per walk, and a walk is repeated only
//! when a path drops out of the set, so nothing here computes per-node
//! path sets on a rewritten tree: the arena would keep them for the life
//! of the process (see [`rehearsal_fs::ExprId::known_paths`]).

use crate::commutativity::accesses;
use crate::determinism::FsGraph;
use crate::memo::ExprMemo;
use rehearsal_fs::{Content, Expr, ExprNode, FsPath, Pred, PredNode};
use std::collections::{BTreeMap, BTreeSet, HashMap};
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

/// The fig. 10b interpretation as one walk over a mutable map, with an
/// undo journal so a conditional costs what its branches write rather
/// than a copy of the whole map per branch.
#[derive(Default)]
struct DefWalk {
    state: DefMap,
    /// `(path, previous value)` for every change, newest last.
    journal: Vec<(FsPath, Option<DefValue>)>,
}

impl DefWalk {
    fn set(&mut self, p: FsPath, v: DefValue) {
        let previous = self.state.insert(p, v);
        if previous != Some(v) {
            self.journal.push((p, previous));
        }
    }

    /// The current value of every path changed since `mark`, then undoes
    /// those changes.
    fn take_changes(&mut self, mark: usize) -> Vec<(FsPath, DefValue)> {
        let mut changed: Vec<(FsPath, DefValue)> = self.journal[mark..]
            .iter()
            .map(|&(p, _)| (p, self.state[&p]))
            .collect();
        changed.sort_unstable_by_key(|&(p, _)| p);
        changed.dedup_by_key(|&mut (p, _)| p);
        while self.journal.len() > mark {
            let (p, previous) = self.journal.pop().expect("journal entry");
            match previous {
                Some(v) => self.state.insert(p, v),
                None => self.state.remove(&p),
            };
        }
        changed
    }

    fn walk(&mut self, e: Expr) {
        match e.node() {
            ExprNode::Skip | ExprNode::Error => {}
            ExprNode::Mkdir(p) => self.set(p, DefValue::Dir),
            ExprNode::CreateFile(p, c) => self.set(p, DefValue::File(c)),
            ExprNode::Rm(p) => self.set(p, DefValue::Dne),
            ExprNode::Cp(_, dst) => self.set(dst, DefValue::Top),
            // The path's existence/content is untouched but its metadata
            // changed: the final state is not one of the fig. 10b points,
            // so it is indeterminate — which also keeps metadata-managed
            // paths out of the pruning candidate set.
            ExprNode::ChMeta(p, _, _) => self.set(p, DefValue::Top),
            ExprNode::Seq(a, b) => {
                self.walk(a);
                self.walk(b);
            }
            ExprNode::If(_, a, b) => {
                let mark = self.journal.len();
                self.walk(a);
                let on_a = self.take_changes(mark);
                self.walk(b);
                let on_b = self.take_changes(mark);
                let value_in = |changes: &[(FsPath, DefValue)], p: FsPath, before: DefValue| {
                    changes
                        .binary_search_by_key(&p, |&(q, _)| q)
                        .map_or(before, |k| changes[k].1)
                };
                let mut changed: Vec<FsPath> = on_a.iter().chain(&on_b).map(|&(p, _)| p).collect();
                changed.sort_unstable();
                changed.dedup();
                for p in changed {
                    let before = self.state.get(&p).copied().unwrap_or(DefValue::Bot);
                    let joined = value_in(&on_a, p, before).join(value_in(&on_b, p, before));
                    self.set(p, joined);
                }
            }
        }
    }
}

type DefMap = BTreeMap<FsPath, DefValue>;

/// The definitive-write map of an expression (fig. 10b), memoized
/// process-wide by hash-consed id.
pub fn definitive_writes(e: Expr) -> Arc<DefMap> {
    static MEMO: ExprMemo<Arc<DefMap>> = ExprMemo::new(
        "memo.definitive_writes.hits",
        "memo.definitive_writes.misses",
    );
    MEMO.get_or_compute(e, || {
        let mut walk = DefWalk::default();
        walk.walk(e);
        Arc::new(walk.state)
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

#[cfg(test)]
mod path_fold;

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

/// One walk of [`prune_paths`]: a [`Track`] per pruned path, an undo
/// journal so a conditional's branches cost only the tracks they change,
/// and the paths the walk could not residualize.
struct Walk<'a> {
    /// The pruned paths, sorted.
    paths: &'a [FsPath],
    tracks: Vec<Track>,
    /// `(index, previous track)` for every track change, newest last.
    journal: Vec<(usize, Track)>,
    failed: Vec<bool>,
}

impl Walk<'_> {
    /// The index of `q` if it is pruned and has not failed.
    fn index(&self, q: FsPath) -> Option<usize> {
        let i = self.paths.binary_search(&q).ok()?;
        (!self.failed[i]).then_some(i)
    }

    fn set(&mut self, i: usize, track: Track) {
        if self.tracks[i] != track {
            self.journal.push((i, self.tracks[i]));
            self.tracks[i] = track;
        }
    }

    /// The current track of every path changed since `mark`, then undoes
    /// those changes.
    fn take_changes(&mut self, mark: usize) -> Vec<(usize, Track)> {
        let mut changed: Vec<(usize, Track)> = self.journal[mark..]
            .iter()
            .map(|&(i, _)| (i, self.tracks[i]))
            .collect();
        changed.sort_unstable_by_key(|&(i, _)| i);
        changed.dedup_by_key(|&mut (i, _)| i);
        while self.journal.len() > mark {
            let (i, previous) = self.journal.pop().expect("journal entry");
            self.tracks[i] = previous;
        }
        changed
    }

    /// A pruned write to `q` would be read back through `dir?(q)` by an
    /// operation on a child of `q`: safe only while `q` still holds its
    /// initial value (which the read-only encoding reads), so otherwise
    /// `q` leaves the set.
    fn child_write(&mut self, q: FsPath) {
        if let Some(i) = q.parent().and_then(|parent| self.index(parent)) {
            if !matches!(self.tracks[i], Track::Initial { .. }) {
                self.failed[i] = true;
            }
        }
    }

    /// The index of `q` if it is pruned and its track is not ambiguous;
    /// an ambiguous track fails the path.
    fn consult(&mut self, q: FsPath) -> Option<usize> {
        let i = self.index(q)?;
        if self.tracks[i] == Track::Ambiguous {
            self.failed[i] = true;
            return None;
        }
        Some(i)
    }

    /// Partially evaluates a predicate against the tracked paths.
    fn pred(&mut self, pred: Pred) -> Pred {
        let decided = |answer: Option<bool>| match answer {
            Some(true) => Pred::TRUE,
            Some(false) => Pred::FALSE,
            None => pred, // reads the initial value
        };
        match pred.node() {
            PredNode::True | PredNode::False => pred,
            PredNode::DoesNotExist(q) | PredNode::IsFile(q) | PredNode::IsDir(q) => {
                let Some(i) = self.consult(q) else {
                    return pred;
                };
                let wants = match pred.node() {
                    PredNode::DoesNotExist(_) => WrittenState::Dne,
                    PredNode::IsFile(_) => WrittenState::File,
                    _ => WrittenState::Dir,
                };
                decided(decide(self.tracks[i], wants))
            }
            PredNode::IsEmptyDir(q) => {
                let Some(i) = self.consult(q) else {
                    return pred;
                };
                // Emptiness depends on children we are not tracking; only
                // safe when `q` is certainly not a directory, or still
                // holds its initial value.
                let track = self.tracks[i];
                match decide(track, WrittenState::Dir) {
                    Some(false) => Pred::FALSE,
                    _ if matches!(track, Track::Initial { .. }) => pred,
                    _ => {
                        self.failed[i] = true;
                        pred
                    }
                }
            }
            PredNode::MetaIs(q, _, _) => {
                // Metadata of a pruned path cannot be residualized.
                if let Some(i) = self.index(q) {
                    self.failed[i] = true;
                }
                pred
            }
            PredNode::And(a, b) => self.pred(a).and(self.pred(b)),
            PredNode::Or(a, b) => self.pred(a).or(self.pred(b)),
            PredNode::Not(a) => self.pred(a).not(),
        }
    }

    /// Narrows the track of the path a guard tests, if it is pruned.
    fn refine(&mut self, pred: Pred, polarity: bool) {
        let mut atom = pred;
        while let PredNode::Not(inner) = atom.node() {
            atom = inner;
        }
        let (PredNode::DoesNotExist(q) | PredNode::IsFile(q) | PredNode::IsDir(q)) = atom.node()
        else {
            return;
        };
        if let Some(i) = self.index(q) {
            self.set(i, refine(self.tracks[i], pred, q, polarity));
        }
    }

    /// The residual of a pruned write to `self.paths[i]`, given the
    /// precondition the path itself must meet.
    fn residual(&mut self, i: usize, pre_self: Pred, now: WrittenState) -> Expr {
        self.set(i, Track::Written(now));
        let pre = pre_self.and(parent_dir_pred(self.paths[i]));
        Expr::if_(pre, Expr::SKIP, Expr::ERROR)
    }

    fn expr(&mut self, e: Expr) -> Expr {
        match e.node() {
            ExprNode::Skip | ExprNode::Error => e,
            ExprNode::Mkdir(q) | ExprNode::CreateFile(q, _) => {
                self.child_write(q);
                let Some(i) = self.consult(q) else {
                    return e;
                };
                let pre_self = match decide(self.tracks[i], WrittenState::Dne) {
                    Some(true) => Pred::TRUE,
                    Some(false) => Pred::FALSE,
                    None => Pred::does_not_exist(q),
                };
                let now = match e.node() {
                    ExprNode::Mkdir(_) => WrittenState::Dir,
                    _ => WrittenState::File,
                };
                self.residual(i, pre_self, now)
            }
            ExprNode::Rm(q) => {
                let Some(i) = self.consult(q) else {
                    return e;
                };
                // Only safe when the path is certainly a file or absent
                // here (emptiness of a directory depends on untracked
                // children).
                let track = self.tracks[i];
                let pre_self = match (decide(track, WrittenState::File), track) {
                    (Some(true), _) => Pred::TRUE,
                    (_, Track::Initial { dir: false, .. }) => {
                        match decide(track, WrittenState::Dne) {
                            Some(false) => Pred::TRUE,
                            _ => Pred::is_file(q),
                        }
                    }
                    _ => {
                        self.failed[i] = true;
                        return e;
                    }
                };
                self.set(i, Track::Written(WrittenState::Dne));
                Expr::if_(pre_self, Expr::SKIP, Expr::ERROR)
            }
            ExprNode::ChMeta(q, _, _) => {
                // A metadata write cannot be replaced by a precondition
                // (the metadata itself is the effect).
                if let Some(i) = self.index(q) {
                    self.failed[i] = true;
                }
                e
            }
            ExprNode::Cp(src, dst) => {
                // Copying content to or from a pruned path cannot be
                // residualized.
                for q in [src, dst] {
                    if let Some(i) = self.index(q) {
                        self.failed[i] = true;
                    }
                }
                self.child_write(dst);
                e
            }
            ExprNode::Seq(a, b) => {
                let a = self.expr(a);
                a.seq(self.expr(b))
            }
            ExprNode::If(pred, then_, else_) => match self.pred(pred) {
                Pred::TRUE => {
                    self.refine(pred, true);
                    self.expr(then_)
                }
                Pred::FALSE => {
                    self.refine(pred, false);
                    self.expr(else_)
                }
                residual => {
                    let mark = self.journal.len();
                    self.refine(pred, true);
                    let then_out = self.expr(then_);
                    let then_tracks = self.take_changes(mark);
                    self.refine(pred, false);
                    let else_out = self.expr(else_);
                    let else_tracks = self.take_changes(mark);
                    self.merge(&then_tracks, then_out, &else_tracks, else_out);
                    Expr::if_(residual, then_out, else_out)
                }
            },
        }
    }

    /// Joins the tracks two branches left behind. A branch that halts
    /// with err contributes no state; branches that disagree about a path
    /// leave it ambiguous, so any later operation that consults it fails
    /// the path.
    fn merge(
        &mut self,
        then_tracks: &[(usize, Track)],
        then_out: Expr,
        else_tracks: &[(usize, Track)],
        else_out: Expr,
    ) {
        let track_in = |changes: &[(usize, Track)], i: usize, before: Track| {
            changes
                .binary_search_by_key(&i, |&(j, _)| j)
                .map_or(before, |k| changes[k].1)
        };
        let mut changed: Vec<usize> = then_tracks
            .iter()
            .chain(else_tracks)
            .map(|&(i, _)| i)
            .collect();
        changed.sort_unstable();
        changed.dedup();
        for i in changed {
            let before = self.tracks[i];
            let on_then = track_in(then_tracks, i, before);
            let on_else = track_in(else_tracks, i, before);
            let after = if then_out == Expr::ERROR {
                on_else
            } else if else_out == Expr::ERROR || on_then == on_else {
                on_then
            } else {
                Track::Ambiguous
            };
            self.set(i, after);
        }
    }
}

/// Whether `e` writes any of `paths` (sorted). `e` is a freshly pruned
/// tree, so no path set is computed on it: the walk decides.
fn writes_any(e: Expr, paths: &[FsPath], out: &mut BTreeSet<FsPath>) {
    match e.node() {
        ExprNode::Skip | ExprNode::Error => {}
        ExprNode::Mkdir(q) | ExprNode::CreateFile(q, _) | ExprNode::Rm(q) => {
            if paths.binary_search(&q).is_ok() {
                out.insert(q);
            }
        }
        ExprNode::ChMeta(q, _, _) | ExprNode::Cp(_, q) => {
            if paths.binary_search(&q).is_ok() {
                out.insert(q);
            }
        }
        ExprNode::Seq(a, b) | ExprNode::If(_, a, b) => {
            writes_any(a, paths, out);
            writes_any(b, paths, out);
        }
    }
}

/// `prune(S, e)` (fig. 10a, over a set of paths): eliminates the writes to
/// every path of `set` that `e` allows, preserving `e`'s error behavior
/// and its effect on all other paths, in one walk per round.
///
/// A path the walk cannot residualize (e.g. `cp` through it, or a read
/// after branches disagreed about it) leaves the set, and `e` is walked
/// again without it, since the walk may have decided conditionals on
/// that path's track. Returns the rewritten expression and the paths
/// actually pruned.
pub fn prune_paths(e: Expr, set: &BTreeSet<FsPath>) -> (Expr, BTreeSet<FsPath>) {
    let mut paths: Vec<FsPath> = set.iter().copied().collect();
    while !paths.is_empty() {
        rehearsal_trace::counter_add("prune.walks", 1);
        let initial = Track::Initial {
            dne: true,
            file: true,
            dir: true,
        };
        let mut walk = Walk {
            paths: &paths,
            tracks: vec![initial; paths.len()],
            journal: Vec::new(),
            failed: vec![false; paths.len()],
        };
        let out = walk.expr(e);
        let failed = walk.failed;
        if failed.contains(&true) {
            let mut keep = failed.iter().map(|&f| !f);
            paths.retain(|_| keep.next().expect("one flag per path"));
            continue;
        }
        // Defensive: no write to a pruned path may survive.
        let mut survivors = BTreeSet::new();
        writes_any(out, &paths, &mut survivors);
        if survivors.is_empty() {
            return (out, paths.into_iter().collect());
        }
        paths.retain(|p| !survivors.contains(p));
    }
    (e, BTreeSet::new())
}

/// Applies pruning across a graph (paper §4.4): for every path definitively
/// written by exactly one resource, untouched by all others, and not
/// observed through its parent's emptiness, rewrite the owner and mark the
/// path read-only.
///
/// Returns the pruned graph and the set of read-only paths.
pub fn prune_graph(graph: &FsGraph) -> (FsGraph, BTreeSet<FsPath>) {
    let defs: Vec<Arc<DefMap>> = graph.exprs.iter().map(|&e| definitive_writes(e)).collect();
    let summaries: Vec<_> = graph.exprs.iter().map(|&e| accesses(e)).collect();

    // The inverted index: each path → the resources that write or access
    // it, and → the resources that observe its children.
    let mut touched_by: HashMap<FsPath, Vec<usize>> = HashMap::new();
    let mut children_observed_by: HashMap<FsPath, Vec<usize>> = HashMap::new();
    for (i, (d, s)) in defs.iter().zip(&summaries).enumerate() {
        let written = d
            .iter()
            .filter(|(_, &v)| v != DefValue::Bot)
            .map(|(&p, _)| p);
        let accessed = s
            .touched()
            .filter(|&(_, a)| a != crate::commutativity::Access::Bot)
            .map(|(p, _)| p);
        for p in written.chain(accessed) {
            let by = touched_by.entry(p).or_default();
            if by.last() != Some(&i) {
                by.push(i);
            }
        }
        for &p in s.observed_dirs() {
            children_observed_by.entry(p).or_default().push(i);
        }
    }

    // Candidates: a path the owner definitively writes, untouched by every
    // other resource (so no other writes it either), its own children
    // unobserved by every other, and its parent's emptiness unobserved by
    // anyone (including the owner, conservatively).
    let only =
        |by: Option<&Vec<usize>>, owner: usize| by.is_none_or(|rs| rs.iter().all(|&j| j == owner));
    let mut owned: Vec<BTreeSet<FsPath>> = vec![BTreeSet::new(); graph.exprs.len()];
    for (owner, d) in defs.iter().enumerate() {
        for (&p, &v) in d.iter() {
            if !v.is_definitive() || p == FsPath::root() {
                continue;
            }
            let parent_observed = p
                .parent()
                .is_some_and(|parent| children_observed_by.contains_key(&parent));
            if only(touched_by.get(&p), owner)
                && only(children_observed_by.get(&p), owner)
                && !parent_observed
            {
                owned[owner].insert(p);
            }
        }
    }

    let mut out = graph.clone();
    let mut read_only = BTreeSet::new();
    for (owner, set) in owned.iter().enumerate() {
        if set.is_empty() {
            continue;
        }
        let (rewritten, pruned) = prune_paths(out.exprs[owner], set);
        out.exprs[owner] = rewritten;
        read_only.extend(pruned);
    }
    (out, read_only)
}

#[cfg(test)]
mod tests {
    use super::path_fold::{prune_graph_by_path, prune_path, writes_path};
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
        let (pruned, read_only) = prune_paths(e, &BTreeSet::from([f, m]));
        assert_eq!(read_only, BTreeSet::from([f, m]));
        assert_ne!(pruned, e);
        assert_eq!(
            pruned.known_paths(),
            None,
            "pruning computed a path set on the rewritten tree"
        );
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
    fn prune_graph_matches_the_path_fold_on_pinned_manifests() {
        let graphs = pinned_graphs();
        assert_eq!(graphs.len(), 25);
        let mut pruned_somewhere = false;
        for (name, graph) in &graphs {
            // The set walk first, so it cannot lean on path sets the
            // reference computes.
            let (pruned, read_only) = prune_graph(graph);
            let (expected, expected_read_only) = prune_graph_by_path(graph);
            assert_eq!(read_only, expected_read_only, "{name}: read-only set");
            assert_eq!(pruned.exprs, expected.exprs, "{name}: pruned handles");
            pruned_somewhere |= !read_only.is_empty();
        }
        assert!(pruned_somewhere, "the suite exercises pruning");
    }

    /// A small deterministic generator (splitmix64) for seeded graphs.
    struct Prng(u64);

    impl Prng {
        fn below(&mut self, bound: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound as u64) as usize
        }
    }

    /// One random resource-model idiom over `ps`, sometimes wrapped in a
    /// guard on another path, so owners mix pruned writes, reads after
    /// them, copies and conditionals that branches decide.
    fn random_idiom(rng: &mut Prng, ps: &[FsPath], cs: &[Content]) -> Expr {
        let q = ps[rng.below(ps.len())];
        let c = cs[rng.below(cs.len())];
        let body = match rng.below(9) {
            0 => ensure_dir(q),
            1 => overwrite(q, c),
            2 => Expr::if_(
                Pred::does_not_exist(q),
                Expr::create_file(q, c),
                Expr::if_(Pred::is_file(q), Expr::SKIP, Expr::ERROR),
            ),
            3 => Expr::if_(
                Pred::is_file(q),
                Expr::rm(q),
                Expr::if_(Pred::does_not_exist(q), Expr::SKIP, Expr::ERROR),
            ),
            4 => Expr::mkdir(q),
            5 => Expr::create_file(q, c),
            6 => Expr::rm(q),
            7 => Expr::cp(ps[rng.below(ps.len())], q),
            _ => Expr::if_(Pred::is_dir(q), Expr::SKIP, Expr::ERROR),
        };
        if rng.below(4) == 0 {
            let guard = ps[rng.below(ps.len())];
            Expr::if_(Pred::is_file(guard), body, Expr::SKIP)
        } else {
            body
        }
    }

    /// Seeded graphs of one to three owners, each a sequence of one to
    /// four idioms: the set walk prunes exactly the paths the per-path
    /// fold prunes, into expressions brute force finds equal on every
    /// filesystem over the paths.
    #[test]
    fn prune_graph_matches_the_path_fold_on_random_graphs() {
        let ps: Vec<FsPath> = ["/r", "/r/f", "/r/g", "/s", "/s/h"]
            .iter()
            .map(|s| p(s))
            .collect();
        let cs = [Content::intern("r1"), Content::intern("r2")];
        let mut pruned_paths = 0;
        for seed in 0..400 {
            let mut rng = Prng(seed);
            let n = 1 + rng.below(3);
            let exprs: Vec<Expr> = (0..n)
                .map(|_| {
                    let len = 1 + rng.below(4);
                    Expr::seq_all((0..len).map(|_| random_idiom(&mut rng, &ps, &cs)))
                })
                .collect();
            let names = (0..n).map(|i| format!("r{i}")).collect();
            let g = FsGraph::new(exprs, BTreeSet::new(), names);
            let (pruned, read_only) = prune_graph(&g);
            let (expected, expected_read_only) = prune_graph_by_path(&g);
            assert_eq!(read_only, expected_read_only, "seed {seed}: read-only set");
            for (i, (&got, &want)) in pruned.exprs.iter().zip(&expected.exprs).enumerate() {
                if let Err(fs) = check_equiv_brute_force(got, want, &ps, &cs) {
                    panic!("seed {seed}: owner {i} differs on {fs}:\n{got}\nvs\n{want}");
                }
            }
            pruned_paths += read_only.len();
        }
        assert!(pruned_paths > 100, "the seeds exercise pruning");
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
