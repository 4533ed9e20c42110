//! The per-path partial evaluator of fig. 10a, kept as the reference
//! [`super::prune_paths`] is checked against: one full rewrite of the
//! owner per pruned path, folded over the candidates in path order.

use super::{decide, parent_dir_pred, refine, Track, WrittenState};
use super::{definitive_writes, DefMap, DefValue};
use crate::commutativity::accesses;
use crate::determinism::FsGraph;
use rehearsal_fs::{Expr, ExprNode, FsPath, Pred, PredNode};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

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
pub(super) fn prune_path(e: Expr, p: FsPath) -> Option<Expr> {
    let initial = Track::Initial {
        dne: true,
        file: true,
        dir: true,
    };
    let (out, _) = prune_rec(e, p, initial).ok()?;
    // Defensive: no write to p may survive.
    if writes_path(out, p) {
        return None;
    }
    Some(out)
}

pub(super) fn writes_path(e: Expr, p: FsPath) -> bool {
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

/// The per-path fold [`super::prune_graph`] replaced: the same §4.4 side
/// conditions, checked by rescanning every resource per candidate, and
/// one [`prune_path`] rewrite of the owner per candidate, in path order.
pub(super) fn prune_graph_by_path(graph: &FsGraph) -> (FsGraph, BTreeSet<FsPath>) {
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
        match prune_path(out.exprs[owner], p) {
            Some(rewritten) => {
                out.exprs[owner] = rewritten;
                read_only.insert(p);
            }
            None => continue,
        }
    }
    (out, read_only)
}
