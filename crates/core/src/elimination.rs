//! Resource elimination (paper §4.4): drop resources whose effects no
//! later-running resource can observe.
//!
//! If a resource commutes with every resource that may run after it, every
//! permutation can be rewritten so this resource runs last, and
//! `e1; e ≡ e2; e ⟺ e1 ≡ e2` lets us delete it without changing the
//! determinism verdict. Working from the fringe (resources nothing depends
//! on) inward lets one deletion unlock the next — the strategy the paper
//! reports as most effective.

use crate::commutativity::{commutes, AccessSummary};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Computes the set of node indices that survive elimination.
///
/// `summaries[i]` is the (shared, memoized) access summary of node `i`;
/// `successors` / `ancestors` describe the dependency DAG (`successors[i]`
/// = nodes that must run after `i`).
pub fn surviving_nodes(
    summaries: &[Arc<AccessSummary>],
    successors: &[Vec<usize>],
    ancestors: &[BTreeSet<usize>],
) -> BTreeSet<usize> {
    let n = summaries.len();
    let mut alive: BTreeSet<usize> = (0..n).collect();
    loop {
        let mut removed = None;
        'candidates: for &i in &alive {
            // Only fringe resources: nothing alive depends on i.
            if successors[i].iter().any(|s| alive.contains(s)) {
                continue;
            }
            // i must commute with every alive resource that may run after
            // it — everything except its ancestors.
            for &j in &alive {
                if j == i || ancestors[i].contains(&j) {
                    continue;
                }
                if !commutes(&summaries[i], &summaries[j]) {
                    continue 'candidates;
                }
            }
            removed = Some(i);
            break;
        }
        match removed {
            Some(i) => {
                alive.remove(&i);
            }
            None => return alive,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commutativity::accesses;
    use rehearsal_fs::{Content, Expr, FsPath, Pred};

    fn p(s: &str) -> FsPath {
        FsPath::parse(s).unwrap()
    }

    fn file(path: &str, content: &str) -> Expr {
        Expr::create_file(p(path), Content::intern(content))
    }

    type TestGraph = (
        Vec<Arc<AccessSummary>>,
        Vec<Vec<usize>>,
        Vec<BTreeSet<usize>>,
    );

    fn graph(exprs: &[Expr], edges: &[(usize, usize)]) -> TestGraph {
        let n = exprs.len();
        let summaries: Vec<Arc<AccessSummary>> = exprs.iter().map(|&e| accesses(e)).collect();
        let mut successors = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for &(a, b) in edges {
            successors[a].push(b);
            preds[b].push(a);
        }
        let mut ancestors: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        for i in 0..n {
            let mut stack: Vec<usize> = preds[i].clone();
            while let Some(j) = stack.pop() {
                if ancestors[i].insert(j) {
                    stack.extend(preds[j].iter().copied());
                }
            }
        }
        (summaries, successors, ancestors)
    }

    #[test]
    fn independent_resources_all_eliminated() {
        let exprs = vec![file("/a", "1"), file("/b", "2"), file("/c", "3")];
        let (s, succ, anc) = graph(&exprs, &[]);
        assert!(surviving_nodes(&s, &succ, &anc).is_empty());
    }

    #[test]
    fn conflicting_pair_survives() {
        let exprs = vec![file("/a", "1"), file("/a", "2"), file("/b", "3")];
        let (s, succ, anc) = graph(&exprs, &[]);
        let alive = surviving_nodes(&s, &succ, &anc);
        assert_eq!(
            alive,
            [0, 1].into_iter().collect(),
            "/b eliminated, conflict kept"
        );
    }

    #[test]
    fn elimination_cascades_through_chains() {
        // a -> b -> c where each writes its own path: c eliminated first,
        // then b, then a (the paper's cascade).
        let exprs = vec![file("/a", "1"), file("/b", "2"), file("/c", "3")];
        let (s, succ, anc) = graph(&exprs, &[(0, 1), (1, 2)]);
        assert!(surviving_nodes(&s, &succ, &anc).is_empty());
    }

    #[test]
    fn dependent_conflict_keeps_chain() {
        // a writes /f; b (after a) reads /f; c also writes /f unordered.
        let a = file("/f", "1");
        let b = Expr::if_(Pred::is_file(p("/f")), Expr::SKIP, Expr::ERROR);
        let c = file("/f", "2");
        let (s, succ, anc) = graph(&[a, b, c], &[(0, 1)]);
        let alive = surviving_nodes(&s, &succ, &anc);
        // Nothing can be eliminated: b conflicts with c; a conflicts with
        // b (non-ancestor direction) and c.
        assert_eq!(alive.len(), 3);
    }

    #[test]
    fn fringe_restriction_matters() {
        // b depends on a; a conflicts with nothing else, but a is not on
        // the fringe while b is alive.
        let a = file("/x", "1");
        let b = Expr::if_(Pred::is_file(p("/x")), Expr::SKIP, Expr::ERROR);
        let (s, succ, anc) = graph(&[a, b], &[(0, 1)]);
        // b eliminated first? b reads /x which a writes — but a is b's
        // ancestor, so only non-ancestors matter: none. b goes, then a.
        assert!(surviving_nodes(&s, &succ, &anc).is_empty());
    }
}
