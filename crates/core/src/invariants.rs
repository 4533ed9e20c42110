//! Invariant checking (paper §5): once a manifest is deterministic, simple
//! post-state invariants are single symbolic queries over the sequenced
//! expression — e.g. "the manifest always leaves `p` a file with content
//! `c`" is the unsatisfiability of `ok(e)σ ∧ f(e)σ(p) ≠ file(c)`.

use crate::determinism::{AnalysisAborted, AnalysisOptions, FsGraph};
use crate::domain::{Domain, PathValue};
use crate::encoder::Encoder;
use rehearsal_fs::{Content, Expr, FileSystem, FsPath};
use std::fmt;

/// A post-state invariant to verify.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Invariant {
    /// After a successful run, `path` is a file with exactly `content`.
    FileWithContent(FsPath, Content),
    /// After a successful run, `path` is a file (any content).
    IsFile(FsPath),
    /// After a successful run, `path` is a directory.
    IsDir(FsPath),
    /// After a successful run, `path` does not exist.
    Absent(FsPath),
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Invariant::FileWithContent(p, c) => {
                write!(f, "{p} is a file with content {:?}", c.as_string())
            }
            Invariant::IsFile(p) => write!(f, "{p} is a file"),
            Invariant::IsDir(p) => write!(f, "{p} is a directory"),
            Invariant::Absent(p) => write!(f, "{p} is absent"),
        }
    }
}

/// The verdict of an invariant check.
#[derive(Debug, Clone)]
pub enum InvariantReport {
    /// The invariant holds on every successful run.
    Holds,
    /// An initial state exists on which the run succeeds but the invariant
    /// fails afterwards.
    Violated {
        /// The witnessing initial state.
        initial: FileSystem,
    },
}

impl InvariantReport {
    /// Whether the invariant holds.
    pub fn holds(&self) -> bool {
        matches!(self, InvariantReport::Holds)
    }
}

/// Checks an invariant against a single expression.
///
/// # Errors
///
/// Returns [`AnalysisAborted`] on timeout (currently only a placeholder,
/// the query is a single solve).
pub fn check_expr_invariant(
    e: Expr,
    invariant: &Invariant,
    _options: &AnalysisOptions,
) -> Result<InvariantReport, AnalysisAborted> {
    let path = match invariant {
        Invariant::FileWithContent(p, _) => *p,
        Invariant::IsFile(p) | Invariant::IsDir(p) | Invariant::Absent(p) => *p,
    };
    // Make sure the path is part of the domain even if the program never
    // touches it (raw interning: the smart `if_` might fold this away).
    let probe = Expr::intern(rehearsal_fs::ExprNode::If(
        rehearsal_fs::Pred::is_file(path),
        Expr::SKIP,
        Expr::ERROR,
    ));
    let domain = Domain::of_exprs([e, probe]);
    let mut enc = Encoder::new(domain);
    let s0 = enc.initial_state();
    let out = enc.eval_expr(e, &s0);
    let final_term = enc.term_of(&out, path);
    let satisfied = match invariant {
        Invariant::FileWithContent(_, c) => {
            let code = enc.values.code(PathValue::File(*c));
            enc.ctx.bit(final_term, code)
        }
        Invariant::IsFile(_) => enc.is_file(&out, path),
        Invariant::IsDir(_) => enc.is_dir(&out, path),
        Invariant::Absent(_) => enc.is_dne(&out, path),
    };
    let violated = enc.ctx.not(satisfied);
    let query = enc.ctx.and2(out.ok, violated);
    match enc.ctx.solve(query) {
        None => Ok(InvariantReport::Holds),
        Some(model) => {
            let initial = enc.decode_state(&model, &s0);
            Ok(InvariantReport::Violated { initial })
        }
    }
}

/// Checks an invariant against a (deterministic) resource graph.
///
/// # Errors
///
/// Returns [`AnalysisAborted`] on timeout.
pub fn check_invariant(
    graph: &FsGraph,
    invariant: &Invariant,
    options: &AnalysisOptions,
) -> Result<InvariantReport, AnalysisAborted> {
    let order = graph.topological_order();
    let seq = Expr::seq_all(order.into_iter().map(|i| graph.exprs[i]));
    check_expr_invariant(seq, invariant, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rehearsal_fs::Pred;

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

    #[test]
    fn overwrite_guarantees_content() {
        let c = Content::intern("motd");
        let e = overwrite(p("/etc/motd"), c);
        let inv = Invariant::FileWithContent(p("/etc/motd"), c);
        let r = check_expr_invariant(e, &inv, &AnalysisOptions::default()).unwrap();
        assert!(r.holds());
        // And also the weaker invariant.
        let r2 = check_expr_invariant(
            e,
            &Invariant::IsFile(p("/etc/motd")),
            &AnalysisOptions::default(),
        )
        .unwrap();
        assert!(r2.holds());
    }

    #[test]
    fn conditional_write_violates_content_invariant() {
        // Writes only when absent: a pre-existing file with other content
        // survives — the "one resource overwrites another" concern of §5.
        let c = Content::intern("mine");
        let f = p("/f");
        let e = Expr::if_(
            Pred::does_not_exist(f),
            Expr::create_file(f, c),
            Expr::if_(Pred::is_file(f), Expr::SKIP, Expr::ERROR),
        );
        let inv = Invariant::FileWithContent(f, c);
        let r = check_expr_invariant(e, &inv, &AnalysisOptions::default()).unwrap();
        match r {
            InvariantReport::Violated { initial } => {
                assert!(initial.is_file(f), "witness has a pre-existing file");
            }
            InvariantReport::Holds => panic!("invariant should be violated"),
        }
    }

    #[test]
    fn absent_invariant() {
        let f = p("/tmp/scratch");
        let e = Expr::if_(
            Pred::is_file(f),
            Expr::rm(f),
            Expr::if_(Pred::does_not_exist(f), Expr::SKIP, Expr::ERROR),
        );
        let r =
            check_expr_invariant(e, &Invariant::Absent(f), &AnalysisOptions::default()).unwrap();
        assert!(r.holds());
    }

    #[test]
    fn dir_invariant_on_untouched_path_fails() {
        let e = Expr::SKIP;
        let r = check_expr_invariant(e, &Invariant::IsDir(p("/var")), &AnalysisOptions::default())
            .unwrap();
        assert!(!r.holds(), "skip guarantees nothing about /var");
    }
}
