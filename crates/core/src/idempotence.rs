//! Idempotence checking (paper §5): once a manifest is deterministic, any
//! topological order gives *the* semantics as a single expression `e`, and
//! idempotence is the equivalence `e ≡ e; e` — one more symbolic query.
//!
//! Applying these checks to a non-deterministic manifest would be unsound
//! (the paper stresses this), so the driver runs the determinacy analysis
//! first.
//!
//! # Compositional checking
//!
//! [`check_idempotence`] does not pose `e ≡ e; e` over the whole manifest
//! at once. It splits the resources into [`components`]: connected
//! components of the [`Footprint::may_overlap`] relation (writes, reads,
//! ensured directories, metadata and observed directories). Each
//! component `cᵢ` is its resources sequenced in the global topological
//! order, and is checked with its own smaller domain and solver context.
//!
//! **Why it is sound.** Resources in different components have disjoint
//! footprints, so they commute (the paper's Lemma 4). Hence
//! `e ≡ c₁; …; cₖ`, and `e; e ≡ c₁; c₁; …; cₖ; cₖ`. If every `cᵢ; cᵢ ≡ cᵢ`,
//! then `e; e ≡ e`: every component idempotent means the manifest is.
//!
//! **Known incompleteness.** The converse fails in one case: a component
//! can be non-idempotent while another component errors on every initial
//! state. Then `e` and `e; e` both always error, so `e` is idempotent.
//! That is why a component that is not proven idempotent never decides
//! the verdict: the check falls back to the monolithic query over the
//! whole sequence, and its report (verdict and counterexample) is what
//! the caller gets. A graph that forms a single component runs only that
//! monolithic query.
//!
//! One deadline covers the whole check: component queries and the
//! fallback share `options.timeout`, measured from entry.
//!
//! # Certificates first
//!
//! Every query, whether a component, the monolithic fallback or
//! [`check_expr_idempotence`], first asks the solver-free certificate of
//! [`crate::certify`]. It proves most resource idioms idempotent in
//! microseconds (a `certify` span; counted in `idempotence.certified`)
//! and otherwise abstains, so the SAT query below runs only when it does.
//! The certificate never refutes: every `NotIdempotent` verdict and
//! counterexample is SAT's.

use crate::determinism::{AnalysisAborted, AnalysisOptions, FsGraph};
use crate::domain::Domain;
use crate::encoder::Encoder;
use crate::footprint::{footprint, Footprint};
use rehearsal_fs::{eval as concrete_eval, Expr, FileSystem};
use std::sync::Arc;
use std::time::Instant;

/// A counterexample to idempotence: an initial state where applying the
/// manifest twice differs from applying it once.
#[derive(Debug, Clone)]
pub struct IdempotenceCounterexample {
    /// The initial filesystem.
    pub initial: FileSystem,
    /// Concrete outcome after one application.
    pub after_once: Result<FileSystem, rehearsal_fs::ExecError>,
    /// Concrete outcome after two applications.
    pub after_twice: Result<FileSystem, rehearsal_fs::ExecError>,
}

/// The verdict of the idempotence check.
#[derive(Debug, Clone)]
pub enum IdempotenceReport {
    /// `e ≡ e; e`.
    Idempotent,
    /// Applying twice can differ from applying once.
    NotIdempotent(Box<IdempotenceCounterexample>),
}

impl IdempotenceReport {
    /// Whether the manifest is idempotent.
    pub fn is_idempotent(&self) -> bool {
        matches!(self, IdempotenceReport::Idempotent)
    }
}

/// Checks `e ≡ e; e` for a single expression.
///
/// # Errors
///
/// Returns [`AnalysisAborted`] on timeout.
pub fn check_expr_idempotence(
    e: Expr,
    options: &AnalysisOptions,
) -> Result<IdempotenceReport, AnalysisAborted> {
    let _span = rehearsal_trace::span_cat("idempotence", "core");
    idempotence_query(e, deadline(options), options)
}

/// Checks idempotence of a (deterministic) resource graph, one
/// footprint-independent component at a time (see the module docs),
/// falling back to the monolithic query over one topological order.
///
/// # Errors
///
/// Returns [`AnalysisAborted`] on timeout.
pub fn check_idempotence(
    graph: &FsGraph,
    options: &AnalysisOptions,
) -> Result<IdempotenceReport, AnalysisAborted> {
    let _span = rehearsal_trace::span_cat("idempotence", "core");
    let deadline = deadline(options);
    let seq = |ids: &[usize]| Expr::seq_all(ids.iter().map(|&i| graph.exprs[i]));
    let parts: Vec<Expr> = {
        let _span = rehearsal_trace::span_cat("components", "core");
        components(graph).iter().map(|part| seq(part)).collect()
    };
    rehearsal_trace::counter_add("idempotence.components", parts.len() as u64);
    // Published at 0 too, so every check's metrics carry these counters.
    rehearsal_trace::counter_add("idempotence.fallbacks", 0);
    rehearsal_trace::counter_add("idempotence.certified", 0);
    match parts[..] {
        // One component is the whole manifest in topological order.
        [whole] => idempotence_query(whole, deadline, options),
        [] => idempotence_query(Expr::SKIP, deadline, options),
        _ => {
            for &part in &parts {
                if !idempotence_query(part, deadline, options)?.is_idempotent() {
                    rehearsal_trace::counter_add("idempotence.fallbacks", 1);
                    return idempotence_query(seq(&graph.topological_order()), deadline, options);
                }
            }
            Ok(IdempotenceReport::Idempotent)
        }
    }
}

/// The footprint-independent components of `graph`: resources linked,
/// directly or transitively, by [`Footprint::may_overlap`]. Each
/// component lists its resources in the graph's topological order;
/// components are ordered by their first resource in that order.
pub fn components(graph: &FsGraph) -> Vec<Vec<usize>> {
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let order = graph.topological_order();
    let footprints: Vec<Arc<Footprint>> =
        order.iter().map(|&i| footprint(graph.exprs[i])).collect();
    // Union-find over positions in `order`, merging every overlapping pair.
    let mut parent: Vec<usize> = (0..order.len()).collect();
    for a in 0..order.len() {
        for b in a + 1..order.len() {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb && footprints[a].may_overlap(&footprints[b]) {
                parent[ra.max(rb)] = ra.min(rb);
            }
        }
    }
    let mut slot: Vec<Option<usize>> = vec![None; order.len()];
    let mut parts: Vec<Vec<usize>> = Vec::new();
    for (pos, &i) in order.iter().enumerate() {
        let root = find(&mut parent, pos);
        let c = *slot[root].get_or_insert_with(|| {
            parts.push(Vec::new());
            parts.len() - 1
        });
        parts[c].push(i);
    }
    parts
}

fn deadline(options: &AnalysisOptions) -> Option<Instant> {
    options.timeout.map(|t| Instant::now() + t)
}

/// One `e ≡ e; e` query under a deadline the caller computed once for
/// its whole check: the solver-free certificate first, then, if it
/// abstains, SAT in a fresh domain and context.
fn idempotence_query(
    e: Expr,
    deadline: Option<Instant>,
    options: &AnalysisOptions,
) -> Result<IdempotenceReport, AnalysisAborted> {
    let cancelled = options.cancel.as_ref().is_some_and(|t| t.is_cancelled());
    if cancelled || deadline.is_some_and(|d| Instant::now() >= d) {
        return Err(AnalysisAborted {
            reason: if cancelled {
                "cancelled during idempotence check".to_string()
            } else {
                "timeout during idempotence check".to_string()
            },
        });
    }
    let certified = {
        let _span = rehearsal_trace::span_cat("certify", "core");
        crate::certify::certify_idempotent(e)
    };
    if certified {
        rehearsal_trace::counter_add("idempotence.certified", 1);
        return Ok(IdempotenceReport::Idempotent);
    }
    sat_query(e, deadline, options)
}

/// Checks `e ≡ e; e` with the SAT query alone, skipping the certificate:
/// the reference the certificate is tested against.
///
/// # Errors
///
/// Returns [`AnalysisAborted`] on timeout.
pub fn check_expr_idempotence_by_sat(
    e: Expr,
    options: &AnalysisOptions,
) -> Result<IdempotenceReport, AnalysisAborted> {
    sat_query(e, deadline(options), options)
}

/// The SAT half of [`idempotence_query`], in a fresh domain and context.
fn sat_query(
    e: Expr,
    deadline: Option<Instant>,
    options: &AnalysisOptions,
) -> Result<IdempotenceReport, AnalysisAborted> {
    let (mut enc, s0, diff) = {
        let _span = rehearsal_trace::span_cat("encode", "core");
        let mut enc = Encoder::new(Domain::of_exprs([e]));
        let s0 = enc.initial_state();
        let once = enc.eval_expr(e, &s0);
        let twice = enc.eval_expr(e, &once);
        let diff = enc.states_differ(&once, &twice);
        (enc, s0, diff)
    };
    let solved = enc
        .ctx
        .solve_with_budget(diff, deadline, crate::determinism::interrupt_flag(options))
        .map_err(|_| crate::determinism::solve_abort_reason(options))?;
    enc.ctx.publish_trace_metrics();
    match solved {
        None => Ok(IdempotenceReport::Idempotent),
        Some(model) => {
            let initial = enc.decode_state(&model, &s0);
            let after_once = concrete_eval(e, &initial);
            let after_twice = after_once.clone().and_then(|mid| concrete_eval(e, &mid));
            Ok(IdempotenceReport::NotIdempotent(Box::new(
                IdempotenceCounterexample {
                    initial,
                    after_once,
                    after_twice,
                },
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rehearsal_fs::{Content, FsPath, Pred};

    fn p(s: &str) -> FsPath {
        FsPath::parse(s).unwrap()
    }

    #[test]
    fn skip_is_idempotent() {
        let r = check_expr_idempotence(Expr::SKIP, &AnalysisOptions::default()).unwrap();
        assert!(r.is_idempotent());
    }

    #[test]
    fn raw_mkdir_is_not_idempotent() {
        // mkdir(/a); mkdir(/a) always fails the second time when the first
        // succeeded.
        let e = Expr::mkdir(p("/a"));
        let r = check_expr_idempotence(e, &AnalysisOptions::default()).unwrap();
        match r {
            IdempotenceReport::NotIdempotent(cex) => {
                assert!(cex.after_once.is_ok());
                assert!(cex.after_twice.is_err());
            }
            IdempotenceReport::Idempotent => panic!("raw mkdir is not idempotent"),
        }
    }

    #[test]
    fn traced_query_publishes_search_counters() {
        // The counterexample search needs decisions; the one-shot
        // solver's counters must reach the trace registry.
        let e = guarded_mkdir("/a")
            .seq(Expr::create_file(p("/a/f"), Content::intern("y")))
            .seq(guarded_mkdir("/b"));
        let session = rehearsal_trace::Session::new();
        let guard = session.install();
        let r = check_expr_idempotence(e, &AnalysisOptions::default()).unwrap();
        drop(guard);
        assert!(!r.is_idempotent());
        let snap = session.snapshot();
        assert!(snap.metrics.counter("sat.decisions").unwrap_or(0) > 0);
        assert!(snap.metrics.counter("sat.propagations").unwrap_or(0) > 0);
    }

    #[test]
    fn guarded_mkdir_is_idempotent() {
        let e = Expr::if_then(Pred::is_dir(p("/a")).not(), Expr::mkdir(p("/a")));
        let r = check_expr_idempotence(e, &AnalysisOptions::default()).unwrap();
        assert!(r.is_idempotent());
    }

    #[test]
    fn paper_fig3d_copy_then_delete() {
        // file{/dst: source => /src}; file{/src: ensure => absent} with the
        // dependency File[/dst] -> File[/src]: deterministic but NOT
        // idempotent (the second run has no /src to copy).
        let copy = Expr::if_(
            Pred::does_not_exist(p("/dst")),
            Expr::cp(p("/src"), p("/dst")),
            Expr::if_(
                Pred::is_file(p("/dst")),
                Expr::rm(p("/dst")).seq(Expr::cp(p("/src"), p("/dst"))),
                Expr::ERROR,
            ),
        );
        let delete = Expr::if_(
            Pred::is_file(p("/src")),
            Expr::rm(p("/src")),
            Expr::if_(Pred::does_not_exist(p("/src")), Expr::SKIP, Expr::ERROR),
        );
        let e = copy.seq(delete);
        let r = check_expr_idempotence(e, &AnalysisOptions::default()).unwrap();
        match r {
            IdempotenceReport::NotIdempotent(cex) => {
                assert!(cex.after_once.is_ok(), "first run succeeds");
                assert!(cex.after_twice.is_err(), "second run fails: /src gone");
            }
            IdempotenceReport::Idempotent => panic!("fig 3d is not idempotent"),
        }
    }

    #[test]
    fn overwrite_is_idempotent() {
        let c = Content::intern("v");
        let f = p("/f");
        let e = Expr::if_(
            Pred::does_not_exist(f),
            Expr::create_file(f, c),
            Expr::if_(
                Pred::is_file(f),
                Expr::rm(f).seq(Expr::create_file(f, c)),
                Expr::ERROR,
            ),
        );
        let r = check_expr_idempotence(e, &AnalysisOptions::default()).unwrap();
        assert!(r.is_idempotent());
    }

    #[test]
    fn graph_level_check_uses_topological_order() {
        let a = Expr::if_then(Pred::is_dir(p("/d")).not(), Expr::mkdir(p("/d")));
        let b = Expr::if_(
            Pred::does_not_exist(p("/d/f")),
            Expr::create_file(p("/d/f"), Content::intern("x")),
            Expr::if_(Pred::is_file(p("/d/f")), Expr::SKIP, Expr::ERROR),
        );
        let g = FsGraph::new(
            vec![a, b],
            [(0usize, 1usize)].into_iter().collect(),
            vec!["dir".into(), "file".into()],
        );
        let r = check_idempotence(&g, &AnalysisOptions::default()).unwrap();
        assert!(r.is_idempotent());
    }

    fn graph(exprs: Vec<Expr>) -> FsGraph {
        let names = (0..exprs.len()).map(|i| format!("r{i}")).collect();
        FsGraph::new(exprs, Default::default(), names)
    }

    fn guarded_mkdir(path: &str) -> Expr {
        Expr::if_then(Pred::is_dir(p(path)).not(), Expr::mkdir(p(path)))
    }

    #[test]
    fn fallback_decides_when_another_component_always_errors() {
        // Component {mkdir(/a)} is not idempotent on its own, but the
        // resource on /b errors on every state, so the whole manifest
        // always errors and is idempotent. Only the monolithic fallback
        // can see that; its certificate does, without SAT.
        let always_error = Expr::create_file(p("/b"), Content::intern("x")).seq(Expr::ERROR);
        let raw = Expr::mkdir(p("/a"));
        let g = graph(vec![raw, always_error]);
        assert_eq!(components(&g), vec![vec![0], vec![1]]);
        assert!(!check_expr_idempotence(raw, &AnalysisOptions::default())
            .unwrap()
            .is_idempotent());
        let session = rehearsal_trace::Session::new();
        let guard = session.install();
        let r = check_idempotence(&g, &AnalysisOptions::default()).unwrap();
        drop(guard);
        assert!(r.is_idempotent(), "the monolithic verdict wins");
        let snap = session.snapshot();
        assert_eq!(snap.metrics.counter("idempotence.components"), Some(2));
        assert_eq!(snap.metrics.counter("idempotence.fallbacks"), Some(1));
        assert_eq!(snap.metrics.counter("idempotence.certified"), Some(1));
        let top: Vec<_> = snap
            .spans
            .iter()
            .filter(|s| s.name == "idempotence")
            .collect();
        assert_eq!(top.len(), 1, "one idempotence span per check");
        assert_eq!(
            snap.spans.iter().filter(|s| s.name == "encode").count(),
            1,
            "SAT for the first component; the fallback is certified"
        );
        assert_eq!(snap.spans.iter().filter(|s| s.name == "certify").count(), 2);
    }

    #[test]
    fn non_idempotent_components_report_the_monolithic_counterexample() {
        let g = graph(vec![guarded_mkdir("/b"), Expr::mkdir(p("/a"))]);
        assert_eq!(components(&g).len(), 2);
        let split = check_idempotence(&g, &AnalysisOptions::default()).unwrap();
        let whole = Expr::seq_all(g.topological_order().into_iter().map(|i| g.exprs[i]));
        let mono = check_expr_idempotence(whole, &AnalysisOptions::default()).unwrap();
        match (split, mono) {
            (IdempotenceReport::NotIdempotent(a), IdempotenceReport::NotIdempotent(b)) => {
                assert_eq!(a.initial, b.initial);
                assert_eq!(a.after_once, b.after_once);
                assert_eq!(a.after_twice, b.after_twice);
            }
            _ => panic!("raw mkdir(/a) makes the manifest non-idempotent"),
        }
    }

    #[test]
    fn independent_components_are_checked_separately() {
        let g = graph(vec![
            guarded_mkdir("/a"),
            guarded_mkdir("/b"),
            guarded_mkdir("/c"),
        ]);
        assert_eq!(components(&g), vec![vec![0], vec![1], vec![2]]);
        let session = rehearsal_trace::Session::new();
        let guard = session.install();
        assert!(check_idempotence(&g, &AnalysisOptions::default())
            .unwrap()
            .is_idempotent());
        drop(guard);
        let snap = session.snapshot();
        assert_eq!(snap.metrics.counter("idempotence.components"), Some(3));
        assert_eq!(snap.metrics.counter("idempotence.fallbacks"), Some(0));
    }

    #[test]
    fn one_deadline_covers_every_component() {
        // Six independent components: a directory and forty files in it,
        // each with a managed mode. The certificate abstains on metadata,
        // so every component is a SAT query.
        let mut exprs = Vec::new();
        for d in 0..6 {
            exprs.push(guarded_mkdir(&format!("/d{d}")));
            for f in 0..40 {
                let path = p(&format!("/d{d}/f{f}"));
                let mode = Content::intern("0644");
                exprs.push(
                    Expr::if_(
                        Pred::does_not_exist(path),
                        Expr::create_file(path, Content::intern("x")),
                        Expr::if_(Pred::is_file(path), Expr::SKIP, Expr::ERROR),
                    )
                    .seq(Expr::chmod(path, mode)),
                );
            }
        }
        let g = graph(exprs);
        assert_eq!(components(&g).len(), 6);
        for part in components(&g) {
            let e = Expr::seq_all(part.iter().map(|&i| g.exprs[i]));
            assert!(!crate::certify::certify_idempotent(e));
        }
        let opts = AnalysisOptions::default();
        let full = (0..2)
            .map(|_| {
                let started = Instant::now();
                assert!(check_idempotence(&g, &opts).unwrap().is_idempotent());
                started.elapsed()
            })
            .min()
            .unwrap();

        // A quarter of the full time covers one or two component queries.
        // With a fresh budget per query every query would finish; with one
        // budget for the check, it runs out part way.
        let budget = full / 4;
        let started = Instant::now();
        let r = check_idempotence(&g, &opts.clone().with_timeout(budget));
        let elapsed = started.elapsed();
        assert!(r.is_err(), "budget {budget:?} of {full:?} must abort");
        // Only the query in flight may overrun; the slack absorbs
        // scheduling noise on a loaded machine.
        let slack = full + std::time::Duration::from_millis(100);
        assert!(
            elapsed < budget + slack,
            "took {elapsed:?}, budget {budget:?}"
        );

        // A spent budget runs no query at all.
        let session = rehearsal_trace::Session::new();
        let guard = session.install();
        let r = check_idempotence(&g, &opts.with_timeout(std::time::Duration::ZERO));
        drop(guard);
        assert_eq!(r.unwrap_err().reason, "timeout during idempotence check");
        assert!(session.snapshot().spans.iter().all(|s| s.name != "encode"));
    }
}
