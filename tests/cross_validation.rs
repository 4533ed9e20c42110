//! Cross-validation of the symbolic determinacy checker against exhaustive
//! concrete enumeration on small random graphs.
//!
//! This is the executable form of the paper's soundness and completeness
//! theorems (Theorem 1): on every randomly generated resource graph, the
//! SAT-based verdict must coincide with literally trying every valid
//! permutation on every (tree-consistent) filesystem.
//!
//! The solver-free idempotence certificate is held to the same standard:
//! whatever it proves must be idempotent by brute force and by SAT.
//!
//! Graphs are sampled with a small deterministic PRNG instead of an
//! external property-testing crate (the build environment is offline),
//! so every run covers the same seeded case set.

mod support;

use rehearsal::core::certify::certify_idempotent;
use rehearsal::core::determinism::{check_determinism, AnalysisOptions, FsGraph};
use rehearsal::core::equivalence::check_expr_equivalence;
use rehearsal::core::idempotence::{
    check_expr_idempotence, check_expr_idempotence_by_sat, check_idempotence, components,
};
use rehearsal::fs::{
    enumerate_filesystems, eval, Content, Expr, FileState, FileSystem, FsPath, Pred,
};
use rehearsal::serve::{ast_memo_key, ServeOptions, Service};
use rehearsal::{Platform, Rehearsal};
use std::collections::BTreeSet;
use support::{comment_edit, edit_first_literal, pinned, reindent, Prng};

fn paths() -> Vec<FsPath> {
    vec![
        FsPath::parse("/a").unwrap(),
        FsPath::parse("/a/f").unwrap(),
        FsPath::parse("/b").unwrap(),
    ]
}

fn contents() -> Vec<Content> {
    vec![Content::intern("c1"), Content::intern("c2")]
}

/// A small expression language mirroring resource idioms.
fn random_expr(rng: &mut Prng) -> Expr {
    random_expr_over(rng, &paths())
}

/// [`random_expr`] over a chosen path set.
fn random_expr_over(rng: &mut Prng, ps: &[FsPath]) -> Expr {
    let p = ps[rng.usize(ps.len())];
    let c = contents()[rng.usize(2)];
    match rng.usize(8) {
        // ensure_dir
        0 => Expr::if_then(Pred::is_dir(p).not(), Expr::mkdir(p)),
        // overwrite
        1 => Expr::if_(
            Pred::does_not_exist(p),
            Expr::create_file(p, c),
            Expr::if_(
                Pred::is_file(p),
                Expr::rm(p).seq(Expr::create_file(p, c)),
                Expr::ERROR,
            ),
        ),
        // create-if-absent
        2 => Expr::if_(
            Pred::does_not_exist(p),
            Expr::create_file(p, c),
            Expr::if_(Pred::is_file(p), Expr::SKIP, Expr::ERROR),
        ),
        // remove-if-present
        3 => Expr::if_(
            Pred::is_file(p),
            Expr::rm(p),
            Expr::if_(Pred::does_not_exist(p), Expr::SKIP, Expr::ERROR),
        ),
        // raw operations
        4 => Expr::mkdir(p),
        5 => Expr::create_file(p, c),
        6 => Expr::rm(p),
        // a guard that requires a file to exist
        _ => Expr::if_(Pred::is_file(p), Expr::SKIP, Expr::ERROR),
    }
}

/// Random graphs of 2–3 expressions with random forward edges.
fn random_graph(rng: &mut Prng) -> FsGraph {
    let n = 2 + rng.usize(2);
    let exprs: Vec<Expr> = (0..n).map(|_| random_expr(rng)).collect();
    let mut edges = BTreeSet::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.bool() {
                edges.insert((i, j));
            }
        }
    }
    let names = (0..n).map(|i| format!("r{i}")).collect();
    FsGraph::new(exprs, edges, names)
}

/// All tree-consistent filesystems over the given paths and contents.
fn consistent_states(ps: &[FsPath], cs: &[Content]) -> Vec<FileSystem> {
    enumerate_filesystems(ps, cs)
        .into_iter()
        .map(|fs| fs.set(FsPath::root(), FileState::DIR))
        .filter(|fs| {
            fs.iter().all(|(p, _)| match p.parent() {
                None => true,
                Some(parent) => fs.is_dir(parent),
            })
        })
        .collect()
}

/// Every valid permutation of the graph.
fn all_orders(graph: &FsGraph) -> Vec<Vec<usize>> {
    fn rec(
        graph: &FsGraph,
        placed: &mut Vec<usize>,
        used: &mut Vec<bool>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if placed.len() == used.len() {
            out.push(placed.clone());
            return;
        }
        for i in 0..used.len() {
            if used[i] {
                continue;
            }
            let ready = graph.edges.iter().all(|&(a, b)| b != i || used[a]);
            if ready {
                used[i] = true;
                placed.push(i);
                rec(graph, placed, used, out);
                placed.pop();
                used[i] = false;
            }
        }
    }
    let mut out = Vec::new();
    rec(
        graph,
        &mut Vec::new(),
        &mut vec![false; graph.exprs.len()],
        &mut out,
    );
    out
}

/// Brute-force determinism: on every consistent state, every valid order
/// must give the same outcome (restricted to the modeled paths).
fn brute_force_deterministic(graph: &FsGraph) -> bool {
    let mut domain: BTreeSet<FsPath> = paths().into_iter().collect();
    for e in &graph.exprs {
        domain.extend(e.paths().iter().copied());
    }
    let ps: Vec<FsPath> = domain.iter().copied().collect();
    let orders = all_orders(graph);
    for fs in consistent_states(&ps, &contents()) {
        let mut outcomes = BTreeSet::new();
        for order in &orders {
            let mut state = Ok(fs.clone());
            for &i in order {
                state = state.and_then(|s| eval(graph.exprs[i], &s));
            }
            outcomes.insert(state.map(|s| s.restrict(&domain)));
            if outcomes.len() > 1 {
                return false;
            }
        }
    }
    true
}

/// Theorem 1 in executable form, with all reductions enabled.
#[test]
fn symbolic_matches_brute_force() {
    let mut rng = Prng::new(30);
    for case in 0..200 {
        let graph = random_graph(&mut rng);
        let expected = brute_force_deterministic(&graph);
        let report = check_determinism(&graph, &AnalysisOptions::default())
            .expect("no abort on tiny graphs");
        assert_eq!(
            report.is_deterministic(),
            expected,
            "case {case}, graph: {:?}",
            graph.exprs
        );
    }
}

/// The reductions never change the verdict: naive mode agrees with the
/// fully-optimized mode.
#[test]
fn reductions_preserve_verdict() {
    let mut rng = Prng::new(31);
    for case in 0..200 {
        let graph = random_graph(&mut rng);
        let fancy = check_determinism(&graph, &AnalysisOptions::default()).expect("no abort");
        let naive = check_determinism(&graph, &AnalysisOptions::naive()).expect("no abort");
        assert_eq!(
            fancy.is_deterministic(),
            naive.is_deterministic(),
            "case {case}, graph: {:?}",
            graph.exprs
        );
    }
}

/// Equivalence cross-validation (the paper's Lemmas 2 and 3): the
/// symbolic `e1 ≡ e2` verdict must match exhaustive enumeration.
#[test]
fn equivalence_matches_brute_force() {
    let mut rng = Prng::new(32);
    for _ in 0..200 {
        let e1 = random_expr(&mut rng);
        let e2 = random_expr(&mut rng);
        let report = check_expr_equivalence(e1, e2, &AnalysisOptions::default()).expect("no abort");
        let mut domain: BTreeSet<FsPath> = paths().into_iter().collect();
        domain.extend(e1.paths().iter().copied());
        domain.extend(e2.paths().iter().copied());
        let ps: Vec<FsPath> = domain.iter().copied().collect();
        let mut expected = true;
        for fs in consistent_states(&ps, &contents()) {
            let o1 = eval(e1, &fs).map(|s| s.restrict(&domain));
            let o2 = eval(e2, &fs).map(|s| s.restrict(&domain));
            if o1 != o2 {
                expected = false;
                break;
            }
        }
        assert_eq!(report.is_equivalent(), expected, "{e1} vs {e2}");
    }
}

/// Idempotence cross-validation: `e ≡ e; e` decided symbolically must
/// match trying every consistent state concretely.
#[test]
fn idempotence_matches_brute_force() {
    let mut rng = Prng::new(33);
    for _ in 0..200 {
        let e = random_expr(&mut rng);
        let report = check_expr_idempotence(e, &AnalysisOptions::default()).expect("no abort");
        let mut domain: BTreeSet<FsPath> = paths().into_iter().collect();
        domain.extend(e.paths().iter().copied());
        let ps: Vec<FsPath> = domain.iter().copied().collect();
        let mut expected = true;
        for fs in consistent_states(&ps, &contents()) {
            let once = eval(e, &fs);
            let twice = once.clone().and_then(|s| eval(e, &s));
            let once = once.map(|s| s.restrict(&domain));
            let twice = twice.map(|s| s.restrict(&domain));
            if once != twice {
                expected = false;
                break;
            }
        }
        assert_eq!(report.is_idempotent(), expected, "expr: {e}");
    }
}

/// Paths spread over three independent subtrees, so random graphs over
/// them often split into several footprint components.
fn spread_paths() -> Vec<FsPath> {
    ["/a", "/a/f", "/b", "/c"]
        .iter()
        .map(|s| FsPath::parse(s).unwrap())
        .collect()
}

/// Graph-level idempotence cross-validation: on random deterministic
/// graphs, the compositional `check_idempotence` must match concrete
/// execution of one topological order on every consistent state, and
/// the monolithic query over that order.
#[test]
fn graph_idempotence_matches_brute_force_and_monolithic() {
    let mut rng = Prng::new(34);
    let spread = spread_paths();
    let (mut checked, mut split, mut split_non_idempotent, mut certified) = (0, 0, 0, 0);
    for case in 0..300 {
        let n = 3 + rng.usize(2);
        let exprs: Vec<Expr> = (0..n)
            .map(|_| random_expr_over(&mut rng, &spread))
            .collect();
        let mut edges = BTreeSet::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.usize(3) == 0 {
                    edges.insert((i, j));
                }
            }
        }
        let names = (0..n).map(|i| format!("r{i}")).collect();
        let graph = FsGraph::new(exprs, edges, names);
        let deterministic = check_determinism(&graph, &AnalysisOptions::default())
            .expect("no abort")
            .is_deterministic();
        if !deterministic {
            continue;
        }
        let order = graph.topological_order();
        let whole = Expr::seq_all(order.iter().map(|&i| graph.exprs[i]));
        let mut domain: BTreeSet<FsPath> = spread.iter().copied().collect();
        domain.extend(whole.paths().iter().copied());
        let ps: Vec<FsPath> = domain.iter().copied().collect();
        let expected = consistent_states(&ps, &contents()).iter().all(|fs| {
            let once = eval(whole, fs);
            let twice = once.clone().and_then(|s| eval(whole, &s));
            once.map(|s| s.restrict(&domain)) == twice.map(|s| s.restrict(&domain))
        });
        let report = check_idempotence(&graph, &AnalysisOptions::default()).expect("no abort");
        let mono = check_expr_idempotence(whole, &AnalysisOptions::default()).expect("no abort");
        assert_eq!(report.is_idempotent(), expected, "case {case}: {whole}");
        assert_eq!(mono.is_idempotent(), expected, "case {case}: {whole}");
        if certify_idempotent(whole) {
            assert!(expected, "case {case}: certified {whole}");
            certified += 1;
        }
        checked += 1;
        if components(&graph).len() > 1 {
            split += 1;
            if !expected {
                split_non_idempotent += 1;
            }
        }
    }
    assert!(checked >= 100, "only {checked} deterministic graphs");
    assert!(split >= 50, "only {split} graphs split into components");
    assert!(
        split_non_idempotent >= 10,
        "only {split_non_idempotent} split graphs are non-idempotent"
    );
    assert!(certified >= 50, "only {certified} graphs certified");
}

/// Paths the certificate tests mention, and two children no expression
/// names: they let a directory be non-empty, so `rm` and `emptydir?` of a
/// directory can fail or pass on states the expressions cannot see.
fn certify_paths() -> (Vec<FsPath>, Vec<FsPath>) {
    let parse = |s: &str| FsPath::parse(s).unwrap();
    let named = vec![parse("/a"), parse("/a/f"), parse("/b")];
    let hidden = vec![parse("/a/u"), parse("/b/u")];
    (named, hidden)
}

/// A random guard over `ps`: a path test, or `and`/`or`/`not` of
/// smaller guards.
fn random_guard(rng: &mut Prng, ps: &[FsPath], depth: usize) -> Pred {
    let p = ps[rng.usize(ps.len())];
    match rng.usize(if depth == 0 { 4 } else { 7 }) {
        0 => Pred::does_not_exist(p),
        1 => Pred::is_file(p),
        2 => Pred::is_dir(p),
        3 => Pred::is_empty_dir(p),
        4 => random_guard(rng, ps, depth - 1).and(random_guard(rng, ps, depth - 1)),
        5 => random_guard(rng, ps, depth - 1).or(random_guard(rng, ps, depth - 1)),
        _ => random_guard(rng, ps, depth - 1).not(),
    }
}

/// One step of the certificate's test pool: the resource idioms plus
/// `cp`, removal of directories, `emptydir?` and compound guards.
fn random_step(rng: &mut Prng, ps: &[FsPath]) -> Expr {
    let p = ps[rng.usize(ps.len())];
    let q = ps[rng.usize(ps.len())];
    match rng.usize(15) {
        0..=5 => random_expr_over(rng, ps),
        6 => Expr::if_(
            Pred::is_empty_dir(p),
            random_expr_over(rng, ps),
            random_expr_over(rng, ps),
        ),
        7 => Expr::cp(p, q),
        8 => Expr::if_(
            Pred::does_not_exist(q),
            Expr::cp(p, q),
            Expr::if_(
                Pred::is_file(q),
                Expr::rm(q).seq(Expr::cp(p, q)),
                Expr::ERROR,
            ),
        ),
        9 => Expr::if_then(Pred::is_empty_dir(p), Expr::rm(p)),
        10 => Expr::if_then(Pred::is_dir(p), Expr::rm(p)),
        11 => Expr::if_(
            random_guard(rng, ps, 2),
            random_expr_over(rng, ps),
            random_expr_over(rng, ps),
        ),
        12 => Expr::if_then(
            Pred::is_dir(p).not().and(Pred::does_not_exist(p)),
            Expr::mkdir(p),
        ),
        _ => Expr::if_(random_guard(rng, ps, 1), Expr::SKIP, Expr::ERROR),
    }
}

/// Certificate ⇒ idempotent, against brute force over every consistent
/// state (hidden children included) on seeded random expressions of 1–4
/// steps. The certificate must also prove most idempotent ones, and the
/// pool must produce plenty of non-idempotent ones for the check to bite.
#[test]
fn certificate_implies_brute_force_idempotence() {
    let (named, hidden) = certify_paths();
    let all: Vec<FsPath> = named.iter().chain(&hidden).copied().collect();
    let states = consistent_states(&all, &contents());
    let mut rng = Prng::new(35);
    let (mut idempotent, mut certified, mut refuted) = (0, 0, 0);
    for case in 0..6000 {
        let steps = 1 + rng.usize(4);
        let e = Expr::seq_all((0..steps).map(|_| random_step(&mut rng, &named)));
        let expected = states.iter().all(|fs| {
            let once = eval(e, fs);
            once.clone().and_then(|s| eval(e, &s)) == once
        });
        let proved = certify_idempotent(e);
        assert!(!proved || expected, "case {case}: certified {e}");
        idempotent += usize::from(expected);
        certified += usize::from(proved);
        refuted += usize::from(!expected);
    }
    assert!(refuted >= 1000, "only {refuted} non-idempotent cases");
    assert!(
        certified * 10 >= idempotent * 7,
        "certified {certified} of {idempotent} idempotent cases"
    );
}

/// Lowers one pinned manifest with the options the checker uses for it.
fn lower(m: &support::Pinned) -> FsGraph {
    let options = AnalysisOptions {
        model_metadata: m.metadata,
        ..AnalysisOptions::default()
    };
    Rehearsal::new(Platform::Ubuntu)
        .with_options(options)
        .lower_source(m.source)
        .unwrap_or_else(|e| panic!("{}: {e}", m.name))
        .0
}

/// Certificate ⇒ SAT `Idempotent` on every pinned manifest, for each
/// footprint component and for the whole topological order. Every
/// component of the 13 fixed-suite manifests is certified.
#[test]
fn certificate_implies_sat_on_pinned_manifests() {
    let fixed: BTreeSet<&str> = rehearsal::benchmarks::FIXED_SUITE
        .iter()
        .map(|b| b.name)
        .collect();
    let mut fixed_components = 0;
    for m in pinned() {
        let graph = lower(&m);
        let mut exprs: Vec<Expr> = components(&graph)
            .iter()
            .map(|part| Expr::seq_all(part.iter().map(|&i| graph.exprs[i])))
            .collect();
        if fixed.contains(m.name) {
            fixed_components += exprs.len();
            for e in &exprs {
                assert!(certify_idempotent(*e), "{}: a component abstains", m.name);
            }
        }
        exprs.push(Expr::seq_all(
            graph
                .topological_order()
                .into_iter()
                .map(|i| graph.exprs[i]),
        ));
        for e in exprs {
            if certify_idempotent(e) {
                let sat = check_expr_idempotence_by_sat(e, &AnalysisOptions::default())
                    .expect("no abort");
                assert!(sat.is_idempotent(), "{}: certified, SAT refutes", m.name);
            }
        }
    }
    assert_eq!(fixed_components, 23);
}

/// For every pinned manifest, comment and re-indent variants share the
/// serve memo's AST key, and editing one literal does not.
#[test]
fn layout_edits_share_the_ast_memo_key_and_literal_edits_do_not() {
    let options = AnalysisOptions::default();
    let key = |name: &str, text: &str| {
        ast_memo_key(name, text, Platform::Ubuntu, &options)
            .unwrap_or_else(|| panic!("{name}: does not parse"))
    };
    for (i, m) in pinned().into_iter().enumerate() {
        // The key's premise: printing and re-parsing gives the same AST.
        let ast = rehearsal::puppet::parse(m.source).expect("pinned manifests parse");
        let printed = rehearsal::puppet::print_manifest(&ast);
        assert_eq!(
            rehearsal::puppet::parse(&printed).unwrap(),
            ast,
            "{}",
            m.name
        );
        let original = key(m.name, m.source);
        for width in [1, 3, 8] {
            let variant = reindent(&comment_edit(m.source, i * 7 + width, "t"), width);
            assert_ne!(variant, m.source);
            assert_eq!(key(m.name, &variant), original, "{}: width {width}", m.name);
        }
        let renamed = edit_first_literal(m.source, "-x").expect("a quoted literal");
        assert_ne!(key(m.name, &renamed), original, "{}", m.name);
        assert_ne!(key("other", m.source), original, "{}", m.name);
    }
}

/// A source that parses but fails to lower is never filed under its AST
/// key: its error carries source positions, so a reformat of it must be
/// lowered again, not answered from the memo.
#[test]
fn a_source_that_fails_to_lower_never_gets_an_ast_key() {
    let service = Service::new(ServeOptions::default()).unwrap();
    let post = |name: &str, source: &str| {
        let body = rehearsal::fleet::Json::obj([
            ("manifest", rehearsal::fleet::Json::str(name)),
            ("source", rehearsal::fleet::Json::str(source)),
        ]);
        let response = service.handle(&rehearsal::serve::http::Request {
            method: "POST".to_string(),
            path: "/v1/check".to_string(),
            body: body.render().into_bytes(),
        });
        rehearsal::fleet::parse_json(&response.body).unwrap()
    };
    let field = |doc: &rehearsal::fleet::Json, key: &str| {
        doc.get("serve")
            .and_then(|serve| serve.get(key))
            .and_then(rehearsal::fleet::Json::as_bool)
    };
    for m in pinned().into_iter().filter(|m| !m.metadata) {
        let broken = format!("{}\nfile {{ '/broken': ensure => bogus }}\n", m.source);
        assert!(ast_memo_key(
            m.name,
            &broken,
            Platform::Ubuntu,
            &AnalysisOptions::default()
        )
        .is_some());
        let first = post(m.name, &broken);
        assert_eq!(
            first
                .get("verdict")
                .and_then(rehearsal::fleet::Json::as_str),
            Some("error"),
            "{}",
            m.name
        );
        let moved = comment_edit(&broken, 0, "moved");
        let again = post(m.name, &moved);
        assert_eq!(field(&again, "cache_hit"), Some(false), "{}", m.name);
        // A byte-identical repeat is still a raw-key memo hit.
        assert_eq!(field(&post(m.name, &moved), "cache_hit"), Some(true));
    }
}
