//! Cross-validation of the symbolic determinacy checker against exhaustive
//! concrete enumeration on small random graphs.
//!
//! This is the executable form of the paper's soundness and completeness
//! theorems (Theorem 1): on every randomly generated resource graph, the
//! SAT-based verdict must coincide with literally trying every valid
//! permutation on every (tree-consistent) filesystem.
//!
//! Graphs are sampled with a small in-file deterministic PRNG instead of
//! an external property-testing crate (the build environment is offline),
//! so every run covers the same seeded case set.

use rehearsal::core::determinism::{check_determinism, AnalysisOptions, FsGraph};
use rehearsal::core::equivalence::check_expr_equivalence;
use rehearsal::core::idempotence::{check_expr_idempotence, check_idempotence, components};
use rehearsal::fs::{
    enumerate_filesystems, eval, Content, Expr, FileState, FileSystem, FsPath, Pred,
};
use std::collections::BTreeSet;

/// Deterministic splitmix64 generator for test-case sampling.
struct Prng(u64);

impl Prng {
    fn new(seed: u64) -> Prng {
        Prng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn usize(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

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
    let (mut checked, mut split, mut split_non_idempotent) = (0, 0, 0);
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
}
