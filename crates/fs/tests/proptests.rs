//! Property tests for the FS language: smart constructors preserve
//! semantics and satisfy the seed algebraic laws, hash-consing gives
//! structurally equal trees equal ids, evaluation is a function, and the
//! semantics maintains filesystem tree-consistency.
//!
//! Cases are sampled with a small in-file deterministic PRNG instead of an
//! external property-testing crate (the build environment is offline), so
//! every run covers the same seeded case set.

use rehearsal_fs::{
    enumerate_filesystems, eval, eval_pred, Content, Expr, ExprNode, FileState, FileSystem, FsPath,
    MetaField, Pred, PredNode,
};

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
}

fn paths() -> Vec<FsPath> {
    vec![
        FsPath::parse("/p0").unwrap(),
        FsPath::parse("/p0/q").unwrap(),
        FsPath::parse("/p1").unwrap(),
    ]
}

fn contents() -> Vec<Content> {
    vec![Content::intern("k1"), Content::intern("k2")]
}

fn random_path(rng: &mut Prng) -> FsPath {
    paths()[rng.usize(3)]
}

fn random_content(rng: &mut Prng) -> Content {
    contents()[rng.usize(2)]
}

fn random_meta_field(rng: &mut Prng) -> MetaField {
    MetaField::ALL[rng.usize(3)]
}

fn random_meta_value(rng: &mut Prng) -> Content {
    let pool = ["root", "carol", "0644", "0755"];
    Content::intern(pool[rng.usize(pool.len())])
}

fn random_pred(rng: &mut Prng, depth: usize) -> Pred {
    if depth == 0 || rng.usize(3) == 0 {
        return match rng.usize(7) {
            0 => Pred::TRUE,
            1 => Pred::FALSE,
            2 => Pred::does_not_exist(random_path(rng)),
            3 => Pred::is_file(random_path(rng)),
            4 => Pred::is_dir(random_path(rng)),
            5 => Pred::meta_is(
                random_path(rng),
                random_meta_field(rng),
                random_meta_value(rng),
            ),
            _ => Pred::is_empty_dir(random_path(rng)),
        };
    }
    match rng.usize(3) {
        0 => Pred::intern(PredNode::And(
            random_pred(rng, depth - 1),
            random_pred(rng, depth - 1),
        )),
        1 => Pred::intern(PredNode::Or(
            random_pred(rng, depth - 1),
            random_pred(rng, depth - 1),
        )),
        _ => Pred::intern(PredNode::Not(random_pred(rng, depth - 1))),
    }
}

fn random_expr(rng: &mut Prng, depth: usize) -> Expr {
    if depth == 0 || rng.usize(3) == 0 {
        return match rng.usize(7) {
            0 => Expr::SKIP,
            1 => Expr::ERROR,
            2 => Expr::mkdir(random_path(rng)),
            3 => Expr::create_file(random_path(rng), random_content(rng)),
            4 => Expr::rm(random_path(rng)),
            5 => Expr::chmeta(
                random_path(rng),
                random_meta_field(rng),
                random_meta_value(rng),
            ),
            _ => Expr::cp(random_path(rng), random_path(rng)),
        };
    }
    match rng.usize(2) {
        0 => Expr::intern(ExprNode::Seq(
            random_expr(rng, depth - 1),
            random_expr(rng, depth - 1),
        )),
        _ => Expr::intern(ExprNode::If(
            random_pred(rng, 3),
            random_expr(rng, depth - 1),
            random_expr(rng, depth - 1),
        )),
    }
}

/// A handful of representative states (full enumeration is too large for
/// per-case testing).
fn states() -> Vec<FileSystem> {
    let mut out = vec![FileSystem::new(), FileSystem::with_root()];
    let all = enumerate_filesystems(&paths(), &contents()[..1]);
    for (i, fs) in all.into_iter().enumerate() {
        if i % 7 == 0 {
            out.push(fs.set(FsPath::root(), FileState::DIR));
        }
    }
    out
}

fn consistent(fs: &FileSystem) -> bool {
    fs.iter().all(|(p, _)| match p.parent() {
        None => true,
        Some(parent) => fs.is_dir(parent),
    })
}

/// The smart constructors (`seq`, `if_`, `and`, `or`, `not`) preserve
/// semantics relative to the raw (intern-only) constructors.
#[test]
fn smart_constructors_preserve_semantics() {
    let mut rng = Prng::new(10);
    for _ in 0..256 {
        let a = random_expr(&mut rng, 4);
        let b = random_expr(&mut rng, 4);
        let p = random_pred(&mut rng, 3);
        for fs in states() {
            let smart_seq = a.seq(b);
            let raw_seq = Expr::intern(ExprNode::Seq(a, b));
            assert_eq!(eval(smart_seq, &fs), eval(raw_seq, &fs));

            let smart_if = Expr::if_(p, a, b);
            let raw_if = Expr::intern(ExprNode::If(p, a, b));
            assert_eq!(eval(smart_if, &fs), eval(raw_if, &fs));
        }
    }
}

/// Predicate smart constructors agree with raw connectives.
#[test]
fn pred_constructors_preserve_semantics() {
    let mut rng = Prng::new(11);
    for _ in 0..256 {
        let a = random_pred(&mut rng, 3);
        let b = random_pred(&mut rng, 3);
        for fs in states() {
            let smart = a.and(b);
            let raw = Pred::intern(PredNode::And(a, b));
            assert_eq!(eval_pred(smart, &fs), eval_pred(raw, &fs));
            let smart = a.or(b);
            let raw = Pred::intern(PredNode::Or(a, b));
            assert_eq!(eval_pred(smart, &fs), eval_pred(raw, &fs));
            let smart = a.not();
            let raw = Pred::intern(PredNode::Not(a));
            assert_eq!(eval_pred(smart, &fs), eval_pred(raw, &fs));
        }
    }
}

/// Builds predicates through the *smart* connectives only, so the
/// double-negation law below can demand structural (id) equality — a raw
/// `Not(True)` node would legitimately fold away, as in the seed IR.
fn random_smart_pred(rng: &mut Prng, depth: usize) -> Pred {
    if depth == 0 || rng.usize(3) == 0 {
        return random_pred(rng, 0);
    }
    match rng.usize(3) {
        0 => random_smart_pred(rng, depth - 1).and(random_smart_pred(rng, depth - 1)),
        1 => random_smart_pred(rng, depth - 1).or(random_smart_pred(rng, depth - 1)),
        _ => random_smart_pred(rng, depth - 1).not(),
    }
}

/// The seed Box-IR algebraic laws hold *structurally* on handles: the
/// smart constructors fold `Skip;e ≡ e`, `if true e1 e2 ≡ e1`, constant
/// connectives, and double negation to the very same arena node.
#[test]
fn smart_constructor_algebraic_laws() {
    let mut rng = Prng::new(15);
    for _ in 0..256 {
        let e1 = random_expr(&mut rng, 4);
        let e2 = random_expr(&mut rng, 4);
        let p = random_smart_pred(&mut rng, 3);
        // Sequencing unit and absorber.
        assert_eq!(Expr::SKIP.seq(e1), e1, "Skip;e ≡ e");
        assert_eq!(e1.seq(Expr::SKIP), e1, "e;Skip ≡ e");
        assert_eq!(Expr::ERROR.seq(e1), Expr::ERROR, "Error;e ≡ Error");
        // Conditional folding.
        assert_eq!(Expr::if_(Pred::TRUE, e1, e2), e1, "if true e1 e2 ≡ e1");
        assert_eq!(Expr::if_(Pred::FALSE, e1, e2), e2, "if false e1 e2 ≡ e2");
        assert_eq!(Expr::if_(p, e1, e1), e1, "equal branches collapse");
        // Boolean constant folding and double negation.
        assert_eq!(Pred::TRUE.and(p), p);
        assert_eq!(p.and(Pred::TRUE), p);
        assert_eq!(Pred::FALSE.and(p), Pred::FALSE);
        assert_eq!(Pred::TRUE.or(p), Pred::TRUE);
        assert_eq!(Pred::FALSE.or(p), p);
        assert_eq!(p.not().not(), p, "¬¬p ≡ p structurally");
    }
}

/// De Morgan duals are semantically equivalent (the constructors do not
/// rewrite them structurally, matching the seed IR, but the semantics must
/// agree on every state).
#[test]
fn de_morgan_laws_hold_semantically() {
    let mut rng = Prng::new(16);
    for _ in 0..128 {
        let a = random_pred(&mut rng, 3);
        let b = random_pred(&mut rng, 3);
        let not_and = a.and(b).not();
        let or_nots = a.not().or(b.not());
        let not_or = a.or(b).not();
        let and_nots = a.not().and(b.not());
        for fs in states() {
            assert_eq!(
                eval_pred(not_and, &fs),
                eval_pred(or_nots, &fs),
                "¬(a∧b) ≡ ¬a∨¬b on {fs}"
            );
            assert_eq!(
                eval_pred(not_or, &fs),
                eval_pred(and_nots, &fs),
                "¬(a∨b) ≡ ¬a∧¬b on {fs}"
            );
        }
    }
}

/// Hash-consing: rebuilding a structurally identical tree from scratch
/// always yields the identical handle, for both raw interning and smart
/// construction.
#[test]
fn structurally_equal_trees_get_equal_ids() {
    for seed in [21u64, 22, 23, 24] {
        let mut rng1 = Prng::new(seed);
        let mut rng2 = Prng::new(seed);
        for _ in 0..128 {
            let e1 = random_expr(&mut rng1, 5);
            let e2 = random_expr(&mut rng2, 5);
            assert_eq!(e1, e2, "same construction sequence, same id");
            assert_eq!(e1.index(), e2.index());
            let p1 = random_pred(&mut rng1, 4);
            let p2 = random_pred(&mut rng2, 4);
            assert_eq!(p1, p2);
        }
    }
}

/// Evaluation preserves tree consistency: a consistent input never
/// produces an inconsistent output.
#[test]
fn eval_preserves_consistency() {
    let mut rng = Prng::new(12);
    for _ in 0..256 {
        let e = random_expr(&mut rng, 4);
        for fs in states() {
            if !consistent(&fs) {
                continue;
            }
            if let Ok(out) = eval(e, &fs) {
                assert!(consistent(&out), "{e} broke consistency: {out}");
            }
        }
    }
}

/// Evaluation never mutates its input (functional semantics).
#[test]
fn eval_is_pure() {
    let mut rng = Prng::new(13);
    for _ in 0..256 {
        let e = random_expr(&mut rng, 4);
        let fs = FileSystem::with_root();
        let snapshot = fs.clone();
        let _ = eval(e, &fs);
        assert_eq!(fs, snapshot);
    }
}

/// `size` and `paths` are consistent under sequencing, and the memoized
/// path sets are shared allocations.
#[test]
fn structural_accessors() {
    let mut rng = Prng::new(14);
    for _ in 0..256 {
        let a = random_expr(&mut rng, 4);
        let b = random_expr(&mut rng, 4);
        let s = Expr::intern(ExprNode::Seq(a, b));
        assert_eq!(s.size(), 1 + a.size() + b.size());
        let mut union = (*a.paths()).clone();
        union.extend(b.paths().iter().copied());
        assert_eq!(*s.paths(), union);
        assert!(
            std::sync::Arc::ptr_eq(&s.paths(), &s.paths()),
            "path sets are cached per node"
        );
    }
}

/// Eight raw threads intern overlapping paths, contents, and composite
/// expressions into the global sharded arena. Interning is canonical:
/// equal data must yield the same Copy id on every thread, and ids handed
/// out during the race must still resolve to structurally equal programs
/// afterwards.
#[test]
fn sharded_arena_survives_concurrent_interning() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 200;
    let results: Vec<Vec<Expr>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let mut exprs = Vec::with_capacity(ROUNDS);
                    for r in 0..ROUNDS {
                        // Every thread builds the same program for round
                        // `r`; only the interning order races.
                        let path =
                            FsPath::parse(&format!("/stress/d{}/f{}", r % 7, r % 13)).unwrap();
                        let content = Content::intern(&format!("payload-{}", r % 11));
                        let e = Expr::if_(
                            Pred::does_not_exist(path),
                            Expr::create_file(path, content),
                            Expr::rm(path).seq(Expr::SKIP),
                        );
                        // Touch thread-distinct data too, so shards see
                        // genuinely concurrent inserts, not just lookups.
                        let _ = Content::intern(&format!("thread-{t}-round-{r}"));
                        exprs.push(e);
                    }
                    exprs
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Canonical interning: the same program from every thread is the same
    // Copy id, so plain `==` agreement across all eight is exact.
    for r in 0..ROUNDS {
        let first = results[0][r];
        for (t, per_thread) in results.iter().enumerate() {
            assert_eq!(
                per_thread[r], first,
                "round {r}: thread {t} interned a different id for equal data"
            );
        }
    }
    // Distinct programs still get distinct ids.
    let unique: std::collections::BTreeSet<_> = (0..ROUNDS)
        .map(|r| format!("{:?}", results[0][r]))
        .collect();
    assert!(unique.len() > 1, "stress programs must not all collapse");
}
