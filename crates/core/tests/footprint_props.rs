//! Seeded property tests for footprint summaries.
//!
//! Idempotence components and lint's race candidates both rest on one
//! claim, tested here against the concrete semantics with seeded random
//! programs: **disjoint footprints commute** — when two programs'
//! footprint summaries are disjoint, running `a; b` and `b; a` is
//! equivalent on every input (the summaries soundly overapproximate the
//! programs' effects).

use rehearsal_core::{check_expr_equivalence, footprint, AnalysisOptions};
use rehearsal_fs::{Content, Expr, FsPath, MetaField, Pred};

/// A tiny splitmix-style generator: deterministic, seed-printable, no
/// dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let z = self.0 ^ (self.0 >> 31);
        z.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const PATHS: &[&str] = &[
    "/a",
    "/a/x",
    "/a/y",
    "/b",
    "/b/x",
    "/etc",
    "/etc/app.conf",
    "/etc/motd",
    "/srv",
    "/srv/data",
];

const CONTENTS: &[&str] = &["alpha", "beta", "gamma"];

fn path(rng: &mut Rng) -> FsPath {
    FsPath::parse(PATHS[rng.pick(PATHS.len())]).unwrap()
}

fn content(rng: &mut Rng) -> Content {
    Content::intern(CONTENTS[rng.pick(CONTENTS.len())])
}

/// One random primitive operation.
fn op(rng: &mut Rng) -> Expr {
    match rng.pick(6) {
        0 => Expr::mkdir(path(rng)),
        1 => Expr::create_file(path(rng), content(rng)),
        2 => Expr::rm(path(rng)),
        3 => Expr::chmeta(path(rng), MetaField::Mode, content(rng)),
        4 => {
            let p = path(rng);
            Expr::if_(
                Pred::is_dir(p),
                Expr::create_file(path(rng), content(rng)),
                Expr::SKIP,
            )
        }
        _ => {
            let p = path(rng);
            Expr::if_(Pred::is_file(p), Expr::rm(p), Expr::mkdir(path(rng)))
        }
    }
}

/// A random resource program: one to three primitive ops in sequence.
fn program(rng: &mut Rng) -> Expr {
    let mut e = op(rng);
    for _ in 0..rng.pick(3) {
        e = e.seq(op(rng));
    }
    e
}

#[test]
fn disjoint_footprints_commute_concretely() {
    let mut rng = Rng(0x5eed_0001);
    let options = AnalysisOptions::default();
    let mut checked = 0;
    for _ in 0..300 {
        let a = program(&mut rng);
        let b = program(&mut rng);
        if !footprint(a).disjoint(&footprint(b)) {
            continue;
        }
        checked += 1;
        let report = check_expr_equivalence(a.seq(b), b.seq(a), &options)
            .expect("equivalence check must not abort");
        assert!(
            report.is_equivalent(),
            "disjoint footprints must commute on every input:\n  a = {a:?}\n  b = {b:?}"
        );
    }
    assert!(
        checked >= 20,
        "generator produced too few disjoint pairs ({checked})"
    );
}
