//! Integration tests for the solver-free lint pass: the R2001 soundness
//! pin (every NONDET benchmark is flagged, every deterministic one is
//! not), the solver-free guarantee (no SAT counters move), the speed
//! budget, golden-file renders, and JSON round-trips.
//!
//! Regenerate the golden files with
//! `REGENERATE_GOLDEN=1 cargo test --test lint`.

use rehearsal::fleet::{diagnostic_from_json, diagnostic_json, parse_json};
use rehearsal::trace::Session;
use rehearsal::{codes, lint_source, LintOptions, Severity};
use std::path::PathBuf;

fn lint(name: &str, source: &str) -> rehearsal::LintReport {
    lint_source(name, source, &LintOptions::default())
}

fn has_code(report: &rehearsal::LintReport, code: &str) -> bool {
    report.findings.iter().any(|d| d.code == code)
}

// ---- the R2001 soundness pin ----

/// The headline guarantee: `race-candidate` is a sound pre-screen for the
/// explorer. Every benchmark the explorer proves NON-DETERMINISTIC
/// contains an unordered overlapping pair, so R2001 must fire on all six
/// `-nondet` manifests — and on none of the deterministic ones (the
/// bundled manifests are kept lint-clean, so this doubles as a
/// false-positive pin).
#[test]
fn race_candidate_flags_every_nondet_benchmark_and_no_det_one() {
    let mut nondet = 0;
    for b in rehearsal::benchmarks::SUITE
        .iter()
        .chain(rehearsal::benchmarks::FIXED_SUITE)
    {
        let report = lint(b.name, b.source);
        if b.deterministic {
            assert!(
                !has_code(&report, "R2001"),
                "{}: false positive on a deterministic manifest:\n{}",
                b.name,
                report.render()
            );
        } else {
            assert!(
                has_code(&report, "R2001"),
                "{}: NONDET manifest missed by race-candidate (soundness!)",
                b.name
            );
            nondet += 1;
        }
    }
    assert_eq!(nondet, 6, "all six NONDET benchmarks covered");
}

/// The metadata suite: lint always models metadata (effects only grow,
/// so the pre-screen stays sound for both explorer configurations). The
/// three metadata races are flagged; their `->`-fixed twins are not.
#[test]
fn race_candidate_covers_the_metadata_suite() {
    for b in rehearsal::benchmarks::METADATA_SUITE {
        let report = lint(b.name, b.source);
        assert_eq!(
            has_code(&report, "R2001"),
            !b.deterministic_with_metadata,
            "{}:\n{}",
            b.name,
            report.render()
        );
    }
}

/// The deterministic bundled manifests are lint-clean at warning level —
/// except the metadata twins, whose same-path-different-metadata shape is
/// the scenario itself (R2004 stays, by design).
#[test]
fn deterministic_bundled_manifests_are_lint_clean() {
    for b in rehearsal::benchmarks::FIXED_SUITE {
        let report = lint(b.name, b.source);
        let loud: Vec<_> = report
            .findings
            .iter()
            .filter(|d| d.severity >= Severity::Warning)
            .collect();
        assert!(
            loud.is_empty(),
            "{}: expected lint-clean, got:\n{}",
            b.name,
            report.render()
        );
    }
}

// ---- the solver-free and speed pins ----

/// Linting the whole bundled corpus never touches the SAT solver: the
/// `sat.*` counters stay unset while the `lint.*` counters move. This is
/// what makes the pass safe to run on every manifest of a fleet before
/// the explorer.
#[test]
fn lint_is_solver_free() {
    let session = Session::new();
    let _guard = session.install();
    for b in rehearsal::benchmarks::SUITE
        .iter()
        .chain(rehearsal::benchmarks::FIXED_SUITE)
    {
        let _ = lint(b.name, b.source);
    }
    for b in rehearsal::benchmarks::METADATA_SUITE {
        let _ = lint(b.name, b.source);
    }
    let snap = session.snapshot();
    assert_eq!(snap.metrics.counter("sat.queries"), None);
    assert_eq!(snap.metrics.counter("sat.queries_incremental"), None);
    let rules_run = snap.metrics.counter("lint.rules_run").unwrap_or(0);
    assert!(rules_run > 0, "lint.rules_run counted ({rules_run})");
    assert!(snap.metrics.counter("lint.findings").is_some());
}

/// The pass stays in static-analysis time: under 50ms per bundled
/// manifest even unoptimized (release builds are ~1ms). Each manifest is
/// timed as the best of 3 runs, so one scheduling stall on a loaded
/// machine cannot decide the result; lint cost itself shows in all 3.
#[test]
fn lint_stays_under_fifty_millis_per_manifest() {
    for b in rehearsal::benchmarks::SUITE
        .iter()
        .chain(rehearsal::benchmarks::FIXED_SUITE)
    {
        let elapsed = (0..3)
            .map(|_| {
                let start = std::time::Instant::now();
                let _ = lint(b.name, b.source);
                start.elapsed()
            })
            .min()
            .unwrap();
        assert!(
            elapsed.as_millis() < 50,
            "{}: lint took {elapsed:?} at best of 3",
            b.name
        );
    }
}

// ---- golden-file renders ----

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares rendered text against a committed golden file (or rewrites it
/// under `REGENERATE_GOLDEN=1`).
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("REGENERATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        actual,
        expected,
        "rendered output diverged from {} (set REGENERATE_GOLDEN=1 to update)",
        path.display()
    );
}

#[test]
fn golden_lint_race_candidate_two_snippets() {
    let src = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("benchmarks/ntp-nondet.pp"),
    )
    .unwrap();
    let report = lint("benchmarks/ntp-nondet.pp", &src);
    let out = report.render();
    assert!(out.contains("warning[R2001]"), "{out}");
    assert!(out.contains('^'), "primary carets: {out}");
    assert_golden("lint_race_ntp_nondet.txt", &out);
}

#[test]
fn golden_lint_mixed_rules() {
    // The undeclared reference sits in a dead branch so evaluation still
    // succeeds and the catalog rules (R2002, R2008) run alongside it.
    let src = "$unused = 1\n\
               file { '/etc/app.conf': content => 'x', mode => '999' }\n\
               service { 'app': ensure => running, require => File['/etc/app.conf'] }\n\
               if false { file { '/dead': require => File['/nowhere'] } }\n";
    let report = lint("mixed.pp", src);
    let out = report.render();
    for code in ["R2002", "R2003", "R2005", "R2008"] {
        assert!(out.contains(code), "missing {code}:\n{out}");
    }
    assert_golden("lint_mixed.txt", &out);
}

// ---- JSON round-trips ----

/// Every lint finding survives the documented JSON encoding (the same
/// encoder fleet rows and `lint --json` use).
#[test]
fn lint_findings_roundtrip_through_json() {
    let src = "$unused = 1\n\
               file { '/etc/app.conf': content => 'x', mode => '999' }\n\
               service { 'app': ensure => running, require => File['/etc/app.conf'] }\n";
    let report = lint("roundtrip.pp", src);
    assert!(report.findings.len() >= 3, "{}", report.render());
    for d in &report.findings {
        assert!(codes::is_registered(&d.code), "{}", d.code);
        let text = diagnostic_json(d).render();
        let back = diagnostic_from_json(&parse_json(&text).unwrap())
            .unwrap_or_else(|| panic!("decode failed for {text}"));
        assert_eq!(&back, d, "round-trip changed the finding");
        assert!(back.span().same(&d.span()), "span survived");
    }
}
