//! The paper's evaluation, as tests (§6 "Bugs found"): the 13 third-party
//! benchmarks produce the expected verdicts — six non-deterministic, seven
//! deterministic — and all fixed versions verify deterministic *and*
//! idempotent.

use rehearsal::benchmarks::{by_name, Benchmark, FIXED_SUITE, SUITE};
use rehearsal::{DeterminismReport, Platform, Rehearsal};

fn tool() -> Rehearsal {
    Rehearsal::new(Platform::Ubuntu)
}

#[test]
fn suite_has_paper_composition() {
    assert_eq!(SUITE.len(), 13, "13 third-party benchmarks");
    let nondet = SUITE.iter().filter(|b| !b.deterministic).count();
    assert_eq!(nondet, 6, "six have determinism bugs");
    for b in SUITE.iter().filter(|b| !b.deterministic) {
        assert!(b.name.ends_with("-nondet"), "{}", b.name);
    }
}

fn check(b: &Benchmark) {
    let report = tool()
        .check_determinism(b.source)
        .unwrap_or_else(|e| panic!("{}: {e}", b.name));
    assert_eq!(
        report.is_deterministic(),
        b.deterministic,
        "{}: wrong verdict",
        b.name
    );
    if let DeterminismReport::NonDeterministic(cex, _) = report {
        // Every counterexample must replay to a real divergence.
        assert_ne!(
            cex.outcome_a, cex.outcome_b,
            "{}: counterexample failed to replay",
            b.name
        );
    }
}

#[test]
fn amavis_verdict() {
    check(&by_name("amavis").unwrap());
}

#[test]
fn bind_verdict() {
    check(&by_name("bind").unwrap());
}

#[test]
fn clamav_verdict() {
    check(&by_name("clamav").unwrap());
}

#[test]
fn dns_nondet_verdict() {
    check(&by_name("dns-nondet").unwrap());
}

#[test]
fn hosting_verdict() {
    check(&by_name("hosting").unwrap());
}

#[test]
fn irc_nondet_verdict() {
    check(&by_name("irc-nondet").unwrap());
}

#[test]
fn jpa_verdict() {
    check(&by_name("jpa").unwrap());
}

#[test]
fn logstash_nondet_verdict() {
    check(&by_name("logstash-nondet").unwrap());
}

#[test]
fn monit_verdict() {
    check(&by_name("monit").unwrap());
}

#[test]
fn nginx_verdict() {
    check(&by_name("nginx").unwrap());
}

#[test]
fn ntp_nondet_verdict() {
    check(&by_name("ntp-nondet").unwrap());
}

#[test]
fn rsyslog_nondet_verdict() {
    check(&by_name("rsyslog-nondet").unwrap());
}

#[test]
fn xinetd_nondet_verdict() {
    check(&by_name("xinetd-nondet").unwrap());
}

/// §6: "For each non-deterministic program, we developed a fix and
/// verified that Rehearsal reports that it is deterministic and
/// idempotent."
#[test]
fn fixed_suite_verifies_fully() {
    for b in FIXED_SUITE {
        let report = tool()
            .verify(b.source)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        assert!(
            report.determinism.is_deterministic(),
            "{}: fixed version must be deterministic",
            b.name
        );
        assert!(
            report
                .idempotence
                .as_ref()
                .map(|r| r.is_idempotent())
                .unwrap_or(false),
            "{}: fixed version must be idempotent",
            b.name
        );
    }
}

/// The found bugs are the classes the paper reports: missing
/// package→file dependencies. Divergences come in two flavors — one order
/// errors (file written into a directory the package has not created), or
/// both succeed with different contents (package overwrites the custom
/// config). Both must occur across the suite.
#[test]
fn nondet_counterexamples_show_missing_package_deps() {
    let mut error_divergences = 0;
    let mut silent_divergences = 0;
    for name in [
        "dns-nondet",
        "irc-nondet",
        "logstash-nondet",
        "ntp-nondet",
        "rsyslog-nondet",
        "xinetd-nondet",
    ] {
        let b = by_name(name).unwrap();
        let report = tool().check_determinism(b.source).unwrap();
        let DeterminismReport::NonDeterministic(cex, _) = report else {
            panic!("{name} must be nondeterministic");
        };
        assert_ne!(cex.outcome_a, cex.outcome_b, "{name}: must replay");
        if cex.outcome_a.is_err() || cex.outcome_b.is_err() {
            error_divergences += 1;
        } else {
            silent_divergences += 1;
        }
    }
    assert!(error_divergences > 0, "some benchmark shows an error race");
    assert!(
        error_divergences + silent_divergences == 6,
        "all six diverge"
    );
}

/// Statistics sanity: pruning dramatically reduces the tracked paths on
/// package-heavy benchmarks (fig. 11a's effect).
#[test]
fn pruning_shrinks_tracked_paths() {
    use rehearsal::AnalysisOptions;
    let b = by_name("amavis").unwrap();
    let tool = tool();
    let graph = tool.lower(b.source).unwrap();

    let no_prune = AnalysisOptions {
        pruning: false,
        elimination: false,
        ..AnalysisOptions::default()
    };
    let full = rehearsal::check_determinism(&graph, &no_prune).unwrap();

    let pruned = AnalysisOptions {
        elimination: false,
        ..AnalysisOptions::default()
    };
    let small = rehearsal::check_determinism(&graph, &pruned).unwrap();

    assert!(
        small.stats().tracked_paths * 2 < full.stats().tracked_paths,
        "pruning should at least halve tracked paths: {} vs {}",
        small.stats().tracked_paths,
        full.stats().tracked_paths
    );
}

/// The heaviest deterministic manifests split into several footprint
/// components, each checked for idempotence on its own. A coarser
/// footprint relation would merge them and slow the check down without
/// changing any verdict, so the counts are pinned here.
#[test]
fn heavy_manifests_split_into_idempotence_components() {
    use rehearsal::core::idempotence::components;
    let tool = tool();
    for (name, expected) in [("jpa", 4), ("hosting", 3), ("amavis", 4), ("logstash", 2)] {
        let graph = tool.lower(by_name(name).unwrap().source).unwrap();
        assert_eq!(components(&graph).len(), expected, "{name}");
    }
}
