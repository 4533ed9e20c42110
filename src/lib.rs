//! **Rehearsal** — a configuration verification tool for Puppet.
//!
//! A from-scratch Rust implementation of *Rehearsal: A Configuration
//! Verification Tool for Puppet* (Shambaugh, Weiss, Guha — PLDI 2016).
//! Rehearsal proves that a Puppet manifest is **deterministic** (every
//! resource order produces the same machine state on every input) and
//! **idempotent** (applying it twice equals applying it once), or produces
//! a concrete, replayed counterexample.
//!
//! This crate is the user-facing facade: it re-exports the pipeline from
//! the workspace crates and ships the reconstructed benchmark suite used
//! by the paper's evaluation.
//!
//! # Quickstart
//!
//! ```
//! use rehearsal::{Platform, Rehearsal};
//!
//! let tool = Rehearsal::new(Platform::Ubuntu);
//! let report = tool.verify(r#"
//!     package { 'vim': ensure => present }
//!     file { '/home/carol/.vimrc': content => 'syntax on' }
//!     user { 'carol': ensure => present, managehome => true }
//!     User['carol'] -> File['/home/carol/.vimrc']
//! "#)?;
//! assert!(report.is_correct());
//! # Ok::<(), rehearsal::RehearsalError>(())
//! ```
//!
//! # Architecture
//!
//! * [`puppet`] — lexer, parser, evaluator: manifests → resource graphs;
//! * [`resources`] — the compiler `C`: resources → FS programs;
//! * [`fs`] — the FS language and its concrete semantics;
//! * [`pkgdb`] — package listings (the `apt-file`/`repoquery` substitute);
//! * [`solver`] — CDCL SAT + finite-domain formulas (the Z3 substitute);
//! * [`core`] — the determinacy/idempotency analyses;
//! * [`lint`] — the solver-free static analyzer (`rehearsal lint`);
//! * [`trace`] — phase-scoped tracing, the metrics registry, and profile
//!   export (`--timings`, `--trace`, `--metrics`).

#![warn(missing_docs)]

pub use rehearsal_core::{
    analyze, check_determinism, check_expr_equivalence, check_expr_idempotence, check_idempotence,
    check_invariant, AnalysisAborted, AnalysisOptions, CancelToken, Counterexample,
    DeterminismReport, DeterminismStats, EquivalenceReport, FsGraph, IdempotenceReport, Invariant,
    InvariantReport, Rehearsal, RehearsalError, RehearsalErrorKind, SourceAnalysis,
    VerificationReport,
};
pub use rehearsal_core::{
    determinism_diagnostics, idempotence_diagnostics, race_diagnostic, render_counterexample,
    render_determinism, render_idempotence,
};
pub use rehearsal_core::{suggest_repair, RepairReport};
pub use rehearsal_diag::{
    codes, Diagnostic, FileId, Label, Pos, RenderOptions, Severity, SourceMap, Span,
};
pub use rehearsal_fleet::{
    github_annotations, FleetCounts, FleetEngine, FleetJob, FleetOptions, FleetReport, Verdict,
    VerdictCache,
};
pub use rehearsal_lint::{lint_source, LintLevel, LintOptions, LintReport, RuleInfo, RULES};
pub use rehearsal_pkgdb::Platform;
pub use rehearsal_puppet::Facts;

/// The analysis core (re-export of `rehearsal-core`).
pub mod core {
    pub use rehearsal_core::*;
}

/// The unified diagnostics surface (re-export of `rehearsal-diag`).
pub mod diag {
    pub use rehearsal_diag::*;
}

/// The batch-verification engine (re-export of `rehearsal-fleet`).
pub mod fleet {
    pub use rehearsal_fleet::*;
}

/// The FS language (re-export of `rehearsal-fs`).
pub mod fs {
    pub use rehearsal_fs::*;
}

/// The solver-free static analyzer (re-export of `rehearsal-lint`).
pub mod lint {
    pub use rehearsal_lint::*;
}

/// Package listings (re-export of `rehearsal-pkgdb`).
pub mod pkgdb {
    pub use rehearsal_pkgdb::*;
}

/// The Puppet frontend (re-export of `rehearsal-puppet`).
pub mod puppet {
    pub use rehearsal_puppet::*;
}

/// The resource compiler (re-export of `rehearsal-resources`).
pub mod resources {
    pub use rehearsal_resources::*;
}

/// The SAT/finite-domain solver (re-export of `rehearsal-solver`).
pub mod solver {
    pub use rehearsal_solver::*;
}

/// The warm-core verification daemon: HTTP endpoints, watch-mode drift
/// detection, hash-chained run history, and the coverage gate
/// (re-export of `rehearsal-serve`).
pub mod serve {
    pub use rehearsal_serve::*;
}

/// Phase tracing, the metrics registry, and profile export (re-export of
/// `rehearsal-trace`).
pub mod trace {
    pub use rehearsal_trace::*;
}

/// The reconstructed benchmark suite from the paper's evaluation (§6).
pub mod benchmarks {
    /// One benchmark manifest.
    #[derive(Debug, Clone, Copy)]
    pub struct Benchmark {
        /// The name used in the paper's figures.
        pub name: &'static str,
        /// Puppet source text.
        pub source: &'static str,
        /// Whether the paper (and our reconstruction) expects it to be
        /// deterministic.
        pub deterministic: bool,
    }

    /// The 13 third-party benchmarks of fig. 11 (six `-nondet`).
    pub const SUITE: &[Benchmark] = &[
        Benchmark {
            name: "amavis",
            source: include_str!("../benchmarks/amavis.pp"),
            deterministic: true,
        },
        Benchmark {
            name: "bind",
            source: include_str!("../benchmarks/bind.pp"),
            deterministic: true,
        },
        Benchmark {
            name: "clamav",
            source: include_str!("../benchmarks/clamav.pp"),
            deterministic: true,
        },
        Benchmark {
            name: "dns-nondet",
            source: include_str!("../benchmarks/dns-nondet.pp"),
            deterministic: false,
        },
        Benchmark {
            name: "hosting",
            source: include_str!("../benchmarks/hosting.pp"),
            deterministic: true,
        },
        Benchmark {
            name: "irc-nondet",
            source: include_str!("../benchmarks/irc-nondet.pp"),
            deterministic: false,
        },
        Benchmark {
            name: "jpa",
            source: include_str!("../benchmarks/jpa.pp"),
            deterministic: true,
        },
        Benchmark {
            name: "logstash-nondet",
            source: include_str!("../benchmarks/logstash-nondet.pp"),
            deterministic: false,
        },
        Benchmark {
            name: "monit",
            source: include_str!("../benchmarks/monit.pp"),
            deterministic: true,
        },
        Benchmark {
            name: "nginx",
            source: include_str!("../benchmarks/nginx.pp"),
            deterministic: true,
        },
        Benchmark {
            name: "ntp-nondet",
            source: include_str!("../benchmarks/ntp-nondet.pp"),
            deterministic: false,
        },
        Benchmark {
            name: "rsyslog-nondet",
            source: include_str!("../benchmarks/rsyslog-nondet.pp"),
            deterministic: false,
        },
        Benchmark {
            name: "xinetd-nondet",
            source: include_str!("../benchmarks/xinetd-nondet.pp"),
            deterministic: false,
        },
    ];

    /// The fixed versions of the six non-deterministic benchmarks plus the
    /// seven already-correct ones — the 13 manifests of the idempotence
    /// study (fig. 12).
    pub const FIXED_SUITE: &[Benchmark] = &[
        Benchmark {
            name: "amavis",
            source: include_str!("../benchmarks/amavis.pp"),
            deterministic: true,
        },
        Benchmark {
            name: "bind",
            source: include_str!("../benchmarks/bind.pp"),
            deterministic: true,
        },
        Benchmark {
            name: "clamav",
            source: include_str!("../benchmarks/clamav.pp"),
            deterministic: true,
        },
        Benchmark {
            name: "dns",
            source: include_str!("../benchmarks/dns.pp"),
            deterministic: true,
        },
        Benchmark {
            name: "hosting",
            source: include_str!("../benchmarks/hosting.pp"),
            deterministic: true,
        },
        Benchmark {
            name: "irc",
            source: include_str!("../benchmarks/irc.pp"),
            deterministic: true,
        },
        Benchmark {
            name: "jpa",
            source: include_str!("../benchmarks/jpa.pp"),
            deterministic: true,
        },
        Benchmark {
            name: "logstash",
            source: include_str!("../benchmarks/logstash.pp"),
            deterministic: true,
        },
        Benchmark {
            name: "monit",
            source: include_str!("../benchmarks/monit.pp"),
            deterministic: true,
        },
        Benchmark {
            name: "nginx",
            source: include_str!("../benchmarks/nginx.pp"),
            deterministic: true,
        },
        Benchmark {
            name: "ntp",
            source: include_str!("../benchmarks/ntp.pp"),
            deterministic: true,
        },
        Benchmark {
            name: "rsyslog",
            source: include_str!("../benchmarks/rsyslog.pp"),
            deterministic: true,
        },
        Benchmark {
            name: "xinetd",
            source: include_str!("../benchmarks/xinetd.pp"),
            deterministic: true,
        },
    ];

    /// Looks a benchmark up by name in either suite.
    pub fn by_name(name: &str) -> Option<Benchmark> {
        SUITE
            .iter()
            .chain(FIXED_SUITE.iter())
            .find(|b| b.name == name)
            .copied()
    }

    /// One permission-race benchmark for the metadata-aware FS model.
    #[derive(Debug, Clone, Copy)]
    pub struct MetadataBenchmark {
        /// Benchmark name.
        pub name: &'static str,
        /// Puppet source text.
        pub source: &'static str,
        /// Expected determinism verdict *with the metadata model on*
        /// (`AnalysisOptions::model_metadata = true`). With the model off,
        /// every manifest in this suite is deterministic — the races are
        /// metadata-only by construction (identical contents).
        pub deterministic_with_metadata: bool,
    }

    /// The permission-race suite (`benchmarks-metadata/`): three
    /// metadata-only races plus their `->`-fixed twins. Verdicts are
    /// pinned by the integration tests and the CI bench gate.
    pub const METADATA_SUITE: &[MetadataBenchmark] = &[
        MetadataBenchmark {
            name: "webroot-perms-nondet",
            source: include_str!("../benchmarks-metadata/webroot-perms-nondet.pp"),
            deterministic_with_metadata: false,
        },
        MetadataBenchmark {
            name: "webroot-perms",
            source: include_str!("../benchmarks-metadata/webroot-perms.pp"),
            deterministic_with_metadata: true,
        },
        MetadataBenchmark {
            name: "home-owner-nondet",
            source: include_str!("../benchmarks-metadata/home-owner-nondet.pp"),
            deterministic_with_metadata: false,
        },
        MetadataBenchmark {
            name: "home-owner",
            source: include_str!("../benchmarks-metadata/home-owner.pp"),
            deterministic_with_metadata: true,
        },
        MetadataBenchmark {
            name: "logdir-group-nondet",
            source: include_str!("../benchmarks-metadata/logdir-group-nondet.pp"),
            deterministic_with_metadata: false,
        },
        MetadataBenchmark {
            name: "logdir-group",
            source: include_str!("../benchmarks-metadata/logdir-group.pp"),
            deterministic_with_metadata: true,
        },
    ];
}
