//! **rehearsal-core** — the determinacy and idempotency analyses of
//! *Rehearsal: A Configuration Verification Tool for Puppet* (PLDI 2016).
//!
//! The pipeline (paper §3–§5):
//!
//! 1. Puppet manifests are evaluated to a *resource graph* by
//!    `rehearsal-puppet` and each resource is compiled to an FS program by
//!    `rehearsal-resources`.
//! 2. [`determinism::check_determinism`] decides whether every valid order
//!    of the graph produces the same outcome on every input, using three
//!    reductions to stay tractable: resource [`elimination`], path
//!    [`prune`]-ing, and [`commutativity`]-based partial-order reduction.
//! 3. Once deterministic, [`idempotence`] (`e ≡ e; e`) and post-state
//!    [`invariants`] are single symbolic queries; idempotence first tries
//!    a solver-free [`certify`] certificate.
//!
//! The symbolic [`encoder`] grounds everything to the CDCL SAT solver in
//! `rehearsal-solver`; verdicts come with *replayed* counterexamples (the
//! initial filesystem plus two resource orders, executed by the concrete
//! FS evaluator).
//!
//! The convenient entry point is [`Rehearsal`]:
//!
//! ```
//! use rehearsal_core::Rehearsal;
//! use rehearsal_pkgdb::Platform;
//!
//! let tool = Rehearsal::new(Platform::Ubuntu);
//! let report = tool.check_determinism(r#"
//!     package { 'vim': ensure => present }
//!     file { '/home/carol/.vimrc': content => 'syntax on' }
//!     user { 'carol': ensure => present, managehome => true }
//! "#)?;
//! assert!(!report.is_deterministic(), "the .vimrc needs its user first");
//! # Ok::<(), rehearsal_core::RehearsalError>(())
//! ```

#![warn(missing_docs)]

pub mod bitset;
pub mod certify;
pub mod commutativity;
pub mod determinism;
pub mod domain;
pub mod elimination;
pub mod encoder;
pub mod equivalence;
pub mod footprint;
pub mod idempotence;
pub mod invariants;
mod memo;
pub mod pipeline;
pub mod prune;
pub mod repair;
pub mod report;

pub use determinism::{
    check_determinism, AnalysisAborted, AnalysisOptions, CancelToken, Counterexample,
    DeterminismReport, DeterminismStats, FsGraph,
};
pub use equivalence::{check_expr_equivalence, EquivalenceReport};
pub use footprint::{expr_digest, footprint, graph_digest, pred_digest, Footprint};
pub use idempotence::{
    check_expr_idempotence, check_idempotence, IdempotenceCounterexample, IdempotenceReport,
};
pub use invariants::{check_expr_invariant, check_invariant, Invariant, InvariantReport};
pub use pipeline::{
    analyze, printed_ast, Rehearsal, RehearsalError, RehearsalErrorKind, SourceAnalysis,
    VerificationReport,
};
pub use repair::{suggest_repair, RepairReport};
pub use report::{
    aborted_diagnostic, determinism_diagnostics, idempotence_diagnostics, race_diagnostic,
    racing_pair, render_counterexample, render_determinism, render_idempotence,
};
