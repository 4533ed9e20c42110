//! The end-to-end Rehearsal pipeline: Puppet source → parse → evaluate →
//! resource graph → resource compiler → determinacy and idempotency
//! analyses.

use crate::determinism::{
    check_determinism, AnalysisAborted, AnalysisOptions, DeterminismReport, FsGraph,
};
use crate::idempotence::{check_idempotence, IdempotenceReport};
use crate::invariants::{check_invariant, Invariant, InvariantReport};
use crate::report::{aborted_diagnostic, determinism_diagnostics, idempotence_diagnostics};
use rehearsal_diag::{Diagnostic, SourceMap};
use rehearsal_pkgdb::{PackageDb, Platform};
use rehearsal_puppet::{
    evaluate, parse, Catalog, CycleError, EvalError, Facts, ParseError, ResourceGraph,
};
use rehearsal_resources::{compile, CompileCtx, CompileError};
use std::fmt;
use std::time::Instant;

/// The source's AST printed back to text, or `None` when it does not
/// parse: the source with its comments and layout normalized away.
/// Parsing the printed text gives back the same AST, so two sources with
/// equal printed forms have equal ASTs and lower to the same catalog and
/// graph.
pub fn printed_ast(source: &str) -> Option<String> {
    parse(source)
        .ok()
        .map(|ast| rehearsal_puppet::print_manifest(&ast))
}

/// Which pipeline stage a [`RehearsalError`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RehearsalErrorKind {
    /// Lexing/parsing failed.
    Parse,
    /// Catalog compilation failed.
    Eval,
    /// The dependency graph has a cycle (e.g. the paper's fig. 3b
    /// composition).
    Cycle,
    /// A resource could not be modeled as an FS program.
    Compile,
    /// The analysis ran out of time or space.
    Aborted,
}

/// Any error on the road from manifest text to a verdict: a thin wrapper
/// over source-anchored [`Diagnostic`]s, tagged with the pipeline stage.
///
/// `Display` keeps the historical one-line message (e.g.
/// `parse error at 3:7: unexpected token`); use
/// [`RehearsalError::diagnostics`] for the structured findings with spans
/// and stable codes, and a [`SourceMap`] to render snippets.
#[derive(Debug, Clone)]
pub struct RehearsalError {
    kind: RehearsalErrorKind,
    message: String,
    diagnostics: Vec<Diagnostic>,
}

impl RehearsalError {
    fn new(kind: RehearsalErrorKind, message: String, diagnostics: Vec<Diagnostic>) -> Self {
        RehearsalError {
            kind,
            message,
            diagnostics,
        }
    }

    /// Which stage failed.
    pub fn kind(&self) -> RehearsalErrorKind {
        self.kind
    }

    /// The structured findings (≥ 1; the first is the principal error).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Consumes the error into its findings.
    pub fn into_diagnostics(self) -> Vec<Diagnostic> {
        self.diagnostics
    }

    /// The message without its stage prefix: for an aborted analysis, the
    /// bare reason (`timeout during …`); otherwise what `Display` prints.
    pub fn reason(&self) -> &str {
        &self.message
    }

    /// The principal finding's stable code (e.g. `R0001`).
    pub fn code(&self) -> &str {
        self.diagnostics
            .first()
            .map(|d| d.code.as_str())
            .unwrap_or("R0000")
    }
}

impl fmt::Display for RehearsalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            RehearsalErrorKind::Aborted => AnalysisAborted {
                reason: self.message.clone(),
            }
            .fmt(f),
            _ => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for RehearsalError {}

impl From<ParseError> for RehearsalError {
    fn from(e: ParseError) -> Self {
        RehearsalError::new(
            RehearsalErrorKind::Parse,
            e.to_string(),
            vec![e.to_diagnostic()],
        )
    }
}
impl From<EvalError> for RehearsalError {
    fn from(e: EvalError) -> Self {
        RehearsalError::new(
            RehearsalErrorKind::Eval,
            e.to_string(),
            vec![e.to_diagnostic()],
        )
    }
}
impl From<CycleError> for RehearsalError {
    fn from(e: CycleError) -> Self {
        RehearsalError::new(
            RehearsalErrorKind::Cycle,
            e.to_string(),
            vec![e.to_diagnostic()],
        )
    }
}
impl From<CompileError> for RehearsalError {
    fn from(e: CompileError) -> Self {
        RehearsalError::new(
            RehearsalErrorKind::Compile,
            e.to_string(),
            vec![e.to_diagnostic()],
        )
    }
}
impl From<AnalysisAborted> for RehearsalError {
    fn from(e: AnalysisAborted) -> Self {
        let d = aborted_diagnostic(&e);
        RehearsalError::new(RehearsalErrorKind::Aborted, e.reason, vec![d])
    }
}

/// The combined verdict of [`Rehearsal::verify`].
#[derive(Debug)]
pub struct VerificationReport {
    /// The determinacy verdict.
    pub determinism: DeterminismReport,
    /// The idempotency verdict; only checked when deterministic (applying
    /// the idempotence check to a non-deterministic manifest would be
    /// unsound, paper §5).
    pub idempotence: Option<IdempotenceReport>,
}

impl VerificationReport {
    /// Whether the manifest passed both checks.
    pub fn is_correct(&self) -> bool {
        self.determinism.is_deterministic()
            && self
                .idempotence
                .as_ref()
                .map(IdempotenceReport::is_idempotent)
                .unwrap_or(false)
    }
}

/// The top-level verification tool: platform + options + package database.
///
/// # Examples
///
/// ```
/// use rehearsal_core::Rehearsal;
/// use rehearsal_pkgdb::Platform;
///
/// let tool = Rehearsal::new(Platform::Ubuntu);
/// let report = tool.verify(
///     "file { '/etc/motd': content => 'welcome' }",
/// )?;
/// assert!(report.is_correct());
/// # Ok::<(), rehearsal_core::RehearsalError>(())
/// ```
#[derive(Debug)]
pub struct Rehearsal {
    facts: Facts,
    db: PackageDb,
    options: AnalysisOptions,
    dependency_closures: bool,
}

impl Rehearsal {
    /// A tool instance for the given platform with the built-in package
    /// database and default options.
    pub fn new(platform: Platform) -> Rehearsal {
        let facts = match platform {
            Platform::Ubuntu => Facts::ubuntu(),
            Platform::Centos => Facts::centos(),
        };
        Rehearsal {
            facts,
            db: PackageDb::builtin(platform),
            options: AnalysisOptions::default(),
            dependency_closures: false,
        }
    }

    /// Enables dependency-closure modeling for packages: installs pull in
    /// dependencies, removals pull in reverse-dependents, as `apt` does.
    /// This is our implementation of the paper's §8 future-work suggestion
    /// (Opium-style metadata) and is what detects the golang-go/perl silent
    /// failure (fig. 3c). Off by default to match the original tool.
    #[must_use]
    pub fn with_dependency_closures(mut self, on: bool) -> Rehearsal {
        self.dependency_closures = on;
        self
    }

    /// Enables the metadata-aware FS model: `owner`/`group`/`mode`
    /// attributes compile to `chown`/`chgrp`/`chmod` steps and `user`
    /// resources own their home directories, so permission races become
    /// checkable. Equivalent to setting
    /// [`AnalysisOptions::model_metadata`]. Off by default — unannotated
    /// pipelines keep bit-identical verdicts.
    #[must_use]
    pub fn with_model_metadata(mut self, on: bool) -> Rehearsal {
        self.options.model_metadata = on;
        self
    }

    /// Models `package { ensure => latest }` distinctly from `present`
    /// (the upgrade re-overwrites the package's files with version-bumped
    /// content) instead of aliasing it to the idempotent install.
    /// Equivalent to setting [`AnalysisOptions::model_latest`]. Off by
    /// default; a diagnostic is recorded either way.
    #[must_use]
    pub fn with_model_latest(mut self, on: bool) -> Rehearsal {
        self.options.model_latest = on;
        self
    }

    /// Replaces the analysis options.
    #[must_use]
    pub fn with_options(mut self, options: AnalysisOptions) -> Rehearsal {
        self.options = options;
        self
    }

    /// Replaces the node facts.
    #[must_use]
    pub fn with_facts(mut self, facts: Facts) -> Rehearsal {
        self.facts = facts;
        self
    }

    /// Replaces the package database.
    #[must_use]
    pub fn with_db(mut self, db: PackageDb) -> Rehearsal {
        self.db = db;
        self
    }

    /// The current analysis options.
    pub fn options(&self) -> &AnalysisOptions {
        &self.options
    }

    /// Parses and evaluates a manifest to a catalog.
    ///
    /// # Errors
    ///
    /// Parse or evaluation errors.
    pub fn catalog(&self, source: &str) -> Result<Catalog, RehearsalError> {
        let manifest = parse(source)?;
        Ok(evaluate(&manifest, &self.facts)?)
    }

    /// Lowers a manifest all the way to an [`FsGraph`].
    ///
    /// # Errors
    ///
    /// Parse, evaluation, cycle, or resource-compilation errors.
    pub fn lower(&self, source: &str) -> Result<FsGraph, RehearsalError> {
        Ok(self.lower_source(source)?.0)
    }

    /// Lowers a manifest to an [`FsGraph`], also returning the non-fatal
    /// [`Diagnostic`]s emitted on the way (e.g. the `ensure => latest`
    /// modeling warning) — the one lowering entry point of the unified
    /// diagnostics API.
    ///
    /// # Errors
    ///
    /// Parse, evaluation, cycle, or resource-compilation errors (each a
    /// [`RehearsalError`] wrapping source-anchored diagnostics).
    pub fn lower_source(&self, source: &str) -> Result<(FsGraph, Vec<Diagnostic>), RehearsalError> {
        let catalog = self.catalog(source)?;
        self.lower_catalog_source(&catalog)
    }

    /// Lowers an already-evaluated catalog to an [`FsGraph`].
    ///
    /// # Errors
    ///
    /// Cycle or resource-compilation errors.
    pub fn lower_catalog(&self, catalog: &Catalog) -> Result<FsGraph, RehearsalError> {
        Ok(self.lower_catalog_source(catalog)?.0)
    }

    /// Lowers an already-evaluated catalog, also returning the non-fatal
    /// [`Diagnostic`]s.
    ///
    /// # Errors
    ///
    /// Cycle or resource-compilation errors.
    pub fn lower_catalog_source(
        &self,
        catalog: &Catalog,
    ) -> Result<(FsGraph, Vec<Diagnostic>), RehearsalError> {
        let _span = rehearsal_trace::span_cat("lower", "core");
        let graph = ResourceGraph::from_catalog(catalog)?;
        let ctx = CompileCtx::new(&self.db)
            .with_dependency_closures(self.dependency_closures)
            .with_model_metadata(self.options.model_metadata)
            .with_model_latest(self.options.model_latest);
        let mut exprs = Vec::with_capacity(graph.len());
        let mut names = Vec::with_capacity(graph.len());
        let mut spans = Vec::with_capacity(graph.len());
        for r in graph.resources() {
            match compile(r, &ctx) {
                Ok(e) => exprs.push(e),
                Err(e) => {
                    // Keep the modeling warnings already emitted for earlier
                    // resources: the error's diagnostics are the full stream
                    // up to the failure, not just the failure.
                    let mut err = RehearsalError::from(e);
                    err.diagnostics.extend(ctx.drain_diagnostics());
                    return Err(err);
                }
            }
            names.push(r.display_name());
            spans.push(r.span());
        }
        let edges: std::collections::BTreeSet<(usize, usize)> =
            graph.edges().iter().copied().collect();
        Ok((
            FsGraph::new(exprs, edges, names).with_spans(spans),
            ctx.drain_diagnostics(),
        ))
    }

    /// Runs the determinacy analysis on a manifest.
    ///
    /// # Errors
    ///
    /// Pipeline errors or [`AnalysisAborted`].
    pub fn check_determinism(&self, source: &str) -> Result<DeterminismReport, RehearsalError> {
        let graph = self.lower(source)?;
        Ok(check_determinism(&graph, &self.options)?)
    }

    /// Runs the idempotence check on a manifest (callers should establish
    /// determinism first; [`Rehearsal::verify`] does).
    ///
    /// # Errors
    ///
    /// Pipeline errors or [`AnalysisAborted`].
    pub fn check_idempotence(&self, source: &str) -> Result<IdempotenceReport, RehearsalError> {
        let graph = self.lower(source)?;
        Ok(check_idempotence(&graph, &self.options)?)
    }

    /// Checks a post-state invariant (callers should establish determinism
    /// first).
    ///
    /// # Errors
    ///
    /// Pipeline errors or [`AnalysisAborted`].
    pub fn check_invariant(
        &self,
        source: &str,
        invariant: &Invariant,
    ) -> Result<InvariantReport, RehearsalError> {
        let graph = self.lower(source)?;
        Ok(check_invariant(&graph, invariant, &self.options)?)
    }

    /// The full verification: lowering, then [`analyze`].
    ///
    /// # Errors
    ///
    /// Pipeline errors or [`AnalysisAborted`].
    pub fn verify(&self, source: &str) -> Result<VerificationReport, RehearsalError> {
        let graph = self.lower(source)?;
        Ok(analyze(&graph, &self.options, &mut Vec::new())?)
    }

    /// The unified-diagnostics entry point: verifies a named manifest and
    /// returns everything as one [`SourceAnalysis`] — the verdict (or the
    /// error that stopped the pipeline), the lowered graph, every
    /// [`Diagnostic`] (errors, analysis findings like the `R3001` race
    /// report, and modeling warnings), and a [`SourceMap`] ready to
    /// render snippets.
    ///
    /// Unlike [`Rehearsal::verify`], this never returns `Err`: failures
    /// become error diagnostics and an `Err` report.
    ///
    /// # Examples
    ///
    /// ```
    /// use rehearsal_core::Rehearsal;
    /// use rehearsal_pkgdb::Platform;
    ///
    /// let tool = Rehearsal::new(Platform::Ubuntu);
    /// let analysis = tool.verify_source(
    ///     "race.pp",
    ///     "file { '/home/carol/.vimrc': content => 'syntax on' }\n\
    ///      user { 'carol': ensure => present, managehome => true }\n",
    /// );
    /// // Nondeterministic: the race is reported as a source-anchored
    /// // R3001 diagnostic pointing at both declarations.
    /// let race = &analysis.diagnostics[0];
    /// assert_eq!(race.code, "R3001");
    /// let rendered = analysis.source_map.render(race);
    /// assert!(rendered.contains("--> race.pp:"));
    /// ```
    pub fn verify_source(&self, name: &str, source: &str) -> SourceAnalysis {
        let source_map = SourceMap::single(name, source);
        let (graph, mut diagnostics) = match self.lower_source(source) {
            Ok(ok) => ok,
            Err(e) => {
                return SourceAnalysis {
                    diagnostics: e.diagnostics().to_vec(),
                    report: Err(e),
                    graph: None,
                    source_map,
                }
            }
        };
        let report = analyze(&graph, &self.options, &mut diagnostics).map_err(RehearsalError::from);
        SourceAnalysis {
            report,
            graph: Some(graph),
            diagnostics,
            source_map,
        }
    }
}

/// The verdict ladder of paper §5, shared by every entry point (`check`,
/// fleet, the daemon): determinism first, then idempotence, only when the
/// graph is deterministic and only under the part of `options.timeout`
/// that determinism left. Each finding is appended to `diagnostics`: the
/// `R3001` race, the `R3002` culprit, or the `R3003` abort.
///
/// # Errors
///
/// [`AnalysisAborted`] when either stage runs out of time or is
/// cancelled; its `R3003` diagnostic is already in `diagnostics`.
pub fn analyze(
    graph: &FsGraph,
    options: &AnalysisOptions,
    diagnostics: &mut Vec<Diagnostic>,
) -> Result<VerificationReport, AnalysisAborted> {
    let started = Instant::now();
    let ladder = |diagnostics: &mut Vec<Diagnostic>| {
        let determinism = check_determinism(graph, options)?;
        diagnostics.extend(determinism_diagnostics(&determinism, graph));
        let idempotence = if determinism.is_deterministic() {
            let mut rest = options.clone();
            rest.timeout = options.timeout.map(|t| t.saturating_sub(started.elapsed()));
            let report = check_idempotence(graph, &rest)?;
            diagnostics.extend(idempotence_diagnostics(&report, graph));
            Some(report)
        } else {
            None
        };
        Ok(VerificationReport {
            determinism,
            idempotence,
        })
    };
    ladder(diagnostics).inspect_err(|aborted| diagnostics.push(aborted_diagnostic(aborted)))
}

/// Everything [`Rehearsal::verify_source`] learned about one manifest.
#[derive(Debug)]
pub struct SourceAnalysis {
    /// The verdict, or the error that stopped the pipeline: a frontend
    /// or compile error, or an aborted analysis
    /// ([`RehearsalErrorKind::Aborted`]).
    pub report: Result<VerificationReport, RehearsalError>,
    /// The lowered graph, when lowering succeeded.
    pub graph: Option<FsGraph>,
    /// Every finding, most severe first within each stage: pipeline
    /// errors, analysis findings (`R3001`/`R3002`), modeling warnings.
    pub diagnostics: Vec<Diagnostic>,
    /// Renders the diagnostics against the named source.
    pub source_map: SourceMap,
}

impl SourceAnalysis {
    /// Whether the manifest verified clean (deterministic + idempotent,
    /// no error diagnostics).
    pub fn is_correct(&self) -> bool {
        self.report
            .as_ref()
            .is_ok_and(VerificationReport::is_correct)
    }

    /// Findings at [`rehearsal_diag::Severity::Error`].
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == rehearsal_diag::Severity::Error)
    }
}

// The batch engine in `rehearsal-fleet` runs analyses from worker threads;
// every entry-point type must stay shareable across threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Rehearsal>();
    assert_send_sync::<AnalysisOptions>();
    assert_send_sync::<crate::determinism::CancelToken>();
    assert_send_sync::<DeterminismReport>();
    assert_send_sync::<IdempotenceReport>();
    assert_send_sync::<VerificationReport>();
    assert_send_sync::<RehearsalError>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn tool() -> Rehearsal {
        Rehearsal::new(Platform::Ubuntu)
    }

    #[test]
    fn trivial_manifest_verifies() {
        let r = tool()
            .verify("file { '/etc/motd': content => 'hi' }")
            .unwrap();
        assert!(r.is_correct());
    }

    #[test]
    fn paper_intro_example_is_nondeterministic() {
        // §1: vim + carol's .vimrc + carol, with no dependency between the
        // user and the file.
        let src = r#"
            package { 'vim': ensure => present }
            file { '/home/carol/.vimrc': content => 'syntax on' }
            user { 'carol': ensure => present, managehome => true }
        "#;
        let r = tool().check_determinism(src).unwrap();
        assert!(!r.is_deterministic(), "missing User -> File dependency");
    }

    #[test]
    fn paper_intro_example_fixed() {
        let src = r#"
            package { 'vim': ensure => present }
            file { '/home/carol/.vimrc': content => 'syntax on' }
            user { 'carol': ensure => present, managehome => true }
            User['carol'] -> File['/home/carol/.vimrc']
        "#;
        let r = tool().verify(src).unwrap();
        assert!(r.determinism.is_deterministic());
        assert!(r.idempotence.unwrap().is_idempotent());
    }

    #[test]
    fn fig3a_apache_missing_dependency() {
        let src = r#"
            file { '/etc/apache2/sites-available/000-default.conf':
              content => 'my site',
            }
            package { 'apache2': ensure => present }
        "#;
        let r = tool().check_determinism(src).unwrap();
        assert!(!r.is_deterministic());
    }

    #[test]
    fn fig3a_apache_fixed() {
        let src = r#"
            file { '/etc/apache2/sites-available/000-default.conf':
              content => 'my site',
              require => Package['apache2'],
            }
            package { 'apache2': ensure => present }
        "#;
        let r = tool().verify(src).unwrap();
        assert!(r.is_correct());
    }

    #[test]
    fn fig3b_false_dependencies_cycle() {
        let src = r#"
            define cpp() {
              if !defined(Package['m4']) { package { 'm4': ensure => present } }
              if !defined(Package['make']) { package { 'make': ensure => present } }
              package { 'gcc': ensure => present }
              Package['m4'] -> Package['make']
              Package['make'] -> Package['gcc']
            }
            define ocaml() {
              if !defined(Package['make']) { package { 'make': ensure => present } }
              if !defined(Package['m4']) { package { 'm4': ensure => present } }
              package { 'ocaml': ensure => present }
              Package['make'] -> Package['m4']
              Package['m4'] -> Package['ocaml']
            }
            cpp { 'dev': }
            ocaml { 'dev': }
        "#;
        let err = tool().check_determinism(src).unwrap_err();
        assert_eq!(err.kind(), RehearsalErrorKind::Cycle, "got: {err}");
        assert_eq!(err.code(), "R0201");
    }

    #[test]
    fn fig3c_silent_failure_two_success_states() {
        // Requires dependency-closure modeling (our §8 extension).
        let src = r#"
            package { 'golang-go': ensure => present }
            package { 'perl': ensure => absent }
        "#;
        let r = tool()
            .with_dependency_closures(true)
            .check_determinism(src)
            .unwrap();
        match r {
            DeterminismReport::NonDeterministic(cex, _) => {
                // Both orders *succeed* but reach different states — the
                // "silent failure".
                assert!(cex.outcome_a.is_ok());
                assert!(cex.outcome_b.is_ok());
                assert_ne!(cex.outcome_a, cex.outcome_b);
            }
            DeterminismReport::Deterministic(_) => panic!("fig 3c is nondeterministic"),
        }
    }

    #[test]
    fn fig3d_not_idempotent() {
        let src = r#"
            file { '/dst': source => '/src' }
            file { '/src': ensure => absent }
            File['/dst'] -> File['/src']
        "#;
        let r = tool().verify(src).unwrap();
        assert!(r.determinism.is_deterministic());
        assert!(!r.idempotence.unwrap().is_idempotent());
    }

    #[test]
    fn exec_resources_are_rejected() {
        let err = tool()
            .check_determinism("exec { 'apt-get update': }")
            .unwrap_err();
        assert_eq!(err.kind(), RehearsalErrorKind::Compile);
        assert_eq!(err.code(), "R1002");
        assert!(
            err.diagnostics()[0].has_resolvable_span(),
            "compile errors point at the declaration"
        );
    }

    #[test]
    fn verify_source_reports_race_with_both_declarations() {
        let src = "package { 'vim': ensure => present }\n\
                   file { '/home/carol/.vimrc': content => 'syntax on' }\n\
                   user { 'carol': ensure => present, managehome => true }\n";
        let a = tool().verify_source("intro.pp", src);
        assert!(!a.is_correct());
        let race = a
            .diagnostics
            .iter()
            .find(|d| d.code == "R3001")
            .expect("race diagnostic");
        assert!(race.primary.is_some());
        assert_eq!(race.secondary.len(), 1);
        assert!(race.has_resolvable_span());
        let rendered = a.source_map.render(race);
        assert!(rendered.contains("--> intro.pp:"), "{rendered}");
        // Both racing declarations are shown as snippets.
        assert!(rendered.matches("--> intro.pp:").count() >= 2, "{rendered}");
    }

    #[test]
    fn verify_source_turns_errors_into_diagnostics() {
        let a = tool().verify_source("bad.pp", "package { 'x' oops }");
        assert!(a.report.is_err());
        assert_eq!(a.diagnostics[0].code, "R0001");
        assert!(a.errors().count() >= 1);
        let rendered = a.source_map.render(&a.diagnostics[0]);
        assert!(rendered.contains("bad.pp:1:"), "{rendered}");
    }

    #[test]
    fn warnings_survive_a_later_compile_error() {
        // The `latest` warning is emitted for the package before the exec
        // resource fails compilation; the error must carry both.
        let src = "package { 'vim': ensure => latest }\nexec { 'x': }";
        let err = tool().lower_source(src).unwrap_err();
        assert_eq!(err.kind(), RehearsalErrorKind::Compile);
        let codes: Vec<&str> = err.diagnostics().iter().map(|d| d.code.as_str()).collect();
        assert!(codes.contains(&"R1002"), "{codes:?}");
        assert!(codes.contains(&"R1101"), "warning kept: {codes:?}");
        // And verify_source surfaces the same full stream.
        let a = tool().verify_source("mix.pp", src);
        assert!(a.diagnostics.iter().any(|d| d.code == "R1101"));
    }

    #[test]
    fn verify_source_collects_modeling_warnings() {
        let a = tool().verify_source("latest.pp", "package { 'vim': ensure => latest }");
        assert!(a.is_correct(), "aliased latest still verifies");
        let warn = a
            .diagnostics
            .iter()
            .find(|d| d.code == "R1101")
            .expect("latest warning");
        assert!(warn.has_resolvable_span());
    }

    #[test]
    fn idempotence_gets_only_the_budget_determinism_left() {
        // Four unordered files explored without reductions make the
        // determinism stage slow; four directories of twenty files with a
        // managed mode make idempotence need SAT (the certificate abstains
        // on metadata), one query per directory.
        let mut src = String::new();
        let mut chain = Vec::new();
        for d in 0..4 {
            src += &format!("file {{ '/d{d}': ensure => directory }}\n");
            chain.push(format!("File['/d{d}']"));
            for f in 0..20 {
                src += &format!("file {{ '/d{d}/f{f}': content => 'x', mode => '0644' }}\n");
                chain.push(format!("File['/d{d}/f{f}']"));
            }
        }
        src += &format!("{}\n", chain.join(" -> "));
        for a in 0..4 {
            src += &format!("file {{ '/a{a}': content => 'x' }}\n");
            src += &format!("{} -> File['/a{a}']\n", chain[chain.len() - 1]);
        }
        let mut options = AnalysisOptions::naive();
        options.state_cache = false;
        options.model_metadata = true;
        let graph = tool().with_options(options.clone()).lower(&src).unwrap();
        let time = |f: &dyn Fn()| {
            (0..2)
                .map(|_| {
                    let started = std::time::Instant::now();
                    f();
                    started.elapsed()
                })
                .min()
                .unwrap()
        };
        let determinism = time(&|| {
            assert!(check_determinism(&graph, &options)
                .unwrap()
                .is_deterministic())
        });
        let idempotence =
            time(&|| assert!(check_idempotence(&graph, &options).unwrap().is_idempotent()));

        // Midway between idempotence alone and both stages together, so
        // either side has a margin of half the determinism time against
        // timing noise: a fresh budget for idempotence lets it finish, one
        // budget for both stages cannot.
        let budget = idempotence + determinism / 2;
        let tool = tool().with_options(options.with_timeout(budget));
        let started = std::time::Instant::now();
        let a = tool.verify_source("budget.pp", &src);
        let elapsed = started.elapsed();
        assert!(
            a.diagnostics.iter().any(|d| d.code == "R3003"),
            "budget {budget:?} (determinism {determinism:?}, idempotence {idempotence:?}) must abort"
        );
        // Only the query in flight may overrun; the slack absorbs it and
        // scheduling noise on a loaded machine.
        let slack = std::time::Duration::from_millis(250);
        assert!(
            elapsed < budget + slack,
            "took {elapsed:?}, budget {budget:?}"
        );
    }

    #[test]
    fn invariant_checking_through_pipeline() {
        let src = "file { '/etc/motd': content => 'welcome' }";
        let inv = Invariant::FileWithContent(
            rehearsal_fs::FsPath::parse("/etc/motd").unwrap(),
            rehearsal_fs::Content::intern("welcome"),
        );
        let r = tool().check_invariant(src, &inv).unwrap();
        assert!(r.holds());
    }

    #[test]
    fn ssh_key_requires_user() {
        // One of the paper's found bug classes: ssh key without its user.
        let src = r#"
            user { 'carol': ensure => present, managehome => true }
            ssh_authorized_key { 'carol@laptop': user => 'carol', key => 'AAAA' }
        "#;
        let r = tool().check_determinism(src).unwrap();
        assert!(!r.is_deterministic(), "missing User -> Ssh_authorized_key");

        let fixed = r#"
            user { 'carol': ensure => present, managehome => true }
            ssh_authorized_key { 'carol@laptop':
              user => 'carol', key => 'AAAA', require => User['carol'],
            }
        "#;
        let r = tool().check_determinism(fixed).unwrap();
        assert!(r.is_deterministic());
    }

    #[test]
    fn package_service_file_stack() {
        let src = r#"
            package { 'nginx': ensure => present }
            file { '/etc/nginx/nginx.conf':
              content => 'worker_processes 4;',
              require => Package['nginx'],
            }
            service { 'nginx':
              ensure  => running,
              require => [Package['nginx'], File['/etc/nginx/nginx.conf']],
            }
        "#;
        let r = tool().verify(src).unwrap();
        assert!(r.is_correct(), "the canonical package/file/service stack");
    }
}
