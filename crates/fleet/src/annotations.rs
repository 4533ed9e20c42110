//! GitHub Actions workflow-command annotations from the diagnostics
//! stream.
//!
//! When the fleet gate runs inside GitHub Actions, lines of the form
//! `::error file=…,line=…,col=…::message` make findings appear inline on
//! the pull request's changed files. This module formats a
//! [`FleetReport`]'s per-row diagnostics into that syntax; the CLI prints
//! them behind `--annotations` when `GITHUB_ACTIONS` is set.

use crate::report::{FleetReport, JobResult};
use rehearsal_diag::{Diagnostic, Severity};
use std::fmt::Write;

/// Escapes a message for the data portion of a workflow command.
fn escape_data(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Escapes a property value (`file=` etc.).
fn escape_property(s: &str) -> String {
    escape_data(s).replace(':', "%3A").replace(',', "%2C")
}

fn command_for(severity: Severity) -> &'static str {
    match severity {
        Severity::Error => "error",
        Severity::Warning => "warning",
        Severity::Note => "notice",
    }
}

/// One diagnostic as a workflow-command line, anchored into `file`.
/// Diagnostics without a resolvable span annotate the file without a line.
pub fn annotation_line(file: &str, d: &Diagnostic) -> String {
    let mut out = format!(
        "::{} file={}",
        command_for(d.severity),
        escape_property(file)
    );
    if let Some(p) = &d.primary {
        if !p.span.is_dummy() {
            let _ = write!(out, ",line={},col={}", p.span.lo.line, p.span.lo.col);
            if p.span.hi.line == p.span.lo.line && p.span.hi.col > p.span.lo.col {
                let _ = write!(out, ",endColumn={}", p.span.hi.col);
            } else if p.span.hi.line > p.span.lo.line {
                let _ = write!(out, ",endLine={}", p.span.hi.line);
            }
        }
    }
    let _ = write!(
        out,
        ",title={}::{}: {}",
        escape_property(&d.code),
        d.code,
        escape_data(&d.message)
    );
    out
}

/// Every annotation for one report row.
pub fn row_annotations(row: &JobResult) -> Vec<String> {
    row.diagnostics
        .iter()
        .map(|d| annotation_line(&row.manifest, d))
        .collect()
}

/// The full annotation stream for a fleet run (one line per diagnostic,
/// newline-terminated; empty string for a clean fleet).
pub fn github_annotations(report: &FleetReport) -> String {
    let mut out = String::new();
    for row in &report.rows {
        for line in row_annotations(row) {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{AnalysisCounters, Verdict};
    use rehearsal_diag::{Pos, Span};
    use rehearsal_pkgdb::Platform;

    fn race_diag() -> Diagnostic {
        Diagnostic::error("R3001", "File[/etc/ntp.conf] and Package[ntp] race")
            .with_primary(
                Span::new(Pos::new(3, 1), Pos::new(3, 41)),
                "this resource races",
            )
            .with_secondary(Span::new(Pos::new(7, 1), Pos::new(7, 20)), "the other one")
    }

    fn row(diagnostics: Vec<Diagnostic>) -> JobResult {
        JobResult {
            manifest: "benchmarks/ntp-nondet.pp".to_string(),
            platform: Platform::Ubuntu,
            verdict: Verdict::Nondeterministic,
            detail: String::new(),
            resources: 3,
            millis: 1,
            queue_ms: 0,
            run_ms: 1,
            phases: Vec::new(),
            cached: false,
            counters: AnalysisCounters::default(),
            diagnostics,
            reuse: None,
            store_key: None,
        }
    }

    #[test]
    fn error_annotation_carries_file_line_and_code() {
        let line = annotation_line("benchmarks/ntp-nondet.pp", &race_diag());
        assert_eq!(
            line,
            "::error file=benchmarks/ntp-nondet.pp,line=3,col=1,endColumn=41,\
             title=R3001::R3001: File[/etc/ntp.conf] and Package[ntp] race"
        );
    }

    #[test]
    fn severities_map_to_commands() {
        let warn = Diagnostic::warning("R1101", "latest aliased")
            .with_primary(Span::at(Pos::new(2, 5)), "");
        assert!(annotation_line("a.pp", &warn).starts_with("::warning file=a.pp,line=2,col=5,"));
        let note = Diagnostic::note("R1101", "n");
        assert!(annotation_line("a.pp", &note).starts_with("::notice file=a.pp,title="));
    }

    #[test]
    fn messages_and_properties_are_escaped() {
        let d = Diagnostic::error("R0001", "parse error: line1\nline2 100%");
        let line = annotation_line("dir,with:commas.pp", &d);
        assert!(line.contains("file=dir%2Cwith%3Acommas.pp"), "{line}");
        assert!(line.contains("line1%0Aline2 100%25"), "{line}");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn report_stream_emits_warning_commands_for_warning_severity() {
        // A row can mix severities (e.g. an R3001 race plus R2xxx lint
        // findings); the stream must keep each diagnostic's own command
        // instead of flattening everything to `::error`.
        let warn = Diagnostic::warning("R2002", "Service[ntp] not notified of File[/etc/ntp.conf]")
            .with_primary(Span::at(Pos::new(12, 3)), "ordering-only dependency");
        let note = Diagnostic::note("R2007", "reads rely on declaration order");
        let report = FleetReport {
            rows: vec![row(vec![race_diag(), warn, note])],
            wall_millis: 1,
            jobs: 1,
            steals: 0,
            max_queue_depth: 1,
            metrics: rehearsal_trace::MetricsSnapshot::default(),
        };
        let stream = github_annotations(&report);
        let lines: Vec<&str> = stream.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(
            lines[0].starts_with("::error file=benchmarks/ntp-nondet.pp"),
            "{stream}"
        );
        assert!(
            lines[1].starts_with("::warning file=benchmarks/ntp-nondet.pp,line=12,col=3"),
            "{stream}"
        );
        assert!(lines[1].contains("R2002"), "{stream}");
        assert!(
            lines[2].starts_with("::notice file=benchmarks/ntp-nondet.pp"),
            "{stream}"
        );
    }

    #[test]
    fn report_stream_is_one_line_per_diagnostic() {
        let report = FleetReport {
            rows: vec![row(vec![race_diag()]), row(Vec::new())],
            wall_millis: 1,
            jobs: 1,
            steals: 0,
            max_queue_depth: 1,
            metrics: rehearsal_trace::MetricsSnapshot::default(),
        };
        let stream = github_annotations(&report);
        assert_eq!(stream.lines().count(), 1);
        assert!(stream.starts_with("::error file=benchmarks/ntp-nondet.pp,line=3"));
        let clean = FleetReport {
            rows: vec![row(Vec::new())],
            wall_millis: 1,
            jobs: 1,
            steals: 0,
            max_queue_depth: 1,
            metrics: rehearsal_trace::MetricsSnapshot::default(),
        };
        assert_eq!(github_annotations(&clean), "");
    }
}
