//! The unified diagnostics API: source-anchored findings end to end.
//!
//! ```text
//! cargo run --example diagnostics
//! ```
//!
//! `Rehearsal::verify_source` never fails: parse errors, dependency
//! cycles, compile errors, and analysis findings (the determinism race,
//! non-idempotence) all come back as `Diagnostic`s — severity, stable
//! code (`R0xxx` frontend / `R1xxx` compile / `R3xxx` analysis), message,
//! and primary + secondary spans into the manifest — which the bundled
//! `SourceMap` renders as rustc-style snippets.

use rehearsal::fleet::diagnostic_json;
use rehearsal::{codes, Platform, Rehearsal};

const RACY: &str = r#"package { 'vim': ensure => present }
file { '/home/carol/.vimrc': content => 'syntax on' }
user { 'carol': ensure => present, managehome => true }
"#;

const BROKEN: &str = "package { 'vim' ensure => present }\n";

fn main() {
    let tool = Rehearsal::new(Platform::Ubuntu);

    // 1. A manifest with a missing dependency: the race report points at
    //    *both* racing resource declarations.
    println!("== racy manifest ==");
    let analysis = tool.verify_source("intro.pp", RACY);
    assert!(!analysis.is_correct());
    for d in &analysis.diagnostics {
        print!("{}", analysis.source_map.render(d));
    }
    let race = analysis
        .diagnostics
        .iter()
        .find(|d| d.code == codes::NONDETERMINISTIC)
        .expect("race diagnostic");
    assert!(race.has_resolvable_span());
    assert_eq!(race.secondary.len(), 1, "the other declaration is cited");

    // 2. The same finding as the documented machine encoding (what
    //    `--error-format json`, `check --json` schema rehearsal-check/5,
    //    and fleet rows carry).
    println!("\n== machine encoding ==");
    println!("{}", diagnostic_json(race).render_pretty());

    // 3. A parse error: also a diagnostic, also anchored.
    println!("\n== broken manifest ==");
    let analysis = tool.verify_source("broken.pp", BROKEN);
    assert!(analysis.report.is_err());
    let err = analysis.errors().next().expect("parse error");
    assert_eq!(err.code, codes::SYNTAX_ERROR);
    print!("{}", analysis.source_map.render(err));

    println!("\ndiagnostics demo complete ✔");
}
