//! Integration tests for the `rehearsal` command-line tool.

use rehearsal::fleet::{parse_json, Json};
use std::path::Path;
use std::process::Command;

fn rehearsal() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rehearsal"))
}

fn manifest(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("benchmarks")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

#[test]
fn check_deterministic_manifest_exits_zero() {
    let out = rehearsal()
        .args(["check", &manifest("ntp.pp")])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("deterministic"), "{stdout}");
    assert!(stdout.contains("idempotent"), "{stdout}");
}

#[test]
fn check_nondeterministic_manifest_exits_nonzero() {
    let out = rehearsal()
        .args(["check", &manifest("ntp-nondet.pp")])
        .env("NO_COLOR", "1")
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(stdout.contains("NON-DETERMINISTIC"), "{stdout}");
    assert!(
        stdout.contains("order A"),
        "counterexample printed: {stdout}"
    );
    assert!(stdout.contains("counterexample initial state"), "{stdout}");
    // The acceptance shape: a two-snippet race report pointing at both
    // racing resource declarations (findings go to stderr, like every
    // other diagnostic), preceded by the lint pass's R2001 advisory for
    // the same pair — two snippets each.
    assert!(stderr.contains("error[R3001]"), "{stderr}");
    assert!(stderr.contains("warning[R2001]"), "lint advisory: {stderr}");
    assert_eq!(
        stderr.matches("-->").count(),
        4,
        "both declarations rendered by both reports: {stderr}"
    );
    assert!(stderr.contains("this resource races with"), "{stderr}");
    assert!(
        !stdout.contains('\x1b') && !stderr.contains('\x1b'),
        "NO_COLOR suppresses ANSI: {stdout:?} {stderr:?}"
    );
}

#[test]
fn check_error_format_json_emits_machine_diagnostics() {
    let out = rehearsal()
        .args([
            "check",
            &manifest("ntp-nondet.pp"),
            "--error-format",
            "json",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The race finding is one compact JSON object on its own stderr line;
    // the classic verdict output on stdout stays parseable.
    let line = stderr
        .lines()
        .find(|l| l.starts_with('{') && l.contains("\"R3001\""))
        .unwrap_or_else(|| panic!("no JSON diagnostic line in {stderr}"));
    assert!(line.contains("\"severity\":\"error\""), "{line}");
    assert!(line.contains("\"primary\""), "{line}");
    assert!(line.contains("\"line\":"), "{line}");
    assert!(
        !stdout.lines().any(|l| l.starts_with('{')),
        "no JSON interleaved into the stdout dump: {stdout}"
    );
}

#[test]
fn graph_command_prints_resources_and_edges() {
    let out = rehearsal()
        .args(["graph", &manifest("ntp.pp")])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    assert!(stdout.contains("Package[ntp]"), "{stdout}");
    assert!(stdout.contains("->"), "{stdout}");
}

#[test]
fn idempotence_command() {
    let out = rehearsal()
        .args(["idempotence", &manifest("monit.pp")])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("idempotent"));
}

#[test]
fn platform_flag_is_accepted() {
    let out = rehearsal()
        .args(["check", &manifest("ntp.pp"), "--platform", "ubuntu"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
}

#[test]
fn unknown_platform_is_rejected() {
    let out = rehearsal()
        .args(["check", &manifest("ntp.pp"), "--platform", "beos"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown platform"));
}

#[test]
fn threads_flag_is_accepted_and_ignored() {
    let check = |name: &str, threads: &str| {
        let out = rehearsal()
            .args(["check", &manifest(name), "--json", "--threads", threads])
            .output()
            .expect("binary runs");
        parse_json(&String::from_utf8_lossy(&out.stdout)).expect("check --json parses")
    };
    for name in ["ntp-nondet.pp", "ntp.pp"] {
        let (one, four) = (check(name, "1"), check(name, "4"));
        for key in ["verdict", "idempotent", "diagnostics"] {
            assert_eq!(
                one.get(key).map(Json::render),
                four.get(key).map(Json::render),
                "{name}: {key}"
            );
        }
        let explored = |doc: &Json| {
            doc.get("stats")
                .and_then(|s| s.get("sequences_explored"))
                .and_then(Json::as_u64)
        };
        assert!(explored(&one).is_some(), "{name}: stats present");
        assert_eq!(explored(&one), explored(&four), "{name}: sequences");
    }
    let nondet = check("ntp-nondet.pp", "4");
    assert_eq!(
        nondet.get("verdict").and_then(Json::as_str),
        Some("nondeterministic")
    );
    assert!(
        nondet
            .get("diagnostics")
            .map(Json::render)
            .unwrap_or_default()
            .contains("order A"),
        "the counterexample orders are compared"
    );

    let out = rehearsal()
        .args(["check", &manifest("ntp.pp"), "--threads", "x"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --threads value"));
}

#[test]
fn missing_file_reports_error() {
    let out = rehearsal()
        .args(["check", "/no/such/manifest.pp"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn help_prints_usage() {
    let out = rehearsal().args(["--help"]).output().expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn ablation_flags_are_accepted() {
    let out = rehearsal()
        .args([
            "check",
            &manifest("monit.pp"),
            "--no-pruning",
            "--no-elimination",
            "--timeout",
            "60",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn repair_suggests_missing_dependency() {
    let out = rehearsal()
        .args(["repair", &manifest("ntp-nondet.pp")])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("repairable"), "{stdout}");
    assert!(
        stdout.contains("Package[ntp] -> File[/etc/ntp.conf]"),
        "the classic missing edge: {stdout}"
    );
}

#[test]
fn repair_on_deterministic_manifest() {
    let out = rehearsal()
        .args(["repair", &manifest("monit.pp")])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("already deterministic"));
}

#[test]
fn apply_simulates_a_run() {
    let out = rehearsal()
        .args(["apply", &manifest("ntp.pp")])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("applied Package[ntp]"), "{stdout}");
    assert!(stdout.contains("final machine state:"), "{stdout}");
    assert!(stdout.contains("/etc/ntp.conf"), "{stdout}");
}

#[test]
fn apply_with_initial_state_file() {
    let dir = std::env::temp_dir().join("rehearsal-cli-apply");
    std::fs::create_dir_all(&dir).unwrap();
    let state = dir.join("initial.state");
    std::fs::write(
        &state,
        "/ dir
/etc dir
/etc/ntp.conf file stale
",
    )
    .unwrap();
    let out = rehearsal()
        .args([
            "apply",
            &manifest("ntp.pp"),
            "--state",
            state.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(
        stdout.contains("driftfile"),
        "stale config replaced by ours: {stdout}"
    );
}

#[test]
fn parse_error_is_reported_with_position() {
    let dir = std::env::temp_dir().join("rehearsal-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.pp");
    std::fs::write(&bad, "package { 'x' ensure => present }").unwrap();
    let out = rehearsal()
        .args(["check", bad.to_str().unwrap()])
        .env("NO_COLOR", "1")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("parse error"), "{err}");
    // The error renders as a snippet with carets under the bad token.
    assert!(err.contains("error[R0001]"), "{err}");
    assert!(err.contains("bad.pp:1:15"), "{err}");
    assert!(err.contains("^^^^^^"), "{err}");
}

#[test]
fn fleet_annotations_print_under_github_actions() {
    let dir = std::env::temp_dir().join("rehearsal-cli-annotations");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("race.pp"),
        "package { 'vim': }\nfile { '/home/carol/.vimrc': content => 'x' }\n\
         user { 'carol': ensure => present, managehome => true }\n",
    )
    .unwrap();

    // With GITHUB_ACTIONS set, --annotations emits ::error lines with
    // file + line anchors from the diagnostics stream.
    let out = rehearsal()
        .args([
            "fleet",
            dir.to_str().unwrap(),
            "--jobs",
            "1",
            "--annotations",
        ])
        .env("GITHUB_ACTIONS", "true")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "race fails the gate");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let annotation = stdout
        .lines()
        .find(|l| l.starts_with("::error file="))
        .unwrap_or_else(|| panic!("no annotation line in {stdout}"));
    assert!(annotation.contains("race.pp"), "{annotation}");
    assert!(annotation.contains(",line="), "{annotation}");
    assert!(annotation.contains("R3001"), "{annotation}");

    // Without GITHUB_ACTIONS, the flag is inert.
    let out = rehearsal()
        .args([
            "fleet",
            dir.to_str().unwrap(),
            "--jobs",
            "1",
            "--annotations",
        ])
        .env_remove("GITHUB_ACTIONS")
        .output()
        .expect("binary runs");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("::error"));
}

#[test]
fn check_json_reports_an_aborted_analysis_as_timeout() {
    // The same answer fleet and serve give: verdict `timeout`, the abort
    // reason in `detail`, the R3003 finding in `diagnostics`; the exit
    // code stays 2.
    let out = rehearsal()
        .args(["check", &manifest("hosting.pp"), "--json", "--timeout", "0"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let doc = parse_json(&String::from_utf8_lossy(&out.stdout)).expect("JSON document");
    assert_eq!(doc.get("verdict").and_then(Json::as_str), Some("timeout"));
    assert!(matches!(doc.get("deterministic"), Some(Json::Null)));
    let detail = doc.get("detail").and_then(Json::as_str).unwrap_or_default();
    assert!(detail.starts_with("timeout during"), "{detail}");
    let codes: Vec<&str> = doc
        .get("diagnostics")
        .and_then(Json::as_arr)
        .expect("diagnostics")
        .iter()
        .filter_map(|d| d.get("code").and_then(Json::as_str))
        .collect();
    assert!(codes.contains(&"R3003"), "{codes:?}");
    assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(false));
    assert!(matches!(doc.get("reuse"), Some(Json::Null)));
}
