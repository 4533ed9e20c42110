//! The `rehearsal` command-line tool.
//!
//! ```text
//! rehearsal check <manifest.pp> [--platform ubuntu|centos] [--json] [...]
//! rehearsal idempotence <manifest.pp> [...]
//! rehearsal graph <manifest.pp> [...]
//! rehearsal benchmarks [--json] [--timeout SECONDS]
//! rehearsal lint <DIR|FILE...> [--allow RULE] [--warn RULE] [--deny RULE|warnings] [...]
//! rehearsal fleet <DIR|FILE...> [--jobs N] [--json] [--cache FILE] [--baseline FILE] [...]
//! ```

use rehearsal::fleet::{
    check_document, diagnostic_json, discover_manifests, github_annotations, read_manifest_list,
    BaselineStore, FleetEngine, FleetOptions, JobResult, Json, StateDir, VerdictCache,
};
use rehearsal::trace::Session;
use rehearsal::{
    AnalysisOptions, Diagnostic, LintLevel, LintOptions, Platform, Rehearsal, RenderOptions,
    Severity, SourceMap,
};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
rehearsal — a configuration verification tool for Puppet

USAGE:
    rehearsal <COMMAND> [OPTIONS]

COMMANDS:
    check <FILE>         verify determinism (and idempotence if deterministic)
    idempotence <FILE>   check idempotence only
    repair <FILE>        propose dependency edges that fix nondeterminism
    apply <FILE>         simulate applying the manifest to a machine state
    graph <FILE>         print the compiled resource graph
    benchmarks           run the paper's 13-benchmark suite
    lint <DIR|FILE...>   run the solver-free static analyzer (R2xxx rules)
    fleet <DIR|FILE...>  batch-verify every .pp manifest (the CI gate)
    serve                run the warm-core verification daemon (HTTP/JSON)
    coverage <DIR...>    gate on verdict drift / coverage vs a pinned baseline

OPTIONS:
    --platform <ubuntu|centos>   target platform        [default: ubuntu]
    --state <FILE>               initial machine state for `apply` (default: /)
    --timeout <SECONDS>          per-analysis time budget [default: 600]
    --json                       machine-readable output (check/benchmarks/fleet)
    --error-format <human|json>  how errors and findings are printed to
                                 stderr: rustc-style snippets with carets
                                 (NO_COLOR-aware), or one JSON diagnostic
                                 per line                [default: human]
    --model-metadata             honor owner/group/mode attributes (the
                                 metadata-aware FS model; permission races
                                 become checkable)
    --model-latest               model `ensure => latest` packages distinctly
                                 from `present` (version-bump re-overwrite)
    --no-commutativity           disable the commutativity check (fig. 11c)
    --no-pruning                 disable path pruning (fig. 11b)
    --no-elimination             disable resource elimination
    --threads <N>                accepted and ignored: exploration is
                                 sequential; use `fleet --jobs` for cores

OBSERVABILITY:
    --timings                    print the per-phase timing tree to stderr
    --trace <FILE>               write a Chrome trace-event JSON profile
                                 (load in chrome://tracing or Perfetto)
    --metrics <FILE>             write the metrics registry in Prometheus
                                 textfile format

LINT OPTIONS:
    --allow <RULE>               drop a rule's findings (rule code like
                                 R2001 or kebab-case name like
                                 race-candidate; repeatable, last wins)
    --warn <RULE>                report a rule at warning severity
    --deny <RULE>                report a rule at error severity; the
                                 special value `warnings` promotes every
                                 surviving warning to an error

`rehearsal lint` exits non-zero iff any finding lands at error severity,
and tolerates directories containing no manifests. `rehearsal check`
prints the same findings to stderr as advisories. `rehearsal fleet
--lint` attaches them to report rows and `--annotations`.

FLEET OPTIONS:
    --jobs <N>                   manifest workers, capped at the manifest
                                 count            [default: one per CPU]
    --cache <FILE>               JSONL verdict cache, reused across runs
    --baseline <FILE>            JSONL verdict pins (graph digest + verdict
                                 per manifest): an unedited or renamed
                                 manifest replays its pin, the rest are
                                 analyzed and re-pinned
    --list <FILE>                read manifest paths from FILE (one per line)
    --annotations                print GitHub Actions ::error/::warning
                                 annotations from the diagnostics stream
                                 (only when GITHUB_ACTIONS is set)
    --lint                       also run the lint pass per manifest and
                                 attach R2xxx findings to the report rows
                                 (advisory: never affects the gate verdict)

`rehearsal fleet` exits non-zero iff any manifest fails verification,
making it usable directly as a CI gate.

SERVE / COVERAGE OPTIONS:
    --addr <HOST:PORT>           serve: listen address [default: 127.0.0.1:7777]
                                 coverage: gate against a running daemon's
                                 /v1/coverage instead of verifying locally
    --watch <DIR>                serve: poll DIR for manifest changes and
                                 re-verify them through the check path
    --poll-ms <N>                watch poll interval   [default: 1000]
    --workers <N>                request worker threads; 0 = max(2, cores)
    --state-dir <DIR>            persistent daemon state: verdict cache,
                                 baseline, and the hash-chained history.jsonl
    --threshold <PCT>            coverage: minimum pinned coverage [default: 100]
    --pin                        coverage: record current verdicts as the new
                                 baseline and exit 0

`rehearsal serve` drains in-flight requests on SIGINT/SIGTERM, flushes
its caches, and appends a final history record. `rehearsal coverage`
exits 0 when clean, 1 on drift or below-threshold coverage, 2 on errors.
";

/// How errors and findings are encoded on stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ErrorFormat {
    /// Rustc-style snippets with carets (NO_COLOR-aware).
    Human,
    /// One JSON diagnostic object per line.
    Json,
}

struct Args {
    command: String,
    paths: Vec<String>,
    platform: Platform,
    options: AnalysisOptions,
    state: Option<String>,
    json: bool,
    jobs: usize,
    cache: Option<String>,
    baseline: Option<String>,
    list: Option<String>,
    error_format: ErrorFormat,
    annotations: bool,
    timings: bool,
    trace: Option<String>,
    metrics: Option<String>,
    lint: bool,
    lint_overrides: Vec<(String, LintLevel)>,
    lint_deny_warnings: bool,
    addr: Option<String>,
    watch: Option<String>,
    state_dir: Option<String>,
    poll_ms: u64,
    workers: usize,
    threshold: f64,
    pin: bool,
}

/// Validates a `--allow/--warn/--deny` operand: rule codes (`R2001`) and
/// kebab-case names (`race-candidate`) both work.
fn check_rule_key(flag: &str, key: &str) -> Result<(), String> {
    if rehearsal::lint::find_rule(key).is_some() {
        return Ok(());
    }
    Err(format!(
        "{flag} {key:?}: unknown lint rule (codes R2001..R2009 or names \
         like `race-candidate`; see the README rule table)"
    ))
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or_else(|| USAGE.to_string())?;
    let mut paths = Vec::new();
    let mut platform = Platform::Ubuntu;
    let mut options = AnalysisOptions::default().with_timeout(Duration::from_secs(600));
    let mut state = None;
    let mut json = false;
    let mut jobs = 0;
    let mut cache = None;
    let mut baseline = None;
    let mut list = None;
    let mut error_format = ErrorFormat::Human;
    let mut annotations = false;
    let mut timings = false;
    let mut trace = None;
    let mut metrics = None;
    let mut lint = false;
    let mut lint_overrides = Vec::new();
    let mut lint_deny_warnings = false;
    let mut addr = None;
    let mut watch = None;
    let mut state_dir = None;
    let mut poll_ms = 1000u64;
    let mut workers = 0usize;
    let mut threshold = 100.0f64;
    let mut pin = false;
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--state" => {
                state = Some(argv.next().ok_or("--state needs a value")?);
            }
            "--platform" => {
                let v = argv.next().ok_or("--platform needs a value")?;
                platform = v.parse().map_err(|e| format!("{e}"))?;
            }
            "--timeout" => {
                let v = argv.next().ok_or("--timeout needs a value")?;
                let secs: u64 = v.parse().map_err(|_| "bad --timeout value")?;
                options.timeout = Some(Duration::from_secs(secs));
            }
            "--jobs" => {
                let v = argv.next().ok_or("--jobs needs a value")?;
                jobs = v.parse().map_err(|_| "bad --jobs value")?;
            }
            "--threads" => {
                // Accepted for compatibility and ignored: exploration is
                // sequential, and `--jobs` is the multi-core setting.
                let v = argv.next().ok_or("--threads needs a value")?;
                v.parse::<usize>().map_err(|_| "bad --threads value")?;
            }
            "--cache" => {
                cache = Some(argv.next().ok_or("--cache needs a value")?);
            }
            "--baseline" => {
                baseline = Some(argv.next().ok_or("--baseline needs a value")?);
            }
            "--list" => {
                list = Some(argv.next().ok_or("--list needs a value")?);
            }
            "--json" => json = true,
            "--error-format" => {
                let v = argv.next().ok_or("--error-format needs a value")?;
                error_format = match v.as_str() {
                    "human" => ErrorFormat::Human,
                    "json" => ErrorFormat::Json,
                    other => return Err(format!("unknown error format {other:?}\n\n{USAGE}")),
                };
            }
            "--annotations" => annotations = true,
            "--lint" => lint = true,
            "--allow" => {
                let v = argv.next().ok_or("--allow needs a rule")?;
                check_rule_key("--allow", &v)?;
                lint_overrides.push((v, LintLevel::Allow));
            }
            "--warn" => {
                let v = argv.next().ok_or("--warn needs a rule")?;
                check_rule_key("--warn", &v)?;
                lint_overrides.push((v, LintLevel::Warn));
            }
            "--deny" => {
                let v = argv.next().ok_or("--deny needs a rule")?;
                if v == "warnings" {
                    lint_deny_warnings = true;
                } else {
                    check_rule_key("--deny", &v)?;
                    lint_overrides.push((v, LintLevel::Deny));
                }
            }
            "--timings" => timings = true,
            "--trace" => {
                trace = Some(argv.next().ok_or("--trace needs a value")?);
            }
            "--metrics" => {
                metrics = Some(argv.next().ok_or("--metrics needs a value")?);
            }
            "--addr" => {
                addr = Some(argv.next().ok_or("--addr needs a value")?);
            }
            "--watch" => {
                watch = Some(argv.next().ok_or("--watch needs a value")?);
            }
            "--state-dir" => {
                state_dir = Some(argv.next().ok_or("--state-dir needs a value")?);
            }
            "--poll-ms" => {
                let v = argv.next().ok_or("--poll-ms needs a value")?;
                poll_ms = v.parse().map_err(|_| "bad --poll-ms value")?;
            }
            "--workers" => {
                let v = argv.next().ok_or("--workers needs a value")?;
                workers = v.parse().map_err(|_| "bad --workers value")?;
            }
            "--threshold" => {
                let v = argv.next().ok_or("--threshold needs a value")?;
                threshold = v.parse().map_err(|_| "bad --threshold value")?;
            }
            "--pin" => pin = true,
            "--model-metadata" => options.model_metadata = true,
            "--model-latest" => options.model_latest = true,
            "--no-commutativity" => options.commutativity = false,
            "--no-pruning" => options.pruning = false,
            "--no-elimination" => options.elimination = false,
            other if !other.starts_with('-') => {
                paths.push(other.to_string());
            }
            other => return Err(format!("unknown argument {other:?}\n\n{USAGE}")),
        }
    }
    Ok(Args {
        command,
        paths,
        platform,
        options,
        state,
        json,
        jobs,
        cache,
        baseline,
        list,
        error_format,
        annotations,
        timings,
        trace,
        metrics,
        lint,
        lint_overrides,
        lint_deny_warnings,
        addr,
        watch,
        state_dir,
        poll_ms,
        workers,
        threshold,
        pin,
    })
}

/// The lint configuration from the command line (platform plus
/// `--allow/--warn/--deny` overrides).
fn lint_options_for(args: &Args) -> LintOptions {
    LintOptions {
        platform: args.platform,
        overrides: args.lint_overrides.clone(),
        deny_warnings: args.lint_deny_warnings,
    }
}

/// Encodes diagnostics for stderr per `--error-format`: rustc-style
/// snippets (color per `NO_COLOR`/`TERM`) or one compact JSON object per
/// line.
fn format_diagnostics(args: &Args, map: &SourceMap, diagnostics: &[Diagnostic]) -> String {
    match args.error_format {
        ErrorFormat::Human => {
            let opts = RenderOptions::from_env();
            diagnostics
                .iter()
                .map(|d| map.render_with(d, opts))
                .collect::<Vec<_>>()
                .join("\n")
        }
        ErrorFormat::Json => diagnostics
            .iter()
            .map(|d| diagnostic_json(d).render())
            .collect::<Vec<_>>()
            .join("\n"),
    }
}

/// Renders a pipeline error (for commands that still use the `Result`
/// API) with source snippets.
fn format_error(args: &Args, name: &str, source: &str, e: &rehearsal::RehearsalError) -> String {
    let map = SourceMap::single(name, source);
    format_diagnostics(args, &map, e.diagnostics())
}

/// The tool configured from the command line. Both modeling flags ride
/// in `AnalysisOptions`, so the fleet engine and the verdict cache see
/// exactly what the single-shot commands do.
fn tool_for(args: &Args) -> Rehearsal {
    Rehearsal::new(args.platform).with_options(args.options.clone())
}

fn read_manifest(args: &Args) -> Result<String, String> {
    // Only `fleet` takes multiple positional paths; silently dropping an
    // extra manifest here would leave it unchecked.
    if let [_, extra, ..] = args.paths.as_slice() {
        return Err(format!(
            "unexpected extra argument {extra:?} — `{}` takes one manifest\n\n{USAGE}",
            args.command
        ));
    }
    let path = args
        .paths
        .first()
        .ok_or_else(|| format!("missing manifest file\n\n{USAGE}"))?;
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn print_determinism(report: &rehearsal::DeterminismReport, graph: &rehearsal::FsGraph) {
    let mark = if report.is_deterministic() {
        "✔ "
    } else {
        "✘ "
    };
    print!("{mark}{}", rehearsal::render_determinism(report, graph));
}

fn run_check(args: &Args) -> Result<bool, String> {
    let path = args.paths.first().cloned().unwrap_or_default();
    let source = read_manifest(args)?;
    let tool = tool_for(args);
    let analysis = tool.verify_source(&path, &source);

    // Lint advisories ride along on stderr: the solver-free rules are
    // cheap next to the verification itself, and a missing notifier or
    // race candidate is exactly the context a failing check needs. Only
    // R2xxx findings print (pipeline errors already surface below), and
    // they never touch the verdict or the exit code.
    let lint = rehearsal::lint_source(&path, &source, &lint_options_for(args));
    let advisories: Vec<Diagnostic> = lint
        .findings
        .into_iter()
        .filter(|d| d.code.starts_with("R2"))
        .collect();
    if !advisories.is_empty() {
        eprintln!(
            "{}",
            format_diagnostics(args, &lint.source_map, &advisories)
        );
    }

    // Non-fatal findings (modeling warnings/notes) always go to stderr.
    let warnings: Vec<Diagnostic> = analysis
        .diagnostics
        .iter()
        .filter(|d| d.severity != Severity::Error)
        .cloned()
        .collect();
    if !warnings.is_empty() {
        eprintln!(
            "{}",
            format_diagnostics(args, &analysis.source_map, &warnings)
        );
    }

    if args.json {
        // The analysis is done, so every phase span has closed; the
        // snapshot taken here is the run's complete profile.
        let obs = rehearsal::trace::current().map(|s| s.snapshot());
        let resources = analysis.graph.as_ref().map_or(0, |g| g.exprs.len());
        let mut row = JobResult::from_analysis(
            path.clone(),
            args.platform,
            resources,
            &analysis.report,
            analysis.diagnostics.clone(),
        );
        if let Some(snap) = &obs {
            row.phases = snap
                .phase_totals()
                .into_iter()
                .map(|p| (p.name, p.total_us))
                .collect();
        }
        let metrics = obs.as_ref().map(|snap| &snap.metrics);
        println!(
            "{}",
            check_document(&row, args.options.model_metadata, metrics).render_pretty()
        );
    }

    let Ok(report) = &analysis.report else {
        // Pipeline error (or aborted analysis): the error diagnostics are
        // the message; exit code 2 either way.
        let errors: Vec<Diagnostic> = analysis.errors().cloned().collect();
        return Err(format_diagnostics(args, &analysis.source_map, &errors));
    };
    let graph = analysis.graph.as_ref().expect("report implies graph");

    if !args.json {
        print_determinism(&report.determinism, graph);
        if let Some(idem) = &report.idempotence {
            let mark = if idem.is_idempotent() { "✔ " } else { "✘ " };
            print!("{mark}{}", rehearsal::render_idempotence(idem));
        }
        // The source-anchored findings (the two-snippet race report, the
        // non-idempotent culprit) follow the classic counterexample dump —
        // on stderr, like every other diagnostic (`--error-format`
        // documents the stderr stream, so machine consumers can split
        // verdict output from findings).
        let findings: Vec<Diagnostic> = analysis
            .errors()
            .filter(|d| {
                d.code == rehearsal::codes::NONDETERMINISTIC
                    || d.code == rehearsal::codes::NONIDEMPOTENT
            })
            .cloned()
            .collect();
        if !findings.is_empty() {
            eprintln!(
                "{}",
                format_diagnostics(args, &analysis.source_map, &findings)
            );
        }
    }
    Ok(analysis.is_correct())
}

fn run_benchmarks(args: &Args) -> Result<bool, String> {
    let mut all_ok = true;
    let mut rows = Vec::new();
    for b in rehearsal::benchmarks::SUITE {
        // Each benchmark gets its own deadline: the per-analysis budget
        // (--timeout) restarts here rather than being shared by the suite.
        let tool = tool_for(args);
        let start = std::time::Instant::now();
        match tool.check_determinism(b.source) {
            Ok(report) => {
                let verdict = if report.is_deterministic() {
                    "deterministic"
                } else {
                    "NON-DETERMINISTIC"
                };
                let expected = report.is_deterministic() == b.deterministic;
                all_ok &= expected;
                if args.json {
                    rows.push(Json::obj([
                        ("name", Json::str(b.name)),
                        (
                            "verdict",
                            Json::str(if report.is_deterministic() {
                                "deterministic"
                            } else {
                                "nondeterministic"
                            }),
                        ),
                        ("expected", Json::Bool(expected)),
                        ("millis", Json::num(start.elapsed().as_millis() as u32)),
                    ]));
                } else {
                    println!(
                        "{:<18} {:<18} {:>8.2?}  (expected: {})",
                        b.name,
                        verdict,
                        start.elapsed(),
                        if expected { "✔" } else { "✘ MISMATCH" }
                    );
                }
            }
            Err(e) => {
                all_ok = false;
                if args.json {
                    rows.push(Json::obj([
                        ("name", Json::str(b.name)),
                        ("verdict", Json::str("error")),
                        ("detail", Json::str(e.to_string())),
                        ("expected", Json::Bool(false)),
                        ("millis", Json::num(start.elapsed().as_millis() as u32)),
                    ]));
                } else {
                    println!("{:<18} error: {e}", b.name);
                }
            }
        }
    }
    if args.json {
        let doc = Json::obj([
            ("schema", Json::str("rehearsal-benchmarks/1")),
            ("platform", Json::str(args.platform.to_string())),
            ("benchmarks", Json::Arr(rows)),
            ("all_expected", Json::Bool(all_ok)),
        ]);
        println!("{}", doc.render_pretty());
    }
    Ok(all_ok)
}

/// `rehearsal lint`: run the solver-free analyzer over every manifest
/// under the given paths. Findings go to stderr (per `--error-format`);
/// the summary (or the `rehearsal-lint/1` JSON report) goes to stdout.
/// Exits non-zero iff any finding lands at error severity.
fn run_lint(args: &Args) -> Result<bool, String> {
    if args.paths.is_empty() {
        return Err(format!(
            "lint needs a manifest file or directory\n\n{USAGE}"
        ));
    }
    let mut manifests = Vec::new();
    for root in &args.paths {
        // Unlike `fleet`, a directory with zero manifests is fine: linting
        // a module tree that happens to hold no .pp files reports clean.
        manifests.extend(discover_manifests(root).map_err(|e| format!("{root}: {e}"))?);
    }
    let lint_opts = lint_options_for(args);
    let mut rows = Vec::new();
    let (mut errors, mut warnings, mut notes) = (0usize, 0usize, 0usize);
    for path in &manifests {
        let display = path.display().to_string();
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {display}: {e}"))?;
        let report = rehearsal::lint_source(&display, &source, &lint_opts);
        let (e, w, n) = report.counts();
        errors += e;
        warnings += w;
        notes += n;
        if !report.findings.is_empty() {
            eprintln!(
                "{}",
                format_diagnostics(args, &report.source_map, &report.findings)
            );
        }
        if args.json {
            rows.push(Json::obj([
                ("manifest", Json::str(&display)),
                ("rules_run", Json::num(report.rules_run as u32)),
                (
                    "findings",
                    Json::Arr(report.findings.iter().map(diagnostic_json).collect()),
                ),
            ]));
        }
    }
    if args.json {
        let doc = Json::obj([
            ("schema", Json::str("rehearsal-lint/1")),
            ("platform", Json::str(args.platform.to_string())),
            ("manifests", Json::Arr(rows)),
            ("errors", Json::num(errors as u32)),
            ("warnings", Json::num(warnings as u32)),
            ("notes", Json::num(notes as u32)),
        ]);
        println!("{}", doc.render_pretty());
    } else {
        let mark = if errors == 0 { "✔" } else { "✘" };
        println!(
            "{mark} linted {} manifest{}: {errors} error{}, {warnings} warning{}, {notes} note{}",
            manifests.len(),
            if manifests.len() == 1 { "" } else { "s" },
            if errors == 1 { "" } else { "s" },
            if warnings == 1 { "" } else { "s" },
            if notes == 1 { "" } else { "s" },
        );
    }
    Ok(errors == 0)
}

fn run_fleet(args: &Args) -> Result<bool, String> {
    // Collect manifests: every positional path (directory or file),
    // plus an optional explicit list.
    let mut manifests = Vec::new();
    for root in &args.paths {
        let found = discover_manifests(root).map_err(|e| format!("{root}: {e}"))?;
        if found.is_empty() {
            return Err(format!("{root}: no .pp manifests found"));
        }
        manifests.extend(found);
    }
    if let Some(list) = &args.list {
        manifests.extend(read_manifest_list(list).map_err(|e| format!("{list}: {e}"))?);
    }
    if manifests.is_empty() {
        return Err(format!("fleet needs a directory or --list\n\n{USAGE}"));
    }

    let options = FleetOptions {
        jobs: args.jobs,
        analysis: args.options.clone(),
        lint: args.lint,
        ..FleetOptions::default()
    };
    // One open-once state handle for the run: `--cache`/`--baseline`
    // files are read here, shared with the engine by reference, and
    // written back exactly once below — the same code path the daemon
    // uses, so batch and serve can never diverge on persistence.
    let state = StateDir::in_memory();
    if let Some(path) = &args.cache {
        state.set_cache(VerdictCache::open(path).map_err(|e| format!("{path}: {e}"))?);
    }
    if let Some(path) = &args.baseline {
        state.set_baseline(BaselineStore::open(path).map_err(|e| format!("{path}: {e}"))?);
    }
    let state = std::sync::Arc::new(state);
    let mut engine = FleetEngine::new(options).with_state(state.clone());
    let report = engine.run_paths(&manifests, &[args.platform]);
    state.flush().map_err(|e| format!("{e}"))?;
    if args.json {
        println!("{}", report.to_json().render_pretty());
    } else {
        print!("{}", report.render_table());
    }
    // GitHub Actions inline annotations from the diagnostics stream, only
    // on an actual Actions runner.
    if args.annotations && std::env::var_os("GITHUB_ACTIONS").is_some() {
        print!("{}", github_annotations(&report));
    }
    Ok(report.all_clean())
}

/// `rehearsal serve`: bind the warm-core daemon and run its accept loop
/// until SIGINT/SIGTERM (or `POST /v1/shutdown`) triggers the graceful
/// drain.
fn run_serve(args: &Args) -> Result<bool, String> {
    use rehearsal::serve::{ServeOptions, Server};
    let options = ServeOptions {
        addr: args
            .addr
            .clone()
            .unwrap_or_else(|| "127.0.0.1:7777".to_string()),
        platform: args.platform,
        analysis: args.options.clone(),
        workers: args.workers,
        watch: args.watch.as_ref().map(std::path::PathBuf::from),
        poll_ms: args.poll_ms,
        state_dir: args.state_dir.as_ref().map(std::path::PathBuf::from),
        baseline: args.baseline.as_ref().map(std::path::PathBuf::from),
    };
    let server = Server::bind(options).map_err(|e| format!("serve: {e}"))?;
    let addr = server.local_addr().map_err(|e| format!("serve: {e}"))?;
    server.install_signal_handlers();
    eprintln!("rehearsal serve: listening on http://{addr} (SIGINT/SIGTERM to drain)");
    server.run().map_err(|e| format!("serve: {e}"))?;
    Ok(true)
}

/// `rehearsal coverage`: the drift/coverage CI gate (exit 0 clean, 1 on
/// drift or below-threshold coverage, 2 on errors).
fn run_coverage(args: &Args) -> Result<bool, String> {
    let options = rehearsal::serve::CoverageOptions {
        paths: args.paths.clone(),
        baseline: args.baseline.clone(),
        addr: args.addr.clone(),
        platform: args.platform,
        analysis: args.options.clone(),
        jobs: args.jobs,
        threshold: args.threshold,
        pin: args.pin,
    };
    let outcome = rehearsal::serve::run_coverage(&options)?;
    if args.json {
        println!("{}", outcome.doc.render_pretty());
    } else {
        let get = |key: &str| {
            outcome
                .doc
                .get(key)
                .and_then(Json::as_u64)
                .unwrap_or_default()
        };
        let coverage = match outcome.doc.get("coverage") {
            Some(Json::Num(f)) => *f * 100.0,
            _ => 0.0,
        };
        println!(
            "{} {} manifest(s): {} pinned, {} drifted, \
             coverage {coverage:.1}% (threshold {:.1}%){}",
            if outcome.pass { "✔" } else { "✘" },
            get("manifests"),
            get("pinned"),
            get("drifted"),
            args.threshold,
            if args.pin {
                " — baseline re-pinned"
            } else {
                ""
            },
        );
    }
    Ok(outcome.pass)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;

    // One trace session covers the whole command when any observability
    // surface wants it: `--timings`/`--trace`/`--metrics` explicitly, and
    // `--json` because the check document embeds phases and metrics.
    // Everywhere else tracing stays disabled (a single atomic load per
    // instrumentation site).
    let observing = args.timings || args.trace.is_some() || args.metrics.is_some() || args.json;
    let session = observing.then(Session::new);
    let _guard = session.as_ref().map(Session::install);

    let result = dispatch(&args);

    if let Some(session) = &session {
        let snap = session.snapshot();
        if args.timings {
            eprint!("{}", snap.render_tree());
        }
        if let Some(path) = &args.trace {
            std::fs::write(path, snap.to_chrome_trace())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        if let Some(path) = &args.metrics {
            std::fs::write(path, snap.metrics.to_prometheus())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
    }
    result
}

fn dispatch(args: &Args) -> Result<bool, String> {
    match args.command.as_str() {
        "check" => run_check(args),
        "idempotence" => {
            let path = args.paths.first().cloned().unwrap_or_default();
            let source = read_manifest(args)?;
            let tool = tool_for(args);
            let report = tool
                .check_idempotence(&source)
                .map_err(|e| format_error(args, &path, &source, &e))?;
            let mark = if report.is_idempotent() {
                "✔ "
            } else {
                "✘ "
            };
            print!("{mark}{}", rehearsal::render_idempotence(&report));
            Ok(report.is_idempotent())
        }
        "repair" => {
            let path = args.paths.first().cloned().unwrap_or_default();
            let source = read_manifest(args)?;
            let tool = tool_for(args);
            let graph = tool
                .lower(&source)
                .map_err(|e| format_error(args, &path, &source, &e))?;
            match rehearsal::suggest_repair(&graph, &args.options).map_err(|e| e.to_string())? {
                rehearsal::RepairReport::AlreadyDeterministic => {
                    println!("✔ already deterministic — nothing to repair");
                    Ok(true)
                }
                rehearsal::RepairReport::Repaired { added_edges } => {
                    println!("✔ repairable: add the following dependencies");
                    for (a, b) in added_edges {
                        println!("  {} -> {}", graph.names[a], graph.names[b]);
                    }
                    Ok(true)
                }
                rehearsal::RepairReport::NotRepairable { attempted } => {
                    println!(
                        "✘ no ordering fixes this manifest ({} edges tried) — \
                         the resources conflict fundamentally",
                        attempted.len()
                    );
                    Ok(false)
                }
            }
        }
        "apply" => {
            let path = args.paths.first().cloned().unwrap_or_default();
            let source = read_manifest(args)?;
            let tool = tool_for(args);
            let graph = tool
                .lower(&source)
                .map_err(|e| format_error(args, &path, &source, &e))?;
            // Warn loudly when simulating a nondeterministic manifest.
            let report =
                rehearsal::check_determinism(&graph, &args.options).map_err(|e| e.to_string())?;
            if !report.is_deterministic() {
                eprintln!("warning: manifest is NON-DETERMINISTIC; simulating one arbitrary order");
            }
            let initial = match &args.state {
                Some(path) => {
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| format!("cannot read {path}: {e}"))?;
                    rehearsal::fs::parse_state(&text).map_err(|e| e.to_string())?
                }
                None => rehearsal::fs::FileSystem::with_root(),
            };
            let order = graph.topological_order();
            let mut fs = initial;
            for &i in &order {
                match rehearsal::fs::eval(graph.exprs[i], &fs) {
                    Ok(next) => {
                        println!("applied {}", graph.names[i]);
                        fs = next;
                    }
                    Err(_) => {
                        println!("FAILED at {}", graph.names[i]);
                        return Ok(false);
                    }
                }
            }
            println!(
                "
final machine state:"
            );
            print!("{}", rehearsal::fs::render_state(&fs));
            Ok(true)
        }
        "graph" => {
            let path = args.paths.first().cloned().unwrap_or_default();
            let source = read_manifest(args)?;
            let tool = tool_for(args);
            let graph = tool
                .lower(&source)
                .map_err(|e| format_error(args, &path, &source, &e))?;
            println!("{} resources:", graph.names.len());
            for (i, name) in graph.names.iter().enumerate() {
                println!("  [{i}] {name} ({} FS ops)", graph.exprs[i].size());
            }
            for &(a, b) in &graph.edges {
                println!("  {} -> {}", graph.names[a], graph.names[b]);
            }
            Ok(true)
        }
        "benchmarks" => run_benchmarks(args),
        "lint" => run_lint(args),
        "fleet" => run_fleet(args),
        "serve" => run_serve(args),
        "coverage" => run_coverage(args),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(true)
        }
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
