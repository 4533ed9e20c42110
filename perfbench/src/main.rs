//! Per-layer probes for the repository benchmark.
//!
//! `perfbench/run.py` drives the user-facing `rehearsal` binary for the
//! end-to-end numbers. Its traced run calls this binary instead, which
//! links the library and times calls into each crate's public functions,
//! reading the spans and counters the program already records in a
//! `rehearsal::trace::Session` where one call hides several phases. Each
//! subcommand prints one JSON object on stdout.
//!
//! ```text
//! perfbench pins
//! perfbench check <FILE> [--metadata] [--traced]
//! perfbench fleet <DIR> --jobs <N> --cache <FILE> --baseline <FILE> [--traced]
//! perfbench serve <REQUESTS.jsonl> --state-dir <DIR> [--traced]
//! ```
//!
//! Without `--traced` no session is installed and only the wall time and
//! the verdicts are reported: the difference between the two modes is the
//! tracing overhead.

use rehearsal::benchmarks::{FIXED_SUITE, METADATA_SUITE, SUITE};
use rehearsal::fleet::{
    discover_manifests, parse_json, BaselineStore, FleetEngine, FleetOptions, Json, StateDir,
    VerdictCache,
};
use rehearsal::fs::{arena_stats, ArenaStats};
use rehearsal::puppet::{evaluate, parse};
use rehearsal::serve::http::Request;
use rehearsal::serve::{ServeOptions, Service};
use rehearsal::trace::{MetricsSnapshot, Session, TraceSnapshot, NO_PARENT};
use rehearsal::{
    check_determinism, check_idempotence, lint_source, AnalysisOptions, Facts, LintOptions,
    Platform, Rehearsal,
};
use std::collections::{BTreeMap, HashMap};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The analysis options `rehearsal check`/`fleet`/`serve` run with by
/// default: a 600 s budget and one explorer thread per CPU.
fn cli_options() -> AnalysisOptions {
    let mut options = AnalysisOptions::default().with_timeout(Duration::from_secs(600));
    options.threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    options
}

fn micros(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

fn arena_nodes(base: &ArenaStats) -> f64 {
    let grown = arena_stats().since(base);
    (grown.pred_nodes + grown.expr_nodes) as f64
}

fn counter(m: &MetricsSnapshot, name: &str) -> f64 {
    m.counter(name).unwrap_or(0) as f64
}

fn gauge(m: &MetricsSnapshot, name: &str) -> f64 {
    m.gauge(name).unwrap_or(0) as f64
}

/// Pinned verdicts from the hand-written tables in
/// `rehearsal::benchmarks`, keyed by manifest name. Determinism comes from
/// `SUITE`/`FIXED_SUITE` (and `METADATA_SUITE` with the metadata model
/// on). Every deterministic entry is pinned idempotent: `FIXED_SUITE` is
/// the idempotence study and the metadata suite's fixed twins are pinned
/// idempotent by its integration tests. Nondeterministic manifests never
/// reach the idempotence check, so theirs is `null`.
fn pins() -> Result<Json, String> {
    let mut rows: BTreeMap<&str, (bool, bool)> = BTreeMap::new();
    for b in SUITE.iter().chain(FIXED_SUITE) {
        if let Some(&(det, _)) = rows.get(b.name) {
            if det != b.deterministic {
                return Err(format!("{}: SUITE and FIXED_SUITE disagree", b.name));
            }
        }
        rows.insert(b.name, (b.deterministic, false));
    }
    for m in METADATA_SUITE {
        rows.insert(m.name, (m.deterministic_with_metadata, true));
    }
    Ok(Json::Obj(
        rows.into_iter()
            .map(|(name, (det, metadata))| {
                let idempotent = if det { Json::Bool(true) } else { Json::Null };
                (
                    name.to_string(),
                    Json::obj(vec![
                        ("deterministic", Json::Bool(det)),
                        ("idempotent", idempotent),
                        ("model_metadata", Json::Bool(metadata)),
                    ]),
                )
            })
            .collect(),
    ))
}

/// Span totals by name, plus the `solve` time spent under `idempotence`
/// (the solver spans also run under `explore`'s final query).
fn span_totals(snap: &TraceSnapshot) -> (HashMap<&'static str, u64>, u64) {
    let by_id: HashMap<u64, (u64, &'static str)> = snap
        .spans
        .iter()
        .map(|s| (s.id, (s.parent, s.name)))
        .collect();
    let mut totals = HashMap::new();
    let mut idempotence_solve = 0;
    for s in &snap.spans {
        *totals.entry(s.name).or_insert(0) += s.dur_us;
        if s.name != "solve" {
            continue;
        }
        let mut parent = s.parent;
        while parent != NO_PARENT {
            let Some(&(up, name)) = by_id.get(&parent) else {
                break;
            };
            if name == "idempotence" {
                idempotence_solve += s.dur_us;
                break;
            }
            parent = up;
        }
    }
    (totals, idempotence_solve)
}

/// One `rehearsal check --threads N` worth of library calls: parse,
/// evaluate, lower, determinism, idempotence when deterministic, and the
/// lint pass.
fn check(path: &str, metadata: bool, threads: usize, traced: bool) -> Result<Json, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut options = cli_options();
    options.model_metadata = metadata;
    options.threads = threads;
    let tool = Rehearsal::new(Platform::Ubuntu).with_options(options.clone());
    let facts = Facts::ubuntu();
    let lint_options = LintOptions::default();

    let session = traced.then(Session::new);
    let guard = session.as_ref().map(Session::install);
    let wall = Instant::now();
    let t = Instant::now();
    let manifest = parse(&source).map_err(|e| format!("{path}: {e}"))?;
    let parse_us = micros(t);
    let t = Instant::now();
    let catalog = evaluate(&manifest, &facts).map_err(|e| format!("{path}: {e}"))?;
    let eval_us = micros(t);
    let base = arena_stats();
    let t = Instant::now();
    let (graph, _) = tool
        .lower_catalog_source(&catalog)
        .map_err(|e| format!("{path}: {e}"))?;
    let lower_us = micros(t);
    let nodes = arena_nodes(&base);
    let t = Instant::now();
    let determinism = check_determinism(&graph, &options).map_err(|e| format!("{path}: {e}"))?;
    let determinism_us = micros(t);
    let t = Instant::now();
    let idempotence = if determinism.is_deterministic() {
        Some(check_idempotence(&graph, &options).map_err(|e| format!("{path}: {e}"))?)
    } else {
        None
    };
    let idempotence_us = micros(t);
    let t = Instant::now();
    let lint = lint_source(path, &source, &lint_options);
    let lint_us = micros(t);
    let wall_us = micros(wall);
    drop(guard);

    let mut out = vec![
        ("wall_us", Json::Num(wall_us)),
        ("deterministic", Json::Bool(determinism.is_deterministic())),
        (
            "idempotent",
            idempotence
                .as_ref()
                .map_or(Json::Null, |r| Json::Bool(r.is_idempotent())),
        ),
    ];
    if let Some(session) = session {
        let snap = session.snapshot();
        let (spans, idempotence_solve) = span_totals(&snap);
        let span = |name: &str| *spans.get(name).unwrap_or(&0) as f64;
        let m = &snap.metrics;
        let findings = lint
            .findings
            .iter()
            .filter(|d| d.code.starts_with("R2"))
            .count();
        out.extend([
            ("parse_us", Json::Num(parse_us)),
            ("eval_us", Json::Num(eval_us)),
            ("lower_us", Json::Num(lower_us)),
            ("resources", Json::num(graph.exprs.len() as u32)),
            ("arena_nodes", Json::Num(nodes)),
            ("determinism_us", Json::Num(determinism_us)),
            ("eliminate_us", Json::Num(span("eliminate"))),
            ("prune_us", Json::Num(span("prune"))),
            ("explore_us", Json::Num(span("explore"))),
            (
                "explore_sequences",
                Json::Num(counter(m, "explore.sequences")),
            ),
            (
                "state_cache_hits",
                Json::Num(counter(m, "explore.cache_hits")),
            ),
            ("domain_paths", Json::Num(gauge(m, "domain.paths"))),
            ("tracked_paths", Json::Num(gauge(m, "domain.tracked_paths"))),
            ("idempotence_us", Json::Num(idempotence_us)),
            ("idempotence_solve_us", Json::Num(idempotence_solve as f64)),
            ("conflicts", Json::Num(counter(m, "sat.conflicts"))),
            ("decisions", Json::Num(counter(m, "sat.decisions"))),
            ("propagations", Json::Num(counter(m, "sat.propagations"))),
            ("formula_nodes", Json::Num(gauge(m, "ctx.formula_nodes"))),
            ("lint_us", Json::Num(lint_us)),
            ("findings", Json::num(findings as u32)),
        ]);
    }
    Ok(Json::obj(out))
}

fn file_len(path: &str) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

/// One `rehearsal fleet --jobs N --cache C --baseline B` gate: open both
/// stores, run the engine over the directory, flush.
fn fleet(
    dir: &str,
    jobs: usize,
    cache: &str,
    baseline: &str,
    traced: bool,
) -> Result<Json, String> {
    let manifests = discover_manifests(dir).map_err(|e| format!("{dir}: {e}"))?;
    let options = FleetOptions {
        jobs,
        threads: 0,
        analysis: cli_options(),
        cancel: None,
        lint: false,
    };

    let session = traced.then(Session::new);
    let guard = session.as_ref().map(Session::install);
    let base = arena_stats();
    let wall = Instant::now();
    let t = Instant::now();
    let state = StateDir::in_memory();
    state.set_cache(VerdictCache::open(cache).map_err(|e| format!("{cache}: {e}"))?);
    state.set_baseline(BaselineStore::open(baseline).map_err(|e| format!("{baseline}: {e}"))?);
    let store_open_us = micros(t);
    let state = Arc::new(state);
    let mut engine = FleetEngine::new(options).with_state(Arc::clone(&state));
    let t = Instant::now();
    let report = engine.run_paths(&manifests, &[Platform::Ubuntu]);
    let run_us = micros(t);
    let t = Instant::now();
    state.flush().map_err(|e| format!("flush: {e}"))?;
    let flush_us = micros(t);
    let wall_us = micros(wall);
    drop(guard);

    let verdicts = Json::Obj(
        report
            .rows
            .iter()
            .map(|r| (r.manifest.clone(), Json::str(r.verdict.label())))
            .collect(),
    );
    let mut out = vec![("wall_us", Json::Num(wall_us)), ("verdicts", verdicts)];
    if session.is_some() {
        let mut phases: HashMap<&str, u64> = HashMap::new();
        for row in &report.rows {
            for (name, us) in &row.phases {
                *phases.entry(name.as_str()).or_insert(0) += us;
            }
        }
        let phase = |name: &str| *phases.get(name).unwrap_or(&0) as f64;
        let cached = report.rows.iter().filter(|r| r.cached).count();
        let pairs: u64 = report
            .rows
            .iter()
            .filter_map(|r| r.reuse.as_ref())
            .map(|r| r.pairs_reused)
            .sum();
        let resources: usize = report.rows.iter().map(|r| r.resources).sum();
        let m = &report.metrics;
        out.extend([
            ("store_open_us", Json::Num(store_open_us)),
            ("run_us", Json::Num(run_us)),
            ("flush_us", Json::Num(flush_us)),
            (
                "store_bytes",
                Json::Num(file_len(cache) + file_len(baseline)),
            ),
            ("rows", Json::num(report.rows.len() as u32)),
            ("rows_cached", Json::num(cached as u32)),
            ("pairs_reused", Json::Num(pairs as f64)),
            ("resources", Json::num(resources as u32)),
            ("arena_nodes", Json::Num(arena_nodes(&base))),
            ("parse_us", Json::Num(phase("parse"))),
            ("eval_us", Json::Num(phase("eval"))),
            ("lower_us", Json::Num(phase("lower"))),
            ("eliminate_us", Json::Num(phase("eliminate"))),
            ("prune_us", Json::Num(phase("prune"))),
            ("explore_us", Json::Num(phase("explore"))),
            ("idempotence_us", Json::Num(phase("idempotence"))),
            (
                "explore_sequences",
                Json::Num(counter(m, "explore.sequences")),
            ),
            (
                "state_cache_hits",
                Json::Num(counter(m, "explore.cache_hits")),
            ),
            ("conflicts", Json::Num(counter(m, "sat.conflicts"))),
            ("decisions", Json::Num(counter(m, "sat.decisions"))),
            ("propagations", Json::Num(counter(m, "sat.propagations"))),
            ("formula_nodes", Json::Num(gauge(m, "ctx.formula_nodes"))),
        ]);
    }
    Ok(Json::obj(out))
}

/// One served request as the traced run sees it.
struct Served {
    handle_us: f64,
    status: u16,
    memo_hit: bool,
    verdict: String,
    /// Phase µs and solver counters of the analysis this request ran
    /// (empty for memo hits, whose documents replay an earlier analysis).
    work: Vec<(String, f64)>,
}

fn serve_one(service: &Service, body: &str) -> Served {
    let request = Request {
        method: "POST".to_string(),
        path: "/v1/check".to_string(),
        body: body.as_bytes().to_vec(),
    };
    let t = Instant::now();
    let response = service.handle(&request);
    let handle_us = micros(t);
    let doc = parse_json(&response.body).unwrap_or(Json::Null);
    let memo_hit = doc
        .get("serve")
        .and_then(|s| s.get("cache_hit"))
        .and_then(Json::as_bool)
        .unwrap_or(false);
    let verdict = doc
        .get("verdict")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    let mut work = Vec::new();
    if !memo_hit {
        if let Some(Json::Obj(phases)) = doc.get("phases") {
            for (name, value) in phases {
                if let Json::Num(ms) = value {
                    work.push((format!("{name}_us"), ms * 1000.0));
                }
            }
        }
        let counters = doc.get("metrics").and_then(|m| m.get("counters"));
        for name in ["sat.conflicts", "sat.decisions", "sat.propagations"] {
            if let Some(Json::Num(n)) = counters.and_then(|c| c.get(name)) {
                work.push((name.to_string(), *n));
            }
        }
    }
    Served {
        handle_us,
        status: response.status,
        memo_hit,
        verdict,
        work,
    }
}

/// The serve-mixed request stream through `Service::handle`, without the
/// HTTP transport: the priming pass (lines without a `client` field)
/// first, in order, then each client's lines on its own thread, as the
/// HTTP clients send them.
fn serve(requests: &str, state_dir: &str, traced: bool) -> Result<Json, String> {
    let text = std::fs::read_to_string(requests).map_err(|e| format!("{requests}: {e}"))?;
    let mut prime = Vec::new();
    let mut clients: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let doc = parse_json(line).map_err(|e| format!("{requests}: {e:?}"))?;
        match doc.get("client").and_then(Json::as_u64) {
            Some(client) => clients.entry(client).or_default().push(line),
            None => prime.push(line),
        }
    }
    let service = Service::new(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        analysis: cli_options(),
        state_dir: Some(state_dir.into()),
        ..ServeOptions::default()
    })
    .map_err(|e| format!("serve: {e}"))?;

    let session = traced.then(Session::new);
    let guard = session.as_ref().map(Session::install_global);
    for line in &prime {
        let served = serve_one(&service, line);
        if served.status != 200 {
            return Err(format!("priming request answered {}", served.status));
        }
    }
    let base = arena_stats();
    let wall = Instant::now();
    let results: Vec<Vec<Served>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .values()
            .map(|lines| {
                let service = &service;
                scope.spawn(move || lines.iter().map(|l| serve_one(service, l)).collect())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_us = micros(wall);
    let nodes = arena_nodes(&base);
    drop(guard);
    service.flush().map_err(|e| format!("flush: {e}"))?;

    let all = results.iter().flatten();
    let verdicts = Json::Arr(
        results
            .iter()
            .map(|client| {
                Json::Arr(
                    client
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("status", Json::num(s.status)),
                                ("verdict", Json::str(s.verdict.as_str())),
                            ])
                        })
                        .collect(),
                )
            })
            .collect(),
    );
    let mut out = vec![("wall_us", Json::Num(wall_us)), ("results", verdicts)];
    if session.is_some() {
        let (mut hit_us, mut hits, mut miss_us, mut misses) = (0.0, 0u32, 0.0, 0u32);
        let mut work: HashMap<String, f64> = HashMap::new();
        for s in all {
            if s.memo_hit {
                hit_us += s.handle_us;
                hits += 1;
            } else {
                miss_us += s.handle_us;
                misses += 1;
            }
            for (name, value) in &s.work {
                *work.entry(name.clone()).or_insert(0.0) += value;
            }
        }
        let sum = |name: &str| Json::Num(*work.get(name).unwrap_or(&0.0));
        out.extend([
            ("handle_hit_us", Json::Num(hit_us)),
            ("hits", Json::num(hits)),
            ("handle_miss_us", Json::Num(miss_us)),
            ("misses", Json::num(misses)),
            ("arena_nodes", Json::Num(nodes)),
            ("parse_us", sum("parse_us")),
            ("eval_us", sum("eval_us")),
            ("lower_us", sum("lower_us")),
            ("eliminate_us", sum("eliminate_us")),
            ("prune_us", sum("prune_us")),
            ("explore_us", sum("explore_us")),
            ("idempotence_us", sum("idempotence_us")),
            ("conflicts", sum("sat.conflicts")),
            ("decisions", sum("sat.decisions")),
            ("propagations", sum("sat.propagations")),
        ]);
    }
    Ok(Json::obj(out))
}

fn flag_value(args: &[String], flag: &str) -> Result<String, String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .ok_or_else(|| format!("missing {flag} <value>"))
}

fn run(args: &[String]) -> Result<Json, String> {
    let traced = args.iter().any(|a| a == "--traced");
    let positional = |i: usize| {
        args.get(i)
            .filter(|a| !a.starts_with("--"))
            .cloned()
            .ok_or_else(|| "missing path argument".to_string())
    };
    match args.first().map(String::as_str) {
        Some("pins") => pins(),
        Some("check") => check(
            &positional(1)?,
            args.iter().any(|a| a == "--metadata"),
            flag_value(args, "--threads")?
                .parse()
                .map_err(|_| "bad --threads value".to_string())?,
            traced,
        ),
        Some("fleet") => fleet(
            &positional(1)?,
            flag_value(args, "--jobs")?
                .parse()
                .map_err(|_| "bad --jobs value".to_string())?,
            &flag_value(args, "--cache")?,
            &flag_value(args, "--baseline")?,
            traced,
        ),
        Some("serve") => serve(&positional(1)?, &flag_value(args, "--state-dir")?, traced),
        _ => Err("usage: perfbench <pins|check|fleet|serve> ...".to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(doc) => {
            println!("{}", doc.render());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_match_the_published_verdict_counts() {
        let doc = pins().expect("pin tables agree");
        let Json::Obj(rows) = doc else {
            panic!("pins is an object");
        };
        let count = |metadata: bool, det: bool| {
            rows.iter()
                .filter(|(_, r)| {
                    r.get("model_metadata").and_then(Json::as_bool) == Some(metadata)
                        && r.get("deterministic").and_then(Json::as_bool) == Some(det)
                })
                .count()
        };
        // 13 fig. 11 manifests (7 det / 6 nondet) plus their 6 fixed
        // twins; the metadata suite is 3 races and 3 fixed twins.
        assert_eq!((count(false, true), count(false, false)), (13, 6));
        assert_eq!((count(true, true), count(true, false)), (3, 3));
    }

    #[test]
    fn solve_time_is_attributed_only_under_idempotence() {
        let session = Session::new();
        {
            let _scope = session.install();
            {
                let _idem = rehearsal::trace::span("idempotence");
                let _solve = rehearsal::trace::span("solve");
                std::thread::sleep(Duration::from_millis(2));
            }
            {
                let _explore = rehearsal::trace::span("explore");
                let _solve = rehearsal::trace::span("solve");
            }
        }
        let snap = session.snapshot();
        let (totals, idempotence_solve) = span_totals(&snap);
        let under_idempotence = snap
            .spans
            .iter()
            .find(|s| s.name == "solve" && s.dur_us >= 2000)
            .expect("the slept solve span")
            .dur_us;
        assert_eq!(idempotence_solve, under_idempotence);
        assert!(totals["solve"] >= idempotence_solve);
    }
}
