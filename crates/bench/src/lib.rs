//! Shared helpers for the figure-regeneration benches.
//!
//! Every bench prints the corresponding paper table/series to stdout
//! (`cargo bench` output) and then takes Criterion measurements of the
//! feasible configurations. `EXPERIMENTS.md` records paper-vs-measured.

pub mod harness;

use rehearsal::core::determinism::{
    check_determinism, AnalysisAborted, AnalysisOptions, DeterminismReport, FsGraph,
};
use rehearsal::fs::{ArenaStats, Content, Expr, FsPath, Pred};
use rehearsal::trace::{Session, TraceSnapshot};
use rehearsal::{Platform, Rehearsal};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// All reductions on (the paper's default configuration).
pub fn options_full() -> AnalysisOptions {
    AnalysisOptions::default()
}

/// Commutativity on, both §4.4 reductions (shrinking *and* elimination)
/// off — fig. 11b's "No" bars ("Shrinking and eliminating resources").
pub fn options_no_pruning() -> AnalysisOptions {
    AnalysisOptions {
        pruning: false,
        elimination: false,
        ..AnalysisOptions::default()
    }
}

/// Pruning off, commutativity off (fig. 11c's "No" bars; elimination is
/// commutativity-based so it is off implicitly).
pub fn options_no_commutativity() -> AnalysisOptions {
    AnalysisOptions {
        pruning: false,
        commutativity: false,
        elimination: false,
        ..AnalysisOptions::default()
    }
}

/// Commutativity on, pruning off (fig. 11c's "Yes" bars).
pub fn options_commutativity_only() -> AnalysisOptions {
    options_no_pruning()
}

/// Lowers a benchmark manifest to an [`FsGraph`] on Ubuntu.
pub fn lower(source: &str) -> FsGraph {
    Rehearsal::new(Platform::Ubuntu)
        .lower(source)
        .expect("benchmark manifests lower cleanly")
}

/// Runs one determinism check with a wall-clock budget, returning elapsed
/// time (or the abort).
pub fn timed_check(
    graph: &FsGraph,
    options: &AnalysisOptions,
    budget: Duration,
) -> Result<(Duration, DeterminismReport), AnalysisAborted> {
    let mut options = options.clone();
    options.timeout = Some(budget);
    let start = Instant::now();
    let report = check_determinism(graph, &options)?;
    Ok((start.elapsed(), report))
}

/// Formats a timing cell, using the paper's "Timeout" convention.
pub fn cell(result: &Result<(Duration, DeterminismReport), AnalysisAborted>) -> String {
    match result {
        Ok((t, _)) => format!("{:.3}s", t.as_secs_f64()),
        Err(_) => "Timeout".to_string(),
    }
}

/// The fig. 13 workload: `n` unordered file resources that all write the
/// same path (expressed directly in FS, as the paper notes it is not valid
/// Puppet).
pub fn conflicting_writers(n: usize) -> FsGraph {
    let f = FsPath::parse("/conflict/file").expect("static path");
    let parent = FsPath::parse("/conflict").expect("static path");
    let exprs: Vec<Expr> = (0..n)
        .map(|i| {
            let c = Content::intern(&format!("writer-{i}"));
            let ensure_parent = Expr::if_then(Pred::is_dir(parent).not(), Expr::mkdir(parent));
            ensure_parent.seq(Expr::if_(
                Pred::does_not_exist(f),
                Expr::create_file(f, c),
                Expr::if_(
                    Pred::is_file(f),
                    Expr::rm(f).seq(Expr::create_file(f, c)),
                    Expr::ERROR,
                ),
            ))
        })
        .collect();
    let names = (0..n).map(|i| format!("File[w{i}]")).collect();
    FsGraph::new(exprs, BTreeSet::new(), names)
}

/// The fig. 13 deterministic variant: `n` conflicting packages that all
/// create the same file, each ordered before a final `file` resource that
/// fixes the content — forcing the solver to prove unsatisfiability.
pub fn conflicting_packages_manifest(n: usize) -> (String, Rehearsal) {
    let mut src = String::new();
    for i in 1..=n {
        src.push_str(&format!(
            "package {{ 'A-{i}': ensure => present, before => File['/software/a'] }}\n"
        ));
    }
    src.push_str("file { '/software/a': content => 'x' }\n");
    let tool = Rehearsal::new(Platform::Ubuntu).with_db(rehearsal_pkgdb::conflict_db(n));
    (src, tool)
}

/// The fig13-scaling workload: `n` *independent* resources (distinct
/// paths, no edges) plus a *chain* of `n` dependent resources (a total
/// order via edges). The independent half exercises the fringe/commute
/// machinery on a wide frontier; the chain half exercises deep prefixes
/// (and, historically, recursion depth — the explicit-stack explorer must
/// not overflow on it). Deterministic by construction.
pub fn scaling_chain(n: usize) -> FsGraph {
    let ind_dir = FsPath::parse("/ind").expect("static path");
    let chain_dir = FsPath::parse("/chain").expect("static path");
    let ensure = |d: FsPath| Expr::if_then(Pred::is_dir(d).not(), Expr::mkdir(d));
    let mut exprs = Vec::with_capacity(2 * n);
    let mut names = Vec::with_capacity(2 * n);
    for i in 0..n {
        let f = FsPath::parse(&format!("/ind/f{i}")).expect("static path");
        exprs.push(ensure(ind_dir).seq(Expr::if_(
            Pred::does_not_exist(f),
            Expr::create_file(f, Content::intern("x")),
            Expr::SKIP,
        )));
        names.push(format!("File[ind-{i}]"));
    }
    for i in 0..n {
        let f = FsPath::parse(&format!("/chain/f{i}")).expect("static path");
        exprs.push(ensure(chain_dir).seq(Expr::if_(
            Pred::does_not_exist(f),
            Expr::create_file(f, Content::intern("y")),
            Expr::SKIP,
        )));
        names.push(format!("File[chain-{i}]"));
    }
    let mut edges = BTreeSet::new();
    for i in 0..n.saturating_sub(1) {
        edges.insert((n + i, n + i + 1));
    }
    FsGraph::new(exprs, edges, names)
}

/// One measured row of a fig11-style bench, for the IR report
/// (`BENCH_ir.json`) and the CI bench-smoke artifact.
#[derive(Debug, Clone)]
pub struct IrBenchRow {
    /// Benchmark name (paper fig. 11 naming).
    pub bench: String,
    /// Analysis configuration (e.g. `pruning`, `no-pruning`).
    pub config: String,
    /// Mean wall time in milliseconds.
    pub wall_ms: f64,
    /// Verdict of the run (`deterministic` / `nondeterministic`).
    pub verdict: String,
    /// IR arena growth attributable to this *benchmark* (not this config:
    /// interning is driven by lowering plus the first analysis, so the
    /// same benchmark's rows share one growth figure). The caller diffs
    /// `arena_stats()` around the benchmark's first lowering + analysis in
    /// the process — later re-runs grow the arena by nothing (that is the
    /// point of hash-consing), so diffing a warm re-run would record
    /// zeros.
    pub arena: ArenaStats,
    /// Dedup ratio within this benchmark's own interning requests
    /// (config-independent, like [`IrBenchRow::arena`]).
    pub dedup_ratio: f64,
    /// Formula nodes allocated by the analysis (solver-side sharing).
    pub formula_nodes: usize,
}

/// Checks a verdict against the suite's pinned expectation, panicking on
/// drift — this is what makes the quick-mode bench a CI gate.
pub fn assert_verdict(bench: &str, expected_deterministic: bool, report: &DeterminismReport) {
    assert_eq!(
        report.is_deterministic(),
        expected_deterministic,
        "verdict drift on benchmark {bench}: expected deterministic={expected_deterministic}"
    );
}

/// Runs one benchmark under one configuration, measuring wall time and
/// verdict; panics on verdict drift. `arena_growth` is the arena delta the
/// caller observed around this benchmark's first lowering + analysis (see
/// [`IrBenchRow::arena`]).
pub fn measure_ir_row(
    bench: &rehearsal::benchmarks::Benchmark,
    config: &str,
    options: &AnalysisOptions,
    samples: usize,
    arena_growth: ArenaStats,
) -> IrBenchRow {
    let graph = lower(bench.source);
    // Always run under a wall-clock budget so a regression cannot hang the
    // CI smoke step; an abort degrades to a "timeout" row (as the fig11b
    // table does) instead of panicking.
    let mut options = options.clone();
    if options.timeout.is_none() {
        options.timeout = Some(Duration::from_secs(600));
    }
    let mut total = Duration::ZERO;
    let mut report = None;
    for _ in 0..samples.max(1) {
        let start = Instant::now();
        report = check_determinism(&graph, &options).ok();
        total += start.elapsed();
    }
    let verdict = match &report {
        Some(r) => {
            assert_verdict(bench.name, bench.deterministic, r);
            if r.is_deterministic() {
                "deterministic"
            } else {
                "nondeterministic"
            }
        }
        None => "timeout",
    };
    IrBenchRow {
        bench: bench.name.to_string(),
        config: config.to_string(),
        wall_ms: total.as_secs_f64() * 1000.0 / samples.max(1) as f64,
        verdict: verdict.to_string(),
        arena: arena_growth,
        dedup_ratio: arena_growth.dedup_ratio(),
        formula_nodes: report.map(|r| r.stats().formula_nodes).unwrap_or(0),
    }
}

/// Serializes rows as a stable JSON document via the shared
/// [`rehearsal::fleet::json::Json`] value model (the same serializer the
/// fleet report and the CLI `--json` modes use).
pub fn ir_rows_to_json(generated_by: &str, rows: &[IrBenchRow]) -> String {
    use rehearsal::fleet::json::Json;
    let results: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::obj([
                ("bench", Json::str(&r.bench)),
                ("config", Json::str(&r.config)),
                ("wall_ms", Json::Num((r.wall_ms * 1000.0).round() / 1000.0)),
                ("verdict", Json::str(&r.verdict)),
                ("arena_expr_nodes", Json::num(r.arena.expr_nodes as u32)),
                ("arena_pred_nodes", Json::num(r.arena.pred_nodes as u32)),
                (
                    "arena_dedup_ratio",
                    Json::Num((r.dedup_ratio * 10000.0).round() / 10000.0),
                ),
                ("formula_nodes", Json::num(r.formula_nodes as u32)),
            ])
        })
        .collect();
    let doc = Json::obj([
        ("generated_by", Json::str(generated_by)),
        ("results", Json::Arr(results)),
    ]);
    doc.render_pretty()
}

/// Writes the IR report to the path named by `REHEARSAL_BENCH_JSON`, when
/// set (the CI bench-smoke step uploads it as an artifact).
pub fn write_ir_json(generated_by: &str, rows: &[IrBenchRow]) {
    let Some(path) = std::env::var_os("REHEARSAL_BENCH_JSON") else {
        return;
    };
    let json = ir_rows_to_json(generated_by, rows);
    std::fs::write(&path, json).expect("write REHEARSAL_BENCH_JSON");
    println!("wrote IR bench report to {}", path.to_string_lossy());
}

/// One measured row of the explorer-core benches (`fig13_scaling`), for
/// `BENCH_explorer.json` and the CI bench-smoke artifact.
#[derive(Debug, Clone)]
pub struct ExplorerBenchRow {
    /// Workload name (e.g. `writers`, `packages-unsat`, `mixed-chain`).
    pub workload: String,
    /// The scale parameter.
    pub n: usize,
    /// Analysis configuration label.
    pub config: String,
    /// Wall time in milliseconds.
    pub wall_ms: f64,
    /// Verdict (`deterministic` / `nondeterministic` / `timeout`).
    pub verdict: String,
    /// Sequences covered (including cache skips).
    pub sequences_explored: usize,
    /// Of those, covered via state-cache hits.
    pub sequences_skipped: usize,
    /// Distinct symbolic outputs after dedup.
    pub distinct_outputs: usize,
    /// Persistent-solver conflicts.
    pub solver_conflicts: u64,
    /// Grounding reuse ratio across the check's incremental queries.
    pub grounding_reuse_ratio: f64,
}

/// Measures one workload/config and pins its verdict (drift ⇒ panic, the
/// CI-gate behavior — wall time never fails the bench).
pub fn measure_explorer_row(
    workload: &str,
    n: usize,
    config: &str,
    graph: &FsGraph,
    options: &AnalysisOptions,
    expected_deterministic: bool,
) -> ExplorerBenchRow {
    let mut options = options.clone();
    if options.timeout.is_none() {
        options.timeout = Some(Duration::from_secs(600));
    }
    let start = Instant::now();
    let report = check_determinism(graph, &options);
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    let (verdict, stats) = match &report {
        Ok(r) => {
            assert_eq!(
                r.is_deterministic(),
                expected_deterministic,
                "verdict drift on {workload}/n={n}/{config}"
            );
            (
                if r.is_deterministic() {
                    "deterministic"
                } else {
                    "nondeterministic"
                },
                r.stats(),
            )
        }
        Err(aborted) => {
            // In quick (CI-gate) mode every row is sized to complete; an
            // abort there IS the regression the gate exists to catch, so
            // it must fail the step rather than degrade to a row that
            // silently skips the verdict pin. Long local runs keep the
            // fig11b-style degrade-to-timeout behavior.
            assert!(
                !harness::is_quick(),
                "analysis aborted in quick mode on {workload}/n={n}/{config}: {aborted}"
            );
            ("timeout", Default::default())
        }
    };
    ExplorerBenchRow {
        workload: workload.to_string(),
        n,
        config: config.to_string(),
        wall_ms,
        verdict: verdict.to_string(),
        sequences_explored: stats.sequences_explored,
        sequences_skipped: stats.sequences_skipped,
        distinct_outputs: stats.distinct_outputs,
        solver_conflicts: stats.solver_conflicts,
        grounding_reuse_ratio: stats.grounding_reuse_ratio(),
    }
}

/// Serializes explorer rows via the shared `fleet::json` value model.
pub fn explorer_rows_to_json(generated_by: &str, rows: &[ExplorerBenchRow]) -> String {
    use rehearsal::fleet::json::Json;
    let results: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::obj([
                ("workload", Json::str(&r.workload)),
                ("n", Json::num(r.n as u32)),
                ("config", Json::str(&r.config)),
                ("wall_ms", Json::Num((r.wall_ms * 1000.0).round() / 1000.0)),
                ("verdict", Json::str(&r.verdict)),
                // f64 keeps large sequence/solver counters honest (the
                // naive rows cover factorial spaces past u32).
                ("sequences_explored", Json::Num(r.sequences_explored as f64)),
                ("sequences_skipped", Json::Num(r.sequences_skipped as f64)),
                ("distinct_outputs", Json::num(r.distinct_outputs as u32)),
                ("solver_conflicts", Json::Num(r.solver_conflicts as f64)),
                (
                    "grounding_reuse_ratio",
                    Json::Num((r.grounding_reuse_ratio * 10000.0).round() / 10000.0),
                ),
            ])
        })
        .collect();
    let doc = Json::obj([
        ("generated_by", Json::str(generated_by)),
        ("results", Json::Arr(results)),
    ]);
    doc.render_pretty()
}

/// Writes the explorer report to the path named by `REHEARSAL_BENCH_JSON`,
/// when set.
pub fn write_explorer_json(generated_by: &str, rows: &[ExplorerBenchRow]) {
    let Some(path) = std::env::var_os("REHEARSAL_BENCH_JSON") else {
        return;
    };
    let json = explorer_rows_to_json(generated_by, rows);
    std::fs::write(&path, json).expect("write REHEARSAL_BENCH_JSON");
    println!("wrote explorer bench report to {}", path.to_string_lossy());
}

/// One row of the observability-overhead study (`obs_overhead`), for
/// `BENCH_obs.json`: the same workload measured with tracing *disabled*
/// (no session installed, so every instrumentation site reduces to one
/// relaxed atomic load) and *enabled* (session installed: spans, the
/// metrics registry, and sampled hot-path events all live), with the
/// verdict and work fingerprint pinned identical between the two
/// configurations.
#[derive(Debug, Clone)]
pub struct ObsBenchRow {
    /// Workload name.
    pub workload: String,
    /// Scale parameter (graph count for composite workloads).
    pub n: usize,
    /// Interleaved sample pairs behind each median.
    pub samples: usize,
    /// Median wall time with no session installed, ms.
    pub disabled_ms: f64,
    /// Median wall time with a session installed, ms.
    pub enabled_ms: f64,
    /// `(enabled − disabled) / disabled`, percent. The *enabling* cost;
    /// the disabled-mode cost over uninstrumented code is smaller still
    /// (disabled mode runs a strict subset of the enabled-mode
    /// instrumentation: the activity check alone). Medians of
    /// interleaved samples, so small negative values are timing noise.
    pub overhead_pct: f64,
    /// Verdict summary (`deterministic`, `nondeterministic`, or
    /// `<d> det / <n> nondet` for composite workloads).
    pub verdict: String,
    /// Total sequences covered per pass (identical in both configs).
    pub sequences_explored: u64,
    /// Per-phase wall times from one traced pass, ms — the registry's
    /// own attribution of where the workload spends its time.
    pub phases: Vec<(String, f64)>,
}

/// Measures one workload (a list of graphs with pinned verdicts) with
/// tracing disabled and enabled, interleaving the two configurations so
/// machine drift hits both medians equally. Panics if the verdict or the
/// work fingerprint (sequences, cache skips, outputs, conflicts) differs
/// between configurations — observability must be read-only.
pub fn measure_obs_row(
    workload: &str,
    n: usize,
    graphs: &[(FsGraph, bool)],
    options: &AnalysisOptions,
    samples: usize,
) -> ObsBenchRow {
    let mut options = options.clone();
    if options.timeout.is_none() {
        options.timeout = Some(Duration::from_secs(600));
    }
    let run = |traced: bool| {
        let session = traced.then(Session::new);
        let guard = session.as_ref().map(Session::install);
        let start = Instant::now();
        let mut fingerprint = Vec::with_capacity(graphs.len());
        for (graph, expected) in graphs {
            let report =
                check_determinism(graph, &options).expect("obs workloads are sized to complete");
            assert_eq!(
                report.is_deterministic(),
                *expected,
                "verdict drift on obs workload {workload}"
            );
            let s = report.stats();
            fingerprint.push((
                report.is_deterministic(),
                s.sequences_explored,
                s.sequences_skipped,
                s.distinct_outputs,
                s.solver_conflicts,
            ));
        }
        let wall = start.elapsed();
        drop(guard);
        (wall, fingerprint, session.map(|s| s.snapshot()))
    };
    // Warm both configurations up front: the interning arena, the
    // structural memos, and the package DB are process-global and
    // append-only, so after warmup every measured pass sees the same
    // world.
    run(false);
    run(true);
    let samples = samples.max(1);
    let mut disabled = Vec::with_capacity(samples);
    let mut enabled = Vec::with_capacity(samples);
    let mut snapshot: Option<TraceSnapshot> = None;
    let mut fingerprint = Vec::new();
    for _ in 0..samples {
        let (d, fd, _) = run(false);
        let (e, fe, snap) = run(true);
        assert_eq!(
            fd, fe,
            "work fingerprint drift between untraced and traced runs on {workload}"
        );
        disabled.push(d);
        enabled.push(e);
        if snapshot.is_none() {
            snapshot = snap;
            fingerprint = fd;
        }
    }
    disabled.sort();
    enabled.sort();
    let disabled_ms = disabled[samples / 2].as_secs_f64() * 1000.0;
    let enabled_ms = enabled[samples / 2].as_secs_f64() * 1000.0;
    let det = fingerprint.iter().filter(|f| f.0).count();
    let verdict = match (graphs.len(), det) {
        (1, 1) => "deterministic".to_string(),
        (1, 0) => "nondeterministic".to_string(),
        (total, det) => format!("{det} det / {} nondet", total - det),
    };
    ObsBenchRow {
        workload: workload.to_string(),
        n,
        samples,
        disabled_ms,
        enabled_ms,
        overhead_pct: if disabled_ms > 0.0 {
            (enabled_ms - disabled_ms) / disabled_ms * 100.0
        } else {
            0.0
        },
        verdict,
        sequences_explored: fingerprint.iter().map(|f| f.1 as u64).sum(),
        phases: snapshot
            .map(|s| {
                s.phase_totals()
                    .into_iter()
                    .map(|p| (p.name, p.total_us as f64 / 1000.0))
                    .collect()
            })
            .unwrap_or_default(),
    }
}

/// Serializes obs rows via the shared `fleet::json` value model.
pub fn obs_rows_to_json(generated_by: &str, rows: &[ObsBenchRow]) -> String {
    use rehearsal::fleet::json::Json;
    let round = |v: f64| (v * 1000.0).round() / 1000.0;
    let results: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::obj([
                ("workload", Json::str(&r.workload)),
                ("n", Json::num(r.n as u32)),
                ("samples", Json::num(r.samples as u32)),
                ("disabled_ms", Json::Num(round(r.disabled_ms))),
                ("enabled_ms", Json::Num(round(r.enabled_ms))),
                ("overhead_pct", Json::Num(round(r.overhead_pct))),
                ("verdict", Json::str(&r.verdict)),
                ("sequences_explored", Json::Num(r.sequences_explored as f64)),
                (
                    "phases_ms",
                    Json::Obj(
                        r.phases
                            .iter()
                            .map(|(name, ms)| (name.clone(), Json::Num(round(*ms))))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let doc = Json::obj([
        ("generated_by", Json::str(generated_by)),
        (
            "method",
            Json::str(
                "median of interleaved untraced/traced sample pairs after a warmup pass; \
                 verdicts and work fingerprints pinned identical between configurations \
                 (drift panics); phases_ms is the trace registry's own per-phase attribution \
                 from one traced pass",
            ),
        ),
        ("results", Json::Arr(results)),
    ]);
    doc.render_pretty()
}

/// Writes the obs report to the path named by `REHEARSAL_BENCH_JSON`,
/// when set (CI uploads it as the `BENCH_obs.json` artifact).
pub fn write_obs_json(generated_by: &str, rows: &[ObsBenchRow]) {
    let Some(path) = std::env::var_os("REHEARSAL_BENCH_JSON") else {
        return;
    };
    let json = obs_rows_to_json(generated_by, rows);
    std::fs::write(&path, json).expect("write REHEARSAL_BENCH_JSON");
    println!("wrote obs bench report to {}", path.to_string_lossy());
}

/// One measured scenario of the daemon-throughput bench
/// (`serve_throughput`), for `BENCH_serve.json` and the CI bench-smoke
/// artifact.
#[derive(Debug, Clone)]
pub struct ServeBenchRow {
    /// Scenario label (`engine-per-check`, `daemon-cold`, `daemon-warm`,
    /// `daemon-warm-4-clients`).
    pub scenario: String,
    /// Wall time for the whole scenario, milliseconds.
    pub wall_ms: f64,
    /// Check requests answered in the scenario.
    pub requests: usize,
    /// Throughput, requests per second.
    pub req_per_s: f64,
    /// Requests answered from the daemon's resident memo (no lowering).
    pub memo_hits: usize,
}

/// Serializes serve rows via the shared `fleet::json` value model.
pub fn serve_rows_to_json(generated_by: &str, rows: &[ServeBenchRow]) -> String {
    use rehearsal::fleet::json::Json;
    let results: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::obj([
                ("scenario", Json::str(&r.scenario)),
                ("wall_ms", Json::Num((r.wall_ms * 1000.0).round() / 1000.0)),
                ("requests", Json::num(r.requests as u32)),
                ("req_per_s", Json::Num((r.req_per_s * 10.0).round() / 10.0)),
                ("memo_hits", Json::num(r.memo_hits as u32)),
            ])
        })
        .collect();
    let doc = Json::obj([
        ("generated_by", Json::str(generated_by)),
        (
            "method",
            Json::str(
                "the bundled 13-benchmark suite sent as HTTP /v1/check requests against an \
                 in-process daemon (ephemeral port), cold then warm then warm from 4 \
                 concurrent clients, versus a fresh engine per check (the process-per-check \
                 cost floor, minus exec overhead); every response's verdict is pinned \
                 against the paper's (7 det / 6 nondet) — drift panics, so the warm core \
                 can only change wall time",
            ),
        ),
        ("results", Json::Arr(results)),
    ]);
    doc.render_pretty()
}

/// Writes the serve report to the path named by `REHEARSAL_BENCH_JSON`,
/// when set (CI uploads it as the `BENCH_serve.json` artifact).
pub fn write_serve_json(generated_by: &str, rows: &[ServeBenchRow]) {
    let Some(path) = std::env::var_os("REHEARSAL_BENCH_JSON") else {
        return;
    };
    let json = serve_rows_to_json(generated_by, rows);
    std::fs::write(&path, json).expect("write REHEARSAL_BENCH_JSON");
    println!("wrote serve bench report to {}", path.to_string_lossy());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflicting_writers_explode_without_order() {
        let g = conflicting_writers(3);
        let r = check_determinism(&g, &options_full()).unwrap();
        assert!(!r.is_deterministic());
        assert!(
            r.stats().sequences_explored < 6,
            "early exit stops before covering all 3! orders"
        );
        // With early exit off, the explorer accounts for the whole space.
        let exhaustive = AnalysisOptions {
            early_exit: false,
            ..options_full()
        };
        let r = check_determinism(&g, &exhaustive).unwrap();
        assert!(!r.is_deterministic());
        assert!(r.stats().sequences_explored >= 6, "3! orders explored");
    }

    #[test]
    fn conflicting_packages_become_deterministic() {
        let (src, tool) = conflicting_packages_manifest(3);
        let graph = tool.lower(&src).unwrap();
        let r = check_determinism(&graph, &options_full()).unwrap();
        assert!(
            r.is_deterministic(),
            "final file resource fixes the content"
        );
        assert!(r.stats().sequences_explored > 1, "solver proves UNSAT");
    }

    #[test]
    fn option_presets_differ() {
        assert!(options_full().pruning);
        assert!(!options_no_pruning().pruning);
        assert!(!options_no_commutativity().commutativity);
    }
}
