//! The fleet report: per-manifest verdict rows, aggregate counters, and
//! renderers (human table + stable JSON for pipelines).

use crate::cache::StoreKey;
use crate::json::{diagnostic_json, Json};
use rehearsal_core::{DeterminismReport, DeterminismStats, RehearsalError, RehearsalErrorKind};
use rehearsal_core::{IdempotenceReport, VerificationReport};
use rehearsal_diag::Diagnostic;
use rehearsal_pkgdb::Platform;

/// The verdict for one `(manifest, platform)` job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Deterministic and idempotent — the manifest is correct.
    Deterministic,
    /// Two resource orders can produce different outcomes.
    Nondeterministic,
    /// Deterministic, but applying twice differs from applying once.
    Nonidempotent,
    /// The pipeline failed before a verdict (parse/eval/compile error).
    Error,
    /// The analysis exceeded its deadline (or was cancelled).
    Timeout,
}

impl Verdict {
    /// Stable lower-case label used in JSON and the cache.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Deterministic => "deterministic",
            Verdict::Nondeterministic => "nondeterministic",
            Verdict::Nonidempotent => "nonidempotent",
            Verdict::Error => "error",
            Verdict::Timeout => "timeout",
        }
    }

    /// Parses a [`Verdict::label`] back (for cache loads).
    pub fn from_label(label: &str) -> Option<Verdict> {
        Some(match label {
            "deterministic" => Verdict::Deterministic,
            "nondeterministic" => Verdict::Nondeterministic,
            "nonidempotent" => Verdict::Nonidempotent,
            "error" => Verdict::Error,
            "timeout" => Verdict::Timeout,
            _ => return None,
        })
    }

    /// Whether this verdict passes a CI gate.
    pub fn is_pass(&self) -> bool {
        matches!(self, Verdict::Deterministic)
    }
}

/// The outcome of one job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Manifest display name (the path it was discovered under).
    pub manifest: String,
    /// Target platform.
    pub platform: Platform,
    /// The verdict.
    pub verdict: Verdict,
    /// Human-readable detail (counterexample summary or error text).
    pub detail: String,
    /// Resources in the manifest's graph (0 when unknown).
    pub resources: usize,
    /// Wall-clock the analysis took, in milliseconds (0 for cache hits).
    /// Equal to [`JobResult::run_ms`]; kept for report back-compat.
    pub millis: u64,
    /// Time the job sat in the scheduler queue before a worker picked it
    /// up, in milliseconds (0 for cache hits, which never enqueue).
    /// Reported separately from [`JobResult::run_ms`] so queue wait under
    /// a saturated worker pool is visible instead of inflating the
    /// analysis time.
    pub queue_ms: u64,
    /// Time a worker actually spent analyzing, in milliseconds (0 for
    /// cache hits).
    pub run_ms: u64,
    /// Per-phase wall-clock for this job as `(phase, micros)`, in
    /// first-appearance order; empty when tracing was off or the row is a
    /// cache hit.
    pub phases: Vec<(String, u64)>,
    /// Whether the verdict came from the cache without re-analysis.
    pub cached: bool,
    /// The determinism check's statistics for this job (all zero for
    /// cache hits, pre-verdict errors and aborted analyses).
    pub counters: DeterminismStats,
    /// The job's source-anchored findings (the race report, pipeline
    /// errors, modeling warnings); empty for clean manifests. Cache hits
    /// restore the diagnostics recorded at analysis time.
    pub diagnostics: Vec<Diagnostic>,
    /// Store accounting (`None` when the row was analyzed with no
    /// baseline attached, or never reached a store).
    pub reuse: Option<ReuseCounts>,
    /// The verdict-cache key the row was answered from or filed under
    /// (`None` for rows no store holds: unreadable manifests and jobs
    /// cancelled before they started). Timeout rows carry their key but
    /// are never written under it.
    pub store_key: Option<StoreKey>,
}

impl JobResult {
    /// The row for one manifest's run through lowering and
    /// [`rehearsal_core::analyze`]: `report` is the verdict or the error
    /// that stopped the pipeline, `resources` the lowered graph's size (0
    /// when lowering failed) and `diagnostics` every finding. Timings,
    /// phases and store accounting start empty; the engine fills them in.
    pub fn from_analysis(
        manifest: String,
        platform: Platform,
        resources: usize,
        report: &Result<VerificationReport, RehearsalError>,
        diagnostics: Vec<Diagnostic>,
    ) -> JobResult {
        let word = |ok: bool| if ok { "succeeds" } else { "errors" };
        let (verdict, detail) = match report {
            Ok(VerificationReport {
                determinism: DeterminismReport::NonDeterministic(cex, _),
                ..
            }) => (
                Verdict::Nondeterministic,
                format!(
                    "order A {}, order B {}",
                    word(cex.outcome_a.is_ok()),
                    word(cex.outcome_b.is_ok())
                ),
            ),
            Ok(VerificationReport {
                idempotence: Some(IdempotenceReport::NotIdempotent(_)),
                ..
            }) => (
                Verdict::Nonidempotent,
                "applying twice differs from applying once".to_string(),
            ),
            Ok(_) => (Verdict::Deterministic, String::new()),
            Err(e) if e.kind() == RehearsalErrorKind::Aborted => {
                (Verdict::Timeout, e.reason().to_string())
            }
            Err(e) => (Verdict::Error, e.to_string()),
        };
        JobResult {
            manifest,
            platform,
            verdict,
            detail,
            resources,
            millis: 0,
            queue_ms: 0,
            run_ms: 0,
            phases: Vec::new(),
            cached: false,
            counters: report
                .as_ref()
                .map(|r| r.determinism.stats())
                .unwrap_or_default(),
            diagnostics,
            reuse: None,
            store_key: None,
        }
    }
}

/// Whether a row's verdict came from a store (the semantic verdict cache
/// or the `--baseline` pins) or from a cold analysis, counted in
/// resources. A manifest is answered whole or analyzed whole, so one of
/// the two resource counts is always zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseCounts {
    /// The row's resource count when a store answered it, else 0.
    pub resources_clean: usize,
    /// The row's resource count when it was analyzed cold, else 0.
    pub resources_dirty: usize,
    /// Always 0. Kept so `rehearsal-fleet/3` readers find the field.
    pub pairs_reused: u64,
}

impl ReuseCounts {
    /// A row of `resources` resources answered by a store.
    pub fn store(resources: usize) -> ReuseCounts {
        ReuseCounts {
            resources_clean: resources,
            ..ReuseCounts::default()
        }
    }

    /// A row of `resources` resources analyzed cold.
    pub fn cold(resources: usize) -> ReuseCounts {
        ReuseCounts {
            resources_dirty: resources,
            ..ReuseCounts::default()
        }
    }
}

/// Aggregate counters over a fleet run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetCounts {
    /// Jobs that verified deterministic + idempotent.
    pub deterministic: usize,
    /// Jobs with a determinism counterexample.
    pub nondeterministic: usize,
    /// Deterministic jobs that failed the idempotence check.
    pub nonidempotent: usize,
    /// Jobs that errored before a verdict.
    pub error: usize,
    /// Jobs that hit the per-job deadline.
    pub timeout: usize,
    /// Jobs answered from the verdict cache.
    pub cached: usize,
}

impl FleetCounts {
    /// Total number of jobs.
    pub fn total(&self) -> usize {
        self.deterministic + self.nondeterministic + self.nonidempotent + self.error + self.timeout
    }

    /// Jobs that would fail a CI gate.
    pub fn failures(&self) -> usize {
        self.total() - self.deterministic
    }
}

/// The result of a whole fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// One row per `(manifest, platform)` job, in input order.
    pub rows: Vec<JobResult>,
    /// Wall-clock for the whole run, in milliseconds.
    pub wall_millis: u64,
    /// Worker threads used.
    pub jobs: usize,
    /// Successful work steals between workers during the run.
    pub steals: u64,
    /// Deepest any worker's queue got (right after deal-out).
    pub max_queue_depth: usize,
    /// Fleet-level metrics: scheduler counters (always present) plus
    /// every per-job session's registry merged in (counters add, gauges
    /// keep the max). Per-job pipeline metrics appear only when the
    /// caller had a trace session installed during the run.
    pub metrics: rehearsal_trace::MetricsSnapshot,
}

impl FleetReport {
    /// Aggregates the rows.
    pub fn counts(&self) -> FleetCounts {
        let mut c = FleetCounts::default();
        for row in &self.rows {
            match row.verdict {
                Verdict::Deterministic => c.deterministic += 1,
                Verdict::Nondeterministic => c.nondeterministic += 1,
                Verdict::Nonidempotent => c.nonidempotent += 1,
                Verdict::Error => c.error += 1,
                Verdict::Timeout => c.timeout += 1,
            }
            if row.cached {
                c.cached += 1;
            }
        }
        c
    }

    /// Whether every job passed (the CI-gate condition).
    pub fn all_clean(&self) -> bool {
        self.rows.iter().all(|r| r.verdict.is_pass())
    }

    /// Renders the human-readable table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("workers: {}\n", self.jobs));
        out.push_str(&format!(
            "{:<34} {:<8} {:<17} {:>6} {:>8} {:>9}  detail\n",
            "manifest", "platform", "verdict", "res", "queue", "time"
        ));
        for row in &self.rows {
            let (queue, time) = if row.cached {
                ("-".to_string(), "cached".to_string())
            } else {
                (format!("{}ms", row.queue_ms), format!("{}ms", row.run_ms))
            };
            out.push_str(&format!(
                "{:<34} {:<8} {:<17} {:>6} {:>8} {:>9}  {}\n",
                truncate(&row.manifest, 34),
                row.platform,
                row.verdict.label(),
                row.resources,
                queue,
                time,
                truncate(&row.detail, 60),
            ));
        }
        let c = self.counts();
        out.push_str(&format!(
            "\n{} manifests in {}ms on {} worker(s): \
             {} deterministic, {} nondeterministic, {} nonidempotent, \
             {} error, {} timeout ({} cached)\n",
            c.total(),
            self.wall_millis,
            self.jobs,
            c.deterministic,
            c.nondeterministic,
            c.nonidempotent,
            c.error,
            c.timeout,
            c.cached,
        ));
        out.push_str(if self.all_clean() {
            "fleet is clean ✔\n"
        } else {
            "fleet has failures ✘\n"
        });
        out
    }

    /// Renders the stable JSON document (see `README.md` for the schema).
    pub fn to_json(&self) -> Json {
        let c = self.counts();
        Json::obj([
            ("schema", Json::str("rehearsal-fleet-report/3")),
            (
                "manifests",
                Json::Arr(self.rows.iter().map(row_json).collect()),
            ),
            (
                "counts",
                Json::obj([
                    ("total", Json::num(c.total() as u32)),
                    ("deterministic", Json::num(c.deterministic as u32)),
                    ("nondeterministic", Json::num(c.nondeterministic as u32)),
                    ("nonidempotent", Json::num(c.nonidempotent as u32)),
                    ("error", Json::num(c.error as u32)),
                    ("timeout", Json::num(c.timeout as u32)),
                    ("cached", Json::num(c.cached as u32)),
                ]),
            ),
            ("wall_millis", Json::num(self.wall_millis as u32)),
            ("jobs", Json::num(self.jobs as u32)),
            (
                "scheduler",
                Json::obj([
                    ("steals", Json::Num(self.steals as f64)),
                    ("max_queue_depth", Json::num(self.max_queue_depth as u32)),
                ]),
            ),
            ("metrics", metrics_json(&self.metrics)),
            ("clean", Json::Bool(self.all_clean())),
        ])
    }
}

/// Serializes a metrics snapshot: counters and gauges verbatim,
/// histograms as `{count, sum, max}` summaries (per-bucket detail stays in
/// the Prometheus export, where `le` labels are idiomatic). Shared with
/// the CLI's `check --json` document.
pub fn metrics_json(m: &rehearsal_trace::MetricsSnapshot) -> Json {
    Json::obj([
        (
            "counters",
            Json::Obj(
                m.counters()
                    .map(|(k, v)| (k.to_string(), Json::Num(v as f64)))
                    .collect(),
            ),
        ),
        (
            "gauges",
            Json::Obj(
                m.gauges()
                    .map(|(k, v)| (k.to_string(), Json::Num(v as f64)))
                    .collect(),
            ),
        ),
        (
            "histograms",
            Json::Obj(
                m.histogram_names()
                    .map(|k| k.to_string())
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|k| {
                        let h = m.histogram(&k).expect("name came from the snapshot");
                        (
                            k,
                            Json::obj([
                                ("count", Json::Num(h.count as f64)),
                                ("sum", Json::Num(h.sum as f64)),
                                ("max", Json::Num(h.max as f64)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The `rehearsal-check/5` document for one row: what `check --json`
/// prints and what the daemon's `/v1/check` returns, so the two agree
/// field by field. `metrics` is the run's trace registry (`null` when no
/// engine or trace session ran, as on a cache hit).
pub fn check_document(
    row: &JobResult,
    model_metadata: bool,
    metrics: Option<&rehearsal_trace::MetricsSnapshot>,
) -> Json {
    let (deterministic, idempotent) = match row.verdict {
        Verdict::Deterministic => (Json::Bool(true), Json::Bool(true)),
        Verdict::Nondeterministic => (Json::Bool(false), Json::Null),
        Verdict::Nonidempotent => (Json::Bool(true), Json::Bool(false)),
        Verdict::Error | Verdict::Timeout => (Json::Null, Json::Null),
    };
    Json::obj([
        ("schema", Json::str("rehearsal-check/5")),
        ("manifest", Json::str(&row.manifest)),
        ("platform", Json::str(row.platform.to_string())),
        ("model_metadata", Json::Bool(model_metadata)),
        ("verdict", Json::str(row.verdict.label())),
        ("deterministic", deterministic),
        ("idempotent", idempotent),
        ("detail", Json::str(&row.detail)),
        (
            "diagnostics",
            Json::Arr(row.diagnostics.iter().map(diagnostic_json).collect()),
        ),
        ("stats", stats_json(row)),
        ("phases", phases_json(&row.phases)),
        ("cached", Json::Bool(row.cached)),
        ("reuse", reuse_json(row.reuse.as_ref())),
        (
            "metrics",
            match metrics {
                Some(m) => metrics_json(m),
                None => Json::Null,
            },
        ),
    ])
}

/// A row's work counters: the check document's `stats` and the fleet
/// row's `counters`. `resources` is the row's own count, so a cache hit
/// still reports its size.
fn stats_json(row: &JobResult) -> Json {
    let s = &row.counters;
    // Every counter renders as f64: sequence and solver counts can
    // exceed u32 (the state cache accounts factorial spaces;
    // propagations run tens of millions a second).
    let n = |v: u64| Json::Num(v as f64);
    Json::obj([
        ("resources", n(row.resources as u64)),
        (
            "resources_after_elimination",
            n(s.resources_after_elimination as u64),
        ),
        ("paths", n(s.paths as u64)),
        ("tracked_paths", n(s.tracked_paths as u64)),
        ("meta_ops", n(s.meta_ops as u64)),
        ("meta_tracked_paths", n(s.meta_tracked_paths as u64)),
        ("sequences_explored", n(s.sequences_explored as u64)),
        ("sequences_skipped", n(s.sequences_skipped as u64)),
        ("state_cache_hits", n(s.state_cache_hits as u64)),
        ("distinct_outputs", n(s.distinct_outputs as u64)),
        ("formula_nodes", n(s.formula_nodes as u64)),
        ("solver_conflicts", n(s.solver_conflicts)),
        ("solver_propagations", n(s.solver_propagations)),
        ("grounded_clauses", n(s.grounded_clauses)),
        (
            "grounding_reuse_ratio",
            Json::Num((s.grounding_reuse_ratio() * 10000.0).round() / 10000.0),
        ),
    ])
}

/// Per-phase wall-clock as an object of milliseconds.
fn phases_json(phases: &[(String, u64)]) -> Json {
    Json::Obj(
        phases
            .iter()
            .map(|(name, us)| (name.clone(), Json::Num(*us as f64 / 1000.0)))
            .collect(),
    )
}

fn reuse_json(reuse: Option<&ReuseCounts>) -> Json {
    match reuse {
        None => Json::Null,
        Some(r) => Json::obj([
            ("resources_clean", Json::num(r.resources_clean as u32)),
            ("resources_dirty", Json::num(r.resources_dirty as u32)),
            ("pairs_reused", Json::Num(r.pairs_reused as f64)),
        ]),
    }
}

fn row_json(row: &JobResult) -> Json {
    Json::obj([
        ("manifest", Json::str(&row.manifest)),
        ("platform", Json::str(row.platform.to_string())),
        ("verdict", Json::str(row.verdict.label())),
        ("detail", Json::str(&row.detail)),
        ("resources", Json::num(row.resources as u32)),
        ("millis", Json::num(row.millis as u32)),
        ("queue_ms", Json::num(row.queue_ms as u32)),
        ("run_ms", Json::num(row.run_ms as u32)),
        ("phases", phases_json(&row.phases)),
        ("cached", Json::Bool(row.cached)),
        ("reuse", reuse_json(row.reuse.as_ref())),
        (
            "diagnostics",
            Json::Arr(row.diagnostics.iter().map(diagnostic_json).collect()),
        ),
        ("counters", stats_json(row)),
    ])
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let cut: String = s.chars().take(max.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(verdict: Verdict, cached: bool) -> JobResult {
        JobResult {
            manifest: "site.pp".to_string(),
            platform: Platform::Ubuntu,
            verdict,
            detail: String::new(),
            resources: 3,
            millis: 5,
            queue_ms: 1,
            run_ms: 5,
            phases: Vec::new(),
            cached,
            counters: DeterminismStats::default(),
            diagnostics: Vec::new(),
            reuse: None,
            store_key: None,
        }
    }

    #[test]
    fn counts_aggregate() {
        let report = FleetReport {
            rows: vec![
                row(Verdict::Deterministic, true),
                row(Verdict::Nondeterministic, false),
                row(Verdict::Timeout, false),
            ],
            wall_millis: 12,
            jobs: 2,
            steals: 0,
            max_queue_depth: 2,
            metrics: rehearsal_trace::MetricsSnapshot::default(),
        };
        let c = report.counts();
        assert_eq!(c.total(), 3);
        assert_eq!(c.deterministic, 1);
        assert_eq!(c.nondeterministic, 1);
        assert_eq!(c.timeout, 1);
        assert_eq!(c.cached, 1);
        assert_eq!(c.failures(), 2);
        assert!(!report.all_clean());
    }

    #[test]
    fn verdict_labels_roundtrip() {
        for v in [
            Verdict::Deterministic,
            Verdict::Nondeterministic,
            Verdict::Nonidempotent,
            Verdict::Error,
            Verdict::Timeout,
        ] {
            assert_eq!(Verdict::from_label(v.label()), Some(v));
        }
        assert_eq!(Verdict::from_label("nonsense"), None);
    }

    #[test]
    fn json_shape_is_stable() {
        let report = FleetReport {
            rows: vec![row(Verdict::Deterministic, false)],
            wall_millis: 7,
            jobs: 1,
            steals: 2,
            max_queue_depth: 1,
            metrics: rehearsal_trace::MetricsSnapshot::default(),
        };
        let j = report.to_json();
        assert_eq!(
            j.get("schema").and_then(Json::as_str),
            Some("rehearsal-fleet-report/3")
        );
        let counts = j.get("counts").expect("counts");
        assert_eq!(counts.get("total").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("clean").and_then(Json::as_bool), Some(true));
        let rows = j.get("manifests").and_then(Json::as_arr).expect("rows");
        assert_eq!(
            rows[0].get("verdict").and_then(Json::as_str),
            Some("deterministic")
        );
        let counters = rows[0].get("counters").expect("counters object");
        assert_eq!(
            counters.get("sequences_explored").and_then(Json::as_u64),
            Some(0)
        );
        assert_eq!(
            counters.get("solver_conflicts").and_then(Json::as_u64),
            Some(0)
        );
        assert_eq!(rows[0].get("queue_ms").and_then(Json::as_u64), Some(1));
        assert_eq!(rows[0].get("run_ms").and_then(Json::as_u64), Some(5));
        assert!(
            matches!(rows[0].get("reuse"), Some(Json::Null)),
            "no incremental context → explicit null"
        );
        let sched = j.get("scheduler").expect("scheduler object");
        assert_eq!(sched.get("steals").and_then(Json::as_u64), Some(2));
        assert_eq!(sched.get("max_queue_depth").and_then(Json::as_u64), Some(1));
        let metrics = j.get("metrics").expect("metrics object");
        assert!(metrics.get("counters").is_some());
    }

    #[test]
    fn reuse_counts_serialize_when_present() {
        let mut r = row(Verdict::Deterministic, false);
        r.reuse = Some(ReuseCounts::store(7));
        let j = row_json(&r);
        let reuse = j.get("reuse").expect("reuse object");
        assert_eq!(reuse.get("resources_clean").and_then(Json::as_u64), Some(7));
        assert_eq!(reuse.get("resources_dirty").and_then(Json::as_u64), Some(0));
        assert_eq!(reuse.get("pairs_reused").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn table_header_echoes_worker_count() {
        let report = FleetReport {
            rows: vec![row(Verdict::Deterministic, false)],
            wall_millis: 7,
            jobs: 6,
            steals: 0,
            max_queue_depth: 1,
            metrics: rehearsal_trace::MetricsSnapshot::default(),
        };
        assert!(report.render_table().starts_with("workers: 6\n"));
    }

    #[test]
    fn grounding_reuse_ratio_bounds() {
        let ratio = |r: &JobResult| {
            let counters = row_json(r).get("counters").cloned().expect("counters");
            let stats = check_document(r, false, None).get("stats").cloned();
            assert_eq!(stats, Some(counters.clone()), "one rendering for both");
            match counters.get("grounding_reuse_ratio") {
                Some(Json::Num(x)) => *x,
                other => panic!("{other:?}"),
            }
        };
        let mut r = row(Verdict::Deterministic, false);
        assert_eq!(ratio(&r), 0.0, "no grounding yet");
        r.counters.grounded_nodes = 25;
        r.counters.grounded_reused = 75;
        assert!((ratio(&r) - 0.75).abs() < 1e-9);
    }
}
