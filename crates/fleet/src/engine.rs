//! The batch-verification engine: per-job pipeline, verdict-cache and
//! baseline consultation, and the parallel run loop.
//!
//! Since cache schema 5 the engine lowers every readable job *serially*
//! (lowering is 0.1–2 ms; analysis is the expensive part) so it can key
//! the verdict cache on the canonical digest of the lowered graph
//! ([`graph_key`]) instead of raw source bytes. A formatting, comment,
//! reorder, or rename edit therefore hits warm. When a [`BaselineStore`]
//! is attached (`--baseline FILE`), a manifest whose graph digest matches
//! its pin (by name, or by digest after a rename) replays the pinned
//! verdict outright; any other manifest is analyzed cold and its verdict
//! re-pinned.

use crate::baseline::{BaselineEntry, BaselineStore};
use crate::cache::{
    graph_key, job_key, options_fingerprint, shared_detail, shared_diagnostics, CachedVerdict,
    StoreKey, VerdictCache,
};
use crate::report::{FleetReport, JobResult, ReuseCounts, Verdict};
use crate::scheduler::run_work_stealing_with_stats;
use crate::state::StateDir;
use rehearsal_core::{
    analyze, graph_digest, AnalysisOptions, CancelToken, DeterminismStats, FsGraph, Rehearsal,
    RehearsalError,
};
use rehearsal_diag::Diagnostic;
use rehearsal_pkgdb::Platform;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One unit of fleet work: a manifest source targeted at a platform.
#[derive(Debug, Clone)]
pub struct FleetJob {
    /// Display name (usually the manifest's path).
    pub name: String,
    /// Puppet source text.
    pub source: String,
    /// Target platform.
    pub platform: Platform,
}

/// Configuration for a fleet run.
#[derive(Debug, Clone, Default)]
pub struct FleetOptions {
    /// Worker threads; `0` means one per available CPU.
    pub jobs: usize,
    /// Accepted for compatibility and ignored: each job explores on its
    /// worker thread, so `jobs` is the only multi-core setting.
    pub threads: usize,
    /// Analysis options applied to every job. `analysis.timeout` acts as
    /// the per-job deadline across both pipeline stages.
    pub analysis: AnalysisOptions,
    /// Cancelling this token aborts in-flight analyses and skips the
    /// rest (they report as timeouts).
    pub cancel: Option<CancelToken>,
    /// Run the solver-free lint pass over every readable manifest and
    /// attach its `R2xxx` findings to the job's row diagnostics (they
    /// flow into `--annotations` and the JSON rows, and never affect
    /// verdicts or the verdict cache).
    pub lint: bool,
}

impl FleetOptions {
    /// Sets the worker count.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> FleetOptions {
        self.jobs = jobs;
        self
    }

    /// Sets the per-job deadline.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> FleetOptions {
        self.analysis.timeout = Some(timeout);
        self
    }

    /// Replaces the analysis options wholesale.
    #[must_use]
    pub fn with_analysis(mut self, analysis: AnalysisOptions) -> FleetOptions {
        self.analysis = analysis;
        self
    }

    /// Enables the lint pass on every job (see [`FleetOptions::lint`]).
    #[must_use]
    pub fn with_lint(mut self, lint: bool) -> FleetOptions {
        self.lint = lint;
        self
    }

    /// The worker count a run will actually use: `jobs`, or one per
    /// available CPU when `jobs` is `0` (the default).
    pub fn effective_workers(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// The batch engine: options plus a shared [`StateDir`] holding the
/// verdict cache and (optionally) the baseline verdict pins. Any number
/// of engines — CLI runs, daemon request workers — can share one
/// `Arc<StateDir>`; the handle's locks keep their cache and baseline
/// traffic from interleaving, and flushing happens once, through the
/// handle, instead of per run.
#[derive(Debug, Default)]
pub struct FleetEngine {
    options: FleetOptions,
    state: Arc<StateDir>,
}

impl FleetEngine {
    /// An engine with a fresh in-memory (non-persistent) state handle.
    pub fn new(options: FleetOptions) -> FleetEngine {
        FleetEngine {
            options,
            state: Arc::new(StateDir::in_memory()),
        }
    }

    /// Shares an existing state handle (the open-once `--cache` /
    /// `--baseline` / `--state-dir` stores) with this engine.
    #[must_use]
    pub fn with_state(mut self, state: Arc<StateDir>) -> FleetEngine {
        self.state = state;
        self
    }

    /// Replaces the verdict cache on this engine's state handle (e.g.
    /// one opened from disk).
    #[must_use]
    pub fn with_cache(self, cache: VerdictCache) -> FleetEngine {
        self.state.set_cache(cache);
        self
    }

    /// Attaches a baseline store to this engine's state handle. Runs
    /// replay its pins and record fresh ones into it (flush the state to
    /// persist them).
    #[must_use]
    pub fn with_baseline(self, baseline: BaselineStore) -> FleetEngine {
        self.state.set_baseline(baseline);
        self
    }

    /// The engine's shared state handle (cache + baseline). Flush it
    /// after a run to persist verdicts and recorded entries.
    pub fn state(&self) -> &Arc<StateDir> {
        &self.state
    }

    /// Reads manifests from `paths` and runs every `(path, platform)`
    /// combination. Unreadable files become `error` rows rather than
    /// aborting the run.
    pub fn run_paths(&mut self, paths: &[impl AsRef<Path>], platforms: &[Platform]) -> FleetReport {
        let mut jobs = Vec::with_capacity(paths.len() * platforms.len());
        for path in paths {
            let path = path.as_ref();
            let source = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()));
            for &platform in platforms {
                jobs.push(match &source {
                    Ok(text) => Ok(FleetJob {
                        name: path.display().to_string(),
                        source: text.clone(),
                        platform,
                    }),
                    Err(msg) => Err((path.display().to_string(), platform, msg.clone())),
                });
            }
        }
        self.run_mixed(jobs)
    }

    /// Runs a batch of jobs, consulting and feeding the verdict cache
    /// (and the baseline, when one is attached).
    pub fn run(&mut self, jobs: Vec<FleetJob>) -> FleetReport {
        self.run_mixed(jobs.into_iter().map(Ok).collect())
    }

    /// Jobs plus pre-failed entries (unreadable manifests).
    fn run_mixed(
        &mut self,
        jobs: Vec<Result<FleetJob, (String, Platform, String)>>,
    ) -> FleetReport {
        let start = Instant::now();
        let analysis = self.options.analysis.clone();
        let cancel = self.options.cancel.clone();
        // The options lowering and analysis run under: `analysis` plus the
        // run's cancellation token (keys are built from `analysis` alone).
        let mut options = analysis.clone();
        if let Some(token) = &cancel {
            options = options.with_cancel(token.clone());
        }
        let trace_jobs = rehearsal_trace::current().is_some();

        // Lower every readable job serially (0.1–2 ms each) so cache
        // and baseline lookups can use the semantic graph key; resolve
        // hits, replays, and pre-failed rows in place; queue the rest.
        // Jobs that lower to the same graph under the same options dedupe
        // onto one analysis whose result fans out to every slot.
        let mut rows: Vec<Option<JobResult>> = Vec::with_capacity(jobs.len());
        let mut lint_by_slot: HashMap<usize, Vec<Diagnostic>> = HashMap::new();
        let mut pending: Vec<PendingJob> = Vec::new();
        let mut key_slots: HashMap<u64, Vec<(usize, String, Platform)>> = HashMap::new();
        let mut serial_metrics = rehearsal_trace::MetricsSnapshot::default();
        let mut graph_hits: u64 = 0;
        let mut baseline_hits: u64 = 0;
        for (i, job) in jobs.into_iter().enumerate() {
            let job = match job {
                Err((name, platform, msg)) => {
                    rows.push(Some(error_row(name, platform, msg)));
                    continue;
                }
                Ok(job) => job,
            };
            if cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                let mut row =
                    error_row(job.name, job.platform, "cancelled before start".to_string());
                row.verdict = Verdict::Timeout;
                rows.push(Some(row));
                continue;
            }
            if self.options.lint {
                // Lint is source-derived and solver-free: it runs even for
                // rows the verdict cache answers, and its findings stay
                // out of the cache so cached verdicts are never polluted.
                let lint_opts = rehearsal_lint::LintOptions {
                    platform: job.platform,
                    ..rehearsal_lint::LintOptions::default()
                };
                let lint = rehearsal_lint::lint_source(&job.name, &job.source, &lint_opts);
                lint_by_slot.insert(
                    i,
                    lint.findings
                        .into_iter()
                        .filter(|d| d.code.starts_with("R2"))
                        .collect(),
                );
            }
            // Sources that previously failed to lower are cached under
            // the raw-source key; check it before re-parsing.
            let src_key = job_key(&job.source, job.platform, &analysis);
            if let Some(hit) = self.state.cache_get(src_key) {
                let key = StoreKey::Source(src_key);
                rows.push(Some(cached_row(job.name, job.platform, &hit, key)));
                continue;
            }
            let lower_start = Instant::now();
            let (lowered, lower_phases, lower_metrics) = traced(trace_jobs, || {
                Rehearsal::new(job.platform)
                    .with_options(options.clone())
                    .lower_source(&job.source)
            });
            let lower_ms = lower_start.elapsed().as_millis() as u64;
            serial_metrics.merge(&lower_metrics);
            let (graph, diagnostics) = match lowered {
                Ok(ok) => ok,
                Err(e) => {
                    let diagnostics = e.diagnostics().to_vec();
                    let mut row =
                        JobResult::from_analysis(job.name, job.platform, 0, &Err(e), diagnostics);
                    row.millis = lower_ms;
                    row.run_ms = lower_ms;
                    row.phases = lower_phases;
                    row.store_key = Some(StoreKey::Source(src_key));
                    self.state.cache_put(src_key, verdict_of(&row));
                    rows.push(Some(row));
                    continue;
                }
            };

            let digest = graph_digest(&graph);
            let key = graph_key(digest, job.platform, &analysis);
            let fp = options_fingerprint(job.platform, &analysis);
            if let Some(hit) = self.state.cache_get(key) {
                // Semantic cache hit: same lowered graph, platform, and
                // options — formatting/comment/reorder/rename edits land
                // here.
                graph_hits += 1;
                let mut row =
                    cached_row(job.name.clone(), job.platform, &hit, StoreKey::Graph(key));
                row.phases = lower_phases;
                row.diagnostics = reanchored(&hit.diagnostics, diagnostics, &graph);
                // Keep the pin in step with the graph the cache answered
                // for: an edit and revert can leave it on the edited graph.
                if self.state.has_baseline() && !self.state.baseline_matches(&job.name, fp, digest)
                {
                    self.state
                        .baseline_put(pin(job.name.clone(), job.platform, fp, digest, &hit));
                }
                rows.push(Some(row));
                continue;
            }
            let replay = self.state.baseline_replay(&job.name, fp, digest);
            if let Some(entry) = replay {
                // Baseline digest match: the manifest lowers to exactly
                // the graph the baseline analyzed — replay its verdict
                // with zero re-analysis.
                baseline_hits += 1;
                let n = graph.exprs.len();
                let row = JobResult {
                    manifest: job.name.clone(),
                    platform: job.platform,
                    verdict: entry.verdict.clone(),
                    detail: entry.detail.to_string(),
                    resources: n,
                    millis: 0,
                    queue_ms: 0,
                    run_ms: 0,
                    phases: lower_phases,
                    cached: true,
                    counters: DeterminismStats::default(),
                    diagnostics: reanchored(&entry.diagnostics, diagnostics, &graph),
                    reuse: Some(ReuseCounts::store(n)),
                    store_key: Some(StoreKey::Graph(key)),
                };
                self.state.cache_put(
                    key,
                    CachedVerdict {
                        verdict: entry.verdict.clone(),
                        detail: Arc::clone(&entry.detail),
                        resources: n,
                        diagnostics: Arc::clone(&entry.diagnostics),
                    },
                );
                if entry.manifest != job.name {
                    // A renamed (or moved) manifest found by digest:
                    // re-key the entry so the next lookup is direct.
                    let mut renamed = entry;
                    renamed.manifest = job.name.clone();
                    self.state.baseline_put(renamed);
                }
                rows.push(Some(row));
                continue;
            }

            rows.push(None);
            let slots = key_slots.entry(key).or_default();
            if slots.is_empty() {
                pending.push(PendingJob {
                    key,
                    name: job.name.clone(),
                    platform: job.platform,
                    graph,
                    diagnostics,
                    graph_digest: digest,
                    options_fp: fp,
                    lower_phases,
                    enqueued: Instant::now(),
                });
            }
            slots.push((i, job.name, job.platform));
        }

        let workers = self.options.effective_workers().min(pending.len()).max(1);
        let record = self.state.has_baseline();

        // Analyze the misses in parallel. When the caller has a trace
        // session installed, each job gets its *own* session (installed
        // thread-locally on the worker, so concurrent jobs never
        // interleave), and the per-job snapshots are folded back into the
        // caller's registry afterwards.
        let (outcomes, sched) = run_work_stealing_with_stats(pending, workers, |_, pj| {
            let PendingJob {
                key,
                name,
                platform,
                graph,
                mut diagnostics,
                graph_digest,
                options_fp,
                lower_phases,
                enqueued,
            } = pj;
            let queue_ms = enqueued.elapsed().as_millis() as u64;
            let job_start = Instant::now();
            let (report, phases, metrics) = traced(trace_jobs, || {
                analyze(&graph, &options, &mut diagnostics).map_err(RehearsalError::from)
            });
            let run_ms = job_start.elapsed().as_millis() as u64;
            let mut row =
                JobResult::from_analysis(name, platform, graph.exprs.len(), &report, diagnostics);
            row.millis = run_ms;
            row.queue_ms = queue_ms;
            row.run_ms = run_ms;
            row.phases = lower_phases;
            row.phases.extend(phases);
            row.reuse = record.then(|| ReuseCounts::cold(graph.exprs.len()));
            row.store_key = Some(StoreKey::Graph(key));
            // Timeouts are not pinned: a later healthy run must not
            // replay an aborted verdict.
            let pin_as =
                (record && row.verdict != Verdict::Timeout).then_some((options_fp, graph_digest));
            (key, row, metrics, pin_as)
        });

        let mut metrics = serial_metrics;
        for (key, row, job_metrics, pin_as) in outcomes {
            metrics.merge(&job_metrics);
            let verdict = verdict_of(&row);
            for (slot, name, platform) in key_slots.remove(&key).expect("pending key has slots") {
                if let Some((fp, digest)) = pin_as {
                    self.state
                        .baseline_put(pin(name.clone(), platform, fp, digest, &verdict));
                }
                rows[slot] = Some(JobResult {
                    manifest: name,
                    platform,
                    ..row.clone()
                });
            }
            self.state.cache_put(key, verdict);
        }

        let mut rows: Vec<JobResult> = rows.into_iter().map(|r| r.expect("row filled")).collect();
        for (slot, findings) in lint_by_slot {
            rows[slot].diagnostics.extend(findings);
        }
        let rows = rows;

        // Fleet-level metrics ride the same registry namespace as the
        // per-job ones, so one Prometheus scrape sees the whole picture.
        let fleet_reg = rehearsal_trace::Registry::new();
        let cached = rows.iter().filter(|r| r.cached).count();
        fleet_reg.counter_add("fleet.jobs", rows.len() as u64);
        fleet_reg.counter_add("fleet.cache_hits", cached as u64);
        fleet_reg.counter_add("fleet.steals", sched.steals);
        fleet_reg.gauge_max("fleet.queue_depth_max", sched.max_queue_depth as i64);
        fleet_reg.gauge_max("fleet.workers", workers as i64);
        for row in rows.iter().filter(|r| !r.cached && !r.phases.is_empty()) {
            fleet_reg.observe("fleet.job_queue_ms", row.queue_ms);
            fleet_reg.observe("fleet.job_run_ms", row.run_ms);
        }
        // Which store answered the rows it answered.
        fleet_reg.counter_add("incremental.graph_hits", graph_hits);
        fleet_reg.counter_add("incremental.baseline_hits", baseline_hits);
        let mut fleet_metrics = fleet_reg.snapshot();
        fleet_metrics.merge(&metrics);
        // Make the run visible to the caller's own session too (e.g. the
        // CLI's `--trace` export).
        if let Some(session) = rehearsal_trace::current() {
            session.metrics().merge_snapshot(&fleet_metrics);
        }

        FleetReport {
            rows,
            wall_millis: start.elapsed().as_millis() as u64,
            jobs: workers,
            steals: sched.steals,
            max_queue_depth: sched.max_queue_depth,
            metrics: fleet_metrics,
        }
    }
}

/// A lowered job queued for parallel analysis.
struct PendingJob {
    key: u64,
    name: String,
    platform: Platform,
    graph: FsGraph,
    diagnostics: Vec<Diagnostic>,
    graph_digest: u64,
    options_fp: u64,
    lower_phases: Vec<(String, u64)>,
    enqueued: Instant,
}

/// Runs `f` under a fresh per-job trace session (when tracing is on) and
/// returns its result plus the session's phase totals and metrics.
fn traced<R>(
    trace_jobs: bool,
    f: impl FnOnce() -> R,
) -> (R, Vec<(String, u64)>, rehearsal_trace::MetricsSnapshot) {
    let session = trace_jobs.then(rehearsal_trace::Session::new);
    let guard = session.as_ref().map(rehearsal_trace::Session::install);
    let out = f();
    drop(guard);
    match session {
        Some(s) => {
            let snap = s.snapshot();
            let phases = snap
                .phase_totals()
                .into_iter()
                .map(|p| (p.name, p.total_us))
                .collect();
            (out, phases, snap.metrics)
        }
        None => (out, Vec::new(), rehearsal_trace::MetricsSnapshot::default()),
    }
}

fn error_row(manifest: String, platform: Platform, detail: String) -> JobResult {
    JobResult {
        manifest,
        platform,
        verdict: Verdict::Error,
        detail,
        resources: 0,
        millis: 0,
        queue_ms: 0,
        run_ms: 0,
        phases: Vec::new(),
        cached: false,
        counters: DeterminismStats::default(),
        diagnostics: Vec::new(),
        reuse: None,
        store_key: None,
    }
}

/// The row a verdict-cache hit under `key` reports: the stored verdict,
/// `cached`, zeroed counters, and store reuse for graph keys (a source
/// key holds a lowering failure, which has no graph to count).
fn cached_row(
    manifest: String,
    platform: Platform,
    hit: &CachedVerdict,
    key: StoreKey,
) -> JobResult {
    let reuse = match key {
        StoreKey::Graph(_) => Some(ReuseCounts::store(hit.resources)),
        StoreKey::Source(_) => None,
    };
    JobResult {
        manifest,
        platform,
        verdict: hit.verdict.clone(),
        detail: hit.detail.to_string(),
        resources: hit.resources,
        millis: 0,
        queue_ms: 0,
        run_ms: 0,
        phases: Vec::new(),
        cached: true,
        counters: DeterminismStats::default(),
        diagnostics: hit.diagnostics.to_vec(),
        reuse,
        store_key: Some(key),
    }
}

/// Answers one job from the verdict cache alone, given the key an
/// earlier run reported in [`JobResult::store_key`]: the row a cache hit
/// under that key reports, with no parse, lowering or analysis. `None`
/// when the state holds no entry for the key.
pub fn stored_row(
    state: &StateDir,
    key: StoreKey,
    manifest: String,
    platform: Platform,
) -> Option<JobResult> {
    let hit = state.cache_get(key.key())?;
    Some(cached_row(manifest, platform, &hit, key))
}

fn verdict_of(row: &JobResult) -> CachedVerdict {
    CachedVerdict {
        verdict: row.verdict.clone(),
        detail: shared_detail(&row.detail),
        resources: row.resources,
        diagnostics: shared_diagnostics(row.diagnostics.clone()),
    }
}

/// A stored verdict's diagnostics, re-anchored on the source that hit
/// it. The stored spans belong to the source first analyzed, which may
/// be laid out differently: the lowering diagnostics (parse, eval,
/// compile) are this source's own, and each analysis diagnostic (`R3…`)
/// moves to the spans this graph gives the resources its payload names.
fn reanchored(
    stored: &[Diagnostic],
    lowering: Vec<Diagnostic>,
    graph: &FsGraph,
) -> Vec<Diagnostic> {
    let span_of = |name: &str| {
        let i = graph.names.iter().position(|n| n == name)?;
        Some(graph.span(i))
    };
    let mut out = lowering;
    for stored in stored.iter().filter(|d| d.code.starts_with("R3")) {
        let mut d = stored.clone();
        let named = |key: &str| {
            let (_, name) = d.payload.iter().find(|(k, _)| k == key)?;
            span_of(name)
        };
        let primary = named("resource_a")
            .or_else(|| named("resource"))
            .or_else(|| {
                // A nonidempotence finding with no culprit points at the
                // manifest's first declared resource.
                (d.code == rehearsal_diag::codes::NONIDEMPOTENT)
                    .then(|| graph.spans.iter().copied().find(|s| !s.is_dummy()))
                    .flatten()
            });
        let secondary = named("resource_b");
        if let (Some(label), Some(span)) = (d.primary.as_mut(), primary) {
            label.span = span;
        }
        if let (Some(label), Some(span)) = (d.secondary.first_mut(), secondary) {
            label.span = span;
        }
        out.push(d);
    }
    out
}

/// The baseline pin recording `verdict` for one manifest's graph, sharing
/// its detail and diagnostics.
fn pin(
    manifest: String,
    platform: Platform,
    options: u64,
    graph_digest: u64,
    verdict: &CachedVerdict,
) -> BaselineEntry {
    BaselineEntry {
        manifest,
        platform,
        options,
        graph_digest,
        verdict: verdict.verdict.clone(),
        detail: Arc::clone(&verdict.detail),
        diagnostics: Arc::clone(&verdict.diagnostics),
    }
}

/// Convenience shorthand: discover `.pp` files under `root` and verify
/// them on one platform with default options.
///
/// # Errors
///
/// I/O errors from discovery.
pub fn verify_directory(root: impl AsRef<Path>, platform: Platform) -> io::Result<FleetReport> {
    let paths = crate::discover::discover_manifests(root)?;
    Ok(FleetEngine::new(FleetOptions::default()).run_paths(&paths, &[platform]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(name: &str, source: &str) -> FleetJob {
        FleetJob {
            name: name.to_string(),
            source: source.to_string(),
            platform: Platform::Ubuntu,
        }
    }

    #[test]
    fn verdicts_across_the_spectrum() {
        let mut engine = FleetEngine::new(FleetOptions::default().with_jobs(2));
        let report = engine.run(vec![
            job("ok.pp", "file { '/etc/motd': content => 'hi' }"),
            job(
                "race.pp",
                "package { 'vim': ensure => present }\n\
                 file { '/home/carol/.vimrc': content => 'syntax on' }\n\
                 user { 'carol': ensure => present, managehome => true }",
            ),
            job("broken.pp", "exec { 'apt-get update': }"),
            job(
                "twice.pp",
                "file { '/dst': source => '/src' }\n\
                 file { '/src': ensure => absent }\n\
                 File['/dst'] -> File['/src']",
            ),
        ]);
        let verdicts: Vec<&Verdict> = report.rows.iter().map(|r| &r.verdict).collect();
        assert_eq!(
            verdicts,
            [
                &Verdict::Deterministic,
                &Verdict::Nondeterministic,
                &Verdict::Error,
                &Verdict::Nonidempotent,
            ]
        );
        let c = report.counts();
        assert_eq!(c.total(), 4);
        assert_eq!(c.failures(), 3);
        assert_eq!(c.cached, 0);
    }

    #[test]
    fn lint_findings_ride_rows_without_changing_verdicts() {
        let src = "$unused = 1\nfile { '/etc/motd': content => 'hi' }";
        let mut engine = FleetEngine::new(FleetOptions::default().with_jobs(1).with_lint(true));
        let report = engine.run(vec![job("lint.pp", src)]);
        assert_eq!(report.rows[0].verdict, Verdict::Deterministic);
        let codes: Vec<&str> = report.rows[0]
            .diagnostics
            .iter()
            .map(|d| d.code.as_str())
            .collect();
        assert!(codes.contains(&"R2005"), "{codes:?}");
        assert!(report.all_clean(), "lint findings never fail the gate");
        // A cached second run still re-attaches lint findings (they are
        // source-derived and deliberately not stored in the cache).
        let second = engine.run(vec![job("lint.pp", src)]);
        assert!(second.rows[0].cached);
        assert!(second.rows[0].diagnostics.iter().any(|d| d.code == "R2005"));
        // Lint off: no R2xxx diagnostics on the row.
        let mut plain = FleetEngine::new(FleetOptions::default().with_jobs(1));
        let report = plain.run(vec![job("lint.pp", src)]);
        assert!(report.rows[0]
            .diagnostics
            .iter()
            .all(|d| !d.code.starts_with("R2")));
    }

    #[test]
    fn second_run_is_all_cache_hits() {
        let mut engine = FleetEngine::new(FleetOptions::default().with_jobs(2));
        let jobs = vec![
            job("a.pp", "file { '/etc/motd': content => 'a' }"),
            job("b.pp", "file { '/etc/motd2': content => 'b' }"),
        ];
        let first = engine.run(jobs.clone());
        assert_eq!(first.counts().cached, 0);
        let second = engine.run(jobs);
        assert_eq!(second.counts().cached, 2);
        assert_eq!(second.counts().deterministic, 2);
        assert!(second.rows.iter().all(|r| r.cached && r.millis == 0));
    }

    #[test]
    fn duplicate_jobs_are_analyzed_once() {
        let mut engine = FleetEngine::new(FleetOptions::default().with_jobs(2));
        let report = engine.run(vec![
            job("copy-a.pp", "file { '/etc/motd': content => 'same' }"),
            job("copy-b.pp", "file { '/etc/motd': content => 'same' }"),
        ]);
        // Both rows are filled with their own names, from one analysis.
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.rows[0].manifest, "copy-a.pp");
        assert_eq!(report.rows[1].manifest, "copy-b.pp");
        assert_eq!(report.rows[0].verdict, Verdict::Deterministic);
        assert_eq!(report.rows[1].verdict, Verdict::Deterministic);
        assert_eq!(engine.state().cache_len(), 1, "one key for both jobs");
    }

    #[test]
    fn source_edit_misses_the_cache() {
        let mut engine = FleetEngine::new(FleetOptions::default().with_jobs(1));
        engine.run(vec![job("a.pp", "file { '/etc/motd': content => 'a' }")]);
        let report = engine.run(vec![job("a.pp", "file { '/etc/motd': content => 'b' }")]);
        assert_eq!(report.counts().cached, 0);
    }

    #[test]
    fn formatting_edit_hits_the_semantic_cache() {
        let mut engine = FleetEngine::new(FleetOptions::default().with_jobs(1));
        engine.run(vec![job("a.pp", "file { '/etc/motd': content => 'a' }")]);
        // Same resources, different whitespace, a comment, and reordered
        // declarations — the lowered graph (and hence the key) is equal.
        let report = engine.run(vec![job(
            "a.pp",
            "# motd\nfile { '/etc/motd':\n  content => 'a',\n}",
        )]);
        assert_eq!(report.counts().cached, 1);
        assert_eq!(report.rows[0].reuse, Some(ReuseCounts::store(1)));
    }

    #[test]
    fn rows_report_the_store_key_that_answers_them_again() {
        let mut engine = FleetEngine::new(FleetOptions::default().with_jobs(1));
        let cold = engine.run(vec![
            job("a.pp", "file { '/etc/motd': content => 'a' }"),
            job("broken.pp", "file { '/etc/motd': content => "),
        ]);
        assert!(matches!(cold.rows[0].store_key, Some(StoreKey::Graph(_))));
        assert!(matches!(cold.rows[1].store_key, Some(StoreKey::Source(_))));
        // A reformat is answered from the same graph key.
        let warm = engine.run(vec![job(
            "a.pp",
            "file { '/etc/motd':\n  content => 'a',\n}",
        )]);
        assert_eq!(warm.rows[0].store_key, cold.rows[0].store_key);
        // Each key alone reproduces the cache-hit row.
        for (row, name) in cold.rows.iter().zip(["a.pp", "broken.pp"]) {
            let key = row.store_key.unwrap();
            let stored = stored_row(engine.state(), key, name.to_string(), Platform::Ubuntu)
                .expect("the key has an entry");
            assert!(stored.cached);
            assert_eq!(stored.verdict, row.verdict);
            assert_eq!(stored.detail, row.detail);
            assert_eq!(stored.store_key, Some(key));
        }
        assert_eq!(
            stored_row(
                engine.state(),
                StoreKey::Graph(7),
                "x.pp".into(),
                Platform::Ubuntu
            )
            .map(|r| r.verdict),
            None
        );
    }

    #[test]
    fn renamed_manifest_hits_the_semantic_cache() {
        // The regression for path-sensitive cache keys: the key embeds no
        // manifest name or path, so a rename/move is a hit.
        let mut engine = FleetEngine::new(FleetOptions::default().with_jobs(1));
        engine.run(vec![job(
            "modules/motd/init.pp",
            "file { '/etc/motd': content => 'a' }",
        )]);
        let report = engine.run(vec![job(
            "site/motd.pp",
            "file { '/etc/motd': content => 'a' }",
        )]);
        assert_eq!(report.counts().cached, 1);
        assert_eq!(report.rows[0].manifest, "site/motd.pp");
    }

    #[test]
    fn cancelled_token_times_jobs_out() {
        let token = CancelToken::new();
        token.cancel();
        let mut options = FleetOptions::default().with_jobs(1);
        options.cancel = Some(token);
        let mut engine = FleetEngine::new(options);
        let report = engine.run(vec![job("a.pp", "file { '/etc/motd': content => 'a' }")]);
        assert_eq!(report.rows[0].verdict, Verdict::Timeout);
        // Timeouts are not cached, so a healthy rerun re-analyzes.
        assert_eq!(engine.state().cache_len(), 0);
    }

    #[test]
    fn unreadable_path_becomes_error_row() {
        let mut engine = FleetEngine::new(FleetOptions::default().with_jobs(1));
        let report = engine.run_paths(&["/no/such/manifest.pp"], &[Platform::Ubuntu]);
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].verdict, Verdict::Error);
        assert!(report.rows[0].detail.contains("cannot read"));
    }

    const TWO_DISJOINT: &str = "file { '/etc/motd': content => 'a' }\n\
                                file { '/srv/app.conf': content => 'b' }\n\
                                file { '/var/banner': content => 'c' }";

    /// A fresh baseline file path (the file itself does not exist).
    fn baseline_path(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rehearsal-engine-{test}"));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.jsonl");
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn baseline_cold_run_records_entries() {
        let mut engine = FleetEngine::new(FleetOptions::default().with_jobs(1))
            .with_baseline(BaselineStore::in_memory());
        let report = engine.run(vec![job("trio.pp", TWO_DISJOINT)]);
        assert_eq!(report.rows[0].verdict, Verdict::Deterministic);
        // A cold run with a baseline attached reports a cold row…
        assert_eq!(report.rows[0].reuse, Some(ReuseCounts::cold(3)));
        // …and pins the verdict under the graph digest.
        assert_eq!(engine.state().baseline_len(), 1);
        let (graph, _) = Rehearsal::new(Platform::Ubuntu)
            .lower_source(TWO_DISJOINT)
            .unwrap();
        let fp = options_fingerprint(Platform::Ubuntu, &AnalysisOptions::default());
        let entry = engine.state().baseline_get("trio.pp", fp).unwrap();
        assert_eq!(entry.graph_digest, graph_digest(&graph));
        assert_eq!(entry.verdict, Verdict::Deterministic);
    }

    #[test]
    fn baseline_replays_unedited_manifest_without_analysis() {
        let path = baseline_path("replay");
        let mut engine = FleetEngine::new(FleetOptions::default().with_jobs(1))
            .with_baseline(BaselineStore::open(&path).unwrap());
        let first = engine.run(vec![job("trio.pp", TWO_DISJOINT)]);
        engine.state().flush().unwrap();
        // A second engine with the baseline but no verdict cache (another
        // process): the digest match replays the verdict.
        let mut engine2 = FleetEngine::new(FleetOptions::default().with_jobs(1))
            .with_baseline(BaselineStore::open(&path).unwrap());
        let second = engine2.run(vec![job("trio.pp", TWO_DISJOINT)]);
        assert_eq!(second.rows[0].verdict, first.rows[0].verdict);
        assert!(second.rows[0].cached);
        assert_eq!(second.rows[0].reuse, Some(ReuseCounts::store(3)));
    }
}
