//! The batch-verification engine: per-job pipeline, semantic cache
//! consultation, baseline-driven differential reuse, and the parallel
//! run loop.
//!
//! Since cache schema 5 the engine lowers every readable job *serially*
//! (lowering is microseconds; analysis is the expensive part) so it can
//! key the verdict cache on the canonical digest of the lowered graph
//! ([`graph_key`]) instead of raw source bytes. A formatting, comment,
//! reorder, or rename edit therefore hits warm. When a [`BaselineStore`]
//! is attached (`--baseline FILE`), a digest match replays the recorded
//! verdict outright, and a *mismatch* computes the edit's dirty cone and
//! seeds a [`CommuteOracle`] with the baseline's pair verdicts for the
//! clean remainder — re-verification in time proportional to the diff,
//! with verdicts bit-identical to a cold run by construction (the oracle
//! only memoizes the pure structural `commutes` function).

use crate::baseline::{BaselineEntry, BaselineStore, ResourceSummary};
use crate::cache::{graph_key, job_key, options_fingerprint, CachedVerdict, VerdictCache};
use crate::report::{AnalysisCounters, FleetReport, JobResult, ReuseCounts, Verdict};
use crate::scheduler::run_work_stealing_with_stats;
use crate::state::StateDir;
use rehearsal_core::{
    aborted_diagnostic, check_determinism_with_oracle, check_idempotence, dirty_cone, expr_digest,
    footprint, graph_digest, idempotence_diagnostics, race_diagnostic, AnalysisOptions,
    CancelToken, CommuteOracle, Footprint, FsGraph, Rehearsal,
};
use rehearsal_diag::Diagnostic;
use rehearsal_fs::FsPath;
use rehearsal_pkgdb::Platform;
use std::collections::{BTreeSet, HashMap, HashSet};
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
/// verdict cache and (optionally) the differential-verification
/// baseline. Any number of engines — CLI runs, daemon request workers —
/// can share one `Arc<StateDir>`; the handle's locks keep their cache
/// and baseline traffic from interleaving, and flushing happens once,
/// through the handle, instead of per run.
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
    /// will consult it for differential reuse and record fresh entries
    /// into it (flush the state to persist them).
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
                    rows.push(Some(error_row(name, platform, msg, Vec::new())));
                    continue;
                }
                Ok(job) => job,
            };
            if cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                let mut row = error_row(
                    job.name,
                    job.platform,
                    "cancelled before start".to_string(),
                    Vec::new(),
                );
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
                rows.push(Some(cached_row(job.name, job.platform, &hit, None)));
                continue;
            }
            let lower_start = Instant::now();
            let mut lower_opts = analysis.clone();
            if let Some(token) = &cancel {
                lower_opts = lower_opts.with_cancel(token.clone());
            }
            let (lowered, lower_phases, lower_metrics) = traced(trace_jobs, || {
                Rehearsal::new(job.platform)
                    .with_options(lower_opts)
                    .lower_source(&job.source)
            });
            let lower_ms = lower_start.elapsed().as_millis() as u64;
            serial_metrics.merge(&lower_metrics);
            let (graph, diagnostics) = match lowered {
                Ok(ok) => ok,
                Err(e) => {
                    let mut row =
                        error_row(job.name, job.platform, e.to_string(), e.into_diagnostics());
                    row.millis = lower_ms;
                    row.run_ms = lower_ms;
                    row.phases = lower_phases;
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
                let reuse = ReuseCounts {
                    resources_clean: hit.resources,
                    resources_dirty: 0,
                    pairs_reused: 0,
                };
                let mut row = cached_row(job.name.clone(), job.platform, &hit, Some(reuse));
                row.phases = lower_phases;
                // Keep the baseline fresh for manifests it has never
                // seen (pair verdicts are unknown on a pure cache hit,
                // so never overwrite a richer recorded entry).
                if self.state.has_baseline() && !self.state.baseline_contains(&job.name, fp) {
                    self.state.baseline_put(baseline_entry(
                        &graph,
                        &analysis,
                        job.name.clone(),
                        job.platform,
                        fp,
                        digest,
                        Vec::new(),
                        &hit.verdict,
                        &hit.detail,
                        &hit.diagnostics,
                    ));
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
                let mut row = JobResult {
                    manifest: job.name.clone(),
                    platform: job.platform,
                    verdict: entry.verdict.clone(),
                    detail: entry.detail.clone(),
                    resources: n,
                    millis: 0,
                    queue_ms: 0,
                    run_ms: 0,
                    phases: lower_phases,
                    cached: true,
                    counters: AnalysisCounters::default(),
                    diagnostics: entry.diagnostics.clone(),
                    reuse: Some(ReuseCounts {
                        resources_clean: n,
                        resources_dirty: 0,
                        pairs_reused: entry.pairs.len() as u64,
                    }),
                };
                row.resources = n;
                self.state.cache_put(key, verdict_of(&row));
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
                // A baseline *name* match with a different digest is an
                // edit: slice it. No baseline entry at all still gets a
                // plan (an empty oracle) so the run records pairs for
                // the next baseline.
                let plan = self.state.has_baseline().then(|| {
                    build_reuse_plan(self.state.baseline_get(&job.name, fp).as_ref(), &graph)
                });
                pending.push(PendingJob {
                    key,
                    name: job.name.clone(),
                    platform: job.platform,
                    graph,
                    diagnostics,
                    graph_digest: digest,
                    options_fp: fp,
                    plan,
                    lower_phases,
                    enqueued: Instant::now(),
                });
            }
            slots.push((i, job.name, job.platform));
        }

        let workers = self.options.effective_workers().min(pending.len()).max(1);

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
                diagnostics,
                graph_digest,
                options_fp,
                plan,
                lower_phases,
                enqueued,
            } = pj;
            let queue_ms = enqueued.elapsed().as_millis() as u64;
            let job_start = Instant::now();
            let (outcome, phases, metrics) = traced(trace_jobs, || {
                analyze_lowered(
                    &graph,
                    diagnostics,
                    &analysis,
                    cancel.as_ref(),
                    plan.as_ref().map(|p| &p.oracle),
                )
            });
            let run_ms = job_start.elapsed().as_millis() as u64;
            let mut all_phases = lower_phases;
            all_phases.extend(phases);
            let reuse = plan.as_ref().map(|p| ReuseCounts {
                resources_clean: p.resources_clean,
                resources_dirty: p.resources_dirty,
                pairs_reused: p.oracle.pairs_reused(),
            });
            // Timeouts are not recorded: a later healthy run must not
            // replay an aborted verdict.
            let update = plan
                .filter(|_| !matches!(outcome.verdict, Verdict::Timeout))
                .map(|p| {
                    baseline_entry(
                        &graph,
                        &analysis,
                        String::new(), // filled in per fan-out slot
                        platform,
                        options_fp,
                        graph_digest,
                        p.oracle.export(),
                        &outcome.verdict,
                        &outcome.detail,
                        &outcome.diagnostics,
                    )
                });
            (
                key,
                JobResult {
                    manifest: name,
                    platform,
                    verdict: outcome.verdict,
                    detail: outcome.detail,
                    resources: outcome.resources,
                    millis: run_ms,
                    queue_ms,
                    run_ms,
                    phases: all_phases,
                    cached: false,
                    counters: outcome.counters,
                    diagnostics: outcome.diagnostics,
                    reuse,
                },
                metrics,
                update,
            )
        });

        let mut metrics = serial_metrics;
        for (key, row, job_metrics, update) in outcomes {
            metrics.merge(&job_metrics);
            self.state.cache_put(key, verdict_of(&row));
            for (slot, name, platform) in key_slots.remove(&key).expect("pending key has slots") {
                if let Some(template) = update.as_ref() {
                    let mut entry = template.clone();
                    entry.manifest = name.clone();
                    entry.platform = platform;
                    self.state.baseline_put(entry);
                }
                rows[slot] = Some(JobResult {
                    manifest: name,
                    platform,
                    ..row.clone()
                });
            }
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
        // The differential-verification scorecard: how much of this run
        // was answered without re-analysis.
        let (mut clean, mut dirty, mut pairs) = (0u64, 0u64, 0u64);
        for reuse in rows.iter().filter_map(|r| r.reuse) {
            clean += reuse.resources_clean as u64;
            dirty += reuse.resources_dirty as u64;
            pairs += reuse.pairs_reused;
        }
        fleet_reg.counter_add("incremental.graph_hits", graph_hits);
        fleet_reg.counter_add("incremental.baseline_hits", baseline_hits);
        fleet_reg.counter_add("incremental.resources_clean", clean);
        fleet_reg.counter_add("incremental.resources_dirty", dirty);
        fleet_reg.counter_add("incremental.pairs_reused", pairs);
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
    plan: Option<ReusePlan>,
    lower_phases: Vec<(String, u64)>,
    enqueued: Instant,
}

/// The differential plan for one edited manifest: which resources are
/// clean vs dirty, and the oracle seeded with the baseline's pair
/// verdicts for the clean remainder.
struct ReusePlan {
    oracle: CommuteOracle,
    resources_clean: usize,
    resources_dirty: usize,
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

fn error_row(
    manifest: String,
    platform: Platform,
    detail: String,
    diagnostics: Vec<Diagnostic>,
) -> JobResult {
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
        counters: AnalysisCounters::default(),
        diagnostics,
        reuse: None,
    }
}

fn cached_row(
    manifest: String,
    platform: Platform,
    hit: &CachedVerdict,
    reuse: Option<ReuseCounts>,
) -> JobResult {
    JobResult {
        manifest,
        platform,
        verdict: hit.verdict.clone(),
        detail: hit.detail.clone(),
        resources: hit.resources,
        millis: 0,
        queue_ms: 0,
        run_ms: 0,
        phases: Vec::new(),
        cached: true,
        counters: AnalysisCounters::default(),
        diagnostics: hit.diagnostics.clone(),
        reuse,
    }
}

fn verdict_of(row: &JobResult) -> CachedVerdict {
    CachedVerdict {
        verdict: row.verdict.clone(),
        detail: row.detail.clone(),
        resources: row.resources,
        diagnostics: row.diagnostics.clone(),
    }
}

/// Builds the baseline entry for an analyzed graph: per-resource
/// footprint summaries, edges, pair verdicts, and (when pruning is on)
/// the pruning decisions — everything a later differential run consults.
#[allow(clippy::too_many_arguments)]
fn baseline_entry(
    graph: &FsGraph,
    analysis: &AnalysisOptions,
    manifest: String,
    platform: Platform,
    options_fp: u64,
    graph_digest: u64,
    pairs: Vec<(u64, u64, bool)>,
    verdict: &Verdict,
    detail: &str,
    diagnostics: &[Diagnostic],
) -> BaselineEntry {
    fn strings(paths: &BTreeSet<FsPath>) -> Vec<String> {
        paths.iter().map(|p| p.to_string()).collect()
    }
    let resources = graph
        .exprs
        .iter()
        .map(|&e| {
            let f = footprint(e);
            ResourceSummary {
                digest: f.digest,
                reads: strings(&f.reads),
                writes: strings(&f.writes),
                ensured: strings(&f.ensured),
                meta: strings(&f.meta),
                observed: strings(&f.observed_dirs),
            }
        })
        .collect();
    // Pruning decisions are recorded for inspection but *revalidated*
    // (recomputed — it is linear-time) on replay, never trusted.
    let pruned = if analysis.pruning {
        rehearsal_core::prune::prune_graph(graph)
            .1
            .iter()
            .map(|p| p.to_string())
            .collect()
    } else {
        Vec::new()
    };
    BaselineEntry {
        manifest,
        platform,
        options: options_fp,
        graph_digest,
        resources,
        edges: graph.edges.iter().copied().collect(),
        pairs,
        pruned,
        verdict: verdict.clone(),
        detail: detail.to_string(),
        diagnostics: diagnostics.to_vec(),
    }
}

/// Computes the differential plan for an edited manifest against its
/// baseline entry (or a cold plan when there is none): multiset-match
/// resource digests to find the edit's seeds and removals, take the
/// [`dirty_cone`], and seed the oracle with baseline pair verdicts whose
/// endpoints are both clean. Any ambiguity (an unparseable persisted
/// footprint) falls back to a fully dirty graph — everything re-analyzed
/// fresh, which is always sound.
fn build_reuse_plan(entry: Option<&BaselineEntry>, graph: &FsGraph) -> ReusePlan {
    let n = graph.exprs.len();
    let cold = || ReusePlan {
        oracle: CommuteOracle::new(),
        resources_clean: 0,
        resources_dirty: n,
    };
    let Some(entry) = entry else {
        return cold();
    };
    let digests: Vec<u64> = graph.exprs.iter().map(|&e| expr_digest(e)).collect();
    // Multiset-match current resources against the baseline's summaries;
    // unmatched current resources are the edit's seeds.
    let mut counts: HashMap<u64, usize> = HashMap::new();
    for r in &entry.resources {
        *counts.entry(r.digest).or_insert(0) += 1;
    }
    let mut seed: BTreeSet<usize> = BTreeSet::new();
    for (i, d) in digests.iter().enumerate() {
        match counts.get_mut(d) {
            Some(c) if *c > 0 => *c -= 1,
            _ => {
                seed.insert(i);
            }
        }
    }
    // Summaries left unmatched describe resources the edit removed;
    // their serialized footprints dirty whatever they may overlap.
    let mut removed: Vec<Footprint> = Vec::new();
    for r in &entry.resources {
        let Some(c) = counts.get_mut(&r.digest) else {
            continue;
        };
        if *c == 0 {
            continue;
        }
        *c -= 1;
        match parse_summary(r) {
            Some(f) => removed.push(f),
            None => return cold(),
        }
    }
    let cone = dirty_cone(graph, &seed, &removed);
    let oracle = CommuteOracle::new();
    let clean: HashSet<u64> = (0..n)
        .filter(|i| !cone.contains(i))
        .map(|i| digests[i])
        .collect();
    for &(a, b, bit) in &entry.pairs {
        if clean.contains(&a) && clean.contains(&b) {
            oracle.seed(a, b, bit);
        }
    }
    ReusePlan {
        oracle,
        resources_clean: n - cone.len(),
        resources_dirty: cone.len(),
    }
}

/// Reparses a persisted footprint summary; `None` means ambiguity (the
/// caller falls back to a fully dirty graph).
fn parse_summary(r: &ResourceSummary) -> Option<Footprint> {
    fn set(paths: &[String]) -> Option<BTreeSet<FsPath>> {
        paths.iter().map(|s| FsPath::parse(s).ok()).collect()
    }
    Some(Footprint {
        digest: r.digest,
        reads: set(&r.reads)?,
        writes: set(&r.writes)?,
        ensured: set(&r.ensured)?,
        meta: set(&r.meta)?,
        observed_dirs: set(&r.observed)?,
    })
}

/// What one job's analysis produced.
struct AnalyzeOutcome {
    verdict: Verdict,
    detail: String,
    resources: usize,
    counters: AnalysisCounters,
    /// Source-anchored findings (race reports, pipeline errors, modeling
    /// warnings) — the machine-readable stream behind `--annotations`.
    diagnostics: Vec<Diagnostic>,
}

impl AnalyzeOutcome {
    fn new(verdict: Verdict, detail: impl Into<String>) -> AnalyzeOutcome {
        AnalyzeOutcome {
            verdict,
            detail: detail.into(),
            resources: 0,
            counters: AnalysisCounters::default(),
            diagnostics: Vec::new(),
        }
    }
}

/// Runs the determinism + idempotence pipeline on an already-lowered
/// graph, routing pairwise commutativity through `oracle` when one is
/// supplied.
fn analyze_lowered(
    graph: &FsGraph,
    mut diagnostics: Vec<Diagnostic>,
    analysis: &AnalysisOptions,
    cancel: Option<&CancelToken>,
    oracle: Option<&CommuteOracle>,
) -> AnalyzeOutcome {
    if cancel.is_some_and(CancelToken::is_cancelled) {
        return AnalyzeOutcome::new(Verdict::Timeout, "cancelled before start");
    }
    let mut options = analysis.clone();
    if let Some(token) = cancel {
        options = options.with_cancel(token.clone());
    }
    let started = Instant::now();
    let resources = graph.exprs.len();

    let determinism = match check_determinism_with_oracle(graph, &options, oracle) {
        Ok(report) => report,
        Err(aborted) => {
            let mut out = AnalyzeOutcome::new(Verdict::Timeout, aborted.reason.clone());
            out.resources = resources;
            out.diagnostics = vec![aborted_diagnostic(&aborted)];
            return out;
        }
    };
    let counters = AnalysisCounters::from(&determinism.stats());
    if let rehearsal_core::DeterminismReport::NonDeterministic(cex, _) = &determinism {
        let detail = format!(
            "order A {}, order B {}",
            outcome_word(cex.outcome_a.is_ok()),
            outcome_word(cex.outcome_b.is_ok()),
        );
        diagnostics.push(race_diagnostic(cex, graph));
        return AnalyzeOutcome {
            verdict: Verdict::Nondeterministic,
            detail,
            resources,
            counters,
            diagnostics,
        };
    }

    // The idempotence stage runs under whatever deadline remains.
    if let Some(total) = options.timeout {
        options.timeout = Some(total.saturating_sub(started.elapsed()));
    }
    match check_idempotence(graph, &options) {
        Ok(report) if report.is_idempotent() => AnalyzeOutcome {
            verdict: Verdict::Deterministic,
            detail: String::new(),
            resources,
            counters,
            diagnostics,
        },
        Ok(report) => {
            diagnostics.extend(idempotence_diagnostics(&report, graph));
            AnalyzeOutcome {
                verdict: Verdict::Nonidempotent,
                detail: "applying twice differs from applying once".to_string(),
                resources,
                counters,
                diagnostics,
            }
        }
        Err(aborted) => {
            diagnostics.push(aborted_diagnostic(&aborted));
            AnalyzeOutcome {
                verdict: Verdict::Timeout,
                detail: aborted.reason,
                resources,
                counters,
                diagnostics,
            }
        }
    }
}

fn outcome_word(ok: bool) -> &'static str {
    if ok {
        "succeeds"
    } else {
        "errors"
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
        assert_eq!(
            report.rows[0].reuse,
            Some(ReuseCounts {
                resources_clean: 1,
                resources_dirty: 0,
                pairs_reused: 0
            })
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

    #[test]
    fn baseline_cold_run_records_entries() {
        let mut engine = FleetEngine::new(FleetOptions::default().with_jobs(1))
            .with_baseline(BaselineStore::in_memory());
        let report = engine.run(vec![job("trio.pp", TWO_DISJOINT)]);
        assert_eq!(report.rows[0].verdict, Verdict::Deterministic);
        // A cold run with a baseline attached reports everything dirty…
        assert_eq!(
            report.rows[0].reuse,
            Some(ReuseCounts {
                resources_clean: 0,
                resources_dirty: 3,
                pairs_reused: 0
            })
        );
        // …and records an entry with footprints and pair verdicts.
        assert_eq!(engine.state().baseline_len(), 1);
        let entry = engine
            .state()
            .baseline_find_by_digest(
                {
                    let (graph, _) = Rehearsal::new(Platform::Ubuntu)
                        .lower_source(TWO_DISJOINT)
                        .unwrap();
                    graph_digest(&graph)
                },
                options_fingerprint(Platform::Ubuntu, &AnalysisOptions::default()),
            )
            .unwrap();
        assert_eq!(entry.manifest, "trio.pp");
        assert_eq!(entry.resources.len(), 3);
        assert!(!entry.pairs.is_empty(), "pair verdicts are recorded");
    }

    #[test]
    fn baseline_replays_unedited_manifest_without_analysis() {
        let mut engine = FleetEngine::new(FleetOptions::default().with_jobs(1))
            .with_baseline(BaselineStore::in_memory());
        let first = engine.run(vec![job("trio.pp", TWO_DISJOINT)]);
        // Drop the verdict cache but keep the baseline: the digest match
        // replays the verdict (the second run is "another process").
        let baseline = engine.state().take_baseline().unwrap();
        let mut engine2 =
            FleetEngine::new(FleetOptions::default().with_jobs(1)).with_baseline(baseline);
        let second = engine2.run(vec![job("trio.pp", TWO_DISJOINT)]);
        assert_eq!(second.rows[0].verdict, first.rows[0].verdict);
        assert!(second.rows[0].cached);
        let reuse = second.rows[0].reuse.unwrap();
        assert_eq!(reuse.resources_clean, 3);
        assert_eq!(reuse.resources_dirty, 0);
    }

    #[test]
    fn baseline_slices_an_edit_to_its_dirty_cone() {
        let mut engine = FleetEngine::new(FleetOptions::default().with_jobs(1))
            .with_baseline(BaselineStore::in_memory());
        let cold = engine.run(vec![job("trio.pp", TWO_DISJOINT)]);
        let baseline = engine.state().take_baseline().unwrap();
        // Edit one attribute of one resource; the other two are disjoint
        // from it, so the cone is exactly the edited resource.
        let edited = TWO_DISJOINT.replace("content => 'c'", "content => 'changed'");
        let mut engine2 =
            FleetEngine::new(FleetOptions::default().with_jobs(1)).with_baseline(baseline);
        let sliced = engine2.run(vec![job("trio.pp", &edited)]);
        assert_eq!(sliced.rows[0].verdict, cold.rows[0].verdict);
        assert!(!sliced.rows[0].cached);
        let reuse = sliced.rows[0].reuse.unwrap();
        assert_eq!(
            reuse.resources_dirty, 1,
            "only the edited resource is dirty"
        );
        assert_eq!(reuse.resources_clean, 2);
        assert!(reuse.pairs_reused > 0, "clean pair verdicts were reused");
    }
}
