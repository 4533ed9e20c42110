//! The warm verification core behind every endpoint: one shared
//! [`StateDir`] (resident schema-5 verdict cache + baseline store), a
//! request memo that answers byte-identical repeat requests without
//! re-lowering, baseline pins for drift detection, the coverage rollup,
//! the live metrics registry, and the hash-chained run history.
//!
//! The memo is a map from `hash(manifest, platform, options, source)` to
//! the verdict-cache key ([`StoreKey`]) the engine answered that request
//! from or filed it under: a graph key for a source that lowered, the
//! source key for one that did not. It holds no response of its own; a
//! hit reads the cached verdict and renders the document a cache hit
//! renders, so the verdict cache stays the single copy of every verdict
//! and a memo entry costs a few dozen bytes.

use crate::history::{HistoryLog, HISTORY_FILE};
use crate::http::{Request, Response};
use rehearsal_core::{AnalysisOptions, CancelToken};
use rehearsal_fleet::{
    diagnostic_json, fnv1a_digest, options_fingerprint, stored_row, BaselineStore, FleetEngine,
    FleetJob, FleetOptions, Json, StateDir, StoreKey, Verdict,
};
use rehearsal_lint::{lint_source, LintOptions};
use rehearsal_pkgdb::Platform;
use rehearsal_trace::Registry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Schema tag of the daemon's own (non-check) JSON documents.
pub const SERVE_SCHEMA: &str = "rehearsal-serve/1";

/// Upper bound on memoized requests; beyond it the memo is cleared
/// wholesale (requests fall back to the verdict cache, which is keyed
/// semantically and never evicted).
const MEMO_CAP: usize = 4096;
/// How long a stop request waits to connect to the accept loop.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Configuration for [`Service::new`] / [`crate::Server::bind`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address, `HOST:PORT` (port `0` binds an ephemeral port).
    pub addr: String,
    /// Default target platform for requests that name none.
    pub platform: Platform,
    /// Default analysis options (per-request overrides ride on top).
    pub analysis: AnalysisOptions,
    /// Request worker threads; `0` means `max(2, cores)`.
    pub workers: usize,
    /// Directory to poll for manifest changes (watch mode).
    pub watch: Option<PathBuf>,
    /// Watch poll interval in milliseconds.
    pub poll_ms: u64,
    /// Persistent state directory (verdict cache, baseline, history).
    pub state_dir: Option<PathBuf>,
    /// Explicit baseline file (overrides the state directory's).
    pub baseline: Option<PathBuf>,
}

impl Default for ServeOptions {
    /// Defaults match the batch CLI (same 600 s timeout, so the options
    /// fingerprint — and therefore baseline pins and cached verdicts —
    /// interoperate between `rehearsal fleet` and the daemon).
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:7777".to_string(),
            platform: Platform::Ubuntu,
            analysis: AnalysisOptions::default().with_timeout(Duration::from_secs(600)),
            workers: 0,
            watch: None,
            poll_ms: 1000,
            state_dir: None,
            baseline: None,
        }
    }
}

impl ServeOptions {
    /// The request worker count a server will actually run.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .max(2)
        }
    }
}

/// One manifest's standing in the coverage rollup.
#[derive(Debug, Clone)]
struct RollupRow {
    digest: u64,
    verdict: Verdict,
    baseline: Option<Verdict>,
    drift: bool,
    cached: bool,
}

/// The result of one internal check, as the watcher and the HTTP
/// handler both consume it.
struct CheckOutcome {
    doc: Json,
    verdict: Verdict,
    drift: bool,
}

/// The shared warm core. One `Service` lives behind an `Arc`, touched
/// concurrently by the accept loop, every request worker, and the
/// watcher thread; all mutable state sits behind its own lock.
#[derive(Debug)]
pub struct Service {
    options: ServeOptions,
    state: Arc<StateDir>,
    registry: Registry,
    drain: CancelToken,
    stopping: AtomicBool,
    history: Option<Mutex<HistoryLog>>,
    pins: Mutex<BTreeMap<String, (u64, Verdict)>>,
    rollup: Mutex<BTreeMap<String, RollupRow>>,
    memo: Mutex<HashMap<u64, StoreKey>>,
    wake: OnceLock<SocketAddr>,
    started: Instant,
    fp: u64,
}

impl Service {
    /// Opens the persistent state (if any), snapshots the baseline's
    /// pins for drift detection, and builds the warm core.
    ///
    /// # Errors
    ///
    /// I/O errors opening the state directory, baseline, or history.
    pub fn new(options: ServeOptions) -> io::Result<Service> {
        let state = match &options.state_dir {
            Some(dir) => StateDir::open(dir)?,
            None => StateDir::in_memory(),
        };
        if let Some(path) = &options.baseline {
            state.set_baseline(BaselineStore::open(path)?);
        }
        if !state.has_baseline() {
            // Always run with *some* baseline so the engine records
            // graph digests (the rollup's identity) even in-memory.
            state.set_baseline(BaselineStore::in_memory());
        }
        let history = match &options.state_dir {
            Some(dir) => Some(Mutex::new(HistoryLog::open(dir.join(HISTORY_FILE))?)),
            None => None,
        };
        let fp = options_fingerprint(options.platform, &options.analysis);
        // Pins are snapshotted *before* any request runs: the engine
        // re-records baseline entries after each analysis, so reading
        // them later would compare every verdict against itself.
        let pins: BTreeMap<String, (u64, Verdict)> = state
            .baseline_pins(fp)
            .into_iter()
            .map(|(manifest, digest, verdict)| (manifest, (digest, verdict)))
            .collect();
        let service = Service {
            options,
            state: Arc::new(state),
            registry: Registry::new(),
            drain: CancelToken::new(),
            stopping: AtomicBool::new(false),
            history,
            pins: Mutex::new(pins),
            rollup: Mutex::new(BTreeMap::new()),
            memo: Mutex::new(HashMap::new()),
            wake: OnceLock::new(),
            started: Instant::now(),
            fp,
        };
        service.record(
            "start",
            vec![
                ("addr", Json::str(&service.options.addr)),
                (
                    "pinned",
                    Json::Num(service.pins.lock().unwrap().len() as f64),
                ),
            ],
        );
        Ok(service)
    }

    /// The daemon's configuration.
    pub fn options(&self) -> &ServeOptions {
        &self.options
    }

    /// The shared persistent-state handle.
    pub fn state(&self) -> &Arc<StateDir> {
        &self.state
    }

    /// Whether shutdown has been requested.
    pub fn stopping(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
    }

    /// Requests shutdown: the accept loop stops taking connections and
    /// the server begins its drain. The first request wakes the blocked
    /// accept loop with one connection to the server's own port, which
    /// the loop drops unanswered.
    pub fn request_stop(&self) {
        if !self.stopping.swap(true, Ordering::SeqCst) {
            if let Some(addr) = self.wake.get() {
                let _ = TcpStream::connect_timeout(addr, WAKE_TIMEOUT);
            }
        }
    }

    /// Records where [`Service::request_stop`] connects to wake the
    /// accept loop (set once, by [`crate::Server::bind`]).
    pub(crate) fn set_wake_addr(&self, addr: SocketAddr) {
        let _ = self.wake.set(addr);
    }

    /// Cancels the drain token — every in-flight analysis aborts at its
    /// next poll point (reporting a timeout verdict, responses still
    /// written). Called by the server once the drain grace expires.
    pub fn cancel_inflight(&self) {
        self.drain.cancel();
    }

    /// Appends a record to the history log (a no-op without a state
    /// directory; write errors are counted, not fatal).
    pub fn record(&self, event: &str, fields: Vec<(&str, Json)>) {
        if let Some(history) = &self.history {
            if history.lock().unwrap().append(event, fields).is_err() {
                self.registry.counter_add("serve.errors", 1);
            }
        }
    }

    /// Final flush: verdict cache, baseline store, and the closing
    /// history record. The server calls this exactly once, after the
    /// workers have drained.
    ///
    /// # Errors
    ///
    /// I/O errors from the state flush.
    pub fn flush(&self) -> io::Result<()> {
        self.record(
            "shutdown",
            vec![(
                "uptime_ms",
                Json::Num(self.started.elapsed().as_millis() as f64),
            )],
        );
        self.state.flush()
    }

    /// Routes one request. Unknown paths 404; known paths with the
    /// wrong method 405.
    pub fn handle(&self, request: &Request) -> Response {
        self.registry.counter_add("serve.requests", 1);
        let started = Instant::now();
        let response = match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/v1/check") => self.handle_check(&request.body),
            ("POST", "/v1/lint") => self.handle_lint(&request.body),
            ("GET", "/v1/fleet") => Response::json(200, self.fleet_doc().render_pretty()),
            ("GET", "/v1/coverage") => Response::json(200, self.coverage_doc().render_pretty()),
            ("GET", "/v1/metrics") => Response::text(200, self.registry.snapshot().to_prometheus()),
            ("GET", "/v1/healthz") => Response::json(200, self.healthz_doc().render_pretty()),
            ("POST", "/v1/shutdown") => {
                self.request_stop();
                Response::json(200, "{\"status\":\"stopping\"}".to_string())
            }
            (
                _,
                "/v1/check" | "/v1/lint" | "/v1/fleet" | "/v1/coverage" | "/v1/metrics"
                | "/v1/healthz" | "/v1/shutdown",
            ) => Response::json(405, "{\"error\":\"method not allowed\"}".to_string()),
            _ => Response::json(404, "{\"error\":\"not found\"}".to_string()),
        };
        self.registry
            .observe("serve.request_ms", started.elapsed().as_millis() as u64);
        if response.status >= 400 {
            self.registry.counter_add("serve.errors", 1);
        }
        response
    }

    fn bad_request(message: &str) -> Response {
        Response::json(
            400,
            Json::obj([("error", Json::str(message))]).render_pretty(),
        )
    }

    fn handle_check(&self, body: &[u8]) -> Response {
        self.registry.counter_add("serve.check_requests", 1);
        let Ok(text) = std::str::from_utf8(body) else {
            return Self::bad_request("body is not UTF-8");
        };
        let Ok(doc) = rehearsal_fleet::parse_json(text) else {
            return Self::bad_request("body is not valid JSON");
        };
        let Some(source) = doc.get("source").and_then(Json::as_str) else {
            return Self::bad_request("missing required field: source");
        };
        let manifest = doc
            .get("manifest")
            .and_then(Json::as_str)
            .unwrap_or("request.pp")
            .to_string();
        let platform = match doc.get("platform").and_then(Json::as_str) {
            None => self.options.platform,
            Some(label) => match label.parse() {
                Ok(platform) => platform,
                Err(_) => return Self::bad_request("unknown platform"),
            },
        };
        let mut analysis = self.options.analysis.clone();
        if let Some(flag) = doc.get("model_metadata").and_then(Json::as_bool) {
            analysis.model_metadata = flag;
        }
        if let Some(flag) = doc.get("model_latest").and_then(Json::as_bool) {
            analysis.model_latest = flag;
        }
        if let Some(secs) = doc.get("timeout_s").and_then(Json::as_u64) {
            analysis.timeout = Some(Duration::from_secs(secs));
        }
        let outcome = self.check(&manifest, source.to_string(), platform, analysis);
        Response::json(200, outcome.doc.render_pretty())
    }

    /// The whole check path, shared by `/v1/check` and the watcher. The
    /// memo answers byte-identical repeats from the verdict cache without
    /// touching the engine (no re-lowering); everything else runs a
    /// single-job fleet engine against the resident state, so a repeat
    /// after a formatting, reorder or rename edit still hits the semantic
    /// verdict cache or replays the baseline pin.
    fn check(
        &self,
        manifest: &str,
        source: String,
        platform: Platform,
        analysis: AnalysisOptions,
    ) -> CheckOutcome {
        let started = Instant::now();
        let fp = options_fingerprint(platform, &analysis);
        let memo_key = fnv1a_digest(
            format!("{manifest}\u{0}{platform}\u{0}{fp:016x}\u{0}{source}").as_bytes(),
        );
        let memo_hit = self.memo.lock().unwrap().get(&memo_key).copied();
        if let Some(row) =
            memo_hit.and_then(|key| stored_row(&self.state, key, manifest.to_string(), platform))
        {
            // The document a cache hit renders; `metrics` is null because
            // no engine ran.
            self.registry.counter_add("serve.cache_hits", 1);
            let mut doc =
                rehearsal_fleet::check_document_from_row(&row, analysis.model_metadata, None);
            let drift = attach_serve(&mut doc, true, false, started);
            return CheckOutcome {
                doc,
                verdict: row.verdict,
                drift,
            };
        }

        // Drift compares against the pin as it stood *before* this run:
        // the engine re-records the baseline entry afterwards.
        let tracked = fp == self.fp && platform == self.options.platform;
        let pinned = tracked
            .then(|| self.pins.lock().unwrap().get(manifest).cloned())
            .flatten();

        let mut engine = FleetEngine::new(FleetOptions {
            jobs: 1,
            analysis: analysis.clone(),
            cancel: Some(self.drain.child()),
            ..FleetOptions::default()
        })
        .with_state(Arc::clone(&self.state));
        let report = engine.run(vec![FleetJob {
            name: manifest.to_string(),
            source,
            platform,
        }]);
        self.registry.merge_snapshot(&report.metrics);
        let row = &report.rows[0];
        let mut doc = rehearsal_fleet::check_document_from_row(
            row,
            analysis.model_metadata,
            Some(&report.metrics),
        );

        let digest = self
            .state
            .baseline_get(manifest, fp)
            .map_or_else(|| fnv1a_digest(row.manifest.as_bytes()), |e| e.graph_digest);
        let drift = pinned
            .as_ref()
            .is_some_and(|(_, verdict)| *verdict != row.verdict);
        if tracked {
            if pinned.is_none() {
                // First sighting: adopt the verdict as this daemon's pin
                // so later edits under watch have something to drift
                // against even without a pre-seeded baseline.
                self.pins
                    .lock()
                    .unwrap()
                    .insert(manifest.to_string(), (digest, row.verdict.clone()));
            }
            if drift {
                self.registry.counter_add("serve.drift_detected", 1);
                self.record(
                    "drift",
                    vec![
                        ("manifest", Json::str(manifest)),
                        (
                            "baseline",
                            Json::str(pinned.as_ref().map_or("", |(_, v)| v.label())),
                        ),
                        ("verdict", Json::str(row.verdict.label())),
                    ],
                );
            }
            self.rollup.lock().unwrap().insert(
                manifest.to_string(),
                RollupRow {
                    digest,
                    verdict: row.verdict.clone(),
                    baseline: pinned.as_ref().map(|(_, v)| v.clone()),
                    drift,
                    cached: row.cached,
                },
            );
        }
        self.record(
            "check",
            vec![
                ("manifest", Json::str(manifest)),
                ("verdict", Json::str(row.verdict.label())),
                ("cached", Json::Bool(row.cached)),
                ("drift", Json::Bool(drift)),
                ("run_ms", Json::Num(row.run_ms as f64)),
            ],
        );
        if let Some(key) = row.store_key.filter(|_| row.verdict != Verdict::Timeout) {
            let mut memo = self.memo.lock().unwrap();
            if memo.len() >= MEMO_CAP {
                memo.clear();
            }
            memo.insert(memo_key, key);
        }
        let verdict = row.verdict.clone();
        attach_serve(&mut doc, false, drift, started);
        CheckOutcome {
            doc,
            verdict,
            drift,
        }
    }

    /// Re-verifies a changed (or newly discovered) manifest from the
    /// watcher, with the daemon's default options. Returns whether the
    /// verdict drifted from its pin.
    pub(crate) fn watch_check(&self, manifest: &str, source: String) -> bool {
        self.registry.counter_add("serve.watch_reverifies", 1);
        // Watch re-checks must not be answered by the response memo (the
        // content changed, so the key differs anyway) but must land in
        // it, so a subsequent identical HTTP request is warm.
        let outcome = self.check(
            manifest,
            source,
            self.options.platform,
            self.options.analysis.clone(),
        );
        self.record(
            "watch",
            vec![
                ("manifest", Json::str(manifest)),
                ("verdict", Json::str(outcome.verdict.label())),
                ("drift", Json::Bool(outcome.drift)),
            ],
        );
        outcome.drift
    }

    /// Bumps the watcher's scan counter (one full directory poll).
    pub(crate) fn note_watch_scan(&self) {
        self.registry.counter_add("serve.watch_scans", 1);
    }

    fn handle_lint(&self, body: &[u8]) -> Response {
        self.registry.counter_add("serve.lint_requests", 1);
        let Ok(text) = std::str::from_utf8(body) else {
            return Self::bad_request("body is not UTF-8");
        };
        let Ok(doc) = rehearsal_fleet::parse_json(text) else {
            return Self::bad_request("body is not valid JSON");
        };
        let Some(source) = doc.get("source").and_then(Json::as_str) else {
            return Self::bad_request("missing required field: source");
        };
        let manifest = doc
            .get("manifest")
            .and_then(Json::as_str)
            .unwrap_or("request.pp");
        let report = lint_source(
            manifest,
            source,
            &LintOptions {
                platform: self.options.platform,
                ..LintOptions::default()
            },
        );
        let (errors, warnings, notes) = report.counts();
        let doc = Json::obj([
            ("schema", Json::str("rehearsal-lint/1")),
            ("platform", Json::str(self.options.platform.to_string())),
            (
                "manifests",
                Json::Arr(vec![Json::obj([
                    ("manifest", Json::str(manifest)),
                    ("rules_run", Json::num(report.rules_run as u32)),
                    (
                        "findings",
                        Json::Arr(report.findings.iter().map(diagnostic_json).collect()),
                    ),
                ])]),
            ),
            ("errors", Json::num(errors as u32)),
            ("warnings", Json::num(warnings as u32)),
            ("notes", Json::num(notes as u32)),
        ]);
        Response::json(200, doc.render_pretty())
    }

    fn healthz_doc(&self) -> Json {
        Json::obj([
            ("schema", Json::str(SERVE_SCHEMA)),
            ("status", Json::str("ok")),
            (
                "uptime_ms",
                Json::Num(self.started.elapsed().as_millis() as f64),
            ),
            ("cache_entries", Json::Num(self.state.cache_len() as f64)),
            (
                "baseline_entries",
                Json::Num(self.state.baseline_len() as f64),
            ),
        ])
    }

    fn fleet_doc(&self) -> Json {
        let rollup = self.rollup.lock().unwrap();
        let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut cached = 0u64;
        let mut drifted = 0u64;
        for row in rollup.values() {
            *counts.entry(row.verdict.label()).or_default() += 1;
            cached += u64::from(row.cached);
            drifted += u64::from(row.drift);
        }
        Json::obj([
            ("schema", Json::str(SERVE_SCHEMA)),
            ("kind", Json::str("fleet")),
            ("manifests", Json::Num(rollup.len() as f64)),
            (
                "counts",
                Json::Obj(
                    counts
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), Json::Num(v as f64)))
                        .collect(),
                ),
            ),
            ("cached", Json::Num(cached as f64)),
            ("drifted", Json::Num(drifted as f64)),
            (
                "clean",
                Json::Bool(rollup.values().all(|r| r.verdict.is_pass() && !r.drift)),
            ),
        ])
    }

    /// The pinned-baseline coverage rollup: every manifest this daemon
    /// has verified (by HTTP or watch), each compared to its pin, plus
    /// the aggregate coverage fraction over all *known* manifests
    /// (pinned or verified).
    pub fn coverage_doc(&self) -> Json {
        let rollup = self.rollup.lock().unwrap();
        let pins = self.pins.lock().unwrap();
        let known: BTreeSet<&String> = pins.keys().chain(rollup.keys()).collect();
        let drifted = rollup.values().filter(|r| r.drift).count();
        let coverage = if known.is_empty() {
            1.0
        } else {
            rollup.len() as f64 / known.len() as f64
        };
        let rows: Vec<Json> = known
            .iter()
            .map(|manifest| {
                let row = rollup.get(*manifest);
                Json::obj([
                    ("manifest", Json::str(manifest.as_str())),
                    (
                        "digest",
                        match row {
                            Some(r) => Json::Str(format!("{:016x}", r.digest)),
                            None => Json::Null,
                        },
                    ),
                    (
                        "verdict",
                        row.map_or(Json::Null, |r| Json::str(r.verdict.label())),
                    ),
                    (
                        "baseline",
                        match pins.get(*manifest) {
                            Some((_, verdict)) => Json::str(verdict.label()),
                            None => row
                                .and_then(|r| r.baseline.as_ref())
                                .map_or(Json::Null, |v| Json::str(v.label())),
                        },
                    ),
                    ("drift", Json::Bool(row.is_some_and(|r| r.drift))),
                    ("verified", Json::Bool(row.is_some())),
                ])
            })
            .collect();
        Json::obj([
            ("schema", Json::str(SERVE_SCHEMA)),
            ("kind", Json::str("coverage")),
            ("manifests", Json::Num(known.len() as f64)),
            ("verified", Json::Num(rollup.len() as f64)),
            ("pinned", Json::Num(pins.len() as f64)),
            ("drifted", Json::Num(drifted as f64)),
            (
                "coverage",
                Json::Num((coverage * 10000.0).round() / 10000.0),
            ),
            ("rows", Json::Arr(rows)),
            ("clean", Json::Bool(drifted == 0)),
        ])
    }
}

/// Replaces (or appends) a top-level field on an object document.
fn set_field(doc: &mut Json, key: &str, value: Json) {
    if let Json::Obj(pairs) = doc {
        for (k, v) in pairs.iter_mut() {
            if k == key {
                *v = value;
                return;
            }
        }
        pairs.push((key.to_string(), value));
    }
}

/// Attaches the daemon's per-request accounting (`serve` object) to a
/// check document; returns the recorded drift flag for convenience.
fn attach_serve(doc: &mut Json, memo_hit: bool, drift: bool, started: Instant) -> bool {
    set_field(
        doc,
        "serve",
        Json::obj([
            ("cache_hit", Json::Bool(memo_hit)),
            ("drift", Json::Bool(drift)),
            ("run_us", Json::Num(started.elapsed().as_micros() as f64)),
        ]),
    );
    drift
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> Service {
        Service::new(ServeOptions::default()).unwrap()
    }

    fn check_body(manifest: &str, source: &str) -> Vec<u8> {
        Json::obj([
            ("manifest", Json::str(manifest)),
            ("source", Json::str(source)),
        ])
        .render()
        .into_bytes()
    }

    fn post(service: &Service, path: &str, body: Vec<u8>) -> (u16, Json) {
        let response = service.handle(&Request {
            method: "POST".to_string(),
            path: path.to_string(),
            body,
        });
        let doc = rehearsal_fleet::parse_json(&response.body).expect("JSON response");
        (response.status, doc)
    }

    #[test]
    fn check_verdict_then_warm_repeat() {
        let service = service();
        let source = "file { '/etc/motd': content => 'hello' }";
        let (status, doc) = post(&service, "/v1/check", check_body("motd.pp", source));
        assert_eq!(status, 200);
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("rehearsal-check/5")
        );
        assert_eq!(
            doc.get("verdict").and_then(Json::as_str),
            Some("deterministic")
        );
        let serve = doc.get("serve").expect("serve object");
        assert_eq!(serve.get("cache_hit").and_then(Json::as_bool), Some(false));

        let (_, warm) = post(&service, "/v1/check", check_body("motd.pp", source));
        let serve = warm.get("serve").expect("serve object");
        assert_eq!(serve.get("cache_hit").and_then(Json::as_bool), Some(true));
        assert_eq!(warm.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(
            warm.get("verdict").and_then(Json::as_str),
            Some("deterministic")
        );
    }

    fn serve_field(doc: &Json, key: &str) -> Option<bool> {
        doc.get("serve")
            .and_then(|serve| serve.get(key))
            .and_then(Json::as_bool)
    }

    /// The parts of a check document that carry the verdict.
    fn verdict_parts(doc: &Json) -> [Option<&Json>; 4] {
        [
            doc.get("verdict"),
            doc.get("detail"),
            doc.get("stats").and_then(|stats| stats.get("resources")),
            doc.get("diagnostics"),
        ]
    }

    #[test]
    fn memo_hit_renders_the_store_hit_document() {
        let service = service();
        let race = "file { '/a': content => 'x' }\nfile { 'b': path => '/a', content => 'y' }";
        let reformatted =
            "# same graph\nfile { '/a':\n  content => 'x',\n}\nfile { 'b': path => '/a', content => 'y' }";
        let (_, cold) = post(&service, "/v1/check", check_body("race.pp", race));
        assert_eq!(serve_field(&cold, "cache_hit"), Some(false));
        // A reformat lowers to the same graph: the verdict cache answers.
        let (_, store_hit) = post(&service, "/v1/check", check_body("race.pp", reformatted));
        assert_eq!(serve_field(&store_hit, "cache_hit"), Some(false));
        assert_eq!(store_hit.get("cached").and_then(Json::as_bool), Some(true));
        // A byte-identical repeat: the memo answers.
        let (_, memo_hit) = post(&service, "/v1/check", check_body("race.pp", race));
        assert_eq!(serve_field(&memo_hit, "cache_hit"), Some(true));
        assert_eq!(memo_hit.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(
            memo_hit.get("verdict").and_then(Json::as_str),
            Some("nondeterministic")
        );
        assert_eq!(verdict_parts(&memo_hit), verdict_parts(&store_hit));
        assert!(memo_hit
            .get("diagnostics")
            .is_some_and(|d| matches!(d, Json::Arr(items) if !items.is_empty())));
        for doc in [&memo_hit, &store_hit] {
            let reuse = doc.get("reuse").expect("reuse object");
            assert_eq!(reuse.get("resources_clean").and_then(Json::as_u64), Some(2));
            assert_eq!(reuse.get("resources_dirty").and_then(Json::as_u64), Some(0));
            let stats = doc.get("stats").expect("stats object");
            assert_eq!(
                stats.get("sequences_explored").and_then(Json::as_u64),
                Some(0)
            );
        }
    }

    #[test]
    fn repeated_lowering_failure_is_a_memo_hit_with_the_same_error() {
        let service = service();
        let broken = "file { '/a': content => ";
        let (status, first) = post(&service, "/v1/check", check_body("broken.pp", broken));
        assert_eq!(status, 200);
        assert_eq!(first.get("verdict").and_then(Json::as_str), Some("error"));
        assert_eq!(serve_field(&first, "cache_hit"), Some(false));
        let (_, again) = post(&service, "/v1/check", check_body("broken.pp", broken));
        assert_eq!(serve_field(&again, "cache_hit"), Some(true));
        assert_eq!(verdict_parts(&again), verdict_parts(&first));
        assert_eq!(again.get("reuse"), Some(&Json::Null));
    }

    #[test]
    fn a_lowering_failure_never_gets_the_pinned_verdict() {
        let service = service();
        let good = "file { '/etc/motd': content => 'hi' }";
        let broken = "file { '/etc/motd': content => ";
        let (_, pinned) = post(&service, "/v1/check", check_body("site.pp", good));
        assert_eq!(
            pinned.get("verdict").and_then(Json::as_str),
            Some("deterministic")
        );
        for attempt in ["cold", "memo"] {
            let (_, doc) = post(&service, "/v1/check", check_body("site.pp", broken));
            assert_eq!(
                doc.get("verdict").and_then(Json::as_str),
                Some("error"),
                "{attempt}: the name's pin must not answer a source that fails to lower"
            );
            assert_eq!(serve_field(&doc, "cache_hit"), Some(attempt == "memo"));
        }
    }

    #[test]
    fn drift_is_flagged_when_a_verdict_changes() {
        let service = service();
        let det = "file { '/a': content => 'x' }";
        let nondet = "file { '/a': content => 'x' }\nfile { 'b': path => '/a', content => 'y' }";
        let (_, first) = post(&service, "/v1/check", check_body("site.pp", det));
        assert_eq!(
            first
                .get("serve")
                .unwrap()
                .get("drift")
                .and_then(Json::as_bool),
            Some(false)
        );
        let (_, second) = post(&service, "/v1/check", check_body("site.pp", nondet));
        assert_eq!(
            second.get("verdict").and_then(Json::as_str),
            Some("nondeterministic")
        );
        assert_eq!(
            second
                .get("serve")
                .unwrap()
                .get("drift")
                .and_then(Json::as_bool),
            Some(true),
            "DET→NONDET under the same name drifts from the adopted pin"
        );
        let coverage = service.coverage_doc();
        assert_eq!(coverage.get("drifted").and_then(Json::as_u64), Some(1));
        assert_eq!(coverage.get("clean").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn lint_endpoint_reports_findings() {
        let service = service();
        let (status, doc) = post(
            &service,
            "/v1/lint",
            check_body("lint.pp", "$unused = 1\nfile { '/x': content => 'y' }"),
        );
        assert_eq!(status, 200);
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("rehearsal-lint/1")
        );
        assert!(doc.get("warnings").and_then(Json::as_u64).unwrap_or(0) >= 1);
    }

    #[test]
    fn unknown_paths_404_and_bad_bodies_400() {
        let service = service();
        let response = service.handle(&Request {
            method: "GET".to_string(),
            path: "/nope".to_string(),
            body: Vec::new(),
        });
        assert_eq!(response.status, 404);
        let (status, _) = post(&service, "/v1/check", b"not json".to_vec());
        assert_eq!(status, 400);
        let response = service.handle(&Request {
            method: "GET".to_string(),
            path: "/v1/check".to_string(),
            body: Vec::new(),
        });
        assert_eq!(response.status, 405);
    }

    #[test]
    fn metrics_endpoint_speaks_prometheus() {
        let service = service();
        let _ = post(
            &service,
            "/v1/check",
            check_body("m.pp", "file { '/m': content => 'x' }"),
        );
        let response = service.handle(&Request {
            method: "GET".to_string(),
            path: "/v1/metrics".to_string(),
            body: Vec::new(),
        });
        assert_eq!(response.status, 200);
        assert!(response.body.contains("rehearsal_serve_requests_total"));
        assert!(response
            .body
            .contains("rehearsal_serve_check_requests_total"));
    }
}
