//! The `rehearsal coverage` gate: verify a manifest tree against a
//! pinned baseline and fail CI on verdict drift or below-threshold
//! coverage. Runs in two modes — offline (open the baseline, run the
//! fleet engine locally, compare) or against a live daemon
//! (`--addr`, reading its `/v1/coverage` rollup over HTTP).

use crate::http::http_request;
use crate::service::SERVE_SCHEMA;
use rehearsal_core::AnalysisOptions;
use rehearsal_fleet::{
    discover_manifests, options_fingerprint, BaselineStore, FleetEngine, FleetOptions, Json,
    StateDir, Verdict,
};
use rehearsal_pkgdb::Platform;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Configuration for [`run_coverage`].
#[derive(Debug, Clone)]
pub struct CoverageOptions {
    /// Manifest roots (directories or files) to verify, offline mode.
    pub paths: Vec<String>,
    /// The pinned baseline file (required offline).
    pub baseline: Option<String>,
    /// A running daemon to query instead of verifying locally.
    pub addr: Option<String>,
    /// Target platform (must match the one the baseline was pinned
    /// under, or nothing will be considered pinned).
    pub platform: Platform,
    /// Analysis options (ditto: part of the pin fingerprint).
    pub analysis: AnalysisOptions,
    /// Fleet worker threads (`0` = auto).
    pub jobs: usize,
    /// Minimum acceptable coverage, in percent.
    pub threshold: f64,
    /// Re-pin: persist current verdicts as the new baseline and pass.
    pub pin: bool,
}

impl Default for CoverageOptions {
    fn default() -> CoverageOptions {
        CoverageOptions {
            paths: Vec::new(),
            baseline: None,
            addr: None,
            platform: Platform::Ubuntu,
            analysis: AnalysisOptions::default().with_timeout(std::time::Duration::from_secs(600)),
            jobs: 0,
            threshold: 100.0,
            pin: false,
        }
    }
}

/// The gate's result: the coverage document (printable as JSON) and
/// whether the gate passes.
#[derive(Debug, Clone)]
pub struct CoverageOutcome {
    /// The `rehearsal-serve/1` coverage document.
    pub doc: Json,
    /// `true` iff no drift and coverage meets the threshold (always
    /// `true` after `--pin`: re-pinning defines the new baseline).
    pub pass: bool,
}

/// Runs the coverage gate per [`CoverageOptions`].
///
/// # Errors
///
/// Configuration problems (missing baseline, empty roots), I/O errors,
/// or a malformed daemon response — all as printable strings (the CLI
/// maps them to exit code 2, distinct from the gate's exit 1).
pub fn run_coverage(options: &CoverageOptions) -> Result<CoverageOutcome, String> {
    if let Some(addr) = &options.addr {
        if options.pin {
            return Err(
                "--pin is an offline operation (run it where the baseline file lives, \
                        without --addr)"
                    .to_string(),
            );
        }
        return daemon_coverage(addr, options.threshold);
    }
    let Some(baseline_path) = &options.baseline else {
        return Err("coverage needs --baseline FILE (or --addr HOST:PORT)".to_string());
    };
    if options.paths.is_empty() {
        return Err("coverage needs a manifest directory or file".to_string());
    }
    let mut manifests = Vec::new();
    for root in &options.paths {
        let found = discover_manifests(root).map_err(|e| format!("{root}: {e}"))?;
        if found.is_empty() {
            return Err(format!("{root}: no .pp manifests found"));
        }
        manifests.extend(found);
    }

    let store = BaselineStore::open(baseline_path).map_err(|e| format!("{baseline_path}: {e}"))?;
    let fp = options_fingerprint(options.platform, &options.analysis);
    // Snapshot the pins before the run: the engine re-records entries
    // with post-run verdicts, which are exactly what drift must be
    // measured *against*, not *with*.
    let pins: BTreeMap<String, (u64, Verdict)> = store
        .entries()
        .filter(|e| e.options == fp)
        .map(|e| (e.manifest.clone(), (e.graph_digest, e.verdict.clone())))
        .collect();
    // Without --pin the store is detached (its path cleared) so the
    // run's re-recorded entries can never leak back to disk through a
    // flush or drop.
    let store = if options.pin { store } else { store.detached() };
    let state = StateDir::in_memory();
    state.set_baseline(store);
    let state = Arc::new(state);

    let mut engine = FleetEngine::new(FleetOptions {
        jobs: options.jobs,
        analysis: options.analysis.clone(),
        ..FleetOptions::default()
    })
    .with_state(Arc::clone(&state));
    let report = engine.run_paths(&manifests, &[options.platform]);
    if options.pin {
        state.flush().map_err(|e| format!("{e}"))?;
    }

    let mut drifted = 0usize;
    let mut covered = 0usize;
    let rows: Vec<Json> = report
        .rows
        .iter()
        .map(|row| {
            let pinned = pins.get(&row.manifest);
            let drift = pinned.is_some_and(|(_, verdict)| *verdict != row.verdict);
            drifted += usize::from(drift);
            covered += usize::from(pinned.is_some());
            let digest = state
                .baseline_get(&row.manifest, fp)
                .map(|e| e.graph_digest);
            Json::obj([
                ("manifest", Json::str(&row.manifest)),
                (
                    "digest",
                    digest.map_or(Json::Null, |d| Json::Str(format!("{d:016x}"))),
                ),
                ("verdict", Json::str(row.verdict.label())),
                (
                    "baseline",
                    pinned.map_or(Json::Null, |(_, v)| Json::str(v.label())),
                ),
                ("drift", Json::Bool(drift)),
                ("verified", Json::Bool(true)),
            ])
        })
        .collect();
    let total = report.rows.len();
    let coverage = if total == 0 {
        1.0
    } else {
        covered as f64 / total as f64
    };
    let pass = options.pin || (drifted == 0 && coverage * 100.0 >= options.threshold);
    let doc = Json::obj([
        ("schema", Json::str(SERVE_SCHEMA)),
        ("kind", Json::str("coverage")),
        ("manifests", Json::Num(total as f64)),
        ("verified", Json::Num(total as f64)),
        ("pinned", Json::Num(covered as f64)),
        ("drifted", Json::Num(drifted as f64)),
        (
            "coverage",
            Json::Num((coverage * 10000.0).round() / 10000.0),
        ),
        ("threshold", Json::Num(options.threshold)),
        ("repinned", Json::Bool(options.pin)),
        ("rows", Json::Arr(rows)),
        ("clean", Json::Bool(drifted == 0)),
    ]);
    Ok(CoverageOutcome { doc, pass })
}

/// Gates on a running daemon's `/v1/coverage` rollup.
fn daemon_coverage(addr: &str, threshold: f64) -> Result<CoverageOutcome, String> {
    let (status, body) =
        http_request(addr, "GET", "/v1/coverage", "").map_err(|e| format!("{addr}: {e}"))?;
    if status != 200 {
        return Err(format!("{addr}: /v1/coverage returned HTTP {status}"));
    }
    let doc = rehearsal_fleet::parse_json(&body)
        .map_err(|e| format!("{addr}: malformed coverage document: {e:?}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some(SERVE_SCHEMA) {
        return Err(format!("{addr}: unexpected coverage schema"));
    }
    let clean = doc.get("clean").and_then(Json::as_bool).unwrap_or(false);
    let coverage = match doc.get("coverage") {
        Some(Json::Num(f)) => *f,
        _ => 0.0,
    };
    let pass = clean && coverage * 100.0 >= threshold;
    Ok(CoverageOutcome { doc, pass })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rehearsal-coverage-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_manifest(dir: &std::path::Path, name: &str, source: &str) {
        let mut f = std::fs::File::create(dir.join(name)).unwrap();
        f.write_all(source.as_bytes()).unwrap();
    }

    #[test]
    fn pin_then_gate_then_drift() {
        let dir = temp_dir("gate");
        write_manifest(&dir, "site.pp", "file { '/a': content => 'x' }");
        let baseline = dir.join("baseline.jsonl").display().to_string();
        let opts = CoverageOptions {
            paths: vec![dir.display().to_string()],
            baseline: Some(baseline.clone()),
            pin: true,
            ..CoverageOptions::default()
        };
        // Pin: records the baseline and passes.
        assert!(run_coverage(&opts).unwrap().pass);

        // Unchanged tree gates clean at 100% coverage.
        let gate = CoverageOptions {
            pin: false,
            ..opts.clone()
        };
        let outcome = run_coverage(&gate).unwrap();
        assert!(outcome.pass);
        assert_eq!(outcome.doc.get("drifted").and_then(Json::as_u64), Some(0));

        // Inject DET→NONDET drift; the gate must fail…
        write_manifest(
            &dir,
            "site.pp",
            "file { '/a': content => 'x' }\nfile { 'b': path => '/a', content => 'y' }",
        );
        let outcome = run_coverage(&gate).unwrap();
        assert!(!outcome.pass, "verdict drift fails the gate");
        assert_eq!(outcome.doc.get("drifted").and_then(Json::as_u64), Some(1));
        // …and the detached store must not have rewritten the pin.
        let outcome = run_coverage(&gate).unwrap();
        assert!(!outcome.pass, "drift persists until re-pinned");

        // Re-pin accepts the new verdict; the gate passes again.
        assert!(run_coverage(&opts).unwrap().pass);
        let outcome = run_coverage(&gate).unwrap();
        assert!(outcome.pass, "re-pinned baseline gates clean");
    }

    #[test]
    fn unpinned_manifests_lower_coverage() {
        let dir = temp_dir("threshold");
        write_manifest(&dir, "a.pp", "file { '/a': content => 'x' }");
        let baseline = dir.join("baseline.jsonl").display().to_string();
        let pin = CoverageOptions {
            paths: vec![dir.display().to_string()],
            baseline: Some(baseline.clone()),
            pin: true,
            ..CoverageOptions::default()
        };
        assert!(run_coverage(&pin).unwrap().pass);

        // A second, never-pinned manifest halves coverage.
        write_manifest(&dir, "b.pp", "file { '/b': content => 'y' }");
        let gate = CoverageOptions {
            pin: false,
            ..pin.clone()
        };
        let outcome = run_coverage(&gate).unwrap();
        assert!(!outcome.pass, "50% coverage misses the default 100% bar");
        let relaxed = CoverageOptions {
            threshold: 50.0,
            ..gate
        };
        assert!(run_coverage(&relaxed).unwrap().pass);
    }
}
