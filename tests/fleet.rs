//! Integration tests for the fleet batch-verification engine and the
//! `rehearsal fleet` CI gate, over the bundled 13-benchmark suite and the
//! metadata permission-race suite.

use rehearsal::benchmarks::{METADATA_SUITE, SUITE};
use rehearsal::fleet::{
    parse_json, BaselineStore, FleetEngine, FleetJob, FleetOptions, FleetReport, Json, Verdict,
};
use rehearsal::Platform;
use std::path::{Path, PathBuf};
use std::process::Command;

fn rehearsal() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rehearsal"))
}

/// Writes the 13 SUITE manifests into a scratch directory.
fn fleet_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("rehearsal-fleet-it").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for b in SUITE {
        std::fs::write(dir.join(format!("{}.pp", b.name)), b.source).unwrap();
    }
    dir
}

fn suite_jobs() -> Vec<FleetJob> {
    SUITE
        .iter()
        .map(|b| FleetJob {
            name: format!("{}.pp", b.name),
            source: b.source.to_string(),
            platform: Platform::Ubuntu,
        })
        .collect()
}

/// The engine reproduces the paper's verdict for every bundled benchmark,
/// with 4 workers.
#[test]
fn engine_reproduces_paper_verdicts_in_parallel() {
    let mut engine = FleetEngine::new(FleetOptions::default().with_jobs(4));
    let report = engine.run(suite_jobs());
    assert_eq!(report.rows.len(), 13);
    for (row, b) in report.rows.iter().zip(SUITE) {
        let expected = if b.deterministic {
            Verdict::Deterministic
        } else {
            Verdict::Nondeterministic
        };
        assert_eq!(row.verdict, expected, "{}", b.name);
        assert!(!row.cached);
        assert!(row.resources > 0, "{}", b.name);
    }
    let c = report.counts();
    assert_eq!(
        (
            c.deterministic,
            c.nondeterministic,
            c.nonidempotent,
            c.error,
            c.timeout,
            c.cached
        ),
        (7, 6, 0, 0, 0, 0)
    );
    assert!(!report.all_clean());
}

/// A second run against a warm cache does zero re-analysis: all 13 rows
/// are cache hits with identical verdicts and no measured analysis time.
#[test]
fn warm_cache_rerun_does_zero_reanalysis() {
    let mut engine = FleetEngine::new(FleetOptions::default().with_jobs(4));
    let cold = engine.run(suite_jobs());
    let warm = engine.run(suite_jobs());
    assert_eq!(warm.counts().cached, 13, "13/13 cache hits");
    for (w, c) in warm.rows.iter().zip(cold.rows.iter()) {
        assert!(w.cached);
        assert_eq!(w.millis, 0, "cache hits do no analysis work");
        assert_eq!(w.verdict, c.verdict);
        assert_eq!(w.resources, c.resources);
    }
}

/// End-to-end CI gate: `rehearsal fleet <dir> --jobs 4 --json --cache`
/// exits non-zero on the buggy suite, reports exact aggregate counts, and
/// hits the on-disk cache on the second run.
#[test]
fn cli_fleet_gates_and_caches() {
    let dir = fleet_dir("cli");
    let cache = dir.join("verdicts.jsonl");

    let run = |label: &str| -> Json {
        let out = rehearsal()
            .args([
                "fleet",
                dir.to_str().unwrap(),
                "--jobs",
                "4",
                "--json",
                "--cache",
                cache.to_str().unwrap(),
            ])
            .output()
            .expect("binary runs");
        assert_eq!(
            out.status.code(),
            Some(1),
            "{label}: six buggy manifests must fail the gate"
        );
        parse_json(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON report")
    };

    let cold = run("cold");
    let counts = cold.get("counts").expect("counts");
    assert_eq!(counts.get("total").and_then(Json::as_u64), Some(13));
    assert_eq!(counts.get("deterministic").and_then(Json::as_u64), Some(7));
    assert_eq!(
        counts.get("nondeterministic").and_then(Json::as_u64),
        Some(6)
    );
    assert_eq!(counts.get("error").and_then(Json::as_u64), Some(0));
    assert_eq!(counts.get("timeout").and_then(Json::as_u64), Some(0));
    assert_eq!(counts.get("cached").and_then(Json::as_u64), Some(0));
    assert_eq!(cold.get("clean").and_then(Json::as_bool), Some(false));
    assert!(cache.exists(), "cache file written");

    // Nondeterministic rows carry their source-anchored diagnostics.
    let nondet_has_race = |doc: &Json| {
        doc.get("manifests")
            .and_then(Json::as_arr)
            .expect("rows")
            .iter()
            .filter(|r| r.get("verdict").and_then(Json::as_str) == Some("nondeterministic"))
            .all(|r| {
                r.get("diagnostics")
                    .and_then(Json::as_arr)
                    .is_some_and(|ds| {
                        ds.iter()
                            .any(|d| d.get("code").and_then(Json::as_str) == Some("R3001"))
                    })
            })
    };
    assert!(
        nondet_has_race(&cold),
        "cold rows carry the race diagnostic"
    );

    let warm = run("warm");
    let counts = warm.get("counts").and_then(|c| c.get("cached"));
    assert_eq!(counts.and_then(Json::as_u64), Some(13), "13/13 cache hits");
    for row in warm.get("manifests").and_then(Json::as_arr).expect("rows") {
        assert_eq!(row.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(row.get("millis").and_then(Json::as_u64), Some(0));
    }
    // Cached entries (schema 5) restore the diagnostics without
    // re-analysis.
    assert!(
        nondet_has_race(&warm),
        "warm rows replay cached diagnostics"
    );
}

/// Regression for path-sensitive cache keys: the semantic key embeds no
/// manifest path, so renaming *and* moving a manifest between runs (in
/// separate processes) still hits the on-disk cache.
#[test]
fn cli_fleet_cache_survives_rename_and_move() {
    let dir = std::env::temp_dir()
        .join("rehearsal-fleet-it")
        .join("rename");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("manifests")).unwrap();
    let cache = dir.join("verdicts.jsonl");
    let source = "file { '/etc/motd': content => 'hello' }\n";
    std::fs::write(dir.join("manifests/motd.pp"), source).unwrap();

    let run = || -> Json {
        let out = rehearsal()
            .args([
                "fleet",
                dir.join("manifests").to_str().unwrap(),
                "--json",
                "--cache",
                cache.to_str().unwrap(),
            ])
            .output()
            .expect("binary runs");
        assert!(out.status.success());
        parse_json(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON report")
    };

    let cold = run();
    assert_eq!(
        cold.get("counts")
            .and_then(|c| c.get("cached"))
            .and_then(Json::as_u64),
        Some(0)
    );

    // Rename the file and move it into a subdirectory.
    std::fs::create_dir_all(dir.join("manifests/site")).unwrap();
    std::fs::remove_file(dir.join("manifests/motd.pp")).unwrap();
    std::fs::write(dir.join("manifests/site/renamed.pp"), source).unwrap();

    let warm = run();
    assert_eq!(
        warm.get("counts")
            .and_then(|c| c.get("cached"))
            .and_then(Json::as_u64),
        Some(1),
        "renamed + moved manifest must hit the content-identity cache"
    );
}

/// End-to-end baseline replay: a cold `--baseline` run pins every
/// verdict; after an attribute edit the edited manifest is re-analyzed
/// while the untouched one replays without analysis — with verdicts
/// identical to the cold run.
#[test]
fn cli_fleet_baseline_edit_replay() {
    let dir = std::env::temp_dir()
        .join("rehearsal-fleet-it")
        .join("baseline");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = dir.join("baseline.jsonl");
    let trio = "file { '/etc/motd': content => 'a' }\n\
                file { '/srv/app.conf': content => 'b' }\n\
                file { '/var/banner': content => 'c' }\n";
    std::fs::write(dir.join("trio.pp"), trio).unwrap();
    let ntp = rehearsal::benchmarks::by_name("ntp").unwrap();
    std::fs::write(dir.join("ntp.pp"), ntp.source).unwrap();

    let run = || -> Json {
        let out = rehearsal()
            .args([
                "fleet",
                dir.to_str().unwrap(),
                "--json",
                "--baseline",
                baseline.to_str().unwrap(),
            ])
            .output()
            .expect("binary runs");
        assert!(out.status.success());
        parse_json(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON report")
    };
    let row = |doc: &Json, name: &str| -> Json {
        doc.get("manifests")
            .and_then(Json::as_arr)
            .expect("rows")
            .iter()
            .find(|r| {
                r.get("manifest")
                    .and_then(Json::as_str)
                    .is_some_and(|m| m.ends_with(name))
            })
            .expect("row present")
            .clone()
    };
    let cold = run();
    assert!(baseline.exists(), "baseline file written");
    let trio_cold = row(&cold, "trio.pp");
    assert_eq!(
        trio_cold.get("verdict").and_then(Json::as_str),
        Some("deterministic")
    );
    assert_eq!(trio_cold.get("cached").and_then(Json::as_bool), Some(false));

    // Mutate one attribute of one (footprint-disjoint, unordered)
    // resource.
    std::fs::write(
        dir.join("trio.pp"),
        trio.replace("content => 'c'", "content => 'changed'"),
    )
    .unwrap();

    let warm = run();
    let trio_warm = row(&warm, "trio.pp");
    assert_eq!(
        trio_warm.get("verdict").and_then(Json::as_str),
        Some("deterministic"),
        "verdict identical to a cold run"
    );
    assert_eq!(
        trio_warm.get("cached").and_then(Json::as_bool),
        Some(false),
        "the edited manifest is re-analyzed"
    );
    // The untouched manifest replays wholesale from the baseline.
    let ntp_warm = row(&warm, "ntp.pp");
    assert_eq!(ntp_warm.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(
        ntp_warm.get("verdict").and_then(Json::as_str),
        Some("deterministic")
    );
}

/// Regression: with `--cache`, an edit and a revert left the baseline
/// pinned to the edited verdict. The revert is a verdict-cache hit, and
/// the hit path only wrote a pin when none existed, so `coverage`
/// reported drift against a verdict no current file has.
#[test]
fn cli_fleet_cache_hit_repins_after_edit_and_revert() {
    let dir = std::env::temp_dir()
        .join("rehearsal-fleet-it")
        .join("edit-revert");
    let _ = std::fs::remove_dir_all(&dir);
    let fleet = dir.join("d");
    std::fs::create_dir_all(&fleet).unwrap();
    let cache = dir.join("c.jsonl");
    let baseline = dir.join("b.jsonl");
    let ntp = rehearsal::benchmarks::by_name("ntp").unwrap();
    let nondet = rehearsal::benchmarks::by_name("ntp-nondet").unwrap();

    for (source, exit) in [(ntp.source, 0), (nondet.source, 1), (ntp.source, 0)] {
        std::fs::write(fleet.join("a.pp"), source).unwrap();
        let out = rehearsal()
            .args([
                "fleet",
                fleet.to_str().unwrap(),
                "--cache",
                cache.to_str().unwrap(),
                "--baseline",
                baseline.to_str().unwrap(),
            ])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(exit));
    }
    let out = rehearsal()
        .args([
            "coverage",
            fleet.to_str().unwrap(),
            "--baseline",
            baseline.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "no drift after edit + revert: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// A fresh baseline file path (the file itself does not exist).
fn baseline_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("rehearsal-fleet-it").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("baseline.jsonl")
}

/// Runs `jobs` cold with a baseline attached, then again in a fresh
/// engine holding only that baseline (no verdict cache). Every replayed
/// row must be `cached` and equal the cold row in every field but timing
/// and reuse accounting. Returns the cold report.
fn assert_baseline_alone_replays(
    name: &str,
    options: FleetOptions,
    jobs: Vec<FleetJob>,
) -> FleetReport {
    let path = baseline_file(name);
    let mut cold_engine =
        FleetEngine::new(options.clone()).with_baseline(BaselineStore::open(&path).unwrap());
    let cold = cold_engine.run(jobs.clone());
    cold_engine.state().flush().unwrap();
    assert_eq!(cold.counts().cached, 0);

    let mut engine = FleetEngine::new(options).with_baseline(BaselineStore::open(&path).unwrap());
    let replayed = engine.run(jobs);
    assert_eq!(replayed.rows.len(), cold.rows.len());
    for (r, c) in replayed.rows.iter().zip(&cold.rows) {
        assert!(r.cached, "{}: replayed from the baseline", r.manifest);
        assert_eq!(
            (
                &r.manifest,
                &r.verdict,
                &r.detail,
                r.resources,
                &r.diagnostics
            ),
            (
                &c.manifest,
                &c.verdict,
                &c.detail,
                c.resources,
                &c.diagnostics
            ),
            "{}: replayed row differs from the cold row",
            r.manifest
        );
    }
    cold
}

/// The 13-manifest suite replays from the baseline alone.
#[test]
fn baseline_alone_replays_the_suite() {
    let cold = assert_baseline_alone_replays(
        "replay-suite",
        FleetOptions::default().with_jobs(2),
        suite_jobs(),
    );
    let c = cold.counts();
    assert_eq!((c.deterministic, c.nondeterministic), (7, 6));
}

/// The metadata suite replays from the baseline alone under
/// `model_metadata` (its own options fingerprint).
#[test]
fn baseline_alone_replays_the_metadata_suite() {
    let mut options = FleetOptions::default().with_jobs(2);
    options.analysis.model_metadata = true;
    let cold = assert_baseline_alone_replays("replay-metadata", options, metadata_jobs());
    let c = cold.counts();
    assert_eq!((c.deterministic, c.nondeterministic), (3, 3));
}

/// A verdict answered by a graph-key cache hit or a baseline replay
/// reports its diagnostics on the lines of the source that was asked
/// about, not those of the source first analyzed: with five blank lines
/// prepended to `ntp-nondet.pp`, the race moves from line 7 to line 12.
#[test]
fn hits_and_replays_anchor_diagnostics_on_the_edited_source() {
    let source = SUITE
        .iter()
        .find(|b| b.name == "ntp-nondet")
        .expect("ntp-nondet is bundled")
        .source;
    let job = |source: &str| FleetJob {
        name: "ntp-nondet.pp".to_string(),
        source: source.to_string(),
        platform: Platform::Ubuntu,
    };
    let shifted = format!("\n\n\n\n\n{source}");
    let race_line = |report: &FleetReport| {
        let race = report.rows[0]
            .diagnostics
            .iter()
            .find(|d| d.code == "R3001")
            .expect("a race diagnostic");
        race.span().lo.line
    };
    let cold = FleetEngine::new(FleetOptions::default()).run(vec![job(&shifted)]);
    assert_eq!(race_line(&cold), 12);

    // A graph-key hit in the verdict cache.
    let path = baseline_file("reanchor");
    let mut engine = FleetEngine::new(FleetOptions::default())
        .with_baseline(BaselineStore::open(&path).unwrap());
    let first = engine.run(vec![job(source)]);
    assert_eq!(race_line(&first), 7);
    engine.state().flush().unwrap();
    let hit = engine.run(vec![job(&shifted)]);
    // A replay from the baseline alone, in a fresh engine.
    let mut engine = FleetEngine::new(FleetOptions::default())
        .with_baseline(BaselineStore::open(&path).unwrap());
    let replay = engine.run(vec![job(&shifted)]);
    for (rung, report) in [("cache hit", &hit), ("baseline replay", &replay)] {
        assert!(report.rows[0].cached, "{rung}: answered without analysis");
        assert_eq!(race_line(report), 12, "{rung}");
        assert_eq!(
            report.rows[0].diagnostics, cold.rows[0].diagnostics,
            "{rung}: the diagnostics of a cold run"
        );
    }
}

/// The gate passes (exit 0) on a clean fleet.
#[test]
fn cli_fleet_passes_clean_fleet() {
    let dir = std::env::temp_dir()
        .join("rehearsal-fleet-it")
        .join("clean");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for b in SUITE.iter().filter(|b| b.deterministic) {
        std::fs::write(dir.join(format!("{}.pp", b.name)), b.source).unwrap();
    }
    let out = rehearsal()
        .args(["fleet", dir.to_str().unwrap(), "--jobs", "2"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("fleet is clean"), "{stdout}");
}

/// `--list` mode verifies exactly the listed manifests.
#[test]
fn cli_fleet_list_mode() {
    let dir = fleet_dir("list");
    let list = dir.join("fleet.list");
    std::fs::write(&list, "nginx.pp\nmonit.pp\n").unwrap();
    let out = rehearsal()
        .args([
            "fleet",
            "--list",
            list.to_str().unwrap(),
            "--jobs",
            "2",
            "--json",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let doc = parse_json(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");
    let counts = doc.get("counts").expect("counts");
    assert_eq!(counts.get("total").and_then(Json::as_u64), Some(2));
    assert_eq!(counts.get("deterministic").and_then(Json::as_u64), Some(2));
}

/// `check --json` shares the fleet serializer and carries the stats.
#[test]
fn cli_check_json() {
    let dir = fleet_dir("check-json");
    let ntp = rehearsal::benchmarks::by_name("ntp").unwrap();
    std::fs::write(dir.join("ntp.pp"), ntp.source).unwrap();
    let out = rehearsal()
        .args(["check", dir.join("ntp.pp").to_str().unwrap(), "--json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let doc = parse_json(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");
    assert_eq!(
        doc.get("verdict").and_then(Json::as_str),
        Some("deterministic")
    );
    assert_eq!(doc.get("idempotent").and_then(Json::as_bool), Some(true));
    let stats = doc.get("stats").expect("stats");
    assert!(stats.get("resources").and_then(Json::as_u64).unwrap() >= 3);

    let out = rehearsal()
        .args([
            "check",
            dir.join("ntp-nondet.pp").to_str().unwrap(),
            "--json",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let doc = parse_json(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("rehearsal-check/5")
    );
    assert_eq!(
        doc.get("verdict").and_then(Json::as_str),
        Some("nondeterministic")
    );
    assert_eq!(doc.get("idempotent"), Some(&Json::Null));
    // Schema 5: the race is also in the diagnostics array, source-anchored
    // and round-trippable through the documented encoding.
    let diags = doc
        .get("diagnostics")
        .and_then(Json::as_arr)
        .expect("diagnostics array");
    let race = diags
        .iter()
        .find(|d| d.get("code").and_then(Json::as_str) == Some("R3001"))
        .expect("race diagnostic");
    let decoded = rehearsal::fleet::diagnostic_from_json(race).expect("decodes");
    assert!(decoded.has_resolvable_span());
    assert_eq!(decoded.severity, rehearsal::Severity::Error);
    assert!(!decoded.secondary.is_empty(), "both declarations cited");
}

/// `benchmarks --json --timeout` emits one row per benchmark with the
/// per-benchmark deadline applied (all complete well within it).
#[test]
fn cli_benchmarks_json_with_timeout() {
    let out = rehearsal()
        .args(["benchmarks", "--json", "--timeout", "120"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let doc = parse_json(&stdout).expect("valid JSON");
    let rows = doc.get("benchmarks").and_then(Json::as_arr).expect("rows");
    assert_eq!(rows.len(), 13);
    assert!(rows
        .iter()
        .all(|r| r.get("expected").and_then(Json::as_bool) == Some(true)));
    assert_eq!(doc.get("all_expected").and_then(Json::as_bool), Some(true));
}

fn metadata_jobs() -> Vec<FleetJob> {
    METADATA_SUITE
        .iter()
        .map(|b| FleetJob {
            name: format!("{}.pp", b.name),
            source: b.source.to_string(),
            platform: Platform::Ubuntu,
        })
        .collect()
}

/// Pinned verdicts for the permission-race suite: with the metadata model
/// off the races are invisible (all six verify clean), with it on the
/// three `-nondet` manifests report NONDET and their `->`-fixed twins
/// stay deterministic *and* idempotent. The two configurations must not
/// share cache entries.
#[test]
fn metadata_suite_verdicts_are_pinned() {
    let mut engine = FleetEngine::new(FleetOptions::default().with_jobs(2));
    let plain = engine.run(metadata_jobs());
    for row in &plain.rows {
        assert_eq!(
            row.verdict,
            Verdict::Deterministic,
            "{}: metadata-only races must be invisible without the model",
            row.manifest
        );
    }
    assert!(plain.all_clean());

    let mut options = FleetOptions::default().with_jobs(2);
    options.analysis.model_metadata = true;
    let mut engine_meta = FleetEngine::new(options);
    let meta = engine_meta.run(metadata_jobs());
    assert_eq!(meta.rows.len(), 6);
    for (row, b) in meta.rows.iter().zip(METADATA_SUITE) {
        let expected = if b.deterministic_with_metadata {
            Verdict::Deterministic
        } else {
            Verdict::Nondeterministic
        };
        assert_eq!(row.verdict, expected, "{}", b.name);
        assert!(
            !row.cached,
            "{}: distinct options must miss the cache",
            b.name
        );
    }
    let c = meta.counts();
    assert_eq!((c.deterministic, c.nondeterministic), (3, 3));
    assert!(!meta.all_clean(), "the races gate the fleet");
    // Warm rerun under the same options is all hits, with the cold
    // verdicts.
    let warm = engine_meta.run(metadata_jobs());
    assert_eq!(warm.counts().cached, 6);
    for (w, c) in warm.rows.iter().zip(&meta.rows) {
        assert_eq!(w.verdict, c.verdict, "{}", w.manifest);
    }
}

/// The CLI gate with `--model-metadata`: exits non-zero on the race suite
/// and reports the 3/3 split; without the flag the same directory passes.
#[test]
fn cli_fleet_model_metadata_gate() {
    let dir = std::env::temp_dir()
        .join("rehearsal-fleet-it")
        .join("metadata");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for b in METADATA_SUITE {
        std::fs::write(dir.join(format!("{}.pp", b.name)), b.source).unwrap();
    }
    let out = rehearsal()
        .args(["fleet", dir.to_str().unwrap(), "--jobs", "2", "--json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "clean without the metadata model");

    let out = rehearsal()
        .args([
            "fleet",
            dir.to_str().unwrap(),
            "--jobs",
            "2",
            "--json",
            "--model-metadata",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "races fail the gate");
    let doc = parse_json(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");
    let counts = doc.get("counts").expect("counts");
    assert_eq!(counts.get("deterministic").and_then(Json::as_u64), Some(3));
    assert_eq!(
        counts.get("nondeterministic").and_then(Json::as_u64),
        Some(3)
    );
}

/// `check --json --model-metadata` reports schema 5 with the metadata
/// counters, and the counterexample replays as two succeeding orders.
#[test]
fn cli_check_json_metadata_schema() {
    let dir = std::env::temp_dir()
        .join("rehearsal-fleet-it")
        .join("metadata-check");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let b = METADATA_SUITE
        .iter()
        .find(|b| b.name == "webroot-perms-nondet")
        .unwrap();
    let path = dir.join("webroot-perms-nondet.pp");
    std::fs::write(&path, b.source).unwrap();

    let out = rehearsal()
        .args([
            "check",
            path.to_str().unwrap(),
            "--json",
            "--model-metadata",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let doc = parse_json(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("rehearsal-check/5")
    );
    assert_eq!(
        doc.get("model_metadata").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(
        doc.get("verdict").and_then(Json::as_str),
        Some("nondeterministic")
    );
    let stats = doc.get("stats").expect("stats");
    assert!(stats.get("meta_ops").and_then(Json::as_u64).unwrap() >= 2);
    assert!(
        stats
            .get("meta_tracked_paths")
            .and_then(Json::as_u64)
            .unwrap()
            >= 1
    );

    // Without the flag the same manifest is clean and reports zero
    // metadata counters (the model is off, schema stays 5).
    let out = rehearsal()
        .args(["check", path.to_str().unwrap(), "--json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let doc = parse_json(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");
    assert_eq!(
        doc.get("model_metadata").and_then(Json::as_bool),
        Some(false)
    );
    let stats = doc.get("stats").expect("stats");
    assert_eq!(stats.get("meta_ops").and_then(Json::as_u64), Some(0));
    assert_eq!(
        stats.get("meta_tracked_paths").and_then(Json::as_u64),
        Some(0)
    );
}

/// The scratch fleet directory layout is discovered recursively.
#[test]
fn discovery_is_recursive() {
    let dir = fleet_dir("nested");
    let sub = dir.join("roles/web");
    std::fs::create_dir_all(&sub).unwrap();
    std::fs::write(sub.join("extra.pp"), "file { '/etc/motd': content => 'x' }").unwrap();
    let found = rehearsal::fleet::discover_manifests(&dir).unwrap();
    assert_eq!(found.len(), 14);
    assert!(found
        .iter()
        .any(|p| p.ends_with(Path::new("roles/web/extra.pp"))));
}
