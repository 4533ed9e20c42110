//! Integration tests for `rehearsal serve` and `rehearsal coverage`:
//! concurrent-request verdict parity with the batch CLI, warm-repeat
//! memoization, graceful shutdown with a verified history chain,
//! torn-tail crash recovery, signal-driven shutdown of the `serve`
//! binary, watch-mode drift detection, the coverage gate's exit codes,
//! and memo answers that match the pins and settle like engine runs.

mod support;

use rehearsal::benchmarks::{METADATA_SUITE, SUITE};
use rehearsal::fleet::{Json, StateDir};
use rehearsal::serve::http::http_request;
use rehearsal::serve::http::Request;
use rehearsal::serve::{verify_chain, ServeOptions, Server, Service, HISTORY_FILE};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

const DET: &str = "file { '/a': content => 'x' }\n";
const NONDET: &str = "file { '/a': content => 'x' }\nfile { 'b': path => '/a', content => 'y' }\n";

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rehearsal-serve-test-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Binds an ephemeral-port server and runs it on a background thread.
fn spawn(options: ServeOptions) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        ..options
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    (addr, std::thread::spawn(move || server.run()))
}

fn shutdown(addr: &str, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    let (status, _) = http_request(addr, "POST", "/v1/shutdown", "").unwrap();
    assert_eq!(status, 200);
    handle.join().unwrap().unwrap();
}

fn check_request(addr: &str, body: &Json) -> Json {
    let (status, response) = http_request(addr, "POST", "/v1/check", &body.render()).unwrap();
    assert_eq!(status, 200, "check failed: {response}");
    rehearsal::fleet::parse_json(&response).expect("check response is JSON")
}

fn field<'a>(doc: &'a Json, path: &[&str]) -> &'a Json {
    let mut cursor = doc;
    for key in path {
        cursor = cursor.get(key).unwrap_or_else(|| panic!("missing {key}"));
    }
    cursor
}

fn run_us(doc: &Json) -> f64 {
    match field(doc, &["serve", "run_us"]) {
        Json::Num(us) => *us,
        other => panic!("run_us is not a number: {other:?}"),
    }
}

/// Acceptance pin: N threads hammering `/v1/check` with both bundled
/// suites (including `--model-metadata` and `--threads 2` variants)
/// return exactly the verdicts the batch CLI pins (7 det / 6 nondet;
/// metadata 3/3), and a byte-identical repeat is served warm from the
/// resident core — `cache_hit` with strictly lower latency.
#[test]
fn concurrent_requests_match_batch_verdicts_and_repeat_warm() {
    let (addr, handle) = spawn(ServeOptions::default());
    let threads: Vec<_> = (0..4)
        .map(|lane| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                for b in SUITE.iter().skip(lane).step_by(4) {
                    let doc = check_request(
                        &addr,
                        &Json::obj([
                            ("manifest", Json::str(format!("{}.pp", b.name))),
                            ("source", Json::str(b.source)),
                            ("threads", Json::num(2u32)),
                        ]),
                    );
                    let expected = if b.deterministic {
                        "deterministic"
                    } else {
                        "nondeterministic"
                    };
                    assert_eq!(
                        doc.get("verdict").and_then(Json::as_str),
                        Some(expected),
                        "{} under concurrent load",
                        b.name
                    );
                }
                for b in METADATA_SUITE.iter().skip(lane).step_by(4) {
                    let doc = check_request(
                        &addr,
                        &Json::obj([
                            ("manifest", Json::str(format!("{}.pp", b.name))),
                            ("source", Json::str(b.source)),
                            ("model_metadata", Json::Bool(true)),
                        ]),
                    );
                    let expected = if b.deterministic_with_metadata {
                        "deterministic"
                    } else {
                        "nondeterministic"
                    };
                    assert_eq!(
                        doc.get("verdict").and_then(Json::as_str),
                        Some(expected),
                        "{} with the metadata model",
                        b.name
                    );
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    // Warm repeat: byte-identical request must come from the resident
    // memo (no re-lowering), visibly faster, with the counter moving.
    let body = Json::obj([
        ("manifest", Json::str("warm.pp")),
        ("source", Json::str(DET)),
    ]);
    let cold = check_request(&addr, &body);
    assert_eq!(
        field(&cold, &["serve", "cache_hit"]).as_bool(),
        Some(false),
        "first sighting is cold"
    );
    let warm = check_request(&addr, &body);
    assert_eq!(field(&warm, &["serve", "cache_hit"]).as_bool(), Some(true));
    assert_eq!(warm.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(
        warm.get("verdict").and_then(Json::as_str),
        cold.get("verdict").and_then(Json::as_str),
        "warm verdict is bit-identical"
    );
    assert!(
        run_us(&warm) < run_us(&cold),
        "warm repeat must be strictly faster ({} vs {} µs)",
        run_us(&warm),
        run_us(&cold)
    );
    let (status, metrics) = http_request(&addr, "GET", "/v1/metrics", "").unwrap();
    assert_eq!(status, 200);
    let hits = metrics
        .lines()
        .find(|l| l.starts_with("rehearsal_serve_cache_hits_total"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("cache-hit counter exported");
    assert!(hits >= 1, "cache-hit counter moved");
    shutdown(&addr, handle);
}

#[test]
fn shutdown_flushes_state_and_seals_the_history_chain() {
    let state_dir = temp_dir("shutdown");
    let (addr, handle) = spawn(ServeOptions {
        state_dir: Some(state_dir.clone()),
        ..ServeOptions::default()
    });
    let doc = check_request(
        &addr,
        &Json::obj([("manifest", Json::str("m.pp")), ("source", Json::str(DET))]),
    );
    assert_eq!(
        doc.get("verdict").and_then(Json::as_str),
        Some("deterministic")
    );
    shutdown(&addr, handle);

    // The drained daemon flushed the verdict cache…
    let reloaded = StateDir::open(&state_dir).unwrap();
    assert!(reloaded.cache_len() >= 1, "verdict cache persisted");
    assert!(reloaded.baseline_len() >= 1, "baseline persisted");
    // …and the history chain is whole, ending in the shutdown record.
    let history = state_dir.join(HISTORY_FILE);
    let report = verify_chain(&history).unwrap();
    assert!(report.valid >= 3, "start + check + shutdown at minimum");
    assert!(!report.torn, "no torn JSONL lines after a clean drain");
    let text = std::fs::read_to_string(&history).unwrap();
    assert!(
        text.lines().last().unwrap().contains("\"shutdown\""),
        "chain ends with the shutdown record"
    );
}

/// SIGTERM reaches a daemon blocked in `accept`: the signal watcher
/// wakes the loop, and the process drains, seals its history and exits
/// 0 well within the drain grace.
#[cfg(unix)]
#[test]
fn sigterm_drains_the_serve_binary_and_seals_the_history() {
    use rehearsal::serve::server::DRAIN_GRACE;
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    extern "C" {
        fn kill(pid: i32, signal: i32) -> i32;
    }
    const SIGTERM: i32 = 15;

    let state_dir = temp_dir("sigterm");
    let mut child = Command::new(env!("CARGO_BIN_EXE_rehearsal"))
        .args(["serve", "--addr", "127.0.0.1:0", "--state-dir"])
        .arg(&state_dir)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rehearsal serve");
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut line = String::new();
    let addr = loop {
        line.clear();
        assert!(
            stderr.read_line(&mut line).unwrap() > 0,
            "serve exited before listening"
        );
        if let Some(rest) = line.split("listening on http://").nth(1) {
            break rest.split_whitespace().next().unwrap().to_string();
        }
    };
    let doc = check_request(
        &addr,
        &Json::obj([("manifest", Json::str("m.pp")), ("source", Json::str(DET))]),
    );
    assert_eq!(
        doc.get("verdict").and_then(Json::as_str),
        Some("deterministic")
    );

    let pid = i32::try_from(child.id()).unwrap();
    // SAFETY: `kill` takes two plain integers and touches no memory of
    // this process; `pid` is our own child, not yet reaped, so it cannot
    // name another process.
    assert_eq!(unsafe { kill(pid, SIGTERM) }, 0);
    let deadline = Instant::now() + DRAIN_GRACE;
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            panic!("serve did not exit within {DRAIN_GRACE:?} of SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(status.success(), "drained exit is 0, got {status}");

    let history = state_dir.join(HISTORY_FILE);
    let report = verify_chain(&history).unwrap();
    assert!(!report.torn, "no torn JSONL lines after a signal drain");
    let text = std::fs::read_to_string(&history).unwrap();
    assert!(
        text.lines().last().unwrap().contains("\"shutdown\""),
        "chain ends with the shutdown record"
    );
}

#[test]
fn torn_history_tail_degrades_to_cold_on_restart() {
    let state_dir = temp_dir("torn");
    let (addr, handle) = spawn(ServeOptions {
        state_dir: Some(state_dir.clone()),
        ..ServeOptions::default()
    });
    let _ = check_request(
        &addr,
        &Json::obj([("manifest", Json::str("m.pp")), ("source", Json::str(DET))]),
    );
    shutdown(&addr, handle);

    // Simulate a crash mid-append: half a record, no trailing newline.
    let history = state_dir.join(HISTORY_FILE);
    let sealed = verify_chain(&history).unwrap().valid;
    let mut text = std::fs::read_to_string(&history).unwrap();
    text.push_str("{\"schema\":\"rehearsal-history/1\",\"seq\":99,\"pr");
    std::fs::write(&history, &text).unwrap();
    assert!(verify_chain(&history).unwrap().torn);

    // Restart on the same state dir: the torn tail truncates (matching
    // the stores' corrupt-line policy) and the chain resumes.
    let (addr, handle) = spawn(ServeOptions {
        state_dir: Some(state_dir.clone()),
        ..ServeOptions::default()
    });
    let (status, _) = http_request(&addr, "GET", "/v1/healthz", "").unwrap();
    assert_eq!(status, 200);
    shutdown(&addr, handle);
    let report = verify_chain(&history).unwrap();
    assert!(!report.torn, "restart healed the chain");
    assert!(
        report.valid >= sealed + 2,
        "the new start/shutdown records extend the recovered prefix"
    );
}

fn coverage_value(addr: &str, key: &str) -> u64 {
    let (status, body) = http_request(addr, "GET", "/v1/coverage", "").unwrap();
    assert_eq!(status, 200);
    let doc = rehearsal::fleet::parse_json(&body).unwrap();
    doc.get(key).and_then(Json::as_u64).unwrap_or_default()
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn coverage_cmd(args: &[&str]) -> std::process::ExitStatus {
    Command::new(env!("CARGO_BIN_EXE_rehearsal"))
        .arg("coverage")
        .args(args)
        .output()
        .expect("spawn rehearsal coverage")
        .status
}

fn write_manifest(dir: &Path, source: &str) {
    std::fs::write(dir.join("site.pp"), source).unwrap();
}

#[test]
fn watch_mode_flags_drift_and_the_gate_exits_nonzero() {
    let fleet_dir = temp_dir("watch-fleet");
    let state_dir = temp_dir("watch-state");
    write_manifest(&fleet_dir, DET);
    let (addr, handle) = spawn(ServeOptions {
        state_dir: Some(state_dir),
        watch: Some(fleet_dir.clone()),
        poll_ms: 50,
        ..ServeOptions::default()
    });

    // The first scan verifies the fleet and adopts pins.
    wait_until("initial watch verification", || {
        coverage_value(&addr, "verified") >= 1
    });
    assert!(
        coverage_cmd(&["--addr", &addr]).success(),
        "clean fleet gates green over HTTP"
    );

    // Inject DET→NONDET drift under watch.
    write_manifest(&fleet_dir, NONDET);
    wait_until("drift detection", || coverage_value(&addr, "drifted") >= 1);
    let gate = coverage_cmd(&["--addr", &addr]);
    assert_eq!(gate.code(), Some(1), "drift exits non-zero");
    shutdown(&addr, handle);
}

#[test]
fn offline_gate_pin_drift_repin_cycle() {
    let dir = temp_dir("gate-cycle");
    write_manifest(&dir, DET);
    let dir_arg = dir.display().to_string();
    let baseline = dir.join("pins.jsonl").display().to_string();

    let pin = ["--baseline", &baseline, "--pin"];
    let gate = ["--baseline", &baseline];
    assert!(
        coverage_cmd(&[&[dir_arg.as_str()], &pin[..]].concat()).success(),
        "initial pin passes"
    );
    assert!(
        coverage_cmd(&[&[dir_arg.as_str()], &gate[..]].concat()).success(),
        "unchanged tree gates clean"
    );

    write_manifest(&dir, NONDET);
    assert_eq!(
        coverage_cmd(&[&[dir_arg.as_str()], &gate[..]].concat()).code(),
        Some(1),
        "DET→NONDET drift exits 1"
    );
    assert_eq!(
        coverage_cmd(&[&[dir_arg.as_str()], &gate[..]].concat()).code(),
        Some(1),
        "gate never silently re-pins"
    );
    assert!(
        coverage_cmd(&[&[dir_arg.as_str()], &pin[..]].concat()).success(),
        "re-pin accepts the new verdict"
    );
    assert!(
        coverage_cmd(&[&[dir_arg.as_str()], &gate[..]].concat()).success(),
        "re-pinned baseline gates clean again"
    );
}

/// One `/v1/check` through [`Service::handle`], with no transport.
fn post_check(service: &Service, manifest: &str, source: &str, metadata: bool) -> Json {
    let body = Json::obj([
        ("manifest", Json::str(manifest)),
        ("source", Json::str(source)),
        ("model_metadata", Json::Bool(metadata)),
    ]);
    let response = service.handle(&Request {
        method: "POST".to_string(),
        path: "/v1/check".to_string(),
        body: body.render().into_bytes(),
    });
    assert_eq!(response.status, 200, "{}", response.body);
    rehearsal::fleet::parse_json(&response.body).expect("check response is JSON")
}

/// Two clients share one service and send repeats, reformats (a comment
/// plus a re-indent, answered through the AST memo key) and fresh
/// manifests with renamed literals over all 25 pinned manifests, in
/// different orders. Every answer equals its pin.
#[test]
fn racing_repeats_reformats_and_renames_all_get_their_pinned_verdicts() {
    let service = std::sync::Arc::new(Service::new(ServeOptions::default()).unwrap());
    let clients: Vec<_> = (0..2u64)
        .map(|c| {
            let service = std::sync::Arc::clone(&service);
            std::thread::spawn(move || {
                let manifests = support::pinned();
                let mut rng = support::Prng::new(40 + c);
                let mut order: Vec<usize> = (0..manifests.len()).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.usize(i + 1));
                }
                let (mut memo_hits, mut reformat_hits) = (0, 0);
                for (n, &i) in order.iter().enumerate() {
                    let m = manifests[i];
                    let tag = format!("c{c}-{n}");
                    let reformatted = support::reindent(
                        &support::comment_edit(m.source, rng.usize(1000), &tag),
                        1 + rng.usize(6),
                    );
                    let fresh_name = format!("{}--f{tag}", m.name);
                    let fresh = support::rename_literals(m.source, &format!("-f{tag}"));
                    let requests = [
                        ("repeat", m.name, m.source.to_string()),
                        ("reformat", m.name, reformatted),
                        ("repeat", m.name, m.source.to_string()),
                        ("fresh", fresh_name.as_str(), fresh),
                    ];
                    for (kind, name, source) in requests {
                        let doc = post_check(&service, name, &source, m.metadata);
                        assert_eq!(
                            doc.get("verdict").and_then(Json::as_str),
                            Some(m.verdict),
                            "client {c}: {kind} of {name}"
                        );
                        let hit = field(&doc, &["serve", "cache_hit"]).as_bool();
                        memo_hits += usize::from(hit == Some(true));
                        reformat_hits += usize::from(kind == "reformat" && hit == Some(true));
                    }
                }
                (memo_hits, reformat_hits)
            })
        })
        .collect();
    for client in clients {
        let (memo_hits, reformat_hits) = client.join().unwrap();
        // The second repeat of every manifest is a memo hit, and so is
        // every reformat.
        assert!(memo_hits >= 50, "{memo_hits} memo hits");
        assert_eq!(reformat_hits, 25);
    }
}

/// A memo hit is settled like an engine run: its drift is computed
/// against the pin, it updates the coverage rollup, and it leaves a
/// `check` history record. Sequence: the original, a racing edit, the
/// racing edit again (a raw-key memo hit) and the original reformatted
/// (an AST-key memo hit).
#[test]
fn a_memo_hit_settles_drift_coverage_and_history() {
    let dir = temp_dir("memo-settle");
    let service = Service::new(ServeOptions {
        state_dir: Some(dir.clone()),
        ..ServeOptions::default()
    })
    .unwrap();
    let reformatted = "# reformatted\nfile { '/a':\n    content => 'x',\n}\n";
    let steps = [
        (DET, "deterministic", false, false),
        (NONDET, "nondeterministic", false, true),
        (NONDET, "nondeterministic", true, true),
        (reformatted, "deterministic", true, false),
    ];
    for (i, (source, verdict, hit, drift)) in steps.into_iter().enumerate() {
        let doc = post_check(&service, "s.pp", source, false);
        assert_eq!(
            doc.get("verdict").and_then(Json::as_str),
            Some(verdict),
            "step {i}"
        );
        assert_eq!(
            field(&doc, &["serve", "cache_hit"]).as_bool(),
            Some(hit),
            "step {i}"
        );
        assert_eq!(
            field(&doc, &["serve", "drift"]).as_bool(),
            Some(drift),
            "step {i}"
        );
        let coverage = service.coverage_doc();
        let row = &field(&coverage, &["rows"]).as_arr().unwrap()[0];
        assert_eq!(
            row.get("verdict").and_then(Json::as_str),
            Some(verdict),
            "step {i}"
        );
        assert_eq!(
            row.get("drift").and_then(Json::as_bool),
            Some(drift),
            "step {i}"
        );
        assert_eq!(
            coverage.get("drifted").and_then(Json::as_u64),
            Some(u64::from(drift)),
            "step {i}"
        );
    }
    let history = std::fs::read_to_string(dir.join(HISTORY_FILE)).unwrap();
    let events: Vec<String> = history
        .lines()
        .map(|line| {
            let record = rehearsal::fleet::parse_json(line).unwrap();
            record
                .get("event")
                .and_then(Json::as_str)
                .unwrap()
                .to_string()
        })
        .collect();
    let count = |event: &str| events.iter().filter(|e| *e == event).count();
    assert_eq!(count("check"), 4, "{events:?}");
    assert_eq!(count("drift"), 2, "{events:?}");
}

/// `rehearsal check --json` and a cold `/v1/check` render one document:
/// on all 25 pinned manifests, a parse error, an evaluation error and an
/// aborted analysis, the two agree on everything but the keys that
/// describe the run rather than the answer.
#[test]
fn check_and_a_cold_serve_request_return_one_document() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut inputs: Vec<(PathBuf, bool, bool)> = Vec::new();
    for (dir, metadata) in [("benchmarks", false), ("benchmarks-metadata", true)] {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(root.join(dir))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "pp"))
            .collect();
        paths.sort();
        inputs.extend(paths.into_iter().map(|p| (p, metadata, false)));
    }
    assert_eq!(inputs.len(), 25, "the pinned manifests");
    let dir = temp_dir("one-document");
    for (name, source) in [
        ("parse-error.pp", "file { '/a' content => 'x' }\n"),
        ("eval-error.pp", "file { '/a': content => $missing }\n"),
    ] {
        std::fs::write(dir.join(name), source).unwrap();
        inputs.push((dir.join(name), false, false));
    }
    inputs.push((root.join("benchmarks/hosting.pp"), false, true));

    let volatile = ["manifest", "phases", "metrics", "serve", "cached", "reuse"];
    let strip = |doc: Json| match doc {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .into_iter()
                .filter(|(k, _)| !volatile.contains(&k.as_str()))
                .collect(),
        ),
        other => panic!("not an object: {other:?}"),
    };
    let mut verdicts = Vec::new();
    for (path, metadata, timeout) in inputs {
        let mut cli = Command::new(env!("CARGO_BIN_EXE_rehearsal"));
        cli.arg("check").arg(&path).arg("--json");
        if metadata {
            cli.arg("--model-metadata");
        }
        if timeout {
            cli.args(["--timeout", "0"]);
        }
        let out = cli.output().expect("binary runs");
        let printed = rehearsal::fleet::parse_json(&String::from_utf8_lossy(&out.stdout))
            .unwrap_or_else(|e| panic!("{}: {e:?}", path.display()));

        let mut body = vec![
            ("manifest", Json::str(path.display().to_string())),
            ("source", Json::str(std::fs::read_to_string(&path).unwrap())),
            ("model_metadata", Json::Bool(metadata)),
        ];
        if timeout {
            body.push(("timeout_s", Json::num(0)));
        }
        let service = Service::new(ServeOptions::default()).unwrap();
        let response = service.handle(&Request {
            method: "POST".to_string(),
            path: "/v1/check".to_string(),
            body: Json::obj(body).render().into_bytes(),
        });
        let served = rehearsal::fleet::parse_json(&response.body).expect("JSON response");
        assert_eq!(
            field(&served, &["serve", "cache_hit"]),
            &Json::Bool(false),
            "a cold request"
        );
        verdicts.push(field(&printed, &["verdict"]).as_str().unwrap().to_string());
        assert_eq!(
            strip(printed),
            strip(served),
            "{} (metadata {metadata}, timeout {timeout})",
            path.display()
        );
    }
    assert_eq!(
        verdicts[25..],
        ["error", "error", "timeout"],
        "the failure inputs"
    );
}
