//! Integration tests for the observability layer: tracing must never
//! change verdicts, disabled-mode overhead stays within noise, and trace
//! output is deterministic modulo timestamps.
//!
//! The tests in this file run one at a time (see [`serial`]): the arena
//! gauges are process-global, so a test that interns a whole suite on
//! another thread would change them between two runs that must agree.

use rehearsal::benchmarks::{by_name, METADATA_SUITE, SUITE};
use rehearsal::fleet::{
    parse_json, BaselineStore, FleetEngine, FleetJob, FleetOptions, Json, Verdict,
};
use rehearsal::trace::{Session, TraceSnapshot};
use rehearsal::{Platform, Rehearsal};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Holds every test in this file to one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs the full verify pipeline on `source` in a fresh thread with its
/// own trace session, returning the session's snapshot. The fresh thread
/// gives every run the same thread-local world (tid 0, no inherited
/// session), so two calls are structurally comparable.
fn verify_traced(source: &'static str) -> TraceSnapshot {
    std::thread::spawn(move || {
        let session = Session::new();
        let _guard = session.install();
        let tool = Rehearsal::new(Platform::Ubuntu);
        let _ = tool.verify_source("bench.pp", source);
        session.snapshot()
    })
    .join()
    .expect("analysis thread panicked")
}

/// One span's timestamp-free skeleton: name, category, parent name.
type SpanShape = (String, String, Option<String>);

/// The timestamp-free skeleton of a snapshot: span names, categories, and
/// parent links (by name), plus sampled event names, in order.
fn shape(snap: &TraceSnapshot) -> (Vec<SpanShape>, Vec<String>) {
    let name_of = |id: u64| {
        snap.spans
            .iter()
            .find(|s| s.id == id)
            .map(|s| s.name.to_string())
    };
    let spans = snap
        .spans
        .iter()
        .map(|s| (s.name.to_string(), s.cat.to_string(), name_of(s.parent)))
        .collect();
    let events = snap.events.iter().map(|e| e.name.to_string()).collect();
    (spans, events)
}

/// Two identical runs produce identical trace structure and metrics —
/// everything but the timestamps. (A warmup run first levels the
/// process-global caches: the arena and the structural memos are
/// append-only, so after warmup both measured runs see the same world.)
#[test]
fn trace_output_is_deterministic_modulo_timestamps() {
    let _serial = serial();
    let source = by_name("ntp-nondet").expect("bundled benchmark").source;
    let _warmup = verify_traced(source);
    let a = verify_traced(source);
    let b = verify_traced(source);

    assert_eq!(shape(&a), shape(&b), "span/event structure must be stable");
    // The interning arena is process-global, so its *hit* counters keep
    // climbing run over run by design; every other metric — including the
    // arena's node counts, which stop growing once the warmup interned
    // everything — must be bit-identical.
    let stable = |m: &rehearsal::trace::MetricsSnapshot| {
        (
            m.counters()
                .map(|(k, v)| (k.to_string(), v))
                .collect::<Vec<_>>(),
            m.gauges()
                .filter(|(k, _)| !k.ends_with("_dedup_hits"))
                .map(|(k, v)| (k.to_string(), v))
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(
        stable(&a.metrics),
        stable(&b.metrics),
        "metrics must be bit-identical"
    );
    assert!(
        !a.spans.is_empty(),
        "the pipeline must have recorded phase spans"
    );
    assert!(
        a.metrics.counter("explore.sequences").unwrap_or(0) > 0,
        "explorer work must be visible in the registry"
    );
}

/// The Chrome trace-event export is valid JSON with the documented shape.
#[test]
fn chrome_trace_export_shape() {
    let _serial = serial();
    let source = by_name("ntp").expect("bundled benchmark").source;
    let snap = verify_traced(source);
    let doc = parse_json(&snap.to_chrome_trace()).expect("valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    for e in events {
        assert!(e.get("name").and_then(Json::as_str).is_some());
        assert!(e.get("ph").and_then(Json::as_str).is_some());
        assert!(e.get("ts").is_some());
    }
    assert!(
        events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("explore")),
        "the explore phase must appear in the profile"
    );
    assert!(doc.get("rehearsalMetrics").is_some(), "metrics ride along");
}

/// With tracing fully enabled, every bundled verdict is unchanged: the
/// paper suite stays 7 deterministic / 6 nondeterministic and the
/// metadata suite stays 3/3 — observability is read-only.
#[test]
fn verdicts_are_identical_under_tracing() {
    let _serial = serial();
    let session = Session::new();
    let _guard = session.install();

    let mut engine = FleetEngine::new(FleetOptions::default().with_jobs(2));
    let report = engine.run(
        SUITE
            .iter()
            .map(|b| FleetJob {
                name: format!("{}.pp", b.name),
                source: b.source.to_string(),
                platform: Platform::Ubuntu,
            })
            .collect(),
    );
    for (row, b) in report.rows.iter().zip(SUITE) {
        let expected = if b.deterministic {
            Verdict::Deterministic
        } else {
            Verdict::Nondeterministic
        };
        assert_eq!(row.verdict, expected, "{}", b.name);
        assert!(
            !row.phases.is_empty(),
            "{}: traced rows carry phase timings",
            b.name
        );
    }
    let c = report.counts();
    assert_eq!((c.deterministic, c.nondeterministic), (7, 6));
    assert!(
        report.metrics.counter("explore.sequences").unwrap_or(0) > 0,
        "per-job metrics aggregate into the report"
    );
    assert_eq!(report.metrics.counter("fleet.jobs"), Some(13));

    let mut options = FleetOptions::default().with_jobs(2);
    options.analysis.model_metadata = true;
    let meta = FleetEngine::new(options).run(
        METADATA_SUITE
            .iter()
            .map(|b| FleetJob {
                name: format!("{}.pp", b.name),
                source: b.source.to_string(),
                platform: Platform::Ubuntu,
            })
            .collect(),
    );
    let c = meta.counts();
    assert_eq!((c.deterministic, c.nondeterministic), (3, 3));
}

/// Fleet runs report which store answered their rows as `incremental.*`
/// counters in the report's metrics (and therefore in any installed
/// trace session's registry): `graph_hits` for the verdict cache and
/// `baseline_hits` for the baseline pins.
#[test]
fn incremental_metrics_ride_the_fleet_report() {
    let _serial = serial();
    let trio = "file { '/etc/motd': content => 'a' }\n\
                file { '/srv/app.conf': content => 'b' }\n\
                file { '/var/banner': content => 'c' }";
    let job = || FleetJob {
        name: "trio.pp".to_string(),
        source: trio.to_string(),
        platform: Platform::Ubuntu,
    };
    let dir = std::env::temp_dir().join("rehearsal-obs-incremental");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("baseline.jsonl");
    let _ = std::fs::remove_file(&path);
    let counters = |report: &rehearsal::fleet::FleetReport| {
        (
            report.metrics.counter("incremental.graph_hits"),
            report.metrics.counter("incremental.baseline_hits"),
        )
    };

    let mut cold_engine = FleetEngine::new(FleetOptions::default().with_jobs(1))
        .with_baseline(BaselineStore::open(&path).unwrap());
    let cold = cold_engine.run(vec![job()]);
    assert_eq!(counters(&cold), (Some(0), Some(0)), "analyzed cold");
    cold_engine.state().flush().unwrap();

    // A fresh engine with only the baseline replays the pin, which also
    // fills its verdict cache for the next run.
    let mut engine = FleetEngine::new(FleetOptions::default().with_jobs(1))
        .with_baseline(BaselineStore::open(&path).unwrap());
    let replayed = engine.run(vec![job()]);
    assert_eq!(counters(&replayed), (Some(0), Some(1)));
    let hit = engine.run(vec![job()]);
    assert_eq!(counters(&hit), (Some(1), Some(0)));
    for gone in [
        "incremental.resources_clean",
        "incremental.resources_dirty",
        "incremental.pairs_reused",
    ] {
        assert_eq!(hit.metrics.counter(gone), None, "{gone}");
    }
}

/// Disabled tracing (no session installed) must cost nothing measurable:
/// each instrumentation site is a single relaxed atomic load. The bound
/// is deliberately loose — this suite runs on loaded single-core CI
/// machines — and exists to catch gross regressions (e.g. an always-on
/// mutex on the hot path), not to measure the real overhead; the
/// `obs_overhead` bench does that.
#[test]
fn disabled_tracing_overhead_is_in_the_noise() {
    let _serial = serial();
    let source = by_name("ntp").expect("bundled benchmark").source;
    let run = |traced: bool| -> Duration {
        let mut times = Vec::new();
        for _ in 0..3 {
            let start = Instant::now();
            let session = traced.then(Session::new);
            let _guard = session.as_ref().map(Session::install);
            let tool = Rehearsal::new(Platform::Ubuntu);
            let _ = tool.verify_source("ntp.pp", source);
            times.push(start.elapsed());
        }
        times.sort();
        times[1] // median of 3
    };
    run(false); // warmup (arena, memos, lazy package DB)
    let disabled = run(false);
    let enabled = run(true);
    assert!(
        disabled < enabled * 3 + Duration::from_millis(250),
        "disabled tracing should not be slower than enabled \
         (disabled {disabled:?}, enabled {enabled:?})"
    );
}

/// `explore` is attributed to its children: `domain` (the bounded domain
/// and the initial symbolic state), `search` (the explorer) and `decode`
/// (the counterexample's initial state); `search` in turn to `commute`
/// (the partial-order reduction's commutativity masks), `step` (one
/// resource's symbolic effect and the state's key) and `solve`. On
/// logstash-nondet, the slowest pinned manifest, each set of children
/// covers at least 90% of its parent. `idempotence` is attributed the
/// same way on hosting, whose
/// three components all certify: `components` (the footprint partition
/// and each component's sequence) and `certify`.
#[test]
fn explore_children_cover_the_explore_span() {
    let _serial = serial();
    let source = by_name("logstash-nondet")
        .expect("bundled benchmark")
        .source;
    let snap = verify_traced(source);
    assert_children_cover(&snap, "explore", &["domain", "search", "decode"]);
    // The search itself: the commutativity masks partial-order reduction
    // reads, symbolic steps, and solver calls.
    let share = assert_children_cover(&snap, "search", &["commute", "step", "solve"]);
    println!("search children cover {:.1}% of search", share * 100.0);
    // The idempotence phase of a deterministic manifest whose components
    // all certify: partitioning plus the certificates are the whole of it.
    let source = by_name("hosting").expect("bundled benchmark").source;
    assert_children_cover(
        &verify_traced(source),
        "idempotence",
        &["components", "certify"],
    );
}

/// Every child of a `parent` span is one of `names`, each name occurs, and
/// together the children cover at least 90% of the parent's time, the
/// share returned.
fn assert_children_cover(snap: &TraceSnapshot, parent: &str, names: &[&str]) -> f64 {
    let parents: Vec<_> = snap.spans.iter().filter(|s| s.name == parent).collect();
    assert!(!parents.is_empty(), "{parent} span");
    let total: u64 = parents.iter().map(|s| s.dur_us).sum();
    let children: u64 = snap
        .spans
        .iter()
        .filter(|s| parents.iter().any(|p| p.id == s.parent))
        .inspect(|s| assert!(names.contains(&s.name), "{} under {parent}", s.name))
        .map(|s| s.dur_us)
        .sum();
    for name in names {
        assert!(snap.spans.iter().any(|s| s.name == *name), "{name} span");
    }
    assert!(
        children * 10 >= total * 9,
        "children of {parent} cover {children} of {total} µs"
    );
    children as f64 / total as f64
}
