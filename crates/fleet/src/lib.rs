//! **rehearsal-fleet** — parallel batch verification for Rehearsal.
//!
//! Rehearsal verifies one manifest at a time; real deployments hold
//! hundreds across platforms and want a CI gate over all of them. This
//! crate turns the single-shot pipeline into a batch engine:
//!
//! * [`discover_manifests`] / [`read_manifest_list`] — find the fleet's
//!   `.pp` files (directory walk, or an explicit list file);
//! * [`FleetEngine`] — a work-stealing parallel scheduler over scoped
//!   threads running the full determinism + idempotence pipeline per
//!   `(manifest, platform)` job, with per-job deadlines and cooperative
//!   cancellation ([`rehearsal_core::CancelToken`]);
//! * [`VerdictCache`] — a content-addressed verdict cache keyed by
//!   `hash(graph_digest, platform, AnalysisOptions)` — the canonical
//!   structural digest of the lowered graph, so formatting, comment,
//!   reorder, and rename edits still hit warm — with an on-disk JSONL
//!   store;
//! * [`BaselineStore`] — the verdict pins (`--baseline FILE`): per
//!   manifest, the graph digest and the verdict analysis gave it, so an
//!   unedited (or renamed) manifest replays without a cache and the
//!   coverage gate can spot drift;
//! * [`FleetReport`] — per-manifest verdict rows plus aggregate counters,
//!   rendered as a human table or stable JSON for pipelines (the
//!   `rehearsal fleet` CLI gates on [`FleetReport::all_clean`]).
//!
//! # Examples
//!
//! ```
//! use rehearsal_fleet::{FleetEngine, FleetJob, FleetOptions, Verdict};
//! use rehearsal_pkgdb::Platform;
//!
//! let mut engine = FleetEngine::new(FleetOptions::default().with_jobs(2));
//! let report = engine.run(vec![FleetJob {
//!     name: "motd.pp".to_string(),
//!     source: "file { '/etc/motd': content => 'hello' }".to_string(),
//!     platform: Platform::Ubuntu,
//! }]);
//! assert!(report.all_clean());
//! assert_eq!(report.rows[0].verdict, Verdict::Deterministic);
//! ```

#![warn(missing_docs)]

pub mod annotations;
pub mod baseline;
pub mod cache;
pub mod discover;
pub mod engine;
pub mod json;
pub mod report;
pub mod scheduler;
pub mod state;

pub use annotations::{annotation_line, github_annotations, row_annotations};
pub use baseline::{BaselineEntry, BaselineStore, BASELINE_SCHEMA_VERSION};
pub use cache::{
    fnv1a_digest, graph_key, job_key, options_fingerprint, CachedVerdict, StoreKey, VerdictCache,
    CACHE_SCHEMA_VERSION,
};
pub use discover::{discover_manifests, read_manifest_list};
pub use engine::{stored_row, verify_directory, FleetEngine, FleetJob, FleetOptions};
pub use json::{diagnostic_from_json, diagnostic_json, parse as parse_json, Json, JsonError};
pub use report::{
    check_document, metrics_json, FleetCounts, FleetReport, JobResult, ReuseCounts, Verdict,
};
pub use scheduler::{run_work_stealing, run_work_stealing_with_stats, SchedulerStats};
pub use state::{StateDir, STATE_BASELINE_FILE, STATE_CACHE_FILE};
