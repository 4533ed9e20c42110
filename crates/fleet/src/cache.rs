//! The content-addressed verdict cache.
//!
//! Analyzed jobs are stored under the *semantic* key
//! `hash(graph_digest, platform, AnalysisOptions)` ([`graph_key`]), where
//! the digest is the canonical structural digest of the lowered resource
//! graph — so a rerun after a formatting, comment, or resource-reorder
//! edit still hits warm, and renaming or moving a manifest file never
//! misses (the key embeds no path). Only jobs that fail to *lower* fall
//! back to the raw-source key ([`job_key`]): a formatting edit can change
//! a parse error, so source text is exactly the right identity there.
//! The on-disk format is JSONL (one entry per line), append-friendly and
//! greppable; loads tolerate and skip corrupt lines so a torn write can
//! never poison a CI gate.

use crate::json::{diagnostic_from_json, diagnostic_json, parse, Json};
use crate::report::Verdict;
use rehearsal_core::AnalysisOptions;
use rehearsal_diag::Diagnostic;
use rehearsal_pkgdb::Platform;
use std::collections::HashMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// A cached verdict (everything needed to reconstruct a report row).
///
/// The detail and diagnostics are shared, not copied, with the baseline
/// pin that records the same verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedVerdict {
    /// The verdict.
    pub verdict: Verdict,
    /// Human-readable detail.
    pub detail: Arc<str>,
    /// Resources in the manifest's graph.
    pub resources: usize,
    /// The source-anchored findings recorded at analysis time, so cache
    /// hits can replay per-line annotations without re-analysis.
    pub diagnostics: Arc<[Diagnostic]>,
}

/// The verdict-cache key a row was answered from or filed under, tagged
/// with the key space it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreKey {
    /// A [`graph_key`]: the job lowered, and its graph was analyzed (or
    /// replayed from a baseline pin).
    Graph(u64),
    /// A [`job_key`]: the job's source failed to lower.
    Source(u64),
}

impl StoreKey {
    /// The raw cache key.
    pub fn key(self) -> u64 {
        match self {
            StoreKey::Graph(key) | StoreKey::Source(key) => key,
        }
    }
}

/// `detail` as a shared string. Every passing verdict has an empty
/// detail, and all of them share one allocation.
pub(crate) fn shared_detail(detail: &str) -> Arc<str> {
    static EMPTY: OnceLock<Arc<str>> = OnceLock::new();
    if detail.is_empty() {
        return Arc::clone(EMPTY.get_or_init(|| Arc::from("")));
    }
    Arc::from(detail)
}

/// `diagnostics` as a shared slice; every verdict without findings shares
/// one empty allocation.
pub(crate) fn shared_diagnostics(diagnostics: Vec<Diagnostic>) -> Arc<[Diagnostic]> {
    static EMPTY: OnceLock<Arc<[Diagnostic]>> = OnceLock::new();
    if diagnostics.is_empty() {
        return Arc::clone(EMPTY.get_or_init(|| Arc::from(Vec::new())));
    }
    Arc::from(diagnostics)
}

/// An in-memory verdict cache with an optional JSONL backing file.
#[derive(Debug, Default)]
pub struct VerdictCache {
    entries: HashMap<u64, CachedVerdict>,
    path: Option<PathBuf>,
    dirty: bool,
}

/// FNV-1a, the classic dependency-free 64-bit content hash.
fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over one byte string from the standard offset basis — the
/// workspace's dependency-free content hash, shared by the baseline
/// store, the serve daemon's request memo, and the tamper-evident
/// history chain.
pub fn fnv1a_digest(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

/// The cache schema version. Bump whenever the analyzer can produce a
/// different verdict (or different verdict-bearing detail) for the same
/// `(source, platform, options)` input — e.g. the version-2 bump when the
/// explorer core was rewritten (bitset POR, state dedup, incremental
/// early-exit SAT), and the version-3 bump for the metadata-aware model
/// (a new `model_metadata` key dimension) plus the stage-assignment
/// bugfix (stage edges for late-declared members changed, which can flip
/// verdicts of stage-using manifests), and the version-4 bump for the
/// unified diagnostics API (entries now carry the job's source-anchored
/// `diagnostics`, which older entries cannot supply), and the version-5
/// bump for semantic cache keys (analyzed jobs are keyed on the canonical
/// digest of the lowered graph instead of raw source bytes, a different
/// key space entirely — schema-4 source-keyed entries must read as
/// misses). The version is both mixed into every key *and* stored per
/// entry, so caches written by an older analyzer are read back as
/// all-miss rather than served stale.
pub const CACHE_SCHEMA_VERSION: u32 = 5;

/// Salt mixed into every key so a persisted cache cannot serve verdicts
/// produced by a different analyzer version or cache schema: any release
/// may change the analysis logic, and the workspace version bumps with
/// it. Derived from [`CACHE_SCHEMA_VERSION`] so a schema bump cannot
/// drift out of the key space.
fn key_salt() -> String {
    format!(
        "rehearsal-fleet-cache/{}/schema-{}",
        env!("CARGO_PKG_VERSION"),
        CACHE_SCHEMA_VERSION
    )
}

/// The source-text cache key for one job: analyzer version, source
/// bytes, platform, and every analysis option that can change the
/// verdict. Since schema 5 this keys only jobs that fail to lower (parse
/// and evaluation errors are functions of the exact source text);
/// analyzed verdicts use the semantic [`graph_key`].
pub fn job_key(source: &str, platform: Platform, options: &AnalysisOptions) -> u64 {
    let h = fnv1a(FNV_OFFSET, key_salt().as_bytes());
    let h = fnv1a(h, b"source");
    let h = fnv1a(h, source.as_bytes());
    finish_key(h, platform, options)
}

/// The semantic cache key for one analyzed job: analyzer version, the
/// canonical structural digest of the lowered resource graph
/// (`rehearsal_core::footprint::graph_digest`), platform, and every
/// analysis option that can change the verdict. Manifests that lower to
/// the same graph — formatting, comments, resource reordering, or a file
/// rename — share a key.
pub fn graph_key(graph_digest: u64, platform: Platform, options: &AnalysisOptions) -> u64 {
    let h = fnv1a(FNV_OFFSET, key_salt().as_bytes());
    let h = fnv1a(h, b"graph");
    let h = fnv1a(h, &graph_digest.to_le_bytes());
    finish_key(h, platform, options)
}

/// A fingerprint of everything *except* the manifest content that can
/// change a verdict: analyzer version, cache schema, platform, and
/// analysis options. Baseline entries are scoped by it so a baseline
/// recorded under one configuration is never consulted under another.
pub fn options_fingerprint(platform: Platform, options: &AnalysisOptions) -> u64 {
    finish_key(fnv1a(FNV_OFFSET, key_salt().as_bytes()), platform, options)
}

fn finish_key(state: u64, platform: Platform, options: &AnalysisOptions) -> u64 {
    let mut h = fnv1a(state, platform.to_string().as_bytes());
    h = fnv1a(
        h,
        &[
            options.commutativity as u8,
            options.elimination as u8,
            options.pruning as u8,
            // Modeling options change verdicts just like reductions do:
            // a metadata-aware verdict must never answer a metadata-free
            // query (or vice versa), and likewise for `latest` modeling.
            options.model_metadata as u8,
            options.model_latest as u8,
        ],
    );
    h = fnv1a(h, &(options.max_sequences as u64).to_le_bytes());
    let timeout_ms = options
        .timeout
        .map(|t| t.as_millis() as u64)
        .unwrap_or(u64::MAX);
    fnv1a(h, &timeout_ms.to_le_bytes())
}

impl VerdictCache {
    /// An empty cache with no backing file.
    pub fn in_memory() -> VerdictCache {
        VerdictCache::default()
    }

    /// Opens (or initializes) a cache backed by `path`. A missing file is
    /// an empty cache; malformed lines are skipped.
    ///
    /// # Errors
    ///
    /// I/O errors other than "not found".
    pub fn open(path: impl AsRef<Path>) -> io::Result<VerdictCache> {
        let path = path.as_ref().to_path_buf();
        let mut cache = VerdictCache {
            entries: HashMap::new(),
            path: Some(path.clone()),
            dirty: false,
        };
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(cache),
            Err(e) => return Err(e),
        };
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let Ok(entry) = parse(line) else { continue };
            let Some((key, cached)) = decode_entry(&entry) else {
                continue;
            };
            cache.entries.insert(key, cached);
        }
        Ok(cache)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks a job key up.
    pub fn get(&self, key: u64) -> Option<&CachedVerdict> {
        self.entries.get(&key)
    }

    /// Records a verdict. Timeouts are deliberately not cached: a rerun
    /// with more headroom may well complete.
    pub fn put(&mut self, key: u64, verdict: CachedVerdict) {
        if verdict.verdict == Verdict::Timeout {
            return;
        }
        if self.entries.insert(key, verdict).is_none() {
            self.dirty = true;
        }
    }

    /// Writes the cache back to its backing file (a no-op for in-memory
    /// caches or when nothing changed). Rewrites the whole file, which
    /// also compacts duplicate lines from older appends.
    ///
    /// # Errors
    ///
    /// I/O errors from create/write.
    pub fn save(&mut self) -> io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        if !self.dirty {
            return Ok(());
        }
        let mut keys: Vec<u64> = self.entries.keys().copied().collect();
        keys.sort_unstable();
        let mut file = std::fs::File::create(path)?;
        for key in keys {
            let entry = encode_entry(key, &self.entries[&key]);
            writeln!(file, "{}", entry.render())?;
        }
        self.dirty = false;
        Ok(())
    }
}

fn encode_entry(key: u64, cached: &CachedVerdict) -> Json {
    Json::obj([
        ("schema", Json::num(CACHE_SCHEMA_VERSION)),
        ("key", Json::str(format!("{key:016x}"))),
        ("verdict", Json::str(cached.verdict.label())),
        ("detail", Json::str(&*cached.detail)),
        ("resources", Json::num(cached.resources as u32)),
        (
            "diagnostics",
            Json::Arr(cached.diagnostics.iter().map(diagnostic_json).collect()),
        ),
    ])
}

fn decode_entry(entry: &Json) -> Option<(u64, CachedVerdict)> {
    // A missing or older schema tag means the entry was produced by a
    // different explorer core: treat it as a miss (the line is dropped on
    // the next save).
    let schema = entry.get("schema")?.as_u64()?;
    if schema != u64::from(CACHE_SCHEMA_VERSION) {
        return None;
    }
    let key = u64::from_str_radix(entry.get("key")?.as_str()?, 16).ok()?;
    let verdict = Verdict::from_label(entry.get("verdict")?.as_str()?)?;
    let detail = shared_detail(entry.get("detail")?.as_str()?);
    let resources = entry.get("resources")?.as_u64()? as usize;
    let diagnostics = shared_diagnostics(
        entry
            .get("diagnostics")?
            .as_arr()?
            .iter()
            .map(diagnostic_from_json)
            .collect::<Option<Vec<_>>>()?,
    );
    Some((
        key,
        CachedVerdict {
            verdict,
            detail,
            resources,
            diagnostics,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> AnalysisOptions {
        AnalysisOptions::default()
    }

    #[test]
    fn key_depends_on_all_inputs() {
        let base = job_key("file { '/x': }", Platform::Ubuntu, &opts());
        assert_eq!(base, job_key("file { '/x': }", Platform::Ubuntu, &opts()));
        assert_ne!(base, job_key("file { '/y': }", Platform::Ubuntu, &opts()));
        assert_ne!(base, job_key("file { '/x': }", Platform::Centos, &opts()));
        let mut other = opts();
        other.pruning = false;
        assert_ne!(base, job_key("file { '/x': }", Platform::Ubuntu, &other));
        let timed = opts().with_timeout(std::time::Duration::from_secs(60));
        assert_ne!(base, job_key("file { '/x': }", Platform::Ubuntu, &timed));
    }

    #[test]
    fn graph_key_depends_on_digest_platform_and_options() {
        let base = graph_key(0xfeed, Platform::Ubuntu, &opts());
        assert_eq!(base, graph_key(0xfeed, Platform::Ubuntu, &opts()));
        assert_ne!(base, graph_key(0xbeef, Platform::Ubuntu, &opts()));
        assert_ne!(base, graph_key(0xfeed, Platform::Centos, &opts()));
        let mut other = opts();
        other.model_metadata = true;
        assert_ne!(base, graph_key(0xfeed, Platform::Ubuntu, &other));
    }

    #[test]
    fn graph_and_source_key_spaces_are_disjoint() {
        // A lowering-error entry must never answer a semantic lookup
        // (or vice versa), even on a contrived hash-input collision.
        let digest = 0x736f_7572_6365u64; // "source" as bytes
        assert_ne!(
            graph_key(digest, Platform::Ubuntu, &opts()),
            job_key("source", Platform::Ubuntu, &opts())
        );
    }

    #[test]
    fn roundtrip_through_disk() {
        let dir = std::env::temp_dir().join("rehearsal-fleet-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.jsonl");
        let _ = std::fs::remove_file(&path);

        let mut cache = VerdictCache::open(&path).unwrap();
        assert!(cache.is_empty());
        cache.put(
            7,
            CachedVerdict {
                verdict: Verdict::Nondeterministic,
                detail: "orders diverge".into(),
                resources: 3,
                diagnostics: vec![rehearsal_diag::Diagnostic::error("R3001", "orders diverge")
                    .with_primary(
                        rehearsal_diag::Span::new(
                            rehearsal_diag::Pos::new(2, 1),
                            rehearsal_diag::Pos::new(2, 10),
                        ),
                        "here",
                    )]
                .into(),
            },
        );
        cache.save().unwrap();

        let reloaded = VerdictCache::open(&path).unwrap();
        assert_eq!(reloaded.len(), 1);
        let hit = reloaded.get(7).unwrap();
        assert_eq!(hit.verdict, Verdict::Nondeterministic);
        // Schema-4 entries restore source-anchored diagnostics, so warm
        // runs can emit per-line annotations without re-analysis.
        assert_eq!(hit.diagnostics.len(), 1);
        assert_eq!(hit.diagnostics[0].code, "R3001");
        assert_eq!(hit.diagnostics[0].span().lo.line, 2);
    }

    #[test]
    fn timeouts_are_not_cached() {
        let mut cache = VerdictCache::in_memory();
        cache.put(
            1,
            CachedVerdict {
                verdict: Verdict::Timeout,
                detail: "".into(),
                resources: 0,
                diagnostics: Vec::new().into(),
            },
        );
        assert!(cache.get(1).is_none());
    }

    #[test]
    fn corrupt_lines_are_skipped() {
        let dir = std::env::temp_dir().join("rehearsal-fleet-cache-corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.jsonl");
        let v = CACHE_SCHEMA_VERSION;
        std::fs::write(
            &path,
            format!(
                "not json at all\n\
                 {{\"schema\":{v},\"key\":\"0000000000000002\",\"verdict\":\"deterministic\",\"detail\":\"\",\"resources\":1,\"diagnostics\":[]}}\n\
                 {{\"schema\":{v},\"key\":\"zzz\",\"verdict\":\"deterministic\",\"detail\":\"\",\"resources\":1}}\n"
            ),
        )
        .unwrap();
        let cache = VerdictCache::open(&path).unwrap();
        assert_eq!(cache.len(), 1);
        assert!(cache.get(2).is_some());
    }

    #[test]
    fn stale_schema_entries_are_misses() {
        let dir = std::env::temp_dir().join("rehearsal-fleet-cache-stale");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.jsonl");
        // A schema-1 era entry (no tag) and explicit older tags: all must
        // read back as misses, never as verdicts from an old analyzer. A
        // current-schema entry on the same file still loads.
        let v = CACHE_SCHEMA_VERSION;
        std::fs::write(
            &path,
            format!(
                "{{\"key\":\"0000000000000007\",\"verdict\":\"deterministic\",\"detail\":\"\",\"resources\":1}}\n\
                 {{\"schema\":1,\"key\":\"0000000000000008\",\"verdict\":\"nondeterministic\",\"detail\":\"\",\"resources\":1}}\n\
                 {{\"schema\":2,\"key\":\"000000000000000a\",\"verdict\":\"deterministic\",\"detail\":\"\",\"resources\":1}}\n\
                 {{\"schema\":{v},\"key\":\"0000000000000009\",\"verdict\":\"deterministic\",\"detail\":\"\",\"resources\":1,\"diagnostics\":[]}}\n"
            ),
        )
        .unwrap();
        let cache = VerdictCache::open(&path).unwrap();
        assert_eq!(cache.len(), 1, "only the current-schema entry survives");
        assert!(cache.get(7).is_none());
        assert!(cache.get(8).is_none());
        assert!(cache.get(9).is_some());
    }

    #[test]
    fn saved_entries_carry_the_schema_version() {
        let mut cache = VerdictCache::in_memory();
        cache.put(
            3,
            CachedVerdict {
                verdict: Verdict::Deterministic,
                detail: "".into(),
                resources: 2,
                diagnostics: Vec::new().into(),
            },
        );
        let entry = encode_entry(3, cache.get(3).unwrap());
        assert_eq!(
            entry.get("schema").and_then(Json::as_u64),
            Some(u64::from(CACHE_SCHEMA_VERSION))
        );
        // And the key salt separates schema generations: identical inputs
        // hash differently from any pre-bump binary because the current
        // schema version is always part of the salt.
        assert!(key_salt().ends_with(&format!("schema-{CACHE_SCHEMA_VERSION}")));
    }
}
