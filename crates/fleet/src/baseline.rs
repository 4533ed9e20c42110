//! The differential-verification baseline store.
//!
//! A baseline file (`rehearsal fleet --baseline FILE`) persists, per
//! manifest, everything a later run needs to re-verify in time
//! proportional to the *diff*:
//!
//! - the canonical **graph digest** of the lowered resource graph — if it
//!   matches, the recorded verdict is replayed with zero re-analysis;
//! - per-resource **footprint summaries** (structural digest plus
//!   read/write/ensured/meta/observed path sets, serialized as path
//!   strings so a
//!   later process can reason about resources an edit *removed*);
//! - the **per-pair commutativity verdicts** keyed by digest pair, which
//!   seed a `CommuteOracle` for the clean remainder of an edited graph;
//! - the **pruning decisions** (read-only path residues), revalidated —
//!   not trusted — on replay, since they are linear-time to recompute;
//! - the recorded verdict, detail, and source-anchored diagnostics.
//!
//! The on-disk format is JSONL like the verdict cache: one entry per
//! line, schema-tagged, append-friendly; corrupt or stale-schema lines
//! read as misses. Entries are keyed by `(manifest name, options
//! fingerprint)` — the fingerprint covers analyzer version, platform, and
//! analysis options — with a digest-based fallback lookup so a renamed
//! but unedited manifest still reuses its entry.

use crate::cache::fnv1a_digest;
use crate::json::{diagnostic_from_json, diagnostic_json, parse, Json};
use crate::report::Verdict;
use rehearsal_diag::Diagnostic;
use rehearsal_pkgdb::Platform;
use std::collections::HashMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// The baseline file schema version. Bump whenever entry contents change
/// meaning (digest scheme, footprint fields, pair encoding); stale-schema
/// lines are skipped on load, so an old baseline degrades to a cold run.
pub const BASELINE_SCHEMA_VERSION: u32 = 1;

/// One resource's persisted footprint summary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResourceSummary {
    /// Structural digest of the resource's FS program.
    pub digest: u64,
    /// Paths the program reads.
    pub reads: Vec<String>,
    /// Paths the program writes or creates.
    pub writes: Vec<String>,
    /// Directories the program idempotently ensures (guarded mkdir).
    pub ensured: Vec<String>,
    /// Paths whose metadata the program manages or observes.
    pub meta: Vec<String>,
    /// Directories whose children the program observes.
    pub observed: Vec<String>,
}

/// One manifest's baseline entry.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineEntry {
    /// Display name (usually the manifest's discovery path). Informational
    /// and a lookup key; content identity lives in `graph_digest`.
    pub manifest: String,
    /// Target platform the entry was recorded under.
    pub platform: Platform,
    /// Fingerprint of analyzer version + platform + analysis options.
    pub options: u64,
    /// Canonical digest of the lowered resource graph.
    pub graph_digest: u64,
    /// Per-resource footprint summaries, in graph order.
    pub resources: Vec<ResourceSummary>,
    /// Dependency edges between resource indices.
    pub edges: Vec<(usize, usize)>,
    /// Per-pair commutativity verdicts, keyed by (digest, digest) with
    /// the smaller digest first.
    pub pairs: Vec<(u64, u64, bool)>,
    /// Paths the pruning pass decided were read-only residues.
    pub pruned: Vec<String>,
    /// The recorded verdict.
    pub verdict: Verdict,
    /// Human-readable verdict detail.
    pub detail: String,
    /// Source-anchored findings recorded at analysis time.
    pub diagnostics: Vec<Diagnostic>,
}

/// An in-memory baseline store with an optional JSONL backing file.
#[derive(Debug, Default)]
pub struct BaselineStore {
    entries: HashMap<(String, u64), BaselineEntry>,
    path: Option<PathBuf>,
    dirty: bool,
}

impl BaselineStore {
    /// An empty store with no backing file.
    pub fn in_memory() -> BaselineStore {
        BaselineStore::default()
    }

    /// Opens (or initializes) a store backed by `path`. A missing file is
    /// an empty store; malformed or stale-schema lines are skipped.
    ///
    /// # Errors
    ///
    /// I/O errors other than "not found".
    pub fn open(path: impl AsRef<Path>) -> io::Result<BaselineStore> {
        let path = path.as_ref().to_path_buf();
        let mut store = BaselineStore {
            entries: HashMap::new(),
            path: Some(path.clone()),
            dirty: false,
        };
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(store),
            Err(e) => return Err(e),
        };
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let Ok(json) = parse(line) else { continue };
            let Some(entry) = decode_entry(&json) else {
                continue;
            };
            store
                .entries
                .insert((entry.manifest.clone(), entry.options), entry);
        }
        Ok(store)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry recorded for this manifest under this options
    /// fingerprint, if any.
    pub fn get(&self, manifest: &str, options: u64) -> Option<&BaselineEntry> {
        self.entries.get(&(manifest.to_string(), options))
    }

    /// Any entry with this graph digest under this options fingerprint —
    /// the rename-proof fallback: a moved manifest with identical lowered
    /// structure reuses its old entry wholesale.
    pub fn find_by_digest(&self, graph_digest: u64, options: u64) -> Option<&BaselineEntry> {
        self.entries
            .values()
            .filter(|e| e.options == options && e.graph_digest == graph_digest)
            .min_by(|a, b| a.manifest.cmp(&b.manifest))
    }

    /// Iterates every entry (order unspecified) — the raw material for
    /// coverage/drift rollups, which snapshot pinned verdicts before a
    /// run re-records them.
    pub fn entries(&self) -> impl Iterator<Item = &BaselineEntry> {
        self.entries.values()
    }

    /// Consumes the store and returns an identical one with no backing
    /// file: saves become no-ops. A coverage gate reads pins through a
    /// detached store so inspecting drift never silently re-pins.
    #[must_use]
    pub fn detached(mut self) -> BaselineStore {
        self.path = None;
        self.dirty = false;
        self
    }

    /// Records (or replaces) the entry for `(entry.manifest,
    /// entry.options)`.
    pub fn put(&mut self, entry: BaselineEntry) {
        self.entries
            .insert((entry.manifest.clone(), entry.options), entry);
        self.dirty = true;
    }

    /// Writes the store back to its backing file (a no-op for in-memory
    /// stores or when nothing changed).
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
        let mut keys: Vec<&(String, u64)> = self.entries.keys().collect();
        keys.sort();
        let mut file = std::fs::File::create(path)?;
        for key in keys {
            writeln!(file, "{}", encode_entry(&self.entries[key]).render())?;
        }
        self.dirty = false;
        Ok(())
    }
}

fn hex(v: u64) -> Json {
    Json::str(format!("{v:016x}"))
}

fn from_hex(j: &Json) -> Option<u64> {
    u64::from_str_radix(j.as_str()?, 16).ok()
}

fn str_arr(items: &[String]) -> Json {
    Json::Arr(items.iter().map(Json::str).collect())
}

fn decode_str_arr(j: &Json) -> Option<Vec<String>> {
    j.as_arr()?
        .iter()
        .map(|s| s.as_str().map(str::to_string))
        .collect()
}

fn encode_entry(entry: &BaselineEntry) -> Json {
    Json::obj([
        ("schema", Json::num(BASELINE_SCHEMA_VERSION)),
        ("manifest", Json::str(&entry.manifest)),
        ("platform", Json::str(entry.platform.to_string())),
        ("options", hex(entry.options)),
        ("graph_digest", hex(entry.graph_digest)),
        (
            "resources",
            Json::Arr(
                entry
                    .resources
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("digest", hex(r.digest)),
                            ("reads", str_arr(&r.reads)),
                            ("writes", str_arr(&r.writes)),
                            ("ensured", str_arr(&r.ensured)),
                            ("meta", str_arr(&r.meta)),
                            ("observed", str_arr(&r.observed)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "edges",
            Json::Arr(
                entry
                    .edges
                    .iter()
                    .map(|&(a, b)| Json::Arr(vec![Json::num(a as u32), Json::num(b as u32)]))
                    .collect(),
            ),
        ),
        (
            "pairs",
            Json::Arr(
                entry
                    .pairs
                    .iter()
                    .map(|&(a, b, commute)| Json::Arr(vec![hex(a), hex(b), Json::Bool(commute)]))
                    .collect(),
            ),
        ),
        ("pruned", str_arr(&entry.pruned)),
        ("verdict", Json::str(entry.verdict.label())),
        ("detail", Json::str(&entry.detail)),
        (
            "diagnostics",
            Json::Arr(entry.diagnostics.iter().map(diagnostic_json).collect()),
        ),
    ])
}

fn decode_entry(json: &Json) -> Option<BaselineEntry> {
    if json.get("schema")?.as_u64()? != u64::from(BASELINE_SCHEMA_VERSION) {
        return None;
    }
    let resources = json
        .get("resources")?
        .as_arr()?
        .iter()
        .map(|r| {
            Some(ResourceSummary {
                digest: from_hex(r.get("digest")?)?,
                reads: decode_str_arr(r.get("reads")?)?,
                writes: decode_str_arr(r.get("writes")?)?,
                ensured: decode_str_arr(r.get("ensured")?)?,
                meta: decode_str_arr(r.get("meta")?)?,
                observed: decode_str_arr(r.get("observed")?)?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let edges = json
        .get("edges")?
        .as_arr()?
        .iter()
        .map(|e| {
            let pair = e.as_arr()?;
            match pair {
                [a, b] => Some((a.as_u64()? as usize, b.as_u64()? as usize)),
                _ => None,
            }
        })
        .collect::<Option<Vec<_>>>()?;
    let pairs = json
        .get("pairs")?
        .as_arr()?
        .iter()
        .map(|p| {
            let triple = p.as_arr()?;
            match triple {
                [a, b, commute] => Some((from_hex(a)?, from_hex(b)?, commute.as_bool()?)),
                _ => None,
            }
        })
        .collect::<Option<Vec<_>>>()?;
    Some(BaselineEntry {
        manifest: json.get("manifest")?.as_str()?.to_string(),
        platform: json.get("platform")?.as_str()?.parse().ok()?,
        options: from_hex(json.get("options")?)?,
        graph_digest: from_hex(json.get("graph_digest")?)?,
        resources,
        edges,
        pairs,
        pruned: decode_str_arr(json.get("pruned")?)?,
        verdict: Verdict::from_label(json.get("verdict")?.as_str()?)?,
        detail: json.get("detail")?.as_str()?.to_string(),
        diagnostics: json
            .get("diagnostics")?
            .as_arr()?
            .iter()
            .map(diagnostic_from_json)
            .collect::<Option<Vec<_>>>()?,
    })
}

/// A content hash of a baseline entry's identity-bearing fields, used by
/// tests to assert that replayed entries are bit-identical to recorded
/// ones.
pub fn entry_fingerprint(entry: &BaselineEntry) -> u64 {
    fnv1a_digest(encode_entry(entry).render().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(manifest: &str, digest: u64) -> BaselineEntry {
        BaselineEntry {
            manifest: manifest.to_string(),
            platform: Platform::Ubuntu,
            options: 0xabcd,
            graph_digest: digest,
            resources: vec![ResourceSummary {
                digest: 0x11,
                reads: vec!["/etc".to_string()],
                writes: vec!["/etc/x".to_string()],
                ensured: vec!["/etc".to_string()],
                meta: vec![],
                observed: vec![],
            }],
            edges: vec![(0, 0)],
            pairs: vec![(0x11, 0x22, true)],
            pruned: vec!["/etc/x".to_string()],
            verdict: Verdict::Deterministic,
            detail: String::new(),
            diagnostics: vec![Diagnostic::error("R3001", "race").with_primary(
                rehearsal_diag::Span::new(
                    rehearsal_diag::Pos::new(1, 1),
                    rehearsal_diag::Pos::new(1, 5),
                ),
                "here",
            )],
        }
    }

    #[test]
    fn roundtrip_through_disk() {
        let dir = std::env::temp_dir().join("rehearsal-baseline-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.jsonl");
        let _ = std::fs::remove_file(&path);

        let mut store = BaselineStore::open(&path).unwrap();
        assert!(store.is_empty());
        store.put(entry("site.pp", 0xfeed));
        store.save().unwrap();

        let reloaded = BaselineStore::open(&path).unwrap();
        assert_eq!(reloaded.len(), 1);
        let hit = reloaded.get("site.pp", 0xabcd).unwrap();
        assert_eq!(hit, &entry("site.pp", 0xfeed));
        assert_eq!(
            entry_fingerprint(hit),
            entry_fingerprint(&entry("site.pp", 0xfeed))
        );

        // A large entry: hundreds of non-ASCII, quote- and
        // backslash-bearing paths and a long detail on one line.
        let mut big = entry("big \"site\".pp", 0xbeef);
        let paths: Vec<String> = (0..400)
            .map(|i| format!("/srv/vérité-{i}/\"q\"\\b→{i}/😀\tx"))
            .collect();
        big.resources = (0..6)
            .map(|r| ResourceSummary {
                digest: r,
                reads: paths.clone(),
                writes: paths[r as usize..].to_vec(),
                ensured: paths[..r as usize * 10].to_vec(),
                meta: paths.iter().rev().cloned().collect(),
                observed: vec!["/srv".to_string()],
            })
            .collect();
        big.pruned = paths.clone();
        big.detail = "détail \"€\" \\ ".repeat(2_000);
        let mut store = BaselineStore::open(&path).unwrap();
        store.put(big.clone());
        store.save().unwrap();
        let reloaded = BaselineStore::open(&path).unwrap();
        assert_eq!(reloaded.len(), 2);
        assert_eq!(reloaded.get("big \"site\".pp", 0xabcd), Some(&big));
    }

    #[test]
    fn digest_lookup_survives_renames() {
        let mut store = BaselineStore::in_memory();
        store.put(entry("old-name.pp", 0xfeed));
        assert!(store.get("new-name.pp", 0xabcd).is_none());
        let by_digest = store.find_by_digest(0xfeed, 0xabcd).unwrap();
        assert_eq!(by_digest.manifest, "old-name.pp");
        assert!(store.find_by_digest(0xfeed, 0x9999).is_none());
        assert!(store.find_by_digest(0xdead, 0xabcd).is_none());
    }

    #[test]
    fn corrupt_and_stale_lines_are_skipped() {
        let dir = std::env::temp_dir().join("rehearsal-baseline-corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.jsonl");
        let mut store = BaselineStore {
            entries: HashMap::new(),
            path: Some(path.clone()),
            dirty: false,
        };
        store.put(entry("good.pp", 1));
        store.save().unwrap();
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("not json\n{\"schema\":99,\"manifest\":\"stale.pp\"}\n");
        std::fs::write(&path, text).unwrap();

        let reloaded = BaselineStore::open(&path).unwrap();
        assert_eq!(reloaded.len(), 1);
        assert!(reloaded.get("good.pp", 0xabcd).is_some());
    }
}
