//! The baseline store: one verdict pin per manifest.
//!
//! A baseline file (`rehearsal fleet --baseline FILE`, and the
//! `baseline.jsonl` of a serve state directory) records, per manifest,
//! the canonical **graph digest** of its lowered resource graph and the
//! verdict, detail and source-anchored diagnostics that analysis produced
//! for it. It serves three readers:
//!
//! - **replay** — a manifest whose graph digest matches its entry gets
//!   the recorded verdict with zero re-analysis, even without a verdict
//!   cache; a renamed but unedited manifest is found by digest;
//! - **coverage** — `rehearsal coverage --baseline FILE` compares fresh
//!   verdicts against the pins and gates on drift;
//! - **serve drift detection** — the daemon flags a watched manifest
//!   whose verdict moved away from its pin.
//!
//! The on-disk format is JSONL like the verdict cache: one entry per
//! line, schema-tagged; corrupt or stale-schema lines read as misses.
//! Keys the decoder does not know are ignored, so lines written by
//! older releases (which also carried per-resource footprints, edges,
//! pair verdicts and pruning residues) still load, and the next save
//! rewrites them in the slim form. Entries are keyed by `(manifest name,
//! options fingerprint)` — the fingerprint covers analyzer version,
//! platform, and analysis options.

use crate::cache::{shared_detail, shared_diagnostics};
use crate::json::{diagnostic_from_json, diagnostic_json, parse, Json};
use crate::report::Verdict;
use rehearsal_diag::Diagnostic;
use rehearsal_pkgdb::Platform;
use std::collections::HashMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The baseline file schema version. Bump whenever entry contents change
/// meaning (for example the digest scheme); stale-schema lines are
/// skipped on load, so an old baseline degrades to a cold run.
pub const BASELINE_SCHEMA_VERSION: u32 = 1;

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
    /// The recorded verdict.
    pub verdict: Verdict,
    /// Human-readable verdict detail (shared with the verdict-cache
    /// entry for the same analysis).
    pub detail: Arc<str>,
    /// Source-anchored findings recorded at analysis time (shared like
    /// `detail`).
    pub diagnostics: Arc<[Diagnostic]>,
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

fn encode_entry(entry: &BaselineEntry) -> Json {
    Json::obj([
        ("schema", Json::num(BASELINE_SCHEMA_VERSION)),
        ("manifest", Json::str(&entry.manifest)),
        ("platform", Json::str(entry.platform.to_string())),
        ("options", hex(entry.options)),
        ("graph_digest", hex(entry.graph_digest)),
        ("verdict", Json::str(entry.verdict.label())),
        ("detail", Json::str(&*entry.detail)),
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
    Some(BaselineEntry {
        manifest: json.get("manifest")?.as_str()?.to_string(),
        platform: json.get("platform")?.as_str()?.parse().ok()?,
        options: from_hex(json.get("options")?)?,
        graph_digest: from_hex(json.get("graph_digest")?)?,
        verdict: Verdict::from_label(json.get("verdict")?.as_str()?)?,
        detail: shared_detail(json.get("detail")?.as_str()?),
        diagnostics: shared_diagnostics(
            json.get("diagnostics")?
                .as_arr()?
                .iter()
                .map(diagnostic_from_json)
                .collect::<Option<Vec<_>>>()?,
        ),
    })
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
            verdict: Verdict::Deterministic,
            detail: "".into(),
            diagnostics: vec![Diagnostic::error("R3001", "race").with_primary(
                rehearsal_diag::Span::new(
                    rehearsal_diag::Pos::new(1, 1),
                    rehearsal_diag::Pos::new(1, 5),
                ),
                "here",
            )]
            .into(),
        }
    }

    /// The keys older releases wrote next to the pin; none is read or
    /// written any more.
    const DROPPED_KEYS: [&str; 4] = ["resources", "edges", "pairs", "pruned"];

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

        // A large entry: a non-ASCII, quote- and backslash-bearing name
        // and a 32 KB detail on one line.
        let mut big = entry("big \"site\"/vérité\\😀\t.pp", 0xbeef);
        big.detail = "détail \"€\" \\ ".repeat(2_000).into();
        let mut store = BaselineStore::open(&path).unwrap();
        store.put(big.clone());
        store.save().unwrap();
        let reloaded = BaselineStore::open(&path).unwrap();
        assert_eq!(reloaded.len(), 2);
        assert_eq!(reloaded.get(&big.manifest, 0xabcd), Some(&big));
    }

    #[test]
    fn saved_entries_hold_only_the_pin() {
        let dir = std::env::temp_dir().join("rehearsal-baseline-slim");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut store = BaselineStore::open(&path).unwrap();
        store.put(entry("site.pp", 0xfeed));
        store.save().unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let line = parse(text.trim()).unwrap();
        let Json::Obj(fields) = &line else {
            panic!("entry is not an object: {text}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "schema",
                "manifest",
                "platform",
                "options",
                "graph_digest",
                "verdict",
                "detail",
                "diagnostics"
            ]
        );
        for key in DROPPED_KEYS {
            assert!(!text.contains(&format!("\"{key}\"")), "{key} in {text}");
        }
    }

    #[test]
    fn lines_with_dropped_keys_load_and_are_rewritten_slim() {
        let dir = std::env::temp_dir().join("rehearsal-baseline-legacy");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.jsonl");
        // A line as older releases wrote it: the pin plus footprints,
        // edges, pair verdicts and pruning residues.
        let legacy = "{\"schema\": 1, \"manifest\": \"old.pp\", \"platform\": \"ubuntu\", \
                      \"options\": \"000000000000abcd\", \"graph_digest\": \"000000000000feed\", \
                      \"resources\": [{\"digest\": \"0000000000000011\", \"reads\": [\"/etc\"], \
                      \"writes\": [\"/etc/x\"], \"ensured\": [\"/etc\"], \"meta\": [], \
                      \"observed\": []}], \"edges\": [[0, 0]], \
                      \"pairs\": [[\"0000000000000011\", \"0000000000000022\", true]], \
                      \"pruned\": [\"/etc/x\"], \"verdict\": \"nondeterministic\", \
                      \"detail\": \"order A succeeds, order B errors\", \"diagnostics\": []}\n";
        std::fs::write(&path, legacy).unwrap();

        let mut store = BaselineStore::open(&path).unwrap();
        let hit = store.get("old.pp", 0xabcd).expect("legacy line loads");
        assert_eq!(hit.graph_digest, 0xfeed);
        assert_eq!(hit.verdict, Verdict::Nondeterministic);
        assert_eq!(&*hit.detail, "order A succeeds, order B errors");
        assert_eq!(
            store.find_by_digest(0xfeed, 0xabcd).map(|e| &e.manifest),
            Some(&"old.pp".to_string())
        );

        // Loading alone does not rewrite the file; the next save does.
        store.save().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), legacy);
        store.put(entry("new.pp", 0xbeef));
        store.save().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        for key in DROPPED_KEYS {
            assert!(!text.contains(&format!("\"{key}\"")), "{key} in {text}");
        }
        let reloaded = BaselineStore::open(&path).unwrap();
        assert_eq!(reloaded.len(), 2);
        assert_eq!(
            reloaded.get("old.pp", 0xabcd).map(|e| &e.verdict),
            Some(&Verdict::Nondeterministic)
        );
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
