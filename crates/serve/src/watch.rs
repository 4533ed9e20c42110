//! Watch mode: a polling thread that re-verifies manifests as they
//! change on disk. Each tick walks the watched directory for `.pp`
//! files and hashes their contents; new or changed manifests go through
//! the service's normal check path — which consults the resident
//! verdict cache and the baseline pins, so a formatting or rename edit
//! costs only lowering, and any other edit is analyzed cold — and drift
//! against the pinned baseline is recorded in the coverage rollup and
//! the history chain.

use crate::service::Service;
use rehearsal_fleet::{discover_manifests, fnv1a_digest};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How finely the inter-poll sleep is sliced so shutdown is noticed
/// promptly even under long poll intervals.
const SLEEP_SLICE: Duration = Duration::from_millis(50);

/// Spawns the watcher thread. The first scan verifies *every* manifest
/// (seeding the coverage rollup); later scans re-verify only new or
/// changed files, keyed by an FNV-1a content hash (mtime-independent,
/// so `touch` alone never re-verifies). The thread exits when the
/// service starts stopping.
pub fn spawn_watcher(service: Arc<Service>, dir: PathBuf, poll_ms: u64) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut seen: HashMap<String, u64> = HashMap::new();
        while !service.stopping() {
            service.note_watch_scan();
            let manifests = discover_manifests(&dir).unwrap_or_default();
            for path in manifests {
                if service.stopping() {
                    return;
                }
                let name = path.display().to_string();
                let Ok(source) = std::fs::read_to_string(&path) else {
                    // Unreadable (mid-write, deleted between walk and
                    // read): the next tick will see it settled.
                    continue;
                };
                let hash = fnv1a_digest(source.as_bytes());
                if seen.get(&name) == Some(&hash) {
                    continue;
                }
                service.watch_check(&name, source);
                seen.insert(name, hash);
            }
            let mut slept = Duration::ZERO;
            let poll = Duration::from_millis(poll_ms.max(1));
            while slept < poll && !service.stopping() {
                let slice = SLEEP_SLICE.min(poll - slept);
                std::thread::sleep(slice);
                slept += slice;
            }
        }
    })
}
